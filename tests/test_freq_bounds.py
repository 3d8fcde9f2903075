"""Tests for frequentist ENFP bounds and capacity arithmetic."""

import json
import math
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from enfp.freq_bounds import (
    FreqBoundInput,
    TrialSpec,
    _exact_sum,
    _read,
    _tau_from_arrays,
    capacity,
    delta,
    tau_hat_mixed,
    tau_hat_single,
    tau_hat_stratified,
)
from enfp.trials import FailureRegionType

A = FailureRegionType.A
B = FailureRegionType.B


class TestDelta:
    def test_type_a_ignores_m(self):
        assert delta(0.1, 3, A) == 0.1

    def test_type_b_union_bound(self):
        assert_allclose(delta(0.1, 3, B), 0.3, atol=1e-15)

    def test_m1_consistency(self):
        assert delta(0.1, 1, B) == delta(0.1, 1, A) == 0.1

    def test_may_exceed_one(self):
        assert delta(0.6, 3, B) > 1.0

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            delta(-0.1, 1, B)
        with pytest.raises(ValueError):
            delta(0.5, 0, B)

    @pytest.mark.parametrize("t", [A, B])
    def test_m_past_the_largest_float_refused(self, t):
        # m * rho would overflow: refused as a ValueError, not an
        # OverflowError, by delta and by the bound that calls it.
        assert delta(0.5, int(sys.float_info.max), t) >= 0.5
        with pytest.raises(ValueError, match="largest float"):
            delta(0.5, 10**400, t)
        bound = FreqBoundInput(0.5, ((10**400, t, 0.05),))
        with pytest.raises(ValueError, match="largest float"):
            tau_hat_mixed(bound)

    def test_delta_sum_past_the_largest_float_refused(self):
        # Each delta is a float and their exact sum is not: refused as a
        # ValueError naming the sum, not an OverflowError.  A sum that
        # still rounds to the largest float keeps its value.
        big = int(sys.float_info.max)
        within = FreqBoundInput(1.0, ((big, B, 0.5), (1, A, 0.25)))
        assert tau_hat_mixed(within) == sys.float_info.max * 0.75 / 2
        past = FreqBoundInput(1.0, ((10**308, B, 5e-324),) * 2)
        with pytest.raises(ValueError, match="sum of deltas passes"):
            tau_hat_mixed(past)


class TestTauHatSingle:
    def test_hand_evaluation(self):
        assert_allclose(
            tau_hat_single(0.1, [0.05, 0.025, 0.01]), 0.0085, atol=1e-15
        )

    def test_zero_rho(self):
        assert tau_hat_single(0.0, [0.05, 0.01]) == 0.0

    def test_registry_scale_capacity_sum(self):
        assert_allclose(
            tau_hat_single(0.09, [0.025] * 440), 0.99, atol=1e-12
        )

    def test_empty_is_vacuous(self):
        assert tau_hat_single(0.2, []) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_alpha_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            tau_hat_single(0.1, [0.025, bad])

    @pytest.mark.parametrize("bad", [-1.0, 0.0, 1.0, 1.5])
    def test_alpha_outside_unit_interval_rejected(self, bad):
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            tau_hat_single(0.1, [0.025, bad])

    def test_bit_identical_to_mixed_over_1b_designs(self):
        # rho * fsum(alphas) rounds to 0.0085 here, one ulp below the
        # product of sums that tau_hat_mixed and the ledger use.
        rho, alphas = 0.1, [0.01, 0.025, 0.05]
        mixed = tau_hat_mixed(
            FreqBoundInput(rho_hat=rho, trials=tuple((1, B, a) for a in alphas))
        )
        assert rho * math.fsum(alphas) != mixed
        assert tau_hat_single(rho, alphas) == mixed


class TestTauHatMixed:
    def test_hand_evaluation(self):
        value = tau_hat_mixed(
            FreqBoundInput(
                rho_hat=0.1, trials=((1, B, 0.05), (2, A, 0.025))
            )
        )
        assert_allclose(value, 0.0075, atol=1e-15)

    def test_single_type_b_trial(self):
        value = tau_hat_mixed(
            FreqBoundInput(rho_hat=0.1, trials=((2, B, 0.05),))
        )
        assert_allclose(value, 0.01, atol=1e-15)

    def test_reduces_to_single_for_all_1b(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            alphas = rng.uniform(0.001, 0.2, size=rng.integers(1, 30))
            rho = float(rng.uniform(0, 1))
            mixed = tau_hat_mixed(
                FreqBoundInput(
                    rho_hat=rho,
                    trials=tuple((1, B, a) for a in alphas),
                )
            )
            assert mixed == tau_hat_single(rho, alphas)

    def test_empty_is_vacuous(self):
        assert tau_hat_mixed(FreqBoundInput(rho_hat=0.3, trials=())) == 0.0

    def test_monotonicity(self):
        base = FreqBoundInput(
            rho_hat=0.2, trials=((1, B, 0.05), (2, B, 0.025), (3, A, 0.01))
        )
        value = tau_hat_mixed(base)
        # Nondecreasing in any alpha.
        bumped = FreqBoundInput(
            rho_hat=0.2, trials=((1, B, 0.06), (2, B, 0.025), (3, A, 0.01))
        )
        assert tau_hat_mixed(bumped) >= value
        # Nondecreasing in rho.
        assert (
            tau_hat_mixed(
                FreqBoundInput(rho_hat=0.25, trials=base.trials)
            )
            >= value
        )
        # Nondecreasing in m for type B.
        grown = FreqBoundInput(
            rho_hat=0.2, trials=((1, B, 0.05), (4, B, 0.025), (3, A, 0.01))
        )
        assert tau_hat_mixed(grown) >= value

    def test_values_above_n_reported_as_is(self):
        bound = tau_hat_mixed(
            FreqBoundInput(rho_hat=1.0, trials=((8, B, 0.9),) * 3)
        )
        assert bound > 3.0


class TestCapacity:
    def test_exact_mode_unrounded(self):
        assert capacity(1.0, 0.09, 0.025) == 444

    def test_exact_mode_float_guard(self):
        # 0.99 / (0.09 * 0.025) lands one ulp below 440 in floats; the
        # tolerant floor must still return 440.
        assert capacity(0.99, 0.09, 0.025) == 440

    def test_trivial_floor(self):
        assert capacity(1.0, 1.0, 0.5) == 2

    def test_rounded_mode_two_step_path(self):
        # floor(1/0.09) = 11 total error units, then 11/0.025 = 440.
        assert capacity(1.0, 0.09, 0.025, mode="rounded") == 440

    def test_boundary_spend_allowed(self):
        # A trial pushing spend exactly to tau0 is allowed (<=).
        assert capacity(0.5, 0.1, 0.05) == 100

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            capacity(0.0, 0.1, 0.05)
        with pytest.raises(ValueError):
            capacity(1.0, 0.0, 0.05)
        with pytest.raises(ValueError):
            capacity(1.0, 0.1, 0.05, mode="bogus")


class TestStratified:
    def test_hand_evaluation(self):
        per, total = tau_hat_stratified(
            {"s1": [(1, B, 0.05)], "s2": [(1, B, 0.05)]},
            {"s1": 0.05, "s2": 0.2},
        )
        assert_allclose(per["s1"], 0.0025, atol=1e-15)
        assert_allclose(per["s2"], 0.01, atol=1e-15)
        assert_allclose(total, 0.0125, atol=1e-15)

    def test_single_stratum_equals_pooled(self):
        trials = ((1, B, 0.05), (2, A, 0.025), (3, B, 0.01))
        per, total = tau_hat_stratified({"all": trials}, {"all": 0.1})
        pooled = tau_hat_mixed(FreqBoundInput(rho_hat=0.1, trials=trials))
        assert per["all"] == pooled == total

    def test_disjoint_strata_are_additive(self):
        per, total = tau_hat_stratified(
            {"x": [(1, B, 0.05)], "y": [(2, B, 0.01)]},
            {"x": 0.1, "y": 0.3},
        )
        assert_allclose(total, per["x"] + per["y"], atol=1e-15)

    def test_missing_rho_errors(self):
        with pytest.raises(ValueError):
            tau_hat_stratified({"s1": [(1, B, 0.05)]}, {})


class TestInputValidation:
    def test_alpha_range(self):
        with pytest.raises(ValueError):
            TrialSpec(m=1, t=B, alpha=0.0)
        with pytest.raises(ValueError):
            TrialSpec(m=1, t=B, alpha=1.0)

    def test_rho_range(self):
        with pytest.raises(ValueError):
            FreqBoundInput(rho_hat=1.2, trials=())

    def test_string_failure_types_coerced(self):
        spec = TrialSpec(m=2, t="A", alpha=0.05)
        assert spec.t is A

    def test_m_is_an_integer(self):
        spec = TrialSpec(m=np.int64(2), t=A, alpha=0.05)
        assert type(spec.m) is int and spec.m == 2
        assert tau_hat_mixed(FreqBoundInput(0.5, (spec,))) == tau_hat_mixed(
            FreqBoundInput(0.5, (TrialSpec(m=2, t=A, alpha=0.05),))
        )
        for m in (2.0, np.float64(2.0)):
            with pytest.raises(TypeError):
                TrialSpec(m=m, t=A, alpha=0.05)


# Floats of both signs from subnormals to 1e3, with values that repeat.
MAGNITUDES = st.one_of(
    st.floats(min_value=1e-300, max_value=1e3),
    st.floats(min_value=5e-324, max_value=2.2250738585072014e-308),
    st.sampled_from([5e-324, 1e-300, 1e-17, 0.025, 0.1, 1.0, 1e3]),
)
SIGNED = st.builds(lambda x, neg: -x if neg else x, MAGNITUDES, st.booleans())


# Exact sums of both signs: subnormal and normal values, values near the
# overflow at 2**1024 (2**2098 units), and 64-bit tops that end in a tie
# above cut bits that are zero or not.
EXACT_SUMS = st.one_of(
    st.integers(-(2**60), 2**60),
    st.integers(-(2**2100), 2**2100),
    st.integers(2**2098 - 2**2046, 2**2098 + 2**2046),
    st.builds(
        lambda top, cut, low, sign: sign
        * (((top << 11 | 0x400) << cut) + low % (1 << cut)),
        st.integers(2**52, 2**53 - 1),
        st.integers(1, 2030),
        st.integers(0, 2**2030) | st.just(0) | st.just(1),
        st.sampled_from([1, -1]),
    ),
)


class TestRead:
    @settings(max_examples=1000, deadline=None)
    @given(EXACT_SUMS)
    def test_correctly_rounded(self, total):
        try:
            expected = float(Fraction(total, 1 << 1074))
        except OverflowError:
            with pytest.raises(OverflowError):
                _read(total)
            return
        assert _read(total) == expected


class TestExactSum:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(SIGNED, max_size=80))
    def test_equals_fsum(self, values):
        # Both groupings the front ends use: np.unique and Counter.
        distinct, counts = np.unique(np.asarray(values), return_counts=True)
        by_unique = zip(distinct.tolist(), counts.tolist())
        assert _read(_exact_sum(by_unique)) == math.fsum(values)
        by_counter = Counter(values).items()
        assert _read(_exact_sum(by_counter)) == math.fsum(values)


# Alphas in (0, 1) from subnormals up, with values that repeat.
ALPHAS = st.one_of(
    st.floats(min_value=5e-324, max_value=1.0, exclude_max=True),
    st.floats(min_value=5e-324, max_value=2.2250738585072014e-308),
    st.sampled_from([5e-324, 1e-300, 1e-17, 0.001, 0.025, 0.05, 0.3]),
)
DESIGNS = st.tuples(st.integers(1, 6), st.sampled_from([A, B]), ALPHAS)


class TestTauFrontEnds:
    """tau_hat_mixed groups its specs with a Counter and the simulator's
    _tau_from_arrays groups arrays with np.unique; both feed one exact
    core, so they agree bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, 1.0), st.lists(DESIGNS, max_size=60))
    def test_counter_equals_unique(self, rho, designs):
        m = np.array([d[0] for d in designs], dtype=np.int64)
        type_a = np.array([d[1] is A for d in designs], dtype=bool)
        alpha = np.array([d[2] for d in designs], dtype=float)
        bound = FreqBoundInput(rho_hat=rho, trials=tuple(designs))
        assert tau_hat_mixed(bound) == _tau_from_arrays(rho, m, type_a, alpha)


class TestTauEqualsLedgerSpend:
    """tau_hat_mixed over the designs a frequentist ledger accepted is
    the projected spend the ledger stored, bit for bit, at every prefix
    (the file comes from ``data/make_golden_ledgers.py``)."""

    def test_every_accepted_prefix(self):
        path = Path(__file__).parent / "data" / "golden_freq.jsonl"
        header, *entries = (
            json.loads(line) for line in path.read_text().splitlines()
        )
        designs = []
        for entry in entries:
            payload = entry["payload"]
            designs.append((payload["m"], payload["t"], payload["alpha"]))
            bound = FreqBoundInput(header["rho_hat"], tuple(designs))
            assert tau_hat_mixed(bound) == entry["projected"], len(designs)
        assert len(designs) == 280
