"""Tests for trial domain types and standardization operations."""

import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from enfp.deconv import PriorModel
from enfp.hcurve import h_values
from enfp.trials import (
    CannotClassifyError,
    DomainError,
    EfficacyMeasure,
    FailureRegionType,
    InvalidScaleError,
    RejectionPolicy,
    TrialRecord,
    _critical_z,
    _in_failure_region,
    _norm_quantile,
    _rejects,
    _upper_quantile,
    classify_rejection,
    p_to_z,
    standardize,
    z_to_p,
)

A = FailureRegionType.A
B = FailureRegionType.B


def _single_trial(z, critical, trial_id="t1"):
    return TrialRecord(
        trial_id=trial_id,
        m=1,
        failure_type=FailureRegionType.B,
        measures=(EfficacyMeasure(endpoint_index=1, z=z),),
        policy=RejectionPolicy(
            mode="alpha_level",
            per_endpoint_critical_z=(critical,),
            nominal_alpha=0.025,
        ),
    )


class TestStandardize:
    def test_direct_arithmetic(self):
        assert standardize(0.5, 0.0, 0.25) == 2.0

    def test_zero_case(self):
        assert standardize(1.7, 1.7, 0.4) == 0.0

    def test_hand_evaluation(self):
        assert_allclose(standardize(1.3, 0.3, 0.5), 2.0, rtol=0, atol=1e-15)

    def test_invalid_scale(self):
        with pytest.raises(InvalidScaleError):
            standardize(1.0, 0.0, 0.0)
        with pytest.raises(InvalidScaleError):
            standardize(1.0, 0.0, -0.5)


class TestPToZ:
    def test_p005_favorable(self):
        # Frozen oracle: Phi^{-1}(0.975), cross-checked against the
        # high-precision series oracle in test_special.py.
        assert_allclose(p_to_z(0.05, True), 1.959963984540054, atol=1e-12)

    def test_p_one_is_null_median(self):
        assert p_to_z(1.0, True) == 0.0
        assert p_to_z(1.0, False) == 0.0

    def test_p01_favorable(self):
        assert_allclose(p_to_z(0.1, True), 1.6448536269514722, atol=1e-12)

    def test_unfavorable_flips_sign(self):
        assert p_to_z(0.05, False) == -p_to_z(0.05, True)

    def test_domain_errors(self):
        for bad in (0.0, -0.1, 1.0001, 2.0, math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                p_to_z(bad, True)

    def test_round_trip_within_1e10(self):
        ps = np.concatenate(
            [np.geomspace(1e-12, 0.99, 200), np.array([1.0, 0.5, 0.05])]
        )
        for p in ps:
            for favorable in (True, False):
                z = p_to_z(float(p), favorable)
                assert abs(z_to_p(z) - p) < 1e-10

    def test_tiny_p_against_mpmath(self):
        # 1 - 1e-17 / 2 rounds to 1, so the quantile is taken in the
        # lower tail.
        assert p_to_z(1e-17, True) == 8.573944076720885
        assert p_to_z(1e-17, False) == -8.573944076720885
        for p in (1e-17, 1e-300, 5e-324 * 4, 2.0 ** -60):
            z = p_to_z(p, True)
            assert ulps_off(z, -_mp_quantile(p / 2)) <= 5, p

    def test_z_to_p_relative_accuracy_in_the_tail(self):
        # 2 (1 - Phi(z)) would round to 0 from z = 8.3 on; erfc keeps
        # the digits out to where p nears the smallest normal double.
        with mpmath.workdps(40):
            for z in np.linspace(0.0, 37.5, 2000).tolist():
                exact = mpmath.erfc(mpmath.mpf(z) / mpmath.sqrt(2))
                got = z_to_p(z)
                assert abs(got - exact) <= 1e-12 * exact, z
                assert z_to_p(-z) == got

    def test_half_underflowing_to_zero_is_a_domain_error(self):
        with pytest.raises(DomainError, match="5e-324"):
            p_to_z(5e-324, True)

    def test_non_increasing_across_the_junction(self):
        # 1 - p/2 rounds to 1 from p = 2**-53 down.
        edge = 2.0 ** -53
        ps = [edge * (1.0 + k * 2.0 ** -52) for k in range(-40, 41)]
        ps += [edge / 2, edge / 1.5, edge * 1.5, edge * 2, edge * 4]
        zs = [p_to_z(p, True) for p in sorted(ps)]
        assert all(a >= b for a, b in zip(zs, zs[1:]))
        assert p_to_z(edge, True) > p_to_z(math.nextafter(edge, 1.0), True)


def _mp_quantile(p):
    """Phi^{-1}(p) to 60 digits: Newton's method on mpmath's ncdf,
    started at the double quantile, in the tail where it is accurate."""
    with mpmath.workdps(60):
        p = mpmath.mpf(p)
        sign = 1
        if p > 0.5:
            p, sign = 1 - p, -1
        z = mpmath.mpf(_norm_quantile(float(p)) if p < 0.5 else 0.0)
        for _ in range(6):
            z -= (mpmath.ncdf(z) - p) / mpmath.npdf(z)
        return sign * z


def ulps_off(got, exact):
    """How many doubles apart ``got`` and the double nearest ``exact``
    are, in units of the latter's last place."""
    nearest = float(exact)
    if nearest == 0.0:
        return 0.0 if got == 0.0 else math.inf
    return abs(got - nearest) / math.ulp(nearest)


class TestNormQuantile:
    """The package's one normal quantile, statistics' inv_cdf, against
    mpmath roots."""

    def test_within_5_ulp_over_both_tails(self):
        # Both tails down to 1e-300 and up to the double below 1, the
        # centre, and AS 241's branch edges |p - 0.5| = 0.425.
        tail = np.geomspace(1e-300, 0.1, 400)
        ps = np.concatenate(
            [
                tail,
                np.linspace(0.01, 0.99, 197),
                1.0 - tail[tail > 1e-16],
                [0.075, 0.925, 0.5, 0.975, np.nextafter(1.0, 0.0)],
            ]
        ).tolist()
        for p in ps:
            z = _norm_quantile(p)
            assert type(z) is float
            assert ulps_off(z, _mp_quantile(p)) <= 5, p

    @pytest.mark.parametrize(
        "bad", [0.0, 1.0, math.nan, math.inf, -math.inf]
    )
    def test_refusals(self, bad):
        with pytest.raises(DomainError, match="0 < p < 1"):
            _norm_quantile(bad)

    def test_upper_quantile_keeps_the_bits_of_one_minus_x(self):
        for x in (0.1, 0.025, 0.0125, 1e-3, 2e-4, 1e-12, 2.0 ** -53):
            assert _upper_quantile(x) == _norm_quantile(1.0 - x)
        assert _upper_quantile(2.0 ** -54) == -_norm_quantile(2.0 ** -54)


class TestClassifyRejection:
    def test_single_comparison(self):
        assert classify_rejection(_single_trial(2.1, 1.96)) == "positive"
        assert classify_rejection(_single_trial(1.5, 1.96)) == "negative"

    def test_union_null_requires_all_endpoints(self):
        trial = TrialRecord(
            trial_id="b1",
            m=2,
            failure_type=FailureRegionType.B,
            measures=(
                EfficacyMeasure(endpoint_index=1, z=2.5),
                EfficacyMeasure(endpoint_index=2, z=1.0),
            ),
            policy=RejectionPolicy(
                mode="alpha_level",
                per_endpoint_critical_z=(1.96, 1.96),
                nominal_alpha=0.05,
            ),
        )
        assert classify_rejection(trial) == "negative"

    def test_intersection_null_any_endpoint(self):
        trial = TrialRecord(
            trial_id="a1",
            m=2,
            failure_type=FailureRegionType.A,
            measures=(
                EfficacyMeasure(endpoint_index=1, z=2.5),
                EfficacyMeasure(endpoint_index=2, z=1.0),
            ),
            policy=RejectionPolicy(
                mode="alpha_level",
                per_endpoint_critical_z=(2.24, 2.24),
                nominal_alpha=0.025,
            ),
        )
        assert classify_rejection(trial) == "positive"

    def test_bonferroni_adjustment_matches_quantile_oracle(self):
        policy = RejectionPolicy.at_alpha(0.025, 2, FailureRegionType.A)
        # Frozen: Phi^{-1}(1 - 0.0125), verified against the series oracle.
        assert_allclose(
            policy.per_endpoint_critical_z,
            (2.2414027276049473, 2.2414027276049473),
            atol=1e-12,
        )
        policy_b = RejectionPolicy.at_alpha(0.025, 2, FailureRegionType.B)
        assert_allclose(
            policy_b.per_endpoint_critical_z,
            (1.959963984540054, 1.959963984540054),
            atol=1e-12,
        )

    def test_tiny_alpha_keeps_its_quantile(self):
        # 1 - 1e-17 rounds to 1; the quantile comes from the lower tail.
        policy = RejectionPolicy.at_alpha(1e-17, 1, FailureRegionType.B)
        assert policy.per_endpoint_critical_z == (-_norm_quantile(1e-17),)
        assert ulps_off(policy.per_endpoint_critical_z[0],
                        -_mp_quantile(1e-17)) <= 5
        with pytest.raises(DomainError, match="underflows"):
            RejectionPolicy.at_alpha(5e-324, 2, FailureRegionType.A)

    def test_censored_measure_cannot_classify(self):
        trial = TrialRecord(
            trial_id="c1",
            m=1,
            failure_type=FailureRegionType.B,
            measures=(EfficacyMeasure.censored_at_p(1, 0.05),),
            policy=RejectionPolicy(
                mode="alpha_level",
                per_endpoint_critical_z=(1.96,),
                nominal_alpha=0.025,
            ),
        )
        with pytest.raises(CannotClassifyError):
            classify_rejection(trial)

    def test_m1_typing_normalized_to_b(self):
        trial = TrialRecord(
            trial_id="n1",
            m=1,
            failure_type=FailureRegionType.A,
            measures=(EfficacyMeasure(endpoint_index=1, z=2.1),),
            policy=RejectionPolicy(
                mode="alpha_level",
                per_endpoint_critical_z=(1.96,),
                nominal_alpha=0.025,
            ),
        )
        assert trial.failure_type is FailureRegionType.B
        assert classify_rejection(trial) == "positive"

    def test_type_b_weakening_monotonicity(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            m = int(rng.integers(1, 4))
            zs = rng.normal(1.5, 1.0, size=m)
            crits = rng.normal(1.5, 0.5, size=m)
            measures = tuple(
                EfficacyMeasure(endpoint_index=j + 1, z=float(zs[j]))
                for j in range(m)
            )

            def outcome(criticals):
                trial = TrialRecord(
                    trial_id="mono",
                    m=m,
                    failure_type=FailureRegionType.B,
                    measures=measures,
                    policy=RejectionPolicy(
                        mode="alpha_level",
                        per_endpoint_critical_z=tuple(criticals),
                        nominal_alpha=0.025,
                    ),
                )
                return classify_rejection(trial)

            base = outcome(crits)
            weakened = crits.copy()
            j = int(rng.integers(0, m))
            weakened[j] -= float(rng.uniform(0.1, 2.0))
            after = outcome(weakened)
            if base == "positive":
                assert after == "positive"


def _h_trial(zs, failure_type, h_floor):
    return TrialRecord(
        trial_id="h1",
        m=len(zs),
        failure_type=failure_type,
        measures=tuple(
            EfficacyMeasure(endpoint_index=j + 1, z=float(z))
            for j, z in enumerate(zs)
        ),
        policy=RejectionPolicy.at_h_floor(h_floor),
    )


class TestClassifyHThreshold:
    MODEL = PriorModel.from_masses(
        [-1.5, 0.0, 1.5, 3.0], [0.3, 0.2, 0.3, 0.2]
    )

    @pytest.mark.parametrize("h_floor", [0.5, 0.9, 0.975])
    def test_single_endpoint_reads_h(self, h_floor):
        zs = np.linspace(-4.0, 8.0, 241)
        expected = [
            "positive" if h >= h_floor else "negative"
            for h in h_values(self.MODEL, zs)
        ]
        got = [
            classify_rejection(_h_trial((z,), B, h_floor), self.MODEL)
            for z in zs
        ]
        assert got == expected
        assert "positive" in got and "negative" in got

    def test_multi_endpoint_follows_the_type(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            zs = rng.uniform(-2.0, 6.0, size=int(rng.integers(2, 4)))
            exceed = h_values(self.MODEL, zs) >= 0.9
            for failure_type, rule in ((A, any), (B, all)):
                got = classify_rejection(
                    _h_trial(zs, failure_type, 0.9), self.MODEL
                )
                assert got == ("positive" if rule(exceed) else "negative")

    def test_all_positive_prior_clears_any_floor(self):
        model = PriorModel.from_masses([0.5, 2.0], [0.5, 0.5])
        trial = _h_trial((-5.0, -5.0), B, 0.999)
        assert classify_rejection(trial, model) == "positive"

    def test_all_null_prior_clears_no_floor(self):
        model = PriorModel.from_masses([-1.0, 0.0], [0.5, 0.5])
        trial = _h_trial((9.0, 9.0), A, 0.001)
        assert classify_rejection(trial, model) == "negative"

    def test_model_required(self):
        with pytest.raises(ValueError, match="requires a PriorModel"):
            classify_rejection(_h_trial((2.0,), B, 0.9))


class TestTypeRules:
    # Per trial: how many of its m endpoints exceed (or are null).
    COUNT = np.array([1, 1, 2, 0, 2])
    M = np.array([1, 2, 2, 3, 3])

    def check(self, rule, type_a, type_b):
        for is_type_a, expected in ((True, type_a), (False, type_b)):
            flags = np.full(self.M.size, is_type_a)
            assert rule(self.COUNT, self.M, flags).tolist() == expected
            scalars = zip(self.COUNT.tolist(), self.M.tolist())
            assert [rule(n, m, is_type_a) for n, m in scalars] == expected

    def test_rejects_any_for_a_every_for_b(self):
        self.check(
            _rejects,
            type_a=[True, True, True, False, True],
            type_b=[True, False, True, False, False],
        )

    def test_failure_region_every_for_a_any_for_b(self):
        self.check(
            _in_failure_region,
            type_a=[True, False, True, False, False],
            type_b=[True, True, True, False, True],
        )

    def test_critical_z_divisor_is_the_bonferroni_split(self):
        # The divisor 1 + is_type_a * (m - 1) gives, bit for bit, the
        # quantile of the split written as a selection.
        menu = [1e-12, 1e-4, 0.001, 0.025, 0.05, 0.3, 0.999]
        draws = np.random.default_rng(11).uniform(0.0, 1.0, 200)
        alphas = np.concatenate([menu, draws[draws > 0.0]])
        ms = np.array([1, 2, 3, 5, 7, 1000])
        flags = np.array([True, False, True, False, True, False])
        for m in ms.tolist():
            for is_a in (True, False):
                split = (alphas / m if is_a else alphas).tolist()
                expected = [_norm_quantile(1.0 - x) for x in split]
                assert _critical_z(alphas, m, is_a).tolist() == expected
                for alpha, crit in zip(alphas.tolist(), expected):
                    assert _critical_z(alpha, m, is_a) == crit
        # Per-trial columns against the alpha menu, as the simulator asks.
        table = _critical_z(alphas, ms[:, None], flags[:, None])
        split = np.where(flags[:, None], alphas / ms[:, None], alphas)
        assert table.dtype == float
        assert table.tolist() == [
            [_norm_quantile(1.0 - x) for x in row] for row in split.tolist()
        ]

    def test_critical_z_is_the_policy_table(self):
        alphas = np.array([0.001, 0.025, 0.3])
        for m in (1, 2, 5):
            for t in (A, B):
                table = _critical_z(alphas, m, t is A)
                for alpha, crit in zip(alphas, table):
                    policy = RejectionPolicy.at_alpha(float(alpha), m, t)
                    assert policy.per_endpoint_critical_z == (crit,) * m


class TestDomainTypes:
    def test_measure_requires_exactly_one_of_z_and_interval(self):
        with pytest.raises(ValueError):
            EfficacyMeasure(endpoint_index=1)
        with pytest.raises(ValueError):
            EfficacyMeasure(
                endpoint_index=1, z=1.0, censor_interval=(-1.0, 1.0)
            )

    def test_interval_must_be_ordered(self):
        with pytest.raises(ValueError):
            EfficacyMeasure(endpoint_index=1, censor_interval=(1.0, -1.0))

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            EfficacyMeasure(endpoint_index=1, z=float("nan"))
        with pytest.raises(ValueError):
            EfficacyMeasure(
                endpoint_index=1, censor_interval=(float("nan"), 1.0)
            )
        assert EfficacyMeasure(
            endpoint_index=1, censor_interval=(1.96, float("inf"))
        ).censor_interval == (1.96, float("inf"))

    def test_nan_critical_z_rejected(self):
        # Against a NaN critical value no z would ever reject.
        with pytest.raises(ValueError, match="endpoint 2 is NaN"):
            RejectionPolicy(
                mode="alpha_level",
                per_endpoint_critical_z=(1.96, float("nan")),
                nominal_alpha=0.025,
            )

    def test_censored_at_p_symmetric_band(self):
        meas = EfficacyMeasure.censored_at_p(1, 0.05)
        low, high = meas.censor_interval
        assert_allclose(high, 1.959963984540054, atol=1e-12)
        assert low == -high
        assert meas.censor_p == 0.05

    def test_record_enforces_measure_count_and_indices(self):
        policy = RejectionPolicy.at_alpha(0.025, 2, FailureRegionType.B)
        with pytest.raises(ValueError):
            TrialRecord(
                trial_id="bad",
                m=2,
                failure_type=FailureRegionType.B,
                measures=(EfficacyMeasure(endpoint_index=1, z=1.0),),
                policy=policy,
            )
        with pytest.raises(ValueError):
            TrialRecord(
                trial_id="bad2",
                m=2,
                failure_type=FailureRegionType.B,
                measures=(
                    EfficacyMeasure(endpoint_index=1, z=1.0),
                    EfficacyMeasure(endpoint_index=3, z=1.0),
                ),
                policy=policy,
            )

    def test_policy_mode_contracts(self):
        with pytest.raises(ValueError):
            RejectionPolicy(mode="alpha_level", nominal_alpha=0.05)
        with pytest.raises(ValueError):
            RejectionPolicy(mode="h_threshold")
        with pytest.raises(ValueError):
            RejectionPolicy(mode="bogus")
        pol = RejectionPolicy.at_h_floor(0.975)
        assert pol.h_floor == 0.975

    def test_from_p_conversion(self):
        meas = EfficacyMeasure.from_p(1, 0.05, True)
        assert_allclose(meas.z, 1.959963984540054, atol=1e-12)
        meas_neg = EfficacyMeasure.from_p(1, 0.05, False)
        assert meas_neg.z == -meas.z
