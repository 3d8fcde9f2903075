"""Tests for the Monte Carlo simulator and its oracle diagnostics."""

import hashlib
import importlib.util
import json
import math
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from enfp.bayes_bounds import omega_hat, positive_result
from enfp.deconv import PriorModel
from enfp.freq_bounds import FreqBoundInput, tau_hat_mixed
from enfp.hcurve import ZERO_TOLERANCE, h_values
from enfp.simulate import (
    _EQ_SLACK,
    BinnedCheck,
    PolicySpec,
    ScenarioConfig,
    _bin_counts,
    _binned_check,
    _categorical,
    _draw_counts,
    _mean_check_counts,
    _noise_allowance,
    check_concordance,
    draw_population,
    oracle_count_fp,
    rho_from_prior,
    validate_bounds,
)
from enfp.special import norm_cdf
from enfp.trials import (
    EfficacyMeasure,
    FailureRegionType,
    RejectionPolicy,
    TrialRecord,
    classify_rejection,
    p_to_z,
)

A = FailureRegionType.A
B = FailureRegionType.B


def delta_prior(theta):
    return ((theta,), (1.0,))


def fixed_policy(alpha=0.025):
    return PolicySpec(kind="fixed_alpha", alpha_menu=(alpha,))


MIXED_PRIOR = (
    (-2.0, -0.5, 0.0, 1.0, 2.5, 3.5),
    (0.08, 0.07, 0.05, 0.3, 0.3, 0.2),
)


def mixed_scenario(**overrides):
    base = dict(
        true_prior=MIXED_PRIOR,
        n_trials=20_000,
        m_distribution=((1, B, 0.4), (2, A, 0.2), (2, B, 0.2), (3, B, 0.2)),
        policy=PolicySpec(
            kind="signal_concordant",
            alpha_menu=(0.005, 0.01, 0.025, 0.05),
            signal_noise=1.0,
        ),
        seed=42,
        replicates=4,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


# The record-level oracle, kept as a differential test of the array path:
# each drawn trial becomes a TrialRecord with the policy of its alpha and
# the outcome of classify_rejection, and its false positives are counted
# from the failure-region definition over its true effects.


def draw_records(draw):
    """(TrialRecord, true theta tuple) for every trial of a draw."""
    out = []
    for i in range(draw.n_trials):
        m = int(draw.m[i])
        t = A if draw.is_type_a[i] else B
        record = TrialRecord(
            trial_id=f"sim-{draw.replicate}-{i}",
            m=m,
            failure_type=t,
            measures=tuple(
                EfficacyMeasure(endpoint_index=j + 1, z=float(draw.z[i, j]))
                for j in range(m)
            ),
            policy=RejectionPolicy.at_alpha(float(draw.alpha[i]), m, t),
        )
        record = record.with_outcome(classify_rejection(record))
        out.append((record, tuple(float(x) for x in draw.theta[i, :m])))
    return out


def record_count_fp(population):
    """False positives among (record, theta) pairs: a type A trial is
    in its failure region when every endpoint is null, a type B trial
    when any one is."""
    count = 0
    for record, theta in population:
        nulls = [t <= ZERO_TOLERANCE for t in theta]
        in_region = all(nulls) if record.failure_type is A else any(nulls)
        count += record.outcome == "positive" and in_region
    return count


class TestCalibration:
    def test_null_rejection_rate(self):
        # theta == 0, m=1, fixed alpha: rejection rate == alpha.
        cfg = ScenarioConfig(
            true_prior=delta_prior(0.0),
            n_trials=1_000_000,
            m_distribution=((1, B, 1.0),),
            policy=fixed_policy(0.025),
            seed=101,
        )
        draw = draw_population(cfg)
        rate = draw.positive.mean()
        se = math.sqrt(0.025 * 0.975 / cfg.n_trials)
        assert abs(rate - 0.025) <= 3 * se

    def test_menu_calibration_every_alpha(self):
        cfg = ScenarioConfig(
            true_prior=delta_prior(0.0),
            n_trials=400_000,
            m_distribution=((1, B, 1.0),),
            policy=PolicySpec(
                kind="fixed_alpha", alpha_menu=(0.01, 0.025, 0.05)
            ),
            seed=7,
        )
        draw = draw_population(cfg)
        for alpha in (0.01, 0.025, 0.05):
            mask = draw.alpha == alpha
            rate = draw.positive[mask].mean()
            se = math.sqrt(alpha * (1 - alpha) / mask.sum())
            assert abs(rate - alpha) <= 3 * se

    def test_strong_effect_power(self):
        # theta == 5: positive fraction ~= Phi(5 - z_crit) ~= 0.9988.
        cfg = ScenarioConfig(
            true_prior=delta_prior(5.0),
            n_trials=200_000,
            m_distribution=((1, B, 1.0),),
            policy=fixed_policy(0.025),
            seed=11,
        )
        rate = draw_population(cfg).positive.mean()
        expected = float(norm_cdf(5.0 - p_to_z(0.05, True)))
        assert_allclose(expected, 0.9988, atol=5e-5)
        se = math.sqrt(expected * (1 - expected) / cfg.n_trials)
        assert abs(rate - expected) <= 3 * se

    def test_independent_endpoints_multiply(self):
        # m=2 type B, theta=(0,0), alpha=0.05, rc=0: both endpoints must
        # clear Phi^-1(0.95), so the positive rate is 0.05^2 = 0.0025.
        cfg = ScenarioConfig(
            true_prior=delta_prior(0.0),
            n_trials=400_000,
            m_distribution=((2, B, 1.0),),
            policy=fixed_policy(0.05),
            seed=17,
            endpoint_correlation=0.0,
        )
        rate = draw_population(cfg).positive.mean()
        se = math.sqrt(0.0025 * 0.9975 / cfg.n_trials)
        assert abs(rate - 0.0025) <= 3 * se

    def test_endpoint_correlation_realized(self):
        cfg = ScenarioConfig(
            true_prior=delta_prior(0.0),
            n_trials=200_000,
            m_distribution=((2, B, 1.0),),
            policy=fixed_policy(),
            seed=23,
            endpoint_correlation=0.8,
        )
        z = draw_population(cfg).z
        corr = np.corrcoef(z[:, 0], z[:, 1])[0, 1]
        assert abs(corr - 0.8) < 0.01


class TestDrawShape:
    def test_padding_and_masks(self):
        draw = draw_population(mixed_scenario(n_trials=5000))
        assert draw.z.shape == (5000, 3)
        for i in (0, 17, 4999):
            m = draw.m[i]
            assert np.all(np.isfinite(draw.z[i, :m]))
            assert np.all(np.isnan(draw.z[i, m:]))
            assert np.all(draw.valid[i, :m]) and not np.any(draw.valid[i, m:])

    def test_determinism(self):
        cfg = mixed_scenario(n_trials=2000)
        a = draw_population(cfg, replicate=1)
        b = draw_population(cfg, replicate=1)
        assert np.array_equal(a.z, b.z, equal_nan=True)
        assert np.array_equal(a.alpha, b.alpha)
        assert np.array_equal(a.positive, b.positive)
        c = draw_population(cfg, replicate=2)
        assert not np.array_equal(a.z, c.z, equal_nan=True)

    def test_m1_type_a_normalized(self):
        cfg = mixed_scenario(
            m_distribution=((1, A, 0.5), (1, B, 0.5)), n_trials=10
        )
        assert cfg.m_distribution == ((1, B, 1.0),)

    def test_classifier_agreement_with_trial_model(self):
        draw = draw_population(mixed_scenario(n_trials=400))
        outcomes = [record.outcome for record, _ in draw_records(draw)]
        expected = ["positive" if p else "negative" for p in draw.positive]
        assert outcomes == expected


GEOMETRIC_300 = np.geomspace(1e-6, 1.0, 300)


class TestCategoricalDraw:
    """The categorical draw has the bits of ``Generator.choice`` and
    leaves the generator where ``choice`` leaves it."""

    @pytest.mark.parametrize("size", [1, 2000, (1, 1), (1500, 3), (400, 9)])
    @pytest.mark.parametrize(
        "p",
        [
            [1.0],
            [0.4, 0.2, 0.2, 0.2],
            [0.0, 0.3, 0.0, 0.7, 0.0],
            [1.0, 0.0],
            [0.0, 1.0],
            [0.12, 0.08, 0.24, 0.32, 0.24 + 1e-12],
            [0.12, 0.08, 0.24, 0.32, 0.24 - 1e-12],
            [1 / 3 + 1e-12, 1 / 3, 1 / 3],
            list(GEOMETRIC_300 / GEOMETRIC_300.sum()),
            [0.25, 0.0, 0.25, 0.5],
            list(np.full(3000, 1.0 / 3000)),
        ],
        ids=["k1", "k4", "zeros", "last_zero", "first_zero", "sum_over",
             "sum_under", "thirds", "k300", "bucket_edges", "k3000"],
    )
    def test_equals_generator_choice(self, p, size):
        p = np.asarray(p)
        assert abs(p.sum() - 1.0) < 1.01e-12
        for seed in range(3):
            ours, numpy_rng = (np.random.default_rng([seed, 5]) for _ in "ab")
            got = _categorical(ours, p, size)
            want = numpy_rng.choice(p.size, size, p=p)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert ours.standard_normal() == numpy_rng.standard_normal()

    def test_ties_and_the_top_edge(self):
        # u on an edge of the normalized cdf goes past it, as in
        # searchsorted(side="right"), and u between the raw and the
        # normalized top edge stays below the last index: draws that the
        # tests above reach with probability about 1e-12.
        p = np.array([0.25, 0.0, 0.25, 0.5 - 1e-12])
        cdf = np.cumsum(p) / np.cumsum(p)[-1]
        u = np.array([cdf[0], cdf[2], np.nextafter(cdf[0], 0.0),
                      1.0 - 5e-13, 0.0])
        fixed = SimpleNamespace(random=lambda size: u.reshape(size))
        assert _categorical(fixed, p, u.size).tolist() == [2, 3, 0, 3, 0]


class TestPolicySignal:
    """The policy signal of a draw with wide rows keeps its bits."""

    # sha256 of the row sums of theta and of the alphas of a draw whose
    # widest design has 8 or 9 endpoints, rows that numpy does not sum
    # in order: a column-by-column sum differs in several hundred of the
    # 3000 row sums.
    PINNED = {
        8: (
            "007350c2b8de4240b95646421741bcfd060e3afff878a591232b18cd0da6b00b",
            "fe1616c85a5a7b78e53abf3699f5abca9d7021737aa73220dd2e199d2b195c7e",
        ),
        9: (
            "00bae61b81403aff08fa252d6a7000bdd9d651b4d62b4a41c2e7eb8ace56a470",
            "e955670b62c3587e372f65a9fcca6a7ddf2c1f1ab3a6178fac6f90cd5ff079e2",
        ),
    }

    @pytest.mark.parametrize("m_wide", sorted(PINNED))
    def test_wide_draw_signal_bits_pinned(self, m_wide):
        cfg = mixed_scenario(
            true_prior=((-2.1, -0.37, 0.0, 0.93, 2.61, 3.47), MIXED_PRIOR[1]),
            n_trials=3000,
            m_distribution=((1, B, 0.3), (3, A, 0.3), (m_wide, B, 0.4)),
            replicates=1,
        )
        draw = draw_population(cfg)
        sums = np.where(draw.valid, draw.theta, 0.0).sum(axis=1)
        assert [hashlib.sha256(a.tobytes()).hexdigest()
                for a in (sums, draw.alpha)] == list(self.PINNED[m_wide])


class TestOraclePrior:
    def test_irregular_support_validates(self):
        theta, mass = (-1.0, 0.3, 2.71828), (0.2, 0.3, 0.5)
        cfg = mixed_scenario(
            true_prior=(theta, mass), n_trials=2000, replicates=2
        )
        explicit = PriorModel.from_masses(theta, mass)
        z = np.linspace(-6.0, 10.0, 1601)
        assert np.array_equal(
            h_values(cfg.prior_model(), z), h_values(explicit, z)
        )
        report = validate_bounds(cfg)
        assert report.model_id == explicit.model_id
        given = validate_bounds(cfg, model_for_bound=explicit)
        assert json.dumps(report.to_dict()) == json.dumps(given.to_dict())

    def test_model_grid_is_the_support(self):
        cfg = mixed_scenario(true_prior=((0.0, 1e-4, 3.0), (0.3, 0.3, 0.4)))
        model = cfg.prior_model()
        assert model.theta_grid.tolist() == [0.0, 1e-4, 3.0]
        assert model.masses.tolist() == [0.3, 0.3, 0.4]


class TestOracleCount:
    def test_hand_built_count(self):
        def rec(tid, t, zs, outcome):
            m = len(zs)
            return TrialRecord(
                trial_id=tid,
                m=m,
                failure_type=t,
                measures=tuple(
                    EfficacyMeasure(endpoint_index=i + 1, z=z)
                    for i, z in enumerate(zs)
                ),
                policy=RejectionPolicy.at_alpha(0.025, m=m, failure_type=t),
                outcome=outcome,
            )

        population = [
            # positive, type B with one null endpoint -> false positive
            (rec("t1", B, [2.5, 2.2], "positive"), (-0.5, 1.0)),
            # positive, type A with all endpoints null -> false positive
            (rec("t2", A, [2.1, 1.0], "positive"), (0.0, -1.0)),
            # positive, truly effective -> not a false positive
            (rec("t3", B, [3.0], "positive"), (2.0,)),
            # null but negative -> not a false positive
            (rec("t4", B, [0.3], "negative"), (-1.0,)),
        ]
        assert record_count_fp(population) == 2

    def test_no_null_trials(self):
        cfg = mixed_scenario(
            true_prior=((1.0, 3.0), (0.5, 0.5)), n_trials=5000, replicates=1
        )
        draw = draw_population(cfg)
        assert oracle_count_fp(draw) == 0

    def test_saturation(self):
        cfg = ScenarioConfig(
            true_prior=delta_prior(-1.0),
            n_trials=200,
            m_distribution=((1, B, 1.0),),
            policy=PolicySpec(kind="fixed_alpha", alpha_menu=(0.999,)),
            seed=3,
        )
        draw = draw_population(cfg)
        assert oracle_count_fp(draw) == int(draw.positive.sum())

    def test_array_and_record_paths_agree(self):
        cfg = mixed_scenario(n_trials=800)
        draw = draw_population(cfg)
        assert oracle_count_fp(draw) == record_count_fp(draw_records(draw))

    def test_null_threshold_is_zero_tolerance(self):
        # theta = 5e-13 is within ZERO_TOLERANCE of 0: rho counts it as
        # null and the oracle's h is 0 there, so the truth the oracle
        # counts against must call every positive a false positive.
        cfg = ScenarioConfig(
            true_prior=((-1.0, 5e-13), (0.5, 0.5)),
            n_trials=400,
            m_distribution=((1, B, 0.5), (2, A, 0.25), (2, B, 0.25)),
            policy=fixed_policy(0.05),
            seed=7,
        )
        assert rho_from_prior(cfg) == 1.0
        z = np.array([-2.0, 0.0, 3.0, 8.0])
        assert not h_values(cfg.prior_model(), z).any()
        draw = draw_population(cfg)
        n_positive = int(draw.positive.sum())
        assert n_positive > 0 and draw.null_truth.all()
        assert oracle_count_fp(draw) == n_positive
        assert record_count_fp(draw_records(draw)) == n_positive


class TestConcordance:
    def test_fixed_alpha_passes_with_equality(self):
        cfg = mixed_scenario(policy=fixed_policy(), n_trials=30_000)
        report = check_concordance(draw_population(cfg))
        assert report.first.passed and report.second.passed
        assert report.first.mean_null == report.first.mean_nonnull
        assert report.second.mean_null == report.second.mean_nonnull
        assert report.passed

    def test_signal_concordant_passes_with_strict_ordering(self):
        cfg = mixed_scenario(n_trials=100_000, replicates=1)
        report = check_concordance(draw_population(cfg))
        assert report.first.mean_null < report.first.mean_nonnull
        assert report.second.mean_null < report.second.mean_nonnull
        assert report.passed

    def test_adversarial_flagged(self):
        cfg = mixed_scenario(n_trials=100_000, replicates=1)
        adv = mixed_scenario(
            n_trials=100_000,
            replicates=1,
            policy=PolicySpec(
                kind="adversarial",
                alpha_menu=(0.005, 0.01, 0.025, 0.05),
                signal_noise=1.0,
            ),
            seed=cfg.seed,
        )
        report = check_concordance(draw_population(adv))
        assert not report.first.passed
        assert not report.passed

    def test_one_class_bins_skipped(self):
        # Huge effects: every trial positive, so every z bin has one class
        # and the binned checks must skip rather than judge.
        cfg = ScenarioConfig(
            true_prior=delta_prior(8.0),
            n_trials=4000,
            m_distribution=((1, B, 1.0),),
            policy=fixed_policy(),
            seed=5,
        )
        report = check_concordance(draw_population(cfg))
        assert report.third.n_bins_checked == 0
        assert report.third.n_bins_skipped > 0
        assert report.third.passed  # vacuous, not a failure


def _mean_check(name, alpha, null_mask):
    """The library's mean check over per-unit alphas and null flags."""
    values, index = np.unique(
        np.asarray(alpha, dtype=float), return_inverse=True
    )
    counts = np.bincount(index * 2 + null_mask, minlength=2 * values.size)
    return _mean_check_counts(name, values, counts.reshape(values.size, 2))


class TestMeanCheck:
    # Part sizes at which ndarray.mean() of a constant 0.025 is off by
    # an ulp (0.024999999999999998 and 0.024999999999999994).
    N_NULL = 10_686
    N_NONNULL = 43_368

    def split(self, alpha):
        null_mask = np.zeros(alpha.size, dtype=bool)
        null_mask[: self.N_NULL] = True
        return _mean_check("check", alpha, null_mask), null_mask

    def test_constant_alpha_is_returned_exactly(self):
        alpha = np.full(self.N_NULL + self.N_NONNULL, 0.025)
        check, _ = self.split(alpha)
        assert (check.n_null, check.n_nonnull) == (self.N_NULL, self.N_NONNULL)
        assert check.mean_null == 0.025
        assert check.mean_nonnull == 0.025
        assert check.se_diff == 0.0
        assert check.passed and not check.vacuous

    def test_non_constant_means_match_exact_sum(self):
        k = np.arange(self.N_NULL + self.N_NONNULL)
        alpha = 0.005 + 0.045 * ((k * 0.6180339887498949) % 1.0)
        check, null_mask = self.split(alpha)
        for mean, part in (
            (check.mean_null, alpha[null_mask]),
            (check.mean_nonnull, alpha[~null_mask]),
        ):
            assert_allclose(mean, math.fsum(part) / len(part), rtol=1e-15)
        se = math.sqrt(
            alpha[null_mask].var(ddof=1) / self.N_NULL
            + alpha[~null_mask].var(ddof=1) / self.N_NONNULL
        )
        assert_allclose(check.se_diff, se, rtol=1e-12)


def binned_check(name, z, null, positive, bin_width):
    """The library's binned check over per-unit arrays."""
    _, counts = _bin_counts(z, null, positive, bin_width)
    return _binned_check(name, counts, bin_width)


def reference_binned_check(name, z, null, positive, bin_width):
    """The binned check as a plain loop over the occupied z bins, one
    mask per bin: the reference the counting implementation must equal
    field for field."""
    n_units = int(z.size)
    if n_units == 0:
        return BinnedCheck(
            name=name,
            bin_width=bin_width,
            n_bins_checked=0,
            n_bins_skipped=0,
            n_bins_failed=0,
            failure_allowance=0,
            worst_excess=None,
            n_units=0,
            passed=True,
        )
    bins = np.floor(z / bin_width).astype(np.int64)
    checked = skipped = failed = 0
    worst = None
    for b in np.unique(bins):
        in_bin = bins == b
        pos = positive & in_bin
        neg = ~positive & in_bin
        n_pos = int(np.count_nonzero(pos))
        n_neg = int(np.count_nonzero(neg))
        if n_pos == 0 or n_neg == 0:
            skipped += 1
            continue
        checked += 1
        x_pos = int(np.count_nonzero(null & pos))
        x_neg = int(np.count_nonzero(null & neg))
        p_pos = x_pos / n_pos
        p_neg = x_neg / n_neg
        pooled = (x_pos + x_neg) / (n_pos + n_neg)
        se = math.sqrt(
            pooled * (1.0 - pooled) * (1.0 / n_pos + 1.0 / n_neg)
        )
        excess = (p_pos - p_neg) - 3.0 * se
        if worst is None or excess > worst:
            worst = excess
        if excess > _EQ_SLACK:
            failed += 1
    allowance = _noise_allowance(checked)
    return BinnedCheck(
        name=name,
        bin_width=bin_width,
        n_bins_checked=checked,
        n_bins_skipped=skipped,
        n_bins_failed=failed,
        failure_allowance=allowance,
        worst_excess=worst,
        n_units=n_units,
        passed=failed <= allowance,
    )


def pooled_units(draws):
    """Every draw's concordance units, concatenated: per-trial arrays of
    the single-endpoint trials and per-slot arrays of the valid
    endpoints (alpha, null, positive, z, multi-endpoint flag)."""
    trial = {key: [] for key in ("alpha", "null", "positive", "z1", "m1")}
    slot = {key: [] for key in ("alpha", "null", "positive", "z", "multi")}
    for draw in draws:
        trial["alpha"].append(draw.alpha)
        trial["null"].append(draw.null_truth)
        trial["positive"].append(draw.positive)
        trial["z1"].append(draw.z[:, 0])
        trial["m1"].append(draw.m == 1)
        rows, cols = np.nonzero(draw.valid)
        slot["alpha"].append(draw.alpha[rows])
        slot["null"].append(draw.theta[rows, cols] <= 0.0)
        slot["positive"].append(draw.positive[rows])
        slot["z"].append(draw.z[rows, cols])
        slot["multi"].append(draw.m[rows] > 1)
    return (
        {key: np.concatenate(parts) for key, parts in trial.items()},
        {key: np.concatenate(parts) for key, parts in slot.items()},
    )


# Units of a binned check: z drawn either anywhere (sparse, far-apart
# bins on both sides of zero) or from a few values that share bins.
UNITS = st.lists(
    st.tuples(
        st.one_of(
            st.floats(-40.0, 40.0, allow_nan=False),
            st.sampled_from([-3.1, -0.2, -0.01, 0.0, 0.1, 1.96, 2.2]),
        ),
        st.booleans(),
        st.booleans(),
    ),
    max_size=300,
)


def slot_level_counts(draw, bin_width):
    """The counts of ``_draw_counts`` built from per-slot index arrays:
    the reference the per-trial form must equal array for array."""
    values, index = np.unique(draw.alpha, return_inverse=True)
    k = values.size
    slots = np.flatnonzero(draw.valid)
    rows = slots // draw.valid.shape[1]
    slot_null = draw.theta.ravel()[slots] <= ZERO_TOLERANCE
    slot_alpha = np.bincount(index[rows] * 2 + slot_null, minlength=2 * k)
    trial_alpha = np.bincount(index * 2 + draw.null_truth, minlength=2 * k)
    single = np.flatnonzero(draw.m == 1)
    multi = np.flatnonzero(draw.m[rows] > 1)
    return {
        "first": (values, slot_alpha.reshape(k, 2)),
        "second": (values, trial_alpha.reshape(k, 2)),
        "third": _bin_counts(
            draw.z[single, 0],
            draw.null_truth[single],
            draw.positive[single],
            bin_width,
        ),
        "fourth": _bin_counts(
            draw.z.ravel()[slots[multi]],
            slot_null[multi],
            draw.positive[rows[multi]],
            bin_width,
        ),
    }


DESIGNS = st.one_of(
    st.just(((1, B, 1.0),)),  # m_max = 1: no multi-endpoint slot
    st.just(((2, A, 0.5), (4, A, 0.5))),  # all type A: no single trial
    st.lists(
        st.tuples(
            st.integers(1, 4), st.sampled_from([A, B]), st.floats(0.1, 1.0)
        ),
        min_size=1,
        max_size=4,
    ).map(tuple),
)


class TestDrawCounts:
    """The per-trial counts of each draw against the slot-level form."""

    @settings(max_examples=100, deadline=None)
    @given(
        designs=DESIGNS,
        support=st.lists(
            st.sampled_from([-2.0, -0.5, 0.0, 1e-12, 0.7, 2.5]),
            min_size=1,
            max_size=4,
            unique=True,
        ),
        kind=st.sampled_from(
            ["fixed_alpha", "signal_concordant", "adversarial"]
        ),
        menu=st.sampled_from(
            [(0.025,), (0.01, 0.05), (0.005, 0.01, 0.025, 0.05)]
        ),
        n_trials=st.integers(1, 300),
        rc=st.sampled_from([0.0, 0.5]),
        seed=st.integers(0, 2**32),
        bin_width=st.sampled_from([0.25, 1.0]),
    )
    def test_equals_slot_level_counts(
        self, designs, support, kind, menu, n_trials, rc, seed, bin_width
    ):
        cfg = ScenarioConfig(
            true_prior=(support, [1.0] * len(support)),
            n_trials=n_trials,
            m_distribution=designs,
            policy=PolicySpec(kind=kind, alpha_menu=menu),
            seed=seed,
            endpoint_correlation=rc,
        )
        draw = draw_population(cfg, 0)
        got = _draw_counts(draw, bin_width)
        expected = slot_level_counts(draw, bin_width)
        assert got.keys() == expected.keys()
        for check, arrays in expected.items():
            for have, want in zip(got[check], arrays):
                assert have.dtype == want.dtype, check
                assert np.array_equal(have, want), check


class TestBinnedCheckCounts:
    """The bincount implementation against the per-bin loop."""

    @staticmethod
    def both(units, bin_width=0.25):
        z = np.array([u[0] for u in units], dtype=float)
        null = np.array([u[1] for u in units], dtype=bool)
        positive = np.array([u[2] for u in units], dtype=bool)
        args = ("check", z, null, positive, bin_width)
        return binned_check(*args), reference_binned_check(*args)

    @settings(max_examples=300, deadline=None)
    @given(units=UNITS, bin_width=st.sampled_from([0.25, 0.5, 1.0]))
    def test_equals_reference(self, units, bin_width):
        got, expected = self.both(units, bin_width)
        assert got == expected

    @pytest.mark.parametrize(
        "units",
        [
            [],
            [(1.3, True, False)],
            [(0.1, False, True), (0.2, True, True), (-0.1, True, False)],
            [(2.0, True, True), (2.1, False, False), (2.2, True, False)],
        ],
        ids=["empty", "single_unit", "one_class_bins", "one_mixed_bin"],
    )
    def test_edge_cases_equal_reference(self, units):
        got, expected = self.both(units)
        assert got == expected
        assert got.n_units == len(units)

    def test_dense_and_sparse_bins_equal_reference(self):
        rng = np.random.default_rng(53)
        z = np.concatenate([rng.normal(0.0, 2.0, 5000), [-1e6, 1e6]])
        null = rng.random(z.size) < 0.3
        positive = rng.random(z.size) < 0.4 + 0.1 * np.tanh(z)
        for width in (0.25, 1e-3):  # a bin per ~unit, then sparse bins
            args = ("check", z, null, positive, width)
            assert binned_check(*args) == reference_binned_check(*args)

    def test_pooled_draws_with_different_ranges_equal_reference(self):
        draws = [
            draw_population(mixed_scenario(n_trials=4000), 0),
            draw_population(
                mixed_scenario(
                    n_trials=3000,
                    true_prior=((-4.0, 0.5, 6.0), (0.3, 0.3, 0.4)),
                    seed=7,
                ),
                1,
            ),
            draw_population(
                mixed_scenario(
                    n_trials=2000,
                    true_prior=((-1.0, 1.5), (0.5, 0.5)),
                    m_distribution=((1, B, 0.5), (4, A, 0.5)),
                    seed=9,
                ),
                0,
            ),
        ]
        ranges = {
            (np.nanmin(d.z) // 0.25, np.nanmax(d.z) // 0.25) for d in draws
        }
        assert len(ranges) == 3
        report = check_concordance(draws)
        trial, slot = pooled_units(draws)
        m1 = trial["m1"]
        multi = slot["multi"]
        assert report.third == reference_binned_check(
            report.third.name,
            trial["z1"][m1],
            trial["null"][m1],
            trial["positive"][m1],
            0.25,
        )
        assert report.fourth == reference_binned_check(
            report.fourth.name,
            slot["z"][multi],
            slot["null"][multi],
            slot["positive"][multi],
            0.25,
        )
        assert report.first == _mean_check(
            report.first.name, slot["alpha"], slot["null"]
        )
        assert report.second == _mean_check(
            report.second.name, trial["alpha"], trial["null"]
        )

    def test_no_draws_rejected(self):
        with pytest.raises(ValueError, match="no draws"):
            check_concordance([])


def traced_peak(cfg):
    """tracemalloc's peak over ``validate_bounds(cfg)``, in bytes."""
    tracemalloc.start()
    try:
        validate_bounds(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def draw_bytes(draw):
    """The bytes the arrays of one PopulationDraw hold."""
    return sum(
        value.nbytes
        for value in vars(draw).values()
        if isinstance(value, np.ndarray)
    )


class TestStreaming:
    def test_memory_does_not_grow_with_replicates(self):
        def peak(replicates):
            return traced_peak(
                mixed_scenario(n_trials=20_000, replicates=replicates)
            )

        peak(1)  # first-call allocations (caches, lazy imports)
        assert peak(8) <= 1.3 * peak(2)

    def test_a_replicate_holds_about_one_draw(self):
        # The draw is built in place and counted from per-trial arrays,
        # so the temporaries beside a draw stay below one more draw.
        cfg = mixed_scenario(n_trials=20_000)
        traced_peak(cfg)  # first-call allocations
        assert traced_peak(cfg) <= 2 * draw_bytes(draw_population(cfg, 0))


# The golden file's cases and their inputs live in the script that wrote
# it.
_spec = importlib.util.spec_from_file_location(
    "make_golden_simulate",
    Path(__file__).parent / "data" / "make_golden_simulate.py",
)
golden_simulate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_simulate)
GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden_simulate.json").read_text()
)


def _flatten(report, prefix=""):
    out = {}
    for key, value in report.items():
        if isinstance(value, dict):
            out.update(_flatten(value, f"{prefix}{key}."))
        else:
            out[prefix + key] = value
    return out


class TestGoldenOracle:
    # The conditional alpha means and their standard error are exact
    # rationals rounded once; the file holds the earlier floating-point
    # sums, which sit within a few ulp of them.
    ULP_FIELDS = {
        "alpha_mean_null",
        "alpha_mean_nonnull",
        *(
            f"concordance.{check}.{field}"
            for check in ("first", "second")
            for field in ("mean_null", "mean_nonnull", "se_diff")
        ),
    }
    # The file holds per-replicate tau and omega from numpy's pairwise
    # sums, where the library's are correctly rounded sums, so these
    # fields differ by a few ulp of the case's mean bound.  The exact
    # tests (TestVectorizedBounds here, and the tau and omega tests of
    # freq_bounds and bayes_bounds) pin the correctly rounded values.
    BOUND_FIELDS = {
        f"{bound}_{field}": f"{bound}_hat_mean"
        for bound in ("tau", "omega")
        for field in ("hat_mean", "hat_se", "margin")
    }

    @pytest.fixture(scope="class")
    def fitted(self):
        return golden_simulate.fitted_model()

    @pytest.mark.parametrize(
        "case",
        golden_simulate.CASES,
        ids=[golden_simulate.case_name(*c) for c in golden_simulate.CASES],
    )
    def test_report_equals_golden(self, case, fitted):
        report = golden_simulate.run_case(*case, model=fitted)
        got = _flatten(json.loads(json.dumps(report)))
        expected = _flatten(GOLDEN[golden_simulate.case_name(*case)])
        assert got.keys() == expected.keys()
        for key, want in expected.items():
            if key in self.ULP_FIELDS:
                assert abs(got[key] - want) <= 4 * math.ulp(want), key
            elif key in self.BOUND_FIELDS:
                scale = math.ulp(expected[self.BOUND_FIELDS[key]])
                assert abs(got[key] - want) <= 4 * scale, key
            else:
                assert got[key] == want, key


class TestVectorizedBounds:
    """Each replicate's tau and omega are the library's bounds over the
    same draw, bit for bit (one replicate, so the mean is the value)."""

    def test_tau_matches_reference(self):
        cfg = mixed_scenario(n_trials=600, replicates=1)
        draw = draw_population(cfg)
        rho = 0.13
        trials = tuple(
            (int(m), A if a else B, float(al))
            for m, a, al in zip(draw.m, draw.is_type_a, draw.alpha)
        )
        reference = tau_hat_mixed(FreqBoundInput(rho_hat=rho, trials=trials))
        report = validate_bounds(cfg, rho_for_bound=rho)
        assert report.tau_hat_mean == reference

    def test_omega_matches_reference(self):
        cfg = mixed_scenario(n_trials=600, replicates=1)
        model = cfg.prior_model()
        frozen = [
            positive_result(record, model)
            for record, _ in draw_records(draw_population(cfg))
            if record.outcome == "positive"
        ]
        for mode in ("designated", "tightest"):
            reference = omega_hat(frozen, endpoint_mode=mode)
            report = validate_bounds(cfg, endpoint_mode=mode)
            assert report.omega_hat_mean == reference, mode


class TestValidateBounds:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rho_for_bound": math.nan},
            {"rho_for_bound": math.inf},
            {"rho_for_bound": 2.0},
            {"rho_for_bound": -0.5},
            {"endpoint_mode": "median"},
        ],
    )
    def test_bad_inputs_refused_before_any_draw(self, kwargs, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew a population")

        monkeypatch.setattr("enfp.simulate.draw_population", no_draw)
        with pytest.raises(ValueError):
            validate_bounds(mixed_scenario(replicates=1), **kwargs)

    def test_concordant_scenario_no_violations(self):
        report = validate_bounds(mixed_scenario())
        assert not report.bound_violations["tau"]
        assert not report.bound_violations["omega"]
        assert report.concordance.passed
        assert report.realized_fp_se > 0

    def test_bound_chain_single_endpoint(self):
        # realized FP <= omega-hat <= tau-hat for all-(1,B) portfolios:
        # omega uses the actual negative-theta mass while tau prices
        # every null at theta = 0, so omega sits between.
        cfg = mixed_scenario(
            true_prior=((-1.5, -0.5, 1.0, 2.5), (0.1, 0.1, 0.5, 0.3)),
            m_distribution=((1, B, 1.0),),
            n_trials=50_000,
            replicates=4,
        )
        report = validate_bounds(cfg)
        se = max(report.realized_fp_se, 1.0)
        assert report.realized_fp_mean <= report.omega_hat_mean + 3 * se
        assert report.omega_hat_mean <= report.tau_hat_mean + 3 * report.omega_hat_se
        assert not report.bound_violations["omega"]

    def test_rho_zero_scenario(self):
        cfg = mixed_scenario(
            true_prior=((0.5, 2.0), (0.4, 0.6)), replicates=2
        )
        assert rho_from_prior(cfg) == 0.0
        report = validate_bounds(cfg)
        assert report.realized_fp_mean == 0.0
        assert report.tau_hat_mean == 0.0
        assert not report.bound_violations["tau"]

    def test_adversarial_reported_not_suppressed(self):
        cfg = mixed_scenario(
            policy=PolicySpec(
                kind="adversarial",
                alpha_menu=(0.001, 0.3),
                signal_noise=0.5,
            ),
            n_trials=50_000,
            replicates=3,
        )
        report = validate_bounds(cfg)
        assert not report.concordance.first.passed
        assert set(report.bound_violations) == {"tau", "omega"}

    def test_determinism(self):
        cfg = mixed_scenario(n_trials=5000, replicates=2)
        assert validate_bounds(cfg).to_dict() == validate_bounds(cfg).to_dict()

    def test_table_smoke(self):
        table = validate_bounds(mixed_scenario(n_trials=2000, replicates=2)).table()
        assert "tau-hat" in table and "omega-hat" in table


class TestScenarioIO:
    def test_json_round_trip(self):
        cfg = mixed_scenario()
        again = ScenarioConfig.from_json(cfg.to_json())
        assert again == cfg

    def test_format_tag_checked(self):
        data = mixed_scenario().to_dict()
        data["format"] = "other/1"
        with pytest.raises(ValueError):
            ScenarioConfig.from_dict(data)

    def test_validation_errors(self):
        good = dict(
            true_prior=delta_prior(0.0),
            n_trials=10,
            m_distribution=((1, B, 1.0),),
            policy=fixed_policy(),
            seed=1,
        )
        with pytest.raises(ValueError):
            ScenarioConfig(**{**good, "endpoint_correlation": 1.0})
        with pytest.raises(ValueError):
            ScenarioConfig(**{**good, "n_trials": 0})
        with pytest.raises(ValueError):
            ScenarioConfig(**{**good, "seed": "abc"})
        with pytest.raises(ValueError):
            ScenarioConfig(**{**good, "true_prior": ((0.0,), (-1.0,))})
        with pytest.raises(ValueError):
            ScenarioConfig(**{**good, "m_distribution": ((0, B, 1.0),)})
        with pytest.raises(ValueError):
            PolicySpec(kind="bogus")
        with pytest.raises(ValueError):
            PolicySpec(kind="fixed_alpha", alpha_menu=())
        with pytest.raises(ValueError):
            PolicySpec(kind="fixed_alpha", alpha_menu=(0.0,))
        with pytest.raises(ValueError):
            PolicySpec(kind="signal_concordant", signal_noise=-1.0)
        with pytest.raises(ValueError, match="signal_noise"):
            PolicySpec(kind="signal_concordant", signal_noise=math.inf)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_masses_refused_by_name(self, bad):
        with pytest.raises(ValueError, match="true_prior masses must be fin"):
            mixed_scenario(true_prior=((-1.0, 1.0), (bad, 1.0)))
        with pytest.raises(
            ValueError, match="m_distribution probabilities must be fin"
        ):
            mixed_scenario(m_distribution=((1, B, bad), (2, A, 1.0)))

    def test_overflowing_totals_refused_by_name(self):
        with pytest.raises(ValueError, match="true_prior masses .* sum"):
            mixed_scenario(true_prior=((-1.0, 1.0), (1e308, 1e308)))
        with pytest.raises(
            ValueError, match="m_distribution probabilities .* sum"
        ):
            mixed_scenario(m_distribution=((1, B, 1e308), (2, A, 1e308)))

    def test_prior_mass_normalized(self):
        cfg = mixed_scenario(true_prior=((-1.0, 2.0), (1.0, 3.0)))
        assert_allclose(cfg.true_prior[1], (0.25, 0.75), atol=1e-15)
        assert_allclose(rho_from_prior(cfg), 0.25, atol=1e-15)
