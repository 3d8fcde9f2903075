"""Tests for g-modeling deconvolution: basis, likelihood, fit, bootstrap."""

import dataclasses
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import norm as scipy_norm

from enfp.deconv import (
    FitConfig,
    _fit_alpha,
    ObservationSet,
    PriorModel,
    bootstrap,
    fit_g,
    fit_g_path,
    likelihood_matrix,
    log_likelihood,
    natural_spline_basis,
    rho_from_g,
)

# Fit configuration used for the recovery tests: flexible basis with a
# light penalty reached by continuation.  The package defaults (df=6,
# c0=1.0) favor smoothness and systematically blur sharp null spikes;
# recovery of spiky mixtures needs the flexible setting.
RECOVERY_CFG = FitConfig(
    grid_low=-6.0,
    grid_high=10.0,
    basis_df=20,
    penalty_c0=0.01,
    max_iterations=1500,
)


def mixture_obs(seed, n=5000, null_at=-0.5, null_frac=0.1):
    """Criterion-3 style data: null spike + discretized N(3,1) signal."""
    rng = np.random.default_rng(seed)
    null = rng.random(n) < null_frac
    theta = np.where(
        null, null_at, np.round(rng.normal(3.0, 1.0, n) / 0.05) * 0.05
    )
    return ObservationSet(exact_z=tuple(theta + rng.standard_normal(n)))


class TestBasis:
    def test_shape_and_rank(self):
        x = np.linspace(-4, 8, 241)
        for df in (2, 6, 12):
            basis = natural_spline_basis(x, df)
            assert basis.shape == (x.size, df)
            assert np.linalg.matrix_rank(basis) == df

    def test_standardized_columns(self):
        basis = natural_spline_basis(np.linspace(-6, 15, 421), 6)
        assert_allclose(basis.mean(axis=0), 0.0, atol=1e-12)
        assert_allclose(basis.std(axis=0), 1.0, atol=1e-12)


class TestLikelihoodMatrix:
    def test_exact_rows_match_normal_pdf(self):
        theta = np.array([-1.0, 0.0, 2.0])
        obs = ObservationSet(exact_z=(0.5, -2.0))
        p = likelihood_matrix(obs, theta)
        expected = scipy_norm.pdf(
            np.array([0.5, -2.0])[:, None] - theta[None, :]
        )
        assert_allclose(p, expected, atol=1e-14)

    def test_censored_rows_match_cdf_difference(self):
        theta = np.array([-1.0, 0.0, 2.0])
        obs = ObservationSet(censored=((-1.96, 1.96),))
        p = likelihood_matrix(obs, theta)
        expected = scipy_norm.cdf(1.96 - theta) - scipy_norm.cdf(
            -1.96 - theta
        )
        assert_allclose(p[0], expected, atol=1e-13)

    def test_exact_rows_stack_before_censored(self):
        theta = np.array([0.0, 1.0])
        obs = ObservationSet(exact_z=(1.0,), censored=((-1.0, 1.0),))
        p = likelihood_matrix(obs, theta)
        assert p.shape == (2, 2)
        assert_allclose(p[0], scipy_norm.pdf(1.0 - theta), atol=1e-14)


class TestLogLikelihood:
    def test_point_mass_exact_oracle(self):
        # Frozen: log(1/sqrt(2*pi)) = -0.9189385332046727 (mpmath).
        model = PriorModel.from_masses([0.0], [1.0])
        obs = ObservationSet(exact_z=(0.0,))
        assert_allclose(
            log_likelihood(model, obs), -0.9189385332046727, atol=1e-12
        )

    def test_point_mass_censored_oracle(self):
        # Frozen: log(Phi(1.96) - Phi(-1.96)) = -0.05128886313046422
        # (mpmath, 60 digits).
        model = PriorModel.from_masses([0.0], [1.0])
        obs = ObservationSet(censored=((-1.96, 1.96),))
        assert_allclose(
            log_likelihood(model, obs), -0.05128886313046422, atol=1e-10
        )

    def test_symmetric_grid_symmetric_z(self):
        grid = np.arange(-2.0, 2.01, 0.5)
        model = PriorModel.from_masses(grid, np.ones(grid.size))
        left = log_likelihood(model, ObservationSet(exact_z=(-1.3,)))
        right = log_likelihood(model, ObservationSet(exact_z=(1.3,)))
        assert_allclose(left, right, atol=1e-12)


class TestFit:
    def test_point_mass_concentration(self):
        rng = np.random.default_rng(7)
        obs = ObservationSet(exact_z=tuple(2.0 + rng.standard_normal(5000)))
        model = fit_g(
            obs,
            FitConfig(
                grid_low=-6.0, grid_high=10.0, basis_df=20, penalty_c0=0.05
            ),
        )
        assert model.converged
        near = np.abs(model.theta_grid - 2.0) < 0.5
        assert model.masses[near].sum() >= 0.8

    def test_spike_mixture_rho_recovery(self):
        obs = mixture_obs(101)
        model = fit_g_path(
            obs, RECOVERY_CFG, penalty_path=(1.0, 0.25, 0.05)
        )
        assert model.converged
        assert abs(rho_from_g(model) - 0.1) <= 0.04

    def test_zero_located_null_mass_splits(self):
        # Null mass exactly at theta=0 straddles the null boundary: the
        # deconvolved bump splits roughly in half across it, so rho
        # recovers about null_frac/2 (empirically 0.040-0.055 across
        # seeds for null_frac=0.1), not the full 0.1.
        rng = np.random.default_rng(11)
        null = rng.random(5000) < 0.1
        theta = np.where(null, 0.0, 3.0)
        obs = ObservationSet(exact_z=tuple(theta + rng.standard_normal(5000)))
        model = fit_g_path(
            obs, RECOVERY_CFG, penalty_path=(1.0, 0.25, 0.05)
        )
        assert model.converged
        assert 0.03 <= rho_from_g(model) <= 0.12

    def test_empty_and_undersized_inputs_error(self):
        with pytest.raises(ValueError):
            fit_g(ObservationSet(), FitConfig())
        with pytest.raises(ValueError):
            fit_g(ObservationSet(exact_z=(1.0, 2.0)), FitConfig())

    def test_objective_trace_nondecreasing(self):
        obs = mixture_obs(202, n=2000)
        model = fit_g(obs, FitConfig(basis_df=8, penalty_c0=0.25))
        trace = np.asarray(model.diagnostics["objective_trace"])
        assert trace.size >= 2
        # Nondecreasing within floating-point resolution of the
        # objective (absolute slack 1e-6 at |obj| ~ 1e4).
        assert np.min(np.diff(trace)) >= -1e-6

    def test_masses_normalized_and_nonnegative(self):
        model = fit_g(mixture_obs(303, n=1000), FitConfig())
        assert np.all(model.masses >= 0.0)
        assert abs(model.masses.sum() - 1.0) <= 1e-12

    def test_fitted_beats_uniform(self):
        obs = mixture_obs(404, n=1500)
        cfg = FitConfig()
        model = fit_g(obs, cfg)
        uniform = PriorModel.from_masses(
            cfg.theta_grid(), np.ones(cfg.theta_grid().size)
        )
        assert log_likelihood(model, obs) >= log_likelihood(uniform, obs)

    def test_censoring_consistency_tiny_intervals(self):
        obs = mixture_obs(505, n=1200)
        cfg = FitConfig(basis_df=8, penalty_c0=0.25)
        exact_fit = fit_g(obs, cfg)
        eps = 1e-4
        intervals = tuple((z - eps, z + eps) for z in obs.exact_z)
        interval_fit = fit_g(ObservationSet(censored=intervals), cfg)
        assert abs(rho_from_g(exact_fit) - rho_from_g(interval_fit)) < 1e-3

    def test_criterion4_style_censoring_stability(self):
        obs = mixture_obs(0)
        model = fit_g_path(obs, RECOVERY_CFG, penalty_path=(1.0, 0.25, 0.05))
        rng = np.random.default_rng(10_000)
        z = np.asarray(obs.exact_z)
        inside = np.where(np.abs(z) < 1.96)[0]
        k = int(round(0.12 * inside.size))
        chosen = rng.choice(inside, size=k, replace=False)
        mask = np.ones(z.size, bool)
        mask[chosen] = False
        censored_obs = ObservationSet(
            exact_z=tuple(z[mask]),
            censored=tuple((-1.96, 1.96) for _ in range(k)),
        )
        censored_model = fit_g_path(
            censored_obs, RECOVERY_CFG, penalty_path=(1.0, 0.25, 0.05)
        )
        assert censored_model.converged
        assert (
            abs(rho_from_g(model) - rho_from_g(censored_model)) < 0.03
        )


class TestRhoFromG:
    def test_all_positive_mass(self):
        assert rho_from_g(PriorModel.from_masses([1.0], [1.0])) == 0.0

    def test_direct_summation(self):
        model = PriorModel.from_masses([-1.0, 1.0], [0.3, 0.7])
        assert_allclose(rho_from_g(model), 0.3, atol=1e-15)

    def test_grid_zero_counts_as_null(self):
        model = PriorModel.from_masses(
            [-1.0, 0.0, 1.0], [0.25, 0.5, 0.25]
        )
        assert_allclose(rho_from_g(model), 0.75, atol=1e-15)

    def test_constructed_grid_hits_zero_exactly(self):
        theta = FitConfig().theta_grid()
        assert 0.0 in theta


class TestPriorModelSerialization:
    def test_json_round_trip_bit_exact(self, tmp_path):
        model = fit_g(mixture_obs(606, n=800), FitConfig(basis_df=6))
        path = tmp_path / "model.json"
        model.to_json(str(path))
        loaded = PriorModel.from_json(str(path))
        assert np.array_equal(loaded.theta_grid, model.theta_grid)
        assert np.array_equal(loaded.masses, model.masses)
        assert np.array_equal(loaded.coefficients, model.coefficients)
        assert loaded.model_id == model.model_id
        assert loaded.converged == model.converged
        assert loaded.log_likelihood == model.log_likelihood
        assert loaded.fit_config == model.fit_config

    def test_format_tag_guard(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "something-else/9"}))
        with pytest.raises(ValueError):
            PriorModel.from_json(str(path))

    def test_any_ascending_grid_loads(self, tmp_path):
        model = PriorModel.from_masses([-1.0, 0.3, 2.71828], [0.2, 0.3, 0.5])
        path = tmp_path / "model.json"
        model.to_json(str(path))
        loaded = PriorModel.from_json(str(path))
        assert loaded.theta_grid.tolist() == [-1.0, 0.3, 2.71828]
        assert loaded.model_id == model.model_id

    def test_invariant_validation(self):
        for grid in (
            [0.0, 3.0, 1.0],
            [0.0, 1.0, 1.0],
            [0.0, 1.0, math.nan],
            [-math.inf, 0.0, 1.0],
        ):
            with pytest.raises(ValueError):
                PriorModel.from_masses(grid, [0.3, 0.3, 0.4])
        with pytest.raises(ValueError):
            PriorModel(
                theta_grid=np.array([0.0, 1.0]),
                masses=np.array([-0.1, 1.1]),
            )
        with pytest.raises(ValueError):
            PriorModel(
                theta_grid=np.array([0.0, 1.0]),
                masses=np.array([0.25, 0.25]),
            )


class TestBootstrap:
    SMALL_CFG = FitConfig(
        grid_low=-5.0,
        grid_high=6.0,
        grid_step=0.1,
        basis_df=8,
        penalty_c0=0.25,
        seed=42,
    )

    def small_obs(self):
        rng = np.random.default_rng(77)
        null = rng.random(300) < 0.3
        theta = np.where(null, -1.5, 2.5)
        return ObservationSet(exact_z=tuple(theta + rng.standard_normal(300)))

    def test_same_seed_identical(self):
        obs = self.small_obs()
        z_grid = np.linspace(-2, 4, 25)
        res1 = bootstrap(obs, self.SMALL_CFG, replicates=12, z_grid=z_grid)
        res2 = bootstrap(obs, self.SMALL_CFG, replicates=12, z_grid=z_grid)
        assert np.array_equal(res1.rho_samples, res2.rho_samples)
        assert res1.rho_ci == res2.rho_ci
        assert np.array_equal(res1.h_low, res2.h_low)
        assert np.array_equal(res1.h_high, res2.h_high)

    def test_different_seed_differs(self):
        obs = self.small_obs()
        other = dataclasses.replace(self.SMALL_CFG, seed=43)
        res1 = bootstrap(obs, self.SMALL_CFG, replicates=12)
        res2 = bootstrap(obs, other, replicates=12)
        assert not np.array_equal(res1.rho_samples, res2.rho_samples)

    def test_two_replicates_degenerate_band(self):
        obs = self.small_obs()
        res = bootstrap(obs, self.SMALL_CFG, replicates=2)
        assert res.replicates == 2
        assert res.n_converged + res.n_failed == 2
        lo, hi = res.rho_ci
        assert lo <= hi

    def test_replicates_below_two_rejected(self):
        with pytest.raises(ValueError):
            bootstrap(self.small_obs(), self.SMALL_CFG, replicates=1)

    def test_coverage_at_desk_scale(self):
        # Nested Monte Carlo: 30 independent experiments, wide-separation
        # mixture with true rho = 0.3; the percentile CI must cover the
        # truth in at least 90% of them.  Fully seeded, hence
        # deterministic: observed coverage is 28/30.
        true_rho = 0.3
        cfg = FitConfig(
            grid_low=-5.5,
            grid_high=6.5,
            grid_step=0.1,
            basis_df=8,
            penalty_c0=0.05,
            max_iterations=800,
        )
        covered = 0
        outer = 30
        for exp in range(outer):
            rng = np.random.default_rng(900 + exp)
            null = rng.random(800) < true_rho
            theta = np.where(null, -2.0, 3.0)
            obs = ObservationSet(
                exact_z=tuple(theta + rng.standard_normal(800))
            )
            res = bootstrap(
                obs, dataclasses.replace(cfg, seed=exp), replicates=60
            )
            lo, hi = res.rho_ci
            if lo <= true_rho <= hi:
                covered += 1
        assert covered >= int(np.ceil(0.9 * outer))


class TestObservationSetInputs:
    def test_nan_exact_z_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            ObservationSet(exact_z=(1.0, math.nan, 2.0))

    @pytest.mark.parametrize(
        "interval", [(math.nan, 1.0), (-1.0, math.nan), (math.nan, math.nan)]
    )
    def test_nan_interval_end_rejected(self, interval):
        with pytest.raises(ValueError):
            ObservationSet(censored=(interval,))

    def test_one_sided_infinite_intervals_kept(self):
        obs = ObservationSet(
            censored=((-math.inf, 1.96), (1.96, math.inf))
        )
        assert obs.censored == ((-math.inf, 1.96), (1.96, math.inf))
        p = likelihood_matrix(obs, np.array([-1.0, 0.0, 2.0]))
        assert np.all(np.isfinite(p))


# The golden file's cases and their inputs live in the script that wrote
# it, so the test reruns exactly what was recorded.
_spec = importlib.util.spec_from_file_location(
    "make_golden_bootstrap",
    Path(__file__).parent / "data" / "make_golden_bootstrap.py",
)
golden_bootstrap = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_bootstrap)
GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden_bootstrap.json").read_text()
)


def _three_kinds(seed, n=120):
    """Exact-only, censored-only and mixed sets with repeats and
    one-sided intervals."""
    rng = np.random.default_rng(seed)
    exact = tuple(np.round(rng.normal(1.0, 2.0, n), 1))
    bands = [(-1.96, 1.96), (-math.inf, -1.0), (2.5, math.inf), (0.5, 1.5)]
    censored = tuple(bands[i] for i in rng.integers(0, len(bands), n))
    return {
        "exact": ObservationSet(exact_z=exact),
        "censored": ObservationSet(censored=censored),
        "mixed": ObservationSet(exact_z=exact[: n // 2], censored=censored),
    }


class TestBitIdentity:
    """The fit reuses one likelihood matrix per observation set and grid
    and gathers bootstrap rows from it; every iterate must stay what a
    fresh build per fit and per replicate gave."""

    @pytest.mark.parametrize(
        "case",
        golden_bootstrap.CASES,
        ids=[golden_bootstrap.case_name(*c) for c in golden_bootstrap.CASES],
    )
    def test_fit_and_bootstrap_equal_golden(self, case):
        expected = GOLDEN[golden_bootstrap.case_name(*case)]
        assert golden_bootstrap.run_case(*case) == expected
        assert expected["bootstrap"]["n_failed"] >= 1

    @pytest.mark.parametrize("kind", ["exact", "censored", "mixed"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_gathered_rows_equal_resample_matrix(self, kind, seed):
        obs = _three_kinds(seed)[kind]
        theta = RECOVERY_CFG.theta_grid()
        p_full = obs._likelihood(theta)
        rows = obs._resample_rows(np.random.default_rng([seed, 9]))
        resampled = obs.resample(np.random.default_rng([seed, 9]))
        built = likelihood_matrix(resampled, theta)
        gathered = p_full[rows]
        assert gathered.shape == built.shape
        assert gathered.tobytes() == built.tobytes()

    def test_resample_rows_put_exact_draws_first(self):
        obs = _three_kinds(5)["mixed"]
        rows = obs._resample_rows(np.random.default_rng(3))
        idx = np.random.default_rng(3).integers(0, obs.n_total, obs.n_total)
        n_exact = len(obs.exact_z)
        assert rows.tolist() == (
            idx[idx < n_exact].tolist() + idx[idx >= n_exact].tolist()
        )

    def test_memoised_matrix_is_read_only_and_shared(self):
        obs = _three_kinds(6)["mixed"]
        cfg = dataclasses.replace(RECOVERY_CFG, min_observations=1)
        theta = cfg.theta_grid()
        p_matrix = obs._likelihood(theta)
        assert not p_matrix.flags.writeable
        with pytest.raises(ValueError):
            p_matrix[0, 0] = 1.0
        assert np.array_equal(p_matrix, likelihood_matrix(obs, theta))
        assert obs._likelihood(theta.copy()) is p_matrix
        model = fit_g(obs, cfg)
        assert obs._likelihood(model.theta_grid) is p_matrix
        assert log_likelihood(model, obs) == model.log_likelihood
        other = np.linspace(-3.0, 3.0, 7)
        assert obs._likelihood(other).shape == (obs.n_total, 7)
        assert obs._likelihood(theta) is p_matrix

    def test_memo_leaves_equality_and_hash_alone(self):
        a = ObservationSet(exact_z=(0.5, 1.5), censored=((-1.0, 1.0),))
        b = ObservationSet(exact_z=(0.5, 1.5), censored=((-1.0, 1.0),))
        a._likelihood(np.array([0.0, 1.0]))
        assert a == b and hash(a) == hash(b)
        assert "_matrices" not in repr(a)


class TestStopReason:
    def test_converged_fit_stops_on_gradient_tolerance(self):
        model = fit_g(mixture_obs(3, n=400), FitConfig())
        assert model.converged
        assert model.diagnostics["stop_reason"] == "gradient_tolerance"

    def test_iteration_cap(self):
        model = fit_g(mixture_obs(3, n=400), FitConfig(max_iterations=1))
        assert not model.converged
        assert model.diagnostics["stop_reason"] == "max_iterations"
        assert model.diagnostics["iterations"] == 1

    def test_stall_window(self):
        # A zero tolerance is never met; Newton stalls at the noise floor.
        model = fit_g(
            mixture_obs(3, n=300),
            FitConfig(gradient_tolerance=0.0, penalty_c0=0.01),
        )
        assert not model.converged
        assert model.diagnostics["stop_reason"] == "stall_window"

    def test_no_acceptable_step(self):
        obs = mixture_obs(3, n=50)
        theta = FitConfig().theta_grid()
        basis = natural_spline_basis(theta, 6)
        result = _fit_alpha(
            obs._likelihood(theta), basis, FitConfig(),
            alpha0=np.full(6, np.nan),
        )
        assert not result["converged"]
        assert result["stop_reason"] == "no_acceptable_step"
        assert result["iterations"] == 1

    @pytest.mark.parametrize(
        "warm, message",
        [
            (np.full(6, np.nan), "finite"),
            (np.array([0.0, 0.0, np.inf, 0.0, 0.0, 0.0]), "finite"),
            (np.zeros(5), "basis_df=6"),
            (np.zeros((2, 6)), "basis_df=6"),
        ],
        ids=["nan", "inf", "short", "2d"],
    )
    def test_bad_warm_start_rejected_at_entry(self, warm, message):
        with pytest.raises(ValueError, match=message):
            fit_g(mixture_obs(3, n=50), FitConfig(), warm_start=warm)

    def test_failed_replicates_recorded(self):
        case = golden_bootstrap.CASES[0]
        obs, cfg = golden_bootstrap.case_inputs(*case)
        res = bootstrap(obs, cfg, replicates=golden_bootstrap.REPLICATES)
        assert len(res.failed_replicates) == res.n_failed >= 1
        assert list(res.failed_replicates) == sorted(res.failed_replicates)
        assert all(
            0 <= i < res.replicates for i in res.failed_replicates
        )
        assert res.to_dict()["failed_replicates"] == list(
            res.failed_replicates
        )
        json.dumps(res.to_dict())
