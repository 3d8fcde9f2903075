"""Tests for posterior h-probabilities, curve tabulation, and inversion."""

import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import logsumexp

from enfp import hcurve
from enfp.deconv import FitConfig, PriorModel, fit_g_path
from enfp.hcurve import (
    _BLOCK,
    _NARROW,
    ZERO_TOLERANCE,
    HCurve,
    HRangeError,
    h_curve,
    h_probability,
    h_values,
    _support,
    render_svg,
    z_for_h,
)
from enfp.records_io import extract_observations, synthesize_corpus


def two_point(w_neg=0.5, theta_neg=-1.0, theta_pos=1.0):
    return PriorModel.from_masses(
        [theta_neg, theta_pos], [w_neg, 1.0 - w_neg]
    )


def narrow(points=_NARROW, seed=3):
    """A prior on ``points`` grid points, by default the widest support
    that ``h_values`` lays out one column per z, with null and positive
    halves of 8 or more points."""
    masses = 10.0 ** np.random.default_rng(seed).uniform(-6.0, 0.0, points)
    return PriorModel.from_masses(np.linspace(-4.0, 5.0, points), masses)


def closed_form_h(z, w_neg, theta_neg, theta_pos):
    """Independent two-point posterior: w+ phi(z-t+) / sum."""
    phi = lambda x: np.exp(-0.5 * x * x) / np.sqrt(2 * np.pi)
    num = (1.0 - w_neg) * phi(z - theta_pos)
    den = num + w_neg * phi(z - theta_neg)
    return num / den


@pytest.fixture(scope="module")
def readme_model():
    """The README fit of the README corpus: 321 grid points."""
    obs = extract_observations(synthesize_corpus(seed=7))
    cfg = FitConfig(grid_low=-6.0, grid_high=10.0, basis_df=20,
                    penalty_c0=0.01, max_iterations=1500)
    return fit_g_path(obs, cfg, penalty_path=(1.0, 0.25, 0.05))


def logsumexp_h(model, z):
    """h by the two-logsumexp formula: exp(log num - log den).

    Evaluated in long double: at |z| ~ 50 both logs are ~1e3, and their
    double rounding alone would put ~1e-13 of error into h.
    """
    ld = np.longdouble
    theta = np.asarray(model.theta_grid)
    g = np.asarray(model.masses, dtype=ld)
    pos = theta > ZERO_TOLERANCE
    log_kernel = -0.5 * (np.asarray(z, dtype=ld)[:, None] - theta) ** 2
    log_den = logsumexp(log_kernel, axis=1, b=g)
    log_num = logsumexp(log_kernel[:, pos], axis=1, b=g[pos])
    return np.exp(np.minimum(log_num - log_den, 0.0)).astype(float)


class TestHProbability:
    def test_two_point_frozen_oracle(self):
        # Frozen high-precision oracle: phi(1)/(phi(1)+phi(3)) =
        # 1/(1+e^-4) = 0.9820137900379084 (mpmath, 60 digits).
        model = two_point()
        assert_allclose(
            h_probability(model, 2.0), 0.9820137900379084, atol=1e-12
        )

    def test_symmetry_point(self):
        assert_allclose(h_probability(two_point(), 0.0), 0.5, atol=1e-12)

    def test_all_mass_positive_is_one(self):
        model = PriorModel.from_masses([0.5, 1.5], [0.4, 0.6])
        for z in (-50.0, -3.0, 0.0, 4.0, 60.0):
            assert h_probability(model, z) == 1.0

    def test_point_mass_at_zero_is_null(self):
        model = PriorModel.from_masses([0.0], [1.0])
        for z in (-3.0, 0.0, 5.0):
            assert h_probability(model, z) == 0.0

    @pytest.mark.filterwarnings("error")
    def test_model_without_positive_mass_is_refused(self):
        model = SimpleNamespace(theta_grid=np.array([-1.0, 1.0]),
                                masses=np.zeros(2))
        for call in (h_values, h_probability):
            with pytest.raises(ValueError, match="positive mass"):
                call(model, 1.0)

    def test_closed_form_agreement_within_1e10(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            w = float(rng.uniform(0.05, 0.95))
            tn = float(rng.uniform(-4.0, 0.0))
            tp = float(rng.uniform(0.5, 5.0))
            model = two_point(w, tn, tp)
            zs = rng.uniform(-8, 8, size=40)
            expected = closed_form_h(zs, w, tn, tp)
            got = h_values(model, zs)
            assert_allclose(got, expected, atol=1e-10)

    def test_log_space_tail_accuracy(self):
        # h(z) = 1/(1+exp(-2z)) for the symmetric unit two-point prior;
        # at z = -30 that is e^-60-ish, far below double underflow if
        # computed naively in probability space.
        model = two_point()
        h = h_probability(model, -30.0)
        assert_allclose(h, 1.0 / (1.0 + np.exp(60.0)), rtol=1e-9)
        assert h > 0.0

    def test_saturation_flags(self):
        model = two_point()
        assert h_probability(model, -400.0) == 0.0
        assert h_probability(model, 400.0) == 1.0
        assert h_probability(model, np.inf) == 1.0
        assert h_probability(model, -np.inf) == 0.0

    def test_bounds_always(self):
        rng = np.random.default_rng(17)
        grid = np.arange(-3.0, 3.01, 0.5)
        for _ in range(20):
            masses = rng.random(grid.size)
            model = PriorModel.from_masses(grid, masses / masses.sum())
            h = h_values(model, np.linspace(-12, 12, 101))
            assert np.all(h >= 0.0) and np.all(h <= 1.0)

    def test_monotone_on_random_priors(self):
        rng = np.random.default_rng(23)
        grid = np.arange(-4.0, 6.01, 0.25)
        zs = np.arange(-10.0, 10.0001, 0.01)
        for _ in range(20):
            masses = rng.random(grid.size) ** 3
            model = PriorModel.from_masses(grid, masses / masses.sum())
            h = h_values(model, zs)
            assert np.min(np.diff(h)) > -1e-9


    def test_nan_z_rejected_with_count(self):
        model = two_point()
        with pytest.raises(ValueError, match="2 of 3 z values are NaN"):
            h_values(model, [np.nan, 1.0, np.nan])
        with pytest.raises(ValueError, match="NaN"):
            h_probability(model, float("nan"))

    def test_infinite_z_saturates_in_a_batch(self):
        h = h_values(two_point(), [-np.inf, 0.0, np.inf])
        assert h[0] == 0.0 and h[2] == 1.0
        assert_allclose(h[1], 0.5, atol=1e-12)
        all_pos = PriorModel.from_masses([0.5, 1.5], [0.4, 0.6])
        assert list(h_values(all_pos, [-np.inf, np.inf])) == [1.0, 1.0]
        null = PriorModel.from_masses([0.0], [1.0])
        assert list(h_values(null, [-np.inf, np.inf])) == [0.0, 0.0]

    def test_shape_follows_z(self):
        model = two_point()
        assert h_values(model, 1.0).shape == ()
        assert h_values(model, np.zeros((3, 4))).shape == (3, 4)
        assert h_values(model, []).shape == (0,)


class TestBatchInvariance:
    """h of a z does not depend on the other z evaluated with it."""

    @pytest.mark.parametrize("which", ["readme", "two_point", "narrow"])
    def test_batch_equals_scalar_calls(self, which, request):
        if which == "readme":
            model = request.getfixturevalue("readme_model")
        elif which == "narrow":
            model = narrow()
        else:
            model = two_point(0.3, -2.0, 1.0)
        zs = np.random.default_rng(41).uniform(-8.0, 12.0, 500)
        batch = h_values(model, zs)
        scalar = np.array([h_probability(model, float(v)) for v in zs])
        assert np.array_equal(batch, scalar)

    def test_independent_of_block_boundaries(self, readme_model):
        zs = np.random.default_rng(43).uniform(-8.0, 12.0, 500)
        five_point = PriorModel.from_masses(
            [-2.0, -0.5, 1.0, 2.5, 4.0], [0.12, 0.08, 0.24, 0.32, 0.24]
        )
        for model in (readme_model, five_point, narrow()):
            # Rows per block shrink as the support grows; tile past two
            # blocks, to a count that ends partway through one.
            rows = max(1, _BLOCK // _support(model)[0].size)
            tiles = 2 * rows // zs.size + 2
            assert (zs.size * tiles) % rows != 0
            tiled = h_values(model, np.tile(zs, tiles))
            assert np.array_equal(tiled, np.tile(h_values(model, zs), tiles))


def zero_mass_points(model):
    """``model`` with every third grid point, and 20 in a run, set to
    zero mass (as in TestLogsumexpReference)."""
    masses = np.array(model.masses)
    masses[::3] = 0.0
    masses[150:170] = 0.0
    return PriorModel.from_masses(model.theta_grid, masses)


def must_not_run(*args, **kwargs):
    raise AssertionError("called where nothing may run")


class TestWorkers:
    """h_values shares its blocks across threads without changing a bit,
    and no thread outlives the call."""

    @pytest.fixture(scope="class")
    def models(self, readme_model):
        five_point = PriorModel.from_masses(
            [-2.0, -0.5, 1.0, 2.5, 4.0], [0.12, 0.08, 0.24, 0.32, 0.24]
        )
        return (readme_model, five_point, zero_mass_points(readme_model),
                narrow())

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_equal_to_serial_blocks(self, models, monkeypatch, workers):
        monkeypatch.setattr(hcurve, "_WORKERS", workers)
        rng = np.random.default_rng(53)
        for model in models:
            rows = max(1, _BLOCK // _support(model)[0].size)
            # Two blocks and one z; three blocks and one z (a block to
            # each of three workers); five blocks ending partway (three
            # workers hold one, two and two blocks).
            for n in (rows + 1, 2 * rows + 1, 4 * rows + rows // 2):
                zs = rng.uniform(-8.0, 12.0, n)
                # One block per call: computed on the caller's thread.
                serial = np.concatenate([
                    h_values(model, zs[i:i + rows])
                    for i in range(0, n, rows)
                ])
                assert np.array_equal(h_values(model, zs), serial)

    def test_threads_switching_every_microsecond(self, models, monkeypatch):
        # Three workers, switched as often as the interpreter allows:
        # each still writes only its own share.
        zs = np.random.default_rng(61).uniform(-8.0, 12.0, 15000)
        monkeypatch.setattr(hcurve, "_WORKERS", 1)
        serial = [h_values(model, zs) for model in models]
        monkeypatch.setattr(hcurve, "_WORKERS", 3)
        before, interval = threading.active_count(), sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                for model, expected in zip(models, serial):
                    assert np.array_equal(h_values(model, zs), expected)
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == before

    def test_one_block_starts_no_thread(self, readme_model, monkeypatch):
        monkeypatch.setattr(hcurve, "_WORKERS", 3)
        monkeypatch.setattr(hcurve, "threading", SimpleNamespace(
            Thread=must_not_run
        ))
        rows = _BLOCK // _support(readme_model)[0].size
        h_values(readme_model, np.linspace(-5.0, 5.0, rows))
        h_curve(readme_model, np.linspace(-5.0, 9.0, 141))
        z_for_h(readme_model, 0.9)

    def test_failure_in_a_later_share_reaches_the_caller(
        self, readme_model, monkeypatch
    ):
        monkeypatch.setattr(hcurve, "_WORKERS", 2)
        caller, exp = threading.current_thread(), np.exp

        def exp_failing_off_the_caller(x, out=None):
            if threading.current_thread() is not caller:
                raise FloatingPointError("exp failed in a worker")
            return exp(x, out=out)

        monkeypatch.setattr(np, "exp", exp_failing_off_the_caller)
        rows = _BLOCK // _support(readme_model)[0].size
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="in a worker"):
            h_values(readme_model, np.zeros(3 * rows))
        assert threading.active_count() == before

    def test_nan_refused_before_any_thread(self, readme_model, monkeypatch):
        monkeypatch.setattr(hcurve, "_WORKERS", 2)
        monkeypatch.setattr(hcurve, "threading", SimpleNamespace(
            Thread=must_not_run
        ))
        zs = np.zeros(3 * _BLOCK // _support(readme_model)[0].size)
        zs[-1] = np.nan
        with pytest.raises(ValueError, match=f"1 of {zs.size} z values"):
            h_values(readme_model, zs)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_infinite_z_saturate(self, readme_model, monkeypatch, workers):
        monkeypatch.setattr(hcurve, "_WORKERS", workers)
        zs = np.random.default_rng(59).uniform(-8.0, 12.0, 1500)
        zs[::7], zs[3::7] = np.inf, -np.inf
        finite = np.isfinite(zs)
        h = h_values(readme_model, zs)
        assert np.all(h[zs == np.inf] == 1.0)
        assert np.all(h[zs == -np.inf] == 0.0)
        monkeypatch.setattr(hcurve, "_WORKERS", 1)
        assert np.array_equal(h[finite], h_values(readme_model, zs[finite]))


class TestHugeZ:
    """h is finite and at its limit at every finite z, however large."""

    BIG = [1e17, 1e154, 1.35e154, 1e300, 1e308, sys.float_info.max]
    PRIORS = {
        # Both limits attained: h is 0 at -inf and 1 at +inf.
        "mixed": (([-1.0, 0.0, 1.0, 2.0], [0.2, 0.2, 0.3, 0.3]), (0.0, 1.0)),
        "all_null": (([-2.0, -0.5, 0.0], [0.3, 0.3, 0.4]), (0.0, 0.0)),
        "all_positive": (([0.5, 1.5, 4.0], [0.4, 0.5, 0.1]), (1.0, 1.0)),
    }

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("which", sorted(PRIORS))
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_saturated_limit_without_warning(self, which, workers,
                                             monkeypatch):
        monkeypatch.setattr(hcurve, "_WORKERS", workers)
        (theta, masses), (low, high) = self.PRIORS[which]
        model = PriorModel.from_masses(theta, masses)
        big = np.array(self.BIG)
        zs = np.concatenate([big, -big])
        want = [high] * big.size + [low] * big.size
        assert h_values(model, zs).tolist() == want
        assert [h_probability(model, z) for z in zs] == want
        # Scattered through a batch of three blocks, each still equals
        # its own call.
        batch = np.random.default_rng(67).uniform(-8.0, 12.0, 3 * _BLOCK)
        batch[::997] = np.resize(zs, batch[::997].size)
        got = h_values(model, batch)
        for i in range(0, batch.size, 997):
            assert got[i] == h_values(model, batch[i])
        monkeypatch.setattr(hcurve, "_WORKERS", 1)
        assert np.array_equal(got, h_values(model, batch))

    @pytest.mark.filterwarnings("error")
    def test_nondecreasing_into_saturation(self, readme_model):
        mixed = PriorModel.from_masses(*self.PRIORS["mixed"][0])
        zs = np.append(np.geomspace(1.0, 1e308, 4000), sys.float_info.max)
        for model in (mixed, readme_model, zero_mass_points(readme_model)):
            for sign, limit in ((1.0, 1.0), (-1.0, 0.0)):
                h = h_values(model, sign * zs)
                assert np.all(sign * np.diff(h) >= 0.0)
                assert h[-1] == limit


class TestLogsumexpReference:
    """The max-shifted kernel against the two-logsumexp formula."""

    ZS = np.linspace(-40.0, 60.0, 1001)

    def test_dense_priors_with_masses_over_30_decades(self):
        rng = np.random.default_rng(47)
        grid = np.linspace(-6.0, 10.0, 321)
        for _ in range(20):
            masses = 10.0 ** rng.uniform(-30.0, 0.0, grid.size)
            model = PriorModel.from_masses(grid, masses)
            assert_allclose(
                h_values(model, self.ZS), logsumexp_h(model, self.ZS),
                rtol=0.0, atol=1e-13,
            )

    @pytest.mark.parametrize("points", [2, 5, 8, 16, _NARROW, _NARROW + 1])
    def test_narrow_priors(self, points):
        for seed in range(5):
            model = narrow(points, seed)
            assert_allclose(
                h_values(model, self.ZS), logsumexp_h(model, self.ZS),
                rtol=0.0, atol=1e-13,
            )

    def test_prior_with_zero_mass_points(self, readme_model):
        masses = np.array(readme_model.masses)
        masses[::3] = 0.0
        masses[150:170] = 0.0
        model = PriorModel.from_masses(readme_model.theta_grid, masses)
        assert_allclose(
            h_values(model, self.ZS), logsumexp_h(model, self.ZS),
            rtol=0.0, atol=1e-13,
        )


class TestZForH:
    def test_symmetric_inversion(self):
        assert abs(z_for_h(two_point(), 0.5)) < 1e-6

    def test_frozen_oracle_inversion(self):
        z_star = z_for_h(two_point(), 0.9820137900379084)
        assert_allclose(z_star, 2.0, atol=1e-6)

    def test_h0_one_errors(self):
        with pytest.raises(HRangeError):
            z_for_h(two_point(), 1.0)
        with pytest.raises(HRangeError):
            z_for_h(two_point(), 0.0)

    def test_constant_curve_errors(self):
        all_pos = PriorModel.from_masses([1.0, 2.0], [0.5, 0.5])
        with pytest.raises(HRangeError):
            z_for_h(all_pos, 0.9)

    @pytest.mark.parametrize("tol", [0.0, -1e-8, np.nan, np.inf])
    def test_tol_must_be_finite_and_positive(self, tol, monkeypatch):
        # Refused before any h: tol 0 would bisect forever once the
        # midpoint rounds onto an end, and NaN would skip the bisection.
        monkeypatch.setattr(hcurve, "h_values", must_not_run)
        with pytest.raises(ValueError, match="tol must be finite and > 0"):
            z_for_h(two_point(), 0.9, tol=tol)

    @pytest.mark.parametrize("tol", [1e-20, 5e-324])
    def test_tol_below_the_float_spacing_ends_at_adjacent_floats(self, tol):
        # A positive tol narrower than the spacing of floats at the root
        # used to bisect forever: the bracket stops at adjacent floats.
        model = two_point()
        z_star = z_for_h(model, 0.9, tol=tol)
        assert h_probability(model, z_star) >= 0.9
        assert h_probability(model, np.nextafter(z_star, -np.inf)) < 0.9

    def test_round_trip_where_strictly_increasing(self):
        model = two_point(0.3, -2.0, 1.0)
        for z in (-1.0, 0.0, 0.7, 2.2, 3.5):
            h0 = h_probability(model, z)
            assert abs(z_for_h(model, h0) - z) < 1e-6


class TestHCurve:
    def test_curve_is_nondecreasing(self):
        model = two_point()
        curve = h_curve(model, np.linspace(-4, 4, 161))
        assert np.min(np.diff(curve.h_values)) >= -1e-9
        assert curve.model_id == model.model_id

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ValueError):
            h_curve(two_point(), np.array([0.0, -1.0, 1.0]))

    def test_constructor_invariants(self):
        z = np.linspace(-1, 1, 5)
        with pytest.raises(ValueError):
            HCurve(z_grid=z, h_values=np.array([0.5, 0.4, 0.6, 0.7, 0.8]))
        with pytest.raises(ValueError):
            HCurve(z_grid=z[::-1], h_values=np.linspace(0.1, 0.5, 5))

    def test_bands_clipped_to_bracket(self):
        model = two_point()
        z = np.linspace(-2, 2, 11)
        h = h_values(model, z)
        # Deliberately crossing bands: the tabulator must clip them.
        curve = h_curve(model, z, ci_low=h + 0.05, ci_high=h - 0.05)
        assert np.all(curve.ci_low <= curve.h_values + 1e-15)
        assert np.all(curve.ci_high >= curve.h_values - 1e-15)

    def test_csv_round_trip_full_precision(self, tmp_path):
        model = two_point(0.37, -1.3, 0.7)
        z = np.linspace(-3, 5, 33)
        curve = h_curve(model, z)
        path = tmp_path / "curve.csv"
        curve.to_csv(str(path))
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "z,h,ci_low,ci_high"
        parsed = np.array(
            [[float(v) for v in r.split(",")[:2]] for r in rows[1:]]
        )
        assert np.array_equal(parsed[:, 0], z)
        assert np.array_equal(parsed[:, 1], curve.h_values)

    def test_svg_deterministic_and_styled(self, tmp_path):
        model = two_point()
        z = np.linspace(-1, 4, 51)
        h = h_values(model, z)
        curve = h_curve(model, z, ci_low=h - 0.02, ci_high=h + 0.02)
        svg1 = render_svg(curve)
        svg2 = render_svg(curve)
        assert svg1 == svg2
        assert svg1.startswith("<svg")
        assert 'width="800"' in svg1 and 'height="500"' in svg1
        assert "stroke-dasharray" in svg1  # CI bands dashed
        path = tmp_path / "curve.svg"
        curve.to_svg(str(path))
        assert path.read_text() == svg1
