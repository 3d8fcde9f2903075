"""Accuracy tests for the normal special functions.

The reference oracle is a brute-force Maclaurin series for erf evaluated
in 120-digit arithmetic:

    erf(x) = (2/sqrt(pi)) * sum_{n>=0} (-1)^n x^(2n+1) / (n! (2n+1))

At 120 digits the alternating series is summed exactly for |x| <= 13
(the largest term is ~exp(x^2) ~ 1e73, far below the working precision),
so the oracle is independent of every rational-approximation code path
under test.
"""

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from enfp.special import (
    erfc,
    log_norm_pdf,
    norm_cdf,
    norm_interval_prob,
    norm_sf,
)
from enfp.trials import DomainError, _norm_quantile

mpmath.mp.dps = 120


def erf_series(x):
    """Maclaurin series for erf, summed to convergence at 120 digits."""
    x = mpmath.mpf(x)
    term = x
    total = mpmath.mpf(0)
    n = 0
    while True:
        contrib = term / (2 * n + 1)
        total += contrib
        if abs(contrib) < mpmath.mpf(10) ** (-110) * max(1, abs(total)):
            break
        n += 1
        term = term * (-(x * x)) / n
    return 2 / mpmath.sqrt(mpmath.pi) * total


def phi_series(x):
    return mpmath.mpf(1) / 2 * (1 + erf_series(mpmath.mpf(x) / mpmath.sqrt(2)))


GRID = np.concatenate(
    [
        np.linspace(-12.5, 12.5, 251),
        np.array([-8.3, -4.0, -2.0, -0.46875, -1e-8, 0.0, 1e-8, 0.46875, 1.96, 4.0, 6.5]),
    ]
)


def test_norm_cdf_absolute_error_below_1e12():
    exact = np.array([float(phi_series(x)) for x in GRID])
    got = norm_cdf(GRID)
    assert np.max(np.abs(got - exact)) < 1e-12


def test_norm_sf_matches_series_with_relative_accuracy_in_tail():
    for x in [0.5, 1.96, 3.0, 5.0, 8.0, 10.0, 12.0]:
        exact = float(mpmath.mpf(1) - phi_series(x))
        got = float(norm_sf(x))
        assert got == pytest.approx(exact, rel=1e-12)


def test_erf_erfc_consistency():
    x = np.linspace(-6, 6, 97)
    assert_allclose(erfc(-x), 2.0 - erfc(x), atol=1e-14)


def test_extreme_arguments_saturate_cleanly():
    assert norm_cdf(60.0) == 1.0
    assert norm_cdf(-60.0) == 0.0
    assert norm_sf(60.0) == 0.0
    assert norm_cdf(np.inf) == 1.0
    assert norm_cdf(-np.inf) == 0.0


def test_norm_pdf_values():
    # -x^2/2 - log(sqrt(2*pi)) at a hand-checked point
    assert log_norm_pdf(0.0) == pytest.approx(-0.9189385332046727, abs=1e-15)


def test_ppf_inverts_cdf():
    p = np.concatenate(
        [
            np.array([1e-300, 1e-16, 1e-12, 1e-8, 2.5e-2, 0.5]),
            np.linspace(0.001, 0.999, 201),
            np.array([1 - 1e-8, 1 - 1e-12]),
        ]
    )
    z = np.array([_norm_quantile(x) for x in p.tolist()])
    back = norm_cdf(z)
    # relative accuracy holds even for tiny p because the lower tail is
    # evaluated through erfc of a positive argument
    assert_allclose(back, p, rtol=5e-13)


def test_ppf_reference_values():
    # quantiles checked against 120-digit series inversion via mpmath
    cases = {
        0.975: 1.959963984540054,
        0.95: 1.6448536269514722,
        0.9875: 2.2414027276049473,
        0.5: 0.0,
    }
    for p, z in cases.items():
        assert _norm_quantile(p) == pytest.approx(z, abs=1e-13)
    with pytest.raises(DomainError):
        _norm_quantile(0.0)
    with pytest.raises(DomainError):
        _norm_quantile(1.0)


def test_interval_prob_stable_in_both_tails():
    # upper tail: differencing survival functions keeps relative accuracy
    exact = float(phi_series(9.0) - phi_series(8.0))
    assert norm_interval_prob(8.0, 9.0) == pytest.approx(exact, rel=1e-11)
    # symmetric interval
    exact_sym = float(phi_series(1.96) - phi_series(-1.96))
    assert norm_interval_prob(-1.96, 1.96) == pytest.approx(exact_sym, rel=1e-13)
    # lower tail mirrors the upper tail by symmetry
    assert norm_interval_prob(-9.0, -8.0) == pytest.approx(exact, rel=1e-11)
