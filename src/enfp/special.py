"""Standard-normal density and distribution functions.

Self-contained double-precision implementations used throughout the
package so that every probability in the pipeline comes from one audited
code path:

* ``norm_cdf`` / ``norm_sf`` are built on Cody's rational Chebyshev
  approximations for erf/erfc (W. J. Cody, Math. Comp. 23, 1969; the
  coefficient tables below are the classical CALERF set).  Absolute
  error is below 1e-15 over the real line, and ``norm_sf`` keeps good
  *relative* accuracy deep into the upper tail via the scaled-erfc
  branch.
* The normal quantile is not here: ``enfp.trials`` takes it one value
  at a time from ``statistics.NormalDist().inv_cdf``.

All functions accept scalars or numpy arrays and are vectorized.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "log_norm_pdf",
    "norm_cdf",
    "norm_sf",
    "norm_interval_prob",
    "erfc",
]

_SQRT2 = np.sqrt(2.0)
_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)

# Cody (1969) rational coefficients.  Region |x| <= 0.46875: erf(x).
_ERF_A = np.array(
    [
        3.16112374387056560e00,
        1.13864154151050156e02,
        3.77485237685302021e02,
        3.20937758913846947e03,
        1.85777706184603153e-01,
    ]
)
_ERF_B = np.array(
    [
        2.36012909523441209e01,
        2.44024637934444173e02,
        1.28261652607737228e03,
        2.84423683343917062e03,
    ]
)
# Region 0.46875 < x <= 4: erfc(x).
_ERF_C = np.array(
    [
        5.64188496988670089e-01,
        8.88314979438837594e00,
        6.61191906371416295e01,
        2.98635138197400131e02,
        8.81952221241769090e02,
        1.71204761263407058e03,
        2.05107837782607147e03,
        1.23033935479799725e03,
        2.15311535474403846e-08,
    ]
)
_ERF_D = np.array(
    [
        1.57449261107098347e01,
        1.17693950891312499e02,
        5.37181101862009858e02,
        1.62138957456669019e03,
        3.29079923573345963e03,
        4.36261909014324716e03,
        3.43936767414372164e03,
        1.23033935480374942e03,
    ]
)
# Region x > 4: erfc(x) via the asymptotic-style rational in 1/x^2.
_ERF_P = np.array(
    [
        3.05326634961232344e-01,
        3.60344899949804439e-01,
        1.25781726111229246e-01,
        1.60837851487422766e-02,
        6.58749161529837803e-04,
        1.63153871373020978e-02,
    ]
)
_ERF_Q = np.array(
    [
        2.56852019228982242e00,
        1.87295284992346047e00,
        5.27905102951428412e-01,
        6.05183413124413191e-02,
        2.33520497626869185e-03,
    ]
)


def _erf_small(x: np.ndarray) -> np.ndarray:
    # |x| <= 0.46875
    y = x * x
    num = _ERF_A[4] * y
    den = y
    for i in range(3):
        num = (num + _ERF_A[i]) * y
        den = (den + _ERF_B[i]) * y
    return x * (num + _ERF_A[3]) / (den + _ERF_B[3])


def _erfc_mid(x: np.ndarray) -> np.ndarray:
    # 0.46875 < x <= 4
    num = _ERF_C[8] * x
    den = x
    for i in range(7):
        num = (num + _ERF_C[i]) * x
        den = (den + _ERF_D[i]) * x
    result = (num + _ERF_C[7]) / (den + _ERF_D[7])
    # exp(-x^2) evaluated as exp(-xsq)*exp(-del) with xsq the rounded
    # square, preserving relative accuracy in the tail.
    xsq = np.floor(x * 16.0) / 16.0
    delta = (x - xsq) * (x + xsq)
    return np.exp(-xsq * xsq) * np.exp(-delta) * result


_ONE_OVER_SQRT_PI = 5.6418958354775628695e-01


def _erfc_large(x: np.ndarray) -> np.ndarray:
    # x > 4; erfc underflows to 0 past ~26.5 so clip to keep exp() finite
    x = np.minimum(x, 30.0)
    y = 1.0 / (x * x)
    num = _ERF_P[5] * y
    den = y
    for i in range(4):
        num = (num + _ERF_P[i]) * y
        den = (den + _ERF_Q[i]) * y
    result = y * (num + _ERF_P[4]) / (den + _ERF_Q[4])
    result = (_ONE_OVER_SQRT_PI - result) / x
    xsq = np.floor(x * 16.0) / 16.0
    delta = (x - xsq) * (x + xsq)
    return np.exp(-xsq * xsq) * np.exp(-delta) * result


def erfc(x):
    """Complementary error function, vectorized, double precision."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    ax = np.abs(x)
    out = np.empty_like(ax)

    small = ax <= 0.46875
    mid = (ax > 0.46875) & (ax <= 4.0)
    large = ax > 4.0

    if np.any(small):
        out[small] = 1.0 - _erf_small(x[small])
    if np.any(mid):
        out[mid] = _erfc_mid(ax[mid])
    if np.any(large):
        out[large] = _erfc_large(ax[large])
    neg = x < -0.46875
    out[neg] = 2.0 - out[neg]
    return out[0] if scalar else out


def log_norm_pdf(x):
    """Log of the standard normal density; -inf where x * x overflows."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        return -0.5 * x * x - _LOG_SQRT_2PI


def norm_cdf(x):
    """Standard normal distribution function Phi(x)."""
    x = np.asarray(x, dtype=float)
    return 0.5 * erfc(-x / _SQRT2)


def norm_sf(x):
    """Upper tail 1 - Phi(x), with good relative accuracy for large x."""
    x = np.asarray(x, dtype=float)
    return 0.5 * erfc(x / _SQRT2)


def norm_interval_prob(low, high):
    """Pr[low < X <= high] for standard normal X, evaluated stably.

    Uses the tail that avoids cancellation: when the interval sits in
    the upper tail the two survival functions are differenced, in the
    lower tail the two distribution functions, otherwise the interval
    straddles zero and direct differencing is safe.
    """
    low = np.asarray(low, dtype=float)
    high = np.asarray(high, dtype=float)
    upper = low >= 0.0
    out = np.where(upper, norm_sf(low) - norm_sf(high), norm_cdf(high) - norm_cdf(low))
    return np.maximum(out, 0.0)
