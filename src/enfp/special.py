"""Standard-normal density, distribution, and quantile functions.

Self-contained double-precision implementations used throughout the
package so that every probability in the pipeline comes from one audited
code path:

* ``norm_cdf`` / ``norm_sf`` are built on Cody's rational Chebyshev
  approximations for erf/erfc (W. J. Cody, Math. Comp. 23, 1969; the
  coefficient tables below are the classical CALERF set).  Absolute
  error is below 1e-15 over the real line, and ``norm_sf`` keeps good
  *relative* accuracy deep into the upper tail via the scaled-erfc
  branch.
* ``norm_ppf`` is Wichura's algorithm AS 241 (PPND16), a rational
  approximation accurate to about 1e-15 in the returned quantile.

All functions accept scalars or numpy arrays and are vectorized.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "log_norm_pdf",
    "norm_cdf",
    "norm_sf",
    "norm_ppf",
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
    """Log of the standard normal density."""
    x = np.asarray(x, dtype=float)
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


# AS 241 (Wichura 1988), PPND16 coefficient set.
_PPF_A = np.array(
    [
        3.3871328727963666080e00,
        1.3314166789178437745e02,
        1.9715909503065514427e03,
        1.3731693765509461125e04,
        4.5921953931549871457e04,
        6.7265770927008700853e04,
        3.3430575583588128105e04,
        2.5090809287301226727e03,
    ]
)
_PPF_B = np.array(
    [
        4.2313330701600911252e01,
        6.8718700749205790830e02,
        5.3941960214247511077e03,
        2.1213794301586595867e04,
        3.9307895800092710610e04,
        2.8729085735721942674e04,
        5.2264952788528545610e03,
    ]
)
_PPF_C = np.array(
    [
        1.42343711074968357734e00,
        4.63033784615654529590e00,
        5.76949722146069140550e00,
        3.64784832476320460504e00,
        1.27045825245236838258e00,
        2.41780725177450611770e-01,
        2.27238449892691845833e-02,
        7.74545014278341407640e-04,
    ]
)
_PPF_D = np.array(
    [
        2.05319162663775882187e00,
        1.67638483018380384940e00,
        6.89767334985100004550e-01,
        1.48103976427480074590e-01,
        1.51986665636164571966e-02,
        5.47593808499534494600e-04,
        1.05075007164441684324e-09,
    ]
)
_PPF_E = np.array(
    [
        6.65790464350110377720e00,
        5.46378491116411436990e00,
        1.78482653991729133580e00,
        2.96560571828504891230e-01,
        2.65321895265761230930e-02,
        1.24266094738807843860e-03,
        2.71155556874348757815e-05,
        2.01033439929228813265e-07,
    ]
)
_PPF_F = np.array(
    [
        5.99832206555887937690e-01,
        1.36929880922735805310e-01,
        1.48753612908506148525e-02,
        7.86869131145613259100e-04,
        1.84631831751005468180e-05,
        1.42151175831644588870e-07,
        2.04426310338993978564e-15,
    ]
)


def _ppf_poly(coef_num, coef_den, r):
    num = coef_num[7]
    for i in range(6, -1, -1):
        num = num * r + coef_num[i]
    den = coef_den[6]
    for i in range(5, -1, -1):
        den = den * r + coef_den[i]
    den = den * r + 1.0
    return num / den


def norm_ppf(p):
    """Standard normal quantile Phi^{-1}(p) for p in (0, 1).

    Raises:
        ValueError: if any p lies outside (0, 1).
    """
    p = np.asarray(p, dtype=float)
    scalar = p.ndim == 0
    p = np.atleast_1d(p)
    if np.any(~np.isfinite(p)) or np.any(p <= 0.0) or np.any(p >= 1.0):
        raise ValueError("norm_ppf requires 0 < p < 1")
    q = p - 0.5
    out = np.empty_like(p)

    central = np.abs(q) <= 0.425
    if np.any(central):
        r = 0.180625 - q[central] * q[central]
        out[central] = q[central] * _ppf_poly(_PPF_A, _PPF_B, r)
    tail = ~central
    if np.any(tail):
        qt = q[tail]
        r = np.where(qt < 0.0, p[tail], 1.0 - p[tail])
        r = np.sqrt(-np.log(r))
        near = r <= 5.0
        val = np.empty_like(r)
        if np.any(near):
            val[near] = _ppf_poly(_PPF_C, _PPF_D, r[near] - 1.6)
        if np.any(~near):
            val[~near] = _ppf_poly(_PPF_E, _PPF_F, r[~near] - 5.0)
        out[tail] = np.where(qt < 0.0, -val, val)
    return out[0] if scalar else out
