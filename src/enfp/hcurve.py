"""Posterior h-probabilities: h(z) = Pr[theta > 0 | Z = z] under a prior.

The h-probability is the posterior probability of positive efficacy given
an observed standardized statistic, computed against a discrete prior on
a theta grid.  It is nondecreasing in z for any nonnegative prior masses
(monotone likelihood ratio of the normal kernel), which makes threshold
inversion well defined.

Each z is evaluated in one max-shifted pass over the grid points that
carry mass.  The log terms -(z - theta)^2 / 2 + log g(theta) share the
-z^2 / 2 that the shift cancels, so each is formed in affine form as
z * theta + (log g(theta) - theta^2 / 2), with the offset computed once
per call.  The terms are shifted by their row maximum before
exponentiation, so the largest term is exactly 1 and the total can
neither overflow nor underflow.  h is then the positive sum over the
total, which keeps the curve accurate far into both tails.  Beyond a z
where every term on the far side of zero is below e^-800 of the largest,
h has reached its limit at that end, and z is clamped there, so h is
finite and saturated at every finite z.

``h_values`` works in blocks shared across the CPUs the process may use,
one thread and one reused 512 KiB block buffer per CPU; the results do
not depend on the worker count.  A block of a narrow support is stored
one column per z, so that its max and sums run over many z at a time.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

# Grid points with theta <= ZERO_TOLERANCE count as null; strictly above
# counts as positive efficacy.  Shared with the deconvolution module so
# that rho (null mass) and the h numerator (positive mass) partition the
# prior exactly.
ZERO_TOLERANCE = 1e-12

# Working-set budget of h_values, in doubles: each pass evaluates
# max(1, _BLOCK // support size) rows of z, so its (rows x support)
# buffer stays near 2^16 doubles (512 KiB) and fits in a core's L2
# cache whatever the grid size.
_BLOCK = 1 << 16
# Widest support that h_values lays out one column per z.  On a 2-core
# x86-64 VM, a block of many z took 2 to 10 times less time that way on
# supports of 3 to 32 points, and a lone z up to 3 us more.
_NARROW = 32
# CPUs the process may run on: h_values starts at most one less thread.
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


class HRangeError(ValueError):
    """Raised when an h threshold lies outside the attainable range."""


@dataclass(frozen=True)
class HCurve:
    """Tabulated h-probability curve with optional bootstrap bands.

    Args:
        z_grid: ascending z values.
        h_values: h(z) at each grid point, in [0, 1], nondecreasing.
        ci_low: optional lower confidence band.
        ci_high: optional upper confidence band.
        model_id: provenance reference to the PriorModel that produced
            the curve.
    """

    z_grid: np.ndarray
    h_values: np.ndarray
    ci_low: Optional[np.ndarray] = None
    ci_high: Optional[np.ndarray] = None
    model_id: str = ""

    def __post_init__(self) -> None:
        z = np.asarray(self.z_grid, dtype=float)
        h = np.asarray(self.h_values, dtype=float)
        if z.ndim != 1 or h.shape != z.shape:
            raise ValueError("z_grid and h_values must be 1-d and congruent")
        if np.any(np.diff(z) <= 0):
            raise ValueError("z_grid must be strictly ascending")
        if np.any(h < -1e-12) or np.any(h > 1 + 1e-12):
            raise ValueError("h_values must lie in [0, 1]")
        if np.any(np.diff(h) < -1e-9):
            raise ValueError("h_values must be nondecreasing along z_grid")
        object.__setattr__(self, "z_grid", _frozen(z))
        object.__setattr__(self, "h_values", _frozen(h))
        for name in ("ci_low", "ci_high"):
            band = getattr(self, name)
            if band is not None:
                band = np.asarray(band, dtype=float)
                if band.shape != z.shape:
                    raise ValueError(f"{name} must match z_grid shape")
                object.__setattr__(self, name, _frozen(band))
        if self.ci_low is not None and np.any(self.ci_low > h + 1e-12):
            raise ValueError("ci_low must not exceed point estimates")
        if self.ci_high is not None and np.any(self.ci_high < h - 1e-12):
            raise ValueError("ci_high must not fall below point estimates")

    def csv_text(self) -> str:
        """The curve as CSV text (z, h, ci_low, ci_high), full precision."""
        lines = ["z,h,ci_low,ci_high"]
        for i, (z, h) in enumerate(zip(self.z_grid, self.h_values)):
            lo = repr(float(self.ci_low[i])) if self.ci_low is not None else ""
            hi = (
                repr(float(self.ci_high[i]))
                if self.ci_high is not None
                else ""
            )
            lines.append(f"{float(z)!r},{float(h)!r},{lo},{hi}")
        return "\n".join(lines) + "\n"

    def to_csv(self, path: str) -> None:
        """Write the curve as CSV (z, h, ci_low, ci_high) at full precision."""
        with open(path, "w") as fh:
            fh.write(self.csv_text())

    def to_svg(self, path: str) -> None:
        """Write a self-contained SVG line plot of the curve.

        Point estimate drawn solid; confidence bands, when present, drawn
        dashed.  Fixed 800x500 viewport with inline styles only.
        """
        with open(path, "w") as fh:
            fh.write(render_svg(self))


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.flags.writeable = False
    return out


def _support(model) -> Tuple[np.ndarray, np.ndarray, int]:
    """The grid points with positive mass, their log masses, and the
    number k of them that are null.

    ``theta_grid`` is ascending, so the null points (theta <=
    ZERO_TOLERANCE) are the first k of the support.  The prior has null
    mass iff k > 0 and positive mass iff k < support size.

    Raises:
        ValueError: if no grid point has positive mass.
    """
    theta = np.asarray(model.theta_grid, dtype=float)
    g = np.asarray(model.masses, dtype=float)
    keep = g > 0.0
    if not keep.any():
        raise ValueError("the model has no grid point with positive mass")
    theta = theta[keep]
    k = int(np.searchsorted(theta, ZERO_TOLERANCE, side="right"))
    return theta, np.log(g[keep]), k


def h_values(model, z) -> np.ndarray:
    """Vectorized h(z) = Pr[theta > 0 | Z = z] under the model's prior.

    Each value depends only on its own z, not on the rest of the batch,
    so ``h_values(model, zs)[i] == h_values(model, zs[i])`` exactly.
    The terms are formed in affine form, z * theta + offset, and h is
    finite at every finite z: where it has saturated, and at +-inf, it
    is the limit at that end of the support.

    Args:
        model: any object with ``theta_grid`` (ascending) and ``masses``
            arrays.
        z: scalar or array of z values.

    Returns:
        Array of h probabilities, same shape as ``z``.

    Raises:
        ValueError: if any z is NaN, or no grid point has positive mass.
    """
    z_arr = np.asarray(z, dtype=float)
    n_nan = int(np.count_nonzero(np.isnan(z_arr)))
    if n_nan:
        raise ValueError(f"h_values: {n_nan} of {z_arr.size} z values are NaN")
    theta, log_g, k = _support(model)
    offset = log_g - theta * theta * 0.5
    # The logs of two positive doubles differ by less than 1455, so past
    # theta[-1] + reach each null term is below e^-800 of the top grid
    # point's, and past theta[0] - reach each positive term below e^-800
    # of the bottom one's: the null (positive) sum rounds to 0 and h is
    # its limit.  So z is clamped there, which keeps z * theta finite.
    reach = 0.0
    if 0 < k < theta.size:
        reach = 2255.0 / (theta[k] - theta[k - 1])
    zf = np.maximum(z_arr.ravel(), theta[0] - reach)
    np.minimum(zf, theta[-1] + reach, out=zf)
    hf = np.empty(zf.shape)
    rows = max(1, _BLOCK // theta.size)
    blocks = -(-zf.size // rows)
    workers = max(1, min(_WORKERS, blocks))
    cuts = [min(rows * (blocks * i // workers), zf.size)
            for i in range(workers + 1)]
    threads, errors = [], []

    # A narrow support is laid out one column per z, so that the max and
    # the sums run down the rows of a block, many z at a time, where
    # numpy would reduce each short row on its own.  Down rows numpy
    # adds in order, a row at a time, when there are two or more
    # columns, so a lone z fills two.
    order, least = ("F", 2) if theta.size <= _NARROW else ("C", 1)

    def share(lo: int, hi: int) -> None:
        try:
            buf = np.empty((max(least, min(rows, hi - lo)), theta.size),
                           order=order)
            for start in range(lo, hi, rows):
                stop = min(start + rows, hi)
                lk = np.multiply(zf[start:stop, None], theta,
                                 out=buf[: max(least, stop - start)])
                lk += offset
                lk -= lk.max(axis=1, keepdims=True)
                np.exp(lk, out=lk)
                null = lk[:, :k].sum(axis=1)
                pos = lk[:, k:].sum(axis=1)
                hf[start:stop] = (pos / (null + pos))[: stop - start]
        except BaseException as exc:
            errors.append(exc)

    # One contiguous share of blocks per worker, the first on this thread.
    try:
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            thread = threading.Thread(target=share, args=(lo, hi))
            thread.start()
            threads.append(thread)
        share(cuts[0], cuts[1])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return hf.reshape(z_arr.shape)


def h_probability(model, z: float) -> float:
    """h(z) for a single z.

    The terms are max-shifted before exponentiation, and h is its limit
    where it has saturated, so the value is well defined and finite at
    every finite z, however far outside the grid support.

    Args:
        model: prior model (theta_grid + masses).
        z: the observed statistic.

    Returns:
        h in [0, 1].

    Raises:
        ValueError: if z is NaN.
    """
    return float(h_values(model, np.asarray([z], dtype=float))[0])


def h_curve(
    model,
    z_grid,
    ci_low=None,
    ci_high=None,
) -> HCurve:
    """Tabulate the h-probability curve on a z grid.

    Bootstrap bands, when supplied, are clipped outward so they always
    bracket the point estimate (percentile bands from refits can
    otherwise cross it by Monte Carlo noise).

    Raises:
        ValueError: if z_grid is not strictly ascending.
    """
    z = np.asarray(z_grid, dtype=float)
    if z.ndim != 1 or np.any(np.diff(z) <= 0):
        raise ValueError("z_grid must be 1-d and strictly ascending")
    h = h_values(model, z)
    if ci_low is not None:
        ci_low = np.minimum(np.asarray(ci_low, dtype=float), h)
    if ci_high is not None:
        ci_high = np.maximum(np.asarray(ci_high, dtype=float), h)
    return HCurve(
        z_grid=z,
        h_values=h,
        ci_low=ci_low,
        ci_high=ci_high,
        model_id=str(getattr(model, "model_id", "")),
    )


def z_for_h(model, h0: float, tol: float = 1e-8) -> float:
    """Invert the h curve: smallest z with h(z) >= h0, by bisection.

    Args:
        model: prior model.
        h0: target h-probability, strictly inside the attainable range.
        tol: bisection width |delta z| at termination; bisection also
            stops at two adjacent floats.

    Returns:
        z* such that h(z*) >= h0 and h(z* - tol) < h0.

    Raises:
        HRangeError: when h0 is not attainable for this prior (the
            message names the attainable interval).
        ValueError: when tol is not finite and > 0.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    support, _, k = _support(model)
    if not 0 < k < support.size:
        fixed = 1.0 if k < support.size else 0.0
        raise HRangeError(
            f"h is constant {fixed} for this prior; "
            f"attainable range is [{fixed}, {fixed}]"
        )
    if not 0.0 < h0 < 1.0:
        raise HRangeError(
            f"h0={h0} outside the attainable open interval (0, 1)"
        )

    def h(z):
        return h_values(model, np.asarray([z]))[0]

    def widen(edge, step, holds, never):
        """Step ``edge`` out, doubling ``step``, until ``holds(h(edge))``."""
        for _ in range(80):
            if holds(h(edge)):
                return edge
            edge += step
            step *= 2.0
        raise HRangeError(f"h0={h0} not attainable: curve never {never}")

    lo = float(support[0]) - 1.0
    hi = float(support[-1]) + 1.0
    lo = widen(lo, -max(hi - lo, 1.0), lambda v: v < h0, "drops below it")
    hi = widen(hi, max(hi - lo, 1.0), lambda v: v >= h0, "reaches it")

    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # adjacent floats: no narrower bracket exists
            break
        if h(mid) >= h0:
            hi = mid
        else:
            lo = mid
    return hi


def render_svg(curve: HCurve) -> str:
    """Render an HCurve to SVG markup (800x500, inline styles).

    Output is deterministic for identical curves: coordinates are
    formatted at fixed precision and no timestamps or ids are embedded.
    """
    width, height = 800, 500
    ml, mr, mt, mb = 70, 20, 20, 50
    pw, ph = width - ml - mr, height - mt - mb
    z = curve.z_grid
    z0, z1 = float(z[0]), float(z[-1])
    zspan = z1 - z0 if z1 > z0 else 1.0

    def sx(v):
        return ml + (v - z0) / zspan * pw

    def sy(v):
        return mt + (1.0 - v) * ph

    def polyline(xs, ys, style):
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        return f'<polyline fill="none" {style} points="{pts}"/>'

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    # Axes and ticks.
    axis = 'stroke="black" stroke-width="1"'
    parts.append(
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" {axis}/>'
    )
    parts.append(
        f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" '
        f"{axis}/>"
    )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = sy(frac)
        parts.append(
            f'<line x1="{ml - 5}" y1="{y:.2f}" x2="{ml}" y2="{y:.2f}" '
            f"{axis}/>"
        )
        parts.append(
            f'<text x="{ml - 10}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{frac:g}</text>'
        )
    n_xticks = 6
    for i in range(n_xticks + 1):
        zv = z0 + zspan * i / n_xticks
        x = sx(zv)
        parts.append(
            f'<line x1="{x:.2f}" y1="{mt + ph}" x2="{x:.2f}" '
            f'y2="{mt + ph + 5}" {axis}/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{mt + ph + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{zv:.2f}</text>'
        )
    parts.append(
        f'<text x="{ml + pw / 2:.0f}" y="{height - 12}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="14">'
        f"z</text>"
    )
    parts.append(
        f'<text x="18" y="{mt + ph / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14" '
        f'transform="rotate(-90 18 {mt + ph / 2:.0f})">h(z)</text>'
    )
    # Confidence bands dashed, point estimate solid.
    dashed = 'stroke="#555555" stroke-width="1.2" stroke-dasharray="6,4"'
    if curve.ci_low is not None:
        parts.append(polyline(z, curve.ci_low, dashed))
    if curve.ci_high is not None:
        parts.append(polyline(z, curve.ci_high, dashed))
    parts.append(
        polyline(z, curve.h_values, 'stroke="#1f3d99" stroke-width="2"')
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
