"""Frequentist ENFP upper bounds: tau-hat estimators and trial capacity.

The population-level expected number of false positives over N trials is
bounded by tau = (1/N) (sum_i delta(rho, m_i, t_i)) (sum_i alpha_i),
the product-of-sums form; with all single-endpoint trials this reduces
to rho * sum(alpha_i).  All functions here are pure arithmetic.

Every tau in the package is computed here: both sums exact, rounded once
each (as ``math.fsum``), then sum_delta * sum_alpha / N.  So
``tau_hat_mixed``, the simulator's tau and the ledger's projected spend
agree bit for bit over the same designs, in any order.

The public functions take Python numbers and sequences and load no
numpy.  Only ``_tau_from_arrays``, the simulator's entry point, takes
per-trial arrays; it groups them with ``np.unique`` where
``tau_hat_mixed`` groups its specs with a ``Counter``, and both hand the
same (value, count) pairs to one exact core.
"""

from __future__ import annotations

import math
import operator
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence, Tuple, Union

from enfp.trials import FailureRegionType

# Relative slack used when flooring capacity ratios: guards against
# quotients like 0.99 / (0.09 * 0.025) landing one ulp below an integer.
_FLOOR_SLACK = 1e-12

# Exact sums are Python ints in units of 2**-1074, the smallest subnormal
# double, of which every finite double is a multiple.
_SUM_EXP = 1074
# The largest endpoint count m: m * rho must be a float.
_M_MAX = sys.float_info.max


def _exact(x: float) -> int:
    """x as an exact integer multiple of 2**-1074.

    Raises ValueError for NaN and OverflowError for an infinity.
    """
    n, d = x.as_integer_ratio()  # d = 2**k with k <= 1074
    return n << (_SUM_EXP + 1 - d.bit_length())


def _read(total: int) -> float:
    """Correctly rounded total * 2**-1074: math.fsum's value.

    A total of over 64 bits rounds as its top 64 bits do unless those
    end in a tie, and is normal: no division is needed.
    """
    cut = total.bit_length() - 64
    if cut > 0:
        top = total >> cut
        if top & 0x7FF != 0x400:
            return math.ldexp(top, cut - _SUM_EXP)
    return total / (1 << _SUM_EXP)


def _exact_sum(pairs) -> int:
    """Exact sum over (value, count) pairs, each value repeated count
    times."""
    return sum(c * _exact(v) for v, c in pairs)


@dataclass(frozen=True)
class TrialSpec:
    """Design summary of one trial: endpoint count, type, alpha level."""

    m: int
    t: FailureRegionType
    alpha: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", operator.index(self.m))
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if not isinstance(self.t, FailureRegionType):
            object.__setattr__(self, "t", FailureRegionType(self.t))
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(
                f"alpha must be finite and lie in (0, 1), got {self.alpha}"
            )


SpecLike = Union[TrialSpec, Tuple]


def _as_spec(item: SpecLike) -> TrialSpec:
    if isinstance(item, TrialSpec):
        return item
    m, t, alpha = item
    return TrialSpec(m=int(m), t=t, alpha=float(alpha))


@dataclass(frozen=True)
class FreqBoundInput:
    """Inputs for the mixed-population bound.

    Args:
        rho_hat: estimated probability that an efficacy measure is null.
        trials: per-trial (m, t, alpha) specs.
    """

    rho_hat: float
    trials: Tuple[TrialSpec, ...]

    def __post_init__(self) -> None:
        if not 0.0 <= self.rho_hat <= 1.0:
            raise ValueError("rho_hat must lie in [0, 1]")
        trials = tuple(_as_spec(t) for t in self.trials)
        object.__setattr__(self, "trials", trials)


def delta(rho: float, m: int, t: FailureRegionType) -> float:
    """Per-trial null-probability bound delta(rho, m, t).

    Type A (intersection null) is bounded by rho itself; type B (union
    null) by the union bound m * rho, which may exceed 1 -- it is a
    bound, not a probability.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    if not 1 <= m <= _M_MAX:
        raise ValueError("m must be >= 1 and at most the largest float")
    t = t if isinstance(t, FailureRegionType) else FailureRegionType(t)
    return rho if t is FailureRegionType.A else m * rho


def tau_hat_single(rho_hat: float, alphas: Sequence[float]) -> float:
    """All-m=1 bound: tau = rho_hat * sum(alphas), as ``tau_hat_mixed``
    over (1, B, alpha) designs.

    An empty alpha list is vacuous and yields 0.  Each alpha must lie in
    (0, 1).
    """
    return tau_hat_mixed(
        FreqBoundInput(
            rho_hat=rho_hat,
            trials=tuple((1, FailureRegionType.B, a) for a in alphas),
        )
    )


def _tau_from_sums(sum_delta: int, sum_alpha: int, n: int) -> float:
    """(sum delta)(sum alpha)/n from exact sums; 0 with no trials."""
    if not n:
        return 0.0
    try:
        return _read(sum_delta) * _read(sum_alpha) / n
    except OverflowError:
        raise ValueError("sum of deltas passes the largest float") from None


def _tau_from_counts(rho: float, designs, alphas, n: int) -> float:
    """tau-hat over n trials from (design, count) and (alpha, count)
    pairs, a design being 2 m plus 1 for type A: delta and alpha are
    taken once per distinct value, each weighted by its count."""
    types = (FailureRegionType.B, FailureRegionType.A)
    deltas = [(delta(rho, k // 2, types[k % 2]), c) for k, c in designs]
    return _tau_from_sums(_exact_sum(deltas), _exact_sum(alphas), n)


def _tau_from_arrays(rho: float, m, type_a, alpha) -> float:
    """``_tau_from_counts`` over per-trial arrays of m, type-A flags and
    alphas."""
    import numpy as np

    def counted(x):
        values, counts = np.unique(x, return_counts=True)
        return zip(values.tolist(), counts.tolist())

    designs = 2 * np.asarray(m, dtype=np.int64) + np.asarray(type_a, bool)
    return _tau_from_counts(rho, counted(designs), counted(alpha), len(m))


def tau_hat_mixed(bound_input: FreqBoundInput) -> float:
    """Mixed-population bound: (1/N) (sum delta_i) (sum alpha_i).

    Both sums are exact; ``tau_hat_single`` is this bound over (1, B)
    trials.  An empty trial list is vacuous and yields 0.
    """
    trials = bound_input.trials
    designs = Counter(2 * s.m + (s.t is FailureRegionType.A) for s in trials)
    alphas = Counter(s.alpha for s in trials)
    return _tau_from_counts(
        bound_input.rho_hat, designs.items(), alphas.items(), len(trials)
    )


def capacity(
    tau0: float,
    rho_hat: float,
    alpha_fixed: float,
    mode: str = "exact",
) -> int:
    """Largest N with rho_hat * N * alpha_fixed <= tau0.

    ``mode="exact"`` computes floor(tau0 / (rho_hat * alpha_fixed)) with
    a 1e-12 relative slack so quotients that are integers up to float
    rounding are not truncated one short.

    ``mode="rounded"`` follows the two-step arithmetic sometimes used in
    practice: first floor the total spendable error tau0 / rho_hat to an
    integer, then divide by alpha_fixed.  With tau0=1, rho=0.09,
    alpha=0.025 this gives floor(11.11)/0.025 = 440 rather than the
    exact 444.

    Args:
        tau0: total error budget (> 0).
        rho_hat: null probability estimate in (0, 1].
        alpha_fixed: the common per-trial alpha.
        mode: "exact" or "rounded".

    Returns:
        Integer trial capacity.
    """
    if tau0 <= 0.0:
        raise ValueError("tau0 must be > 0")
    if not 0.0 < rho_hat <= 1.0:
        raise ValueError("rho_hat must lie in (0, 1]")
    if not 0.0 < alpha_fixed < 1.0:
        raise ValueError("alpha_fixed must lie in (0, 1)")
    if mode == "exact":
        ratio = tau0 / (rho_hat * alpha_fixed)
        return int(math.floor(ratio * (1.0 + _FLOOR_SLACK)))
    if mode == "rounded":
        total_error = math.floor(
            (tau0 / rho_hat) * (1.0 + _FLOOR_SLACK)
        )
        return int(
            math.floor((total_error / alpha_fixed) * (1.0 + _FLOOR_SLACK))
        )
    raise ValueError(f"unknown capacity mode: {mode!r}")


def tau_hat_stratified(
    trials_by_stratum: Mapping[str, Sequence[SpecLike]],
    rho_by_stratum: Mapping[str, float],
) -> Tuple[dict, float]:
    """Per-stratum mixed bounds and their total.

    Each stratum is bounded independently with its own rho estimate;
    the total is the plain sum (strata partition the population).

    Args:
        trials_by_stratum: trial specs keyed by stratum label.
        rho_by_stratum: rho estimate per stratum label.

    Returns:
        (per_stratum, total): dict of per-stratum tau values and their
        sum.

    Raises:
        ValueError: if a stratum has no rho estimate.
    """
    per_stratum = {}
    for label, trials in trials_by_stratum.items():
        if label not in rho_by_stratum:
            raise ValueError(f"missing rho estimate for stratum {label!r}")
        per_stratum[label] = tau_hat_mixed(
            FreqBoundInput(
                rho_hat=rho_by_stratum[label],
                trials=tuple(_as_spec(t) for t in trials),
            )
        )
    return per_stratum, math.fsum(per_stratum.values())
