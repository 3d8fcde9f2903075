"""Domain types for randomized trials and standardization of raw results.

A trial is described by its efficacy measures (one standardized Z statistic
per endpoint, or an interval when the exact value is censored), a failure
region type, and the rejection policy the investigators chose before
unblinding.  Everything downstream (prior estimation, h-probabilities,
error accounting) consumes these value objects.

All types are immutable after construction and safe to share across
threads.  Normal quantiles and p-values come from the standard library
(``statistics`` and ``math``), and numpy loads only for array arguments,
so the types, the frequentist rules and omega-hat's endpoint rule run
without numpy.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Tuple


class InvalidScaleError(ValueError):
    """Raised when a scale parameter (sigma) is not strictly positive."""


class DomainError(ValueError):
    """Raised when a probability argument falls outside its legal range."""


class CannotClassifyError(ValueError):
    """Raised when a trial cannot be classified (e.g. censored endpoints)."""


class FailureRegionType(enum.Enum):
    """Type of the null (failure) region in effect-size space.

    Type A is the intersection null (all endpoints null); type B is the
    union null (any endpoint null).  Single-endpoint trials are typed B
    by convention -- the two coincide at m = 1.
    """

    A = "A"
    B = "B"

    def __str__(self) -> str:
        return self.value


def _norm_quantile(p: float) -> float:
    """The standard normal quantile Phi^{-1}(p) of one probability, as a
    Python float: ``statistics.NormalDist().inv_cdf``, which is
    Wichura's AS 241 (Appl. Stat. 37, 1988).

    Raises:
        DomainError: if p is not in (0, 1); NaN included, for which
            ``inv_cdf`` itself would return NaN.
    """
    if not 0.0 < p < 1.0:
        raise DomainError(f"the normal quantile needs 0 < p < 1, got {p}")
    import statistics

    return statistics.NormalDist().inv_cdf(p)


def _upper_quantile(x: float) -> float:
    """Phi^{-1}(1 - x) for 0 < x < 1.  Where 1 - x rounds to 1, from
    x = 2**-54 down, it is taken as -Phi^{-1}(x) by symmetry, so a tiny
    x keeps its quantile; everywhere else it is the quantile of 1 - x."""
    q = 1.0 - x
    return _norm_quantile(q) if q < 1.0 else -_norm_quantile(x)


# The rules that tell the two types apart, each written once.  Each takes
# per-trial numbers and runs on scalars or elementwise on arrays.


def _critical_z(alpha, m, is_type_a):
    """Per-endpoint critical z of a trial-level one-sided alpha: the
    normal quantile at 1 - alpha / m for type A, at 1 - alpha for type B
    (see ``RejectionPolicy.at_alpha``).  The divisor, 1 or m, is
    written as arithmetic, as in ``_rejects``.  An array, such as the
    simulator's (design x alpha) table, runs the scalar quantile on
    each element."""
    x = alpha / (1 + is_type_a * (m - 1))
    if isinstance(x, float):
        return _upper_quantile(x)
    import numpy as np

    return np.vectorize(_upper_quantile, otypes=[float])(x)


def _rejects(n_exceed, m, is_type_a):
    """Whether a trial rejects, from how many of its m endpoints exceed
    their critical values: type A when any one does, type B only when
    all m do.  The count needed, 1 or m, is written as arithmetic so
    that the rule costs no array call on a single trial."""
    return n_exceed >= m - is_type_a * (m - 1)


def _in_failure_region(n_null, m, is_type_a):
    """Whether a trial's true effects lie in its failure region, from
    how many of its m endpoints are null: type A when all m are, type B
    when any one is."""
    return n_null >= 1 + is_type_a * (m - 1)


def _check_endpoint_mode(endpoint_mode: str) -> None:
    if endpoint_mode not in ("designated", "tightest"):
        raise ValueError(f"unknown endpoint_mode: {endpoint_mode!r}")


def _read_endpoints(z, is_type_a, endpoint_mode):
    """Which endpoints omega-hat reads of a positive trial with z values
    ``z``: all of a type B trial; of a type A trial, endpoint 1, or under
    endpoint mode "tightest" the first of largest z, since each endpoint
    alone bounds the null probability.  On one trial (``z`` a list or
    tuple without NaN, ``is_type_a`` a bool) the answer is their 0-based
    indices; on an (n, m_max) array of trials' z, NaN past each trial's
    m, with ``is_type_a`` an (n,) array, it is a mask false at NaN slots.
    """
    _check_endpoint_mode(endpoint_mode)
    tightest = endpoint_mode == "tightest"
    if isinstance(is_type_a, bool):
        if not is_type_a:
            return range(len(z))
        return (z.index(max(z)) if tightest else 0,)
    import numpy as np

    k = np.nanargmax(z, axis=1)[:, None] if tightest else 0
    read = ~is_type_a[:, None] | (np.arange(z.shape[1]) == k)
    return read & ~np.isnan(z)


@dataclass(frozen=True)
class EfficacyMeasure:
    """One endpoint's standardized result.

    Exactly one of ``z`` and ``censor_interval`` is present.  A censored
    measure records only that Z fell inside an interval, typically the
    two-sided non-significance band |Z| < z0 when all that is known is
    p >= p0.

    Args:
        endpoint_index: 1-based endpoint position within the trial.
        z: observed standardized statistic, if exact.
        censor_interval: (low, high) bounds in z-space, if censored.
        direction_favorable: whether the point estimate favored the
            intervention; used when converting two-sided p-values.
        censor_p: the two-sided p-value threshold that produced
            ``censor_interval``, when the censoring came from a p-value
            cutoff.  Kept so serialized records round-trip losslessly.
    """

    endpoint_index: int
    z: Optional[float] = None
    censor_interval: Optional[Tuple[float, float]] = None
    direction_favorable: bool = True
    censor_p: Optional[float] = None

    def __post_init__(self) -> None:
        if self.endpoint_index < 1:
            raise ValueError("endpoint_index must be >= 1")
        if (self.z is None) == (self.censor_interval is None):
            raise ValueError(
                "exactly one of z and censor_interval must be present"
            )
        if self.censor_interval is not None:
            low, high = self.censor_interval
            if not low < high:
                raise ValueError("censor_interval must satisfy low < high")
            object.__setattr__(self, "censor_interval", (float(low), float(high)))
        if self.z is not None:
            z = float(self.z)
            if math.isnan(z):
                raise ValueError("z must not be NaN")
            object.__setattr__(self, "z", z)

    @property
    def censored(self) -> bool:
        return self.censor_interval is not None

    @classmethod
    def from_p(
        cls, endpoint_index: int, p_two_sided: float, direction_favorable: bool
    ) -> "EfficacyMeasure":
        """Build an exact measure from a two-sided p-value."""
        z = p_to_z(p_two_sided, direction_favorable)
        return cls(
            endpoint_index=endpoint_index,
            z=z,
            direction_favorable=direction_favorable,
        )

    @classmethod
    def censored_at_p(
        cls, endpoint_index: int, p_threshold: float = 0.05
    ) -> "EfficacyMeasure":
        """Build a censored measure knowing only that p >= p_threshold.

        The resulting interval is the symmetric band |Z| < z0 with
        z0 = the two-sided critical value at p_threshold, as
        :func:`p_to_z` computes it.
        """
        if not 0.0 < p_threshold < 1.0:
            raise DomainError("p_threshold must lie in (0, 1)")
        z0 = p_to_z(p_threshold, direction_favorable=True)
        return cls(
            endpoint_index=endpoint_index,
            censor_interval=(-z0, z0),
            censor_p=float(p_threshold),
        )


@dataclass(frozen=True)
class RejectionPolicy:
    """How a trial decides "positive": alpha level or h-probability floor.

    In ``alpha_level`` mode the per-endpoint critical values must already
    be multiplicity-adjusted so that the trial-level type I error is
    ``nominal_alpha``; use :meth:`at_alpha` to get the standard
    adjustment.  In ``h_threshold`` mode the trial is judged by whether
    the posterior h-probability clears ``h_floor``, which requires a
    fitted prior model at classification time.
    """

    mode: str
    per_endpoint_critical_z: Tuple[float, ...] = ()
    nominal_alpha: Optional[float] = None
    h_floor: Optional[float] = None

    def __post_init__(self) -> None:
        if self.mode not in ("alpha_level", "h_threshold"):
            raise ValueError(f"unknown policy mode: {self.mode!r}")
        if self.mode == "alpha_level":
            if self.nominal_alpha is None:
                raise ValueError("alpha_level mode requires nominal_alpha")
            if not 0.0 < self.nominal_alpha < 1.0:
                raise DomainError("nominal_alpha must lie in (0, 1)")
            if not self.per_endpoint_critical_z:
                raise ValueError(
                    "alpha_level mode requires per_endpoint_critical_z"
                )
        else:
            if self.h_floor is None:
                raise ValueError("h_threshold mode requires h_floor")
            if not 0.0 < self.h_floor < 1.0:
                raise DomainError("h_floor must lie in (0, 1)")
            if self.per_endpoint_critical_z:
                raise ValueError(
                    "policy.per_endpoint_critical_z must be empty in "
                    "h_threshold mode"
                )
        crits = tuple(float(c) for c in self.per_endpoint_critical_z)
        for j, c in enumerate(crits, start=1):
            if math.isnan(c):
                # Every z compares false against NaN: the endpoint could
                # never reject, silently.
                raise ValueError(f"critical z of endpoint {j} is NaN")
        object.__setattr__(self, "per_endpoint_critical_z", crits)

    @classmethod
    def at_alpha(
        cls, alpha: float, m: int, failure_type: FailureRegionType
    ) -> "RejectionPolicy":
        """Standard multiplicity adjustment for a trial-level alpha.

        Type A (any-endpoint rejection) splits alpha across endpoints,
        Bonferroni style: each critical value is the one-sided normal
        quantile at alpha / m.  Type B (all-endpoint rejection, an
        intersection-union test) keeps level alpha per endpoint.

        Args:
            alpha: trial-level one-sided type I error rate.
            m: number of endpoints.
            failure_type: failure region type of the trial.

        Returns:
            An alpha_level RejectionPolicy with m critical values.
        """
        if not 0.0 < alpha < 1.0:
            raise DomainError("alpha must lie in (0, 1)")
        if m < 1:
            raise ValueError("m must be >= 1")
        is_type_a = failure_type is FailureRegionType.A
        if is_type_a and alpha / m == 0.0:
            raise DomainError(f"alpha / m underflows to 0 at alpha {alpha}")
        crit = _critical_z(alpha, m, is_type_a)
        return cls(
            mode="alpha_level",
            per_endpoint_critical_z=(crit,) * m,
            nominal_alpha=float(alpha),
        )

    @classmethod
    def at_h_floor(cls, h_floor: float) -> "RejectionPolicy":
        return cls(mode="h_threshold", h_floor=float(h_floor))


@dataclass(frozen=True)
class TrialRecord:
    """A single trial: endpoints, failure type, policy, optional outcome.

    Invariants enforced at construction: ``measures`` has length ``m``
    with endpoint indices 1..m and no gaps; single-endpoint trials are
    normalized to failure type B (the two types coincide at m = 1).
    """

    trial_id: str
    m: int
    failure_type: FailureRegionType
    measures: Tuple[EfficacyMeasure, ...]
    policy: RejectionPolicy
    stratum: Optional[str] = None
    outcome: Optional[str] = None

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("m must be >= 1")
        measures = tuple(self.measures)
        object.__setattr__(self, "measures", measures)
        if len(measures) != self.m:
            raise ValueError(
                f"expected {self.m} measures (endpoint_index 1..{self.m}), "
                f"got {len(measures)}"
            )
        indices = sorted(meas.endpoint_index for meas in measures)
        if indices != list(range(1, self.m + 1)):
            raise ValueError("endpoint_index values must be 1..m without gaps")
        if self.m == 1 and self.failure_type is FailureRegionType.A:
            object.__setattr__(self, "failure_type", FailureRegionType.B)
        if (
            self.policy.mode == "alpha_level"
            and len(self.policy.per_endpoint_critical_z) != self.m
        ):
            raise ValueError("policy critical values must match m")
        if self.outcome is not None and self.outcome not in (
            "positive",
            "negative",
        ):
            raise ValueError(f"unknown outcome: {self.outcome!r}")

    @property
    def fully_observed(self) -> bool:
        return all(not meas.censored for meas in self.measures)

    def z_values(self) -> Tuple[float, ...]:
        """Observed z per endpoint, in endpoint order.

        Raises:
            CannotClassifyError: if any endpoint is censored.
        """
        out = []
        for meas in sorted(self.measures, key=lambda m_: m_.endpoint_index):
            if meas.censored:
                raise CannotClassifyError(
                    f"trial {self.trial_id}: endpoint "
                    f"{meas.endpoint_index} is censored"
                )
            out.append(meas.z)
        return tuple(out)

    def with_outcome(self, outcome: str) -> "TrialRecord":
        return TrialRecord(
            trial_id=self.trial_id,
            m=self.m,
            failure_type=self.failure_type,
            measures=self.measures,
            policy=self.policy,
            stratum=self.stratum,
            outcome=outcome,
        )


def standardize(beta_hat: float, c: float, sigma: float) -> float:
    """Standardize an efficacy estimate: z = (beta_hat - c) / sigma.

    Args:
        beta_hat: estimated efficacy measure.
        c: null threshold for the measure.
        sigma: standard error of the estimate; must be > 0.

    Returns:
        The standardized statistic.

    Raises:
        InvalidScaleError: if sigma <= 0.
    """
    if sigma <= 0.0:
        raise InvalidScaleError(f"sigma must be > 0, got {sigma}")
    return (beta_hat - c) / sigma


def p_to_z(p_two_sided: float, direction_favorable: bool) -> float:
    """Convert a two-sided p-value to a signed Z statistic.

    z = sign * Phi^{-1}(1 - p/2), with sign +1 when the point estimate
    favored the intervention and -1 otherwise.

    Raises:
        DomainError: if p lies outside (0, 1], or is so small that p/2
            underflows to 0.
    """
    if not 0.0 < p_two_sided <= 1.0:
        raise DomainError(f"p must lie in (0, 1], got {p_two_sided}")
    half = p_two_sided / 2.0
    if half == 0.0:
        raise DomainError(f"p/2 underflows to 0 at p {p_two_sided}")
    magnitude = _upper_quantile(half)
    return magnitude if direction_favorable else -magnitude


def z_to_p(z: float) -> float:
    """Two-sided p-value of a Z statistic: 2(1 - Phi(|z|)), taken as
    erfc(|z| / sqrt(2)) so that it keeps its relative accuracy in the
    tail."""
    return math.erfc(abs(z) / math.sqrt(2.0))


def classify_rejection(trial: TrialRecord, model=None) -> str:
    """Classify a fully observed trial as positive or negative.

    An endpoint exceeds when its z is above its critical value or, for
    an h_threshold policy, when its h-probability under ``model`` reaches
    the policy floor.  Type A (intersection null) then rejects when ANY
    endpoint exceeds; type B (union null) only when EVERY endpoint does
    (an intersection-union test).

    Args:
        trial: the trial to classify; all endpoints must be observed.
        model: PriorModel, required only for h_threshold policies.

    Returns:
        "positive" or "negative".

    Raises:
        CannotClassifyError: if any endpoint is censored.
        ValueError: if an h_threshold policy is used without a model.
    """
    zs = trial.z_values()
    if trial.policy.mode == "h_threshold":
        if model is None:
            raise ValueError(
                "h_threshold policy requires a PriorModel to classify"
            )
        from enfp.hcurve import h_values

        h = h_values(model, zs)
        n_exceed = int((h >= trial.policy.h_floor).sum())
    else:
        criticals = trial.policy.per_endpoint_critical_z
        n_exceed = sum([z > c for z, c in zip(zs, criticals)])
    is_type_a = trial.failure_type is FailureRegionType.A
    return "positive" if _rejects(n_exceed, trial.m, is_type_a) else "negative"
