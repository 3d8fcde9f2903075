"""Bayesian conditional ENFP estimators over positive trials.

Each positive trial contributes G = 1 - h(z) for its designated endpoint
(type A) or the sum of 1 - h(z_j) over endpoints (type B); omega-hat is
the total of contributions.  The same number serves as the
unconditional bound omega and as the conditional-ENFP estimate given the
observed Z values of the positive trials.

Every omega in the package is one correctly rounded sum (``math.fsum``)
of 1 - h over the endpoint slots one read rule marks, so it does not
depend on summation order.  ``trial_contribution`` is the same rule for
one trial, kept scalar for the ledger, which spends a trial at a time.

Contributions are computed from h-values frozen at classification time,
so ledger history never changes when the prior is refit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from enfp.hcurve import h_values
from enfp.trials import FailureRegionType, TrialRecord


@dataclass(frozen=True)
class PositiveTrialResult:
    """Observed z and h values of a trial classified positive.

    Args:
        trial_id: trial identifier.
        m: number of endpoints (>= 1).
        failure_type: failure region type.
        z_values: observed z per endpoint (length m, endpoint order);
            NaN is refused, +-inf is kept.
        h_values: h-probability per endpoint, frozen at classification.
        stratum: optional stratum label.
    """

    trial_id: str
    m: int
    failure_type: FailureRegionType
    z_values: Tuple[float, ...]
    h_values: Tuple[float, ...]
    stratum: Optional[str] = None

    def __post_init__(self) -> None:
        zs = tuple(float(z) for z in self.z_values)
        hs = tuple(float(h) for h in self.h_values)
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if len(zs) != self.m or len(hs) != self.m:
            raise ValueError("z_values and h_values must have length m")
        if any(math.isnan(z) for z in zs):
            # NaN compares false, so the tightest endpoint would depend on
            # how the maximum is taken.
            raise ValueError("z_values must not be NaN")
        if any(not 0.0 <= h <= 1.0 for h in hs):
            raise ValueError("h_values must lie in [0, 1]")
        object.__setattr__(self, "z_values", zs)
        object.__setattr__(self, "h_values", hs)
        ft = self.failure_type
        if not isinstance(ft, FailureRegionType):
            object.__setattr__(
                self, "failure_type", FailureRegionType(ft)
            )


def positive_result(trial: TrialRecord, model) -> PositiveTrialResult:
    """Freeze a positive trial's (z, h) values against the given model.

    Raises:
        ValueError: if the trial is not classified positive.
    """
    if trial.outcome != "positive":
        raise ValueError(
            f"trial {trial.trial_id} is not classified positive"
        )
    zs = trial.z_values()
    return PositiveTrialResult(
        trial_id=trial.trial_id,
        m=trial.m,
        failure_type=trial.failure_type,
        z_values=zs,
        h_values=tuple(h_values(model, zs)),
        stratum=trial.stratum,
    )


def trial_contribution(
    trial: PositiveTrialResult, endpoint_mode: str = "designated"
) -> float:
    """Per-trial contribution G to omega-hat.

    Type A trials are bounded through a single endpoint: the designated
    first endpoint by default, or the maximum-z endpoint when
    ``endpoint_mode="tightest"`` (each endpoint individually bounds the
    null probability, so the largest z gives the smallest valid G).
    Type B trials sum 1 - h over all endpoints.  For m = 1 both reduce
    to 1 - h(z).

    Args:
        trial: a positive trial with frozen h values.
        endpoint_mode: "designated" (endpoint 1) or "tightest" (max z);
            only relevant for type A.

    Returns:
        G >= 0.
    """
    _check_endpoint_mode(endpoint_mode)
    if trial.failure_type is FailureRegionType.A:
        if endpoint_mode == "tightest":
            idx = max(
                range(trial.m), key=lambda j: trial.z_values[j]
            )
        else:
            idx = 0
        return 1.0 - trial.h_values[idx]
    return math.fsum(1.0 - h for h in trial.h_values)


def _check_endpoint_mode(endpoint_mode: str) -> None:
    if endpoint_mode not in ("designated", "tightest"):
        raise ValueError(f"unknown endpoint_mode: {endpoint_mode!r}")


def _omega_from_arrays(z, valid, type_a, endpoint_mode, h_read) -> float:
    """omega-hat over padded (n, m_max) arrays of positive trials: the
    fsum of 1 - h over the slots ``trial_contribution`` reads, where
    ``h_read(read)`` gives h at the slots of mask ``read``, row-major."""
    _check_endpoint_mode(endpoint_mode)
    read = valid & ~type_a[:, None]
    a_rows = np.flatnonzero(type_a)
    if endpoint_mode == "designated":
        read[a_rows, 0] = True
    else:
        z_a = np.where(valid[a_rows], z[a_rows], -np.inf)
        read[a_rows, np.argmax(z_a, axis=1)] = True
    # A memoryview hands fsum one float at a time, not a list of them all.
    return math.fsum(memoryview(1.0 - h_read(read)))


def omega_hat(
    positives: Sequence[PositiveTrialResult],
    endpoint_mode: str = "designated",
) -> float:
    """Total Bayesian ENFP bound over positive trials (0 when empty).

    The value reads both as the unconditional bound omega and as the
    conditional expected number of false positives given the observed
    Z values of the positive set.
    """
    m_max = max((t.m for t in positives), default=1)
    pad = (math.nan,) * m_max  # z is never NaN, so NaN marks padding
    shape = (len(positives), m_max)
    z = np.array([t.z_values + pad[t.m:] for t in positives]).reshape(shape)
    h = np.array([t.h_values + pad[t.m:] for t in positives]).reshape(shape)
    type_a = np.array(
        [t.failure_type is FailureRegionType.A for t in positives], dtype=bool
    )
    return _omega_from_arrays(
        z, ~np.isnan(z), type_a, endpoint_mode, lambda read: h[read]
    )


def omega_hat_stratified(
    positives_by_stratum: Mapping[str, Sequence[PositiveTrialResult]],
    endpoint_mode: str = "designated",
) -> Tuple[dict, float]:
    """Per-stratum omega-hat, from the frozen h values, and total.

    Returns:
        (per_stratum, total).
    """
    per_stratum = {
        label: omega_hat(results, endpoint_mode=endpoint_mode)
        for label, results in positives_by_stratum.items()
    }
    return per_stratum, math.fsum(per_stratum.values())
