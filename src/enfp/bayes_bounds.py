"""Bayesian conditional ENFP estimators over positive trials.

Each positive trial contributes G = 1 - h(z) for its designated endpoint
(type A) or the sum of 1 - h(z_j) over endpoints (type B); omega-hat is
the total of contributions.  The same number serves as the
unconditional bound omega and as the conditional-ENFP estimate given the
observed Z values of the positive trials.

Every omega in the package is one correctly rounded sum (``math.fsum``)
of 1 - h over the endpoints that one read rule,
``enfp.trials._read_endpoints``, marks, so it does not depend on
summation order.  ``trial_contribution`` is omega-hat of one trial.

Contributions are computed from h-values frozen at classification time,
so ledger history never changes when the prior is refit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple

from enfp.hcurve import h_values
from enfp.trials import FailureRegionType, TrialRecord
from enfp.trials import _check_endpoint_mode, _read_endpoints


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
    """Per-trial contribution G to omega-hat: omega-hat of the one trial.

    Type A trials are bounded through a single endpoint: the designated
    first endpoint by default, or the maximum-z endpoint when
    ``endpoint_mode="tightest"``.  Type B trials sum 1 - h over all
    endpoints.  For m = 1 both reduce to 1 - h(z).

    Args:
        trial: a positive trial with frozen h values.
        endpoint_mode: "designated" (endpoint 1) or "tightest" (max z);
            only relevant for type A.

    Returns:
        G >= 0.
    """
    return omega_hat([trial], endpoint_mode)


def omega_hat(
    positives: Sequence[PositiveTrialResult],
    endpoint_mode: str = "designated",
) -> float:
    """Total Bayesian ENFP bound over positive trials (0 when empty).

    The value reads both as the unconditional bound omega and as the
    conditional expected number of false positives given the observed
    Z values of the positive set: one ``math.fsum`` of 1 - h over the
    endpoints ``enfp.trials._read_endpoints`` marks in each trial.
    """
    _check_endpoint_mode(endpoint_mode)
    return math.fsum(
        1.0 - t.h_values[j]
        for t in positives
        for j in _read_endpoints(
            t.z_values, t.failure_type is FailureRegionType.A, endpoint_mode
        )
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
