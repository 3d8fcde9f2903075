"""Serialization of trial records: flat CSV and nested JSON.

The CSV form writes one row per endpoint with the columns

    trial_id, endpoint_index, m, failure_type, z, p_value, direction,
    censored, critical_z, nominal_alpha, h_floor, stratum, outcome

where exactly one of {z, p_value} is populated per row.  Exact rows
carry z (or a two-sided p-value plus direction, converted on parse);
censored rows carry the censoring p-value threshold in the p_value
column with censored=true.  The JSON form nests measures inside trials
and can additionally represent arbitrary censoring intervals that have
no p-value provenance.

Both parsers round-trip losslessly: floats are emitted with shortest
round-trip repr, so parse(emit(records)) reconstructs equal objects.

A synthetic-corpus generator is included so the full estimation
pipeline can be exercised without access to a proprietary historical
trial registry.
"""

from __future__ import annotations

import csv
import json
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from enfp.trials import (
    EfficacyMeasure,
    FailureRegionType,
    RejectionPolicy,
    TrialRecord,
    _rejects,
    p_to_z,
)

if TYPE_CHECKING:
    from enfp.deconv import ObservationSet

RECORDS_FORMAT = "enfp-records/1"

CSV_COLUMNS = (
    "trial_id",
    "endpoint_index",
    "m",
    "failure_type",
    "z",
    "p_value",
    "direction",
    "censored",
    "critical_z",
    "nominal_alpha",
    "h_floor",
    "stratum",
    "outcome",
)


class RecordParseError(ValueError):
    """A record file could not be parsed; the message names the row."""


def _fmt(value: Optional[float]) -> str:
    return "" if value is None else repr(float(value))


def _fmt_bool(value: bool) -> str:
    return "true" if value else "false"


def _parse_float(text: str, row: int, column: str) -> Optional[float]:
    text = text.strip()
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        raise RecordParseError(
            f"row {row}: column {column!r} is not a number: {text!r}"
        ) from None


def _parse_int(text: str, row: int, column: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise RecordParseError(
            f"row {row}: column {column!r} is not an integer: {text!r}"
        ) from None


def _parse_bool(text: str, row: int, column: str, default: bool) -> bool:
    text = text.strip().lower()
    if text == "":
        return default
    if text in ("true", "1", "yes"):
        return True
    if text in ("false", "0", "no"):
        return False
    raise RecordParseError(
        f"row {row}: column {column!r} is not a boolean: {text!r}"
    )


# ----------------------------------------------------------------------
# CSV
# ----------------------------------------------------------------------


def _measure_row(trial: TrialRecord, meas: EfficacyMeasure) -> dict:
    if meas.censored:
        if meas.censor_p is None:
            raise ValueError(
                f"trial {trial.trial_id}: endpoint {meas.endpoint_index} "
                "has a censoring interval without a p-value threshold; "
                "the flat CSV cannot represent it -- use the JSON format"
            )
        z_text, p_text = "", _fmt(meas.censor_p)
    else:
        z_text, p_text = _fmt(meas.z), ""
    policy = trial.policy
    if policy.mode == "alpha_level":
        crit = policy.per_endpoint_critical_z[meas.endpoint_index - 1]
        crit_text = _fmt(crit)
        alpha_text = _fmt(policy.nominal_alpha)
        floor_text = ""
    else:
        crit_text = ""
        alpha_text = ""
        floor_text = _fmt(policy.h_floor)
    return {
        "trial_id": trial.trial_id,
        "endpoint_index": str(meas.endpoint_index),
        "m": str(trial.m),
        "failure_type": trial.failure_type.value,
        "z": z_text,
        "p_value": p_text,
        "direction": _fmt_bool(meas.direction_favorable),
        "censored": _fmt_bool(meas.censored),
        "critical_z": crit_text,
        "nominal_alpha": alpha_text,
        "h_floor": floor_text,
        "stratum": trial.stratum or "",
        "outcome": trial.outcome or "",
    }


def records_to_csv(records: Iterable[TrialRecord], path: str) -> None:
    """Write trial records as flat CSV (one row per endpoint).

    Raises:
        ValueError: if a censored measure carries no p-value threshold
            (only the JSON format can hold arbitrary intervals).
    """
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for trial in records:
            for meas in sorted(
                trial.measures, key=lambda m_: m_.endpoint_index
            ):
                writer.writerow(_measure_row(trial, meas))


def _require_same(group: dict, key: str, value, row: int) -> None:
    if key not in group:
        group[key] = value
    elif group[key] != value:
        raise RecordParseError(
            f"row {row}: column {key!r} disagrees with an earlier row of "
            f"trial {group['trial_id']!r} ({value!r} vs {group[key]!r})"
        )


def records_from_csv(path: str) -> Tuple[TrialRecord, ...]:
    """Parse a flat CSV of trial records.

    Rows belonging to one trial may appear anywhere in the file but
    must agree on the trial-level columns; every parse error names the
    offending data row (the header is row 1).

    Raises:
        RecordParseError: on any malformed or inconsistent content.
    """
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise RecordParseError("row 1: file is empty (no header row)")
        missing = [c for c in CSV_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise RecordParseError(
                f"row 1: header is missing columns {missing}"
            )
        groups: dict = {}
        order: List[str] = []
        for row_no, row in enumerate(reader, start=2):
            if row.get(None):
                raise RecordParseError(
                    f"row {row_no}: more fields than header columns"
                )
            _ingest_csv_row(groups, order, row, row_no)
    if not order:
        raise RecordParseError("row 1: file contains a header but no rows")
    return tuple(_assemble_trial(groups[tid]) for tid in order)


def _ingest_csv_row(groups, order, row, row_no: int) -> None:
    trial_id = (row["trial_id"] or "").strip()
    if not trial_id:
        raise RecordParseError(f"row {row_no}: empty trial_id")
    if trial_id not in groups:
        groups[trial_id] = {"trial_id": trial_id, "rows": []}
        order.append(trial_id)
    group = groups[trial_id]

    m = _parse_int(row["m"], row_no, "m")
    ft_text = (row["failure_type"] or "").strip().upper()
    try:
        ft = FailureRegionType(ft_text)
    except ValueError:
        raise RecordParseError(
            f"row {row_no}: unknown failure_type {row['failure_type']!r}"
        ) from None
    stratum = (row["stratum"] or "").strip() or None
    outcome = (row["outcome"] or "").strip() or None
    if outcome is not None and outcome not in ("positive", "negative"):
        raise RecordParseError(
            f"row {row_no}: unknown outcome {outcome!r}"
        )
    _require_same(group, "m", m, row_no)
    _require_same(group, "failure_type", ft, row_no)
    _require_same(group, "stratum", stratum, row_no)
    _require_same(group, "outcome", outcome, row_no)

    alpha = _parse_float(row["nominal_alpha"], row_no, "nominal_alpha")
    h_floor = _parse_float(row["h_floor"], row_no, "h_floor")
    crit = _parse_float(row["critical_z"], row_no, "critical_z")
    if alpha is not None and h_floor is not None:
        raise RecordParseError(
            f"row {row_no}: both nominal_alpha and h_floor populated; "
            "a policy is one mode or the other"
        )
    _require_same(group, "nominal_alpha", alpha, row_no)
    _require_same(group, "h_floor", h_floor, row_no)

    idx = _parse_int(row["endpoint_index"], row_no, "endpoint_index")
    z = _parse_float(row["z"], row_no, "z")
    p = _parse_float(row["p_value"], row_no, "p_value")
    censored = _parse_bool(row["censored"], row_no, "censored", False)
    direction = _parse_bool(row["direction"], row_no, "direction", True)
    if (z is None) == (p is None):
        raise RecordParseError(
            f"row {row_no}: exactly one of z and p_value must be populated"
        )
    try:
        if censored:
            if p is None:
                raise RecordParseError(
                    f"row {row_no}: censored rows carry the censoring "
                    "p-value threshold in the p_value column"
                )
            meas = EfficacyMeasure.censored_at_p(idx, p)
            if not direction:
                meas = EfficacyMeasure(
                    endpoint_index=idx,
                    censor_interval=meas.censor_interval,
                    direction_favorable=False,
                    censor_p=meas.censor_p,
                )
        elif z is not None:
            meas = EfficacyMeasure(
                endpoint_index=idx, z=z, direction_favorable=direction
            )
        else:
            meas = EfficacyMeasure(
                endpoint_index=idx,
                z=p_to_z(p, direction),
                direction_favorable=direction,
            )
    except RecordParseError:
        raise
    except ValueError as exc:
        raise RecordParseError(f"row {row_no}: {exc}") from exc
    group["rows"].append((row_no, meas, crit))


def _assemble_trial(group: dict) -> TrialRecord:
    rows = group["rows"]
    trial_id = group["trial_id"]
    first_row = rows[0][0]
    indices = sorted(r[1].endpoint_index for r in rows)
    if indices != list(range(1, group["m"] + 1)):
        raise RecordParseError(
            f"row {first_row}: trial {trial_id!r} needs endpoint_index "
            f"1..{group['m']} exactly once, got {indices}"
        )
    rows = sorted(rows, key=lambda r: r[1].endpoint_index)
    measures = tuple(r[1] for r in rows)
    try:
        if group["h_floor"] is not None:
            policy = RejectionPolicy.at_h_floor(group["h_floor"])
        else:
            if group["nominal_alpha"] is None:
                raise RecordParseError(
                    f"row {first_row}: trial {trial_id!r} has neither "
                    "nominal_alpha nor h_floor"
                )
            crits = []
            for row_no, meas, crit in rows:
                if crit is None:
                    raise RecordParseError(
                        f"row {row_no}: alpha-level rows need critical_z"
                    )
                crits.append(crit)
            policy = RejectionPolicy(
                mode="alpha_level",
                per_endpoint_critical_z=tuple(crits),
                nominal_alpha=group["nominal_alpha"],
            )
        return TrialRecord(
            trial_id=trial_id,
            m=group["m"],
            failure_type=group["failure_type"],
            measures=measures,
            policy=policy,
            stratum=group["stratum"],
            outcome=group["outcome"],
        )
    except RecordParseError:
        raise
    except ValueError as exc:
        raise RecordParseError(
            f"row {first_row}: trial {trial_id!r}: {exc}"
        ) from exc


# ----------------------------------------------------------------------
# JSON
# ----------------------------------------------------------------------


def record_to_dict(trial: TrialRecord) -> dict:
    """Nested JSON-ready form of one trial record."""
    policy = trial.policy
    return {
        "trial_id": trial.trial_id,
        "m": trial.m,
        "failure_type": trial.failure_type.value,
        "stratum": trial.stratum,
        "outcome": trial.outcome,
        "policy": {
            "mode": policy.mode,
            "per_endpoint_critical_z": list(policy.per_endpoint_critical_z),
            "nominal_alpha": policy.nominal_alpha,
            "h_floor": policy.h_floor,
        },
        "measures": [
            {
                "endpoint_index": meas.endpoint_index,
                "z": meas.z,
                "censor_interval": (
                    None
                    if meas.censor_interval is None
                    else list(meas.censor_interval)
                ),
                "direction_favorable": meas.direction_favorable,
                "censor_p": meas.censor_p,
            }
            for meas in sorted(
                trial.measures, key=lambda m_: m_.endpoint_index
            )
        ],
    }


def record_from_dict(data: dict, where: str = "trial") -> TrialRecord:
    """Inverse of :func:`record_to_dict`.

    Raises:
        RecordParseError: naming ``where`` on malformed content.
    """
    try:
        pol = data["policy"]
        policy = RejectionPolicy(
            mode=pol["mode"],
            per_endpoint_critical_z=tuple(
                pol.get("per_endpoint_critical_z") or ()
            ),
            nominal_alpha=pol.get("nominal_alpha"),
            h_floor=pol.get("h_floor"),
        )
        measures = tuple(
            EfficacyMeasure(
                endpoint_index=int(m_["endpoint_index"]),
                z=m_.get("z"),
                censor_interval=(
                    None
                    if m_.get("censor_interval") is None
                    else tuple(m_["censor_interval"])
                ),
                direction_favorable=bool(
                    m_.get("direction_favorable", True)
                ),
                censor_p=m_.get("censor_p"),
            )
            for m_ in data["measures"]
        )
        return TrialRecord(
            trial_id=str(data["trial_id"]),
            m=int(data["m"]),
            failure_type=FailureRegionType(data["failure_type"]),
            measures=measures,
            policy=policy,
            stratum=data.get("stratum"),
            outcome=data.get("outcome"),
        )
    except RecordParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise RecordParseError(f"{where}: {exc}") from exc


def records_to_json(records: Iterable[TrialRecord], path: str) -> None:
    """Write trial records as nested JSON (lossless for any record)."""
    payload = {
        "format": RECORDS_FORMAT,
        "trials": [record_to_dict(t) for t in records],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def records_from_json(path: str) -> Tuple[TrialRecord, ...]:
    """Parse nested-JSON trial records.

    Raises:
        RecordParseError: on malformed content; the message names the
            failing trial by position.
    """
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise RecordParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "trials" not in payload:
        raise RecordParseError("expected an object with a 'trials' list")
    tag = payload.get("format", RECORDS_FORMAT)
    if tag != RECORDS_FORMAT:
        raise RecordParseError(f"unrecognized records format {tag!r}")
    return tuple(
        record_from_dict(item, where=f"trial #{i + 1}")
        for i, item in enumerate(payload["trials"])
    )


def load_records(path: str, fmt: Optional[str] = None) -> Tuple[TrialRecord, ...]:
    """Load records from CSV or JSON, dispatching on ``fmt`` or extension."""
    fmt = fmt or ("json" if str(path).endswith(".json") else "csv")
    if fmt == "json":
        return records_from_json(path)
    if fmt == "csv":
        return records_from_csv(path)
    raise ValueError(f"unknown records format {fmt!r}")


def save_records(
    records: Iterable[TrialRecord], path: str, fmt: Optional[str] = None
) -> None:
    """Write records as CSV or JSON, dispatching on ``fmt`` or extension."""
    fmt = fmt or ("json" if str(path).endswith(".json") else "csv")
    if fmt == "json":
        records_to_json(records, path)
    elif fmt == "csv":
        records_to_csv(records, path)
    else:
        raise ValueError(f"unknown records format {fmt!r}")


# ----------------------------------------------------------------------
# Observation extraction and synthetic corpus
# ----------------------------------------------------------------------


def extract_observations(records: Iterable[TrialRecord]) -> ObservationSet:
    """Pool every endpoint of every record into an ObservationSet.

    Exact measures contribute their z; censored measures contribute
    their interval.  Endpoints are pooled across trials -- the prior
    is over per-endpoint effects.
    """
    from enfp.deconv import ObservationSet

    exact: List[float] = []
    censored: List[Tuple[float, float]] = []
    for trial in records:
        for meas in trial.measures:
            if meas.censored:
                censored.append(meas.censor_interval)
            else:
                exact.append(meas.z)
    return ObservationSet(exact_z=tuple(exact), censored=tuple(censored))


def synthesize_corpus(
    n_exact: int = 1221,
    n_censored: int = 172,
    seed: int = 0,
    censor_p: float = 0.05,
    alpha: float = 0.025,
    null_mass: float = 0.09,
    null_theta: float = -0.5,
    effect_mean: float = 3.0,
    effect_sd: float = 1.0,
) -> Tuple[TrialRecord, ...]:
    """Generate a synthetic single-endpoint historical corpus.

    Effects are drawn from the two-group prior
    null_mass * delta(null_theta) + (1 - null_mass) * N(effect_mean,
    effect_sd^2) and observed with unit noise.  To give the corpus a
    reproducible shape, exactly ``n_censored`` of the sub-threshold
    draws (|z| below the two-sided critical value of ``censor_p``) are
    reduced to the censoring interval; a real registry would censor
    every under-threshold trial it lost the exact p-value for, but the
    estimator accepts any mix.

    Exact trials carry a classified outcome at level ``alpha``;
    censored trials are left unclassified.

    Every record is built once, with its outcome: the censored rows share
    one immutable censored measure, whose threshold is computed once
    through the memoized quantile of ``p_to_z``, and each exact draw is
    classified by ``_rejects``, the rejection rule the oracle applies to
    its arrays.  The records equal those of classifying each trial with
    ``classify_rejection``.

    Raises:
        ValueError: if fewer than ``n_censored`` draws fall below the
            censoring threshold (try another seed or a smaller count).
    """
    if n_exact < 0 or n_censored < 0 or n_exact + n_censored == 0:
        raise ValueError("corpus must contain at least one row")
    if not 0.0 <= null_mass <= 1.0:
        raise ValueError("null_mass must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    n = n_exact + n_censored
    is_null = rng.random(n) < null_mass
    theta = np.where(
        is_null, null_theta, rng.normal(effect_mean, effect_sd, size=n)
    )
    z = theta + rng.standard_normal(n)
    z0 = p_to_z(censor_p, direction_favorable=True)
    below = np.flatnonzero(np.abs(z) < z0)
    if below.size < n_censored:
        raise ValueError(
            f"only {below.size} draws fall below the censoring threshold; "
            f"cannot censor {n_censored}"
        )
    censor_idx = set(
        rng.choice(below, size=n_censored, replace=False).tolist()
    )
    censored = None
    if n_censored:
        censored = EfficacyMeasure.censored_at_p(1, censor_p)
    policy = RejectionPolicy.at_alpha(alpha, 1, FailureRegionType.B)
    crit = policy.per_endpoint_critical_z[0]
    width = len(str(n))
    records = []
    # The rule runs per draw, on Python floats: on a bool array it would
    # page in numpy comparison code that nothing else here runs, which
    # showed as about 0.2 MB more peak RSS in every process that builds
    # a corpus.
    for i, z_i in enumerate(z.tolist()):
        if i in censor_idx:
            meas, outcome = censored, None
        else:
            meas = EfficacyMeasure(endpoint_index=1, z=z_i)
            positive = _rejects(z_i > crit, 1, False)
            outcome = "positive" if positive else "negative"
        records.append(
            TrialRecord(
                trial_id=f"synth-{i + 1:0{width}d}",
                m=1,
                failure_type=FailureRegionType.B,
                measures=(meas,),
                policy=policy,
                outcome=outcome,
            )
        )
    return tuple(records)
