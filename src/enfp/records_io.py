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
One function, :func:`record_from_dict`, builds the records of both: the
CSV reader hands it each trial's rows in the nested JSON form.

A synthetic-corpus generator is included so the full estimation
pipeline can be exercised without access to a proprietary historical
trial registry.
"""

from __future__ import annotations

import csv
import functools
import json
import re
from dataclasses import replace
from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple

from enfp import _fields
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


# The trial-level columns, which every row of a trial repeats.
_TRIAL_COLUMNS = (
    "m", "failure_type", "stratum", "outcome", "nominal_alpha", "h_floor"
)


def records_from_csv(path: str) -> Tuple[TrialRecord, ...]:
    """Parse a flat CSV of trial records.

    Rows belonging to one trial may appear anywhere in the file but
    must agree on the trial-level columns; every parse error names the
    offending data row (the header is row 1).  Each trial's rows become
    the nested form that :func:`record_from_dict` reads.

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
        for row_no, row in enumerate(reader, start=2):
            if row.get(None):
                raise RecordParseError(
                    f"row {row_no}: more fields than header columns"
                )
            _ingest_csv_row(groups, row, row_no)
    if not groups:
        raise RecordParseError("row 1: file contains a header but no rows")
    return tuple(
        record_from_dict(
            _trial_dict(tid, group), f"row {group['row']}: trial {tid!r}"
        )
        for tid, group in groups.items()
    )


def _ingest_csv_row(groups: dict, row: dict, row_no: int) -> None:
    """Parse one row's cells into its trial's group: the trial-level
    cells, which must equal those of the trial's earlier rows, and one
    measure with its critical value."""
    trial_id = (row["trial_id"] or "").strip()
    if not trial_id:
        raise RecordParseError(f"row {row_no}: empty trial_id")
    alpha = _parse_float(row["nominal_alpha"], row_no, "nominal_alpha")
    h_floor = _parse_float(row["h_floor"], row_no, "h_floor")
    if alpha is not None and h_floor is not None:
        raise RecordParseError(
            f"row {row_no}: both nominal_alpha and h_floor populated; "
            "a policy is one mode or the other"
        )
    cells = (
        _parse_int(row["m"], row_no, "m"),
        (row["failure_type"] or "").strip().upper(),
        (row["stratum"] or "").strip() or None,
        (row["outcome"] or "").strip() or None,
        alpha,
        h_floor,
    )
    group = groups.get(trial_id)
    if group is None:
        group = groups[trial_id] = {"row": row_no, "cells": cells, "rows": []}
    elif cells != group["cells"]:
        for key, value, first in zip(_TRIAL_COLUMNS, cells, group["cells"]):
            if value != first:
                raise RecordParseError(
                    f"row {row_no}: column {key!r} disagrees with an "
                    f"earlier row of trial {trial_id!r} ({value!r} vs "
                    f"{first!r})"
                )

    z = _parse_float(row["z"], row_no, "z")
    p = _parse_float(row["p_value"], row_no, "p_value")
    censored = _parse_bool(row["censored"], row_no, "censored", False)
    direction = _parse_bool(row["direction"], row_no, "direction", True)
    if (z is None) == (p is None):
        raise RecordParseError(
            f"row {row_no}: exactly one of z and p_value must be populated"
        )
    index = _parse_int(row["endpoint_index"], row_no, "endpoint_index")
    if censored:
        if p is None:
            raise RecordParseError(
                f"row {row_no}: censored rows carry the censoring "
                "p-value threshold in the p_value column"
            )
        z = None
    elif z is None:
        try:
            z, p = p_to_z(p, direction), None
        except ValueError as exc:
            raise RecordParseError(f"row {row_no}: {exc}") from exc
    crit = _parse_float(row["critical_z"], row_no, "critical_z")
    # A tuple per row, not the nested dict: the file's rows are all held
    # until the last one is read.
    group["rows"].append((index, direction, z, p, crit))


def _trial_dict(trial_id: str, group: dict) -> dict:
    """The nested record form of one trial's parsed rows."""
    m, failure_type, stratum, outcome, alpha, h_floor = group["cells"]
    rows = sorted(group["rows"], key=lambda r: r[0])
    crits = [row[4] for row in rows]
    if h_floor is not None:
        # An h-threshold row leaves its critical_z cell empty.
        crits = [c for c in crits if c is not None]
    return {
        "trial_id": trial_id,
        "m": m,
        "failure_type": failure_type,
        "stratum": stratum,
        "outcome": outcome,
        "policy": {
            "mode": "alpha_level" if h_floor is None else "h_threshold",
            "per_endpoint_critical_z": crits,
            "nominal_alpha": alpha,
            "h_floor": h_floor,
        },
        "measures": [
            {
                "endpoint_index": index,
                "direction_favorable": direction,
                "z": z,
                "censor_p": censor_p,
            }
            for index, direction, z, censor_p, _ in rows
        ],
    }


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
    """Inverse of :func:`record_to_dict`, reading every field strictly;
    a censored measure given only its ``censor_p`` gets the band of
    :meth:`EfficacyMeasure.censored_at_p`.

    Raises:
        RecordParseError: naming ``where`` and the field.
    """
    try:
        data = _fields.document(data)
        measures = []
        for i, meas in enumerate(_fields.read(data, "measures", list)):
            at = f"measures[{i}]."
            meas = _fields.document(meas, at)
            index = _fields.read(meas, "endpoint_index", int, at)
            flag = _fields.read(meas, "direction_favorable", bool, at, True)
            z = _fields.read(meas, "z", _fields.NUMBER, at, None)
            band = _fields.numbers(meas, "censor_interval", at, None, False)
            censor_p = _fields.read(meas, "censor_p", float, at, None)
            if z is None and band is None and censor_p is not None:
                meas = EfficacyMeasure.censored_at_p(index, censor_p)
                if not flag:
                    meas = replace(meas, direction_favorable=False)
            else:
                band = None if band is None else tuple(band)
                meas = EfficacyMeasure(index, z, band, flag, censor_p)
            measures.append(meas)
        policy = _fields.read(data, "policy", dict)
        return TrialRecord(
            trial_id=_fields.read(data, "trial_id", str),
            m=_fields.read(data, "m", int),
            failure_type=FailureRegionType[
                _fields.read(data, "failure_type", str, choices=("A", "B"))
            ],
            measures=tuple(measures),
            policy=_policy(
                _fields.read(policy, "mode", str, "policy."),
                tuple(
                    _fields.numbers(
                        policy, "per_endpoint_critical_z", "policy.", ()
                    )
                ),
                _fields.read(policy, "nominal_alpha", float, "policy.", None),
                _fields.read(policy, "h_floor", float, "policy.", None),
            ),
            stratum=_fields.read(data, "stratum", str, default=None),
            outcome=_fields.read(data, "outcome", str, default=None),
        )
    except ValueError as exc:
        raise RecordParseError(f"{where}: {exc}") from exc


# One policy object per distinct policy: a file repeats a few, and a
# policy is immutable, so its records share it.
_policy = functools.lru_cache(maxsize=256)(RejectionPolicy)


# A JSON string, or an infinity as ``json`` writes it.  JSON has no
# infinity, so an infinite z or censoring bound is written as -1e999 or
# 1e999: valid JSON numbers, which overflow to an infinite double.
_STRING_OR_INFINITY = re.compile(r'"(?:[^"\\]|\\.)*"|(-?)Infinity')


def records_to_json(records: Iterable[TrialRecord], path: str) -> None:
    """Write trial records as nested JSON (lossless for any record)."""
    payload = {
        "format": RECORDS_FORMAT,
        "trials": [record_to_dict(t) for t in records],
    }
    text = _STRING_OR_INFINITY.sub(
        lambda match: match[0] if match[1] is None else match[1] + "1e999",
        json.dumps(payload, indent=2),
    )
    with open(path, "w") as fh:
        fh.write(text + "\n")


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
    try:
        payload = _fields.document(payload)
        tag = _fields.read(payload, "format", str, default=RECORDS_FORMAT)
        trials = _fields.read(payload, "trials", list)
    except ValueError as exc:
        raise RecordParseError(str(exc)) from exc
    if tag != RECORDS_FORMAT:
        raise RecordParseError(f"unrecognized records format {tag!r}")
    return tuple(
        record_from_dict(item, where=f"trial #{i + 1}")
        for i, item in enumerate(trials)
    )


def _format_io(path: str, fmt: Optional[str]):
    """The (reader, writer) of ``fmt``, else of ``path``'s extension."""
    fmt = fmt or ("json" if str(path).endswith(".json") else "csv")
    if fmt == "json":
        return records_from_json, records_to_json
    if fmt == "csv":
        return records_from_csv, records_to_csv
    raise ValueError(f"unknown records format {fmt!r}")


def load_records(path: str, fmt: Optional[str] = None) -> Tuple[TrialRecord, ...]:
    """Load records from CSV or JSON, dispatching on ``fmt`` or extension."""
    reader, _ = _format_io(path, fmt)
    return reader(path)


def save_records(
    records: Iterable[TrialRecord], path: str, fmt: Optional[str] = None
) -> None:
    """Write records as CSV or JSON, dispatching on ``fmt`` or extension."""
    _, writer = _format_io(path, fmt)
    writer(records, path)


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
    one immutable censored measure, so the censoring threshold takes a
    fixed number of quantiles whatever ``n_censored`` is, and each exact
    draw is classified by ``_rejects``, the rejection rule the oracle
    applies to its arrays.  The records equal those of classifying each
    trial with ``classify_rejection``.  Only this function uses numpy,
    and it imports it itself, so reading and writing records do not.

    Raises:
        ValueError: if ``n_exact`` or ``n_censored`` is negative, if both
            are 0, or if fewer than ``n_censored`` draws fall below the
            censoring threshold (try another seed or a smaller count).
    """
    for name, count in (("n_exact", n_exact), ("n_censored", n_censored)):
        if count < 0:
            raise ValueError(f"{name} must be at least 0, got {count}")
    if n_exact + n_censored == 0:
        raise ValueError("corpus must contain at least one row")
    if not 0.0 <= null_mass <= 1.0:
        raise ValueError("null_mass must lie in [0, 1]")
    import numpy as np

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
