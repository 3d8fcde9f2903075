"""Persistent append-only error-spending ledger for ENFP budgets.

A frequentist ledger charges spend at proposal (design) time: each
proposal recomputes the portfolio bound as a product of sums and is
refused outright if it would push the bound past the budget.  A Bayesian
ledger charges at outcome time and refuses nothing — outcomes are
observations, not permissions — but raises a persistent over-budget flag
once the budget is exceeded.

Every accepted mutation appends exactly one JSON object per line to the
backing file and fsyncs it before the entry changes any state.  A write
or fsync that fails cuts the file back to its size before that line,
closes the ledger and raises the OSError: the file replays to the state
the ledger held before the failed append.  The first line is a header
pinning the format version, mode, budgets, and the estimated null rate
(frequentist) or prior-model hash (Bayesian); :meth:`Ledger.create` and
:meth:`Ledger.open` put it through the same checks.  Each entry holds
facts (a design, or an outcome with its frozen z and h values) and the
numbers derived from them and the running state: ``projected`` for a
proposal, ``spend_delta`` and ``spent_after`` for an outcome or
adjustment.  One step reads the facts strictly (``enfp._fields``) and
derives those numbers and the state update.  A live operation calls it
once and stores what it gives; reopening a ledger calls it for every
line, reads the stored numbers as strictly and marks the file corrupt
unless each equals the derived one.  So replay refuses, naming the line
and the field, any line the live path would not write.  Non-finite
numbers are refused: the file is strict JSON.

Reopening splits the file at newlines only, refuses a line that is not
UTF-8, and decodes a line that is exactly one JSON object in one call to
the scanner of ``json.loads`` (any other goes to ``json.loads``).  A
field already as its ``_fields`` reader returns it is taken as it
stands; any other goes through the reader, which alone refuses.

An entry that spends
is read through the endpoint rule of ``enfp.trials``, which
``enfp.bayes_bounds`` uses too.  ``enfp.hcurve`` (and numpy) load only
where a live operation freezes a trial's h values: replaying a file of
either mode, and ``status``, load none of ``hcurve``, ``bayes_bounds``
and numpy.

Running sums are exact.  Each stratum keeps its sums of deltas, alphas
and contributions as the exact integers of ``enfp.freq_bounds`` and
reads them as ``math.fsum`` of the same values would, bit for bit, so
files written when every operation re-summed its history replay
unchanged.  Projected spend is ``freq_bounds``' product of sums, equal
to ``tau_hat_mixed`` over the accepted designs bit for bit.  Each
operation, and each replayed entry, costs the same whatever the
history's length, so replay is linear in the number of entries.

Single-writer model: mutations must be serialized through one
:class:`Ledger` instance.  ``status`` is a pure read.  Multi-process
locking is out of scope.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import operator
import os
import time
from dataclasses import dataclass, field

from enfp import _fields
from enfp.freq_bounds import _M_MAX, _exact, _read, _tau_from_sums, delta
from enfp.trials import CannotClassifyError, FailureRegionType, TrialRecord
from enfp.trials import _read_endpoints

__all__ = [
    "LEDGER_FORMAT",
    "Ledger",
    "LedgerCorruptError",
    "LedgerError",
    "OutcomeRecord",
    "ProposeDecision",
    "ReplayStats",
    "StratumSpec",
]

LEDGER_FORMAT = "enfp-ledger/1"

_KINDS = ("proposal", "outcome", "adjustment")
# The scanner of json.loads: one C call decodes a line (Ledger._parse_line).
_SCAN = json.JSONDecoder().scan_once


class LedgerError(ValueError):
    """Invalid ledger operation or configuration."""


class LedgerCorruptError(LedgerError):
    """The backing file failed validation during replay."""


@dataclass(frozen=True)
class StratumSpec:
    """Configuration for one independently budgeted stratum."""

    budget: float
    rho_hat: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.budget) and self.budget > 0):
            raise LedgerError("budget must be positive and finite")
        if self.rho_hat is not None and not 0.0 <= self.rho_hat <= 1.0:
            raise LedgerError("rho_hat must lie in [0, 1]")


@dataclass(frozen=True)
class ProposeDecision:
    """Result of a frequentist proposal."""

    accepted: bool
    projected: float
    spent: float
    budget: float
    sequence: int | None = None

    @property
    def remaining(self) -> float:
        return self.budget - self.spent


@dataclass(frozen=True)
class OutcomeRecord:
    """Result of recording an outcome or adjustment."""

    sequence: int
    kind: str
    trial_id: str
    spend_delta: float
    spent: float
    budget: float

    @property
    def over_budget(self) -> bool:
        return self.spent > self.budget


@dataclass(frozen=True)
class ReplayStats:
    """What :meth:`Ledger.open` replayed and how long it took."""

    entries: int
    file_bytes: int
    seconds: float


@dataclass
class _StratumState:
    budget: float
    rho_hat: float | None
    # Exact sums (see freq_bounds._exact): deltas and alphas of the
    # accepted proposals, and the spending contributions.
    sum_delta: int = 0
    sum_alpha: int = 0
    sum_contribution: int = 0
    contributions: list = field(default_factory=list)
    n_accepted: int = 0
    n_outcomes: int = 0
    n_positive: int = 0
    n_adjustments: int = 0

    def projected(self, d: int = 0, alpha: int = 0, n: int = 0) -> float:
        """Frequentist spend (sum delta)(sum alpha)/n over the accepted
        designs plus ``n`` more, of exact sums ``d`` and ``alpha``; 0
        with none."""
        return _tau_from_sums(
            self.sum_delta + d, self.sum_alpha + alpha, self.n_accepted + n
        )

    def accept(self, d: int, alpha: int) -> None:
        self.sum_delta += d
        self.sum_alpha += alpha
        self.n_accepted += 1

    def bayes_spent(self, contribution: float = 0.0) -> float:
        """Bayesian spend over the recorded contributions plus this one."""
        return _read(self.sum_contribution + _exact(contribution))

    def spend(self, contribution: float) -> None:
        self.sum_contribution += _exact(contribution)
        self.contributions.append(contribution)

    def apply(self, kind: str, x, y) -> None:
        """Add an entry of ``kind``: a proposal's exact delta and alpha,
        or whether an outcome is positive and the contribution it spends
        (None for none)."""
        if kind == "proposal":
            return self.accept(x, y)
        if y is not None:
            self.spend(y)
        if kind == "adjustment":
            self.n_adjustments += 1
        else:
            self.n_outcomes += 1
            self.n_positive += x


def _facts(entry: dict, endpoint_mode: str | None) -> tuple:
    """``(kind, stratum, note, m, t, alpha, outcome, spend)`` of an entry,
    read strictly, where ``spend`` is the contribution of an entry that
    spends in a Bayesian ledger of ``endpoint_mode`` (None in a
    frequentist one), and None is a fact an entry lacks.  Raises
    LedgerError naming the field (``payload.alpha: ...``).  A field goes
    through ``_fields`` only where it is not what the reader returns."""
    read = _fields.read
    alpha = outcome = spend = None
    try:
        kind = entry.get("kind")
        if type(kind) is not str or kind not in _KINDS:
            kind = read(entry, "kind", str, choices=_KINDS)
        if type(entry.get("trial_id")) is not str or not entry["trial_id"]:
            read(entry, "trial_id", str)
        stratum, note = entry.get("stratum"), entry.get("note")
        if stratum is not None or note is not None:
            stratum = read(entry, "stratum", str, default=None)
            note = read(entry, "note", str, default=None)
        payload = entry.get("payload")
        if type(payload) is not dict:
            payload = read(entry, "payload", dict)
        m = payload.get("m")
        if type(m) is not int:
            m = read(payload, "m", int, "payload.")
        if not 1 <= m <= _M_MAX:  # m * rho must be a float
            raise _fields.error(
                "payload.m", m, "an integer from 1 to the largest float"
            )
        t = payload.get("t")
        if type(t) is not str or t not in ("A", "B"):
            t = read(payload, "t", str, "payload.", choices=("A", "B"))
        if kind == "proposal":
            alpha = payload.get("alpha")
            if type(alpha) is not float or not 0.0 < alpha < 1.0:
                alpha = read(payload, "alpha", float, "payload.")
                if not 0.0 < alpha < 1.0:
                    raise _fields.error(
                        "payload.alpha", alpha, "a number in (0, 1)"
                    )
        else:
            outcome = read(
                payload, "outcome", str, "payload.",
                None if kind == "adjustment" else _fields.REQUIRED,
                ("positive", "negative"),
            )
            spends = endpoint_mode is not None and (
                kind == "adjustment" or outcome == "positive"
            )
            z = _fields.numbers(
                payload, "z", "payload.", _fields.REQUIRED if spends else None
            )
            h = _fields.numbers(payload, "h", "payload.") if spends else None
            for key, values in (("z", z), ("h", h)):
                if values is not None and len(values) != m:
                    raise _fields.error(
                        f"payload.{key}", values, f"a list of {m} numbers"
                    )
            if spends:
                for j, value in enumerate(h):
                    if not 0.0 <= value <= 1.0:
                        raise _fields.error(
                            f"payload.h[{j}]", value, "a number in [0, 1]"
                        )
                endpoints = _read_endpoints(z, t == "A", endpoint_mode)
                spend = math.fsum([1.0 - h[j] for j in endpoints])
    except ValueError as exc:
        raise LedgerError(str(exc)) from exc
    return kind, stratum, note, m, t, alpha, outcome, spend


@functools.lru_cache(maxsize=1024)
def _exact_design(rho: float, m: int, t: str, alpha: float) -> tuple:
    """A design's delta and alpha as exact integers, which projecting
    and accepting it add.  Designs repeat, so each converts once."""
    return _exact(delta(rho, m, FailureRegionType(t))), _exact(alpha)


def _stratum_fields(spec) -> dict:
    """A stratum's header object: its budget, and its null rate if set."""
    if not isinstance(spec, StratumSpec):
        spec = StratumSpec(**spec)
    fields = {"budget": spec.budget}
    if spec.rho_hat is not None:
        fields["rho_hat"] = spec.rho_hat
    return fields


class Ledger:
    """Append-only error-spending ledger bound to a JSON-lines file.

    Construct with :meth:`create` (new file) or :meth:`open` (replay an
    existing file); the bare constructor is internal.
    """

    def __init__(self, path, header: dict):
        """Bind ``header``, read strictly, refusing with LedgerError any
        header that :meth:`create` would not write."""
        try:
            _fields.read(header, "format", str, choices=(LEDGER_FORMAT,))
            mode = _fields.read(
                header, "mode", str, choices=("frequentist", "bayes")
            )
            endpoint_mode = _fields.read(
                header, "endpoint_mode", str, "", "designated",
                ("designated", "tightest"),
            )
            model_id = _fields.read(header, "model_id", str, default=None)
            strata = _fields.read(header, "strata", dict, default=None)
            if mode == "bayes" and model_id is None:
                raise LedgerError("bayes mode requires the prior model")
            if strata is None:
                if "budget" not in header:
                    raise LedgerError("a ledger needs a budget or strata")
                specs = {None: header}
            elif "budget" in header or "rho_hat" in header or not strata:
                raise LedgerError(
                    "give either a top-level budget or non-empty strata"
                )
            else:
                specs = strata
            self._strata = {
                name: self._stratum(mode, name, spec)
                for name, spec in specs.items()
            }
        except ValueError as exc:
            raise LedgerError(str(exc)) from exc
        self._path = os.fspath(path)
        self._header = header
        self._mode = mode
        self._endpoint_mode = endpoint_mode
        self._model_id = model_id
        self._stratified = strata is not None
        self._entries: list = []
        self._replay_stats = None
        self._fh = None

    @staticmethod
    def _stratum(mode: str, name, spec) -> _StratumState:
        """The state of one stratum from its header object."""
        where = "" if name is None else f"strata.{name}."
        spec = _fields.document(spec, where)
        checked = StratumSpec(
            budget=_fields.read(spec, "budget", float, where),
            rho_hat=_fields.read(spec, "rho_hat", float, where, None),
        )
        if mode == "frequentist" and not checked.rho_hat:
            # With rho_hat = 0 every delta is 0: tau stays 0 whatever is
            # spent, and the remaining capacity divides by zero.
            raise LedgerError(
                f"{where}rho_hat: frequentist mode requires rho_hat > 0"
            )
        return _StratumState(budget=checked.budget, rho_hat=checked.rho_hat)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        path,
        mode: str,
        budget: float | None = None,
        rho_hat: float | None = None,
        model=None,
        strata: dict | None = None,
        endpoint_mode: str = "designated",
    ) -> "Ledger":
        """Create a new ledger file and write its header line.

        Exactly one of ``budget`` (with ``rho_hat`` in frequentist mode)
        or ``strata`` (a mapping of name -> StratumSpec, each with an
        independent budget) must be given.  Bayesian ledgers pin the
        prior model's hash in the header and refuse outcomes recorded
        against any other model.
        """
        header = {
            "format": LEDGER_FORMAT,
            "mode": mode,
            "endpoint_mode": endpoint_mode,
            "created": time.time(),
        }
        if budget is not None:
            header["budget"] = float(budget)
        # The header keeps what its mode reads: the null rate of a
        # frequentist ledger, the model hash of a Bayesian one.
        if rho_hat is not None and mode == "frequentist":
            header["rho_hat"] = float(rho_hat)
        if model is not None and mode == "bayes":
            header["model_id"] = model.model_id
        if strata is not None:
            header["strata"] = {
                str(name): _stratum_fields(spec)
                for name, spec in strata.items()
            }
        ledger = cls(path, header)
        line = cls._encode_line(header)
        if os.path.exists(path):
            raise LedgerError(
                f"refusing to overwrite existing ledger file {path!s}"
            )
        ledger._fh = open(path, "a", encoding="utf-8")
        try:
            ledger._write_line(line)
            # Its name is durable once the directory is synced too (on
            # POSIX; Windows opens no directory).
            if os.name == "posix":
                folder = os.path.dirname(os.path.abspath(path))
                fd = os.open(folder, os.O_RDONLY)
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)
        except OSError:
            # The file holds no durable header, so nothing could open it:
            # remove it, so that a rerun can create the ledger.
            ledger.close()
            with contextlib.suppress(OSError):
                os.remove(path)
            raise
        return ledger

    @classmethod
    def open(cls, path) -> "Ledger":
        """Replay an existing ledger file, validating every entry.

        The header passes the checks that :meth:`create` applies, and
        every number an entry stores must equal the one that live
        operations derive.  A file whose last line has no newline is
        refused before anything is appended (see :meth:`_read_lines`).
        :attr:`replay_stats` reports the replay.
        """
        started = time.perf_counter()
        try:
            with open(path, "rb") as fh:
                file_bytes = os.fstat(fh.fileno()).st_size
                lines = cls._read_lines(fh)
        except OSError as exc:
            raise LedgerError(f"cannot read ledger file: {exc}") from exc
        if not lines:
            raise LedgerCorruptError("empty ledger file (missing header)")
        header = cls._parse_line(lines[0], 1)
        try:
            ledger = cls(path, header)
        except LedgerError as exc:
            raise LedgerCorruptError(f"line 1: invalid header ({exc})") from exc
        for lineno, raw in enumerate(lines[1:], start=2):
            ledger._replay(cls._parse_line(raw, lineno), lineno)
        ledger._fh = open(path, "a", encoding="utf-8")
        ledger._replay_stats = ReplayStats(
            entries=len(ledger._entries),
            file_bytes=file_bytes,
            seconds=time.perf_counter() - started,
        )
        return ledger

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def propose(
        self, trial_id, m: int, t, alpha: float, stratum: str | None = None
    ) -> ProposeDecision:
        """Propose a trial design (frequentist mode only).

        Recomputes the projected portfolio bound over all previously
        accepted trials plus this one; accepts iff projected <= budget.
        Rejection appends nothing and mutates nothing.
        """
        self._require_open()
        try:  # as TrialSpec takes it; the entry reader refuses a bool
            m = m if isinstance(m, bool) else operator.index(m)
        except TypeError:
            raise LedgerError(f"m: expected an integer, got {m!r}") from None
        entry = {
            "kind": "proposal",
            "trial_id": trial_id,
            "stratum": stratum,
            "payload": {
                "m": m, "t": getattr(t, "value", t), "alpha": float(alpha)
            },
            "note": None,
        }
        state, numbers, change = self._derive(entry)
        projected = numbers[0][1]
        if projected > state.budget:
            return ProposeDecision(
                accepted=False,
                projected=projected,
                spent=state.projected(),
                budget=state.budget,
            )
        return ProposeDecision(
            accepted=True,
            projected=projected,
            spent=projected,
            budget=state.budget,
            sequence=self._commit(entry, state, numbers, change),
        )

    def record_outcome(self, trial: TrialRecord, model=None) -> OutcomeRecord:
        """Record a classified trial outcome.

        Bayesian mode: a positive outcome freezes the trial's h values
        against the pinned model and adds its contribution to the spend;
        a negative outcome is logged with zero spend.  Over-budget
        outcomes are still recorded — the over-budget flag is raised for
        all subsequent status calls, but facts are never refused.

        Frequentist mode: outcomes are logged for audit only and carry
        no spend (frequentist spend lives at proposal time).
        """
        return self.record_outcomes([trial], model)[0]

    def record_outcomes(self, trials, model=None) -> list:
        """Record each of ``trials`` as ``record_outcome`` does, or none
        of them: every entry is built and checked before the first is
        appended, so a refused trial leaves the file unchanged."""
        return self._record("outcome", trials, model, None)

    def record_adjustment(
        self, trial: TrialRecord, model, note: str
    ) -> OutcomeRecord:
        """Record a post-hoc adjustment (Bayesian mode only).

        Identical spend mechanics to a positive outcome, but flagged as
        an adjustment and requiring an explanatory note.  The adjustment
        fraction reported by ``status`` should stay small.
        """
        return self.record_adjustments([trial], model, note)[0]

    def record_adjustments(self, trials, model, note: str) -> list:
        """Record each of ``trials`` as ``record_adjustment`` does, or
        none of them, as ``record_outcomes`` does."""
        return self._record("adjustment", trials, model, note)

    def status(self) -> dict:
        """Pure read of budgets, spend, and flags (plus per-stratum view)."""
        views = {
            name: self._stratum_view(state)
            for name, state in self._strata.items()
        }
        n_entries = len(self._entries)
        n_adjustments = sum(s.n_adjustments for s in self._strata.values())
        out = {
            "mode": self._mode,
            "n_entries": n_entries,
            "adjustment_count": n_adjustments,
            "adjustment_fraction": (
                n_adjustments / n_entries if n_entries else 0.0
            ),
        }
        if self._stratified:
            out["budget"] = math.fsum(v["budget"] for v in views.values())
            out["spent"] = math.fsum(v["spent"] for v in views.values())
            out["remaining"] = math.fsum(
                v["remaining"] for v in views.values()
            )
            out["n_trials"] = sum(v["n_trials"] for v in views.values())
            out["over_budget"] = any(
                v["over_budget"] for v in views.values()
            )
            out["strata"] = views
        else:
            out.update(views[None])
            out["strata"] = None
        return out

    def entries(self) -> tuple:
        """All applied entries, in sequence order."""
        return tuple(self._entries)

    def running_sums(self, stratum: str | None = None):
        """Reconstructable running sums, for replay verification.

        For a stratified ledger with ``stratum=None`` returns a mapping
        of per-stratum sums; otherwise the sums for the one stratum.
        """
        if self._stratified and stratum is None:
            return {
                name: self._sums_view(state)
                for name, state in self._strata.items()
            }
        return self._sums_view(self._resolve_stratum(stratum))

    @property
    def path(self) -> str:
        return self._path

    @property
    def mode(self) -> str:
        return self._mode

    @property
    def header(self) -> dict:
        return dict(self._header)

    @property
    def replay_stats(self) -> ReplayStats | None:
        """Entry count, file size and time of the replay that opened this
        ledger; None for a ledger made by :meth:`create`."""
        return self._replay_stats

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "Ledger":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _sums_view(self, state: _StratumState) -> dict:
        if self._mode == "frequentist":
            return {
                "n": state.n_accepted,
                "sum_delta": _read(state.sum_delta),
                "sum_alpha": _read(state.sum_alpha),
                "spent": state.projected(),
            }
        return {
            "n_outcomes": state.n_outcomes,
            "n_positive": state.n_positive,
            "n_adjustments": state.n_adjustments,
            "contributions": tuple(state.contributions),
            "spent": state.bayes_spent(),
        }

    def _stratum_view(self, state: _StratumState) -> dict:
        if self._mode == "frequentist":
            spent = state.projected()
            n_trials = state.n_accepted
        else:
            spent = state.bayes_spent()
            n_trials = state.n_outcomes + state.n_adjustments
        view = {
            "budget": state.budget,
            "spent": spent,
            "remaining": state.budget - spent,
            "n_trials": n_trials,
            "adjustment_count": state.n_adjustments,
            "over_budget": spent > state.budget,
        }
        if self._mode == "bayes":
            view["n_positive"] = state.n_positive
        if self._mode == "frequentist":
            # Equivalent remaining total error: the additional sum of
            # alpha the current trial mix could absorb.  With only
            # (m=1, type B) trials this is budget/rho_hat - sum(alpha).
            if state.n_accepted:
                capacity_alpha = (
                    state.budget * state.n_accepted / _read(state.sum_delta)
                )
            else:
                capacity_alpha = state.budget / state.rho_hat
            view["remaining_total_error"] = capacity_alpha - _read(
                state.sum_alpha
            )
        return view

    def _freeze(self, trial: TrialRecord, model) -> dict:
        if model is None:
            raise LedgerError(
                "bayes mode requires the prior model to freeze h values"
            )
        if model.model_id != self._model_id:
            raise LedgerError(
                f"model {model.model_id} does not match the pinned model "
                f"{self._model_id}"
            )
        from enfp.hcurve import h_values

        # Adjustments may rescue trials that missed their pre-registered
        # threshold, so any trial with exact z values is frozen.
        z = [float(value) for value in trial.z_values()]
        return {"z": z, "h": h_values(model, z).tolist()}

    def _resolve_stratum(self, stratum) -> _StratumState:
        if self._stratified:
            if stratum is None:
                raise LedgerError(
                    "stratified ledger requires a stratum label "
                    f"(one of {sorted(self._strata)})"
                )
            if stratum not in self._strata:
                raise LedgerError(f"unknown stratum {stratum!r}")
            return self._strata[stratum]
        # Unstratified ledgers pool everything into the single budget;
        # any stratum label is kept on the entry for audit only.
        return self._strata[None]

    def _derive(self, entry: dict) -> tuple:
        """The numbers ``entry`` stores, derived from its facts and the
        running state, without changing anything.

        Returns ``(state, numbers, change)``: the entry's stratum state;
        the ``(key, value)`` pairs it stores, ``projected`` for a
        proposal or ``spend_delta`` and ``spent_after`` for an outcome or
        adjustment; and the ``(kind, x, y)`` that
        :meth:`_StratumState.apply` adds to the state.  An entry that
        breaks a rule of the ledger, or that :func:`_facts` cannot read,
        raises LedgerError.
        """
        kind, stratum, note, m, t, alpha, outcome, spend = _facts(
            entry, self._endpoint_mode if self._mode == "bayes" else None
        )
        if kind == "proposal":
            if self._mode != "frequentist":
                raise LedgerError("propose is a frequentist-mode operation")
            state = self._resolve_stratum(stratum)
            d, a = _exact_design(state.rho_hat, m, t, alpha)
            try:
                projected = state.projected(d, a, 1)
            except ValueError as exc:  # sum delta past the largest float
                raise LedgerError(str(exc)) from None
            return state, (("projected", projected),), (kind, d, a)
        if kind == "adjustment":
            if self._mode != "bayes":
                raise LedgerError("adjustments are a bayes-mode operation")
            if not (note and note.strip()):
                raise LedgerError("an adjustment requires a non-empty note")
        state = self._resolve_stratum(stratum)
        spend_delta = 0.0 if spend is None else spend
        if self._mode == "frequentist":
            spent_after = state.projected()
        else:
            spent_after = state.bayes_spent(spend_delta)
        numbers = (("spend_delta", spend_delta), ("spent_after", spent_after))
        return state, numbers, (kind, outcome == "positive", spend)

    def _record(self, kind: str, trials, model, note) -> list:
        """Append an outcome or adjustment of each of ``trials``, or of
        none: every entry is built and checked before the first is
        appended, which is sound because no refusal depends on the
        running state.  In bayes mode, one that spends first freezes its h
        values against ``model``: they are facts of the entry, as its z
        values are."""
        self._require_open()
        entries = [self._entry(kind, trial, model, note) for trial in trials]
        for entry in entries:
            self._encode_line(entry)
            self._derive(entry)
        return [self._append(entry) for entry in entries]

    def _append(self, entry: dict) -> OutcomeRecord:
        state, numbers, change = self._derive(entry)
        (_, spend_delta), (_, spent_after) = numbers
        return OutcomeRecord(
            sequence=self._commit(entry, state, numbers, change),
            kind=entry["kind"],
            trial_id=entry["trial_id"],
            spend_delta=spend_delta,
            spent=spent_after,
            budget=state.budget,
        )

    def _entry(self, kind: str, trial: TrialRecord, model, note) -> dict:
        """The facts of an outcome or adjustment entry for ``trial``."""
        payload = {
            "outcome": trial.outcome,
            "m": trial.m,
            "t": trial.failure_type.value,
        }
        if self._mode == "bayes" and (
            kind == "adjustment" or trial.outcome == "positive"
        ):
            payload.update(self._freeze(trial, model))
        else:
            try:
                payload["z"] = [float(z) for z in trial.z_values()]
            except CannotClassifyError:
                payload["z"] = None
        return {
            "kind": kind,
            "trial_id": trial.trial_id,
            "stratum": trial.stratum,
            "payload": payload,
            "note": note,
        }

    def _commit(self, entry: dict, state, numbers, change) -> int:
        """Store the derived ``numbers``, the sequence and the time in
        ``entry``, append it durably, then apply its ``change`` to
        ``state``; returns the sequence.  An entry that cannot be encoded
        or written changes no state."""
        entry.update(
            numbers, sequence=len(self._entries) + 1, timestamp=time.time()
        )
        self._write_line(self._encode_line(entry))
        state.apply(*change)
        self._entries.append(entry)
        return entry["sequence"]

    def _replay(self, entry: dict, lineno: int) -> None:
        """Apply a stored entry once its sequence follows on and every
        number it stores, read strictly, equals the one :meth:`_derive`
        gives, read as :func:`_facts` reads a field.  Every refusal is a
        ValueError: a LedgerError, or the error of a ``_fields`` reader."""
        expected = len(self._entries) + 1
        try:
            state, numbers, change = self._derive(entry)
            sequence = entry.get("sequence")
            if type(sequence) is not int:
                sequence = _fields.read(entry, "sequence", int)
            if sequence != expected:
                raise LedgerError(
                    f"sequence {sequence} breaks contiguity (expected "
                    f"{expected})"
                )
            for key, value in numbers:
                got = entry.get(key)
                if type(got) is not float or got - got != 0.0:
                    got = _fields.read(entry, key, float)
                if got != value:
                    raise LedgerError(
                        f"stored {key} {got!r} does not replay ({value!r})"
                    )
            if change[0] == "proposal" and numbers[0][1] > state.budget:
                raise LedgerError("accepted proposal exceeds the budget")
        except ValueError as exc:
            raise LedgerCorruptError(f"line {lineno}: {exc}") from exc
        state.apply(*change)
        self._entries.append(entry)

    def _write_line(self, line: str) -> None:
        """Append ``line`` and fsync it.  On an OSError the ledger closes
        and the file is cut back to its size before the write, and the
        error propagates.  Nothing is retried: after a failed fsync the
        kernel may have dropped the pages it reported, so a second fsync
        can succeed with the line lost (Rebello et al., USENIX ATC 2020).
        """
        fh = self._fh
        size = os.fstat(fh.fileno()).st_size
        try:
            fh.write(line)
            fh.flush()
            os.fsync(fh.fileno())
        except OSError:
            self._fh = None
            # Closing drops what the buffer still holds, or writes it;
            # either way the truncation removes it.
            with contextlib.suppress(OSError):
                fh.close()
            os.truncate(self._path, size)
            raise

    def _require_open(self) -> None:
        if self._fh is None:
            raise LedgerError("ledger is closed")

    @staticmethod
    def _encode_line(obj: dict) -> str:
        """One strict-JSON line; NaN and infinities are refused."""
        try:
            line = json.dumps(
                obj, separators=(",", ":"), sort_keys=True, allow_nan=False
            )
        except ValueError as exc:
            raise LedgerError(
                f"cannot record a non-finite value ({exc})"
            ) from exc
        return line + "\n"

    @staticmethod
    def _read_lines(fh) -> list:
        """The lines of a ledger file, split at each newline (and at no
        other line break) and without them.

        A last line without its newline is refused: every write ends
        with one, so the last write was torn, and an append would join
        the next entry onto it.  A line that is not UTF-8 is refused.
        The file's bytes are released on return, before the replay.
        """
        data = fh.read()
        if data and not data.endswith(b"\n"):
            lineno = data.count(b"\n") + 1
            raise LedgerCorruptError(
                f"line {lineno}: unterminated (torn) last line; the last "
                "write did not finish"
            )
        try:
            return data.decode("utf-8").split("\n")[:-1]
        except UnicodeDecodeError as exc:
            lineno = data.count(b"\n", 0, exc.start) + 1
            raise LedgerCorruptError(
                f"line {lineno}: not UTF-8 text ({exc.reason})"
            ) from None

    @staticmethod
    def _parse_line(raw: str, lineno: int) -> dict:
        """The object on a line.  A line that is not exactly one object
        goes to ``json.loads``, which accepts or refuses it."""
        try:
            obj, end = _SCAN(raw, 0)
            if end == len(raw) and type(obj) is dict:
                return obj
        except (ValueError, StopIteration):
            pass
        try:
            obj = json.loads(raw)
        except ValueError as exc:  # also an integer past int's digit limit
            raise LedgerCorruptError(
                f"line {lineno}: invalid JSON ({exc})"
            ) from exc
        if not isinstance(obj, dict):
            raise LedgerCorruptError(f"line {lineno}: expected a JSON object")
        return obj
