"""Tests for the persistent error-spending ledger."""

import errno
import importlib.util
import json
import math
import os
import stat
import time
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import enfp.ledger
from enfp.bayes_bounds import omega_hat, positive_result, trial_contribution
from enfp.deconv import PriorModel
from enfp.freq_bounds import FreqBoundInput, _exact, tau_hat_mixed
from enfp.ledger import (
    Ledger,
    LedgerCorruptError,
    LedgerError,
    StratumSpec,
    _StratumState,
)
from enfp.trials import (
    EfficacyMeasure,
    FailureRegionType,
    RejectionPolicy,
    TrialRecord,
)

B = FailureRegionType.B
A = FailureRegionType.A


def small_model(mass_neg=0.4):
    grid = np.arange(-120, 241) * 0.025
    masses = np.zeros(grid.size)
    masses[np.argmin(np.abs(grid + 1.0))] = mass_neg
    masses[np.argmin(np.abs(grid - 2.0))] = 1.0 - mass_neg
    return PriorModel.from_masses(grid, masses)


def make_trial(tid, z_values, t=B, outcome="positive", stratum=None):
    m = len(z_values)
    policy = RejectionPolicy.at_alpha(0.025, m=m, failure_type=t)
    measures = tuple(
        EfficacyMeasure(endpoint_index=i + 1, z=z)
        for i, z in enumerate(z_values)
    )
    return TrialRecord(
        trial_id=tid,
        m=m,
        failure_type=t,
        measures=measures,
        policy=policy,
        stratum=stratum,
        outcome=outcome,
    )


class TestCreate:
    def test_fresh_frequentist_status(self, tmp_path):
        with Ledger.create(
            tmp_path / "f.jsonl", "frequentist", budget=1.0, rho_hat=0.09
        ) as led:
            st = led.status()
        assert st["spent"] == 0.0
        assert st["remaining"] == 1.0
        assert st["n_trials"] == 0
        assert not st["over_budget"]
        # Equivalent remaining total error for the all-(1,B) view: 1/0.09.
        assert_allclose(st["remaining_total_error"], 1.0 / 0.09, rtol=1e-12)
        assert round(st["remaining_total_error"], 2) == 11.11

    def test_fresh_bayes_status(self, tmp_path):
        model = small_model()
        with Ledger.create(
            tmp_path / "b.jsonl", "bayes", budget=0.5, model=model
        ) as led:
            st = led.status()
        assert st["spent"] == 0.0
        assert st["remaining"] == 0.5

    def test_zero_budget_errors(self, tmp_path):
        with pytest.raises(LedgerError):
            Ledger.create(
                tmp_path / "x.jsonl", "frequentist", budget=0.0, rho_hat=0.1
            )
        with pytest.raises(LedgerError):
            Ledger.create(
                tmp_path / "y.jsonl", "frequentist", budget=-1.0, rho_hat=0.1
            )

    def test_missing_requirements(self, tmp_path):
        with pytest.raises(LedgerError):
            Ledger.create(tmp_path / "a.jsonl", "frequentist", budget=1.0)
        with pytest.raises(LedgerError):
            Ledger.create(tmp_path / "b.jsonl", "bayes", budget=1.0)
        with pytest.raises(LedgerError):
            Ledger.create(
                tmp_path / "c.jsonl", "parametric", budget=1.0, rho_hat=0.1
            )

    def test_refuses_overwrite(self, tmp_path):
        path = tmp_path / "l.jsonl"
        Ledger.create(path, "frequentist", budget=1.0, rho_hat=0.1).close()
        with pytest.raises(LedgerError):
            Ledger.create(path, "frequentist", budget=1.0, rho_hat=0.1)


class TestPropose:
    def test_accepts_444_then_rejects(self, tmp_path):
        with Ledger.create(
            tmp_path / "l.jsonl", "frequentist", budget=1.0, rho_hat=0.09
        ) as led:
            accepted = 0
            while True:
                dec = led.propose(f"t{accepted + 1}", 1, B, 0.025)
                if not dec.accepted:
                    break
                accepted += 1
            assert accepted == 444
            st = led.status()
            assert st["n_trials"] == 444
            assert_allclose(st["spent"], 0.999, rtol=1e-12)
            assert_allclose(st["remaining"], 0.001, rtol=1e-9)
            assert_allclose(
                st["remaining_total_error"], 1.0 / 0.09 - 11.1, rtol=1e-9
            )
            # Rejection appended nothing: header + 444 entries.
            with open(led.path, encoding="utf-8") as fh:
                assert len(fh.read().splitlines()) == 445
            # Recomputing the portfolio bound from scratch over every
            # accepted trial matches the incremental spend exactly.
            trials = tuple(
                (e["payload"]["m"], e["payload"]["t"], e["payload"]["alpha"])
                for e in led.entries()
            )
            scratch = tau_hat_mixed(
                FreqBoundInput(rho_hat=0.09, trials=trials)
            )
            assert scratch == st["spent"]
            assert scratch <= 1.0

    def test_hand_rejection(self, tmp_path):
        with Ledger.create(
            tmp_path / "l.jsonl", "frequentist", budget=0.001, rho_hat=0.1
        ) as led:
            dec = led.propose("t1", 1, B, 0.05)
            assert not dec.accepted
            assert_allclose(dec.projected, 0.005, atol=1e-15)
            assert led.status()["n_trials"] == 0

    def test_vanishing_alpha_accepted(self, tmp_path):
        with Ledger.create(
            tmp_path / "l.jsonl", "frequentist", budget=1e-6, rho_hat=0.5
        ) as led:
            assert led.propose("t1", 1, B, 1e-12).accepted
            assert led.propose("t2", 3, B, 1e-12).accepted

    def test_boundary_spend_accepted(self, tmp_path):
        # rho = 0.5, alpha = 0.25 -> projected exactly 0.125 == budget.
        with Ledger.create(
            tmp_path / "l.jsonl", "frequentist", budget=0.125, rho_hat=0.5
        ) as led:
            dec = led.propose("t1", 1, B, 0.25)
            assert dec.accepted and dec.projected == 0.125
            assert not led.propose("t2", 1, B, 0.25).accepted

    def test_wrong_mode_errors(self, tmp_path):
        with Ledger.create(
            tmp_path / "l.jsonl", "bayes", budget=0.5, model=small_model()
        ) as led:
            with pytest.raises(LedgerError):
                led.propose("t1", 1, B, 0.025)

    def test_rejection_mutates_nothing(self, tmp_path):
        path = tmp_path / "l.jsonl"
        with Ledger.create(
            path, "frequentist", budget=0.01, rho_hat=0.1
        ) as led:
            led.propose("t1", 1, B, 0.05)
            before_sums = led.running_sums()
            before_bytes = path.read_bytes()
            dec = led.propose("t2", 4, B, 0.2)
            assert not dec.accepted
            assert led.running_sums() == before_sums
            assert path.read_bytes() == before_bytes

    def test_bad_inputs(self, tmp_path):
        with Ledger.create(
            tmp_path / "l.jsonl", "frequentist", budget=1.0, rho_hat=0.1
        ) as led:
            with pytest.raises(LedgerError):
                led.propose("t", 0, B, 0.025)
            with pytest.raises(LedgerError):
                led.propose("t", 1, B, 0.0)
            with pytest.raises(LedgerError):
                led.propose("t", 1, "C", 0.025)


    def test_numpy_integer_m_and_float_alpha_accepted(self, tmp_path):
        path = tmp_path / "l.jsonl"
        with Ledger.create(
            path, "frequentist", budget=1.0, rho_hat=0.1
        ) as led:
            dec = led.propose("t1", np.int64(2), A, np.float64(0.025))
            assert dec.accepted
            (entry,) = led.entries()
        assert entry["payload"] == {"m": 2, "t": "A", "alpha": 0.025}
        assert '"m":2,' in path.read_text()

    @pytest.mark.parametrize("m", [2.0, 1.5, True, "2"])
    def test_float_bool_or_string_m_refused(self, tmp_path, m):
        path = tmp_path / "l.jsonl"
        with Ledger.create(
            path, "frequentist", budget=1.0, rho_hat=0.1
        ) as led:
            before = path.read_bytes()
            with pytest.raises(LedgerError, match="m: expected an integer"):
                led.propose("t1", m, B, 0.025)
            assert path.read_bytes() == before

    @pytest.mark.parametrize("trial_id", [None, "", 5, np.int64(5)])
    def test_trial_id_must_be_a_non_empty_string(self, tmp_path, trial_id):
        with Ledger.create(
            tmp_path / "l.jsonl", "frequentist", budget=1.0, rho_hat=0.1
        ) as led:
            with pytest.raises(LedgerError, match="trial_id"):
                led.propose(trial_id, 1, B, 0.025)
            assert led.entries() == ()

    def test_delta_sum_past_the_largest_float_refused(self, tmp_path):
        # Each m * rho is a float; the sum of two is not.  The second
        # proposal is refused naming the sum, and nothing is written; a
        # file holding both does not replay.
        path = tmp_path / "l.jsonl"
        with Ledger.create(
            path, "frequentist", budget=1.0, rho_hat=1.0
        ) as led:
            assert led.propose("a", 10**308, B, 5e-324).accepted
            before, sums = path.read_bytes(), led.running_sums()
            with pytest.raises(LedgerError, match="sum of deltas passes"):
                led.propose("b", 10**308, B, 5e-324)
            assert path.read_bytes() == before
            assert led.running_sums() == sums
        lines = path.read_text(encoding="utf-8").splitlines()
        entry = json.loads(lines[1])
        entry.update(sequence=2, trial_id="b")
        lines.append(json.dumps(entry, separators=(",", ":"), sort_keys=True))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(LedgerCorruptError, match="line 3: sum of deltas"):
            Ledger.open(path)


class TestRecordOutcome:
    def test_positive_spends_contribution(self, tmp_path):
        model = small_model()
        trial = make_trial("rx-1", [2.4])
        with Ledger.create(
            tmp_path / "l.jsonl", "bayes", budget=0.5, model=model
        ) as led:
            rec = led.record_outcome(trial, model)
            expected = 1.0 - positive_result(trial, model).h_values[0]
            assert rec.spend_delta == expected
            assert led.status()["spent"] == math.fsum([expected])

    def test_negative_spends_nothing(self, tmp_path):
        model = small_model()
        with Ledger.create(
            tmp_path / "l.jsonl", "bayes", budget=0.5, model=model
        ) as led:
            led.record_outcome(make_trial("rx-1", [1.2], outcome="negative"))
            st = led.status()
            assert st["spent"] == 0.0
            assert st["n_trials"] == 1

    def test_multi_endpoint_type_b_sums(self, tmp_path):
        model = small_model()
        trial = make_trial("rx-2", [2.4, 2.8], t=B)
        with Ledger.create(
            tmp_path / "l.jsonl", "bayes", budget=0.5, model=model
        ) as led:
            rec = led.record_outcome(trial, model)
            res = positive_result(trial, model)
            expected = math.fsum(1.0 - h for h in res.h_values)
            assert rec.spend_delta == expected

    def test_spent_matches_omega_hat_recomputed(self, tmp_path):
        model = small_model()
        trials = [
            make_trial("rx-1", [2.4]),
            make_trial("rx-2", [2.8, 2.2], t=B),
            make_trial("rx-3", [3.1, 2.6], t=A),
            make_trial("rx-4", [1.4], outcome="negative"),
        ]
        with Ledger.create(
            tmp_path / "l.jsonl", "bayes", budget=2.0, model=model
        ) as led:
            for trial in trials:
                led.record_outcome(trial, model)
            frozen = [
                positive_result(t, model)
                for t in trials
                if t.outcome == "positive"
            ]
            assert abs(led.status()["spent"] - omega_hat(frozen)) <= 1e-12

    def test_unclassified_errors(self, tmp_path):
        model = small_model()
        with Ledger.create(
            tmp_path / "l.jsonl", "bayes", budget=0.5, model=model
        ) as led:
            with pytest.raises(LedgerError):
                led.record_outcome(make_trial("rx", [2.0], outcome=None))

    def test_over_budget_recorded_and_flagged(self, tmp_path):
        model = small_model()
        with Ledger.create(
            tmp_path / "l.jsonl", "bayes", budget=0.001, model=model
        ) as led:
            led.record_outcome(make_trial("rx-1", [2.0]), model)
            st = led.status()
            assert st["over_budget"]
            assert st["n_trials"] == 1
            # Facts keep being recorded after the budget is blown.
            led.record_outcome(make_trial("rx-2", [2.5]), model)
            st = led.status()
            assert st["n_trials"] == 2 and st["over_budget"]

    def test_model_hash_pinned(self, tmp_path):
        model = small_model(0.4)
        other = small_model(0.2)
        with Ledger.create(
            tmp_path / "l.jsonl", "bayes", budget=0.5, model=model
        ) as led:
            with pytest.raises(LedgerError):
                led.record_outcome(make_trial("rx-1", [2.0]), other)

    def test_batch_is_recorded_whole_or_not_at_all(self, tmp_path):
        model = small_model()
        path = tmp_path / "l.jsonl"
        good = [make_trial("rx-1", [2.4]), make_trial("rx-2", [2.8, 2.2])]
        with Ledger.create(path, "bayes", budget=0.5, model=model) as led:
            before = path.read_bytes()
            # rx-3's infinite z cannot be stored, so rx-1 and rx-2 are not
            # stored either.
            bad = make_trial("rx-3", [math.inf])
            with pytest.raises(LedgerError, match="non-finite"):
                led.record_outcomes(good + [bad], model)
            assert path.read_bytes() == before
            recs = led.record_outcomes(good, model)
            assert [r.sequence for r in recs] == [1, 2]
            assert recs[-1].spent == led.status()["spent"]
        with Ledger.create(
            tmp_path / "one.jsonl", "bayes", budget=0.5, model=model
        ) as led:
            one = [led.record_outcome(t, model) for t in good]
        assert [(r.spend_delta, r.spent) for r in one] == [
            (r.spend_delta, r.spent) for r in recs
        ]

    def test_frequentist_outcomes_are_audit_only(self, tmp_path):
        with Ledger.create(
            tmp_path / "l.jsonl", "frequentist", budget=1.0, rho_hat=0.1
        ) as led:
            led.propose("t1", 1, B, 0.025)
            spent = led.status()["spent"]
            led.record_outcome(make_trial("t1", [2.4]))
            st = led.status()
            assert st["spent"] == spent
            assert st["n_entries"] == 2


class TestAdjustment:
    def test_requires_note(self, tmp_path):
        model = small_model()
        path = tmp_path / "l.jsonl"
        with Ledger.create(path, "bayes", budget=0.5, model=model) as led:
            trial = make_trial("rx-1", [1.7], outcome="negative")
            with pytest.raises(LedgerError):
                led.record_adjustment(trial, model, "")
            with pytest.raises(LedgerError):
                led.record_adjustment(trial, model, "   ")
            assert led.status()["n_entries"] == 0

    def test_same_arithmetic_as_positive(self, tmp_path):
        model = small_model()
        with Ledger.create(
            tmp_path / "l.jsonl", "bayes", budget=0.5, model=model
        ) as led:
            trial = make_trial("rx-1", [1.7], outcome="negative")
            rec = led.record_adjustment(
                trial, model, "underpowered; sponsor petition 14-2"
            )
            as_positive = make_trial("rx-1", [1.7], outcome="positive")
            expected = 1.0 - positive_result(as_positive, model).h_values[0]
            assert rec.spend_delta == expected
            assert rec.kind == "adjustment"

    def test_adjustment_fraction(self, tmp_path):
        model = small_model()
        with Ledger.create(
            tmp_path / "l.jsonl", "bayes", budget=50.0, model=model
        ) as led:
            for i in range(19):
                led.record_outcome(make_trial(f"rx-{i}", [2.3]), model)
            led.record_adjustment(
                make_trial("rx-adj", [1.8], outcome="negative"),
                model,
                "borderline miss",
            )
            st = led.status()
            assert st["adjustment_count"] == 1
            assert_allclose(st["adjustment_fraction"], 0.05, atol=1e-15)

    def test_frequentist_mode_refuses(self, tmp_path):
        with Ledger.create(
            tmp_path / "l.jsonl", "frequentist", budget=1.0, rho_hat=0.1
        ) as led:
            with pytest.raises(LedgerError):
                led.record_adjustment(
                    make_trial("t", [2.0]), small_model(), "note"
                )


class TestReplay:
    def test_thousand_entry_replay_is_byte_identical(self, tmp_path):
        path = tmp_path / "big.jsonl"
        rng = np.random.default_rng(77)
        with Ledger.create(
            path, "frequentist", budget=50.0, rho_hat=0.12
        ) as led:
            n_accepted = 0
            i = 0
            while n_accepted < 1000:
                i += 1
                m = int(rng.integers(1, 4))
                t = B if rng.random() < 0.7 else A
                if m == 1:
                    t = B
                alpha = float(rng.uniform(0.001, 0.05))
                if led.propose(f"t{i}", m, t, alpha).accepted:
                    n_accepted += 1
            live = led.running_sums()
            live_status = led.status()
        with Ledger.open(path) as replayed:
            assert replayed.running_sums() == live
            assert replayed.status() == live_status
            assert replayed.entries()[-1]["sequence"] == 1000

    def test_bayes_replay_exact(self, tmp_path):
        model = small_model()
        path = tmp_path / "b.jsonl"
        rng = np.random.default_rng(5)
        with Ledger.create(path, "bayes", budget=10.0, model=model) as led:
            for i in range(60):
                m = int(rng.integers(1, 3))
                t = B if (m == 1 or rng.random() < 0.5) else A
                zs = rng.uniform(1.8, 3.5, size=m).tolist()
                outcome = "positive" if rng.random() < 0.8 else "negative"
                led.record_outcome(
                    make_trial(f"rx-{i}", zs, t=t, outcome=outcome), model
                )
            led.record_adjustment(
                make_trial("rx-adj", [1.9], outcome="negative"),
                model,
                "phase transition",
            )
            live = led.running_sums()
        with Ledger.open(path) as replayed:
            assert replayed.running_sums() == live
            assert replayed.status()["adjustment_count"] == 1

    def test_tightest_mode_spends_and_replays(self, tmp_path):
        # Type A trials whose largest z is on endpoint 2, one with tied z,
        # and an m=3 type B trial.
        model = small_model()
        path = tmp_path / "t.jsonl"
        trials = [
            make_trial("a-1", [2.0, 3.1], t=A),
            make_trial("a-2", [1.9, 2.8, 2.3], t=A),
            make_trial("a-tie", [2.6, 2.6], t=A),
            make_trial("b-1", [2.2, 2.5, 3.0], t=B),
        ]
        with Ledger.create(
            path, "bayes", budget=1.0, model=model, endpoint_mode="tightest"
        ) as led:
            for trial in trials:
                led.record_outcome(trial, model)
            live = (led.status(), led.entries())
        for trial, entry in zip(trials, live[1]):
            frozen = positive_result(trial, model)
            assert entry["spend_delta"] == trial_contribution(
                frozen, "tightest"
            )
        # Endpoint 2 is what a-1 spends, not the designated endpoint 1.
        assert live[1][0]["spend_delta"] != trial_contribution(
            positive_result(trials[0], model), "designated"
        )
        with Ledger.open(path) as replayed:
            assert (replayed.status(), replayed.entries()) == live

    def test_reopened_ledger_keeps_appending(self, tmp_path):
        path = tmp_path / "l.jsonl"
        with Ledger.create(
            path, "frequentist", budget=1.0, rho_hat=0.09
        ) as led:
            led.propose("t1", 1, B, 0.025)
        with Ledger.open(path) as led:
            dec = led.propose("t2", 1, B, 0.025)
            assert dec.accepted and dec.sequence == 2
        with Ledger.open(path) as led:
            assert led.status()["n_trials"] == 2


class TestCorruption:
    def _freq_ledger(self, path):
        with Ledger.create(
            path, "frequentist", budget=1.0, rho_hat=0.09
        ) as led:
            for i in range(5):
                led.propose(f"t{i}", 1, B, 0.025)

    def test_garbage_line(self, tmp_path):
        path = tmp_path / "l.jsonl"
        self._freq_ledger(path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{not json\n")
        with pytest.raises(LedgerCorruptError):
            Ledger.open(path)

    def test_tampered_spend(self, tmp_path):
        path = tmp_path / "l.jsonl"
        self._freq_ledger(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        entry = json.loads(lines[3])
        entry["projected"] = entry["projected"] * 0.5
        lines[3] = json.dumps(entry, separators=(",", ":"), sort_keys=True)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(LedgerCorruptError):
            Ledger.open(path)

    def test_missing_sequence(self, tmp_path):
        path = tmp_path / "l.jsonl"
        self._freq_ledger(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        del lines[3]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(LedgerCorruptError):
            Ledger.open(path)

    def test_accepted_proposal_over_the_budget(self, tmp_path):
        # The header's budget, lowered after two live proposals, admits
        # the first (projected 0.00225) but not the second (0.0045).
        path = tmp_path / "l.jsonl"
        self._freq_ledger(path)
        _rewrite_line(path, 0, lambda header: header.update(budget=0.003))
        with pytest.raises(
            LedgerCorruptError,
            match=r"^line 3: accepted proposal exceeds the budget",
        ):
            Ledger.open(path)

    def test_wrong_format_tag(self, tmp_path):
        path = tmp_path / "l.jsonl"
        path.write_text('{"format":"other/9","mode":"frequentist"}\n')
        with pytest.raises(LedgerCorruptError):
            Ledger.open(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "l.jsonl"
        path.write_text("")
        with pytest.raises(LedgerCorruptError):
            Ledger.open(path)

    @pytest.mark.parametrize(
        "cut", [1, 20], ids=["newline", "partial_entry"]
    )
    def test_torn_last_line_refused_before_any_append(self, tmp_path, cut):
        # Two proposals, then the final write loses its last bytes: a
        # whole entry without its newline, or only part of the entry.
        path = tmp_path / "l.jsonl"
        with Ledger.create(
            path, "frequentist", budget=1.0, rho_hat=0.09
        ) as led:
            led.propose("t0", 1, B, 0.025)
            led.propose("t1", 1, B, 0.025)
        torn = path.read_bytes()[:-cut]
        path.write_bytes(torn)
        with pytest.raises(LedgerCorruptError, match=r"line 3: unterminated"):
            Ledger.open(path)
        assert path.read_bytes() == torn

    def test_torn_multibyte_character_is_a_torn_line(self, tmp_path):
        path = tmp_path / "l.jsonl"
        with Ledger.create(
            path, "frequentist", budget=1.0, rho_hat=0.09
        ) as led:
            led.propose("t0", 1, B, 0.025)
        # The last write stopped inside the two bytes of an e-acute.
        torn = '{"trial_id":"\u00e9'.encode()[:-1]
        path.write_bytes(path.read_bytes() + torn)
        with pytest.raises(LedgerCorruptError, match=r"line 3: unterminated"):
            Ledger.open(path)

    @pytest.mark.parametrize("index", [0, 3])
    def test_undecodable_byte_names_its_line(self, tmp_path, index):
        path = tmp_path / "l.jsonl"
        self._freq_ledger(path)
        lines = path.read_bytes().split(b"\n")
        lines[index] = lines[index][:20] + b"\xff" + lines[index][20:]
        path.write_bytes(b"\n".join(lines))
        match = rf"^line {index + 1}: not UTF-8 text \(invalid start byte\)$"
        with pytest.raises(LedgerCorruptError, match=match):
            Ledger.open(path)

    def test_lines_split_at_newlines_only(self, tmp_path):
        # A raw U+2028 or U+0085 in a string is valid JSON and UTF-8: the
        # line holding it replays as its escaped form does, and the lines
        # after it keep their numbers.
        path = tmp_path / "l.jsonl"
        self._freq_ledger(path)
        with Ledger.open(path) as led:
            led.propose("t\u2028x\x85y", 1, B, 0.025)
            led.propose("t6", 1, B, 0.025)
            escaped = (led.status(), led.entries())
        text = path.read_text(encoding="utf-8")
        raw = text.replace("\\u2028x\\u0085y", "\u2028x\x85y")
        assert raw != text
        path.write_text(raw, encoding="utf-8")
        with Ledger.open(path) as led:
            assert (led.status(), led.entries()) == escaped
        path.write_text(
            raw.replace('"sequence":7', '"sequence":9'), encoding="utf-8"
        )
        with pytest.raises(LedgerCorruptError, match=r"^line 8: sequence 9"):
            Ledger.open(path)

    def test_integer_past_the_digit_limit_names_its_line(self, tmp_path):
        # json.loads refuses an integer of more than 4300 digits with a
        # plain ValueError, which is not a JSONDecodeError.
        path = tmp_path / "l.jsonl"
        self._freq_ledger(path)
        path.write_text(
            path.read_text().replace('"m":1,', '"m":1' + "0" * 5000 + ",", 1)
        )
        with pytest.raises(LedgerCorruptError, match=r"^line 2: invalid JSON"):
            Ledger.open(path)


def _loads_every_line(raw: str):
    """What a line read by ``json.loads`` alone gives: the object, or the
    text of the refusal after ``line N: ``."""
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        return f"invalid JSON ({exc})"
    return obj if isinstance(obj, dict) else "expected a JSON object"


def _parse(raw: str):
    try:
        return Ledger._parse_line(raw, 2)
    except LedgerCorruptError as exc:
        assert str(exc).startswith("line 2: ")
        return str(exc)[len("line 2: "):]


class TestParseLine:
    """A line decoded in one call is accepted or refused, with the same
    message, as ``json.loads`` of the line would have it."""

    ENTRY = (
        '{"kind":"proposal","note":null,"payload":{"alpha":0.025,"m":1,'
        '"t":"B"},"projected":0.00225,"sequence":1,"stratum":null,'
        '"timestamp":1.5,"trial_id":"t0"}'
    )

    @pytest.mark.parametrize(
        "raw",
        [
            ENTRY,
            f"  {ENTRY}\t ",
            f" {ENTRY}",
            f"{ENTRY}\r",
            f"{ENTRY} x",
            f"{ENTRY}{{}}",
            "{}{}",
            "{}",
            f"[{ENTRY}]",
            "[]",
            f"\ufeff{ENTRY}",
            "NaN",
            "-Infinity",
            '{"a":NaN}',
            '"text"',
            "",
            " ",
            "{",
            '{"a":1,}',
        ],
    )
    def test_same_decision_and_message(self, raw):
        assert _parse(raw) == _loads_every_line(raw)

    @settings(max_examples=300, deadline=None)
    @given(
        st.text(alphabet=' \t\r{}[]":,0123456789.eE+-aNInfinityultrse\ufeff')
        | st.recursive(
            st.none() | st.booleans() | st.floats() | st.text(max_size=4),
            lambda inner: st.lists(inner, max_size=3)
            | st.dictionaries(st.text(max_size=3), inner, max_size=3),
            max_leaves=6,
        ).map(json.dumps)
    )
    def test_same_as_json_loads(self, raw):
        assert _parse(raw) == _loads_every_line(raw)


class TestFailedWrite:
    """An append whose write or fsync fails changes no state: the file is
    cut back, the ledger closes, and reopening it gives the state before
    the failed operation."""

    @pytest.mark.parametrize("where", ["write", "fsync"])
    def test_failed_append_leaves_the_state_before_it(
        self, tmp_path, monkeypatch, where
    ):
        path = tmp_path / "l.jsonl"
        led = Ledger.create(path, "frequentist", budget=1.0, rho_hat=0.09)
        led.propose("t1", 1, B, 0.025)
        before = (path.read_bytes(), led.status())

        def no_space(*args):
            raise OSError(errno.ENOSPC, "No space left on device")

        if where == "write":
            monkeypatch.setattr(led._fh, "write", no_space)
        else:
            monkeypatch.setattr(enfp.ledger.os, "fsync", no_space)
        with pytest.raises(OSError, match="No space"):
            led.propose("t2", 1, B, 0.025)
        monkeypatch.undo()
        assert (path.read_bytes(), led.status()) == before
        with pytest.raises(LedgerError, match="ledger is closed"):
            led.propose("t3", 1, B, 0.025)
        with pytest.raises(LedgerError, match="ledger is closed"):
            led.record_outcome(make_trial("t1", [2.4]))
        with Ledger.open(path) as reopened:
            assert reopened.status() == before[1]
            assert reopened.propose("t2", 1, B, 0.025).sequence == 2


    def test_failed_create_leaves_no_file(self, tmp_path, monkeypatch):
        path = tmp_path / "l.jsonl"

        def no_space(*args):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(enfp.ledger.os, "fsync", no_space)
        with pytest.raises(OSError, match="No space"):
            Ledger.create(path, "frequentist", budget=1.0, rho_hat=0.09)
        monkeypatch.undo()
        assert not path.exists()
        with Ledger.create(path, "frequentist", budget=1.0, rho_hat=0.09):
            pass
        with Ledger.open(path) as reopened:
            assert reopened.entries() == ()

    def test_failed_directory_fsync_leaves_no_file(
        self, tmp_path, monkeypatch
    ):
        # The header is synced, then its directory (Pillai et al., OSDI
        # 2014); if the directory's sync fails, no ledger is made.
        path = tmp_path / "l.jsonl"
        fsync, synced = os.fsync, []

        def directory_full(fd):
            info = os.fstat(fd)
            synced.append((stat.S_ISDIR(info.st_mode), info.st_ino))
            if stat.S_ISDIR(info.st_mode):
                raise OSError(errno.ENOSPC, "No space left on device")
            fsync(fd)

        monkeypatch.setattr(enfp.ledger.os, "fsync", directory_full)
        with pytest.raises(OSError, match="No space"):
            Ledger.create(path, "frequentist", budget=1.0, rho_hat=0.09)
        monkeypatch.undo()
        assert synced == [(False, synced[0][1]), (True, tmp_path.stat().st_ino)]
        assert not path.exists()
        with Ledger.create(path, "frequentist", budget=1.0, rho_hat=0.09):
            pass
        with Ledger.open(path) as reopened:
            assert reopened.entries() == ()


class TestStoredNumbers:
    def test_tampered_spent_after_of_non_spending_entries(self, tmp_path):
        # A negative Bayesian outcome and a frequentist outcome store a
        # spent_after but no spend; replay checks that number too.
        model = small_model()
        bayes = tmp_path / "b.jsonl"
        with Ledger.create(bayes, "bayes", budget=1.0, model=model) as led:
            led.record_outcome(make_trial("p1", [2.5]), model)
            led.record_outcome(make_trial("n1", [1.2], outcome="negative"))
        freq = tmp_path / "f.jsonl"
        with Ledger.create(
            freq, "frequentist", budget=1.0, rho_hat=0.09
        ) as led:
            led.propose("t1", 1, B, 0.025)
            led.record_outcome(make_trial("t1", [2.4]))
        for path, spent_after in ((bayes, 123.0), (freq, -5.0)):
            _rewrite_line(
                path, 2, lambda entry: entry.update(spent_after=spent_after)
            )
            with pytest.raises(LedgerCorruptError, match="spent_after"):
                Ledger.open(path)


class TestStrata:
    def test_independent_budgets(self, tmp_path):
        # Binary-exact rho/alpha so the sub-budget boundary is sharp.
        with Ledger.create(
            tmp_path / "l.jsonl",
            "frequentist",
            strata={
                "us": StratumSpec(budget=0.0625, rho_hat=0.125),
                "eu": StratumSpec(budget=1.0, rho_hat=0.125),
            },
        ) as led:
            assert led.propose("u1", 1, B, 0.25, stratum="us").accepted
            assert led.propose("u2", 1, B, 0.25, stratum="us").accepted
            # Third us proposal exceeds the 0.0625 sub-budget...
            assert not led.propose("u3", 1, B, 0.25, stratum="us").accepted
            # ...but eu's independent budget is untouched.
            for i in range(10):
                assert led.propose(f"e{i}", 1, B, 0.25, stratum="eu").accepted
            st = led.status()
            assert st["strata"]["us"]["n_trials"] == 2
            assert st["strata"]["eu"]["n_trials"] == 10
            assert st["strata"]["us"]["spent"] == 0.0625

    def test_stratified_requires_label(self, tmp_path):
        with Ledger.create(
            tmp_path / "l.jsonl",
            "frequentist",
            strata={"us": StratumSpec(budget=1.0, rho_hat=0.1)},
        ) as led:
            with pytest.raises(LedgerError):
                led.propose("t", 1, B, 0.05)
            with pytest.raises(LedgerError):
                led.propose("t", 1, B, 0.05, stratum="asia")

    def test_unstratified_pools_labels(self, tmp_path):
        with Ledger.create(
            tmp_path / "l.jsonl", "frequentist", budget=1.0, rho_hat=0.1
        ) as led:
            led.propose("t1", 1, B, 0.05, stratum="us")
            led.propose("t2", 1, B, 0.05, stratum="eu")
            st = led.status()
            assert st["n_trials"] == 2
            assert st["strata"] is None

    def test_stratified_replay(self, tmp_path):
        path = tmp_path / "l.jsonl"
        with Ledger.create(
            path,
            "frequentist",
            strata={
                "us": StratumSpec(budget=0.5, rho_hat=0.08),
                "eu": StratumSpec(budget=0.25, rho_hat=0.15),
            },
        ) as led:
            led.propose("u1", 2, B, 0.025, stratum="us")
            led.propose("e1", 1, B, 0.01, stratum="eu")
            led.propose("u2", 2, A, 0.05, stratum="us")
            live = led.running_sums()
        with Ledger.open(path) as replayed:
            assert replayed.running_sums() == live


GOLDEN = Path(__file__).parent / "data"


def _as_json(value):
    """Tuples become lists; floats survive exactly (repr round-trips)."""
    return json.loads(json.dumps(value))


class TestGoldenReplay:
    """Files written by the earlier fsum-per-operation ledger, and the
    Bayesian file the live ledger writes (see
    ``data/make_golden_ledgers.py``), replay to their recorded state."""

    @pytest.mark.parametrize(
        "name", ["golden_freq", "golden_bayes", "golden_bayes_affine"]
    )
    def test_replays_to_recorded_state(self, name):
        expected = json.loads(
            (GOLDEN / f"{name}.expected.json").read_text(encoding="utf-8")
        )
        with Ledger.open(GOLDEN / f"{name}.jsonl") as led:
            assert _as_json(led.status()) == expected["status"]
            assert _as_json(led.running_sums()) == expected["running_sums"]


def _golden_writer():
    spec = importlib.util.spec_from_file_location(
        "make_golden_ledgers", GOLDEN / "make_golden_ledgers.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestGoldenWrite:
    """The live operations write the golden files byte for byte, given
    the clock readings stored in them: one per committed line, none for
    a rejected proposal.  The Bayesian one is ``golden_bayes_affine``:
    the older ``golden_bayes`` froze h values of the squared form and is
    only replayed."""

    WRITTEN = {"freq": "golden_freq", "bayes": "golden_bayes_affine"}

    @pytest.mark.parametrize("name", ["freq", "bayes"])
    def test_live_write_is_byte_identical(self, tmp_path, monkeypatch, name):
        golden = GOLDEN / f"{self.WRITTEN[name]}.jsonl"
        lines = golden.read_text(encoding="utf-8").splitlines()
        stored = [json.loads(raw) for raw in lines]
        stamps = iter(
            [stored[0]["created"]] + [e["timestamp"] for e in stored[1:]]
        )
        clock = types.SimpleNamespace(
            time=lambda: next(stamps), perf_counter=time.perf_counter
        )
        monkeypatch.setattr(enfp.ledger, "time", clock)
        getattr(_golden_writer(), f"write_{name}")(tmp_path)
        assert (tmp_path / golden.name).read_bytes() == golden.read_bytes()
        assert next(stamps, None) is None


# Positive floats from subnormals to 1e3, with values that repeat.
POSITIVE = st.one_of(
    st.floats(min_value=1e-300, max_value=1e3),
    st.floats(min_value=5e-324, max_value=2.2250738585072014e-308),
    st.sampled_from([5e-324, 1e-300, 1e-17, 0.025, 0.1, 1.0, 1e3]),
)


class TestExactRunningSums:
    """The running sums read back as math.fsum of the same history."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(POSITIVE, min_size=1, max_size=60))
    def test_contribution_sum_equals_fsum_at_every_prefix(self, values):
        state = _StratumState(budget=1.0, rho_hat=None)
        for i, x in enumerate(values):
            assert state.bayes_spent(x) == math.fsum(values[: i + 1])
            state.spend(x)
            assert state.bayes_spent() == math.fsum(values[: i + 1])
        assert state.contributions == values

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(POSITIVE, POSITIVE), min_size=1, max_size=60))
    def test_projected_equals_fsum_formula(self, designs):
        state = _StratumState(budget=1.0, rho_hat=0.1)
        deltas, alphas = [], []
        for d, a in designs:
            # The state takes a design's delta and alpha in exact form.
            exact = (_exact(d), _exact(a))
            assert state.projected(*exact, 1) == (
                math.fsum(deltas + [d])
                * math.fsum(alphas + [a])
                / (len(deltas) + 1)
            )
            state.accept(*exact)
            deltas.append(d)
            alphas.append(a)
            assert state.projected() == (
                math.fsum(deltas) * math.fsum(alphas) / len(deltas)
            )


def _rewrite_line(path, index, edit):
    """Apply ``edit`` to the JSON object on line ``index`` (0 = header);
    non-finite values are written as the NaN/Infinity tokens."""
    lines = path.read_text(encoding="utf-8").splitlines()
    obj = json.loads(lines[index])
    edit(obj)
    lines[index] = json.dumps(obj, separators=(",", ":"), sort_keys=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestNonFinite:
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_create_refuses_non_finite_budget(self, tmp_path, bad):
        path = tmp_path / "l.jsonl"
        with pytest.raises(LedgerError):
            StratumSpec(budget=bad)
        with pytest.raises(LedgerError):
            Ledger.create(path, "frequentist", budget=bad, rho_hat=0.1)
        with pytest.raises(LedgerError):
            Ledger.create(path, "bayes", budget=bad, model=small_model())
        with pytest.raises(LedgerError):
            Ledger.create(
                path, "frequentist", strata={"us": {"budget": bad, "rho_hat": 0.1}}
            )
        assert not path.exists()

    def test_frequentist_zero_rho_refused_before_writing(self, tmp_path):
        path = tmp_path / "r0.jsonl"
        with pytest.raises(LedgerError, match="rho_hat > 0"):
            Ledger.create(path, "frequentist", budget=1.0, rho_hat=0.0)
        with pytest.raises(LedgerError, match="rho_hat > 0"):
            Ledger.create(
                path,
                "frequentist",
                strata={
                    "us": StratumSpec(budget=1.0, rho_hat=0.1),
                    "eu": StratumSpec(budget=1.0, rho_hat=0.0),
                },
            )
        assert not path.exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("budget", math.nan),
            ("budget", math.inf),
            ("budget", -1.0),
            ("rho_hat", math.nan),
            ("rho_hat", 1.5),
            ("rho_hat", None),
            ("rho_hat", 0.0),
            # A bogus mode would log positives at zero spend, and a bogus
            # endpoint mode fail at the first positive.
            ("mode", "bogus"),
            ("endpoint_mode", "bogus"),
            # A Bayesian header without a model_id would take outcomes
            # under any model.
            ("mode", "bayes"),
        ],
    )
    def test_open_validates_header(self, tmp_path, key, value):
        path = tmp_path / "l.jsonl"
        Ledger.create(path, "frequentist", budget=1.0, rho_hat=0.09).close()
        _rewrite_line(path, 0, lambda header: header.update({key: value}))
        with pytest.raises(LedgerCorruptError):
            Ledger.open(path)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_stored_alpha_is_corrupt(self, tmp_path, value):
        path = tmp_path / "l.jsonl"
        with Ledger.create(
            path, "frequentist", budget=1.0, rho_hat=0.09
        ) as led:
            for i in range(3):
                led.propose(f"t{i}", 1, B, 0.025)

        def edit(entry):
            entry["payload"]["alpha"] = value
            entry["projected"] = value

        _rewrite_line(path, 2, edit)
        with pytest.raises(LedgerCorruptError):
            Ledger.open(path)

    @pytest.mark.parametrize(
        "key, value",
        [("spend_delta", math.inf), ("spent_after", math.nan), ("h", [math.nan])],
    )
    def test_non_finite_stored_spend_is_corrupt(self, tmp_path, key, value):
        path = tmp_path / "b.jsonl"
        model = small_model()
        with Ledger.create(path, "bayes", budget=1.0, model=model) as led:
            led.record_outcome(make_trial("p1", [2.5]), model)
            led.record_outcome(make_trial("p2", [2.8]), model)

        def edit(entry):
            (entry["payload"] if key == "h" else entry)[key] = value

        _rewrite_line(path, 2, edit)
        with pytest.raises(LedgerCorruptError):
            Ledger.open(path)

    def test_non_finite_z_refused_before_any_change(self, tmp_path):
        path = tmp_path / "b.jsonl"
        model = small_model()
        with Ledger.create(path, "bayes", budget=1.0, model=model) as led:
            led.record_outcome(make_trial("p1", [2.5]), model)
            before = (path.read_bytes(), led.status(), led.running_sums())
            with pytest.raises(LedgerError, match="non-finite"):
                led.record_outcome(
                    make_trial("n1", [math.inf], outcome="negative"), model
                )
            assert (path.read_bytes(), led.status(), led.running_sums()) == before
            assert led.record_outcome(make_trial("p2", [2.8]), model).sequence == 2
        with Ledger.open(path) as replayed:
            assert replayed.status()["n_trials"] == 2


class TestReplayStats:
    def test_open_reports_entries_bytes_and_time(self, tmp_path):
        path = tmp_path / "l.jsonl"
        with Ledger.create(
            path, "frequentist", budget=1.0, rho_hat=0.09
        ) as led:
            for i in range(4):
                led.propose(f"t{i}", 1, B, 0.025)
            assert led.replay_stats is None
            live = led.status()
        with Ledger.open(path) as reopened:
            stats = reopened.replay_stats
            assert stats.entries == 4
            assert stats.file_bytes == path.stat().st_size
            assert stats.seconds >= 0.0
            # Timings stay out of status(), which must equal the live one.
            assert reopened.status() == live
            with pytest.raises(AttributeError):
                reopened.replay_stats = None
