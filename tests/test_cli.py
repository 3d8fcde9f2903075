"""End-to-end tests of the command-line interface.

Commands run in-process through ``cli.main`` so exit codes and output
can be asserted exactly; subprocess tests, run with the ``src_env``
fixture, cover the actual entry point and each command's imports.  Exit
code contract: 0 success, 1 usage, 2 data, 3 non-convergence.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from enfp import cli
from enfp.bayes_bounds import omega_hat, positive_result
from enfp.deconv import PriorModel
from enfp.freq_bounds import FreqBoundInput, tau_hat_mixed
from enfp.hcurve import h_probability
from enfp.ledger import Ledger
from enfp.records_io import records_to_csv, records_to_json
from enfp.trials import (
    EfficacyMeasure,
    FailureRegionType,
    RejectionPolicy,
    TrialRecord,
)

B = FailureRegionType.B
A = FailureRegionType.A


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def two_point_model(tmp_path, mass_neg=0.4, name="model.json"):
    grid = np.arange(-120, 241) * 0.025
    masses = np.zeros(grid.size)
    masses[np.argmin(np.abs(grid + 1.0))] = mass_neg
    masses[np.argmin(np.abs(grid - 2.0))] = 1.0 - mass_neg
    model = PriorModel.from_masses(grid, masses)
    path = tmp_path / name
    model.to_json(path)
    return model, path


def single_trial(tid, z, alpha=0.025, stratum=None, outcome=None):
    return TrialRecord(
        trial_id=tid,
        m=1,
        failure_type=B,
        measures=(EfficacyMeasure(endpoint_index=1, z=z),),
        policy=RejectionPolicy.at_alpha(alpha, 1, B),
        stratum=stratum,
        outcome=outcome,
    )


class TestUsageErrors:
    def test_no_command(self, capsys):
        code, _, err = run(capsys)
        assert code == 1
        assert "error" in err

    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1

    def test_bad_flag_value(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "ledger",
            "propose",
            str(tmp_path / "led.jsonl"),
            "--trial-id",
            "t",
            "--alpha",
            "not-a-number",
        )
        assert code == 1

    def test_missing_required_flag(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "ledger", "propose", str(tmp_path / "led.jsonl")
        )
        assert code == 1

    def test_ledger_without_action(self, capsys):
        code, _, err = run(capsys, "ledger")
        assert code == 1
        assert "action" in err

    @pytest.mark.parametrize(
        "flags",
        [
            ["bounds", "--mode", "freq", "--rho", "0.1", "--alphas", "0.1,x"],
            ["bounds", "--mode", "freq", "--rho", "0.1", "--alphas", ","],
            ["bounds", "--mode", "freq", "--rho", "x", "--alphas", "0.1"],
            ["bounds", "--mode", "freq", "--rho", "1.5", "--alphas", "0.1"],
            ["bounds", "--mode", "freq", "--rho", "us=", "--alphas", "0.1"],
            ["bounds", "--mode", "freq", "--rho", "us=x", "--alphas", "0.1"],
            ["bounds", "--mode", "freq", "--rho", "us=2", "--alphas", "0.1"],
            ["ledger", "init", "l.jsonl", "--mode", "freq", "--stratum", "us"],
            ["ledger", "init", "l.jsonl", "--mode", "freq", "--stratum",
             "us=x"],
            ["ledger", "init", "l.jsonl", "--mode", "freq", "--stratum",
             "us=1:y"],
        ],
        ids=[
            "alphas_not_a_number", "alphas_empty", "rho_not_a_number",
            "rho_above_one", "stratum_rho_missing", "stratum_rho_not_a_number",
            "stratum_rho_above_one", "stratum_without_budget",
            "stratum_budget_not_a_number", "stratum_rho_of_init_not_a_number",
        ],
    )
    def test_bad_list_and_stratum_values(self, capsys, tmp_path, flags):
        flags = [str(tmp_path / f) if f == "l.jsonl" else f for f in flags]
        code, out, err = run(capsys, *flags)
        assert code == 1
        assert out == "" and "error: argument" in err
        assert not (tmp_path / "l.jsonl").exists()

    def test_help_lists_every_subcommand(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        for name in ("synth", "fit", "hcurve", "bounds", "ledger", "simulate"):
            assert name in out


class TestSynth:
    def test_writes_requested_shape(self, capsys, tmp_path):
        out_path = tmp_path / "corpus.csv"
        code, out, _ = run(
            capsys,
            "synth",
            "--out",
            str(out_path),
            "--n-exact",
            "120",
            "--n-censored",
            "20",
            "--seed",
            "3",
        )
        assert code == 0
        assert "140 records (120 exact + 20 censored)" in out
        assert len(out_path.read_text().splitlines()) == 141

    def test_byte_reproducible(self, capsys, tmp_path):
        paths = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            code, _, _ = run(
                capsys,
                "synth",
                "--out",
                str(path),
                "--n-exact",
                "80",
                "--n-censored",
                "10",
                "--seed",
                "7",
            )
            assert code == 0
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_json_format(self, capsys, tmp_path):
        path = tmp_path / "corpus.json"
        code, _, _ = run(
            capsys,
            "synth",
            "--out",
            str(path),
            "--n-exact",
            "30",
            "--n-censored",
            "5",
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert len(payload["trials"]) == 35


class TestFit:
    def _corpus(self, capsys, tmp_path, seed=3):
        path = tmp_path / "corpus.csv"
        code, _, _ = run(
            capsys,
            "synth",
            "--out",
            str(path),
            "--n-exact",
            "200",
            "--n-censored",
            "30",
            "--seed",
            str(seed),
        )
        assert code == 0
        return path

    def test_fit_writes_model_and_summary(self, capsys, tmp_path):
        corpus = self._corpus(capsys, tmp_path)
        model_path = tmp_path / "model.json"
        code, out, _ = run(
            capsys, "fit", str(corpus), "--out", str(model_path)
        )
        assert code == 0
        assert "rho_hat = " in out
        assert "converged: yes" in out
        assert "200 exact + 30 censored" in out
        model = PriorModel.from_json(model_path)
        assert model.converged

    def test_byte_reproducible(self, capsys, tmp_path):
        corpus = self._corpus(capsys, tmp_path)
        results = []
        for name in ("m1.json", "m2.json"):
            path = tmp_path / name
            code, out, _ = run(capsys, "fit", str(corpus), "--out", str(path))
            assert code == 0
            results.append((out.replace(name, "MODEL"), path.read_bytes()))
        assert results[0] == results[1]

    def test_empty_records_file_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        code, _, err = run(capsys, "fit", str(path))
        assert code == 2
        assert "error" in err

    def test_malformed_row_reports_row_number(self, capsys, tmp_path):
        corpus = self._corpus(capsys, tmp_path)
        lines = corpus.read_text().splitlines()
        lines[3] = lines[3].replace(",1,B,", ",oops,B,")
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, "fit", str(bad))
        assert code == 2
        assert "row 4" in err

    def test_nonconvergence_exits_3_without_model(self, capsys, tmp_path):
        corpus = self._corpus(capsys, tmp_path)
        model_path = tmp_path / "model.json"
        code, _, err = run(
            capsys,
            "fit",
            str(corpus),
            "--out",
            str(model_path),
            "--max-iter",
            "1",
        )
        assert code == 3
        assert "converge" in err
        assert not model_path.exists()

    def test_bad_fit_flags_are_usage_errors(self, capsys, tmp_path):
        corpus = self._corpus(capsys, tmp_path)
        code, _, _ = run(
            capsys, "fit", str(corpus), "--grid-low", "2.0"
        )
        assert code == 1

    @pytest.mark.parametrize(
        "flags",
        [["--max-iter", "-1"], ["--seed", "-1"], ["--bootstrap", "1"]],
        ids=["max_iter", "seed", "bootstrap"],
    )
    def test_fit_flags_that_can_never_fit_are_usage_errors(
        self, capsys, tmp_path, flags
    ):
        corpus = self._corpus(capsys, tmp_path)
        model_path = tmp_path / "model.json"
        code, out, err = run(
            capsys, "fit", str(corpus), "--out", str(model_path), *flags
        )
        assert code == 1
        assert out == "" and err.startswith("enfp: error: ")
        assert not model_path.exists()

    def test_penalty_path_stages_are_stored(self, capsys, tmp_path):
        corpus = self._corpus(capsys, tmp_path)
        model_path = tmp_path / "model.json"
        code, out, _ = run(capsys, "fit", str(corpus), "--out",
                           str(model_path), "--penalty", "0.25",
                           "--penalty-path", "1.0,0.5,0.1")
        assert code == 0
        path = PriorModel.from_json(model_path).diagnostics["path"]
        assert [stage["penalty_c0"] for stage in path] == [1.0, 0.5, 0.25]
        assert f"({path[-1]['iterations']} iterations" in out

    @pytest.mark.parametrize("spec", ["nan,1.0", "-1,0.5", "inf"])
    def test_bad_penalty_path_is_data_error(self, capsys, tmp_path, spec):
        corpus = self._corpus(capsys, tmp_path)
        code, _, err = run(
            capsys, "fit", str(corpus), f"--penalty-path={spec}"
        )
        assert code == 2
        assert "penalty_path entries must be finite and >= 0" in err

    def test_bootstrap_prints_ci_and_stores_bands(self, capsys, tmp_path):
        corpus = self._corpus(capsys, tmp_path)
        model_path = tmp_path / "model.json"
        code, out, _ = run(
            capsys,
            "fit",
            str(corpus),
            "--out",
            str(model_path),
            "--bootstrap",
            "6",
        )
        assert code == 0
        assert "rho 95% CI [" in out
        model = PriorModel.from_json(model_path)
        boot = model.diagnostics["bootstrap"]
        assert boot["replicates"] == 6
        assert len(boot["h_low"]) == len(boot["z_grid"])

        curve_path = tmp_path / "curve.csv"
        code, out, _ = run(
            capsys,
            "hcurve",
            str(model_path),
            "--out",
            str(curve_path),
        )
        assert code == 0
        rows = curve_path.read_text().splitlines()
        assert rows[0] == "z,h,ci_low,ci_high"
        first = rows[1].split(",")
        assert first[2] != "" and first[3] != ""


class TestHcurve:
    def test_stdout_csv_is_monotone(self, capsys, tmp_path):
        _, model_path = two_point_model(tmp_path)
        code, out, _ = run(
            capsys,
            "hcurve",
            str(model_path),
            "--z-low",
            "-1",
            "--z-high",
            "4",
            "--step",
            "0.05",
        )
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "z,h,ci_low,ci_high"
        h = [float(r.split(",")[1]) for r in rows[1:]]
        assert len(h) == 101
        assert all(b >= a - 1e-12 for a, b in zip(h, h[1:]))

    def test_at_flag_prints_single_value(self, capsys, tmp_path):
        model, model_path = two_point_model(tmp_path)
        code, out, _ = run(capsys, "hcurve", str(model_path), "--at", "1.96")
        assert code == 0
        expected = f"{h_probability(model, 1.96):.6g}"
        assert out.strip() == f"h(1.96) = {expected}"

    def test_svg_written(self, capsys, tmp_path):
        _, model_path = two_point_model(tmp_path)
        svg_path = tmp_path / "curve.svg"
        code, out, _ = run(
            capsys, "hcurve", str(model_path), "--svg", str(svg_path)
        )
        assert code == 0
        text = svg_path.read_text()
        assert text.lstrip().startswith("<svg")

    def test_missing_model_is_data_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "hcurve", str(tmp_path / "nope.json"))
        assert code == 2

    def test_inverted_range_is_usage_error(self, capsys, tmp_path):
        _, model_path = two_point_model(tmp_path)
        code, _, _ = run(
            capsys,
            "hcurve",
            str(model_path),
            "--z-low",
            "4",
            "--z-high",
            "-1",
        )
        assert code == 1

    @pytest.mark.parametrize(
        "flags",
        [
            ("--step", "0"),
            ("--z-high", "inf", "--step", "1"),
            ("--step", "nan"),
            ("--step", "-0.1"),
            ("--z-low=-inf",),
        ],
        ids=["step-zero", "z-high-inf", "step-nan", "step-negative", "z-low-inf"],
    )
    def test_bad_grid_flags_are_usage_errors(self, capsys, tmp_path, flags):
        _, model_path = two_point_model(tmp_path)
        code, out, err = run(capsys, "hcurve", str(model_path), *flags)
        assert code == 1
        assert out == ""
        assert err.startswith("enfp: error: --")


class TestBounds:
    def test_freq_three_alphas(self, capsys):
        code, out, _ = run(
            capsys,
            "bounds",
            "--mode",
            "freq",
            "--rho",
            "0.1",
            "--alphas",
            "0.025,0.05,0.01",
        )
        assert code == 0
        assert "tau_hat = 0.0085" in out

    def test_freq_mixed_records_match_library(self, capsys, tmp_path):
        trials = [
            single_trial("t-1", 2.2, alpha=0.025),
            TrialRecord(
                trial_id="t-2",
                m=2,
                failure_type=A,
                measures=(
                    EfficacyMeasure(endpoint_index=1, z=1.0),
                    EfficacyMeasure(endpoint_index=2, z=0.5),
                ),
                policy=RejectionPolicy.at_alpha(0.05, 2, A),
            ),
            TrialRecord(
                trial_id="t-3",
                m=3,
                failure_type=B,
                measures=tuple(
                    EfficacyMeasure(endpoint_index=i, z=0.1 * i)
                    for i in (1, 2, 3)
                ),
                policy=RejectionPolicy.at_alpha(0.01, 3, B),
            ),
        ]
        path = tmp_path / "trials.csv"
        records_to_csv(trials, path)
        code, out, _ = run(
            capsys,
            "bounds",
            "--mode",
            "frequentist",
            "--rho",
            "0.2",
            "--records",
            str(path),
        )
        assert code == 0
        expected = tau_hat_mixed(
            FreqBoundInput(
                rho_hat=0.2,
                trials=((1, B, 0.025), (2, A, 0.05), (3, B, 0.01)),
            )
        )
        assert f"tau_hat = {expected:.6g}" in out

    def test_freq_stratified(self, capsys, tmp_path):
        trials = [
            single_trial("us-1", 2.0, alpha=0.025, stratum="us"),
            single_trial("us-2", 1.0, alpha=0.05, stratum="us"),
            single_trial("eu-1", 0.5, alpha=0.025, stratum="eu"),
        ]
        path = tmp_path / "trials.csv"
        records_to_csv(trials, path)
        code, out, _ = run(
            capsys,
            "bounds",
            "--mode",
            "freq",
            "--rho",
            "us=0.1,eu=0.05",
            "--records",
            str(path),
        )
        assert code == 0
        assert "stratum eu: tau_hat = 0.00125" in out
        assert "stratum us: tau_hat = 0.0075" in out
        assert "total tau_hat = 0.00875" in out

    @pytest.mark.parametrize(
        "stratum, message",
        [
            (None, "a record has no stratum"),
            ("eu", "no rho given for stratum 'eu'"),
        ],
    )
    def test_freq_stratified_record_without_a_rho(
        self, capsys, tmp_path, stratum, message
    ):
        trials = [
            single_trial("us-1", 2.0, stratum="us"),
            single_trial("x-1", 1.0, stratum=stratum),
        ]
        path = tmp_path / "trials.csv"
        records_to_csv(trials, path)
        code, out, err = run(
            capsys, "bounds", "--mode", "freq", "--rho", "us=0.1",
            "--records", str(path),
        )
        assert code == 2
        assert out == "" and message in err

    def test_freq_h_policy_records_mismatch(self, capsys, tmp_path):
        trial = TrialRecord(
            trial_id="t-1",
            m=1,
            failure_type=B,
            measures=(EfficacyMeasure(endpoint_index=1, z=2.0),),
            policy=RejectionPolicy.at_h_floor(0.975),
        )
        path = tmp_path / "trials.csv"
        records_to_csv([trial], path)
        code, _, err = run(
            capsys,
            "bounds",
            "--mode",
            "freq",
            "--rho",
            "0.1",
            "--records",
            str(path),
        )
        assert code == 2
        assert "alpha-level" in err

    def test_freq_without_rho_is_data_error(self, capsys):
        code, _, err = run(
            capsys, "bounds", "--mode", "freq", "--alphas", "0.025"
        )
        assert code == 2

    @pytest.mark.parametrize("alphas", ["0.025,-1", "0.025,1.5", "0,0.05"])
    def test_freq_alpha_outside_unit_interval_is_data_error(
        self, capsys, alphas
    ):
        code, out, err = run(
            capsys, "bounds", "--mode", "freq", "--rho", "0.1",
            "--alphas", alphas,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("enfp: error: alpha must")
        assert len(err.splitlines()) == 1

    def test_bayes_matches_library(self, capsys, tmp_path):
        model, model_path = two_point_model(tmp_path)
        trials = [
            single_trial("p-1", 2.4, outcome="positive"),
            single_trial("p-2", 3.1, outcome="positive"),
            single_trial("n-1", 0.3, outcome="negative"),
        ]
        path = tmp_path / "trials.csv"
        records_to_csv(trials, path)
        code, out, _ = run(
            capsys,
            "bounds",
            "--mode",
            "bayes",
            "--model",
            str(model_path),
            "--records",
            str(path),
        )
        assert code == 0
        expected = omega_hat(
            [positive_result(t, model) for t in trials[:2]]
        )
        assert f"omega_hat = {expected:.6g} (2 positives of 3 trials)" in out

    def test_bayes_classifies_unlabeled_records(self, capsys, tmp_path):
        model, model_path = two_point_model(tmp_path)
        trials = [single_trial("t-1", 2.4), single_trial("t-2", 0.3)]
        path = tmp_path / "trials.csv"
        records_to_csv(trials, path)
        code, out, _ = run(
            capsys,
            "bounds",
            "--mode",
            "bayes",
            "--model",
            str(model_path),
            "--records",
            str(path),
        )
        assert code == 0
        assert "(1 positives of 2 trials)" in out

    def test_bayes_without_model_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "trials.csv"
        records_to_csv([single_trial("t-1", 2.4, outcome="positive")], path)
        code, _, err = run(
            capsys, "bounds", "--mode", "bayes", "--records", str(path)
        )
        assert code == 2

    def test_no_mode_no_ledger_is_data_error(self, capsys):
        code, _, err = run(capsys, "bounds", "--rho", "0.1")
        assert code == 2


class TestLedgerCli:
    def test_record_skips_censored_trials_without_outcomes(
        self, capsys, tmp_path
    ):
        # The README corpus: 1221 exact trials are classified and
        # recorded, the 172 censored ones are skipped and counted.
        corpus, path = tmp_path / "corpus.csv", tmp_path / "budget.jsonl"
        code, _, _ = run(capsys, "synth", "--out", str(corpus), "--seed", "7")
        assert code == 0
        code, _, _ = run(
            capsys, "ledger", "init", str(path), "--mode", "freq",
            "--budget", "1.0", "--rho", "0.09",
        )
        assert code == 0
        code, out, err = run(
            capsys, "ledger", "record", str(path), "--records", str(corpus)
        )
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert len(lines) == 1222
        assert lines[-1] == "skipped 172 censored trials without outcomes"
        with Ledger.open(path) as led:
            assert led.status()["n_entries"] == 1221

    def test_record_refuses_the_whole_batch(self, capsys, tmp_path):
        # t-2's stratum is unknown: nothing is recorded, not even t-0
        # and t-1, so a rerun after mending the file records each once.
        path = tmp_path / "led.jsonl"
        code, _, _ = run(
            capsys, "ledger", "init", str(path), "--mode", "freq",
            "--stratum", "us=1.0:0.1",
        )
        assert code == 0
        before = path.read_bytes()
        rec_path = tmp_path / "outcomes.csv"
        records_to_csv(
            [
                single_trial("t-0", 2.5, stratum="us", outcome="positive"),
                single_trial("t-1", 0.3, stratum="us", outcome="negative"),
                single_trial("t-2", 2.2, stratum="eu", outcome="positive"),
            ],
            rec_path,
        )
        code, out, err = run(
            capsys, "ledger", "record", str(path), "--records", str(rec_path)
        )
        assert code == 2
        assert "unknown stratum 'eu'" in err
        assert out == ""
        assert path.read_bytes() == before

    def test_adjust_refuses_the_whole_batch(self, capsys, tmp_path):
        # The second trial's z is infinite, which a strict-JSON ledger
        # line cannot hold.
        _, model_path = two_point_model(tmp_path)
        path = tmp_path / "bayes.jsonl"
        run(
            capsys, "ledger", "init", str(path), "--mode", "bayes",
            "--budget", "0.5", "--model", str(model_path),
        )
        before = path.read_bytes()
        rec_path = tmp_path / "adj.csv"
        records_to_csv(
            [single_trial("a-1", 1.5), single_trial("a-2", float("inf"))],
            rec_path,
        )
        code, out, err = run(
            capsys, "ledger", "adjust", str(path), "--records", str(rec_path),
            "--model", str(model_path), "--note", "late unblinding",
        )
        assert code == 2
        assert "non-finite" in err
        assert out == ""
        assert path.read_bytes() == before

    def test_init_prints_capacity(self, capsys, tmp_path):
        path = tmp_path / "led.jsonl"
        code, out, _ = run(
            capsys,
            "ledger",
            "init",
            str(path),
            "--mode",
            "freq",
            "--budget",
            "1",
            "--rho",
            "0.09",
        )
        assert code == 0
        assert path.exists()
        assert "remaining total error 11.1111" in out

    def test_init_refuses_zero_rho_frequentist(self, capsys, tmp_path):
        path = tmp_path / "r0.jsonl"
        code, out, err = run(
            capsys, "ledger", "init", str(path), "--mode", "freq",
            "--budget", "1.0", "--rho", "0",
        )
        assert code == cli.EXIT_DATA
        assert out == ""
        assert "rho_hat > 0" in err
        assert "Traceback" not in err
        assert not path.exists()

    def test_init_refuses_overwrite(self, capsys, tmp_path):
        path = tmp_path / "led.jsonl"
        args = (
            "ledger", "init", str(path),
            "--mode", "freq", "--budget", "1", "--rho", "0.09",
        )
        assert run(capsys, *args)[0] == 0
        code, _, err = run(capsys, *args)
        assert code == 2
        assert "overwrite" in err

    def test_propose_accept_then_reject(self, capsys, tmp_path):
        path = tmp_path / "led.jsonl"
        run(
            capsys,
            "ledger",
            "init",
            str(path),
            "--mode",
            "freq",
            "--budget",
            "0.0625",
            "--rho",
            "0.125",
        )
        outs = []
        for i in range(3):
            code, out, _ = run(
                capsys,
                "ledger",
                "propose",
                str(path),
                "--trial-id",
                f"t-{i}",
                "--alpha",
                "0.25",
            )
            assert code == 0
            outs.append(out)
        assert "accepted" in outs[0] and "accepted" in outs[1]
        assert "REJECTED" in outs[2]
        code, out, _ = run(capsys, "ledger", "status", str(path))
        assert code == 0
        assert "spent 0.0625" in out
        assert "trials 2" in out

    def test_capacity_scenario_444_then_445(self, capsys, tmp_path):
        path = tmp_path / "cap.jsonl"
        run(
            capsys,
            "ledger",
            "init",
            str(path),
            "--mode",
            "freq",
            "--budget",
            "1",
            "--rho",
            "0.09",
        )
        with Ledger.open(path) as led:
            for i in range(444):
                decision = led.propose(f"t-{i:04d}", 1, "B", 0.025)
                assert decision.accepted
        code, out, _ = run(
            capsys,
            "ledger",
            "propose",
            str(path),
            "--trial-id",
            "t-0444",
            "--alpha",
            "0.025",
        )
        assert code == 0
        assert "REJECTED" in out
        assert "1.00125" in out

    def test_record_on_freq_ledger_is_audit_only(self, capsys, tmp_path):
        path = tmp_path / "led.jsonl"
        run(
            capsys,
            "ledger",
            "init",
            str(path),
            "--mode",
            "freq",
            "--budget",
            "1",
            "--rho",
            "0.09",
        )
        rec_path = tmp_path / "outcome.csv"
        records_to_csv(
            [single_trial("t-1", 2.5, outcome="positive")], rec_path
        )
        code, out, _ = run(
            capsys, "ledger", "record", str(path), "--records", str(rec_path)
        )
        assert code == 0
        assert "t-1: positive, spend 0," in out

    def test_bayes_spent_equals_recomputed_omega(self, capsys, tmp_path):
        model, model_path = two_point_model(tmp_path)
        led_path = tmp_path / "bayes.jsonl"
        run(
            capsys,
            "ledger",
            "init",
            str(led_path),
            "--mode",
            "bayes",
            "--budget",
            "0.5",
            "--model",
            str(model_path),
        )
        trials = [
            single_trial("p-1", 2.4, outcome="positive"),
            single_trial("p-2", 3.1, outcome="positive"),
            single_trial("n-1", 0.3, outcome="negative"),
        ]
        rec_path = tmp_path / "outcomes.csv"
        records_to_csv(trials, rec_path)
        code, out, _ = run(
            capsys,
            "ledger",
            "record",
            str(led_path),
            "--records",
            str(rec_path),
            "--model",
            str(model_path),
        )
        assert code == 0
        code, out, _ = run(
            capsys, "ledger", "status", str(led_path), "--json"
        )
        assert code == 0
        status = json.loads(out)
        expected = omega_hat([positive_result(t, model) for t in trials[:2]])
        assert abs(status["spent"] - expected) < 1e-12
        assert status["n_positive"] == 2

    def test_bayes_record_rejects_unpinned_model(self, capsys, tmp_path):
        _, model_path = two_point_model(tmp_path)
        _, other_path = two_point_model(
            tmp_path, mass_neg=0.7, name="other.json"
        )
        led_path = tmp_path / "bayes.jsonl"
        run(
            capsys,
            "ledger",
            "init",
            str(led_path),
            "--mode",
            "bayes",
            "--budget",
            "0.5",
            "--model",
            str(model_path),
        )
        rec_path = tmp_path / "outcomes.csv"
        records_to_csv(
            [single_trial("p-1", 2.4, outcome="positive")], rec_path
        )
        code, _, err = run(
            capsys,
            "ledger",
            "record",
            str(led_path),
            "--records",
            str(rec_path),
            "--model",
            str(other_path),
        )
        assert code == 2
        assert "pinned" in err

    def test_adjust_requires_note(self, capsys, tmp_path):
        model, model_path = two_point_model(tmp_path)
        led_path = tmp_path / "bayes.jsonl"
        run(
            capsys,
            "ledger",
            "init",
            str(led_path),
            "--mode",
            "bayes",
            "--budget",
            "0.5",
            "--model",
            str(model_path),
        )
        rec_path = tmp_path / "adj.csv"
        records_to_csv(
            [single_trial("a-1", 1.5, outcome="negative")], rec_path
        )
        code, _, _ = run(
            capsys,
            "ledger",
            "adjust",
            str(led_path),
            "--records",
            str(rec_path),
            "--model",
            str(model_path),
        )
        assert code == 1  # --note is required
        code, _, err = run(
            capsys,
            "ledger",
            "adjust",
            str(led_path),
            "--records",
            str(rec_path),
            "--model",
            str(model_path),
            "--note",
            "   ",
        )
        assert code == 2  # whitespace note is a data error
        code, out, _ = run(
            capsys,
            "ledger",
            "adjust",
            str(led_path),
            "--records",
            str(rec_path),
            "--model",
            str(model_path),
            "--note",
            "late endpoint reassessment",
        )
        assert code == 0
        assert "fraction" in out

    def test_corrupt_ledger_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "led.jsonl"
        run(
            capsys,
            "ledger",
            "init",
            str(path),
            "--mode",
            "freq",
            "--budget",
            "1",
            "--rho",
            "0.09",
        )
        run(
            capsys,
            "ledger",
            "propose",
            str(path),
            "--trial-id",
            "t-1",
            "--alpha",
            "0.025",
        )
        text = path.read_text().replace('"alpha":0.025', '"alpha":0.05')
        assert '"alpha":0.05' in text  # the tamper must land
        path.write_text(text)
        code, _, err = run(capsys, "ledger", "status", str(path))
        assert code == 2

    def test_propose_on_bayes_ledger_is_data_error(self, capsys, tmp_path):
        _, model_path = two_point_model(tmp_path)
        path = tmp_path / "bayes.jsonl"
        run(
            capsys,
            "ledger",
            "init",
            str(path),
            "--mode",
            "bayes",
            "--budget",
            "0.5",
            "--model",
            str(model_path),
        )
        code, _, err = run(
            capsys,
            "ledger",
            "propose",
            str(path),
            "--trial-id",
            "t",
            "--alpha",
            "0.025",
        )
        assert code == 2

    def test_propose_with_m_past_the_largest_float_is_data_error(
        self, capsys, tmp_path
    ):
        # m * rho would overflow a float: refused, naming the field, with
        # the file left as it was.
        path = tmp_path / "led.jsonl"
        args = ("--mode", "freq", "--budget", "1", "--rho", "0.09")
        assert run(capsys, "ledger", "init", str(path), *args)[0] == 0
        before = path.read_bytes()
        code, out, err = run(
            capsys, "ledger", "propose", str(path), "--trial-id", "t-1",
            "--alpha", "0.025", "--type", "B", "--m", str(10**400),
        )
        assert (code, out) == (2, "")
        assert err.startswith("enfp: error: payload.m: ") and err.count("\n") == 1
        assert path.read_bytes() == before

    def test_propose_past_a_float_sum_of_deltas_is_data_error(
        self, capsys, tmp_path
    ):
        # Each m * rho is a float but the sum of two is not: the second
        # proposal is refused in one line, with the file left as it was.
        path = tmp_path / "led.jsonl"
        args = ("--mode", "freq", "--budget", "1", "--rho", "1.0")
        assert run(capsys, "ledger", "init", str(path), *args)[0] == 0
        propose = (
            "ledger", "propose", str(path), "--alpha", "5e-324",
            "--type", "B", "--m", str(10**308), "--trial-id",
        )
        assert run(capsys, *propose, "t-1")[0] == 0
        before = path.read_bytes()
        code, out, err = run(capsys, *propose, "t-2")
        assert (code, out) == (2, "")
        assert err == "enfp: error: sum of deltas passes the largest float\n"
        assert path.read_bytes() == before

    def test_stratified_flow(self, capsys, tmp_path):
        path = tmp_path / "led.jsonl"
        code, out, _ = run(
            capsys,
            "ledger",
            "init",
            str(path),
            "--mode",
            "freq",
            "--stratum",
            "us=0.0625:0.125",
            "--stratum",
            "eu=0.625:0.125",
            "--endpoint-mode",
            "designated",
        )
        assert code == 0
        assert "stratum eu" in out and "stratum us" in out
        code, out, _ = run(
            capsys,
            "ledger",
            "propose",
            str(path),
            "--trial-id",
            "us-1",
            "--alpha",
            "0.25",
            "--stratum",
            "us",
        )
        assert code == 0 and "accepted" in out
        code, _, err = run(
            capsys,
            "ledger",
            "propose",
            str(path),
            "--trial-id",
            "x-1",
            "--alpha",
            "0.25",
        )
        assert code == 2  # stratified ledger requires a label
        code, out, _ = run(capsys, "ledger", "status", str(path))
        assert code == 0
        assert "total: budget 0.6875" in out

    def test_bounds_from_ledger(self, capsys, tmp_path):
        path = tmp_path / "led.jsonl"
        run(
            capsys,
            "ledger",
            "init",
            str(path),
            "--mode",
            "freq",
            "--budget",
            "1",
            "--rho",
            "0.125",
        )
        run(
            capsys,
            "ledger",
            "propose",
            str(path),
            "--trial-id",
            "t-1",
            "--alpha",
            "0.25",
        )
        code, out, _ = run(capsys, "bounds", "--ledger", str(path))
        assert code == 0
        assert "tau_hat (ledger spend) = 0.03125" in out


def write_scenario(tmp_path, name="scenario.json", **overrides):
    cfg = {
        "format": "enfp-scenario/1",
        "true_prior": {"theta": [-1.0, 2.0], "mass": [0.2, 0.8]},
        "n_trials": 2000,
        "m_distribution": [[1, "B", 0.7], [2, "A", 0.3]],
        "policy": {"kind": "fixed_alpha", "alpha_menu": [0.025]},
        "seed": 11,
        "replicates": 2,
        "endpoint_correlation": 0.0,
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestSimulateCli:
    def test_runs_and_writes_report(self, capsys, tmp_path):
        scenario = write_scenario(tmp_path)
        report_path = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "simulate", str(scenario), "--out", str(report_path)
        )
        assert code == 0
        assert "tau-hat (frequentist bound)" in out
        assert "concordance detail:" in out
        report = json.loads(report_path.read_text())
        assert report["replicates"] == 2
        assert report["bound_violations"] == {"tau": False, "omega": False}

    def test_byte_reproducible(self, capsys, tmp_path):
        scenario = write_scenario(tmp_path)
        runs = []
        for name in ("r1.json", "r2.json"):
            path = tmp_path / name
            code, out, _ = run(
                capsys, "simulate", str(scenario), "--out", str(path)
            )
            assert code == 0
            runs.append((out.replace(name, "R"), path.read_bytes()))
        assert runs[0] == runs[1]

    def test_single_replicate_reports_se_absent(self, capsys, tmp_path):
        scenario = write_scenario(tmp_path)
        report_path = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            "simulate",
            str(scenario),
            "--replicates",
            "1",
            "--out",
            str(report_path),
        )
        assert code == 0
        assert "(SE n/a)" in out
        report = json.loads(report_path.read_text())
        assert report["tau_hat_se"] is None
        assert report["realized_fp_se"] is None
        assert report["omega_hat_se"] is None

    def test_invalid_scenario_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "enfp-scenario/1", "n_trials": 100}')
        code, _, err = run(capsys, "simulate", str(path))
        assert code == 2
        assert "invalid scenario" in err

    @pytest.mark.parametrize("rho", ["nan", "2", "-0.5"])
    def test_bad_rho_is_data_error(self, capsys, tmp_path, rho):
        scenario = write_scenario(tmp_path)
        code, out, err = run(capsys, "simulate", str(scenario), "--rho", rho)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("enfp: error: rho must lie in [0, 1], got ")

    def test_missing_scenario_is_data_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "simulate", str(tmp_path / "nope.json"))
        assert code == 2

    def test_adversarial_failure_reported_not_crashed(
        self, capsys, tmp_path
    ):
        scenario = write_scenario(
            tmp_path,
            name="adversarial.json",
            true_prior={"theta": [-2.0, 3.0], "mass": [0.3, 0.7]},
            n_trials=20000,
            m_distribution=[[1, "B", 1.0]],
            policy={
                "kind": "adversarial",
                "alpha_menu": [0.001, 0.3],
                "signal_noise": 0.5,
            },
        )
        code, out, _ = run(capsys, "simulate", str(scenario))
        assert code == 0
        assert "FAIL" in out

    def test_color_toggle(self, capsys, tmp_path, monkeypatch):
        scenario = write_scenario(tmp_path)
        monkeypatch.setenv("ENFP_COLOR", "1")
        code, out, _ = run(capsys, "simulate", str(scenario))
        assert code == 0
        assert "\x1b[" in out


class TestEntryPoint:
    def test_module_invocation(self, src_env):
        proc = subprocess.run(
            [sys.executable, "-m", "enfp.cli", "--help"],
            capture_output=True,
            text=True,
            env=src_env,
        )
        assert proc.returncode == 0
        assert "ledger" in proc.stdout

    def test_usage_exit_code_from_subprocess(self, src_env):
        proc = subprocess.run(
            [sys.executable, "-m", "enfp.cli", "frobnicate"],
            capture_output=True,
            text=True,
            env=src_env,
        )
        assert proc.returncode == 1

    def test_import_loads_no_scipy(self, src_env):
        # Resolve every public name first: the namespace is lazy, so a
        # bare import would check cli.py alone.
        code = (
            "import sys, enfp, enfp.cli; "
            "[getattr(enfp, name) for name in enfp.__all__]; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=src_env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


def enfp_modules_after(env, *argv):
    """The enfp submodules, and ``numpy`` and the ``POOL_MODULES`` if
    loaded, that a fresh interpreter, started with ``env``, holds after
    a successful ``cli.main(argv)``."""
    code = (
        "import json, sys\n"
        "from enfp import cli\n"
        f"code = cli.main({list(argv)!r})\n"
        "mods = sorted(m for m in sys.modules if m.startswith('enfp.')\n"
        f"              or m in {sorted({'numpy'} | POOL_MODULES)!r})\n"
        "print(json.dumps([code, mods]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    code, mods = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    return {m.removeprefix("enfp.") for m in mods}


# Process and thread pools: h_values runs its threads itself, so no
# command loads these at start-up.
POOL_MODULES = {"concurrent.futures", "multiprocessing"}

# What a frequentist command runs on exact sums never loads.
ARRAY_PATH = {
    "deconv", "hcurve", "bayes_bounds", "records_io", "simulate", "numpy"
}


class TestImportFootprint:
    """Each subcommand imports only the modules it runs, and the
    frequentist commands and a Bayesian ledger's replay load no numpy."""

    def test_help_loads_only_cli(self, src_env):
        assert enfp_modules_after(src_env, "--help") == {"cli"}

    def test_freq_bounds_from_alphas(self, src_env):
        mods = enfp_modules_after(
            src_env,
            "bounds", "--mode", "freq", "--rho", "0.1", "--alphas", "0.025,0.05"
        )
        assert "freq_bounds" in mods
        assert not mods & (ARRAY_PATH | {"ledger"})

    def test_freq_ledger_status(self, tmp_path, src_env):
        path = tmp_path / "budget.jsonl"
        Ledger.create(path, "frequentist", budget=1.0, rho_hat=0.09).close()
        mods = enfp_modules_after(
            src_env, "ledger", "status", str(path), "--json"
        )
        assert "ledger" in mods
        assert not mods & ARRAY_PATH

    def test_freq_ledger_init_propose_and_bound(self, tmp_path, src_env):
        path = str(tmp_path / "budget.jsonl")
        for argv in (
            ("ledger", "init", path, "--mode", "freq", "--budget", "1.0",
             "--rho", "0.09"),
            ("ledger", "propose", path, "--trial-id", "t-001", "--alpha",
             "0.025"),
            ("bounds", "--ledger", path),
        ):
            mods = enfp_modules_after(src_env, *argv)
            assert "ledger" in mods, argv
            assert not mods & ARRAY_PATH, argv

    def test_bayes_ledger_status_and_bound(self, tmp_path, src_env):
        # Replay reads the stored h values through the endpoint rule of
        # enfp.trials: nothing of the array path loads.
        model, _ = two_point_model(tmp_path)
        path = tmp_path / "budget.jsonl"
        with Ledger.create(path, "bayes", budget=1.0, model=model) as led:
            led.record_outcome(single_trial("t-1", 2.4, outcome="positive"),
                               model)
        for argv in (
            ("ledger", "status", str(path), "--json"),
            ("bounds", "--ledger", str(path)),
        ):
            mods = enfp_modules_after(src_env, *argv)
            assert "ledger" in mods, argv
            assert not mods & ARRAY_PATH, argv

    def test_synth(self, tmp_path, src_env):
        out = tmp_path / "corpus.csv"
        mods = enfp_modules_after(
            src_env,
            "synth", "--out", str(out), "--n-exact", "20", "--n-censored", "5"
        )
        assert {"records_io", "numpy"} <= mods
        assert not mods & {"deconv", "ledger", "simulate"}

    def test_array_commands_load_no_pool_module(self, tmp_path, src_env):
        corpus, model = tmp_path / "corpus.csv", tmp_path / "model.json"
        for argv in (
            ("synth", "--out", str(corpus), "--n-exact", "200",
             "--n-censored", "30"),
            ("fit", str(corpus), "--out", str(model)),
            ("hcurve", str(model), "--at", "1.96"),
            ("simulate", str(write_scenario(tmp_path))),
        ):
            mods = enfp_modules_after(src_env, *argv)
            assert not mods & POOL_MODULES, argv


class TestNamespace:
    def test_bare_import_loads_no_submodule(self, src_env):
        code = (
            "import sys, enfp; "
            "print(sorted(m for m in sys.modules if m.startswith('enfp.')))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=src_env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_every_public_name_resolves(self):
        import enfp

        assert enfp.Ledger is Ledger
        assert enfp.fit_g.__module__ == "enfp.deconv"
        for name in enfp.__all__:
            assert getattr(enfp, name) is not None, name
        assert set(enfp.__all__) <= set(dir(enfp))

    def test_star_import_binds_every_name(self):
        import enfp

        namespace = {}
        exec("from enfp import *", namespace)
        for name in enfp.__all__:
            assert namespace[name] is getattr(enfp, name), name

    def test_unknown_name_is_attribute_error(self):
        import enfp

        with pytest.raises(AttributeError, match="no_such_name"):
            enfp.no_such_name
        assert not hasattr(enfp, "no_such_name")
