"""The four benchmark workloads.

Each is a closed loop: one caller in one process, each call waiting for
the last.  ``setup`` builds the inputs from the workload seed (it may run
several times; each run replaces the last), ``run_pass`` does one
measured pass and checks its outputs, and ``e2e`` reduces the passes to
the workload's own end-to-end metrics as (value, sample count).
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time

import numpy as np

from enfp import bayes_bounds, deconv, freq_bounds, hcurve, records_io
from enfp import simulate, trials
from enfp.ledger import Ledger
from metrics import median, percentile

# The README configuration of the prior fit.
README_FIT = deconv.FitConfig(
    grid_low=-6.0,
    grid_high=10.0,
    basis_df=20,
    penalty_c0=0.01,
    max_iterations=1500,
)
PENALTY_PATH = (1.0, 0.25, 0.05)
CORPUS_SEEDS = (7, 8, 9)  # 7 is the README's
BAND_GRID = np.arange(-40, 101) * 0.1  # the CLI's bootstrap band grid
H_TARGETS = (0.5, 0.9, 0.99)

# Criterion-5 mixed-m designs and the signal-policy alpha menu.
MIXED_M = ((1, "B", 0.4), (2, "A", 0.2), (2, "B", 0.2), (3, "B", 0.2))
MENU = (0.005, 0.01, 0.025, 0.05)

# Relative tolerance of the default-seed comparison: loose enough for a
# change that only reorders a summation, tight enough to catch a wrong
# answer.  CLI numbers print at 6 significant digits.
REF_RTOL = 1e-6
CLI_RTOL = 1e-5
SUM_RTOL = 1e-12


def sub_seed(seed: int, *path: int) -> int:
    """A 31-bit seed derived from the workload seed and a path."""
    return int(np.random.default_rng([seed, *path]).integers(0, 2**31 - 1))


def fit_readme_model(tiny: bool):
    """The README model: the README fit of the README corpus (seed 7)."""
    records = records_io.synthesize_corpus(
        n_exact=300 if tiny else 1221,
        n_censored=40 if tiny else 172,
        seed=CORPUS_SEEDS[0],
    )
    obs = records_io.extract_observations(records)
    return deconv.fit_g_path(obs, README_FIT, penalty_path=PENALTY_PATH)


class Aborted(Exception):
    """An operation raised; the rest of the pass is skipped."""


class Pass:
    """Operations attempted and failed in one pass, plus its samples."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.samples: dict = {}  # name -> list of seconds
        self.observed: dict = {}  # values compared on the default seed
        self.wall = 0.0
        self._failed_now = False

    def add(self, name: str, seconds: float) -> None:
        self.samples.setdefault(name, []).append(seconds)

    def op(self, name: str, fn, *args, **kwargs):
        """Run one operation, counting it; an exception aborts the pass."""
        self.attempted += 1
        self._failed_now = False
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self._fail(f"{name}: {exc!r}")
            raise Aborted(name) from exc

    def expect(self, ok: bool, what: str) -> None:
        """An output check on the last operation."""
        if not ok:
            self._fail(what)

    def _fail(self, what: str) -> None:
        if not self._failed_now:
            self.failed += 1
            self._failed_now = True
        if len(self.errors) < 20:
            self.errors.append(what)


def rel_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def timed(p: Pass, key: str, name: str, fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = p.op(name, fn, *args, **kwargs)
    p.add(key, time.perf_counter() - t0)
    return out


def _pass_stat(passes, key: str):
    """Median over passes of the per-pass total of ``key``, in seconds."""
    values = [sum(p.samples[key]) for p in passes if key in p.samples]
    return median(values), len(values)


def _latency(passes, key: str, q: float):
    """Percentile q of every ``key`` sample, in ms."""
    values = [1e3 * s for p in passes for s in p.samples.get(key, ())]
    return percentile(values, q), len(values)


class Workload:
    name = ""
    child_processes = False  # peak RSS is the children's, not ours
    tracer = None  # set during the traced passes
    ref_rtol = REF_RTOL

    def __init__(self, seed: int, tiny: bool, scratch: str, root: str):
        self.seed = seed
        self.tiny = tiny
        self.scratch = scratch
        self.root = root

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self, p: Pass) -> None:
        """Inputs of one pass, made before its timing starts."""

    def run_pass(self, p: Pass) -> None:
        raise NotImplementedError

    def e2e(self, passes: list) -> dict:
        """Workload-specific end-to-end metrics: name -> (value, n)."""
        return {}

    def probe(self, tracer) -> None:
        """Measurements made once after the passes, with nothing wrapped,
        recorded as spans of their own."""

    def span(self, name: str, layer: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name, layer)

    def fresh_dir(self, tag: str) -> str:
        return tempfile.mkdtemp(prefix=f"{self.name}-{tag}-", dir=self.scratch)


# ----------------------------------------------------------------------


class FitCorpus(Workload):
    """The analyst's path, from a corpus file to a fitted prior and h."""

    name = "fit_corpus"

    def setup(self) -> None:
        # A fixed registry of README-shape corpora, swept once per pass.
        # The cold fit inside bootstrap takes 30 to 400 Newton iterations
        # depending on the corpus, so corpora drawn per seed would make
        # the pass time vary more between seeds than any bound could
        # tolerate; the workload seed drives the bootstrap resampling.
        self.corpora = [
            records_io.synthesize_corpus(
                n_exact=200 if self.tiny else 1221,
                n_censored=30 if self.tiny else 172,
                seed=corpus_seed,
            )
            for corpus_seed in CORPUS_SEEDS
        ]
        self.replicates = 3 if self.tiny else 8

    def run_pass(self, p: Pass) -> None:
        for c, records in enumerate(self.corpora):
            self._analyse(p, c, records)

    def _analyse(self, p: Pass, c: int, records) -> None:
        path = os.path.join(self.fresh_dir(f"p{p.index}-c{c}"), "corpus.csv")
        p.op("records_to_csv", records_io.records_to_csv, records, path)
        loaded = p.op("records_from_csv", records_io.records_from_csv, path)
        p.expect(loaded == records, "CSV round trip changed the records")
        obs = p.op("extract_observations", records_io.extract_observations, loaded)
        p.expect(
            obs.n_total == len(records) and len(obs.censored) > 0,
            "observations lost rows or censored intervals",
        )

        cfg = dataclasses.replace(
            README_FIT, seed=sub_seed(self.seed, 2, p.index, c)
        )
        model = timed(p, "fit", "fit_g_path", deconv.fit_g_path, obs, cfg,
                      penalty_path=PENALTY_PATH)
        trace = np.asarray(model.diagnostics["objective_trace"])
        p.expect(model.converged, "fit did not converge")
        p.expect(
            bool(np.all(np.diff(trace) >= -1e-6 * (1.0 + np.abs(trace[:-1])))),
            "fit objective trace decreased",
        )
        loglik = deconv.log_likelihood(model, obs)
        p.expect(
            rel_close(loglik, model.log_likelihood, SUM_RTOL),
            "log_likelihood(model, obs) differs from the stored value",
        )

        boot = timed(p, "bootstrap", "bootstrap", deconv.bootstrap, obs, cfg,
                     replicates=self.replicates, z_grid=BAND_GRID)
        p.expect(
            boot.n_converged + boot.n_failed == boot.replicates == self.replicates,
            "bootstrap replicate counts do not add up",
        )
        curve = p.op("h_curve", hcurve.h_curve, model, BAND_GRID,
                     ci_low=boot.h_low, ci_high=boot.h_high)
        p.expect(bool(np.all(np.diff(curve.h_values) >= -1e-9)),
                 "h curve is not monotone")
        z_star = []
        for h0 in H_TARGETS:
            z = p.op("z_for_h", hcurve.z_for_h, model, h0)
            p.expect(
                float(hcurve.h_values(model, z)) >= h0,
                f"h(z_for_h({h0})) < {h0}",
            )
            z_star.append(z)
        if p.index == 0:
            observed = {
                "n_exact": len(obs.exact_z),
                "n_censored": len(obs.censored),
                "rho_hat": deconv.rho_from_g(model),
                "log_likelihood": model.log_likelihood,
                "rho_ci_low": boot.rho_ci[0],
                "rho_ci_high": boot.rho_ci[1],
                "h_at_1.96": float(hcurve.h_values(model, 1.96)),
                **{f"z_for_h_{h0}": z for h0, z in zip(H_TARGETS, z_star)},
            }
            p.observed.update({f"corpus{c}.{k}": v for k, v in observed.items()})

    def e2e(self, passes):
        return {
            "fit_s": _pass_stat(passes, "fit"),
            "bootstrap_s": _pass_stat(passes, "bootstrap"),
        }


# ----------------------------------------------------------------------


class ValidateGrid(Workload):
    """The Monte Carlo oracle on criterion-5 mixed-m cells."""

    name = "validate_grid"

    RHO = 0.2

    def setup(self) -> None:
        self.model = fit_readme_model(self.tiny)
        self.rho_fit = deconv.rho_from_g(self.model)
        self.n_trials = 5000 if self.tiny else 100_000
        self.replicates = 2

    def _cell(self, kind: str, seed: int) -> simulate.ScenarioConfig:
        rho = self.RHO
        masses = (0.6 * rho, 0.4 * rho, 0.3 * (1 - rho), 0.4 * (1 - rho),
                  0.3 * (1 - rho))
        menu = (0.025,) if kind == "fixed_alpha" else MENU
        return simulate.ScenarioConfig(
            true_prior=((-2.0, -0.5, 1.0, 2.5, 3.5), masses),
            n_trials=self.n_trials,
            m_distribution=MIXED_M,
            policy=simulate.PolicySpec(kind=kind, alpha_menu=menu,
                                       signal_noise=1.0),
            seed=seed,
            replicates=self.replicates,
        )

    CELLS = (
        ("oracle_concordant", "signal_concordant", False),
        ("oracle_fixed", "fixed_alpha", False),
        ("fitted_concordant", "signal_concordant", True),
    )

    def run_pass(self, p: Pass) -> None:
        for j, (label, kind, fitted) in enumerate(self.CELLS):
            cfg = self._cell(kind, sub_seed(self.seed, 3, p.index, j))
            if fitted:
                report = p.op(label, simulate.validate_bounds, cfg,
                              rho_for_bound=self.rho_fit,
                              model_for_bound=self.model)
                p.expect(report.model_id == self.model.model_id,
                         "fitted cell did not use the fitted model")
            else:
                report = p.op(label, simulate.validate_bounds, cfg)
                p.expect(not any(report.bound_violations.values()),
                         f"{label}: oracle-mode bound violation")
            p.expect(
                all(math.isfinite(x) for x in (
                    report.tau_hat_mean, report.omega_hat_mean,
                    report.realized_fp_mean)),
                f"{label}: non-finite report",
            )
            if p.index == 0:
                reps = cfg.replicates
                p.observed.update({
                    f"{label}.fp_count": int(round(report.realized_fp_mean * reps)),
                    f"{label}.positive_count": int(
                        round(report.positive_count_mean * reps)),
                    f"{label}.tau_hat_mean": report.tau_hat_mean,
                    f"{label}.omega_hat_mean": report.omega_hat_mean,
                })

    def e2e(self, passes):
        trials = len(self.CELLS) * self.n_trials * self.replicates
        rates = [trials / p.wall for p in passes]
        return {"trials_per_s": (median(rates), len(rates))}


# ----------------------------------------------------------------------


class LedgerPortfolio(Workload):
    """A budget operator's session on ledgers that already hold a history."""

    name = "ledger_portfolio"

    READ_EVERY = 8  # one status read per this many writes
    N_ADJUST = 5

    def setup(self) -> None:
        # Set-up writes the history through the public API: thousands of
        # proposals under a budget that starts refusing near their end, and
        # the Bayesian outcomes so far.  Each pass copies it and continues.
        # Most of a pass is then replay, which is quadratic in the entries,
        # rather than fsync, whose latency on a shared disk swings by 2x
        # for minutes at a time.  The history is an input, so it is written
        # without fsync: its entries are the same, only not forced to disk.
        self.model = fit_readme_model(self.tiny)
        self.rho = deconv.rho_from_g(self.model)
        n_hist, n_prop = (150, 50) if self.tiny else (3000, 400)
        n_hist_out, n_out = (40, 20) if self.tiny else (800, 200)
        target = 140 if self.tiny else 2800
        # Writes per operator session.  Each session reopens (replays) the
        # file, as every `enfp ledger` command does.
        self.session = 20 if self.tiny else 100
        rng = np.random.default_rng([self.seed, 4])
        designs = [(m, t) for m, t, _ in MIXED_M]
        probs = [w for _, _, w in MIXED_M]
        mean_delta = sum(w * (1 if t == "A" else m) for m, t, w in MIXED_M)
        # projected ~ rho * mean_delta * mean_alpha * n crosses the budget
        # near `target` accepted designs.
        self.budget = self.rho * mean_delta * float(np.mean(MENU)) * target
        pick = rng.choice(len(designs), size=n_hist + n_prop, p=probs)
        alphas = rng.choice(MENU, size=n_hist + n_prop)
        proposals = [
            (f"f-{i:05d}", *designs[d], float(a))
            for i, (d, a) in enumerate(zip(pick, alphas))
        ]
        theta = np.asarray(self.model.theta_grid)
        masses = np.asarray(self.model.masses)
        outcomes = []
        for i in range(n_hist_out + n_out):
            m, t = designs[rng.choice(len(designs), p=probs)]
            alpha = float(rng.choice(MENU))
            z = rng.choice(theta, size=m, p=masses) + rng.standard_normal(m)
            ftype = trials.FailureRegionType(t)
            outcomes.append(trials.TrialRecord(
                trial_id=f"b-{i:05d}",
                m=m,
                failure_type=ftype,
                measures=tuple(
                    trials.EfficacyMeasure(endpoint_index=j + 1, z=float(z[j]))
                    for j in range(m)
                ),
                policy=trials.RejectionPolicy.at_alpha(alpha, m, ftype),
            ))
        self.proposals = proposals[n_hist:]
        self.trials = outcomes[n_hist_out:]

        history = self.fresh_dir("history")
        self.history = {
            kind: os.path.join(history, f"{kind}.jsonl")
            for kind in ("freq", "bayes")
        }
        fsync = os.fsync
        os.fsync = lambda fd: None
        try:
            with Ledger.create(self.history["freq"], mode="frequentist",
                               budget=self.budget, rho_hat=self.rho) as freq:
                for trial_id, m, t, alpha in proposals[:n_hist]:
                    freq.propose(trial_id, m=m, t=t, alpha=alpha)
            with Ledger.create(self.history["bayes"], mode="bayes",
                               budget=10.0, model=self.model) as bayes:
                for trial in outcomes[:n_hist_out]:
                    outcome = trials.classify_rejection(trial)
                    bayes.record_outcome(trial.with_outcome(outcome), self.model)
        finally:
            os.fsync = fsync

    def _next_write(self, p: Pass, ledger, i: int):
        """Read every READ_EVERY writes; reopen at each session start."""
        if i % self.READ_EVERY == 0:
            timed(p, "read", "status", ledger.status)
        if i and i % self.session == 0:
            ledger.close()
            ledger = p.op("open", Ledger.open, ledger.path)
        return ledger

    def prepare(self, p: Pass) -> None:
        """Copy the history, forced to disk so that the first fsync of the
        pass carries only its own entry."""
        workdir = self.last_dir = self.fresh_dir(f"p{p.index}")
        self.paths = {}
        for kind, source in self.history.items():
            self.paths[kind] = shutil.copy(source, workdir)
            with open(self.paths[kind], "rb") as fh:
                os.fsync(fh.fileno())

    def run_pass(self, p: Pass) -> None:
        paths = self.paths
        freq = p.op("open", Ledger.open, paths["freq"])
        n_accepted = n_rejected = 0
        for i, (trial_id, m, t, alpha) in enumerate(self.proposals):
            freq = self._next_write(p, freq, i)
            decision = timed(p, "write", "propose", freq.propose, trial_id,
                             m=m, t=t, alpha=alpha)
            if decision.accepted:
                n_accepted += 1
                p.expect(decision.projected <= self.budget,
                         "accepted a proposal over budget")
            else:
                n_rejected += 1
                p.expect(decision.projected > self.budget,
                         "rejected a proposal within budget")

        bayes = p.op("open", Ledger.open, paths["bayes"])
        n_positive = 0
        negatives = []
        for i, trial in enumerate(self.trials):
            bayes = self._next_write(p, bayes, i)
            t0 = time.perf_counter()
            outcome = p.op("classify", trials.classify_rejection, trial)
            classified = trial.with_outcome(outcome)
            p.op("record_outcome", bayes.record_outcome, classified, self.model)
            p.add("write", time.perf_counter() - t0)
            if outcome == "positive":
                n_positive += 1
            else:
                negatives.append(classified)
        for trial in negatives[: self.N_ADJUST]:
            timed(p, "write", "record_adjustment", bayes.record_adjustment,
                  trial, self.model, "post-hoc rescue")

        live = {}
        for label, ledger in (("freq", freq), ("bayes", bayes)):
            live[label] = (ledger.status(), ledger.entries(), ledger.running_sums())
            ledger.close()

        t0 = time.perf_counter()
        with self.span("bench.replay", "bench"):
            replayed = {
                label: p.op("open", Ledger.open, path)
                for label, path in paths.items()
            }
        p.add("replay", time.perf_counter() - t0)
        for label, ledger in replayed.items():
            state = (ledger.status(), ledger.entries(), ledger.running_sums())
            ledger.close()
            p.expect(state == live[label], f"{label} replay differs from live state")

        freq_spent = live["freq"][0]["spent"]
        designs = tuple(
            freq_bounds.TrialSpec(m=e["payload"]["m"], t=e["payload"]["t"],
                                  alpha=e["payload"]["alpha"])
            for e in live["freq"][1]
        )
        tau = p.op("tau_hat_mixed", freq_bounds.tau_hat_mixed,
                   freq_bounds.FreqBoundInput(rho_hat=self.rho, trials=designs))
        p.expect(rel_close(tau, freq_spent, SUM_RTOL),
                 "tau_hat_mixed over accepted designs differs from spent")
        frozen = [
            bayes_bounds.PositiveTrialResult(
                trial_id=e["trial_id"],
                m=e["payload"]["m"],
                failure_type=e["payload"]["t"],
                z_values=e["payload"]["z"],
                h_values=e["payload"]["h"],
            )
            for e in live["bayes"][1]
            if "h" in e["payload"]
        ]
        bayes_spent = live["bayes"][0]["spent"]
        omega = p.op("omega_hat", bayes_bounds.omega_hat, frozen)
        p.expect(rel_close(omega, bayes_spent, SUM_RTOL),
                 "omega_hat over frozen results differs from spent")
        if p.index == 0:
            p.observed = {
                "entries": len(live["freq"][1]) + len(live["bayes"][1]),
                "accepted": n_accepted,
                "rejected": n_rejected,
                "positive": n_positive,
                "freq_spent": freq_spent,
                "bayes_spent": bayes_spent,
            }

    def probe(self, tracer) -> None:
        """Replay the last frequentist file at two sizes: its first 1000
        entries and in full."""
        path = os.path.join(self.last_dir, "freq.jsonl")
        with open(path) as fh:
            lines = fh.readlines()
        prefix = os.path.join(self.last_dir, "freq-prefix.jsonl")
        with open(prefix, "w") as fh:
            fh.writelines(lines[: 1 + min(1000, len(lines) - 1)])
        tracer.run_id = "probe"
        for size, target in (("small", prefix), ("large", path)):
            with tracer.span("ledger.Ledger.open", "ledger", probe=size) as rec:
                ledger = Ledger.open(target)
            rec["entries"] = len(ledger.entries())
            ledger.close()

    def e2e(self, passes):
        return {
            "write_p50_ms": _latency(passes, "write", 50),
            "write_p99_ms": _latency(passes, "write", 99),
            "read_p50_ms": _latency(passes, "read", 50),
            "replay_s": _pass_stat(passes, "replay"),
        }


# ----------------------------------------------------------------------


class CliPipeline(Workload):
    """The README CLI quickstart, one process per step."""

    name = "cli_pipeline"
    child_processes = True
    ref_rtol = CLI_RTOL

    def setup(self) -> None:
        self.env = dict(os.environ)
        src = os.path.join(self.root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.env.pop("ENFP_COLOR", None)
        with open(os.path.join(self.root, "scenarios", "concordant_baseline.json")) as fh:
            scenario = json.load(fh)
        scenario["seed"] = sub_seed(self.seed, 5)
        if self.tiny:
            scenario["n_trials"] = 2000
            scenario["replicates"] = 2
        self.scenario = scenario
        # Warm the interpreter's and the file system's caches (bytecode
        # compilation on a fresh checkout) before anything is timed.
        out = self._run(["--help"], self.scratch)
        if out.returncode != 0:
            raise RuntimeError(f"enfp --help failed: {out.stderr}")

    def _run(self, argv, cwd, module=("-m", "enfp.cli")):
        return subprocess.run(
            [sys.executable, *module, *argv],
            cwd=cwd,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=170,
        )

    def steps(self):
        synth = ["synth", "--out", "corpus.csv", "--seed", "7"]
        if self.tiny:
            synth += ["--n-exact", "200", "--n-censored", "30"]
        return [
            ("synth", synth),
            ("fit", ["fit", "corpus.csv", "--df", "20", "--penalty", "0.01",
                     "--penalty-path", "1.0,0.25,0.05",
                     "--out", "corpus.model.json"]),
            ("hcurve", ["hcurve", "corpus.model.json", "--at", "1.96"]),
            ("hcurve", ["hcurve", "corpus.model.json", "--svg", "h.svg"]),
            ("bounds", ["bounds", "--mode", "freq", "--rho", "0.1",
                        "--alphas", "0.025,0.05,0.01"]),
            ("ledger", ["ledger", "init", "budget.jsonl", "--mode", "freq",
                        "--budget", "1.0", "--rho", "0.09"]),
            ("ledger", ["ledger", "propose", "budget.jsonl", "--trial-id",
                        "t-001", "--alpha", "0.025"]),
            ("ledger", ["ledger", "status", "budget.jsonl", "--json"]),
            ("simulate", ["simulate", "scenario.json"]),
        ]

    def run_pass(self, p: Pass) -> None:
        workdir = self.fresh_dir(f"p{p.index}")
        with open(os.path.join(workdir, "scenario.json"), "w") as fh:
            json.dump(self.scenario, fh)
        outputs = []
        for step, argv in self.steps():
            t0 = time.perf_counter()
            with self.span(f"cli.{step}", "cli"):
                out = p.op(step, self._run, argv, workdir)
            p.add("cmd", time.perf_counter() - t0)
            p.expect(out.returncode == 0,
                     f"`enfp {' '.join(argv)}` exited {out.returncode}: "
                     f"{out.stderr.strip()[-200:]}")
            outputs.append(out.stdout)
        svg = os.path.join(workdir, "h.svg")
        p.expect(os.path.exists(svg) and os.path.getsize(svg) > 0,
                 "hcurve --svg wrote no plot")
        if p.index == 0:
            p.observed = self._observe(outputs)

    @staticmethod
    def _value(text: str, prefix: str) -> float:
        for line in text.splitlines():
            if line.startswith(prefix):
                return float(line[len(prefix):].split()[0])
        return float("nan")

    def _observe(self, outputs: list) -> dict:
        """Numbers from the stdout of each step, in steps() order."""
        _synth, fit, hcurve_at, _svg, _bounds, _init, _propose, status, sim = (
            outputs
        )
        try:
            spent = float(json.loads(status)["spent"])
        except (ValueError, KeyError):
            spent = float("nan")
        return {
            "rho_hat": self._value(fit, "rho_hat = "),
            "h_at_1.96": self._value(hcurve_at, "h(1.96) = "),
            "ledger_spent": spent,
            "realized_fp": self._value(sim, "realized false positives"),
            "positive_count": self._value(sim, "positive count (M)"),
        }

    def probe(self, tracer) -> None:
        """The floor under every command: a bare interpreter, then one
        that only imports enfp."""
        tracer.run_id = "probe"
        for step, code in (("interpreter", "pass"), ("import", "import enfp")):
            for _ in range(3):
                with tracer.span(f"cli.{step}", "cli"):
                    out = self._run([], self.scratch, module=("-c", code))
                if out.returncode != 0:
                    raise RuntimeError(f"python -c {code!r} failed: {out.stderr}")

    def e2e(self, passes):
        return {"cmd_p50_ms": _latency(passes, "cmd", 50)}


WORKLOADS = {
    w.name: w for w in (FitCorpus, ValidateGrid, LedgerPortfolio, CliPipeline)
}
