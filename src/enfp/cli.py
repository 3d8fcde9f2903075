"""Command-line surface binding every module of the package.

Subcommands
    synth     generate a synthetic historical corpus
    fit       estimate the effect-size prior from trial records
    hcurve    tabulate or plot the h-probability curve of a model
    bounds    compute frequentist / Bayesian expected-false-positive bounds
    ledger    drive the persistent error-spending ledger
    simulate  run a ground-truth scenario and validate the bounds

Exit codes: 0 success, 1 usage error, 2 data error, 3 non-convergence.

All output is byte-reproducible given identical inputs and seeds;
timestamps live only inside ledger files, in metadata fields that the
replay verifier treats as opaque.  Numbers print at 6 significant
digits; files carry full precision.  The only environment variable
consulted is ENFP_COLOR=1, which turns on ANSI colors for decision
words.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from enfp.deconv import FitConfig, PriorModel

# Each command imports the enfp modules it runs at its top, so a process
# loads only what its subcommand needs: `--help`, `bounds --alphas` and
# the frequentist `ledger` commands load no numpy.

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NOCONV = 3


class UsageError(Exception):
    """A flag combination the parser alone cannot reject."""


class DataError(Exception):
    """Malformed or mismatched input data."""


class ConvergenceError(Exception):
    """The optimizer failed to converge."""


def _sig(x) -> str:
    return f"{float(x):.6g}"


def _paint(text: str, code: str) -> str:
    if os.environ.get("ENFP_COLOR") == "1":
        return f"\x1b[{code}m{text}\x1b[0m"
    return text


def _green(text: str) -> str:
    return _paint(text, "32")


def _red(text: str) -> str:
    return _paint(text, "31")


# ----------------------------------------------------------------------
# argparse plumbing
# ----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage failures exit with code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _float_list(text: str):
    try:
        values = tuple(float(part) for part in text.split(",") if part)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of numbers, got {text!r}"
        ) from None
    if not values:
        raise argparse.ArgumentTypeError("list is empty")
    return values


def _rho_spec(text: str):
    """Either a single rho or per-stratum 'name=rho,name=rho' pairs."""
    if "=" not in text:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"rho must be a number or name=value pairs, got {text!r}"
            ) from None
        if not 0.0 <= value <= 1.0:
            raise argparse.ArgumentTypeError("rho must lie in [0, 1]")
        return value
    out = {}
    for part in text.split(","):
        if not part:
            continue
        name, _, val = part.partition("=")
        if not name or not val:
            raise argparse.ArgumentTypeError(
                f"malformed stratum rho {part!r} (want name=value)"
            )
        try:
            rho = float(val)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"stratum rho {val!r} is not a number"
            ) from None
        if not 0.0 <= rho <= 1.0:
            raise argparse.ArgumentTypeError("rho must lie in [0, 1]")
        out[name] = rho
    return out


def _stratum_spec(text: str):
    """Parse 'name=budget' or 'name=budget:rho' for ledger init."""
    name, sep, rest = text.partition("=")
    if not sep or not name or not rest:
        raise argparse.ArgumentTypeError(
            f"malformed stratum {text!r} (want name=budget[:rho])"
        )
    budget_text, _, rho_text = rest.partition(":")
    try:
        budget = float(budget_text)
        rho = float(rho_text) if rho_text else None
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"malformed stratum numbers in {text!r}"
        ) from None
    return name, budget, rho


def _canon_mode(mode: str) -> str:
    return {"freq": "frequentist"}.get(mode, mode)


def _load_model(path) -> PriorModel:
    from enfp.deconv import PriorModel

    try:
        return PriorModel.from_json(path)
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot load model {path}: {exc}") from exc


# ----------------------------------------------------------------------
# synth
# ----------------------------------------------------------------------


def _cmd_synth(args) -> int:
    from enfp.records_io import save_records, synthesize_corpus

    records = synthesize_corpus(
        n_exact=args.n_exact,
        n_censored=args.n_censored,
        seed=args.seed,
        censor_p=args.censor_p,
        alpha=args.alpha,
    )
    save_records(records, args.out, fmt=args.format)
    n_cens = sum(1 for t in records if not t.fully_observed)
    print(
        f"wrote {len(records)} records "
        f"({len(records) - n_cens} exact + {n_cens} censored) to {args.out}"
    )
    return EXIT_OK


# ----------------------------------------------------------------------
# fit
# ----------------------------------------------------------------------


def _fit_config(args) -> FitConfig:
    from enfp.deconv import FitConfig

    overrides = {
        "grid_low": args.grid_low,
        "grid_high": args.grid_high,
        "grid_step": args.grid_step,
        "basis_df": args.df,
        "penalty_c0": args.penalty,
        "max_iterations": args.max_iter,
        "seed": args.seed,
    }
    kwargs = {k: v for k, v in overrides.items() if v is not None}
    try:
        return FitConfig(**kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _cmd_fit(args) -> int:
    from enfp.deconv import bootstrap, fit_g, fit_g_path, rho_from_g
    from enfp.records_io import extract_observations, load_records

    cfg = _fit_config(args)
    if args.bootstrap == 1 or args.bootstrap < 0:
        raise UsageError("--bootstrap takes 0 (off) or at least 2 replicates")
    records = load_records(args.records, fmt=args.format)
    obs = extract_observations(records)
    if args.penalty_path is not None:
        model = fit_g_path(obs, cfg, penalty_path=args.penalty_path)
    else:
        model = fit_g(obs, cfg)
    diag = model.diagnostics
    if not model.converged:
        raise ConvergenceError(
            f"fit did not converge after {diag.get('iterations')} "
            f"iterations (gradient norm {_sig(diag.get('gradient_norm'))}); "
            "no model written -- raise --max-iter or the penalty"
        )
    print(
        f"observations: {len(obs.exact_z)} exact + "
        f"{len(obs.censored)} censored"
    )
    print(
        f"converged: yes ({diag.get('iterations')} iterations, "
        f"gradient norm {_sig(diag.get('gradient_norm'))})"
    )
    print(f"rho_hat = {_sig(rho_from_g(model))}")
    print(f"log_likelihood = {_sig(model.log_likelihood)}")
    if args.bootstrap:
        # The z grid -4, -3.9, ..., 10 on which the model stores h bands.
        band_grid = [k * 0.1 for k in range(-40, 101)]
        boot = bootstrap(
            obs, cfg, replicates=args.bootstrap, z_grid=band_grid
        )
        lo, hi = boot.rho_ci
        print(
            f"rho 95% CI [{_sig(lo)}, {_sig(hi)}] "
            f"from {boot.n_converged} converged replicates "
            f"({boot.n_failed} failed)"
        )
        model = dataclasses.replace(
            model,
            diagnostics={**model.diagnostics, "bootstrap": boot.to_dict()},
        )
    out = args.out or (os.path.splitext(str(args.records))[0] + ".model.json")
    model.to_json(out)
    print(f"model written to {out}")
    return EXIT_OK


# ----------------------------------------------------------------------
# hcurve
# ----------------------------------------------------------------------


def _band_arrays(model: PriorModel, grid):
    import numpy as np

    boot = model.diagnostics.get("bootstrap") or {}
    if not boot.get("z_grid"):
        return None, None
    low = np.interp(grid, boot["z_grid"], boot["h_low"])
    high = np.interp(grid, boot["z_grid"], boot["h_high"])
    return np.clip(low, 0.0, 1.0), np.clip(high, 0.0, 1.0)


def _cmd_hcurve(args) -> int:
    import numpy as np

    from enfp.hcurve import h_curve, h_probability

    model = _load_model(args.model)
    if args.at is not None:
        h = h_probability(model, args.at)
        low, high = _band_arrays(model, np.asarray([float(args.at)]))
        if low is not None:
            print(
                f"h({_sig(args.at)}) = {_sig(h)} "
                f"[95% CI {_sig(low[0])}, {_sig(high[0])}]"
            )
        else:
            print(f"h({_sig(args.at)}) = {_sig(h)}")
        if not (args.out or args.svg):
            return EXIT_OK
    if not (math.isfinite(args.z_low) and math.isfinite(args.z_high)):
        raise UsageError("--z-low and --z-high must be finite")
    if not (math.isfinite(args.step) and args.step > 0):
        raise UsageError("--step must be finite and above 0")
    if not args.z_low < args.z_high:
        raise UsageError("--z-low must be below --z-high")
    n_steps = int(round((args.z_high - args.z_low) / args.step))
    grid = args.z_low + np.arange(max(n_steps, 1) + 1) * args.step
    low, high = _band_arrays(model, grid)
    curve = h_curve(model, grid, ci_low=low, ci_high=high)
    wrote_any = False
    if args.out:
        curve.to_csv(args.out)
        print(f"curve written to {args.out}")
        wrote_any = True
    if args.svg:
        curve.to_svg(args.svg)
        print(f"plot written to {args.svg}")
        wrote_any = True
    if not wrote_any and args.at is None:
        sys.stdout.write(curve.csv_text())
    return EXIT_OK


# ----------------------------------------------------------------------
# bounds
# ----------------------------------------------------------------------


def _freq_specs(records):
    specs = []
    strata = []
    for trial in records:
        if trial.policy.mode != "alpha_level":
            raise DataError(
                f"trial {trial.trial_id}: the frequentist bound needs "
                "alpha-level policies, found an h-threshold policy"
            )
        specs.append((trial.m, trial.failure_type, trial.policy.nominal_alpha))
        strata.append(trial.stratum)
    return specs, strata


def _bounds_freq(args) -> int:
    from enfp.freq_bounds import (
        FreqBoundInput,
        tau_hat_mixed,
        tau_hat_single,
        tau_hat_stratified,
    )

    if args.rho is None:
        raise DataError("frequentist bounds require --rho")
    if (args.alphas is None) == (args.records is None):
        raise DataError("give exactly one of --alphas and --records")
    if args.alphas is not None:
        if isinstance(args.rho, dict):
            raise DataError("--alphas works with a single --rho value")
        tau = tau_hat_single(args.rho, args.alphas)
        print(f"tau_hat = {_sig(tau)} ({len(args.alphas)} trials)")
        return EXIT_OK
    from enfp.records_io import load_records

    records = load_records(args.records, fmt=args.format)
    specs, strata = _freq_specs(records)
    if isinstance(args.rho, dict):
        by_stratum: dict = {}
        for spec, stratum in zip(specs, strata):
            if stratum is None:
                raise DataError(
                    "per-stratum rho given but a record has no stratum"
                )
            if stratum not in args.rho:
                raise DataError(f"no rho given for stratum {stratum!r}")
            by_stratum.setdefault(stratum, []).append(spec)
        per, total = tau_hat_stratified(by_stratum, args.rho)
        for name in sorted(per):
            print(
                f"stratum {name}: tau_hat = {_sig(per[name])} "
                f"({len(by_stratum[name])} trials, rho {_sig(args.rho[name])})"
            )
        print(f"total tau_hat = {_sig(total)}")
        return EXIT_OK
    tau = tau_hat_mixed(FreqBoundInput(rho_hat=args.rho, trials=tuple(specs)))
    print(f"tau_hat = {_sig(tau)} ({len(specs)} trials)")
    return EXIT_OK


def _bounds_bayes(args) -> int:
    from enfp.bayes_bounds import omega_hat, omega_hat_stratified
    from enfp.bayes_bounds import positive_result
    from enfp.records_io import load_records

    if args.model is None or args.records is None:
        raise DataError("bayes bounds require --model and --records")
    model = _load_model(args.model)
    records = load_records(args.records, fmt=args.format)
    trials, n_skipped = _classified(records, model)
    positives = [
        positive_result(trial, model)
        for trial in trials
        if trial.outcome == "positive"
    ]
    by_stratum: dict = {}
    for result in positives:
        if result.stratum is not None:
            by_stratum.setdefault(result.stratum, []).append(result)
    per, _ = omega_hat_stratified(by_stratum, endpoint_mode=args.endpoint_mode)
    for name in sorted(per):
        print(
            f"stratum {name}: omega_hat = {_sig(per[name])} "
            f"({len(by_stratum[name])} positives)"
        )
    # The total counts the positives without a stratum too.
    total = omega_hat(positives, args.endpoint_mode)
    print(
        f"omega_hat = {_sig(total)} "
        f"({len(positives)} positives of {len(records)} trials)"
    )
    _print_skipped(n_skipped)
    return EXIT_OK


def _classified(records, model):
    """The records with an outcome, each one that has none classified by
    its own policy, and the number of censored records skipped because
    they have no outcome and cannot be classified."""
    from enfp.trials import classify_rejection

    trials = []
    for trial in records:
        if trial.outcome is None:
            if not trial.fully_observed:
                continue
            trial = trial.with_outcome(classify_rejection(trial, model))
        trials.append(trial)
    return trials, len(records) - len(trials)


def _print_skipped(n_skipped: int) -> None:
    if n_skipped:
        print(f"skipped {n_skipped} censored trials without outcomes")


def _bounds_from_ledger(args) -> int:
    from enfp.ledger import Ledger

    with Ledger.open(args.ledger) as led:
        st = led.status()
    name = "tau_hat" if st["mode"] == "frequentist" else "omega_hat"
    print(f"mode: {st['mode']}")
    if st["strata"]:
        for label in sorted(st["strata"]):
            view = st["strata"][label]
            print(
                f"stratum {label}: {name} = {_sig(view['spent'])} "
                f"of budget {_sig(view['budget'])}"
            )
    print(f"{name} (ledger spend) = {_sig(st['spent'])}")
    print(
        f"budget {_sig(st['budget'])}, remaining {_sig(st['remaining'])}"
    )
    return EXIT_OK


def _cmd_bounds(args) -> int:
    if args.ledger is not None:
        return _bounds_from_ledger(args)
    if args.mode is None:
        raise DataError("give --mode (or --ledger)")
    mode = _canon_mode(args.mode)
    if mode == "frequentist":
        return _bounds_freq(args)
    return _bounds_bayes(args)


# ----------------------------------------------------------------------
# ledger
# ----------------------------------------------------------------------


def _cmd_ledger_init(args) -> int:
    from enfp.ledger import Ledger, StratumSpec

    mode = _canon_mode(args.mode)
    model = _load_model(args.model) if args.model else None
    strata = None
    if args.stratum:
        strata = {
            name: StratumSpec(budget=budget, rho_hat=rho)
            for name, budget, rho in args.stratum
        }
    with Ledger.create(
        args.path,
        mode,
        budget=args.budget,
        rho_hat=args.rho,
        model=model,
        strata=strata,
        endpoint_mode=args.endpoint_mode,
    ) as led:
        st = led.status()
    print(f"created {mode} ledger at {args.path}")
    _print_status(st, args.path, header=False)
    return EXIT_OK


def _cmd_ledger_propose(args) -> int:
    from enfp.ledger import Ledger

    with Ledger.open(args.path) as led:
        decision = led.propose(
            args.trial_id,
            args.m,
            args.type,
            args.alpha,
            stratum=args.stratum,
        )
    label = (
        f"{args.trial_id} (m={args.m}, type {args.type}, "
        f"alpha {_sig(args.alpha)})"
    )
    if decision.accepted:
        print(
            f"{label}: {_green('accepted')} -- projected spend "
            f"{_sig(decision.projected)} of budget {_sig(decision.budget)}, "
            f"remaining {_sig(decision.remaining)}"
        )
    else:
        print(
            f"{label}: {_red('REJECTED')} -- projected spend "
            f"{_sig(decision.projected)} exceeds budget "
            f"{_sig(decision.budget)} (spent {_sig(decision.spent)})"
        )
    return EXIT_OK


def _cmd_ledger_record(args) -> int:
    from enfp.ledger import Ledger
    from enfp.records_io import load_records

    records = load_records(args.records, fmt=args.format)
    model = _load_model(args.model) if args.model else None
    trials, n_skipped = _classified(records, model)
    with Ledger.open(args.path) as led:
        recorded = led.record_outcomes(trials, model)
        for trial, rec in zip(trials, recorded):
            line = (
                f"{trial.trial_id}: {trial.outcome}, spend "
                f"{_sig(rec.spend_delta)}, spent {_sig(rec.spent)} "
                f"of {_sig(rec.budget)}"
            )
            if rec.over_budget:
                line += f"  {_red('OVER BUDGET')}"
            print(line)
    _print_skipped(n_skipped)
    return EXIT_OK


def _cmd_ledger_adjust(args) -> int:
    from enfp.ledger import Ledger
    from enfp.records_io import load_records

    records = load_records(args.records, fmt=args.format)
    model = _load_model(args.model) if args.model else None
    with Ledger.open(args.path) as led:
        recorded = led.record_adjustments(records, model, args.note)
        for trial, rec in zip(records, recorded):
            print(
                f"{trial.trial_id}: adjustment, spend "
                f"{_sig(rec.spend_delta)}, spent {_sig(rec.spent)} "
                f"of {_sig(rec.budget)}"
            )
        st = led.status()
    print(
        f"adjustments: {st['adjustment_count']} of {st['n_entries']} "
        f"entries (fraction {_sig(st['adjustment_fraction'])})"
    )
    return EXIT_OK


def _print_status(st: dict, path, header: bool = True) -> None:
    if header:
        print(f"ledger: {path}")
        print(f"mode: {st['mode']}  entries: {st['n_entries']}")

    def one(view, prefix=""):
        over = f"  {_red('OVER BUDGET')}" if view["over_budget"] else ""
        print(
            f"{prefix}budget {_sig(view['budget'])}  "
            f"spent {_sig(view['spent'])}  "
            f"remaining {_sig(view['remaining'])}  "
            f"trials {view['n_trials']}{over}"
        )
        if "remaining_total_error" in view:
            print(
                f"{prefix}remaining total error "
                f"{_sig(view['remaining_total_error'])}"
            )
        if "n_positive" in view:
            print(f"{prefix}positive outcomes: {view['n_positive']}")

    if st["strata"]:
        for name in sorted(st["strata"]):
            print(f"stratum {name}:")
            one(st["strata"][name], prefix="  ")
        print(
            f"total: budget {_sig(st['budget'])}  spent {_sig(st['spent'])}  "
            f"remaining {_sig(st['remaining'])}"
        )
    else:
        one(st)
    if st["mode"] == "bayes":
        print(
            f"adjustments: {st['adjustment_count']} "
            f"(fraction {_sig(st['adjustment_fraction'])})"
        )


def _cmd_ledger_status(args) -> int:
    from enfp.ledger import Ledger

    with Ledger.open(args.path) as led:
        st = led.status()
    if args.json:
        print(json.dumps(st, indent=2, sort_keys=True))
    else:
        _print_status(st, args.path)
    return EXIT_OK


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------


def _cmd_simulate(args) -> int:
    from enfp.simulate import ScenarioConfig, validate_bounds

    try:
        with open(args.scenario) as fh:
            cfg = ScenarioConfig.from_json(fh.read())
    except OSError as exc:
        raise DataError(f"cannot read scenario: {exc}") from exc
    except ValueError as exc:
        raise DataError(f"invalid scenario: {exc}") from exc
    if args.replicates is not None:
        cfg = dataclasses.replace(cfg, replicates=args.replicates)
    model = _load_model(args.model) if args.model else None
    report = validate_bounds(
        cfg,
        rho_for_bound=args.rho,
        model_for_bound=model,
        endpoint_mode=args.endpoint_mode,
    )
    print(report.table())
    print()
    print("concordance detail:")
    for check in (report.concordance.first, report.concordance.second):
        verdict = _green("pass") if check.passed else _red("FAIL")
        extra = " (vacuous)" if check.vacuous else ""
        print(
            f"  {check.name}: {verdict}{extra} "
            f"[E[alpha|null] {_sig(check.mean_null)} vs "
            f"E[alpha|effect] {_sig(check.mean_nonnull)}]"
        )
    for check in (report.concordance.third, report.concordance.fourth):
        verdict = _green("pass") if check.passed else _red("FAIL")
        print(
            f"  {check.name}: {verdict} "
            f"[{check.n_bins_checked} bins, {check.n_bins_failed} flagged, "
            f"allowance {check.failure_allowance}]"
        )
    violated = [k for k, v in sorted(report.bound_violations.items()) if v]
    if violated:
        print(f"bound violations: {_red(', '.join(violated))}")
    else:
        print(f"bound violations: {_green('none')}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report written to {args.out}")
    return EXIT_OK


# ----------------------------------------------------------------------
# parser assembly
# ----------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(
        prog="enfp",
        description=(
            "Per-trial error flexibility with a global expected-number-"
            "of-false-positives budget: prior estimation, h-probabilities, "
            "portfolio bounds, spending ledgers, and simulation checks."
        ),
    )
    # Flags that several commands share, each declared once.
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("csv", "json"))
    endpoints = argparse.ArgumentParser(add_help=False)
    endpoints.add_argument(
        "--endpoint-mode",
        choices=("designated", "tightest"),
        default="designated",
    )
    modes = ("freq", "frequentist", "bayes")
    sub = parser.add_subparsers(
        dest="command", metavar="COMMAND", required=True
    )

    p = sub.add_parser(
        "synth", parents=[fmt], help="generate a synthetic historical corpus"
    )
    p.add_argument("--out", required=True, help="output records file")
    p.add_argument("--n-exact", type=int, default=1221)
    p.add_argument("--n-censored", type=int, default=172)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--censor-p", type=float, default=0.05)
    p.add_argument("--alpha", type=float, default=0.025)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser(
        "fit", parents=[fmt], help="fit the effect-size prior g(theta)"
    )
    p.add_argument("records", help="trial records file (csv or json)")
    p.add_argument("--out", default=None, help="model JSON path")
    p.add_argument(
        "--bootstrap",
        type=int,
        default=0,
        metavar="N",
        help="bootstrap replicates for rho CI and h bands",
    )
    p.add_argument("--grid-low", type=float, default=None)
    p.add_argument("--grid-high", type=float, default=None)
    p.add_argument("--grid-step", type=float, default=None)
    p.add_argument("--df", type=int, default=None, help="spline basis df")
    p.add_argument(
        "--penalty", type=float, default=None, help="coefficient penalty c0"
    )
    p.add_argument("--max-iter", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument(
        "--penalty-path",
        type=_float_list,
        default=None,
        metavar="LIST",
        help="continuation penalties, e.g. 1.0,0.25,0.05",
    )
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("hcurve", help="tabulate or plot h(z)")
    p.add_argument("model", help="model JSON from `enfp fit`")
    p.add_argument("--z-low", type=float, default=-1.0)
    p.add_argument("--z-high", type=float, default=4.0)
    p.add_argument("--step", type=float, default=0.01)
    p.add_argument("--out", default=None, help="CSV output path")
    p.add_argument("--svg", default=None, help="SVG plot path")
    p.add_argument(
        "--at", type=float, default=None, help="print h at a single z"
    )
    p.set_defaults(func=_cmd_hcurve)

    p = sub.add_parser(
        "bounds",
        parents=[fmt, endpoints],
        help="compute tau-hat / omega-hat for a portfolio",
    )
    p.add_argument("--mode", choices=modes)
    p.add_argument(
        "--rho",
        type=_rho_spec,
        default=None,
        help="null-probability estimate, or name=value pairs per stratum",
    )
    p.add_argument(
        "--alphas",
        type=_float_list,
        default=None,
        help="comma-separated alpha levels (single-endpoint portfolio)",
    )
    p.add_argument("--records", default=None, help="trial records file")
    p.add_argument("--model", default=None, help="model JSON (bayes mode)")
    p.add_argument(
        "--ledger",
        default=None,
        help="report the recomputed bound of an existing ledger",
    )
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("ledger", help="drive an error-spending ledger")
    lsub = p.add_subparsers(dest="action", required=True)

    q = lsub.add_parser(
        "init", parents=[endpoints], help="create a ledger file"
    )
    q.add_argument("path")
    q.add_argument("--mode", required=True, choices=modes)
    q.add_argument("--budget", type=float, default=None)
    q.add_argument("--rho", type=float, default=None)
    q.add_argument("--model", default=None, help="model JSON (bayes mode)")
    q.add_argument(
        "--stratum",
        action="append",
        type=_stratum_spec,
        default=None,
        metavar="NAME=BUDGET[:RHO]",
        help="repeatable; creates independent per-stratum budgets",
    )
    q.set_defaults(func=_cmd_ledger_init)

    q = lsub.add_parser(
        "propose", help="charge a proposed design against the budget"
    )
    q.add_argument("path")
    q.add_argument("--trial-id", required=True)
    q.add_argument("--m", type=int, default=1)
    q.add_argument("--type", choices=("A", "B"), default="B")
    q.add_argument("--alpha", type=float, required=True)
    q.add_argument("--stratum", default=None)
    q.set_defaults(func=_cmd_ledger_propose)

    q = lsub.add_parser(
        "record", parents=[fmt], help="record classified trial outcomes"
    )
    q.add_argument("path")
    q.add_argument("--records", required=True)
    q.add_argument("--model", default=None, help="model JSON (bayes mode)")
    q.set_defaults(func=_cmd_ledger_record)

    q = lsub.add_parser(
        "adjust",
        parents=[fmt],
        help="record post-hoc spend adjustments (bayes)",
    )
    q.add_argument("path")
    q.add_argument("--records", required=True)
    q.add_argument("--model", default=None, help="model JSON")
    q.add_argument("--note", required=True, help="reason for the adjustment")
    q.set_defaults(func=_cmd_ledger_adjust)

    q = lsub.add_parser("status", help="print budgets, spend, and flags")
    q.add_argument("path")
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=_cmd_ledger_status)

    p = sub.add_parser(
        "simulate",
        parents=[endpoints],
        help="validate the bounds against a scenario oracle",
    )
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--replicates", type=int, default=None)
    p.add_argument(
        "--rho",
        type=float,
        default=None,
        help="override the oracle rho fed to the frequentist bound",
    )
    p.add_argument(
        "--model",
        default=None,
        help="override the oracle prior fed to the Bayesian bound",
    )
    p.add_argument("--out", default=None, help="write the report JSON here")
    p.set_defaults(func=_cmd_simulate)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"enfp: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConvergenceError as exc:
        print(f"enfp: error: {exc}", file=sys.stderr)
        return EXIT_NOCONV
    except (DataError, OSError, ValueError, KeyError, RuntimeError) as exc:
        print(f"enfp: error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
