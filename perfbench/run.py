"""Run one enfp benchmark workload, check its outputs, print its metrics.

From the root of a checkout:

    python3 perfbench/run.py --workload fit_corpus --seed 1 --seconds 25 --trace 0

``--workload all`` runs the four workloads one after another, each in its
own process, and ends with a summary.

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` spends half the time on untraced passes and half on the
same passes again with every layer wrapped in spans, prints the per-layer
metrics and a self-time table per layer, and reports the tracing overhead
as the traced passes' wall time over the untraced ones'.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record (all metrics
with sample counts, the environment fingerprint) and, when traced, the
spans go to ``.perfbench/`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
REFERENCE = os.path.join(HERE, "reference.json")
DEFAULT_SEED = 1
SETUP_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        help="one workload, or `all` to run each in its own process",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="tiny inputs, for the smoke test",
    )
    parser.add_argument(
        "--write-reference",
        action="store_true",
        help="store this run's default-seed outputs as the reference",
    )
    return parser.parse_args(argv)


def import_library():
    """Put the checkout's src/ first on sys.path and import enfp from it."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "enfp", "__init__.py")):
        raise SystemExit(
            f"perfbench: no enfp sources under {src}; run from a checkout"
        )
    sys.path.insert(0, src)
    import enfp

    if os.path.dirname(os.path.dirname(os.path.abspath(enfp.__file__))) != src:
        raise SystemExit(f"perfbench: imported enfp from {enfp.__file__}")


def run_pass(workload, index: int, tracer=None):
    from workloads import Aborted, Pass

    p = Pass(index)
    workload.prepare(p)
    t0 = time.perf_counter()
    try:
        if tracer is None:
            workload.run_pass(p)
        else:
            tracer.run_id = f"{workload.name}:{workload.seed}:{index}"
            tracer.install()
            workload.tracer = tracer
            try:
                with tracer.span("bench.pass", "bench"):
                    workload.run_pass(p)
            finally:
                tracer.uninstall()
                workload.tracer = None
    except Aborted:
        pass
    except Exception as exc:  # a fault in the benchmark itself
        p.attempted += 1
        p.failed += 1
        p.errors.append(f"pass {index}: {exc!r}")
    p.wall = time.perf_counter() - t0
    return p


def measure(workload, budget_s: float, tracer=None):
    """Passes until the next one would overrun ``budget_s``; at least one.

    With a tracer every pass runs twice, untraced and traced, in
    alternating order so that neither side always runs on warmer caches.
    Returns (untraced passes, traced passes).
    """
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        k = len(plain)
        if tracer is None:
            plain.append(run_pass(workload, k))
        elif k % 2 == 0:
            plain.append(run_pass(workload, k))
            traced.append(run_pass(workload, k, tracer))
        else:
            traced.append(run_pass(workload, k, tracer))
            plain.append(run_pass(workload, k))
        elapsed = time.perf_counter() - start
        if elapsed * (k + 2) / (k + 1) > budget_s:
            break
    return plain, traced


def check_reference(name: str, observed: dict, rtol: float, write: bool):
    """Mismatches between pass 0 and the stored default-seed values."""
    stored = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as fh:
            stored = json.load(fh)
    if write:
        stored[name] = observed
        with open(REFERENCE, "w") as fh:
            json.dump(stored, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
        return []
    expected = stored.get(name)
    if expected is None:
        return [f"no reference stored for {name}"]
    problems = []
    for key, want in sorted(expected.items()):
        got = observed.get(key)
        if isinstance(want, int) and not isinstance(want, bool):
            ok = got == want
        else:
            ok = (
                isinstance(got, (int, float))
                and abs(got - want) <= rtol * max(abs(want), abs(got))
            )
        if not ok:
            problems.append(f"reference {key}: expected {want!r}, got {got!r}")
    return problems


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def print_table(title: str, rows) -> None:
    print(title)
    width = max(len(r[0]) for r in rows)
    for name, value, unit, n, note in rows:
        print(f"  {name:<{width}}  {value:>14.6g}  {unit:<6} n={n:<6} {note}")


def run_all(args) -> int:
    """Every workload in BENCHMARK.json, each in a fresh process, then a
    summary; exits 1 if any output check failed."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    common = [
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--size", args.size,
    ] + (["--write-reference"] if args.write_reference else [])
    results = {}
    for name in names:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             *common],
            stdout=subprocess.PIPE,
            text=True,
        )
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1]) if out.returncode == 0 else None
    print("summary")
    for name, res in results.items():
        if res is None:
            print(f"  {name:<18} crashed")
            continue
        values = "" if args.trace else "  ".join(
            f"{k}={v['value']:.6g} {v['unit']}" for k, v in res["metrics"].items()
        )
        verdict = "correct" if res["correct"] else "INCORRECT"
        print(f"  {name:<18} {verdict} {res['failed']}/{res['attempted']} "
              f"failed  {values}")
    ok = all(res is not None and res["correct"] for res in results.values())
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    import_library()
    from env import fingerprint
    from metrics import E2E, GATED, PER_LAYER, SpanView, layer_metrics, median
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}")
    tiny = args.size == "tiny"
    os.makedirs(os.path.join(OUT_DIR, "tmp"), exist_ok=True)
    scratch = tempfile.mkdtemp(
        prefix=f"{args.workload}-", dir=os.path.join(OUT_DIR, "tmp")
    )
    workload = WORKLOADS[args.workload](args.seed, tiny, scratch, ROOT)
    tracer = Tracer() if args.trace else None
    try:
        setup_s = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.setup()
            setup_s.append(time.perf_counter() - t0)
        plain, traced = measure(workload, args.seconds, tracer)
        if tracer is not None:
            workload.probe(tracer)
        env = fingerprint(ROOT, args.seed, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    passes = plain + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [e for p in passes for e in p.errors]
    if args.seed == DEFAULT_SEED and not tiny:
        attempted += 1
        mismatches = check_reference(
            workload.name, plain[0].observed, workload.ref_rtol,
            args.write_reference,
        )
        if mismatches:
            failed += 1
            problems += mismatches
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
        "passes": len(plain),
        "pass_wall_s": [p.wall for p in plain],
        "attempted": attempted,
        "failed": failed,
        "environment": env,
    }
    title = (
        f"enfp benchmark: {workload.name}, seed {args.seed}, "
        f"{len(plain)} passes in {args.seconds:g} s"
    )
    if tracer is None:
        e2e = {
            "setup_s": (median(setup_s), len(setup_s)),
            "wall_s": (median([p.wall for p in plain]), len(plain)),
            "peak_rss_mb": (peak_rss_mb(workload.child_processes), 1),
            "failed_frac": (failed / attempted, attempted),
            **workload.e2e(plain),
        }
        print_table(
            title + ", untraced",
            [(k, v, E2E[k][0], n, "") for k, (v, n) in e2e.items()],
        )
        record["metrics"] = {
            k: {"value": v, "unit": E2E[k][0], "n": n}
            for k, (v, n) in e2e.items()
        }
        reported = GATED
    else:
        pass_ids = [s["run"] for s in tracer.spans if s["name"] == "bench.pass"]
        view = SpanView(tracer.spans, pass_ids)
        values = layer_metrics(view)
        print_table(title + ", traced", [
            (name, values[name], unit, len(traced), f"moves {moves} on {where}")
            for name, (unit, _better, moves, where) in PER_LAYER.items()
        ])
        overhead = median([t.wall / p.wall for p, t in zip(plain, traced)]) - 1
        self_ms = {
            layer: ms / len(traced) for layer, ms in view.layer_self_ms().items()
        }
        traced_ms = 1e3 * sum(t.wall for t in traced) / len(traced)
        print(
            f"self time per layer and traced pass, {len(traced)} passes, "
            f"{len(tracer.spans)} spans; tracing overhead "
            f"{100 * overhead:+.1f}% of wall time against the same passes "
            "untraced"
        )
        for layer, ms in sorted(self_ms.items(), key=lambda kv: -kv[1]):
            print(f"  {layer:<14} {ms:>12.3f} ms  {100 * ms / traced_ms:6.2f}%")
        spans_path = os.path.join(
            OUT_DIR, f"spans-{workload.name}-seed{args.seed}.jsonl"
        )
        tracer.write(spans_path)
        record.update({
            "tracing_overhead": overhead,
            "layer_self_ms_per_pass": self_ms,
            "spans_file": os.path.relpath(spans_path, ROOT),
            "metrics": {
                name: {"value": values[name], "unit": PER_LAYER[name][0]}
                for name in PER_LAYER
            },
        })
        reported = PER_LAYER
    print("environment: " + json.dumps(env, sort_keys=True))
    result_path = os.path.join(
        OUT_DIR,
        f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json",
    )
    with open(result_path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {k: record["metrics"][name][k] for k in ("value", "unit")}
            for name in reported
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
