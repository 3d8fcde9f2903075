"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Every workload runs untraced and traced, passes all of its output
checks, and prints exactly the metric names BENCHMARK.json declares.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from metrics import E2E, GATED, PER_LAYER  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_declared_metrics_match_the_code():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(GATED)
    for m in SPEC["end_to_end"]:
        assert (m["unit"], m["better"]) == E2E[m["name"]]
    assert [m["name"] for m in SPEC["per_layer"]] == list(PER_LAYER)
    for m in SPEC["per_layer"]:
        assert (m["unit"], m["better"]) == PER_LAYER[m["name"]][:2]


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_checks_and_reports(workload, trace):
    out = run_bench(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", trace, "--size", "tiny",
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    out = run_bench(
        tmp_path, "--workload", "fit_corpus", "--seed", "1", "--seconds",
        "1", "--trace", "0",
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_all_runs_every_workload():
    out = run_bench(
        ROOT, "--workload", "all", "--seed", "3", "--seconds", "1",
        "--size", "tiny",
    )
    assert out.returncode == 0, out.stderr
    summary = out.stdout.split("\nsummary\n")[1].splitlines()
    assert [line.split()[0] for line in summary] == [
        w["name"] for w in SPEC["workloads"]
    ]
    assert all(line.split()[1] == "correct" for line in summary)
