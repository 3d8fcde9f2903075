"""Write the golden fit and bootstrap file that ``tests/test_deconv.py``
compares against.

Usage::

    PYTHONPATH=src python tests/data/make_golden_bootstrap.py [OUTDIR]

Writes ``golden_bootstrap.json`` to OUTDIR (default: this directory).
For each case, a small README-shape corpus fitted with the README
configuration, it records the ``fit_g_path`` coefficients, objective
trace, log-likelihood and per-stage ``path`` record, and the
``bootstrap`` rho samples, failure count, failed replicates and h
bands.  Each case has at least one bootstrap replicate that does not
converge: whether a replicate converges is decided at the floating-point
noise floor, so the file pins every Newton iterate, not only the
converged answers.

The ``bootstrap`` half was written by the fit that built a new
likelihood matrix for every fit and every replicate and allocated its
Newton temporaries afresh.  The ``fit_g_path`` half was rewritten when
the path began at the moment-matched normal prior and stopped its
warm-up stages at a gradient norm of 0.1: the final penalized
objectives agree with the old ones to within one unit in the last place
and the log-likelihoods to 5e-12 relative, and the ``bootstrap`` half
stayed byte for byte what it was.  The h bands were rewritten when h
took its affine form, z * theta + (log g - theta^2 / 2), and
``failed_replicates`` was added then; every other field stayed what it
was.  A later fit must reproduce both halves bit for bit.  The script
refuses to write a file in which a field that does not derive from h
differs from the committed one, so a change to h cannot hide a change
to the fit.  Floats are stored as JSON numbers, which round-trip
exactly.  The file was written with numpy 2.4.6 and OpenBLAS 0.3.31
(SkylakeX kernels, x86-64 with AVX-512) and reads the same with one or
two OpenBLAS threads; it does not reproduce under OpenBLAS's Haswell,
Zen or Sandybridge kernels, and another BLAS build may round
differently.
"""

import dataclasses
import json
import os
import sys

import numpy as np

from enfp.deconv import FitConfig, bootstrap, fit_g_path
from enfp.records_io import extract_observations, synthesize_corpus

README_FIT = FitConfig(
    grid_low=-6.0,
    grid_high=10.0,
    basis_df=20,
    penalty_c0=0.01,
    max_iterations=1500,
)
PENALTY_PATH = (1.0, 0.25, 0.05)
Z_GRID = np.arange(-20, 61) * 0.1
REPLICATES = 8
# (corpus seed, bootstrap seed): 200 exact and 30 censored records each.
CASES = ((5, 2), (2, 0))


def case_name(corpus_seed, boot_seed):
    return f"corpus{corpus_seed}_seed{boot_seed}"


def case_inputs(corpus_seed, boot_seed):
    """The observations and fit configuration of one case."""
    records = synthesize_corpus(n_exact=200, n_censored=30, seed=corpus_seed)
    cfg = dataclasses.replace(README_FIT, seed=boot_seed)
    return extract_observations(records), cfg


def _floats(values):
    return [float(v) for v in values]


def run_case(corpus_seed, boot_seed):
    obs, cfg = case_inputs(corpus_seed, boot_seed)
    model = fit_g_path(obs, cfg, penalty_path=PENALTY_PATH)
    boot = bootstrap(obs, cfg, replicates=REPLICATES, z_grid=Z_GRID)
    return {
        "fit_g_path": {
            "coefficients": _floats(model.coefficients),
            "objective_trace": _floats(model.diagnostics["objective_trace"]),
            "iterations": int(model.diagnostics["iterations"]),
            "converged": bool(model.converged),
            "log_likelihood": float(model.log_likelihood),
            "path": model.diagnostics["path"],
        },
        "bootstrap": {
            "rho_samples": _floats(boot.rho_samples),
            "n_failed": int(boot.n_failed),
            "failed_replicates": list(boot.failed_replicates),
            "rho_ci": _floats(boot.rho_ci),
            "h_low": _floats(boot.h_low),
            "h_high": _floats(boot.h_high),
        },
    }


def fit_changes(golden, committed):
    """The fields of ``golden`` that differ from ``committed`` and do not
    derive from h (the bootstrap h bands), as "case.half.field"; a field
    ``committed`` lacks is new, and not a change."""
    changed = []
    for name, entry in golden.items():
        for half, fields in entry.items():
            for field, value in fields.items():
                if half == "bootstrap" and field in ("h_low", "h_high"):
                    continue
                old = committed.get(name, {}).get(half, {})
                if field in old and old[field] != value:
                    changed.append(f"{name}.{half}.{field}")
    return changed


if __name__ == "__main__":
    here = os.path.dirname(os.path.abspath(__file__))
    out = sys.argv[1] if len(sys.argv) > 1 else here
    golden = {case_name(*case): run_case(*case) for case in CASES}
    with open(os.path.join(here, "golden_bootstrap.json")) as fh:
        changed = fit_changes(golden, json.load(fh))
    if changed:
        raise SystemExit(f"the fit changed: {', '.join(changed)}")
    for name, entry in golden.items():
        n_failed = entry["bootstrap"]["n_failed"]
        print(f"{name}: {n_failed} of {REPLICATES} replicates failed")
        if n_failed == 0:
            raise SystemExit(f"{name} has no failing replicate")
    with open(os.path.join(out, "golden_bootstrap.json"), "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
