"""Write the golden oracle file that ``tests/test_simulate.py`` compares
against.

Usage::

    PYTHONPATH=src python tests/data/make_golden_simulate.py [OUTDIR]

Writes ``golden_simulate.json`` to OUTDIR (default: this directory).  It
holds ``SimulationReport.to_dict()`` of ``validate_bounds`` on one small
criterion-5-shaped cell (mixed m, signal-concordant alpha menu, 2e4
trials x 3 replicates), in both endpoint modes, with the bound computed
from the scenario's own prior (oracle) and from a fitted prior (fitted).
The committed copy was written by the simulator that pooled every
replicate's arrays before the concordance checks and evaluated h on
every endpoint of every positive trial.  Floats are stored as JSON
numbers, which round-trip exactly.
"""

import json
import os
import sys

from enfp.deconv import FitConfig, fit_g, rho_from_g
from enfp.records_io import extract_observations, synthesize_corpus
from enfp.simulate import PolicySpec, ScenarioConfig, validate_bounds

RHO = 0.2
CELL = ScenarioConfig(
    true_prior=(
        (-2.0, -0.5, 1.0, 2.5, 3.5),
        (0.6 * RHO, 0.4 * RHO, 0.3 * (1 - RHO), 0.4 * (1 - RHO),
         0.3 * (1 - RHO)),
    ),
    n_trials=20_000,
    m_distribution=(
        (1, "B", 0.4), (2, "A", 0.2), (2, "B", 0.2), (3, "B", 0.2)
    ),
    policy=PolicySpec(
        kind="signal_concordant",
        alpha_menu=(0.005, 0.01, 0.025, 0.05),
        signal_noise=1.0,
    ),
    seed=601,
    replicates=3,
)
# The README fit configuration on a small README-shape corpus.
FIT = FitConfig(grid_low=-6.0, grid_high=10.0, basis_df=20,
                penalty_c0=0.01, max_iterations=1500)
CASES = tuple(
    (bound, mode)
    for bound in ("oracle", "fitted")
    for mode in ("designated", "tightest")
)


def case_name(bound, mode):
    return f"{bound}_{mode}"


def fitted_model():
    records = synthesize_corpus(n_exact=200, n_censored=30, seed=5)
    return fit_g(extract_observations(records), FIT)


def run_case(bound, mode, model=None):
    """``to_dict()`` of one case; ``model`` is the fitted prior, built
    when a fitted case needs it and none is given."""
    if bound == "oracle":
        report = validate_bounds(CELL, endpoint_mode=mode)
    else:
        model = fitted_model() if model is None else model
        report = validate_bounds(
            CELL,
            rho_for_bound=rho_from_g(model),
            model_for_bound=model,
            endpoint_mode=mode,
        )
    return report.to_dict()


if __name__ == "__main__":
    out = sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(__file__)
    model = fitted_model()
    golden = {case_name(*case): run_case(*case, model=model) for case in CASES}
    with open(os.path.join(out, "golden_simulate.json"), "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
