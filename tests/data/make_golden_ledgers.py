"""Write the golden ledger files that ``tests/test_ledger.py`` replays.

Usage::

    PYTHONPATH=src python tests/data/make_golden_ledgers.py OUTDIR

Writes ``golden_freq.jsonl`` and ``golden_bayes.jsonl`` to OUTDIR, each
with a ``.expected.json`` holding the live ``status()`` and
``running_sums()`` right after the last write.  The committed copies were
written by the ledger that re-summed its history with ``math.fsum`` on
every operation; replaying them with exact equality shows that a later
ledger still reads those files to the same state.  Rewriting them changes
only the timestamps, unless the ledger's arithmetic changed.
"""

import json
import os
import sys

import numpy as np

from enfp.deconv import PriorModel
from enfp.ledger import Ledger, StratumSpec
from enfp.trials import (
    EfficacyMeasure,
    FailureRegionType,
    RejectionPolicy,
    TrialRecord,
)


def _trial(tid, zs, t, outcome, stratum):
    return TrialRecord(
        trial_id=tid,
        m=len(zs),
        failure_type=t,
        measures=tuple(
            EfficacyMeasure(endpoint_index=i + 1, z=float(z))
            for i, z in enumerate(zs)
        ),
        policy=RejectionPolicy.at_alpha(0.025, m=len(zs), failure_type=t),
        stratum=stratum,
        outcome=outcome,
    )


def _dump(led, path):
    expected = {"status": led.status(), "running_sums": led.running_sums()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_freq(outdir):
    """400 proposals under a budget that starts refusing at proposal 244.

    Alphas span 1e-300..0.1 with repeats, so the running sums mix
    magnitudes that plain float addition would round away.
    """
    rng = np.random.default_rng(20191)
    path = os.path.join(outdir, "golden_freq.jsonl")
    n_accepted = 0
    with Ledger.create(
        path, "frequentist", budget=1.7, rho_hat=0.0873
    ) as led:
        for i in range(400):
            m = int(rng.integers(1, 5))
            t = FailureRegionType.B if m == 1 or rng.random() < 0.7 else (
                FailureRegionType.A
            )
            pick = rng.random()
            if pick < 0.1:
                alpha = float(10.0 ** rng.uniform(-300, -5))
            elif pick < 0.3:
                alpha = 0.025
            else:
                alpha = float(rng.uniform(1e-4, 0.1))
            n_accepted += led.propose(f"f-{i:03d}", m, t, alpha).accepted
        _dump(led, path[: -len(".jsonl")] + ".expected.json")
    return n_accepted


def write_bayes(outdir):
    """80 outcomes in two strata, then one adjustment."""
    grid = np.arange(-120, 241) * 0.025
    masses = np.zeros(grid.size)
    for theta, mass in ((-1.0, 0.35), (0.0, 0.3), (1.5, 0.2), (3.0, 0.15)):
        masses[np.argmin(np.abs(grid - theta))] = mass
    model = PriorModel.from_masses(grid, masses)
    rng = np.random.default_rng(20192)
    path = os.path.join(outdir, "golden_bayes.jsonl")
    strata = {"onc": StratumSpec(budget=4.0), "cv": StratumSpec(budget=1.5)}
    with Ledger.create(path, "bayes", model=model, strata=strata) as led:
        for i in range(80):
            m = int(rng.integers(1, 4))
            t = FailureRegionType.B if m == 1 or rng.random() < 0.5 else (
                FailureRegionType.A
            )
            zs = rng.uniform(1.7, 4.5, size=m).tolist()
            outcome = "positive" if rng.random() < 0.8 else "negative"
            stratum = "onc" if rng.random() < 0.6 else "cv"
            led.record_outcome(_trial(f"b-{i:03d}", zs, t, outcome, stratum), model)
        led.record_adjustment(
            _trial("b-adj", [1.8], FailureRegionType.B, "negative", "cv"),
            model,
            "post-hoc rescue",
        )
        _dump(led, path[: -len(".jsonl")] + ".expected.json")


if __name__ == "__main__":
    out = sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(__file__)
    print(f"frequentist: {write_freq(out)} of 400 proposals accepted")
    write_bayes(out)
