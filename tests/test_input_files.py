"""Strict input files: round trips, and one-field fuzzing through the CLI.

Round trips: generated records survive CSV -> records -> JSON -> records,
and generated and shipped models, fit configurations and scenarios
survive ``from_dict(to_dict(x))``, a model with its ``model_id``.

Fuzz: one field of a valid records, model, scenario or ledger file is
changed in type, dropped, or set to NaN, an infinity, a bool or an
out-of-range value, and the command that reads that file runs in-process
through ``cli.main``.  It must exit 2 with exactly one ``enfp: error:``
line on stderr, or succeed with the stdout of the unmutated file; it
must never raise.  A ledger entry allows less: a typed field that takes
another type or an out-of-range value must be refused, naming the line
and the field.  Each fuzz test runs a fixed, derandomized sample.
"""

import contextlib
import dataclasses
import io
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from enfp import cli
from enfp.deconv import FitConfig, PriorModel, fit_g
from enfp.ledger import Ledger, LedgerCorruptError
from enfp.records_io import (
    extract_observations,
    record_to_dict,
    records_from_csv,
    records_from_json,
    records_to_csv,
    records_to_json,
    synthesize_corpus,
)
from enfp.simulate import PolicySpec, ScenarioConfig
from enfp.trials import (
    EfficacyMeasure,
    FailureRegionType,
    RejectionPolicy,
    TrialRecord,
)

A = FailureRegionType.A
B = FailureRegionType.B
SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
SCENARIOS = sorted(SCENARIO_DIR.glob("*.json"))


def fixed(max_examples):
    return settings(
        max_examples=max_examples,
        derandomize=True,
        deadline=None,
        database=None,
    )


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------

names = st.from_regex(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,10}", fullmatch=True)
finite = st.floats(allow_nan=False, allow_infinity=False)
probability = st.floats(min_value=1e-9, max_value=0.999)


@st.composite
def trial_records(draw):
    ids = draw(st.lists(names, min_size=1, max_size=4, unique=True))
    out = []
    for trial_id in ids:
        m = draw(st.integers(1, 3))
        failure_type = draw(st.sampled_from([A, B]))
        measures = []
        for j in range(1, m + 1):
            direction = draw(st.booleans())
            if draw(st.booleans()):
                z = draw(st.floats(allow_nan=False))
                meas = EfficacyMeasure(j, z=z, direction_favorable=direction)
            else:
                meas = dataclasses.replace(
                    EfficacyMeasure.censored_at_p(j, draw(probability)),
                    direction_favorable=direction,
                )
            measures.append(meas)
        kind = draw(st.sampled_from(["at_alpha", "alpha_level", "h"]))
        if kind == "at_alpha":
            policy = RejectionPolicy.at_alpha(draw(probability), m, failure_type)
        elif kind == "alpha_level":
            crits = draw(st.lists(finite, min_size=m, max_size=m))
            policy = RejectionPolicy("alpha_level", tuple(crits), draw(probability))
        else:
            policy = RejectionPolicy.at_h_floor(draw(probability))
        out.append(
            TrialRecord(
                trial_id=trial_id,
                m=m,
                failure_type=failure_type,
                measures=tuple(measures),
                policy=policy,
                stratum=draw(st.none() | names),
                outcome=draw(st.sampled_from([None, "positive", "negative"])),
            )
        )
    return tuple(out)


@fixed(50)
@given(trial_records())
def test_records_round_trip_csv_then_json(records):
    with tempfile.TemporaryDirectory() as tmp:
        csv_path, json_path = Path(tmp, "r.csv"), Path(tmp, "r.json")
        records_to_csv(records, csv_path)
        from_csv = records_from_csv(csv_path)
        records_to_json(from_csv, json_path)
        from_json = records_from_json(json_path)
    assert from_csv == records
    assert from_json == records
    assert [record_to_dict(t) for t in from_json] == [
        record_to_dict(t) for t in records
    ]


fit_configs = st.builds(
    FitConfig,
    grid_low=st.floats(-20.0, -0.01),
    grid_high=st.floats(0.01, 20.0),
    grid_step=st.floats(1e-3, 1.0),
    basis_df=st.integers(2, 30),
    penalty_c0=st.floats(0.0, 10.0),
    max_iterations=st.integers(1, 10_000),
    gradient_tolerance=st.floats(1e-14, 1.0),
    min_observations=st.integers(0, 1000),
    seed=st.integers(0, 2**63),
)


@st.composite
def prior_models(draw):
    grid = sorted(
        set(draw(st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=40)))
    )
    weight = st.integers(0, 20) | st.floats(0.0, 1e6)
    weights = draw(
        st.lists(weight, min_size=len(grid), max_size=len(grid))
        .filter(lambda w: sum(w) > 0)
    )
    model = PriorModel.from_masses(grid, weights)
    if not draw(st.booleans()):
        return model
    z = sorted(set(draw(st.lists(finite, min_size=1, max_size=5))))
    bands = [draw(st.floats(0.0, 1.0)) for _ in range(2 * len(z))]
    return dataclasses.replace(
        model,
        basis_df=draw(st.integers(0, 30)),
        penalty_c0=draw(st.floats(0.0, 10.0)),
        coefficients=np.array(draw(st.lists(finite, max_size=6))),
        log_likelihood=draw(finite),
        converged=draw(st.booleans()),
        fit_config=draw(fit_configs),
        diagnostics={
            "iterations": draw(st.integers(0, 500)),
            "bootstrap": {
                "z_grid": z,
                "h_low": bands[: len(z)],
                "h_high": bands[len(z):],
            },
        },
    )


def assert_model_round_trip(model):
    data = json.loads(json.dumps(model.to_dict()))
    back = PriorModel.from_dict(data)
    assert back.to_dict() == model.to_dict()
    assert back.model_id == model.model_id
    assert back.theta_grid.tobytes() == model.theta_grid.tobytes()
    assert back.masses.tobytes() == model.masses.tobytes()


@fixed(80)
@given(prior_models())
# Dividing these masses by their sum a second time moves their last bits.
@example(PriorModel.from_masses(range(5), [13, 10, 6, 6, 1]))
def test_generated_models_round_trip(model):
    assert_model_round_trip(model)


def shipped_models():
    models = [
        ScenarioConfig.from_json(path.read_text()).prior_model()
        for path in SCENARIOS
    ]
    obs = extract_observations(synthesize_corpus(150, 20, seed=3))
    models.append(fit_g(obs, FitConfig(basis_df=6)))
    return models


def test_shipped_and_fitted_models_round_trip():
    for model in shipped_models():
        assert_model_round_trip(model)


@fixed(60)
@given(fit_configs)
def test_fit_configs_round_trip(cfg):
    assert FitConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


scenarios = st.builds(
    ScenarioConfig,
    true_prior=st.integers(1, 8).flatmap(
        lambda n: st.tuples(
            st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n),
            st.lists(st.floats(0.0, 100.0), min_size=n, max_size=n).filter(
                lambda w: sum(w) > 0
            ),
        )
    ),
    n_trials=st.integers(1, 10**6),
    m_distribution=st.lists(
        st.tuples(
            st.integers(1, 4), st.sampled_from("AB"), st.floats(0.0, 1.0)
        ),
        min_size=1,
        max_size=5,
    ).filter(lambda rows: sum(p for _, _, p in rows) > 0),
    policy=st.builds(
        PolicySpec,
        kind=st.sampled_from(["fixed_alpha", "signal_concordant", "adversarial"]),
        alpha_menu=st.lists(probability, min_size=1, max_size=4).map(tuple),
        signal_noise=st.floats(0.0, 5.0),
    ),
    seed=st.integers(0, 2**63),
    endpoint_correlation=st.floats(0.0, 0.99),
    replicates=st.integers(1, 50),
)


@fixed(80)
@given(scenarios)
def test_generated_scenarios_round_trip(cfg):
    assert ScenarioConfig.from_dict(json.loads(cfg.to_json())) == cfg


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_shipped_scenarios_round_trip(path):
    cfg = ScenarioConfig.from_json(path.read_text())
    assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg


# ----------------------------------------------------------------------
# Fuzz
# ----------------------------------------------------------------------

DROP = "<drop>"


def paths(doc, path=()):
    """Every (path, value) of a JSON document, the root included."""
    yield path, doc
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from paths(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from paths(value, path + (i,))


def mutations(doc, out_of_range):
    """Each (path, new value) pair: a key dropped, a change of type,
    NaN, an infinity, a bool, or a value out of the field's range."""
    cases = []
    for path, value in paths(doc):
        pattern = ".".join("*" if isinstance(p, int) else p for p in path)
        new = [DROP] if path and isinstance(path[-1], str) else []
        if isinstance(value, bool):
            new += [not value, "true", 1]
        elif isinstance(value, (int, float)):
            new += ["x", "1", True, False, None, math.nan, math.inf, -math.inf]
        elif isinstance(value, str):
            new += [1, True, None, "", math.nan]
        elif value is None:
            new += ["x", True, math.nan, math.inf, [], {}]
        else:
            new += ["x", None, True, {} if isinstance(value, list) else []]
        new += out_of_range.get(pattern, [])
        cases += [(path, v) for v in new]
    return cases


def mutate(doc, path, new):
    doc = json.loads(json.dumps(doc))
    if not path:
        return new
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if new is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return doc


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def assert_refused_or_unchanged(code, out, err, baselines):
    if code == 0:
        assert out in baselines
        assert err == ""
    else:
        assert code == 2, err
        assert out == ""
        assert err.startswith("enfp: error: ")
        assert err.count("\n") == 1, err


class Fuzz:
    """A valid file, the command that reads it, and its stdout."""

    def __init__(self, path, doc, argv, out_of_range, write=None):
        self.path, self.doc, self.argv = path, doc, argv
        self.write = write or (lambda p, d: p.write_text(json.dumps(d)))
        self.cases = mutations(doc, out_of_range)
        self.baseline = self.output(doc)

    def output(self, doc):
        self.write(self.path, doc)
        code, out, err = run_main(self.argv)
        assert (code, err) == (0, ""), err
        return out

    def check(self, path, new, also=()):
        self.write(self.path, mutate(self.doc, path, new))
        code, out, err = run_main(self.argv)
        assert_refused_or_unchanged(code, out, err, (self.baseline, *also))


@pytest.fixture(scope="module")
def workdir():
    with tempfile.TemporaryDirectory() as tmp:
        yield Path(tmp)


def fuzz_records():
    exact = EfficacyMeasure
    return (
        TrialRecord(
            "t-1", 1, B, (exact(1, z=2.3),),
            RejectionPolicy.at_alpha(0.025, 1, B), "us", "positive",
        ),
        TrialRecord(
            "t-2", 2, A,
            (
                exact(1, z=2.5),
                dataclasses.replace(
                    EfficacyMeasure.censored_at_p(2, 0.05),
                    direction_favorable=False,
                ),
            ),
            RejectionPolicy.at_alpha(0.05, 2, A),
        ),
        TrialRecord(
            "t-3", 1, B, (EfficacyMeasure.censored_at_p(1, 0.05),),
            RejectionPolicy.at_alpha(0.025, 1, B),
        ),
        TrialRecord(
            "t-4", 3, B,
            (exact(1, z=1.1), exact(2, z=0.0), exact(3, z=-4.25)),
            RejectionPolicy("alpha_level", (1.9, 2.0, 2.1), 0.01),
            outcome="negative",
        ),
    )


@pytest.fixture(scope="module")
def records_fuzz(workdir):
    path = workdir / "records.json"
    records_to_json(fuzz_records(), path)
    return Fuzz(
        path,
        json.loads(path.read_text()),
        ["bounds", "--mode", "freq", "--rho", "0.1", "--records", path],
        {
            "trials.*.m": [0, -1],
            "trials.*.measures.*.endpoint_index": [0, -1],
            "trials.*.policy.nominal_alpha": [0.0, 1.5],
            "trials.*.measures.*.censor_p": [0.0, 1.5],
        },
    )


@fixed(150)
@given(st.data())
def test_fuzz_records(records_fuzz, data):
    records_fuzz.check(*data.draw(st.sampled_from(records_fuzz.cases)))


@pytest.fixture(scope="module")
def model_fuzz(workdir):
    grid = np.linspace(-3.0, 5.0, 17)
    model = dataclasses.replace(
        PriorModel.from_masses(grid, np.exp(-0.5 * (grid - 1.0) ** 2)),
        basis_df=6,
        penalty_c0=0.5,
        coefficients=np.array([0.1, -0.2, 0.3]),
        log_likelihood=-123.25,
        fit_config=FitConfig(),
        diagnostics={
            "iterations": 12,
            "stop_reason": "gradient",
            "bootstrap": {
                "replicates": 4,
                "rho_ci": [0.1, 0.2],
                "z_grid": [0.0, 1.0, 2.0, 3.0],
                "h_low": [0.2, 0.5, 0.8, 0.9],
                "h_high": [0.4, 0.7, 0.95, 0.99],
            },
        },
    )
    path = workdir / "model.json"
    model.to_json(path)
    fuzz = Fuzz(
        path,
        json.loads(path.read_text()),
        ["hcurve", path, "--at", "1.96"],
        {
            "masses.*": [-1.0],
            "diagnostics.bootstrap.h_low.*": [-0.5, 1.5],
            "diagnostics.bootstrap.h_high.*": [-0.5, 1.5],
            "fit_config.grid_low": [1.0],
            "fit_config.grid_high": [-1.0],
            "fit_config.grid_step": [0.0, -1.0],
            "fit_config.basis_df": [1],
            "fit_config.penalty_c0": [-1.0],
        },
    )
    # Without its bootstrap object a model is valid and has no bands.
    fuzz.unbanded = fuzz.output(mutate(fuzz.doc, ("diagnostics",), DROP))
    assert "95% CI" in fuzz.baseline and "95% CI" not in fuzz.unbanded
    return fuzz


@fixed(150)
@given(st.data())
def test_fuzz_model(model_fuzz, data):
    path, new = data.draw(st.sampled_from(model_fuzz.cases))
    optional = path in (("diagnostics",), ("diagnostics", "bootstrap"))
    also = (model_fuzz.unbanded,) if optional and new in (DROP, None) else ()
    model_fuzz.check(path, new, also)


@pytest.fixture(scope="module")
def scenario_fuzz(workdir):
    doc = json.loads((SCENARIO_DIR / "concordant_baseline.json").read_text())
    doc.update(n_trials=400, replicates=1)
    path = workdir / "scenario.json"
    return Fuzz(
        path,
        doc,
        ["simulate", path],
        {
            "n_trials": [0, -5],
            "replicates": [0],
            "seed": [-1],
            "true_prior.mass.*": [-1.0],
            "m_distribution.*.0": [0],
            "m_distribution.*.2": [-1.0],
            "endpoint_correlation": [1.0, -0.5],
            "policy.alpha_menu.*": [0.0, 1.5],
            "policy.signal_noise": [-1.0],
        },
    )


@fixed(60)
@given(st.data())
def test_fuzz_scenario(scenario_fuzz, data):
    scenario_fuzz.check(*data.draw(st.sampled_from(scenario_fuzz.cases)))


@pytest.fixture(scope="module")
def ledger_fuzz(workdir):
    path = workdir / "budget.jsonl"
    with Ledger.create(path, "frequentist", budget=1.0, rho_hat=0.09) as led:
        led.propose("t-001", 1, B, 0.025)
        led.propose("t-002", 2, A, 0.05)
    header, *entries = path.read_text().splitlines()

    def write(p, doc):
        p.write_text("\n".join([json.dumps(doc), *entries]) + "\n")

    return Fuzz(
        path,
        json.loads(header),
        ["ledger", "status", path],
        {"budget": [0.0, -1.0], "rho_hat": [0.0, 1.5]},
        write,
    )


@fixed(60)
@given(st.data())
def test_fuzz_ledger_header(ledger_fuzz, data):
    ledger_fuzz.check(*data.draw(st.sampled_from(ledger_fuzz.cases)))


def entry_fuzz(path, write_ledger, out_of_range):
    """A Fuzz of the entry lines of the ledger ``write_ledger`` writes at
    ``path``: its document is the list of entries, so that a case's path
    starts with the index of the entry on line index + 2."""
    write_ledger(path)
    header, *lines = path.read_text().splitlines()

    def write(p, entries):
        p.write_text("\n".join([header, *map(json.dumps, entries)]) + "\n")

    fuzz = Fuzz(
        path, [json.loads(line) for line in lines], ["ledger", "status", path],
        out_of_range, write,
    )
    fuzz.cases = [(p, new) for p, new in fuzz.cases if p]
    return fuzz


def write_freq_ledger(path):
    with Ledger.create(path, "frequentist", budget=1.0, rho_hat=0.09) as led:
        led.propose("t-001", 1, B, 0.025)
        led.propose("t-002", 2, A, 0.05, stratum="us")
        led.propose("t-003", 3, B, 0.01)


def ledger_trial(trial_id, zs, outcome):
    m = len(zs)
    measures = tuple(EfficacyMeasure(j + 1, z=z) for j, z in enumerate(zs))
    return TrialRecord(
        trial_id, m, B, measures, RejectionPolicy.at_alpha(0.025, m, B),
        outcome=outcome,
    )


def write_bayes_ledger(path):
    """A positive m=2 type-B outcome, a positive and a negative m=1
    outcome, and an adjustment."""
    grid = np.linspace(-3.0, 5.0, 17)
    model = PriorModel.from_masses(grid, np.exp(-0.5 * (grid - 1.0) ** 2))
    with Ledger.create(path, "bayes", budget=1.0, model=model) as led:
        led.record_outcomes(
            [
                ledger_trial("b-1", [3.2, 2.4], "positive"),
                ledger_trial("b-2", [2.9], "positive"),
                ledger_trial("b-3", [1.1], "negative"),
            ],
            model,
        )
        led.record_adjustment(
            ledger_trial("b-4", [1.8], "negative"), model, "post-hoc rescue"
        )


def write_freq_outcome_ledger(path):
    """A frequentist m=2 proposal and its outcome."""
    with Ledger.create(path, "frequentist", budget=1.0, rho_hat=0.09) as led:
        led.propose("f-1", 2, B, 0.025)
        led.record_outcome(ledger_trial("f-1", [2.4, 1.0], "positive"))


LEDGER_WRITERS = {
    "freq": write_freq_ledger,
    "bayes": write_bayes_ledger,
    "freq_outcome": write_freq_outcome_ledger,
}


@pytest.fixture(scope="module")
def freq_entry_fuzz(workdir):
    return entry_fuzz(
        workdir / "freq.jsonl", write_freq_ledger,
        {"*.payload.m": [0, -1], "*.payload.alpha": [0.0, 1.0, 1.5],
         "*.sequence": [0, 9]},
    )


@pytest.fixture(scope="module")
def bayes_entry_fuzz(workdir):
    return entry_fuzz(
        workdir / "bayes.jsonl", write_bayes_ledger,
        {"*.payload.m": [0, -1], "*.payload.h.*": [-0.5, 1.5],
         "*.sequence": [0, 9]},
    )


def field_path(path):
    """A case's field as the ledger names it: ``payload.z[0]``."""
    out = ""
    for key in path:
        out += f"[{key}]" if isinstance(key, int) else f".{key}"
    return out.lstrip(".")


def check_entry(fuzz, path, new):
    """A typed field that takes another JSON type, NaN, an infinity or a
    bool is refused, naming the line and the field; an out-of-range value
    is refused, naming the line.  Exempt: the timestamp, which nothing
    reads; a null or dropped optional field (a stratum, a note, an
    adjustment's outcome and the z of an entry that does not spend); and
    a string stratum or note."""
    entry, field = fuzz.doc[path[0]], path[1:]
    original = entry
    for key in field:
        original = original[key]
    retyped = type(new) is not type(original) or new in (math.inf, -math.inf)
    optional = (
        field in (("stratum",), ("note",))
        or field == ("payload", "outcome") and entry["kind"] == "adjustment"
        or field == ("payload", "z") and "h" not in entry["payload"]
    )
    lenient = (
        field == ("timestamp",)
        or optional and new in (DROP, None)
        or field in (("stratum",), ("note",)) and isinstance(new, str) and new
    )
    if lenient:
        fuzz.check(path, new)
        return
    fuzz.write(fuzz.path, mutate(fuzz.doc, path, new))
    code, out, err = run_main(fuzz.argv)
    assert (code, out) == (2, ""), err
    assert err.startswith(f"enfp: error: line {path[0] + 2}: "), err
    assert err.count("\n") == 1, err
    assert field_path(field) in err or not (retyped or new != new), err


@fixed(150)
@given(st.data())
def test_fuzz_frequentist_ledger_entries(freq_entry_fuzz, data):
    fuzz = freq_entry_fuzz
    check_entry(fuzz, *data.draw(st.sampled_from(fuzz.cases)))


@fixed(150)
@given(st.data())
def test_fuzz_bayes_ledger_entries(bayes_entry_fuzz, data):
    fuzz = bayes_entry_fuzz
    check_entry(fuzz, *data.draw(st.sampled_from(fuzz.cases)))


# Each line that an earlier reader replayed as valid, or refused without
# naming the field: (file, entry index, field, stored value).
LAX_LINES = {
    "proposal_alpha_string": ("freq", 0, ("payload", "alpha"), "0.025"),
    "proposal_sequence_true": ("freq", 0, ("sequence",), True),
    "proposal_trial_id_number": ("freq", 0, ("trial_id",), 5),
    "proposal_note_number": ("freq", 1, ("note",), 7),
    "outcome_maybe": ("bayes", 2, ("payload", "outcome"), "maybe"),
    "positive_m_fraction": ("bayes", 1, ("payload", "m"), 1.5),
    "positive_m_true": ("bayes", 1, ("payload", "m"), True),
    # m * rho would overflow a float.
    "proposal_m_past_the_largest_float": ("freq", 0, ("payload", "m"), 10**400),
    "z_string_element": ("bayes", 2, ("payload", "z"), ["3.0"]),
    "negative_z_string": ("bayes", 2, ("payload", "z"), "abc"),
    "outcome_trial_id_null": ("bayes", 2, ("trial_id",), None),
    "negative_spend_delta_false": ("bayes", 2, ("spend_delta",), False),
    "h_above_one": ("bayes", 0, ("payload", "h", 1), 1.5),
    "h_shorter_than_m": ("bayes", 0, ("payload", "h"), [0.5]),
    "z_longer_than_m": ("bayes", 1, ("payload", "z"), [2.9, 3.0]),
    "negative_z_longer_than_m": ("bayes", 2, ("payload", "z"), [1.1, 1.2]),
    "freq_outcome_z_longer_than_m": (
        "freq_outcome", 1, ("payload", "z"), [1.0, 2.0, 3.0, 4.0, 5.0],
    ),
}


@pytest.mark.parametrize("case", LAX_LINES)
def test_lax_ledger_line_is_corrupt(tmp_path, case):
    kind, index, field, value = LAX_LINES[case]
    path = tmp_path / f"{kind}.jsonl"
    LEDGER_WRITERS[kind](path)
    lines = path.read_text().splitlines()
    entry = mutate(json.loads(lines[index + 1]), field, value)
    lines[index + 1] = json.dumps(entry)
    path.write_text("\n".join(lines) + "\n")
    where = f"line {index + 2}: {field_path(field)}"
    with pytest.raises(LedgerCorruptError, match=re.escape(where)):
        Ledger.open(path)
    code, out, err = run_main(["ledger", "status", path])
    assert (code, out) == (2, "")
    assert err.startswith(f"enfp: error: {where}") and err.count("\n") == 1
