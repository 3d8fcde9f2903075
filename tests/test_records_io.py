"""Round-trip and error-reporting tests for trial-record serialization."""

import hashlib
import json

import numpy as np
import pytest

import enfp.trials
from enfp.records_io import (
    CSV_COLUMNS,
    RecordParseError,
    extract_observations,
    load_records,
    record_from_dict,
    record_to_dict,
    records_from_csv,
    records_from_json,
    records_to_csv,
    records_to_json,
    save_records,
    synthesize_corpus,
)
from enfp.trials import (
    EfficacyMeasure,
    FailureRegionType,
    RejectionPolicy,
    TrialRecord,
    classify_rejection,
    p_to_z,
)


def _exact(idx, z, direction=True):
    return EfficacyMeasure(
        endpoint_index=idx, z=z, direction_favorable=direction
    )


def _assorted_records():
    """A menagerie covering every serializable feature."""
    single = TrialRecord(
        trial_id="t-001",
        m=1,
        failure_type=FailureRegionType.B,
        measures=(_exact(1, 2.3),),
        policy=RejectionPolicy.at_alpha(0.025, 1, FailureRegionType.B),
        outcome="positive",
    )
    type_a = TrialRecord(
        trial_id="t-002",
        m=2,
        failure_type=FailureRegionType.A,
        measures=(_exact(1, 2.5), _exact(2, -0.3, direction=False)),
        policy=RejectionPolicy.at_alpha(0.05, 2, FailureRegionType.A),
        stratum="us",
        outcome="positive",
    )
    type_b = TrialRecord(
        trial_id="t-003",
        m=3,
        failure_type=FailureRegionType.B,
        measures=(_exact(1, 1.1), _exact(2, 0.0), _exact(3, -4.25)),
        policy=RejectionPolicy.at_alpha(0.01, 3, FailureRegionType.B),
        stratum="eu",
        outcome="negative",
    )
    censored = TrialRecord(
        trial_id="t-004",
        m=1,
        failure_type=FailureRegionType.B,
        measures=(EfficacyMeasure.censored_at_p(1, 0.05),),
        policy=RejectionPolicy.at_alpha(0.025, 1, FailureRegionType.B),
    )
    h_policy = TrialRecord(
        trial_id="t-005",
        m=2,
        failure_type=FailureRegionType.B,
        measures=(_exact(1, 3.25), _exact(2, 2.875)),
        policy=RejectionPolicy.at_h_floor(0.975),
    )
    return (single, type_a, type_b, censored, h_policy)


class TestCsvRoundTrip:
    def test_assorted_records_round_trip_exactly(self, tmp_path):
        records = _assorted_records()
        path = tmp_path / "records.csv"
        records_to_csv(records, path)
        assert records_from_csv(path) == records

    def test_row_count_one_per_endpoint(self, tmp_path):
        records = _assorted_records()
        path = tmp_path / "records.csv"
        records_to_csv(records, path)
        lines = path.read_text().strip().splitlines()
        n_measures = sum(t.m for t in records)
        assert len(lines) == 1 + n_measures
        assert lines[0] == ",".join(CSV_COLUMNS)

    def test_floats_survive_at_full_precision(self, tmp_path):
        z = 2.000000000000000444089209850062616169452667236328125
        rec = TrialRecord(
            trial_id="t",
            m=1,
            failure_type=FailureRegionType.B,
            measures=(_exact(1, z),),
            policy=RejectionPolicy.at_alpha(0.025, 1, FailureRegionType.B),
        )
        path = tmp_path / "r.csv"
        records_to_csv([rec], path)
        (back,) = records_from_csv(path)
        assert back.measures[0].z == z

    def test_p_value_rows_convert_to_signed_z(self, tmp_path):
        path = tmp_path / "p.csv"
        crit = repr(p_to_z(0.05, True))
        rows = [
            ",".join(CSV_COLUMNS),
            f"t-1,1,1,B,,0.05,true,false,{crit},0.025,,,",
            f"t-2,1,1,B,,0.05,false,false,{crit},0.025,,,",
        ]
        path.write_text("\n".join(rows) + "\n")
        recs = records_from_csv(path)
        assert recs[0].measures[0].z == pytest.approx(
            p_to_z(0.05, True), abs=0
        )
        assert recs[1].measures[0].z == -recs[0].measures[0].z

    def test_tiny_p_value_row_loads(self, tmp_path):
        # 1 - 1e-17 / 2 rounds to 1; the row still takes its quantile.
        path = tmp_path / "p.csv"
        crit = repr(p_to_z(0.05, True))
        rows = [
            ",".join(CSV_COLUMNS),
            f"t-1,1,1,B,,1e-17,true,false,{crit},0.025,,,",
            f"t-2,1,1,B,,5e-324,true,false,{crit},0.025,,,",
        ]
        path.write_text("\n".join(rows[:2]) + "\n")
        (rec,) = records_from_csv(path)
        assert rec.measures[0].z == p_to_z(1e-17, True) == 8.573944076720885
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(RecordParseError, match="row 3: p/2 underflows"):
            records_from_csv(path)

    def test_interleaved_trial_rows_regroup(self, tmp_path):
        """Rows of different trials may interleave in the file."""
        records = _assorted_records()
        path = tmp_path / "records.csv"
        records_to_csv(records, path)
        lines = path.read_text().strip().splitlines()
        body = lines[1:]
        shuffled = [body[i] for i in np.random.default_rng(3).permutation(
            len(body)
        )]
        path.write_text("\n".join([lines[0]] + shuffled) + "\n")
        parsed = {t.trial_id: t for t in records_from_csv(path)}
        assert parsed == {t.trial_id: t for t in records}

    def test_censored_without_threshold_refuses_csv(self, tmp_path):
        rec = TrialRecord(
            trial_id="t",
            m=1,
            failure_type=FailureRegionType.B,
            measures=(
                EfficacyMeasure(endpoint_index=1, censor_interval=(-1.0, 2.5)),
            ),
            policy=RejectionPolicy.at_alpha(0.025, 1, FailureRegionType.B),
        )
        with pytest.raises(ValueError, match="JSON"):
            records_to_csv([rec], tmp_path / "r.csv")


class TestCsvErrors:
    def _write(self, tmp_path, body_rows):
        path = tmp_path / "bad.csv"
        path.write_text("\n".join([",".join(CSV_COLUMNS)] + body_rows) + "\n")
        return path

    def test_error_names_the_row(self, tmp_path):
        crit = repr(p_to_z(0.05, True))
        path = self._write(
            tmp_path,
            [
                f"t-1,1,1,B,2.0,,true,false,{crit},0.025,,,",
                f"t-2,1,1,B,not-a-number,,true,false,{crit},0.025,,,",
            ],
        )
        with pytest.raises(RecordParseError, match="row 3"):
            records_from_csv(path)

    def test_nan_critical_z_names_the_row(self, tmp_path):
        path = self._write(
            tmp_path,
            [
                "t-1,1,1,B,2.0,,true,false,1.96,0.025,,,",
                "t-2,1,1,B,9.0,,true,false,nan,0.025,,,",
            ],
        )
        with pytest.raises(RecordParseError, match="row 3.*NaN"):
            records_from_csv(path)

    def test_z_and_p_both_present(self, tmp_path):
        path = self._write(
            tmp_path, ["t-1,1,1,B,2.0,0.05,true,false,1.96,0.025,,,"]
        )
        with pytest.raises(RecordParseError, match="exactly one"):
            records_from_csv(path)

    def test_z_and_p_both_missing(self, tmp_path):
        path = self._write(
            tmp_path, ["t-1,1,1,B,,,true,false,1.96,0.025,,,"]
        )
        with pytest.raises(RecordParseError, match="row 2"):
            records_from_csv(path)

    def test_missing_endpoint_detected(self, tmp_path):
        path = self._write(
            tmp_path, ["t-1,1,2,B,2.0,,true,false,1.96,0.025,,,"]
        )
        with pytest.raises(RecordParseError, match="endpoint_index"):
            records_from_csv(path)

    def test_inconsistent_m_within_trial(self, tmp_path):
        path = self._write(
            tmp_path,
            [
                "t-1,1,2,B,2.0,,true,false,1.96,0.025,,,",
                "t-1,2,3,B,2.5,,true,false,1.96,0.025,,,",
            ],
        )
        with pytest.raises(RecordParseError, match="row 3.*'m'"):
            records_from_csv(path)

    def test_alpha_and_h_floor_together(self, tmp_path):
        path = self._write(
            tmp_path, ["t-1,1,1,B,2.0,,true,false,1.96,0.025,0.9,,"]
        )
        with pytest.raises(RecordParseError, match="one mode or the other"):
            records_from_csv(path)

    def test_h_floor_row_with_critical_z_refused(self, tmp_path):
        path = self._write(
            tmp_path,
            [
                "t-0,1,1,B,2.0,,true,false,,,0.9,,",
                "t-1,1,1,B,2.0,,true,false,1.5,,0.9,,",
            ],
        )
        with pytest.raises(
            RecordParseError, match="row 3.*policy.per_endpoint_critical_z"
        ):
            records_from_csv(path)

    def test_unknown_failure_type(self, tmp_path):
        path = self._write(
            tmp_path, ["t-1,1,1,C,2.0,,true,false,1.96,0.025,,,"]
        )
        with pytest.raises(RecordParseError, match="failure_type"):
            records_from_csv(path)

    def test_bad_outcome(self, tmp_path):
        path = self._write(
            tmp_path, ["t-1,1,1,B,2.0,,true,false,1.96,0.025,,,maybe"]
        )
        with pytest.raises(RecordParseError, match="outcome"):
            records_from_csv(path)

    def test_missing_header_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        cols = [c for c in CSV_COLUMNS if c != "censored"]
        path.write_text(",".join(cols) + "\nt,1,1,B,2.0,,true,1.96,0.025,,,\n")
        with pytest.raises(RecordParseError, match="missing columns"):
            records_from_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(RecordParseError, match="row 1"):
            records_from_csv(path)

    def test_header_only_file(self, tmp_path):
        path = self._write(tmp_path, [])
        with pytest.raises(RecordParseError, match="no rows"):
            records_from_csv(path)


class TestJsonRoundTrip:
    def test_assorted_records_round_trip_exactly(self, tmp_path):
        records = _assorted_records()
        path = tmp_path / "records.json"
        records_to_json(records, path)
        assert records_from_json(path) == records

    def test_arbitrary_interval_survives_json(self, tmp_path):
        rec = TrialRecord(
            trial_id="t",
            m=2,
            failure_type=FailureRegionType.A,
            measures=(
                _exact(1, 0.5),
                EfficacyMeasure(
                    endpoint_index=2, censor_interval=(-0.75, 2.25)
                ),
            ),
            policy=RejectionPolicy.at_alpha(0.05, 2, FailureRegionType.A),
        )
        path = tmp_path / "r.json"
        records_to_json([rec], path)
        (back,) = records_from_json(path)
        assert back == rec
        assert back.measures[1].censor_interval == (-0.75, 2.25)

    def test_infinities_are_strict_json(self, tmp_path):
        # An infinite z or censoring bound is written as a number that a
        # strict parser reads as infinite, and text in strings is kept.
        inf = float("inf")
        records = (
            TrialRecord(
                'Infinity "z": -Infinity',
                2,
                FailureRegionType.A,
                (
                    _exact(1, inf),
                    EfficacyMeasure(2, censor_interval=(-inf, 1.5)),
                ),
                RejectionPolicy.at_alpha(0.05, 2, FailureRegionType.A),
            ),
            TrialRecord(
                "t-2", 1, FailureRegionType.B, (_exact(1, -inf),),
                RejectionPolicy.at_alpha(0.025, 1, FailureRegionType.B),
            ),
        )
        path = tmp_path / "r.json"
        records_to_json(records, path)

        def refuse(token):
            raise ValueError(f"not JSON: {token}")

        strict = json.loads(path.read_text(), parse_constant=refuse)
        assert records_from_json(path) == records
        assert [record_from_dict(t) for t in strict["trials"]] == list(records)
        assert strict["trials"][0]["trial_id"] == records[0].trial_id

    def test_dict_round_trip(self):
        for rec in _assorted_records():
            assert record_from_dict(record_to_dict(rec)) == rec

    def test_h_threshold_policy_with_critical_z_refused(self, tmp_path):
        rec = record_to_dict(
            TrialRecord(
                "t-1", 1, FailureRegionType.B, (_exact(1, 2.0),),
                RejectionPolicy.at_h_floor(0.9),
            )
        )
        rec["policy"]["per_endpoint_critical_z"] = [1.5]
        with pytest.raises(
            RecordParseError, match="policy.per_endpoint_critical_z"
        ):
            record_from_dict(rec)
        with pytest.raises(ValueError, match="h_threshold"):
            RejectionPolicy("h_threshold", (1.5,), h_floor=0.9)

    def test_bad_format_tag(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text('{"format": "other/9", "trials": []}')
        with pytest.raises(RecordParseError, match="format"):
            records_from_json(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text("{nope")
        with pytest.raises(RecordParseError, match="invalid JSON"):
            records_from_json(path)

    def test_error_names_the_trial(self, tmp_path):
        good = record_to_dict(_assorted_records()[0])
        bad = dict(good, m=5)
        path = tmp_path / "r.json"
        records_to_json([], path)  # placeholder write for structure
        path.write_text(
            json.dumps(
                {"format": "enfp-records/1", "trials": [good, bad]}
            )
        )
        with pytest.raises(RecordParseError, match="trial #2"):
            records_from_json(path)


class TestDispatch:
    def test_load_save_by_extension(self, tmp_path):
        records = _assorted_records()[:3]
        for name in ("r.csv", "r.json"):
            path = tmp_path / name
            save_records(records, path)
            assert load_records(path) == records

    def test_explicit_format_overrides_extension(self, tmp_path):
        records = _assorted_records()[:2]
        path = tmp_path / "records.dat"
        save_records(records, path, fmt="json")
        assert load_records(path, fmt="json") == records

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            save_records([], tmp_path / "r.xml", fmt="xml")


class TestExtractObservations:
    def test_pools_exact_and_censored(self):
        records = _assorted_records()
        obs = extract_observations(records)
        n_censored = sum(
            1 for t in records for m_ in t.measures if m_.censored
        )
        n_exact = sum(t.m for t in records) - n_censored
        assert len(obs.exact_z) == n_exact
        assert len(obs.censored) == n_censored
        z0 = p_to_z(0.05, True)
        assert obs.censored[0] == (-z0, z0)
        assert 2.3 in obs.exact_z and -4.25 in obs.exact_z

    def test_round_trip_preserves_observations(self, tmp_path):
        records = _assorted_records()
        path = tmp_path / "r.csv"
        records_to_csv(records, path)
        again = extract_observations(records_from_csv(path))
        assert again == extract_observations(records)


class TestSynthesizeCorpus:
    def test_default_shape(self):
        corpus = synthesize_corpus(seed=11)
        assert len(corpus) == 1393
        n_censored = sum(1 for t in corpus if not t.fully_observed)
        assert n_censored == 172

    def test_deterministic_in_seed(self):
        assert synthesize_corpus(100, 20, seed=5) == synthesize_corpus(
            100, 20, seed=5
        )
        assert synthesize_corpus(100, 20, seed=5) != synthesize_corpus(
            100, 20, seed=6
        )

    def test_censored_rows_carry_the_threshold_band(self):
        corpus = synthesize_corpus(80, 15, seed=2, censor_p=0.05)
        z0 = p_to_z(0.05, True)
        for trial in corpus:
            meas = trial.measures[0]
            if meas.censored:
                assert meas.censor_interval == (-z0, z0)
                assert meas.censor_p == 0.05
                assert trial.outcome is None

    def test_exact_rows_classified_consistently(self):
        corpus = synthesize_corpus(150, 25, seed=9)
        for trial in corpus:
            if trial.fully_observed:
                assert trial.outcome == classify_rejection(
                    TrialRecord(
                        trial_id=trial.trial_id,
                        m=1,
                        failure_type=trial.failure_type,
                        measures=trial.measures,
                        policy=trial.policy,
                    )
                )

    def test_impossible_censoring_raises(self):
        # Nearly all mass at theta = 6 leaves almost nothing under the
        # threshold, so a large censored count cannot be satisfied.
        with pytest.raises(ValueError, match="censor"):
            synthesize_corpus(
                50,
                45,
                seed=1,
                null_mass=0.0,
                effect_mean=6.0,
                effect_sd=0.1,
            )

    @pytest.mark.parametrize(
        "counts, name",
        [((-5, 172), "n_exact"), ((10, -1), "n_censored")],
    )
    def test_negative_count_refused_by_name(self, counts, name):
        with pytest.raises(ValueError, match=f"^{name} must be at least 0"):
            synthesize_corpus(*counts)

    # sha256 of records_to_csv(synthesize_corpus(1221, 172, **kwargs)),
    # recorded before the generator classified its draws as one array.
    PINNED = [
        ({"seed": 7},
         "b6c5a4828dee975f690f6adda5e8ca0f1b311b7787e0095d51b4ba0a72bd46dc"),
        ({"seed": 8},
         "f8e2cbbb73d975e8cd677eb1918a83763290ae5ef10a30cf585ae720623a55ca"),
        ({"seed": 9},
         "8e378aeddf14d6e1cdc0bbb465c5ba7e355ac5397299f08240e046581c8f03a1"),
        ({"seed": 3, "censor_p": 0.01, "alpha": 0.05},
         "e4a54dedc00bb67971e3fecf4d5225092a227b9e47d0f65f1481f90cdf6eefaf"),
    ]

    @pytest.mark.parametrize(
        "kwargs,digest", PINNED, ids=["seed7", "seed8", "seed9", "p01_a05"]
    )
    def test_csv_bytes_are_pinned(self, tmp_path, kwargs, digest):
        path = tmp_path / "corpus.csv"
        records_to_csv(synthesize_corpus(1221, 172, **kwargs), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_quantiles_do_not_grow_with_the_censored_rows(
        self, tmp_path, monkeypatch
    ):
        calls = []
        direct = enfp.trials._norm_quantile

        def counting(p):
            calls.append(p)
            return direct(p)

        monkeypatch.setattr(enfp.trials, "_norm_quantile", counting)
        counts = {}
        for n_censored in (20, 172):
            calls.clear()
            corpus = synthesize_corpus(1221, n_censored, 7)
            counts[n_censored] = len(calls)
            path = tmp_path / f"c{n_censored}.csv"
            records_to_csv(corpus, path)
            assert records_from_csv(path) == corpus
        assert counts[20] == counts[172]
        # The threshold for the draws, the shared censored measure and
        # the policy at alpha = 0.025.
        assert counts[172] == 3

    def test_corpus_feeds_the_estimator(self, tmp_path):
        corpus = synthesize_corpus(120, 20, seed=4)
        path = tmp_path / "corpus.csv"
        records_to_csv(corpus, path)
        obs = extract_observations(records_from_csv(path))
        assert obs.n_total == 140
        assert len(obs.censored) == 20
