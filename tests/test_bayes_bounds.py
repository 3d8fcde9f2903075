"""Tests for Bayesian ENFP bounds built from frozen h-probabilities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from enfp.bayes_bounds import (
    PositiveTrialResult,
    omega_hat,
    omega_hat_stratified,
    positive_result,
    trial_contribution,
)
from enfp.deconv import PriorModel
from enfp.ledger import Ledger
from enfp.trials import (
    EfficacyMeasure,
    FailureRegionType,
    RejectionPolicy,
    TrialRecord,
)

A = FailureRegionType.A
B = FailureRegionType.B


def _result(trial_id, m, t, z_values, h_values, stratum=None):
    return PositiveTrialResult(
        trial_id=trial_id,
        m=m,
        failure_type=t,
        z_values=tuple(z_values),
        h_values=tuple(h_values),
        stratum=stratum,
    )


def _two_point_model(mass_neg=0.5, theta_neg=-1.0, theta_pos=2.0):
    grid = np.arange(-120, 301) * 0.025  # [-3, 7.5], contains both atoms
    masses = np.zeros(grid.size)
    masses[np.argmin(np.abs(grid - theta_neg))] = mass_neg
    masses[np.argmin(np.abs(grid - theta_pos))] = 1.0 - mass_neg
    return PriorModel.from_masses(grid, masses)


class TestTrialContribution:
    def test_single_endpoint(self):
        r = _result("t1", 1, B, [2.1], [0.99])
        assert_allclose(trial_contribution(r), 0.01, atol=1e-12)

    def test_type_b_sums_over_endpoints(self):
        r = _result("t2", 2, B, [2.1, 1.7], [0.99, 0.95])
        assert_allclose(trial_contribution(r), 0.06, atol=1e-12)

    def test_type_a_designated_uses_first_endpoint(self):
        r = _result("t3", 2, A, [2.1, 1.7], [0.99, 0.95])
        assert_allclose(
            trial_contribution(r, endpoint_mode="designated"),
            0.01,
            atol=1e-12,
        )

    def test_type_a_tightest_uses_largest_z(self):
        r = _result("t4", 2, A, [1.7, 2.1], [0.95, 0.99])
        assert_allclose(
            trial_contribution(r, endpoint_mode="tightest"),
            0.01,
            atol=1e-12,
        )
        # Designated mode keeps endpoint 1 even when endpoint 2 is stronger.
        assert_allclose(
            trial_contribution(r, endpoint_mode="designated"),
            0.05,
            atol=1e-12,
        )

    def test_endpoint_mode_irrelevant_for_type_b(self):
        r = _result("t5", 3, B, [1.0, 2.0, 3.0], [0.6, 0.9, 0.99])
        assert trial_contribution(r, "designated") == trial_contribution(
            r, "tightest"
        )

    def test_unknown_mode_errors(self):
        r = _result("t6", 1, B, [2.0], [0.9])
        with pytest.raises(ValueError):
            trial_contribution(r, endpoint_mode="median")

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_omega_hat_of_the_trial(self, data):
        # The scalar the ledger spends and omega_hat's array read rule
        # agree exactly, with tied and infinite z included.
        m = data.draw(st.integers(1, 4))
        z_value = st.sampled_from([-math.inf, 0.5, 2.0, math.inf]) | st.floats(
            -5.0, 5.0
        )
        r = _result(
            "t",
            m,
            data.draw(st.sampled_from([A, B])),
            data.draw(st.lists(z_value, min_size=m, max_size=m)),
            data.draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m)),
        )
        for mode in ("designated", "tightest"):
            assert trial_contribution(r, mode) == omega_hat([r], mode)


class TestOmegaHat:
    def test_hand_evaluation(self):
        results = [
            _result("t1", 1, B, [2.1], [0.99]),
            _result("t2", 2, A, [2.1, 1.7], [0.99, 0.95]),
        ]
        # 0.01 + 0.01: the type-A trial counts only its designated endpoint.
        assert_allclose(omega_hat(results), 0.02, atol=1e-12)

    def test_mixed_portfolio(self):
        results = [
            _result("t1", 1, B, [2.2], [0.98]),
            _result("t2", 2, B, [2.2, 2.4], [0.99, 0.97]),
        ]
        assert_allclose(omega_hat(results), 0.06, atol=1e-12)

    def test_empty_is_vacuous(self):
        assert omega_hat([]) == 0.0

    def test_bounded_by_total_endpoints(self):
        rng = np.random.default_rng(11)
        results = []
        for i in range(40):
            m = int(rng.integers(1, 5))
            t = B if rng.random() < 0.5 else A
            if m == 1:
                t = B
            h = rng.uniform(0, 1, size=m)
            z = rng.uniform(1.5, 4.0, size=m)
            results.append(_result(f"t{i}", m, t, z, h))
        total_endpoints = sum(r.m for r in results)
        assert 0.0 <= omega_hat(results) <= total_endpoints

    def test_fsum_accumulation(self):
        # 10_000 equal contributions of 0.1: fsum keeps this exact.
        results = [
            _result(f"t{i}", 1, B, [2.0], [0.9]) for i in range(10_000)
        ]
        contribution = 1.0 - 0.9
        assert omega_hat(results) == math.fsum(
            [contribution] * 10_000
        )


class TestFrozenHValues:
    def test_positive_result_freezes_h_from_model(self):
        model = _two_point_model()
        policy = RejectionPolicy.at_alpha(0.025, m=1, failure_type=B)
        trial = TrialRecord(
            trial_id="rx-1",
            m=1,
            failure_type=B,
            measures=(EfficacyMeasure(endpoint_index=1, z=2.5),),
            policy=policy,
            outcome="positive",
        )
        res = positive_result(trial, model)
        from enfp.hcurve import h_probability

        assert res.h_values[0] == h_probability(model, 2.5)
        assert res.z_values == (2.5,)

    def test_positive_result_requires_positive_outcome(self, tmp_path):
        model = _two_point_model()
        policy = RejectionPolicy.at_alpha(0.025, m=1, failure_type=B)
        trial = TrialRecord(
            trial_id="rx-2",
            m=1,
            failure_type=B,
            measures=(EfficacyMeasure(endpoint_index=1, z=2.5),),
            policy=policy,
            outcome="negative",
        )
        with pytest.raises(ValueError):
            positive_result(trial, model)
        # An adjustment freezes any trial with exact z values.
        path = tmp_path / "b.jsonl"
        with Ledger.create(path, "bayes", budget=1.0, model=model) as led:
            led.record_adjustment(trial, model, "post-hoc rescue")
            (entry,) = led.entries()
        from enfp.hcurve import h_probability, h_values

        assert entry["payload"]["z"] == [2.5]
        assert entry["payload"]["h"] == list(h_values(model, [2.5]))
        assert entry["payload"]["h"] == [h_probability(model, 2.5)]


class TestStratified:
    def test_additive_across_strata(self):
        by_stratum = {
            "us": [_result("t1", 1, B, [2.0], [0.97], stratum="us")],
            "eu": [_result("t2", 1, B, [2.2], [0.96], stratum="eu")],
        }
        per, total = omega_hat_stratified(by_stratum)
        assert_allclose(per["us"], 0.03, atol=1e-12)
        assert_allclose(per["eu"], 0.04, atol=1e-12)
        assert_allclose(total, 0.07, atol=1e-12)

    def test_single_stratum_equals_pooled(self):
        results = [
            _result("t1", 2, B, [2.0, 2.2], [0.9, 0.8]),
            _result("t2", 1, B, [2.5], [0.99]),
        ]
        per, total = omega_hat_stratified({"all": results})
        assert per["all"] == omega_hat(results) == total

    def test_empty_stratum_contributes_zero(self):
        per, total = omega_hat_stratified(
            {"a": [], "b": [_result("t", 1, B, [2.0], [0.9])]}
        )
        assert per["a"] == 0.0
        assert_allclose(total, 0.1, atol=1e-12)


class TestValidation:
    def test_h_length_must_match_m(self):
        with pytest.raises(ValueError):
            _result("t", 2, B, [2.0, 2.1], [0.9])

    def test_h_range(self):
        with pytest.raises(ValueError):
            _result("t", 1, B, [2.0], [1.5])
        with pytest.raises(ValueError):
            _result("t", 1, B, [2.0], [-0.1])

    @pytest.mark.parametrize("z", [(math.nan, 3.0), (3.0, math.nan)])
    def test_nan_z_refused(self, z):
        with pytest.raises(ValueError, match="NaN"):
            _result("t", 2, A, z, [0.5, 0.9])

    def test_infinite_z_kept(self):
        r = _result("t", 2, A, [-math.inf, math.inf], [0.0, 1.0])
        assert trial_contribution(r, "tightest") == 0.0
        assert omega_hat([r], "tightest") == 0.0

    def test_needs_an_endpoint(self):
        with pytest.raises(ValueError, match="m must be"):
            _result("t", 0, A, [], [])

    def test_boundary_h_values_allowed(self):
        r = _result("t", 2, B, [9.0, -9.0], [1.0, 0.0])
        assert_allclose(trial_contribution(r), 1.0, atol=1e-15)
