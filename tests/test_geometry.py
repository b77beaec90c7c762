import numpy as np
import pytest

import biaslab as bl
from biaslab import (
    classify,
    design_scheme,
    gap_vector,
    indifference_offset,
    make_instance,
)
from biaslab.errors import DefaultActionGap, InconsistentClassification, OutOfRangeThreshold, Untestable
from conftest import random_instance


class TestGapVector:
    def test_two_state(self, twostate_instance):
        gap = gap_vector(twostate_instance, "Active")
        np.testing.assert_allclose(gap.coeffs, [-1.0, 1.0])
        assert gap.coeffs @ twostate_instance.prior.probs == pytest.approx(0.6)

    def test_symmetric(self, symmetric3_instance):
        np.testing.assert_allclose(gap_vector(symmetric3_instance, "a1").coeffs, [-0.9, 1.1])
        np.testing.assert_allclose(gap_vector(symmetric3_instance, "a2").coeffs, [1.1, -0.9])

    def test_default_rejected(self, twostate_instance):
        with pytest.raises(DefaultActionGap):
            gap_vector(twostate_instance, "Passive")


class TestOffset:
    def test_two_state(self, twostate_instance):
        assert indifference_offset(twostate_instance, "Active", 0.5) == pytest.approx(-0.6, abs=1e-12)

    def test_symmetric(self, symmetric3_instance):
        assert indifference_offset(symmetric3_instance, "a1", 0.5) == pytest.approx(-0.1, abs=1e-12)

    def test_vanishes_as_threshold_vanishes(self, twostate_instance):
        assert abs(indifference_offset(twostate_instance, "Active", 1e-9)) < 1e-8

    def test_threshold_range(self, twostate_instance):
        with pytest.raises(OutOfRangeThreshold):
            indifference_offset(twostate_instance, "Active", 1.0)


class TestTranslatedSet:
    @pytest.mark.parametrize(
        "tau,expected", [(0.5, True), (0.8, False), (0.625, True)]
    )
    def test_two_state(self, twostate_instance, tau, expected):
        assert bl.translated_set_nonempty(twostate_instance, "Active", tau) is expected

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            inst = random_instance(rng)
            for action in inst.actions:
                if action == inst.default_action:
                    continue
                flags = [
                    bl.translated_set_nonempty(inst, action, t)
                    for t in np.linspace(0.05, 0.95, 19)
                ]
                assert all(a or not b for a, b in zip(flags, flags[1:]))


class TestTestableRange:
    def test_two_state(self, twostate_instance):
        assert bl.testable_range(twostate_instance) == pytest.approx(0.625, abs=1e-12)

    def test_matches_two_state_bound(self, twostate_instance):
        # same quantity through the closed form (1 - mu*) / (1 - mu0)
        assert bl.testable_range(twostate_instance) == pytest.approx(0.5 / 0.8, abs=1e-12)

    def test_symmetric(self, symmetric3_instance):
        assert bl.testable_range(symmetric3_instance) == pytest.approx(0.9, abs=1e-12)

    def test_dominant_default(self):
        inst = make_instance(
            states=["x", "y"],
            actions=["safe", "worse"],
            prior=[0.5, 0.5],
            utility=[[1.0, 1.0], [0.0, 0.5]],
        )
        assert bl.testable_range(inst) == 0.0


class TestClassify:
    def test_single_sample(self, symmetric3_instance):
        c = classify(symmetric3_instance, 0.5)
        assert c.verdict is bl.Testability.SINGLE_SAMPLE
        assert c.useful_mass == pytest.approx(1.0, abs=1e-9)
        assert set(c.nonempty_actions) == {"a1", "a2"}

    def test_finite(self, twostate_instance):
        c = classify(twostate_instance, 0.5)
        assert c.verdict is bl.Testability.FINITE
        assert c.useful_mass == pytest.approx(0.25, abs=1e-9)

    def test_untestable(self, twostate_instance):
        c = classify(twostate_instance, 0.8)
        assert c.verdict is bl.Testability.UNTESTABLE
        assert c.useful_mass is None
        assert c.nonempty_actions == ()

    @pytest.mark.parametrize(
        "tau, value, match",
        [(0.5, 0.0, "no useful mass but nonempty"), (0.8, 0.5, "every translated set is empty")],
        ids=["zero-mass-nonempty", "mass-all-empty"],
    )
    def test_solver_disagreement_raises(self, twostate_instance, monkeypatch, tau, value, match):
        # A stand-in solver contradicts the geometry: tau_max is 0.625 here.
        monkeypatch.setattr("biaslab.geometry.solve_lp", lambda lp: (value, np.zeros(lp.n_vars)))
        with pytest.raises(InconsistentClassification, match=match):
            classify(twostate_instance, tau)

    def test_agrees_with_design_over_grid(self):
        rng = np.random.default_rng(83)
        for _ in range(15):
            inst = random_instance(rng)
            for tau in np.arange(0.05, 1.0, 0.05):
                tau = float(round(tau, 2))
                c = classify(inst, tau)
                if c.verdict is bl.Testability.UNTESTABLE:
                    with pytest.raises(Untestable):
                        design_scheme(inst, tau)
                else:
                    res = design_scheme(inst, tau)
                    assert res.useful_mass == pytest.approx(c.useful_mass, abs=1e-9)

    def test_verdict_never_returns_from_untestable(self):
        rng = np.random.default_rng(89)
        for _ in range(10):
            inst = random_instance(rng)
            seen_untestable = False
            for tau in np.linspace(0.05, 0.95, 19):
                v = classify(inst, float(tau)).verdict
                if v is bl.Testability.UNTESTABLE:
                    seen_untestable = True
                else:
                    assert not seen_untestable

    def test_single_sample_leaves_no_default_mass(self):
        rng = np.random.default_rng(97)
        found = 0
        for _ in range(40):
            inst = random_instance(rng)
            for tau in (0.1, 0.2, 0.3):
                c = classify(inst, tau)
                if c.verdict is bl.Testability.SINGLE_SAMPLE:
                    found += 1
                    res = design_scheme(inst, tau)
                    probs = res.scheme.signal_probs(inst.prior)
                    assert probs[inst.default_index] <= 1e-9
        assert found > 0

    def test_rescaling_preserves_verdict(self):
        rng = np.random.default_rng(101)
        for _ in range(10):
            inst = random_instance(rng)
            inst2 = make_instance(
                states=inst.states,
                actions=inst.actions,
                prior=inst.prior.probs,
                utility=11.0 * np.asarray(inst.utility),
            )
            for tau in (0.2, 0.5, 0.8):
                assert classify(inst, tau).verdict is classify(inst2, tau).verdict

    def test_json_shape(self, twostate_instance):
        data = classify(twostate_instance, 0.5).to_json_dict()
        assert data == {
            "verdict": "finite",
            "p_star": pytest.approx(0.25, abs=1e-9),
            "tau_max": pytest.approx(0.625, abs=1e-12),
            "nonempty_actions": ["Active"],
        }
