import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import biaslab as bl
import biaslab.design
import biaslab.geometry
from biaslab import (
    classify,
    design_scheme,
    gap_vector,
    indifference_offset,
    make_instance,
)
from biaslab.cli import run_cli
from biaslab.design import _knapsack_design
from biaslab.errors import (
    DefaultActionGap,
    NoUniqueDefault,
    Numerical,
    OutOfRangeThreshold,
    Untestable,
)
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

    def test_odds_overflow(self):
        # The reach 1e300 over the prior value 2e-9 overflows to inf odds,
        # whose threshold is 1, not NaN: every threshold is testable.
        inst = make_instance(
            states=["x", "y", "z"],
            actions=["safe", "risky"],
            prior=[0.25, 0.25, 0.5],
            utility=[[0.0, 0.0, 0.0], [1e300, -1e300, -4e-9]],
        )
        assert bl.testable_range(inst) == 1.0
        assert bl.translated_set_nonempty(inst, "risky", 0.99)
        c = classify(inst, 0.5)
        assert c.verdict is bl.Testability.SINGLE_SAMPLE and c.nonempty_actions == ("risky",)


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

    def test_no_useful_mass_is_untestable(self, twostate_instance, monkeypatch):
        # A stand-in solver finds no useful mass below tau_max (0.625 here):
        # p* goes through design_scheme's rule, so the answer is untestable.
        monkeypatch.setattr("biaslab.geometry.solve_lp", lambda lp: (0.0, np.zeros(lp.n_vars)))
        c = classify(twostate_instance, 0.5)
        assert c.verdict is bl.Testability.UNTESTABLE and c.useful_mass is None
        assert c.nonempty_actions == ("Active",)

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


# Three actions, tau 1e-8 (relative) above tau_max 0.07094521126938107:
# the LP found the useful mass 0.0389 there while every translated set was
# empty, so classify raised InconsistentClassification (CLI exit 1).
THREE_ACTION = {
    "states": ["t0", "t1"],
    "actions": ["a0", "a1", "a2"],
    "prior": [0.038902744708005525, 0.9610972552919945],
    "utility": [
        [-3.1606049304563366, 4.884341584539774],
        [-17.440529115689333, 2.144217700575384],
        [-3.8990804863182706, 14.976296061496326],
    ],
}
THREE_ACTION_TAU = 0.07094521197883318


# Good has prior 1e-10, so p* is at most 1e-10 at every threshold, although
# tau_max is 0.50000000005: every threshold is untestable, and classify
# used to raise "no useful mass but nonempty translated sets" (exit 1)
# where design_scheme raised Untestable (exit 3).
TINY_PRIOR = {"states": ["G", "B"], "actions": ["A", "P"], "prior": [1e-10, 0.9999999999], "utility": [[1, -1], [0, 0]]}


class TestUsefulMassFloor:
    """p* at or below ATOL is untestable, in classify as in design_scheme."""

    def test_every_threshold_untestable(self):
        inst = make_instance(**TINY_PRIOR)
        tau_max = bl.testable_range(inst)
        assert tau_max == pytest.approx(0.5, abs=1e-9)
        for tau in (0.01, 0.3, 0.5, tau_max):
            c = classify(inst, tau)
            assert c.verdict is bl.Testability.UNTESTABLE and c.useful_mass is None
            for design in (design_scheme, _knapsack_design):
                with pytest.raises(Untestable):
                    design(inst, tau)

    def test_cli_exit_codes(self, tmp_path):
        path = tmp_path / "tiny-prior.json"
        path.write_text(json.dumps(TINY_PRIOR), encoding="utf-8")
        for argv in (["classify", "--tau", "0.3"], ["design", "--tau", "0.3"], ["estimate", "--w", "0.3", "--epsilon", "1e-3"]):
            assert run_cli([argv[0], "--instance", str(path), *argv[1:]])[0] == 3, argv
        code, out = run_cli(["sweep", "--instance", str(path)])
        rows = out.splitlines()[1:]
        assert code == 0 and len(rows) == 99 and all(row.endswith(",,inf,untestable") for row in rows)


class TestClosedFormDecides:
    """The closed-form testable range decides testability, tau_max itself
    included; the LP is asked only for p* at or below it."""

    def test_three_action_just_above_tau_max(self, tmp_path):
        inst = make_instance(**THREE_ACTION)
        assert bl.testable_range(inst) < THREE_ACTION_TAU
        c = classify(inst, THREE_ACTION_TAU)
        assert c.verdict is bl.Testability.UNTESTABLE and c.nonempty_actions == ()
        with pytest.raises(Untestable):
            design_scheme(inst, THREE_ACTION_TAU)
        path = tmp_path / "three-action.json"
        path.write_text(json.dumps(THREE_ACTION), encoding="utf-8")
        code, out = run_cli(["classify", "--instance", str(path), "--tau", repr(THREE_ACTION_TAU)])
        assert code == 3 and json.loads(out)["verdict"] == "untestable"

    def test_three_action_at_tau_max(self):
        inst = make_instance(**THREE_ACTION)
        tau_max = bl.testable_range(inst)
        c = classify(inst, tau_max)
        assert c.verdict is bl.Testability.FINITE and c.nonempty_actions == ("a0",)
        assert c.useful_mass == pytest.approx(0.038902744708005525, abs=1e-12)
        assert design_scheme(inst, tau_max).useful_mass == c.useful_mass

    def test_canonical_tau_max_is_inclusive(self, twostate_instance):
        assert bl.testable_range(twostate_instance) == 0.625
        c = classify(twostate_instance, 0.625)
        assert c.verdict is bl.Testability.FINITE
        assert c.useful_mass == pytest.approx(0.2, abs=1e-12)
        assert design_scheme(twostate_instance, 0.625).useful_mass == c.useful_mass
        assert _knapsack_design(twostate_instance, 0.625).useful_mass == pytest.approx(0.2, abs=1e-12)
        assert bl.translated_set_nonempty(twostate_instance, "Active", 0.625)

    def test_canonical_one_double_above(self, twostate_instance):
        tau = math.nextafter(0.625, 1.0)
        assert classify(twostate_instance, tau).verdict is bl.Testability.UNTESTABLE
        with pytest.raises(Untestable):
            design_scheme(twostate_instance, tau)
        with pytest.raises(Untestable):
            _knapsack_design(twostate_instance, tau)
        assert not bl.translated_set_nonempty(twostate_instance, "Active", tau)

    def test_no_lp_above_tau_max(self, twostate_instance, monkeypatch, tmp_path):
        builds = []
        build_lp = biaslab.design.build_lp

        def counting_build_lp(instance, tau):
            builds.append(tau)
            return build_lp(instance, tau)

        for module in (biaslab.geometry, biaslab.design):
            monkeypatch.setattr(module, "build_lp", counting_build_lp)
        three = make_instance(**THREE_ACTION)
        for inst, tau in ((twostate_instance, 0.8), (three, THREE_ACTION_TAU)):
            assert classify(inst, tau).verdict is bl.Testability.UNTESTABLE
            with pytest.raises(Untestable):
                design_scheme(inst, tau)
        path = tmp_path / "twostate.json"
        path.write_text(json.dumps(twostate_instance.to_json_dict()), encoding="utf-8")
        code, out = run_cli(["sweep", "--instance", str(path), "--tau-grid", "0.63,0.7,0.99"])
        assert code == 0 and out.count(",untestable") == 3
        assert builds == []
        # The counter does see the cells at or below tau_max.
        classify(twostate_instance, 0.625)
        design_scheme(twostate_instance, 0.5)
        assert builds == [0.625, 0.5]

    def test_bad_threshold_checked_first(self, twostate_instance):
        for tau in (0.0, 1.0, 1.5, math.nan):
            for call in (classify, design_scheme, _knapsack_design):
                with pytest.raises(OutOfRangeThreshold):
                    call(twostate_instance, tau)


TAU_GRID = [k / 100 for k in range(1, 100)]


def _twin(raw, utility=None, states=None, actions=None):
    """``raw`` with new utilities, or with states and actions permuted."""
    u = np.asarray(raw["utility"] if utility is None else utility, dtype=float)
    ps = range(len(raw["states"])) if states is None else states
    pa = range(len(raw["actions"])) if actions is None else actions
    return {
        "states": [raw["states"][i] for i in ps],
        "actions": [raw["actions"][i] for i in pa],
        "prior": [raw["prior"][i] for i in ps],
        "utility": u[np.ix_(list(pa), list(ps))].tolist(),
    }


def _answer(inst, tau):
    """(verdict, p*) of classify, checked against design_scheme; None when
    the LP solve fails for both (a solver defect, only ever at or below
    tau_max, where an LP is built)."""
    try:
        c = classify(inst, tau)
    except Numerical:
        assert tau <= bl.testable_range(inst)
        with pytest.raises(Numerical):
            design_scheme(inst, tau)
        return None
    if c.verdict is bl.Testability.UNTESTABLE:
        with pytest.raises(Untestable):
            design_scheme(inst, tau)
        return c.verdict, None
    assert design_scheme(inst, tau).useful_mass == c.useful_mass
    return c.verdict, c.useful_mass


class TestInvarianceProperty:
    """Verdicts and p* hold under every transformation that changes no best
    response: scaling utilities by 10^k, the per-state affine maps
    u[a, t] -> alpha * u[a, t] + beta[t], and permutations of states and of
    actions.  Thresholds cover the 99-point grid and tau_max * (1 +- 10^-k)
    for k from 6 to 12.

    Utilities are integers in [-5, 5] and prior weights integers in [1, 5],
    so an instance's margins are at least 1/30 of its utility spread.  A
    twin's tau_max then differs from the original's only by the rounding of
    its inputs, under 5e-13 relative; an ill-conditioned instance, whose
    tau_max moves further with that rounding, has no common answer within
    that band.  Nor does a grid threshold within 5e-13 of tau_max, which
    happens when tau_max is a round number: the rounding of each twin's
    inputs puts it on one side or the other.  Every answer still has
    classify and design_scheme agree.  Twins that no longer have a unique
    default action (NoUniqueDefault) are skipped and counted, and so are
    thresholds where the LP raises Numerical (see
    ``test_design.TestKnownHighsDefect``)."""

    def test_verdict_and_p_star_invariant(self):
        seen = {"twins": 0, "skipped": 0, "cells": 0, "numerical": 0}

        @settings(max_examples=80, deadline=None)
        @given(data=st.data(), n_states=st.integers(2, 6), n_actions=st.integers(2, 4))
        def check(data, n_states, n_actions):
            weights = data.draw(st.lists(st.integers(1, 5), min_size=n_states, max_size=n_states))
            cells = st.lists(st.integers(-5, 5), min_size=n_states, max_size=n_states)
            utility = data.draw(st.lists(cells, min_size=n_actions, max_size=n_actions))
            raw = {
                "states": [f"t{i}" for i in range(n_states)],
                "actions": [f"a{i}" for i in range(n_actions)],
                "prior": [w / sum(weights) for w in weights],
                "utility": utility,
            }
            try:
                inst = make_instance(**raw)
            except NoUniqueDefault:
                assume(False)
            tau_max = bl.testable_range(inst)
            taus = data.draw(st.lists(st.sampled_from(TAU_GRID), min_size=1, max_size=3))
            if 0.0 < tau_max < 0.99:
                for sign in (-1.0, 1.0):
                    taus.append(tau_max * (1.0 + sign * 10.0 ** -data.draw(st.integers(6, 12))))

            u = np.asarray(utility, dtype=float)
            alpha = data.draw(st.floats(0.5, 2.0))
            beta = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=n_states, max_size=n_states)))
            twins = [
                _twin(raw, utility=10.0 ** data.draw(st.integers(-6, 9)) * u),
                _twin(raw, utility=alpha * u + beta),
                _twin(raw, states=data.draw(st.permutations(range(n_states))),
                      actions=data.draw(st.permutations(range(n_actions)))),
            ]
            expected = {tau: _answer(inst, tau) for tau in taus}
            for twin_raw in twins:
                seen["twins"] += 1
                try:
                    twin = make_instance(**twin_raw)
                except NoUniqueDefault:
                    seen["skipped"] += 1
                    continue
                for tau in taus:
                    seen["cells"] += 1
                    answer = _answer(twin, tau)
                    if answer is None or expected[tau] is None:
                        seen["numerical"] += 1
                        continue
                    if abs(tau - tau_max) <= 5e-13 * tau_max:
                        continue
                    assert answer[0] is expected[tau][0], (tau, twin_raw)
                    if answer[1] is not None:
                        assert answer[1] == pytest.approx(expected[tau][1], abs=1e-9), (tau, twin_raw)

        check()
        print(
            f"invariance: {seen['skipped']} of {seen['twins']} twins skipped (NoUniqueDefault); "
            f"{seen['numerical']} of {seen['cells']} twin cells unchecked (Numerical)"
        )
        assert seen["skipped"] < seen["twins"] and seen["numerical"] < seen["cells"]
