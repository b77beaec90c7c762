"""Copies and pickles of the core objects.

``Instance``, ``SignalingScheme`` and ``Belief`` keep their numbers as
Python floats and build their arrays from them on first read, so a copy
or a pickle carries the floats only.  Whatever route a copy takes, its
arrays are read-only, its bits are the original's, and the library gives
the same answers on it.  ``LinearProgram`` keeps read-only copies of its
arrays and its solver route.
"""

import copy
import json
import pickle
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

import biaslab as bl
from biaslab.core import Belief, Instance, SignalingScheme, bayes_posterior, biased_belief
from biaslab.design import DesignResult, LinearProgram, build_lp, design_scheme, solve_lp
from biaslab.geometry import GapVector, classify, gap_vector
from conftest import random_instance

COPIERS = {
    **{f"pickle-{p}": lambda obj, p=p: pickle.loads(pickle.dumps(obj, protocol=p))
       for p in range(2, pickle.HIGHEST_PROTOCOL + 1)},
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


def _two_action():
    return bl.make_instance(["Good", "Bad"], ["Active", "Passive"], [0.2, 0.8], [[1.0, -1.0], [0.0, 0.0]])


def _three_action():
    return random_instance(np.random.default_rng(22), n_states=4, n_actions=3)


def _scheme():
    return SignalingScheme(signals=("a", "b"), cond=[[0.7, 0.1], [0.3, 0.9]])


def _derived_belief():
    inst = _two_action()
    return biased_belief(inst.prior, bayes_posterior(inst, _scheme(), "a"), 0.3)


# Each builds a fresh object, so whether its arrays were read before the
# copy is up to the test.
OBJECTS = {
    "instance-2": _two_action,
    "instance-3": _three_action,
    "scheme-validated": _scheme,
    "scheme-designed": lambda: design_scheme(_two_action(), 0.5).scheme,
    "belief-validated": lambda: Belief([0.25, 0.75]),
    "belief-derived": _derived_belief,
    "design-result": lambda: design_scheme(_three_action(), 0.5 * bl.testable_range(_three_action())),
    "gap-vector": lambda: gap_vector(_three_action(), "a0"),
}


def _arrays(obj) -> dict:
    """Every array the object exposes, each built if not yet read."""
    if isinstance(obj, Instance):
        return {"utility": obj.utility, "gaps": obj.gaps, "prior.probs": obj.prior.probs}
    if isinstance(obj, SignalingScheme):
        return {"cond": obj.cond}
    if isinstance(obj, Belief):
        return {"probs": obj.probs}
    if isinstance(obj, DesignResult):
        return {"scheme.cond": obj.scheme.cond}
    if isinstance(obj, GapVector):
        return {"coeffs": obj.coeffs}
    raise TypeError(type(obj))


def _hex(value):
    """Floats as their exact hex, in nested tuples: equal only bit for bit."""
    if isinstance(value, float):
        return value.hex()
    return tuple(map(_hex, value))


def _floats(obj) -> dict:
    """The stored floats, which every computation reads."""
    if isinstance(obj, Instance):
        names = ("_prior", "_rows", "_gap_rows", "_state_cdf", "_thresholds")
        return {name: _hex(getattr(obj, name)) for name in names} | {
            "_tau_max": _hex(obj._tau_max),
            "prior_margin": _hex(obj.prior_margin),
            "prior": _hex(obj.prior._floats),
        }
    if isinstance(obj, SignalingScheme):
        return {"_rows": _hex(obj._rows)}
    if isinstance(obj, Belief):
        return {"_floats": _hex(obj._floats)}
    if isinstance(obj, DesignResult):
        return {"scheme": _hex(obj.scheme._rows), "p*": _hex((obj.useful_mass, obj.sample_complexity, obj.threshold))}
    return {"coeffs": _hex(obj.coeffs.tolist())}


@pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read"])
@pytest.mark.parametrize("copier", list(COPIERS))
@pytest.mark.parametrize("kind", list(OBJECTS))
def test_copy_is_read_only_and_bit_identical(kind, copier, read_first):
    original = OBJECTS[kind]()
    if read_first:
        _arrays(original)
    clone = COPIERS[copier](original)
    assert type(clone) is type(original) and clone is not original
    assert _floats(clone) == _floats(original)
    if hasattr(original, "to_json_dict"):
        assert json.dumps(clone.to_json_dict()) == json.dumps(original.to_json_dict())
    assert repr(clone) == repr(original)
    expected = _arrays(original)
    for name, arr in _arrays(clone).items():
        assert not arr.flags.writeable, name
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 100.0
        assert arr.dtype == expected[name].dtype and arr.shape == expected[name].shape, name
        assert arr.tobytes() == expected[name].tobytes(), name
    with pytest.raises(FrozenInstanceError):
        clone.extra = 1.0


@pytest.mark.parametrize("copier", list(COPIERS))
@pytest.mark.parametrize("make", [_two_action, _three_action], ids=["two-action", "three-action"])
def test_copied_instance_gives_the_same_outputs(make, copier):
    original = make()
    clone = COPIERS[copier](original)
    tau_max = bl.testable_range(original)
    assert bl.testable_range(clone) == tau_max
    for tau in (0.25 * tau_max, 0.5 * tau_max, 0.9 * tau_max):
        designs = [design_scheme(inst, tau) for inst in (original, clone)]
        assert _floats(designs[0]) == _floats(designs[1])
    for tau in (0.5 * tau_max, 0.5 + 0.5 * tau_max):  # testable, then not
        verdicts = [classify(inst, tau).to_json_dict() for inst in (original, clone)]
        assert json.dumps(verdicts[0]) == json.dumps(verdicts[1])
    agent = bl.BiasedAgent(w=0.3)
    intervals = [bl.estimate_bias(inst, agent, 1e-3, np.random.default_rng(4)) for inst in (original, clone)]
    assert _hex((intervals[0].lo, intervals[0].hi)) == _hex((intervals[1].lo, intervals[1].hi))
    assert (intervals[0].queries, intervals[0].censored) == (intervals[1].queries, intervals[1].censored)


LP_FIELDS = ("objective", "ge", "ge_rhs", "eq", "eq_rhs")


class TestLinearProgramArrays:
    def test_keeps_read_only_copies_of_its_inputs(self):
        inputs = {
            "objective": np.array([1.0, 2.0]),
            "ge": np.array([[1.0, -1.0]]),
            "ge_rhs": np.array([0.0]),
            "eq": np.array([[1.0, 1.0]]),
            "eq_rhs": np.array([1.0]),
        }
        lp = LinearProgram(**inputs)
        before = {name: getattr(lp, name).tobytes() for name in LP_FIELDS}
        for arr in inputs.values():
            arr[(0,) * arr.ndim] = 9.0  # the caller's arrays, changed later
        for name in LP_FIELDS:
            arr = getattr(lp, name)
            assert arr.tobytes() == before[name], name
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 9.0
        # Maximize x0 + 2 x1 with x0 >= x1 and x0 + x1 = 1: 1.5 at x0 = x1 = 0.5.
        assert solve_lp(lp)[0] == pytest.approx(1.5, abs=1e-12)

    @pytest.mark.parametrize("copier", list(COPIERS))
    @pytest.mark.parametrize("make", [_two_action, _three_action], ids=["simplex", "highs"])
    def test_copies_stay_read_only_and_keep_their_route(self, make, copier):
        inst = make()
        lp = build_lp(inst, 0.5 * bl.testable_range(inst))
        assert lp._two_action is (inst.n_actions == 2)
        clone = COPIERS[copier](lp)
        assert clone._two_action is lp._two_action
        for name in LP_FIELDS:
            arr = getattr(clone, name)
            assert not arr.flags.writeable, name
            assert arr.tobytes() == getattr(lp, name).tobytes(), name
        # Both solvers take read-only arrays and give the original's answer.
        (value, x), (clone_value, clone_x) = solve_lp(lp), solve_lp(clone)
        assert value.hex() == clone_value.hex() and x.tobytes() == clone_x.tobytes()
