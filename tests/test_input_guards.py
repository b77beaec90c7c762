"""Every input guard of the public API raises its documented error.

One row per guard: a call on the canonical two-state instance, the error it
must raise and a fragment of the message, and optionally a mark.  Guards on
instance files and command-line values are rows of
``test_cli.py::TestExitCodes``.  Non-finite entries fail every guard they
reach, including the solver's and the design check's final tolerance tests.
A second table holds the calls that must reject a scheme or belief over
another number of states than the instance's.
"""

from dataclasses import dataclass, field

import numpy as np
import pytest

from biaslab import (
    Belief,
    BiasedAgent,
    DesignResult,
    LinearBias,
    LinearProgram,
    SignalingScheme,
    agent_act,
    bayes_posterior,
    best_response,
    biased_belief,
    check_assumptions,
    construct_finite_scheme,
    crossing_level,
    design_scheme,
    empirical_sample_complexity,
    generalized_membership,
    make_instance,
    sample_episode,
    scheme_from_posteriors,
    solve_lp,
    splitting_check,
    threshold_test,
    threshold_test_on_scheme,
    translated_set_nonempty,
    verify_design,
)
from biaslab.errors import (
    DefaultActionGap,
    DegenerateParameters,
    InconsistentSplit,
    NonSimplexPrior,
    Numerical,
    OutOfRangeThreshold,
    ShapeMismatch,
    VerificationFailed,
)

HALF = Belief(np.array([0.5, 0.5]))
COND = np.array([[0.25, 0.5], [0.75, 0.5]])
NAN_COND = [[np.nan, 0.5], [np.nan, 0.5]]
NO_ROWS = np.zeros((0, 1))


def _one_variable_lp(objective=1.0, ge=1.0, ge_rhs=0.0, eq=True):
    """maximize objective * x  s.t.  ge * x >= ge_rhs  (and x = 1 if ``eq``)."""
    eq_rows, eq_rhs = ([[1.0]], [1.0]) if eq else (NO_ROWS, [])
    return LinearProgram([objective], [[ge]], [ge_rhs], eq_rows, eq_rhs)


def _wrong_shape_design(inst):
    res = design_scheme(inst, 0.5)
    three = SignalingScheme(signals=("x", "y", "z"), cond=np.full((3, 2), 1.0 / 3.0))
    return verify_design(inst, 0.5, DesignResult(three, res.useful_mass, res.sample_complexity, 0.5))


def _nan_design(inst):
    res = design_scheme(inst, 0.5)
    nan_scheme = SignalingScheme._trusted(res.scheme.signals, np.full((2, 2), np.nan))
    return verify_design(inst, 0.5, DesignResult(nan_scheme, res.useful_mass, res.sample_complexity, 0.5))


def _relabelled_design(inst, signals):
    res = design_scheme(inst, 0.5)
    scheme = SignalingScheme(signals, res.scheme.cond)
    return verify_design(inst, 0.5, DesignResult(scheme, res.useful_mass, res.sample_complexity, 0.5))


def _verify_at(inst, tau):
    return verify_design(inst, tau, design_scheme(inst, 0.5))


def _test_on_design(inst, useful, max_steps=1000):
    scheme = design_scheme(inst, 0.5).scheme
    return threshold_test_on_scheme(inst, scheme, useful, BiasedAgent(w=0.3), np.random.default_rng(0), max_steps)


@dataclass(frozen=True)
class DroppingBias:
    """The linear mix without its last entry: a belief over one state too
    few, which sums of products over the states would silently truncate."""

    name: str = field(default="dropping", init=False)

    def evaluate(self, prior, posterior, w):
        return Belief._trusted(biased_belief(prior, posterior, w)._floats[:-1])


# Each pair of actions differs by 2e308 in some state, which overflows; in
# the three-action case only the two non-default actions do.
OVERFLOW_2X2 = [[1e308, -1e308], [-1e308, 1e308]]
OVERFLOW_2X3 = [[1.0, 1.0], [1e308, -1e308], [-1e308, 1e308]]

GUARDS = [
    ("belief-2d", lambda inst: Belief(np.full((2, 2), 0.25)), ShapeMismatch, "1-D"),
    ("belief-nan", lambda inst: Belief(np.array([0.5, np.nan])), ValueError, "finite"),
    ("unknown-state", lambda inst: inst.state_index("Ugly"), ShapeMismatch, "unknown state"),
    ("unknown-action", lambda inst: inst.action_index("Idle"), ShapeMismatch, "unknown action"),
    ("scheme-row-count", lambda inst: SignalingScheme(("x",), COND), ShapeMismatch, "one row per signal"),
    ("scheme-duplicate-labels", lambda inst: SignalingScheme(("x", "x"), COND), ShapeMismatch, "unique"),
    ("scheme-negative", lambda inst: SignalingScheme(("x", "y"), [[1.1, 0.5], [-0.1, 0.5]]), ValueError, "negative"),
    ("scheme-column-sum", lambda inst: SignalingScheme(("x", "y"), [[0.5, 0.5], [0.4, 0.5]]), ValueError, "sum to 1"),
    ("scheme-nan", lambda inst: SignalingScheme(("x", "y"), NAN_COND), ValueError, "finite"),
    ("scheme-json-nan", lambda inst: SignalingScheme.from_json_dict({"signals": ["x", "y"], "cond": NAN_COND}), ValueError, "finite"),
    ("scheme-no-signals", lambda inst: SignalingScheme((), np.zeros((0, 2))), ValueError, "sum to 1"),
    ("scheme-string-labels", lambda inst: SignalingScheme("ab", np.eye(2)), ShapeMismatch, "list or tuple"),
    ("scheme-mapping-labels", lambda inst: SignalingScheme({"a": 0, "b": 1}, np.eye(2)), ShapeMismatch, "list or tuple"),
    ("scheme-json-string-labels", lambda inst: SignalingScheme.from_json_dict({"signals": "ab", "cond": COND.tolist()}), ShapeMismatch, "list or tuple"),
    ("scheme-unknown-signal", lambda inst: SignalingScheme(("x", "y"), COND).signal_index("z"), ShapeMismatch, "unknown signal"),
    ("split-count", lambda inst: scheme_from_posteriors(inst, [1.0], [HALF, HALF]), ShapeMismatch, "one weight per posterior"),
    ("split-negative-weight", lambda inst: scheme_from_posteriors(inst, [-0.5, 1.5], [HALF, HALF]), InconsistentSplit, "negative"),
    ("split-nan-weight", lambda inst: scheme_from_posteriors(inst, [np.nan, 1.0], [HALF, HALF]), InconsistentSplit, "finite"),
    ("split-empty", lambda inst: scheme_from_posteriors(inst, [], []), InconsistentSplit, "sum to 1"),
    ("split-weight-sum", lambda inst: scheme_from_posteriors(inst, [0.5, 0.6], [HALF, HALF]), InconsistentSplit, "sum to"),
    ("split-string-labels", lambda inst: scheme_from_posteriors(inst, [0.4, 0.6], [HALF, Belief([0.0, 1.0])], "ab"), ShapeMismatch, "list or tuple"),
    ("split-dimension", lambda inst: scheme_from_posteriors(inst, [1.0], [Belief(np.full(3, 1.0 / 3.0))]), ShapeMismatch, "dimension"),
    ("membership-default", lambda inst: generalized_membership(LinearBias(), inst, HALF, "Passive", 0.5), DefaultActionGap, "no gap vector"),
    ("membership-tau", lambda inst: generalized_membership(LinearBias(), inst, HALF, "Active", 1.0), OutOfRangeThreshold, "outside"),
    ("finite-scheme-tau", lambda inst: construct_finite_scheme(LinearBias(), inst, 0.0), OutOfRangeThreshold, "outside"),
    ("model-belief-crossing-level", lambda inst: crossing_level(DroppingBias(), inst, Belief([0.9, 0.1])),
     ShapeMismatch, "belief state count 1 does not match the instance's 2"),
    ("model-belief-finite-scheme", lambda inst: construct_finite_scheme(DroppingBias(), inst, 0.5),
     ShapeMismatch, "belief state count 1 does not match the instance's 2"),
    ("model-belief-membership", lambda inst: generalized_membership(DroppingBias(), inst, HALF, "Active", 0.5),
     ShapeMismatch, "belief state count 1 does not match the instance's 2"),
    ("model-belief-assumptions", lambda inst: check_assumptions(DroppingBias(), inst, 5, np.random.default_rng(0)),
     ShapeMismatch, "belief state count 1 does not match the instance's 2"),
    ("translated-set-tau", lambda inst: translated_set_nonempty(inst, "Active", 1.0), OutOfRangeThreshold, "outside"),
    ("verify-wrong-shape", _wrong_shape_design, VerificationFailed, "shape"),
    ("verify-swapped-labels", lambda inst: _relabelled_design(inst, ("Passive", "Active")), VerificationFailed, "are not the actions"),
    ("verify-foreign-labels", lambda inst: _relabelled_design(inst, ("x", "y")), VerificationFailed, "are not the actions"),
    ("verify-nan-scheme", _nan_design, VerificationFailed, r"optimality.*nan.*indifference.*nan.*distribution: nan"),
    ("verify-tau-0", lambda inst: _verify_at(inst, 0.0), OutOfRangeThreshold, "outside"),
    ("verify-tau-1", lambda inst: _verify_at(inst, 1.0), OutOfRangeThreshold, "outside"),
    ("verify-tau-1.5", lambda inst: _verify_at(inst, 1.5), OutOfRangeThreshold, "outside"),
    ("verify-tau-negative", lambda inst: _verify_at(inst, -0.2), OutOfRangeThreshold, "outside"),
    ("verify-tau-nan", lambda inst: _verify_at(inst, np.nan), OutOfRangeThreshold, "outside"),
    ("utility-overflow-2x2", lambda inst: make_instance(["a", "b"], ["x", "y"], [0.2, 0.8], OVERFLOW_2X2), ShapeMismatch, "differences"),
    ("utility-overflow-2x3", lambda inst: make_instance(["a", "b"], ["x", "y", "z"], [0.5, 0.5], OVERFLOW_2X3), ShapeMismatch, "differences"),
    ("test-unknown-signal", lambda inst: _test_on_design(inst, ["Activ"]), ShapeMismatch, "unknown signal 'Activ'"),
    ("test-no-useful-signals", lambda inst: _test_on_design(inst, []), DegenerateParameters, "no useful signals"),
    ("test-string-useful-signals", lambda inst: _test_on_design(inst, "Active"), ShapeMismatch, "not a string or a mapping"),
    ("test-mapping-useful-signals", lambda inst: _test_on_design(inst, {"Active": True}), ShapeMismatch, "not a string or a mapping"),
    ("test-max-steps-zero", lambda inst: _test_on_design(inst, ["Active"], max_steps=0), DegenerateParameters, "max_steps=0"),
    ("test-max-steps-negative", lambda inst: _test_on_design(inst, ["Active"], max_steps=-3), DegenerateParameters, "max_steps=-3"),
    ("test-max-steps-fraction", lambda inst: _test_on_design(inst, ["Active"], max_steps=2.5), DegenerateParameters, r"max_steps=2\.5"),
    ("test-max-steps-bool", lambda inst: _test_on_design(inst, ["Active"], max_steps=True), DegenerateParameters, "max_steps=True"),
    ("threshold-test-max-steps-bool",
     lambda inst: threshold_test(inst, 0.5, BiasedAgent(w=0.3), np.random.default_rng(0), max_steps=True), DegenerateParameters, "max_steps=True"),
    ("threshold-test-max-steps-fraction",
     lambda inst: threshold_test(inst, 0.5, BiasedAgent(w=0.3), np.random.default_rng(0), max_steps=2.5), DegenerateParameters, r"max_steps=2\.5"),
    ("complexity-trials-fraction",
     lambda inst: empirical_sample_complexity(inst, 0.5, BiasedAgent(w=0.3), np.random.default_rng(0), 2.5), DegenerateParameters, r"trials=2\.5"),
    ("complexity-trials-bool",
     lambda inst: empirical_sample_complexity(inst, 0.5, BiasedAgent(w=0.3), np.random.default_rng(0), True), DegenerateParameters, "trials=True"),
    ("prior-nan", lambda inst: make_instance(["a", "b"], ["x", "y"], [np.nan, 1.0], [[1.0, 0.0], [0.0, 0.5]]), NonSimplexPrior, "finite"),
    ("lp-nan-objective", lambda inst: solve_lp(_one_variable_lp(objective=np.nan)), Numerical, "not finite"),
    ("lp-nan-row", lambda inst: solve_lp(_one_variable_lp(ge=np.nan, eq=False)), Numerical, "inequality residual"),
    ("lp-nan-rhs", lambda inst: solve_lp(_one_variable_lp(ge_rhs=np.nan)), Numerical, "inequality residual"),
    # -inf times the zero start point is NaN, and numpy warns on the way.
    ("lp-minus-inf-row", lambda inst: solve_lp(_one_variable_lp(ge=-np.inf, eq=False)), Numerical, "inequality residual",
     pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")),
]


@pytest.mark.parametrize(
    "call, error, match", [pytest.param(*row[1:4], id=row[0], marks=row[4:]) for row in GUARDS]
)
def test_guard_raises(call, error, match, twostate_instance):
    with pytest.raises(error, match=match):
        call(twostate_instance)


# Each call hands the two-state instance a scheme, or a belief, over a
# different number of states.
STATE_COUNT_CALLS = {
    "bayes_posterior": lambda inst, scheme, belief: bayes_posterior(inst, scheme, "Active"),
    "agent_act": lambda inst, scheme, belief: agent_act(BiasedAgent(w=0.3), inst, scheme, "Active"),
    "sample_episode": lambda inst, scheme, belief: sample_episode(BiasedAgent(w=0.3), inst, scheme, np.random.default_rng(0)),
    "threshold_test_on_scheme": lambda inst, scheme, belief: threshold_test_on_scheme(
        inst, scheme, ["Active"], BiasedAgent(w=0.3), np.random.default_rng(0), 100
    ),
    "splitting_check": lambda inst, scheme, belief: splitting_check(inst, scheme),
    "best_response": lambda inst, scheme, belief: best_response(inst, belief),
    "crossing_level": lambda inst, scheme, belief: crossing_level(LinearBias(), inst, belief),
    "generalized_membership": lambda inst, scheme, belief: generalized_membership(LinearBias(), inst, belief, "Active", 0.5),
}


@pytest.mark.parametrize("n_states", [1, 3])
@pytest.mark.parametrize("call", STATE_COUNT_CALLS.values(), ids=STATE_COUNT_CALLS.keys())
def test_state_count_mismatch_raises(call, n_states, twostate_instance):
    cond = np.zeros((2, n_states))
    cond[0, 0] = cond[1, 1:] = 1.0  # "Active" in the first state only
    scheme = SignalingScheme(("Active", "Passive"), cond)
    belief = Belief(np.full(n_states, 1.0 / n_states))
    with pytest.raises(ShapeMismatch, match=f"state count {n_states} does not match the instance's 2"):
        call(twostate_instance, scheme, belief)
