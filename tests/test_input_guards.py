"""Every input guard of the public API raises its documented error.

One row per guard: a call on the canonical two-state instance, the error it
must raise and a fragment of the message, and optionally a mark.  Guards on
instance files and command-line values are rows of
``test_cli.py::TestExitCodes``.  Non-finite entries fail every guard they
reach, including the solver's and the design check's final tolerance tests.
"""

import numpy as np
import pytest

from biaslab import (
    Belief,
    DesignResult,
    LinearBias,
    LinearProgram,
    SignalingScheme,
    construct_finite_scheme,
    design_scheme,
    generalized_membership,
    make_instance,
    preference_sign,
    scheme_from_posteriors,
    solve_lp,
    translated_set_nonempty,
    verify_design,
)
from biaslab.errors import (
    InconsistentSplit,
    NonSimplexPrior,
    Numerical,
    OutOfRangeBias,
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
    ("scheme-unknown-signal", lambda inst: SignalingScheme(("x", "y"), COND).signal_index("z"), ShapeMismatch, "unknown signal"),
    ("split-count", lambda inst: scheme_from_posteriors(inst, [1.0], [HALF, HALF]), ShapeMismatch, "one weight per posterior"),
    ("split-negative-weight", lambda inst: scheme_from_posteriors(inst, [-0.5, 1.5], [HALF, HALF]), InconsistentSplit, "negative"),
    ("split-nan-weight", lambda inst: scheme_from_posteriors(inst, [np.nan, 1.0], [HALF, HALF]), InconsistentSplit, "finite"),
    ("split-empty", lambda inst: scheme_from_posteriors(inst, [], []), InconsistentSplit, "sum to 1"),
    ("split-weight-sum", lambda inst: scheme_from_posteriors(inst, [0.5, 0.6], [HALF, HALF]), InconsistentSplit, "sum to"),
    ("split-dimension", lambda inst: scheme_from_posteriors(inst, [1.0], [Belief(np.full(3, 1.0 / 3.0))]), ShapeMismatch, "dimension"),
    ("preference-w", lambda inst: preference_sign(inst, design_scheme(inst, 0.5).scheme, "Active", "Active", "Passive", 1.5), OutOfRangeBias, "outside"),
    ("membership-default", lambda inst: generalized_membership(LinearBias(), inst, HALF, "Passive", 0.5), ValueError, "non-default"),
    ("membership-tau", lambda inst: generalized_membership(LinearBias(), inst, HALF, "Active", 1.0), OutOfRangeThreshold, "outside"),
    ("finite-scheme-tau", lambda inst: construct_finite_scheme(LinearBias(), inst, 0.0), OutOfRangeThreshold, "outside"),
    ("translated-set-tau", lambda inst: translated_set_nonempty(inst, "Active", 1.0), OutOfRangeThreshold, "outside"),
    ("verify-wrong-shape", _wrong_shape_design, VerificationFailed, "shape"),
    ("verify-nan-scheme", _nan_design, VerificationFailed, r"optimality.*nan.*indifference.*nan.*distribution: nan"),
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
