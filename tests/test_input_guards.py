"""Every input guard of the public API raises its documented error.

One row per guard: a call on the canonical two-state instance, the error it
must raise and a fragment of the message.  Guards on instance files and
command-line values are rows of ``test_cli.py::TestExitCodes``.
"""

import numpy as np
import pytest

from biaslab import (
    Belief,
    DesignResult,
    LinearBias,
    SignalingScheme,
    construct_finite_scheme,
    design_scheme,
    generalized_membership,
    preference_sign,
    scheme_from_posteriors,
    translated_set_nonempty,
    verify_design,
)
from biaslab.errors import (
    InconsistentSplit,
    OutOfRangeBias,
    OutOfRangeThreshold,
    ShapeMismatch,
    VerificationFailed,
)

HALF = Belief(np.array([0.5, 0.5]))
COND = np.array([[0.25, 0.5], [0.75, 0.5]])


def _wrong_shape_design(inst):
    res = design_scheme(inst, 0.5)
    three = SignalingScheme(signals=("x", "y", "z"), cond=np.full((3, 2), 1.0 / 3.0))
    return verify_design(inst, 0.5, DesignResult(three, res.useful_mass, res.sample_complexity, 0.5))


GUARDS = [
    ("belief-2d", lambda inst: Belief(np.full((2, 2), 0.25)), ShapeMismatch, "1-D"),
    ("belief-nan", lambda inst: Belief(np.array([0.5, np.nan])), ValueError, "finite"),
    ("unknown-state", lambda inst: inst.state_index("Ugly"), ShapeMismatch, "unknown state"),
    ("unknown-action", lambda inst: inst.action_index("Idle"), ShapeMismatch, "unknown action"),
    ("scheme-row-count", lambda inst: SignalingScheme(("x",), COND), ShapeMismatch, "one row per signal"),
    ("scheme-duplicate-labels", lambda inst: SignalingScheme(("x", "x"), COND), ShapeMismatch, "unique"),
    ("scheme-negative", lambda inst: SignalingScheme(("x", "y"), [[1.1, 0.5], [-0.1, 0.5]]), ValueError, "negative"),
    ("scheme-column-sum", lambda inst: SignalingScheme(("x", "y"), [[0.5, 0.5], [0.4, 0.5]]), ValueError, "sum to 1"),
    ("scheme-unknown-signal", lambda inst: SignalingScheme(("x", "y"), COND).signal_index("z"), ShapeMismatch, "unknown signal"),
    ("split-count", lambda inst: scheme_from_posteriors(inst, [1.0], [HALF, HALF]), ShapeMismatch, "one weight per posterior"),
    ("split-negative-weight", lambda inst: scheme_from_posteriors(inst, [-0.5, 1.5], [HALF, HALF]), InconsistentSplit, "negative"),
    ("split-weight-sum", lambda inst: scheme_from_posteriors(inst, [0.5, 0.6], [HALF, HALF]), InconsistentSplit, "sum to"),
    ("split-dimension", lambda inst: scheme_from_posteriors(inst, [1.0], [Belief(np.full(3, 1.0 / 3.0))]), ShapeMismatch, "dimension"),
    ("preference-w", lambda inst: preference_sign(inst, design_scheme(inst, 0.5).scheme, "Active", "Active", "Passive", 1.5), OutOfRangeBias, "outside"),
    ("membership-default", lambda inst: generalized_membership(LinearBias(), inst, HALF, "Passive", 0.5), ValueError, "non-default"),
    ("membership-tau", lambda inst: generalized_membership(LinearBias(), inst, HALF, "Active", 1.0), OutOfRangeThreshold, "outside"),
    ("finite-scheme-tau", lambda inst: construct_finite_scheme(LinearBias(), inst, 0.0), OutOfRangeThreshold, "outside"),
    ("translated-set-tau", lambda inst: translated_set_nonempty(inst, "Active", 1.0), OutOfRangeThreshold, "outside"),
    ("verify-wrong-shape", _wrong_shape_design, VerificationFailed, "shape"),
]


@pytest.mark.parametrize("call, error, match", [pytest.param(*row[1:], id=row[0]) for row in GUARDS])
def test_guard_raises(call, error, match, twostate_instance):
    with pytest.raises(error, match=match):
        call(twostate_instance)
