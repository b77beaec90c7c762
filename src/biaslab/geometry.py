"""Indifference-set geometry on the belief simplex.

Each non-default action defines a utility-gap vector whose zero set is the
indifference hyperplane with the default action.  Testing a bias threshold
shifts that hyperplane toward the action's side; a threshold is testable
exactly when some shifted hyperplane still meets the simplex.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import ATOL, Instance, _check_threshold, _frozen
from .design import build_lp, solve_lp
from .errors import DefaultActionGap, InconsistentClassification


@dataclass(frozen=True, eq=False)
class GapVector:
    """Per-state utility differences default minus ``action``."""

    action: str
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _frozen(self.coeffs))


class Testability(Enum):
    SINGLE_SAMPLE = "single_sample"
    FINITE = "finite"
    UNTESTABLE = "untestable"


@dataclass(frozen=True, eq=False)
class Classification:
    """Three-way verdict for a threshold, with the supporting quantities."""

    verdict: Testability
    useful_mass: float | None
    nonempty_actions: tuple
    tau_max: float

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "p_star": None if self.useful_mass is None else float(self.useful_mass),
            "tau_max": float(self.tau_max),
            "nonempty_actions": list(self.nonempty_actions),
        }


def gap_vector(instance: Instance, action) -> GapVector:
    if action == instance.default_action:
        raise DefaultActionGap("the default action has no gap vector")
    a = instance.action_index(action)
    coeffs = instance.gaps[a - (a > instance.default_index)]  # gaps skips the default
    # Assumption: the default wins strictly at the prior.
    assert float(coeffs @ instance.prior.probs) > ATOL
    return GapVector(action=action, coeffs=coeffs)


def _offset(gap: np.ndarray, mu0: np.ndarray, tau: float) -> float:
    return -tau / (1.0 - tau) * float(gap @ mu0)


def indifference_offset(instance: Instance, action, tau: float) -> float:
    """Right-hand side of the shifted indifference hyperplane; always <= 0."""
    _check_threshold(tau)
    return _offset(gap_vector(instance, action).coeffs, instance.prior.probs, tau)


def translated_set_nonempty(instance: Instance, action, tau: float) -> bool:
    """Does the shifted hyperplane for ``action`` still meet the simplex?

    The hyperplane value over the simplex ranges over [min coeff, max coeff],
    and the offset is nonpositive while the value at the prior is positive,
    so the test reduces to the minimum coefficient reaching the offset.
    """
    _check_threshold(tau)
    gap = gap_vector(instance, action).coeffs
    return float(gap.min()) <= _offset(gap, instance.prior.probs, tau) + ATOL


def testable_range(instance: Instance) -> float:
    """Largest threshold that remains testable on this instance.

    Per gap row, the reach below zero over the value at the prior, mapped
    from odds to a threshold.  Zero when the default action weakly
    dominates everywhere: beliefs then never leave the default region and
    actions carry no information.
    """
    mu0 = instance.prior.probs
    ratios = [max(0.0, -float(gap.min())) / float(gap @ mu0) for gap in instance.gaps]
    return max(0.0, *(ratio / (1.0 + ratio) for ratio in ratios))


def classify(instance: Instance, tau: float) -> Classification:
    """Three-way classification of the threshold question at ``tau``.

    Single sample when the design LP reaches useful mass 1, finite when the
    mass is positive, untestable when it is zero.  p* is the LP optimum
    capped at 1, bit for bit the value ``design_scheme`` reports; a solver
    failure propagates as its own error.  The geometric emptiness
    test (the offset of each shifted hyperplane minus its gap's minimum
    coefficient, nonnegative when the translated set is nonempty) must
    agree with the LP outcome; a disagreement beyond the shared tolerance
    can only come from a solver defect and raises
    InconsistentClassification.
    """
    value, _ = solve_lp(build_lp(instance, tau))

    tau_max = testable_range(instance)
    actions = [a for a in instance.actions if a != instance.default_action]
    margins = {
        action: _offset(gap, instance.prior.probs, tau) - float(gap.min())
        for action, gap in zip(actions, instance.gaps)
    }
    nonempty = tuple(a for a, m in margins.items() if m >= -ATOL)

    if value <= ATOL:
        strictly_nonempty = [a for a, m in margins.items() if m > ATOL]
        if strictly_nonempty:
            raise InconsistentClassification(
                f"no useful mass but nonempty translated sets: {strictly_nonempty}"
            )
        return Classification(Testability.UNTESTABLE, None, (), tau_max)

    if not nonempty:
        raise InconsistentClassification(
            f"useful mass {value:.3g} but every translated set is empty"
        )
    verdict = Testability.SINGLE_SAMPLE if value >= 1.0 - ATOL else Testability.FINITE
    return Classification(verdict, min(value, 1.0), nonempty, tau_max)
