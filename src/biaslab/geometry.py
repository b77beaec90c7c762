"""Indifference-set geometry on the belief simplex.

Each non-default action defines a utility-gap vector whose zero set is the
indifference hyperplane with the default action.  Testing a bias threshold
shifts that hyperplane toward the action's side; a threshold is testable
exactly when some shifted hyperplane still meets the simplex.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import ATOL, Instance, _check_threshold, _frozen, _fsum
from .design import _useful_mass, build_lp, solve_lp
from .errors import DefaultActionGap


@dataclass(frozen=True, eq=False)
class GapVector:
    """Per-state utility differences default minus ``action``."""

    action: str
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _frozen(self.coeffs))

    def __reduce__(self):
        # Through the constructor, so a copy's coeffs are read-only too.
        return GapVector, (self.action, self.coeffs.tolist())


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


def _gap_row(instance: Instance, action) -> int:
    """Row of ``instance._gap_rows`` and ``instance._thresholds`` for ``action``."""
    if action == instance.default_action:
        raise DefaultActionGap("the default action has no gap vector")
    a = instance.action_index(action)
    return a - (a > instance.default_index)  # both skip the default


def gap_vector(instance: Instance, action) -> GapVector:
    return GapVector(action=action, coeffs=instance._gap_rows[_gap_row(instance, action)])


def indifference_offset(instance: Instance, action, tau: float) -> float:
    """Right-hand side of the shifted indifference hyperplane; always <= 0."""
    _check_threshold(tau)
    return -tau / (1.0 - tau) * _fsum(instance._gap_rows[_gap_row(instance, action)], instance._prior)


def translated_set_nonempty(instance: Instance, action, tau: float) -> bool:
    """Does the shifted hyperplane for ``action`` still meet the simplex?

    The hyperplane value over the simplex ranges over [min coeff, max coeff],
    and the offset is nonpositive while the value at the prior is positive,
    so the set is nonempty exactly for thresholds up to the action's own
    closed-form threshold, that threshold included (see ``testable_range``).
    """
    _check_threshold(tau)
    return tau <= instance._thresholds[_gap_row(instance, action)]


def testable_range(instance: Instance) -> float:
    """Largest testable threshold; every threshold above it is untestable,
    and every threshold up to it, itself included, is testable unless its
    p* is at most ``ATOL`` (see ``classify``).

    Per gap row, the reach below zero over the value at the prior, mapped
    from odds to a threshold; the range is the largest of these, computed
    once when the instance is validated.  Zero when the default action
    weakly dominates everywhere: beliefs then never leave the default
    region and actions carry no information.
    """
    return instance._tau_max


def classify(instance: Instance, tau: float) -> Classification:
    """Three-way classification of the threshold question at ``tau``.

    The closed form decides testability: a threshold above
    ``testable_range`` is untestable, answered without building an LP,
    and one at or below it is testable unless its p* is at most ``ATOL``.
    The design LP gives p*: single sample when it reaches 1, finite
    otherwise.  p* is the LP optimum through ``design_scheme``'s own rule,
    capped at 1 and None at or below ``ATOL``, so the two agree bit for bit
    and on every untestable threshold; a solver failure propagates as its
    own error.  ``nonempty_actions`` are the actions whose translated set
    is nonempty at ``tau``.
    """
    _check_threshold(tau)
    tau_max = testable_range(instance)
    if tau > tau_max:
        return Classification(Testability.UNTESTABLE, None, (), tau_max)

    value, _ = solve_lp(build_lp(instance, tau))
    p_star = _useful_mass(value)
    actions = [a for a in instance.actions if a != instance.default_action]
    nonempty = tuple(a for a, tau_a in zip(actions, instance._thresholds) if tau <= tau_a)
    if p_star is None:
        verdict = Testability.UNTESTABLE
    else:
        verdict = Testability.SINGLE_SAMPLE if p_star >= 1.0 - ATOL else Testability.FINITE
    return Classification(verdict, p_star, nonempty, tau_max)
