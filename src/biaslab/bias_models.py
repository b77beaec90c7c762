"""Pluggable belief-distortion models and the generic scheme constructor.

A bias function maps (prior, posterior, level) to the belief the agent
actually acts on.  The linear mix is the base model; WarpedLinear bends
the level through a power law and is the stock nonlinear test vehicle.
Any model satisfying the endpoint, anchoring, and single-crossing checks
below supports a finite-sample threshold test built from vertex bisection,
even though the LP design route only applies to the linear model.
"""

from dataclasses import dataclass, field
from typing import Mapping, Protocol, runtime_checkable

import numpy as np

from .core import (
    ATOL,
    Belief,
    Instance,
    SignalingScheme,
    _bisect,
    _check_threshold,
    _fsum,
    biased_belief,
    scheme_from_posteriors,
    vertex_belief,
)
from .errors import NotSingleCrossing, Untestable
from .geometry import _gap_row

_W_GRID = np.linspace(0.0, 1.0, 101)


@runtime_checkable
class BiasFunction(Protocol):
    """Maps (prior, posterior, bias level in [0, 1]) to the acted-on belief."""

    name: str

    def evaluate(self, prior: Belief, posterior: Belief, w: float) -> Belief: ...


@dataclass(frozen=True)
class LinearBias:
    """The convex-combination model: level w of prior, 1 - w of posterior."""

    name: str = field(default="linear", init=False)

    def evaluate(self, prior: Belief, posterior: Belief, w: float) -> Belief:
        return biased_belief(prior, posterior, w)


@dataclass(frozen=True)
class WarpedLinear:
    """Linear mixing with the level warped through w ** gamma.

    gamma = 1 reduces exactly to LinearBias.  The warp reparametrizes the
    same prior-posterior segment by a monotone map, so single-crossing is
    inherited from the linear model for every instance.
    """

    gamma: float
    name: str = field(default="warped", init=False)

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")

    def evaluate(self, prior: Belief, posterior: Belief, w: float) -> Belief:
        return biased_belief(prior, posterior, float(w) ** self.gamma)


def bias_function_from_config(config: Mapping) -> BiasFunction:
    """Build a bias function from {"bias_model": "linear"} or
    {"bias_model": "warped", "gamma": number}."""
    model = config.get("bias_model", "linear")
    if model == "linear":
        return LinearBias()
    if model == "warped":
        return WarpedLinear(gamma=float(config["gamma"]))
    raise ValueError(f"unknown bias model {model!r}")


def _gap_values(instance: Instance, belief: Belief) -> list:
    """gap . belief for each non-default action, in action order."""
    return [_fsum(gap, belief._floats) for gap in instance._gap_rows]


def _min_gap(instance: Instance, belief: Belief) -> float:
    """min over non-default actions of gap . belief; positive inside the
    default region, zero on its boundary, negative outside."""
    return min(_gap_values(instance, belief))


def _level_path(phi: BiasFunction, instance: Instance, posterior: Belief) -> list:
    """``_min_gap`` of the distorted posterior at each level of ``_W_GRID``."""
    return [_min_gap(instance, phi.evaluate(instance.prior, posterior, float(w))) for w in _W_GRID]


def _reexit(path: list) -> int | None:
    """Index at which a level path that has entered the default region
    leaves it again, beyond ``ATOL`` both ways; None if it never does."""
    entered = False
    for k, g in enumerate(path):
        if g > ATOL:
            entered = True
        elif g < -ATOL and entered:
            return k
    return None


@dataclass(frozen=True)
class AssumptionReport:
    """Pass/fail per model assumption, with the first counterexample found."""

    endpoints_ok: bool
    prior_anchored_ok: bool
    single_crossing_ok: bool
    interior_stable_ok: bool
    counterexamples: tuple

    @property
    def all_passed(self) -> bool:
        return (
            self.endpoints_ok
            and self.prior_anchored_ok
            and self.single_crossing_ok
            and self.interior_stable_ok
        )


def check_assumptions(phi: BiasFunction, instance: Instance, probes: int, rng) -> AssumptionReport:
    """Probe a bias function against the model assumptions.

    Draws ``probes`` posteriors from the simplex and sweeps a 0.01-step
    level grid, checking: the endpoint identities (level 0 returns the
    posterior, level 1 the prior), that an uninformed agent stays with the
    default action at every level, that exterior posteriors cross the
    default boundary at most once and from outside to inside, and that
    interior posteriors never leave the default region.  Failures are
    reported, not raised.
    """
    prior = instance.prior
    found = {}  # kind -> (belief, level) of its first counterexample, in order

    bad = [w for w, g in zip(_W_GRID, _level_path(phi, instance, prior)) if g <= 0.0]
    if bad:
        found["prior_anchored"] = (prior, float(bad[0]))

    for _ in range(probes):
        posterior = Belief(rng.dirichlet(np.ones(instance.n_states)))
        if (
            np.max(np.abs(phi.evaluate(prior, posterior, 0.0).probs - posterior.probs)) > ATOL
            or np.max(np.abs(phi.evaluate(prior, posterior, 1.0).probs - prior.probs)) > ATOL
        ):
            found.setdefault("endpoints", (posterior, None))
            continue

        path = _level_path(phi, instance, posterior)
        if _min_gap(instance, posterior) > ATOL:
            # Interior posterior: must stay in the default region throughout.
            if min(path) <= -ATOL:
                w_bad = float(_W_GRID[int(np.argmin(path))])
                found.setdefault("interior_stable", (posterior, w_bad))
        elif (k := _reexit(path)) is not None:
            # Exterior or boundary posterior: once inside, never back out.
            found.setdefault("single_crossing", (posterior, float(_W_GRID[k])))

    return AssumptionReport(
        endpoints_ok="endpoints" not in found,
        prior_anchored_ok="prior_anchored" not in found,
        single_crossing_ok="single_crossing" not in found,
        interior_stable_ok="interior_stable" not in found,
        counterexamples=tuple((kind, *witness) for kind, witness in found.items()),
    )


def crossing_level(phi: BiasFunction, instance: Instance, posterior: Belief) -> float | None:
    """Bias level at which the distorted belief enters the default region.

    None when the posterior already favors the default action.  Otherwise
    bisects the level and returns the crossing point to within 1e-12; a
    coarse scan first rejects paths that cross more than once.
    """
    prior = instance.prior

    g0 = _min_gap(instance, phi.evaluate(prior, posterior, 0.0))
    if g0 > ATOL:
        return None
    if abs(g0) <= ATOL:
        return 0.0

    path = _level_path(phi, instance, posterior)
    if _reexit(path) is not None:
        raise NotSingleCrossing("level path re-exits the default region")
    if path[-1] < -ATOL:
        raise NotSingleCrossing("full-bias belief does not favor the default action")

    lo, hi = 0.0, 1.0
    for w, g in zip(_W_GRID, path):
        if g > ATOL:
            hi = float(w)
            break
        if g < -ATOL:
            lo = float(w)
    lo, hi, _ = _bisect(lambda w: not _min_gap(instance, phi.evaluate(prior, posterior, w)) > 0.0, lo, hi, 1e-12)
    return 0.5 * (lo + hi)


def generalized_membership(phi: BiasFunction, instance: Instance, mu: Belief, action, tau: float) -> bool:
    """Is ``mu`` a posterior that makes a level-``tau`` agent indifferent
    between ``action`` and the default, with both weakly optimal?"""
    row = _gap_row(instance, action)
    _check_threshold(tau)
    values = _gap_values(instance, phi.evaluate(instance.prior, mu, tau))
    return abs(values[row]) <= ATOL and min(values) >= -ATOL


@dataclass(frozen=True, eq=False)
class FiniteSchemeResult:
    """A workable (not necessarily optimal) threshold-test scheme.

    The boundary signal is the one whose distorted posterior sits exactly
    on the default-region boundary; only that signal carries information
    about the threshold question.  The remaining signals reveal a state
    outright.
    """

    scheme: SignalingScheme
    useful_mass: float
    boundary_signal: str
    crossing_action: str
    vertex_state: str


def construct_finite_scheme(phi: BiasFunction, instance: Instance, tau: float) -> FiniteSchemeResult:
    """Build a finite-sample test scheme for an arbitrary bias model.

    For each state vertex whose distorted image leaves the default region,
    bisect along the segment from the prior to the vertex until the image
    lands on the boundary; that point becomes the boundary posterior, the
    other states are revealed directly, and the split weights follow from
    writing the prior as a combination of the boundary posterior and the
    remaining vertices.  The qualifying vertex with the heaviest boundary
    signal wins.  Raises Untestable when no vertex qualifies.
    """
    _check_threshold(tau)
    prior = instance.prior
    non_default = [a for a in instance.actions if a != instance.default_action]

    if _min_gap(instance, phi.evaluate(prior, prior, tau)) <= ATOL:
        raise NotSingleCrossing("distorted prior does not favor the default action")

    best = None  # (useful_mass, state_idx, t, boundary posterior, crossing action)
    for t_idx in range(instance.n_states):
        vertex = vertex_belief(instance.n_states, t_idx)
        if _min_gap(instance, phi.evaluate(prior, vertex, tau)) > ATOL:
            continue

        def image_gap(t: float) -> float:
            point = Belief(t * vertex.probs + (1.0 - t) * prior.probs)
            return _min_gap(instance, phi.evaluate(prior, point, tau))

        # image_gap(lo) > 0 >= image_gap(hi), within 80 halvings of [0, 1].
        t_hat = _bisect(lambda t: image_gap(t) > 0.0, 0.0, 1.0, 2.0**-80)[1]
        if abs(image_gap(t_hat)) > ATOL:
            raise NotSingleCrossing("bisection did not land on the boundary")

        boundary = Belief(t_hat * vertex.probs + (1.0 - t_hat) * prior.probs)
        margins = _gap_values(instance, phi.evaluate(prior, boundary, tau))
        crossing_action = non_default[margins.index(min(margins))]
        mass = float(prior.probs[t_idx]) / float(boundary.probs[t_idx])
        if best is None or mass > best[0]:
            best = (mass, t_idx, t_hat, boundary, crossing_action)

    if best is None:
        raise Untestable(tau)

    mass, t_idx, t_hat, boundary, crossing_action = best
    denom = float(boundary.probs[t_idx])  # = t + (1 - t) * prior[t_idx]
    posteriors = [boundary]
    weights = [mass]
    signals = ["probe"]
    for other in range(instance.n_states):
        if other == t_idx:
            continue
        posteriors.append(vertex_belief(instance.n_states, other))
        weights.append(t_hat * float(prior.probs[other]) / denom)
        signals.append(f"reveal_{instance.states[other]}")

    scheme = scheme_from_posteriors(instance, weights, posteriors, signals)
    return FiniteSchemeResult(
        scheme=scheme,
        useful_mass=mass,
        boundary_signal="probe",
        crossing_action=crossing_action,
        vertex_state=instance.states[t_idx],
    )
