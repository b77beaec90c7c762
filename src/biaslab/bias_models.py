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

from .core import (
    ATOL,
    Belief,
    Instance,
    SignalingScheme,
    _bisect,
    _check_states,
    _check_threshold,
    _fsum,
    biased_belief,
)
from .errors import NotSingleCrossing, Untestable
from .geometry import _gap_row

# The 101 doubles of numpy.linspace(0, 1, 101), bit for bit; k / 100 differs in 10.
_W_GRID = tuple(k * 0.01 for k in range(100)) + (1.0,)


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


def _distorted(phi: BiasFunction, instance: Instance, posterior: Belief, w: float) -> Belief:
    """``phi``'s belief at level ``w`` from the instance's prior and
    ``posterior``.  Every model evaluation here goes through this step.
    It raises ShapeMismatch, as ``agent_act`` does, when ``posterior`` or
    the model's belief does not cover the instance's states."""
    _check_states(instance, posterior.dim, "posterior")
    belief = phi.evaluate(instance.prior, posterior, w)
    _check_states(instance, belief.dim, "belief")
    return belief


def _gap_values(instance: Instance, belief: Belief) -> list:
    """gap . belief for each non-default action, in action order."""
    return [_fsum(gap, belief._floats) for gap in instance._gap_rows]


def _min_gap(instance: Instance, belief: Belief) -> float:
    """min over non-default actions of gap . belief; positive inside the
    default region, zero on its boundary, negative outside."""
    return min(_gap_values(instance, belief))


def _level_path(phi: BiasFunction, instance: Instance, posterior: Belief) -> list:
    """``_min_gap`` of the distorted posterior at each level of ``_W_GRID``."""
    return [_min_gap(instance, _distorted(phi, instance, posterior, w)) for w in _W_GRID]


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
        # Each failing kind adds exactly one counterexample.
        return not self.counterexamples


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
        found["prior_anchored"] = (prior, bad[0])

    for _ in range(probes):
        posterior = Belief(rng.dirichlet([1.0] * instance.n_states))
        if any(
            max(abs(x - y) for x, y in zip(_distorted(phi, instance, posterior, w)._floats, end._floats)) > ATOL
            for w, end in ((0.0, posterior), (1.0, prior))
        ):
            found.setdefault("endpoints", (posterior, None))
            continue

        path = _level_path(phi, instance, posterior)
        if _min_gap(instance, posterior) > ATOL:
            # Interior posterior: must stay in the default region throughout.
            if min(path) <= -ATOL:
                found.setdefault("interior_stable", (posterior, _W_GRID[path.index(min(path))]))
        elif (k := _reexit(path)) is not None:
            # Exterior or boundary posterior: once inside, never back out.
            found.setdefault("single_crossing", (posterior, _W_GRID[k]))

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
    coarse scan first rejects paths that cross more than once.  Raises
    ShapeMismatch unless ``posterior`` and the model's beliefs cover the
    instance's states.
    """
    g0 = _min_gap(instance, _distorted(phi, instance, posterior, 0.0))
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
            hi = w
            break
        if g < -ATOL:
            lo = w
    lo, hi, _ = _bisect(
        lambda w: not _min_gap(instance, _distorted(phi, instance, posterior, w)) > 0.0, lo, hi, 1e-12
    )
    return 0.5 * (lo + hi)


def generalized_membership(phi: BiasFunction, instance: Instance, mu: Belief, action, tau: float) -> bool:
    """Is ``mu`` a posterior that makes a level-``tau`` agent indifferent
    between ``action`` and the default, with both weakly optimal?"""
    row = _gap_row(instance, action)
    _check_threshold(tau)
    values = _gap_values(instance, _distorted(phi, instance, mu, tau))
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

    For each state vertex k whose distorted image leaves the default
    region, bisect along the segment from the prior mu to the vertex until
    the image lands on the boundary, at t_hat.  That point b, with
    b_k = t_hat + (1 - t_hat) * mu_k and b_j = (1 - t_hat) * mu_j, is the
    boundary posterior, and the other states are revealed directly (the
    splitting lemma).  The split is written in closed form: with useful
    mass m = mu_k / b_k, ``probe`` is sent with probability 1 in state k
    and m * (1 - t_hat) in every other state j, and ``reveal_j`` gets the
    rest of state j, 1 - m * (1 - t_hat).  The qualifying vertex with the
    heaviest boundary signal wins.  Raises Untestable when no vertex
    qualifies.
    """
    _check_threshold(tau)
    mu = instance._prior
    non_default = [a for a in instance.actions if a != instance.default_action]

    if _min_gap(instance, _distorted(phi, instance, instance.prior, tau)) <= ATOL:
        raise NotSingleCrossing("distorted prior does not favor the default action")

    candidates = []  # (useful_mass, state_idx, t_hat, crossing action) per vertex
    for k in range(instance.n_states):

        def image_gaps(t: float) -> list:
            # t * vertex + (1 - t) * prior, a belief by construction.
            point = Belief._trusted([(t if j == k else 0.0) + (1.0 - t) * p for j, p in enumerate(mu)])
            return _gap_values(instance, _distorted(phi, instance, point, tau))

        if min(image_gaps(1.0)) > ATOL:  # the vertex's image favors the default
            continue
        # min(image_gaps(lo)) > 0 >= min(image_gaps(hi)), within 80 halvings of [0, 1].
        t_hat = _bisect(lambda t: min(image_gaps(t)) > 0.0, 0.0, 1.0, 2.0**-80)[1]
        margins = image_gaps(t_hat)
        if abs(min(margins)) > ATOL:
            raise NotSingleCrossing("bisection did not land on the boundary")
        mass = mu[k] / (t_hat + (1.0 - t_hat) * mu[k])
        candidates.append((mass, k, t_hat, non_default[margins.index(min(margins))]))

    if not candidates:
        raise Untestable(tau)

    # The first of the heaviest, as a strict > scan would keep it.
    mass, k, t_hat, crossing_action = max(candidates, key=lambda c: c[0])
    n, probe = instance.n_states, mass * (1.0 - t_hat)
    # Every state's column sums to one: state k sends the probe, state j the
    # probe or reveal_j.
    rows = (tuple(1.0 if j == k else probe for j in range(n)),)
    rows += tuple(tuple(1.0 - probe if i == j else 0.0 for i in range(n)) for j in range(n) if j != k)
    signals = ("probe", *(f"reveal_{instance.states[j]}" for j in range(n) if j != k))
    return FiniteSchemeResult(
        scheme=SignalingScheme._trusted(signals, rows),
        useful_mass=mass,
        boundary_signal="probe",
        crossing_action=crossing_action,
        vertex_state=instance.states[k],
    )
