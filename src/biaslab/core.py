"""Belief-simplex primitives.

Problem instances, Bayes updates, prior-anchored (biased) beliefs, best
responses, and the consistency checks that relate signaling schemes to
convex decompositions of the prior.  Everything here is immutable after
construction and safe to share across threads; all operations are pure.

Input is validated where it enters: ``validate_instance``, ``Belief(...)``
and ``SignalingScheme(...)``.  Beliefs and schemes the library derives
from validated ones are valid by construction and skip the checks.
"""

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    InconsistentSplit,
    NonSimplexPrior,
    NoUniqueDefault,
    OutOfRangeBias,
    ShapeMismatch,
    ZeroProbabilitySignal,
)

# Shared absolute tolerance for simplex membership, ties, and constraint
# residuals.  One epsilon everywhere keeps LP feasibility and geometric
# classifications consistent with each other.
ATOL = 1e-9

# Probabilities at or below this are treated as exactly zero.
ZERO_MASS = 1e-12


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Belief:
    """A probability vector over states.

    Entries are nonnegative and sum to one within ``ATOL``.  Negative noise
    within tolerance is clipped to zero at construction.
    """

    probs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.probs, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ShapeMismatch("belief must be a nonempty 1-D vector")
        if not np.all(np.isfinite(arr)):
            raise ValueError("belief entries must be finite")
        if arr.min() < -ATOL:
            raise ValueError(f"belief has negative entry {arr.min()}")
        if abs(arr.sum() - 1.0) > ATOL:
            raise ValueError(f"belief sums to {arr.sum()}, not 1")
        np.clip(arr, 0.0, None, out=arr)
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    @classmethod
    def _trusted(cls, probs: np.ndarray) -> "Belief":
        """Wrap a float vector that is a belief by construction: no copy, no
        checks.  The caller hands over ``probs``, which becomes read-only."""
        probs.setflags(write=False)
        belief = object.__new__(cls)
        object.__setattr__(belief, "probs", probs)
        return belief

    @property
    def dim(self) -> int:
        return self.probs.size

    def __getitem__(self, idx):
        return float(self.probs[idx])

    def __len__(self) -> int:
        return self.probs.size

    def __repr__(self):
        return f"Belief({np.array2string(self.probs, precision=6)})"


def vertex_belief(dim: int, index: int) -> Belief:
    """Degenerate belief putting all mass on one state."""
    probs = np.zeros(dim)
    probs[index] = 1.0
    return Belief(probs)


class TieBreak(Enum):
    """Deterministic resolution for exact ties among optimal actions."""

    PREFER_DEFAULT = "prefer-default"
    PREFER_NON_DEFAULT = "prefer-nondefault"
    FIXED_ORDER = "fixed-order"


@dataclass(frozen=True, eq=False)
class Instance:
    """A decision problem: states, actions, prior, and a payoff matrix.

    ``utility`` has one row per action and one column per state.  The
    default action is the unique best response at the prior; construct
    instances through :func:`validate_instance` so that this is checked.
    """

    states: tuple
    actions: tuple
    prior: Belief
    utility: np.ndarray
    default_action: str
    prior_margin: float
    # Default-minus-action utility gaps, one row per non-default action in
    # action order; each row is positive at the prior.  Derived, read-only.
    gaps: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "utility", _frozen(self.utility))
        u, d = self.utility, self.default_index
        # Built row by row into C order: ``utility`` is column-major, and dot
        # products over strided rows round differently from contiguous ones.
        gaps = [u[d] - u[a] for a in range(self.n_actions) if a != d]
        object.__setattr__(self, "gaps", _frozen(gaps))

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    @property
    def default_index(self) -> int:
        return self.actions.index(self.default_action)

    def state_index(self, label) -> int:
        try:
            return self.states.index(label)
        except ValueError:
            raise ShapeMismatch(f"unknown state {label!r}") from None

    def action_index(self, label) -> int:
        try:
            return self.actions.index(label)
        except ValueError:
            raise ShapeMismatch(f"unknown action {label!r}") from None

    def expected_utilities(self, belief: Belief) -> np.ndarray:
        """Expected utility of each action under the given belief."""
        return self.utility @ belief.probs

    def to_json_dict(self) -> dict:
        return {
            "states": list(self.states),
            "actions": list(self.actions),
            "prior": [float(p) for p in self.prior.probs],
            "utility": [[float(u) for u in row] for row in self.utility],
        }


@dataclass(frozen=True, eq=False)
class SignalingScheme:
    """Conditional signal distributions, one row per signal.

    ``cond[s, t]`` is the probability of sending signal ``s`` in state
    ``t``; every state column sums to one.
    """

    signals: tuple
    cond: np.ndarray

    def __post_init__(self):
        cond = np.array(self.cond, dtype=float)
        signals = tuple(self.signals)
        if cond.ndim != 2 or cond.shape[0] != len(signals):
            raise ShapeMismatch("cond must have one row per signal")
        if len(set(signals)) != len(signals):
            raise ShapeMismatch("signal labels must be unique")
        if cond.min() < -ATOL:
            raise ValueError(f"conditional probability {cond.min()} is negative")
        np.clip(cond, 0.0, None, out=cond)
        colsums = cond.sum(axis=0)
        if np.max(np.abs(colsums - 1.0)) > ATOL:
            raise ValueError("per-state signal distributions must sum to 1")
        cond.setflags(write=False)
        object.__setattr__(self, "signals", signals)
        object.__setattr__(self, "cond", cond)

    @classmethod
    def _trusted(cls, signals: tuple, cond: np.ndarray) -> "SignalingScheme":
        """Wrap unique labels and a float matrix that is a scheme by
        construction: no copy, no checks.  ``cond`` becomes read-only."""
        cond.setflags(write=False)
        scheme = object.__new__(cls)
        object.__setattr__(scheme, "signals", signals)
        object.__setattr__(scheme, "cond", cond)
        return scheme

    @property
    def n_signals(self) -> int:
        return len(self.signals)

    @property
    def n_states(self) -> int:
        return self.cond.shape[1]

    def signal_index(self, label) -> int:
        try:
            return self.signals.index(label)
        except ValueError:
            raise ShapeMismatch(f"unknown signal {label!r}") from None

    def signal_probs(self, prior: Belief) -> np.ndarray:
        """Unconditional probability of each signal under the prior."""
        return self.cond @ prior.probs

    def to_json_dict(self) -> dict:
        return {
            "signals": list(self.signals),
            "cond": [[float(p) for p in row] for row in self.cond],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "SignalingScheme":
        return cls(signals=tuple(data["signals"]), cond=np.asarray(data["cond"], dtype=float))


def uninformative_scheme(instance: Instance) -> SignalingScheme:
    """Single-signal scheme that reveals nothing."""
    return SignalingScheme(signals=("null",), cond=np.ones((1, instance.n_states)))


def fully_informative_scheme(instance: Instance) -> SignalingScheme:
    """One signal per state, sent deterministically."""
    return SignalingScheme(signals=instance.states, cond=np.eye(instance.n_states))


def validate_instance(raw: Mapping) -> Instance:
    """Validate a raw instance description and identify the default action.

    ``raw`` maps "states", "actions", "prior" and "utility" to labels, a
    probability vector (state order) and a payoff matrix (rows = actions,
    columns = states).  States carrying zero prior mass are collapsed away:
    they can never be realized, and keeping them would make Bayes updates
    divide by zero.

    Raises NonSimplexPrior, NoUniqueDefault, or ShapeMismatch.
    """
    try:
        states = tuple(str(s) for s in raw["states"])
        actions = tuple(str(a) for a in raw["actions"])
        prior_raw = np.asarray(raw["prior"], dtype=float)
        utility = np.asarray(raw["utility"], dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ShapeMismatch(f"malformed instance description: {exc}") from None

    if len(states) < 2 or len(set(states)) != len(states):
        raise ShapeMismatch("need at least two distinct states")
    if len(actions) < 2 or len(set(actions)) != len(actions):
        raise ShapeMismatch("need at least two distinct actions")
    if prior_raw.ndim != 1 or prior_raw.size != len(states):
        raise ShapeMismatch("prior length must match the number of states")
    if utility.shape != (len(actions), len(states)):
        raise ShapeMismatch(
            f"utility must be {len(actions)}x{len(states)}, got {utility.shape}"
        )
    if not np.all(np.isfinite(utility)):
        raise ShapeMismatch("utility entries must be finite")

    if not np.all(np.isfinite(prior_raw)) or prior_raw.min() < -ATOL:
        raise NonSimplexPrior("prior entries must be nonnegative")
    if abs(prior_raw.sum() - 1.0) > ATOL:
        raise NonSimplexPrior(f"prior sums to {prior_raw.sum()}, not 1")

    support = prior_raw > ZERO_MASS
    if support.sum() < 2:
        raise ShapeMismatch("need at least two states with positive prior mass")
    states = tuple(s for s, keep in zip(states, support) if keep)
    prior_vec = prior_raw[support]
    prior_vec = prior_vec / prior_vec.sum()
    utility = utility[:, support]

    prior = Belief(prior_vec)
    eu = utility @ prior.probs
    order = np.argsort(-eu, kind="stable")
    margin = float(eu[order[0]] - eu[order[1]])
    if margin <= ATOL:
        raise NoUniqueDefault(
            f"top actions tie at the prior (margin {margin:.3g} <= {ATOL})"
        )
    return Instance(
        states=states,
        actions=actions,
        prior=prior,
        utility=utility,
        default_action=actions[int(order[0])],
        prior_margin=margin,
    )


def make_instance(states, actions, prior, utility) -> Instance:
    """Keyword convenience wrapper around :func:`validate_instance`."""
    return validate_instance(
        {"states": states, "actions": actions, "prior": prior, "utility": utility}
    )


def load_instance(path) -> Instance:
    """Read an instance from a UTF-8 JSON file."""
    with open(path, encoding="utf-8") as fh:
        return validate_instance(json.load(fh))


def bayes_posterior(instance: Instance, scheme: SignalingScheme, signal) -> Belief:
    """Posterior over states after observing ``signal``.

    Raises ZeroProbabilitySignal if the signal is (numerically) never sent.
    """
    s = scheme.signal_index(signal)
    joint = instance.prior.probs * scheme.cond[s]
    total = joint.sum()
    if total <= ZERO_MASS:
        raise ZeroProbabilitySignal(f"signal {signal!r} has probability {total}")
    # Nonnegative entries over their positive total: a belief by construction.
    return Belief._trusted(joint / total)


def biased_belief(prior: Belief, posterior: Belief, w: float) -> Belief:
    """Mix posterior and prior: weight ``w`` on the prior, ``1 - w`` on the update."""
    if not 0.0 <= w <= 1.0:
        raise OutOfRangeBias(f"bias level {w} outside [0, 1]")
    if prior.probs.shape != posterior.probs.shape:
        raise ShapeMismatch("prior and posterior have different dimensions")
    # A convex mix of two beliefs of one dimension is a belief.
    return Belief._trusted(w * prior.probs + (1.0 - w) * posterior.probs)


class BestResponse(NamedTuple):
    action: str
    expected_utility: float
    tie: bool


def best_response(
    instance: Instance, belief: Belief, tiebreak: TieBreak = TieBreak.PREFER_DEFAULT
) -> BestResponse:
    """Utility-maximizing action under ``belief``.

    The tie flag is set when two or more actions come within ``ATOL`` of
    the maximum; the tie-break rule then picks the winner deterministically.
    """
    eu = instance.expected_utilities(belief)
    best = float(eu.max())
    tied = np.flatnonzero(eu >= best - ATOL)
    tie = tied.size > 1
    pick = int(tied[0])
    if tie:
        d = instance.default_index
        if tiebreak is TieBreak.PREFER_DEFAULT and d in tied:
            pick = d
        elif tiebreak is TieBreak.PREFER_NON_DEFAULT:
            non_default = [int(i) for i in tied if i != d]
            if non_default:
                pick = non_default[0]
    return BestResponse(instance.actions[pick], float(eu[pick]), tie)


def splitting_check(instance: Instance, scheme: SignalingScheme) -> float:
    """Max-norm residual between the prior and its posterior decomposition.

    For any valid scheme the weighted average of the induced posteriors
    reproduces the prior, so the residual must stay below ``ATOL``.
    Signals that are never sent are skipped.
    """
    probs = scheme.signal_probs(instance.prior)
    recon = np.zeros(instance.n_states)
    for s, p in enumerate(probs):
        if p <= ZERO_MASS:
            continue
        recon += p * bayes_posterior(instance, scheme, scheme.signals[s]).probs
    return float(np.max(np.abs(recon - instance.prior.probs)))


def scheme_from_posteriors(
    instance: Instance,
    weights: Sequence[float],
    posteriors: Sequence[Belief],
    signals: Sequence[str] | None = None,
) -> SignalingScheme:
    """Build the signaling scheme realizing a convex split of the prior.

    ``weights`` and ``posteriors`` must average back to the prior within
    ``ATOL`` (otherwise InconsistentSplit).  The returned scheme sends
    signal ``s`` with unconditional probability ``weights[s]`` and induces
    ``posteriors[s]``; signals with positive weight round-trip through
    :func:`bayes_posterior`.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or len(posteriors) != w.size:
        raise ShapeMismatch("need one weight per posterior")
    if w.min() < -ATOL:
        raise InconsistentSplit(f"weight {w.min()} is negative")
    np.clip(w, 0.0, None, out=w)
    if abs(w.sum() - 1.0) > ATOL:
        raise InconsistentSplit(f"weights sum to {w.sum()}, not 1")

    post = np.vstack([b.probs for b in posteriors])
    if post.shape[1] != instance.n_states:
        raise ShapeMismatch("posterior dimension does not match the instance")
    recon = w @ post
    residual = float(np.max(np.abs(recon - instance.prior.probs)))
    if residual > ATOL:
        raise InconsistentSplit(
            f"weighted posteriors miss the prior by {residual:.3g}"
        )

    if signals is None:
        signals = tuple(f"s{i}" for i in range(w.size))
    # Positive prior everywhere (zero-mass states were collapsed), so the
    # division is safe.  Renormalize columns to absorb the split residual.
    cond = (w[:, None] * post) / instance.prior.probs[None, :]
    cond /= cond.sum(axis=0, keepdims=True)
    return SignalingScheme(signals=tuple(signals), cond=cond)
