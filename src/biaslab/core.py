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
import numbers
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    InconsistentSplit,
    NonSimplexPrior,
    NoUniqueDefault,
    OutOfRangeBias,
    OutOfRangeThreshold,
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


def _check_probabilities(arr: np.ndarray, what: str, error: type, axis=None) -> None:
    """Check that ``arr`` holds probabilities summing to one along ``axis``.

    Every entry must be finite and at least ``-ATOL``, and every sum within
    ``ATOL`` of one; tolerated negative noise is clipped to zero in place.
    Raises ``error`` naming ``what`` otherwise.
    """
    if not np.isfinite(arr).all():
        raise error(f"{what} has a non-finite entry")
    if (arr < -ATOL).any():
        raise error(f"{what} has a negative entry {arr.min()}")
    np.clip(arr, 0.0, None, out=arr)
    sums = arr.sum(axis=axis)
    if np.abs(sums - 1.0).max() > ATOL:
        raise error(f"{what} must sum to 1, got {sums}")


def _check_threshold(tau: float) -> None:
    if not 0.0 < tau < 1.0:
        raise OutOfRangeThreshold(f"threshold {tau} outside (0, 1)")


def _check_level(w: float) -> None:
    if not 0.0 <= w <= 1.0:
        raise OutOfRangeBias(f"bias level {w} outside [0, 1]")


def _label_index(labels: tuple, label, kind: str) -> int:
    try:
        return labels.index(label)
    except ValueError:
        raise ShapeMismatch(f"unknown {kind} {label!r}") from None


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
        _check_probabilities(arr, "belief", ValueError)
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
        return _label_index(self.states, label, "state")

    def action_index(self, label) -> int:
        return _label_index(self.actions, label, "action")

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
        _check_probabilities(cond, "per-state signal distribution", ValueError, axis=0)
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
        return _label_index(self.signals, label, "signal")

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

    ``raw`` maps "states", "actions", "prior" and "utility" to label lists
    (list or tuple), a probability vector (state order) and a payoff matrix
    (rows = actions, columns = states) of real numbers, neither strings nor
    booleans.  States carrying zero prior mass are collapsed away:
    they can never be realized, and keeping them would make Bayes updates
    divide by zero.

    Raises NonSimplexPrior, NoUniqueDefault, or ShapeMismatch.
    """
    try:
        # A string or a mapping would iterate into labels of its own, and
        # numpy would read "0.2" and True as numbers.
        if not all(isinstance(raw[key], (list, tuple)) for key in ("states", "actions")):
            raise TypeError("states and actions must be lists")
        states = tuple(str(s) for s in raw["states"])
        actions = tuple(str(a) for a in raw["actions"])
        prior_raw, utility = (np.asarray(raw[key], dtype=object) for key in ("prior", "utility"))
        if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in (*prior_raw.flat, *utility.flat)):
            raise TypeError("prior and utility entries must be real numbers")
        prior_raw, utility = prior_raw.astype(float), utility.astype(float)
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

    _check_probabilities(prior_raw, "prior", NonSimplexPrior)

    support = prior_raw > ZERO_MASS
    if support.sum() < 2:
        raise ShapeMismatch("need at least two states with positive prior mass")
    states = tuple(s for s, keep in zip(states, support) if keep)
    prior_vec = prior_raw[support]
    utility = utility[:, support]

    # Positive entries over their total: a belief by construction.
    prior = Belief._trusted(prior_vec / prior_vec.sum())
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
    _check_level(w)
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
    w = np.array(weights, dtype=float)
    if w.ndim != 1 or len(posteriors) != w.size:
        raise ShapeMismatch("need one weight per posterior")
    _check_probabilities(w, "weight vector", InconsistentSplit)

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
