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
import math
import numbers
from dataclasses import FrozenInstanceError
from enum import Enum
from functools import cached_property
from itertools import accumulate
from operator import mul
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


def _fsum(a, b=None) -> float:
    """The sum of ``a``'s entries, or with ``b`` of the products
    ``a[i] * b[i]``, correctly rounded.

    ``math.fsum`` (Shewchuk 1997) sums exactly and rounds once, so no
    summation order, and so no library, BLAS kernel or CPU, can change a
    bit.  Every sum that reaches an output or a verdict goes through here.
    Where no double holds the exact sum (inf - inf, or past the largest
    double) it falls back to the left-to-right sum, NaN or inf as IEEE
    arithmetic gives.  ``a`` and ``b`` are sequences of floats.
    """
    try:
        return math.fsum(a if b is None else map(mul, a, b))
    except (OverflowError, ValueError):
        return sum(a if b is None else map(mul, a, b))


def _check_probabilities(arr: np.ndarray, what: str, error: type, axis=None) -> list:
    """Check that ``arr`` holds probabilities summing to one along ``axis``
    (None for a vector, 0 for the columns of a matrix).

    Every entry must be finite and at least ``-ATOL``, and every sum within
    ``ATOL`` of one.  Returns the entries as Python floats, the vector or
    the list of columns, with tolerated negative noise clipped to zero.
    Raises ``error`` naming ``what`` otherwise.
    """
    vectors = [arr.tolist()] if axis is None else arr.T.tolist()
    entries = [x for vector in vectors for x in vector]
    if not all(map(math.isfinite, entries)):
        raise error(f"{what} has a non-finite entry")
    low = min(entries, default=0.0)
    if low < -ATOL:
        raise error(f"{what} has a negative entry {low}")
    if low < 0.0:
        vectors = [[max(x, 0.0) for x in vector] for vector in vectors]
    sums = [_fsum(vector) for vector in vectors]
    if not sums or max(abs(total - 1.0) for total in sums) > ATOL:
        raise error(f"{what} must sum to 1, got {sums[0] if axis is None else np.array(sums)}")
    return vectors[0] if axis is None else vectors


def _check_threshold(tau: float) -> None:
    if not 0.0 < tau < 1.0:
        raise OutOfRangeThreshold(f"threshold {tau} outside (0, 1)")


def _check_level(w: float) -> None:
    if not 0.0 <= w <= 1.0:
        raise OutOfRangeBias(f"bias level {w} outside [0, 1]")


def _bisect(go_up, lo: float, hi: float, width: float) -> tuple:
    """Halve [lo, hi] until it is at most ``width`` wide or holds two
    adjacent doubles, the finest bracket floats can hold.

    The midpoint replaces ``lo`` where ``go_up(mid)`` holds and ``hi``
    otherwise.  Returns the final ``(lo, hi, calls)``, ``calls`` counting
    the ``go_up`` evaluations.
    """
    calls = 0
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # lo and hi are adjacent doubles
            break
        calls += 1
        if go_up(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi, calls


def _label_index(labels: tuple, label, kind: str) -> int:
    try:
        return labels.index(label)
    except ValueError:
        raise ShapeMismatch(f"unknown {kind} {label!r}") from None


class _Frozen:
    """Immutable after construction, like a frozen dataclass: constructors
    fill ``__dict__`` directly, and every assignment or deletion raises
    FrozenInstanceError.  ``repr`` shows the ``_repr_fields`` in order, as
    a dataclass's does."""

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._repr_fields)
        return f"{type(self).__qualname__}({fields})"


class Belief(_Frozen):
    """A probability vector over states.

    Entries are nonnegative and sum to one within ``ATOL``.  Negative noise
    within tolerance is clipped to zero at construction.  The entries are
    kept as Python floats, which every library step reads; ``probs``, a
    read-only float64 array of them, is built the first time it is read
    and then kept.  Copies and pickles carry the floats only.
    """

    def __init__(self, probs):
        self.__dict__["_floats"] = probs
        self.__post_init__()

    def __post_init__(self):
        # The checks, where the library's dataclasses keep theirs.
        arr = np.array(self._floats, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ShapeMismatch("belief must be a nonempty 1-D vector")
        self.__dict__["_floats"] = tuple(_check_probabilities(arr, "belief", ValueError))

    @classmethod
    def _trusted(cls, floats) -> "Belief":
        """Wrap a sequence of Python floats that is a belief by
        construction: no copy, no checks, no array.  The caller hands
        ``floats`` over and never changes it."""
        belief = object.__new__(cls)
        belief.__dict__["_floats"] = floats
        return belief

    def __reduce__(self):
        return self._trusted, (self._floats,)

    @cached_property
    def probs(self) -> np.ndarray:
        # The same floats give the same bits, whichever thread builds it.
        return _frozen(self._floats)

    @property
    def dim(self) -> int:
        return len(self._floats)

    def __getitem__(self, idx):
        return self._floats[idx]

    def __len__(self) -> int:
        return len(self._floats)

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


class Instance(_Frozen):
    """A decision problem: states, actions, prior, and a payoff matrix.

    ``utility`` has one row per action and one column per state.  The
    default action must beat every other action at the prior by more than
    ``ATOL``, each lead one correctly rounded sum of a gap row against the
    prior; otherwise construction raises NoUniqueDefault.  Construct
    instances through :func:`validate_instance`, which picks the default by
    expected utility and checks the input.
    The instance keeps its numbers as Python floats, and the derived tables
    below are built once, here; they hold nothing specific to two actions,
    and the design rows of every instance are formed from the prior and the
    utility rows.  ``utility`` and ``gaps`` are read-only arrays built from
    the floats the first time they are read.  Copies and pickles carry the
    constructor's arguments only.
    """

    _repr_fields = ("states", "actions", "prior", "utility", "default_action", "prior_margin")

    def __init__(self, states, actions, prior: Belief, utility, default_action: str):
        prior_floats = prior._floats
        # The utility rows as tuples of Python floats, the operands of every
        # small-vector step.
        rows = tuple(tuple(map(float, row)) for row in utility)
        d = actions.index(default_action)
        # Default-minus-action utility gaps, one row per non-default action
        # in action order; each row is positive at the prior.
        gap_rows = tuple(tuple(x - y for x, y in zip(rows[d], row)) for a, row in enumerate(rows) if a != d)
        # The default must win strictly at the prior, judged on the same
        # sums the thresholds divide by.  Its lead over the runner-up, the
        # smallest of them, is ``prior_margin``.
        values = [_fsum(gap, prior_floats) for gap in gap_rows]
        margin = min(values)
        if margin <= ATOL:
            raise NoUniqueDefault(f"top actions tie at the prior (margin {margin:.3g} <= {ATOL})")
        # Per gap row, the reach below zero over the value at the prior,
        # mapped from odds to a threshold.  Odds that overflow to inf map to
        # the threshold's limit 1, where the mapping would give NaN.  Each is
        # the largest threshold at which the action's shifted indifference
        # hyperplane still meets the simplex; their maximum is the testable
        # range, the one rule every testability question reads.
        ratios = [max(0.0, -min(gap)) / value for gap, value in zip(gap_rows, values)]
        thresholds = tuple(1.0 if ratio == math.inf else ratio / (1.0 + ratio) for ratio in ratios)
        self.__dict__.update(
            states=states,
            actions=actions,
            prior=prior,
            default_action=default_action,
            prior_margin=margin,
            _prior=prior_floats,
            _rows=rows,
            _gap_rows=gap_rows,
            # Cumulative prior over states, the inverse-CDF table of every
            # episode: the same additions in the same order as numpy's cumsum.
            _state_cdf=tuple(accumulate(prior_floats)),
            _thresholds=thresholds,
            _tau_max=max(0.0, *thresholds),
        )

    def __reduce__(self):
        return Instance, (self.states, self.actions, self.prior, self._rows, self.default_action)

    @cached_property
    def utility(self) -> np.ndarray:
        return _frozen(self._rows)

    @cached_property
    def gaps(self) -> np.ndarray:
        return _frozen(self._gap_rows)

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
        return np.array([_fsum(row, belief._floats) for row in self._rows])

    def to_json_dict(self) -> dict:
        return {
            "states": list(self.states),
            "actions": list(self.actions),
            "prior": list(self.prior._floats),
            "utility": [list(row) for row in self._rows],
        }


class SignalingScheme(_Frozen):
    """Conditional signal distributions, one row per signal.

    ``cond[s, t]`` is the probability of sending signal ``s`` in state
    ``t``; every state column sums to one.  ``signals`` is a list or tuple
    of unique labels, one per row.  The scheme keeps its rows as
    tuples of Python floats, which the episode draw and the Bayes update
    read; ``cond`` is a read-only array built from them the first time it
    is read.  Copies and pickles carry the rows only.
    """

    _repr_fields = ("signals", "cond")

    def __init__(self, signals, cond):
        self.__dict__.update(signals=signals, _rows=cond)
        self.__post_init__()

    def __post_init__(self):
        # A string or a mapping would iterate into labels of its own.
        if not isinstance(self.signals, (list, tuple)):
            raise ShapeMismatch("signal labels must be a list or tuple")
        cond = np.array(self._rows, dtype=float)
        signals = tuple(self.signals)
        if cond.ndim != 2 or cond.shape[0] != len(signals):
            raise ShapeMismatch("cond must have one row per signal")
        if len(set(signals)) != len(signals):
            raise ShapeMismatch("signal labels must be unique")
        columns = _check_probabilities(cond, "per-state signal distribution", ValueError, axis=0)
        self.__dict__.update(signals=signals, _rows=tuple(zip(*columns)))

    @classmethod
    def _trusted(cls, signals: tuple, rows: Sequence) -> "SignalingScheme":
        """Wrap unique labels and rows of Python floats, one sequence per
        signal, that are a scheme by construction: no copy, no checks, no
        array.  The caller hands ``rows`` over and never changes them."""
        scheme = object.__new__(cls)
        scheme.__dict__.update(signals=signals, _rows=rows)
        return scheme

    def __reduce__(self):
        return self._trusted, (self.signals, self._rows)

    @cached_property
    def cond(self) -> np.ndarray:
        return _frozen(self._rows)

    @property
    def n_signals(self) -> int:
        return len(self.signals)

    @property
    def n_states(self) -> int:
        return len(self._rows[0])

    def signal_index(self, label) -> int:
        return _label_index(self.signals, label, "signal")

    def signal_probs(self, prior: Belief) -> np.ndarray:
        """Unconditional probability of each signal under the prior."""
        return np.array([_fsum(row, prior._floats) for row in self._rows])

    def to_json_dict(self) -> dict:
        return {
            "signals": list(self.signals),
            "cond": [list(row) for row in self._rows],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "SignalingScheme":
        return cls(signals=data["signals"], cond=np.asarray(data["cond"], dtype=float))


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
        # Exact floats and ints pass without the slower abstract-class test.
        if not all(
            type(v) in (float, int) or isinstance(v, numbers.Real) and not isinstance(v, bool)
            for v in (*prior_raw.flat, *utility.flat)
        ):
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
    rows = utility.tolist()
    if not all(math.isfinite(u) for row in rows for u in row):
        raise ShapeMismatch("utility entries must be finite")
    # Every gap and design row subtracts two actions' utilities in a state.
    if not all(math.isfinite(max(column) - min(column)) for column in zip(*rows)):
        raise ShapeMismatch("utility differences between actions must be finite")

    prior_raw = _check_probabilities(prior_raw, "prior", NonSimplexPrior)

    support = [p > ZERO_MASS for p in prior_raw]
    if sum(support) < 2:
        raise ShapeMismatch("need at least two states with positive prior mass")
    states = tuple(s for s, keep in zip(states, support) if keep)
    prior_vec = [p for p, keep in zip(prior_raw, support) if keep]
    rows = [[u for u, keep in zip(row, support) if keep] for row in rows]

    # Positive entries over their total: a belief by construction.
    total = _fsum(prior_vec)
    probs = [p / total for p in prior_vec]
    eu = [_fsum(row, probs) for row in rows]
    # The first action of largest expected utility; Instance refuses it
    # unless it wins by more than ATOL.
    return Instance(
        states=states,
        actions=actions,
        prior=Belief._trusted(tuple(probs)),
        utility=rows,
        default_action=actions[eu.index(max(eu))],
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


def _check_states(instance: Instance, n_states: int, what: str) -> None:
    """Raise ShapeMismatch unless ``what`` covers the instance's states."""
    if n_states != instance.n_states:
        raise ShapeMismatch(f"{what} state count {n_states} does not match the instance's {instance.n_states}")


def bayes_posterior(instance: Instance, scheme: SignalingScheme, signal) -> Belief:
    """Posterior over states after observing ``signal``.

    Raises ZeroProbabilitySignal if the signal is (numerically) never sent,
    and ShapeMismatch if the scheme does not cover the instance's states.
    """
    _check_states(instance, scheme.n_states, "scheme")
    return _posterior(instance, scheme._rows[scheme.signal_index(signal)], signal)


def _posterior(instance: Instance, row: Sequence[float], signal) -> Belief:
    """``bayes_posterior`` for the signal whose conditional row is ``row``,
    a sequence of floats over the instance's states."""
    joint = list(map(mul, instance._prior, row))
    total = _fsum(joint)
    if total <= ZERO_MASS:
        raise ZeroProbabilitySignal(f"signal {signal!r} has probability {total}")
    # Nonnegative entries over their positive total: a belief by construction.
    return Belief._trusted([p / total for p in joint])


def biased_belief(prior: Belief, posterior: Belief, w: float) -> Belief:
    """Mix posterior and prior: weight ``w`` on the prior, ``1 - w`` on the update."""
    _check_level(w)
    if len(prior._floats) != len(posterior._floats):
        raise ShapeMismatch("prior and posterior have different dimensions")
    keep = 1.0 - w
    # A convex mix of two beliefs of one dimension is a belief.
    return Belief._trusted([w * p + keep * q for p, q in zip(prior._floats, posterior._floats)])


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
    Raises ShapeMismatch if the belief does not cover the instance's states.

    Each expected utility is one correctly rounded sum of Python floats,
    so the answer does not depend on the order in which a library would
    add the terms.
    """
    _check_states(instance, belief.dim, "belief")
    probs = belief._floats
    eu = [_fsum(row, probs) for row in instance._rows]
    pick, tie = _pick(eu, instance.default_index, tiebreak)
    return BestResponse(instance.actions[pick], eu[pick], tie)


def _pick(eu: Sequence[float], d: int, tiebreak: TieBreak) -> tuple:
    """``best_response``'s rule: the index of the action picked from the
    expected utilities ``eu``, with default action index ``d``, and whether
    it was a tie."""
    floor = max(eu) - ATOL
    tied = [a for a, value in enumerate(eu) if value >= floor]
    tie = len(tied) > 1
    pick = tied[0]
    if tie:
        if tiebreak is TieBreak.PREFER_DEFAULT and d in tied:
            pick = d
        elif tiebreak is TieBreak.PREFER_NON_DEFAULT:
            non_default = [a for a in tied if a != d]
            if non_default:
                pick = non_default[0]
    return pick, tie


def splitting_check(instance: Instance, scheme: SignalingScheme) -> float:
    """Max-norm residual between the prior and its posterior decomposition.

    For any valid scheme the weighted average of the induced posteriors
    reproduces the prior, so the residual must stay below ``ATOL``.
    Signals that are never sent are skipped.
    """
    _check_states(instance, scheme.n_states, "scheme")
    sent = [(p, s) for s, p in enumerate(scheme.signal_probs(instance.prior).tolist()) if p > ZERO_MASS]
    weights = [p for p, _ in sent]
    posteriors = [bayes_posterior(instance, scheme, scheme.signals[s])._floats for _, s in sent]
    recon = [_fsum(weights, [post[t] for post in posteriors]) for t in range(instance.n_states)]
    return max(abs(r - m) for r, m in zip(recon, instance._prior))


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
    :func:`bayes_posterior`.  ``signals``, the labels, is a list or tuple
    (default ``s0``, ``s1``, ...).
    """
    w = np.array(weights, dtype=float)
    if w.ndim != 1 or len(posteriors) != w.size:
        raise ShapeMismatch("need one weight per posterior")
    w = _check_probabilities(w, "weight vector", InconsistentSplit)

    post = np.vstack([b.probs for b in posteriors])
    if post.shape[1] != instance.n_states:
        raise ShapeMismatch("posterior dimension does not match the instance")
    columns = post.T.tolist()
    residual = max(abs(_fsum(w, column) - m) for column, m in zip(columns, instance._prior))
    if residual > ATOL:
        raise InconsistentSplit(
            f"weighted posteriors miss the prior by {residual:.3g}"
        )

    if signals is None:
        signals = tuple(f"s{i}" for i in range(len(w)))
    # Positive prior everywhere (zero-mass states were collapsed), so the
    # division is safe.  Renormalize columns to absorb the split residual.
    columns = [[x * y / m for x, y in zip(w, column)] for column, m in zip(columns, instance._prior)]
    columns = [[x / total for x in column] for column, total in zip(columns, map(_fsum, columns))]
    return SignalingScheme(signals=signals, cond=np.array(columns).T)
