"""Simulated agent with a hidden bias level.

The agent knows the committed scheme, so it computes the correct Bayesian
posterior for each signal; the distortion happens only when mixing that
posterior back toward the prior.
"""

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .core import (
    Instance,
    SignalingScheme,
    TieBreak,
    _check_level,
    _check_states,
    _fsum,
    _pick,
    _posterior,
)
from .bias_models import BiasFunction, LinearBias
from .errors import Timeout


@dataclass(frozen=True, eq=False)
class BiasedAgent:
    """Ground-truth oracle: acts optimally for its distorted belief."""

    w: float
    bias_fn: BiasFunction = field(default_factory=LinearBias)
    tiebreak: TieBreak = TieBreak.PREFER_DEFAULT

    def __post_init__(self):
        _check_level(self.w)


def agent_act(agent: BiasedAgent, instance: Instance, scheme: SignalingScheme, signal) -> str:
    """Action the agent takes after observing ``signal``."""
    _check_states(instance, scheme.n_states, "scheme")
    return _responder(agent, instance)(scheme._rows[scheme.signal_index(signal)], signal)


def _responder(agent: BiasedAgent, instance: Instance):
    """Return ``respond(row, signal)``, ``agent_act`` for the signal whose
    conditional row is ``row``, a sequence of floats over the instance's
    states: the Bayes posterior, the agent's bias function and its best
    response, picked by ``core._pick`` as ``best_response`` picks it.  The
    prior, the bound ``evaluate``, the level, the tie-break and the
    utility rows, which no signal changes, are looked up once here."""
    prior, evaluate, w, tiebreak = instance.prior, agent.bias_fn.evaluate, agent.w, agent.tiebreak
    rows, d, actions = instance._rows, instance.default_index, instance.actions

    def respond(row, signal) -> str:
        belief = evaluate(prior, _posterior(instance, row, signal), w)
        _check_states(instance, belief.dim, "belief")
        probs = belief._floats
        return actions[_pick([_fsum(r, probs) for r in rows], d, tiebreak)[0]]

    return respond


def _sampler(instance: Instance, rows):
    """Return ``run(rng, is_useful, max_steps, trace=None) -> (steps, t, s)``,
    the one episode loop, for one scheme given by its rows, sequences of
    floats over the instance's states, one per signal.

    ``run`` draws episodes until one sends a signal that ``is_useful``
    flags by index, and returns the number of episodes with that last
    episode's state index ``t`` and signal index ``s``.  When ``trace`` is
    a list, every episode's ``(t, s)`` is appended to it.  Raises Timeout
    after ``max_steps`` episodes without a useful signal.

    Each episode consumes exactly two ``rng.random()`` values: the state by
    inverse CDF over the prior, then the signal by inverse CDF over the
    scheme's conditional column for that state, scaled by the column's
    total.  The state table is the instance's, built once per instance; the
    signal tables are built here, once per call.  Each is a running sum of
    Python floats down one column of the rows, the same additions in the
    same order as numpy's ``cumsum`` along the signals.  The rows are not
    checked.
    """
    state_cdf = instance._state_cdf
    signal_cdfs = [list(accumulate(column)) for column in zip(*rows)]
    last_state = instance.n_states - 1

    def run(rng: np.random.Generator, is_useful, max_steps: int, trace: list | None = None) -> tuple:
        random = rng.random
        for steps in range(1, max_steps + 1):
            t = min(bisect_right(state_cdf, random()), last_state)
            signal_cdf = signal_cdfs[t]
            # r < 1 and a positive total give r * total < total, so the
            # signal drawn is one of positive mass, below the number of
            # signals.
            s = bisect_right(signal_cdf, random() * signal_cdf[-1])
            if trace is not None:
                trace.append((t, s))
            if is_useful[s]:
                return steps, t, s
        raise Timeout(max_steps)

    return run


def sample_episode(
    agent: BiasedAgent, instance: Instance, scheme: SignalingScheme, rng: np.random.Generator
) -> tuple:
    """Draw one (state, signal, action) episode.

    The state comes from the prior, the signal from the committed scheme's
    conditional row, and the action from the agent.  Deterministic given
    the generator state.  This is the one-episode reference: one episode
    of the loop that every threshold test runs, ``_sampler``'s, with every
    signal useful; a threshold test asks the agent through a
    ``_responder``, as ``agent_act`` does, but only once per signal.
    Raises ShapeMismatch if the scheme does not cover the instance's states.
    """
    _check_states(instance, scheme.n_states, "scheme")
    _, t, s = _sampler(instance, scheme._rows)(rng, [True] * scheme.n_signals, 1)
    signal = scheme.signals[s]
    return instance.states[t], signal, agent_act(agent, instance, scheme, signal)
