"""Simulated agent with a hidden bias level.

The agent knows the committed scheme, so it computes the correct Bayesian
posterior for each signal; the distortion happens only when mixing that
posterior back toward the prior.  ``preference_sign`` is the algebraic
shortcut for the same comparison, used to cross-validate simulations.
"""

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .core import (
    ATOL,
    ZERO_MASS,
    Instance,
    SignalingScheme,
    TieBreak,
    _check_level,
    bayes_posterior,
    best_response,
)
from .bias_models import BiasFunction, LinearBias
from .errors import ZeroProbabilitySignal


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
    posterior = bayes_posterior(instance, scheme, signal)
    belief = agent.bias_fn.evaluate(instance.prior, posterior, agent.w)
    return best_response(instance, belief, agent.tiebreak).action


def preference_sign(
    instance: Instance, scheme: SignalingScheme, signal, a1, a2, w: float
) -> int:
    """Sign of the agent's preference for ``a1`` over ``a2`` given ``signal``.

    +1 when a level-``w`` agent strictly prefers a1, -1 when it strictly
    prefers a2, 0 within the shared tolerance band.  Equals the sign of the
    expected-utility gap under the linear distorted belief, but evaluated
    without forming the posterior (the signal mass multiplies through).
    """
    _check_level(w)
    s = scheme.signal_index(signal)
    mu0 = instance.prior.probs
    if float(scheme.cond[s] @ mu0) <= ZERO_MASS:
        raise ZeroProbabilitySignal(f"signal {signal!r} is never sent")
    du = instance.utility[instance.action_index(a1)] - instance.utility[instance.action_index(a2)]
    mean_du = float(mu0 @ du)
    expr = float(np.dot(scheme.cond[s] * mu0, (1.0 - w) * du + w * mean_du))
    if abs(expr) <= ATOL:
        return 0
    return 1 if expr > 0 else -1


@lru_cache(maxsize=1)
def episode_sampler(instance: Instance, scheme: SignalingScheme):
    """Return ``draw(rng) -> (state index, signal index)`` for one scheme.

    Each draw consumes exactly two ``rng.random()`` values: the state by
    inverse CDF over the prior, then the signal by inverse CDF over the
    scheme's conditional column for that state, scaled by the column's
    total.  The cumulative tables are built once here, and the sampler of
    the last (instance, scheme) pair is kept (both hash by identity), so
    repeated calls on one scheme pay for them once.
    """
    state_cdf = np.cumsum(instance.prior.probs).tolist()
    signal_cdfs = np.cumsum(scheme.cond, axis=0).T.tolist()
    last_state = instance.n_states - 1
    n_signals = scheme.n_signals

    def draw(rng: np.random.Generator) -> tuple:
        t = min(bisect_right(state_cdf, rng.random()), last_state)
        signal_cdf = signal_cdfs[t]
        s = bisect_right(signal_cdf, rng.random() * signal_cdf[-1])
        if s >= n_signals:  # guard against cumulative rounding
            s = int(np.max(np.flatnonzero(scheme.cond[:, t] > 0.0)))
        return t, s

    return draw


def sample_episode(
    agent: BiasedAgent, instance: Instance, scheme: SignalingScheme, rng: np.random.Generator
) -> tuple:
    """Draw one (state, signal, action) episode.

    The state comes from the prior, the signal from the committed scheme's
    conditional row, and the action from the agent.  Deterministic given
    the generator state.  This is the one-episode reference; a threshold
    test draws through the same ``episode_sampler`` but asks the agent for
    its response to each signal only once.
    """
    t, s = episode_sampler(instance, scheme)(rng)
    signal = scheme.signals[s]
    return instance.states[t], signal, agent_act(agent, instance, scheme, signal)
