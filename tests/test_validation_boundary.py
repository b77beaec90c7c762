"""Input is validated where it enters; what the library derives is not.

``bayes_posterior``, ``biased_belief`` (and so both bias models'
``evaluate``), ``design_scheme`` and its two-action closed form
``_knapsack_design`` build their outputs without the public checks.  These tests hold them to those checks: each output must pass the
public constructor unchanged, byte for byte, and a full estimate must make
no validating construction at all.
"""

import collections

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import biaslab as bl
from biaslab import (
    Belief,
    BiasedAgent,
    LinearBias,
    SignalingScheme,
    WarpedLinear,
    bayes_posterior,
    biased_belief,
    design_scheme,
    estimate_bias,
    make_instance,
)
from biaslab.core import ZERO_MASS
from biaslab.design import _knapsack_design
from conftest import random_instance, random_scheme

SHAPES = dict(
    n_states=st.integers(2, 6),
    n_actions=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
)


def _sparse_scheme(rng, n_states: int) -> SignalingScheme:
    """Random scheme whose rows may hold exact zeros; every column sums to 1."""
    n_signals = int(rng.integers(2, 6))
    cond = rng.random((n_signals, n_states)) * (rng.random((n_signals, n_states)) < 0.7)
    cond[0, cond.sum(axis=0) == 0.0] = 1.0
    cond /= cond.sum(axis=0, keepdims=True)
    return SignalingScheme(signals=tuple(f"s{i}" for i in range(n_signals)), cond=cond)


def _assert_revalidates(belief: Belief) -> None:
    again = Belief(belief.probs)
    assert belief.probs.dtype == again.probs.dtype
    assert belief.probs.tobytes() == again.probs.tobytes()
    assert not belief.probs.flags.writeable


@settings(max_examples=80, deadline=None)
@given(w=st.floats(0.0, 1.0), gamma=st.floats(0.1, 5.0), sparse=st.booleans(), **SHAPES)
def test_belief_producers_pass_public_validation(n_states, n_actions, seed, w, gamma, sparse):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, n_states, n_actions)
    scheme = (_sparse_scheme if sparse else random_scheme)(rng, n_states)
    prior = inst.prior
    for s, mass in zip(scheme.signals, scheme.signal_probs(prior)):
        if mass <= ZERO_MASS:
            continue
        posterior = bayes_posterior(inst, scheme, s)
        _assert_revalidates(posterior)
        _assert_revalidates(biased_belief(prior, posterior, w))
        _assert_revalidates(LinearBias().evaluate(prior, posterior, w))
        _assert_revalidates(WarpedLinear(gamma).evaluate(prior, posterior, w))


@settings(max_examples=60, deadline=None)
@given(fraction=st.floats(0.01, 0.99), **SHAPES)
@example(n_states=3, n_actions=3, seed=0, fraction=0.5)
@example(n_states=5, n_actions=3, seed=0, fraction=0.9)
@example(n_states=6, n_actions=2, seed=0, fraction=0.5)
def test_designed_schemes_pass_public_validation(n_states, n_actions, seed, fraction):
    inst = random_instance(np.random.default_rng(seed), n_states, n_actions)
    tau = fraction * bl.testable_range(inst)
    if tau <= 0.0:
        return  # nothing is testable on this instance
    designers = (design_scheme, _knapsack_design) if n_actions == 2 else (design_scheme,)
    for designer in designers:
        scheme = designer(inst, tau).scheme
        again = SignalingScheme(scheme.signals, scheme.cond)
        assert scheme.signals == again.signals == inst.actions
        assert scheme.cond.dtype == again.cond.dtype
        assert scheme.cond.tobytes() == again.cond.tobytes()
        assert not scheme.cond.flags.writeable


@pytest.fixture
def validations(monkeypatch):
    """Count validating constructions of beliefs and schemes by class name."""
    counts = collections.Counter()
    for cls in (Belief, SignalingScheme):

        def counting(self, check=cls.__post_init__, name=cls.__name__):
            counts[name] += 1
            check(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    return counts


def _twostate():
    return make_instance(
        states=["Good", "Bad"],
        actions=["Active", "Passive"],
        prior=[0.2, 0.8],
        utility=[[1.0, -1.0], [0.0, 0.0]],
    )


def test_counter_sees_public_constructions(validations):
    Belief(np.array([0.5, 0.5]))
    SignalingScheme(("a", "b"), np.eye(2))
    assert validations == {"Belief": 1, "SignalingScheme": 1}


def test_estimate_bias_validates_nothing(validations):
    inst = _twostate()
    validations.clear()
    interval = estimate_bias(inst, BiasedAgent(w=0.3), epsilon=0.02, rng=np.random.default_rng(0))
    assert interval.lo <= 0.3 <= interval.hi and interval.queries > 1
    assert sum(validations.values()) == 0, validations


def test_warped_threshold_test_validates_nothing(validations):
    inst = _twostate()
    validations.clear()
    agent = BiasedAgent(w=0.3, bias_fn=WarpedLinear(gamma=2.0))
    verdict = bl.threshold_test(inst, 0.5, agent, np.random.default_rng(1), record_trace=True)
    assert verdict.verdict == "leq"  # effective level 0.3 ** 2 = 0.09 is below 0.5
    assert sum(validations.values()) == 0, validations
