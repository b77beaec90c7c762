import itertools

import numpy as np
import pytest

import biaslab as bl
from biaslab import (
    BiasedAgent,
    TieBreak,
    agent_act,
    bayes_posterior,
    best_response,
    biased_belief,
    design_scheme,
    sample_episode,
    uninformative_scheme,
)
from biaslab.agent import _sampler
from biaslab.core import ATOL
from biaslab.errors import OutOfRangeBias, Timeout, ZeroProbabilitySignal
from conftest import random_instance, random_scheme


@pytest.fixture
def designed(twostate_instance):
    return design_scheme(twostate_instance, 0.5).scheme


class TestBiasedAgent:
    @pytest.mark.parametrize("w", [-0.5, 1.5])
    def test_rejects_bad_level(self, w):
        with pytest.raises(OutOfRangeBias):
            BiasedAgent(w=w)


class TestAgentAct:
    def test_low_bias_takes_recommendation(self, twostate_instance, designed):
        assert agent_act(BiasedAgent(w=0.3), twostate_instance, designed, "Active") == "Active"

    def test_high_bias_stays_default(self, twostate_instance, designed):
        assert agent_act(BiasedAgent(w=0.7), twostate_instance, designed, "Active") == "Passive"

    def test_knife_edge_tie_prefers_default(self, twostate_instance, designed):
        assert agent_act(BiasedAgent(w=0.5), twostate_instance, designed, "Active") == "Passive"

    def test_knife_edge_other_rule(self, twostate_instance, designed):
        agent = BiasedAgent(w=0.5, tiebreak=TieBreak.PREFER_NON_DEFAULT)
        assert agent_act(agent, twostate_instance, designed, "Active") == "Active"

    def test_biased_belief_values(self, twostate_instance, designed):
        post = bayes_posterior(twostate_instance, designed, "Active")
        nu = biased_belief(twostate_instance.prior, post, 0.3)
        np.testing.assert_allclose(nu.probs, [0.62, 0.38], atol=1e-9)
        eu = twostate_instance.expected_utilities(nu)
        assert eu[0] == pytest.approx(0.24, abs=1e-9)

    def test_unbiased_agent_is_bayesian(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            inst = random_instance(rng)
            scheme = random_scheme(rng, inst.n_states)
            agent = BiasedAgent(w=0.0)
            for s in scheme.signals:
                post = bayes_posterior(inst, scheme, s)
                assert agent_act(agent, inst, scheme, s) == best_response(inst, post).action

    def test_zero_probability_signal(self, twostate_instance):
        scheme = bl.SignalingScheme(signals=("u", "v"), cond=np.array([[1.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ZeroProbabilitySignal):
            agent_act(BiasedAgent(w=0.5), twostate_instance, scheme, "v")

    def test_matches_direct_utility_comparison(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            inst = random_instance(rng)
            scheme = random_scheme(rng, inst.n_states)
            s = scheme.signals[int(rng.integers(scheme.n_signals))]
            w = float(rng.uniform(0, 1))
            try:
                post = bayes_posterior(inst, scheme, s)
            except ZeroProbabilitySignal:
                continue
            eu = inst.expected_utilities(biased_belief(inst.prior, post, w))
            best, runner_up = np.sort(eu)[::-1][:2]
            # The agent takes the argmax wherever rounding cannot move the
            # gap to the runner-up across the band's edge.
            if best - runner_up >= 2 * ATOL:
                assert agent_act(BiasedAgent(w=w), inst, scheme, s) == inst.actions[int(np.argmax(eu))]

    def test_agent_gap_just_above_the_band(self, twostate_instance):
        # The agent's expected-utility gap is 5.0e-9, no tie, so the agent
        # takes the action above the band, not the default.
        scheme = bl.SignalingScheme(signals=("x", "y"), cond=np.array([[0.5, 0.02], [0.5, 0.98]]))
        w = 0.5468749962239584
        nu = biased_belief(twostate_instance.prior, bayes_posterior(twostate_instance, scheme, "x"), w)
        assert best_response(twostate_instance, nu) == ("Active", pytest.approx(5.0e-9, rel=1e-6), False)
        assert agent_act(BiasedAgent(w=w), twostate_instance, scheme, "x") == "Active"

    def test_agrees_with_best_response_outside_twice_the_band(self):
        # Levels are drawn a few ATOL from the agent's indifference level, so
        # the gaps compared lie near the band, not only far from it.
        rng = np.random.default_rng(29)
        near = 0
        for _ in range(1000):
            inst = random_instance(rng, n_actions=2)
            scheme = random_scheme(rng, inst.n_states)
            s = scheme.signals[int(rng.integers(scheme.n_signals))]
            a1, a2 = rng.permutation(inst.actions)
            i1, i2 = inst.action_index(a1), inst.action_index(a2)
            post = bayes_posterior(inst, scheme, s)
            g_post, g_prior = (float(eu[i1] - eu[i2]) for eu in map(inst.expected_utilities, (post, inst.prior)))
            if not 0.0 < g_post / (g_post - g_prior) < 1.0:
                continue
            w = g_post / (g_post - g_prior) + rng.uniform(-10.0, 10.0) * ATOL / abs(g_post - g_prior)
            if not 0.0 <= w <= 1.0:
                continue
            nu = biased_belief(inst.prior, post, w)
            eu = inst.expected_utilities(nu)
            gap = float(eu[i1] - eu[i2])
            if abs(gap) < 2 * ATOL:
                continue
            near += abs(gap) < 10 * ATOL
            response = best_response(inst, nu)
            assert not response.tie
            assert response.action == (a1 if gap > 0 else a2)
            assert agent_act(BiasedAgent(w=w), inst, scheme, s) == response.action
        assert near > 50


class _Uniforms:
    """Stands in for a Generator: ``random()`` cycles through ``values``."""

    def __init__(self, values):
        self._values = itertools.cycle(values)

    def random(self):
        return next(self._values)


class TestSampleEpisode:
    def test_draws_at_the_ends_of_the_unit_interval(self):
        # 0 lands on the first signal of positive mass, and the largest
        # uniform below 1 on one of positive mass too, never past the last
        # signal, on sparse columns whose entries span hundreds of orders of
        # magnitude.
        rng = np.random.default_rng(37)
        top = 1.0 - 2.0**-53
        for _ in range(300):
            inst = random_instance(rng, n_states=int(rng.integers(2, 6)))
            n_signals = int(rng.integers(2, 9))
            raw = 10.0 ** rng.uniform(-300.0, 0.0, size=(n_signals, inst.n_states))
            raw *= rng.random((n_signals, inst.n_states)) < 0.4
            raw[rng.integers(n_signals, size=inst.n_states), range(inst.n_states)] = 1.0
            scheme = bl.SignalingScheme(signals=tuple(f"s{i}" for i in range(n_signals)), cond=raw / raw.sum(axis=0))
            run, every = _sampler(inst, scheme._rows), [True] * n_signals
            sent = [np.flatnonzero(column > 0.0) for column in scheme.cond.T]
            for r_state in (0.0, top):
                _, t, s = run(_Uniforms([r_state, 0.0]), every, 1)
                assert s == sent[t][0]
                _, t, s = run(_Uniforms([r_state, top]), every, 1)
                assert s < n_signals and scheme.cond[s, t] > 0.0

    def test_empirical_signal_frequency(self, twostate_instance, designed):
        rng = np.random.default_rng(2718)
        agent = BiasedAgent(w=0.3)
        hits = sum(
            sample_episode(agent, twostate_instance, designed, rng)[1] == "Active"
            for _ in range(100_000)
        )
        assert hits / 100_000 == pytest.approx(0.25, abs=0.01)

    def test_uninformative_scheme_keeps_default(self, twostate_instance):
        rng = np.random.default_rng(5)
        scheme = uninformative_scheme(twostate_instance)
        for w in (0.0, 0.4, 1.0):
            agent = BiasedAgent(w=w)
            for _ in range(20):
                assert sample_episode(agent, twostate_instance, scheme, rng)[2] == "Passive"

    def test_fully_anchored_agent_never_moves(self, twostate_instance, designed):
        rng = np.random.default_rng(6)
        agent = BiasedAgent(w=1.0)
        for _ in range(50):
            assert sample_episode(agent, twostate_instance, designed, rng)[2] == "Passive"

    def test_states_follow_prior(self, twostate_instance, designed):
        rng = np.random.default_rng(7)
        agent = BiasedAgent(w=0.5)
        goods = sum(
            sample_episode(agent, twostate_instance, designed, rng)[0] == "Good"
            for _ in range(20_000)
        )
        assert goods / 20_000 == pytest.approx(0.2, abs=0.01)

    def test_draws_match_numpy_tables(self):
        # Reference: the same two uniforms read through numpy's cumulative
        # tables; the sampler's Python-float tables must draw identically.
        rng = np.random.default_rng(31)
        for _ in range(40):
            inst = random_instance(rng, n_states=int(rng.integers(2, 7)))
            scheme = random_scheme(rng, inst.n_states, n_signals=int(rng.integers(2, 9)))
            state_cdf, signal_cdf = np.cumsum(inst.prior.probs), np.cumsum(scheme.cond, axis=0)
            run, ours, ref = _sampler(inst, scheme._rows), np.random.default_rng(7), np.random.default_rng(7)
            every = [True] * scheme.n_signals
            for _ in range(200):
                t = min(int(np.searchsorted(state_cdf, ref.random(), side="right")), inst.n_states - 1)
                s = int(np.searchsorted(signal_cdf[:, t], ref.random() * signal_cdf[-1, t], side="right"))
                if s >= scheme.n_signals:
                    s = int(np.flatnonzero(scheme.cond[:, t] > 0.0).max())
                assert run(ours, every, 1)[1:] == (t, s)

    def test_run_traces_every_episode_and_times_out(self):
        # One run is its episodes one by one: the trace holds each draw of
        # a one-episode run on a twin generator, and the run ends at the
        # first useful signal, or raises Timeout after max_steps episodes
        # having drawn two uniforms for each.
        rng = np.random.default_rng(41)
        for _ in range(20):
            inst = random_instance(rng, n_states=int(rng.integers(2, 6)))
            scheme = random_scheme(rng, inst.n_states, n_signals=int(rng.integers(2, 6)))
            run, every = _sampler(inst, scheme._rows), [True] * scheme.n_signals
            for is_useful in ([s == 0 for s in range(scheme.n_signals)], [False] * scheme.n_signals):
                seed = int(rng.integers(1 << 30))
                ours, twin, trace = np.random.default_rng(seed), np.random.default_rng(seed), []
                try:
                    steps, t, s = run(ours, is_useful, 30, trace)
                except Timeout as exc:
                    assert not any(is_useful) and exc.steps == 30
                    steps = 30
                else:
                    assert is_useful[s] and trace[-1] == (t, s)
                    assert not any(is_useful[u] for _, u in trace[:-1])
                assert trace == [run(twin, every, 1)[1:] for _ in range(steps)]
                assert ours.bit_generator.state == twin.bit_generator.state


class TestSingleCrossing:
    def test_designed_boundary_signal_switches_once(self, twostate_instance, designed):
        tau = 0.5
        switches = []
        prev = None
        for w in np.arange(0.0, 1.0001, 0.01):
            w = float(round(w, 2))
            if abs(w - tau) < 1e-12:
                continue  # exact indifference handled by tie-break
            act = agent_act(BiasedAgent(w=w), twostate_instance, designed, "Active")
            flag = act == "Passive"
            if prev is not None and flag != prev:
                switches.append(w)
            prev = flag
        assert len(switches) == 1
        assert switches[0] == pytest.approx(tau + 0.01, abs=1e-9)
