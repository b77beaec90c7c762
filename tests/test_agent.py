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
    preference_sign,
    sample_episode,
    uninformative_scheme,
)
from biaslab.agent import episode_sampler
from biaslab.errors import OutOfRangeBias, ZeroProbabilitySignal
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


class TestPreferenceSign:
    def test_canonical_triple(self, twostate_instance, designed):
        args = (twostate_instance, designed, "Active", "Active", "Passive")
        assert preference_sign(*args, w=0.3) == 1
        assert preference_sign(*args, w=0.5) == 0
        assert preference_sign(*args, w=0.7) == -1

    def test_zero_probability_signal(self, twostate_instance):
        scheme = bl.SignalingScheme(signals=("u", "v"), cond=np.array([[1.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ZeroProbabilitySignal):
            preference_sign(twostate_instance, scheme, "v", "Active", "Passive", 0.5)

    def test_matches_direct_utility_comparison(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            inst = random_instance(rng)
            scheme = random_scheme(rng, inst.n_states)
            s = scheme.signals[int(rng.integers(scheme.n_signals))]
            a1, a2 = rng.choice(inst.actions, size=2, replace=False)
            w = float(rng.uniform(0, 1))
            try:
                post = bayes_posterior(inst, scheme, s)
            except ZeroProbabilitySignal:
                continue
            nu = biased_belief(inst.prior, post, w)
            eu = inst.expected_utilities(nu)
            gap = eu[inst.action_index(a1)] - eu[inst.action_index(a2)]
            direct = 0 if abs(gap) <= 1e-9 else (1 if gap > 0 else -1)
            algebraic = preference_sign(inst, scheme, s, a1, a2, w)
            # identical sign; both zero-bands are tolerance-scaled variants
            if direct != 0 and algebraic != 0:
                assert direct == algebraic


class TestSampleEpisode:
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

    def test_sampler_kept_for_last_scheme(self, twostate_instance, designed):
        other = uninformative_scheme(twostate_instance)
        first = episode_sampler(twostate_instance, designed)
        assert episode_sampler(twostate_instance, designed) is first
        assert episode_sampler(twostate_instance, other) is not first


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
