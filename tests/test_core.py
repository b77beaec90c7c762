import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biaslab import (
    Belief,
    Instance,
    SignalingScheme,
    TieBreak,
    bayes_posterior,
    best_response,
    biased_belief,
    fully_informative_scheme,
    load_instance,
    make_instance,
    scheme_from_posteriors,
    splitting_check,
    uninformative_scheme,
    validate_instance,
    vertex_belief,
)
from biaslab.errors import (
    InconsistentSplit,
    NonSimplexPrior,
    NoUniqueDefault,
    OutOfRangeBias,
    ShapeMismatch,
    ZeroProbabilitySignal,
)
from conftest import random_belief, random_instance, random_scheme


class TestBelief:
    def test_valid(self):
        b = Belief(np.array([0.25, 0.75]))
        assert b.dim == 2 and b[1] == 0.75

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Belief(np.array([-0.1, 1.1]))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            Belief(np.array([0.5, 0.6]))

    def test_clips_rounding_noise(self):
        b = Belief(np.array([1.0 + 1e-12, -1e-12]))
        assert b.probs.min() == 0.0

    def test_immutable(self):
        b = Belief(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            b.probs[0] = 1.0


class TestValidateInstance:
    def test_coin_default_and_margin(self, coin_instance):
        assert coin_instance.default_action == "Passive"
        assert coin_instance.prior_margin == pytest.approx(0.02, abs=1e-12)

    def test_tie_rejected(self):
        with pytest.raises(NoUniqueDefault):
            make_instance(
                states=["s0", "s1"],
                actions=["a", "b"],
                prior=[0.5, 0.5],
                utility=[[1.0, 0.0], [0.0, 1.0]],
            )

    def test_non_simplex_prior(self):
        with pytest.raises(NonSimplexPrior):
            make_instance(
                states=["s0", "s1"],
                actions=["a", "b"],
                prior=[0.5, 0.6],
                utility=[[1.0, 0.0], [0.0, 0.0]],
            )

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            make_instance(
                states=["s0", "s1"],
                actions=["a", "b"],
                prior=[0.5, 0.5],
                utility=[[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
            )

    def test_zero_prior_state_collapsed(self):
        inst = make_instance(
            states=["x", "y", "never"],
            actions=["a", "b"],
            prior=[0.5, 0.5, 0.0],
            utility=[[1.0, -1.0, 99.0], [0.1, 0.1, -99.0]],
        )
        assert inst.states == ("x", "y")
        assert inst.utility.shape == (2, 2)

    def test_missing_key(self):
        with pytest.raises(ShapeMismatch):
            validate_instance({"states": ["a", "b"]})

    @pytest.mark.parametrize(
        "key, value", [("prior", [10**400, 0.8]), ("utility", [[10**400, -1.0], [0.0, 0.0]])]
    )
    def test_integer_too_large_for_a_float(self, key, value):
        raw = {"states": ["a", "b"], "actions": ["x", "y"], "prior": [0.2, 0.8], "utility": [[1.0, -1.0], [0.0, 0.0]]}
        with pytest.raises(ShapeMismatch):
            validate_instance({**raw, key: value})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("states", "GB"),
            ("actions", "AP"),
            ("states", {"G": 0, "B": 1}),
            ("prior", ["0.2", "0.8"]),
            ("prior", "0.2"),
            ("utility", [[True, False], [False, False]]),
            ("utility", [[True, -1.0], [0.0, 0.0]]),
            ("utility", np.array([[True, False], [False, False]])),
        ],
    )
    def test_labels_and_numbers_must_be_typed(self, key, value):
        raw = {"states": ["G", "B"], "actions": ["A", "P"], "prior": [0.2, 0.8], "utility": [[1.0, -1.0], [0.0, 0.0]]}
        with pytest.raises(ShapeMismatch):
            validate_instance({**raw, key: value})

    def test_lists_tuples_and_arrays_accepted(self):
        inst = validate_instance(
            {"states": ("G", "B"), "actions": ["A", "P"], "prior": np.array([0.2, 0.8]), "utility": [np.array([1, -1]), (0, 0)]}
        )
        assert inst.default_action == "P" and inst.utility.dtype == float

    def test_json_roundtrip(self, tmp_path, twostate_instance):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(twostate_instance.to_json_dict()), encoding="utf-8")
        loaded = load_instance(path)
        assert loaded.states == twostate_instance.states
        assert loaded.default_action == twostate_instance.default_action
        np.testing.assert_allclose(loaded.utility, twostate_instance.utility)


class TestInstanceGaps:
    def test_rows_are_default_minus_action(self):
        rng = np.random.default_rng(61)
        instances = [random_instance(rng) for _ in range(60)]
        # Four actions, the default second, so rows after it shift up by one.
        instances.append(
            make_instance(
                states=["x", "y", "z"],
                actions=["a0", "a1", "a2", "a3"],
                prior=[0.3, 0.3, 0.4],
                utility=[[1.0, -1.0, 0.0], [0.2, 0.2, 0.2], [-1.0, 0.5, 0.0], [0.4, 0.3, -0.2]],
            )
        )
        assert instances[-1].default_action == "a1"
        assert any(i.n_actions >= 3 and i.default_index < i.n_actions - 1 for i in instances[:-1])
        for inst in instances:
            u, d = inst.utility, inst.default_index
            others = [a for a in range(inst.n_actions) if a != d]
            assert inst.gaps.shape == (len(others), inst.n_states)
            for row, a in zip(inst.gaps, others):
                assert row.tobytes() == (u[d] - u[a]).tobytes()
            assert inst.gaps.flags.c_contiguous
            assert not inst.gaps.flags.writeable

    def test_per_instance_tables_match_per_call_forms(self, symmetric3_instance):
        # The episode and two-action design tables are built once per
        # instance; each must equal, bit for bit, what a call would compute.
        rng = np.random.default_rng(12)
        for n_states in range(2, 9):
            inst = random_instance(rng, n_states=n_states, n_actions=2)
            u, d, mu0 = inst.utility, inst.default_index, inst.prior.probs
            du = u[1 - d] - u[d]
            assert inst._pair_gap[0].tobytes() == du.tobytes()
            assert inst._pair_gap[1].hex() == float(mu0 @ du).hex()
            assert not inst._pair_gap[0].flags.writeable
            assert inst._state_cdf == tuple(np.cumsum(mu0).tolist())
        assert symmetric3_instance._pair_gap is None

    def test_derived_not_settable(self, twostate_instance):
        assert "gaps" not in repr(twostate_instance)
        with pytest.raises(AttributeError):
            twostate_instance.gaps = np.zeros((1, 2))
        with pytest.raises(ValueError):
            twostate_instance.gaps[0, 0] = 0.0
        with pytest.raises(TypeError):
            Instance(
                states=("G", "B"), actions=("A", "P"), prior=twostate_instance.prior,
                utility=twostate_instance.utility, default_action="P", prior_margin=0.6,
                gaps=np.zeros((1, 2)),
            )


class TestBayesPosterior:
    def test_coin_heads(self, coin_instance):
        scheme = SignalingScheme(
            signals=("H", "T"), cond=np.array([[0.5, 0.9], [0.5, 0.1]])
        )
        post = bayes_posterior(coin_instance, scheme, "H")
        np.testing.assert_allclose(post.probs, [5 / 14, 9 / 14], atol=1e-12)

    def test_fully_informative(self, twostate_instance):
        scheme = fully_informative_scheme(twostate_instance)
        post = bayes_posterior(twostate_instance, scheme, "Good")
        np.testing.assert_allclose(post.probs, [1.0, 0.0], atol=1e-12)

    def test_uninformative(self, twostate_instance):
        scheme = uninformative_scheme(twostate_instance)
        post = bayes_posterior(twostate_instance, scheme, "null")
        np.testing.assert_allclose(post.probs, twostate_instance.prior.probs, atol=1e-12)

    def test_zero_probability_signal(self, twostate_instance):
        scheme = SignalingScheme(
            signals=("u", "v"), cond=np.array([[1.0, 1.0], [0.0, 0.0]])
        )
        with pytest.raises(ZeroProbabilitySignal):
            bayes_posterior(twostate_instance, scheme, "v")


class TestBiasedBelief:
    def test_endpoints_and_midpoint(self):
        prior = Belief(np.array([0.2, 0.8]))
        post = Belief(np.array([0.8, 0.2]))
        np.testing.assert_allclose(biased_belief(prior, post, 0.0).probs, post.probs)
        np.testing.assert_allclose(biased_belief(prior, post, 1.0).probs, prior.probs)
        np.testing.assert_allclose(biased_belief(prior, post, 0.5).probs, [0.5, 0.5])

    @pytest.mark.parametrize("w", [-0.01, 1.01])
    def test_out_of_range(self, w):
        b = Belief(np.array([0.5, 0.5]))
        with pytest.raises(OutOfRangeBias):
            biased_belief(b, b, w)

    def test_dimension_mismatch(self):
        # A one-state prior would broadcast against the posterior.
        with pytest.raises(ShapeMismatch):
            biased_belief(Belief(np.array([1.0])), Belief(np.array([0.5, 0.5])), 0.3)

    @settings(max_examples=60, deadline=None)
    @given(
        raw_prior=st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3),
        raw_post=st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3),
        w=st.floats(0.0, 1.0),
    )
    def test_linearity(self, raw_prior, raw_post, w):
        prior = Belief(np.array(raw_prior) / np.sum(raw_prior))
        post = Belief(np.array(raw_post) / np.sum(raw_post))
        mixed = biased_belief(prior, post, w)
        np.testing.assert_allclose(
            mixed.probs, w * prior.probs + (1 - w) * post.probs, atol=1e-12
        )


class TestBestResponse:
    def test_coin_posterior_prefers_active(self, coin_instance):
        belief = Belief(np.array([5 / 14, 9 / 14]))
        r = best_response(coin_instance, belief)
        assert r.action == "Active" and not r.tie
        assert r.expected_utility == pytest.approx(0.06, abs=1e-9)

    def test_coin_indifference_tie(self, coin_instance):
        belief = Belief(np.array([13 / 28, 15 / 28]))
        assert best_response(coin_instance, belief, TieBreak.PREFER_DEFAULT) == (
            "Passive",
            pytest.approx(0.0, abs=1e-9),
            True,
        )
        assert best_response(coin_instance, belief, TieBreak.PREFER_NON_DEFAULT).action == "Active"
        assert best_response(coin_instance, belief, TieBreak.FIXED_ORDER).action == "Active"

    def test_vertex_belief_column_argmax(self, symmetric3_instance):
        inst = symmetric3_instance
        for t in range(inst.n_states):
            r = best_response(inst, vertex_belief(inst.n_states, t))
            assert r.action == inst.actions[int(np.argmax(inst.utility[:, t]))]

    def test_invariant_under_state_dependent_shift(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            inst = random_instance(rng)
            belief = random_belief(rng, inst.n_states)
            base = best_response(inst, belief).action
            shifted = make_instance(
                states=inst.states,
                actions=inst.actions,
                prior=inst.prior.probs,
                utility=np.asarray(inst.utility) + rng.normal(size=inst.n_states),
            )
            assert best_response(shifted, belief).action == base


class TestSplitting:
    def test_random_schemes(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            inst = random_instance(rng)
            scheme = random_scheme(rng, inst.n_states)
            assert splitting_check(inst, scheme) <= 1e-9

    def test_uninformative_exact_zero(self, twostate_instance):
        assert splitting_check(twostate_instance, uninformative_scheme(twostate_instance)) == 0.0

    def test_fully_informative(self, twostate_instance):
        assert splitting_check(twostate_instance, fully_informative_scheme(twostate_instance)) <= 1e-12


class TestSchemeFromPosteriors:
    def test_identity_split(self, twostate_instance):
        scheme = scheme_from_posteriors(
            twostate_instance, [1.0], [twostate_instance.prior]
        )
        np.testing.assert_allclose(scheme.cond, [[1.0, 1.0]], atol=1e-12)

    def test_canonical_split(self, twostate_instance):
        scheme = scheme_from_posteriors(
            twostate_instance,
            [0.25, 0.75],
            [Belief(np.array([0.8, 0.2])), Belief(np.array([0.0, 1.0]))],
            signals=("G", "B"),
        )
        assert scheme.cond[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert scheme.cond[0, 1] == pytest.approx(0.0625, abs=1e-12)

    def test_inconsistent_split(self, twostate_instance):
        vertex = Belief(np.array([1.0, 0.0]))
        with pytest.raises(InconsistentSplit):
            scheme_from_posteriors(twostate_instance, [0.5, 0.5], [vertex, vertex])

    def test_roundtrip_recovers_posteriors(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            inst = random_instance(rng)
            scheme = random_scheme(rng, inst.n_states)
            probs = scheme.signal_probs(inst.prior)
            posteriors = [
                bayes_posterior(inst, scheme, s) for s in scheme.signals
            ]
            rebuilt = scheme_from_posteriors(inst, probs, posteriors, scheme.signals)
            for s, expected in zip(rebuilt.signals, posteriors):
                got = bayes_posterior(inst, rebuilt, s)
                np.testing.assert_allclose(got.probs, expected.probs, atol=1e-9)


class TestSchemeJson:
    def test_roundtrip(self, twostate_instance):
        scheme = fully_informative_scheme(twostate_instance)
        data = json.loads(json.dumps(scheme.to_json_dict()))
        back = SignalingScheme.from_json_dict(data)
        assert back.signals == scheme.signals
        np.testing.assert_allclose(back.cond, scheme.cond)
