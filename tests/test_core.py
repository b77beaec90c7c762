import json
import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import biaslab as bl
from biaslab import (
    Belief,
    Instance,
    SignalingScheme,
    TieBreak,
    bayes_posterior,
    best_response,
    biased_belief,
    fully_informative_scheme,
    gap_vector,
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
from biaslab.cli import run_cli
from biaslab.core import ATOL, _fsum
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

    @pytest.mark.parametrize(
        "probs, error, message",
        [
            ([[0.5, 0.5]], ShapeMismatch, "belief must be a nonempty 1-D vector"),
            ([], ShapeMismatch, "belief must be a nonempty 1-D vector"),
            ([0.5, math.nan], ValueError, "belief has a non-finite entry"),
            ([-0.1, 1.1], ValueError, "belief has a negative entry -0.1"),
            ([0.5, 0.6], ValueError, "belief must sum to 1, got 1.1"),
        ],
    )
    def test_errors_and_messages(self, probs, error, message):
        with pytest.raises(error) as info:
            Belief(probs)
        assert str(info.value) == message

    def test_frozen(self):
        b = Belief([0.5, 0.5])
        with pytest.raises(FrozenInstanceError):
            b.probs = np.array([1.0, 0.0])
        with pytest.raises(FrozenInstanceError):
            del b.probs

    def test_derived_probs_built_once_from_the_floats(self, twostate_instance):
        inst = twostate_instance
        scheme = SignalingScheme(signals=("a", "b"), cond=[[0.7, 0.1], [0.3, 0.9]])
        posterior = bayes_posterior(inst, scheme, "a")
        derived = {
            "posterior": posterior,
            "biased": biased_belief(inst.prior, posterior, 0.3),
            "warped": bl.WarpedLinear(gamma=2.0).evaluate(inst.prior, posterior, 0.6),
            "prior": make_instance(["G", "B"], ["x", "y"], [0.2, 0.8], [[1.0, -1.0], [0.0, 0.0]]).prior,
        }
        for name, belief in derived.items():
            floats = list(belief)
            assert all(type(x) is float for x in floats), name
            probs = belief.probs
            assert probs.dtype == np.float64 and not probs.flags.writeable, name
            assert probs.tobytes() == np.array(floats).tobytes(), name
            assert belief.probs is probs, name

    def test_probs_bits_do_not_depend_on_the_reading_thread(self):
        from concurrent.futures import ThreadPoolExecutor

        rng = np.random.default_rng(5)
        beliefs = [Belief._trusted(list(rng.dirichlet(np.ones(7)).tolist())) for _ in range(200)]
        expected = [np.array(list(b)).tobytes() for b in beliefs]
        with ThreadPoolExecutor(max_workers=4) as pool:
            reads = list(pool.map(lambda b: b.probs, beliefs * 4))
        assert [r.tobytes() for r in reads] == expected * 4
        assert all(r is b.probs for r, b in zip(reads, beliefs * 4))


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

    def test_per_instance_tables_match_per_call_forms(self):
        # The episode table is built once per instance; it must equal, bit
        # for bit, what a call would compute.
        rng = np.random.default_rng(12)
        for n_states in range(2, 9):
            inst = random_instance(rng, n_states=n_states, n_actions=2)
            assert inst._state_cdf == tuple(np.cumsum(inst.prior.probs).tolist())

    def test_derived_not_settable(self, twostate_instance):
        assert "gaps" not in repr(twostate_instance)
        with pytest.raises(AttributeError):
            twostate_instance.gaps = np.zeros((1, 2))
        with pytest.raises(ValueError):
            twostate_instance.gaps[0, 0] = 0.0
        with pytest.raises(TypeError):
            Instance(
                states=("G", "B"), actions=("A", "P"), prior=twostate_instance.prior,
                utility=twostate_instance.utility, default_action="P",
                gaps=np.zeros((1, 2)),
            )


# Two actions at utilities near 1e8: each action's expected utility at the
# prior rounds on its own, and a0's lead over a1 reads 1.49e-8 that way,
# while the one correctly rounded sum of their gap row against the prior is
# -1.4e-9.  Picked on the rounded difference, a0 became the default and
# tau_max came out as 1.0000000000000002.
ROUNDED_LEAD = {
    "states": ["t0", "t1", "t2"],
    "actions": ["a0", "a1"],
    "prior": [0.8718108961080887, 0.06291519170481477, 0.06527391218709643],
    "utility": [
        [75101463.70030524, -8724841.94811466, 113090569.78794503],
        [84302500.16712135, -71286533.52990055, 50500740.3886857],
    ],
}


def _near_tie(rng, scale: float) -> dict:
    """A random instance whose runner-up action trails the best at the prior
    by a few ATOL (either way), utilities times ``scale``."""
    n_s, n_a = int(rng.integers(2, 6)), int(rng.integers(2, 5))
    prior = 0.8 * rng.dirichlet(np.ones(n_s)) + 0.2 / n_s
    utility = rng.normal(size=(n_a, n_s)) * scale
    eu = utility @ prior
    best, runner_up = np.argsort(-eu)[:2]
    utility[runner_up] += eu[best] - eu[runner_up] - rng.uniform(-3.0, 3.0) * ATOL
    return {"states": [f"t{i}" for i in range(n_s)], "actions": [f"a{i}" for i in range(n_a)],
            "prior": prior.tolist(), "utility": utility.tolist()}


class TestDefaultMargin:
    """The default's lead is decided once, on the sums the thresholds
    divide by: every gap row's correctly rounded value at the prior."""

    def test_rounded_expected_utilities_do_not_decide(self, tmp_path):
        with pytest.raises(NoUniqueDefault, match="tie at the prior"):
            validate_instance(ROUNDED_LEAD)
        path = tmp_path / "rounded-lead.json"
        path.write_text(json.dumps(ROUNDED_LEAD), encoding="utf-8")
        assert run_cli(["classify", "--instance", str(path), "--tau", "0.3"])[0] == 4

    def test_near_ties_at_every_scale(self):
        rng = np.random.default_rng(19)
        seen = {"valid": 0, "refused": 0}
        for k in range(10):
            for _ in range(300):
                try:
                    inst = validate_instance(_near_tie(rng, 10.0**k))
                except NoUniqueDefault:
                    seen["refused"] += 1
                    continue
                seen["valid"] += 1
                assert 0.0 <= bl.testable_range(inst) <= 1.0
                leads = [_fsum(gap, inst._prior) for gap in inst._gap_rows]
                assert inst.prior_margin == min(leads) > ATOL
                for a in inst.actions:
                    if a != inst.default_action:
                        gap_vector(inst, a)
        # Both sides of the margin are drawn at every scale.
        assert seen["valid"] > 1000 and seen["refused"] > 1000, seen


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

    @staticmethod
    def _numpy_reference(instance, belief, tiebreak):
        """The rule on numpy arrays and scalars throughout, with each
        expected utility the correctly rounded sum of its products."""
        eu = np.array([math.fsum(row * belief.probs) for row in instance.utility])
        tied = (eu >= float(eu.max()) - ATOL).nonzero()[0]
        pick = int(tied[0])
        if tied.size > 1:
            d = instance.default_index
            non_default = [int(i) for i in tied if i != d]
            if tiebreak is TieBreak.PREFER_DEFAULT and d in tied:
                pick = d
            elif tiebreak is TieBreak.PREFER_NON_DEFAULT and non_default:
                pick = non_default[0]
        return instance.actions[pick], float(eu[pick]).hex(), bool(tied.size > 1)

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        n_states=st.integers(2, 5),
        n_actions=st.integers(2, 5),
        vertex=st.booleans(),
        # The second action's gap below the first, in units of ATOL: exactly
        # the tie bound, just inside it, just outside it; None keeps the draw.
        gap=st.sampled_from([None, 1.0, 1.0 - 1e-3, 1.0 + 1e-3]),
        pair_with_default=st.booleans(),
    )
    def test_matches_numpy_reference(self, data, n_states, n_actions, vertex, gap, pair_with_default):
        entries = st.floats(-10.0, 10.0, allow_nan=False)
        u = np.array(data.draw(st.lists(entries, min_size=n_actions * n_states, max_size=n_actions * n_states)))
        u = u.reshape(n_actions, n_states)
        prior = np.array(data.draw(st.lists(st.floats(0.05, 1.0), min_size=n_states, max_size=n_states)))
        prior /= prior.sum()
        if vertex:
            t = data.draw(st.integers(0, n_states - 1))
            probs = np.eye(n_states)[t]
        else:
            probs = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n_states, max_size=n_states))) + 1e-3
            probs /= probs.sum()
        if gap is not None:
            # Make action i the best at the belief and put action j gap * ATOL
            # below it: at the belief's state for a vertex, else everywhere.
            i = int(np.argmax(u @ prior)) if pair_with_default else int(np.argmax(u @ probs))
            j = data.draw(st.integers(0, n_actions - 2))
            j += j >= i  # any action but i
            cols = [t] if vertex else slice(None)
            u[i, cols] = u[:, cols].max(axis=0) + 1.0
            u[j, cols] = u[i, cols] - gap * ATOL
        try:
            inst = make_instance([f"t{k}" for k in range(n_states)], [f"a{k}" for k in range(n_actions)], prior, u)
        except NoUniqueDefault:
            assume(False)
        belief = Belief(probs)
        expected = {tiebreak: self._numpy_reference(inst, belief, tiebreak) for tiebreak in TieBreak}
        event(f"tie: {expected[TieBreak.FIXED_ORDER][2]}, default picked: {expected[TieBreak.PREFER_DEFAULT][0] == inst.default_action}")
        for tiebreak in TieBreak:
            got = best_response(inst, belief, tiebreak)
            assert (got.action, got.expected_utility.hex(), got.tie) == expected[tiebreak]

    def test_tie_bound_is_inclusive(self):
        # A vertex belief reads one utility column exactly: a second action
        # ATOL below the best ties with it, and one 1e-3 ATOL further does not.
        for gap, tie in ((1.0, True), (1.0 - 1e-3, True), (1.0 + 1e-3, False)):
            u = [[2.0, 0.0], [2.0 - gap * ATOL, 0.5]]
            inst = make_instance(["t0", "t1"], ["a0", "a1"], [0.5, 0.5], u)
            r = best_response(inst, vertex_belief(2, 0), TieBreak.PREFER_DEFAULT)
            assert r.tie is tie and r.action == ("a1" if tie else "a0")


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
