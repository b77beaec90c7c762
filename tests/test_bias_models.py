import math
from dataclasses import dataclass, field

import numpy as np
import pytest

import biaslab as bl
from biaslab import (
    Belief,
    BiasedAgent,
    LinearBias,
    Verdict,
    WarpedLinear,
    bias_function_from_config,
    biased_belief,
    check_assumptions,
    classify,
    construct_finite_scheme,
    crossing_level,
    design_scheme,
    generalized_membership,
    indifference_offset,
    splitting_check,
    threshold_test_on_scheme,
    vertex_belief,
)
from biaslab.errors import NotSingleCrossing, Untestable
from conftest import random_belief, random_instance
from test_detector import CountingBias


@dataclass(frozen=True)
class LoopingBias:
    """Deliberately broken model: the mixing weight dips back down, so the
    distorted belief can leave the default region after entering it."""

    name: str = field(default="looping", init=False)

    def evaluate(self, prior, posterior, w):
        h = w + 0.45 * math.sin(2.0 * math.pi * w)
        h = min(max(h, 0.0), 1.0)
        return biased_belief(prior, posterior, h)


# Purpose-built broken models for the canonical two-state instance, on which
# the first state's vertex lies outside the default action's region.


@dataclass(frozen=True)
class DriftBias:
    """Exact at levels 0 and 1, but intermediate levels drag every belief,
    the prior's image included, toward the first state's vertex."""

    name: str = field(default="drift", init=False)

    def evaluate(self, prior, posterior, w):
        pull = 3.6 * w * (1.0 - w)
        vertex = vertex_belief(prior.dim, 0).probs
        return Belief((1.0 - pull) * biased_belief(prior, posterior, w).probs + pull * vertex)


@dataclass(frozen=True)
class ShiftedBias:
    """Linear with the level shifted up by 0.1, so level 0 misses the posterior."""

    name: str = field(default="shifted", init=False)

    def evaluate(self, prior, posterior, w):
        return biased_belief(prior, posterior, min(w + 0.1, 1.0))


@dataclass(frozen=True)
class UnanchoredBias:
    """Ignores the prior at every level: the Bayesian posterior itself."""

    name: str = field(default="unanchored", init=False)

    def evaluate(self, prior, posterior, w):
        return posterior


@dataclass(frozen=True)
class SnapBias:
    """Linear inside the default region; any image outside it snaps to the
    first state's vertex, so the image jumps over the boundary."""

    name: str = field(default="snap", init=False)

    def evaluate(self, prior, posterior, w):
        mixed = biased_belief(prior, posterior, w)
        # Two-state canonical instance: the default wins below belief 0.5.
        return mixed if mixed[0] < 0.5 else vertex_belief(prior.dim, 0)


class TestBiasFunctions:
    def test_warped_gamma_one_is_linear(self):
        rng = np.random.default_rng(1)
        lin, warped = LinearBias(), WarpedLinear(gamma=1.0)
        for _ in range(20):
            prior, post = random_belief(rng, 3), random_belief(rng, 3)
            w = float(rng.uniform(0, 1))
            np.testing.assert_array_equal(
                lin.evaluate(prior, post, w).probs, warped.evaluate(prior, post, w).probs
            )

    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError):
            WarpedLinear(gamma=0.0)

    def test_config_parsing(self):
        assert bias_function_from_config({"bias_model": "linear"}).name == "linear"
        fn = bias_function_from_config({"bias_model": "warped", "gamma": 2.5})
        assert fn.gamma == 2.5
        with pytest.raises(ValueError):
            bias_function_from_config({"bias_model": "quadratic"})


class TestCheckAssumptions:
    def test_linear_passes(self, twostate_instance):
        rep = check_assumptions(LinearBias(), twostate_instance, 30, np.random.default_rng(0))
        assert rep.all_passed

    @pytest.mark.parametrize("gamma", [0.5, 2.0, 3.0])
    def test_warped_passes(self, twostate_instance, gamma):
        rep = check_assumptions(WarpedLinear(gamma=gamma), twostate_instance, 30, np.random.default_rng(0))
        assert rep.all_passed

    def test_warped_passes_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            inst = random_instance(rng)
            rep = check_assumptions(WarpedLinear(gamma=2.0), inst, 20, rng)
            assert rep.all_passed

    def test_looping_model_flagged(self, twostate_instance):
        rep = check_assumptions(LoopingBias(), twostate_instance, 60, np.random.default_rng(1))
        assert not rep.single_crossing_ok
        kinds = [c[0] for c in rep.counterexamples]
        assert "single_crossing" in kinds
        # witness carries the offending posterior and level
        witness = next(c for c in rep.counterexamples if c[0] == "single_crossing")
        assert isinstance(witness[1], Belief) and 0.0 <= witness[2] <= 1.0

    def test_drift_model_flagged(self, twostate_instance):
        rep = check_assumptions(DriftBias(), twostate_instance, 30, np.random.default_rng(2))
        assert rep.endpoints_ok
        assert not rep.prior_anchored_ok and not rep.interior_stable_ok
        kinds = [c[0] for c in rep.counterexamples]
        assert "prior_anchored" in kinds and "interior_stable" in kinds

    def test_drift_witnesses_in_order_found(self, twostate_instance):
        # The distorted prior leaves the default region first, at level 0.12;
        # an interior probe leaves it later, deepest at level 0.5.
        rep = check_assumptions(DriftBias(), twostate_instance, 30, np.random.default_rng(2))
        assert [c[0] for c in rep.counterexamples] == ["prior_anchored", "interior_stable"]
        assert [c[2] for c in rep.counterexamples] == [pytest.approx(0.12), pytest.approx(0.5)]
        assert rep.counterexamples[0][1] is twostate_instance.prior
        assert (twostate_instance.gaps @ rep.counterexamples[1][1].probs).min() > 0.0  # interior

    def test_shifted_model_fails_endpoints(self, twostate_instance):
        rep = check_assumptions(ShiftedBias(), twostate_instance, 10, np.random.default_rng(2))
        assert rep.prior_anchored_ok and not rep.endpoints_ok
        assert [c[0] for c in rep.counterexamples] == ["endpoints"]


class TestCrossingLevel:
    def test_linear_two_state(self, twostate_instance):
        level = crossing_level(LinearBias(), twostate_instance, Belief(np.array([0.8, 0.2])))
        assert level == pytest.approx(0.5, abs=1e-9)

    def test_warped_two_state(self, twostate_instance):
        level = crossing_level(WarpedLinear(gamma=2.0), twostate_instance, Belief(np.array([0.8, 0.2])))
        assert level == pytest.approx(math.sqrt(0.5), abs=1e-8)

    def test_interior_posterior_none(self, twostate_instance):
        assert crossing_level(LinearBias(), twostate_instance, twostate_instance.prior) is None

    @pytest.mark.parametrize("gamma", [0.5, 2.0, 3.0])
    def test_power_relation(self, gamma):
        rng = np.random.default_rng(int(gamma * 10))
        lin, warped = LinearBias(), WarpedLinear(gamma=gamma)
        found = 0
        for _ in range(200):
            inst = random_instance(rng)
            post = random_belief(rng, inst.n_states)
            base = crossing_level(lin, inst, post)
            if base is None or base < 1e-4:
                continue
            found += 1
            assert crossing_level(warped, inst, post) == pytest.approx(
                base ** (1.0 / gamma), abs=1e-8
            )
            if found >= 40:
                break
        assert found >= 20

    def test_looping_model_raises(self, twostate_instance):
        with pytest.raises(NotSingleCrossing):
            crossing_level(LoopingBias(), twostate_instance, Belief(np.array([0.8, 0.2])))

    def test_boundary_posterior_crosses_at_zero(self, twostate_instance):
        assert crossing_level(LinearBias(), twostate_instance, Belief(np.array([0.5, 0.5]))) == 0.0

    def test_unanchored_model_raises(self, twostate_instance):
        with pytest.raises(NotSingleCrossing, match="full-bias"):
            crossing_level(UnanchoredBias(), twostate_instance, Belief(np.array([0.8, 0.2])))

    def test_evaluation_count(self, twostate_instance):
        # One evaluation at level 0, 101 on the coarse grid, and 34 halvings
        # of the 0.01 grid bracket down to 1e-12.
        counting = CountingBias()
        crossing_level(counting, twostate_instance, Belief(np.array([0.9, 0.1])))
        assert counting.calls == 136


class TestGeneralizedMembership:
    def test_boundary_point(self, twostate_instance):
        assert generalized_membership(
            LinearBias(), twostate_instance, Belief(np.array([0.8, 0.2])), "Active", 0.5
        )

    def test_off_boundary_point(self, twostate_instance):
        assert not generalized_membership(
            LinearBias(), twostate_instance, Belief(np.array([0.7, 0.3])), "Active", 0.5
        )

    def test_prior_image_never_member(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            inst = random_instance(rng)
            for action in inst.actions:
                if action == inst.default_action:
                    continue
                assert not generalized_membership(LinearBias(), inst, inst.prior, action, 0.4)

    def test_linear_scaling_identity(self):
        # the distorted-gap value is exactly (1 - tau) times the distance
        # from the translated hyperplane, so both membership routes agree
        rng = np.random.default_rng(9)
        for _ in range(40):
            inst = random_instance(rng)
            mu = random_belief(rng, inst.n_states)
            tau = float(rng.uniform(0.1, 0.9))
            for action in inst.actions:
                if action == inst.default_action:
                    continue
                gap = bl.gap_vector(inst, action)
                nu = biased_belief(inst.prior, mu, tau)
                lhs = float(gap.coeffs @ nu.probs)
                rhs = (1.0 - tau) * (
                    float(gap.coeffs @ mu.probs) - indifference_offset(inst, action, tau)
                )
                assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_two_action_matches_hyperplane_test(self):
        rng = np.random.default_rng(10)
        lin = LinearBias()
        hits = 0
        for _ in range(60):
            inst = random_instance(rng, n_actions=2)
            action = next(a for a in inst.actions if a != inst.default_action)
            tau = float(rng.uniform(0.1, 0.9))
            gap = bl.gap_vector(inst, action)
            offset = indifference_offset(inst, action, tau)
            # sample on the translated hyperplane when it meets the simplex
            lo, hi = float(gap.coeffs.min()), float(gap.coeffs.max())
            if lo <= offset <= hi and abs(hi - lo) > 1e-9:
                t = (offset - lo) / (hi - lo)
                mu_vec = np.zeros(inst.n_states)
                mu_vec[int(np.argmin(gap.coeffs))] = 1.0 - t
                mu_vec[int(np.argmax(gap.coeffs))] += t
                mu = Belief(mu_vec)
                assert generalized_membership(lin, inst, mu, action, tau)
                hits += 1
            off_plane = random_belief(rng, inst.n_states)
            dist = abs(float(gap.coeffs @ off_plane.probs) - offset)
            if dist > 1e-6:
                assert not generalized_membership(lin, inst, off_plane, action, tau)
        assert hits >= 10


class TestConstructFiniteScheme:
    def test_linear_reproduces_optimal_two_state(self, twostate_instance):
        res = construct_finite_scheme(LinearBias(), twostate_instance, 0.5)
        assert res.useful_mass == pytest.approx(0.25, abs=1e-9)
        assert res.vertex_state == "Good" and res.crossing_action == "Active"
        post = bl.bayes_posterior(twostate_instance, res.scheme, res.boundary_signal)
        np.testing.assert_allclose(post.probs, [0.8, 0.2], atol=1e-9)

    def test_warped_two_state(self, twostate_instance):
        res = construct_finite_scheme(WarpedLinear(gamma=2.0), twostate_instance, 0.5)
        assert res.useful_mass == pytest.approx(1.0 / 3.0, abs=1e-9)
        post = bl.bayes_posterior(twostate_instance, res.scheme, res.boundary_signal)
        np.testing.assert_allclose(post.probs, [0.6, 0.4], atol=1e-9)

    def test_warped_untestable_threshold(self, twostate_instance):
        with pytest.raises(Untestable):
            construct_finite_scheme(WarpedLinear(gamma=2.0), twostate_instance, 0.9)

    def test_distorted_prior_outside_default_raises(self, twostate_instance):
        with pytest.raises(NotSingleCrossing, match="distorted prior"):
            construct_finite_scheme(DriftBias(), twostate_instance, 0.5)

    def test_jumping_image_raises(self, twostate_instance):
        with pytest.raises(NotSingleCrossing, match="did not land on the boundary"):
            construct_finite_scheme(SnapBias(), twostate_instance, 0.5)

    @pytest.mark.parametrize("tau", [0.2, 0.5])
    def test_bisection_stops_at_double_resolution(self, twostate_instance, tau):
        # The prior, two vertices, the boundary check and its margins take 5
        # evaluations.  The bisection stops once its bracket holds two
        # adjacent doubles, about 53 halvings in, not after a fixed 80.
        counting = CountingBias()
        res = construct_finite_scheme(counting, twostate_instance, tau)
        assert res.vertex_state == "Good"
        assert counting.calls <= 60

    def test_schemes_split_cleanly(self):
        rng = np.random.default_rng(12)
        built = 0
        for _ in range(15):
            inst = random_instance(rng)
            for phi in (LinearBias(), WarpedLinear(gamma=2.0)):
                for tau in (0.2, 0.5, 0.8):
                    try:
                        res = construct_finite_scheme(phi, inst, tau)
                    except Untestable:
                        continue
                    built += 1
                    assert splitting_check(inst, res.scheme) <= 1e-9
                    assert res.useful_mass > 0
        assert built > 10

    def test_linear_agrees_with_lp_route(self):
        rng = np.random.default_rng(13)
        lin = LinearBias()
        for _ in range(15):
            inst = random_instance(rng)
            for tau in (0.15, 0.4, 0.65, 0.9):
                c = classify(inst, tau)
                if c.verdict is bl.Testability.UNTESTABLE:
                    with pytest.raises(Untestable):
                        construct_finite_scheme(lin, inst, tau)
                else:
                    res = construct_finite_scheme(lin, inst, tau)
                    assert res.useful_mass <= c.useful_mass + 1e-9

    @pytest.mark.parametrize("gamma", [0.5, 2.0])
    def test_threshold_tests_work_under_warp(self, twostate_instance, gamma):
        phi = WarpedLinear(gamma=gamma)
        rng = np.random.default_rng(int(gamma * 100))
        for tau in (0.3, 0.5):
            try:
                res = construct_finite_scheme(phi, twostate_instance, tau)
            except Untestable:
                continue
            for w, expected in ((tau - 0.05, Verdict.LEQ), (tau + 0.05, Verdict.GEQ)):
                agent = BiasedAgent(w=w, bias_fn=phi)
                v = threshold_test_on_scheme(
                    twostate_instance, res.scheme, [res.boundary_signal], agent, rng, 2000
                )
                assert v.verdict == expected


class TestAgainstDesignRoute:
    def test_linear_construct_never_beats_lp(self, twostate_instance):
        for tau in np.linspace(0.05, 0.6, 8):
            tau = float(tau)
            built = construct_finite_scheme(LinearBias(), twostate_instance, tau)
            designed = design_scheme(twostate_instance, tau)
            assert built.useful_mass <= designed.useful_mass + 1e-9
