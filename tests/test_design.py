import json

import numpy as np
import pytest
from scipy.optimize import linprog

from biaslab import (
    DesignResult,
    LinearProgram,
    bayes_posterior,
    biased_belief,
    best_response,
    build_lp,
    classify,
    design_scheme,
    make_instance,
    solve_lp,
    splitting_check,
    verify_design,
)
from biaslab.cli import run_cli
from biaslab.core import SignalingScheme
from biaslab.errors import (
    Infeasible,
    Numerical,
    OutOfRangeThreshold,
    Untestable,
    VerificationFailed,
)
from conftest import random_instance, two_state_family


def scipy_optimum(lp: LinearProgram) -> float:
    """Independent reference value for a maximization LP."""
    res = linprog(
        -lp.objective,
        A_ub=-lp.ge if lp.ge.size else None,
        b_ub=-lp.ge_rhs if lp.ge.size else None,
        A_eq=lp.eq if lp.eq.size else None,
        b_eq=lp.eq_rhs if lp.eq.size else None,
        bounds=(0, None),
        method="highs",
    )
    assert res.status == 0, f"reference solver status {res.status}"
    return -res.fun


class TestBuildLp:
    def test_two_state_row_counts(self, twostate_instance):
        lp = build_lp(twostate_instance, 0.5)
        assert lp.n_vars == 4
        assert lp.ge.shape[0] == 2          # ordered action pairs
        assert lp.eq.shape[0] == 1 + 2      # one indifference + per-state rows

    def test_three_action_row_counts(self, symmetric3_instance):
        lp = build_lp(symmetric3_instance, 0.5)
        assert lp.ge.shape[0] == 6
        assert lp.eq.shape[0] == 2 + 2

    @pytest.mark.parametrize("tau", [0.0, 1.0, -0.2, 1.5])
    def test_threshold_range(self, twostate_instance, tau):
        with pytest.raises(OutOfRangeThreshold):
            build_lp(twostate_instance, tau)


class TestSolveLp:
    def test_one_variable_box(self):
        # maximize x subject to x <= 1 (written as -x >= -1), x >= 0
        lp = LinearProgram(
            objective=np.array([1.0]),
            ge=np.array([[-1.0]]),
            ge_rhs=np.array([-1.0]),
            eq=np.zeros((0, 1)),
            eq_rhs=np.zeros(0),
        )
        value, x = solve_lp(lp)
        assert value == pytest.approx(1.0, abs=1e-12)
        assert x[0] == pytest.approx(1.0, abs=1e-12)

    def test_contradictory_row_infeasible(self):
        lp = LinearProgram(
            objective=np.array([1.0]),
            ge=np.zeros((0, 1)),
            ge_rhs=np.zeros(0),
            eq=np.array([[0.0]]),
            eq_rhs=np.array([1.0]),
        )
        with pytest.raises(Infeasible):
            solve_lp(lp)

    @pytest.mark.parametrize("ge", [np.array([[1.0]]), np.zeros((0, 1))], ids=["with-rows", "no-rows"])
    def test_unbounded_objective(self, ge):
        # maximize x subject to x >= 0 (or nothing at all)
        lp = LinearProgram(
            objective=np.array([1.0]), ge=ge, ge_rhs=np.zeros(ge.shape[0]), eq=np.zeros((0, 1)), eq_rhs=np.zeros(0)
        )
        with pytest.raises(Numerical, match="unbounded"):
            solve_lp(lp)

    def test_design_lp_value(self, twostate_instance):
        value, _ = solve_lp(build_lp(twostate_instance, 0.5))
        assert value == pytest.approx(0.25, abs=1e-9)

    def test_matches_reference_on_random_design_lps(self):
        rng = np.random.default_rng(2024)
        for _ in range(40):
            inst = random_instance(rng)
            tau = float(rng.uniform(0.05, 0.95))
            lp = build_lp(inst, tau)
            value, x = solve_lp(lp)
            assert value == pytest.approx(scipy_optimum(lp), abs=1e-8)
            assert np.min(x) >= -1e-12

    def test_matches_reference_on_random_generic_lps(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            m_ge = int(rng.integers(1, 5))
            m_eq = int(rng.integers(0, 3))
            x0 = rng.random(n)
            ge = rng.normal(size=(m_ge, n))
            eq = rng.normal(size=(m_eq, n)) if m_eq else np.zeros((0, n))
            # feasible by construction around x0, bounded by a box
            lp = LinearProgram(
                objective=rng.normal(size=n),
                ge=np.vstack([ge, -np.eye(n)]),
                ge_rhs=np.concatenate([ge @ x0 - rng.random(m_ge), -10.0 * np.ones(n)]),
                eq=eq,
                eq_rhs=eq @ x0 if m_eq else np.zeros(0),
            )
            value, _ = solve_lp(lp)
            assert value == pytest.approx(scipy_optimum(lp), abs=1e-7)


class TestDesignScheme:
    def test_canonical_two_state(self, twostate_instance):
        res = design_scheme(twostate_instance, 0.5)
        assert res.useful_mass == pytest.approx(0.25, abs=1e-9)
        assert res.sample_complexity == pytest.approx(4.0, abs=1e-8)
        post = bayes_posterior(twostate_instance, res.scheme, "Active")
        np.testing.assert_allclose(post.probs, [0.8, 0.2], atol=1e-9)

    def test_untestable_beyond_range(self, twostate_instance):
        with pytest.raises(Untestable):
            design_scheme(twostate_instance, 0.8)

    def test_symmetric_single_sample(self, symmetric3_instance):
        res = design_scheme(symmetric3_instance, 0.5)
        assert res.useful_mass == pytest.approx(1.0, abs=1e-9)
        assert res.sample_complexity == pytest.approx(1.0, abs=1e-9)

    def test_closed_form_family(self):
        rng = np.random.default_rng(99)
        for _ in range(25):
            mu0 = float(rng.uniform(0.05, 0.6))
            mu_star = float(rng.uniform(mu0 + 0.05, 0.9))
            bound = (1.0 - mu_star) / (1.0 - mu0)
            tau = float(rng.uniform(0.05, 0.95)) * bound
            inst = two_state_family(mu0, mu_star)
            res = design_scheme(inst, tau)
            expected = (mu_star - mu0) / (mu0 * (1.0 - tau)) + 1.0
            assert res.sample_complexity == pytest.approx(expected, abs=1e-6)
            post = bayes_posterior(inst, res.scheme, "Active")
            assert post[0] == pytest.approx((mu_star - tau * mu0) / (1.0 - tau), abs=1e-6)

    def test_complexity_increases_with_threshold(self, twostate_instance):
        taus = np.linspace(0.05, 0.6, 12)
        values = [design_scheme(twostate_instance, float(t)).sample_complexity for t in taus]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_every_design_splits_cleanly(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            inst = random_instance(rng)
            for tau in (0.2, 0.5, 0.8):
                try:
                    res = design_scheme(inst, tau)
                except Untestable:
                    continue
                assert splitting_check(inst, res.scheme) <= 1e-9

    def test_utility_scaling_leaves_mass_unchanged(self):
        rng = np.random.default_rng(41)
        for _ in range(15):
            inst = random_instance(rng)
            inst2 = make_instance(
                states=inst.states,
                actions=inst.actions,
                prior=inst.prior.probs,
                utility=3.7 * np.asarray(inst.utility),
            )
            for tau in (0.3, 0.6):
                try:
                    p1 = design_scheme(inst, tau).useful_mass
                except Untestable:
                    with pytest.raises(Untestable):
                        design_scheme(inst2, tau)
                    continue
                assert design_scheme(inst2, tau).useful_mass == pytest.approx(p1, abs=1e-9)

    def test_default_signal_is_internal_from_threshold_up(self):
        # On the useful signals the verdict logic is exercised elsewhere;
        # here: nothing ever tempts the agent away from the default on the
        # default recommendation once its level is at or above the target.
        # (Below the target this can fail for some instances: the optimum
        # may park the leftover posterior outside the default region.)
        rng = np.random.default_rng(53)
        for _ in range(20):
            inst = random_instance(rng)
            for tau in (0.25, 0.55, 0.85):
                try:
                    res = design_scheme(inst, tau)
                except Untestable:
                    continue
                probs = res.scheme.signal_probs(inst.prior)
                if probs[inst.default_index] <= 1e-9:
                    continue
                post = bayes_posterior(inst, res.scheme, inst.default_action)
                for w in np.linspace(tau, 1.0, 7):
                    belief = biased_belief(inst.prior, post, float(w))
                    assert best_response(inst, belief).action == inst.default_action

    def test_default_signal_internal_all_w_canonical(self, twostate_instance, coin_instance):
        for inst, tau in ((twostate_instance, 0.5), (coin_instance, 0.3)):
            res = design_scheme(inst, tau)
            post = bayes_posterior(inst, res.scheme, inst.default_action)
            for w in np.linspace(0.0, 1.0, 11):
                belief = biased_belief(inst.prior, post, float(w))
                assert best_response(inst, belief).action == inst.default_action


class TestVerifyDesign:
    def test_designed_scheme_passes(self, twostate_instance):
        res = design_scheme(twostate_instance, 0.5)
        report = verify_design(twostate_instance, 0.5, res)
        assert report.max_residual() <= 1e-8

    def test_random_designs_pass(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            inst = random_instance(rng)
            for tau in (0.15, 0.45, 0.75):
                try:
                    res = design_scheme(inst, tau)
                except Untestable:
                    continue
                assert verify_design(inst, tau, res).max_residual() <= 1e-8

    def test_corrupted_scheme_fails_indifference(self, twostate_instance):
        res = design_scheme(twostate_instance, 0.5)
        cond = np.array(res.scheme.cond)
        cond[0, 1] += 0.1  # more Active recommendations in the Bad state
        cond[1, 1] -= 0.1
        bad = DesignResult(
            scheme=SignalingScheme(signals=res.scheme.signals, cond=cond),
            useful_mass=res.useful_mass,
            sample_complexity=res.sample_complexity,
            threshold=res.threshold,
        )
        with pytest.raises(VerificationFailed, match="indifference"):
            verify_design(twostate_instance, 0.5, bad)

    def test_dominated_recommendation_fails_optimality(self, twostate_instance):
        # Bolder pays 0.05 more than Active in every state, so a scheme that
        # recommends Active as the two-state design does breaks optimality
        # while both indifference checks still hold.
        u = np.asarray(twostate_instance.utility)
        inst = make_instance(
            states=twostate_instance.states,
            actions=["Active", "Passive", "Bolder"],
            prior=twostate_instance.prior.probs,
            utility=np.vstack([u, u[0] + 0.05]),
        )
        res = design_scheme(twostate_instance, 0.5)
        cond = np.vstack([res.scheme.cond, np.zeros((1, 2))])  # Bolder never sent
        bad = DesignResult(
            scheme=SignalingScheme(signals=inst.actions, cond=cond),
            useful_mass=res.useful_mass,
            sample_complexity=res.sample_complexity,
            threshold=res.threshold,
        )
        with pytest.raises(VerificationFailed, match=r"optimality\(Active over Bolder\)") as exc:
            verify_design(inst, 0.5, bad)
        assert "indifference" not in str(exc.value)

    def test_unnormalized_scheme_fails_distribution(self, twostate_instance):
        # Scaling every conditional keeps the homogeneous optimality and
        # indifference rows at zero; only the distribution rows break.
        res = design_scheme(twostate_instance, 0.5)
        scaled = SignalingScheme._trusted(res.scheme.signals, 1.5 * res.scheme.cond)
        bad = DesignResult(scaled, res.useful_mass, res.sample_complexity, res.threshold)
        with pytest.raises(VerificationFailed, match=r"^distribution: 0\.5$"):
            verify_design(twostate_instance, 0.5, bad)

    def test_all_default_scheme_is_feasible_but_useless(self, twostate_instance):
        # Recommending the default everywhere satisfies every constraint
        # row trivially; it is just not a test: zero useful mass.
        inst = twostate_instance
        cond = np.zeros((2, 2))
        cond[1, :] = 1.0  # Passive row
        silent = DesignResult(
            scheme=SignalingScheme(signals=inst.actions, cond=cond),
            useful_mass=0.0,
            sample_complexity=float("inf"),
            threshold=0.5,
        )
        report = verify_design(inst, 0.5, silent)
        assert report.max_residual() <= 1e-12
        assert silent.useful_mass == 0.0

    def test_result_json(self, twostate_instance):
        res = design_scheme(twostate_instance, 0.5)
        data = res.to_json_dict()
        assert data["p_star"] == pytest.approx(0.25, abs=1e-9)
        assert data["sample_complexity"] == pytest.approx(4.0, abs=1e-8)
        assert data["scheme"]["signals"] == ["Active", "Passive"]
        infinite = DesignResult(
            scheme=res.scheme, useful_mass=0.0, sample_complexity=float("inf"), threshold=0.5
        )
        assert infinite.to_json_dict()["sample_complexity"] == "inf"


def _rescaled(inst, factor):
    return make_instance(
        states=inst.states, actions=inst.actions, prior=inst.prior.probs, utility=factor * np.asarray(inst.utility)
    )


class TestUtilityScale:
    """A positive factor on every utility changes no best response, so it may
    change no verdict and no p*."""

    @pytest.mark.parametrize("n_states, n_actions", [(2, 2), (3, 2), (4, 2), (6, 2), (8, 2), (2, 3), (3, 3)])
    def test_verdict_and_p_star_invariant(self, n_states, n_actions):
        rng = np.random.default_rng(1000 * n_states + n_actions)
        for _ in range(10):
            inst = random_instance(rng, n_states, n_actions)
            twins = [_rescaled(inst, 10.0**k) for k in (-6, -3, 3, 6, 9)]
            for tau in (0.05, 0.2, 0.4, 0.6, 0.8):
                base = classify(inst, tau)
                for twin in twins:
                    c = classify(twin, tau)
                    assert c.verdict is base.verdict
                    if base.useful_mass is None:
                        with pytest.raises(Untestable):
                            design_scheme(twin, tau)
                        continue
                    assert c.useful_mass == pytest.approx(base.useful_mass, abs=1e-9)
                    res = design_scheme(twin, tau)
                    assert res.useful_mass == c.useful_mass
                    verify_design(twin, tau, res)

    def test_canonical_times_1e9(self, twostate_instance, tmp_path):
        inst = _rescaled(twostate_instance, 1e9)
        assert design_scheme(inst, 0.5).useful_mass == pytest.approx(0.25, abs=1e-12)
        assert classify(inst, 0.5).useful_mass == pytest.approx(0.25, abs=1e-12)
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps(inst.to_json_dict()), encoding="utf-8")
        code, out = run_cli(["design", "--instance", str(path), "--tau", "0.5"])
        assert code == 0 and json.loads(out)["p_star"] == pytest.approx(0.25, abs=1e-12)

    def test_duplicate_action_zero_row(self, twostate_instance):
        # Active and its copy have equal utilities: their pair rows are zero.
        u = np.asarray(twostate_instance.utility)
        inst = make_instance(
            states=twostate_instance.states,
            actions=["Active", "Passive", "Copy"],
            prior=twostate_instance.prior.probs,
            utility=np.vstack([u, u[0]]),
        )
        lp = build_lp(inst, 0.5)
        assert np.count_nonzero(np.abs(lp.ge).max(axis=1) == 0.0) == 2
        assert np.all(np.abs(lp.ge).max(axis=1) <= 1.0)
        res = design_scheme(inst, 0.5)
        assert res.useful_mass == pytest.approx(0.25, abs=1e-9)
        verify_design(inst, 0.5, res)


class TestNearTauMax:
    """A 2x2 instance at a threshold 3.8e-6 (relative) below its tau_max,
    where unscaled LP rows left an equality residual above tolerance."""

    RAW = {
        "states": ["t0", "t1"],
        "actions": ["a0", "a1"],
        "prior": [0.8816386343267285, 0.11836136567327152],
        "utility": [[0.6368561434410536, -0.22778260665450759], [-0.8281640387501373, -0.016384139516405466]],
    }
    TAU = 0.14302998085934038

    def test_designs_and_verifies(self):
        inst = make_instance(**self.RAW)
        c = classify(inst, self.TAU)
        res = design_scheme(inst, self.TAU)
        assert c.verdict.value == "finite"
        assert res.useful_mass == c.useful_mass
        assert res.useful_mass == pytest.approx(scipy_optimum(build_lp(inst, self.TAU)), abs=1e-12)
        assert res.useful_mass == pytest.approx(0.11836143211241289, abs=1e-12)
        verify_design(inst, self.TAU, res)

    def test_cli_estimate_completes(self, tmp_path):
        path = tmp_path / "near.json"
        path.write_text(json.dumps(self.RAW), encoding="utf-8")
        argv = ["estimate", "--instance", str(path), "--w", "0.356477845289235", "--epsilon", "1e-6", "--seed", "47"]
        code, out = run_cli(argv)
        assert code == 0 and json.loads(out)["censored"]
