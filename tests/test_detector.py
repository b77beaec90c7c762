import math
from dataclasses import dataclass

import numpy as np
import pytest

import biaslab as bl
from biaslab import (
    BiasedAgent,
    LinearBias,
    SignalingScheme,
    TieBreak,
    Verdict,
    WarpedLinear,
    design_scheme,
    empirical_sample_complexity,
    estimate_bias,
    sample_episode,
    steps_for_confidence,
    threshold_test,
    threshold_test_on_scheme,
)
from biaslab.errors import (
    DegenerateParameters,
    NothingTestable,
    Timeout,
    Untestable,
)
from conftest import random_instance


class TestThresholdTest:
    def test_low_bias_reads_leq(self, twostate_instance):
        rng = np.random.default_rng(1)
        v = threshold_test(twostate_instance, 0.5, BiasedAgent(w=0.3), rng)
        assert v.verdict == Verdict.LEQ and v.steps >= 1

    def test_high_bias_reads_geq(self, twostate_instance):
        rng = np.random.default_rng(1)
        v = threshold_test(twostate_instance, 0.5, BiasedAgent(w=0.7), rng)
        assert v.verdict == Verdict.GEQ

    def test_untestable_threshold(self, twostate_instance):
        with pytest.raises(Untestable):
            threshold_test(twostate_instance, 0.8, BiasedAgent(w=0.5), np.random.default_rng(0))

    def test_trace_recorded(self, twostate_instance):
        rng = np.random.default_rng(2)
        v = threshold_test(twostate_instance, 0.5, BiasedAgent(w=0.2), rng, record_trace=True)
        assert v.trace is not None and len(v.trace) == v.steps
        state, signal, action = v.trace[-1]
        assert signal == "Active" and action in ("Active", "Passive")

    def test_timeout(self, twostate_instance):
        # p* = 0.25: find a seed whose first episode sends the null signal
        for seed in range(50):
            rng = np.random.default_rng(seed)
            try:
                threshold_test(twostate_instance, 0.5, BiasedAgent(w=0.5), rng, max_steps=1)
            except Timeout as exc:
                assert exc.steps == 1
                return
        pytest.fail("no timeout across 50 seeds with max_steps=1")

    def test_deterministic_given_seed(self, twostate_instance):
        a = threshold_test(twostate_instance, 0.5, BiasedAgent(w=0.3), np.random.default_rng(42))
        b = threshold_test(twostate_instance, 0.5, BiasedAgent(w=0.3), np.random.default_rng(42))
        assert (a.verdict, a.steps) == (b.verdict, b.steps)

    def test_verdict_matches_bias_side_on_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            inst = random_instance(rng)
            for tau in (0.2, 0.5, 0.8):
                try:
                    bl.design_scheme(inst, tau)
                except Untestable:
                    continue
                for w, expected in ((tau - 0.05, Verdict.LEQ), (tau + 0.05, Verdict.GEQ)):
                    v = threshold_test(inst, tau, BiasedAgent(w=w), rng)
                    assert v.verdict == expected

    def test_json(self, twostate_instance):
        v = threshold_test(twostate_instance, 0.5, BiasedAgent(w=0.3), np.random.default_rng(1))
        assert v.to_json_dict() == {"verdict": "leq", "steps": v.steps}


@dataclass
class CountingBias:
    """LinearBias that counts its evaluations."""

    name: str = "counting"
    calls: int = 0

    def evaluate(self, prior, posterior, w):
        self.calls += 1
        return LinearBias().evaluate(prior, posterior, w)


def _loop_cases(twostate, symmetric3):
    """(instance, scheme, useful signals): two designed schemes, and the
    two-state design plus a signal that is never sent yet counts as useful."""
    two = design_scheme(twostate, 0.5).scheme
    silent = SignalingScheme(
        signals=two.signals + ("Never",), cond=np.vstack([two.cond, np.zeros((1, 2))])
    )
    sym = design_scheme(symmetric3, 0.5).scheme
    return [
        (twostate, two, ["Active"]),
        (twostate, silent, ["Active", "Never"]),
        (symmetric3, sym, ["a1", "a2"]),
    ]


class TestEpisodeLoop:
    """threshold_test_on_scheme against successive sample_episode calls."""

    @pytest.mark.parametrize("bias_fn", [LinearBias(), WarpedLinear(gamma=2.0)])
    @pytest.mark.parametrize("tiebreak", list(TieBreak))
    def test_trace_matches_reference_episodes(
        self, twostate_instance, symmetric3_instance, bias_fn, tiebreak
    ):
        for inst, scheme, useful in _loop_cases(twostate_instance, symmetric3_instance):
            for k, w in enumerate((0.3, 0.5, 0.5**0.5, 0.7)):
                agent = BiasedAgent(w=w, bias_fn=bias_fn, tiebreak=tiebreak)
                loop_rng, ref_rng = np.random.default_rng(k), np.random.default_rng(k)
                for _ in range(20):
                    v = threshold_test_on_scheme(
                        inst, scheme, useful, agent, loop_rng, 10_000, record_trace=True
                    )
                    reference = [sample_episode(agent, inst, scheme, ref_rng)]
                    while reference[-1][1] not in useful:
                        reference.append(sample_episode(agent, inst, scheme, ref_rng))
                    assert v.trace == tuple(reference)
                    assert v.steps == len(reference)
                    stays = reference[-1][2] == inst.default_action
                    assert v.verdict == (Verdict.GEQ if stays else Verdict.LEQ)
                assert loop_rng.random() == ref_rng.random()

    def test_bias_evaluated_once_per_needed_signal(self, twostate_instance, symmetric3_instance):
        for inst, scheme, useful in _loop_cases(twostate_instance, symmetric3_instance):
            counting = CountingBias()
            agent = BiasedAgent(w=0.3, bias_fn=counting)
            rng = np.random.default_rng(3)
            for _ in range(50):
                before = counting.calls
                threshold_test_on_scheme(inst, scheme, useful, agent, rng, 10_000)
                assert counting.calls - before == 1
                before = counting.calls
                v = threshold_test_on_scheme(
                    inst, scheme, useful, agent, rng, 10_000, record_trace=True
                )
                assert counting.calls - before == len({signal for _, signal, _ in v.trace})


class TestStepsForConfidence:
    def test_canonical(self):
        assert steps_for_confidence(0.25, 0.05) == (11, 12)

    def test_single_sample(self):
        assert steps_for_confidence(1.0, 0.05).exact == 1

    def test_even_odds(self):
        assert steps_for_confidence(0.5, 0.5) == (1, 2)

    def test_grid_properties(self):
        for p in np.linspace(0.05, 0.95, 10):
            for delta in np.geomspace(1e-4, 0.5, 10):
                exact, bound = steps_for_confidence(float(p), float(delta))
                assert exact <= bound
                assert (1 - p) ** exact <= delta
                if exact > 1:
                    assert (1 - p) ** (exact - 1) > delta

    @pytest.mark.parametrize("p,d", [(0.0, 0.05), (1.2, 0.05), (0.5, 0.0), (0.5, 1.0)])
    def test_degenerate(self, p, d):
        with pytest.raises(DegenerateParameters):
            steps_for_confidence(p, d)


class TestEmpiricalSampleComplexity:
    def test_two_state_small_run(self, twostate_instance):
        rng = np.random.default_rng(314)
        est = empirical_sample_complexity(twostate_instance, 0.5, BiasedAgent(w=0.3), rng, 3000)
        # geometric mean 4, sd ~6.93; 5 sigma band
        assert est.mean == pytest.approx(4.0, abs=5 * math.sqrt(0.75) / 0.25 / math.sqrt(3000))
        assert est.stderr is not None and est.stderr > 0

    def test_single_sample_instance_exact(self, symmetric3_instance):
        rng = np.random.default_rng(9)
        est = empirical_sample_complexity(symmetric3_instance, 0.5, BiasedAgent(w=0.4), rng, 200)
        assert est.mean == 1.0
        assert est.stderr == 0.0

    def test_single_trial_has_no_stderr(self, twostate_instance):
        rng = np.random.default_rng(10)
        est = empirical_sample_complexity(twostate_instance, 0.5, BiasedAgent(w=0.3), rng, 1)
        assert est.stderr is None
        assert est.mean >= 1.0

    def test_untestable(self, twostate_instance):
        with pytest.raises(Untestable):
            empirical_sample_complexity(
                twostate_instance, 0.8, BiasedAgent(w=0.3), np.random.default_rng(0), 10
            )


class TestEstimateBias:
    def test_interval_contains_low_bias(self, twostate_instance):
        rng = np.random.default_rng(21)
        iv = estimate_bias(twostate_instance, BiasedAgent(w=0.3), 0.05, rng)
        assert not iv.censored
        assert iv.lo - 1e-12 <= 0.3 <= iv.hi + 1e-12
        assert iv.width <= 0.05 + 1e-12
        assert iv.queries <= math.ceil(math.log2(0.625 / 0.05))

    def test_censored_above_range(self, twostate_instance):
        rng = np.random.default_rng(22)
        iv = estimate_bias(twostate_instance, BiasedAgent(w=0.9), 0.05, rng)
        assert iv.censored and iv.hi == 1.0
        assert iv.lo <= 0.9
        assert iv.lo == pytest.approx(0.625 * (1 - 2**-4), abs=1e-9)

    def test_wide_epsilon_single_query(self, twostate_instance):
        lo_case = estimate_bias(twostate_instance, BiasedAgent(w=0.3), 0.7, np.random.default_rng(1))
        assert (lo_case.lo, lo_case.hi, lo_case.queries, lo_case.censored) == (
            0.0,
            pytest.approx(0.625),
            1,
            False,
        )
        hi_case = estimate_bias(twostate_instance, BiasedAgent(w=0.9), 0.7, np.random.default_rng(1))
        assert (hi_case.lo, hi_case.hi, hi_case.queries, hi_case.censored) == (
            pytest.approx(0.625),
            1.0,
            1,
            True,
        )

    def test_soundness_over_bias_grid(self, twostate_instance):
        for k, w in enumerate(np.arange(0.0, 1.0001, 0.05)):
            w = float(round(w, 2))
            rng = np.random.default_rng(1000 + k)
            iv = estimate_bias(twostate_instance, BiasedAgent(w=w), 0.04, rng)
            if iv.censored:
                assert w >= iv.lo - 1e-12
            else:
                assert iv.lo - 1e-12 <= w <= iv.hi + 1e-12
                assert iv.width <= 0.04 + 1e-12

    def test_query_budget(self, twostate_instance):
        for w in (0.0, 0.31, 0.62, 1.0):
            for eps in (0.3, 0.1, 0.02):
                rng = np.random.default_rng(int(w * 100) + int(eps * 1000))
                iv = estimate_bias(twostate_instance, BiasedAgent(w=w), eps, rng)
                assert iv.queries <= math.ceil(math.log2(0.625 / eps)) + 1

    def test_nothing_testable(self):
        inst = bl.make_instance(
            states=["x", "y"],
            actions=["safe", "worse"],
            prior=[0.5, 0.5],
            utility=[[1.0, 1.0], [0.0, 0.5]],
        )
        with pytest.raises(NothingTestable):
            estimate_bias(inst, BiasedAgent(w=0.5), 0.1, np.random.default_rng(0))

    def test_json(self, twostate_instance):
        iv = estimate_bias(twostate_instance, BiasedAgent(w=0.3), 0.1, np.random.default_rng(2))
        data = iv.to_json_dict()
        assert set(data) == {"lo", "hi", "queries", "censored"}
