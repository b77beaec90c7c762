import math
from dataclasses import dataclass, field

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
    bayes_posterior,
    best_response,
    biased_belief,
    design_scheme,
    empirical_sample_complexity,
    estimate_bias,
    sample_episode,
    steps_for_confidence,
    threshold_test,
    threshold_test_on_scheme,
)
from biaslab.core import ZERO_MASS
from biaslab.design import _knapsack_design
from biaslab.detector import DEFAULT_TIMEOUT_DELTA
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

    def test_numpy_integer_budgets(self, twostate_instance):
        # numpy integers are step budgets and trial counts like ints.
        agent = BiasedAgent(w=0.3)
        a, b = (threshold_test(twostate_instance, 0.5, agent, np.random.default_rng(42), max_steps=n) for n in (9, np.int64(9)))
        assert (a.verdict, a.steps) == (b.verdict, b.steps)
        a, b = (empirical_sample_complexity(twostate_instance, 0.5, agent, np.random.default_rng(3), n) for n in (40, np.int32(40)))
        assert a == b

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
    """A bias model, LinearBias unless given, that counts its evaluations."""

    inner: object = field(default_factory=LinearBias)
    name: str = "counting"
    calls: int = 0

    def evaluate(self, prior, posterior, w):
        self.calls += 1
        return self.inner.evaluate(prior, posterior, w)


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

    @pytest.mark.parametrize("bias_fn", [LinearBias(), WarpedLinear(gamma=2.0)])
    def test_trials_match_successive_single_tests(
        self, twostate_instance, symmetric3_instance, bias_fn
    ):
        for inst, tau in ((twostate_instance, 0.5), (twostate_instance, 0.3), (symmetric3_instance, 0.5)):
            design = design_scheme(inst, tau)
            probs = design.scheme.signal_probs(inst.prior)
            useful = [
                s for s, p in zip(design.scheme.signals, probs) if s != inst.default_action and p > 0
            ]
            horizon = steps_for_confidence(design.useful_mass, DEFAULT_TIMEOUT_DELTA).exact
            for k, (w, trials) in enumerate(((0.2, 1), (0.3, 150), (0.7, 150))):
                agent = BiasedAgent(w=w, bias_fn=bias_fn)
                rng, twin = np.random.default_rng(k), np.random.default_rng(k)
                est = empirical_sample_complexity(inst, tau, agent, rng, trials)
                steps = np.array(
                    [
                        threshold_test_on_scheme(inst, design.scheme, useful, agent, twin, horizon).steps
                        for _ in range(trials)
                    ],
                    dtype=float,
                )
                stderr = float(steps.std(ddof=1) / math.sqrt(trials)) if trials > 1 else None
                assert est == (float(steps.mean()), stderr)
                assert rng.random() == twin.random()

    def test_trials_evaluate_bias_once_per_useful_signal(
        self, twostate_instance, symmetric3_instance
    ):
        for inst, n_useful in ((twostate_instance, 1), (symmetric3_instance, 2)):
            counting = CountingBias()
            agent = BiasedAgent(w=0.3, bias_fn=counting)
            rng = np.random.default_rng(5)
            for _ in range(3):
                before = counting.calls
                empirical_sample_complexity(inst, 0.5, agent, rng, 500)
                assert 1 <= counting.calls - before <= n_useful


class TestStepsForConfidence:
    def test_canonical(self):
        assert steps_for_confidence(0.25, 0.05) == (11, 12)

    def test_single_sample(self):
        assert steps_for_confidence(1.0, 0.05).exact == 1

    def test_even_odds(self):
        assert steps_for_confidence(0.5, 0.5) == (1, 2)

    def test_grid_properties(self):
        # Tiny p would vanish from 1 - p, so the miss probability is held to
        # delta in logs: (1 - p)**t <= delta  <=>  t * log1p(-p) <= log(delta).
        small = np.geomspace(1e-17, 1e-3, 15)
        for p in np.concatenate([np.linspace(0.05, 0.95, 10), small]):
            for delta in np.geomspace(1e-4, 0.5, 10):
                exact, bound = steps_for_confidence(float(p), float(delta))
                assert exact <= bound
                assert exact * math.log1p(-p) <= math.log(delta)
                if exact > 1:
                    assert (exact - 1) * math.log1p(-p) > math.log(delta)
                if p >= 0.05:
                    assert (1 - p) ** exact <= delta
                    if exact > 1:
                        assert (1 - p) ** (exact - 1) > delta

    @pytest.mark.parametrize("p", [1e-17, 1e-16, 1e-9])
    def test_tiny_p_at_default_delta(self, p):
        exact, bound = steps_for_confidence(p, DEFAULT_TIMEOUT_DELTA)
        assert exact <= bound
        assert exact * math.log1p(-p) <= math.log(DEFAULT_TIMEOUT_DELTA)

    @pytest.mark.parametrize("p", [1e-23, 1e-100, 1e-300])
    def test_horizons_beyond_two_to_53(self, p):
        # Neighbouring integers share a double up here; each horizon is
        # still the smallest t whose miss probability, in logs, reaches delta.
        log_delta = math.log(DEFAULT_TIMEOUT_DELTA)
        exact, bound = steps_for_confidence(p, DEFAULT_TIMEOUT_DELTA)
        assert 2**53 < exact <= bound
        for t, log_miss in ((exact, math.log1p(-p)), (bound, -p)):
            assert t * log_miss <= log_delta < (t - 1) * log_miss

    # At p = 5e-324, log(delta) / log1p(-p) overflows: no finite horizon.
    @pytest.mark.parametrize("p,d", [(0.0, 0.05), (1.2, 0.05), (0.5, 0.0), (0.5, 1.0), (5e-324, DEFAULT_TIMEOUT_DELTA)])
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

    @pytest.mark.parametrize("epsilon", [1e-17, 1e-300])
    @pytest.mark.parametrize("w", [0.0, 0.3, 1.0])
    def test_stops_at_double_resolution(self, twostate_instance, w, epsilon, monkeypatch):
        # Below the spacing of doubles near the level, the bracket can only
        # shrink to two adjacent doubles.  The counter, on each query's
        # design step, turns a search that never ends into a failure.
        calls = []

        def counted_planner(instance, planner=bl.detector._planner):
            plan = planner(instance)

            def counted(tau, *args):
                calls.append(tau)
                if len(calls) > 5000:
                    raise AssertionError("the binary search does not end")
                return plan(tau, *args)

            return counted

        monkeypatch.setattr(bl.detector, "_planner", counted_planner)
        inst = twostate_instance
        iv = estimate_bias(inst, BiasedAgent(w=w), epsilon, np.random.default_rng(1))
        assert iv.queries == len(calls)
        if iv.censored:
            assert iv.lo <= w and np.nextafter(iv.lo, 1.0) == bl.testable_range(inst)
            return
        assert iv.width <= epsilon or iv.hi == np.nextafter(iv.lo, 1.0)
        # The agent breaks expected-utility ties within ATOL toward the
        # default, so the level may lie beyond the bracket only where the
        # agent is tied at the bracket's edge.
        if not iv.lo <= w <= iv.hi:
            edge = iv.lo if w < iv.lo else iv.hi
            scheme = _knapsack_design(inst, edge).scheme  # the two-action search's rows
            nu = biased_belief(inst.prior, bayes_posterior(inst, scheme, "Active"), w)
            assert best_response(inst, nu).tie

    def test_nothing_testable(self):
        inst = bl.make_instance(
            states=["x", "y"],
            actions=["safe", "worse"],
            prior=[0.5, 0.5],
            utility=[[1.0, 1.0], [0.0, 0.5]],
        )
        with pytest.raises(NothingTestable):
            estimate_bias(inst, BiasedAgent(w=0.5), 0.1, np.random.default_rng(0))

    @pytest.mark.parametrize("mass", [1e-10, 8e-10])
    def test_nothing_testable_below_atol(self, mass):
        # tau_max is about 0.25, yet p* <= ATOL at every threshold, down to
        # the smallest positive one: the search says that nothing is
        # testable, not that its first query is untestable.
        inst = bl.make_instance(["G", "B"], ["A", "P"], [mass, 1.0 - mass], [[1.0, -1.0], [0.0, 0.0]])
        with pytest.raises(NothingTestable, match=r"p\* <= ATOL"):
            estimate_bias(inst, BiasedAgent(w=0.3), 1e-3, np.random.default_rng(1))

    def test_untestable_query_stays_untestable(self):
        # p* is 2e-9 at the smallest threshold, but from tau about 5e-10 on
        # the snap of small row coefficients (COEF_SNAP) drops G's entry, so
        # the first query, at tau_max / 2, is untestable and says so.
        inst = bl.make_instance(["G", "B"], ["A", "P"], [1e-9, 1.0 - 1e-9], [[1.0, -1.0], [0.0, 0.0]])
        with pytest.raises(Untestable) as raised:
            estimate_bias(inst, BiasedAgent(w=0.3), 1e-3, np.random.default_rng(1))
        assert raised.value.tau == 0.5 * bl.testable_range(inst)

    def test_json(self, twostate_instance):
        iv = estimate_bias(twostate_instance, BiasedAgent(w=0.3), 0.1, np.random.default_rng(2))
        data = iv.to_json_dict()
        assert set(data) == {"lo", "hi", "queries", "censored"}


class TestThresholdTestEquivalence:
    """threshold_test against threshold_test_on_scheme on its own design."""

    @staticmethod
    def _two_action_instances():
        rng = np.random.default_rng(7)
        instances = []
        for n_states in range(2, 9):
            inst = random_instance(rng, n_states=n_states, n_actions=2)
            while bl.testable_range(inst) < 0.05:  # nothing worth testing
                inst = random_instance(rng, n_states=n_states, n_actions=2)
            instances.append(inst)
        return instances

    @pytest.mark.parametrize("bias_fn", [LinearBias(), WarpedLinear(gamma=2.0)])
    @pytest.mark.parametrize("tiebreak", list(TieBreak))
    def test_matches_test_on_designed_scheme(self, symmetric3_instance, bias_fn, tiebreak):
        compared = 0
        for inst in self._two_action_instances() + [symmetric3_instance]:
            tau_max = bl.testable_range(inst)
            for k, fraction in enumerate((0.1, 0.35, 0.5, 0.8, 0.99)):
                tau = fraction * tau_max
                route = _knapsack_design if inst.n_actions == 2 else design_scheme
                design = route(inst, tau)
                probs = design.scheme.signal_probs(inst.prior)
                useful = [
                    s for s, p in zip(design.scheme.signals, probs)
                    if s != inst.default_action and p > ZERO_MASS
                ]
                horizon = steps_for_confidence(design.useful_mass, DEFAULT_TIMEOUT_DELTA).exact
                for w in (0.2, tau, 0.7):
                    agent = BiasedAgent(w=w, bias_fn=bias_fn, tiebreak=tiebreak)
                    rng, twin = np.random.default_rng(k), np.random.default_rng(k)
                    for record_trace in (False, True):
                        v = threshold_test(inst, tau, agent, rng, record_trace=record_trace)
                        ref = threshold_test_on_scheme(
                            inst, design.scheme, useful, agent, twin, horizon, record_trace=record_trace
                        )
                        assert (v.verdict, v.steps, v.trace) == (ref.verdict, ref.steps, ref.trace)
                        compared += 1
                    assert rng.bit_generator.state == twin.bit_generator.state
        assert compared == 2 * 3 * 5 * 8


class TestEstimateBiasMatchesThresholdTests:
    """One search draws and asks exactly as successive public
    ``threshold_test`` calls do, bisected by ``core._bisect``."""

    @staticmethod
    def _reference(instance, agent, epsilon, rng):
        tau_max = bl.testable_range(instance)
        lo, hi, queries = bl.core._bisect(
            lambda tau: threshold_test(instance, tau, agent, rng).verdict == Verdict.GEQ, 0.0, tau_max, epsilon
        )
        assert queries > 0
        return (lo, 1.0, queries, True) if hi == tau_max else (lo, hi, queries, False)

    @pytest.mark.parametrize("bias_fn", [LinearBias(), WarpedLinear(gamma=2.0)], ids=["linear", "warped"])
    @pytest.mark.parametrize("tiebreak", list(TieBreak))
    def test_same_interval_draws_and_questions(self, symmetric3_instance, bias_fn, tiebreak):
        instances = TestThresholdTestEquivalence._two_action_instances() + [symmetric3_instance]
        for k, inst in enumerate(instances):
            for w in (0.37 * bl.testable_range(inst), 1.0):
                for epsilon in (1e-3, 1e-9):
                    ours, theirs = CountingBias(bias_fn), CountingBias(bias_fn)
                    rng, twin = np.random.default_rng(k), np.random.default_rng(k)
                    iv = estimate_bias(inst, BiasedAgent(w=w, bias_fn=ours, tiebreak=tiebreak), epsilon, rng)
                    ref = self._reference(inst, BiasedAgent(w=w, bias_fn=theirs, tiebreak=tiebreak), epsilon, twin)
                    assert (iv.lo, iv.hi, iv.queries, iv.censored) == ref
                    assert rng.bit_generator.state == twin.bit_generator.state
                    assert ours.calls == theirs.calls == iv.queries


class TestEstimateBiasSetUp:
    """A search sets up its design and its responder once and runs the
    per-threshold design step once per query."""

    @pytest.fixture
    def counts(self, monkeypatch):
        import biaslab.detector as detector

        counts = {"planner": 0, "knapsack": 0, "responder": 0, "designs": 0}

        def counted(name, real, steps_design):
            def set_up(*args):
                counts[name] += 1
                step = real(*args)
                if not steps_design:
                    return step

                def design(*args):
                    counts["designs"] += 1
                    return step(*args)

                return design

            return set_up

        monkeypatch.setattr(detector, "_planner", counted("planner", detector._planner, False))
        monkeypatch.setattr(detector, "_knapsack", counted("knapsack", detector._knapsack, True))
        monkeypatch.setattr(detector, "_responder", counted("responder", detector._responder, False))
        design_scheme = detector.design_scheme

        def design(*args):  # the LP route's per-threshold step
            counts["designs"] += 1
            return design_scheme(*args)

        monkeypatch.setattr(detector, "design_scheme", design)
        return counts

    @pytest.mark.parametrize("epsilon", [1e-3, 1e-9])
    def test_two_actions(self, counts, twostate_instance, epsilon):
        iv = estimate_bias(twostate_instance, BiasedAgent(w=0.3), epsilon, np.random.default_rng(0))
        assert counts == {"planner": 1, "knapsack": 1, "responder": 1, "designs": iv.queries}

    @pytest.mark.parametrize("epsilon", [1e-3, 1e-9])
    def test_three_actions(self, counts, symmetric3_instance, epsilon):
        iv = estimate_bias(symmetric3_instance, BiasedAgent(w=0.3), epsilon, np.random.default_rng(0))
        assert counts == {"planner": 1, "knapsack": 0, "responder": 1, "designs": iv.queries}


class TestEstimateBiasQueries:
    def test_agent_asked_once_per_query(self, twostate_instance):
        for w, epsilon in ((0.3, 1e-6), (0.9, 1e-3), (0.0, 1e-9)):
            counting = CountingBias()
            iv = estimate_bias(twostate_instance, BiasedAgent(w=w, bias_fn=counting), epsilon, np.random.default_rng(4))
            assert counting.calls == iv.queries > 1

    @staticmethod
    def _scripted(monkeypatch, answers):
        """Make the search's queries play ``answers``: a verdict, or
        Untestable, per query.  Each query's design step raises Untestable
        or designs as before, and the agent then keeps the default action
        for "at or above" and leaves it for "at or below".  A design past
        the script, the search's check at the smallest threshold after an
        untestable query, designs as before."""
        taus = []

        def planner(instance, real=bl.detector._planner):
            plan = real(instance)

            def scripted(tau, *args):
                taus.append(tau)
                if len(taus) <= len(answers) and answers[len(taus) - 1] is Untestable:
                    raise Untestable(tau)
                return plan(tau, *args)

            return scripted

        def responder(agent, instance):
            default = instance.default_action
            other = next(a for a in instance.actions if a != default)
            return lambda row, signal: default if answers[len(taus) - 1] == Verdict.GEQ else other

        monkeypatch.setattr(bl.detector, "_planner", planner)
        monkeypatch.setattr(bl.detector, "_responder", responder)
        return taus

    def _assert_raises_after(self, monkeypatch, twostate_instance, script):
        taus = self._scripted(monkeypatch, script)
        with pytest.raises(Untestable):
            estimate_bias(twostate_instance, BiasedAgent(w=0.5), 1e-6, np.random.default_rng(0))
        # The script's queries, then one design at the smallest threshold,
        # which is testable on this instance.
        assert len(taus) == len(script) + 1 and taus[-1] == math.ulp(0.0)

    # An untestable query raises whatever answers came before it.  The two
    # "is_censored" tests keep their names from when these scripts ended in
    # a censored bracket; an untestable query is no longer censored.

    def test_untestable_after_only_geq_is_censored(self, twostate_instance, monkeypatch):
        self._assert_raises_after(monkeypatch, twostate_instance, [Verdict.GEQ, Verdict.GEQ, Untestable])

    def test_untestable_first_query_is_censored_at_zero(self, twostate_instance, monkeypatch):
        self._assert_raises_after(monkeypatch, twostate_instance, [Untestable])

    def test_untestable_after_leq_raises(self, twostate_instance, monkeypatch):
        self._assert_raises_after(monkeypatch, twostate_instance, [Verdict.GEQ, Verdict.LEQ, Verdict.GEQ, Untestable])

    def test_untestable_at_tau_max_raises(self, twostate_instance, monkeypatch):
        # A single query at tau_max has no answers to censor from.
        self._scripted(monkeypatch, [Untestable])
        with pytest.raises(Untestable):
            estimate_bias(twostate_instance, BiasedAgent(w=0.5), 0.9, np.random.default_rng(0))

    def test_untestable_down_to_the_smallest_threshold(self, twostate_instance, monkeypatch):
        # When the design at the smallest threshold is untestable too, so is
        # every threshold, whatever answers came before.
        taus = self._scripted(monkeypatch, [Verdict.GEQ, Untestable, Untestable])
        with pytest.raises(NothingTestable):
            estimate_bias(twostate_instance, BiasedAgent(w=0.5), 1e-6, np.random.default_rng(0))
        assert taus[-1] == math.ulp(0.0) and len(taus) == 3


def test_three_action_search_near_tau_max():
    # Query 25 lands 1.8e-8 below tau_max, where the hand-rolled simplex
    # raised Numerical.  The level lies above tau_max, so the right answer
    # is a censored bracket.
    inst = bl.make_instance(
        ["t0", "t1", "t2", "t3"],
        ["a0", "a1", "a2"],
        [0.25620645832343614, 0.028191517739882037, 0.4628419914906279, 0.252760032446054],
        [
            [-2.225907774644324, 5.651481267978751, -0.9810007612967596, 0.46391338895684286],
            [-14.792353034625938, 13.535117196503341, -11.363564302623661, -7.213264397177953],
            [18.9223917220664, -7.5779729123218225, 6.387389988593326, -0.786991600878722],
        ],
    )
    iv = estimate_bias(inst, BiasedAgent(w=0.77), 1e-9, np.random.default_rng(0))
    assert iv.censored and iv.hi == 1.0 and iv.lo <= bl.testable_range(inst) < 0.77


class TestTwoActionQueriesBuildNoArrays:
    """A two-action query runs on Python floats from the design to the
    verdict: it builds no scheme, no design result and no belief array."""

    @pytest.fixture
    def counts(self, monkeypatch):
        import biaslab.core
        import biaslab.design

        counts = {"schemes": 0, "designs": 0, "beliefs": []}
        trusted_scheme, trusted_belief = SignalingScheme._trusted.__func__, bl.Belief._trusted.__func__
        scheme_init, design_init = SignalingScheme.__init__, biaslab.design.DesignResult.__init__

        def count_scheme(cls, *args, **kwargs):
            counts["schemes"] += 1
            return trusted_scheme(cls, *args, **kwargs)

        def count_scheme_init(self, *args, **kwargs):
            counts["schemes"] += 1
            scheme_init(self, *args, **kwargs)

        def count_design(self, *args, **kwargs):
            counts["designs"] += 1
            design_init(self, *args, **kwargs)

        def keep_belief(cls, floats):
            belief = trusted_belief(cls, floats)
            counts["beliefs"].append(belief)
            return belief

        monkeypatch.setattr(SignalingScheme, "_trusted", classmethod(count_scheme))
        monkeypatch.setattr(SignalingScheme, "__init__", count_scheme_init)
        monkeypatch.setattr(biaslab.design.DesignResult, "__init__", count_design)
        monkeypatch.setattr(biaslab.core.Belief, "_trusted", classmethod(keep_belief))
        return counts

    @pytest.mark.parametrize("tiebreak", list(TieBreak))
    @pytest.mark.parametrize("bias_fn", [LinearBias(), WarpedLinear(gamma=2.0)], ids=["linear", "warped"])
    def test_estimate_and_threshold_test(self, counts, bias_fn, tiebreak):
        rng = np.random.default_rng(3)
        for k in range(3):
            inst = random_instance(rng, n_states=2 + k, n_actions=2)
            while bl.testable_range(inst) <= 0.05:
                inst = random_instance(rng, n_states=2 + k, n_actions=2)
            agent = BiasedAgent(w=0.4, bias_fn=bias_fn, tiebreak=tiebreak)
            iv = estimate_bias(inst, agent, 1e-9, rng)
            tau = 0.5 * bl.testable_range(inst)
            verdicts = [threshold_test(inst, tau, agent, rng, record_trace=trace) for trace in (False, True)]
            assert iv.queries > 0 and all(v.steps >= 1 for v in verdicts)
            assert not any("probs" in vars(belief) for belief in [inst.prior, *counts["beliefs"]])
        assert counts["schemes"] == counts["designs"] == 0
        assert len(counts["beliefs"]) > 0

    def test_three_actions_still_design_a_scheme(self, counts, symmetric3_instance):
        agent = BiasedAgent(w=0.4)
        threshold_test(symmetric3_instance, 0.3, agent, np.random.default_rng(0))
        assert counts["schemes"] == counts["designs"] == 1
