"""Principal-side algorithms.

A threshold test repeats the designed scheme until a useful signal lands
and reads the verdict off the agent's response.  Binary search over
testable thresholds turns those one-bit answers into a confidence interval
for the hidden bias level.
"""

import math
import numbers
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from .agent import BiasedAgent, _responder, _sampler
from .core import ATOL, ZERO_MASS, Instance, SignalingScheme, _bisect, _check_states
from .design import _knapsack, design_scheme
from .errors import DegenerateParameters, NothingTestable, ShapeMismatch, Untestable
from .geometry import testable_range

# Default step budget: the exact horizon for residual failure probability
# 1e-9, so a Timeout is practically impossible yet runtime stays bounded.
DEFAULT_TIMEOUT_DELTA = 1e-9
_LOG_TIMEOUT_DELTA = math.log(DEFAULT_TIMEOUT_DELTA)


class Verdict:
    GEQ = "geq"
    LEQ = "leq"


@dataclass(frozen=True, eq=False)
class ThresholdVerdict:
    """Outcome of one threshold test.

    ``steps`` counts episodes until the first useful signal; the verdict is
    read from that single episode.  ``trace`` holds every episode when
    recording was requested.
    """

    verdict: str
    steps: int
    trace: tuple | None = None

    def to_json_dict(self) -> dict:
        return {"verdict": self.verdict, "steps": int(self.steps)}


@dataclass(frozen=True, eq=False)
class BiasInterval:
    """Binary-search output: bias level bracketed in [lo, hi].

    ``censored`` marks runs where every query answered "at or above", so
    the upper end is clipped to 1 rather than the untestable region's edge.
    """

    lo: float
    hi: float
    queries: int
    censored: bool

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def to_json_dict(self) -> dict:
        return {
            "lo": float(self.lo),
            "hi": float(self.hi),
            "queries": int(self.queries),
            "censored": bool(self.censored),
        }


class ConfidenceHorizon(NamedTuple):
    exact: int
    bound: int


class ComplexityEstimate(NamedTuple):
    mean: float
    stderr: float | None


def steps_for_confidence(p_star: float, delta: float) -> ConfidenceHorizon:
    """Episodes needed so a useful signal arrives with probability 1 - delta.

    ``exact`` is the smallest horizon whose miss probability drops to
    ``delta``; ``bound`` is the standard log(1/delta)/p overestimate.
    """
    if not 0.0 < p_star <= 1.0 or not 0.0 < delta < 1.0:
        raise DegenerateParameters(f"p_star={p_star}, delta={delta}")
    log_delta = math.log(delta)
    return ConfidenceHorizon(exact=_exact_horizon(p_star, log_delta), bound=_first_horizon(-p_star, log_delta))


def _exact_horizon(p_star: float, log_delta: float) -> int:
    """``steps_for_confidence(p_star, delta).exact`` for valid inputs."""
    # The miss probability (1 - p)**t is compared in logs: 1 - p would round
    # a tiny p away.  log1p(-p) <= -p, so exact <= bound.
    return 1 if p_star == 1.0 else _first_horizon(math.log1p(-p_star), log_delta)


def _first_horizon(log_miss: float, log_delta: float) -> int:
    """Smallest t >= 1 with t * log_miss <= log_delta, for log_miss < 0.

    Raises DegenerateParameters when their ratio is not finite."""
    ratio = log_delta / log_miss
    if not math.isfinite(ratio):
        raise DegenerateParameters(f"no finite horizon: log(delta) / log(miss) = {log_delta} / {log_miss}")
    t = math.ceil(ratio) if ratio > 1.0 else 1
    # The ratio lies within a few ulps of the answer, and the float product
    # is monotone in t.  Step by t >> 52, at least the spacing of doubles
    # near t: 1 below 2**53, where this corrects t by a few unit steps.
    # Above it neighbouring integers share a double, so unit steps might
    # never end; there the last step is halved, rounding up, down to 1.
    step = t >> 52 or 1
    while t > step and (t - step) * log_miss <= log_delta:
        t -= step
    while t * log_miss > log_delta:
        t += step
    while step > 1:
        step = (step + 1) // 2
        if (t - step) * log_miss <= log_delta:
            t -= step
    return t


def _check_count(name: str, count) -> None:
    """Raise DegenerateParameters naming ``count`` unless it is an integer
    (numpy's included, but not a bool) of at least 1."""
    if not isinstance(count, numbers.Integral) or isinstance(count, bool) or count < 1:
        raise DegenerateParameters(f"{name}={count}")


def _threshold_tests(instance, rows, signals, is_useful, agent, rng, max_steps, trials, record_trace=False) -> list:
    """Run ``trials`` successive threshold tests on one scheme, given by its
    rows (sequences of floats over the states, one per signal) and signal
    labels; return the ``ThresholdVerdict`` of each.

    ``is_useful`` flags the useful signals by index.  The step budget is
    checked here, the one place that checks it; the callers have checked
    the other inputs, so nothing is checked twice.  The episode loop is
    built once, and the agent's response to a signal, fixed for one scheme
    and agent, is computed when a verdict or a trace first needs it.  With
    ``record_trace`` each verdict keeps its episodes.
    """
    _check_count("max_steps", max_steps)
    run, respond = _sampler(instance, rows), _responder(agent, instance)
    responses = {}  # signal index -> the agent's action
    episodes = [] if record_trace else None

    def response(s: int) -> str:
        if s not in responses:
            responses[s] = respond(rows[s], signals[s])
        return responses[s]

    results = []
    for _ in range(trials):
        steps, _, s = run(rng, is_useful, max_steps, episodes)
        verdict = Verdict.GEQ if response(s) == instance.default_action else Verdict.LEQ
        trace = None
        if record_trace:
            trace = tuple((instance.states[t], signals[u], response(u)) for t, u in episodes)
            episodes.clear()
        results.append(ThresholdVerdict(verdict=verdict, steps=steps, trace=trace))
    return results


def threshold_test_on_scheme(
    instance: Instance,
    scheme: SignalingScheme,
    useful_signals,
    agent: BiasedAgent,
    rng: np.random.Generator,
    max_steps: int,
    record_trace: bool = False,
) -> ThresholdVerdict:
    """Run episodes until a signal from ``useful_signals`` arrives.

    On that episode the agent's move decides: sticking with the default
    action means the bias is at or above the threshold the scheme was built
    for, anything else means at or below.  Raises Timeout if no useful
    signal lands within ``max_steps``, DegenerateParameters if
    ``useful_signals`` is empty or ``max_steps`` is not an integer of at
    least 1, and ShapeMismatch if ``useful_signals`` is a string or a
    mapping, a useful signal is not one of the scheme's or the scheme does
    not cover the instance's states.
    """
    # A string or a mapping would iterate into signals of its own.
    if isinstance(useful_signals, (str, Mapping)):
        raise ShapeMismatch("useful signals must be a collection of labels, not a string or a mapping")
    useful = set(useful_signals)
    if not useful:
        raise DegenerateParameters("no useful signals")
    unknown = useful.difference(scheme.signals)
    if unknown:
        raise ShapeMismatch(f"unknown signal {', '.join(sorted(map(repr, unknown)))}")
    _check_states(instance, scheme.n_states, "scheme")
    is_useful = [s in useful for s in scheme.signals]
    return _threshold_tests(instance, scheme._rows, scheme.signals, is_useful, agent, rng, max_steps, 1, record_trace)[0]


def _planner(instance: Instance):
    """Return ``plan(tau)``, which designs the scheme for ``tau`` and gives
    its p*, its rows (tuples of floats, one per action), its useful-signal
    mask (the non-default recommendations that are ever sent) and its
    exact horizon for ``DEFAULT_TIMEOUT_DELTA``, the default step budget.
    A two-action design is solved in closed form by ``_knapsack``, set up
    here once for the instance; any other by the LP."""
    d = instance.default_index
    if instance.n_actions == 2:
        rows_at = _knapsack(instance)
        # p* exceeds ATOL, and the non-default signal's mass equals p* up to
        # rounding, far above ZERO_MASS: that signal is the useful one, and
        # no second product with the prior is needed.
        is_useful = [a != d for a in range(2)]

        def plan(tau: float) -> tuple:
            p_star, rows = rows_at(tau)
            return p_star, rows, is_useful, _exact_horizon(p_star, _LOG_TIMEOUT_DELTA)

    else:

        def plan(tau: float) -> tuple:
            result = design_scheme(instance, tau)
            p_star, probs = result.useful_mass, result.scheme.signal_probs(instance.prior)
            is_useful = [a != d and p > ZERO_MASS for a, p in enumerate(probs)]
            return p_star, result.scheme._rows, is_useful, _exact_horizon(p_star, _LOG_TIMEOUT_DELTA)

    return plan


def threshold_test(
    instance: Instance,
    tau: float,
    agent: BiasedAgent,
    rng: np.random.Generator,
    max_steps: int | None = None,
    record_trace: bool = False,
) -> ThresholdVerdict:
    """Decide whether the agent's bias is >= tau or <= tau.

    Designs the optimal direct scheme for ``tau``; useful signals are the
    non-default recommendations.  ``max_steps`` defaults to the design's
    exact horizon for ``DEFAULT_TIMEOUT_DELTA``.  Raises Untestable when the
    threshold cannot be tested at all.
    """
    _, rows, is_useful, horizon = _planner(instance)(tau)
    max_steps = horizon if max_steps is None else max_steps
    return _threshold_tests(instance, rows, instance.actions, is_useful, agent, rng, max_steps, 1, record_trace)[0]


def empirical_sample_complexity(
    instance: Instance,
    tau: float,
    agent: BiasedAgent,
    rng: np.random.Generator,
    trials: int,
) -> ComplexityEstimate:
    """Monte-Carlo estimate of the expected episodes per threshold test.

    The step count is geometric with success probability equal to the
    designed useful mass, so the mean converges to its reciprocal.  The
    scheme is designed once, the agent is asked once per signal, and every
    trial runs a test on that scheme.  The standard error is None for a
    single trial.  Raises DegenerateParameters unless ``trials`` is an
    integer of at least 1.
    """
    return _sample_complexity(instance, tau, agent, rng, trials)[0]


def _sample_complexity(instance, tau, agent, rng, trials) -> tuple[ComplexityEstimate, float]:
    """``empirical_sample_complexity`` plus the expected test length of its design."""
    _check_count("trials", trials)
    p_star, rows, is_useful, max_steps = _planner(instance)(tau)
    tests = _threshold_tests(instance, rows, instance.actions, is_useful, agent, rng, max_steps, trials)
    steps = np.array([test.steps for test in tests], dtype=float)
    mean = float(steps.mean())
    stderr = float(steps.std(ddof=1) / math.sqrt(trials)) if trials > 1 else None
    return ComplexityEstimate(mean=mean, stderr=stderr), 1.0 / p_star


def estimate_bias(
    instance: Instance,
    agent: BiasedAgent,
    epsilon: float,
    rng: np.random.Generator,
) -> BiasInterval:
    """Bracket the hidden bias level by binary search over thresholds.

    Searches [0, tau_max], halving until the bracket is at most ``epsilon``
    wide or consists of two adjacent doubles, the finest bracket floats can
    hold.  Each query draws and asks as ``threshold_test`` does: one design
    for its threshold, the episodes until a useful signal lands and one
    response of the agent.  The search sets up once what no threshold
    changes: the planner (with two actions, the (a over default) utility
    difference and its prior mean) and the agent's responder (the prior,
    the bias function, the level and the tie-break).  A query then builds
    only its design, horizon, signal tables, episodes and one response;
    with two actions the design is the closed form's p* and rows of
    floats, and no scheme, design result, verdict or belief array is
    built.  When
    every answer says "at or above" the level may lie beyond the testable
    range, so the interval is censored to [lo, 1]; the bracket is censored
    only then.  If the requested width already covers the whole searchable
    range, a single query at tau_max settles which side applies.  Raises
    NothingTestable when no threshold is testable at all: when tau_max is
    at most ``ZERO_MASS``, or when a query is untestable and so is the
    smallest positive threshold, since p* does not increase with tau.
    Any other untestable query raises its Untestable.

    The agent treats expected utilities within ``ATOL`` as tied and then
    keeps the default action, so thresholds slightly above the level also
    answer "at or above".  The bracket therefore holds the level only up
    to that tie band: on the canonical two-state instance it lies up to
    about 1.7e-9 above the level, and brackets narrower than that can miss it.
    """
    if not 0.0 < epsilon < 1.0:
        raise DegenerateParameters(f"epsilon={epsilon}")
    tau_max = testable_range(instance)
    if tau_max <= ZERO_MASS:
        raise NothingTestable("default action dominates everywhere")

    plan, respond = _planner(instance), _responder(agent, instance)

    def at_or_above(tau: float) -> bool:
        # threshold_test's one trial, without its verdict or response memo.
        try:
            _, rows, is_useful, max_steps = plan(tau)
        except Untestable:
            # p* does not increase with tau: if the smallest positive double
            # is untestable too, so is every threshold.
            try:
                plan(math.ulp(0.0))
            except Untestable as smallest:
                raise NothingTestable(f"no threshold is testable: p* <= ATOL = {ATOL} down to tau = {smallest.tau}") from None
            raise
        s = _sampler(instance, rows)(rng, is_useful, max_steps)[2]
        return respond(rows[s], instance.actions[s]) == instance.default_action

    lo, hi, queries = _bisect(at_or_above, 0.0, tau_max, epsilon)
    if queries == 0:
        if at_or_above(tau_max):
            return BiasInterval(lo=tau_max, hi=1.0, queries=1, censored=True)
        return BiasInterval(lo=0.0, hi=tau_max, queries=1, censored=False)

    # hi moves off tau_max exactly when some answer was "at or below".
    if hi == tau_max:
        return BiasInterval(lo=lo, hi=1.0, queries=queries, censored=True)
    return BiasInterval(lo=lo, hi=hi, queries=queries, censored=False)
