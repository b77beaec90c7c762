"""Principal-side algorithms.

A threshold test repeats the designed scheme until a useful signal lands
and reads the verdict off the agent's response.  Binary search over
testable thresholds turns those one-bit answers into a confidence interval
for the hidden bias level.
"""

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .agent import BiasedAgent, agent_act, episode_sampler
from .core import ZERO_MASS, Instance, SignalingScheme
from .design import design_scheme
from .errors import DegenerateParameters, NothingTestable, Timeout
from .geometry import testable_range

# Default step budget: the exact horizon for residual failure probability
# 1e-9, so a Timeout is practically impossible yet runtime stays bounded.
DEFAULT_TIMEOUT_DELTA = 1e-9


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
    if p_star == 1.0:
        exact = 1
    else:
        q = 1.0 - p_star
        t = max(1, math.ceil(math.log(delta) / math.log(q)))
        while t > 1 and q ** (t - 1) <= delta:
            t -= 1
        while q**t > delta:
            t += 1
        exact = t
    bound = math.ceil(math.log(1.0 / delta) / p_star)
    return ConfidenceHorizon(exact=exact, bound=bound)


def _threshold_tests(instance, scheme, useful_signals, agent, rng, max_steps, record_trace=False):
    """Yield successive ``threshold_test_on_scheme`` results for its arguments.

    The sampler is built once, and the agent's response to a signal, fixed
    for one scheme and agent, is computed when an episode first needs it.
    """
    useful = set(useful_signals)
    signals = scheme.signals
    is_useful = [s in useful for s in signals]
    draw = episode_sampler(instance, scheme)
    responses = {}  # signal index -> the agent's action

    def respond(s: int) -> str:
        if s not in responses:
            responses[s] = agent_act(agent, instance, scheme, signals[s])
        return responses[s]

    while True:
        trace = []
        for step in range(1, max_steps + 1):
            t, s = draw(rng)
            if record_trace:
                trace.append((instance.states[t], signals[s], respond(s)))
            if is_useful[s]:
                break
        else:
            raise Timeout(max_steps)
        verdict = Verdict.GEQ if respond(s) == instance.default_action else Verdict.LEQ
        yield ThresholdVerdict(verdict=verdict, steps=step, trace=tuple(trace) if record_trace else None)


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
    signal lands within ``max_steps``.
    """
    return next(_threshold_tests(instance, scheme, useful_signals, agent, rng, max_steps, record_trace))


def _test_plan(instance: Instance, tau: float, max_steps: int | None) -> tuple:
    """Design the scheme for ``tau``; return the design, its useful signals
    (the non-default recommendations that are ever sent) and the step budget."""
    design = design_scheme(instance, tau)
    probs = design.scheme.signal_probs(instance.prior)
    useful = [
        s
        for i, s in enumerate(design.scheme.signals)
        if s != instance.default_action and probs[i] > ZERO_MASS
    ]
    if max_steps is None:
        max_steps = steps_for_confidence(design.useful_mass, DEFAULT_TIMEOUT_DELTA).exact
    return design, useful, max_steps


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
    non-default recommendations.  Raises Untestable when the threshold
    cannot be tested at all.
    """
    design, useful, max_steps = _test_plan(instance, tau, max_steps)
    return threshold_test_on_scheme(instance, design.scheme, useful, agent, rng, max_steps, record_trace)


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
    single trial.
    """
    return _sample_complexity(instance, tau, agent, rng, trials)[0]


def _sample_complexity(instance, tau, agent, rng, trials) -> tuple[ComplexityEstimate, float]:
    """``empirical_sample_complexity`` plus the expected test length of its design."""
    if trials < 1:
        raise DegenerateParameters(f"trials={trials}")
    design, useful, max_steps = _test_plan(instance, tau, None)
    tests = _threshold_tests(instance, design.scheme, useful, agent, rng, max_steps)
    steps = np.array([v.steps for v in itertools.islice(tests, trials)], dtype=float)
    mean = float(steps.mean())
    stderr = float(steps.std(ddof=1) / math.sqrt(trials)) if trials > 1 else None
    return ComplexityEstimate(mean=mean, stderr=stderr), design.sample_complexity


def estimate_bias(
    instance: Instance,
    agent: BiasedAgent,
    epsilon: float,
    rng: np.random.Generator,
    max_steps_per_test: int | None = None,
) -> BiasInterval:
    """Bracket the hidden bias level by binary search over thresholds.

    Searches [0, tau_max], halving until the bracket is at most ``epsilon``
    wide; each query is one threshold test.  When every answer says "at or
    above" the level may lie beyond the testable range, so the interval is
    censored to [lo, 1].  If the requested width already covers the whole
    searchable range, a single query at tau_max settles which side applies.
    Raises NothingTestable when no threshold is testable at all.
    """
    if not 0.0 < epsilon < 1.0:
        raise DegenerateParameters(f"epsilon={epsilon}")
    tau_max = testable_range(instance)
    if tau_max <= ZERO_MASS:
        raise NothingTestable("default action dominates everywhere")

    lo, hi = 0.0, tau_max
    queries = 0
    saw_leq = False
    while hi - lo > epsilon:
        mid = 0.5 * (lo + hi)
        verdict = threshold_test(instance, mid, agent, rng, max_steps_per_test)
        queries += 1
        if verdict.verdict == Verdict.GEQ:
            lo = mid
        else:
            hi = mid
            saw_leq = True

    if queries == 0:
        verdict = threshold_test(instance, tau_max, agent, rng, max_steps_per_test)
        if verdict.verdict == Verdict.GEQ:
            return BiasInterval(lo=tau_max, hi=1.0, queries=1, censored=True)
        return BiasInterval(lo=0.0, hi=tau_max, queries=1, censored=False)

    if not saw_leq:
        return BiasInterval(lo=lo, hi=1.0, queries=queries, censored=True)
    return BiasInterval(lo=lo, hi=hi, queries=queries, censored=False)
