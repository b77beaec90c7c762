"""biaslab: signaling-scheme design and simulation for detecting
prior-anchored belief updating.

Design an information scheme whose signals make an agent with a given
anchoring level exactly indifferent between acting and staying with the
default; the agent's observed choice then reveals which side of the level
its true anchoring lies on.  The package designs optimal schemes, tells
testable thresholds from untestable ones, simulates agents, and turns
repeated threshold answers into a bias estimate.
"""

from .core import (
    ATOL,
    Belief,
    BestResponse,
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
from .design import (
    DesignReport,
    DesignResult,
    LinearProgram,
    build_lp,
    design_scheme,
    solve_lp,
    verify_design,
)
from .geometry import (
    Classification,
    GapVector,
    Testability,
    classify,
    gap_vector,
    indifference_offset,
    testable_range,
    translated_set_nonempty,
)
from .agent import BiasedAgent, agent_act, preference_sign, sample_episode
from .bias_models import (
    AssumptionReport,
    BiasFunction,
    FiniteSchemeResult,
    LinearBias,
    WarpedLinear,
    bias_function_from_config,
    check_assumptions,
    construct_finite_scheme,
    crossing_level,
    generalized_membership,
)
from .detector import (
    BiasInterval,
    ComplexityEstimate,
    ConfidenceHorizon,
    ThresholdVerdict,
    Verdict,
    empirical_sample_complexity,
    estimate_bias,
    steps_for_confidence,
    threshold_test,
    threshold_test_on_scheme,
)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "ATOL",
    "AssumptionReport",
    "Belief",
    "BestResponse",
    "BiasFunction",
    "BiasInterval",
    "BiasedAgent",
    "Classification",
    "ComplexityEstimate",
    "ConfidenceHorizon",
    "DesignReport",
    "DesignResult",
    "FiniteSchemeResult",
    "GapVector",
    "Instance",
    "LinearBias",
    "LinearProgram",
    "SignalingScheme",
    "Testability",
    "ThresholdVerdict",
    "TieBreak",
    "Verdict",
    "WarpedLinear",
    "agent_act",
    "bayes_posterior",
    "best_response",
    "bias_function_from_config",
    "biased_belief",
    "build_lp",
    "check_assumptions",
    "classify",
    "construct_finite_scheme",
    "crossing_level",
    "design_scheme",
    "empirical_sample_complexity",
    "errors",
    "estimate_bias",
    "fully_informative_scheme",
    "gap_vector",
    "generalized_membership",
    "indifference_offset",
    "load_instance",
    "make_instance",
    "preference_sign",
    "sample_episode",
    "scheme_from_posteriors",
    "solve_lp",
    "splitting_check",
    "steps_for_confidence",
    "testable_range",
    "threshold_test",
    "threshold_test_on_scheme",
    "translated_set_nonempty",
    "uninformative_scheme",
    "validate_instance",
    "verify_design",
    "vertex_belief",
]
