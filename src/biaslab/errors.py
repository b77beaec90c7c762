"""Exception taxonomy shared across the library."""


class BiasLabError(Exception):
    """Base class for all library errors."""


class ShapeMismatch(BiasLabError):
    """Input arrays or label lists have inconsistent dimensions."""


class NonSimplexPrior(BiasLabError):
    """Prior vector has negative entries or does not sum to one."""


class NoUniqueDefault(BiasLabError):
    """No action wins strictly at the prior, so the default action is undefined."""


class ZeroProbabilitySignal(BiasLabError):
    """Requested a posterior for a signal that is never sent."""


class OutOfRangeBias(BiasLabError):
    """Bias level outside [0, 1]."""


class OutOfRangeThreshold(BiasLabError):
    """Threshold outside the open interval (0, 1)."""


class InconsistentSplit(BiasLabError):
    """Weighted posteriors do not average back to the prior."""


class Infeasible(BiasLabError):
    """Linear program has no feasible point."""


class Numerical(BiasLabError):
    """Solver failed to converge or returned an unusable solution."""


class Untestable(BiasLabError):
    """No signaling scheme can answer the threshold question."""

    def __init__(self, tau, message=None):
        self.tau = tau
        super().__init__(message or f"threshold tau={tau} is not testable on this instance")


class VerificationFailed(BiasLabError):
    """A designed scheme violates its defining constraints."""


class DefaultActionGap(BiasLabError):
    """Utility-gap vectors are only defined for non-default actions."""


class DegenerateParameters(BiasLabError):
    """Parameters outside the meaningful range for a confidence horizon."""


class Timeout(BiasLabError):
    """No useful signal arrived within the step budget."""

    def __init__(self, steps, message=None):
        self.steps = steps
        super().__init__(message or f"no useful signal within {steps} episodes")


class NothingTestable(BiasLabError):
    """Every threshold in (0, 1) is untestable on this instance."""


class NotSingleCrossing(BiasLabError):
    """A bias function crossed the default-action boundary more than once."""
