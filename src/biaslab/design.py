"""Optimal direct-scheme design via a small linear program.

The design variables are the conditionals pi(a|t) of a scheme whose
signals are action recommendations.  Two constraint families make every
recommended non-default action exactly indifferent to the default for an
agent whose prior weight equals the threshold, while staying optimal over
all alternatives; the objective maximizes the total mass of non-default
recommendations.  The reciprocal of that mass is the expected number of
episodes until the agent's response reveals the side of the threshold.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import ATOL, Instance, SignalingScheme, _check_threshold, bayes_posterior, biased_belief
from .errors import Infeasible, Numerical, Untestable, VerificationFailed

PIVOT_TOL = 1e-10
# Coefficients of a unit-norm constraint row below this are rounding noise;
# snapping them to zero keeps behaviour stable when a threshold sits exactly
# on the edge of the testable range.
COEF_SNAP = 1e-12

_MAX_PIVOTS = 100_000

# Largest residual ``verify_design`` accepts on any row or simulated check.
VERIFY_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """maximize objective @ x  s.t.  ge @ x >= ge_rhs,  eq @ x = eq_rhs,  x >= 0."""

    objective: np.ndarray
    ge: np.ndarray
    ge_rhs: np.ndarray
    eq: np.ndarray
    eq_rhs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float)
        n = c.size
        ge = np.asarray(self.ge, dtype=float).reshape(-1, n)
        eq = np.asarray(self.eq, dtype=float).reshape(-1, n)
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "ge", ge)
        object.__setattr__(self, "ge_rhs", np.asarray(self.ge_rhs, dtype=float).reshape(-1))
        object.__setattr__(self, "eq", eq)
        object.__setattr__(self, "eq_rhs", np.asarray(self.eq_rhs, dtype=float).reshape(-1))

    @property
    def n_vars(self) -> int:
        return self.objective.size


@dataclass(frozen=True, eq=False)
class DesignResult:
    """A direct scheme plus its useful-signal mass and expected test length."""

    scheme: SignalingScheme
    useful_mass: float
    sample_complexity: float
    threshold: float

    def to_json_dict(self) -> dict:
        sc = self.sample_complexity
        return {
            "tau": float(self.threshold),
            "p_star": float(self.useful_mass),
            "sample_complexity": "inf" if math.isinf(sc) else float(sc),
            "scheme": self.scheme.to_json_dict(),
        }


@dataclass(frozen=True)
class DesignReport:
    """Worst residual per constraint family of a checked scheme."""

    optimality: float
    indifference: float
    distribution: float
    indifference_sim: float

    def max_residual(self) -> float:
        return max(self.optimality, self.indifference, self.distribution, self.indifference_sim)


def build_lp(instance: Instance, tau: float) -> LinearProgram:
    """Assemble the design LP for threshold ``tau``.

    Variables are the |A|*|Theta| conditionals pi(a|t), indexed
    a * n_states + t.  Rows: one inequality per ordered action pair
    (optimality of the recommendation), one equality per non-default
    action (indifference with the default at bias level tau), and one
    distribution equality per state.  Every row has largest absolute
    coefficient 1 (or is zero), whatever the scale of the utilities.
    """
    _check_threshold(tau)
    nA, nS = instance.n_actions, instance.n_states
    n = nA * nS
    d = instance.default_index
    mu0 = instance.prior.probs

    objective = np.zeros(n)
    ge = np.zeros((nA * (nA - 1), n))
    eq = np.zeros((nA - 1 + nS, n))
    for k, (a, other) in enumerate(itertools.permutations(range(nA), 2)):
        block = slice(a * nS, (a + 1) * nS)
        du = instance.utility[a] - instance.utility[other]
        row = mu0 * ((1.0 - tau) * du + tau * float(mu0 @ du))
        # Unit max-norm, so the solver's tolerances mean the same at every
        # utility scale; a pair with equal utilities keeps its zero row.
        scale = np.abs(row).max()
        ge[k, block] = row / scale if scale > 0.0 else row
        if other == d:
            # Indifference with the default is this row held at zero (the
            # indifference rows skip the default action), and every
            # non-default recommendation counts toward the objective.
            eq[a - (a > d)] = ge[k]
            objective[block] = mu0
    for t in range(nS):
        eq[nA - 1 + t, t::nS] = 1.0
    for rows in (ge, eq):
        rows[np.abs(rows) < COEF_SNAP] = 0.0

    return LinearProgram(
        objective=objective,
        ge=ge,
        ge_rhs=np.zeros(ge.shape[0]),
        eq=eq,
        eq_rhs=np.concatenate([np.zeros(nA - 1), np.ones(nS)]),
    )


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])


def _iterate(T: np.ndarray, basis: list, n_enter: int) -> None:
    """Run simplex pivots to optimality (Bland's rule, minimization tableau)."""
    m = T.shape[0] - 1
    for _ in range(_MAX_PIVOTS):
        entering = -1
        for j in range(n_enter):
            if T[-1, j] < -PIVOT_TOL:
                entering = j
                break
        if entering < 0:
            return
        ratios = []
        for i in range(m):
            if T[i, entering] > PIVOT_TOL:
                # Degenerate rows can carry rounding noise below zero; a
                # negative ratio would walk the tableau infeasible.
                ratios.append((max(T[i, -1], 0.0) / T[i, entering], basis[i], i))
        if not ratios:
            raise Numerical("objective is unbounded")
        _, _, leaving = min(ratios)
        _pivot(T, leaving, entering)
        basis[leaving] = entering
    raise Numerical("pivot limit exceeded")


def solve_lp(lp: LinearProgram) -> tuple[float, np.ndarray]:
    """Maximize the LP with a dense two-phase primal simplex.

    Deterministic: Bland's rule picks the lowest eligible index, so
    identical inputs give identical basic solutions.  Returns the optimal
    value and the variable assignment; raises Infeasible when no point
    satisfies the constraints and Numerical on breakdown, including a
    non-finite coefficient that reaches the solution or the optimum.
    """
    n = lp.n_vars
    m_ge = lp.ge.shape[0]
    m_eq = lp.eq.shape[0]
    m = m_ge + m_eq
    if m == 0:
        if np.any(lp.objective > PIVOT_TOL):
            raise Numerical("objective is unbounded")
        return 0.0, np.zeros(n)

    ncols = n + m_ge  # structural + surplus
    A = np.zeros((m, ncols))
    A[:m_ge, :n] = lp.ge
    if m_ge:
        A[:m_ge, n:ncols] = -np.eye(m_ge)
    A[m_ge:, :n] = lp.eq
    b = np.concatenate([lp.ge_rhs, lp.eq_rhs]).astype(float)
    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0

    # Phase 1: minimize the sum of one artificial variable per row.
    T = np.zeros((m + 1, ncols + m + 1))
    T[:m, :ncols] = A
    T[:m, ncols : ncols + m] = np.eye(m)
    T[:m, -1] = b
    basis = list(range(ncols, ncols + m))
    T[-1, :ncols] = -A.sum(axis=0)
    T[-1, -1] = -b.sum()

    _iterate(T, basis, ncols + m)
    if -T[-1, -1] > ATOL:
        raise Infeasible(f"phase-1 residual {-T[-1, -1]:.3g}")

    # Drive leftover artificials out of the basis where possible, pivoting
    # on the largest entry for stability; rows that cannot pivot are
    # redundant and keep their artificial at zero.
    for i in range(m):
        if basis[i] >= ncols:
            j = int(np.argmax(np.abs(T[i, :ncols])))
            if abs(T[i, j]) > PIVOT_TOL:
                _pivot(T, i, j)
                basis[i] = j

    # Phase 2: minimize -objective over the structural columns.
    cost = np.zeros(ncols)
    cost[:n] = -lp.objective
    basic_cost = np.array([cost[bi] if bi < ncols else 0.0 for bi in basis])
    T[-1, :ncols] = cost - basic_cost @ T[:m, :ncols]
    T[-1, ncols : ncols + m] = 0.0
    T[-1, -1] = -(basic_cost @ T[:m, -1])

    _iterate(T, basis, ncols)

    x = np.zeros(ncols)
    for i, bi in enumerate(basis):
        if bi < ncols:
            x[bi] = T[i, -1]
    solution = np.clip(x[:n], 0.0, None)

    # Written so that a NaN residual or optimum fails the test.
    if m_ge and not np.min(lp.ge @ solution - lp.ge_rhs) >= -ATOL:
        raise Numerical("inequality residual above tolerance")
    if m_eq and not np.max(np.abs(lp.eq @ solution - lp.eq_rhs)) <= ATOL:
        raise Numerical("equality residual above tolerance")
    value = float(lp.objective @ solution)
    if not math.isfinite(value):
        raise Numerical(f"optimum {value} is not finite")
    return value, solution


def design_scheme(instance: Instance, tau: float) -> DesignResult:
    """Best direct scheme for testing which side of ``tau`` the bias is on.

    p* is the LP optimum, the same value ``classify`` reports.  Raises
    Untestable when no scheme can put positive mass on useful signals (the
    indifference rows admit only the all-default solution); a solver
    failure propagates as its own error (Infeasible or Numerical).
    """
    value, x = solve_lp(build_lp(instance, tau))
    useful_mass = min(value, 1.0)  # probability; trim rounding excess
    if useful_mass <= ATOL:
        raise Untestable(tau)
    # solve_lp's solution is clipped nonnegative and holds every distribution
    # row to ATOL, and the instance's action labels are unique: a scheme by
    # construction.
    scheme = SignalingScheme._trusted(instance.actions, x.reshape(instance.n_actions, instance.n_states))
    return DesignResult(
        scheme=scheme,
        useful_mass=useful_mass,
        sample_complexity=1.0 / useful_mass,
        threshold=tau,
    )


# Signals lighter than this are skipped by the biased-belief indifference
# cross-check: the expected-utility gap is the constraint row divided by
# the signal mass, so near-zero masses amplify harmless solver noise past
# any fixed tolerance.  The row residuals still cover those signals.
_SIM_MASS_FLOOR = 1e-6


def verify_design(instance: Instance, tau: float, result: DesignResult) -> DesignReport:
    """Check a design against the LP rows and cross-validate by simulation.

    Evaluates the scheme on the rows of ``build_lp(instance, tau)``: the
    optimality inequalities, the indifference equalities and the
    distribution equalities.  Then independently confirms indifference:
    mix each useful signal's posterior with the prior at weight ``tau`` and
    compare the expected utilities of the recommended and default actions,
    per unit of their largest utility gap.
    Raises VerificationFailed when a residual exceeds ``VERIFY_TOL`` or is
    NaN; the message names each failing row, and the distribution rows by
    their worst one.
    """
    scheme = result.scheme
    nA, nS = instance.n_actions, instance.n_states
    if scheme.n_signals != nA or scheme.n_states != nS:
        raise VerificationFailed("scheme shape does not match the instance")
    d = instance.default_index
    signals = scheme.signals

    lp = build_lp(instance, tau)
    x = scheme.cond.ravel()
    ge_rows = lp.ge @ x - lp.ge_rhs
    eq_rows = np.abs(lp.eq @ x - lp.eq_rhs)  # indifference rows, then distribution rows
    non_default = [a for a in range(nA) if a != d]

    # Every tolerance test below is written so that NaN fails it.
    violations = [
        f"optimality({signals[a]} over {signals[other]}): {row:.3g}"
        for (a, other), row in zip(itertools.permutations(range(nA), 2), ge_rows)
        if not row >= -VERIFY_TOL
    ]
    violations += [
        f"indifference({signals[a]}): {row:.3g}" for a, row in zip(non_default, eq_rows) if not row <= VERIFY_TOL
    ]
    dist = float(eq_rows[nA - 1 :].max())
    if not dist <= VERIFY_TOL:
        violations.append(f"distribution: {dist:.3g}")

    sim = 0.0
    probs = scheme.signal_probs(instance.prior)
    for a in non_default:
        if not probs[a] > _SIM_MASS_FLOOR:
            continue
        posterior = bayes_posterior(instance, scheme, signals[a])
        nu = biased_belief(instance.prior, posterior, tau)
        eu = instance.expected_utilities(nu)
        # Per unit of the pair's utility gap, as the LP rows are scaled.
        gap = abs(float(eu[a] - eu[d])) / float(np.abs(instance.gaps[a - (a > d)]).max())
        sim = max(sim, gap)
        if not gap <= VERIFY_TOL:
            violations.append(f"simulated indifference({signals[a]}): {gap:.3g}")

    if violations:
        raise VerificationFailed("; ".join(violations))
    opt = max(0.0, -float(ge_rows.min()))
    ind = float(eq_rows[: nA - 1].max())
    return DesignReport(optimality=opt, indifference=ind, distribution=dist, indifference_sim=sim)
