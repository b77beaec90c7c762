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
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import ATOL, Instance, SignalingScheme, _check_threshold, _frozen, _fsum, bayes_posterior, biased_belief
from .errors import Infeasible, Numerical, Untestable, VerificationFailed

PIVOT_TOL = 1e-10
# Coefficients of a unit-norm constraint row below this are snapped to zero.
# It is HiGHS's default ``small_matrix_value``: HiGHS drops smaller entries
# itself, so snapping them here makes the rows that ``solve_lp`` and
# ``verify_design`` check the rows HiGHS solves.  Near the edge of the
# testable range such entries are rounding noise.
COEF_SNAP = 1e-9

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
    # Set by ``build_lp`` on a two-action design LP, the one kind of LP the
    # simplex solves.
    _two_action: bool = field(default=False, init=False, repr=False)

    def __post_init__(self):
        # Read-only copies: a later write to the caller's arrays cannot
        # change the LP.
        n = np.size(self.objective)
        for name, shape in (("objective", -1), ("ge", (-1, n)), ("ge_rhs", -1), ("eq", (-1, n)), ("eq_rhs", -1)):
            object.__setattr__(self, name, _frozen(getattr(self, name)).reshape(shape))  # a read-only view

    def __reduce__(self):
        # The constructor freezes the unpickled arrays again; the state
        # keeps the solver route.
        arrays = (self.objective, self.ge, self.ge_rhs, self.eq, self.eq_rhs)
        return LinearProgram, arrays, {"_two_action": self._two_action}

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
    prior = instance._prior

    objective = np.zeros(n)
    ge = np.zeros((nA * (nA - 1), n))
    eq = np.zeros((nA - 1 + nS, n))
    for k, (a, other, row) in enumerate(_pair_rows(instance, tau)):
        block = slice(a * nS, (a + 1) * nS)
        ge[k, block] = row
        if other == d:
            # Indifference with the default is this row held at zero (the
            # indifference rows skip the default action), and every
            # non-default recommendation counts toward the objective.
            eq[a - (a > d)] = ge[k]
            objective[block] = prior
    for t in range(nS):
        eq[nA - 1 + t, t::nS] = 1.0

    lp = LinearProgram(
        objective=objective,
        ge=ge,
        ge_rhs=np.zeros(ge.shape[0]),
        eq=eq,
        eq_rhs=np.concatenate([np.zeros(nA - 1), np.ones(nS)]),
    )
    object.__setattr__(lp, "_two_action", nA == 2)
    return lp


def _pair_row(mu0: Sequence[float], tau: float, du: Sequence[float], mean_du: float) -> list:
    """The (a over other) optimality row on the conditionals pi(a|.), from
    the prior ``mu0``, du = u[a] - u[other] and its prior mean ``mean_du``.

    Scaled to unit max-norm, so the solver's tolerances mean the same at
    every utility scale (a pair with equal utilities keeps its zero row),
    and snapped to zero below ``COEF_SNAP``.  The row is a list of Python
    floats: each entry takes the same IEEE operations in the same order as
    the elementwise numpy form ``mu0 * ((1 - tau) * du + tau * mean_du)``.
    The one sum, ``mean_du``, is the caller's, correctly rounded by
    ``core._fsum``, so the row does not depend on a summation order.
    """
    keep, shift = 1.0 - tau, tau * mean_du
    row = [m * (keep * x + shift) for m, x in zip(mu0, du)]
    scale = max(map(abs, row))
    if not scale > 0.0:
        scale = 1.0  # a zero row stays as it is, and x / 1.0 is x
    return [0.0 if abs(y := x / scale) < COEF_SNAP else y for x in row]


def _pair_rows(instance: Instance, tau: float):
    """Yield ``(a, other, row)`` for each ordered action pair, in
    ``itertools.permutations`` order, with ``row`` the (a over other)
    optimality row on pi(a|.).  ``build_lp`` lays these rows out and
    ``verify_design`` reads them, so both see the same bits."""
    for a, other in itertools.permutations(range(instance.n_actions), 2):
        yield a, other, _row_over(instance, a, other)(tau)


def _row_over(instance: Instance, a: int, other: int):
    """Return ``row_at(tau)``, the ``_pair_row`` for (a over other) at
    threshold ``tau``; du and its prior mean, which ``tau`` does not
    change, are formed once here from the instance's prior and utility
    rows."""
    prior, rows = instance._prior, instance._rows
    du = [x - y for x, y in zip(rows[a], rows[other])]
    mean_du = _fsum(prior, du)
    return lambda tau: _pair_row(prior, tau, du, mean_du)


def solve_lp(lp: LinearProgram) -> tuple[float, np.ndarray]:
    """Maximize the LP; return the optimal value and the variable assignment.

    Every LP goes to HiGHS's dual simplex (Huangfu & Hall 2018) through
    ``scipy.optimize.linprog``, imported only here, except ``build_lp``'s
    design LPs for two-action instances.  Those go to a dense two-phase
    primal simplex, which stalls or breaks on larger LPs but solves these
    in about 0.5 ms against HiGHS's floor of 2-3 ms, deterministically
    (Bland's rule picks the lowest eligible index), with answers pinned bit
    for bit.  It keeps them until the closed form of ``_knapsack_design``
    takes them over, and two-action runs never load scipy.  Both answers
    are clipped nonnegative and pass one check: a finite optimum and every
    row within ``ATOL``.  Raises Infeasible when no point satisfies the
    constraints and Numerical on breakdown, including an unbounded
    objective and a non-finite coefficient.
    """
    solution = _simplex(lp) if lp._two_action else _highs(lp)
    return _checked(lp, np.clip(solution, 0.0, None))


def _checked(lp: LinearProgram, solution: np.ndarray) -> tuple[float, np.ndarray]:
    """``(optimum, solution)`` once the optimum is finite and every row
    holds to ``ATOL``; each test is written so that NaN fails it.  The
    optimum is a correctly rounded sum; the residuals, compared with
    ``ATOL`` only, stay numpy products."""
    value = _fsum(lp.objective.tolist(), solution.tolist())
    if not math.isfinite(value):
        raise Numerical(f"optimum {value} is not finite")
    if lp.ge.shape[0] and not np.min(lp.ge @ solution - lp.ge_rhs) >= -ATOL:
        raise Numerical("inequality residual above tolerance")
    if lp.eq.shape[0] and not np.max(np.abs(lp.eq @ solution - lp.eq_rhs)) <= ATOL:
        raise Numerical("equality residual above tolerance")
    return value, solution


def _highs(lp: LinearProgram) -> np.ndarray:
    """Solve the LP with HiGHS; Infeasible on HiGHS status 2, Numerical
    with HiGHS's message on any other failure."""
    if not all(np.isfinite(a).all() for a in (lp.objective, lp.ge, lp.ge_rhs, lp.eq, lp.eq_rhs)):
        # HiGHS takes no NaN or inf.  The check at the origin names the
        # optimum or the first row family they break.
        _checked(lp, np.zeros(lp.n_vars))
        raise Numerical("LP coefficients are not finite")
    from scipy.optimize import linprog

    # linprog minimizes, over x >= 0 unless told otherwise.
    res = linprog(-lp.objective, A_ub=-lp.ge, b_ub=-lp.ge_rhs, A_eq=lp.eq, b_eq=lp.eq_rhs, method="highs-ds")
    if res.status != 0:
        raise (Infeasible if res.status == 2 else Numerical)(res.message)
    return res.x


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


def _simplex(lp: LinearProgram) -> np.ndarray:
    """Solve a two-action design LP with a dense two-phase primal simplex.

    Its right-hand sides are 0 or 1, so the artificial basis of phase 1 is
    feasible as it stands, and it has at least five rows: two pair rows,
    the indifference row and one distribution row per state.
    """
    n = lp.n_vars
    m_ge = lp.ge.shape[0]
    m = m_ge + lp.eq.shape[0]

    ncols = n + m_ge  # structural + surplus
    A = np.zeros((m, ncols))
    A[:m_ge, :n] = lp.ge
    A[:m_ge, n:ncols] = -np.eye(m_ge)
    A[m_ge:, :n] = lp.eq
    b = np.concatenate([lp.ge_rhs, lp.eq_rhs])

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
    return x[:n]


def design_scheme(instance: Instance, tau: float) -> DesignResult:
    """Best direct scheme for testing which side of ``tau`` the bias is on.

    The closed form decides testability: a threshold above
    ``testable_range`` raises Untestable without building an LP.  At or
    below it, p* is the LP optimum, the same value ``classify`` reports;
    an optimum of at most ``ATOL`` also raises Untestable, and a solver
    failure propagates as its own error (Infeasible or Numerical).
    """
    _check_testable(instance, tau)
    value, x = solve_lp(build_lp(instance, tau))
    # solve_lp's solution is clipped nonnegative and holds every distribution
    # row to ATOL: a scheme by construction.
    return _design_result(instance, tau, _p_star(tau, value), x.reshape(instance.n_actions, instance.n_states).tolist())


def _check_testable(instance: Instance, tau: float) -> None:
    """Raise OutOfRangeThreshold for ``tau`` outside (0, 1), and Untestable
    above the instance's closed-form testable range (``testable_range``),
    which is itself testable."""
    _check_threshold(tau)
    if tau > instance._tau_max:
        raise Untestable(tau)


def _useful_mass(value: float) -> float | None:
    """p* of a design optimum ``value``: trimmed of rounding excess above 1,
    and None, untestable, at or below ``ATOL``.  ``design_scheme``,
    ``_knapsack`` and ``classify`` all read p* through here."""
    return min(value, 1.0) if value > ATOL else None


def _p_star(tau: float, value: float) -> float:
    """``_useful_mass(value)`` of a design for ``tau``; raises Untestable
    when that is None."""
    useful_mass = _useful_mass(value)
    if useful_mass is None:
        raise Untestable(tau)
    return useful_mass


def _design_result(instance: Instance, tau: float, p_star: float, rows: Sequence) -> DesignResult:
    """Wrap p* and its conditionals, one sequence of Python floats per
    action, which must form a scheme by construction."""
    # The instance's action labels are unique, so the scheme needs no checks.
    return DesignResult(
        scheme=SignalingScheme._trusted(instance.actions, rows),
        useful_mass=p_star,
        sample_complexity=1.0 / p_star,
        threshold=tau,
    )


def _knapsack_design(instance: Instance, tau: float) -> DesignResult:
    """``design_scheme`` for a two-action instance, solved in closed form
    by ``_knapsack``."""
    return _design_result(instance, tau, *_knapsack(instance)(tau))


def _knapsack(instance: Instance):
    """Return ``rows_at(tau)``: p* and the conditionals, one tuple of
    floats per action, of ``design_scheme``'s design for the two-action
    ``instance``, in closed form.  What no threshold changes, the (a over
    d) utility difference and its prior mean, is formed once here.

    With one non-default action a, ``build_lp``'s LP is a continuous
    knapsack with one equality (Dantzig 1957): maximize mu0 @ pi subject to
    row @ pi = 0 and 0 <= pi <= 1, where pi = pi(a|.) and row is the
    unit-norm, snapped (a over d) row.  Every state with row >= 0 is sent
    to a; the positive budget is then spent on the negative states in
    ascending order of cost per unit of prior mass, |row_t| / mu0_t, so at
    most one state ends fractional.  The (d over a) row holds by itself,
    since row sums to the scaled mu0 @ (u_a - u_d) < 0.  ``rows_at``
    raises what ``design_scheme`` raises: Untestable above
    ``testable_range``, checked first, or when p* <= ATOL, and Numerical
    when a residual check of ``solve_lp`` fails.

    Every step runs on Python floats, and the sums (the budget, the
    residual tests and p*) are correctly rounded by ``core._fsum``.
    """
    a = 1 - instance.default_index
    mu0 = instance._prior
    row_over = _row_over(instance, a, 1 - a)  # the (a over d) row

    def rows_at(tau: float) -> tuple:
        _check_testable(instance, tau)
        row = row_over(tau)
        pi = [1.0 if r >= 0.0 else 0.0 for r in row]
        budget = _fsum(row, pi)
        # The negative states, ordered (stably) by cost per unit of prior mass.
        for t in sorted((t for t, r in enumerate(row) if r < 0.0), key=lambda t: -row[t] / mu0[t]):
            cost = -row[t]
            if cost >= budget:
                pi[t] = budget / cost
                break
            pi[t] = 1.0
            budget -= cost

        # solve_lp's residual tests on the indifference row and the (d over a)
        # row, written so that NaN fails them.
        rest = [1.0 - p for p in pi]
        if not abs(_fsum(row, pi)) <= ATOL:
            raise Numerical("equality residual above tolerance")
        if not -_fsum(row, rest) >= -ATOL:
            raise Numerical("inequality residual above tolerance")
        # Both rows lie in [0, 1] and sum to one per state: a scheme by construction.
        return _p_star(tau, _fsum(mu0, pi)), ((tuple(pi), tuple(rest)) if a == 0 else (tuple(rest), tuple(pi)))

    return rows_at


# Signals lighter than this are skipped by the biased-belief indifference
# cross-check: the expected-utility gap is the constraint row divided by
# the signal mass, so near-zero masses amplify harmless solver noise past
# any fixed tolerance.  The row residuals still cover those signals.
_SIM_MASS_FLOOR = 1e-6


def verify_design(instance: Instance, tau: float, result: DesignResult) -> DesignReport:
    """Check a design against the LP rows and cross-validate by simulation.

    Evaluates the scheme on each pair's row, the rows ``build_lp`` lays
    out, summed exactly by ``core._fsum``: every (a over other) optimality
    residual, the (a over default) ones again as indifference residuals,
    and each state's distribution residual.  So the report is the same on
    every CPU, and no LP is built.  Then independently confirms
    indifference: mix each useful signal's posterior with the prior at
    weight ``tau`` and compare the expected utilities of the recommended
    and default actions, per unit of their largest utility gap.
    Raises VerificationFailed when the scheme's shape or signal labels are
    not the instance's actions in order, or when a residual exceeds
    ``VERIFY_TOL`` or is NaN; the message names each failing row, and the
    distribution rows by their worst one.  Raises OutOfRangeThreshold first
    unless ``tau`` lies in (0, 1).
    """
    _check_threshold(tau)
    scheme = result.scheme
    nA, nS = instance.n_actions, instance.n_states
    if scheme.n_signals != nA or scheme.n_states != nS:
        raise VerificationFailed("scheme shape does not match the instance")
    if scheme.signals != instance.actions:  # threshold tests read verdicts off the labels
        raise VerificationFailed(f"scheme signals {scheme.signals} are not the actions {instance.actions}")
    d = instance.default_index
    signals = scheme.signals

    # Every tolerance test below is written so that NaN fails it.
    violations, indifference = [], []
    opt = ind = 0.0
    for a, other, row in _pair_rows(instance, tau):
        r = _fsum(row, scheme._rows[a])
        opt = max(opt, -r)
        if not r >= -VERIFY_TOL:
            violations.append(f"optimality({signals[a]} over {signals[other]}): {r:.3g}")
        if other == d:
            ind = max(ind, abs(r))
            if not abs(r) <= VERIFY_TOL:
                indifference.append(f"indifference({signals[a]}): {abs(r):.3g}")
    violations += indifference
    columns = [abs(_fsum(column) - 1.0) for column in zip(*scheme._rows)]
    dist = max(columns) if all(c == c for c in columns) else math.nan  # max can pass over a NaN
    if not dist <= VERIFY_TOL:
        violations.append(f"distribution: {dist:.3g}")

    sim = 0.0
    probs = scheme.signal_probs(instance.prior)
    for a in range(nA):
        if a == d or not probs[a] > _SIM_MASS_FLOOR:
            continue
        posterior = bayes_posterior(instance, scheme, signals[a])
        nu = biased_belief(instance.prior, posterior, tau)
        eu = instance.expected_utilities(nu)
        # Per unit of the pair's utility gap, as the LP rows are scaled.
        gap = abs(float(eu[a] - eu[d])) / max(map(abs, instance._gap_rows[a - (a > d)]))
        sim = max(sim, gap)
        if not gap <= VERIFY_TOL:
            violations.append(f"simulated indifference({signals[a]}): {gap:.3g}")

    if violations:
        raise VerificationFailed("; ".join(violations))
    return DesignReport(optimality=opt, indifference=ind, distribution=dist, indifference_sim=sim)
