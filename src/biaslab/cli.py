"""Command-line front end.

Subcommands: design, classify, simulate, estimate, sweep.  All output goes
to stdout as JSON (or CSV for sweep); diagnostics are single lines on
stderr.  Exit codes: 0 success, 1 any other library error, 2 usage error,
3 untestable threshold, 4 invalid input.  Stochastic subcommands are
seeded (flag, BIASLAB_SEED, or 0) so identical invocations produce
byte-identical output.
"""

import argparse
import functools
import json
import os
import sys

import numpy as np

from .agent import BiasedAgent
from .bias_models import bias_function_from_config
from .core import Instance, TieBreak, load_instance
from .design import design_scheme
from .detector import _sample_complexity, estimate_bias
from .errors import (
    BiasLabError,
    DegenerateParameters,
    NonSimplexPrior,
    NothingTestable,
    NoUniqueDefault,
    OutOfRangeBias,
    OutOfRangeThreshold,
    ShapeMismatch,
    Untestable,
)
from .geometry import classify

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UNTESTABLE = 3
EXIT_BAD_INPUT = 4


class _UsageError(BiasLabError):
    """A command-line flag or the BIASLAB_SEED value is invalid."""


class _BadInput(BiasLabError):
    """The instance file cannot be read as UTF-8 JSON."""


# Error classes and their exit code; any other BiasLabError exits 1.
_EXIT_CODES = (
    ((Untestable, NothingTestable), EXIT_UNTESTABLE),
    ((_UsageError, OutOfRangeThreshold, OutOfRangeBias, DegenerateParameters), EXIT_USAGE),
    ((_BadInput, NonSimplexPrior, NoUniqueDefault, ShapeMismatch), EXIT_BAD_INPUT),
)


class _Parser(argparse.ArgumentParser):
    # raise instead of exiting so run_cli can return an exit code
    def error(self, message):
        raise _UsageError(message)


# Built on first use and reused: parse_args keeps no state between calls.
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="biaslab", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_agent_flags(p):
        p.add_argument("--w", type=float, required=True, help="hidden bias level of the simulated agent")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--bias-model", choices=["linear", "warped"], default="linear")
        p.add_argument("--gamma", type=float, default=1.0, help="exponent for the warped model")
        p.add_argument(
            "--tiebreak",
            choices=[t.value for t in TieBreak],
            default=TieBreak.PREFER_DEFAULT.value,
        )

    p = sub.add_parser("design", help="compute the optimal direct scheme for a threshold")
    p.add_argument("--instance", required=True)
    p.add_argument("--tau", type=float, required=True)

    p = sub.add_parser("classify", help="single-sample / finite / untestable verdict")
    p.add_argument("--instance", required=True)
    p.add_argument("--tau", type=float, required=True)

    p = sub.add_parser("simulate", help="measure empirical episodes per threshold test")
    p.add_argument("--instance", required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--trials", type=int, default=1000)
    add_agent_flags(p)

    p = sub.add_parser("estimate", help="binary-search the agent's bias level")
    p.add_argument("--instance", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    add_agent_flags(p)

    p = sub.add_parser("sweep", help="classify a grid of thresholds")
    p.add_argument("--instance", required=True)
    p.add_argument("--tau-grid", default=None, help="comma-separated thresholds (default 0.01..0.99)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    return parser


def _rng(seed) -> np.random.Generator:
    """Generator seeded from the --seed flag, else BIASLAB_SEED, else 0."""
    if seed is None:
        env = os.environ.get("BIASLAB_SEED") or "0"
        try:
            seed = int(env)
        except ValueError:
            raise _UsageError(f"BIASLAB_SEED must be an integer, got {env!r}")
    if seed < 0:
        raise _UsageError(f"seed must be nonnegative, got {seed}")
    return np.random.default_rng(seed)


def _load(path) -> Instance:
    # validate_instance raises only library errors, so a ValueError comes from
    # reading the file: bad UTF-8, bad JSON, or an integer literal longer than
    # the interpreter converts.  Nesting too deep for the parser recurses out.
    try:
        return load_instance(path)
    except (OSError, RecursionError, ValueError) as exc:
        raise _BadInput(f"cannot read instance file: {exc}")


def _agent(args) -> BiasedAgent:
    try:
        bias_fn = bias_function_from_config({"bias_model": args.bias_model, "gamma": args.gamma})
    except ValueError as exc:  # a warped model's gamma must be positive
        raise _UsageError(str(exc))
    return BiasedAgent(w=args.w, bias_fn=bias_fn, tiebreak=TieBreak(args.tiebreak))


def _dumps(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _tau_grid(raw) -> list:
    if raw is None:
        return [round(0.01 * k, 2) for k in range(1, 100)]
    try:
        grid = [float(v) for v in raw.split(",") if v.strip()]
    except ValueError:
        raise _UsageError(f"bad --tau-grid {raw!r}")
    if not grid:
        raise _UsageError("empty --tau-grid")
    return grid


def _sweep_rows(instance: Instance, grid) -> list:
    """One row per threshold; an untestable row has ``p_star`` None and
    ``sample_complexity`` the string "inf", as both output formats print."""
    rows = []
    for tau in grid:
        c = classify(instance, tau)
        p_star = c.useful_mass  # None when untestable, else above ATOL
        complexity = "inf" if p_star is None else 1.0 / p_star
        rows.append({"tau": tau, "p_star": p_star, "sample_complexity": complexity, "verdict": c.verdict.value})
    return rows


def _run(args) -> tuple[int, str]:
    instance = _load(args.instance)  # every subcommand reads one instance
    if args.subcommand == "design":
        result = design_scheme(instance, args.tau)
        return EXIT_OK, _dumps(result.to_json_dict())

    if args.subcommand == "classify":
        c = classify(instance, args.tau)
        code = EXIT_UNTESTABLE if c.useful_mass is None else EXIT_OK
        return code, _dumps(c.to_json_dict())

    if args.subcommand == "simulate":
        rng = _rng(args.seed)
        estimate, theoretical = _sample_complexity(instance, args.tau, _agent(args), rng, args.trials)
        return EXIT_OK, _dumps(
            {
                "tau": args.tau,
                "w": args.w,
                "trials": args.trials,
                "mean": estimate.mean,
                "stderr": estimate.stderr,
                "theoretical": theoretical,
            }
        )

    if args.subcommand == "estimate":
        rng = _rng(args.seed)
        interval = estimate_bias(instance, _agent(args), args.epsilon, rng)
        return EXIT_OK, _dumps(interval.to_json_dict())

    # sweep: the parser accepts no other subcommand
    rows = _sweep_rows(instance, _tau_grid(args.tau_grid))
    if args.format == "json":
        return EXIT_OK, _dumps(rows)
    lines = ["tau,p_star,sample_complexity,verdict"]
    for r in rows:
        p = "" if r["p_star"] is None else repr(r["p_star"])
        # str of a float is its repr, so finite complexities print as before
        lines.append(f"{r['tau']!r},{p},{r['sample_complexity']},{r['verdict']}")
    return EXIT_OK, "\n".join(lines) + "\n"


def run_cli(argv) -> tuple[int, str]:
    """Dispatch one invocation; returns (exit code, stdout text)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
        return _run(args)
    except BiasLabError as exc:
        print(f"biaslab: {exc}", file=sys.stderr)
        code = next((code for classes, code in _EXIT_CODES if isinstance(exc, classes)), 1)
        return code, ""


def main() -> None:
    code, out = run_cli(sys.argv[1:])
    if out:
        sys.stdout.write(out)
    raise SystemExit(code)
