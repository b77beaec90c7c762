"""Command-line front end.

Subcommands: design, classify, simulate, estimate, sweep.  All output goes
to stdout as JSON (or CSV for sweep); diagnostics are single lines on
stderr.  Exit codes: 0 success, 2 usage error, 3 untestable threshold,
4 invalid input.  Stochastic subcommands are seeded (flag, BIASLAB_SEED,
or 0) so identical invocations produce byte-identical output.
"""

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .agent import BiasedAgent
from .bias_models import bias_function_from_config
from .core import Instance, TieBreak, load_instance
from .design import design_scheme
from .detector import empirical_sample_complexity, estimate_bias
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

_USAGE_ERRORS = (OutOfRangeThreshold, OutOfRangeBias, DegenerateParameters)
_INPUT_ERRORS = (NonSimplexPrior, NoUniqueDefault, ShapeMismatch)


class _CliError(Exception):
    def __init__(self, code, message):
        self.code = code
        super().__init__(message)


class _Parser(argparse.ArgumentParser):
    # raise instead of exiting so run_cli can return an exit code
    def error(self, message):
        raise _CliError(EXIT_USAGE, message)


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


def _resolve_seed(seed):
    if seed is not None:
        return seed
    env = os.environ.get("BIASLAB_SEED")
    if not env:
        return 0
    try:
        return int(env)
    except ValueError:
        raise _CliError(EXIT_USAGE, f"BIASLAB_SEED must be an integer, got {env!r}")


def _load(path) -> Instance:
    try:
        return load_instance(path)
    except _INPUT_ERRORS as exc:
        raise _CliError(EXIT_BAD_INPUT, str(exc))
    except (OSError, json.JSONDecodeError) as exc:
        raise _CliError(EXIT_BAD_INPUT, f"cannot read instance file: {exc}")


def _agent(args) -> BiasedAgent:
    bias_fn = bias_function_from_config({"bias_model": args.bias_model, "gamma": args.gamma})
    return BiasedAgent(w=args.w, bias_fn=bias_fn, tiebreak=TieBreak(args.tiebreak))


def _dumps(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _tau_grid(raw) -> list:
    if raw is None:
        return [round(0.01 * k, 2) for k in range(1, 100)]
    try:
        grid = [float(v) for v in raw.split(",") if v.strip()]
    except ValueError:
        raise _CliError(EXIT_USAGE, f"bad --tau-grid {raw!r}")
    if not grid:
        raise _CliError(EXIT_USAGE, "empty --tau-grid")
    return grid


def _sweep_rows(instance: Instance, grid) -> list:
    rows = []
    for tau in grid:
        c = classify(instance, tau)
        if c.useful_mass is None:
            p_star, complexity = None, math.inf
        else:
            p_star = c.useful_mass
            complexity = 1.0 / p_star if p_star > 0 else math.inf
        rows.append({"tau": tau, "p_star": p_star, "sample_complexity": complexity, "verdict": c.verdict.value})
    return rows


def _run(args) -> tuple[int, str]:
    if args.subcommand == "design":
        instance = _load(args.instance)
        result = design_scheme(instance, args.tau)
        return EXIT_OK, _dumps(result.to_json_dict())

    if args.subcommand == "classify":
        instance = _load(args.instance)
        c = classify(instance, args.tau)
        code = EXIT_UNTESTABLE if c.useful_mass is None else EXIT_OK
        return code, _dumps(c.to_json_dict())

    if args.subcommand == "simulate":
        instance = _load(args.instance)
        rng = np.random.default_rng(_resolve_seed(args.seed))
        estimate = empirical_sample_complexity(instance, args.tau, _agent(args), rng, args.trials)
        design = design_scheme(instance, args.tau)
        return EXIT_OK, _dumps(
            {
                "tau": args.tau,
                "w": args.w,
                "trials": args.trials,
                "mean": estimate.mean,
                "stderr": estimate.stderr,
                "theoretical": design.sample_complexity,
            }
        )

    if args.subcommand == "estimate":
        instance = _load(args.instance)
        rng = np.random.default_rng(_resolve_seed(args.seed))
        interval = estimate_bias(instance, _agent(args), args.epsilon, rng)
        return EXIT_OK, _dumps(interval.to_json_dict())

    if args.subcommand == "sweep":
        instance = _load(args.instance)
        rows = _sweep_rows(instance, _tau_grid(args.tau_grid))
        if args.format == "json":
            out = []
            for r in rows:
                r = dict(r)
                r["sample_complexity"] = "inf" if math.isinf(r["sample_complexity"]) else r["sample_complexity"]
                out.append(r)
            return EXIT_OK, _dumps(out)
        lines = ["tau,p_star,sample_complexity,verdict"]
        for r in rows:
            p = "" if r["p_star"] is None else repr(r["p_star"])
            sc = "inf" if math.isinf(r["sample_complexity"]) else repr(r["sample_complexity"])
            lines.append(f"{r['tau']!r},{p},{sc},{r['verdict']}")
        return EXIT_OK, "\n".join(lines) + "\n"

    raise _CliError(EXIT_USAGE, f"unknown subcommand {args.subcommand!r}")


def run_cli(argv) -> tuple[int, str]:
    """Dispatch one invocation; returns (exit code, stdout text)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
        return _run(args)
    except _CliError as exc:
        print(f"biaslab: {exc}", file=sys.stderr)
        return exc.code, ""
    except (Untestable, NothingTestable) as exc:
        print(f"biaslab: {exc}", file=sys.stderr)
        return EXIT_UNTESTABLE, ""
    except _USAGE_ERRORS as exc:
        print(f"biaslab: {exc}", file=sys.stderr)
        return EXIT_USAGE, ""
    except _INPUT_ERRORS as exc:
        print(f"biaslab: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT, ""
    except BiasLabError as exc:
        print(f"biaslab: {exc}", file=sys.stderr)
        return 1, ""


def main() -> None:
    code, out = run_cli(sys.argv[1:])
    if out:
        sys.stdout.write(out)
    raise SystemExit(code)
