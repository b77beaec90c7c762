"""biaslab benchmark: one workload per run, closed loop, one process.

Usage, from the root of a checkout:

    python3 bench/run.py --workload design-grid --seed 1 --seconds 20 --trace 0

Workloads are described in ``workloads.py``.  A single caller issues each
op only after the previous one returns; BLAS is pinned to one thread.

``--trace 0`` runs ops for ``--seconds`` (and at least ``MIN_OPS`` ops)
with tracing off and reports the end-to-end metrics.  ``--trace 1`` runs a
fixed number of ops, first with every traced function wrapped (see
``tracing.py``) and then again without, and reports per-layer metrics; the
fixed op list makes every count repeat exactly for a given seed and
``--seconds``.

Each op is checked outside the timed region.  An op that raises, overruns
its workload's deadline or fails its check counts as failed and as
infinitely slow.  Standard output ends with two JSON lines: a full report
(every metric with its unit, failure kinds with counts and first messages,
notes from the checks, the environment), then the summary ``{"correct", "attempted", "failed",
"metrics"}``.  ``correct`` is false when any op, or the pooled check of a
run's answers, gave a wrong answer.
The run exits with status 2, printing no result, when the checkout has no
biaslab sources.
"""

import argparse
import json
import math
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from importlib import metadata
from pathlib import Path

MIN_OPS = 100
SETUP_REPEATS = 5
IMPORT_REPEATS = 11
TRACE_CHUNKS = 10
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

BENCH_DIR = Path(__file__).resolve().parent


class Deadline(Exception):
    """An op used more CPU time than its workload's deadline."""


def _on_deadline(signum, frame):
    raise Deadline()


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def environment(root: Path, seed: int, numpy_version: str) -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": _git_commit(root),
        "seed": seed,
    }


def import_seconds(src: Path) -> float:
    """Median time a fresh interpreter takes to import biaslab and its CLI."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import biaslab, biaslab.cli; print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True, text=True, check=True, timeout=120)
        times.append(float(proc.stdout))
    return statistics.median(times)


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def failure_kind(exc: BaseException, package_dir: Path) -> tuple:
    if isinstance(exc, Deadline):
        where = "?"
        for frame, _ in traceback.walk_tb(exc.__traceback__):
            path = Path(frame.f_code.co_filename)
            if package_dir in path.parents:
                where = f"{path.stem}.{frame.f_code.co_name}"
        return f"Deadline in {where}", f"op still running in {where} at the deadline"
    message = str(exc)
    head = re.sub(r"\d+(\.\d+)?(e[-+]?\d+)?", "#", message.split(":")[0])[:80]
    return f"{type(exc).__name__}: {head}", message


def run_ops(workload, specs, until=None, count=None, call=None):
    """Run ops until ``until`` (a perf_counter time) and at least MIN_OPS,
    or exactly ``count`` ops.  Returns (records, wall seconds)."""
    call = call or (lambda fn, spec: fn(spec))
    records = []
    start = time.perf_counter()
    while True:
        if count is not None:
            if len(records) >= count:
                break
        elif time.perf_counter() >= until and len(records) >= MIN_OPS:
            break
        spec = next(specs)
        error = result = None
        t = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_PROF, workload.deadline_s)
            try:
                result = call(workload.run, spec)
            finally:
                signal.setitimer(signal.ITIMER_PROF, 0)
        except Exception as exc:  # noqa: BLE001 - any failure of an op is counted
            error = exc
        records.append((spec, result, error, time.perf_counter() - t))
    return records, time.perf_counter() - start


def settle(workload, records, package_dir: Path) -> dict:
    """Check each op outside the timed region and tally the outcomes."""
    latencies, ok, wrong, episodes, failures, checked = [], 0, 0, 0, {}, []
    workload.notes.clear()

    def note(kind, message):
        failures.setdefault(kind, {"count": 0, "first": message})["count"] += 1

    for spec, result, error, dt in records:
        if error is not None:
            note(*failure_kind(error, package_dir))
            latencies.append(math.inf)
            continue
        episodes += workload.episodes(spec, result)
        verdict = workload.check(spec, result)
        if verdict is not None:
            wrong += 1
            note("wrong answer: " + verdict[0], verdict[1])
            latencies.append(math.inf)
            continue
        ok += 1
        latencies.append(dt)
        checked.append((spec, result))
    # A workload may also check the run's answers together; a wrong pooled
    # answer makes the run incorrect without failing any single op.
    pooled = getattr(workload, "check_pooled", lambda checked: None)(checked)
    if pooled is not None:
        wrong += 1
        note("wrong answer: " + pooled[0], pooled[1])
    return {
        "attempted": len(records),
        "ok": ok,
        "wrong": wrong,
        "latencies": sorted(latencies),
        "episodes": episodes,
        "failures": failures,
        "notes": dict(workload.notes),
    }


def _finite(x: float) -> float:
    # A percentile that lands on a failed op is infinite; JSON has no
    # infinity, so report the largest double.
    return x if math.isfinite(x) else sys.float_info.max


def fail_share(tally: dict) -> dict:
    return {"value": (tally["attempted"] - tally["ok"]) / tally["attempted"], "unit": "ratio"}


def end_to_end(tally: dict, wall: float, setup_s: float, peak_rss_mb: float) -> dict:
    lat = tally["latencies"]
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ok_ops_per_s": {"value": tally["ok"] / wall, "unit": "ops/s"},
        "op_p50_ms": {"value": _finite(percentile(lat, 0.5) * 1e3), "unit": "ms"},
        "op_p90_ms": {"value": _finite(percentile(lat, 0.9) * 1e3), "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def per_layer(summary: dict, traced_wall: float, traced_rate: float, plain_rate: float) -> dict:
    """Per traced function: calls, share of the traced pass's wall time
    spent in the function itself, and calls that raised; plus ratios."""
    from tracing import NAMES

    out = {}
    for name in NAMES:
        s = summary[name]
        out[f"{name}.calls"] = {"value": s["calls"], "unit": "count"}
        out[f"{name}.self_share"] = {"value": s["self_s"] / traced_wall, "unit": "ratio"}
        out[f"{name}.errors"] = {"value": s["errors"], "unit": "count"}

    def ratio(a, b):
        return a / b if b else 0.0

    solves = summary["design.solve_lp"]
    tests = summary["detector.threshold_test"]["calls"]
    out["design.solve_lp.ok_ratio"] = {"value": ratio(solves["calls"] - solves["errors"], solves["calls"]), "unit": "ratio"}
    out["detector.useful_episode_ratio"] = {"value": ratio(tests, summary["agent.sample_episode"]["calls"]), "unit": "ratio"}
    out["detector.designs_per_test"] = {"value": ratio(summary["design.design_scheme"]["calls"], tests), "unit": "ratio"}
    out["trace.overhead"] = {"value": 1.0 - ratio(traced_rate, plain_rate), "unit": "ratio"}
    return out


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(BENCH_DIR))
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "biaslab" / "__init__.py").is_file():
        print(f"bench: no biaslab sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np

    import biaslab
    import biaslab.cli  # noqa: F401 - run_cli is reached as biaslab.cli.run_cli

    package_dir = Path(biaslab.__file__).resolve().parent
    if package_dir.parent != src.resolve():
        print(f"bench: biaslab imported from {package_dir}, not {src}", file=sys.stderr)
        return 2

    from tracing import Tracer
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    work_root = BENCH_DIR / ".work"
    work_root.mkdir(exist_ok=True)
    workdirs = []

    def set_up():
        workdirs.append(Path(tempfile.mkdtemp(dir=work_root)))
        return cls(biaslab, args.seed, workdirs[-1])

    try:
        signal.signal(signal.SIGPROF, _on_deadline)
        report = {"workload": cls.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
        if args.trace == 0:
            # Set-up is the median import time of a fresh interpreter plus
            # the median time to build the inputs (generation, validation,
            # instance files), each taken over several repeats.
            import_s = import_seconds(src)
            builds = []
            for _ in range(SETUP_REPEATS):
                t = time.perf_counter()
                workload = set_up()
                builds.append(time.perf_counter() - t)
            setup_s = import_s + statistics.median(builds)
            records, wall = run_ops(workload, workload.specs(), until=time.perf_counter() + args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            tally = settle(workload, records, package_dir)
            metrics = end_to_end(tally, wall, setup_s, peak_rss_mb)
            report["metrics"] = dict(
                metrics,
                fail_share=fail_share(tally),
                episodes_per_s={"value": tally["episodes"] / wall, "unit": "episodes/s"},
            )
            finite = [x for x in tally["latencies"] if math.isfinite(x)]
            report["samples"] = {
                "ops": tally["attempted"],
                "beyond_p90": tally["attempted"] - math.ceil(0.9 * tally["attempted"]),
                "slowest_ok_ms": max(finite, default=0.0) * 1e3,
            }
            report["setup"] = {"import_s": import_s, "build_s": builds}
            report["timed_s"] = wall
            report["failures"] = tally["failures"]
            report["notes"] = tally["notes"]
            wrong = tally["wrong"]
        else:
            count = max(1, math.ceil(cls.trace_ops_per_s * args.seconds))
            # The traced pass covers one set-up and the ops; the untraced
            # pass repeats the same ops on the same inputs.  The two passes
            # take turns, TRACE_CHUNKS slices each, so that a drift in the
            # machine's speed during the run falls on both alike.
            tracer = Tracer()
            t = time.perf_counter()
            with tracer:
                workload = set_up()
            traced_wall = time.perf_counter() - t
            traced_specs, plain_specs = workload.specs(), workload.specs()
            traced, plain, traced_ops_wall, plain_wall = [], [], 0.0, 0.0
            for chunk in range(TRACE_CHUNKS):
                n = count * (chunk + 1) // TRACE_CHUNKS - count * chunk // TRACE_CHUNKS
                for traced_turn in (chunk % 2 == 0, chunk % 2 == 1):
                    if traced_turn:
                        with tracer:
                            records, wall = run_ops(workload, traced_specs, count=n, call=tracer.op_span)
                        traced += records
                        traced_ops_wall += wall
                    else:
                        records, wall = run_ops(workload, plain_specs, count=n)
                        plain += records
                        plain_wall += wall
            traced_wall += traced_ops_wall
            summary = tracer.summary()
            tally = settle(workload, traced, package_dir)
            tally_plain = settle(workload, plain, package_dir)
            metrics = per_layer(summary, traced_wall, tally["ok"] / traced_ops_wall, tally_plain["ok"] / plain_wall)
            metrics["fail_share"] = fail_share(tally)
            report["metrics"] = metrics
            report["absent"] = tracer.absent
            report["self_s"] = {name: summary[name]["self_s"] for name in summary}
            report["spans"] = len(tracer.starts)
            report["timed_s"] = {"traced": traced_wall, "untraced": plain_wall}
            report["failures"] = {"traced": tally["failures"], "untraced": tally_plain["failures"]}
            report["notes"] = {"traced": tally["notes"], "untraced": tally_plain["notes"]}
            wrong = tally["wrong"] + tally_plain["wrong"]
        report["env"] = environment(root, args.seed, np.__version__)
        print(json.dumps(report, sort_keys=True))
        print(json.dumps({
            "correct": wrong == 0,
            "attempted": tally["attempted"],
            "failed": tally["attempted"] - tally["ok"],
            "metrics": metrics,
        }))
        return 0
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        for d in workdirs:
            shutil.rmtree(d, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
