"""Outputs do not depend on the BLAS kernel numpy dispatches to.

numpy's OpenBLAS picks its ``ddot``/``dgemv`` kernel per CPU at run time,
and each kernel sums in its own order.  Every sum that reaches an output is
a correctly rounded ``math.fsum``, so no kernel can move a bit.  The test
runs one fixed output set in fresh interpreters, with OpenBLAS forced to
several kernels through its ``OPENBLAS_CORETYPE`` switch, and requires one
sha256 over all of them.  Where numpy does not use a DYNAMIC_ARCH OpenBLAS
the switch does nothing and the runs agree trivially.

Run as a script, this file prints the digest of its output set.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

KERNELS = (None, "Haswell", "Zen", "Prescott")

# (states, actions) of the seeded instance files, each drawn from its own
# generator.
SHAPES = ((3, 2), (8, 2), (16, 2), (24, 2), (5, 3), (8, 3), (12, 4))

CANONICAL = {
    "states": ["Good", "Bad"],
    "actions": ["Active", "Passive"],
    "prior": [0.2, 0.8],
    "utility": [[1.0, -1.0], [0.0, 0.0]],
}

README_LINES = (
    ["design", "--tau", "0.5"],
    ["classify", "--tau", "0.8"],
    ["simulate", "--tau", "0.5", "--w", "0.3", "--trials", "10000", "--seed", "1"],
    ["estimate", "--w", "0.3", "--epsilon", "0.02", "--seed", "1"],
    ["sweep"],
    ["sweep", "--tau-grid", "0.1,0.5,0.7", "--format", "json"],
)

FILE_LINES = (
    ["sweep"],
    ["design", "--tau", "0.2"],
    ["estimate", "--w", "0.3", "--epsilon", "1e-6", "--seed", "1"],
    ["simulate", "--tau", "0.2", "--w", "0.3", "--trials", "200", "--seed", "1"],
)


def _seeded_raw(n_states: int, n_actions: int) -> dict:
    """A random instance of the shape on which ``design --tau 0.2`` designs."""
    from biaslab import make_instance, testable_range
    from biaslab.errors import NoUniqueDefault

    rng = np.random.default_rng([20261019, n_states, n_actions])
    while True:
        prior = 0.8 * rng.dirichlet(np.ones(n_states)) + 0.2 / n_states
        raw = {
            "states": [f"t{i}" for i in range(n_states)],
            "actions": [f"a{i}" for i in range(n_actions)],
            "prior": prior.tolist(),
            "utility": rng.normal(size=(n_actions, n_states)).tolist(),
        }
        try:
            inst = make_instance(**raw)
        except NoUniqueDefault:
            continue
        if testable_range(inst) > 0.25:
            return raw


def _outputs(workdir: Path):
    """Yield every output of the set as text, in a fixed order."""
    import biaslab as bl
    from biaslab.cli import run_cli
    from biaslab.design import _knapsack_design
    from conftest import random_instance

    files = [("canonical", CANONICAL, README_LINES)]
    files += [(f"{n}x{a}", _seeded_raw(n, a), FILE_LINES) for n, a in SHAPES]
    for name, raw, lines in files:
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        for argv in lines:
            code, out = run_cli([argv[0], "--instance", str(path), *argv[1:]])
            yield f"{name} {' '.join(argv)} -> {code}\n{out}"

    # The designs and LPs tests/test_pinned_outputs.py pins.
    rng = np.random.default_rng(20261019)
    for n in (2, 3, 8, 16, 24):
        inst = random_instance(rng, n_states=n, n_actions=2)
        while bl.testable_range(inst) <= 0.05:
            inst = random_instance(rng, n_states=n, n_actions=2)
        for f in (0.1, 0.3, 0.5, 0.9, 0.999999):
            res = _knapsack_design(inst, bl.testable_range(inst) * f)
            yield _hex([res.useful_mass, *np.ravel(res.scheme.cond)])
    rng = np.random.default_rng(20261020)
    for n_states, n_actions in ((3, 3), (8, 2)):
        lp = bl.build_lp(random_instance(rng, n_states=n_states, n_actions=n_actions), 0.3)
        yield _hex([*lp.objective, *np.ravel(lp.ge), *np.ravel(lp.eq)])

    # verify_design's reports: residual sums over each design's pair rows.
    rng = np.random.default_rng(5)
    for n_states in (2, 3, 4, 6, 8, 12, 16):
        for n_actions in (2, 3, 4):
            inst = random_instance(rng, n_states=n_states, n_actions=n_actions)
            yield _attempt(_report, inst, bl.testable_range(inst) / 2)

    # The general bias models' bisections, on the seeded files.
    for n, a in SHAPES:
        inst = bl.make_instance(**_seeded_raw(n, a))
        for phi in (bl.LinearBias(), bl.WarpedLinear(gamma=2.0)):
            for t in range(min(n, 4)):
                vertex = bl.Belief(np.eye(n)[t])
                yield repr(_attempt(bl.crossing_level, phi, inst, vertex))
            for tau in (0.05, 0.2):
                res = _attempt(bl.construct_finite_scheme, phi, inst, tau)
                if isinstance(res, bl.FiniteSchemeResult):
                    res = _hex([res.useful_mass, *np.ravel(res.scheme.cond)])
                yield repr(res)


def _attempt(fn, *args):
    """``fn(*args)``, or the name of the library error it raised."""
    from biaslab.errors import BiasLabError

    try:
        return fn(*args)
    except BiasLabError as exc:
        return type(exc).__name__


def _report(inst, tau) -> str:
    """The ``_hex`` of ``verify_design``'s report on the design at ``tau``."""
    import biaslab as bl

    r = bl.verify_design(inst, tau, bl.design_scheme(inst, tau))
    return _hex([r.optimality, r.indifference, r.distribution, r.indifference_sim])


def _hex(values) -> str:
    return " ".join(float(x).hex() for x in values)


def _digest() -> str:
    sha = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for text in _outputs(Path(tmp)):
            sha.update(text.encode("utf-8"))
    return sha.hexdigest()


def test_outputs_match_under_every_blas_kernel():
    src = Path(__file__).resolve().parent.parent / "src"
    runs = {}
    for kernel in KERNELS:
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        if kernel is not None:
            env["OPENBLAS_CORETYPE"] = kernel
        runs[kernel] = subprocess.Popen(
            [sys.executable, __file__], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
    digests = {}
    try:
        for kernel, proc in runs.items():
            out, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, f"OPENBLAS_CORETYPE={kernel}: {err}"
            digests[kernel] = out.strip()
    finally:
        for proc in runs.values():  # after a failure, stop the runs still going
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    assert len(set(digests.values())) == 1, digests


if __name__ == "__main__":
    print(_digest())
