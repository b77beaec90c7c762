"""Estimator, design and threshold-test outputs pinned bit for bit.

The estimator values were computed before the threshold-test fast path was
written, and the design, LP and threshold-test values before the two-action
query moved its small-vector steps to Python floats.  The design and LP
values were regenerated once, when every sum that reaches an output became
a correctly rounded ``math.fsum``.  The tie-break estimates were computed
before beliefs kept their entries as floats and two-action queries stopped
building a scheme.  All are compared through ``float.hex``,
so later speed work cannot change an answer silently.  Regenerating them
is a deliberate behaviour change.
"""

import json

import numpy as np
import pytest

from biaslab import (
    Belief,
    BiasedAgent,
    LinearBias,
    TieBreak,
    WarpedLinear,
    build_lp,
    estimate_bias,
    make_instance,
    threshold_test,
)
from biaslab.cli import run_cli
from biaslab.design import _knapsack_design
from biaslab.geometry import testable_range as tau_max
from conftest import random_instance

# instance, bias model, w, epsilon -> lo, hi (float.hex), queries, censored;
# case k runs on np.random.default_rng(k), k counting lines from 0.
ESTIMATES = """
canonical linear 0.0 0.001 0x0.0p+0 0x1.4000000000000p-11 10 0
canonical linear 0.0 1e-06 0x0.0p+0 0x1.4000000000000p-21 20 0
canonical linear 0.0 1e-09 0x1.4000000000000p-30 0x1.e000000000000p-30 30 0
canonical linear 0.3 0.001 0x1.32e0000000000p-2 0x1.3380000000000p-2 10 0
canonical linear 0.3 1e-06 0x1.3333200000000p-2 0x1.3333480000000p-2 20 0
canonical linear 0.3 1e-09 0x1.3333334200000p-2 0x1.3333334c00000p-2 30 0
canonical linear 0.77 0.001 0x1.3fb0000000000p-1 0x1.0000000000000p+0 10 1
canonical linear 0.77 1e-06 0x1.3fffec0000000p-1 0x1.0000000000000p+0 20 1
canonical linear 0.77 1e-09 0x1.3ffffffb00000p-1 0x1.0000000000000p+0 30 1
canonical linear 1.0 0.001 0x1.3fb0000000000p-1 0x1.0000000000000p+0 10 1
canonical linear 1.0 1e-06 0x1.3fffec0000000p-1 0x1.0000000000000p+0 20 1
canonical linear 1.0 1e-09 0x1.3ffffffb00000p-1 0x1.0000000000000p+0 30 1
canonical warped 0.0 0.001 0x0.0p+0 0x1.4000000000000p-11 10 0
canonical warped 0.0 1e-06 0x0.0p+0 0x1.4000000000000p-21 20 0
canonical warped 0.0 1e-09 0x1.4000000000000p-30 0x1.e000000000000p-30 30 0
canonical warped 0.3 0.001 0x1.6f80000000000p-4 0x1.7200000000000p-4 10 0
canonical warped 0.3 1e-06 0x1.70a3400000000p-4 0x1.70a3e00000000p-4 20 0
canonical warped 0.3 1e-09 0x1.70a3d76800000p-4 0x1.70a3d79000000p-4 30 0
canonical warped 0.77 0.001 0x1.2f70000000000p-1 0x1.2fc0000000000p-1 10 0
canonical warped 0.77 1e-06 0x1.2f90940000000p-1 0x1.2f90a80000000p-1 20 0
canonical warped 0.77 1e-09 0x1.2f9096c100000p-1 0x1.2f9096c600000p-1 30 0
canonical warped 1.0 0.001 0x1.3fb0000000000p-1 0x1.0000000000000p+0 10 1
canonical warped 1.0 1e-06 0x1.3fffec0000000p-1 0x1.0000000000000p+0 20 1
canonical warped 1.0 1e-09 0x1.3ffffffb00000p-1 0x1.0000000000000p+0 30 1
random0 linear 0.0 0.001 0x0.0p+0 0x1.cc103936f7bc4p-11 8 0
random0 linear 0.0 1e-06 0x0.0p+0 0x1.cc103936f7bc4p-21 18 0
random0 linear 0.0 1e-09 0x1.cc103936f7bc4p-31 0x1.cc103936f7bc4p-30 28 0
random0 linear 0.3 0.001 0x1.ca4428fdc0c48p-3 0x1.0000000000000p+0 8 1
random0 linear 0.3 1e-06 0x1.cc0fc632e96e8p-3 0x1.0000000000000p+0 18 1
random0 linear 0.3 1e-09 0x1.cc10391a36b8bp-3 0x1.0000000000000p+0 28 1
random0 linear 0.77 0.001 0x1.ca4428fdc0c48p-3 0x1.0000000000000p+0 8 1
random0 linear 0.77 1e-06 0x1.cc0fc632e96e8p-3 0x1.0000000000000p+0 18 1
random0 linear 0.77 1e-09 0x1.cc10391a36b8bp-3 0x1.0000000000000p+0 28 1
random0 linear 1.0 0.001 0x1.ca4428fdc0c48p-3 0x1.0000000000000p+0 8 1
random0 linear 1.0 1e-06 0x1.cc0fc632e96e8p-3 0x1.0000000000000p+0 18 1
random0 linear 1.0 1e-09 0x1.cc10391a36b8bp-3 0x1.0000000000000p+0 28 1
random0 warped 0.0 0.001 0x0.0p+0 0x1.cc103936f7bc4p-11 8 0
random0 warped 0.0 1e-06 0x0.0p+0 0x1.cc103936f7bc4p-21 18 0
random0 warped 0.0 1e-09 0x1.cc103936f7bc4p-31 0x1.cc103936f7bc4p-30 28 0
random0 warped 0.3 0.001 0x1.6e9ced97cd6a1p-4 0x1.72350e0a3b598p-4 8 0
random0 warped 0.3 1e-06 0x1.70a365e047dc4p-4 0x1.70a44be86477cp-4 18 0
random0 warped 0.3 1e-09 0x1.70a3d71845f0cp-4 0x1.70a3d751c7f7ep-4 28 0
random0 warped 0.77 0.001 0x1.ca4428fdc0c48p-3 0x1.0000000000000p+0 8 1
random0 warped 0.77 1e-06 0x1.cc0fc632e96e8p-3 0x1.0000000000000p+0 18 1
random0 warped 0.77 1e-09 0x1.cc10391a36b8bp-3 0x1.0000000000000p+0 28 1
random0 warped 1.0 0.001 0x1.ca4428fdc0c48p-3 0x1.0000000000000p+0 8 1
random0 warped 1.0 1e-06 0x1.cc0fc632e96e8p-3 0x1.0000000000000p+0 18 1
random0 warped 1.0 1e-09 0x1.cc10391a36b8bp-3 0x1.0000000000000p+0 28 1
random1 linear 0.0 0.001 0x0.0p+0 0x1.44eedfa9e65f7p-11 10 0
random1 linear 0.0 1e-06 0x0.0p+0 0x1.44eedfa9e65f7p-21 20 0
random1 linear 0.0 1e-09 0x1.44eedfa9e65f7p-31 0x1.44eedfa9e65f7p-30 30 0
random1 linear 0.3 0.001 0x1.3329cf6e9bc64p-2 0x1.33cc46de70b97p-2 10 0
random1 linear 0.3 1e-06 0x1.33332bd04d4b4p-2 0x1.3333546e29408p-2 20 0
random1 linear 0.3 1e-09 0x1.3333333b21364p-2 0x1.3333334548ad4p-2 30 0
random1 linear 0.77 0.001 0x1.449da3f1fbe5ep-1 0x1.0000000000000p+0 10 1
random1 linear 0.77 1e-06 0x1.44eecb5af864ep-1 0x1.0000000000000p+0 20 1
random1 linear 0.77 1e-09 0x1.44eedfa4d2a40p-1 0x1.0000000000000p+0 30 1
random1 linear 1.0 0.001 0x1.449da3f1fbe5ep-1 0x1.0000000000000p+0 10 1
random1 linear 1.0 1e-06 0x1.44eecb5af864ep-1 0x1.0000000000000p+0 20 1
random1 linear 1.0 1e-09 0x1.44eedfa4d2a40p-1 0x1.0000000000000p+0 30 1
random1 warped 0.0 0.001 0x0.0p+0 0x1.44eedfa9e65f7p-11 10 0
random1 warped 0.0 1e-06 0x0.0p+0 0x1.44eedfa9e65f7p-21 20 0
random1 warped 0.0 1e-09 0x1.44eedfa9e65f7p-31 0x1.44eedfa9e65f7p-30 30 0
random1 warped 0.3 0.001 0x1.7016995e76f82p-4 0x1.72a0771dcac4ep-4 10 0
random1 warped 0.3 1e-06 0x1.70a37cf171a30p-4 0x1.70a41f68e177fp-4 20 0
random1 warped 0.3 1e-09 0x1.70a3d7384f872p-4 0x1.70a3d760ed631p-4 30 0
random1 warped 0.77 0.001 0x1.2f5b02cf9e132p-1 0x1.2fac3e87888ccp-1 10 0
random1 warped 0.77 1e-06 0x1.2f908eed19e2cp-1 0x1.2f90a33c07dd6p-1 20 0
random1 warped 0.77 1e-09 0x1.2f9096bd7873ap-1 0x1.2f9096c28c2f2p-1 30 0
random1 warped 1.0 0.001 0x1.449da3f1fbe5ep-1 0x1.0000000000000p+0 10 1
random1 warped 1.0 1e-06 0x1.44eecb5af864ep-1 0x1.0000000000000p+0 20 1
random1 warped 1.0 1e-09 0x1.44eedfa4d2a40p-1 0x1.0000000000000p+0 30 1
random2 linear 0.0 0.001 0x0.0p+0 0x1.0329433247fb7p-10 8 0
random2 linear 0.0 1e-06 0x0.0p+0 0x1.0329433247fb7p-20 18 0
random2 linear 0.0 1e-09 0x0.0p+0 0x1.0329433247fb7p-30 28 0
random2 linear 0.3 0.001 0x1.022619ef15b38p-2 0x1.0000000000000p+0 8 1
random2 linear 0.3 1e-06 0x1.03290267f72eep-2 0x1.0000000000000p+0 18 1
random2 linear 0.3 1e-09 0x1.0329432215674p-2 0x1.0000000000000p+0 28 1
random2 linear 0.77 0.001 0x1.022619ef15b38p-2 0x1.0000000000000p+0 8 1
random2 linear 0.77 1e-06 0x1.03290267f72eep-2 0x1.0000000000000p+0 18 1
random2 linear 0.77 1e-09 0x1.0329432215674p-2 0x1.0000000000000p+0 28 1
random2 linear 1.0 0.001 0x1.022619ef15b38p-2 0x1.0000000000000p+0 8 1
random2 linear 1.0 1e-06 0x1.03290267f72eep-2 0x1.0000000000000p+0 18 1
random2 linear 1.0 1e-09 0x1.0329432215674p-2 0x1.0000000000000p+0 28 1
random2 warped 0.0 0.001 0x0.0p+0 0x1.0329433247fb7p-10 8 0
random2 warped 0.0 1e-06 0x0.0p+0 0x1.0329433247fb7p-20 18 0
random2 warped 0.0 1e-09 0x0.0p+0 0x1.0329433247fb7p-30 28 0
random2 warped 0.3 0.001 0x1.707eab8b7e597p-4 0x1.748b509847796p-4 8 0
random2 warped 0.3 1e-06 0x1.70a31d58f16b8p-4 0x1.70a42082349dcp-4 18 0
random2 warped 0.3 1e-09 0x1.70a3d71d05160p-4 0x1.70a3d75dcf66dp-4 28 0
random2 warped 0.77 0.001 0x1.022619ef15b38p-2 0x1.0000000000000p+0 8 1
random2 warped 0.77 1e-06 0x1.03290267f72eep-2 0x1.0000000000000p+0 18 1
random2 warped 0.77 1e-09 0x1.0329432215674p-2 0x1.0000000000000p+0 28 1
random2 warped 1.0 0.001 0x1.022619ef15b38p-2 0x1.0000000000000p+0 8 1
random2 warped 1.0 1e-06 0x1.03290267f72eep-2 0x1.0000000000000p+0 18 1
random2 warped 1.0 1e-09 0x1.0329432215674p-2 0x1.0000000000000p+0 28 1
"""

MODELS = {"linear": LinearBias(), "warped": WarpedLinear(gamma=2.0)}


def _instances() -> dict:
    """The canonical two-state instance and three seeded random 3x2 ones."""
    rng = np.random.default_rng(20261018)
    canonical = make_instance(["Good", "Bad"], ["Active", "Passive"], [0.2, 0.8], [[1.0, -1.0], [0.0, 0.0]])
    return {"canonical": canonical, **{f"random{i}": random_instance(rng, n_states=3, n_actions=2) for i in range(3)}}


def test_estimate_bias_pinned():
    instances = _instances()
    rows = ESTIMATES.split("\n")[1:-1]
    assert len(rows) == 96
    for k, row in enumerate(rows):
        name, model, w, eps, *expected = row.split()
        agent = BiasedAgent(w=float(w), bias_fn=MODELS[model])
        iv = estimate_bias(instances[name], agent, float(eps), np.random.default_rng(k))
        got = [iv.lo.hex(), iv.hi.hex(), str(iv.queries), str(int(iv.censored))]
        assert got == expected, row


# tau, w, trials, seed, extra flags -> mean, stderr, theoretical (float.hex).
SIMULATIONS = [
    ((0.5, 0.3, 1000, 0, ()), ("0x1.dd4fdf3b645a2p+1", "0x1.8308a72efd4a4p-4", "0x1.0000000000000p+2")),
    ((0.3, 0.7, 200, 7, ()), ("0x1.828f5c28f5c29p+1", "0x1.69306cb15dcc5p-3", "0x1.9249249249249p+1")),
    ((0.5, 0.3, 1, 3, ()), ("0x1.0000000000000p+0", None, "0x1.0000000000000p+2")),
    ((0.2, 0.5, 500, 11, ("--bias-model", "warped", "--gamma", "2.0")),
     ("0x1.61cac083126e9p+1", "0x1.8f8ea2f9ff48fp-4", "0x1.7000000000000p+1")),
]


@pytest.mark.parametrize("args,expected", SIMULATIONS)
def test_simulate_pinned(tmp_path, args, expected):
    tau, w, trials, seed, extra = args
    path = tmp_path / "canonical.json"
    raw = {"states": ["Good", "Bad"], "actions": ["Active", "Passive"], "prior": [0.2, 0.8], "utility": [[1.0, -1.0], [0.0, 0.0]]}
    path.write_text(json.dumps(raw), encoding="utf-8")
    argv = ["simulate", "--instance", str(path), "--tau", str(tau), "--w", str(w), "--trials", str(trials), "--seed", str(seed)]
    code, out = run_cli(argv + list(extra))
    result = json.loads(out)
    got = tuple(None if result[key] is None else result[key].hex() for key in ("mean", "stderr", "theoretical"))
    assert code == 0 and got == expected


def _blocks(text: str) -> list:
    """Split pinned text into (header tokens, value tokens) blocks: a block
    starts at an unindented line, and indented lines continue its values."""
    blocks = []
    for line in text.strip("\n").split("\n"):
        if line.startswith(" "):
            blocks[-1][1].extend(line.split())
        else:
            blocks.append((line.split(), []))
    return blocks


def _hex(values) -> list:
    return [float(x).hex() for x in np.ravel(values)]


# Per design: states, threshold, p*, default index, then every cond entry in
# row-major order (float.hex), from the cases of _knapsack_cases in order.
KNAPSACK = """
n=2 tau=0x1.98c0a052b2477p-5 p*=0x1.340d3d4c81a9ep-1 default=1
    0x1.2333efa8ce120p-2 0x1.0000000000000p+0 0x1.6e66082b98f70p-1 0x0.0p+0
n=2 tau=0x1.3290783e05b59p-3 p*=0x1.264b339093b78p-1 default=1
    0x1.e38a2111b9fb3p-3 0x1.0000000000000p+0 0x1.871d77bb91813p-1 0x0.0p+0
n=2 tau=0x1.fef0c8675ed94p-3 p*=0x1.168b9c299831cp-1 default=1
    0x1.725eae40453d9p-3 0x1.0000000000000p+0 0x1.a368546feeb0ap-1 0x0.0p+0
n=2 tau=0x1.cbd8b45d08905p-2 p*=0x1.de1d427238a78p-2 default=1
    0x1.5a69db23b78aap-5 0x1.0000000000000p+0 0x1.ea59624dc4875p-1 0x0.0p+0
n=2 tau=0x1.fef0a6eb35dcbp-2 p*=0x1.c602f4adfc4e5p-2 default=1
    0x1.da195a61e69c8p-22 0x1.0000000000000p+0 0x1.fffff12f352cfp-1 0x0.0p+0
n=3 tau=0x1.31ad18f71ccbdp-4 p*=0x1.959e2b2c8865cp-1 default=1
    0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.c79db0ca56770p-2 0x0.0p+0
    0x0.0p+0 0x1.1c31279ad4c48p-1
n=3 tau=0x1.ca83a572ab31bp-3 p*=0x1.86086cdae1b4fp-1 default=1
    0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.745915c04dfa8p-2 0x0.0p+0
    0x0.0p+0 0x1.45d3751fd902cp-1
n=3 tau=0x1.7e185f34e3fecp-2 p*=0x1.711909e511618p-1 default=1
    0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.047eae0b3496bp-2 0x0.0p+0
    0x0.0p+0 0x1.7dc0a8fa65b4ap-1
n=3 tau=0x1.57e2bc1600655p-1 p*=0x1.0e4dd35187bdep-2 default=1
    0x1.062ac35033631p-2 0x1.0000000000000p+0 0x0.0p+0 0x1.7cea9e57e64e8p-1
    0x0.0p+0 0x1.0000000000000p+0
n=3 tau=0x1.7e18462a65987p-1 p*=0x1.1db1c68dc377ap-3 default=1
    0x1.d604e754161cep-20 0x1.0000000000000p+0 0x0.0p+0 0x1.ffffc53f63158p-1
    0x0.0p+0 0x1.0000000000000p+0
n=8 tau=0x1.6492042d99e13p-4 p*=0x1.bf7bfa5d794f4p-1 default=0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x1.8c63cd5067d50p-3 0x0.0p+0 0x1.0000000000000p+0 0x0.0p+0
    0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0
    0x1.9ce70cabe60acp-1 0x1.0000000000000p+0 0x0.0p+0 0x1.0000000000000p+0
n=8 tau=0x1.0b6d83223368ep-2 p*=0x1.ab2a298bdd28dp-1 default=0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x1.810ab66e83f06p-2 0x0.0p+0 0x1.0000000000000p+0 0x0.0p+0
    0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0
    0x1.3f7aa4c8be07dp-1 0x1.0000000000000p+0 0x0.0p+0 0x1.0000000000000p+0
n=8 tau=0x1.bdb6853900597p-2 p*=0x1.8df3bdc8f4feap-1 default=0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x1.46d4eaf7139d4p-1 0x0.0p+0 0x1.0000000000000p+0 0x0.0p+0
    0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0
    0x1.72562a11d8c57p-2 0x1.0000000000000p+0 0x0.0p+0 0x1.0000000000000p+0
n=8 tau=0x1.912444b34d1d5p-1 p*=0x1.cc87a08cba0a2p-2 default=0
    0x1.76e3203826de8p-1 0x1.0000000000000p+0 0x0.0p+0 0x0.0p+0
    0x1.0000000000000p+0 0x0.0p+0 0x1.0000000000000p+0 0x0.0p+0
    0x1.1239bf8fb2431p-2 0x0.0p+0 0x1.0000000000000p+0 0x1.0000000000000p+0
    0x0.0p+0 0x1.0000000000000p+0 0x0.0p+0 0x1.0000000000000p+0
n=8 tau=0x1.bdb668032db7fp-1 p*=0x1.0e2bbe01f2a6fp-3 default=0
    0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x0.0p+0
    0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.fffb754202c26p-1
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.22af7f4f67e7dp-15
n=16 tau=0x1.889a08a1a4552p-4 p*=0x1.e6f47dab0e02ep-1 default=1
    0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x0.0p+0
    0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0
    0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.80f4f2487a0f4p-1
    0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.fc2c36de17c30p-3
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
n=16 tau=0x1.267386793b3fdp-2 p*=0x1.e01d482d0b843p-1 default=1
    0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x0.0p+0
    0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0
    0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.1276d5cf17793p-1
    0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.db125461d10dap-2
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
n=16 tau=0x1.eac08aca0d6a6p-2 p*=0x1.d4aed79efe6f9p-1 default=1
    0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x0.0p+0
    0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0
    0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.6748058da1042p-3
    0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.a62dfe9c97bf0p-1
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
n=16 tau=0x1.b9ad49b5d8dfcp-1 p*=0x1.6fadb53ad3659p-1 default=1
    0x1.0000000000000p+0 0x0.0p+0 0x1.0000000000000p+0 0x0.0p+0
    0x1.0000000000000p+0 0x0.0p+0 0x1.0000000000000p+0 0x1.0000000000000p+0
    0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x0.0p+0
    0x1.1dd469fa83e60p-1 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0
    0x0.0p+0 0x1.0000000000000p+0 0x0.0p+0 0x1.0000000000000p+0
    0x0.0p+0 0x1.0000000000000p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0
    0x1.c4572c0af8340p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0
n=16 tau=0x1.eac06aa0991e8p-1 p*=0x1.17807426e06c1p-4 default=1
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x1.ea06b734b6837p-12 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0 0x0.0p+0
    0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0
    0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0
    0x1.0000000000000p+0 0x1.ffc2bf2919693p-1 0x1.0000000000000p+0 0x1.0000000000000p+0
    0x1.0000000000000p+0 0x1.0000000000000p+0 0x0.0p+0 0x1.0000000000000p+0
n=24 tau=0x1.395905090bf67p-4 p*=0x1.739036ee23eadp-1 default=1
    0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0
    0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x0.0p+0
    0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x0.0p+0
    0x0.0p+0 0x1.6da00ebf970bep-1 0x0.0p+0 0x1.0000000000000p+0
    0x0.0p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0
    0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0
    0x1.0000000000000p+0 0x1.24bfe280d1e84p-2 0x1.0000000000000p+0 0x0.0p+0
    0x1.0000000000000p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
n=24 tau=0x1.d605878d91f19p-3 p*=0x1.5424875693bb6p-1 default=1
    0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0
    0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x0.0p+0
    0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.2898c3feca4d2p-1 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0
    0x0.0p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0
    0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0
    0x0.0p+0 0x0.0p+0 0x1.aece78026b65cp-2 0x1.0000000000000p+0
    0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x0.0p+0
    0x1.0000000000000p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
n=24 tau=0x1.87af464b4ef40p-2 p*=0x1.2dca06fd09b4ap-1 default=1
    0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.f5afbebdc6debp-1
    0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x0.0p+0
    0x1.0000000000000p+0 0x1.0000000000000p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0
    0x0.0p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0
    0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.4a082847242a0p-6
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0
    0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0 0x1.0000000000000p+0
    0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x0.0p+0
    0x1.0000000000000p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
n=24 tau=0x1.608425aa2d753p-1 p*=0x1.51f79cd2d3270p-3 default=1
    0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x1.0000000000000p+0 0x1.0000000000000p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x1.87cd4826e1794p-1 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0
    0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0
    0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0 0x1.0000000000000p+0
    0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0
    0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.e0cadf647a1b0p-3 0x1.0000000000000p+0
    0x1.0000000000000p+0 0x1.0000000000000p+0 0x0.0p+0 0x1.0000000000000p+0
n=24 tau=0x1.87af2c9fee1efp-1 p*=0x1.bff591b7fe86cp-7 default=1
    0x0.0p+0 0x1.3093248366ae4p-14 0x1.0000000000000p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x1.0000000000000p+0 0x1.fff67b66dbe4dp-1 0x0.0p+0 0x1.0000000000000p+0
    0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0
    0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0
    0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0
    0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0
    0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0
"""

KNAPSACK_FRACTIONS = (0.1, 0.3, 0.5, 0.9, 0.999999)


def _knapsack_cases(n_states: int) -> list:
    """One seeded random two-action instance per state count (the counts
    drawn in order), at five thresholds below its tau_max."""
    rng = np.random.default_rng(20261019)
    for n in (2, 3, 8, 16, 24):
        inst = random_instance(rng, n_states=n, n_actions=2)
        while tau_max(inst) <= 0.05:
            inst = random_instance(rng, n_states=n, n_actions=2)
        if n == n_states:
            return [(inst, tau_max(inst) * f) for f in KNAPSACK_FRACTIONS]
    raise AssertionError(n_states)


@pytest.mark.parametrize("n_states", [2, 3, 8, 16, 24])
def test_knapsack_design_pinned(n_states):
    pinned = [block for block in _blocks(KNAPSACK) if block[0][0] == f"n={n_states}"]
    cases = _knapsack_cases(n_states)
    assert len(pinned) == len(cases) == 5
    for (inst, tau), (header, cond) in zip(cases, pinned):
        res = _knapsack_design(inst, tau)
        got = [f"n={n_states}", f"tau={tau.hex()}", f"p*={res.useful_mass.hex()}", f"default={inst.default_index}"]
        assert got == header
        assert _hex(res.scheme.cond) == cond, header


# Per LP field: instance, field name, shape, then every entry in row-major
# order (float.hex); both LPs are built at tau 0.3.
LPS = """
3x3 objective 9
    0x1.492f3192ca0afp-2 0x1.181c6395a9cdcp-3 0x1.15614e5130872p-1 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x1.492f3192ca0afp-2 0x1.181c6395a9cdcp-3
    0x1.15614e5130872p-1
3x3 ge 6x9
    0x1.706643cf8d339p-3 0x1.41b29206ad46bp-3 -0x1.0000000000000p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x1.0000000000000p+0 0x1.058e97dc31e5fp-1 0x1.e75c11a50797bp-4
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 -0x1.706643cf8d339p-3 -0x1.41b29206ad46bp-3 0x1.0000000000000p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x1.2b679dd22fa55p-1 0x1.ea3337ed09714p-3
    0x1.0000000000000p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 -0x1.0000000000000p+0 -0x1.058e97dc31e5fp-1
    -0x1.e75c11a50797bp-4 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 -0x1.2b679dd22fa55p-1
    -0x1.ea3337ed09714p-3 -0x1.0000000000000p+0
3x3 ge_rhs 6
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0
3x3 eq 5x9
    0x1.706643cf8d339p-3 0x1.41b29206ad46bp-3 -0x1.0000000000000p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 -0x1.2b679dd22fa55p-1
    -0x1.ea3337ed09714p-3 -0x1.0000000000000p+0 0x1.0000000000000p+0 0x0.0p+0
    0x0.0p+0 0x1.0000000000000p+0 0x0.0p+0 0x0.0p+0
    0x1.0000000000000p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x1.0000000000000p+0 0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0
    0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0 0x0.0p+0
    0x0.0p+0 0x1.0000000000000p+0 0x0.0p+0 0x0.0p+0
    0x1.0000000000000p+0
3x3 eq_rhs 5
    0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0 0x1.0000000000000p+0
    0x1.0000000000000p+0
8x2 objective 16
    0x1.5de049f22fa9dp-4 0x1.6840b68b24c78p-5 0x1.4e5dc5ba47c93p-3 0x1.69a0d7ab07397p-5
    0x1.d17ea76bd59e7p-3 0x1.13050c05805c2p-2 0x1.7e33ed4c84cfbp-5 0x1.ee47edea3bae0p-4
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
8x2 ge 2x16
    -0x1.e282854925961p-3 -0x1.f9fbf6e85ef36p-4 -0x1.3dda968c61b3fp-3 -0x1.3b349b90d431fp-3
    0x1.c2c3c10782701p-3 -0x1.0000000000000p+0 0x1.ae6e18bc9482ap-5 -0x1.d6820f6cc8e49p-2
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x1.e282854925961p-3 0x1.f9fbf6e85ef36p-4 0x1.3dda968c61b3fp-3 0x1.3b349b90d431fp-3
    -0x1.c2c3c10782701p-3 0x1.0000000000000p+0 -0x1.ae6e18bc9482ap-5 0x1.d6820f6cc8e49p-2
8x2 ge_rhs 2
    0x0.0p+0 0x0.0p+0
8x2 eq 9x16
    -0x1.e282854925961p-3 -0x1.f9fbf6e85ef36p-4 -0x1.3dda968c61b3fp-3 -0x1.3b349b90d431fp-3
    0x1.c2c3c10782701p-3 -0x1.0000000000000p+0 0x1.ae6e18bc9482ap-5 -0x1.d6820f6cc8e49p-2
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x1.0000000000000p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x1.0000000000000p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x1.0000000000000p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x1.0000000000000p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x1.0000000000000p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x1.0000000000000p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x1.0000000000000p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x1.0000000000000p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0
8x2 eq_rhs 9
    0x0.0p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0
    0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0
    0x1.0000000000000p+0
"""


@pytest.mark.parametrize("name", ["3x3", "8x2"])
def test_build_lp_pinned(name):
    rng = np.random.default_rng(20261020)
    instances = {"3x3": random_instance(rng, n_states=3, n_actions=3)}
    instances["8x2"] = random_instance(rng, n_states=8, n_actions=2)
    lp = build_lp(instances[name], 0.3)
    pinned = [block for block in _blocks(LPS) if block[0][0] == name]
    assert [header[1] for header, _ in pinned] == ["objective", "ge", "ge_rhs", "eq", "eq_rhs"]
    for (_, field, shape), values in pinned:
        arr = getattr(lp, field)
        assert "x".join(map(str, arr.shape)) == shape and _hex(arr) == values, field


# instance, level as a multiple of tau, rng seed -> verdict, steps and the
# signals of the recorded episodes, at tau = tau_max / 2.
TESTS = """
symmetric3 0.5 0 leq 1 a1
symmetric3 0.5 1 leq 1 a2
symmetric3 0.5 2 leq 1 a1
symmetric3 0.5 3 leq 1 a1
symmetric3 0.5 4 leq 1 a2
symmetric3 0.5 5 leq 1 a2
symmetric3 0.5 6 leq 1 a1
symmetric3 0.5 7 leq 1 a2
symmetric3 0.5 8 leq 1 a2
symmetric3 0.5 9 leq 1 a1
symmetric3 1.5 0 geq 1 a1
symmetric3 1.5 1 geq 1 a2
symmetric3 1.5 2 geq 1 a1
symmetric3 1.5 3 geq 1 a1
symmetric3 1.5 4 geq 1 a2
symmetric3 1.5 5 geq 1 a2
symmetric3 1.5 6 geq 1 a1
symmetric3 1.5 7 geq 1 a2
symmetric3 1.5 8 geq 1 a2
symmetric3 1.5 9 geq 1 a1
random3x3 0.5 0 leq 7 a0,a0,a0,a0,a0,a0,a1
random3x3 0.5 1 leq 2 a0,a1
random3x3 0.5 2 leq 9 a0,a0,a0,a0,a0,a0,a0,a0,a1
random3x3 0.5 3 leq 11 a0,a0,a0,a0,a0,a0,a0,a0,a0,a0,a1
random3x3 0.5 4 leq 1 a1
random3x3 0.5 5 leq 5 a0,a0,a0,a0,a1
random3x3 0.5 6 leq 3 a0,a0,a1
random3x3 0.5 7 leq 4 a0,a0,a0,a1
random3x3 0.5 8 leq 3 a0,a0,a1
random3x3 0.5 9 leq 1 a1
random3x3 1.5 0 geq 7 a0,a0,a0,a0,a0,a0,a1
random3x3 1.5 1 geq 2 a0,a1
random3x3 1.5 2 geq 9 a0,a0,a0,a0,a0,a0,a0,a0,a1
random3x3 1.5 3 geq 11 a0,a0,a0,a0,a0,a0,a0,a0,a0,a0,a1
random3x3 1.5 4 geq 1 a1
random3x3 1.5 5 geq 5 a0,a0,a0,a0,a1
random3x3 1.5 6 geq 3 a0,a0,a1
random3x3 1.5 7 geq 4 a0,a0,a0,a1
random3x3 1.5 8 geq 3 a0,a0,a1
random3x3 1.5 9 geq 1 a1
"""


@pytest.mark.parametrize("name", ["symmetric3", "random3x3"])
def test_threshold_test_pinned(name, symmetric3_instance):
    if name == "symmetric3":
        inst = symmetric3_instance
    else:
        rng = np.random.default_rng(20261021)
        inst = random_instance(rng, n_states=3, n_actions=3)
        while tau_max(inst) <= 0.2:
            inst = random_instance(rng, n_states=3, n_actions=3)
    tau = 0.5 * tau_max(inst)
    rows = [row.split() for row in TESTS.strip("\n").split("\n") if row.startswith(name + " ")]
    assert len(rows) == 20
    for row in rows:
        _, level, seed, *expected = row
        agent = BiasedAgent(w=float(level) * tau)
        v = threshold_test(inst, tau, agent, np.random.default_rng(int(seed)), record_trace=True)
        assert [v.verdict, str(v.steps), ",".join(signal for _, signal, _ in v.trace)] == expected, row


class SqrtLevelMix:
    """A bias model written outside the package: it reads both beliefs'
    ``probs`` arrays and returns a checked ``Belief(...)``."""

    name = "sqrt-mix"

    def evaluate(self, prior, posterior, w):
        level = np.sqrt(w)
        return Belief(level * prior.probs + (1.0 - level) * posterior.probs)


TIE_MODELS = {**MODELS, "sqrt-mix": SqrtLevelMix()}


def _tie_instances() -> dict:
    """The canonical instance, the first random 3x2 one and the mirror-image
    three-action instance."""
    instances = _instances()
    symmetric3 = make_instance(["G", "B"], ["a0", "a1", "a2"], [0.5, 0.5], [[0.1, 0.1], [1.0, -1.0], [-1.0, 1.0]])
    return {"canonical": instances["canonical"], "random0": instances["random0"], "symmetric3": symmetric3}


# instance, bias model, tie-break, w as a multiple of tau_max -> lo, hi
# (float.hex), queries, censored, or the error raised; all at epsilon 1e-12,
# where the last queries fall inside the agent's tie band.  Case k runs on
# np.random.default_rng(1000 + k), k counting lines from 0.
TIE_ESTIMATES = """
canonical linear prefer-default 0 0x1.ca20000000000p-30 0x1.ca48000000000p-30 40 0
canonical linear prefer-default 0.5 0x1.40000013ad800p-2 0x1.40000013b0000p-2 40 0
canonical linear prefer-default 1 0x1.3ffffffffec00p-1 0x1.0000000000000p+0 40 1
canonical linear prefer-nondefault 0 0x0.0p+0 0x1.4000000000000p-41 40 0
canonical linear prefer-nondefault 0.5 0x1.3fffffec50000p-2 0x1.3fffffec52800p-2 40 0
canonical linear prefer-nondefault 1 0x1.3fffffefe4400p-1 0x1.3fffffefe5800p-1 40 0
canonical linear fixed-order 0 0x0.0p+0 0x1.4000000000000p-41 40 0
canonical linear fixed-order 0.5 0x1.3fffffec50000p-2 0x1.3fffffec52800p-2 40 0
canonical linear fixed-order 1 0x1.3fffffefe4400p-1 0x1.3fffffefe5800p-1 40 0
canonical warped prefer-default 0 0x1.ca20000000000p-30 0x1.ca48000000000p-30 40 0
canonical warped prefer-default 0.5 0x1.9000006752000p-4 0x1.900000675c000p-4 40 0
canonical warped prefer-default 1 0x1.9000001171000p-2 0x1.9000001173800p-2 40 0
canonical warped prefer-nondefault 0 0x0.0p+0 0x1.4000000000000p-41 40 0
canonical warped prefer-nondefault 0.5 0x1.8fffff98a4000p-4 0x1.8fffff98ae000p-4 40 0
canonical warped prefer-nondefault 1 0x1.8fffffee8c800p-2 0x1.8fffffee8f000p-2 40 0
canonical warped fixed-order 0 0x0.0p+0 0x1.4000000000000p-41 40 0
canonical warped fixed-order 0.5 0x1.8fffff98a4000p-4 0x1.8fffff98ae000p-4 40 0
canonical warped fixed-order 1 0x1.8fffffee8c800p-2 0x1.8fffffee8f000p-2 40 0
canonical sqrt-mix prefer-default 0 0x1.ca20000000000p-30 0x1.ca48000000000p-30 40 0
canonical sqrt-mix prefer-default 0.5 0x1.1e3779bfcf000p-1 0x1.1e3779bfd0400p-1 40 0
canonical sqrt-mix prefer-default 1 0x1.3ffffffffec00p-1 0x1.0000000000000p+0 40 1
canonical sqrt-mix prefer-nondefault 0 0x0.0p+0 0x1.4000000000000p-41 40 0
canonical sqrt-mix prefer-nondefault 0.5 0x1.1e3779b32e800p-1 0x1.1e3779b32fc00p-1 40 0
canonical sqrt-mix prefer-nondefault 1 0x1.3ffffffffec00p-1 0x1.0000000000000p+0 40 1
canonical sqrt-mix fixed-order 0 0x0.0p+0 0x1.4000000000000p-41 40 0
canonical sqrt-mix fixed-order 0.5 0x1.1e3779b32e800p-1 0x1.1e3779b32fc00p-1 40 0
canonical sqrt-mix fixed-order 1 0x1.3ffffffffec00p-1 0x1.0000000000000p+0 40 1
random0 linear prefer-default 0 0x1.27d9eecaf90f6p-30 0x1.281370d21fee5p-30 38 0
random0 linear prefer-default 0.5 0x1.cc1039789e6cep-4 0x1.cc103978accd6p-4 38 0
random0 linear prefer-default 1 0x1.cc103936f08c0p-3 0x1.0000000000000p+0 38 1
random0 linear prefer-nondefault 0 0x0.0p+0 0x1.cc103936f7bc4p-41 38 0
random0 linear prefer-nondefault 0.5 0x1.cc1038f542ab2p-4 0x1.cc1038f5510bap-4 38 0
random0 linear prefer-nondefault 1 0x1.cc1038c1dfbb4p-3 0x1.cc1038c1e6eb8p-3 38 0
random0 linear fixed-order 0 0x1.27d9eecaf90f6p-30 0x1.281370d21fee5p-30 38 0
random0 linear fixed-order 0.5 0x1.cc1039789e6cep-4 0x1.cc103978accd6p-4 38 0
random0 linear fixed-order 1 0x1.cc103936f08c0p-3 0x1.0000000000000p+0 38 1
random0 warped prefer-default 0 0x1.27d9eecaf90f6p-30 0x1.281370d21fee5p-30 38 0
random0 warped prefer-default 0.5 0x1.9d65299aea045p-7 0x1.9d65299b5d086p-7 38 0
random0 warped prefer-default 1 0x1.9d6527dee99c2p-5 0x1.9d6527df065d2p-5 38 0
random0 warped prefer-nondefault 0 0x0.0p+0 0x1.cc103936f7bc4p-41 38 0
random0 warped prefer-nondefault 0.5 0x1.9d6525096fc6ep-7 0x1.9d652509e2cafp-7 38 0
random0 warped prefer-nondefault 1 0x1.9d6526c5c6723p-5 0x1.9d6526c5e3334p-5 38 0
random0 warped fixed-order 0 0x1.27d9eecaf90f6p-30 0x1.281370d21fee5p-30 38 0
random0 warped fixed-order 0.5 0x1.9d65299aea045p-7 0x1.9d65299b5d086p-7 38 0
random0 warped fixed-order 1 0x1.9d6527dee99c2p-5 0x1.9d6527df065d2p-5 38 0
random0 sqrt-mix prefer-default 0 0x1.27d9eecaf90f6p-30 0x1.281370d21fee5p-30 38 0
random0 sqrt-mix prefer-default 0.5 0x1.cc103936f08c0p-3 0x1.0000000000000p+0 38 1
random0 sqrt-mix prefer-default 1 0x1.cc103936f08c0p-3 0x1.0000000000000p+0 38 1
random0 sqrt-mix prefer-nondefault 0 0x0.0p+0 0x1.cc103936f7bc4p-41 38 0
random0 sqrt-mix prefer-nondefault 0.5 0x1.cc103936f08c0p-3 0x1.0000000000000p+0 38 1
random0 sqrt-mix prefer-nondefault 1 0x1.cc103936f08c0p-3 0x1.0000000000000p+0 38 1
random0 sqrt-mix fixed-order 0 0x1.27d9eecaf90f6p-30 0x1.281370d21fee5p-30 38 0
random0 sqrt-mix fixed-order 0.5 0x1.cc103936f08c0p-3 0x1.0000000000000p+0 38 1
random0 sqrt-mix fixed-order 1 0x1.cc103936f08c0p-3 0x1.0000000000000p+0 38 1
symmetric3 linear prefer-default 0 0x1.5793333333332p-27 0x1.579a666666665p-27 40 0
symmetric3 linear prefer-default 0.5 0x1.cccccd2b49332p-2 0x1.cccccd2b4ccccp-2 40 0
symmetric3 linear prefer-default 1 0x1.cccccccccafffp-1 0x1.0000000000000p+0 40 1
symmetric3 linear prefer-nondefault 0 0x0.0p+0 0x1.cccccccccccccp-41 40 0
symmetric3 linear prefer-nondefault 0.5 0x1.cccccc6e4ccccp-2 0x1.cccccc6e50666p-2 40 0
symmetric3 linear prefer-nondefault 1 0x1.ccccccc435332p-1 0x1.ccccccc436fffp-1 40 0
symmetric3 linear fixed-order 0 0x1.5793333333332p-27 0x1.579a666666665p-27 40 0
symmetric3 linear fixed-order 0.5 0x1.cccccd2b49332p-2 0x1.cccccd2b4ccccp-2 40 0
symmetric3 linear fixed-order 1 0x1.cccccccccafffp-1 0x1.0000000000000p+0 40 1
symmetric3 warped prefer-default 0 0x1.5793333333332p-27 0x1.579a666666665p-27 40 0
symmetric3 warped prefer-default 0.5 0x1.9eb852fd86662p-3 0x1.9eb852fd8d995p-3 40 0
symmetric3 warped prefer-default 1 0x1.9eb851fbd632dp-1 0x1.9eb851fbd7ffap-1 40 0
symmetric3 warped prefer-nondefault 0 0x0.0p+0 0x1.cccccccccccccp-41 40 0
symmetric3 warped prefer-nondefault 0.5 0x1.9eb850d97b32ep-3 0x1.9eb850d982661p-3 40 0
symmetric3 warped prefer-nondefault 1 0x1.9eb851db32994p-1 0x1.9eb851db34660p-1 40 0
symmetric3 warped fixed-order 0 0x1.5793333333332p-27 0x1.579a666666665p-27 40 0
symmetric3 warped fixed-order 0.5 0x1.9eb852fd86662p-3 0x1.9eb852fd8d995p-3 40 0
symmetric3 warped fixed-order 1 0x1.9eb851fbd632dp-1 0x1.9eb851fbd7ffap-1 40 0
symmetric3 sqrt-mix prefer-default 0 0x1.5793333333332p-27 0x1.579a666666665p-27 40 0
symmetric3 sqrt-mix prefer-default 0.5 0x1.5775c56144999p-1 0x1.5775c56146666p-1 40 0
symmetric3 sqrt-mix prefer-default 1 0x1.cccccccccafffp-1 0x1.0000000000000p+0 40 1
symmetric3 sqrt-mix prefer-nondefault 0 0x0.0p+0 0x1.cccccccccccccp-41 40 0
symmetric3 sqrt-mix prefer-nondefault 0.5 0x1.5775c528b7332p-1 0x1.5775c528b8fffp-1 40 0
symmetric3 sqrt-mix prefer-nondefault 1 0x1.cccccccccafffp-1 0x1.0000000000000p+0 40 1
symmetric3 sqrt-mix fixed-order 0 0x1.5793333333332p-27 0x1.579a666666665p-27 40 0
symmetric3 sqrt-mix fixed-order 0.5 0x1.5775c56144999p-1 0x1.5775c56146666p-1 40 0
symmetric3 sqrt-mix fixed-order 1 0x1.cccccccccafffp-1 0x1.0000000000000p+0 40 1
"""


def _tie_estimate(name, model, tiebreak, f, k, instances) -> list:
    inst = instances[name]
    agent = BiasedAgent(w=float(f) * tau_max(inst), bias_fn=TIE_MODELS[model], tiebreak=TieBreak(tiebreak))
    try:
        iv = estimate_bias(inst, agent, 1e-12, np.random.default_rng(1000 + k))
    except Exception as exc:  # noqa: BLE001 - the error is part of the pinned output
        return [type(exc).__name__]
    return [iv.lo.hex(), iv.hi.hex(), str(iv.queries), str(int(iv.censored))]


def test_estimate_bias_tiebreaks_pinned():
    instances = _tie_instances()
    rows = TIE_ESTIMATES.split("\n")[1:-1]
    assert len(rows) == 81
    for k, row in enumerate(rows):
        name, model, tiebreak, f, *expected = row.split()
        assert _tie_estimate(name, model, tiebreak, f, k, instances) == expected, row
