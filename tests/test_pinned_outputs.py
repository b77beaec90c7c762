"""Estimator outputs pinned bit for bit.

The values were computed before the threshold-test fast path was written
and are compared through ``float.hex``, so later speed work cannot change
an answer silently.  Regenerating them is a deliberate behaviour change.
"""

import json

import numpy as np
import pytest

from biaslab import BiasedAgent, LinearBias, WarpedLinear, estimate_bias, make_instance
from biaslab.cli import run_cli
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
