import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from biaslab.cli import _EXIT_CODES, _build_parser, _parse, _run, main, run_cli
from biaslab.errors import BiasLabError


@pytest.fixture
def instance_file(tmp_path, twostate_instance):
    path = tmp_path / "twostate.json"
    path.write_text(json.dumps(twostate_instance.to_json_dict()), encoding="utf-8")
    return str(path)


class TestDesignCommand:
    def test_canonical(self, instance_file):
        code, out = run_cli(["design", "--instance", instance_file, "--tau", "0.5"])
        assert code == 0
        data = json.loads(out)
        assert data["p_star"] == pytest.approx(0.25, abs=1e-9)
        assert data["sample_complexity"] == pytest.approx(4.0, abs=1e-8)
        assert data["scheme"]["signals"] == ["Active", "Passive"]

    def test_untestable_exit_code(self, instance_file, capsys):
        code, out = run_cli(["design", "--instance", instance_file, "--tau", "0.8"])
        assert code == 3 and out == ""
        assert "not testable" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        code, out = run_cli(["design", "--instance", str(tmp_path / "nope.json"), "--tau", "0.5"])
        assert code == 4 and out == ""

    def test_bad_instance_payload(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"states": ["a", "b"]}), encoding="utf-8")
        code, _ = run_cli(["design", "--instance", str(path), "--tau", "0.5"])
        assert code == 4

    def test_tau_out_of_range_is_usage_error(self, instance_file):
        code, _ = run_cli(["design", "--instance", instance_file, "--tau", "1.5"])
        assert code == 2


class TestClassifyCommand:
    def test_finite(self, instance_file):
        code, out = run_cli(["classify", "--instance", instance_file, "--tau", "0.5"])
        assert code == 0
        assert json.loads(out)["verdict"] == "finite"

    def test_untestable_still_emits_json(self, instance_file):
        code, out = run_cli(["classify", "--instance", instance_file, "--tau", "0.8"])
        assert code == 3
        data = json.loads(out)
        assert data["verdict"] == "untestable" and data["p_star"] is None


class TestUsageErrors:
    def test_no_subcommand(self):
        code, _ = run_cli([])
        assert code == 2

    def test_unknown_flag(self, instance_file):
        code, _ = run_cli(["design", "--instance", instance_file, "--tau", "0.5", "--bogus"])
        assert code == 2


class TestSimulateCommand:
    def test_basic_run(self, instance_file):
        args = [
            "simulate", "--instance", instance_file, "--tau", "0.5",
            "--w", "0.3", "--trials", "300", "--seed", "11",
        ]
        code, out = run_cli(args)
        assert code == 0
        data = json.loads(out)
        assert data["theoretical"] == pytest.approx(4.0, abs=1e-8)
        assert data["trials"] == 300 and data["mean"] > 1.0

    def test_byte_identical_given_seed(self, instance_file):
        args = [
            "simulate", "--instance", instance_file, "--tau", "0.5",
            "--w", "0.3", "--trials", "100", "--seed", "7",
        ]
        assert run_cli(args) == run_cli(args)

    def test_env_seed(self, instance_file, monkeypatch):
        args = ["simulate", "--instance", instance_file, "--tau", "0.5", "--w", "0.3", "--trials", "50"]
        monkeypatch.setenv("BIASLAB_SEED", "123")
        first = run_cli(args)
        assert first == run_cli(args)
        explicit = run_cli(args + ["--seed", "123"])
        assert explicit == first

    def test_warped_agent_flags(self, instance_file):
        args = [
            "simulate", "--instance", instance_file, "--tau", "0.5", "--w", "0.4",
            "--trials", "50", "--seed", "1", "--bias-model", "warped", "--gamma", "2.0",
            "--tiebreak", "prefer-nondefault",
        ]
        code, out = run_cli(args)
        assert code == 0 and json.loads(out)["mean"] >= 1.0


class TestEstimateCommand:
    def test_basic_run(self, instance_file):
        args = [
            "estimate", "--instance", instance_file, "--w", "0.3",
            "--epsilon", "0.05", "--seed", "5",
        ]
        code, out = run_cli(args)
        assert code == 0
        data = json.loads(out)
        assert data["lo"] <= 0.3 <= data["hi"]
        assert not data["censored"]

    def test_censored_run(self, instance_file):
        args = [
            "estimate", "--instance", instance_file, "--w", "0.95",
            "--epsilon", "0.05", "--seed", "5",
        ]
        code, out = run_cli(args)
        assert code == 0
        data = json.loads(out)
        assert data["censored"] and data["hi"] == 1.0

    # Three actions, level at or above tau_max = 0.686233923273375: the LP
    # finds no useful mass at 0.6862339229538224, just below it.
    THREE_ACTION = {
        "states": ["s0", "s1"],
        "actions": ["a0", "a1", "a2"],
        "prior": [0.9044526371512319, 0.09554736284876802],
        "utility": [
            [-127.77480294230065, -89.87522679822335],
            [48.57943541314611, -114.42840979778263],
            [-124.11597063832048, 168.13577913550216],
        ],
    }

    def _three_action(self, tmp_path, epsilon):
        path = tmp_path / "three.json"
        path.write_text(json.dumps(self.THREE_ACTION), encoding="utf-8")
        return run_cli(["estimate", "--instance", str(path), "--w", "1.0", "--epsilon", epsilon, "--seed", "1"])

    @pytest.mark.parametrize("epsilon", ["1e-12", "1e-15"])
    def test_untestable_query_below_tau_max_is_censored(self, tmp_path, epsilon):
        code, out = self._three_action(tmp_path, epsilon)
        assert code == 0
        data = json.loads(out)
        assert data["censored"] and data["hi"] == 1.0
        assert data["lo"] >= 0.6862339226342697

    def test_three_action_result_unchanged_above_tie_band(self, tmp_path):
        code, out = self._three_action(tmp_path, "1e-9")
        assert code == 0
        assert json.loads(out) == {"lo": 0.6862339226342697, "hi": 1.0, "queries": 30, "censored": True}


class TestSweepCommand:
    def test_default_grid_csv(self, instance_file):
        code, out = run_cli(["sweep", "--instance", instance_file])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "tau,p_star,sample_complexity,verdict"
        assert len(lines) == 100
        verdicts = [ln.split(",")[-1] for ln in lines[1:]]
        first_untestable = verdicts.index("untestable")
        assert all(v == "untestable" for v in verdicts[first_untestable:])
        untestable_row = lines[1 + first_untestable].split(",")
        assert untestable_row[1] == "" and untestable_row[2] == "inf"

    def test_explicit_grid(self, instance_file):
        code, out = run_cli(["sweep", "--instance", instance_file, "--tau-grid", "0.5,0.8"])
        lines = out.strip().splitlines()
        assert code == 0 and len(lines) == 3
        assert lines[1].startswith("0.5,0.25,4.0") and lines[2].endswith(",untestable")

    def test_json_format(self, instance_file):
        code, out = run_cli(
            ["sweep", "--instance", instance_file, "--tau-grid", "0.5,0.8", "--format", "json"]
        )
        rows = json.loads(out)
        assert code == 0
        assert rows[0]["verdict"] == "finite"
        assert rows[1]["sample_complexity"] == "inf"

    def test_bad_grid(self, instance_file):
        code, _ = run_cli(["sweep", "--instance", instance_file, "--tau-grid", "a,b"])
        assert code == 2

    def test_deterministic(self, instance_file):
        args = ["sweep", "--instance", instance_file, "--tau-grid", "0.2,0.4,0.6"]
        assert run_cli(args) == run_cli(args)



def _twostate(prior=(0.2, 0.8), utility=((1.0, -1.0), (0.0, 0.0))) -> dict:
    return {"states": ["Good", "Bad"], "actions": ["Active", "Passive"], "prior": list(prior), "utility": utility}


SIMULATE = ["simulate", "--tau", "0.5", "--w", "0.3", "--trials", "20"]
ESTIMATE = ["estimate", "--w", "0.3", "--epsilon", "0.05"]
WARPED = ["--bias-model", "warped", "--gamma"]
CLASSIFY = ["classify", "--tau", "0.5"]
DESIGN = ["design", "--tau", "0.5"]
# Utility differences that overflow: between the two actions, or between
# the two non-default actions of three.
OVERFLOW_2X2 = _twostate(utility=((1e308, -1e308), (-1e308, 1e308)))
OVERFLOW_2X3 = {
    "states": ["G", "B"],
    "actions": ["a0", "a1", "a2"],
    "prior": [0.5, 0.5],
    "utility": [[1.0, 1.0], [1e308, -1e308], [-1e308, 1e308]],
}


def _case(name, argv, code, instance=None, env=None):
    return pytest.param(argv, instance or _twostate(), env or {}, code, id=name)


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv, instance, env, code",
        [
            _case("w-out-of-range", ["simulate", "--tau", "0.5", "--w", "1.5"], 2),
            _case("epsilon-zero", ESTIMATE[:3] + ["--epsilon", "0"], 2),
            _case("trials-zero", SIMULATE[:5] + ["--trials", "0"], 2),
            _case("gamma-zero", SIMULATE + WARPED + ["0"], 2),
            _case("gamma-nan", SIMULATE + WARPED + ["nan"], 2),
            _case("gamma-negative", ESTIMATE + WARPED + ["-1"], 2),
            _case("seed-negative", SIMULATE + ["--seed", "-1"], 2),
            _case("env-seed-negative", ESTIMATE, 2, env={"BIASLAB_SEED": "-3"}),
            _case("nothing-testable", ESTIMATE, 3, _twostate(utility=((1.0, 1.0), (0.0, 0.0)))),
            _case("prior-sums-to-1.2", ["classify", "--tau", "0.5"], 4, _twostate(prior=(0.2, 1.0))),
            _case("tied-top", ["classify", "--tau", "0.5"], 4, _twostate((0.5, 0.5), ((1.0, 0.0), (0.0, 1.0)))),
            _case("not-utf8", ["design", "--tau", "0.5"], 4, b"\xff\xfe not utf-8"),
            _case("nested-100k-deep", ["design", "--tau", "0.5"], 4, b"[" * 100_000 + b"]" * 100_000),
            _case("int-over-4300-digits", ["design", "--tau", "0.5"], 4, b"9" * 5000),
            _case("int-too-large-for-float", ["design", "--tau", "0.5"], 4, _twostate(prior=(int("9" * 400), 0.8))),
            _case("env-seed-not-integer", SIMULATE, 2, env={"BIASLAB_SEED": "x1"}),
            _case("empty-tau-grid", ["sweep", "--tau-grid", ","], 2),
            _case("states-string", CLASSIFY, 4, {**_twostate(), "states": "GB"}),
            _case("actions-string", CLASSIFY, 4, {**_twostate(), "actions": "AP"}),
            _case("states-dict", CLASSIFY, 4, {**_twostate(), "states": {"Good": 0, "Bad": 1}}),
            _case("prior-strings", CLASSIFY, 4, _twostate(prior=("0.2", "0.8"))),
            _case("utility-booleans", CLASSIFY, 4, _twostate(utility=((True, False), (False, False)))),
            _case("one-state-label", CLASSIFY, 4, {**_twostate(), "states": ["Good", "Good"]}),
            _case("one-action-label", CLASSIFY, 4, {**_twostate(), "actions": ["Active", "Active"]}),
            _case("prior-length", CLASSIFY, 4, _twostate(prior=(0.2, 0.3, 0.5))),
            _case("utility-nan", CLASSIFY, 4, _twostate(utility=((float("nan"), -1.0), (0.0, 0.0)))),
            _case("prior-negative", CLASSIFY, 4, _twostate(prior=(-0.2, 1.2))),
            _case("one-state-with-mass", CLASSIFY, 4, _twostate(prior=(1.0, 0.0))),
            _case("overflow-2x2-design", DESIGN, 4, OVERFLOW_2X2),
            _case("overflow-2x2-classify", CLASSIFY, 4, OVERFLOW_2X2),
            _case("overflow-2x2-estimate", ESTIMATE, 4, OVERFLOW_2X2),
            _case("overflow-2x3-design", DESIGN, 4, OVERFLOW_2X3),
            _case("overflow-2x3-classify", CLASSIFY, 4, OVERFLOW_2X3),
            _case("overflow-2x3-estimate", ESTIMATE, 4, OVERFLOW_2X3),
        ],
    )
    def test_error_exit(self, argv, instance, env, code, tmp_path, monkeypatch, capsys):
        path = tmp_path / "instance.json"
        if isinstance(instance, bytes):
            path.write_bytes(instance)
        else:
            path.write_text(json.dumps(instance), encoding="utf-8")
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        got, out = run_cli(argv[:1] + ["--instance", str(path)] + argv[1:])
        captured = capsys.readouterr()
        assert (got, out, captured.out) == (code, "", "")
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("biaslab: ")

    def test_linear_model_ignores_gamma(self, instance_file):
        code, out = run_cli(["simulate", "--instance", instance_file] + SIMULATE[1:] + ["--gamma", "0"])
        assert code == 0 and json.loads(out)["trials"] == 20


def test_simulate_designs_once(tmp_path, monkeypatch):
    # A two-action instance is designed in closed form, a three-action one
    # by the LP; either way ``simulate`` designs its scheme exactly once.
    import biaslab.detector

    calls = []

    def counting_knapsack(instance, knapsack=biaslab.detector._knapsack):
        rows_at = knapsack(instance)

        def counting(tau):
            calls.append("_knapsack")
            return rows_at(tau)

        return counting

    def counting_design(*args, design=biaslab.detector.design_scheme):
        calls.append("design_scheme")
        return design(*args)

    monkeypatch.setattr(biaslab.detector, "_knapsack", counting_knapsack)
    monkeypatch.setattr(biaslab.detector, "design_scheme", counting_design)
    three_action = {
        "states": ["G", "B"],
        "actions": ["a0", "a1", "a2"],
        "prior": [0.5, 0.5],
        "utility": [[0.1, 0.1], [1.0, -1.0], [-1.0, 1.0]],
    }
    for instance, route in ((_twostate(), "_knapsack"), (three_action, "design_scheme")):
        calls.clear()
        path = tmp_path / f"{route}.json"
        path.write_text(json.dumps(instance), encoding="utf-8")
        code, _ = run_cli(["simulate", "--instance", str(path)] + SIMULATE[1:])
        assert code == 0 and calls == [route]


class TestMain:
    """``main`` is the ``biaslab`` console script: run_cli's result as an exit."""

    @pytest.mark.parametrize("tau, code", [("0.5", 0), ("0.8", 3)])
    def test_matches_run_cli(self, tau, code, instance_file, monkeypatch, capsys):
        argv = ["design", "--instance", instance_file, "--tau", tau]
        expected = run_cli(argv)
        expected_err = capsys.readouterr().err
        monkeypatch.setattr(sys, "argv", ["biaslab"] + argv)
        with pytest.raises(SystemExit) as exit_info:
            main()
        captured = capsys.readouterr()
        assert (exit_info.value.code, captured.out) == expected
        assert captured.err == expected_err
        assert exit_info.value.code == code


# "FILE" stands for the canonical instance file.
DISPATCH_CASES = {
    "design": ["design", "--instance", "FILE", "--tau", "0.5"],
    "classify": ["classify", "--instance", "FILE", "--tau", "0.8"],
    "simulate": ["simulate", "--instance", "FILE", "--tau", "0.5", "--w", "0.3", "--trials", "20", "--seed", "1"],
    "estimate": ["estimate", "--instance", "FILE", "--w", "0.3", "--epsilon", "0.02", "--seed", "1"],
    "estimate-warped": ESTIMATE[:1] + ["--instance", "FILE"] + ESTIMATE[1:] + WARPED + ["2.0", "--tiebreak", "prefer-nondefault"],
    "sweep": ["sweep", "--instance", "FILE", "--tau-grid", "0.2,0.7", "--format", "json"],
    "empty": [],
    "help": ["-h"],
    "subcommand-help": ["estimate", "-h"],
    "unknown-subcommand": ["nosuch"],
    "missing-required-flag": ["estimate", "--instance", "FILE", "--w", "0.3"],
    "bad-bias-model": ["estimate", "--instance", "FILE", "--w", "0.3", "--epsilon", "0.1", "--bias-model", "cubic"],
    "bad-float": ["design", "--instance", "FILE", "--tau", "half"],
    "unrecognised-flag": ["design", "--instance", "FILE", "--tau", "0.5", "--bogus"],
}


def _full_parse(argv) -> tuple:
    """(exit code, stdout text, stderr text) of ``_build_parser().parse_args``
    followed by ``_run``, as run_cli reported them before it dispatched on
    the subcommand; a SystemExit propagates."""
    try:
        code, out = _run(_build_parser().parse_args(argv))
    except BiasLabError as exc:
        code = next((code for classes, code in _EXIT_CODES if isinstance(exc, classes)), 1)
        return code, "", f"biaslab: {exc}\n"
    return code, out, ""


def _namespace(parse, argv):
    """The namespace ``parse(argv)`` returns, or the kind of error it raises."""
    try:
        return parse(argv)
    except (BiasLabError, SystemExit) as exc:
        return type(exc)


def _outcome(call, argv, capsys) -> tuple:
    """What ``call(argv)`` returns or exits with, and what it prints."""
    try:
        result = call(argv)
    except SystemExit as exc:
        result = ("exit", exc.code)
    captured = capsys.readouterr()
    return result, captured.out, captured.err


class TestDispatch:
    """run_cli parses a named subcommand with that subcommand's parser only;
    every invocation must come out as the full parser's would."""

    @pytest.mark.parametrize("argv", DISPATCH_CASES.values(), ids=DISPATCH_CASES.keys())
    def test_matches_full_parser(self, argv, instance_file, capsys):
        argv = [instance_file if a == "FILE" else a for a in argv]
        ours = _outcome(run_cli, argv, capsys)
        full = _outcome(_full_parse, argv, capsys)
        if full[0][0] == "exit":
            assert ours == full  # the same exit code and help or usage text
        else:
            code, out, err = full[0]
            assert ours == ((code, out), "", err)
            assert len(err.splitlines()) <= 1
        assert _namespace(_parse, argv) == _namespace(_build_parser().parse_args, argv)

    def test_every_subcommand_is_dispatched(self):
        assert set(_build_parser().subcommands) == {"design", "classify", "simulate", "estimate", "sweep"}
        named = {argv[0] for argv in DISPATCH_CASES.values() if argv and argv[0] in _build_parser().subcommands}
        assert named == set(_build_parser().subcommands)


def test_module_entry_point(instance_file):
    # ``python -m biaslab.cli`` is the console script: classify at an
    # untestable threshold exits 3 with run_cli's JSON on stdout.
    argv = ["classify", "--instance", instance_file, "--tau", "0.8"]
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "biaslab.cli", *argv], env=env, capture_output=True, text=True, timeout=120
    )
    assert (proc.returncode, proc.stdout) == run_cli(argv)
    assert proc.returncode == 3 and json.loads(proc.stdout)["verdict"] == "untestable"
