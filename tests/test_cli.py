import json
import sys

import pytest

from biaslab.cli import main, run_cli


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


def test_simulate_designs_once(instance_file, monkeypatch):
    import biaslab.design

    calls = []
    build_lp = biaslab.design.build_lp

    def counting(*args):
        calls.append(args)
        return build_lp(*args)

    monkeypatch.setattr(biaslab.design, "build_lp", counting)
    code, _ = run_cli(["simulate", "--instance", instance_file] + SIMULATE[1:])
    assert code == 0 and len(calls) == 1


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
