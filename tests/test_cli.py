import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bisurv
from bisurv.cli import main

MO_CONFIG = '{"baseline": "exponential", "theta123": [1, 1, 1]}\n'
LFR_CONFIG = ('{"baseline": "exponential", "theta": 3.0, '
              '"marginals": ["lfr:1.5", "lfr:1.5"]}\n')


@pytest.fixture
def mo_config(tmp_path):
    p = tmp_path / "mo.json"
    p.write_text(MO_CONFIG)
    return str(p)


@pytest.fixture
def lfr_config(tmp_path):
    p = tmp_path / "lfr.json"
    p.write_text(LFR_CONFIG)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_values(capsys, mo_config):
    code, out, _ = run(capsys, "eval", "--config", mo_config, "1", "2")
    assert code == 0
    assert f"survival = {math.exp(-5):.12g}" in out
    assert "hazard_gradient = (1, 2)" in out
    assert "ac_density" in out


def test_eval_pareto(capsys, tmp_path):
    p = tmp_path / "p.json"
    p.write_text('{"baseline": "pareto", "theta123": [1, 1, 1]}')
    code, out, _ = run(capsys, "eval", "--config", str(p), "4", "2")
    assert code == 0
    assert "survival = 0.03125" in out


def test_eval_diagonal_notes(capsys, mo_config):
    code, out, _ = run(capsys, "eval", "--config", mo_config, "1", "1")
    assert code == 0
    assert "diagonal" in out
    assert "hazard_gradient" not in out


def test_eval_json_format(capsys, mo_config):
    code, out, _ = run(capsys, "eval", "--format", "json",
                       "--config", mo_config, "1", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["survival"] == pytest.approx(math.exp(-5), rel=1e-12)
    assert payload["hazard_gradient"] == [1.0, 2.0]


def test_rect(capsys, lfr_config):
    code, out, _ = run(capsys, "rect", "--config", lfr_config, "1", "2", "3", "5")
    assert code == 0
    assert "negative" in out


def test_validate_exit_codes(capsys, mo_config, lfr_config, tmp_path):
    code, out, _ = run(capsys, "validate", "--config", mo_config)
    assert code == 0
    assert "no violation found on grid" in out

    code, out, _ = run(capsys, "validate", "--config", lfr_config)
    assert code == 3
    assert "Invalid" in out

    # truncated decaying hazard table: inconclusive divergence heuristic
    xs = np.linspace(0.0, 6.0, 25)
    table = tmp_path / "haz.csv"
    table.write_text("x,hazard\n" + "\n".join(
        f"{x},{1.5 * math.exp(-x)}" for x in xs))
    cfg = tmp_path / "trunc.json"
    cfg.write_text(json.dumps({
        "baseline": "exponential", "theta": 2.5,
        "marginals": ["hazard:haz.csv", "hazard:haz.csv"],
    }))
    code, out, _ = run(capsys, "validate", "--config", str(cfg))
    assert code == 4
    assert "Inconclusive" in out


def test_validate_writes_json_report(capsys, mo_config, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "validate", "--config", mo_config,
                     "--out", str(out_path))
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["verdict"] == "Valid"
    assert {c["id"] for c in report["conditions"]} >= {"marginal-i", "two-increasing"}


def test_decompose(capsys, mo_config, lfr_config):
    code, out, _ = run(capsys, "decompose", "--format", "json",
                       "--config", mo_config)
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha"] == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert payload["singular_mass"] == pytest.approx(1.0 / 3.0, rel=1e-12)

    code, out, _ = run(capsys, "decompose", "--config", lfr_config)
    assert code == 3  # mixture weight 4/3 is out of range


def test_check_fe(capsys, tmp_path):
    p = tmp_path / "w.json"
    p.write_text('{"baseline": "weibull:2", "theta123": [1, 1, 1]}')
    code, out, _ = run(capsys, "check-fe", "--config", str(p))
    assert code == 0
    residual = float(out.split("=")[1].split()[0])
    assert residual < 1e-9


def test_sample_csv(capsys, mo_config, tmp_path):
    out_path = tmp_path / "draws.csv"
    code, out, _ = run(capsys, "sample", "--config", mo_config,
                       "--n", "200", "--seed", "11", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "x1,x2,tied"
    assert len(lines) == 201
    x1, x2, t = lines[1].split(",")
    assert t in ("0", "1")

    # stdout mode
    code, out, _ = run(capsys, "sample", "--config", mo_config,
                       "--n", "3", "--seed", "11")
    assert code == 0
    assert out.splitlines()[0] == "x1,x2,tied"


def test_sample_determinism(capsys, mo_config):
    _, out1, _ = run(capsys, "sample", "--config", mo_config, "--n", "50",
                     "--seed", "5")
    _, out2, _ = run(capsys, "sample", "--config", mo_config, "--n", "50",
                     "--seed", "5")
    assert out1 == out2


def test_sample_zero_is_usage_error(capsys, mo_config):
    code, _, err = run(capsys, "sample", "--config", mo_config, "--n", "0")
    assert code == 2
    assert "positive" in err


def test_sample_invalid_model_exit(capsys, lfr_config, tmp_path):
    code, _, err = run(capsys, "sample", "--config", lfr_config, "--n", "10")
    assert code == 3
    assert "invalid model" in err

    # mixture weights in range, but Q' = 1 + 2as exceeds theta = 2 past
    # s = 2.5 and s = 10: the wedge density goes negative
    for a in ("0.2", "0.05"):
        cfg = tmp_path / f"lfr{a}.json"
        cfg.write_text('{"baseline": "exponential", "theta": 2.0, '
                       f'"marginals": ["lfr:{a}", "lfr:{a}"]}}')
        code, out, err = run(capsys, "sample", "--config", str(cfg), "--n", "10")
        assert (code, out) == (3, ""), a
        assert err.startswith("invalid model: "), a


def test_counterexample(capsys):
    code, out, _ = run(capsys, "counterexample")
    assert code == 0
    assert "invalidity reproduced: yes" in out
    code2, out2, _ = run(capsys, "counterexample")
    assert out2 == out  # byte-identical across runs


def test_counterexample_json_values(capsys):
    code, out, _ = run(capsys, "counterexample", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    oracle = math.exp(-11.0) - math.exp(-8.5) - math.exp(-31.0) + math.exp(-22.5)
    assert payload["rectangle_probability"] == pytest.approx(oracle, abs=1e-7)
    assert payload["cross_bound_lhs_at_5_3"] == pytest.approx(6.5, abs=1e-6)
    assert payload["u1_plus_u2"] == pytest.approx(2.0, abs=1e-6)
    assert payload["functional_equation_max_residual"] < 1e-9
    assert payload["reproduced"] is True


def test_counterexample_takes_the_diagonal_limit_once(capsys, monkeypatch):
    from bisurv import cli
    calls = []
    original = cli.limit_hazard_ratio

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "limit_hazard_ratio", counting)
    code, out, _ = run(capsys, "counterexample")
    assert code == 0
    assert len(calls) == 1  # both marginals are the same law
    assert "u1 + u2 = 2 vs theta = 3" in out


def test_malformed_configs(capsys, tmp_path):
    both = tmp_path / "both.json"
    both.write_text('{"baseline": "exponential", "theta123": [1,1,1], '
                    '"theta": 2, "marginals": ["ph:1", "ph:1"]}')
    assert run(capsys, "validate", "--config", str(both))[0] == 2

    neither = tmp_path / "neither.json"
    neither.write_text('{"baseline": "exponential"}')
    assert run(capsys, "validate", "--config", str(neither))[0] == 2

    missing = tmp_path / "nope.json"
    assert run(capsys, "eval", "--config", str(missing), "1", "2")[0] == 2

    badjson = tmp_path / "bad.json"
    badjson.write_text("{not json")
    assert run(capsys, "eval", "--config", str(badjson), "1", "2")[0] == 2

    badspec = tmp_path / "spec.json"
    badspec.write_text('{"baseline": "gamma:2", "theta123": [1,1,1]}')
    assert run(capsys, "eval", "--config", str(badspec), "1", "2")[0] == 2

    badtheta = tmp_path / "t.json"
    badtheta.write_text('{"baseline": "exponential", "theta123": [1, 1, -1]}')
    assert run(capsys, "eval", "--config", str(badtheta), "1", "2")[0] == 2

    # values of the wrong type or form are configuration errors (exit 2),
    # not tracebacks (exit 1 is the counterexample-failure code)
    mo = '"baseline": "exponential", "theta123": [1, 1, 1]'
    lfr = '"baseline": "exponential", "marginals": ["lfr:1", "lfr:1"]'
    for i, body in enumerate([
            mo + ', "grid": "x"',
            mo + ', "grid": 5',
            mo + ', "grid": {"knots": "abc"}',
            mo + ', "grid": {"knots": null}',
            mo + ', "grid": {"r0_max": [1]}',
            mo + ', "tol": "abc"',
            lfr + ', "theta": "abc"',
            '"baseline": "exponential", "theta123": ["a", 1, 1]',
            mo + ', "grid": {"wedge_margin": NaN}',
            mo + ', "grid": {"r0_min": NaN}',
            mo + ', "grid": {"t_max": Infinity}',
            # a fractional knot count is an error, not truncated
            mo + ', "grid": {"knots": 8.9}',
            mo + ', "grid": {"t_knots": 2.5}',
            mo + ', "grid": {"t_knots": -1}',
            # knot counts past the cap are refused before any grid is built
            mo + ', "grid": {"knots": 100000}',
            mo + ', "grid": {"t_knots": 100000}']):
        cfg = tmp_path / f"malformed{i}.json"
        cfg.write_text("{" + body + "}")
        code, out, err = run(capsys, "validate", "--config", str(cfg))
        assert (code, out) == (2, ""), body
        assert err.startswith("error: "), body
    # check-fe builds the shift knots too
    cfg = tmp_path / "negative_t.json"
    cfg.write_text("{" + mo + ', "grid": {"t_knots": -1}}')
    code, out, err = run(capsys, "check-fe", "--config", str(cfg))
    assert (code, out) == (2, "") and "shift knot count" in err

    cfg = tmp_path / "mo.json"
    cfg.write_text("{" + mo + "}")
    code, out, err = run(capsys, "validate", "--config", str(cfg), "--grid-knots", "100000")
    assert (code, out) == (2, "")
    assert "at most 1024" in err

    # so is a pair count past the sampler's cap, before anything is drawn
    code, out, err = run(capsys, "sample", "--config", str(cfg), "--n", "1000000000000")
    assert (code, out) == (2, "")
    assert f"at most {2**22}" in err


def test_custom_baseline_config(capsys, tmp_path):
    table = tmp_path / "base.csv"
    table.write_text("x,hazard\n0,1\n50,1\n")
    cfg = tmp_path / "custom.json"
    cfg.write_text('{"baseline": "custom:base.csv", "theta123": [1, 1, 1]}')
    code, out, _ = run(capsys, "eval", "--config", str(cfg), "1", "2")
    assert code == 0
    value = float(out.splitlines()[0].split("=")[1])
    assert value == pytest.approx(math.exp(-5), abs=1e-6)


def test_out_io_error(capsys, mo_config):
    code, _, err = run(capsys, "validate", "--config", mo_config,
                       "--out", "/nonexistent-dir/report.json")
    assert code == 5


def test_theta_override(capsys, lfr_config):
    code, out, _ = run(capsys, "decompose", "--format", "json",
                       "--config", lfr_config, "--theta", "2.0")
    assert code == 0
    payload = json.loads(out)
    # u1 + u2 = 2 with theta = 2 gives alpha = 1: boundary-valid weight
    assert payload["alpha"] == pytest.approx(1.0, abs=1e-6)


def test_grid_knots_override(capsys, mo_config, tmp_path):
    out_path = tmp_path / "rep.json"
    code, _, _ = run(capsys, "validate", "--config", mo_config,
                     "--grid-knots", "10", "--out", str(out_path))
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["diagnostics"]["grid"]["counts"][0] == 10


def test_usage_errors(capsys):
    assert main(["frobnicate"]) == 2
    assert main([]) == 2
    assert main(["eval", "1", "2"]) == 2  # missing --config


def test_validate_output_is_byte_stable(capsys, mo_config):
    _, out1, _ = run(capsys, "validate", "--config", mo_config)
    _, out2, _ = run(capsys, "validate", "--config", mo_config)
    assert out1 == out2


def test_cli_import_leaves_scipy_unloaded():
    # only callable hazards and reconstruct_survival_from_gradient need scipy,
    # and no config can build a callable
    src = str(Path(bisurv.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = "import sys, bisurv, bisurv.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_cli_import_leaves_csv_tables_unbuilt():
    # the CSV writer's tables (617 scaling constants, digit words, layouts)
    # are built by the first batch written, not at import
    src = str(Path(bisurv.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = "import bisurv, bisurv.cli; print(bisurv.sampling._TABLES is None)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=60)
    assert out.stdout.strip() == "True"
