import itertools
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import bisurv
from bisurv.baseline import PiecewiseLinearHazard
from bisurv.cli import main
from bisurv.marginals import WedgeKernel
from test_cli_golden import CONFIGS as GOLDEN_CONFIGS
from test_cli_golden import _write_config as write_golden_config

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


def test_eval_gradient_where_the_cumulative_hazard_overflows(capsys, tmp_path):
    # R0(1e308) passes the float range under weibull:2 (s = inf, and
    # inf - inf at the second point); the table marginal's hazard is 9 there
    (tmp_path / "haz.csv").write_text("x,hazard\n0,0\n1,1.5\n2,3\n5,9\n")
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({"baseline": "weibull:2", "theta": 1.0,
                               "marginals": ["hazard:haz.csv", "ph:0.75"]}))
    for point, gradient in ((("1e308", "0.5"), [9.0, 1.0]), (("1e308", "1e300"), [9.0, 2e300])):
        code, out, _ = run(capsys, "eval", "--config", str(cfg), "--format", "json", *point)
        assert code == 0
        doc = json.loads(out)
        assert (doc["survival"], doc["ac_density"], doc["hazard_gradient"]) == (0.0, 0.0, gradient)


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


def test_eval_on_a_purely_singular_model(capsys, tmp_path):
    # u1 + u2 = 6 = 2 theta: alpha = 0, all mass on the diagonal
    cfg = tmp_path / "singular.json"
    cfg.write_text('{"baseline": "exponential", "theta": 3, "marginals": ["ph:3", "ph:3"]}')
    code, out, err = run(capsys, "eval", "--config", str(cfg), "1", "2")
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == "ac_density = undefined (purely singular model)"
    code, out, err = run(capsys, "eval", "--config", str(cfg), "--format", "json", "1", "2")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["ac_density"] is None
    assert doc["survival"] == pytest.approx(math.exp(-6.0), rel=1e-15)


def test_rect(capsys, lfr_config):
    code, out, _ = run(capsys, "rect", "--config", lfr_config, "1", "2", "3", "5")
    assert code == 0
    assert "negative" in out


def test_rect_where_both_cumulative_hazards_overflow(capsys, tmp_path):
    # R0 = x**2 overflows at both upper corners: S(b1, b2) reads 0, not nan
    cfg = tmp_path / "w2.json"
    cfg.write_text('{"baseline": "weibull:2", "theta123": [0.5, 1.0, 1.5]}')
    code, out, _ = run(capsys, "rect", "--format", "json", "--config", str(cfg),
                       "0.5", "1e308", "0.5", "1e300")
    assert code == 0
    probability = json.loads(out)["probability"]
    assert probability == pytest.approx(math.exp(-3.0 * 0.25), rel=1e-15)


def test_eval_maps_the_baseline_hazard_once(capsys, mo_config, monkeypatch):
    # survival maps no hazard; density and gradient each map the hazard pair
    # of their point once, one float coordinate at a time
    calls = []
    hazard = bisurv.Exponential.hazard

    def counting(self, x):
        calls.append(np.shape(x))
        return hazard(self, x)

    monkeypatch.setattr(bisurv.Exponential, "hazard", counting)
    code, out, _ = run(capsys, "eval", "--config", mo_config, "1", "2")
    assert code == 0 and "hazard_gradient = (1, 2)" in out
    assert calls == [(), (), (), ()]


def test_eval_maps_a_table_baseline_in_floats(capsys, tmp_path, monkeypatch):
    # a table baseline answers each coordinate of the point in float
    # arithmetic: survival, density and gradient each map the point's two
    # R0, the last two also its two r0, and no segment lookup or np.interp
    # of the array path runs
    (tmp_path / "base.csv").write_text("x,hazard\n0,1\n1,1.6\n2.5,1.1\n6,1.4\n")
    cfg_path = tmp_path / "table.json"
    cfg_path.write_text('{"baseline": "custom:base.csv", "theta123": [1, 1, 1]}')
    # built before the guards go up: a table interpolates its hazard at x_L
    cfg = bisurv.config.load_model_config(str(cfg_path))
    monkeypatch.setattr(bisurv.cli, "load_model_config", lambda *args, **kwargs: cfg)
    calls = {"cumulative_hazard": [], "hazard": []}
    for name, seen in calls.items():
        def counting(self, x, _method=getattr(bisurv.CustomHazard, name), _seen=seen):
            _seen.append(type(x))
            return _method(self, x)
        monkeypatch.setattr(bisurv.CustomHazard, name, counting)

    def refuse(*args, **kwargs):
        raise AssertionError("the array path was entered")

    monkeypatch.setattr(PiecewiseLinearHazard, "_segment", refuse)
    monkeypatch.setattr(np, "interp", refuse)
    code, out, _ = run(capsys, "eval", "--config", str(cfg_path), "1", "2")
    assert code == 0 and "hazard_gradient" in out
    assert calls == {"cumulative_hazard": [float] * 6, "hazard": [float] * 4}


def test_eval_maps_an_lfr_point_in_floats(capsys, tmp_path, monkeypatch):
    # LFR over the exponential answers the point in float arithmetic: every
    # map of the baseline and the marginals sees only floats, and no kernel
    # takes its array path
    cfg_path = tmp_path / "lfr.json"
    cfg_path.write_text('{"baseline": "exponential", "theta": 2.0, '
                        '"marginals": ["lfr:0.2", "lfr:0.2"]}')
    # built and decomposed before the guards go up: the diagonal limit
    # samples Q' on an array
    cfg = bisurv.config.load_model_config(str(cfg_path))
    cfg.model.decompose()
    monkeypatch.setattr(bisurv.cli, "load_model_config", lambda *args, **kwargs: cfg)
    seen = []
    maps = ("cumulative_hazard", "inverse_cumulative_hazard", "hazard", "hazard_derivative")
    for cls in (bisurv.Exponential, bisurv.LinearFailureRate):
        for name in maps:
            if hasattr(cls, name):
                def counting(self, x, _method=getattr(cls, name)):
                    seen.append(type(x))
                    return _method(self, x)
                monkeypatch.setattr(cls, name, counting)

    terms = WedgeKernel._terms

    def floats_only(self, s, *args):
        assert type(s) is float, "the array path was entered"
        return terms(self, s, *args)

    monkeypatch.setattr(WedgeKernel, "_terms", floats_only)
    for x1, x2 in (("1", "2"), ("2", "1")):
        seen.clear()
        code, out, _ = run(capsys, "eval", "--config", str(cfg_path), x1, x2)
        assert code == 0 and "hazard_gradient" in out
        # survival's two R0, then its d and R; the density's two R0 and two
        # r0, then its d, R, r, r0, r' and r0'; the gradient's two R0 and two
        # r0, then its d, r and r0
        assert seen == [float] * 21


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


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_validate_json_is_strict_for_divergent_limits(capsys, tmp_path):
    # lfr:1 over weibull:2 has Q' -> inf at the diagonal: u1 and the weight
    # margin are infinite, and both outputs spell them as the table does
    cfg = tmp_path / "div.json"
    cfg.write_text('{"baseline": "weibull:2", "theta": 3, "marginals": ["lfr:1", "ph:1"]}')
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "validate", "--config", str(cfg), "--format", "json",
                       "--out", str(out_path))
    assert code == 3
    for text in (out, out_path.read_text()):
        report = json.loads(text, parse_constant=_refuse_constant)
        weights = report["conditions"][0]
        assert (weights["id"], weights["pass"], weights["margin"]) == ("marginal-i", False, "-inf")
        assert report["diagnostics"]["u1"] == "inf"
        assert weights["witness"] is None  # absent stays null
    _, table, _ = run(capsys, "validate", "--config", str(cfg))
    assert "-inf" in table.splitlines()[3]


def test_validate_table_columns_align(capsys, mo_config):
    code, out, _ = run(capsys, "validate", "--config", mo_config)
    assert code == 0
    lines = out.splitlines()
    header = lines[1]
    rows = [line for line in lines[3:] if not line.startswith(" ")]
    assert len(rows) == 5
    # every pass column starts under "pass" and every row is as wide as the
    # header up to the witness
    column = header.index("pass")
    for row in rows:
        assert row[column - 1] == " " and row[column] != " "
        assert row[header.index("witness") - 2:header.index("witness")] == "  "


def test_decompose(capsys, mo_config, lfr_config):
    code, out, _ = run(capsys, "decompose", "--format", "json",
                       "--config", mo_config)
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha"] == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert payload["singular_mass"] == pytest.approx(1.0 / 3.0, rel=1e-12)

    code, out, _ = run(capsys, "decompose", "--config", lfr_config)
    assert code == 3  # mixture weight 4/3 is out of range


def test_decompose_never_prints_a_negative_limit(capsys, tmp_path):
    # u1 = Q'(0+) is 0 exactly over weibull:0.5, where r0 is infinite at 0;
    # the extrapolated limit of this table read -8.9e-22
    (tmp_path / "haz.csv").write_text("x,hazard\n0,0.7\n1,0.8\n2,1.0\n40,1.0\n")
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({"baseline": "weibull:0.5", "theta": 3.0,
                               "marginals": ["hazard:haz.csv", "lfr:0.3"]}))
    code, out, _ = run(capsys, "decompose", "--config", str(cfg))
    assert code == 3  # alpha = 2: the mixture weight is out of range
    assert "\nu1 = 0\n" in out and "u2 = -" not in out
    code, out, _ = run(capsys, "decompose", "--format", "json", "--config", str(cfg))
    assert code == 3 and json.loads(out)["u1"] == 0.0


def test_check_fe(capsys, tmp_path):
    p = tmp_path / "w.json"
    p.write_text('{"baseline": "weibull:2", "theta123": [1, 1, 1]}')
    code, out, _ = run(capsys, "check-fe", "--config", str(p))
    assert code == 0
    residual = float(out.split("=")[1].split()[0])
    assert residual < 1e-9


def test_check_fe_refuses_an_empty_shift_set(capsys, tmp_path):
    p = tmp_path / "no_shifts.json"
    p.write_text('{"baseline": "exponential", "theta": 3.0, '
                 '"marginals": ["lfr:1.5", "lfr:1.5"], "grid": {"t_knots": 0}}')
    code, out, err = run(capsys, "check-fe", "--config", str(p))
    assert (code, out) == (2, "")
    assert err == "error: the shift checks need at least one shift point (t_knots >= 1)\n"
    # validate evaluates no shifts and still decides the model
    code, out, _ = run(capsys, "validate", "--config", str(p))
    assert code == 3 and out.startswith("verdict: Invalid")


@pytest.mark.parametrize("r0_max", [709, 1000, 1e300])
def test_check_fe_accepts_a_grid_whose_top_knots_overflow(capsys, tmp_path, r0_max):
    # over Pareto R0^{-1}(s) = e^s: the top knot's image is finite at 709 but
    # not once shifted by t_max = e^4, and inf itself from s = 710; check-fe
    # leaves out the knots it cannot shift, and validate those whose image is
    # inf, which at 1e300 leaves it one knot and no pair to decide
    p = tmp_path / "pareto.json"
    p.write_text(json.dumps({"baseline": "pareto", "theta123": [1, 1, 1],
                             "grid": {"r0_max": r0_max, "knots": 16}}))
    code, out, err = run(capsys, "check-fe", "--format", "json", "--config", str(p))
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["max_residual"] < 1e-12
    kept = sum(k + 4.0 < math.log(sys.float_info.max) for k in np.geomspace(0.05, r0_max, 16))
    assert report["n_points"] == 8 * kept * kept
    finite = sum(k < math.log(sys.float_info.max) for k in np.geomspace(0.05, r0_max, 16))
    assert run(capsys, "validate", "--config", str(p))[0] == (0 if finite > 1 else 4)


@pytest.mark.parametrize("spec", [
    {"baseline": "exponential", "theta": 3.0, "marginals": ["lfr:0.2", "ph:2"]},
    {"baseline": "exponential", "theta123": [1, 1, 1]}], ids=["lfr-ph", "ph"])
def test_check_fe_leaves_out_points_whose_log_survival_absorbs_the_shift(capsys, tmp_path,
                                                                           spec):
    # at r0_max 1e300 ln S(x) is -inf (LFR) or so large that theta R0(t) <= 12
    # vanishes against it at every knot pair but (0.05, 0.05): those points
    # cannot be checked, and must neither hide the others (as NaN) nor
    # report the shift itself as the residual
    p = tmp_path / "model.json"
    p.write_text(json.dumps({**spec, "grid": {"r0_max": 1e300, "knots": 8}}))
    code, out, err = run(capsys, "check-fe", "--format", "json", "--config", str(p))
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["max_residual"] < 1e-12 and report["n_points"] == 8


#: baselines and marginal pairs of the overflow-grid property: every
#: baseline kind the parser builds (a table whose last row is > 0), and PH,
#: LFR and table marginals; LFR starts at 0, so not over Pareto (x_L = 1)
_OVERFLOW_BASELINES = ("exponential", "weibull:0.5", "weibull:2", "pareto", "custom:base.csv")
_OVERFLOW_PAIRS = (("ph:1.5", "ph:2"), ("lfr:0.3", "ph:2"), ("hazard:table.csv", "ph:1.5"),
                   ("hazard:table.csv", "lfr:0.3"))


def test_grid_checks_leave_out_knots_past_the_float_range(capsys, tmp_path):
    # on grids whose top knots map past the float range (or, at 1.7e308,
    # whose Q and theta * R0 do), validate decides or skips every requested
    # pair and names no witness at inf, and check-fe answers; both quietly
    (tmp_path / "base.csv").write_text("x,hazard\n0,1\n1,1.6\n2.5,1.1\n6,1.4\n")
    (tmp_path / "table.csv").write_text("x,hazard\n0,0.5\n1,1\n2,1.5\n4,2\n8,2\n")
    cfg = tmp_path / "model.json"
    for base, pair, r0_max, knots in itertools.product(
            _OVERFLOW_BASELINES, _OVERFLOW_PAIRS, (709, 710, 1000, 1e300, 1.7e308), (8, 16)):
        if base == "pareto" and "lfr:0.3" in pair:
            continue
        case = (base, pair, r0_max, knots)
        cfg.write_text(json.dumps({"baseline": base, "theta": 3.0, "marginals": pair,
                                   "grid": {"r0_max": r0_max, "knots": knots}}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "validate", "--format", "json", "--config", str(cfg))
            fe = run(capsys, "check-fe", "--config", str(cfg))
        assert (code in (0, 3, 4), err, fe[0], fe[2], caught) == (True, "", 0, "", []), case
        wide = np.count_nonzero(bisurv.GridSpec.default(knots=knots, r0_max=r0_max)._pairs()[1])
        for cond in json.loads(out)["conditions"]:
            assert all(math.isfinite(float(v)) for v in cond["witness"] or ()), (case, cond)
            if cond["id"] in ("marginal-ii", "hazard-i"):  # "N grid points[, M skipped]"
                assert sum(map(int, re.findall(r"\d+", cond["note"]))) == 2 * wide, (case, cond)


#: the bench configs no golden config repeats (ph-table is table-baseline,
#: gen-table is table-marginal and lfr1.5 is lfr-invalid), and a PH model
#: whose general alpha, 2 - (u1 + u2)/theta, rounds apart from its own
_ALPHA_SPECS = {
    "ph-exp": {"baseline": "exponential", "theta123": [1, 1, 1]},
    "ph-weibull0.5": {"baseline": "weibull:0.5", "theta123": [1, 0.5, 2]},
    "ph-pareto": {"baseline": "pareto", "theta123": [2, 1, 1]},
    "gen-weibull2": {"baseline": "weibull:2", "theta": 3.0, "marginals": ["ph:1", "ph:2.5"]},
    "lfr0.2": {"baseline": "exponential", "theta": 2.0, "marginals": ["lfr:0.2", "lfr:0.2"]},
    "ph-weibull2-odd": {"baseline": "weibull:2", "theta123": [0.3, 0.7, 0.1]},
}


@pytest.mark.parametrize("name", [*GOLDEN_CONFIGS, *_ALPHA_SPECS])
def test_validate_reports_the_alpha_that_decompose_prints(capsys, tmp_path, name):
    if name in _ALPHA_SPECS:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(_ALPHA_SPECS[name]))
    else:
        path = write_golden_config(name, tmp_path)
    _, out, _ = run(capsys, "decompose", "--format", "json", "--config", str(path))
    alpha = json.loads(out)["alpha"]
    for knots in ("8", "16"):
        _, out, _ = run(capsys, "validate", "--format", "json", "--grid-knots", knots,
                        "--config", str(path))
        assert json.loads(out)["diagnostics"]["alpha"] == alpha


def test_csv_format(capsys, mo_config):
    # flat name,value rows; nested report parts are left to the JSON form
    expected = {
        ("eval", "1", "2"): ("x1,1\nx2,2\nsurvival,0.00673794699909\n"
                             "ac_density,0.0202138409973\nhazard_gradient,1;2\n"),
        ("decompose",): ("alpha,0.666666666667\nu1,2\nu2,2\n"
                         "singular_mass,0.333333333333\nweight_in_range,True\n"),
        ("validate",): "verdict,Valid\n",
    }
    for (command, *points), stdout in expected.items():
        code, out, err = run(capsys, command, "--format", "csv",
                             "--config", mo_config, *points)
        assert (code, out, err) == (0, stdout, ""), command


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


def test_sample_past_a_bounded_total_hazard_is_inconclusive(capsys, tmp_path):
    # the baseline table's last row is 0, so R0 stops at 1.5: draws past it
    # have no inverse, and the NumericError maps to exit 4
    (tmp_path / "bounded.csv").write_text("x,hazard\n0,1\n1,1\n2,0\n")
    cfg = tmp_path / "bounded.json"
    cfg.write_text('{"baseline": "custom:bounded.csv", "theta123": [1, 1, 1]}')
    code, out, err = run(capsys, "sample", "--config", str(cfg), "--n", "1000")
    assert (code, out) == (4, "")
    assert err.startswith("inconclusive: ")


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
    from bisurv import marginals
    calls = []
    original = marginals.limit_hazard_ratio

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(marginals, "limit_hazard_ratio", counting)
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
            # a zero bound is refused as a negative one is, at every knot count
            mo + ', "grid": {"r0_min": 0}',
            mo + ', "grid": {"r0_max": 0}',
            mo + ', "grid": {"t_min": 0}',
            mo + ', "grid": {"t_max": 0}',
            mo + ', "grid": {"t_min": 0, "t_knots": 1}',
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
    cfg = tmp_path / "zero_t.json"
    cfg.write_text("{" + mo + ', "grid": {"t_min": 0}}')
    code, out, err = run(capsys, "check-fe", "--config", str(cfg))
    assert (code, out) == (2, "") and "bad grid settings" in err and "zero" in err

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


def test_valid_table_model_is_reported_valid(capsys, tmp_path):
    # every condition holds with room (weight bounds by 0.055, density sign by
    # 0.089, smallest rectangle +3.5e-5), so validate agrees with decompose
    # and sample
    xs = np.linspace(0.0, 10.0, 50).tolist()
    rows = "".join(f"{x!r},{0.5 * x + 0.05 * x * x!r}\n" for x in xs)
    (tmp_path / "quadratic.csv").write_text("x,hazard\n" + rows)
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({"baseline": "weibull:2", "theta": 1.0,
                               "marginals": ["hazard:quadratic.csv", "ph:0.8"]}))
    code, out, _ = run(capsys, "validate", "--config", str(cfg), "--format", "json")
    assert (code, json.loads(out)["verdict"]) == (0, "Valid")
    assert run(capsys, "decompose", "--config", str(cfg))[0] == 0
    assert run(capsys, "sample", "--config", str(cfg), "--n", "50")[0] == 0


# -- validate, decompose and sample on one verdict ----------------------------------
# Each test states that the commands reach one verdict.  On the weight bound
# they do, by one rule (``Decomposition.weight_in_range``); the marked ones
# do not yet: ``validate`` decides on a grid and ``sample`` on the wedge tail
# table.  They pass once both read one certificate.

_WEDGE_DISAGREEMENTS = pytest.mark.xfail(
    strict=True, reason="validate and sample decide validity in different ways")


def _exit_codes(capsys, tmp_path, spec, commands, tables=None):
    for name, rows in (tables or {}).items():
        (tmp_path / name).write_text("x,hazard\n" + "".join(f"{x},{h}\n" for x, h in rows))
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps(spec))
    argv = {"validate": ["validate"], "decompose": ["decompose"],
            "sample": ["sample", "--n", "10", "--seed", "1"]}
    return {cmd: run(capsys, *argv[cmd], "--config", str(cfg))[0] for cmd in commands}


@_WEDGE_DISAGREEMENTS
def test_validate_and_sample_agree_past_the_grid(capsys, tmp_path):
    # Q' = 1 + 0.1 s passes theta = 2 at s = 10, past the grid's r0_max = 8
    codes = _exit_codes(capsys, tmp_path, {"baseline": "exponential", "theta": 2.0,
                                           "marginals": ["lfr:0.05", "lfr:0.05"]},
                        ("validate", "sample"))
    assert codes["validate"] == codes["sample"], codes


def test_validate_decompose_and_sample_agree_on_the_weight_bound(capsys, tmp_path):
    # u1 + u2 = 2.9999999 < theta = 3: alpha = 1 + 3.3e-8
    codes = _exit_codes(capsys, tmp_path, {"baseline": "exponential", "theta": 3.0,
                                           "marginals": ["ph:1.4999999", "ph:1.5"]},
                        ("validate", "decompose", "sample"))
    assert len(set(codes.values())) == 1, codes


@_WEDGE_DISAGREEMENTS
def test_validate_and_sample_refuse_a_spike_narrower_than_the_grid(capsys, tmp_path):
    # the hazard drops from 5 to 2 over s in (6.0005, 6.001), where h < 0
    spec = {"baseline": "exponential", "theta": 3.0, "marginals": ["hazard:spike.csv", "ph:2"]}
    tables = {"spike.csv": [(0, 2), (6, 2), (6.0005, 5), (6.001, 2), (40, 2)]}
    codes = _exit_codes(capsys, tmp_path, spec, ("validate", "sample"), tables)
    code, out, _ = run(capsys, "rect", "--config", str(tmp_path / "model.json"),
                       "6.0005", "6.001", "0", "0.0001")
    assert code == 0 and "probability is negative" in out
    assert codes == {"validate": 3, "sample": 3}, codes
