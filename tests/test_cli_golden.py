"""Golden CLI output: exact stdout and exit code of every subcommand.

Seven configs cover the model shapes the CLI handles: a proportional-hazards
model over a closed-form baseline, a general model with PH marginals, an
invalid linear-failure-rate model, a table-defined baseline, a
table-defined marginal, two table-defined marginals over a table-defined
baseline, and a Pareto grid whose top knots map past the float range
(``R0^{-1}(s) = e^s - 1`` is inf from ``s = 710``).  On each, ``validate`` (JSON at 8 and 16 knots, and
as a table), ``eval --format json`` at two points, ``decompose``,
``check-fe``, ``rect`` and ``sample --n 50`` are run through
``bisurv.cli.main``; ``counterexample`` runs once.  Stdout and exit code must
match ``tests/golden/<config>.json`` byte for byte, which makes the CLI's
"byte-stable stdout" contract a checked one.

The files were recorded with Python 3.11.7 and numpy 2.4.6; another numpy
may move last digits.  To re-record after a deliberate output change::

    PYTHONPATH=src python tests/test_cli_golden.py --record
"""

import contextlib
import hashlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import pytest

from bisurv.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

TABLE_X = [10.0 * i / 199 for i in range(200)]
#: baseline hazard 1 + 0.5x + 0.3 sin 5x, positive everywhere
BASELINE_TABLE = [1.0 + 0.5 * x + 0.3 * math.sin(5.0 * x) for x in TABLE_X]
#: marginal hazard 1 + 0.5 e^{-x}, decreasing from 1.5 to 1
MARGINAL_TABLE = [1.0 + 0.5 * math.exp(-x) for x in TABLE_X]
#: linear hazards whose ratios are not constant: no kernel of the model is PH
KERNEL_TABLES = {
    "kernel_baseline.csv": [1.0 + 0.1 * x for x in TABLE_X],
    "kernel_marginal_1.csv": [1.2 + 0.16 * x for x in TABLE_X],
    "kernel_marginal_2.csv": [0.9 + 0.06 * x for x in TABLE_X],
}

#: name -> (config, hazard tables it reads, two eval points, one rectangle)
CONFIGS = {
    "ph-weibull2": (
        {"baseline": "weibull:2", "theta123": [0.5, 1.0, 1.5]}, {},
        [("1.2", "0.7"), ("0.4", "1.1")], ("0.2", "0.9", "0.3", "1.4")),
    "gen-pareto": (
        {"baseline": "pareto", "theta": 3.0, "marginals": ["ph:1", "ph:2.5"]}, {},
        [("2.5", "1.5"), ("1.2", "3")], ("1.1", "2", "1.5", "4")),
    "lfr-invalid": (
        {"baseline": "exponential", "theta": 3.0, "marginals": ["lfr:1.5", "lfr:1.5"]}, {},
        [("1.2", "0.8"), ("5", "3")], ("1", "2", "3", "5")),
    "table-baseline": (
        {"baseline": "custom:baseline_table.csv", "theta123": [1, 1, 1]},
        {"baseline_table.csv": BASELINE_TABLE},
        [("1.7", "1.2"), ("0.5", "2")], ("0.3", "1.1", "0.2", "2.5")),
    "table-marginal": (
        {"baseline": "exponential", "theta": 3.0,
         "marginals": ["hazard:marginal_table.csv", "ph:2"]},
        {"marginal_table.csv": MARGINAL_TABLE},
        [("1.7", "1.2"), ("0.6", "2.4")], ("0.3", "1.1", "0.2", "2.5")),
    "table-kernels": (
        {"baseline": "custom:kernel_baseline.csv", "theta": 2.0,
         "marginals": ["hazard:kernel_marginal_1.csv", "hazard:kernel_marginal_2.csv"]},
        KERNEL_TABLES,
        [("1.7", "1.2"), ("0.6", "2.4")], ("0.3", "1.1", "0.2", "2.5")),
    "pareto-overflow": (
        {"baseline": "pareto", "theta123": [1, 1, 1], "grid": {"r0_max": 1000, "knots": 16}},
        {}, [("2.5", "1.5"), ("1.2", "3")], ("1.1", "2", "1.5", "4")),
}


def _commands(name: str) -> dict[str, list[str]]:
    """Label -> argv (without ``--config``) of every command run on a config."""
    _, _, points, rect = CONFIGS[name]
    cmds = {
        "validate-json-8": ["validate", "--format", "json", "--grid-knots", "8"],
        "validate-json-16": ["validate", "--format", "json", "--grid-knots", "16"],
        "validate-table": ["validate"],
        "decompose": ["decompose"],
        "check-fe": ["check-fe"],
        "rect": ["rect", *rect],
        "sample": ["sample", "--n", "50", "--seed", "7"],
    }
    for i, (x1, x2) in enumerate(points, start=1):
        cmds[f"eval-{i}"] = ["eval", "--format", "json", x1, x2]
    return cmds


def _write_config(name: str, workdir: Path) -> Path:
    spec, tables, _, _ = CONFIGS[name]
    for fname, hs in tables.items():
        rows = "".join(f"{x!r},{h!r}\n" for x, h in zip(TABLE_X, hs))
        (workdir / fname).write_text("x,hazard\n" + rows)
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(spec))
    return path


def _run(argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return {"exit": code, "stdout": buf.getvalue()}


def _observe(name: str, workdir: Path) -> dict:
    if name == "counterexample":
        return {"counterexample": _run(["counterexample"]),
                "counterexample-json": _run(["counterexample", "--format", "json"])}
    path = str(_write_config(name, workdir))
    return {label: _run([argv[0], "--config", path, *argv[1:]])
            for label, argv in _commands(name).items()}


@pytest.mark.parametrize("name", [*CONFIGS, "counterexample"])
def test_cli_stdout_matches_golden(tmp_path, name):
    expected = json.loads((GOLDEN / f"{name}.json").read_text())
    observed = _observe(name, tmp_path)
    assert sorted(observed) == sorted(expected)
    for label, want in expected.items():
        got = observed[label]
        assert got["exit"] == want["exit"], f"{name} {label}: exit code"
        assert got["stdout"] == want["stdout"], f"{name} {label}: stdout"


#: sha1 of the stdout of ``sample --n 20000 --seed 11`` on gen-pareto: three
#: blocks of the vectorized CSV writer, recorded from the per-row ``repr``
#: writer it replaced (``oracles.write_csv_rows``), so the two are
#: byte-identical.  Recorded again when the wedge draws became inversions of
#: the wedge CDF, and again when two linear kernels took the latent races,
#: each time from the same per-row writer.
SAMPLE_20000_SHA1 = "d3d2e265477ed2eacbad3fb84b0498a8f32d43f7"


def test_cli_sample_above_crossover_matches_recorded_digest(tmp_path):
    path = str(_write_config("gen-pareto", tmp_path))
    got = _run(["sample", "--config", path, "--n", "20000", "--seed", "11"])
    assert got["exit"] == 0
    assert got["stdout"].count("\n") == 20001
    assert hashlib.sha1(got["stdout"].encode("ascii")).hexdigest() == SAMPLE_20000_SHA1


def _record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in [*CONFIGS, "counterexample"]:
            path = GOLDEN / f"{name}.json"
            path.write_text(json.dumps(_observe(name, Path(tmp)), indent=1,
                                       sort_keys=True) + "\n")
            print(f"recorded {path}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_cli_golden.py --record")
    _record()
