"""Model fixtures and the request mix of each benchmark workload.

Every expected verdict below is derived from the paper's two conditions,
never from running ``validate``.  In wedge coordinates
``Q_i(s) = R_i(R0^{-1}(s))`` a model is a distribution iff

    (A)  theta <= u1 + u2 <= 2 theta,   u_i = Q_i'(0+)
    (B)  theta Q_i' + Q_i'' - Q_i'^2 >= 0 for all s > 0, i = 1, 2

``combined_validation`` additionally asks ``0 <= Q_i' <= theta`` (hazard
condition i) and, heuristically, ``Q_i(128) > 30`` (total-hazard
divergence); the valid fixtures satisfy both with room to spare.  The
default grid spans s in (0, 7.95], so a violation of (B) anywhere beyond
s = 0.05 lies on the grid.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as ref

VALID, INVALID = "Valid", "Invalid"

TABLE_X = np.linspace(0.0, 10.0, 200)
#: baseline hazard 1 + 0.5x + 0.3 sin 5x >= 0.7 > 0 everywhere
BASELINE_TABLE_H = 1.0 + 0.5 * TABLE_X + 0.3 * np.sin(5.0 * TABLE_X)
#: marginal hazard 1 + 0.5 e^{-x}, between 1 and 1.5, decreasing
MARGINAL_TABLE_H = 1.0 + 0.5 * np.exp(-TABLE_X)


@dataclass(frozen=True)
class Config:
    """One model: its JSON config, its reference, what validate must say."""

    name: str
    spec: dict
    reference: ref.WedgeModel
    verdict: str
    #: eval points keep s below this so the AC density is positive (by (B))
    s_max: float = 4.0
    #: condition id that must be among the failures of an Invalid model
    failing: str | None = None
    tables: dict = field(default_factory=dict)


def _configs() -> dict[str, Config]:
    exp, w2 = ref.ExpBase(), ref.WeibullBase(2.0)
    base_table = ref.TableBase(TABLE_X, BASELINE_TABLE_H)
    marg_table = ref.HazardTable(TABLE_X, MARGINAL_TABLE_H)
    configs = [
        # PH models: Q_i = delta_i s with delta_i = theta_i + theta3 < theta, so
        # (B) is delta_i (theta - delta_i) > 0 and (A) is theta < d1 + d2 =
        # theta + theta3 < 2 theta.  Every PH model with positive thetas is Valid.
        Config("ph-exp", {"baseline": "exponential", "theta123": [1, 1, 1]},
               ref.WedgeModel.ph(exp, 1, 1, 1), VALID),
        Config("ph-weibull2", {"baseline": "weibull:2", "theta123": [0.5, 1.0, 1.5]},
               ref.WedgeModel.ph(w2, 0.5, 1.0, 1.5), VALID),
        Config("ph-weibull0.5", {"baseline": "weibull:0.5", "theta123": [1, 0.5, 2]},
               ref.WedgeModel.ph(ref.WeibullBase(0.5), 1, 0.5, 2), VALID),
        Config("ph-pareto", {"baseline": "pareto", "theta123": [2, 1, 1]},
               ref.WedgeModel.ph(ref.ParetoBase(), 2, 1, 1), VALID),
        # ph:1 / ph:2.5 at theta = 3: (B) gives 1*2 = 2 and 2.5*0.5 = 1.25, both
        # > 0; (A) gives 3 <= 3.5 <= 6.  Valid, alpha = 2 - 3.5/3 = 5/6.
        Config("gen-weibull2", {"baseline": "weibull:2", "theta": 3.0,
                                "marginals": ["ph:1", "ph:2.5"]},
               ref.WedgeModel(w2, ref.PHWedge(1.0), ref.PHWedge(2.5), 3.0), VALID),
        # lfr:a over the exponential baseline: Q = s + a s^2, so (B) is
        # theta + 2a - 1 + 2a(theta - 2)s - 4a^2 s^2.  a = 1.5, theta = 3:
        # 5 + 3s - 9s^2 < 0 for s > 0.93, and (A) fails too (u1 + u2 = 2 < 3).
        Config("lfr1.5", {"baseline": "exponential", "theta": 3.0,
                          "marginals": ["lfr:1.5", "lfr:1.5"]},
               ref.WedgeModel(exp, ref.LFRWedge(1.5), ref.LFRWedge(1.5), 3.0), INVALID,
               s_max=0.7, failing="marginal-ii"),
        # a = 0.2, theta = 2: (B) is 1.4 - 0.16 s^2 < 0 for s > 2.96, although
        # (A) holds at its lower edge (u1 + u2 = 2 = theta).
        Config("lfr0.2", {"baseline": "exponential", "theta": 2.0,
                          "marginals": ["lfr:0.2", "lfr:0.2"]},
               ref.WedgeModel(exp, ref.LFRWedge(0.2), ref.LFRWedge(0.2), 2.0), INVALID,
               s_max=2.5, failing="marginal-ii"),
        # PH over a table baseline: Q_i = delta_i s whatever R0 is, so Valid
        # exactly as for the closed-form PH models above.
        Config("ph-table", {"baseline": "custom:baseline_table.csv", "theta123": [1, 1, 1]},
               ref.WedgeModel.ph(base_table, 1, 1, 1), VALID,
               tables={"baseline_table.csv": BASELINE_TABLE_H}),
        # Exponential baseline, so Q_1 = R_table with Q_1' = h in [1, 1.5] and
        # Q_1'' = table slope >= -0.5 (the interpolated slope of 0.5 e^{-x}):
        # (B) >= min Q'(3 - Q') - 0.5 = 2 - 0.5 > 0.  Q_2 = 2s: 2 * 1 > 0.
        # (A): u1 + u2 = 1.5 + 2 = 3.5 in [3, 6].  Valid, alpha = 5/6.
        Config("gen-table", {"baseline": "exponential", "theta": 3.0,
                             "marginals": ["hazard:marginal_table.csv", "ph:2"]},
               ref.WedgeModel(exp, ref.TableWedge(marg_table), ref.PHWedge(2.0), 3.0), VALID,
               tables={"marginal_table.csv": MARGINAL_TABLE_H}),
    ]
    return {c.name: c for c in configs}


CONFIGS = _configs()


@dataclass(frozen=True)
class Workload:
    """Configs and the requests of one round; a run repeats whole rounds.

    ``classes`` lists request classes ``(op, config, size)``: sample draws
    ``size`` pairs, validate uses ``size`` knots, eval and rect take ``size``
    points (one request each), vec is one batch of ``size`` points.
    """

    name: str
    why: str
    configs: tuple[str, ...]
    classes: tuple[tuple[str, str, int], ...]
    cli: tuple[tuple[str, ...], ...]
    #: rounds of the traced pass per second of --seconds
    traced_rounds_per_s: float


def _each(op: str, configs, size: int):
    return tuple((op, c, size) for c in configs)


SAMPLE_CLOSED = ("ph-exp", "ph-weibull2", "gen-weibull2")
ANALYZE_CLOSED = ("ph-exp", "ph-weibull0.5", "ph-pareto", "gen-weibull2", "lfr1.5", "lfr0.2")
TABLE = ("ph-table", "gen-table")

WORKLOADS = {
    w.name: w for w in (
        Workload(
            "sample-closed",
            "sampling and CSV output do the work on closed-form baselines; validity sees only "
            "16-knot companions",
            SAMPLE_CLOSED,
            _each("sample", SAMPLE_CLOSED, 20_000) + _each("validate", SAMPLE_CLOSED, 16)
            + _each("eval", SAMPLE_CLOSED, 1) + _each("vec", SAMPLE_CLOSED, 10_000),
            (("sample", "ph-exp", "--n", "1000000", "--seed", "{seed}", "--out", "{out}"),),
            traced_rounds_per_s=2.0,
        ),
        Workload(
            "analyze-closed",
            "validity and bivariate do the work, scalar and vector, with no quadrature; the "
            "48-knot rectangle scan moves latency and memory",
            ANALYZE_CLOSED,
            tuple(("validate", c, k) for c in ANALYZE_CLOSED for k in (16, 32, 48))
            + _each("eval", ANALYZE_CLOSED, 4) + _each("rect", ANALYZE_CLOSED, 2)
            + _each("vec", ANALYZE_CLOSED, 200_000) + (("sample", "ph-exp", 2_000),),
            (("validate", "gen-weibull2"), ("validate", "lfr0.2"), ("counterexample",)),
            traced_rounds_per_s=0.3,
        ),
        Workload(
            "table-hazard",
            "every map goes through the table quadrature and root finder, the slowest path; "
            "a change to table hazards should move this workload only",
            TABLE,
            # no eval on gen-table: its ac_density is a finite difference of
            # quadrature values and refuses some points of this Valid model.
            # No sampling on gen-table: one request costs ~3.5 s at any n below
            # 512, which would leave a run one round.  The cost of a table
            # inverse grows with the drawn value, so a 20-pair request varies
            # by ~20% with its seed; four of them a round (~1.4 s of a ~2.9-s
            # round) keep a run's median steady.  Validate uses the smallest
            # default grid, here and in the CLI, so that a round stays short
            # and a run holds four or more of them.
            (("validate", "gen-table", 8),) + (("sample", "ph-table", 20),) * 4
            + (("eval", "ph-table", 6),)
            + _each("rect", TABLE, 1) + (("vec", "ph-table", 40), ("vec", "gen-table", 80)),
            (("validate", "gen-table", "--grid-knots", "8"), ("eval", "ph-table", "{x1}", "{x2}")),
            traced_rounds_per_s=0.2,
        ),
    )
}


def write_fixtures(workdir: Path, names) -> dict[str, Path]:
    """Write the configs (and their hazard tables) as JSON/CSV; return the paths."""
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name in names:
        cfg = CONFIGS[name]
        for fname, hs in cfg.tables.items():
            rows = "".join(f"{x!r},{h!r}\n" for x, h in zip(TABLE_X.tolist(), hs.tolist()))
            (workdir / fname).write_text("x,hazard\n" + rows)
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(cfg.spec))
        paths[name] = path
    return paths
