"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Expected values come from independent oracles computed inside this module
(inclusion-exclusion with direct exp calls, plain finite differences,
adaptive 2-D quadrature), never from the code paths they certify.
"""

import json
import math
import time

import numpy as np
import pytest

from bisurv import (
    CustomHazard,
    Exponential,
    FromHazard,
    GeneralBivariateModel,
    GridSpec,
    Pareto,
    PHBivariateModel,
    Weibull,
    check_functional_equation,
    check_hazard_gradient_identity,
    check_hazard_rate_conditions,
    check_marginal_conditions,
    check_two_increasing,
    reconstruct_survival_from_gradient,
    sample_general,
    sample_ph,
)
from bisurv.cli import main
from oracles import mixed_fd, wedge_ac_mass

BASELINES = [Exponential(), Weibull(0.5), Weibull(1.0), Weibull(2.0), Pareto()]


class Criterion:
    """Collects named checks and prints exactly one PASS/FAIL line."""

    def __init__(self, number: int, title: str):
        self.name = f"criterion {number} ({title})"
        self.failures: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def close(self, ok: bool, message: str) -> None:
        self.check(ok, message)

    def finish(self) -> None:
        if self.failures:
            print(f"ACCEPTANCE {self.name}: FAIL [{'; '.join(self.failures)}]")
            pytest.fail("; ".join(self.failures))
        print(f"ACCEPTANCE {self.name}: PASS")


def test_criterion_1_counterexample_reproduction(capsys):
    crit = Criterion(1, "counterexample reproduction")
    start = time.perf_counter()
    code = main(["counterexample", "--format", "json"])
    elapsed = time.perf_counter() - start
    payload = json.loads(capsys.readouterr().out)

    # four-term inclusion-exclusion oracle, straight from math.exp
    oracle = (math.exp(-11.0) - math.exp(-8.5)
              - math.exp(-31.0) + math.exp(-22.5))
    with capsys.disabled():
        crit.check(code == 0, f"exit code {code} != 0")
        crit.check(payload["rectangle_probability"] < 0.0,
                   "rectangle probability not negative")
        crit.check(abs(payload["rectangle_probability"] - oracle) < 1e-7,
                   f"rectangle {payload['rectangle_probability']} vs oracle {oracle}")
        lhs = payload["cross_bound_lhs_at_5_3"]
        crit.check(abs(lhs - 6.5) < 1e-6 and lhs > 3.0,
                   f"cross-derivative bound statistic {lhs} != 6.5 > 3")
        usum = payload["u1_plus_u2"]
        crit.check(abs(usum - 2.0) < 1e-6 and usum < 3.0,
                   f"u1+u2 {usum} != 2 < 3")
        crit.check(payload["functional_equation_max_residual"] < 1e-9,
                   "functional-equation residual >= 1e-9")
        crit.check(elapsed < 1.0, f"runtime {elapsed:.2f}s >= 1s")
        crit.finish()


def test_criterion_2_ph_validity_suite():
    crit = Criterion(2, "PH validity suite")
    rng = np.random.default_rng(20240817)
    triples = rng.uniform(0.2, 3.0, size=(20, 3))
    start = time.perf_counter()
    for base in BASELINES:
        for t1, t2, t3 in triples:
            model = PHBivariateModel(base, float(t1), float(t2), float(t3))
            tag = f"{base.spec_string()} theta=({t1:.3f},{t2:.3f},{t3:.3f})"
            rep = check_marginal_conditions(model)
            crit.check(rep.verdict == "Valid", f"{tag}: marginal {rep.verdict}")
            rep5 = check_hazard_rate_conditions(
                model.marginal1, model.marginal2, base, model.theta)
            crit.check(rep5.verdict == "Valid", f"{tag}: hazard-rate {rep5.verdict}")
            two = check_two_increasing(model)
            crit.check(two.verdict == "Valid", f"{tag}: two-increasing {two.verdict}")
            fe = check_functional_equation(model)
            crit.check(fe.max_residual < 1e-9,
                       f"{tag}: FE residual {fe.max_residual:.2e}")
            gi = check_hazard_gradient_identity(model)
            crit.check(gi.max_residual < 1e-8,
                       f"{tag}: gradient identity {gi.max_residual:.2e}")
    elapsed = time.perf_counter() - start
    crit.check(elapsed < 30.0, f"runtime {elapsed:.1f}s >= 30s")
    crit.finish()


def test_criterion_3_decomposition_conservation():
    crit = Criterion(3, "decomposition conservation")
    mo = PHBivariateModel(Exponential(), 1.0, 1.0, 1.0)
    crit.check(mo.decompose().singular_mass == 1.0 / 3.0,
               "singular mass not exactly 1/3")
    for upper in (True, False):
        mass = wedge_ac_mass(mo, upper=upper)
        crit.check(abs(mass - 1.0 / 3.0) < 1e-6,
                   f"wedge mass {mass} != 1/3 +- 1e-6 (upper={upper})")

    rng = np.random.default_rng(7)
    bases = [Exponential(), Weibull(2.0), Pareto()]
    for i in range(10):
        base = bases[i % len(bases)]
        t1, t2, t3 = rng.uniform(0.3, 2.5, size=3)
        model = PHBivariateModel(base, float(t1), float(t2), float(t3))
        expected_upper = (model.theta - model.delta1) / model.theta
        expected_lower = (model.theta - model.delta2) / model.theta
        got_upper = wedge_ac_mass(model, upper=True)
        got_lower = wedge_ac_mass(model, upper=False)
        tag = f"{base.spec_string()} #{i}"
        crit.check(abs(got_upper - expected_upper) < 1e-5,
                   f"{tag}: upper wedge {got_upper} vs {expected_upper}")
        crit.check(abs(got_lower - expected_lower) < 1e-5,
                   f"{tag}: lower wedge {got_lower} vs {expected_lower}")
        total = got_upper + got_lower + model.decompose().singular_mass
        crit.check(abs(total - 1.0) < 3e-5, f"{tag}: total mass {total}")
    crit.finish()


def test_criterion_4_sampling():
    crit = Criterion(4, "sampling")
    mo = PHBivariateModel(Exponential(), 1.0, 1.0, 1.0)
    n = 200_000
    start = time.perf_counter()
    batch = sample_ph(mo, n, 20240817)

    p_tie = 1.0 / 3.0
    tie_tol = 3.0 * math.sqrt(p_tie * (1.0 - p_tie) / n)
    tie_freq = batch.tie_count / n
    crit.check(abs(tie_freq - p_tie) <= tie_tol,
               f"tie frequency {tie_freq:.5f} vs 1/3 +- {tie_tol:.5f}")

    p_12 = math.exp(-5.0)
    emp = float(np.mean((batch.x1 > 1.0) & (batch.x2 > 2.0)))
    tol_12 = 3.0 * math.sqrt(p_12 * (1.0 - p_12) / n)
    crit.check(abs(emp - p_12) <= tol_12,
               f"empirical S(1,2) {emp:.6f} vs {p_12:.6f} +- {tol_12:.6f}")

    # the same law through composed kernels, which the wedge inverter draws
    constant = FromHazard.from_table([0.0, 1.0], [2.0, 2.0])
    general = sample_general(GeneralBivariateModel(Exponential(), constant, constant, 3.0),
                             n, 917)
    for x1 in (0.5, 1.0, 2.0):
        for x2 in (0.5, 1.0, 2.0):
            pa = float(np.mean((batch.x1 > x1) & (batch.x2 > x2)))
            pg = float(np.mean((general.x1 > x1) & (general.x2 > x2)))
            phat = 0.5 * (pa + pg)
            se = math.sqrt(max(phat * (1.0 - phat), 1e-12) * 2.0 / n)
            crit.check(abs(pa - pg) <= 3.0 * se,
                       f"probe ({x1},{x2}): |{pa:.5f} - {pg:.5f}| > 3se {3*se:.5f}")
    elapsed = time.perf_counter() - start
    crit.check(elapsed < 10.0, f"runtime {elapsed:.1f}s >= 10s")
    crit.finish()


def test_criterion_5_oracle_equivalence():
    crit = Criterion(5, "oracle equivalence")
    rng = np.random.default_rng(1234)

    # mixed finite differences of the survival vs alpha * closed-form density
    models = [PHBivariateModel(Exponential(), 1.0, 1.0, 1.0),
              PHBivariateModel(Weibull(2.0), 0.7, 1.3, 0.9),
              PHBivariateModel(Pareto(), 1.2, 0.5, 0.8)]
    count = 0
    while count < 50:
        model = models[count % len(models)]
        base = model.baseline
        r1, r2 = rng.uniform(0.1, 4.0, size=2)
        if abs(r1 - r2) < 0.1:
            continue
        x1 = float(base.inverse_cumulative_hazard(r1))
        x2 = float(base.inverse_cumulative_hazard(r2))
        fd = mixed_fd(model.survival, x1, x2)
        closed = model.decompose().alpha * model.ac_density(x1, x2)
        rel = abs(fd - closed) / abs(closed)
        crit.check(rel < 1e-5,
                   f"{base.spec_string()} ({x1:.3f},{x2:.3f}): FD mismatch {rel:.2e}")
        count += 1

    count = 0
    while count < 20:
        model = models[count % len(models)]
        base = model.baseline
        r1, r2 = rng.uniform(0.05, 3.0, size=2)
        x1 = float(base.inverse_cumulative_hazard(r1))
        x2 = float(base.inverse_cumulative_hazard(r2))
        direct = model.survival(x1, x2)
        rebuilt = reconstruct_survival_from_gradient(model, x1, x2)
        rel = abs(rebuilt - direct) / direct
        crit.check(rel < 1e-6,
                   f"{base.spec_string()} ({x1:.3f},{x2:.3f}): "
                   f"reconstruction mismatch {rel:.2e}")
        count += 1
    crit.finish()


def test_criterion_6_semigroup_property_suite():
    crit = Criterion(6, "semigroup property suite")
    families = {
        "exponential": (Exponential(), 1e-10),
        "weibull:0.5": (Weibull(0.5), 1e-10),
        "weibull:2": (Weibull(2.0), 1e-10),
        "pareto": (Pareto(), 1e-10),
        "custom": (CustomHazard(lambda x: 0.8 + 0.6 * x), 1e-8),
    }
    rng = np.random.default_rng(55)
    for name, (base, rtol) in families.items():
        checks = 0
        triples = rng.uniform(1e-3, 5.0, size=(250, 3))
        for ra, rb, rc in triples:
            a = float(base.inverse_cumulative_hazard(ra))
            b = float(base.inverse_cumulative_hazard(rb))
            c = float(base.inverse_cumulative_hazard(rc))
            assoc_l = base.combine(base.combine(a, b), c)
            assoc_r = base.combine(a, base.combine(b, c))
            crit.check(math.isclose(assoc_l, assoc_r, rel_tol=rtol),
                       f"{name}: associativity {assoc_l} vs {assoc_r}")
            comm_l = base.combine(a, b)
            comm_r = base.combine(b, a)
            crit.check(math.isclose(comm_l, comm_r, rel_tol=rtol),
                       f"{name}: commutativity {comm_l} vs {comm_r}")
            crit.check(base.combine(a, base.x_L) == a, f"{name}: identity at {a}")
            inv = base.difference(base.combine(a, b), b)
            crit.check(math.isclose(inv, a, rel_tol=rtol, abs_tol=1e-12),
                       f"{name}: inverse {inv} vs {a}")
            checks += 4
        crit.check(checks == 1000, f"{name}: ran {checks} checks, expected 1000")
    crit.finish()
