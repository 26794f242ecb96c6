"""Self-test of the benchmark's own checks, on tiny sizes.

    python3 bench/run.py --self-test

1. A wrong expected verdict makes a validate request fail.
2. A corrupted CSV row makes a sample request fail.
3. Tracing on and off gives the same outputs, and no request fails.
4. ``spec.json`` names exactly the workloads and metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import dataclasses
import json

import run
from workloads import CONFIGS, WORKLOADS


TINY = dataclasses.replace(
    WORKLOADS["analyze-closed"],
    classes=(("validate", "lfr1.5", 16), ("eval", "lfr1.5", 1), ("rect", "ph-exp", 1),
             ("vec", "lfr0.2", 1000), ("sample", "ph-exp", 500)))


def _wrong_verdict(runner, wl) -> int:
    runner.configs = dict(runner.configs)
    runner.configs["lfr1.5"] = dataclasses.replace(CONFIGS["lfr1.5"], verdict="Valid",
                                                   failing=None)
    runner.run(("validate", "lfr1.5", 16, None))
    return runner.failed


def _corrupt_csv(runner, wl) -> int:
    runner.corrupt_csv = True
    runner.run(("sample", "ph-exp", 500, 12345))
    return runner.failed


def _trace_on_off(runner, wl) -> int:
    from tracing import Tracer
    tracer = Tracer()
    outputs = []
    for traced in (False, True):
        if traced:
            tracer.install()
        try:
            reqs = run.make_round(TINY, runner.configs, run.round_rng(7, 0))
            outputs.append([runner.run(req, tracer if traced else None)[1] for req in reqs])
        finally:
            tracer.uninstall()
    return runner.failed + (outputs[0] != outputs[1]) + (not tracer.spans)


def _spec_matches() -> bool:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((run.BENCH / "spec.json").read_text())
    e2e = {m["name"] for m in bench["end_to_end"]}
    layers = {m["name"] for m in bench["per_layer"]}
    names = {w["name"] for w in bench["workloads"]}
    rounds = {w.name: [f"{op} {cfg} {size}" for op, cfg, size in w.classes]
              for w in WORKLOADS.values()}
    return (names == set(spec["workloads"]) == set(WORKLOADS)
            and all(set(w["metrics"]) == e2e and w["round"] == rounds[name]
                    for name, w in spec["workloads"].items())
            and set(spec["layers"]) <= layers)


def self_test() -> int:
    spec = run.load_spec()
    checks = []
    for label, hook, want_failed in (
            ("wrong expected verdict fails", _wrong_verdict, True),
            ("corrupted CSV row fails", _corrupt_csv, True),
            ("tracing on/off: same outputs, none fail", _trace_on_off, False)):
        failed = run.run_workload(TINY.name, 1, 0.0, 0, spec, selftest_hook=hook)
        checks.append((label, (failed > 0) == want_failed))
    checks.append(("spec.json matches BENCHMARK.json", _spec_matches()))
    for label, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {label}")
    return 0 if all(ok for _, ok in checks) else 1
