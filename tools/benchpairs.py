"""Alternating parent/change runs of the benchmark, and the table they give.

    python3 tools/benchpairs.py PARENT --workload W [W ...] --seed S --pairs N
        [--seconds 10] [--heap default|64m] [--out records.json]

Run from the repository root; it needs git and nothing outside the standard
library.  ``PARENT``, any git revision, is exported with ``git archive`` into
a temporary directory; the change is the working tree.  Pair ``i`` runs
``bench/run.py --workload W --seed S+i --seconds T --trace 0`` on each side,
one run at a time, the parent first on even ``i`` and the change first on
odd ``i``.  ``--heap 64m`` sets ``MALLOC_TRIM_THRESHOLD_`` and
``MALLOC_MMAP_THRESHOLD_`` to 64 MiB for both sides.

For every end-to-end metric of ``BENCHMARK.json`` it prints, per workload,
the parent's median [quartiles] -> the change's median [quartiles] (the
ratio, and the pairs the change won by the metric's ``better``; a tie counts
for neither side), one Markdown table row per metric.  ``--out`` saves each
run's last stdout line, the bench's JSON record, with its side and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HEAPS = {"default": {}, "64m": {"MALLOC_TRIM_THRESHOLD_": str(64 << 20),
                                "MALLOC_MMAP_THRESHOLD_": str(64 << 20)}}


def run(tree: Path, workload: str, seed: int, seconds: float, env: dict) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.exit(f"{' '.join(argv)} in {tree} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def fmt(v: float) -> str:
    if abs(v) >= 1e6:
        return f"{v / 1e6:.4g}M"
    if abs(v) >= 1e4:
        return f"{v / 1e3:.4g}k"
    return f"{v:.4g}"


def cell(parent: list[float], change: list[float], better: str) -> str:
    def spread(v):
        q1, _, q3 = statistics.quantiles(v, n=4, method="inclusive")
        return f"{fmt(statistics.median(v))} [{fmt(q1)}–{fmt(q3)}]"
    sign = 1.0 if better == "lower" else -1.0
    won = sum(sign * (c - p) < 0.0 for p, c in zip(parent, change))
    ratio = statistics.median(change) / statistics.median(parent)
    return f"{spread(parent)} → {spread(change)} ({ratio:.2f}×, {won}/{len(parent)})"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--heap", choices=sorted(HEAPS), default="default")
    parser.add_argument("--out")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = {**os.environ, **HEAPS[args.heap]}
    env.pop("PYTHONPATH", None)  # each side imports its own src
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "archive", args.parent], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        trees = {"parent": Path(tmp), "change": ROOT}
        for i in range(args.pairs):
            for workload in args.workload:
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    seed = args.seed + i
                    record = run(trees[side], workload, seed, args.seconds, env)
                    records.append({"side": side, "workload": workload, "seed": seed,
                                    "heap": args.heap, "record": record})
                    print(f"pair {i + 1}/{args.pairs} {workload} {side}: correct "
                          f"{record['correct']}, failed {record['failed']}", file=sys.stderr)
    if args.out:
        Path(args.out).write_text(json.dumps(records, indent=1) + "\n")

    def values(side, workload, metric):
        return [r["record"]["metrics"][metric]["value"] for r in records
                if r["side"] == side and r["workload"] == workload]
    print(f"| metric | {' | '.join(args.workload)} |")
    print(f"|---|{'---|' * len(args.workload)}")
    for m in spec["end_to_end"]:
        cells = [cell(values("parent", w, m["name"]), values("change", w, m["name"]), m["better"])
                 for w in args.workload]
        print(f"| `{m['name']}` | {' | '.join(cells)} |")
    bad = [r for r in records if not r["record"]["correct"] or r["record"]["failed"]]
    print(f"\n{len(records)} runs; {len(bad)} not correct or with failures")


if __name__ == "__main__":
    main()
