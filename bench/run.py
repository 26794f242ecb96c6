"""The bisurv benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S
    python3 bench/run.py --self-test

Run from the repository root.  The library is imported from ``src`` (and
the CLI run as ``python -m bisurv.cli`` with ``src`` on ``PYTHONPATH``);
nothing is installed.  Inputs (points, request order, sample seeds, knot
assignments) come from ``--seed``; the library sees only those inputs.

One client sends requests in a closed loop, one at a time, in whole
rounds: each round holds every request class of the workload once, in a
seeded order.  With ``--trace 0`` the run times rounds for ``--seconds``
and reports the end-to-end metrics named in ``BENCHMARK.json``; with
``--trace 1`` it replays a fixed number of rounds untraced and then traced
and reports the per-layer metrics, including the tracing overhead.  Every
output is checked against the closed forms in ``reference.py``.  Requests
are timed in CPU time; end-to-end times are scaled to a reference machine
speed measured next to them (see ``calibrate``); the unscaled values, p90s,
sample counts and the failed fraction go to stderr.  The last line of
stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

from reference import digits, rel_err
from workloads import CONFIGS, WORKLOADS, write_fixtures

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
CLI_REPEATS = 5
SUBPROCESS_TIMEOUT = 150
#: a single check that misses by more than this is a failed request
COARSE = {"survival": 1e-3, "gradient": 1e-3, "density": 1e-2, "rect": 1e-3, "alpha": 1e-4}
#: pooled sample frequencies must lie within this many binomial sigmas
SIGMAS = 5.0

#: median seconds of ``calibrate`` on the machine the bounds were set on (2 vCPU,
#: Python 3.11, NumPy 2.4); every reported time is scaled to that speed
CAL_REF_S = 1.4e-3

_SETUP_CODE = ("import sys, bisurv\nfrom bisurv.config import load_model_config\n"
               "for p in sys.argv[1:]:\n    load_model_config(p)\n")


def log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


def sha(data: bytes) -> str:
    return hashlib.sha1(data).hexdigest()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


#: a small piecewise-linear table for the calibration loop's scalar NumPy calls
_CAL_X = np.linspace(0.0, 10.0, 50)
_CAL_H = 1.0 + _CAL_X


def calibrate(clock=time.perf_counter) -> float:
    """Seconds on ``clock`` for a fixed mix of interpreter, scalar NumPy and array work.

    This is the machine's speed now.  The host's speed swings by a third
    within seconds to minutes, more than the bounds, and the hypervisor
    takes the CPU away for tens of milliseconds at a time.  So requests are
    timed in this process's CPU time, which leaves the stolen time out, and
    scaled by the median CPU time of this loop over the calls made in their
    round (one call varies by ~20% on its own; see ``timed_run``).  Over 24
    10-s windows of four table-hazard rounds, each window on its own seed,
    in a busy hour of a 2-vCPU host, the scaling cut the spread (IQR over
    median) of the window's validate p50 from 0.33 to 0.08, of eval from
    0.31 to 0.10, of vectorized throughput from 0.27 to 0.12 and of sample
    from 0.29 to 0.22 (the rest is the cost of the seed's draws).  In calm
    windows it adds ~0.03.  Subprocesses (set-up, CLI) are timed in wall
    time and scaled by this loop's wall time (see ``timed_child``).  Any
    change to bisurv itself stays in the scaled times in full.
    """
    start = clock()
    total = 0.0
    for i in range(400):
        total += float(np.interp(0.01 * i, _CAL_X, _CAL_H)) + math.sqrt(i)
    np.sort(np.random.default_rng(0).random(20_000))
    return clock() - start


def timed_child(args):
    """Run one subprocess; return (wall seconds, at reference speed, CompletedProcess).

    The calibration loop runs before, after and every 0.2 s while the child
    runs (under 1% of a CPU), so a speed change during a long command shows.
    """
    cal = [calibrate()]
    start = time.perf_counter()
    with subprocess.Popen(args, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as child:
        while True:
            try:
                out, err = child.communicate(timeout=0.2)
                break
            except subprocess.TimeoutExpired:
                if time.perf_counter() - start > SUBPROCESS_TIMEOUT:
                    child.kill()
                    child.communicate()
                    raise
                cal.append(calibrate())
    wall = time.perf_counter() - start
    cal.append(calibrate())
    proc = subprocess.CompletedProcess(args, child.returncode, out, err)
    return wall, wall * CAL_REF_S / statistics.median(cal), proc


# ---------------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------------


def make_round(wl, configs, rng) -> list[tuple]:
    """One round of requests ``(op, config, size, payload)`` in seeded order."""
    reqs = []
    for op, name, size in wl.classes:
        ref = configs[name].reference
        if op == "sample":
            reqs.append((op, name, size, int(rng.integers(0, 2**63))))
        elif op == "validate":
            reqs.append((op, name, size, None))
        elif op == "eval":
            for point in eval_points(configs[name], rng, size):
                reqs.append((op, name, 1, point))
        elif op == "rect":
            for _ in range(size):
                a1, a2 = rng.uniform(0.05, 3.0, 2)
                b1, b2 = (a1, a2) + rng.uniform(0.05, 2.0, 2)
                reqs.append((op, name, 1, tuple(float(ref.point(r)) for r in (a1, b1, a2, b2))))
        elif op == "vec":
            r = 5.0 * stratified(rng, 2, size)
            x1, x2 = ref.point(r[0]), ref.point(r[1])
            tie = rng.random(size) < 0.01
            x2[tie] = x1[tie]
            reqs.append((op, name, size, (x1, x2)))
    order = rng.permutation(len(reqs))
    return [reqs[i] for i in order]


def stratified(rng, dims: int, k: int):
    """``k`` uniform points in [0, 1)^dims, one in each of k strata per axis.

    A Latin hypercube: each coordinate is still uniform, but a batch covers
    its range evenly.  On table models the cost of a point grows with its
    distance from the origin, so this keeps the seed's luck out of the times.
    """
    return (np.array([rng.permutation(k) for _ in range(dims)]) + rng.random((dims, k))) / k


def eval_points(cfg, rng, k: int) -> list[tuple[float, float]]:
    """``k`` off-diagonal points with wedge gap s below the config's s_max."""
    u = stratified(rng, 2, k)
    w = 0.05 + 2.95 * u[0]
    s = 0.05 + (cfg.s_max - 0.05) * u[1]
    lo, hi = cfg.reference.point(w), cfg.reference.point(w + s)
    return [(float(b), float(a)) if flip else (float(a), float(b))
            for a, b, flip in zip(lo, hi, rng.random(k) < 0.5)]


class Runner:
    """Sends requests, times them, checks every output, keeps the tallies."""

    def __init__(self, wl, configs, models, workdir: Path, stats_rng):
        import bisurv
        self.bisurv = bisurv
        self.configs, self.models, self.workdir = configs, models, workdir
        self.latency: dict[tuple, list[float]] = defaultdict(list)
        #: while set, requests are timed in CPU time, each between two
        #: calibrations (also in CPU time) kept in ``cal``
        self.calibrated = False
        self.cal: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.max_err: dict[str, float] = defaultdict(float)
        self.errors: list[float] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.pool: dict[str, dict] = {}
        self.corrupt_csv = False  # self-test hook
        self.pooling = True
        for name in wl.configs:
            ref = configs[name].reference
            levels = np.sort(stats_rng.uniform(0.2, 0.8, (2, 3)), axis=1)
            self.pool[name] = {"n": 0, "ties": 0, "requests": 0, "levels": levels,
                               "cut": [ref.marginal_quantile(i, levels[i]) for i in (0, 1)],
                               "exceed": np.zeros((2, 3), dtype=np.int64)}

    # -- bookkeeping ---------------------------------------------------------------

    def fail(self, what: str) -> None:
        self.failed += 1
        if self.failed <= 20:
            log(f"FAILED: {what}")

    def measure(self, kind: str, got, want, where: str) -> bool:
        err = rel_err(got, want)
        self.max_err[kind] = max(self.max_err[kind], err)
        self.errors.append(err)
        if not err <= COARSE[kind]:
            self.fail(f"{where}: {kind} relative error {err:.3g} > {COARSE[kind]:g}")
            return False
        return True

    @property
    def p90_rel_err(self) -> float:
        """90th percentile of every check's relative error in the run.

        Not the maximum: table quadrature errors spike at a few points, so the
        maximum over seeded points swings by orders of magnitude between seeds.
        """
        return float(np.percentile(self.errors, 90)) if self.errors else 0.0

    # -- one request ---------------------------------------------------------------

    def run(self, req, tracer=None):
        """Send one request and check its output; return (seconds, output digest).

        Only the send is timed (and, with a tracer, spanned as ``request.<op>``).
        """
        op, name, size, payload = req
        self.attempted += 1
        where = f"{op} {name} {size}"
        send = getattr(self, f"_send_{op}")
        try:
            if tracer is not None:
                start = time.perf_counter()
                out = tracer.call(f"request.{op}", send, (name, size, payload), {})
                elapsed = time.perf_counter() - start
            else:
                clock = time.process_time if self.calibrated else time.perf_counter
                if self.calibrated:
                    self.cal.append(calibrate(clock))
                start = clock()
                out = send(name, size, payload)
                elapsed = clock() - start
                if self.calibrated:
                    self.cal.append(calibrate(clock))
            self.latency[(op, name, size)].append(elapsed)
            return elapsed, getattr(self, f"_check_{op}")(name, size, payload, out, where)
        except Exception:  # a request that raises is a failed request, not a crash
            self.fail(f"{where}: raised\n{traceback.format_exc()}")
            return 0.0, "error"

    def _send_sample(self, name, n, seed):
        bs = self.bisurv
        cfg = self.models[name]
        if isinstance(cfg.model, bs.PHBivariateModel):
            batch = bs.sample_ph(cfg.model, n, seed)
        else:
            batch = bs.sample_general(cfg.model, n, seed, cfg.grid)
        batch.to_csv(self.workdir / "sample.csv")
        return batch

    def _check_sample(self, name, n, seed, batch, where):
        path = self.workdir / "sample.csv"
        if self.corrupt_csv:
            lines = path.read_text().split("\n")
            lines[1 + n // 2] = lines[1 + n // 2].replace(",", ",1", 1)
            path.write_text("\n".join(lines))
        scan = self.scan_csv(path, n, where, self.pool[name]["cut"], batch)
        if scan is None:
            return "error"
        if self.pooling:
            pool = self.pool[name]
            pool["requests"] += 1
            pool["n"] += n
            pool["ties"] += scan[1]
            pool["exceed"] += scan[2]
        return scan[0]

    def scan_csv(self, path: Path, n: int, where: str, cuts, batch=None):
        """Check a sample CSV in chunks; return (sha1, ties, exceedances of ``cuts``).

        The file must be the header ``x1,x2,tied`` and ``n`` rows of two
        floats and a 0/1 flag that is 1 exactly when ``x1 == x2``; with
        ``batch`` the floats must equal the sampled ones bit for bit.
        """
        digest = hashlib.sha1()
        ties, exceed, row = 0, np.zeros((2, 3), dtype=np.int64), 0
        with open(path, "rb") as fh:
            header = fh.readline()
            digest.update(header)
            if header != b"x1,x2,tied\n":
                self.fail(f"{where}: CSV header {header!r}")
                return None
            while chunk := b"".join(fh.readlines(1 << 22)):
                digest.update(chunk)
                try:
                    x = np.loadtxt(io.BytesIO(chunk), delimiter=",", ndmin=2)
                except ValueError as exc:
                    self.fail(f"{where}: CSV rows after {row} do not parse: {exc}")
                    return None
                if x.shape[1] != 3 or not chunk.endswith(b"\n") or not np.array_equal(
                        x[:, 2], (x[:, 0] == x[:, 1]).astype(float)):
                    self.fail(f"{where}: CSV rows after {row}: tied column is not x1 == x2")
                    return None
                if batch is not None and not (
                        np.array_equal(x[:, 0], batch.x1[row:row + len(x)])
                        and np.array_equal(x[:, 1], batch.x2[row:row + len(x)])):
                    self.fail(f"{where}: CSV rows after {row} differ from the sampled floats")
                    return None
                ties += int(np.sum(x[:, 2]))
                for i in (0, 1):
                    exceed[i] += np.sum(x[:, i, None] > cuts[i][None, :], axis=0)
                row += len(x)
        if row != n:
            self.fail(f"{where}: CSV has {row} rows, expected {n}")
            return None
        return digest.hexdigest(), ties, exceed

    def _send_validate(self, name, knots, _):
        bs = self.bisurv
        cfg = self.models[name]
        report = bs.combined_validation(cfg.model, bs.GridSpec.default(knots=knots), cfg.tol)
        return report.to_json_dict(), report.verdict

    def _check_validate(self, name, knots, _, out, where):
        doc, verdict = out
        self.check_report(doc, verdict, name, where)
        return sha(json.dumps(doc, sort_keys=True).encode())

    def check_report(self, doc: dict, verdict: str, name: str, where: str) -> None:
        expect = self.configs[name]
        failed_ids = [c["id"] for c in doc["conditions"] if c["pass"] is False]
        for c in doc["conditions"]:
            self.counts["validity.undecided_conditions"] += c["pass"] is None
            decided, skipped = grid_counts(c["note"])
            self.counts["validity.grid_points.decided"] += decided
            self.counts["validity.grid_points.skipped"] += skipped
        if verdict != expect.verdict or doc["verdict"] != verdict:
            self.fail(f"{where}: verdict {verdict}, expected {expect.verdict}")
        elif expect.failing and expect.failing not in failed_ids:
            self.fail(f"{where}: {expect.failing} not among failed conditions {failed_ids}")
        else:
            self.measure("alpha", doc["diagnostics"].get("alpha", math.nan),
                         expect.reference.alpha, where)

    def _send_eval(self, name, _, point):
        model = self.models[name].model
        x1, x2 = point
        return (model.survival(x1, x2), model.ac_density(x1, x2),
                self.bisurv.hazard_gradient(model, x1, x2))

    def _check_eval(self, name, _, point, out, where):
        self.check_eval(name, *point, *out, where)
        return repr(out)

    def check_eval(self, name, x1, x2, surv, dens, grad, where) -> None:
        ref = self.configs[name].reference
        where = f"{where} at ({x1!r}, {x2!r})"
        self.measure("survival", surv, ref.survival(x1, x2), where)
        self.measure("density", dens, ref.ac_density(x1, x2), where)
        self.measure("gradient", grad, ref.hazard_gradient(x1, x2), where)

    def _send_rect(self, name, _, corners):
        return self.models[name].model.rectangle_probability(*corners)

    def _check_rect(self, name, _, corners, prob, where):
        want, scale = self.configs[name].reference.rectangle(*corners)
        # judged against the corner scale: the value itself is a cancellation
        self.measure("rect", 1.0 + (prob - want) / scale, 1.0, f"{where} {corners}")
        return repr(prob)

    def _send_vec(self, name, _, points):
        return self.models[name].model.survival(*points)

    def _check_vec(self, name, _, points, surv, where):
        self.measure("survival", surv, self.configs[name].reference.survival(*points), where)
        return sha(np.ascontiguousarray(surv).tobytes())

    # -- pooled sample statistics ----------------------------------------------------

    def check_pools(self) -> None:
        """Tie fraction and marginal survival at three points, within 5 sigma."""
        for name, pool in self.pool.items():
            if not pool["n"]:
                continue
            bad = binomial_failures(pool, pool["n"], pool["ties"], pool["exceed"],
                                    self.configs[name].reference.tie_mass)
            for _ in range(pool["requests"] if bad else 0):
                self.fail(f"sample {name}, pooled over {pool['n']} draws: {bad[0]}")


def binomial_failures(pool, n: int, ties: int, exceed, tie_mass: float) -> list[str]:
    """Frequencies of ``n`` draws more than 5 binomial sigmas off the closed form."""
    tests = [("tie fraction", ties, tie_mass)]
    tests += [(f"P(X{i + 1} > {pool['cut'][i][j]:.6g})", exceed[i][j], pool["levels"][i][j])
              for i in (0, 1) for j in range(3)]
    return [f"{label} = {count / n:.6f}, closed form {p:.6f}" for label, count, p in tests
            if abs(count - n * p) > SIGMAS * math.sqrt(n * p * (1.0 - p)) + 1e-9]


def grid_counts(note: str) -> tuple[int, int]:
    """(decided, skipped) grid points from a condition note, (0, 0) if it has none."""
    words = note.replace(",", "").split()
    if note.startswith("all ") and note.endswith("grid points skipped"):
        return 0, int(words[1])
    if len(words) >= 3 and words[1:3] == ["grid", "points"] and words[0].isdigit():
        skipped = int(words[3]) if len(words) > 4 and words[4] == "skipped" else 0
        return int(words[0]), skipped
    return 0, 0


# ---------------------------------------------------------------------------
# set-up and CLI session
# ---------------------------------------------------------------------------


def measure_setup(paths) -> tuple[list[float], list[float]]:
    """Wall times, unscaled and at reference speed, of fresh interpreters that
    import bisurv and load the configs."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        wall, ref_wall, proc = timed_child([sys.executable, "-c", _SETUP_CODE, *map(str, paths)])
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        raw.append(wall)
        scaled.append(ref_wall)
    return raw, scaled


def cli_commands(wl, paths, workdir: Path, rng) -> list[list[str]]:
    """The workload's CLI sequence with its seeded arguments filled in."""
    fill = {"seed": str(int(rng.integers(0, 2**63))), "out": str(workdir / "cli.csv")}
    commands = []
    for template in wl.cli:
        cmd, *rest = template
        args = [cmd]
        if cmd != "counterexample":
            args += ["--config", str(paths[rest[0]]), "--format", "json"]
            rest = rest[1:]
            if cmd == "eval":
                fill["x1"], fill["x2"] = map(repr, eval_points(CONFIGS[template[1]], rng, 1)[0])
        elif "--format" not in rest:
            args += ["--format", "json"]
        args += [part.format(**fill) for part in rest]
        commands.append(args)
    return commands


def check_cli(runner: Runner, args: list[str], proc, paths, full: bool = True) -> str:
    """Check one CLI command's exit code and output; return a digest of it.

    With ``full`` false a sample file is only hashed (a repeat of a checked one).
    """
    cmd = args[0]
    runner.attempted += 1
    failed_before = runner.failed
    name = next((n for n, p in paths.items() if str(p) in args), None)
    where = f"cli {cmd} {name or ''}"
    expect_code = 3 if cmd == "validate" and CONFIGS[name].verdict == "Invalid" else 0
    if proc.returncode != expect_code:
        runner.fail(f"{where}: exit {proc.returncode}, expected {expect_code}\n{proc.stderr}")
        return "error"
    digest = proc.stdout
    if cmd == "validate":
        doc = json.loads(proc.stdout)
        runner.check_report(doc, doc["verdict"], name, where)
    elif cmd == "counterexample":
        if json.loads(proc.stdout).get("reproduced") is not True:
            runner.fail(f"{where}: counterexample not reproduced")
    elif cmd == "eval":
        doc = json.loads(proc.stdout)
        runner.check_eval(name, doc["x1"], doc["x2"], doc["survival"], doc["ac_density"],
                          tuple(doc["hazard_gradient"]), where)
    elif cmd == "sample" and full:
        digest = check_cli_sample(runner, args, proc, name, where)
    elif cmd == "sample":
        with open(args[args.index("--out") + 1], "rb") as fh:
            digest = hashlib.file_digest(fh, "sha1").hexdigest()
    if runner.failed > failed_before:
        runner.failed = failed_before + 1  # one command, one failure
    return sha(digest.encode())


def check_cli_sample(runner: Runner, args, proc, name, where) -> str:
    """The CLI sample file: well-formed, and its ties and marginals match the closed form."""
    n, out = (args[args.index(flag) + 1] for flag in ("--n", "--out"))
    n = int(n)
    pool = runner.pool[name]
    scan = runner.scan_csv(Path(out), n, where, pool["cut"])
    if scan is None:
        return "error"
    digest, ties, exceed = scan
    if proc.stdout.strip() != f"wrote {n} pairs ({ties} tied) to {out}":
        runner.fail(f"{where}: unexpected output {proc.stdout!r}")
    for bad in binomial_failures(pool, n, ties, exceed, runner.configs[name].reference.tie_mass):
        runner.fail(f"{where}: {bad}")
    return digest


def cli_sequence(runner, commands, paths, full: bool):
    """Run the CLI sequence once; return its wall time, unscaled and at
    reference speed, and the outputs' digests."""
    raw, scaled, outs = 0.0, 0.0, []
    for args in commands:
        wall, ref_wall, proc = timed_child([sys.executable, "-m", "bisurv.cli", *args])
        raw += wall
        scaled += ref_wall
        outs.append(check_cli(runner, args, proc, paths, full=full))
    return raw, scaled, outs


def traced_cli_session(runner, tracer, commands, paths, workdir: Path) -> None:
    """Run the CLI sequence once under ``cli_probe.py`` and merge its spans."""
    for i, args in enumerate(commands):
        spans_path = workdir / f"cli-spans-{i}.json"
        _, _, proc = timed_child(
            [sys.executable, str(BENCH / "cli_probe.py"), str(spans_path), *args])
        check_cli(runner, args, proc, paths)
        if spans_path.exists():
            doc = json.loads(spans_path.read_text())
            tracer.merge(doc["spans"], doc["counters"])


# ---------------------------------------------------------------------------
# a whole run
# ---------------------------------------------------------------------------

def round_rng(seed: int, index: int):
    return np.random.default_rng([seed, index])


WARMUP_ROUND = 2**31


def class_p50(round_means, op: str, scale: float) -> float:
    """Median over rounds of each class's mean latency, averaged over ``op``'s classes.

    Where a round holds several requests of a class, their mean comes first:
    on table models a request's cost depends on its points or draws, so the
    median of single requests jumps between the modes of that cost.
    """
    meds = [statistics.median(v) for (o, *_), v in round_means.items() if o == op and v]
    return scale * sum(meds) / len(meds) if meds else math.nan


def vec_throughput(latency) -> float:
    """Points of all vectorized survival batches per second spent on them.

    ``eval_points_per_s`` is the median over rounds of this, per round.
    """
    vec = [(size, v) for (op, _, size), v in latency.items() if op == "vec" and v]
    return sum(size * len(v) for size, v in vec) / sum(sum(v) for _, v in vec)


def class_p90(latency, op: str, scale: float):
    """p90 over all requests of ``op`` when there are at least 100 of them."""
    vals = [t for (o, *_), v in latency.items() if o == op for t in v]
    if len(vals) < 100:
        return None, len(vals)
    return scale * statistics.quantiles(vals, n=10)[-1], len(vals)


def run_workload(name: str, seed: int, seconds: float, trace: int, spec: dict,
                 selftest_hook=None) -> dict:
    from bisurv.config import load_model_config

    wl = WORKLOADS[name]
    workdir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    try:
        paths = write_fixtures(workdir, wl.configs)
        models = {c: load_model_config(paths[c]) for c in wl.configs}
        runner = Runner(wl, CONFIGS, models, workdir, round_rng(seed, WARMUP_ROUND + 1))
        if selftest_hook is not None:
            return selftest_hook(runner, wl)
        commands = cli_commands(wl, paths, workdir, round_rng(seed, WARMUP_ROUND + 2))
        for req in make_round(wl, CONFIGS, round_rng(seed, WARMUP_ROUND)):
            runner.run(req)
        runner.latency.clear()
        if trace:
            metrics = traced_run(runner, wl, seed, seconds, commands, paths, workdir, spec)
        else:
            metrics = timed_run(runner, wl, seed, seconds, commands, paths, spec)
        runner.check_pools()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        parent = workdir.parent
        if parent.exists() and not any(parent.iterdir()):
            parent.rmdir()
    log(f"{name}: attempted {runner.attempted}, failed {runner.failed}, "
        f"failed_op_frac {runner.failed / max(runner.attempted, 1):.6g}")
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}


def timed_run(runner, wl, seed, seconds, commands, paths, spec) -> dict:
    setup, setup_scaled = measure_setup(paths.values())
    # the CLI sequences are spread evenly over the run's request time, so
    # that they and the requests see the same machine
    session, session_scaled, outs = [], [], []
    rounds, busy = 0, 0.0
    #: per request class, the mean latency of each round, unscaled and scaled
    means, means_scaled = defaultdict(list), defaultdict(list)
    throughput, throughput_scaled = [], []
    runner.calibrated = True
    while rounds == 0 or busy < seconds or len(session) < CLI_REPEATS:
        if len(session) < CLI_REPEATS and busy >= len(session) * seconds / CLI_REPEATS:
            wall, scaled, digests = cli_sequence(runner, commands, paths, not session)
            session.append(wall)
            session_scaled.append(scaled)
            outs.append(digests)
            continue
        marks = {k: len(v) for k, v in runner.latency.items()}
        runner.cal.clear()
        start = time.perf_counter()
        for req in make_round(wl, runner.configs, round_rng(seed, rounds)):
            runner.run(req)
        busy += time.perf_counter() - start
        rounds += 1
        speed = CAL_REF_S / statistics.median(runner.cal)
        this_round = {k: v[marks.get(k, 0):] for k, v in runner.latency.items()}
        for key, v in this_round.items():
            if v:  # empty only if every request of the class failed
                means[key].append(statistics.fmean(v))
                means_scaled[key].append(statistics.fmean(v) * speed)
        if any(v for (op, *_), v in this_round.items() if op == "vec"):
            throughput.append(vec_throughput(this_round))
            throughput_scaled.append(throughput[-1] / speed)
    if any(d != outs[0] for d in outs):
        runner.fail("cli: repeated sequence gave different output")

    def times(setup, session, means, throughput):
        return {
            "setup_s": statistics.median(setup),
            "cli_session_s": statistics.median(session),
            "sample_p50_ms": class_p50(means, "sample", 1e3),
            "validate_p50_ms": class_p50(means, "validate", 1e3),
            "eval_p50_us": class_p50(means, "eval", 1e6),
            "eval_points_per_s": statistics.median(throughput),
        }

    raw = times(setup, session, means, throughput)
    values = times(setup_scaled, session_scaled, means_scaled, throughput_scaled)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values["accuracy_digits"] = digits(runner.p90_rel_err)
    log(f"{wl.name}: {rounds} rounds in {busy:.2f} s; "
        f"setup runs {SETUP_REPEATS}, CLI sequences {CLI_REPEATS} of {len(commands)} commands")
    log("  unscaled times: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    for (op, cname, size), v in sorted(runner.latency.items()):
        log(f"  {op:8s} {cname:14s} {size:>8d}  n={len(v):4d}  "
            f"median {statistics.median(v) * 1e3:10.3f} ms")
    for op, scale, unit in (("sample", 1e3, "ms"), ("validate", 1e3, "ms"), ("eval", 1e6, "us")):
        p90, count = class_p90(runner.latency, op, scale)
        note = f"{p90:.6g} {unit}" if p90 is not None else "not reported (fewer than 100)"
        log(f"  {op}_p90_{unit}: {note}; {count} requests")
    log(f"  p90 relative error {runner.p90_rel_err:.3g} over {len(runner.errors)} checks; "
        f"max by check: "
        + ", ".join(f"{k} {v:.3g}" for k, v in sorted(runner.max_err.items())))
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]}


def traced_run(runner, wl, seed, seconds, commands, paths, workdir, spec) -> dict:
    from bisurv.config import load_model_config
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    tracer.install()
    try:
        for path in paths.values():
            load_model_config(path)
    finally:
        tracer.uninstall()
    traced_cli_session(runner, tracer, commands, paths, workdir)

    rounds = max(1, round(seconds * wl.traced_rounds_per_s))
    first_request_span = len(tracer.spans)
    passes = {}
    for traced in (False, True):
        runner.counts.clear()
        total, digests = 0.0, []
        if traced:
            runner.pooling = False  # the same draws again: pool them once
            tracer.install()
        try:
            for index in range(rounds):
                for req in make_round(wl, runner.configs, round_rng(seed, index)):
                    elapsed, digest = runner.run(req, tracer if traced else None)
                    total += elapsed
                    digests.append(digest)
        finally:
            tracer.uninstall()
        passes[traced] = (total, digests)
    (plain, plain_out), (traced_s, traced_out) = passes[False], passes[True]
    if plain_out != traced_out:
        bad = sum(a != b for a, b in zip(plain_out, traced_out))
        for _ in range(bad):
            runner.fail("traced request output differs from the untraced one")
    counters = dict(tracer.counters, **runner.counts)
    counters.update({"trace.requests_s": traced_s, "trace.overhead_s": traced_s - plain,
                     "trace.overhead_frac": (traced_s - plain) / plain if plain else 0.0})
    values = layer_metrics(tracer.spans, counters)
    log(f"{wl.name}: {rounds} rounds untraced {plain:.3f} s, traced {traced_s:.3f} s, "
        f"{len(tracer.spans)} spans")
    log_shares(layer_metrics(tracer.spans, {}, first_request_span))
    return {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in spec["per_layer"]}


def log_shares(values: dict) -> None:
    """Where the traced requests spent their time, by module self time."""
    total = sum(v for k, v in values.items() if k.startswith("request.") and k.endswith(".s"))
    if not total:
        return
    shares = ", ".join(f"{m} {values.get(f'{m}.self_s', 0.0) / total:.1%}"
                       for m in ("baseline", "marginals", "bivariate", "validity", "sampling",
                                 "request"))
    log(f"  self time of traced requests ({total:.3f} s): {shares}")
    log(f"  sampling.write_csv busy share: {values.get('sampling.write_csv.s', 0.0) / total:.1%}")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_all(seed: int, seconds: float) -> int:
    """Each workload in its own process; print every metric by name and unit."""
    spec = load_spec()
    code = 0
    for wl in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", wl["name"],
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{wl['name']} trace={trace}: exit {proc.returncode}")
                code = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"== {wl['name']} (trace {trace}): correct {result['correct']}, "
                  f"attempted {result['attempted']}, failed {result['failed']}, "
                  f"failed_op_frac {result['failed'] / result['attempted']:.6g}")
            for key, m in result["metrics"].items():
                print(f"  {key:56s} {m['value']:16.6g} {m['unit']}")
            code |= not result["correct"]
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "bisurv" / "__init__.py").is_file():
        log(f"bisurv sources not found under {SRC}")
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_test:
        from selftest import self_test
        return self_test()
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"unknown workload {args.workload!r}")
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, args.trace, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
