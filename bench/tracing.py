"""Span tracing of bisurv's layers from outside the library.

``Tracer.install`` wraps public functions and methods of bisurv at the
name where each caller looks them up (a function imported by name into
several modules is replaced in each of them), records one span per call
and restores everything on ``uninstall``.  Spans stay in memory as
``[name, start, end, parent, elems, flags, kind]`` until the run ends;
``layer_metrics`` turns them into per-layer totals.

A span's busy time counts only calls with no enclosing call of the same
name; its self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from collections import defaultdict

import numpy as np

NAME, START, END, PARENT, ELEMS, FLAGS, KIND = range(7)
OUTER, IN_SAMPLING = 1, 2

MAP_SPANS = ("baseline.cumulative_hazard", "baseline.inverse_cumulative_hazard",
             "baseline.hazard", "marginals.cumulative_hazard", "marginals.hazard")
_BASELINE_METHODS = ("cumulative_hazard", "inverse_cumulative_hazard", "hazard",
                     "combine", "difference")
_MARGINAL_METHODS = ("cumulative_hazard", "hazard")
_VALIDITY_FUNCTIONS = ("combined_validation", "check_marginal_conditions",
                       "check_hazard_rate_conditions", "check_two_increasing",
                       "check_functional_equation", "hazard_gradient")


def _size(x) -> int:
    return 1 if np.ndim(x) == 0 else int(np.size(x))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._active: dict[str, int] = defaultdict(int)
        self._sampling = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def call(self, name: str, fn, args, kwargs, elems: int = 0, kind: str = ""):
        flags = (OUTER if not self._active[name] else 0) | (IN_SAMPLING if self._sampling else 0)
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, elems, flags, kind]
        self.spans.append(span)
        self._stack.append(idx)
        self._active[name] += 1
        sampling = name.startswith("sampling.sample_")
        self._sampling += sampling
        span[START] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[END] = time.perf_counter()
            self._sampling -= sampling
            self._active[name] -= 1
            self._stack.pop()

    def _wrapper(self, name: str, fn, describe=None, kind: str = "", around=None):
        """Trace ``fn`` as ``name``; ``describe(args, kwargs)`` gives (elems, kind)."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            n, k = describe(args, kwargs) if describe else (0, kind)
            if around is not None:
                return around(lambda: self.call(name, fn, args, kwargs, n, k), args, kwargs)
            return self.call(name, fn, args, kwargs, n, k)
        return traced

    # -- installing ------------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_function(self, modules, original, wrapper) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    def install(self) -> None:
        import bisurv
        from bisurv import baseline, bivariate, cli, config, marginals, sampling, validity
        modules = (bisurv, baseline, marginals, bivariate, validity, sampling, config, cli)

        def first_arg(args, kwargs):
            return (_size(args[1]) if len(args) > 1 else 0), ""

        for cls in (baseline.BaselineModel, baseline.Exponential, baseline.Weibull,
                    baseline.Pareto, baseline.CustomHazard):
            for meth in _BASELINE_METHODS:
                if meth in vars(cls):
                    self._patch(cls, meth, self._wrapper(
                        f"baseline.{meth}", vars(cls)[meth], first_arg))
        for cls in (marginals.MarginalModel, marginals.ProportionalHazard,
                    marginals.LinearFailureRate, marginals.FromHazard):
            for meth in _MARGINAL_METHODS:
                if meth in vars(cls):
                    self._patch(cls, meth, self._wrapper(
                        f"marginals.{meth}", vars(cls)[meth], first_arg))
        self._patch_function(modules, marginals.limit_hazard_ratio, self._wrapper(
            "marginals.limit_hazard_ratio", marginals.limit_hazard_ratio))

        for cls, kind in ((bivariate.GeneralBivariateModel, "general"),
                          (bivariate.PHBivariateModel, "ph")):
            self._patch(cls, "log_survival", self._log_survival(vars(cls)["log_survival"], kind))
            self._patch(cls, "ac_density", self._wrapper(
                "bivariate.ac_density", vars(cls)["ac_density"], kind=kind))
        base_cls = bivariate.GeneralBivariateModel.__mro__[1]
        self._patch(base_cls, "decompose",
                    self._wrapper("bivariate.decompose", vars(base_cls)["decompose"]))

        def model_kind(args, kwargs):
            return 0, "ph" if isinstance(args[0], bivariate.PHBivariateModel) else "general"

        def knots(args, kwargs):
            grid = args[1] if len(args) > 1 else kwargs.get("grid")
            return len((grid or validity.GridSpec.default()).r0_knots), ""

        for fname in _VALIDITY_FUNCTIONS:
            original = getattr(validity, fname)
            if fname == "check_two_increasing":
                wrapper = self._wrapper(f"validity.{fname}", original, knots,
                                        around=self._two_increasing)
            else:
                wrapper = self._wrapper(f"validity.{fname}", original, model_kind)
            self._patch_function(modules, original, wrapper)

        def pairs(args, kwargs):
            return int(args[1] if len(args) > 1 else kwargs["n"]), ""

        for fname in ("sample_ph", "sample_general"):
            original = getattr(sampling, fname)
            self._patch_function(modules, original,
                                 self._wrapper(f"sampling.{fname}", original, pairs))
        self._patch(sampling.SampleBatch, "write_csv",
                    self._wrapper("sampling.write_csv", vars(sampling.SampleBatch)["write_csv"],
                                  around=self._write_csv))
        self._patch_function(modules, config.load_model_config, self._wrapper(
            "config.load_model_config", config.load_model_config))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- wrappers with extra bookkeeping -----------------------------------------

    def _log_survival(self, fn, kind: str):
        @functools.wraps(fn)
        def traced(model, x1, x2):
            if np.ndim(x1) == 0 and np.ndim(x2) == 0:
                return self.call("bivariate.log_survival.scalar", fn, (model, x1, x2), {}, 1, kind)
            n = max(_size(x1), _size(x2))
            return self.call("bivariate.log_survival.vector", fn, (model, x1, x2), {}, n, kind)
        return traced

    def _two_increasing(self, run, args, kwargs):
        tracemalloc.start()
        try:
            return run()
        finally:
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            self.counters["validity.check_two_increasing.bytes_computed"] += peak
            self.counters["validity.check_two_increasing.peak_mb"] = max(
                self.counters["validity.check_two_increasing.peak_mb"], peak / 1e6)

    def _write_csv(self, run, args, kwargs):
        batch, fh = args[0], args[1]
        try:
            start = fh.tell()
        except (OSError, ValueError):
            start = None
        try:
            return run()
        finally:
            self.counters["sampling.write_csv.rows"] += batch.n
            if start is not None:
                self.counters["sampling.write_csv.bytes"] += fh.tell() - start

    # -- merging spans recorded in another process --------------------------------

    def merge(self, spans: list[list], counters: dict) -> None:
        offset = len(self.spans)
        for span in spans:
            span = list(span)
            if span[PARENT] >= 0:
                span[PARENT] += offset
            self.spans.append(span)
        for key, value in counters.items():
            if key.endswith("peak_mb"):
                self.counters[key] = max(self.counters[key], value)
            else:
                self.counters[key] += value


def layer_metrics(spans: list[list], counters: dict, first: int = 0) -> dict[str, float]:
    """Per-name calls/elems/s/self_s, per-module self_s and derived rates.

    Only spans from index ``first`` on are counted.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    out: dict[str, float] = defaultdict(float)
    for i in range(first, len(spans)):
        name, start, end, _, elems, flags, kind = spans[i]
        dur = end - start
        names = [name, f"{name}.{kind}"] if kind else [name]
        for key in names:
            out[f"{key}.calls"] += 1
            out[f"{key}.elems"] += elems
            if flags & OUTER:
                out[f"{key}.s"] += dur
        out[f"{name}.self_s"] += dur - child[i]
        out[f"{name.split('.')[0]}.self_s"] += dur - child[i]
        if name in MAP_SPANS and flags & IN_SAMPLING:
            out["sampling.map_elems"] += elems
        if name == "validity.check_two_increasing":
            out["validity.check_two_increasing.rectangles"] += (elems * (elems - 1) // 2) ** 2
            out[f"validity.check_two_increasing.k{elems}.calls"] += 1
            out[f"validity.check_two_increasing.k{elems}.s"] += dur
    out.update(counters)

    def per(num: str, den: str, scale: float) -> float:
        return out[num] / out[den] * scale if out[den] else 0.0

    for fname in ("sample_ph", "sample_general"):
        out[f"sampling.{fname}.pairs"] = out[f"sampling.{fname}.elems"]
        out[f"sampling.{fname}.us_per_pair"] = per(f"sampling.{fname}.s",
                                                   f"sampling.{fname}.pairs", 1e6)
    out["sampling.write_csv.us_per_row"] = per("sampling.write_csv.s",
                                               "sampling.write_csv.rows", 1e6)
    pairs = out["sampling.sample_ph.pairs"] + out["sampling.sample_general.pairs"]
    out["sampling.map_elems_per_pair"] = out["sampling.map_elems"] / pairs if pairs else 0.0
    for kind in ("ph", "general"):
        vec = f"bivariate.log_survival.vector.{kind}"
        out[f"{vec}.ns_per_elem"] = per(f"{vec}.s", f"{vec}.elems", 1e9)
        for name in ("bivariate.log_survival.scalar", "bivariate.ac_density"):
            out[f"{name}.{kind}.us_per_call"] = per(f"{name}.{kind}.s",
                                                    f"{name}.{kind}.calls", 1e6)
        cv = f"validity.combined_validation.{kind}"
        out[f"{cv}.ms_per_call"] = per(f"{cv}.s", f"{cv}.calls", 1e3)
    for knots in (16, 32, 48):
        k = f"validity.check_two_increasing.k{knots}"
        out[f"{k}.ms_per_call"] = per(f"{k}.s", f"{k}.calls", 1e3)
    return out
