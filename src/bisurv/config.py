"""Model specification grammar and JSON configuration files.

Baselines:  ``exponential``, ``weibull:<alpha>``, ``pareto``,
``custom:<path>`` where ``<path>`` is a two-column CSV ``x,hazard``
interpolated piecewise-linearly.

Marginals:  ``ph:<delta>``, ``lfr:<a>``, ``hazard:<path>`` (same CSV form).

A model config file is JSON with exactly one of two shapes::

    {"baseline": "<grammar>", "theta": <real>,
     "marginals": ["<grammar>", "<grammar>"]}

    {"baseline": "<grammar>", "theta123": [<t1>, <t2>, <t3>]}

plus optional ``grid`` (knots / r0_min / r0_max / wedge_margin / t_knots /
t_min / t_max) and ``tol`` overrides.  Relative CSV paths are resolved
against the config file's directory.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .baseline import BaselineModel, CustomHazard, Exponential, Pareto, Weibull
from .bivariate import GeneralBivariateModel, PHBivariateModel
from .errors import BisurvError, ConfigError
from .marginals import FromHazard, LinearFailureRate, MarginalModel, ProportionalHazard
from .validity import GridSpec

__all__ = [
    "ModelConfig",
    "parse_baseline",
    "parse_marginal",
    "load_model_config",
    "load_hazard_table",
]


def _number(value, what: str, cast=float):
    """``cast(value)``; a value that does not convert raises ConfigError."""
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{what} must be a number, got {value!r}") from exc


def _parse_positive(text: str, what: str) -> float:
    value = _number(text, what)
    if not (np.isfinite(value) and value > 0):
        raise ConfigError(f"{what} must be positive, got {value}")
    return value


def load_hazard_table(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Read a two-column ``x,hazard`` CSV; a non-numeric header row is allowed."""
    if not path.exists():
        raise ConfigError(f"hazard table not found: {path}")
    xs: list[float] = []
    hs: list[float] = []
    with open(path, newline="") as fh:
        for row_no, row in enumerate(csv.reader(fh), start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) < 2:
                raise ConfigError(f"{path}:{row_no}: expected two columns")
            try:
                x, h = float(row[0]), float(row[1])
            except ValueError:
                if row_no == 1:
                    continue  # header line
                raise ConfigError(f"{path}:{row_no}: non-numeric entry") from None
            xs.append(x)
            hs.append(h)
    if len(xs) < 2:
        raise ConfigError(f"{path}: need at least two data rows")
    return np.asarray(xs), np.asarray(hs)


def parse_baseline(spec: str, base_dir: Path | None = None) -> BaselineModel:
    """Build a baseline from its grammar string."""
    spec = spec.strip()
    kind, _, arg = spec.partition(":")
    kind = kind.lower()
    if kind == "exponential" and not arg:
        return Exponential()
    if kind == "pareto" and not arg:
        return Pareto()
    if kind == "weibull":
        return Weibull(alpha=_parse_positive(arg, "weibull shape"))
    if kind == "custom":
        if not arg:
            raise ConfigError("custom baseline needs a CSV path: custom:<path>")
        path = Path(arg)
        if not path.is_absolute() and base_dir is not None:
            path = base_dir / path
        xs, hs = load_hazard_table(path)
        try:
            return CustomHazard.from_table(xs, hs)
        except BisurvError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    raise ConfigError(f"unknown baseline spec {spec!r}")


def parse_marginal(spec: str, baseline: BaselineModel,
                   base_dir: Path | None = None) -> MarginalModel:
    """Build a marginal from its grammar string."""
    spec = spec.strip()
    kind, _, arg = spec.partition(":")
    kind = kind.lower()
    if kind == "ph":
        return ProportionalHazard(baseline, _parse_positive(arg, "ph exponent"))
    if kind == "lfr":
        return LinearFailureRate(_parse_positive(arg, "lfr coefficient"))
    if kind == "hazard":
        if not arg:
            raise ConfigError("hazard marginal needs a CSV path: hazard:<path>")
        path = Path(arg)
        if not path.is_absolute() and base_dir is not None:
            path = base_dir / path
        xs, hs = load_hazard_table(path)
        try:
            return FromHazard.from_table(xs, hs, x_L=baseline.x_L)
        except BisurvError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    raise ConfigError(f"unknown marginal spec {spec!r}")


@dataclass
class ModelConfig:
    """A parsed model configuration plus grid and tolerance overrides."""

    model: GeneralBivariateModel
    grid: GridSpec
    tol: float | None = None


def _build_grid(raw: dict | None, knots_override: int | None) -> GridSpec:
    if not isinstance(raw, (dict, type(None))):
        raise ConfigError("'grid' must be an object")
    raw = dict(raw or {})
    if knots_override is not None:
        raw["knots"] = knots_override
    allowed = {"knots", "r0_min", "r0_max", "wedge_margin",
               "t_knots", "t_min", "t_max"}
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"unknown grid keys: {sorted(unknown)}")
    try:
        return GridSpec.default(
            knots=_number(raw.get("knots", 16), "knots", int),
            r0_min=_number(raw.get("r0_min", 0.05), "r0_min"),
            r0_max=_number(raw.get("r0_max", 8.0), "r0_max"),
            wedge_margin=_number(raw.get("wedge_margin", 0.02), "wedge_margin"),
            t_knots=_number(raw.get("t_knots", 8), "t_knots", int),
            t_min=_number(raw.get("t_min", 0.1), "t_min"),
            t_max=_number(raw.get("t_max", 4.0), "t_max"),
        )
    except BisurvError as exc:
        raise ConfigError(f"bad grid settings: {exc}") from exc


def load_model_config(path, *, theta_override: float | None = None,
                      grid_knots_override: int | None = None,
                      tol_override: float | None = None) -> ModelConfig:
    """Load and validate a model configuration file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    base_dir = path.parent

    if "baseline" not in raw:
        raise ConfigError(f"{path}: missing 'baseline'")
    baseline = parse_baseline(str(raw["baseline"]), base_dir)

    has_marginals = "marginals" in raw
    has_theta123 = "theta123" in raw
    if has_marginals == has_theta123:
        raise ConfigError(f"{path}: exactly one of 'marginals'/'theta123' required")

    try:
        if has_theta123:
            t = raw["theta123"]
            if not (isinstance(t, (list, tuple)) and len(t) == 3):
                raise ConfigError(f"{path}: 'theta123' must be a list of three reals")
            t = [_number(v, f"{path}: 'theta123' entry") for v in t]
            if theta_override is not None:
                raise ConfigError(
                    f"{path}: --theta override applies to the 'marginals' form only")
            model = PHBivariateModel(baseline, *t)
        else:
            margs = raw["marginals"]
            if not (isinstance(margs, (list, tuple)) and len(margs) == 2):
                raise ConfigError(f"{path}: 'marginals' must list two specs")
            theta = theta_override if theta_override is not None else raw.get("theta")
            if theta is None:
                raise ConfigError(f"{path}: 'theta' required with 'marginals'")
            m1 = parse_marginal(str(margs[0]), baseline, base_dir)
            m2 = parse_marginal(str(margs[1]), baseline, base_dir)
            model = GeneralBivariateModel(baseline, m1, m2,
                                          _number(theta, f"{path}: 'theta'"))
    except ConfigError:
        raise
    except BisurvError as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    grid = _build_grid(raw.get("grid"), grid_knots_override)
    tol = tol_override if tol_override is not None else raw.get("tol")
    if tol is not None:
        tol = _number(tol, f"{path}: 'tol'")
        if not (np.isfinite(tol) and tol > 0):
            raise ConfigError(f"{path}: 'tol' must be positive")
    return ModelConfig(model=model, grid=grid, tol=tol)
