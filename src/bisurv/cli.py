"""Command-line front-end.

Subcommands: ``eval``, ``rect``, ``validate``, ``check-fe``, ``decompose``,
``sample``, ``counterexample``.  Models come from a JSON config file
(``--config``) with flag overrides; see the ``config`` module for the file
format.

Exit codes are a stable contract:

* 0 -- success / model valid
* 1 -- counterexample reproduction failure
* 2 -- usage or configuration error
* 3 -- invalid model (failed validity condition, divergent decomposition)
* 4 -- inconclusive (non-convergent limit or numeric failure)
* 5 -- I/O failure

All numeric output is locale-independent and byte-stable across runs for
identical inputs; table values carry 12 significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .baseline import Exponential
from .bivariate import GeneralBivariateModel
from .config import ModelConfig, load_model_config
from .errors import (
    BisurvError,
    ConfigError,
    DecompositionError,
    DomainError,
    InvalidModelError,
    ModelError,
    NumericError,
    SamplerError,
    UndefinedComponentError,
)
from .marginals import LinearFailureRate
from .sampling import sample_general
from .validity import (
    INCONCLUSIVE,
    INVALID,
    VALID,
    check_functional_equation,
    combined_validation,
    hazard_gradient,
    lfr_exponential_cross_bound,
    rounding_bound,
)

EXIT_OK = 0
EXIT_REPRODUCTION_FAILED = 1
EXIT_USAGE = 2
EXIT_INVALID = 3
EXIT_INCONCLUSIVE = 4
EXIT_IO = 5

_VERDICT_EXIT = {VALID: EXIT_OK, INVALID: EXIT_INVALID,
                 INCONCLUSIVE: EXIT_INCONCLUSIVE}


def _fmt(value: float) -> str:
    return format(float(value), ".12g")


def _strict_json(value):
    """``value`` with each non-finite float spelled as the table prints it
    (``"inf"``, ``"-inf"``, ``"nan"``), which strict JSON parsers accept;
    ``null`` keeps its meaning of undecided or unavailable."""
    if isinstance(value, float) and not math.isfinite(value):
        return _fmt(value)
    if isinstance(value, dict):
        return {key: _strict_json(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(v) for v in value]
    return value


def _emit(args, payload: dict, table_lines: list[str]) -> None:
    """Print as table/json/csv and optionally write JSON to --out."""
    fmt = getattr(args, "format", "table")
    if fmt == "json":
        print(json.dumps(_strict_json(payload), indent=2))
    elif fmt == "csv":
        # flat name,value rows; nested report structures stay in the JSON form
        for key, value in payload.items():
            if isinstance(value, (list, tuple)) and all(
                    isinstance(v, (int, float)) for v in value):
                value = ";".join(_fmt(v) for v in value)
            elif isinstance(value, float):
                value = _fmt(value)
            elif not isinstance(value, (str, int, bool, type(None))):
                continue
            print(f"{key},{value}")
    else:
        for line in table_lines:
            print(line)
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="ascii", newline="\n") as fh:
            json.dump(_strict_json(payload), fh, indent=2)
            fh.write("\n")


def _load(args) -> ModelConfig:
    return load_model_config(
        args.config,
        theta_override=getattr(args, "theta", None),
        grid_knots_override=getattr(args, "grid_knots", None),
        tol_override=getattr(args, "tol", None),
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_eval(args) -> int:
    model = _load(args).model
    x1, x2 = float(args.x1), float(args.x2)
    surv = model.survival(x1, x2)
    payload: dict = {"x1": x1, "x2": x2, "survival": surv}
    lines = [f"survival = {_fmt(surv)}"]
    if x1 == x2 or math.isnan(x1) or math.isnan(x2):
        # only survival is defined on the diagonal, and it refuses NaN
        payload["note"] = "diagonal"
        lines.append("point lies on the diagonal; density and gradient undefined")
    else:
        try:
            dens = model.ac_density(x1, x2)
            payload["ac_density"] = dens
            lines.append(f"ac_density = {_fmt(dens)}")
        except UndefinedComponentError:
            payload["ac_density"] = None
            lines.append("ac_density = undefined (purely singular model)")
        g1, g2 = hazard_gradient(model, x1, x2)
        payload["hazard_gradient"] = [g1, g2]
        lines.append(f"hazard_gradient = ({_fmt(g1)}, {_fmt(g2)})")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_rect(args) -> int:
    cfg = _load(args)
    p = cfg.model.rectangle_probability(args.a1, args.b1, args.a2, args.b2)
    payload = {"a1": args.a1, "b1": args.b1, "a2": args.a2, "b2": args.b2,
               "probability": p}
    lines = [f"rectangle ({_fmt(args.a1)}, {_fmt(args.b1)}) x "
             f"({_fmt(args.a2)}, {_fmt(args.b2)}) probability = {_fmt(p)}"]
    a = max(abs(cfg.model.survival(x, y)) for x in (args.a1, args.b1) for y in (args.a2, args.b2))
    if p < -rounding_bound(a):  # as validate's cell rule
        lines.append("probability is negative: not a valid bivariate model")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_validate(args) -> int:
    cfg = _load(args)
    report = combined_validation(cfg.model, cfg.grid, cfg.tol)
    _emit(args, report.to_json_dict(), report.to_table().splitlines())
    return _VERDICT_EXIT[report.verdict]


def cmd_checkfe(args) -> int:
    cfg = _load(args)
    rep = check_functional_equation(cfg.model, cfg.grid)
    payload = rep.to_json_dict()
    lines = [
        f"functional-equation max residual = {_fmt(rep.max_residual)} "
        f"over {rep.n_points} points",
        f"worst point (x1, x2, t) = ({_fmt(rep.witness[0])}, "
        f"{_fmt(rep.witness[1])}, {_fmt(rep.witness[2])})",
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_decompose(args) -> int:
    cfg = _load(args)
    dec = cfg.model.decompose()
    payload = {"alpha": dec.alpha, "u1": dec.u1, "u2": dec.u2,
               "singular_mass": dec.singular_mass,
               "weight_in_range": dec.weight_in_range}
    lines = [
        f"alpha = {_fmt(dec.alpha)}",
        f"u1 = {_fmt(dec.u1)}",
        f"u2 = {_fmt(dec.u2)}",
        f"singular_mass = {_fmt(dec.singular_mass)}",
    ]
    if not dec.weight_in_range:
        lines.append("mixture weight outside [0, 1]: not a valid bivariate model")
    _emit(args, payload, lines)
    return EXIT_OK if dec.weight_in_range else EXIT_INVALID


def cmd_sample(args) -> int:
    batch = sample_general(_load(args).model, args.n, args.seed)
    if args.out:
        batch.to_csv(args.out)
        print(f"wrote {batch.n} pairs ({batch.tie_count} tied) to {args.out}")
    else:
        batch.write_csv(sys.stdout)
    return EXIT_OK


def cmd_counterexample(args) -> int:
    """Reproduce the built-in invalidity demonstration end to end.

    Linear-failure-rate marginals (a = 1.5) over the exponential baseline
    with theta = 3 satisfy the functional equation exactly, yet fail to be
    a distribution: a rectangle carries negative probability, the reduced
    cross-derivative bound is violated at (5, 3), and the diagonal limits
    fall below theta.  Exit 0 when all of that is detected, 1 otherwise.
    """
    a, theta = 1.5, 3.0
    base = Exponential()
    marg = LinearFailureRate(a)
    model = GeneralBivariateModel(base, marg, marg, theta)

    rect = model.rectangle_probability(1.0, 2.0, 3.0, 5.0)
    lhs = lfr_exponential_cross_bound(a, 5.0, 3.0)
    u = model.kernels[0].u  # both marginals are the same LFR law
    usum = u + u
    fe = check_functional_equation(model)

    reproduced = (rect < 0.0 and lhs > theta and usum < theta
                  and fe.max_residual < 1e-9)
    lines = [
        f"LFR-exponential demonstration (a = {_fmt(a)}, theta = {_fmt(theta)})",
        f"rectangle (1, 2) x (3, 5) probability = {_fmt(rect)}",
        f"cross-derivative bound at (5, 3): lhs = {_fmt(lhs)} vs theta = {_fmt(theta)}",
        f"diagonal limits: u1 + u2 = {_fmt(usum)} vs theta = {_fmt(theta)}",
        f"functional-equation max residual = {_fmt(fe.max_residual)} "
        f"(threshold 1e-09)",
        f"invalidity reproduced: {'yes' if reproduced else 'NO'}",
    ]
    payload = {
        "a": a, "theta": theta,
        "rectangle": [1.0, 2.0, 3.0, 5.0],
        "rectangle_probability": rect,
        "cross_bound_lhs_at_5_3": lhs,
        "u1_plus_u2": usum,
        "functional_equation_max_residual": fe.max_residual,
        "reproduced": reproduced,
    }
    _emit(args, payload, lines)
    return EXIT_OK if reproduced else EXIT_REPRODUCTION_FAILED


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(sub, config_required: bool = True) -> None:
    sub.add_argument("--config", required=config_required,
                     help="path to the JSON model config")
    sub.add_argument("--format", choices=("json", "table", "csv"),
                     default="table", help="output format (default: table)")
    sub.add_argument("--out", help="also write JSON (or CSV for sample) here")
    sub.add_argument("--theta", type=float, default=None,
                     help="override theta from the config ('marginals' form)")
    sub.add_argument("--grid-knots", type=int, default=None, dest="grid_knots",
                     help="override the per-axis grid knot count")
    sub.add_argument("--tol", type=float, default=None,
                     help="override the inequality tolerance floor")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bisurv",
        description="Evaluate, validate, decompose and sample bivariate "
                    "survival models with a diagonal singular component.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="survival, density and gradient at a point")
    _add_common(p)
    p.add_argument("x1", type=float)
    p.add_argument("x2", type=float)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("rect", help="rectangle probability by inclusion-exclusion")
    _add_common(p)
    for name in ("a1", "b1", "a2", "b2"):
        p.add_argument(name, type=float)
    p.set_defaults(func=cmd_rect)

    p = sub.add_parser("validate", help="run all validity checks")
    _add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("check-fe", help="functional-equation residual on the grid")
    _add_common(p)
    p.set_defaults(func=cmd_checkfe)

    p = sub.add_parser("decompose", help="mixture weight and singular mass")
    _add_common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("sample", help="draw pairs and write CSV (x1,x2,tied)")
    _add_common(p)
    p.add_argument("--n", type=int, required=True, help="number of pairs")
    p.add_argument("--seed", type=int, default=0, help="64-bit RNG seed")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("counterexample",
                       help="reproduce the built-in invalidity demonstration")
    _add_common(p, config_required=False)
    p.set_defaults(func=cmd_counterexample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (ConfigError, DomainError, ModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InvalidModelError, DecompositionError) as exc:
        print(f"invalid model: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (NumericError, SamplerError) as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except BisurvError as exc:  # safety net for anything uncategorized
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
