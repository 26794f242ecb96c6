"""Grid-based validity diagnostics for bivariate models.

A model built by the general construction need not be a probability
distribution.  The paper characterises validity through the marginals and
through the hazard rates; off the diagonal both reduce to facts about the
kernels ``Q_i(s) = R_i(R0^{-1}(s))`` of :class:`~bisurv.marginals.WedgeKernel`
at ``s = R0(hi) - R0(lo)``, with grid pairs ``(hi, lo)`` as witnesses.  One
grid pass maps the knots once, keeps those whose ``x`` and ``R0`` are finite
and calls each kernel once, on every pair of them; each report reads it and
names the rows it lists:

* ``combined_validation`` -- the ``validate`` report, each condition once:
  ``marginal-i`` (weight bounds ``theta <= u1 + u2 <= 2*theta``),
  ``marginal-ii`` (density sign ``h >= 0``), ``hazard-i`` (``G >= 0``),
  ``hazard-ii`` (divergence of the total hazard) and ``two-increasing``.
* ``check_marginal_conditions`` / ``check_hazard_rate_conditions`` -- the
  two theorems as the paper states them: ``i``, ``ii``; and ``i``, ``ii``,
  ``iii`` (marginal ``ii``'s row) and ``iv`` (marginal ``i``'s row).
* ``check_two_increasing`` -- every grid cell, each against its own
  rounding bound, on the survival grid assembled from the pass's ``Q``:
  every rectangle spanned by grid knots is a union of cells.
* ``check_functional_equation`` -- residual of the stability identity
  ``S(x1 (+) t, x2 (+) t) = S(x1, x2) * S(t, t)`` at knots that stay finite
  when shifted; every model built here satisfies it to rounding, valid or not.
* ``hazard_gradient`` -- the model's closed-form hazard gradient, which
  ``check_hazard_gradient_identity`` (the identity's differential form) and
  ``reconstruct_survival_from_gradient`` (survival by integrating it) read.

Grid checks falsify; they never prove.  A ``Valid`` verdict means "no
violation found on grid" and the reports say so.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .baseline import BaselineModel
from .bivariate import Decomposition, GeneralBivariateModel, _validate_theta
from .errors import DomainError, ModelError, NumericError
from .marginals import FromHazard, MarginalModel, WedgeKernel

__all__ = [
    "GridSpec",
    "ConditionResult",
    "ValidationReport",
    "ResidualReport",
    "check_marginal_conditions",
    "check_hazard_rate_conditions",
    "check_two_increasing",
    "check_functional_equation",
    "check_hazard_gradient_identity",
    "hazard_gradient",
    "reconstruct_survival_from_gradient",
    "combined_validation",
    "lfr_exponential_cross_bound",
]

VALID = "Valid"
INVALID = "Invalid"
INCONCLUSIVE = "Inconclusive"

#: cumulative hazard a marginal must reach for the divergence heuristic
_DIVERGENCE_TARGET = 30.0

#: cumulative-hazard levels probed by the divergence heuristic
_DIVERGENCE_PROBES = (8.0, 16.0, 32.0, 64.0, 128.0)


@np.errstate(invalid="ignore")  # a bound of the wrong sign or not finite: refused later
def _geomspace(start, stop, num: int) -> tuple[float, ...]:
    """``tuple(np.geomspace(start, stop, num))`` for real bounds, by numpy's
    steps: the ends made positive by the sign of ``start``, ``10 **
    (arange(num) * step + log10(start))`` with ``np.linspace``'s step (it
    divides first only where the step underflows to 0, which a nonzero
    difference of two ``log10`` never does), then the exact ends.  A zero
    bound raises :class:`~bisurv.errors.DomainError`, also for ``num < 2``.
    """
    start, stop = float(start), float(stop)
    if start == 0.0 or stop == 0.0:
        raise DomainError(f"grid bounds must not be zero, got {start} and {stop}")
    if num < 2:
        return (start,) * num
    sign = -1.0 if start < 0.0 else 1.0
    log_start = np.log10(sign * start)
    step = (np.log10(sign * stop) - log_start) / (num - 1)
    knots = np.power(10.0, np.arange(num, dtype=float) * step + log_start)
    if sign < 0.0:
        knots *= sign  # as numpy: a NaN keeps its sign bit
    knots = knots.tolist()
    knots[0], knots[-1] = start, stop
    return tuple(knots)


@dataclass(frozen=True)
class GridSpec:
    """Evaluation grid in cumulative-hazard coordinates: axis knots
    ``r0_knots`` (log-spaced by default; a pair of knots counts as off the
    diagonal when they differ by at least ``wedge_margin`` in R0) and the
    shifts ``t_r0_knots`` of the functional-equation and gradient checks.
    """

    r0_knots: tuple[float, ...]
    wedge_margin: float = 0.02
    t_r0_knots: tuple[float, ...] = ()

    def __post_init__(self):
        knots = np.asarray(self.r0_knots, dtype=float)
        t_knots = np.asarray(self.t_r0_knots, dtype=float)
        if not (knots.ndim == 1 and knots.size and (np.isfinite(knots) & (knots > 0)).all()):
            raise DomainError("grid knots must be finite, positive cumulative-hazard values")
        if not (knots[1:] > knots[:-1]).all():
            raise DomainError("grid knots must be strictly increasing")
        if not (t_knots.ndim == 1 and np.isfinite(t_knots).all()):
            raise DomainError("grid shift knots must be finite")
        if not (math.isfinite(self.wedge_margin) and self.wedge_margin >= 0):
            raise DomainError(f"wedge_margin must be finite and >= 0, got {self.wedge_margin}")
        object.__setattr__(self, "r0_knots", tuple(knots.tolist()))
        object.__setattr__(self, "t_r0_knots", tuple(t_knots.tolist()))

    @classmethod
    def default(cls, *, knots: int = 16, r0_min: float = 0.05, r0_max: float = 8.0,
                wedge_margin: float = 0.02, t_knots: int = 8,
                t_min: float = 0.1, t_max: float = 4.0) -> "GridSpec":
        """Standard grid: log-spaced knots covering bulk and tail, at least 8
        per axis (smaller grids can still be built directly).

        The knots are ``np.geomspace(r0_min, r0_max, knots)`` and
        ``np.geomspace(t_min, t_max, t_knots)`` bit for bit (:func:`_geomspace`).
        A zero or negative axis bound raises :class:`~bisurv.errors.DomainError`,
        a count that is not an integer ``TypeError``.
        """
        if knots < 8:
            raise DomainError("default grids need at least 8 knots per axis")
        if t_knots < 0:
            raise DomainError(f"the shift knot count must be >= 0, got {t_knots}")
        knots, t_knots = operator.index(knots), operator.index(t_knots)
        return cls(
            r0_knots=_geomspace(r0_min, r0_max, knots),
            wedge_margin=wedge_margin,
            t_r0_knots=_geomspace(t_min, t_max, t_knots),
        )

    @property
    def counts(self) -> tuple[int, int]:
        return (len(self.r0_knots), len(self.t_r0_knots))

    def axis_points(self, baseline: BaselineModel) -> np.ndarray:
        return np.asarray(
            baseline.inverse_cumulative_hazard(np.asarray(self.r0_knots)), dtype=float
        )

    def t_points(self, baseline: BaselineModel) -> np.ndarray:
        return np.asarray(
            baseline.inverse_cumulative_hazard(np.asarray(self.t_r0_knots)), dtype=float
        )

    def _pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Masks over ``(j, k)`` of the knot pairs ``j > k`` and of those
        clear of the diagonal margin."""
        knots = np.asarray(self.r0_knots)
        gap = np.subtract.outer(knots, knots)  # knots increase: gap > 0 iff j > k
        low = gap > 0
        return low, gap >= self.wedge_margin if self.wedge_margin > 0 else low

    def wedge_pairs(self, baseline: BaselineModel) -> tuple[np.ndarray, np.ndarray]:
        """All ordered knot pairs (hi, lo) clear of the diagonal margin."""
        j, k = np.nonzero(self._pairs()[1])
        xs = self.axis_points(baseline)
        return xs[j], xs[k]

    def describe(self) -> dict:
        return {
            "axis_knots_r0": list(self.r0_knots),
            "t_knots_r0": list(self.t_r0_knots),
            "wedge_margin_r0": self.wedge_margin,
            "counts": list(self.counts),
        }


@dataclass
class ConditionResult:
    """Outcome of one checkable condition: ``passed`` is None when it could
    not be decided (failed limit, skipped grid, heuristic), ``margin`` the
    worst signed slack (negative = violated), ``witness`` where it occurred.
    """

    cid: str
    label: str
    passed: bool | None
    witness: tuple[float, ...] | None = None
    margin: float | None = None
    note: str = ""

    def to_json_dict(self) -> dict:
        return {
            "id": self.cid,
            "label": self.label,
            "pass": self.passed,
            "witness": list(self.witness) if self.witness is not None else None,
            "margin": self.margin,
            "note": self.note,
        }


@dataclass
class ValidationReport:
    """Per-condition verdicts with worst witnesses and diagnostics."""

    verdict: str
    conditions: list[ConditionResult]
    diagnostics: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "conditions": [c.to_json_dict() for c in self.conditions],
            "diagnostics": self.diagnostics,
        }

    def to_table(self) -> str:
        lines = [f"verdict: {self.verdict}"]
        if self.verdict == VALID:
            lines[0] += "  (no violation found on grid)"
        labels = [f"{c.cid}: {c.label}" for c in self.conditions]
        width = max(map(len, ["condition", *labels]))
        header = f"{'condition':<{width}} {'pass':<6} {'margin':>13}  witness"
        lines.append(header)
        lines.append("-" * len(header))
        for c, label in zip(self.conditions, labels):
            status = {True: "yes", False: "NO", None: "?"}[c.passed]
            margin = f"{c.margin:.6g}" if c.margin is not None else "-"
            witness = ("(" + ", ".join(f"{v:.6g}" for v in c.witness) + ")"
                       if c.witness is not None else "-")
            lines.append(f"{label:<{width}} {status:<6} {margin:>13}  {witness}")
            if c.note:
                lines.append(f"{'':<{width}} {c.note}")
        return "\n".join(lines)


@dataclass
class ResidualReport:
    """Maximum residual of an identity over a grid."""

    max_residual: float
    witness: tuple[float, ...]
    n_points: int
    relative: bool

    def to_json_dict(self) -> dict:
        return {
            "max_residual": self.max_residual,
            "witness": list(self.witness),
            "n_points": self.n_points,
            "relative": self.relative,
        }


def _combine_verdict(conditions: list[ConditionResult]) -> str:
    if any(c.passed is False for c in conditions):
        return INVALID
    if any(c.passed is None for c in conditions):
        return INCONCLUSIVE
    return VALID


# ---------------------------------------------------------------------------
# Diagonal limits
# ---------------------------------------------------------------------------


def _weight_condition(cid: str, kernels, theta: float, names=("u1", "u2")):
    """Mixture-weight bounds ``theta <= u1 + u2 <= 2*theta`` on the kernels'
    diagonal limits ``u_i = Q_i'(0+)``, each taken once (a function of ``s``
    alone), decided by ``Decomposition.weight_in_range`` on ``alpha = 2 -
    (u1 + u2)/theta``.  Returns the condition, the limits (None where a
    limit failed; its error becomes the note) and ``alpha``, or None unless
    both limits are finite.
    """
    label = "mixture-weight-bounds"
    us: list[float | None] = []
    notes = []
    for k in kernels:
        try:
            us.append(k.u)
        except NumericError as exc:
            us.append(None)
            notes.append(str(exc))
    if notes:
        return ConditionResult(cid, label, None, note="; ".join(notes)), us, None
    total = us[0] + us[1]
    if math.isinf(total):
        return ConditionResult(cid, label, False, margin=-math.inf,
                               note=f"{names[0]}+{names[1]} diverges"), us, None
    margin = min(total - theta, 2.0 * theta - total)
    alpha = 2.0 - total / theta
    passed = Decomposition(alpha, us[0], us[1], 1.0 - alpha).weight_in_range
    note = f"{names[0]}+{names[1]} = {total:.12g}, bounds [{theta:.12g}, {2 * theta:.12g}]"
    return ConditionResult(cid, label, passed, margin=float(margin), note=note), us, alpha


# ---------------------------------------------------------------------------
# Grid conditions
# ---------------------------------------------------------------------------


@np.errstate(over="ignore")  # Q past the float range, at a finite s: S = 0
def _grid_pass(kernels, grid: GridSpec, facts=()):
    """``(xs, R0(xs), r0(xs), low, wide, lost, terms)`` on the knots whose
    ``x`` and ``R0`` are finite, mapped once: ``s = |R0(x_j) - R0(x_k)|`` of
    the pairs ``j > k`` (``low``; ``wide`` those the rows read:
    :meth:`GridSpec._pairs`) in row order, then ``_DIVERGENCE_PROBES`` if
    ``facts`` (:func:`_rows`) name ``divergence``; each kernel's ``(Q, Q',
    Q'')`` there from one call (``Q`` alone unless they name ``density``);
    ``lost``, the requested ``wide`` pairs the other knots take with them."""
    base = kernels[0].baseline
    xs = grid.axis_points(base)
    r0_cum = np.asarray(base.cumulative_hazard(xs), dtype=float)
    low, wide = grid._pairs()
    lost = 0
    keep = np.isfinite(xs) & np.isfinite(r0_cum)
    if not keep.all():
        xs, r0_cum, kept = xs[keep], r0_cum[keep], np.ix_(keep, keep)
        lost = np.count_nonzero(wide) - np.count_nonzero(wide[kept])
        low, wide = low[kept], wide[kept]
    r0 = np.asarray(base.hazard(xs), dtype=float)
    s = np.abs(np.subtract.outer(r0_cum, r0_cum)[low])
    if "divergence" in facts:
        s = np.concatenate([s, _DIVERGENCE_PROBES])
    terms = [kernel.q_slopes(s) if "density" in facts else (kernel.q(s), None, None)
             for kernel in kernels]
    return xs, r0_cum, r0, low, wide, lost, terms


@np.errstate(over="ignore")  # theta * R0 past the float range: S = 0
def _survival_grid(ev, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """``(xs, S)``, ``S = model.survival(xs[:, None], xs[None, :])`` bit for
    bit on the pass ``ev``'s knots, by ``_log_survival_array``'s steps:
    ``w * -theta - Q_i(s)``, ``w = R0(min)``, kernel 1 where ``x1 >= x2``
    and ``q(0) = 0`` on the diagonal."""
    xs, r0_cum, _, low, _, _, terms = ev
    q1, q2 = (q[:np.count_nonzero(low)] for q, _, _ in terms)
    ge = np.greater_equal.outer(xs, xs)
    q = np.zeros(ge.shape)
    q[low] = np.where(ge[low], q1, q2)
    q.T[low] = np.where(ge.T[low], q1, q2)
    log_s = np.minimum.outer(r0_cum, r0_cum) * -theta
    log_s -= q
    return xs, np.exp(log_s, out=log_s)


def _grid_bound_condition(cid: str, label: str, lhs_by_marg, rhs, hi, lo,
                          *, lower_zero: bool = False, floor: float = 1e-8,
                          lost: int = 0) -> ConditionResult:
    """Check ``lhs <= rhs`` (optionally also ``lhs >= 0``) over grid points.
    ``lhs_by_marg`` holds one array per marginal over the pairs ``(hi, lo)``;
    marginal 1 sits on the wedge ``x1 >= x2``, so its witnesses are
    ``(hi, lo)`` and those of marginal 2 are ``(lo, hi)``.  A point whose
    ``lhs`` is not finite is skipped; when none is, nothing is masked.  The
    ``lost`` pairs of the requested grid count as skipped on both wedges.
    """
    worst, worst_witness, passed = math.inf, None, True
    decided, skipped = 0, 2 * lost
    least = -np.maximum(floor, 1e-6 * np.abs(rhs))  # the most negative margin that passes
    for lhs, (x1, x2) in zip(lhs_by_marg, [(hi, lo), (lo, hi)]):
        lhs = np.asarray(lhs, dtype=float)
        bound, low = rhs, least
        ok = np.isfinite(lhs)
        if not ok.all():
            skipped += lhs.size - int(np.count_nonzero(ok))
            lhs, bound, low, x1, x2 = lhs[ok], rhs[ok], least[ok], x1[ok], x2[ok]
        if lhs.size == 0:
            continue
        decided += lhs.size
        margin = bound - lhs
        if lower_zero:
            np.minimum(margin, lhs, out=margin)
        passed &= not (margin < low).any()
        i = int(margin.argmin())
        if margin[i] < worst:
            worst = float(margin[i])
            worst_witness = (float(x1[i]), float(x2[i]))
    if decided == 0:
        return ConditionResult(cid, label, None,
                               note=f"all {skipped} grid points skipped")
    note = f"{decided} grid points" + (f", {skipped} skipped" if skipped else "")
    return ConditionResult(cid, label, passed, witness=worst_witness,
                           margin=worst, note=note)


def _divergence_condition(cid: str, tails) -> ConditionResult:
    """The total hazard diverges: each ``Q`` at the far probes (``tails``) grows
    past 30.  A heuristic, so a hazard that decays too fast is undecided."""
    passed: bool | None = True
    worst_tail = math.inf
    for ri in (tail.tolist() for tail in tails):
        growing = all(a < b for a, b in zip(ri, ri[1:]))
        worst_tail = min(worst_tail, ri[-1])
        if not (growing and ri[-1] > _DIVERGENCE_TARGET):
            passed = None
    return ConditionResult(
        cid, "total-hazard-divergence", passed,
        margin=worst_tail - _DIVERGENCE_TARGET,
        note=("heuristic: cumulative hazard %.4g at the farthest probe, "
              "target > %g with monotone growth; divergence cannot be proven "
              "from finite samples" % (worst_tail, _DIVERGENCE_TARGET)),
    )


def _rows(kernels, theta: float, grid: GridSpec, floor: float, ids, names=("u1", "u2")):
    """The kernel rows that ``ids`` (fact -> the report's id) names, in its
    order, with the limits and ``alpha`` of :func:`_weight_condition` and
    the :func:`_grid_pass` they read.  ``weights`` and ``density`` are
    always named; ``density`` is the sign ``h >= 0`` as the bound ``r0(lo) *
    (Q' - Q''/Q') <= theta * r0(lo)``, skipping points with ``Q' = 0``.
    ``gradient`` (``G >= 0``, i.e. ``0 <= Q' <= theta``) and ``divergence``
    of the total hazard are built only when named."""
    rows = {}
    rows["weights"], us, alpha = _weight_condition(ids["weights"], kernels, theta, names)
    xs, _, r0, low, wide, lost, terms = ev = _grid_pass(kernels, grid, ids)
    keep, (j, k) = wide[low], np.nonzero(wide)  # the rows' pairs, among all and by index
    hi, lo, r0_lo, m = xs[j], xs[k], r0[k], keep.size
    slopes = [(q1[:m][keep], q2[:m][keep]) for _, q1, q2 in terms]
    terms[:] = [(q, None, None) for q, _, _ in terms]  # the survival grid reads Q alone
    bound = theta * r0_lo
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = [r0_lo * (q1 - q2 / q1) for q1, q2 in slopes]
    rows["density"] = _grid_bound_condition(ids["density"], "cross-derivative-bound",
                                            cross, bound, hi, lo, floor=floor, lost=lost)
    if "gradient" in ids:
        with np.errstate(invalid="ignore"):
            gradient = [q1 * r0_lo for q1, _ in slopes]
        rows["gradient"] = _grid_bound_condition(
            ids["gradient"], "gradient-nonnegativity-bound", gradient, bound, hi, lo,
            lower_zero=True, floor=floor, lost=lost)
    if "divergence" in ids:
        rows["divergence"] = _divergence_condition(ids["divergence"],
                                                   [q[m:] for q, _, _ in terms])
    return [rows[fact] for fact in ids], us, alpha, ev


# ---------------------------------------------------------------------------
# The paper's two theorems, each a view of the kernel rows
# ---------------------------------------------------------------------------


def check_marginal_conditions(model: GeneralBivariateModel,
                              grid: GridSpec | None = None,
                              tol: float | None = None) -> ValidationReport:
    """Do the model's marginals qualify for a valid bivariate distribution?
    (i): ``theta <= u1 + u2 <= 2*theta`` for the diagonal hazard-ratio
    limits.  (ii): at every off-diagonal grid point the cross log-derivative
    of the wedge survival factor, ``r0(lo) * (Q' - Q''/Q')``, is at most
    ``theta * r0(lo)``.
    """
    grid = grid or GridSpec.default()
    floor = 1e-8 if tol is None else float(tol)
    theta = model.theta
    conditions, us, alpha, _ = _rows(model.kernels, theta, grid, floor,
                                     {"weights": "i", "density": "ii"})
    alpha = None if alpha is None else model.decompose().alpha  # PH: (theta1 + theta2) / theta
    diagnostics = {"u1": us[0], "u2": us[1], "alpha": alpha, "theta": theta,
                   "grid": grid.describe(),
                   "tolerance": f"lhs <= rhs + max({floor:g}, 1e-6*|rhs|)"}
    return ValidationReport(_combine_verdict(conditions), conditions, diagnostics)


def _as_kernel(handle, baseline: BaselineModel) -> WedgeKernel:
    if isinstance(handle, WedgeKernel):
        if handle.baseline != baseline:
            raise ModelError("wedge kernel handle is over a different baseline")
        return handle
    if isinstance(handle, MarginalModel):
        if handle.x_L != baseline.x_L:
            raise ModelError("hazard handle left endpoint differs from baseline")
        return WedgeKernel(handle, baseline)
    if callable(handle):
        return WedgeKernel(FromHazard(handle, x_L=baseline.x_L), baseline)
    raise ModelError(
        f"expected a WedgeKernel, MarginalModel or callable hazard, got {handle!r}")


def check_hazard_rate_conditions(r1, r2, baseline: BaselineModel, theta: float,
                                 grid: GridSpec | None = None,
                                 tol: float | None = None) -> ValidationReport:
    """Do two hazard functions qualify as marginal hazards of a valid model?

    ``r1``/``r2`` may be callables, :class:`MarginalModel` instances or
    :class:`~bisurv.marginals.WedgeKernel` instances over ``baseline`` (a
    kernel brings its diagonal limit ``u``).  Conditions: ``0 <= Q' <=
    theta`` (i), divergence of the total hazard by a heuristic, never Valid
    when undecided (ii), and :func:`check_marginal_conditions`' rows (ii),
    the density sign, as (iii) and (i), the weight bounds on ``v1 + v2``, as
    (iv).  The sign ``theta Q' + Q'' - Q'^2 >= 0`` is the bound wherever
    ``Q' > 0``; where ``Q' < 0`` (i) fails, and where ``Q' = 0`` it reads
    ``Q'' = r_m'/r0^2 >= 0``, true of a nonnegative hazard at a zero.
    """
    theta = _validate_theta(theta)
    grid = grid or GridSpec.default()
    floor = 1e-8 if tol is None else float(tol)
    kernels = [_as_kernel(r, baseline) for r in (r1, r2)]
    conditions, vs, alpha, _ = _rows(kernels, theta, grid, floor,
                                     {"gradient": "i", "divergence": "ii", "density": "iii",
                                      "weights": "iv"}, names=("v1", "v2"))
    diagnostics = {"v1": vs[0], "v2": vs[1], "theta": theta, "alpha": alpha,
                   "grid": grid.describe(),
                   "divergence_heuristic": f"cumulative hazard > {_DIVERGENCE_TARGET} at "
                                           f"R0 probes {list(_DIVERGENCE_PROBES)}"}
    return ValidationReport(_combine_verdict(conditions), conditions, diagnostics)


def lfr_exponential_cross_bound(a: float, x_hi: float, x_lo: float) -> float:
    """Reduced cross-derivative statistic for LFR marginals over the
    exponential baseline: ``2*a*d - 1/d + 1`` with ``d = x_hi - x_lo``.

    Lies below the exact cross-derivative by ``1/(d*(1+2*a*d))``, so any
    value exceeding ``theta`` certifies that the exact bound fails too.
    Used by the built-in counterexample reproduction.
    """
    d = float(x_hi) - float(x_lo)
    if d <= 0:
        raise DomainError("requires x_hi > x_lo")
    return 2.0 * a * d - 1.0 / d + 1.0


# ---------------------------------------------------------------------------
# Two-increasing rectangle check
# ---------------------------------------------------------------------------


def rounding_bound(a, tol: float = 0.0):
    """``2^-49 a + 5e-324 + tol``, ``a`` a cell's largest ``|corner|``; in place on arrays."""
    a *= 2.0**-49
    a += 5e-324 + tol
    return a


def _cell_rule(s: np.ndarray, tol: float) -> tuple[float, int, int, bool]:
    """``(value, i, k, passed)`` of the grid cells of a square matrix ``s``
    (``n >= 2``): cell ``(i, k)`` is the rectangle of rows ``i, i + 1`` and
    columns ``k, k + 1``, and every grid rectangle is a disjoint union of
    cells, so it carries probability >= 0 exactly when they all do.

    The cells are ``dc = c1[:-1] - c1[1:]`` with ``c1 = s[:, :-1] - s[:, 1:]``.
    With ``A`` the largest ``|s|`` of a cell's four corners and ``u = 2^-53``,
    each ``c1`` entry rounds by at most ``2uA`` and their difference by
    ``u(4A + 4uA)``, so a computed cell is within ``8.01uA`` of the exact
    inclusion-exclusion of the computed ``s``, which is what
    ``rectangle_probability`` (``bisurv rect``) sums.  A cell fails where
    ``dc + 16uA + tol < 0`` or is NaN: below ``-16uA`` its exact mass is
    negative.  The bound ``16uA`` is ``A * 2^-49`` plus one smallest subnormal
    (:func:`rounding_bound`, which ``bisurv rect`` reads too): it covers the
    product's rounding where it underflows, and an infinite corner makes it
    ``inf``, so a ``-inf`` cell fails and a ``+inf`` one passes.

    The witness is the first ``argmin(dc)`` in C order (the first NaN, if
    any), unless that cell passes and another fails: then it is the most
    negative failing cell.  Its value is the direct sum ``s[i,k] - s[i+1,k]
    - s[i,k+1] + s[i+1,k+1]``, left to right; on entries in ``[0, A]`` it is
    within ``5.01uA`` of the exact sum, so a failing witness reads negative.
    O(n^2) time and memory.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        c1 = s[:, :-1] - s[:, 1:]
        dc = c1[:-1] - c1[1:]
        a = np.abs(s)
        np.maximum(a[:-1], a[1:], out=a[:-1])  # numpy buffers the overlap
        bound = rounding_bound(np.maximum(a[:-1, :-1], a[:-1, 1:], out=c1[:-1]), tol)  # in c1
        bound += dc
        ok = bound >= 0.0  # False where NaN
        cell = int(np.argmin(dc))
        passed = bool(ok.all())
        if not passed and ok.flat[cell]:
            cell = int(np.argmin(np.where(ok, np.inf, dc)))
        i, k = divmod(cell, s.shape[0] - 1)
        value = float(s[i, k] - s[i + 1, k] - s[i, k + 1] + s[i + 1, k + 1])
    return value, i, k, passed


def check_two_increasing(model, grid: GridSpec | None = None,
                         tol: float | None = None) -> ValidationReport:
    """Every rectangle spanned by grid knots carries probability >= 0: no
    grid cell lies below minus its own rounding bound plus ``tol``, 0 by
    default (:func:`_cell_rule`), in O(n^2) time and memory.

    The witness is the most negative cell, or the most negative failing
    cell where that one passes; the reported probability is its
    inclusion-exclusion sum, what ``rectangle_probability`` gives there.
    """
    grid = grid or GridSpec.default()
    xs, s = _survival_grid(_grid_pass(model.kernels, grid), model.theta)
    return _rectangle_report(xs, s, grid, tol)


def _rectangle_report(xs, s, grid: GridSpec, tol) -> ValidationReport:
    """:func:`check_two_increasing`'s report on the survival grid ``s`` at ``xs``."""
    tol = 0.0 if tol is None else float(tol)
    if len(xs) < 2:
        cond = ConditionResult("two-increasing", "rectangle-nonnegativity", True,
                               note="degenerate grid; vacuously satisfied")
        return ValidationReport(VALID, [cond], {"grid": grid.describe()})
    # P(i,k) = P(xs[i] < X1 <= xs[i+1], xs[k] < X2 <= xs[k+1])
    worst, i, k, passed = _cell_rule(s, tol)
    rect = (float(xs[i]), float(xs[i + 1]), float(xs[k]), float(xs[k + 1]))
    where = f"({rect[0]:.6g}, {rect[1]:.6g}) x ({rect[2]:.6g}, {rect[3]:.6g})"
    cond = ConditionResult(
        "two-increasing", "rectangle-nonnegativity", passed,
        witness=(rect[0], rect[2]), margin=worst,
        note=(f"most negative rectangle {where} has probability {worst:.6g}" if passed else
              f"negative grid cell {where} has probability {worst:.6g}"),
    )
    diagnostics = {"grid": grid.describe(), "min_rectangle_probability": worst,
                   "rectangle": list(rect),
                   "tolerance": f"cell >= -(2^-49*A + 5e-324 + {tol:g}), "
                                f"A its largest |corner|"}
    return ValidationReport(VALID if passed else INVALID, [cond], diagnostics)


# ---------------------------------------------------------------------------
# Functional-equation residual
# ---------------------------------------------------------------------------


def _shiftable(base: BaselineModel, xs, ts) -> np.ndarray:
    """Mask of the knots ``xs`` finite under the largest shift (``combine`` rises in t)."""
    if len(ts) == 0:
        raise DomainError("the shift checks need at least one shift point (t_knots >= 1)")
    ok = np.isfinite(xs)
    ok[ok] = np.isfinite(base.combine(xs[ok], float(np.max(ts))))
    return ok


def _worst_over_shifts(base: BaselineModel, ts, x1, x2, residual,
                       *, relative: bool) -> ResidualReport:
    """Largest ``residual(t, x1 (+) t, x2 (+) t)`` over the raw shift points
    ``ts``; the witness is the unshifted pair and the shift of the first
    largest residual.  A point whose residual is NaN, which the residual
    could not evaluate, is left out and not counted."""
    if len(x1) == 0:
        raise DomainError("the shift checks need at least one grid point finite under every "
                          "shift; the gradient identity takes pairs wedge_margin apart")
    worst = -1.0
    witness = (float(x1[0]), float(x2[0]), float(ts[0]))
    total = 0
    for t in ts:
        t = float(t)
        res = residual(t, np.asarray(base.combine(x1, t), dtype=float),
                       np.asarray(base.combine(x2, t), dtype=float))
        ok = ~np.isnan(res)
        total += int(np.count_nonzero(ok))
        i = int(np.argmax(np.where(ok, res, -1.0)))
        if res[i] > worst:
            worst = float(res[i])
            witness = (float(x1[i]), float(x2[i]), t)
    return ResidualReport(max_residual=max(worst, 0.0), witness=witness,
                          n_points=total, relative=relative)


def check_functional_equation(model, grid: GridSpec | None = None,
                              t_knots=None) -> ResidualReport:
    """Max log-space residual of S(x1 (+) t, x2 (+) t) = S(x1,x2) * S(t,t).

    ``model`` needs only a ``baseline``, whose semigroup ``(+)`` and grid
    maps place the points, and ``log_survival`` on scalars and arrays, so
    any survival function over a baseline can be checked: the shift is its
    own diagonal, ``-ln S(t, t)``.  Any model built from the wedge
    construction satisfies the equation identically, and its residual
    measures only arithmetic error, whether or not it is a valid
    distribution; a survival function outside the class reads its own
    departure.  ``t_knots`` takes explicit shift points in raw coordinates;
    by default the grid's shift knots are used.  Without a shift point there
    is nothing to check: ``DomainError``.  Knots whose image under some
    shift is not finite are left out (:func:`_shiftable`), and so is a point
    whose ``ln S`` is ``-inf`` or absorbs a nonzero shift, where the
    residual would read NaN or the shift itself.
    """
    grid = grid or GridSpec.default()
    base = model.baseline
    ts = grid.t_points(base) if t_knots is None else np.asarray(t_knots, dtype=float)
    xs = grid.axis_points(base)
    xs = xs[_shiftable(base, xs, ts)]
    x1, x2 = np.repeat(xs, len(xs)), np.tile(xs, len(xs))
    log_s = np.asarray(model.log_survival(x1, x2), dtype=float)

    def residual(t, y1, y2):
        shift = -float(model.log_survival(t, t))
        with np.errstate(invalid="ignore"):  # -inf - -inf, left out below
            res = np.abs(np.asarray(model.log_survival(y1, y2), dtype=float) - log_s + shift)
        return np.where(log_s - shift == log_s if shift else log_s == -np.inf, np.nan, res)

    return _worst_over_shifts(base, ts, x1, x2, residual, relative=False)


# ---------------------------------------------------------------------------
# Hazard gradient, its identity, and survival reconstruction
# ---------------------------------------------------------------------------


def hazard_gradient(model, x1, x2):
    """Closed-form hazard gradient (-d ln S/dx1, -d ln S/dx2) off the diagonal.

    For the larger coordinate the component is ``Q_i'(s) * r0(x_i)``, with
    ``Q_i'(s) = r_i(d)/r0(d)`` at the wedge difference ``d``; for the
    smaller it is ``theta * r0(x_i) - Q_other'(s) * r0(x_i)``.  Raises
    on diagonal input, where the singular mass makes the gradient undefined.
    A pair of scalars gives a pair of floats, anything else a pair of arrays.
    """
    return model._hazard_gradient(x1, x2)


def check_hazard_gradient_identity(model, grid: GridSpec | None = None) -> ResidualReport:
    """Differential form of the stability identity, relative residual.

    Checks ``sum_i grad_i(x1 (+) t, x2 (+) t) * r0(t)/r0(x_i (+) t)`` against
    ``theta * r0(t)`` (:func:`hazard_gradient`, the baseline's hazards) over
    shift knots (``DomainError`` without one) and the off-diagonal pairs of
    the knots :func:`check_functional_equation` keeps.
    """
    grid = grid or GridSpec.default()
    base = model.baseline
    xs, ts = grid.axis_points(base), grid.t_points(base)
    ok = _shiftable(base, xs, ts)
    j, k = np.nonzero(grid._pairs()[1] & ok & ok[:, None])  # the pairs (hi, lo)

    def residual(t, y1, y2):
        g1, g2 = hazard_gradient(model, y1, y2)
        r0t = float(base.hazard(t))
        with np.errstate(divide="ignore", invalid="ignore"):
            lhs = g1 * r0t / base.hazard(y1) + g2 * r0t / base.hazard(y2)
        return np.abs(lhs - model.theta * r0t) / (model.theta * r0t)

    return _worst_over_shifts(base, ts, xs[np.r_[j, k]], xs[np.r_[k, j]], residual,
                              relative=True)


#: absolute and relative tolerance of each quadrature along the gradient path
_PATH_QUAD_TOL = 1e-10


def reconstruct_survival_from_gradient(model, x1: float, x2: float) -> float:
    """Survival recovered by integrating the hazard gradient along axes.

    Integrates the first component along (u, x_L) for u in [x_L, x1], then
    the second along (x1, u) for u in [x_L, x2], splitting at the diagonal
    crossing where the gradient jumps.  Must agree with the direct survival
    for any model of this class.
    """
    from scipy.integrate import quad  # the only use of scipy in this module

    xl = model.baseline.x_L
    x1, x2 = float(x1), float(x2)
    if not (math.isfinite(x1) and math.isfinite(x2)) or x1 < xl or x2 < xl:
        raise DomainError(f"coordinates must be finite and >= {xl}")
    total = err_budget = 0.0

    def add_piece(fn, a: float, b: float) -> None:
        nonlocal total, err_budget
        lo, hi = math.nextafter(a, b), math.nextafter(b, a)
        if lo >= b:  # no float strictly inside [a, b]: nothing to add
            return
        # a node that rounds onto an end, where the gradient is one-sided, is taken just inside
        val, err = quad(lambda u: fn(min(max(u, lo), hi)), a, b,
                        epsabs=_PATH_QUAD_TOL, epsrel=_PATH_QUAD_TOL, limit=200)
        total += val
        err_budget += err

    def g1(u):
        return hazard_gradient(model, u, xl)[0]

    def g2(u):
        return hazard_gradient(model, x1, u)[1]

    add_piece(g1, xl, x1)
    add_piece(g2, xl, min(x1, x2))
    if x2 > x1:
        add_piece(g2, x1, x2)
    if err_budget > 1e-6 * max(1.0, abs(total)):
        raise NumericError(
            f"gradient path quadrature error {err_budget:.3g} too large",
            samples=[total, err_budget],
        )
    return math.exp(-total)


# ---------------------------------------------------------------------------
# Merged report for the CLI
# ---------------------------------------------------------------------------


def combined_validation(model, grid: GridSpec | None = None,
                        tol: float | None = None) -> ValidationReport:
    """Each of the paper's conditions once, from one grid pass: ``marginal-i``
    (weight bounds), ``marginal-ii`` (density sign), ``hazard-i`` (``0 <= Q'
    <= theta``), ``hazard-ii`` (divergence, a heuristic) and ``two-increasing``
    (no grid rectangle of negative probability).  Hazard-rate (iii) and (iv)
    are ``marginal-ii`` and ``marginal-i`` (:func:`check_hazard_rate_conditions`).
    """
    grid = grid or GridSpec.default()
    floor = 1e-8 if tol is None else float(tol)
    rows, us, alpha, ev = _rows(model.kernels, model.theta, grid, floor,
                                {"weights": "marginal-i", "density": "marginal-ii",
                                 "gradient": "hazard-i", "divergence": "hazard-ii"})
    alpha = None if alpha is None else model.decompose().alpha  # the model's own, exact for PH
    xs, s = _survival_grid(ev, model.theta)
    del ev  # the pass's pair arrays go before the cell rule's arrays come
    rectangles = _rectangle_report(xs, s, grid, tol)
    conditions = [*rows, *rectangles.conditions]
    worst = rectangles.diagnostics.get("min_rectangle_probability")
    diagnostics = {key: value for key, value in (
        ("grid", grid.describe()), ("u1", us[0]), ("u2", us[1]), ("alpha", alpha),
        ("min_rectangle_probability", worst)) if value is not None}
    return ValidationReport(_combine_verdict(conditions), conditions, diagnostics)
