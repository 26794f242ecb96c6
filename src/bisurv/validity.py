"""Grid-based validity diagnostics for bivariate models.

A model built by the general construction need not be a probability
distribution; this module implements every falsifiable condition:

* ``check_marginal_conditions`` -- can these marginals sit inside a valid
  bivariate model?  Condition (i) bounds the mixture weight through the
  diagonal hazard-ratio limits (``theta <= u1 + u2 <= 2*theta``); condition
  (ii) bounds the cross log-derivative of the wedge survival factor,
  ``r0(lo) * (Q' - Q''/Q')``, by ``theta * r0(lo)``.  A diagonal-constancy
  probe guards the limit itself.

* ``check_hazard_rate_conditions`` -- the same question asked of two hazard
  *functions* rather than fitted marginals: a nonnegativity/ratio bound (i),
  a divergence heuristic for the total hazard (ii), nonnegativity of the
  implied joint density (iii), and the mixture-weight bounds (iv).

* ``check_two_increasing`` -- every rectangle spanned by grid knots must
  carry nonnegative probability.

* ``check_functional_equation`` -- residual of the semigroup stability
  identity ``S(x1 (+) t, x2 (+) t) = S(x1, x2) * S(t, t)`` in log space;
  every model built here satisfies it to rounding error, valid or not.

* ``hazard_gradient`` / ``check_hazard_gradient_identity`` /
  ``reconstruct_survival_from_gradient`` -- the closed-form hazard gradient
  off the diagonal, the differential form of the stability identity, and
  survival reconstruction by integrating the gradient along an axis path.

The marginal and hazard-rate conditions off the diagonal are functions of
the wedge coordinate ``s = R0(hi) - R0(lo)`` alone, through the kernels
``Q_i(s) = R_i(R0^{-1}(s))`` of :class:`~bisurv.marginals.WedgeKernel`
(which also owns the one finite-difference fallback, for ``Q''`` of hazards
without an analytic derivative); ``r0`` factors only scale them.  The grid
pairs ``(hi, lo)`` are kept as witnesses.

Grid checks falsify; they never prove.  A ``Valid`` verdict means "no
violation found on grid" and the reports say so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .baseline import BaselineModel, _ret
from .bivariate import GeneralBivariateModel, _validate_theta, _wedge
from .errors import DomainError, ModelError, NumericError
from .marginals import FromHazard, MarginalModel, WedgeKernel, _row_limits

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

#: two-increasing rectangles may be this negative before counting as violations
_RECT_TOL = 1e-9

#: largest |survival| the rectangle screen takes; beyond it (or at NaN/inf)
#: its differences could overflow, so every column pair gets the exact pass
_SCREEN_MAX = 1e300

#: the rectangle screen's rounding allowance per row and unit of magnitude
#: (16 eps, about twice the first-order bound), plus an absolute floor (the
#: smallest normal double) that covers underflow in that product
_SCREEN_GAP = 16.0 * np.finfo(float).eps
_SCREEN_FLOOR = np.finfo(float).tiny

#: rectangles the exact pass of the rectangle scan evaluates at once
#: (2**14 doubles, 128 KiB per temporary); a grid whose rectangles all fit
#: (n <= 13 knots) skips the screen
_RECT_CHUNK = 1 << 14

#: cumulative hazard a marginal must reach for the divergence heuristic
_DIVERGENCE_TARGET = 30.0

#: cumulative-hazard levels probed by the divergence heuristic
_DIVERGENCE_PROBES = (8.0, 16.0, 32.0, 64.0, 128.0)

#: relative spread allowed between diagonal-limit anchors
_CONSTANCY_RTOL = 1e-4

#: step-halving levels of each anchored diagonal limit
_ANCHOR_LEVELS = 8


def _ineq_tol(rhs_scale, floor: float = 1e-8) -> np.ndarray:
    """Slack allowed when testing ``lhs <= rhs``: max(floor, 1e-6 * |rhs|)."""
    return np.maximum(floor, 1e-6 * np.abs(rhs_scale))


@dataclass(frozen=True)
class GridSpec:
    """Evaluation grid in cumulative-hazard coordinates.

    ``r0_knots`` are the axis knots (log-spaced by default); a pair of knots
    is treated as off-diagonal only when the knots differ by at least
    ``wedge_margin`` (in R0 units).  ``t_r0_knots`` are the shift amounts
    used by the functional-equation and gradient-identity checks.
    """

    r0_knots: tuple[float, ...]
    wedge_margin: float = 0.02
    t_r0_knots: tuple[float, ...] = ()

    def __post_init__(self):
        knots = tuple(float(k) for k in self.r0_knots)
        t_knots = tuple(float(t) for t in self.t_r0_knots)
        if len(knots) < 1 or not all(math.isfinite(k) and k > 0 for k in knots):
            raise DomainError("grid knots must be finite, positive cumulative-hazard values")
        if any(b <= a for a, b in zip(knots, knots[1:])):
            raise DomainError("grid knots must be strictly increasing")
        if not all(math.isfinite(t) for t in t_knots):
            raise DomainError("grid shift knots must be finite")
        if not (math.isfinite(self.wedge_margin) and self.wedge_margin >= 0):
            raise DomainError(f"wedge_margin must be finite and >= 0, got {self.wedge_margin}")
        object.__setattr__(self, "r0_knots", knots)
        object.__setattr__(self, "t_r0_knots", t_knots)

    @classmethod
    def default(cls, *, knots: int = 16, r0_min: float = 0.05, r0_max: float = 8.0,
                wedge_margin: float = 0.02, t_knots: int = 8,
                t_min: float = 0.1, t_max: float = 4.0) -> "GridSpec":
        """Standard grid: log-spaced knots covering bulk and tail.

        Meaningful qualification checks need at least 8 knots per axis; the
        factory enforces that (degenerate grids can still be constructed
        directly, e.g. for vacuous two-increasing checks).
        """
        if knots < 8:
            raise DomainError("default grids need at least 8 knots per axis")
        if t_knots < 0:
            raise DomainError(f"the shift knot count must be >= 0, got {t_knots}")
        with np.errstate(invalid="ignore"):  # non-finite bounds: __post_init__ raises
            return cls(
                r0_knots=tuple(np.geomspace(r0_min, r0_max, knots)),
                wedge_margin=wedge_margin,
                t_r0_knots=tuple(np.geomspace(t_min, t_max, t_knots)),
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

    def wedge_pairs(self, baseline: BaselineModel) -> tuple[np.ndarray, np.ndarray]:
        """All ordered knot pairs (hi, lo) clear of the diagonal margin."""
        knots = np.asarray(self.r0_knots)
        j, k = np.tril_indices(len(knots), -1)
        keep = knots[j] - knots[k] >= self.wedge_margin
        xs = self.axis_points(baseline)
        return xs[j[keep]], xs[k[keep]]

    def describe(self) -> dict:
        return {
            "axis_knots_r0": list(self.r0_knots),
            "t_knots_r0": list(self.t_r0_knots),
            "wedge_margin_r0": self.wedge_margin,
            "counts": list(self.counts),
        }


@dataclass
class ConditionResult:
    """Outcome of one checkable condition.

    ``passed`` is True/False for a decided condition and None when the
    condition could not be decided (failed limit, skipped grid, heuristic).
    ``margin`` is the worst signed slack (negative = violated) and
    ``witness`` the point where it occurred.
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
        header = f"{'condition':<34} {'pass':<6} {'margin':>13}  witness"
        lines.append(header)
        lines.append("-" * len(header))
        for c in self.conditions:
            status = {True: "yes", False: "NO", None: "?"}[c.passed]
            margin = f"{c.margin:.6g}" if c.margin is not None else "-"
            witness = ("(" + ", ".join(f"{v:.6g}" for v in c.witness) + ")"
                       if c.witness is not None else "-")
            label = f"{c.cid}: {c.label}"
            lines.append(f"{label:<34} {status:<6} {margin:>13}  {witness}")
            if c.note:
                lines.append(f"{'':<34} {c.note}")
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
# Diagonal limits and their constancy along the diagonal
# ---------------------------------------------------------------------------


def _weight_condition(cid: str, kernels, theta: float, floor: float,
                      names=("u1", "u2")):
    """Mixture-weight bounds ``theta <= u1 + u2 <= 2*theta`` on the kernels'
    diagonal limits ``u_i = Q_i'(0+)``.

    Returns the condition, the limits (None where a limit failed; its error
    becomes the note) and the weight ``alpha = 2 - (u1 + u2)/theta``, or None
    unless both limits are finite.
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
    tol = float(_ineq_tol(2.0 * theta, floor))
    note = f"{names[0]}+{names[1]} = {total:.12g}, bounds [{theta:.12g}, {2 * theta:.12g}]"
    cond = ConditionResult(cid, label, bool(margin >= -tol), margin=float(margin), note=note)
    return cond, us, 2.0 - total / theta


def _constancy_condition(kernels, grid: GridSpec, us: list[float | None]) -> ConditionResult:
    """Diagonal limits re-taken from every grid anchor must agree with ``u``.

    From anchor ``a`` the samples are ``Q'(s) exp(-Q(s))``, i.e.
    ``f(d)/r0(d)``, at ``s = R0(a + h) - R0(a)`` for raw offsets ``h``
    halving from ``0.05 * max(1, |a|)``, so the pre-limit samples genuinely
    depend on the anchor for non-exponential baselines.  Each kernel's
    anchors are the rows of one :func:`~bisurv.marginals._row_limits` call.
    The first anchor whose limit does not settle is the witness of an
    undecided probe, else the anchor farthest from ``u``, the first on ties.
    """
    cid, label = "u-constancy", "diagonal-limit constancy"
    if any(u is None or math.isinf(u) for u in us):
        return ConditionResult(cid, label, None,
                               note="skipped: diagonal limits unavailable")
    base = kernels[0].baseline
    anchors = grid.axis_points(base)
    offsets = (0.05 * np.maximum(1.0, np.abs(anchors))[:, None]
               * 0.5 ** np.arange(_ANCHOR_LEVELS))
    s = _wedge(base, anchors[:, None] + offsets, anchors[:, None])[1]
    worst = 0.0
    worst_anchor = None
    for idx, (kernel, u) in enumerate(zip(kernels, us), start=1):
        if kernel.delta is not None:
            continue  # Q' = delta exactly
        q, q1, _ = kernel.q_slopes(s, second=False)
        with np.errstate(over="ignore"):
            vals = _row_limits(q1 * np.exp(-q))
        unsettled = np.flatnonzero(np.isnan(vals))
        if unsettled.size:
            a = float(anchors[unsettled[0]])
            return ConditionResult(
                cid, label, None, witness=(a, a),
                note=f"anchored limit for marginal {idx} did not converge",
            )
        dev = np.abs(vals - u) / max(abs(u), 1e-12)
        i = int(np.argmax(dev))
        if dev[i] > worst:
            worst, worst_anchor = float(dev[i]), (float(anchors[i]),) * 2
    if worst > _CONSTANCY_RTOL:
        return ConditionResult(
            cid, label, None, witness=worst_anchor, margin=_CONSTANCY_RTOL - worst,
            note=f"diagonal limits vary across anchors (relative spread {worst:.3g})",
        )
    return ConditionResult(cid, label, True, margin=_CONSTANCY_RTOL - worst)


# ---------------------------------------------------------------------------
# Grid conditions
# ---------------------------------------------------------------------------


def _grid_slopes(kernels, grid: GridSpec):
    """The off-diagonal grid pairs ``(hi, lo)``, ``r0`` at both ends and
    ``(Q', Q'')`` of each kernel at the pairs' wedge coordinate ``s``."""
    base = kernels[0].baseline
    hi, lo = grid.wedge_pairs(base)
    s = _wedge(base, hi, lo)[1]
    r0_hi = np.asarray(base.hazard(hi), dtype=float)
    r0_lo = np.asarray(base.hazard(lo), dtype=float)
    return hi, lo, r0_hi, r0_lo, [k.slopes(s) for k in kernels]


def _grid_bound_condition(cid: str, label: str, lhs_by_marg, rhs, hi, lo,
                          *, lower_zero: bool = False,
                          floor: float = 1e-8) -> ConditionResult:
    """Check ``lhs <= rhs`` (optionally also ``lhs >= 0``) over grid points.

    ``lhs_by_marg`` holds one array per marginal over the pairs ``(hi, lo)``;
    marginal 1 sits on the wedge ``x1 >= x2``, so its witnesses are
    ``(hi, lo)`` and those of marginal 2 are ``(lo, hi)``.
    """
    worst = math.inf
    worst_witness = None
    decided = 0
    skipped = 0
    passed = True
    for lhs, wit in zip(lhs_by_marg, [(hi, lo), (lo, hi)]):
        lhs = np.asarray(lhs, dtype=float)
        ok = np.isfinite(lhs)
        skipped += int(np.sum(~ok))
        if not np.any(ok):
            continue
        decided += int(np.sum(ok))
        margin = rhs[ok] - lhs[ok]
        if lower_zero:
            margin = np.minimum(margin, lhs[ok])
        tol = _ineq_tol(rhs[ok], floor)
        bad = margin < -tol
        if np.any(bad):
            passed = False
        i = int(np.argmin(margin))
        if margin[i] < worst:
            worst = float(margin[i])
            pts = (wit[0][ok], wit[1][ok])
            worst_witness = (float(pts[0][i]), float(pts[1][i]))
    if decided == 0:
        return ConditionResult(cid, label, None,
                               note=f"all {skipped} grid points skipped")
    note = f"{decided} grid points" + (f", {skipped} skipped" if skipped else "")
    return ConditionResult(cid, label, passed, witness=worst_witness,
                           margin=worst, note=note)


def check_marginal_conditions(model: GeneralBivariateModel,
                              grid: GridSpec | None = None,
                              tol: float | None = None) -> ValidationReport:
    """Do the model's marginals qualify for a valid bivariate distribution?

    Condition (i): ``theta <= u1 + u2 <= 2*theta`` for the diagonal
    hazard-ratio limits.  Condition (ii): at every off-diagonal grid point
    the cross log-derivative of the wedge survival factor,
    ``r0(lo) * (Q' - Q''/Q')``, must not exceed ``theta * r0(lo)``.  The
    diagonal limits are additionally probed at several anchors;
    disagreement makes the report Inconclusive.
    """
    grid = grid or GridSpec.default()
    floor = 1e-8 if tol is None else float(tol)
    theta = model.theta

    cond_i, us, alpha = _weight_condition("i", model.kernels, theta, floor)

    hi, lo, _, r0_lo, slopes = _grid_slopes(model.kernels, grid)
    with np.errstate(divide="ignore", invalid="ignore"):
        lhs = [r0_lo * (q1 - q2 / q1) for q1, q2 in slopes]
    cond_ii = _grid_bound_condition("ii", "cross-derivative-bound",
                                    lhs, theta * r0_lo, hi, lo, floor=floor)

    cond_const = _constancy_condition(model.kernels, grid, us)

    conditions = [cond_i, cond_ii, cond_const]
    diagnostics = {
        "u1": us[0], "u2": us[1], "alpha": alpha, "theta": theta,
        "grid": grid.describe(),
        "tolerance": f"lhs <= rhs + max({floor:g}, 1e-6*|rhs|)",
    }
    return ValidationReport(_combine_verdict(conditions), conditions, diagnostics)


# ---------------------------------------------------------------------------
# Hazard-rate qualification (conditions on hazard function handles)
# ---------------------------------------------------------------------------


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
    :class:`~bisurv.marginals.WedgeKernel` instances over ``baseline``; a
    kernel brings its already-taken diagonal limit ``u`` along, so
    ``combined_validation`` passes the model's own kernels.
    Condition (ii) (total hazard diverges) is decided by an explicit
    heuristic -- cumulative hazard exceeding 30 with monotone growth over
    probe points far in the tail -- and is reported as such; a hazard that
    decays too fast yields Inconclusive, never Valid.
    """
    theta = _validate_theta(theta)
    grid = grid or GridSpec.default()
    floor = 1e-8 if tol is None else float(tol)
    kernels = [_as_kernel(r, baseline) for r in (r1, r2)]
    hi, lo, r0_hi, r0_lo, slopes = _grid_slopes(kernels, grid)

    # (i) 0 <= Q' * r0(lo) <= theta * r0(lo)
    with np.errstate(invalid="ignore"):
        lhs = [q1 * r0_lo for q1, _ in slopes]
    cond_i = _grid_bound_condition("i", "gradient-nonnegativity-bound", lhs,
                                   theta * r0_lo, hi, lo, lower_zero=True, floor=floor)

    # (ii) divergence heuristic on Q at far cumulative-hazard levels
    cond_ii_pass: bool | None = True
    worst_tail = math.inf
    for k in kernels:
        ri = k.q(np.asarray(_DIVERGENCE_PROBES))
        growing = bool(np.all(np.diff(ri) > 0))
        worst_tail = min(worst_tail, float(ri[-1]))
        if not (growing and ri[-1] > _DIVERGENCE_TARGET):
            cond_ii_pass = None
    cond_ii = ConditionResult(
        "ii", "total-hazard-divergence", cond_ii_pass,
        margin=worst_tail - _DIVERGENCE_TARGET,
        note=("heuristic: cumulative hazard %.4g at the farthest probe, "
              "target > %g with monotone growth; divergence cannot be proven "
              "from finite samples" % (worst_tail, _DIVERGENCE_TARGET)),
    )

    # (iii) implied joint density nonnegative:
    #       r0(hi) * r0(lo) * (theta Q' + Q'' - Q'^2) >= 0
    terms = []
    for q1, q2 in slopes:
        with np.errstate(invalid="ignore", over="ignore"):
            value = r0_hi * r0_lo * (theta * q1 + q2 - q1 * q1)
            # margins are normalized by the term scale so one tolerance fits all
            scale = np.abs(theta * q1 * r0_hi * r0_lo) + np.abs(r0_hi * r0_lo * q2) + 1.0
        terms.append(np.where(np.isfinite(value), value / scale, math.nan))
    cond_iii = _grid_bound_condition("iii", "density-nonnegativity",
                                     [-t for t in terms], np.zeros_like(r0_lo),
                                     hi, lo, floor=floor)

    # (iv) mixture-weight bounds on the diagonal limits
    cond_iv, vs, alpha = _weight_condition("iv", kernels, theta, floor, names=("v1", "v2"))

    conditions = [cond_i, cond_ii, cond_iii, cond_iv]
    diagnostics = {
        "v1": vs[0], "v2": vs[1], "theta": theta, "alpha": alpha,
        "grid": grid.describe(),
        "divergence_heuristic": f"cumulative hazard > {_DIVERGENCE_TARGET} at "
                                f"R0 probes {list(_DIVERGENCE_PROBES)}",
    }
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


def _min_rectangle(s: np.ndarray) -> tuple[float, int, int, int, int]:
    """Smallest ``s[i,k] - s[j,k] - s[i,l] + s[j,l]`` over ``i < j`` and
    ``k < l`` of a square matrix (``n >= 2``), as ``(value, i, j, k, l)``.

    The value is bit-identical to that expression evaluated left to right,
    and ties (and NaN, which counts as smallest) go to the first
    ``(i, j, k, l)`` in lexicographic order, as ``argmin`` over the full
    n^4 tensor would give.  Two passes keep memory at O(n^2):

    * the screen reads each rectangle in its separable form ``c_i - c_j``
      with ``c = s[:, k] - s[:, l]``.  The two forms differ by rounding
      only, by at most ``8.5 eps`` times the largest corner to first order,
      so by less than ``delta_i + delta_j`` with
      ``delta_i = 16 eps max_{l' >= k} |s[i,l']| + tiny``.  Running minima
      of ``c_i -+ delta_i`` down the rows bound, in O(n^3) total time, every
      column pair's values from below and the smallest value from above;
    * the exact pass evaluates the expression above on the whole ``(i, j)``
      triangle of each column pair whose lower bound does not exceed that
      upper bound, so every pair that holds the exact minimum is among them.
      Each such pair costs O(n^2).  Rectangles tied within rounding cost
      more: where many are exactly equal, as in a block of survival values
      that underflow to 0, the time grows toward n^4.

    A matrix small enough for one exact pass over every pair (``n <= 13``),
    or with values beyond ``_SCREEN_MAX`` in magnitude or non-finite ones,
    skips the screen and gets the exact pass on every pair.
    """
    n = s.shape[0]
    if n * n * (n * (n - 1) // 2) > _RECT_CHUNK and np.abs(s).max() <= _SCREEN_MAX:
        # delta_i of every column pair (k, l), as delta[i, k]
        mag = np.maximum.accumulate(np.abs(s[:, ::-1]), axis=1)[:, ::-1]
        delta = _SCREEN_GAP * mag + _SCREEN_FLOOR
        low = np.full((n, n), np.inf)  # below every value of the column pair
        high = np.full((n, n), np.inf)  # its minimum is above the smallest value
        for k in range(n - 1):
            c = s[:, k:k + 1] - s[:, k + 1:]
            down, up = c - delta[:, k:k + 1], c + delta[:, k:k + 1]
            low[k, k + 1:] = (np.minimum.accumulate(down[:-1], axis=0) - up[1:]).min(axis=0)
            high[k, k + 1:] = (np.minimum.accumulate(up[:-1], axis=0) - down[1:]).min(axis=0)
        ks, ls = np.nonzero(low <= high.min())
    else:
        ks, ls = np.triu_indices(n, 1)
    lower = np.tri(n, dtype=bool)  # i >= j
    step = max(1, _RECT_CHUNK // (n * n))
    best = None  # (sort key, value) of the smallest rectangle so far
    for a in range(0, len(ks), step):
        k, l = ks[a:a + step], ls[a:a + step]
        p = s[:, None, k] - s[None, :, k] - s[:, None, l] + s[None, :, l]
        p[lower] = np.inf
        i, j, c = np.unravel_index(int(np.argmin(p)), p.shape)
        v = float(p[i, j, c])
        key = (not math.isnan(v), 0.0 if math.isnan(v) else v,
               int(i), int(j), int(k[c]), int(l[c]))
        if best is None or key < best[0]:
            best = (key, v)
    key, value = best
    if value == math.inf:  # no finite rectangle: the tensor's argmin is its first entry
        return (value, 0, 0, 0, 0)
    return (value, *key[2:])


def check_two_increasing(model, grid: GridSpec | None = None,
                         tol: float | None = None) -> ValidationReport:
    """Every rectangle spanned by grid knots carries probability >= -1e-9.

    Scans all knot pairs per axis and reports the most negative rectangle,
    breaking ties by lexicographic ``(i, j, k, l)`` knot order.  The scan
    takes O(n^3) time and O(n^2) memory on ``n`` knots: a screen bounds
    every column pair's rectangles through their separable form, whose
    rounding differs from the direct sum by less than
    ``delta = 16 eps (|S| of both rows)``, and the direct sums are taken only
    on the pairs that can hold the minimum, so the result is the one the
    direct sums give everywhere.  See :func:`_min_rectangle`.
    """
    grid = grid or GridSpec.default()
    rect_tol = _RECT_TOL if tol is None else float(tol)
    xs = grid.axis_points(model.baseline)
    n = len(xs)
    if n < 2:
        cond = ConditionResult("two-increasing", "rectangle-nonnegativity", True,
                               note="degenerate grid; vacuously satisfied")
        return ValidationReport(VALID, [cond], {"grid": grid.describe()})
    s = np.asarray(model.survival(xs[:, None], xs[None, :]), dtype=float)
    # P(i,j,k,l) = P(xs[i] < X1 <= xs[j], xs[k] < X2 <= xs[l])
    worst, i, j, k, l = _min_rectangle(s)
    rect = (float(xs[i]), float(xs[j]), float(xs[k]), float(xs[l]))
    passed = worst >= -rect_tol
    cond = ConditionResult(
        "two-increasing", "rectangle-nonnegativity", bool(passed),
        witness=(rect[0], rect[2]), margin=worst,
        note=(f"most negative rectangle ({rect[0]:.6g}, {rect[1]:.6g}) x "
              f"({rect[2]:.6g}, {rect[3]:.6g}) has probability {worst:.6g}"),
    )
    diagnostics = {"grid": grid.describe(), "min_rectangle_probability": worst,
                   "rectangle": list(rect), "tolerance": rect_tol}
    return ValidationReport(VALID if passed else INVALID, [cond], diagnostics)


# ---------------------------------------------------------------------------
# Functional-equation residual
# ---------------------------------------------------------------------------


def _worst_over_shifts(base: BaselineModel, ts, x1, x2, residual,
                       *, relative: bool) -> ResidualReport:
    """Largest ``residual(t, x1 (+) t, x2 (+) t)`` over the raw shift points
    ``ts``; the witness is the unshifted pair and the shift of the first
    largest residual."""
    worst = -1.0
    witness = (float(x1[0]), float(x2[0]), float(ts[0]) if len(ts) else base.x_L)
    total = 0
    for t in ts:
        t = float(t)
        res = residual(t, np.asarray(base.combine(x1, t), dtype=float),
                       np.asarray(base.combine(x2, t), dtype=float))
        total += res.size
        i = int(np.argmax(res))
        if res[i] > worst:
            worst = float(res[i])
            witness = (float(x1[i]), float(x2[i]), t)
    return ResidualReport(max_residual=max(worst, 0.0), witness=witness,
                          n_points=total, relative=relative)


def check_functional_equation(model, grid: GridSpec | None = None,
                              t_knots=None) -> ResidualReport:
    """Max log-space residual of S(x1 (+) t, x2 (+) t) = S(x1,x2) * S(t,t).

    Any model built from the wedge construction satisfies this identically;
    the residual measures only arithmetic error, whether or not the model is
    a valid distribution.  ``t_knots`` takes explicit shift points in raw
    coordinates; by default the grid's shift knots are used.
    """
    grid = grid or GridSpec.default()
    base = model.baseline
    xs = grid.axis_points(base)
    x1 = np.repeat(xs, len(xs))
    x2 = np.tile(xs, len(xs))
    log_s = np.asarray(model.log_survival(x1, x2), dtype=float)

    def residual(t, y1, y2):
        shift = model.theta * float(base.cumulative_hazard(t))
        return np.abs(np.asarray(model.log_survival(y1, y2), dtype=float) - log_s + shift)

    ts = grid.t_points(base) if t_knots is None else np.asarray(t_knots, dtype=float)
    return _worst_over_shifts(base, ts, x1, x2, residual, relative=False)


# ---------------------------------------------------------------------------
# Hazard gradient, its identity, and survival reconstruction
# ---------------------------------------------------------------------------


def _gradient_components(model, x1, x2):
    base = model.baseline
    theta = model.theta
    upper, s, _ = _wedge(base, x1, x2)
    q = model._per_wedge("q_prime", upper, s)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r0_1 = np.asarray(base.hazard(x1), dtype=float)
        r0_2 = np.asarray(base.hazard(x2), dtype=float)
        g1 = np.where(upper, q * r0_1, theta * r0_1 - q * r0_1)
        g2 = np.where(upper, theta * r0_2 - q * r0_2, q * r0_2)
    return g1, g2


def hazard_gradient(model, x1, x2):
    """Closed-form hazard gradient (-d ln S/dx1, -d ln S/dx2) off the diagonal.

    For the larger coordinate the component is ``Q_i'(s) * r0(x_i)``, with
    ``Q_i'(s) = r_i(d)/r0(d)`` at the wedge difference ``d``; for the
    smaller it is ``theta * r0(x_i) - Q_other'(s) * r0(x_i)``.  Raises
    on diagonal input, where the singular mass makes the gradient undefined.
    """
    g1, g2 = _gradient_components(model, *model._off_diagonal(x1, x2, "hazard gradient"))
    return _ret(g1, x1, x2), _ret(g2, x1, x2)


def check_hazard_gradient_identity(model, grid: GridSpec | None = None) -> ResidualReport:
    """Differential form of the stability identity, relative residual.

    Checks ``sum_i grad_i(x1 (+) t, x2 (+) t) * r0(t)/r0(x_i (+) t)`` against
    ``theta * r0(t)`` over off-diagonal grid pairs and shift knots.
    """
    grid = grid or GridSpec.default()
    base = model.baseline
    theta = model.theta
    hi, lo = grid.wedge_pairs(base)

    def residual(t, y1, y2):
        g1, g2 = _gradient_components(model, y1, y2)
        r0t = float(base.hazard(t))
        with np.errstate(divide="ignore", invalid="ignore"):
            lhs = (g1 * r0t / np.asarray(base.hazard(y1), dtype=float)
                   + g2 * r0t / np.asarray(base.hazard(y2), dtype=float))
        return np.abs(lhs - theta * r0t) / (theta * r0t)

    return _worst_over_shifts(base, grid.t_points(base), np.concatenate([hi, lo]),
                              np.concatenate([lo, hi]), residual, relative=True)


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

    base = model.baseline
    xl = base.x_L
    x1, x2 = float(x1), float(x2)
    if not (math.isfinite(x1) and math.isfinite(x2)) or x1 < xl or x2 < xl:
        raise DomainError(f"coordinates must be finite and >= {xl}")
    total = 0.0
    err_budget = 0.0

    def add_piece(fn, a: float, b: float) -> None:
        nonlocal total, err_budget
        if b <= a:
            return
        val, err = quad(fn, a, b, epsabs=_PATH_QUAD_TOL, epsrel=_PATH_QUAD_TOL, limit=200)
        total += val
        err_budget += err

    add_piece(lambda u: _gradient_components(model, u, xl)[0], xl, x1)
    mid = min(x1, x2)
    add_piece(lambda u: _gradient_components(model, x1, u)[1], xl, mid)
    if x2 > x1:
        add_piece(lambda u: _gradient_components(model, x1, u)[1], x1, x2)
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
    """All checks on one model, merged into a single report.

    Runs the marginal conditions, the hazard-rate conditions on the model's
    own wedge kernels (so each diagonal limit is taken once), and the
    two-increasing grid scan; condition ids are prefixed by the check they
    came from.
    """
    grid = grid or GridSpec.default()
    reports = [
        ("marginal", check_marginal_conditions(model, grid, tol)),
        ("hazard", check_hazard_rate_conditions(*model.kernels, model.baseline,
                                                model.theta, grid, tol)),
        ("", check_two_increasing(model, grid, tol)),
    ]
    conditions: list[ConditionResult] = []
    diagnostics: dict = {"grid": grid.describe()}
    for prefix, rep in reports:
        for c in rep.conditions:
            cid = f"{prefix}-{c.cid}" if prefix else c.cid
            conditions.append(ConditionResult(cid, c.label, c.passed,
                                              c.witness, c.margin, c.note))
        for key in ("u1", "u2", "v1", "v2", "alpha", "min_rectangle_probability"):
            if key in rep.diagnostics and rep.diagnostics[key] is not None:
                diagnostics.setdefault(key, rep.diagnostics[key])
    return ValidationReport(_combine_verdict(conditions), conditions, diagnostics)
