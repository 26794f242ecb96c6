"""Independent numerical oracles used by the tests.

These deliberately avoid the library's own differentiation/quadrature paths
so that agreement between an oracle and an implementation is evidence, not
tautology.
"""

import bisect
import math

import numpy as np
from scipy.integrate import dblquad

from bisurv.baseline import Exponential, PiecewiseLinearHazard
from bisurv.bivariate import _BLOCK, _WEIGHT_EPS
from bisurv.errors import (
    DomainError,
    InvalidModelError,
    NumericError,
    SamplerError,
    UndefinedComponentError,
)
from bisurv.sampling import SampleBatch, _check_sample_args, _draw_s, _gen


def mixed_fd(survival_fn, x1: float, x2: float, rel_step: float = 1e-4):
    """Mixed second difference of a bivariate function, plain central stencil.

    The step is shrunk to stay inside one wedge; callers must pass
    off-diagonal points.
    """
    gap = abs(x1 - x2)
    h1 = min(rel_step * max(1.0, abs(x1)), gap / 4.0, x1 / 2.0 if x1 > 0 else gap)
    h2 = min(rel_step * max(1.0, abs(x2)), gap / 4.0, x2 / 2.0 if x2 > 0 else gap)
    return (survival_fn(x1 + h1, x2 + h2) - survival_fn(x1 + h1, x2 - h2)
            - survival_fn(x1 - h1, x2 + h2) + survival_fn(x1 - h1, x2 - h2)) \
        / (4.0 * h1 * h2)


def fd_log_gradient(survival_fn, x1: float, x2: float, rel_step: float = 1e-6):
    """Central-difference estimate of (-d ln S/dx1, -d ln S/dx2)."""
    out = []
    for axis, x in ((0, x1), (1, x2)):
        h = min(rel_step * max(1.0, abs(x)), abs(x1 - x2) / 4.0)
        if axis == 0:
            sp, sm = survival_fn(x1 + h, x2), survival_fn(x1 - h, x2)
        else:
            sp, sm = survival_fn(x1, x2 + h), survival_fn(x1, x2 - h)
        out.append(-(math.log(sp) - math.log(sm)) / (2.0 * h))
    return tuple(out)


def trapezoid_cumulative_hazard(hazard_fn, x_L: float, x: float, n: int = 200001):
    """Dense-trapezoid integral of a hazard, independent of adaptive quad."""
    if x <= x_L:
        return 0.0
    grid = np.linspace(x_L, x, n)
    return float(np.trapezoid([hazard_fn(g) for g in grid], grid))


def wedge_ac_mass(model, upper: bool, epsabs: float = 1e-9) -> float:
    """alpha * integral of the AC density over one wedge, by 2-D quadrature.

    Transforms to ``w = R0(min)``, ``s = R0(max) - R0(min)`` and compactifies
    both to (0, 1); the integrand calls the model's ``ac_density`` so this
    verifies the closed-form mass identities rather than re-deriving them.
    """
    base = model.baseline
    alpha = model.decompose().alpha

    def integrand(v, u):
        if u <= 0.0 or v <= 0.0 or u >= 1.0 or v >= 1.0:
            return 0.0
        w = u / (1.0 - u)
        s = v / (1.0 - v)
        lo = float(base.inverse_cumulative_hazard(w))
        hi = float(base.inverse_cumulative_hazard(w + s))
        if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
            return 0.0
        x1, x2 = (hi, lo) if upper else (lo, hi)
        fa = model.ac_density(x1, x2)
        if fa == 0.0:
            return 0.0
        r1 = float(base.hazard(x1))
        r2 = float(base.hazard(x2))
        if not (math.isfinite(r1) and math.isfinite(r2)) or r1 <= 0 or r2 <= 0:
            return 0.0
        val = alpha * fa / (r1 * r2) / ((1.0 - u) ** 2 * (1.0 - v) ** 2)
        return val if math.isfinite(val) else 0.0

    mass, _ = dblquad(integrand, 0.0, 1.0, 0.0, 1.0,
                      epsabs=epsabs, epsrel=epsabs)
    return mass


class LinearHazardTable:
    """Exact integral of a hazard interpolated linearly through a table.

    Written without the library: a scalar ``bisect`` lookup for the hazard
    (held flat beyond both ends, like ``np.interp``) and, for the integral,
    the trapezoid rule on every piece between consecutive breakpoints.  The
    hazard is linear on each piece, so the trapezoid is exact there and
    ``math.fsum`` adds the pieces without accumulated rounding.
    """

    def __init__(self, xs, hs):
        self.xs = [float(v) for v in xs]
        self.hs = [float(v) for v in hs]

    def h(self, x: float) -> float:
        xs, hs = self.xs, self.hs
        if x <= xs[0]:
            return hs[0]
        if x >= xs[-1]:
            return hs[-1]
        k = bisect.bisect_right(xs, x) - 1
        t = (x - xs[k]) / (xs[k + 1] - xs[k])
        return hs[k] + t * (hs[k + 1] - hs[k])

    def slope(self, x: float) -> float:
        """Right derivative of the hazard; 0 beyond both ends."""
        xs, hs = self.xs, self.hs
        if x < xs[0] or x >= xs[-1]:
            return 0.0
        k = bisect.bisect_right(xs, x) - 1
        return (hs[k + 1] - hs[k]) / (xs[k + 1] - xs[k])

    def integral(self, a: float, b: float) -> float:
        """Integral of the hazard over [a, b]; 0 when b <= a."""
        if b <= a:
            return 0.0
        cuts = [a] + [v for v in self.xs if a < v < b] + [b]
        return math.fsum((v - u) * (self.h(u) + self.h(v)) / 2.0
                         for u, v in zip(cuts[:-1], cuts[1:]))

    def left_slope(self, x: float) -> float:
        """Left derivative of the hazard; 0 beyond both ends."""
        xs, hs = self.xs, self.hs
        if x <= xs[0] or x > xs[-1]:
            return 0.0
        k = bisect.bisect_left(xs, x) - 1
        return (hs[k + 1] - hs[k]) / (xs[k + 1] - xs[k])

    def inverse(self, x_L: float, r: float) -> float:
        """The least ``x >= x_L`` with ``integral(x_L, x) >= r``, to the
        last float: bisection on the piece where the integral reaches ``r``,
        or the flat tail's line past the last row.  A target past a bounded
        total hazard raises :class:`~bisurv.errors.NumericError`."""
        if r <= 0.0:
            return x_L
        cuts = [x_L] + [v for v in self.xs if v > x_L]
        area = [0.0]
        for u, v in zip(cuts[:-1], cuts[1:]):
            area.append(self.integral(x_L, v))
        if r > area[-1]:
            if self.hs[-1] == 0.0:
                raise NumericError(f"target {r} past the total hazard {area[-1]}")
            return cuts[-1] + (r - area[-1]) / self.hs[-1]
        i = bisect.bisect_left(area, r) - 1
        lo, hi = cuts[i], cuts[i + 1]
        while True:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                return hi
            if area[i] + self.integral(cuts[i], mid) >= r:
                hi = mid
            else:
                lo = mid


def exponential_wedge_tail(table: LinearHazardTable, theta: float, s: float) -> float:
    """Wedge tail ``G(s) = (theta - Q'(s)) exp(-Q(s))`` over the unit exponential.

    With ``R0(x) = x`` the wedge coordinate of a marginal whose hazard is the
    table is ``Q(s) = integral of the table over [0, s]`` and ``Q'(s)`` is
    the table's hazard at ``s``.  ``G`` falls from ``theta - Q'(0)`` to 0,
    and ``1 - G(s) / G(0)`` is the CDF of ``s`` on that marginal's wedge.
    """
    return (theta - table.h(s)) * math.exp(-table.integral(0.0, s))


def exponential_wedge_ac_density(x1: float, x2: float, theta: float, wedges):
    """AC density of a general model over the unit exponential baseline.

    With ``R0(x) = x`` the wedge coordinates are ``w = min(x1, x2)`` and
    ``s = |x1 - x2|``.  On the wedge of marginal ``i`` (``i = 0`` where
    ``x1 > x2``) the survival is ``exp(-Q_i(s) - theta w)``, whose mixed
    second derivative is ``(theta Q' + Q'' - Q'^2) exp(-Q - theta w)``.
    ``wedges[i](s)`` returns ``(Q, Q', Q'')``; the density is that
    derivative divided by ``alpha = 2 - (Q_1'(0) + Q_2'(0)) / theta``.
    """
    alpha = 2.0 - (wedges[0](0.0)[1] + wedges[1](0.0)[1]) / theta
    q, dq, d2q = wedges[0 if x1 > x2 else 1](abs(x1 - x2))
    return ((theta * dq + d2q - dq * dq)
            * math.exp(-q - theta * min(x1, x2)) / alpha)


def rectangle_scan_tensor(s):
    """Most negative grid rectangle of a survival matrix, by the full n^4
    tensor: ``(value, i, j, k, l)`` with ``i < j``, ``k < l`` and
    ``value = s[i,k] - s[j,k] - s[i,l] + s[j,l]``, the first in flat
    (lexicographic) order on ties.  The rectangle scan of
    ``check_two_increasing`` before it became O(n^2) in memory; the later
    scans ranked by the separable sum, so they come within rounding of this
    minimum (see :func:`rectangle_scan_separable` for the bit-exact form).
    """
    s = np.asarray(s, dtype=float)
    n = s.shape[0]
    p = (s[:, None, :, None] - s[None, :, :, None]
         - s[:, None, None, :] + s[None, :, None, :])
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    upper = ii < jj
    mask = upper[:, :, None, None] & upper[None, None, :, :]
    p_masked = np.where(mask, p, np.inf)
    i, j, k, l = np.unravel_index(int(np.argmin(p_masked)), p_masked.shape)
    return (float(p_masked[i, j, k, l]), int(i), int(j), int(k), int(l))


def rectangle_scan_separable(s):
    """The rectangle scan's ranking, by the full n^4 tensor of separable sums
    ``sep[i,j,k,l] = (s[i,k] - s[i,l]) - (s[j,k] - s[j,l])``.

    Each ``(i, k, l)`` with ``i < n - 1`` and ``k < l`` scores the smallest
    ``sep`` over ``j > i`` (NaN if any is NaN); the winner is the first such
    triple in lexicographic order that is NaN, else the first with the
    smallest score.  ``j`` is the first row below ``i`` whose
    ``s[j,k] - s[j,l]`` is NaN, else the first with the largest one.
    Returns ``(s[i,k] - s[j,k] - s[i,l] + s[j,l], i, j, k, l)``.

    The scan scores ``c_i - max_{j > i} c_j``; rounding is monotone, so that
    is the smallest ``sep`` bit for bit, except where ``c_i`` and some
    ``c_j`` are both ``-inf``, which needs two non-finite entries in one
    column: the tensor reads NaN there and the scan ``-inf``.
    """
    s = np.asarray(s, dtype=float)
    n = s.shape[0]
    c = s[:, :, None] - s[:, None, :]  # c[row, k, l]
    sep = c[:, None, :, :] - c[None, :, :, :]  # sep[i, j, k, l]
    rows = np.arange(n)
    sep = np.where((rows[:, None] < rows[None, :])[:, :, None, None], sep, np.inf)
    score = sep.min(axis=1)  # score[i, k, l]; np.min propagates NaN
    ii, kk, ll = np.nonzero(np.broadcast_to(np.triu(np.ones((n, n), bool), 1), (n - 1, n, n)))
    scores = score[ii, kk, ll]
    nan = np.flatnonzero(np.isnan(scores))
    a = int(nan[0]) if nan.size else int(np.argmin(scores))
    i, k, l = int(ii[a]), int(kk[a]), int(ll[a])
    col = [float(s[j, k] - s[j, l]) for j in range(i + 1, n)]
    nan_rows = [r for r, v in enumerate(col) if math.isnan(v)]
    j = i + 1 + (nan_rows[0] if nan_rows else col.index(max(col)))
    return (float(s[i, k] - s[j, k] - s[i, l] + s[j, l]), i, j, k, l)


def rectangle_scan_running_max(s):
    """The most negative grid rectangle, in O(n^3) time, one column at a
    time: the scan ``check_two_increasing`` ran before it decided from the
    grid's cells alone, kept as the reference for the cell rule.

    For each column ``k``, ``c = s[:, k] - s[:, l]`` over ``l > k`` and a
    running maximum of ``c`` up the rows (``np.maximum.accumulate``) gives
    every row ``i`` its best partner below it; the smallest key
    ``(NaN first, value, i, k, l)`` wins.  ``j`` is the first row below
    ``i`` with the largest ``c_j``, and the value is the direct sum on that
    rectangle.
    """
    n = s.shape[0]
    best = None
    with np.errstate(invalid="ignore", over="ignore"):
        for k in range(n - 1):
            c = s[:, k:k + 1] - s[:, k + 1:]
            below = np.maximum.accumulate(c[:0:-1], axis=0)[::-1]  # max over rows > i
            d = c[:-1] - below
            i, m = np.unravel_index(int(np.argmin(d)), d.shape)
            v = float(d[i, m])
            key = (not math.isnan(v), 0.0 if math.isnan(v) else v, int(i), k, k + 1 + int(m))
            if best is None or key < best:
                best = key
        i, k, l = best[2:]
        j = i + 1 + int(np.argmax(s[i + 1:, k] - s[i + 1:, l]))
        value = float(s[i, k] - s[j, k] - s[i, l] + s[j, l])
    return (value, i, j, k, l)


def write_csv_rows(batch, fileobj):
    """``SampleBatch.write_csv`` as it was before it formatted whole blocks
    at once: one f-string per row, with Python's ``repr`` of each coordinate
    and the tie flag.  Kept as the reference the block writer must match
    byte for byte.
    """
    fileobj.write("x1,x2,tied\n")
    for a, b, t in zip(batch.x1, batch.x2, batch.tied):
        fileobj.write(f"{float(a)!r},{float(b)!r},{int(t)}\n")


# ---------------------------------------------------------------------------
# Survival functions outside the class
# ---------------------------------------------------------------------------
# Over the exponential baseline ``x (+) t = x + t``.  Each has what
# ``validity.check_functional_equation`` reads, a ``baseline`` and
# ``log_survival`` on scalars and arrays, and gives the closed-form residual
# ``|ln S(x1 + t, x2 + t) - ln S(x1, x2) - ln S(t, t)|``.


class GumbelTypeI:
    """Gumbel's type-I bivariate exponential, ``ln S = -(x1 + x2 + lam x1 x2)``
    (E. J. Gumbel, "Bivariate exponential distributions", JASA 55, 1960)."""

    def __init__(self, lam: float):
        self.baseline = Exponential()
        self.lam = lam

    def log_survival(self, x1, x2):
        return -(x1 + x2 + self.lam * x1 * x2)

    def residual(self, x1: float, x2: float, t: float) -> float:
        return self.lam * t * (x1 + x2)


class FGMExponential:
    """The Farlie-Gumbel-Morgenstern copula on unit exponential margins,
    ``S = e^(-x1 - x2) (1 + a (1 - e^-x1) (1 - e^-x2))``: the exponential
    parts cancel from the residual, and the copula's factor is left."""

    def __init__(self, a: float):
        self.baseline = Exponential()
        self.a = a

    def log_survival(self, x1, x2):
        return -(x1 + x2) + np.log1p(self.a * np.expm1(-x1) * np.expm1(-x2))

    def residual(self, x1: float, x2: float, t: float) -> float:
        def factor(y1, y2):
            return math.log1p(self.a * math.expm1(-y1) * math.expm1(-y2))
        return abs(factor(x1 + t, x2 + t) - factor(x1, x2) - factor(t, t))


# ---------------------------------------------------------------------------
# Scalar diagonal limit
# ---------------------------------------------------------------------------
# ``marginals._sequence_limit`` with ``_richardson`` and ``_aitken`` as they
# were when each limit took one sample sequence at a time, kept verbatim as
# the reference the row-wise limit routine must match bit for bit, but for
# one operation: ``_aitken`` squares ``d1[k + 1]`` as the product ``x * x``,
# not as ``x ** 2``.  A numpy scalar's ``** 2`` is libm's ``pow``, which is
# not correctly rounded: on the row pinned in ``tests/test_marginals.py`` it
# is one unit in the last place off the exact square (checked with
# ``fractions.Fraction``), which the product, as numpy's array ``** 2`` in
# the library computes it, rounds correctly.

#: a limit has settled when two accelerated values agree to this tolerance
_LIMIT_RTOL = 1e-7
_LIMIT_ATOL = 1e-9
#: growth beyond which a monotone sequence is declared divergent
_DIVERGENCE_FACTOR = 50.0


def _richardson(seq: np.ndarray) -> np.ndarray:
    """Diagonal of the Richardson tableau for step-halved samples."""
    t = [np.asarray(seq, dtype=float)]
    for j in range(1, len(seq)):
        prev = t[-1]
        fac = 2.0**j
        t.append((fac * prev[1:] - prev[:-1]) / (fac - 1.0))
    return np.array([row[-1] for row in t])


def _aitken(seq: np.ndarray) -> np.ndarray:
    """One Aitken delta-squared pass; exact for geometric error terms."""
    s = np.asarray(seq, dtype=float)
    d1 = s[1:] - s[:-1]
    denom = d1[1:] - d1[:-1]
    out = []
    for k in range(len(denom)):
        if denom[k] == 0.0:
            out.append(s[k + 2])
        else:
            out.append(s[k + 2] - d1[k + 1] * d1[k + 1] / denom[k])
    return np.array(out)


def sequence_limit(samples, *, what: str = "sequence") -> float:
    """Limit of a step-halved sample sequence.

    Returns ``math.inf`` when the samples grow without bound (divergence
    flag); raises :class:`~bisurv.errors.NumericError` carrying the samples
    when they oscillate or fail to settle.
    """
    ratios = np.asarray(samples, dtype=float)
    if np.any(np.isnan(ratios)):
        raise NumericError(f"{what} evaluated to NaN", samples=ratios)
    if np.any(np.isinf(ratios)):
        return math.inf

    scale = max(1.0, abs(ratios[0]))
    if np.max(np.abs(ratios - ratios[0])) <= 1e-13 * scale:
        return float(ratios[-1])

    # divergence: monotone tail whose increments do not shrink
    inc = np.diff(ratios)
    tail = inc[-4:]
    if np.all(tail > 0) or np.all(tail < 0):
        mags = np.abs(tail)
        if np.all(mags[1:] >= 0.9 * mags[:-1]) and (
            abs(ratios[-1]) > _DIVERGENCE_FACTOR * scale
            or mags[-1] > scale
        ):
            return math.inf

    def settled(diag: np.ndarray) -> float | None:
        if len(diag) < 2:
            return None
        a, b = diag[-2], diag[-1]
        if (np.isfinite(a) and np.isfinite(b)
                and abs(b - a) <= max(_LIMIT_ATOL, _LIMIT_RTOL * abs(b))):
            return float(b)
        return None

    val = settled(_richardson(ratios))
    if val is not None:
        return val
    acc = _aitken(ratios)
    val = settled(acc)
    if val is not None:
        return val
    if len(acc) >= 3:
        val = settled(_aitken(acc))
        if val is not None:
            return val
    raise NumericError(f"{what} did not converge", samples=ratios)


# ---------------------------------------------------------------------------
# A point's pair map and the samplers' inversions
# ---------------------------------------------------------------------------
# ``BaselineModel._map_pair``, ``sampling._races`` and ``sampling._sample`` as
# they were when a point over Weibull or Pareto reached ``R0`` and ``r0``
# through the public maps, and a draw inverted its levels in two calls (the
# races) or three (the mixture), admitting the model on every call.  Kept
# verbatim (``self`` is the baseline) as the reference the one-pass pair map
# and the one-call inversions must match bit for bit, error for error.


def map_pair(self, x1: float, x2: float, hazards: bool):
    """``((R0(x1), R0(x2)), (r0(x1), r0(x2)) or None)`` of two finite
    floats at or above ``x_L``.  A family with float maps (the
    exponential, a table, a callable) maps each coordinate with its own
    call; any other takes one ``cumulative_hazard`` call on both and,
    with ``hazards``, one ``hazard`` call on both, since numpy's SIMD
    loops and ``math`` differ in the last bit of ``log``, ``exp`` and
    ``power``."""
    if self._float_maps:
        r = (self.cumulative_hazard(x1), self.cumulative_hazard(x2))
        return r, ((self.hazard(x1), self.hazard(x2)) if hazards else None)
    xs = np.array((x1, x2))
    r = self.cumulative_hazard(xs).tolist()
    return r, (self.hazard(xs).tolist() if hazards else None)


def races(base, rates, n: int, seed: int):
    """The latent races at ``rates = (theta1, theta2, theta3)``; an arrival
    whose rate is at or below 0 never comes."""
    gen = _gen(np.random.SeedSequence(seed))
    e = gen.exponential(size=(3, n))
    v1, v2, v3 = (e_i / rate if rate > 0.0 else np.full(n, np.inf)
                  for e_i, rate in zip(e, rates))
    w1 = np.minimum(v1, v3)
    w2 = np.minimum(v2, v3)
    x1 = np.asarray(base.inverse_cumulative_hazard(w1), dtype=float)
    # where the shared arrival won both races the pair is tied: reuse the
    # already-inverted value so the tie is the same float by construction
    tie = w1 == w2
    x2 = x1.copy()
    if np.any(~tie):
        x2[~tie] = np.asarray(base.inverse_cumulative_hazard(w2[~tie]), dtype=float)
    return SampleBatch(x1=x1, x2=x2, seed=seed, n=n)


def sample(model, n: int, seed: int):
    """The one draw of :func:`sample_ph` and :func:`sample_general`."""
    n, seed = _check_sample_args(n, seed)
    dec = model.decompose()
    if not dec.weight_in_range:
        raise InvalidModelError(
            f"mixture weight alpha = {dec.alpha:.6g} outside [0, 1]; "
            "the model is not a valid distribution", value=dec.alpha)
    theta, base = model.theta, model.baseline
    tables = [kernel.tail_table(theta) for kernel in model.kernels]
    rates = model._latent_rates()
    if rates is not None:  # refused above as any model is, if invalid
        return races(base, rates, n, seed)
    alpha = min(max(dec.alpha, 0.0), 1.0)

    pick_seq, diag_seq, ac_seq = np.random.SeedSequence(seed).spawn(3)
    singular = _gen(pick_seq).random(n) < (1.0 - alpha)

    x1, x2 = np.empty(n), np.empty(n)
    m = int(np.sum(singular))
    if m:
        x1[singular] = x2[singular] = np.asarray(base.inverse_cumulative_hazard(
            _gen(diag_seq).exponential(size=m) / theta), dtype=float)

    k = n - m
    if k:
        gen_ac = _gen(ac_seq)
        # wedge x1 > x2 carries AC mass (1 - u1/theta); normalize within AC
        p_lower = min(max((1.0 - dec.u1 / theta) / alpha, 0.0), 1.0)
        lower = gen_ac.random(k) < p_lower
        w = gen_ac.exponential(size=k) / theta
        tail = 1.0 - gen_ac.random(k)
        s = np.empty(k)
        for kernel, table, on_wedge in zip(model.kernels, tables, (lower, ~lower)):
            s[on_wedge] = _draw_s(kernel, theta, table, tail[on_wedge])
        lo = np.asarray(base.inverse_cumulative_hazard(w), dtype=float)
        hi = np.asarray(base.inverse_cumulative_hazard(w + s), dtype=float)
        x1[~singular] = np.where(lower, hi, lo)
        x2[~singular] = np.where(lower, lo, hi)

    return SampleBatch(x1=x1, x2=x2, seed=seed, n=n)


# ---------------------------------------------------------------------------
# Scalar point evaluation
# ---------------------------------------------------------------------------
# ``GeneralBivariateModel.log_survival`` and ``ac_density``, and
# ``validity._gradient_components`` with the scalar wrapping of
# ``hazard_gradient``, as they were when a scalar point mapped each coordinate
# through its own baseline call, with the helpers they called.  Kept verbatim
# (``self`` is ``model``) as the reference the scalar point routine must
# match bit for bit, error for error.  One deliberate difference: this
# ``log_survival`` reads a coordinate of -inf as -inf before clamping it to
# ``x_L``, so it gives survival 0 where the array path gives the marginal
# survival of the other coordinate.


def _is_scalar(x) -> bool:
    return np.ndim(x) == 0


def _ret(value, *refs):
    """Return a plain float when every reference input is scalar."""
    if all(_is_scalar(r) for r in refs):
        return float(value)
    return np.asarray(value, dtype=float)


def _wedge(baseline, x1, x2):
    r1 = np.asarray(baseline.cumulative_hazard(x1), dtype=float)
    r2 = np.asarray(baseline.cumulative_hazard(x2), dtype=float)
    return np.asarray(x1) >= np.asarray(x2), np.abs(r1 - r2), np.minimum(r1, r2)


def _nan_check(*values) -> None:
    for v in values:
        if np.any(np.isnan(v)):
            raise DomainError(f"coordinates must not be NaN, got {v!r}")


def _per_wedge(model, method: str, upper, s, *args):
    k1, k2 = model.kernels
    if np.ndim(upper) == 0:
        return np.asarray(getattr(k1 if upper else k2, method)(s, *args), dtype=float)
    return np.where(upper, getattr(k1, method)(s, *args), getattr(k2, method)(s, *args))


def point_log_survival(model, x1, x2):
    _nan_check(x1, x2)
    base = model.baseline
    xl = base.x_L
    if _is_scalar(x1) and _is_scalar(x2):
        if math.isinf(x1) or math.isinf(x2):
            return -math.inf
        r1 = float(base.cumulative_hazard(max(float(x1), xl)))
        r2 = float(base.cumulative_hazard(max(float(x2), xl)))
        kernel = model.kernels[0 if x1 >= x2 else 1]
        # s as a 0-d array: a kernel refuses a non-finite float s, and its
        # array path passes one through, as the float path did then
        with np.errstate(over="ignore", invalid="ignore"):
            q = float(kernel.q(np.float64(abs(r1 - r2))))
        return -(q + model.theta * min(r1, r2))
    x1a = np.asarray(x1, dtype=float)
    x2a = np.asarray(x2, dtype=float)
    if (x1a.size if x1a.shape == x2a.shape else np.broadcast(x1a, x2a).size) > 2 * _BLOCK:
        return model._log_survival_blocked(x1a, x2a)
    return model._log_survival_array(x1a, x2a)


def point_ac_density(model, x1, x2):
    x1a, x2a = off_diagonal(model, x1, x2, "density")
    alpha = model.decompose().alpha
    if alpha <= _WEIGHT_EPS:
        raise UndefinedComponentError(
            "model is purely singular; the absolutely continuous density is undefined")
    upper, s, w = _wedge(model.baseline, x1a, x2a)
    with np.errstate(over="ignore", invalid="ignore"):
        h = _per_wedge(model, "density", upper, s, model.theta)
        val = (np.asarray(model.baseline.hazard(x1a), dtype=float)
               * np.asarray(model.baseline.hazard(x2a), dtype=float)
               * h * np.exp(-model.theta * w) / alpha)
    # where the larger cumulative hazard passes the float range, the wedge
    # survival exp(-Q - theta w) is 0 and so is the density, though r0 there
    # may be inf and inf * 0 is NaN
    val = np.where(np.isfinite(s), val, 0.0)
    negative = np.flatnonzero(val < 0.0)
    if negative.size:
        i = negative[0]
        raise InvalidModelError(
            f"absolutely continuous density is negative at "
            f"({x1a.flat[i]}, {x2a.flat[i]})",
            witness=(float(x1a.flat[i]), float(x2a.flat[i])), value=float(val.flat[i]),
        )
    return _ret(val, x1, x2)


def _far_slopes(kernel, x, r0x):
    """``(r_m(x), Q')`` with ``Q'`` read at ``x`` itself: ``r_m(x) / r0(x)``,
    or ``delta`` for a PH kernel over its own baseline."""
    r = np.asarray(kernel.marginal.hazard(x), dtype=float)
    return r, (r / r0x if kernel.delta is None else np.full_like(r, kernel.delta))


def _gradient_components(model, x1, x2):
    base = model.baseline
    theta = model.theta
    upper, s, _ = _wedge(base, x1, x2)
    q = _per_wedge(model, "q_prime", upper, s)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r0_1 = np.asarray(base.hazard(x1), dtype=float)
        r0_2 = np.asarray(base.hazard(x2), dtype=float)
        # where the larger coordinate x passes the float range of R0 (s inf),
        # R0^{-1}(s) is read as x: Q' = r_m(x) / r0(x), and the larger
        # component Q' r0(x) is the marginal's own hazard r_m(x), not the
        # NaN of 0 * inf
        far = ~np.isfinite(s)
        if np.any(far):
            x, r0x = np.where(upper, x1, x2), np.where(upper, r0_1, r0_2)
            (r_a, q_a), (r_b, q_b) = (_far_slopes(k, x, r0x) for k in model.kernels)
            q = np.where(far, np.where(upper, q_a, q_b), q)
        g1 = np.where(upper, q * r0_1, theta * r0_1 - q * r0_1)
        g2 = np.where(upper, theta * r0_2 - q * r0_2, q * r0_2)
        if np.any(far):
            g1 = np.where(far & upper, r_a, g1)
            g2 = np.where(far & ~upper, r_b, g2)
    return g1, g2


def point_hazard_gradient(model, x1, x2):
    g1, g2 = _gradient_components(model, *off_diagonal(model, x1, x2, "hazard gradient"))
    return _ret(g1, x1, x2), _ret(g2, x1, x2)


# ---------------------------------------------------------------------------
# Diagonal survival
# ---------------------------------------------------------------------------
# ``_BivariateBase.singular_survival`` as it was when it kept its own copy of
# survival's input rules, kept verbatim (``self`` is ``model``) as the
# reference that ``S(x, x)`` must match bit for bit, error for error.


def diagonal_singular_survival(model, x):
    """Survival of the diagonal component, ``S0(x)**theta``.

    Takes :meth:`survival`'s input rules: NaN raises, a coordinate below
    ``x_L`` clamps to it and ``+inf`` reads 0.
    """
    dec = model.decompose()
    if dec.singular_mass <= _WEIGHT_EPS:
        raise UndefinedComponentError(
            "model has no singular component (singular mass is zero)"
        )
    _nan_check(x)
    xl = model.baseline.x_L
    xc = np.maximum(np.asarray(x, dtype=float), xl)
    inf = np.isinf(xc)
    r0 = np.asarray(model.baseline.cumulative_hazard(np.where(inf, xl, xc)), dtype=float)
    with np.errstate(over="ignore"):  # theta * r0 may pass the float range: S = 0
        return _ret(np.where(inf, 0.0, np.exp(-model.theta * r0)), x)


# ---------------------------------------------------------------------------
# Array survival
# ---------------------------------------------------------------------------
# ``GeneralBivariateModel._log_survival_array`` as it was when it clamped every
# block to ``x_L`` and masked its infinite points whether it had any or not,
# kept verbatim (``self`` is ``model``, and the helpers are this module's
# copies) as the reference the in-place pass must match bit for bit.


@np.errstate(over="ignore", invalid="ignore")
def log_survival_masked(model, x1, x2):
    """Log-survival of float arrays free of NaN, broadcast as numpy does.
    An infinite coordinate maps as ``x_L``; there, and where ``s`` is inf or
    NaN (``inf - inf``), the kernels get 0 and ``-inf`` is read."""
    xl = model.baseline.x_L
    x1a = np.maximum(x1, xl)
    x2a = np.maximum(x2, xl)
    inf_mask = np.isinf(np.maximum(x1a, x2a))  # clamped to x_L: never -inf
    upper, s, w = _wedge(model.baseline, np.where(inf_mask, xl, x1a),
                         np.where(inf_mask, xl, x2a))
    zero = np.isfinite(s) <= inf_mask
    s[zero] = 0.0
    out = -(_per_wedge(model, "q", upper, s) + model.theta * w)
    out[zero] = -np.inf
    return out


# ---------------------------------------------------------------------------
# Wedge tail, wedge density and hazard gradient
# ---------------------------------------------------------------------------
# ``sampling._wedge_tail`` and ``sampling._tail_table``,
# ``WedgeKernel.density``, and ``validity._gradient_components`` and
# ``validity._gradient_at`` with the ``_BivariateBase._off_diagonal``
# admission they took, as they were before the kernel owned the wedge tail
# and the model owned the hazard gradient.  Kept verbatim (``self`` is
# ``kernel`` or ``model``, and the constants are copied) as the references
# the kernel's and the model's routines must match bit for bit.

_DENSITY_NOISE = 1e-9
_TAIL_NODES = 2049
_RISE_RTOL = 1e-9


def off_diagonal(model, x1, x2, what: str):
    """``x1, x2`` as broadcast float arrays, admitted only off the diagonal,
    finite and at or above ``x_L``; :class:`DomainError` otherwise."""
    x1a, x2a = np.broadcast_arrays(np.asarray(x1, dtype=float),
                                   np.asarray(x2, dtype=float))
    if np.any(x1a == x2a):
        raise DomainError(f"{what} undefined on the diagonal")
    xl = model.baseline.x_L
    if not (np.all(np.isfinite(x1a) & np.isfinite(x2a))
            and np.all(np.minimum(x1a, x2a) >= xl)):
        raise DomainError(f"coordinates must be finite and >= {xl}")
    return x1a, x2a


def wedge_tail(kernel, theta: float, s):
    """``G(s) = (theta - Q'(s)) exp(-Q(s))`` and the wedge density ``h = -G'``."""
    q, q1, q2 = kernel.q_slopes(s)
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.exp(-q)
        return (theta - q1) * e, (theta * q1 + q2 - q1 * q1) * e


def tail_table(kernel, theta: float):
    """``(s, G(s))`` on the table: ``G(0) = theta - u``, ``G(inf) = 0``.

    Raises :class:`~bisurv.errors.InvalidModelError` at the first node where ``G``
    is negative (``Q' > theta``) or rises by more than rounding (``h < 0``).
    """
    v = np.linspace(0.0, 1.0, _TAIL_NODES)[:-1]
    s = np.append(v / (1.0 - v), np.inf)
    g = np.concatenate([[theta - kernel.u], wedge_tail(kernel, theta, s[1:-1])[0], [0.0]])
    rises = g[1:] - g[:-1] > _RISE_RTOL * np.maximum(g[:-1], g[1:])
    bad = np.flatnonzero(~(g >= 0.0) | np.concatenate([[False], rises]))
    if bad.size:
        i = bad[0]
        if np.isnan(g[i]):
            raise SamplerError(f"wedge tail G(s) is not a number at s = {s[i]:.6g}")
        what = "is negative, so Q'(s) > theta" if g[i] < 0.0 else "rises, so h(s) < 0"
        raise InvalidModelError(
            f"wedge tail G(s) = (theta - Q'(s)) exp(-Q(s)) {what} at s = {s[i]:.6g} "
            f"(G = {g[i]:.6g}); the model is not a valid distribution",
            witness=float(s[i]), value=float(g[i]))
    # the running minimum keeps the bracket search monotone through rounding
    return s, np.minimum.accumulate(g)


def wedge_density(kernel, s, theta: float):
    """Wedge density ``h(s) = (theta Q' + Q'' - Q'^2) exp(-Q)``.

    Its total mass is ``theta - u``.  A negative factor no larger than
    ``1e-9`` times the size of its terms is rounding noise (of ``Q'`` near
    ``theta``, or of a callable's slope) and reads as 0.
    """
    q, q1, q2 = kernel.q_slopes(s)
    if type(q) is float:  # a PH kernel at a float: the array path's steps
        theta = float(theta)
        a = theta * q1 + q2 - q1 * q1
        if a < 0.0 and -a <= _DENSITY_NOISE * (theta * abs(q1) + abs(q2) + q1 * q1):
            a = 0.0
        return a * float(np.exp(-q))
    with np.errstate(over="ignore", invalid="ignore"):
        a = theta * q1 + q2 - q1 * q1
        noise = _DENSITY_NOISE * (theta * np.abs(q1) + np.abs(q2) + q1 * q1)
        a = np.where((a < 0.0) & (-a <= noise), 0.0, a)
        return a * np.exp(-q)


def gradient_components(model, x1, x2):
    """``(g1, g2, r0(x1), r0(x2))`` at float arrays ``x1, x2``, unchecked."""
    base = model.baseline
    theta = model.theta
    upper, s, _ = _wedge(base, x1, x2)
    q = model._per_wedge("q_prime", upper, s)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r0_1 = np.asarray(base.hazard(x1), dtype=float)
        r0_2 = np.asarray(base.hazard(x2), dtype=float)
        g1 = np.where(upper, q * r0_1, theta * r0_1 - q * r0_1)
        g2 = np.where(upper, theta * r0_2 - q * r0_2, q * r0_2)
    return g1, g2, r0_1, r0_2


def gradient_at(model, point) -> tuple[float, float]:
    """``(g1, g2)`` of one off-diagonal point of the model's ``_point``
    routine: the expressions of :func:`gradient_components` on the point's
    own wedge, with the hazards the point carries."""
    _, _, upper, s, _, kernel, (r0_1, r0_2) = point
    theta = model.theta
    q = float(kernel.q_prime(s))
    if upper:
        return q * r0_1, theta * r0_2 - q * r0_2
    return theta * r0_1 - q * r0_1, q * r0_2


# ---------------------------------------------------------------------------
# Hazard-gradient identity
# ---------------------------------------------------------------------------
# ``validity.check_hazard_gradient_identity`` as it was when its residual
# mapped the baseline hazard of each shifted pair again for its divisors,
# kept verbatim as the reference the check must match bit for bit.


def gradient_identity(model, grid=None):
    from bisurv.validity import GridSpec, _worst_over_shifts, hazard_gradient

    grid = grid or GridSpec.default()
    base = model.baseline
    theta = model.theta
    hi, lo = grid.wedge_pairs(base)

    def residual(t, y1, y2):
        g1, g2 = hazard_gradient(model, y1, y2)
        r0t = float(base.hazard(t))
        with np.errstate(divide="ignore", invalid="ignore"):
            lhs = g1 * r0t / base.hazard(y1) + g2 * r0t / base.hazard(y2)
        return np.abs(lhs - theta * r0t) / (theta * r0t)

    return _worst_over_shifts(base, grid.t_points(base), np.concatenate([hi, lo]),
                              np.concatenate([lo, hi]), residual, relative=True)


# ---------------------------------------------------------------------------
# Validity rows
# ---------------------------------------------------------------------------
# ``GridSpec.wedge_pairs``, ``validity._grid_slopes``,
# ``validity._grid_bound_condition`` and ``validity._rows`` as they were when
# the baseline mapped every grid pair, with the three reports built on them
# and ``check_two_increasing`` on the column scan above.  Kept verbatim
# (``self`` is ``grid``) as the reference the reports must match byte for
# byte, with the divergence row as it was when it called each kernel on the
# probes itself; the weight row is the library's.


def wedge_pairs(grid, baseline):
    """All ordered knot pairs (hi, lo) clear of the diagonal margin."""
    knots = np.asarray(grid.r0_knots)
    j, k = np.tril_indices(len(knots), -1)
    keep = knots[j] - knots[k] >= grid.wedge_margin
    xs = grid.axis_points(baseline)
    return xs[j[keep]], xs[k[keep]]


def grid_slopes(kernels, grid):
    base = kernels[0].baseline
    hi, lo = wedge_pairs(grid, base)
    s = _wedge(base, hi, lo)[1]
    r0_lo = np.asarray(base.hazard(lo), dtype=float)
    return hi, lo, r0_lo, [k.slopes(s) for k in kernels]


def grid_bound_condition(cid, label, lhs_by_marg, rhs, hi, lo, *, lower_zero=False,
                         floor=1e-8):
    from bisurv.validity import ConditionResult

    worst, worst_witness, passed = math.inf, None, True
    decided = skipped = 0
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
        passed &= not np.any(margin < -np.maximum(floor, 1e-6 * np.abs(rhs[ok])))
        i = int(np.argmin(margin))
        if margin[i] < worst:
            worst = float(margin[i])
            worst_witness = (float(wit[0][ok][i]), float(wit[1][ok][i]))
    if decided == 0:
        return ConditionResult(cid, label, None,
                               note=f"all {skipped} grid points skipped")
    note = f"{decided} grid points" + (f", {skipped} skipped" if skipped else "")
    return ConditionResult(cid, label, passed, witness=worst_witness,
                           margin=worst, note=note)


def divergence_condition(cid, kernels):
    from bisurv.validity import (_DIVERGENCE_PROBES, _DIVERGENCE_TARGET,
                                 ConditionResult)

    passed = True
    worst_tail = math.inf
    for k in kernels:
        ri = k.q(np.asarray(_DIVERGENCE_PROBES))
        growing = bool(np.all(np.diff(ri) > 0))
        worst_tail = min(worst_tail, float(ri[-1]))
        if not (growing and ri[-1] > _DIVERGENCE_TARGET):
            passed = None
    return ConditionResult(
        cid, "total-hazard-divergence", passed,
        margin=worst_tail - _DIVERGENCE_TARGET,
        note=("heuristic: cumulative hazard %.4g at the farthest probe, "
              "target > %g with monotone growth; divergence cannot be proven "
              "from finite samples" % (worst_tail, _DIVERGENCE_TARGET)),
    )


def grid_rows(kernels, theta, grid, floor, ids, names=("u1", "u2")):
    from bisurv.validity import _weight_condition

    rows = {}
    rows["weights"], us, alpha = _weight_condition(ids["weights"], kernels, theta, names)
    hi, lo, r0_lo, slopes = grid_slopes(kernels, grid)
    bound = theta * r0_lo
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = [r0_lo * (q1 - q2 / q1) for q1, q2 in slopes]
    rows["density"] = grid_bound_condition(ids["density"], "cross-derivative-bound",
                                           cross, bound, hi, lo, floor=floor)
    if "gradient" in ids:
        with np.errstate(invalid="ignore"):
            gradient = [q1 * r0_lo for q1, _ in slopes]
        rows["gradient"] = grid_bound_condition(
            ids["gradient"], "gradient-nonnegativity-bound", gradient, bound, hi, lo,
            lower_zero=True, floor=floor)
    if "divergence" in ids:
        rows["divergence"] = divergence_condition(ids["divergence"], kernels)
    return [rows[fact] for fact in ids], us, alpha


def marginal_conditions(model, grid, tol=None):
    from bisurv.validity import ValidationReport, _combine_verdict

    floor = 1e-8 if tol is None else float(tol)
    theta = model.theta
    conditions, us, alpha = grid_rows(model.kernels, theta, grid, floor,
                                      {"weights": "i", "density": "ii"})
    diagnostics = {"u1": us[0], "u2": us[1], "alpha": alpha, "theta": theta,
                   "grid": grid.describe(),
                   "tolerance": f"lhs <= rhs + max({floor:g}, 1e-6*|rhs|)"}
    return ValidationReport(_combine_verdict(conditions), conditions, diagnostics)


def hazard_rate_conditions(r1, r2, baseline, theta, grid, tol=None):
    from bisurv.bivariate import _validate_theta
    from bisurv.validity import (_DIVERGENCE_PROBES, _DIVERGENCE_TARGET, ValidationReport,
                                 _as_kernel, _combine_verdict)

    theta = _validate_theta(theta)
    floor = 1e-8 if tol is None else float(tol)
    kernels = [_as_kernel(r, baseline) for r in (r1, r2)]
    conditions, vs, alpha = grid_rows(kernels, theta, grid, floor,
                                      {"gradient": "i", "divergence": "ii", "density": "iii",
                                       "weights": "iv"}, names=("v1", "v2"))
    diagnostics = {"v1": vs[0], "v2": vs[1], "theta": theta, "alpha": alpha,
                   "grid": grid.describe(),
                   "divergence_heuristic": f"cumulative hazard > {_DIVERGENCE_TARGET} at "
                                           f"R0 probes {list(_DIVERGENCE_PROBES)}"}
    return ValidationReport(_combine_verdict(conditions), conditions, diagnostics)


def cell_rule(s, tol=0.0):
    """``validity._cell_rule`` one cell at a time, in Python floats:
    ``(value, i, k, passed)``.  Cell ``(i, k)`` is ``(s[i,k] - s[i,k+1]) -
    (s[i+1,k] - s[i+1,k+1])``; with ``A`` the largest ``|corner|`` (NaN if
    one is), it fails unless ``(A * 2^-49 + (5e-324 + tol)) + cell >= 0``.
    The witness is the first NaN cell, else the first smallest, unless that
    one passes and another fails: then the first smallest failing cell.
    """
    n = s.shape[0]
    cells = []
    for i in range(n - 1):
        for k in range(n - 1):
            corners = [float(v) for v in (s[i, k], s[i, k + 1], s[i + 1, k], s[i + 1, k + 1])]
            a, c, b, d = corners
            cell = (a - c) - (b - d)
            big = math.nan if any(map(math.isnan, corners)) else max(map(abs, corners))
            cells.append((cell, i, k, not (big * 2.0**-49 + (5e-324 + tol)) + cell >= 0.0))
    nans = [c for c in cells if math.isnan(c[0])]
    worst = nans[0] if nans else min(cells, key=lambda c: c[0])
    failing = [c for c in cells if c[3]]
    if failing and not worst[3]:
        worst = min(failing, key=lambda c: c[0])
    _, i, k, _ = worst
    with np.errstate(invalid="ignore", over="ignore"):
        value = float(s[i, k] - s[i + 1, k] - s[i, k + 1] + s[i + 1, k + 1])
    return value, i, k, not failing


def two_increasing(model, grid, tol=None):
    """``check_two_increasing`` on ``model.survival`` over the grid's knots,
    by :func:`cell_rule`."""
    from bisurv.validity import INVALID, VALID, ConditionResult, ValidationReport

    tol = 0.0 if tol is None else float(tol)
    xs = grid.axis_points(model.baseline)
    if len(xs) < 2:
        cond = ConditionResult("two-increasing", "rectangle-nonnegativity", True,
                               note="degenerate grid; vacuously satisfied")
        return ValidationReport(VALID, [cond], {"grid": grid.describe()})
    s = np.asarray(model.survival(xs[:, None], xs[None, :]), dtype=float)
    worst, i, k, passed = cell_rule(s, tol)
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


def validation(model, grid, tol=None):
    """The ``validate`` report: ``combined_validation``'s body."""
    from bisurv.validity import ValidationReport, _combine_verdict

    floor = 1e-8 if tol is None else float(tol)
    rows, us, alpha = grid_rows(model.kernels, model.theta, grid, floor,
                                {"weights": "marginal-i", "density": "marginal-ii",
                                 "gradient": "hazard-i", "divergence": "hazard-ii"})
    rectangles = two_increasing(model, grid, tol)
    conditions = [*rows, *rectangles.conditions]
    worst = rectangles.diagnostics.get("min_rectangle_probability")
    diagnostics = {key: value for key, value in (
        ("grid", grid.describe()), ("u1", us[0]), ("u2", us[1]), ("alpha", alpha),
        ("min_rectangle_probability", worst)) if value is not None}
    return ValidationReport(_combine_verdict(conditions), conditions, diagnostics)


# -- wedge kernels ------------------------------------------------------------

def model_tables(kernel):
    """``(marginal, baseline)``: the hazard table behind each of the kernel's
    models (the maps of a model built ``from_table``), or None."""
    return tuple(maps if isinstance(maps := getattr(model, "_maps", None), PiecewiseLinearHazard)
                 else None for model in (kernel.marginal, kernel.baseline))


def composed_q(kernel, s):
    """``Q(s)`` by composition: the baseline's inverse, then the marginal's
    cumulative hazard (the kernel's path before merged table segments)."""
    return np.asarray(kernel.marginal.cumulative_hazard(_composed_at(kernel, s)), dtype=float)


def composed_slopes(kernel, s, second: bool = True):
    s = np.asarray(s, dtype=float)
    return _composed_slopes_at(kernel, _composed_at(kernel, s), second)


def composed_q_slopes(kernel, s, second: bool = True):
    s = np.asarray(s, dtype=float)
    d = _composed_at(kernel, s)
    return (np.asarray(kernel.marginal.cumulative_hazard(d), dtype=float),
            *_composed_slopes_at(kernel, d, second))


def _composed_at(kernel, s):
    return np.asarray(kernel.baseline.inverse_cumulative_hazard(s), dtype=float)


def _composed_slopes_at(kernel, d, second: bool):
    r = np.asarray(kernel.marginal.hazard(d), dtype=float)
    r0 = np.asarray(kernel.baseline.hazard(d), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        q1 = r / r0
        if not second:
            return q1, None
        rp = kernel.marginal.hazard_derivative(d)
        r0p = kernel.baseline.hazard_derivative(d)
        return q1, (np.asarray(rp, dtype=float) * r0
                    - r * np.asarray(r0p, dtype=float)) / r0**3


class HazardMaps:
    """``R``, ``R^{-1}``, ``r`` and the right and left derivatives of ``r``
    of a univariate law, as scalar functions written without the library."""

    def __init__(self, R, inverse, r, right, left):
        self.R, self.inverse, self.r, self.right, self.left = R, inverse, r, right, left

    @classmethod
    def closed_form(cls, family: str, alpha: float = 1.0) -> "HazardMaps":
        """The exponential, Weibull(``alpha``) and Pareto baselines."""
        if family == "exponential":
            return cls(lambda x: x, lambda s: s, lambda x: 1.0, lambda x: 0.0, lambda x: 0.0)
        if family == "weibull":  # at x > 0
            def rp(x):
                return alpha * (alpha - 1.0) * x ** (alpha - 2.0)
            return cls(lambda x: x**alpha, lambda s: s ** (1.0 / alpha),
                       lambda x: alpha * x ** (alpha - 1.0), rp, rp)
        assert family == "pareto"
        return cls(math.log, math.exp, lambda x: 1.0 / x,
                   lambda x: -1.0 / (x * x), lambda x: -1.0 / (x * x))

    @classmethod
    def lfr(cls, a: float) -> "HazardMaps":
        """Hazard ``1 + 2 a x`` on ``x >= 0``."""
        return cls(lambda x: x + a * x * x, None, lambda x: 1.0 + 2.0 * a * x,
                   lambda x: 2.0 * a, lambda x: 2.0 * a)

    @classmethod
    def table(cls, table: LinearHazardTable, x_L: float) -> "HazardMaps":
        return cls(lambda x: table.integral(x_L, x), lambda s: table.inverse(x_L, s),
                   table.h, table.slope, table.left_slope)


def exact_wedge(marginal: HazardMaps, baseline: HazardMaps, s: float, d: float | None = None):
    """``(Q, Q', Q'' right, Q'' left)`` at ``s``: ``d = R0^{-1}(s)``, unless
    given, then ``Q = R_m(d)``, ``Q' = r_m / r0`` and ``Q''`` from the right
    and from the left derivatives of both hazards at ``d``; they differ only
    on a knot.  A knot ``x`` passed as ``d`` gives both sides of ``s = R0(x)``,
    whichever side of ``x`` the float ``R0^{-1}(s)`` rounds to."""
    if d is None:
        d = baseline.inverse(s)
    r, r0 = np.float64(marginal.r(d)), np.float64(baseline.r(d))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # r0 = 0: inf
        sides = [(rp(d) * r0 - r * r0p(d)) / r0**3
                 for rp, r0p in ((marginal.right, baseline.right), (marginal.left, baseline.left))]
        return marginal.R(d), float(r / r0), *map(float, sides)
