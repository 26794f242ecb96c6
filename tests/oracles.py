"""Independent numerical oracles used by the tests.

These deliberately avoid the library's own differentiation/quadrature paths
so that agreement between an oracle and an implementation is evidence, not
tautology.
"""

import bisect
import math

import numpy as np
from scipy.integrate import dblquad

from bisurv.errors import NumericError


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
    ``check_two_increasing`` before it became O(n^2) in memory, kept as the
    reference it must match bit for bit.
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
# Scalar diagonal limit
# ---------------------------------------------------------------------------
# ``marginals._sequence_limit`` with ``_richardson`` and ``_aitken`` as they
# were when each limit took one sample sequence at a time, kept verbatim as
# the reference the row-wise limit routine must match bit for bit.

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
            out.append(s[k + 2] - d1[k + 1] ** 2 / denom[k])
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
