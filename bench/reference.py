"""Closed forms the benchmark checks bisurv against.

Nothing here imports bisurv.  Every model the benchmark uses is written in
the paper's wedge coordinates: with ``w = R0(min(x1, x2))`` and
``s = |R0(x1) - R0(x2)|``, the survival on the wedge of marginal ``i`` is
``exp(-Q_i(s) - theta * w)`` where ``Q_i(s) = R_i(R0^{-1}(s))``.  From that:

* AC density   ``r0(x1) r0(x2) (theta Q' + Q'' - Q'^2) exp(-Q - theta w) / alpha``
* gradient     larger coordinate ``Q'(s) r0(x)``, smaller ``(theta - Q'(s)) r0(x)``
* mixture      ``alpha = 2 - (Q_1'(0) + Q_2'(0)) / theta``, tie mass ``1 - alpha``
* marginal     ``P(X_i > x) = exp(-Q_i(R0(x)))``

A piecewise-linear hazard table has a piecewise-quadratic cumulative
hazard, so table baselines and marginals are integrated and inverted
exactly (to rounding) instead of by quadrature.
"""

from __future__ import annotations

import math

import numpy as np


class ExpBase:
    """R0(x) = x on x >= 0."""

    x_L = 0.0

    def R0(self, x):
        return np.maximum(np.asarray(x, dtype=float), 0.0)

    def inv(self, r):
        return np.asarray(r, dtype=float)

    def r0(self, x):
        return np.ones_like(np.asarray(x, dtype=float))


class WeibullBase:
    """R0(x) = x**k on x >= 0."""

    x_L = 0.0

    def __init__(self, k: float):
        self.k = float(k)

    def R0(self, x):
        return np.maximum(np.asarray(x, dtype=float), 0.0) ** self.k

    def inv(self, r):
        return np.asarray(r, dtype=float) ** (1.0 / self.k)

    def r0(self, x):
        return self.k * np.asarray(x, dtype=float) ** (self.k - 1.0)


class ParetoBase:
    """R0(x) = ln x on x >= 1."""

    x_L = 1.0

    def R0(self, x):
        return np.log(np.maximum(np.asarray(x, dtype=float), 1.0))

    def inv(self, r):
        return np.exp(np.asarray(r, dtype=float))

    def r0(self, x):
        return 1.0 / np.asarray(x, dtype=float)


class HazardTable:
    """Exact cumulative hazard of a piecewise-linear hazard held flat past the ends.

    On ``[x_k, x_k+1]`` the hazard is ``h_k + m_k t`` with ``t = x - x_k``,
    so ``R(x) = C_k + h_k t + m_k t^2 / 2``; the inverse takes the stable
    root ``t = 2 dr / (h_k + sqrt(h_k^2 + 2 m_k dr))``.
    """

    def __init__(self, xs, hs):
        self.xs = np.asarray(xs, dtype=float)
        self.hs = np.asarray(hs, dtype=float)
        self.x_L = float(self.xs[0])
        dx = np.diff(self.xs)
        self.slope = np.diff(self.hs) / dx
        self.cum = np.concatenate([[0.0], np.cumsum(0.5 * (self.hs[:-1] + self.hs[1:]) * dx)])

    def _segment(self, x):
        return np.clip(np.searchsorted(self.xs, x, side="right") - 1, 0, len(self.xs) - 2)

    def R(self, x):
        x = np.maximum(np.asarray(x, dtype=float), self.x_L)
        k = self._segment(x)
        t = np.minimum(x, self.xs[-1]) - self.xs[k]
        inside = self.cum[k] + self.hs[k] * t + 0.5 * self.slope[k] * t * t
        beyond = np.maximum(x - self.xs[-1], 0.0) * self.hs[-1]
        return inside + beyond

    def inv(self, r):
        r = np.maximum(np.asarray(r, dtype=float), 0.0)
        k = np.clip(np.searchsorted(self.cum, r, side="right") - 1, 0, len(self.xs) - 2)
        dr = np.minimum(r, self.cum[-1]) - self.cum[k]
        h, m = self.hs[k], self.slope[k]
        t = 2.0 * dr / (h + np.sqrt(np.maximum(h * h + 2.0 * m * dr, 0.0)))
        beyond = np.maximum(r - self.cum[-1], 0.0) / self.hs[-1]
        return self.xs[k] + t + beyond

    def h(self, x):
        return np.interp(x, self.xs, self.hs)

    def dh(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x >= self.xs[0]) & (x <= self.xs[-1])
        return np.where(inside, self.slope[self._segment(x)], 0.0)


class TableBase(HazardTable):
    """Baseline whose hazard is a table."""

    def R0(self, x):
        return self.R(x)

    def r0(self, x):
        return self.h(x)


class PHWedge:
    """Q(s) = delta * s: proportional hazards over the model's own baseline."""

    def __init__(self, delta: float):
        self.delta = float(delta)

    def Q(self, s):
        return self.delta * np.asarray(s, dtype=float)

    def dQ(self, s):
        return np.full_like(np.asarray(s, dtype=float), self.delta)

    def d2Q(self, s):
        return np.zeros_like(np.asarray(s, dtype=float))

    def Qinv(self, q):
        return np.asarray(q, dtype=float) / self.delta


class LFRWedge:
    """Linear failure rate over the exponential baseline: Q(s) = s + a s^2."""

    def __init__(self, a: float):
        self.a = float(a)

    def Q(self, s):
        s = np.asarray(s, dtype=float)
        return s + self.a * s * s

    def dQ(self, s):
        return 1.0 + 2.0 * self.a * np.asarray(s, dtype=float)

    def d2Q(self, s):
        return np.full_like(np.asarray(s, dtype=float), 2.0 * self.a)

    def Qinv(self, q):
        q = np.asarray(q, dtype=float)
        return 2.0 * q / (1.0 + np.sqrt(1.0 + 4.0 * self.a * q))


class TableWedge:
    """Hazard-table marginal over the exponential baseline: Q = R_table."""

    def __init__(self, table: HazardTable):
        self.table = table

    def Q(self, s):
        return self.table.R(s)

    def dQ(self, s):
        return self.table.h(s)

    def d2Q(self, s):
        return self.table.dh(s)

    def Qinv(self, q):
        return self.table.inv(q)


class WedgeModel:
    """Reference bivariate model: baseline, two wedge functions and theta."""

    def __init__(self, base, q1, q2, theta: float):
        self.base, self.q = base, (q1, q2)
        self.theta = float(theta)
        self.alpha = 2.0 - (float(q1.dQ(0.0)) + float(q2.dQ(0.0))) / self.theta

    @classmethod
    def ph(cls, base, theta1: float, theta2: float, theta3: float) -> "WedgeModel":
        return cls(base, PHWedge(theta1 + theta3), PHWedge(theta2 + theta3),
                   theta1 + theta2 + theta3)

    def _coords(self, x1, x2):
        r1 = self.base.R0(x1)
        r2 = self.base.R0(x2)
        upper = r1 >= r2
        w = np.minimum(r1, r2)
        s = np.abs(r1 - r2)
        return upper, w, s

    def _pick(self, upper, name, s):
        a = getattr(self.q[0], name)(s)
        b = getattr(self.q[1], name)(s)
        return np.where(upper, a, b)

    def log_survival(self, x1, x2):
        upper, w, s = self._coords(x1, x2)
        return -(self._pick(upper, "Q", s) + self.theta * w)

    def survival(self, x1, x2):
        return np.exp(self.log_survival(x1, x2))

    def ac_density(self, x1, x2):
        upper, w, s = self._coords(x1, x2)
        qp = self._pick(upper, "dQ", s)
        h = self.theta * qp + self._pick(upper, "d2Q", s) - qp * qp
        return (self.base.r0(x1) * self.base.r0(x2) * h
                * np.exp(-(self._pick(upper, "Q", s) + self.theta * w)) / self.alpha)

    def hazard_gradient(self, x1, x2):
        upper, _, s = self._coords(x1, x2)
        qp = self._pick(upper, "dQ", s)
        g1 = np.where(upper, qp, self.theta - qp) * self.base.r0(x1)
        g2 = np.where(upper, self.theta - qp, qp) * self.base.r0(x2)
        return g1, g2

    def rectangle(self, a1, b1, a2, b2):
        """Inclusion-exclusion value and the corner scale it cancels against."""
        corners = [float(self.survival(u, v)) for u, v in ((a1, a2), (b1, a2), (a1, b2), (b1, b2))]
        return corners[0] - corners[1] - corners[2] + corners[3], max(corners)

    @property
    def tie_mass(self) -> float:
        return 1.0 - self.alpha

    def marginal_quantile(self, i: int, p):
        """x with P(X_i > x) = p."""
        return self.base.inv(self.q[i].Qinv(-np.log(p)))

    def point(self, r):
        """Raw coordinate at cumulative-hazard level r."""
        return self.base.inv(r)


def rel_err(got, want, floor: float = 1e-300) -> float:
    """Largest elementwise relative error; exact agreement (inf or 0 included) is 0."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    same = got == want
    with np.errstate(invalid="ignore", divide="ignore"):
        err = np.abs(got - want) / np.maximum(np.abs(want), floor)
    err = np.where(same, 0.0, err)
    return float(np.max(err)) if err.size else 0.0


def digits(max_rel_err: float) -> float:
    """min(16, -log10(err)), at least 0: decimal digits that agree."""
    if not math.isfinite(max_rel_err):
        return 0.0
    if max_rel_err <= 1e-16:
        return 16.0
    return max(0.0, -math.log10(max_rel_err))
