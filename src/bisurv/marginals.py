"""Univariate marginal models: survival / density / hazard triples.

Three kinds are provided:

* ``ProportionalHazard`` -- survival is a positive power of a baseline
  survival function, ``S(x) = S0(x)**delta``.
* ``LinearFailureRate`` -- hazard ``1 + 2*a*x`` on ``x > 0``, i.e.
  ``S(x) = exp(-(x + a*x**2))``.
* ``FromHazard`` -- survival reconstructed from a hazard,
  ``S(x) = exp(-int_{x_L}^{x} r(u) du)``: exactly for a piecewise-linear
  table, by quadrature for an arbitrary function.

``WedgeKernel`` puts a marginal over a baseline into the wedge coordinate
``s = R0(max) - R0(min)`` of the bivariate models:
``Q(s) = R_marginal(R0^{-1}(s))`` with its derivatives ``Q'`` and ``Q''``.
Every bivariate quantity off the diagonal -- survival, density, validity
conditions, the sampler's wedge density -- is built from these.

``limit_hazard_ratio`` evaluates the one-sided limit ``u = Q'(0+)``, i.e.
of ``marginal.hazard(y) / baseline.hazard(y)`` as ``y`` approaches the left
endpoint.  This is the diagonal weight that the mixture decomposition of the
bivariate models is built from; both individual hazards may vanish or blow
up at the endpoint, so the limit is taken by sampling at geometrically
shrinking offsets in cumulative-hazard coordinates and accelerating the
resulting sequence.  One routine, ``_row_limits``, accelerates every such
sequence: it takes a 2-D array with one sequence per row and settles all
rows in one array pass, so the validity checks re-take the limit from every
grid anchor of a kernel in a single call.
"""

from __future__ import annotations

import functools
import math
import warnings

import numpy as np

from .baseline import (
    BaselineModel,
    HazardIntegrator,
    HazardModel,
    PiecewiseLinearHazard,
    _ret,
)
from .errors import DomainError, ModelError, NumericError

__all__ = [
    "MarginalModel",
    "ProportionalHazard",
    "LinearFailureRate",
    "FromHazard",
    "WedgeKernel",
    "limit_hazard_ratio",
]


class MarginalModel(HazardModel):
    """Base class for univariate marginals with left endpoint ``x_L``."""

    kind: str = "abstract"

    def spec_string(self) -> str:
        return self.kind


class ProportionalHazard(MarginalModel):
    """Marginal with survival ``S0(x)**delta`` over a given baseline."""

    kind = "ph"

    def __init__(self, baseline: BaselineModel, delta: float):
        if not (np.isfinite(delta) and delta > 0):
            raise ModelError(f"proportional-hazards exponent must be positive, got {delta}")
        self.baseline = baseline
        self.delta = float(delta)
        self.x_L = baseline.x_L

    def cumulative_hazard(self, x):
        return _ret(self.delta * np.asarray(self.baseline.cumulative_hazard(x)), x)

    def hazard(self, x):
        return _ret(self.delta * np.asarray(self.baseline.hazard(x)), x)

    def hazard_derivative(self, x):
        d = self.baseline.hazard_derivative(x)
        if d is None:
            return None
        return _ret(self.delta * np.asarray(d), x)

    def spec_string(self) -> str:
        return f"ph:{self.delta:g}"


class LinearFailureRate(MarginalModel):
    """Hazard ``1 + 2*a*x`` on ``x > 0``; survival ``exp(-(x + a*x**2))``."""

    kind = "lfr"
    x_L = 0.0

    def __init__(self, a: float):
        if not (np.isfinite(a) and a > 0):
            raise ModelError(f"linear failure rate coefficient must be positive, got {a}")
        self.a = float(a)

    def cumulative_hazard(self, x):
        xc = np.maximum(np.asarray(x, dtype=float), 0.0)
        return _ret(xc + self.a * np.square(xc), x)

    def hazard(self, x):
        return _ret(1.0 + 2.0 * self.a * np.asarray(x, dtype=float), x)

    def hazard_derivative(self, x):
        return _ret(np.full_like(np.asarray(x, dtype=float), 2.0 * self.a), x)

    def spec_string(self) -> str:
        return f"lfr:{self.a:g}"


class FromHazard(MarginalModel):
    """Marginal defined by a hazard function or a hazard table.

    A callable hazard is integrated adaptively with a memoized knot cache
    (:class:`~bisurv.baseline.HazardIntegrator`); a table
    (:meth:`from_table`) is integrated exactly
    (:class:`~bisurv.baseline.PiecewiseLinearHazard`).  Negative hazard
    values raise :class:`~bisurv.errors.ModelError`.
    """

    kind = "from_hazard"

    def __init__(self, hazard_fn, x_L: float = 0.0):
        self.x_L = float(x_L)
        self._maps = HazardIntegrator(hazard_fn, self.x_L, name="marginal hazard")

    @classmethod
    def from_table(cls, xs, hazards, x_L: float | None = None) -> "FromHazard":
        """Piecewise-linear hazard table, ends held flat beyond the range.

        ``x_L`` defaults to the first row; a config passes the baseline's.
        Warns when the implied density does not decay over the table tail,
        since such a table cannot describe a proper distribution.
        """
        table = PiecewiseLinearHazard(xs, hazards, x_L)
        model = cls(table.hazard, table.x_L)
        model._maps = table
        tail = np.asarray(xs, dtype=float)[-3:]
        dens = [model.density(float(v)) for v in tail]
        if len(dens) >= 2 and dens[-1] >= dens[0] and dens[-1] > 0:
            warnings.warn(
                "tabulated hazard*survival does not decay over the table tail; "
                "the table may not describe a proper distribution",
                RuntimeWarning,
                stacklevel=2,
            )
        return model

    def cumulative_hazard(self, x):
        return self._maps.cumulative(x)

    def hazard(self, x):
        return self._maps.hazard(x)

    def hazard_derivative(self, x):
        return self._maps.derivative(x)


# ---------------------------------------------------------------------------
# Wedge kernel
# ---------------------------------------------------------------------------

#: relative step of the central difference of Q' (when Q'' has no analytic
#: form): eps**(1/3) balances truncation against rounding
_FD_STEP = float(np.finfo(float).eps) ** (1.0 / 3.0)

#: a negative density factor within this fraction of its terms is rounding noise
_DENSITY_NOISE = 1e-9


class WedgeKernel:
    """A marginal in the wedge coordinate of a baseline: ``Q(s) = R_m(R0^{-1}(s))``.

    With ``d = R0^{-1}(s)``, ``Q'(s) = r_m(d) / r0(d)`` and
    ``Q''(s) = (r_m'(d) r0(d) - r_m(d) r0'(d)) / r0(d)**3``.  A marginal that
    is proportional-hazards over this very baseline is recognised here and
    nowhere else: then ``Q = delta * s`` exactly, ``Q' = u = delta`` and
    ``Q'' = 0``.  Otherwise ``Q''`` comes from the analytic hazard
    derivatives when both exist, and from a central difference of ``Q'`` in
    ``s`` when not.  All methods take arrays of ``s >= 0`` and return arrays.
    """

    def __init__(self, marginal: MarginalModel, baseline: BaselineModel):
        self.marginal = marginal
        self.baseline = baseline
        self.delta = (marginal.delta if isinstance(marginal, ProportionalHazard)
                      and marginal.baseline == baseline else None)

    def _at(self, s):
        return np.asarray(self.baseline.inverse_cumulative_hazard(s), dtype=float)

    def q(self, s):
        if self.delta is not None:
            return self.delta * np.asarray(s, dtype=float)
        return np.asarray(self.marginal.cumulative_hazard(self._at(s)), dtype=float)

    def q_prime(self, s):
        return self.slopes(s, second=False)[0]

    def slopes(self, s, second: bool = True):
        """``(Q', Q'')``; ``Q''`` is None when ``second`` is False."""
        s = np.asarray(s, dtype=float)
        if self.delta is not None:
            return np.full_like(s, self.delta), np.zeros_like(s)
        return self._slopes_at(s, self._at(s), second)

    def q_slopes(self, s, second: bool = True):
        """``(Q, Q', Q'')`` from one inversion of the baseline at ``s``."""
        s = np.asarray(s, dtype=float)
        if self.delta is not None:
            return (self.delta * s,) + self.slopes(s, second)
        d = self._at(s)
        return (np.asarray(self.marginal.cumulative_hazard(d), dtype=float),
                *self._slopes_at(s, d, second))

    def _slopes_at(self, s, d, second: bool):
        """``(Q', Q'')`` at ``s`` with ``d = R0^{-1}(s)`` already found."""
        r = np.asarray(self.marginal.hazard(d), dtype=float)
        r0 = np.asarray(self.baseline.hazard(d), dtype=float)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            q1 = r / r0
            if not second:
                return q1, None
            rp = self.marginal.hazard_derivative(d)
            r0p = self.baseline.hazard_derivative(d)
            if rp is not None and r0p is not None:
                return q1, (np.asarray(rp, dtype=float) * r0
                            - r * np.asarray(r0p, dtype=float)) / r0**3
            h = np.minimum(_FD_STEP * np.maximum(1.0, s), 0.5 * s)
            return q1, (self.q_prime(s + h) - self.q_prime(s - h)) / (2.0 * h)

    def density(self, s, theta: float):
        """Wedge density ``h(s) = (theta Q' + Q'' - Q'^2) exp(-Q)``.

        Its total mass is ``theta - u``.  A negative factor no larger than
        ``1e-9`` times the size of its terms is rounding noise (mostly of a
        difference-quotient ``Q''``) and reads as 0.
        """
        q, q1, q2 = self.q_slopes(s)
        with np.errstate(over="ignore", invalid="ignore"):
            a = theta * q1 + q2 - q1 * q1
            noise = _DENSITY_NOISE * (theta * np.abs(q1) + np.abs(q2) + q1 * q1)
            a = np.where((a < 0.0) & (-a <= noise), 0.0, a)
            return a * np.exp(-q)

    @functools.cached_property
    def u(self) -> float:
        """``Q'(0+)``: exactly ``delta`` for PH, else :func:`limit_hazard_ratio`.

        Taken once per kernel: the decomposition, the validity checks and
        the sampler all read it from the model's kernels.
        """
        if self.delta is not None:
            return self.delta
        return limit_hazard_ratio(self.marginal, self.baseline)


# ---------------------------------------------------------------------------
# Diagonal hazard-ratio limit
# ---------------------------------------------------------------------------

#: offsets (in cumulative-hazard units) at which the ratio is sampled
_LIMIT_EPS0 = 1e-3
_LIMIT_LEVELS = 10
#: a limit has settled when two accelerated values agree to this tolerance
_LIMIT_RTOL = 1e-7
_LIMIT_ATOL = 1e-9
#: growth beyond which a monotone sequence is declared divergent
_DIVERGENCE_FACTOR = 50.0


def _row_limits(rows) -> np.ndarray:
    """Limit of each row of step-halved samples (samples on the last axis).

    Each row takes the first rule that applies: a NaN sample leaves it
    unsettled (NaN); an infinite sample, or a monotone tail whose increments
    do not shrink, reads ``inf``; samples constant to rounding give the last
    sample; otherwise the first of the Richardson tableau's diagonal, one
    Aitken delta-squared pass and a second pass whose last two values agree
    gives the last of those values.  A row that none settles is NaN.  Every
    rule is computed for every row, along the last axis, with the same
    arithmetic per row as a one-sequence-at-a-time loop.
    """
    r = np.asarray(rows, dtype=float)

    def aitken(s):  # exact for geometric error terms
        d1 = s[..., 1:] - s[..., :-1]
        denom = d1[..., 1:] - d1[..., :-1]
        return np.where(denom == 0.0, s[..., 2:], s[..., 2:] - d1[..., 1:] ** 2 / denom)

    with np.errstate(all="ignore"):  # the rules are computed for every row
        scale = np.maximum(1.0, np.abs(r[..., 0]))
        tail = np.diff(r)[..., -4:]
        mags = np.abs(tail)
        diverges = (((tail > 0).all(-1) | (tail < 0).all(-1))
                    & (mags[..., 1:] >= 0.9 * mags[..., :-1]).all(-1)
                    & ((np.abs(r[..., -1]) > _DIVERGENCE_FACTOR * scale)
                       | (mags[..., -1] > scale)))
        conds = [np.isnan(r).any(-1), np.isinf(r).any(-1),
                 np.abs(r - r[..., :1]).max(-1) <= 1e-13 * scale, diverges]
        values = [np.nan, np.inf, r[..., -1], np.inf]
        t, diag = r, [r[..., -1]]  # the Richardson tableau, level by level
        for j in range(1, r.shape[-1]):
            fac = 2.0**j
            t = (fac * t[..., 1:] - t[..., :-1]) / (fac - 1.0)
            diag.append(t[..., -1])
        acc = aitken(r)
        for d in (np.stack(diag, -1), acc, aitken(acc)):
            if d.shape[-1] >= 2:
                a, b = d[..., -2], d[..., -1]
                conds.append(np.isfinite(a) & np.isfinite(b) & (
                    np.abs(b - a) <= np.maximum(_LIMIT_ATOL, _LIMIT_RTOL * np.abs(b))))
                values.append(b)
        return np.select(conds, values, default=np.nan)


def limit_hazard_ratio(marginal: MarginalModel, baseline: BaselineModel) -> float:
    """Limit of ``marginal.hazard / baseline.hazard`` at the left endpoint.

    Samples the ratio ``Q'(s_k)`` at ``s_k = 1e-3 * 2**-k``, ``k < 10``, i.e. at
    ``y_k = R0^{-1}(s_k)``, and accelerates the sequence as the one row of
    a :func:`_row_limits` call.  Returns
    ``math.inf`` when the sequence grows without bound (divergence flag);
    raises :class:`~bisurv.errors.NumericError` carrying the sampled values
    when the sequence oscillates or fails to settle.
    """
    if marginal.x_L != baseline.x_L:
        raise DomainError(
            f"marginal left endpoint {marginal.x_L} differs from baseline {baseline.x_L}"
        )
    ratios = WedgeKernel(marginal, baseline).q_prime(
        _LIMIT_EPS0 * 0.5 ** np.arange(_LIMIT_LEVELS))
    u = float(_row_limits(ratios))
    if math.isnan(u):
        what = "evaluated to NaN" if np.isnan(ratios).any() else "did not converge"
        raise NumericError(f"hazard ratio near the left endpoint {what}", samples=ratios)
    return u
