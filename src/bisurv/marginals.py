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
``Q(s) = R_marginal(R0^{-1}(s))`` with its derivatives ``Q'`` and ``Q''``,
composed in one routine from what the two models answer.  Every bivariate
quantity off the diagonal -- survival, density, validity conditions, the
sampler's wedge tail ``G`` and its table -- is built from these.

``limit_hazard_ratio`` evaluates the one-sided limit ``u = Q'(0+)``, i.e.
of ``marginal.hazard(y) / baseline.hazard(y)`` as ``y`` approaches the left
endpoint.  This is the diagonal weight that the mixture decomposition of the
bivariate models is built from; both individual hazards may vanish or blow
up at the endpoint, so the limit is taken by sampling at geometrically
shrinking offsets in cumulative-hazard coordinates and accelerating the
resulting sequence with ``_sequence_limit``.  ``Q'`` is a function of ``s``
alone, so the limit is the same from every point of the diagonal and each
kernel takes it once.
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
from .errors import DomainError, InvalidModelError, ModelError, NumericError, SamplerError

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

    def wedge_rate(self, baseline: BaselineModel) -> float | None:
        """``delta`` where the wedge kernel over ``baseline`` is exactly
        ``Q(s) = delta s``, else None: the kernel composes the maps."""
        return None


class ProportionalHazard(MarginalModel):
    """Marginal with survival ``S0(x)**delta`` over a given baseline."""

    def __init__(self, baseline: BaselineModel, delta: float):
        if not (np.isfinite(delta) and delta > 0):
            raise ModelError(f"proportional-hazards exponent must be positive, got {delta}")
        self.baseline = baseline
        self.delta = float(delta)
        self.x_L = baseline.x_L

    def wedge_rate(self, baseline: BaselineModel) -> float | None:
        return self.delta if self.baseline == baseline else None

    # a baseline's float answer is scaled in float arithmetic, the same
    # product as the array path's element

    def cumulative_hazard(self, x):
        r = self.baseline.cumulative_hazard(x)
        return self.delta * r if type(r) is float else _ret(self.delta * np.asarray(r), x)

    def hazard(self, x):
        r = self.baseline.hazard(x)
        return self.delta * r if type(r) is float else _ret(self.delta * np.asarray(r), x)

    def hazard_derivative(self, x):
        d = self.baseline.hazard_derivative(x)
        return self.delta * d if type(d) is float else _ret(self.delta * np.asarray(d), x)


class LinearFailureRate(MarginalModel):
    """Hazard ``1 + 2*a*x`` on ``x > 0``; survival ``exp(-(x + a*x**2))``."""

    x_L = 0.0

    def __init__(self, a: float):
        if not (np.isfinite(a) and a > 0):
            raise ModelError(f"linear failure rate coefficient must be positive, got {a}")
        self.a = float(a)

    # a float in float arithmetic: the array path's steps in its order

    def cumulative_hazard(self, x):
        if type(x) is float:  # np.maximum's clamp (-0.0 reads 0.0), np.square's x * x
            xc = 0.0 if x <= 0.0 else x
            return xc + self.a * (xc * xc)
        xc = np.maximum(np.asarray(x, dtype=float), 0.0)
        with np.errstate(over="ignore"):  # past the float range R is inf
            return _ret(xc + self.a * np.square(xc), x)

    def hazard(self, x):
        if type(x) is float:
            return 1.0 + 2.0 * self.a * x
        return _ret(1.0 + 2.0 * self.a * np.asarray(x, dtype=float), x)

    def hazard_derivative(self, x):
        if type(x) is float:
            return 2.0 * self.a
        return _ret(np.full_like(np.asarray(x, dtype=float), 2.0 * self.a), x)


class FromHazard(MarginalModel):
    """Marginal defined by a hazard function or a hazard table.

    A callable hazard is integrated adaptively with a memoized knot cache
    (:class:`~bisurv.baseline.HazardIntegrator`); a table
    (:meth:`from_table`) is integrated exactly
    (:class:`~bisurv.baseline.PiecewiseLinearHazard`).  Negative hazard
    values raise :class:`~bisurv.errors.ModelError`.
    """

    def __init__(self, hazard_fn, x_L: float = 0.0):
        self.x_L = float(x_L)
        self._maps = HazardIntegrator(hazard_fn, self.x_L, name="marginal hazard")

    @classmethod
    def from_table(cls, xs, hazards, x_L: float | None = None) -> "FromHazard":
        """Piecewise-linear hazard table, ends held flat beyond the range.

        ``x_L`` defaults to the first row; a config passes the baseline's.
        Warns when the implied density does not decay over the table's last
        three rows above ``x_L``, since such a table cannot describe a
        proper distribution.
        """
        model = cls.__new__(cls)  # the table is the maps: no integrator
        model._maps = PiecewiseLinearHazard(xs, hazards, x_L)
        model.x_L = model._maps.x_L
        rows = np.asarray(xs, dtype=float)
        tail = rows[rows > model.x_L][-3:]  # the density is 0 at x <= x_L
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

    def hazard_terms(self, x, cum: bool, order: int):
        return self._maps.terms(x, cum, order)


# ---------------------------------------------------------------------------
# Wedge kernel
# ---------------------------------------------------------------------------

#: a negative density factor within this fraction of its terms is rounding noise
_DENSITY_NOISE = 1e-9

#: nodes of the wedge-tail table, equally spaced in ``v = s/(1+s)`` over [0, 1]
_TAIL_NODES = 2049
#: a rise of ``G`` between neighbouring nodes, relative to ``G``, read as rounding
_RISE_RTOL = 1e-9


def _divide(a: float, b: float) -> float:
    """``a / b`` of floats, with numpy's inf or NaN where Python raises."""
    if b == 0.0:
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(np.divide(a, b))
    return a / b


def _cube(r0: float) -> float:
    """``np.power(r0, 3)`` of a float: Python's ``r0 ** 3`` rounds differently
    in the last bit, and raises where the cube overflows."""
    if r0 == 1.0:  # exact in every pow
        return 1.0
    with np.errstate(over="ignore"):
        return float(np.power(r0, 3))


class WedgeKernel:
    """A marginal in the wedge coordinate of a baseline: ``Q(s) = R_m(R0^{-1}(s))``.

    With ``d = R0^{-1}(s)``, ``Q'(s) = r_m(d) / r0(d)`` and ``Q''(s) =
    (r_m'(d) r0(d) - r_m(d) r0'(d)) / r0(d)**3``, where each model answers
    its own ``(R, r, r')`` at ``d`` (``hazard_terms``).  A marginal whose
    ``wedge_rate`` over this baseline is ``delta`` (PH over this very
    baseline) gives ``Q = delta * s`` exactly, ``Q' = u = delta`` and ``Q''
    = 0``.  ``q``, ``q_prime``, ``slopes`` and ``q_slopes`` are views of one
    routine, :meth:`_terms`, for floats and arrays alike.

    An array of ``s >= 0`` gives arrays, and a float ``s`` floats equal bit
    for bit to the array path's element: the models answer a float ``d``
    from their float maps (float arithmetic for the exponential, LFR, tables
    but for their inverse, a callable's hazard and slope, and PH over those;
    one numpy call for Weibull and Pareto), and ``Q'`` and ``Q''`` are
    formed in the array path's order, with ``np.power(r0, 3)``'s bits and
    numpy's inf or NaN where Python would raise.  A non-finite float ``s``
    raises :class:`~bisurv.errors.DomainError`.  An array passes a
    non-finite ``s`` through: the models and the validity grid pass keep
    overflow from the kernels, and a check would cost every vectorized call.
    A hazard table, as marginal or baseline, refuses a non-finite ``d``.

    ``q(0)`` is exactly ``0.0`` for every kernel: where both coordinates lie
    at or below ``x_L`` (``s = 0``), array survival may take either wedge's
    kernel.
    """

    def __init__(self, marginal: MarginalModel, baseline: BaselineModel):
        self.marginal = marginal
        self.baseline = baseline
        self.delta = marginal.wedge_rate(baseline)
        #: ``(theta, s, G)`` of the last :meth:`tail_table`, read-only
        self._tail_nodes = None

    def q(self, s):
        return self._terms(s, True, 0)[0]

    def q_prime(self, s):
        return self._terms(s, False, 1)[1]

    def slopes(self, s):
        """``(Q', Q'')``."""
        return self._terms(s, False, 2)[1:]

    def q_slopes(self, s):
        """``(Q, Q', Q'')`` from one inversion of the baseline at ``s``."""
        return self._terms(s, True, 2)

    def _terms(self, s, cum: bool, order: int):
        """``(Q, Q', Q'')`` at ``s``: ``Q`` with ``cum``, ``Q'`` with ``order
        >= 1`` and ``Q''`` with ``order == 2``, each view reading only what it
        asks for.  A float ``s`` and an array differ only in the division."""
        scalar = type(s) is float
        if not scalar:
            s = np.asarray(s, dtype=float)
        elif not math.isfinite(s):
            raise DomainError(f"s must be finite, got {s!r}")
        if self.delta is not None:
            q = self.delta * s if cum else None
            if not order:
                return q, None, None
            if scalar:
                return q, self.delta, 0.0
            return q, np.full_like(s, self.delta), np.zeros_like(s)
        base = self.baseline
        d = base.inverse_cumulative_hazard(s)
        q, r, rp = self.marginal.hazard_terms(d, cum, order)
        # asked at every order: a table baseline refuses a non-finite d
        _, r0, r0p = base.hazard_terms(d, False, order)
        if cum and not scalar:  # a 0-d s maps to float answers
            q = np.asarray(q, dtype=float)
        if not order:
            return q, None, None
        if scalar:
            return q, _divide(r, r0), (_divide(rp * r0 - r * r0p, _cube(r0))
                                       if order == 2 else None)
        r, r0 = np.asarray(r, dtype=float), np.asarray(r0, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # np.power, not **: a numpy scalar's ** is not the array loop's
            return q, r / r0, ((rp * r0 - r * r0p) / np.power(r0, 3)
                               if order == 2 else None)

    def tail(self, s, theta: float):
        """``(G, h)``: the wedge tail ``G(s) = (theta - Q') exp(-Q)``, with
        ``G(0+) = theta - u``, and the wedge density
        ``h = -G' = (theta Q' + Q'' - Q'^2) exp(-Q)``.  A negative factor of
        ``h`` no larger than ``1e-9`` times the size of its terms is rounding
        noise (of ``Q'`` near ``theta``, or of a callable's slope) and reads as 0.
        """
        q, q1, q2 = self.q_slopes(s)
        if type(q) is float:  # a kernel at a float: the array path's steps
            theta = float(theta)
            a = theta * q1 + q2 - q1 * q1
            if a < 0.0 and -a <= _DENSITY_NOISE * (theta * abs(q1) + abs(q2) + q1 * q1):
                a = 0.0
            e = float(np.exp(-q))
            return (theta - q1) * e, a * e
        with np.errstate(over="ignore", invalid="ignore"):
            e = np.exp(-q)
            a = theta * q1 + q2 - q1 * q1
            if (a < 0.0).any():  # as on the float path, only a negative factor is tested
                noise = _DENSITY_NOISE * (theta * np.abs(q1) + np.abs(q2) + q1 * q1)
                a = np.where((a < 0.0) & (-a <= noise), 0.0, a)
            return (theta - q1) * e, a * e

    def density(self, s, theta: float):
        """Wedge density ``h(s)``, the second value of :meth:`tail`."""
        return self.tail(s, theta)[1]

    def tail_table(self, theta: float):
        """``(s, G(s))`` on the table: ``G(0) = theta - u``, ``G(inf) = 0``.

        Raises :class:`~bisurv.errors.InvalidModelError` at the first node where ``G``
        is negative (``Q' > theta``) or rises by more than rounding (``h < 0``),
        on every call.  A valid table is built once per ``theta``: the kernel
        keeps the last one as read-only arrays.
        """
        kept = self._tail_nodes
        if kept is not None and kept[0] == theta:
            return kept[1], kept[2]
        v = np.linspace(0.0, 1.0, _TAIL_NODES)[:-1]
        s = np.append(v / (1.0 - v), np.inf)
        g = np.concatenate([[theta - self.u], self.tail(s[1:-1], theta)[0], [0.0]])
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
        g = np.minimum.accumulate(g)
        for a in (s, g):
            a.flags.writeable = False
        self._tail_nodes = (theta, s, g)
        return s, g

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


def _sequence_limit(samples) -> float:
    """Limit of a sequence of step-halved samples.

    Takes the first rule that applies: a NaN sample leaves it unsettled
    (NaN); an infinite sample, or a monotone tail whose increments do not
    shrink, reads ``inf``; samples constant to rounding give the last
    sample; otherwise the first of the Richardson tableau's diagonal, one
    Aitken delta-squared pass and a second pass whose last two values agree
    gives the last of those values.  A sequence that none settles is NaN.
    """
    r = np.asarray(samples, dtype=float)
    if np.isnan(r).any():
        return math.nan
    if np.isinf(r).any():
        return math.inf

    def aitken(s):  # exact for geometric error terms
        d1 = s[1:] - s[:-1]
        denom = d1[1:] - d1[:-1]
        return np.where(denom == 0.0, s[2:], s[2:] - d1[1:] ** 2 / denom)

    with np.errstate(all="ignore"):
        scale = max(1.0, abs(r[0]))
        if np.abs(r - r[0]).max() <= 1e-13 * scale:
            return float(r[-1])
        tail = np.diff(r)[-4:]
        mags = np.abs(tail)
        if (((tail > 0).all() or (tail < 0).all()) and (mags[1:] >= 0.9 * mags[:-1]).all()
                and (abs(r[-1]) > _DIVERGENCE_FACTOR * scale or mags[-1] > scale)):
            return math.inf
        t, diag = r, [r[-1]]  # the Richardson tableau, level by level
        for j in range(1, r.size):
            fac = 2.0**j
            t = (fac * t[1:] - t[:-1]) / (fac - 1.0)
            diag.append(t[-1])
        acc = aitken(r)
        for d in (np.array(diag), acc, aitken(acc)):
            if d.size >= 2:
                a, b = d[-2], d[-1]
                if (np.isfinite(a) and np.isfinite(b)
                        and abs(b - a) <= max(_LIMIT_ATOL, _LIMIT_RTOL * abs(b))):
                    return float(b)
    return math.nan


def limit_hazard_ratio(marginal: MarginalModel, baseline: BaselineModel) -> float:
    """Limit of ``marginal.hazard / baseline.hazard`` at the left endpoint.

    Samples the ratio ``Q'(s_k)`` at ``s_k = 1e-3 * 2**-k``, ``k < 10``, i.e. at
    ``y_k = R0^{-1}(s_k)``, and accelerates the sequence with
    :func:`_sequence_limit`.  Returns
    ``math.inf`` when the sequence grows without bound (divergence flag);
    raises :class:`~bisurv.errors.NumericError` carrying the sampled values
    when the sequence oscillates or fails to settle.  A limit of ratios of
    nonnegative hazards is nonnegative, so an extrapolation that lands
    below zero, as it does by rounding where the limit is 0, returns 0.0.
    """
    if marginal.x_L != baseline.x_L:
        raise DomainError(
            f"marginal left endpoint {marginal.x_L} differs from baseline {baseline.x_L}"
        )
    ratios = WedgeKernel(marginal, baseline).q_prime(
        _LIMIT_EPS0 * 0.5 ** np.arange(_LIMIT_LEVELS))
    u = _sequence_limit(ratios)
    if math.isnan(u):
        what = "evaluated to NaN" if np.isnan(ratios).any() else "did not converge"
        raise NumericError(f"hazard ratio near the left endpoint {what}", samples=ratios)
    return u if u > 0.0 else 0.0
