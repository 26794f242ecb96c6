"""Baseline survival families and their semigroup operators.

A baseline is a continuous survival function ``S0`` on ``(x_L, inf)`` with
``S0(x_L) = 1`` and ``S0 -> 0``.  Everything downstream works in
cumulative-hazard coordinates ``R0(x) = -ln S0(x)``, which is strictly
increasing with ``R0(x_L) = 0``.  The two induced operators

    combine(x, t)    = R0^{-1}(R0(x) + R0(t))     # x (+) t
    difference(x, t) = R0^{-1}(R0(x) - R0(t))     # x (-) t

reduce to addition/subtraction for the exponential family, to
``(x^a + t^a)^(1/a)`` for the Weibull family and to multiplication/division
for the Pareto family.  Raw survival values are never multiplied directly;
that would underflow long before the hazard coordinates do.

The left endpoint ``x_L`` is 0 for the exponential, Weibull and custom
families and 1 for the Pareto family (support ``x > 1``), so the Pareto
identity element is 1 rather than 0.

``HazardModel`` is the base that baselines share with the marginals of
:mod:`bisurv.marginals`: survival and density derived from the hazard maps.
"""

from __future__ import annotations

import bisect
import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ModelError, NumericError

__all__ = [
    "HazardModel",
    "BaselineModel",
    "Exponential",
    "Weibull",
    "Pareto",
    "CustomHazard",
    "HazardIntegrator",
    "PiecewiseLinearHazard",
]


#: the least float whose square is a normal float: ``h^2`` underflows below it
_SQRT_TINY = 2.0 ** -511
#: relative step of a callable hazard's central difference: eps**(1/3)
#: balances truncation against rounding
_FD_STEP = float(np.finfo(float).eps) ** (1.0 / 3.0)


def _is_scalar(x) -> bool:
    if isinstance(x, float):
        return True
    if isinstance(x, np.ndarray):
        return x.ndim == 0
    try:
        return np.ndim(x) == 0
    except ValueError:  # a ragged sequence, which the array path refuses
        return False


def _ret(value, *refs):
    """Return a plain float when every reference input is scalar."""
    for r in refs:
        if not _is_scalar(r):
            return np.asarray(value, dtype=float)
    return float(value)


def _check_finite(x, name: str) -> None:
    if not np.isfinite(x).all():  # the method: ~2 us less than the np.all wrapper
        raise DomainError(f"{name} must be finite, got {x!r}")


class HazardModel:
    """A univariate law on ``(x_L, inf)`` given by its hazard.

    Subclasses provide ``cumulative_hazard``, ``hazard`` and its slope
    ``hazard_derivative`` (scalars or arrays); ``survival`` and ``density``
    follow from the first two, and ``hazard_terms``, the ``(R, r, r')`` that
    the wedge kernel composes, from all three.  Baselines and marginals are
    hazard models.
    """

    x_L: float = 0.0

    def cumulative_hazard(self, x):
        raise NotImplementedError

    def hazard(self, x):
        raise NotImplementedError

    def hazard_derivative(self, x):
        raise NotImplementedError

    def hazard_terms(self, x, cum: bool, order: int):
        """``(R, r, r')`` at ``x``: ``R`` with ``cum``, ``r`` with ``order >=
        1`` and ``r'`` with ``order == 2``, None for what is not asked.  This
        default composes the three maps; a hazard table answers from one
        lookup of ``x`` and refuses a non-finite ``x`` whatever is asked."""
        return (self.cumulative_hazard(x) if cum else None,
                self.hazard(x) if order else None,
                self.hazard_derivative(x) if order == 2 else None)

    def survival(self, x):
        """Survival probability; 1 at or below the left endpoint."""
        _check_finite(x, "x")
        xc = np.maximum(x, self.x_L)
        return _ret(np.exp(-self.cumulative_hazard(xc)), x)

    def density(self, x):
        _check_finite(x, "x")
        interior = np.asarray(x, dtype=float) > self.x_L
        if not np.any(interior):
            return _ret(np.zeros_like(np.asarray(x, dtype=float)), x)
        xi = np.maximum(np.asarray(x, dtype=float), np.nextafter(self.x_L, math.inf))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            val = np.where(
                interior,
                self.hazard(xi) * np.exp(-self.cumulative_hazard(xi)),
                0.0,
            )
        return _ret(val, x)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class BaselineModel(HazardModel):
    """Common behaviour for all baseline families.

    Subclasses provide the coordinate maps ``cumulative_hazard``,
    ``inverse_cumulative_hazard`` and ``hazard``, which accept scalars or
    numpy arrays.  The pair map of a point reads ``R0`` and ``r0`` through
    ``_cumulative`` and ``_hazard``, on a float array the caller has already
    converted and, for ``R0``, clamped to ``x_L``; by default they are the
    public maps.  Weibull and Pareto state them as bare numpy expressions,
    and their public ``cumulative_hazard`` and ``hazard`` convert, clamp and
    call them.
    ``combine`` / ``difference`` are
    ``R0^{-1}(R0(x) +/- R0(t))`` through those maps; a family overrides
    ``_combine`` / ``_difference`` only where a direct form rounds better
    (Pareto's ``x*t`` and ``x/t``).

    ``cumulative_hazard`` is exactly ``0.0`` (never ``-0.0``) at and below
    ``x_L``, so a finite point below the left endpoint maps as ``x_L`` does:
    array survival maps a finite block without clamping it first.
    """

    family: str = "abstract"
    #: the maps answer a Python ``float`` in float arithmetic, bit for bit as
    #: the array path's element, or evaluate one element at a time anyway
    _float_maps: bool = False

    def inverse_cumulative_hazard(self, r):
        raise NotImplementedError

    def _cumulative(self, x):
        return self.cumulative_hazard(x)

    def _hazard(self, x):
        return self.hazard(x)

    def _map_pair(self, x1: float, x2: float, hazards: bool):
        """``((R0(x1), R0(x2)), (r0(x1), r0(x2)) or None)`` of two finite
        floats at or above ``x_L``.  A family with float maps (the
        exponential, a table, a callable) maps each coordinate with its own
        call; any other maps the pair as one array through ``_cumulative``
        and ``_hazard`` (Weibull's and Pareto's bare maps, any other
        family's public ones), since numpy's SIMD loops and
        ``math`` differ in the last bit of ``log``, ``exp`` and ``power``.
        ``R0`` reads the pair clamped to ``x_L`` as the public map clamps it
        (``max(x_L, -0.0)`` is ``x_L``, as ``np.maximum`` gives it: a point
        may carry ``-0.0``), ``r0`` the pair as given."""
        if self._float_maps:
            r = (self.cumulative_hazard(x1), self.cumulative_hazard(x2))
            return r, ((self.hazard(x1), self.hazard(x2)) if hazards else None)
        xl = self.x_L
        r = self._cumulative(np.array((max(xl, x1), max(xl, x2)))).tolist()
        return r, (self._hazard(np.array((x1, x2))).tolist() if hazards else None)

    def inverse_survival(self, s):
        """Unique x with survival(x) = s, for s in (0, 1]."""
        s_arr = np.asarray(s, dtype=float)
        if np.any(~np.isfinite(s_arr)) or np.any(s_arr <= 0.0) or np.any(s_arr > 1.0):
            raise DomainError(f"survival level must lie in (0, 1], got {s!r}")
        r = np.abs(-np.log(s_arr))  # abs() turns -0.0 at s=1 into 0.0
        return _ret(self.inverse_cumulative_hazard(r), s)

    # -- semigroup operators --------------------------------------------------

    def _check_support(self, *values) -> None:
        for v in values:
            _check_finite(v, "argument")
            if np.any(np.asarray(v) < self.x_L):
                raise DomainError(f"argument below left endpoint {self.x_L}: {v!r}")

    def combine(self, x, t):
        """Semigroup sum x (+) t, computed in cumulative-hazard space.

        The identity is exact elementwise: ``x (+) x_L = x`` and
        ``x_L (+) t = t``.
        """
        self._check_support(x, t)
        xa, ta = np.asarray(x, dtype=float), np.asarray(t, dtype=float)
        out = np.where(ta == self.x_L, xa,
                       np.where(xa == self.x_L, ta, self._combine(xa, ta)))
        return _ret(out + 0.0, x, t)

    def difference(self, x, t):
        """Semigroup difference x (-) t; requires x >= t.

        The identities are exact elementwise: ``x (-) x_L = x`` and
        ``x (-) x = x_L``.
        """
        self._check_support(x, t)
        xa, ta = np.asarray(x, dtype=float), np.asarray(t, dtype=float)
        if np.any(xa < ta):
            raise DomainError("difference requires x >= t")
        out = np.where(ta == self.x_L, xa,
                       np.where(xa == ta, self.x_L, self._difference(xa, ta)))
        return _ret(out + 0.0, x, t)

    def _combine(self, x, t):
        return self.inverse_cumulative_hazard(
            self.cumulative_hazard(x) + self.cumulative_hazard(t)
        )

    def _difference(self, x, t):
        return self.inverse_cumulative_hazard(
            np.maximum(self.cumulative_hazard(x) - self.cumulative_hazard(t), 0.0)
        )

    def spec_string(self) -> str:
        return self.family


@dataclass(frozen=True, repr=False)
class Exponential(BaselineModel):
    """Unit-rate exponential baseline: R0(x) = x."""

    family = "exponential"
    x_L = 0.0
    _float_maps = True

    def cumulative_hazard(self, x):
        if type(x) is float:  # as np.maximum: -0.0 maps to 0.0 and NaN stays NaN
            return 0.0 if x <= 0.0 else x
        return _ret(np.maximum(np.asarray(x, dtype=float), 0.0), x)

    def inverse_cumulative_hazard(self, r):
        if type(r) is float:
            return r
        return _ret(np.asarray(r, dtype=float), r)

    def hazard(self, x):
        if type(x) is float:
            return 1.0
        return _ret(np.ones_like(np.asarray(x, dtype=float)), x)

    def hazard_derivative(self, x):
        if type(x) is float:
            return 0.0
        return _ret(np.zeros_like(np.asarray(x, dtype=float)), x)


@dataclass(frozen=True, repr=False)
class Weibull(BaselineModel):
    """Weibull baseline with shape ``alpha``: R0(x) = x**alpha."""

    alpha: float = 1.0
    family = "weibull"
    x_L = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and self.alpha > 0):
            raise ModelError(f"Weibull shape must be positive, got {self.alpha}")

    # np.errstate as a decorator sets the same error state as a ``with``
    # block over the whole body, at a fraction of its per-call cost.  The
    # pair map takes the public maps' state: the power overflows, and
    # divides by zero at 0, on purpose (Pareto's maps never warn)
    _map_pair = np.errstate(divide="ignore", over="ignore")(BaselineModel._map_pair)

    def _cumulative(self, x):
        return np.power(x, self.alpha)

    def _hazard(self, x):
        return self.alpha * np.power(x, self.alpha - 1.0)

    @np.errstate(over="ignore")
    def cumulative_hazard(self, x):
        return _ret(self._cumulative(np.maximum(np.asarray(x, dtype=float), 0.0)), x)

    @np.errstate(over="ignore")
    def inverse_cumulative_hazard(self, r):
        return _ret(np.power(np.maximum(np.asarray(r, dtype=float), 0.0), 1.0 / self.alpha), r)

    @np.errstate(divide="ignore", over="ignore")
    def hazard(self, x):
        return _ret(self._hazard(np.asarray(x, dtype=float)), x)

    @np.errstate(divide="ignore", over="ignore")
    def hazard_derivative(self, x):
        a = self.alpha
        c = a * (a - 1.0)
        if c == 0.0:  # alpha = 1: a constant hazard, flat even where x**-1 is inf
            return _ret(np.zeros_like(np.asarray(x, dtype=float)), x)
        return _ret(c * np.power(np.asarray(x, dtype=float), a - 2.0), x)

    def spec_string(self) -> str:
        return f"weibull:{self.alpha:g}"


@dataclass(frozen=True, repr=False)
class Pareto(BaselineModel):
    """Pareto baseline S0(x) = 1/x on x > 1: R0(x) = ln x, identity element 1."""

    family = "pareto"
    x_L = 1.0

    # the bare maps are the ufuncs themselves, with no Python frame between
    # (np.reciprocal is the correctly rounded 1.0 / x)
    _cumulative, _hazard = map(staticmethod, (np.log, np.reciprocal))

    def cumulative_hazard(self, x):
        return _ret(self._cumulative(np.maximum(np.asarray(x, dtype=float), 1.0)), x)

    @np.errstate(over="ignore")
    def inverse_cumulative_hazard(self, r):
        return _ret(np.exp(np.asarray(r, dtype=float)), r)

    def hazard(self, x):
        return _ret(self._hazard(np.asarray(x, dtype=float)), x)

    @np.errstate(over="ignore")
    def hazard_derivative(self, x):
        return _ret(-1.0 / np.square(np.asarray(x, dtype=float)), x)

    @np.errstate(over="ignore")
    def _combine(self, x, t):
        return x * t

    def _difference(self, x, t):
        return x / t


def _elementwise(fn, x):
    """Apply a scalar map to a scalar, or to each element of an array."""
    if _is_scalar(x):
        return fn(float(x))
    arr = np.asarray(x, dtype=float)
    return np.array([fn(v) for v in arr.ravel()], dtype=float).reshape(arr.shape)


class HazardIntegrator:
    """Cumulative hazard of a user-supplied nonnegative hazard callable.

    Hazard tables do not come here; :class:`PiecewiseLinearHazard`
    integrates them exactly.  A callable is integrated with adaptive
    quadrature (absolute tolerance ``1e-10``), memoized on a monotone knot
    ladder at ``x_L + step * 2**k``.  The ladder is append-only and each
    rung's value is chained over fixed subintervals, so ``cumulative`` is a
    pure function of its argument: results never depend on evaluation order.
    That keeps repeated and concurrent use bitwise-reproducible (ties
    sampled through the inverse stay exact).  The ladder is lock-protected;
    instances may be shared across threads.

    A quadrature that reports trouble (a warning from ``quad``) and whose
    error estimate exceeds ``max(1e-10, 1.49e-8 * |integral|)``, or is NaN,
    raises :class:`~bisurv.errors.NumericError` instead of returning the
    value; so does one that steps to ``x = nan``, as near the float range.
    ``derivative`` is the hazard's difference quotient over ``x -+ h`` as
    rounded, ``h = eps^(1/3) max(1, |x|)`` capped at half the distance above
    ``x_L``, so NaN at and below ``x_L``; an infinite ``x`` raises
    :class:`~bisurv.errors.DomainError`, as ``cumulative`` does.  The maps
    take scalars or arrays, and arrays one element at a time.
    """

    _FIRST_STEP = 0.0625
    _MAX_RUNGS = 140  # ladder tops out near x_L + 2**137
    #: absolute error budget of every quadrature
    _EPSABS = 1e-10
    #: relative error budget, scipy's default ``epsrel`` for ``quad``
    _EPSREL = 1.49e-8

    def __init__(self, hazard_fn, x_L: float = 0.0, *, name: str = "hazard"):
        self._fn = hazard_fn
        self.x_L = float(x_L)
        self.name = name
        self._lock = threading.RLock()
        self._rung_x: list[float] = []  # x_L + step * 2**k
        self._rung_r: list[float] = []

    def hazard(self, x):
        return _elementwise(self._checked_hazard_at, x)

    def cumulative(self, x):
        return _elementwise(self._cumulative_at, x)

    def inverse(self, r):
        return _elementwise(self._inverse_at, r)

    def derivative(self, x):
        return _elementwise(self._derivative_at, x)

    def terms(self, x, cum: bool, order: int):  # as HazardModel.hazard_terms
        return (self.cumulative(x) if cum else None, self.hazard(x) if order else None,
                self.derivative(x) if order == 2 else None)

    def _derivative_at(self, x: float) -> float:
        if math.isinf(x):  # the step would be inf - inf; NaN keeps the hazard's message
            raise DomainError(f"x must be finite, got {x}")
        h = min(_FD_STEP * max(1.0, abs(x)), 0.5 * (x - self.x_L))
        if not h > 0.0:  # at or below x_L the step vanishes: 0/0
            return math.nan
        lo, hi = x - h, x + h
        return (self._checked_hazard_at(hi) - self._checked_hazard_at(lo)) / (hi - lo)

    def _checked_hazard_at(self, x: float) -> float:
        if math.isnan(x):  # as a table: only quad's own steps reach x = nan below
            raise DomainError(f"x must not be NaN, got {x!r}")
        return self._hazard_at(x)

    def _hazard_at(self, x: float) -> float:
        v = float(self._fn(x))
        if math.isnan(v) or v < 0.0:
            if math.isnan(x):  # a quadrature past the float range steps to NaN
                raise NumericError(f"{self.name} was evaluated at x = nan")
            raise ModelError(f"{self.name} returned a negative or NaN value {v} at x={x}")
        return v

    def _quad(self, a: float, b: float) -> float:
        from scipy.integrate import quad  # only callables need scipy

        # full_output keeps quad from printing its warning; a fourth element
        # in the result is that warning, judged against the error budget
        out = quad(self._hazard_at, a, b, epsabs=self._EPSABS, limit=200, full_output=1)
        inc, abserr = out[0], out[1]
        if inc < 0.0:
            raise ModelError(f"{self.name} integrated to a negative value on [{a}, {b}]")
        # a NaN integral or estimate misses the budget too
        if len(out) > 3 and not abserr <= max(self._EPSABS, self._EPSREL * abs(inc)):
            raise NumericError(
                f"{self.name}: quadrature on [{a}, {b}] missed its error budget "
                f"(estimate {abserr:.3g}): {out[3].splitlines()[0]}",
                samples=[inc, abserr],
            )
        return inc

    def _ensure_rung(self, k: int) -> None:
        if k >= self._MAX_RUNGS:
            raise NumericError(f"{self.name}: knot ladder exhausted at index {k}")
        with self._lock:
            while len(self._rung_x) <= k:
                j = len(self._rung_x)
                x = self.x_L + self._FIRST_STEP * 2.0**j
                prev_x = self._rung_x[-1] if self._rung_x else self.x_L
                prev_r = self._rung_r[-1] if self._rung_r else 0.0
                # integrate before appending: a failed rung leaves no trace
                r = prev_r + self._quad(prev_x, x)
                self._rung_x.append(x)
                self._rung_r.append(r)

    def _cumulative_at(self, x: float) -> float:
        if not math.isfinite(x):
            raise DomainError(f"x must be finite, got {x}")
        if x <= self.x_L:
            return 0.0
        offset = x - self.x_L
        if offset < self._FIRST_STEP:
            return self._quad(self.x_L, x)
        # rung k = x_L + 2**(k-4) <= x for 2**(k-4) <= offset, unless rounding lifted
        # offset onto rung k; then take rung k - 1, or x_L below rung 0
        k = min(math.frexp(offset)[1] + 3, self._MAX_RUNGS - 1)
        self._ensure_rung(k)
        with self._lock:
            k = bisect.bisect_right(self._rung_x, x, 0, k + 1) - 1
            rung_x, rung_r = (self._rung_x[k], self._rung_r[k]) if k >= 0 else (self.x_L, 0.0)
        if x == rung_x:
            return rung_r
        return rung_r + self._quad(rung_x, x)

    def _inverse_at(self, r: float) -> float:
        """Solve cumulative(x) = r by ladder bracketing plus Brent's method."""
        from scipy.optimize import brentq

        if r <= 0.0:
            return self.x_L
        if not math.isfinite(r):
            raise DomainError(f"target cumulative hazard must be finite, got {r}")
        k = 0
        while True:
            self._ensure_rung(k)
            with self._lock:
                top = self._rung_r[k]
            if top >= r:
                break
            k += 1
        with self._lock:
            i = bisect.bisect_left(self._rung_r, r)
            lo = self.x_L if i == 0 else self._rung_x[i - 1]
            hi = self._rung_x[i]
        root = brentq(lambda x: self._cumulative_at(x) - r, lo, hi,
                      xtol=1e-14, rtol=1e-14, maxiter=200)
        return float(root)


class PiecewiseLinearHazard:
    """Hazard interpolated linearly through a table and held flat past its ends.

    The cumulative hazard of a piecewise-linear hazard is piecewise
    quadratic, so both maps are exact to rounding and evaluate whole arrays
    at once.  The knots are re-anchored at ``x_L``, which may lie left of
    the table (the first row's hazard then extends down to it), at its first
    row (the default) or inside it.  On the segment that starts at knot
    ``x_j``, with hazard ``h_j``, slope ``a_j`` and ``R_j`` the sum of the
    trapezoids below it,

        R(x)      = R_j + d (h_j + a_j d / 2),                 d = x - x_j
        R^{-1}(r) = x_j + 2 dr / (h_j + sqrt(h_j^2 + 2 a_j dr)),  dr = r - R_j

    the latter being the root of the quadratic that does not cancel; where
    ``h_j = 0`` and ``2 a_j dr`` underflows, it is ``sqrt(2 dr / a_j)``, and
    where ``h_j^2`` underflows, it is taken in units of ``h_j``:
    ``u / (0.5 (1 + sqrt(1 + 2 a_j u / h_j)))`` with ``u = dr / h_j``.  When
    the last row is 0 the total hazard is bounded, and a target beyond it
    raises :class:`~bisurv.errors.NumericError`.

    ``cumulative``, ``hazard`` and ``derivative`` answer a finite Python
    ``float`` in float arithmetic, on list copies of the tables: the array
    path's steps (for ``hazard``, those of ``np.interp``) in the same order,
    so a float equal bit for bit to the array path's element, with no array
    built.
    """

    def __init__(self, xs, hazards, x_L: float | None = None):
        xs = np.asarray(xs, dtype=float)
        hs = np.asarray(hazards, dtype=float)
        if xs.ndim != 1 or xs.shape != hs.shape or xs.size < 2:
            raise ModelError("hazard table needs two equal-length columns with >= 2 rows")
        if np.any(~np.isfinite(xs)) or np.any(np.diff(xs) <= 0):
            raise ModelError("hazard table x values must be strictly increasing")
        if np.any(~np.isfinite(hs)) or np.any(hs < 0):
            raise ModelError("hazard table values must be finite and nonnegative")
        self.x_L = float(xs[0]) if x_L is None else float(x_L)
        self._xs, self._hs = xs, hs
        inside = xs > self.x_L
        knots = np.concatenate(([self.x_L], xs[inside]))
        h = np.concatenate(([np.interp(self.x_L, xs, hs)], hs[inside]))
        dx = np.diff(knots)
        self._knots, self._h = knots, h
        self._slope = np.append(np.diff(h) / dx, 0.0)  # the flat right tail
        self._half = 0.5 * self._slope  # as R's formula rounds it
        self._R = np.concatenate(([0.0], np.cumsum(0.5 * (h[:-1] + h[1:]) * dx)))
        # each segment's right end; clamping to it keeps both maps monotone
        # across knots despite rounding
        self._knots_next = np.append(knots[1:], math.inf)
        self._R_next = np.append(self._R[1:], math.inf)
        # segments whose h_j^2 underflows, or None: the inverse's scaled root
        tiny = (h > 0.0) & (h < _SQRT_TINY)
        self._tiny = tiny if tiny.any() else None
        # the float path's tables: the table with np.interp's slopes, and the
        # segments with half their slopes, as the array path rounds them
        self._table = (xs.tolist(), hs.tolist(), (np.diff(hs) / np.diff(xs)).tolist())
        self._segments = (knots.tolist(), self._R.tolist(), h.tolist(),
                          self._half.tolist(), self._R_next.tolist(), self._slope.tolist())

    def hazard(self, x):
        if type(x) is float and math.isfinite(x):
            xs, hs, slopes = self._table
            if x < xs[0]:
                return hs[0]
            if x >= xs[-1]:
                return hs[-1]
            j = bisect.bisect_right(xs, x) - 1
            return hs[j] if x == xs[j] else slopes[j] * (x - xs[j]) + hs[j]
        h = np.interp(x, self._xs, self._hs)
        if np.isnan(h).any():  # np.interp passes NaN through
            raise DomainError(f"x must not be NaN, got {x!r}")
        return _ret(h, x)

    def _segment(self, x):
        xa = np.maximum(np.asarray(x, dtype=float), self.x_L)
        return xa, np.searchsorted(self._knots, xa, side="right") - 1

    def derivative(self, x):
        """Right derivative of the hazard: the slope of x's segment, 0 on the flat ends."""
        if type(x) is float and math.isfinite(x):
            knots, *_, slopes = self._segments
            return slopes[bisect.bisect_right(knots, max(x, self.x_L)) - 1]
        _check_finite(x, "x")
        return _ret(self._slope[self._segment(x)[1]], x)

    def terms(self, x, cum: bool, order: int):
        """:meth:`HazardModel.hazard_terms`: on an array ``R`` and the slope
        share one lookup of the segments and the hazard is one ``np.interp``,
        a float takes the float maps, and a non-finite ``x`` raises
        :class:`~bisurv.errors.DomainError`, whatever is asked for."""
        if type(x) is float:
            if not math.isfinite(x):
                raise DomainError(f"x must be finite, got {x!r}")
            return (self.cumulative(x) if cum else None, self.hazard(x) if order else None,
                    self.derivative(x) if order == 2 else None)
        _check_finite(x, "x")  # so the hazard is the bare interp
        if cum or order == 2:
            xa, j = self._segment(x)
        return (self._cumulative_on(xa, j) if cum else None,
                np.interp(x, self._xs, self._hs) if order else None,
                self._slope[j] if order == 2 else None)

    def cumulative(self, x):
        if type(x) is float and math.isfinite(x):
            knots, R, h, half, R_next, _ = self._segments
            xa = max(x, self.x_L)
            j = bisect.bisect_right(knots, xa) - 1
            d = xa - knots[j]
            return min(R[j] + d * (h[j] + half[j] * d), R_next[j])
        _check_finite(x, "x")
        return _ret(self._cumulative_on(*self._segment(x)), x)

    def inverse(self, r):
        ra = np.maximum(np.asarray(r, dtype=float), 0.0)
        _check_finite(ra, "target cumulative hazard")
        if self._h[-1] == 0.0 and np.any(ra > self._R[-1]):
            raise NumericError(
                f"target cumulative hazard exceeds the table's total hazard {self._R[-1]}"
            )
        j = np.maximum(np.searchsorted(self._R, ra, side="left") - 1, 0)
        dr = ra - self._R[j]
        b, a = self._h[j], self._slope[j]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # dr / (sum / 2), not 2 dr / sum: a finite target's step stays finite
            d = dr / (0.5 * (b + np.sqrt(np.maximum(b * b + 2.0 * a * dr, 0.0))))
            if np.isinf(d).any():  # h_j = 0 and 2 a_j dr underflowed: a_j d^2 / 2 = dr
                d = np.where(np.isinf(d), np.sqrt(2.0 * dr / a), d)
            tiny = None if self._tiny is None else self._tiny[j]
            if tiny is not None and tiny.any():  # h_j^2 underflowed: the root in units of h_j
                u = dr / b
                t = 2.0 * a * u / b  # inf only where 2 a_j dr outweighs h_j^2, as d assumed
                scaled = u / (0.5 * (1.0 + np.sqrt(np.maximum(1.0 + t, 0.0))))
                d = np.where(tiny & np.isfinite(t), scaled, d)
        x = np.minimum(self._knots[j] + d, self._knots_next[j])
        return _ret(np.where(ra > 0.0, x, self.x_L), r)

    def _cumulative_on(self, xa, j):
        """``R`` at points ``xa >= x_L`` of segments ``j``."""
        d = xa - self._knots[j]
        return np.minimum(self._R[j] + d * (self._h[j] + self._half[j] * d), self._R_next[j])


class CustomHazard(BaselineModel):
    """Baseline defined by a hazard function or a hazard table.

    A callable hazard is integrated by adaptive quadrature with a memoized
    knot cache and inverted by bracketed root finding; see
    :class:`HazardIntegrator`.  A table (:meth:`from_table`) is integrated
    and inverted exactly; see :class:`PiecewiseLinearHazard`.  Hazard values
    must be nonnegative; negative values raise
    :class:`~bisurv.errors.ModelError`.
    """

    family = "custom"
    _float_maps = True

    def __init__(self, hazard_fn, x_L: float = 0.0):
        self.x_L = float(x_L)
        self._maps = HazardIntegrator(hazard_fn, self.x_L,
                                      name="custom baseline hazard")

    @classmethod
    def from_table(cls, xs, hazards, x_L: float | None = None) -> "CustomHazard":
        """Piecewise-linear hazard through (x, hazard) pairs, ends held flat.

        ``x_L`` defaults to the first row.
        """
        model = cls.__new__(cls)  # the table is the maps: no integrator
        model._maps = PiecewiseLinearHazard(xs, hazards, x_L)
        model.x_L = model._maps.x_L
        return model

    def cumulative_hazard(self, x):
        return self._maps.cumulative(x)

    def inverse_cumulative_hazard(self, r):
        return self._maps.inverse(r)

    def hazard(self, x):
        return self._maps.hazard(x)

    def hazard_derivative(self, x):
        return self._maps.derivative(x)

    def hazard_terms(self, x, cum: bool, order: int):
        return self._maps.terms(x, cum, order)
