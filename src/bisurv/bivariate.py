"""Bivariate survival models with a singular component on the diagonal.

One model class, ``GeneralBivariateModel``, is built from a baseline, two
marginal models and an exponent ``theta``.  On the wedge ``x1 >= x2`` the
survival function is ``S1(x1 (-) x2) * S0(x2)**theta`` (symmetric on the
other wedge), where ``(-)`` is the baseline semigroup difference.  Nothing
guarantees such a model is a true distribution; the ``validity`` module
provides the checks, and the counter-examples live there too.

``PHBivariateModel`` is its proportional-hazards special case: a
constructor from positive ``(theta1, theta2, theta3)`` whose marginals are
``S0**d_i`` with ``d_i = theta_i + theta3``, so its survival is
``S0(x1)**d1 * S0(x2)**(theta-d1)`` for ``x1 >= x2``.  It is always a valid
distribution, with diagonal (tie) mass exactly ``theta3 / theta``.

Every model is evaluated by one pair of wedge kernels
(:class:`~bisurv.marginals.WedgeKernel`), built once per model.  Off the
diagonal the model depends on the data only through ``w = R0(min)`` and
``s = R0(max) - R0(min)``: on the wedge of marginal ``i`` (``i = 1`` where
``x1 >= x2``), with ``Q_i(s) = R_i(R0^{-1}(s))``,

    ln S(x1, x2)  = -(Q_i(s) + theta * w)
    f_ac(x1, x2)  = r0(x1) * r0(x2) * h_i(s) * exp(-theta * w) / alpha
    h_i(s)        = (theta Q_i' + Q_i'' - Q_i'^2) * exp(-Q_i(s))

so the absolutely continuous density is closed-form for every model.  The
mixture weight is ``alpha = 2 - (u1 + u2)/theta`` with ``u_i = Q_i'(0+)``,
the diagonal limit of ``marginal_i.hazard / baseline.hazard``; the diagonal
singular part carries ``1 - alpha``.

All survival evaluation happens in cumulative-hazard (log-survival)
coordinates; raw survival factors are never multiplied.

A pair of scalar coordinates takes one path of its own: ``_point`` checks
it with ``math``, maps both coordinates through the baseline's pair map and
picks the kernel of its wedge, and survival, density and gradient are views
of that point.  The exponential and a table answer each float in float
arithmetic, bit for bit as its array element (a callable one element at a
time); Weibull and Pareto map the pair in one numpy call.  The kernel
answers the float ``s`` likewise.  The views return floats equal bit for
bit to the array path's element, and raise the same errors.  An
off-diagonal point also carries ``(r0(x1), r0(x2))`` from the same pair
map, for density and gradient, as ``_points`` does for arrays.  The
singular part's survival ``S0(x)**theta`` is ``S(x, x)``, and survival and
density are 0 where the larger cumulative hazard passes the float range
(``s`` inf, or NaN from ``inf - inf``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .baseline import BaselineModel, _is_scalar
from .errors import (
    DecompositionError,
    DomainError,
    InvalidModelError,
    ModelError,
    UndefinedComponentError,
)
from .marginals import MarginalModel, ProportionalHazard, WedgeKernel

__all__ = [
    "Decomposition",
    "GeneralBivariateModel",
    "PHBivariateModel",
]

#: mixture weights within this distance of {0, 1} are treated as exact
_WEIGHT_EPS = 1e-12

#: array survival of more than ``2 * _BLOCK`` points runs in blocks of at most
#: this many: their 64 KiB temporaries are reused from the heap, while each
#: whole-array temporary of a large input is a fresh memory mapping (glibc's
#: default for blocks over 128 KiB), faulted in page by page
_BLOCK = 8192


@dataclass(frozen=True)
class Decomposition:
    """Mixture decomposition of a bivariate model.

    ``alpha`` is the weight of the absolutely continuous part, ``u1``/``u2``
    the diagonal hazard-ratio limits, and ``singular_mass = 1 - alpha`` the
    diagonal tie mass.  For an invalid model ``alpha`` may leave [0, 1]; the
    values are still reported so callers can show the violation.
    """

    alpha: float
    u1: float
    u2: float
    singular_mass: float

    @property
    def weight_in_range(self) -> bool:
        return -_WEIGHT_EPS <= self.alpha <= 1.0 + _WEIGHT_EPS


def _validate_theta(theta: float) -> float:
    if not (np.isfinite(theta) and theta > 0):
        raise ModelError(f"theta must be a positive real, got {theta}")
    return float(theta)


def _wedge(baseline: BaselineModel, x1, x2):
    """``(upper, s, w)`` of points at or above ``x_L``, the one map into wedge
    coordinates: ``upper`` is ``x1 >= x2``, ``s = |R0(x1) - R0(x2)|`` and
    ``w = R0(min)``.  Arguments broadcast like numpy arrays.
    """
    r1 = np.asarray(baseline.cumulative_hazard(x1), dtype=float)
    r2 = np.asarray(baseline.cumulative_hazard(x2), dtype=float)
    return np.asarray(x1) >= np.asarray(x2), np.abs(r1 - r2), np.minimum(r1, r2)


def _zero_overflow(s):
    """Set ``s`` to 0, in place, where the larger cumulative hazard passed
    the float range (``s`` inf, or NaN from ``inf - inf``), so that no kernel
    sees it; the mask of those points, or None when there are none."""
    finite = np.isfinite(s)
    if finite.all():
        return None
    overflow = ~finite
    s[overflow] = 0.0
    return overflow


def _nan_check(*values) -> None:
    """Refuse the first of ``values`` that holds a NaN, or that is no real
    number or array of them."""
    for v in values:
        try:
            nan = np.isnan(v).any()  # the method: ~2 us less than the np.any wrapper
        except (TypeError, ValueError):  # no float array: read it as the array path does
            nan = np.isnan(_real(np.asarray, v, dtype=float)).any()
        if nan:
            raise DomainError(f"coordinates must not be NaN, got {v!r}")


def _real(convert, v, **kwargs):
    """``convert(v, **kwargs)``, or a :class:`DomainError` naming ``v`` where
    it raises ``TypeError`` or ``ValueError``: no real number."""
    try:
        return convert(v, **kwargs)
    except (TypeError, ValueError):
        raise DomainError(f"coordinates must be real numbers, got {v!r}") from None


def _negative_density(x1, x2, value) -> InvalidModelError:
    return InvalidModelError(
        f"absolutely continuous density is negative at ({x1}, {x2})",
        witness=(float(x1), float(x2)), value=float(value),
    )


class _BivariateBase:
    """Survival, the cached decomposition, the singular part and rectangle
    probabilities, derived from ``log_survival`` and ``_compute_decomposition``,
    plus the off-diagonal admission check and the per-wedge kernel pick.

    Kept apart from :class:`GeneralBivariateModel` so that ``decompose`` has
    one owner, which ``bench/tracing.py`` wraps.
    """

    baseline: BaselineModel
    marginal1: MarginalModel
    marginal2: MarginalModel
    theta: float
    #: ``(WedgeKernel(marginal1, baseline), WedgeKernel(marginal2, baseline))``
    kernels: tuple[WedgeKernel, WedgeKernel]

    def survival(self, x1, x2):
        """Joint survival P(X1 > x1, X2 > x2); accepts scalars or arrays."""
        log_s = self.log_survival(x1, x2)
        if type(log_s) is np.ndarray:  # a fresh array: exponentiate in place
            return np.exp(log_s, out=log_s)
        return float(np.exp(log_s))

    def _point(self, x1, x2, what: str | None = None):
        """One point as ``(x1, x2, upper, s, w, kernel, r0)``: the scalar
        path's single admission check and map into wedge coordinates.

        ``what`` names an off-diagonal quantity (``"density"``, ``"hazard
        gradient"``); the point must then be off the diagonal, finite and at
        or above ``x_L``, else :class:`DomainError`, and ``r0`` is the pair
        ``(r0(x1), r0(x2))``.  Without it the point is a survival argument:
        a NaN coordinate raises, both clamp to ``x_L``, an infinite one
        returns None, and ``r0`` is None.
        """
        try:
            f1, f2 = float(x1), float(x2)
        except (TypeError, ValueError):
            f1, f2 = _real(float, x1), _real(float, x2)
        xl = self.baseline.x_L
        if what is None:
            for f, v in ((f1, x1), (f2, x2)):
                if math.isnan(f):
                    raise DomainError(f"coordinates must not be NaN, got {v!r}")
            f1, f2 = max(f1, xl), max(f2, xl)
            if f1 == math.inf or f2 == math.inf:
                return None
            return self._wedge_point(f1, f2)
        if f1 == f2:
            raise DomainError(f"{what} undefined on the diagonal")
        if not (math.isfinite(f1) and math.isfinite(f2) and min(f1, f2) >= xl):
            raise DomainError(f"coordinates must be finite and >= {xl}")
        return self._wedge_point(f1, f2, hazards=True)

    def _wedge_point(self, x1: float, x2: float, hazards: bool = False):
        """:meth:`_point` of admitted floats: both coordinates through the
        baseline's pair map (with ``hazards``, both baseline hazards too) and
        the kernel of the point's own wedge."""
        (r1, r2), r0 = self.baseline._map_pair(x1, x2, hazards)
        upper = x1 >= x2
        return x1, x2, upper, abs(r1 - r2), min(r1, r2), self.kernels[0 if upper else 1], r0

    @np.errstate(divide="ignore", over="ignore", invalid="ignore")
    def _points(self, x1, x2, what: str):
        """:meth:`_point` of arrays: ``(x1, x2, upper, s, w, r0)`` of broadcast
        float arrays, admitted as :meth:`_point` admits an off-diagonal point."""
        try:
            x1a, x2a = np.broadcast_arrays(np.asarray(x1, dtype=float),
                                           np.asarray(x2, dtype=float))
        except (TypeError, ValueError):  # no real number names itself; else numpy's error
            for v in (x1, x2):
                _real(np.asarray, v, dtype=float)
            raise
        if np.any(x1a == x2a):
            raise DomainError(f"{what} undefined on the diagonal")
        xl = self.baseline.x_L
        if not (np.all(np.isfinite(x1a) & np.isfinite(x2a))
                and np.all(np.minimum(x1a, x2a) >= xl)):
            raise DomainError(f"coordinates must be finite and >= {xl}")
        upper, s, w = _wedge(self.baseline, x1a, x2a)
        return x1a, x2a, upper, s, w, (self.baseline.hazard(x1a), self.baseline.hazard(x2a))

    def _per_wedge(self, method: str, upper, s, *args):
        """Kernel ``method`` of marginal 1 where ``upper``, of marginal 2 elsewhere."""
        k1, k2 = self.kernels
        return np.where(upper, getattr(k1, method)(s, *args), getattr(k2, method)(s, *args))

    # -- decomposition ---------------------------------------------------------

    def decompose(self) -> Decomposition:
        """Mixture weight and diagonal limits; cached after the first call.

        Raises :class:`~bisurv.errors.DecompositionError` when a diagonal
        hazard-ratio limit diverges.  An out-of-range ``alpha`` is *not* an
        error here; it is reported through the returned value.
        """
        cached = getattr(self, "_decomposition", None)
        if cached is None:
            cached = self._compute_decomposition()
            object.__setattr__(self, "_decomposition", cached)
        return cached

    def singular_survival(self, x):
        """Survival of the diagonal component, ``S0(x)**theta``: the joint
        survival ``S(x, x)``, with :meth:`survival`'s input rules."""
        if self.decompose().singular_mass <= _WEIGHT_EPS:
            raise UndefinedComponentError(
                "model has no singular component (singular mass is zero)"
            )
        return self.survival(x, x)

    # -- rectangle probabilities ----------------------------------------------

    def rectangle_probability(self, a1: float, b1: float, a2: float, b2: float) -> float:
        """P(a1 < X1 <= b1, a2 < X2 <= b2) by inclusion-exclusion.

        Degenerate rectangles return exactly 0.  Infinite upper corners are
        evaluated with limiting survival values, so the full quadrant gives
        the total mass.  For a valid model the result is nonnegative; this
        method reports whatever the survival function implies.
        """
        _nan_check(a1, b1, a2, b2)
        for v in (a1, a2):
            if v < self.baseline.x_L:
                raise DomainError(f"rectangle corner {v} below left endpoint")
        if b1 < a1 or b2 < a2:
            raise DomainError("rectangle requires a1 <= b1 and a2 <= b2")
        if a1 == b1 or a2 == b2:
            return 0.0
        return (self.survival(a1, a2) - self.survival(b1, a2)
                - self.survival(a1, b2) + self.survival(b1, b2))


class GeneralBivariateModel(_BivariateBase):
    """Bivariate model assembled from a baseline, two marginals and theta.

    The construction only requires the marginals to share the baseline's
    left endpoint; it does **not** require the result to be a proper
    distribution.  Use the ``validity`` checks before trusting one.
    """

    def __init__(self, baseline: BaselineModel, marginal1: MarginalModel,
                 marginal2: MarginalModel, theta: float):
        self.baseline = baseline
        self.marginal1 = marginal1
        self.marginal2 = marginal2
        self.theta = _validate_theta(theta)
        for i, m in ((1, marginal1), (2, marginal2)):
            if m.x_L != baseline.x_L:
                raise ModelError(
                    f"marginal {i} left endpoint {m.x_L} differs from "
                    f"baseline left endpoint {baseline.x_L}"
                )
        self.kernels = (WedgeKernel(marginal1, baseline), WedgeKernel(marginal2, baseline))

    def log_survival(self, x1, x2):
        """``-(Q_i(s) + theta * w)`` on the wedge of marginal ``i``; scalars or arrays."""
        if _is_scalar(x1) and _is_scalar(x2):
            return self._log_survival_at(self._point(x1, x2))
        try:
            x1a = np.asarray(x1, dtype=float)
            x2a = np.asarray(x2, dtype=float)
            size = x1a.size if x1a.shape == x2a.shape else np.broadcast(x1a, x2a).size
        except (TypeError, ValueError, OverflowError):  # a NaN is refused before these
            _nan_check(x1, x2)
            raise
        if not size:  # an empty broadcast leaves no x1 - x2 to test
            _nan_check(x1, x2)
        elif size > 2 * _BLOCK:
            # no block is mapped before a NaN is refused; min() propagates
            # NaN with no n-sized temporary
            if np.isnan(x1a.min()) or np.isnan(x2a.min()):
                _nan_check(x1, x2)
            return self._log_survival_blocked(x1a, x2a)
        return self._log_survival_array(x1a, x2a, (x1, x2))

    def _log_survival_at(self, point) -> float:
        """:meth:`log_survival` of one :meth:`_point`; None, ``s`` inf or NaN read ``-inf``."""
        if point is None or not point[3] < math.inf:
            return -math.inf
        _, _, _, s, w, kernel, _ = point
        return -(float(kernel.q(s)) + self.theta * w)

    @np.errstate(over="ignore", invalid="ignore")
    def _log_survival_array(self, x1, x2, given=()):
        """The array branch of :meth:`log_survival`, on broadcastable float
        arrays, in one in-place pass.  ``x1 - x2`` is the only admission test:
        where it is not finite, ``_nan_check`` searches ``given``, the
        caller's own arguments, for a NaN (the blocked path refused NaN
        before its first block and gives none).  A finite block is not
        clamped: every baseline map reads a point below ``x_L`` as ``R0 = 0``,
        and where both coordinates do, ``s = 0`` and either kernel's ``q(0)``
        is 0.  Only a block with an infinite coordinate is clamped and masked:
        its infinite points, and points whose ``s`` is inf or NaN (``inf -
        inf``), give the kernels 0 and read ``-inf``.  ``-theta * w - q`` is
        ``-(q + theta * w)`` bit for bit, since neither ``q`` nor ``w`` is
        negative or ``-0.0``."""
        dead = None
        if not np.isfinite(x1 - x2).all():  # a NaN, an inf, or a rare overflow
            _nan_check(*given)
            xl = self.baseline.x_L
            x1, x2 = np.maximum(x1, xl), np.maximum(x2, xl)
            dead = np.isinf(np.maximum(x1, x2))  # clamped to x_L: never -inf
            x1, x2 = np.where(dead, xl, x1), np.where(dead, xl, x2)
        upper, s, w = _wedge(self.baseline, x1, x2)
        overflow = _zero_overflow(s)
        if overflow is not None:
            dead = overflow if dead is None else dead | overflow
        np.multiply(w, -self.theta, out=w)
        w -= self._per_wedge("q", upper, s)
        if dead is not None:
            w[dead] = -np.inf
        return w

    def _log_survival_blocked(self, x1, x2):
        """:meth:`_log_survival_array` of the broadcast inputs, in near-equal
        blocks of at most ``_BLOCK`` points written into one output array;
        every step is elementwise, so the result is bit-identical."""
        b1, b2 = np.broadcast_arrays(x1, x2)
        shape = b1.shape
        b1, b2 = b1.ravel(), b2.ravel()  # views of contiguous inputs, else copies
        out = np.empty(b1.size)
        blocks = -(-out.size // _BLOCK)
        edges = [out.size * b // blocks for b in range(blocks + 1)]
        for lo, hi in zip(edges, edges[1:]):
            out[lo:hi] = self._log_survival_array(b1[lo:hi], b2[lo:hi])
        return out.reshape(shape)

    def _compute_decomposition(self) -> Decomposition:
        u1, u2 = (k.u for k in self.kernels)
        if math.isinf(u1) or math.isinf(u2):
            raise DecompositionError(
                "diagonal hazard-ratio limit diverges; no mixture decomposition",
                samples=[u1, u2],
            )
        alpha = 2.0 - (u1 + u2) / self.theta
        return Decomposition(alpha=alpha, u1=u1, u2=u2, singular_mass=1.0 - alpha)

    def _latent_rates(self) -> tuple[float, float, float] | None:
        """The latent races' ``(theta1, theta2, theta3)`` if both kernels are linear."""
        d1, d2 = (k.delta for k in self.kernels)
        if d1 is None or d2 is None:
            return None
        return self.theta - d2, self.theta - d1, d1 + d2 - self.theta

    def ac_density(self, x1, x2):
        """Closed-form absolutely continuous density off the diagonal.

        ``r0(x1) * r0(x2) * h_i(s) * exp(-theta * w) / alpha`` on the wedge
        of marginal ``i``, with ``h_i`` the kernel's wedge density; scalars
        or arrays, finite and at or above ``x_L``.  It is 0 where the larger
        cumulative hazard passes the float range.  A negative value (beyond
        the rounding noise of its terms) raises
        :class:`~bisurv.errors.InvalidModelError` carrying the first such
        point as its witness.
        """
        if _is_scalar(x1) and _is_scalar(x2):
            return self._ac_density_at(self._point(x1, x2, "density"))
        x1a, x2a, upper, s, w, (r0_1, r0_2) = self._points(x1, x2, "density")
        alpha = self._ac_weight()
        with np.errstate(over="ignore", invalid="ignore"):
            overflow = _zero_overflow(s)
            h = self._per_wedge("density", upper, s, self.theta)
            val = r0_1 * r0_2 * h * np.exp(-self.theta * w) / alpha
        if overflow is not None:
            val[overflow] = 0.0
        negative = np.flatnonzero(val < 0.0)
        if negative.size:
            i = negative[0]
            raise _negative_density(x1a.flat[i], x2a.flat[i], val.flat[i])
        return val

    def _ac_density_at(self, point) -> float:
        """:meth:`ac_density` of one :meth:`_point`."""
        x1, x2, _, s, w, kernel, (r0_1, r0_2) = point
        alpha = self._ac_weight()
        if not s < math.inf:
            return 0.0
        h = float(kernel.tail(s, self.theta)[1])
        val = r0_1 * r0_2 * h * float(np.exp(-self.theta * w)) / alpha
        if val < 0.0:
            raise _negative_density(x1, x2, val)
        return val

    def _hazard_gradient(self, x1, x2):
        """:func:`~bisurv.validity.hazard_gradient`: ``Q_i' r0(x_i)`` for the
        larger coordinate, ``(theta - Q_i') r0(x_i)`` for the smaller."""
        if _is_scalar(x1) and _is_scalar(x2):
            return self._gradient_at(self._point(x1, x2, "hazard gradient"))
        return self._gradient_array(self._points(x1, x2, "hazard gradient"))

    def _gradient_array(self, points):
        """:meth:`_hazard_gradient` of :meth:`_points`, both wedges at once;
        where ``s`` overflows, the kernels get 0 and :meth:`_gradient_at`
        answers."""
        x1, x2, upper, s, _, (r0_1, r0_2) = points
        overflow = _zero_overflow(s)
        q = self._per_wedge("q_prime", upper, s)
        with np.errstate(over="ignore", invalid="ignore"):
            g1 = np.where(upper, q * r0_1, self.theta * r0_1 - q * r0_1)
            g2 = np.where(upper, self.theta * r0_2 - q * r0_2, q * r0_2)
        for i in () if overflow is None else np.flatnonzero(overflow):
            g1.flat[i], g2.flat[i] = self._gradient_at(
                self._wedge_point(float(x1.flat[i]), float(x2.flat[i]), hazards=True))
        return g1, g2

    def _gradient_at(self, point) -> tuple[float, float]:
        """:meth:`_hazard_gradient` of one :meth:`_point`, on its own wedge.

        Where the larger cumulative hazard passes the float range (``s`` inf
        or NaN), no kernel is evaluated: ``Q'`` is taken at the larger
        coordinate, whose component is then the marginal's own hazard there.
        """
        x1, x2, upper, s, _, kernel, (r0_1, r0_2) = point
        if s < math.inf:
            q = float(kernel.q_prime(s))
            larger = q * (r0_1 if upper else r0_2)
        else:
            x, r0 = (x1, r0_1) if upper else (x2, r0_2)
            larger = float(kernel.marginal.hazard(x))
            q = kernel.delta if kernel.delta is not None else larger / r0
        if upper:
            return larger, self.theta * r0_2 - q * r0_2
        return self.theta * r0_1 - q * r0_1, larger

    def _ac_weight(self) -> float:
        """``alpha``, refused when the model is purely singular."""
        alpha = self.decompose().alpha
        if alpha <= _WEIGHT_EPS:
            raise UndefinedComponentError(
                "model is purely singular; the absolutely continuous density is undefined")
        return alpha

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"GeneralBivariateModel(baseline={self.baseline!r}, "
                f"marginals=({self.marginal1!r}, {self.marginal2!r}), "
                f"theta={self.theta})")


class PHBivariateModel(GeneralBivariateModel):
    """Proportional-hazards bivariate model with positive (theta1, theta2, theta3).

    The general model with marginals ``ProportionalHazard(baseline, delta_i)``,
    ``delta_i = theta_i + theta3``, and ``theta = theta1 + theta2 + theta3``,
    so ``delta_i < theta`` and ``theta <= delta1 + delta2 <= 2*theta`` hold
    by construction.  Its kernels are the exact ``Q_i = delta_i * s``, and
    its decomposition is taken from the thetas directly.
    """

    def __init__(self, baseline: BaselineModel, theta1: float, theta2: float,
                 theta3: float):
        for name, v in (("theta1", theta1), ("theta2", theta2), ("theta3", theta3)):
            if not (np.isfinite(v) and v > 0):
                raise ModelError(f"{name} must be a positive real, got {v}")
        self.theta1 = float(theta1)
        self.theta2 = float(theta2)
        self.theta3 = float(theta3)
        self.delta1 = self.theta1 + self.theta3
        self.delta2 = self.theta2 + self.theta3
        super().__init__(baseline, ProportionalHazard(baseline, self.delta1),
                         ProportionalHazard(baseline, self.delta2),
                         self.theta1 + self.theta2 + self.theta3)

    @classmethod
    def from_deltas(cls, baseline: BaselineModel, delta1: float, delta2: float,
                    theta: float) -> "PHBivariateModel":
        """Construct from marginal exponents and the diagonal exponent.

        Requires ``delta_i < theta`` and ``theta < delta1 + delta2 <= 2*theta``
        so that the implied ``(theta1, theta2, theta3)`` are all positive.
        """
        theta = _validate_theta(theta)
        if not (0 < delta1 < theta and 0 < delta2 < theta):
            raise ModelError(
                f"marginal exponents must satisfy 0 < delta_i < theta, "
                f"got delta=({delta1}, {delta2}) with theta={theta}"
            )
        if not (theta < delta1 + delta2 <= 2 * theta):
            raise ModelError(
                f"exponents must satisfy theta < delta1 + delta2 <= 2*theta; "
                f"got delta1 + delta2 = {delta1 + delta2} with theta={theta}"
            )
        return cls(baseline, theta - delta2, theta - delta1, delta1 + delta2 - theta)

    # inherited, and bound here as well because bench/tracing.py wraps each
    # class's own log_survival and ac_density
    log_survival = GeneralBivariateModel.log_survival
    ac_density = GeneralBivariateModel.ac_density

    def _compute_decomposition(self) -> Decomposition:
        alpha = (self.theta1 + self.theta2) / self.theta
        return Decomposition(alpha=alpha, u1=self.delta1, u2=self.delta2,
                             singular_mass=self.theta3 / self.theta)

    def _latent_rates(self) -> tuple[float, float, float]:
        return self.theta1, self.theta2, self.theta3

    def as_general(self) -> GeneralBivariateModel:
        """The same distribution expressed through the general construction."""
        return GeneralBivariateModel(self.baseline, self.marginal1,
                                     self.marginal2, self.theta)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PHBivariateModel(baseline={self.baseline!r}, "
                f"theta=({self.theta1}, {self.theta2}, {self.theta3}))")
