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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .baseline import BaselineModel, _is_scalar, _ret
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


def _nan_check(*values) -> None:
    for v in values:
        if np.any(np.isnan(v)):
            raise DomainError(f"coordinates must not be NaN, got {v!r}")


class _BivariateBase:
    """Survival, the cached decomposition, the singular part and rectangle
    probabilities, derived from ``log_survival`` and ``_compute_decomposition``.

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
        return _ret(np.exp(self.log_survival(x1, x2)), x1, x2)

    def _wedge(self, x1, x2):
        """``(upper, s, w)`` for arrays at or above ``x_L``; ``upper`` is ``x1 >= x2``."""
        r1 = np.asarray(self.baseline.cumulative_hazard(x1), dtype=float)
        r2 = np.asarray(self.baseline.cumulative_hazard(x2), dtype=float)
        return np.asarray(x1) >= np.asarray(x2), np.abs(r1 - r2), np.minimum(r1, r2)

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
        """Survival of the diagonal component, ``S0(x)**theta``."""
        dec = self.decompose()
        if dec.singular_mass <= _WEIGHT_EPS:
            raise UndefinedComponentError(
                "model has no singular component (singular mass is zero)"
            )
        xc = np.maximum(x, self.baseline.x_L)
        return _ret(np.exp(-self.theta * np.asarray(
            self.baseline.cumulative_hazard(xc), dtype=float)), x)

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

    # -- density ---------------------------------------------------------------

    def _alpha_for_density(self) -> float:
        dec = self.decompose()
        if dec.alpha <= _WEIGHT_EPS:
            raise UndefinedComponentError(
                "model is purely singular; the absolutely continuous density "
                "is undefined"
            )
        return dec.alpha


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
        _nan_check(x1, x2)
        base = self.baseline
        xl = base.x_L
        if _is_scalar(x1) and _is_scalar(x2):
            if math.isinf(x1) or math.isinf(x2):
                return -math.inf
            r1 = float(base.cumulative_hazard(max(float(x1), xl)))
            r2 = float(base.cumulative_hazard(max(float(x2), xl)))
            kernel = self.kernels[0 if x1 >= x2 else 1]
            return -(float(kernel.q(abs(r1 - r2))) + self.theta * min(r1, r2))
        x1a = np.maximum(np.asarray(x1, dtype=float), xl)
        x2a = np.maximum(np.asarray(x2, dtype=float), xl)
        inf_mask = np.isinf(x1a) | np.isinf(x2a)
        upper, s, w = self._wedge(np.where(inf_mask, xl, x1a), np.where(inf_mask, xl, x2a))
        out = -(self._per_wedge("q", upper, s) + self.theta * w)
        return np.where(inf_mask, -np.inf, out)

    def _compute_decomposition(self) -> Decomposition:
        u1, u2 = (k.u for k in self.kernels)
        if math.isinf(u1) or math.isinf(u2):
            raise DecompositionError(
                "diagonal hazard-ratio limit diverges; no mixture decomposition",
                samples=[u1, u2],
            )
        alpha = 2.0 - (u1 + u2) / self.theta
        return Decomposition(alpha=alpha, u1=u1, u2=u2, singular_mass=1.0 - alpha)

    def ac_density(self, x1, x2):
        """Closed-form absolutely continuous density off the diagonal.

        ``r0(x1) * r0(x2) * h_i(s) * exp(-theta * w) / alpha`` on the wedge
        of marginal ``i``, with ``h_i`` the kernel's wedge density; scalars
        or arrays, finite and at or above ``x_L``.  A negative value (beyond
        the rounding noise of its terms) raises
        :class:`~bisurv.errors.InvalidModelError` carrying the first such
        point as its witness.
        """
        x1a, x2a = np.broadcast_arrays(np.asarray(x1, dtype=float),
                                       np.asarray(x2, dtype=float))
        if np.any(x1a == x2a):
            raise DomainError("density undefined on the diagonal")
        xl = self.baseline.x_L
        if not (np.all(np.isfinite(x1a) & np.isfinite(x2a))
                and np.all(np.minimum(x1a, x2a) >= xl)):
            raise DomainError(f"coordinates must be finite and >= {xl}")
        alpha = self._alpha_for_density()
        upper, s, w = self._wedge(x1a, x2a)
        h = self._per_wedge("density", upper, s, self.theta)
        with np.errstate(over="ignore", invalid="ignore"):
            val = (np.asarray(self.baseline.hazard(x1a), dtype=float)
                   * np.asarray(self.baseline.hazard(x2a), dtype=float)
                   * h * np.exp(-self.theta * w) / alpha)
        negative = np.flatnonzero(val < 0.0)
        if negative.size:
            i = negative[0]
            raise InvalidModelError(
                f"absolutely continuous density is negative at "
                f"({x1a.flat[i]}, {x2a.flat[i]})",
                witness=(float(x1a.flat[i]), float(x2a.flat[i])), value=float(val.flat[i]),
            )
        return _ret(val, x1, x2)

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

    def as_general(self) -> GeneralBivariateModel:
        """The same distribution expressed through the general construction."""
        return GeneralBivariateModel(self.baseline, self.marginal1,
                                     self.marginal2, self.theta)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PHBivariateModel(baseline={self.baseline!r}, "
                f"theta=({self.theta1}, {self.theta2}, {self.theta3}))")
