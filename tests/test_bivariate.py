import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bisurv import (
    DecompositionError,
    DomainError,
    Exponential,
    FromHazard,
    GeneralBivariateModel,
    InvalidModelError,
    LinearFailureRate,
    ModelError,
    Pareto,
    PHBivariateModel,
    ProportionalHazard,
    UndefinedComponentError,
    Weibull,
    hazard_gradient,
)
from oracles import mixed_fd, wedge_ac_mass

E = Exponential()
W2 = Weibull(2.0)
PAR = Pareto()


def lfr_exp_model(a=1.5, theta=3.0):
    m = LinearFailureRate(a)
    return GeneralBivariateModel(E, m, m, theta)


def test_general_survival_examples():
    m = lfr_exp_model()
    assert m.survival(1.0, 3.0) == pytest.approx(math.exp(-11.0), rel=1e-12)
    assert m.survival(0.0, 0.0) == 1.0
    mw = PHBivariateModel(W2, 1.0, 1.0, 1.0)
    assert mw.survival(2.0, 1.0) == pytest.approx(math.exp(-9.0), rel=1e-12)


def test_ph_survival_examples():
    mo = PHBivariateModel(E, 1.0, 1.0, 1.0)
    assert mo.survival(1.0, 2.0) == pytest.approx(math.exp(-5.0), rel=1e-12)
    assert mo.survival(0.0, 0.0) == 1.0
    mp = PHBivariateModel(PAR, 1.0, 1.0, 1.0)
    assert mp.survival(4.0, 2.0) == pytest.approx(0.03125, rel=1e-12)


def test_ac_density_closed_form():
    mo = PHBivariateModel(E, 1.0, 1.0, 1.0)
    assert mo.ac_density(2.0, 1.0) == pytest.approx(3.0 * math.exp(-5.0), rel=1e-12)
    # symmetric parameters give a symmetric density
    assert mo.ac_density(1.0, 2.0) == pytest.approx(mo.ac_density(2.0, 1.0), rel=1e-12)
    # decays along a ray
    assert mo.ac_density(40.0, 1.0) < 1e-15
    with pytest.raises(DomainError):
        mo.ac_density(1.0, 1.0)


@pytest.mark.parametrize("base", [E, W2, PAR], ids=lambda b: b.spec_string())
def test_ac_density_matches_mixed_difference_oracle(base):
    model = PHBivariateModel(base, 0.7, 1.4, 0.9)
    alpha = model.decompose().alpha
    pts = [(0.4, 1.3), (2.5, 0.9), (1.1, 2.0)]
    for dx1, dx2 in pts:
        x1, x2 = base.x_L + dx1, base.x_L + dx2
        fd = mixed_fd(model.survival, x1, x2)
        assert alpha * model.ac_density(x1, x2) == pytest.approx(fd, rel=1e-5)


def test_general_fd_density_matches_ph_closed_form():
    mo = PHBivariateModel(E, 1.0, 1.0, 1.0)
    gen = mo.as_general()
    for x1, x2 in ((2.0, 1.0), (0.7, 1.9), (3.0, 0.4)):
        assert gen.ac_density(x1, x2) == pytest.approx(mo.ac_density(x1, x2), rel=1e-12)


def test_negative_density_raises_invalid_model():
    m = lfr_exp_model()
    with pytest.raises(InvalidModelError) as excinfo:
        m.ac_density(5.0, 3.0)
    assert excinfo.value.witness == (5.0, 3.0)
    assert excinfo.value.value < 0


def test_decompose_ph():
    mo = PHBivariateModel(E, 1.0, 1.0, 1.0)
    dec = mo.decompose()
    assert dec.alpha == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert dec.singular_mass == 1.0 / 3.0  # exact: theta3 / theta
    assert dec.u1 == 2.0 and dec.u2 == 2.0
    assert dec.alpha == pytest.approx(2.0 - (dec.u1 + dec.u2) / mo.theta, abs=1e-12)
    assert dec.weight_in_range


def test_decompose_comonotone_limit():
    mo = PHBivariateModel(E, 1e-9, 1e-9, 1.0)
    assert mo.decompose().alpha == pytest.approx(0.0, abs=1e-8)


def test_decompose_lfr_exp_invalid_weight():
    dec = lfr_exp_model().decompose()
    assert dec.u1 == pytest.approx(1.0, abs=1e-6)
    assert dec.u2 == pytest.approx(1.0, abs=1e-6)
    assert dec.alpha == pytest.approx(4.0 / 3.0, abs=1e-6)
    assert not dec.weight_in_range


def test_decompose_divergent_limit_raises():
    m = LinearFailureRate(1.5)
    model = GeneralBivariateModel(W2, m, m, 3.0)
    with pytest.raises(DecompositionError):
        model.decompose()


def test_rectangle_probability_against_frozen_oracle():
    m = lfr_exp_model()
    oracle = (math.exp(-11.0) - math.exp(-8.5)
              - math.exp(-31.0) + math.exp(-22.5))
    assert oracle < 0  # the point of the demonstration
    assert m.rectangle_probability(1.0, 2.0, 3.0, 5.0) == pytest.approx(oracle,
                                                                        abs=1e-15)


def test_rectangle_degenerate_and_total_mass():
    mo = PHBivariateModel(E, 1.0, 1.0, 1.0)
    assert mo.rectangle_probability(1.0, 1.0, 0.5, 2.0) == 0.0
    assert mo.rectangle_probability(0.0, math.inf, 0.0, math.inf) == 1.0
    with pytest.raises(DomainError):
        mo.rectangle_probability(2.0, 1.0, 0.0, 1.0)


def test_singular_survival():
    mo = PHBivariateModel(E, 1.0, 1.0, 1.0)
    assert mo.singular_survival(1.0) == pytest.approx(math.exp(-3.0), rel=1e-12)
    assert mo.singular_survival(0.0) == 1.0
    mw = PHBivariateModel(W2, 0.5, 0.5, 1.0)  # theta = 2
    assert mw.singular_survival(1.0) == pytest.approx(math.exp(-2.0), rel=1e-12)


def test_singular_survival_undefined_for_purely_ac_model():
    # independence-like: delta1 + delta2 == theta leaves no diagonal mass
    model = GeneralBivariateModel(
        E, ProportionalHazard(E, 1.0), ProportionalHazard(E, 1.0), 2.0)
    assert model.decompose().singular_mass == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(UndefinedComponentError):
        model.singular_survival(1.0)


def test_purely_singular_density_undefined():
    model = GeneralBivariateModel(
        E, ProportionalHazard(E, 2.0), ProportionalHazard(E, 2.0), 2.0)
    assert model.decompose().alpha == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(UndefinedComponentError):
        model.ac_density(1.0, 2.0)


@pytest.mark.parametrize("base", [E, W2, PAR], ids=lambda b: b.spec_string())
def test_diagonal_law_and_branch_agreement(base):
    rng = np.random.default_rng(5)
    model = PHBivariateModel(base, 0.9, 1.3, 0.6)
    gen = model.as_general()
    for r in rng.uniform(0.01, 6.0, size=20):
        x = float(base.inverse_cumulative_hazard(r))
        expected = base.survival(x) ** model.theta
        assert model.survival(x, x) == pytest.approx(expected, rel=1e-10)
        assert gen.survival(x, x) == pytest.approx(expected, rel=1e-10)


def test_marginal_consistency():
    m1 = LinearFailureRate(0.7)
    m2 = ProportionalHazard(E, 1.2)
    model = GeneralBivariateModel(E, m1, m2, 2.5)
    for x in (0.3, 1.0, 4.0):
        assert model.survival(x, 0.0) == pytest.approx(m1.survival(x), rel=1e-10)
        assert model.survival(0.0, x) == pytest.approx(m2.survival(x), rel=1e-10)


@pytest.mark.parametrize("base", [E, W2, PAR], ids=lambda b: b.spec_string())
def test_ph_equals_general_with_ph_marginals(base):
    model = PHBivariateModel(base, 1.1, 0.4, 0.8)
    gen = model.as_general()
    rng = np.random.default_rng(11)
    pts = rng.uniform(0.02, 7.0, size=(40, 2))
    for r1, r2 in pts:
        x1 = float(base.inverse_cumulative_hazard(r1))
        x2 = float(base.inverse_cumulative_hazard(r2))
        assert gen.survival(x1, x2) == pytest.approx(model.survival(x1, x2),
                                                     rel=1e-10)


@pytest.mark.parametrize("base", [E, W2, PAR], ids=lambda b: b.spec_string())
def test_ph_model_is_the_general_model(base):
    model = PHBivariateModel(base, 1.1, 0.4, 0.8)
    gen = model.as_general()
    assert isinstance(model, GeneralBivariateModel)
    rng = np.random.default_rng(5)
    r = rng.uniform(0.02, 7.0, size=(2, 200))
    x1, x2 = (np.asarray(base.inverse_cumulative_hazard(v)) for v in r)
    assert np.array_equal(model.log_survival(x1, x2), gen.log_survival(x1, x2))
    # the density divides by alpha, which PH takes exactly as
    # (theta1 + theta2)/theta and the general model as 2 - (d1 + d2)/theta
    alphas = model.decompose().alpha, gen.decompose().alpha
    assert alphas[0] == pytest.approx(alphas[1], rel=1e-15, abs=0)
    np.testing.assert_allclose(model.ac_density(x1, x2), gen.ac_density(x1, x2),
                               rtol=1e-15, atol=0)
    for a, b in zip(hazard_gradient(model, x1, x2), hazard_gradient(gen, x1, x2)):
        assert np.array_equal(a, b)


def test_from_deltas_parameterization():
    model = PHBivariateModel.from_deltas(E, delta1=2.0, delta2=2.0, theta=3.0)
    assert model.theta1 == pytest.approx(1.0)
    assert model.theta2 == pytest.approx(1.0)
    assert model.theta3 == pytest.approx(1.0)
    # delta_i < theta alone is not enough: the sum constraint is enforced
    with pytest.raises(ModelError):
        PHBivariateModel.from_deltas(E, delta1=0.75, delta2=0.75, theta=3.0)
    with pytest.raises(ModelError):
        PHBivariateModel.from_deltas(E, delta1=3.0, delta2=2.0, theta=3.0)


def test_constructor_validation():
    with pytest.raises(ModelError):
        PHBivariateModel(E, 1.0, 1.0, 0.0)
    with pytest.raises(ModelError):
        GeneralBivariateModel(E, LinearFailureRate(1.0), LinearFailureRate(1.0), -1.0)
    with pytest.raises(ModelError):
        GeneralBivariateModel(PAR, LinearFailureRate(1.0), LinearFailureRate(1.0), 1.0)


def test_wedge_mass_quick():
    mo = PHBivariateModel(E, 1.0, 1.0, 1.0)
    assert wedge_ac_mass(mo, upper=True) == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_nan_coordinates_rejected():
    mo = PHBivariateModel(E, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        mo.survival(math.nan, 1.0)


def test_fd_density_noise_is_clamped_not_raised():
    # deep in the tail the mixed difference is pure cancellation noise; it
    # must clamp to zero (or stay positive), never raise for a valid model
    gen = PHBivariateModel(E, 1.0, 1.0, 1.0).as_general()
    for x1, x2 in ((35.0, 1.0), (1.0, 33.0), (40.0, 38.0)):
        assert gen.ac_density(x1, x2) >= 0.0


# -- closed-form density: property tests ---------------------------------------

_positive = st.floats(0.1, 3.0)
_r0 = st.floats(0.05, 3.0)


def _wedge_point(base, w, s, upper):
    """Off-diagonal point with R0(min) = w and R0(max) - R0(min) = s."""
    lo = float(base.inverse_cumulative_hazard(w))
    hi = float(base.inverse_cumulative_hazard(w + s))
    return (hi, lo) if upper else (lo, hi)


@settings(max_examples=150, deadline=None)
@given(base=st.sampled_from([E, W2, PAR]), thetas=st.tuples(_positive, _positive, _positive),
       w=_r0, s=_r0, upper=st.booleans())
def test_ph_density_property_against_mixed_difference(base, thetas, w, s, upper):
    model = PHBivariateModel(base, *thetas)
    x1, x2 = _wedge_point(base, w, s, upper)
    dens = model.ac_density(x1, x2)
    fd = mixed_fd(model.survival, x1, x2)
    assert model.decompose().alpha * dens == pytest.approx(fd, rel=1e-4)
    assert model.as_general().ac_density(x1, x2) == pytest.approx(dens, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(base=st.sampled_from([E, W2, PAR]), thetas=st.tuples(_positive, _positive, _positive),
       c=st.floats(0.0, 0.5), w=_r0, s=_r0, upper=st.booleans())
def test_callable_marginal_density_property(base, thetas, c, w, s, upper):
    # marginal 1 is a bare hazard callable with Q(s) = d1 (s + c (1 - e^{-s})):
    # its kernel takes Q from quadrature and Q'' from the one
    # finite-difference fallback, which here has to match -d1 c e^{-s}
    ph = PHBivariateModel(base, *thetas)
    d1, theta = ph.delta1, ph.theta
    # valid with room: theta Q' + Q'' - Q'^2 > 0 (its minimum over s is at
    # s = 0 or s -> inf) and alpha = 2 - (d1 (1 + c) + d2) / theta > 0
    assume(min(ph.theta2, (1.0 + c) * (ph.theta2 - d1 * c) - c) > 0.05)
    assume(2.0 - (d1 * (1.0 + c) + ph.delta2) / theta > 0.05)

    def hazard(x):
        return d1 * float(base.hazard(x)) * (1.0 + c * math.exp(-float(base.cumulative_hazard(x))))

    model = GeneralBivariateModel(base, FromHazard(hazard, x_L=base.x_L), ph.marginal2, theta)
    kernel = model.kernels[0]
    assert kernel.delta is None and model.kernels[1].delta == ph.delta2
    q1, q2 = kernel.slopes(np.array([s]))
    assert q1[0] == pytest.approx(d1 * (1.0 + c * math.exp(-s)), rel=1e-12)
    assert q2[0] == pytest.approx(-d1 * c * math.exp(-s), rel=1e-6, abs=1e-9)
    x1, x2 = _wedge_point(base, w, s, upper)
    fd = mixed_fd(model.survival, x1, x2)
    assert model.decompose().alpha * model.ac_density(x1, x2) == pytest.approx(fd, rel=1e-4)
