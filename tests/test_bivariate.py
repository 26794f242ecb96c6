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
from bisurv import CustomHazard, bivariate
from bisurv.marginals import WedgeKernel
from oracles import (
    diagonal_singular_survival,
    gradient_at,
    gradient_components,
    log_survival_masked,
    mixed_fd,
    model_tables,
    off_diagonal,
    point_ac_density,
    point_hazard_gradient,
    point_log_survival,
    wedge_ac_mass,
)

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


def test_scalar_ac_density_runs_one_wedge_kernel(monkeypatch):
    # a valid general model with different kernels on the two wedges; every
    # scalar survival, density and gradient maps its point through one float
    # call per coordinate and runs only its own wedge's kernel; density and
    # gradient take both baseline hazards from one more float call each,
    # survival none, and the LFR kernel (x1 > x2) takes r0 at its d once more
    model = GeneralBivariateModel(E, LinearFailureRate(0.5), ProportionalHazard(E, 2.0), 3.0)
    pts = [(2.5, 0.9), (0.4, 1.3), (1.7, 1.2), (0.6, 2.4)]
    xs1, xs2 = np.array([p[0] for p in pts]), np.array([p[1] for p in pts])
    views = {
        "survival": (model.survival, model.survival(xs1, xs2)),
        "ac_density": (model.ac_density, model.ac_density(xs1, xs2)),
        "hazard_gradient": (lambda a, b: hazard_gradient(model, a, b),
                            np.transpose(hazard_gradient(model, xs1, xs2))),
    }
    maps, hazards, kernels = [], [], []
    for name, calls in (("cumulative_hazard", maps), ("hazard", hazards)):
        def counted_map(self, x, _method=getattr(Exponential, name), _calls=calls):
            _calls.append(np.shape(x))
            return _method(self, x)
        monkeypatch.setattr(Exponential, name, counted_map)
    for name in ("q", "q_prime", "slopes", "q_slopes", "density"):
        def counted(self, *args, _method=getattr(WedgeKernel, name), **kwargs):
            kernels.append(self)
            return _method(self, *args, **kwargs)
        monkeypatch.setattr(WedgeKernel, name, counted)
    for name, (view, batch) in views.items():
        for (x1, x2), want in zip(pts, batch):
            maps.clear()
            hazards.clear()
            kernels.clear()
            got = view(x1, x2)
            assert maps == [(), ()]
            assert hazards == ([] if name == "survival" else [(), ()] + [()] * (x1 > x2))
            assert kernels and set(kernels) == {model.kernels[0 if x1 > x2 else 1]}
            assert np.array(got).tobytes() == np.array(want).tobytes()  # bit for bit


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


@pytest.mark.parametrize("base", [E, W2, PAR, CustomHazard.from_table([0, 1, 3], [1, 2, 0.5])],
                         ids=["exponential", "weibull2", "pareto", "table"])
def test_singular_survival_takes_the_survival_input_rules(base):
    model = PHBivariateModel(base, 1.0, 1.0, 1.0)
    xl, y = base.x_L, base.x_L + 1.0
    inside = model.singular_survival(y)
    assert inside == float(np.exp(-3.0 * base.cumulative_hazard(y)))
    for x, want in ((math.inf, 0.0), (1e308, 0.0), (-math.inf, 1.0), (xl - 1.0, 1.0), (xl, 1.0)):
        got = model.singular_survival(x)
        assert type(got) is float and got == want, x
        arr = model.singular_survival(np.array([x, y]))
        assert arr.tolist() == [want, inside], x
    for x in (math.nan, np.array([y, math.nan])):
        with pytest.raises(DomainError, match="NaN"):
            model.singular_survival(x)


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


# -- blocked vector survival ----------------------------------------------------

_BLOCK_MODELS = (PHBivariateModel(PAR, 1.0, 0.5, 2.0), lfr_exp_model(),
                 GeneralBivariateModel(W2, LinearFailureRate(0.2), ProportionalHazard(W2, 1.5), 2.0))


def _points(base, rng, shape):
    """Coordinates off and on the diagonal, with infinities and points below x_L."""
    x = base.x_L + rng.exponential(1.5, size=shape)
    flat = x.reshape(-1)
    flat[::97] = math.inf
    flat[5::89] = base.x_L - 0.5
    return x


def _blocked_and_whole(monkeypatch, model, x1, x2):
    blocked = (model.survival(x1, x2), model.log_survival(x1, x2))
    with monkeypatch.context() as m:
        m.setattr(bivariate, "_BLOCK", 10**12)
        whole = (model.survival(x1, x2), model.log_survival(x1, x2))
    return blocked, whole


@pytest.mark.parametrize("size", [2 * bivariate._BLOCK, 2 * bivariate._BLOCK + 1, 200_003])
def test_blocked_survival_is_bit_identical(monkeypatch, size):
    rng = np.random.default_rng(size)
    for model in _BLOCK_MODELS:
        x1, x2 = _points(model.baseline, rng, size), _points(model.baseline, rng, size)
        x2[::7] = x1[::7]
        x1[3::11] = math.inf
        blocked, whole = _blocked_and_whole(monkeypatch, model, x1, x2)
        for b, w in zip(blocked, whole):
            assert b.shape == w.shape == (size,)
            assert b.tobytes() == w.tobytes()


def test_blocked_survival_broadcasts_bit_identically(monkeypatch):
    rng = np.random.default_rng(7)
    for model in _BLOCK_MODELS:
        for n, m in ((150, 130), (1, 20_000), (20_000, 1)):
            x1 = _points(model.baseline, rng, (n, 1))
            x2 = _points(model.baseline, rng, (1, m))
            blocked, whole = _blocked_and_whole(monkeypatch, model, x1, x2)
            for b, w in zip(blocked, whole):
                assert b.shape == w.shape == (n, m)
                assert b.tobytes() == w.tobytes()


def test_survival_blocks_are_near_equal_and_bounded(monkeypatch):
    sizes = []
    original = GeneralBivariateModel._log_survival_array

    def spy(self, x1, x2, *given):
        sizes.append(np.broadcast(x1, x2).size)
        return original(self, x1, x2, *given)

    monkeypatch.setattr(GeneralBivariateModel, "_log_survival_array", spy)
    block = bivariate._BLOCK
    model = _BLOCK_MODELS[0]
    for size, expected in ((2 * block, [2 * block]),
                           (2 * block + 1, [5461, 5462, 5462]),
                           (200_003, None)):
        sizes.clear()
        model.survival(np.full(size, 2.0), np.ones(size))
        if expected is not None:
            assert sizes == expected
        else:
            assert sum(sizes) == size and max(sizes) <= block
            assert max(sizes) - min(sizes) <= 1


def test_blocked_survival_nan_message_unchanged(monkeypatch):
    model = lfr_exp_model()
    x1 = np.linspace(0.1, 5.0, 200_003)
    x2 = x1[::-1].copy()
    x2[150_000] = math.nan
    messages = []
    for block in (bivariate._BLOCK, 10**12):
        monkeypatch.setattr(bivariate, "_BLOCK", block)
        with pytest.raises(DomainError) as excinfo:
            model.survival(x1, x2)
        messages.append(str(excinfo.value))
    assert messages[0] == messages[1] == f"coordinates must not be NaN, got {x2!r}"


# -- array admission -----------------------------------------------------------

_NAN = math.nan
#: ``(x1, x2, i)``: a NaN in argument ``i`` (0 or 1), in the first such
#: argument's own object, which the message shows
_NAN_INPUTS = [
    ([1.0, _NAN], [2.0, 3.0], 0),
    ([1.0, 2.0], np.array([_NAN, 3.0]), 1),
    (np.array([[1.0], [_NAN]]), np.array([2.0, 3.0]), 0),
    (np.array(_NAN), np.array([1.0, 2.0]), 0),
    (np.float64(2.0), [_NAN, 1.0], 1),
    (np.array([1.0, 2.0]), np.float64(_NAN), 1),
    # beside infinities, whose clamp comes after the refusal
    ([_NAN, math.inf], [-math.inf, 1.0], 0),
    ([math.inf, 1.0], np.array([_NAN, -math.inf]), 1),
    (np.array([math.inf, math.inf]), [math.inf, _NAN], 1),
    # shapes that do not broadcast: the NaN is found before numpy's error
    ([1.0, _NAN, 3.0], [1.0, 2.0], 0),
    (np.zeros((2, 3)), [_NAN, 1.0], 1),
    # an empty broadcast leaves no difference to test
    ([_NAN], np.empty(0), 0),
]


@pytest.mark.parametrize("x1, x2, i", _NAN_INPUTS)
def test_array_survival_refuses_nan_in_the_callers_own_object(x1, x2, i):
    for model in _BLOCK_MODELS:
        for view in (model.survival, model.log_survival):
            with pytest.raises(DomainError) as excinfo:
                view(x1, x2)
            assert str(excinfo.value) == f"coordinates must not be NaN, got {(x1, x2)[i]!r}"


#: ``(x1, x2, i)``: argument ``i`` is the first that is no real number or
#: array of them, on the scalar path and the array path
_NOT_REAL_INPUTS = [
    (["a", 1.0], [1.0, 2.0], 0),
    ([1.0, 2.0], ["a", 1.0], 1),
    (["a", 1.0], [_NAN, 2.0], 0),
    ([[1.0, 2.0], [1.0]], [1.0, 2.0], 0),
    ([1.0, 2.0], [[1.0], [1.0, 2.0]], 1),
    ("a", 1.0, 0),
    (1.0, None, 1),
    (1j, 2.0, 0),
]


def test_array_survival_without_nan_keeps_its_errors():
    # shapes that do not broadcast raise numpy's error; an argument that is
    # no real number or array of them raises a DomainError that names it
    model = _BLOCK_MODELS[1]
    with pytest.raises(ValueError, match="shape mismatch") as excinfo:
        model.survival([1.0, 2.0, 3.0], [1.0, 2.0])
    assert not isinstance(excinfo.value, DomainError)
    for x1, x2, i in _NOT_REAL_INPUTS:
        for view in (model.survival, model.log_survival):
            with pytest.raises(DomainError) as excinfo:
                view(x1, x2)
            assert str(excinfo.value) == f"coordinates must be real numbers, got {(x1, x2)[i]!r}"
    # density and gradient, whose array path refuses NaN as not finite
    for x1, x2, i in _NOT_REAL_INPUTS:
        for view in (model.ac_density, lambda a, b: hazard_gradient(model, a, b)):
            with pytest.raises(DomainError) as excinfo:
                view(x1, x2)
            assert str(excinfo.value) == f"coordinates must be real numbers, got {(x1, x2)[i]!r}"
    with pytest.raises(ValueError, match="shape mismatch") as excinfo:
        model.ac_density([1.0, 2.0, 3.0], [0.5, 1.5])
    assert not isinstance(excinfo.value, DomainError)
    # numeric strings read as numpy reads them, where the NaN search runs too
    assert model.survival(["1.5", 2.0], [math.inf, 1.0]).tolist() == [
        0.0, model.survival(2.0, 1.0)]


@pytest.mark.parametrize("holder", [0, 1])
def test_blocked_survival_refuses_a_late_nan_before_any_block(monkeypatch, holder):
    mapped = []
    original = GeneralBivariateModel._log_survival_array

    def spy(self, x1, x2, *given):
        mapped.append(x1.size)
        return original(self, x1, x2, *given)

    monkeypatch.setattr(GeneralBivariateModel, "_log_survival_array", spy)
    xs = [np.linspace(0.1, 5.0, 200_003), np.full(200_003, 2.0)]
    xs[holder][199_999] = _NAN
    if holder == 0:
        xs[0] = xs[0].tolist()
    for model in _BLOCK_MODELS:
        for view in (model.survival, model.log_survival):
            with pytest.raises(DomainError) as excinfo:
                view(*xs)
            assert str(excinfo.value) == f"coordinates must not be NaN, got {xs[holder]!r}"
    assert mapped == []


def test_finite_array_survival_never_searches_for_nan(monkeypatch):
    # x1 - x2 is the one admission test; where it is finite, no NaN search
    # runs, on whole, broadcast and blocked inputs alike
    rng = np.random.default_rng(11)
    cases = []
    for model in _BLOCK_MODELS:
        xl = model.baseline.x_L
        for shape1, shape2 in (((40,), (40,)), ((150, 1), (1, 130)), ((200_003,), (200_003,)),
                               ((20_000, 1), (1,)), ((3,), ())):
            x1 = xl + rng.exponential(1.5, shape1)
            x2 = xl + rng.exponential(1.5, shape2)
            x1.reshape(-1)[5::89] = xl - 0.5  # below x_L
            if shape1 == shape2:
                x2[::7] = x1[::7]  # ties
            cases.append((model, x1, x2))
    want = [(m.survival(a, b), m.log_survival(a, b)) for m, a, b in cases]

    def refuse(*values):
        raise AssertionError("NaN search on finite input")

    monkeypatch.setattr(bivariate, "_nan_check", refuse)
    for (model, x1, x2), expected in zip(cases, want):
        got = (model.survival(x1, x2), model.log_survival(x1, x2))
        for g, w in zip(got, expected):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()


# -- scalar point evaluation -------------------------------------------------------

W05 = Weibull(0.5)
TABLE_BASE = CustomHazard.from_table([0.0, 1.0, 2.5, 6.0], [1.0, 1.6, 1.1, 1.4])
TABLE_MARGINAL = FromHazard.from_table([0.0, 2.0, 5.0, 10.0], [1.5, 1.2, 1.05, 1.0])
#: a table baseline with a narrow spike at R0 ~ 1, inside the strategy's range,
#: so that a table's float path is taken within a few ulps of narrow segments
SPIKE_BASE = CustomHazard.from_table([0.0, 1.0, 1.0005, 1.001, 8.0], [1.0, 1.0, 4.0, 1.0, 1.0])

#: exponential, Weibull 0.5 and 2, Pareto and table baselines (one with a
#: spike); PH, LFR and table marginals, over their own baseline and over
#: another; valid and invalid models (lfr:0.2 turns negative past s = 2.96,
#: the LFR-over-Weibull limit diverges)
_POINT_MODELS = {
    "ph-exponential": PHBivariateModel(E, 1.0, 1.0, 1.0),
    "ph-weibull0.5": PHBivariateModel(W05, 1.0, 0.5, 2.0),
    "ph-weibull2": PHBivariateModel(W2, 0.5, 1.0, 1.5),
    "ph-pareto": PHBivariateModel(PAR, 2.0, 1.0, 1.0),
    "ph-table": PHBivariateModel(TABLE_BASE, 1.0, 1.0, 1.0),
    "ph-spike-table": PHBivariateModel(SPIKE_BASE, 1.0, 0.5, 2.0),
    "table-spike-table": GeneralBivariateModel(SPIKE_BASE, TABLE_MARGINAL,
                                               ProportionalHazard(SPIKE_BASE, 2.0), 3.0),
    "lfr-exponential": GeneralBivariateModel(E, LinearFailureRate(0.2),
                                             LinearFailureRate(0.2), 2.0),
    "table-exponential": GeneralBivariateModel(E, TABLE_MARGINAL, ProportionalHazard(E, 2.0), 3.0),
    "lfr-table-table": GeneralBivariateModel(TABLE_BASE, LinearFailureRate(0.3),
                                             TABLE_MARGINAL, 3.0),
    "lfr-weibull2-divergent": GeneralBivariateModel(W2, LinearFailureRate(0.5),
                                                    ProportionalHazard(E, 1.5), 2.0),
}


def _outcome(fn, *args):
    """What ``fn(*args)`` did: the types and raw bytes of what it returned,
    or its error."""
    try:
        value = fn(*args)
    except Exception as exc:  # compared, never swallowed: see _check_point
        return ("raised", type(exc), str(exc), getattr(exc, "witness", None),
                getattr(exc, "value", None))
    values = value if isinstance(value, tuple) else (value,)
    return "returned", tuple(type(v) for v in values), np.array(values, dtype=float).tobytes()


def _point_views(model):
    """(scalar view, its oracle, its array form, whether it is a survival view)
    of log-survival, survival, density and gradient."""
    def array(fn):
        return lambda x1, x2: fn(np.array([x1], dtype=float), np.array([x2], dtype=float))

    def gradient(x1, x2):
        return hazard_gradient(model, x1, x2)

    return (
        (model.log_survival, point_log_survival, array(model.log_survival), True),
        (model.survival, lambda m, a, b: float(np.exp(point_log_survival(m, a, b))),
         array(model.survival), True),
        (model.ac_density, point_ac_density, array(model.ac_density), False),
        (gradient, point_hazard_gradient, array(gradient), False),
    )


def _check_point(model, x1, x2, kind, survival_oracle=True):
    """Each scalar view at ``kind(x1), kind(x2)`` returns floats or raises as
    its oracle does, bit for bit and message for message, and returns the
    bits of the array path's element or raises its error type."""
    for view, oracle, array, survival in _point_views(model):
        got = _outcome(view, kind(x1), kind(x2))
        if survival_oracle or not survival:
            assert got == _outcome(oracle, model, kind(x1), kind(x2))
        want = _outcome(array, x1, x2)
        assert got[0] == want[0]
        if got[0] == "returned":
            assert set(got[1]) == {float} and got[2] == want[2]
        else:
            assert got[1] is want[1]


_KINDS = (float, np.float64, np.array)


@settings(max_examples=300, deadline=None)
@given(model=st.sampled_from(list(_POINT_MODELS.values())), w=st.floats(0.0, 6.0),
       s=st.floats(0.0, 6.0), upper=st.booleans(), kind=st.sampled_from(_KINDS))
def test_scalar_point_is_bit_identical_to_oracle_and_array(model, w, s, upper, kind):
    x1, x2 = _wedge_point(model.baseline, w, s, upper)
    _check_point(model, x1, x2, kind)


@pytest.mark.parametrize("name", _POINT_MODELS)
def test_scalar_point_errors_match_oracle_and_array(name):
    model = _POINT_MODELS[name]
    xl, nan, inf = model.baseline.x_L, math.nan, math.inf
    y = xl + 1.0
    points = [(nan, y), (y, nan), (nan, nan), (y, y), (xl, xl), (inf, inf), (xl - 0.5, y),
              (y, xl - 0.5), (xl - 1.0, xl - 2.0), (inf, y), (y, inf), (inf, xl - 1.0)]
    for x1, x2 in points:
        for kind in _KINDS:
            _check_point(model, x1, x2, kind)
    # survival clamps -inf to x_L on both paths; the oracle read it as 0
    for x1, x2 in ((-inf, y), (y, -inf), (-inf, -inf), (-inf, inf), (nan, -inf)):
        for kind in _KINDS:
            _check_point(model, x1, x2, kind, survival_oracle=False)


@pytest.mark.parametrize("name, want", [("table-spike-table", -1e308),
                                        ("lfr-table-table", -math.inf)])
def test_log_survival_near_the_float_range_over_a_table_baseline(name, want):
    # R0(1e308) and its inverse are finite on both table baselines, so every
    # kernel answers there; the array path runs both kernels at every point
    model = _POINT_MODELS[name]
    assert model.log_survival(1e308, 1.0) == want
    x1, x2 = np.array([1e308, 1.0, 2.0]), np.array([1.0, 1e308, 0.5])
    for fn in (model.log_survival, model.survival):
        assert fn(x1, x2).tolist() == [fn(a, b) for a, b in zip(x1.tolist(), x2.tolist())]
    # every view there, the density's 0.0 included, against the oracles
    for kind in _KINDS:
        _check_point(model, 1.0, 1e308, kind)
        _check_point(model, 1e308, 1.0, kind)


@pytest.mark.parametrize("name", _POINT_MODELS)
def test_point_views_past_the_float_range_match_their_oracles(name):
    # over Weibull(2), R0(1e308) and r0(1e308) are inf: the density is 0
    # there and the larger gradient component the marginal's own hazard
    for kind in _KINDS:
        _check_point(_POINT_MODELS[name], 1.0, 1e308, kind)
        _check_point(_POINT_MODELS[name], 1e308, 1.0, kind)


# -- the kernels' float route -------------------------------------------------------

#: every kernel of the point models; tables with zero-hazard rows: a zero
#: first and inner row of a marginal (r = 0), of a baseline (r0 = 0, so Q' is
#: r / 0) with a last row of 0 (a bounded total hazard), and a table over one;
#: tables where d = R0^{-1}(s) passes the float range for s near 1e308; a
#: table over Pareto, whose r0' = -1/d^2 overflows there; and a callable,
#: whose Q'' is a central difference of Q'
_ZERO_ROWS = ([0.0, 1.0, 2.0, 3.5], [0.0, 1.2, 0.0, 2.0])
_ZERO_BASE = CustomHazard.from_table([0.0, 1.0, 2.0, 3.0], [0.0, 1.5, 0.0, 0.0])
_FLOAT_KERNELS = {
    **{f"{name}:{i}": kernel for name, model in _POINT_MODELS.items()
       for i, kernel in enumerate(model.kernels, 1)},
    "zero-rows-exponential": WedgeKernel(FromHazard.from_table(*_ZERO_ROWS), E),
    "zero-rows-weibull2": WedgeKernel(FromHazard.from_table(*_ZERO_ROWS), W2),
    "lfr-zero-base": WedgeKernel(LinearFailureRate(0.5), _ZERO_BASE),
    "zero-rows-zero-base": WedgeKernel(FromHazard.from_table(*_ZERO_ROWS), _ZERO_BASE),
    "table-weibull0.5": WedgeKernel(TABLE_MARGINAL, W05),
    "lfr-thin-tail-base": WedgeKernel(LinearFailureRate(0.5),
                                      CustomHazard.from_table([0.0, 1.0], [1.0, 1e-3])),
    "table-pareto": WedgeKernel(FromHazard.from_table([1.0, 1.5, 2.0, 4.0], [0.5, 0.8, 1.0, 2.0]),
                                PAR),
    "callable-exponential": WedgeKernel(FromHazard(lambda x: 1.0 + 0.1 * x), E),
}


def _kernel_views(kernel, theta=2.5):
    return {"q": kernel.q, "q_prime": kernel.q_prime,
            "slopes": kernel.slopes, "q_slopes": kernel.q_slopes,
            "tail": lambda s: kernel.tail(s, theta)}


def _s_knots(kernel):
    """``s`` at the kernel's table knots: ``R0`` of its tables' segment starts."""
    knots = [t._knots for t in model_tables(kernel) if t is not None]
    if not knots:
        return [1.0]
    return np.asarray(kernel.baseline.cumulative_hazard(np.concatenate(knots))).tolist()


def _kernel_outcome(fn, s):
    """Per value of ``fn(s)`` its type and bytes (an array's only element,
    read as a float), or the type of the error it raised."""
    try:
        if type(s) is float:
            value = fn(s)
        else:  # as the models call the array path: overflow is theirs to mask
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                value = fn(s)
    except Exception as exc:  # compared, never swallowed
        return type(exc)
    values = value if isinstance(value, tuple) else (value,)
    return tuple(None if v is None else
                 (type(v) if type(s) is float else float, np.asarray(v, dtype=float).tobytes())
                 for v in values)


@settings(max_examples=400, deadline=None)
@given(name=st.sampled_from(sorted(_FLOAT_KERNELS)), data=st.data())
def test_a_float_s_gives_the_array_element_bit_for_bit(name, data):
    kernel = _FLOAT_KERNELS[name]
    knot = data.draw(st.sampled_from(_s_knots(kernel)))
    s = data.draw(st.one_of(
        st.sampled_from([0.0, 5e-324, 1e-300]), st.floats(0.0, 12.0),
        st.floats(1e154, 1e308),
        st.sampled_from([knot, math.nextafter(knot, -math.inf), math.nextafter(knot, math.inf)])
        .map(lambda v: max(v, 0.0))))
    for view, fn in _kernel_views(kernel).items():
        assert _kernel_outcome(fn, s) == _kernel_outcome(fn, np.array([s])), (view, s)


@pytest.mark.parametrize("name", sorted(_FLOAT_KERNELS))
def test_every_kernel_refuses_a_non_finite_float_s(name):
    # a table kernel refuses one in an array too; the composition path passes
    # it through, since the models zero any overflow before a kernel runs
    kernel = _FLOAT_KERNELS[name]
    tables = kernel.delta is None and any(t is not None for t in model_tables(kernel))
    for view, fn in _kernel_views(kernel).items():
        for s in (math.nan, math.inf, -math.inf):
            assert _kernel_outcome(fn, s) is DomainError, (view, s)
            if tables and s != -math.inf:  # arrays of s >= 0: -inf may read as 0
                assert _kernel_outcome(fn, np.array([s])) is DomainError, (view, s)
    if name == "lfr-exponential:1":
        with np.errstate(invalid="ignore"):
            assert np.isnan(kernel.q(np.array([math.nan]))[0])
            assert [v[0] for v in kernel.slopes(np.array([math.inf]))][0] == math.inf


def test_a_float_route_over_the_exponential_builds_no_array(monkeypatch):
    # LFR, a table and PH over a table, each over the exponential: every map
    # answers the float in float arithmetic, and r0 = 1 needs no np.power; a
    # callable marginal's hazard and its difference quotient do too (its Q
    # is a quadrature)
    kernels = [_FLOAT_KERNELS["lfr-exponential:1"], _FLOAT_KERNELS["table-exponential:1"],
               WedgeKernel(ProportionalHazard(TABLE_BASE, 1.5), E)]
    callable_kernel = _FLOAT_KERNELS["callable-exponential"]
    for name in ("asarray", "array", "power", "divide", "maximum", "interp", "searchsorted"):
        monkeypatch.setattr(np, name, _refuse)
    for s in (0.0, 0.7, 2.0, 40.0):
        for kernel in kernels:
            kernel.q_slopes(s)
            kernel.tail(s, 3.0)
        callable_kernel.slopes(s)
        callable_kernel.q_prime(s)


def _refuse(*args, **kwargs):
    raise AssertionError("an array was built")


@pytest.mark.parametrize("base", [E, PAR], ids=["exponential", "pareto"])
def test_scalar_survival_matches_array_at_infinity(base):
    model = PHBivariateModel(base, 1.0, 1.0, 1.0)
    y = base.x_L + 1.0
    for x1, x2 in ((-math.inf, y), (y, -math.inf), (math.inf, y), (y, math.inf),
                   (-math.inf, -math.inf), (-math.inf, math.inf)):
        want = model.survival(np.array([x1]), np.array([x2]))[0]
        got = model.survival(x1, x2)
        assert type(got) is float and got == want
    # P(X2 > y) = S0(y)**delta2
    marginal = math.exp(-model.delta2 * float(base.cumulative_hazard(y)))
    assert model.survival(-math.inf, y) == pytest.approx(marginal, rel=1e-15)
    assert model.survival(-math.inf, y) > 0.0


# -- array survival ----------------------------------------------------------------

#: the point models, and PH over a callable baseline
_ARRAY_MODELS = {
    **_POINT_MODELS,
    "ph-callable": PHBivariateModel(CustomHazard(lambda x: 1.0 + 0.2 * x), 1.0, 0.5, 2.0),
}


@st.composite
def _survival_arrays(draw, xl: float):
    """Coordinate arrays of 1-60 points: finite ones at, above and below
    ``x_L``, signed zeros, +-inf, 1e300 and 1e308 (past the float range under
    Weibull(2)), and exact ties; or their ``(n, 1) x (1, n)`` broadcast."""
    coordinate = st.one_of(
        st.floats(xl - 2.0, xl + 8.0),
        st.sampled_from([xl, xl - 0.5, 0.0, -0.0, math.inf, -math.inf, 1e300, 1e308, -1e308]))
    pairs = draw(st.lists(st.tuples(coordinate, coordinate, st.integers(0, 4)),
                          min_size=1, max_size=60))
    x1 = np.array([a for a, _, _ in pairs])
    x2 = np.array([a if tie == 0 else b for a, b, tie in pairs])
    if draw(st.booleans()):
        return x1[:, None], x2[None, :]
    return x1, x2


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(list(_ARRAY_MODELS)), data=st.data())
def test_array_survival_is_the_masked_body_bit_for_bit(name, data):
    model = _ARRAY_MODELS[name]
    x1, x2 = data.draw(_survival_arrays(model.baseline.x_L))
    want = _outcome(log_survival_masked, model, x1, x2)
    assert _outcome(model.log_survival, x1, x2) == want
    if want[0] == "returned":
        assert model.log_survival(x1, x2).shape == np.broadcast(x1, x2).shape
    assert _outcome(model.survival, x1, x2) == _outcome(
        lambda a, b: np.exp(log_survival_masked(model, a, b)), x1, x2)


# -- the diagonal, and points past the float range -----------------------------------

#: PH over every baseline kind, and two general models with singular mass: LFR
#: over the exponential, and a table marginal over Weibull(2) with
#: ``u = lim 1.5 x / 2 x = 0.75``
_DIAGONAL_MODELS = {
    **{name: _POINT_MODELS[name] for name in
       ("ph-exponential", "ph-weibull0.5", "ph-weibull2", "ph-pareto", "ph-table")},
    "lfr-exponential": GeneralBivariateModel(E, LinearFailureRate(0.5),
                                             LinearFailureRate(0.5), 1.5),
    "hazard-weibull2": GeneralBivariateModel(
        W2, FromHazard.from_table([0.0, 1.0, 2.0, 5.0], [0.0, 1.5, 3.0, 9.0]),
        ProportionalHazard(W2, 0.75), 1.0),
}

#: ways to pass coordinates: scalars of three types, lists, arrays, and arrays
#: long enough for blocked survival
_DIAGONAL_KINDS = {
    "float": lambda v: v[0],
    "float64": lambda v: np.float64(v[0]),
    "0-d": lambda v: np.array(v[0]),
    "list": list,
    "array": np.array,
    "blocked": lambda v: np.resize(np.array(v), 2 * bivariate._BLOCK + 7),
}

_far = st.sampled_from([1e154, 1e300, 1e308, math.inf, -math.inf])


@settings(max_examples=250, deadline=None)
@given(name=st.sampled_from(list(_DIAGONAL_MODELS)), kind=st.sampled_from(list(_DIAGONAL_KINDS)),
       offsets=st.lists(st.one_of(st.floats(-2.0, 60.0), _far), min_size=1, max_size=12))
def test_singular_survival_is_the_old_body_bit_for_bit(name, kind, offsets):
    model = _DIAGONAL_MODELS[name]
    x = _DIAGONAL_KINDS[kind]([model.baseline.x_L + v for v in offsets])
    got, want = model.singular_survival(x), diagonal_singular_survival(model, x)
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("name", _DIAGONAL_MODELS)
def test_singular_survival_refuses_nan_with_the_old_message(name):
    model = _DIAGONAL_MODELS[name]
    for make in _DIAGONAL_KINDS.values():
        x = make([math.nan, model.baseline.x_L + 1.0])
        messages = []
        for fn in (model.singular_survival, lambda v: diagonal_singular_survival(model, v)):
            with pytest.raises(DomainError) as excinfo:
                fn(x)
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]


@pytest.mark.parametrize("name", ["ph-weibull2", "hazard-weibull2"])
def test_survival_reads_zero_where_both_cumulative_hazards_overflow(name):
    # R0 = x**2 passes the float range at both coordinates, so w = inf and
    # s = inf - inf; every path reads S = 0 without a warning or an error
    model = _DIAGONAL_MODELS[name]
    inside = model.survival(0.5, 0.7)
    n = 2 * bivariate._BLOCK + 1
    for x1, x2 in ((1e308, 1e300), (1e300, 1e308), (1e308, 1e308)):
        assert model.survival(x1, x2) == 0.0
        assert model.log_survival(x1, x2) == -math.inf
        assert model.survival(np.array([x1, 0.5]), np.array([x2, 0.7])).tolist() == [0.0, inside]
        blocked = model.survival(np.resize([x1, 0.5], n), np.resize([x2, 0.7], n))
        assert blocked.tolist() == [0.0, inside] * (n // 2) + [0.0]


def test_array_evaluation_is_silent_past_the_float_range():
    # pytest turns a RuntimeWarning into an error: the PH kernel's delta * s
    # and theta * w overflow here, and the array paths say nothing, as the
    # scalar ones do
    model = PHBivariateModel(E, 1.0, 1.0, 1.0)
    density = model.ac_density(np.array([1e308]), np.array([1e307]))
    assert density.tolist() == [model.ac_density(1e308, 1e307)] == [0.0]
    survival = model.survival(np.array([1e308]), np.array([1e308]))
    assert survival.tolist() == [model.survival(1e308, 1e308)] == [0.0]


@pytest.mark.parametrize("name", ["ph-weibull2", "hazard-weibull2"])
def test_one_overflowing_cumulative_hazard_reads_zero_survival_and_density(name):
    # R0 = x**2 passes the float range at 1e308 and 1e300 but not at 0.5:
    # there s = inf and, at both, NaN; no kernel sees either, and every path
    # reads 0 without a warning or an error
    model = _DIAGONAL_MODELS[name]
    inside = model.survival(0.5, 0.7), model.ac_density(0.5, 0.7)
    n = 2 * bivariate._BLOCK + 1
    for x1, x2 in ((1e308, 0.5), (0.5, 1e308)):
        assert model.survival(x1, x2) == 0.0
        assert model.log_survival(x1, x2) == -math.inf
        assert model.survival(np.array([x1, 0.5]), np.array([x2, 0.7])).tolist() == [0.0, inside[0]]
        blocked = model.survival(np.resize([x1, 0.5], n), np.resize([x2, 0.7], n))
        assert blocked.tolist() == [0.0, inside[0]] * (n // 2) + [0.0]
    for x1, x2 in ((1e308, 0.5), (0.5, 1e308), (1e308, 1e300)):
        assert model.ac_density(x1, x2) == 0.0
        assert model.ac_density(np.array([x1, 0.5]), np.array([x2, 0.7])).tolist() == [0.0, inside[1]]


def test_array_gradient_is_silent_past_the_float_range():
    # r0(1e308) = 2e308 overflows and s = inf - inf: the array call returns
    # the scalar call's values with no RuntimeWarning
    model = _DIAGONAL_MODELS["ph-weibull2"]
    g1, g2 = hazard_gradient(model, np.array([1e308]), np.array([1e300]))
    assert (g1.tolist(), g2.tolist()) == ([math.inf], [2e300])
    assert hazard_gradient(model, 1e308, 1e300) == (math.inf, 2e300)


def test_gradient_past_the_float_range_takes_the_larger_coordinates_hazard():
    # R0(1e308) overflows under weibull:2: s is inf at (1e308, 0.5) and NaN at
    # (1e308, 1e300), and the table kernel is not evaluated there.  Its
    # hazard is flat at 9 past x = 5, so Q' -> 0: the larger coordinate's
    # component is r_m(x_max) = 9 and the smaller's theta * r0(x_min) = 2 x_min
    w2 = Weibull(2.0)
    model = GeneralBivariateModel(w2, FromHazard.from_table([0, 1, 2, 5], [0, 1.5, 3, 9]),
                                  ProportionalHazard(w2, 0.75), 1.0)
    x1, x2 = np.array([1e308, 1e308, 3.0]), np.array([0.5, 1e300, 2.0])
    want = [(9.0, 1.0), (9.0, 2e300), hazard_gradient(model, 3.0, 2.0)]
    assert [hazard_gradient(model, a, b) for a, b in zip(x1, x2)][:2] == want[:2]
    g1, g2 = hazard_gradient(model, x1, x2)
    assert list(zip(g1.tolist(), g2.tolist())) == want
    # the PH wedge's answer there is unchanged: Q' = 0.75 everywhere
    assert hazard_gradient(model, 0.5, 1e308) == (0.25, math.inf)


#: the point models, and a callable marginal and a callable baseline
_GRADIENT_MODELS = {
    **_POINT_MODELS,
    "callable-exponential": GeneralBivariateModel(
        E, FromHazard(lambda x: 1.0 + 0.5 * math.exp(-x)), ProportionalHazard(E, 2.0), 3.0),
    "lfr-callable": GeneralBivariateModel(
        CustomHazard(lambda x: 1.0 + 0.2 * x), LinearFailureRate(0.3), LinearFailureRate(0.1), 3.0),
}


def _old_gradient(model, x1, x2):
    if np.ndim(x1) == 0:
        return gradient_at(model, model._point(x1, x2, "hazard gradient"))
    return gradient_components(model, *off_diagonal(model, x1, x2, "hazard gradient"))[:2]


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(list(_GRADIENT_MODELS)),
       points=st.lists(st.tuples(st.floats(0.0, 6.0), st.floats(0.0, 6.0), st.booleans()),
                       min_size=1, max_size=6))
def test_gradient_and_density_are_the_old_routines_bit_for_bit(name, points):
    model = _GRADIENT_MODELS[name]
    pts = [_wedge_point(model.baseline, w, s, upper) for w, s, upper in points]
    x1, x2 = np.array(pts).T
    assert _outcome(hazard_gradient, model, x1, x2) == _outcome(_old_gradient, model, x1, x2)
    assert _outcome(model.ac_density, x1, x2) == _outcome(point_ac_density, model, x1, x2)
    for a, b in pts:
        assert _outcome(hazard_gradient, model, a, b) == _outcome(_old_gradient, model, a, b)
