import math

import numpy as np
import pytest

from bisurv import (
    CustomHazard,
    DomainError,
    Exponential,
    FromHazard,
    LinearFailureRate,
    ModelError,
    NumericError,
    Pareto,
    PHBivariateModel,
    ProportionalHazard,
    Weibull,
)
from bisurv.baseline import _is_scalar, _ret
from bisurv.marginals import WedgeKernel
from oracles import _ret as oracle_ret
from oracles import trapezoid_cumulative_hazard

FAMILIES = {
    "exponential": Exponential(),
    "weibull_half": Weibull(0.5),
    "weibull_two": Weibull(2.0),
    "pareto": Pareto(),
}


def test_survival_examples():
    assert Exponential().survival(0.0) == 1.0
    assert Weibull(2.0).survival(2.0) == pytest.approx(math.exp(-4), rel=1e-12)
    assert Pareto().survival(4.0) == pytest.approx(0.25, rel=1e-12)


def test_survival_below_left_endpoint_is_one():
    assert Exponential().survival(-3.0) == 1.0
    assert Pareto().survival(0.5) == 1.0


def test_inverse_survival_examples():
    assert Exponential().inverse_survival(math.exp(-3)) == pytest.approx(3.0, rel=1e-12)
    assert Pareto().inverse_survival(0.2) == pytest.approx(5.0, rel=1e-12)
    assert Weibull(2.0).inverse_survival(math.exp(-9)) == pytest.approx(3.0, rel=1e-12)
    for base in FAMILIES.values():
        assert base.inverse_survival(1.0) == base.x_L


def test_combine_examples():
    assert Exponential().combine(2.0, 3.0) == 5.0  # exact closed-form path
    assert Weibull(2.0).combine(3.0, 4.0) == pytest.approx(5.0, rel=1e-12)
    assert Pareto().combine(2.0, 3.0) == pytest.approx(6.0, rel=1e-12)


def test_difference_examples():
    assert Exponential().difference(5.0, 3.0) == 2.0
    assert Pareto().difference(6.0, 2.0) == pytest.approx(3.0, rel=1e-12)
    assert Weibull(2.0).difference(5.0, 4.0) == pytest.approx(3.0, rel=1e-12)


def test_hazard_examples():
    assert Exponential().hazard(7.0) == 1.0
    assert Weibull(2.0).hazard(3.0) == pytest.approx(6.0, rel=1e-12)
    assert Pareto().cumulative_hazard(math.e) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_round_trip_on_log_grid(name):
    base = FAMILIES[name]
    # float64 cannot carry the round trip where survival is within eps of 1
    # (R0 < ~1e-5) or underflows to 0 (R0 > ~745); restrict to the
    # representable band
    xs = base.x_L + np.geomspace(1e-6, 50.0, 60)
    r0 = np.asarray(base.cumulative_hazard(xs))
    xs = xs[(r0 > 1e-5) & (r0 < 600.0)]
    assert len(xs) >= 30
    for x in xs:
        s = base.survival(float(x))
        assert base.inverse_survival(s) == pytest.approx(float(x), rel=1e-10)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_semigroup_laws_randomized(name):
    base = FAMILIES[name]
    rng = np.random.default_rng(901)
    r = rng.uniform(1e-3, 5.0, size=(200, 3))
    for ra, rb, rc in r:
        a = float(base.inverse_cumulative_hazard(ra))
        b = float(base.inverse_cumulative_hazard(rb))
        c = float(base.inverse_cumulative_hazard(rc))
        left = base.combine(base.combine(a, b), c)
        right = base.combine(a, base.combine(b, c))
        assert left == pytest.approx(right, rel=1e-10)
        assert base.combine(a, b) == pytest.approx(base.combine(b, a), rel=1e-10)
        assert base.combine(a, base.x_L) == a
        assert base.difference(base.combine(a, b), b) == pytest.approx(a, rel=1e-10)
        assert base.difference(a, a) == base.x_L


def test_exponential_reduction_is_exact():
    e = Exponential()
    rng = np.random.default_rng(17)
    for x, t in rng.uniform(0.0, 40.0, size=(100, 2)):
        assert e.combine(float(x), float(t)) == float(x) + float(t)
        hi, lo = max(x, t), min(x, t)
        assert e.difference(float(hi), float(lo)) == float(hi) - float(lo)


def test_density_matches_hazard_times_survival():
    for base in FAMILIES.values():
        for x in base.x_L + np.geomspace(0.05, 10.0, 9):
            x = float(x)
            expected = base.hazard(x) * base.survival(x)
            assert base.density(x) == pytest.approx(expected, rel=1e-12)
    assert Exponential().density(-1.0) == 0.0


def test_custom_hazard_matches_closed_form():
    # hazard 1 + 2x integrates to x + x^2 exactly
    custom = CustomHazard(lambda x: 1.0 + 2.0 * x)
    for x in (0.1, 0.7, 1.3, 4.0, 9.5):
        assert custom.cumulative_hazard(x) == pytest.approx(x + x * x, abs=1e-8)
        assert custom.inverse_cumulative_hazard(x + x * x) == pytest.approx(x, rel=1e-8)
    # combine in hazard space against the closed form
    for x, t in ((0.5, 1.5), (2.0, 3.0), (0.2, 4.0)):
        r = (x + x * x) + (t + t * t)
        expected = (-1.0 + math.sqrt(1.0 + 4.0 * r)) / 2.0
        assert custom.combine(x, t) == pytest.approx(expected, rel=1e-8)
        assert custom.difference(custom.combine(x, t), t) == pytest.approx(x, rel=1e-8)


def test_custom_quadrature_against_trapezoid_oracle():
    def hz(x):
        return 0.5 + math.sin(x) ** 2

    custom = CustomHazard(hz)
    for x in (0.5, 2.0, 6.0):
        oracle = trapezoid_cumulative_hazard(hz, 0.0, x)
        assert custom.cumulative_hazard(x) == pytest.approx(oracle, abs=1e-7)
        assert -math.log(custom.survival(x)) == pytest.approx(oracle, abs=1e-7)


def test_custom_table_replicates_exponential():
    custom = CustomHazard.from_table([0.0, 10.0], [1.0, 1.0])
    assert custom.combine(2.0, 3.0) == pytest.approx(5.0, abs=1e-8)
    assert custom.survival(2.0) == pytest.approx(math.exp(-2), rel=1e-8)


def test_domain_errors():
    e = Exponential()
    with pytest.raises(DomainError):
        e.survival(math.nan)
    with pytest.raises(DomainError):
        e.survival(math.inf)
    for bad in (0.0, -0.5, 1.0 + 1e-12):
        with pytest.raises(DomainError):
            e.inverse_survival(bad)
    with pytest.raises(DomainError):
        e.combine(-1.0, 2.0)
    with pytest.raises(DomainError):
        Pareto().combine(0.5, 2.0)
    with pytest.raises(DomainError):
        e.difference(1.0, 2.0)


def test_model_errors():
    with pytest.raises(ModelError):
        Weibull(-1.0)
    with pytest.raises(ModelError):
        Weibull(0.0)
    bad = CustomHazard(lambda x: -1.0)
    with pytest.raises(ModelError):
        bad.hazard(1.0)
    with pytest.raises(ModelError):
        CustomHazard.from_table([0.0, 1.0], [1.0, -0.5])
    with pytest.raises(ModelError):
        CustomHazard.from_table([0.0, 0.0], [1.0, 1.0])


def test_array_evaluation_matches_scalars():
    for base in (Exponential(), Weibull(2.0), Pareto()):
        xs = base.x_L + np.array([0.1, 0.5, 2.0])
        arr = base.survival(xs)
        assert isinstance(arr, np.ndarray)
        for x, v in zip(xs, arr):
            assert v == base.survival(float(x))


@pytest.mark.parametrize("base", [Exponential(), Weibull(0.5), Weibull(3.0), Pareto(),
                                  CustomHazard.from_table([0.0, 1.0, 4.0], [1.0, 2.0, 0.5])],
                         ids=["exponential", "weibull_half", "weibull_three", "pareto", "table"])
def test_semigroup_arrays_match_scalars(base):
    # the identity x_L is exact elementwise on arrays, as it is on scalars;
    # the round trip through R0 and its inverse is off by up to 4.4e-16
    pts = base.x_L + np.array([0.0, 0.3, 1.7, 2.5, 0.1 + 0.2])
    x, t = (a.ravel() for a in np.meshgrid(pts, pts, indexing="ij"))
    lo = np.full_like(pts, base.x_L)
    assert base.combine(pts, lo).tobytes() == pts.tobytes()
    assert base.combine(lo, pts).tobytes() == pts.tobytes()
    assert base.difference(pts, lo).tobytes() == pts.tobytes()
    assert base.difference(pts, pts).tobytes() == lo.tobytes()
    arr = base.combine(x, t)
    assert arr.tobytes() == np.array([base.combine(float(a), float(b))
                                      for a, b in zip(x, t)]).tobytes()
    keep = x >= t
    arr = base.difference(x[keep], t[keep])
    assert arr.tobytes() == np.array([base.difference(float(a), float(b))
                                      for a, b in zip(x[keep], t[keep])]).tobytes()


_REFS = {"float": 1.5, "int": 2, "float64": np.float64(1.5), "0-d array": np.array(1.5),
         "1-element array": np.array([1.5]), "list": [1.5, 2.0], "tuple": (1.5, 2.0)}
_SCALAR_REFS = ("float", "int", "float64", "0-d array")


@pytest.mark.parametrize("refs", [(k,) for k in _REFS] + [
    (), ("float", "int"), ("float", "0-d array", "float64"), ("float", "1-element array"),
    ("1-element array", "float"), ("int", "list"), ("tuple", "0-d array"),
    ("0-d array", "float64", "tuple")], ids=lambda refs: "+".join(refs) or "no refs")
def test_ret_gives_a_float_only_when_every_ref_is_scalar(refs):
    args = [_REFS[k] for k in refs]
    assert [_is_scalar(a) for a in args] == [k in _SCALAR_REFS for k in refs]
    scalar = all(k in _SCALAR_REFS for k in refs)
    values = (0.1 + 0.2, np.float64(0.3), np.array(0.7))
    for value in values if scalar else values + (np.array([0.7]),):
        got, want = _ret(value, *args), oracle_ret(value, *args)
        assert type(got) is type(want) is (float if scalar else np.ndarray)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert np.shape(got) == np.shape(want)


def test_custom_hazard_cache_is_thread_safe():
    import concurrent.futures

    custom = CustomHazard(lambda x: 1.0 + 0.1 * x)
    xs = np.linspace(0.01, 20.0, 400)
    expected = [x + 0.05 * x * x for x in xs]
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        futures = [pool.submit(custom.cumulative_hazard, float(x)) for x in xs]
        got = [f.result() for f in futures]
    for g, e in zip(got, expected):
        assert g == pytest.approx(e, abs=1e-8)


def test_custom_hazard_evaluation_is_pure():
    # values must not depend on what was queried before (cache layout)
    custom = CustomHazard(lambda x: 0.5 + x)
    first = custom.cumulative_hazard(7.123456)
    custom.cumulative_hazard(3.3)
    custom.inverse_cumulative_hazard(55.5)
    assert custom.cumulative_hazard(7.123456) == first
    inv = custom.inverse_cumulative_hazard(9.87)
    custom.cumulative_hazard(123.0)
    assert custom.inverse_cumulative_hazard(9.87) == inv


def test_quadrature_error_budget_overrun_raises():
    # 1 + sin(1e4 x) oscillates ~1600 times per rung of the knot ladder, too
    # often for 200 subdivisions: quad warns and its error estimate exceeds
    # both the absolute and the relative budget
    custom = CustomHazard(lambda x: 1.0 + math.sin(1e4 * x))
    with pytest.raises(NumericError) as excinfo:
        custom.cumulative_hazard(5.0)
    integral, abserr = excinfo.value.samples
    assert abserr > max(1e-10, 1.49e-8 * abs(integral))
    # the failed rung is not cached: the next query fails the same way
    with pytest.raises(NumericError):
        custom.cumulative_hazard(5.0)
    # a short interval resolves the oscillation within budget
    assert custom.cumulative_hazard(0.01) == pytest.approx(
        0.01 + (1.0 - math.cos(100.0)) / 1e4, abs=1e-10)


def test_callable_past_the_quadrature_range_is_a_numeric_error():
    # the ladder stops near 2**135; from there quad reports a NaN estimate at
    # 1e300 and steps to x = nan at 1e308: numeric failures (exit 4), neither a
    # value nor a fault of the hazard
    base = CustomHazard(lambda x: 1.0 + 0.2 * x)
    model = PHBivariateModel(base, 1.0, 0.5, 2.0)
    for x in (1e300, 1e308):
        for call in (lambda: base.cumulative_hazard(x),
                     lambda: base.cumulative_hazard(np.array([1.0, x])),
                     lambda: model.log_survival(x, 1.0),
                     lambda: model.log_survival(np.array([x, 2.0]), np.array([1.0, 1.0]))):
            with pytest.raises(NumericError):
                call()
    assert base.cumulative_hazard(1e6) == pytest.approx(1e6 + 1e11, rel=1e-12)


@pytest.mark.parametrize("cls", [CustomHazard, FromHazard])
def test_callable_hazard_at_nan_is_a_domain_error(cls):
    # the caller's NaN, as for a table; only quad's own steps to NaN are numeric
    handle = cls(lambda x: 1.0 + 0.2 * x)
    for x in (math.nan, np.array([1.0, math.nan])):
        with pytest.raises(DomainError):
            handle.hazard(x)
    assert handle.hazard(2.0) == pytest.approx(1.4, rel=1e-15)


@pytest.mark.parametrize("x_L", [0.0, 1.0, -2.5])
@pytest.mark.parametrize("cls", [CustomHazard, FromHazard])
def test_callable_hazard_slope_is_nan_at_the_left_endpoint(cls, x_L):
    # the difference quotient's step is capped at half the distance above
    # x_L: it vanishes there (0/0), and no point below x_L is evaluated
    def hazard(x):
        if x < x_L:
            raise AssertionError(f"hazard evaluated below x_L at {x!r}")
        return 0.5 * (x - x_L)

    model = cls(hazard, x_L)
    assert math.isnan(model.hazard_derivative(x_L))
    assert np.isnan(model.hazard_derivative(np.array([x_L, x_L]))).all()
    above = [float(np.nextafter(x_L, math.inf)), x_L + 1e-9, x_L + 0.25, x_L + 3.0]
    slopes = model.hazard_derivative(np.array(above))
    np.testing.assert_array_equal(slopes, [model.hazard_derivative(x) for x in above])
    if x_L == 0.0:  # half of the least subnormal rounds to 0: the step vanishes
        assert math.isnan(slopes[0])
        slopes = slopes[1:]
    assert slopes == pytest.approx(0.5, rel=1e-9)


@pytest.mark.parametrize("cls", [CustomHazard, FromHazard])
def test_callable_hazard_slope_at_infinity_is_a_domain_error(cls):
    # the caller's inf is named, not the step's inf - inf; a NaN keeps the
    # hazard's own message, and a table refuses both as well
    model = cls(lambda x: 1.0 + 0.2 * x)
    for x in (math.inf, -math.inf):
        with pytest.raises(DomainError, match=f"x must be finite, got {x}"):
            model.hazard_derivative(x)
    with pytest.raises(DomainError, match="x must not be NaN, got nan"):
        model.hazard_derivative(math.nan)
    kernel = WedgeKernel(FromHazard(lambda x: 1.0 + 0.2 * x), Exponential())
    with pytest.raises(DomainError, match="x must be finite, got inf"):
        kernel.slopes(np.array([1.0, np.inf]))


@pytest.mark.parametrize("x, x_L", [(1.0 - 2.0**-53, -2.0**-54), (2.0**-4 - 2.0**-57, -2.0**-58)],
                         ids=["rung-4", "rung-0"])
def test_callable_ladder_never_starts_above_the_point(x, x_L):
    # x - x_L rounds up onto a rung, and x_L + that rung's step rounds above x:
    # the integral starts one rung lower, at x_L below rung 0
    base = CustomHazard(lambda u: 1.0 + u, x_L=x_L)
    step = x - x_L
    assert step in (1.0, 2.0**-4) and x_L + step > x
    exact = (x - x_L) * (1.0 + 0.5 * (x + x_L))
    assert base.cumulative_hazard(x) == pytest.approx(exact, rel=1e-14)


# -- the left-endpoint contract that array survival relies on -------------------

#: closed forms, tables whose x_L lies left of, at and inside their rows, and a
#: callable
_CONTRACT_BASELINES = {
    **FAMILIES,
    "table-left": CustomHazard.from_table([0.0, 1.0, 3.0], [1.0, 2.0, 0.5], x_L=-1.5),
    "table-at": CustomHazard.from_table([0.5, 1.0, 3.0], [1.0, 2.0, 0.5]),
    "table-inside": CustomHazard.from_table([0.0, 1.0, 3.0], [1.0, 2.0, 0.5], x_L=1.5),
    "callable": CustomHazard(lambda x: 1.0 + 0.2 * x),
}


@pytest.mark.parametrize("name", _CONTRACT_BASELINES)
def test_cumulative_hazard_is_exactly_zero_at_and_below_the_left_endpoint(name):
    base = _CONTRACT_BASELINES[name]
    xl = base.x_L
    points = [xl, float(np.nextafter(xl, -math.inf)), xl - 0.5, xl - 1e6, -1e300]
    points += [v for v in (0.0, -0.0) if v <= xl]
    values = [base.cumulative_hazard(x) for x in points]
    values += base.cumulative_hazard(np.array(points)).tolist()
    assert all(v == 0.0 and not math.copysign(1.0, v) < 0 for v in values), values


def _contract_kernels():
    """PH kernels over every contract baseline; LFR, table, callable and PH
    marginals over other baselines."""
    table = FromHazard.from_table([0.0, 2.0, 5.0, 10.0], [1.5, 1.2, 1.05, 1.0])
    e = FAMILIES["exponential"]
    kernels = {f"ph-{name}": WedgeKernel(ProportionalHazard(base, 1.5), base)
               for name, base in _CONTRACT_BASELINES.items()}
    for name in ("exponential", "weibull_half", "weibull_two", "callable"):
        base = _CONTRACT_BASELINES[name]
        kernels[f"lfr-{name}"] = WedgeKernel(LinearFailureRate(0.3), base)
        kernels[f"table-{name}"] = WedgeKernel(table, base)
        kernels[f"ph-exponential-over-{name}"] = WedgeKernel(ProportionalHazard(e, 2.0), base)
    kernels["callable-exponential"] = WedgeKernel(
        FromHazard(lambda x: 1.0 + 0.5 * math.exp(-x)), e)
    return kernels


_CONTRACT_KERNELS = _contract_kernels()


@pytest.mark.parametrize("name", _CONTRACT_KERNELS)
def test_every_wedge_kernel_reads_exactly_zero_at_zero(name):
    kernel = _CONTRACT_KERNELS[name]
    values = [float(kernel.q(0.0))] + kernel.q(np.zeros(3)).tolist()
    assert all(v == 0.0 and not math.copysign(1.0, v) < 0 for v in values), values


#: maps that answer a Python float in float arithmetic
_FLOAT_MAP_MODELS = {
    "exponential": Exponential(),
    "lfr": LinearFailureRate(0.3),
    "ph-exponential": ProportionalHazard(Exponential(), 2.5),
    "ph-table": ProportionalHazard(CustomHazard.from_table([0.0, 1.0, 3.0], [0.0, 2.0, 0.5]), 1.5),
}


@pytest.mark.parametrize("name", sorted(_FLOAT_MAP_MODELS))
def test_float_maps_are_the_array_element_bit_for_bit(name):
    # -0.0 maps as np.maximum maps it (to 0.0, where max(-0.0, 0.0) is
    # -0.0), NaN stays NaN, and overflow reads inf without an error
    model = _FLOAT_MAP_MODELS[name]
    maps = ["cumulative_hazard", "hazard", "hazard_derivative"]
    if hasattr(model, "inverse_cumulative_hazard"):
        maps.append("inverse_cumulative_hazard")
    xs = [-0.0, 0.0, -1.0, 5e-324, 0.7, 1.0, 3.0, 1e154, 1e308, 1.7e308, -math.inf, math.inf,
          math.nan]
    for name in maps:
        fn = getattr(model, name)
        for x in xs:
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    want = np.asarray(fn(np.array([x])), dtype=float)[0]
            except DomainError:
                with pytest.raises(DomainError):
                    fn(x)
                continue
            got = fn(x)
            assert type(got) is float, (name, x)
            assert np.float64(got).tobytes() == want.tobytes(), (name, x, got, want)
