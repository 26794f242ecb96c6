import contextlib
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bisurv import (
    CustomHazard,
    DomainError,
    Exponential,
    FromHazard,
    GeneralBivariateModel,
    InvalidModelError,
    LinearFailureRate,
    MarginalModel,
    ModelError,
    NumericError,
    Pareto,
    ProportionalHazard,
    Weibull,
    limit_hazard_ratio,
)
from bisurv.baseline import HazardIntegrator
from bisurv.marginals import WedgeKernel, _sequence_limit
from oracles import sequence_limit, trapezoid_cumulative_hazard

BASELINES = [Exponential(), Weibull(0.5), Weibull(2.0), Pareto()]


def test_lfr_examples():
    lfr = LinearFailureRate(1.5)
    assert lfr.survival(2.0) == pytest.approx(math.exp(-8.0), rel=1e-12)
    assert lfr.hazard(2.0) == 7.0


def test_ph_example():
    ph = ProportionalHazard(Exponential(), 2.0)
    assert ph.survival(3.0) == pytest.approx(math.exp(-6.0), rel=1e-12)


@pytest.mark.parametrize("base", BASELINES, ids=lambda b: b.spec_string())
def test_ph_hazard_is_delta_times_baseline(base):
    ph = ProportionalHazard(base, 1.7)
    for x in base.x_L + np.geomspace(0.01, 20.0, 12):
        x = float(x)
        assert ph.hazard(x) == pytest.approx(1.7 * base.hazard(x), rel=1e-12)
        assert ph.survival(x) == pytest.approx(base.survival(x) ** 1.7, rel=1e-12)


def test_density_consistency():
    lfr = LinearFailureRate(0.8)
    for x in np.linspace(0.05, 4.0, 9):
        x = float(x)
        assert lfr.density(x) == pytest.approx(lfr.hazard(x) * lfr.survival(x),
                                               rel=1e-10)
    fh = FromHazard(lambda u: 1.0 + 0.3 * u)
    for x in (0.2, 1.0, 3.0):
        assert fh.density(x) == pytest.approx(fh.hazard(x) * fh.survival(x), rel=1e-8)


def test_from_hazard_survival_matches_quadrature_oracle():
    def hz(u):
        return 0.7 + u / (1.0 + u)

    fh = FromHazard(hz)
    for x in (0.3, 1.5, 5.0):
        oracle = math.exp(-trapezoid_cumulative_hazard(hz, 0.0, x))
        assert fh.survival(x) == pytest.approx(oracle, abs=1e-8)


@pytest.mark.parametrize("base", BASELINES, ids=lambda b: b.spec_string())
@pytest.mark.parametrize("delta", [0.4, 1.0, 2.0])
def test_limit_ratio_recovers_ph_exponent(base, delta):
    ph = ProportionalHazard(base, delta)
    assert limit_hazard_ratio(ph, base) == pytest.approx(delta, abs=1e-6)


def test_limit_ratio_lfr_over_exponential_is_one():
    assert limit_hazard_ratio(LinearFailureRate(1.5), Exponential()) == \
        pytest.approx(1.0, abs=1e-6)


def test_limit_ratio_lfr_over_weibull_diverges():
    assert math.isinf(limit_hazard_ratio(LinearFailureRate(1.5), Weibull(2.0)))


def test_limit_ratio_is_never_negative():
    # over Weibull(0.5), r0 is infinite at 0, so u = 0 exactly; the
    # extrapolation read -1.6e-21 on the bench's marginal table (1 + 0.5 e^-x)
    # and -8.9e-22 on the short one
    x = np.linspace(0.0, 10.0, 200)
    tables = [FromHazard.from_table(x, 1.0 + 0.5 * np.exp(-x), x_L=0),
              FromHazard.from_table([0, 1, 2], [0.7, 0.8, 1.0], x_L=0)]
    for table in tables:
        u = limit_hazard_ratio(table, Weibull(0.5))
        assert u == 0.0 and math.copysign(1.0, u) == 1.0


def test_limit_ratio_oscillation_raises_with_samples():
    base = Exponential()
    osc = FromHazard(lambda u: 1.0 + 0.5 * math.sin(12.0 * math.log(max(u, 1e-300))))
    with pytest.raises(NumericError) as excinfo:
        limit_hazard_ratio(osc, base)
    assert excinfo.value.samples is not None
    assert len(excinfo.value.samples) >= 4


_FLOATS = st.floats(-1e3, 1e3, allow_nan=False)


@st.composite
def _sample_row(draw, n):
    """``n`` step-halved samples: geometric (one or two terms), oscillating,
    divergent or constant, optionally with one NaN or infinite sample."""
    k = np.arange(n)
    c, d = draw(_FLOATS), draw(_FLOATS)
    kind = draw(st.sampled_from(["geometric", "oscillating", "divergent", "constant"]))
    if kind == "geometric":  # one or two geometric error terms
        row = (c + d * draw(st.floats(-0.95, 0.95)) ** k
               + draw(_FLOATS) * draw(st.sampled_from([0.0, 0.1, 0.3, -0.6])) ** k)
    elif kind == "oscillating":  # a sine, or noise around c
        if draw(st.booleans()):
            row = c + d * np.sin(draw(st.floats(0.5, 3.0)) * k)
        else:
            row = c + np.array(draw(st.lists(_FLOATS, min_size=n, max_size=n)))
    elif kind == "divergent":
        row = c + d * draw(st.floats(1.0, 4.0)) ** k + draw(st.floats(0.0, 3.0)) * k**2
    else:
        row = np.full(n, c) + np.where(k == draw(st.integers(0, n - 1)),
                                       draw(st.sampled_from([0.0, 1e-14, -1e-12])) * c, 0.0)
    if draw(st.booleans()):
        row[draw(st.integers(0, n - 1))] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return row


#: a row on which ``x ** 2`` of a numpy scalar and ``x * x`` differ
_POW_ROW = [-232.32700255851682, -23.284751327273423, -2.32217304208237, -0.2329803307014988,
            -0.02320564953233393, -0.0023317503028048177, -0.00023182076253979169,
            -2.3346044407299947e-05, -2.3147519739720355e-06, -2.338788375455734e-07]


@st.composite
def _sample_rows(draw):
    n = draw(st.sampled_from([8, 10]))
    return np.array(draw(st.lists(_sample_row(n), min_size=1, max_size=6)))


@settings(max_examples=400, deadline=None)
@given(rows=_sample_rows())
# settled by the second Aitken pass only; erratic; constant; one NaN sample
@example(rows=np.array([
    [533.0604043185955, 543.6684959410964, 591.5350016439475, 603.7084680474259,
     607.4674972628719, 608.5899708177936, 608.9269690540195, 609.0280559899662],
    [1.3, 0.9, 1.7, 1.2, 0.5, 1.4, 1.1, 0.4],
    [2.0] * 8,
    [1.0, 0.5, math.nan, 0.125, 0.0625, 0.03125, 0.015625, 0.0078125]]))
# the first Aitken pass squares a difference that libm's pow rounds one ulp
# off, at d1[6]; the oracle squares it as the product, as the library does
@example(rows=np.array([_POW_ROW]))
def test_row_limits_match_the_scalar_limit_bit_for_bit(rows):
    for row in rows:
        value = _sequence_limit(row)
        try:
            want = sequence_limit(row)
        except NumericError:
            assert math.isnan(value), row
            continue
        assert np.float64(value).tobytes() == np.float64(want).tobytes(), row


#: ``(delta, theta)`` of PH kernels: inside (B); the border ``delta = theta``,
#: where the density factor is exactly 0; ``delta`` just past it, where the
#: factor is rounding-sized noise and clamps to 0; and ``delta > theta``, where it is < 0
_PH_PAIRS = [(1.0, 3.0), (2.0, 3.0), (0.3, 0.7), (3.0, 3.0), (1.7, 1.7),
             (1.0 + 2.0**-40, 1.0), (4.0, 3.0), (2.5, 1.0)]


@settings(max_examples=300, deadline=None)
@given(base=st.sampled_from(BASELINES), pair=st.sampled_from(_PH_PAIRS),
       s=st.floats(0.0, 50.0))
@example(base=Exponential(), pair=(3.0, 3.0), s=0.0)
def test_ph_kernel_answers_a_float_with_the_array_bits(base, pair, s):
    delta, theta = pair
    kernel = WedgeKernel(ProportionalHazard(base, delta), base)
    assert kernel.delta == delta
    arr = np.array([s])
    views = [(kernel.q(s), kernel.q(arr)), (kernel.q_prime(s), kernel.q_prime(arr)),
             *zip(kernel.slopes(s), kernel.slopes(arr)),
             *zip(kernel.q_slopes(s), kernel.q_slopes(arr)),
             (kernel.density(s, theta), kernel.density(arr, theta)),
             (kernel.density(s, np.float64(theta)), kernel.density(arr, theta))]
    for got, want in views:
        assert type(got) is float
        assert np.float64(got).tobytes() == want.tobytes()
    if abs(delta - theta) < 1e-9:
        assert kernel.density(s, theta) == 0.0


def _refuse(*args, **kwargs):
    raise AssertionError("a PH kernel read a baseline map")


_TABLE_BASELINE = CustomHazard.from_table([0.0, 1.0, 2.5], [1.0, 1.6, 1.1])


@settings(max_examples=150, deadline=None)
@given(base=st.sampled_from([*BASELINES, _TABLE_BASELINE]), delta=st.floats(0.1, 5.0),
       s=st.floats(0.0, 50.0))
def test_ph_kernel_reads_no_baseline_map(base, delta, s):
    # Q = delta s, Q' = u = delta and Q'' = 0 come from delta alone, for a
    # float and an array s, on every view
    kernel = WedgeKernel(ProportionalHazard(base, delta), base)
    theta = delta + 1.0
    maps = ("inverse_cumulative_hazard", "hazard", "hazard_derivative")
    with contextlib.ExitStack() as stack:
        for name in maps:
            stack.enter_context(mock.patch.object(type(base), name, _refuse))
        for arg in (s, np.array([s, 2.0 * s])):
            q1, q2 = kernel.slopes(arg)
            q, q1_, q2_ = kernel.q_slopes(arg)
            assert np.all(q1 == delta) and np.all(q2 == 0.0)
            assert np.all(q1_ == delta) and np.all(q2_ == 0.0)
            assert np.all(q == delta * np.asarray(arg))
            assert np.all(kernel.q(arg) == delta * np.asarray(arg))
            assert np.all(kernel.q_prime(arg) == delta)
            kernel.tail(arg, theta)
            kernel.density(arg, theta)
        assert kernel.u == delta
        assert kernel.tail_table(theta)[1][0] == theta - delta


class _UserLFR(MarginalModel):
    """A user's marginal that defines the three LFR maps and nothing else."""

    x_L = 0.0
    cumulative_hazard = LinearFailureRate.cumulative_hazard
    hazard = LinearFailureRate.hazard
    hazard_derivative = LinearFailureRate.hazard_derivative

    def __init__(self, a):
        self.a = a


@pytest.mark.parametrize("base", [Exponential(), Weibull(2.0)], ids=["exponential", "weibull2"])
def test_a_marginal_of_three_maps_takes_the_kernel_of_lfr(base):
    # the default hazard_terms composes the maps: the kernel needs nothing
    # else from a model, and gives LFR's own bytes on floats and arrays
    user, lfr = WedgeKernel(_UserLFR(0.3), base), WedgeKernel(LinearFailureRate(0.3), base)
    s = np.concatenate([[0.0, 5e-324], np.linspace(1e-3, 20.0, 97)])
    for arg in (s, *s.tolist()):
        for view in ("q", "q_slopes", "tail"):
            got, want = ((getattr(k, view)(arg, 2.5) if view == "tail" else getattr(k, view)(arg))
                         for k in (user, lfr))
            got, want = (v if isinstance(v, tuple) else (v,) for v in (got, want))
            assert [type(v) for v in got] == [type(v) for v in want], (view, arg)
            assert [np.asarray(v).tobytes() for v in got] == \
                [np.asarray(v).tobytes() for v in want], (view, arg)


def test_a_kernel_over_weibull_one_reads_its_origin_without_a_warning():
    # Weibull(1) is the exponential: its hazard slope is 0 even at x = 0,
    # where x**-1 is inf, so its kernel is the exponential's bit for bit,
    # s = 0 included, on floats and arrays
    lfr = LinearFailureRate(0.3)
    weibull, exp = WedgeKernel(lfr, Weibull(1.0)), WedgeKernel(lfr, Exponential())
    assert weibull.q_slopes(0.0) == (0.0, 1.0, 0.6)
    s = np.concatenate([[0.0, 5e-324], np.linspace(1e-3, 20.0, 97), [1e300]])
    for arg in (s, *s.tolist()):
        for view in ("q", "q_prime", "q_slopes", "tail", "density"):
            got, want = ((getattr(k, view)(arg, 2.5) if view in ("tail", "density")
                          else getattr(k, view)(arg)) for k in (weibull, exp))
            got, want = (v if isinstance(v, tuple) else (v,) for v in (got, want))
            assert [type(v) for v in got] == [type(v) for v in want], (view, arg)
            assert [np.asarray(v).tobytes() for v in got] == \
                [np.asarray(v).tobytes() for v in want], (view, arg)


def test_weibull_hazard_slope_is_zero_only_for_a_zero_coefficient():
    x = np.array([0.0, 5e-324, 1e-3, 0.5, 1.0, 7.0, 1e300, math.inf, math.nan])
    for arg in (x, *x.tolist()):
        got, want = Weibull(1.0).hazard_derivative(arg), Exponential().hazard_derivative(arg)
        assert type(got) is type(want) and np.asarray(got).tobytes() == np.asarray(want).tobytes()
    # every other shape keeps a (a - 1) x^(a - 2), bit for bit
    with np.errstate(divide="ignore", over="ignore"):
        for a in (0.5, 1.5, 2.0, 3.7):
            assert Weibull(a).hazard_derivative(x).tobytes() == \
                (a * (a - 1.0) * np.power(x, a - 2.0)).tobytes()


def _invalid(density, x1, x2):
    with pytest.raises(InvalidModelError) as info:
        density(x1, x2)
    return str(info.value), info.value.witness, info.value.value


@settings(max_examples=100, deadline=None)
@given(w=st.floats(0.0, 6.0), s=st.floats(1e-6, 50.0))
def test_negative_ph_density_raises_the_array_error_at_a_float(w, s):
    # delta1 = 4 > theta = 3: the wedge density of marginal 1 is negative
    e = Exponential()
    model = GeneralBivariateModel(e, ProportionalHazard(e, 4.0), ProportionalHazard(e, 1.0), 3.0)
    x1, x2 = w + s, w
    got = _invalid(model.ac_density, x1, x2)
    assert got == _invalid(model.ac_density, np.array([x1]), np.array([x2]))
    assert got[2] < 0.0 and got[1] == (x1, x2)


def _lfr_over_a_callable():
    return WedgeKernel(LinearFailureRate(0.3), CustomHazard(lambda x: 1.0 + 0.2 * x))


def test_callable_baseline_second_slope_matches_its_closed_form():
    # R0 = x + 0.1 x^2 and R_m = x + 0.3 x^2: Q'' = (0.6 r0 - 0.2 r_m) / r0^3
    # at d = R0^{-1}(s), with the callable's r0' a difference quotient
    s = np.geomspace(1e-3, 40.0, 300)
    d = 2.0 * s / (1.0 + np.sqrt(1.0 + 0.4 * s))
    r0, rm = 1.0 + 0.2 * d, 1.0 + 0.6 * d
    want = (0.6 * r0 - 0.2 * rm) / r0**3
    np.testing.assert_allclose(_lfr_over_a_callable().slopes(s)[1], want, rtol=5e-10, atol=0.0)


def test_callable_baseline_slopes_invert_each_point_once():
    kernel = _lfr_over_a_callable()
    s = np.linspace(0.5, 20.0, 7)
    with mock.patch.object(HazardIntegrator, "_inverse_at", autospec=True,
                           side_effect=HazardIntegrator._inverse_at) as inverse:
        kernel.q_slopes(s)
    assert inverse.call_count == s.size


def test_left_endpoint_mismatch_rejected():
    with pytest.raises(DomainError):
        limit_hazard_ratio(LinearFailureRate(1.0), Pareto())


def test_from_hazard_negative_value_is_model_error():
    fh = FromHazard(lambda u: math.cos(u))  # negative past pi/2
    with pytest.raises(ModelError):
        fh.cumulative_hazard(3.0)


def test_from_table_warns_when_density_does_not_decay():
    with pytest.warns(RuntimeWarning):
        FromHazard.from_table([0.0, 1.0, 2.0, 3.0], [0.01, 0.02, 0.05, 0.2])
    # the density is 0 at x <= x_L; rows there do not count as a rise
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x_L in (None, 0.0, 1.0, 2.0):
            FromHazard.from_table([0.0, 1.0, 2.0, 4.0], [0.5, 1.0, 1.5, 2.0], x_L=x_L)
        FromHazard.from_table([0, 1, 2], [0.7, 0.8, 1.0])


def test_parameter_validation():
    with pytest.raises(ModelError):
        LinearFailureRate(0.0)
    with pytest.raises(ModelError):
        ProportionalHazard(Exponential(), -2.0)
