import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bisurv import (
    DomainError,
    Exponential,
    FromHazard,
    LinearFailureRate,
    ModelError,
    NumericError,
    Pareto,
    ProportionalHazard,
    Weibull,
    limit_hazard_ratio,
)
from bisurv.marginals import _row_limits
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
def test_row_limits_match_the_scalar_limit_bit_for_bit(rows):
    got = _row_limits(rows)
    assert got.shape == (len(rows),)
    for row, value in zip(rows, got):
        try:
            want = sequence_limit(row)
        except NumericError:
            assert math.isnan(value), row
            continue
        assert np.float64(value).tobytes() == np.float64(want).tobytes(), row


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


def test_parameter_validation():
    with pytest.raises(ModelError):
        LinearFailureRate(0.0)
    with pytest.raises(ModelError):
        ProportionalHazard(Exponential(), -2.0)
