"""Hazard tables: exact piecewise-quadratic maps against independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bisurv import (
    CustomHazard,
    DomainError,
    Exponential,
    FromHazard,
    GeneralBivariateModel,
    NumericError,
    ProportionalHazard,
)
from bisurv.baseline import PiecewiseLinearHazard
from oracles import LinearHazardTable, exponential_wedge_ac_density

# several kinks, a zero-hazard row inside, a zero first row and a last row
# that is not the largest, so both flat tails and a plateau are exercised
KINK_X = [0.5, 1.0, 1.2, 2.0, 2.5, 3.0, 4.5, 6.0]
KINK_H = [0.0, 2.0, 0.5, 0.0, 0.0, 3.0, 1.0, 1.5]

#: x_L left of the table, at its first row and inside it
X_L_CASES = {"left": -1.0, "first-row": 0.5, "inside": 1.7}


def _cases():
    for where, x_L in X_L_CASES.items():
        for cls in (CustomHazard, FromHazard):
            yield pytest.param(cls, x_L, id=f"{cls.__name__}-{where}")


def _relative(got, want):
    return abs(got - want) / max(abs(want), 1e-300) if got != want else 0.0


@pytest.mark.parametrize("cls, x_L", list(_cases()))
def test_multi_kink_cumulative_matches_exact_oracle(cls, x_L):
    oracle = LinearHazardTable(KINK_X, KINK_H)
    model = cls.from_table(KINK_X, KINK_H, x_L=x_L)
    assert model.x_L == x_L
    pts = np.concatenate([np.linspace(x_L - 0.5, 9.0, 401), KINK_X])
    got = model.cumulative_hazard(pts)
    assert isinstance(got, np.ndarray) and got.shape == pts.shape
    for x, g in zip(pts, got):
        want = oracle.integral(x_L, float(x))
        assert _relative(g, want) <= 1e-12, (x, g, want)
        assert model.cumulative_hazard(float(x)) == g
    # the hazard is the table itself, also outside [x_L, last row]
    for x in (-2.0, 0.7, 2.2, 7.0):
        assert model.hazard(x) == pytest.approx(oracle.h(x), rel=1e-15)


@pytest.mark.parametrize("x_L", list(X_L_CASES.values()), ids=list(X_L_CASES))
def test_multi_kink_inverse_round_trip(x_L):
    oracle = LinearHazardTable(KINK_X, KINK_H)
    base = CustomHazard.from_table(KINK_X, KINK_H, x_L=x_L)
    total = oracle.integral(x_L, 9.0)
    rs = np.concatenate([np.linspace(0.0, total, 301),
                         [oracle.integral(x_L, v) for v in KINK_X if v > x_L]])
    xs = base.inverse_cumulative_hazard(rs)
    for r, x in zip(rs, xs):
        assert x >= x_L
        assert _relative(oracle.integral(x_L, float(x)), r) <= 1e-12, (r, x)
        assert base.inverse_cumulative_hazard(float(r)) == x
    # on the zero-hazard plateau [2.0, 2.5] the inverse is its left end; the
    # hazard falls linearly to 0 there, so x - 2 ~ sqrt(rounding of r)
    plateau = oracle.integral(x_L, 2.2)
    assert base.inverse_cumulative_hazard(plateau) == pytest.approx(2.0, abs=1e-7)
    # where the hazard is positive the round trip returns the point
    for x in (1.1, 1.9, 2.9, 3.7, 5.0, 8.0):
        if x > x_L:
            r = base.cumulative_hazard(x)
            assert base.inverse_cumulative_hazard(r) == pytest.approx(x, rel=1e-12)


def test_inverse_at_or_below_zero_is_left_endpoint():
    base = CustomHazard.from_table(KINK_X, KINK_H, x_L=-1.0)
    assert base.inverse_cumulative_hazard(0.0) == -1.0
    assert base.inverse_cumulative_hazard(-3.0) == -1.0
    assert np.all(base.inverse_cumulative_hazard(np.array([-1.0, 0.0])) == -1.0)


def test_non_finite_input_is_domain_error():
    base = CustomHazard.from_table(KINK_X, KINK_H)
    marg = FromHazard.from_table(KINK_X, KINK_H)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            base.cumulative_hazard(bad)
        with pytest.raises(DomainError):
            marg.cumulative_hazard(np.array([1.0, bad]))
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            base.inverse_cumulative_hazard(bad)
    with pytest.raises(DomainError):
        base.hazard(math.nan)


def test_bounded_total_hazard_inverse_raises():
    # last row 0: the total hazard is 1.5 and nothing maps beyond it
    base = CustomHazard.from_table([0.0, 1.0, 2.0], [1.0, 1.0, 0.0])
    assert base.inverse_cumulative_hazard(1.5) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(NumericError):
        base.inverse_cumulative_hazard(1.5 + 1e-9)


def test_sine_table_is_exact_where_quadrature_drifted():
    # 1 + 0.5x + 0.3 sin 5x on 200 rows: adaptive quad over np.interp was
    # off by up to 1e-4 here despite its stated 1e-10 absolute tolerance
    xs = np.linspace(0.0, 10.0, 200)
    hs = 1.0 + 0.5 * xs + 0.3 * np.sin(5.0 * xs)
    oracle = LinearHazardTable(xs, hs)
    base = CustomHazard.from_table(xs, hs)
    pts = np.concatenate([[3.57], np.linspace(3.5, 3.65, 151), np.linspace(0.05, 9.95, 100)])
    got = base.cumulative_hazard(pts)
    for x, g in zip(pts, got):
        assert _relative(g, oracle.integral(0.0, float(x))) <= 1e-12, x
    back = base.inverse_cumulative_hazard(got)
    np.testing.assert_allclose(back, pts, rtol=1e-13)


def test_general_table_density_matches_wedge_closed_form():
    # exponential baseline, marginal 1 the 200-row table 1 + 0.5 e^{-x},
    # marginal 2 ph:2, theta = 3: a valid model with alpha = 5/6
    xs = np.linspace(0.0, 10.0, 200)
    table = LinearHazardTable(xs, 1.0 + 0.5 * np.exp(-xs))
    base = Exponential()
    model = GeneralBivariateModel(base, FromHazard.from_table(xs, table.hs, x_L=0.0),
                                  ProportionalHazard(base, 2.0), 3.0)
    wedges = (lambda s: (table.integral(0.0, s), table.h(s), table.slope(s)),
              lambda s: (2.0 * s, 2.0, 0.0))
    rng = np.random.default_rng(2022)
    n = 1500
    w = 0.05 + 2.95 * rng.random(n)
    s = 0.05 + 3.95 * rng.random(n)
    flip = rng.random(n) < 0.5
    x1 = np.where(flip, w + s, w)
    x2 = np.where(flip, w, w + s)
    got = [model.ac_density(float(a), float(b)) for a, b in zip(x1, x2)]
    worst = max(_relative(g, exponential_wedge_ac_density(float(a), float(b), 3.0, wedges))
                for a, b, g in zip(x1, x2, got))
    # Q'' is the table's own slope, so the density is exact to rounding also
    # next to a knot, where a mixed difference averages two slopes (off by
    # up to 4.2e-3 on these points)
    assert worst <= 1e-12
    np.testing.assert_array_equal(model.ac_density(x1, x2), got)


# -- property tests ------------------------------------------------------------

_increments = st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=12)
_hazard_row = st.one_of(st.just(0.0), st.floats(1e-3, 50.0))


@st.composite
def tables(draw):
    steps = draw(_increments)
    start = draw(st.floats(-20.0, 20.0))
    xs = start + np.concatenate([[0.0], np.cumsum(steps)])
    hs = draw(st.lists(_hazard_row, min_size=len(xs) - 1, max_size=len(xs) - 1))
    hs = np.append(hs, draw(st.floats(1e-3, 50.0)))  # positive last row
    # x_L left of, at, or inside the table
    x_L = float(xs[0]) + draw(st.floats(-5.0, 0.9)) * float(xs[-1] - xs[0])
    return xs, hs, x_L


def _assert_monotone(values):
    """Non-decreasing up to rounding: no step down exceeds 4 ulps."""
    steps = np.diff(values)
    assert np.all(steps >= -4.0 * np.spacing(np.abs(values[1:]))), values


@settings(max_examples=200, deadline=None)
@given(tables(), st.lists(st.floats(0.0, 1.0), min_size=2, max_size=40))
def test_table_maps_are_monotone_inverses(table, fractions):
    xs, hs, x_L = table
    maps = PiecewiseLinearHazard(xs, hs, x_L)
    top = float(xs[-1]) + 5.0
    # random points plus every knot and its left neighbour, where rounding
    # in two segments' formulas meets
    pts = np.concatenate([x_L + (top - x_L) * np.asarray(fractions),
                          xs, np.nextafter(xs, -np.inf)])
    pts = np.sort(pts[pts >= x_L])
    rs = maps.cumulative(pts)
    assert rs[0] >= 0.0
    _assert_monotone(rs)
    back = maps.inverse(np.sort(rs))
    _assert_monotone(back)
    # exactly at the knots, where two segments' formulas meet: R does not
    # step down into a knot, and the level a knot reaches is first reached
    # no later than the knot (the inverse is left-continuous)
    knots = xs[xs > x_L]
    assert np.all(maps.cumulative(np.nextafter(knots, -np.inf)) <= maps.cumulative(knots))
    assert np.all(maps.inverse(maps.cumulative(knots)) <= knots)
    # R(R^{-1}(r)) = r everywhere, plateaus included
    np.testing.assert_allclose(maps.cumulative(back), rs, rtol=1e-11, atol=1e-12)
    # R^{-1}(R(x)) = x wherever the hazard keeps the inverse well conditioned
    firm = maps.hazard(pts) >= 1e-2
    np.testing.assert_allclose(back[firm], pts[firm], rtol=1e-9, atol=1e-9)
