"""Hazard tables: exact piecewise-quadratic maps against independent oracles."""

import math
import warnings
from unittest import mock

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
    LinearFailureRate,
    NumericError,
    Pareto,
    ProportionalHazard,
    Weibull,
)
from bisurv.baseline import PiecewiseLinearHazard
from bisurv.marginals import WedgeKernel
from oracles import (
    HazardMaps,
    LinearHazardTable,
    composed_q,
    composed_q_slopes,
    composed_slopes,
    exact_wedge,
    exponential_wedge_ac_density,
)

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


def test_inverse_stays_finite_near_the_float_range():
    # past the last row the hazard is 3, so R^{-1}(r) = 2 + (r - 4)/3; the
    # step 2 dr would pass the float range at r = 1e308, the step itself not
    table = PiecewiseLinearHazard([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
    for r in (1e308, 1.7e308):
        x = table.inverse(r)
        assert x == pytest.approx(2.0 + (r - 4.0) / 3.0, rel=1e-15)
        assert table.inverse(np.array([r, 0.5])).tolist() == [x, table.inverse(0.5)]


def test_inverse_of_a_tiny_target_above_a_zero_row():
    # R = a x^2 / 2 on [0, 1] with a = 0.01, so R^{-1}(r) = sqrt(2 r / a); at
    # these targets 2 a dr underflows to 0, and the quadratic's root read
    # dr / 0 = inf, which the clamp turned into the segment's right end, 1
    table = PiecewiseLinearHazard([0.0, 1.0, 2.0], [0.0, 0.01, 0.01])
    tiny = [5e-324, 1e-322]
    for r in tiny:
        assert table.inverse(r) == pytest.approx(math.sqrt(2.0 * r / 0.01), rel=1e-12)
    assert table.inverse(np.array(tiny + [0.005])).tolist() == \
        [table.inverse(r) for r in tiny] + [1.0]
    # so does a wedge kernel over it: LFR(1) has Q(s) = d + d^2, d = R^{-1}(s)
    base = CustomHazard.from_table([0.0, 1.0, 2.0], [0.0, 0.01, 0.01])
    q = float(WedgeKernel(LinearFailureRate(1.0), base).q(5e-324))
    assert q == pytest.approx(math.sqrt(2.0 * 5e-324 / 0.01), rel=1e-12)


def test_inverse_where_the_hazard_squared_underflows():
    # rows below 1.5e-154: h^2 underflows to 0, and the quadratic's root read
    # dr / (h / 2) = 2 dr / h on a flat row.  R = 1e-170 x on [0, 2] (flat),
    # and R = 1e-170 (x + x^2 / 2) on [0, 1] (slope 1e-170)
    flat = PiecewiseLinearHazard([0.0, 1.0, 2.0], [1e-170] * 3)
    assert flat.inverse(1e-171) == pytest.approx(0.1, rel=1e-15)
    assert flat.cumulative(flat.inverse(1e-171)) == pytest.approx(1e-171, rel=1e-15)
    sloped = PiecewiseLinearHazard([0.0, 1.0, 2.0], [1e-170, 2e-170, 2e-170])
    for r, x in ((0.5e-170, math.sqrt(2.0) - 1.0), (1.5e-170, 1.0), (1e-300, 1e-130)):
        assert sloped.inverse(r) == pytest.approx(x, rel=1e-15)
    assert sloped.inverse(np.array([0.5e-170, 1e-300])).tolist() == \
        [sloped.inverse(0.5e-170), sloped.inverse(1e-300)]
    # through a wedge kernel, on a float and an array: LFR(1) over the flat
    # table has Q(s) = d + d^2 at d = R0^{-1}(s)
    kernel = WedgeKernel(LinearFailureRate(1.0), CustomHazard.from_table([0.0, 1.0, 2.0],
                                                                         [1e-170] * 3))
    for s in (1e-171, np.array([1e-171])):
        assert np.asarray(kernel.q(s)).item() == pytest.approx(0.11, rel=1e-15)


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


def _raised(fn, x):
    """The error ``fn(x)`` raised, as (type, message), or None."""
    try:
        fn(x)
    except Exception as exc:  # compared, never swallowed
        return type(exc), str(exc)
    return None


@settings(max_examples=200, deadline=None)
@given(tables(), st.booleans(), st.lists(st.floats(-0.5, 1.5), max_size=20))
def test_float_path_is_the_array_element_bit_for_bit(table, zero_last, fractions):
    xs, hs, x_L = table
    if zero_last:  # bounded total hazard: flat at 0 past the last row
        hs = np.append(hs[:-1], 0.0)
    maps = PiecewiseLinearHazard(xs, hs, x_L)
    top = float(xs[-1]) + 5.0
    # random points below x_L, inside and past the last row; every row, both
    # its float neighbours, x_L and its neighbours
    edges = np.append(xs, x_L)
    pts = np.concatenate([x_L + (top - x_L) * np.asarray(fractions), edges,
                          np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
                          [x_L - 1.0, top]])
    for fn in (maps.cumulative, maps.hazard):
        want = fn(pts)
        for x, w in zip(pts.tolist(), want):
            got = fn(x)
            assert type(got) is float
            assert np.float64(got).tobytes() == w.tobytes(), (fn.__name__, x, got, w)
    # non-finite floats behave as before on both paths: the same error, or
    # the hazard's flat end value
    for bad in (math.inf, -math.inf, math.nan):
        assert _raised(maps.cumulative, bad) == (DomainError, f"x must be finite, got {bad!r}")
        assert _raised(maps.cumulative, np.array([bad]))[0] is DomainError
    assert _raised(maps.hazard, math.nan) == (DomainError, "x must not be NaN, got nan")
    assert _raised(maps.hazard, np.array([math.nan]))[0] is DomainError
    for bad, end in ((math.inf, hs[-1]), (-math.inf, hs[0])):
        got = maps.hazard(bad)
        assert type(got) is float and got == end == maps.hazard(np.array([bad]))[0]


# -- wedge kernels of tables: merged segments against two oracles --------------

#: closed-form baselines, with their maps written without the library
_CLOSED = {
    "exponential": (Exponential(), HazardMaps.closed_form("exponential")),
    "weibull0.5": (Weibull(0.5), HazardMaps.closed_form("weibull", 0.5)),
    "weibull2": (Weibull(2.0), HazardMaps.closed_form("weibull", 2.0)),
    "pareto": (Pareto(), HazardMaps.closed_form("pareto")),
}
_THETA = 3.0


@st.composite
def kernel_tables(draw, x_L: float):
    """2-60 rows with zero-hazard rows and maybe a last row of 0, with
    ``x_L`` left of, at or inside the table."""
    n = draw(st.integers(2, 60))
    gaps = draw(st.lists(st.floats(0.01, 2.0), min_size=n - 1, max_size=n - 1))
    hs = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 4.0)), min_size=n, max_size=n))
    if draw(st.booleans()):
        hs[-1] = 0.0
    where = draw(st.sampled_from(["left", "at", "inside"]))
    start = x_L
    if where == "left":
        start += draw(st.floats(0.01, 1.0))
    elif where == "inside":
        start -= draw(st.floats(0.01, 0.99)) * gaps[0]
    return np.cumsum([start] + gaps), np.array(hs)


def _table_model(cls, table, x_L):
    with warnings.catch_warnings():  # a table whose density does not decay
        warnings.simplefilter("ignore", RuntimeWarning)
        return cls.from_table(*table, x_L=x_L)


def _knots(table, x_L):
    """The table's segment starts: ``x_L`` and the rows right of it."""
    xs = table[0]
    return np.concatenate([[x_L], xs[xs > x_L]])


def _bits(value):
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return None if value is None else np.asarray(value, dtype=float).tobytes()


def _element(value, j):
    """Element ``j`` of an array, or of each array of a tuple."""
    if isinstance(value, tuple):
        return tuple(None if v is None else v[j] for v in value)
    return value[j]


def _outcome(fn, s):
    """The bits of ``fn(s)``, or the type of the error it raised."""
    try:
        return _bits(fn(s))
    except Exception as exc:  # compared, never swallowed
        return type(exc)


def _views(kernel, composed: bool):
    """``q``, ``q_prime``, ``slopes``, ``q_slopes`` and ``tail``, of the
    kernel or of the composition (the kernel's ``tail`` over composed
    ``(Q, Q', Q'')``)."""
    if not composed:
        return {"q": kernel.q, "q_prime": kernel.q_prime,
                "slopes": kernel.slopes, "q_slopes": kernel.q_slopes,
                "tail": lambda s: kernel.tail(s, _THETA)}

    def tail(s):
        with mock.patch.object(kernel, "q_slopes",
                               side_effect=lambda v: composed_q_slopes(kernel, v)):
            return kernel.tail(s, _THETA)
    return {"q": lambda s: composed_q(kernel, s),
            "q_prime": lambda s: composed_slopes(kernel, s, False)[0],
            "slopes": lambda s: composed_slopes(kernel, s),
            "q_slopes": lambda s: composed_q_slopes(kernel, s),
            "tail": tail}


def _within_rounding(kernel, s, x, got, want, marginal, baseline):
    """``got = (Q, Q', Q'')`` at ``s`` against the exact ``want = (Q, Q',
    Q'' right, Q'' left)``, within 16 times the rounding that the inputs'
    sizes allow: ``d = R0^{-1}(s)`` good to ``eps (|d| (1 + (H0/r0)^2) +
    s/r0 + 1)``, each hazard to ``eps H`` plus its slope times that, each
    slope to ``eps H / gap``, and ``R`` to ``eps`` per segment.  ``H`` is a
    table's largest row (or the hazard at ``d``), ``gap`` its least segment."""
    e = 2.0 ** -52
    tables = [t for t in (kernel._m, kernel._b) if t is not None]
    d = baseline.inverse(s) if x is None else x
    r, r0 = marginal.r(d), baseline.r(d)
    rp = max(abs(marginal.right(d)), abs(marginal.left(d)))
    r0p = max(abs(baseline.right(d)), abs(baseline.left(d)))

    def size(t, h):
        return (abs(h), math.inf) if t is None else (
            max(abs(h), float(np.max(t._h))), float(np.min(np.diff(t._knots), initial=math.inf)))
    (hm, gm), (h0, g0) = size(kernel._m, r), size(kernel._b, r0)
    q, q1, q2 = got
    Q, Q1, R2, L2 = want
    dd = e * (abs(d) * (1.0 + (h0 / r0) ** 2) + s / r0 + 1.0)
    dr, dr0 = e * hm + rp * dd, e * h0 + r0p * dd
    tol_q = e * (sum(t._knots.size for t in tables) * abs(Q) + hm * (abs(d) + 1.0)) \
        + abs(r) * dd + rp * dd * dd
    tol_q1 = e * abs(Q1) + (dr + abs(Q1) * dr0) / r0
    d_num = rp * dr0 + r0p * dr + e * (rp * r0 + abs(r) * r0p + r0 * hm / gm + abs(r) * h0 / g0)
    tol_q2 = e * (abs(R2) + abs(L2)) + d_num / r0**3 + 3.0 * max(abs(R2), abs(L2)) * dr0 / r0
    assert abs(q - Q) <= 16.0 * tol_q, ("Q", s, q, Q)
    assert abs(q1 - Q1) <= 16.0 * tol_q1, ("Q'", s, q1, Q1)
    assert min(abs(q2 - R2), abs(q2 - L2)) <= 16.0 * tol_q2, ("Q''", s, q2, R2, L2)


def _check_kernel(kernel, knots, marginal, baseline):
    """The kernel against the composition, bit for bit, and against the
    exact wedge within rounding: at s = 0, on every knot, between knots and
    past the last, on the whole array and at each float."""
    xk = np.unique(np.concatenate(knots))
    sk = np.asarray(kernel.baseline.cumulative_hazard(xk), dtype=float)
    su = np.unique(sk)
    points = ([(0.0, None)] + list(zip(sk.tolist(), xk.tolist()))
              + [(v, None) for v in (0.5 * (su[:-1] + su[1:])).tolist()]
              + [(su[-1] + 0.5, None), (2.0 * su[-1] + 1.0, None)])
    assert _bits(kernel.q(0.0)) == _bits(0.0)
    new, old = _views(kernel, False), _views(kernel, True)
    # past a bounded baseline's total hazard both raise NumericError
    ok = [(s, x) for s, x in points if not isinstance(_outcome(old["q"], s), type)]
    s_ok = np.array([s for s, _ in ok])
    for name in new:
        whole = new[name](s_ok)
        assert _bits(whole) == _outcome(old[name], s_ok), name
        for point in points:
            s = point[0]
            want = _outcome(old[name], s)
            assert _outcome(new[name], s) == want, (name, s)
            if not isinstance(want, type):  # a float s gives the array's element
                assert _bits(new[name](s)) == _bits(_element(whole, ok.index(point))), (name, s)
    for bad in (math.nan, math.inf):
        for name in ("q", "q_prime", "slopes", "q_slopes", "tail"):
            assert _outcome(new[name], bad) is DomainError
            assert _outcome(new[name], np.array([1.0, bad])) is DomainError
    if kernel._b is not None and kernel._b._h[-1] == 0.0:  # a bounded total hazard
        for name in new:
            assert _outcome(new[name], float(kernel._b._R[-1]) + 1.0) is NumericError
    for s, x in ok:
        if s == 0.0:  # checked above: Q(0) = 0, and Q' is the diagonal limit
            continue
        want = exact_wedge(marginal, baseline, s, x)
        got = tuple(float(v) for v in kernel.q_slopes(s))
        if all(map(math.isfinite, want + got)):
            _within_rounding(kernel, s, x, got, want, marginal, baseline)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_CLOSED)), st.data())
def test_table_marginal_kernels_are_the_composition_bit_for_bit(name, data):
    base, base_maps = _CLOSED[name]
    table = data.draw(kernel_tables(base.x_L))
    kernel = WedgeKernel(_table_model(FromHazard, table, base.x_L), base)
    _check_kernel(kernel, [_knots(table, base.x_L)],
                  HazardMaps.table(LinearHazardTable(*table), base.x_L), base_maps)


@settings(max_examples=40, deadline=None)
@given(kernel_tables(0.0), st.one_of(st.floats(0.05, 3.0), kernel_tables(0.0)))
def test_table_baseline_kernels_are_the_composition_bit_for_bit(table, marginal):
    base = _table_model(CustomHazard, table, 0.0)
    base_maps = HazardMaps.table(LinearHazardTable(*table), 0.0)
    knots = [_knots(table, 0.0)]
    if isinstance(marginal, float):
        kernel = WedgeKernel(LinearFailureRate(marginal), base)
        maps = HazardMaps.lfr(marginal)
    else:
        kernel = WedgeKernel(_table_model(FromHazard, marginal, 0.0), base)
        maps = HazardMaps.table(LinearHazardTable(*marginal), 0.0)
        knots.append(_knots(marginal, 0.0))
    _check_kernel(kernel, knots, maps, base_maps)


def test_table_kernels_look_each_point_up_once():
    marginal = FromHazard.from_table(KINK_X, [1.0 + h for h in KINK_H], x_L=0.0)
    kernel = WedgeKernel(marginal, Exponential())
    s = np.linspace(0.0, 9.0, 28)
    # a table marginal over the exponential: R and its slope are answered
    # from the one segment lookup, the hazard is the table's own np.interp
    forbidden = {n: mock.Mock(side_effect=AssertionError(n))
                 for n in ("cumulative_hazard", "hazard_derivative")}
    for method in (kernel.q, kernel.slopes, kernel.q_slopes):
        with mock.patch.object(np, "searchsorted", wraps=np.searchsorted) as search, \
                mock.patch.multiple(marginal, **forbidden):
            method(s)
        assert search.call_count == 1, method


@pytest.mark.parametrize("name", sorted(_CLOSED))
def test_table_marginal_q_prime_alone_is_one_interp(name):
    # over a closed-form baseline, Q' alone reads the table's own hazard (one
    # np.interp, no lookup); on 200,000 points and on the images of the
    # table's knots and of x_L
    base = _CLOSED[name][0]
    x_L = base.x_L
    marginal = FromHazard.from_table([x_L + x for x in KINK_X], KINK_H, x_L=x_L)
    table, kernel = marginal._table, WedgeKernel(marginal, base)
    knots = np.concatenate([[x_L], table._knots, table._knots_next[:-1]])
    s = np.concatenate([np.linspace(0.0, 40.0, 200_000),
                        np.asarray(base.cumulative_hazard(knots), dtype=float)])
    d = np.asarray(base.inverse_cumulative_hazard(s), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        want = table.hazard(d) / np.asarray(base.hazard(d), dtype=float)
    with mock.patch.object(np, "searchsorted", wraps=np.searchsorted) as search, \
            mock.patch.object(np, "interp", wraps=np.interp) as interp:
        got = kernel.q_prime(s)
    assert (search.call_count, interp.call_count) == (0, 1)
    assert got.tobytes() == want.tobytes()
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            kernel.q_prime(np.array([1.0, bad]))
