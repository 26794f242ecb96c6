import math
import sys
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bisurv import (
    CustomHazard,
    DomainError,
    Exponential,
    FromHazard,
    GeneralBivariateModel,
    GridSpec,
    LinearFailureRate,
    ModelError,
    NumericError,
    Pareto,
    PHBivariateModel,
    ProportionalHazard,
    Weibull,
    check_functional_equation,
    check_hazard_gradient_identity,
    check_hazard_rate_conditions,
    check_marginal_conditions,
    check_two_increasing,
    combined_validation,
    hazard_gradient,
    reconstruct_survival_from_gradient,
)
from bisurv import validity
from bisurv.marginals import WedgeKernel
from bisurv.validity import (
    INCONCLUSIVE,
    INVALID,
    VALID,
    lfr_exponential_cross_bound,
)
import oracles
from oracles import (
    fd_log_gradient,
    gradient_identity,
    rectangle_scan_running_max,
    rectangle_scan_separable,
    rectangle_scan_tensor,
)
from test_cli_golden import CONFIGS as GOLDEN_CONFIGS
from test_sampling import _golden_model

E = Exponential()
W2 = Weibull(2.0)
PAR = Pareto()

MO = PHBivariateModel(E, 1.0, 1.0, 1.0)
MOW = PHBivariateModel(W2, 1.0, 1.0, 1.0)
MOP = PHBivariateModel(PAR, 1.0, 1.0, 1.0)


def lfr_exp_model(a=1.5, theta=3.0):
    m = LinearFailureRate(a)
    return GeneralBivariateModel(E, m, m, theta)


# -- grid ---------------------------------------------------------------------


def test_default_grid_shape():
    g = GridSpec.default()
    assert g.counts == (16, 8)
    assert g.r0_knots[0] == pytest.approx(0.05)
    assert g.r0_knots[-1] == pytest.approx(8.0)
    with pytest.raises(DomainError):
        GridSpec.default(knots=4)
    with pytest.raises(DomainError):
        GridSpec.default(t_knots=-1)
    with pytest.raises(DomainError):
        GridSpec(r0_knots=(2.0, 1.0))
    # negative or non-finite input; a NaN margin would skip every pair and make the
    # checks report "all 0 grid points skipped"
    for kwargs in ({"r0_knots": (-1.0, 1.0)}, {"r0_knots": (math.nan, 1.0)},
                   {"r0_knots": (1.0, math.inf)},
                   {"r0_knots": (1.0, 2.0), "wedge_margin": math.nan},
                   {"r0_knots": (1.0, 2.0), "wedge_margin": math.inf},
                   {"r0_knots": (1.0, 2.0), "wedge_margin": -0.5},
                   {"r0_knots": (1.0, 2.0), "t_r0_knots": (0.5, math.nan)}):
        with pytest.raises(DomainError):
            GridSpec(**kwargs)


_grid_bound = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)


@settings(max_examples=300, deadline=None)
@given(st.integers(8, 1024), st.integers(0, 1024),
       st.lists(_grid_bound, min_size=4, max_size=4),
       st.lists(st.sampled_from([float, np.float64, np.asarray]), min_size=4, max_size=4),
       st.sampled_from([0.02, 0.0, -0.0, 1.5]))
@example(16, 8, [0.05, 8.0, 0.1, 4.0], [float] * 4, 0.02)
@example(48, 1, [8.0, 0.05, 4.0, 0.1], [np.asarray] * 4, -0.0)
def test_default_grid_is_geomspace_bit_for_bit(knots, t_knots, bounds, kinds, margin):
    r0_min, r0_max, t_min, t_max = (kind(b) for kind, b in zip(kinds, bounds))
    settings_ = dict(knots=knots, r0_min=r0_min, r0_max=r0_max, wedge_margin=margin,
                     t_knots=t_knots, t_min=t_min, t_max=t_max)
    with np.errstate(invalid="ignore"):
        axes = (tuple(np.geomspace(r0_min, r0_max, knots)),
                tuple(np.geomspace(t_min, t_max, t_knots)))
    try:  # bounds in decreasing order make decreasing axis knots
        want = GridSpec(r0_knots=axes[0], wedge_margin=margin, t_r0_knots=axes[1])
    except DomainError:
        with pytest.raises(DomainError):
            GridSpec.default(**settings_)
        return
    got = GridSpec.default(**settings_)
    for a, b in ((got.r0_knots, want.r0_knots), (got.t_r0_knots, want.t_r0_knots)):
        assert np.array(a, dtype=float).tobytes() == np.array(b, dtype=float).tobytes()
    assert got.describe() == want.describe()
    assert math.copysign(1.0, got.describe()["wedge_margin_r0"]) == math.copysign(1.0, margin)


def test_default_grid_refuses_what_geomspace_refused():
    # a count that is not an integer: numpy's TypeError
    for kwargs in ({"knots": 16.0}, {"knots": np.float64(16)}, {"t_knots": 2.5}):
        with pytest.raises(TypeError):
            np.geomspace(1.0, 2.0, next(iter(kwargs.values())))
        with pytest.raises(TypeError):
            GridSpec.default(**kwargs)
    # a zero bound, where numpy raised ValueError, at every knot count
    for kwargs in ({"r0_min": 0.0}, {"r0_max": 0}, {"t_min": 0.0}, {"t_max": -0.0},
                   {"t_min": 0.0, "t_knots": 1}, {"t_max": 0.0, "t_knots": 0}):
        with pytest.raises(DomainError, match="zero"):
            GridSpec.default(**kwargs)


def test_wedge_pairs_keep_the_double_loop_order():
    # at 0.05 two of the 15 pairs lie within the margin; no pair is 6 apart
    for margin, count in ((0.05, 13), (0.0, 15), (6.0, 0)):
        grid = GridSpec(r0_knots=(0.1, 0.11, 0.5, 0.52, 2.0, 6.0), wedge_margin=margin)
        xs = grid.axis_points(W2)
        knots = grid.r0_knots
        expected = [(xs[j], xs[k]) for j in range(len(knots)) for k in range(j)
                    if knots[j] - knots[k] >= grid.wedge_margin]
        hi, lo = grid.wedge_pairs(W2)
        assert list(zip(hi.tolist(), lo.tolist())) == expected
        assert len(expected) == count


# -- marginal qualification conditions ---------------------------------------


def test_marginal_conditions_lfr_exp_invalid():
    rep = check_marginal_conditions(lfr_exp_model())
    assert rep.verdict == INVALID
    by_id = {c.cid: c for c in rep.conditions}
    assert by_id["i"].passed is False
    assert by_id["i"].margin == pytest.approx(-1.0, abs=1e-6)  # u1+u2 = 2 vs theta 3
    assert by_id["ii"].passed is False
    assert rep.diagnostics["u1"] == pytest.approx(1.0, abs=1e-6)
    assert rep.diagnostics["alpha"] == pytest.approx(4.0 / 3.0, abs=1e-6)


def test_reduced_cross_bound_matches_hand_value():
    assert lfr_exponential_cross_bound(1.5, 5.0, 3.0) == pytest.approx(6.5, abs=1e-12)
    # the reduced statistic is a lower bound on the exact one, so its
    # violation at (5, 3) certifies the exact condition's violation
    with pytest.raises(DomainError):
        lfr_exponential_cross_bound(1.5, 3.0, 3.0)


def test_marginal_conditions_ph_valid():
    for model in (MO, MOW, MOP):
        rep = check_marginal_conditions(model)
        assert rep.verdict == VALID
        assert all(c.passed for c in rep.conditions)


def test_marginal_conditions_forced_small_deltas_invalid():
    theta = 3.0
    delta = theta / 4.0
    model = GeneralBivariateModel(
        E, ProportionalHazard(E, delta), ProportionalHazard(E, delta), theta)
    rep = check_marginal_conditions(model)
    assert rep.verdict == INVALID
    by_id = {c.cid: c for c in rep.conditions}
    assert by_id["i"].passed is False
    assert by_id["i"].margin == pytest.approx(delta + delta - theta, abs=1e-9)


# -- two-increasing -----------------------------------------------------------


def test_two_increasing_reproduces_negative_rectangle():
    grid = GridSpec(r0_knots=(1.0, 2.0, 3.0, 5.0))
    rep = check_two_increasing(lfr_exp_model(), grid)
    assert rep.verdict == INVALID
    oracle = math.exp(-11.0) - math.exp(-8.5) - math.exp(-31.0) + math.exp(-22.5)
    assert rep.diagnostics["rectangle"] == [1.0, 2.0, 3.0, 5.0]
    assert rep.diagnostics["min_rectangle_probability"] == pytest.approx(oracle,
                                                                         abs=1e-7)


def test_two_increasing_ph_valid_and_degenerate_grid():
    assert check_two_increasing(MO).verdict == VALID
    assert check_two_increasing(lfr_exp_model(),
                                GridSpec(r0_knots=(1.0,))).verdict == VALID


def test_two_increasing_agrees_with_direct_scan():
    # independent traversal: python loops over rectangle_probability
    grid = GridSpec.default(knots=12)
    for model in (MO, lfr_exp_model()):
        xs = [float(v) for v in grid.axis_points(model.baseline)]
        direct_min = math.inf
        for i in range(len(xs)):
            for j in range(i + 1, len(xs)):
                for k in range(len(xs)):
                    for l in range(k + 1, len(xs)):
                        p = model.rectangle_probability(xs[i], xs[j], xs[k], xs[l])
                        direct_min = min(direct_min, p)
        rep = check_two_increasing(model, grid)
        worst = rep.diagnostics["min_rectangle_probability"]
        assert (rep.verdict == VALID) == (direct_min >= -1e-9)
        if rep.verdict == VALID:  # the most negative rectangle is a cell
            assert worst == pytest.approx(direct_min, rel=1e-12, abs=1e-15)
        else:  # the failing cell is a negative rectangle
            assert direct_min <= worst < 0.0


def _mass_survival(rng, n, empty_row=None):
    """Survival matrix of integer masses, ``s[i, k]`` the mass at or below
    row ``i`` and right of column ``k``: exact in floats, so no rectangle
    is negative and no column difference rises down the rows.  Most masses
    are 0, so rows tie exactly, and trailing columns may be all zero;
    ``empty_row`` carries no mass, so it ties with the row below it in
    every column difference."""
    mass = rng.choice([0.0, 0.0, 0.0, 1.0, 2.0, 3.0], (n, n))
    mass[:, rng.integers(1, n + 1):] = 0.0
    if empty_row is not None:
        mass[empty_row] = 0.0
    return mass[::-1, ::-1].cumsum(0).cumsum(1)[::-1, ::-1].copy()


@st.composite
def _survival_matrices(draw, max_n=20):
    """Square matrices of 2 to ``max_n`` rows for the rectangle scan: random,
    random from a seed (``hnp.arrays`` fills most of a large matrix with one
    value; a seeded draw keeps every entry distinct), heavily tied, decimal
    (sums of tenths round differently in the separable and the direct form,
    so near-ties split by rounding), all zero, PH-shaped, PH-shaped with one
    entry bumped up, which makes negative rectangles, or random with one
    NaN, infinite or huge entry.  Row-monotone ones, whose column
    differences never rise down the rows, and near-monotone ones:
    integer-mass survival (:func:`_mass_survival`) with some zeros signed
    ``-0.0``, or with one column difference one ulp below its tie with the
    next row, or one NaN or infinite entry."""
    n = draw(st.integers(2, max_n))
    kind = draw(st.sampled_from(["random", "seeded", "tied", "decimal", "zero", "negative",
                                 "nonfinite", "ph", "monotone", "near"]))
    if kind == "seeded":
        return np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random((n, n))
    if kind in ("monotone", "near"):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        i, k = draw(st.integers(0, max(n - 2, 0))), draw(st.integers(0, max(n - 2, 0)))
        how = "-0.0" if kind == "monotone" else draw(
            st.sampled_from(["ulp", math.nan, math.inf, -math.inf]))
        s = _mass_survival(rng, n, empty_row=i if how == "ulp" else None)
        if how == "-0.0":
            s[(s == 0.0) & (rng.random((n, n)) < 0.5)] = -0.0
        elif how == "ulp":
            s[i + 1, k] = np.nextafter(s[i + 1, k], math.inf)
        else:
            s[i, k] = how
        return s
    if kind in ("random", "nonfinite"):
        s = draw(hnp.arrays(np.float64, (n, n), elements=st.floats(0.0, 1.0)))
        if kind == "nonfinite":
            s[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] = draw(
                st.sampled_from([math.nan, math.inf, -math.inf, 1e305]))
        return s
    if kind in ("tied", "decimal"):
        values = [0.0, 0.25, 0.5] if kind == "tied" else [0.1, 0.2, 0.3, 0.4, 0.6, 0.7]
        return draw(hnp.arrays(np.float64, (n, n), elements=st.sampled_from(values)))
    if kind == "zero":
        return np.zeros((n, n))
    r0 = np.cumsum(draw(hnp.arrays(np.float64, n, elements=st.floats(0.01, 1.0))))
    d1, d2 = draw(st.floats(0.1, 2.0)), draw(st.floats(0.1, 2.0))
    theta = max(d1, d2) + draw(st.floats(0.0, 2.0))
    hi, lo = np.maximum.outer(r0, r0), np.minimum.outer(r0, r0)
    s = np.exp(-np.where(r0[:, None] >= r0[None, :], d1, d2) * (hi - lo) - theta * lo)
    if kind == "negative":
        s[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] += draw(
            st.floats(1e-12, 0.1))
    return s


@settings(max_examples=300, deadline=None)
@given(s=_survival_matrices())
# the separable minimum -0.09999999999999998 at (1, 2, 1, 2) wins over
# (0, 1, 0, 1), whose direct sum -0.1 is the tensor's minimum
@example(s=np.array([[0.7, 0.6, 0.1], [0.3, 0.1, 0.6], [0.3, 0.2, 0.6]]))
# the only rectangle is +inf, and it is reported as (0, 1, 0, 1)
@example(s=np.array([[math.inf, 0.0], [0.0, 0.0]]))
def test_rectangle_scan_matches_separable_oracle(s):
    # the cell rule's O(n^3) reference against the n^4 separable ranking
    with np.errstate(invalid="ignore", over="ignore"):
        ref_value, *ref_witness = rectangle_scan_separable(s)
        value, *witness = rectangle_scan_running_max(s)
        assert witness == ref_witness
        assert np.float64(value).tobytes() == np.float64(ref_value).tobytes()
        if np.all(np.isfinite(s)):
            # ranking by the separable sum moves the minimum by rounding only
            tensor_value = rectangle_scan_tensor(s)[0]
            assert abs(value - tensor_value) <= 16 * np.finfo(float).eps * np.abs(s).max()


def test_rectangle_scan_examples():
    # the oracle's most negative rectangle, and the cell rule's verdict and cell
    s = np.array([[0.7, 0.6, 0.1], [0.3, 0.1, 0.6], [0.3, 0.2, 0.6]])
    assert rectangle_scan_running_max(s) == (-0.09999999999999998, 1, 2, 1, 2)
    assert validity._cell_rule(s, 0.0) == (-0.09999999999999998, 1, 1, False)
    s = np.array([[math.inf, 0.0], [0.0, 0.0]])
    assert rectangle_scan_running_max(s) == (math.inf, 0, 1, 0, 1)
    assert validity._cell_rule(s, 0.0) == (math.inf, 0, 0, True)
    # cell (0, 0), -2^-52 at corners of about 1, is the most negative and
    # passes; cell (1, 1), -1e-20 at corners of at most 1e-20, fails, and
    # is the witness
    s = np.array([[1.0, 0.5, 0.0], [0.5 + 2.0**-52, 0.0, 0.0], [0.0, 1e-20, 0.0]])
    assert validity._cell_rule(s, 0.0) == (-1e-20, 1, 1, False)
    assert rectangle_scan_running_max(s)[0] == -2.0**-52
    # inf - inf is NaN, and NaN ranks first and fails, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, *cell = validity._cell_rule(np.array([[math.inf, math.inf], [0.0, 0.0]]), 0.0)
        assert math.isnan(value) and cell == [0, 0, False]
        # an infinite corner makes the bound inf: a -inf cell fails
        assert validity._cell_rule(np.array([[0.0, 0.0], [math.inf, 0.0]]), 0.0) == (
            -math.inf, 0, 0, False)


def _scan_example(n, kind):
    """A random, tied or infinite matrix of ``n`` rows."""
    rng = np.random.default_rng(0)
    if kind == "tied":
        return rng.choice([0.0, 0.25, 0.5], (n, n))
    s = rng.random((n, n))
    if kind == "inf":
        s[10, 50] = math.inf
    elif kind == "two-inf":
        # inf - inf is NaN at rows 5 and 1 of columns 20 and 50
        s[[5, 30], 20] = math.inf
        s[[1, 2], 50] = math.inf
    return s


def _dipped_example(n, k):
    """Integer-mass survival whose rows 3 and 4 tie in every column
    difference, except that ``c_3 - c_4`` is one ulp below 0 at the pairs
    ``(k, l > k)``: row-monotone everywhere else."""
    s = _mass_survival(np.random.default_rng(1), n, empty_row=3)
    s[4, k] = np.nextafter(s[4, k], math.inf)
    return s


def _positive_mass_survival(rng, n, scale=1.0, dyadic=False):
    """Survival matrix of positive masses scaled so that ``s[0, 0]`` is
    about ``scale``: every cell carries mass, as on a valid model's grid.
    Dyadic masses (multiples of 1/8 in [1, 2)) keep every sum exact."""
    mass = (rng.integers(8, 16, (n, n)) / 8.0) if dyadic else rng.random((n, n)) + 0.5
    s = mass[::-1, ::-1].cumsum(0).cumsum(1)[::-1, ::-1]
    return s * (scale / s[0, 0])


def _certificate_example(scale, side):
    """A 3 x 3 matrix whose cell (1, 1) lies one float below (``side = -1``),
    on (0) or one float above (1) minus its rounding bound ``2^-49 s[1, 1] +
    5e-324``, and whose other cells are positive.  ``scale`` is a power of
    two at which ``s[1, 1]`` is exact: 1 and 2^-900,
    where the bound is ``1.5 * 2^-49 * scale``, and 2^-1060, where every
    entry is subnormal and the bound is one subnormal."""
    bound = 1.5 * scale * 2.0**-49 + 5e-324
    cell = -bound if side == 0 else math.nextafter(-bound, side * math.inf)
    # the cell is (s[1, 1] - s[1, 2]) - (s[2, 1] - s[2, 2]) = 0 - s[2, 1]
    s = np.array([[8.0, 4.0, 2.0], [4.0, 1.5, 1.5], [2.0, 0.0, 0.0]]) * scale
    s[2, 1] = -cell
    assert (s[1, 1] - s[1, 2]) - (s[2, 1] - s[2, 2]) == cell
    return s


def _tied_cells_example(n, cells, seed=3):
    """Dyadic positive-mass survival whose cells ``cells`` carry mass 1/2,
    below every other cell: a tie that C order breaks."""
    mass = np.random.default_rng(seed).integers(8, 16, (n, n)) / 8.0
    for i, k in cells:
        mass[i, k] = 0.5
    return mass[::-1, ::-1].cumsum(0).cumsum(1)[::-1, ::-1].copy()


def _decimal_tie_example():
    """Survival of decimal masses over 3, whose cells (0, 1) and (1, 1) carry
    0.1/3 each: the two tie exactly, and their computed cells round apart."""
    mass = np.array([[0.9, 0.1, 0.9], [0.7, 0.1, 0.3], [0.3, 0.9, 0.5]])
    return mass[::-1, ::-1].cumsum(0).cumsum(1)[::-1, ::-1] / 3.0


@st.composite
def _cell_matrices(draw):
    """:func:`_survival_matrices`, and matrices at the edges of the cell
    rule: positive-mass survival scaled to 1e-300 and to subnormals,
    near-1 survival whose cells are about 1e-17 (far below the rounding
    bound), a cell one float either side of minus its bound, two cells with
    equal lowest masses, and decimal masses whose equal lowest cells round
    apart."""
    kind = draw(st.sampled_from(["survival", "scaled", "near-one", "certificate", "tied",
                                 "decimal"]))
    if kind == "survival":
        return draw(_survival_matrices())
    n = draw(st.integers(3, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "scaled":
        scale = draw(st.sampled_from([1e-300, 2.0**-1000, 1e-310, 1e-318, 5e-321]))
        return _positive_mass_survival(rng, n, scale, dyadic=draw(st.booleans()))
    if kind == "near-one":
        s = _positive_mass_survival(rng, n, float(n * n))
        return 1.0 + 1e-17 * (s - s[0, 0])
    if kind == "certificate":
        return _certificate_example(draw(st.sampled_from([1.0, 2.0**-900, 2.0**-1060])),
                                    draw(st.sampled_from([-1, 0, 1])))
    cell = st.tuples(st.integers(0, n - 2), st.integers(0, n - 2))
    if kind == "tied":
        return _tied_cells_example(n, [draw(cell), draw(cell)], seed=draw(st.integers(0, 99)))
    mass = rng.integers(3, 10, (n, n)) / 10.0
    for i, k in (draw(cell), draw(cell)):
        mass[i, k] = 0.1
    s = mass[::-1, ::-1].cumsum(0).cumsum(1)[::-1, ::-1]
    return s / draw(st.sampled_from([1.0, 3.0, 7.0]))


_SIGNED_ZEROS = np.array([[0.0, -0.0, 0.0], [-0.0, 0.0, -0.0], [0.0, 0.0, -0.0]])


def _oracle_bound(s, i, j, k, l):
    """Below minus this, the direct sum of the rectangle ``(i, j, k, l)``
    proves that one of its cells fails the cell rule.  With ``M`` the
    largest ``|s|`` over its rows and columns and ``m`` its cell count, a
    cell that passes is exactly at least ``-(16uM + 5e-324) - 8.01uM``
    (:func:`validity._cell_rule`), the exact rectangle is the sum of its
    ``m`` exact cells, and a direct sum of four entries of at most ``M``
    rounds by at most ``9.01uM``: ``(2m + 1) (16uM + 5e-324)`` covers the
    sum."""
    big = float(np.abs(s[i:j + 1, k:l + 1]).max())
    return (2 * (j - i) * (l - k) + 1) * (big * 2.0**-49 + 5e-324)


def _exact_cell(s, i, k):
    """Cell ``(i, k)`` of ``s``, its four-corner sum taken exactly."""
    a, c, b, d = (Fraction(float(v)) for v in (s[i, k], s[i, k + 1], s[i + 1, k], s[i + 1, k + 1]))
    return a - c - b + d


def _rounded_oracle_example():
    """A 6 x 6 survival matrix whose one negative cell, (4, 4) at about
    -1.1e-20 with corners near 1e-6, fails the cell rule, while the O(n^3)
    scan's least rectangle reads positive: its sums round on entries near
    0.19, where the left columns carry masses of 1e-17."""
    rng = np.random.default_rng(7)
    mass = rng.random((6, 6)) * 1e-17
    mass[:4, 4:] = rng.random((4, 2)) * 0.05
    mass[4:, 4:] = rng.random((2, 2)) * 4e-7 + 2e-7
    mass[4, 4] = -1.12e-20
    s = mass[::-1, ::-1].cumsum(0).cumsum(1)[::-1, ::-1].copy()
    assert validity._cell_rule(s, 0.0)[1:] == (4, 4, False) and _exact_cell(s, 4, 4) < 0
    assert rectangle_scan_running_max(s)[0] > 0.0
    return s


def _check_cell_rule(s):
    """The cell rule on ``s`` against its loop form (``oracles.cell_rule``),
    bit for bit, and against the O(n^3) scan.  Where a cell fails, the
    witness cell's exact four-corner sum is negative, the rule's own
    guarantee, when its corners are finite; with a NaN or infinite corner,
    the most negative rectangle is negative (NaN counts as negative for
    both).  Where that rectangle lies below minus its rounding bound
    (:func:`_oracle_bound`), a cell fails.  Returns the rule's result."""
    got = validity._cell_rule(s, 0.0)
    want = oracles.cell_rule(s)
    assert got[1:] == want[1:]
    assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
    with np.errstate(invalid="ignore", over="ignore"):
        least, i, j, k, l = rectangle_scan_running_max(s)
        if not got[3]:
            w1, w2 = got[1:3]
            if np.isfinite(s[w1:w1 + 2, w2:w2 + 2]).all():
                assert _exact_cell(s, w1, w2) < 0
            else:
                assert not least >= 0.0
        if least < -_oracle_bound(s, i, j, k, l):
            assert not got[3]
    return got


@settings(max_examples=300, deadline=None)
@given(s=_cell_matrices())
@example(s=_scan_example(49, "tied"))
@example(s=_scan_example(49, "random"))
@example(s=_scan_example(64, "inf"))
@example(s=_scan_example(64, "two-inf"))
@example(s=np.zeros((64, 64)))
@example(s=_dipped_example(64, 40))
@example(s=np.where(_mass_survival(np.random.default_rng(2), 49) == 0.0, -0.0, 1.0))
@example(s=_positive_mass_survival(np.random.default_rng(4), 12, 1e-300))
@example(s=_positive_mass_survival(np.random.default_rng(5), 12, 1e-310))
@example(s=_positive_mass_survival(np.random.default_rng(6), 9, 5e-321, dyadic=True))
@example(s=1.0 + 1e-17 * (_positive_mass_survival(np.random.default_rng(7), 10, 100.0) - 100.0))
@example(s=_certificate_example(1.0, -1))
@example(s=_certificate_example(2.0**-900, 1))
@example(s=_certificate_example(2.0**-1060, 0))
@example(s=_tied_cells_example(12, [(7, 2), (3, 9)]))
@example(s=_decimal_tie_example())
@example(s=_SIGNED_ZEROS)
@example(s=_rounded_oracle_example())
def test_cell_rule_agrees_with_the_rectangle_scan_oracle(s):
    _check_cell_rule(s)


@pytest.mark.parametrize("scale", [1.0, 2.0**-900, 2.0**-1060])
def test_cell_screen_certificate_edge(scale):
    # a cell one float below minus its rounding bound fails, and reads
    # negative; on or above it, every cell passes
    value, i, k, passed = validity._cell_rule(_certificate_example(scale, -1), 0.0)
    assert (i, k, passed) == (1, 1, False) and value < 0.0
    for side in (0, 1):
        assert validity._cell_rule(_certificate_example(scale, side), 0.0)[1:] == (1, 1, True)


def test_cell_screen_breaks_ties_between_candidate_cells():
    # cells (3, 9) and (7, 2) both carry 1/2, below every other cell: the
    # first in C order wins, as it does in the oracle's key (value, i, k, l)
    s = _tied_cells_example(24, [(7, 2), (3, 9)])
    assert validity._cell_rule(s, 0.0) == (0.5, 3, 9, True)
    assert rectangle_scan_running_max(s) == (0.5, 3, 4, 9, 10)


_VALID_BENCH_MODELS = {"ph-exp": MO, "ph-weibull0.5": PHBivariateModel(Weibull(0.5), 1, 0.5, 2),
                       "ph-pareto": PHBivariateModel(PAR, 2, 1, 1)}


@pytest.mark.parametrize("name", [*(n for n in GOLDEN_CONFIGS if n != "lfr-invalid"),
                                  "gen-weibull2", *_VALID_BENCH_MODELS])
def test_cell_screen_alone_settles_every_valid_config(name, tmp_path):
    # the bench's and the goldens' valid models: every cell passes, and the
    # witness cell is the oracle's most negative rectangle, bit for bit
    model = _VALID_BENCH_MODELS.get(name) or _golden_model(name, tmp_path)
    for knots in (8, 16, 32, 48, 128):
        grid = GridSpec.default(knots=knots)
        xs = grid.axis_points(model.baseline)
        s = np.asarray(model.survival(xs[:, None], xs[None, :]), dtype=float)
        value, i, k, passed = validity._cell_rule(s, 0.0)
        assert passed and check_two_increasing(model, grid).verdict == VALID
        want = rectangle_scan_running_max(s)
        assert (i, i + 1, k, k + 1) == want[1:]
        assert np.float64(value).tobytes() == np.float64(want[0]).tobytes()


def _fallback_examples():
    xs = GridSpec.default(knots=48).axis_points(E)
    valid = MO.survival(xs[:, None], xs[None, :])
    examples = {f"lfr{a}": lfr_exp_model(a, theta).survival(xs[:, None], xs[None, :])
                for a, theta in ((1.5, 3.0), (0.2, 2.0))}
    # a NaN spoils its cells; inf and 1e301 at the top left
    for bad, at in ((math.nan, (40, 40)), (math.inf, (0, 0)), (1e301, (0, 0))):
        s = valid.copy()
        s[at] = bad
        examples[f"valid-with-{bad:g}"] = s
    examples["zero"] = np.zeros((48, 48))
    examples["tied"] = _scan_example(49, "tied")
    examples["empty-row"] = _mass_survival(np.random.default_rng(2), 48, empty_row=5)
    # every cell is exactly 1
    examples["equal-cells"] = np.arange(48.0)[::-1, None] * np.arange(48.0)[None, ::-1]
    # the same cells, but not survival-shaped: the rows rise, the columns
    # rise, or the entries go negative
    examples["rising-rows"] = valid + np.arange(48.0)[None, :]
    examples["rising-columns"] = valid + np.arange(48.0)[:, None]
    examples["negative"] = valid - 1.0
    # a valid grid whose survival underflows to 0 far out: zero cells
    xs = GridSpec.default(knots=48, r0_max=1000.0).axis_points(E)
    examples["underflow"] = MO.survival(xs[:, None], xs[None, :])
    return examples


#: the grids of :func:`_fallback_examples` on which a cell fails
_FAILING_EXAMPLES = {"lfr1.5", "lfr0.2", "valid-with-nan", "tied"}


@pytest.mark.parametrize("name", list(_fallback_examples()))
def test_cell_screen_falls_back(name):
    # the grids that the old cell screen could not certify, and left to the
    # cubic scan: an invalid model's, non-finite or huge entries, zero or
    # equal cells, grids that are not survival-shaped, and a valid model's
    # that underflows.  The cell rule decides each alone, as the oracles do
    assert _check_cell_rule(_fallback_examples()[name])[3] == (name not in _FAILING_EXAMPLES)


def test_rectangle_scan_of_a_valid_1024_knot_grid_is_quadratic():
    # the cubic scan took ~4 s on each of these grids, the cell rule ~0.03 s:
    # a valid model's, one whose survival underflows to 0 far out, and one
    # whose rectangles all tie at 0
    xs = GridSpec.default(knots=1024).axis_points(E)
    far = GridSpec.default(knots=1024, r0_max=1000.0).axis_points(E)
    start = time.perf_counter()
    assert validity._cell_rule(MO.survival(xs[:, None], xs[None, :]), 0.0) == (
        1.3003740944421775e-13, 1021, 1022, True)
    assert validity._cell_rule(MO.survival(far[:, None], far[None, :]), 0.0) == (
        -5e-324, 46, 920, True)
    assert validity._cell_rule(np.zeros((1024, 1024)), 0.0) == (0.0, 0, 0, True)
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("knots", [128, 256])
def test_two_increasing_decides_an_underflowing_grid_from_its_cells(knots):
    # PH over the exponential to r0_max 1000: S underflows to 0 far out, and
    # those zero cells sent the grid to the cubic scan; the cells decide it
    grid = GridSpec.default(knots=knots, r0_max=1000.0)
    rep = check_two_increasing(MO, grid)
    xs = grid.axis_points(E)
    value, i, j, k, l = rectangle_scan_running_max(MO.survival(xs[:, None], xs[None, :]))
    assert rep.verdict == VALID
    assert rep.diagnostics["min_rectangle_probability"] == value == 0.0
    assert rep.diagnostics["rectangle"] == [xs[i], xs[j], xs[k], xs[l]]


@pytest.mark.parametrize("knots", [8, 16, 48])
@pytest.mark.parametrize("model", [MOP, PHBivariateModel(W2, 0.7, 1.3, 0.4),
                                   GeneralBivariateModel(E, LinearFailureRate(0.2),
                                                         LinearFailureRate(0.2), 2.0),
                                   lfr_exp_model()],
                         ids=["ph-pareto", "ph-weibull2", "lfr0.2", "lfr1.5"])
def test_two_increasing_reports_rectangle_probability(model, knots):
    # the witness is a grid cell, rectangle_probability there prints the
    # reported value, which is negative where the row fails; and the rule
    # agrees with the oracles on the grid
    grid = GridSpec.default(knots=knots)
    rep = check_two_increasing(model, grid)
    a1, b1, a2, b2 = rep.diagnostics["rectangle"]
    xs = grid.axis_points(model.baseline).tolist()
    assert xs.index(b1) == xs.index(a1) + 1 and xs.index(b2) == xs.index(a2) + 1
    p = model.rectangle_probability(a1, b1, a2, b2)
    assert np.float64(rep.diagnostics["min_rectangle_probability"]).tobytes() == \
        np.float64(p).tobytes()
    assert (rep.verdict == VALID) == (p >= 0.0)
    s = np.asarray(model.survival(np.asarray(xs)[:, None], np.asarray(xs)[None, :]))
    assert _check_cell_rule(s)[3] == (rep.verdict == VALID)


def test_two_increasing_memory_is_quadratic():
    # the n^4 rectangle tensor took ~90 MB at 48 knots, where n x n arrays are
    # 18 KiB; the check keeps the survival grid, the pass's arrays and the
    # cell rule's few n x n arrays
    for knots in (48, 128, 256):
        grid = GridSpec.default(knots=knots)
        for model in (MO, lfr_exp_model()):
            check_two_increasing(model, grid)
            tracemalloc.start()
            try:
                check_two_increasing(model, grid)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            if knots == 48:
                assert peak < 1_000_000
            else:
                assert peak < 12 * knots**2 * 8  # 12 n^2 floats


# -- functional equation ------------------------------------------------------


def test_functional_equation_residuals():
    assert check_functional_equation(MOW).max_residual < 1e-9
    assert check_functional_equation(MOP).max_residual < 1e-9
    # the invalid model still satisfies the functional equation
    assert check_functional_equation(lfr_exp_model()).max_residual < 1e-9


@pytest.mark.parametrize("model", [oracles.GumbelTypeI(0.5), oracles.FGMExponential(0.5)],
                         ids=["gumbel", "fgm"])
def test_functional_equation_reports_a_non_members_largest_residual(model):
    # the check reads only baseline and log_survival, and takes the shift
    # from the model's own diagonal
    grid = GridSpec.default()
    xs, ts = grid.axis_points(E), grid.t_points(E)
    want, where = max((model.residual(a, b, t), (a, b, t)) for t in ts for a in xs for b in xs)
    got = check_functional_equation(model, grid)
    assert got.max_residual == pytest.approx(want, rel=1e-12)
    assert got.witness == tuple(float(v) for v in where)
    assert got.n_points == xs.size ** 2 * ts.size
    if isinstance(model, oracles.GumbelTypeI):
        assert got.witness == (8.0, 8.0, 4.0) and got.max_residual == pytest.approx(32.0)


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS) + ["gen-weibull2", "mo-pareto"])
def test_functional_equation_members_read_rounding(name, tmp_path):
    # at most 2^-40 of the largest |ln S| the check reads, a few thousand
    # units in its last place: a kernel that composes R0^{-1}, e^s - 1 over
    # Pareto, carries that map's rounding into ln S
    model = MOP if name == "mo-pareto" else _golden_model(name, tmp_path)
    grid = GridSpec.default()
    base = model.baseline
    far = float(base.combine(grid.axis_points(base)[-1], grid.t_points(base)[-1]))
    assert check_functional_equation(model, grid).max_residual <= (
        2.0**-40 * abs(model.log_survival(far, far)))


def test_functional_equation_identity_shift_is_exact_zero():
    rep = check_functional_equation(MOW, t_knots=[W2.x_L])
    assert rep.max_residual == 0.0


def test_shift_checks_refuse_an_empty_shift_set():
    # with no shift point there is no residual, and no witness to report
    no_shifts = GridSpec(r0_knots=GridSpec.default().r0_knots, t_r0_knots=())
    for check in (check_functional_equation, check_hazard_gradient_identity):
        with pytest.raises(DomainError, match="at least one shift point"):
            check(lfr_exp_model(), no_shifts)
    with pytest.raises(DomainError, match="at least one shift point"):
        check_functional_equation(MO, t_knots=[])
    # validation evaluates no shifts, so it still runs on that grid
    assert combined_validation(lfr_exp_model(), no_shifts).verdict == INVALID


@pytest.mark.parametrize("knots", [(1.0,), (1.0, 1.01)], ids=["one-knot", "within-margin"])
def test_gradient_identity_refuses_a_grid_without_off_diagonal_pairs(knots):
    # no knot pair is wedge_margin apart, so there is no point to shift
    grid = GridSpec(r0_knots=knots, t_r0_knots=(0.5,))
    with pytest.raises(DomainError, match="at least one grid point"):
        check_hazard_gradient_identity(PHBivariateModel(E, 1, 1, 1), grid)


_PARETO_GENERAL = GeneralBivariateModel(
    PAR, ProportionalHazard(PAR, 1.5),
    FromHazard.from_table([1.0, 2.0, 3.0, 5.0], [0.5, 1.0, 1.5, 2.0]), 3.0)


@pytest.mark.parametrize("r0_max", [709.0, 1000.0, 1e300])
@pytest.mark.parametrize("model", [PHBivariateModel(PAR, 1, 1, 1), _PARETO_GENERAL],
                         ids=["ph", "general"])
def test_shift_checks_leave_out_the_knots_that_overflow(r0_max, model):
    # over Pareto x (+) t = x t and R0^{-1}(s) = e^s: a knot whose image, or
    # whose image times t_max = e^4, passes the float range is left out, so
    # both checks read as they do on the grid of the other knots
    grid = GridSpec.default(knots=128, r0_max=r0_max)
    kept = sum(k + 4.0 < math.log(sys.float_info.max) for k in grid.r0_knots)
    assert 2 <= kept < 128
    sub = GridSpec(r0_knots=grid.r0_knots[:kept], t_r0_knots=grid.t_r0_knots)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for check in (check_functional_equation, check_hazard_gradient_identity):
            got = check(model, grid)
            assert got == check(model, sub) and math.isfinite(got.max_residual)


def test_gradient_identity_maps_each_shifted_pair_once(monkeypatch):
    # per shift: r0(t) once, the hazards of both coordinates in the
    # gradient's one map, and both again as the residual's divisors
    sizes = []
    original = Exponential.hazard

    def counting(self, x):
        sizes.append(np.size(x))
        return original(self, x)

    monkeypatch.setattr(Exponential, "hazard", counting)
    check_hazard_gradient_identity(PHBivariateModel(E, 1, 1, 1))
    assert (len(sizes), sum(sizes)) == (40, 7688)


@pytest.mark.parametrize("name", [*GOLDEN_CONFIGS, "counterexample"])
def test_gradient_identity_is_the_old_check_bit_for_bit(name, tmp_path):
    model = _golden_model(name, tmp_path)
    got, old = check_hazard_gradient_identity(model), gradient_identity(model)
    assert got.to_json_dict() == old.to_json_dict()  # max_residual, witness, n_points


# -- hazard gradient ----------------------------------------------------------


def test_hazard_gradient_examples():
    assert hazard_gradient(MO, 2.0, 1.0) == (2.0, 1.0)
    g = hazard_gradient(MOP, 4.0, 2.0)
    assert g[0] == pytest.approx(0.5, rel=1e-12)
    assert g[1] == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(DomainError):
        hazard_gradient(MO, 1.0, 1.0)


@pytest.mark.parametrize("model", [MO, MOW, MOP,
                                   PHBivariateModel(W2, 0.6, 1.7, 0.4)],
                         ids=["mo-exp", "mo-weib", "mo-pareto", "ph-weib"])
def test_hazard_gradient_agrees_with_finite_differences(model):
    base = model.baseline
    rng = np.random.default_rng(23)
    count = 0
    while count < 100:
        r1, r2 = rng.uniform(0.05, 4.0, size=2)
        if abs(r1 - r2) < 0.05:
            continue
        x1 = float(base.inverse_cumulative_hazard(r1))
        x2 = float(base.inverse_cumulative_hazard(r2))
        g = hazard_gradient(model, x1, x2)
        fd = fd_log_gradient(model.survival, x1, x2)
        assert g[0] == pytest.approx(fd[0], rel=1e-5, abs=1e-8)
        assert g[1] == pytest.approx(fd[1], rel=1e-5, abs=1e-8)
        count += 1


def test_gradient_identity_residuals():
    assert check_hazard_gradient_identity(MO).max_residual <= 1e-14
    assert check_hazard_gradient_identity(MOW).max_residual < 1e-8
    assert check_hazard_gradient_identity(MOP).max_residual < 1e-8


# -- survival reconstruction --------------------------------------------------


def test_reconstruction_matches_direct_survival():
    assert reconstruct_survival_from_gradient(MO, 1.0, 2.0) == pytest.approx(
        math.exp(-5.0), rel=1e-6)
    assert reconstruct_survival_from_gradient(MOW, 2.0, 1.0) == pytest.approx(
        math.exp(-9.0), rel=1e-6)
    assert reconstruct_survival_from_gradient(MO, 0.0, 0.0) == 1.0
    assert reconstruct_survival_from_gradient(MOP, 3.0, 5.0) == pytest.approx(
        MOP.survival(3.0, 5.0), rel=1e-6)


@pytest.mark.parametrize("model", [MO, MOP, lfr_exp_model(0.2, 2.0)], ids=["mo", "mop", "lfr"])
def test_reconstruction_where_quadrature_nodes_round_onto_a_piece_end(model):
    # on a piece a few ulps long, or right of x_L = 0, quad's nodes round
    # onto the diagonal, where the hazard gradient is refused
    xl = model.baseline.x_L
    up = math.nextafter(xl + 1.0, math.inf)
    for x1, x2 in ((math.nextafter(xl, math.inf), xl + 1.0), (xl + 1.0, up), (up, xl + 3.0)):
        assert reconstruct_survival_from_gradient(model, x1, x2) == pytest.approx(
            model.survival(x1, x2), rel=1e-9)


# -- hazard-rate qualification ------------------------------------------------


def test_hazard_rate_conditions_bphc_weibull_valid():
    alpha = 2.0
    base = Weibull(alpha)
    t1, t2, t3 = 1.0, 1.0, 1.0
    theta = t1 + t2 + t3

    def r1(x):
        return (t1 + t3) * alpha * x ** (alpha - 1.0)

    def r2(x):
        return (t2 + t3) * alpha * x ** (alpha - 1.0)

    rep = check_hazard_rate_conditions(r1, r2, base, theta)
    assert rep.verdict == VALID


def test_hazard_rate_conditions_lfr_witness():
    grid = GridSpec(r0_knots=(3.0, 5.0))
    lfr = LinearFailureRate(1.5)
    rep = check_hazard_rate_conditions(lfr, lfr, E, 3.0, grid)
    assert rep.verdict == INVALID
    by_id = {c.cid: c for c in rep.conditions}
    # condition (i) at (5, 3): lhs = 2*1.5*2 + 1 = 7 > theta = 3
    assert by_id["i"].passed is False
    assert by_id["i"].witness == (5.0, 3.0)
    assert by_id["i"].margin == pytest.approx(3.0 - 7.0, abs=1e-9)


def test_hazard_rate_conditions_constant_hazards_purely_ac():
    theta = 3.0
    rep = check_hazard_rate_conditions(lambda x: theta / 2.0, lambda x: theta / 2.0,
                                       E, theta)
    assert rep.verdict == VALID
    assert rep.diagnostics["alpha"] == pytest.approx(1.0, abs=1e-9)


def test_hazard_rate_conditions_truncated_table_inconclusive():
    # decaying tabulated hazard: every decidable condition passes but the
    # divergence heuristic cannot confirm an infinite total hazard
    from bisurv import FromHazard
    xs = np.linspace(0.0, 6.0, 25)
    hs = 1.5 * np.exp(-xs)
    theta = 2.5
    marg = FromHazard.from_table(xs, hs)
    rep = check_hazard_rate_conditions(marg, marg, E, theta)
    assert rep.verdict == INCONCLUSIVE
    by_id = {c.cid: c for c in rep.conditions}
    assert by_id["ii"].passed is None
    assert "heuristic" in by_id["ii"].note
    assert by_id["i"].passed is True
    assert by_id["iii"].passed is True
    assert by_id["iv"].passed is True


def test_marginal_conditions_over_a_bounded_total_hazard():
    # R0 stops at 1.5, so the divergence probes (R0 = 8 .. 128) have no
    # inverse; the marginal theorem never reads them and still reports
    from bisurv import CustomHazard
    base = CustomHazard.from_table([0.0, 1.0, 2.0], [1.0, 1.0, 0.0])
    model = GeneralBivariateModel(base, LinearFailureRate(0.5), LinearFailureRate(0.25), 1.0)
    rep = check_marginal_conditions(model, GridSpec(r0_knots=(0.1, 0.5, 1.0, 1.5)))
    assert [(c.cid, c.passed) for c in rep.conditions] == [("i", True), ("ii", False)]
    assert rep.verdict == INVALID


# -- counter-example simultaneity and consistency suites ----------------------


def test_counterexample_outcomes_hold_simultaneously():
    model = lfr_exp_model()
    rep = check_marginal_conditions(model)
    by_id = {c.cid: c for c in rep.conditions}
    assert by_id["i"].passed is False      # u1 + u2 = 2 < theta = 3
    assert by_id["ii"].passed is False     # cross-derivative bound fails
    assert check_two_increasing(model).verdict == INVALID
    assert check_functional_equation(model).max_residual < 1e-9


@pytest.mark.parametrize("base", [E, Weibull(0.5), W2, PAR],
                         ids=lambda b: b.spec_string())
def test_random_ph_models_pass_everything(base):
    rng = np.random.default_rng(321)
    for _ in range(3):
        t1, t2, t3 = rng.uniform(0.2, 3.0, size=3)
        model = PHBivariateModel(base, t1, t2, t3)
        assert check_marginal_conditions(model).verdict == VALID
        assert check_hazard_rate_conditions(
            model.marginal1, model.marginal2, base, model.theta).verdict == VALID
        assert check_two_increasing(model).verdict == VALID
        assert check_functional_equation(model).max_residual < 1e-9
        assert check_hazard_gradient_identity(model).max_residual < 1e-8


def test_combined_validation_merging():
    rep = combined_validation(MO)
    ids = [c.cid for c in rep.conditions]
    assert ids == ["marginal-i", "marginal-ii", "hazard-i", "hazard-ii", "two-increasing"]
    assert rep.verdict == VALID
    assert combined_validation(lfr_exp_model()).verdict == INVALID


def test_combined_validation_takes_each_diagonal_limit_once(monkeypatch):
    from bisurv import marginals
    calls = []
    original = marginals.limit_hazard_ratio

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(marginals, "limit_hazard_ratio", counting)
    model = lfr_exp_model(0.2, 2.0)
    rep = combined_validation(model)
    assert len(calls) == 2  # one per marginal, shared by both checks
    dec = model.decompose()
    assert len(calls) == 2  # the decomposition reads the same kernels
    assert (rep.diagnostics["u1"], rep.diagnostics["u2"]) == (dec.u1, dec.u2)

    combined_validation(MOW)
    MOW.decompose()
    assert len(calls) == 2  # PH kernels know u = delta exactly


def test_combined_validation_evaluates_the_grid_once(monkeypatch):
    # one q_slopes call per kernel serves the rows, the divergence probes and
    # the survival grid; the rectangles never go back through log_survival
    calls = []
    original = WedgeKernel.q_slopes

    def counting(self, *args):
        calls.append(self)
        return original(self, *args)

    def refused(*args):
        raise AssertionError("log_survival called")

    monkeypatch.setattr(WedgeKernel, "q_slopes", counting)
    for cls in (GeneralBivariateModel, PHBivariateModel):
        monkeypatch.setattr(cls, "log_survival", refused)
    for model in (lfr_exp_model(0.2, 2.0), MOW, lfr_exp_model()):
        calls.clear()
        combined_validation(model)
        assert calls == list(model.kernels)


def test_combined_validation_maps_each_knot_once(monkeypatch):
    # the baseline maps the n axis knots, not the n(n-1)/2 pairs: R0^{-1},
    # R0 and r0 once each, for the rows and the survival grid alike; PH
    # kernels over their own baseline map nothing else
    sizes = []
    for name in ("cumulative_hazard", "hazard", "inverse_cumulative_hazard"):
        def counting(self, x, original=getattr(Weibull, name)):
            sizes.append(np.size(x))
            return original(self, x)
        monkeypatch.setattr(Weibull, name, counting)
    n = 48
    grid = GridSpec.default(knots=n)
    for model in (MOW, GeneralBivariateModel(W2, ProportionalHazard(W2, 1.0),
                                             ProportionalHazard(W2, 2.5), 3.0)):
        sizes.clear()
        combined_validation(model, grid)
        assert sum(sizes) == 3 * n


def test_grid_pass_is_quiet_where_the_knots_overflow():
    # Pareto's R0^{-1}(s) = e^s is inf from s = 710: the pass leaves those
    # knots out, quietly, and here keeps one knot and no pair to decide
    grid = GridSpec.default(knots=8, r0_max=1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = combined_validation(MOP, grid)
    assert rep.verdict == INCONCLUSIVE
    assert rep.conditions[1].note == "all 56 grid points skipped"


def _survival_grid_models(tmp_path):
    """Every bench and golden config, and LFR over a table baseline and over
    Weibull(0.5), a table over Weibull(2) and PH over Pareto."""
    table = FromHazard.from_table(np.linspace(0.0, 10.0, 41),
                                  1.0 + 0.5 * np.exp(-np.linspace(0.0, 10.0, 41)))
    table_base = CustomHazard.from_table([0.0, 1.0, 2.5, 6.0], [1.0, 1.6, 1.1, 1.4])
    lfr = LinearFailureRate(0.3), LinearFailureRate(0.5)
    models = {**_VALID_BENCH_MODELS, "lfr0.2": lfr_exp_model(0.2, 2.0),
              "lfr1.5": lfr_exp_model(), "pareto111": MOP,
              "lfr-table-base": GeneralBivariateModel(table_base, *lfr, 2.5),
              "lfr-weibull0.5": GeneralBivariateModel(Weibull(0.5), *lfr, 2.0),
              "table-weibull2": GeneralBivariateModel(W2, table, ProportionalHazard(W2, 2.0),
                                                      3.0)}
    for name in (*GOLDEN_CONFIGS, "gen-weibull2"):
        models[name] = _golden_model(name, tmp_path)
    return models


@pytest.mark.parametrize("facts", [(), ("density", "gradient", "divergence")],
                         ids=["rectangles", "combined"])
def test_survival_grid_is_model_survival_bit_for_bit(facts, tmp_path):
    # S assembled from the pass's wedge values against the model's own array
    # survival, on grids whose top knots map to x = inf or R0 = inf as well
    for name, model in _survival_grid_models(tmp_path).items():
        for knots in (2, 3, 5, 8, 16, 17, 48, 128):
            for r0_max in (8.0, 1000.0, 1e300):
                grid = GridSpec(r0_knots=tuple(np.geomspace(0.05, r0_max, knots)))
                ev = validity._grid_pass(model.kernels, grid, facts)
                xs, got = validity._survival_grid(ev, model.theta)
                want = model.survival(xs[:, None], xs[None, :])
                assert got.tobytes() == want.tobytes(), (name, knots, r0_max)


_REPORT_BASELINES = {
    "exponential": E, "weibull0.5": Weibull(0.5), "weibull2": W2, "pareto": PAR,
    "table": CustomHazard.from_table([0.0, 1.0, 2.5, 6.0], [1.0, 1.6, 1.1, 1.4]),
    "callable": CustomHazard(lambda x: 1.0 + 0.2 * x),
}


@st.composite
def _report_cases(draw):
    """``(model, grid, tol)``: 2 to 64 log-spaced knots (16 over the
    callable baseline, whose maps are quadratures), a wedge margin of 0 or
    above the smallest knot spacing (up to one that leaves no pair), and PH,
    LFR (where the support starts at 0) or table marginals, some of whose
    points the rows skip; PH only over the callable baseline, where the
    others would map every pair by quadrature."""
    name = draw(st.sampled_from(list(_REPORT_BASELINES)))
    base = _REPORT_BASELINES[name]
    knots = np.geomspace(0.05, 8.0, draw(st.integers(2, 16 if name == "callable" else 64)))
    margin = draw(st.one_of(st.just(0.0), st.floats(float(np.diff(knots).min()), 8.0)))
    kinds = ["ph"] if name == "callable" else ["ph", "table"] + ["lfr"] * (base.x_L == 0.0)
    xs = base.x_L + np.linspace(0.0, 10.0, 41)
    marginals = []
    for kind in (draw(st.sampled_from(kinds)), draw(st.sampled_from(kinds))):
        if kind == "ph":
            marginals.append(ProportionalHazard(base, draw(st.floats(0.2, 3.0))))
        elif kind == "lfr":
            marginals.append(LinearFailureRate(draw(st.floats(0.05, 2.0))))
        else:
            # a wiggle beyond 1 has zero hazard, where Q' = 0 and the rows
            # skip the point; the tail is flat, so the density decays
            level, wiggle = draw(st.floats(0.5, 2.0)), draw(st.floats(-2.0, 2.0))
            hs = level * np.maximum(1.0 + wiggle * np.sin(2.0 * xs) * (xs < 5.0), 0.0)
            marginals.append(FromHazard.from_table(xs, hs))
    model = GeneralBivariateModel(base, *marginals, draw(st.floats(1.0, 4.0)))
    grid = GridSpec(r0_knots=tuple(knots), wedge_margin=margin, t_r0_knots=(0.5,))
    return model, grid, draw(st.sampled_from([None, 1e-6]))


def _report_bytes(fn, *args):
    """The JSON of ``fn(*args).to_json_dict()``, or its error."""
    import json
    try:
        return json.dumps(fn(*args).to_json_dict(), sort_keys=True)
    except Exception as exc:  # compared, never swallowed
        return type(exc), str(exc)


@settings(max_examples=80, deadline=None)
@given(case=_report_cases())
def test_reports_are_the_pairwise_row_path_byte_for_byte(case):
    # the rows from n knot maps against the rows that mapped every pair
    model, grid, tol = case
    m1, m2, base, theta = model.marginal1, model.marginal2, model.baseline, model.theta
    assert _report_bytes(combined_validation, model, grid, tol) == \
        _report_bytes(oracles.validation, model, grid, tol)
    assert _report_bytes(check_marginal_conditions, model, grid, tol) == \
        _report_bytes(oracles.marginal_conditions, model, grid, tol)
    assert _report_bytes(check_hazard_rate_conditions, m1, m2, base, theta, grid, tol) == \
        _report_bytes(oracles.hazard_rate_conditions, m1, m2, base, theta, grid, tol)


def _seeded_models(base, rng):
    """PH, LFR (where the support starts at 0) and hazard-table models over
    ``base``, valid or not, with parameters drawn from ``rng``."""
    from bisurv import FromHazard
    xs = base.x_L + np.linspace(0.0, 10.0, 41)
    models = []
    for _ in range(2):
        models.append(PHBivariateModel(base, *rng.uniform(0.2, 3.0, size=3)))
        if base.x_L == 0.0:
            a1, a2 = rng.uniform(0.05, 2.0, size=2)
            models.append(GeneralBivariateModel(base, LinearFailureRate(a1),
                                                LinearFailureRate(a2), rng.uniform(1.0, 4.0)))
        level, wiggle, freq = rng.uniform(0.5, 2.0), rng.uniform(-0.6, 0.6), rng.uniform(0.5, 4.0)
        table = FromHazard.from_table(xs, level * (1.0 + wiggle * np.sin(freq * xs)))
        models.append(GeneralBivariateModel(base, table,
                                            ProportionalHazard(base, rng.uniform(0.5, 2.0)),
                                            rng.uniform(1.0, 4.0)))
    return models


#: merged row id -> (public report, that report's id)
_MERGED_ROWS = {"marginal-i": ("marginal", "i"), "marginal-ii": ("marginal", "ii"),
                "hazard-i": ("hazard", "i"), "hazard-ii": ("hazard", "ii"),
                "two-increasing": ("rectangles", "two-increasing")}


@pytest.mark.parametrize("base", [E, Weibull(0.5), W2, PAR], ids=lambda b: b.spec_string())
def test_combined_validation_agrees_with_the_public_checks(base):
    rng = np.random.default_rng(1729)
    verdicts = set()
    for model in _seeded_models(base, rng):
        merged = combined_validation(model)
        public = {
            "marginal": check_marginal_conditions(model),
            "hazard": check_hazard_rate_conditions(model.marginal1, model.marginal2,
                                                   base, model.theta),
            "rectangles": check_two_increasing(model),
        }
        rows = {name: {c.cid: c.to_json_dict() for c in rep.conditions}
                for name, rep in public.items()}
        assert [c.cid for c in merged.conditions] == list(_MERGED_ROWS)
        for c in merged.conditions:
            name, cid = _MERGED_ROWS[c.cid]
            assert {**c.to_json_dict(), "id": cid} == rows[name][cid]
        everything = [c for rep in public.values() for c in rep.conditions]
        assert merged.verdict == validity._combine_verdict(everything)
        # a failing two-increasing row names a cell that rect shows negative
        cell = public["rectangles"].diagnostics
        if public["rectangles"].verdict == INVALID:
            p = model.rectangle_probability(*cell["rectangle"])
            assert p == cell["min_rectangle_probability"] < 0.0
        # hazard-rate (iii) is marginal (ii)'s row under another id
        assert {**rows["hazard"]["iii"], "id": "ii"} == rows["marginal"]["ii"]
        assert rows["marginal"]["ii"]["pass"] == rows["hazard"]["iii"]["pass"]
        verdicts.add(merged.verdict)
    assert INVALID in verdicts


class _FixedLimit:
    """Stub kernel whose diagonal limit ``u`` is a value or raises."""

    def __init__(self, u):
        self._u = u

    @property
    def u(self):
        if isinstance(self._u, Exception):
            raise self._u
        return self._u


def test_weight_condition_undecided_limit_is_inconclusive():
    err = NumericError("limit did not settle")
    cond, us, alpha = validity._weight_condition("i", [_FixedLimit(1.0), _FixedLimit(err)],
                                                 2.0)
    assert (cond.cid, cond.passed, cond.margin, cond.witness) == ("i", None, None, None)
    assert cond.note == "limit did not settle"
    assert (us, alpha) == ([1.0, None], None)


def test_weight_condition_divergent_limit_fails():
    cond, us, alpha = validity._weight_condition(
        "iv", [_FixedLimit(math.inf), _FixedLimit(1.0)], 2.0, names=("v1", "v2"))
    assert (cond.cid, cond.passed, cond.margin) == ("iv", False, -math.inf)
    assert cond.note == "v1+v2 diverges"
    assert (us, alpha) == ([math.inf, 1.0], None)


def test_hazard_rate_conditions_accept_wedge_kernels():
    m = LinearFailureRate(0.4)
    by_marginal = check_hazard_rate_conditions(m, m, E, 2.5)
    by_kernel = check_hazard_rate_conditions(WedgeKernel(m, E), WedgeKernel(m, E), E, 2.5)
    assert by_kernel.to_json_dict() == by_marginal.to_json_dict()
    with pytest.raises(ModelError):
        check_hazard_rate_conditions(WedgeKernel(m, E), m, W2, 2.5)


def test_report_serialization_round_trip():
    import json
    rep = combined_validation(MO)
    payload = rep.to_json_dict()
    text = json.dumps(payload, indent=2)
    parsed = json.loads(text)
    assert parsed["verdict"] == VALID
    assert {c["id"] for c in parsed["conditions"]} == {c.cid for c in rep.conditions}
    table = rep.to_table()
    assert "no violation found on grid" in table


def test_grid_bound_condition_all_points_skipped_is_inconclusive():
    from bisurv.validity import _grid_bound_condition
    nanline = np.full(4, math.nan)
    pts = (np.arange(4.0) + 1.0, np.arange(4.0))
    cond = _grid_bound_condition("ii", "cross-derivative-bound",
                                 [nanline], np.ones(4), *pts)
    assert cond.passed is None
    assert "skipped" in cond.note


def test_tolerance_override_loosens_two_increasing():
    model = lfr_exp_model()
    grid = GridSpec(r0_knots=(1.0, 2.0, 3.0, 5.0))
    assert check_two_increasing(model, grid).verdict == INVALID
    # the worst rectangle is ~ -1.9e-4; an (absurdly) loose tolerance passes
    assert check_two_increasing(model, grid, tol=1e-3).verdict == VALID


def _cross_statistic(kernel, hi, lo):
    """Condition (ii)'s left side ``r0(lo) (Q' - Q''/Q')`` at the pairs (hi, lo)."""
    base = kernel.baseline
    q1, q2 = kernel.slopes(base.cumulative_hazard(hi) - base.cumulative_hazard(lo))
    return base.hazard(lo) * (q1 - q2 / q1)


def test_cross_derivative_analytic_agrees_with_fd_fallback():
    # same hazard expressed twice: once with analytic derivatives (LFR),
    # once as a bare handle that forces the finite-difference fallback
    from bisurv import FromHazard
    a = 1.5
    lfr = WedgeKernel(LinearFailureRate(a), E)
    handle = WedgeKernel(FromHazard(lambda x: 1.0 + 2.0 * a * x), E)
    hi = np.array([1.0, 2.5, 5.0, 7.0])
    lo = np.array([0.3, 1.0, 3.0, 0.5])
    analytic = _cross_statistic(lfr, hi, lo)
    fallback = _cross_statistic(handle, hi, lo)
    np.testing.assert_allclose(fallback, analytic, rtol=1e-5)
    # sanity: at (5, 3) the exact statistic is 1 + 2ad - 2a/(1+2ad), d = 2
    exact = 1.0 + 2.0 * a * 2.0 - 2.0 * a / (1.0 + 2.0 * a * 2.0)
    point = _cross_statistic(lfr, np.array([5.0]), np.array([3.0]))
    assert point[0] == pytest.approx(exact, rel=1e-12)


def test_ph_shortcut_agrees_with_fd_fallback_over_weibull():
    from bisurv import FromHazard
    base = W2
    delta = 1.7
    ph = WedgeKernel(ProportionalHazard(base, delta), base)
    handle = WedgeKernel(FromHazard(lambda x: delta * 2.0 * x), base)
    assert ph.delta == delta and handle.delta is None
    hi = np.array([1.5, 2.5, 3.5])
    lo = np.array([0.5, 1.2, 2.0])
    np.testing.assert_allclose(_cross_statistic(handle, hi, lo),
                               _cross_statistic(ph, hi, lo), rtol=1e-5)
    s = base.cumulative_hazard(hi) - base.cumulative_hazard(lo)
    q1_a, q2_a = ph.slopes(s)
    q1_f, q2_f = handle.slopes(s)
    np.testing.assert_allclose(q1_f, q1_a, rtol=1e-8)
    np.testing.assert_allclose(q2_f, q2_a, atol=1e-5)
    np.testing.assert_allclose(handle.q(s), ph.q(s), rtol=1e-8)


def test_reconstruction_and_gradient_on_valid_non_ph_model():
    from bisurv import FromHazard
    m1 = FromHazard(lambda x: 1.0 + 0.5 * (1.0 - math.exp(-x)))
    m2 = ProportionalHazard(E, 1.4)
    model = GeneralBivariateModel(E, m1, m2, 2.0)
    assert combined_validation(model).verdict == VALID
    for x1, x2 in ((0.7, 1.9), (2.2, 0.4), (1.0, 3.0), (4.0, 1.5)):
        direct = model.survival(x1, x2)
        assert reconstruct_survival_from_gradient(model, x1, x2) == \
            pytest.approx(direct, rel=1e-6)
        g = hazard_gradient(model, x1, x2)
        fd = fd_log_gradient(model.survival, x1, x2)
        assert g[0] == pytest.approx(fd[0], rel=1e-5)
        assert g[1] == pytest.approx(fd[1], rel=1e-5)
