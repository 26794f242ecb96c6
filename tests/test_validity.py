import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bisurv import (
    DomainError,
    Exponential,
    GeneralBivariateModel,
    GridSpec,
    LinearFailureRate,
    ModelError,
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
    _min_rectangle,
    lfr_exponential_cross_bound,
)
from oracles import fd_log_gradient, rectangle_scan_tensor

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


def test_wedge_pairs_keep_the_double_loop_order():
    grid = GridSpec(r0_knots=(0.1, 0.11, 0.5, 0.52, 2.0, 6.0), wedge_margin=0.05)
    xs = grid.axis_points(W2)
    knots = grid.r0_knots
    expected = [(xs[j], xs[k]) for j in range(len(knots)) for k in range(j)
                if knots[j] - knots[k] >= grid.wedge_margin]
    hi, lo = grid.wedge_pairs(W2)
    assert list(zip(hi.tolist(), lo.tolist())) == expected
    assert len(expected) == 13  # two of the 15 pairs lie within the margin


# -- marginal qualification conditions ---------------------------------------


def test_marginal_conditions_lfr_exp_invalid():
    rep = check_marginal_conditions(lfr_exp_model())
    assert rep.verdict == INVALID
    by_id = {c.cid: c for c in rep.conditions}
    assert by_id["i"].passed is False
    assert by_id["i"].margin == pytest.approx(-1.0, abs=1e-6)  # u1+u2 = 2 vs theta 3
    assert by_id["ii"].passed is False
    assert by_id["u-constancy"].passed is True
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
        assert (rep.verdict == VALID) == (direct_min >= -1e-9)
        assert rep.diagnostics["min_rectangle_probability"] == pytest.approx(
            direct_min, rel=1e-12, abs=1e-15)


@st.composite
def _survival_matrices(draw):
    """Square matrices for the rectangle scan: random, heavily tied, decimal
    (sums of tenths round differently in the screen's separable form, so
    near-ties split by rounding), all zero, PH-shaped with one entry bumped
    up, which makes negative rectangles, or random with one NaN, infinite or
    huge entry (the scan's unscreened path)."""
    n = draw(st.integers(2, 14))
    kind = draw(st.sampled_from(["random", "tied", "decimal", "zero", "negative", "nonfinite"]))
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
    s[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] += draw(st.floats(1e-12, 0.1))
    return s


@settings(max_examples=300, deadline=None)
@given(s=_survival_matrices())
# the exact minimum -0.1 at (0, 1, 0, 1) screens as -0.09999999999999998,
# above the screened minimum at (1, 2, 1, 2)
@example(s=np.array([[0.7, 0.6, 0.1], [0.3, 0.1, 0.6], [0.3, 0.2, 0.6]]))
# the only rectangle is +inf: the tensor's argmin returns its first entry
@example(s=np.array([[math.inf, 0.0], [0.0, 0.0]]))
def test_rectangle_scan_matches_tensor_scan_bit_for_bit(s):
    with np.errstate(invalid="ignore", over="ignore"):
        ref_value, *ref_witness = rectangle_scan_tensor(s)
        # below 14 knots one exact pass takes every pair; a 1-value chunk
        # makes the scan screen every matrix and merge one pair at a time
        for chunk in (validity._RECT_CHUNK, 1):
            with mock.patch.object(validity, "_RECT_CHUNK", chunk):
                value, *witness = _min_rectangle(s)
            assert witness == ref_witness
            assert np.float64(value).tobytes() == np.float64(ref_value).tobytes()


def test_two_increasing_memory_is_quadratic():
    # the n^4 rectangle tensor took ~90 MB here; n x n arrays are 18 KiB
    grid = GridSpec.default(knots=48)
    for model in (MO, lfr_exp_model()):
        check_two_increasing(model, grid)
        tracemalloc.start()
        try:
            check_two_increasing(model, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


# -- functional equation ------------------------------------------------------


def test_functional_equation_residuals():
    assert check_functional_equation(MOW).max_residual < 1e-9
    assert check_functional_equation(MOP).max_residual < 1e-9
    # the invalid model still satisfies the functional equation
    assert check_functional_equation(lfr_exp_model()).max_residual < 1e-9


def test_functional_equation_identity_shift_is_exact_zero():
    rep = check_functional_equation(MOW, t_knots=[W2.x_L])
    assert rep.max_residual == 0.0


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
    assert ids == ["marginal-i", "marginal-ii", "marginal-u-constancy",
                   "hazard-i", "hazard-ii", "hazard-iii", "hazard-iv",
                   "two-increasing"]
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
    assert (rep.diagnostics["u1"], rep.diagnostics["v2"]) == (dec.u1, dec.u2)

    combined_validation(MOW)
    MOW.decompose()
    assert len(calls) == 2  # PH kernels know u = delta exactly


class _AnchorRows:
    """Stub kernel over the exponential baseline whose anchored samples are
    given row by row: ``Q = 0`` and ``Q'`` at anchor ``i`` is ``rows[i]``."""

    delta = None
    baseline = E

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=float)

    def q_slopes(self, s, second=True):
        return np.zeros(np.shape(s)), np.broadcast_to(self.rows, np.shape(s)).copy(), None


#: 8 step-halved samples that settle on 1.0 (Richardson is exact on them)
_SETTLES = 1.0 + 0.5 ** np.arange(8)
#: 8 samples no accelerator settles
_ERRATIC = 1.0 + np.array([0.3, -0.1, 0.7, 0.2, -0.5, 0.4, 0.1, -0.6])


def _anchor_rows(n, **overrides):
    rows = np.tile(_SETTLES, (n, 1))
    for i, row in overrides.items():
        rows[int(i[1:])] = row
    return rows


def test_constancy_probe_unsettled_anchor_is_inconclusive():
    grid = GridSpec.default()
    anchors = grid.axis_points(E)
    n = len(anchors)
    spread = _AnchorRows(_anchor_rows(n, a2=_SETTLES * 1.01))
    bad = _AnchorRows(_anchor_rows(n, a3=np.full(8, math.nan), a7=_ERRATIC, a9=_ERRATIC))
    cond = validity._constancy_condition([spread, bad], grid, [1.0, 1.0])
    # marginal 1 varies, but the first anchor of marginal 2 that does not
    # settle (a NaN row counts) decides the outcome
    assert (cond.cid, cond.passed, cond.margin) == ("u-constancy", None, None)
    assert cond.witness == (float(anchors[3]), float(anchors[3]))
    assert cond.note == "anchored limit for marginal 2 did not converge"
    cond = validity._constancy_condition([_AnchorRows(_anchor_rows(n, a9=_ERRATIC)), bad],
                                         grid, [1.0, 1.0])
    assert cond.witness == (float(anchors[9]), float(anchors[9]))
    assert cond.note == "anchored limit for marginal 1 did not converge"


def test_constancy_probe_spread_names_the_worst_anchor():
    grid = GridSpec.default()
    anchors = grid.axis_points(E)
    n = len(anchors)
    first = _AnchorRows(_anchor_rows(n, a4=_SETTLES * (1 + 1.5e-4)))
    second = _AnchorRows(_anchor_rows(n, a6=_SETTLES * (1 - 3e-4), a11=_SETTLES * (1 + 2.5e-4)))
    cond = validity._constancy_condition([first, second], grid, [1.0, 1.0])
    assert cond.passed is None
    assert cond.witness == (float(anchors[6]), float(anchors[6]))
    assert cond.margin == pytest.approx(1e-4 - 3e-4, rel=1e-6)
    assert cond.note == "diagonal limits vary across anchors (relative spread 0.0003)"
    # within the tolerance the probe passes with its slack
    close = _AnchorRows(_anchor_rows(n, a4=_SETTLES * (1 + 5e-5)))
    cond = validity._constancy_condition([close, close], grid, [1.0, 1.0])
    assert (cond.passed, cond.witness) == (True, None)
    assert cond.margin == pytest.approx(1e-4 - 5e-5, rel=1e-6)


def test_constancy_probe_skips_unavailable_limits():
    grid = GridSpec.default()
    rows = _AnchorRows(_anchor_rows(len(grid.r0_knots)))
    for us in ([None, 1.0], [1.0, math.inf]):
        cond = validity._constancy_condition([rows, rows], grid, us)
        assert (cond.passed, cond.witness, cond.margin) == (None, None, None)
        assert cond.note == "skipped: diagonal limits unavailable"


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
