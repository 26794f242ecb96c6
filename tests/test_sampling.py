import io
import math

import numpy as np
import pytest
from scipy import stats

from bisurv import (
    DomainError,
    Exponential,
    FromHazard,
    GeneralBivariateModel,
    InvalidModelError,
    LinearFailureRate,
    PHBivariateModel,
    ProportionalHazard,
    Weibull,
    sample_general,
    sample_ph,
)
from bisurv import sampling
from oracles import LinearHazardTable, exponential_wedge_tail

E = Exponential()
MO = PHBivariateModel(E, 1.0, 1.0, 1.0)


def three_se(p: float, n: int) -> float:
    return 3.0 * math.sqrt(p * (1.0 - p) / n)


def test_determinism():
    a = sample_ph(MO, 5000, 424242)
    b = sample_ph(MO, 5000, 424242)
    assert np.array_equal(a.x1, b.x1) and np.array_equal(a.x2, b.x2)
    c = sample_general(MO, 5000, 424242)
    d = sample_general(MO, 5000, 424242)
    assert np.array_equal(c.x1, d.x1) and np.array_equal(c.x2, d.x2)
    # different seeds differ
    assert not np.array_equal(a.x1, sample_ph(MO, 5000, 424243).x1)


def test_single_draw_and_fields():
    b = sample_ph(MO, 1, 7)
    assert b.n == 1 and len(b.pairs) == 1 and b.seed == 7
    assert b.tie_count in (0, 1)


def test_ties_are_bit_exact():
    b = sample_ph(MO, 20000, 99)
    tied = b.tied
    assert b.tie_count == int(np.sum(tied))
    assert np.all(b.x1[tied] == b.x2[tied])
    g = sample_general(MO, 20000, 99)
    assert np.all(g.x1[g.tied] == g.x2[g.tied])


def test_tie_frequency_matches_singular_mass():
    b = sample_ph(MO, 100000, 2023)
    assert b.tie_count / b.n == pytest.approx(1.0 / 3.0, abs=0.01)
    g = sample_general(MO, 100000, 2024)
    assert g.tie_count / g.n == pytest.approx(1.0 / 3.0,
                                              abs=three_se(1.0 / 3.0, g.n))


@pytest.mark.parametrize("base", [E, Weibull(2.0)], ids=lambda b: b.spec_string())
def test_marginal_survival_at_probe_points(base):
    model = PHBivariateModel(base, 0.8, 1.1, 0.6)
    n = 100000
    b = sample_ph(model, n, 314159)
    for r in (0.5, 1.0, 2.0):
        x = float(base.inverse_cumulative_hazard(r))
        p = model.marginal1.survival(x)
        emp = float(np.mean(b.x1 > x))
        assert emp == pytest.approx(p, abs=three_se(p, n))


def test_general_sampler_wedge_masses():
    n = 100000
    g = sample_general(MO, n, 555)
    below = float(np.mean(g.x1 > g.x2))
    above = float(np.mean(g.x2 > g.x1))
    tied = g.tie_count / n
    for frac in (below, above, tied):
        assert frac == pytest.approx(1.0 / 3.0, abs=three_se(1.0 / 3.0, n))


def test_general_sampler_agrees_with_latent_sampler():
    n = 100000
    a = sample_ph(MO, n, 1001)
    g = sample_general(MO, n, 2002)
    for x1 in (0.5, 1.0, 2.0):
        for x2 in (0.5, 1.0, 2.0):
            pa = float(np.mean((a.x1 > x1) & (a.x2 > x2)))
            pg = float(np.mean((g.x1 > x1) & (g.x2 > x2)))
            phat = 0.5 * (pa + pg)
            se = math.sqrt(max(phat * (1 - phat), 1e-12) * 2.0 / n)
            assert abs(pa - pg) <= 3.0 * se


def test_purely_singular_model_emits_only_ties():
    model = GeneralBivariateModel(
        E, ProportionalHazard(E, 2.0), ProportionalHazard(E, 2.0), 2.0)
    g = sample_general(model, 1000, 8)
    assert g.tie_count == g.n


def test_invalid_weight_rejected():
    m = LinearFailureRate(1.5)
    model = GeneralBivariateModel(E, m, m, 3.0)
    with pytest.raises(InvalidModelError):
        sample_general(model, 100, 1)


def test_argument_validation():
    with pytest.raises(DomainError):
        sample_ph(MO, 0, 1)
    with pytest.raises(DomainError):
        sample_ph(MO, -5, 1)
    with pytest.raises(DomainError):
        sample_ph(MO, 10, -1)
    with pytest.raises(DomainError):
        sample_ph(MO, 10, 2**64)
    # refused before anything is allocated
    for sampler in (sample_ph, sample_general):
        with pytest.raises(DomainError, match="at most"):
            sampler(MO, sampling.MAX_PAIRS + 1, 1)


def test_csv_output_format():
    b = sample_ph(MO, 50, 3)
    buf = io.StringIO()
    b.write_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "x1,x2,tied"
    assert len(lines) == 51
    ties = 0
    for line in lines[1:]:
        x1s, x2s, ts = line.split(",")
        x1, x2, t = float(x1s), float(x2s), int(ts)
        assert t in (0, 1)
        assert (x1 == x2) == bool(t)
        ties += t
    assert ties == b.tie_count


def test_general_sampler_on_nontrivial_general_model():
    # valid non-PH model: a bounded-hazard marginal (ratio to the baseline
    # hazard stays in [1, 1.5]) paired with a PH marginal
    from bisurv import FromHazard, check_marginal_conditions
    m1 = FromHazard(lambda x: 1.0 + 0.5 * (1.0 - math.exp(-x)))
    m2 = ProportionalHazard(E, 1.4)
    model = GeneralBivariateModel(E, m1, m2, 2.0)
    assert check_marginal_conditions(model).verdict == "Valid"
    n = 50000
    g = sample_general(model, n, 10)
    # empirical joint survival vs the model at a few probes
    for x1, x2 in ((0.5, 0.5), (1.0, 0.3), (0.2, 1.2)):
        p = model.survival(x1, x2)
        emp = float(np.mean((g.x1 > x1) & (g.x2 > x2)))
        assert emp == pytest.approx(p, abs=three_se(p, n))


def test_custom_baseline_ties_are_exact_and_repeatable():
    # regression: the integrator cache must not make inverse values depend
    # on query history, or ties sampled through it lose bit-exactness
    from bisurv import CustomHazard
    base = CustomHazard(lambda x: 0.5 + x)
    model = PHBivariateModel(base, 1.0, 1.0, 1.0)
    a = sample_ph(model, 2000, 3)
    assert a.tie_count / a.n == pytest.approx(1.0 / 3.0, abs=0.04)
    assert np.all(a.x1[a.tied] == a.x2[a.tied])
    b = sample_ph(model, 2000, 3)  # same model object, warmed cache
    assert np.array_equal(a.x1, b.x1) and np.array_equal(a.x2, b.x2)


def test_rectangle_straddling_diagonal_includes_tie_mass():
    # a square around the diagonal carries singular mass; the empirical
    # frequency must match the inclusion-exclusion value, not just the AC part
    n = 200000
    b = sample_ph(MO, n, 6061)
    a, c = 0.5, 1.5
    p = MO.rectangle_probability(a, c, a, c)
    emp = float(np.mean((b.x1 > a) & (b.x1 <= c) & (b.x2 > a) & (b.x2 <= c)))
    assert emp == pytest.approx(p, abs=three_se(p, n))
    # and the tied sub-mass alone matches the diagonal component
    tied_in = float(np.mean(b.tied & (b.x1 > a) & (b.x1 <= c)))
    sing = (MO.singular_survival(a) - MO.singular_survival(c)) \
        * MO.decompose().singular_mass
    assert tied_in == pytest.approx(sing, abs=three_se(sing, n))


#: marginal hazard 1 + 0.5 e^{-x} tabulated on [0, 10]: over the exponential
#: baseline with theta = 3 its wedge density is positive, and u = 1.5
TABLE_X = [10.0 * i / 199 for i in range(200)]
TABLE_H = [1.0 + 0.5 * math.exp(-x) for x in TABLE_X]


def _table_model():
    marginal = FromHazard.from_table(TABLE_X, TABLE_H)
    return GeneralBivariateModel(E, marginal, ProportionalHazard(E, 2.0), 3.0)


#: the wedge tail oracles of the two kernels of ``_table_model``: the table,
#: and the PH marginal as a constant hazard of 2
ORACLES = {"table": (LinearHazardTable(TABLE_X, TABLE_H), 0),
           "ph": (LinearHazardTable([0.0, 1.0], [2.0, 2.0]), 1)}


def _oracle_quantile(table, theta, p):
    """s with oracle CDF 1 - G(s)/G(0) = p, by bisection."""
    g0 = exponential_wedge_tail(table, theta, 0.0)
    lo, hi = 0.0, 1.0
    while 1.0 - exponential_wedge_tail(table, theta, hi) / g0 < p:
        hi *= 2.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if 1.0 - exponential_wedge_tail(table, theta, mid) / g0 < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("kernel", sorted(ORACLES))
def test_wedge_draws_follow_oracle_cdf(kernel):
    table, wedge = ORACLES[kernel]
    g = sample_general(_table_model(), 20000, 4242)
    # over the exponential baseline s = |x1 - x2|; the table is marginal 1,
    # so its draws are the pairs with x1 > x2
    on_wedge = g.x1 > g.x2 if wedge == 0 else g.x2 > g.x1
    s = np.abs(g.x1 - g.x2)[on_wedge]
    g0 = exponential_wedge_tail(table, 3.0, 0.0)
    cdf = np.vectorize(lambda v: 1.0 - exponential_wedge_tail(table, 3.0, v) / g0)
    assert stats.kstest(s, cdf).pvalue > 1e-3
    for p in (0.1, 0.5, 0.9):
        emp = float(np.mean(s <= _oracle_quantile(table, 3.0, p)))
        assert emp == pytest.approx(p, abs=three_se(p, s.size))


@pytest.mark.parametrize("kernel", sorted(ORACLES))
def test_wedge_draws_meet_residual_bound(kernel):
    table, wedge = ORACLES[kernel]
    model = _table_model()
    k = model.kernels[wedge]
    tail = np.concatenate([1.0 - np.random.default_rng(77).random(2000),
                           [1.0, 0.5, 2.0**-53]])
    s = sampling._draw_s(k, 3.0, sampling._tail_table(k, 3.0), tail)
    t = exponential_wedge_tail(table, 3.0, 0.0) * tail
    got = np.array([exponential_wedge_tail(table, 3.0, v) for v in s])
    # the oracle and the library round differently by ~1e-15 of G
    assert np.all(np.abs(got - t) <= 1.001 * sampling._TAIL_RTOL * t)
    assert s[-3] == 0.0


def test_wedge_tail_inverts_the_baseline_once_per_point(monkeypatch):
    # on a callable baseline every inverted element is a root solve
    base = Weibull(2.0)
    kernel = GeneralBivariateModel(base, LinearFailureRate(0.25), ProportionalHazard(base, 1.2),
                                   3.0).kernels[0]
    s = np.linspace(0.01, 6.0, 50)
    q, (q1, q2) = kernel.q(s), kernel.slopes(s)
    inverted = []
    inverse = Weibull.inverse_cumulative_hazard

    def counted(self, v):
        inverted.append(np.size(v))
        return inverse(self, v)

    monkeypatch.setattr(Weibull, "inverse_cumulative_hazard", counted)
    g, h = sampling._wedge_tail(kernel, 3.0, s)
    assert sum(inverted) == s.size
    e = np.exp(-q)
    assert np.array_equal(g, (3.0 - q1) * e)
    assert np.array_equal(h, (3.0 * q1 + q2 - q1 * q1) * e)


@pytest.mark.parametrize("a, root", [(0.2, 2.5), (0.05, 10.0)])
def test_negative_wedge_tail_refused_at_first_node_past_root(a, root):
    # lfr:a over the exponential at theta = 2: Q' = 1 + 2as exceeds theta
    # past s = (theta - 1) / (2a); the witness is the first table node there
    m = LinearFailureRate(a)
    model = GeneralBivariateModel(E, m, m, 2.0)
    with pytest.raises(InvalidModelError, match="Q'") as info:
        sample_general(model, 100, 1)
    node_gap = (1.0 + root) ** 2 / (sampling._TAIL_NODES - 1)
    assert root < info.value.witness <= root + 1.01 * node_gap
    assert info.value.value < 0.0


def test_rising_wedge_tail_refused():
    # the hazard drops from 1.5 to 0.5 over [1, 1.01]: there Q'' = -100, so
    # h < 0 although Q' < theta, and G rises
    marginal = FromHazard.from_table([0.0, 1.0, 1.01, 10.0], [1.5, 1.5, 0.5, 0.5])
    model = GeneralBivariateModel(E, marginal, ProportionalHazard(E, 2.0), 3.0)
    with pytest.raises(InvalidModelError, match="rises") as info:
        sample_general(model, 100, 1)
    assert 1.0 < info.value.witness < 1.01 + 4.0 / (sampling._TAIL_NODES - 1)
