import hashlib
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from bisurv import (
    BisurvError,
    CustomHazard,
    DomainError,
    Exponential,
    FromHazard,
    GeneralBivariateModel,
    InvalidModelError,
    LinearFailureRate,
    NumericError,
    Pareto,
    PHBivariateModel,
    ProportionalHazard,
    SamplerError,
    Weibull,
    sample_general,
    sample_ph,
)
from bisurv import marginals, sampling
from bisurv.config import load_model_config
from bisurv.marginals import WedgeKernel
import oracles
from oracles import (
    LinearHazardTable,
    exponential_wedge_tail,
    tail_table,
    wedge_density,
    wedge_tail,
)
from test_cli_golden import CONFIGS as GOLDEN_CONFIGS
from test_cli_golden import _write_config

E = Exponential()
MO = PHBivariateModel(E, 1.0, 1.0, 1.0)
#: MO's law through composed kernels (a hazard table of constant 2 per
#: marginal), which the wedge inverter draws rather than the latent races
TABLE_2 = FromHazard.from_table([0.0, 1.0], [2.0, 2.0])
MO_INVERTED = GeneralBivariateModel(E, TABLE_2, TABLE_2, 3.0)


def three_se(p: float, n: int) -> float:
    return 3.0 * math.sqrt(p * (1.0 - p) / n)


def test_determinism():
    a = sample_ph(MO, 5000, 424242)
    b = sample_ph(MO, 5000, 424242)
    assert np.array_equal(a.x1, b.x1) and np.array_equal(a.x2, b.x2)
    c = sample_general(MO_INVERTED, 5000, 424242)
    d = sample_general(MO_INVERTED, 5000, 424242)
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
    g = sample_general(MO_INVERTED, 20000, 99)
    assert np.all(g.x1[g.tied] == g.x2[g.tied])


def test_tie_frequency_matches_singular_mass():
    b = sample_ph(MO, 100000, 2023)
    assert b.tie_count / b.n == pytest.approx(1.0 / 3.0, abs=0.01)
    g = sample_general(MO_INVERTED, 100000, 2024)
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
    g = sample_general(MO_INVERTED, n, 555)
    below = float(np.mean(g.x1 > g.x2))
    above = float(np.mean(g.x2 > g.x1))
    tied = g.tie_count / n
    for frac in (below, above, tied):
        assert frac == pytest.approx(1.0 / 3.0, abs=three_se(1.0 / 3.0, n))


def test_general_sampler_agrees_with_latent_sampler():
    n = 100000
    a = sample_ph(MO, n, 1001)
    g = sample_general(MO_INVERTED, n, 2002)
    for x1 in (0.5, 1.0, 2.0):
        for x2 in (0.5, 1.0, 2.0):
            pa = float(np.mean((a.x1 > x1) & (a.x2 > x2)))
            pg = float(np.mean((g.x1 > x1) & (g.x2 > x2)))
            phat = 0.5 * (pa + pg)
            se = math.sqrt(max(phat * (1 - phat), 1e-12) * 2.0 / n)
            assert abs(pa - pg) <= 3.0 * se


def test_purely_singular_model_emits_only_ties():
    model = GeneralBivariateModel(E, TABLE_2, TABLE_2, 2.0)
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
    s = sampling._draw_s(k, 3.0, k.tail_table(3.0), tail)
    t = exponential_wedge_tail(table, 3.0, 0.0) * tail
    got = np.array([exponential_wedge_tail(table, 3.0, v) for v in s])
    # the oracle and the library round differently by ~1e-15 of G
    assert np.all(np.abs(got - t) <= 1.001 * sampling._TAIL_RTOL * t)
    assert s[-3] == 0.0


def test_wedge_draws_that_miss_the_residual_bound_raise(monkeypatch):
    # one evaluation of G per draw: the interpolated start alone rarely meets
    # the bound on the table kernel
    monkeypatch.setattr(sampling, "_MAX_STEPS", 1)
    with pytest.raises(SamplerError, match="missed the residual bound 1e-10 after 1 "):
        sample_general(_table_model(), 2000, 4242)


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
    g, h = kernel.tail(s, 3.0)
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
    node_gap = (1.0 + root) ** 2 / (marginals._TAIL_NODES - 1)
    assert root < info.value.witness <= root + 1.01 * node_gap
    assert info.value.value < 0.0


def test_rising_wedge_tail_refused():
    # the hazard drops from 1.5 to 0.5 over [1, 1.01]: there Q'' = -100, so
    # h < 0 although Q' < theta, and G rises
    marginal = FromHazard.from_table([0.0, 1.0, 1.01, 10.0], [1.5, 1.5, 0.5, 0.5])
    model = GeneralBivariateModel(E, marginal, ProportionalHazard(E, 2.0), 3.0)
    with pytest.raises(InvalidModelError, match="rises") as info:
        sample_general(model, 100, 1)
    assert 1.0 < info.value.witness < 1.01 + 4.0 / (marginals._TAIL_NODES - 1)


# -- the kernel's wedge tail against the sampler's old routines -------------------

W2 = Weibull(2.0)

#: kernels of every kind: PH over its own baseline (the exact kernel, with its
#: float path) and over another; LFR over the exponential, Weibull(2) and a
#: table baseline; table and callable marginals; a callable baseline
KERNELS = {
    "ph-weibull2": WedgeKernel(ProportionalHazard(W2, 1.5), W2),
    "ph-exponential-weibull2": WedgeKernel(ProportionalHazard(E, 2.0), W2),
    "lfr-exponential": WedgeKernel(LinearFailureRate(0.2), E),
    "lfr-weibull2": WedgeKernel(LinearFailureRate(0.25), W2),
    "lfr-table": WedgeKernel(LinearFailureRate(0.3), CustomHazard.from_table(
        [0.0, 1.0, 2.5, 6.0], [1.0, 1.6, 1.1, 1.4])),
    "table-exponential": WedgeKernel(FromHazard.from_table(TABLE_X, TABLE_H), E),
    "callable-exponential": WedgeKernel(FromHazard(lambda x: 1.0 + 0.5 * math.exp(-x)), E),
    "lfr-callable": WedgeKernel(LinearFailureRate(0.3), CustomHazard(lambda x: 1.0 + 0.2 * x)),
}

#: below, at and above each kernel's ``u``, and just below a PH exponent, where
#: the density factor is negative but rounding-sized and clamps to 0
THETAS = [0.5, 1.5, 2.0, 3.0, 1.5 - 2.0**-40]


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("name", sorted(KERNELS))
@settings(max_examples=10, deadline=None)
@given(s=st.lists(st.floats(0.0, 60.0), min_size=1, max_size=6), as_float=st.booleans())
def test_kernel_tail_is_the_old_wedge_tail_bit_for_bit(name, theta, s, as_float):
    kernel = KERNELS[name]
    arg = s[0] if as_float else np.array(s)
    g, h = kernel.tail(arg, theta)
    density = wedge_density(kernel, arg, theta)
    assert _bits(g) == _bits(wedge_tail(kernel, theta, arg)[0])
    assert type(h) is type(density) and _bits(h) == _bits(density)
    assert type(kernel.density(arg, theta)) is type(density)
    assert _bits(kernel.density(arg, theta)) == _bits(density)


def _outcome(fn, *args):
    """The raw bytes of what ``fn(*args)`` returned, or its error."""
    try:
        return tuple(_bits(v) for v in fn(*args))
    except BisurvError as exc:
        return type(exc), str(exc), getattr(exc, "witness", None), getattr(exc, "value", None)


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_kernel_tail_table_is_the_old_table_bit_for_bit(name):
    kernel = KERNELS[name]
    for theta in THETAS:
        assert _outcome(kernel.tail_table, theta) == _outcome(tail_table, kernel, theta)


def _golden_model(name, tmp_path):
    if name == "counterexample":  # the model ``bisurv counterexample`` builds
        return GeneralBivariateModel(E, LinearFailureRate(1.5), LinearFailureRate(1.5), 3.0)
    if name == "gen-weibull2":
        path = tmp_path / "gen-weibull2.json"
        path.write_text('{"baseline": "weibull:2", "theta": 3.0, "marginals": ["ph:1", "ph:2.5"]}')
        return load_model_config(str(path)).model
    return load_model_config(str(_write_config(name, tmp_path))).model


@pytest.mark.parametrize("name", [*GOLDEN_CONFIGS, "counterexample", "gen-weibull2"])
def test_seeded_draws_are_the_old_sampler_bit_for_bit(name, tmp_path):
    # the old sampler: sample_general with the old routines in the kernel's place
    def draws(model, seed):
        def pair():
            batch = sample_general(model, 5000, seed)
            return batch.x1, batch.x2
        return _outcome(pair)

    model = _golden_model(name, tmp_path)
    got = [draws(model, seed) for seed in (7, 11, 2024)]
    tables = []

    def old_tail_table(kernel, theta):
        tables.append(kernel)
        return tail_table(kernel, theta)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(WedgeKernel, "tail", lambda self, s, theta: wedge_tail(self, theta, s))
        patch.setattr(WedgeKernel, "tail_table", old_tail_table)
        # a fresh model: the first one keeps the tables it was admitted with
        old = _golden_model(name, tmp_path)
        assert got == [draws(old, seed) for seed in (7, 11, 2024)]
    # the old tables are read unless the mixture weight refuses the model first
    assert len(tables) == (2 if old.decompose().weight_in_range else 0)


# -- the latent races: every model whose two kernels are linear ------------------


@pytest.mark.parametrize("name", ["gen-weibull2", "gen-pareto"])
def test_two_linear_kernels_take_the_latent_races(name, tmp_path):
    # rates recomputed from these deltas are exact, so the general model and
    # its PH twin draw the same bits
    model = _golden_model(name, tmp_path)
    twin = PHBivariateModel.from_deltas(model.baseline, *(k.delta for k in model.kernels),
                                        model.theta)
    assert model._latent_rates() == twin._latent_rates()
    for seed in (7, 11):
        got, want = sample_general(model, 5000, seed), sample_ph(twin, 5000, seed)
        assert _bits(got.x1) == _bits(want.x1) and _bits(got.x2) == _bits(want.x2)


def test_sample_ph_gives_the_general_draw_of_any_model():
    for model in (MO_INVERTED, _table_model(), MO):
        a, b = sample_ph(model, 2000, 5), sample_general(model, 2000, 5)
        assert _bits(a.x1) == _bits(b.x1) and _bits(a.x2) == _bits(b.x2)


#: sha1 of the bytes of ``x1`` then ``x2`` of ``sample_ph(PHBivariateModel(base,
#: *theta123), 5000, 11)``, recorded when ``sample_ph`` had a routine of its own
PH_DIGESTS = {
    ("exponential", (0.8, 1.1, 0.6)): "175b16e6a0de0cdd9d7306a75fceaab69b333122",
    ("exponential", (0.1, 0.2, 0.3)): "493dec11aaf933c31bb7f1506d0e71b6d8b9adb4",
    ("weibull:2", (0.8, 1.1, 0.6)): "258c1831787cfaf010f10db77f12a6fb9b749aaf",
    ("weibull:2", (0.1, 0.2, 0.3)): "7e5d0807dff7815d4f7a85959c1be111be3891d9",
}


@pytest.mark.parametrize("base, theta123", sorted(PH_DIGESTS))
def test_ph_draws_keep_their_recorded_bits(base, theta123):
    model = PHBivariateModel({"exponential": E, "weibull:2": W2}[base], *theta123)
    # the rates recomputed from the deltas differ in the last bit, so the
    # model answers its own
    assert model._latent_rates() == theta123 != model.as_general()._latent_rates()
    batch = sample_ph(model, 5000, 11)
    digest = hashlib.sha1(batch.x1.tobytes() + batch.x2.tobytes()).hexdigest()
    assert digest == PH_DIGESTS[base, theta123]


class _ZerosInEveryRow:
    """A generator whose exponential draws are 0.0 in row ``j % 3`` of
    column ``j``, for the first 30 columns."""

    def __init__(self, gen):
        self.gen = gen

    def exponential(self, size):
        e = self.gen.exponential(size=size)
        for j in range(30):
            e[j % 3, j] = 0.0
        return e


@pytest.mark.parametrize("deltas, theta, ties", [((2.0, 2.0), 2.0, 1000), ((1.0, 2.0), 3.0, 0)])
def test_a_zero_rate_never_arrives(monkeypatch, deltas, theta, ties):
    # delta1 = delta2 = theta: both own arrivals have rate 0, every pair is
    # tied; delta1 + delta2 = theta: the shared one has rate 0, no pair is
    monkeypatch.setattr(sampling, "_gen", lambda seq: _ZerosInEveryRow(
        np.random.Generator(np.random.Philox(seq))))
    model = GeneralBivariateModel(E, *(ProportionalHazard(E, d) for d in deltas), theta)
    assert 0.0 in model._latent_rates()
    batch = sample_general(model, 1000, 8)
    assert not np.isnan(batch.x1).any() and not np.isnan(batch.x2).any()
    assert np.isfinite(batch.x1).all() and np.isfinite(batch.x2).all()
    assert batch.tie_count == ties


@pytest.mark.parametrize("deltas, theta, message, value", [
    ((3.5, 1.0), 3.0, "wedge tail G(s) = (theta - Q'(s)) exp(-Q(s)) is negative, so "
     "Q'(s) > theta at s = 0 (G = -0.5); the model is not a valid distribution", -0.5),
    ((0.5, 1.0), 3.0, "mixture weight alpha = 1.5 outside [0, 1]; "
     "the model is not a valid distribution", 1.5),
    ((2.5, 2.5), 2.0, "mixture weight alpha = -0.5 outside [0, 1]; "
     "the model is not a valid distribution", -0.5),
])
def test_invalid_linear_kernels_are_refused_before_the_races(deltas, theta, message, value):
    # the texts the wedge inverter's checks gave when such a model went to it
    model = GeneralBivariateModel(E, *(ProportionalHazard(E, d) for d in deltas), theta)
    for sampler in (sample_ph, sample_general):
        with pytest.raises(InvalidModelError) as info:
            sampler(model, 10, 1)
        assert str(info.value) == message and info.value.value == value


# -- one inversion call per batch, against the two or three it replaced --------

W2 = Weibull(2.0)
#: a table baseline whose hazard runs flat at 0.8 past x = 3
TABLE_BASE = CustomHazard.from_table([0.0, 1.0, 3.0], [0.5, 2.0, 0.8])
TABLE_1 = FromHazard.from_table([0.0, 1.0], [1.0, 1.0])

#: every way a draw inverts its levels: the races (with ties, all tied, none
#: tied) and the mixture (both branches, only ties, no tie), over the
#: baselines that invert in numpy, in a table and by root finding
DRAW_MODELS = {
    "ph-exp": PHBivariateModel(E, 0.8, 1.1, 0.6),
    "ph-weibull2": PHBivariateModel(W2, 0.5, 1.0, 1.5),
    "ph-pareto": PHBivariateModel(Pareto(), 2.0, 1.0, 1.0),
    "ph-table": PHBivariateModel(TABLE_BASE, 1.0, 0.5, 0.7),
    "gen-weibull2": GeneralBivariateModel(W2, ProportionalHazard(W2, 1.0),
                                          ProportionalHazard(W2, 2.5), 3.0),
    "races-all-tied": GeneralBivariateModel(E, *(ProportionalHazard(E, 2.0),) * 2, 2.0),
    "races-no-tie": GeneralBivariateModel(E, ProportionalHazard(E, 1.0),
                                          ProportionalHazard(E, 2.0), 3.0),
    "table-marginal": _table_model(),
    "mixture-all-tied": GeneralBivariateModel(E, TABLE_2, TABLE_2, 2.0),
    "mixture-no-tie": GeneralBivariateModel(E, TABLE_1, TABLE_2, 3.0),
    "callable-ph1.4": GeneralBivariateModel(
        E, FromHazard(lambda x: 1.0 + 0.5 * (1.0 - math.exp(-x))), ProportionalHazard(E, 1.4),
        2.0),
}


def _draw(sampler, model, n, seed):
    batch = sampler(model, n, seed)
    return _bits(batch.x1), _bits(batch.x2), batch.tie_count


@pytest.mark.parametrize("n", [1, 20, 199, 200, 4097, 20000])
@pytest.mark.parametrize("name", [*sorted(DRAW_MODELS), "table-kernels"])
def test_one_inversion_call_draws_the_old_bits(name, n, tmp_path):
    model = DRAW_MODELS[name] if name in DRAW_MODELS else _golden_model(name, tmp_path)
    for seed in (3, 2024):
        got = _draw(sample_general, model, n, seed)
        assert got == _draw(oracles.sample, model, n, seed)
        assert _draw(sample_ph, model, n, seed) == got  # admitted once, drawn again
    if name.endswith("all-tied"):
        assert got[2] == n
    if name.endswith("no-tie"):
        assert got[2] == 0


def _refusal(sampler, model, n, seed):
    with pytest.raises(BisurvError) as info:
        sampler(model, n, seed)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("model", [
    # the total hazard is bounded: every draw past it is refused
    PHBivariateModel(CustomHazard.from_table([0.0, 1.0, 2.0], [1.0, 0.5, 0.0]), 0.8, 1.1, 0.6),
    GeneralBivariateModel(CustomHazard.from_table([0.0, 1.0, 2.0], [1.0, 0.5, 0.0]),
                          TABLE_1, TABLE_2, 3.0),
    # theta3 and theta1 round to 0: every first level is inf, which a table
    # refuses by naming the levels of that coordinate alone
    GeneralBivariateModel(TABLE_BASE, ProportionalHazard(TABLE_BASE, 1e-20),
                          ProportionalHazard(TABLE_BASE, 2.0), 2.0),
], ids=["bounded-races", "bounded-mixture", "inf-levels"])
def test_an_inversion_refuses_as_the_old_calls(model):
    for n in (20, 4097):
        want = _refusal(oracles.sample, model, n, 5)
        assert _refusal(sample_general, model, n, 5) == want
        assert want[0] is (DomainError if "finite" in want[1] else NumericError)


def test_an_invalid_model_is_refused_on_every_call():
    # nothing is cached for a refused model: each call asks again
    for model in (GeneralBivariateModel(E, *(ProportionalHazard(E, 2.5),) * 2, 2.0),
                  GeneralBivariateModel(E, LinearFailureRate(0.2), LinearFailureRate(0.2), 2.0)):
        want = _refusal(oracles.sample, model, 10, 1)
        for sampler in (sample_general, sample_ph, sample_general):
            assert _refusal(sampler, model, 10, 1) == want
        assert not hasattr(model, "_admitted")


@pytest.mark.parametrize("name", ["ph-exp", "ph-weibull2"])
def test_the_races_hold_few_arrays_of_n_floats(name):
    # the levels are formed in place in the generator's draw: with the one
    # inversion's levels and the two outputs, a draw's peak stays below nine
    # arrays of n floats (ten to twelve when each level was a new array)
    n = 100_000
    tracemalloc.start()
    try:
        sample_ph(DRAW_MODELS[name], n, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9 * 8 * n
