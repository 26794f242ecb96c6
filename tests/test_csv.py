"""The sample CSV writer against the per-row ``repr`` writer it replaced.

``SampleBatch.write_csv`` formats blocks of rows through the vectorized
shortest-digit kernel ``sampling._shortest``; its bytes must equal those of
``oracles.write_csv_rows`` (one f-string per row) for every float64,
including the values it hands to ``repr`` itself.
"""

import io
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bisurv import Exponential, Pareto, PHBivariateModel, sample_ph, sampling
from bisurv.sampling import SampleBatch
from oracles import write_csv_rows

MIN_NORMAL = float.fromhex("0x1p-1022")
MAX_FLOAT = float.fromhex("0x1.fffffffffffffp+1023")
SPECIALS = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
            float.fromhex("0x0.fffffffffffffp-1022"), MIN_NORMAL, MAX_FLOAT, -MAX_FLOAT,
            1e16, 1e15, 9999999999999998.0, 1e-4, 1e-5, 0.1, 1.5e-7, 1e100, 2.0 ** 53,
            2.0 ** 53 + 2.0, 123456789.0, 0.5, 1.0, 100.0]


def oracle_csv(batch) -> str:
    buf = io.StringIO()
    write_csv_rows(batch, buf)
    return buf.getvalue()


def new_csv(batch) -> str:
    buf = io.StringIO()
    batch.write_csv(buf)
    return buf.getvalue()


def from_bits(bits) -> np.ndarray:
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from(SPECIALS),
    st.integers(0, 2 ** 64 - 1).map(lambda b: float(from_bits([b])[0])),
    st.floats(min_value=1e-300, max_value=1e300),
)


@settings(max_examples=150, deadline=None)
@given(pool=st.lists(values, min_size=1, max_size=40),
       n=st.sampled_from([1, 7, sampling._REPR_ROWS - 1, sampling._REPR_ROWS, 700]),
       tie_frac=st.sampled_from([0.0, 0.3, 1.0]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_writer_matches_per_row_oracle(pool, n, tie_frac, seed):
    # rows drawn from a small pool, so ties, repeats and special values mix
    rng = np.random.default_rng(seed)
    pool = np.array(pool, dtype=float)
    x1 = pool[rng.integers(pool.size, size=n)]
    x2 = pool[rng.integers(pool.size, size=n)]
    tie = rng.random(n) < tie_frac
    x2[tie] = x1[tie]
    batch = SampleBatch(x1=x1, x2=x2, seed=0, n=n)
    want = oracle_csv(batch)
    assert new_csv(batch) == want
    # the block formatter itself, whatever the batch size
    assert sampling._csv_rows(batch.x1, batch.x2) == want.partition("\n")[2]


@pytest.mark.parametrize("n", [sampling._REPR_ROWS - 1, sampling._REPR_ROWS,
                               sampling._CSV_BLOCK, sampling._CSV_BLOCK + 1])
def test_writer_sizes_around_crossover_and_block(monkeypatch, n):
    batch = sample_ph(PHBivariateModel(Pareto(), 0.5, 1.0, 1.5), n, 19)
    # special values in both columns, paired so that 0.0 meets -0.0 both ways
    k = len(SPECIALS)
    batch.x1[:k] = batch.x1[-k:] = SPECIALS
    batch.x2[:k] = np.roll(SPECIALS, 1)
    batch.x2[-k:] = np.roll(SPECIALS, -1)
    batch = SampleBatch(x1=batch.x1, x2=batch.x2, seed=19, n=n)
    assert batch.tie_count > 0
    blocks = []
    csv_rows = sampling._csv_rows

    def counted(x1, x2, *rows):
        blocks.append(x1.size)
        return csv_rows(x1, x2, *rows)

    monkeypatch.setattr(sampling, "_csv_rows", counted)
    assert new_csv(batch) == oracle_csv(batch)
    if n < sampling._REPR_ROWS:
        assert blocks == []
    else:
        assert blocks == [min(n - lo, sampling._CSV_BLOCK)
                          for lo in range(0, n, sampling._CSV_BLOCK)]


@pytest.mark.parametrize("block", [1, 3, 64])
def test_blocks_leave_no_state_behind(monkeypatch, block):
    # write_csv reuses one row buffer for every block: fields alternate
    # between short and 17-digit ones, so a stale byte of the longer field
    # would show, and ties and special values sit at the blocks' edges
    monkeypatch.setattr(sampling, "_CSV_BLOCK", block)
    shorts = [0.5, 1e-05]
    longs = [0.30000000000000004, 1.2345678901234567e-300, 123456789.12345679,
             2.718281828459045e+200]
    n = 2 * sampling._REPR_ROWS + 1
    x1 = np.array([shorts[i // 2 % 2] if i % 2 == 0 else longs[i // 2 % 4] for i in range(n)])
    x2 = np.array([longs[i // 2 % 4] if i % 2 == 0 else shorts[i // 2 % 2] for i in range(n)])
    edges = [i for i in range(n) if i % block in (0, block - 1)]
    for k, i in enumerate(edges):
        if k % 3 == 0:
            x2[i] = x1[i]
        elif k % 3 == 1:
            x1[i], x2[i] = SPECIALS[k % len(SPECIALS)], SPECIALS[(k + 1) % len(SPECIALS)]
    batch = SampleBatch(x1=x1, x2=x2, seed=0, n=n)
    assert batch.tie_count > 0
    assert new_csv(batch) == oracle_csv(batch)


def floor_log10(x: Fraction) -> int:
    k = len(str(x.numerator)) - len(str(x.denominator))
    while Fraction(10) ** k > x:
        k -= 1
    while Fraction(10) ** (k + 1) <= x:
        k += 1
    return k


def test_scaling_exponents_are_exact():
    # _shortest's k = floor(log10(2**q)), or floor(log10(3/4 * 2**q)) at a
    # power of 2, by integer arithmetic, over every normal binary exponent
    for q in range(-1074, 972):
        assert (q * 661971961083) >> 41 == floor_log10(Fraction(2) ** q)
        assert ((q * 661971961083 - 274743187321) >> 41
                == floor_log10(Fraction(3, 4) * Fraction(2) ** q))
    t = sampling._tables()
    ks = np.arange(sampling._K_MIN, sampling._K_MAX + 1)
    g = [(int(hi) << 64) | int(lo) for hi, lo in zip(t["g_hi"], t["g_lo"])]
    for k, gk, r in zip(ks.tolist(), g, t["r"].tolist()):
        assert 2 ** r <= Fraction(10) ** -k < 2 ** (r + 1)
        assert gk - 1 <= Fraction(10) ** -k * Fraction(2) ** (127 - r) < gk


def fields_text(x) -> str:
    fields = sampling._fields(x)
    fields[:, sampling._SEP] = ord(",")
    return fields.tobytes().translate(None, b"\0").decode("ascii")


def test_fields_match_repr_on_a_million_bit_patterns():
    rng = np.random.default_rng(20201)
    pow2 = [2.0 ** k for k in range(-1022, 1024)]
    edge = np.array(
        pow2 + [math.nextafter(v, math.inf) for v in pow2]
        + [math.nextafter(v, 0.0) for v in pow2[1:]]
        + [float(f"1e{k}") for k in range(-307, 309)]
        + [float(i) for i in range(1, 5001)]
        + [2.0 ** 53 + 2.0 * i for i in range(2500)] + [2.0 ** 53 - i for i in range(1, 2500)])
    chunks = [edge] + [from_bits(rng.integers(2 ** 52, 0x7FF0000000000000, size=100_000,
                                              dtype=np.uint64)) for _ in range(10)]
    for x in chunks:
        assert fields_text(x) == "".join(f"{v!r}," for v in x.tolist())


def test_writer_memory_is_per_block():
    # one block of 4,096 rows holds 8,192 floats; its largest arrays (the
    # row buffer of 48-byte fields, its bytes) take 0.375 MiB each, and a
    # handful are alive at once.  Formatting all 200,000 rows at once would
    # take ~20 MiB.
    batch = sample_ph(PHBivariateModel(Exponential(), 1.0, 1.0, 1.0), 200_000, 5)

    class Sink:
        size = 0

        def write(self, text):
            self.size += len(text)

    sampling._tables()
    sink = Sink()
    tracemalloc.start()
    try:
        batch.write_csv(sink)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.size > 200_000 * 30
    assert peak < 6 * 2 ** 20
