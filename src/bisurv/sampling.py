"""Random-vector generation with exact diagonal ties.

``sample_general`` and ``sample_ph`` give one draw of any valid model, and
the model's wedge kernels choose how.  Where both are linear, ``Q_i =
delta_i s``, the model is Marshall and Olkin's (JASA, 1967), drawn by its
latent competing risks: three independent unit exponentials are scaled into
cumulative-hazard arrival levels ``E_i / theta_i`` at the rates the model
answers, the componentwise minima with the shared third level are mapped
back through ``R0^{-1}``, and a pair is tied exactly when the shared level
wins both races, as the tests check against the closed-form survival.

Every other model is drawn from its singular/absolutely-continuous mixture:
with probability ``1 - alpha`` a diagonal pair ``(T, T)`` with
``T = R0^{-1}(E/theta)``, otherwise a wedge draw in the transformed
coordinates ``w = R0(min)``, ``s = R0(max) - R0(min)``, where ``w`` is an
exact exponential with rate ``theta``.  The density of ``s`` is the exact
derivative ``h = -G'`` of ``G(s) = (theta - Q'(s)) exp(-Q(s))``, so ``s`` is
drawn by inverting the closed-form CDF ``H(s) = G(0) - G(s)`` (Devroye,
*Non-Uniform Random Variate Generation*, 1986, ch. 2).  The wedge kernel
gives ``G``, ``h`` and the table of ``G``, which refuses a model whose
``G`` goes negative or rises, as every model is checked before it is drawn.
A call draws at most ``MAX_PAIRS`` pairs.

All randomness comes from counter-based (Philox) generators seeded once,
with independent sub-streams per mixture branch, so batches are
reproducible and adding draws to one branch does not perturb the other.
Sharding across workers would derive per-shard seeds the same way and
concatenate in shard order; this implementation samples in one shard.

``SampleBatch.write_csv`` writes each coordinate as Python's ``repr``, the
shortest decimal that reads back as the same double.  Small batches call
``repr``; larger ones are formatted in blocks of ``_CSV_BLOCK`` rows by
``_shortest``, a numpy Schubfach kernel in ``uint64`` arithmetic.  Each
float's layout and then its digit words are written into fixed byte slots
of one row buffer, which every block of a call reuses, with the separators
in place, and each block is compressed to ASCII at once.  Both paths give
the same bytes.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .bivariate import GeneralBivariateModel
from .errors import DomainError, InvalidModelError, SamplerError
from .validity import GridSpec

__all__ = ["MAX_PAIRS", "SampleBatch", "sample_ph", "sample_general"]

#: most pairs one call may draw: the samplers hold a few arrays of n floats
MAX_PAIRS = 2**22

#: relative residual every wedge draw meets: ``|G(s) - t| <= _TAIL_RTOL * t``
_TAIL_RTOL = 1e-10
#: evaluations of ``G`` per draw; bisection alone shrinks a bracket to rounding in fewer
_MAX_STEPS = 64


@dataclass(eq=False)
class SampleBatch:
    """A batch of sampled pairs; ties are exact float equality by design."""

    x1: np.ndarray
    x2: np.ndarray
    seed: int
    n: int
    tie_count: int = field(init=False)

    def __post_init__(self):
        self.x1 = np.asarray(self.x1, dtype=float)
        self.x2 = np.asarray(self.x2, dtype=float)
        self.tie_count = int(np.sum(self.x1 == self.x2))

    @property
    def tied(self) -> np.ndarray:
        return self.x1 == self.x2

    @property
    def pairs(self) -> list[tuple[float, float]]:
        return [(float(a), float(b)) for a, b in zip(self.x1, self.x2)]

    def write_csv(self, fileobj: io.TextIOBase) -> None:
        """Write the header ``x1,x2,tied`` and one row per pair.

        Each coordinate is written as Python's ``repr`` of the float, so
        ``float(field)`` gives back the sampled value bit for bit; ``tied``
        is 1 exactly when ``x1 == x2``.
        """
        fileobj.write("x1,x2,tied\n")
        if self.x1.size < _REPR_ROWS:
            fileobj.write("".join(
                f"{a!r},{b!r},{t}\n" for a, b, t in
                zip(self.x1.tolist(), self.x2.tolist(), self.tied.view(np.int8).tolist())))
            return
        # one row buffer for every block
        rows = np.empty((min(self.x1.size, _CSV_BLOCK), 2 * _FIELD), dtype=np.uint8)
        for lo in range(0, self.x1.size, _CSV_BLOCK):
            hi = lo + _CSV_BLOCK
            fileobj.write(_csv_rows(self.x1[lo:hi], self.x2[lo:hi], rows))

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            self.write_csv(fh)


# ---------------------------------------------------------------------------
# CSV output: Python's repr of every float, formatted a block at a time
# ---------------------------------------------------------------------------

#: rows formatted per block by the vectorized writer.  A 20,000-row write
#: took 13.6 ms in blocks of 2,048 rows, 12.9 ms in blocks of 4,096 and
#: 17.2 ms in blocks of 8,192: past 4,096 rows a block's temporaries outgrow
#: glibc's default trim threshold, and every block faults its pages in
#: again (~1,400 minor faults a write at 8,192 rows, ~80 at 4,096).  Medians
#: of 25 interleaved runs in process time, 2-vCPU x86-64 host, Python 3.11.7,
#: numpy 2.4.6
_CSV_BLOCK = 4096

#: batches with fewer rows take per-value ``repr``.  The block writer costs
#: ~0.29 ms plus ~0.8 us a row, ``repr`` ~3.1 us a row: they meet near 125
#: rows, and at 200 rows the block writer saves ~0.2 ms (medians of 200
#: calls, same host)
_REPR_ROWS = 200

#: range of the decimal exponent ``k`` of ``_shortest``'s scaling, over all
#: normal doubles
_K_MIN, _K_MAX = -324, 292

#: lookup tables of the writer, built by ``_tables`` on first use
_TABLES = None

_MIN_NORMAL = np.finfo(float).tiny
_MAX_FLOAT = np.finfo(float).max

#: bytes of one formatted float, in six 8-byte words: ``0.000`` and a 0 byte,
#: then the 17 digits, digit ``j`` at byte ``6 + 2j`` and a dot after each,
#: then from byte ``_EXP`` on ``e``, the exponent's sign and 3 digits, the
#: comma that ends the field, and 2 bytes for the tie flag and newline that
#: end a row.  A layout keeps the bytes the float's ``repr`` uses and the
#: comma; the others become 0 and are dropped at the end.
_FIELD = 48
_EXP = 40
_SEP = 45

#: ``decpt + _DECPT`` indexes the tables by decimal point position; normal
#: doubles have ``-307 <= decpt <= 309``
_DECPT = 308


def _layout(decpt: int, nsig: int, sci: bool, wide: bool):
    """Bytes of a field used by a float of ``nsig`` significant digits and
    decimal point position ``decpt``, as ``repr`` writes it, and its comma."""
    used = np.zeros(_FIELD, dtype=bool)
    ndigits, dot = nsig, None
    if sci:  # one digit, the dot if more follow, the exponent
        dot = 0 if nsig > 1 else None
        used[_EXP:_SEP] = True
        used[_EXP + 2] = wide
    elif decpt <= 0:  # "0.", -decpt zeros, the digits
        used[:2 - decpt] = True
    else:  # an integer ends in ".0": one more digit, a zero
        ndigits, dot = max(nsig, decpt + 1), decpt - 1
    used[6:6 + 2 * ndigits:2] = True
    if dot is not None:
        used[7 + 2 * dot] = True
    used[_SEP] = True
    return used


def _words(strings) -> np.ndarray:
    """8-byte ASCII strings as one ``uint64`` word each."""
    return np.frombuffer("".join(strings).encode(), dtype=np.uint64)


def _tables():
    """The writer's lookup tables, exact and built once.

    ``g(k) = floor(10**-k * 2**(127 - r)) + 1`` for each ``k``, split into two
    64-bit words, with ``r = floor(log2(10**-k))`` so that
    ``2**127 <= g < 2**128``.  ``_shortest`` looks up ``g``, ``k`` and the
    shifts they give by ``j``, the biased binary exponent plus 2048 for a
    power of 2.  Then the words of every leading digit, of every 4-digit
    group and of every exponent and of a row's end; the count of trailing
    zeros of every 4-digit group; the used bytes of every layout, 0xFF each,
    and the first layout of every decimal point position.
    """
    global _TABLES
    if _TABLES is None:
        g, r = [], []
        for k in range(_K_MIN, _K_MAX + 1):
            if k <= 0:
                r.append((10 ** -k).bit_length() - 1)
                g.append((10 ** -k << 127 >> r[-1]) + 1)
            else:
                r.append(-(10 ** k).bit_length())
                g.append((1 << (127 - r[-1])) // 10 ** k + 1)
        g_hi = np.array([v >> 64 for v in g], dtype=np.uint64)
        g_lo = np.array([v & (2 ** 64 - 1) for v in g], dtype=np.uint64)
        r = np.array(r, dtype=np.int64)
        # x = (2**52 + m) * 2**q with q = E - 1075 for biased exponent E;
        # k = floor(log10(2**q)), or floor(log10(3/4 * 2**q)) for a power of 2
        j = np.arange(4096)
        pow2 = j >> 11
        q = np.clip(j & 2047, 1, 2046) - 1075
        k = (q * 661971961083 - pow2 * 274743187321) >> 41
        h = q + r[k - _K_MIN] + 1
        gk = g_hi[k - _K_MIN], g_lo[k - _K_MIN]
        # "d.d.d.d." for every 4-digit group
        group = np.arange(10_000)
        quads = np.full((10_000, 4, 2), ord("."), dtype=np.uint8)
        quads[:, :, 0] = group[:, None] // [1000, 100, 10, 1] % 10 + ord("0")
        # layouts by class (fixed notation by decpt, then scientific notation
        # with a 2- and a 3-digit exponent) and trailing zeros
        layouts = ([_layout(decpt, 17 - tz, False, False)
                    for decpt in range(-3, 17) for tz in range(17)]
                   + [_layout(0, 17 - tz, True, wide)
                      for wide in (False, True) for tz in range(17)])
        decpt = np.arange(-_DECPT, _DECPT + 2)
        fixed = (decpt > -4) & (decpt <= 16)
        cls = np.where(fixed, decpt + 3, 20 + (np.abs(decpt - 1) >= 100))
        _TABLES = {
            "g_hi": g_hi,
            "g_lo": g_lo,
            "r": r,
            "j_g_hi": gk[0],
            "j_g_lo": gk[1],
            "j_k": k,
            # the value's multiplier is (2**52 + m) << (h + 2), and its
            # bounds' multipliers differ from it by 2 << h, or by 1 << h below
            # a power of 2: their products by g differ by g << (h + 1 - pow2)
            # below and g << (h + 1) above, 3 words each
            "j_sh": (h + 2).astype(np.uint64),
            "j_lo": _shifted(*gk, h + 1 - pow2),
            "j_hi": _shifted(*gk, h + 1),
            "lead": _words(f"0.000\0{i}." for i in range(10)),
            "quads": quads.reshape(-1, 8).view(np.uint64).ravel(),
            # a group's trailing zeros: the powers of 10 up to 10**4 dividing it
            "zeros": sum((group % p == 0).astype(np.uint8) for p in (10, 100, 1000, 10_000)),
            "exps": _words(f"e{i - 1:+04d},\0\0" for i in decpt),
            "first": 17 * cls,
            "layouts": (np.array(layouts, dtype=np.uint8) * 0xFF).view(np.uint64),
            "tails": _words(f"\0\0\0\0\0\0{t}\n" for t in "01"),
        }
    return _TABLES


def _shifted(g_hi, g_lo, d):
    """The words of ``g << d``, low word first, for ``0 < d < 64``."""
    d = d.astype(np.uint64)
    return g_lo << d, g_hi << d | g_lo >> 64 - d, g_hi >> 64 - d


def _limbs(a):
    """The low and high 32-bit halves of a ``uint64`` array."""
    return a & 0xFFFFFFFF, a >> 32


def _mulhi(a, b):
    """High 64 bits of the 128-bit products of ``uint64`` arrays given as limbs."""
    (a0, a1), (b0, b1) = a, b
    a1b0 = a1 * b0
    mid = a0 * b0
    mid >>= 32
    mid += a1b0 & 0xFFFFFFFF
    mid += a0 * b1
    mid >>= 32
    a1b0 >>= 32
    out = a1 * b1
    out += a1b0
    out += mid
    return out


def _product(g_hi, g_lo, cp):
    """``floor(g * cp / 2**64)`` as its high and low words, for
    ``g = g_hi * 2**64 + g_lo``."""
    c = _limbs(cp)
    x_hi = _mulhi(_limbs(g_lo), c)
    y0 = g_hi * cp
    y0 += x_hi
    y1 = _mulhi(_limbs(g_hi), c)
    y1 += y0 < x_hi
    return y1, y0


def _round_to_odd(y1, y0):
    """``floor(p / 2**128)`` with its lowest bit set when ``p`` has bits from
    2**65 to 2**127, for ``floor(p / 2**64) = y1 * 2**64 + y0``."""
    y1 |= y0 > 1
    return y1


def _shortest(x):
    """Shortest decimals ``f * 10**e`` that read back as the doubles ``x``.

    ``x`` holds normal, positive, finite doubles.  Of the shortest decimals
    that round to each value, ``f`` is the closest (even ``f`` on a tie), as
    Python's ``repr`` picks them, but it may keep trailing zeros: ``f`` has
    16 or 17 digits.  This is Schubfach (R. Giulietti, *The Schubfach way to
    render doubles*, 2020) in ``uint64`` arithmetic: ``k`` is chosen so that
    the rounding interval of ``x``, scaled by ``10**-k``, is 1 to 10 units
    wide, and the candidates are the multiples of 10 and of 1 at its ends.
    """
    t = _tables()
    bits = x.view(np.uint64)
    c = bits & 2 ** 52 - 1
    # j: the biased exponent, plus 2048 for a power of 2, whose lower
    # neighbour is at half the distance (c - 1 has bit 52 set only for c == 0)
    j = c - 1
    j >>= 41
    j &= 2048
    j |= bits >> 52
    j = j.view(np.int64)
    g_hi = t["j_g_hi"].take(j)
    g_lo = t["j_g_lo"].take(j)
    c |= 2 ** 52
    c <<= t["j_sh"].take(j)
    # the value times 4 * 10**-k: the product g * c, its words from the top
    y1, y0 = _product(g_hi, g_lo, c)
    low = g_lo * c
    # the rounding bounds: the product less and plus a shifted g
    d0, d1, d2 = (w.take(j) for w in t["j_lo"])
    z1 = y0 - d1
    borrow = y0 < d1
    d0 = low < d0
    borrow |= z1 < d0
    z1 -= d0
    lower = _round_to_odd(y1 - d2 - borrow, z1)
    d0, d1, d2 = (w.take(j) for w in t["j_hi"])
    z1 = y0 + d1
    carry = z1 < y0
    d0 = d0 > ~low
    z1 += d0
    carry |= z1 < d0
    d2 += y1
    upper = _round_to_odd(d2 + carry, z1)
    vb = _round_to_odd(y1, y0)
    # the bounds round to x only for an even significand
    odd = bits & 1
    lower += odd
    upper -= odd
    # the candidates 10 sp, 10 sp + 10, s and s + 1, times 4, each against
    # its bound; all are below 2**60, so bit 63 of a difference is set
    # where the candidate is outside the interval
    s = vb >> 2
    sp = s // 10
    cand = sp * 40
    out_sp = cand - lower
    cand += 40
    out_tp = upper - cand
    cand = s << 2
    out_s = cand - lower
    cand += 4
    out_t = upper - cand
    # exactly one multiple of 10 inside: it has one digit fewer, and ten
    # times it keeps the value's digits and exponent
    out_sp ^= out_tp
    out_sp >>= 63
    out_tp >>= 63
    sp += 1
    sp -= out_tp
    sp *= 10
    # else s or s + 1: the one inside, or the nearer, to even on a tie
    # (vb is 4 s plus 0 to 3, its lowest bit sticky)
    up = np.uint64(0xC8) >> (vb & 7)
    up &= 1
    out_s >>= 63
    out_t ^= out_s << 63
    out_t >>= 63
    out_s ^= up
    out_s &= out_t
    up ^= out_s
    s += up
    sp ^= s
    sp &= 0 - out_sp
    s ^= sp
    return s, t["j_k"].take(j)


def _fields(x, out=None):
    """``repr`` of each float of ``x`` and a comma, as rows of ``_FIELD``
    bytes, 0 where unused; written to ``out`` if given.

    Normal positive values go through :func:`_shortest` with Python's rule:
    fixed notation when the decimal point position ``decpt`` satisfies
    ``-4 < decpt <= 16``, with ``.0`` on integers, otherwise one digit, the
    other digits after a dot, and an exponent of at least 2 digits.  Every
    other value (0, negative, subnormal, inf, nan) takes ``repr`` itself.
    """
    t = _tables()
    # min and max are nan if x holds a nan
    all_normal = (x.min(initial=_MAX_FLOAT) >= _MIN_NORMAL
                  and x.max(initial=_MIN_NORMAL) <= _MAX_FLOAT)
    if not all_normal:
        normal = (x >= _MIN_NORMAL) & (x <= _MAX_FLOAT)
    f, decpt = _shortest(x if all_normal else np.where(normal, x, 1.0))
    # 17 digits, left-aligned: a 16-digit f gains a zero
    short = f - 10 ** 16
    short >>= 63
    decpt += 17 + _DECPT
    decpt -= short.view(np.int64)
    short *= 9
    short += 1
    f *= short
    lead = f // 10 ** 16
    f -= lead * 10 ** 16
    hi = f // 10 ** 8
    f -= hi * 10 ** 8
    groups = []
    for half in (hi, f):
        top = half // 10 ** 4
        half -= top * 10 ** 4
        groups += [top.view(np.int64), half.view(np.int64)]
    # trailing zeros of the last 16 digits, by 8-digit halves
    z1, z2, z3, z4 = (t["zeros"].take(group) for group in groups)
    trailing = z4 + (groups[3] == 0) * z3
    trailing += (trailing == 8) * (z2 + (groups[1] == 0) * z1)
    ids = t["first"].take(decpt)
    ids += trailing
    # each field's layout, then its words
    words = (np.empty((x.size, _FIELD // 8), dtype=np.uint64) if out is None
             else out.view(np.uint64))
    t["layouts"].take(ids, axis=0, out=words, mode="clip")
    for col, (table, index) in enumerate(zip(
            ("lead", "quads", "quads", "quads", "quads", "exps"),
            [lead.view(np.int64)] + groups + [decpt])):
        words[:, col] &= t[table].take(index)
    fields = words.view(np.uint8)
    if not all_normal:
        odd = np.flatnonzero(~normal)
        text = [repr(v).encode().ljust(_SEP, b"\0") + b"," for v in x[odd].tolist()]
        fields[odd] = np.array(text, dtype=f"S{_FIELD}").view(np.uint8).reshape(-1, _FIELD)
    return fields


def _csv_rows(x1, x2, rows=None) -> str:
    """CSV rows ``repr(x1),repr(x2),tied`` of equal-length float arrays,
    built in ``rows``, a ``uint8`` buffer of at least that many rows of
    ``2 * _FIELD`` bytes, if given."""
    n = x1.size
    rows = np.empty((n, 2 * _FIELD), dtype=np.uint8) if rows is None else rows[:n]
    _fields(np.stack((x1, x2), axis=1).ravel(), out=rows.reshape(2 * n, _FIELD))
    words = rows.view(np.uint64)
    words[:, -1] |= _tables()["tails"].take((x1 == x2).view(np.uint8))
    return rows.tobytes().translate(None, b"\0").decode("ascii")


def _check_sample_args(n: int, seed: int) -> tuple[int, int]:
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise DomainError(f"sample count must be a positive integer, got {n!r}")
    if n > MAX_PAIRS:
        raise DomainError(f"sample count must be at most {MAX_PAIRS}, got {n!r}")
    if not isinstance(seed, (int, np.integer)) or not (0 <= int(seed) < 2**64):
        raise DomainError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
    return int(n), int(seed)


def _gen(seq: np.random.SeedSequence) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seq))


def sample_ph(model: GeneralBivariateModel, n: int, seed: int) -> SampleBatch:
    """:func:`sample_general`'s draw of any model, named for the latent
    races that draw a proportional-hazards model."""
    return _sample(model, n, seed)


def _races(base, rates, n: int, seed: int) -> SampleBatch:
    """The latent races at ``rates = (theta1, theta2, theta3)``; an arrival
    whose rate is at or below 0 never comes."""
    gen = _gen(np.random.SeedSequence(seed))
    e = gen.exponential(size=(3, n))
    v1, v2, v3 = (e_i / rate if rate > 0.0 else np.full(n, np.inf)
                  for e_i, rate in zip(e, rates))
    w1 = np.minimum(v1, v3)
    w2 = np.minimum(v2, v3)
    x1 = np.asarray(base.inverse_cumulative_hazard(w1), dtype=float)
    # where the shared arrival won both races the pair is tied: reuse the
    # already-inverted value so the tie is the same float by construction
    tie = w1 == w2
    x2 = x1.copy()
    if np.any(~tie):
        x2[~tie] = np.asarray(base.inverse_cumulative_hazard(w2[~tie]), dtype=float)
    return SampleBatch(x1=x1, x2=x2, seed=seed, n=n)


# ---------------------------------------------------------------------------
# General-model sampler: singular branch + wedge draws by inversion
# ---------------------------------------------------------------------------


def _draw_s(kernel, theta: float, table, tail) -> np.ndarray:
    """Solve ``G(s) = t = G(0) * tail`` for each ``tail`` in (0, 1].

    The start interpolates ``log G`` linearly in ``s`` between the table
    nodes that bracket ``t``, exact for a PH kernel.  Newton steps on
    ``log G`` (derivative ``-h / G``) refine it, and bisection in ``v``
    replaces a step that leaves the bracket.  A draw stops once
    ``|G(s) - t| <= _TAIL_RTOL * t``; missing that in ``_MAX_STEPS``
    evaluations raises :class:`~bisurv.errors.SamplerError`.
    """
    s_nodes, g_nodes = table
    t = g_nodes[0] * tail
    out = np.zeros(t.size)
    # the first node with G <= t, searched for in key order
    order = np.argsort(-t)
    hi = np.empty(t.size, dtype=np.intp)
    hi[order] = np.searchsorted(-g_nodes, -t[order])
    idx = np.flatnonzero(hi > 0)  # hi == 0 only where t == G(0): s = 0
    hi, t = hi[idx], t[idx]
    lo_s, hi_s = s_nodes[hi - 1], s_nodes[hi]
    with np.errstate(divide="ignore", invalid="ignore"):
        log_g = np.log(g_nodes)  # G(inf) = 0
        frac = (log_g[hi - 1] - np.log(t)) / (log_g[hi - 1] - log_g[hi])
        s = np.where(frac > 0.0, lo_s + frac * (hi_s - lo_s), lo_s)
    for _ in range(_MAX_STEPS):
        g, h = kernel.tail(s, theta)
        done = np.abs(g - t) <= _TAIL_RTOL * t
        out[idx[done]] = s[done]
        keep = ~done
        if not keep.any():
            return out
        idx, t, s, g, h = idx[keep], t[keep], s[keep], g[keep], h[keep]
        above = g > t
        lo_s = np.where(above, s, lo_s[keep])
        hi_s = np.where(above, hi_s[keep], s)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = s + np.log(g / t) * g / h
            mid = 0.5 * (lo_s / (1.0 + lo_s) + 1.0 / (1.0 + 1.0 / hi_s))
            s = np.where((step > lo_s) & (step < hi_s), step, mid / (1.0 - mid))
    raise SamplerError(
        f"{idx.size} wedge draws missed the residual bound {_TAIL_RTOL:.0e} "
        f"after {_MAX_STEPS} Newton steps (first target G = {t[0]:.6g})")


def sample_general(model: GeneralBivariateModel, n: int, seed: int,
                   grid: GridSpec | None = None) -> SampleBatch:
    """``n`` pairs drawn from any valid model of this class.

    Raises :class:`~bisurv.errors.InvalidModelError` unless the mixture
    weight lies in [0, 1] and each kernel's wedge tail
    ``G(s) = (theta - Q'(s)) exp(-Q(s))`` is nonnegative and nonincreasing
    on its table.  A model whose two kernels are linear, ``Q_i = delta_i s``,
    takes the latent races at the rates it answers.  Any other model draws a
    diagonal pair ``T = R0^{-1}(E/theta)``, with bit-exact ties, or a wedge
    pair: ``w`` exponential with rate ``theta`` and ``s`` by inverting the
    wedge CDF ``H(s) = G(0) - G(s)``.  ``grid`` is accepted for
    compatibility and does not affect the draw.
    """
    return _sample(model, n, seed)


def _sample(model: GeneralBivariateModel, n: int, seed: int) -> SampleBatch:
    """The one draw of :func:`sample_ph` and :func:`sample_general`."""
    n, seed = _check_sample_args(n, seed)
    dec = model.decompose()
    if not dec.weight_in_range:
        raise InvalidModelError(
            f"mixture weight alpha = {dec.alpha:.6g} outside [0, 1]; "
            "the model is not a valid distribution", value=dec.alpha)
    theta, base = model.theta, model.baseline
    tables = [kernel.tail_table(theta) for kernel in model.kernels]
    rates = model._latent_rates()
    if rates is not None:  # refused above as any model is, if invalid
        return _races(base, rates, n, seed)
    alpha = min(max(dec.alpha, 0.0), 1.0)

    pick_seq, diag_seq, ac_seq = np.random.SeedSequence(seed).spawn(3)
    singular = _gen(pick_seq).random(n) < (1.0 - alpha)

    x1, x2 = np.empty(n), np.empty(n)
    m = int(np.sum(singular))
    if m:
        x1[singular] = x2[singular] = np.asarray(base.inverse_cumulative_hazard(
            _gen(diag_seq).exponential(size=m) / theta), dtype=float)

    k = n - m
    if k:
        gen_ac = _gen(ac_seq)
        # wedge x1 > x2 carries AC mass (1 - u1/theta); normalize within AC
        p_lower = min(max((1.0 - dec.u1 / theta) / alpha, 0.0), 1.0)
        lower = gen_ac.random(k) < p_lower
        w = gen_ac.exponential(size=k) / theta
        tail = 1.0 - gen_ac.random(k)
        s = np.empty(k)
        for kernel, table, on_wedge in zip(model.kernels, tables, (lower, ~lower)):
            s[on_wedge] = _draw_s(kernel, theta, table, tail[on_wedge])
        lo = np.asarray(base.inverse_cumulative_hazard(w), dtype=float)
        hi = np.asarray(base.inverse_cumulative_hazard(w + s), dtype=float)
        x1[~singular] = np.where(lower, hi, lo)
        x2[~singular] = np.where(lower, lo, hi)

    return SampleBatch(x1=x1, x2=x2, seed=seed, n=n)
