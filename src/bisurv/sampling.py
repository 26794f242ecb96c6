"""Random-vector generation with exact diagonal ties.

``sample_ph`` uses the latent competing-risks construction: three
independent unit exponentials are scaled into cumulative-hazard arrival
levels ``E_i / theta_i``, the componentwise minima with the shared third
level are mapped back through ``R0^{-1}``, and a pair is tied exactly when
the shared level wins both races.  The construction is validated against
the closed-form survival in the tests rather than taken on faith.

``sample_general`` draws from the singular/absolutely-continuous mixture of
any valid model: with probability ``1 - alpha`` a diagonal pair ``(T, T)``
with ``T = R0^{-1}(E/theta)``, otherwise a wedge draw in the transformed
coordinates ``w = R0(min)``, ``s = R0(max) - R0(min)``, where ``w`` is an
exact exponential with rate ``theta``.  The density of ``s`` is the exact
derivative ``h = -G'`` of ``G(s) = (theta - Q'(s)) exp(-Q(s))``, so ``s`` is
drawn by inverting the closed-form CDF ``H(s) = G(0) - G(s)`` (Devroye,
*Non-Uniform Random Variate Generation*, 1986, ch. 2).  A model whose ``G``
goes negative or rises is refused.  Both samplers draw at most
``MAX_PAIRS`` pairs per call.

All randomness comes from counter-based (Philox) generators seeded once,
with independent sub-streams per mixture branch, so batches are
reproducible and adding draws to one branch does not perturb the other.
Sharding across workers would derive per-shard seeds the same way and
concatenate in shard order; this implementation samples in one shard.

``SampleBatch.write_csv`` writes each coordinate as Python's ``repr``, the
shortest decimal that reads back as the same double.  Small batches call
``repr``; larger ones are formatted in blocks of rows by ``_shortest``, a
numpy Schubfach kernel in ``uint64`` arithmetic, whose digits are laid out
into fixed byte slots per float and compressed to ASCII once per block.
Both give the same bytes.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .bivariate import GeneralBivariateModel, PHBivariateModel
from .errors import DomainError, InvalidModelError, SamplerError
from .validity import GridSpec

__all__ = ["MAX_PAIRS", "SampleBatch", "sample_ph", "sample_general"]

#: most pairs one call may draw: the samplers hold a few arrays of n floats
MAX_PAIRS = 2**22

#: nodes of the wedge-tail table, equally spaced in ``v = s/(1+s)`` over [0, 1]
_TAIL_NODES = 2049
#: a rise of ``G`` between neighbouring nodes, relative to ``G``, read as rounding
_RISE_RTOL = 1e-9
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
        for lo in range(0, self.x1.size, _CSV_BLOCK):
            hi = lo + _CSV_BLOCK
            fileobj.write(_csv_rows(self.x1[lo:hi], self.x2[lo:hi]))

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            self.write_csv(fh)


# ---------------------------------------------------------------------------
# CSV output: Python's repr of every float, formatted a block at a time
# ---------------------------------------------------------------------------

#: rows formatted per block by the vectorized writer
_CSV_BLOCK = 8192

#: batches with fewer rows take per-value ``repr``.  The block writer has a
#: fixed cost of ~0.35 ms; at 200 rows both paths took ~0.5 ms (medians of
#: 200 calls on a 2-vCPU x86-64 host, Python 3.11, numpy 2.4)
_REPR_ROWS = 200

#: range of the decimal exponent ``k`` of ``_shortest``'s scaling, over all
#: normal doubles
_K_MIN, _K_MAX = -324, 292

#: lookup tables of the writer, built by ``_tables`` on first use
_TABLES = None

_POW10 = 10 ** np.arange(18, dtype=np.uint64)
_MIN_NORMAL = np.finfo(float).tiny
_MAX_FLOAT = np.finfo(float).max

#: bytes of one formatted float, in six 8-byte words: ``0.000`` and a 0 byte,
#: then the 17 digits, digit ``j`` at byte ``6 + 2j`` and a dot after each,
#: then from byte ``_EXP`` on ``e``, the exponent's sign and 3 digits, and 3
#: bytes for the separators that follow the field.  A layout keeps the bytes
#: the float's ``repr`` uses; the others become 0 and are dropped at the end.
_FIELD = 48
_EXP = 40
_SEP = 45

#: layout ids: fixed notation by (decpt, digits), then scientific notation by
#: (digits, 3-digit exponent)
_SCI_ID = 20 * 17


def _layout(decpt: int, nsig: int, sci: bool, wide: bool):
    """Bytes of a field used by a float of ``nsig`` significant digits and
    decimal point position ``decpt``, as ``repr`` writes it."""
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
    return used


def _words(strings) -> np.ndarray:
    """8-byte ASCII strings as one ``uint64`` word each."""
    return np.frombuffer("".join(strings).encode(), dtype=np.uint64)


def _tables():
    """The writer's lookup tables, exact and built once.

    ``g(k) = floor(10**-k * 2**(127 - r)) + 1`` for each ``k``, split into two
    64-bit words, with ``r = floor(log2(10**-k))`` so that
    ``2**127 <= g < 2**128``; the words of every leading digit, of every
    4-digit group and of every exponent; the count of trailing zeros of
    every 4-digit group; the used bytes of every layout id, 0xFF each.
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
        # "d.d.d.d." for every 4-digit group
        group = np.arange(10_000)
        quads = np.full((10_000, 4, 2), ord("."), dtype=np.uint8)
        quads[:, :, 0] = group[:, None] // [1000, 100, 10, 1] % 10 + ord("0")
        layouts = ([_layout(decpt, nsig, False, False)
                    for decpt in range(-3, 17) for nsig in range(1, 18)]
                   + [_layout(0, nsig, True, wide)
                      for nsig in range(1, 18) for wide in (False, True)])
        _TABLES = {
            "g_hi": np.array([v >> 64 for v in g], dtype=np.uint64),
            "g_lo": np.array([v & (2 ** 64 - 1) for v in g], dtype=np.uint64),
            "r": np.array(r, dtype=np.int64),
            "lead": _words(f"0.000\0{i}." for i in range(10)),
            "quads": quads.reshape(-1, 8).view(np.uint64).ravel(),
            # a group's trailing zeros: the powers of 10 up to 10**4 dividing it
            "zeros": sum((group % p == 0).astype(np.int64) for p in (10, 100, 1000, 10_000)),
            "exps": _words(f"e{i:+04d}\0\0\0" for i in range(-308, 309)),
            "layouts": (np.array(layouts, dtype=np.uint8) * 0xFF).view(np.uint64),
        }
    return _TABLES


def _limbs(a):
    """The low and high 32-bit halves of a ``uint64`` array."""
    return a & 0xFFFFFFFF, a >> 32


def _mulhi(a, b):
    """High 64 bits of the 128-bit products of ``uint64`` arrays given as limbs."""
    (a0, a1), (b0, b1) = a, b
    a1b0 = a1 * b0
    mid = ((a0 * b0) >> 32) + (a1b0 & 0xFFFFFFFF) + a0 * b1
    return a1 * b1 + (a1b0 >> 32) + (mid >> 32)


def _round_to_odd(g_hi, g_limbs, cp):
    """``floor(g * cp / 2**128)`` with its lowest bit set when the rest is not
    0, for ``g = g_hi * 2**64 + g_lo``; ``g_limbs`` are the limbs of both words."""
    c = _limbs(cp)
    x_hi = _mulhi(g_limbs[1], c)
    y0 = g_hi * cp + x_hi
    y1 = _mulhi(g_limbs[0], c) + (y0 < x_hi)
    return y1 | (y0 > 1)


def _shortest(x):
    """Shortest decimals ``f * 10**e`` that read back as the doubles ``x``.

    ``x`` holds normal, positive, finite doubles.  Of the shortest decimals
    that round to each value, ``f`` is the closest (even ``f`` on a tie), as
    Python's ``repr`` picks them, but it may keep trailing zeros.  This is
    Schubfach (R. Giulietti, *The Schubfach way to render doubles*, 2020) in
    ``uint64`` arithmetic: ``k`` is chosen so that the rounding interval of
    ``x``, scaled by ``10**-k``, is 1 to 10 units wide, and the candidates
    are the multiples of 10 and of 1 at its ends.
    """
    t = _tables()
    bits = x.view(np.uint64)
    m = bits & 2 ** 52 - 1
    q = (bits >> 52).astype(np.int64) - 1075  # x = (2**52 + m) * 2**q
    # a power of 2 has its lower neighbour at half the distance
    pow2 = m == 0
    # k = floor(log10(2**q)), or floor(log10(3/4 * 2**q)) for a power of 2
    k = (q * 661971961083 - np.where(pow2, 274743187321, 0)) >> 41
    i = k - _K_MIN
    g_hi = t["g_hi"][i]
    g_limbs = _limbs(g_hi), _limbs(t["g_lo"][i])
    h = (q + t["r"][i] + 1).astype(np.uint64)
    cb = (m | 2 ** 52) << 2
    # the value and its rounding bounds, times 4 * 10**-k
    vb = _round_to_odd(g_hi, g_limbs, cb << h)
    vbl = _round_to_odd(g_hi, g_limbs, (cb - 2 + pow2) << h)
    vbr = _round_to_odd(g_hi, g_limbs, (cb + 2) << h)
    # the bounds round to x only for an even significand
    odd = m & 1
    lower = vbl + odd
    upper = vbr - odd
    s = vb >> 2
    sp = s // 10
    sp_in = lower <= 40 * sp
    tp_in = 40 * sp + 40 <= upper
    shorter = sp_in != tp_in  # exactly one multiple of 10 in the interval
    s_in = lower <= s << 2
    t_in = (s << 2) + 4 <= upper
    mid = (s << 2) + 2
    up = np.where(s_in != t_in, t_in, (vb > mid) | ((vb == mid) & (s & 1 == 1)))
    f = np.where(shorter, sp + tp_in, s + up)
    return f, k + shorter


def _fields(x):
    """``repr`` of each float of ``x`` as rows of ``_FIELD`` bytes, 0 where unused.

    Normal positive values go through :func:`_shortest` with Python's rule:
    fixed notation when the decimal point position ``decpt`` satisfies
    ``-4 < decpt <= 16``, with ``.0`` on integers, otherwise one digit, the
    other digits after a dot, and an exponent of at least 2 digits.  Every
    other value (0, negative, subnormal, inf, nan) takes ``repr`` itself.
    """
    t = _tables()
    normal = (x >= _MIN_NORMAL) & (x <= _MAX_FLOAT)
    all_normal = bool(normal.all())
    f, e = _shortest(x if all_normal else x[normal])
    ndig = np.searchsorted(_POW10, f, side="right")
    decpt = e + ndig
    f = f * _POW10[17 - ndig]  # 17 digits, left-aligned
    groups = [f // 10 ** 12 % 10 ** 4, f // 10 ** 8 % 10 ** 4,
              f // 10 ** 4 % 10 ** 4, f % 10 ** 4]
    words = np.empty((f.size, _FIELD // 8), dtype=np.uint64)
    words[:, 0] = t["lead"][f // 10 ** 16]
    for j, group in enumerate(groups, start=1):
        words[:, j] = t["quads"][group]
    words[:, _EXP // 8] = t["exps"][decpt + 307]
    trailing = 0
    for group in groups:
        trailing = t["zeros"][group] + (group == 0) * trailing
    nsig = 17 - trailing
    sci = (decpt <= -4) | (decpt > 16)
    ids = np.where(sci, _SCI_ID + 2 * (nsig - 1) + (np.abs(decpt - 1) >= 100),
                   (decpt + 3) * 17 + nsig - 1)
    words &= t["layouts"][ids]
    if all_normal:
        return words.view(np.uint8)
    out = np.empty((x.size, _FIELD), dtype=np.uint8)
    out[normal] = words.view(np.uint8)
    text = [repr(v).encode() for v in x[~normal].tolist()]
    out[~normal] = np.array(text, dtype=f"S{_FIELD}").view(np.uint8).reshape(-1, _FIELD)
    return out


def _csv_rows(x1, x2) -> str:
    """CSV rows ``repr(x1),repr(x2),tied`` of equal-length float arrays."""
    n = x1.size
    tied = x1 == x2
    # a positive tie is the same float twice: it reuses the x1 field
    own = np.flatnonzero(~(tied & (x1 > 0.0)))
    fields = _fields(np.concatenate([x1, x2[own]]))
    second = np.arange(n)
    second[own] = n + np.arange(own.size)
    rows = np.empty((n, 2, _FIELD), dtype=np.uint8)
    rows[:, 0] = fields[:n]
    rows[:, 1] = fields[second]
    rows[:, :, _SEP] = ord(",")
    rows[:, 1, _SEP + 1] = tied + ord("0")
    rows[:, 1, _SEP + 2] = ord("\n")
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


def sample_ph(model: PHBivariateModel, n: int, seed: int) -> SampleBatch:
    """Latent competing-risks sampler for the proportional-hazards model.

    Each latent arrival has survival ``S0**theta_i``; the observed pair is
    the componentwise minimum against the shared arrival, computed on the
    cumulative-hazard scale so ties are bit-exact.
    """
    n, seed = _check_sample_args(n, seed)
    gen = _gen(np.random.SeedSequence(seed))
    e = gen.exponential(size=(3, n))
    v1 = e[0] / model.theta1
    v2 = e[1] / model.theta2
    v3 = e[2] / model.theta3
    w1 = np.minimum(v1, v3)
    w2 = np.minimum(v2, v3)
    x1 = np.asarray(model.baseline.inverse_cumulative_hazard(w1), dtype=float)
    # where the shared arrival won both races the pair is tied: reuse the
    # already-inverted value so the tie is the same float by construction
    tie = w1 == w2
    x2 = x1.copy()
    if np.any(~tie):
        x2[~tie] = np.asarray(
            model.baseline.inverse_cumulative_hazard(w2[~tie]), dtype=float)
    return SampleBatch(x1=x1, x2=x2, seed=seed, n=n)


# ---------------------------------------------------------------------------
# General-model sampler: singular branch + wedge draws by inversion
# ---------------------------------------------------------------------------


def _wedge_tail(kernel, theta: float, s):
    """``G(s) = (theta - Q'(s)) exp(-Q(s))`` and the wedge density ``h = -G'``."""
    q, q1, q2 = kernel.q_slopes(s)
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.exp(-q)
        return (theta - q1) * e, (theta * q1 + q2 - q1 * q1) * e


def _tail_table(kernel, theta: float):
    """``(s, G(s))`` on the table: ``G(0) = theta - u``, ``G(inf) = 0``.

    Raises :class:`~bisurv.errors.InvalidModelError` at the first node where ``G``
    is negative (``Q' > theta``) or rises by more than rounding (``h < 0``).
    """
    v = np.linspace(0.0, 1.0, _TAIL_NODES)[:-1]
    s = np.append(v / (1.0 - v), np.inf)
    g = np.concatenate([[theta - kernel.u], _wedge_tail(kernel, theta, s[1:-1])[0], [0.0]])
    rises = g[1:] - g[:-1] > _RISE_RTOL * np.maximum(g[:-1], g[1:])
    bad = np.flatnonzero(~(g >= 0.0) | np.concatenate([[False], rises]))
    if bad.size:
        i = bad[0]
        if np.isnan(g[i]):
            raise SamplerError(f"wedge tail G(s) is not a number at s = {s[i]:.6g}")
        what = "is negative, so Q'(s) > theta" if g[i] < 0.0 else "rises, so h(s) < 0"
        raise InvalidModelError(
            f"wedge tail G(s) = (theta - Q'(s)) exp(-Q(s)) {what} at s = {s[i]:.6g} "
            f"(G = {g[i]:.6g}); the model is not a valid distribution",
            witness=float(s[i]), value=float(g[i]))
    # the running minimum keeps the bracket search monotone through rounding
    return s, np.minimum.accumulate(g)


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
    hi = np.searchsorted(-g_nodes, -t)  # the first node with G <= t
    idx = np.flatnonzero(hi > 0)  # hi == 0 only where t == G(0): s = 0
    hi, t = hi[idx], t[idx]
    lo_s, hi_s = s_nodes[hi - 1], s_nodes[hi]
    with np.errstate(divide="ignore", invalid="ignore"):
        log_g = np.log(g_nodes)
        frac = (log_g[hi - 1] - np.log(t)) / (log_g[hi - 1] - log_g[hi])
        s = np.where(frac > 0.0, lo_s + frac * (hi_s - lo_s), lo_s)
    for _ in range(_MAX_STEPS):
        g, h = _wedge_tail(kernel, theta, s)
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
    """Mixture sampler for any valid model of this class.

    Raises :class:`~bisurv.errors.InvalidModelError` unless the mixture
    weight lies in [0, 1] and each kernel's wedge tail
    ``G(s) = (theta - Q'(s)) exp(-Q(s))`` is nonnegative and nonincreasing
    on its table.  The diagonal branch draws ``T = R0^{-1}(E/theta)``, with
    bit-exact ties; the absolutely continuous branch draws ``w`` as an
    exponential with rate ``theta`` and ``s`` by inverting the wedge CDF
    ``H(s) = G(0) - G(s)``.  ``grid`` is accepted for compatibility and does
    not affect the draw.
    """
    n, seed = _check_sample_args(n, seed)
    dec = model.decompose()
    if not dec.weight_in_range:
        raise InvalidModelError(
            f"mixture weight alpha = {dec.alpha:.6g} outside [0, 1]; "
            "the model is not a valid distribution", value=dec.alpha)
    theta, base = model.theta, model.baseline
    tables = [_tail_table(kernel, theta) for kernel in model.kernels]
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
