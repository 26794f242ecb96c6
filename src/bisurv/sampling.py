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
exact exponential with rate ``theta`` and ``s`` carries the remaining
density, sampled by rejection under a piecewise-constant envelope.

All randomness comes from counter-based (Philox) generators seeded once,
with independent sub-streams per mixture branch, so batches are
reproducible and adding draws to one branch does not perturb the other.
Sharding across workers would derive per-shard seeds the same way and
concatenate in shard order; this implementation samples in one shard.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .bivariate import GeneralBivariateModel, PHBivariateModel
from .errors import DomainError, ModelError, SamplerError
from .validity import GridSpec

__all__ = ["SampleBatch", "sample_ph", "sample_general"]

#: rejection acceptance rate below which the sampler gives up
_MIN_ACCEPT_RATE = 1e-3

#: safety factor applied to every envelope cell height
_ENVELOPE_INFLATION = 1.2


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
        fileobj.write("x1,x2,tied\n")
        for a, b, t in zip(self.x1, self.x2, self.tied):
            fileobj.write(f"{float(a)!r},{float(b)!r},{int(t)}\n")

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            self.write_csv(fh)


def _check_sample_args(n: int, seed: int) -> tuple[int, int]:
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise DomainError(f"sample count must be a positive integer, got {n!r}")
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
# General-model sampler: singular branch + wedge rejection sampler
# ---------------------------------------------------------------------------


def _build_envelope(kernel, theta: float, grid: GridSpec):
    """Piecewise-constant envelope of the compactified wedge density h~(v).

    On one wedge the density factorizes as ``h(s) * exp(-theta * w)`` in the
    coordinates ``w = R0(min)``, ``s = R0(max) - R0(min)``, where ``h`` is
    the kernel's wedge density ``(theta Q' + Q'' - Q'^2) exp(-Q)``, of total
    mass ``theta - u``.  ``h~(v) = h(s) / (1 - v)**2`` at ``s = v/(1 - v)``;
    non-finite and negative values read as 0.  Cells follow the validation
    grid knots mapped through v = s/(1+s); each cell height is the inflated
    maximum of probes inside the cell.
    """
    knots = np.asarray(grid.r0_knots, dtype=float)
    v_edges = np.concatenate([[0.0], knots / (1.0 + knots), [1.0]])

    def h_tilde(v):
        v = np.asarray(v, dtype=float)
        s = v / (1.0 - v)
        with np.errstate(over="ignore", invalid="ignore"):
            val = kernel.density(s, theta) / (1.0 - v) ** 2
        return np.where(np.isfinite(val), np.maximum(val, 0.0), 0.0)

    heights = []
    for a, b in zip(v_edges[:-1], v_edges[1:]):
        if b >= 1.0:
            # open-ended tail cell: probe geometrically toward 1
            probes = 1.0 - (1.0 - a) * 0.5 ** np.arange(0, 14)
        else:
            probes = np.linspace(a, b, 9)
        probes = np.clip(probes, 1e-12, 1.0 - 1e-12)
        heights.append(_ENVELOPE_INFLATION * float(np.max(h_tilde(probes))))
    heights = np.asarray(heights)
    keep = heights > 0.0
    return v_edges, heights, keep, h_tilde


def _rejection_sample_s(gen: np.random.Generator, kernel, theta: float,
                        grid: GridSpec, count: int) -> np.ndarray:
    if count == 0:
        return np.empty(0)
    v_edges, heights, keep, h_tilde = _build_envelope(kernel, theta, grid)
    if not np.any(keep):
        raise SamplerError("rejection envelope is identically zero")
    idx = np.flatnonzero(keep)
    widths = np.diff(v_edges)[idx]
    masses = heights[idx] * widths
    probs = masses / masses.sum()
    out = np.empty(count)
    filled = 0
    proposals = 0
    while filled < count:
        batch = max(1024, 2 * (count - filled))
        cells = gen.choice(len(idx), size=batch, p=probs)
        u_height = gen.random(batch)
        u_pos = gen.random(batch)
        a = v_edges[idx[cells]]
        b = v_edges[idx[cells] + 1]
        v = a + u_pos * (b - a)
        accept = u_height * heights[idx[cells]] <= h_tilde(v)
        taken = v[accept]
        take = min(len(taken), count - filled)
        out[filled:filled + take] = taken[:take]
        filled += take
        proposals += batch
        if proposals >= 10_000 and filled / proposals < _MIN_ACCEPT_RATE:
            raise SamplerError(
                f"envelope acceptance rate {filled / proposals:.2e} below "
                f"{_MIN_ACCEPT_RATE:.0e}; refine the grid"
            )
    return out / (1.0 - out)  # s = v / (1 - v)


def sample_general(model: GeneralBivariateModel, n: int, seed: int,
                   grid: GridSpec | None = None) -> SampleBatch:
    """Mixture sampler for any valid model of this class.

    Re-verifies that the mixture weight lies in [0, 1] (raising
    :class:`~bisurv.errors.ModelError` otherwise), then draws the diagonal
    branch by inversion and the absolutely continuous branch by wedge
    rejection sampling.  Ties from the diagonal branch are bit-exact.
    """
    n, seed = _check_sample_args(n, seed)
    grid = grid or GridSpec.default()
    dec = model.decompose()
    if not dec.weight_in_range:
        raise ModelError(
            f"mixture weight alpha = {dec.alpha:.6g} outside [0, 1]; "
            "the model is not a valid distribution"
        )
    alpha = min(max(dec.alpha, 0.0), 1.0)
    theta = model.theta
    base = model.baseline

    root = np.random.SeedSequence(seed)
    pick_seq, diag_seq, ac_seq = root.spawn(3)
    singular = _gen(pick_seq).random(n) < (1.0 - alpha)

    x1 = np.empty(n)
    x2 = np.empty(n)

    m = int(np.sum(singular))
    if m:
        t = np.asarray(base.inverse_cumulative_hazard(
            _gen(diag_seq).exponential(size=m) / theta), dtype=float)
        x1[singular] = t
        x2[singular] = t

    k = n - m
    if k:
        gen_ac = _gen(ac_seq)
        # wedge x1 > x2 carries AC mass (1 - u1/theta); normalize within AC
        p_lower = (1.0 - dec.u1 / theta) / alpha
        p_lower = min(max(p_lower, 0.0), 1.0)
        lower = gen_ac.random(k) < p_lower
        w = gen_ac.exponential(size=k) / theta
        s = np.empty(k)
        for kernel, on_wedge in zip(model.kernels, (lower, ~lower)):
            s[on_wedge] = _rejection_sample_s(gen_ac, kernel, theta, grid,
                                              int(np.sum(on_wedge)))
        lo = np.asarray(base.inverse_cumulative_hazard(w), dtype=float)
        hi = np.asarray(base.inverse_cumulative_hazard(w + s), dtype=float)
        ac1 = np.where(lower, hi, lo)
        ac2 = np.where(lower, lo, hi)
        x1[~singular] = ac1
        x2[~singular] = ac2

    return SampleBatch(x1=x1, x2=x2, seed=seed, n=n)
