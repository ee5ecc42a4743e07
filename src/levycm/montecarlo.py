"""Exact-path Monte Carlo for atomic-measure specs.

Such a spec is a hyperexponential compound Poisson process plus linear
drift and an optional Brownian part, killed at a constant rate; paths can
be simulated without time discretization.  The supremum over an independent
exponential horizon is computed exactly: linear pieces via their endpoints
and Brownian pieces via inverse-CDF sampling of the bridge maximum, with
the maximum's location drawn from its exact conditional law (a two-piece
inverse-Gaussian mixture), only for the piece that attains the supremum.

Paths are simulated a shard at a time in one array pass: all jump counts,
times and sizes of the shard, then all segments of all its paths, with
per-path reductions for the supremum and its first attaining candidate.
Samples come back as columns in one ``SupSamples`` record, deterministic
for a fixed (seed, shard_size).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MethodUnsupportedError, ValidationError
from .rogers import LevyAtomic

__all__ = [
    "SupSamples",
    "McEstimate",
    "LaplaceQuery",
    "TailQuery",
    "JointQuery",
    "simulate_sup_samples",
    "mc_estimates",
]


@dataclass(frozen=True)
class SupSamples:
    """Exact-path samples as columns: entry i of every array is path i."""

    sup_value: np.ndarray
    argmax_time: np.ndarray
    horizon: np.ndarray
    killed: np.ndarray

    def __len__(self):
        return len(self.sup_value)


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    n: int
    seed: int
    query: str


@dataclass(frozen=True)
class LaplaceQuery:
    xi: float


@dataclass(frozen=True)
class TailQuery:
    x: float


@dataclass(frozen=True)
class JointQuery:
    xi: float
    tau: float


def _mixture(spec: LevyAtomic):
    """Jump mixture from the spec's decomposition: rates, Exp(|s_j|) scales and signs."""
    _, jumps = spec._jumps
    locs = np.array([s for s, _ in jumps])
    return np.array([rate for _, rate in jumps]), np.abs(locs), np.sign(locs)


def _ig_sample(rng, mu, lam):
    """Inverse-Gaussian draw (Michael-Schucany-Haas), vectorized."""
    mu = np.asarray(mu, dtype=float)
    lam = np.asarray(lam, dtype=float)
    y = rng.standard_normal(mu.shape) ** 2
    x = mu + mu * mu * y / (2.0 * lam) - (mu / (2.0 * lam)) * np.sqrt(
        4.0 * mu * lam * y + (mu * y) ** 2
    )
    u = rng.uniform(size=mu.shape)
    return np.where(u <= mu / (mu + x), x, mu * mu / np.where(x > 0, x, 1.0))


def _bridge_max(rng, w, var_dt):
    """Maximum above the start of a Brownian bridge with increment w."""
    u = rng.uniform(size=np.shape(w))
    return 0.5 * (w + np.sqrt(w * w - 2.0 * var_dt * np.log(u)))


def _bridge_argmax(rng, m, w, dt, v):
    """Time of the bridge maximum given its height m (vectorized).

    The pre- and post-maximum first-passage times are Levy-stable(1/2)
    with parameters a = m/sqrt(v) and b = (m-w)/sqrt(v); conditioning on
    their sum dt makes G = (dt - T)/T a two-piece generalized inverse
    Gaussian mixture with half-integer index, sampled through IG draws.
    """
    m = np.asarray(m, dtype=float)
    w = np.asarray(w, dtype=float)
    dt = np.asarray(dt, dtype=float)
    a = m / math.sqrt(v)
    b = (m - w) / math.sqrt(v)
    a = np.clip(a, 1e-300, None)
    b = np.clip(b, 1e-300, None)
    pick = rng.uniform(size=m.shape) < a / (a + b)
    mu1 = b / a
    lam1 = b * b / dt
    g_direct = _ig_sample(rng, mu1, lam1)
    mu2 = a / b
    lam2 = a * a / dt
    g_recip = 1.0 / _ig_sample(rng, mu2, lam2)
    g = np.where(pick, g_direct, g_recip)
    t = dt / (1.0 + g)
    t = np.where(m <= 1e-14 * np.abs(w), 0.0, t)
    t = np.where(np.abs(m - w) <= 1e-14 * np.abs(m), dt, t)
    return t


def simulate_sup_samples(spec, sigma, n, seed, shard_size=50000):
    """Supremum and argmax-time samples over Exp(sigma) horizons, as columns.

    Returns one ``SupSamples`` record with an entry per path.  Each shard of
    at most ``shard_size`` paths is simulated in one array pass by the child
    generator seeded by (seed, k) for shard k, and shards are concatenated
    in order, so the output is identical run to run for a fixed
    (seed, shard_size), and every complete shard is the same in any run
    that reaches it.  Values differ from versions that sampled one path at
    a time: the random stream is consumed in another order.  Killing
    (rate c) truncates the horizon; the supremum is over the lifetime.
    """
    if not isinstance(spec, LevyAtomic):
        raise MethodUnsupportedError(
            "exact-path simulation supports atomic-measure specs only"
        )
    if not sigma > 0.0:
        raise ValidationError("sigma", "must be positive")
    n = int(n)
    if n < 1:
        raise ValidationError("n", "need at least one path")
    rates, scales, signs = _mixture(spec)
    drift = spec._jumps[0]
    blocks = []
    n_shards = (n + shard_size - 1) // shard_size
    for shard in range(n_shards):
        m = min(shard_size, n - shard * shard_size)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), shard])))
        if len(rates) == 0:
            blocks.append(_simulate_diffusion_block(spec, drift, sigma, m, rng))
        else:
            blocks.append(
                _simulate_jump_block(spec, drift, rates, scales, signs, sigma, m, rng)
            )
    return SupSamples(*(np.concatenate(col) for col in zip(*blocks)))


def _horizons(spec, sigma, m, rng):
    s = rng.exponential(1.0 / sigma, size=m)
    if spec.c > 0.0:
        k = rng.exponential(1.0 / spec.c, size=m)
        killed = k < s
        return np.minimum(s, k), killed
    return s, np.zeros(m, dtype=bool)


def _simulate_diffusion_block(spec, drift, sigma, m, rng):
    """No jumps: one drifted Brownian (or linear) segment per sample."""
    horizon, killed = _horizons(spec, sigma, m, rng)
    v = 2.0 * spec.a
    if v == 0.0:
        sup = np.maximum(drift * horizon, 0.0)
        tmax = np.where(drift > 0.0, horizon, 0.0)
    else:
        w = drift * horizon + np.sqrt(v * horizon) * rng.standard_normal(m)
        sup = _bridge_max(rng, w, v * horizon)
        tmax = _bridge_argmax(rng, sup, w, horizon, v)
    return sup, tmax, horizon, killed


def _path_cumsum(step, first):
    """Running sums of ``step`` restarted at each path's first entry.

    Subtracting the previous path's total at each restart keeps the running
    sum at the scale of one path, not of the whole shard.
    """
    restart = step.copy()
    restart[first[1:]] -= np.add.reduceat(step, first)[:-1]
    return np.cumsum(restart)


def _simulate_jump_block(spec, drift, rates, scales, signs, sigma, m, rng):
    """Jump paths: every segment of every path of the shard at once.

    Path i has counts[i] jumps and counts[i] + 1 segments, stored from
    first[i] on; its last segment ends at the horizon and has no jump.  Each
    segment offers two candidates in time order, its in-segment maximum and
    the value right after its jump; the supremum is the largest candidate
    (at least 0) and the argmax belongs to the first candidate attaining it.
    """
    horizon, killed = _horizons(spec, sigma, m, rng)
    v = 2.0 * spec.a
    total_rate = float(np.sum(rates))
    counts = rng.poisson(total_rate * horizon)
    path = np.repeat(np.arange(m), counts)
    u = rng.uniform(size=path.size) * horizon[path]
    comps = rng.choice(len(rates), size=path.size, p=rates / total_rate)
    # sizes are i.i.d. and independent of the times: sorting the times alone suffices
    sizes = signs[comps] * rng.exponential(size=path.size) / scales[comps]
    times = u[np.lexsort((u, path))]

    n_seg = counts + 1
    first = np.cumsum(n_seg) - n_seg
    last = first + counts
    has_jump = np.ones(path.size + m, dtype=bool)
    has_jump[last] = False
    end = np.empty(has_jump.size)
    end[has_jump] = times
    end[last] = horizon
    begin = np.empty_like(end)
    begin[1:] = end[:-1]
    begin[first] = 0.0
    dt = end - begin
    jump = np.zeros_like(end)
    jump[has_jump] = sizes

    if v > 0.0:
        w = drift * dt + np.sqrt(v * dt) * rng.standard_normal(dt.size)
        rise = _bridge_max(rng, w, v * dt)
    else:
        w = drift * dt
        rise = np.maximum(w, 0.0)
    after = _path_cumsum(w + jump, first)  # value right after each segment's jump
    start = np.empty_like(after)
    start[1:] = after[:-1]
    start[first] = 0.0

    cand = np.empty(2 * dt.size)
    cand[0::2] = start + rise
    cand[1::2] = after
    cand[2 * last + 1] = -np.inf
    sup = np.maximum(np.maximum.reduceat(cand, 2 * first), 0.0)
    hit = cand == np.repeat(sup, 2 * n_seg)
    win = np.minimum.reduceat(np.where(hit, np.arange(cand.size), cand.size), 2 * first)

    tmax = np.zeros(m)
    pos = np.flatnonzero(sup > 0.0)
    seg = win[pos] // 2
    # a jump candidate is attained at the segment end, and so is a linear
    # piece's that wins: with drift <= 0 it would tie the candidate before it
    tmax[pos] = end[seg]
    if v > 0.0:
        inner = win[pos] % 2 == 0
        pos, seg = pos[inner], seg[inner]
        tmax[pos] = begin[seg] + _bridge_argmax(rng, rise[seg], w[seg], dt[seg], v)
    return sup, tmax, horizon, killed


def mc_estimates(samples, queries, seed=0):
    """Empirical means with standard errors for the requested functionals.

    Killed samples contribute their lifetime supremum and argmax time: the
    kill rate is part of the exponent, so analytic comparisons against the
    same spec match this convention.
    """
    n = len(samples)
    if n == 0:
        raise ValidationError("samples", "need at least one sample")
    sup, tmax = samples.sup_value, samples.argmax_time
    out = []
    for q in queries:
        if isinstance(q, LaplaceQuery):
            y = np.exp(-q.xi * sup)
            label = f"laplace(xi={q.xi:g})"
        elif isinstance(q, TailQuery):
            y = (sup > q.x).astype(float)
            label = f"tail(x={q.x:g})"
        elif isinstance(q, JointQuery):
            y = np.exp(-q.xi * sup - q.tau * tmax)
            label = f"joint(xi={q.xi:g},tau={q.tau:g})"
        else:
            raise ValidationError("queries", f"unknown query {q!r}")
        mean = float(np.mean(y))
        se = float(np.std(y, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        out.append(McEstimate(mean, se, n, int(seed), label))
    return out
