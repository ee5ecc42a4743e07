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
The jump times are put in path-then-time order by one sort of the values
and a stable (radix, for up to 65536 paths) sort of their path indices;
each path's winning candidate is found by one ``searchsorted`` over the
candidates that attain a supremum.  Samples come back as columns in one
``SupSamples`` record, deterministic for a fixed (seed, shard_size); a
negative or non-integral seed, and a non-integral path count or shard
size, are rejected before any draw.  ``mc_estimates`` evaluates all
queries into one block and reduces it with one mean and one standard
deviation call.
"""

from __future__ import annotations

import math
import numbers
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

_BLOCK = 1 << 16  # query rows x samples per block of estimator values


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

    def __post_init__(self):
        if not 0.0 <= self.xi < math.inf:
            raise ValidationError("xi", "must be finite and >= 0")


@dataclass(frozen=True)
class TailQuery:
    x: float

    def __post_init__(self):
        if not math.isfinite(self.x):
            raise ValidationError("x", "must be finite")


@dataclass(frozen=True)
class JointQuery:
    xi: float
    tau: float

    def __post_init__(self):
        for name in ("xi", "tau"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValidationError(name, "must be finite and >= 0")


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
    mu_sq = mu * mu
    two_lam = 2.0 * lam
    x = mu + mu_sq * y / two_lam - (mu / two_lam) * np.sqrt(4.0 * mu * lam * y + (mu * y) ** 2)
    u = rng.uniform(size=mu.shape)
    return np.where(u <= mu / (mu + x), x, mu_sq / np.where(x > 0, x, 1.0))


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
    a = np.maximum(m / math.sqrt(v), 1e-300)
    b = np.maximum((m - w) / math.sqrt(v), 1e-300)
    pick = rng.uniform(size=m.shape) < a / (a + b)
    g_direct = _ig_sample(rng, b / a, b * b / dt)
    g_recip = 1.0 / _ig_sample(rng, a / b, a * a / dt)
    t = dt / (1.0 + np.where(pick, g_direct, g_recip))
    t = np.where(m <= 1e-14 * np.abs(w), 0.0, t)
    t = np.where(np.abs(m - w) <= 1e-14 * np.abs(m), dt, t)
    return t


def _whole(name, value):
    """``value`` as an int: an integer, or a float with an integral value such as 1e5."""
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real) and float(value).is_integer():
        return int(value)
    raise ValidationError(name, f"must be an integer, got {value!r}")


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
    if not 0.0 < sigma < math.inf:
        raise ValidationError("sigma", "must be finite and positive")
    n = _whole("n", n)
    if n < 1:
        raise ValidationError("n", "need at least one path")
    shard_size = _whole("shard_size", shard_size)
    if shard_size < 1:
        raise ValidationError("shard_size", "need at least one path per shard")
    seed = _whole("seed", seed)
    if seed < 0:
        raise ValidationError("seed", "must be >= 0")
    rates, scales, signs = _mixture(spec)
    drift = spec._jumps[0]
    blocks = []
    n_shards = (n + shard_size - 1) // shard_size
    for shard in range(n_shards):
        m = min(shard_size, n - shard * shard_size)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, shard])))
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


def _path_sorted(u, path, m):
    """``u`` grouped by path and ascending within each: ``u[np.lexsort((u, path))]``.

    One sort of the values, then a stable sort of their path indices held in
    the smallest unsigned dtype that fits ``m`` paths, which numpy sorts by
    radix up to 16 bits.  Tied values are equal, so the result is bitwise
    that of ``lexsort``.
    """
    order = np.argsort(u)
    key = path[order].astype(np.min_scalar_type(m - 1))
    return u[order[np.argsort(key, kind="stable")]]


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
    # the inverse CDF of Generator.choice(len(rates), size, p=rates / total_rate), on the same
    # uniform draw, without its validation of p
    cdf = np.cumsum(rates / total_rate)
    comps = (cdf / cdf[-1]).searchsorted(rng.random(path.size), side="right")
    # sizes are i.i.d. and independent of the times: sorting the times alone suffices
    sizes = signs[comps] * rng.exponential(size=path.size) / scales[comps]
    times = _path_sorted(u, path, m)

    n_seg = counts + 1
    first = np.cumsum(n_seg) - n_seg
    last = first + counts
    at = np.arange(path.size) + path  # the segment ending at each jump
    end = np.empty(path.size + m)
    end[at] = times
    end[last] = horizon
    begin = np.empty_like(end)
    begin[1:] = end[:-1]
    begin[first] = 0.0
    dt = end - begin
    jump = np.zeros_like(end)
    jump[at] = sizes

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

    peak = start + rise
    after[last] = -np.inf  # the last segment has no jump
    sup = np.maximum(np.maximum.reduceat(np.maximum(peak, after), first), 0.0)
    # candidate 2k is segment k's peak, 2k + 1 the value after its jump; a path
    # with sup > 0 attains it, and its winner is its first candidate that does
    seg_sup = np.repeat(sup, n_seg)
    hit = np.empty(2 * dt.size, dtype=bool)
    np.equal(peak, seg_sup, out=hit[0::2])
    np.equal(after, seg_sup, out=hit[1::2])
    hits = np.flatnonzero(hit)
    pos = np.flatnonzero(sup > 0.0)
    win = hits[np.searchsorted(hits, 2 * first[pos])]

    tmax = np.zeros(m)
    seg = win // 2
    # a jump candidate is attained at the segment end, and so is a linear
    # piece's that wins: with drift <= 0 it would tie the candidate before it
    tmax[pos] = end[seg]
    if v > 0.0:
        inner = win % 2 == 0
        pos, seg = pos[inner], seg[inner]
        tmax[pos] = begin[seg] + _bridge_argmax(rng, rise[seg], w[seg], dt[seg], v)
    return sup, tmax, horizon, killed


def _query_row(q, sup, tmax, out):
    """Write query ``q``'s functional of every sample into ``out``; return its label."""
    if isinstance(q, LaplaceQuery):
        np.exp(-q.xi * sup, out=out)
        return f"laplace(xi={q.xi:g})"
    if isinstance(q, TailQuery):
        np.greater(sup, q.x, out=out)
        return f"tail(x={q.x:g})"
    if isinstance(q, JointQuery):
        np.exp(-q.xi * sup - q.tau * tmax, out=out)
        return f"joint(xi={q.xi:g},tau={q.tau:g})"
    raise ValidationError("queries", f"unknown query {q!r}")


def mc_estimates(samples, queries, seed=0):
    """Empirical means with standard errors for the requested functionals.

    Killed samples contribute their lifetime supremum and argmax time: the
    kill rate is part of the exponent, so analytic comparisons against the
    same spec match this convention.  The queries' values fill one
    (queries x samples) block, at most ``_BLOCK`` values at a time (one row
    when a row alone is larger), and each block takes one ``mean`` and one
    ``std`` call along its rows.
    """
    n = len(samples)
    if n == 0:
        raise ValidationError("samples", "need at least one sample")
    sup, tmax = samples.sup_value, samples.argmax_time
    queries = list(queries)
    rows = max(1, _BLOCK // n)
    out = []
    for lo in range(0, len(queries), rows):
        block = queries[lo:lo + rows]
        y = np.empty((len(block), n))
        labels = [_query_row(q, sup, tmax, row) for q, row in zip(block, y)]
        means = y.mean(axis=1)
        ses = y.std(axis=1, ddof=1) / math.sqrt(n) if n > 1 else np.zeros(len(block))
        out += [McEstimate(float(mean), float(se), n, int(seed), label)
                for mean, se, label in zip(means, ses, labels)]
    return out
