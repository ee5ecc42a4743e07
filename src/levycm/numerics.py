"""Shared numerical kernels.

Adaptive Gauss-Kronrod quadrature on lines, half-lines and finite intervals
with declared singular abscissae, sign-change bisection for monotone
functions, the principal complex logarithm, polynomial extrapolation to zero
and a deterministic 64-bit-seeded generator.

Integrands passed to :func:`integrate_adaptive` must accept a numpy array of
abscissae and return an array of values (real or complex).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, QuadratureError

__all__ = [
    "QuadratureConfig",
    "integrate_adaptive",
    "bisect_monotone",
    "principal_log",
    "richardson_zero",
    "make_rng",
]

# 15-point Kronrod rule with embedded 7-point Gauss rule on [-1, 1].
_XK = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_WK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])
_GAUSS_IDX = np.arange(1, 15, 2)


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_subdivisions: int = 2000
    singular_points: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be positive")
        if self.abs_tol < 0:
            raise ValueError("abs_tol must be nonnegative")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")
        pts = tuple(float(s) for s in self.singular_points)
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValueError("singular_points must be strictly increasing")
        object.__setattr__(self, "singular_points", pts)


def _gk15(fn, lo, hi):
    """One Gauss-Kronrod panel; returns (kronrod, |kronrod - gauss|, scale)."""
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    vals = np.asarray(fn(c + h * _XK))
    k = h * np.sum(_WK * vals)
    g = h * np.sum(_WG * vals[_GAUSS_IDX])
    scale = abs(h) * float(np.sum(_WK * np.abs(vals)))
    return k, abs(k - g), scale


def _integrate_jobs(jobs, cfg):
    """Adaptive refinement over a list of (fn, lo, hi) panel jobs."""
    heap = []
    total = 0.0 + 0.0j
    total_err = 0.0
    total_scale = 0.0
    counter = 0
    for fn, lo, hi in jobs:
        val, err, scale = _gk15(fn, lo, hi)
        total += val
        total_err += err
        total_scale += scale
        heapq.heappush(heap, (-err, counter, fn, lo, hi, val))
        counter += 1

    n_splits = 0
    while True:
        tol = max(cfg.abs_tol, cfg.rel_tol * abs(total))
        if total_err <= tol or not heap:
            break
        if n_splits >= cfg.max_subdivisions:
            raise QuadratureError(total, total_err)
        neg_err, _, fn, lo, hi, old_val = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # Panel at floating-point resolution; keep its estimate.
            continue
        v1, e1, s1 = _gk15(fn, lo, mid)
        v2, e2, s2 = _gk15(fn, mid, hi)
        total += (v1 + v2) - old_val
        total_err += (e1 + e2) - (-neg_err)
        heapq.heappush(heap, (-e1, counter, fn, lo, mid, v1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, fn, mid, hi, v2))
        counter += 1
        n_splits += 1

    total_err = max(total_err, 1e-16 * total_scale)
    return total, total_err


def _sqrt_wrap_left(fn, anchor):
    """Absorb an inverse-square-root singularity at the left endpoint."""

    def wrapped(v):
        return fn(anchor + v * v) * (2.0 * v)

    return wrapped


def _sqrt_wrap_right(fn, anchor):
    def wrapped(v):
        return fn(anchor - v * v) * (2.0 * v)

    return wrapped


def _segment_jobs(fn, lo, hi, sing_left, sing_right):
    """Panel jobs for [lo, hi], sqrt-absorbing declared singular endpoints."""
    if not sing_left and not sing_right:
        return [(fn, lo, hi)]
    if sing_left and sing_right:
        mid = 0.5 * (lo + hi)
        return _segment_jobs(fn, lo, mid, True, False) + _segment_jobs(
            fn, mid, hi, False, True
        )
    if sing_left:
        return [(_sqrt_wrap_left(fn, lo), 0.0, math.sqrt(hi - lo))]
    return [(_sqrt_wrap_right(fn, hi), 0.0, math.sqrt(hi - lo))]


def integrate_adaptive(integrand, domain, cfg: QuadratureConfig | None = None):
    """Integrate ``integrand`` over ``domain`` = (a, b), either endpoint infinite.

    The integrand must be vectorized (ndarray -> ndarray) and finite except at
    the config's declared singular points, where the domain is split and the
    adjacent panels get a square-root-absorbing substitution.  Infinite
    domains are compactified first: s = tan(u) for the full line and
    s = a + t/(1-t) for half-lines; the images of infinity are always treated
    as (potentially) singular endpoints.

    Returns ``(value, err_estimate)``; raises :class:`QuadratureError` with
    the partial value attached when ``max_subdivisions`` is exhausted.
    """
    if cfg is None:
        cfg = QuadratureConfig()
    a, b = domain
    sing = [s for s in cfg.singular_points if math.isfinite(s)]

    if math.isinf(a) and math.isinf(b):
        fn = lambda u: integrand(np.tan(u)) / np.cos(u) ** 2
        lo, hi = -0.5 * math.pi, 0.5 * math.pi
        interior = sorted(math.atan(s) for s in sing)
        endpoint_sing = {lo, hi}
    elif math.isinf(b):
        fn = lambda t: integrand(a + t / (1.0 - t)) / (1.0 - t) ** 2
        lo, hi = 0.0, 1.0
        interior = sorted((s - a) / (1.0 + (s - a)) for s in sing if s > a)
        endpoint_sing = {hi}
        if a in cfg.singular_points:
            endpoint_sing.add(lo)
    elif math.isinf(a):
        flipped = lambda s: integrand(-s)
        return integrate_adaptive(
            flipped,
            (-b, math.inf),
            QuadratureConfig(
                cfg.rel_tol,
                cfg.abs_tol,
                cfg.max_subdivisions,
                tuple(sorted(-s for s in cfg.singular_points)),
            ),
        )
    else:
        fn = integrand
        lo, hi = float(a), float(b)
        interior = sorted(s for s in sing if lo < s < hi)
        endpoint_sing = set()
        if lo in cfg.singular_points:
            endpoint_sing.add(lo)
        if hi in cfg.singular_points:
            endpoint_sing.add(hi)

    if lo >= hi:
        raise ValueError("empty or inverted integration domain")

    cuts = [lo] + [u for u in interior if lo < u < hi] + [hi]
    jobs = []
    for seg_lo, seg_hi in zip(cuts, cuts[1:]):
        left_sing = seg_lo in endpoint_sing or seg_lo in interior
        right_sing = seg_hi in endpoint_sing or seg_hi in interior
        jobs.extend(_segment_jobs(fn, seg_lo, seg_hi, left_sing, right_sing))

    return _integrate_jobs(jobs, cfg)


def bisect_monotone(g, lo, hi, tol=1e-12, max_iter=200):
    """Root of a nondecreasing ``g`` on [lo, hi] by sign bisection.

    If g has constant sign on the interval, the matching endpoint is
    returned: ``lo`` when g > 0 throughout, ``hi`` when g < 0 throughout.
    Only signs are used, so any function with a single upward sign change
    is acceptable.
    """
    if lo >= hi:
        raise ValueError("bisect_monotone requires lo < hi")
    glo = g(lo)
    ghi = g(hi)
    if glo > 0.0 and ghi > 0.0:
        return lo
    if glo < 0.0 and ghi < 0.0:
        return hi
    if glo == 0.0:
        return lo
    if ghi == 0.0:
        return hi
    for _ in range(max_iter):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        gm = g(mid)
        if gm == 0.0:
            return mid
        if gm < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def principal_log(z):
    """Principal-branch complex logarithm; rejects the closed cut (-inf, 0]."""
    z = np.asarray(z, dtype=complex)
    on_cut = (z.imag == 0.0) & (z.real <= 0.0)
    if np.any(on_cut):
        raise DomainError("principal_log is undefined on (-inf, 0]")
    out = np.log(z)
    if out.ndim == 0:
        return complex(out)
    return out


def richardson_zero(ts, ys):
    """Polynomial extrapolation of samples (t_i, y_i) to t = 0.

    Exact for polynomials of degree < len(ts); used for one-sided boundary
    limits along epsilon ladders.
    """
    ts = np.asarray(ts, dtype=float)
    ys = np.asarray(ys)
    n = len(ts)
    out = ys[0] * 0
    for j in range(n):
        lj = 1.0
        for k in range(n):
            if k != j:
                lj *= ts[k] / (ts[k] - ts[j])
        out = out + lj * ys[j]
    return out


def make_rng(seed):
    """Deterministic 64-bit-seeded generator (PCG64); reproducible per seed."""
    return np.random.Generator(np.random.PCG64(int(seed)))
