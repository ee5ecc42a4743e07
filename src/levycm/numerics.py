"""Shared numerical kernels.

One batched adaptive panel engine (:func:`refine_panels`), which runs every
adaptive quadrature of the package: Gauss-Kronrod quadrature on lines,
half-lines and finite intervals with declared singular abscissae, the spine
Stieltjes integrals and the supremum-tail node table.  Also sign-change
bisection for monotone functions, the principal complex logarithm,
polynomial extrapolation to zero and a deterministic 64-bit-seeded
generator.

Integrands passed to :func:`integrate_adaptive` must accept a numpy array of
abscissae and return an array of values (real or complex).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, QuadratureError

__all__ = [
    "QuadratureConfig",
    "PanelSum",
    "refine_panels",
    "gk15",
    "gk15_nodes",
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


@dataclass(frozen=True)
class PanelSum:
    """Summed value and error of :func:`refine_panels` and its final panels."""

    value: complex
    err: float
    converged: bool
    splits: int
    lo: np.ndarray
    hi: np.ndarray
    rows: np.ndarray


def refine_panels(estimate, lo, hi, abs_tol, rel_tol=0.0, *, max_splits):
    """Adaptive refinement of the panels [lo, hi] in batched rounds.

    ``estimate(lo, hi)`` maps arrays of panels to per-panel values, error
    estimates and rows (a 2-d array, one row per panel); it is called once
    on the initial panels and once per round on the new halves.  Each round
    splits at their midpoints the panels whose error is at least half the
    largest: at most the fewest largest whose errors cover the excess of the
    summed error over max(abs_tol, rel_tol |sum|), and at most the splits
    left in ``max_splits``.  Left halves replace their parents and right
    halves are appended.  A panel at floating-point resolution is never
    split and keeps its estimate in the sum.

    Stops converged when the summed error meets the goal, and unconverged
    when ``max_splits`` is used up or no splittable panel has error left.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    value, err, rows = estimate(lo, hi)
    splits = 0
    while True:
        err_sum = float(err.sum())
        goal = max(abs_tol, rel_tol * abs(value.sum()))
        mid = 0.5 * (lo + hi)
        open_err = np.where((lo < mid) & (mid < hi), err, -1.0)
        top = open_err.max()
        if err_sum <= goal or splits >= max_splits or not top > 0.0:
            break
        worst = np.flatnonzero(open_err >= 0.5 * top)
        worst = worst[np.argsort(-err[worst], kind="stable")]
        cover = int(np.searchsorted(np.cumsum(err[worst]), err_sum - goal)) + 1
        sel = worst[: min(cover, max_splits - splits)]
        m = len(sel)
        v2, e2, r2 = estimate(
            np.concatenate([lo[sel], mid[sel]]), np.concatenate([mid[sel], hi[sel]])
        )
        lo, hi = np.append(lo, mid[sel]), np.append(hi, hi[sel])
        hi[sel] = mid[sel]
        value[sel], err[sel], rows[sel] = v2[:m], e2[:m], r2[:m]
        value, err = np.append(value, v2[m:]), np.append(err, e2[m:])
        rows = np.concatenate([rows, r2[m:]])
        splits += m
    return PanelSum(value.sum(), err_sum, err_sum <= goal, splits, lo, hi, rows)


def gk15_nodes(lo, hi):
    """Kronrod nodes and weights of the panels [lo, hi], one row per panel."""
    h = 0.5 * (hi - lo)
    return (0.5 * (lo + hi))[:, None] + h[:, None] * _XK, h[:, None] * _WK


def gk15(fn):
    """Gauss-Kronrod 15 panel estimate for :func:`refine_panels`.

    Calls the vectorized ``fn`` once on every panel's 15 nodes; returns the
    Kronrod values, |Kronrod - Gauss| and the node values as rows.
    """

    def estimate(lo, hi):
        x, w = gk15_nodes(lo, hi)
        rows = np.asarray(fn(x.ravel())).reshape(x.shape)
        k = np.sum(w * rows, axis=1)
        g = 0.5 * (hi - lo) * (rows[:, _GAUSS_IDX] @ _WG)
        return k, np.abs(k - g), rows

    return estimate


def _piecewise_axis(fn, cuts, singular):
    """Lay the segments between ``cuts`` end to end on one parameter axis.

    Each segment is mapped plainly, or by x = anchor +- v^2 beside a
    singular end (both ends singular: halved first), which absorbs an
    inverse square-root singularity there; the map is continuous and
    increasing.  The axis origin sits at the piece end nearest x = 0, so
    that a singular point there is resolved as finely as floating point
    allows.  Returns the integrand on the axis and the pieces' (lo, hi).
    """
    pieces = []  # (x_lo, x_hi, kind); kind -1/+1: singular left/right end
    for a, b in zip(cuts, cuts[1:]):
        left, right = a in singular, b in singular
        if left and right:
            pieces += [(a, 0.5 * (a + b), -1), (0.5 * (a + b), b, 1)]
        else:
            pieces.append((a, b, int(right) - int(left)))
    x_lo, x_hi, kind = map(np.array, zip(*pieces))
    starts = np.concatenate([[0.0], np.cumsum(np.where(kind, np.sqrt(x_hi - x_lo), x_hi - x_lo))])
    starts -= starts[np.argmin(np.abs(np.append(x_lo, x_hi[-1])))]
    ref = np.where(kind == 1, starts[1:], starts[:-1])  # v = 0 on the axis
    anchor = np.where(kind == 1, x_hi, x_lo)  # and its image

    def mapped(p):
        j = np.clip(np.searchsorted(starts, p, side="right") - 1, 0, len(pieces) - 1)
        d, sq = p - ref[j], kind[j] != 0
        x = np.where(sq, anchor[j] - kind[j] * d * d, anchor[j] + d)
        return fn(x) * np.where(sq, 2.0 * np.abs(d), 1.0)

    return mapped, starts[:-1], starts[1:]


def integrate_adaptive(integrand, domain, cfg: QuadratureConfig | None = None):
    """Integrate ``integrand`` over ``domain`` = (a, b), either endpoint infinite.

    The integrand must be vectorized (ndarray -> ndarray) and finite except at
    the config's declared singular points, where the domain is split and the
    adjacent panels get a square-root-absorbing substitution.  Infinite
    domains are compactified first: s = tan(u) for the full line and
    s = o +- t/(1-t) from the finite end o of a half-line; the images of
    infinity are always treated as (potentially) singular endpoints.  All
    segments are refined together by :func:`refine_panels` with
    Gauss-Kronrod 15 panels.

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
        singular = {lo, hi, *(math.atan(s) for s in sing)}
    elif math.isinf(a) or math.isinf(b):
        o, sgn = (a, 1.0) if math.isinf(b) else (b, -1.0)  # s = o +- t/(1-t)
        fn = lambda t: integrand(o + sgn * t / (1.0 - t)) / (1.0 - t) ** 2
        lo, hi = 0.0, 1.0
        singular = {hi, *(d / (1.0 + d) for d in (sgn * (s - o) for s in sing) if d >= 0.0)}
    else:
        fn = integrand
        lo, hi = float(a), float(b)
        singular = set(sing)
    if lo >= hi:
        raise ValueError("empty or inverted integration domain")

    cuts = sorted({lo, hi, *(u for u in singular if lo < u < hi)})
    mapped, p_lo, p_hi = _piecewise_axis(fn, cuts, singular)
    res = refine_panels(
        gk15(mapped), p_lo, p_hi, cfg.abs_tol, cfg.rel_tol, max_splits=cfg.max_subdivisions
    )
    value = complex(res.value)
    if not res.converged:
        raise QuadratureError(value, res.err)
    _, w = gk15_nodes(res.lo, res.hi)
    return value, max(res.err, 1e-16 * float(np.sum(np.abs(w * res.rows))))


def bisect_monotone(g, lo, hi, tol=1e-12, max_iter=200, *, glo=None, ghi=None):
    """Root of a nondecreasing ``g`` on [lo, hi] by sign bisection.

    If g has constant sign on the interval, the matching endpoint is
    returned: ``lo`` when g > 0 throughout, ``hi`` when g < 0 throughout.
    Only signs are used, so any function with a single upward sign change
    is acceptable.  A caller that has already evaluated g(lo) or g(hi)
    passes it as ``glo``/``ghi`` and that endpoint is not evaluated again.
    """
    if lo >= hi:
        raise ValueError("bisect_monotone requires lo < hi")
    if glo is None:
        glo = g(lo)
    if ghi is None:
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
