"""Shared numerical kernels.

One batched adaptive panel engine (:func:`refine_panels`) behind every
adaptive quadrature of the package: the spine Stieltjes integrals, the
supremum-tail node table and :func:`integrate_adaptive`, Gauss-Kronrod
quadrature on lines, half-lines and finite intervals with declared singular
abscissae, which the verification suites use as their reference quadrature
(the bd contour integrals are trapezoidal sums of their own, in
``wiener_hopf``).  One lockstep root solver
(:func:`_lockstep_root`) behind every root of the package.  Also the
principal complex logarithm, a sorted unique that keeps ``numpy.ma``
unimported, a deterministic 64-bit-seeded generator and
:class:`_LRU`, the bounded memo behind every cached result of the package.
The work counts of the package's choke points live in one module-level
dict, read by :func:`work_counts`.

Integrands passed to :func:`integrate_adaptive` must accept a numpy array of
abscissae and return an array of values (real or complex).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DomainError, QuadratureError

__all__ = [
    "QuadratureConfig",
    "PanelSum",
    "refine_panels",
    "gk15",
    "gk15_nodes",
    "gk15_sums",
    "integrate_adaptive",
    "bisect_monotone",
    "principal_log",
    "sorted_unique",
    "make_rng",
    "work_counts",
]

# work counts, each incremented at its one choke point (README, "Work counters")
_WORK = dict.fromkeys((
    "refine_panels.calls",
    "refine_panels.rounds",
    "solve_spine.calls",
    "solve_spine.radii",
    "lockstep.steps",
    "lockstep.points",
    "lockstep.float_steps",
    "eval_f.points",
    "eval_f.core_calls",
    "eval_f_prime.core_calls",
    "phi_kernel.passes",
    "estimate_phi.calls",
    "bd_sum.calls",
    "bd_sum.nodes",
), 0)


def work_counts():
    """A snapshot of the package's work counts since import: a copy, so that a difference of
    two snapshots is the work done between them."""
    return dict(_WORK)


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


class PanelSum(NamedTuple):
    """Summed value and error of :func:`refine_panels` and its final panels."""

    value: complex
    err: float
    converged: bool
    lo: np.ndarray
    hi: np.ndarray
    rows: np.ndarray


def refine_panels(estimate, lo, hi, abs_tol, rel_tol=0.0, *, max_splits):
    """Adaptive refinement of the panels [lo, hi] in batched rounds.

    ``estimate(lo, hi)`` maps arrays of panels to per-panel values, error
    estimates and rows (a 2-d array, one row per panel); it is called once
    on the initial panels and once per round on the new halves.  Each round
    splits at their midpoints the fewest largest panels whose errors cover
    the excess of the summed error over max(abs_tol, rel_tol |sum|) (every
    open panel with error when all fall short), within the ``max_splits``
    left: a globally adaptive batch (Berntsen, Espelid & Genz, ACM TOMS 17,
    1991).  Each round builds new arrays, in which left halves replace their
    parents and right halves are appended (with no split, the arrays in and
    first estimated are returned).  A panel at floating-point resolution is
    never split and keeps its estimate.

    Stops converged when the summed error meets the goal, and unconverged
    when ``max_splits`` is used up or no splittable panel has error left.
    """
    _WORK["refine_panels.calls"] += 1
    _WORK["refine_panels.rounds"] += 1
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    value, err, rows = map(np.asarray, estimate(lo, hi))
    splits = 0
    while True:
        err_sum, total = float(np.add.reduce(err)), np.add.reduce(value)
        goal = max(abs_tol, rel_tol * abs(total))
        if err_sum <= goal or splits >= max_splits:
            break
        mid = 0.5 * (lo + hi)
        open_err = np.where((lo < mid) & (mid < hi), err, 0.0)
        if not open_err.max() > 0.0:
            break
        worst = np.flatnonzero(open_err > 0.0)
        worst = worst[np.argsort(-err[worst], kind="stable")]
        cover = int(np.searchsorted(np.cumsum(err[worst]), err_sum - goal)) + 1
        sel = worst[: min(cover, max_splits - splits)]
        m = len(sel)
        _WORK["refine_panels.rounds"] += 1
        left, right = mid[sel], hi[sel]
        v2, e2, r2 = estimate(np.concatenate([lo[sel], left]), np.concatenate([left, right]))
        lo, hi, value, err, rows = (np.concatenate([old, new]) for old, new in zip(
            (lo, hi, value, err, rows), (left, right, v2[m:], e2[m:], r2[m:])))
        hi[sel], value[sel], err[sel], rows[sel] = left, v2[:m], e2[:m], r2[:m]
        splits += m
    return PanelSum(total, err_sum, err_sum <= goal, lo, hi, rows)


def gk15_nodes(lo, hi):
    """Kronrod nodes and weights of the panels [lo, hi], one row per panel."""
    h = 0.5 * (hi - lo)
    return (0.5 * (lo + hi))[:, None] + h[:, None] * _XK, h[:, None] * _WK


def gk15_sums(lo, hi, w, rows):
    """Kronrod sums and |Kronrod - Gauss| of node values ``rows`` on the panels [lo, hi].

    ``w`` are the Kronrod weights from :func:`gk15_nodes`, one row per panel.
    """
    k = np.add.reduce(w * rows, axis=1)
    g = 0.5 * (hi - lo) * (rows[:, _GAUSS_IDX] @ _WG)
    return k, np.abs(k - g)


def gk15(fn):
    """Gauss-Kronrod 15 panel estimate for :func:`refine_panels`.

    Calls the vectorized ``fn`` once on every panel's 15 nodes; returns the
    Kronrod values, |Kronrod - Gauss| and the node values as rows.
    """

    def estimate(lo, hi):
        x, w = gk15_nodes(lo, hi)
        rows = np.asarray(fn(x.ravel())).reshape(x.shape)
        return (*gk15_sums(lo, hi, w, rows), rows)

    return estimate


def _piecewise_axis(cuts, singular, seed=()):
    """Lay the segments between ``cuts`` end to end on one parameter axis p.

    Each segment is mapped plainly, or by x = anchor +- v^2 beside a
    singular end (both ends singular: halved first), which absorbs an
    inverse square-root singularity there; the map is continuous and
    increasing.  The axis origin sits at the piece end nearest x = 0, so
    that a singular point there is resolved as finely as floating point
    allows; on an axis from 0 to a singular upper end (a half-line's t),
    the last piece goes before the origin instead, so that both ends are and
    the map jumps there.  Pieces with a singular end start with edges at the
    fractions ``seed`` of their length in v from that end.  Returns the map
    p -> (x, dx/dp, gap), gap the distance to the nearer axis end (exact v^2
    beside a singular one), and the initial panels (lo, hi) in p.
    """
    pieces = []  # (x_lo, x_hi, kind); kind -1/+1: singular left/right end
    for a, b in zip(cuts, cuts[1:]):
        left, right = a in singular, b in singular
        if left and right:
            pieces += [(a, 0.5 * (a + b), -1), (0.5 * (a + b), b, 1)]
        else:
            pieces.append((a, b, int(right) - int(left)))
    wrap = cuts[0] == 0.0 and cuts[-1] in singular
    x_lo, x_hi, kind = map(np.array, zip(*(pieces[-1:] + pieces[:-1] if wrap else pieces)))
    starts = np.concatenate([[0.0], np.cumsum(np.where(kind, np.sqrt(x_hi - x_lo), x_hi - x_lo))])
    starts -= starts[1] if wrap else starts[np.argmin(np.abs(np.append(x_lo, x_hi[-1])))]
    ref = np.where(kind == 1, starts[1:], starts[:-1])  # v = 0 on the axis
    anchor = np.where(kind == 1, x_hi, x_lo)  # and its image
    at_end = (kind != 0) & ((anchor == cuts[0]) | (anchor == cuts[-1]))
    seeds = (ref[:, None] - (kind * np.diff(starts))[:, None] * seed)[kind != 0]
    edges = np.sort(np.append(starts, seeds))

    def to_x(p):
        j = np.clip(np.searchsorted(starts, p, side="right") - 1, 0, len(pieces) - 1)
        d, sq = p - ref[j], kind[j] != 0
        x = np.where(sq, anchor[j] - kind[j] * d * d, anchor[j] + d)
        gap = np.where(at_end[j], d * d, np.minimum(x - cuts[0], cuts[-1] - x))
        return x, np.where(sq, 2.0 * np.abs(d), 1.0), gap

    return to_x, edges[:-1], edges[1:]


def integrate_adaptive(integrand, domain, cfg: QuadratureConfig | None = None):
    """Integrate ``integrand`` over ``domain`` = (a, b), either endpoint infinite.

    The integrand must be vectorized (ndarray -> ndarray) and finite except at
    the config's declared singular points, where the domain is split and the
    adjacent panels get a square-root-absorbing substitution.  Infinite
    domains are compactified first: s = tan(u) for the full line and
    s = o +- t/(1-t) from the finite end o of a half-line; the images of
    infinity are always treated as (potentially) singular endpoints, with
    1 - t and the distance of u to -+pi/2 the exact v^2 there.  Each piece
    between those points starts as one panel, and all are refined together
    by :func:`refine_panels` with Gauss-Kronrod 15 panels; a node rounded
    onto a singular point, or where ds/dt overflows, is not evaluated.  Rows
    keep the integrand's dtype.  The map is built on every call.

    Returns ``(value, err_estimate)``, the estimate at least 1e-16 times the
    Kronrod sum of |integrand| (the rounding floor); raises
    :class:`QuadratureError` with the partial value attached when
    ``max_subdivisions`` is exhausted or a node was not evaluated.
    """
    if cfg is None:
        cfg = QuadratureConfig()
    a, b = domain
    sing = [s for s in cfg.singular_points if math.isfinite(s)]
    if math.isinf(a) and math.isinf(b):

        def to_s(u, gap):  # s = tan(u) and ds/du
            s = np.where(gap < 0.5, np.sign(u) / np.tan(gap), np.tan(u))
            return s, 1.0 + s * s

        lo, hi = -0.5 * math.pi, 0.5 * math.pi
        singular = {lo, hi, *(math.atan(s) for s in sing)}
    elif math.isinf(a) or math.isinf(b):
        o, sgn = (a, 1.0) if math.isinf(b) else (b, -1.0)

        def to_s(t, gap):  # s = o +- t/(1-t) and ds/dt
            w = np.where(t > 0.5, gap, 1.0 - t)
            return o + sgn * t / w, w**-2.0

        lo, hi = 0.0, 1.0
        singular = {hi, *(d / (1.0 + d) for d in (sgn * (s - o) for s in sing) if d >= 0.0)}
    else:
        to_s = lambda x, gap: (x, 1.0)
        lo, hi = float(a), float(b)
        singular = set(sing)
    if lo >= hi:
        raise ValueError("empty or inverted integration domain")
    to_x, p_lo, p_hi = _piecewise_axis(sorted({lo, hi, *(u for u in singular if lo < u < hi)}), singular)
    skipped = []

    def estimate(lo, hi):
        p, w = gk15_nodes(lo, hi)
        x, dx, gap = to_x(p)
        with np.errstate(all="ignore"):
            s, ds = to_s(x, gap)
            weight = ds * dx
        on = (weight > 0.0) & (weight < math.inf)
        full = bool(on.all())
        skipped.append(not full)
        vals = np.asarray(integrand(s.ravel() if full else s[on])) * (weight.ravel() if full else weight[on])
        rows = vals.reshape(on.shape) if full else np.zeros(on.shape, vals.dtype)  # the integrand's dtype
        if not full:
            rows[on] = vals
        return (*gk15_sums(lo, hi, w, rows), rows)

    res = refine_panels(
        estimate, p_lo, p_hi, cfg.abs_tol, cfg.rel_tol, max_splits=cfg.max_subdivisions
    )
    value = complex(res.value)
    if not res.converged or any(skipped):
        raise QuadratureError(value, res.err)
    w = 0.5 * (res.hi - res.lo)[:, None] * _WK  # the Kronrod weights
    return value, max(res.err, 1e-16 * float(np.einsum("pj,pj->", w, np.abs(res.rows))))


# open brackets at or below which a lockstep solve finishes per bracket in Python floats: a
# numpy step costs ~55 us whatever its batch, a float step ~7 us plus ~1.3 us a bracket
# (2-core x86-64 host, a g of one numpy call), so the two cross near 36 brackets
_FLOAT_BRACKETS = 32


def _lockstep_root(g, lo, hi, glo, ghi, tol, max_steps=200):
    """Roots of ``g`` on the brackets [lo, hi], solved in lockstep.

    ``glo`` and ``ghi`` are the known end values, and ``g(idx, x)``
    evaluates the open brackets ``idx`` at the points ``x`` in one call
    (never with an empty ``idx``).  A bracket with g > 0 at both ends gives
    lo, one with g < 0 at both ends hi (the ends where a rising g would
    change sign), and an exact zero at an end gives that end, with no
    step.  Each other bracket, where g changes sign either way, follows
    Chandrupatla's hybrid (Adv. Eng. Softw. 28, 1997): the next point is
    the inverse quadratic interpolant through the last three points where
    that is monotone (phi^2 < xi and (1 - phi)^2 < 1 - xi), the midpoint
    otherwise, kept at least tol/2 inside the bracket.  A bracket wider
    than width_0 2^{-(k+1)/2} before its step k takes the midpoint, so no
    bracket takes more than twice the steps of bisection.  A bracket stops
    with its midpoint at width ``tol`` (scalar or per bracket) or when the
    midpoint is not strictly inside, with the point itself at an exact zero
    of g, and after ``max_steps`` steps.  The steps use g only through
    its signs and ratios of its values, so -g gives the same points.

    The steps run on numpy arrays of the open brackets while more than
    ``_FLOAT_BRACKETS`` are open, and from then on per bracket in Python
    floats (:func:`_float_steps`), with g still called once a step on all
    open brackets.  Both paths make the same IEEE operations in the same
    order, so every root, step and point is the same whichever path takes it.
    """
    ends = [(glo > 0.0) & (ghi > 0.0), (glo < 0.0) & (ghi < 0.0), glo == 0.0, ghi == 0.0]
    out = np.where(ends[0] | ends[2], lo, np.where(ends[1] | ends[3], hi, np.nan))  # glo = 0 first
    idx = np.flatnonzero(~np.logical_or.reduce(ends))
    tol = np.broadcast_to(tol, lo.shape)[idx]
    a, b, fa, fb = lo[idx], hi[idx], glo[idx], ghi[idx]  # a: the latest point, b: the far end
    d = b - a
    w0 = np.abs(d)
    t = np.full(idx.shape, 0.5)  # the next point is a + t d
    for k in range(max_steps):
        w, mid = np.abs(d), 0.5 * (a + b)
        go = (w > tol) & (mid != a) & (mid != b)
        if not go.all():
            out[idx[~go]] = mid[~go]
            idx, a, b, d, fa, fb, t, tol, w0, w = (
                v[go] for v in (idx, a, b, d, fa, fb, t, tol, w0, w)
            )
        if idx.size <= _FLOAT_BRACKETS:
            return _float_steps(g, out, idx, (a, b, d, fa, fb, t, tol, w0), k, max_steps)
        tl = 0.5 * tol / w
        t = np.where(w > w0 * 2.0 ** (-0.5 * (k + 1)), 0.5, np.minimum(np.maximum(t, tl), 1.0 - tl))
        x = a + t * d
        _WORK["lockstep.steps"] += 1
        _WORK["lockstep.points"] += idx.size
        gx = g(idx, x)
        same = (gx < 0.0) == (fa < 0.0)  # x replaces a; otherwise a becomes the far end b
        c, fc = np.where(same, a, b), np.where(same, fa, fb)  # the point before x
        b, fb = np.where(gx == 0.0, x, np.where(same, b, a)), np.where(same, fb, fa)
        a, fa, d = x, gx, b - x  # an exact zero leaves the bracket [x, x]
        # the interpolant divides by fc - fa, which is 0 where it is not monotone
        # (phi = 1); those brackets take the midpoint
        with np.errstate(all="ignore"):
            dab, dcb = fb - fa, fc - fb
            xi, phi = -d / (c - b), -dab / dcb
            iqi = (1.0 - np.sqrt(1.0 - xi) < phi) & (phi < np.sqrt(xi))
            t = fa / dcb * ((c - a) / d * fb / (fc - fa) - fc / dab)
            t[~iqi] = 0.5
    out[idx] = 0.5 * (a + b)
    return out


def _float_steps(g, out, idx, state, k0, max_steps):
    """Steps k0, k0 + 1, ... of :func:`_lockstep_root` on its open brackets ``idx``, each
    bracket's ``state`` (a, b, d, fa, fb, t, tol, w0) in Python floats; the roots go into ``out``.

    Every bracket is open at step k0.  Each operation is the array path's on one element, in
    its order: max and min keep numpy's NaN and tie rules, and the interpolation is tried only
    where its divisors c - b and fc - fb are nonzero and 0 <= xi <= 1, the cases where numpy's
    inf or NaN (or the NaN of a negative's square root) fail its test, so that no float
    operation divides by 0 or takes the root of a negative.  With such a test passed, d,
    fb - fa and fc - fa are nonzero too.
    """
    rows = [[i, *v] for i, *v in zip(idx.tolist(), *(s.tolist() for s in state))]
    at = idx
    for k in range(k0, max_steps):
        if not rows:
            return out
        cut, xs = 2.0 ** (-0.5 * (k + 1)), []
        for row in rows:
            _, a, b, d, fa, fb, t, tol, w0 = row
            w = abs(d)
            if w > w0 * cut:
                t = 0.5
            else:
                tl = 0.5 * tol / w
                t = t if t > tl or t != t else tl  # np.maximum(t, tl)
                t = t if t < 1.0 - tl or t != t else 1.0 - tl  # np.minimum(t, 1 - tl)
            xs.append(a + t * d)
        _WORK["lockstep.steps"] += 1
        _WORK["lockstep.float_steps"] += 1
        _WORK["lockstep.points"] += len(rows)
        gxs = g(at, np.array(xs)).tolist()
        kept = []
        for row, x, gx in zip(rows, xs, gxs):
            _, a, b, d, fa, fb, t, tol, w0 = row
            if (gx < 0.0) == (fa < 0.0):  # x replaces a
                c, fc = a, fa
            else:  # a becomes the far end b
                c, fc, b, fb = b, fb, a, fa
            if gx == 0.0:
                b = x
            a, fa, d = x, gx, b - x
            dab, dcb, cb = fb - fa, fc - fb, c - b
            t = 0.5
            if cb != 0.0 and dcb != 0.0:
                xi, phi = -d / cb, -dab / dcb
                if 0.0 <= xi <= 1.0 and 1.0 - math.sqrt(1.0 - xi) < phi < math.sqrt(xi):
                    t = fa / dcb * ((c - a) / d * fb / (fc - fa) - fc / dab)
            row[1:7] = a, b, d, fa, fb, t
            mid = 0.5 * (a + b)
            if abs(d) > tol and mid != a and mid != b:
                kept.append(row)
            else:
                out[row[0]] = mid
        if len(kept) < len(rows):
            rows, at = kept, np.array([row[0] for row in kept], dtype=idx.dtype)
    for row in rows:
        out[row[0]] = 0.5 * (row[1] + row[2])
    return out


def bisect_monotone(g, lo, hi, tol=1e-12, max_iter=200):
    """Root of a nondecreasing scalar ``g`` on finite [lo, hi]: :func:`_lockstep_root` on one bracket.

    If g has constant sign on the interval, the matching endpoint is
    returned: ``lo`` when g > 0 throughout, ``hi`` when g < 0 throughout.
    The bracket is kept by signs alone, so any function with a single
    upward sign change is acceptable.  ``max_iter`` caps the evaluations
    inside the interval.
    """
    if not -math.inf < lo < hi < math.inf:
        raise ValueError("bisect_monotone requires finite lo < hi")
    one = lambda v: np.array([float(v)])
    ends = one(g(lo)), one(g(hi))
    root = _lockstep_root(lambda idx, x: one(g(float(x[0]))), one(lo), one(hi), *ends, tol, max_iter)
    return float(root[0])


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


def sorted_unique(x, return_index=False):
    """The sorted distinct values of ``x`` (flattened), as ``np.unique`` returns them.

    With ``return_index`` also the index of each value's first occurrence
    (the sort is stable).  Unlike ``np.unique`` it keeps every NaN, and it
    does not import ``numpy.ma``, which ``np.unique`` does on its first
    call (some 16 ms).
    """
    x = np.asarray(x).reshape(-1)
    order = np.argsort(x, kind="stable")
    s = x[order]
    new = np.empty(s.shape, dtype=bool)
    new[:1] = True
    new[1:] = s[1:] != s[:-1]
    return (s[new], order[new]) if return_index else s[new]


def make_rng(seed):
    """Deterministic 64-bit-seeded generator (PCG64); reproducible per seed."""
    return np.random.Generator(np.random.PCG64(int(seed)))


class _LRU:
    """A bounded memo; past ``maxsize`` entries the least recently used is evicted.

    ``get(key, build, *args)`` returns the value stored under ``key`` or
    stores and returns ``build(*args)``; a build that raises stores nothing.
    ``hits`` and ``misses`` count ``get`` calls since the last ``clear()``.
    ``key in memo`` and ``len(memo)`` neither count nor refresh an entry.
    Entries live in an ``OrderedDict``, oldest first: a hit moves its key to
    the newest end, and a miss past the bound pops the oldest.
    """

    __slots__ = ("maxsize", "hits", "misses", "_entries")

    def __init__(self, maxsize):
        self.maxsize = maxsize
        self._entries = OrderedDict()
        self.clear()

    def get(self, key, build, *args):
        entries = self._entries
        value = entries.get(key, entries)  # the dict itself is never a stored value
        if value is not entries:
            entries.move_to_end(key)
            self.hits += 1
            return value
        self.misses += 1
        value = entries[key] = build(*args)
        if len(entries) > self.maxsize:
            entries.popitem(last=False)
        return value

    def __contains__(self, key):
        return key in self._entries

    def __len__(self):
        return len(self._entries)

    def clear(self):
        """Drop every entry and zero the counters."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0
