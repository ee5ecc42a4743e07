"""Wiener-Hopf factors f+ and f- of a Rogers function, three ways.

``f(xi) = f+(-i xi) f-(i xi)`` with complete Bernstein factors, unique up to
a constant split; the library fixes c+ = c- = sqrt(c) where c is the
exponential-representation constant of f.  Three independent evaluation
routes are provided:

* ``phi``   -- the exponential formula over a cached boundary-angle table,
* ``bd``    -- a Baxter-Donsker-type contour integral along the real line,
* ``spine`` -- a Riemann-Stieltjes integral along the spine of f.

Ratios f+(x1)/f+(x2) and products f+(x1) f-(x2) are normalization-free and
are what the public operations return.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from .errors import (
    DomainError,
    EstimationError,
    MethodUnsupportedError,
    QuadratureError,
)
from .numerics import (
    _LRU,
    _WORK,
    _lockstep_root,
    _piecewise_axis,
    gk15_nodes,
    gk15_sums,
    refine_panels,
    sorted_unique,
)
from .report import VerifyReport
from .rogers import (
    PhiTable,
    _axis_limit,
    axis_feature_points,
    estimate_phi,
    eval_f,
    f_limits,
    is_constant,
    is_degenerate,
)
from .spine import _on_axis, _profile_slope, _z_crossings, solve_spine

__all__ = [
    "build_phi_table",
    "FactorHandle",
    "wh_ratio",
    "wh_product",
    "factorization_check",
    "closed_form_factors",
    "SpineStieltjes",
    "get_phi_table",
    "get_spine_engine",
    "get_factor_handle",
    "factor_pair",
]

PLUS = "plus"
MINUS = "minus"
_METHODS = ("bd", "spine", "phi")


def _check_side(side):
    if side not in (PLUS, MINUS):
        raise ValueError("side must be 'plus' or 'minus'")


# ---------------------------------------------------------------------------
# boundary-angle table construction
# ---------------------------------------------------------------------------


# seed grid: 512 log cells per side over [1e-6, 1e6], plus rings around the axis features
_PHI_S_MIN = 1e-6
_PHI_S_MAX = 1e6
_PHI_N_BASE = 512
_PHI_RINGS = np.array([1e-3, 1e-6, 1e-9])
# cell test |phi_mid - interp| * min(log-width, 1): a local integral-error proxy
_PHI_REFINE_TOL = 2e-7
_PHI_MIN_WIDTH = 1e-10  # relative width below which a cell is not examined
_PHI_MAX_POINTS = 40000  # refinement estimates per table


def build_phi_table(spec):
    """Piecewise-linear :class:`PhiTable` of the boundary angle over +-[1e-6, 1e6].

    The seed grid is log-spaced on each side of s = 0 (no cell crosses it)
    with points at relative distance 1e-3, 1e-6 and 1e-9 on both sides of
    every axis feature, so that narrow jump pairs cannot hide inside one
    cell.  Each level (one :func:`estimate_phi` call) gives every cell wider
    than 1e-10 relative its geometric midpoint and splits it where
    |phi_mid - interp| * min(log-width, 1) > 2e-7 (a kink).  A jump cell,
    whose ends read exactly 0 and pi (a zero or pole of f on the axis),
    leaves the refinement where it appears; all are solved in one
    ``_lockstep_root`` call on re f(+0 - is) to final brackets of w, the
    largest power of two <= 1e-15 min |s| of the cell, and each root r gets
    the breakpoints r -+ w/2 with the cell's end values.  Raises
    :class:`EstimationError` when the 40 000-estimate budget runs out.
    """
    base = np.geomspace(_PHI_S_MIN, _PHI_S_MAX, _PHI_N_BASE + 1)
    f = np.asarray(axis_feature_points(spec), dtype=float)
    f = f[(np.abs(f) > _PHI_S_MIN) & (np.abs(f) < _PHI_S_MAX), None]
    rings = f * np.concatenate([1.0 + _PHI_RINGS, 1.0 - _PHI_RINGS])
    s = sorted_unique(np.concatenate([-base, base, rings.ravel()]))
    p = estimate_phi(spec, s)
    out = [(s, p)]  # (breakpoints, phi) of the seed, each level and the jumps
    start = np.delete(np.arange(s.size - 1), np.searchsorted(s, 0.0) - 1)  # no cell across s = 0
    lo, hi, p_lo, p_hi = s[start], s[start + 1], p[start], p[start + 1]
    jumps, budget = [], _PHI_MAX_POINTS
    while True:
        jump = np.abs(p_hi - p_lo) == math.pi  # phi is in [0, pi]: the ends are exactly 0 and pi
        jumps.append(np.stack([lo, hi, p_lo, p_hi])[:, jump])
        wide = ~jump & (hi - lo > _PHI_MIN_WIDTH * np.minimum(np.abs(lo), np.abs(hi)))
        lo, hi, p_lo, p_hi = lo[wide], hi[wide], p_lo[wide], p_hi[wide]
        if not lo.size:
            break
        if lo.size > budget:
            raise EstimationError(f"phi table refinement needs more than {_PHI_MAX_POINTS} estimates")
        budget -= lo.size
        mid = np.copysign(np.sqrt(lo * hi), lo)
        p_mid = estimate_phi(spec, mid)
        w = (mid - lo) / (hi - lo)
        width_u = np.log(np.where(lo > 0.0, hi / lo, lo / hi))
        miss = np.abs(p_mid - ((1.0 - w) * p_lo + w * p_hi))
        split = miss * np.minimum(width_u, 1.0) > _PHI_REFINE_TOL
        out.append((mid, p_mid))
        mid, p_mid = mid[split], p_mid[split]
        lo, hi = np.concatenate([lo[split], mid]), np.concatenate([mid, hi[split]])
        p_lo, p_hi = np.concatenate([p_lo[split], p_mid]), np.concatenate([p_mid, p_hi[split]])
    lo, hi, p_lo, p_hi = np.concatenate(jumps, axis=1)
    if lo.size:
        w = np.ldexp(0.5, np.frexp(1e-15 * np.minimum(np.abs(lo), np.abs(hi)))[1])  # 2^k <= 1e-15 min|s|
        g = lambda idx, x: _axis_limit(spec, -x).real
        root = _lockstep_root(g, lo, hi, g(None, lo), g(None, hi), w)
        out += [(root - 0.5 * w, p_lo), (root + 0.5 * w, p_hi)]
    s_all, p_all = (np.concatenate(v) for v in zip(*out))
    s_all, keep = sorted_unique(s_all, return_index=True)
    p_all = np.clip(p_all[keep], 0.0, math.pi)
    return PhiTable(s_all.tolist(), p_all.tolist(), "piecewise-linear")


# ---------------------------------------------------------------------------
# factor evaluation from a phi table
# ---------------------------------------------------------------------------


class FactorHandle:
    """Evaluator for one Wiener-Hopf factor under c+ = c- = sqrt(c).

    Both sides read the table's one record ``PhiTable._factors``.  The
    representation constant c is anchored at xi = 1 so that the two
    factors reconstruct f exactly there.  Ratios and products against the
    complementary handle are unchanged when ``scale`` is multiplied by some
    kappa and the other handle's divided by it.
    """

    def __init__(self, spec, side):
        _check_side(side)
        self.spec = spec
        self.side = side
        factors = get_phi_table(spec)._factors
        self._side = factors.side(0 if side == PLUS else 1)
        # anchor: f(1) = c exp(E+(-i) + E-(i)) under f(xi) = f+(-i xi) f-(i xi), one pass per table
        self.c_const = abs(eval_f(spec, 1.0 + 0.0j) * cmath.exp(-factors.e_one))
        self.scale = math.sqrt(self.c_const)

    def eval(self, xi):
        """Factor value at xi off (-inf, 0]; complete Bernstein in xi.

        At xi = 0 the factor is 0 where phi has inner support (E(0) = -inf).
        """
        xi = np.asarray(xi, dtype=complex)
        left = xi.real < 0.0
        if left.any() and (xi.imag[left] == 0.0).any():
            raise DomainError("factor evaluation on the cut (-inf, 0]")
        out = self.scale * np.exp(self._side.exponent(xi))
        return complex(out) if xi.ndim == 0 else out

    __call__ = eval


_PHI_CACHE = _LRU(64)  # spec -> table, 0.14-0.25 MB each and its factor record (README, "Caching")
_HANDLE_CACHE = _LRU(64)  # (spec, side) -> handle, ~2 kB besides its table
_ENGINE_CACHE = _LRU(16)  # spec -> engine, 26-79 kB of spine sample arrays after one ratio


def get_phi_table(spec):
    """The cached :func:`build_phi_table` of ``spec``."""
    return _PHI_CACHE.get(spec, build_phi_table, spec)


def get_factor_handle(spec, side) -> "FactorHandle":
    """The cached :class:`FactorHandle` of one side, on the cached phi table."""
    return _HANDLE_CACHE.get((spec, side), FactorHandle, spec, side)


def get_spine_engine(spec) -> "SpineStieltjes":
    """The cached :class:`SpineStieltjes` of ``spec``; its spine samples live as long as it does."""
    return _ENGINE_CACHE.get(spec, SpineStieltjes, spec)


def factor_pair(spec):
    """The cached plus and minus handles, each of scale sqrt(c)."""
    return get_factor_handle(spec, PLUS), get_factor_handle(spec, MINUS)


# ---------------------------------------------------------------------------
# Baxter-Donsker route
# ---------------------------------------------------------------------------

_BD_H = 0.2  # the trapezoidal sums of _bd_sum are on u_k = k h, |k| <= _BD_END (x a normal float)
_BD_END = 3540
_BD_X = np.exp(np.arange(-_BD_END, _BD_END + 1) * _BD_H)
_BD_NEAR = 1280  # f is first evaluated on |k| <= _BD_NEAR (|u| <= 256), the whole grid once needed
_BD_CUT = 1e-18  # a term is negligible at most _BD_CUT max(1, |T_h|)
_BD_PAD = 240  # nodes (48 in u) past which a kernel's x/|b| or |b|/x times |g| <= 750 is below the cut
_BD_EDGE = 8  # the outer band of terms on each side of a window that must be negligible
_BD_NOISE = 88  # nodes below a pole, and _BD_EDGE more, where rounding in g times x/|b| is negligible
_BD_GOAL = 1e-12  # T_h's error goal: |T_h - T_2h| <= sqrt(_BD_GOAL) max(1, |T_h|)
_BD_KAPPA = _LRU(4096)  # (spec, terms) -> product, ~0.4 kB each besides the spec
_BD_GRID = _LRU(8)  # spec -> _BdGrid, 32 B a node of its run and 16 B for each cached row (README)


class _BdGrid:
    """One spec's f = fr + i fi on its run [lo, hi] of the bd grid: the nodes around x = 1 where f
    is finite and nonzero, first within |k| <= ``_BD_NEAR``, on the whole grid once :meth:`widen`
    finds a window that needs a node past an ``open`` end (none unusable there).  ``rise`` is the
    largest |f - f(0+)| up to each node and ``fall`` the smallest |f| from it on; ``below`` keeps
    the last 16 low ends read off ``rise``, and ``rows`` log |q| - S_tau and arg q of the last 4
    quotients of one tau with a pole at 0 (the sigma quotient of ``pr_laplace``)."""

    def __init__(self, spec):
        lim = f_limits(spec)
        self.spec, self.f0, self.bounded = spec, lim.f_at_zero, math.isfinite(lim.f_at_infinity)
        self._run(_BD_NEAR)

    def _run(self, n):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # the run ends before them
            f = eval_f(self.spec, _BD_X[_BD_END - n:_BD_END + n + 1])
        bad = np.flatnonzero(~(np.isfinite(f) & (f != 0.0))) - n
        below, above = bad[bad < 0], bad[bad >= 0]
        self.lo, self.hi = int(below.max(initial=-n - 1)) + 1, int(above.min(initial=n + 1)) - 1
        self.open = (not below.size and n < _BD_END, not above.size and n < _BD_END)
        f = f[self.lo + n:self.hi + n + 1]
        self.fr, self.fi = f.real.copy(), f.imag.copy()
        self.fr_min, self.fr_max = float(f.real.min(initial=math.inf)), float(f.real.max(initial=-math.inf))
        self.rise = np.maximum.accumulate(np.abs(f - self.f0))
        self.fall = np.minimum.accumulate(np.abs(f[::-1]))[::-1].copy()  # contiguous, for searchsorted
        self.rows, self.below = _LRU(4), _LRU(16)

    def widen(self, lo, hi):
        """Whether [lo, hi] reaches past an open end of the run, which then becomes the whole grid's."""
        out = (lo < self.lo and self.open[0]) or (hi > self.hi and self.open[1])
        if out:
            self._run(_BD_END)
        return out


def _pole_kernels(x, lo, c0, others, vanishing):
    """re and im of c0 + sum c x/(x - i b) over a quotient's poles (c, b) ``others`` (b != 0) at the
    nodes x of a window from node lo, c0 the sum of c over its poles at 0: each term is
    c r (r + i)/(r^2 + 1), r = x/b, bounded by |c| (r clipped to +-1e150, past which it is c to all
    digits).  re is C - sum c/(r^2 + 1), C = c0 + sum c, exactly C where x >> |b|, so that terms that
    cancel toward infinity cancel exactly; where g does not vanish toward 0 (not ``vanishing``), re
    is c0 + sum c r^2/(r^2 + 1) below the geometric mean of the |b|, to keep its digits there."""
    p = 0 if vanishing else min(max(0, math.ceil(
        sum([math.log(abs(b)) for _, b in others]) / (len(others) * _BD_H)) - lo), x.size)
    re = im = None
    for c, b in others:
        r = (x if x[-1] <= 1e150 * abs(b) else np.minimum(x, 1e150 * abs(b))) / b
        d = r * r
        d += 1.0
        np.divide(c, d, out=d)  # c/(r^2 + 1)
        im_b = r * d
        if p:
            r *= im_b  # c r^2/(r^2 + 1)
            r[p:] = d[p:]
            d = r
        re, im = (d, im_b) if re is None else (re + d, im + im_b)
    np.subtract(c0 + sum([c for c, _ in others]), re[p:], out=re[p:])
    if p and c0:
        re[:p] += c0
    return re, im


def _bd_kappa(spec, terms):
    """prod_k kappa^{side_k}(tau_k, x_k)^{s_k} for ``terms`` (side_k, tau_k, x_k, s_k), s_k = +-1.

    With S_tau = log(tau + f(0+)) (0 where that is 0), its log is (1/2) sum_k s_k S_{tau_k} + T/pi,
    T = int_0^inf im(sum kern g) dx over the poles (side, a): kern = 1/(x - i a) on the plus side
    and -1/(x + i a) on the minus side, g the principal log of the one quotient
    prod (tau + f)^{s_k} over the terms at the pole, less their sum s_k S_{tau_k} (poles whose
    quotients agree up to a sign share one g); by f(-x) = conj f(x) this is the contour integral
    over the real line at half the points.  T is :func:`_bd_sum`'s.  Different tau_k need an
    unbounded exponent (:class:`MethodUnsupportedError`) and tau + f(0+) > 0, no quotient may
    meet (-inf, 0] (:class:`DomainError`), and no pole x_k may lie past the run of nodes where f
    is finite and nonzero (:class:`QuadratureError`).  Memoized on (spec, terms); a call that
    raises stores nothing.
    """
    return _BD_KAPPA.get((spec, terms), _bd_integral, spec, terms)


def _bd_integral(spec, terms):
    plan = _bd_plan(spec, terms)
    return math.exp(0.5 * sum([s * plan[1][tau] for _, tau, _, s in terms]) + _bd_sum(*plan)[0] / math.pi)


def _bd_plan(spec, terms):
    """The grid, S_tau by tau, the quotients ((tau, s), ...) of ``terms`` (led by s = +1), each with
    [c0, [(c, b), ...]] (the sum of c over its poles at 0 and its other poles, kern = c/(x - i b)),
    and the window [lo, hi] of :func:`_bd_window`; the checks of :func:`_bd_kappa` are made here."""
    grid = _BD_GRID.get(spec, _BdGrid, spec)
    S, poles = {}, {}  # tau -> S_tau; (side, x) -> [(tau, s)]
    for side, tau, x, s in terms:
        S[tau] = math.log(tau + grid.f0) if tau + grid.f0 > 0.0 else 0.0
        poles.setdefault((side, x), []).append((tau, s))
    if len(S) > 1:
        if grid.bounded:
            raise MethodUnsupportedError("temporal ratios need an unbounded exponent; compound Poisson "
                                         "specs route through kappa_circ and the product identity")
        if min(S) + grid.f0 <= 0.0:
            raise DomainError("tau + f(0+) must be positive for every temporal argument")
    parts = {}
    for (side, a), group in poles.items():
        sign = group[0][1]
        part = parts.setdefault(tuple([(tau, s * sign) for tau, s in group]), [0, []])
        c = sign if side == PLUS else -sign
        if a:
            part[1].append((c, a if side == PLUS else -a))
        else:
            part[0] += c
    lo, hi = _bd_window(grid, parts)
    if grid.widen(lo, hi):
        lo, hi = _bd_window(grid, parts)
    for _, _, x, _ in terms:  # a pole past the run has its whole band of terms unformed
        if x and not grid.lo <= math.log(x) / _BD_H <= grid.hi:
            raise QuadratureError(math.nan, math.inf, f"the pole at x = {x!r} lies past an end of the "
                                                      "nodes where f is finite and nonzero")
    return grid, S, parts, max(lo, grid.lo), min(hi, grid.hi)


def _bd_window(grid, parts):
    """The nodes [lo, hi] out of which every term of ``parts`` is below the cut, by bounds met
    ``_BD_EDGE`` nodes inside.  Below: where every tau + f(0+) > 0, |g| <= 2 n |f - f(0+)|/
    min(tau + f(0+)) for n taus, read off ``rise``, and (as g is known to 750 eps) ``_BD_NOISE``
    nodes below the smallest |b|; else (tau = f(0+) = 0, |g| <= 750) ``_BD_PAD`` nodes below it.  Above: the kernels less their sum C_q decay like |b|/x
    (``_BD_PAD`` nodes above the largest |b|), and sum_q C_q arg q = sum_tau w_tau arg(tau + f),
    sum w_tau = 0, is at most 2 sum |w_tau (tau - tau_0)|/|f| (tau_0 the smallest), read off
    ``fall``."""
    lo = hi = 0
    low, w = math.inf, {}  # the smallest (tau + f(0+))/n; tau -> w_tau
    for quot, (c0, others) in parts.items():
        moduli = [abs(b) for _, b in others]
        first = min(quot)[0] + grid.f0
        if first > 0.0:
            low = min(low, first / len(quot))
        if moduli:  # below the poles, g's rounding (< 750 eps) times x/|b| is below the cut 16 in u down
            lo = min(lo, math.floor(math.log(min(moduli)) / _BD_H) - (_BD_NOISE if first > 0.0 else _BD_PAD))
            hi = max(hi, math.ceil(math.log(max(moduli)) / _BD_H) + _BD_PAD + _BD_EDGE)
        C = c0 + sum([c for c, _ in others])
        for tau, s in quot:
            w[tau] = w.get(tau, 0) + s * C
    if low < math.inf:
        lo = min(lo, grid.lo - _BD_EDGE + int(grid.below.get(low, np.searchsorted, grid.rise, 0.5 * _BD_CUT * low)))
    ref = min(w)
    spread = sum([abs(c * (tau - ref)) for tau, c in w.items()])
    if spread:
        hi = max(hi, grid.lo + _BD_EDGE + int(np.searchsorted(grid.fall, 2.0 * spread / _BD_CUT)))
    return lo, hi


def _bd_sum(grid, S, parts, lo, hi):
    """T_h, its nested error |T_h - T_2h| and its window [lo, hi], for a plan of :func:`_bd_plan`.

    In u = log x the integrand x im(kern g) is analytic in the strip |Im u| < pi/2 (a pole of kern,
    or a zero or pole of f on the imaginary axis, sits on its edge), so T_h = h sum_k x_k
    im(kern g)(x_k), h = 0.2, misses by about e^{-pi^2/h} and its sum over the even k, T_2h, by
    about the square root of that (Trefethen & Weideman, SIAM Rev. 56, 2014).  x kern is formed
    bounded (:func:`_pole_kernels`); a pole at 0 adds c arg q.  :class:`QuadratureError` where an
    outer band of ``_BD_EDGE`` terms of the window is not negligible, where T_h is not finite, and
    where the nested error exceeds sqrt(1e-12) max(1, |T_h|), as T_h's own error is about its square.
    """
    _WORK["bd_sum.calls"] += 1
    if hi - lo < 4 * _BD_EDGE:
        raise QuadratureError(math.nan, math.inf, "f is not finite and nonzero near the bd sum's scales")
    t = _bd_terms(grid, S, parts, lo, hi)
    value = _BD_H * float(np.add.reduce(t))
    if not math.isfinite(value):
        raise QuadratureError(value, math.inf, "the bd sum is not finite")
    for end, band in ((lo, t[:_BD_EDGE]), (hi, t[-_BD_EDGE:])):
        if abs(band).max() > _BD_CUT * max(1.0, abs(value)):
            at = float(_BD_X[end + _BD_END])
            raise QuadratureError(value, math.inf, f"the bd terms are not negligible at x = {at!r}, an end of "
                                                   "the window (or of the nodes where f is finite and nonzero)")
    err = abs(value - 2.0 * _BD_H * float(np.add.reduce(t[lo & 1::2])))  # T_2h: the even k
    if not err <= math.sqrt(_BD_GOAL) * max(1.0, abs(value)):
        raise QuadratureError(value, err, "the bd sum's nested error misses its goal")
    return value, err, lo, hi


def _bd_terms(grid, S, parts, lo, hi):
    """x_k im(sum kern g)(x_k) at the nodes k in [lo, hi] of ``grid``."""
    _WORK["bd_sum.nodes"] += hi - lo + 1
    i, j = lo - grid.lo, hi - grid.lo + 1
    total = None
    for quot, (c0, others) in parts.items():
        if c0 and len(quot) == 1:
            g_re, g_im = grid.rows.get(quot, _log_less, grid, quot, S, 0, None)
            g_re, g_im = g_re[i:j], g_im[i:j]
        else:
            g_re, g_im = _log_less(grid, quot, S, i, j)
        if others:
            x = _BD_X[lo + _BD_END:hi + _BD_END + 1]
            k_re, k_im = _pole_kernels(x, lo, c0, others, min(quot)[0] + grid.f0 > 0.0)
            part = k_re * g_im
            part += k_im * g_re
        else:
            part = g_im if c0 == 1 else c0 * g_im
        total = part if total is None else total + part
    return total


def _log_less(grid, quot, S, i, j):
    """log |q| less its shift sum s S_tau, and arg q, for the quotient q = prod (tau + f)^s of ``quot``
    on the nodes [i, j) of the run: n = sum s logs of q0 = tau_0 + f, the first factor's, then
    s log(1 + w) by log1p for each other factor, w = (tau - tau_0)/q0, so that a q near 1 keeps
    its digits.  :class:`QuadratureError` where tau_0 + f overflows on [i, j), or where |w| may
    pass 2^511, past which the log1p argument |1 + w|^2 - 1 can overflow."""
    t0 = quot[0][0]
    if t0 + grid.fr_max == math.inf:
        with np.errstate(over="ignore"):
            if np.isinf(t0 + grid.fr[i:j]).any():
                raise QuadratureError(math.nan, math.inf, "the bd sum is not finite: tau + f overflows")
    q_re, q_im = t0 + grid.fr[i:j], grid.fi[i:j]
    if not t0 + grid.fr_min > 0.0 and ((q_im == 0.0) & (q_re <= 0.0)).any():
        raise DomainError("principal_log is undefined on (-inf, 0]")
    g_re, g_im, n = np.log(np.hypot(q_re, q_im)) - S[t0], np.arctan2(q_im, q_re), sum([s for _, s in quot])
    if len(quot) == 1:  # s = +1
        return g_re, g_im
    g_re, g_im = n * g_re, n * g_im
    m = np.hypot(q_re, q_im)
    if max([abs(tau - t0) for tau, _ in quot[1:]]) > 2.0**511 * float(m.min()):
        raise QuadratureError(math.nan, math.inf, "the bd sum is not finite: (tau - tau_0)/(tau_0 + f) overflows")
    c, d = q_re / m / m, -q_im / m / m  # 1/q0
    for tau, s in quot[1:]:
        w_re, w_im = (tau - t0) * c, (tau - t0) * d
        g_re = g_re + s * (0.5 * np.log1p(w_re * (2.0 + w_re) + w_im * w_im) - (S[tau] - S[t0]))
        g_im = g_im + s * np.arctan2(w_im, 1.0 + w_re)
    return g_re, g_im


# ---------------------------------------------------------------------------
# spine Stieltjes route
# ---------------------------------------------------------------------------


# absolute goal on the spine exponent int g d log(lambda + tau); at 1e-10
# rational_three_arcs_tight ratios miss the bd route by 7.7e-10
_SPINE_ABS_TOL = 1e-12
_SPINE_MAX_SPLITS = 2000
_SPINE_PAD = 40.0  # log-radius margin of the panels beyond the kernel's scales
# misses of log(lambda + tau) below this are the noise of the spine solve
# (angles certified to a 1e-12 bracket, amplified near the cut): they still
# enter the value but not the error, which they would hold above the goal
_SPINE_NOISE = 1e-10
# seed panels: unit panels on the kernel's scales widened by _SPINE_WINDOW, then panels
# doubling in width out to the ends of the range (the integrand decays like
# e^{-|u - log x|} away from the scales); the pieces beside a cut are halved toward it
# three times in u and those beside a Z boundary split in quarters of v
_SPINE_WINDOW = 2
_SPINE_OUT = 2.0 ** np.arange(6)
_SPINE_CUT_SEED = 0.5 ** np.arange(1, 4)
_SPINE_Z_SEED = np.array([0.75, 0.5, 0.25])
_Z_SCAN_STEP = 1.0 / 16.0  # log-radius step of the grid that brackets the Z boundaries
_Z_MERGE = 1e-12  # the locator's resolution in log r
_Z_SIDES = np.array([-1e-3, 1e-3])  # log-radius offsets at which a Z boundary meets the axis


def _toward(edges, ends, fracs):
    """Points that split each piece between consecutive sorted ``edges`` at the fractions
    ``fracs`` of its length from each of its ends in ``ends``; a piece with both ends there is
    halved first."""
    a, b = edges[:-1], edges[1:]
    left, right = np.isin(a, ends), np.isin(b, ends)
    both = left & right
    half = np.where(both, 0.5, 1.0) * (b - a)
    step = half[:, None] * fracs
    return np.concatenate([(0.5 * (a + b))[both], (a[:, None] + step)[left].ravel(),
                           (b[:, None] - step)[right].ravel()])


class SpineStieltjes:
    """Riemann-Stieltjes integrals of angle sums against d log(lambda + tau).

    A product of factors (:meth:`kappa`) integrates a signed sum of
    Arg(zeta(r) -+ i x_k), plus n pi on (0, R) for a net count n of
    plus-side factors, against d lambda / (lambda + tau).  One integrator
    serves every tau, real >= 0 or complex off the cut: Gauss-Kronrod 15
    panels in u = log r on g(u) lambda'(u) / (lambda(u) + tau) with the
    exact profile slope lambda' (``spine._profile_slope``).  The seed
    panels are sized to the integrand, unit panels around the kernel's
    scales and wider ones away from them, with graded pieces beside every
    jump, axis feature and Z boundary (:meth:`_integral`); they are refined
    by :func:`~levycm.numerics.refine_panels` to an absolute goal of 1e-12
    on the exponent, and a missed goal raises :class:`QuadratureError`.  Spine
    samples (zeta, lambda, lambda') are kept in arrays sorted by log-radius,
    and each panel estimate solves its misses in one batch
    (``solve_spine``); nodes of identical panels are identical, so a family
    evaluated at many tau reuses the spine solves and the Z boundaries of
    the first.
    """

    def __init__(self, spec):
        if is_constant(spec) or is_degenerate(spec):
            raise MethodUnsupportedError(
                "spine factorization needs a non-degenerate exponent"
            )
        self.spec = spec
        # unbounded, freed with the engine: sorted log-radii u and, aligned
        # with them, zeta, lambda and d lambda / d log r
        self._samples = (np.empty(0), np.empty(0, complex), np.empty(0), np.empty(0))
        self._z_cache: dict = {}  # (u_lo, u_hi) -> log-radii of the Z boundaries
        self.f_zero = f_limits(spec).f_at_zero
        self._features = tuple(abs(p) for p in axis_feature_points(spec))

    def _tl(self, u):
        """(zeta, lambda, lambda') arrays at log-radii ``u``; the distinct misses are solved in
        one ``solve_spine`` call, which works radius by radius, and merged in sorted order."""
        known = self._samples[0]
        j = np.searchsorted(known, u)
        miss = known[np.minimum(j, known.size - 1)] != u if known.size else np.ones(u.shape, bool)
        if miss.any():
            new = sorted_unique(u[miss])
            with np.errstate(over="ignore", invalid="ignore"):  # f overflows far out; estimate raises
                s = solve_spine(self.spec, np.exp(new))
                cols = (new, s.zeta, s.lam, _profile_slope(self.spec, s))
            at = np.searchsorted(known, new)
            self._samples = tuple(np.insert(a, at, c) for a, c in zip(self._samples, cols))
            j = np.searchsorted(self._samples[0], u)
        return tuple(a[j] for a in self._samples[1:])

    def _z_edges(self, u_lo, u_hi):
        """Sorted log-radii of the Z boundaries in [u_lo, u_hi] bracketed by a scan at step 1/16.

        ``spine._z_crossings`` on the scan grid, the locator that
        ``build_spine_table`` uses too.  A crossing is kept only where the
        spine lies on the axis (``spine._on_axis``) at 1e-3 to one side of
        it: where theta merely approaches +-pi/2 without reaching it, the
        crossing of pi/2 - ANGLE_TOL has no kink.  The result depends on
        the range alone, so every tau reuses it.
        """
        key = (u_lo, u_hi)
        if key not in self._z_cache:
            with np.errstate(over="ignore", invalid="ignore"):  # f overflows far out
                r = np.exp(np.arange(u_lo / _Z_SCAN_STEP, u_hi / _Z_SCAN_STEP + 1.0) * _Z_SCAN_STEP)
                u = sorted_unique(np.log(_z_crossings(self.spec, r)))
                axis = _on_axis(self.spec, np.exp(u[:, None] + _Z_SIDES)).any(axis=1)
            self._z_cache[key] = u[axis]
        return self._z_cache[key]

    def _integral(self, gfun, scales, jumps, tau):
        """int_0^inf g(r) d log(lambda(r) + tau) for tau >= 0 or complex tau off the cut.

        The panels cover u = log r from u_lo = floor(log(min scales) - 40)
        to u_hi = ceil(log(max scales) + 40).  The integrand decays like
        e^{-|u - log x|} away from the scales x, so the seed has unit panels
        only on the integers from floor(log(min scales)) - 2 to
        ceil(log(max scales)) + 2, and from there edges 1, 2, 4, ..., 32
        further out, then u_lo and u_hi.  The cuts are edges too: the
        log-radii of the jumps of g and of the spec's axis features (the
        spine makes narrow excursions into Z around poles on the axis, and
        GK nodes crowd at panel ends), and the Z boundaries u* that
        ``_z_edges`` locates; a boundary within 1e-12 of a cut is moved onto
        the cut, so that a jump of g stays where it is.  The pieces beside a
        cut that is no Z boundary get edges at 1/2, 1/4 and 1/8 of their
        length from it (a piece between two such cuts is halved first).  At
        u* the spine leaves the axis with a square-root kink in theta, so
        zeta, g and lambda' are smooth in sqrt|u - u*| on the Z side, and
        lambda' jumps there.  The pieces beside u* are therefore mapped by
        u = u* +- v^2 (``numerics._piecewise_axis``), seeded in quarters of
        their length in v and integrated in v.  A Z interval the scan misses
        is resolved by the refinement alone.

        A panel's estimate is Kronrod on g dv/dp with v = log(lambda + tau)
        on the panel axis p, plus a check against v at the panel ends: what
        the Kronrod sum of dv/dp misses (the small step of lambda at the
        ANGLE_TOL edge of Z, or an unlocated Z boundary) is added at g of
        the centre node, and the spread of g over the panel times the miss
        is added to the error.

        Below the range g is taken constant at its value at the lower end,
        which adds g (log(lambda + tau) - log(f(0+) + tau)) there (nothing
        when f(0+) + tau = 0, where g(0+) must vanish); above it g decays
        like 1/r and is dropped.  Raises :class:`QuadratureError` when the
        refinement misses its goal, or naming the radius where a panel's
        values are not finite (f overflows there).
        """
        s_lo, s_hi = math.log(min(scales)), math.log(max(scales))
        u_lo, u_hi = math.floor(s_lo - _SPINE_PAD), math.ceil(s_hi + _SPINE_PAD)
        w_lo, w_hi = math.floor(s_lo) - _SPINE_WINDOW, math.ceil(s_hi) + _SPINE_WINDOW
        base = np.concatenate([[u_lo], w_lo - _SPINE_OUT, np.arange(w_lo, w_hi + 1.0),
                               w_hi + _SPINE_OUT, [u_hi]])
        cuts = np.log(jumps + self._features)
        cuts = cuts[(cuts > u_lo) & (cuts < u_hi)]
        edges = sorted_unique(np.append(base[(base >= u_lo) & (base <= u_hi)], cuts))
        # a Z boundary within the locator's resolution of a cut is that cut:
        # a jump of g stays exactly where it is
        zb = self._z_edges(u_lo, u_hi)
        near = edges[np.abs(edges[:, None] - zb).argmin(axis=0)]
        zb = np.where(np.abs(near - zb) <= _Z_MERGE, near, zb)
        edges = sorted_unique(np.append(edges, zb))
        edges = sorted_unique(np.append(edges, _toward(edges, cuts[~np.isin(cuts, zb)], _SPINE_CUT_SEED)))
        z = set(zb.tolist())
        to_u, p_lo, p_hi = _piecewise_axis(edges.tolist(), z, _SPINE_Z_SEED)

        def estimate(lo, hi):
            x, w = gk15_nodes(lo, hi)
            n = x.size
            u, du, _ = to_u(np.concatenate([x.ravel(), lo, hi]))
            zeta, lam, slope = self._tl(u)
            g = gfun(zeta, np.exp(u))
            with np.errstate(over="ignore", invalid="ignore"):  # where f overflowed
                dv = slope[:n] * du[:n] / (lam[:n] + tau)
                v = np.log(lam[n:] + tau)
                bad = ~np.isfinite(g * np.concatenate([dv, v]))
            if bad.any():
                at = math.exp(u[bad][0])
                raise QuadratureError(math.nan, math.inf, f"the spine integrand is not finite at r = {at!r}")
            g_nodes = g[:n].reshape(x.shape)
            dv = dv.reshape(x.shape)
            rows = g_nodes * dv
            value, err = gk15_sums(lo, hi, w, rows)
            v_lo, v_hi = v.reshape(2, -1)
            missed = v_hi - v_lo - np.sum(w * dv, axis=1)
            spread = np.ptp(np.column_stack([g_nodes, g[n:].reshape(2, -1).T]), axis=1)
            err += spread * np.where(np.abs(missed) > _SPINE_NOISE, np.abs(missed), 0.0)
            return value + g_nodes[:, 7] * missed, err, rows  # node 7: the centre

        res = refine_panels(estimate, p_lo, p_hi, _SPINE_ABS_TOL, max_splits=_SPINE_MAX_SPLITS)
        if not res.converged:
            raise QuadratureError(complex(res.value), res.err)
        total = res.value
        if self.f_zero + tau != 0.0:
            zeta, lam, _ = self._tl(edges[:1])
            g_lo = gfun(zeta, np.exp(edges[:1]))[0]
            total += g_lo * (np.log(lam[0] + tau) - np.log(self.f_zero + tau))
        return total

    def kappa(self, terms, R=None):
        """prod_k kappa^{side_k}(tau, x_k)^{s_k} for ``terms`` (side_k, tau, x_k, s_k), s_k = +-1.

        With sgn_k = +1 on the plus side and -1 on the minus side and n the
        sum of the plus-side s_k, the value is (tau + lambda(R))^n
        exp(-(1/pi) int g d log(lambda + tau)) with
        g(zeta, r) = sum_k s_k sgn_k Arg(zeta - i sgn_k x_k) + n pi 1{r < R}
        and lambda(0) = f(0+); the split radius R (1 by default) must be
        finite and >= 0 (:class:`DomainError`, checked before anything
        else).  The minus-side sum of s_k must be n too, or the product
        depends on the normalization (:class:`DomainError`).  Terms on one
        side at one x with opposite s cancel, and an empty product is 1.
        All terms share one tau (:class:`MethodUnsupportedError` otherwise):
        real tau >= 0 gives a float, complex tau off the cut a complex; a
        tau that is not finite, or a real one with tau + f(0+) < 0, raises
        :class:`DomainError`.
        Every x_k must be finite and >= 0, and a factor at x = 0, or R = 0
        with n != 0, needs f(0+) + tau != 0 (:class:`DomainError`).
        """
        R = 1.0 if R is None else float(R)
        if not 0.0 <= R < math.inf:
            raise DomainError("the split radius R must be finite and >= 0")
        taus = {tau for _, tau, _, _ in terms}
        if len(taus) > 1:
            raise MethodUnsupportedError("spine terms must share one tau")
        tau = taus.pop() if taus else 0.0
        if not cmath.isfinite(tau) or (not isinstance(tau, complex) and tau + self.f_zero < 0.0):
            raise DomainError("tau must be finite, with tau + f(0+) >= 0 where it is real")
        net = {}  # (side, x) -> sum of s, in the order of the terms
        for side, _, x, s in terms:
            x = float(x)
            if not 0.0 <= x < math.inf:
                raise DomainError("a spine factor needs a finite x >= 0")
            net[side, x] = net.get((side, x), 0) + s
        net = {key: c for key, c in net.items() if c}
        n = sum(c for (side, _), c in net.items() if side == PLUS)
        if sum(c for (side, _), c in net.items() if side == MINUS) != n:
            raise DomainError("a spine product needs equal plus-side and minus-side sums of s")
        if not net:
            return _exp(0.0 * tau)  # 1, typed like tau
        if (any(x == 0.0 for _, x in net) or (n and R == 0.0)) and self.f_zero + tau == 0.0:
            raise DomainError("a factor at 0 needs f(0+) + tau != 0")
        parts = []  # (s sgn, i sgn x)
        for (side, x), c in net.items():
            sgn = 1.0 if side == PLUS else -1.0
            parts.append((c * sgn, sgn * 1j * x))

        def gfun(zeta, r):
            return sum(w * np.angle(zeta - shift) for w, shift in parts) + n * math.pi * (r < R)

        jumps = tuple(x for _, x in net if x > 0.0) + ((R,) if n and R > 0.0 else ())
        prefactor = 1.0
        if n:
            lam_R = self.f_zero if R == 0.0 else float(self._tl(np.array([math.log(R)]))[1][0])
            prefactor = (tau + lam_R) ** n
        val = self._integral(gfun, jumps + (1.0,), jumps, tau)
        return prefactor * _exp(-val / math.pi)


def _exp(v):
    """exp of a spine exponent: float for a real one, complex for a complex one."""
    return cmath.exp(v) if isinstance(v, complex) else math.exp(v)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def _kappa(spec, method, terms, R=None):
    """prod_k kappa^{side_k}(tau_k, x_k)^{s_k} for ``terms`` (side_k, tau_k, x_k, s_k) by one route.

    bd is :func:`_bd_kappa`, spine :meth:`SpineStieltjes.kappa` (with the
    split radius ``R``), and phi the quotient of the cached handles' values
    at the terms with s = +1 over those with s = -1, read at tau = 0;
    :class:`DomainError` where a phi-route factor is 0 (phi has inner
    support and the factor vanishes at x = 0).
    """
    if method == "bd":
        return _bd_kappa(spec, terms)
    if method == "spine":
        return get_spine_engine(spec).kappa(terms, R)
    vals = {}  # side -> its terms' values, from one evaluation
    for side in dict.fromkeys(t[0] for t in terms):
        xs = np.array([t[2] for t in terms if t[0] == side], dtype=complex)
        vals[side] = iter(get_factor_handle(spec, side).eval(xs).tolist())
    num = den = 1.0
    for side, _, _, s in terms:
        v = next(vals[side])
        if v == 0.0:
            raise DomainError("the phi-route factor vanishes at xi = 0 (phi has inner support)")
        num, den = (num * v, den) if s > 0 else (num, den * v)
    return float((num / den).real)


def wh_ratio(spec, method, side, xi1, xi2):
    """f^side(xi1) / f^side(xi2) by the requested method; normalization-free.

    ``xi = 0`` is admitted where f(0+) > 0 (continuity); arguments must be
    finite.  Equal arguments and constant exponents, whose factors are
    constant, give 1.0.  Otherwise it is the :func:`_kappa` of the terms
    (side, 0, xi1, +1), (side, 0, xi2, -1).
    """
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}")
    _check_side(side)
    xi1 = float(xi1)
    xi2 = float(xi2)
    if not (0.0 <= xi1 < math.inf and 0.0 <= xi2 < math.inf):
        raise DomainError("spatial arguments must be finite and >= 0")
    if xi1 == xi2 or is_constant(spec):
        return 1.0
    if min(xi1, xi2) == 0.0 and not f_limits(spec).f_at_zero > 0.0:
        raise DomainError("ratio against xi = 0 needs f(0+) > 0")
    return _kappa(spec, method, ((side, 0.0, xi1, 1), (side, 0.0, xi2, -1)))


def wh_product(spec, method, xi1, xi2):
    """f+(xi1) f-(xi2) under c+ c- = c: the :func:`_kappa` of (plus, 0, xi1, +1), (minus, 0, xi2, +1).

    The spine route splits its integral at R = sqrt(xi1 xi2); the value does not depend on R.
    """
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}")
    xi1 = float(xi1)
    xi2 = float(xi2)
    if not (0.0 < xi1 < math.inf and 0.0 < xi2 < math.inf):
        raise DomainError("wh_product needs finite xi1, xi2 > 0")
    return _kappa(spec, method, ((PLUS, 0.0, xi1, 1), (MINUS, 0.0, xi2, 1)), math.sqrt(xi1 * xi2))


def factorization_check(spec, samples, tol=1e-4) -> VerifyReport:
    """Relative error of f(xi) - f+(-i xi) f-(i xi) over right-half-plane samples."""
    rep = VerifyReport("factorization")
    plus, minus = factor_pair(spec)
    for k, xi in enumerate(samples):
        xi = complex(xi)
        if xi.real <= 0.0:
            raise DomainError("factorization_check samples must have re(xi) > 0")
        f = eval_f(spec, xi)
        prod = plus.eval(-1j * xi) * minus.eval(1j * xi)
        rel = abs(f - prod) / abs(f)
        rep.add(
            f"factorization[{k}]",
            (tol - rel) / tol,
            {"xi": str(xi), "rel_err": rel},
        )
    return rep


def closed_form_factors(family, side, xi, **params):
    """Closed-form factor oracles.

    ``family='bm_drift'`` with parameters ``b`` (drift) and ``sigma``
    (constant shift): factors of xi^2/2 - i b xi + sigma, each scaled by
    sqrt(1/2).  ``family='stable'`` with parameters ``c`` (complex) and
    ``alpha``: factors sqrt(|c|) xi^(alpha rho) and sqrt(|c|)
    xi^(alpha (1 - rho)) with rho the positivity parameter.
    """
    _check_side(side)
    xi = float(xi)
    if family == "bm_drift":
        b = float(params.get("b", 0.0))
        sigma = float(params.get("sigma", 0.0))
        root = math.sqrt(b * b + 2.0 * sigma)
        return math.sqrt(0.5) * (xi + (root - b if side == PLUS else root + b))
    if family == "stable":
        c = complex(params["c"])
        alpha = float(params["alpha"])
        if not (0.0 < alpha <= 2.0):
            raise DomainError("alpha must lie in (0, 2]")
        if abs(cmath.phase(c)) > 0.5 * math.pi * min(alpha, 2.0 - alpha) + 1e-13:
            raise DomainError("inadmissible stable parameters")
        rho = 0.5 - cmath.phase(c) / (alpha * math.pi)
        expo = alpha * rho if side == PLUS else alpha * (1.0 - rho)
        return math.sqrt(abs(c)) * xi**expo
    raise ValueError(f"unknown family {family!r}")
