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
import copy
import math

import numpy as np

from .errors import (
    DomainError,
    EstimationError,
    MethodUnsupportedError,
    QuadratureError,
)
from .numerics import (
    _LRU,
    QuadratureConfig,
    _piecewise_axis,
    gk15_nodes,
    gk15_sums,
    integrate_adaptive,
    principal_log,
    refine_panels,
    sorted_unique,
)
from .report import VerifyReport
from .rogers import (
    PhiTable,
    _Cells,
    axis_feature_points,
    estimate_phi,
    eval_f,
    f_limits,
    is_constant,
    is_degenerate,
)
from .spine import _profile_slope, _z_crossings, solve_spine

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
_PHI_JUMP = 0.25  # midpoint miss (rad) that marks a jump, split down to the width floor
_PHI_MAX_POINTS = 40000  # refinement estimates per table


def build_phi_table(spec):
    """Piecewise-linear :class:`PhiTable` of the boundary angle over +-[1e-6, 1e6].

    The seed grid is log-spaced on each side of s = 0 (no cell crosses it)
    with points at relative distance 1e-3, 1e-6 and 1e-9 on both sides of
    every axis feature, so that narrow jump pairs cannot hide inside one
    cell.  It is refined one level at a time: every cell wider than 1e-10
    relative gets its geometric midpoint, all midpoints of a level are
    estimated in one :func:`estimate_phi` call, and a cell is split where
    the width-weighted interpolation error |phi_mid - interp| *
    min(log-width, 1) exceeds 2e-7 (kinks) or the miss exceeds 0.25 rad:
    a jump of phi (a zero or pole of f on the imaginary axis) is a sharp
    step, split down to the width floor.  Raises
    :class:`EstimationError` when the 40 000-estimate budget runs out with
    cells still to examine.
    """
    base = np.geomspace(_PHI_S_MIN, _PHI_S_MAX, _PHI_N_BASE + 1)
    f = np.asarray(axis_feature_points(spec), dtype=float)
    f = f[(np.abs(f) > _PHI_S_MIN) & (np.abs(f) < _PHI_S_MAX), None]
    rings = f * np.concatenate([1.0 + _PHI_RINGS, 1.0 - _PHI_RINGS])
    s = sorted_unique(np.concatenate([-base, base, rings.ravel()]))
    p = estimate_phi(spec, s)
    s_out, p_out = [s], [p]
    start = np.delete(np.arange(s.size - 1), np.searchsorted(s, 0.0) - 1)  # no cell across s = 0
    lo, hi, p_lo, p_hi = s[start], s[start + 1], p[start], p[start + 1]
    budget = _PHI_MAX_POINTS
    while True:
        wide = hi - lo > _PHI_MIN_WIDTH * np.minimum(np.abs(lo), np.abs(hi))
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
        split = (miss * np.minimum(width_u, 1.0) > _PHI_REFINE_TOL) | (miss > _PHI_JUMP)
        s_out.append(mid)
        p_out.append(p_mid)
        mid, p_mid = mid[split], p_mid[split]
        lo, hi = np.concatenate([lo[split], mid]), np.concatenate([mid, hi[split]])
        p_lo, p_hi = np.concatenate([p_lo[split], p_mid]), np.concatenate([p_mid, p_hi[split]])
    s_all, keep = sorted_unique(np.concatenate(s_out), return_index=True)
    p_all = np.clip(np.concatenate(p_out)[keep], 0.0, math.pi)
    return PhiTable(s_all.tolist(), p_all.tolist(), "piecewise-linear")


# ---------------------------------------------------------------------------
# factor evaluation from a phi table
# ---------------------------------------------------------------------------


def _factor_side(table: PhiTable, side):
    """The boundary-angle kernel of one factor from a :func:`build_phi_table` table.

    It uses the side's own breakpoints (at least 513): the inner gap
    (0, s_first) continues the innermost value, with no interpolation across
    s = 0.
    """
    s_all = np.asarray(table.breakpoints)
    v_all = np.asarray(table.values)
    if side == MINUS:
        s_all, v_all = -s_all[::-1], v_all[::-1]
    mask = s_all > 0.0
    s, p = s_all[mask], v_all[mask]
    return _Cells((s, p, p[0], p[-1]))


class FactorHandle:
    """Evaluator for one Wiener-Hopf factor under c+ = c- = sqrt(c).

    The representation constant c is anchored at xi = 1 so that the two
    factors reconstruct f exactly there.  Ratios and products against the
    complementary handle are unchanged when ``scale`` is multiplied by some
    kappa and the other handle's divided by it.
    """

    def __init__(self, spec, side):
        _check_side(side)
        self.spec = spec
        self.side = side
        self.table = get_phi_table(spec)
        self._side = _factor_side(self.table, side)
        other = _factor_side(self.table, MINUS if side == PLUS else PLUS)
        # anchor: f(1) = c exp(E+(-i) + E-(i)) under f(xi) = f+(-i xi) f-(i xi)
        z_own = -1j if side == PLUS else 1j
        e_tot = self._side.exponent(z_own) + other.exponent(-z_own)
        f1 = eval_f(spec, 1.0 + 0.0j)
        self.c_const = abs(f1 * cmath.exp(-complex(e_tot)))
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


_PHI_CACHE = _LRU(64)  # spec -> table, 0.14-0.25 MB each (README, "Caching")
_HANDLE_CACHE = _LRU(64)  # (spec, side) -> handle, up to 0.11 MB besides its table
_ENGINE_CACHE = _LRU(16)  # spec -> engine, 60-90 kB of spine sample arrays after one ratio


def get_phi_table(spec):
    """The cached :func:`build_phi_table` of ``spec``."""
    return _PHI_CACHE.get(spec, build_phi_table, spec)


def get_factor_handle(spec, side) -> "FactorHandle":
    """The cached :class:`FactorHandle` of one side, on the cached phi table."""
    return _HANDLE_CACHE.get((spec, side), FactorHandle, spec, side)


def get_spine_engine(spec) -> "SpineStieltjes":
    """The cached :class:`SpineStieltjes` of ``spec``; its spine samples live as long as it does."""
    return _ENGINE_CACHE.get(spec, SpineStieltjes, spec)


def factor_pair(spec, kappa=1.0):
    """Plus and minus handles with scales kappa sqrt(c) and sqrt(c)/kappa.

    They are copies of the cached handles, which keep their scales.
    """
    plus = copy.copy(get_factor_handle(spec, PLUS))
    minus = copy.copy(get_factor_handle(spec, MINUS))
    plus.scale *= kappa
    minus.scale /= kappa
    return plus, minus


# ---------------------------------------------------------------------------
# Baxter-Donsker route
# ---------------------------------------------------------------------------

# the one contour integral of every kappa product; abs_tol sits at the roundoff
# floor of near-zero exponents (x1 ~ x2, tau1 ~ tau2)
_BD_CFG = QuadratureConfig(
    rel_tol=1e-12, abs_tol=1e-14, max_subdivisions=6000, singular_points=(0.0,)
)
_BD_KAPPA = _LRU(4096)  # (spec, terms) -> product, ~0.4 kB each besides the spec
# on the seed nodes of the contour integral: (spec, None) -> f and (spec, quotient) -> its
# principal log less its shift, ~10 kB each (README, "Caching")
_BD_SEED = _LRU(64)


def _bd_kappa(spec, terms):
    """prod_k kappa^{side_k}(tau_k, x_k)^{s_k} for ``terms`` (side_k, tau_k, x_k, s_k), s_k = +-1.

    With S_tau = log(tau + f(0+)) (0 where tau + f(0+) = 0), the log of the
    product is (1/2) sum_k s_k S_{tau_k} + (1/pi) int_0^inf im(sum kern g) dx,
    summed over the poles (side, x): kern = 1/(x - i a) on the plus side and
    -1/(x + i a) on the minus side, g the principal log of the one quotient
    prod (tau_k + f)^{s_k} over the terms at the pole, minus their
    sum s_k S_{tau_k}.  Poles whose quotients agree up to a sign (those of a
    ratio) share one log, their kernels summed first.  By the reflection
    f(-x) = conj f(x) this is the contour integral over the real line at
    half the points.  Different tau_k need an unbounded exponent
    (:class:`MethodUnsupportedError`) and tau + f(0+) > 0
    (:class:`DomainError`).  Memoized on (spec, terms); a call that raises
    stores nothing.  On the seed nodes of the integral, which are the same in
    every call, f is read from ``_BD_SEED`` once per spec and each quotient's
    log less its shift once per (spec, quotient), bitwise the values computed
    afresh.  A non-finite integrand value (a kernel that overflows at a node
    next to x = 0) raises :class:`QuadratureError`.
    """

    def build():
        lim = f_limits(spec)
        taus = {tau for _, tau, _, _ in terms}
        if len(taus) > 1:
            if math.isfinite(lim.f_at_infinity):
                raise MethodUnsupportedError("temporal ratios need an unbounded exponent; compound Poisson "
                                             "specs route through kappa_circ and the product identity")
            if min(taus) + lim.f_at_zero <= 0.0:
                raise DomainError("tau + f(0+) must be positive for every temporal argument")
        S = {tau: math.log(tau + lim.f_at_zero) if tau + lim.f_at_zero > 0.0 else 0.0 for tau in taus}
        poles = {}  # (side, x) -> [(tau, s)]
        for side, tau, x, s in terms:
            poles.setdefault((side, x), []).append((tau, s))
        shared = {}  # quotient ((tau, s), ...) led by s = +1 -> [(side, x, sign)]
        for (side, x), group in poles.items():
            sign = group[0][1]
            shared.setdefault(tuple((tau, s * sign) for tau, s in group), []).append((side, x, sign))
        parts = [(q, sum(s * S[tau] for tau, s in q), p) for q, p in shared.items()]

        def log_less(f, quot, shift):  # principal log of the quotient, less its shift
            q = quot[0][0] + f
            for tau, s in quot[1:]:
                q = q * (tau + f) if s > 0 else q / (tau + f)
            return principal_log(q) - shift

        def integrand(x):
            seed = not x.flags.writeable  # the seed nodes (integrate_adaptive)
            z = x + 0.0j
            f = _BD_SEED.get((spec, None), eval_f, spec, z) if seed else eval_f(spec, z)
            total = 0.0
            with np.errstate(over="ignore", invalid="ignore"):  # the kernel of a pole at 0, at x ~ 0
                for quot, shift, poles_of in parts:
                    kern = 0.0
                    for side, a, sign in poles_of:
                        kern = kern + (sign / (x - 1j * a) if side == PLUS else -sign / (x + 1j * a))
                    if seed:
                        g = _BD_SEED.get((spec, quot), log_less, f, quot, shift)
                    else:
                        g = log_less(f, quot, shift)
                    total = total + kern * g
            bad = ~np.isfinite(total)
            if bad.any():
                at = float(x[bad][0])
                raise QuadratureError(math.nan, math.inf, f"the bd integrand is not finite at x = {at!r}")
            return total.imag

        val, _ = integrate_adaptive(integrand, (0.0, math.inf), _BD_CFG)
        return math.exp(0.5 * sum(s * S[tau] for _, tau, _, s in terms) + val.real / math.pi)

    return _BD_KAPPA.get((spec, terms), build)


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
_Z_SCAN_STEP = 1.0 / 16.0  # log-radius step of the grid that brackets the Z boundaries
_Z_MERGE = 1e-12  # the locator's resolution in log r


class SpineStieltjes:
    """Riemann-Stieltjes integrals of angle sums against d log(lambda + tau).

    A product of factors (:meth:`kappa`) integrates a signed sum of
    Arg(zeta(r) -+ i x_k), plus n pi on (0, R) for a net count n of
    plus-side factors, against d lambda / (lambda + tau).  One integrator
    serves every tau, real >= 0 or complex off the cut: Gauss-Kronrod 15
    panels in u = log r, with the Z boundaries as edges, on
    g(u) lambda'(u) / (lambda(u) + tau) with the exact profile slope
    lambda' (``spine._profile_slope``), refined by
    :func:`~levycm.numerics.refine_panels` to an absolute goal of 1e-12 on
    the exponent; a missed goal raises :class:`QuadratureError`.  Spine
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
            s = solve_spine(self.spec, np.exp(new))
            at = np.searchsorted(known, new)
            cols = (new, s.zeta, s.lam, _profile_slope(self.spec, s))
            self._samples = tuple(np.insert(a, at, c) for a, c in zip(self._samples, cols))
            j = np.searchsorted(self._samples[0], u)
        return tuple(a[j] for a in self._samples[1:])

    def _z_edges(self, u_lo, u_hi):
        """Sorted log-radii of the Z boundaries in [u_lo, u_hi] bracketed by a scan at step 1/16.

        ``spine._z_crossings`` on the scan grid, the locator that
        ``build_spine_table`` uses too.  The result depends on the range
        alone, so every tau reuses it.
        """
        key = (u_lo, u_hi)
        if key not in self._z_cache:
            r = np.exp(np.arange(u_lo / _Z_SCAN_STEP, u_hi / _Z_SCAN_STEP + 1.0) * _Z_SCAN_STEP)
            self._z_cache[key] = sorted_unique(np.log(_z_crossings(self.spec, r)))
        return self._z_cache[key]

    def _integral(self, gfun, scales, jumps, tau):
        """int_0^inf g(r) d log(lambda(r) + tau) for tau >= 0 or complex tau off the cut.

        The panels cover u = log r from log(min scales) - 40 to
        log(max scales) + 40.  Their edges are the integers, the log-radii of
        the jumps of g and of the spec's axis features (the spine makes
        narrow excursions into Z around poles on the axis, and GK nodes crowd
        at panel ends), and the Z boundaries u* that ``_z_edges`` locates; a
        boundary within 1e-12 of a cut is moved onto the cut, so that a jump
        of g stays where it is.  At u* the spine leaves the axis with a
        square-root kink in theta, so zeta, g and lambda' are smooth in
        sqrt|u - u*| on the Z side, and lambda' jumps there.  The panels
        beside u* are therefore mapped by u = u* +- v^2
        (``numerics._piecewise_axis``) and integrated in v.  A Z interval the
        scan misses is resolved by the refinement alone.

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
        refinement misses its goal.
        """
        u_lo = math.floor(math.log(min(scales)) - _SPINE_PAD)
        u_hi = math.ceil(math.log(max(scales)) + _SPINE_PAD)
        cuts = np.log(jumps + self._features)
        edges = sorted_unique(np.append(np.arange(u_lo, u_hi + 1.0), cuts[(cuts > u_lo) & (cuts < u_hi)]))
        # a Z boundary within the locator's resolution of a cut is that cut:
        # a jump of g stays exactly where it is
        zb = self._z_edges(u_lo, u_hi)
        near = edges[np.abs(edges[:, None] - zb).argmin(axis=0)]
        zb = np.where(np.abs(near - zb) <= _Z_MERGE, near, zb)
        edges = sorted_unique(np.append(edges, zb))
        to_u, p_lo, p_hi = _piecewise_axis(edges.tolist(), set(zb.tolist()))

        def estimate(lo, hi):
            x, w = gk15_nodes(lo, hi)
            n = x.size
            u, du, _ = to_u(np.concatenate([x.ravel(), lo, hi]))
            zeta, lam, slope = self._tl(u)
            g = gfun(zeta, np.exp(u))
            g_nodes = g[:n].reshape(x.shape)
            dv = (slope[:n] * du[:n] / (lam[:n] + tau)).reshape(x.shape)
            rows = g_nodes * dv
            value, err = gk15_sums(lo, hi, w, rows)
            v_lo, v_hi = np.log(lam[n:] + tau).reshape(2, -1)
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
    num = den = 1.0
    for side, _, x, s in terms:
        v = get_factor_handle(spec, side).eval(complex(x))
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


def wh_product(spec, method, xi1, xi2, R=None):
    """f+(xi1) f-(xi2) under c+ c- = c: the :func:`_kappa` of (plus, 0, xi1, +1), (minus, 0, xi2, +1).

    ``R`` >= 0 is the spine-route split radius, sqrt(xi1 xi2) by default.
    """
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}")
    xi1 = float(xi1)
    xi2 = float(xi2)
    if not (0.0 < xi1 < math.inf and 0.0 < xi2 < math.inf):
        raise DomainError("wh_product needs finite xi1, xi2 > 0")
    R = math.sqrt(xi1 * xi2) if R is None else float(R)
    if not 0.0 <= R < math.inf:
        raise DomainError("the split radius R must be finite and >= 0")
    return _kappa(spec, method, ((PLUS, 0.0, xi1, 1), (MINUS, 0.0, xi2, 1)), R)


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
