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

import numpy as np

from .errors import (
    ConventionViolationError,
    DomainError,
    MethodUnsupportedError,
)
from .numerics import QuadratureConfig, integrate_adaptive, principal_log, refine_panels
from .report import VerifyReport
from .rogers import (
    PW_CONSTANT,
    PhiTable,
    _AngleSide,
    _phi_side,
    axis_feature_points,
    estimate_phi,
    eval_f,
    f_limits,
    is_constant,
    is_degenerate,
)
from .spine import _lambda_flagged, solve_spine

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

# ---------------------------------------------------------------------------
# boundary-angle table construction
# ---------------------------------------------------------------------------


def build_phi_table(
    spec,
    s_min=1e-6,
    s_max=1e6,
    n_base=512,
    refine_tol=2e-7,
    min_width=1e-10,
    max_points=40000,
):
    """Estimate the boundary angle on log grids over +-[s_min, s_max].

    Cells failing a width-weighted midpoint-interpolation test (local
    integral-error proxy |phi_mid - interp| * cell log-width) are split
    recursively, which localizes jumps of phi (zeros and poles of f on the
    imaginary axis) to relative width ``min_width`` and resolves kinks
    adaptively.  Returns a piecewise-linear :class:`PhiTable`.
    """
    out_s, out_phi = [], []
    budget = [max_points]

    def refine(s_lo, s_hi, p_lo, p_hi, sink):
        if budget[0] <= 0 or (s_hi - s_lo) <= min_width * min(abs(s_lo), abs(s_hi)):
            return
        s_mid = math.copysign(math.sqrt(s_lo * s_hi), s_lo)
        p_mid = estimate_phi(spec, s_mid)
        budget[0] -= 1
        w = (s_mid - s_lo) / (s_hi - s_lo)
        p_interp = (1.0 - w) * p_lo + w * p_hi
        width_u = math.log(s_hi / s_lo) if s_lo > 0 else math.log(s_lo / s_hi)
        if abs(p_mid - p_interp) * min(abs(width_u), 1.0) > refine_tol:
            refine(s_lo, s_mid, p_lo, p_mid, sink)
            sink.append((s_mid, p_mid))
            refine(s_mid, s_hi, p_mid, p_hi, sink)
        else:
            sink.append((s_mid, p_mid))

    features = axis_feature_points(spec)
    for sign in (-1.0, 1.0):
        pts = set((sign * np.geomspace(s_min, s_max, n_base + 1)).tolist())
        for fpt in features:
            if math.copysign(1.0, fpt) != sign or not s_min < abs(fpt) < s_max:
                continue
            for rel in (1e-3, 1e-6, 1e-9):
                pts.add(fpt * (1.0 + rel))
                pts.add(fpt * (1.0 - rel))
        grid = np.sort(np.asarray(sorted(pts)))
        phis = [estimate_phi(spec, float(s)) for s in grid]
        for k in range(len(grid) - 1):
            out_s.append(float(grid[k]))
            out_phi.append(phis[k])
            sink = []
            refine(float(grid[k]), float(grid[k + 1]), phis[k], phis[k + 1], sink)
            out_s.extend(s for s, _ in sink)
            out_phi.extend(p for _, p in sink)
        out_s.append(float(grid[-1]))
        out_phi.append(phis[-1])

    order = np.argsort(out_s)
    s_arr = np.asarray(out_s)[order]
    p_arr = np.clip(np.asarray(out_phi)[order], 0.0, math.pi)
    keep = np.concatenate([[True], np.diff(s_arr) > 0])
    return PhiTable(tuple(s_arr[keep]), tuple(p_arr[keep]), "piecewise-linear")


# ---------------------------------------------------------------------------
# factor evaluation from a phi table
# ---------------------------------------------------------------------------


def _factor_side(table: PhiTable, side):
    """The boundary-angle kernel of one factor.

    Piecewise-linear tables use the side's own breakpoints: the inner gap
    (0, s_first) continues the innermost value, with no interpolation across
    s = 0.  A side with fewer than two breakpoints is flat at phi(1).
    """
    sign = 1.0 if side == PLUS else -1.0
    if table.interpolation == PW_CONSTANT:
        return _phi_side(table, sign)
    s_all = sign * np.asarray(table.breakpoints)
    v_all = np.asarray(table.values)
    if side == MINUS:
        s_all, v_all = s_all[::-1], v_all[::-1]
    mask = s_all > 0.0
    s, p = s_all[mask], v_all[mask]
    if len(s) < 2:
        s, p = np.ones(1), np.full(1, np.interp(1.0, s_all, v_all))
    return _AngleSide(s, p, p[0], p[-1])


class FactorHandle:
    """Evaluator for one Wiener-Hopf factor under c+ = c- = sqrt(c).

    The representation constant c is anchored at xi = 1 so that the two
    factors reconstruct f exactly there.  Ratios and products against the
    complementary handle are unchanged when ``scale`` is multiplied by some
    kappa and the other handle's divided by it.
    """

    def __init__(self, spec, side, table=None):
        if side not in (PLUS, MINUS):
            raise ValueError("side must be 'plus' or 'minus'")
        self.spec = spec
        self.side = side
        self.table = table if table is not None else get_phi_table(spec)
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


_PHI_CACHE: dict = {}
_ENGINE_CACHE: dict = {}
_HANDLE_CACHE: dict = {}


def get_phi_table(spec, **kwargs):
    key = (spec, tuple(sorted(kwargs.items())))
    if key not in _PHI_CACHE:
        _PHI_CACHE[key] = build_phi_table(spec, **kwargs)
    return _PHI_CACHE[key]


def get_factor_handle(spec, side) -> "FactorHandle":
    key = (spec, side)
    if key not in _HANDLE_CACHE:
        _HANDLE_CACHE[key] = FactorHandle(spec, side, get_phi_table(spec))
    return _HANDLE_CACHE[key]


def get_spine_engine(spec) -> "SpineStieltjes":
    if spec not in _ENGINE_CACHE:
        _ENGINE_CACHE[spec] = SpineStieltjes(spec)
    return _ENGINE_CACHE[spec]


def factor_pair(spec, kappa=1.0):
    """Plus and minus handles with scales kappa sqrt(c) and sqrt(c)/kappa."""
    table = get_phi_table(spec)
    plus = FactorHandle(spec, PLUS, table)
    minus = FactorHandle(spec, MINUS, table)
    plus.scale *= kappa
    minus.scale /= kappa
    return plus, minus


# ---------------------------------------------------------------------------
# Baxter-Donsker route
# ---------------------------------------------------------------------------

# abs_tol sits above the roundoff floor of near-zero exponents (x1 ~ x2)
_BD_CFG = QuadratureConfig(
    rel_tol=1e-12, abs_tol=1e-13, max_subdivisions=6000, singular_points=(0.0,)
)


def _bd_exponent(spec, poles_upper, poles_lower, log_shift=0.0):
    """(1/2 pi i) int kern(z) (log f(z) - log_shift) dz along the real line.

    ``poles_upper`` lists (a, sign) for terms sign/(z - i a) with a >= 0,
    ``poles_lower`` lists (b, sign) for terms sign/(z + i b) with b >= 0.
    """

    def integrand(z):
        z = np.asarray(z, dtype=complex)
        kern = np.zeros_like(z)
        for a, sgn in poles_upper:
            kern = kern + sgn / (z - 1j * a)
        for b, sgn in poles_lower:
            kern = kern + sgn / (z + 1j * b)
        return kern * (principal_log(eval_f(spec, z)) - log_shift)

    val, err = integrate_adaptive(integrand, (-math.inf, math.inf), _BD_CFG)
    return val / (2j * math.pi), err / (2.0 * math.pi)


def _bd_ratio(spec, side, x1, x2):
    if x1 == x2:
        return 1.0
    if x1 > 0.0 and x2 > 0.0:
        if side == PLUS:
            val, _ = _bd_exponent(spec, [(x1, 1.0), (x2, -1.0)], [])
        else:
            val, _ = _bd_exponent(spec, [], [(x2, 1.0), (x1, -1.0)])
        return math.exp(val.real)
    # One endpoint at zero: both poles approach the contour from the same
    # side, so the half-residue contributions cancel once log f(0) is
    # subtracted and the z = 0 singularity becomes removable.
    x = x1 if x2 == 0.0 else x2
    f0 = f_limits(spec).f_at_zero
    if not f0 > 0.0:
        raise DomainError("ratio against xi = 0 needs f(0+) > 0")
    log_f0 = math.log(f0)
    if side == PLUS:
        val, _ = _bd_exponent(spec, [(x, 1.0), (0.0, -1.0)], [], log_shift=log_f0)
    else:
        val, _ = _bd_exponent(spec, [], [(0.0, 1.0), (x, -1.0)], log_shift=log_f0)
    ratio = math.exp(val.real)
    return ratio if x2 == 0.0 else 1.0 / ratio


def _bd_product(spec, x1, x2):
    val, _ = _bd_exponent(spec, [(x1, 1.0)], [(x2, -1.0)])
    return math.exp(val.real)


# ---------------------------------------------------------------------------
# spine Stieltjes route
# ---------------------------------------------------------------------------


def _stieltjes_panels(g0, gm, g1, v0, vm, v1):
    """Stieltjes trapezoid with one Richardson level on panels (lo, mid, hi).

    ``g`` and ``v`` are sampled at each panel's ends and midpoint.  Returns
    (values, error estimates).
    """
    t1 = 0.5 * (g0 + g1) * (v1 - v0)
    t2 = 0.5 * (g0 + gm) * (vm - v0) + 0.5 * (gm + g1) * (v1 - vm)
    return (4.0 * t2 - t1) / 3.0, np.abs(t2 - t1) / 3.0


class SpineStieltjes:
    """Riemann-Stieltjes integrals of angle differences against d log lambda.

    Ratios integrate Arg(zeta(r) -+ i x1) - Arg(zeta(r) -+ i x2) against
    d lambda / (lambda + tau); products add a pi indicator on (0, R) and a
    (tau + lambda(R)) prefactor.  Spine samples are cached per log-radius
    and solved in batches (``solve_spine``).  Panels in log r are split at
    the jump radii |x1|, |x2| and R and refined in the rounds of
    :func:`~levycm.numerics.refine_panels` (Richardson on the Stieltjes
    trapezoid), each round splitting a batch of the worst panels.  The
    refinement goal ``rel_goal`` is absolute, and the loop stops at
    ``max_splits`` without meeting it on every preset.
    """

    def __init__(self, spec, base_step=0.05):
        if is_constant(spec) or is_degenerate(spec):
            raise MethodUnsupportedError(
                "spine factorization needs a non-degenerate exponent"
            )
        self.spec = spec
        self.base_step = base_step
        self._cache: dict = {}  # log-radius -> (zeta, lambda)
        lim = f_limits(spec)
        self.f_zero = lim.f_at_zero

    def _tl(self, u):
        """(zeta, lambda) arrays at log-radii ``u``; misses are solved in one batch."""
        keys = u.tolist()
        cache = self._cache
        missing = list(dict.fromkeys(k for k in keys if k not in cache))
        if missing:
            s = solve_spine(self.spec, np.exp(missing))
            cache.update(zip(missing, zip(s.zeta.tolist(), s.lam.tolist())))
        zeta, lam = zip(*map(cache.__getitem__, keys))
        return np.array(zeta), np.array(lam)

    def _grid(self, scales, jumps):
        """Log-radius grid snapped to absolute multiples of base_step.

        Grid points within 2e-12 of a jump's log-radius give way to a pair
        of points 1e-12 either side of it.
        """
        u_lo = math.log(min(scales)) - 13.0
        u_hi = math.log(max(scales)) + 13.0
        k_lo = math.floor(u_lo / self.base_step)
        k_hi = math.ceil(u_hi / self.base_step)
        pts = np.arange(k_lo, k_hi + 1) * self.base_step
        nudge = 1e-12
        for rj in jumps:
            uj = math.log(rj)
            pts = np.append(pts[np.abs(pts - uj) >= 2 * nudge], (uj - nudge, uj + nudge))
        return np.unique(pts)

    def _integral(self, gfun, g0_lim, tau, scales, jumps, rel_goal=1e-8, max_splits=6000):
        """int_0^inf g(r) d log(lambda(r) + tau) for real tau >= 0.

        Stieltjes trapezoid with one Richardson level per panel.  The grid
        is sampled in one batch; the rounds come from
        :func:`~levycm.numerics.refine_panels` (each splits the panels whose
        error estimate is at least half the largest, at most the fewest that
        cover the excess over the goal and at most the splits left in
        ``max_splits``), and each round samples only its new midpoints, in
        one batch.  Panel ends are read from the samples already taken.

        ``rel_goal`` bounds the summed error estimate absolutely (it is not
        scaled by the integral).  When ``max_splits`` runs out first, the
        loop stops without meeting the goal and returns its estimate as is;
        at the 3e-9 that ``ratio`` and ``product`` pass, this happens on
        every preset for most arguments.  Returns ``(value, summed error
        estimate)``.
        """
        grid = self._grid(scales, jumps)

        def sample(u):
            zeta, lam = self._tl(u)
            return gfun(zeta, np.exp(u)), np.log(lam + tau)

        # the grid and the first midpoints in one spine batch; later reads hit the cache
        self._tl(np.concatenate([grid, 0.5 * (grid[:-1] + grid[1:])]))
        g_grid, v_grid = sample(grid)
        # the points sampled so far, sorted by u; every panel end is one of
        # them, so a round samples only its new midpoints
        u_k, g_k, v_k = grid, g_grid, v_grid

        def estimate(lo, hi):
            nonlocal u_k, g_k, v_k
            mid = 0.5 * (lo + hi)
            gm, vm = sample(mid)
            i0, i1 = np.searchsorted(u_k, lo), np.searchsorted(u_k, hi)
            value, err = _stieltjes_panels(g_k[i0], gm, g_k[i1], v_k[i0], vm, v_k[i1])
            at = np.searchsorted(u_k, mid)
            u_k, g_k, v_k = np.insert(u_k, at, mid), np.insert(g_k, at, gm), np.insert(v_k, at, vm)
            return value, err, np.empty((len(lo), 0))

        res = refine_panels(estimate, grid[:-1], grid[1:], rel_goal, max_splits=max_splits)
        total = float(res.value)

        # tails: g -> g0_lim linearly in r at 0+ and g -> 0 like 1/r at inf
        g_lo, v_lo, v_1 = float(g_grid[0]), float(v_grid[0]), float(v_grid[1])
        du0 = float(grid[1] - grid[0])
        if g0_lim is None:
            g0_lim = g_lo
        if self.f_zero + tau > 0.0:
            v_zero = math.log(self.f_zero + tau)
            total += g0_lim * (v_lo - v_zero) + 0.5 * (g_lo - g0_lim) * (v_lo - v_zero)
        else:
            if abs(g0_lim) > 1e-12:
                raise MethodUnsupportedError(
                    "spine integral diverges: g(0+) != 0 with f(0+) + tau = 0"
                )
            total += (g_lo - g0_lim) * (v_1 - v_lo) / du0
        g_hi, v_hi, v_2 = float(g_grid[-1]), float(v_grid[-1]), float(v_grid[-2])
        du1 = float(grid[-1] - grid[-2])
        total += g_hi * (v_hi - v_2) / du1
        return total, res.err

    @staticmethod
    def _ratio_kernel(x1, x2, side):
        """g(zeta, r), scales and jumps of a ratio f^side(x1)/f^side(x2)."""
        sgn = 1.0 if side == PLUS else -1.0
        shift1, shift2 = sgn * 1j * x1, sgn * 1j * x2

        def gfun(zeta, r):
            return np.angle(zeta - shift1) - np.angle(zeta - shift2)

        jumps = tuple(x for x in (x1, x2) if x > 0.0)
        return gfun, jumps + (1.0,), jumps

    @staticmethod
    def _product_kernel(x1, x2, R):
        """g(zeta, r), scales and jumps of a product f^+(x1) f^-(x2) split at R."""

        def gfun(zeta, r):
            return np.angle(zeta - 1j * x1) - np.angle(zeta + 1j * x2) + np.where(r < R, math.pi, 0.0)

        jumps = tuple(x for x in (x1, x2, R) if x > 0.0)
        return gfun, jumps + (1.0,), jumps

    def ratio(self, x1, x2, side, tau=0.0, rel_goal=3e-9):
        """f_tau^side(x1) / f_tau^side(x2) for real tau >= 0; x = 0 allowed."""
        x1 = float(x1)
        x2 = float(x2)
        if x1 == x2:
            return 1.0
        sgn = 1.0 if side == PLUS else -1.0
        if min(x1, x2) > 0.0:
            g0_lim = 0.0
        else:
            if self.f_zero + tau <= 0.0:
                raise MethodUnsupportedError(
                    "ratio against xi = 0 needs f(0+) + tau > 0"
                )
            g0_lim = None  # finite spine-dependent limit; g(r_lo) is used
        gfun, scales, jumps = self._ratio_kernel(x1, x2, side)
        val, _ = self._integral(gfun, g0_lim, float(tau), scales, jumps, rel_goal)
        return math.exp(-sgn * val / math.pi)

    def product(self, x1, x2, R, tau=0.0, rel_goal=3e-9):
        """f_tau^+(x1) f_tau^-(x2); R >= 0 picks the representation split."""
        x1 = float(x1)
        x2 = float(x2)
        R = float(R)
        if R == 0.0:
            if self.f_zero + tau <= 0.0:
                raise ConventionViolationError("R = 0 requires f(0+) + tau > 0")
            lam_R = self.f_zero
        else:
            lam_R, _, _ = _lambda_flagged(self.spec, R)
        g0_lim = -math.pi if R == 0.0 else 0.0
        gfun, scales, jumps = self._product_kernel(x1, x2, R)
        val, _ = self._integral(gfun, g0_lim, float(tau), scales, jumps, rel_goal)
        return (tau + lam_R) * math.exp(-val / math.pi)

    # -- fixed-grid families, evaluable at complex tau ---------------------

    def ratio_family(self, x1, x2, side):
        """Callable tau -> f_tau^side(x1)/f_tau^side(x2), tau off (-inf, 0]."""
        x1 = float(x1)
        x2 = float(x2)
        sgn = 1.0 if side == PLUS else -1.0
        g, lam, grid = self._samples(*self._ratio_kernel(x1, x2, side))
        g0_lim = 0.0 if min(x1, x2) > 0.0 else float(g[0])
        return _StieltjesFamily(g, lam, grid, g0_lim, self.f_zero, -sgn / math.pi)

    def product_family(self, x1, x2, R):
        """Callable tau -> f_tau^+(x1) f_tau^-(x2) with the split at R."""
        x1 = float(x1)
        x2 = float(x2)
        R = float(R)
        lam_R = self.f_zero if R == 0.0 else _lambda_flagged(self.spec, R)[0]
        g0_lim = -math.pi if R == 0.0 else 0.0
        g, lam, grid = self._samples(*self._product_kernel(x1, x2, R))
        fam = _StieltjesFamily(g, lam, grid, g0_lim, self.f_zero, -1.0 / math.pi)
        return lambda tau: (tau + lam_R) * fam(tau)

    def _samples(self, gfun, scales, jumps):
        grid = self._grid(scales, jumps)
        zeta, lam = self._tl(grid)
        return gfun(zeta, np.exp(grid)), lam, grid


class _StieltjesFamily:
    """exp(coef int g d log(lambda + tau)) over a fixed sampled spine grid."""

    def __init__(self, g, lam, grid, g0_lim, f_zero, coef):
        self.g = g
        self.lam = lam
        self.du0 = float(grid[1] - grid[0])
        self.du1 = float(grid[-1] - grid[-2])
        self.g0 = g0_lim
        self.f_zero = f_zero
        self.coef = coef

    def __call__(self, tau):
        v = np.log(self.lam + tau + 0.0j) if isinstance(tau, complex) else np.log(self.lam + tau)
        mids = 0.5 * (self.g[:-1] + self.g[1:])
        total = np.sum(mids * np.diff(v))
        finite_zero = self.f_zero + (tau.real if isinstance(tau, complex) else tau) > 0.0
        if isinstance(tau, complex) and tau.imag != 0.0:
            finite_zero = True
        if finite_zero:
            v_zero = (
                cmath.log(self.f_zero + tau)
                if isinstance(tau, complex)
                else math.log(self.f_zero + tau)
            )
            total += self.g0 * (v[0] - v_zero) + 0.5 * (self.g[0] - self.g0) * (v[0] - v_zero)
        else:
            total += (self.g[0] - self.g0) * (v[1] - v[0]) / self.du0
        total += self.g[-1] * (v[-1] - v[-2]) / self.du1
        out = np.exp(self.coef * total)
        return complex(out) if isinstance(tau, complex) else float(np.real(out))


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def wh_ratio(spec, method, side, xi1, xi2):
    """f^side(xi1) / f^side(xi2) by the requested method; normalization-free."""
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}")
    if side not in (PLUS, MINUS):
        raise ValueError("side must be 'plus' or 'minus'")
    xi1 = float(xi1)
    xi2 = float(xi2)
    if xi1 <= 0.0 or xi2 <= 0.0:
        raise DomainError("wh_ratio needs xi1, xi2 > 0")
    if is_constant(spec):
        raise MethodUnsupportedError("constant exponents have no factorization")
    if method == "phi":
        handle = get_factor_handle(spec, side)
        return float((handle.eval(complex(xi1)) / handle.eval(complex(xi2))).real)
    if method == "bd":
        return _bd_ratio(spec, side, xi1, xi2)
    return get_spine_engine(spec).ratio(xi1, xi2, side)


def wh_product(spec, method, xi1, xi2, R=None):
    """f+(xi1) f-(xi2) under c+ c- = c; ``R`` is the spine-route split radius."""
    if method not in ("bd", "spine"):
        raise ValueError("wh_product supports methods 'bd' and 'spine'")
    xi1 = float(xi1)
    xi2 = float(xi2)
    if xi1 <= 0.0 or xi2 <= 0.0:
        raise DomainError("wh_product needs xi1, xi2 > 0")
    if method == "bd":
        return _bd_product(spec, xi1, xi2)
    if R is None:
        R = math.sqrt(xi1 * xi2)
    return get_spine_engine(spec).product(xi1, xi2, float(R))


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
    if side not in (PLUS, MINUS):
        raise ValueError("side must be 'plus' or 'minus'")
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
