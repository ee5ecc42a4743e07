"""Spine of a Rogers function: the curve system where f takes positive reals.

For a non-constant spec there is a unique angle theta(r) in [-pi/2, pi/2]
per radius such that Arg f(r e^{i alpha}) changes sign at alpha = theta(r);
zeta(r) = r e^{i theta(r)} parameterizes the spine, Z is the set of radii
with |theta| < pi/2 (spine strictly inside the half-plane), and the profile
lambda(r) = f(zeta(r)) is continuous and strictly increasing.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SpineUndefinedError
from .numerics import bisect_monotone
from .report import VerifyReport
from .rogers import PhiRep, _axis_limit, eval_f, eval_f_prime, is_constant

__all__ = [
    "SpineTable",
    "theta_at",
    "lambda_at",
    "SpineSamples",
    "solve_spine",
    "build_spine_table",
    "classify_point",
    "spine_invariant_report",
    "D_PLUS",
    "D_MINUS",
    "ON_SPINE",
]

D_PLUS = "D_plus"
D_MINUS = "D_minus"
ON_SPINE = "on_spine"

ANGLE_TOL = 1e-7  # |theta| < pi/2 - ANGLE_TOL defines membership in Z
_EDGE = 1e-9  # bisection never evaluates closer to the axis than this
_THETA_TOL = 1e-12  # bisection width of the spine angle


@dataclass(frozen=True)
class SpineSamples:
    """The spine at an array of radii ``r``; every field is aligned with ``r``."""

    r: np.ndarray
    theta: np.ndarray
    zeta: np.ndarray
    lam: np.ndarray
    in_Z: np.ndarray
    flag: np.ndarray  # "boundary-interpolated" where the profile is extrapolated, else ""


@dataclass(frozen=True)
class SpineTable:
    """Spine samples on a grid, their Z intervals and boundary continuity checks.

    The accessors return the stored sample arrays, not copies.
    """

    samples: SpineSamples
    z_intervals: tuple
    boundary_checks: tuple = ()  # (r_star, rel_mismatch) per Z boundary

    def radii(self):
        return self.samples.r

    def thetas(self):
        return self.samples.theta

    def lambdas(self):
        return self.samples.lam

    def zetas(self):
        return self.samples.zeta

    def in_z_mask(self):
        return self.samples.in_Z


def theta_at(spec, r):
    """Spine angle theta(r): the sign-change angle of Arg f(r e^{i alpha}).

    Arg f and im f share their sign off the cut, so bisection acts on im f.
    When the sign is constant on (-pi/2, pi/2) the spine runs along the
    imaginary axis and +-pi/2 is returned exactly.
    """
    if is_constant(spec):
        raise SpineUndefinedError("constant exponents have no spine")
    r = float(r)
    if not r > 0.0:
        raise DomainError("theta_at needs r > 0")

    def g(alpha):
        return eval_f(spec, r * cmath.exp(1j * alpha)).imag

    lo = -0.5 * math.pi + _EDGE
    hi = 0.5 * math.pi - _EDGE
    glo, ghi = g(lo), g(hi)
    if glo > 0.0 and ghi > 0.0:
        return -0.5 * math.pi
    if glo < 0.0 and ghi < 0.0:
        return 0.5 * math.pi
    return bisect_monotone(g, lo, hi, tol=_THETA_TOL, glo=glo, ghi=ghi)


def _axis_lambda(spec, r, side):
    """Profile value off Z: re f(+0 + i side r), the boundary value on the axis.

    ``r`` and ``side`` are scalars or arrays of one shape.
    """
    return np.real(_axis_limit(spec, np.multiply(side, r)))


def _profile_slope(spec, s):
    """d lambda / d log r at the radii of the spine samples ``s``.

    On Z, im f(zeta(r)) = 0 gives theta' = -Im w / Re w for w = f'(zeta) zeta,
    so the slope is Re w - theta' Im w = |w|^2 / Re w.  Off Z the profile is
    re f(+-i r) and the slope is r re(+-i f'(+-i r)), with f' the boundary
    value on the axis.  Where w is 0 in floating point (far out on a bounded
    exponent) the slope is 0.
    """
    slope = np.empty(s.r.shape)
    z = s.in_Z
    if z.any():
        w = eval_f_prime(spec, s.zeta[z]) * s.zeta[z]
        aw = np.abs(w)
        slope[z] = np.divide(aw * aw, w.real, out=np.zeros(aw.shape), where=aw > 0.0)
    out = ~z
    if out.any():
        y = np.where(s.theta[out] > 0.0, 1.0, -1.0) * s.r[out]
        slope[out] = np.real(1j * y * _axis_limit(spec, y, prime=True))
    return slope


def _lambda_flagged(spec, r):
    theta = theta_at(spec, r)
    half = 0.5 * math.pi
    if abs(theta) < half - ANGLE_TOL:
        zeta = r * cmath.exp(1j * theta)
        v = eval_f(spec, zeta)
        lam = v.real
        if abs(v.imag) > 1e-8 * (1.0 + abs(lam)):
            raise DomainError(
                f"profile evaluation off the spine at r={r}: f(zeta)={v}"
            )
        return lam, theta, ""
    side = 1.0 if theta > 0.0 else -1.0
    lam = float(_axis_lambda(spec, r, side))
    flag = "" if abs(theta) == half else "boundary-interpolated"
    return lam, theta, flag


def _theta_array(spec, r):
    """``theta_at`` at every radius of ``r``, by one lockstep bisection.

    Each radius follows the scalar rules step for step: the same bracket,
    constant-sign and exact-zero returns, midpoints and stopping tests as
    ``theta_at`` with ``bisect_monotone``.  Each step evaluates im f at the
    midpoints of all radii still bisecting in one ``eval_f`` call.
    """

    def g(rr, alpha):
        return eval_f(spec, rr * np.exp(1j * alpha)).imag

    half = 0.5 * math.pi
    lo = np.full(r.shape, -half + _EDGE)
    hi = np.full(r.shape, half - _EDGE)
    glo, ghi = g(r, lo), g(r, hi)
    ends = [(glo > 0.0) & (ghi > 0.0), (glo < 0.0) & (ghi < 0.0), glo == 0.0, ghi == 0.0]
    theta = np.select(ends, [-half, half, lo, hi], np.nan)
    idx = np.flatnonzero(~np.logical_or.reduce(ends))
    _lockstep_bisect(lambda idx, mid: g(r[idx], mid), lo, hi, _THETA_TOL, theta, idx)
    return theta


def _lockstep_bisect(g, lo, hi, tol, out, idx):
    """Bisect the brackets [lo, hi] listed in ``idx`` in lockstep; results go to ``out``.

    Each bracket follows the midpoint loop of ``bisect_monotone`` step for
    step: g < 0 moves lo up, an exact zero is the result, anything else
    moves hi down; a bracket stops with its midpoint at width ``tol``
    (scalar or per bracket), when the midpoint is not strictly inside, or
    after 200 steps.  ``g(idx, mid)`` evaluates the midpoints of all open
    brackets in one call.  ``lo`` and ``hi`` are updated in place.
    """
    tol = np.broadcast_to(tol, lo.shape)
    for _ in range(200):  # bisect_monotone's max_iter
        l, h = lo[idx], hi[idx]
        mid = 0.5 * (l + h)
        go = (h - l > tol[idx]) & (mid > l) & (mid < h)
        if not go.all():
            out[idx[~go]] = 0.5 * (l[~go] + h[~go])
            idx, mid = idx[go], mid[go]
        if not idx.size:
            return
        gm = g(idx, mid)
        neg, zero = gm < 0.0, gm == 0.0
        lo[idx[neg]] = mid[neg]
        up = ~(neg | zero)
        hi[idx[up]] = mid[up]
        if zero.any():
            out[idx[zero]] = mid[zero]
            idx = idx[~zero]
    out[idx] = 0.5 * (lo[idx] + hi[idx])


def solve_spine(spec, radii):
    """Spine angle, point, profile, Z membership and flag at every radius.

    The array form of ``_lambda_flagged`` with the same rules: angles from
    one lockstep bisection (``_theta_array``), profile values from one
    ``eval_f`` call on the Z points and one boundary evaluation on the axis
    for the others.  Single radii are cheaper through ``theta_at``/``lambda_at``.
    """
    if is_constant(spec):
        raise SpineUndefinedError("constant exponents have no spine")
    r = np.asarray(radii, dtype=float)
    if r.ndim != 1:
        raise DomainError("solve_spine needs a 1-d array of radii")
    if not np.all(r > 0.0):
        raise DomainError("solve_spine needs r > 0")
    half = 0.5 * math.pi
    theta = _theta_array(spec, r)
    in_z = np.abs(theta) < half - ANGLE_TOL
    on_axis = np.abs(theta) == half
    zeta = r * np.exp(1j * theta)
    zeta.real[on_axis] = 0.0
    zeta.imag[on_axis] = np.copysign(r[on_axis], theta[on_axis])

    lam = np.empty(r.shape)
    if in_z.any():
        v = eval_f(spec, zeta[in_z])
        lam[in_z] = v.real
        off = np.flatnonzero(np.abs(v.imag) > 1e-8 * (1.0 + np.abs(v.real)))
        if off.size:
            k = off[0]
            raise DomainError(
                f"profile evaluation off the spine at r={r[in_z][k]}: f(zeta)={v[k]}"
            )
    out = ~in_z
    if out.any():
        lam[out] = _axis_lambda(spec, r[out], np.where(theta[out] > 0.0, 1.0, -1.0))
    flag = np.where(out & ~on_axis, "boundary-interpolated", "")
    return SpineSamples(r, theta, zeta, lam, in_z, flag)


def lambda_at(spec, r):
    """Monotone profile lambda(r) = f(zeta(r)), extended by continuity."""
    lam, _, _ = _lambda_flagged(spec, float(r))
    return lam


def _z_sign(spec, r, side):
    """A value with the sign of |theta(r)| - (pi/2 - ANGLE_TOL) where theta lies on ``side``.

    ``side`` (+-1) is the side of the axis towards which the spine leaves Z.
    As im f(r e^{i alpha}) is nondecreasing in alpha, -side im f on the ray
    alpha = side (pi/2 - ANGLE_TOL) has that sign: one ``eval_f`` call for
    all radii, with ``r`` and ``side`` broadcast together.
    """
    ray = np.exp(1j * side * (0.5 * math.pi - ANGLE_TOL))
    return -side * eval_f(spec, r * ray).imag


def _z_boundaries(spec, lo, hi, side, b_lo, b_hi):
    """Radii where |theta| crosses pi/2 - ANGLE_TOL, one per bracket [lo, hi].

    ``b_lo`` and ``b_hi`` carry the signs of |theta| - (pi/2 - ANGLE_TOL) at
    the bracket ends and ``side`` the side where the spine leaves Z.  All
    brackets are bisected in lockstep, one ``_z_sign`` call on the
    midpoints per step, each following ``bisect_monotone`` on sign_flip b
    with tol 1e-12 hi, where sign_flip makes b rise from lo to hi.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    flip = np.where(b_hi > b_lo, 1.0, -1.0)
    glo, ghi = flip * b_lo, flip * b_hi
    ends = [(glo > 0.0) & (ghi > 0.0), (glo < 0.0) & (ghi < 0.0), glo == 0.0, ghi == 0.0]
    out = np.select(ends, [lo, hi, lo, hi], np.nan)
    idx = np.flatnonzero(~np.logical_or.reduce(ends))

    def g(idx, mid):
        return flip[idx] * _z_sign(spec, mid, side[idx])

    _lockstep_bisect(g, lo, hi, 1e-12 * hi, out, idx)
    return out


def build_spine_table(spec, r_min, r_max, n):
    """Sample the spine on a log-spaced grid and assemble Z intervals.

    Profile continuity at each Z boundary is verified by extrapolating the
    interior and axis evaluations to the boundary radius from either side.
    """
    if not (0.0 < r_min < r_max):
        raise DomainError("need 0 < r_min < r_max")
    if n < 16:
        raise DomainError("need n >= 16")
    radii = np.geomspace(r_min, r_max, int(n))
    s = solve_spine(spec, radii)

    # runs of Z: +1 steps of the False-padded mask open them, -1 steps close
    # them; each inner end is refined towards its non-Z neighbour
    steps = np.diff(np.concatenate(([0], s.in_Z.astype(np.int8), [0])))
    first, last = np.flatnonzero(steps == 1), np.flatnonzero(steps == -1) - 1
    ends = np.concatenate([first, last])
    nbr = np.concatenate([first - 1, last + 1])
    inner = (nbr >= 0) & (nbr < radii.size)
    bounds = radii[ends]
    z, out = ends[inner], nbr[inner]
    lo, hi = np.minimum(z, out), np.maximum(z, out)
    b = np.abs(s.theta) - (0.5 * math.pi - ANGLE_TOL)
    side = np.where(s.theta[out] > 0.0, 1.0, -1.0)
    bounds[inner] = _z_boundaries(spec, radii[lo], radii[hi], side, b[lo], b[hi])
    intervals = [(float(a), float(c)) for a, c in zip(bounds[: first.size], bounds[first.size :])]

    # profile continuity at each boundary inside the grid: lambda extrapolated
    # to it from outside and from inside Z, from r (1 -+ d) at d = 1e-4, 2e-4
    # (one solve)
    stars = np.array(intervals).reshape(-1)
    inward = np.tile([1.0, -1.0], len(intervals))
    keep = (radii[0] < stars) & (stars < radii[-1])
    stars, inward = stars[keep], inward[keep]
    boundary_checks = ()
    if stars.size:
        d = np.array([-1e-4, -2e-4, 1e-4, 2e-4])
        lam = solve_spine(spec, (stars[:, None] * (1.0 + np.outer(inward, d))).ravel()).lam
        at_out, at_in = (2.0 * lam[0::2] - lam[1::2]).reshape(-1, 2).T
        mism = np.abs(at_out - at_in) / (1.0 + np.abs(at_out))
        boundary_checks = tuple(zip(stars.tolist(), mism.tolist()))

    return SpineTable(s, tuple(intervals), boundary_checks)


def classify_point(spec, xi):
    """Locate xi relative to the symmetrized spine: D_plus, D_minus or on_spine.

    Off the imaginary axis the sign of im f decides; on the axis the spine
    angle at r = |xi| (and at neighbouring radii, for axis-hugging spines)
    decides.
    """
    xi = complex(xi)
    if xi == 0.0:
        raise DomainError("classify_point needs xi != 0")
    if xi.real != 0.0:
        v = eval_f(spec, xi)
        if abs(v.imag) <= 1e-10 * (1.0 + abs(v)):
            return ON_SPINE
        return D_PLUS if v.imag > 0.0 else D_MINUS

    r = abs(xi.imag)
    up = xi.imag > 0.0
    half = 0.5 * math.pi
    theta = theta_at(spec, r)
    hugging = half - abs(theta) <= ANGLE_TOL and (theta > 0.0) == up
    if not hugging:
        return D_PLUS if up else D_MINUS
    # spine touches this axis point; interior iff it hugs a neighbourhood
    delta = 1e-3
    near = [theta_at(spec, r * (1.0 - delta)), theta_at(spec, r * (1.0 + delta))]
    if all(half - abs(t) <= ANGLE_TOL and (t > 0.0) == up for t in near):
        return D_MINUS if up else D_PLUS
    return ON_SPINE


def _min_or_zero(margins):
    """Worst margin of a check, 0 when it has no samples."""
    return float(np.min(margins)) if margins.size else 0.0


def spine_invariant_report(table: SpineTable, spec) -> VerifyReport:
    """Geometric invariant suite on a sampled spine.

    Checks, with slack factor 1.1 on finite-difference estimates:
    the curvature bound |T''| <= 9 (T'^2 + 1)/cos T in log coordinates, the
    length-in-annulus bound 300 r, total variation of the spine angle at
    most 140 per log-window of width log(1+sqrt 2), monotonicity of the
    profile, angle continuity (on two steps of cos T / 90 beside each Z
    sample), the on-spine log-derivative bound pi/|zeta|, profile
    continuity at Z boundaries, and for exponential-representation specs
    the |log lambda| envelope.
    """
    rep = VerifyReport("spine-invariants")
    s = table.samples
    if s.r.size < 64:
        raise DomainError("spine_invariant_report needs a table with n >= 64")
    slack = 1.1
    r, theta, lam, in_z = s.r, s.theta, s.lam, s.in_Z
    u = np.log(r)
    h = u[1] - u[0]
    z2 = in_z[:-1] & in_z[1:]  # cells with both ends in Z
    z3 = z2[:-1] & in_z[2:]  # consecutive triples in Z

    # curvature bound at interior Z points
    t_lo, t_mid, t_hi = theta[:-2][z3], theta[1:-1][z3], theta[2:][z3]
    d1 = (t_hi - t_lo) / (2.0 * h)
    d2 = (t_hi - 2.0 * t_mid + t_lo) / h**2
    bound = slack * 9.0 * (d1 * d1 + 1.0) / np.cos(t_mid)
    rep.add("curvature-bound", _min_or_zero((bound - np.abs(d2)) / bound), tol=1e-12)

    # polyline length within annuli [L, 2L]
    seg_mid = (0.5 * (r[:-1] + r[1:]))[z2]
    seg_len = np.abs(np.diff(s.zeta))[z2]
    ls = r[:: max(1, r.size // 64)]
    ls = ls[2.0 * ls <= r[-1]]
    inside = (seg_mid >= ls[:, None]) & (seg_mid <= 2.0 * ls[:, None])
    margin = (300.0 * ls - np.where(inside, seg_len, 0.0).sum(axis=1)) / (300.0 * ls)
    worst_r = float(ls[np.argmin(margin)]) if ls.size else None
    rep.add("annulus-length", _min_or_zero(margin), {"r": worst_r}, tol=1e-12)

    # total variation of theta over log-windows of width log(1 + sqrt 2)
    window = math.log(1.0 + math.sqrt(2.0))
    dtheta = np.abs(np.diff(theta))
    var = np.concatenate(([0.0], np.cumsum(np.where(z2, dtheta, 0.0))))
    ends = np.searchsorted(u, u[:-1] + window, side="right") - 1
    rep.add("angle-variation", _min_or_zero((140.0 - (var[ends] - var[:-1])) / 140.0), tol=1e-12)

    # profile monotone: nondecreasing overall, strictly increasing inside Z
    dlam = np.diff(lam)
    scale = 1.0 + np.abs(lam[:-1])
    rep.add("profile-nondecreasing", float(np.min(dlam / scale)), tol=1e-11)
    if z2.any():
        rep.add("profile-strict-on-Z", float(np.min(dlam[z2])), tol=0.0)

    # angle continuity: two steps of cos(theta)/90 in log r from each Z sample
    # (one solve); where both stay in Z and the first has |dtheta/du| <= 1,
    # the second has a rate below 2
    k = np.flatnonzero(in_z)
    hk = np.cos(theta[k]) / 90.0
    step = solve_spine(spec, np.concatenate([r[k] * np.exp(hk), r[k] * np.exp(2.0 * hk)]))
    t1, t2 = step.theta.reshape(2, -1)
    rate1, rate2 = np.abs(t1 - theta[k]) / hk, np.abs(t2 - t1) / hk
    trusted = step.in_Z[: k.size] & step.in_Z[k.size :] & (rate1 <= 1.0)
    rep.add(
        "angle-continuity",
        _min_or_zero((2.0 * slack - rate2[trusted]) / (2.0 * slack)),
        tol=1e-12,
    )

    # log-derivative bound on the spine
    if in_z.any():
        z = s.zeta[in_z]
        ratio = np.abs(eval_f_prime(spec, z) / eval_f(spec, z))
        bound = slack * math.pi / np.abs(z)
        rep.add("spine-log-derivative", float(np.min((bound - ratio) / bound)), tol=1e-12)

    # profile continuity across Z boundaries
    for r_star, mism in table.boundary_checks:
        rep.add(
            "profile-continuity",
            (1e-6 - mism) / 1e-6,
            {"r": r_star, "mismatch": mism},
            tol=1e-12,
        )

    # |log lambda| envelope (exponential-representation constant available)
    if isinstance(spec, PhiRep):
        pos = lam > 0.0
        logc = abs(math.log(spec.c))
        bound = slack * (logc + math.sqrt(2.0 * math.pi) * (1.0 + r[pos]) / np.sqrt(r[pos]))
        rep.add(
            "log-profile-envelope",
            _min_or_zero((bound - np.abs(np.log(lam[pos]))) / bound),
            tol=1e-12,
        )

    return rep
