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
from .numerics import _WORK, _lockstep_root
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
_EDGE = 1e-9  # the angle solve never evaluates closer to the axis than this
_THETA_TOL = 1e-12  # final bracket width of the spine angle


@dataclass(frozen=True)
class SpineSamples:
    """The spine at an array of radii ``r``; every field is aligned with ``r``."""

    r: np.ndarray
    theta: np.ndarray
    zeta: np.ndarray
    lam: np.ndarray
    in_Z: np.ndarray


@dataclass(frozen=True)
class SpineTable:
    """Spine samples on a grid and their Z intervals.

    The accessors return the stored sample arrays, not copies.
    """

    samples: SpineSamples
    z_intervals: tuple

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

    ``_theta_array`` at the one radius r, so that a single angle is bitwise
    the one ``solve_spine`` returns at r.  When the sign is constant on
    (-pi/2, pi/2) the spine runs along the imaginary axis and +-pi/2 is
    returned exactly.
    """
    if is_constant(spec):
        raise SpineUndefinedError("constant exponents have no spine")
    r = float(r)
    if not 0.0 < r < math.inf:
        raise DomainError("the spine needs a finite radius r > 0")
    return float(_theta_array(spec, np.array([r]))[0])


def _profile_slope(spec, s):
    """d lambda / d log r at the radii of the spine samples ``s``.

    On Z, im f(zeta(r)) = 0 gives theta' = -Im w / Re w for w = f'(zeta) zeta,
    so the slope is Re w - theta' Im w = |w|^2 / Re w.  Off Z the profile is
    re f(+-i r) and the slope is r re(+-i f'(+-i r)), with f' the boundary
    value on the axis.  Where w is 0 in floating point (far out on a bounded
    exponent) the slope is 0, and where |w|^2 overflows it is |w| (|w| / Re w).
    """
    slope = np.empty(s.r.shape)
    z = s.in_Z
    if z.any():
        w = eval_f_prime(spec, s.zeta[z]) * s.zeta[z]
        aw = np.abs(w)
        with np.errstate(over="ignore"):
            sq = aw * aw
            fine = np.isfinite(sq)
            big = np.divide(aw, w.real, out=np.zeros(aw.shape), where=~fine) * aw
        slope[z] = np.divide(sq, w.real, out=big, where=fine & (aw > 0.0))
    out = ~z
    if out.any():
        y = np.where(s.theta[out] > 0.0, 1.0, -1.0) * s.r[out]
        slope[out] = np.real(1j * y * _axis_limit(spec, y, prime=True))
    return slope


def _on_axis(spec, r):
    """True where theta(r) is exactly +-pi/2: im f has one sign at both ends of the angle
    bracket of ``_theta_array``, evaluated for all radii in one ``eval_f`` call."""
    half = 0.5 * math.pi - _EDGE
    g = eval_f(spec, np.multiply.outer(np.exp(1j * np.array([-half, half])), r)).imag
    return np.sign(g[0]) * np.sign(g[1]) > 0.0


def _theta_array(spec, r):
    """Spine angle at every radius of ``r``, by one lockstep root solve.

    Arg f and im f share their sign off the cut, and im f(r e^{i alpha}) is
    nondecreasing in alpha, so the angle is the root of im f in
    [-pi/2 + _EDGE, pi/2 - _EDGE], found by ``_lockstep_root`` to a final
    bracket of width 1e-12.  Both ends of every bracket are evaluated in one
    ``eval_f`` call, then each step evaluates all open brackets in one call.
    A constant sign gives -pi/2 (im f > 0) or pi/2 (im f < 0) exactly, and
    an exact zero at an end gives that end.
    """

    def g(rr, alpha):
        return eval_f(spec, rr * np.exp(1j * alpha)).imag

    half = 0.5 * math.pi
    lo, hi = np.full(r.shape, -half + _EDGE), np.full(r.shape, half - _EDGE)
    glo, ghi = g(r, np.stack([lo, hi]))
    theta = _lockstep_root(lambda idx, x: g(r[idx], x), lo, hi, glo, ghi, _THETA_TOL)
    return np.where((glo > 0.0) & (ghi > 0.0), -half, np.where((glo < 0.0) & (ghi < 0.0), half, theta))


def solve_spine(spec, radii):
    """Spine angle, point, profile and Z membership at every radius.

    Angles come from one lockstep root solve (``_theta_array``, which
    ``theta_at`` shares), profile values from one ``eval_f`` call on the Z
    points (f(zeta) must be real there to 1e-8) and, for the others, one
    boundary evaluation re f(+0 + i r sign(theta)) on the axis.
    """
    if is_constant(spec):
        raise SpineUndefinedError("constant exponents have no spine")
    r = np.asarray(radii, dtype=float)
    if r.ndim != 1:
        raise DomainError("solve_spine needs a 1-d array of radii")
    if not np.all((r > 0.0) & (r < math.inf)):
        raise DomainError("solve_spine needs finite radii r > 0")
    _WORK["solve_spine.calls"] += 1
    _WORK["solve_spine.radii"] += r.size
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
        lam[out] = _axis_limit(spec, np.where(theta[out] > 0.0, 1.0, -1.0) * r[out]).real
    return SpineSamples(r, theta, zeta, lam, in_z)


def lambda_at(spec, r):
    """Monotone profile lambda(r) = f(zeta(r)), extended by continuity.

    ``solve_spine`` at the one radius r, so that a single value is bitwise
    the one it returns at r.
    """
    return float(solve_spine(spec, np.array([float(r)])).lam[0])


def _z_sign(spec, r, side):
    """A value with the sign of |theta(r)| - (pi/2 - ANGLE_TOL) where theta lies on ``side``.

    ``side`` (+-1) is the side of the axis towards which the spine leaves Z.
    As im f(r e^{i alpha}) is nondecreasing in alpha, -side im f on the ray
    alpha = side (pi/2 - ANGLE_TOL) has that sign: one ``eval_f`` call for
    all radii, with ``r`` and ``side`` broadcast together.
    """
    ray = np.exp(1j * side * (0.5 * math.pi - ANGLE_TOL))
    return -side * eval_f(spec, r * ray).imag


def _z_crossings(spec, r):
    """Radii where |theta| crosses pi/2 - ANGLE_TOL between consecutive radii of sorted ``r``.

    The ``_z_sign`` rows of both sides are evaluated at ``r`` in one
    ``eval_f`` call.  Each sign change of a row brackets a crossing, on the
    side where the spine leaves Z; all brackets are solved by one
    ``_lockstep_root`` call, with one ``_z_sign`` call per step, to a final
    bracket of width 1e-12 times its upper end.  Crossings come grouped by
    side, not sorted.
    """
    sides = np.array([[1.0], [-1.0]])
    b = _z_sign(spec, r, sides)
    row, k = np.nonzero((b[:, :-1] > 0.0) != (b[:, 1:] > 0.0))
    side = sides[row, 0]

    def g(idx, x):
        return _z_sign(spec, x, side[idx])

    return _lockstep_root(g, r[k], r[k + 1], b[row, k], b[row, k + 1], 1e-12 * r[k + 1])


def build_spine_table(spec, r_min, r_max, n):
    """Sample the spine on a log-spaced grid (one ``solve_spine``) and assemble Z intervals.

    The interval ends are the grid ends where the end samples lie in Z and,
    in order between them, the crossings of ``_z_crossings`` on the grid;
    every crossing enters or leaves Z, so the ends pair up in turn.
    """
    if not 0.0 < r_min < r_max < math.inf:
        raise DomainError("need 0 < r_min < r_max < inf")
    if n < 16:
        raise DomainError("need n >= 16")
    radii = np.geomspace(r_min, r_max, int(n))
    s = solve_spine(spec, radii)
    cross = np.sort(_z_crossings(spec, radii))
    ends = np.concatenate([radii[:1][s.in_Z[:1]], cross, radii[-1:][s.in_Z[-1:]]]).tolist()
    return SpineTable(s, tuple(zip(ends[0::2], ends[1::2])))


def classify_point(spec, xi):
    """Locate xi relative to the symmetrized spine: D_plus, D_minus or on_spine.

    Off the imaginary axis the sign of im f decides; on the axis the spine
    angle at r = |xi| (and at neighbouring radii, for axis-hugging spines)
    decides.
    """
    xi = complex(xi)
    if xi == 0.0 or not cmath.isfinite(xi):
        raise DomainError("classify_point needs a finite xi != 0")
    if xi.real != 0.0:
        v = eval_f(spec, xi)
        if abs(v.imag) <= 1e-10 * (1.0 + abs(v)):
            return ON_SPINE
        return D_PLUS if v.imag > 0.0 else D_MINUS

    if is_constant(spec):
        raise SpineUndefinedError("constant exponents have no spine")
    up = xi.imag > 0.0
    half = 0.5 * math.pi
    hugs = lambda t: half - abs(t) <= ANGLE_TOL and (t > 0.0) == up
    # the angle at r = |xi| and at r (1 -+ 1e-3) in one lockstep solve; the first is theta_at's
    theta, *near = _theta_array(spec, abs(xi.imag) * np.array([1.0, 1.0 - 1e-3, 1.0 + 1e-3])).tolist()
    if not hugs(theta):
        return D_PLUS if up else D_MINUS
    # the spine touches this axis point; interior iff it hugs a neighbourhood
    if all(map(hugs, near)):
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
    continuity at each end of the table's Z intervals inside the grid
    (lambda at r* (1 -+ d), d = 1e-4 and 2e-4, extrapolated to r* from
    either side, relative mismatch at most 1e-6), and for
    exponential-representation specs the |log lambda| envelope.  The
    samples of both continuity checks come from one ``solve_spine`` call.
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

    # one solve for two continuity checks: two steps of cos(theta)/90 in
    # log r from each Z sample, and r* (1 -+ d) at d = 1e-4, 2e-4 beside
    # each Z boundary r* inside the grid (outside Z first)
    k = np.flatnonzero(in_z)
    hk = np.cos(theta[k]) / 90.0
    ends = np.array(table.z_intervals).reshape(-1)
    inner = (r[0] < ends) & (ends < r[-1])
    stars, inward = ends[inner], np.tile([1.0, -1.0], len(table.z_intervals))[inner]
    near = (stars[:, None] * (1.0 + np.outer(inward, [-1e-4, -2e-4, 1e-4, 2e-4]))).ravel()
    step = solve_spine(spec, np.concatenate([r[k] * np.exp(hk), r[k] * np.exp(2.0 * hk), near]))

    # angle continuity: where both steps stay in Z and the first has
    # |dtheta/du| <= 1, the second has a rate below 2
    t1, t2 = step.theta[: 2 * k.size].reshape(2, -1)
    rate1, rate2 = np.abs(t1 - theta[k]) / hk, np.abs(t2 - t1) / hk
    trusted = step.in_Z[: k.size] & step.in_Z[k.size : 2 * k.size] & (rate1 <= 1.0)
    margin = (2.0 * slack - rate2[trusted]) / (2.0 * slack)
    rep.add("angle-continuity", _min_or_zero(margin), tol=1e-12)

    # log-derivative bound on the spine
    if in_z.any():
        z = s.zeta[in_z]
        ratio = np.abs(eval_f_prime(spec, z) / eval_f(spec, z))
        bound = slack * math.pi / np.abs(z)
        rep.add("spine-log-derivative", float(np.min((bound - ratio) / bound)), tol=1e-12)

    # profile continuity across Z boundaries: lambda extrapolated linearly
    # to r* from outside and from inside Z
    beside = step.lam[2 * k.size :].reshape(-1, 4)  # per r*: two radii outside Z, two inside
    at_out, at_in = (2.0 * beside[:, 0::2] - beside[:, 1::2]).T
    mism = np.abs(at_out - at_in) / (1.0 + np.abs(at_out))
    for r_star, m in zip(stars.tolist(), mism.tolist()):
        rep.add("profile-continuity", (1e-6 - m) / 1e-6, {"r": r_star, "mismatch": m}, tol=1e-12)

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
