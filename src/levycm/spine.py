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
from .numerics import bisect_monotone, richardson_zero
from .report import VerifyReport
from .rogers import PhiRep, eval_f, eval_f_prime, is_constant

__all__ = [
    "SpinePoint",
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


@dataclass(frozen=True)
class SpinePoint:
    r: float
    theta: float
    zeta: complex
    lam: float
    in_Z: bool
    flag: str = ""


@dataclass(frozen=True)
class SpineTable:
    points: tuple
    z_intervals: tuple
    grid_meta: tuple  # (r_min, r_max, n)
    boundary_checks: tuple = ()  # (r_star, rel_mismatch) per Z boundary

    def radii(self):
        return np.array([p.r for p in self.points])

    def thetas(self):
        return np.array([p.theta for p in self.points])

    def lambdas(self):
        return np.array([p.lam for p in self.points])

    def zetas(self):
        return np.array([p.zeta for p in self.points])

    def in_z_mask(self):
        return np.array([p.in_Z for p in self.points])


def theta_at(spec, r, angle_tol=1e-12):
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
    return bisect_monotone(g, lo, hi, tol=angle_tol, glo=glo, ghi=ghi)


def _axis_lambda(spec, r, side):
    """Boundary profile value via an extrapolated approach f(eps + i side r).

    ``r`` and ``side`` are scalars or arrays of one shape; all ladder points
    go to ``eval_f`` in one call.
    """
    ladder = np.array([1e-4, 1e-5, 1e-6])
    xi = np.empty(ladder.shape + np.shape(r), dtype=complex)
    xi.real = np.multiply.outer(ladder, r)
    xi.imag = np.multiply(side, r)
    return np.real(richardson_zero(ladder, eval_f(spec, xi)))


def _lambda_flagged(spec, r, angle_tol=ANGLE_TOL):
    theta = theta_at(spec, r)
    half = 0.5 * math.pi
    if abs(theta) < half - angle_tol:
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


def _theta_array(spec, r, angle_tol=1e-12):
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
    for _ in range(200):  # bisect_monotone's max_iter
        l, h = lo[idx], hi[idx]
        mid = 0.5 * (l + h)
        go = (h - l > angle_tol) & (mid > l) & (mid < h)
        theta[idx[~go]] = 0.5 * (l[~go] + h[~go])
        idx, mid = idx[go], mid[go]
        if not idx.size:
            break
        gm = g(r[idx], mid)
        neg, zero = gm < 0.0, gm == 0.0
        theta[idx[zero]] = mid[zero]
        lo[idx[neg]] = mid[neg]
        up = ~neg & ~zero
        hi[idx[up]] = mid[up]
        idx = idx[~zero]
    theta[idx] = 0.5 * (lo[idx] + hi[idx])
    return theta


@dataclass(frozen=True)
class SpineSamples:
    """The spine at an array of radii; every field is aligned with the radii."""

    theta: np.ndarray
    zeta: np.ndarray
    lam: np.ndarray
    in_Z: np.ndarray
    flag: np.ndarray  # "boundary-interpolated" or "", as in SpinePoint


def solve_spine(spec, radii, angle_tol=ANGLE_TOL):
    """Spine angle, point, profile, Z membership and flag at every radius.

    The array form of ``_lambda_flagged`` with the same rules: angles from
    one lockstep bisection (``_theta_array``), profile values from one
    ``eval_f`` call on the Z points and one on the axis ladders of the
    others.  Single radii are cheaper through ``theta_at``/``lambda_at``.
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
    in_z = np.abs(theta) < half - angle_tol
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
    return SpineSamples(theta, zeta, lam, in_z, flag)


def lambda_at(spec, r, angle_tol=ANGLE_TOL):
    """Monotone profile lambda(r) = f(zeta(r)), extended by continuity."""
    lam, _, _ = _lambda_flagged(spec, float(r), angle_tol)
    return lam


def _refine_z_boundary(spec, r_in, r_out, angle_tol):
    """Radius where |theta| crosses pi/2 - angle_tol, between a Z and a non-Z point."""
    half = 0.5 * math.pi

    def b(r):
        return abs(theta_at(spec, r)) - (half - angle_tol)

    lo, hi = (r_in, r_out) if r_in < r_out else (r_out, r_in)
    blo, bhi = b(lo), b(hi)
    sign_flip = 1.0 if bhi > blo else -1.0
    return bisect_monotone(
        lambda r: sign_flip * b(r), lo, hi, tol=1e-12 * hi, glo=sign_flip * blo, ghi=sign_flip * bhi
    )


def build_spine_table(spec, r_min, r_max, n, angle_tol=ANGLE_TOL):
    """Sample the spine on a log-spaced grid and assemble Z intervals.

    Profile continuity at each Z boundary is verified by extrapolating the
    interior and axis evaluations to the boundary radius from either side.
    """
    if not (0.0 < r_min < r_max):
        raise DomainError("need 0 < r_min < r_max")
    if n < 16:
        raise DomainError("need n >= 16")
    radii = np.geomspace(r_min, r_max, int(n))
    s = solve_spine(spec, radii, angle_tol)
    points = [
        SpinePoint(*fields)
        for fields in zip(
            radii.tolist(),
            s.theta.tolist(),
            s.zeta.tolist(),
            s.lam.tolist(),
            s.in_Z.tolist(),
            s.flag.tolist(),
        )
    ]

    mask = [p.in_Z for p in points]
    intervals = []
    boundary_checks = []
    k = 0
    while k < len(points):
        if mask[k]:
            start = k
            while k + 1 < len(points) and mask[k + 1]:
                k += 1
            lo = points[start].r
            hi = points[k].r
            if start > 0:
                lo = _refine_z_boundary(spec, points[start].r, points[start - 1].r, angle_tol)
            if k + 1 < len(points):
                hi = _refine_z_boundary(spec, points[k].r, points[k + 1].r, angle_tol)
            intervals.append((lo, hi))
        k += 1

    for lo, hi in intervals:
        for r_star, inner in ((lo, +1.0), (hi, -1.0)):
            if not (radii[0] < r_star < radii[-1]):
                continue
            delta = 1e-4
            lam_in = [lambda_at(spec, r_star * (1.0 - inner * d), angle_tol) for d in (delta, 2 * delta)]
            lam_out = [lambda_at(spec, r_star * (1.0 + inner * d), angle_tol) for d in (delta, 2 * delta)]
            at_in = 2.0 * lam_in[0] - lam_in[1]
            at_out = 2.0 * lam_out[0] - lam_out[1]
            mism = abs(at_in - at_out) / (1.0 + abs(at_in))
            boundary_checks.append((r_star, mism))

    return SpineTable(
        points=tuple(points),
        z_intervals=tuple(intervals),
        grid_meta=(float(r_min), float(r_max), int(n)),
        boundary_checks=tuple(boundary_checks),
    )


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


def spine_invariant_report(table: SpineTable, spec) -> VerifyReport:
    """Geometric invariant suite on a sampled spine.

    Checks, with slack factor 1.1 on finite-difference estimates:
    the curvature bound |T''| <= 9 (T'^2 + 1)/cos T in log coordinates, the
    length-in-annulus bound 300 r, total variation of the spine angle at
    most 140 per log-window of width log(1+sqrt 2), monotonicity of the
    profile, the on-spine log-derivative bound pi/|zeta|, profile
    continuity at Z boundaries, and for exponential-representation specs
    the |log lambda| envelope.
    """
    rep = VerifyReport("spine-invariants")
    pts = table.points
    if len(pts) < 64:
        raise DomainError("spine_invariant_report needs a table with n >= 64")
    slack = 1.1
    u = np.log(table.radii())
    h = u[1] - u[0]
    theta = table.thetas()
    lam = table.lambdas()
    in_z = table.in_z_mask()

    # curvature bound at interior Z points
    worst = math.inf
    for k in range(1, len(pts) - 1):
        if not (in_z[k - 1] and in_z[k] and in_z[k + 1]):
            continue
        d1 = (theta[k + 1] - theta[k - 1]) / (2.0 * h)
        d2 = (theta[k + 1] - 2.0 * theta[k] + theta[k - 1]) / h**2
        bound = slack * 9.0 * (d1 * d1 + 1.0) / math.cos(theta[k])
        worst = min(worst, (bound - abs(d2)) / bound)
    rep.add("curvature-bound", 0.0 if worst is math.inf else worst, tol=1e-12)

    # polyline length within annuli [L, 2L]
    seg_mid = []
    seg_len = []
    for k in range(len(pts) - 1):
        if in_z[k] and in_z[k + 1]:
            seg_mid.append(0.5 * (pts[k].r + pts[k + 1].r))
            seg_len.append(abs(pts[k + 1].zeta - pts[k].zeta))
    seg_mid = np.array(seg_mid)
    seg_len = np.array(seg_len)
    worst = math.inf
    worst_r = None
    for L in table.radii()[:: max(1, len(pts) // 64)]:
        if 2.0 * L > pts[-1].r:
            break
        inside = (seg_mid >= L) & (seg_mid <= 2.0 * L)
        length = float(seg_len[inside].sum())
        margin = (300.0 * L - length) / (300.0 * L)
        if margin < worst:
            worst, worst_r = margin, float(L)
    rep.add(
        "annulus-length",
        0.0 if worst is math.inf else worst,
        {"r": worst_r},
        tol=1e-12,
    )

    # total variation of theta over log-windows of width log(1 + sqrt 2)
    window = math.log(1.0 + math.sqrt(2.0))
    dtheta = np.where(in_z[:-1] & in_z[1:], np.abs(np.diff(theta)), 0.0)
    worst = math.inf
    for k in range(len(pts) - 1):
        hi = u[k] + window
        j = np.searchsorted(u, hi, side="right") - 1
        var = float(dtheta[k:j].sum())
        worst = min(worst, (140.0 - var) / 140.0)
    rep.add("angle-variation", 0.0 if worst is math.inf else worst, tol=1e-12)

    # profile monotone: nondecreasing overall, strictly increasing inside Z
    dlam = np.diff(lam)
    scale = 1.0 + np.abs(lam[:-1])
    rep.add("profile-nondecreasing", float(np.min(dlam / scale)), tol=1e-11)
    z_pairs = in_z[:-1] & in_z[1:]
    if z_pairs.any():
        rep.add("profile-strict-on-Z", float(np.min(dlam[z_pairs])), tol=0.0)

    # angle continuity: where one cell has |dtheta/du| <= 1, the derivative
    # stays below 2 on the next cell within the local trust window
    worst = math.inf
    for k in range(len(pts) - 2):
        if not (in_z[k] and in_z[k + 1] and in_z[k + 2]):
            continue
        rate_here = abs(theta[k + 1] - theta[k]) / h
        window = math.cos(theta[k + 1]) / 90.0
        if rate_here <= 1.0 and h <= window:
            rate_next = abs(theta[k + 2] - theta[k + 1]) / h
            worst = min(worst, (2.0 * slack - rate_next) / (2.0 * slack))
    rep.add("angle-continuity", 0.0 if worst is math.inf else worst, tol=1e-12)

    # log-derivative bound on the spine
    worst = math.inf
    for k in range(len(pts)):
        if not in_z[k]:
            continue
        z = pts[k].zeta
        ratio = abs(eval_f_prime(spec, z) / eval_f(spec, z))
        bound = slack * math.pi / abs(z)
        worst = min(worst, (bound - ratio) / bound)
    if worst is not math.inf:
        rep.add("spine-log-derivative", worst, tol=1e-12)

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
        worst = math.inf
        logc = abs(math.log(spec.c))
        for k in range(len(pts)):
            if lam[k] <= 0.0:
                continue
            r = pts[k].r
            bound = slack * (logc + math.sqrt(2.0 * math.pi) * (1.0 + r) / math.sqrt(r))
            worst = min(worst, (bound - abs(math.log(lam[k]))) / bound)
        rep.add("log-profile-envelope", 0.0 if worst is math.inf else worst, tol=1e-12)

    return rep

