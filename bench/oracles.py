"""Reference values the benchmark checks answers against.

Everything here is independent of the routes being timed: closed forms for
the drifted Brownian motion, and 30-digit mpmath evaluation of each spec
family's defining formula.  For ``PhiRep`` tables the exponent integral is
summed cell by cell in closed form and the log-derivative integral by
30-digit quadrature.  The checks run after the timed phase.
"""

from __future__ import annotations

import math

import mpmath as mp

from levycm import LevyAtomic, PhiRep, RationalProduct, StableSum
from levycm.wiener_hopf import closed_form_factors

DIGITS = 30


# -- drifted Brownian motion f(xi) = xi^2/2 - i b xi + tau -------------------


def bm_phi(b, q):
    """Phi(q) = sqrt(b^2 + 2q) - b, the ascending ladder root of q + f."""
    return math.sqrt(b * b + 2.0 * q) - b


def bm_sup_tail(b, sigma, x):
    return math.exp(-bm_phi(b, sigma) * x)


def bm_pr_laplace(b, sigma, tau, xi):
    return bm_phi(b, sigma) / (bm_phi(b, sigma + tau) + xi)


def bm_ratio(b, tau, side, x1, x2):
    return closed_form_factors("bm_drift", side, x1, b=b, sigma=tau) / closed_form_factors(
        "bm_drift", side, x2, b=b, sigma=tau
    )


def bm_spine_lambda(b, tau, r):
    """Profile of xi^2/2 - i b xi + tau (b > 0).

    The spine is the line im(zeta) = b for r > b, where lambda = r^2/2 + tau,
    and the imaginary axis below, where lambda = f(i r) = b r - r^2/2 + tau.
    """
    return 0.5 * r * r + tau if r > b else b * r - 0.5 * r * r + tau


# -- 30-digit evaluation of the defining formulas ----------------------------


def _rot(orientation):
    return mp.mpc(0, -1) if orientation == "minus-i" else mp.mpc(0, 1)


def _closed_form(spec, xi):
    if isinstance(spec, LevyAtomic):
        val = spec.a * xi * xi - mp.mpc(0, 1) * spec.b * xi + spec.c
        for s, w in spec.atoms:
            sgn = 1 if s > 0 else -1
            val += (mp.mpf(w) / abs(s) / mp.pi) * (
                xi / (xi + mp.mpc(0, s)) + mp.mpc(0, 1) * xi * sgn / (1 + abs(s))
            )
        return val
    if isinstance(spec, StableSum):
        return mp.fsum(t.w * mp.power(_rot(t.orientation) * xi + t.m, t.alpha) for t in spec.terms)
    if isinstance(spec, RationalProduct):
        val = mp.mpf(spec.prefactor)
        for f in spec.factors:
            val *= mp.power(_rot(f.orientation) * xi + f.m, f.exponent)
        return val
    raise TypeError(f"no closed form for {type(spec).__name__}")


def _cells(table):
    """(a, b, alpha, beta) per cell: phi(s) = alpha + beta s on [a, b]."""
    bp = [mp.mpf(b) for b in table.breakpoints]
    vals = [mp.mpf(v) for v in table.values]
    linear = table.interpolation == "piecewise-linear"
    for k in range(len(bp) - 1):
        a, b = bp[k], bp[k + 1]
        beta = (vals[k + 1] - vals[k]) / (b - a) if linear else mp.mpf(0)
        yield a, b, (vals[k] - beta * a if linear else vals[k]), beta
    # constant extrapolation beyond the window
    yield -mp.inf, bp[0], vals[0], mp.mpf(0)
    yield bp[-1], mp.inf, vals[-1], mp.mpf(0)


def _phirep_exponent(spec: PhiRep, xi):
    """(1/pi) int (xi/(xi + i s) - 1/(1 + |s|)) phi(s)/|s| ds, re(xi) > 0, exactly.

    phi is linear on each cell, so each cell integrates in closed form: in
    t = +-s >= 0 the antiderivative is alpha (log(1 + t) - log(xi +- i t))
    - beta (i xi log(xi +- i t) +- log(1 + t)).  Unlike 30-digit quadrature, which missed by 2e-7 at
    xi = 0.05 + 2i on the 5-breakpoint table, this stays exact near the cut.
    """
    i = mp.mpc(0, 1)

    def side(t, alpha, beta, sgn):
        # antiderivative in t = sgn * s >= 0 of the kernel times alpha + beta s
        if t == mp.inf:
            return -sgn * alpha * i * mp.pi / 2
        if t == 0:
            return -(alpha + beta * i * xi) * mp.log(xi)
        lg = mp.log(xi + sgn * i * t)
        return alpha * (mp.log(1 + t) - lg) - beta * (i * xi * lg + sgn * mp.log(1 + t))

    total = mp.mpc(0)
    for a, b, alpha, beta in _cells(spec.phi):
        if b > 0:
            lo = max(a, mp.mpf(0))
            total += side(b, alpha, beta, 1) - side(lo, alpha, beta, 1)
        if a < 0:
            hi = max(-b, mp.mpf(0))
            total += side(-a, alpha, beta, -1) - side(hi, alpha, beta, -1)
    return total / mp.pi


def _phi_pieces(table):
    """(interval, phi) per cell, split at s = 0, phi an mpmath function of s."""
    pieces = []
    for a, b, alpha, beta in _cells(table):
        pts = [a, 0, b] if a < 0 < b else [a, b]
        pieces.append((pts, lambda s, alpha=alpha, beta=beta: alpha + beta * s))
    return pieces


def _phirep_log_prime(spec: PhiRep, xi):
    """(log f)'(xi) = (1/pi) int i sign(s) phi(s) / (xi + i s)^2 ds."""

    def kern(s):
        return mp.mpc(0, mp.sign(s)) / (xi + mp.mpc(0, s)) ** 2

    total = mp.fsum(mp.quad(lambda s, p=phi: kern(s) * p(s), pts) for pts, phi in _phi_pieces(spec.phi))
    return total / mp.pi


def _right(spec, xi, prime):
    """f or f' on re(xi) > 0 at DIGITS digits."""
    if isinstance(spec, PhiRep):
        f = spec.c * mp.exp(_phirep_exponent(spec, xi))
        return f * _phirep_log_prime(spec, xi) if prime else f
    if prime:
        return mp.diff(lambda z: _closed_form(spec, z), xi)
    return _closed_form(spec, xi)


def exponent(spec, xi, prime=False):
    """f(xi) (or f'(xi)) off the imaginary axis; the left half-plane by reflection.

    The library defines f on re(xi) < 0 by f(-conj xi) = conj f(xi), so the
    reference does the same; f' reflects as -conj f'(-conj xi).
    """
    xi = complex(xi)
    if xi.real == 0.0:
        raise ValueError("reference points must lie off the imaginary axis")
    with mp.workdps(DIGITS):
        if xi.real > 0.0:
            return complex(_right(spec, mp.mpc(xi), prime))
        val = complex(_right(spec, mp.mpc(-xi.conjugate()), prime)).conjugate()
        return -val if prime else val
