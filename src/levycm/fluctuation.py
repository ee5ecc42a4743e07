"""Space-time Wiener-Hopf quantities for f_tau = tau + f.

Everything public here is a ratio or product that the factorization pins
down exactly; absolute ladder-exponent values are normalization conventions
and never computed.  The key identities:

* kappa^side(tau, xi1) / kappa^side(tau, xi2) = f_tau^side(xi1) / f_tau^side(xi2),
* kappa^+(tau1, xi) / kappa^+(tau2, xi)
    = exp((1/2 pi) int (xi + i z)^{-1} log((tau1 + f(z))/(tau2 + f(z))) dz),
  and every bd-route product of such factors is one such contour integral
  (``wiener_hopf._bd_kappa``),
* kappa-circle(tau) = (tau + L)/(1 + L) for compound Poisson specs with total
  activity L = jump rate + kill rate, and 1 otherwise,
* E exp(-xi sup - tau argmax) = kappa^+(sigma, 0) / kappa^+(tau + sigma, xi)
  over an independent exponential horizon with intensity sigma,
* the supremum tail is the Laplace transform of the representing measure of
  g(xi) = (1 - f_sigma^+(0)/f_sigma^+(xi)) / xi, whose density and atoms
  follow from f_sigma^+(-t + i0) = conj f_sigma(+0 - it) / f_sigma^-(t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureError, ValidationError
from .numerics import _LRU, gk15, gk15_nodes, refine_panels
from .report import VerifyReport
from .rogers import _axis_limit, f_limits, shift_spec
from .wiener_hopf import (
    MINUS,
    PLUS,
    _METHODS,
    _bd_kappa,
    _check_side,
    get_factor_handle,
    get_phi_table,
    get_spine_engine,
    wh_ratio,
)

__all__ = [
    "CmCheckConfig",
    "kappa_ratio_xi",
    "kappa_ratio_tau",
    "kappa_circ",
    "pr_laplace",
    "sup_tail",
    "cm_cbf_check",
    "kappa_tau_ratio_family",
    "kappa_product_family",
    "kappa_xi_function",
    "kappa_ratio_xi_function",
    "sigma_stieltjes_function",
]


@dataclass(frozen=True)
class CmCheckConfig:
    """Configuration of complete-monotonicity / CBF / Stieltjes sampling."""

    mode: str
    grid: tuple
    order: int = 8
    tol: float = 1e-9

    def __post_init__(self):
        if self.mode not in ("cm_differences", "cbf_arg", "stieltjes_arg"):
            raise ValidationError("mode", f"unknown mode {self.mode!r}")
        if self.order < 2:
            raise ValidationError("order", "must be >= 2")
        g = tuple(self.grid)
        if self.mode == "cm_differences":
            if any(b <= a for a, b in zip(g, g[1:])):
                raise ValidationError("grid", "must be increasing")
        object.__setattr__(self, "grid", g)


# ---------------------------------------------------------------------------
# kappa ratios
# ---------------------------------------------------------------------------


def kappa_ratio_xi(spec, tau, xi1, xi2, side=PLUS, method="bd"):
    """kappa^side(tau, xi1) / kappa^side(tau, xi2): :func:`wh_ratio` of tau + f.

    ``xi = 0`` is admitted when tau + f(0+) > 0 (continuity).
    """
    if not 0.0 <= tau < math.inf:
        raise DomainError("tau must be finite and >= 0")
    return wh_ratio(shift_spec(spec, float(tau)), method, side, xi1, xi2)


def kappa_ratio_tau(spec, xi, tau1, tau2, side=PLUS):
    """kappa^side(tau1, xi) / kappa^side(tau2, xi) for an unbounded exponent.

    The memoized ``_bd_kappa`` of (side, tau1, xi, +1), (side, tau2, xi, -1):
    one contour integral of log((tau1 + f)/(tau2 + f)) less its value A0 at
    f(0+), plus A0/2, the Poisson-kernel mass that survives xi -> 0.
    Arguments must be finite.
    """
    _check_side(side)
    tau1, tau2, xi = float(tau1), float(tau2), float(xi)
    if not (0.0 <= tau1 < math.inf and 0.0 <= tau2 < math.inf):
        raise DomainError("temporal arguments must be finite and >= 0")
    if not 0.0 <= xi < math.inf:
        raise DomainError("xi must be finite and >= 0")
    if tau1 == tau2:
        return 1.0
    return _bd_kappa(spec, ((side, tau1, xi, 1), (side, tau2, xi, -1)))


def kappa_circ(spec, tau):
    """Compound-Poisson correction factor; 1 unless the spec is bounded.

    For a compound Poisson exponent the total activity L (jump rate plus
    kill rate) equals f(inf-), and the Frullani integral of the defining
    formula evaluates to (tau + L)/(1 + L).  ``tau`` must be finite and >= 0.
    """
    if not 0.0 <= tau < math.inf:
        raise DomainError("tau must be finite and >= 0")
    lam = f_limits(spec).f_at_infinity
    return (tau + lam) / (1.0 + lam) if math.isfinite(lam) else 1.0


def pr_laplace(spec, sigma, tau, xi, side=PLUS, method="bd"):
    """E exp(-xi sup - tau argmax-time) over an Exp(sigma) horizon.

    This is kappa(sigma,0)/kappa(tau+sigma,xi) (1.0 at tau = xi = 0); the
    minus side gives the infimum transform.  The bd route is one memoized
    contour integral, ``_bd_kappa`` of (side, sigma, 0, +1), (side,
    tau+sigma, xi, -1).  The phi and spine routes multiply
    :func:`kappa_ratio_tau` (tau > 0) by their spatial ratio (xi > 0).
    The steps taken are those :func:`_pr_route` lists.  A sigma that is not
    finite and > 0, a tau or xi that is not finite and >= 0, or an unknown
    side raises :class:`ValidationError` naming the first of them.
    """
    sigma, tau, xi = float(sigma), float(tau), float(xi)
    if not 0.0 < sigma < math.inf:
        raise ValidationError("sigma", "killing intensity must be finite and positive")
    if not 0.0 <= tau < math.inf:
        raise ValidationError("tau", "must be finite and >= 0")
    if not 0.0 <= xi < math.inf:
        raise ValidationError("xi", "must be finite and >= 0")
    if side not in (PLUS, MINUS):
        raise ValidationError("side", "must be 'plus' or 'minus'")
    if method == "bd":
        if not (tau > 0.0 or xi > 0.0):
            return 1.0
        return _bd_kappa(spec, ((side, sigma, 0.0, 1), (side, tau + sigma, xi, -1)))
    value = 1.0
    for step in _pr_route(tau, xi, method):
        if step == "kappa_ratio_tau":
            value /= kappa_ratio_tau(spec, 0.0, tau + sigma, sigma, side)
        else:
            value /= kappa_ratio_xi(spec, tau + sigma, xi, 0.0, side, method)
    return value


def _pr_route(tau, xi, method="bd"):
    """The ratios :func:`pr_laplace` computes, in order, for tau, xi >= 0.

    None at tau = xi = 0; ``bd_kappa`` (one contour integral) on the bd
    route; else ``kappa_ratio_tau`` if tau > 0 and ``kappa_ratio_xi:<method>``
    if xi > 0.  A method other than bd, phi or spine is a ``ValueError``,
    whatever tau and xi are.
    """
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method == "bd":
        return ("bd_kappa",) if tau > 0.0 or xi > 0.0 else ()
    return ("kappa_ratio_tau",) * (tau > 0.0) + (f"kappa_ratio_xi:{method}",) * (xi > 0.0)


# ---------------------------------------------------------------------------
# supremum tail from the Wiener-Hopf boundary identity
# ---------------------------------------------------------------------------

_SUP_CACHE = _LRU(64)  # (spec, sigma, None) -> evaluator or message, 0.02 MB each (README)


class _SupTailEvaluator:
    """Representing measure of g(xi) = (1 - f+(0)/f+(xi))/xi, f = f_sigma.

    By f+(-t + i0) = conj f(+0 - it) / f-(t) it has the density
    m(t) = f(0+) [f-(t)/f-(0)] |im f(+0 - it)| / (t |f(+0 - it)|^2) >= 0
    and an atom f(0+) [f-(t0)/f-(0)] / (t0 re(i f'(+0 - it0))) at each zero
    t0 > 0 of f(-it), a jump of the phi table.  Nodes ``t`` and coefficients
    ``c`` (w m / pi, then ``atoms`` and ``masses``; only c != 0) give
    P(M > x) = sum c exp(-x t).  The ratio f-(t)/f-(0) = exp(E-(t) - E-(0))
    is read off the phi table's record of the factor kernels, whatever the
    factor's normalization; :class:`DomainError` where E-(0) = -inf (the
    phi-route f-(0) vanishes).
    """

    def __init__(self, spec, sigma):
        self.spec = shift_spec(spec, float(sigma))
        self.table = get_phi_table(self.spec)
        self.minus = self.table._factors.side(1)
        self.e_minus_0 = float(self.minus.e_zeros[0, 0])
        if not self.e_minus_0 > -math.inf:
            raise DomainError("f_sigma^-(0) must be positive")
        self.f_zero = f_limits(self.spec).f_at_zero
        self.atoms, self.masses = self._zeros(), np.zeros(0)
        if self.atoms.size:  # no atom needs no boundary slope and no ratio pass
            slope = (1j * _axis_limit(self.spec, -self.atoms, prime=True)).real
            self.masses = self.f_zero * self._ratio(self.atoms) / (self.atoms * slope)
        t, c = self._build_nodes()
        t, c = np.concatenate([t, self.atoms]), np.concatenate([c, self.masses])
        self.t, self.c = t[c != 0.0], c[c != 0.0]

    def _ratio(self, t):
        """f-(t)/f-(0) at an array of t > 0, in one kernel pass."""
        return np.exp(self.minus.exponent(t).real - self.e_minus_0)

    def _zeros(self):
        """Zeros t0 > 0 of f(-it): midpoints of the table's jumps of phi from 0 to pi at s > 0."""
        s, p = np.asarray(self.table.breakpoints), np.asarray(self.table.values)
        return 0.5 * (s[:-1] + s[1:])[(s[:-1] > 0.0) & (p[:-1] == 0.0) & (p[1:] == math.pi)]

    def density(self, t):
        """Density m(t) >= 0 of the measure at an array of t > 0; 0 where f(+0 - it) is real.

        The phi-route ratio is evaluated only where im f(+0 - it) != 0 (none of the nodes of a
        finite-rank factor, such as a rational or atomic spec's); each point is summed on its
        own, so those values are bitwise the ones of a pass over every node.
        """
        v = _axis_limit(self.spec, -t)
        m = np.zeros(t.shape)
        on = v.imag != 0.0
        if on.any():
            t, v = t[on], v[on]
            m[on] = self.f_zero * self._ratio(t) * np.abs(v.imag) / (t * np.abs(v) ** 2)
        return m

    def _build_nodes(self):
        """Gauss-Kronrod nodes t and coefficients w m(t)/pi; :class:`QuadratureError` past 400 splits."""
        edges = np.concatenate([[0.0], np.geomspace(1e-5, 1e5, 81)])
        res = refine_panels(gk15(self.density), edges[:-1], edges[1:], 3e-7, max_splits=400)
        if not res.converged:
            raise QuadratureError(complex(res.value), res.err)
        t, w = gk15_nodes(res.lo, res.hi)
        return t.ravel(), (w * res.rows).ravel() / math.pi

    def tail(self, x):
        if not 0.0 < x < math.inf:
            raise DomainError("sup_tail needs finite x > 0")
        return min(max(float(np.dot(self.c, np.exp(-x * self.t))), 0.0), 1.0)


def _sup_setup(spec, sigma):
    try:
        return _SupTailEvaluator(spec, sigma)
    except DomainError as exc:
        return str(exc)


def _sup_evaluator(spec, sigma):
    """The evaluator of (spec, sigma) via ``_SUP_CACHE``; a failed set-up is kept as its message."""
    hit = _SUP_CACHE.get((spec, float(sigma), None), _sup_setup, spec, sigma)
    if isinstance(hit, str):
        raise DomainError(hit)
    return hit


def sup_tail(spec, sigma, x):
    """P(sup over an Exp(sigma) horizon > x) = sum over the measure of g of exp(-x t).

    The measure's density and atoms are exact boundary values of f_sigma
    and phi-route ratios f_sigma^-(t)/f_sigma^-(0) (:class:`_SupTailEvaluator`);
    the tail is a sum of nonnegative terms, clamped into [0, 1].
    """
    if not 0.0 < sigma < math.inf:
        raise ValidationError("sigma", "killing intensity must be finite and positive")
    return _sup_evaluator(spec, sigma).tail(x)


# ---------------------------------------------------------------------------
# complete monotonicity / CBF / Stieltjes checkers
# ---------------------------------------------------------------------------


def cm_cbf_check(h, cfg: CmCheckConfig) -> VerifyReport:
    """Sampled membership checks for the three classical function cones.

    ``cm_differences``: alternating signs of forward differences up to
    ``cfg.order`` on a uniform grid.  ``cbf_arg``: 0 <= Arg h(xi) <= Arg xi
    at upper-half-plane samples.  ``stieltjes_arg``: the mirrored wedge
    0 >= Arg h(xi) >= -Arg xi.
    """
    rep = VerifyReport(f"cm-cbf:{cfg.mode}")
    if cfg.mode == "cm_differences":
        grid = np.asarray(cfg.grid, dtype=float)
        steps = np.diff(grid)
        if np.max(np.abs(steps - steps[0])) > 1e-9 * steps[0]:
            raise ValidationError("grid", "cm_differences needs a uniform grid")
        vals = np.array([float(np.real(h(x))) for x in grid])
        scale = max(1.0, float(np.max(np.abs(vals))))
        d = vals.copy()
        for k in range(1, cfg.order + 1):
            d = np.diff(d)
            if len(d) == 0:
                break
            signed = ((-1.0) ** k) * d / scale
            worst = float(np.min(signed))
            idx = int(np.argmin(signed))
            rep.add(
                f"difference-order-{k}",
                worst,
                {"x": float(grid[idx]), "order": k},
                tol=cfg.tol,
            )
        return rep

    for k, xi in enumerate(cfg.grid):
        xi = complex(xi)
        if xi.imag <= 0.0:
            raise ValidationError("grid", "arg checks need upper-half-plane samples")
        val = complex(h(xi))
        arg_h = math.atan2(val.imag, val.real)
        arg_xi = math.atan2(xi.imag, xi.real)
        if cfg.mode == "cbf_arg":
            margin = min(arg_h, arg_xi - arg_h)
        else:
            margin = min(-arg_h, arg_h + arg_xi)
        rep.add(
            f"{cfg.mode}[{k}]",
            margin,
            {"xi": str(xi), "arg_h": arg_h, "arg_xi": arg_xi},
            tol=cfg.tol,
        )
    return rep


# ---------------------------------------------------------------------------
# parametric families for the property suites
# ---------------------------------------------------------------------------


def kappa_tau_ratio_family(spec, xi1, xi2, side=PLUS):
    """tau -> kappa^side(tau, xi1)/kappa^side(tau, xi2), tau off (-inf, 0].

    Uses the spine Stieltjes representation, which is analytic in tau; with
    xi1 <= xi2 the result is a complete Bernstein function of tau.
    """
    _check_side(side)
    engine = get_spine_engine(spec)
    return lambda tau: engine.kappa(((side, tau, xi1, 1), (side, tau, xi2, -1)))


def kappa_product_family(spec, xi1, xi2):
    """tau -> kappa-circle(tau) kappa^+(tau, xi1) kappa^-(tau, xi2)."""
    R = math.sqrt(max(float(xi1), 1e-6) * max(float(xi2), 1e-6))  # the spine split radius
    engine, f0 = get_spine_engine(spec), f_limits(spec).f_at_zero
    return lambda tau: engine.kappa(((PLUS, tau, xi1, 1), (MINUS, tau, xi2, 1)), R) / (1.0 + f0)


def kappa_xi_function(spec, tau, side=PLUS):
    """xi -> kappa^side(tau, xi) up to a positive constant (CBF in xi)."""
    handle = get_factor_handle(shift_spec(spec, float(tau)), side)
    return handle.eval


def kappa_ratio_xi_function(spec, tau1, tau2, side=PLUS):
    """xi -> kappa^side(tau1, xi)/kappa^side(tau2, xi) up to a constant.

    Evaluated as the quotient of the two shifted factor handles, whose
    tables are cached, so complex xi off (-inf, 0] are admitted.
    """
    num = get_factor_handle(shift_spec(spec, float(tau1)), side)
    den = get_factor_handle(shift_spec(spec, float(tau2)), side)
    return lambda xi: num.eval(xi) / den.eval(xi)


def sigma_stieltjes_function(spec, xi, side=PLUS):
    """sigma -> kappa(sigma,0)/(sigma kappa(sigma,xi)); a Stieltjes function."""
    _check_side(side)
    engine = get_spine_engine(spec)
    return lambda sigma: engine.kappa(((side, sigma, 0.0, 1), (side, sigma, xi, -1))) / sigma
