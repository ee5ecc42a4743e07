"""Space-time Wiener-Hopf quantities for f_tau = tau + f.

Everything public here is a ratio or product that the factorization pins
down exactly; absolute ladder-exponent values are normalization conventions
and never computed.  The key identities:

* kappa^side(tau, xi1) / kappa^side(tau, xi2) = f_tau^side(xi1) / f_tau^side(xi2),
* kappa^+(tau1, xi) / kappa^+(tau2, xi)
    = exp((1/2 pi) int (xi + i z)^{-1} log((tau1 + f(z))/(tau2 + f(z))) dz),
* kappa-circle(tau) = (tau + L)/(1 + L) for compound Poisson specs with total
  activity L = jump rate + kill rate, and 1 otherwise,
* E exp(-xi sup - tau argmax) = kappa^+(sigma, 0) / kappa^+(tau + sigma, xi)
  over an independent exponential horizon with intensity sigma,
* the supremum tail is recovered by Stieltjes inversion of
  g(xi) = (1 - f_sigma^+(0)/f_sigma^+(xi)) / xi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    InversionInstabilityError,
    MethodUnsupportedError,
    QuadratureError,
    ValidationError,
)
from .numerics import _LRU, QuadratureConfig, gk15, gk15_nodes, integrate_adaptive, principal_log
from .numerics import refine_panels, richardson_zero
from .report import VerifyReport
from .rogers import (
    eval_f,
    f_limits,
    shift_spec,
)
from .wiener_hopf import (
    MINUS,
    PLUS,
    _bd_ratio,
    get_factor_handle,
    get_spine_engine,
    wh_ratio,
)

__all__ = [
    "SpaceTimeQuery",
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
class SpaceTimeQuery:
    """Arguments of a space-time ladder-exponent query."""

    sigma: float
    tau: float
    xi: float
    side: str = PLUS

    def __post_init__(self):
        if not self.sigma > 0.0:
            raise ValidationError("sigma", "killing intensity must be positive")
        if self.tau < 0.0:
            raise ValidationError("tau", "must be >= 0")
        if self.xi < 0.0:
            raise ValidationError("xi", "must be >= 0")
        if self.side not in (PLUS, MINUS):
            raise ValidationError("side", "must be 'plus' or 'minus'")


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
    """kappa^side(tau, xi1) / kappa^side(tau, xi2) via the shifted factors.

    ``xi = 0`` is admitted when tau + f(0+) > 0 (continuity).  A spine
    request on a spec whose shift is degenerate falls back to the contour
    method transparently.
    """
    if tau < 0.0:
        raise DomainError("tau must be >= 0")
    xi1 = float(xi1)
    xi2 = float(xi2)
    if xi1 < 0.0 or xi2 < 0.0:
        raise DomainError("spatial arguments must be >= 0")
    if xi1 == xi2:
        return 1.0
    shifted = shift_spec(spec, float(tau))
    if min(xi1, xi2) > 0.0:
        try:
            return wh_ratio(shifted, method, side, xi1, xi2)
        except MethodUnsupportedError:
            if method == "spine":
                return wh_ratio(shifted, "bd", side, xi1, xi2)
            raise
    # one argument at zero
    if not f_limits(shifted).f_at_zero > 0.0:
        raise DomainError("ratio against xi = 0 needs tau + f(0+) > 0")
    if method == "phi":
        handle = get_factor_handle(shifted, side)
        return float((handle.eval(complex(xi1)) / handle.eval(complex(xi2))).real)
    if method == "spine":
        try:
            return get_spine_engine(shifted).ratio(xi1, xi2, side)
        except MethodUnsupportedError:
            pass
    return _bd_ratio(shifted, side, xi1, xi2)


_TAU_RATIOS = _LRU(4096)  # (spec, xi, tau1, tau2, side) -> ratio, 0.2 kB each besides the spec


def kappa_ratio_tau(spec, xi, tau1, tau2, side=PLUS):
    """kappa^side(tau1, xi) / kappa^side(tau2, xi) for an unbounded exponent.

    Evaluates exp(A0/2 + (1/pi) int_0^inf (xi (A - A0) +- z B)/(xi^2 + z^2) dz)
    with A + iB the principal log of (tau1 + f(z))/(tau2 + f(z)); the A0
    term carries the Poisson-kernel mass that survives the xi -> 0 limit.
    Memoized on (spec, xi, tau1, tau2, side); a call that raises stores nothing.
    """
    if tau1 < 0.0 or tau2 < 0.0:
        raise DomainError("temporal arguments must be >= 0")
    xi = float(xi)
    if xi < 0.0:
        raise DomainError("xi must be >= 0")
    if tau1 == tau2:
        return 1.0
    return _TAU_RATIOS.get((spec, xi, tau1, tau2, side), _tau_ratio, spec, xi, tau1, tau2, side)


def _tau_ratio(spec, xi, tau1, tau2, side):
    lim = f_limits(spec)
    if math.isfinite(lim.f_at_infinity):
        raise MethodUnsupportedError(
            "temporal ratios need an unbounded exponent; compound Poisson "
            "specs route through kappa_circ and the product identity"
        )
    f0 = lim.f_at_zero
    if tau1 + f0 <= 0.0 or tau2 + f0 <= 0.0:
        raise DomainError("tau + f(0+) must be positive for both arguments")
    a0 = math.log((tau1 + f0) / (tau2 + f0))
    sgn = 1.0 if side == PLUS else -1.0

    def integrand(z):
        f = eval_f(spec, z + 0.0j)
        L = principal_log((tau1 + f) / (tau2 + f))
        return (xi * (L.real - a0) + sgn * z * L.imag) / (xi * xi + z * z)

    cfg = QuadratureConfig(rel_tol=1e-11, abs_tol=1e-14, max_subdivisions=4000,
                           singular_points=(0.0,))
    val, _ = integrate_adaptive(integrand, (0.0, math.inf), cfg)
    return math.exp(0.5 * a0 + val.real / math.pi)


def kappa_circ(spec, tau):
    """Compound-Poisson correction factor; 1 unless the spec is bounded.

    For a compound Poisson exponent the total activity L (jump rate plus
    kill rate) equals f(inf-), and the Frullani integral of the defining
    formula evaluates to (tau + L)/(1 + L).
    """
    if tau < 0.0:
        raise DomainError("tau must be >= 0")
    lam = f_limits(spec).f_at_infinity
    return (tau + lam) / (1.0 + lam) if math.isfinite(lam) else 1.0


def pr_laplace(spec, sigma, tau, xi, side=PLUS, method="bd"):
    """E exp(-xi sup - tau argmax-time) over an Exp(sigma) horizon.

    Computed as [kappa(sigma,0)/kappa(tau+sigma,0)] x
    [kappa(tau+sigma,0)/kappa(tau+sigma,xi)]; the minus side gives the
    matching infimum transform.  The first factor is skipped at tau = 0, the
    second at xi = 0; both are memoized (``_TAU_RATIOS``, and on the bd route
    ``wiener_hopf._BD_RATIOS``), so a repeated query integrates nothing.
    """
    q = SpaceTimeQuery(float(sigma), float(tau), float(xi), side)
    value = 1.0
    if q.tau > 0.0:
        value /= kappa_ratio_tau(spec, 0.0, q.tau + q.sigma, q.sigma, side)
    if q.xi > 0.0:
        value /= kappa_ratio_xi(spec, q.tau + q.sigma, q.xi, 0.0, side, method)
    return value


# ---------------------------------------------------------------------------
# supremum tail via Stieltjes inversion
# ---------------------------------------------------------------------------

_SUP_LADDER = (3e-3, 1e-3, 3e-4, 1e-4)
_SUP_CACHE = _LRU(64)  # (spec, sigma, eps_ladder) -> evaluator or message, 0.04 MB each


class _SupTailEvaluator:
    """Density of the Stieltjes measure of g(xi) = (1 - f+(0)/f+(xi))/xi.

    The extrapolated density oscillates mildly around spectral atoms (the
    ladder fit rings there); those lobes carry canceling signed mass, so
    they are integrated as-is rather than clamped, and only the final tail
    value is clamped into [0, 1].  A density is declared unstable when its
    negative part exceeds both the extrapolation-noise scale and a few
    percent of the local ladder magnitude.
    """

    def __init__(self, spec, sigma, eps_ladder=None):
        if not sigma > 0.0:
            raise DomainError("sigma must be positive")
        self.sigma = float(sigma)
        shifted = shift_spec(spec, self.sigma)
        self.handle = get_factor_handle(shifted, PLUS)
        self.f_plus_0 = complex(self.handle.eval(0.0 + 0.0j)).real
        if not self.f_plus_0 > 0.0:
            raise DomainError("f_sigma^+(0) must be positive")
        self.ladder = tuple(eps_ladder) if eps_ladder is not None else _SUP_LADDER
        self._nodes = None

    def g(self, xi):
        return (1.0 - self.f_plus_0 / self.handle.eval(xi)) / xi

    def density(self, t):
        """Extrapolated density m(t) of the representing measure (signed)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        etas = np.asarray(self.ladder)
        xi = -t[None, :] + 1j * etas[:, None] * (1.0 + t[None, :])
        vals = -np.imag(self.g(xi.ravel())).reshape(xi.shape)
        m = richardson_zero(etas, vals)
        allowed = 1e-6 * (1.0 + np.sum(np.abs(vals), axis=0)) + 0.1 * np.max(
            np.abs(vals), axis=0
        )
        if np.any(m < -allowed):
            k = int(np.argmin(m + allowed))
            raise InversionInstabilityError(
                f"extrapolated density {m[k]:.3e} at t={t[k]:.6g}"
            )
        return m

    def _build_nodes(self):
        """Adaptive Gauss-Kronrod node table for integrals against m(t).

        Raises :class:`QuadratureError` when 400 splits miss the goal.
        """
        edges = np.concatenate([[0.0], np.geomspace(1e-5, 1e5, 81)])
        res = refine_panels(gk15(self.density), edges[:-1], edges[1:], 3e-7, max_splits=400)
        if not res.converged:
            raise QuadratureError(complex(res.value), res.err)
        t, w = gk15_nodes(res.lo, res.hi)
        self._nodes = (t.ravel(), w.ravel(), res.rows.ravel())

    def tail(self, x):
        x = float(x)
        if not x > 0.0:
            raise DomainError("sup_tail needs x > 0")
        if self._nodes is None:
            self._build_nodes()
        t, w, m = self._nodes
        val = float(np.sum(w * np.exp(-x * t) * m)) / math.pi
        return min(max(val, 0.0), 1.0)


def _sup_setup(spec, sigma, eps_ladder):
    try:
        return _SupTailEvaluator(spec, sigma, eps_ladder)
    except DomainError as exc:
        return str(exc)


def _sup_evaluator(spec, sigma, eps_ladder=None):
    """The evaluator of (spec, sigma) via ``_SUP_CACHE``; a failed set-up is kept as its message."""
    hit = _SUP_CACHE.get((spec, float(sigma), eps_ladder), _sup_setup, spec, sigma, eps_ladder)
    if isinstance(hit, str):
        raise DomainError(hit)
    return hit


def sup_tail(spec, sigma, x, eps_ladder=None):
    """P(sup over an Exp(sigma) horizon > x) by Stieltjes inversion.

    The representing density m(t) = -lim im g(-t + i eps) is extrapolated
    along a four-point epsilon ladder proportional to (1 + t) and
    Laplace-transformed as-is by adaptive quadrature; only the final tail
    value is clamped into [0, 1].
    """
    return _sup_evaluator(spec, sigma, eps_ladder).tail(x)


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
    return get_spine_engine(spec).ratio_family(float(xi1), float(xi2), side)


def kappa_product_family(spec, xi1, xi2, R=None):
    """tau -> kappa-circle(tau) kappa^+(tau, xi1) kappa^-(tau, xi2)."""
    if R is None:
        R = math.sqrt(max(float(xi1), 1e-6) * max(float(xi2), 1e-6))
    prod = get_spine_engine(spec).product_family(float(xi1), float(xi2), float(R))
    f0 = f_limits(spec).f_at_zero
    return lambda tau: prod(tau) / (1.0 + f0)


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
    fam = get_spine_engine(spec).ratio_family(0.0, float(xi), side)
    return lambda sigma: fam(sigma) / sigma
