"""Verification suites: invariant bundles with machine-readable reports.

Each suite function takes a validated spec and returns a
:class:`~levycm.report.VerifyReport`; the CLI maps suite names onto these
and exits nonzero when any check fails.
"""

from __future__ import annotations

import cmath
import inspect
import math

import numpy as np

from .errors import DomainError, MethodUnsupportedError, ValidationError
from .fluctuation import (
    CmCheckConfig,
    cm_cbf_check,
    kappa_circ,
    kappa_tau_ratio_family,
    pr_laplace,
)
from .montecarlo import JointQuery, LaplaceQuery, mc_estimates, simulate_sup_samples
from .numerics import QuadratureConfig, integrate_adaptive, make_rng
from .report import VerifyReport
from .rogers import (
    LevyAtomic,
    axis_feature_points,
    check_function_bounds,
    eval_f,
    f_limits,
    is_compound_poisson,
    is_degenerate,
    levy_density,
    shift_spec,
    validate_spec,
)
from .spine import build_spine_table, solve_spine, spine_invariant_report
from .wiener_hopf import factor_pair, factorization_check, wh_ratio

__all__ = [
    "suite_core",
    "suite_spine",
    "suite_wh",
    "suite_fluct",
    "suite_mc",
    "run_suite",
    "SUITES",
    "default_spine_range",
]


_SEED = 20260809  # the sample stream of every suite
_SPINE_N = 256  # spine table samples of suite_spine
_MC_SIGMA, _MC_N = 0.7, 50000  # killing rate and path count of suite_mc
_MC_QUERIES = (LaplaceQuery(0.5), LaplaceQuery(1.0), LaplaceQuery(2.0), JointQuery(1.0, 1.0))
_LK_POINTS = 10  # real points of the Levy-Khintchine check


def _half_plane_samples(rng, n, r_lo=0.05, r_hi=20.0):
    r = np.exp(rng.uniform(math.log(r_lo), math.log(r_hi), n))
    ang = rng.uniform(-0.5 * math.pi + 0.05, 0.5 * math.pi - 0.05, n)
    return r * np.exp(1j * ang)


def default_spine_range(spec):
    """Radius window covering the spec's axis features with margin."""
    feats = [abs(s) for s in axis_feature_points(spec)]
    lo = 0.02 * min(feats + [1.0])
    hi = 50.0 * max(feats + [1.0])
    return max(lo, 1e-4), min(hi, 1e4)


def suite_core(spec, tol=1e-10):
    """Conjugation symmetry, analytic bounds, structural consistency."""
    rep = VerifyReport("core")
    rng = make_rng(_SEED)
    xi = _half_plane_samples(rng, 100)
    f_right = eval_f(spec, xi)
    f_left = eval_f(spec, -np.conj(xi))
    rel = np.abs(f_left - np.conj(f_right)) / (1.0 + np.abs(f_right))
    rep.add("conjugation-symmetry", float(tol + 1e-12 - rel.max()), tol=0.0)

    rep.extend(check_function_bounds(spec, _half_plane_samples(rng, 40)))

    lim = f_limits(spec)
    if math.isfinite(lim.f_at_zero):
        # 1e-100: a stable term still differs from its limit by w xi^alpha
        small = eval_f(spec, 1e-100 + 0.0j)
        err = abs(small - lim.f_at_zero) / (1.0 + abs(lim.f_at_zero))
        rep.add("limit-zero", 1e-6 - err, {"err": err}, tol=0.0)
    if math.isfinite(lim.f_at_infinity):
        big = eval_f(spec, 1e9 + 0.0j)
        err = abs(big - lim.f_at_infinity) / (1.0 + abs(lim.f_at_infinity))
        rep.add("limit-infinity", 1e-6 - err, {"err": err}, tol=0.0)
    else:
        big = eval_f(spec, 1e8 + 0.0j)
        rep.add("limit-infinity-flag", abs(big) - abs(eval_f(spec, 1.0 + 0.0j)), tol=0.0)

    if isinstance(spec, LevyAtomic) and spec.atoms:
        rep.extend(_levy_khintchine_consistency(spec))
    return rep


def _levy_khintchine_consistency(spec: LevyAtomic):
    """eval_f against direct quadrature of the jump-integral form."""
    rep = VerifyReport("levy-khintchine")

    def make_integrand(xi):
        def integrand(x):
            return (
                1.0
                - np.exp(1j * xi * x)
                + 1j * xi * (1.0 - np.exp(-np.abs(x))) * np.sign(x)
            ) * levy_density(spec, x)

        return integrand

    xs = np.linspace(0.3, 3.0, _LK_POINTS)
    cfg = QuadratureConfig(rel_tol=1e-9, abs_tol=1e-12, singular_points=(0.0,))
    for k, xi in enumerate(xs):
        jump_part, _ = integrate_adaptive(make_integrand(float(xi)), (-math.inf, math.inf), cfg)
        direct = spec.a * xi**2 - 1j * spec.b * xi + spec.c + jump_part
        ref = eval_f(spec, complex(xi))
        rel = abs(direct - ref) / (1.0 + abs(ref))
        rep.add(f"levy-khintchine[{k}]", 1e-6 - rel, {"xi": float(xi), "rel": rel}, tol=0.0)
    return rep


def suite_spine(spec):
    """Spine table, geometric invariants, the angular sign property."""
    rep = VerifyReport("spine")
    r_lo, r_hi = default_spine_range(spec)
    table = build_spine_table(spec, r_lo, r_hi, _SPINE_N)
    rep.extend(spine_invariant_report(table, spec))

    # 20 draws of (log r, alpha); Arg f has the sign of alpha - theta(r)
    a = 0.5 * math.pi - 1e-3
    u, alpha = make_rng(_SEED).uniform([math.log(r_lo), -a], [math.log(r_hi), a], size=(20, 2)).T
    r = np.exp(u)
    th = solve_spine(spec, r).theta
    arg_f = np.angle(eval_f(spec, r * np.exp(1j * alpha)))
    bad = (np.abs(arg_f) > 1e-9) & (np.abs(alpha - th) > 1e-9) & ((arg_f > 0.0) != (alpha > th))
    rep.add("angular-sign-rule", -float(np.count_nonzero(bad)), tol=0.0)

    lim = f_limits(spec)
    lam = table.lambdas()
    if math.isfinite(lim.f_at_zero) and lim.f_at_zero > 0.0:
        rel = abs(lam[0] - lim.f_at_zero) / lim.f_at_zero
        rep.add("profile-endpoint-zero", 1e-3 - rel, {"rel": rel}, tol=0.0)
    return rep


def suite_wh(spec, tol=1e-4):
    """Cross-method agreement, factorization, CBF sampling."""
    rep = VerifyReport("wiener-hopf")
    rng = make_rng(_SEED)
    degenerate = is_degenerate(spec)
    for k in range(6):
        x1 = math.exp(rng.uniform(math.log(0.2), math.log(5.0)))
        x2 = math.exp(rng.uniform(math.log(0.2), math.log(5.0)))
        side = "plus" if k % 2 == 0 else "minus"
        r_bd = wh_ratio(spec, "bd", side, x1, x2)
        r_phi = wh_ratio(spec, "phi", side, x1, x2)
        rep.add(
            f"agreement-bd-phi[{k}]",
            tol - abs(r_bd - r_phi) / abs(r_bd),
            {"x1": x1, "x2": x2, "side": side},
            tol=0.0,
        )
        if not degenerate:
            r_sp = wh_ratio(spec, "spine", side, x1, x2)
            rep.add(
                f"agreement-bd-spine[{k}]",
                tol - abs(r_bd - r_sp) / abs(r_bd),
                {"x1": x1, "x2": x2, "side": side},
                tol=0.0,
            )

    samples = _half_plane_samples(rng, 20, 0.1, 10.0)
    rep.extend(factorization_check(spec, samples, tol=max(tol, 1e-3)))

    plus, minus = factor_pair(spec)
    radii = np.exp(rng.uniform(math.log(0.05), math.log(50.0), 25))
    angles = rng.uniform(0.15, math.pi - 0.15, 25)
    upper = radii * np.exp(1j * angles)
    for handle, name in ((plus, "plus"), (minus, "minus")):
        worst = math.inf
        for z, val in zip(upper.tolist(), handle.eval(upper).tolist()):
            arg_h = cmath.phase(val)
            worst = min(worst, arg_h, cmath.phase(z) - arg_h)
        rep.add(f"cbf-sampling-{name}", worst, tol=1e-6)
    return rep


def suite_fluct(spec, tol=1e-3):
    """Space-time factorization sampling and property-family spot checks."""
    rep = VerifyReport("fluctuation")
    rng = make_rng(_SEED)
    for k in range(10):
        tau = math.exp(rng.uniform(math.log(0.1), math.log(5.0)))
        xi_r = math.exp(rng.uniform(math.log(0.2), math.log(5.0)))
        p, m = factor_pair(shift_spec(spec, tau))
        lhs = tau + eval_f(spec, complex(xi_r))
        rhs = p.eval(-1j * xi_r) * m.eval(1j * xi_r)
        rel = abs(lhs - rhs) / abs(lhs)
        rep.add(
            f"space-time-identity[{k}]", tol - rel, {"tau": tau, "xi": xi_r, "rel": rel}, tol=0.0
        )

    if is_compound_poisson(spec):
        lam = f_limits(spec).f_at_infinity
        for tau in (0.5, 2.0):
            direct = _kappa_circ_quadrature(lam, tau)
            rel = abs(kappa_circ(spec, tau) - direct) / direct
            rep.add(f"kappa-circ[{tau}]", 1e-6 - rel, {"tau": tau}, tol=0.0)
    else:
        rep.add("kappa-circ-unit", 1e-15 - abs(kappa_circ(spec, 3.0) - 1.0), tol=0.0)

    if not is_degenerate(spec):
        fam = kappa_tau_ratio_family(spec, 0.5, 2.0)
        taus = tuple(
            r * cmath.exp(1j * a)
            for r in (0.3, 1.0, 3.0)
            for a in (0.4, 1.2, 2.2)
        )
        sub = cm_cbf_check(fam, CmCheckConfig("cbf_arg", taus, tol=1e-6))
        rep.extend(sub)
    return rep


def _kappa_circ_quadrature(lam, tau):
    """Direct quadrature of the defining Frullani-type integral."""

    def integrand(t):
        return (np.exp(-t) - np.exp(-tau * t)) / t * np.exp(-lam * t)

    val, _ = integrate_adaptive(
        integrand,
        (0.0, math.inf),
        QuadratureConfig(rel_tol=1e-12, abs_tol=1e-15, singular_points=(0.0,)),
    )
    return math.exp(val.real)


def suite_mc(spec, tol=3.0):
    """Monte Carlo cross-validation against the analytic transforms."""
    rep = VerifyReport("monte-carlo")
    if not isinstance(spec, LevyAtomic):
        raise MethodUnsupportedError("mc suite needs an atomic-measure spec")
    samples = simulate_sup_samples(spec, _MC_SIGMA, _MC_N, _SEED)
    ests = mc_estimates(samples, _MC_QUERIES, seed=_SEED)
    for q, est in zip(_MC_QUERIES, ests):
        tau = q.tau if isinstance(q, JointQuery) else 0.0
        ana = pr_laplace(spec, _MC_SIGMA, tau, q.xi)
        z = abs(est.mean - ana) / est.std_error if est.std_error > 0 else 0.0
        rep.add(est.query, tol - z, {"mc": est.mean, "analytic": ana, "z": z}, tol=0.0)
    return rep


SUITES = {
    "core": suite_core,
    "spine": suite_spine,
    "wh": suite_wh,
    "fluct": suite_fluct,
    "mc": suite_mc,
}


def run_suite(name, spec, **kwargs):
    """The report of suite ``name`` on ``spec``; ``tol``, where the suite takes it, must be finite and >= 0."""
    if name not in SUITES:
        raise DomainError(f"unknown suite {name!r}; known: {', '.join(SUITES)}")
    unknown = sorted(set(kwargs) - set(inspect.signature(SUITES[name]).parameters))
    if unknown:
        raise ValidationError(unknown[0], f"suite {name!r} takes no option {unknown[0]!r}")
    if "tol" in kwargs and not 0.0 <= kwargs["tol"] < math.inf:
        raise ValidationError("tol", f"must be finite and >= 0, got {kwargs['tol']!r}")
    spec = validate_spec(spec)
    return SUITES[name](spec, **kwargs)
