"""Acceptance suite: the contract-level criteria at their stated tolerances.

Each test prints one [PASS]/[FAIL] line; run with ``pytest -s`` to see them.
"""

import math
import time

import numpy as np
import pytest

from levycm import LevyAtomic, PhiRep, PhiTable, StableSum, eval_f, shift_spec
from levycm.fluctuation import (
    CmCheckConfig,
    cm_cbf_check,
    kappa_circ,
    kappa_product_family,
    kappa_ratio_xi_function,
    kappa_tau_ratio_family,
    kappa_xi_function,
    pr_laplace,
    sigma_stieltjes_function,
    sup_tail,
)
from levycm.montecarlo import JointQuery, LaplaceQuery, mc_estimates, simulate_sup_samples
from levycm.numerics import QuadratureConfig, integrate_adaptive, make_rng
from levycm.spine import build_spine_table, spine_invariant_report
from levycm.verify import default_spine_range
from levycm.wiener_hopf import factorization_check, wh_ratio

from conftest import LETTERS, half_plane_samples, showcase

BM = LevyAtomic(a=0.5)
CP_UNIT = LevyAtomic(a=0.0, b=0.5, c=0.0, atoms=((1.0, math.pi),))
_hyper_atoms = ((2.0, 3.0), (-1.5, 2.0))
_hyper_comp = sum(
    math.copysign(1.0, s) * w / (abs(s) * (1.0 + abs(s))) for s, w in _hyper_atoms
) / math.pi
HYPER_CP_PURE = LevyAtomic(a=0.0, b=_hyper_comp, c=0.0, atoms=_hyper_atoms)


def _report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {label} {detail}")
    assert ok, f"criterion {num} failed: {detail}"


class TestAcceptance:
    def test_01_bm_drift_factor_ratios(self):
        """Quadratic factorization of xi^2/2 - i b xi + 1 by all methods."""
        t0 = time.monotonic()
        worst = {"bd": 0.0, "spine": 0.0, "phi": 0.0}
        for b in (0.0, 1.0, -1.0):
            spec = LevyAtomic(a=0.5, b=b, c=1.0)
            r_plus = math.sqrt(b * b + 2.0) - b
            want = (1.0 + r_plus) / (2.0 + r_plus)
            for method in ("bd", "spine", "phi"):
                got = wh_ratio(spec, method, "plus", 1.0, 2.0)
                worst[method] = max(worst[method], abs(got - want) / want)
        elapsed = time.monotonic() - t0
        ok = (
            worst["bd"] < 1e-6
            and worst["spine"] < 1e-6
            and worst["phi"] < 1e-4
            and elapsed < 5.0
        )
        _report(
            1,
            "drifted-diffusion factor ratios",
            ok,
            f"(bd {worst['bd']:.1e}, spine {worst['spine']:.1e}, "
            f"phi {worst['phi']:.1e}, {elapsed:.2f}s)",
        )

    def test_02_stable_positivity_exponents(self, fig_b):
        """Pure-power factors: the asymmetric case and symmetric powers."""
        want = 2.0 ** (math.atan(2.0) / math.pi)
        err_b = {
            m: abs(wh_ratio(fig_b, m, "plus", 2.0, 1.0) - want) / want
            for m in ("bd", "spine", "phi")
        }
        sym_specs = {
            0.5: StableSum(
                ((1 / math.sqrt(2), 0.0, 0.5, "minus-i"), (1 / math.sqrt(2), 0.0, 0.5, "plus-i"))
            ),
            1.2: PhiRep(1.0, PhiTable((-1.0, 1.0), (0.6 * math.pi,), "piecewise-constant")),
            2.0: LevyAtomic(a=1.0),
        }
        worst_sym = 0.0
        for alpha, spec in sym_specs.items():
            target = 2.0 ** (alpha / 2.0)
            for method in ("bd", "spine"):
                got = wh_ratio(spec, method, "plus", 2.0, 1.0)
                worst_sym = max(worst_sym, abs(got - target) / target)
        ok = (
            err_b["bd"] < 1e-5
            and err_b["spine"] < 1e-5
            and err_b["phi"] < 1e-4
            and worst_sym < 1e-6
        )
        _report(
            2,
            "stable positivity exponents",
            ok,
            f"(asym bd {err_b['bd']:.1e} spine {err_b['spine']:.1e} "
            f"phi {err_b['phi']:.1e}; symmetric {worst_sym:.1e})",
        )

    def test_03_spine_closed_form(self, fig_a, fig_g):
        """Closed-form spine of the drifted diffusion; arc count of gallery g."""
        s = build_spine_table(fig_a, 0.1, 10.0, 200).samples
        upper = s.in_Z & (s.r >= 1.0 + 1e-6)
        lower = ~upper & (s.r <= 1.0 - 1e-9)
        dev_im = np.max(np.abs(s.zeta[upper].imag - 1.0), initial=0.0)
        dev_lam = max(
            np.max(np.abs(s.lam[upper] - 0.5 * s.r[upper] ** 2), initial=0.0),
            np.max(np.abs(s.lam[lower] - (s.r[lower] - 0.5 * s.r[lower] ** 2)), initial=0.0),
        )
        lo, hi = default_spine_range(fig_g)
        arcs = len(build_spine_table(fig_g, lo, hi, 400).z_intervals)
        ok = dev_im < 1e-8 and dev_lam < 1e-8 and arcs == 3
        _report(
            3,
            "spine closed form and arc count",
            ok,
            f"(im dev {dev_im:.1e}, profile dev {dev_lam:.1e}, arcs {arcs})",
        )

    def test_04_geometric_invariants(self):
        """Curvature, annulus-length and angle-variation bounds, all eight."""
        t0 = time.monotonic()
        failures = []
        for letter in LETTERS:
            spec = showcase(letter)
            lo, hi = default_spine_range(spec)
            table = build_spine_table(spec, lo, hi, 400)
            rep = spine_invariant_report(table, spec)
            if not rep.passed:
                failures.append((letter, rep.failures()))
        elapsed = time.monotonic() - t0
        ok = not failures and elapsed < 60.0
        _report(4, "geometric invariant suite", ok, f"({elapsed:.1f}s, failures={failures})")

    def test_05_factorization_identity(self):
        """f = f+(-i xi) f-(i xi) sampled over the right half-plane."""
        rng = make_rng(20260809)
        worst = {}
        ok = True
        for letter in LETTERS:
            spec = showcase(letter)
            tol = 1e-4 if letter in "abef" else 1e-3
            samples = half_plane_samples(rng, 20, 0.1, 5.0)
            rep = factorization_check(spec, samples, tol=tol)
            worst[letter] = max(c.witness["rel_err"] for c in rep.checks)
            ok = ok and rep.passed
        detail = " ".join(f"{k}:{v:.1e}" for k, v in worst.items())
        _report(5, "factorization identity", ok, f"({detail})")

    def test_06_fluctuation_identities(self, fig_a, fig_b, fig_e):
        """Supremum transforms, tail inversion, space-time factorization."""
        e1 = abs(pr_laplace(BM, 0.5, 0.0, 1.0) - 0.5)
        e2 = abs(pr_laplace(BM, 0.5, 1.5, 0.0) - 0.5)
        tail_err = max(
            abs(sup_tail(BM, 0.5, x) - math.exp(-x))
            for x in np.linspace(0.1, 5.0, 8)
        )
        rng = make_rng(6)
        ident = 0.0
        for spec in (fig_a, fig_b, fig_e):
            from levycm.wiener_hopf import factor_pair

            for _ in range(10):
                tau = math.exp(rng.uniform(math.log(0.1), math.log(5.0)))
                xi = math.exp(rng.uniform(math.log(0.2), math.log(5.0)))
                plus, minus = factor_pair(shift_spec(spec, tau))
                lhs = tau + eval_f(spec, complex(xi))
                rhs = plus.eval(-1j * xi) * minus.eval(1j * xi)
                ident = max(ident, abs(lhs - rhs) / abs(lhs))
        ok = e1 < 1e-6 and e2 < 1e-6 and tail_err < 1e-3 and ident < 1e-3
        _report(
            6,
            "fluctuation identities",
            ok,
            f"(pr {max(e1, e2):.1e}, tail {tail_err:.1e}, identity {ident:.1e})",
        )

    def test_07_compound_poisson_factor(self):
        """kappa-circle of a unit-activity compound Poisson spec."""
        lam = 1.0

        def integrand(t, tau):
            return (np.exp(-t) - np.exp(-tau * t)) / t * np.exp(-lam * t)

        worst = 0.0
        for tau in (0.5, 1.0, 2.0, 10.0):
            got = kappa_circ(CP_UNIT, tau)
            want = (tau + 1.0) / 2.0
            direct, _ = integrate_adaptive(
                lambda t: integrand(t, tau),
                (0.0, math.inf),
                QuadratureConfig(rel_tol=1e-12, abs_tol=1e-15, singular_points=(0.0,)),
            )
            worst = max(worst, abs(got - want), abs(got - math.exp(direct.real)))
        ok = worst < 1e-6
        _report(7, "compound-Poisson temporal factor", ok, f"(worst {worst:.1e})")

    def test_08_bernstein_property_suite(self):
        """CBF sampling of the space-time exponents in both variables."""
        radii = np.geomspace(0.1, 10.0, 6)
        angles = np.array([0.3, 0.9, 1.5, 2.1, 2.7])
        samples = tuple((radii[:, None] * np.exp(1j * angles[None, :])).ravel())
        assert len(samples) == 30
        worst = math.inf
        ok = True
        for letter in ("a", "b", "e"):
            spec = showcase(letter)
            families = []
            # the exponents themselves, temporal direction (normalized at a
            # large spatial anchor) and spatial direction
            for side in ("plus", "minus"):
                for xi in (0.0, 1.0, 5.0):
                    families.append(("cbf_arg", kappa_tau_ratio_family(spec, xi, 1e5, side)))
                for tau in (0.0, 1.0, 5.0):
                    families.append(("cbf_arg", kappa_xi_function(spec, tau, side)))
                # ordered ratios in the opposite variable
                families.append(("cbf_arg", kappa_tau_ratio_family(spec, 0.5, 2.0, side)))
                families.append(("cbf_arg", kappa_ratio_xi_function(spec, 0.5, 2.0, side)))
            # the kappa-circle-included product, temporal direction
            families.append(("cbf_arg", kappa_product_family(spec, 1.0, 2.0)))
            for mode, fam in families:
                rep = cm_cbf_check(fam, CmCheckConfig(mode, samples, tol=1e-9))
                ok = ok and rep.passed
                worst = min(worst, rep.worst_margin)
        _report(8, "complete Bernstein property suite", ok, f"(worst margin {worst:.2e})")

    def test_09_complete_monotonicity_suite(self):
        """Alternating differences of the tail; Stieltjes cone in sigma."""
        ok = True
        worst = math.inf
        for spec, sigma in ((BM, 0.5), (HYPER_CP_PURE, 0.7)):
            grid = tuple(np.arange(0.5, 5.01, 0.45))
            rep = cm_cbf_check(
                lambda x, s=spec, g=sigma: sup_tail(s, g, float(x)),
                CmCheckConfig("cm_differences", grid, order=8, tol=1e-9),
            )
            ok = ok and rep.passed
            worst = min(worst, rep.worst_margin)
            h = sigma_stieltjes_function(spec, 1.0)
            radii = np.geomspace(0.2, 5.0, 6)
            angles = np.array([0.4, 1.0, 1.6, 2.2, 2.8])
            sigmas = tuple((radii[:, None] * np.exp(1j * angles[None, :])).ravel())
            rep = cm_cbf_check(h, CmCheckConfig("stieltjes_arg", sigmas, tol=1e-9))
            ok = ok and rep.passed
            worst = min(worst, rep.worst_margin)
        _report(9, "complete monotonicity suite", ok, f"(worst margin {worst:.2e})")

    def test_10_monte_carlo_cross_validation(self):
        """Exact-path sampling against the analytic transforms, three specs."""
        t0 = time.monotonic()
        cases = (
            ("diffusion+drift", LevyAtomic(a=0.5, b=0.5), 0.5, 101),
            ("hyperexp-cp+drift", LevyAtomic(a=0.0, b=0.8, c=0.0, atoms=_hyper_atoms), 0.7, 102),
            ("cp+gaussian", LevyAtomic(a=0.3, b=-0.2, c=0.0, atoms=((1.0, 2.0), (-2.0, 4.0))), 0.6, 103),
        )
        worst_z = 0.0
        ok = True
        for label, spec, sigma, seed in cases:
            samples = simulate_sup_samples(spec, sigma, 200000, seed=seed)
            for xi in (0.5, 1.0, 2.0):
                for tau in (0.0, 1.0):
                    est = mc_estimates(samples, [JointQuery(xi, tau)], seed=seed)[0]
                    ana = pr_laplace(spec, sigma, tau, xi)
                    z = abs(est.mean - ana) / est.std_error
                    worst_z = max(worst_z, z)
                    ok = ok and z <= 3.0
        elapsed = time.monotonic() - t0
        ok = ok and elapsed < 120.0
        _report(
            10,
            "Monte Carlo cross-validation",
            ok,
            f"(worst z {worst_z:.2f}, {elapsed:.1f}s)",
        )
