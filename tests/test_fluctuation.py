"""Space-time ladder ratios, the compound-Poisson factor, inversion, cones."""

import cmath
import math

import numpy as np
import pytest

from levycm import (
    DomainError,
    LevyAtomic,
    MethodUnsupportedError,
    QuadratureError,
    ValidationError,
    eval_f,
    f_limits,
    shift_spec,
)
from levycm import fluctuation, numerics, wiener_hopf
from levycm.fluctuation import (
    CmCheckConfig,
    cm_cbf_check,
    kappa_circ,
    kappa_product_family,
    kappa_ratio_tau,
    kappa_ratio_xi,
    kappa_ratio_xi_function,
    kappa_tau_ratio_family,
    kappa_xi_function,
    pr_laplace,
    sigma_stieltjes_function,
    sup_tail,
)
from levycm.numerics import _LRU, QuadratureConfig, _lockstep_root, integrate_adaptive, make_rng, work_counts
from levycm.rogers import _axis_limit
from levycm.wiener_hopf import FactorHandle, closed_form_factors, factor_pair, wh_ratio

from levycm.specio import SHOWCASE

from conftest import showcase, sup_laplace, upper_half_samples

BM = LevyAtomic(a=0.5)  # f = xi^2 / 2
BM_DRIFT = LevyAtomic(a=0.5, b=1.0)
# compound Poisson with unit total activity: one atom, compensating drift
CP_UNIT = LevyAtomic(a=0.0, b=0.5, c=0.0, atoms=((1.0, math.pi),))
# two-sided hyperexponential compound Poisson with drift
HYPER_CP = LevyAtomic(a=0.0, b=0.8, c=0.0, atoms=((2.0, 3.0), (-1.5, 2.0)))
# the jump_gauss spec of the benchmark's Monte Carlo workload
JUMP_GAUSS = LevyAtomic(a=0.3, b=-0.2, atoms=((1.0, 2.0), (-2.0, 4.0)))


class TestKappaRatioXi:
    def test_bm_quadratic(self):
        want = (1.0 + math.sqrt(2.0)) / (2.0 + math.sqrt(2.0))
        assert kappa_ratio_xi(BM, 1.0, 1.0, 2.0) == pytest.approx(want, rel=1e-9)

    def test_equal_arguments(self, fig_c):
        assert kappa_ratio_xi(fig_c, 0.7, 1.3, 1.3) == 1.0

    def test_zero_argument_by_continuity(self):
        # kappa(1, 0)/kappa(1, 1) for BM: factor xi + sqrt(2)
        want = math.sqrt(2.0) / (1.0 + math.sqrt(2.0))
        for method in ("bd", "spine", "phi"):
            got = kappa_ratio_xi(BM, 1.0, 0.0, 1.0, method=method)
            assert got == pytest.approx(want, rel=1e-6), method

    def test_degenerate_shift_falls_back(self):
        # pure drift with tau = 0 has no spine: the spine route raises, the contour route answers
        drift = LevyAtomic(b=1.0)
        with pytest.raises(MethodUnsupportedError):
            kappa_ratio_xi(drift, 0.0, 1.0, 2.0, method="spine")
        # f = -i xi: f+(xi) = c+ xi, ratio 1/2
        assert kappa_ratio_xi(drift, 0.0, 1.0, 2.0) == pytest.approx(0.5, rel=1e-8)

    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_xi_function_against_bd(self, side):
        spec = showcase("g")  # rational_three_arcs
        h = kappa_ratio_xi_function(spec, 0.5, 2.0, side)
        lo, hi = shift_spec(spec, 0.5), shift_spec(spec, 2.0)
        for x in (0.3, 0.7, 2.5, 6.0):
            got = complex(h(complex(x)) / h(1.0 + 0.0j)).real
            want = wh_ratio(lo, "bd", side, x, 1.0) / wh_ratio(hi, "bd", side, x, 1.0)
            assert got == pytest.approx(want, rel=1e-6), x

    def test_cbf_in_first_argument(self):
        h = kappa_ratio_xi_function(BM_DRIFT, 0.5, 2.0)
        rng = make_rng(31)
        rep = cm_cbf_check(h, CmCheckConfig("cbf_arg", tuple(upper_half_samples(rng, 20)), tol=1e-6))
        assert rep.passed, rep.failures()


class TestKappaRatioTau:
    def test_bm_at_origin(self):
        assert kappa_ratio_tau(BM, 0.0, 2.0, 1.0) == pytest.approx(
            math.sqrt(2.0), rel=1e-10
        )

    def test_bm_general(self):
        want = 3.0 / (1.0 + math.sqrt(2.0))
        assert kappa_ratio_tau(BM, 1.0, 2.0, 1.0) == pytest.approx(want, rel=1e-10)

    def test_drift_both_sides(self):
        for xi in (0.0, 0.01, 100.0):
            plus = kappa_ratio_tau(BM_DRIFT, xi, 2.0, 1.0, side="plus")
            minus = kappa_ratio_tau(BM_DRIFT, xi, 2.0, 1.0, side="minus")
            assert plus == pytest.approx(
                (xi + math.sqrt(5.0) - 1.0) / (xi + math.sqrt(3.0) - 1.0), rel=1e-10
            ), xi
            assert minus == pytest.approx(
                (xi + math.sqrt(5.0) + 1.0) / (xi + math.sqrt(3.0) + 1.0), rel=1e-10
            ), xi

    def test_equal_arguments(self):
        assert kappa_ratio_tau(BM, 1.0, 0.7, 0.7) == 1.0

    def test_bounded_rejected(self):
        with pytest.raises(MethodUnsupportedError):
            kappa_ratio_tau(CP_UNIT, 1.0, 2.0, 1.0)

    def test_cbf_in_tau(self):
        fam = kappa_tau_ratio_family(BM_DRIFT, 0.5, 2.0)
        rng = make_rng(32)
        taus = tuple(upper_half_samples(rng, 20, 0.1, 20.0))
        rep = cm_cbf_check(fam, CmCheckConfig("cbf_arg", taus, tol=1e-6))
        assert rep.passed, rep.failures()

    def test_family_near_the_cut(self):
        """At arg tau = 3.1, 1/(lambda + tau) amplifies the spine-solve noise near u_s; the value
        still meets the closed form (0.5 + rho)/(2 + rho), rho = sqrt(1 + 2 tau) - 1."""
        tau = cmath.exp(3.1j)
        rho = cmath.sqrt(1.0 + 2.0 * tau) - 1.0
        want = (0.5 + rho) / (2.0 + rho)
        assert abs(kappa_tau_ratio_family(BM_DRIFT, 0.5, 2.0)(tau) - want) <= 1e-10 * abs(want)


class TestKappaCirc:
    def test_non_cp_unity(self, fig_a, fig_b):
        for spec in (fig_a, fig_b, BM):
            assert kappa_circ(spec, 5.0) == 1.0

    def test_unit_activity(self):
        assert kappa_circ(CP_UNIT, 2.0) == pytest.approx(1.5)
        assert kappa_circ(CP_UNIT, 1.0) == pytest.approx(1.0)

    def test_frullani_quadrature_oracle(self):
        lam = f_limits(CP_UNIT).f_at_infinity

        def integrand(t):
            return (np.exp(-t) - np.exp(-2.0 * t)) / t * np.exp(-lam * t)

        val, _ = integrate_adaptive(
            integrand,
            (0.0, math.inf),
            QuadratureConfig(rel_tol=1e-12, abs_tol=1e-15, singular_points=(0.0,)),
        )
        assert kappa_circ(CP_UNIT, 2.0) == pytest.approx(math.exp(val.real), rel=1e-9)


class TestPrLaplace:
    def test_unit_at_origin(self, fig_b):
        assert pr_laplace(fig_b, 0.5, 0.0, 0.0) == 1.0

    def test_bm_supremum_transform(self):
        assert pr_laplace(BM, 0.5, 0.0, 1.0) == pytest.approx(0.5, rel=1e-9)

    def test_bm_argmax_transform(self):
        assert pr_laplace(BM, 0.5, 1.5, 0.0) == pytest.approx(0.5, rel=1e-9)

    def test_bm_joint(self):
        assert pr_laplace(BM, 0.5, 1.5, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-9)

    def test_query_validation(self):
        with pytest.raises(ValidationError):
            pr_laplace(BM, -1.0, 0.0, 1.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name,sigma", [("stable_mixed", 1e-100), ("stable_asym", 1e-300)])
    def test_overflowing_integrand_is_a_quadrature_error(self, name, sigma):
        """For a tiny sigma the terms of the pole at 0 decay only where f(x) << sigma, below the
        smallest normal x (f ~ x^0.2 and x^0.5 at 0): a QuadratureError naming where the grid
        ends, with no RuntimeWarning, never a value."""
        wiener_hopf._BD_KAPPA.clear()
        with pytest.raises(QuadratureError, match="bd terms are not negligible at x = 3.3"):
            pr_laplace(SHOWCASE[name], sigma, 0.0, 1.0)

    def test_cp_temporal_rejected(self):
        with pytest.raises(MethodUnsupportedError):
            pr_laplace(CP_UNIT, 0.5, 1.0, 1.0)

    @pytest.mark.parametrize("tau,xi", [(math.nan, 0.0), (0.0, math.nan)])
    def test_nan_argument_rejected(self, tau, xi):
        with pytest.raises(ValidationError):
            pr_laplace(BM_DRIFT, 0.5, tau, xi)

    @pytest.mark.parametrize("method", ["bd", "phi"])
    @pytest.mark.parametrize(
        "sigma,tau,xi,side,field",
        [(0.0, 1.0, 1.0, "plus", "sigma"), (-1.0, 1.0, 1.0, "plus", "sigma"),
         (math.nan, 1.0, 1.0, "plus", "sigma"), (math.inf, 1.0, 1.0, "plus", "sigma"),
         (0.5, -1.0, 1.0, "plus", "tau"), (0.5, math.nan, 1.0, "plus", "tau"), (0.5, math.inf, 1.0, "plus", "tau"),
         (0.5, 1.0, -1e-300, "plus", "xi"), (0.5, 1.0, math.nan, "plus", "xi"), (0.5, 1.0, math.inf, "plus", "xi"),
         (0.5, 1.0, 1.0, "up", "side"), (0.5, 0.0, 0.0, None, "side"),
         (-1.0, math.nan, -1.0, "up", "sigma"), (0.5, -1.0, math.nan, "up", "tau"), (0.5, 1.0, -1.0, "up", "xi")],
    )
    def test_rejected_argument_names_its_field(self, sigma, tau, xi, side, field, method):
        """A ValidationError naming the first argument rejected (sigma, tau, xi, side), with its
        message, before any integral and whatever the method."""
        message = {"sigma": "killing intensity must be finite and positive", "tau": "must be finite and >= 0",
                   "xi": "must be finite and >= 0", "side": "must be 'plus' or 'minus'"}[field]
        before = work_counts()
        with pytest.raises(ValidationError) as got:
            pr_laplace(BM_DRIFT, sigma, tau, xi, side, method)
        assert (got.value.field, got.value.message) == (field, message)
        after = work_counts()
        assert all(after[k] == before[k] for k in ("refine_panels.calls", "bd_sum.calls"))

    @pytest.mark.parametrize(
        "sigma,tau,xi", [(0.5, math.inf, 1.0), (0.5, 1.0, math.inf), (math.inf, 1.0, 1.0)]
    )
    def test_infinite_argument_rejected(self, monkeypatch, sigma, tau, xi):
        monkeypatch.setattr(wiener_hopf, "_bd_sum", None)  # no contour integral is summed
        with pytest.raises(ValidationError):
            pr_laplace(BM_DRIFT, sigma, tau, xi)

    @pytest.mark.parametrize("name", sorted(SHOWCASE))
    def test_one_integral_is_the_two_ratio_composition(self, name):
        """kappa(s,0)/kappa(t+s,x) = 1/([kappa(t+s,0)/kappa(s,0)] [kappa(t+s,x)/kappa(t+s,0)])."""
        spec = SHOWCASE[name]
        for side in ("plus", "minus"):
            for tau, xi in ((0.8, 1.3), (1.5, 0.4)):
                want = 1.0 / (kappa_ratio_tau(spec, 0.0, tau + 0.5, 0.5, side)
                              * kappa_ratio_xi(spec, tau + 0.5, xi, 0.0, side))
                got = pr_laplace(spec, 0.5, tau, xi, side)
                assert got == pytest.approx(want, rel=1e-11), (side, tau, xi)

    def test_bm_drift_closed_form(self):
        spec = SHOWCASE["bm_drift"]  # xi^2/2 - i xi
        for side in ("plus", "minus"):
            for sigma, tau, xi in ((0.5, 0.8, 1.3), (2.0, 0.3, 0.1), (0.7, 4.0, 6.0)):
                want = _bm_factor(1.0, sigma, side, 0.0) / _bm_factor(1.0, tau + sigma, side, xi)
                got = pr_laplace(spec, sigma, tau, xi, side)
                assert got == pytest.approx(want.real, rel=1e-12), (side, sigma, tau, xi)

    @pytest.mark.parametrize("method,tol", [("spine", 1e-12), ("phi", 1e-10)])
    def test_bm_drift_closed_form_by_route(self, method, tol):
        """The phi and spine routes: kappa_ratio_tau times the route's spatial ratio."""
        spec = SHOWCASE["bm_drift"]  # xi^2/2 - i xi
        for side in ("plus", "minus"):
            for sigma, tau, xi in ((0.5, 0.8, 1.3), (2.0, 0.3, 0.1), (0.5, 0.0, 1.3), (0.7, 4.0, 0.0)):
                want = (closed_form_factors("bm_drift", side, 0.0, b=1.0, sigma=sigma)
                        / closed_form_factors("bm_drift", side, xi, b=1.0, sigma=tau + sigma))
                got = pr_laplace(spec, sigma, tau, xi, side, method)
                assert got == pytest.approx(want, rel=tol), (side, sigma, tau, xi)

    def test_phi_route_needs_a_factor_at_zero(self):
        """stable_asym's phi has inner support, so its phi-route factor vanishes at 0."""
        with pytest.raises(DomainError):
            pr_laplace(SHOWCASE["stable_asym"], 0.5, 0.8, 1.3, method="phi")

    @pytest.mark.parametrize("method", ["bd", "phi", "spine"])
    @pytest.mark.parametrize("tau,xi", [(0.0, 0.0), (0.8, 0.0), (0.0, 1.3), (0.8, 1.3)])
    def test_takes_the_listed_route(self, monkeypatch, method, tau, xi):
        """pr_laplace calls exactly the ratios fluctuation._pr_route lists, in order."""
        called = []
        for name, step in (("_bd_kappa", "bd_kappa"), ("kappa_ratio_tau", "kappa_ratio_tau"),
                           ("kappa_ratio_xi", f"kappa_ratio_xi:{method}")):
            monkeypatch.setattr(fluctuation, name, lambda *a, step=step: called.append(step) or 2.0)
        pr_laplace(BM_DRIFT, 0.5, tau, xi, method=method)
        assert tuple(called) == fluctuation._pr_route(tau, xi, method)

    @pytest.mark.parametrize("tau,xi", [(0.0, 0.0), (1.0, 0.0), (0.0, 1.3), (0.8, 1.3)])
    def test_unknown_method_is_a_value_error(self, monkeypatch, tau, xi):
        """Checked before any ratio, whatever tau and xi are (the bd value came back at xi = 0)."""
        for name in ("_bd_kappa", "kappa_ratio_tau", "kappa_ratio_xi"):
            monkeypatch.setattr(fluctuation, name, None)
        with pytest.raises(ValueError, match="unknown method 'nonsense'"):
            pr_laplace(BM_DRIFT, 0.5, tau, xi, method="nonsense")
        with pytest.raises(ValueError, match="unknown method"):
            fluctuation._pr_route(tau, xi, "nonsense")

    def test_cold_query_is_one_integral(self, monkeypatch):
        wiener_hopf._BD_KAPPA.clear()
        calls = TestPrLaplaceReuse._count_integrals(monkeypatch)
        pr_laplace(SHOWCASE["tempered_stable"], 0.5, 0.8, 1.3)
        assert len(calls) == 1


@pytest.mark.parametrize(
    "call",
    [
        lambda: wh_ratio(BM_DRIFT, "bd", "plus", math.nan, 1.0),
        lambda: wh_ratio(BM_DRIFT, "bd", "plus", 1.0, math.nan),
        lambda: kappa_ratio_tau(BM_DRIFT, math.nan, 1.0, 2.0),
        lambda: kappa_ratio_tau(BM_DRIFT, 1.0, math.nan, 2.0),
        lambda: kappa_ratio_tau(BM_DRIFT, 1.0, 1.0, math.nan),
        lambda: kappa_ratio_xi(BM_DRIFT, math.nan, 1.0, 2.0),
        lambda: kappa_circ(BM_DRIFT, math.nan),
        lambda: kappa_circ(CP_UNIT, math.nan),
        lambda: kappa_circ(BM_DRIFT, math.inf),
        lambda: kappa_circ(CP_UNIT, math.inf),
        lambda: kappa_ratio_tau(BM_DRIFT, math.inf, 1.0, 2.0),
        lambda: kappa_ratio_tau(BM_DRIFT, 1.0, math.inf, 2.0),
        lambda: kappa_ratio_tau(BM_DRIFT, 1.0, 1.0, math.inf),
        lambda: kappa_ratio_xi(BM_DRIFT, math.inf, 1.0, 2.0),
        lambda: kappa_ratio_xi(BM_DRIFT, 1.0, math.inf, 2.0),
    ],
    ids=["wh-xi1", "wh-xi2", "tau-xi", "tau-tau1", "tau-tau2", "xi-tau", "circ", "circ-cp",
         "circ-inf", "circ-cp-inf", "tau-xi-inf", "tau-tau1-inf", "tau-tau2-inf", "xi-tau-inf",
         "xi-xi1-inf"],
)
def test_nan_argument_is_a_domain_error(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: kappa_ratio_tau(BM_DRIFT, 0.5, 1.2, 0.2, side="up"),
        lambda: kappa_tau_ratio_family(BM_DRIFT, 0.5, 2.0, side="up"),
        lambda: sigma_stieltjes_function(BM_DRIFT, 0.5, side="up"),
    ],
    ids=["kappa-ratio-tau", "tau-ratio-family", "sigma-stieltjes"],
)
def test_unknown_side_is_a_value_error(monkeypatch, call):
    """The side is checked before any contour integral or spine engine is set up."""
    for name in ("_bd_kappa", "get_spine_engine"):
        monkeypatch.setattr(fluctuation, name, None)
    with pytest.raises(ValueError, match="side must be"):
        call()


# the six (xi, tau) joint queries of an exact-path Monte Carlo job
MC_QUERIES = tuple((xi, tau) for xi in (0.5, 1.0, 2.0) for tau in (0.0, 1.0))


class TestPrLaplaceReuse:
    """A bd pr_laplace is one contour integral per argument set, memoized with its terms."""

    @staticmethod
    def _count_integrals(monkeypatch):
        calls = []
        real = wiener_hopf._bd_sum  # every contour integral runs through _bd_kappa
        monkeypatch.setattr(wiener_hopf, "_bd_sum", lambda *a, **k: calls.append(1) or real(*a, **k))
        return calls

    def test_mc_job_work(self, monkeypatch):
        """Cold: one integral for each of the six queries."""
        wiener_hopf._BD_KAPPA.clear()
        calls = self._count_integrals(monkeypatch)
        cold = [pr_laplace(HYPER_CP, 0.7, tau, xi) for xi, tau in MC_QUERIES]
        assert len(calls) == 6
        calls.clear()
        again = [pr_laplace(HYPER_CP, 0.7, tau, xi) for xi, tau in MC_QUERIES]
        assert calls == []
        assert again == cold

    def test_values_after_clear_are_bitwise_equal(self):
        cached = [pr_laplace(HYPER_CP, 0.7, tau, xi) for xi, tau in MC_QUERIES]
        cached.append(kappa_ratio_tau(BM_DRIFT, 0.5, 2.0, 0.5, "minus"))
        wiener_hopf._BD_KAPPA.clear()
        fresh = [pr_laplace(HYPER_CP, 0.7, tau, xi) for xi, tau in MC_QUERIES]
        fresh.append(kappa_ratio_tau(BM_DRIFT, 0.5, 2.0, 0.5, "minus"))
        assert [v.hex() for v in fresh] == [v.hex() for v in cached]

    def test_memo_keys(self):
        wiener_hopf._BD_KAPPA.clear()
        pr_laplace(HYPER_CP, 0.7, 1.0, 0.5)
        kappa_ratio_tau(BM_DRIFT, 0.5, 2.0, 0.5, "minus")
        assert (HYPER_CP, (("plus", 0.7, 0.0, 1), ("plus", 1.0 + 0.7, 0.5, -1))) in wiener_hopf._BD_KAPPA
        assert (BM_DRIFT, (("minus", 2.0, 0.5, 1), ("minus", 0.5, 0.5, -1))) in wiener_hopf._BD_KAPPA
        assert len(wiener_hopf._BD_KAPPA) == 2

    # warm calls whose contour integral refined past its seed round under the adaptive quadrature
    REFINING = [("tempered_stable", 2.0, 0.78, 0.6), ("tempered_stable", 2.0, 1.25, 1.0),
                ("tempered_stable", 2.0, 2.49, 2.2), ("rational_three_arcs", 0.5, 1.0, 2.3),
                ("rational_three_arcs", 0.5, 1.0, 2.97), ("rational_three_arcs", 0.5, 1.0, 3.85)]

    @pytest.mark.parametrize("name,sigma,tau,xi", REFINING)
    def test_refining_warm_call_is_the_cold_one(self, name, sigma, tau, xi):
        """A warm call (only the memo of products cleared) is bitwise the cold call (the grid memo
        cleared too, so f and the sigma quotient's rows are computed afresh), with no f evaluation
        and its terms formed on one window, as many as the cold call's."""
        spec = SHOWCASE[name]

        def run(*memos):
            for memo in (wiener_hopf._BD_KAPPA, *memos):
                memo.clear()
            before = work_counts()
            value = pr_laplace(spec, sigma, tau, xi)
            n = {k: v - before[k] for k, v in work_counts().items()}
            return value.hex(), n["bd_sum.calls"], n["bd_sum.nodes"], n["eval_f.core_calls"]

        cold = run(wiener_hopf._BD_GRID)
        warm = run()
        assert warm[:3] == cold[:3] and cold[3] == 1 and warm[3] == 0

    def test_failed_ratio_not_cached(self):
        wiener_hopf._BD_KAPPA.clear()
        with pytest.raises(MethodUnsupportedError):
            kappa_ratio_tau(CP_UNIT, 0.0, 1.5, 0.5)
        with pytest.raises(MethodUnsupportedError):
            pr_laplace(CP_UNIT, 0.5, 1.0, 1.0)
        assert len(wiener_hopf._BD_KAPPA) == 0


class TestSupTail:
    def test_bm_exponential_law(self):
        for x in (0.1, 0.5, 1.0, 2.0, 5.0, 7.5, 10.0):
            assert sup_tail(BM, 0.5, x) == pytest.approx(math.exp(-x), abs=1e-10)

    def test_small_argument_approaches_one(self):
        assert sup_tail(BM, 0.5, 0.01) > 0.985

    def test_decay_bound(self):
        assert sup_tail(BM, 0.5, 20.0) <= 2.1e-9

    def test_monotone_for_jump_spec(self):
        vals = [sup_tail(HYPER_CP, 0.7, x) for x in (0.2, 0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_argument_validated(self):
        with pytest.raises(DomainError):
            sup_tail(BM, 0.5, 0.0)

    @pytest.mark.parametrize("x", [math.inf, math.nan])
    def test_non_finite_argument_rejected(self, x):
        with pytest.raises(DomainError):
            sup_tail(BM, 0.5, x)

    @pytest.mark.parametrize("sigma", [math.inf, math.nan, 0.0])
    def test_killing_rate_validated(self, sigma):
        with pytest.raises(ValidationError) as exc:
            sup_tail(BM, sigma, 1.0)
        assert exc.value.field == "sigma"

    def test_zero_density_keeps_the_atom_only(self, fig_a):
        """The density of bm_drift's measure is 0 at every node: one (t, c) pair is left."""
        ev = fluctuation._sup_evaluator(fig_a, 0.5)
        assert ev.t.size == ev.c.size == 1
        assert ev.t[0] == ev.atoms[0] and ev.c[0] == ev.masses[0]

    @staticmethod
    def _density_at_every_node(ev, t):
        """The density with the phi-route ratio evaluated at every node, times 0 where
        f(+0 - it) is real."""
        v = _axis_limit(ev.spec, -t)
        im = np.abs(v.imag)
        return ev.f_zero * ev._ratio(t) * im / (t * np.where(im > 0.0, np.abs(v) ** 2, 1.0))

    @pytest.mark.parametrize("sigma", [0.5, 2.0])
    @pytest.mark.parametrize("shift", [0.0, 0.5])
    @pytest.mark.parametrize("name", ["bm_drift", "rational_three_arcs", "tempered_stable"])
    def test_density_only_where_nonzero(self, monkeypatch, name, shift, sigma):
        """Skipping the ratio at the nodes where f(+0 - it) is real leaves every node and
        coefficient bitwise those of a density that evaluates it everywhere."""
        spec = shift_spec(SHOWCASE[name], shift)
        ev = fluctuation._SupTailEvaluator(spec, sigma)
        monkeypatch.setattr(fluctuation._SupTailEvaluator, "density", self._density_at_every_node)
        ref = fluctuation._SupTailEvaluator(spec, sigma)
        assert ev.t.size == ref.t.size > (1 if name == "tempered_stable" else 0)
        assert ev.t.tobytes() == ref.t.tobytes() and ev.c.tobytes() == ref.c.tobytes()

    @pytest.mark.parametrize("name", ["bm_drift", "rational_pole_pair"])
    def test_zero_density_takes_no_ratio_pass(self, monkeypatch, name):
        """A cold set-up on a spec whose measure is atoms only: the table's record of both
        factor sides (one pass for their constants), then f-(t) at the atom.  No factor handle
        is built, and the quadrature nodes, where f(+0 - it) is real, take no pass."""
        for cache in ("_PHI_CACHE", "_HANDLE_CACHE"):
            monkeypatch.setattr(wiener_hopf, cache, _LRU(4))
        before = work_counts()["phi_kernel.passes"]
        ev = fluctuation._SupTailEvaluator(SHOWCASE[name], 0.5)
        assert ev.atoms.size == 1 and ev.t.size == 1
        assert work_counts()["phi_kernel.passes"] - before == 2
        assert len(wiener_hopf._HANDLE_CACHE) == 0

    def test_unconverged_nodes_raise(self, monkeypatch):
        real = fluctuation.refine_panels
        monkeypatch.setattr(
            fluctuation, "refine_panels", lambda *a, **kw: real(*a, **{**kw, "max_splits": 1})
        )
        with pytest.raises(QuadratureError):
            fluctuation._SupTailEvaluator(showcase("c"), 0.5)

    def test_failed_setup_is_not_redone(self, fig_b, monkeypatch):
        """The phi-route f_sigma^-(0) is 0 on stable_asym: the second call raises from the cache."""
        with pytest.raises(DomainError) as first:
            sup_tail(fig_b, 0.61, 1.0)
        calls = []
        orig = FactorHandle.eval
        monkeypatch.setattr(FactorHandle, "eval", lambda h, xi: calls.append(xi) or orig(h, xi))
        with pytest.raises(DomainError) as second:
            sup_tail(fig_b, 0.61, 2.0)
        assert calls == []
        assert second.value is not first.value
        assert str(second.value) == str(first.value)


class _HandleEvaluator(fluctuation._SupTailEvaluator):
    """The set-up through a normalized factor handle: f-(t)/f-(0) as a quotient of handle values,
    and the atoms bracketed by a scan of f(+0 - is) at every positive breakpoint of the table."""

    def _ratio(self, t):
        handle = FactorHandle(self.spec, "minus")
        return handle.eval(t).real / complex(handle.eval(0.0 + 0.0j)).real

    def _zeros(self):
        s = np.asarray(wiener_hopf.get_phi_table(self.spec).breakpoints)
        s = s[s > 0.0]
        v = _axis_limit(self.spec, -s)
        real = v.imag == 0.0
        k = np.flatnonzero(real[:-1] & real[1:] & (v.real[:-1] > 0.0) & (v.real[1:] <= 0.0))

        def g(idx, t):
            return -_axis_limit(self.spec, -t).real

        return _lockstep_root(g, s[k], s[k + 1], -v.real[k], -v.real[k + 1], 1e-15 * s[k + 1])


class TestSupTailRecord:
    """The set-up reads E-(0) and E-(t) off the table's record of the factor kernels and brackets
    the atoms on the table's phi values."""

    @pytest.mark.parametrize("shift", [0.0, 0.5])
    @pytest.mark.parametrize("name", sorted(SHOWCASE))
    def test_matches_the_handle_set_up(self, name, shift):
        """Atoms and nodes bitwise, coefficients and masses within 1e-15 of the handle's set-up;
        the same set-ups raise, where the handle's f-(0) is 0."""
        spec = shift_spec(SHOWCASE[name], shift)
        for sigma in (0.5, 1.3, 2.0):
            handle = FactorHandle(shift_spec(spec, sigma), "minus")
            if not complex(handle.eval(0.0 + 0.0j)).real > 0.0:
                with pytest.raises(DomainError, match="f_sigma"):
                    fluctuation._SupTailEvaluator(spec, sigma)
                continue
            ev, ref = fluctuation._SupTailEvaluator(spec, sigma), _HandleEvaluator(spec, sigma)
            assert ev.atoms.tobytes() == ref.atoms.tobytes()
            assert ev.t.tobytes() == ref.t.tobytes()
            assert np.all(np.abs(ev.c - ref.c) <= 1e-15 * np.abs(ref.c))
            assert np.all(np.abs(ev.masses - ref.masses) <= 1e-15 * ref.masses)


class TestCorollaryA:
    """P(sup > x) is completely monotone: the measure behind it is nonnegative."""

    @pytest.mark.parametrize("sigma", [0.5, 2.0])
    @pytest.mark.parametrize("name", ["a", "c", "e", "f", "g", "h", "hyper_cp", "jump_gauss"])
    def test_measure_certificate(self, name, sigma):
        spec = {"hyper_cp": HYPER_CP, "jump_gauss": JUMP_GAUSS}.get(name) or showcase(name)
        ev = fluctuation._sup_evaluator(spec, sigma)
        assert np.all(ev.density(np.geomspace(1e-4, 1e4, 2001)) >= 0.0)
        assert np.all(ev.masses > 0.0)
        assert np.sum(ev.c) <= 1.0 + 1e-10
        tol = 2e-6 if name == "c" else 1e-10  # c: the phi ratio's own error
        for xi in (0.5, 2.0):
            assert sup_laplace(ev, xi) == pytest.approx(pr_laplace(spec, sigma, 0.0, xi), abs=tol)


class TestCmCbfCheck:
    def test_sqrt_is_cbf(self):
        rep = cm_cbf_check(
            lambda z: np.sqrt(z),
            CmCheckConfig("cbf_arg", (1 + 1j, 0.1 + 0.5j, -1 + 2j)),
        )
        assert rep.passed

    def test_square_fails_cbf(self):
        rep = cm_cbf_check(
            lambda z: z * z, CmCheckConfig("cbf_arg", (cmath.rect(1.0, math.pi / 3),))
        )
        assert rep.n_failures == 1

    def test_exponential_decay_is_cm(self):
        grid = tuple(np.arange(0.5, 8.01, 0.75))
        rep = cm_cbf_check(lambda x: math.exp(-x), CmCheckConfig("cm_differences", grid))
        assert rep.passed

    def test_gaussian_fails_cm(self):
        grid = tuple(np.arange(0.1, 3.0, 0.25))
        rep = cm_cbf_check(
            lambda x: math.exp(-((x - 1.5) ** 2)), CmCheckConfig("cm_differences", grid)
        )
        assert rep.n_failures >= 1

    def test_reciprocal_sqrt_is_stieltjes(self):
        rep = cm_cbf_check(
            lambda z: 1.0 / np.sqrt(z),
            CmCheckConfig("stieltjes_arg", (1 + 1j, -0.5 + 1j, 2 + 0.1j)),
        )
        assert rep.passed

    def test_config_validated(self):
        with pytest.raises(ValidationError):
            CmCheckConfig("nope", (1.0,))
        with pytest.raises(ValidationError):
            CmCheckConfig("cm_differences", (2.0, 1.0))


class TestSpaceTimeFactorization:
    @pytest.mark.parametrize("letter", ["a", "b", "e"])
    def test_identity_sampled(self, letter):
        spec = showcase(letter)
        rng = make_rng(ord(letter) + 100)
        for _ in range(10):
            tau = math.exp(rng.uniform(math.log(0.1), math.log(5.0)))
            xi = math.exp(rng.uniform(math.log(0.2), math.log(5.0)))
            shifted = shift_spec(spec, tau)
            plus, minus = factor_pair(shifted)
            lhs = tau + eval_f(spec, complex(xi))
            rhs = plus.eval(-1j * xi) * minus.eval(1j * xi)
            assert abs(lhs - rhs) / abs(lhs) < 1e-3


def _bm_factor(b, tau, side, x):
    """Factor of xi^2/2 - i b xi + tau at x, complex tau allowed, up to sqrt(1/2)."""
    root = cmath.sqrt(b * b + 2.0 * tau)
    return x + (root - b if side == "plus" else root + b)


class TestSpineFamiliesClosedForm:
    """The spine tau-families on Brownian motion against its quadratic factors."""

    TAUS = tuple(upper_half_samples(make_rng(44), 20)) + (0.3, 1.0, 4.0)

    @pytest.mark.parametrize("b", [0.0, 1.0])
    def test_ratio_family(self, b):
        spec = LevyAtomic(a=0.5, b=b)
        for x1, x2 in ((0.5, 2.0), (0.0, 1.0)):
            for side in ("plus", "minus"):
                fam = kappa_tau_ratio_family(spec, x1, x2, side)
                for tau in self.TAUS:
                    want = _bm_factor(b, tau, side, x1) / _bm_factor(b, tau, side, x2)
                    assert fam(tau) == pytest.approx(want, rel=1e-8), (x1, x2, side, tau)

    @pytest.mark.parametrize("b", [0.0, 1.0])
    def test_product_family(self, b):
        fam = kappa_product_family(LevyAtomic(a=0.5, b=b), 0.5, 2.0)
        for tau in self.TAUS:
            want = 0.5 * _bm_factor(b, tau, "plus", 0.5) * _bm_factor(b, tau, "minus", 2.0)
            assert fam(tau) == pytest.approx(want, rel=1e-8), tau

    @pytest.mark.parametrize("b", [0.0, 1.0])
    def test_sigma_family(self, b):
        spec = LevyAtomic(a=0.5, b=b)
        for side in ("plus", "minus"):
            h = sigma_stieltjes_function(spec, 1.0, side)
            for sigma in self.TAUS:
                want = _bm_factor(b, sigma, side, 0.0) / (sigma * _bm_factor(b, sigma, side, 1.0))
                assert h(sigma) == pytest.approx(want, rel=1e-8), (side, sigma)


class TestSpineFamilyArguments:
    """The spine families reject xi that is negative or not finite, as their kappa does."""

    @pytest.mark.parametrize("xi", [-1.0, -2.0, math.inf, math.nan])
    def test_bad_xi_is_a_domain_error(self, xi):
        families = (
            (kappa_tau_ratio_family(BM_DRIFT, xi, 1.0), 0.5),
            (kappa_tau_ratio_family(BM_DRIFT, 0.5, xi, "minus"), 0.5),
            (kappa_product_family(BM_DRIFT, xi, 2.0), 0.5),
            (kappa_product_family(BM_DRIFT, 0.5, xi), 0.5),
            (sigma_stieltjes_function(BM_DRIFT, xi), 1.0),
        )
        for fam, tau in families:
            with pytest.raises(DomainError):
                fam(tau)


class TestConeFamilies:
    def test_kappa_in_xi_is_cbf(self):
        rng = make_rng(41)
        for tau in (0.0, 1.0):
            h = kappa_xi_function(BM_DRIFT, tau)
            rep = cm_cbf_check(
                h, CmCheckConfig("cbf_arg", tuple(upper_half_samples(rng, 15)), tol=1e-6)
            )
            assert rep.passed, (tau, rep.failures())

    def test_product_family_cbf_in_tau(self):
        fam = kappa_product_family(BM_DRIFT, 1.0, 2.0)
        rng = make_rng(42)
        taus = tuple(upper_half_samples(rng, 15, 0.2, 10.0))
        rep = cm_cbf_check(fam, CmCheckConfig("cbf_arg", taus, tol=1e-6))
        assert rep.passed, rep.failures()

    def test_sigma_family_is_stieltjes(self):
        h = sigma_stieltjes_function(BM, 1.0)
        rng = make_rng(43)
        sigmas = tuple(upper_half_samples(rng, 15, 0.2, 10.0))
        rep = cm_cbf_check(h, CmCheckConfig("stieltjes_arg", sigmas, tol=1e-6))
        assert rep.passed, rep.failures()

    def test_tail_is_completely_monotone(self):
        grid = tuple(np.arange(0.5, 5.01, 0.45))
        rep = cm_cbf_check(
            lambda x: sup_tail(BM, 0.5, float(x)),
            CmCheckConfig("cm_differences", grid, tol=1e-8),
        )
        assert rep.passed, rep.failures()
