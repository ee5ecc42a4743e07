"""Factor ratios/products by three methods against closed-form oracles."""

import cmath
import math

import numpy as np
import pytest

from levycm import (
    DomainError,
    EstimationError,
    LevyAtomic,
    MethodUnsupportedError,
    PhiRep,
    PhiTable,
    QuadratureError,
    RationalFactor,
    RationalProduct,
    eval_f,
    shift_spec,
)
from levycm import fluctuation, rogers, wiener_hopf
from levycm.fluctuation import kappa_ratio_xi
from levycm.numerics import _LRU, make_rng
from levycm.rogers import axis_feature_points, compensator_drift
from levycm.specio import SHOWCASE
from levycm.spine import build_spine_table
from levycm.verify import default_spine_range
from levycm.wiener_hopf import (
    FactorHandle,
    closed_form_factors,
    factor_pair,
    factorization_check,
    get_factor_handle,
    get_phi_table,
    get_spine_engine,
    wh_product,
    wh_ratio,
)

from conftest import LETTERS, half_plane_samples, showcase, upper_half_samples

SYMMETRIC = LevyAtomic(a=1.0)  # f = xi^2, factors c xi on both sides
# BM with drift b and constant shift 1: quadratic factorization oracle
F_SIG = LevyAtomic(a=0.5, b=1.0, c=1.0)
R_PLUS = math.sqrt(3.0) - 1.0
R_MINUS = math.sqrt(3.0) + 1.0
# presets whose boundary angle is a step function with values in {0, pi}
STEP_ANGLE = (
    "bm_drift",
    "quadratic_over_pole",
    "rational_pole_pair",
    "rational_three_arcs",
    "rational_three_arcs_tight",
)
PW_CONST_PHIREP = PhiRep(
    1.5, PhiTable((-4.0, -1.0, 0.5, 2.0, 7.0), (0.3, 1.1, 0.0, 2.4), "piecewise-constant")
)


def _loop_phi(spec, s):
    """Reference: |Arg| of one scalar boundary value f(+0 - i s), retried beside a pole."""
    for t in (0.0, 1e-13 * abs(s)):
        try:
            with np.errstate(all="ignore"):
                v = complex(rogers._eval_core(spec, complex(t, -s)))
        except (OverflowError, ZeroDivisionError):
            continue
        if math.isfinite(v.real) and math.isfinite(v.imag):
            return abs(cmath.phase(v))
    raise EstimationError(f"boundary value not finite at s={s}")


def _recursive_phi_table(spec):
    """Reference: the phi table refined cell by cell, depth first."""
    out_s, out_phi = [], []
    budget = [40000]

    def refine(s_lo, s_hi, p_lo, p_hi, sink):
        if budget[0] <= 0 or (s_hi - s_lo) <= 1e-10 * min(abs(s_lo), abs(s_hi)):
            return
        s_mid = math.copysign(math.sqrt(s_lo * s_hi), s_lo)
        p_mid = _loop_phi(spec, s_mid)
        budget[0] -= 1
        w = (s_mid - s_lo) / (s_hi - s_lo)
        p_interp = (1.0 - w) * p_lo + w * p_hi
        width_u = math.log(s_hi / s_lo) if s_lo > 0 else math.log(s_lo / s_hi)
        miss = abs(p_mid - p_interp)
        if miss * min(abs(width_u), 1.0) > 2e-7 or miss > 0.25:
            refine(s_lo, s_mid, p_lo, p_mid, sink)
            sink.append((s_mid, p_mid))
            refine(s_mid, s_hi, p_mid, p_hi, sink)
        else:
            sink.append((s_mid, p_mid))

    features = axis_feature_points(spec)
    for sign in (-1.0, 1.0):
        pts = set((sign * np.geomspace(1e-6, 1e6, 513)).tolist())
        for fpt in features:
            if math.copysign(1.0, fpt) != sign or not 1e-6 < abs(fpt) < 1e6:
                continue
            for rel in (1e-3, 1e-6, 1e-9):
                pts.add(fpt * (1.0 + rel))
                pts.add(fpt * (1.0 - rel))
        grid = np.sort(np.asarray(sorted(pts)))
        phis = [_loop_phi(spec, float(s)) for s in grid]
        for k in range(len(grid) - 1):
            out_s.append(float(grid[k]))
            out_phi.append(phis[k])
            sink = []
            refine(float(grid[k]), float(grid[k + 1]), phis[k], phis[k + 1], sink)
            out_s.extend(s for s, _ in sink)
            out_phi.extend(p for _, p in sink)
        out_s.append(float(grid[-1]))
        out_phi.append(phis[-1])
    assert budget[0] > 0, "reference table truncated by its budget"
    order = np.argsort(out_s)
    s_arr = np.asarray(out_s)[order]
    p_arr = np.clip(np.asarray(out_phi)[order], 0.0, math.pi)
    keep = np.concatenate([[True], np.diff(s_arr) > 0])
    return s_arr[keep], p_arr[keep]


class TestPhiEval:
    def test_square_plus_factor_is_identity(self):
        # phi = pi on both sides: f+ = c+ xi with c+ = sqrt(c) = 1
        handle = FactorHandle(SYMMETRIC, "plus")
        assert complex(handle.eval(3.0 + 0.0j)).real == pytest.approx(
            3.0, rel=1e-8
        )

    def test_drift_minus_factor_constant(self):
        handle = FactorHandle(LevyAtomic(b=1.0), "minus")
        v5 = complex(handle.eval(5.0 + 0.0j)).real
        v1 = complex(handle.eval(1.0 + 0.0j)).real
        assert v5 / v1 == pytest.approx(1.0, abs=1e-9)

    def test_stable_power_ratio(self, fig_b):
        handle = FactorHandle(fig_b, "plus")
        got = complex(handle.eval(2.0 + 0.0j)).real / complex(handle.eval(1.0 + 0.0j)).real
        assert got == pytest.approx(2.0 ** (math.atan(2.0) / math.pi), rel=1e-6)

    def test_cut_rejected(self):
        handle = FactorHandle(SYMMETRIC, "plus")
        with pytest.raises(DomainError):
            handle.eval(-1.0 + 0.0j)


class TestPhiTable:
    @pytest.mark.parametrize(
        "spec",
        [*SHOWCASE.values(), shift_spec(SHOWCASE["rational_three_arcs"], 0.5), PW_CONST_PHIREP],
        ids=[*SHOWCASE, "rational_three_arcs+0.5", "phirep_pw_constant"],
    )
    def test_matches_recursive_builder(self, spec):
        """Level-by-level refinement lands on the depth-first builder's breakpoints."""
        want_s, want_phi = _recursive_phi_table(spec)
        table = wiener_hopf.build_phi_table(spec)
        assert np.array_equal(np.asarray(table.breakpoints), want_s)
        np.testing.assert_allclose(table.values, want_phi, rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize(
        "spec",
        [
            *(SHOWCASE[n] for n in STEP_ANGLE),
            LevyAtomic(a=0.0, b=0.8, c=0.0, atoms=((2.0, 3.0), (-1.5, 2.0))),
            LevyAtomic(a=0.3, b=-0.2, c=0.0, atoms=((1.0, 2.0), (-2.0, 4.0))),
        ],
        ids=[*STEP_ANGLE, "jump", "jump_gauss"],
    )
    def test_piecewise_constant_angles_match_bd(self, spec):
        """phi is a step function in {0, pi} here: the table route meets the bd route at 1e-10."""
        for side in ("plus", "minus"):
            for x1, x2 in ((0.3, 1.5), (2.0, 0.7), (5.0, 0.1)):
                want = wh_ratio(spec, "bd", side, x1, x2)
                assert wh_ratio(spec, "phi", side, x1, x2) == pytest.approx(want, rel=1e-10)

    def test_exhausted_budget_raises(self, fig_a, monkeypatch):
        monkeypatch.setattr(wiener_hopf, "_PHI_MAX_POINTS", 100)
        with pytest.raises(EstimationError):
            wiener_hopf.build_phi_table(fig_a)


class TestRatio:
    @pytest.mark.parametrize("method", ["bd", "spine", "phi"])
    def test_square(self, method):
        assert wh_ratio(SYMMETRIC, method, "plus", 2.0, 1.0) == pytest.approx(
            2.0, rel=1e-8
        )

    @pytest.mark.parametrize("method,tol", [("bd", 1e-9), ("spine", 1e-8), ("phi", 1e-6)])
    def test_shifted_bm_quadratic_oracle(self, method, tol):
        want = (1.0 + R_PLUS) / (2.0 + R_PLUS)
        got = wh_ratio(F_SIG, method, "plus", 1.0, 2.0)
        assert got == pytest.approx(want, rel=tol)

    @pytest.mark.parametrize("method,tol", [("bd", 1e-9), ("spine", 1e-8), ("phi", 1e-5)])
    def test_stable_positivity_exponent(self, fig_b, method, tol):
        want = 2.0 ** (math.atan(2.0) / math.pi)
        got = wh_ratio(fig_b, method, "plus", 2.0, 1.0)
        assert got == pytest.approx(want, rel=tol)

    def test_minus_side_oracle(self):
        want = (1.0 + R_MINUS) / (2.0 + R_MINUS)
        for method in ("bd", "spine"):
            assert wh_ratio(F_SIG, method, "minus", 1.0, 2.0) == pytest.approx(
                want, rel=1e-8
            )

    def test_arguments_validated(self):
        with pytest.raises(DomainError):
            wh_ratio(SYMMETRIC, "bd", "plus", -1.0, 2.0)
        with pytest.raises(ValueError):
            wh_ratio(SYMMETRIC, "nope", "plus", 1.0, 2.0)

    def test_spine_rejects_degenerate(self):
        with pytest.raises(MethodUnsupportedError):
            wh_ratio(LevyAtomic(b=1.0), "spine", "plus", 1.0, 2.0)


class TestProduct:
    @pytest.mark.parametrize("method", ["bd", "spine"])
    def test_square(self, method):
        assert wh_product(SYMMETRIC, method, 2.0, 3.0) == pytest.approx(6.0, rel=1e-8)

    @pytest.mark.parametrize("method", ["bd", "spine"])
    def test_quadratic_oracle(self, method):
        want = 0.5 * (1.0 + R_PLUS) * (1.0 + R_MINUS)
        assert wh_product(F_SIG, method, 1.0, 1.0) == pytest.approx(want, rel=1e-8)

    def test_split_radius_free(self):
        base = wh_product(F_SIG, "spine", 1.0, 2.0)
        for R in (0.0, 0.17, 3.0):
            assert wh_product(F_SIG, "spine", 1.0, 2.0, R=R) == pytest.approx(
                base, rel=1e-9
            )

    def test_zero_split_needs_positive_origin_value(self, fig_b):
        with pytest.raises(Exception):
            get_spine_engine(fig_b).product(1.0, 1.0, 0.0)

    def test_consistency_with_direct_value(self):
        # f(xi) = f+(-i xi) f-(i xi) at xi = i x links product and eval
        plus, minus = factor_pair(F_SIG)
        x = 1.3
        prod = wh_product(F_SIG, "bd", x, x)
        direct = complex(plus.eval(x + 0.0j) * minus.eval(x + 0.0j)).real
        assert prod == pytest.approx(direct, rel=1e-5)


class TestSpineRouteShiftOracle:
    """Spine route on shifted bm_drift (b = 1) across the tau range of a tau-scan."""

    @pytest.mark.parametrize("tau", [0.1, 1.0, 3.0])
    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_ratio(self, fig_a, side, tau):
        spec = shift_spec(fig_a, tau)
        for x1, x2 in ((0.3, 2.5), (4.0, 0.6)):
            want = closed_form_factors("bm_drift", side, x1, b=1.0, sigma=tau) / closed_form_factors(
                "bm_drift", side, x2, b=1.0, sigma=tau
            )
            assert wh_ratio(spec, "spine", side, x1, x2) == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize("tau", [0.1, 1.0, 3.0])
    def test_product(self, fig_a, tau):
        spec = shift_spec(fig_a, tau)
        for x1, x2 in ((0.3, 2.5), (1.2, 1.2)):
            want = closed_form_factors("bm_drift", "plus", x1, b=1.0, sigma=tau) * closed_form_factors(
                "bm_drift", "minus", x2, b=1.0, sigma=tau
            )
            assert wh_product(spec, "spine", x1, x2) == pytest.approx(want, rel=1e-8)


_CP_ATOMS = ((2.0, 3.0), (-1.5, 2.0))
# bounded exponents (finite f(inf)) beside the presets: far out on the spine f is flat to rounding
BOUNDED = {
    # hyperexponential compound Poisson, b = compensator drift
    "cp_hyper": LevyAtomic(b=compensator_drift(LevyAtomic(atoms=_CP_ATOMS)), atoms=_CP_ATOMS),
    # (-i xi)/(-i xi + 1) * (i xi)/(i xi + 2), f(inf) = 1
    "rational_bounded": RationalProduct(
        1.0,
        (
            RationalFactor("minus-i", 0.0, 1),
            RationalFactor("minus-i", 1.0, -1),
            RationalFactor("plus-i", 0.0, 1),
            RationalFactor("plus-i", 2.0, -1),
        ),
    ),
}


class TestSpineRouteBdOracle:
    """Spine ratios and products on every preset and two bounded specs against the bd route."""

    @pytest.mark.parametrize("letter", [*sorted(LETTERS), *BOUNDED])
    def test_ratio_and_product(self, letter):
        spec = BOUNDED[letter] if letter in BOUNDED else showcase(letter)
        engine = get_spine_engine(spec)
        for tau in (0.0, 0.5):
            shifted = shift_spec(spec, tau)
            for side in ("plus", "minus"):
                want = wh_ratio(shifted, "bd", side, 0.7, 2.3)
                got = engine.ratio(0.7, 2.3, side, tau)
                assert got == pytest.approx(want, rel=1e-10), (tau, side)
            want = wh_product(shifted, "bd", 0.7, 2.3)
            assert engine.product(0.7, 2.3, 1.1, tau) == pytest.approx(want, rel=1e-10), tau

    @pytest.mark.parametrize("side", ["plus", "minus"])
    @pytest.mark.parametrize("letter", ["b", "d"])
    def test_ratio_against_zero_at_small_tau(self, letter, side):
        """f(0+) = 0: at tau = 1e-3 the lower tail of the panels still counts."""
        spec = showcase(letter)
        got = get_spine_engine(spec).ratio(0.0, 1.0, side, 1e-3)
        want = kappa_ratio_xi(spec, 1e-3, 0.0, 1.0, side, method="bd")
        assert got == pytest.approx(want, rel=1e-8)

    def test_unconverged_raises(self, fig_a, monkeypatch):
        monkeypatch.setattr(wiener_hopf, "_SPINE_MAX_SPLITS", 0)
        with pytest.raises(QuadratureError):
            wiener_hopf.SpineStieltjes(fig_a).ratio(0.7, 2.3, "plus")


class TestSpineZEdges:
    """Z boundaries as panel edges of the spine integral."""

    @pytest.mark.parametrize(
        "letter,x1,x2,max_rounds",
        [
            ("g", 0.3, 1.5, 20),  # 56 rounds without Z edges
            ("e", 0.5, 4.0, 10),  # x2 on the Z boundary: 36 rounds when the two edges stay apart
        ],
    )
    def test_cold_ratio_rounds(self, letter, x1, x2, max_rounds, monkeypatch):
        spec = showcase(letter)
        rounds = []
        refine = wiener_hopf.refine_panels

        def counted(estimate, *args, **kwargs):
            def est(lo, hi):
                rounds.append(lo.size)
                return estimate(lo, hi)

            return refine(est, *args, **kwargs)

        monkeypatch.setattr(wiener_hopf, "refine_panels", counted)
        got = wiener_hopf.SpineStieltjes(spec).ratio(x1, x2, "plus", 0.2)
        assert len(rounds) <= max_rounds
        want = wh_ratio(shift_spec(spec, 0.2), "bd", "plus", x1, x2)
        assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("letter", sorted(LETTERS))
    def test_edges_match_table(self, letter):
        spec = showcase(letter)
        lo, hi = default_spine_range(spec)
        table = build_spine_table(spec, lo, hi, 256)
        r0, r1 = table.radii()[0], table.radii()[-1]
        want = np.array([r for iv in table.z_intervals for r in iv if r0 < r < r1])
        u = wiener_hopf.SpineStieltjes(spec)._z_edges(math.floor(math.log(lo)), math.ceil(math.log(hi)))
        got = np.exp(u)
        got = got[(got > r0) & (got < r1)]
        assert got.size == want.size
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


# x on a Z boundary: bm_drift at r = 1, quadratic_over_pole at 4, rational_pole_pair at 7
_ON_Z_BOUNDARY = {"a": 1.0, "e": 4.0, "f": 7.0}


class TestSpineRandomBdOracle:
    """Seeded spine-vs-bd draws over the tau and x ranges of the wh_cold benchmark."""

    @staticmethod
    def _draws(letter):
        rng = make_rng(100 + ord(letter))
        draws = []
        for _ in range(2):
            tau_lo, tau_hi = ((0.1, 0.3), (1.0, 3.0))[rng.integers(2)]
            tau = math.exp(rng.uniform(math.log(tau_lo), math.log(tau_hi)))
            side = ("plus", "minus")[rng.integers(2)]
            x1 = math.exp(rng.uniform(math.log(0.2), 0.0))
            x2 = math.exp(rng.uniform(0.0, math.log(5.0)))
            draws.append((tau, side, x1, x2))
        if letter in _ON_Z_BOUNDARY:
            tau, side, x1, x2 = draws[0]
            xb = _ON_Z_BOUNDARY[letter]
            draws += [(tau, side, xb, x2), (tau, "minus" if side == "plus" else "plus", x1, xb)]
        return draws

    @pytest.mark.parametrize("letter", sorted(LETTERS))
    def test_ratio_and_product(self, letter):
        spec = showcase(letter)
        engine = get_spine_engine(spec)
        for tau, side, x1, x2 in self._draws(letter):
            shifted = shift_spec(spec, tau)
            want = wh_ratio(shifted, "bd", side, x1, x2)
            assert engine.ratio(x1, x2, side, tau) == pytest.approx(want, rel=1e-10), (tau, side, x1, x2)
            want = wh_product(shifted, "bd", x1, x2)
            got = engine.product(x1, x2, math.sqrt(x1 * x2), tau)
            assert got == pytest.approx(want, rel=1e-10), (tau, x1, x2)


class TestFactorizationCheck:
    def test_bm_drift(self, fig_a):
        rng = make_rng(4)
        rep = factorization_check(fig_a, half_plane_samples(rng, 20, 0.1, 5.0), tol=1e-4)
        assert rep.passed, rep.failures()

    def test_square_algebraic_identity(self):
        # (1+i)^2 = (-i(1+i)) (i(1+i)) exactly; the table carries phi = pi
        plus, minus = factor_pair(SYMMETRIC)
        xi = 1.0 + 1.0j
        lhs = eval_f(SYMMETRIC, xi)
        rhs = plus.eval(-1j * xi) * minus.eval(1j * xi)
        assert abs(lhs - rhs) / abs(lhs) < 1e-12

    def test_tempered_stable(self, fig_c):
        rng = make_rng(4)
        rep = factorization_check(fig_c, half_plane_samples(rng, 20, 0.1, 5.0), tol=1e-3)
        assert rep.passed, rep.failures()

    def test_samples_validated(self, fig_a):
        with pytest.raises(DomainError):
            factorization_check(fig_a, [-1.0 + 0.0j])


class TestClosedForms:
    def test_bm_plus_factor(self):
        assert closed_form_factors("bm_drift", "plus", 2.0, b=0.0, sigma=0.0) == (
            pytest.approx(math.sqrt(0.5) * 2.0)
        )

    def test_bm_with_drift(self):
        got = closed_form_factors("bm_drift", "plus", 1.0, b=1.0, sigma=1.0)
        assert got == pytest.approx(math.sqrt(0.5) * (1.0 + R_PLUS))
        got = closed_form_factors("bm_drift", "minus", 1.0, b=1.0, sigma=1.0)
        assert got == pytest.approx(math.sqrt(0.5) * (1.0 + R_MINUS))

    def test_stable_power(self):
        r = closed_form_factors("stable", "plus", 4.0, c=1.0, alpha=1.2)
        r /= closed_form_factors("stable", "plus", 1.0, c=1.0, alpha=1.2)
        assert r == pytest.approx(4.0**0.6)

    def test_stable_positivity_parameter(self):
        # the asymmetric half-stable case in disguise
        c = cmath.rect(1.0, -math.atan(1.0 / 3.0))
        rho = 0.5 - cmath.phase(c) / (0.5 * math.pi)
        assert rho == pytest.approx(0.5 + 2.0 / math.pi * math.atan(1.0 / 3.0))
        assert rho == pytest.approx(0.704833, abs=1e-6)

    def test_inadmissible_rejected(self):
        with pytest.raises(DomainError):
            closed_form_factors("stable", "plus", 1.0, c=1j, alpha=1.8)


class TestCrossMethodInvariants:
    @pytest.mark.parametrize("letter", ["a", "b", "e"])
    def test_method_agreement(self, letter):
        spec = showcase(letter)
        rng = make_rng(ord(letter))
        for _ in range(10):
            x1 = math.exp(rng.uniform(math.log(0.3), math.log(4.0)))
            x2 = math.exp(rng.uniform(math.log(0.3), math.log(4.0)))
            side = "plus" if rng.random() < 0.5 else "minus"
            bd = wh_ratio(spec, "bd", side, x1, x2)
            assert abs(wh_ratio(spec, "spine", side, x1, x2) - bd) <= 1e-4 * abs(bd)
            assert abs(wh_ratio(spec, "phi", side, x1, x2) - bd) <= 1e-4 * abs(bd)

    def test_method_agreement_phirep(self):
        table = PhiTable((-2.0, 0.0, 3.0), (0.4 * math.pi, 0.7 * math.pi), "piecewise-constant")
        spec = PhiRep(1.3, table)
        for x1, x2 in ((2.0, 0.7), (5.0, 1.0)):
            bd = wh_ratio(spec, "bd", "plus", x1, x2)
            assert abs(wh_ratio(spec, "spine", "plus", x1, x2) - bd) <= 1e-4 * abs(bd)
            assert abs(wh_ratio(spec, "phi", "plus", x1, x2) - bd) <= 1e-4 * abs(bd)

    def test_cbf_sampling(self, fig_a):
        plus, minus = factor_pair(fig_a)
        rng = make_rng(55)
        for handle in (plus, minus):
            for z in upper_half_samples(rng, 50):
                val = complex(handle.eval(complex(z)))
                arg_h = cmath.phase(val)
                assert -1e-9 <= arg_h <= cmath.phase(complex(z)) + 1e-9

    def test_normalization_independence(self, fig_a):
        base_p, base_m = factor_pair(fig_a)
        alt_p, alt_m = factor_pair(fig_a, kappa=7.0)
        ratio0 = complex(base_p.eval(2.0 + 0j) / base_p.eval(1.0 + 0j)).real
        ratio1 = complex(alt_p.eval(2.0 + 0j) / alt_p.eval(1.0 + 0j)).real
        assert ratio0 == pytest.approx(ratio1, rel=1e-12)
        prod0 = complex(base_p.eval(2.0 + 0j) * base_m.eval(3.0 + 0j)).real
        prod1 = complex(alt_p.eval(2.0 + 0j) * alt_m.eval(3.0 + 0j)).real
        assert prod0 == pytest.approx(prod1, rel=1e-12)

    def test_symmetric_sides_coincide(self):
        for x1, x2 in ((2.0, 1.0), (0.4, 3.0)):
            p = wh_ratio(SYMMETRIC, "bd", "plus", x1, x2)
            m = wh_ratio(SYMMETRIC, "bd", "minus", x1, x2)
            assert p == pytest.approx(m, rel=1e-10)

    def test_phi_table_cached(self, fig_a):
        assert get_phi_table(fig_a) is get_phi_table(fig_a)

    def test_every_cache_is_a_bounded_memo(self, fig_a):
        get_factor_handle(fig_a, "plus")
        memos = (wiener_hopf._PHI_CACHE, wiener_hopf._HANDLE_CACHE, wiener_hopf._ENGINE_CACHE,
                 wiener_hopf._BD_RATIOS, fluctuation._SUP_CACHE, fluctuation._TAU_RATIOS)
        assert all(isinstance(m, _LRU) and 0 <= len(m) <= m.maxsize for m in memos)
        assert fig_a in wiener_hopf._PHI_CACHE and (fig_a, "plus") in wiener_hopf._HANDLE_CACHE
