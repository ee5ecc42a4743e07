"""Factor ratios/products by three methods against closed-form oracles."""

import cmath
import math

import mpmath
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
    StableSum,
    estimate_phi,
    eval_f,
    shift_spec,
    validate_spec,
)
from levycm import fluctuation, numerics, rogers, wiener_hopf
from levycm.fluctuation import kappa_ratio_tau, kappa_ratio_xi
from levycm.numerics import _LRU, _lockstep_root, make_rng, work_counts
from levycm.rogers import axis_feature_points, compensator_drift
from levycm.specio import SHOWCASE
from levycm import spine
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


def _loop_value(spec, s):
    """Reference: one boundary value f(+0 - i s) from the family core, retried beside a pole."""
    for t in (0.0, 1e-13 * abs(s)):
        with np.errstate(all="ignore"):
            v = complex(rogers._core(spec, np.array([complex(t, -s)]))[0])
        if math.isfinite(v.real) and math.isfinite(v.imag):
            return v
    raise EstimationError(f"boundary value not finite at s={s}")


def _loop_phi(spec, s):
    """Reference: |Arg| of one boundary value f(+0 - i s)."""
    return abs(cmath.phase(_loop_value(spec, s)))


def _recursive_phi_table(spec):
    """Reference: the phi table refined cell by cell, depth first, each jump cell (ends exactly 0
    and pi) solved on its own by the lockstep solver."""
    out_s, out_phi = [], []
    budget = [40000]

    def jump(s_lo, s_hi, p_lo, p_hi, sink):
        width = 2.0 ** (math.frexp(1e-15 * min(abs(s_lo), abs(s_hi)))[1] - 1)
        ends = [np.array([_loop_value(spec, s).real]) for s in (s_lo, s_hi)]
        g = lambda idx, x: np.array([_loop_value(spec, float(x[0])).real])
        r = float(_lockstep_root(g, np.array([s_lo]), np.array([s_hi]), *ends, width)[0])
        sink += [(r - 0.5 * width, p_lo), (r + 0.5 * width, p_hi)]

    def refine(s_lo, s_hi, p_lo, p_hi, sink):
        if {p_lo, p_hi} == {0.0, math.pi}:
            return jump(s_lo, s_hi, p_lo, p_hi, sink)
        if budget[0] <= 0 or (s_hi - s_lo) <= 1e-10 * min(abs(s_lo), abs(s_hi)):
            return
        s_mid = math.copysign(math.sqrt(s_lo * s_hi), s_lo)
        p_mid = _loop_phi(spec, s_mid)
        budget[0] -= 1
        w = (s_mid - s_lo) / (s_hi - s_lo)
        p_interp = (1.0 - w) * p_lo + w * p_hi
        width_u = math.log(s_hi / s_lo) if s_lo > 0 else math.log(s_lo / s_hi)
        miss = abs(p_mid - p_interp)
        if miss * min(abs(width_u), 1.0) > 2e-7:
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
        """phi is a step function in {0, pi} here: the table route meets the bd route at 1e-12."""
        for side in ("plus", "minus"):
            for x1, x2 in ((0.3, 1.5), (2.0, 0.7), (5.0, 0.1), (1e-3, 1e3)):
                want = wh_ratio(spec, "bd", side, x1, x2)
                assert wh_ratio(spec, "phi", side, x1, x2) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_shifted_bm_drift_matches_closed_form(self, side):
        """bm_drift + 0.5: the phi route's f^side(x)/f^side(1) within 1e-13 of the closed form, out
        to x = 1e100; the table's error at its jumps would carry to every x."""
        spec = shift_spec(SHOWCASE["bm_drift"], 0.5)
        cf = lambda x: closed_form_factors("bm_drift", side, x, b=1.0, sigma=0.5)
        for x in (1e-3, 0.5, 3.0, 1e3, 1e6, 1e100):
            want = cf(x) / cf(1.0)
            assert wh_ratio(spec, "phi", side, x, 1.0) == pytest.approx(want, rel=1e-13), x

    def test_exhausted_budget_raises(self, fig_a, monkeypatch):
        monkeypatch.setattr(wiener_hopf, "_PHI_MAX_POINTS", 100)
        with pytest.raises(EstimationError):
            wiener_hopf.build_phi_table(fig_a)


class TestPhiJumps:
    """Each jump cell of the table (ends exactly 0 and pi) is solved once, by the lockstep solver:
    its two breakpoints straddle the root within 1e-15 |s| and read back exactly 0 and pi."""

    @staticmethod
    def _build(spec, monkeypatch):
        """The table, the solver's brackets and roots, and the work counts of one build."""
        seen = []

        def recorded(g, lo, hi, *rest):
            out = numerics._lockstep_root(g, lo, hi, *rest)
            seen.append((lo.copy(), hi.copy(), out.copy()))
            return out

        monkeypatch.setattr(wiener_hopf, "_lockstep_root", recorded)
        before = work_counts()
        table = wiener_hopf.build_phi_table(spec)
        n = {k: v - before[k] for k, v in work_counts().items()}
        monkeypatch.undo()
        lo, hi, root = (np.concatenate(v) for v in zip(*seen)) if seen else (np.zeros(0),) * 3
        return table, lo, hi, root, n, len(seen)

    @pytest.mark.parametrize("tau", [0.0, 0.5, 2.0])
    @pytest.mark.parametrize("name", sorted(SHOWCASE))
    def test_jump_points(self, name, tau, monkeypatch):
        spec = shift_spec(SHOWCASE[name], tau)
        table, lo, hi, root, n, solves = self._build(spec, monkeypatch)
        s, p = np.asarray(table.breakpoints), np.asarray(table.values)
        k = np.flatnonzero((np.abs(np.diff(p)) == math.pi) & (s[:-1] * s[1:] > 0.0))  # no cell across 0
        assert n["estimate_phi.calls"] <= 8
        assert solves == (1 if k.size else 0) and k.size == root.size
        assert k.size == 0 or n["lockstep.steps"] >= 1
        left, right = s[k], s[k + 1]
        assert np.all(right - left <= 1e-15 * np.minimum(np.abs(left), np.abs(right)))
        assert np.all((lo < left) & (right < hi))
        assert (0.5 * (left + right)).tobytes() == root.tobytes()  # the midpoint is the root
        assert estimate_phi(spec, left).tobytes() == p[k].tobytes()
        assert estimate_phi(spec, right).tobytes() == p[k + 1].tobytes()

    def test_estimate_phi_calls(self):
        """24 tables (8 presets x tau in {0, 0.5, 2}) take at most 120 estimate_phi calls."""
        before = work_counts()["estimate_phi.calls"]
        for name in SHOWCASE:
            for tau in (0.0, 0.5, 2.0):
                wiener_hopf.build_phi_table(shift_spec(SHOWCASE[name], tau))
        assert work_counts()["estimate_phi.calls"] - before <= 120

    @pytest.mark.parametrize("sigma", [0.5, 2.0])
    @pytest.mark.parametrize("name", sorted(SHOWCASE))
    def test_atoms_are_the_table_jumps(self, name, sigma):
        """The sup_tail atoms are bitwise the midpoints of the table's 0 -> pi jumps at s > 0."""
        try:
            ev = fluctuation._SupTailEvaluator(SHOWCASE[name], sigma)
        except DomainError:
            assert name.startswith("stable")
            return
        table = wiener_hopf.build_phi_table(shift_spec(SHOWCASE[name], sigma))
        s, p = np.asarray(table.breakpoints), np.asarray(table.values)
        k = np.flatnonzero((s[:-1] > 0.0) & (p[:-1] == 0.0) & (p[1:] == math.pi))
        assert ev.atoms.tobytes() == (0.5 * (s[k] + s[k + 1])).tobytes()


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
        with pytest.raises(DomainError):
            get_spine_engine(fig_b).kappa((("plus", 0.0, 1.0, 1), ("minus", 0.0, 1.0, 1)), 0.0)

    @pytest.mark.parametrize("letter", sorted(LETTERS))
    def test_phi_route_against_bd(self, letter):
        """The phi product f+(x1) f-(x2) of the cached handles, as ``levycm factor --product`` checks it."""
        for tau in (0.0, 0.5):
            spec = shift_spec(showcase(letter), tau)
            for x1, x2 in ((0.7, 2.3), (1.0, 1.0), (0.2, 5.0)):
                want = wh_product(spec, "bd", x1, x2)
                assert wh_product(spec, "phi", x1, x2) == pytest.approx(want, rel=1e-6), (tau, x1, x2)

    @pytest.mark.parametrize("method", ["bd", "spine", "phi"])
    @pytest.mark.parametrize(
        "xi1,xi2,R",
        [(math.nan, 1.0, None), (1.0, math.inf, None), (math.inf, 1.0, None), (1.0, 2.0, math.nan),
         (1.0, 2.0, math.inf)],
    )
    def test_non_finite_arguments_rejected(self, monkeypatch, method, xi1, xi2, R):
        monkeypatch.setattr(wiener_hopf, "_bd_sum", None)  # no contour integral is summed
        with pytest.raises(DomainError):
            wh_product(F_SIG, method, xi1, xi2, R)

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
                got = engine.kappa(((side, tau, 0.7, 1), (side, tau, 2.3, -1)))
                assert got == pytest.approx(want, rel=1e-10), (tau, side)
            want = wh_product(shifted, "bd", 0.7, 2.3)
            got = engine.kappa((("plus", tau, 0.7, 1), ("minus", tau, 2.3, 1)), 1.1)
            assert got == pytest.approx(want, rel=1e-10), tau

    @pytest.mark.parametrize("side", ["plus", "minus"])
    @pytest.mark.parametrize("letter", ["b", "d"])
    def test_ratio_against_zero_at_small_tau(self, letter, side):
        """f(0+) = 0: at tau = 1e-3 the lower tail of the panels still counts."""
        spec = showcase(letter)
        got = get_spine_engine(spec).kappa(((side, 1e-3, 0.0, 1), (side, 1e-3, 1.0, -1)))
        want = kappa_ratio_xi(spec, 1e-3, 0.0, 1.0, side, method="bd")
        assert got == pytest.approx(want, rel=1e-8)

    def test_unconverged_raises(self, fig_a, monkeypatch):
        monkeypatch.setattr(wiener_hopf, "_SPINE_MAX_SPLITS", 0)
        with pytest.raises(QuadratureError):
            wiener_hopf.SpineStieltjes(fig_a).kappa((("plus", 0.0, 0.7, 1), ("plus", 0.0, 2.3, -1)))


class TestSpineKappa:
    """One term list for spine ratios, products and their products."""

    @pytest.mark.parametrize("tau", [0.5, 0.7 * cmath.exp(2.2j)])
    @pytest.mark.parametrize("letter", ["a", "d"])
    def test_ratio_times_product(self, letter, tau):
        engine = get_spine_engine(showcase(letter))
        ratio = (("plus", tau, 0.7, 1), ("plus", tau, 2.3, -1))
        product = (("plus", tau, 1.3, 1), ("minus", tau, 0.4, 1))
        want = engine.kappa(ratio) * engine.kappa(product, 1.1)
        assert engine.kappa(ratio + product, 1.1) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_cancelled_terms_give_one_typed_like_tau(self, fig_a):
        engine = get_spine_engine(fig_a)
        for tau in (0.5, 0.5 + 0.2j):
            got = engine.kappa((("minus", tau, 1.3, 1), ("minus", tau, 1.3, -1)))
            assert got == 1 and type(got) is type(tau)

    def test_mixed_tau_is_unsupported(self, fig_a):
        with pytest.raises(MethodUnsupportedError):
            get_spine_engine(fig_a).kappa((("plus", 0.5, 0.7, 1), ("plus", 1.0, 2.3, -1)))

    def test_unbalanced_sides_are_a_domain_error(self, fig_a):
        """A lone factor depends on the normalization c+ = c- = sqrt(c)."""
        with pytest.raises(DomainError):
            get_spine_engine(fig_a).kappa((("plus", 0.5, 0.7, 1),))

    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_zero_argument_needs_positive_origin_value(self, fig_b, side):
        with pytest.raises(DomainError):
            get_spine_engine(fig_b).kappa(((side, 0.0, 0.0, 1), (side, 0.0, 1.0, -1)))

    @pytest.mark.parametrize("x", [-1.0, math.inf, math.nan])
    def test_argument_must_be_finite_and_nonnegative(self, fig_a, x):
        """Checked in every term, also in one that the others would cancel."""
        engine = get_spine_engine(fig_a)
        lists = (
            (("plus", 0.5, x, 1), ("plus", 0.5, 1.0, -1)),
            (("minus", 0.5 + 0.2j, 1.0, 1), ("minus", 0.5 + 0.2j, x, -1)),
            (("plus", 0.5, x, 1), ("plus", 0.5, x, -1)),
        )
        for terms in lists:
            with pytest.raises(DomainError):
                engine.kappa(terms)

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -1.0, complex(math.nan, 1.0), complex(0.5, math.inf)])
    def test_tau_must_be_finite_and_not_below_minus_origin_value(self, fig_a, monkeypatch, tau):
        """A tau that is not finite, or a real one with tau + f(0+) < 0, raises before any spine solve."""
        monkeypatch.setattr(wiener_hopf, "solve_spine", None)  # nothing is solved
        engine = wiener_hopf.SpineStieltjes(fig_a)
        with pytest.raises(DomainError):
            engine.kappa((("plus", tau, 0.5, 1), ("plus", tau, 2.0, -1)))

    @pytest.mark.parametrize("R", [-1.0, math.inf, math.nan])
    def test_split_radius_must_be_finite_and_nonnegative(self, fig_a, monkeypatch, R):
        """Checked once, before any spine solve, also where no factor needs R."""
        monkeypatch.setattr(wiener_hopf, "solve_spine", None)  # nothing is solved
        engine = wiener_hopf.SpineStieltjes(fig_a)
        lists = (
            (("plus", 0.5, 1.0, 1), ("minus", 0.5, 2.0, 1)),
            (("plus", 0.5, 1.0, 1), ("plus", 0.5, 2.0, -1)),
            (),
        )
        for terms in lists:
            with pytest.raises(DomainError):
                engine.kappa(terms, R)


class TestSpineZEdges:
    """Z boundaries as panel edges of the spine integral."""

    @pytest.mark.parametrize(
        "letter,x1,x2,max_rounds",
        [
            # 56 rounds without Z edges, 11 when a round split only panels within 2x of the largest
            ("g", 0.3, 1.5, 4),
            ("e", 0.5, 4.0, 1),  # x2 on the Z boundary: 36 rounds when the two edges stay apart
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
        got = wiener_hopf.SpineStieltjes(spec).kappa((("plus", 0.2, x1, 1), ("plus", 0.2, x2, -1)))
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


    @pytest.mark.parametrize("letter", sorted(LETTERS))
    def test_kept_boundaries_meet_the_axis(self, letter):
        """Every kept boundary on log r in [-42, 41] has the spine on the axis 1e-3 to exactly one
        side of it: 12 on the presets."""
        spec = showcase(letter)
        u = wiener_hopf.SpineStieltjes(spec)._z_edges(-42, 41)
        assert u.size == {"a": 1, "b": 0, "c": 1, "d": 0, "e": 1, "f": 1, "g": 6, "h": 2}[letter]
        on = spine._on_axis(spec, np.exp(u[:, None] + np.array([-1e-3, 1e-3])))
        assert np.all(on.sum(axis=1) == 1)

    def test_asymptotic_crossings_dropped(self):
        """stable_mixed's theta crosses pi/2 - ANGLE_TOL at log r = -25.19 and 29.82 without
        reaching the axis on either side: no kink, so no edge."""
        spec = showcase("d")
        r = np.exp(np.arange(-42 * 16, 41 * 16 + 1) / 16.0)
        raw = np.sort(np.log(spine._z_crossings(spec, r)))
        np.testing.assert_allclose(raw, [-25.19, 29.82], atol=0.01)
        assert not spine._on_axis(spec, np.exp(raw[:, None] + np.array([-1e-3, 1e-3]))).any()
        assert wiener_hopf.SpineStieltjes(spec)._z_edges(-42, 41).size == 0


# refinement rounds of each preset's cold probe ratio f_0.2^+(0.3)/f_0.2^+(1.5) from the graded
# seed, which left every integer of the range an edge before (3 or 4 rounds but on
# tempered_stable, stable_asym and rational_three_arcs_tight)
_SEED_ROUNDS = {"a": 2, "b": 2, "c": 1, "d": 3, "e": 2, "f": 2, "g": 2, "h": 2}


class TestSpineSeed:
    """The seed panels of the spine integral: unit panels on the kernel's scales, panels doubling
    in width beyond them, and graded pieces beside every cut and Z boundary."""

    @staticmethod
    def _probe(spec):
        return wiener_hopf.SpineStieltjes(spec).kappa((("plus", 0.2, 0.3, 1), ("plus", 0.2, 1.5, -1)))

    @pytest.mark.parametrize("letter", sorted(LETTERS))
    def test_cold_probe_rounds(self, letter):
        before = work_counts()["refine_panels.rounds"]
        self._probe(showcase(letter))
        assert work_counts()["refine_panels.rounds"] - before <= min(3, _SEED_ROUNDS[letter])

    @pytest.mark.parametrize("tau", [0.0, 0.5])
    @pytest.mark.parametrize("letter", sorted(LETTERS))
    def test_ratio_matches_bd(self, letter, tau):
        spec = shift_spec(showcase(letter), tau) if tau else showcase(letter)
        for side in ("plus", "minus"):
            for x1, x2 in ((0.3, 1.5), (2.0, 0.05), (1e-3, 10.0)):
                want = wh_ratio(spec, "bd", side, x1, x2)
                got = wh_ratio(spec, "spine", side, x1, x2)
                assert got == pytest.approx(want, rel=1e-12, abs=0.0), (side, x1, x2)

    @pytest.mark.parametrize("letter", sorted(LETTERS))
    def test_edges(self, letter, monkeypatch):
        """Every jump, axis feature and kept Z boundary in the range is a seed edge; the Z
        boundaries are the square-root ends; unit edges span the scales 0.3, 1 and 1.5 widened by
        2, and edges double their distance from there to the ends."""
        seen = []
        axis = wiener_hopf._piecewise_axis
        record = lambda cuts, *a: seen.append((cuts, a[0])) or axis(cuts, *a)
        monkeypatch.setattr(wiener_hopf, "_piecewise_axis", record)
        spec = showcase(letter)
        self._probe(spec)
        ((edges, singular),) = seen
        u_lo, u_hi = edges[0], edges[-1]
        assert (u_lo, u_hi) == (-42.0, 41.0)
        cuts = np.log(np.array([0.3, 1.5] + [abs(p) for p in axis_feature_points(spec)]))
        assert set(cuts[(cuts > u_lo) & (cuts < u_hi)].tolist()) <= set(edges)
        zb = wiener_hopf.SpineStieltjes(spec)._z_edges(u_lo, u_hi)
        assert singular <= set(edges) and len(singular) == zb.size
        np.testing.assert_allclose(sorted(singular), zb, rtol=0.0, atol=1e-12)
        doubling = [-4.0 - 2.0**k for k in range(6)] + [3.0 + 2.0**k for k in range(6)]
        assert set(np.arange(-4.0, 4.0).tolist() + doubling) <= set(edges)
        assert not {-7.0, -9.0, 6.0, 8.0} & set(edges)


def _bm_ratio(side, x2):
    """bm_drift's closed-form f^side(1)/f^side(x2)."""
    return closed_form_factors("bm_drift", side, 1.0, b=1.0) / closed_form_factors("bm_drift", side, x2, b=1.0)


class TestSpineOverflow:
    """bm_drift's spine ratio far out: |w|^2 of the profile slope overflows from r ~ e^271 and f
    itself from r ~ e^354, neither with a RuntimeWarning (an error under Tier-1's filter)."""

    @pytest.mark.parametrize("x2", [1e50, 1e100, 1e150])
    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_returns_or_raises(self, fig_a, side, x2):
        want = _bm_ratio(side, x2)
        try:
            got = wh_ratio(fig_a, "spine", side, 1.0, x2)
        except QuadratureError as err:
            assert "not finite at r = " in str(err)
            assert x2 == 1e150
        else:
            assert got == pytest.approx(want, rel=1e-10, abs=0.0)


class TestBdLargeArguments:
    """bd ratios and pr_laplace far out on bm_drift, against the closed forms.

    The trapezoidal sum's window reaches past every pole whatever its scale, so a pole at 1e30 is
    no different from one at 1.  f overflows past x ~ 1e154, where the grid's run of finite f
    ends: a window that needs nodes beyond it raises.
    """

    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_ratio_to_1e28(self, fig_a, side):
        assert wh_ratio(fig_a, "bd", side, 1.0, 1e28) == pytest.approx(_bm_ratio(side, 1e28), rel=1e-10)

    @pytest.mark.parametrize("side,x2", [("plus", 1e30), ("minus", 1e29)])
    def test_ratio_far_out(self, fig_a, side, x2):
        assert wh_ratio(fig_a, "bd", side, 1.0, x2) == pytest.approx(_bm_ratio(side, x2), rel=1e-10)

    def test_pr_laplace_far_out(self, fig_a):
        m = math.sqrt(1.0 + 2.0 * 0.5) - 1.0  # kappa^+(sigma, xi) ~ xi + m on bm_drift
        assert fluctuation.pr_laplace(fig_a, 0.5, 0.0, 1e29) == pytest.approx(m / (1e29 + m), rel=1e-10)

    @pytest.mark.parametrize("side", ["plus", "minus"])
    @pytest.mark.parametrize("x2", [1e50, 1e100, 1e120, 1e140, 1e150])
    def test_ratio_to_1e150_or_raises(self, fig_a, side, x2):
        """Within 1e-10 of the closed form, or a QuadratureError naming where f stops being finite."""
        try:
            got = wh_ratio(fig_a, "bd", side, 1.0, x2)
        except QuadratureError as err:
            assert "not negligible" in str(err) and x2 >= 1e140
        else:
            assert got == pytest.approx(_bm_ratio(side, x2), rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("x", [1e180, 1e200, 1e300])
    @pytest.mark.parametrize("side", ["plus", "minus"])
    @pytest.mark.parametrize("shift", [0.0, 0.5])
    def test_pole_past_the_run(self, fig_a, shift, side, x):
        """From x ~ 1e180 a pole's whole band of terms lies past the run of finite f, where no term
        is formed: each entry point meets the closed form to 1e-10 or raises, where the sum over
        the rest read 0.7071 for f^+(1)/f^+(1e200) (closed form 1e-200)."""
        spec = shift_spec(fig_a, shift)
        cf = lambda s, xi, sigma=0.0: closed_form_factors("bm_drift", s, xi, b=1.0, sigma=shift + sigma)
        x1, x2 = (x, 1.0) if side == "plus" else (1.0, x)
        calls = [
            (lambda: wh_ratio(spec, "bd", side, 1.0, x), cf(side, 1.0) / cf(side, x)),
            (lambda: wh_product(spec, "bd", x1, x2), cf("plus", x1) * cf("minus", x2)),
            (lambda: kappa_ratio_tau(spec, x, 1.2, 0.2, side), cf(side, x, 1.2) / cf(side, x, 0.2)),
            (lambda: fluctuation.pr_laplace(spec, 0.5, 0.0, x, side), cf(side, 0.0, 0.5) / cf(side, x, 0.5)),
        ]
        for call, want in calls:
            try:
                got = call()
            except QuadratureError:
                continue
            assert got == pytest.approx(want, rel=1e-10, abs=0.0)

    def test_sum_overflow_raises(self, fig_a):
        """tau = 1e308 overflows tau + f on the far nodes: the sum is not finite, and raises before
        numpy warns."""
        with pytest.raises(QuadratureError, match="the bd sum is not finite"):
            kappa_ratio_tau(fig_a, 1.0, 1e308, 0.5)


def _dict_tl(self, u):
    """A per-log-radius dict of spine samples, the store SpineStieltjes kept before its sorted arrays."""
    cache = self.__dict__.setdefault("_dict", {})
    keys = u.tolist()
    missing = list(dict.fromkeys(k for k in keys if k not in cache))
    if missing:
        s = wiener_hopf.solve_spine(self.spec, np.exp(missing))
        slope = wiener_hopf._profile_slope(self.spec, s)
        cache.update(zip(missing, zip(s.zeta.tolist(), s.lam.tolist(), slope.tolist())))
    return tuple(map(np.array, zip(*map(cache.__getitem__, keys))))


class TestSpineSampleStore:
    """The spine samples of an engine: sorted log-radii and aligned zeta, lambda, lambda'."""

    def test_warm_kappa_solves_nothing(self, fig_g, monkeypatch):
        engine = wiener_hopf.SpineStieltjes(fig_g)
        terms = (("plus", 0.2, 0.3, 1), ("plus", 0.2, 1.5, -1))
        cold = engine.kappa(terms)
        solves = []
        solve = wiener_hopf.solve_spine
        monkeypatch.setattr(wiener_hopf, "solve_spine", lambda spec, r: solves.append(r) or solve(spec, r))
        assert engine.kappa(terms) == cold
        assert solves == []

    def test_repeated_unsorted_radii(self, fig_g):
        """Duplicates and any order, part warm and part cold, give a fresh solve's samples."""
        engine = wiener_hopf.SpineStieltjes(fig_g)
        engine._tl(np.array([0.5, -2.0, 3.0]))
        u = np.array([1.0, -2.0, 0.5, 1.0, -7.5, 3.0, -2.0, 0.25])
        zeta, lam, slope = engine._tl(u)
        s = wiener_hopf.solve_spine(fig_g, np.exp(u))
        np.testing.assert_array_equal(zeta, s.zeta)
        np.testing.assert_array_equal(lam, s.lam)
        np.testing.assert_array_equal(slope, wiener_hopf._profile_slope(fig_g, s))
        assert np.all(np.diff(engine._samples[0]) > 0.0) and engine._samples[0].size == 6

    @pytest.mark.parametrize("letter", ["a", "g"])
    def test_tau_family_matches_dict_store(self, letter, monkeypatch):
        """25 tau on one warm engine, bitwise as on an engine with the per-radius dict."""
        taus = [0.05 * 1.4**k if k % 2 == 0 else 0.1 * 1.3**k * cmath.exp(0.6j * (k % 5)) for k in range(25)]
        terms = lambda tau: (("plus", tau, 0.5, 1), ("plus", tau, 2.0, -1))
        engine = wiener_hopf.SpineStieltjes(showcase(letter))
        got = [engine.kappa(terms(tau)) for tau in taus]
        monkeypatch.setattr(wiener_hopf.SpineStieltjes, "_tl", _dict_tl)
        engine = wiener_hopf.SpineStieltjes(showcase(letter))
        assert got == [engine.kappa(terms(tau)) for tau in taus]


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
            got = engine.kappa(((side, tau, x1, 1), (side, tau, x2, -1)))
            assert got == pytest.approx(want, rel=1e-10), (tau, side, x1, x2)
            want = wh_product(shifted, "bd", x1, x2)
            got = engine.kappa((("plus", tau, x1, 1), ("minus", tau, x2, 1)), math.sqrt(x1 * x2))
            assert got == pytest.approx(want, rel=1e-10), (tau, x1, x2)


def _random_atomic_case(k):
    """Seeded random atomic spec with arguments x1, x2 and a side, case k of stream [7, k]."""
    rng = np.random.default_rng([7, k])
    n = int(rng.integers(1, 4))
    s = np.exp(rng.uniform(math.log(0.2), math.log(5.0), n)) * rng.choice([-1.0, 1.0], n)
    w = np.exp(rng.uniform(math.log(0.2), math.log(5.0), n))
    a = float(rng.uniform(0, 1)) if rng.uniform() < 0.5 else 0.0
    b = float(rng.uniform(-1, 1))
    c = float(rng.uniform(0, 1)) if rng.uniform() < 0.5 else 0.0
    x1, x2 = np.exp(rng.uniform(math.log(0.2), math.log(5.0), 2))
    side = "plus" if rng.uniform() < 0.5 else "minus"
    spec = validate_spec(LevyAtomic(a=a, b=b, c=c, atoms=tuple(zip(s, w))))
    return spec, float(x1), float(x2), side


class TestSpineEndOfPanelCheck:
    """The spine integrator's panel-end check of the Kronrod d log(lambda + tau).

    Over cases k < 200 the spine route stays within 2.1e-13 of bd; without
    the check these five miss by 7.9e-13 to 1.47e-12.
    """

    @pytest.mark.parametrize("k", [33, 126, 51])
    def test_ratio(self, k):
        spec, x1, x2, side = _random_atomic_case(k)
        want = wh_ratio(spec, "bd", side, x1, x2)
        assert wh_ratio(spec, "spine", side, x1, x2) == pytest.approx(want, rel=4e-13, abs=0.0)

    @pytest.mark.parametrize("k", [58, 43])
    def test_product(self, k):
        spec, x1, x2, _ = _random_atomic_case(k)
        want = wh_product(spec, "bd", x1, x2)
        assert wh_product(spec, "spine", x1, x2) == pytest.approx(want, rel=4e-13, abs=0.0)


class TestRatioEntryPoint:
    """wh_ratio at xi = 0, on constant exponents and against closed forms."""

    @pytest.mark.parametrize("method,tol", [("bd", 1e-13), ("spine", 3e-13), ("phi", 1e-10)])
    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_bm_drift_closed_form(self, method, tol, side):
        for sigma in (0.5, 2.0):
            spec = LevyAtomic(a=0.5, b=0.7, c=sigma)
            for x1, x2 in ((0.0, 1.3), (2.5, 0.0), (0.3, 2.5)):
                f1, f2 = (closed_form_factors("bm_drift", side, x, b=0.7, sigma=sigma) for x in (x1, x2))
                got = wh_ratio(spec, method, side, x1, x2)
                assert got == pytest.approx(f1 / f2, rel=tol, abs=0.0), (sigma, x1, x2)

    def test_bm_drift_products(self):
        for sigma in (0.5, 2.0):
            spec = LevyAtomic(a=0.5, b=0.7, c=sigma)
            for x1, x2 in ((0.3, 2.5), (1.3, 0.7)):
                want = closed_form_factors("bm_drift", "plus", x1, b=0.7, sigma=sigma)
                want *= closed_form_factors("bm_drift", "minus", x2, b=0.7, sigma=sigma)
                assert wh_product(spec, "bd", x1, x2) == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("orientation", ["plus-i", "minus-i"])
    @pytest.mark.parametrize("alpha", [0.4, 0.7])
    def test_one_sided_stable_closed_form(self, alpha, orientation):
        spec = validate_spec(StableSum(((1.0, 0.0, alpha, orientation),)))
        c = eval_f(spec, 1.0 + 0.0j)
        for side in ("plus", "minus"):
            for x1, x2 in ((0.3, 2.5), (4.0, 1.3)):
                f1, f2 = (closed_form_factors("stable", side, x, c=c, alpha=alpha) for x in (x1, x2))
                got = wh_ratio(spec, "bd", side, x1, x2)
                assert got == pytest.approx(f1 / f2, rel=1e-13, abs=0.0), (side, x1, x2)

    @pytest.mark.parametrize("method", ["bd", "spine", "phi"])
    def test_constant_spec_is_one(self, method):
        for side in ("plus", "minus"):
            for x1, x2 in ((0.0, 2.0), (3.0, 0.0), (1.0, 3.0)):
                assert wh_ratio(LevyAtomic(c=1.3), method, side, x1, x2) == 1.0

    @pytest.mark.parametrize("method", ["bd", "spine", "phi"])
    def test_infinite_argument_rejected(self, monkeypatch, method):
        monkeypatch.setattr(wiener_hopf, "_bd_sum", None)  # no contour integral is summed
        for side in ("plus", "minus"):
            for x1, x2 in ((math.inf, 1.0), (1.0, math.inf), (math.inf, math.inf)):
                with pytest.raises(DomainError):
                    wh_ratio(F_SIG, method, side, x1, x2)

    @pytest.mark.parametrize("method", ["bd", "spine", "phi"])
    def test_zero_needs_positive_origin_value(self, fig_b, method):
        with pytest.raises(DomainError):
            wh_ratio(fig_b, method, "plus", 0.0, 1.0)
        with pytest.raises(DomainError):
            wh_ratio(fig_b, method, "minus", 2.0, 0.0)

    @pytest.mark.parametrize("name", ["stable_asym", "stable_mixed"])
    def test_phi_route_with_inner_support_rejects_zero(self, name):
        """phi(0+) > 0 makes the phi-route factor vanish at 0 although tau + f(0+) > 0."""
        spec = SHOWCASE[name]
        for side in ("plus", "minus"):
            for x1, x2 in ((0.0, 1.0), (1.0, 0.0)):
                with pytest.raises(DomainError):
                    kappa_ratio_xi(spec, 0.5, x1, x2, side, method="phi")
        bd = kappa_ratio_xi(spec, 0.5, 0.0, 1.0, method="bd")
        assert kappa_ratio_xi(spec, 0.5, 0.0, 1.0, method="spine") == pytest.approx(bd, rel=1e-10)


@pytest.mark.parametrize(
    "call,error",
    [
        (lambda: FactorHandle(F_SIG, "up"), ValueError),
        (lambda: wh_ratio(F_SIG, "bd", "up", 1.0, 2.0), ValueError),
        (lambda: wh_product(F_SIG, "cauchy", 1.0, 2.0), ValueError),
        (lambda: closed_form_factors("bm_drift", "up", 1.0), ValueError),
        (lambda: kappa_ratio_tau(LevyAtomic(a=0.5, b=1.0), 1.0, 0.0, 1.0), DomainError),
    ],
    ids=["handle-side", "ratio-side", "product-method", "closed-form-side", "bd-zero-tau-f0"],
)
def test_invalid_arguments_rejected_before_work(monkeypatch, call, error):
    """An unknown side or method, or tau + f(0+) = 0 in a temporal product, raises up front."""
    monkeypatch.setattr(wiener_hopf, "_bd_sum", None)  # no contour integral is summed
    monkeypatch.setattr(wiener_hopf, "build_phi_table", None)  # no table is built
    with pytest.raises(error):
        call()


def _bd_run(call):
    """``call()``, its eval_f core calls, its bd sums and the nodes their terms were formed at."""
    before = work_counts()
    value = call()
    n = {k: v - before[k] for k, v in work_counts().items()}
    return value, n["eval_f.core_calls"], n["bd_sum.calls"], n["bd_sum.nodes"]


class TestBdContourSeed:
    """Contour integrals as trapezoidal sums on the fixed grid of wiener_hopf._bd_sum: f once per
    spec, windows placed so that no sum grows, and values that no memo moves."""

    @pytest.mark.parametrize(
        "name",
        ["bm_drift", "rational_three_arcs", "rational_three_arcs_tight", "tempered_stable", "stable_asym"],
    )
    def test_cold_rounds(self, name):
        """A cold bd ratio and a cold temporal ratio each take one f evaluation on the grid, and
        each sum's terms are formed on its first window alone."""
        for side in ("plus", "minus"):
            for spec, call in ((shift_spec(SHOWCASE[name], 0.2), lambda spec: wh_ratio(spec, "bd", side, 0.3, 1.5)),
                               (SHOWCASE[name], lambda spec: kappa_ratio_tau(spec, 0.3, 1.2, 0.2, side))):
                wiener_hopf._BD_KAPPA.clear()
                wiener_hopf._BD_GRID.clear()
                _, f_calls, sums, nodes = _bd_run(lambda: call(spec))
                assert (f_calls, sums) == (1, 1)
                terms = next(iter(wiener_hopf._BD_KAPPA._entries))[1]
                _, _, lo, hi = wiener_hopf._bd_sum(*wiener_hopf._bd_plan(spec, terms))
                assert nodes == hi - lo + 1

    @pytest.mark.parametrize("name", ["rational_three_arcs", "rational_three_arcs_tight"])
    def test_cold_pr_sweep_rounds(self, name):
        """The 64 pr_laplace calls of the fluct_warm grid evaluate f once in all, and form at most
        600 terms a call."""
        wiener_hopf._BD_KAPPA.clear()
        wiener_hopf._BD_GRID.clear()
        calls = [(sigma, tau, float(xi)) for sigma in (0.5, 2.0) for tau in (0.0, 1.0)
                 for xi in np.geomspace(0.1, 5.0, 16)]
        _, f_calls, sums, nodes = _bd_run(lambda: [fluctuation.pr_laplace(SHOWCASE[name], *c) for c in calls])
        assert (f_calls, sums) == (1, 64) and nodes <= 600 * 64

    @pytest.mark.parametrize("s", [1e-2, 1e2])
    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_half_stable_scaling(self, s, side):
        """f(s xi) = s^(1/2) f(xi) on the strictly 1/2-stable stable_asym moves the windows."""
        spec = SHOWCASE["stable_asym"]
        r = s**-0.5
        for xi, tau1, tau2 in ((0.7, 1.3, 0.4), (2.0, 0.2, 3.0)):
            want = kappa_ratio_tau(spec, xi, tau1 * r, tau2 * r, side)
            assert kappa_ratio_tau(spec, s * xi, tau1, tau2, side) == pytest.approx(want, rel=1e-11)
        for x1, x2 in ((0.3, 1.5), (2.0, 0.05)):
            want = wh_ratio(spec, "bd", side, x1, x2)
            assert wh_ratio(spec, "bd", side, s * x1, s * x2) == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize("name", sorted(SHOWCASE))
    def test_near_equal_arguments_converge(self, name):
        """x2 = x1 (1 + 1e-12): an exponent of ~1e-12 meets the absolute goal."""
        for shift in (0.0, 0.5):
            spec = shift_spec(SHOWCASE[name], shift)
            for side in ("plus", "minus"):
                for x1 in (1e-3, 1.0, 1e3):
                    got = wh_ratio(spec, "bd", side, x1, x1 * (1.0 + 1e-12))
                    assert got == pytest.approx(1.0, abs=1e-11), (shift, side, x1)

    @pytest.mark.parametrize(
        "name", ["bm_drift", "quadratic_over_pole", "rational_pole_pair", "stable_asym", "tempered_stable"]
    )
    def test_cold_pr_laplace_converges_in_its_seed_round(self, name):
        """At the probe's arguments the sum is formed on its first window, with a nested error
        |T_h - T_2h| below 1e-9 |T_h|."""
        wiener_hopf._BD_KAPPA.clear()
        wiener_hopf._BD_GRID.clear()
        terms = (("plus", 0.5, 0.0, 1), ("plus", 1.3, 1.3, -1))
        _, _, sums, nodes = _bd_run(lambda: fluctuation.pr_laplace(SHOWCASE[name], 0.5, 0.8, 1.3, "plus"))
        value, err, lo, hi = wiener_hopf._bd_sum(*wiener_hopf._bd_plan(SHOWCASE[name], terms))
        assert sums == 1 and nodes == hi - lo + 1 and err <= 1e-9 * abs(value)

    @staticmethod
    def _bd_values(spec, memos):
        """bd ratios and products, tau-ratios and pr_laplace at tau = 0 and tau > 0 on both sides,
        each summed with ``memos`` cleared first."""
        calls = [lambda: wh_product(spec, "bd", 0.3, 1.5)]
        for side in ("plus", "minus"):
            calls += [
                lambda side=side: wh_ratio(spec, "bd", side, 0.3, 1.5),
                lambda side=side: kappa_ratio_tau(spec, 0.3, 1.2, 0.2, side),
                lambda side=side: fluctuation.pr_laplace(spec, 0.5, 0.0, 1.3, side),
                lambda side=side: fluctuation.pr_laplace(spec, 0.5, 0.8, 1.3, side),
            ]
        out = []
        for call in calls:
            for memo in memos:
                memo.clear()
            out.append(call().hex())
        return out

    @pytest.mark.parametrize("name", sorted(SHOWCASE))
    def test_seed_memo_is_bitwise(self, name):
        """Values read through the grid memo (f and the recurring rows), filled by the preset and
        its +0.5 shift together, equal those computed with it cleared, bit for bit."""
        specs = (SHOWCASE[name], shift_spec(SHOWCASE[name], 0.5))
        cold = [self._bd_values(spec, (wiener_hopf._BD_KAPPA, wiener_hopf._BD_GRID)) for spec in specs]
        for spec in specs:
            self._bd_values(spec, (wiener_hopf._BD_KAPPA,))
        grid = wiener_hopf._BD_GRID
        hits, misses = grid.hits, grid.misses
        assert [self._bd_values(spec, (wiener_hopf._BD_KAPPA,)) for spec in specs] == cold
        assert grid.misses == misses and grid.hits > hits

    def test_seed_memo_stays_bounded(self, monkeypatch):
        """Fed more specs than it holds, the grid memo evicts, and a spec summed again after its
        eviction gives bitwise the values it gave before."""
        specs = [shift_spec(SHOWCASE["tempered_stable"], 0.1 * k) for k in range(1, 6)]
        want = [self._bd_values(spec, (wiener_hopf._BD_KAPPA,)) for spec in specs]
        monkeypatch.setattr(wiener_hopf, "_BD_GRID", _LRU(4))
        got = [self._bd_values(spec, (wiener_hopf._BD_KAPPA,)) for spec in specs + specs[:1]]
        assert got == want + want[:1]
        assert len(wiener_hopf._BD_GRID) == 4 and wiener_hopf._BD_GRID.misses > 5

    @pytest.mark.parametrize("name", sorted(SHOWCASE))
    def test_window_holds_every_term_above_its_cut(self, name):
        """Every term outside a sum's window, over the grid's whole run, is at most the cut."""
        spec = shift_spec(SHOWCASE[name], 0.5)
        for side in ("plus", "minus"):
            for terms in TestBdRealIntegrand._terms(side):
                grid, S, parts, _, _ = plan = wiener_hopf._bd_plan(spec, terms)
                value, _, lo, hi = wiener_hopf._bd_sum(*plan)
                t = wiener_hopf._bd_terms(grid, S, parts, grid.lo, grid.hi)
                k = np.arange(grid.lo, grid.hi + 1)
                outside = np.abs(t[(k < lo) | (k > hi)])
                assert outside.max(initial=0.0) <= wiener_hopf._BD_CUT * max(1.0, abs(value)), terms


class TestBdNestedError:
    """|T_h - T_2h| bounds the miss of T_h against closed forms."""

    @staticmethod
    def _check(spec, terms, want):
        grid, S, parts, lo, hi = plan = wiener_hopf._bd_plan(spec, terms)
        value, err, _, _ = wiener_hopf._bd_sum(*plan)
        shift = 0.5 * sum(s * S[tau] for _, tau, _, s in terms)
        miss = abs(shift + value / math.pi - math.log(want)) * math.pi  # in units of T
        assert miss <= err + 64 * np.finfo(float).eps * max(1.0, abs(value)), (terms, miss, err)
        assert err <= 1e-6 * max(1.0, abs(value))

    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_bm_drift(self, side):
        for sigma in (0.5, 2.0):
            spec = LevyAtomic(a=0.5, b=0.7, c=sigma)
            for x1, x2 in ((0.3, 2.5), (1e-3, 1e3), (2.0, 1e20)):
                f1, f2 = (closed_form_factors("bm_drift", side, x, b=0.7, sigma=sigma) for x in (x1, x2))
                self._check(spec, ((side, 0.0, x1, 1), (side, 0.0, x2, -1)), f1 / f2)

    @pytest.mark.parametrize("alpha", [0.4, 0.7])
    def test_stable(self, alpha):
        spec = validate_spec(StableSum(((1.0, 0.0, alpha, "plus-i"),)))
        c = eval_f(spec, 1.0 + 0.0j)
        for side in ("plus", "minus"):
            for x1, x2 in ((0.3, 2.5), (4.0, 1e-6)):
                f1, f2 = (closed_form_factors("stable", side, x, c=c, alpha=alpha) for x in (x1, x2))
                self._check(spec, ((side, 0.0, x1, 1), (side, 0.0, x2, -1)), f1 / f2)


def _complex_bd_kappa(spec, terms):
    """``wiener_hopf._bd_kappa`` with a complex integrand: the principal log of each quotient and
    the kernels 1/(x - i a) (plus side) and -1/(x + i a) (minus side) in complex arithmetic,
    times x, summed by the trapezoidal rule on the window of the real sum."""
    f0 = rogers.f_limits(spec).f_at_zero
    S = {tau: math.log(tau + f0) if tau + f0 > 0.0 else 0.0 for _, tau, _, _ in terms}
    poles = {}
    for side, tau, x, s in terms:
        poles.setdefault((side, x), []).append((tau, s))
    shared = {}
    for (side, x), group in poles.items():
        sign = group[0][1]
        shared.setdefault(tuple((tau, s * sign) for tau, s in group), []).append((side, x, sign))
    *_, lo, hi = wiener_hopf._bd_plan(spec, terms)
    _, _, lo, hi = wiener_hopf._bd_sum(*wiener_hopf._bd_plan(spec, terms))
    x = np.exp(np.arange(lo, hi + 1) * wiener_hopf._BD_H)
    f = eval_f(spec, x + 0.0j)
    total = 0.0
    for quot, poles_of in shared.items():
        kern = 0.0
        for side, a, sign in poles_of:
            kern = kern + (sign / (x - 1j * a) if side == "plus" else -sign / (x + 1j * a))
        q = quot[0][0] + f
        for tau, s in quot[1:]:
            q = q * (tau + f) if s > 0 else q / (tau + f)
        total = total + x * kern * (numerics.principal_log(q) - sum(s * S[tau] for tau, s in quot))
    val = wiener_hopf._BD_H * np.sum(total.imag)
    return math.exp(0.5 * sum(s * S[tau] for _, tau, _, s in terms) + val / math.pi)


class TestBdRealIntegrand:
    """The bd contour integrand in real arithmetic: bounded pole kernels x kern, each quotient's
    log as the two real rows log |q| - shift and arg q (by log1p past the first factor)."""

    @staticmethod
    def _terms(side):
        """bd ratio, product, tau-ratio and pr_laplace (tau = 0 and tau > 0) terms on one side."""
        other = "minus" if side == "plus" else "plus"
        return [((side, 0.0, 0.3, 1), (side, 0.0, 1.5, -1)),
                ((side, 0.0, 0.3, 1), (other, 0.0, 1.5, 1)),
                ((side, 1.2, 0.3, 1), (side, 0.2, 0.3, -1)),
                ((side, 0.5, 0.0, 1), (side, 0.5, 1.3, -1)),
                ((side, 0.5, 0.0, 1), (side, 1.3, 1.3, -1))]

    @pytest.mark.parametrize("name", sorted(SHOWCASE))
    def test_parity_with_the_complex_integrand(self, name):
        """Within 1e-14 of the complex integrand summed on the same window."""
        for shift in (0.0, 0.5):
            spec = shift_spec(SHOWCASE[name], shift)
            for side in ("plus", "minus"):
                for terms in self._terms(side):
                    wiener_hopf._BD_KAPPA.clear()
                    real = wiener_hopf._bd_kappa(spec, terms)
                    assert real == pytest.approx(_complex_bd_kappa(spec, terms), rel=1e-14, abs=0.0), (shift, terms)

    @pytest.mark.parametrize("f,error", [(-2.0 + 0.0j, DomainError), (-2.0 + 1e-300j, QuadratureError)])
    def test_quotient_on_the_cut(self, monkeypatch, f, error):
        """A quotient on (-inf, 0] at a node is a DomainError; one just off the cut is not (a
        constant f is no exponent: its sum does not converge)."""
        monkeypatch.setattr(wiener_hopf, "eval_f", lambda spec, x: np.full(np.shape(x), f))
        monkeypatch.setattr(wiener_hopf, "_BD_GRID", _LRU(4))
        monkeypatch.setattr(wiener_hopf, "_BD_KAPPA", _LRU(4))
        with pytest.raises(error):
            wiener_hopf._bd_kappa(SHOWCASE["bm_drift"], (("plus", 0.5, 0.0, 1), ("plus", 0.5, 1.3, -1)))

    def test_pole_kernel_at_extreme_x(self):
        """c0 + sum x c/(x - i b) over one or two poles against the complex form, at x from 1e-308
        to 1e307 where x^2 and r^2 over- or underflow: finite and bounded, im within 4e-15 relative,
        and re within 1e-13 relative wherever it decays (toward infinity; toward x = 0 where the
        second form is asked for), else within 1e-15 absolute.  r clipped at 1e150 leaves im
        1e-150 absolute."""
        x = wiener_hopf._BD_X  # the whole grid, nodes -3540 to 3540
        for b in (1e-3, -1.0, 1e3, 1e-250, -1e250):
            for poles, c0 in (([(1, b)], 0), ([(-1, b)], 1), ([(1, b), (-1, 3.0 * b)], 0)):
                for vanishing in (True, False):
                    re, im = wiener_hopf._pole_kernels(x, -3540, c0, poles, vanishing)
                    assert np.isfinite(re).all() and np.isfinite(im).all()
                    assert np.abs(re).max() <= 2.0 + 1e-15 and np.abs(im).max() <= 2.0
                    for k in range(0, x.size, 251):
                        with mpmath.workdps(1300):  # re cancels to 1e-1116 at x = 1e-308, b = 1e250
                            want = c0 + sum(mpmath.mpf(c) * x[k] / (x[k] - 1j * mpmath.mpf(bb)) for c, bb in poles)
                            w_re, w_im = float(want.real), float(want.imag)
                        assert abs(float(im[k]) - w_im) <= 4e-15 * abs(w_im) + 2e-150, (b, poles, k)
                        loose = vanishing and x[k] < abs(b)  # the first form, where it need not decay
                        assert abs(float(re[k]) - w_re) <= 1e-13 * abs(w_re) + (1e-15 if loose else 1e-300), \
                            (b, poles, c0, vanishing, k)


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


class TestRationalClosedForm:
    """At tau = 0 a RationalProduct's factors are products of its own factors: f+(x) is the
    product over the minus-i factors (-i xi + m)^e at xi = i x, f- that over the plus-i ones."""

    SPECS = {
        **{name: SHOWCASE[name] for name in ("quadratic_over_pole", "rational_pole_pair",
                                             "rational_three_arcs", "rational_three_arcs_tight")},
        "rational_bounded": BOUNDED["rational_bounded"],
    }
    PAIRS = ((1e-6, 1e3), (1e3, 1e-6), (1e-6, 0.05), (0.3, 1.5), (2.0, 40.0), (1e-3, 7.0))

    @staticmethod
    def _ratio(spec, side, x1, x2):
        own = "minus-i" if side == "plus" else "plus-i"
        return math.prod(((x1 + f.m) / (x2 + f.m)) ** f.exponent
                         for f in spec.factors if f.orientation == own)

    @pytest.mark.parametrize("method, rel", [("bd", 1e-12), ("spine", 1e-12), ("phi", 1e-9)])
    @pytest.mark.parametrize("side", ["plus", "minus"])
    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_ratio(self, name, side, method, rel):
        spec = self.SPECS[name]
        for x1, x2 in self.PAIRS:
            want = self._ratio(spec, side, x1, x2)
            assert wh_ratio(spec, method, side, x1, x2) == pytest.approx(want, rel=rel), (x1, x2)


def _two_record_handle(spec, side):
    """Reference factor kernel and scale: one one-side record per side, read off the table
    apart (its breakpoints on that side, the innermost value held across the inner gap), and
    the anchor at xi = 1 from a one-point pass on each."""
    table = get_phi_table(spec)

    def record(side):
        s, v = np.asarray(table.breakpoints), np.asarray(table.values)
        if side == "minus":
            s, v = -s[::-1], v[::-1]
        s, p = s[s > 0.0], v[s > 0.0]
        return rogers._Cells((np.append(0.0, s), np.append(p[0], p), p[-1]))

    own, other = record(side), record("minus" if side == "plus" else "plus")
    z = -1j if side == "plus" else 1j
    e = own.exponent(z) + other.exponent(-z)
    return own, math.sqrt(abs(eval_f(spec, 1.0 + 0.0j) * cmath.exp(-complex(e))))


class TestFactorRecord:
    """The handles of one table read one two-sided record of its factor kernels."""

    XI = np.array([0.0, 1e-6, 0.3, 1.0, 7.5, 1e4, 0.3 + 0.2j, 2.0 - 1.0j, 5.0j, -1.0 + 0.5j])

    @pytest.mark.parametrize("shift", [0.0, 0.5])
    @pytest.mark.parametrize("name", sorted(SHOWCASE))
    def test_handles_match_two_records(self, name, shift):
        """Scales and values, in arrays and one point at a time, bitwise those of a record per
        side; a phi-route ratio is the quotient of the single-point values."""
        spec = shift_spec(SHOWCASE[name], shift)
        for side in ("plus", "minus"):
            handle = get_factor_handle(spec, side)
            own, scale = _two_record_handle(spec, side)
            want = scale * np.exp(own.exponent(self.XI))
            assert handle.scale == scale
            assert handle.eval(self.XI).tobytes() == want.tobytes()
            for x in self.XI:  # one point: real and > 0 takes the kernel's real branch
                assert handle.eval(complex(x)) == complex(scale * np.exp(own.exponent(x)))
            quot = handle.eval(0.3 + 0.0j) / handle.eval(1.5 + 0.0j)
            assert wh_ratio(spec, "phi", side, 0.3, 1.5) == float(quot.real)

    def test_cold_pair_takes_two_passes(self, monkeypatch):
        """On a cached table: the record's constants, then the pair's anchor, one pass each."""
        spec = shift_spec(SHOWCASE["tempered_stable"], 0.3)
        for cache in ("_PHI_CACHE", "_HANDLE_CACHE"):
            monkeypatch.setattr(wiener_hopf, cache, _LRU(4))
        get_phi_table(spec)
        before = work_counts()["phi_kernel.passes"]
        factor_pair(spec)
        assert work_counts()["phi_kernel.passes"] - before == 2


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

    def test_factor_pair_copies_the_cached_handles(self, fig_a):
        cached = get_factor_handle(fig_a, "plus"), get_factor_handle(fig_a, "minus")
        scales = [h.scale for h in cached]
        alt = factor_pair(fig_a, kappa=7.0)
        assert [h.scale for h in cached] == scales
        assert alt[0].scale == 7.0 * scales[0] and alt[1].scale == scales[1] / 7.0
        z = np.array([0.3, 2.0 + 1.0j, 40.0 - 3.0j])
        for pair_handle, handle in zip(factor_pair(fig_a), cached):
            assert pair_handle is not handle
            assert pair_handle.eval(z).tobytes() == handle.eval(z).tobytes()

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
                 wiener_hopf._BD_KAPPA, wiener_hopf._BD_GRID, fluctuation._SUP_CACHE)
        assert all(isinstance(m, _LRU) and 0 <= len(m) <= m.maxsize for m in memos)
        assert fig_a in wiener_hopf._PHI_CACHE and (fig_a, "plus") in wiener_hopf._HANDLE_CACHE
