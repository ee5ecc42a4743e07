"""Spine angle, monotone profile, region classification, invariants."""

import math

import numpy as np
import pytest

from levycm import (
    DomainError,
    LevyAtomic,
    PhiRep,
    PhiTable,
    SpineUndefinedError,
    eval_f,
    f_limits,
    shift_spec,
)
from levycm import numerics, spine
from levycm.numerics import make_rng
from levycm.specio import SHOWCASE
from levycm.spine import (
    _lambda_flagged,
    build_spine_table,
    classify_point,
    lambda_at,
    solve_spine,
    spine_invariant_report,
    theta_at,
)
from levycm.verify import default_spine_range

from conftest import showcase

SYMMETRIC = LevyAtomic(a=1.0)  # f = xi^2


class TestThetaAt:
    def test_symmetric_spine_on_reals(self):
        for r in (0.1, 1.0, 7.0):
            assert theta_at(SYMMETRIC, r) == pytest.approx(0.0, abs=1e-12)

    def test_bm_drift_interior(self, fig_a):
        # im f = x (y - 1): the spine is the horizontal line y = 1
        assert theta_at(fig_a, math.sqrt(2.0)) == pytest.approx(math.pi / 4, abs=1e-11)

    def test_bm_drift_axis_hugging(self, fig_a):
        assert theta_at(fig_a, 0.5) == 0.5 * math.pi

    def test_endpoints_evaluated_once(self, fig_a, monkeypatch):
        """Each bracket end is evaluated once, then one point per bisection step."""
        points, steps = [], []

        def counting_eval_f(spec, xi):
            points.append(xi)
            return eval_f(spec, xi)

        def counting_bisect(g, lo, hi, *args, **kwargs):
            def step(alpha):
                assert lo < alpha < hi
                steps.append(alpha)
                return g(alpha)

            return numerics.bisect_monotone(step, lo, hi, *args, **kwargs)

        monkeypatch.setattr(spine, "eval_f", counting_eval_f)
        monkeypatch.setattr(spine, "bisect_monotone", counting_bisect)
        assert theta_at(fig_a, math.sqrt(2.0)) == pytest.approx(math.pi / 4, abs=1e-11)
        assert steps and len(points) == 2 + len(steps)

    def test_constant_rejected(self):
        with pytest.raises(SpineUndefinedError):
            theta_at(LevyAtomic(c=1.0), 1.0)

    def test_pure_drift_hugs_axis(self):
        assert theta_at(LevyAtomic(b=1.0), 2.0) == 0.5 * math.pi
        assert theta_at(LevyAtomic(b=-1.0), 2.0) == -0.5 * math.pi


class TestLambdaAt:
    def test_symmetric(self):
        assert lambda_at(SYMMETRIC, 2.0) == pytest.approx(4.0, rel=1e-12)

    def test_bm_drift_interior(self, fig_a):
        assert lambda_at(fig_a, math.sqrt(2.0)) == pytest.approx(1.0, rel=1e-10)

    def test_bm_drift_axis(self, fig_a):
        assert lambda_at(fig_a, 0.5) == pytest.approx(0.375, rel=1e-10)


class TestSolveSpine:
    """The lockstep array solve against the per-radius scalar path."""

    @staticmethod
    def _assert_matches_scalar(spec, radii):
        s = solve_spine(spec, radii)
        for k, r in enumerate(radii.tolist()):
            lam, theta, flag = _lambda_flagged(spec, r)
            assert abs(s.theta[k] - theta) <= 1e-12
            assert bool(s.in_Z[k]) == (abs(theta) < 0.5 * math.pi - 1e-7)
            assert s.flag[k] == flag
            assert abs(s.lam[k] - lam) <= 1e-12 * abs(lam)
            assert abs(abs(s.zeta[k]) - r) <= 1e-12 * r
        return s

    @pytest.mark.parametrize("tau", [0.0, 0.2, 2.0])
    @pytest.mark.parametrize("name", sorted(SHOWCASE))
    def test_presets(self, name, tau):
        spec = shift_spec(SHOWCASE[name], tau)
        lo, hi = default_spine_range(spec)
        self._assert_matches_scalar(spec, np.geomspace(lo, hi, 64))

    def test_symmetric(self):
        s = self._assert_matches_scalar(SYMMETRIC, np.geomspace(0.1, 10.0, 64))
        assert s.in_Z.all()

    def test_bm_drift_on_axis(self, fig_a):
        # below r = 1 the spine runs along +i r and theta is pi/2 exactly
        radii = np.geomspace(0.05, 0.95, 64)
        s = self._assert_matches_scalar(fig_a, radii)
        assert np.all(s.theta == 0.5 * math.pi)
        assert not s.in_Z.any()
        assert np.all(s.zeta == 1j * radii)

    def test_piecewise_constant_phirep(self):
        table = PhiTable((-2.0, 0.0, 3.0), (0.4 * math.pi, 0.7 * math.pi), "piecewise-constant")
        spec = PhiRep(1.3, table)
        lo, hi = default_spine_range(spec)
        self._assert_matches_scalar(spec, np.geomspace(lo, hi, 64))

    @pytest.mark.parametrize("letter", ["a", "g"])
    def test_table_matches_per_radius_points(self, letter):
        spec = showcase(letter)
        lo, hi = default_spine_range(spec)
        table = build_spine_table(spec, lo, hi, 128)
        for p in table.points:
            lam, theta, flag = _lambda_flagged(spec, p.r)
            assert abs(p.theta - theta) <= 1e-12
            assert p.in_Z == (abs(theta) < 0.5 * math.pi - 1e-7)
            assert p.flag == flag
            assert abs(p.lam - lam) <= 1e-12 * abs(lam)
            if abs(theta) == 0.5 * math.pi:
                assert p.zeta == complex(0.0, math.copysign(p.r, theta))
            else:
                assert abs(p.zeta - p.r * np.exp(1j * theta)) <= 1e-12 * p.r

    def test_rejects_bad_input(self, fig_a):
        with pytest.raises(SpineUndefinedError):
            solve_spine(LevyAtomic(c=1.0), np.array([1.0]))
        with pytest.raises(DomainError):
            solve_spine(fig_a, np.array([1.0, 0.0]))


class TestSpineTable:
    def test_bm_drift_closed_form(self, fig_a):
        table = build_spine_table(fig_a, 0.1, 10.0, 200)
        assert len(table.z_intervals) == 1
        lo, hi = table.z_intervals[0]
        assert lo == pytest.approx(1.0, abs=1e-9)
        assert hi == pytest.approx(10.0)
        for p in table.points:
            if p.in_Z and p.r >= 1.0 + 1e-6:
                assert abs(p.zeta.imag - 1.0) < 1e-8
                assert p.theta == pytest.approx(math.asin(1.0 / p.r), abs=1e-8)

    def test_symmetric_all_interior(self):
        table = build_spine_table(SYMMETRIC, 0.1, 10.0, 64)
        assert all(p.in_Z for p in table.points)
        assert np.allclose(table.thetas(), 0.0, atol=1e-12)
        np.testing.assert_allclose(table.lambdas(), table.radii() ** 2, rtol=1e-12)

    def test_stable_angle_constant(self, fig_b):
        # scale invariance: the spine of a homogeneous exponent is a ray
        table = build_spine_table(fig_b, 0.1, 10.0, 64)
        th = table.thetas()
        assert th.max() - th.min() < 1e-9

    def test_three_components(self, fig_g):
        lo, hi = default_spine_range(fig_g)
        table = build_spine_table(fig_g, lo, hi, 400)
        assert len(table.z_intervals) == 3

    def test_invalid_grid(self, fig_a):
        with pytest.raises(DomainError):
            build_spine_table(fig_a, 1.0, 0.1, 64)
        with pytest.raises(DomainError):
            build_spine_table(fig_a, 0.1, 1.0, 8)

    def test_profile_monotone_and_radius_exact(self, fig_a, fig_c):
        for spec in (fig_a, fig_c):
            lo, hi = default_spine_range(spec)
            table = build_spine_table(spec, lo, hi, 128)
            lam = table.lambdas()
            assert np.all(np.diff(lam) > -1e-11 * (1.0 + np.abs(lam[:-1])))
            for p in table.points:
                assert abs(abs(p.zeta) - p.r) <= 1e-12 * p.r

    def test_profile_endpoints_reach_limits(self, fig_c):
        lim = f_limits(fig_c)
        table = build_spine_table(fig_c, 1e-4, 1e4, 128)
        lam = table.lambdas()
        assert lam[0] == pytest.approx(lim.f_at_zero, rel=1e-4)


class TestClassifyPoint:
    def test_off_axis(self, fig_a):
        assert classify_point(fig_a, 1.0 + 2.0j) == "D_plus"
        assert classify_point(fig_a, 1.0 + 0.0j) == "D_minus"

    def test_on_spine(self, fig_a):
        assert classify_point(fig_a, 3.0 + 1.0j) == "on_spine"

    def test_axis_rules(self, fig_a):
        # the spine of xi^2 stays on the reals, so ir sits strictly above it
        assert classify_point(SYMMETRIC, 3.0j) == "D_plus"
        assert classify_point(SYMMETRIC, -3.0j) == "D_minus"
        # the bm-drift spine runs along +i r for r < 1
        assert classify_point(fig_a, 0.5j) == "D_minus"
        assert classify_point(fig_a, -0.5j) == "D_minus"

    def test_zero_rejected(self, fig_a):
        with pytest.raises(DomainError):
            classify_point(fig_a, 0.0)

    def test_component_constant(self, fig_a):
        """Midpoints between adjacent spine samples agree with both ends."""
        table = build_spine_table(fig_a, 0.2, 5.0, 64)
        rng = make_rng(21)
        pts = [p for p in table.points if p.in_Z]
        for _ in range(20):
            k = rng.integers(0, len(pts) - 1)
            a, b = pts[k], pts[k + 1]
            mid = 0.5 * (a.zeta + b.zeta) * (1.0 + 0.05j)  # nudge off the curve
            got = classify_point(fig_a, mid)
            up = eval_f(fig_a, mid).imag > 0
            assert got == ("D_plus" if up else "D_minus")


class TestInvariantSuite:
    def test_bm_drift_passes(self, fig_a):
        table = build_spine_table(fig_a, 0.1, 10.0, 200)
        rep = spine_invariant_report(table, fig_a)
        assert rep.passed, rep.failures()
        # annulus length of the closed-form spine is far below the bound
        annulus = [c for c in rep.checks if c.name == "annulus-length"][0]
        assert annulus.margin > 0.9

    def test_symmetric_trivial(self):
        table = build_spine_table(SYMMETRIC, 0.1, 10.0, 128)
        rep = spine_invariant_report(table, SYMMETRIC)
        assert rep.passed

    def test_three_arc_gallery(self, fig_g):
        lo, hi = default_spine_range(fig_g)
        table = build_spine_table(fig_g, lo, hi, 400)
        rep = spine_invariant_report(table, fig_g)
        assert rep.passed, rep.failures()
        assert len(table.z_intervals) == 3

    def test_needs_dense_table(self, fig_a):
        small = build_spine_table(fig_a, 0.1, 10.0, 32)
        with pytest.raises(DomainError):
            spine_invariant_report(small, fig_a)


class TestWindingIntegral:
    """Cauchy-kernel circulation along the symmetrized spine.

    Integrating 1/(z - xi1) - 1/(z - xi2) along the full symmetrized curve
    (mirror branch, axis segments included) counts which of the two points
    lies in the upper region: the result is the indicator difference.
    """

    @staticmethod
    def _curve(spec, n=3000, r_lo=1e-4, r_hi=1e4):
        radii = np.geomspace(r_lo, r_hi, n)
        zeta = np.array(
            [r * np.exp(1j * theta_at(spec, float(r))) for r in radii]
        )
        mirror = -np.conj(zeta)[::-1]
        return np.concatenate([mirror, zeta])

    def _winding(self, curve, xi1, xi2):
        k = 1.0 / (curve - xi1) - 1.0 / (curve - xi2)
        mid = 0.5 * (k[:-1] + k[1:])
        total = np.sum(mid * np.diff(curve))
        return total / (2j * math.pi)

    def test_indicator_difference(self, fig_a):
        curve = self._curve(fig_a)
        # 1+2i lies above the spine line, 1 below; 2+i sits on neither side's
        # axis so pairing it with its mirror-side twin gives zero
        val = self._winding(curve, 1.0 + 2.0j, 1.0 + 0.0j)
        assert val == pytest.approx(1.0, abs=2e-3)
        val = self._winding(curve, 1.0 + 2.0j, -1.0 + 3.0j)
        assert val == pytest.approx(0.0, abs=2e-3)
        val = self._winding(curve, 1.0 - 2.0j, 0.5 + 0.0j)
        assert val == pytest.approx(0.0, abs=2e-3)

    def test_symmetric_exponent(self):
        curve = self._curve(SYMMETRIC)
        # the spine is the real line; upper vs lower half-plane points
        val = self._winding(curve, 1.0 + 1.0j, 1.0 - 1.0j)
        assert val == pytest.approx(1.0, abs=2e-3)


class TestAngularSignRule:
    def test_sampled(self, fig_a, fig_b):
        rng = make_rng(8)
        for spec in (fig_a, fig_b):
            for _ in range(20):
                r = math.exp(rng.uniform(math.log(0.2), math.log(5.0)))
                alpha = rng.uniform(-1.4, 1.4)
                th = theta_at(spec, r)
                arg_f = np.angle(eval_f(spec, r * np.exp(1j * alpha)))
                if abs(arg_f) > 1e-9:
                    assert math.copysign(1.0, arg_f) == math.copysign(1.0, alpha - th)
