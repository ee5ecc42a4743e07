"""Spine angle, monotone profile, region classification, invariants."""

import math
from dataclasses import replace

import numpy as np
import pytest

from levycm import (
    DomainError,
    LevyAtomic,
    PhiRep,
    PhiTable,
    SpineUndefinedError,
    eval_f,
    eval_f_prime,
    f_limits,
    shift_spec,
)
from levycm import numerics, spine, verify
from levycm.numerics import make_rng
from levycm.report import VerifyReport
from levycm.specio import SHOWCASE
from levycm.spine import (
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
PWC = PhiRep(1.3, PhiTable((-2.0, 0.0, 3.0), (0.4 * math.pi, 0.7 * math.pi), "piecewise-constant"))
LIN5 = PhiRep(
    1.2, PhiTable((-5.0, -1.0, 0.5, 2.0, 8.0), (0.2, 1.4, 0.9, 2.0, 0.6), "piecewise-linear")
)


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
        """Both bracket ends in one eval_f call, then one call per lockstep step, never at an end."""
        points, steps = [], []

        def counting_eval_f(spec, xi):
            points.append(np.angle(xi).ravel())
            return eval_f(spec, xi)

        def counting_root(g, *args):
            def step(idx, x):
                assert idx.size
                steps.append(x)
                return g(idx, x)

            return solver(step, *args)

        solver = spine._lockstep_root
        monkeypatch.setattr(spine, "eval_f", counting_eval_f)
        monkeypatch.setattr(spine, "_lockstep_root", counting_root)
        assert theta_at(fig_a, math.sqrt(2.0)) == pytest.approx(math.pi / 4, abs=1e-11)
        assert steps and len(points) == 1 + len(steps)
        lo, hi = points[0]
        assert (lo, hi) == pytest.approx((-0.5 * math.pi + spine._EDGE, 0.5 * math.pi - spine._EDGE))
        assert all(p.size == 1 and lo < p[0] < hi for p in points[1:])

    def test_constant_rejected(self):
        with pytest.raises(SpineUndefinedError):
            theta_at(LevyAtomic(c=1.0), 1.0)

    def test_pure_drift_hugs_axis(self):
        assert theta_at(LevyAtomic(b=1.0), 2.0) == 0.5 * math.pi
        assert theta_at(LevyAtomic(b=-1.0), 2.0) == -0.5 * math.pi


class TestNonFiniteRadius:
    """Every spine entry point rejects a radius that is not finite."""

    @pytest.mark.parametrize("r", [math.inf, math.nan])
    def test_theta_at(self, fig_a, r):
        with pytest.raises(DomainError):
            theta_at(fig_a, r)

    @pytest.mark.parametrize("r", [math.inf, math.nan])
    def test_lambda_at(self, fig_a, r):
        with pytest.raises(DomainError):
            lambda_at(fig_a, r)

    @pytest.mark.parametrize("r", [math.inf, math.nan])
    def test_solve_spine(self, fig_a, r):
        with pytest.raises(DomainError):
            solve_spine(fig_a, np.array([1.0, r]))

    @pytest.mark.parametrize("r", [math.inf, math.nan])
    def test_build_spine_table(self, fig_a, r):
        with pytest.raises(DomainError):
            build_spine_table(fig_a, 0.1, r, 64)

    @pytest.mark.parametrize("n", [math.nan, math.inf, 20.5])
    def test_build_spine_table_count(self, fig_a, n):
        """A sample count that is not finite or not integral is a DomainError, not truncated."""
        with pytest.raises(DomainError):
            build_spine_table(fig_a, 0.1, 10.0, n)

    def test_build_spine_table_integral_float_count(self, fig_a):
        got, want = build_spine_table(fig_a, 0.1, 10.0, 20.0), build_spine_table(fig_a, 0.1, 10.0, 20)
        assert got.radii().tobytes() == want.radii().tobytes() and got.z_intervals == want.z_intervals

    @pytest.mark.parametrize("xi", [complex(0.0, math.inf), complex(math.nan, 1.0), complex(1.0, math.nan)])
    def test_classify_point(self, fig_a, xi):
        with pytest.raises(DomainError):
            classify_point(fig_a, xi)


class TestLockstepRoot:
    """The lockstep root solver (``numerics._lockstep_root``) as the spine angle uses it."""

    def test_bm_drift_closed_form(self, fig_a):
        """im f(r e^{i alpha}) = r cos(alpha) (r sin(alpha) - 1): theta = arcsin(1/r) for r > 1."""
        r = np.exp(make_rng(22).uniform(1e-3, math.log(1e3), 200))
        theta = spine._theta_array(fig_a, r)
        want = np.arcsin(1.0 / r)
        assert np.all(np.abs(theta - want) <= 1e-12)
        assert np.all(theta == [theta_at(fig_a, x) for x in r.tolist()])  # one solver

    def test_constant_sign_and_end_zeros(self, monkeypatch):
        """Constant signs give -+pi/2 and an exact zero at an end gives that end, with no step."""
        half = 0.5 * math.pi
        # im f per radius: r = 1 and 2 constant signs, r = 3 and 4 zero at an end, r = 5 a root at 0.25
        cases = {
            1.0: lambda a: 1.0 + 0.0 * a,
            2.0: lambda a: -1.0 + 0.0 * a,
            3.0: lambda a: np.where(a < -1.0, 0.0, 1.0),
            4.0: lambda a: np.where(a > 1.0, 0.0, -1.0),
            5.0: lambda a: a - 0.25,
        }
        calls = []

        def fake_eval_f(spec, xi):
            calls.append(np.size(xi))
            r = np.round(np.abs(xi), 9)
            alpha = np.angle(xi)
            out = np.empty(np.shape(xi))
            for key, fn in cases.items():
                out[r == key] = fn(alpha[r == key])
            return 1j * out

        monkeypatch.setattr(spine, "eval_f", fake_eval_f)
        theta = spine._theta_array(None, np.array(sorted(cases)))
        assert theta[:4].tolist() == [-half, half, -half + spine._EDGE, half - spine._EDGE]
        assert abs(theta[4] - 0.25) <= 5e-13
        assert calls[0] == 10 and all(c == 1 for c in calls[1:])


class TestLambdaAt:
    def test_symmetric(self):
        assert lambda_at(SYMMETRIC, 2.0) == pytest.approx(4.0, rel=1e-12)

    def test_bm_drift_interior(self, fig_a):
        assert lambda_at(fig_a, math.sqrt(2.0)) == pytest.approx(1.0, rel=1e-10)

    def test_bm_drift_axis(self, fig_a):
        assert lambda_at(fig_a, 0.5) == pytest.approx(0.375, rel=1e-10)

    @pytest.mark.parametrize("name", sorted(SHOWCASE))
    def test_is_the_array_solve(self, name):
        """lambda_at is solve_spine at one radius: bitwise its lambda, in Z and off it."""
        spec = SHOWCASE[name]
        r = np.geomspace(*default_spine_range(spec), 40)
        got = [lambda_at(spec, x) for x in r.tolist()]
        assert got == [float(solve_spine(spec, np.array([x])).lam[0]) for x in r.tolist()]
        assert np.array_equal(got, solve_spine(spec, r).lam)


class TestSolveSpine:
    """The lockstep array solve against the per-radius calls."""

    @staticmethod
    def _assert_matches_scalar(spec, radii):
        s = solve_spine(spec, radii)
        for k, r in enumerate(radii.tolist()):
            lam, theta = lambda_at(spec, r), theta_at(spec, r)
            assert abs(s.theta[k] - theta) <= 1e-12
            assert bool(s.in_Z[k]) == (abs(theta) < 0.5 * math.pi - 1e-7)
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
        lo, hi = default_spine_range(PWC)
        self._assert_matches_scalar(PWC, np.geomspace(lo, hi, 64))

    @pytest.mark.parametrize("letter", ["a", "g"])
    def test_table_matches_per_radius_points(self, letter):
        spec = showcase(letter)
        lo, hi = default_spine_range(spec)
        s = build_spine_table(spec, lo, hi, 128).samples
        for k, r in enumerate(s.r.tolist()):
            lam, theta = lambda_at(spec, r), theta_at(spec, r)
            assert abs(s.theta[k] - theta) <= 1e-12
            assert s.in_Z[k] == (abs(theta) < 0.5 * math.pi - 1e-7)
            assert abs(s.lam[k] - lam) <= 1e-12 * abs(lam)
            if abs(theta) == 0.5 * math.pi:
                assert s.zeta[k] == complex(0.0, math.copysign(r, theta))
            else:
                assert abs(s.zeta[k] - r * np.exp(1j * theta)) <= 1e-12 * r

    @pytest.mark.parametrize("tau", [0.0, 0.2])
    def test_bm_drift_axis_profile_closed_form(self, fig_a, tau):
        """Off Z, lambda = f(i side r) = -a r^2 + b side r + c and its slope is r (b side - 2 a r)."""
        spec = shift_spec(fig_a, tau)
        s = solve_spine(spec, np.geomspace(0.05, 0.95, 40))
        assert not s.in_Z.any()
        side = np.sign(s.theta)
        lam = -spec.a * s.r**2 + spec.b * side * s.r + spec.c
        slope = s.r * (spec.b * side - 2.0 * spec.a * s.r)
        np.testing.assert_allclose(s.lam, lam, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(spine._profile_slope(spec, s), slope, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("radii", [np.ones((2, 2)), np.array(1.0)], ids=["2-d", "0-d"])
    def test_rejects_radii_not_1d(self, fig_a, radii):
        with pytest.raises(DomainError):
            solve_spine(fig_a, radii)

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
        s = table.samples
        upper = s.in_Z & (s.r >= 1.0 + 1e-6)
        assert np.all(np.abs(s.zeta[upper].imag - 1.0) < 1e-8)
        assert s.theta[upper] == pytest.approx(np.arcsin(1.0 / s.r[upper]), abs=1e-8)

    def test_quadratic_over_pole_boundary(self, fig_e):
        lo, hi = default_spine_range(fig_e)
        table = build_spine_table(fig_e, lo, hi, 256)
        ends = [r for iv in table.z_intervals for r in iv if lo < r < hi]
        assert ends == [pytest.approx(4.0, abs=1e-9)]

    def test_one_solve_per_table(self, fig_e, monkeypatch):
        """The Z boundaries come from ray signs, not from a second spine solve."""
        solve, sizes = spine.solve_spine, []

        def counted(spec, radii):
            sizes.append(len(radii))
            return solve(spec, radii)

        monkeypatch.setattr(spine, "solve_spine", counted)
        lo, hi = default_spine_range(fig_e)
        table = build_spine_table(fig_e, lo, hi, 256)
        assert any(lo < r < hi for iv in table.z_intervals for r in iv)
        assert sizes == [256]

    def test_symmetric_all_interior(self):
        table = build_spine_table(SYMMETRIC, 0.1, 10.0, 64)
        assert table.in_z_mask().all()
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
            r = table.radii()
            assert np.all(np.abs(np.abs(table.zetas()) - r) <= 1e-12 * r)

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

    def test_hugging_axis_point_one_solve(self, fig_a, monkeypatch):
        """The angle at r and both neighbour angles r (1 -+ 1e-3) take one lockstep solve.

        The batch gives each angle bitwise as ``theta_at`` does.
        """
        r = 0.5
        alone = [theta_at(fig_a, r * m) for m in (1.0, 1.0 - 1e-3, 1.0 + 1e-3)]
        assert alone == spine._theta_array(fig_a, r * np.array([1.0, 1.0 - 1e-3, 1.0 + 1e-3])).tolist()
        calls = []
        root = spine._lockstep_root

        def counted(*args):
            calls.append(args[1].size)
            return root(*args)

        monkeypatch.setattr(spine, "_lockstep_root", counted)
        assert classify_point(fig_a, r * 1j) == "D_minus"
        assert calls == [3], calls

    def test_zero_rejected(self, fig_a):
        with pytest.raises(DomainError):
            classify_point(fig_a, 0.0)

    def test_component_constant(self, fig_a):
        """Midpoints between adjacent spine samples agree with both ends."""
        table = build_spine_table(fig_a, 0.2, 5.0, 64)
        rng = make_rng(21)
        zs = table.zetas()[table.in_z_mask()].tolist()
        for _ in range(20):
            k = rng.integers(0, len(zs) - 1)
            mid = 0.5 * (zs[k] + zs[k + 1]) * (1.0 + 0.05j)  # nudge off the curve
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

    @pytest.mark.parametrize("name", sorted(SHOWCASE))
    def test_angle_continuity_samples_every_z_interval(self, name):
        """With no sample the check reads exactly 0; every preset with a Z interval checks some."""
        spec = SHOWCASE[name]
        lo, hi = default_spine_range(spec)
        table = build_spine_table(spec, lo, hi, 256)
        if not table.z_intervals:
            pytest.skip("no Z interval in the default range")
        check = [c for c in spine_invariant_report(table, spec).checks if c.name == "angle-continuity"][0]
        assert check.passed and check.margin > 0.0

    def test_angle_continuity_catches_a_kink(self, fig_a, monkeypatch):
        table = build_spine_table(fig_a, 0.1, 10.0, 200)
        s = table.samples
        k = int(np.argmin(np.abs(s.r - 3.0)))
        assert s.in_Z[k]
        # theta gains slope 10 in log r from between the second and third sample of point k
        u0 = math.log(s.r[k]) + 1.5 * math.cos(s.theta[k]) / 90.0
        solve = spine.solve_spine

        def kinked(spec, radii):
            out = solve(spec, radii)
            return replace(out, theta=out.theta + 10.0 * np.maximum(np.log(out.r) - u0, 0.0))

        assert spine_invariant_report(table, fig_a).passed
        monkeypatch.setattr(spine, "solve_spine", kinked)
        rep = spine_invariant_report(table, fig_a)
        assert [c.name for c in rep.checks if not c.passed] == ["angle-continuity"]

    def test_needs_dense_table(self, fig_a):
        small = build_spine_table(fig_a, 0.1, 10.0, 32)
        with pytest.raises(DomainError):
            spine_invariant_report(small, fig_a)


def _refine_z_boundary(spec, r_in, r_out):
    """Where |theta| crosses pi/2 - ANGLE_TOL, by scalar bisection of theta_at (the former locator)."""
    half = 0.5 * math.pi

    def b(r):
        return abs(theta_at(spec, r)) - (half - spine.ANGLE_TOL)

    lo, hi = (r_in, r_out) if r_in < r_out else (r_out, r_in)
    blo, bhi = b(lo), b(hi)
    sign_flip = 1.0 if bhi > blo else -1.0
    return numerics.bisect_monotone(lambda r: sign_flip * b(r), lo, hi, tol=1e-12 * hi)


def _loop_z_intervals(spec, radii, in_z):
    """Z runs by a per-sample walk, each inner end refined (the former builder)."""
    r = radii.tolist()
    intervals = []
    k = 0
    while k < len(r):
        if in_z[k]:
            start = k
            while k + 1 < len(r) and in_z[k + 1]:
                k += 1
            lo, hi = r[start], r[k]
            if start > 0:
                lo = _refine_z_boundary(spec, r[start], r[start - 1])
            if k + 1 < len(r):
                hi = _refine_z_boundary(spec, r[k], r[k + 1])
            intervals.append((lo, hi))
        k += 1
    return tuple(intervals)


def _loop_invariant_report(table, spec):
    """The invariant report by per-sample loops with scalar evaluations (the former report)."""
    rep = VerifyReport("spine-invariants")
    radii, zetas = table.radii(), table.zetas()
    n = radii.size
    slack = 1.1
    u = np.log(radii)
    h = u[1] - u[0]
    theta = table.thetas()
    lam = table.lambdas()
    in_z = table.in_z_mask()

    worst = math.inf
    for k in range(1, n - 1):
        if not (in_z[k - 1] and in_z[k] and in_z[k + 1]):
            continue
        d1 = (theta[k + 1] - theta[k - 1]) / (2.0 * h)
        d2 = (theta[k + 1] - 2.0 * theta[k] + theta[k - 1]) / h**2
        bound = slack * 9.0 * (d1 * d1 + 1.0) / math.cos(theta[k])
        worst = min(worst, (bound - abs(d2)) / bound)
    rep.add("curvature-bound", 0.0 if worst is math.inf else worst, tol=1e-12)

    seg_mid = []
    seg_len = []
    for k in range(n - 1):
        if in_z[k] and in_z[k + 1]:
            seg_mid.append(0.5 * (radii[k] + radii[k + 1]))
            seg_len.append(abs(complex(zetas[k + 1]) - complex(zetas[k])))
    seg_mid = np.array(seg_mid)
    seg_len = np.array(seg_len)
    worst = math.inf
    worst_r = None
    for L in radii[:: max(1, n // 64)]:
        if 2.0 * L > radii[-1]:
            break
        inside = (seg_mid >= L) & (seg_mid <= 2.0 * L)
        length = float(seg_len[inside].sum())
        margin = (300.0 * L - length) / (300.0 * L)
        if margin < worst:
            worst, worst_r = margin, float(L)
    rep.add("annulus-length", 0.0 if worst is math.inf else worst, {"r": worst_r}, tol=1e-12)

    window = math.log(1.0 + math.sqrt(2.0))
    dtheta = np.where(in_z[:-1] & in_z[1:], np.abs(np.diff(theta)), 0.0)
    worst = math.inf
    for k in range(n - 1):
        j = np.searchsorted(u, u[k] + window, side="right") - 1
        worst = min(worst, (140.0 - float(dtheta[k:j].sum())) / 140.0)
    rep.add("angle-variation", 0.0 if worst is math.inf else worst, tol=1e-12)

    dlam = np.diff(lam)
    scale = 1.0 + np.abs(lam[:-1])
    rep.add("profile-nondecreasing", float(np.min(dlam / scale)), tol=1e-11)
    z_pairs = in_z[:-1] & in_z[1:]
    if z_pairs.any():
        rep.add("profile-strict-on-Z", float(np.min(dlam[z_pairs])), tol=0.0)

    worst = math.inf
    edge = 0.5 * math.pi - spine.ANGLE_TOL
    for k in range(n):
        if not in_z[k]:
            continue
        hk = math.cos(theta[k]) / 90.0
        t1 = theta_at(spec, radii[k] * math.exp(hk))
        if abs(t1) >= edge or abs(t1 - theta[k]) / hk > 1.0:
            continue
        t2 = theta_at(spec, radii[k] * math.exp(2.0 * hk))
        if abs(t2) < edge:
            worst = min(worst, (2.0 * slack - abs(t2 - t1) / hk) / (2.0 * slack))
    rep.add("angle-continuity", 0.0 if worst is math.inf else worst, tol=1e-12)

    worst = math.inf
    for k in range(n):
        if not in_z[k]:
            continue
        z = complex(zetas[k])
        ratio = abs(eval_f_prime(spec, z) / eval_f(spec, z))
        bound = slack * math.pi / abs(z)
        worst = min(worst, (bound - ratio) / bound)
    if worst is not math.inf:
        rep.add("spine-log-derivative", worst, tol=1e-12)

    # profile continuity: one solve on the four radii beside each Z boundary
    # inside the grid, outside Z first (the former builder's check)
    for r_star, inward in [(b, w) for iv in table.z_intervals for b, w in zip(iv, (1.0, -1.0))]:
        if not radii[0] < r_star < radii[-1]:
            continue
        near = [r_star * (1.0 + inward * d) for d in (-1e-4, -2e-4, 1e-4, 2e-4)]
        l_out, l_out2, l_in, l_in2 = solve_spine(spec, near).lam
        at_out, at_in = 2.0 * l_out - l_out2, 2.0 * l_in - l_in2
        mism = float(abs(at_out - at_in) / (1.0 + abs(at_out)))
        witness = {"r": r_star, "mismatch": mism}
        rep.add("profile-continuity", (1e-6 - mism) / 1e-6, witness, tol=1e-12)

    if isinstance(spec, PhiRep):
        worst = math.inf
        logc = abs(math.log(spec.c))
        for k in range(n):
            if lam[k] <= 0.0:
                continue
            r = radii[k]
            bound = slack * (logc + math.sqrt(2.0 * math.pi) * (1.0 + r) / math.sqrt(r))
            worst = min(worst, (bound - abs(math.log(lam[k]))) / bound)
        rep.add("log-profile-envelope", 0.0 if worst is math.inf else worst, tol=1e-12)
    return rep


class TestZBoundaryLocator:
    """The lockstep locator against closed-form boundaries and the scalar reference."""

    @pytest.mark.parametrize("letter,r_star", [("a", 1.0), ("e", 4.0)])
    def test_closed_form(self, letter, r_star):
        spec = showcase(letter)
        brackets = [(0.8 * r_star, 1.1 * r_star), (0.95 * r_star, 1.3 * r_star)]
        got = np.concatenate([spine._z_crossings(spec, np.array(br)) for br in brackets])
        assert got.size == 2 and got == pytest.approx(r_star, abs=1e-9)
        half = 0.5 * math.pi
        for k, (a, c) in enumerate(brackets):
            inside = abs(theta_at(spec, a)) < half - spine.ANGLE_TOL
            r_in, r_out = (a, c) if inside else (c, a)
            # both are midpoints of final brackets of width <= 1e-12 hi around one root
            assert abs(got[k] - _refine_z_boundary(spec, r_in, r_out)) <= 1e-12 * c


def _assert_same_z_intervals(got, want, radii):
    """Equal Z intervals, up to the locators' certified width at a crossing.

    Grid ends are equal; a crossing in the grid cell (r_k, r_k+1] is the
    midpoint of a final bracket of width <= 1e-12 r_k+1 on either side.
    """
    assert len(got) == len(want)
    g, w = np.array(got, dtype=float).reshape(-1), np.array(want, dtype=float).reshape(-1)
    hi = radii[np.minimum(np.searchsorted(radii, g), radii.size - 1)]
    assert np.all(np.abs(g - w) <= 1e-12 * hi), (got, want)


REFERENCE_CASES = [
    (f"{name}@{tau}", shift_spec(SHOWCASE[name], tau))
    for name in sorted(SHOWCASE)
    for tau in (0.0, 0.2, 2.0)
] + [("piecewise-constant", PWC), ("lin5", LIN5)]


class TestInvariantReference:
    """Column table and array report against the per-sample loops they replaced."""

    @pytest.mark.parametrize("label,spec", REFERENCE_CASES, ids=[c[0] for c in REFERENCE_CASES])
    def test_matches_loops(self, label, spec):
        lo, hi = default_spine_range(spec)
        table = build_spine_table(spec, lo, hi, 256)
        want = _loop_z_intervals(spec, table.radii(), table.in_z_mask())
        _assert_same_z_intervals(table.z_intervals, want, table.radii())
        got = spine_invariant_report(table, spec).checks
        want = _loop_invariant_report(table, spec).checks
        assert [(c.name, c.passed, c.witness) for c in got] == [
            (c.name, c.passed, c.witness) for c in want
        ]
        for g, w in zip(got, want):
            assert abs(g.margin - w.margin) <= 1e-12, g.name


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

    @pytest.mark.parametrize("shift", [0.0, 0.3])
    @pytest.mark.parametrize("name", ["bm_drift", "rational_three_arcs", "stable_mixed"])
    def test_suite_rule_matches_loop(self, name, shift, monkeypatch):
        """``verify.suite_spine``'s batched rule against its former per-draw loop.

        The angles are shifted by ``shift`` in both, so a wrong spine is
        counted alike.
        """
        spec = SHOWCASE[name]
        solve = spine.solve_spine

        def shifted(spec, radii):
            out = solve(spec, radii)
            return replace(out, theta=out.theta + shift)

        monkeypatch.setattr(verify, "solve_spine", shifted)
        rule = [c for c in verify.suite_spine(spec).checks if c.name == "angular-sign-rule"]
        r_lo, r_hi = default_spine_range(spec)
        rng = make_rng(verify._SEED)
        bad = 0
        for _ in range(20):
            r = math.exp(rng.uniform(math.log(r_lo), math.log(r_hi)))
            alpha = rng.uniform(-0.5 * math.pi + 1e-3, 0.5 * math.pi - 1e-3)
            th = theta_at(spec, r) + shift
            arg_f = float(np.angle(eval_f(spec, r * np.exp(1j * alpha))))
            if abs(arg_f) > 1e-9 and abs(alpha - th) > 1e-9:
                bad += math.copysign(1.0, arg_f) != math.copysign(1.0, alpha - th)
        assert (shift == 0.0) == (bad == 0)
        assert [c.margin for c in rule] == [-bad]
