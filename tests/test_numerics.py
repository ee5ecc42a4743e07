"""Quadrature, root-solver and principal-branch kernels."""

import math
import os
import subprocess
import sys
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levycm import (
    LevyAtomic,
    PhiRep,
    PhiTable,
    estimate_phi,
    eval_f,
    eval_f_prime,
    f_limits,
    numerics,
    shift_spec,
    verify,
)
from levycm.errors import DomainError, QuadratureError
from levycm.numerics import (
    _LRU,
    _lockstep_root,
    QuadratureConfig,
    bisect_monotone,
    gk15,
    integrate_adaptive,
    make_rng,
    principal_log,
    refine_panels,
    sorted_unique,
)
from levycm.rogers import _core, compensator_drift
from levycm.spine import solve_spine


class TestIntegrateAdaptive:
    def test_cauchy_kernel_full_line(self):
        val, err = integrate_adaptive(lambda s: 1.0 / (1.0 + s * s), (-math.inf, math.inf))
        assert abs(val - math.pi) < 1e-12
        assert abs(val - math.pi) <= 10 * err + 1e-15

    def test_half_gamma(self):
        """Integrable inverse-square-root endpoints: a half line, both ends of [0, 1]."""
        cases = [
            (lambda s: np.exp(-s) * s**-0.5, (0.0, math.inf), (0.0,), math.sqrt(math.pi)),
            (lambda s: (s * (1.0 - s)) ** -0.5, (0.0, 1.0), (0.0, 1.0), math.pi),
        ]
        for f, domain, sing, want in cases:
            cfg = QuadratureConfig(singular_points=sing)
            val, _ = integrate_adaptive(f, domain, cfg)
            assert abs(val - want) < 1e-12

    def test_poles_on_opposite_sides(self):
        """1/(z-i) - 1/(z+i) integrates to 2 pi i along the real line."""
        val, _ = integrate_adaptive(
            lambda z: 1.0 / (z - 1j) - 1.0 / (z + 1j), (-math.inf, math.inf)
        )
        assert abs(val - 2j * math.pi) < 1e-12

    def test_finite_interval(self):
        val, _ = integrate_adaptive(lambda s: s * s, (0.0, 2.0))
        assert abs(val - 8.0 / 3.0) < 1e-13

    def test_randomized_rationals_error_estimate(self):
        """Achieved error stays within 10x the reported estimate."""
        rng = make_rng(1234)
        for _ in range(50):
            n_terms = rng.integers(1, 4)
            cs = rng.uniform(-3.0, 3.0, n_terms)
            ps = rng.uniform(-5.0, 5.0, n_terms)
            qs = rng.uniform(0.2, 4.0, n_terms)

            def f(s, cs=cs, ps=ps, qs=qs):
                out = np.zeros_like(np.asarray(s, dtype=float))
                for c, p, q in zip(cs, ps, qs):
                    out = out + c / ((s - p) ** 2 + q * q)
                return out

            exact = float(np.sum(cs * math.pi / qs))
            val, err = integrate_adaptive(f, (-math.inf, math.inf))
            assert abs(val.real - exact) <= 10.0 * err + 1e-13
            assert abs(val.real - exact) < 1e-8 * (1.0 + abs(exact))

    @pytest.mark.parametrize("p", [1.2, 1.3])
    def test_heavy_tail_abscissae_stay_finite(self, p):
        """A half-line tail heavier than 1/x^1.5: 1 - t near t = 1 never rounds to 0.

        The call meets the default relative tolerance, or raises with a
        finite partial value and error estimate.
        """
        finite = []

        def f(x):
            finite.append(bool(np.all(np.isfinite(x))))
            return (1.0 + x) ** -p

        want = 1.0 / (p - 1.0)
        try:
            val, _ = integrate_adaptive(f, (0.0, math.inf))
        except QuadratureError as exc:
            assert math.isfinite(abs(exc.value)) and math.isfinite(exc.err_estimate)
        else:
            assert abs(val - want) <= 1e-10 * want
        assert finite and all(finite)

    def test_nonconvergence_carries_partial_value(self):
        cfg = QuadratureConfig(rel_tol=1e-15, abs_tol=0.0, max_subdivisions=3)
        with pytest.raises(QuadratureError) as exc:
            integrate_adaptive(
                lambda s: np.abs(s - 0.1234567) ** -0.5, (0.0, 1.0), cfg
            )
        assert math.isfinite(exc.value.err_estimate)
        assert abs(exc.value.value) > 0.0

    def test_integrand_gets_every_panel_at_once(self, monkeypatch):
        """One integrand call on the initial panels, then one per round."""
        results = []
        engine = numerics.refine_panels

        def recorded(*args, **kwargs):
            results.append(engine(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(numerics, "refine_panels", recorded)
        sizes = []

        def f(s):
            sizes.append(len(s))
            return 1.0 / (1e-2 + (s - 0.3) ** 2)

        val, _ = integrate_adaptive(f, (-math.inf, math.inf))
        assert abs(val.real - 10.0 * math.pi) < 1e-9
        splits = len(results[0].lo) - sizes[0] // 15  # a split adds one panel
        assert splits > 0
        assert all(n % 15 == 0 for n in sizes)
        assert len(sizes) <= 1 + splits
        assert sum(sizes) == sizes[0] + 30 * splits

    @pytest.mark.parametrize(
        "call",
        [
            lambda: QuadratureConfig(rel_tol=0.0),
            lambda: QuadratureConfig(abs_tol=-1e-14),
            lambda: QuadratureConfig(max_subdivisions=0),
            lambda: QuadratureConfig(singular_points=(1.0, 0.0)),
            lambda: integrate_adaptive(np.exp, (1.0, 1.0)),
            lambda: integrate_adaptive(np.exp, (2.0, 1.0)),
        ],
        ids=["rel-tol", "abs-tol", "subdivisions", "singular-order", "empty", "inverted"],
    )
    def test_invalid_configuration_rejected(self, call):
        with pytest.raises(ValueError):
            call()


class TestIntegrateAdaptiveRows:
    """What integrate_adaptive hands refine_panels: its rows, their dtype and the error floor."""

    @staticmethod
    def _rounds(monkeypatch, f, domain, cfg):
        """One integrate_adaptive call: its result (or the exception it raised), the rows of every
        round, the points the integrand got in each, and refine_panels' panels in and result."""
        rows, points, runs = [], [], []

        def spy(estimate, lo, hi, *args, **kwargs):
            def est(lo, hi):
                out = estimate(lo, hi)
                rows.append(out[2])
                return out

            runs.append((lo, hi, refine_panels(est, lo, hi, *args, **kwargs)))
            return runs[-1][2]

        def g(s):
            points.append(s.size)
            return f(s)

        monkeypatch.setattr(numerics, "refine_panels", spy)
        try:
            out = integrate_adaptive(g, domain, cfg)
        except QuadratureError as exc:
            out = exc
        return out, rows, points, runs[0]

    @pytest.mark.parametrize(
        "f,skips",
        [(lambda s: np.exp(-s) / (0.1 + (s - 1.0) ** 2), False), (lambda s: (1.0 + s) ** -1.05, True)],
        ids=["evaluable", "unevaluable"],
    )
    def test_rows_match_the_mask(self, monkeypatch, f, skips):
        """Rows in the integrand's dtype with one value per node evaluated and zeros elsewhere.  A
        tail heavier than 1/s^1.1 drives the refinement to t -> 1, where ds/dt overflows and nodes
        are not evaluated: the call raises with a finite partial value and error."""
        cfg = QuadratureConfig(singular_points=(0.0,))
        out, rows, points, _ = self._rounds(monkeypatch, f, (0.0, math.inf), cfg)
        skipped = [r.size - n for r, n in zip(rows, points)]
        assert any(skipped) == skips and isinstance(out, QuadratureError) == skips
        assert all(r.dtype == np.float64 and r.shape[1] == 15 for r in rows)
        assert all(np.count_nonzero(r) <= n and r.size - np.count_nonzero(r) >= k
                   for r, n, k in zip(rows, points, skipped))
        if skips:
            assert math.isfinite(abs(out.value)) and math.isfinite(out.err_estimate)

    def test_error_floor(self, monkeypatch):
        """A first estimate that meets the goal: refine_panels returns the panels passed in, and the
        error reported is the floor, one einsum of the Kronrod weights over |rows|, above the
        Kronrod - Gauss sum."""
        f = lambda s: (1.0 + s) ** -1.5
        (value, err), rows, _, (lo, hi, res) = self._rounds(monkeypatch, f, (0.0, math.inf), QuadratureConfig())
        assert len(rows) == 1 and res.lo is lo and res.hi is hi and res.converged
        _, w = numerics.gk15_nodes(lo, hi)
        assert value == complex(res.value) == pytest.approx(2.0, rel=1e-15)
        assert err == 1e-16 * float(np.einsum("pj,pj->", w, np.abs(rows[0]))) > res.err

    @pytest.mark.parametrize(
        "f",
        [lambda s: np.exp(-s) * np.cos(3.0 * s), lambda s: np.exp(-s) / (1e-4 + (s - 1.0) ** 2)],
        ids=["smooth", "peaked"],
    )
    def test_real_and_complex_integrands_agree(self, monkeypatch, f):
        """A real integrand and its complex cast give the same value and error to 1 ulp of the
        integral of |f| (the scale of their rounding), with rows in each one's dtype."""
        cfg = QuadratureConfig(singular_points=(0.0,))
        (value, err), rows, _, _ = self._rounds(monkeypatch, f, (0.0, math.inf), cfg)
        cast = lambda s: f(s).astype(complex)
        (z, z_err), z_rows, _, _ = self._rounds(monkeypatch, cast, (0.0, math.inf), cfg)
        assert {r.dtype for r in rows} == {np.dtype(float)} and {r.dtype for r in z_rows} == {np.dtype(complex)}
        ulp = math.ulp(integrate_adaptive(lambda s: np.abs(f(s)), (0.0, math.inf), cfg)[0].real)
        assert value.imag == z.imag == 0.0
        assert abs(value.real - z.real) <= ulp and abs(err - z_err) <= ulp


_ATOMS = ((2.0, 3.0), (-1.5, 2.0))


class TestVerifyQuadratures:
    """integrate_adaptive's error estimate bounds its miss on the integrands of verify's checks."""

    @pytest.mark.parametrize(
        "spec",
        [LevyAtomic(a=0.3, b=-0.2, atoms=((1.0, 2.0), (-2.0, 4.0))),
         LevyAtomic(b=compensator_drift(LevyAtomic(atoms=_ATOMS)), atoms=_ATOMS),
         LevyAtomic(a=0.3, b=0.1, atoms=((0.05, 1.0), (-40.0, 2.0)))],
        ids=["jump-gauss", "compound-poisson", "far-atoms"],
    )
    def test_levy_khintchine(self, monkeypatch, spec):
        """The jump integral of each check against eval_f less its Gaussian and drift part."""
        calls = []
        real = verify.integrate_adaptive
        monkeypatch.setattr(verify, "integrate_adaptive", lambda *a: calls.append(real(*a)) or calls[-1])
        rep = verify._levy_khintchine_consistency(spec)
        assert rep.passed and len(calls) == len(rep.checks) == verify._LK_POINTS
        for check, (value, err) in zip(rep.checks, calls):
            xi = check.witness["xi"]
            exact = eval_f(spec, complex(xi)) - (spec.a * xi**2 - 1j * spec.b * xi + spec.c)
            assert abs(value - exact) <= err, (xi, value, exact, err)

    @pytest.mark.parametrize("tau", [0.5, 2.0])
    def test_frullani(self, monkeypatch, tau):
        """kappa-circ's Frullani integral against log((tau + lam)/(1 + lam)), at the compound
        Poisson spec's lam = f(inf-)."""
        calls = []
        real = verify.integrate_adaptive
        monkeypatch.setattr(verify, "integrate_adaptive", lambda *a: calls.append(real(*a)) or calls[-1])
        lam = f_limits(LevyAtomic(b=compensator_drift(LevyAtomic(atoms=_ATOMS)), atoms=_ATOMS)).f_at_infinity
        verify._kappa_circ_quadrature(lam, tau)
        (value, err), = calls
        assert value.imag == 0.0
        assert abs(value.real - math.log((tau + lam) / (1.0 + lam))) <= err


def _widths(lo, hi):
    """Panel estimate for the engine tests: value hi - lo, error 1e-3 per unit width."""
    return hi - lo, 1e-3 * (hi - lo), np.zeros((len(lo), 1))


class TestRefinePanels:
    def test_resolution_panel_kept_unsplit(self):
        """A panel floating point cannot split keeps its estimate and blocks convergence."""
        tiny_hi = np.nextafter(1.0, 2.0)

        def estimate(lo, hi):
            value, err, rows = _widths(lo, hi)
            at_resolution = lo == 1.0
            return np.where(at_resolution, 5.0, value), np.where(at_resolution, 1.0, err), rows

        res = refine_panels(estimate, [1.0, 2.0], [tiny_hi, 3.0], abs_tol=0.5, max_splits=20)
        assert not res.converged
        assert len(res.lo) == 2 + 20  # 20 splits
        assert res.value == 6.0
        kept = np.flatnonzero(res.lo == 1.0)
        assert len(kept) == 1 and res.hi[kept[0]] == tiny_hi
        alone = refine_panels(estimate, [1.0], [tiny_hi], abs_tol=0.5, max_splits=20)
        assert (alone.value, len(alone.lo), alone.converged) == (5.0, 1, False)

    def test_max_splits_returns_unconverged(self):
        """The summed error never falls; the engine stops at max_splits and raises nothing."""
        res = refine_panels(_widths, [0.0], [8.0], abs_tol=1e-6, max_splits=7)
        assert not res.converged
        assert len(res.lo) == 1 + 7  # 7 splits
        assert res.value == 8.0
        assert res.err == pytest.approx(8e-3)
        assert res.rows.shape == (8, 1)

    def test_round_splits_whole_cover_set(self):
        """Errors (4, 1.5, 1.5, 1.5, 1.5) over a goal of 1: only all five cover the excess of 9.

        One round splits all five; the halves carry no error, so it converges there.
        """
        sizes = []

        def estimate(lo, hi):
            sizes.append(lo.size)
            seed = np.array([4.0, 1.5, 1.5, 1.5, 1.5])[lo.astype(int) % 5]
            return hi - lo, np.where(hi - lo == 1.0, seed, 0.0), np.zeros((lo.size, 1))

        res = refine_panels(estimate, np.arange(5.0), np.arange(1.0, 6.0), abs_tol=1.0, max_splits=20)
        assert res.converged and res.err == 0.0
        assert sizes == [5, 10]

    def test_converges_on_goal(self):
        """GK15 panels of a smooth integrand meet a relative goal and tile the interval."""
        res = refine_panels(gk15(np.exp), [0.0], [4.0], 0.0, 1e-13, max_splits=100)
        assert res.converged
        assert res.err <= 1e-13 * abs(res.value)
        assert res.value == pytest.approx(math.expm1(4.0), rel=1e-13)
        order = np.argsort(res.lo)
        assert res.lo[order][0] == 0.0 and res.hi[order][-1] == 4.0
        np.testing.assert_array_equal(res.lo[order][1:], res.hi[order][:-1])

    def test_largest_error_alone_is_the_first_of_equals(self):
        """Equal largest errors, each covering the excess alone: the round splits the first of
        them only, as the stable sort of the errors orders them, bitwise what the appending
        reference returns."""
        sizes = []

        def estimate(lo, hi):
            sizes.append(lo.size)
            return hi - lo, np.where(hi - lo == 1.0, 0.5, 1e-3), np.zeros((lo.size, 1))

        args = (np.arange(3.0), np.arange(1.0, 4.0), 1.1)
        res = refine_panels(estimate, *args, max_splits=20)
        assert sizes == [3, 2] and res.converged
        assert res.lo.tolist() == [0.0, 1.0, 2.0, 0.5] and res.hi.tolist() == [0.5, 2.0, 3.0, 1.0]
        want = self._appending(estimate, *args, max_splits=20)
        for g, w in zip((res.value, res.err, res.converged, res.lo, res.hi, res.rows), want):
            g, w = np.asarray(g), np.asarray(w)
            assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()

    @staticmethod
    def _appending(estimate, lo, hi, abs_tol, rel_tol=0.0, *, max_splits):
        """The same rounds with every array grown by np.append / np.concatenate each round."""
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        value, err, rows = estimate(lo, hi)
        splits = 0
        while True:
            err_sum = float(err.sum())
            goal = max(abs_tol, rel_tol * abs(value.sum()))
            mid = 0.5 * (lo + hi)
            open_err = np.where((lo < mid) & (mid < hi), err, 0.0)
            if err_sum <= goal or splits >= max_splits or not open_err.max() > 0.0:
                break
            worst = np.flatnonzero(open_err > 0.0)
            worst = worst[np.argsort(-err[worst], kind="stable")]
            cover = int(np.searchsorted(np.cumsum(err[worst]), err_sum - goal)) + 1
            sel = worst[: min(cover, max_splits - splits)]
            m = len(sel)
            v2, e2, r2 = estimate(np.concatenate([lo[sel], mid[sel]]), np.concatenate([mid[sel], hi[sel]]))
            lo, hi = np.append(lo, mid[sel]), np.append(hi, hi[sel])
            hi[sel] = mid[sel]
            value[sel], err[sel], rows[sel] = v2[:m], e2[:m], r2[:m]
            value, err = np.append(value, v2[m:]), np.append(err, e2[m:])
            rows = np.concatenate([rows, r2[m:]])
            splits += m
        return value.sum(), err_sum, err_sum <= goal, lo, hi, rows

    @staticmethod
    def _width_rows(width):
        """A panel estimate with ``width`` columns of rows, error growing with the panel's width."""
        def estimate(lo, hi):
            h = hi - lo
            rows = np.cos(np.add.outer(lo, np.arange(width)) * 3.0) * h[:, None]
            return np.sin(5.0 * lo) * h, h ** 1.5 * (1.0 + np.abs(np.cos(7.0 * lo))), rows
        return estimate

    def test_first_estimate_meeting_the_goal_is_returned(self):
        """No split: the panels passed in and the first estimate's arrays themselves, bitwise
        what the appending reference returns."""
        lo, hi = np.array([0.0, 1.0, 2.5]), np.array([1.0, 2.5, 6.0])
        first = []

        def estimate(lo, hi):
            first.append(gk15(lambda s: np.cos(2.0 * s))(lo, hi))
            return first[-1]

        res = refine_panels(estimate, lo, hi, 1e-6, max_splits=10)
        want = self._appending(gk15(lambda s: np.cos(2.0 * s)), lo, hi, 1e-6, max_splits=10)
        assert len(first) == 1 and res.converged
        assert res.lo is lo and res.hi is hi and res.rows is first[0][2]
        for g, w in zip((res.value, res.err, res.converged, res.lo, res.hi, res.rows), want):
            g, w = np.asarray(g), np.asarray(w)
            assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("case", ["gk15-real", "gk15-complex", "rows-1", "rows-4", "budget", "widths"])
    def test_buffers_match_appending(self, case):
        """Every result bitwise what the reference, which grows its arrays by np.append, gives:
        GK15 rows (15 columns, real and complex), 1- and 4-column rows, a split budget that
        runs out, and the engine tests' widths estimate."""
        lo, hi = np.array([0.0, 1.0, 2.5]), np.array([1.0, 2.5, 6.0])
        args = {
            "gk15-real": (gk15(lambda s: np.cos(9.0 * s) * np.exp(-s)), lo, hi, 1e-13, 0.0, 400),
            "gk15-complex": (gk15(lambda s: np.exp((1j * 7.0 - 0.3) * s) / (0.05 + s)), lo, hi, 0.0, 1e-12, 400),
            "rows-1": (self._width_rows(1), lo, hi, 1e-4, 0.0, 1000),
            "rows-4": (self._width_rows(4), lo, hi, 1e-4, 0.0, 1000),
            "budget": (self._width_rows(4), lo, hi, 1e-12, 0.0, 37),
            "widths": (_widths, [0.0], [8.0], 1e-6, 0.0, 7),
        }[case]
        *rest, max_splits = args
        lo_in, hi_in = np.array(rest[1], dtype=float), np.array(rest[2], dtype=float)
        res = refine_panels(*rest, max_splits=max_splits)
        want = self._appending(*rest, max_splits=max_splits)
        assert len(res.lo) > 2 * len(lo_in)  # many splits
        got = (res.value, res.err, res.converged, res.lo, res.hi, res.rows)
        for g, w in zip(got, want):
            g, w = np.asarray(g), np.asarray(w)
            assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
        # the panels passed in are left as they were
        np.testing.assert_array_equal(np.asarray(rest[1], dtype=float), lo_in)
        np.testing.assert_array_equal(np.asarray(rest[2], dtype=float), hi_in)


def _recorded_root(g, lo, hi, tol):
    """``_lockstep_root`` on all brackets of ``g``, with every evaluation (x, g) recorded per bracket."""
    seen = [[] for _ in range(lo.size)]

    def recorded(idx, x):
        assert idx.size
        v = g(idx, x)
        for i, xx, vv in zip(idx.tolist(), x.tolist(), v.tolist()):
            seen[i].append((xx, vv))
        return v

    every = np.arange(lo.size)
    return _lockstep_root(recorded, lo, hi, g(every, lo), g(every, hi), tol), seen


class TestLockstepRoot:
    """The lockstep root solver: certified final brackets in few steps, at most twice bisection's."""

    @staticmethod
    def _assert_certified(out, seen, lo, hi, tol):
        """Each result is an exact zero it evaluated, or the midpoint of its final bracket of
        width <= tol, reached in at most 2 ceil(log2(width_0 / tol)) steps."""
        tol = np.broadcast_to(tol, lo.shape)
        for k, points in enumerate(seen):
            assert len(points) <= 2 * math.ceil(math.log2((hi[k] - lo[k]) / tol[k])), k
            zeros = [x for x, v in points if v == 0.0]
            if zeros:
                assert out[k] == zeros[-1]
                continue
            a = max([lo[k]] + [x for x, v in points if v < 0.0])
            b = min([hi[k]] + [x for x, v in points if v > 0.0])
            assert b - a <= tol[k] and out[k] == 0.5 * (a + b), k

    @pytest.mark.parametrize(
        "name,fn",
        [
            ("steep", lambda x: np.tanh(1e6 * x)),
            ("flat", lambda x: x**9),
            ("step", lambda x: np.where(x < 0.0, -1.0, 1.0)),
            ("linear", lambda x: x),
        ],
    )
    def test_adversarial(self, name, fn):
        roots = make_rng(7).uniform(-0.9, 1.9, 64)
        lo, hi = np.full(64, -1.0), np.full(64, 2.0)
        out, seen = _recorded_root(lambda idx, x: fn(x - roots[idx]), lo, hi, 1e-12)
        self._assert_certified(out, seen, lo, hi, 1e-12)
        assert np.all(np.abs(out - roots) <= 1e-12)

    def test_tolerance_per_bracket(self):
        tol = np.array([1e-2, 1e-6, 1e-12, 1e-12 * 8.0])
        lo, hi = np.array([-1.0, -1.0, -1.0, 0.0]), np.array([1.0, 2.0, 3.0, 8.0])
        roots = np.array([0.3, 0.7, -0.2, 6.1])
        out, seen = _recorded_root(lambda idx, x: np.expm1(x - roots[idx]), lo, hi, tol)
        self._assert_certified(out, seen, lo, hi, tol)
        assert np.all(np.abs(out - roots) <= 0.5 * tol)
        assert len(seen[0]) < len(seen[1]) < len(seen[2])

    def test_exact_zero_is_the_result(self):
        """The first point of every bracket is its midpoint; there g is 0 exactly."""
        roots = np.array([0.0, 0.5])
        lo, hi = np.array([-1.0, 0.0]), np.array([1.0, 1.0])
        out, seen = _recorded_root(lambda idx, x: x - roots[idx], lo, hi, 1e-12)
        assert out.tolist() == [0.0, 0.5] and [len(p) for p in seen] == [1, 1]

    def test_no_open_bracket_makes_no_call(self):
        """The end rules, with no step: g > 0 at both ends gives lo, g < 0 at both ends hi,
        and an exact zero at an end that end (lo where both are)."""

        def g(idx, x):
            raise AssertionError("g called")

        lo, hi = np.arange(6.0), np.arange(6.0) + 0.5
        glo = np.array([1.0, -1.0, 0.0, -1.0, 0.0, 2.0])
        ghi = np.array([2.0, -2.0, 1.0, 0.0, 0.0, 0.0])
        out = _lockstep_root(g, lo, hi, glo, ghi, 1e-12)
        assert out.tolist() == [0.0, 1.5, 2.0, 3.5, 4.0, 5.5]

    def test_step_cap(self):
        """``max_steps`` caps the evaluations; a bracket still open gives its midpoint."""
        steps = []

        def g(idx, x):
            steps.append(x[0])
            return np.tanh(x - 0.3)

        lo, hi, glo, ghi = np.zeros(1), np.ones(1), np.tanh([-0.3]), np.tanh([0.7])
        full = _lockstep_root(g, lo, hi, glo, ghi, 1e-12)
        assert len(steps) > 3 and abs(full[0] - 0.3) <= 1e-12
        steps.clear()
        capped = _lockstep_root(g, lo, hi, glo, ghi, 1e-12, max_steps=3)
        xs = np.array(steps)
        a, b = np.max(xs[xs < 0.3], initial=0.0), np.min(xs[xs > 0.3], initial=1.0)
        assert len(steps) == 3 and capped[0] == 0.5 * (a + b) and b - a > 1e-12


def _array_lockstep(g, lo, hi, glo, ghi, tol, max_steps=200):
    """``_lockstep_root`` as it ran on numpy arrays alone, the reference of ``TestLockstepParity``:
    the roots, with the steps taken and the points evaluated."""
    steps = points = 0
    ends = [(glo > 0.0) & (ghi > 0.0), (glo < 0.0) & (ghi < 0.0), glo == 0.0, ghi == 0.0]
    out = np.where(ends[0] | ends[2], lo, np.where(ends[1] | ends[3], hi, np.nan))
    idx = np.flatnonzero(~np.logical_or.reduce(ends))
    tol = np.broadcast_to(tol, lo.shape)[idx]
    a, b, fa, fb = lo[idx], hi[idx], glo[idx], ghi[idx]
    d = b - a
    w0 = np.abs(d)
    t = np.full(idx.shape, 0.5)
    for k in range(max_steps):
        w, mid = np.abs(d), 0.5 * (a + b)
        go = (w > tol) & (mid != a) & (mid != b)
        if not go.all():
            out[idx[~go]] = mid[~go]
            idx, a, b, d, fa, fb, t, tol, w0, w = (
                v[go] for v in (idx, a, b, d, fa, fb, t, tol, w0, w)
            )
        if not idx.size:
            return out, steps, points
        tl = 0.5 * tol / w
        t = np.where(w > w0 * 2.0 ** (-0.5 * (k + 1)), 0.5, np.minimum(np.maximum(t, tl), 1.0 - tl))
        x = a + t * d
        steps, points = steps + 1, points + idx.size
        gx = g(idx, x)
        same = (gx < 0.0) == (fa < 0.0)
        c, fc = np.where(same, a, b), np.where(same, fa, fb)
        b, fb = np.where(gx == 0.0, x, np.where(same, b, a)), np.where(same, fb, fa)
        a, fa, d = x, gx, b - x
        with np.errstate(all="ignore"):
            dab, dcb = fb - fa, fc - fb
            xi, phi = -d / (c - b), -dab / dcb
            iqi = (1.0 - np.sqrt(1.0 - xi) < phi) & (phi < np.sqrt(xi))
            t = fa / dcb * ((c - a) / d * fb / (fc - fa) - fc / dab)
            t[~iqi] = 0.5
    out[idx] = 0.5 * (a + b)
    return out, steps, points


K = numerics._FLOAT_BRACKETS


class TestLockstepParity:
    """The lockstep solver, which ends a solve in Python floats once at most K brackets are
    open, against its array-only reference: the same roots bitwise in the same steps and points."""

    FNS = {
        "steep": lambda x: np.tanh(1e6 * x),
        "flat": lambda x: x**9,
        "step": lambda x: np.where(x < 0.0, -1.0, 1.0),
        "expm1": np.expm1,
        "plateau": lambda x: np.where(np.abs(x) < 1e-3, 0.0, x),  # exact zeros at step points
    }

    @staticmethod
    def _brackets(n, seed):
        """Brackets of ``n`` kinds (mixed for n > 1): a sign change (kinds 0-2), g > 0 and g < 0 at
        both ends, a zero at lo, at hi, at the first step point (the midpoint), and a bracket one
        ulp wide; the roots of g(x) = fn(x - root), and the ends' g where they are given."""
        rng = make_rng(seed)
        lo = rng.uniform(-2.0, 0.0, n)
        hi = lo + rng.choice([3.0, 1.0, 1e-9], n)
        roots = rng.uniform(lo, hi)
        kind = rng.integers(0, 10, n) if n > 1 else np.zeros(1, int)
        roots = np.select([kind == 3, kind == 4, kind == 5, kind == 6, kind == 7],
                          [lo - 1.0, hi + 1.0, lo, hi, lo + 0.5 * (hi - lo)], roots)
        tiny = kind == 8
        hi[tiny] = np.nextafter(lo[tiny], math.inf)
        return lo, hi, roots, tiny

    @pytest.mark.parametrize("n", [1, K, K + 1, 300])
    @pytest.mark.parametrize("name", sorted(FNS))
    def test_bitwise_the_array_solver(self, name, n):
        fn = self.FNS[name]
        lo, hi, roots, tiny = self._brackets(n, 11 + n)
        rng = make_rng(5)
        every = np.arange(n)
        for sign in (1.0, -1.0):
            g = lambda idx, x: sign * fn(x - roots[idx])
            glo, ghi = g(every, lo), g(every, hi)
            glo[tiny], ghi[tiny] = -sign, sign  # a sign change within one ulp
            for tol in (1e-12, rng.choice([1e-2, 1e-8, 1e-12, 0.0], n)):
                for cap in (200, 3):
                    want, steps, points = _array_lockstep(g, lo, hi, glo, ghi, tol, cap)
                    before = numerics.work_counts()
                    got = _lockstep_root(g, lo, hi, glo, ghi, tol, cap)
                    n_steps = numerics.work_counts()["lockstep.steps"] - before["lockstep.steps"]
                    n_points = numerics.work_counts()["lockstep.points"] - before["lockstep.points"]
                    assert got.tobytes() == want.tobytes(), (sign, tol, cap)
                    assert (n_steps, n_points) == (steps, points), (sign, tol, cap)


class TestBisectMonotone:
    def test_is_the_one_bracket_solve(self):
        """Bitwise ``_lockstep_root`` on the one bracket, with ``max_iter`` as its step cap."""
        g = lambda x: math.tanh(3.0 * x - 1.2) + 0.1 * x
        for tol, cap in ((1e-12, 200), (1e-6, 200), (1e-12, 4), (0.0, 200)):
            want = _lockstep_root(lambda idx, x: np.array([g(x[0])]), np.zeros(1), np.full(1, 2.0),
                                  np.array([g(0.0)]), np.array([g(2.0)]), tol, cap)
            assert bisect_monotone(g, 0.0, 2.0, tol, cap) == want[0]

    @pytest.mark.parametrize("lo,hi", [(-1.0, math.nan), (math.nan, 1.0), (0.0, math.inf),
                                       (-math.inf, 0.0), (1.0, 0.0)])
    def test_needs_finite_ordered_interval(self, lo, hi):
        with pytest.raises(ValueError):
            bisect_monotone(lambda x: x, lo, hi)

    def test_linear(self):
        assert abs(bisect_monotone(lambda x: x - 1.0, 0.0, 2.0, 1e-12) - 1.0) < 1e-12

    def test_cubic_flat_root(self):
        assert abs(bisect_monotone(lambda x: x**3, -1.0, 1.0, 1e-12)) < 1e-12

    def test_constant_sign_returns_endpoints(self):
        assert bisect_monotone(lambda x: 1.0 + x * x, 0.0, 1.0) == 0.0
        assert bisect_monotone(lambda x: -1.0 - x * x, 0.0, 1.0) == 1.0

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            bisect_monotone(lambda x: x, 1.0, 1.0)

    @given(st.floats(-5, 5), st.floats(0.1, 5))
    @settings(max_examples=50, deadline=None)
    def test_bracketing(self, root, width):
        got = bisect_monotone(
            lambda x: math.tanh(x - root), root - width, root + width, 1e-10
        )
        assert abs(got - root) <= 1e-9


class TestPrincipalLog:
    def test_unit(self):
        assert principal_log(1.0 + 0.0j) == 0.0

    def test_imaginary_unit(self):
        assert abs(principal_log(1j) - 0.5j * math.pi) < 1e-15

    def test_branch_continuity_from_above(self):
        val = principal_log(-1.0 + 1e-12j)
        assert abs(val.imag - math.pi) < 1e-9

    def test_cut_rejected(self):
        with pytest.raises(DomainError):
            principal_log(-2.0 + 0.0j)
        with pytest.raises(DomainError):
            principal_log(0.0j)

    @given(st.floats(-10, 10), st.floats(-10, 10))
    @settings(max_examples=100, deadline=None)
    def test_conjugation(self, re, im):
        z = complex(re, im)
        if z.imag == 0.0 and z.real <= 0.0:
            return
        assert principal_log(z.conjugate()) == complex(principal_log(z)).conjugate()

    def test_exp_roundtrip(self):
        rng = make_rng(5)
        z = rng.uniform(-3, 3, 50) + 1j * rng.uniform(-3, 3, 50)
        z = z[~((z.imag == 0) & (z.real <= 0))]
        np.testing.assert_allclose(np.exp(principal_log(z)), z, rtol=1e-14)


class TestSortedUnique:
    @pytest.mark.parametrize("n", [0, 1, 7, 200])
    def test_matches_np_unique(self, n):
        """Values, and first indices by a stable sort, on input with many repeats and signed zeros."""
        x = np.round(make_rng(n).normal(size=n), 1)
        x[::5] = -0.0
        x[1::7] = 0.0
        want, first = np.unique(x, return_index=True)
        got, got_first = sorted_unique(x, return_index=True)
        assert got.tobytes() == want.tobytes() and np.array_equal(got_first, first)
        assert np.array_equal(sorted_unique(x), np.unique(x))

    def test_cold_routes_leave_numpy_ma_unimported(self):
        """np.unique imports numpy.ma (~16 ms) on its first call; no cold route of the package does."""
        code = (
            "import sys\n"
            "from levycm import fluctuation, shift_spec, spine, wiener_hopf\n"
            "from levycm.specio import SHOWCASE\n"
            "spec = SHOWCASE['rational_three_arcs']\n"
            "wiener_hopf.wh_ratio(shift_spec(spec, 0.2), 'phi', 'plus', 0.3, 1.5)\n"
            "wiener_hopf.wh_ratio(shift_spec(spec, 0.2), 'spine', 'plus', 0.3, 1.5)\n"
            "spine.build_spine_table(spec, 0.01, 100.0, 64)\n"
            "fluctuation.sup_tail(spec, 0.5, 1.0)\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(numerics.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
        assert res.returncode == 0, res.stderr
        assert res.stdout.split() == ["False"]


class TestLRU:
    def test_bound_holds(self):
        memo = _LRU(3)
        for k in range(10):
            memo.get(k, lambda k=k: k * k)
        assert len(memo) == 3
        assert [k in memo for k in range(10)] == [False] * 7 + [True] * 3

    def test_least_recently_used_evicted_first(self):
        memo = _LRU(3)
        for k in "abc":
            memo.get(k, str.upper, k)
        assert memo.get("a", pytest.fail) == "A"  # a hit refreshes "a"
        memo.get("d", str.upper, "d")
        assert "b" not in memo
        assert all(k in memo for k in "acd")
        memo.get("e", str.upper, "e")
        assert "c" not in memo and "a" in memo

    def test_hits_and_misses(self):
        memo = _LRU(2)
        built = []
        build = lambda k: built.append(k) or -k  # noqa: E731
        got = [memo.get(k, build, k) for k in (1, 1, 2, 1, 3, 2, 2)]
        assert got == [-1, -1, -2, -1, -3, -2, -2]
        assert built == [1, 2, 3, 2]  # 2 was evicted by 3, after 1 was refreshed
        assert (memo.hits, memo.misses) == (3, 4)
        assert 1 not in memo and 3 in memo and len(memo) == 2
        assert (memo.hits, memo.misses) == (3, 4)  # probes count nothing

    def test_clear_empties(self):
        memo = _LRU(4)
        for k in range(3):
            memo.get(k, int, k)
        memo.get(0, int, 0)
        memo.clear()
        assert len(memo) == 0 and 0 not in memo
        assert (memo.hits, memo.misses) == (0, 0)
        assert memo.get(0, lambda: "rebuilt") == "rebuilt"

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5), st.lists(st.integers(0, 8), max_size=60))
    def test_matches_reference_lru(self, maxsize, keys):
        """Same entries, hits and misses as an OrderedDict LRU after every call."""
        memo, ref, hits = _LRU(maxsize), OrderedDict(), 0
        for k in keys:
            assert memo.get(k, str, k) == str(k)
            if k in ref:
                hits += 1
                ref.move_to_end(k)
            else:
                ref[k] = str(k)
                if len(ref) > maxsize:
                    ref.popitem(last=False)
            assert [j for j in range(9) if j in memo] == sorted(ref)
        assert (memo.hits, memo.misses, len(memo)) == (hits, len(keys) - hits, len(ref))

    def test_failed_build_stores_nothing(self):
        def fail():
            raise DomainError("no")

        memo = _LRU(4)
        with pytest.raises(DomainError):
            memo.get("k", fail)
        assert "k" not in memo and len(memo) == 0
        assert memo.misses == 1


class TestRng:
    def test_reproducible(self):
        a = make_rng(99).standard_normal(8)
        b = make_rng(99).standard_normal(8)
        np.testing.assert_array_equal(a, b)


class TestWorkCounts:
    """Each counter moves by an exact known amount at its choke point."""

    @staticmethod
    def _delta(call, *args):
        before = numerics.work_counts()
        call(*args)
        return {k: v - before[k] for k, v in numerics.work_counts().items() if v != before[k]}

    def test_snapshot_is_a_copy(self):
        counts = numerics.work_counts()
        counts["lockstep.steps"] += 1
        assert numerics.work_counts()["lockstep.steps"] == counts["lockstep.steps"] - 1

    def test_solve_spine(self):
        spec = LevyAtomic(a=0.5, b=0.5)
        n = self._delta(solve_spine, spec, np.geomspace(0.1, 10.0, 7))
        assert n["solve_spine.calls"] == 1 and n["solve_spine.radii"] == 7

    def test_integrate_adaptive(self):
        calls = []

        def f(s):
            calls.append(s.size)
            return np.cos(40.0 * s) * np.exp(-s)

        n = self._delta(integrate_adaptive, f, (0.0, math.inf))
        assert len(calls) > 1
        assert n["refine_panels.calls"] == 1 and n["refine_panels.rounds"] == len(calls)

    def test_bd_sum(self):
        """One bd_sum.calls a contour integral, and bd_sum.nodes the terms it formed: its window."""
        from levycm import wiener_hopf

        plan = wiener_hopf._bd_plan(LevyAtomic(a=0.5, b=0.5), (("plus", 0.0, 0.3, 1), ("plus", 0.0, 1.5, -1)))
        before = numerics.work_counts()
        _, _, lo, hi = wiener_hopf._bd_sum(*plan)
        n = {k: v - before[k] for k, v in numerics.work_counts().items() if v != before[k]}
        assert n == {"bd_sum.calls": 1, "bd_sum.nodes": hi - lo + 1}

    def test_lockstep_root(self):
        roots = make_rng(3).uniform(0.1, 0.9, 16)
        sizes = []

        def g(idx, x):
            sizes.append(idx.size)
            return np.expm1(x - roots[idx])

        lo, hi = np.zeros(16), np.ones(16)
        n = self._delta(_lockstep_root, g, lo, hi, np.expm1(lo - roots), np.expm1(hi - roots), 1e-12)
        assert len(sizes) > 1 and n["lockstep.steps"] == len(sizes) and n["lockstep.points"] == sum(sizes)

    def test_lockstep_float_steps(self):
        """The steps taken in Python floats: every step once at most K brackets are open."""
        roots = make_rng(3).uniform(0.1, 0.9, 4 * K)
        sizes = []

        def g(idx, x):
            sizes.append(idx.size)
            return np.expm1(x - roots[idx])

        lo, hi = np.zeros(4 * K), np.ones(4 * K)
        tol = np.where(np.arange(4 * K) < 2 * K, 1e-4, 1e-12)  # half the brackets close early
        n = self._delta(_lockstep_root, g, lo, hi, np.expm1(lo - roots), np.expm1(hi - roots), tol)
        floats = sum([s <= K for s in sizes])
        assert 0 < floats < len(sizes) and all(s <= K for s in sizes[-floats:])
        assert n["lockstep.float_steps"] == floats and n["lockstep.steps"] == len(sizes)

    def test_estimate_phi(self):
        """One count a call, whatever its points; its boundary values count no eval_f work."""
        n = self._delta(estimate_phi, LevyAtomic(a=0.5, b=1.0, c=0.5), np.array([-2.0, 0.5, 3.0]))
        assert n == {"estimate_phi.calls": 1}

    def test_eval_f_on_a_phirep(self):
        spec = PhiRep(1.2, PhiTable((-5.0, -1.0, 0.5, 2.0, 8.0), (0.2, 1.4, 0.9, 2.0, 0.6)))
        xi = np.array([1.0 + 0.5j, -2.0 + 0.1j, 0.3 - 1.0j, -0.4 - 0.2j])
        eval_f(spec, xi)  # builds the kernel's cells
        n = self._delta(eval_f, spec, xi)
        assert n == {"eval_f.points": 4, "eval_f.core_calls": 1, "phi_kernel.passes": 1}

    def test_axis_f_prime_on_a_phirep(self):
        """f' on the imaginary axis is admitted by f there: both come from one kernel pass, and
        f' is bitwise the family core's (an f pass, then an f' pass that computed f again, before)."""
        spec = shift_spec(PhiRep(1, PhiTable((0.2, 1, 3), (0, 1, 0.5))), 0.5)
        xi = np.array([-0.05j, -0.1j])
        eval_f_prime(spec, xi)  # builds the kernel's cells
        n = self._delta(eval_f_prime, spec, xi)
        assert n["phi_kernel.passes"] == 1
        assert n["eval_f.core_calls"] == n["eval_f_prime.core_calls"] == 1
        got = eval_f_prime(spec, xi)
        want = _core(spec, xi + 0.0, True)  # at +0.0 + i y, where the axis rule reads it
        assert got.tobytes() == want.tobytes()
