"""Quadrature, bisection and principal-branch kernels."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levycm import numerics
from levycm.errors import DomainError, QuadratureError
from levycm.numerics import (
    QuadratureConfig,
    bisect_monotone,
    gk15,
    integrate_adaptive,
    make_rng,
    principal_log,
    refine_panels,
    richardson_zero,
)


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
        splits = results[0].splits
        assert splits > 0
        assert all(n % 15 == 0 for n in sizes)
        assert len(sizes) <= 1 + splits
        assert sum(sizes) == sizes[0] + 30 * splits


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
        assert res.splits == 20
        assert res.value == 6.0
        kept = np.flatnonzero(res.lo == 1.0)
        assert len(kept) == 1 and res.hi[kept[0]] == tiny_hi
        alone = refine_panels(estimate, [1.0], [tiny_hi], abs_tol=0.5, max_splits=20)
        assert (alone.value, alone.splits, alone.converged) == (5.0, 0, False)

    def test_max_splits_returns_unconverged(self):
        """The summed error never falls; the engine stops at max_splits and raises nothing."""
        res = refine_panels(_widths, [0.0], [8.0], abs_tol=1e-6, max_splits=7)
        assert not res.converged
        assert res.splits == 7
        assert len(res.lo) == 8
        assert res.value == 8.0
        assert res.err == pytest.approx(8e-3)
        assert res.rows.shape == (8, 1)

    def test_converges_on_goal(self):
        """GK15 panels of a smooth integrand meet a relative goal and tile the interval."""
        res = refine_panels(gk15(np.exp), [0.0], [4.0], 0.0, 1e-13, max_splits=100)
        assert res.converged
        assert res.err <= 1e-13 * abs(res.value)
        assert res.value == pytest.approx(math.expm1(4.0), rel=1e-13)
        order = np.argsort(res.lo)
        assert res.lo[order][0] == 0.0 and res.hi[order][-1] == 4.0
        np.testing.assert_array_equal(res.lo[order][1:], res.hi[order][:-1])


class TestBisectMonotone:
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


class TestRichardson:
    def test_exact_for_quadratics(self):
        ts = np.array([1e-2, 1e-3, 1e-4])
        ys = 3.0 + 2.0 * ts - 7.0 * ts * ts
        assert abs(richardson_zero(ts, ys) - 3.0) < 1e-12


class TestRng:
    def test_reproducible(self):
        a = make_rng(99).standard_normal(8)
        b = make_rng(99).standard_normal(8)
        np.testing.assert_array_equal(a, b)
