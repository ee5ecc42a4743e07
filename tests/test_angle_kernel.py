"""The closed-form boundary-angle kernel against a 40-digit per-cell oracle.

Both the PhiRep exponent and the Wiener-Hopf factors are exp of one-sided
integrals E(z) = (1/pi) int_0^inf phi(t) (1/(1+t) - 1/(z+t)) dt over a
polyline phi.  The oracle sums the textbook antiderivative of each linear
cell, (alpha - beta) log(1+t) - (alpha - beta z) log(z+t), in mpmath at 40
digits, where its cancellation on narrow cells costs nothing that matters.
"""

import functools
import math

import mpmath as mp
import numpy as np
import pytest

from levycm import PhiRep, PhiTable, eval_f, eval_f_prime, f_limits, shift_spec
from levycm.rogers import _Cells, _phi_side
from levycm.specio import SHOWCASE
from levycm.wiener_hopf import closed_form_factors, get_factor_handle, get_phi_table, wh_ratio

from conftest import CONST, LIN5, VANISHING, lin200

DIGITS = 40

@functools.lru_cache(maxsize=None)
def _log1p(t, prec):
    with mp.workprec(prec):
        return mp.log1p(t)


def _mp_side(cells, z, prime=False):
    """E(z), or E'(z), of one side given as cells (a, b, alpha, beta) in t >= 0.

    phi = alpha + beta t on [a, b]; an infinite cell has beta = 0.
    """
    z = mp.mpc(z)
    logs = {}  # log(z + t) per endpoint, shared by neighbouring cells

    def anti(t, alpha, beta):
        if t == mp.inf:
            return mp.mpf(0)
        if t not in logs:
            logs[t] = mp.log(z + t)
        lg = logs[t]
        if prime:  # int (alpha + beta t)/(z+t)^2 dt
            return beta * lg - (alpha - beta * z) / (z + t)
        return (alpha - beta) * _log1p(t, mp.mp.prec) - (alpha - beta * z) * lg

    total = mp.fsum(anti(b, al, be) - anti(a, al, be) for a, b, al, be in cells)
    return total / mp.pi


def _mp_j(cells):
    """(1/pi) int_0^inf phi(t)/(1+t) dt of one side given as cells: E(z) as z -> inf."""
    prec = mp.mp.prec
    total = mp.fsum(
        be * (b - a) + (al - be) * (_log1p(b, prec) - _log1p(a, prec)) for a, b, al, be in cells
    )
    return total / mp.pi


def _mp_table_cells(table):
    """(a, b, alpha, beta) per cell of phi(s), with the constant extrapolation."""
    bp = [mp.mpf(b) for b in table.breakpoints]
    vals = [mp.mpf(v) for v in table.values]
    linear = table.interpolation == "piecewise-linear"
    for k in range(len(bp) - 1):
        beta = (vals[k + 1] - vals[k]) / (bp[k + 1] - bp[k]) if linear else mp.mpf(0)
        yield bp[k], bp[k + 1], vals[k] - beta * bp[k], beta
    yield -mp.inf, bp[0], vals[0], mp.mpf(0)
    yield bp[-1], mp.inf, vals[-1], mp.mpf(0)


def _mp_phirep_sides(table):
    """Cells of phi(t) and phi(-t) on t >= 0; a cell straddling 0 is split there."""
    plus, minus = [], []
    for a, b, alpha, beta in _mp_table_cells(table):
        if b > 0:
            plus.append((max(a, mp.mpf(0)), b, alpha, beta))
        if a < 0:
            minus.append((max(-b, mp.mpf(0)), -a, alpha, -beta))
    return plus, minus


def _mp_phirep(spec, xi, prime=False):
    """f(xi), or f'(xi), from exp(E+(-i xi) + E-(i xi)); the left half-plane by reflection."""
    xi = complex(xi)
    if xi.real < 0.0:
        val = _mp_phirep(spec, -xi.conjugate(), prime).conjugate()
        return -val if prime else val
    with mp.workdps(DIGITS):
        plus, minus = _mp_phirep_sides(spec.phi)
        x = mp.mpc(xi)
        f = spec.c * mp.exp(_mp_side(plus, -1j * x) + _mp_side(minus, 1j * x))
        if prime:
            f *= 1j * (_mp_side(minus, 1j * x, True) - _mp_side(plus, -1j * x, True))
        return complex(f)


def _mp_factor_cells(table, side):
    """A factor's cells: the side's own breakpoints, the inner gap at the innermost value."""
    bp = np.asarray(table.breakpoints)
    vals = np.asarray(table.values)
    if side == "minus":
        bp, vals = -bp[::-1], vals[::-1]
    s = [mp.mpf(x) for x in bp[bp > 0.0]]
    p = [mp.mpf(v) for v in vals[bp > 0.0]]
    cells = [(mp.mpf(0), s[0], p[0], mp.mpf(0)), (s[-1], mp.inf, p[-1], mp.mpf(0))]
    for k in range(len(s) - 1):
        beta = (p[k + 1] - p[k]) / (s[k + 1] - s[k])
        cells.append((s[k], s[k + 1], p[k] - beta * s[k], beta))
    return cells, bp[bp > 0.0]


def _rel(got, want):
    return abs(got - want) / abs(want)


def _points(rng, n):
    """n seeded points per half-plane, |xi| in [0.05, 20]."""
    r = np.exp(rng.uniform(math.log(0.05), math.log(20.0), 2 * n))
    xi = r * np.exp(1j * rng.uniform(-1.45, 1.45, 2 * n))
    xi[1::2] = -np.conj(xi[1::2])
    return xi


class TestPhiRepOracle:
    @pytest.mark.parametrize("name", ["lin5", "const", "lin200"])
    def test_eval_f(self, name):
        spec = {"lin5": LIN5, "const": CONST, "lin200": lin200()}[name]
        xi = np.append(_points(np.random.default_rng(7), 4), [0.05 + 2.0j, 0.05 - 2.0j])
        got = eval_f(spec, xi)
        for k, x in enumerate(xi):
            assert _rel(got[k], _mp_phirep(spec, x)) <= 1e-12, (name, x)

    @pytest.mark.parametrize("per_side", [1, 2, 4, 15])
    def test_eval_f_prime_arrays(self, per_side):
        """Array calls with several points per half-plane, LIN5."""
        xi = _points(np.random.default_rng(per_side), per_side)
        got = eval_f_prime(LIN5, xi)
        for k, x in enumerate(xi):
            assert _rel(got[k], eval_f_prime(LIN5, complex(x))) <= 1e-12
            assert _rel(got[k], _mp_phirep(LIN5, x, prime=True)) <= 1e-12, x


class TestLimitsOracle:
    def test_finite_limits(self):
        """f(0+) = c exp(E+(0) + E-(0)) and f(inf-) = c exp((j+ + j-)/pi), j = int phi/(1+t),
        where phi vanishes around s = 0 and beyond its window (cells of phi = 0 dropped)."""
        lim = f_limits(VANISHING)
        with mp.workdps(DIGITS):
            sides = [[c for c in cells if c[2] or c[3]] for cells in _mp_phirep_sides(VANISHING.phi)]
            zero = VANISHING.c * mp.exp(mp.fsum(_mp_side(cells, 0) for cells in sides))
            inf = VANISHING.c * mp.exp(mp.fsum(_mp_j(cells) for cells in sides))
        assert 0.0 < lim.f_at_zero < lim.f_at_infinity < math.inf
        assert _rel(lim.f_at_zero, complex(zero)) <= 1e-12
        assert _rel(lim.f_at_infinity, complex(inf)) <= 1e-12


class TestFactorOracle:
    """Factor exponents on estimated tables: far, near the cut, just above breakpoints."""

    @pytest.mark.parametrize("name", ["rational_three_arcs", "bm_drift"])
    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_exponent(self, name, side):
        spec = SHOWCASE[name]
        handle = get_factor_handle(spec, side)
        with mp.workdps(DIGITS):
            cells, s = _mp_factor_cells(get_phi_table(spec), side)
        far = [0.3 + 0.4j, 2.5 - 1.0j, 40.0 + 3.0j]
        near = [-t + 1j * eta * (1.0 + t) for t in (0.2, 1.7, 9.0) for eta in (3e-3, 1e-4)]
        above = [-x + 1j * 1e-9 * x for x in s[[len(s) // 4, len(s) // 2, 3 * len(s) // 4]]]
        z = np.array(far + near + above)
        got = handle.eval(z) / handle.scale
        with mp.workdps(DIGITS):
            want = [complex(mp.exp(_mp_side(cells, zk))) for zk in z]
        for k, zk in enumerate(z):
            assert _rel(got[k], want[k]) <= 1e-12, (name, side, zk)


def _mp_quad_side(cells, z):
    """(1/pi) int_0^inf phi(t) (1/(1+t) - 1/(z+t)) dt by mpmath quadrature, cell by cell."""
    z = mp.mpf(z)
    total = mp.fsum(
        mp.quad(lambda t, al=al, be=be: (al + be * t) * (1 / (1 + t) - 1 / (z + t)), [a, b])
        for a, b, al, be in cells
        if b > a
    )
    return total / mp.pi


class TestRealArgument:
    """At real z > 0 (every factor value at real xi) the kernel takes its real branch."""

    Z = np.array([1e-3, 0.05, 0.4, 2.5, 40.0, 1e3])

    @pytest.mark.parametrize("name", ["lin5", "const"])
    @pytest.mark.parametrize("k", [0, 1], ids=["plus", "minus"])
    def test_exponent_against_quadrature(self, name, k):
        """Imaginary part exactly 0; 30-digit quadrature to 1e-13 (CONST has jump cells)."""
        table = {"lin5": LIN5, "const": CONST}[name].phi
        side = _Cells(_phi_side(table, (1.0, -1.0)[k], False))
        got = side.exponent(self.Z)
        assert (got.imag == 0.0).all()
        with mp.workdps(30):
            cells = _mp_phirep_sides(table)[k]
            want = [float(_mp_quad_side(cells, z)) for z in self.Z]
        for z, g, w in zip(self.Z, got.real, want):
            assert abs(g - w) <= 1e-13 * abs(w), (name, k, z)

    @pytest.mark.parametrize("k", [0, 1], ids=["plus", "minus"])
    def test_real_branch_against_the_complex_path(self, k):
        """LIN200 at z in {1e-8, 1, 1e8}, where the cells next to t = 0 have x = w/(z+a) >= 1/2
        at 1e-8: the real branch's sums within 1e-15 of the complex path's formula (half a
        log1p of |1 + x|^2 - 1 and arctan2, log((z+b)/(z+a)) where |x| >= 1/2), relative to
        their terms, and E within 1e-14 of the 40-digit oracle."""
        table = lin200().phi
        side = _Cells(_phi_side(table, (1.0, -1.0)[k], False))
        z = np.array([1e-8, 1.0, 1e8])
        y = z[:, None] + side.a
        x = side.w / y
        assert (x[0] >= 0.5).any()
        zc = z[:, None] + 0.0j
        d = side.w / (y * y)
        lg = 0.5 * np.log1p(2.0 * y * d + side.w * d) + 1j * np.arctan2(-zc.imag * d, 1.0 + y * d)
        lg = np.where(x >= 0.5, np.log((zc + side.b) / (zc + side.a)), lg)
        terms = lg * (side.pa - side.slope * y)
        want = side.dsums[0] + terms.sum(axis=1)
        got = side._cell_sums(z.reshape(1, -1), False)[0][0]
        assert (got.imag == 0.0).all()
        scale = np.abs(side.pb - side.pa).sum() + np.abs(terms).sum(axis=1)
        assert (np.abs(got.real - want.real) <= 1e-15 * scale).all(), (got, want)
        e = side.exponent(z)
        with mp.workdps(DIGITS):
            cells = _mp_phirep_sides(table)[k]
            oracle = [_mp_side(cells, zk).real for zk in z]
        for zk, g, w in zip(z, e.real, oracle):
            assert abs(g - float(w)) <= 1e-14 * max(1.0, abs(float(w))), (k, zk)


class TestLimitsFromTheRecord:
    """f_limits reads E(0) and the outer terms off the table's record: phi(0+) > 1e-9 makes E(0)
    = -inf, and any phi_out != 0 makes f unbounded, with no cut-off of its own."""

    def test_small_inner_angle(self):
        """phi(0+) = 5e-11 is below the record's 1e-9: f(0+) is finite, the limit of f at 0."""
        spec = PhiRep(1.0, PhiTable((-2.0, -0.5, 0.5, 2.0), (1.0, 5e-11, 5e-11, 1.0)))
        zero = f_limits(spec).f_at_zero
        assert 0.0 < zero < math.inf
        assert abs(zero - eval_f(spec, 1e-12).real) <= 1e-8 * zero
        assert eval_f(spec, 0.0) == zero

    def test_small_outer_angle(self):
        """phi_out = 5e-13: f grows like xi^(5e-13/pi), so f(inf-) is infinite."""
        table = VANISHING.phi
        spec = PhiRep(VANISHING.c, PhiTable(table.breakpoints, table.values[:-1] + (5e-13,)))
        assert math.isfinite(f_limits(VANISHING).f_at_infinity)
        assert f_limits(spec).f_at_infinity == math.inf


# bounded, with phi(0+) != 0 on both sides: the cells' dphi do not sum to 0 on either side
BOUNDED = PhiRep(1.0, PhiTable((-3.0, -1.0, 0.5, 2.0), (0.0, 1.2, 0.9, 0.0)))
FAR = [1e150, 1e155, 1e200, 1e298, 1e299, 1e300, 1e307]


class TestFarField:
    """Past 2^500 the cells add nothing to E that a double holds, and their terms overflow: the
    record's constants give E, with no RuntimeWarning (an error in this suite)."""

    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_bm_drift_factor(self, side):
        """f^side(xi)/f^side(1) against the closed form (xi + k)/(1 + k) on both axes: the quotient
        stays at its value at 1e10 (the table's own error, within 1e-11 on the plus side)."""
        spec = shift_spec(SHOWCASE["bm_drift"], 0.5)
        f0, f1 = (closed_form_factors("bm_drift", side, x, b=1.0, sigma=0.5) for x in (0.0, 1.0))
        k = f0 / (f1 - f0)
        handle = get_factor_handle(spec, side)
        for axis in (1.0, 1j):
            q = [complex(handle.eval(axis * x) / handle.eval(1.0)) / ((axis * x + k) / (1.0 + k))
                 for x in [1e10] + FAR]
            assert all(abs(v - q[0]) <= 2e-13 for v in q), (axis, q)
            assert side == "minus" or abs(q[0] - 1.0) <= 1e-11, q[0]

    def test_narrow_jump_cell(self):
        """A step of phi from 0 to pi at t = 1 over a 2^-50-wide cell, as a phi table's solved jump:
        E(z) = log((z + 1)/2) to 1e-15 relative also at |z| ~ 1e150, where w/|z|^2 is subnormal."""
        t = np.array([0.0, 1.0, 1.0 + 2.0**-50, 10.0])
        side = _Cells((t, np.array([0.0, 0.0, math.pi, math.pi]), math.pi))
        for z in (1e150j, 1e150 + 1.0j, 1e149 * (1.0 + 1.0j), 3.0 + 4.0j, 1e8 - 1e8j):
            want = np.log((z + 1.0) / 2.0)
            assert abs(complex(side.exponent(z)) - want) <= 1e-15 * abs(want), z

    def test_bm_drift_ratio(self):
        spec = shift_spec(SHOWCASE["bm_drift"], 0.5)
        k = math.sqrt(2.0) - 1.0
        want = (1.0 + k) / (1e299 + k)
        assert abs(wh_ratio(spec, "phi", "plus", 1.0, 1e299) - want) <= 1e-11 * want

    def test_bounded_phirep(self):
        """f(xi) tends to f(inf-); the kernel's value and derivative at 2^500 and past it."""
        inf = f_limits(BOUNDED).f_at_infinity
        assert math.isfinite(inf)
        for xi in (1e155, 1e155j, 1e300, -1e300 + 1e300j):
            assert abs(eval_f(BOUNDED, xi) - inf) <= 1e-13 * inf, xi
            assert eval_f_prime(BOUNDED, xi) == 0.0

    def test_the_cut_is_per_point(self):
        """A batch mixing near and far points gives each point its value on its own."""
        xi = np.array([0.3 + 0.1j, 1.0 + 1e155j, 2.0, 1e300, -1e200 + 1.0j])
        for spec in (LIN5, BOUNDED):
            for f in (eval_f, eval_f_prime):
                got = f(spec, xi)
                assert got.tobytes() == np.array([f(spec, complex(x)) for x in xi]).tobytes()
