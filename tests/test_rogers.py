"""Spec validation, evaluation, limits and boundary angles."""

import math
import warnings
from dataclasses import astuple, replace

import mpmath as mp
import numpy as np
import pytest

from levycm import (
    DomainError,
    EstimationError,
    LevyAtomic,
    PhiRep,
    PhiTable,
    RationalProduct,
    RogersViolationError,
    ShiftedSpec,
    StableSum,
    ValidationError,
    check_function_bounds,
    estimate_phi,
    eval_f,
    eval_f_prime,
    f_limits,
    is_compound_poisson,
    is_degenerate,
    is_symmetric,
    levy_density,
    shift_spec,
    validate_spec,
)
from levycm.numerics import _LRU, QuadratureConfig, integrate_adaptive, make_rng
from levycm.rogers import _RATIONAL_ROWS, _axis_limit, _core
from levycm.specio import SHOWCASE, load_spec, preset_path

from conftest import CONST, LIN5, VANISHING, half_plane_samples, lin200, showcase

# bounded spec equal to xi / (xi + i): one atom with compensating drift
BOUNDED = LevyAtomic(a=0.0, b=0.5, c=0.0, atoms=((1.0, math.pi),))


class TestValidation:
    def test_showcase_accepted(self, fig_a, fig_b):
        assert validate_spec(fig_a) == fig_a
        assert validate_spec(fig_b) == fig_b

    def test_lone_superlinear_term_rejected(self):
        spec = StableSum(((1.0, 0.0, 1.5, "minus-i"),))
        with pytest.raises(RogersViolationError) as exc:
            validate_spec(spec)
        # the witness hugs the imaginary axis, where the wedge bound breaks
        witness = exc.value.witness
        assert abs(witness.real) < 1e-2 * abs(witness)
        assert exc.value.value < 0
        # dense sampling near arg xi = pi/2 - 0.01 confirms the violation
        xi = abs(witness) * np.exp(1j * (math.pi / 2 - 0.01))
        assert (eval_f(spec, xi) / xi).real < 0

    def test_superlinear_needs_zero_tempering(self):
        with pytest.raises(ValidationError) as exc:
            validate_spec(StableSum(((1.0, 2.0, 1.5, "minus-i"),)))
        assert exc.value.field == "terms[0].m"

    def test_structural_fields_named(self):
        with pytest.raises(ValidationError) as exc:
            validate_spec(LevyAtomic(atoms=((1.0, -1.0),)))
        assert exc.value.field == "atoms[0].w"
        with pytest.raises(ValidationError) as exc:
            validate_spec(RationalProduct(0.0, ()))
        assert exc.value.field == "prefactor"
        with pytest.raises(ValidationError) as exc:
            validate_spec(PhiRep(1.0, PhiTable((0.0, 1.0), (4.0,), "piecewise-constant")))
        assert exc.value.field == "phi.values[0]"

    def test_table_fields_are_read_only_float_arrays(self):
        """Any sequence of numbers becomes a read-only float64 array, a copy of it; an entry numpy
        cannot read as a float raises its own error at construction, and None reads as NaN,
        which validation rejects."""
        bp = np.array([-1.0, 0.5, 2.0])
        table = PhiTable(bp, [0, np.float32(1.5), 3])
        for field, want in ((table.breakpoints, [-1.0, 0.5, 2.0]), (table.values, [0.0, 1.5, 3.0])):
            assert field.dtype == np.float64 and field.tolist() == want and not field.flags.writeable
        bp[0] = -2.0
        assert table.breakpoints[0] == -1.0
        with pytest.raises(ValueError):
            PhiTable(("x", 1.0), (0.0, 1.0))
        with pytest.raises(ValidationError) as exc:
            PhiTable((None, 1.0), (0.0, 1.0)).validate()
        assert exc.value.field == "phi.breakpoints"

    def test_table_fields_cannot_be_assigned(self):
        table = PhiTable((-1.0, 0.5, 2.0), (0.0, 1.5, 3.0))
        with pytest.raises(AttributeError):
            table.breakpoints = (0.0, 1.0)
        with pytest.raises(ValueError):
            table.values[0] = 1.0
        assert table.values.tolist() == [0.0, 1.5, 3.0]

    def test_tables_compare_and_hash_by_value(self):
        """A tuple, a list and an array of the same numbers make equal tables of equal hash, and
        -0.0 reads as 0.0; another value or tag makes a different table."""
        bp, vals = (-1.0, 0.0, 2.0), (0.0, 1.5, 3.0)
        tables = [PhiTable(bp, vals), PhiTable(list(bp), list(vals)), PhiTable(np.array(bp), np.array(vals)),
                  PhiTable((-1.0, -0.0, 2.0), (-0.0, 1.5, 3.0))]
        assert all(t == tables[0] and hash(t) == hash(tables[0]) for t in tables)
        assert math.copysign(1.0, tables[-1].breakpoints[1]) == 1.0
        assert PhiRep(1.0, tables[0]) == PhiRep(1.0, tables[-1])
        assert PhiTable(bp, (0.0, 1.5, 2.0)) != tables[0]
        assert PhiTable(bp, vals[:2], "piecewise-constant") != PhiTable(bp, vals[:2] + (0.0,))
        assert tables[0] != bp

    @pytest.mark.parametrize("bp", [1.0, [[-1.0, 0.5], [1.0, 2.0]]])
    def test_table_needs_one_dimensional_breakpoints(self, bp):
        with pytest.raises(ValidationError) as exc:
            validate_spec(PhiRep(1.0, PhiTable(bp, (0.0, 1.0))))
        assert exc.value.field == "phi.breakpoints"

    def test_canonical_atom_order(self):
        spec = validate_spec(LevyAtomic(atoms=((2.0, 1.0), (-1.0, 1.0))))
        assert spec.atoms[0][0] < spec.atoms[1][0]

    def test_lone_inverse_factor_rejected(self):
        with pytest.raises(RogersViolationError):
            validate_spec(RationalProduct(1.0, (("plus-i", 2.0, -1),)))

    @pytest.mark.parametrize("name", ["bm_drift", "tempered_stable"])
    def test_nan_shift_rejected(self, name):
        with pytest.raises(ValidationError) as exc:
            shift_spec(SHOWCASE[name], math.nan)
        assert exc.value.field == "tau"
        with pytest.raises(ValidationError) as exc:
            validate_spec(ShiftedSpec(SHOWCASE[name], math.nan))
        assert exc.value.field == "shift"


class TestSpecHash:
    """A spec's hash is computed once and kept; equality and hash follow the fields."""

    @pytest.mark.parametrize("name", sorted(SHOWCASE))
    def test_equal_specs_share_a_memo_entry(self, name):
        a, b = (load_spec(preset_path(name)) for _ in range(2))
        assert a is not b and a == b and hash(a) == hash(b)
        memo = _LRU(4)
        assert memo.get(a, lambda: "built") == memo.get(b, lambda: "rebuilt") == "built"
        assert (memo.hits, memo.misses) == (1, 1)

    def test_replace_and_shift_hash_like_fresh_specs(self):
        base = LevyAtomic(a=0.5, b=1.0, c=0.0, atoms=((2.0, 3.0),))
        hash(base)
        changed = replace(base, c=0.3)
        assert changed == shift_spec(base, 0.3) == LevyAtomic(0.5, 1.0, 0.3, ((2.0, 3.0),))
        assert hash(changed) == hash(LevyAtomic(0.5, 1.0, 0.3, ((2.0, 3.0),))) != hash(base)
        spec = SHOWCASE["rational_three_arcs"]
        twice = shift_spec(shift_spec(spec, 0.25), 0.25)
        assert twice == ShiftedSpec(spec, 0.5) and hash(twice) == hash(ShiftedSpec(spec, 0.5))
        assert hash(replace(twice, shift=0.25)) == hash(shift_spec(spec, 0.25)) != hash(twice)


class TestEval:
    def test_bm_drift_value(self, fig_a):
        assert eval_f(fig_a, 1.0 + 0.0j) == pytest.approx(0.5 - 1.0j)

    def test_stable_value(self, fig_b):
        want = 3.0 / math.sqrt(2.0) - 1j / math.sqrt(2.0)
        assert eval_f(fig_b, 1.0 + 0.0j) == pytest.approx(want, rel=1e-14)

    def test_single_atom_value(self):
        spec = LevyAtomic(atoms=((1.0, math.pi),))
        assert eval_f(spec, 1.0 + 0.0j) == pytest.approx(0.5 + 0.0j)

    def test_conjugation_symmetry(self, fig_a, fig_b, fig_c, fig_e):
        rng = make_rng(77)
        xi = half_plane_samples(rng, 100)
        for spec in (fig_a, fig_b, fig_c, fig_e, BOUNDED):
            f = eval_f(spec, xi)
            g = eval_f(spec, -np.conj(xi))
            np.testing.assert_allclose(g, np.conj(f), rtol=1e-12)

    def test_axis_inside_domain(self, fig_a):
        # f(i r) = r - r^2/2 is a positive boundary value for r < 2
        assert eval_f(fig_a, 0.5j) == pytest.approx(0.375 + 0.0j)

    def test_axis_outside_domain(self, fig_a):
        # f(-i r) = -r^2/2 - r < 0: not part of the domain
        with pytest.raises(DomainError):
            eval_f(fig_a, -0.5j)

    def test_atom_pole_rejected(self):
        with pytest.raises(DomainError):
            eval_f(BOUNDED, -1.0j)

    def test_derivative_matches_finite_difference(self, fig_a, fig_b, fig_c, fig_e):
        rng = make_rng(3)
        for spec in (fig_a, fig_b, fig_c, fig_e):
            for xi in half_plane_samples(rng, 10):
                h = 1e-6 * abs(xi)
                fd = (eval_f(spec, xi + h) - eval_f(spec, xi - h)) / (2.0 * h)
                assert eval_f_prime(spec, xi) == pytest.approx(fd, rel=1e-7)

    def test_phirep_constant_is_pure_power(self):
        table = PhiTable((-1.0, 1.0), (0.6 * math.pi,), "piecewise-constant")
        spec = PhiRep(2.0, table)
        for xi in (0.5 + 0.0j, 2.0 + 0.0j, 1.0 + 1.0j, 0.3 - 2.0j):
            assert eval_f(spec, xi) == pytest.approx(2.0 * xi**1.2, rel=1e-12)


class TestNonFinitePoints:
    """A point with a part that is not finite is outside the domain: a NaN real part would read
    as an axis point and +inf as a right one, so eval_f and eval_f_prime raise there, for a scalar
    and for such a point among finite ones."""

    POINTS = [complex(math.nan, 1.0), complex(1.0, math.nan), complex(math.inf, 1.0),
              complex(-math.inf, 1.0), complex(1.0, math.inf)]

    @pytest.mark.parametrize("evaluate", [eval_f, eval_f_prime])
    @pytest.mark.parametrize("xi", POINTS, ids=["nan+1j", "1+nanj", "inf+1j", "-inf+1j", "1+infj"])
    @pytest.mark.parametrize("name", sorted(SHOWCASE))
    def test_raises(self, name, xi, evaluate):
        spec = SHOWCASE[name]
        with pytest.raises(DomainError, match="not a finite point"):
            evaluate(spec, xi)
        with pytest.raises(DomainError, match="not a finite point"):
            evaluate(spec, np.array([1.0 + 1.0j, xi, -2.0 + 0.5j]))


class TestAxisRule:
    """eval_f and eval_f_prime read the axis at +0.0 + iy, as the boundary values do."""

    @pytest.mark.parametrize(
        "name,y",
        [
            ("quadratic_over_pole", -0.3),
            ("quadratic_over_pole", -0.5),
            ("rational_pole_pair", -0.1),
            ("rational_pole_pair", 0.1),
        ],
    )
    def test_shifted_value_is_the_boundary_value(self, name, y):
        """sigma + f is in (0, inf) there although the unshifted f is negative."""
        spec = shift_spec(SHOWCASE[name], 0.5)
        want = _axis_limit(spec, np.array([y])).real[0]
        assert want > 0.0
        assert abs(eval_f(spec, complex(0.0, y)) - want) <= 1e-15 * want
        got = eval_f(spec, np.array([1.0 + 1.0j, complex(0.0, y), -1.0 + 1.0j]))
        assert abs(got[1] - want) <= 1e-15 * want

    @pytest.mark.parametrize(
        "name", ["quadratic_over_pole", "rational_pole_pair", "rational_three_arcs", "rational_three_arcs_tight"]
    )
    def test_prime_where_a_factor_vanishes(self, name):
        """f = 0.5 at xi = 0, where a numerator factor is 0: f' by the product rule, not 0 inf."""
        spec = SHOWCASE[name]

        def f(x):
            val = mp.mpf(spec.prefactor)
            for fac in spec.factors:
                val *= ((-1j if fac.orientation == "minus-i" else 1j) * x + fac.m) ** fac.exponent
            return val + 0.5

        with mp.workdps(30):
            want = complex(mp.diff(f, 0))
        shifted = shift_spec(spec, 0.5)
        for got in (eval_f_prime(shifted, 0.0j), eval_f_prime(shifted, np.array([1.0 + 1.0j, 0.0j]))[1]):
            assert abs(got - want) <= 1e-13 * (1.0 + abs(want))

    @pytest.mark.parametrize(
        "spec,xi",
        [
            (LevyAtomic(atoms=((1, 2),)), -1.0j),
            (LevyAtomic(atoms=((1, 2),)), np.array([1.0 + 0.0j, -1.0j])),
            (SHOWCASE["quadratic_over_pole"], 0.0j),
        ],
        ids=["atom-pole", "atom-pole-array", "zero"],
    )
    def test_prime_outside_the_domain_raises(self, spec, xi):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                eval_f_prime(spec, xi)


REFLECTION_SPECS = {
    **SHOWCASE,
    **{f"{name}+0.5": shift_spec(spec, 0.5) for name, spec in SHOWCASE.items()},
    "const": CONST,
    "lin5": LIN5,
    "lin200": lin200(),
}


def _bits(v):
    return np.asarray(v, dtype=complex).tobytes()


class TestReflection:
    """Both half-planes take one core call: a mixed batch is bitwise its parts, the reflection
    is exact and a scalar is the 1-element array."""

    @staticmethod
    def _batch(spec, fn):
        """24 points alternating between the half-planes, then the admitted axis points of four."""
        xi = half_plane_samples(make_rng(25), 24)
        xi[1::2] = -np.conj(xi[1::2])
        axis = []
        for y in (-3.0, -0.7, 0.4, 2.5):
            try:
                fn(spec, np.array([complex(0.0, y)]))
                axis.append(complex(0.0, y))
            except DomainError:
                pass
        return np.append(xi, axis)

    @pytest.mark.parametrize("fn", [eval_f, eval_f_prime])
    @pytest.mark.parametrize("name", sorted(REFLECTION_SPECS))
    def test_mixed_batch_is_its_parts(self, name, fn):
        spec = REFLECTION_SPECS[name]
        xi = self._batch(spec, fn)
        got = fn(spec, xi)
        for part in (xi.real > 0.0, xi.real < 0.0, xi.real == 0.0):
            if part.any():
                assert _bits(got[part]) == _bits(fn(spec, xi[part])), (name, part)

    @pytest.mark.parametrize("fn", [eval_f, eval_f_prime])
    @pytest.mark.parametrize("name", sorted(REFLECTION_SPECS))
    def test_reflection_is_exact(self, name, fn):
        """f(-conj xi) = conj f(xi) and f'(-conj xi) = -conj f'(xi), bit for bit."""
        spec = REFLECTION_SPECS[name]
        xi = self._batch(spec, fn)
        xi = xi[xi.real != 0.0]
        want = np.conj(fn(spec, xi))
        assert _bits(fn(spec, -np.conj(xi))) == _bits(-want if fn is eval_f_prime else want), name

    @pytest.mark.parametrize("fn", [eval_f, eval_f_prime])
    @pytest.mark.parametrize("name", sorted(REFLECTION_SPECS))
    def test_scalar_is_the_one_element_array(self, name, fn):
        spec = REFLECTION_SPECS[name]
        for x in self._batch(spec, fn).tolist():
            got = fn(spec, x)
            assert type(got) is complex
            assert _bits(got) == _bits(fn(spec, np.array([x]))), (name, x)

    @pytest.mark.parametrize("fn", [eval_f, eval_f_prime])
    @pytest.mark.parametrize("name", sorted(REFLECTION_SPECS))
    def test_sequence_is_the_array(self, name, fn):
        """A list or tuple, flat or nested, gives the array call's values in its shape."""
        spec = REFLECTION_SPECS[name]
        xi = self._batch(spec, fn)[:24]
        for arr in (xi, xi.reshape(4, 6)):
            want = fn(spec, arr)
            for seq in (arr.tolist(), tuple(arr.tolist())):
                got = fn(spec, seq)
                assert isinstance(got, np.ndarray) and got.shape == arr.shape, (name, type(seq))
                assert _bits(got) == _bits(want), (name, type(seq))
        zero_d = fn(spec, np.asarray(xi[0]))
        assert isinstance(zero_d, np.ndarray) and zero_d.shape == (), name


class TestLevyDensity:
    def test_positive_side(self):
        spec = LevyAtomic(atoms=((1.0, math.pi),))
        assert levy_density(spec, 1.0) == pytest.approx(math.exp(-1.0))

    def test_one_sided(self):
        spec = LevyAtomic(atoms=((-2.0, 2 * math.pi),))
        assert levy_density(spec, 1.0) == 0.0
        assert levy_density(spec, -1.0) == pytest.approx(2.0 * math.exp(-2.0))

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            levy_density(LevyAtomic(atoms=((1.0, 1.0),)), 0.0)
        with pytest.raises(DomainError):
            levy_density(LevyAtomic(atoms=((1.0, 1.0),)), np.array([-1.0, 0.0, 2.0]))

    def test_array_matches_scalars(self):
        """One array call gives each point's scalar value, in the array's shape; a scalar gives a
        float.  Both agree to 4 ulp with the sum over the atoms of one side, point by point."""
        spec = LevyAtomic(atoms=((1.0, 2.0), (0.5, 1.0), (-3.0, 5.0)))
        x = np.array([[-2.0, -1e-3, 1e-3], [0.7, 40.0, -800.0]])
        got = levy_density(spec, x)
        assert isinstance(got, np.ndarray) and got.shape == x.shape
        scalars = [levy_density(spec, float(v)) for v in x.ravel()]
        assert all(type(v) is float for v in scalars)
        np.testing.assert_array_equal(got.ravel(), scalars)
        loop = [sum(w * math.exp(-abs(s * v)) for s, w in spec.atoms if s * v > 0.0) / math.pi for v in x.ravel()]
        np.testing.assert_allclose(scalars, loop, rtol=4 * np.finfo(float).eps, atol=0.0)
        assert scalars[-1] == 0.0

    def test_jump_integral_consistency(self):
        """eval_f agrees with direct quadrature of the jump-integral form."""
        spec = LevyAtomic(a=0.1, b=0.4, c=0.2, atoms=((1.0, 2.0), (-3.0, 5.0)))
        cfg = QuadratureConfig(rel_tol=1e-10, abs_tol=1e-13, singular_points=(0.0,))
        for xi in np.linspace(0.25, 3.0, 10):
            def integrand(x, xi=xi):
                return (
                    1.0 - np.exp(1j * xi * x)
                    + 1j * xi * (1.0 - np.exp(-np.abs(x))) * np.sign(x)
                ) * levy_density(spec, x)

            jump, _ = integrate_adaptive(integrand, (-math.inf, math.inf), cfg)
            direct = spec.a * xi**2 - 1j * spec.b * xi + spec.c + jump
            assert direct == pytest.approx(eval_f(spec, complex(xi)), rel=1e-6)


class TestLimits:
    def test_gaussian(self):
        lim = f_limits(LevyAtomic(a=1.0))
        assert lim.f_at_zero == 0.0
        assert math.isinf(lim.f_at_infinity)

    def test_bounded_spec(self):
        # f(xi) = xi/(xi+i): f(0+) = 0, f(inf-) = 1
        lim = f_limits(BOUNDED)
        assert lim.f_at_zero == 0.0
        assert lim.f_at_infinity == pytest.approx(1.0)
        assert eval_f(BOUNDED, 1e9 + 0.0j).real == pytest.approx(1.0, rel=1e-6)

    def test_tempered_stable_zero_limit(self, fig_c):
        lim = f_limits(fig_c)
        assert lim.f_at_zero == pytest.approx(1.0 + 3.0 * math.sqrt(19.0))

    def test_limits_match_eval(self, fig_c, fig_e):
        for spec in (fig_c, fig_e, BOUNDED, VANISHING):
            lim = f_limits(spec)
            if math.isfinite(lim.f_at_zero) and lim.f_at_zero > 0:
                assert eval_f(spec, 1e-8 + 0.0j).real == pytest.approx(
                    lim.f_at_zero, rel=1e-6
                )
            if math.isfinite(lim.f_at_infinity) and lim.f_at_infinity > 0:
                assert eval_f(spec, 1e8 + 0.0j).real == pytest.approx(
                    lim.f_at_infinity, rel=1e-6
                )


def _two_loop_rational_limits(spec):
    """f(0+) and f(inf-) of a RationalProduct, each leading coefficient in a loop of its own."""
    zero_order = sum(f.exponent for f in spec.factors if f.m == 0.0)
    degree = sum(f.exponent for f in spec.factors)
    zero = inf = None
    if zero_order == 0:
        val = complex(spec.prefactor)
        for f in spec.factors:
            rot = -1j if f.orientation == "minus-i" else 1j
            base = rot * 0.0 + f.m if f.m > 0.0 else rot
            val = val * base if f.exponent == 1 else val / base
        zero = max(val.real, 0.0)
    if degree == 0:
        val = complex(spec.prefactor)
        for f in spec.factors:
            rot = -1j if f.orientation == "minus-i" else 1j
            val = val * rot if f.exponent == 1 else val / rot
        inf = max(val.real, 0.0)
    zero = 0.0 if zero_order > 0 else math.inf if zero_order < 0 else zero
    inf = math.inf if degree > 0 else 0.0 if degree < 0 else inf
    return zero, inf


class TestRationalLimits:
    def test_one_pass_matches_two_loops(self):
        """Both limits bitwise those of a loop per coefficient, on the rational presets, their
        shifts and seeded products whose orders at 0 and at inf are 0 in about half the draws."""
        specs = [SHOWCASE[k] for k in sorted(SHOWCASE) if isinstance(SHOWCASE[k], RationalProduct)]
        rng = np.random.default_rng(11)
        for _ in range(400):
            factors = tuple(
                (str(rng.choice(["minus-i", "plus-i"])), float(rng.choice([0.0, rng.uniform(0.1, 3.0)])),
                 int(rng.choice([-1, 1])))
                for _ in range(int(rng.integers(0, 5)))
            )
            specs.append(RationalProduct(float(rng.uniform(0.1, 3.0)), factors))
        orders = set()
        for spec in specs:
            want = _two_loop_rational_limits(spec)
            for shift in (0.0, 0.5):
                got = astuple(f_limits(shift_spec(spec, shift)))
                shifted = [v + shift for v in want] if shift else want
                assert [v.hex() for v in got] == [v.hex() for v in shifted], (spec, shift)
            orders.add(tuple(math.isfinite(v) and v > 0.0 for v in want))
        assert orders == {(a, b) for a in (False, True) for b in (False, True)}


def _loop_rational_core(spec, xi, prime=False):
    """The rational family core as a loop that forms each factor's base on its own, the reference
    for the broadcast of every base at once."""
    val, logd = np.full_like(xi, spec.prefactor), np.zeros_like(xi)
    for f in spec.factors:
        rot = -1j if f.orientation == "minus-i" else 1j
        base = rot * xi + f.m
        val = val * base if f.exponent == 1 else val / base
        if prime:
            logd = logd + f.exponent * rot / base
    if not prime:
        return val
    val = val * logd
    if not np.isfinite(val).all():
        for k, f in enumerate(spec.factors):
            rot = -1j if f.orientation == "minus-i" else 1j
            zero = (rot * xi + f.m == 0.0) & (f.exponent == 1)
            if np.any(zero):
                rest = replace(spec, factors=spec.factors[:k] + spec.factors[k + 1 :])
                val[zero] = rot * _loop_rational_core(rest, xi[zero])
    return val


class TestRationalCore:
    """f and f' of the rational family bitwise the per-factor loop's, on the rational presets and
    seeded products, at right half-plane points and on the axis where a numerator factor vanishes."""

    @staticmethod
    def _specs():
        specs = [SHOWCASE[k] for k in sorted(SHOWCASE) if isinstance(SHOWCASE[k], RationalProduct)]
        rng = np.random.default_rng(48)
        for _ in range(40):
            factors = tuple(
                (str(rng.choice(["minus-i", "plus-i"])), float(rng.choice([0.0, rng.uniform(0.1, 3.0)])),
                 int(rng.choice([-1, 1])))
                for _ in range(int(rng.integers(0, 7)))
            )
            specs.append(RationalProduct(float(rng.uniform(0.1, 3.0)), factors))
        return specs

    @pytest.mark.parametrize("n", [64, 2 * _RATIONAL_ROWS])
    def test_bitwise_the_loop(self, n):
        """Batches that form their bases in one broadcast (64 points) and one at a time (512)."""
        xi = half_plane_samples(np.random.default_rng(5), n)
        zeros = 0
        for spec in self._specs():
            # rot m, where a numerator factor rot xi + m vanishes, then the origin and two axis points
            axis = [(-1j if f.orientation == "minus-i" else 1j) * f.m for f in spec.factors if f.exponent == 1]
            points = np.concatenate([xi, np.array(axis + [0.0, 0.7j, -2.5j], dtype=complex)])
            for prime in (False, True):
                with np.errstate(all="ignore"):
                    got, want = _core(spec, points, prime), _loop_rational_core(spec, points, prime)
                assert got.tobytes() == want.tobytes(), (spec, prime)
            zeros += len(axis)
        assert zeros > 40


class TestPredicates:
    def test_compound_poisson(self):
        assert is_compound_poisson(BOUNDED)
        assert not is_compound_poisson(LevyAtomic(a=1.0))

    def test_degenerate(self):
        assert is_degenerate(LevyAtomic(b=2.0))
        assert not is_degenerate(LevyAtomic(a=1.0))

    def test_symmetric(self, fig_a):
        assert is_symmetric(LevyAtomic(a=1.0))
        assert not is_symmetric(fig_a)


class TestEstimatePhi:
    def test_gaussian_angle(self):
        spec = LevyAtomic(a=1.0)
        for s in (0.3, -2.0, 15.0):
            assert estimate_phi(spec, s) == pytest.approx(math.pi, abs=1e-9)

    def test_pure_drift(self):
        spec = LevyAtomic(b=1.0)
        assert estimate_phi(spec, 1.0) == pytest.approx(math.pi, abs=1e-9)
        assert estimate_phi(spec, -1.0) == pytest.approx(0.0, abs=1e-9)

    def test_stable_angles(self, fig_b):
        assert estimate_phi(fig_b, 1.0) == pytest.approx(math.atan(2.0), abs=1e-9)
        assert estimate_phi(fig_b, -1.0) == pytest.approx(math.atan(0.5), abs=1e-9)

    def test_phirep_roundtrip(self):
        table = PhiTable(
            (-4.0, -1.0, 0.5, 2.0, 7.0),
            (0.3, 1.1, 0.0, 2.4),
            "piecewise-constant",
        )
        spec = PhiRep(1.5, table)
        mids = (-2.0, math.sqrt(0.5 * 2.0), math.sqrt(2.0 * 7.0))
        want = (0.3, 0.0, 2.4)
        for s, expect in zip(mids, want):
            assert estimate_phi(spec, s) == pytest.approx(expect, abs=5e-3)

    S_SIDE = np.geomspace(1e-3, 1e3, 101)

    @pytest.mark.parametrize(
        "spec,plus,minus",
        [
            (LevyAtomic(a=1.0), math.pi, math.pi),
            (LevyAtomic(b=1.0), math.pi, 0.0),
            (showcase("b"), math.atan(2.0), math.atan(0.5)),
        ],
        ids=["gaussian", "drift", "stable_asym"],
    )
    def test_array_closed_forms(self, spec, plus, minus):
        s = np.concatenate([-self.S_SIDE[::-1], self.S_SIDE]).reshape(2, -1)
        got = estimate_phi(spec, s)
        assert got.shape == s.shape
        np.testing.assert_allclose(got[0], minus, rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(got[1], plus, rtol=0.0, atol=1e-9)

    def test_non_finite_boundary_value_raises(self):
        # f overflows to infinity on the axis and at the retry beside it
        with pytest.raises(EstimationError):
            estimate_phi(LevyAtomic(a=1e300), 1e5)

    def test_pole_on_axis_is_right_angle(self):
        # xi^2/(i xi + 2) has a simple pole at xi = 2i: the horizontal approach gives pi/2
        assert estimate_phi(showcase("e"), -2.0) == pytest.approx(0.5 * math.pi, abs=1e-9)

    @pytest.mark.parametrize(
        "table",
        [
            PhiTable((-4.0, -1.0, 0.5, 2.0, 7.0), (0.3, 1.1, 0.0, 2.4), "piecewise-constant"),
            PhiTable((-5.0, -1.0, 0.5, 2.0, 8.0), (0.2, 1.4, 0.9, 2.0, 0.6), "piecewise-linear"),
        ],
        ids=["pw_constant", "linear5"],
    )
    def test_phirep_table_exact(self, table):
        """The boundary value of a PhiRep exponent is its table, away from the breakpoints."""
        s = np.geomspace(1e-3, 1e3, 401)
        s = np.concatenate([-s[::-1], s])
        bp = np.asarray(table.breakpoints)
        s = s[np.min(np.abs(s[:, None] / bp - 1.0), axis=1) > 1e-3]
        got = estimate_phi(PhiRep(1.5, table), s)
        np.testing.assert_allclose(got, table.value_at(s), rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("k", [3, 5, 6, 9])
    def test_tempered_branch_points_against_mpmath(self, fig_c, k):
        """(-i xi + 1)^(1/2) + 3 (i xi + 19)^(1/2) beside its branch points s = 1 and s = -19."""
        for s in (1.0 + 10.0**-k, 1.0 - 10.0**-k, -19.0 * (1.0 + 10.0**-k), -19.0 * (1.0 - 10.0**-k)):
            with mp.workdps(40):
                xi = mp.mpc(mp.mpf(10) ** -60, -mp.mpf(s))  # t -> 0+ far below 40 digits
                want = float(abs(mp.arg(mp.sqrt(-1j * xi + 1) + 3 * mp.sqrt(1j * xi + 19))))
            assert estimate_phi(fig_c, s) == pytest.approx(want, abs=1e-14), s


class TestFunctionBounds:
    def test_showcase_passes(self, fig_a):
        rng = make_rng(11)
        rep = check_function_bounds(fig_a, half_plane_samples(rng, 100))
        assert rep.passed, rep.failures()

    def test_degenerate_boundary_tight(self):
        rng = make_rng(12)
        rep = check_function_bounds(LevyAtomic(b=1.0), half_plane_samples(rng, 25))
        assert rep.passed
        # the wedge bound is attained exactly
        wedge = [c.margin for c in rep.checks if c.name.startswith("arg-wedge")]
        assert min(wedge) < 1e-10

    def test_corrupted_spec_fails(self):
        bad = LevyAtomic(atoms=((1.0, -2.0),))  # bypasses validation on purpose
        rng = make_rng(13)
        rep = check_function_bounds(bad, half_plane_samples(rng, 60))
        assert rep.n_failures >= 1
