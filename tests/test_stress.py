"""Randomized robustness checks across the spec families.

These go beyond the fixed oracles: random atomic measures with clustered
and widely separated atoms, cross-identities tying the temporal ratio
machinery to the factor evaluators, and linear boundary-angle tables.
"""

import math

import numpy as np
import pytest

from levycm import LevyAtomic, PhiRep, PhiTable, eval_f, f_limits, is_degenerate, validate_spec
from levycm import fluctuation
from levycm.fluctuation import kappa_ratio_tau, kappa_ratio_xi, pr_laplace
from levycm.numerics import make_rng
from levycm.wiener_hopf import factorization_check, wh_ratio

from conftest import half_plane_samples, sup_laplace


def _random_atomic(rng):
    n_atoms = int(rng.integers(0, 5))
    atoms = []
    for _ in range(n_atoms):
        s = math.copysign(
            math.exp(rng.uniform(math.log(0.05), math.log(50.0))),
            rng.uniform(-1, 1),
        )
        w = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
        atoms.append((s, w))
    a = rng.uniform(0.0, 1.0) if rng.random() < 0.7 else 0.0
    b = rng.uniform(-1.5, 1.5)
    c = rng.uniform(0.0, 0.5) if rng.random() < 0.3 else 0.0
    spec = LevyAtomic(a=a, b=b, c=c, atoms=tuple(atoms))
    if a == 0.0 and not atoms and b == 0.0:
        spec = LevyAtomic(a=1.0)
    return validate_spec(spec)


class TestRandomAtomicSpecs:
    def test_factorization_holds(self):
        rng = make_rng(9001)
        for k in range(12):
            spec = _random_atomic(rng)
            samples = half_plane_samples(rng, 12, 0.1, 8.0)
            rep = factorization_check(spec, samples, tol=1e-3)
            assert rep.passed, (k, spec, rep.failures()[:2])

    def test_method_agreement(self):
        rng = make_rng(9002)
        for k in range(8):
            spec = _random_atomic(rng)
            x1 = math.exp(rng.uniform(math.log(0.3), math.log(4.0)))
            x2 = math.exp(rng.uniform(math.log(0.3), math.log(4.0)))
            side = "plus" if rng.random() < 0.5 else "minus"
            bd = wh_ratio(spec, "bd", side, x1, x2)
            phi = wh_ratio(spec, "phi", side, x1, x2)
            assert abs(phi - bd) <= 1e-3 * abs(bd), (k, spec, side, x1, x2)

    def test_spine_against_bd(self):
        """Narrow spine excursions into Z around axis poles and slivers beside Z boundaries."""
        rng = make_rng(9008)
        for k in range(12):
            spec = _random_atomic(rng)
            x1 = math.exp(rng.uniform(math.log(0.3), math.log(4.0)))
            x2 = math.exp(rng.uniform(math.log(0.3), math.log(4.0)))
            side = "plus" if rng.random() < 0.5 else "minus"
            if is_degenerate(spec):
                continue
            bd = wh_ratio(spec, "bd", side, x1, x2)
            got = wh_ratio(spec, "spine", side, x1, x2)
            assert got == pytest.approx(bd, rel=1e-10), (k, spec, side, x1, x2)

    def test_clustered_atoms(self):
        """A near-coincident pole/zero pair must not destabilize anything."""
        spec = validate_spec(
            LevyAtomic(a=0.1, b=0.3, atoms=((1.0, 2.0), (1.004, 0.01), (-3.0, 1.0)))
        )
        rng = make_rng(9003)
        rep = factorization_check(spec, half_plane_samples(rng, 10, 0.2, 5.0), tol=1e-3)
        assert rep.passed, rep.failures()

    def test_sup_tail_laplace_identity(self):
        """The sup_tail measure against E exp(-xi sup) by the contour route."""
        rng = make_rng(9010)
        for k in range(12):
            spec = _random_atomic(rng)
            sigma = math.exp(rng.uniform(math.log(0.2), math.log(3.0)))
            ev = fluctuation._sup_evaluator(spec, sigma)
            for xi in (0.5, 2.0):
                want = pr_laplace(spec, sigma, 0.0, xi)
                assert abs(sup_laplace(ev, xi) - want) <= 1e-9, (k, spec, sigma, xi)


class TestTemporalRatioCrossIdentity:
    """Four-point consistency between the contour-in-z and factor routes.

    kappa(t1,x1) kappa(t2,x2) / (kappa(t1,x2) kappa(t2,x1)) computed once
    from temporal ratios at fixed spatial points and once from spatial
    ratios of the two shifted exponents must agree; the two routes share
    no quadrature.
    """

    @pytest.mark.parametrize(
        "spec",
        [
            LevyAtomic(a=0.5, b=1.0),
            LevyAtomic(a=0.0, b=0.9, atoms=((2.0, 3.0), (-1.5, 2.0))),
            LevyAtomic(a=0.25, b=-0.4, c=0.1, atoms=((0.7, 1.0),)),
        ],
    )
    def test_four_point(self, spec):
        t1, t2 = 0.4, 2.5
        x1, x2 = 0.8, 3.0
        via_tau = kappa_ratio_tau(spec, x1, t1, t2) / kappa_ratio_tau(spec, x2, t1, t2)
        via_xi = kappa_ratio_xi(spec, t1, x1, x2) / kappa_ratio_xi(spec, t2, x1, x2)
        assert via_tau == pytest.approx(via_xi, rel=1e-7)

    def test_four_point_minus_side(self):
        spec = LevyAtomic(a=0.5, b=-0.7)
        t1, t2 = 0.3, 1.7
        x1, x2 = 0.5, 2.0
        via_tau = kappa_ratio_tau(spec, x1, t1, t2, side="minus") / kappa_ratio_tau(
            spec, x2, t1, t2, side="minus"
        )
        via_xi = kappa_ratio_xi(spec, t1, x1, x2, side="minus") / kappa_ratio_xi(
            spec, t2, x1, x2, side="minus"
        )
        assert via_tau == pytest.approx(via_xi, rel=1e-7)


class TestLinearPhiTables:
    def test_linear_table_evaluation_and_factors(self):
        """A genuinely piecewise-linear boundary angle, closed-form cell route."""
        table = PhiTable(
            (-5.0, -1.0, 0.5, 2.0, 8.0),
            (0.2, 1.4, 0.9, 2.0, 0.6),
            "piecewise-linear",
        )
        spec = validate_spec(PhiRep(1.2, table))
        rng = make_rng(9004)
        xi = half_plane_samples(rng, 20)
        f = eval_f(spec, xi)
        g = eval_f(spec, -np.conj(xi))
        np.testing.assert_allclose(g, np.conj(f), rtol=1e-10)
        lim = f_limits(spec)
        # phi(0) > 0 here, so f vanishes at the origin like a power
        assert lim.f_at_zero == 0.0
        small = eval_f(spec, 1e-8 + 0.0j).real
        assert 0.0 < small < 1e-4
        assert eval_f(spec, 1e-10 + 0.0j).real < small
        bd = wh_ratio(spec, "bd", "plus", 2.0, 1.0)
        phi = wh_ratio(spec, "phi", "plus", 2.0, 1.0)
        assert abs(phi - bd) <= 1e-3 * abs(bd)
        rep = factorization_check(spec, half_plane_samples(rng, 8, 0.3, 4.0), tol=1e-3)
        assert rep.passed, rep.failures()
