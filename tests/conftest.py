import math

import numpy as np
import pytest

from levycm import PhiRep, PhiTable
from levycm.specio import SHOWCASE

# the eight showcase exponents, keyed by their traditional gallery letters
LETTERS = {
    "a": "bm_drift",
    "b": "stable_asym",
    "c": "tempered_stable",
    "d": "stable_mixed",
    "e": "quadratic_over_pole",
    "f": "rational_pole_pair",
    "g": "rational_three_arcs",
    "h": "rational_three_arcs_tight",
}


def showcase(letter):
    return SHOWCASE[LETTERS[letter]]


# a linear PhiRep table and a constant one, as in the eval_phirep benchmark
LIN5 = PhiRep(1.2, PhiTable((-5.0, -1.0, 0.5, 2.0, 8.0), (0.2, 1.4, 0.9, 2.0, 0.6), "piecewise-linear"))
CONST = PhiRep(1.0, PhiTable((-3.0, -0.5, 0.7, 4.0), (0.4, 1.9, 0.8), "piecewise-constant"))
# phi = 0 on [-0.5, 0.5] and beyond its window: f(0+) and f(inf-) are finite and positive
VANISHING = PhiRep(1.3, PhiTable((-4.0, -1.0, -0.5, 0.5, 1.0, 3.0), (0.0, 1.1, 0.0, 0.0, 0.8, 0.0)))


def lin200():
    """A ~200-breakpoint linear table from smooth seeded profiles."""
    rng = np.random.default_rng(2024)
    u = np.sort(rng.uniform(math.log(1e-2), math.log(1e2), 100))
    ph = rng.uniform(0.0, 2.0 * math.pi, 4)

    def profile(v, p1, p2):
        return 1.3 + 0.4 * np.sin(0.7 * v + p1) + 0.2 * np.sin(1.9 * v + p2)

    bp = np.concatenate([-np.exp(u[::-1]), np.exp(u)])
    vals = np.concatenate([profile(u[::-1], ph[0], ph[1]), profile(u, ph[2], ph[3])])
    return PhiRep(1.0, PhiTable(tuple(bp), tuple(vals), "piecewise-linear"))


@pytest.fixture(scope="session")
def fig_a():
    return showcase("a")


@pytest.fixture(scope="session")
def fig_b():
    return showcase("b")


@pytest.fixture(scope="session")
def fig_c():
    return showcase("c")


@pytest.fixture(scope="session")
def fig_e():
    return showcase("e")


@pytest.fixture(scope="session")
def fig_g():
    return showcase("g")


def half_plane_samples(rng, n, r_lo=0.05, r_hi=20.0, pad=0.05):
    r = np.exp(rng.uniform(np.log(r_lo), np.log(r_hi), n))
    ang = rng.uniform(-np.pi / 2 + pad, np.pi / 2 - pad, n)
    return r * np.exp(1j * ang)


def sup_laplace(evaluator, xi):
    """E exp(-xi sup) from a sup_tail evaluator: 1 - xi sum c / (xi + t)."""
    return 1.0 - xi * np.sum(evaluator.c / (xi + evaluator.t))


def upper_half_samples(rng, n, r_lo=0.1, r_hi=10.0, pad=0.15):
    r = np.exp(rng.uniform(np.log(r_lo), np.log(r_hi), n))
    ang = rng.uniform(pad, np.pi - pad, n)
    return r * np.exp(1j * ang)
