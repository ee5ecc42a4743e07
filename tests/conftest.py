import numpy as np
import pytest

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
