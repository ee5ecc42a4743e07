"""Exact-path simulation against the analytic transforms."""

import math

import numpy as np
import pytest

from levycm import LevyAtomic, MethodUnsupportedError, StableSum, ValidationError
from levycm.fluctuation import pr_laplace
from levycm.montecarlo import (
    JointQuery,
    LaplaceQuery,
    TailQuery,
    _bridge_argmax,
    _bridge_max,
    _horizons,
    _mixture,
    mc_estimates,
    simulate_sup_samples,
)
from levycm.rogers import compensator_drift

BM = LevyAtomic(a=0.5)
HYPER_CP = LevyAtomic(a=0.0, b=0.8, c=0.0, atoms=((2.0, 3.0), (-1.5, 2.0)))
CP_GAUSS = LevyAtomic(a=0.3, b=-0.2, c=0.0, atoms=((1.0, 2.0), (-2.0, 4.0)))
COLUMNS = ("sup_value", "argmax_time", "horizon", "killed")


def _same(a, b):
    return all(np.array_equal(getattr(a, c), getattr(b, c)) for c in COLUMNS)


def _loop_sampler(spec, sigma, n, seed):
    """Reference: one path at a time, segment by segment, scalar draws."""
    rng = np.random.default_rng(seed)
    rates, scales, signs = _mixture(spec)
    drift = spec.b - compensator_drift(spec)
    horizon, _ = _horizons(spec, sigma, n, rng)
    v = 2.0 * spec.a
    total_rate = float(np.sum(rates))
    sup, tmax = np.zeros(n), np.zeros(n)
    for i in range(n):
        T = float(horizon[i])
        n_jumps = rng.poisson(total_rate * T)
        times = np.sort(rng.uniform(0.0, T, size=n_jumps))
        comps = rng.choice(len(rates), size=n_jumps, p=rates / total_rate)
        sizes = signs[comps] * rng.exponential(1.0 / scales[comps])
        best = t_best = x = t_prev = 0.0
        for k in range(n_jumps + 1):
            t_next = float(times[k]) if k < n_jumps else T
            dt = t_next - t_prev
            if dt > 0.0:
                if v > 0.0:
                    w = drift * dt + math.sqrt(v * dt) * rng.standard_normal()
                    m_rel = float(_bridge_max(rng, w, v * dt))
                    if x + m_rel > best:
                        best = x + m_rel
                        t_best = t_prev + float(
                            _bridge_argmax(rng, np.array(m_rel), np.array(w), np.array(dt), v)
                        )
                    x += w
                else:
                    x_end = x + drift * dt
                    if max(x, x_end) > best:
                        best = max(x, x_end)
                        t_best = t_next if drift > 0.0 else t_prev
                    x = x_end
            if k < n_jumps:
                x += float(sizes[k])
                if x > best:
                    best, t_best = x, t_next
            t_prev = t_next
        sup[i], tmax[i] = best, t_best
    return sup, tmax


def _ks_pvalue(x, y):
    """Two-sample Kolmogorov-Smirnov p-value (asymptotic, Stephens' correction)."""
    x, y = np.sort(x), np.sort(y)
    both = np.concatenate([x, y])
    cdf_x = np.searchsorted(x, both, side="right") / x.size
    cdf_y = np.searchsorted(y, both, side="right") / y.size
    d = np.abs(cdf_x - cdf_y).max()
    ne = x.size * y.size / (x.size + y.size)
    lam = (math.sqrt(ne) + 0.12 + 0.11 / math.sqrt(ne)) * d
    k = np.arange(1, 101)
    return float(np.clip(2.0 * np.sum((-1.0) ** (k - 1) * np.exp(-2.0 * (k * lam) ** 2)), 0.0, 1.0))


class TestPathLaw:
    def test_pure_drift_exact(self):
        spec = LevyAtomic(b=2.0)
        samples = simulate_sup_samples(spec, 1.0, 2000, seed=1)
        assert samples.sup_value == pytest.approx(2.0 * samples.horizon, abs=1e-12)
        assert np.array_equal(samples.argmax_time, samples.horizon)
        mean = np.mean(samples.sup_value)
        assert mean == pytest.approx(2.0, rel=0.1)

    def test_negative_drift_sup_zero(self):
        spec = LevyAtomic(b=-1.0)
        samples = simulate_sup_samples(spec, 1.0, 100, seed=2)
        assert np.all(samples.sup_value == 0.0) and np.all(samples.argmax_time == 0.0)

    def test_bm_laplace_matches(self):
        samples = simulate_sup_samples(BM, 0.5, 200000, seed=42)
        est = mc_estimates(samples, [LaplaceQuery(1.0)], seed=42)[0]
        assert abs(est.mean - 0.5) <= 3.0 * est.std_error

    def test_bm_argmax_arcsine(self):
        """Unconditioned argmax over the horizon follows the arcsine law."""
        samples = simulate_sup_samples(BM, 0.5, 50000, seed=3)
        u = samples.argmax_time / samples.horizon
        grid = np.linspace(0.05, 0.95, 10)
        emp = np.array([(u <= g).mean() for g in grid])
        want = 2.0 / math.pi * np.arcsin(np.sqrt(grid))
        assert np.abs(emp - want).max() < 3.0 * 0.5 / math.sqrt(len(u))

    def test_kill_truncates(self):
        spec = LevyAtomic(b=1.0, c=2.0)
        samples = simulate_sup_samples(spec, 0.5, 20000, seed=4)
        frac_killed = np.mean(samples.killed)
        assert frac_killed == pytest.approx(2.0 / 2.5, abs=0.02)

    @pytest.mark.parametrize("spec,sigma,seed", [(HYPER_CP, 0.7, 31), (CP_GAUSS, 0.6, 32)])
    def test_matches_loop_sampler(self, spec, sigma, seed):
        """Same law as the one-path-at-a-time sampler (two-sample KS)."""
        samples = simulate_sup_samples(spec, sigma, 10000, seed=seed)
        sup, tmax = _loop_sampler(spec, sigma, 10000, seed)
        assert _ks_pvalue(samples.sup_value, sup) > 1e-3
        assert _ks_pvalue(samples.argmax_time, tmax) > 1e-3

    def test_downward_jumps_never_rise(self):
        spec = LevyAtomic(a=0.0, b=-1.0, atoms=((-1.0, 2.0), (-3.0, 1.0)))
        assert spec.b - compensator_drift(spec) < 0.0
        samples = simulate_sup_samples(spec, 0.5, 5000, seed=33)
        assert np.all(samples.sup_value == 0.0)
        assert np.all(samples.argmax_time == 0.0)

    def test_upward_jumps_peak_at_horizon(self):
        spec = LevyAtomic(a=0.0, b=1.0, atoms=((1.0, 2.0), (3.0, 1.0)))
        drift = spec.b - compensator_drift(spec)
        assert drift > 0.0
        samples = simulate_sup_samples(spec, 0.5, 5000, seed=34)
        assert np.array_equal(samples.argmax_time, samples.horizon)
        assert np.all(samples.sup_value >= drift * samples.horizon)


class TestContracts:
    def test_deterministic(self):
        a = simulate_sup_samples(BM, 0.5, 5000, seed=7)
        b = simulate_sup_samples(BM, 0.5, 5000, seed=7)
        assert _same(a, b)

    def test_seed_matters(self):
        a = simulate_sup_samples(BM, 0.5, 100, seed=7)
        b = simulate_sup_samples(BM, 0.5, 100, seed=8)
        assert not _same(a, b)

    def test_shard_prefix(self):
        k = 40
        long = simulate_sup_samples(CP_GAUSS, 0.6, 3 * k + 5, seed=35, shard_size=k)
        short = simulate_sup_samples(CP_GAUSS, 0.6, k, seed=35, shard_size=k)
        assert len(long) == 3 * k + 5 and len(short) == k
        assert all(np.array_equal(getattr(long, c)[:k], getattr(short, c)) for c in COLUMNS)

    def test_unsupported_spec(self, fig_b):
        with pytest.raises(MethodUnsupportedError):
            simulate_sup_samples(fig_b, 0.5, 10, seed=0)

    def test_empty_estimates_rejected(self):
        with pytest.raises(ValidationError):
            mc_estimates([], [LaplaceQuery(1.0)])

    @pytest.mark.parametrize(
        "make,field",
        [
            (lambda: LaplaceQuery(math.nan), "xi"),
            (lambda: LaplaceQuery(math.inf), "xi"),
            (lambda: LaplaceQuery(-1.0), "xi"),
            (lambda: TailQuery(math.nan), "x"),
            (lambda: TailQuery(-math.inf), "x"),
            (lambda: JointQuery(math.nan, 1.0), "xi"),
            (lambda: JointQuery(1.0, math.inf), "tau"),
            (lambda: JointQuery(1.0, -0.5), "tau"),
        ],
    )
    def test_query_arguments_validated(self, make, field):
        with pytest.raises(ValidationError) as info:
            make()
        assert info.value.field == field

    @pytest.mark.parametrize("query", [object(), "laplace(xi=1)", (1.0,)], ids=["object", "label", "tuple"])
    def test_unknown_query_rejected(self, query):
        samples = simulate_sup_samples(BM, 0.5, 10, seed=0)
        with pytest.raises(ValidationError) as info:
            mc_estimates(samples, [LaplaceQuery(1.0), query])
        assert info.value.field == "queries"

    def test_negative_tail_threshold_allowed(self):
        samples = simulate_sup_samples(BM, 0.5, 100, seed=9)
        assert mc_estimates(samples, [TailQuery(-1.0)])[0].mean == 1.0

    def test_no_paths_rejected(self):
        with pytest.raises(ValidationError):
            simulate_sup_samples(HYPER_CP, 0.5, 0, seed=0)

    @pytest.mark.parametrize("shard_size", [0, -5])
    def test_shard_size_validated(self, shard_size):
        with pytest.raises(ValidationError) as info:
            simulate_sup_samples(HYPER_CP, 0.5, 10, seed=0, shard_size=shard_size)
        assert info.value.field == "shard_size"

    @pytest.mark.parametrize("sigma", [math.inf, math.nan, 0.0])
    def test_killing_rate_validated(self, sigma):
        with pytest.raises(ValidationError) as info:
            simulate_sup_samples(HYPER_CP, sigma, 10, seed=0)
        assert info.value.field == "sigma"

    def test_trivial_queries(self):
        samples = simulate_sup_samples(BM, 0.5, 2000, seed=9)
        tail0, lap0 = mc_estimates(samples, [TailQuery(0.0), LaplaceQuery(0.0)])
        assert tail0.mean == 1.0  # Gaussian part: the supremum is positive a.s.
        assert lap0.mean == 1.0

    def test_tail_monotone(self):
        samples = simulate_sup_samples(HYPER_CP, 0.7, 20000, seed=10)
        ests = mc_estimates(samples, [TailQuery(x) for x in (0.5, 1.0, 2.0)])
        means = [e.mean for e in ests]
        assert means[0] >= means[1] >= means[2]

    def test_std_error_scaling(self):
        """Doubling the sample count shrinks the error by about sqrt(2)."""
        small = simulate_sup_samples(BM, 0.5, 100000, seed=11)
        big = simulate_sup_samples(BM, 0.5, 200000, seed=12)
        se_small = mc_estimates(small, [LaplaceQuery(1.0)])[0].std_error
        se_big = mc_estimates(big, [LaplaceQuery(1.0)])[0].std_error
        assert 1.30 <= se_small / se_big <= 1.52


class TestCrossValidation:
    @pytest.mark.parametrize(
        "spec,sigma,seed",
        [(BM, 0.5, 21), (HYPER_CP, 0.7, 22), (CP_GAUSS, 0.6, 23)],
    )
    def test_laplace_and_joint(self, spec, sigma, seed):
        samples = simulate_sup_samples(spec, sigma, 60000, seed=seed)
        for xi in (0.5, 1.0, 2.0):
            est = mc_estimates(samples, [LaplaceQuery(xi)])[0]
            ana = pr_laplace(spec, sigma, 0.0, xi)
            assert abs(est.mean - ana) <= 3.5 * est.std_error, (xi, est.mean, ana)
        est = mc_estimates(samples, [JointQuery(1.0, 1.0)])[0]
        ana = pr_laplace(spec, sigma, 1.0, 1.0)
        assert abs(est.mean - ana) <= 3.5 * est.std_error

    def test_infimum_side(self):
        """The mirrored spec samples the infimum transform."""
        mirrored = LevyAtomic(a=0.0, b=-HYPER_CP.b, c=0.0,
                              atoms=tuple((-s, w) for s, w in HYPER_CP.atoms))
        samples = simulate_sup_samples(mirrored, 0.7, 60000, seed=24)
        est = mc_estimates(samples, [LaplaceQuery(1.0)])[0]
        ana = pr_laplace(HYPER_CP, 0.7, 0.0, 1.0, side="minus")
        assert abs(est.mean - ana) <= 3.5 * est.std_error
