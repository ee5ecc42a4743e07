"""Exact-path simulation against the analytic transforms."""

import math

import numpy as np
import pytest

from levycm import LevyAtomic, MethodUnsupportedError, StableSum, ValidationError, montecarlo, verify
from levycm.fluctuation import pr_laplace
from levycm.montecarlo import (
    JointQuery,
    LaplaceQuery,
    TailQuery,
    _bridge_argmax,
    _bridge_max,
    _horizons,
    _mixture,
    _path_cumsum,
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


def _ref_ig_sample(rng, mu, lam):
    y = rng.standard_normal(mu.shape) ** 2
    x = mu + mu * mu * y / (2.0 * lam) - (mu / (2.0 * lam)) * np.sqrt(
        4.0 * mu * lam * y + (mu * y) ** 2
    )
    u = rng.uniform(size=mu.shape)
    return np.where(u <= mu / (mu + x), x, mu * mu / np.where(x > 0, x, 1.0))


def _ref_bridge_argmax(rng, m, w, dt, v):
    """Reference bridge argmax: the sampler's draws and arithmetic, one temporary per step."""
    a = m / math.sqrt(v)
    b = (m - w) / math.sqrt(v)
    a = np.clip(a, 1e-300, None)
    b = np.clip(b, 1e-300, None)
    pick = rng.uniform(size=m.shape) < a / (a + b)
    mu1 = b / a
    lam1 = b * b / dt
    g_direct = _ref_ig_sample(rng, mu1, lam1)
    mu2 = a / b
    lam2 = a * a / dt
    g_recip = 1.0 / _ref_ig_sample(rng, mu2, lam2)
    g = np.where(pick, g_direct, g_recip)
    t = dt / (1.0 + g)
    t = np.where(m <= 1e-14 * np.abs(w), 0.0, t)
    t = np.where(np.abs(m - w) <= 1e-14 * np.abs(m), dt, t)
    return t


def _lexsort_block(spec, drift, rates, scales, signs, sigma, m, rng):
    """Reference jump block: times ordered by ``lexsort``, winners by ``minimum.reduceat``."""
    horizon, killed = _horizons(spec, sigma, m, rng)
    v = 2.0 * spec.a
    total_rate = float(np.sum(rates))
    counts = rng.poisson(total_rate * horizon)
    path = np.repeat(np.arange(m), counts)
    u = rng.uniform(size=path.size) * horizon[path]
    comps = rng.choice(len(rates), size=path.size, p=rates / total_rate)
    sizes = signs[comps] * rng.exponential(size=path.size) / scales[comps]
    times = u[np.lexsort((u, path))]

    n_seg = counts + 1
    first = np.cumsum(n_seg) - n_seg
    last = first + counts
    has_jump = np.ones(path.size + m, dtype=bool)
    has_jump[last] = False
    end = np.empty(has_jump.size)
    end[has_jump] = times
    end[last] = horizon
    begin = np.empty_like(end)
    begin[1:] = end[:-1]
    begin[first] = 0.0
    dt = end - begin
    jump = np.zeros_like(end)
    jump[has_jump] = sizes

    if v > 0.0:
        w = drift * dt + np.sqrt(v * dt) * rng.standard_normal(dt.size)
        rise = _bridge_max(rng, w, v * dt)
    else:
        w = drift * dt
        rise = np.maximum(w, 0.0)
    after = _path_cumsum(w + jump, first)
    start = np.empty_like(after)
    start[1:] = after[:-1]
    start[first] = 0.0

    cand = np.empty(2 * dt.size)
    cand[0::2] = start + rise
    cand[1::2] = after
    cand[2 * last + 1] = -np.inf
    sup = np.maximum(np.maximum.reduceat(cand, 2 * first), 0.0)
    hit = cand == np.repeat(sup, 2 * n_seg)
    win = np.minimum.reduceat(np.where(hit, np.arange(cand.size), cand.size), 2 * first)

    tmax = np.zeros(m)
    pos = np.flatnonzero(sup > 0.0)
    seg = win[pos] // 2
    tmax[pos] = end[seg]
    if v > 0.0:
        inner = win[pos] % 2 == 0
        pos, seg = pos[inner], seg[inner]
        tmax[pos] = begin[seg] + _ref_bridge_argmax(rng, rise[seg], w[seg], dt[seg], v)
    return sup, tmax, horizon, killed


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

    def test_shard_prefix(self, monkeypatch):
        k = 40
        monkeypatch.setattr(montecarlo, "_SHARD", k)
        long = simulate_sup_samples(CP_GAUSS, 0.6, 3 * k + 5, seed=35)
        short = simulate_sup_samples(CP_GAUSS, 0.6, k, seed=35)
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

    @pytest.mark.parametrize(
        "args,field",
        [
            (dict(seed=-1), "seed"),
            (dict(seed=2.5), "seed"),
            (dict(n=1.5), "n"),
            (dict(n=math.nan), "n"),
        ],
        ids=["seed-negative", "seed-fraction", "n-fraction", "n-nan"],
    )
    def test_counts_and_seed_validated(self, monkeypatch, args, field):
        """Rejected before any draw: the sampler's first draw would raise a TypeError."""
        monkeypatch.setattr(montecarlo, "_horizons", None)
        with pytest.raises(ValidationError) as info:
            simulate_sup_samples(HYPER_CP, 0.5, **{"n": 10, "seed": 0, **args})
        assert info.value.field == field

    def test_integral_floats_accepted(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_SHARD", 400)
        a = simulate_sup_samples(HYPER_CP, 0.5, 1e3, seed=3.0)
        b = simulate_sup_samples(HYPER_CP, 0.5, 1000, seed=3)
        assert len(a) == 1000 and _same(a, b)

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


# the three specs of the benchmark's Monte Carlo jobs, a killed spec, and one whose
# rate is so small that a shard has no jump
PARITY_SPECS = [
    (LevyAtomic(a=0.5, b=0.5), 0.5),
    (HYPER_CP, 0.7),
    (CP_GAUSS, 0.6),
    (LevyAtomic(a=0.2, b=0.3, c=0.4, atoms=((1.5, 1.0), (-0.5, 0.3))), 0.5),
    (LevyAtomic(a=0.1, b=0.2, c=0.0, atoms=((1e-9, 1e-20),)), 0.5),
]


class TestParity:
    """The sampler and the estimators against plain references (lexsort, minimum.reduceat,
    one mean and std per query), bitwise."""

    @pytest.mark.parametrize("shard_size,n", [(1, 50), (700, 1500), (50000, 70000), (70000, 70000)])
    @pytest.mark.parametrize("case", range(len(PARITY_SPECS)),
                             ids=["diffusion", "jump", "jump-gauss", "killed", "no-jump"])
    def test_samples_match_lexsort_reference(self, monkeypatch, case, shard_size, n):
        """Every column bitwise equal; a 70000-path shard needs a 32-bit path key, off the
        16-bit radix sort."""
        spec, sigma = PARITY_SPECS[case]
        monkeypatch.setattr(montecarlo, "_SHARD", shard_size)
        got = simulate_sup_samples(spec, sigma, n, seed=case)
        monkeypatch.setattr(montecarlo, "_simulate_jump_block", _lexsort_block)
        monkeypatch.setattr(montecarlo, "_bridge_argmax", _ref_bridge_argmax)
        want = simulate_sup_samples(spec, sigma, n, seed=case)
        assert _same(got, want)

    def test_no_jump_spec_draws_no_jump(self):
        spec, sigma = PARITY_SPECS[-1]
        rates, _, _ = _mixture(spec)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([len(PARITY_SPECS) - 1, 0])))
        horizon, _ = _horizons(spec, sigma, 70000, rng)
        assert rng.poisson(float(np.sum(rates)) * horizon).sum() == 0

    @pytest.mark.parametrize("n", [1, 2, 2000, 20000, 70000])
    def test_estimates_match_per_query_reductions(self, n):
        samples = simulate_sup_samples(CP_GAUSS, 0.6, n, seed=17)
        sup, tmax = samples.sup_value, samples.argmax_time
        queries = [LaplaceQuery(0.5), TailQuery(0.3), JointQuery(1.0, 2.0), TailQuery(-1.0),
                   JointQuery(0.0, 0.0), LaplaceQuery(2.0)]
        values = [np.exp(-0.5 * sup), (sup > 0.3).astype(float), np.exp(-1.0 * sup - 2.0 * tmax),
                  (sup > -1.0).astype(float), np.exp(-0.0 * sup - 0.0 * tmax), np.exp(-2.0 * sup)]
        ests = mc_estimates(samples, queries, seed=17)
        for est, y in zip(ests, values):
            se = float(np.std(y, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
            assert (est.mean, est.std_error, est.n, est.seed) == (float(np.mean(y)), se, n, 17)
        assert [e.query for e in ests] == ["laplace(xi=0.5)", "tail(x=0.3)", "joint(xi=1,tau=2)",
                                           "tail(x=-1)", "joint(xi=0,tau=0)", "laplace(xi=2)"]


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

    def test_verify_suite_uses_the_query_arguments(self, monkeypatch):
        """An estimate's label rounds xi to 6 digits; the analytic side must not."""
        queries = (LaplaceQuery(0.123456789), JointQuery(1.23456789, 0.5))
        monkeypatch.setattr(verify, "_MC_QUERIES", queries)
        monkeypatch.setattr(verify, "_MC_N", 2000)
        rep = verify.suite_mc(HYPER_CP)
        want = [pr_laplace(HYPER_CP, verify._MC_SIGMA, 0.0, 0.123456789),
                pr_laplace(HYPER_CP, verify._MC_SIGMA, 0.5, 1.23456789)]
        assert [c.witness["analytic"] for c in rep.checks] == want
        assert [c.name for c in rep.checks] == ["laplace(xi=0.123457)", "joint(xi=1.23457,tau=0.5)"]

    def test_infimum_side(self):
        """The mirrored spec samples the infimum transform."""
        mirrored = LevyAtomic(a=0.0, b=-HYPER_CP.b, c=0.0,
                              atoms=tuple((-s, w) for s, w in HYPER_CP.atoms))
        samples = simulate_sup_samples(mirrored, 0.7, 60000, seed=24)
        est = mc_estimates(samples, [LaplaceQuery(1.0)])[0]
        ana = pr_laplace(HYPER_CP, 0.7, 0.0, 1.0, side="minus")
        assert abs(est.mean - ana) <= 3.5 * est.std_error
