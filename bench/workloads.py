"""The benchmark's four workloads.

A workload loads and validates its specs (set-up), produces rounds of ops
from the workload seed, and checks the answers after the timed phase.  An
op is one call into levycm; its latency is what the run records.

A run is a fixed batch of whole rounds: ``rounds(seconds)`` converts the
requested duration with the workload's nominal round time, measured on 2
cores at the commit that introduced this benchmark.  The batch does not
depend on how fast the program is, so two commits answer the same op mix
and their percentiles sit on the same ranks.

Why each workload exists, and what each should show, is in NOTES.md.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import partial

import numpy as np

from levycm import LevyAtomic, PhiRep, PhiTable, eval_f, eval_f_prime, shift_spec, validate_spec
from levycm.fluctuation import pr_laplace, sup_tail
from levycm.montecarlo import JointQuery, mc_estimates, simulate_sup_samples
from levycm.specio import load_spec, preset_names, preset_path
from levycm.spine import build_spine_table, lambda_at
from levycm.verify import default_spine_range
from levycm.wiener_hopf import wh_ratio

import oracles

# Tolerances already stated by the README and the test suite.
TOL_RATIO_EXACT = 1e-6  # bd and spine ratios against a closed form (acceptance 1)
TOL_RATIO_PHI = 1e-4  # phi ratios against a closed form (acceptance 1)
TOL_ROUTE_SPREAD = 1e-4  # routes against each other on presets (test_wiener_hopf)
TOL_SPINE = 1e-8  # spine closed form (acceptance 3)
TOL_PR = 1e-6  # supremum transforms, absolute (acceptance 6)
TOL_TAIL = 1e-3  # supremum tails, absolute (acceptance 6)
TOL_EVAL = 1e-10  # closed-form exponents, reflection identity (test_stress)
TOL_EVAL_QUAD = 1e-6  # piecewise-linear tables, quadrature route (test_rogers)
TOL_PRIME = 1e-7  # derivatives (test_rogers)
TOL_Z = 4.0  # Monte Carlo: |z| beyond this fails the job


@dataclass
class Op:
    kind: str
    call: object  # zero-argument callable into levycm
    meta: dict
    seconds: float = 0.0  # at the machine's reference speed (see worker.SpeedProbe)
    raw_seconds: float = 0.0  # wall clock
    started: float = 0.0
    value: object = None
    error: str | None = None  # exception type, when the call raised
    message: str = ""
    miss: str | None = None  # the check it failed, when the answer missed


@dataclass
class Check:
    ops: list  # the ops whose answers this check covers
    err: float  # error in the units of tol
    tol: float
    what: str
    statistical: bool = False  # a sampling test, not a wrong number

    @property
    def passed(self):
        return self.err <= self.tol


def _rng(seed, workload_key, r):
    return np.random.default_rng([seed, workload_key, r])


def _log_uniform(rng, lo, hi, size=None):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size))


def _rel(got, want):
    return abs(got - want) / abs(want)


def _load(names):
    return {name: validate_spec(load_spec(str(preset_path(name)))) for name in names}


def _answered(ops):
    return [op for op in ops if op.error is None]


def _groups(ops, *keys):
    out = defaultdict(list)
    for op in ops:
        out[tuple(op.meta[k] for k in keys)].append(op)
    return out


class Workload:
    name = ""
    key = 0  # decorrelates the seed streams of different workloads
    round_seconds = 1.0  # nominal time of one round (see the module docstring)
    min_rounds = 1  # enough for more than ten ops, so that a tail percentile exists

    def __init__(self, seed):
        self.seed = int(seed)

    def rounds(self, seconds):
        return max(self.min_rounds, round(seconds / self.round_seconds))

    def setup(self):
        raise NotImplementedError

    def round(self, r):
        raise NotImplementedError

    def check(self, ops):
        raise NotImplementedError


class WhCold(Workload):
    """A tau-scan over all presets: every op on a fresh shifted spec.

    Per spec: one ratio by each Wiener-Hopf route at the same seeded
    (side, x1, x2), a 256-point spine table, and lambda_at at a seeded
    radius inside the table's window.  Nothing is shared between specs, so
    every cache misses.  The draws are stratified so that every run has
    the same mix of easy and hard spine solves.
    """

    name = "wh_cold"
    key = 1
    # A round is 40 ops and takes ~18 s.  Any --seconds up to 22 gives two
    # rounds (80 ops, ~36 s), so that the median falls inside the spine-table ops
    # (lambda_at keeps it off the boundary four equal op kinds would put it
    # on) and the tail (p87) inside the spine-route ops.
    round_seconds = 9.0
    min_rounds = 2

    def setup(self):
        self.presets = _load(preset_names())

    def round(self, r):
        rng = _rng(self.seed, self.key, r)
        ops = []
        for p, (name, base) in enumerate(self.presets.items()):
            # each preset meets both sides and both strata of every draw over
            # two rounds, in patterns that do not repeat one another
            side = ("plus", "minus")[(p + r) % 2]
            tau = float(_log_uniform(rng, *((0.1, 0.3), (1.0, 3.0))[(p // 2 + r) % 2]))
            x1 = float(_log_uniform(rng, *((0.2, 0.45), (0.45, 1.0))[(p // 4 + r) % 2]))
            x2 = float(_log_uniform(rng, *((1.0, 2.2), (2.2, 5.0))[(p // 2 + p // 4 + r) % 2]))
            spec = shift_spec(base, tau)
            lo, hi = default_spine_range(spec)
            r_lam = float(_log_uniform(rng, lo, hi))
            meta = dict(round=r, preset=name, tau=tau, side=side, x1=x1, x2=x2, r_lam=r_lam, spec=spec)
            for method in ("bd", "phi", "spine"):
                ops.append(Op(f"wh_ratio.{method}", partial(wh_ratio, spec, method, side, x1, x2), meta))
            ops.append(Op("build_spine_table", partial(build_spine_table, spec, lo, hi, 256), meta))
            ops.append(Op("lambda_at", partial(lambda_at, spec, r_lam), meta))
        return ops

    def check(self, ops):
        checks = []
        for group in _groups(ops, "round", "preset").values():
            m = group[0].meta
            ratios = [op for op in _answered(group) if op.kind.startswith("wh_ratio")]
            if m["preset"] == "bm_drift":
                want = oracles.bm_ratio(1.0, m["tau"], m["side"], m["x1"], m["x2"])
                for op in ratios:
                    tol = TOL_RATIO_PHI if op.kind == "wh_ratio.phi" else TOL_RATIO_EXACT
                    checks.append(Check([op], _rel(op.value, want), tol, f"{op.kind} closed form"))
            elif ratios:
                ref = float(np.median([op.value for op in ratios]))
                for op in ratios:
                    checks.append(Check([op], _rel(op.value, ref), TOL_ROUTE_SPREAD, f"{op.kind} route spread"))
            done = {op.kind: op for op in _answered(group)}
            if "build_spine_table" in done:
                checks.extend(self._check_table(done["build_spine_table"], m))
            if "lambda_at" in done:
                checks.extend(self._check_lambda(done["lambda_at"], done.get("build_spine_table"), m))
        return checks

    @staticmethod
    def _check_lambda(op, table_op, m):
        r, lam = m["r_lam"], op.value
        if m["preset"] == "bm_drift":
            want = oracles.bm_spine_lambda(1.0, m["tau"], r)
            return [Check([op], abs(lam - want) / (1.0 + abs(want)), TOL_SPINE, "lambda_at closed form")]
        if table_op is None:  # the table op failed; lambda_at stays unchecked
            return []
        # the profile is increasing: lambda(r) lies between its table neighbours
        radii, lams = table_op.value.radii(), table_op.value.lambdas()
        k = min(max(int(np.searchsorted(radii, r)), 1), len(radii) - 1)
        below, above = lams[k - 1], lams[k]
        out = max(below - lam, lam - above, 0.0) / (1.0 + abs(lam))
        return [Check([op], out, TOL_SPINE, "lambda_at bracketed by the table")]

    @staticmethod
    def _check_table(op, m):
        table = op.value
        lam = table.lambdas()
        scale = 1.0 + np.abs(lam)
        if m["preset"] == "bm_drift":
            want = np.array([oracles.bm_spine_lambda(1.0, m["tau"], r) for r in table.radii()])
            return [Check([op], float(np.max(np.abs(lam - want) / scale)), TOL_SPINE, "spine closed form")]
        # lambda is increasing, and f is real on the spine's Z intervals
        drop = float(np.max(np.maximum(-np.diff(lam), 0.0) / scale[1:]))
        in_z = table.in_z_mask()
        im = np.abs(eval_f(m["spec"], table.zetas()[in_z]).imag) / scale[in_z] if in_z.any() else [0.0]
        return [
            Check([op], drop, 0.0, "spine profile increasing"),
            Check([op], float(np.max(im)), TOL_SPINE, "f real on the spine"),
        ]


FLUCT_SPECS = ("bm_drift", "rational_three_arcs", "tempered_stable", "stable_asym")
FLUCT_SIGMAS = (0.5, 2.0)
N_TAIL = 12  # sup_tail queries per (spec, sigma) and round: the cache-hit bulk
N_PR = 4  # pr_laplace queries per (spec, sigma) and round: no cache on the bd route
# Second route for the pr_laplace spread check.  The phi route divides by
# f+(0), which it evaluates as 0 for stable_asym (the inner-support defect
# that also breaks sup_tail there), so stable_asym is checked by spine.
PR_ORACLE_ROUTE = {"rational_three_arcs": "phi", "tempered_stable": "phi", "stable_asym": "spine"}


class FluctWarm(Workload):
    """A few (spec, sigma) pairs, each queried many times.

    Every round asks each pair for sup_tail on a seeded x-grid and
    pr_laplace on a seeded (tau, xi) grid.  Only the first sup_tail of a pair
    builds anything; the rest are cache hits.
    """

    name = "fluct_warm"
    key = 2
    round_seconds = 0.45  # the cold first round takes ~9.5 s, later ones ~0.15 s

    def setup(self):
        self.specs = _load(FLUCT_SPECS)

    def round(self, r):
        rng = _rng(self.seed, self.key, r)
        ops = []
        for name, spec in self.specs.items():
            for sigma in FLUCT_SIGMAS:
                meta = dict(round=r, preset=name, sigma=sigma, spec=spec)
                for x in _log_uniform(rng, 0.05, 5.0, N_TAIL):
                    ops.append(Op("sup_tail", partial(sup_tail, spec, sigma, float(x)), dict(meta, x=float(x))))
                taus = np.concatenate([np.zeros(N_PR // 2), _log_uniform(rng, 0.1, 3.0, N_PR - N_PR // 2)])
                for tau, xi in zip(taus, _log_uniform(rng, 0.1, 5.0, N_PR)):
                    q = dict(meta, tau=float(tau), xi=float(xi))
                    ops.append(Op("pr_laplace", partial(pr_laplace, spec, sigma, q["tau"], q["xi"]), q))
        return ops

    def check(self, ops):
        checks = []
        for (name, sigma), group in _groups(ops, "preset", "sigma").items():
            spec = group[0].meta["spec"]
            tails = [op for op in _answered(group) if op.kind == "sup_tail"]
            prs = [op for op in _answered(group) if op.kind == "pr_laplace"]
            if name == "bm_drift":
                for op in tails:
                    want = oracles.bm_sup_tail(1.0, sigma, op.meta["x"])
                    checks.append(Check([op], abs(op.value - want), TOL_TAIL, "sup_tail closed form"))
                for op in prs:
                    want = oracles.bm_pr_laplace(1.0, sigma, op.meta["tau"], op.meta["xi"])
                    checks.append(Check([op], abs(op.value - want), TOL_PR, "pr_laplace closed form"))
                continue
            if tails:
                # the tail values all come from one cached evaluator; check it
                # through E exp(-xi S) = 1 - int xi e^{-xi x} P(S > x) dx
                for xi in (0.5, 2.0):
                    err = abs(_laplace_of_tail(spec, sigma, xi) - pr_laplace(spec, sigma, 0.0, xi))
                    checks.append(Check(tails, err, TOL_TAIL, "sup_tail Laplace identity"))
            first = [op for op in prs if op.meta["round"] == 0][:1]
            for op in first:
                m = op.meta
                other = pr_laplace(spec, sigma, m["tau"], m["xi"], method=PR_ORACLE_ROUTE[name])
                checks.append(Check([op], _rel(op.value, other), TOL_ROUTE_SPREAD, "pr_laplace route spread"))
        return checks


def _laplace_of_tail(spec, sigma, xi):
    """1 - int_0^inf xi e^{-xi x} P(S > x) dx by the trapezoid rule in log x."""
    t = np.linspace(-25.0, math.log(60.0 / xi), 1200)
    x = np.exp(t)
    tail = np.array([sup_tail(spec, sigma, float(v)) for v in x])
    return 1.0 - float(np.sum(xi * np.exp(-xi * x) * tail * x)) * (t[1] - t[0])


_HYPER_ATOMS = ((2.0, 3.0), (-1.5, 2.0))
# (label, spec, sigma): the three specs of acceptance test 10
MC_CASES = (
    ("diffusion", LevyAtomic(a=0.5, b=0.5), 0.5),
    ("jump", LevyAtomic(a=0.0, b=0.8, c=0.0, atoms=_HYPER_ATOMS), 0.7),
    ("jump_gauss", LevyAtomic(a=0.3, b=-0.2, c=0.0, atoms=((1.0, 2.0), (-2.0, 4.0))), 0.6),
)
MC_QUERIES = tuple(JointQuery(xi, tau) for xi in (0.5, 1.0, 2.0) for tau in (0.0, 1.0))
MC_PATHS = 2000


def _mc_job(spec, sigma, seed):
    samples = simulate_sup_samples(spec, sigma, MC_PATHS, seed)
    est = mc_estimates(samples, MC_QUERIES, seed=seed)
    ana = [pr_laplace(spec, sigma, q.tau, q.xi) for q in MC_QUERIES]
    return est, ana


class McExact(Workload):
    """Exact-path Monte Carlo jobs checked against the analytic transforms.

    One op is a job: simulate_sup_samples for MC_PATHS paths, mc_estimates
    for the six joint queries, and the analytic pr_laplace of each.
    """

    name = "mc_exact"
    key = 3
    round_seconds = 0.6
    min_rounds = 4

    def setup(self):
        self.cases = [(label, validate_spec(spec), sigma) for label, spec, sigma in MC_CASES]

    def round(self, r):
        ops = []
        for j, (label, spec, sigma) in enumerate(self.cases):
            seed = int(np.random.SeedSequence([self.seed, self.key, r, j]).generate_state(1)[0])
            meta = dict(case=label, spec=spec, sigma=sigma)
            ops.append(Op(f"mc_job.{label}", partial(_mc_job, spec, sigma, seed), meta))
        return ops

    def check(self, ops):
        checks = []
        self.max_z = 0.0
        for label, group in _groups(ops, "case").items():
            jobs = _answered(group)
            if not jobs:
                continue
            spec, sigma = group[0].meta["spec"], group[0].meta["sigma"]
            if label == "diffusion":
                want = [oracles.bm_pr_laplace(spec.b, sigma, q.tau, q.xi) for q in MC_QUERIES]
                tol, what, err = TOL_PR, "pr_laplace closed form", lambda a, w: abs(a - w)
            else:
                want = [pr_laplace(spec, sigma, q.tau, q.xi, method="phi") for q in MC_QUERIES]
                tol, what, err = TOL_ROUTE_SPREAD, "pr_laplace route spread", _rel
            for op in jobs:
                est, ana = op.value
                checks.append(Check([op], max(err(a, w) for a, w in zip(ana, want)), tol, what))
                z = max(abs(e.mean - a) / e.std_error for e, a in zip(est, ana))
                self.max_z = max(self.max_z, z)
                checks.append(Check([op], z, TOL_Z, "Monte Carlo z", statistical=True))
        return checks


# The 5-breakpoint linear table of tests/test_stress.py and a constant table.
LIN5 = PhiRep(1.2, PhiTable((-5.0, -1.0, 0.5, 2.0, 8.0), (0.2, 1.4, 0.9, 2.0, 0.6), "piecewise-linear"))
CONST = PhiRep(1.0, PhiTable((-3.0, -0.5, 0.7, 4.0), (0.4, 1.9, 0.8), "piecewise-constant"))
# Points per eval op.  Linear tables run one adaptive quadrature per point,
# so their batches are small.  Points alternate between the right and the
# left half-plane; eval_f_prime on a linear table raises a numpy broadcast
# error once two or more points fall on one side, which every batch here
# has (at 15 a side, the Gauss-Kronrod node count, it raises QuadratureError
# instead).
EVAL_BATCH = {"lin5": 8, "lin200": 4}
EVAL_BATCH_VECTORIZED = 64
PHIREP_CHECK_ROUNDS = 4  # every point of these rounds' PhiRep eval_f ops is checked


def linear_table(rng, per_side=100):
    """A ~200-breakpoint piecewise-linear PhiRep from smooth seeded profiles."""
    u = np.sort(rng.uniform(math.log(1e-2), math.log(1e2), per_side))
    ph = rng.uniform(0.0, 2.0 * math.pi, 4)

    def profile(v, p1, p2):
        return 1.3 + 0.4 * np.sin(0.7 * v + p1) + 0.2 * np.sin(1.9 * v + p2)

    bp = np.concatenate([-np.exp(u[::-1]), np.exp(u)])
    vals = np.concatenate([profile(u[::-1], ph[0], ph[1]), profile(u, ph[2], ph[3])])
    return PhiRep(1.0, PhiTable(tuple(bp), tuple(vals), "piecewise-linear"))


class EvalPhirep(Workload):
    """Batches of eval_f and eval_f_prime at seeded points, every family.

    The presets and the constant table are vectorized (microseconds per
    batch); the two linear tables run one adaptive quadrature per point.
    """

    name = "eval_phirep"
    key = 4
    round_seconds = 1.1

    def setup(self):
        specs = _load(preset_names())
        # Structural validation only for PhiRep: any table with values in
        # [0, pi] is a Rogers function, and sampling 256 points of the
        # 200-breakpoint table through the quadrature route takes ~50 s.
        tables = {"const": CONST, "lin5": LIN5, "lin200": linear_table(np.random.default_rng([self.seed, self.key]))}
        for spec in tables.values():
            spec.phi.validate()
        self.specs = {**specs, **tables}

    def round(self, r):
        rng = _rng(self.seed, self.key, r)
        ops = []
        for name, spec in self.specs.items():
            n = EVAL_BATCH.get(name, EVAL_BATCH_VECTORIZED)
            xi = _log_uniform(rng, 0.05, 20.0, n) * np.exp(1j * rng.uniform(-1.45, 1.45, n))
            xi[1::2] = -np.conj(xi[1::2])
            meta = dict(round=r, spec_name=name, spec=spec, xi=xi)
            ops.append(Op("eval_f", partial(eval_f, spec, xi), meta))
            ops.append(Op("eval_f_prime", partial(eval_f_prime, spec, xi), meta))
        return ops

    def check(self, ops):
        checks = []
        for op in _answered(ops):
            m = op.meta
            spec = m["spec"]
            prime = op.kind == "eval_f_prime"
            if not isinstance(spec, PhiRep):
                tol, points = (TOL_PRIME if prime else TOL_EVAL), range(2)
            elif prime:
                # the log-derivative reference is 30-digit quadrature, up to
                # 2 s a point on the 200-breakpoint table: two points of round 0
                tol, points = TOL_PRIME, range(2) if m["round"] == 0 else ()
            else:
                linear = spec.phi.interpolation == "piecewise-linear"
                tol = TOL_EVAL_QUAD if linear else TOL_EVAL
                points = range(len(m["xi"])) if m["round"] < PHIREP_CHECK_ROUNDS else ()
            for k in points:
                want = oracles.exponent(spec, m["xi"][k], prime)
                checks.append(Check([op], _rel(complex(op.value[k]), want), tol, f"{op.kind} {m['spec_name']}"))
        return checks


WORKLOADS = {w.name: w for w in (WhCold, FluctWarm, McExact, EvalPhirep)}
