"""Before/after record of the benchmark and of per-preset spine and phi-table probes.

Compares two checkouts of the repository, a parent and a change:

* ``bench/run.py --trace 0`` end-to-end metrics for each workload and seed,
  run in each checkout's own directory, alternating which side runs first;
* per preset, one cold spine ratio f_0.2^+(0.3)/f_0.2^+(1.5) on a fresh
  ``SpineStieltjes`` (its ``kappa`` of two terms): its refinement rounds
  (``estimate`` calls of ``refine_panels``), spine points solved (radii
  passed to ``solve_spine``), its lockstep steps, points and float steps
  (see below) and the median wall time of five cold repeats;
* per preset, one ``lambda_at`` at ``LAMBDA_R``: its lockstep steps and
  float steps;
* per preset, ``build_spine_table`` with ``SPINE_TABLE_N`` samples on
  ``default_spine_range``: the median wall time of five builds, the
  number of Z intervals, one build's ``solve_spine`` calls and radii, and
  its lockstep work (calls, steps, points and float steps): one call
  solves the angles and the Z crossings together, so its steps are the
  most that any of its brackets takes;
* per preset and shift tau in ``PHI_TAUS``, the median wall time of five
  ``build_phi_table`` calls (``ms``) and of five cold phi factors
  (``factor_ms``: the table and its factor record ``PhiTable._factors``),
  the table's breakpoint count and, for the last build, its
  ``estimate_phi`` calls (one per refinement level), its lockstep steps
  (the one solve of its jump cells), its jumps (adjacent breakpoints on
  one side of s = 0 reading 0 and pi) and the bytes of its two data fields
  (``field_bytes``: ``breakpoints.nbytes + values.nbytes``, 16 a breakpoint
  where the table holds its data once; for tuple fields, the tuples and
  their floats);
* per preset, the contour work of one cold bd ``wh_ratio(shift_spec(spec,
  0.2), "bd", "plus", 0.3, 1.5)``, of one cold ``kappa_ratio_tau`` at
  ``TAU_RATIO`` and of one cold ``pr_laplace`` at ``PR`` (cold: the memo of
  products ``wiener_hopf._BD_KAPPA`` and the memo of grid values
  ``wiener_hopf._BD_GRID`` cleared): contour integrals (``bd_sum.calls``),
  ``eval_f`` points and core calls, the nodes at which the sums formed
  their terms (``bd_sum.nodes``), and the window [lo, hi] of grid nodes,
  the sum T_h and its nested error |T_h - T_2h| (``wiener_hopf._bd_sum``);
  the same for that ``pr_laplace`` again with only ``_BD_KAPPA`` cleared
  (``pr_warm``), with the hits and misses of ``_BD_GRID`` in it; and the
  median wall time of ``WARM_N`` warm ``pr_laplace`` calls at PR's sigma
  and side, each with ``_BD_KAPPA`` cleared, at fresh xi and tau = 0
  (``us_tau0``) and at fresh xi and fresh tau (``us_tau``), drawn
  log-uniformly from the ranges of the ``fluct_warm`` workload;
* per ``pr_laplace`` call of ``REFINING`` (spec, sigma, tau, xi), six warm
  calls at fixed arguments (``pr_warm_refine``): its work as for
  ``pr_warm``, with only ``_BD_KAPPA`` cleared after a first call, and the
  median wall time of ``WARM_N`` such calls;
* per preset, the cold sweep of ``pr_laplace`` over the grid of the
  ``fluct_warm`` workload (``pr_sweep``: sigma in ``SWEEP_SIGMAS``, tau in
  ``SWEEP_TAUS``, ``SWEEP_N`` xi geometrically spaced on ``SWEEP_XI``, both
  memos cleared before the first call): its contour integrals, ``eval_f``
  core calls and nodes;
* per preset, the cold ``sup_tail`` set-up at ``SUP_SIGMA`` (the
  evaluator of ``fluctuation._sup_evaluator``): its wall time, quadrature
  node count, atom count, total mass, its lockstep steps (``zero_steps``:
  the jump solve of its cold phi table, whose jumps are the atoms) and
  its phi-kernel passes (``kernel_passes``:
  the constants of the phi table's factor record, f^-(t) at the atoms and
  at the quadrature nodes with density), or the name of the exception;
* per case of the ``mc_exact`` workload, one cold and one repeated job
  (``MC_PATHS`` paths, ``mc_estimates`` and the analytic ``pr_laplace`` of
  the six joint queries): contour integrals and wall time of each; then
  the median wall times of the job's two Monte Carlo steps, apart, over
  ``MC_REPEATS`` jobs: ``simulate_sup_samples`` (``sampler_ms``) and
  ``mc_estimates`` (``estimates_ms``).
* L0, per family (one spec each, ``L0_SPECS``): the family-core calls
  (for f and f' together) and phi-kernel passes of one ``eval_f`` and one
  ``eval_f_prime`` on a mixed batch of ``L0_BATCH`` points, half of them
  in each half-plane, and on one scalar in the left half-plane, with the
  median wall time of ``L0_REPEATS`` calls;
* L0, cold (``l0_cold``): the phi-kernel passes of ``f_limits`` on a
  fresh ``PhiRep`` of the L0 table, and of the first ``eval_f`` (the mixed
  batch) on another: building the table's kernel record is one pass, for
  both sides' constants.
* L2, cold (``factor_pair``): the phi-kernel passes and wall time of one
  ``factor_pair`` on ``PAIR``, its phi table built beforehand and no
  handle cached: the table's record of both factor sides is one pass, the
  pair's anchor another.
* on both sides (``wh_cold_spine``), also run by this file against each
  checkout's library: the refinement rounds, spine radii and lockstep steps
  and float steps summed over the spine-ratio ops (``wh_ratio.spine``) of
  one ``wh_cold`` benchmark run at seed 1 and the run length given, in
  order, with the engine memo cleared at the start;
* on the change only (``grid_memo``), per workload: the hits and misses of
  ``wiener_hopf._BD_GRID`` over one benchmark run's ops at seed 1 and the
  run length given, in order, counting only the ops that reach the bd
  contour integral (``MEMO_OPS``; no other op looks the memo up), with
  ``_BD_KAPPA`` and ``_BD_GRID`` cleared at the start.

The probe runs ``PROBE_ROUNDS`` times on each side, the two sides alternating
(parent, change, change, parent, ...), and every wall time (keys ``ms``,
``factor_ms``, ``us``, ``us_tau0``, ``us_tau``, ``sampler_ms``, ``estimates_ms``) is the
median of its runs, so that a change of the host's speed during the record
falls on both sides; counts are those of the first run.

Every count is the difference of two ``levycm.numerics.work_counts()``
snapshots around the call it measures (README, "Work counters").  Lockstep
work is that of ``numerics._lockstep_root``: its calls, its steps (evaluations of the
open brackets, one ``eval_f`` or ``_axis_limit`` call each), the points
evaluated in them and its float steps, the steps taken per bracket in Python
floats once at most ``numerics._FLOAT_BRACKETS`` brackets are open.

    python tools/bench_spine.py PARENT_DIR CHANGE_DIR --out BENCH_<n>.json \\
        [--seeds 1 2 3] [--workloads wh_cold] [--seconds 10]

The probe runs this file with ``--probe`` in a fresh interpreter whose
``PYTHONPATH`` is the checkout's ``src``, so each side's library is measured
the same way and counted the way it counts; its last stdout line is one
JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from statistics import median

RATIO = (0.3, 1.5, "plus", 0.2)  # x1, x2, side, tau
PHI_TAUS = (0.0, 0.2)
TAU_RATIO = (0.3, 1.2, 0.2, "plus")  # xi, tau1, tau2, side
PR = (0.5, 0.8, 1.3, "plus")  # sigma, tau, xi, side
WARM_N = 50  # warm pr_laplace calls per preset and tau kind, at fresh arguments
WARM_XI = (0.1, 5.0)  # log-uniform ranges of xi and tau > 0, as in the fluct_warm workload
WARM_TAU = (0.1, 3.0)
# six warm pr_laplace calls (preset, sigma, tau, xi) at fixed arguments, each one trapezoidal sum
REFINING = (("tempered_stable", 2.0, 0.78, 0.6), ("tempered_stable", 2.0, 1.25, 1.0),
            ("tempered_stable", 2.0, 2.49, 2.2), ("rational_three_arcs", 0.5, 1.0, 2.3),
            ("rational_three_arcs", 0.5, 1.0, 2.97), ("rational_three_arcs", 0.5, 1.0, 3.85))
# the pr_laplace grid of the fluct_warm workload, swept cold (pr_sweep)
SWEEP_SIGMAS = (0.5, 2.0)
SWEEP_TAUS = (0.0, 1.0)
SWEEP_XI = (0.1, 5.0)
SWEEP_N = 16
SUP_SIGMA = 0.5
LAMBDA_R = 3.0  # the radius of the probe's lambda_at call, where every preset's angle bracket is open
SPINE_TABLE_N = 256  # samples of the probe's spine tables, as in the wh_cold workload
REPEATS = 5
MC_PATHS = 2000  # paths per job, as in the mc_exact workload
MC_REPEATS = 50  # timed sampler and estimator calls per mc_exact case
L0_BATCH = 64  # points of the mixed L0 batch, as in the eval_phirep workload
L0_REPEATS = 200
# (family, preset name or None, PhiTable arguments of a PhiRep with c = 1.2, shift)
L0_SPECS = (
    ("levy_atomic", "bm_drift", None, 0.0),
    ("stable_sum", "stable_mixed", None, 0.0),
    ("rational_product", "rational_pole_pair", None, 0.0),
    ("phi_rep", None, ((-5.0, -1.0, 0.5, 2.0, 8.0), (0.2, 1.4, 0.9, 2.0, 0.6), "piecewise-linear"), 0.0),
    ("shifted_phi_rep", None, ((-5.0, -1.0, 0.5, 2.0, 8.0), (0.2, 1.4, 0.9, 2.0, 0.6), "piecewise-linear"), 0.5),
)
PAIR = ("tempered_stable", 0.3)  # preset and shift of the cold factor_pair
# op kinds (prefixes) of the benchmark's workloads that reach the bd contour integral
MEMO_OPS = ("pr_laplace", "wh_ratio.bd", "mc_job.")
PROBE_ROUNDS = 3  # probe runs a side, alternating between the sides
TIMED = ("ms", "factor_ms", "us", "us_tau0", "us_tau", "sampler_ms", "estimates_ms")  # the probe's wall times
_HYPER_ATOMS = ((2.0, 3.0), (-1.5, 2.0))
# (label, LevyAtomic keywords, sigma): the cases of the mc_exact workload
MC_CASES = (
    ("diffusion", dict(a=0.5, b=0.5), 0.5),
    ("jump", dict(a=0.0, b=0.8, c=0.0, atoms=_HYPER_ATOMS), 0.7),
    ("jump_gauss", dict(a=0.3, b=-0.2, c=0.0, atoms=((1.0, 2.0), (-2.0, 4.0))), 0.6),
)


def work(call, *args):
    """``call(*args)`` and the ``numerics.work_counts()`` it added; a count that the checkout's
    library does not keep reads 0."""
    from levycm.numerics import work_counts

    before = work_counts()
    out = call(*args)
    return out, Counter({k: v - before[k] for k, v in work_counts().items()})


def spine_ratio(engine):
    """The probe's spine ratio."""
    x1, x2, side, tau = RATIO
    return engine.kappa(((side, tau, x1, 1), (side, tau, x2, -1)))


def table_work(spec):
    """Median ms of ``REPEATS`` spine-table builds, the Z intervals and one build's solves and
    lockstep work."""
    from levycm import spine
    from levycm.verify import default_spine_range

    lo, hi = default_spine_range(spec)
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        table, build = work(spine.build_spine_table, spec, lo, hi, SPINE_TABLE_N)
        times.append(time.perf_counter() - t0)
    return {"ms": 1e3 * median(times), "z_intervals": len(table.z_intervals),
            "solve_calls": build["solve_spine.calls"], "solve_radii": build["solve_spine.radii"],
            "lockstep": {what: build[f"lockstep.{what}"] for what in ("calls", "steps", "points", "float_steps")}}


def lambda_work(spec):
    """The lockstep steps and float steps of one ``lambda_at`` at ``LAMBDA_R``."""
    from levycm import spine

    _, n = work(spine.lambda_at, spec, LAMBDA_R)
    return {"steps": n["lockstep.steps"], "float_steps": n["lockstep.float_steps"]}


def bd_work(n, spec=None, terms=None):
    """The contour work in the work counts ``n``, with the window and nested error of the sum of
    ``terms`` on ``spec`` where they are given."""
    from levycm import wiener_hopf

    out = {"integrals": n["bd_sum.calls"], "nodes": n["bd_sum.nodes"], "eval_f_points": n["eval_f.points"],
           "f_calls": n["eval_f.core_calls"], "window": None, "sum": None, "err": None}
    if terms is not None:
        total, err, lo, hi = wiener_hopf._bd_sum(*wiener_hopf._bd_plan(spec, terms))
        out.update(window=[lo, hi], sum=total, err=err)
    return out


def contour_work(spec):
    """Contour work of a cold bd ratio at tau = 0.2, a cold kappa_ratio_tau, a cold pr_laplace and
    that pr_laplace on a warm grid memo."""
    from levycm import fluctuation, shift_spec, wiener_hopf

    x1, x2, side, tau = RATIO
    xi, tau1, tau2, tau_side = TAU_RATIO
    sigma, pr_tau, pr_xi, pr_side = PR
    pr_terms = ((pr_side, sigma, 0.0, 1), (pr_side, pr_tau + sigma, pr_xi, -1))
    memo = wiener_hopf._BD_GRID
    out = {}
    for label, call, on, terms in (
        ("bd_ratio", lambda: wiener_hopf.wh_ratio(shift_spec(spec, tau), "bd", side, x1, x2),
         shift_spec(spec, tau), ((side, 0.0, x1, 1), (side, 0.0, x2, -1))),
        ("tau_ratio", lambda: fluctuation.kappa_ratio_tau(spec, xi, tau1, tau2, tau_side),
         spec, ((tau_side, tau1, xi, 1), (tau_side, tau2, xi, -1))),
        ("pr", lambda: fluctuation.pr_laplace(spec, sigma, pr_tau, pr_xi, pr_side), spec, pr_terms),
    ):
        wiener_hopf._BD_KAPPA.clear()
        memo.clear()
        value, n = work(call)
        out[label] = {**bd_work(n, on, terms), "value": value}
    wiener_hopf._BD_KAPPA.clear()
    hits, misses = memo.hits, memo.misses
    value, n = work(fluctuation.pr_laplace, spec, sigma, pr_tau, pr_xi, pr_side)
    grid = {"hits": memo.hits - hits, "misses": memo.misses - misses}
    out["pr_warm"] = {**bd_work(n, spec, pr_terms), "value": value, "grid_memo": grid,
                      "us_tau0": warm_us(spec, False), "us_tau": warm_us(spec, True)}
    return out


def refining_work():
    """Contour work and median us of each warm ``REFINING`` call."""
    from levycm import fluctuation, wiener_hopf
    from levycm.specio import SHOWCASE

    out = []
    for name, sigma, tau, xi in REFINING:
        call = lambda: fluctuation.pr_laplace(SHOWCASE[name], sigma, tau, xi)
        call()
        wiener_hopf._BD_KAPPA.clear()
        _, n = work(call)
        times = []
        for _ in range(WARM_N):
            wiener_hopf._BD_KAPPA.clear()
            t0 = time.perf_counter()
            call()
            times.append(time.perf_counter() - t0)
        terms = (("plus", sigma, 0.0, 1), ("plus", tau + sigma, xi, -1))
        out.append({"preset": name, "sigma": sigma, "tau": tau, "xi": xi,
                    **bd_work(n, SHOWCASE[name], terms), "us": 1e6 * median(times)})
    return out


def warm_us(spec, fresh_tau):
    """Median us of ``WARM_N`` warm pr_laplace calls at PR's sigma and side, at fresh xi and at
    tau = 0 or a fresh tau, with ``_BD_KAPPA`` cleared before each."""
    import numpy as np

    from levycm import fluctuation, wiener_hopf

    sigma, _, _, side = PR
    rng = np.random.default_rng(37)
    log_uniform = lambda lo, hi: float(np.exp(rng.uniform(math.log(lo), math.log(hi))))
    times = []
    for _ in range(WARM_N):
        tau, xi = log_uniform(*WARM_TAU) if fresh_tau else 0.0, log_uniform(*WARM_XI)
        wiener_hopf._BD_KAPPA.clear()
        t0 = time.perf_counter()
        fluctuation.pr_laplace(spec, sigma, tau, xi, side)
        times.append(time.perf_counter() - t0)
    return 1e6 * median(times)


def sweep_work(spec):
    """Contour work of the cold ``pr_laplace`` sweep (``SWEEP_*``)."""
    import numpy as np

    from levycm import fluctuation, wiener_hopf

    wiener_hopf._BD_KAPPA.clear()
    wiener_hopf._BD_GRID.clear()
    calls = [(sigma, tau, float(xi)) for sigma in SWEEP_SIGMAS for tau in SWEEP_TAUS
             for xi in np.geomspace(*SWEEP_XI, SWEEP_N)]
    _, n = work(lambda: [fluctuation.pr_laplace(spec, *call) for call in calls])
    return bd_work(n)


def sup_work(spec):
    """Set-up ms, quadrature nodes, atoms, total mass, atom-solve lockstep steps and phi-kernel
    passes of a cold sup_tail evaluator, or the exception name."""
    from levycm import LevycmError, fluctuation

    t0 = time.perf_counter()
    try:
        ev, n = work(fluctuation._sup_evaluator, spec, SUP_SIGMA)
    except LevycmError as exc:
        return {"error": type(exc).__name__}
    return {"ms": 1e3 * (time.perf_counter() - t0), "nodes": int(ev.t.size - ev.atoms.size),
            "atoms": int(ev.atoms.size), "total_mass": float(ev.c.sum()),
            "zero_steps": n["lockstep.steps"], "kernel_passes": n["phi_kernel.passes"]}


def mc_work():
    """Per mc_exact case: contour integrals and ms of a cold and a repeated job, and median ms of
    the sampler and of the estimators."""
    from levycm import LevyAtomic, fluctuation
    from levycm.montecarlo import JointQuery, mc_estimates, simulate_sup_samples

    queries = [JointQuery(xi, tau) for xi in (0.5, 1.0, 2.0) for tau in (0.0, 1.0)]

    def job(spec, sigma):
        samples = simulate_sup_samples(spec, sigma, MC_PATHS, 1)
        mc_estimates(samples, queries, seed=1)
        for q in queries:
            fluctuation.pr_laplace(spec, sigma, q.tau, q.xi)

    out = {}
    for label, kwargs, sigma in MC_CASES:
        spec = LevyAtomic(**kwargs)
        out[label] = {}
        for run in ("cold", "repeat"):
            t0 = time.perf_counter()
            _, n = work(job, spec, sigma)
            out[label][run] = {"integrals": n["bd_sum.calls"], "ms": 1e3 * (time.perf_counter() - t0)}
        sampler, estimates = [], []
        for _ in range(MC_REPEATS):
            t0 = time.perf_counter()
            samples = simulate_sup_samples(spec, sigma, MC_PATHS, 1)
            t1 = time.perf_counter()
            mc_estimates(samples, queries, seed=1)
            sampler.append(t1 - t0)
            estimates.append(time.perf_counter() - t1)
        out[label]["sampler_ms"] = 1e3 * median(sampler)
        out[label]["estimates_ms"] = 1e3 * median(estimates)
    return out


def l0_batch():
    """The mixed L0 batch: ``L0_BATCH`` seeded points, alternating between the half-planes."""
    import numpy as np

    rng = np.random.default_rng(25)
    xi = np.exp(rng.uniform(np.log(0.05), np.log(20.0), L0_BATCH)) * np.exp(1j * rng.uniform(-1.45, 1.45, L0_BATCH))
    xi[1::2] = -np.conj(xi[1::2])
    return xi


def l0_cold_work():
    """Phi-kernel passes of f_limits and of the first eval_f, each on a fresh PhiRep of the L0 table."""
    from levycm import PhiRep, PhiTable, eval_f, f_limits

    table = next(t for family, _, t, _ in L0_SPECS if family == "phi_rep")
    _, lim = work(f_limits, PhiRep(1.2, PhiTable(*table)))
    _, first = work(eval_f, PhiRep(1.2, PhiTable(*table)), l0_batch())
    return {"f_limits": lim["phi_kernel.passes"], "eval_f": first["phi_kernel.passes"]}


def l0_work():
    """Per L0 family: core calls, phi-kernel passes and median us of eval_f and eval_f_prime on
    the mixed batch and on the scalar."""
    from levycm import PhiRep, PhiTable, eval_f, eval_f_prime, shift_spec
    from levycm.specio import SHOWCASE

    xi = l0_batch()
    points = {"batch": xi, "scalar": complex(xi[1])}
    specs = {family: shift_spec(SHOWCASE[preset] if preset else PhiRep(1.2, PhiTable(*table)), shift)
             for family, preset, table, shift in L0_SPECS}
    out = {family: {"eval_f": {}, "eval_f_prime": {}} for family in specs}
    for family, spec in specs.items():
        for fn in (eval_f, eval_f_prime):
            for label, x in points.items():
                fn(spec, x)  # tables and cached spec properties are built outside the timing and the count
                _, n = work(fn, spec, x)
                times = []
                for _ in range(L0_REPEATS):
                    t0 = time.perf_counter()
                    fn(spec, x)
                    times.append(time.perf_counter() - t0)
                out[family][fn.__name__][label] = {
                    "us": 1e6 * median(times),
                    "core_calls": n["eval_f.core_calls"] + n["eval_f_prime.core_calls"],
                    "kernel_passes": n["phi_kernel.passes"]}
    return out


def field_bytes(table):
    """Bytes of a phi table's breakpoints and values: an array's buffer, or a tuple and its floats."""
    return sum(f.nbytes if hasattr(f, "nbytes") else sys.getsizeof(f) + sum(map(sys.getsizeof, f))
               for f in (table.breakpoints, table.values))


def pair_work():
    """Phi-kernel passes and ms of one cold factor_pair on ``PAIR``, its table built first."""
    from levycm import shift_spec, wiener_hopf
    from levycm.specio import SHOWCASE

    spec = shift_spec(SHOWCASE[PAIR[0]], PAIR[1])
    wiener_hopf._PHI_CACHE.clear()
    wiener_hopf._HANDLE_CACHE.clear()
    wiener_hopf.get_phi_table(spec)
    t0 = time.perf_counter()
    _, n = work(wiener_hopf.factor_pair, spec)
    return {"kernel_passes": n["phi_kernel.passes"], "ms": 1e3 * (time.perf_counter() - t0)}


def probe():
    """Monte Carlo job work, then spine-ratio, spine-table, contour, sup_tail and phi-table figures
    per preset (JSON on stdout)."""
    import numpy as np

    from levycm import shift_spec, wiener_hopf
    from levycm.specio import SHOWCASE

    mc = mc_work()  # first, while every cache is cold
    out = {}
    for name in sorted(SHOWCASE):
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            value, n = work(spine_ratio, wiener_hopf.SpineStieltjes(SHOWCASE[name]))
            times.append(time.perf_counter() - t0)
        out[name] = {"rounds": n["refine_panels.rounds"], "spine_points": n["solve_spine.radii"],
                     "lockstep": {"steps": n["lockstep.steps"], "points": n["lockstep.points"],
                                  "float_steps": n["lockstep.float_steps"]},
                     "lambda_at": lambda_work(SHOWCASE[name]),
                     "ms": 1e3 * median(times), "value": value, "phi_table": {},
                     "spine_table": table_work(SHOWCASE[name]),
                     "contour": contour_work(SHOWCASE[name]),
                     "pr_sweep": sweep_work(SHOWCASE[name]),
                     "sup_tail": sup_work(SHOWCASE[name])}
        for phi_tau in PHI_TAUS:
            spec = shift_spec(SHOWCASE[name], phi_tau)
            times, factor_times = [], []
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                table, n = work(wiener_hopf.build_phi_table, spec)
                times.append(time.perf_counter() - t0)
                table._factors  # formed here where a table does not come with its record
                factor_times.append(time.perf_counter() - t0)
            s, p = np.asarray(table.breakpoints), np.asarray(table.values)
            jumps = int(np.sum((np.abs(np.diff(p)) == math.pi) & (s[:-1] * s[1:] > 0.0)))
            out[name]["phi_table"][str(phi_tau)] = {"ms": 1e3 * median(times),
                                                    "factor_ms": 1e3 * median(factor_times),
                                                    "breakpoints": len(table.breakpoints),
                                                    "estimate_phi_calls": n["estimate_phi.calls"],
                                                    "lockstep_steps": n["lockstep.steps"], "jumps": jumps,
                                                    "field_bytes": field_bytes(table)}
    print(json.dumps({"presets": out, "mc_job": mc, "pr_warm_refine": refining_work(), "l0": l0_work(),
                      "l0_cold": l0_cold_work(), "factor_pair": pair_work()}))


def memo_share(seconds):
    """Hits, misses and hit share of the grid memo over the bd ops of one run of each workload
    (JSON on stdout)."""
    sys.path.insert(0, str(Path("bench").resolve()))
    import workloads
    from levycm import wiener_hopf

    out = {}
    for name in ("fluct_warm", "wh_cold", "mc_exact"):
        load = workloads.WORKLOADS[name](1)
        load.setup()
        wiener_hopf._BD_KAPPA.clear()
        memo = wiener_hopf._BD_GRID
        memo.clear()
        for r in range(load.rounds(seconds)):
            for op in load.round(r):
                if op.kind.startswith(MEMO_OPS):
                    op.call()
        out[name] = {"hits": memo.hits, "misses": memo.misses,
                     "hit_share": memo.hits / max(1, memo.hits + memo.misses)}
    print(json.dumps(out))


def wh_cold_spine(seconds):
    """Rounds, spine radii, lockstep steps and float steps summed over the spine-ratio ops of one
    wh_cold run at seed 1 (JSON on stdout)."""
    sys.path.insert(0, str(Path("bench").resolve()))
    import workloads
    from levycm import wiener_hopf

    load = workloads.WORKLOADS["wh_cold"](1)
    load.setup()
    wiener_hopf._ENGINE_CACHE.clear()
    total = {"ops": 0, "rounds": 0, "spine_points": 0, "lockstep_steps": 0, "lockstep_float_steps": 0}
    for r in range(load.rounds(seconds)):
        for op in load.round(r):
            if op.kind == "wh_ratio.spine":
                _, n = work(op.call)
                total["ops"] += 1
                total["rounds"] += n["refine_panels.rounds"]
                total["spine_points"] += n["solve_spine.radii"]
                total["lockstep_steps"] += n["lockstep.steps"]
                total["lockstep_float_steps"] += n["lockstep.float_steps"]
    print(json.dumps(total))


def run_probe(root, *args, script="tools/bench_spine.py"):
    env = dict(os.environ, PYTHONPATH=str(Path(root) / "src"))
    res = subprocess.run([sys.executable, script, *(args or ("--probe",))], env=env,
                         cwd=root, capture_output=True, text=True, check=True)
    return json.loads(res.stdout.splitlines()[-1])


def merged(docs):
    """The first of the probe documents ``docs``, each wall time (a key in ``TIMED``) replaced by
    the median of its values over all of them."""
    first = docs[0]
    if isinstance(first, dict):
        return {k: median(d[k] for d in docs) if k in TIMED and isinstance(v, (int, float)) else
                merged([d[k] for d in docs]) for k, v in first.items()}
    if isinstance(first, list):
        return [merged(list(items)) for items in zip(*docs)]
    return first


def run_bench(root, workload, seed, seconds):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    res = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True)
    doc = json.loads(res.stdout.splitlines()[-1])
    metrics = {k: v["value"] for k, v in doc["metrics"].items()}
    return {"correct": doc["correct"], "attempted": doc["attempted"], "failed": doc["failed"], **metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--memo-share", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--wh-cold-spine", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("parent", nargs="?")
    ap.add_argument("change", nargs="?")
    ap.add_argument("--out", help="the JSON record to write (required without --probe)")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--workloads", nargs="+", default=["wh_cold"])
    ap.add_argument("--seconds", type=float, default=10.0)
    args = ap.parse_args(argv)
    if args.probe:
        probe()
        return
    if args.memo_share:
        memo_share(args.seconds)
        return
    if args.wh_cold_spine:
        wh_cold_spine(args.seconds)
        return
    if not (args.parent and args.change and args.out):
        ap.error("PARENT_DIR, CHANGE_DIR and --out are required")
    sides = {"parent": args.parent, "change": args.change}
    runs = {side: [] for side in sides}
    for k in range(2 * PROBE_ROUNDS):  # parent, change, change, parent, ...
        side = list(sides)[(k + k // 2) % 2]
        runs[side].append(run_probe(sides[side], script=str(Path(__file__).resolve())))
    probes = {side: merged(docs) for side, docs in runs.items()}
    doc = {
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "spine_ratio": {"x1": RATIO[0], "x2": RATIO[1], "side": RATIO[2], "tau": RATIO[3],
                        "repeats": REPEATS},
        "lambda_at_r": LAMBDA_R,
        "spine_table": {"n": SPINE_TABLE_N, "repeats": REPEATS},
        "phi_table_taus": list(PHI_TAUS),
        "sup_tail_sigma": SUP_SIGMA,
        "contour": {"bd_ratio": {"x1": RATIO[0], "x2": RATIO[1], "side": RATIO[2], "tau": RATIO[3]},
                    "tau_ratio": dict(zip(("xi", "tau1", "tau2", "side"), TAU_RATIO)),
                    "pr": dict(zip(("sigma", "tau", "xi", "side"), PR)),
                    "pr_warm_us": {"calls": WARM_N, "xi_log_uniform": list(WARM_XI),
                                   "tau_log_uniform": list(WARM_TAU)},
                    "pr_sweep": {"sigma": list(SWEEP_SIGMAS), "tau": list(SWEEP_TAUS),
                                 "xi_geomspace": [*SWEEP_XI, SWEEP_N]}},
        "presets": {side: p["presets"] for side, p in probes.items()},
        "mc_job_paths": MC_PATHS,
        "mc_job_repeats": MC_REPEATS,
        "mc_job": {side: p["mc_job"] for side, p in probes.items()},
        "pr_warm_refine": {side: p.get("pr_warm_refine") for side, p in probes.items()},
        "l0_batch": L0_BATCH,
        "l0": {side: p["l0"] for side, p in probes.items()},
        "l0_cold": {side: p.get("l0_cold") for side, p in probes.items()},
        "factor_pair": {"preset": PAIR[0], "shift": PAIR[1],
                        **{side: p.get("factor_pair") for side, p in probes.items()}},
        "probe_rounds": PROBE_ROUNDS,
        "grid_memo": {"seed": 1, "seconds": args.seconds, "ops": list(MEMO_OPS),
                      "change": run_probe(args.change, "--memo-share", "--seconds", str(args.seconds))},
        "wh_cold_spine": {"seed": 1, "seconds": args.seconds,
                          **{side: run_probe(root, "--wh-cold-spine", "--seconds", str(args.seconds),
                                             script=str(Path(__file__).resolve()))
                             for side, root in sides.items()}},
        "bench": {w: {side: {} for side in sides} for w in args.workloads},
    }
    for w in args.workloads:
        for k, seed in enumerate(args.seeds):
            order = list(sides) if k % 2 == 0 else list(sides)[::-1]
            for side in order:
                doc["bench"][w][side][str(seed)] = run_bench(sides[side], w, seed, args.seconds)
                print(w, seed, side, doc["bench"][w][side][str(seed)], file=sys.stderr)
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
