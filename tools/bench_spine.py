"""Before/after record of the benchmark and of per-preset spine and phi-table probes.

Compares two checkouts of the repository, a parent and a change:

* ``bench/run.py --trace 0`` end-to-end metrics for each workload and seed,
  run in each checkout's own directory, alternating which side runs first;
* per preset, one cold spine ratio f_0.2^+(0.3)/f_0.2^+(1.5) on a fresh
  ``SpineStieltjes`` (its ``kappa`` of two terms): its refinement rounds
  (``estimate`` calls of ``refine_panels``), spine points solved (radii
  passed to ``solve_spine``), its lockstep steps and points (see below) and
  the median wall time of five cold repeats;
* per preset, ``build_spine_table`` with ``SPINE_TABLE_N`` samples on
  ``default_spine_range``: the median wall time of five builds, the
  number of Z intervals, one build's ``solve_spine`` calls and radii, and
  its lockstep work, split into the angle solve and the Z-crossing
  refinement: the Z part is what ``spine._z_crossings`` does on the
  table's radii, the angle part the rest of the build;
* per preset and shift tau in ``PHI_TAUS``, the median wall time of five
  ``build_phi_table`` calls and the table's breakpoint count;
* per preset, the contour work of one cold bd ``wh_ratio(shift_spec(spec,
  0.2), "bd", "plus", 0.3, 1.5)``, of one cold ``kappa_ratio_tau`` at
  ``TAU_RATIO`` and of one cold ``pr_laplace`` at ``PR`` (cold: the memo of
  products ``wiener_hopf._BD_KAPPA`` and the memo of seed-node values
  ``wiener_hopf._BD_SEED`` cleared): contour integrals (``refine_panels``
  calls), refinement rounds (panel estimates, one integrand call each) and
  ``eval_f`` points; and of the same ``pr_laplace`` again with only
  ``_BD_KAPPA`` cleared (``pr_warm``), with the hits and misses of
  ``_BD_SEED`` in it: its seed round reads f and the logs from that memo;
* the number of evaluable seed nodes of the bd contour integral
  (``seed_nodes``), which a warm ``pr_laplace`` does not evaluate f on;
* per preset, the cold ``sup_tail`` set-up at ``SUP_SIGMA`` (the
  evaluator of ``fluctuation._sup_evaluator``): its wall time, quadrature
  node count, atom count, total mass, the lockstep steps of its atom
  solve (``zero_steps``) and its phi-kernel passes (``kernel_passes``:
  the factor handle's kernels, f^-(t) at the atoms and at the quadrature
  nodes with density), or the name of the exception;
* per case of the ``mc_exact`` workload, one cold and one repeated job
  (``MC_PATHS`` paths, ``mc_estimates`` and the analytic ``pr_laplace`` of
  the six joint queries): contour integrals and wall time of each.
* over the whole probe, the hits and misses of the memo of quadrature
  geometries (``numerics._GEOMETRY``);
* L0, per family (one spec each, ``L0_SPECS``): the family-core calls
  (for f and f' together) and phi-kernel passes of one ``eval_f`` and one
  ``eval_f_prime`` on a mixed batch of ``L0_BATCH`` points, half of them
  in each half-plane, and on one scalar in the left half-plane, with the
  median wall time of ``L0_REPEATS`` calls;
* L0, cold (``l0_cold``): the phi-kernel passes of ``f_limits`` on a
  fresh ``PhiRep`` of the L0 table, and of the first ``eval_f`` (the mixed
  batch) on another: building the table's kernel record is one pass, for
  both sides' constants.
* on the change only (``seed_memo``), per workload: the hits and misses of
  ``wiener_hopf._BD_SEED`` over one benchmark run's ops at seed 1 and the
  run length given, in order, counting only the ops that reach the bd
  contour integral (``MEMO_OPS``; no other op looks the memo up), with
  ``_BD_KAPPA`` and ``_BD_SEED`` cleared at the start.

Every count is the difference of two ``levycm.numerics.work_counts()``
snapshots around the call it measures (README, "Work counters").  Lockstep
work is that of ``numerics._lockstep_root``: its steps (evaluations of the
open brackets, one ``eval_f`` or ``_axis_limit`` call each) and the points
evaluated in them.

    python tools/bench_spine.py PARENT_DIR CHANGE_DIR --out BENCH_<n>.json \\
        [--seeds 1 2 3] [--workloads wh_cold] [--seconds 10]

The probe runs each checkout's own copy of this file with ``--probe`` in a
fresh interpreter whose ``PYTHONPATH`` is the checkout's ``src``, so each
side is counted the way its library counts; its last stdout line is one
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
from pathlib import Path
from statistics import median

RATIO = (0.3, 1.5, "plus", 0.2)  # x1, x2, side, tau
PHI_TAUS = (0.0, 0.2)
TAU_RATIO = (0.3, 1.2, 0.2, "plus")  # xi, tau1, tau2, side
PR = (0.5, 0.8, 1.3, "plus")  # sigma, tau, xi, side
SUP_SIGMA = 0.5
SPINE_TABLE_N = 256  # samples of the probe's spine tables, as in the wh_cold workload
REPEATS = 5
MC_PATHS = 2000  # paths per job, as in the mc_exact workload
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
# op kinds (prefixes) of the benchmark's workloads that reach the bd contour integral
MEMO_OPS = ("pr_laplace", "wh_ratio.bd", "mc_job.")
_HYPER_ATOMS = ((2.0, 3.0), (-1.5, 2.0))
# (label, LevyAtomic keywords, sigma): the cases of the mc_exact workload
MC_CASES = (
    ("diffusion", dict(a=0.5, b=0.5), 0.5),
    ("jump", dict(a=0.0, b=0.8, c=0.0, atoms=_HYPER_ATOMS), 0.7),
    ("jump_gauss", dict(a=0.3, b=-0.2, c=0.0, atoms=((1.0, 2.0), (-2.0, 4.0))), 0.6),
)


def work(call, *args):
    """``call(*args)`` and the ``numerics.work_counts()`` it added."""
    from levycm.numerics import work_counts

    before = work_counts()
    out = call(*args)
    return out, {k: v - before[k] for k, v in work_counts().items()}


def spine_ratio(engine):
    """The probe's spine ratio."""
    x1, x2, side, tau = RATIO
    return engine.kappa(((side, tau, x1, 1), (side, tau, x2, -1)))


def table_work(spec):
    """Median ms of ``REPEATS`` spine-table builds, the Z intervals and one build's solves and
    lockstep work: the Z-crossing steps are those of ``_z_crossings`` on the table's radii, the
    angle steps the rest."""
    from levycm import spine
    from levycm.verify import default_spine_range

    lo, hi = default_spine_range(spec)
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        table, build = work(spine.build_spine_table, spec, lo, hi, SPINE_TABLE_N)
        times.append(time.perf_counter() - t0)
    _, z = work(spine._z_crossings, spec, table.radii())
    lockstep = {}
    for what in ("steps", "points"):
        lockstep[f"theta_{what}"] = build[f"lockstep.{what}"] - z[f"lockstep.{what}"]
        lockstep[f"z_{what}"] = z[f"lockstep.{what}"]
    return {"ms": 1e3 * median(times), "z_intervals": len(table.z_intervals),
            "solve_calls": build["solve_spine.calls"], "solve_radii": build["solve_spine.radii"],
            "lockstep": lockstep}


def contour_work(spec):
    """Integrals, rounds and eval_f points of a cold bd ratio at tau = 0.2, a cold
    kappa_ratio_tau, a cold pr_laplace and that pr_laplace on a warm seed memo."""
    from levycm import fluctuation, shift_spec, wiener_hopf

    x1, x2, side, tau = RATIO
    xi, tau1, tau2, tau_side = TAU_RATIO
    sigma, pr_tau, pr_xi, pr_side = PR
    out = {}
    for label, call in (
        ("bd_ratio", lambda: wiener_hopf.wh_ratio(shift_spec(spec, tau), "bd", side, x1, x2)),
        ("tau_ratio", lambda: fluctuation.kappa_ratio_tau(spec, xi, tau1, tau2, tau_side)),
        ("pr", lambda: fluctuation.pr_laplace(spec, sigma, pr_tau, pr_xi, pr_side)),
    ):
        wiener_hopf._BD_KAPPA.clear()
        wiener_hopf._BD_SEED.clear()
        value, n = work(call)
        out[label] = {"integrals": n["refine_panels.calls"], "rounds": n["refine_panels.rounds"],
                      "eval_f_points": n["eval_f.points"], "value": value}
    wiener_hopf._BD_KAPPA.clear()
    seed = wiener_hopf._BD_SEED
    hits, misses = seed.hits, seed.misses
    value, n = work(fluctuation.pr_laplace, spec, sigma, pr_tau, pr_xi, pr_side)
    out["pr_warm"] = {"integrals": n["refine_panels.calls"], "rounds": n["refine_panels.rounds"],
                      "eval_f_points": n["eval_f.points"], "value": value,
                      "seed_memo": {"hits": seed.hits - hits, "misses": seed.misses - misses}}
    return out


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
    """Per mc_exact case: contour integrals and ms of a cold and a repeated job."""
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
            out[label][run] = {"integrals": n["refine_panels.calls"], "ms": 1e3 * (time.perf_counter() - t0)}
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


def probe():
    """Monte Carlo job work, then spine-ratio, spine-table, contour, sup_tail and phi-table figures
    per preset (JSON on stdout)."""
    from levycm import numerics, shift_spec, wiener_hopf
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
                     "lockstep": {"steps": n["lockstep.steps"], "points": n["lockstep.points"]},
                     "ms": 1e3 * median(times), "value": value, "phi_table": {},
                     "spine_table": table_work(SHOWCASE[name]),
                     "contour": contour_work(SHOWCASE[name]),
                     "sup_tail": sup_work(SHOWCASE[name])}
        for phi_tau in PHI_TAUS:
            spec = shift_spec(SHOWCASE[name], phi_tau)
            times = []
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                table = wiener_hopf.build_phi_table(spec)
                times.append(time.perf_counter() - t0)
            out[name]["phi_table"][str(phi_tau)] = {"ms": 1e3 * median(times),
                                                    "breakpoints": len(table.breakpoints)}
    geometry = {"hits": numerics._GEOMETRY.hits, "misses": numerics._GEOMETRY.misses}
    seed_nodes = numerics._geometry(0.0, math.inf, (0.0,))[3][1].size  # built apart from the memo
    print(json.dumps({"presets": out, "mc_job": mc, "geometry_memo": geometry, "seed_nodes": seed_nodes,
                      "l0": l0_work(), "l0_cold": l0_cold_work()}))


def memo_share(seconds):
    """Hits, misses and hit share of the seed memo over the bd ops of one run of each workload
    (JSON on stdout)."""
    sys.path.insert(0, str(Path("bench").resolve()))
    import workloads
    from levycm import wiener_hopf

    out = {}
    for name in ("fluct_warm", "wh_cold", "mc_exact"):
        load = workloads.WORKLOADS[name](1)
        load.setup()
        wiener_hopf._BD_KAPPA.clear()
        memo = wiener_hopf._BD_SEED
        memo.clear()
        for r in range(load.rounds(seconds)):
            for op in load.round(r):
                if op.kind.startswith(MEMO_OPS):
                    op.call()
        out[name] = {"hits": memo.hits, "misses": memo.misses,
                     "hit_share": memo.hits / max(1, memo.hits + memo.misses)}
    print(json.dumps(out))


def run_probe(root, *args):
    env = dict(os.environ, PYTHONPATH=str(Path(root) / "src"))
    res = subprocess.run([sys.executable, "tools/bench_spine.py", *(args or ("--probe",))], env=env,
                         cwd=root, capture_output=True, text=True, check=True)
    return json.loads(res.stdout.splitlines()[-1])


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
    if not (args.parent and args.change and args.out):
        ap.error("PARENT_DIR, CHANGE_DIR and --out are required")
    sides = {"parent": args.parent, "change": args.change}
    probes = {side: run_probe(root) for side, root in sides.items()}
    doc = {
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "spine_ratio": {"x1": RATIO[0], "x2": RATIO[1], "side": RATIO[2], "tau": RATIO[3],
                        "repeats": REPEATS},
        "spine_table": {"n": SPINE_TABLE_N, "repeats": REPEATS},
        "phi_table_taus": list(PHI_TAUS),
        "sup_tail_sigma": SUP_SIGMA,
        "contour": {"bd_ratio": {"x1": RATIO[0], "x2": RATIO[1], "side": RATIO[2], "tau": RATIO[3]},
                    "tau_ratio": dict(zip(("xi", "tau1", "tau2", "side"), TAU_RATIO)),
                    "pr": dict(zip(("sigma", "tau", "xi", "side"), PR))},
        "presets": {side: p["presets"] for side, p in probes.items()},
        "mc_job_paths": MC_PATHS,
        "mc_job": {side: p["mc_job"] for side, p in probes.items()},
        "geometry_memo": {side: p["geometry_memo"] for side, p in probes.items()},
        "seed_nodes": {side: p.get("seed_nodes") for side, p in probes.items()},
        "l0_batch": L0_BATCH,
        "l0": {side: p["l0"] for side, p in probes.items()},
        "l0_cold": {side: p.get("l0_cold") for side, p in probes.items()},
        "seed_memo": {"seed": 1, "seconds": args.seconds, "ops": list(MEMO_OPS),
                      "change": run_probe(args.change, "--memo-share", "--seconds", str(args.seconds))},
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
