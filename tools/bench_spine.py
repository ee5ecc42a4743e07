"""Before/after record of the benchmark and of per-preset spine and phi-table probes.

Compares two checkouts of the repository, a parent and a change:

* ``bench/run.py --trace 0`` end-to-end metrics for each workload and seed,
  run in each checkout's own directory, alternating which side runs first;
* per preset, one cold spine ratio f_0.2^+(0.3)/f_0.2^+(1.5) on a fresh
  ``SpineStieltjes`` (its ``kappa`` of two terms): its refinement rounds
  (``estimate`` calls of ``refine_panels``), spine points solved (radii
  passed to ``solve_spine``), its lockstep work (see below) and the median
  wall time of five cold repeats;
* per preset, ``build_spine_table`` with ``SPINE_TABLE_N`` samples on
  ``default_spine_range``: the median wall time of five builds, the
  number of Z intervals, one build's ``solve_spine`` calls and radii, and
  its lockstep work;
* per preset and shift tau in ``PHI_TAUS``, the median wall time of five
  ``build_phi_table`` calls and the table's breakpoint count;
* per preset, the contour work of one cold bd ``wh_ratio(shift_spec(spec,
  0.2), "bd", "plus", 0.3, 1.5)``, of one cold ``kappa_ratio_tau`` at
  ``TAU_RATIO`` and of one cold ``pr_laplace`` at ``PR``:
  ``integrate_adaptive`` calls, refinement rounds (``eval_f`` calls: one
  per panel estimate) and ``eval_f`` points;
* per preset, the cold ``sup_tail`` set-up at ``SUP_SIGMA`` (the
  evaluator of ``fluctuation._sup_evaluator``): its wall time, quadrature
  node count, atom count, total mass and the lockstep steps of its atom
  solve (``zero_steps``; 0 in a checkout whose ``fluctuation`` has no
  lockstep solver), or the name of the exception;
* per case of the ``mc_exact`` workload, one cold and one repeated job
  (``MC_PATHS`` paths, ``mc_estimates`` and the analytic ``pr_laplace`` of
  the six joint queries): ``integrate_adaptive`` calls and wall time of each.
* over the whole probe, the hits and misses of the memo of quadrature
  geometries (``numerics._GEOMETRY``);
* L0, per family (one spec each, ``L0_SPECS``): the family-core calls
  (outermost ``_eval_core``/``_prime_core`` calls) and phi-kernel passes
  (``_cell_sums`` calls, wrapped on the class of ``rogers`` that defines
  it) of one ``eval_f`` and one ``eval_f_prime`` on a mixed batch of
  ``L0_BATCH`` points, half of them in each half-plane, and on one scalar
  in the left half-plane, with the median wall time of ``L0_REPEATS`` calls
  (counted without the wrappers).

Lockstep work is counted in the lockstep root solver (``_lockstep_root``)
where ``spine`` and ``fluctuation`` hold it, split into the angle solve,
the Z-crossing refinement (inside ``_z_crossings``) and, in
``fluctuation``, the ``sup_tail`` atoms: per part, the lockstep steps
(evaluations of the open brackets, one ``eval_f`` or ``_axis_limit`` call
each) and the points evaluated in them.

    python tools/bench_spine.py PARENT_DIR CHANGE_DIR --out BENCH_15.json \\
        [--seeds 1 2 3] [--workloads wh_cold] [--seconds 10]

The probe runs this file again with ``--probe`` in a fresh interpreter
whose ``PYTHONPATH`` is the checkout's ``src``; its last stdout line is
one JSON object.  Library functions are counted by wrapping them in each
module that holds them, so one tool serves checkouts that import them
in different places.
"""

from __future__ import annotations

import argparse
import json
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
_HYPER_ATOMS = ((2.0, 3.0), (-1.5, 2.0))
# (label, LevyAtomic keywords, sigma): the cases of the mc_exact workload
MC_CASES = (
    ("diffusion", dict(a=0.5, b=0.5), 0.5),
    ("jump", dict(a=0.0, b=0.8, c=0.0, atoms=_HYPER_ATOMS), 0.7),
    ("jump_gauss", dict(a=0.3, b=-0.2, c=0.0, atoms=((1.0, 2.0), (-2.0, 4.0))), 0.6),
)


def count_calls(name, weight=lambda *args: 1):
    """Wrap ``name`` in the contour modules that hold it; returns the running count.

    ``weight(*args)`` is what one call adds (1: calls).
    """
    from levycm import fluctuation, wiener_hopf

    count = [0]
    for module in (fluctuation, wiener_hopf):
        fn = getattr(module, name, None)
        if fn is None:
            continue

        def traced(*args, fn=fn, **kwargs):
            count[0] += weight(*args)
            return fn(*args, **kwargs)

        setattr(module, name, traced)
    return count


def count_lockstep(log):
    """Wrap the lockstep solver: each call appends [part, steps, points] to ``log``.

    The part is "zero" in ``fluctuation``; in ``spine`` it is "z" inside
    ``_z_crossings`` (wrapped in ``spine`` and ``wiener_hopf``, which both
    call it) and "theta" elsewhere.
    """
    import numpy as np

    from levycm import fluctuation, spine, wiener_hopf

    part = ["theta"]

    def wrap(module, name, part_of):
        fn = getattr(module, name, None)  # fluctuation bisected its atoms before it had one
        if fn is None:
            return

        def traced(g, *args):
            rec = [part_of(), 0, 0]
            log.append(rec)

            def counted(idx, x):
                rec[1] += 1
                rec[2] += int(np.size(x))
                return g(idx, x)

            return fn(counted, *args)

        setattr(module, name, traced)

    wrap(spine, "_lockstep_root", lambda: part[0])
    wrap(fluctuation, "_lockstep_root", lambda: "zero")
    z_crossings = spine._z_crossings

    def z_traced(*args):
        part[0] = "z"
        try:
            return z_crossings(*args)
        finally:
            part[0] = "theta"

    spine._z_crossings = wiener_hopf._z_crossings = z_traced


def lockstep_work(log):
    """Steps and points of the spine calls in ``log``, per part."""
    return {f"{part}_{what}": sum(rec[k] for rec in log if rec[0] == part)
            for part in ("theta", "z") for k, what in ((1, "steps"), (2, "points"))}


def spine_ratio(engine):
    """The probe's spine ratio."""
    x1, x2, side, tau = RATIO
    return engine.kappa(((side, tau, x1, 1), (side, tau, x2, -1)))


def table_work(spec, log):
    """Median ms of ``REPEATS`` spine-table builds, the Z intervals and one build's solves and
    lockstep work (``log`` is the list that ``count_lockstep`` fills).

    ``spine.solve_spine`` is the builder's global, so it is counted there.
    """
    import numpy as np

    from levycm import spine
    from levycm.verify import default_spine_range

    lo, hi = default_spine_range(spec)
    solve, radii = spine.solve_spine, []

    def counted_solve(spec, r):
        radii.append(int(np.size(r)))
        return solve(spec, r)

    spine.solve_spine = counted_solve
    try:
        times = []
        for _ in range(REPEATS):
            radii.clear()
            log.clear()
            t0 = time.perf_counter()
            table = spine.build_spine_table(spec, lo, hi, SPINE_TABLE_N)
            times.append(time.perf_counter() - t0)
    finally:
        spine.solve_spine = solve
    return {"ms": 1e3 * median(times), "z_intervals": len(table.z_intervals),
            "solve_calls": len(radii), "solve_radii": sum(radii), "lockstep": lockstep_work(log)}


def contour_work(spec, integrals, rounds, points):
    """Integrals, rounds and eval_f points of a cold bd ratio at tau = 0.2, a cold
    kappa_ratio_tau and a cold pr_laplace."""
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
        integrals[0] = rounds[0] = points[0] = 0
        value = call()
        out[label] = {"integrals": integrals[0], "rounds": rounds[0], "eval_f_points": points[0],
                      "value": value}
    return out


def sup_work(spec, log):
    """Set-up ms, quadrature nodes, atoms, total mass and atom-solve lockstep steps of a cold
    sup_tail evaluator, or the exception name (``log`` is the list that ``count_lockstep`` fills)."""
    from levycm import LevycmError, fluctuation

    log.clear()
    t0 = time.perf_counter()
    try:
        ev = fluctuation._sup_evaluator(spec, SUP_SIGMA)
    except LevycmError as exc:
        return {"error": type(exc).__name__}
    return {"ms": 1e3 * (time.perf_counter() - t0), "nodes": int(ev.t.size - ev.atoms.size),
            "atoms": int(ev.atoms.size), "total_mass": float(ev.c.sum()),
            "zero_steps": sum(rec[1] for rec in log if rec[0] == "zero")}


def mc_work(calls):
    """Per mc_exact case: integrate_adaptive calls and ms of a cold and a repeated job."""
    from levycm import LevyAtomic, fluctuation
    from levycm.montecarlo import JointQuery, mc_estimates, simulate_sup_samples

    queries = [JointQuery(xi, tau) for xi in (0.5, 1.0, 2.0) for tau in (0.0, 1.0)]
    out = {}
    for label, kwargs, sigma in MC_CASES:
        spec = LevyAtomic(**kwargs)
        out[label] = {}
        for run in ("cold", "repeat"):
            calls[0] = 0
            t0 = time.perf_counter()
            samples = simulate_sup_samples(spec, sigma, MC_PATHS, 1)
            mc_estimates(samples, queries, seed=1)
            for q in queries:
                fluctuation.pr_laplace(spec, sigma, q.tau, q.xi)
            out[label][run] = {"integrals": calls[0], "ms": 1e3 * (time.perf_counter() - t0)}
    return out


def l0_work():
    """Per L0 family: core calls, phi-kernel passes and median us of eval_f and eval_f_prime on
    the mixed batch and on the scalar."""
    import numpy as np

    from levycm import PhiRep, PhiTable, eval_f, eval_f_prime, rogers, shift_spec
    from levycm.specio import SHOWCASE

    rng = np.random.default_rng(25)
    xi = np.exp(rng.uniform(np.log(0.05), np.log(20.0), L0_BATCH)) * np.exp(1j * rng.uniform(-1.45, 1.45, L0_BATCH))
    xi[1::2] = -np.conj(xi[1::2])
    points = {"batch": xi, "scalar": complex(xi[1])}
    specs = {family: shift_spec(SHOWCASE[preset] if preset else PhiRep(1.2, PhiTable(*table)), shift)
             for family, preset, table, shift in L0_SPECS}
    calls = [(family, fn, label) for family in specs for fn in (eval_f, eval_f_prime) for label in points]
    out = {family: {"eval_f": {}, "eval_f_prime": {}} for family in specs}
    for family, fn, label in calls:
        spec, x = specs[family], points[label]
        fn(spec, x)  # tables and cached spec properties are built outside the timing and the count
        times = []
        for _ in range(L0_REPEATS):
            t0 = time.perf_counter()
            fn(spec, x)
            times.append(time.perf_counter() - t0)
        out[family][fn.__name__][label] = {"us": 1e6 * median(times)}

    count = {"core_calls": 0, "kernel_passes": 0}
    depth = [0]

    def core(fn):
        def traced(*args, **kwargs):
            count["core_calls"] += depth[0] == 0  # a ShiftedSpec's call on its base is the same call
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1

        return traced

    def kernel(fn):
        def traced(*args, **kwargs):
            count["kernel_passes"] += 1
            return fn(*args, **kwargs)

        return traced

    cores = {name: getattr(rogers, name) for name in ("_eval_core", "_prime_core")}
    kernels = {cls: vars(cls)["_cell_sums"] for cls in vars(rogers).values()
               if isinstance(cls, type) and "_cell_sums" in vars(cls)}
    for name, fn in cores.items():
        setattr(rogers, name, core(fn))
    for cls, fn in kernels.items():
        cls._cell_sums = kernel(fn)
    try:
        for family, fn, label in calls:
            count.update(core_calls=0, kernel_passes=0)
            fn(specs[family], points[label])
            out[family][fn.__name__][label].update(count)
    finally:
        for name, fn in cores.items():
            setattr(rogers, name, fn)
        for cls, fn in kernels.items():
            cls._cell_sums = fn
    return out


def probe():
    """Monte Carlo job work, then spine-ratio, spine-table, contour, sup_tail and phi-table figures
    per preset (JSON on stdout)."""
    import numpy as np

    from levycm import numerics, shift_spec, wiener_hopf
    from levycm.specio import SHOWCASE

    integrals = count_calls("integrate_adaptive")
    rounds = count_calls("eval_f")
    points = count_calls("eval_f", lambda spec, xi: np.size(xi))
    mc = mc_work(integrals)  # first, while every cache is cold
    count = {"rounds": 0, "points": 0}
    refine, solve = wiener_hopf.refine_panels, wiener_hopf.solve_spine

    def counted_refine(estimate, *args, **kwargs):
        def est(lo, hi):
            count["rounds"] += 1
            return estimate(lo, hi)

        return refine(est, *args, **kwargs)

    def counted_solve(spec, radii):
        count["points"] += np.size(radii)
        return solve(spec, radii)

    wiener_hopf.refine_panels, wiener_hopf.solve_spine = counted_refine, counted_solve
    log = []
    count_lockstep(log)
    out = {}
    for name in sorted(SHOWCASE):
        times = []
        for _ in range(REPEATS):
            count.update(rounds=0, points=0)
            log.clear()
            t0 = time.perf_counter()
            value = spine_ratio(wiener_hopf.SpineStieltjes(SHOWCASE[name]))
            times.append(time.perf_counter() - t0)
        out[name] = {"rounds": count["rounds"], "spine_points": count["points"],
                     "lockstep": lockstep_work(log),
                     "ms": 1e3 * median(times), "value": value, "phi_table": {},
                     "spine_table": table_work(SHOWCASE[name], log),
                     "contour": contour_work(SHOWCASE[name], integrals, rounds, points),
                     "sup_tail": sup_work(SHOWCASE[name], log)}
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
    print(json.dumps({"presets": out, "mc_job": mc, "geometry_memo": geometry, "l0": l0_work()}))


def run_probe(root):
    env = dict(os.environ, PYTHONPATH=str(Path(root) / "src"))
    res = subprocess.run([sys.executable, __file__, "--probe"], env=env, cwd=root,
                         capture_output=True, text=True, check=True)
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
    ap.add_argument("parent", nargs="?")
    ap.add_argument("change", nargs="?")
    ap.add_argument("--out", default="BENCH_15.json")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--workloads", nargs="+", default=["wh_cold"])
    ap.add_argument("--seconds", type=float, default=10.0)
    args = ap.parse_args(argv)
    if args.probe:
        probe()
        return
    if not (args.parent and args.change):
        ap.error("PARENT_DIR and CHANGE_DIR are required")
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
        "l0_batch": L0_BATCH,
        "l0": {side: p["l0"] for side, p in probes.items()},
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
