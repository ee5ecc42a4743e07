"""levycm benchmark: one workload, one seed, every metric by name and unit.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads: wh_cold, fluct_warm, mc_exact, eval_phirep (see NOTES.md).

Every measurement runs in a fresh interpreter (bench/worker.py), so the
library's module caches start empty; one caller runs a closed loop, with
BLAS pinned to one thread.  Times are scaled to the machine's reference
speed (worker.SpeedProbe).  With --trace 0 the end-to-end metrics of
BENCHMARK.json are printed: set-up time is the median over SETUP_SAMPLES
fresh starts.  With --trace 1 an untraced and a traced run are made and the
per-layer metrics are printed, with the tracing overhead.  The last line of
stdout is the result as JSON; the full report goes to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 5  # the measuring worker's own start plus four set-up-only starts
TIME_LIMIT_S = 170.0  # for all workers of one invocation
ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


class BenchError(RuntimeError):
    pass


def run_worker(argv, deadline):
    """Start a worker.

    Returns the wall seconds from its start to READY, the speed scale it
    measured right after (see worker.SpeedProbe), and its later stdout lines.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv], stdout=subprocess.PIPE, text=True, env=ENV, cwd=ROOT
    )
    killer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    ready, lines = None, []
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - t0
            else:
                lines.append(line)
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None or not lines:
        raise BenchError(f"worker {' '.join(argv)} failed with exit code {code}")
    return ready, json.loads(lines[0])["speed_scale"], lines[1:]


def _result(lines):
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def provenance(args, res):
    git_sha = None
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            git_sha = lines[1]
    except (OSError, subprocess.TimeoutExpired, IndexError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "levycm").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        **res["versions"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": res["details"]["ops"],
        "ops_by_kind": res["details"]["ops_by_kind"],
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("wh_cold", "fluct_warm", "mc_exact", "eval_phirep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + TIME_LIMIT_S
    wargs = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]

    if args.trace:
        _, _, base_lines = run_worker(wargs + ["--trace", "0"], deadline)
        _, _, lines = run_worker(wargs + ["--trace", "1"], deadline)
        base, res = _result(base_lines), _result(lines)
        metrics = dict(res["layers"])
        metrics["trace.overhead_frac"] = base["metrics"]["ops_per_s"] / res["metrics"]["ops_per_s"] - 1.0
        wanted = declared["per_layer"]
        samples = {}
    else:
        starts = [run_worker(wargs + ["--setup-only"], deadline)[:2] for _ in range(SETUP_SAMPLES - 1)]
        ready, scale, lines = run_worker(wargs + ["--trace", "0"], deadline)
        starts.append((ready, scale))
        res = _result(lines)
        metrics = dict(res["metrics"], setup_s=median(t * k for t, k in starts))
        wanted = declared["end_to_end"]
        d = res["details"]
        samples = {
            "setup_s": f"median of {len(starts)} starts",
            "op_p50_ms": f"p50 of {d['ops']} ops",
            "op_tail_ms": f"p{d['tail_percentile']} of {d['ops']} ops, {d['ops_beyond_tail']} beyond it",
        }
        res["details"]["raw_setup_s"] = [t for t, _ in starts]
        res["details"]["setup_speed_scale"] = [k for _, k in starts]

    units = {m["name"]: m["unit"] for m in wanted}
    if set(metrics) != set(units):
        raise BenchError(f"metric names differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")

    prov = provenance(args, res)
    report = {"provenance": prov, "metrics": metrics, "samples": samples, "details": res["details"]}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=1))

    print("# provenance " + json.dumps(prov))
    d = res["details"]
    print(
        "# wall clock: {:.6g} ops/s, p50 {:.6g} ms, tail {:.6g} ms; reference kernel {}".format(
            d["raw_ops_per_s"], d["raw_op_p50_ms"], d["raw_op_tail_ms"], json.dumps(d["reference_kernel_ms"])
        )
    )
    print("# failed_frac {:.6g}  failed by kind {}".format(d["failed_frac"], json.dumps(d["failed_by_kind"])))
    for name, unit in units.items():
        extra = f"  [{samples[name]}]" if name in samples else ""
        print(f"{name:45s} {metrics[name]:>16.6g} {unit}{extra}")
    out = {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        sys.exit(1)
