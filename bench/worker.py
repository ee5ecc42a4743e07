"""One measurement in a fresh interpreter, started by run.py.

Set-up (importing levycm, loading and validating the workload's specs) ends
with a line "READY" on stdout; run.py times the interval from process start
to that line.  Then the closed loop runs the workload's batch for --seconds,
the answers are checked against their oracles, and the result is printed as
one JSON line.
"""

from __future__ import annotations

import argparse
import bisect
import cmath
import json
import math
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"


def _import_levycm():
    """Import levycm from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import levycm

    if not Path(levycm.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"levycm was imported from {levycm.__file__}, not from the checkout")
    return levycm


# Duration of reference_kernel on the 2-core machine this benchmark was
# written on, at full speed (0.35-0.46 ms); under host load it takes up to
# 1.6 times as long.
REF_NOMINAL_S = 0.4e-3
REF_EVERY_S = 0.025  # the kernel runs between ops at most this often
_REF_POINTS = np.linspace(0.1, 2.0, 64) + 0.3j


def reference_kernel():
    """Time a fixed mix of scalar complex Python and small numpy work."""
    t0 = time.perf_counter()
    acc = 0j
    for k in range(1500):
        acc += cmath.exp(1j * (k % 97) * 0.01)
    for k in range(15):
        acc += np.sum(np.log(_REF_POINTS + k))
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples reference_kernel between ops to follow the machine's speed.

    The host this benchmark was written on changes speed by up to 1.6x over
    seconds, whatever the program does.  Each op's time is scaled by
    REF_NOMINAL_S over the mean of the kernel's times just before and just
    after the op, giving its duration at the machine's reference speed.
    """

    def __init__(self):
        self.ends, self.durations = [], []

    def sample(self):
        self.durations.append(reference_kernel())
        self.ends.append(time.perf_counter())

    def maybe_sample(self):
        if not self.ends or time.perf_counter() - self.ends[-1] > REF_EVERY_S:
            self.sample()

    def scale(self, t0):
        """Reference-speed factor for an op that started at t0."""
        k = bisect.bisect_left(self.ends, t0)
        before = self.durations[max(k - 1, 0)]
        after = self.durations[min(k, len(self.durations) - 1)]
        return REF_NOMINAL_S / (0.5 * (before + after))


def _nearest_rank(sorted_vals, pct):
    return sorted_vals[max(0, math.ceil(pct / 100.0 * len(sorted_vals)) - 1)]


def run_timed(workload, seconds, tracer):
    """Closed loop, one caller: each op starts when the previous one ended.

    Sets each op's wall time (raw_seconds) and its time at the reference
    speed (seconds).
    """
    ops = []
    rounds = workload.rounds(seconds)
    probe = SpeedProbe()
    start = time.perf_counter()
    for r in range(rounds):
        for op in workload.round(r):
            probe.maybe_sample()
            if tracer:
                tracer.begin_op(op.kind)
            t0 = time.perf_counter()
            try:
                op.value = op.call()
            except Exception as exc:  # a raising op is a failed op, reported by type
                op.error = type(exc).__name__
                op.message = str(exc)
            op.raw_seconds = time.perf_counter() - t0
            op.started = t0
            if tracer:
                tracer.end_op()
            ops.append(op)
    elapsed = time.perf_counter() - start
    probe.sample()
    for op in ops:
        op.seconds = op.raw_seconds * probe.scale(op.started)
    return ops, elapsed, rounds, probe


def summarize(ops, elapsed, rounds, checks):
    """End-to-end metrics and the details behind them.

    Latencies and throughput are at the reference speed; the wall-clock
    figures are in the details as raw_*.
    """
    for c in checks:
        if not c.passed:
            for op in c.ops:
                op.miss = op.miss or c.what
    exact = [c for c in checks if not c.statistical]
    if not exact:
        raise RuntimeError("no answer could be checked against an oracle")
    n = len(ops)
    if n <= 10:
        raise RuntimeError("fewer than 11 ops: no tail percentile")
    lat = sorted(op.seconds for op in ops)
    raw = sorted(op.raw_seconds for op in ops)
    tail_pct = math.floor(100.0 * (n - 10) / n)
    failed = [op for op in ops if op.error or op.miss]
    worst = max(c.err for c in exact)
    metrics = {
        "ops_per_s": n / sum(lat),
        "op_p50_ms": 1e3 * _nearest_rank(lat, 50),
        "op_tail_ms": 1e3 * _nearest_rank(lat, tail_pct),
        "err_digits": -math.log10(max(worst, 1e-17)),
        "ok_frac": 1.0 - len(failed) / n,
    }
    missed = Counter(c.what for c in exact if not c.passed)
    details = {
        "ops": n,
        "rounds": rounds,
        "elapsed_s": elapsed,
        "raw_ops_per_s": n / elapsed,
        "raw_op_p50_ms": 1e3 * _nearest_rank(raw, 50),
        "raw_op_tail_ms": 1e3 * _nearest_rank(raw, tail_pct),
        "tail_percentile": tail_pct,
        "ops_beyond_tail": n - math.ceil(tail_pct / 100.0 * n),
        "ops_by_kind": dict(Counter(op.kind for op in ops)),
        "p50_ms_by_kind": _p50_by_kind(ops),
        "failed_frac": len(failed) / n,
        "failed_by_kind": dict(Counter(f"{op.kind}: {op.error or 'tolerance'}" for op in failed)),
        "failure_examples": {f"{op.kind}: {op.error}": op.message for op in failed if op.error},
        "checks": len(exact),
        "checks_missed": dict(missed),
        "worst_error_by_check": _worst_by(exact),
        "statistical_checks": len(checks) - len(exact),
    }
    return metrics, details, not missed


def _p50_by_kind(ops):
    by = {}
    for op in ops:
        by.setdefault(op.kind, []).append(op.seconds)
    return {kind: 1e3 * _nearest_rank(sorted(v), 50) for kind, v in by.items()}


def _worst_by(checks):
    worst = {}
    for c in checks:
        worst[c.what] = max(worst.get(c.what, 0.0), c.err)
    return worst


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    levycm = _import_levycm()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.setup()
    print("READY", flush=True)
    # the machine's speed just after set-up, for scaling the set-up time
    print(json.dumps({"speed_scale": REF_NOMINAL_S / statistics.median(reference_kernel() for _ in range(5))}))
    sys.stdout.flush()
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    ops, elapsed, rounds, probe = run_timed(workload, args.seconds, tracer)
    if tracer:
        tracer.uninstall()
    # the process's peak RSS up to the end of the timed phase (ru_maxrss is KiB)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks = workload.check(ops)
    metrics, details, correct = summarize(ops, elapsed, rounds, checks)
    metrics["peak_rss_mb"] = rss_mb
    details["reference_kernel_ms"] = {
        "samples": len(probe.durations),
        "median": 1e3 * statistics.median(probe.durations),
        "min": 1e3 * min(probe.durations),
        "max": 1e3 * max(probe.durations),
    }

    import mpmath
    import numpy

    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op.error or op.miss),
        "metrics": metrics,
        "details": details,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "mpmath": mpmath.__version__,
            "levycm": levycm.__version__,
        },
    }
    if tracer:
        result["layers"] = tracer.metrics(max_z=getattr(workload, "max_z", 0.0))
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
