"""Spans and work counters at the calls into each levycm layer, from outside.

Modules bind names with ``from .rogers import eval_f``, so a wrapper must
replace every module attribute through which a function is looked up;
``Tracer.install`` does that across all loaded modules (the workload
module included) and ``uninstall`` puts the originals back.

Every wrapped call opens a frame, so self time (duration minus the time
of wrapped calls made inside it) is exact.  Entry points of a layer also
record a span (name, start, end, parent); the hot leaves (eval_f,
theta_at, estimate_phi, ...) are called hundreds of thousands of times
per op and are only aggregated.  Spans stay in memory until ``dump``.
Quadrature panels and bisection steps are counted by wrapping the
callbacks passed into ``integrate_adaptive`` and ``bisect_monotone``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from statistics import median

import numpy as np

from levycm import fluctuation, montecarlo, numerics, rogers, spine, wiener_hopf
from levycm.errors import QuadratureError

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.stack = []  # open frames: [name, start, child_seconds, span_index]
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.durations = defaultdict(list)  # per call, spanned entry points only
        self.counts = defaultdict(float)
        self.spans = []  # [name, start, end, parent_index]
        self._leaf_acc = {}
        self._undo = []
        self._sup_seen = set()
        self._op_frame = None

    # -- frames and spans -------------------------------------------------

    def _enter(self, name, span):
        idx = -1
        if span:
            parent = next((f[3] for f in reversed(self.stack) if f[3] >= 0), -1)
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent])
        frame = [name, _clock(), 0.0, idx]
        self.stack.append(frame)
        if idx >= 0:
            self.spans[idx][1] = frame[1]
        return frame

    def _exit(self, frame):
        end = _clock()
        self.stack.pop()
        name = frame[0]
        dur = end - frame[1]
        self.calls[name] += 1
        self.total[name] += dur
        self.self_time[name] += dur - frame[2]
        if self.stack:
            self.stack[-1][2] += dur
        if frame[3] >= 0:
            self.spans[frame[3]][2] = end
            self.durations[name].append(dur)
        return dur

    def begin_op(self, kind):
        self._op_frame = self._enter(f"op.{kind}", True)

    def end_op(self):
        self._exit(self._op_frame)
        self._op_frame = None

    def _wrap(self, name, fn, span=True, after=None):
        """Time `fn` under `name` (a string or a function of the arguments)."""
        enter, exit_ = self._enter, self._exit

        def traced(*args, **kwargs):
            frame = enter(name if isinstance(name, str) else name(args, kwargs), span)
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = exit_(frame)
            if after:
                after(args, out, dur)
            return out

        return traced

    def _leaf(self, name, fn, on_call=None):
        """A lean wrapper for hot functions that call nothing wrapped.

        No frame is pushed: the duration goes straight to the caller's child
        time.  ``on_call(args, dur)`` runs only for calls whose second
        argument is an array, or whose first is a PhiRep; other calls count
        one point each (``points`` in ``metrics``).
        """
        acc = self._leaf_acc[name] = [0, 0.0]  # calls, seconds
        stack = self.stack
        ndarray, phirep = np.ndarray, rogers.PhiRep

        def traced(*args, **kwargs):
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = _clock() - t0
                acc[0] += 1
                acc[1] += dur
                if stack:
                    stack[-1][2] += dur
                if on_call and (type(args[1]) is ndarray or type(args[0]) is phirep):
                    on_call(args, dur)

        return traced

    # -- the wrapped functions --------------------------------------------

    def _phi_table_after(self, args, table, dur):
        self.counts["wiener_hopf.build_phi_table.breakpoints"] += len(table.breakpoints)

    def _eval_f_points(self, args, dur):
        spec, xi = args[0], args[1]
        n = np.size(xi)
        self.counts["rogers.eval_f.extra_points"] += n - 1
        if type(spec) is rogers.PhiRep and spec.phi.interpolation == rogers.PW_LINEAR:
            self.counts["rogers.phirep_linear.points"] += n
            self.counts["rogers.phirep_linear.seconds"] += dur

    def _handle_points(self, args, dur):
        self.counts["wiener_hopf.FactorHandle.eval.extra_points"] += np.size(args[1]) - 1

    def _integrate(self, fn):
        inner = self._wrap("numerics.integrate_adaptive", fn)
        depth = [0]  # the (-inf, b) case recurses through the module attribute

        def traced(integrand, domain, cfg=None):
            if depth[0]:
                return fn(integrand, domain, cfg)

            def counted(x):
                self.counts["numerics.integrate_adaptive.panels"] += 1
                return integrand(x)

            depth[0] += 1
            try:
                return inner(counted, domain, cfg)
            except QuadratureError:
                self.counts["numerics.integrate_adaptive.errors"] += 1
                raise
            finally:
                depth[0] -= 1

        return traced

    def _bisect(self, fn):
        inner = self._wrap("numerics.bisect_monotone", fn, span=False)

        def traced(g, lo, hi, *args, **kwargs):
            def counted(x):
                self.counts["numerics.bisect_monotone.evals"] += 1
                return g(x)

            return inner(counted, lo, hi, *args, **kwargs)

        return traced

    def _cache_probe(self, fn, key_of, cache, name):
        def traced(*args, **kwargs):
            hit = key_of(args, kwargs) in cache
            self.counts[f"{name}.hits" if hit else f"{name}.misses"] += 1
            return fn(*args, **kwargs)

        return traced

    def _sup_label(self, args, kwargs):
        key = (args[0], float(args[1]))
        first = key not in self._sup_seen
        self._sup_seen.add(key)
        return "fluctuation.sup_tail.first" if first else "fluctuation.sup_tail.repeat"

    def _sim_after(self, args, out, dur):
        spec, n = args[0], int(args[2])
        kind = "diffusion" if not spec.atoms else "jump_gauss" if spec.a > 0.0 else "jump"
        self.counts[f"montecarlo.paths.{kind}"] += n
        self.counts[f"montecarlo.seconds.{kind}"] += dur

    def _targets(self):
        w = self._wrap
        method = lambda a, k: f"wiener_hopf.wh_ratio.{a[1] if len(a) > 1 else k['method']}"
        return {
            rogers.eval_f: self._leaf("rogers.eval_f", rogers.eval_f, self._eval_f_points),
            rogers.eval_f_prime: self._leaf("rogers.eval_f_prime", rogers.eval_f_prime),
            rogers.estimate_phi: w("rogers.estimate_phi", rogers.estimate_phi, span=False),
            spine.theta_at: w("spine.theta_at", spine.theta_at, span=False),
            spine.build_spine_table: w("spine.build_spine_table", spine.build_spine_table),
            numerics.integrate_adaptive: self._integrate(numerics.integrate_adaptive),
            numerics.bisect_monotone: self._bisect(numerics.bisect_monotone),
            wiener_hopf.wh_ratio: w(method, wiener_hopf.wh_ratio),
            wiener_hopf.build_phi_table: w(
                "wiener_hopf.build_phi_table", wiener_hopf.build_phi_table, after=self._phi_table_after
            ),
            wiener_hopf.get_phi_table: self._cache_probe(
                wiener_hopf.get_phi_table,
                lambda a, k: (a[0], tuple(sorted(k.items()))),
                wiener_hopf._PHI_CACHE,
                "wiener_hopf.phi_cache",
            ),
            wiener_hopf.get_factor_handle: self._cache_probe(
                wiener_hopf.get_factor_handle,
                lambda a, k: (a[0], a[1]),
                wiener_hopf._HANDLE_CACHE,
                "wiener_hopf.handle_cache",
            ),
            wiener_hopf.get_spine_engine: self._cache_probe(
                wiener_hopf.get_spine_engine,
                lambda a, k: a[0],
                wiener_hopf._ENGINE_CACHE,
                "wiener_hopf.spine_engine",
            ),
            fluctuation._sup_evaluator: self._cache_probe(
                fluctuation._sup_evaluator,
                lambda a, k: (a[0], float(a[1]), a[2] if len(a) > 2 else k.get("eps_ladder")),
                fluctuation._SUP_CACHE,
                "fluctuation.sup_cache",
            ),
            fluctuation.sup_tail: w(self._sup_label, fluctuation.sup_tail),
            fluctuation.pr_laplace: w("fluctuation.pr_laplace", fluctuation.pr_laplace),
            fluctuation.kappa_ratio_xi: w("fluctuation.kappa_ratio_xi", fluctuation.kappa_ratio_xi),
            fluctuation.kappa_ratio_tau: w("fluctuation.kappa_ratio_tau", fluctuation.kappa_ratio_tau),
            montecarlo.simulate_sup_samples: w(
                "montecarlo.simulate_sup_samples", montecarlo.simulate_sup_samples, after=self._sim_after
            ),
            montecarlo.mc_estimates: w("montecarlo.mc_estimates", montecarlo.mc_estimates),
        }

    def install(self):
        by_id = {id(orig): (orig, new) for orig, new in self._targets().items()}
        for module in list(sys.modules.values()):
            for attr, val in list(getattr(module, "__dict__", {}).items()):
                orig, new = by_id.get(id(val), (None, None))
                if orig is not None and val is orig:
                    setattr(module, attr, new)
                    self._undo.append((module, attr, val))
        fh = wiener_hopf.FactorHandle
        init = self._wrap("wiener_hopf.FactorHandle.init", fh.__init__)
        ev = self._leaf("wiener_hopf.FactorHandle.eval", fh.eval, self._handle_points)
        for attr, new in (("__init__", init), ("eval", ev), ("__call__", ev)):
            self._undo.append((fh, attr, fh.__dict__[attr]))
            setattr(fh, attr, new)

    def uninstall(self):
        """Put the originals back and fold the leaf totals into the aggregates."""
        for owner, attr, val in reversed(self._undo):
            setattr(owner, attr, val)
        self._undo.clear()
        for name, (calls, seconds) in self._leaf_acc.items():
            self.calls[name] += calls
            self.total[name] += seconds
            self.self_time[name] += seconds
            acc = self._leaf_acc[name]
            acc[0], acc[1] = 0, 0.0

    # -- results ------------------------------------------------------------

    def metrics(self, max_z=0.0):
        """The per-layer metrics of BENCHMARK.json.

        Counts are totals over the timed phase.  Functions called in bulk
        (theta_at, eval_f, eval_f_prime, FactorHandle.eval,
        integrate_adaptive) report total ms; the entry points of routes
        report the median ms of one call.
        """
        c = self.counts

        def med(name):
            d = self.durations[name]
            return 1e3 * median(d) if d else 0.0

        def tot(name):
            return 1e3 * self.total[name]

        def ratio(num, den):
            return num / den if den else 0.0

        def hit_ratio(name):
            return ratio(c[f"{name}.hits"], c[f"{name}.hits"] + c[f"{name}.misses"])

        def paths_per_s(kind):
            return ratio(c[f"montecarlo.paths.{kind}"], c[f"montecarlo.seconds.{kind}"])

        return {
            "spine.theta_at.calls": self.calls["spine.theta_at"],
            "spine.theta_at.ms": tot("spine.theta_at"),
            "numerics.bisect_monotone.evals": c["numerics.bisect_monotone.evals"],
            "spine.build_spine_table.ms": med("spine.build_spine_table"),
            "wiener_hopf.wh_ratio.spine.ms": med("wiener_hopf.wh_ratio.spine"),
            "wiener_hopf.build_phi_table.calls": self.calls["wiener_hopf.build_phi_table"],
            "wiener_hopf.build_phi_table.ms": med("wiener_hopf.build_phi_table"),
            "wiener_hopf.build_phi_table.breakpoints": ratio(
                c["wiener_hopf.build_phi_table.breakpoints"], self.calls["wiener_hopf.build_phi_table"]
            ),
            "rogers.estimate_phi.calls": self.calls["rogers.estimate_phi"],
            "wiener_hopf.wh_ratio.phi.ms": med("wiener_hopf.wh_ratio.phi"),
            "wiener_hopf.FactorHandle.init.ms": med("wiener_hopf.FactorHandle.init"),
            "wiener_hopf.FactorHandle.eval.points": self.calls["wiener_hopf.FactorHandle.eval"]
            + c["wiener_hopf.FactorHandle.eval.extra_points"],
            "wiener_hopf.FactorHandle.eval.ms": tot("wiener_hopf.FactorHandle.eval"),
            "fluctuation.sup_tail.first_ms": med("fluctuation.sup_tail.first"),
            "wiener_hopf.phi_cache.hit_ratio": hit_ratio("wiener_hopf.phi_cache"),
            "wiener_hopf.spine_engine.hit_ratio": hit_ratio("wiener_hopf.spine_engine"),
            "wiener_hopf.handle_cache.hit_ratio": hit_ratio("wiener_hopf.handle_cache"),
            "fluctuation.sup_cache.hit_ratio": hit_ratio("fluctuation.sup_cache"),
            "fluctuation.sup_tail.repeat_ms": med("fluctuation.sup_tail.repeat"),
            "numerics.integrate_adaptive.calls": self.calls["numerics.integrate_adaptive"],
            "numerics.integrate_adaptive.panels": c["numerics.integrate_adaptive.panels"],
            "numerics.integrate_adaptive.ms": tot("numerics.integrate_adaptive"),
            "numerics.integrate_adaptive.errors": c["numerics.integrate_adaptive.errors"],
            "wiener_hopf.wh_ratio.bd.ms": med("wiener_hopf.wh_ratio.bd"),
            "fluctuation.pr_laplace.ms": med("fluctuation.pr_laplace"),
            "fluctuation.kappa_ratio_tau.ms": med("fluctuation.kappa_ratio_tau"),
            "montecarlo.simulate_sup_samples.ms": med("montecarlo.simulate_sup_samples"),
            "montecarlo.paths_per_s.diffusion": paths_per_s("diffusion"),
            "montecarlo.paths_per_s.jump": paths_per_s("jump"),
            "montecarlo.paths_per_s.jump_gauss": paths_per_s("jump_gauss"),
            "montecarlo.mc_estimates.ms": med("montecarlo.mc_estimates"),
            "montecarlo.max_z": max_z,
            "rogers.eval_f.calls": self.calls["rogers.eval_f"],
            "rogers.eval_f.points": self.calls["rogers.eval_f"] + c["rogers.eval_f.extra_points"],
            "rogers.eval_f.ms": tot("rogers.eval_f"),
            "rogers.eval_f_prime.ms": tot("rogers.eval_f_prime"),
            "rogers.phirep_linear.ms_per_point": 1e3
            * ratio(c["rogers.phirep_linear.seconds"], c["rogers.phirep_linear.points"]),
        }

    def dump(self, path):
        """Write spans (times relative to the first) and per-name aggregates."""
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {
            "spans": [[name, s - t0, e - t0, parent] for name, s, e, parent in self.spans],
            "aggregate": {
                name: {
                    "calls": self.calls[name],
                    "total_ms": 1e3 * self.total[name],
                    "self_ms": 1e3 * self.self_time[name],
                    "median_ms": 1e3 * median(self.durations[name]) if self.durations[name] else None,
                }
                for name in sorted(self.calls)
            },
            "counts": dict(self.counts),
        }
        path.write_text(json.dumps(doc))

