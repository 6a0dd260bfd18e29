"""Spans and counts around calls into the sgwaves modules.

`Tracer.install()` replaces every module-level binding of a traced
function (``closed_form.phi_eval`` and ``pde_sim.phi_eval`` alike, since
callers look the name up at call time) with a timing wrapper, and
`uninstall()` puts the originals back.  Each call records a span
[name, start, end, parent, task]; spans stay in memory until `write_spans`.
Self time is a span's duration minus that of its direct children, which
in one thread never overlap.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Counters get (tracer, span name, ok, result, args, kwargs) and
# add work counts, which repeat exactly for the same tasks, to tracer.counts.

def _count_grid(tracer, name, ok, result, args, kwargs):
    tracer.counts[name + ".points"] += _arg(args, kwargs, 0, "state").n


def _count_candidates(tracer, name, ok, result, args, kwargs):
    tracer.counts[name + ".candidates"] += _arg(args, kwargs, 0, "state").n


def _count_bytes(tracer, name, ok, result, args, kwargs):
    if ok:  # both CSV writers take the path last
        path = kwargs["path"] if "path" in kwargs else args[-1]
        tracer.counts[name + ".bytes"] += os.path.getsize(path)


def _count_points(tracer, name, ok, result, args, kwargs):
    tracer.counts[name + ".points"] += np.size(_arg(args, kwargs, 1, "xi"))


def _count_phi(tracer, name, ok, result, args, kwargs):
    shape = np.broadcast(np.asarray(_arg(args, kwargs, 1, "x")),
                         np.asarray(_arg(args, kwargs, 2, "t"))).shape
    tracer.counts[name + ".points"] += math.prod(shape)


def _count_rk4(tracer, name, ok, result, args, kwargs):
    if not ok:
        return
    lo, hi = (float(v) for v in _arg(args, kwargs, 2, "xi_span"))
    # the solvers start from max(16, ceil(4*span)) steps and double until
    # two passes agree, so all passes together take 2*n_final - n0 steps
    n0 = max(16, math.ceil((hi - lo) * 4.0))
    n_final = round((hi - lo) / result.step_used)
    tracer.counts[name + ".rk4_steps"] += 2 * n_final - n0
    tracer.counts[name + ".final_steps"] += n_final
    tracer.counts[name + ".pole_events"] += len(result.pole_events)


def _count_accept(tracer, name, ok, result, args, kwargs):
    tracer.counts[name + ".attempts"] += 1
    tracer.counts[name + ".accepted"] += int(ok)


# (module, function, span name, counter)
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("pde_sim", "init_from_wave", "pde_sim.init_from_wave", None),
    ("pde_sim", "evolve", "pde_sim.evolve", None),
    ("pde_sim", "step", "pde_sim.step", _count_grid),
    ("pde_sim", "comoving_deviation", "pde_sim.comoving_deviation", _count_candidates),
    ("pde_sim", "write_deviation_csv", "pde_sim.write_csv", _count_bytes),
    ("pde_sim", "write_snapshot_csv", "pde_sim.write_csv", _count_bytes),
    ("closed_form", "phi_eval", "closed_form.phi_eval", _count_phi),
    ("closed_form", "g_eval", "closed_form.g_eval", _count_points),
    ("closed_form", "y_eval", "closed_form.y_eval", _count_points),
    ("oracles", "ode_solve_g", "oracles.ode_solve_g", _count_rk4),
    ("oracles", "ode_solve_y", "oracles.ode_solve_y", _count_rk4),
    ("oracles", "quad_period", "oracles.quad_period", None),
    ("oracles", "pde_residual", "oracles.pde_residual", _count_accept),
)


class Tracer:
    """Timing wrappers, their spans and their counts for one traced phase."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.task = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.task]
            stack.append(len(spans))
            spans.append(span)
            ok, result = False, None
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                span[2] = clock()
                stack.pop()
                if counter is not None:
                    counter(self, name, ok, result, args, kwargs)

        return timed

    def install(self) -> None:
        for module_name, *_ in TARGETS:
            importlib.import_module("sgwaves." + module_name)
        modules = [m for key, m in list(sys.modules.items())
                   if key == "sgwaves" or key.startswith("sgwaves.")]
        for module_name, func_name, span_name, counter in TARGETS:
            original = getattr(sys.modules["sgwaves." + module_name], func_name)
            wrapper = self._wrap(span_name, original, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def totals(self):
        """Per span name: (calls, busy seconds, self seconds)."""
        calls: Counter = Counter()
        busy: defaultdict = defaultdict(float)
        child: defaultdict = defaultdict(float)
        for name, start, end, parent, _task in self.spans:
            calls[name] += 1
            busy[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own: defaultdict = defaultdict(float)
        for index, (name, start, end, _parent, _task) in enumerate(self.spans):
            own[name] += (end - start) - child[index]
        return calls, busy, own

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start,end,parent,task\n")
            for index, (name, start, end, parent, task) in enumerate(self.spans):
                fh.write(f"{index},{name},{start!r},{end!r},{parent},{task}\n")


def layer_metrics(tracer: Tracer, untraced_tps: float, traced_tps: float,
                  ) -> dict[str, tuple[float, str]]:
    """The benchmark's per-layer metrics, as name -> (value, unit).

    The tasks per second of the same tasks run untraced and traced give
    the tracing overhead.  A layer a workload never calls reports 0 for
    each of its metrics.
    """
    calls, busy, own = tracer.totals()
    c = tracer.counts

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    step, scan, phi = "pde_sim.step", "pde_sim.comoving_deviation", "closed_form.phi_eval"
    g, y = "closed_form.g_eval", "closed_form.y_eval"
    ode_g, ode_y = "oracles.ode_solve_g", "oracles.ode_solve_y"
    residual = "oracles.pde_residual"
    return {
        f"{step}.calls": (calls[step], "count"),
        f"{step}.busy_s": (busy[step], "s"),
        f"{step}.mpts_per_s": (ratio(c[f"{step}.points"], busy[step], 1e-6), "Mpts/s"),
        f"{scan}.calls": (calls[scan], "count"),
        f"{scan}.busy_s": (busy[scan], "s"),
        f"{scan}.self_s": (own[scan], "s"),
        f"{scan}.ms_per_call": (ratio(busy[scan], calls[scan], 1e3), "ms"),
        f"{scan}.candidates": (c[f"{scan}.candidates"], "count"),
        "pde_sim.evolve.self_s": (own["pde_sim.evolve"], "s"),
        "pde_sim.init_from_wave.busy_s": (busy["pde_sim.init_from_wave"], "s"),
        "pde_sim.write_csv.busy_s": (busy["pde_sim.write_csv"], "s"),
        "pde_sim.write_csv.bytes": (c["pde_sim.write_csv.bytes"], "bytes"),
        "cli.main.calls": (calls["cli.main"], "count"),
        "cli.main.self_s": (own["cli.main"], "s"),
        f"{phi}.calls": (calls[phi], "count"),
        f"{phi}.points": (c[f"{phi}.points"], "count"),
        f"{phi}.busy_s": (busy[phi], "s"),
        f"{phi}.self_s": (own[phi], "s"),
        f"{g}.points": (c[f"{g}.points"], "count"),
        f"{g}.busy_s": (busy[g], "s"),
        f"{g}.mpts_per_s": (ratio(c[f"{g}.points"], busy[g], 1e-6), "Mpts/s"),
        f"{y}.points": (c[f"{y}.points"], "count"),
        f"{y}.busy_s": (busy[y], "s"),
        f"{ode_g}.busy_s": (busy[ode_g], "s"),
        f"{ode_g}.rk4_steps": (c[f"{ode_g}.rk4_steps"], "count"),
        f"{ode_g}.useful_step_frac": (
            ratio(c[f"{ode_g}.final_steps"], c[f"{ode_g}.rk4_steps"]), "ratio"),
        f"{ode_y}.busy_s": (busy[ode_y], "s"),
        f"{ode_y}.rk4_steps": (c[f"{ode_y}.rk4_steps"], "count"),
        f"{ode_y}.useful_step_frac": (
            ratio(c[f"{ode_y}.final_steps"], c[f"{ode_y}.rk4_steps"]), "ratio"),
        f"{ode_y}.pole_events": (c[f"{ode_y}.pole_events"], "count"),
        "oracles.quad_period.busy_s": (busy["oracles.quad_period"], "s"),
        f"{residual}.calls": (calls[residual], "count"),
        f"{residual}.busy_s": (busy[residual], "s"),
        f"{residual}.accept_frac": (
            ratio(c[f"{residual}.accepted"], c[f"{residual}.attempts"]), "ratio"),
        "trace.untraced_tasks_per_s": (untraced_tps, "1/s"),
        "trace.traced_tasks_per_s": (traced_tps, "1/s"),
        "trace.overhead_tasks_per_s": (traced_tps - untraced_tps, "1/s"),
    }
