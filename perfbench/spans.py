"""Span recorder for the traced run.

hypctrl is not modified: ``Tracer.install`` replaces, for the duration of
the traced phase, every binding of a chosen public function in the hypctrl
modules (the name one module looks up in another, such as
``hypctrl.synth.solve_boundary_forward``) and three ``numpy.linalg``
functions with timing wrappers; ``Tracer.remove`` puts the originals back.

Spans are kept in memory as (name, layer, start, end, parent, job) and
written out when the run ends.  A wrapper records only while a job is
active, so the harness's own checks leave no spans, and a ``numpy.linalg``
span is recorded only beneath a hypctrl span, whose layer it inherits.
Counters are computed from the arguments and the returned result of a
wrapped call, after its span has closed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

from hypctrl.pde import cfl_dt

# traced functions per layer; the layer is the module name
TRACED = {
    "model": ("validate",),
    "canon": ("canonical_form",),
    "times": ("minimal_control_time", "refine_control_region", "boundary_control_time",
              "characteristic_time", "characteristic_position"),
    "pde": ("solve_forward", "solve_backward", "solve_boundary_forward", "solve_adjoint"),
    "synth": ("assemble_internal_control", "synthesize_full_domain", "hum_boundary_control"),
    "obsv": ("sigma_min_sweep", "necessity_witness"),
    "cli": ("parse_config", "run"),
}
LAYERS = tuple(TRACED)
LINALG = ("cholesky", "solve", "eigvalsh")
MB = float(1 << 20)

# span fields
NAME, LAYER, START, END, PARENT, JOB = range(6)


def _note_march(marches: dict, spec, grid, dt: float):
    # specs hold arrays and do not hash; the entry keeps the spec alive, so
    # its id stays unique for the run
    marches.setdefault((id(spec), grid, dt), (spec, grid, dt))


class Tracer:
    """In-memory span recorder with the counters of the wrapped calls."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job: int | None = None
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        # per job: (id(spec), grid, dt) -> (spec, grid, dt) of every march
        self.marches: dict[int, dict] = defaultdict(dict)
        self._saved: list[tuple[object, str, object]] = []
        self._hooks = {
            **{f"pde.{f}": self._count_solve for f in TRACED["pde"]},
            "synth.hum_boundary_control": self._count_hum,
            "obsv.sigma_min_sweep": self._count_sweep,
            "obsv.necessity_witness": self._count_witness,
        }

    # --- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, layer: str | None, fn):
        tracer = self
        hook = self._hooks.get(name)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            job = tracer.job
            stack = tracer.stack
            if job is None or (layer is None and not stack):
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            span = [name, layer or tracer.spans[parent][LAYER], 0.0, 0.0, parent, job]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if hook:
                call = signature.bind(*args, **kwargs)
                call.apply_defaults()
                hook(tracer.counts[job], tracer.marches[job], call.arguments, result)
            return result
        return wrapper

    @staticmethod
    def _count_solve(c, marches, call, result):
        steps = result.times.size - 1
        c["solves"] += 1
        c["steps"] += steps
        c["solve_steps"] += steps
        c["trajectory_bytes"] += result.trajectory.nbytes
        if steps:
            _note_march(marches, call["spec"], result.final.grid,
                        float(result.times[1] - result.times[0]))

    @staticmethod
    def _count_hum(c, marches, call, result):
        cols = sum(s.shape[1] for s in (result.controls.left, result.controls.right)
                   if s is not None)
        c["normal_dim"] = max(c["normal_dim"], cols * (result.times.size - 1))

    @staticmethod
    def _count_sweep(c, marches, call, result):
        grid = call["grid"]
        nstate = call["spec"].n * grid.n_cells
        steps = int(round(result.snapped_times[-1] / result.dt))
        rows = call["spec"].n * int(np.sum(call["omega"].contains_points(grid.centers)))
        c["steps"] += steps
        c["gram_gflop"] += 2.0 * steps * nstate ** 2 * rows / 1e9
        c["batch_bytes"] = max(c["batch_bytes"], 8.0 * nstate ** 2)
        _note_march(marches, call["spec"], grid, result.dt)

    @staticmethod
    def _count_witness(c, marches, call, result):
        dt = cfl_dt(call["spec"], call["grid"], call["cfl"], call["T"])
        c["steps"] += int(round(call["T"] / dt))
        _note_march(marches, call["spec"], call["grid"], dt)

    def install(self):
        """Wrap every binding of the traced functions across hypctrl."""
        homes = {layer: importlib.import_module(f"hypctrl.{layer}") for layer in TRACED}
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "hypctrl" or k.startswith("hypctrl."))]
        for layer, names in TRACED.items():
            for name in names:
                original = getattr(homes[layer], name)
                wrapped = self._wrap(f"{layer}.{name}", layer, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, attr, original))
                            setattr(mod, attr, wrapped)
        for name in LINALG:
            original = getattr(np.linalg, name)
            self._saved.append((np.linalg, name, original))
            setattr(np.linalg, name, self._wrap(f"numpy.linalg.{name}", None, original))

    def remove(self):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    # --- derived metrics ----------------------------------------------------

    def self_times(self) -> list[float]:
        """Duration of each span minus the durations of its child spans."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def metrics(self, job_times: dict[int, float], overhead_s: float,
                courant) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as (value, unit) over the traced jobs.

        Times (wall seconds) and counts are means per job;
        ``synth.normal_dim`` and ``obsv.batch_mb`` are maxima and
        ``pde.courant_min`` a minimum over the run.  ``overhead_s`` is the
        tracing overhead measured by the caller; ``courant(spec, grid, dt)``
        gives the per-component (min, max) Courant numbers of a march.
        """
        n = len(job_times)
        own = self.self_times()
        self_s = defaultdict(float)    # self time per span name (linalg: per layer)
        span_s = defaultdict(float)    # duration of outermost spans per name
        calls = defaultdict(int)
        layer_self = defaultdict(float)
        top = 0.0
        for i, s in enumerate(self.spans):
            name, layer = s[NAME], s[LAYER]
            dur = s[END] - s[START]
            key = f"{layer}:{name}" if name.startswith("numpy.") else name
            self_s[key] += own[i]
            calls[key] += 1
            layer_self[layer] += own[i]
            if s[PARENT] < 0:
                top += dur
            if s[PARENT] < 0 or self.spans[s[PARENT]][NAME] != name:
                span_s[name] += dur
        total = defaultdict(float)
        maxima = defaultdict(float)
        for c in self.counts.values():
            for key, value in c.items():
                total[key] += value
                maxima[key] = max(maxima[key], value)
        courant_min = [min(hi for _, hi in courant(*key))
                       for per_job in self.marches.values() for key in per_job.values()]

        def per_job(x):
            return x / n

        march = sum(self_s[f"pde.{f}"] for f in TRACED["pde"])
        traced_job = statistics.fmean(job_times.values())
        m = {
            "pde.march_s": (per_job(march), "s"),
            "pde.steps": (per_job(total["steps"]), "count"),
            "pde.us_per_step": (1e6 * march / total["solve_steps"]
                                if total["solve_steps"] else 0.0, "us"),
            "pde.solves": (per_job(total["solves"]), "count"),
            "pde.trajectory_mb": (per_job(total["trajectory_bytes"]) / MB, "MB"),
            "pde.courant_min": (min(courant_min) if courant_min else 0.0, "1"),
            "synth.glue_s": (per_job(self_s["synth.assemble_internal_control"]
                                     + self_s["synth.synthesize_full_domain"]), "s"),
            "synth.hum_s": (per_job(self_s["synth.hum_boundary_control"]), "s"),
            "synth.factor_s": (per_job(self_s["synth:numpy.linalg.cholesky"]), "s"),
            "synth.trisolve_s": (per_job(self_s["synth:numpy.linalg.solve"]), "s"),
            "synth.normal_dim": (maxima["normal_dim"], "count"),
            "obsv.sweep_s": (per_job(self_s["obsv.sigma_min_sweep"]), "s"),
            "obsv.eigh_s": (per_job(self_s["obsv:numpy.linalg.eigvalsh"]), "s"),
            "obsv.eigh_calls": (per_job(calls["obsv:numpy.linalg.eigvalsh"]), "count"),
            "obsv.gram_gflop": (per_job(total["gram_gflop"]), "GFLOP"),
            "obsv.batch_mb": (maxima["batch_bytes"] / MB, "MB"),
            "obsv.necessity_s": (per_job(self_s["obsv.necessity_witness"]), "s"),
            "times.mintime_s": (per_job(span_s["times.minimal_control_time"]), "s"),
            "times.refine_s": (per_job(span_s["times.refine_control_region"]), "s"),
            "times.boundary_time_calls": (per_job(calls["times.boundary_control_time"]),
                                          "count"),
            "times.characteristic_s": (per_job(span_s["times.characteristic_time"]
                                               + span_s["times.characteristic_position"]), "s"),
            "canon.form_s": (per_job(span_s["canon.canonical_form"]), "s"),
            "canon.form_calls": (per_job(calls["canon.canonical_form"]), "count"),
            "model.validate_s": (per_job(span_s["model.validate"]), "s"),
            "cli.parse_s": (per_job(self_s["cli.parse_config"]), "s"),
            "cli.format_s": (per_job(self_s["cli.run"]), "s"),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = (per_job(layer_self[layer]), "s")
        m["bench.traced_job_s"] = (traced_job, "s")
        m["bench.unattributed_s"] = (traced_job - per_job(top), "s")
        m["bench.trace_overhead_s"] = (overhead_s, "s")
        return m

    def dump(self, path):
        """Write the spans, one JSON array per line after a header line."""
        with open(path, "w") as out:
            out.write(json.dumps(["name", "layer", "start", "end", "parent", "job"]) + "\n")
            for s in self.spans:
                out.write(json.dumps(s) + "\n")
