"""N-scaling report for the 2x2 example (not a workload, not gated).

    python3 perfbench/scaling.py              # about a minute on 2 cores

Times ``solve_forward`` and ``assemble_internal_control`` at N in {200, 400,
800, 1600} and ``sigma_min_sweep`` (9 horizons, 0.30 to 0.70) at N in
{200, 400}, each the median of ``REPEATS`` runs, on the 2x2 example
(lambda = (-1, 1), Q0 = Q1 = 1, omega = (0.25, 0.75), T = 0.6,
y0 = (sin pi x, 0), y1 = 0), and prints each median
beside the single-run baseline table recorded in ROADMAP item 1 (2 cores,
one run each).  The sweep stops at N = 400: N = 800 takes about a minute.
Writes ``.perfbench_out/scaling.json``.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import json
import statistics
import sys
from functools import partial
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from hypctrl.model import (ControlDomain, CouplingSpec, SourceTerm,  # noqa: E402
                           SpeedProfile, SystemSpec)
from hypctrl.obsv import sigma_min_sweep  # noqa: E402
from hypctrl.pde import Grid, sample_state, solve_forward, state_function  # noqa: E402
from hypctrl.synth import assemble_internal_control  # noqa: E402

# ROADMAP item 1 baseline, seconds (single runs, 2 cores)
BASELINE = {
    "solve_forward": {200: 0.0057, 400: 0.0116, 800: 0.0243, 1600: 0.0799},
    "assemble_internal_control": {200: 0.06, 400: 0.13, 800: 0.38, 1600: 1.08},
    "sigma_min_sweep": {200: 0.63, 400: 5.95},
}
T = 0.6
REPEATS = 3  # runs per point; the N = 400 sweep runs once
HORIZONS = np.linspace(0.30, 0.70, 9)
Y0 = state_function(lambda x: np.sin(np.pi * x), 0.0)
Y1 = state_function(0.0, 0.0)


def make_call(path, spec, grid):
    """Zero-argument call of one entry point, its inputs prepared."""
    if path == "solve_forward":
        return partial(solve_forward, spec, sample_state(Y0, grid, 2), None, T)
    if path == "assemble_internal_control":
        return partial(assemble_internal_control, spec, Y0, Y1, T, grid)
    return partial(sigma_min_sweep, spec, HORIZONS, spec.omega, grid)


def median_time(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def main() -> int:
    spec = SystemSpec(SpeedProfile.constant([-1.0, 1.0]), SourceTerm.zero(2),
                      CouplingSpec(np.eye(1), np.eye(1)), ControlDomain(((0.25, 0.75),)))
    rows = []
    for path, sizes in BASELINE.items():
        for n in sizes:
            grid = Grid(0.0, 1.0, n)
            fn = make_call(path, spec, grid)
            repeats = 1 if path == "sigma_min_sweep" and n > 200 else REPEATS
            if repeats > 1:
                fn()  # warm-up
            seconds = median_time(fn, repeats)
            base = BASELINE[path][n]
            rows.append({"path": path, "N": n, "seconds": seconds, "baseline_s": base,
                         "ratio": seconds / base, "repeats": repeats})
            print(f"{path:<27} N={n:<5} {seconds:9.4f} s   baseline {base:8.4f} s   "
                  f"ratio {seconds / base:5.2f}", flush=True)
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / "scaling.json").write_text(json.dumps(
        {"blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "rows": rows}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
