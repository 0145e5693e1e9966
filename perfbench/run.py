"""Benchmark harness for hypctrl.

    python3 perfbench/run.py --workload synth --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Runs one workload (or each in turn, every one in a fresh process, with
``all``) from the root of a checkout, against the package in ``src/``.
Load model: a closed loop with one client in one process; each job starts
when the previous one has ended.  Set-up (imports, seeded input generation
and a warm-up job) is timed cold ``SETUP_REPEATS`` times, once in the
workload's own process and the rest each in a fresh process of its own
(``--setup-only``), and reported as the median of their wall times.  The
timed phase runs jobs
until their summed wall time reaches ``--seconds``, at least ``MIN_JOBS``
have run (``MIN_CYCLES`` cycles through the inputs on a workload whose tail
is taken per input) and the last input cycle is complete; each output is
checked between jobs, off the clock.  Job times are reported in reference
seconds, normalized by a calibration kernel timed between jobs (see
calibrate.py); wall times are reported beside them.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half
the time untraced and half with the span recorder installed, and reports
the per-layer metrics.  The last line of standard output is one JSON
object: correct, attempted, failed and metrics.  A report with the machine
facts, the computed counters and (traced) the spans goes to
``.perfbench_out/`` in the checkout.
"""

import os

# pinned before numpy loads; never above the cores available
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import ctypes
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("synth", "march", "certify", "formulas")
SETUP_REPEATS = 5
TAIL_BEYOND = 10       # jobs beyond the tail percentile
MIN_JOBS = TAIL_BEYOND + 1
MIN_CYCLES = 3         # runs of each input, where the tail is taken per input
CALIBRATE_EVERY = 0.2  # seconds of job time between calibration samples
END_TO_END_UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_s_p50": "s",
                    "job_s_tail": "s", "peak_rss_mb": "MB"}


def machine_facts(np) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), "")
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "mem_total_gb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 1e9,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_in_effect": openblas_threads(),
    }


def openblas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line}
    except OSError:
        return None
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(dll, sym):
                return int(getattr(dll, sym)())
    return None


def tail(times):
    """The highest whole percentile with at least TAIL_BEYOND jobs beyond
    it (nearest rank, at most p99), and that percentile."""
    ordered = sorted(times)
    n = len(ordered)
    pct = min(99, (100 * (n - TAIL_BEYOND)) // n)
    return ordered[math.ceil(pct * n / 100) - 1], pct


class Phase:
    """Closed-loop timed phase: wall and speed-normalized job times,
    failures, accuracy figures and computed counters.

    Where ``wl.tail_per_input`` is set, an untraced phase takes
    ``job_s_tail`` over each input's median job time, every input having
    run ``MIN_CYCLES`` times or more; otherwise it is taken over single
    jobs.

    The calibration kernels run before the first job, between jobs once
    CALIBRATE_EVERY seconds of job time have passed, and after the last job.
    """

    def __init__(self, wl, first: int, seconds: float, calibrator, tracer=None):
        from workloads import CheckFailed
        self.times: dict[int, float] = {}
        self.failures: list[str] = []
        self.accuracy: list[float] = []
        self.computed: list[dict] = []
        # job_s_tail comes from an untraced phase only
        self.round = wl.round if wl.tail_per_input and tracer is None else None
        min_jobs = MIN_CYCLES * wl.round if self.round else MIN_JOBS
        calibrator.sample()
        stamps: dict[int, tuple[float, float]] = {}
        i = first
        busy = since = 0.0
        while busy < seconds or len(self.times) < min_jobs or i % wl.round:
            if tracer is not None:
                tracer.job = i
            t0 = perf_counter()
            try:
                out = wl.job(i)
            except Exception as exc:  # a failed job is counted, not fatal
                out, error = None, f"job {i}: {type(exc).__name__}: {exc}"
            t1 = perf_counter()
            if tracer is not None:
                tracer.job = None
            self.times[i] = t1 - t0
            stamps[i] = (t0, t1)
            busy += t1 - t0
            since += t1 - t0
            if out is None:
                self.failures.append(error)
            else:
                try:
                    acc = wl.check(i, out)
                    self.computed.append(wl.computed(i, out))
                    if acc is not None:
                        self.accuracy.append(acc)
                except CheckFailed as exc:
                    self.failures.append(f"job {i}: {exc}")
            del out
            if since >= CALIBRATE_EVERY:
                calibrator.sample()
                since = 0.0
            i += 1
        if since > 0.0:
            calibrator.sample()
        self.next = i
        self.normalized = {j: calibrator.normalize(j, *stamps[j]) for j in stamps}

    def tail_samples(self, times: dict[int, float]) -> list[float]:
        """The values job_s_tail is taken over: the job times, or each
        input's median job time."""
        if self.round is None:
            return list(times.values())
        per_input: dict[int, list[float]] = {}
        for i, t in times.items():
            per_input.setdefault(i % self.round, []).append(t)
        return [statistics.median(ts) for ts in per_input.values()]

    def summary(self) -> dict:
        """jobs_per_s, job_s_p50 and job_s_tail, normalized and wall."""
        done = len(self.times) - len(self.failures)
        out = {}
        for kind, times in (("normalized", self.normalized), ("wall", self.times)):
            values = list(times.values())
            out[kind] = {"jobs_per_s": done / sum(values),
                         "job_s_p50": statistics.median(values),
                         "job_s_tail": tail(self.tail_samples(times))[0]}
        return out


def cold_setup(name: str, seed: int, scratch: Path):
    """Imports, seeded input generation and one warm-up job, as a fresh
    process pays them.  Returns the workload, and the set-up's wall seconds
    without the time spent creating input files (see workloads.py) together
    with that time."""
    t0 = perf_counter()
    sys.path[:0] = [str(SRC), str(HERE)]
    import numpy as np
    import hypctrl
    if Path(hypctrl.__file__).resolve().parent != SRC / "hypctrl":
        sys.exit(f"ERROR: imported hypctrl from {hypctrl.__file__}, not {SRC}")
    import workloads
    wl = workloads.WORKLOADS[name](np.random.default_rng(seed), scratch)
    wl.check(0, wl.job(0))
    return wl, (perf_counter() - t0 - wl.write_s, wl.write_s)


def setup_in_child(name: str, seed: int) -> tuple[float, float]:
    """One cold set-up in a fresh process; its seconds and file-writing
    seconds."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", "1", "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"ERROR: set-up of {name} exited with {proc.returncode}:\n{proc.stderr}")
    return tuple(json.loads(proc.stdout.splitlines()[-1]))


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{name}-inputs-") as scratch:
        wl, own = cold_setup(name, seed, Path(scratch))
        import numpy as np
        import calibrate
        import spans as tracing
        import workloads
        setups = [own] + [setup_in_child(name, seed) for _ in range(SETUP_REPEATS - 1)]
        setup_s = statistics.median(t for t, _ in setups)
        calibrator = calibrate.Calibrator(name)

        plain = Phase(wl, 0, seconds / 2 if trace else seconds, calibrator)
        phases = [plain]
        if trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                phases.append(Phase(wl, plain.next, seconds / 2, calibrator, tracer))
            finally:
                tracer.remove()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    summary = plain.summary()
    end_to_end = {"setup_s": setup_s, **summary["normalized"], "peak_rss_mb": peak_rss_mb}
    wall = {"setup_s": setup_s, **summary["wall"]}
    attempted = sum(len(p.times) for p in phases)
    failures = [f for p in phases for f in p.failures]
    accuracy = [a for p in phases for a in p.accuracy]
    samples = len(plain.times)
    tail_of = plain.tail_samples(plain.times)
    tail_pct = tail(tail_of)[1]
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": machine_facts(np),
        "end_to_end": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end.items()},
        "wall": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in wall.items()},
        "samples": samples, "job_s_tail_percentile": tail_pct,
        "job_s_tail_over": ("per-input medians" if plain.round else "jobs", len(tail_of)),
        "calibration": {"kernel": calibrator.kernel_name,
                        "reference_s": calibrator.reference_s,
                        "power": calibrator.powers,
                        "samples": len(calibrator.samples),
                        "median_s": statistics.median(calibrator.samples),
                        "min_s": min(calibrator.samples), "max_s": max(calibrator.samples)},
        "failed_frac": {"value": len(failures) / attempted, "unit": "1"},
        "result_error": ({"value": statistics.median(accuracy), "unit": "1"}
                         if accuracy else None),
        "failures": failures[:20],
        "computed": summarize_computed([c for p in phases for c in p.computed]),
        "setup_wall_s": [t for t, _ in setups],
        "setup_write_s": [w for _, w in setups],
        "job_wall_s": list(plain.times.values()),
    }

    print(f"workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    print("machine " + json.dumps(report["machine"]))
    over = f"of {len(tail_of)} inputs' median job times" if plain.round else "of job times"
    print(f"end-to-end (times in reference seconds; wall seconds in brackets; "
          f"{samples} jobs, job_s_tail is p{tail_pct} {over})")
    for key, value in end_to_end.items():
        raw = f"  [{wall[key]:.6g}]" if key in wall else ""
        print(f"  {key:<16} {value:.6g} {END_TO_END_UNITS[key]}{raw}")
    print(f"  {'failed_frac':<16} {len(failures) / attempted:.6g} 1  "
          f"({len(failures)} of {attempted})")
    if accuracy:
        print(f"  {'result_error':<16} {statistics.median(accuracy):.6g} 1")
    print("calibration " + json.dumps(report["calibration"]))
    print("computed " + json.dumps(report["computed"]))
    for f in failures[:5]:
        print(f"  FAILED {f}")

    if trace:
        traced = phases[1]
        # speed-normalized, so a change of core speed between the phases
        # does not pass for tracing cost
        overhead = (statistics.median(traced.normalized.values())
                    - statistics.median(plain.normalized.values()))
        per_layer = tracer.metrics(traced.times, overhead, workloads.courant)
        residuals = [c["hum_residual_max"] for c in traced.computed if "hum_residual_max" in c]
        per_layer["synth.hum_residual_max"] = (max(residuals) if residuals else 0.0, "1")
        layers = sum(per_layer[f"{layer}.self_s"][0] for layer in tracing.LAYERS)
        gap = layers + per_layer["bench.unattributed_s"][0] - per_layer["bench.traced_job_s"][0]
        report["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
        report["per_layer_identity_gap_s"] = gap
        report["traced_samples"] = len(traced.times)
        spans = OUT / f"spans-{name}-seed{seed}.jsonl"
        tracer.dump(spans)
        print(f"per-layer (wall seconds, means per traced job; {len(traced.times)} traced "
              f"jobs; spans in {spans.relative_to(ROOT)})")
        for key, (value, unit) in per_layer.items():
            print(f"  {key:<26} {value:.6g} {unit}")
        print(f"  layer self times + bench.unattributed_s - bench.traced_job_s = {gap:.3g} s")
        metrics = report["per_layer"]
    else:
        metrics = report["end_to_end"]

    path = OUT / f"report-{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def summarize_computed(rows: list[dict]) -> dict:
    """Per-job counters computed from inputs and results: scalar ones as
    their range over the run, Courant ranges as the extremes seen."""
    out = {}
    for key in sorted({k for r in rows for k in r}):
        values = [r[key] for r in rows if key in r]
        if isinstance(values[0], list):
            out[key] = [[min(v[k][0] for v in values), max(v[k][1] for v in values)]
                        for k in range(len(values[0]))]
        else:
            out[key] = [min(values), max(values)]
    return {"kind": "computed", "values": out}


def run_all(args) -> int:
    """Every workload in turn, each in a fresh process."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"ERROR: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one cold set-up, print its seconds and "
                        "file-writing seconds, and exit")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (SRC / "hypctrl" / "__init__.py").is_file():
        print(f"ERROR: no hypctrl sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{args.workload}-setup-") as scratch:
            span = cold_setup(args.workload, args.seed, Path(scratch))[1]
        print(json.dumps(span))
        return 0
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
