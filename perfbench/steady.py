"""Steadiness self-check: two interleaved sets of runs of the same commit.

    python3 perfbench/steady.py                       # 10 runs per set, every workload
    python3 perfbench/steady.py --runs 5 --workloads march

Runs set A (seeds 1..runs) and set B (seeds 101..100+runs) alternately,
each run a fresh process of the command in BENCHMARK.json with its
``run_seconds``.  For every end-to-end metric and workload it prints each
set's median, its spread (distance between the first and third quartile
over the median, as ``statistics.quantiles(values, n=4)`` gives them), the
spread of both sets pooled, the pooled spread of the same metric in wall
seconds (what the speed normalization buys), the shift of set B's median
from set A's, and the metric's bound.  A spread or a shift larger than the
bound fails; the target for a steady benchmark is a spread below a third of
the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(cmd, workload, seed, seconds):
    """Metric values of one run, and their wall-clock values from its report."""
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    t0 = perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    print(f"{workload} seed {seed}: {perf_counter() - t0:.1f} s", file=sys.stderr)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed} failed its checks:\n{proc.stdout}")
    report = json.loads((OUT / f"report-{workload}-seed{seed}-trace0.json").read_text())
    return ({k: v["value"] for k, v in result["metrics"].items()},
            {k: v["value"] for k, v in report["wall"].items()})


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]
    ok = True
    for workload in args.workloads:
        sets = {"A": [], "B": []}
        for r in range(args.runs):
            for label, base in (("A", 1), ("B", 101)) if r % 2 == 0 else (("B", 101), ("A", 1)):
                sets[label].append(run_once(bench["command"], workload, base + r, seconds))
        print(f"{workload}: {args.runs} runs per set, {seconds} s each")
        print(f"  {'metric':<12} {'median A':>10} {'median B':>10} {'spread A':>9} "
              f"{'spread B':>9} {'pooled':>7} {'wall':>7} {'shift':>7} {'bound':>6}  verdict")
        for m in metrics:
            name = m["name"]
            a = [run[name] for run, _ in sets["A"]]
            b = [run[name] for run, _ in sets["B"]]
            walls = [wall[name] for _, wall in sets["A"] + sets["B"] if name in wall]
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = (med_b - med_a) / med_a if m["better"] == "lower" else (med_a - med_b) / med_a
            spreads = (spread(a), spread(b))
            bound = m["bound"]
            verdict = "ok"
            if worse > bound or max(spreads) > bound:
                verdict, ok = "FAIL", False
            elif max(spreads) > bound / 3:
                verdict = "wide"
            wall = f"{spread(walls):>7.3f}" if walls else f"{'-':>7}"
            print(f"  {name:<12} {med_a:>10.4g} {med_b:>10.4g} {spreads[0]:>9.3f} "
                  f"{spreads[1]:>9.3f} {spread(a + b):>7.3f} {wall} {worse:>+7.3f} "
                  f"{bound:>6.2f}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
