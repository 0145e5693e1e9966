"""Command-line interface: config ingestion, subcommands, CSV emission.

Configuration is one JSON file with the keys

    n       int                 number of state components
    m       int                 number of negative speeds
    speeds  list of n entries   {"type": "constant", "value": v} or
                                {"type": "piecewise_linear", "x": [...], "v": [...]}
    M       nested list (n x n) or
            {"type": "piecewise_constant", "x": [...], "matrices": [...]}
    Q0      nested list (p x m)
    Q1      nested list (m x p)
    omega   list of [a, b] pairs
    grid    {"cells": int, "cfl": float (optional, default 0.9)}

Parsing is strict: unknown keys anywhere are rejected.  Exit codes: 0 on
success; 1 on a numerical failure (a solution or Gramian that lost
finiteness, the Gramian size guard) or an output that cannot be written;
2 on malformed or invalid configuration, flag values or input files, and on
a request the configuration cannot pose (``omegahat`` when the closure of
omega covers [0, 1], ``necessity`` when the source is not minus the speed
slope); 3 when a rank condition makes the request infinite or unanswerable;
4 when the horizon is below the time the command needs.  Errors are raised
where they are decided, horizons and epsilon in the library, so this module
checks neither itself; ``run`` alone turns an error into a single line
starting with ``ERROR:`` and its exit code.  Floats are printed
with 17 significant digits so repeated runs are bit-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .canon import canonical_form
from .model import (BelowThresholdError, ConfigError, ControlDomain, CouplingSpec,
                    RankError, SourceTerm, SpeedProfile, SystemSpec)
from .obsv import detect_threshold, necessity_horizon, necessity_sweep, sigma_min_sweep
from .pde import ControlField, Grid, StateField, _forward
from .synth import assemble_internal_control
from .times import minimal_control_time, refine_control_region

# the first type an error is an instance of gives its exit code
EXIT_CODES = {ConfigError: 2, RankError: 3, BelowThresholdError: 4,
              ValueError: 1, RuntimeError: 1, OSError: 1}


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _fail(where: str, message: str):
    raise ConfigError(f"{where}: {message}")


def _require_keys(obj: dict, where: str, required: tuple, optional: tuple = ()):
    if not isinstance(obj, dict):
        _fail(where, "expected an object")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        _fail(where, f"unknown keys {sorted(unknown)}")
    missing = [k for k in required if k not in obj]
    if missing:
        _fail(where, f"missing keys {missing}")


def _integer(value, where: str) -> int:
    # JSON floats and booleans are not counts, even when int() accepts them
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(where, f"expected an integer, got {json.dumps(value)}")
    return value


def _number(value, where: str) -> float:
    # booleans are not numbers here either, even when float() accepts them
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(where, f"expected a number, got {json.dumps(value)}")
    return float(value)


def _speed_profile(entries, n: int) -> SpeedProfile:
    if not isinstance(entries, list) or len(entries) != n:
        _fail("speeds", f"expected a list of {n} entries")
    constants = {}
    for i, e in enumerate(entries):
        _require_keys(e, f"speeds[{i}]", ("type",), ("value", "x", "v"))
        if e["type"] == "constant":
            if "value" not in e:
                _fail(f"speeds[{i}]", "constant entry needs 'value'")
            constants[i] = _number(e["value"], f"speeds[{i}].value")
        elif e["type"] != "piecewise_linear":
            _fail(f"speeds[{i}]", f"unknown speed type '{e['type']}'")
        elif not (isinstance(e.get("x"), list) and isinstance(e.get("v"), list)):
            _fail(f"speeds[{i}]", "piecewise entry needs 'x' and 'v' lists")
        elif len(e["x"]) != len(e["v"]):
            _fail(f"speeds[{i}]", "'x' and 'v' must have equal length")
    if len(constants) == n:
        return SpeedProfile.constant([constants[i] for i in range(n)])
    # at least one piecewise entry: merge all breakpoints and resample
    breakpoints = {0.0, 1.0}
    for e in entries:
        if e["type"] == "piecewise_linear":
            breakpoints.update(float(x) for x in e["x"])
    xs = np.array(sorted(breakpoints))
    if xs[0] != 0.0 or xs[-1] != 1.0:
        _fail("speeds", "piecewise breakpoints must stay inside [0, 1]")
    rows = [np.full(xs.size, constants[i]) if i in constants
            else np.interp(xs, np.asarray(e["x"], float), np.asarray(e["v"], float))
            for i, e in enumerate(entries)]
    return SpeedProfile.piecewise_linear(xs, np.stack(rows))


def _source_term(entry, n: int) -> SourceTerm:
    if isinstance(entry, list):
        mat = np.asarray(entry, dtype=float)
        if mat.shape != (n, n):
            _fail("M", f"expected an {n}x{n} matrix, got {mat.shape}")
        return SourceTerm.constant(mat)
    _require_keys(entry, "M", ("type", "x", "matrices"))
    if entry["type"] != "piecewise_constant":
        _fail("M", f"unknown source type '{entry['type']}'")
    return SourceTerm.piecewise_constant(np.asarray(entry["x"], float),
                                         np.asarray(entry["matrices"], float))


@dataclass(frozen=True)
class RunConfig:
    spec: SystemSpec
    cells: int
    cfl: float

    @property
    def grid(self) -> Grid:
        return Grid(0.0, 1.0, self.cells)


def parse_config(path) -> RunConfig:
    """Strictly parse and validate a configuration file."""
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}: {exc.msg}") from exc

    _require_keys(data, "config", ("n", "m", "speeds", "M", "Q0", "Q1", "omega", "grid"))
    n, m = _integer(data["n"], "n"), _integer(data["m"], "m")
    try:
        speeds = _speed_profile(data["speeds"], n)
        source = _source_term(data["M"], n)
        q0 = np.asarray(data["Q0"], dtype=float)
        q1 = np.asarray(data["Q1"], dtype=float)
        couplings = CouplingSpec(q0, q1)
        omega_list = data["omega"]
        if not (isinstance(omega_list, list) and omega_list
                and all(isinstance(p, list) and len(p) == 2 for p in omega_list)):
            _fail("omega", "expected a nonempty list of [a, b] pairs")
        omega = ControlDomain(tuple((float(a), float(b)) for a, b in omega_list))
        _require_keys(data["grid"], "grid", ("cells",), ("cfl",))
        cells = _integer(data["grid"]["cells"], "grid.cells")
        cfl = _number(data["grid"].get("cfl", 0.9), "grid.cfl")
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"config: {exc}") from exc
    if not np.isfinite(cfl) or not 0.0 < cfl <= 1.0:
        _fail("grid.cfl", "must lie in (0, 1]")

    spec = SystemSpec(speeds, source, couplings, omega)
    if spec.m != m:
        _fail("m", f"declared m={m} but the speeds have {spec.m} negative components")
    try:
        Grid(0.0, 1.0, cells)
    except ValueError as exc:
        raise ConfigError(f"grid.cells: {exc}") from exc
    return RunConfig(spec, cells, cfl)


def _load_csv(path) -> np.ndarray:
    """The numeric rows of a CSV file below its header line: at least one,
    every cell finite."""
    try:
        with warnings.catch_warnings():
            # numpy warns on a file without data rows; the check below
            # reports it as the one error line instead
            warnings.simplefilter("ignore", UserWarning)
            rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if rows.size == 0:
        raise ConfigError(f"{path}: no data rows below the header line")
    if not np.isfinite(rows).all():
        raise ConfigError(f"{path}: every cell must be a finite number")
    return rows


def _state_from_arg(arg: str, grid: Grid, n: int) -> StateField:
    """Build a state from a preset name or a state CSV file."""
    if arg == "zero":
        return StateField(np.zeros((n, grid.n_cells)), grid)
    if arg == "sinpi":
        vals = np.zeros((n, grid.n_cells))
        vals[0] = np.sin(np.pi * grid.centers)
        return StateField(vals, grid)
    if arg == "bump":
        vals = np.zeros((n, grid.n_cells))
        vals[0] = np.exp(-60.0 * (grid.centers - 0.5) ** 2)
        return StateField(vals, grid)
    path = Path(arg)
    if not path.exists():
        raise ConfigError(f"state '{arg}' is neither a preset (zero|sinpi|bump) "
                          "nor an existing CSV file")
    rows = _load_csv(path)
    if rows.shape[1] != n + 1:
        raise ConfigError(f"{arg}: expected columns x,y1..y{n}")
    vals = np.stack([np.interp(grid.centers, rows[:, 0], rows[:, 1 + k])
                     for k in range(n)])
    return StateField(vals, grid)


def _write_state_csv(stream, state: StateField):
    n = state.values.shape[0]
    stream.write("x," + ",".join(f"y{k+1}" for k in range(n)) + "\n")
    for i, x in enumerate(state.grid.centers):
        stream.write(",".join([_fmt(x)] + [_fmt(state.values[k, i]) for k in range(n)]) + "\n")


def _write_control_csv(path, control: ControlField):
    n = control.values.shape[1]
    with open(path, "w") as stream:
        stream.write("t,x," + ",".join(f"u{k+1}" for k in range(n)) + "\n")
        for j in range(control.n_steps):
            t = j * control.dt
            for i, x in enumerate(control.grid.centers):
                stream.write(",".join([_fmt(t), _fmt(x)]
                                      + [_fmt(control.values[j, k, i]) for k in range(n)]) + "\n")


def _read_control_csv(path, grid: Grid, n: int) -> ControlField:
    rows = _load_csv(path)
    if rows.shape[1] != n + 2:
        raise ConfigError(f"{path}: expected columns t,x,u1..u{n}")
    ts = np.unique(rows[:, 0])
    xs = np.unique(rows[:, 1])
    if xs.size != grid.n_cells or np.max(np.abs(xs - grid.centers)) > 1e-9:
        raise ConfigError(f"{path}: control grid does not match the configured grid")
    n_steps = ts.size
    if rows.shape[0] != n_steps * grid.n_cells:
        raise ConfigError(f"{path}: expected {n_steps} x {grid.n_cells} rows "
                          f"(times x cells), got {rows.shape[0]}")
    dt = ts[1] - ts[0] if n_steps > 1 else float(rows[-1, 0])
    vals = rows[:, 2:].reshape(n_steps, grid.n_cells, n).transpose(0, 2, 1)
    return ControlField(vals, grid, dt, np.ones(grid.n_cells, dtype=bool))


def _print_matrix(stream, name: str, mat: np.ndarray):
    stream.write(name + ":\n")
    for row in np.atleast_2d(mat):
        stream.write(" ".join(_fmt(v) for v in row) + "\n")


def _matrix_flag(text: str) -> np.ndarray:
    try:
        mat = np.asarray(json.loads(text), dtype=float)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"--matrix: {exc}") from exc
    if mat.ndim != 2 or mat.size == 0 or not np.all(np.isfinite(mat)):
        raise ConfigError(f"--matrix: expected a nonempty 2-D array of finite "
                          f"numbers, got {text}")
    return mat


def _nu_list_flag(text: str) -> list[int]:
    try:
        nus = [int(v) for v in text.split(",")]
    except ValueError:
        nus = []
    if not nus or min(nus) < 1:
        raise ConfigError(f"--nu-list: expected comma-separated integers >= 1, "
                          f"got '{text}'")
    return nus


def _cmd_mintime(cfg: RunConfig, args, out):
    result = minimal_control_time(cfg.spec)
    if not result.finite:
        out.write("T_inf = inf\n")
        raise RankError(result.reason)
    out.write(f"T_inf = {_fmt(result.value)}\n")
    lines = ["lo,hi,case,value\n"]
    lines += [f"{_fmt(iv.lo)},{_fmt(iv.hi)},{r.case},{_fmt(r.value)}\n"
              for iv, r in result.per_component]
    if args.out:
        Path(args.out).write_text("".join(lines))
    else:
        out.writelines(lines)


def _cmd_canon(cfg: RunConfig | None, args, out):
    if args.matrix:
        mat = _matrix_flag(args.matrix)
    elif cfg is not None:
        mat = cfg.spec.couplings.q0 if args.which == "Q0" else cfg.spec.couplings.q1
    else:
        raise ConfigError("canon needs --matrix or --config")
    dec = canonical_form(mat)
    _print_matrix(out, "Qcanon", dec.canonical)
    out.write("pivots: " + " ".join(f"({r+1},{c+1})" for r, c in dec.pivots) + "\n")
    out.write(f"rank: {dec.rank}\n")
    _print_matrix(out, "L", dec.lower)
    _print_matrix(out, "U", dec.upper)


def _cmd_omegahat(cfg: RunConfig, args, out):
    refined = refine_control_region(cfg.spec, args.eps)
    out.write(f"achieved_bound = {_fmt(refined.achieved_bound)}\n")
    out.write(f"target_bound = {_fmt(refined.target_bound)}\n")
    out.write("lo,hi\n")
    for a, b in refined.region.intervals:
        out.write(f"{_fmt(a)},{_fmt(b)}\n")


def _cmd_simulate(cfg: RunConfig, args, out):
    grid = cfg.grid
    spec = cfg.spec
    y0 = _state_from_arg(args.y0, grid, spec.n)
    u = _read_control_csv(args.u, grid, spec.n) if args.u else None
    final = _forward(spec, y0, u, args.T, cfg.cfl, keep="final").final
    if args.out:
        with open(args.out, "w") as stream:
            _write_state_csv(stream, final)
    else:
        _write_state_csv(out, final)


def _cmd_synthesize(cfg: RunConfig, args, out):
    grid = cfg.grid
    spec = cfg.spec
    y0 = _state_from_arg(args.y0, grid, spec.n)
    y1 = _state_from_arg(args.y1, grid, spec.n)

    def fn(state):
        def f(x):
            return np.stack([np.interp(x, grid.centers, state.values[k])
                             for k in range(spec.n)])
        return f

    report = assemble_internal_control(spec, fn(y0), fn(y1), args.T, grid, cfl=cfg.cfl)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_control_csv(outdir / "control.csv", report.control)
    with open(outdir / "final_state.csv", "w") as stream:
        _write_state_csv(stream, report.final_state)
    summary = [f"achieved_error = {_fmt(report.achieved_error)}"]
    if report.omega_hat is not None:
        summary.append("refined_region = " + " ".join(
            f"({_fmt(a)},{_fmt(b)})" for a, b in report.omega_hat.intervals))
    if report.hum_residuals:
        summary.append("component_residuals = " + " ".join(
            _fmt(r) for r in report.hum_residuals))
    (outdir / "summary.txt").write_text("\n".join(summary) + "\n")
    out.write(f"achieved_error = {_fmt(report.achieved_error)}\n")


def _cmd_gramian(cfg: RunConfig, args, out):
    if args.steps < 1:
        raise ConfigError(f"--steps: must be at least 1, got {args.steps}")
    ts = np.linspace(args.tmin, args.tmax, args.steps)
    sweep = sigma_min_sweep(cfg.spec, ts, cfg.spec.omega, cfg.grid)
    out.write("T,sigma_min\n")
    for t, s in sweep.points:
        out.write(f"{_fmt(t)},{_fmt(s)}\n")
    thr = detect_threshold(sweep)
    if thr is not None:
        out.write(f"detected_threshold = {_fmt(thr)}\n")


def _cmd_necessity(cfg: RunConfig, args, out):
    nus = _nu_list_flag(args.nu_list)
    T = args.T if args.T is not None else necessity_horizon(cfg.spec)
    sweep = necessity_sweep(cfg.spec, nus, T, cfg.grid)
    out.write("nu,ratio\n")
    for nu, ratio in sweep.points:
        out.write(f"{nu},{_fmt(ratio)}\n")
    out.write(f"blowup_factor = {_fmt(sweep.blowup_factor)}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypctrl",
        description="Minimal control times and control synthesis for 1D "
                    "hyperbolic balance laws")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, config_required=True):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=config_required,
                       help="path to the JSON configuration")
        return p

    p = add("mintime", "minimal control time with per-component breakdown")
    p.add_argument("--out", help="write the component CSV here instead of stdout")

    p = add("canon", "canonical form of a coupling matrix", config_required=False)
    p.add_argument("--matrix", help="inline JSON matrix, e.g. '[[1,2],[3,4]]'")
    p.add_argument("--which", choices=("Q0", "Q1"), default="Q0",
                   help="which configured coupling to decompose")

    p = add("omegahat", "refine the control region to a finite union")
    p.add_argument("--eps", type=float, required=True,
                   help="admissible increase of the control time")

    p = add("simulate", "march the forward system")
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--y0", required=True, help="zero | sinpi | bump | state CSV")
    p.add_argument("--u", help="control CSV produced by synthesize")
    p.add_argument("--out", help="write the final state CSV here")

    p = add("synthesize", "assemble an internal control steering y0 to y1")
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--y0", required=True, help="zero | sinpi | bump | state CSV")
    p.add_argument("--y1", required=True, help="zero | sinpi | bump | state CSV")
    p.add_argument("--out", required=True, help="output directory")

    p = add("gramian", "sigma_min sweep of the observability Gramian")
    p.add_argument("--tmin", type=float, required=True)
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)

    p = add("necessity", "blow-up ratios for rank-deficient couplings")
    p.add_argument("--nu-list", required=True, help="comma-separated exponents")
    p.add_argument("--T", type=float, default=None,
                   help="horizon (default: the smallest admissible one)")

    return parser


COMMANDS = {"mintime": _cmd_mintime, "canon": _cmd_canon, "omegahat": _cmd_omegahat,
            "simulate": _cmd_simulate, "synthesize": _cmd_synthesize,
            "gramian": _cmd_gramian, "necessity": _cmd_necessity}


def run(args, out=None) -> int:
    """Dispatch a parsed command line and return its exit code.  The one place
    where an error becomes one ``ERROR:`` line on stderr and a code from
    ``EXIT_CODES``."""
    out = out if out is not None else sys.stdout
    try:
        # overflow is reported by the finiteness checks, not by numpy warnings
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            cfg = parse_config(args.config) if args.config else None
            COMMANDS[args.command](cfg, args, out)
    except tuple(EXIT_CODES) as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))
    return 0


def main(argv=None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
