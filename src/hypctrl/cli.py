"""Command-line interface: config ingestion, subcommands, CSV emission.

Configuration is one JSON file with the keys

    n       int                 number of state components
    m       int                 number of negative speeds
    speeds  list of n entries   {"type": "constant", "value": v} or
                                {"type": "piecewise_linear", "x": [...], "v": [...]}
    M       matrix (n x n) or
            {"type": "piecewise_constant", "x": [...], "matrices": [...]}
    Q0      matrix (p x m)
    Q1      matrix (m x p)
    omega   list of [a, b] pairs
    grid    {"cells": int, "cfl": number (optional, default 0.9)}

where a number is a JSON number in the float range, not a string, boolean or
null; [...] is a nonempty list of numbers, and a matrix a nonempty list of
equal-length lists of numbers.  Parsing is strict: unknown keys anywhere are
rejected.  Exit codes: 0 on success; 1 on a numerical failure (a solution or
Gramian that lost finiteness, the size, memory and work guards) or an
output that cannot be written; 2 on malformed or invalid configuration,
flag values or input files, and on a request the configuration cannot pose
(``omegahat`` when the closure of omega covers [0, 1], ``necessity`` when
the source is not minus the speed slope); 3 when a rank condition makes
the request infinite or unanswerable; 4 when the horizon is below the time
the command needs.  Errors are raised where they are decided, horizons and
epsilon in the library, so this module checks neither itself; ``run`` alone
turns an error into a single line starting with ``ERROR:`` and its exit
code.  Floats are printed with 17 significant digits so repeated runs are
bit-identical.
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
from .pde import ControlField, Grid, StateField, _check_state, _forward, _resolve_steps
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


def _numbers(value, where: str, ndim: int = 0):
    """The one reader of JSON numbers: a number (``ndim`` 0) as a float, or
    nonempty lists of equal length nested ``ndim`` deep as a float array.
    Booleans, strings, null, ragged or wrongly nested lists and integers too
    large for a float are refused, naming ``where``."""
    # numpy nests only lists of one length, so a ragged or wrongly nested value
    # comes out with fewer dimensions or with a list for an element
    arr = np.array(value, dtype=object)
    # JSON decodes to exact ints and floats, and a boolean's type is bool
    if arr.ndim != ndim or not arr.size or not {*map(type, arr.flat)} <= {int, float}:
        what = f"numbers in nonempty equal-length lists {ndim} deep" if ndim else "a number"
        _fail(where, f"expected {what}, got {json.dumps(value)}")
    try:
        return arr.astype(float) if ndim else float(value)
    except OverflowError:
        _fail(where, "an integer is too large for a float")


def _integer(value, where: str) -> int:
    # JSON floats and booleans are not counts, even when int() accepts them;
    # the number reader then refuses an integer too large for a float
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(where, f"expected an integer, got {json.dumps(value)}")
    _numbers(value, where)
    return value


def _speed_profile(entries, n: int) -> SpeedProfile:
    if not isinstance(entries, list) or len(entries) != n:
        _fail("speeds", f"expected a list of {n} entries")
    constants, pieces = {}, {}
    for i, e in enumerate(entries):
        where = f"speeds[{i}]"
        kind = e.get("type") if isinstance(e, dict) else None
        if kind == "constant":
            _require_keys(e, where, ("type", "value"))
            constants[i] = _numbers(e["value"], f"{where}.value")
        elif kind == "piecewise_linear":
            _require_keys(e, where, ("type", "x", "v"))
            pieces[i] = _numbers(e["x"], f"{where}.x", 1), _numbers(e["v"], f"{where}.v", 1)
            if not all(a < b for a, b in zip(e["x"], e["x"][1:])):
                _fail(f"{where}.x", f"must increase strictly, got {json.dumps(e['x'])}")
            if pieces[i][0].size != pieces[i][1].size:
                _fail(where, "'x' and 'v' must have equal length")
        else:
            _require_keys(e, where, ("type",), ("value", "x", "v"))
            _fail(where, f"unknown speed type '{e['type']}'")
    if not pieces:
        return SpeedProfile.constant([constants[i] for i in range(n)])
    # at least one piecewise entry: merge all breakpoints and resample
    xs = np.array(sorted({0.0, 1.0}.union(*(x.tolist() for x, _ in pieces.values()))))
    if xs[0] != 0.0 or xs[-1] != 1.0:
        _fail("speeds", "piecewise breakpoints must stay inside [0, 1]")
    rows = [np.full(xs.size, constants[i]) if i in constants else np.interp(xs, *pieces[i])
            for i in range(n)]
    return SpeedProfile.piecewise_linear(xs, np.stack(rows))


def _source_term(entry) -> SourceTerm:
    if isinstance(entry, list):
        return SourceTerm.constant(_numbers(entry, "M", 2))
    _require_keys(entry, "M", ("type", "x", "matrices"))
    if entry["type"] != "piecewise_constant":
        _fail("M", f"unknown source type '{entry['type']}'")
    return SourceTerm.piecewise_constant(_numbers(entry["x"], "M.x", 1),
                                         _numbers(entry["matrices"], "M.matrices", 3))


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
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    except (OSError, ValueError, RecursionError) as exc:  # bad UTF-8, 4,301 digits, deep lists
        raise ConfigError(f"{path}: {exc}") from exc

    _require_keys(data, "config", ("n", "m", "speeds", "M", "Q0", "Q1", "omega", "grid"))
    n, m = _integer(data["n"], "n"), _integer(data["m"], "m")
    try:
        speeds = _speed_profile(data["speeds"], n)
        source = _source_term(data["M"])
        couplings = CouplingSpec(_numbers(data["Q0"], "Q0", 2), _numbers(data["Q1"], "Q1", 2))
        pairs = _numbers(data["omega"], "omega", 2)
        if pairs.shape[1] != 2:
            _fail("omega", f"expected [a, b] pairs, got {json.dumps(data['omega'])}")
        omega = ControlDomain(tuple(pairs.tolist()))
        _require_keys(data["grid"], "grid", ("cells",), ("cfl",))
        cells = _integer(data["grid"]["cells"], "grid.cells")
        cfl = _numbers(data["grid"].get("cfl", 0.9), "grid.cfl")
    except ConfigError:
        raise
    except ValueError as exc:
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
    """A preset (the first component set at the cell centers) or a state CSV."""
    presets = {"zero": lambda x: 0.0, "sinpi": lambda x: np.sin(np.pi * x),
               "bump": lambda x: np.exp(-60.0 * (x - 0.5) ** 2)}
    _check_state(n, grid)
    if arg in presets:
        vals = np.zeros((n, grid.n_cells))
        vals[0] = presets[arg](grid.centers)
        return StateField(vals, grid)
    path = Path(arg)
    if not path.exists():
        raise ConfigError(f"state '{arg}' is neither a preset (zero|sinpi|bump) "
                          "nor an existing CSV file")
    rows = _load_csv(path)
    if rows.shape[1] != n + 1:
        raise ConfigError(f"{arg}: expected columns x,y1..y{n}")
    if np.any(np.diff(rows[:, 0]) <= 0.0):
        raise ConfigError(f"{arg}: x must increase strictly down the rows")
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


def _read_control_csv(path, spec: SystemSpec, grid: Grid, T: float) -> ControlField:
    """A control CSV as ``synthesize`` writes it: one row per time and cell,
    sorted by t, then by ascending x, at evenly spaced times from 0 (one
    time is one step of ``T``), and 0 outside omega."""
    rows, n = _load_csv(path), spec.n
    if rows.shape[1] != n + 2:
        raise ConfigError(f"{path}: expected columns t,x,u1..u{n}")
    if rows.shape[0] % grid.n_cells:
        raise ConfigError(f"{path}: expected whole steps of {grid.n_cells} rows "
                          f"(times x cells), got {rows.shape[0]}")
    t, x = rows[:, 0].reshape(-1, grid.n_cells), rows[:, 1].reshape(-1, grid.n_cells)
    ts = t[:, 0]
    dt = ts[1] - ts[0] if ts.size > 1 else T
    tol = 1e-9 * max(1.0, ts[-1])
    if (np.any(t != ts[:, None]) or abs(ts[0]) > tol or np.any(np.diff(ts) <= 0.0)
            or np.any(np.abs(np.diff(ts) - dt) > tol)
            or np.max(np.abs(x - grid.centers)) > 1e-9):
        raise ConfigError(f"{path}: expected a row per cell of the configured grid at each "
                          "of evenly spaced times from 0, sorted by t, then by ascending x")
    vals = rows[:, 2:].reshape(ts.size, grid.n_cells, n).transpose(0, 2, 1)
    mask = spec.omega.contains_points(grid.centers)
    if np.any(vals[:, :, ~mask]):
        raise ConfigError(f"{path}: the control must vanish outside omega")
    return ControlField(vals, grid, dt, mask)


def _print_matrix(stream, name: str, mat: np.ndarray):
    stream.write(name + ":\n")
    for row in np.atleast_2d(mat):
        stream.write(" ".join(_fmt(v) for v in row) + "\n")


def _matrix_flag(text: str) -> np.ndarray:
    try:
        value = json.loads(text)
    except ValueError as exc:
        raise ConfigError(f"--matrix: {exc}") from exc
    mat = _numbers(value, "--matrix", 2)
    if not np.all(np.isfinite(mat)):
        _fail("--matrix", f"expected a nonempty 2-D array of finite numbers, got {text}")
    return mat


def _nu_list_flag(text: str) -> list[int]:
    try:
        nus = [int(v) for v in text.split(",")]
    except ValueError:
        nus = []
    if not nus or min(nus) < 1:
        raise ConfigError(f"--nu-list: expected comma-separated integers >= 1, "
                          f"got '{text}'")
    # the config's integer reader: one too large for a float exits 2
    return [_integer(nu, "--nu-list") for nu in nus]


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
    u = _read_control_csv(args.u, spec, grid, args.T) if args.u else None
    final = _forward(spec, y0, u, args.T, cfg.cfl, trajectory=False).final
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
    if args.steps == 1 and args.tmax != args.tmin:
        raise ConfigError(f"--steps: 1 sweeps the single horizon --tmin, so --tmax "
                          f"must equal it, got {args.tmin} and {args.tmax}")
    # the sweep's Courant factor; its horizons snap to whole steps up to
    # --tmax, so more horizons than steps only repeat one
    cfl = 1.0
    _, n_steps = _resolve_steps(cfg.spec, cfg.grid, args.tmax, cfl, positive=True)
    if args.steps > n_steps:
        raise ConfigError(f"--steps: at most the {n_steps} steps of the sweep up to "
                          f"--tmax, got {args.steps}")
    ts = np.linspace(args.tmin, args.tmax, args.steps)
    sweep = sigma_min_sweep(cfg.spec, ts, cfg.spec.omega, cfg.grid, cfl)
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
