"""The four benchmark workloads: seeded inputs, one job, and its check.

Every workload is a class with

* ``__init__(rng, scratch)``: seeded input generation (counted in setup);
* ``write_s``: seconds ``__init__`` spent creating input files, which set-up
  time leaves out: file creation on a shared disk measures the disk, not
  hypctrl;
* ``round``: how many jobs make one full cycle through the inputs, so a
  timed phase always ends on a cycle boundary and the job mix is the same
  in every run;
* ``tail_per_input``: whether ``job_s_tail`` is taken over each input's
  median job time (the timed phase then runs every input at least
  ``run.MIN_CYCLES`` times) instead of over single jobs; set where jobs
  last milliseconds, so that a job the scheduler or a speed switch of the
  cores slowed does not set the tail;
* ``job(i)``: the work that is timed, calling hypctrl's public entry points
  through module attributes looked up at call time (so the tracer's
  wrappers see them);
* ``check(i, out)``: verifies the output of job ``i`` outside the timed
  interval and returns the workload's accuracy figure (None when the
  workload has none); raises ``CheckFailed`` on a wrong output;
* ``computed(i, out)``: counters derived from the inputs and the returned
  result objects, never from inside hypctrl.

Only the generated inputs reach hypctrl; the seed itself never does.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path
from time import perf_counter

import numpy as np

import hypctrl.cli
import hypctrl.obsv
import hypctrl.pde
import hypctrl.synth
import hypctrl.times
from hypctrl.model import (ControlDomain, CouplingSpec, SourceTerm,
                           SpeedProfile, SystemSpec)
from hypctrl.pde import ControlField, Grid, StateField

MB = float(1 << 20)


class Workload:
    """Defaults for the attributes every workload has."""
    write_s = 0.0
    tail_per_input = False


class CheckFailed(AssertionError):
    """A job returned a wrong output."""


def _require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def _spec(speeds, q0, q1, omega, source=None) -> SystemSpec:
    profile = (speeds if isinstance(speeds, SpeedProfile)
               else SpeedProfile.constant(speeds))
    src = source if source is not None else SourceTerm.zero(profile.n)
    return SystemSpec(profile, src, CouplingSpec(np.atleast_2d(q0), np.atleast_2d(q1)),
                      ControlDomain(tuple(omega)))


def case_c_spec() -> SystemSpec:
    """Piecewise-linear speeds with a source: the third synthesis case and
    the grid of the marching workload."""
    speeds = SpeedProfile.piecewise_linear([0.0, 0.5, 1.0],
                                           [[-1.0, -1.5, -1.0], [1.0, 2.0, 1.0]])
    source = SourceTerm.constant([[0.3, -0.2], [0.1, 0.4]])
    return _spec(speeds, [[0.8]], [[1.2]], [(0.2, 0.6)], source)


def fourier_state(rng, n: int, modes: int = 3):
    """Vectorized state function x -> (n, len(x)): a sine series of low modes
    with decaying random amplitudes.  Sine modes vanish at both ends, so the
    data are compatible with any boundary coupling."""
    j = np.arange(1, modes + 1)
    amp = rng.uniform(-1.0, 1.0, size=(n, modes)) / j ** 2

    def fn(x):
        x = np.asarray(x, dtype=float)
        return amp @ np.sin(np.pi * j[:, None] * x[None, :])
    return fn


def omega_mask(omega, centers) -> np.ndarray:
    """Cells whose centers lie strictly inside one of the omega intervals."""
    return np.any([(centers > a) & (centers < b) for a, b in omega], axis=0)


def courant(spec: SystemSpec, grid: Grid, dt: float) -> list[tuple[float, float]]:
    """(min, max) Courant number of each component on the grid."""
    out = []
    for k in range(spec.n):
        c = np.abs(np.asarray(spec.speeds.value(k, grid.centers))) * dt / grid.dx
        out.append((float(c.min()), float(c.max())))
    return out


def _computed(steps: int, dt: float, courant, **extra) -> dict:
    out = {"steps": steps, "dt": dt, "courant_per_component": courant,
           "courant_min": min(hi for _, hi in courant)}
    out.update(extra)
    return out


# --- synth ------------------------------------------------------------------

# (label, spec factory, horizon, cells, tolerance on achieved_error); each
# tolerance is about twice the largest error seen over 40 seeds
SYNTH_CASES = (
    ("a", lambda: _spec([-1.0, 1.0], [[1.0]], [[1.0]], [(0.25, 0.75)]), 0.6, 400, 0.03),
    ("b", lambda: _spec([-2.0, -1.0, 1.0, 3.0], np.eye(2), np.eye(2), [(0.3, 0.8)]),
     0.6, 240, 0.3),
    ("c", case_c_spec, 0.78, 240, 0.05),
)


class Synth(Workload):
    """One ``assemble_internal_control`` per job, cycling cases a, b, c."""

    round = len(SYNTH_CASES)

    def __init__(self, rng, scratch):
        self.cases = []
        for label, make, T, cells, tol in SYNTH_CASES:
            spec = make()
            self.cases.append({
                "label": label, "spec": spec, "T": T, "grid": Grid(0.0, 1.0, cells),
                "tol": tol, "y0": fourier_state(rng, spec.n), "y1": fourier_state(rng, spec.n)})

    def job(self, i):
        c = self.cases[i % self.round]
        return hypctrl.synth.assemble_internal_control(c["spec"], c["y0"], c["y1"],
                                                       c["T"], c["grid"])

    def check(self, i, out):
        c = self.cases[i % self.round]
        _require(out.achieved_error <= c["tol"],
                 f"case {c['label']}: achieved error {out.achieved_error:.3g} "
                 f"above {c['tol']}")
        outside = ~omega_mask(c["spec"].omega.intervals, c["grid"].centers)
        _require(not np.any(out.control.values[:, :, outside]),
                 f"case {c['label']}: control nonzero outside omega")
        _require(len(out.hum_residuals) > 0 and np.all(np.isfinite(out.hum_residuals)),
                 f"case {c['label']}: HUM residuals missing or not finite")
        return out.achieved_error

    def computed(self, i, out):
        c = self.cases[i % self.round]
        ctl = out.control
        return _computed(ctl.n_steps, ctl.dt, courant(c["spec"], c["grid"], ctl.dt),
                         hum_residual_max=max(out.hum_residuals),
                         control_mb=ctl.values.nbytes / MB)


# --- march ------------------------------------------------------------------

MARCH_T, MARCH_CELLS = 1.0, 1200
WITNESS_T, WITNESS_CELLS = 2.0, 1000
WITNESS_NU = (1, 2, 4, 8)


class March(Workload):
    """Forward solve with an internal control, adjoint solve, and one
    necessity witness per job."""

    round = len(WITNESS_NU)

    def __init__(self, rng, scratch):
        spec = case_c_spec()
        grid = Grid(0.0, 1.0, MARCH_CELLS)
        dt = hypctrl.pde.cfl_dt(spec, grid, 0.9, MARCH_T)
        n_steps = int(round(MARCH_T / dt))
        (a, b), = spec.omega.intervals
        s = (grid.centers - a) / (b - a)
        inside = (s > 0.0) & (s < 1.0)
        t = (np.arange(n_steps) + 0.5) * dt / MARCH_T
        vals = np.zeros((n_steps, spec.n, grid.n_cells))
        for k in range(spec.n):
            # separable smooth terms, each vanishing at the ends of omega
            for _ in range(2):
                amp, fx, ft, ph = rng.uniform(-1, 1), rng.integers(1, 4), rng.integers(0, 3), \
                    rng.uniform(0, 2 * np.pi)
                space = np.where(inside, np.sin(np.pi * s) ** 2 * np.cos(np.pi * fx * s), 0.0)
                vals[:, k, :] += amp * np.cos(2 * np.pi * ft * t + ph)[:, None] * space[None, :]
        self.spec, self.grid = spec, grid
        self.u = ControlField(vals, grid, dt, inside)
        self.y0 = StateField(fourier_state(rng, spec.n)(grid.centers), grid)
        self.z1 = StateField(fourier_state(rng, spec.n)(grid.centers), grid)
        self.nus = [int(v) for v in rng.permutation(WITNESS_NU)]
        self.wspec = _spec([-1.0, 1.0], [[0.0]], [[1.0]], [(0.0, 1.0)])
        self.wgrid = Grid(0.0, 1.0, WITNESS_CELLS)

    def job(self, i):
        fwd = hypctrl.pde.solve_forward(self.spec, self.y0, self.u, MARCH_T)
        adj = hypctrl.pde.solve_adjoint(self.spec, self.z1, MARCH_T)
        wit = hypctrl.obsv.necessity_witness(self.wspec, self.nus[i % self.round],
                                             WITNESS_T, self.wgrid)
        return fwd, adj, wit

    def check(self, i, out):
        fwd, adj, wit = out
        nu = self.nus[i % self.round]
        _require(abs(wit.ratio - (nu + 1)) <= 0.05 * (nu + 1),
                 f"witness ratio {wit.ratio:.4g} not within 5% of nu+1 = {nu + 1}")
        _require(wit.z_minus_max <= 1e-12, f"witness max|z_-| = {wit.z_minus_max:.3g}")
        _require(fwd.times.size == adj.times.size
                 and np.allclose(fwd.times, adj.times), "forward and adjoint grids differ")
        dx, dt = self.grid.dx, self.u.dt
        lhs = dx * (np.vdot(fwd.final.values, self.z1.values)
                    - np.vdot(self.y0.values, adj.final.values))
        forcing = dt * dx * np.einsum("tkx,tkx->", self.u.values, adj.trajectory[1:])
        defect = abs(lhs - forcing)

        def norm(a):
            # per time level, without a squared copy that would count in
            # the workload's peak memory
            return np.sqrt(dx * np.einsum("...kx,...kx->...", a, a))
        scale = (norm(fwd.final.values) * norm(self.z1.values)
                 + norm(self.y0.values) * norm(adj.final.values)
                 + dt * np.sum(norm(self.u.values) * norm(adj.trajectory[1:])))
        # the defect is first order in dx; 2e-3 of the scale is ten times
        # the largest relative defect seen at N = 1200
        _require(np.isfinite(defect) and defect <= 2e-3 * scale,
                 f"duality defect {defect:.3g} above 2e-3 x {scale:.3g}")
        return float(defect)

    def computed(self, i, out):
        fwd, adj, _ = out
        return _computed(fwd.times.size - 1, self.u.dt, courant(self.spec, self.grid, self.u.dt),
                         trajectory_mb=(fwd.trajectory.nbytes + adj.trajectory.nbytes) / MB,
                         control_mb=self.u.values.nbytes / MB)


# --- certify ----------------------------------------------------------------

CERTIFY_CELLS = 200
CERTIFY_HORIZONS = 9
CERTIFY_STRATA = 7     # the 21 cell boundaries in [0.20, 0.30], three per stratum
CERTIFY_CYCLES = 64


class Certify(Workload):
    """One ``sigma_min_sweep`` per job on omega = (a, a + 1/2), a a cell
    boundary in [0.20, 0.30].

    The sweep length follows tau = max(2a, 1 - 2a), so each cycle of seven
    jobs draws one a from each of seven strata of neighbouring boundaries:
    every run then sees the same spread of sweep lengths.
    """

    round = CERTIFY_STRATA

    def __init__(self, rng, scratch):
        self.grid = Grid(0.0, 1.0, CERTIFY_CELLS)
        lo = round(0.20 * CERTIFY_CELLS)
        per = (round(0.30 * CERTIFY_CELLS) + 1 - lo) // CERTIFY_STRATA
        self.cases = {}
        for k in range(lo, lo + per * CERTIFY_STRATA):
            a = k / CERTIFY_CELLS
            spec = _spec([-1.0, 1.0], [[1.0]], [[1.0]], [(a, a + 0.5)])
            tau = max(2.0 * a, 1.0 - 2.0 * a)  # both crossings at unit speed
            self.cases[k] = (spec, tau, tau + np.linspace(-0.2, 0.2, CERTIFY_HORIZONS))
        draws = rng.integers(0, per, size=(CERTIFY_CYCLES, CERTIFY_STRATA))
        self.order = [lo + per * s + int(d) for row in draws for s, d in enumerate(row)]

    def _case(self, i):
        return self.cases[self.order[i % len(self.order)]]

    def job(self, i):
        spec, _, t_list = self._case(i)
        return hypctrl.obsv.sigma_min_sweep(spec, t_list, spec.omega, self.grid)

    def check(self, i, out):
        _, tau, _ = self._case(i)
        found = hypctrl.obsv.detect_threshold(out)
        _require(found is not None, "sweep shows no threshold")
        err = abs(found - tau)
        _require(err <= out.dt * (1.0 + 1e-9), f"threshold {found} off tau = {tau} by {err:.3g}")
        return err

    def computed(self, i, out):
        spec, _, _ = self._case(i)
        steps = int(round(out.snapped_times[-1] / out.dt))
        return _computed(steps, out.dt, courant(spec, self.grid, out.dt))


# --- formulas ---------------------------------------------------------------

# 36 periods of the 36-config size, breakpoint, omega and rank pattern; the
# tail (p99) is set by the slowest configs, and with 432 of them it moved by
# about 8% from seed to seed
FORMULA_CONFIGS = 1296
RANK_DEFICIENT_EVERY = 4  # one config in four has a rank-deficient Q0


def _rank_deficient(idx: int) -> bool:
    return idx % RANK_DEFICIENT_EVERY == RANK_DEFICIENT_EVERY - 1


def _coupling(rng, rows, cols, deficient):
    # a dominant diagonal keeps the canonical-form pivots away from zero, so
    # the printed L Q U reproduces the canonical form to 1e-10
    q = rng.uniform(-0.3, 0.3, size=(rows, cols))
    d = min(rows, cols)
    q[np.arange(d), np.arange(d)] = rng.uniform(1.0, 2.0, d) * rng.choice([-1.0, 1.0], d)
    if deficient:
        q[-1] = rng.uniform(0.5, 1.5) * q[0] if rows > 1 else 0.0
    return q


def _formula_config(rng, idx: int) -> dict:
    n = (2, 4, 6)[idx % 3]
    m = n // 2
    nbreak = 2 + (idx // 3) % 4
    omega_count = 1 + (idx // 12) % 3
    deficient = _rank_deficient(idx)
    xs = [0.0] + sorted(rng.uniform(0.1, 0.9, nbreak - 2).round(6).tolist()) + [1.0]
    speeds = []
    for k in range(n):
        # bases 0.5 apart with +-0.2 jitter keep the order strict everywhere
        base = -(0.6 + 0.5 * (m - 1 - k)) if k < m else 0.6 + 0.5 * (k - m)
        v = base + rng.uniform(-0.2, 0.2, len(xs))
        speeds.append({"type": "piecewise_linear", "x": xs, "v": v.round(6).tolist()})
    while True:
        pts = np.sort(rng.uniform(0.05, 0.95, 2 * omega_count))
        if np.min(np.diff(pts)) > 0.05:
            break
    omega = [[float(pts[2 * j]), float(pts[2 * j + 1])] for j in range(omega_count)]
    return {"n": n, "m": m, "speeds": speeds,
            "M": rng.uniform(-0.5, 0.5, size=(n, n)).round(6).tolist(),
            "Q0": _coupling(rng, m, m, deficient).tolist(),
            "Q1": _coupling(rng, m, m, False).tolist(),
            "omega": omega, "grid": {"cells": 200}}


def _parse_matrix(lines, start, rows):
    return np.array([[float(v) for v in line.split()] for line in lines[start:start + rows]])


class Formulas(Workload):
    """``mintime``, ``omegahat --eps 0.1 tau`` and ``canon --which Q0`` run
    in-process through the CLI on one seeded JSON config per job."""

    tail_per_input = True

    def __init__(self, rng, scratch: Path):
        self.parser = hypctrl.cli.build_parser()
        self.cases = []
        for idx in range(FORMULA_CONFIGS):
            cfg = _formula_config(rng, idx)
            path = scratch / f"config{idx:03d}.json"
            text = json.dumps(cfg)
            t0 = perf_counter()
            path.write_text(text)
            self.write_s += perf_counter() - t0
            spec = hypctrl.cli.parse_config(path).spec
            self.cases.append((str(path), spec, np.asarray(cfg["Q0"]), cfg["omega"],
                               _rank_deficient(idx)))
        order = rng.permutation(FORMULA_CONFIGS)
        self.cases = [self.cases[j] for j in order]
        self.round = FORMULA_CONFIGS
        # (config, output) pairs that passed the full check; a later job
        # whose output is identical passes by comparison
        self.verified = set()

    def _cli(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stderr(io.StringIO()):
            code = hypctrl.cli.run(self.parser.parse_args(argv), out=out)
        return code, out.getvalue()

    def job(self, i):
        path = self.cases[i % self.round][0]
        mintime = self._cli(["mintime", "--config", path])
        tau = float(mintime[1].split("\n", 1)[0].split("=")[1])
        eps = 0.1 * tau if math.isfinite(tau) else 0.1
        omegahat = self._cli(["omegahat", "--config", path, "--eps", repr(eps)])
        canon = self._cli(["canon", "--config", path, "--which", "Q0"])
        return tau, eps, mintime, omegahat, canon

    def check(self, i, out):
        key = (i % self.round, out)
        if key in self.verified:
            return None
        _, spec, q0, omega, deficient = self.cases[i % self.round]
        tau, eps, mintime, omegahat, canon = out
        want = 3 if deficient else 0
        _require(mintime[0] == want and omegahat[0] == want and canon[0] == 0,
                 f"exit codes {mintime[0]}, {omegahat[0]}, {canon[0]}; expected "
                 f"{want}, {want}, 0")
        if not deficient:
            lines = omegahat[1].splitlines()
            pieces = [tuple(float(v) for v in line.split(",")) for line in lines[3:]]
            _require(len(pieces) > 0, "omegahat printed no intervals")
            for a, b in pieces:
                _require(any(pa < a and b < pb for pa, pb in omega),
                         f"interval ({a}, {b}) not compactly inside omega")
            edges = [0.0] + [v for piece in pieces for v in piece] + [1.0]
            gaps = [(lo, hi) for lo, hi in zip(edges[::2], edges[1::2]) if hi > lo]
            worst = max(hypctrl.times.boundary_control_time(spec, gap).value for gap in gaps)
            _require(worst <= tau + eps + 1e-12,
                     f"refined region costs {worst} > tau + eps = {tau + eps}")
        lines = canon[1].splitlines()
        rows, cols = q0.shape
        qc = _parse_matrix(lines, 1, rows)
        lower = _parse_matrix(lines, rows + 4, rows)
        upper = _parse_matrix(lines, 2 * rows + 5, cols)
        _require(np.max(np.abs(lower @ q0 @ upper - qc)) <= 1e-10, "L Q U != canonical form")
        self.verified.add(key)
        return None

    def computed(self, i, out):
        _, spec, _, _, _ = self.cases[i % self.round]
        return {"n": spec.n, "breakpoints": int(spec.speeds.table.shape[1]),
                "omega_intervals": len(spec.omega.intervals)}


WORKLOADS = {"synth": Synth, "march": March, "certify": Certify, "formulas": Formulas}
