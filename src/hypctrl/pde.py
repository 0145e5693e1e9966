"""Discretized solvers for the balance-law system and its relatives.

Everything runs on a uniform cell grid with a first-order explicit upwind
scheme: components with positive speed difference to the left, components
with negative speed to the right, and the zero-order term and control enter
explicitly per step.  A march steps between two ghost-padded states and
allocates nothing per step: the inflow ghosts are written in place, either
from the boundary couplings applied to the upwind-side cell value of the
outgoing components (first-order consistent trace) or from prescribed
control series, and one difference of neighbouring cells and one product
with a Courant table then step both sign families.

Four solvers are thin wrappers around one stepping loop, ``_march``:

* ``solve_forward``            -- the controlled system on (0, 1);
* ``solve_backward``           -- the time-reversed uncontrolled system
                                  (couplings invert), marched via s = T - t;
* ``solve_boundary_forward``   -- the system restricted to a subinterval with
                                  Dirichlet control data on the control ends;
* ``solve_adjoint``            -- the adjoint system, whose reflections at
                                  the ends are the transposed matrices
                                  R0 = -Lambda_+(0) Q0 Lambda_-(0)^-1 and
                                  R1 = -Lambda_-(1) Q1 Lambda_+(1)^-1.

It also drives the sweeps and witness of ``obsv`` and the batched HUM march
of ``synth``, and keeps the current state only or the whole trajectory too
(forward-time order, even backward; refused above ``TRAJECTORY_BYTES_LIMIT``).

This module decides every horizon: each entry point that takes one, here and
in ``obsv`` and ``synth``, first checks it (finite and nonnegative, or
positive, else ``ConfigError``) and grids it with ``_resolve_steps``, the
one (dt, n_steps) rule, which checks with ``_check_horizon``.

With constant speeds of equal magnitude and unit Courant number the scheme
transports exactly, reflections included; ``characteristics_oracle`` provides
the matching exact solution for constant speeds and zero source by tracing
characteristics backwards through the boundary couplings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import ConfigError, Interval, PositionTag, RankError, SpeedProfile, SystemSpec

NAN_CHECK_EVERY = 64
TRAJECTORY_BYTES_LIMIT = 1 << 30


@dataclass(frozen=True)
class Grid:
    """Uniform cell grid on (lo, hi); states live at cell centers."""

    lo: float
    hi: float
    n_cells: int

    def __post_init__(self):
        if self.n_cells < 8:
            raise ValueError("grid needs at least 8 cells")
        if not self.hi > self.lo:
            raise ValueError("empty grid interval")

    @property
    def dx(self) -> float:
        return (self.hi - self.lo) / self.n_cells

    @cached_property
    def centers(self) -> np.ndarray:
        out = self.lo + (np.arange(self.n_cells) + 0.5) * self.dx
        out.flags.writeable = False
        return out


@dataclass(frozen=True)
class StateField:
    """State samples on a grid at one instant; values has shape (n, N)."""

    values: np.ndarray
    grid: Grid

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[1] != self.grid.n_cells:
            raise ValueError("state values must have shape (n, n_cells)")
        if not np.isfinite(v).all():
            raise ValueError("state values must be finite")
        object.__setattr__(self, "values", v)


def sample_state(fn, grid: Grid, n: int) -> StateField:
    """Sample a vectorized state function fn(x) -> (n, len(x)) on a grid."""
    vals = np.asarray(fn(grid.centers), dtype=float)
    if vals.shape != (n, grid.n_cells):
        raise ValueError(f"state function returned shape {vals.shape}, "
                         f"expected {(n, grid.n_cells)}")
    return StateField(vals.copy(), grid)


def state_function(*components):
    """Build a vectorized state function from per-component callables or
    constants, e.g. ``state_function(lambda x: np.sin(np.pi * x), 0.0)``."""
    def fn(x):
        x = np.asarray(x, dtype=float)
        rows = []
        for comp in components:
            if callable(comp):
                rows.append(np.broadcast_to(np.asarray(comp(x), dtype=float), x.shape))
            else:
                rows.append(np.full_like(x, float(comp)))
        return np.stack(rows)
    return fn


@dataclass(frozen=True)
class ControlField:
    """Time-indexed internal control; values has shape (n_steps, n, N).

    Entries outside the support mask are forced to exact zeros.
    """

    values: np.ndarray
    grid: Grid
    dt: float
    mask: np.ndarray

    def __post_init__(self):
        self._own(np.array(self.values, dtype=float))

    @classmethod
    def _adopt(cls, values: np.ndarray, grid: Grid, dt: float, mask) -> "ControlField":
        """Take over a float array the library built: zeroed in place, not copied."""
        field = object.__new__(cls)
        field.__dict__.update(grid=grid, dt=dt, mask=mask)
        field._own(values)
        return field

    def _own(self, v: np.ndarray):
        m = np.asarray(self.mask, dtype=bool)
        if v.ndim != 3 or v.shape[2] != self.grid.n_cells or m.shape != (self.grid.n_cells,):
            raise ValueError("control values must have shape (n_steps, n, n_cells)")
        if not np.isfinite(v).all():
            raise ValueError("control values must be finite")
        np.copyto(v, 0.0, where=~m)
        v.flags.writeable = False
        m.flags.writeable = False
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "mask", m)

    @property
    def n_steps(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class EvolutionResult:
    final: StateField
    trajectory: np.ndarray | None
    times: np.ndarray


def _check_horizon(T: float, positive: bool = False):
    if not (math.isfinite(T) and (T > 0.0 if positive else T >= 0.0)):
        sign = "positive" if positive else "nonnegative"
        raise ConfigError(f"horizon must be finite and {sign}, got {T}")


def cfl_dt(spec: SystemSpec, grid: Grid, cfl_factor: float, horizon: float) -> float:
    """Stable time step: cfl_factor * dx / max|lambda|, then shrunk so the
    horizon is an integer number of steps."""
    if not 0.0 < cfl_factor <= 1.0:
        raise ValueError("cfl factor must lie in (0, 1]")
    _check_horizon(horizon)
    dt0 = cfl_factor * grid.dx / spec.speeds.max_abs_speed()
    if horizon == 0.0:
        return dt0
    n_steps = max(1, math.ceil(horizon / dt0 - 1e-12))
    return horizon / n_steps


def _speeds_at(spec: SystemSpec, grid: Grid) -> np.ndarray:
    return np.stack([np.asarray(spec.speeds.value(k, grid.centers))
                     for k in range(spec.n)])


def _slopes_at(spec: SystemSpec, grid: Grid) -> np.ndarray:
    return np.stack([np.asarray(spec.speeds.slope(k, grid.centers))
                     for k in range(spec.n)])


class _Padded:
    """A marching state as an (n, N+2, B) buffer with the cells in columns
    1..N and pad cells at both ends, and the views of it a step uses.  The
    two states of a march share the difference and gain scratch."""

    def __init__(self, shape, pos: slice, neg: slice, diff, gain):
        buf = np.zeros((shape[0], shape[1] + 2, shape[2]))
        self.inner = buf[:, 1:-1]
        self.inner_pos, self.inner_neg = self.inner[pos], self.inner[neg]
        self.upper, self.lower = buf[:, 1:], buf[:, :-1]
        # inflow ghosts are written before each step that reads the state;
        # the pad cells past the outflow ends are never written and stay 0
        self.ghost_lo, self.out_lo = buf[pos, 0], buf[neg, 1]
        self.ghost_hi, self.out_hi = buf[neg, -1], buf[pos, -2]
        # slot k of diff is cell k minus cell k-1 (a pad cell at either end):
        # the positive family reads slots 0..N-1, the negative family 1..N
        self.diff, self.diff_pos, self.diff_neg = diff, diff[pos, :-1], diff[neg, 1:]
        self.gain = gain


class _Marcher:
    """One explicit upwind step of  dw/ds + sigma(x) dw/dx = S(x) w + f,
    from one ``_Padded`` state to the other.

    Boundary conditions are callables ``bc(j, outflow, out)`` writing the
    inflow ghosts (n_in, B) of step j into ``out`` from the outgoing trace
    (n_out, B): positive-sigma components flow in at the left end, negative
    ones at the right.  Each sign family is one contiguous block (a
    ``SystemSpec`` orders its speeds by sign, and negation keeps the
    blocks), so views are basic slices.  One difference of neighbouring
    cells serves both families, scaled by a Courant table holding the
    positive family's numbers in slots 0..N-1 and the negative family's in
    1..N: the positive family steps as w - c (w - upwind), the negative
    family as w - c (downwind - w).
    """

    def __init__(self, sigma: np.ndarray, dt: float, dx: float,
                 bc_lo, bc_hi, source: np.ndarray | None = None):
        n, nx = sigma.shape
        pos = sigma[:, 0] > 0
        split = int(np.argmin(pos == pos[0])) or n
        first, rest = slice(0, split), slice(split, n)
        self.pos, self.neg = (first, rest) if pos[0] else (rest, first)
        cour = sigma * (dt / dx)
        if np.max(np.abs(cour)) > 1.0 + 1e-12:
            raise ValueError(f"CFL violated: max Courant number {np.max(np.abs(cour)):.3f}")
        self.courant = np.zeros((n, nx + 1, 1))
        self.courant[self.pos, :-1, 0] = cour[self.pos]
        self.courant[self.neg, 1:, 0] = cour[self.neg]
        self.bc_lo, self.bc_hi, self.dt = bc_lo, bc_hi, dt
        # source enters as  w += dt * S w  with S sampled per cell, kept as
        # S[i, j, x] so the cell axis runs alongside the state's
        self.source = (None if source is None or not np.any(source)
                       else np.transpose(source, (1, 2, 0)).copy())

    def states(self, w: np.ndarray, forcing: bool) -> tuple[_Padded, _Padded]:
        """The two padded states of a march of the (n, N, B) batch ``w``,
        the first holding ``w``; ``forcing`` says whether steps get one."""
        n, nx, batch = w.shape
        diff = np.empty((n, nx + 1, batch))
        gain = np.empty(w.shape) if forcing or self.source is not None else None
        cur, nxt = (_Padded(w.shape, self.pos, self.neg, diff, gain) for _ in range(2))
        cur.inner[...] = w
        return cur, nxt

    def step(self, src: _Padded, dst: _Padded, j: int,
             forcing: np.ndarray | None = None):
        """Write the state after step j from ``src`` into ``dst``."""
        self.bc_lo(j, src.out_lo, src.ghost_lo)
        self.bc_hi(j, src.out_hi, src.ghost_hi)
        np.subtract(src.upper, src.lower, out=src.diff)
        np.multiply(src.diff, self.courant, out=src.diff)
        np.subtract(src.inner_pos, src.diff_pos, out=dst.inner_pos)
        np.subtract(src.inner_neg, src.diff_neg, out=dst.inner_neg)
        if self.source is not None:
            np.einsum("ijx,jxb->ixb", self.source, src.inner, out=src.gain)
            np.multiply(src.gain, self.dt, out=src.gain)
            np.add(dst.inner, src.gain, out=dst.inner)
        if forcing is not None:
            np.multiply(forcing, self.dt, out=src.gain)
            np.add(dst.inner, src.gain, out=dst.inner)


def _coupling_bc(matrix: np.ndarray):
    mat = np.asarray(matrix, dtype=float)
    if mat.shape == (1, 1):
        # the same single product per entry as ``mat @ outflow``, without
        # matmul's dispatch cost
        return lambda j, outflow, out: np.multiply(mat, outflow, out=out)
    return lambda j, outflow, out: np.matmul(mat, outflow, out=out)


def _dirichlet_bc(series: np.ndarray):
    """Ghost values from an (n_steps, n_in) or (n_steps, n_in, B) series."""
    ser = np.asarray(series, dtype=float)
    ser = ser[:, :, None] if ser.ndim == 2 else ser
    return lambda j, outflow, out: np.copyto(out, ser[j])


def _check_bytes(what: str, size: int):
    """Refuse, before allocating it, memory above ``TRAJECTORY_BYTES_LIMIT``."""
    if size > TRAJECTORY_BYTES_LIMIT:
        raise ValueError(f"{what} needs {size} bytes, "
                         f"above the limit of {TRAJECTORY_BYTES_LIMIT}")


def _march(marcher: _Marcher, w0: np.ndarray, n_steps: int, keep: str = "final",
           forcing: np.ndarray | None = None, visit=None, reverse: bool = False):
    """March an (n, N) state or (n, N, B) batch; return (final batch,
    trajectory).  ``forcing[j]`` (n, N) enters step j and ``visit(j, w)``
    sees the state before step j.  ``keep="trajectory"`` also stores column
    0 of every state as (n_steps+1, n, N), last state first if ``reverse``;
    ``keep="final"`` stores nothing and returns None for it.
    Steps swap the two states of ``marcher.states`` and allocate nothing;
    ``visit`` and the result see a padded buffer's (n, N, B) interior.
    """
    w = w0[:, :, None] if w0.ndim == 2 else w0
    traj = None
    if keep == "trajectory":
        _check_bytes(f"trajectory of {n_steps + 1} states",
                     (n_steps + 1) * w.shape[0] * w.shape[1] * 8)
        traj = np.empty((n_steps + 1,) + w.shape[:2])
        traj[n_steps if reverse else 0] = w[:, :, 0]
    cur, nxt = marcher.states(w, forcing is not None)
    for j in range(n_steps):
        if visit is not None:
            visit(j, cur.inner)
        marcher.step(cur, nxt, j, None if forcing is None else forcing[j][:, :, None])
        cur, nxt = nxt, cur
        if (j % NAN_CHECK_EVERY == 0 or j + 1 == n_steps) and not np.isfinite(cur.inner).all():
            raise RuntimeError(f"solution lost finiteness at step {j + 1}")
        if traj is not None:
            traj[n_steps - 1 - j if reverse else j + 1] = cur.inner[:, :, 0]
    return cur.inner, traj


def _evolve(marcher: _Marcher, state: StateField, n_steps: int, dt: float,
            keep: str = "trajectory", forcing=None, reverse: bool = False) -> EvolutionResult:
    w, traj = _march(marcher, state.values, n_steps, keep, forcing, reverse=reverse)
    final = StateField(w[:, :, 0].copy(), state.grid)
    return EvolutionResult(final, traj, np.arange(n_steps + 1) * dt)


def _resolve_steps(spec, grid, T, cfl, control: ControlField | None = None,
                   positive: bool = False):
    """The one (dt, n_steps) rule of a march over [0, T], after checking T:
    the control's own step when one is given, else ``cfl_dt`` and the whole
    steps of T."""
    _check_horizon(T, positive)
    if control is not None:
        if control.grid != grid:
            raise ValueError("control grid does not match the state grid")
        dt, n_steps = control.dt, control.n_steps
        if abs(n_steps * dt - T) > 1e-9 * max(1.0, T):
            raise ConfigError(f"control series spans {n_steps} steps of {dt:.6g} = "
                              f"{n_steps * dt:.6g}, not the horizon {T:.6g}")
        return dt, n_steps
    dt = cfl_dt(spec, grid, cfl, T)
    return dt, int(round(T / dt))


def solve_forward(spec: SystemSpec, y0: StateField, u: ControlField | None,
                  T: float, cfl: float = 0.9) -> EvolutionResult:
    """March the controlled system from y0 to time T.

    Ghost values: y_+ at x=0 from Q0 applied to the y_- trace, y_- at x=1
    from Q1 applied to the y_+ trace.  The control, when given, fixes the
    time step (its own dt) and is applied explicitly per step.
    """
    return _forward(spec, y0, u, T, cfl, keep="trajectory")


def _forward(spec: SystemSpec, y0: StateField, u: ControlField | None,
             T: float, cfl: float, keep: str) -> EvolutionResult:
    """``solve_forward``, storing the trajectory or only the final state."""
    grid = y0.grid
    dt, n_steps = _resolve_steps(spec, grid, T, cfl, u)
    marcher = _Marcher(_speeds_at(spec, grid), dt, grid.dx,
                       bc_lo=_coupling_bc(spec.couplings.q0),
                       bc_hi=_coupling_bc(spec.couplings.q1),
                       source=spec.source.at_points(grid.centers))
    return _evolve(marcher, y0, n_steps, dt, keep,
                   forcing=None if u is None else u.values)


def solve_backward(spec: SystemSpec, y1: StateField, T: float,
                   cfl: float = 0.9) -> EvolutionResult:
    """March the time-reversed uncontrolled system from y(T) = y1 down to 0.

    Under s = T - t the speeds negate, the source flips sign, and the
    couplings invert: the inverse of Q1 feeds the positive components at
    x=1 and the inverse of Q0 the negative ones at x=0.  The returned
    trajectory is indexed by forward time (trajectory[-1] equals y1).
    """
    grid = y1.grid
    dt, n_steps = _resolve_steps(spec, grid, T, cfl)
    if not spec.couplings.invertible:
        raise RankError("singular coupling matrix: Q0 and Q1 must be invertible")
    marcher = _Marcher(-_speeds_at(spec, grid), dt, grid.dx,
                       bc_lo=_coupling_bc(np.linalg.inv(spec.couplings.q0)),
                       bc_hi=_coupling_bc(np.linalg.inv(spec.couplings.q1)),
                       source=-spec.source.at_points(grid.centers))
    return _evolve(marcher, y1, n_steps, dt, reverse=True)


@dataclass(frozen=True)
class BoundaryControls:
    """Dirichlet control series for a subinterval solve.

    ``left`` feeds the positive components at the left end (shape
    (n_steps, p)), ``right`` the negative components at the right end
    (shape (n_steps, m)).  Which of the two is required depends on the
    position of the interval.
    """

    left: np.ndarray | None = None
    right: np.ndarray | None = None


def _subinterval_bcs(spec: SystemSpec, tag: PositionTag,
                     controls: BoundaryControls, n_steps: int,
                     batch: int | None = None):
    """(bc_lo, bc_hi) on a complement component of the refined region: the
    couplings at the ends of (0, 1), the Dirichlet series of ``controls`` at
    the control ends, shaped (n_steps, p) on the left and (n_steps, m) on
    the right, plus a trailing axis of ``batch`` columns when given."""
    if tag is PositionTag.FULL:
        raise ValueError("use solve_forward for the full domain")
    tail = () if batch is None else (batch,)

    def dirichlet(series, length, name):
        if series is None:
            raise ValueError(f"missing {name} control series")
        ser = np.asarray(series, dtype=float)
        want = (n_steps, length) + tail
        if ser.shape != want:
            raise ValueError(f"{name} control series must have shape "
                             f"{want}, got {ser.shape}")
        return _dirichlet_bc(ser)

    bc_lo = (_coupling_bc(spec.couplings.q0) if tag is PositionTag.TOUCHES_LEFT
             else dirichlet(controls.left, spec.p, "left-end"))
    bc_hi = (_coupling_bc(spec.couplings.q1) if tag is PositionTag.TOUCHES_RIGHT
             else dirichlet(controls.right, spec.m, "right-end"))
    return bc_lo, bc_hi


def solve_boundary_forward(spec: SystemSpec, interval: Interval, y0: StateField,
                           controls: BoundaryControls, T: float,
                           cfl: float = 0.9) -> EvolutionResult:
    """March the system restricted to a component of the complement of the
    refined control region, with Dirichlet data on its control ends.

    Interval touching the left boundary: coupling Q0 stays at x=0 and the
    control drives the negative components at the right end; touching the
    right boundary: mirrored; interior: controls on both ends.
    """
    grid = y0.grid
    dt, n_steps = _resolve_steps(spec, grid, T, cfl)
    bc_lo, bc_hi = _subinterval_bcs(spec, interval.tag, controls, n_steps)
    marcher = _Marcher(_speeds_at(spec, grid), dt, grid.dx, bc_lo, bc_hi,
                       spec.source.at_points(grid.centers))
    return _evolve(marcher, y0, n_steps, dt)


def adjoint_reflection(speeds: SpeedProfile, q, end: float) -> np.ndarray:
    """Reflection matrix of the adjoint system at one end:
    R0 = -Lambda_+(0) Q0 Lambda_-(0)^-1 for end 0 and
    R1 = -Lambda_-(1) Q1 Lambda_+(1)^-1 for end 1."""
    m = speeds.m
    lam = np.array([speeds.value(k, end) for k in range(speeds.n)])
    inflow, outflow = (lam[m:], lam[:m]) if end == 0.0 else (lam[:m], lam[m:])
    return -np.diag(inflow) @ q @ np.diag(1.0 / outflow)


def _adjoint_marcher(spec: SystemSpec, grid: Grid, dt: float) -> _Marcher:
    msrc = spec.source.at_points(grid.centers)
    slopes = _slopes_at(spec, grid)
    # under s = T - t the adjoint equation becomes
    #   dw/ds - Lambda dw/dx = (Lambda' + M^T) w
    src = np.transpose(msrc, (0, 2, 1)).copy()
    idx = np.arange(spec.n)
    src[:, idx, idx] += slopes.T
    r0 = adjoint_reflection(spec.speeds, spec.couplings.q0, 0.0)
    r1 = adjoint_reflection(spec.speeds, spec.couplings.q1, 1.0)
    return _Marcher(-_speeds_at(spec, grid), dt, grid.dx,
                    bc_lo=_coupling_bc(r0.T), bc_hi=_coupling_bc(r1.T),
                    source=src)


def solve_adjoint(spec: SystemSpec, z1: StateField, T: float,
                  cfl: float = 0.9) -> EvolutionResult:
    """March the adjoint system backward from z(T) = z1.

    The adjoint of the controlled system is
        dz/dt + Lambda dz/dx = -(Lambda' + M^T) z
    with boundary reflections z_-(t,0) = R0^T z_+(t,0) and
    z_+(t,1) = R1^T z_-(t,1); when M = -Lambda' the right-hand side
    vanishes.  The trajectory is indexed by forward time (trajectory[-1]
    equals z1).
    """
    grid = z1.grid
    dt, n_steps = _resolve_steps(spec, grid, T, cfl)
    marcher = _adjoint_marcher(spec, grid, dt)
    return _evolve(marcher, z1, n_steps, dt, reverse=True)


def characteristics_oracle(spec: SystemSpec, y0, T: float, query_x,
                           max_depth: int = 10_000) -> np.ndarray:
    """Exact solution at time T for constant speeds and zero source.

    Each component is traced backward along its characteristic; whenever the
    trace crosses a boundary the coupling matrix mixes in the outgoing
    components at the crossing time, recursively until time 0.  ``y0`` is a
    callable x -> sequence of n initial values.  Returns (n, len(query_x)).
    """
    if spec.speeds.kind != "constant":
        raise ValueError("the oracle needs constant speeds")
    if not spec.source.is_zero():
        raise ValueError("the oracle needs a zero source term")
    lam = spec.speeds.table[:, 0]
    m, n = spec.m, spec.n
    q0 = np.asarray(spec.couplings.q0, dtype=float)
    q1 = np.asarray(spec.couplings.q1, dtype=float)

    def comp(k: int, t: float, x: float, depth: int) -> float:
        if depth > max_depth:
            raise RuntimeError("characteristic recursion exceeded the depth bound")
        foot = x - lam[k] * t
        if 0.0 <= foot <= 1.0:
            return float(np.asarray(y0(foot), dtype=float)[k])
        if lam[k] > 0:
            t_hit = t - x / lam[k]
            outgoing = np.array([comp(i, t_hit, 0.0, depth + 1) for i in range(m)])
            return float((q0 @ outgoing)[k - m])
        t_hit = t - (1.0 - x) / (-lam[k])
        outgoing = np.array([comp(j, t_hit, 1.0, depth + 1) for j in range(m, n)])
        return float((q1 @ outgoing)[k])

    xs = np.atleast_1d(np.asarray(query_x, dtype=float))
    out = np.empty((n, xs.size))
    for k in range(n):
        for i, x in enumerate(xs):
            out[k, i] = comp(k, float(T), float(x), 0)
    return out
