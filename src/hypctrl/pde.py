"""Discretized solvers for the balance-law system and its relatives.

Everything runs on a uniform cell grid with a first-order explicit upwind
scheme: components with positive speed difference to the left, components
with negative speed to the right, and the zero-order term and control enter
explicitly per step.  A march steps between two ghost-padded (n, N+2, B)
states and allocates nothing per step.  The inflow ghosts are written in
place, either from the boundary couplings applied to the upwind-side cell
value of the outgoing components (first-order consistent trace) or from
prescribed control series, or keep their zeros where no writer is bound
(zero boundary data); every whole-state operation then runs on one
contiguous slice of a buffer's flat view: one difference of flat
neighbours, one product with a Courant table laid out over those slots, one
subtraction per sign family, and for a source one contraction over the
whole padded buffer.  ``_Marcher.bind`` makes a march's two buffers and
binds the views, the boundary writers and the shared difference, Courant
table and gain once into its two step closures.  Every march is built the
one way, ``_Marcher(*segments)``, from segments made by ``_segment`` (cells,
Courant row, dt, source and boundary writers): one padded row holds them
side by side, two pad cells apart, and the same calls step them all at once
on their one dt (a one-segment row is the plain march).  A march of more than
``MARCH_WORK_LIMIT`` state values times steps is refused before anything is
allocated.

Four solvers are thin wrappers around one stepping loop, ``_march``:

* ``solve_forward``            -- the controlled system on (0, 1);
* ``solve_backward``           -- the time-reversed uncontrolled system
                                  (couplings invert), marched via s = T - t
                                  and mirrored in space, x -> 1 - x, which
                                  makes it a forward-oriented segment;
* ``solve_boundary_forward``   -- the system restricted to a subinterval with
                                  Dirichlet control data on the control ends;
* ``solve_adjoint``            -- the adjoint system, whose reflections at
                                  the ends are the transposed matrices
                                  R0 = -Lambda_+(0) Q0 Lambda_-(0)^-1 and
                                  R1 = -Lambda_-(1) Q1 Lambda_+(1)^-1.

It also drives the sweeps and witness of ``obsv`` and the two rows of
``synth``: the HUM row, which marches every complement component of a
synthesis as one row of segments, and the glue row of the free forward and
the mirrored backward solution.  A march returns its final batch; its other
states leave it with no Python callback per step: each step copies the row's
state once into one store, either a caller's buffer of every state (a
solver's trajectory, which ``_evolve`` alone allocates, in forward-time order
and on the grid's cells even when marched backward and mirrored, and refuses
above ``TRAJECTORY_BYTES_LIMIT``) or a record of the chunk (the HUM row, the
glue row), handed over once per chunk of ``NAN_CHECK_EVERY`` steps after a
finiteness check.

This module decides every horizon: each entry point that takes one, here and
in ``obsv`` and ``synth``, first checks it (finite and nonnegative, or
positive, else ``ConfigError``) and grids it with ``_resolve_steps``, the
one (dt, n_steps) rule, which checks with ``_check_horizon``.  A job
resolves its one grid once, before its guard, and that one resolution sizes
the guard and drives every march (a synthesis's HUM row, whose complement
components are runs of the job's cells with the job's dt, its glue row and
its re-simulation; a Gramian sweep's recurrence).

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

from .model import ConfigError, RankError, SpeedProfile, SystemSpec

NAN_CHECK_EVERY = 64
TRAJECTORY_BYTES_LIMIT = 1 << 30
# state values times steps: 10-80 s of stepping at the 1-8 ns per value and
# step measured, and over 400 times the largest march of the tests, demos
# and benchmark workloads
MARCH_WORK_LIMIT = 10 ** 10


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
        """Take over a float array the library built: zeroed in place, not
        copied.  The constructor copies only the empty series values[:0]."""
        field = cls(values[:0], grid, dt, mask)
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
    horizon is an integer number of steps.  A horizon that is not a finite
    number of steps (a step so small that horizon / step overflows) raises
    ``ValueError`` before anything is allocated."""
    if not 0.0 < cfl_factor <= 1.0:
        raise ValueError("cfl factor must lie in (0, 1]")
    _check_horizon(horizon)
    dt0 = cfl_factor * grid.dx / spec.speeds.max_abs_speed()
    if horizon == 0.0:
        return dt0
    steps = horizon / dt0 if dt0 > 0.0 else math.inf
    if not math.isfinite(steps):
        raise ValueError(f"horizon {horizon:g} in steps of {dt0:g} is not a finite "
                         f"number of steps")
    n_steps = max(1, math.ceil(steps - 1e-12))
    return horizon / n_steps


def _speeds_at(spec: SystemSpec, grid: Grid) -> np.ndarray:
    return np.stack([np.asarray(spec.speeds.value(k, grid.centers))
                     for k in range(spec.n)])


def _slopes_at(spec: SystemSpec, grid: Grid) -> np.ndarray:
    return np.stack([np.asarray(spec.speeds.slope(k, grid.centers))
                     for k in range(spec.n)])


def _run(rows: slice, nx: int, batch: int) -> tuple[int, int]:
    """The flat range from the first cell of padded rows ``rows`` to their
    last, the pad cells between consecutive rows included (empty for the
    rows slice(n, n))."""
    return (rows.start * (nx + 2) + 1) * batch, (rows.stop * (nx + 2) - 1) * batch


def _segment(sigma: np.ndarray, dt: float, dx: float, bc_lo, bc_hi,
             source: np.ndarray | None = None) -> tuple:
    """A march's segment (courant, dt, bc_lo, bc_hi, source) for  dw/ds +
    sigma(x) dw/dx = S(x) w  on cells of width ``dx``: the Courant row sigma
    dt/dx, checked, and the (N, n, n) ``source``, None if all zero."""
    courant = sigma * (dt / dx)
    if np.max(np.abs(courant)) > 1.0 + 1e-12:
        raise ValueError(f"CFL violated: max Courant number "
                         f"{np.max(np.abs(courant)):.3f}")
    return courant, dt, bc_lo, bc_hi, source if source is not None and np.any(source) else None


class _Marcher:
    """One explicit upwind step of  dw/ds + sigma(x) dw/dx = S(x) w + f,
    from one padded buffer of a march to the other, on flat views of the
    buffers, for the segments of ``_segment`` laid side by side, left to
    right, in one padded row: each has its own cells, Courant row, source
    and boundary writers, the segments share one dt (else ``ValueError``)
    and their sign families, and two pad cells separate neighbours (a HUM
    row's segments are runs of the job's cells, with the job's dt).
    ``_Marcher(*segments)`` is the one constructor (a one-segment row is the
    plain march); the row's interior, ``width`` cells wide, holds each
    segment's cells at its columns ``cols[i]`` (offset by the earlier
    segments' cells plus two each), with zeros between them.  ``bind`` makes
    a march's two buffers and its two steps.

    Boundary conditions bind as ``bc(outflow, out)`` to a segment's outgoing
    trace (n_out, B) and inflow ghosts (n_in, B) and return the writer
    ``write(j)`` of step j: positive-sigma components flow in at the left
    end, negative ones at the right.  None binds no writer, and those
    ghosts keep their zeros (zero boundary data).  Each sign family is one
    contiguous block of rows (a ``SystemSpec`` orders its speeds by sign,
    and negation keeps the blocks).  Slot i of the flat difference is flat
    cell i + B minus flat cell i, so slot (k, x) is cell x+1 minus cell x
    of row k; a Courant table laid out over the slots holds the positive
    family's numbers in each segment's slots x = 0..N-1 and the negative
    family's in 1..N, and 0 wherever no cell reads (the pad slots and the
    slot that straddles two rows).  Then one subtraction per family covers
    its whole run of rows: the positive family steps as w - c (w - upwind),
    reading the slots B earlier, the negative family as w - c (downwind -
    w).  The pad cells among the runs take values that only zero slots
    read, plus 0 times a difference; the inflow ghosts among them are
    rewritten before every step, or stay zero where no writer is bound.
    """

    def __init__(self, *segments):
        n = segments[0][0].shape[0]
        pos = segments[0][0][:, 0] > 0
        split = int(np.argmin(pos == pos[0])) or n
        first, rest = slice(0, split), slice(split, n)
        self.pos, self.neg = (first, rest) if pos[0] else (rest, first)
        self.segments = segments
        # each segment's cells among the row's interior columns, and the
        # columns of the padded row
        ends = np.cumsum([courant.shape[1] + 2 for courant, *_ in segments]).tolist()
        self.cols = tuple(slice(end - courant.shape[1] - 2, end - 2)
                          for end, (courant, *_) in zip(ends, segments))
        self.width = ends[-1] - 2
        self.dt = segments[0][1]
        if any(dt != self.dt for _, dt, *_ in segments):
            raise ValueError("the segments of a row must share one dt")
        # a source enters as  w += dt * S w  with S sampled per cell, kept as
        # S[i, j, x] over the padded columns, zero in the pad columns
        self.source = None
        if any(source is not None for *_, source in segments):
            self.source = np.concatenate(
                [np.zeros((n, n, courant.shape[1] + 2)) if source is None
                 else np.pad(np.transpose(source, (1, 2, 0)), ((0, 0), (0, 0), (1, 1)))
                 for courant, *_, source in segments], axis=2)

    def bind(self, w: np.ndarray, forcing: bool):
        """A march of the (n, N, B) batch ``w``: its two padded (n, N+2, B)
        buffers ``bufs``, the first holding ``w`` in its columns 1..N, and
        the two steps ``steps[i](j, forcing=None)`` from ``bufs[i]`` to the
        other, with every view they touch bound here; ``forcing`` says
        whether steps get one, (n, N, 1).  The steps share the flat
        neighbour difference, the flat Courant table over its slots and the
        padded gain (None when no step adds a source or a forcing)."""
        n, nx, batch = w.shape
        pos, neg = self.pos, self.neg
        table = np.zeros((n, nx + 2, batch))
        for (courant, *_), cols in zip(self.segments, self.cols):
            table[pos, cols] = courant[pos, :, None]
            table[neg, cols.start + 1:cols.stop + 1] = courant[neg, :, None]
        gain = np.zeros(table.shape) if forcing or self.source is not None else None
        dt = self.dt
        diff, bufs = np.empty(table.size - batch), (np.zeros(table.shape), np.zeros(table.shape))
        bufs[0][:, 1:-1] = w
        table, source = table.reshape(-1)[:-batch], self.source
        if gain is not None:
            gain_flat, gain_inner = gain.reshape(-1), gain[:, 1:-1]
        subtract, multiply, add, einsum = np.subtract, np.multiply, np.add, np.einsum

        def stepper(xbuf, ybuf):
            x, y = xbuf.reshape(-1), ybuf.reshape(-1)
            writers = []
            for (_, _, bc_lo, bc_hi, _), cols in zip(self.segments, self.cols):
                if bc_lo is not None:
                    writers.append(bc_lo(xbuf[neg, cols.start + 1], xbuf[pos, cols.start]))
                if bc_hi is not None:
                    writers.append(bc_hi(xbuf[pos, cols.stop], xbuf[neg, cols.stop + 1]))
            ahead, behind = x[batch:], x[:-batch]
            lo, hi = _run(pos, nx, batch)
            x_pos, d_pos, y_pos = x[lo:hi], diff[lo - batch:hi - batch], y[lo:hi]
            lo, hi = _run(neg, nx, batch)
            x_neg, d_neg, y_neg = x[lo:hi], diff[lo:hi], y[lo:hi]

            def step(j, forcing=None):
                for write in writers:
                    write(j)
                subtract(ahead, behind, out=diff)
                multiply(diff, table, out=diff)
                subtract(x_pos, d_pos, out=y_pos)
                subtract(x_neg, d_neg, out=y_neg)
                if source is not None:
                    einsum("ijx,jxb->ixb", source, xbuf, out=gain)
                    multiply(gain_flat, dt, out=gain_flat)
                    add(y, gain_flat, out=y)
                if forcing is not None:
                    # copied in, then scaled flat: a ufunc from a contiguous
                    # input into the strided interior would buffer a whole copy
                    gain_inner[...] = forcing
                    multiply(gain_flat, dt, out=gain_flat)
                    add(y, gain_flat, out=y)
            return step
        return bufs, (stepper(*bufs), stepper(*bufs[::-1]))


def _coupling_bc(matrix: np.ndarray):
    mat = np.asarray(matrix, dtype=float)
    if mat.shape == (1, 1):
        # the same single product per entry as ``mat @ outflow``, without
        # matmul's dispatch cost
        return lambda outflow, out: lambda j: np.multiply(mat, outflow, out=out)
    return lambda outflow, out: lambda j: np.matmul(mat, outflow, out=out)


def _dirichlet_bc(series: np.ndarray):
    """Ghost values from an (n_steps, n_in, B) series."""
    return lambda outflow, out: lambda j: np.copyto(out, series[j])


def _check_bytes(what: str, size: int):
    """Refuse, before allocating it, memory above ``TRAJECTORY_BYTES_LIMIT``."""
    if size > TRAJECTORY_BYTES_LIMIT:
        raise ValueError(f"{what} needs {size} bytes, "
                         f"above the limit of {TRAJECTORY_BYTES_LIMIT}")


def _check_state(n: int, grid: Grid):
    """Refuse a state of n x N values above ``TRAJECTORY_BYTES_LIMIT``,
    before it or ``grid.centers`` is built."""
    _check_bytes(f"a state of {n} x {grid.n_cells} values", 8 * n * grid.n_cells)


def _check_full_domain(grid: Grid):
    """Refuse a grid that is not (0, 1) to a full-domain solver, which puts
    the couplings, or their inverses or reflections, at both of its ends."""
    if grid.lo != 0.0 or grid.hi != 1.0:
        raise ValueError(f"a full-domain solve needs the grid on (0, 1), "
                         f"not ({grid.lo:g}, {grid.hi:g})")


def _check_work(what: str, work: int):
    """Refuse, before allocating for it, work above ``MARCH_WORK_LIMIT``."""
    if work > MARCH_WORK_LIMIT:
        raise ValueError(f"{what} needs {work} element-steps, "
                         f"above the limit of {MARCH_WORK_LIMIT}")


def _record_states(n_steps: int) -> int:
    """The length of a march's chunk record: the states before each step of
    a chunk of at most ``NAN_CHECK_EVERY`` steps, and the state after it."""
    return min(NAN_CHECK_EVERY, n_steps) + 1


def _march(marcher: _Marcher, w0: np.ndarray, n_steps: int,
           forcing: np.ndarray | None = None, on_chunk=None, out: np.ndarray | None = None):
    """March an (n, N) state or (n, N, B) batch and return the final batch,
    the (n, N, B) interior of a padded buffer; in a row of segments N
    counts the pad cells between them.  ``forcing[j]`` (n, N) enters step j.
    After the work check (values times steps), ``marcher.bind`` makes the
    two buffers and the two steps between them once; the steps alternate,
    allocate nothing and run in chunks of ``NAN_CHECK_EVERY``.  Each step
    copies the row's state into one store: ``out``, a caller's (n_steps+1,
    n, N, B) buffer of every state (a view reversed in time stores the last
    state first, one reversed in cells stores them mirrored), or, without
    ``out``, a record of the chunk when ``on_chunk`` is given.  A chunk ends
    with a finiteness check and ``on_chunk(j0, states)``: the (k, n, N, B)
    states j0..j0+k-1 of the store, and the final state too in the last
    chunk.
    """
    w = w0[:, :, None] if w0.ndim == 2 else w0
    _check_work(f"march of {n_steps} steps over {w.size} values", w.size * n_steps)
    record = (np.empty((_record_states(n_steps),) + w.shape)
              if out is None and on_chunk is not None else None)
    bufs, steps = marcher.bind(w, forcing is not None)
    inners = bufs[0][:, 1:-1], bufs[1][:, 1:-1]
    # a buffer's layout, True in the pad cells: the check writes a strided
    # interior and reduces a contiguous buffer, buffering no copy
    finite = np.ones(bufs[0].shape, dtype=bool)
    forcing = None if forcing is None else forcing[:, :, :, None]
    for j0 in range(0, max(n_steps, 1), NAN_CHECK_EVERY):
        k = min(NAN_CHECK_EVERY, n_steps - j0)
        store = record if out is None else out[j0:]
        if store is not None:
            store[0] = w
        for j in range(j0, j0 + k):
            steps[j & 1](j, None if forcing is None else forcing[j])
            if store is not None:
                store[j + 1 - j0] = inners[~j & 1]
        w = inners[(j0 + k) & 1]
        np.isfinite(w, out=finite[:, 1:-1])
        if not finite.all():
            raise RuntimeError(f"solution lost finiteness at step {j0 + k}")
        if on_chunk is not None:
            on_chunk(j0, store[:k + 1] if j0 + k == n_steps else store[:k])
    return w


def _evolve(marcher: _Marcher, state: StateField, n_steps: int, dt: float,
            trajectory: bool = True, forcing=None, reverse: bool = False,
            mirror: bool = False) -> EvolutionResult:
    """March one state into a result, storing its trajectory (bytes checked)
    unless ``trajectory`` is false.  A ``reverse`` march runs backward in
    time and a ``mirror`` march on the cells mirrored in space: the state
    goes in mirrored, and the final state and the trajectory, in forward
    time order, come out as on the grid."""
    cells = slice(None, None, -1 if mirror else 1)
    traj = out = None
    if trajectory:
        _check_bytes(f"trajectory of {n_steps + 1} states", (n_steps + 1) * state.values.nbytes)
        traj = np.empty((n_steps + 1,) + state.values.shape)
        out = (traj[::-1] if reverse else traj)[:, :, cells, None]
    w = _march(marcher, state.values[:, cells], n_steps, forcing, out=out)
    final = StateField(w[:, cells, 0].copy(), state.grid)
    return EvolutionResult(final, traj, np.arange(n_steps + 1) * dt)


def _resolve_steps(spec, grid, T, cfl, control: ControlField | None = None,
                   positive: bool = False):
    """The one (dt, n_steps) rule of a march over [0, T], after checking T
    and the bytes of one state: the control's own step when one is given
    (on the state grid and zero outside omega), else ``cfl_dt`` and the
    whole steps of T."""
    _check_horizon(T, positive)
    _check_state(spec.n, grid)
    if control is not None:
        if control.grid != grid:
            raise ValueError("control grid does not match the state grid")
        # the model applies 1_omega u, so a control nonzero off omega is an error
        outside = control.mask & ~spec.omega.contains_points(grid.centers)
        if outside.any() and control.values[:, :, outside].any():
            raise ConfigError("the control must vanish outside omega")
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
    time step (its own dt) and is applied explicitly per step.  The grid
    must span (0, 1) (else ``ValueError``).
    """
    return _forward(spec, y0, u, T, cfl)


def _forward_segment(spec: SystemSpec, grid: Grid, dt: float, bc_lo=None, bc_hi=None):
    """The forward system's segment on ``grid``: the couplings Q0 and Q1 at
    the ends of (0, 1) the grid reaches, and the boundary writers ``bc_lo``
    and ``bc_hi`` at its other ends (None: no writer, zero boundary data)."""
    if grid.lo == 0.0:
        bc_lo = _coupling_bc(spec.couplings.q0)
    if grid.hi == 1.0:
        bc_hi = _coupling_bc(spec.couplings.q1)
    return _segment(_speeds_at(spec, grid), dt, grid.dx, bc_lo, bc_hi,
                    spec.source.at_points(grid.centers))


def _forward(spec: SystemSpec, y0: StateField, u: ControlField | None,
             T: float, cfl: float, trajectory: bool = True) -> EvolutionResult:
    """``solve_forward``, storing the trajectory or only the final state."""
    _check_full_domain(y0.grid)
    dt, n_steps = _resolve_steps(spec, y0.grid, T, cfl, u)
    return _evolve(_Marcher(_forward_segment(spec, y0.grid, dt)), y0, n_steps, dt, trajectory,
                   forcing=None if u is None else u.values)


def _backward_segment(spec: SystemSpec, grid: Grid, dt: float):
    """The time-reversed uncontrolled system's segment on ``grid`` mirrored
    in space (x -> 1 - x), which negates the speeds back: the forward
    Courant row with the cells reversed, the source -S on reversed cells,
    the inverse of Q1 at its left end (x = 1) and of Q0 at its right end.
    Negation and a reversed difference are exact, so each step is bitwise
    the negated-speed step on the grid's own cells, and its sign families
    are those of ``_forward_segment``: the two can share a row.  A grid
    that is not (0, 1) raises ``ValueError``, and singular couplings
    ``RankError``, before anything is built."""
    _check_full_domain(grid)
    if not spec.couplings.invertible:
        raise RankError("singular coupling matrix: Q0 and Q1 must be invertible")
    return _segment(_speeds_at(spec, grid)[:, ::-1], dt, grid.dx,
                    bc_lo=_coupling_bc(np.linalg.inv(spec.couplings.q1)),
                    bc_hi=_coupling_bc(np.linalg.inv(spec.couplings.q0)),
                    source=-spec.source.at_points(grid.centers)[::-1])


def solve_backward(spec: SystemSpec, y1: StateField, T: float,
                   cfl: float = 0.9) -> EvolutionResult:
    """March the time-reversed uncontrolled system from y(T) = y1 down to 0.

    Under s = T - t the speeds negate, the source flips sign, and the
    couplings invert: the inverse of Q1 feeds the positive components at
    x=1 and the inverse of Q0 the negative ones at x=0.  It is marched
    mirrored in space, as ``_backward_segment``.  The returned trajectory is
    indexed by forward time (trajectory[-1] equals y1).  The grid must span
    (0, 1) (else ``ValueError``).
    """
    grid = y1.grid
    dt, n_steps = _resolve_steps(spec, grid, T, cfl)
    return _evolve(_Marcher(_backward_segment(spec, grid, dt)), y1, n_steps, dt,
                   reverse=True, mirror=True)


@dataclass(frozen=True)
class BoundaryControls:
    """Dirichlet control series for a subinterval solve.

    ``left`` feeds the positive components at the left end (shape
    (n_steps, p)), ``right`` the negative components at the right end
    (shape (n_steps, m)).  Which of the two is required depends on the
    ends of (0, 1) the grid reaches.
    """

    left: np.ndarray | None = None
    right: np.ndarray | None = None


def _subinterval_bcs(spec: SystemSpec, grid: Grid, controls: BoundaryControls, n_steps: int):
    """(bc_lo, bc_hi) on a complement component of the refined region, the
    span of ``grid``: the Dirichlet series of ``controls`` at the control
    ends, shaped (n_steps, p) on the left and (n_steps, m) on the right, and
    None at an end of (0, 1), where ``_forward_segment`` puts the coupling."""
    if grid.lo == 0.0 and grid.hi == 1.0:
        raise ValueError("use solve_forward for the full domain")

    def dirichlet(series, length, name):
        if series is None:
            raise ValueError(f"missing {name} control series")
        ser = np.asarray(series, dtype=float)
        if ser.shape != (n_steps, length):
            raise ValueError(f"{name} control series must have shape "
                             f"{(n_steps, length)}, got {ser.shape}")
        return _dirichlet_bc(ser[:, :, None])

    bc_lo = None if grid.lo == 0.0 else dirichlet(controls.left, spec.p, "left-end")
    bc_hi = None if grid.hi == 1.0 else dirichlet(controls.right, spec.m, "right-end")
    return bc_lo, bc_hi


def solve_boundary_forward(spec: SystemSpec, y0: StateField, controls: BoundaryControls,
                           T: float, cfl: float = 0.9) -> EvolutionResult:
    """March the system restricted to a component of the complement of the
    refined control region, with Dirichlet data on its control ends.  The
    component is the span of ``y0.grid``.

    A component reaching x=0: coupling Q0 stays there and the control
    drives the negative components at the right end; reaching x=1:
    mirrored; interior: controls on both ends.
    """
    grid = y0.grid
    dt, n_steps = _resolve_steps(spec, grid, T, cfl)
    marcher = _Marcher(_forward_segment(spec, grid, dt,
                                        *_subinterval_bcs(spec, grid, controls, n_steps)))
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
    """The adjoint system's marcher on the full-domain ``grid``, marched
    backward in time."""
    _check_full_domain(grid)
    msrc = spec.source.at_points(grid.centers)
    slopes = _slopes_at(spec, grid)
    # under s = T - t the adjoint equation becomes
    #   dw/ds - Lambda dw/dx = (Lambda' + M^T) w
    src = np.transpose(msrc, (0, 2, 1)).copy()
    idx = np.arange(spec.n)
    src[:, idx, idx] += slopes.T
    r0 = adjoint_reflection(spec.speeds, spec.couplings.q0, 0.0)
    r1 = adjoint_reflection(spec.speeds, spec.couplings.q1, 1.0)
    return _Marcher(_segment(-_speeds_at(spec, grid), dt, grid.dx,
                             bc_lo=_coupling_bc(r0.T), bc_hi=_coupling_bc(r1.T), source=src))


def solve_adjoint(spec: SystemSpec, z1: StateField, T: float,
                  cfl: float = 0.9) -> EvolutionResult:
    """March the adjoint system backward from z(T) = z1.

    The adjoint of the controlled system is
        dz/dt + Lambda dz/dx = -(Lambda' + M^T) z
    with boundary reflections z_-(t,0) = R0^T z_+(t,0) and
    z_+(t,1) = R1^T z_-(t,1); when M = -Lambda' the right-hand side
    vanishes.  The trajectory is indexed by forward time (trajectory[-1]
    equals z1).  The grid must span (0, 1) (else ``ValueError``).
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
