"""Control synthesis by cut-off gluing and boundary least squares.

Over the whole domain the system is time reversible (the couplings invert),
so steering y0 to y1 in any horizon T is a matter of blending the free
forward solution from y0 with the free backward solution into y1 through a
C^1 time cut-off eta (eta(0)=1, eta(T)=0):

    y = eta y_f + (1 - eta) y_b,      u = eta'(t) (y_f - y_b).

For a general control region the refined subregion (a finite union of
intervals compactly inside omega) splits (0, 1) into complement components;
each component carries its own boundary-controlled solution reaching y1
(HUM: regularized least squares on the discrete input-to-state map, solved
on the state side after one batched march of all the components side by
side, whose impulse responses also give the controlled solution at the few
cells the glue reads, by superposition), and a C^1 space cut-off xi (0 on the refined region, 1
outside an intermediate enlargement omega_1) glues the component solutions
y_out to the full-domain solution y_in:

    y = xi y_out + (1 - xi) y_in,
    u = xi'(x) Lambda(x) (y_out - y_in) + (1 - xi) u_in.

The control is supported in omega, is written over the stored forward
trajectory, and needs y_out and y_in only where xi' != 0; its peak memory is
checked before the first march, and its re-simulation verifies the synthesis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .model import (BelowThresholdError, ControlDomain, Interval, RankError,
                    SystemSpec)
from .pde import (BoundaryControls, ControlField, Grid, PositionTag,
                  StateField, _check_bytes, _forward, _forward_segment, _march,
                  _Marcher, _resolve_steps, _speeds_at, sample_state, solve_backward,
                  solve_forward)
from .times import minimal_control_time, shrink_region

HUM_REGULARIZATION = 1e-8


@dataclass(frozen=True)
class TimeCutoff:
    """Cubic smoothstep in time: value 1 at t=0, 0 at t=T, C^1."""

    horizon: float

    def value(self, t):
        s = np.clip(np.asarray(t, dtype=float) / self.horizon, 0.0, 1.0)
        return 1.0 - (3.0 * s**2 - 2.0 * s**3)

    def derivative(self, t):
        s = np.clip(np.asarray(t, dtype=float) / self.horizon, 0.0, 1.0)
        return -6.0 * s * (1.0 - s) / self.horizon


@dataclass(frozen=True)
class SpaceCutoff:
    """Cubic smoothstep in space: 0 on the refined region, 1 outside the
    intermediate region omega_1, C^1 transitions on the gaps in between.

    ``zero_spans`` are the closed intervals where the value is exactly 0;
    each transition (x0, x1, v0, v1) interpolates from v0 at x0 to v1 at x1.
    """

    zero_spans: tuple[tuple[float, float], ...]
    transitions: tuple[tuple[float, float, float, float], ...]

    @staticmethod
    def between(omega_hat: ControlDomain, omega: ControlDomain) -> "SpaceCutoff":
        """Midway construction: each transition takes half the gap between
        the refined interval and the nearest obstacle (the containing piece
        of omega or the neighboring refined interval)."""
        if not omega.compactly_contains(omega_hat):
            raise ValueError("refined region must be compactly contained in omega")
        hats = omega_hat.merged_closure()

        def containing_piece(a, b):
            for pa, pb in omega.intervals:
                if pa < a and b < pb:
                    return pa, pb
            raise ValueError("refined interval not strictly inside omega")

        transitions = []
        for i, (a, b) in enumerate(hats):
            pa, pb = containing_piece(a, b)
            left_limit = pa
            if i > 0 and pa < hats[i - 1][1] < a:
                left_limit = hats[i - 1][1]
            right_limit = pb
            if i + 1 < len(hats) and b < hats[i + 1][0] < pb:
                right_limit = hats[i + 1][0]
            e_lo = 0.5 * (a - left_limit)
            e_hi = 0.5 * (right_limit - b)
            if e_lo <= 0.0 or e_hi <= 0.0:
                raise ValueError("no room for the cut-off transition")
            transitions.append((a - e_lo, a, 1.0, 0.0))
            transitions.append((b, b + e_hi, 0.0, 1.0))
        return SpaceCutoff(tuple((a, b) for a, b in hats), tuple(transitions))

    def _eval(self, xs, want_derivative: bool) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        out = np.zeros_like(xs) if want_derivative else np.ones_like(xs)
        for a, b in self.zero_spans:
            inside = (xs >= a) & (xs <= b)
            out[inside] = 0.0
        for x0, x1, v0, v1 in self.transitions:
            inside = (xs > x0) & (xs < x1)
            s = (xs[inside] - x0) / (x1 - x0)
            smooth = 3.0 * s**2 - 2.0 * s**3
            if want_derivative:
                out[inside] = (v1 - v0) * 6.0 * s * (1.0 - s) / (x1 - x0)
            else:
                out[inside] = v0 + (v1 - v0) * smooth
        return out

    def value(self, xs) -> np.ndarray:
        return self._eval(xs, want_derivative=False)

    def derivative(self, xs) -> np.ndarray:
        return self._eval(xs, want_derivative=True)


@dataclass(frozen=True)
class SynthesisReport:
    """Assembled control with its re-simulation error and construction data."""

    control: ControlField
    achieved_error: float
    final_state: StateField
    hum_residuals: tuple[float, ...] = ()
    omega_hat: ControlDomain | None = None


def _l2(values: np.ndarray, dx: float) -> float:
    return math.sqrt(dx * float(np.sum(values ** 2)))


def _glue_full_domain(spec, y0f, y1f, T, cfl, cells):
    """Forward/backward blend: the control eta'(t) (y_f - y_b), written over
    the forward trajectory, and y_in = eta y_f + (1 - eta) y_b (the general
    case's inner solution) at ``cells`` only; the backward trajectory dies."""
    fwd = solve_forward(spec, y0f, None, T, cfl)
    bwd = solve_backward(spec, y1f, T, cfl).trajectory
    cut = TimeCutoff(T)
    eta = cut.value(fwd.times)[:, None, None]
    y_in, b_in = fwd.trajectory[:, :, cells], bwd[:, :, cells]
    y_in *= eta
    y_in += np.multiply(b_in, 1.0 - eta, out=b_in)
    u = fwd.trajectory[:-1]
    np.subtract(u, bwd[:-1], out=u)
    np.multiply(cut.derivative(fwd.times[:-1])[:, None, None], u, out=u)
    return u, y_in


def _hum_bytes(spec, parts, T, cfl) -> int:
    """Peak bytes of HUM on the components ``parts``, (interval, grid) each:
    the a_t of every component, each held from the march until its solve,
    and at a component's solve its normal matrix and LAPACK's working copy
    of that matrix, which numpy allocates outside its tracked memory."""
    sizes = []
    for interval, grid_i in parts:
        _, steps = _resolve_steps(spec, grid_i, T, cfl)
        nstate = spec.n * grid_i.n_cells
        sizes.append((nstate * _channels(spec, interval.tag)[1] * steps, 2 * nstate * nstate))
    held, peak = sum(a_t for a_t, _ in sizes), 0
    for a_t, normal in sizes:
        peak = max(peak, held + normal)
        held -= a_t
    return 8 * peak


def _peak_bytes(spec, grid, n_steps, n_glued, parts, T, cfl) -> int:
    """Peak bytes of a synthesis: the glue's two trajectories and its three
    arrays at n_glued cells, or, if more, the HUM of its components."""
    glue = 8 * (n_steps + 1) * spec.n * (2 * grid.n_cells + 3 * n_glued)
    return max(glue, _hum_bytes(spec, parts, T, cfl))


def synthesize_full_domain(spec: SystemSpec, y0_fn, y1_fn, T: float,
                           grid: Grid, cfl: float = 0.9) -> SynthesisReport:
    """Steer y0 to y1 when the control acts on the whole domain.

    Needs invertible couplings and a finite T > 0 (else ``ConfigError``);
    works for every such horizon.  The achieved error is the L2 distance of
    the re-simulated final state from the target.
    """
    dt, n_steps = _resolve_steps(spec, grid, T, cfl, positive=True)
    if spec.omega.complement_components():
        raise ValueError("full-domain synthesis needs the closure of omega "
                         "to cover [0, 1]")
    _check_bytes("synthesis", _peak_bytes(spec, grid, n_steps, 0, (), T, cfl))
    y0f = sample_state(y0_fn, grid, spec.n)
    y1f = sample_state(y1_fn, grid, spec.n)
    u_vals, _ = _glue_full_domain(spec, y0f, y1f, T, cfl, [])
    control = ControlField._adopt(u_vals, grid, dt, spec.omega.contains_points(grid.centers))
    final = _forward(spec, y0f, control, T, cfl, trajectory=False).final
    err = _l2(final.values - y1f.values, grid.dx)
    return SynthesisReport(control, err, final)


def _channels(spec: SystemSpec, tag: PositionTag) -> tuple[int, int]:
    """(left, all) control channels: each control end's inflow components."""
    if tag is PositionTag.FULL:
        raise ValueError("use solve_forward for the full domain")
    n_left = 0 if tag is PositionTag.TOUCHES_LEFT else spec.p
    return n_left, n_left + (0 if tag is PositionTag.TOUCHES_RIGHT else spec.m)


@dataclass(frozen=True)
class HumResult:
    """Boundary control series steering a component, with its residual and
    the controlled solution at the requested cells: ``samples[j, :, i]`` is
    the state after j steps, at ``times[j]``, in cell ``cells[i]``."""

    controls: BoundaryControls
    residual: float
    samples: np.ndarray
    times: np.ndarray


def hum_boundary_control(spec: SystemSpec, interval: Interval,
                         y0_vals: np.ndarray, y1_vals: np.ndarray,
                         grid: Grid, T: float, cfl: float = 0.9,
                         cells=()) -> HumResult:
    """Boundary control steering y0 to y1 on one complement component.

    Minimizes |A U + b - y1|^2_L2 + alpha |U|^2_L2 over control series U,
    alpha = ``HUM_REGULARIZATION``, A the input-to-final-state map of the
    subinterval solver with zero initial data, b the free evolution of y0.
    Because the step operator does not depend on time, the columns of A are
    time shifts of one impulse response per control channel, and one batched
    march carries all of them beside the free evolution: the one-segment
    row of ``_hum_row``, which steers every component of a synthesis in one
    march.  The normal system is solved on the state side, of size n N_i
    instead of channels n_steps: U = A^T x with (dx A A^T + alpha dt I) x =
    dx (y1 - b), which is the same minimizer by the push-through identity.
    Its eigenvalues span some eight decades down to the floor alpha dt,
    where Krylov iterations stagnate, so one dense LU solve (partial
    pivoting, backward stable on a symmetric positive definite matrix) gets
    the exact minimizer.  The peak memory is checked before the batched
    march.

    The controlled solution is not marched again.  By linearity its state
    after j steps is the free one plus sum_c sum_{k<j} U[k, c] R_c(j - k),
    with R_c(s) the impulse response of channel c after s steps, which the
    batched march already stores in A.  At the grid indices ``cells`` this
    is one causal convolution over time, formed by FFT; the residual comes
    from the final state b + A U.

    Exact steering needs a horizon above the component's boundary-control
    time (with some margin); below it the residual stays bounded away from
    zero under refinement, which is itself the threshold-sharpness
    diagnostic, so short horizons run normally and simply report a large
    residual; the horizon itself must be finite and positive.
    """
    _resolve_steps(spec, grid, T, cfl, positive=True)
    cells = np.asarray(cells, dtype=np.intp).reshape(-1)
    if cells.size and not 0 <= cells.min() <= cells.max() < grid.n_cells:
        raise ValueError(f"sampled cells must lie in 0..{grid.n_cells - 1}")
    _check_bytes("HUM", _hum_bytes(spec, [(interval, grid)], T, cfl))
    return _hum_row(spec, [(interval, grid, y0_vals, y1_vals, cells)], T, cfl)[0]


def _hum_row(spec: SystemSpec, parts, T: float, cfl: float) -> list[HumResult]:
    """``hum_boundary_control`` on each component of ``parts``, (interval,
    grid, y0_vals, y1_vals, cells) each, from one march of a row of one
    forward segment per component, each with its own dt.  The row runs the
    longest step count; its batch holds a column per channel of the widest
    component and the free column last.  Every impulse starts one step on:
    a unit ghost on channel c during step 0 leaves its Courant magnitude,
    exactly, in the cell it enters, so the control ends bind no writer.  A
    component is one record (its grid, dt, step count, channels, offset and
    buffers), solved after the march as on its own."""
    n, idx = spec.n, np.arange(spec.n)
    batch = 1 + max(_channels(spec, interval.tag)[1] for interval, *_ in parts)
    width = sum(grid.n_cells + 2 for _, grid, *_ in parts) - 2
    w0, comps, at = np.zeros((n, width, batch)), [], 0
    for interval, grid, y0_vals, y1_vals, cells in parts:
        dt, n_steps = _resolve_steps(spec, grid, T, cfl)
        n_left, n_ch = _channels(spec, interval.tag)
        segment = _forward_segment(spec, grid, dt, interval.tag)
        own, courant = w0[:, at:at + grid.n_cells], segment[0]
        own[:, :, -1] = y0_vals
        # channel c enters the positive family's c-th row at the left end,
        # or the negative family's at the right, one step on
        left = np.flatnonzero(courant[:, 0] > 0)[:n_left]
        right = np.flatnonzero(courant[:, 0] < 0)[:n_ch - n_left]
        own[left, 0, np.arange(n_left)] = courant[left, 0]
        own[right, -1, np.arange(n_left, n_ch)] = -courant[right, -1]
        # a_t[c, k] is the column of A for the control of channel c during
        # step k, the impulse response n_steps - k steps old at T; ``take``
        # holds the sampled cells' indices in a flat row state's free column
        comps.append(SimpleNamespace(
            grid=grid, y1=y1_vals, cells=cells, dt=dt, n_steps=n_steps, n_left=n_left,
            n_ch=n_ch, at=at, segment=segment, a_t=np.empty((n_ch, n_steps, n * grid.n_cells)),
            samples=np.empty((n_steps + 1, n, cells.size)), free=np.empty((n, grid.n_cells)),
            take=((idx[:, None] * width + at + cells) * batch + batch - 1).reshape(-1)))
        at += grid.n_cells + 2

    def on_chunk(j0, states):
        j1 = j0 + len(states)
        flat = states.reshape(j1 - j0, -1)
        for comp in comps:
            cols = slice(comp.at, comp.at + comp.grid.n_cells)
            # the free column's states 0..n_steps
            k = min(j1, comp.n_steps + 1) - j0
            if k > 0:
                # "clip" since the cells are checked: "raise" would buffer ``out``
                flat[:k].take(comp.take, axis=1, mode="clip",
                              out=comp.samples[j0:j0 + k].reshape(k, -1))
            if j0 <= comp.n_steps < j1:
                comp.free[...] = states[comp.n_steps - j0, :, cols, -1]
            # state j holds the responses j + 1 steps old, for a_t[:, n_steps - 1 - j]
            k = min(j1, comp.n_steps) - j0
            if k > 0:
                slots = comp.a_t.reshape(comp.n_ch, comp.n_steps, n, comp.grid.n_cells)
                slots[:, comp.n_steps - j0 - k:comp.n_steps - j0] = \
                    states[:k, :, cols, :comp.n_ch][::-1].transpose(3, 0, 1, 2)

    def solved(comp) -> HumResult:
        # one component's solve; its locals, and its a_t, go before the next
        n_steps, n_left, n_ch, nstate = comp.n_steps, comp.n_left, comp.n_ch, n * comp.grid.n_cells
        a_t, comp.a_t = comp.a_t.reshape(n_ch * n_steps, nstate), None
        free = comp.free.reshape(nstate)
        y1_flat = np.asarray(comp.y1, dtype=float).reshape(nstate)

        dx = comp.grid.dx
        gram = a_t.T @ a_t
        gram *= dx
        gram[np.diag_indices_from(gram)] += HUM_REGULARIZATION * comp.dt
        vec = a_t @ np.linalg.solve(gram, dx * (y1_flat - free))
        del gram
        residual = _l2(free + vec @ a_t - y1_flat, dx)
        # R_c(s) = a_t[c, n_steps - s] at the sampled states, for s = 1..n_steps
        sampled = (idx[:, None] * comp.grid.n_cells + comp.cells).reshape(-1)
        responses = a_t.reshape(n_ch, n_steps, nstate)[:, ::-1, sampled]
        del a_t

        # the length is a power of two at least 2 n_steps, so the circular
        # convolution does not wrap onto the n_steps terms that are kept
        size = 1 << (2 * n_steps - 1).bit_length()
        u = vec.reshape(n_ch, n_steps)
        spectrum = np.fft.rfft(u, size)[:, :, None] * np.fft.rfft(responses, size, axis=1)
        steered = np.fft.irfft(spectrum.sum(axis=0), size, axis=0)[:n_steps]
        comp.samples[1:] += steered.reshape(n_steps, n, comp.cells.size)

        controls = BoundaryControls(u.T[:, :n_left] if n_left else None,
                                    u.T[:, n_left:] if n_ch > n_left else None)
        return HumResult(controls, residual, comp.samples, np.arange(n_steps + 1) * comp.dt)

    _march(_Marcher(*(comp.segment for comp in comps)), w0, max(comp.n_steps for comp in comps),
           on_chunk=on_chunk)
    return [solved(comp) for comp in comps]


def _bracket(xp: np.ndarray, xq: np.ndarray) -> np.ndarray:
    """Index j of the pair xp[j], xp[j + 1] that interpolates at each of
    ``xq``, clamped to the first and the last pair."""
    return np.clip(np.searchsorted(xp, xq, side="right") - 1, 0, xp.size - 2)


def _resample(traj: np.ndarray, traj_times: np.ndarray, xp: np.ndarray,
              times: np.ndarray, xq: np.ndarray) -> np.ndarray:
    """Bilinear samples of a component trajectory (levels, n, len(xp)) at
    global times and points, clamped at the edges of both grids."""
    last = traj.shape[0] - 1
    s = np.clip(times / (traj_times[1] - traj_times[0]), 0.0, float(last))
    s0 = s.astype(np.intp)
    w = (s - s0)[:, None, None]
    j = _bracket(xp, xq)
    theta = np.clip((xq - xp[j]) / (xp[j + 1] - xp[j]), 0.0, 1.0)
    lo, hi = ((1.0 - w) * col[s0] + w * col[np.minimum(s0 + 1, last)]
              for col in (traj[:, :, j], traj[:, :, j + 1]))
    return lo + theta * (hi - lo)


def assemble_internal_control(spec: SystemSpec, y0_fn, y1_fn, T: float,
                              grid: Grid, cfl: float = 0.9) -> SynthesisReport:
    """Steer y0 to y1 with a control supported in omega, for any horizon
    above the minimal control time (two-step margin).

    Construction: shrink omega to a compactly contained finite union whose
    complement components are all controllable within T, steer each
    component by boundary least squares (y_out; all of them from one march
    of a row that lays them side by side, each with its own grid and dt),
    steer the whole domain by the forward/backward blend (y_in), and glue
    with the space cut-off.
    Almost the whole margin above the minimal time is granted to the
    components as extra control time, keeping the shrink margins (and hence
    the cut-off transition zones) as wide as possible.  Delegates to
    ``synthesize_full_domain`` when the closure of omega covers [0, 1].
    The horizon must be finite and positive (else ``ConfigError``).
    """
    dt, n_steps = _resolve_steps(spec, grid, T, cfl, positive=True)
    base = minimal_control_time(spec)
    if not base.finite:
        raise RankError(base.reason)
    if base.covers_all:
        return synthesize_full_domain(spec, y0_fn, y1_fn, T, grid, cfl)

    tau_max = base.value
    if not T > tau_max + 2.0 * dt:
        raise BelowThresholdError(f"horizon {T:g} is not above the minimal control "
                                  f"time {tau_max:g} (plus the two-step margin)")

    # leave a horizon margin for the component steering, spend the rest
    margin = max(4.0 * dt, 0.05 * (T - tau_max))
    slack = max(T - tau_max - margin, 0.5 * (T - tau_max))
    refined_region, _ = shrink_region(spec, tau_max + slack)
    cutoff = SpaceCutoff.between(refined_region, spec.omega)
    parts = [(comp, Grid(comp.lo, comp.hi, max(8, math.ceil(comp.length * grid.n_cells))))
             for comp in refined_region.complement_components()]
    # xi' Lambda (y_out - y_in) vanishes where xi' = 0, outside these cells
    xi_dot = cutoff.derivative(grid.centers)
    cells = np.flatnonzero(xi_dot)
    _check_bytes("synthesis", _peak_bytes(spec, grid, n_steps, cells.size, parts, T, cfl))
    xq = grid.centers[cells]
    hum_parts, insides = [], []
    for comp, grid_i in parts:
        inside = (xq > comp.lo) & (xq < comp.hi)
        # HUM samples only the component cells that bracket these points
        j = _bracket(grid_i.centers, xq[inside])
        pairs = np.zeros(grid_i.n_cells, dtype=bool)
        pairs[j] = pairs[j + 1] = True
        hum_parts.append((comp, grid_i, y0_fn(grid_i.centers), y1_fn(grid_i.centers),
                          np.flatnonzero(pairs)))
        insides.append(inside)
    y_out = np.zeros((n_steps, spec.n, cells.size))
    hums = _hum_row(spec, hum_parts, T, cfl)
    for (_, grid_i, _, _, sampled), inside, hum in zip(hum_parts, insides, hums):
        y_out[:, :, inside] = _resample(hum.samples, hum.times, grid_i.centers[sampled],
                                        np.arange(n_steps) * dt, xq[inside])
    residuals = [hum.residual for hum in hums]
    del hums  # y_out holds what the glue needs of their samples

    y0f = sample_state(y0_fn, grid, spec.n)
    y1f = sample_state(y1_fn, grid, spec.n)
    u_vals, y_in = _glue_full_domain(spec, y0f, y1f, T, cfl, cells)
    u_vals *= 1.0 - cutoff.value(grid.centers)
    u_vals[:, :, cells] += xi_dot[cells] * _speeds_at(spec, grid)[:, cells] * (y_out - y_in[:-1])
    control = ControlField._adopt(u_vals, grid, dt, spec.omega.contains_points(grid.centers))

    final = _forward(spec, y0f, control, T, cfl, trajectory=False).final
    err = _l2(final.values - y1f.values, grid.dx)
    return SynthesisReport(control, err, final, tuple(residuals), refined_region)
