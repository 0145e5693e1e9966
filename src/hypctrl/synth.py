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
on the state side after one batched march), and a C^1 space cut-off xi (0
on the refined region, 1 outside an intermediate enlargement omega_1) glues
the component solutions y_out to the full-domain solution y_in:

    y = xi y_out + (1 - xi) y_in,
    u = xi'(x) Lambda(x) (y_out - y_in) + (1 - xi) u_in.

The glued control is supported in omega by construction; every synthesis is
verified by re-simulating the forward system with the assembled control.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (BelowThresholdError, ControlDomain, Interval, RankError,
                    SystemSpec)
from .pde import (BoundaryControls, ControlField, Grid, PositionTag,
                  StateField, _forward, _march, _Marcher, _speeds_at,
                  _subinterval_bcs, cfl_dt, sample_state, solve_backward,
                  solve_boundary_forward, solve_forward)
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

    omega_hat: ControlDomain
    omega1: ControlDomain
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

        omega1 = []
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
            omega1.append((a - e_lo, b + e_hi))
            transitions.append((a - e_lo, a, 1.0, 0.0))
            transitions.append((b, b + e_hi, 0.0, 1.0))
        return SpaceCutoff(omega_hat, ControlDomain(tuple(omega1)),
                           tuple((a, b) for a, b in hats), tuple(transitions))

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
    omega1: ControlDomain | None = None


def _l2(values: np.ndarray, dx: float) -> float:
    return math.sqrt(dx * float(np.sum(values ** 2)))


def _glue_full_domain(spec, y0f, y1f, T, grid, cfl):
    """Forward/backward blend: control values on the step grid plus the
    blended trajectory (used as the inner solution of the general case)."""
    fwd = solve_forward(spec, y0f, None, T, cfl)
    bwd = solve_backward(spec, y1f, T, cfl)
    dt = fwd.times[1] - fwd.times[0]
    cut = TimeCutoff(T)
    eta = cut.value(fwd.times)[:, None, None]
    eta_dot = cut.derivative(fwd.times)[:, None, None]
    u_vals = eta_dot[:-1] * (fwd.trajectory[:-1] - bwd.trajectory[:-1])
    y_in = eta * fwd.trajectory + (1.0 - eta) * bwd.trajectory
    return u_vals, y_in, dt, fwd.times


def synthesize_full_domain(spec: SystemSpec, y0_fn, y1_fn, T: float,
                           grid: Grid, cfl: float = 0.9) -> SynthesisReport:
    """Steer y0 to y1 when the control acts on the whole domain.

    Needs invertible couplings and T > 0; works for every such horizon.
    The achieved error is the L2 distance of the re-simulated final state
    from the target.
    """
    if T <= 0.0:
        raise ValueError("horizon must be positive")
    if spec.omega.complement_components():
        raise ValueError("full-domain synthesis needs the closure of omega "
                         "to cover [0, 1]")
    y0f = sample_state(y0_fn, grid, spec.n)
    y1f = sample_state(y1_fn, grid, spec.n)
    u_vals, _, dt, _ = _glue_full_domain(spec, y0f, y1f, T, grid, cfl)
    mask = spec.omega.contains_points(grid.centers)
    control = ControlField(u_vals, grid, dt, mask)
    final = _forward(spec, y0f, control, T, cfl, keep="final").final
    err = _l2(final.values - y1f.values, grid.dx)
    return SynthesisReport(control, err, final)


def _solve_normal_equations(normal: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the regularized (symmetric positive definite) normal system.

    The regularized matrix carries a near-continuum of eigenvalues spanning
    eight decades down to the regularization floor, so Krylov iterations
    stagnate long after the least-squares objective has saturated; a dense
    Cholesky factorization gets the exact minimizer at these sizes.  Its
    triangular solves are row substitutions: numpy's general solver would
    LU-factor each triangular factor again.
    """
    try:
        chol = np.linalg.cholesky(normal)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"normal equations lost positive definiteness: {exc}") from exc
    y = np.empty_like(rhs)
    for i in range(rhs.size):
        y[i] = (rhs[i] - chol[i, :i] @ y[:i]) / chol[i, i]
    x = np.empty_like(rhs)
    for i in range(rhs.size - 1, -1, -1):
        x[i] = (y[i] - chol[i + 1:, i] @ x[i + 1:]) / chol[i, i]
    return x


@dataclass(frozen=True)
class HumResult:
    """Boundary control series steering a component, with its residual."""

    controls: BoundaryControls
    residual: float
    final_state: StateField
    trajectory: np.ndarray
    times: np.ndarray


def hum_boundary_control(spec: SystemSpec, interval: Interval,
                         y0_vals: np.ndarray, y1_vals: np.ndarray,
                         grid: Grid, T: float, cfl: float = 0.9) -> HumResult:
    """Boundary control steering y0 to y1 on one complement component.

    Minimizes |A U + b - y1|^2_L2 + alpha |U|^2_L2 over control series U,
    alpha = ``HUM_REGULARIZATION``, A the input-to-final-state map of the
    subinterval solver with zero initial data, b the free evolution of y0.
    Because the step operator does not depend on time, the columns of A are
    time shifts of one impulse response per control channel, and one batched
    march carries all of them beside the free evolution.  The normal system
    is solved on the state side, of size n N_i instead of channels n_steps:
    U = A^T x with (dx A A^T + alpha dt I) x = dx (y1 - b), which is the
    same minimizer by the push-through identity.

    Exact steering needs a horizon above the component's boundary-control
    time (with some margin); below it the residual stays bounded away from
    zero under refinement, which is itself the threshold-sharpness
    diagnostic, so short horizons run normally and simply report a large
    residual.
    """
    dt = cfl_dt(spec, grid, cfl, T)
    n_steps = int(round(T / dt))
    # control channels: the inflow components at each control end, left first
    n_left = 0 if interval.tag is PositionTag.TOUCHES_LEFT else spec.p
    n_ch = n_left + (0 if interval.tag is PositionTag.TOUCHES_RIGHT else spec.m)
    nstate = spec.n * grid.n_cells

    # batch column c < n_ch: zero data and a unit ghost on channel c during
    # step 0; column n_ch: y0 under zero boundary data
    units = np.zeros((n_steps, n_ch, n_ch + 1))
    units[0, :, :n_ch] = np.eye(n_ch)
    bc_lo, bc_hi = _subinterval_bcs(spec, interval.tag,
                                    BoundaryControls(units[:, :n_left], units[:, n_left:]),
                                    n_steps, batch=n_ch + 1)
    marcher = _Marcher(_speeds_at(spec, grid), dt, grid.dx, bc_lo, bc_hi,
                       spec.source.at_points(grid.centers))
    w0 = np.zeros((spec.n, grid.n_cells, n_ch + 1))
    w0[:, :, n_ch] = y0_vals

    # a_t[c, k] is the column of A for the control of channel c during step
    # k: it surfaces at T as the impulse response n_steps - k steps old
    a_t = np.empty((n_ch, n_steps, nstate))

    def visit(j, w):
        if j:
            a_t[:, n_steps - j] = w[:, :, :n_ch].reshape(nstate, n_ch).T

    w, _ = _march(marcher, w0, n_steps, visit=visit)
    a_t[:, 0] = w[:, :, :n_ch].reshape(nstate, n_ch).T
    a_t = a_t.reshape(n_ch * n_steps, nstate)
    target = (np.asarray(y1_vals, dtype=float) - w[:, :, n_ch]).reshape(nstate)

    dx = grid.dx
    gram = dx * (a_t.T @ a_t)
    gram[np.diag_indices_from(gram)] += HUM_REGULARIZATION * dt
    vec = a_t @ _solve_normal_equations(gram, dx * target)

    u = vec.reshape(n_ch, n_steps).T
    controls = BoundaryControls(u[:, :n_left] if n_left else None,
                                u[:, n_left:] if n_ch > n_left else None)
    controlled = solve_boundary_forward(spec, interval, StateField(y0_vals, grid),
                                        controls, T, cfl)
    residual = _l2(controlled.final.values - np.asarray(y1_vals, dtype=float), dx)
    return HumResult(controls, residual, controlled.final,
                     controlled.trajectory, controlled.times)


def _resample(traj: np.ndarray, traj_times: np.ndarray, xp: np.ndarray,
              times: np.ndarray, xq: np.ndarray) -> np.ndarray:
    """Bilinear samples of a component trajectory (levels, n, len(xp)) at
    global times and points, clamped at the edges of both grids."""
    last = traj.shape[0] - 1
    s = np.clip(times / (traj_times[1] - traj_times[0]), 0.0, float(last))
    s0 = s.astype(np.intp)
    w = (s - s0)[:, None, None]
    state = (1.0 - w) * traj[s0] + w * traj[np.minimum(s0 + 1, last)]
    j = np.clip(np.searchsorted(xp, xq, side="right") - 1, 0, xp.size - 2)
    theta = np.clip((xq - xp[j]) / (xp[j + 1] - xp[j]), 0.0, 1.0)
    lo, hi = state[:, :, j], state[:, :, j + 1]
    return lo + theta * (hi - lo)


def _shrunk_core(spec: SystemSpec, bound: float) -> ControlDomain:
    """The widest margin-shrink of omega whose complement components all
    stay below `bound` of boundary-control time.

    Each merged piece (a, b) of omega shrinks to (a+gamma, b-gamma); the
    complement components grow by gamma per touching side, so their times
    exceed those of omega's own components by at most a multiple of gamma.
    The margin starts at a quarter of the narrowest piece and
    ``shrink_region`` halves it until the directly evaluated bound holds.
    Wide margins matter numerically: they become the cut-off transition
    zones, and sub-cell zones make the glued control unresolvable on the
    grid.
    """
    pieces = spec.omega.merged_closure()
    region, _ = shrink_region(
        spec, bound, min(0.25 * (b - a) for a, b in pieces),
        lambda gamma: ControlDomain(tuple((a + gamma, b - gamma) for a, b in pieces)))
    return region


def assemble_internal_control(spec: SystemSpec, y0_fn, y1_fn, T: float,
                              grid: Grid, cfl: float = 0.9) -> SynthesisReport:
    """Steer y0 to y1 with a control supported in omega, for any horizon
    above the minimal control time (two-step margin).

    Construction: shrink omega to a compactly contained finite union whose
    complement components are all controllable within T, steer each
    component by boundary least squares (y_out), steer the whole domain by
    the forward/backward blend (y_in), and glue with the space cut-off.
    Almost the whole margin above the minimal time is granted to the
    components as extra control time, keeping the shrink margins (and hence
    the cut-off transition zones) as wide as possible.  Delegates to
    ``synthesize_full_domain`` when the closure of omega covers [0, 1].
    """
    base = minimal_control_time(spec)
    if not base.finite:
        raise RankError(base.reason)
    if base.covers_all:
        return synthesize_full_domain(spec, y0_fn, y1_fn, T, grid, cfl)

    tau_max = base.value
    dt_global = cfl_dt(spec, grid, cfl, T) if T > 0 else 0.0
    if not T > tau_max + 2.0 * dt_global:
        raise BelowThresholdError(f"horizon {T:g} is not above the minimal control "
                                  f"time {tau_max:g} (plus the two-step margin)")

    # leave a horizon margin for the component steering, spend the rest
    margin = max(4.0 * dt_global, 0.05 * (T - tau_max))
    slack = max(T - tau_max - margin, 0.5 * (T - tau_max))
    refined_region = _shrunk_core(spec, tau_max + slack)
    cutoff = SpaceCutoff.between(refined_region, spec.omega)

    y0f = sample_state(y0_fn, grid, spec.n)
    y1f = sample_state(y1_fn, grid, spec.n)
    u_in, y_in, dt, times = _glue_full_domain(spec, y0f, y1f, T, grid, cfl)

    components = refined_region.complement_components()
    y_out = np.zeros_like(y_in)
    residuals = []
    for comp in components:
        n_cells = max(8, math.ceil(comp.length * grid.n_cells))
        grid_i = Grid(comp.lo, comp.hi, n_cells)
        y0_i = np.asarray(y0_fn(grid_i.centers), dtype=float)
        y1_i = np.asarray(y1_fn(grid_i.centers), dtype=float)
        hum = hum_boundary_control(spec, comp, y0_i, y1_i, grid_i, T, cfl)
        residuals.append(hum.residual)
        inside = (grid.centers > comp.lo) & (grid.centers < comp.hi)
        y_out[:, :, inside] = _resample(hum.trajectory, hum.times, grid_i.centers,
                                        times, grid.centers[inside])

    xi = cutoff.value(grid.centers)
    xi_dot = cutoff.derivative(grid.centers)
    lam = _speeds_at(spec, grid)
    u_vals = (xi_dot[None, None, :] * lam[None, :, :] * (y_out[:-1] - y_in[:-1])
              + (1.0 - xi)[None, None, :] * u_in)
    mask = spec.omega.contains_points(grid.centers)
    control = ControlField(u_vals, grid, dt, mask)

    final = _forward(spec, y0f, control, T, cfl, keep="final").final
    err = _l2(final.values - y1f.values, grid.dx)
    return SynthesisReport(control, err, final, tuple(residuals),
                           refined_region, cutoff.omega1)
