"""Control synthesis by cut-off gluing and boundary least squares.

Over the whole domain the system is time reversible (the couplings invert),
so steering y0 to y1 in any horizon T is a matter of blending the free
forward solution from y0 with the free backward solution into y1 through a
C^1 time cut-off eta (eta(0)=1, eta(T)=0):

    y = eta y_f + (1 - eta) y_b,      u = eta'(t) (y_f - y_b).

For a general control region the refined subregion (a finite union of
intervals compactly inside omega) splits (0, 1) into complement components;
each component carries its own boundary-controlled solution reaching y1
(computed here by regularized least squares on the discrete input-to-state
map), and a C^1 space cut-off xi (0 on the refined region, 1 outside an
intermediate enlargement omega_1) glues the component solutions y_out to the
full-domain solution y_in:

    y = xi y_out + (1 - xi) y_in,
    u = xi'(x) Lambda(x) (y_out - y_in) + (1 - xi) u_in.

The glued control is supported in omega by construction; every synthesis is
verified by re-simulating the forward system with the assembled control.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ControlDomain, Interval, SystemSpec
from .pde import (BoundaryControls, ControlField, Grid, PositionTag,
                  StateField, _forward, _speeds_at, cfl_dt, sample_state,
                  solve_backward, solve_boundary_forward, solve_forward)
from .times import boundary_control_time, minimal_control_time

HUM_REGULARIZATION = 1e-8


class BelowThresholdError(ValueError):
    """Requested horizon does not exceed the minimal control time."""

    def __init__(self, horizon: float, threshold: float):
        super().__init__(f"horizon {horizon:g} is not above the minimal control "
                         f"time {threshold:g} (plus the two-step margin)")
        self.horizon = horizon
        self.threshold = threshold


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
    n_steps = fwd.times.size - 1
    cut = TimeCutoff(T)
    eta = cut.value(fwd.times)[:, None, None]
    eta_dot = cut.derivative(fwd.times)[:, None, None]
    u_vals = eta_dot[:-1] * (fwd.trajectory[:-1] - bwd.trajectory[:-1])
    y_in = eta * fwd.trajectory + (1.0 - eta) * bwd.trajectory
    return u_vals, y_in, dt, n_steps


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
    Cholesky factorization gets the exact minimizer at these sizes.
    """
    try:
        chol = np.linalg.cholesky(normal)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"normal equations lost positive definiteness: {exc}") from exc
    y = np.linalg.solve(chol, rhs)
    return np.linalg.solve(chol.T, y)


@dataclass(frozen=True)
class HumResult:
    """Boundary control series steering a component, with its residual."""

    controls: BoundaryControls
    residual: float
    final_state: StateField
    trajectory: np.ndarray
    times: np.ndarray


def _control_channels(spec: SystemSpec, tag: PositionTag) -> list[tuple[str, int]]:
    m, p = spec.m, spec.p
    left = [("left", j) for j in range(p)]
    right = [("right", i) for i in range(m)]
    if tag is PositionTag.TOUCHES_LEFT:
        return right
    if tag is PositionTag.TOUCHES_RIGHT:
        return left
    return left + right


def _series_from_vector(channels, vec, n_steps, m, p) -> BoundaryControls:
    u = vec.reshape(len(channels), n_steps)
    left = np.zeros((n_steps, p))
    right = np.zeros((n_steps, m))
    has_left = has_right = False
    for row, (end, comp) in enumerate(channels):
        if end == "left":
            left[:, comp] = u[row]
            has_left = True
        else:
            right[:, comp] = u[row]
            has_right = True
    return BoundaryControls(left if has_left else None, right if has_right else None)


def hum_boundary_control(spec: SystemSpec, interval: Interval,
                         y0_vals: np.ndarray, y1_vals: np.ndarray,
                         grid: Grid, T: float, cfl: float = 0.9,
                         regularization: float = HUM_REGULARIZATION) -> HumResult:
    """Boundary control steering y0 to y1 on one complement component.

    Minimizes |A U + b - y1|^2_L2 + regularization |U|^2_L2 over control
    series U, where A is the input-to-final-state map of the subinterval
    solver with zero initial data and b the free evolution of y0.  Because
    the step operator does not depend on time, the columns of A are time
    shifts of one impulse response per control channel.

    Exact steering needs a horizon above the component's boundary-control
    time (with some margin); below it the residual stays bounded away from
    zero under refinement, which is itself the threshold-sharpness
    diagnostic, so short horizons run normally and simply report a large
    residual.
    """
    tag = interval.tag
    dt = cfl_dt(spec, grid, cfl, T)
    n_steps = int(round(T / dt))
    channels = _control_channels(spec, tag)
    m, p = spec.m, spec.p
    nstate = spec.n * grid.n_cells

    zero0 = StateField(np.zeros((spec.n, grid.n_cells)), grid)

    def run(controls, y0):
        return solve_boundary_forward(spec, interval, y0, controls, T, cfl)

    def unit_series(end, comp):
        left = np.zeros((n_steps, p)) if tag is not PositionTag.TOUCHES_LEFT else None
        right = np.zeros((n_steps, m)) if tag is not PositionTag.TOUCHES_RIGHT else None
        (left if end == "left" else right)[0, comp] = 1.0
        return BoundaryControls(left, right)

    a_mat = np.empty((nstate, len(channels) * n_steps))
    for row, (end, comp) in enumerate(channels):
        impulse = run(unit_series(end, comp), zero0)
        # impulse.trajectory[s+1] is the state s steps after the unit ghost,
        # so the control applied during step j surfaces at T as entry
        # trajectory[n_steps - j].
        cols = impulse.trajectory[n_steps - np.arange(n_steps)]
        a_mat[:, row * n_steps:(row + 1) * n_steps] = \
            cols.reshape(n_steps, nstate).T

    free = run(BoundaryControls(np.zeros((n_steps, p)), np.zeros((n_steps, m))),
               StateField(y0_vals, grid))
    target = (np.asarray(y1_vals, dtype=float) - free.final.values).reshape(nstate)

    dx = grid.dx
    normal = dx * (a_mat.T @ a_mat)
    normal[np.diag_indices_from(normal)] += regularization * dt
    rhs = dx * (a_mat.T @ target)
    vec = _solve_normal_equations(normal, rhs)

    controls = _series_from_vector(channels, vec, n_steps, m, p)
    controlled = run(controls, StateField(y0_vals, grid))
    residual = _l2(controlled.final.values - np.asarray(y1_vals, dtype=float), dx)
    return HumResult(controls, residual, controlled.final,
                     controlled.trajectory, controlled.times)


def _interp_component(traj: np.ndarray, times: np.ndarray, grid_i: Grid,
                      t: float, xq: np.ndarray) -> np.ndarray:
    """Bilinear sample of a component trajectory at one global time and the
    global cell centers inside the component (clamped at the edges)."""
    dt_i = times[1] - times[0] if times.size > 1 else 1.0
    s = min(max(t / dt_i, 0.0), times.size - 1.0)
    s0 = int(s)
    w = s - s0
    state = traj[s0] if w == 0.0 else (1.0 - w) * traj[s0] + w * traj[s0 + 1]
    return np.stack([np.interp(xq, grid_i.centers, state[k])
                     for k in range(state.shape[0])])


def _shrunk_core(spec: SystemSpec, bound: float) -> ControlDomain:
    """The widest margin-shrink of omega whose complement components all
    stay below `bound` of boundary-control time.

    Each merged piece (a, b) of omega shrinks to (a+gamma, b-gamma); the
    complement components grow by gamma per touching side, so their times
    exceed those of omega's own components by at most a multiple of gamma.
    The margin starts at a quarter of the narrowest piece and halves until
    the directly evaluated bound holds.  Wide margins matter numerically:
    they become the cut-off transition zones, and sub-cell zones make the
    glued control unresolvable on the grid.
    """
    pieces = spec.omega.merged_closure()
    gamma = min(0.25 * (b - a) for a, b in pieces)
    for _ in range(60):
        region = ControlDomain(tuple((a + gamma, b - gamma) for a, b in pieces))
        worst = max(boundary_control_time(spec, iv).value
                    for iv in region.complement_components())
        if worst <= bound:
            return region
        gamma *= 0.5
    raise RuntimeError("bisection for the shrink margin exhausted 60 halvings")


def assemble_internal_control(spec: SystemSpec, y0_fn, y1_fn, T: float,
                              grid: Grid, epsilon: float | None = None,
                              cfl: float = 0.9) -> SynthesisReport:
    """Steer y0 to y1 with a control supported in omega, for any horizon
    above the minimal control time (two-step margin).

    Construction: shrink omega to a compactly contained finite union whose
    complement components are all controllable within T, steer each
    component by boundary least squares (y_out), steer the whole domain by
    the forward/backward blend (y_in), and glue with the space cut-off.
    ``epsilon`` optionally caps the extra control time granted to the
    components; by default almost the whole margin above the minimal time
    is spent on them, keeping the shrink margins (and hence the cut-off
    transition zones) as wide as possible.  Delegates to
    ``synthesize_full_domain`` when the closure of omega covers [0, 1].
    """
    base = minimal_control_time(spec)
    if not base.finite:
        raise ValueError("coupling matrices must be invertible")
    if base.covers_all:
        return synthesize_full_domain(spec, y0_fn, y1_fn, T, grid, cfl)

    tau_max = base.value
    dt_global = cfl_dt(spec, grid, cfl, T) if T > 0 else 0.0
    if not T > tau_max + 2.0 * dt_global:
        raise BelowThresholdError(T, tau_max)

    # leave a horizon margin for the component steering, spend the rest
    margin = max(4.0 * dt_global, 0.05 * (T - tau_max))
    slack = max(T - tau_max - margin, 0.5 * (T - tau_max))
    if epsilon is not None:
        slack = min(slack, epsilon)
    refined_region = _shrunk_core(spec, tau_max + slack)
    cutoff = SpaceCutoff.between(refined_region, spec.omega)

    y0f = sample_state(y0_fn, grid, spec.n)
    y1f = sample_state(y1_fn, grid, spec.n)
    u_in, y_in, dt, n_steps = _glue_full_domain(spec, y0f, y1f, T, grid, cfl)
    times = np.arange(n_steps + 1) * dt

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
        xq = grid.centers[inside]
        for j, t in enumerate(times):
            y_out[j][:, inside] = _interp_component(hum.trajectory, hum.times,
                                                    grid_i, t, xq)

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
