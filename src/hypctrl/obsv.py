"""Observability certification: Gramian sweeps and the blow-up family.

The discrete observability Gramian is the quadratic form

    z1  ->  sum_t dt sum_{cells in omega} dx |z(t, x)|^2

over adjoint solutions with final datum z1.  Its smallest eigenvalue with
respect to the dx-weighted norm is positive exactly when the discrete
observability inequality holds, so sweeping it over horizons locates the
controllability threshold numerically.

The certification is crisp when every component marches at Courant number 1
(speeds of equal magnitude): the discrete evolution is then exact and
sigma_min vanishes identically below the threshold.  With unequal speed
magnitudes the slower components are damped, every grid-scale datum decays
before reaching omega, and the sweep degenerates to a diagnostic
(``detect_threshold`` reports the missing contrast as None).

When a coupling matrix is rank deficient no observability constant can
exist.  ``necessity_witness`` builds the explicit family certifying this:
a unit vector in the kernel of the transposed x=0 reflection of the adjoint
system feeds final data whose positive components ride a profile
f(s) = ((Tn - s)/Tn)^nu; the ratio |z1|^2 / integral |z|^2 then grows like
nu + 1 without bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .canon import canonical_form
from .model import ControlDomain, Interval, SpeedProfile, SystemSpec
from .pde import (Grid, StateField, _adjoint_marcher, _march, _slopes_at,
                  adjoint_reflection, cfl_dt)
from .times import characteristic_position, characteristic_time, travel_time

GRAMIAN_STATE_LIMIT = 4000


@dataclass(frozen=True)
class GramianSweepResult:
    """(T, sigma_min) pairs over a horizon grid, smallest first."""

    points: tuple[tuple[float, float], ...]
    omega: ControlDomain
    grid: Grid
    dt: float
    snapped_times: tuple[float, ...]

    @property
    def sigma_min(self) -> np.ndarray:
        return np.array([s for _, s in self.points])


def _gramian_windows(spec: SystemSpec, omega: ControlDomain, grid: Grid,
                     dt: float, stops: set[int], on_window):
    """March every basis final datum of the adjoint at once, summing
    dt * dx * |z|^2 over the cells of omega before each step; after k steps,
    for each k in ``stops``, hand the symmetrized sum (the Gramian of the
    window [T - k dt, T]) to ``on_window(k, gram)``."""
    n, nx = spec.n, grid.n_cells
    nstate = n * nx
    if nstate > GRAMIAN_STATE_LIMIT:
        raise ValueError(f"state dimension {nstate} exceeds the Gramian guard "
                         f"({GRAMIAN_STATE_LIMIT})")
    mask = np.tile(omega.contains_points(grid.centers), n)
    w = dt * grid.dx
    gram = np.zeros((nstate, nstate))

    def accumulate(s, z):
        nonlocal gram
        zm = z.reshape(nstate, nstate)[mask]
        gram += w * (zm.T @ zm)
        if s + 1 in stops:
            on_window(s + 1, 0.5 * (gram + gram.T))

    basis = np.eye(nstate).reshape(n, nx, nstate)
    _march(_adjoint_marcher(spec, grid, dt), basis, max(stops), visit=accumulate)


def observability_gramian(spec: SystemSpec, T: float, omega: ControlDomain,
                          grid: Grid, cfl: float = 1.0) -> np.ndarray:
    """Assemble the Gramian by propagating every basis final datum at once.

    The form sums dt * dx * |z|^2 over the cells of omega and the time steps
    of [0, T), anchored at the final time; the result is symmetrized.

    The default Courant factor is 1 (not the solvers' 0.9): below 1 the
    upwind damping wipes out grid-scale data before they reach omega, which
    drives sigma_min to zero at every horizon and hides the threshold.
    """
    if T <= 0.0:
        raise ValueError("horizon must be positive")
    dt = cfl_dt(spec, grid, cfl, T)
    grams = []
    _gramian_windows(spec, omega, grid, dt, {int(round(T / dt))},
                     lambda k, gram: grams.append(gram))
    return grams[0]


def sigma_min_sweep(spec: SystemSpec, t_list, omega: ControlDomain, grid: Grid,
                    cfl: float = 1.0) -> GramianSweepResult:
    """Smallest Gramian eigenvalue (dx-weighted) for each horizon in t_list.

    One adjoint propagation serves all horizons: the Gramian windows are
    nested, so partial sums are snapshotted whenever the accumulated window
    reaches a requested horizon (each horizon snaps to the shared step grid;
    the snapped values are reported alongside).
    """
    t_list = [float(t) for t in t_list]
    if not t_list or t_list[0] <= 0.0 or any(t2 <= t1 for t1, t2 in zip(t_list, t_list[1:])):
        raise ValueError("horizons must be a nonempty, positive, strictly increasing list")

    dt = cfl_dt(spec, grid, cfl, t_list[-1])
    targets = [max(1, int(round(t / dt))) for t in t_list]
    sigmas: dict[int, float] = {}

    def smallest_eigenvalue(k, gram):
        sigmas[k] = float(np.linalg.eigvalsh(gram)[0] / grid.dx)

    _gramian_windows(spec, omega, grid, dt, set(targets), smallest_eigenvalue)
    points = tuple((t, sigmas[k]) for t, k in zip(t_list, targets))
    snapped = tuple(k * dt for k in targets)
    return GramianSweepResult(points, omega, grid, dt, snapped)


def detect_threshold(sweep: GramianSweepResult, rel: float = 1e-3) -> float | None:
    """Largest horizon whose sigma_min is below rel times the final one.

    Discretization smears the controllability jump; a relative criterion is
    robust across grids.  None when even the first horizon is observable, or
    when the sweep carries no contrast at all (sigma_min at the largest
    horizon at roundoff level, which happens when some component marches
    below Courant number 1 and damping swallows the grid-scale data).
    """
    ref = sweep.points[-1][1]
    if ref <= 1e-12:
        return None
    below = [t for t, s in sweep.points if s < rel * ref]
    return max(below) if below else None


def kernel_vector(q0, speeds: SpeedProfile) -> np.ndarray | None:
    """Unit vector annihilated by the transposed x=0 reflection of the
    adjoint system, or None when that reflection has full rank.

    With L R U = canonical, column c of U spans a kernel direction of R
    whenever c holds no pivot; the first such column is taken.  The rank is
    decided by ``canonical_form`` with ``canon.PIVOT_RTOL``, the tolerance
    of the Q0 rank check in ``necessity_witness``.
    """
    q0 = np.atleast_2d(np.asarray(q0, dtype=float))
    dec = canonical_form(adjoint_reflection(speeds, q0, 0.0).T)
    free = sorted(set(range(dec.upper.shape[1])) - {c for _, c in dec.pivots})
    if not free:
        return None
    x = dec.upper[:, free[0]].astype(float)
    return x / np.linalg.norm(x)


@dataclass(frozen=True)
class NecessityWitness:
    """One member of the family disproving the observability inequality."""

    nu: int
    eta: np.ndarray
    z1: StateField
    ratio: float
    z_minus_max: float
    support_hi: tuple[float, ...]


def _witness_final_datum(spec: SystemSpec, nu: int, grid: Grid,
                         eta: np.ndarray) -> tuple[StateField, tuple[float, ...]]:
    m, p, n = spec.m, spec.p, spec.n
    t_fast = travel_time(spec, n - 1, Interval(0.0, 1.0))
    active = [j for j in range(p) if eta[j] != 0.0]

    def g_squared(tvals: np.ndarray) -> np.ndarray:
        # invert the profile relation: with f(s) = ((Tn - s)/Tn)^nu the
        # datum must satisfy  g(t)^2 * sum_j eta_j^2 lambda_{m+j}(x_j(t)) = -f'(t)
        minus_fprime = (nu / t_fast) * ((t_fast - tvals) / t_fast) ** (nu - 1)
        denom = np.zeros_like(tvals)
        for j in active:
            pos = np.array([characteristic_position(spec, m + j, t) for t in tvals])
            denom += eta[j] ** 2 * np.asarray(spec.speeds.value(m + j, pos))
        return minus_fprime / denom

    values = np.zeros((n, grid.n_cells))
    support_hi = []
    for j in range(p):
        x_max = characteristic_position(spec, m + j, t_fast)
        support_hi.append(x_max)
        if eta[j] == 0.0:
            continue
        inside = grid.centers < x_max
        tvals = np.array([characteristic_time(spec, m + j, x)
                          for x in grid.centers[inside]])
        values[m + j, inside] = np.sqrt(g_squared(tvals)) * eta[j]
    return StateField(values, grid, 0.0), tuple(support_hi)


def necessity_witness(spec: SystemSpec, nu: int, T: float, grid: Grid,
                      cfl: float = 1.0) -> NecessityWitness:
    """Build the nu-th blow-up datum, march the adjoint, and measure the
    ratio |z1|^2 / (sum_t dt |z(t)|^2) over the full domain.

    Requires a rank-deficient Q0, a source equal to minus the speed slope
    (so the adjoint is pure transport), nu >= 1, and a horizon at least the
    largest one-way crossing time.
    """
    if nu < 1:
        raise ValueError("nu must be at least 1")
    m, p, n = spec.m, spec.p, spec.n
    if canonical_form(spec.couplings.q0).rank >= p:
        raise ValueError("Q0 has full row rank: no kernel datum exists")
    slopes = _slopes_at(spec, grid)
    msrc = spec.source.at_points(grid.centers)
    diag = msrc[:, np.arange(n), np.arange(n)].T
    off = msrc.copy()
    off[:, np.arange(n), np.arange(n)] = 0.0
    if np.max(np.abs(diag + slopes)) > 1e-12 or np.any(off):
        raise ValueError("source must equal minus the speed slope (diagonal)")
    t_slow = travel_time(spec, 0, Interval(0.0, 1.0))
    t_fast = travel_time(spec, n - 1, Interval(0.0, 1.0))
    if T < max(t_slow, t_fast) - 1e-12:
        raise ValueError(f"horizon {T} below the required {max(t_slow, t_fast)}")

    eta = kernel_vector(spec.couplings.q0, spec.speeds)
    z1, support_hi = _witness_final_datum(spec, nu, grid, eta)

    dt = cfl_dt(spec, grid, cfl, T)
    n_steps = int(round(T / dt))
    dx = grid.dx
    denom = 0.0
    z_minus_max = 0.0

    def observe(s, z):
        nonlocal denom, z_minus_max
        denom += dt * dx * float(np.sum(z ** 2))
        z_minus_max = max(z_minus_max, float(np.max(np.abs(z[:m]))))

    z, _ = _march(_adjoint_marcher(spec, grid, dt), z1.values, n_steps, visit=observe)
    z_minus_max = max(z_minus_max, float(np.max(np.abs(z[:m]))))

    num = dx * float(np.sum(z1.values ** 2))
    return NecessityWitness(nu, eta, z1, num / denom, z_minus_max, support_hi)


@dataclass(frozen=True)
class NecessitySweep:
    points: tuple[tuple[int, float], ...]

    @property
    def blowup_factor(self) -> float:
        ratios = [r for _, r in self.points]
        return max(ratios) / min(ratios)


def necessity_sweep(spec: SystemSpec, nu_list, T: float, grid: Grid,
                    cfl: float = 1.0) -> NecessitySweep:
    """Ratios for a list of exponents; the blow-up factor max/min certifies
    that no observability constant can exist."""
    points = tuple((int(nu), necessity_witness(spec, int(nu), T, grid, cfl).ratio)
                   for nu in nu_list)
    return NecessitySweep(points)
