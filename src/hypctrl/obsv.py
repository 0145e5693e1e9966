"""Observability certification: Gramian sweeps and the blow-up family.

The discrete observability Gramian is the quadratic form

    z1  ->  sum_t dt sum_{cells in omega} dx |z(t, x)|^2

over adjoint solutions with final datum z1.  Its smallest eigenvalue with
respect to the dx-weighted norm is positive exactly when the discrete
observability inequality holds, so sweeping it over horizons locates the
controllability threshold numerically.  The windows [T - k dt, T] are
nested, so one backward Stein recurrence (``_gramian_windows``) serves every
horizon of a sweep, plus one ``eigvalsh`` per horizon.

The certification is crisp only at Courant number exactly 1 for every
component: the discrete evolution is then exact and sigma_min vanishes
identically below the threshold.  Unequal speed magnitudes put slower
components below 1, and so does ``cfl_dt`` unless the largest horizon is a
whole number of dx / max|lambda| steps; the sweep then degrades to a
diagnostic (``detect_threshold`` reports the missing contrast as None).

When a coupling matrix is rank deficient no observability constant can
exist.  ``necessity_witness`` builds the explicit family certifying this:
a unit vector in the kernel of the transposed x=0 reflection of the adjoint
system, read off the canonical form of Q0, feeds final data whose positive
components ride a profile f(s) = ((Tn - s)/Tn)^nu; the ratio
|z1|^2 / integral |z|^2 then grows like nu + 1 without bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .canon import canonical_form
from .model import (BelowThresholdError, ConfigError, ControlDomain, Interval,
                    RankError, SpeedProfile, SystemSpec)
from .pde import (NAN_CHECK_EVERY, Grid, StateField, _adjoint_marcher, _march,
                  _slopes_at, cfl_dt)
from .times import characteristic_position, characteristic_time, travel_time

GRAMIAN_STATE_LIMIT = 4000
WITNESS_CHUNK = 64


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
    """Hand the Gramian of each window [T - k dt, T], k in ``stops``, to
    ``on_window(k, gram)``, symmetrized.

    The windows are nested and obey the backward Stein recurrence

        G_1 = w P,    G_{k+1} = w P + A^T G_k A,

    with w = dt * dx, P the 0/1 diagonal of the cells of omega and A the
    one-step adjoint operator, built once by one ``_march`` step of the
    identity batch.  Each column of A holds at most K nonzeros (the upwind
    stencil, the reflections at the ends, the source), so A is kept
    column-sparse and A^T G A costs K row gathers and K column gathers: a
    step is O(K * nstate^2) on three nstate^2 buffers.
    """
    n, nx = spec.n, grid.n_cells
    nstate = n * nx
    if nstate > GRAMIAN_STATE_LIMIT:
        raise ValueError(f"state dimension {nstate} exceeds the Gramian guard "
                         f"({GRAMIAN_STATE_LIMIT})")
    step, _ = _march(_adjoint_marcher(spec, grid, dt),
                     np.eye(nstate).reshape(n, nx, nstate), 1)
    rows, vals = _column_sparse(step.reshape(nstate, nstate))
    del step  # dense A is not kept beside the three buffers below

    diag = np.flatnonzero(np.tile(omega.contains_points(grid.centers), n)) * (nstate + 1)
    w = dt * grid.dx
    gram = np.zeros((nstate, nstate))
    gram.flat[diag] = w
    nxt = np.empty_like(gram)
    part = np.empty_like(gram)
    last = max(stops)
    for k in range(1, last + 1):
        if (k % NAN_CHECK_EVERY == 0 or k in stops) and not np.isfinite(gram).all():
            raise RuntimeError(f"Gramian lost finiteness at step {k}")
        if k in stops:
            on_window(k, 0.5 * (gram + gram.T))
        if k == last:
            break
        _gather(gram, rows, vals, 0, nxt, part)     # A^T G
        _gather(nxt, rows, vals, 1, gram, part)     # (A^T G) A
        gram.flat[diag] += w


def _column_sparse(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row indices and values of the nonzeros of each column of ``a`` as
    (K, ncols) arrays, K the most nonzeros in a column; shorter columns are
    padded with rows where they hold zeros, so the padding adds nothing."""
    nonzero = a != 0.0
    k = int(nonzero.sum(axis=0).max())
    rows = np.argsort(~nonzero, axis=0, kind="stable")[:k]
    return rows, np.take_along_axis(a, rows, axis=0)


def _gather(x: np.ndarray, rows: np.ndarray, vals: np.ndarray, axis: int,
            out: np.ndarray, part: np.ndarray):
    """out = A^T x (axis 0) or x A (axis 1) for the column-sparse A of
    ``_column_sparse``: row (column) i of out sums vals[q, i] times row
    (column) rows[q, i] of x over q."""
    scale = [v[:, None] if axis == 0 else v[None, :] for v in vals]
    # the indices are in range; with out= the default mode="raise" costs
    # two to three times as much as mode="clip"
    np.take(x, rows[0], axis=axis, out=out, mode="clip")
    out *= scale[0]
    for q in range(1, rows.shape[0]):
        np.take(x, rows[q], axis=axis, out=part, mode="clip")
        part *= scale[q]
        out += part


def observability_gramian(spec: SystemSpec, T: float, omega: ControlDomain,
                          grid: Grid, cfl: float = 1.0) -> np.ndarray:
    """Assemble the Gramian of the window [0, T] by the recurrence of
    ``_gramian_windows``.

    The form sums dt * dx * |z|^2 over the cells of omega and the time steps
    of [0, T), anchored at the final time; the result is symmetrized.  The
    default Courant factor is 1, not the solvers' 0.9 (see the module note).
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

    One recurrence serves all horizons: the Gramian windows are nested, so
    the running Gramian is handed to one ``eigvalsh`` whenever its window
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
    horizon at roundoff level: damping below Courant 1 swallowed the data).
    """
    ref = sweep.points[-1][1]
    if ref <= 1e-12:
        return None
    below = [t for t, s in sweep.points if s < rel * ref]
    return max(below) if below else None


def kernel_vector(q0, speeds: SpeedProfile) -> np.ndarray | None:
    """Unit vector annihilated by R0^T = -Lambda_-(0)^-1 Q0^T Lambda_+(0),
    the transposed x=0 reflection of the adjoint system, or None when Q0 has
    full row rank: with L Q0 U canonical, L[r] Q0 = 0 for the first row r
    without a pivot, and the vector is L[r] / lambda_+(0), normalized."""
    dec = canonical_form(q0)
    free = sorted(set(range(dec.lower.shape[0])) - {r for r, _ in dec.pivots})
    if not free:
        return None
    x = dec.lower[free[0]].astype(float) / speeds.table[speeds.m:, 0]
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
    support_hi = tuple(characteristic_position(spec, m + j, t_fast) for j in range(p))
    values = np.zeros((n, grid.n_cells))
    for j in active:
        inside = grid.centers < support_hi[j]
        t = characteristic_time(spec, m + j, grid.centers[inside])
        # invert the profile relation: with f(s) = ((Tn - s)/Tn)^nu the
        # datum must satisfy  g(t)^2 * sum_i eta_i^2 lambda_{m+i}(x_i(t)) = -f'(t)
        minus_fprime = (nu / t_fast) * ((t_fast - t) / t_fast) ** (nu - 1)
        denom = sum(eta[i] ** 2 * spec.speeds.value(m + i, characteristic_position(spec, m + i, t))
                    for i in active)
        values[m + j, inside] = np.sqrt(minus_fprime / denom) * eta[j]
    return StateField(values, grid, 0.0), support_hi


def necessity_horizon(spec: SystemSpec) -> float:
    """The longer of the two full crossing times, of the first and of the
    last component: the shortest horizon ``necessity_witness`` accepts."""
    full = Interval(0.0, 1.0)
    return max(travel_time(spec, 0, full), travel_time(spec, spec.n - 1, full))


def necessity_witness(spec: SystemSpec, nu: int, T: float, grid: Grid,
                      cfl: float = 1.0) -> NecessityWitness:
    """Build the nu-th blow-up datum, march the adjoint, and measure the
    ratio |z1|^2 / (sum_t dt |z(t)|^2) over the full domain.

    Requires a rank-deficient Q0 (else ``RankError``), a source equal to minus
    the speed slope, so the adjoint is pure transport (else ``ConfigError``),
    nu >= 1, and a horizon of at least ``necessity_horizon(spec)`` (else
    ``BelowThresholdError``).
    """
    if nu < 1:
        raise ValueError("nu must be at least 1")
    m, n = spec.m, spec.n
    eta = kernel_vector(spec.couplings.q0, spec.speeds)
    if eta is None:
        raise RankError("Q0 has full row rank: no kernel datum exists")
    msrc, idx = spec.source.at_points(grid.centers), np.arange(n)
    off = msrc.copy()
    off[:, idx, idx] = 0.0
    if np.max(np.abs(msrc[:, idx, idx].T + _slopes_at(spec, grid))) > 1e-12 or np.any(off):
        raise ConfigError("source must equal minus the speed slope (diagonal)")
    t_need = necessity_horizon(spec)
    if T < t_need - 1e-12:
        raise BelowThresholdError(f"horizon {T} below the required {t_need}")

    z1, support_hi = _witness_final_datum(spec, nu, grid, eta)

    dt = cfl_dt(spec, grid, cfl, T)
    n_steps = int(round(T / dt))
    # the states before each step are buffered and reduced WITNESS_CHUNK at a time
    buf = np.empty((min(WITNESS_CHUNK, n_steps), n, grid.n_cells))
    squares, z_minus_max = 0.0, 0.0

    def reduce(rows: int):
        nonlocal squares, z_minus_max
        squares += np.vdot(buf[:rows], buf[:rows])
        z_minus_max = max(z_minus_max, float(np.abs(buf[:rows, :m]).max(initial=0.0)))

    def observe(s, z):
        buf[s % len(buf)] = z[:, :, 0]
        if s % len(buf) == len(buf) - 1:
            reduce(len(buf))

    z, _ = _march(_adjoint_marcher(spec, grid, dt), z1.values, n_steps, visit=observe)
    reduce(n_steps % len(buf))
    z_minus_max = max(z_minus_max, float(np.abs(z[:m]).max()))  # the final state
    ratio = float(np.sum(z1.values ** 2)) / (dt * float(squares))
    return NecessityWitness(nu, eta, z1, ratio, z_minus_max, support_hi)


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
