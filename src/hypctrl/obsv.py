"""Observability certification: Gramian sweeps and the blow-up family.

The discrete observability Gramian is the quadratic form

    z1  ->  sum_t dt sum_{cells in omega} dx |z(t, x)|^2

over adjoint solutions with final datum z1.  Its smallest eigenvalue with
respect to the dx-weighted norm is positive exactly when the discrete
observability inequality holds, so sweeping it over horizons locates the
controllability threshold numerically.  The windows [T - k dt, T] are
nested, so one backward Stein recurrence (``_gramian_windows``) serves every
horizon of a sweep.  Its one-step operator is read off a few colored probe
columns, and its nonzero pattern fixes the finest block partition the
recurrence keeps; each horizon's sigma_min is the least over the blocks:
1x1 blocks straight off the diagonal, larger blocks one ``eigvalsh`` call
per stack of equal size (a dense Gramian is the one-block case).

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
from types import SimpleNamespace

import numpy as np

from .canon import canonical_form
from .model import (BelowThresholdError, ConfigError, ControlDomain, Interval,
                    RankError, SpeedProfile, SystemSpec)
from .pde import (NAN_CHECK_EVERY, Grid, StateField, _adjoint_marcher, _check_bytes,
                  _check_horizon, _check_work, _march, _resolve_steps, _slopes_at)
from .times import characteristic_position, characteristic_time, travel_time

# ``detect_threshold``'s cut: sigma_min below this share of the last horizon's
THRESHOLD_REL = 1e-3


@dataclass(frozen=True)
class GramianSweepResult:
    """(T, sigma_min) pairs over a horizon grid, smallest first."""

    points: tuple[tuple[float, float], ...]
    dt: float
    snapped_times: tuple[float, ...]


def _gramian_plan(spec: SystemSpec, grid: Grid, dt: float, last: int, horizons: int = 1):
    """The record of a recurrence of ``last`` steps of ``dt``, its resolved
    grid, read at up to ``horizons`` distinct steps: one-step operator
    (rows, vals) and block partition, refused on its three nstate^2 buffers
    and its per-horizon results before the probes, then with 3 copies of
    the largest gathered block stack, then on the recurrence's work and on
    the reads of its horizons (a finiteness check, and an eigensolve or a
    diagonal read per block, each)."""
    nstate, distinct = spec.n * grid.n_cells, min(horizons, last)
    # a horizon's result holds about 220 B of tuples and floats
    what = f"Gramian sweep of {distinct} horizons over {nstate}^2 values"
    size = 8 * 3 * nstate ** 2 + 220 * distinct
    _check_bytes(what, size)
    rows, vals = _one_step_operator(spec, grid, dt)
    blocks = _block_partition(rows, vals)
    _check_bytes(what, size + 24 * max(
        (idx.size * idx.shape[1] for idx in blocks if idx.shape[1] > 1), default=0))
    _check_work(f"Gramian recurrence of {last - 1} steps of {2 * rows.shape[0]} gathers "
                f"over {nstate}^2 values", (last - 1) * 2 * rows.shape[0] * nstate ** 2)
    _check_work(f"Gramian reads of {distinct} horizons over {nstate}^2 values", distinct * (
        nstate ** 2 + sum(idx.shape[0] * idx.shape[1] ** 3 for idx in blocks)))
    return SimpleNamespace(dt=dt, last=last, rows=rows, vals=vals, blocks=blocks)


def _gramian_windows(spec: SystemSpec, omega: ControlDomain, grid: Grid, stops, plan):
    """Yield ``(k, gram)`` for the window [T - k dt, T] of each k of the
    ascending ``stops``, the last of them the last step of ``plan``: ``gram``
    is the running buffer, not symmetrized and overwritten by the next step.
    ``plan`` is the caller's ``_gramian_plan``: the one resolution of dt and
    steps that its guard checked drives the recurrence, and its ``blocks``
    partition keeps every window block-diagonal.

    The windows are nested and obey the backward Stein recurrence

        G_1 = w P,    G_{k+1} = w P + A^T G_k A,

    with w = dt * dx, P the 0/1 diagonal of the cells of omega and A the
    column-sparse one-step adjoint operator of ``_one_step_operator``: A^T G A
    costs K row gathers and K column gathers, K the most nonzeros in a
    column of A, so a step is O(K * nstate^2) on three nstate^2 buffers.
    """
    rows, vals, last = plan.rows, plan.vals, plan.last
    nstate = rows.shape[1]
    diag = np.flatnonzero(np.tile(omega.contains_points(grid.centers), spec.n)) * (nstate + 1)
    w = plan.dt * grid.dx
    gram = np.zeros((nstate, nstate))
    gram.flat[diag] = w
    nxt = np.empty_like(gram)
    part = np.empty_like(gram)
    i = 0
    for k in range(1, last + 1):
        if (k % NAN_CHECK_EVERY == 0 or k == stops[i]) and not np.isfinite(gram).all():
            raise RuntimeError(f"Gramian lost finiteness at step {k}")
        if k == stops[i]:
            yield k, gram
            i += 1
        if k == last:
            break
        _gather(gram, rows, vals, 0, nxt, part)     # A^T G
        _gather(nxt, rows, vals, 1, gram, part)     # (A^T G) A
        gram.flat[diag] += w


def _one_step_operator(spec: SystemSpec, grid: Grid,
                       dt: float) -> tuple[np.ndarray, np.ndarray]:
    """The one-step adjoint operator A as the row indices and values of the
    nonzeros of each column, two (K, nstate) arrays, K the most nonzeros in
    a column: the nonzero rows ascending, then as padding the smallest rows
    where the column holds zeros, so the padding adds nothing.

    A is read off one ``_march`` step of 3n colored probe columns (Curtis,
    Powell and Reid, IMA J. Appl. Math. 13, 1974) and never built densely.
    Probe (k, c) holds ones at the cells x = c (mod 3) of component k.  A
    step couples cell x only with cells x - 1 to x + 1 (the upwind stencil,
    the source at one cell, the reflections between the components of one
    end cell), so the probe's entry at row (i, x) is the entry of the one
    column (k, x') of A with x' = c (mod 3) and |x - x'| <= 1, and the 3n
    rows (i, x' - 1 .. x' + 1) of column (k, x') hold all its nonzeros.
    """
    n, nx = spec.n, grid.n_cells
    cells, comps = np.arange(nx), np.arange(n)[:, None]
    probes = np.zeros((n, nx, n, 3))
    probes[comps, cells, comps, cells % 3] = 1.0
    out = _march(_adjoint_marcher(spec, grid, dt), probes.reshape(n, nx, 3 * n), 1)
    # candidate (i, d) of column (k, x') is row (i, x' + d - 1), so the 3n
    # candidates of a column ascend
    near = cells + np.array([-1, 0, 1])[:, None]
    inside = (near >= 0) & (near < nx)
    near = np.clip(near, 0, nx - 1)
    cand = out.reshape(n, nx, n, 3)[:, near[:, None], comps, cells % 3]
    cand = np.where(inside[:, None], cand, 0.0).reshape(3 * n, n * nx)
    cand_rows = np.broadcast_to(comps[:, :, None, None] * nx + near[:, None],
                                (n, 3, n, nx)).reshape(3 * n, n * nx)

    nonzero = cand != 0.0
    count = nonzero.sum(axis=0)
    slot = np.arange(int(count.max()))[:, None]
    first = np.argsort(~nonzero, axis=0, kind="stable")[:slot.size]
    nz_rows = np.take_along_axis(cand_rows, first, axis=0)
    real = slot < count
    # a column with c nonzeros pads with the K - c smallest rows holding none
    # of them, all below K
    held = ((slot[:, None] == nz_rows) & real).any(axis=1)
    free = np.argsort(held, axis=0, kind="stable")
    rows = np.where(real, nz_rows,
                    np.take_along_axis(free, np.maximum(slot - count, 0), axis=0))
    return rows, np.where(real, np.take_along_axis(cand, first, axis=0), 0.0)


def _block_partition(rows: np.ndarray, vals: np.ndarray) -> list[np.ndarray]:
    """The finest partition of the states for which A^T X A is
    block-diagonal whenever X is, for the column-sparse A of
    ``_one_step_operator``: one (count, size) array of state indices per
    block size, a block per row, ascending.  A dense Gramian is the one
    block ``arange(nstate)``.

    Entry (i, j) of A^T X A can be nonzero only where columns i and j of A
    have nonzeros in one block of X, so those columns must share a block.
    Blocks are labeled by their least state and merged from singletons on
    until no label drops.
    """
    nstate = rows.shape[1]
    nonzero = vals != 0.0
    cols = np.broadcast_to(np.arange(nstate), rows.shape)[nonzero]
    hits = rows[nonzero]
    label = np.arange(nstate)
    while True:
        # the columns meeting a block drop to the least label among them ...
        block = label[hits]
        least = np.full(nstate, nstate)
        np.minimum.at(least, block, label[cols])
        merged = label.copy()
        np.minimum.at(merged, cols, least[block])
        # ... and every block to the least label of its states, which drops
        # to that label's own label
        least = np.full(nstate, nstate)
        np.minimum.at(least, label, merged)
        merged = least[label]
        merged = merged[merged]
        if np.array_equal(merged, label):
            break
        label = merged
    size = np.bincount(label)[label]
    order = np.lexsort((label, size))  # by size, then block, then state
    size = size[order]
    return [order[size == s].reshape(-1, s) for s in np.flatnonzero(np.bincount(size))]


def _gather(x: np.ndarray, rows: np.ndarray, vals: np.ndarray, axis: int,
            out: np.ndarray, part: np.ndarray):
    """out = A^T x (axis 0) or x A (axis 1) for the column-sparse A of
    ``_one_step_operator``: row (column) i of out sums vals[q, i] times row
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


def sigma_min_sweep(spec: SystemSpec, t_list, omega: ControlDomain, grid: Grid,
                    cfl: float = 1.0, plan=None) -> GramianSweepResult:
    """Smallest Gramian eigenvalue (dx-weighted) for each horizon in t_list.

    One recurrence serves all horizons: the Gramian windows are nested, so
    the running Gramian is read whenever its window reaches a requested
    horizon (each horizon snaps to the shared step grid; the snapped values
    are reported alongside).  It is block-diagonal under the partition of
    ``_block_partition``, so sigma_min is the least eigenvalue over the
    blocks: the diagonal entry of each 1x1 block, and one batched
    ``eigvalsh`` per size of the larger blocks, each block symmetrized
    alone.  A dense Gramian is the one-block case and gets the same
    ``eigvalsh`` call on the same matrix as a whole-matrix solve.  ``plan``
    is the ``_gramian_plan`` of the last horizon's (dt, n_steps), for a
    caller that resolved and sized the sweep before building its horizons;
    without one the sweep resolves and plans its last horizon here, once,
    and the horizons snap to the plan's dt.
    """
    ts = np.asarray(t_list, dtype=float)
    if ts.ndim != 1 or not ts.size or np.any(np.diff(ts) <= 0.0):
        raise ConfigError("horizons must be a nonempty, strictly increasing list")
    bad = ~(np.isfinite(ts) & (ts > 0.0))
    if bad.any():  # the first bad horizon names the error
        _check_horizon(float(ts[bad.argmax()]), positive=True)

    plan = plan or _gramian_plan(spec, grid, *_resolve_steps(spec, grid, float(ts[-1]), cfl),
                                 ts.size)
    dt, blocks = plan.dt, plan.blocks
    steps = np.maximum(1.0, np.rint(ts / dt))
    stops, where = np.unique(steps, return_inverse=True)
    sigma = np.empty(stops.size)
    for i, (_, gram) in enumerate(_gramian_windows(spec, omega, grid, stops, plan)):
        # 1x1 blocks (the first stack, if any) are their own eigenvalues
        lows = [gram.diagonal()[idx[:, 0]].min() for idx in blocks if idx.shape[1] == 1]
        lows += [np.linalg.eigvalsh(0.5 * (sub + sub.transpose(0, 2, 1)))[:, 0].min()
                 for sub in (gram[idx[:, :, None], idx[:, None, :]]
                             for idx in blocks if idx.shape[1] > 1)]
        sigma[i] = min(lows) / grid.dx
    return GramianSweepResult(tuple(zip(ts.tolist(), sigma[where].tolist())), dt,
                              tuple((steps * dt).tolist()))


def detect_threshold(sweep: GramianSweepResult) -> float | None:
    """Largest horizon whose sigma_min is below ``THRESHOLD_REL`` times the
    final one.

    Discretization smears the controllability jump; a relative criterion is
    robust across grids.  None when even the first horizon is observable, or
    when the sweep carries no contrast at all (sigma_min at the largest
    horizon at roundoff level: damping below Courant 1 swallowed the data).
    """
    ref = sweep.points[-1][1]
    if ref <= 1e-12:
        return None
    below = [t for t, s in sweep.points if s < THRESHOLD_REL * ref]
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
    if not (np.isfinite(values).all() and np.any(values)):
        raise RuntimeError(f"the witness datum for nu = {nu} underflows on "
                           f"{grid.n_cells} cells")
    return StateField(values, grid), support_hi


def necessity_horizon(spec: SystemSpec) -> float:
    """The longer of the two full crossing times, of the first and of the
    last component: the shortest horizon ``necessity_witness`` accepts."""
    full = Interval(0.0, 1.0)
    return max(travel_time(spec, 0, full), travel_time(spec, spec.n - 1, full))


def necessity_witness(spec: SystemSpec, nu: int, T: float, grid: Grid,
                      cfl: float = 1.0) -> NecessityWitness:
    """Build the nu-th blow-up datum, march the adjoint, and measure the
    ratio |z1|^2 / (sum_t dt |z(t)|^2) over the full domain.

    Requires nu >= 1, a finite positive horizon (else ``ConfigError``), a
    rank-deficient Q0 (else ``RankError``), a source equal to minus the speed
    slope (else ``ConfigError``; the adjoint is then pure transport), and
    T >= ``necessity_horizon(spec)`` (else ``BelowThresholdError``).  A nu
    whose datum underflows to zero on the grid (or is not finite), or
    whose ratio is not finite, raises ``RuntimeError`` and returns no nan.
    """
    if nu < 1:
        raise ValueError("nu must be at least 1")
    dt, n_steps = _resolve_steps(spec, grid, T, cfl, positive=True)
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

    squares, z_minus_max = 0.0, 0.0

    def reduce(j0, states):
        # the final state enters only the maximum
        nonlocal squares, z_minus_max
        squares += np.vdot(states[:n_steps - j0], states[:n_steps - j0])
        z_minus_max = max(z_minus_max, float(np.abs(states[:, :m]).max()))

    _march(_adjoint_marcher(spec, grid, dt), z1.values, n_steps, on_chunk=reduce)
    ratio = float(np.sum(z1.values ** 2)) / (dt * float(squares))
    if not np.isfinite(ratio):
        raise RuntimeError(f"the witness ratio for nu = {nu} is not finite")
    return NecessityWitness(z1, ratio, z_minus_max, support_hi)


@dataclass(frozen=True)
class NecessitySweep:
    points: tuple[tuple[int, float], ...]

    @property
    def blowup_factor(self) -> float:
        ratios = [r for _, r in self.points]
        return max(ratios) / min(ratios)


def necessity_sweep(spec: SystemSpec, nu_list, T: float, grid: Grid,
                    cfl: float = 1.0) -> NecessitySweep:
    """Ratios for a nonempty list of exponents (else ``ConfigError``); the
    blow-up factor max/min certifies that no observability constant can
    exist."""
    points = tuple((int(nu), necessity_witness(spec, int(nu), T, grid, cfl).ratio)
                   for nu in nu_list)
    if not points:
        raise ConfigError("exponents must be a nonempty list")
    return NecessitySweep(points)
