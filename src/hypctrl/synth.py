"""Control synthesis by cut-off gluing and boundary least squares.

Over the whole domain the system is time reversible (the couplings invert),
so steering y0 to y1 in any horizon T is a matter of blending the free
forward solution from y0 with the free backward solution into y1 through a
C^1 time cut-off eta (eta(0)=1, eta(T)=0):

    y = eta y_f + (1 - eta) y_b,      u = eta'(t) (y_f - y_b).

For a general control region the refined subregion (a finite union of
intervals compactly inside omega) splits (0, 1) into complement components;
each component, the run of the job's cells whose centres lie in it, marched
with the job's dt and steps, carries its own boundary-controlled solution
reaching y1 (HUM: regularized least squares on the discrete input-to-state
map, solved on the state side after one batched march of all the components
side by side, one normal system per group of state components that the
couplings and the source never link, equal-size ones stacked into one LU
solve and each product formed on rows scaled by an exact power of two, so
that only products of two entries below about 2^-1016 are subnormal; the
impulse responses also give the controlled solution at the glue's own cells
and steps, by superposition), and a C^1 space cut-off xi (0 on the refined
region, 1 outside an intermediate enlargement omega_1) glues the component
solutions y_out to the full-domain solution y_in:

    y = xi y_out + (1 - xi) y_in,
    u = xi'(x) Lambda(x) (y_out - y_in) + (1 - xi) u_in.

The free forward and backward solutions come from one march of a row of
two segments, the forward system and the backward one mirrored in space
(x -> 1 - x), handed over a chunk at a time into one buffer of n_steps + 1
states: each state is stored at its own time until the row passes the
midpoint, and from there on meets its stored partner, where the control is
formed in place.  The control is supported in omega, needs y_out and y_in
only where xi' != 0, and is the buffer's first n_steps states; its peak
memory is checked before the first march, and its re-simulation verifies
the synthesis.  ``assemble_internal_control`` is the one construction: a
covering omega (``synthesize_full_domain``) has no component, and u = u_in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .model import BelowThresholdError, ControlDomain, RankError, SystemSpec
from .pde import (BoundaryControls, ControlField, Grid, StateField,
                  _backward_segment, _check_bytes, _check_full_domain, _check_horizon, _evolve,
                  _forward_segment, _march, _Marcher, _record_states, _resolve_steps,
                  _speeds_at, sample_state)
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


def _glue_full_domain(spec, forward, y0f, y1f, T, dt, n_steps, cells):
    """Forward/backward blend over the job's n_steps steps of dt: the control
    eta'(t) (y_f - y_b), and y_in = eta y_f + (1 - eta) y_b (the general
    case's inner solution) at ``cells`` only, both formed in one buffer of
    n_steps + 1 states.  Both free solutions come from one row march, the
    job's ``forward`` segment from y0 beside ``_backward_segment`` from y1
    mirrored: row step j holds y_f(j) and y_b(n_steps - j), handed over in
    the chunk record.  While j < n_steps - j each state is stored at its own
    time; from the midpoint on each fresh state meets its stored partner,
    and y_in and the control are formed there in place.  The control is the
    buffer's first n_steps states."""
    grid = y0f.grid
    row = _Marcher(forward, _backward_segment(spec, grid, dt))
    fcols, bcols = row.cols
    w0 = np.zeros((spec.n, row.width))
    w0[:, fcols], w0[:, bcols] = y0f.values, y1f.values[:, ::-1]
    times = np.arange(n_steps + 1) * dt
    cut = TimeCutoff(T)
    eta = cut.value(times)[:, None, None]
    rest = 1.0 - eta
    slope = cut.derivative(times[:-1])[:, None, None]
    # u[t] holds y_f(t) for t < h and y_b(t) for t >= h until its partner
    # comes; at an even n_steps both arrive at the midpoint h, y_b stored first
    u = np.empty((n_steps + 1,) + y0f.values.shape)
    y_in = np.empty((n_steps + 1, spec.n, len(cells)))
    h = (n_steps + 1) // 2

    def meet(fresh, a, b, forward):
        # times a..b-1: ``fresh`` holds y_f there (or y_b), u[a:b] the other
        stored = u[a:b]
        f, g = (fresh, stored) if forward else (stored, fresh)
        np.multiply(f[:, :, cells], eta[a:b], out=y_in[a:b])
        y_in[a:b] += np.multiply(g[:, :, cells], rest[a:b])
        k = min(b, n_steps) - a
        np.subtract(f[:k], g[:k], out=stored[:k])
        np.multiply(slope[a:a + k], stored[:k], out=stored[:k])

    def on_chunk(j0, states):
        # y_f at times j0..j1-1 and y_b at times b0..b1-1, both ascending
        j1 = j0 + len(states)
        b0, b1 = n_steps - j1 + 1, n_steps - j0 + 1
        fresh_f = states[:, :, fcols, 0]
        fresh_b = states[::-1, :, bcols, 0][:, :, ::-1]
        if j0 < h:
            u[j0:min(j1, h)] = fresh_f[:h - j0]
        if b1 > h:
            u[max(b0, h):b1] = fresh_b[max(b0, h) - b0:]
        if j1 > h:
            meet(fresh_f[max(h, j0) - j0:], max(h, j0), j1, True)
        if b0 < h:
            meet(fresh_b[:min(b1, h) - b0], b0, min(b1, h), False)

    _march(row, w0, n_steps, on_chunk=on_chunk)
    return u[:-1], y_in


def _hum_bytes(spec, comps) -> int:
    """Peak bytes of HUM on the records ``comps`` of ``_hum_component``: in
    the row's march the a_t of every component and the row's chunk record,
    then the a_t still held, each until its solve, and at each stack of a
    solve, components smallest first, a block's copy of its rows and
    columns of a_t, the stack of normal matrices and LAPACK's working copy
    of that stack, which numpy allocates outside its tracked memory."""
    n, n_steps = spec.n, comps[0].n_steps
    held = n * n_steps * sum(comp.grid.n_cells * comp.n_ch for comp in comps)
    width = sum(comp.grid.n_cells + 2 for comp in comps) - 2
    peak = held + _record_states(n_steps) * n * width * (1 + max(comp.n_ch for comp in comps))
    for comp in sorted(comps, key=lambda comp: comp.grid.n_cells):
        n_cells = comp.grid.n_cells
        for stack in _stacks(comp):
            size = len(stack[0][1]) * n_cells
            copy = max(0 if _covers(n, comp, block) else len(block[0]) * n_steps * size
                       for block in stack)
            peak = max(peak, held + copy + 2 * len(stack) * size ** 2)
        held -= n * n_steps * n_cells * comp.n_ch
    return 8 * peak


def _peak_bytes(spec, grid, n_steps, n_glued, comps) -> int:
    """Peak bytes of a synthesis: in the glue row's march its buffer of
    n_steps + 1 states, its chunk record of the two segments side by side,
    and y_in and y_out at the n_glued cells; or, if more, the HUM of its
    components."""
    glue = 8 * spec.n * ((n_steps + 1) * (grid.n_cells + 2 * n_glued)
                         + _record_states(n_steps) * (2 * grid.n_cells + 2))
    return max(glue, _hum_bytes(spec, comps)) if comps else glue


def synthesize_full_domain(spec: SystemSpec, y0_fn, y1_fn, T: float,
                           grid: Grid, cfl: float = 0.9) -> SynthesisReport:
    """Steer y0 to y1 when the closure of omega covers [0, 1]: the
    synthesis of ``assemble_internal_control`` with no complement component.

    Needs a finite T > 0 (else ``ConfigError``) and invertible couplings
    (else ``RankError``); works for every such horizon.  The achieved error
    is the L2 distance of the re-simulated final state from the target.
    """
    _check_horizon(T, positive=True)
    if spec.omega.complement_components():
        raise ValueError("full-domain synthesis needs the closure of omega "
                         "to cover [0, 1]")
    return assemble_internal_control(spec, y0_fn, y1_fn, T, grid, cfl)


def _hum_component(spec, grid: Grid, dt: float, n_steps: int):
    """A complement component's record before its HUM allocates: its grid,
    whose span is the component (in a synthesis a run of the job's cells),
    the (dt, n_steps) it is marched with (in a synthesis the job's), (left,
    all) control channels, each control end's inflow components, and
    ``blocks``, one (channels, components) per group of state components
    that a channel enters and that the system never couples to another:
    components k and l are linked where M[k, l] or M[l, k] is nonzero at a
    cell of the grid, or Q0 (Q1) links them at an end of (0, 1) the grid
    reaches.  The c-th left channel enters component m + c, the c-th right
    one component c.  A group that no channel enters is left out: its
    columns of a_t are zero.  The march keeps the groups exactly apart (a
    zero coupling adds exact zeros), so each block's normal system is the
    dense one's own restriction.  ``_hum_bytes`` sizes from the record and
    ``_hum_row`` fills it."""
    if grid.lo == 0.0 and grid.hi == 1.0:
        raise ValueError("use solve_forward for the full domain")
    n, m = spec.n, spec.m
    n_left = 0 if grid.lo == 0.0 else spec.p
    n_ch = n_left + (0 if grid.hi == 1.0 else m)
    link = spec.source.at_points(grid.centers).any(axis=0)
    if grid.lo == 0.0:
        link[m:, :m] |= spec.couplings.q0 != 0.0
    if grid.hi == 1.0:
        link[:m, m:] |= spec.couplings.q1 != 0.0
    link |= link.T | np.eye(n, dtype=bool)
    # after i squarings, the pairs joined by a path of at most 2^i links
    for _ in range(n.bit_length()):
        link = link @ link
    groups = {}
    for c, k in enumerate([m + c for c in range(n_left)] + list(range(n_ch - n_left))):
        groups.setdefault(tuple(np.flatnonzero(link[k]).tolist()), []).append(c)
    return SimpleNamespace(grid=grid, dt=dt, n_steps=n_steps, n_left=n_left, n_ch=n_ch,
                           blocks=tuple((tuple(chs), comps) for comps, chs in groups.items()))


def _stacks(comp) -> list:
    """The record's blocks in stacks of equal size, smallest first: the
    normal systems of one ``np.linalg.solve`` call each."""
    sizes = sorted({len(comps) for _, comps in comp.blocks})
    return [[block for block in comp.blocks if len(block[1]) == k] for k in sizes]


def _covers(n: int, comp, block) -> bool:
    """Whether ``block`` holds every row and column of the record's a_t, n
    state components wide."""
    return len(block[0]) == comp.n_ch and len(block[1]) == n


def _normal(a: np.ndarray, scale: float, out: np.ndarray) -> int:
    """out = scale a^T a, formed on ``a`` scaled in place by 2^k, the
    largest power of two that keeps rows max|a|^2 4^k finite and scale 4^-k
    normal (k is about 505 for max|a| <= 1), and scaled back after it: a
    product is then subnormal only where both of its entries are below
    2^-(511 + k).  Both scalings are exact (a subnormal entry has no more
    bits than its scaled value holds), no entry is dropped, and 4^-k folds
    into ``scale``.  Returns k."""
    top = max(a.max(), -a.min())
    k = max(0, min(1023 - len(a).bit_length() - 2 * math.frexp(top)[1],
                   1021 + math.frexp(scale)[1]) // 2)
    a *= math.ldexp(1.0, k)
    np.matmul(a.T, a, out=out)
    a *= math.ldexp(1.0, -k)
    out *= math.ldexp(scale, -2 * k)
    return k


def _block_of(a_t: np.ndarray, comp, block, n: int) -> np.ndarray:
    """A copy of the rows of ``block``'s channels and the columns of its
    components of the record's a_t."""
    channels, comps = block
    n_cells = comp.grid.n_cells
    out = np.empty((len(channels), comp.n_steps, len(comps), n_cells))
    rows = a_t.reshape(comp.n_ch, comp.n_steps, n, n_cells)
    for dest, c in zip(out, channels):
        # "clip" since the components are in range: "raise" would buffer ``out``
        np.take(rows[c], comps, axis=1, mode="clip", out=dest)
    return out.reshape(-1, len(comps) * n_cells)


@dataclass(frozen=True)
class HumResult:
    """Boundary control series steering a component, with its residual and
    the controlled solution at the requested cells: ``samples[j, :, i]`` is
    the state after j steps, at ``times[j]``, in cell ``cells[i]``."""

    controls: BoundaryControls
    residual: float
    samples: np.ndarray
    times: np.ndarray


def hum_boundary_control(spec: SystemSpec, y0_vals: np.ndarray, y1_vals: np.ndarray,
                         grid: Grid, T: float, cfl: float = 0.9, cells=()) -> HumResult:
    """Boundary control steering y0 to y1 on one complement component, the
    span of ``grid``.

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
    where Krylov iterations stagnate, so dense LU solves (partial pivoting,
    backward stable on a symmetric positive definite matrix) get the exact
    minimizer.  The system is block-diagonal: a channel's impulse responses
    stay, as exact zeros, out of the state components that the couplings
    and the source never link to the one it enters, so each block of the
    record's ``blocks`` (``_hum_component``) is solved alone from its rows
    and columns of A^T, and the blocks of one size in one
    ``np.linalg.solve`` call; a dense system is the one block, read from
    A^T in place.  Each normal product runs on its rows scaled by 2^k
    (``_normal``), which keeps it out of subnormal arithmetic but for the
    products of two entries below about 2^-1016; both scalings are exact.
    The peak memory is checked before the batched march.

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
    residual; the horizon itself must be finite and positive, and
    ``y0_vals`` and ``y1_vals`` finite (n, N) arrays (else ``ValueError``
    naming the argument, before anything is marched).
    """
    dt, n_steps = _resolve_steps(spec, grid, T, cfl, positive=True)
    data = [np.asarray(vals, dtype=float) for vals in (y0_vals, y1_vals)]
    for name, vals in zip(("y0_vals", "y1_vals"), data):
        if vals.shape != (spec.n, grid.n_cells) or not np.isfinite(vals).all():
            raise ValueError(f"{name} must be a finite array of shape "
                             f"{(spec.n, grid.n_cells)}, got shape {vals.shape}")
    cells = np.asarray(cells, dtype=np.intp).reshape(-1)
    if cells.size and not 0 <= cells.min() <= cells.max() < grid.n_cells:
        raise ValueError(f"sampled cells must lie in 0..{grid.n_cells - 1}")
    comp = _hum_component(spec, grid, dt, n_steps)
    _check_bytes("HUM", _hum_bytes(spec, [comp]))
    return _hum_row(spec, [comp], [(*data, cells)])[0]


def _hum_row(spec: SystemSpec, comps, data) -> list[HumResult]:
    """``hum_boundary_control`` on each record of ``comps``, its (y0_vals,
    y1_vals, cells) in ``data``, from one march of a row of one forward
    segment per component, all with the records' one (dt, n_steps): in a
    synthesis the job's, its components runs of its cells and ``cells`` the
    glue cells among them.  The row's batch holds a column per channel of
    the widest component and the free column last.  Every impulse starts
    one step on: a unit ghost on channel c during step 0 leaves its Courant
    magnitude, exactly, in the cell it enters, so the control ends bind no
    writer.  Each record takes its columns and buffers, and is solved as on
    its own, a stack of equal-size blocks per solve."""
    n, idx = spec.n, np.arange(spec.n)
    dt, n_steps = comps[0].dt, comps[0].n_steps
    batch = 1 + max(comp.n_ch for comp in comps)
    row = _Marcher(*(_forward_segment(spec, comp.grid, comp.dt) for comp in comps))
    w0 = np.zeros((n, row.width, batch))
    for comp, (y0_vals, y1_vals, cells), (courant, *_), cols in zip(
            comps, data, row.segments, row.cols):
        n_left, n_ch, grid = comp.n_left, comp.n_ch, comp.grid
        own = w0[:, cols]
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
        vars(comp).update(
            y1=y1_vals, cells=cells, cols=cols, a_t=np.empty((n_ch, n_steps, n * grid.n_cells)),
            samples=np.empty((n_steps + 1, n, cells.size)), free=np.empty((n, grid.n_cells)),
            take=((idx[:, None] * row.width + cols.start + cells) * batch + batch - 1).reshape(-1))

    def on_chunk(j0, states):
        j1 = j0 + len(states)
        flat = states.reshape(j1 - j0, -1)
        # state j holds the responses j + 1 steps old, for a_t[:, n_steps - 1 - j]
        k = min(j1, n_steps) - j0
        for comp in comps:
            # the free column's states j0..j1-1; "clip" since the cells are
            # checked: "raise" would buffer ``out``
            flat.take(comp.take, axis=1, mode="clip",
                      out=comp.samples[j0:j1].reshape(j1 - j0, -1))
            if j1 > n_steps:
                comp.free[...] = states[-1, :, comp.cols, -1]
            slots = comp.a_t.reshape(comp.n_ch, n_steps, n, comp.grid.n_cells)
            slots[:, n_steps - j0 - k:n_steps - j0] = \
                states[:k, :, comp.cols, :comp.n_ch][::-1].transpose(3, 0, 1, 2)

    def solved(comp) -> HumResult:
        # one component's solve; its locals, and its a_t, go before the next
        n_left, n_ch, n_cells = comp.n_left, comp.n_ch, comp.grid.n_cells
        nstate = n * n_cells
        a_t, comp.a_t = comp.a_t.reshape(n_ch * n_steps, nstate), None
        free = comp.free.reshape(nstate)
        y1_flat = comp.y1.reshape(nstate)

        dx = comp.grid.dx
        rhs = dx * (y1_flat - free)
        # zero on the states no channel enters, whose columns of a_t are zero
        x = np.zeros(nstate)
        for stack in _stacks(comp):
            states = np.array([(np.array(group)[:, None] * n_cells + np.arange(n_cells)).reshape(-1)
                               for _, group in stack])
            gram = np.empty(states.shape + states.shape[-1:])
            for i, block in enumerate(stack):
                _normal(a_t if _covers(n, comp, block) else _block_of(a_t, comp, block, n),
                        dx, gram[i])
            diag = np.arange(states.shape[1])
            gram[:, diag, diag] += HUM_REGULARIZATION * dt
            x[states] = np.linalg.solve(gram, rhs[states][:, :, None])[:, :, 0]
            del gram
        vec = a_t @ x
        residual = _l2(free + vec @ a_t - y1_flat, dx)
        # R_c(s) = a_t[c, n_steps - s] at the sampled states, for s = 1..n_steps
        sampled = (idx[:, None] * n_cells + comp.cells).reshape(-1)
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
        return HumResult(controls, residual, comp.samples, np.arange(n_steps + 1) * dt)

    _march(row, w0, n_steps, on_chunk=on_chunk)
    # the smallest normal matrix first, while every a_t is still held
    hums = [None] * len(comps)
    for i in sorted(range(len(comps)), key=lambda i: comps[i].grid.n_cells):
        hums[i] = solved(comps[i])
    return hums


def assemble_internal_control(spec: SystemSpec, y0_fn, y1_fn, T: float,
                              grid: Grid, cfl: float = 0.9) -> SynthesisReport:
    """Steer y0 to y1 with a control supported in omega, for any horizon
    above the minimal control time (two-step margin).

    Construction: shrink omega to a compactly contained finite union whose
    complement components are all controllable within T, steer each
    component by boundary least squares (y_out), steer the whole domain by
    the forward/backward blend (y_in), and glue with the space cut-off.
    A component is the run of the job's cells whose centres lie in it, of
    any length, with the job's (dt, n_steps), so HUM (one row march of them
    all) samples y_out at the glue cells and steps themselves; one with no
    cell holds no glue cell and is not steered.  y0 and y1 are sampled
    once, on the job's grid, before any march.
    Almost the whole margin above the minimal time is granted to the
    components as extra control time, keeping the shrink margins (and hence
    the cut-off transition zones) as wide as possible.  When the closure of
    omega covers [0, 1] (``synthesize_full_domain``) there is no component:
    no refined region, HUM or space cut-off, and the control is the blend's.
    The horizon must be finite and positive (else ``ConfigError``), and the
    grid on (0, 1) (else ``ValueError``).
    """
    dt, n_steps = _resolve_steps(spec, grid, T, cfl, positive=True)
    _check_full_domain(grid)
    base = minimal_control_time(spec)
    if not base.finite:
        raise RankError(base.reason)
    tau_max = base.value
    if not (base.covers_all or T > tau_max + 2.0 * dt):
        raise BelowThresholdError(f"horizon {T:g} is not above the minimal control "
                                  f"time {tau_max:g} (plus the two-step margin)")
    y0f, y1f = (sample_state(fn, grid, spec.n) for fn in (y0_fn, y1_fn))
    refined_region, comps, data, cells, residuals = None, [], [], [], ()
    if not base.covers_all:
        # leave a horizon margin for the component steering, spend the rest
        margin = max(4.0 * dt, 0.05 * (T - tau_max))
        slack = max(T - tau_max - margin, 0.5 * (T - tau_max))
        refined_region, _ = shrink_region(spec, tau_max + slack)
        cutoff = SpaceCutoff.between(refined_region, spec.omega)
        # xi' Lambda (y_out - y_in) vanishes where xi' = 0, outside these cells
        xi_dot = cutoff.derivative(grid.centers)
        cells = np.flatnonzero(xi_dot)
        for iv in refined_region.complement_components():
            k0 = int(np.searchsorted(grid.centers, iv.lo, side="right"))
            k1 = int(np.searchsorted(grid.centers, iv.hi))
            if k1 > k0:
                # the run as the component's grid: the job's dx and centres,
                # bitwise, under a ``Grid``'s 8 cells if need be
                run = SimpleNamespace(lo=k0 / grid.n_cells, hi=k1 / grid.n_cells, n_cells=k1 - k0,
                                      dx=grid.dx, centers=grid.centers[k0:k1])
                comps.append(_hum_component(spec, run, dt, n_steps))
                lo, hi = np.searchsorted(cells, (k0, k1))
                data.append((y0f.values[:, k0:k1], y1f.values[:, k0:k1], cells[lo:hi] - k0))
    _check_bytes("synthesis", _peak_bytes(spec, grid, n_steps, len(cells), comps))
    if comps:
        hums = _hum_row(spec, comps, data)
        residuals = tuple(hum.residual for hum in hums)
        # each glue cell lies in the component of its transition, both left
        # to right; y_out then holds what the glue needs of the samples
        y_out = np.concatenate([hum.samples[:-1] for hum in hums], axis=2)
        del hums, comps, data

    forward = _forward_segment(spec, grid, dt)
    u_vals, y_in = _glue_full_domain(spec, forward, y0f, y1f, T, dt, n_steps, cells)
    if not base.covers_all:
        u_vals *= 1.0 - cutoff.value(grid.centers)
    if residuals:
        u_vals[:, :, cells] += (xi_dot[cells] * _speeds_at(spec, grid)[:, cells]
                                * (y_out - y_in[:-1]))
    control = ControlField._adopt(u_vals, grid, dt, spec.omega.contains_points(grid.centers))
    # the re-simulation marches the job's forward segment again
    final = _evolve(_Marcher(forward), y0f, n_steps, dt, trajectory=False,
                    forcing=control.values).final
    return SynthesisReport(control, _l2(final.values - y1f.values, grid.dx), final,
                           residuals, refined_region)
