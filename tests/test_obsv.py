import re
import tracemalloc

import numpy as np
import pytest

from hypctrl.canon import canonical_form
from hypctrl.cli import EXIT_CODES
from hypctrl.model import ConfigError, SourceTerm, SpeedProfile
from hypctrl.obsv import (_block_partition, _gramian_plan, _gramian_windows,
                          _one_step_operator, detect_threshold, kernel_vector,
                          necessity_sweep, necessity_witness, sigma_min_sweep)
from hypctrl.pde import (NAN_CHECK_EVERY, Grid, StateField, _adjoint_marcher, _march,
                         _resolve_steps, cfl_dt, solve_adjoint)
from hypctrl.times import (CASE_LEFT, CASE_RIGHT, CASE_TWO_SIDED,
                           minimal_control_time)
from conftest import make_spec, near_singular


@pytest.fixture
def spec_rank_deficient():
    """Zero coupling at x=0: observability fails at every horizon."""
    return make_spec([-1.0, 1.0], [[0.0]], [[1.0]], [(0.0, 1.0)])


class TestGramian:
    def test_small_horizon_vanishes(self, spec_2x2):
        grid = Grid(0.0, 1.0, 32)
        T = 0.01
        dt, n_steps = _resolve_steps(spec_2x2, grid, T, 1.0, positive=True)
        g = recurrence_gramians(spec_2x2, grid, dt, {n_steps})[n_steps]
        assert np.max(np.abs(g)) <= T * grid.dx + 1e-15
        assert np.min(np.linalg.eigvalsh(g)) >= -1e-12

    def test_matches_single_adjoint_solve(self, spec_2x2):
        grid = Grid(0.0, 1.0, 32)
        T = 0.7
        dt, n_steps = _resolve_steps(spec_2x2, grid, T, 0.9, positive=True)
        g = recurrence_gramians(spec_2x2, grid, dt, {n_steps})[n_steps]
        k, i = 1, 10
        z1 = np.zeros((2, 32))
        z1[k, i] = 1.0
        adj = solve_adjoint(spec_2x2, StateField(z1, grid), T, cfl=0.9)
        mask = spec_2x2.omega.contains_points(grid.centers)
        direct = sum(dt * grid.dx * np.sum(adj.trajectory[n_steps - s][:, mask] ** 2)
                     for s in range(n_steps))
        assert g[k * 32 + i, k * 32 + i] == pytest.approx(direct, abs=1e-12)

    def test_full_window_positive_and_stable(self, spec_full_domain):
        sigmas = []
        for n_cells in (32, 64):
            grid = Grid(0.0, 1.0, n_cells)
            dt, n_steps = _resolve_steps(spec_full_domain, grid, 2.0, 1.0, positive=True)
            g = recurrence_gramians(spec_full_domain, grid, dt, {n_steps})[n_steps]
            sigmas.append(np.linalg.eigvalsh(g)[0] / grid.dx)
        assert min(sigmas) > 0.5
        assert abs(sigmas[0] - sigmas[1]) <= 0.2 * max(sigmas)

    def test_memory_guard(self, spec_2x2):
        # 8000^2 doubles are three times 512 MB: refused before the probes
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="bytes, above the limit of"):
                sigma_min_sweep(spec_2x2, [0.5], spec_2x2.omega, Grid(0.0, 1.0, 4000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


@pytest.mark.parametrize("cells,horizons,layout", [
    (200, [0.3, 0.5, 0.7], [(400, 1)]),
    (300, [0.2, 0.3], [(1, 600)]),
], ids=["singletons", "one-block"])
def test_gramian_bytes_match_traced_peak(spec_2x2, monkeypatch, cells, horizons, layout):
    # the bytes the recurrence is refused on against its traced peak: a
    # sweep at Courant 1 keeps 1x1 blocks; at 300 cells cfl_dt lands a hair
    # below Courant 1 and the partition is one block.  LAPACK's eigvalsh
    # copies the block it solves where tracemalloc does not see it, so that
    # copy is added to the traced memory at the call
    import hypctrl.obsv as obsv
    grid = Grid(0.0, 1.0, cells)
    dt = cfl_dt(spec_2x2, grid, 1.0, horizons[-1])
    blocks = _block_partition(*_one_step_operator(spec_2x2, grid, dt))
    assert [idx.shape for idx in blocks] == layout
    predicted, solves = [], []
    check, eigvalsh = obsv._check_bytes, np.linalg.eigvalsh
    monkeypatch.setattr(obsv, "_check_bytes",
                        lambda what, size: predicted.append(size) or check(what, size))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solves.append(
        tracemalloc.get_traced_memory()[0] + 8 * a.shape[-1] ** 2) or eigvalsh(a))
    tracemalloc.start()
    try:
        sigma_min_sweep(spec_2x2, horizons, spec_2x2.omega, grid)
        peak = max([tracemalloc.get_traced_memory()[1]] + solves)
    finally:
        tracemalloc.stop()
    # a sweep is refused first on its nstate^2 buffers, then with its stacks
    assert predicted[-1] == max(predicted) and bool(solves) == (layout == [(1, 600)])
    assert abs(predicted[-1] - peak) <= 0.25 * peak


def forward_gramians(spec, grid, dt, stops):
    """Reference: march every basis final datum of the adjoint at once and
    add dt * dx * zm^T zm over the cells of omega before each step."""
    n, nx = spec.n, grid.n_cells
    nstate = n * nx
    mask = np.tile(spec.omega.contains_points(grid.centers), n)
    gram = np.zeros((nstate, nstate))
    out = {}

    def accumulate(j0, states):
        nonlocal gram
        # the final state enters no window
        for s, z in zip(range(j0, max(stops)), states):
            zm = z.reshape(nstate, nstate)[mask]
            gram += dt * grid.dx * (zm.T @ zm)
            if s + 1 in stops:
                out[s + 1] = 0.5 * (gram + gram.T)

    basis = np.eye(nstate).reshape(n, nx, nstate)
    _march(_adjoint_marcher(spec, grid, dt), basis, max(stops), on_chunk=accumulate)
    return out


def recurrence_gramians(spec, grid, dt, stops):
    out = {}
    for k, gram in _gramian_windows(spec, spec.omega, grid, sorted(stops),
                                       _gramian_plan(spec, grid, dt, max(stops))):
        out[k] = 0.5 * (gram + gram.T)
    return out


STEIN_CASES = [
    pytest.param(make_spec([-1.0, 1.0], [[0.7]], [[-1.3]], [(0.25, 0.75)]), 0.9,
                 id="courant-0.9-couplings"),
    pytest.param(make_spec([-1.0, 1.0], [[1.0]], [[1.0]], [(0.25, 0.75)],
                           source=SourceTerm.constant([[0.3, -0.5], [0.2, 0.1]])), 1.0,
                 id="constant-source"),
    pytest.param(make_spec(SpeedProfile.piecewise_linear(
        [0.0, 0.5, 1.0], [[-1.0, -1.5, -1.2], [1.0, 2.0, 1.5]]),
        [[1.0]], [[0.8]], [(0.2, 0.7)],
        source=SourceTerm.constant([[0.3, -0.5], [0.2, 0.1]])), 1.0,
        id="piecewise-source"),
    pytest.param(make_spec([-2.0, -1.0, 1.0, 3.0], [[1.0, 0.5], [-0.3, 0.8]],
                           [[0.2, 1.0], [0.9, -0.4]], [(0.3, 0.8)]), 1.0,
                 id="n4-couplings"),
]


def equal_speeds_n4():
    """The n4 couplings on speeds (-1, -1, 1, 1): every component marches at
    Courant 1, and each reflection mixes two components of one end cell."""
    return make_spec([-1.0, -1.0, 1.0, 1.0], [[1.0, 0.5], [-0.3, 0.8]],
                     [[0.2, 1.0], [0.9, -0.4]], [(0.3, 0.8)])


class TestStein:
    """The backward recurrence against the forward accumulator."""

    @staticmethod
    def _both(spec, n_cells, cfl, t_list):
        grid = Grid(0.0, 1.0, n_cells)
        dt = cfl_dt(spec, grid, cfl, t_list[-1])
        stops = {int(round(t / dt)) for t in t_list}
        ref = forward_gramians(spec, grid, dt, stops)
        new = recurrence_gramians(spec, grid, dt, stops)
        assert sorted(new) == sorted(stops)
        return ref, new

    @pytest.mark.parametrize("n_cells,t_list", [
        (32, [0.25, 0.5, 0.75]),
        (100, [0.3, 0.4, 0.5, 0.6, 0.7]),
    ])
    def test_courant_one_bit_identical(self, spec_2x2, n_cells, t_list):
        # dt == dx: the one-step operator moves data by exactly one cell, so
        # both sums add the same exact terms
        grid = Grid(0.0, 1.0, n_cells)
        assert cfl_dt(spec_2x2, grid, 1.0, t_list[-1]) == grid.dx
        ref, new = self._both(spec_2x2, n_cells, 1.0, t_list)
        for k in ref:
            assert np.array_equal(new[k], ref[k])

    @pytest.mark.parametrize("spec,cfl", STEIN_CASES)
    def test_agrees_with_forward_accumulation(self, spec, cfl):
        ref, new = self._both(spec, 30, cfl, [0.3, 0.6, 1.0])
        for k in ref:
            scale = np.max(np.abs(ref[k]))
            assert scale > 0.0
            assert np.max(np.abs(new[k] - ref[k])) <= 1e-13 * scale

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflow_raises_instead_of_a_sigma(self):
        # dt * 1e100 per step: A is finite, its powers are not
        spec = make_spec([-1.0, 1.0], [[1.0]], [[1.0]], [(0.25, 0.75)],
                         source=SourceTerm.constant([[1e100, 0.0], [0.0, 1e100]]))
        with pytest.raises(RuntimeError, match="finiteness"):
            sigma_min_sweep(spec, [0.3, 0.5], spec.omega, Grid(0.0, 1.0, 32))


def identity_batch_operator(spec, grid, dt):
    """Reference: the dense one-step operator, one ``_march`` step of the
    identity batch, and its column-sparse (rows, vals): the nonzero rows of
    each column ascending, padded with its smallest zero rows."""
    n, nx = spec.n, grid.n_cells
    nstate = n * nx
    a = _march(_adjoint_marcher(spec, grid, dt), np.eye(nstate).reshape(n, nx, nstate),
               1).reshape(nstate, nstate)
    nonzero = a != 0.0
    rows = np.argsort(~nonzero, axis=0, kind="stable")[:int(nonzero.sum(axis=0).max())]
    return a, rows, np.take_along_axis(a, rows, axis=0)


def single_horizon_sigmas(spec, grid, t_list, cfl):
    """sigma_min of each horizon from its own one-horizon sweep, and from
    ``eigvalsh`` of the whole Gramian of ``recurrence_gramians`` at the
    horizon's one step."""
    swept = [sigma_min_sweep(spec, [t], spec.omega, grid, cfl).points[0][1] for t in t_list]
    dense = []
    for t in t_list:
        dt, n_steps = _resolve_steps(spec, grid, t, cfl, positive=True)
        g = recurrence_gramians(spec, grid, dt, {n_steps})[n_steps]
        dense.append(np.linalg.eigvalsh(g)[0] / grid.dx)
    return swept, dense


class TestBlocks:
    """The probe-built operator, the block partition and the per-block
    eigensolve of the sweep."""

    @pytest.mark.parametrize("n_cells", [8, 30])
    @pytest.mark.parametrize("spec,cfl", STEIN_CASES + [
        pytest.param(make_spec([-1.0, 1.0], [[1.0]], [[1.0]], [(0.25, 0.75)]), 1.0,
                     id="2x2"),
        pytest.param(equal_speeds_n4(), 1.0, id="n4-equal-speeds"),
    ])
    def test_probes_match_identity_batch(self, spec, cfl, n_cells):
        grid = Grid(0.0, 1.0, n_cells)
        dt = cfl_dt(spec, grid, cfl, 1.0)
        _, rows, vals = identity_batch_operator(spec, grid, dt)
        new_rows, new_vals = _one_step_operator(spec, grid, dt)
        assert np.array_equal(new_rows, rows)
        assert np.array_equal(new_vals, vals)

    @pytest.mark.parametrize("case,cfl,shapes", [
        ("2x2", 1.0, [(100, 1)]),
        ("2x2", 0.9, [(1, 100)]),
        ("n4-equal-speeds", 1.0, [(100, 2)]),
    ])
    def test_partition_shapes(self, spec_2x2, case, cfl, shapes):
        spec = spec_2x2 if case == "2x2" else equal_speeds_n4()
        grid = Grid(0.0, 1.0, 50)
        dt = cfl_dt(spec, grid, cfl, 1.0)
        blocks = _block_partition(*_one_step_operator(spec, grid, dt))
        assert [b.shape for b in blocks] == shapes
        # every state once, each block ascending
        assert np.array_equal(np.sort(np.concatenate([b.ravel() for b in blocks])),
                              np.arange(spec.n * 50))
        assert all(np.all(np.diff(b, axis=1) > 0) for b in blocks)
        # A^T X A keeps any block-diagonal X block-diagonal
        a, _, _ = identity_batch_operator(spec, grid, dt)
        label = np.empty(spec.n * 50, dtype=int)
        for b in blocks:
            label[b] = b[:, :1]
        same = label[:, None] == label[None, :]
        x = np.random.default_rng(5).standard_normal(a.shape) * same
        assert not np.any((a.T @ x @ a)[~same])

    @pytest.mark.parametrize("cfl", [1.0, 0.9], ids=["singletons", "one-block"])
    def test_sigma_bitwise_where_blocks_are_trivial(self, spec_2x2, cfl):
        swept, dense = single_horizon_sigmas(spec_2x2, Grid(0.0, 1.0, 32),
                                             [0.25, 0.5, 0.625, 0.75], cfl)
        assert swept == dense

    def test_sigma_of_blocks_of_two(self):
        swept, dense = single_horizon_sigmas(equal_speeds_n4(), Grid(0.0, 1.0, 50),
                                             [0.3, 0.6, 1.0], 1.0)
        assert max(swept) > 0.0
        assert np.max(np.abs(np.subtract(swept, dense))) <= 1e-13 * max(swept)

    def test_courant_one_sweep_makes_no_eigensolve(self, spec_2x2, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a, *args, **kw: calls.append(a.shape) or eigvalsh(a, *args, **kw))
        grid = Grid(0.0, 1.0, 100)
        sigma_min_sweep(spec_2x2, [0.3, 0.5, 0.7], spec_2x2.omega, grid)
        assert calls == []
        sigma_min_sweep(spec_2x2, [0.3, 0.5, 0.7], spec_2x2.omega, grid, cfl=0.9)
        assert calls == [(1, 200, 200)] * 3

    def test_probe_build_stays_small(self, spec_2x2):
        # the identity batch needed about 5 nstate^2 doubles, 640 MB here
        grid = Grid(0.0, 1.0, 2000)
        tracemalloc.start()
        try:
            _one_step_operator(spec_2x2, grid, grid.dx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20


class TestSigmaMinSweep:
    def test_empty_horizon_list_rejected(self, spec_2x2):
        with pytest.raises(ValueError, match="nonempty"):
            sigma_min_sweep(spec_2x2, [], spec_2x2.omega, Grid(0.0, 1.0, 32))

    def test_last_window_is_the_gramian(self, spec_2x2):
        grid = Grid(0.0, 1.0, 32)
        sweep = sigma_min_sweep(spec_2x2, [0.3, 0.7], spec_2x2.omega, grid)
        dt, n_steps = _resolve_steps(spec_2x2, grid, 0.7, 1.0, positive=True)
        g = recurrence_gramians(spec_2x2, grid, dt, {n_steps})[n_steps]
        assert sweep.points[-1][1] == np.linalg.eigvalsh(g)[0] / grid.dx

    def test_threshold_contrast_and_monotonicity(self, spec_2x2):
        grid = Grid(0.0, 1.0, 100)
        sweep = sigma_min_sweep(spec_2x2, [0.3, 0.4, 0.5, 0.6, 0.7],
                                spec_2x2.omega, grid)
        sig = dict(sweep.points)
        assert sig[0.4] <= 1e-8 * max(sig[0.6], 1e-30)
        assert np.all(np.diff([s for _, s in sweep.points]) >= -1e-10)
        assert detect_threshold(sweep) == pytest.approx(0.5, abs=0.051)

    def test_full_domain_always_observable(self, spec_full_domain):
        grid = Grid(0.0, 1.0, 64)
        sweep = sigma_min_sweep(spec_full_domain, [0.1, 0.2], spec_full_domain.omega,
                                grid)
        assert all(s > 0.05 for _, s in sweep.points)

    def test_overflowing_horizon_refused_by_the_work_guard(self, spec_2x2):
        # 1e300 snaps to a step count no machine integer holds; the work
        # guard names it exactly, before the recurrence's buffers
        grid = Grid(0.0, 1.0, 200)
        dt = cfl_dt(spec_2x2, grid, 1.0, 1e300)
        gathers = 2 * _one_step_operator(spec_2x2, grid, dt)[0].shape[0]
        steps = round(1e300 / dt) - 1
        message = (f"Gramian recurrence of {steps} steps of {gathers} gathers over 400^2 "
                   f"values needs {steps * gathers * 400 ** 2} element-steps, above the "
                   f"limit of 10000000000")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=re.escape(message)):
                sigma_min_sweep(spec_2x2, [0.3, 1e300], spec_2x2.omega, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 400 ** 2

    @pytest.mark.parametrize("cfl", [1.0, 0.9])
    def test_horizons_on_one_step_share_it(self, spec_2x2, cfl):
        # each horizon snaps to its nearest whole step (ties to even, as
        # round does); horizons on one step share its sigma_min and time
        grid = Grid(0.0, 1.0, 32)
        dt = cfl_dt(spec_2x2, grid, cfl, 0.7)
        ts = [0.3, 19.6 * dt, 20.0 * dt, 20.4 * dt, 0.7]
        sweep = sigma_min_sweep(spec_2x2, ts, spec_2x2.omega, grid, cfl)
        steps = [max(1, round(t / sweep.dt)) for t in ts]
        assert sweep.snapped_times == tuple(k * sweep.dt for k in steps)
        assert [t for t, _ in sweep.points] == ts
        sigma = dict(zip(steps, (s for _, s in sweep.points)))
        assert [s for _, s in sweep.points] == [sigma[k] for k in steps]
        assert steps[1] == steps[2] == steps[3] and sigma[steps[1]] > 0.0
        alone = sigma_min_sweep(spec_2x2, [ts[3], 0.7], spec_2x2.omega, grid, cfl)
        assert alone.points[0][1] == sweep.points[3][1]

    @pytest.mark.parametrize("kind", [list, tuple, np.array])
    def test_horizons_in_any_sequence(self, spec_2x2, kind):
        grid = Grid(0.0, 1.0, 32)
        ref = sigma_min_sweep(spec_2x2, [0.3, 0.5, 0.7], spec_2x2.omega, grid)
        assert sigma_min_sweep(spec_2x2, kind([0.3, 0.5, 0.7]), spec_2x2.omega, grid) == ref

    def test_unsorted_horizons_rejected(self, spec_2x2):
        # a configuration error, exit 2; tests/test_pde.py refuses [], [nan]
        # and [0.3, inf] the same way
        with pytest.raises(ConfigError) as err:
            sigma_min_sweep(spec_2x2, [0.5, 0.4], spec_2x2.omega, Grid(0.0, 1.0, 32))
        assert next(code for kind, code in EXIT_CODES.items()
                    if isinstance(err.value, kind)) == 2

    def test_degenerate_sweep_reports_no_threshold(self):
        # unequal speed magnitudes put slow components below Courant 1; the
        # damping swallows every grid-scale datum and the sweep loses its
        # contrast, which the detector must report rather than guess
        spec = make_spec([-2.0, -1.0, 1.0, 3.0], np.eye(2), np.eye(2),
                         [(0.3, 0.8)])
        grid = Grid(0.0, 1.0, 60)
        sweep = sigma_min_sweep(spec, [0.4, 0.6], spec.omega, grid)
        assert all(abs(s) <= 1e-12 for _, s in sweep.points)
        assert detect_threshold(sweep) is None


PROPERTY_CELLS = 80
PROPERTY_SEEDS = range(20)


def property_spec(seed):
    """A seeded random configuration at which the scheme transports exactly:
    speeds -1 and +1 in a 1+1 or 2+2 system, no source, couplings uniform
    in [-1.5, 1.5], and omega of one or two intervals with endpoints on the
    cell edges.  The layout of omega cycles with the seed: a component
    touching the left end, the right end, one interior component, and one
    interval leaving a component at each end."""
    rng = np.random.default_rng(seed)
    half = int(rng.integers(1, 3))
    q0, q1 = rng.uniform(-1.5, 1.5, (2, half, half))
    a, b = np.sort(rng.choice(np.arange(8, 73), 2, replace=False)) / PROPERTY_CELLS
    omega = ([(a, 1.0)], [(0.0, b)], [(0.0, a), (b, 1.0)], [(a, b)])[seed % 4]
    return make_spec([-1.0] * half + [1.0] * half, q0, q1, omega)


def setting_case(spec):
    """The case of the component whose boundary time is the minimal time."""
    return max(minimal_control_time(spec).per_component, key=lambda c: c[1].value)[1].case


class TestMinimalTimeAgainstCertificate:
    """The closed-form minimal control time against the Gramian certificate
    at Courant 1, on horizons tau - 12 dx .. tau + 12 dx in steps of 2 dx."""

    @pytest.mark.parametrize("seed", PROPERTY_SEEDS)
    def test_threshold_is_the_minimal_time(self, seed):
        spec = property_spec(seed)
        tau = minimal_control_time(spec).value
        dx = 1.0 / PROPERTY_CELLS
        horizons = [t for t in tau + 2.0 * dx * np.arange(-6, 7) if t > 0.0]
        sweep = sigma_min_sweep(spec, horizons, spec.omega, Grid(0.0, 1.0, PROPERTY_CELLS))
        detected = detect_threshold(sweep)
        assert detected is not None and abs(detected - tau) <= dx
        for t, sigma in sweep.points:
            if t < tau - dx:
                assert abs(sigma) <= 1e-12
            elif t > tau + dx:
                assert sigma > 1e-9

    def test_sample_covers_every_case(self):
        assert {setting_case(property_spec(seed)) for seed in PROPERTY_SEEDS} == {
            CASE_LEFT, CASE_RIGHT, CASE_TWO_SIDED}


class TestKernelVector:
    def test_zero_coupling(self):
        eta = kernel_vector([[0.0]], SpeedProfile.constant([-1.0, 1.0]))
        assert eta is not None
        assert abs(np.linalg.norm(eta) - 1.0) <= 1e-14

    def test_full_rank_has_none(self):
        assert kernel_vector([[1.0]], SpeedProfile.constant([-1.0, 1.0])) is None

    def test_rank_one_2x2(self):
        speeds = SpeedProfile.constant([-2.0, -1.0, 1.0, 3.0])
        q0 = np.array([[1.0, 2.0], [2.0, 4.0]])
        eta = kernel_vector(q0, speeds)
        assert eta is not None
        assert abs(np.linalg.norm(eta) - 1.0) <= 1e-14
        lam0 = np.array([-2.0, -1.0, 1.0, 3.0])
        r0 = -np.diag(lam0[2:]) @ q0 @ np.diag(1.0 / lam0[:2])
        assert np.max(np.abs(r0.T @ eta)) <= 1e-12

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_random_rank_deficient_couplings(self, p):
        rng = np.random.default_rng(20 + p)
        for _ in range(50):
            m = int(rng.integers(1, 4))
            rank = int(rng.integers(0, min(p, m) + 1))
            q0 = rng.standard_normal((p, rank)) @ rng.standard_normal((rank, m))
            lam = np.concatenate([-rng.uniform(0.5, 3.0, m), rng.uniform(0.5, 3.0, p)])
            eta = kernel_vector(q0, SpeedProfile.constant(lam))
            if rank == p:
                assert eta is None
                continue
            assert eta is not None
            assert abs(np.linalg.norm(eta) - 1.0) <= 1e-14
            r0 = -np.diag(lam[m:]) @ q0 @ np.diag(1.0 / lam[:m])
            assert np.max(np.abs(r0.T @ eta)) <= 1e-10 * max(1.0, np.max(np.abs(r0)))

    @pytest.mark.parametrize("p", [2, 3])
    def test_none_exactly_when_q0_factors_to_full_rank(self, p):
        # the witness reads the rank of Q0 from the factorization of Q0
        # itself, also at the PIVOT_RTOL edge
        rng = np.random.default_rng(40 + p)
        speeds = SpeedProfile.constant(np.concatenate([-np.arange(p, 0, -1.0),
                                                       np.arange(1.0, p + 1)]))
        for _ in range(100):
            q0 = near_singular(rng, p)
            eta = kernel_vector(q0, speeds)
            assert (eta is None) == (canonical_form(q0).rank == p)


def multispeed_witness_spec():
    return make_spec([-2.0, -1.0, 1.0, 3.0], [[1.0, 2.0], [2.0, 4.0]], np.eye(2),
                     [(0.0, 1.0)])


def reference_quadrature(spec, z1, T, grid):
    """ratio and max |z_-| of the witness by a hand-over that sums
    np.sum(z ** 2) state by state over the states before each step."""
    dt = cfl_dt(spec, grid, 1.0, T)
    n_steps = int(round(T / dt))
    denom, z_minus_max = 0.0, 0.0

    def observe(j0, states):
        nonlocal denom, z_minus_max
        for _, z in zip(range(j0, n_steps), states):
            denom += dt * grid.dx * float(np.sum(z ** 2))
            z_minus_max = max(z_minus_max, float(np.max(np.abs(z[:spec.m]))))

    z = _march(_adjoint_marcher(spec, grid, dt), z1, n_steps, on_chunk=observe)
    z_minus_max = max(z_minus_max, float(np.max(np.abs(z[:spec.m]))))
    return grid.dx * float(np.sum(z1 ** 2)) / denom, z_minus_max


class TestNecessity:
    def test_ratio_matches_closed_form(self, spec_rank_deficient):
        grid = Grid(0.0, 1.0, 500)
        for nu in (1, 2):
            w = necessity_witness(spec_rank_deficient, nu, 2.0, grid)
            assert w.ratio == pytest.approx(nu + 1.0, rel=0.05)
            assert w.z_minus_max <= 1e-12
            assert not w.z1.values[0].any()

    @pytest.mark.parametrize("nu", [1, 2, 4, 8])
    @pytest.mark.parametrize("case,T,cells", [
        ("2x2", 2.0, 10),     # 20 steps, fewer than one chunk
        ("2x2", 2.0, 64),     # 128 steps, whole chunks
        ("2x2", 2.0, 203),    # 406 steps, a partial last chunk
        ("multispeed", 3.0, 101),  # 909 steps, a partial last chunk
    ])
    def test_chunked_quadrature_matches_per_step_sums(self, spec_rank_deficient,
                                                      nu, case, T, cells):
        spec = spec_rank_deficient if case == "2x2" else multispeed_witness_spec()
        grid = Grid(0.0, 1.0, cells)
        w = necessity_witness(spec, nu, T, grid)
        ratio, z_minus_max = reference_quadrature(spec, w.z1.values, T, grid)
        assert w.ratio == pytest.approx(ratio, rel=1e-13, abs=0.0)
        # a maximum does not depend on the order of its terms
        assert w.z_minus_max == z_minus_max
        n_steps = int(round(T / cfl_dt(spec, grid, 1.0, T)))
        assert n_steps == 2 * cells if case == "2x2" else 9 * cells
        assert (n_steps % NAN_CHECK_EVERY == 0) == (cells == 64)

    def test_witness_support(self, spec_rank_deficient):
        grid = Grid(0.0, 1.0, 200)
        w = necessity_witness(spec_rank_deficient, 2, 2.0, grid)
        outside = grid.centers >= w.support_hi[0]
        assert not w.z1.values[1, outside].any()

    def test_nu_zero_rejected(self, spec_rank_deficient):
        with pytest.raises(ValueError):
            necessity_witness(spec_rank_deficient, 0, 2.0, Grid(0.0, 1.0, 64))

    @pytest.mark.parametrize("nu", [10 ** 9, 10 ** 300])
    def test_underflowing_datum_refused(self, spec_rank_deficient, nu):
        # the datum's profile is narrower than a cell: every sample is 0,
        # and the ratio would be 0 / 0
        with pytest.raises(RuntimeError, match=f"nu = {nu} underflows on 64 cells"):
            necessity_witness(spec_rank_deficient, nu, 2.0, Grid(0.0, 1.0, 64))

    def test_full_rank_rejected(self, spec_full_domain):
        with pytest.raises(ValueError, match="full row rank"):
            necessity_witness(spec_full_domain, 1, 2.0, Grid(0.0, 1.0, 64))

    def test_short_horizon_rejected(self, spec_rank_deficient):
        with pytest.raises(ValueError, match="horizon"):
            necessity_witness(spec_rank_deficient, 1, 0.5, Grid(0.0, 1.0, 64))

    def test_wrong_source_rejected(self):
        from hypctrl.model import SourceTerm
        spec = make_spec([-1.0, 1.0], [[0.0]], [[1.0]], [(0.0, 1.0)],
                         source=SourceTerm.constant([[0.0, 0.5], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="source"):
            necessity_witness(spec, 1, 2.0, Grid(0.0, 1.0, 64))

    def test_empty_exponent_list_rejected(self, spec_rank_deficient):
        # a configuration error, exit 2, as an empty horizon list is
        with pytest.raises(ConfigError, match="nonempty"):
            necessity_sweep(spec_rank_deficient, [], 2.0, Grid(0.0, 1.0, 64))

    def test_sweep_monotone_with_blowup(self, spec_rank_deficient):
        grid = Grid(0.0, 1.0, 400)
        sweep = necessity_sweep(spec_rank_deficient, [1, 2, 4], 2.0, grid)
        ratios = [r for _, r in sweep.points]
        assert ratios == sorted(ratios)
        assert sweep.blowup_factor == pytest.approx(5.0 / 2.0, rel=0.05)

    def test_rank_deficient_multispeed_witness(self):
        # two positive speeds, rank-one coupling: only the fastest component
        # transports exactly, so the negative components pick up grid-level
        # contamination; it must shrink under refinement while the ratios
        # stay ordered in nu
        spec = multispeed_witness_spec()
        leak = [necessity_witness(spec, 2, 3.0, Grid(0.0, 1.0, n)).z_minus_max
                for n in (200, 800)]
        assert leak[1] < leak[0]
        sweep = necessity_sweep(spec, [1, 2, 4], 3.0, Grid(0.0, 1.0, 400))
        ratios = [r for _, r in sweep.points]
        assert ratios == sorted(ratios) and ratios[0] > 0.0
