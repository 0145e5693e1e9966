import math
import tracemalloc

import numpy as np
import pytest

from hypctrl.model import ControlDomain, Interval, PositionTag
from hypctrl.pde import (ControlField, Grid, _speeds_at, sample_state, solve_backward,
                         solve_forward, state_function)
from hypctrl.synth import (BelowThresholdError, SpaceCutoff, TimeCutoff,
                           assemble_internal_control, hum_boundary_control,
                           synthesize_full_domain)
from conftest import make_spec

Y0_SIN = state_function(lambda x: np.sin(np.pi * x), 0.0)
Y_ZERO = state_function(0.0, 0.0)


class TestCutoffs:
    def test_time_cutoff_endpoints_exact(self):
        cut = TimeCutoff(0.7)
        assert cut.value(0.0) == 1.0
        assert cut.value(0.7) == 0.0
        assert cut.derivative(0.0) == 0.0
        assert cut.derivative(0.7) == 0.0

    def test_time_cutoff_is_c1(self):
        cut = TimeCutoff(1.0)
        ts = np.linspace(0, 1, 1001)
        num = np.gradient(cut.value(ts), ts)
        assert np.max(np.abs(num - cut.derivative(ts))) <= 5e-3

    def test_space_cutoff_structure(self):
        omega = ControlDomain.of((0.2, 0.8))
        hat = ControlDomain.of((0.3, 0.45), (0.55, 0.7))
        cut = SpaceCutoff.between(hat, omega)
        xs = np.linspace(0, 1, 2001)
        vals = cut.value(xs)
        # exact endpoints of the three regimes
        assert np.all(vals[(xs >= 0.3) & (xs <= 0.45)] == 0.0)
        assert np.all(vals[(xs >= 0.55) & (xs <= 0.7)] == 0.0)
        assert np.all(vals[xs <= 0.25] == 1.0)
        assert np.all(vals[xs >= 0.75] == 1.0)
        # rises to 1 between the two refined intervals (midpoint transition)
        assert cut.value(np.array([0.5]))[0] == 1.0
        # C1: numeric derivative agrees with the analytic one
        num = np.gradient(vals, xs)
        assert np.max(np.abs(num - cut.derivative(xs))) <= 0.5

    def test_space_cutoff_needs_compact_containment(self):
        with pytest.raises(ValueError):
            SpaceCutoff.between(ControlDomain.of((0.2, 0.5)),
                                ControlDomain.of((0.2, 0.8)))


class TestFullDomainSynthesis:
    def test_zero_data_zero_control(self, spec_full_domain):
        rep = synthesize_full_domain(spec_full_domain, Y_ZERO, Y_ZERO, 0.4,
                                     Grid(0.0, 1.0, 64))
        assert not rep.control.values.any()
        assert rep.achieved_error == 0.0

    def test_steering_error_first_order(self, spec_full_domain):
        errs = [synthesize_full_domain(spec_full_domain, Y0_SIN, Y_ZERO, 0.3,
                                       Grid(0.0, 1.0, n)).achieved_error
                for n in (100, 200)]
        assert errs[1] <= 0.05
        assert 1.4 <= errs[0] / errs[1] <= 2.6

    def test_free_target_needs_no_control(self, spec_full_domain):
        grid = Grid(0.0, 1.0, 128)
        y0 = sample_state(Y0_SIN, grid, 2)
        free = solve_forward(spec_full_domain, y0, None, 0.3, cfl=0.9)

        def y1_fn(x):
            return np.stack([np.interp(x, grid.centers, free.final.values[k])
                             for k in range(2)])

        rep = synthesize_full_domain(spec_full_domain, Y0_SIN, y1_fn, 0.3, grid)
        assert rep.achieved_error <= 0.05
        assert np.max(np.abs(rep.control.values)) <= 0.15

    def test_partial_region_rejected(self, spec_2x2):
        with pytest.raises(ValueError, match="full-domain"):
            synthesize_full_domain(spec_2x2, Y0_SIN, Y_ZERO, 0.3, Grid(0.0, 1.0, 64))

    def test_blend_hits_both_endpoints_exactly(self, spec_full_domain):
        # the time cut-off is exactly 1 at t=0 and 0 at t=T, so the blended
        # trajectory starts at y0 and ends at y1 bitwise
        from hypctrl.synth import _glue_full_domain
        grid = Grid(0.0, 1.0, 64)
        y0 = sample_state(Y0_SIN, grid, 2)
        y1 = sample_state(state_function(lambda x: x * (1 - x), 0.5), grid, 2)
        _, blended = _glue_full_domain(spec_full_domain, y0, y1, 0.4, 0.9,
                                       np.arange(grid.n_cells))
        assert np.array_equal(blended[0], y0.values)
        assert np.array_equal(blended[-1], y1.values)


class TestHumBoundaryControl:
    def test_zero_data_zero_control(self, spec_2x2):
        grid = Grid(0.0, 0.25, 32)
        zero = np.zeros((2, 32))
        hum = hum_boundary_control(spec_2x2, Interval(0.0, 0.25), zero, zero,
                                   grid, 0.6)
        assert hum.residual == 0.0
        assert not hum.controls.right.any()

    def test_threshold_contrast(self, spec_2x2):
        iv = Interval(0.0, 0.25)
        for n_i in (100, 200):
            grid = Grid(0.0, 0.25, n_i)
            y0 = np.stack([np.sin(np.pi * grid.centers), np.zeros(n_i)])
            y1 = np.zeros((2, n_i))
            above = hum_boundary_control(spec_2x2, iv, y0, y1, grid, 0.6)
            below = hum_boundary_control(spec_2x2, iv, y0, y1, grid, 0.4)
            assert above.residual <= 1e-8
            assert below.residual >= 0.05

    def test_interior_interval_both_ends(self, spec_2x2):
        iv = Interval(0.3, 0.6)
        grid = Grid(0.3, 0.6, 60)
        y0 = np.stack([np.cos(grid.centers), np.sin(grid.centers)])
        y1 = np.stack([grid.centers, 1.0 - grid.centers])
        hum = hum_boundary_control(spec_2x2, iv, y0, y1, grid, 0.5)
        assert hum.residual <= 1e-5
        assert hum.controls.left.shape[1] == 1
        assert hum.controls.right.shape[1] == 1

    def test_steering_verified_against_map(self, spec_2x2):
        # the returned series, replayed through the subinterval solver,
        # reproduces the reported residual (round trip through the solver)
        iv = Interval(0.75, 1.0)
        grid = Grid(0.75, 1.0, 50)
        y0 = np.stack([np.sin(3 * grid.centers), np.cos(grid.centers)])
        y1 = np.zeros((2, 50))
        hum = hum_boundary_control(spec_2x2, iv, y0, y1, grid, 0.6)
        from hypctrl.pde import StateField, solve_boundary_forward
        res = solve_boundary_forward(spec_2x2, iv, StateField(y0, grid),
                                     hum.controls, 0.6)
        err = np.sqrt(grid.dx * np.sum((res.final.values - y1) ** 2))
        assert err == pytest.approx(hum.residual, rel=1e-10, abs=1e-14)


def _hum_spec(n):
    # a nonzero source and, for n = 4, non-diagonal couplings, so the
    # source contraction and the coupling ghosts both see the whole batch
    from hypctrl.model import SourceTerm, SpeedProfile
    src = SourceTerm.constant(0.3 * np.sin(np.arange(n * n)).reshape(n, n))
    if n == 2:
        prof = SpeedProfile.piecewise_linear([0.0, 0.5, 1.0],
                                             [[-1.5, -1.0, -1.2], [0.8, 1.3, 1.0]])
        return make_spec(prof, [[0.8]], [[1.3]], [(0.3, 0.8)], source=src)
    return make_spec([-2.0, -1.0, 1.0, 3.0], [[0.9, 0.3], [-0.2, 1.1]],
                     [[1.2, -0.4], [0.1, 0.8]], [(0.3, 0.8)], source=src)


HUM_CASES = [(Interval(0.0, 0.3), 0.9), (Interval(0.8, 1.0), 0.9),
             (Interval(0.3, 0.5), 0.5)]


def _hum_case(iv, n, n_cells=24):
    grid = Grid(iv.lo, iv.hi, n_cells)
    xs = grid.centers
    y0 = np.stack([np.sin((k + 2) * xs) for k in range(n)])
    y1 = np.stack([np.cos((k + 1) * xs) for k in range(n)])
    return grid, y0, y1


def _channels(spec, tag):
    left = [] if tag is PositionTag.TOUCHES_LEFT else [("left", j) for j in range(spec.p)]
    right = [] if tag is PositionTag.TOUCHES_RIGHT else [("right", i) for i in range(spec.m)]
    return left + right


def _unit_controls(spec, tag, channels, n_steps, row):
    from hypctrl.pde import BoundaryControls
    left = None if tag is PositionTag.TOUCHES_LEFT else np.zeros((n_steps, spec.p))
    right = None if tag is PositionTag.TOUCHES_RIGHT else np.zeros((n_steps, spec.m))
    if row is not None:
        end, comp = channels[row]
        (left if end == "left" else right)[0, comp] = 1.0
    return BoundaryControls(left, right)


class TestHumStateSide:
    """The batched march and the state-side solve against per-channel
    single marches and the parameter-side normal equations."""

    @pytest.mark.parametrize("iv,T", HUM_CASES)
    @pytest.mark.parametrize("n", [2, 4])
    def test_batched_columns_equal_single_marches(self, monkeypatch, iv, T, n):
        import hypctrl.synth as synth
        from hypctrl.pde import StateField, solve_boundary_forward
        spec = _hum_spec(n)
        grid, y0, y1 = _hum_case(iv, n)
        seen = []
        real_march = synth._march

        def spy(marcher, w0, n_steps, on_chunk=None, **kw):
            states = []

            def record(j0, chunk):
                states.extend(chunk.copy())
                on_chunk(j0, chunk)
            w = real_march(marcher, w0, n_steps, on_chunk=record, **kw)
            seen.append(states)
            return w

        monkeypatch.setattr(synth, "_march", spy)
        hum_boundary_control(spec, iv, y0, y1, grid, T)
        batch = np.stack(seen[0])       # (n_steps+1, n, N, channels+1)
        n_steps = batch.shape[0] - 1
        channels = _channels(spec, iv.tag)
        assert batch.shape[-1] == len(channels) + 1
        for row in list(range(len(channels))) + [None]:
            start = np.zeros_like(y0) if row is not None else y0
            single = solve_boundary_forward(
                spec, iv, StateField(start, grid),
                _unit_controls(spec, iv.tag, channels, n_steps, row), T)
            # an impulse column starts one step on: its state j is the
            # single march's state j + 1, and its last state is not used
            want = single.trajectory if row is None else single.trajectory[1:]
            col = batch[:len(want), ..., row if row is not None else len(channels)]
            if n == 2 or iv.tag is PositionTag.INTERIOR:
                assert np.array_equal(col, want)
            else:
                # a coupling with several terms per ghost goes through
                # matmul, whose kernel for one column and for a batch sum
                # in different orders
                scale = np.max(np.abs(want))
                assert np.max(np.abs(col - want)) <= 1e-14 * scale

    @pytest.mark.parametrize("iv,T", HUM_CASES)
    @pytest.mark.parametrize("n", [2, 4])
    def test_state_side_matches_parameter_side(self, iv, T, n):
        # reference: A assembled from per-channel impulse trajectories and
        # the (channels n_steps)-sized normal equations of the parameter side
        from hypctrl.pde import StateField, cfl_dt, solve_boundary_forward
        from hypctrl.synth import HUM_REGULARIZATION
        spec = _hum_spec(n)
        grid, y0, y1 = _hum_case(iv, n)
        dt = cfl_dt(spec, grid, 0.9, T)
        n_steps = round(T / dt)
        channels = _channels(spec, iv.tag)
        nstate = spec.n * grid.n_cells
        cols = []
        for row in range(len(channels)):
            traj = solve_boundary_forward(
                spec, iv, StateField(np.zeros_like(y0), grid),
                _unit_controls(spec, iv.tag, channels, n_steps, row), T).trajectory
            cols.append(traj[n_steps - np.arange(n_steps)].reshape(n_steps, nstate).T)
        a_mat = np.hstack(cols)
        free = solve_boundary_forward(spec, iv, StateField(y0, grid),
                                      _unit_controls(spec, iv.tag, channels, n_steps, None), T)
        target = (y1 - free.final.values).reshape(nstate)
        normal = grid.dx * (a_mat.T @ a_mat) + HUM_REGULARIZATION * dt * np.eye(a_mat.shape[1])
        ref = np.linalg.solve(normal, grid.dx * (a_mat.T @ target)).reshape(len(channels), n_steps)

        hum = hum_boundary_control(spec, iv, y0, y1, grid, T)
        got = np.stack([(hum.controls.left if end == "left" else hum.controls.right)[:, comp]
                        for end, comp in channels])
        assert np.allclose(got, ref, rtol=1e-6, atol=1e-6 * np.max(np.abs(ref)))

    def test_one_march_per_component(self, monkeypatch):
        import hypctrl.pde as pde
        import hypctrl.synth as synth
        calls = []
        real_march = pde._march

        def counting(*args, **kwargs):
            calls.append(args[1].shape)
            return real_march(*args, **kwargs)

        monkeypatch.setattr(pde, "_march", counting)
        monkeypatch.setattr(synth, "_march", counting)
        spec = _hum_spec(4)
        for iv, T in HUM_CASES:
            grid, y0, y1 = _hum_case(iv, 4)
            calls.clear()
            hum_boundary_control(spec, iv, y0, y1, grid, T, cells=[0, 5, 23])
            n_ch = len(_channels(spec, iv.tag))
            assert calls == [(4, grid.n_cells, n_ch + 1)]

    @pytest.mark.parametrize("iv,T", HUM_CASES)
    @pytest.mark.parametrize("n", [2, 4])
    def test_samples_equal_replayed_controls(self, iv, T, n):
        # the superposed samples against a march of the returned controls
        from hypctrl.pde import StateField, solve_boundary_forward
        spec = _hum_spec(n)
        grid, y0, y1 = _hum_case(iv, n)
        cells = np.array([0, 1, 7, 8, 16, 22, 23])
        hum = hum_boundary_control(spec, iv, y0, y1, grid, T, cells=cells)
        replay = solve_boundary_forward(spec, iv, StateField(y0, grid), hum.controls, T)
        ref = replay.trajectory[:, :, cells]
        assert hum.samples.shape == ref.shape
        assert np.array_equal(hum.times, replay.times)
        assert np.max(np.abs(hum.samples - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_cells_out_of_range_rejected(self, spec_2x2):
        grid = Grid(0.0, 0.25, 32)
        zero = np.zeros((2, 32))
        for cells in ([32], [-1]):
            with pytest.raises(ValueError, match="sampled cells"):
                hum_boundary_control(spec_2x2, Interval(0.0, 0.25), zero, zero, grid, 0.6,
                                     cells=cells)


class TestResample:
    @staticmethod
    def _loop_reference(traj, traj_times, grid_i, times, xq):
        # the per-time-level np.interp loop the array resample replaced
        out = np.empty((times.size, traj.shape[1], xq.size))
        dt_i = traj_times[1] - traj_times[0]
        for j, t in enumerate(times):
            s = min(max(t / dt_i, 0.0), traj_times.size - 1.0)
            s0 = int(s)
            w = s - s0
            state = traj[s0] if w == 0.0 else (1.0 - w) * traj[s0] + w * traj[s0 + 1]
            out[j] = np.stack([np.interp(xq, grid_i.centers, state[k])
                               for k in range(state.shape[0])])
        return out

    @pytest.mark.parametrize("lo,hi,n_i,dt_i,levels", [
        (0.0, 0.31, 40, 0.0071, 90), (0.62, 1.0, 37, 0.0093, 70),
        (0.3, 0.55, 33, 0.0050, 121)])
    def test_matches_per_step_interp(self, lo, hi, n_i, dt_i, levels):
        from hypctrl.synth import _resample
        rng = np.random.default_rng(7)
        grid_i = Grid(lo, hi, n_i)
        traj = rng.standard_normal((levels, 3, n_i))
        traj_times = np.arange(levels) * dt_i
        grid = Grid(0.0, 1.0, 128)
        xq = grid.centers[(grid.centers > lo) & (grid.centers < hi)]
        # global times run past the component's last level, so the time
        # clamp is exercised as well as the space clamp at both edges
        times = np.arange(int(levels * 1.1)) * dt_i * 0.97
        got = _resample(traj, traj_times, grid_i.centers, times, xq)
        ref = self._loop_reference(traj, traj_times, grid_i, times, xq)
        assert np.max(np.abs(got - ref)) <= 1e-13


class TestAssembleInternalControl:
    def test_delegates_on_covering_region(self, spec_full_domain):
        rep = assemble_internal_control(spec_full_domain, Y0_SIN, Y_ZERO, 0.3,
                                        Grid(0.0, 1.0, 64))
        assert rep.omega_hat is None

    def test_zero_data_zero_control(self, spec_2x2):
        rep = assemble_internal_control(spec_2x2, Y_ZERO, Y_ZERO, 0.6,
                                        Grid(0.0, 1.0, 64))
        assert not rep.control.values.any()
        assert rep.achieved_error <= 1e-12

    def test_support_is_exactly_omega(self, spec_2x2):
        grid = Grid(0.0, 1.0, 128)
        rep = assemble_internal_control(spec_2x2, Y0_SIN, Y_ZERO, 0.6, grid)
        outside = ~spec_2x2.omega.contains_points(grid.centers)
        assert not rep.control.values[:, :, outside].any()

    def test_error_decreases_under_refinement(self, spec_2x2):
        errs = [assemble_internal_control(spec_2x2, Y0_SIN, Y_ZERO, 0.6,
                                          Grid(0.0, 1.0, n)).achieved_error
                for n in (100, 200)]
        assert errs[1] < errs[0]
        assert errs[1] <= 0.05

    def test_below_threshold_rejected(self, spec_2x2):
        with pytest.raises(BelowThresholdError):
            assemble_internal_control(spec_2x2, Y0_SIN, Y_ZERO, 0.4,
                                      Grid(0.0, 1.0, 64))

    def test_singular_couplings_rejected(self):
        spec = make_spec([-1.0, 1.0], [[0.0]], [[1.0]], [(0.25, 0.75)])
        with pytest.raises(ValueError, match="invertible"):
            assemble_internal_control(spec, Y0_SIN, Y_ZERO, 0.8, Grid(0.0, 1.0, 64))

    def test_monotone_feasibility_in_horizon(self, spec_2x2):
        # every horizon above threshold synthesizes; quality is grid-limited
        # right at the threshold and improves with the margin
        errors = [assemble_internal_control(spec_2x2, Y0_SIN, Y_ZERO, T,
                                            Grid(0.0, 1.0, 128)).achieved_error
                  for T in (0.55, 0.7, 0.9, 1.2)]
        assert all(np.isfinite(e) for e in errors)
        assert all(b <= 1.1 * a for a, b in zip(errors, errors[1:]))
        assert errors[-1] <= 0.1

    def test_two_piece_region(self):
        spec = make_spec([-1.0, 1.0], [[1.0]], [[1.0]],
                         [(0.1, 0.35), (0.6, 0.9)])
        from hypctrl.times import minimal_control_time
        tau = minimal_control_time(spec).value
        rep = assemble_internal_control(spec, Y0_SIN, Y_ZERO, tau + 0.2,
                                        Grid(0.0, 1.0, 128))
        grid = Grid(0.0, 1.0, 128)
        outside = ~spec.omega.contains_points(grid.centers)
        assert not rep.control.values[:, :, outside].any()
        assert rep.achieved_error <= 0.1
        assert len(rep.omega_hat.intervals) == 2

    def test_touching_intervals(self):
        # x = 0.5 is in the closure of omega but not in omega: each open
        # interval shrinks on its own, so no piece of omega_hat covers it
        omega = [(0.25, 0.5), (0.5, 0.75)]
        spec = make_spec([-1.0, 1.0], [[1.0]], [[1.0]], omega)
        grid = Grid(0.0, 1.0, 200)
        rep = assemble_internal_control(spec, Y0_SIN, Y_ZERO, 0.6, grid)
        outside = ~spec.omega.contains_points(grid.centers)
        assert not rep.control.values[:, :, outside].any()
        assert rep.achieved_error <= 0.03
        assert len(rep.omega_hat.intervals) == 2
        for (lo, hi), (a, b) in zip(rep.omega_hat.intervals, omega):
            assert a < lo < hi < b

    def test_nonzero_target(self, spec_2x2):
        y1 = state_function(lambda x: 0.5 * np.sin(2 * np.pi * x),
                            lambda x: 0.3 * np.sin(np.pi * x))
        rep = assemble_internal_control(spec_2x2, Y0_SIN, y1, 0.7,
                                        Grid(0.0, 1.0, 200))
        assert rep.achieved_error <= 0.06

    def test_four_equations_two_controls_per_end(self, spec_4x4):
        y0 = state_function(lambda x: np.sin(np.pi * x), lambda x: x * (1 - x),
                            0.0, lambda x: np.cos(np.pi * x) - 1.0)
        y1 = state_function(0.0, 0.0, 0.0, 0.0)
        errs = []
        for n_cells in (150, 300):
            grid = Grid(0.0, 1.0, n_cells)
            rep = assemble_internal_control(spec_4x4, y0, y1, 0.7, grid)
            outside = ~spec_4x4.omega.contains_points(grid.centers)
            assert not rep.control.values[:, :, outside].any()
            errs.append(rep.achieved_error)
        assert errs[1] < errs[0]
        assert errs[1] <= 0.05

    def test_varying_speeds_and_source(self):
        from hypctrl.model import SourceTerm, SpeedProfile
        from hypctrl.times import minimal_control_time
        prof = SpeedProfile.piecewise_linear([0.0, 0.5, 1.0],
                                             [[-1.5, -1.0, -1.2],
                                              [0.8, 1.3, 1.0]])
        spec = make_spec(prof, [[0.9]], [[1.1]], [(0.2, 0.7)],
                         source=SourceTerm.constant([[0.2, -0.1], [0.3, 0.1]]))
        tau = minimal_control_time(spec).value
        errs = [assemble_internal_control(spec, Y0_SIN, Y_ZERO, tau + 0.35,
                                          Grid(0.0, 1.0, n)).achieved_error
                for n in (150, 300)]
        assert errs[1] < errs[0]
        assert errs[1] <= 0.02

    def test_region_touching_the_boundary(self):
        from hypctrl.times import minimal_control_time
        spec = make_spec([-1.0, 1.0], [[1.0]], [[1.0]], [(0.0, 0.4)])
        tau = minimal_control_time(spec).value
        assert tau == pytest.approx(1.2, abs=1e-12)
        rep = assemble_internal_control(spec, Y0_SIN, Y_ZERO, tau + 0.3,
                                        Grid(0.0, 1.0, 200))
        assert rep.achieved_error <= 0.05

    def test_region_touching_both_ends(self):
        from hypctrl.times import minimal_control_time
        spec = make_spec([-1.0, 1.0], [[1.0]], [[1.0]],
                         [(0.0, 0.2), (0.8, 1.0)])
        tau = minimal_control_time(spec).value
        assert tau == pytest.approx(0.6, abs=1e-12)
        errs = []
        for n_cells in (150, 300):
            grid = Grid(0.0, 1.0, n_cells)
            rep = assemble_internal_control(spec, Y0_SIN, Y_ZERO, tau + 0.25,
                                            grid)
            outside = ~spec.omega.contains_points(grid.centers)
            assert not rep.control.values[:, :, outside].any()
            errs.append(rep.achieved_error)
        assert errs[1] < errs[0] and errs[1] <= 0.05


def _whole_state_resample(traj, traj_times, xp, times, xq):
    # the resample as it was: every grid column interpolated in time first
    last = traj.shape[0] - 1
    s = np.clip(times / (traj_times[1] - traj_times[0]), 0.0, float(last))
    s0 = s.astype(np.intp)
    w = (s - s0)[:, None, None]
    state = (1.0 - w) * traj[s0] + w * traj[np.minimum(s0 + 1, last)]
    j = np.clip(np.searchsorted(xp, xq, side="right") - 1, 0, xp.size - 2)
    theta = np.clip((xq - xp[j]) / (xp[j + 1] - xp[j]), 0.0, 1.0)
    lo, hi = state[:, :, j], state[:, :, j + 1]
    return lo + theta * (hi - lo)


def _whole_array_glue(spec, y0_fn, y1_fn, T, grid, omega_hat, cfl=0.9):
    """The glue as whole-array algebra over (n_steps+1, n, N): forward and
    backward trajectories, y_in and y_out everywhere, then one expression
    for u.  Returns (control, achieved error, HUM residuals)."""
    y0f, y1f = sample_state(y0_fn, grid, spec.n), sample_state(y1_fn, grid, spec.n)
    fwd = solve_forward(spec, y0f, None, T, cfl)
    bwd = solve_backward(spec, y1f, T, cfl)
    cut = TimeCutoff(T)
    eta = cut.value(fwd.times)[:, None, None]
    eta_dot = cut.derivative(fwd.times)[:, None, None]
    u_in = eta_dot[:-1] * (fwd.trajectory[:-1] - bwd.trajectory[:-1])
    residuals = []
    if omega_hat is None:
        u_vals = u_in
    else:
        y_in = eta * fwd.trajectory + (1.0 - eta) * bwd.trajectory
        y_out = np.zeros_like(y_in)
        for comp in omega_hat.complement_components():
            grid_i = Grid(comp.lo, comp.hi, max(8, math.ceil(comp.length * grid.n_cells)))
            hum = hum_boundary_control(spec, comp, y0_fn(grid_i.centers),
                                       y1_fn(grid_i.centers), grid_i, T, cfl,
                                       cells=np.arange(grid_i.n_cells))
            residuals.append(hum.residual)
            inside = (grid.centers > comp.lo) & (grid.centers < comp.hi)
            y_out[:, :, inside] = _whole_state_resample(
                hum.samples, hum.times, grid_i.centers, fwd.times, grid.centers[inside])
        cutoff = SpaceCutoff.between(omega_hat, spec.omega)
        xi, xi_dot = cutoff.value(grid.centers), cutoff.derivative(grid.centers)
        lam = _speeds_at(spec, grid)
        u_vals = (xi_dot[None, None, :] * lam[None, :, :] * (y_out[:-1] - y_in[:-1])
                  + (1.0 - xi)[None, None, :] * u_in)
    control = ControlField(u_vals, grid, fwd.times[1] - fwd.times[0],
                           spec.omega.contains_points(grid.centers))
    final = solve_forward(spec, y0f, control, T, cfl).final
    err = np.sqrt(grid.dx * np.sum((final.values - y1f.values) ** 2))
    return control, err, tuple(residuals)


def _fourier(n, seed):
    amp = np.random.default_rng(seed).uniform(-1.0, 1.0, (n, 3)) / np.arange(1, 4) ** 2
    return lambda x: amp @ np.sin(np.pi * np.arange(1, 4)[:, None] * np.asarray(x)[None, :])


def _synth_case(label):
    # small-grid versions of the three synthesis cases of the benchmark
    from hypctrl.model import SourceTerm, SpeedProfile
    if label == "a":
        return make_spec([-1.0, 1.0], [[1.0]], [[1.0]], [(0.25, 0.75)]), 0.6, 100
    if label == "b":
        return make_spec([-2.0, -1.0, 1.0, 3.0], np.eye(2), np.eye(2), [(0.3, 0.8)]), 0.6, 60
    prof = SpeedProfile.piecewise_linear([0.0, 0.5, 1.0], [[-1.0, -1.5, -1.0], [1.0, 2.0, 1.0]])
    return (make_spec(prof, [[0.8]], [[1.2]], [(0.2, 0.6)],
                      source=SourceTerm.constant([[0.3, -0.2], [0.1, 0.4]])), 0.78, 60)


class TestInPlaceGlue:
    """The glue formed in place, at the transition cells only, against the
    whole-array glue it replaced: the same operations per element, so every
    control value is equal (the sign of a zero may differ)."""

    @pytest.mark.parametrize("label", ["a", "b", "c"])
    def test_matches_whole_array_glue(self, label):
        spec, T, cells = _synth_case(label)
        grid = Grid(0.0, 1.0, cells)
        y0, y1 = _fourier(spec.n, 1), _fourier(spec.n, 2)
        rep = assemble_internal_control(spec, y0, y1, T, grid)
        control, err, residuals = _whole_array_glue(spec, y0, y1, T, grid, rep.omega_hat)
        assert np.array_equal(rep.control.values, control.values)
        assert rep.control.dt == control.dt
        assert rep.achieved_error == err
        assert rep.hum_residuals == residuals

    def test_full_domain_matches_whole_array_glue(self, spec_full_domain):
        grid = Grid(0.0, 1.0, 80)
        y0, y1 = _fourier(2, 3), _fourier(2, 4)
        rep = synthesize_full_domain(spec_full_domain, y0, y1, 0.4, grid)
        control, err, _ = _whole_array_glue(spec_full_domain, y0, y1, 0.4, grid, None)
        assert np.array_equal(rep.control.values, control.values)
        assert rep.achieved_error == err

    def test_peak_memory_is_near_two_controls(self, spec_2x2):
        tracemalloc.start()
        try:
            rep = assemble_internal_control(spec_2x2, Y0_SIN, _fourier(2, 5), 0.6,
                                            Grid(0.0, 1.0, 200))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.6 * rep.control.values.nbytes


class TestSynthesisMemoryGuard:
    """The peak memory of a synthesis is predicted and checked against
    ``pde.TRAJECTORY_BYTES_LIMIT`` before its first march."""

    @staticmethod
    def _traced(monkeypatch, synthesize, spec, T):
        """(predicted bytes, tracemalloc peak, the ValueError raised or None)."""
        import hypctrl.synth as synth
        predicted = []
        real = synth._peak_bytes

        def spy(*args):
            predicted.append(real(*args))
            return predicted[-1]

        monkeypatch.setattr(synth, "_peak_bytes", spy)
        error = None
        tracemalloc.start()
        try:
            synthesize(spec, Y0_SIN, _fourier(spec.n, 6), T, Grid(0.0, 1.0, 400))
        except ValueError as exc:
            error = exc
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        return predicted[-1], peak, error

    @pytest.mark.parametrize("full", [False, True], ids=["glued", "full-domain"])
    def test_refused_before_allocating(self, monkeypatch, spec_2x2, spec_full_domain, full):
        import hypctrl.pde as pde
        spec, T = (spec_full_domain, 0.4) if full else (spec_2x2, 0.6)
        synthesize = synthesize_full_domain if full else assemble_internal_control
        predicted, peak, error = self._traced(monkeypatch, synthesize, spec, T)
        assert error is None and abs(predicted - peak) <= 0.25 * peak
        monkeypatch.setattr(pde, "TRAJECTORY_BYTES_LIMIT", predicted - 1)
        _, refused_peak, error = self._traced(monkeypatch, synthesize, spec, T)
        assert f"synthesis needs {predicted} bytes, above the limit" in str(error)
        assert refused_peak < 1 << 20 < peak
        monkeypatch.setattr(pde, "TRAJECTORY_BYTES_LIMIT", predicted)
        assert self._traced(monkeypatch, synthesize, spec, T)[2] is None


def _three_interval_case():
    # the demo config with omega = (0.1, 0.3) u (0.6, 0.8): one component
    # touching each end and one interior component, with 1, 2 and 1 channels
    return make_spec([-1.0, 1.0], [[1.0]], [[1.0]], [(0.1, 0.3), (0.6, 0.8)]), 0.7, 200


def _row_of(monkeypatch, spec, T, cells):
    """The parts a synthesis hands its HUM row, and what the row returned."""
    import hypctrl.synth as synth
    seen = []
    real = synth._hum_row
    monkeypatch.setattr(synth, "_hum_row", lambda spec, parts, T, cfl: seen.append(
        (parts, cfl, real(spec, parts, T, cfl))) or seen[-1][2])
    assemble_internal_control(spec, _fourier(spec.n, 1), _fourier(spec.n, 2), T,
                              Grid(0.0, 1.0, cells))
    monkeypatch.setattr(synth, "_hum_row", real)
    (parts, cfl, hums), = seen
    return parts, cfl, hums


@pytest.mark.parametrize("label,cells", [("a", 400), ("b", 240), ("c", 240)])
def test_hum_bytes_match_direct_peak(monkeypatch, label, cells):
    # each component HUM of a synthesis case at the benchmark's grid, called
    # directly.  np.linalg.solve factors a copy of the normal matrix that
    # numpy's linalg allocates itself, where tracemalloc does not see it, so
    # the size of that copy is added to the traced peak
    import hypctrl.synth as synth
    spec, T, _ = _synth_case(label)
    parts, cfl, _ = _row_of(monkeypatch, spec, T, cells)
    assert len(parts) == 2
    for comp, grid_i, y0, y1, sampled in parts:
        tracemalloc.start()
        try:
            hum_boundary_control(spec, comp, y0, y1, grid_i, T, cfl, sampled)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        copy = 8 * (spec.n * grid_i.n_cells) ** 2
        predicted = synth._hum_bytes(spec, [(comp, grid_i)], T, cfl)
        assert abs(predicted - (peak + copy)) <= 0.25 * (peak + copy)


@pytest.mark.parametrize("label,cells", [("a", 400), ("b", 240), ("c", 240)])
def test_hum_row_bytes_match_traced_peak(monkeypatch, label, cells):
    # the HUM term of ``_peak_bytes``, summed over the components of a
    # synthesis case at the benchmark's grid, against the traced peak of
    # their row; LAPACK's untraced copy of a normal matrix is added to the
    # traced memory at the solve that makes it, since the row's peak may
    # also fall in the march, where no copy is held
    import hypctrl.synth as synth
    spec, T, _ = _synth_case(label)
    parts, cfl, _ = _row_of(monkeypatch, spec, T, cells)
    solves = []
    real_solve = np.linalg.solve

    def solve(a, b):
        solves.append(tracemalloc.get_traced_memory()[0] + a.nbytes)
        return real_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", solve)
    tracemalloc.start()
    try:
        synth._hum_row(spec, parts, T, cfl)
        peak = max([tracemalloc.get_traced_memory()[1]] + solves)
    finally:
        tracemalloc.stop()
    assert len(solves) == 2
    predicted = synth._hum_bytes(spec, [part[:2] for part in parts], T, cfl)
    assert predicted == synth._peak_bytes(spec, Grid(0.0, 1.0, cells), 0, 0,
                                          [part[:2] for part in parts], T, cfl)
    assert abs(predicted - peak) <= 0.25 * peak


@pytest.mark.parametrize("label,cells", [("a", 100), ("a", 400), ("b", 60), ("b", 240),
                                         ("c", 60), ("c", 240), ("three", 200)])
def test_row_equals_direct_hum(monkeypatch, label, cells):
    # every component of a synthesis, steered in one row, against a direct
    # call on that component alone: controls, residual and samples bit for
    # bit (the small case c has unequal dt and step counts and a source;
    # the three-interval case has unequal channel counts)
    spec, T, _ = _three_interval_case() if label == "three" else _synth_case(label)
    parts, cfl, hums = _row_of(monkeypatch, spec, T, cells)
    assert len(parts) == (3 if label == "three" else 2)
    for (comp, grid_i, y0, y1, sampled), hum in zip(parts, hums):
        direct = hum_boundary_control(spec, comp, y0, y1, grid_i, T, cfl, sampled)
        for got, want in [(hum.controls.left, direct.controls.left),
                          (hum.controls.right, direct.controls.right)]:
            assert (got is None and want is None) or got.tobytes() == want.tobytes()
        assert hum.residual == direct.residual
        assert hum.samples.tobytes() == direct.samples.tobytes()
        assert hum.times.tobytes() == direct.times.tobytes()


def test_direct_hum_refused_before_allocating(monkeypatch, spec_2x2):
    # a direct library call checks its own peak: about 1.6 MB of impulse
    # responses, normal matrix and LAPACK's copy of it for 240 states over
    # 356 steps
    import hypctrl.pde as pde
    monkeypatch.setattr(pde, "TRAJECTORY_BYTES_LIMIT", 1 << 20)
    grid = Grid(0.0, 0.3, 120)
    y0 = np.stack([np.sin(np.pi * grid.centers), np.zeros(120)])
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"HUM needs \d+ bytes, above the limit"):
            hum_boundary_control(spec_2x2, Interval(0.0, 0.3), y0, np.zeros((2, 120)),
                                 grid, 0.8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("lo,hi", [(0.0, 0.25), (0.25, 0.5)], ids=["touching", "interior"])
def test_hum_visit_allocates_nothing_per_step(monkeypatch, spec_2x2, lo, hi):
    # HUM's batched march hands its states over a chunk at a time, and HUM
    # writes a chunk's impulse responses into A by one transposing copy and
    # indexes the free column's samples out of it: the second chunk of steps
    # and its hand-over allocate nothing near the size of a padded state (a
    # reshape of the impulse columns would copy nstate x channels floats
    # every step).  The normal solve after the march is cut off
    import hypctrl.pde as pde
    import hypctrl.synth as synth

    class Marched(Exception):
        pass

    grid = Grid(lo, hi, 1000)
    marks, shapes = {}, []
    real = synth._march

    def spy(marcher, w0, n_steps, on_chunk, **kw):
        def marked(j0, chunk):
            on_chunk(j0, chunk)
            if j0 == 0:
                marks["start"] = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            elif j0 == pde.NAN_CHECK_EVERY:
                marks["peak"] = tracemalloc.get_traced_memory()[1]
        shapes.append((w0.shape, n_steps))
        real(marcher, w0, n_steps, on_chunk=marked, **kw)
        raise Marched

    monkeypatch.setattr(synth, "_march", spy)
    y0 = np.stack([np.sin(np.pi * grid.centers), np.zeros(1000)])
    tracemalloc.start()
    try:
        with pytest.raises(Marched):
            hum_boundary_control(spec_2x2, Interval(lo, hi), y0, np.zeros((2, 1000)),
                                 grid, 0.016, cells=[3, 4, 500, 501])
    finally:
        tracemalloc.stop()
    ((n, nx, batch), n_steps), = shapes
    assert n_steps > pde.NAN_CHECK_EVERY
    padded = n * (nx + 2) * batch * 8
    assert marks["peak"] - marks["start"] < padded // 8


def test_hum_row_allocates_nothing_per_step(monkeypatch, spec_2x2):
    # a row of three components with 1, 2 and 1 channels and unequal step
    # counts, under the window and bound of the one-component test above
    import hypctrl.pde as pde
    import hypctrl.synth as synth

    class Marched(Exception):
        pass

    marks, shapes = {}, []
    real = synth._march

    def spy(marcher, w0, n_steps, on_chunk, **kw):
        def marked(j0, chunk):
            on_chunk(j0, chunk)
            if j0 == 0:
                marks["start"] = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            elif j0 == pde.NAN_CHECK_EVERY:
                marks["peak"] = tracemalloc.get_traced_memory()[1]
        shapes.append((w0.shape, n_steps))
        real(marcher, w0, n_steps, on_chunk=marked, **kw)
        raise Marched

    monkeypatch.setattr(synth, "_march", spy)
    parts = []
    for lo, hi, n_cells in [(0.0, 0.25, 1000), (0.25, 0.5, 1000), (0.75, 1.0, 700)]:
        grid = Grid(lo, hi, n_cells)
        y0 = np.stack([np.sin(np.pi * grid.centers), np.zeros(n_cells)])
        parts.append((Interval(lo, hi), grid, y0, np.zeros((2, n_cells)),
                      np.array([3, 4, 500, 501])))
    tracemalloc.start()
    try:
        with pytest.raises(Marched):
            synth._hum_row(spec_2x2, parts, 0.016, 0.9)
    finally:
        tracemalloc.stop()
    ((n, nx, batch), n_steps), = shapes
    assert (nx, batch) == (2 * 1000 + 700 + 4, 3) and n_steps > pde.NAN_CHECK_EVERY
    padded = n * (nx + 2) * batch * 8
    assert marks["peak"] - marks["start"] < padded // 8
