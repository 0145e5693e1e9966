import contextlib
import io
import math
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from hypctrl.model import ConfigError, ControlDomain, Interval, RankError
from hypctrl.pde import (ControlField, Grid, _speeds_at, cfl_dt, sample_state,
                         solve_backward, solve_forward, state_function)
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
        from hypctrl.pde import _forward_segment, _resolve_steps
        from hypctrl.synth import _glue_full_domain
        grid = Grid(0.0, 1.0, 64)
        y0 = sample_state(Y0_SIN, grid, 2)
        y1 = sample_state(state_function(lambda x: x * (1 - x), 0.5), grid, 2)
        dt, n_steps = _resolve_steps(spec_full_domain, grid, 0.4, 0.9)
        forward = _forward_segment(spec_full_domain, grid, dt)
        _, blended = _glue_full_domain(spec_full_domain, forward, y0, y1, 0.4, dt, n_steps,
                                       np.arange(grid.n_cells))
        assert np.array_equal(blended[0], y0.values)
        assert np.array_equal(blended[-1], y1.values)


class TestHumBoundaryControl:
    def test_zero_data_zero_control(self, spec_2x2):
        grid = Grid(0.0, 0.25, 32)
        zero = np.zeros((2, 32))
        hum = hum_boundary_control(spec_2x2, zero, zero, grid, 0.6)
        assert hum.residual == 0.0
        assert not hum.controls.right.any()

    def test_threshold_contrast(self, spec_2x2):
        for n_i in (100, 200):
            grid = Grid(0.0, 0.25, n_i)
            y0 = np.stack([np.sin(np.pi * grid.centers), np.zeros(n_i)])
            y1 = np.zeros((2, n_i))
            above = hum_boundary_control(spec_2x2, y0, y1, grid, 0.6)
            below = hum_boundary_control(spec_2x2, y0, y1, grid, 0.4)
            assert above.residual <= 1e-8
            assert below.residual >= 0.05

    def test_interior_interval_both_ends(self, spec_2x2):
        grid = Grid(0.3, 0.6, 60)
        y0 = np.stack([np.cos(grid.centers), np.sin(grid.centers)])
        y1 = np.stack([grid.centers, 1.0 - grid.centers])
        hum = hum_boundary_control(spec_2x2, y0, y1, grid, 0.5)
        assert hum.residual <= 1e-5
        assert hum.controls.left.shape[1] == 1
        assert hum.controls.right.shape[1] == 1

    def test_steering_verified_against_map(self, spec_2x2):
        # the returned series, replayed through the subinterval solver,
        # reproduces the reported residual (round trip through the solver)
        grid = Grid(0.75, 1.0, 50)
        y0 = np.stack([np.sin(3 * grid.centers), np.cos(grid.centers)])
        y1 = np.zeros((2, 50))
        hum = hum_boundary_control(spec_2x2, y0, y1, grid, 0.6)
        from hypctrl.pde import StateField, solve_boundary_forward
        res = solve_boundary_forward(spec_2x2, StateField(y0, grid), hum.controls, 0.6)
        err = np.sqrt(grid.dx * np.sum((res.final.values - y1) ** 2))
        assert err == pytest.approx(hum.residual, rel=1e-10, abs=1e-14)

    @pytest.mark.parametrize("name,bad", [
        ("y1_vals", lambda y0, y1: (y0, y1[:, :59])),
        ("y0_vals", lambda y0, y1: (np.where(np.arange(60) == 7, np.nan, y0), y1)),
        ("y0_vals", lambda y0, y1: (y0[:1], y1)),
        ("y1_vals", lambda y0, y1: (y0, y1 + np.inf)),
    ], ids=["short-y1", "nan-y0", "one-component-y0", "inf-y1"])
    def test_bad_states_refused_before_marching(self, monkeypatch, spec_2x2, name, bad):
        # one ValueError naming the argument, before any march
        marches = _count_marches(monkeypatch)
        grid = Grid(0.3, 0.6, 60)
        y0 = np.stack([np.cos(grid.centers), np.sin(grid.centers)])
        with pytest.raises(ValueError, match=f"^{name} must be a finite array of shape "
                                             r"\(2, 60\), got shape"):
            hum_boundary_control(spec_2x2, *bad(y0, np.zeros((2, 60))), grid, 0.5)
        assert marches == []


def _count_marches(monkeypatch) -> list:
    """The list that every ``_march`` call, from ``pde`` or ``synth``,
    appends its state's shape to."""
    import hypctrl.pde as pde
    import hypctrl.synth as synth
    calls, real = [], pde._march

    def counted(marcher, w0, *args, **kwargs):
        calls.append(w0.shape)
        return real(marcher, w0, *args, **kwargs)

    for module in (pde, synth):
        monkeypatch.setattr(module, "_march", counted)
    return calls


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


def _channels(spec, iv):
    left = [] if iv.lo == 0.0 else [("left", j) for j in range(spec.p)]
    right = [] if iv.hi == 1.0 else [("right", i) for i in range(spec.m)]
    return left + right


def _unit_controls(spec, iv, channels, n_steps, row):
    from hypctrl.pde import BoundaryControls
    left = None if iv.lo == 0.0 else np.zeros((n_steps, spec.p))
    right = None if iv.hi == 1.0 else np.zeros((n_steps, spec.m))
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
        hum_boundary_control(spec, y0, y1, grid, T)
        batch = np.stack(seen[0])       # (n_steps+1, n, N, channels+1)
        n_steps = batch.shape[0] - 1
        channels = _channels(spec, iv)
        assert batch.shape[-1] == len(channels) + 1
        for row in list(range(len(channels))) + [None]:
            start = np.zeros_like(y0) if row is not None else y0
            single = solve_boundary_forward(
                spec, StateField(start, grid), _unit_controls(spec, iv, channels, n_steps, row), T)
            # an impulse column starts one step on: its state j is the
            # single march's state j + 1, and its last state is not used
            want = single.trajectory if row is None else single.trajectory[1:]
            col = batch[:len(want), ..., row if row is not None else len(channels)]
            if n == 2 or 0.0 < iv.lo and iv.hi < 1.0:
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
        channels = _channels(spec, iv)
        nstate = spec.n * grid.n_cells
        cols = []
        for row in range(len(channels)):
            traj = solve_boundary_forward(
                spec, StateField(np.zeros_like(y0), grid),
                _unit_controls(spec, iv, channels, n_steps, row), T).trajectory
            cols.append(traj[n_steps - np.arange(n_steps)].reshape(n_steps, nstate).T)
        a_mat = np.hstack(cols)
        free = solve_boundary_forward(spec, StateField(y0, grid),
                                      _unit_controls(spec, iv, channels, n_steps, None), T)
        target = (y1 - free.final.values).reshape(nstate)
        normal = grid.dx * (a_mat.T @ a_mat) + HUM_REGULARIZATION * dt * np.eye(a_mat.shape[1])
        ref = np.linalg.solve(normal, grid.dx * (a_mat.T @ target)).reshape(len(channels), n_steps)

        hum = hum_boundary_control(spec, y0, y1, grid, T)
        got = np.stack([(hum.controls.left if end == "left" else hum.controls.right)[:, comp]
                        for end, comp in channels])
        assert np.allclose(got, ref, rtol=1e-6, atol=1e-6 * np.max(np.abs(ref)))

    def test_one_march_per_component(self, monkeypatch):
        calls = _count_marches(monkeypatch)
        spec = _hum_spec(4)
        for iv, T in HUM_CASES:
            grid, y0, y1 = _hum_case(iv, 4)
            calls.clear()
            hum_boundary_control(spec, y0, y1, grid, T, cells=[0, 5, 23])
            n_ch = len(_channels(spec, iv))
            assert calls == [(4, grid.n_cells, n_ch + 1)]

    @pytest.mark.parametrize("iv,T", HUM_CASES)
    @pytest.mark.parametrize("n", [2, 4])
    def test_samples_equal_replayed_controls(self, iv, T, n):
        # the superposed samples against a march of the returned controls
        from hypctrl.pde import StateField, solve_boundary_forward
        spec = _hum_spec(n)
        grid, y0, y1 = _hum_case(iv, n)
        cells = np.array([0, 1, 7, 8, 16, 22, 23])
        hum = hum_boundary_control(spec, y0, y1, grid, T, cells=cells)
        replay = solve_boundary_forward(spec, StateField(y0, grid), hum.controls, T)
        ref = replay.trajectory[:, :, cells]
        assert hum.samples.shape == ref.shape
        assert np.array_equal(hum.times, replay.times)
        assert np.max(np.abs(hum.samples - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_cells_out_of_range_rejected(self, spec_2x2):
        grid = Grid(0.0, 0.25, 32)
        zero = np.zeros((2, 32))
        for cells in ([32], [-1]):
            with pytest.raises(ValueError, match="sampled cells"):
                hum_boundary_control(spec_2x2, zero, zero, grid, 0.6, cells=cells)


class TestAssembleInternalControl:
    def test_delegates_on_covering_region(self, spec_full_domain):
        # both entry points run the one construction, with no component:
        # omega (0, 1), a two-piece covering omega, and a one-step horizon
        grid, y1 = Grid(0.0, 1.0, 64), _fourier(2, 3)
        two_piece = make_spec([-1.0, 1.0], [[1.0]], [[1.0]], [(0.0, 0.5), (0.5, 1.0)])
        for spec, T in [(spec_full_domain, 0.3), (two_piece, 0.3), (spec_full_domain, 0.001)]:
            rep = assemble_internal_control(spec, Y0_SIN, y1, T, grid)
            full = synthesize_full_domain(spec, Y0_SIN, y1, T, grid)
            assert rep.hum_residuals == full.hum_residuals == ()
            assert rep.omega_hat is None and full.omega_hat is None
            assert rep.control.values.tobytes() == full.control.values.tobytes()
            assert rep.final_state.values.tobytes() == full.final_state.values.tobytes()
            assert rep.achieved_error == full.achieved_error
        assert rep.control.n_steps == 1

    def test_full_domain_error_order(self, spec_2x2, spec_full_domain):
        # the horizon first, then the covering omega, then the couplings
        grid = Grid(0.0, 1.0, 32)
        for T in (np.nan, 0.0):
            for spec in (spec_full_domain, spec_2x2):
                with pytest.raises(ConfigError, match="horizon"):
                    synthesize_full_domain(spec, Y0_SIN, Y_ZERO, T, grid)
        with pytest.raises(ValueError, match="full-domain") as info:
            synthesize_full_domain(spec_2x2, Y0_SIN, Y_ZERO, 0.3, grid)
        assert not isinstance(info.value, ConfigError)
        singular = make_spec([-1.0, 1.0], [[0.0]], [[1.0]], [(0.0, 1.0)])
        for synthesize in (synthesize_full_domain, assemble_internal_control):
            with pytest.raises(RankError, match="coupling matrices must be invertible"):
                synthesize(singular, Y0_SIN, Y_ZERO, 0.3, grid)

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
            # the job's cells whose centres lie in the component, on the
            # job's dx, centres and steps, sampled at every cell
            inside = np.flatnonzero((grid.centers > comp.lo) & (grid.centers < comp.hi))
            k0, k1 = inside[0], inside[-1] + 1
            run = SimpleNamespace(lo=k0 / grid.n_cells, hi=k1 / grid.n_cells, n_cells=k1 - k0,
                                  dx=grid.dx, centers=grid.centers[inside])
            hum = hum_boundary_control(spec, y0f.values[:, inside], y1f.values[:, inside],
                                       run, T, cfl, cells=np.arange(run.n_cells))
            residuals.append(hum.residual)
            assert np.array_equal(hum.times, fwd.times)
            y_out[:, :, inside] = hum.samples
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
    if label == "mixed":
        # case b with couplings that mix both components at each end
        return make_spec([-2.0, -1.0, 1.0, 3.0], [[0.9, 0.3], [-0.2, 1.1]],
                         [[1.2, -0.4], [0.1, 0.8]], [(0.3, 0.8)]), 0.6, 60
    prof = SpeedProfile.piecewise_linear([0.0, 0.5, 1.0], [[-1.0, -1.5, -1.0], [1.0, 2.0, 1.0]])
    return (make_spec(prof, [[0.8]], [[1.2]], [(0.2, 0.6)],
                      source=SourceTerm.constant([[0.3, -0.2], [0.1, 0.4]])), 0.78, 60)


class TestInPlaceGlue:
    """The glue formed in place, at the transition cells only, against the
    whole-array glue it replaced: the same operations per element, so every
    control value is equal (the sign of a zero may differ)."""

    # the glue row stores each state until the midpoint of its steps and
    # forms the control from there on, a chunk of 64 steps at a time: odd
    # and even step counts, a single chunk (63, 64), a second chunk of one
    # step (65) and a chunk that straddles the midpoint (129); case a's
    # 0.6 takes ceil(2 N / 3) steps on N cells
    @pytest.mark.parametrize("label,cells,steps", [
        ("a", None, 67), ("b", None, 120), ("c", None, 104), ("mixed", None, 120),
        pytest.param("a", 94, 63, id="a-63-steps"), pytest.param("a", 96, 64, id="a-64-steps"),
        pytest.param("a", 97, 65, id="a-65-steps"), pytest.param("a", 193, 129, id="a-129-steps"),
    ], ids=["a", "b", "c", "mixed"] + [None] * 4)
    def test_matches_whole_array_glue(self, label, cells, steps):
        spec, T, case_cells = _synth_case(label)
        grid = Grid(0.0, 1.0, cells or case_cells)
        y0, y1 = _fourier(spec.n, 1), _fourier(spec.n, 2)
        rep = assemble_internal_control(spec, y0, y1, T, grid)
        assert rep.control.n_steps == steps
        control, err, residuals = _whole_array_glue(spec, y0, y1, T, grid, rep.omega_hat)
        assert np.array_equal(rep.control.values, control.values)
        assert rep.control.dt == control.dt
        assert rep.achieved_error == err
        assert rep.hum_residuals == residuals

    def test_full_domain_matches_whole_array_glue(self, spec_full_domain):
        # at 0.4 on 80 cells (36 steps), and at the step counts of the
        # glued test above and the fewest, 1 and 2
        grid = Grid(0.0, 1.0, 80)
        y0, y1 = _fourier(2, 3), _fourier(2, 4)
        dt = cfl_dt(spec_full_domain, grid, 0.9, 0.0)
        for T, steps in [(0.4, 36)] + [(k * dt, k) for k in (1, 2, 63, 64, 65, 129)]:
            rep = synthesize_full_domain(spec_full_domain, y0, y1, T, grid)
            assert rep.control.n_steps == steps
            control, err, _ = _whole_array_glue(spec_full_domain, y0, y1, T, grid, None)
            assert np.array_equal(rep.control.values, control.values)
            assert rep.achieved_error == err

    def test_peak_memory_is_near_two_controls(self, spec_2x2):
        # one small synthesis first makes numpy's one-time allocations, which
        # the first synthesis of a process would otherwise count
        assemble_internal_control(spec_2x2, Y0_SIN, _fourier(2, 5), 0.6, Grid(0.0, 1.0, 100))
        tracemalloc.start()
        try:
            rep = assemble_internal_control(spec_2x2, Y0_SIN, _fourier(2, 5), 0.6,
                                            Grid(0.0, 1.0, 200))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.6 * rep.control.values.nbytes

    @pytest.mark.parametrize("label", ["c", "mixed"])
    def test_peak_memory_is_near_two_controls_in_other_cases(self, label):
        # the same bound on case c (a source and piecewise speeds) and on a
        # 4x4 with mixing couplings, at the benchmark's 240 cells, after one
        # small synthesis has made numpy's one-time allocations
        spec, T, cells = _synth_case(label)
        y0, y1 = _fourier(spec.n, 1), _fourier(spec.n, 5)
        assemble_internal_control(spec, y0, y1, T, Grid(0.0, 1.0, cells))
        tracemalloc.start()
        try:
            rep = assemble_internal_control(spec, y0, y1, T, Grid(0.0, 1.0, 240))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.6 * rep.control.values.nbytes


    @pytest.mark.parametrize("label,cells", [("a", 400), ("b", 240), ("c", 240)],
                             ids=["a", "b", "c"])
    def test_peak_memory_per_control_byte(self, label, cells):
        # the benchmark's three synthesis cases on their grids: the glue row
        # keeps one buffer of n_steps + 1 states (the control) beside its
        # chunk record, and HUM solves its smallest normal matrix first, so
        # the traced peak stays under 1.7x the control's bytes (two stored
        # trajectories read 2.19, 2.25 and 2.46x); one small synthesis first
        # makes numpy's one-time allocations
        spec, T, small = _synth_case(label)
        y0, y1 = _fourier(spec.n, 1), _fourier(spec.n, 5)
        assemble_internal_control(spec, y0, y1, T, Grid(0.0, 1.0, small))
        tracemalloc.start()
        try:
            rep = assemble_internal_control(spec, y0, y1, T, Grid(0.0, 1.0, cells))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.7 * rep.control.values.nbytes


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

    @pytest.mark.parametrize("synthesize,full", [
        (assemble_internal_control, False), (synthesize_full_domain, True),
        (assemble_internal_control, True),
    ], ids=["glued", "full-domain", "full-domain-delegated"])
    def test_refused_before_allocating(self, monkeypatch, spec_2x2, spec_full_domain,
                                       synthesize, full):
        import hypctrl.pde as pde
        spec, T = (spec_full_domain, 0.4) if full else (spec_2x2, 0.6)
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
    """The parts a synthesis hands its HUM row, (grid, y0, y1, sampled
    cells) each, its cfl, and what the row returned."""
    import hypctrl.synth as synth
    seen, cfl = [], 0.9
    real = synth._hum_row
    monkeypatch.setattr(synth, "_hum_row", lambda spec, comps, data: seen.append(
        ([(comp.grid, *part) for comp, part in zip(comps, data)],
         real(spec, comps, data))) or seen[-1][1])
    assemble_internal_control(spec, _fourier(spec.n, 1), _fourier(spec.n, 2), T,
                              Grid(0.0, 1.0, cells), cfl)
    monkeypatch.setattr(synth, "_hum_row", real)
    (parts, hums), = seen
    return parts, cfl, hums


def _records(spec, parts, T, cfl):
    """The HUM records of ``parts``, as a synthesis builds them: one (dt,
    n_steps), resolved on the finest of their grids (in a synthesis they
    all have the job's dx, and this is the job's resolution)."""
    import hypctrl.synth as synth
    from hypctrl.pde import _resolve_steps
    steps = _resolve_steps(spec, min((part[0] for part in parts), key=lambda g: g.dx), T, cfl)
    return [synth._hum_component(spec, grid_i, *steps) for grid_i, *_ in parts]


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
    for grid_i, y0, y1, sampled in parts:
        tracemalloc.start()
        try:
            hum_boundary_control(spec, y0, y1, grid_i, T, cfl, sampled)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        copy = 8 * (spec.n * grid_i.n_cells) ** 2
        predicted = synth._hum_bytes(spec, _records(spec, [(grid_i,)], T, cfl))
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
        synth._hum_row(spec, _records(spec, parts, T, cfl), [part[1:] for part in parts])
        peak = max([tracemalloc.get_traced_memory()[1]] + solves)
    finally:
        tracemalloc.stop()
    assert len(solves) == 2
    predicted = synth._hum_bytes(spec, _records(spec, parts, T, cfl))
    assert predicted == synth._peak_bytes(spec, Grid(0.0, 1.0, cells), 0, 0,
                                          _records(spec, parts, T, cfl))
    assert abs(predicted - peak) <= 0.25 * peak


@pytest.mark.parametrize("label,cells", [("a", 100), ("a", 400), ("b", 60), ("b", 240),
                                         ("c", 60), ("c", 240), ("three", 200)])
def test_row_equals_direct_hum(monkeypatch, label, cells):
    # every component of a synthesis, steered in one row, against a direct
    # call on that component alone: controls, residual and samples bit for
    # bit (case c has a source; the three-interval case has unequal channel
    # counts)
    spec, T, _ = _three_interval_case() if label == "three" else _synth_case(label)
    parts, cfl, hums = _row_of(monkeypatch, spec, T, cells)
    assert len(parts) == (3 if label == "three" else 2)
    for (grid_i, y0, y1, sampled), hum in zip(parts, hums):
        direct = hum_boundary_control(spec, y0, y1, grid_i, T, cfl, sampled)
        for got, want in [(hum.controls.left, direct.controls.left),
                          (hum.controls.right, direct.controls.right)]:
            assert (got is None and want is None) or got.tobytes() == want.tobytes()
        assert hum.residual == direct.residual
        assert hum.samples.tobytes() == direct.samples.tobytes()
        assert hum.times.tobytes() == direct.times.tobytes()


def test_hum_row_solves_smallest_first_in_component_order(monkeypatch):
    # the three-interval case's components have 30, 80 and 50 cells: the row
    # solves their normal systems smallest first, while every a_t is held,
    # and returns each component's result at its own place; a call solves
    # k s states for a stack of k blocks of s states (the interior
    # component's two blocks of 50 cells are one stack)
    import hypctrl.synth as synth
    spec, T, cells = _three_interval_case()
    parts, cfl, _ = _row_of(monkeypatch, spec, T, cells)
    sizes = [spec.n * grid_i.n_cells for grid_i, *_ in parts]
    assert sizes != sorted(sizes)
    solves, real_solve = [], np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solves.append(math.prod(a.shape[:-1])) or real_solve(a, b))
    row = synth._hum_row(spec, _records(spec, parts, T, cfl), [part[1:] for part in parts])
    assert solves == sorted(sizes)
    for (grid_i, y0, y1, sampled), hum in zip(parts, row):
        direct = hum_boundary_control(spec, y0, y1, grid_i, T, cfl, sampled)
        assert hum.samples.tobytes() == direct.samples.tobytes()
        assert hum.residual == direct.residual


class TestHumBlocks:
    """HUM's normal systems, one block per group of state components that
    the system never couples, and their products on exactly scaled rows."""

    @pytest.mark.parametrize("label,blocks", [
        ("a", [(((0,), (0, 1)),)] * 2),
        # Q0 = Q1 = I pairs lambda = -2 with 1 and -1 with 3 at both ends
        ("b", [(((0,), (0, 2)), ((1,), (1, 3)))] * 2),
        # the source links the two components everywhere
        ("c", [(((0,), (0, 1)),)] * 2),
        # the interior component reaches no coupling, and its left channel
        # enters component 1, its right one component 0
        ("three", [(((0,), (0, 1)),), (((0,), (1,)), ((1,), (0,))), (((0,), (0, 1)),)]),
    ])
    def test_blocks_of_each_component(self, monkeypatch, label, blocks):
        spec, T, cells = _three_interval_case() if label == "three" else _synth_case(label)
        parts, cfl, _ = _row_of(monkeypatch, spec, T, cells)
        assert [comp.blocks for comp in _records(spec, parts, T, cfl)] == blocks

    def test_source_links_only_where_it_is_nonzero(self):
        # M couples the two components on (0, 0.5) only, and the couplings
        # are zero, so only the source can link them
        import hypctrl.synth as synth
        from hypctrl.model import SourceTerm
        src = SourceTerm.piecewise_constant([0.0, 0.5, 1.0], [[[0.0, 0.4], [0.0, 0.0]],
                                                             [[0.0, 0.0], [0.0, 0.0]]])
        spec = make_spec([-1.0, 1.0], [[0.0]], [[0.0]], [(0.0, 0.1)], source=src)
        inside = synth._hum_component(spec, Grid(0.1, 0.4, 12), 0.01, 10)
        outside = synth._hum_component(spec, Grid(0.6, 0.9, 12), 0.01, 10)
        assert inside.blocks == (((0, 1), (0, 1)),)
        assert outside.blocks == (((0,), (1,)), ((1,), (0,)))

    @staticmethod
    def _dense(monkeypatch, n):
        """Make HUM solve each component of n state components in one dense
        block, its normal matrix dx a_t^T a_t formed unscaled."""
        import hypctrl.synth as synth
        monkeypatch.setattr(synth, "_stacks", lambda comp: [[(tuple(range(comp.n_ch)),
                                                               tuple(range(n)))]])
        monkeypatch.setattr(synth, "_normal",
                            lambda a, scale, out: np.multiply(a.T @ a, scale, out=out))

    @pytest.mark.parametrize("label,component", [("b", 0), ("b", 1), ("a", 0), ("c", 0),
                                                 ("c", 1), ("three", 1)])
    def test_block_solve_against_dense_solve(self, monkeypatch, label, component):
        # case b's components and the interior one of three intervals solve
        # two blocks, which move the controls only at the roundoff of their
        # conditioned solve; a one-block component is the dense solve, bit
        # for bit, since its scaled product is exact
        spec, T, cells = _three_interval_case() if label == "three" else _synth_case(label)
        parts, cfl, _ = _row_of(monkeypatch, spec, T, cells)
        grid_i, y0, y1, sampled = parts[component]
        blocks = hum_boundary_control(spec, y0, y1, grid_i, T, cfl, sampled)
        self._dense(monkeypatch, spec.n)
        dense = hum_boundary_control(spec, y0, y1, grid_i, T, cfl, sampled)
        pairs = [(got, want) for got, want in [(blocks.controls.left, dense.controls.left),
                                               (blocks.controls.right, dense.controls.right)]
                 if want is not None]
        if label in ("b", "three"):
            for got, want in pairs:
                assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))
            assert blocks.residual == pytest.approx(dense.residual, rel=1e-9)
        else:
            for got, want in pairs:
                assert got.tobytes() == want.tobytes()
            assert blocks.residual == dense.residual
            assert blocks.samples.tobytes() == dense.samples.tobytes()

    def test_scaled_product_of_growing_responses(self):
        # reflections of gain 8 at both ends grow the states past 1e30, whose
        # squares a fixed 2^505 would overflow: the exponent drops below that
        # of the same states scaled to at most 1, nothing overflows, and the
        # product and the states are unchanged
        import hypctrl.synth as synth
        spec = make_spec([-1.0, 1.0], [[8.0]], [[8.0]], [(0.0, 1.0)])
        grid = Grid(0.0, 1.0, 40)
        traj = solve_forward(spec, sample_state(Y0_SIN, grid, 2), None, 40.0).trajectory
        a = traj.reshape(len(traj), -1)
        assert np.abs(a).max() > 1e30
        unit = a / 2.0 ** math.frexp(np.abs(a).max())[1]
        ks = []
        for states in (a, unit):
            kept = states.copy()
            want = states.T @ states
            want *= grid.dx
            got = np.empty_like(want)
            ks.append(synth._normal(states, grid.dx, got))
            assert states.tobytes() == kept.tobytes()
            assert np.isfinite(got).all() and got.tobytes() == want.tobytes()
        assert 0 < ks[0] < ks[1] - 100

    def test_peak_memory_of_block_solve_within_hum_bytes(self, monkeypatch):
        # case b's decoupled 4x4 on a 16-cell component over T = 5: each of
        # its two blocks copies its 889 x 32 rows and columns of a_t (about
        # 227 KB), against a 65 KB dense normal term.  The prediction covers
        # the traced peak, with LAPACK's untraced copy of the stack added at
        # the solve, and would not without the block's copy
        import hypctrl.synth as synth
        from hypctrl.pde import _resolve_steps
        spec = _synth_case("b")[0]
        grid = Grid(0.0, 0.3, 16)
        y0, y1 = _fourier(4, 1)(grid.centers), np.zeros((4, 16))
        hum_boundary_control(spec, y0[:, :8], y1[:, :8], Grid(0.0, 0.3, 8), 0.2)
        comp = synth._hum_component(spec, grid, *_resolve_steps(spec, grid, 5.0, 0.9))
        assert comp.blocks == (((0,), (0, 2)), ((1,), (1, 3)))
        copy = 8 * comp.n_steps * 2 * 16
        solves, real_solve = [], np.linalg.solve

        def solve(a, b):
            solves.append(tracemalloc.get_traced_memory()[0] + a.nbytes)
            return real_solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", solve)
        tracemalloc.start()
        try:
            hum_boundary_control(spec, y0, y1, grid, 5.0)
            peak = max([tracemalloc.get_traced_memory()[1]] + solves)
        finally:
            tracemalloc.stop()
        predicted = synth._hum_bytes(spec, [comp])
        assert copy > 220_000 and len(solves) == 1
        assert predicted - copy < peak <= predicted


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
            hum_boundary_control(spec_2x2, y0, np.zeros((2, 120)), grid, 0.8)
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
            hum_boundary_control(spec_2x2, y0, np.zeros((2, 1000)), grid, 0.016,
                                 cells=[3, 4, 500, 501])
    finally:
        tracemalloc.stop()
    ((n, nx, batch), n_steps), = shapes
    assert n_steps > pde.NAN_CHECK_EVERY
    padded = n * (nx + 2) * batch * 8
    assert marks["peak"] - marks["start"] < padded // 8


def test_hum_row_allocates_nothing_per_step(monkeypatch, spec_2x2):
    # a row of three components with 1, 2 and 1 channels and unequal cell
    # widths on one dt, under the window and bound of the one-component
    # test above
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
        parts.append((grid, y0, np.zeros((2, n_cells)), np.array([3, 4, 500, 501])))
    tracemalloc.start()
    try:
        with pytest.raises(Marched):
            synth._hum_row(spec_2x2, _records(spec_2x2, parts, 0.016, 0.9),
                           [part[1:] for part in parts])
    finally:
        tracemalloc.stop()
    ((n, nx, batch), n_steps), = shapes
    assert (nx, batch) == (2 * 1000 + 700 + 4, 3) and n_steps > pde.NAN_CHECK_EVERY
    padded = n * (nx + 2) * batch * 8
    assert marks["peak"] - marks["start"] < padded // 8


def _narrow_case():
    # the example config with omega = (0, 0.2) u (0.8, 1) on 150 cells at T
    # 0.85: its left component is 7.5 cells wide and holds 7 of them
    return make_spec([-1.0, 1.0], [[1.0]], [[1.0]], [(0.0, 0.2), (0.8, 1.0)]), 0.85, 150


@pytest.mark.parametrize("label,cells", [("a", 400), ("b", 240), ("c", 240), ("three", 200),
                                         ("narrow", 150)])
def test_components_are_runs_of_the_job_cells(monkeypatch, label, cells):
    # every record a synthesis hands its HUM row is the run of the job's
    # cells whose centres lie in its component, on the job's dx and centres
    # and with the job's (dt, n_steps); it samples exactly the glue cells
    # (xi' != 0) among them, and each glue cell is sampled once; y0 and y1
    # are the job's samples on the run
    import hypctrl.synth as synth
    from hypctrl.pde import _resolve_steps
    spec, T, _ = {"three": _three_interval_case, "narrow": _narrow_case}.get(
        label, lambda: _synth_case(label))()
    seen, real = [], synth._hum_row
    monkeypatch.setattr(synth, "_hum_row", lambda spec, comps, data: seen.append(
        (comps, data)) or real(spec, comps, data))
    grid = Grid(0.0, 1.0, cells)
    y0, y1 = _fourier(spec.n, 1), _fourier(spec.n, 2)
    rep = assemble_internal_control(spec, y0, y1, T, grid)
    (comps, data), = seen
    dt, n_steps = _resolve_steps(spec, grid, T, 0.9)
    glue = np.flatnonzero(SpaceCutoff.between(rep.omega_hat, spec.omega).derivative(grid.centers))
    components = rep.omega_hat.complement_components()
    assert len(comps) == len(data) == len(components) == len(rep.hum_residuals)
    sampled = []
    for comp, (y0_vals, y1_vals, at), iv in zip(comps, data, components):
        run = np.flatnonzero((grid.centers > iv.lo) & (grid.centers < iv.hi))
        assert (comp.dt, comp.n_steps, comp.grid.dx) == (dt, n_steps, grid.dx)
        assert comp.grid.n_cells == run.size == run[-1] + 1 - run[0]
        assert comp.grid.centers.tobytes() == grid.centers[run].tobytes()
        assert (comp.grid.lo == 0.0, comp.grid.hi == 1.0) == (iv.lo == 0.0, iv.hi == 1.0)
        assert np.array_equal(run[at], glue[(glue >= run[0]) & (glue <= run[-1])])
        assert y0_vals.tobytes() == y0(grid.centers)[:, run].tobytes()
        assert y1_vals.tobytes() == y1(grid.centers)[:, run].tobytes()
        sampled.extend(run[at])
    assert np.array_equal(sampled, glue)
    sizes = [comp.grid.n_cells for comp in comps]
    if label == "a":
        # the refined ends fall on cell centres 112 and 287 of 400
        assert sizes == [112, 112] and n_steps == 267
    if label == "narrow":
        assert min(sizes) == 7
        outside = ~spec.omega.contains_points(grid.centers)
        assert not rep.control.values[:, :, outside].any()
        assert rep.achieved_error <= 0.05


def test_component_without_cells_is_not_steered():
    # on 8 cells at T 1.5 the end components of omega = (0, 0.2) u (0.8, 1)
    # are (0, 0.05) and (0.95, 1), which hold no cell centre and so no glue
    # cell: only the interior component is steered
    spec = _narrow_case()[0]
    grid = Grid(0.0, 1.0, 8)
    rep = assemble_internal_control(spec, Y0_SIN, Y_ZERO, 1.5, grid)
    ends = [(iv.lo, iv.hi) for iv in rep.omega_hat.complement_components()][::2]
    assert np.allclose(ends, [(0.0, 0.05), (0.95, 1.0)], rtol=0, atol=1e-15)
    assert len(rep.hum_residuals) == 1
    outside = ~spec.omega.contains_points(grid.centers)
    assert not rep.control.values[:, :, outside].any()
    assert np.isfinite(rep.achieved_error)


@pytest.mark.parametrize("covering", [False, True], ids=["glued", "full-domain"])
def test_partial_grid_refused_before_anything_runs(monkeypatch, covering):
    # a grid that is not (0, 1): refused before y0 or y1 is sampled and
    # before any march
    spec = make_spec([-1.0, 1.0], [[1.0]], [[1.0]], [(0.0, 1.0)]) if covering \
        else _synth_case("b")[0]
    marches, sampled = _count_marches(monkeypatch), []

    def y(x):
        sampled.append(x)
        return _fourier(spec.n, 1)(x)

    synthesize = synthesize_full_domain if covering else assemble_internal_control
    with pytest.raises(ValueError, match=r"grid on \(0, 1\), not \(0.2, 0.8\)"):
        synthesize(spec, y, y, 0.6, Grid(0.2, 0.8, 240))
    assert marches == [] and sampled == []


@pytest.mark.parametrize("which", ["y0", "y1"])
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_nonfinite_state_refused_before_marching(monkeypatch, which, bad):
    # y0 and y1 are sampled once on the job's grid, before the HUM row: a
    # non-finite value is refused before the first march
    spec, T, cells = _synth_case("b")
    marches = _count_marches(monkeypatch)
    good = _fourier(spec.n, 1)
    broken = lambda x: good(x) + np.where(np.asarray(x) > 0.5, bad, 0.0)
    y0, y1 = (broken, good) if which == "y0" else (good, broken)
    with pytest.raises(ValueError, match="state values must be finite"):
        assemble_internal_control(spec, y0, y1, T, Grid(0.0, 1.0, cells))
    assert marches == []


def _synthesis_job(label):
    spec, T, cells = _three_interval_case() if label == "three" else _synth_case(label)
    return lambda: assemble_internal_control(spec, _fourier(spec.n, 1), _fourier(spec.n, 2),
                                             T, Grid(0.0, 1.0, cells))


def _full_domain_job(synthesize):
    spec = make_spec([-1.0, 1.0], [[1.0]], [[1.0]], [(0.0, 1.0)])
    return lambda: synthesize(spec, Y0_SIN, _fourier(2, 4), 0.4, Grid(0.0, 1.0, 80))


def _hum_job():
    spec, grid = make_spec([-1.0, 1.0], [[1.0]], [[1.0]], [(0.25, 0.75)]), Grid(0.0, 0.25, 32)
    y0 = np.stack([np.sin(np.pi * grid.centers), np.zeros(32)])
    return lambda: hum_boundary_control(spec, y0, np.zeros((2, 32)), grid, 0.6, cells=[3, 4])


def _gramian_job():
    from hypctrl.cli import main
    config = str(Path(__file__).resolve().parents[1] / "demos" / "example_2x2.json")

    def job():
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["gramian", "--config", config, "--tmin", "0.3", "--tmax", "0.7",
                         "--steps", "3"]) == 0
    return job


@pytest.mark.parametrize("job", [
    _synthesis_job("a"), _synthesis_job("b"), _synthesis_job("c"), _synthesis_job("three"),
    _full_domain_job(synthesize_full_domain), _full_domain_job(assemble_internal_control),
    _hum_job(), _gramian_job(),
], ids=["synth-a", "synth-b", "synth-c", "synth-three", "full-domain",
        "full-domain-delegated", "hum", "cli-gramian"])
def test_one_step_resolution_per_grid(monkeypatch, job):
    # every job resolves its one grid's (dt, n_steps) once, before its
    # guard, and hands the numbers to its marches and its re-simulation: a
    # synthesis's complement components are runs of its cells, marched with
    # its (dt, n_steps)
    import hypctrl.cli as cli
    import hypctrl.obsv as obsv
    import hypctrl.pde as pde
    import hypctrl.synth as synth
    seen, real = [], pde._resolve_steps

    def counted(spec, grid, *args, **kwargs):
        seen.append(grid)
        return real(spec, grid, *args, **kwargs)

    for module in (pde, synth, obsv, cli):
        monkeypatch.setattr(module, "_resolve_steps", counted)
    job()
    assert len(seen) == 1
