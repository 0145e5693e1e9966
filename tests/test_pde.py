import tracemalloc

import numpy as np
import pytest

import hypctrl.obsv as obsv
import hypctrl.pde as pde
from hypctrl.model import ConfigError, SourceTerm, SpeedProfile
from hypctrl.pde import (BoundaryControls, ControlField, Grid, StateField,
                         cfl_dt, characteristics_oracle, sample_state,
                         solve_adjoint, solve_backward, solve_boundary_forward,
                         solve_forward, state_function)
from hypctrl.obsv import necessity_witness, sigma_min_sweep
from hypctrl.synth import (assemble_internal_control, hum_boundary_control,
                           synthesize_full_domain)
from hypctrl.times import refine_control_region
from conftest import make_spec


def smooth_pair(x):
    """Both components equal, flat at the ends: keeps reflections smooth."""
    g = np.sin(np.pi * x) ** 2
    return np.stack([g, g])


class TestCflDt:
    def test_formula_and_snapping(self, spec_2x2):
        grid = Grid(0.0, 1.0, 100)
        dt = cfl_dt(spec_2x2, grid, 0.9, 1.0)
        assert dt <= 0.9 * grid.dx
        assert round(1.0 / dt) == pytest.approx(1.0 / dt, abs=1e-9)

    def test_max_speed_used(self):
        spec = make_spec([-2.0, 1.0], [[1.0]], [[1.0]], [(0.2, 0.8)])
        grid = Grid(0.0, 1.0, 100)
        assert cfl_dt(spec, grid, 1.0, 0.0) == pytest.approx(grid.dx / 2.0)

    def test_unit_courant_alignment(self, spec_2x2):
        grid = Grid(0.0, 1.0, 128)
        dt = cfl_dt(spec_2x2, grid, 1.0, 0.5)
        assert dt == pytest.approx(grid.dx, abs=1e-15)

    def test_bad_factor(self, spec_2x2):
        with pytest.raises(ValueError):
            cfl_dt(spec_2x2, Grid(0.0, 1.0, 100), 1.5, 1.0)

    @pytest.mark.parametrize("horizon", [np.inf, np.nan, -1.0])
    def test_horizon_must_be_finite_and_nonnegative(self, spec_2x2, horizon):
        grid = Grid(0.0, 1.0, 64)
        with pytest.raises(ValueError, match="finite"):
            cfl_dt(spec_2x2, grid, 0.9, horizon)
        y0 = StateField(np.zeros((2, 64)), grid)
        with pytest.raises(ValueError, match="finite"):
            solve_forward(spec_2x2, y0, None, horizon)
        u = ControlField(np.zeros((5, 2, 64)), grid, 0.01, np.ones(64, dtype=bool))
        with pytest.raises(ValueError, match="finite"):
            solve_forward(spec_2x2, y0, u, horizon)

    @pytest.mark.parametrize("horizon", [0.04, 0.06])
    def test_control_must_span_the_horizon(self, spec_2x2, horizon):
        grid = Grid(0.0, 1.0, 64)
        y0 = StateField(np.zeros((2, 64)), grid)
        u = ControlField(np.zeros((5, 2, 64)), grid, 0.01, np.ones(64, dtype=bool))
        with pytest.raises(ConfigError, match=f"spans 5 steps of 0.01 = 0.05, "
                                              f"not the horizon {horizon}"):
            solve_forward(spec_2x2, y0, u, horizon)
        assert solve_forward(spec_2x2, y0, u, 0.05).times.size == 6

    def test_control_must_vanish_outside_omega(self, spec_2x2):
        # the model is 1_omega u: a mask wider than omega is refused where
        # the control is nonzero off omega
        grid = Grid(0.0, 1.0, 64)
        y0 = StateField(np.zeros((2, 64)), grid)
        u = ControlField(np.ones((5, 2, 64)), grid, 0.01, np.ones(64, dtype=bool))
        with pytest.raises(ConfigError, match="the control must vanish outside omega"):
            solve_forward(spec_2x2, y0, u, 0.05)


def _entry_point(name: str, spec, full, bad):
    """Call one library entry point with the bad horizon (or epsilon) ``bad``."""
    grid, zero = Grid(0.0, 1.0, 32), state_function(0.0, 0.0)
    calls = {
        "solve_forward": lambda: solve_forward(
            spec, StateField(np.zeros((2, 32)), grid), None, bad),
        "sigma_min_sweep": lambda: sigma_min_sweep(spec, bad, spec.omega, grid),
        "necessity_witness": lambda: necessity_witness(spec, 1, bad, grid),
        "synthesize_full_domain": lambda: synthesize_full_domain(full, zero, zero, bad, grid),
        "assemble_internal_control": lambda: assemble_internal_control(
            spec, zero, zero, bad, grid),
        "hum_boundary_control": lambda: hum_boundary_control(
            spec, np.zeros((2, 8)), np.zeros((2, 8)), Grid(0.0, 0.25, 8), bad),
        "refine_control_region": lambda: refine_control_region(spec, bad),
    }
    return calls[name]()


@pytest.mark.parametrize("name,bad", [
    ("solve_forward", np.nan), ("solve_forward", np.inf), ("solve_forward", -1.0),
    # spec_2x2 has a full-rank Q0: the horizon is decided before the rank
    ("necessity_witness", np.nan), ("necessity_witness", -1.0),
    # the list rows are named by position: sigma_min_sweep-bad5 .. bad8
    ("sigma_min_sweep", []), ("sigma_min_sweep", [np.nan]),
    ("sigma_min_sweep", [0.3, np.inf]), ("sigma_min_sweep", [0.5, 0.3]),
    ("synthesize_full_domain", 0.0),
    ("assemble_internal_control", 0.0), ("assemble_internal_control", np.nan),
    ("assemble_internal_control", np.inf),
    ("hum_boundary_control", np.nan),
    ("refine_control_region", np.nan), ("refine_control_region", np.inf),
    ("refine_control_region", 0.0),
])
def test_bad_horizon_raises_config_error(spec_2x2, spec_full_domain, name, bad):
    # one horizon rule in pde, plus refine_control_region's epsilon check
    with pytest.raises(ConfigError, match="horizon|epsilon"):
        _entry_point(name, spec_2x2, spec_full_domain, bad)


class TestSolveForward:
    def test_exact_translation_zero_inflow(self):
        # zero couplings mean zero inflow: a bump just translates
        spec = make_spec([-1.0, 1.0], [[0.0]], [[0.0]], [(0.0, 1.0)])
        grid = Grid(0.0, 1.0, 128)
        bump = lambda x: ((x > 0.4) & (x < 0.5)).astype(float)
        y0 = sample_state(state_function(bump, bump), grid, 2)
        res = solve_forward(spec, y0, None, 0.25, cfl=1.0)
        shift = round(0.25 / grid.dx)
        expected = np.zeros_like(y0.values)
        expected[0, :-shift] = y0.values[0, shift:]
        expected[1, shift:] = y0.values[1, :-shift]
        assert np.max(np.abs(res.final.values - expected)) <= 1e-14

    def test_matches_oracle_at_unit_courant(self, spec_full_domain):
        grid = Grid(0.0, 1.0, 128)
        y0 = sample_state(smooth_pair, grid, 2)
        res = solve_forward(spec_full_domain, y0, None, 0.5, cfl=1.0)
        oracle = characteristics_oracle(spec_full_domain,
                                        lambda x: smooth_pair(np.asarray(x)).ravel(),
                                        0.5, grid.centers)
        assert np.max(np.abs(res.final.values - oracle)) <= 1e-12

    def test_first_order_convergence(self, spec_full_domain):
        errs = []
        for n_cells in (64, 128):
            grid = Grid(0.0, 1.0, n_cells)
            y0 = sample_state(smooth_pair, grid, 2)
            res = solve_forward(spec_full_domain, y0, None, 0.7, cfl=0.9)
            oracle = characteristics_oracle(
                spec_full_domain, lambda x: smooth_pair(np.asarray(x)).ravel(),
                0.7, grid.centers)
            errs.append(np.max(np.abs(res.final.values - oracle)))
        assert 1.5 <= errs[0] / errs[1] <= 2.5

    def test_zero_horizon(self, spec_full_domain):
        grid = Grid(0.0, 1.0, 64)
        y0 = sample_state(smooth_pair, grid, 2)
        res = solve_forward(spec_full_domain, y0, None, 0.0)
        assert np.array_equal(res.final.values, y0.values)

    def test_causality(self, spec_2x2):
        grid = Grid(0.0, 1.0, 64)
        T = 0.4
        dt = cfl_dt(spec_2x2, grid, 0.9, T)
        n_steps = round(T / dt)
        start = n_steps // 2
        vals = np.zeros((n_steps, 2, 64))
        vals[start:, :, :] = 1.0
        u = ControlField(vals, grid, dt,
                         spec_2x2.omega.contains_points(grid.centers))
        y0 = StateField(np.zeros((2, 64)), grid)
        res = solve_forward(spec_2x2, y0, u, T)
        assert not res.trajectory[:start + 1].any()
        assert res.trajectory[start + 1].any()


# couplings that mix both components at each end, and a source that jumps
Q0_MIXED, Q1_MIXED = [[0.9, 0.3], [-0.2, 1.1]], [[1.2, -0.4], [0.1, 0.8]]
SOURCE_4X4 = SourceTerm.piecewise_constant([0.0, 0.4, 1.0], [
    [[0.1, -0.2, 0.05, 0.0], [0.0, 0.3, -0.1, 0.2], [0.2, 0.0, -0.3, 0.1], [-0.1, 0.1, 0.0, 0.25]],
    [[-0.2, 0.1, 0.0, 0.3], [0.15, -0.1, 0.2, 0.0], [0.0, 0.25, 0.1, -0.2], [0.3, 0.0, -0.15, 0.1]]])


def _backward_case(label):
    """(spec, cells, horizon): small-grid versions of the three synthesis
    cases of the benchmark, and a 4x4 with mixing couplings and a source."""
    if label == "a":
        return make_spec([-1.0, 1.0], [[1.0]], [[1.0]], [(0.25, 0.75)]), 100, 0.6
    if label == "b":
        return make_spec([-2.0, -1.0, 1.0, 3.0], np.eye(2), np.eye(2), [(0.3, 0.8)]), 60, 0.6
    if label == "c":
        prof = SpeedProfile.piecewise_linear([0.0, 0.5, 1.0],
                                             [[-1.0, -1.5, -1.0], [1.0, 2.0, 1.0]])
        return (make_spec(prof, [[0.8]], [[1.2]], [(0.2, 0.6)],
                          source=SourceTerm.constant([[0.3, -0.2], [0.1, 0.4]])), 60, 0.78)
    return make_spec([-2.0, -1.0, 1.0, 3.0], Q0_MIXED, Q1_MIXED, [(0.3, 0.8)], SOURCE_4X4), 60, 0.6


def _negated_speed_backward(spec, y1, T, cfl):
    """Reference: the time-reversed system marched on the grid's own cells,
    speeds and source negated, the inverse of Q0 at the left end and of Q1
    at the right, its trajectory stored in forward time."""
    grid = y1.grid
    dt, n_steps = pde._resolve_steps(spec, grid, T, cfl)
    marcher = pde._Marcher(pde._segment(-pde._speeds_at(spec, grid), dt, grid.dx,
                                        bc_lo=pde._coupling_bc(np.linalg.inv(spec.couplings.q0)),
                                        bc_hi=pde._coupling_bc(np.linalg.inv(spec.couplings.q1)),
                                        source=-spec.source.at_points(grid.centers)))
    return pde._evolve(marcher, y1, n_steps, dt, reverse=True)


class TestSolveBackward:
    def test_roundtrip(self, spec_full_domain):
        grid = Grid(0.0, 1.0, 128)
        y0 = sample_state(smooth_pair, grid, 2)
        fwd = solve_forward(spec_full_domain, y0, None, 0.5, cfl=0.9)
        bwd = solve_backward(spec_full_domain, fwd.final, 0.5, cfl=0.9)
        assert np.max(np.abs(bwd.trajectory[0] - y0.values)) <= 0.05
        finer = Grid(0.0, 1.0, 256)
        y0f = sample_state(smooth_pair, finer, 2)
        fwdf = solve_forward(spec_full_domain, y0f, None, 0.5, cfl=0.9)
        bwdf = solve_backward(spec_full_domain, fwdf.final, 0.5, cfl=0.9)
        err_c = np.max(np.abs(bwd.trajectory[0] - y0.values))
        err_f = np.max(np.abs(bwdf.trajectory[0] - y0f.values))
        assert err_f <= 0.7 * err_c

    def test_zero_horizon(self, spec_full_domain):
        grid = Grid(0.0, 1.0, 64)
        y1 = sample_state(smooth_pair, grid, 2)
        res = solve_backward(spec_full_domain, y1, 0.0)
        assert res.trajectory.shape[0] == 1
        assert np.array_equal(res.trajectory[0], y1.values)

    def test_singular_coupling_rejected(self):
        spec = make_spec([-1.0, 1.0], [[0.0]], [[1.0]], [(0.0, 1.0)])
        grid = Grid(0.0, 1.0, 64)
        y1 = sample_state(smooth_pair, grid, 2)
        with pytest.raises(ValueError, match="singular"):
            solve_backward(spec, y1, 0.5)

    @pytest.mark.parametrize("cfl", [0.9, 1.0])
    @pytest.mark.parametrize("label", ["a", "b", "c", "4x4"])
    def test_mirror_equals_negated_speed_march(self, label, cfl):
        # the backward march, mirrored in space, against the negated-speed
        # march on the grid's own cells: trajectory and final state byte for
        # byte, since negation and a reversed difference are exact
        spec, cells, T = _backward_case(label)
        grid = Grid(0.0, 1.0, cells)
        rng = np.random.default_rng(cells)
        y1 = StateField(rng.standard_normal((spec.n, cells)), grid)
        got, want = solve_backward(spec, y1, T, cfl), _negated_speed_backward(spec, y1, T, cfl)
        assert got.trajectory.flags.c_contiguous
        assert got.trajectory.tobytes() == want.trajectory.tobytes()
        assert got.final.values.tobytes() == want.final.values.tobytes()
        assert got.times.tobytes() == want.times.tobytes()


class TestSolveBoundaryForward:
    def test_zero_data_zero_controls(self, spec_2x2):
        grid = Grid(0.0, 0.25, 32)
        y0 = StateField(np.zeros((2, 32)), grid)
        dt = cfl_dt(spec_2x2, grid, 0.9, 0.3)
        n_steps = round(0.3 / dt)
        res = solve_boundary_forward(spec_2x2, y0,
                                     BoundaryControls(right=np.zeros((n_steps, 1))), 0.3)
        assert not res.trajectory.any()

    def test_left_interval_constant_control_exact(self, spec_2x2):
        # speeds (-1, 1), coupling 1 at x=0, constant Dirichlet c on the
        # negative component at x=a, horizon short enough that the reflected
        # wave stays clear of the control end: exact solution by tracing
        a, c, T = 0.25, 0.7, 0.2
        grid = Grid(0.0, a, 100)
        g0 = lambda x: np.stack([np.cos(3 * x), np.sin(2 * x)])
        y0 = sample_state(g0, grid, 2)
        dt = cfl_dt(spec_2x2, grid, 1.0, T)
        n_steps = round(T / dt)
        res = solve_boundary_forward(spec_2x2, y0,
                                     BoundaryControls(right=np.full((n_steps, 1), c)),
                                     T, cfl=1.0)
        x = grid.centers
        y_minus = np.where(x + T > a, c, np.cos(3 * (x + T)))
        y_plus = np.where(x - T >= 0, np.sin(2 * (x - T)), np.cos(3 * (T - x)))
        exact = np.stack([y_minus, y_plus])
        assert np.max(np.abs(res.final.values - exact)) <= 1e-12

    def test_missing_or_misshapen_series(self, spec_2x2):
        grid = Grid(0.0, 0.25, 32)
        y0 = StateField(np.zeros((2, 32)), grid)
        with pytest.raises(ValueError, match="missing"):
            solve_boundary_forward(spec_2x2, y0, BoundaryControls(), 0.3)
        with pytest.raises(ValueError, match="shape"):
            solve_boundary_forward(spec_2x2, y0, BoundaryControls(right=np.zeros((3, 1))), 0.3)

    def test_full_grid_refused(self, spec_2x2):
        # the component is the span of the grid: (0, 1) is no component
        grid = Grid(0.0, 1.0, 32)
        zero = np.zeros((2, 32))
        with pytest.raises(ValueError, match="use solve_forward for the full domain"):
            solve_boundary_forward(spec_2x2, StateField(zero, grid), BoundaryControls(), 0.3)
        with pytest.raises(ValueError, match="use solve_forward for the full domain"):
            hum_boundary_control(spec_2x2, zero, zero, grid, 0.3)


class TestSolveAdjoint:
    def test_zero_final_datum(self, spec_2x2):
        grid = Grid(0.0, 1.0, 64)
        z1 = StateField(np.zeros((2, 64)), grid)
        res = solve_adjoint(spec_2x2, z1, 0.5)
        assert not res.trajectory.any()

    def test_rank_deficient_coupling_keeps_z_minus_zero(self):
        spec = make_spec([-1.0, 1.0], [[0.0]], [[1.0]], [(0.0, 1.0)])
        grid = Grid(0.0, 1.0, 200)
        vals = np.zeros((2, 200))
        vals[1] = np.sqrt(np.maximum(2.0 * (1.0 - grid.centers), 0.0))
        res = solve_adjoint(spec, StateField(vals, grid), 2.0, cfl=1.0)
        assert np.max(np.abs(res.trajectory[:, 0, :])) <= 1e-12

    def test_duality_identity_halves_under_refinement(self):
        src = SourceTerm.constant([[0.3, -0.2], [0.1, 0.4]])
        spec = make_spec([-1.0, 1.0], [[0.8]], [[1.2]], [(0.2, 0.6)], source=src)
        rng = np.random.default_rng(3)
        coef = rng.uniform(-1, 1, size=6)

        def run(n_cells):
            grid = Grid(0.0, 1.0, n_cells)
            T = 0.5
            dt = cfl_dt(spec, grid, 0.9, T)
            n_steps = round(T / dt)
            x = grid.centers
            y0 = StateField(np.stack([coef[0] * np.sin(2 * np.pi * x),
                                      coef[1] * np.cos(np.pi * x)]), grid)
            z1 = StateField(np.stack([coef[2] * np.cos(2 * np.pi * x),
                                      coef[3] * x * (1 - x)]), grid)
            ts = np.arange(n_steps) * dt
            uv = np.empty((n_steps, 2, n_cells))
            uv[:, 0, :] = coef[4] * np.sin(np.pi * ts)[:, None] \
                * np.exp(-40 * (x - 0.4) ** 2)[None, :]
            uv[:, 1, :] = coef[5] * np.cos(ts)[:, None] * np.sin(3 * x)[None, :]
            u = ControlField(uv, grid, dt, spec.omega.contains_points(x))
            fwd = solve_forward(spec, y0, u, T)
            adj = solve_adjoint(spec, z1, T)
            dx = grid.dx
            lhs = dx * np.sum(fwd.final.values * z1.values)
            rhs = dx * np.sum(y0.values * adj.trajectory[0])
            pairing = sum(dt * dx * np.sum(u.values[j] * adj.trajectory[j])
                          for j in range(n_steps))
            return abs(lhs - rhs - pairing)

        e1, e2 = run(64), run(128)
        assert 1.5 <= e1 / e2 <= 2.5


class TestCharacteristicsOracle:
    def test_pure_translation(self, spec_full_domain):
        xq = np.array([0.5, 0.6])
        vals = characteristics_oracle(spec_full_domain,
                                      lambda x: [np.sin(x), np.cos(x)], 0.1, xq)
        assert vals[0] == pytest.approx(np.sin(xq + 0.1))
        assert vals[1] == pytest.approx(np.cos(xq - 0.1))

    def test_single_reflection_at_right_boundary(self, spec_full_domain):
        # negative component queried past its reflection at x=1 picks up the
        # positive component's initial value at the mirrored foot point
        g = lambda x: 1.0 + 0.5 * np.asarray(x) ** 2
        t, x = 0.3, 0.9
        vals = characteristics_oracle(spec_full_domain,
                                      lambda xx: [0.0, g(xx)], t, [x])
        assert vals[0, 0] == pytest.approx(g(2.0 - t - x))
        assert vals[1, 0] == pytest.approx(g(x - t))

    def test_zero_horizon(self, spec_full_domain):
        xq = np.linspace(0.05, 0.95, 7)
        vals = characteristics_oracle(spec_full_domain,
                                      lambda x: [x, 2 * x], 0.0, xq)
        assert vals[0] == pytest.approx(xq)
        assert vals[1] == pytest.approx(2 * xq)

    def test_depth_guard(self, spec_full_domain):
        with pytest.raises(RuntimeError, match="depth"):
            characteristics_oracle(spec_full_domain, lambda x: [1.0, 1.0],
                                   50.0, [0.5], max_depth=10)

    def test_requires_constant_speeds_zero_source(self, spec_2x2):
        from hypctrl.model import SpeedProfile
        prof = SpeedProfile.piecewise_linear([0.0, 1.0], [[-1.0, -2.0], [1.0, 2.0]])
        spec = make_spec(prof, [[1.0]], [[1.0]], [(0.0, 1.0)])
        with pytest.raises(ValueError):
            characteristics_oracle(spec, lambda x: [0.0, 0.0], 0.1, [0.5])
        src = SourceTerm.constant([[0.0, 1.0], [0.0, 0.0]])
        spec2 = make_spec([-1.0, 1.0], [[1.0]], [[1.0]], [(0.0, 1.0)], source=src)
        with pytest.raises(ValueError):
            characteristics_oracle(spec2, lambda x: [0.0, 0.0], 0.1, [0.5])


class TestFieldTypes:
    def test_grid_minimum_size(self):
        with pytest.raises(ValueError):
            Grid(0.0, 1.0, 4)

    def test_control_field_masking_is_exact(self, spec_2x2):
        grid = Grid(0.0, 1.0, 64)
        mask = spec_2x2.omega.contains_points(grid.centers)
        vals = np.ones((5, 2, 64))
        u = ControlField(vals, grid, 0.01, mask)
        assert not u.values[:, :, ~mask].any()
        assert u.values[:, :, mask].all()

    def test_control_field_copies_and_adopt_takes_over(self, spec_2x2):
        # the public constructor leaves the caller's array alone; the
        # library's private adopt zeroes outside the mask in place, keeps
        # the array and freezes it, after the same checks
        grid = Grid(0.0, 1.0, 64)
        mask = spec_2x2.omega.contains_points(grid.centers)
        vals = np.ones((5, 2, 64))
        u = ControlField(vals, grid, 0.01, mask)
        assert vals.all() and vals.flags.writeable and u.values is not vals
        adopted = ControlField._adopt(vals, grid, 0.01, mask)
        assert adopted.values is vals and not vals.flags.writeable
        assert np.array_equal(adopted.values, u.values) and adopted.dt == u.dt
        with pytest.raises(ValueError, match="finite"):
            ControlField._adopt(np.full((5, 2, 64), np.nan), grid, 0.01, mask)
        with pytest.raises(ValueError, match="shape"):
            ControlField._adopt(np.ones((5, 64)), grid, 0.01, mask)

    def test_state_field_shape_checked(self):
        with pytest.raises(ValueError):
            StateField(np.zeros((2, 3)), Grid(0.0, 1.0, 64))


class _ReferenceMarcher:
    """The upwind step as it was before the slice rewrite: fancy-index
    gathers, ghost cells by concatenation and a per-cell source einsum.
    Dirichlet ghosts (one column) are broadcast over the batch, which the
    concatenation needs."""

    def __init__(self, sigma, dt, dx, bc_lo, bc_hi, source):
        self.pos = np.nonzero(sigma[:, 0] > 0)[0]
        self.neg = np.nonzero(sigma[:, 0] < 0)[0]
        cour = sigma * (dt / dx)
        self.cp = cour[self.pos][:, :, None]
        self.cn = cour[self.neg][:, :, None]
        self.bc_lo, self.bc_hi = bc_lo, bc_hi
        self.dt, self.source = dt, source

    def step(self, w, j, forcing=None):
        batch = w.shape[2]
        ghost_lo = np.broadcast_to(self.bc_lo(j, w[self.neg, 0, :]),
                                   (self.pos.size, batch))
        ghost_hi = np.broadcast_to(self.bc_hi(j, w[self.pos, -1, :]),
                                   (self.neg.size, batch))
        out = w.copy()

        wp = w[self.pos]
        upwind = np.concatenate([ghost_lo[:, None, :], wp[:, :-1, :]], axis=1)
        out[self.pos] = wp - self.cp * (wp - upwind)

        wn = w[self.neg]
        downwind = np.concatenate([wn[:, 1:, :], ghost_hi[:, None, :]], axis=1)
        out[self.neg] = wn - self.cn * (downwind - wn)

        out += self.dt * np.einsum("xij,jxb->ixb", self.source, w)
        if forcing is not None:
            out += self.dt * forcing
        return out


def _kernel_case(n_neg, n_pos, negative_first, bc, n_steps, seed=11, nx=40):
    """Grouped speeds with slopes, a random per-cell source and random
    boundary data: the marcher under test and the reference on the same
    numbers.  The reference takes its boundary callables in the form
    ``bc(j, outflow) -> ghosts``."""
    rng = np.random.default_rng(seed)
    n = n_neg + n_pos
    x = (np.arange(nx) + 0.5) / nx
    neg = -np.stack([0.5 + 0.1 * k + 0.3 * x for k in range(n_neg)])
    pos = np.stack([0.7 + 0.2 * k - 0.2 * x for k in range(n_pos)])
    sigma = np.vstack([neg, pos] if negative_first else [-pos, -neg])
    n_lo = int(np.sum(sigma[:, 0] > 0))   # inflow components at x=0
    n_hi = n - n_lo
    dx = 1.0 / nx
    dt = 0.95 * dx / np.max(np.abs(sigma))
    if bc == "coupling":
        lo, hi = rng.standard_normal((n_lo, n_hi)), rng.standard_normal((n_hi, n_lo))
        bc_lo, bc_hi = pde._coupling_bc(lo), pde._coupling_bc(hi)
        ref_lo, ref_hi = (lambda j, o: lo @ o), (lambda j, o: hi @ o)
    else:
        lo, hi = rng.standard_normal((n_steps, n_lo)), rng.standard_normal((n_steps, n_hi))
        bc_lo, bc_hi = pde._dirichlet_bc(lo[:, :, None]), pde._dirichlet_bc(hi[:, :, None])
        ref_lo, ref_hi = (lambda j, o: lo[j][:, None]), (lambda j, o: hi[j][:, None])
    source = rng.standard_normal((nx, n, n))
    return (pde._Marcher(pde._segment(sigma, dt, dx, bc_lo, bc_hi, source)),
            _ReferenceMarcher(sigma, dt, dx, ref_lo, ref_hi, source), rng)


def _reference_march(ref, w0, n_steps, forcing):
    """Every state of a march by the reference step, first to last."""
    states = [w0]
    for j in range(n_steps):
        states.append(ref.step(states[-1], j, forcing[j][:, :, None]))
    return states


class _LosesFiniteness(pde._Marcher):
    """A march whose steps only add, and add inf in step 1."""

    def bind(self, w, forcing):
        bufs, _ = super().bind(w, forcing)
        inners = bufs[0][:, 1:-1], bufs[1][:, 1:-1]

        def stepper(src, dst):
            return lambda j, forcing=None: np.add(src, np.inf if j == 1 else 0.0, out=dst)
        return bufs, (stepper(*inners), stepper(*inners[::-1]))


KERNEL_CASES = pytest.mark.parametrize("n_neg,n_pos", [(1, 2), (2, 2)])
SIGN_ORDERS = pytest.mark.parametrize("negative_first", [True, False])
BCS = pytest.mark.parametrize("bc", ["coupling", "dirichlet"])
BATCHES = pytest.mark.parametrize("batch", [1, 7])


class TestMarchingKernel:
    @KERNEL_CASES
    @SIGN_ORDERS
    @BCS
    @BATCHES
    def test_step_bit_identical_to_reference(self, n_neg, n_pos, negative_first,
                                             bc, batch):
        n_steps = 6
        new, ref, rng = _kernel_case(n_neg, n_pos, negative_first, bc, n_steps)
        for j in range(n_steps):
            w = rng.standard_normal((n_neg + n_pos, 40, batch))
            forcing = rng.standard_normal((n_neg + n_pos, 40, 1)) if j % 2 else None
            bufs, steps = new.bind(w, forcing is not None)
            steps[0](j, forcing)
            assert np.array_equal(bufs[1][:, 1:-1], ref.step(w, j, forcing))

    @KERNEL_CASES
    @SIGN_ORDERS
    @BCS
    @BATCHES
    def test_march_bit_identical_to_reference(self, n_neg, n_pos, negative_first,
                                              bc, batch):
        # the whole loop: the buffers swap every step, the ghosts of the
        # state each step reads are rewritten, and nothing carries over
        n, n_steps = n_neg + n_pos, 12
        new, ref, rng = _kernel_case(n_neg, n_pos, negative_first, bc, n_steps)
        w0 = rng.standard_normal((n, 40, batch))
        forcing = rng.standard_normal((n_steps, n, 40))
        states = _reference_march(ref, w0, n_steps, forcing)
        for reverse in (False, True):
            seen = []
            traj = np.empty((n_steps + 1,) + w0.shape)
            w = pde._march(new, w0, n_steps, forcing=forcing,
                           on_chunk=lambda j0, chunk: seen.extend(enumerate(chunk.copy(), j0)),
                           out=traj[::-1] if reverse else traj)
            assert [j for j, _ in seen] == list(range(n_steps + 1))
            for (_, v), want in zip(seen, states):
                assert np.array_equal(v, want)
            assert np.array_equal(w, states[-1])
            order = states[::-1] if reverse else states
            assert np.array_equal(traj, np.stack(order))

    @pytest.mark.parametrize("n_steps", [1, 63, 64, 65, 131])
    @pytest.mark.parametrize("forced", [False, True], ids=["free", "forced"])
    @pytest.mark.parametrize("keep,batch,reverse", [("final", 3, False), ("trajectory", 1, False),
                                                    ("trajectory", 1, True)],
                             ids=["final", "trajectory-forward", "trajectory-reverse"])
    def test_chunks_hand_over_every_state_once(self, n_steps, reverse, forced, keep, batch):
        # chunks of NAN_CHECK_EVERY steps: the states before each step of a
        # chunk, the final state too in the last one, each once and in order
        new, ref, rng = _kernel_case(1, 2, True, "coupling", n_steps)
        w0 = rng.standard_normal((3, 40, batch))
        forcing = rng.standard_normal((n_steps, 3, 40))
        states = _reference_march(ref, w0, n_steps, forcing if forced else np.zeros_like(forcing))
        # keep="trajectory": the states go into a buffer of every state
        # (reversed: a reversed view), else into the march's chunk record
        chunks = []
        traj = np.empty((n_steps + 1,) + w0.shape) if keep == "trajectory" else None
        w = pde._march(new, w0, n_steps, forcing=forcing if forced else None,
                       on_chunk=lambda j0, chunk: chunks.append((j0, chunk.copy())),
                       out=None if traj is None else (traj[::-1] if reverse else traj))
        every = pde.NAN_CHECK_EVERY
        assert [j0 for j0, _ in chunks] == list(range(0, n_steps, every))
        assert [len(c) for _, c in chunks[:-1]] == [every] * (len(chunks) - 1)
        handed = np.concatenate([c for _, c in chunks])
        assert np.array_equal(handed, np.stack(states))
        assert np.array_equal(w, states[-1])
        if keep == "trajectory":
            order = states[::-1] if reverse else states
            assert np.array_equal(traj, np.stack(order))

    @pytest.mark.parametrize("segments", [
        [(40, 70, "coupling", "dirichlet", True)],
        [(40, 70, "coupling", None, True), (29, 66, "dirichlet", "coupling", False)],
        [(40, 70, "coupling", None, False), (29, 66, None, None, True),
         (53, 75, "dirichlet", "coupling", True)],
    ], ids=["one", "two", "three"])
    def test_row_hands_over_separate_marches(self, segments):
        # segments side by side in one row, each with its own cells, dx, dt,
        # step count, source or none, and ends (a coupling, a Dirichlet
        # series or zero data with no writer), against a march of each
        # segment alone: the row runs the most steps, and each segment's
        # states up to its own count are byte for byte its own march's, both
        # in the row's record and in a whole-row buffer of every state
        batch, n_max = 3, max(seg[1] for seg in segments)

        def segment(seed, nx, ends, source, zero_series=False):
            rng = np.random.default_rng(seed)
            x = (np.arange(nx) + 0.5) / nx
            sigma = np.vstack([-(0.5 + 0.3 * x), 0.7 - 0.2 * x, 0.9 - 0.2 * x])
            dx = 0.3 / nx
            bcs = []
            for kind, n_in, n_out in [(ends[0], 2, 1), (ends[1], 1, 2)]:
                if kind == "coupling":
                    bcs.append(pde._coupling_bc(rng.standard_normal((n_in, n_out))))
                elif kind == "dirichlet":
                    bcs.append(pde._dirichlet_bc(rng.standard_normal((n_max, n_in, batch))))
                else:
                    bcs.append(pde._dirichlet_bc(np.zeros((n_max, n_in, batch)))
                               if zero_series else None)
            return (pde._Marcher(pde._segment(
                        sigma, 0.95 * dx / 0.9, dx, *bcs,
                        rng.standard_normal((nx, 3, 3)) if source else None)),
                    rng.standard_normal((3, nx, batch)))

        def states(marcher, w0, n_steps):
            seen = []
            pde._march(marcher, w0, n_steps,
                       on_chunk=lambda j0, chunk: seen.extend(chunk.copy()))
            return seen

        parts = [segment(seed, nx, ends, source)
                 for seed, (nx, _, *ends, source) in enumerate(segments)]
        row = pde._Marcher(*(seg for marcher, _ in parts for seg in marcher.segments))
        assert len({marcher.dt for marcher, _ in parts}) == len(parts)
        w0 = np.zeros((3, row.width, batch))
        at = 0
        for _, w in parts:
            w0[:, at:at + w.shape[1]] = w
            at += w.shape[1] + 2
        marched = states(row, w0, n_max)
        # one buffer of every row state, stored through a view reversed in
        # time and cells; each segment's states are its columns of the view
        whole = np.full((n_max + 1, 3, row.width, batch), np.nan)
        view = whole[::-1, :, ::-1]
        final = pde._march(row, w0, n_max, out=view)
        assert final.tobytes() == marched[-1].tobytes()
        assert view.tobytes() == np.stack(marched).tobytes()
        at = 0
        for seed, ((marcher, w), (nx, n_steps, *ends, source)) in enumerate(zip(parts, segments)):
            alone = states(marcher, w, n_steps)
            assert len(alone) == n_steps + 1
            for got, want in zip(marched, alone):
                assert got[:, at:at + nx].tobytes() == want.tobytes()
            own = view[:, :, row.cols[seed]]
            assert own[:n_steps + 1].tobytes() == np.stack(alone).tobytes()
            assert own.tobytes() == np.stack(marched)[:, :, at:at + nx].tobytes()
            if None in ends:
                # no writer is zero boundary data
                zeros = segment(seed, nx, ends, source, zero_series=True)[0]
                for got, want in zip(states(zeros, w, n_steps), alone):
                    assert got.tobytes() == want.tobytes()
            at += nx + 2

    def test_nonfinite_state_reported_at_the_chunk_end(self):
        # finiteness is checked once per chunk, before its hand-over: a state
        # made non-finite at step 2 is reported at step NAN_CHECK_EVERY
        marcher = _LosesFiniteness(pde._segment(np.ones((2, 8)), 0.1, 0.125, None, None))
        chunks = []
        with pytest.raises(RuntimeError, match=f"finiteness at step {pde.NAN_CHECK_EVERY}$"):
            pde._march(marcher, np.ones((2, 8, 3)), 200,
                       on_chunk=lambda j0, chunk: chunks.append(j0))
        assert chunks == []

    @BCS
    @BATCHES
    def test_pad_cells_never_read(self, bc, batch, monkeypatch):
        # the pad columns no boundary condition writes only meet the zero
        # slots of the Courant table; NaN there must not reach any state
        new, _, rng = _kernel_case(1, 2, True, bc, 10)
        w0 = rng.standard_normal((3, 40, batch))
        forcing = rng.standard_normal((10, 3, 40))
        clean = pde._march(new, w0, 10, forcing=forcing).copy()
        real_bind = new.bind

        def poisoned(w, with_forcing):
            bufs, steps = real_bind(w, with_forcing)
            for buf in bufs:
                buf[new.pos, -1] = np.nan
                buf[new.neg, 0] = np.nan
            return bufs, steps

        monkeypatch.setattr(new, "bind", poisoned)
        with np.errstate(invalid="raise"):
            got = pde._march(new, w0, 10, forcing=forcing)
        assert np.array_equal(got, clean)

    def test_no_per_step_arrays(self):
        # a 400-step march with a source and a forcing holds two padded
        # states, the difference and the gain, plus the temporaries of the
        # finiteness check every NAN_CHECK_EVERY steps: its traced peak stays
        # within a fixed multiple of one padded state, and the steps between
        # two checks allocate nothing near the size of a state
        n, nx, n_steps = 2, 2000, 400
        new, _, rng = _kernel_case(1, 1, True, "coupling", n_steps, nx=nx)
        w0 = rng.standard_normal((n, nx))
        forcing = np.zeros((n_steps, n, nx))
        padded = n * (nx + 2) * 8
        marks = {}

        def on_chunk(j0, chunk):
            # from the first hand-over to the second: the steps of a chunk
            if j0 == 0:
                marks["start"] = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            elif j0 == pde.NAN_CHECK_EVERY:
                marks["peak"] = tracemalloc.get_traced_memory()[1]

        tracemalloc.start()
        try:
            pde._march(new, w0, n_steps, forcing=forcing)
            total = tracemalloc.get_traced_memory()[1]
            pde._march(new, w0, n_steps, forcing=forcing, on_chunk=on_chunk)
        finally:
            tracemalloc.stop()
        assert total < 6 * padded
        assert marks["peak"] - marks["start"] < padded // 8

    @pytest.mark.parametrize("batch", [1, 7])
    def test_scalar_coupling_matches_matmul(self, batch):
        # a 1x1 coupling broadcasts a product instead of calling matmul;
        # every entry is the same single product, so the values agree
        # exactly, here on a strided outflow like the step's boundary slice
        rng = np.random.default_rng(batch)
        for mat in (np.array([[rng.uniform(-2.0, 2.0)]]), np.array([[0.0]])):
            outflow = rng.standard_normal((1, 5, batch))[:, 0, :]
            got = np.full((1, batch), np.nan)
            pde._coupling_bc(mat)(outflow, got)(0)
            assert np.array_equal(got, mat @ outflow)

    def test_march_checks_finiteness_of_batches(self):
        marcher = _LosesFiniteness(pde._segment(np.ones((2, 8)), 0.1, 0.125, None, None))
        # steps between the periodic checks are caught by the final one
        with pytest.raises(RuntimeError, match="finiteness at step 5"):
            pde._march(marcher, np.ones((2, 8, 3)), 5)

    def test_backward_trajectories_in_forward_time(self, spec_2x2):
        grid = Grid(0.0, 1.0, 64)
        datum = sample_state(smooth_pair, grid, 2)
        for res in (solve_backward(spec_2x2, datum, 0.3),
                    solve_adjoint(spec_2x2, datum, 0.3)):
            assert res.trajectory.flags.c_contiguous
            assert res.trajectory.shape == (res.times.size, 2, 64)
            assert np.array_equal(res.trajectory[-1], datum.values)
            assert np.array_equal(res.trajectory[0], res.final.values)

    def test_work_guard(self, spec_2x2, monkeypatch):
        # state values times steps above MARCH_WORK_LIMIT are refused before
        # the states are allocated; at the limit the march runs
        grid = Grid(0.0, 1.0, 64)
        y0 = sample_state(smooth_pair, grid, 2)
        n_steps = round(0.3 / cfl_dt(spec_2x2, grid, 0.9, 0.3))
        work = 2 * 64 * n_steps
        monkeypatch.setattr(pde, "MARCH_WORK_LIMIT", work)
        assert pde._forward(spec_2x2, y0, None, 0.3, 0.9, trajectory=False).trajectory is None
        monkeypatch.setattr(pde, "MARCH_WORK_LIMIT", work - 1)
        with pytest.raises(ValueError, match=f"needs {work} element-steps"):
            pde._forward(spec_2x2, y0, None, 0.3, 0.9, trajectory=False)
        # a batch counts every column, and no state is made
        marcher = pde._adjoint_marcher(spec_2x2, grid, cfl_dt(spec_2x2, grid, 0.9, 0.3))
        monkeypatch.setattr(marcher, "bind", None)
        with pytest.raises(ValueError, match=f"needs {3 * work} element-steps"):
            pde._march(marcher, np.zeros((2, 64, 3)), n_steps)

    def test_gramian_work_guard(self, spec_2x2, monkeypatch):
        # a Gramian recurrence of steps x 2K gathers x nstate^2 values above
        # MARCH_WORK_LIMIT is refused before its nstate^2 buffers; at the
        # limit the sweep runs
        grid, nstate = Grid(0.0, 1.0, 200), 400
        sweep = sigma_min_sweep(spec_2x2, [0.2, 0.3], spec_2x2.omega, grid)
        rows, _ = obsv._one_step_operator(spec_2x2, grid, sweep.dt)
        work = (round(0.3 / sweep.dt) - 1) * 2 * rows.shape[0] * nstate ** 2
        monkeypatch.setattr(pde, "MARCH_WORK_LIMIT", work)
        assert sigma_min_sweep(spec_2x2, [0.2, 0.3], spec_2x2.omega, grid) == sweep
        monkeypatch.setattr(pde, "MARCH_WORK_LIMIT", work - 1)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"needs {work} element-steps"):
                sigma_min_sweep(spec_2x2, [0.2, 0.3], spec_2x2.omega, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * nstate ** 2

    def test_final_only_storage(self, spec_2x2):
        grid = Grid(0.0, 1.0, 64)
        y0 = sample_state(smooth_pair, grid, 2)
        full = solve_forward(spec_2x2, y0, None, 0.3)
        lean = pde._forward(spec_2x2, y0, None, 0.3, 0.9, trajectory=False)
        assert lean.trajectory is None
        assert np.array_equal(lean.final.values, full.final.values)
        assert np.array_equal(lean.times, full.times)

    def test_trajectory_guard(self, spec_2x2, monkeypatch):
        # each public solver stores its trajectory up to the limit and
        # refuses one byte less
        grid, sub = Grid(0.0, 1.0, 64), Grid(0.0, 0.25, 64)
        y0, s0 = sample_state(smooth_pair, grid, 2), sample_state(smooth_pair, sub, 2)
        steps = {g: round(0.3 / cfl_dt(spec_2x2, g, 0.9, 0.3)) for g in (grid, sub)}
        right = BoundaryControls(right=np.zeros((steps[sub], 1)))
        for g, solve in [
                (grid, lambda: solve_forward(spec_2x2, y0, None, 0.3)),
                (grid, lambda: solve_backward(spec_2x2, y0, 0.3)),
                (grid, lambda: solve_adjoint(spec_2x2, y0, 0.3)),
                (sub, lambda: solve_boundary_forward(spec_2x2, s0, right, 0.3))]:
            size = (steps[g] + 1) * 2 * 64 * 8
            monkeypatch.setattr(pde, "TRAJECTORY_BYTES_LIMIT", size)
            assert solve().trajectory.nbytes == size
            monkeypatch.setattr(pde, "TRAJECTORY_BYTES_LIMIT", size - 1)
            with pytest.raises(ValueError, match=f"needs {size} bytes"):
                solve()
        # final-state storage is not limited
        assert pde._forward(spec_2x2, y0, None, 0.3, 0.9, trajectory=False).trajectory is None
