"""Acceptance suite: one test per certification criterion, each printing a
pass line with its measured numbers (run with ``pytest -s`` to see them all).
"""

import time

import numpy as np
import pytest

from hypctrl.canon import canonical_form
from hypctrl.model import ControlDomain, Interval
from hypctrl.obsv import (detect_threshold, necessity_witness, sigma_min_sweep)
from hypctrl.pde import ControlField, Grid, cfl_dt, solve_adjoint, solve_forward
from hypctrl.pde import StateField, state_function
from hypctrl.synth import (assemble_internal_control, hum_boundary_control,
                           synthesize_full_domain)
from hypctrl.times import (boundary_control_time, boundary_time_interior,
                           boundary_time_left, boundary_time_right,
                           linear_bound_constant, minimal_control_time,
                           refine_control_region, travel_time)
from conftest import make_spec

Y0_SIN = state_function(lambda x: np.sin(np.pi * x), 0.0)
Y_ZERO = state_function(0.0, 0.0)


class Budget:
    def __init__(self, seconds):
        self.limit = seconds
        self.start = time.perf_counter()

    @property
    def elapsed(self):
        return time.perf_counter() - self.start

    def check(self):
        assert self.elapsed < self.limit, \
            f"runtime {self.elapsed:.1f}s exceeded the {self.limit:.0f}s budget"


def test_criterion_1_formula_reproduction(spec_2x2, spec_4x4):
    budget = Budget(1.0)

    res2 = minimal_control_time(spec_2x2)
    assert abs(res2.value - 0.5) <= 1e-12

    res4 = minimal_control_time(spec_4x4)
    assert abs(res4.value - 0.45) <= 1e-12
    left = boundary_time_left(spec_4x4, Interval(0.0, 0.3)).value
    right = boundary_time_right(spec_4x4, Interval(0.8, 1.0)).value
    assert res4.value == max(left, right)

    budget.check()
    print(f"\ncriterion 1 PASS: T_inf 0.5 and 0.45 reproduced exactly "
          f"({budget.elapsed:.2f}s)")


def test_criterion_2_full_rank_pivot_law():
    budget = Budget(10.0)
    rng = np.random.default_rng(202)
    worst = 0.0
    done = 0
    while done < 500:
        k = int(rng.integers(1, 7))
        l = int(rng.integers(k, 7))
        q = rng.uniform(-1.0, 1.0, (k, l))
        if np.linalg.matrix_rank(q) < k:
            continue
        dec = canonical_form(q)
        assert [r for r, _ in dec.pivots] == list(range(k))
        defect = float(np.max(np.abs(dec.lower @ q @ dec.upper - dec.canonical)))
        worst = max(worst, defect)
        assert defect <= 1e-10
        done += 1
    budget.check()
    print(f"criterion 2 PASS: 500 full-rank matrices, pivot rows in order, "
          f"worst identity defect {worst:.2e} ({budget.elapsed:.2f}s)")


def test_criterion_3_gramian_threshold(spec_2x2):
    budget = Budget(120.0)
    grid = Grid(0.0, 1.0, 200)
    horizons = np.round(np.arange(0.30, 0.701, 0.05), 10)
    sweep = sigma_min_sweep(spec_2x2, horizons, spec_2x2.omega, grid)
    sig = {round(t, 2): s for t, s in sweep.points}
    assert all(s >= -1e-12 for s in sig.values())
    ratio = sig[0.40] / sig[0.60]
    assert ratio < 1e-4
    threshold = detect_threshold(sweep)
    assert threshold is not None and 0.45 <= threshold <= 0.55
    budget.check()
    print(f"criterion 3 PASS: sigma_min(0.40)/sigma_min(0.60) = {ratio:.2e}, "
          f"threshold {threshold:.3f} in [0.45, 0.55] ({budget.elapsed:.1f}s)")


def test_criterion_4_necessity_blowup():
    budget = Budget(60.0)
    spec = make_spec([-1.0, 1.0], [[0.0]], [[1.0]], [(0.0, 1.0)])
    grid = Grid(0.0, 1.0, 2000)
    ratios = {}
    leak = 0.0
    for nu in (1, 2, 4, 8):
        w = necessity_witness(spec, nu, 2.0, grid)
        ratios[nu] = w.ratio
        leak = max(leak, w.z_minus_max)
        assert abs(w.ratio - (nu + 1.0)) <= 0.05 * (nu + 1.0)
    assert leak <= 1e-12
    budget.check()
    print(f"criterion 4 PASS: ratios {[f'{ratios[n]:.3f}' for n in (1, 2, 4, 8)]} "
          f"match nu+1 within 5%, max |z_-| = {leak:.1e} ({budget.elapsed:.1f}s)")


def test_criterion_5_full_domain_synthesis(spec_full_domain):
    budget = Budget(30.0)
    errs = {}
    for n_cells in (200, 400):
        rep = synthesize_full_domain(spec_full_domain, Y0_SIN, Y_ZERO, 0.3,
                                     Grid(0.0, 1.0, n_cells))
        errs[n_cells] = rep.achieved_error
    assert errs[400] <= 10.0 * (1.0 / 400)
    ratio = errs[200] / errs[400]
    assert 1.5 <= ratio <= 2.5
    budget.check()
    print(f"criterion 5 PASS: errors {errs[200]:.2e} -> {errs[400]:.2e}, "
          f"ratio {ratio:.2f} in [1.5, 2.5] ({budget.elapsed:.1f}s)")


def test_criterion_6_internal_synthesis_threshold(spec_2x2):
    budget = Budget(300.0)

    errs = {}
    for n_cells in (200, 400):
        grid = Grid(0.0, 1.0, n_cells)
        rep = assemble_internal_control(spec_2x2, Y0_SIN, Y_ZERO, 0.6, grid)
        errs[n_cells] = rep.achieved_error
        outside = ~spec_2x2.omega.contains_points(grid.centers)
        assert not rep.control.values[:, :, outside].any()
    assert errs[400] <= 5e-2
    assert errs[400] < errs[200]

    # sharpness: below the threshold the boundary least squares on (0, 0.25)
    # hits a refinement-stable floor, far above the exactly-steerable regime
    floors = {}
    tops = {}
    for n_i in (200, 400):
        grid_i = Grid(0.0, 0.25, n_i)
        y0 = np.stack([np.sin(np.pi * grid_i.centers), np.zeros(n_i)])
        y1 = np.zeros((2, n_i))
        floors[n_i] = hum_boundary_control(spec_2x2, y0, y1, grid_i, 0.4).residual
        tops[n_i] = hum_boundary_control(spec_2x2, y0, y1, grid_i, 0.6).residual
    assert tops[400] <= 1e-3
    assert min(floors.values()) >= 0.05
    assert floors[400] >= 0.5 * floors[200]

    budget.check()
    print(f"criterion 6 PASS: errors {errs[200]:.3f} -> {errs[400]:.3f} "
          f"(<= 0.05), support exact, below-threshold floor "
          f"{floors[200]:.3f}/{floors[400]:.3f} vs above {tops[400]:.1e} "
          f"({budget.elapsed:.1f}s)")


def test_criterion_7_refinement_postconditions():
    budget = Budget(30.0)
    rng = np.random.default_rng(707)
    checked = 0
    while checked < 100:
        k = int(rng.integers(1, 4))
        pts = np.sort(rng.uniform(0.0, 1.0, size=2 * k))
        if np.min(np.diff(pts)) < 0.02:
            continue
        omega = ControlDomain(tuple(zip(pts[0::2], pts[1::2])))
        if not omega.complement_components():
            continue
        spec = make_spec([-1.0, 1.0], [[1.0]], [[1.0]], omega.intervals)
        tau = minimal_control_time(spec).value
        if tau == 0.0:
            continue
        for frac in (0.2, 0.1, 0.05):
            eps = frac * tau
            refined = refine_control_region(spec, eps)
            assert omega.compactly_contains(refined.region)
            assert len(refined.region.intervals) >= 1
            worst = max(boundary_control_time(spec, iv).value
                        for iv in refined.region.complement_components())
            assert worst <= tau + eps
        checked += 1
    budget.check()
    print(f"criterion 7 PASS: 100 random regions x 3 slacks, containment and "
          f"bound verified by direct evaluation ({budget.elapsed:.1f}s)")


def test_criterion_8_property_suites():
    budget = Budget(60.0)
    spec = make_spec([-2.0, -1.0, 1.0, 3.0], np.eye(2), np.eye(2), [(0.4, 0.6)])
    cbound = linear_bound_constant(spec)
    rng = np.random.default_rng(808)

    count = 0
    while count < 1000:
        a, b = np.sort(rng.uniform(0.0, 1.0, 2))
        if b - a < 1e-4 or a <= 0.0 or b >= 1.0:
            continue
        inner = Interval(a, b)
        grow = rng.uniform(0.0, 0.05, 2)
        outer = Interval(max(a - grow[0], 0.005), min(b + grow[1], 0.995))

        # monotonicity under inclusion, per boundary case
        assert boundary_time_interior(spec, inner).value \
            <= boundary_time_interior(spec, outer).value
        assert boundary_time_left(spec, Interval(0.0, a)).value \
            <= boundary_time_left(spec, Interval(0.0, b)).value
        assert boundary_time_right(spec, Interval(b, 1.0)).value \
            <= boundary_time_right(spec, Interval(a, 1.0)).value

        # linear bound in the interval length
        assert boundary_time_interior(spec, inner).value <= cbound * inner.length
        assert boundary_time_left(spec, Interval(0.0, b)).value <= cbound * b
        assert boundary_time_right(spec, Interval(a, 1.0)).value <= cbound * (1 - a)

        # continuity: enlargement changes the value by at most C |I_k - I|
        added = (inner.lo - outer.lo) + (outer.hi - inner.hi)
        diff = boundary_time_interior(spec, outer).value \
            - boundary_time_interior(spec, inner).value
        assert 0.0 <= diff <= cbound * added + 1e-14
        count += 1

    # discrete duality pairing error halves when the grid is refined
    from hypctrl.model import SourceTerm
    dspec = make_spec([-1.0, 1.0], [[0.8]], [[1.2]], [(0.2, 0.6)],
                      source=SourceTerm.constant([[0.3, -0.2], [0.1, 0.4]]))

    def duality_defect(n_cells):
        grid = Grid(0.0, 1.0, n_cells)
        T = 0.5
        dt = cfl_dt(dspec, grid, 0.9, T)
        n_steps = round(T / dt)
        x = grid.centers
        y0 = StateField(np.stack([np.sin(2 * np.pi * x), np.cos(np.pi * x)]), grid)
        z1 = StateField(np.stack([np.cos(2 * np.pi * x), x * (1 - x)]), grid)
        ts = np.arange(n_steps) * dt
        uv = np.empty((n_steps, 2, n_cells))
        uv[:, 0, :] = np.sin(np.pi * ts)[:, None] * np.exp(-40 * (x - 0.4) ** 2)
        uv[:, 1, :] = np.cos(ts)[:, None] * np.sin(3 * x)[None, :]
        u = ControlField(uv, grid, dt, dspec.omega.contains_points(x))
        fwd = solve_forward(dspec, y0, u, T)
        adj = solve_adjoint(dspec, z1, T)
        dx = grid.dx
        lhs = dx * np.sum(fwd.final.values * z1.values)
        rhs = dx * np.sum(y0.values * adj.trajectory[0])
        pairing = sum(dt * dx * np.sum(u.values[j] * adj.trajectory[j])
                      for j in range(n_steps))
        return abs(lhs - rhs - pairing)

    d1, d2 = duality_defect(100), duality_defect(200)
    assert 1.5 <= d1 / d2 <= 2.5

    budget.check()
    print(f"criterion 8 PASS: 1000 random intervals satisfy monotonicity, "
          f"linear bound and continuity; duality defect {d1:.2e} -> {d2:.2e} "
          f"({budget.elapsed:.1f}s)")
