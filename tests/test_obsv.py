import numpy as np
import pytest

from hypctrl.model import SpeedProfile
from hypctrl.obsv import (detect_threshold, kernel_vector, necessity_sweep,
                          necessity_witness, observability_gramian,
                          sigma_min_sweep)
from hypctrl.pde import Grid, StateField, cfl_dt, solve_adjoint
from conftest import make_spec


@pytest.fixture
def spec_rank_deficient():
    """Zero coupling at x=0: observability fails at every horizon."""
    return make_spec([-1.0, 1.0], [[0.0]], [[1.0]], [(0.0, 1.0)])


class TestGramian:
    def test_small_horizon_vanishes(self, spec_2x2):
        grid = Grid(0.0, 1.0, 32)
        T = 0.01
        g = observability_gramian(spec_2x2, T, spec_2x2.omega, grid)
        dt = cfl_dt(spec_2x2, grid, 1.0, T)
        assert np.max(np.abs(g)) <= T * grid.dx + 1e-15
        assert np.min(np.linalg.eigvalsh(g)) >= -1e-12

    def test_matches_single_adjoint_solve(self, spec_2x2):
        grid = Grid(0.0, 1.0, 32)
        T = 0.7
        g = observability_gramian(spec_2x2, T, spec_2x2.omega, grid, cfl=0.9)
        dt = cfl_dt(spec_2x2, grid, 0.9, T)
        n_steps = round(T / dt)
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
            g = observability_gramian(spec_full_domain, 2.0,
                                      spec_full_domain.omega, grid)
            sigmas.append(np.linalg.eigvalsh(g)[0] / grid.dx)
        assert min(sigmas) > 0.5
        assert abs(sigmas[0] - sigmas[1]) <= 0.2 * max(sigmas)

    def test_memory_guard(self, spec_2x2):
        with pytest.raises(ValueError, match="guard"):
            observability_gramian(spec_2x2, 0.5, spec_2x2.omega, Grid(0.0, 1.0, 4000))


class TestSigmaMinSweep:
    def test_empty_horizon_list_rejected(self, spec_2x2):
        with pytest.raises(ValueError, match="nonempty"):
            sigma_min_sweep(spec_2x2, [], spec_2x2.omega, Grid(0.0, 1.0, 32))

    def test_last_window_is_the_gramian(self, spec_2x2):
        grid = Grid(0.0, 1.0, 32)
        sweep = sigma_min_sweep(spec_2x2, [0.3, 0.7], spec_2x2.omega, grid)
        g = observability_gramian(spec_2x2, 0.7, spec_2x2.omega, grid)
        assert sweep.points[-1][1] == np.linalg.eigvalsh(g)[0] / grid.dx

    def test_threshold_contrast_and_monotonicity(self, spec_2x2):
        grid = Grid(0.0, 1.0, 100)
        sweep = sigma_min_sweep(spec_2x2, [0.3, 0.4, 0.5, 0.6, 0.7],
                                spec_2x2.omega, grid)
        sig = dict(sweep.points)
        assert sig[0.4] <= 1e-8 * max(sig[0.6], 1e-30)
        assert np.all(np.diff(sweep.sigma_min) >= -1e-10)
        assert detect_threshold(sweep) == pytest.approx(0.5, abs=0.051)

    def test_full_domain_always_observable(self, spec_full_domain):
        grid = Grid(0.0, 1.0, 64)
        sweep = sigma_min_sweep(spec_full_domain, [0.1, 0.2], spec_full_domain.omega,
                                grid)
        assert all(s > 0.05 for _, s in sweep.points)

    def test_unsorted_horizons_rejected(self, spec_2x2):
        with pytest.raises(ValueError):
            sigma_min_sweep(spec_2x2, [0.5, 0.4], spec_2x2.omega, Grid(0.0, 1.0, 32))

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


class TestNecessity:
    def test_ratio_matches_closed_form(self, spec_rank_deficient):
        grid = Grid(0.0, 1.0, 500)
        for nu in (1, 2):
            w = necessity_witness(spec_rank_deficient, nu, 2.0, grid)
            assert w.ratio == pytest.approx(nu + 1.0, rel=0.05)
            assert w.z_minus_max <= 1e-12
            assert not w.z1.values[0].any()

    def test_witness_support(self, spec_rank_deficient):
        grid = Grid(0.0, 1.0, 200)
        w = necessity_witness(spec_rank_deficient, 2, 2.0, grid)
        outside = grid.centers >= w.support_hi[0]
        assert not w.z1.values[1, outside].any()

    def test_nu_zero_rejected(self, spec_rank_deficient):
        with pytest.raises(ValueError):
            necessity_witness(spec_rank_deficient, 0, 2.0, Grid(0.0, 1.0, 64))

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
        spec = make_spec([-2.0, -1.0, 1.0, 3.0],
                         [[1.0, 2.0], [2.0, 4.0]], np.eye(2),
                         [(0.0, 1.0)])
        leak = [necessity_witness(spec, 2, 3.0, Grid(0.0, 1.0, n)).z_minus_max
                for n in (200, 800)]
        assert leak[1] < leak[0]
        sweep = necessity_sweep(spec, [1, 2, 4], 3.0, Grid(0.0, 1.0, 400))
        ratios = [r for _, r in sweep.points]
        assert ratios == sorted(ratios) and ratios[0] > 0.0
