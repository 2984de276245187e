"""Tests for the backward solvers: pointwise derivative operators on
cylinder path processes, the explicit backward sweep with a driver, Picard
cross-validation, and the pathwise backward-relation residual.

The zero-driver sweep must agree *bitwise* with the forward band-heat
solver (same kernel, reversed bookkeeping); that anchor test is what makes
the remaining tolerances meaningful.
"""

import math
import tracemalloc

import numpy as np
import pytest

from gbrownian import (
    CapabilityError,
    ConfigurationError,
    ConstantControl,
    CylinderFunctional,
    CylinderPathProcess,
    GBSDEProblem,
    GBSDESolution,
    GParams,
    SpaceGrid,
    TimeGrid,
    UsageError,
    a_g,
    cylinder_derivatives,
    equivalence_check,
    gbsde_residual,
    ppde_residual,
    simulate,
    solve_gheat,
    solve_ppde,
    solve_ppde_picard,
)
from gbrownian import mc
from gbrownian.errors import ExtrapolationError

import oracles

BAND = GParams(1.0, 2.0)
SPACE = SpaceGrid(-8.0, 8.0, 321)
TIME = TimeGrid(1.0, 1600)


def terminal_square():
    return CylinderFunctional(times=(1.0,), payoff=lambda x: x * x,
                              lipschitz_bound=10.0, value_bound=25.0)


def zero_driver(t, y, z):
    return np.zeros_like(y)


class TestCylinderPathProcess:
    def two_piece(self):
        return CylinderPathProcess(
            times=(0.5, 1.0),
            pieces=(lambda t, x: x * x + (1.0 - t),
                    lambda t, x1, x: x * x + (1.0 - t)))

    def test_value_and_piece_selection(self):
        proc = self.two_piece()
        assert proc.piece_index(0.2) == 0
        assert proc.piece_index(0.5) == 1   # the seam observation is recorded
        assert proc.piece_index(0.7) == 1
        assert proc.value(0.25, (2.0,)) == pytest.approx(4.75)
        assert proc.value(0.5, (1.0, 2.0)) == pytest.approx(4.5)
        assert proc.value(0.75, (1.0, 2.0)) == pytest.approx(4.25)

    def test_prefix_arity(self):
        proc = self.two_piece()
        with pytest.raises(UsageError):
            proc.value(0.25, (1.0, 2.0))
        with pytest.raises(UsageError):
            proc.value(0.75, (2.0,))

    def test_mismatched_pieces_are_rejected(self):
        with pytest.raises(UsageError):
            CylinderPathProcess(
                times=(0.5, 1.0),
                pieces=(lambda t, x: x,
                        lambda t, x1, x: x + 1.0))  # jumps at the seam

    @pytest.mark.parametrize("times", [(math.nan,), (0.5, math.inf)])
    def test_non_finite_dates_are_rejected(self, times):
        pieces = (lambda t, x: x, lambda t, x1, x: x)[:len(times)]
        with pytest.raises(UsageError, match="finite"):
            CylinderPathProcess(times=times, pieces=pieces)

    def test_time_domain(self):
        with pytest.raises(UsageError):
            self.two_piece().piece_index(1.2)


class TestDerivativeOperators:
    def test_quadratic_derivatives_are_sharp(self):
        proc = CylinderPathProcess(times=(1.0,),
                                   pieces=(lambda t, x: x * x + 4.0 * (1.0 - t),))
        d_t, d_x, d2_x = cylinder_derivatives(proc, 0.3, (1.2,))
        assert d_t == pytest.approx(-4.0, abs=1e-6)
        assert d_x == pytest.approx(2.4, abs=1e-6)
        assert d2_x == pytest.approx(2.0, abs=1e-4)

    @pytest.mark.parametrize("piece, expected", [
        (lambda t, x: x * x + 4.0 * (1.0 - t), 0.0),    # compensated: harmonic
        (lambda t, x: x * x, 4.0),                       # bare convex square
        (lambda t, x: -x * x, -1.0),                     # bare concave square
        (lambda t, x: x * x + 4.3 * (1.0 - t), -0.3),    # over-compensated
    ])
    def test_generator_action(self, piece, expected):
        proc = CylinderPathProcess(times=(1.0,), pieces=(piece,))
        assert a_g(proc, 0.25, (0.7,), BAND) == pytest.approx(expected, abs=1e-4)

    def test_derivatives_freeze_observed_values(self):
        proc = CylinderPathProcess(
            times=(0.5, 1.0),
            pieces=(lambda t, x: 3.0 * x * x,
                    lambda t, x1, x: 3.0 * x1 * x1 + (x - x1) * 0.0 + 3.0 * (x * x - x1 * x1)))
        d_t, d_x, d2_x = cylinder_derivatives(proc, 0.75, (2.0, 0.4))
        assert d_t == pytest.approx(0.0, abs=1e-6)
        assert d_x == pytest.approx(2.4, abs=1e-6)
        assert d2_x == pytest.approx(6.0, abs=1e-3)


class TestSolvePpde:
    def test_zero_driver_equals_the_forward_solver_bitwise(self):
        problem = GBSDEProblem(terminal_square(), zero_driver, BAND)
        solution = solve_ppde(problem, TIME, SPACE)
        forward = solve_gheat(lambda x: x * x, BAND, TIME, SPACE)
        assert np.array_equal(solution.y_values, forward.values[::-1])

    def test_terminal_row_is_the_payoff(self):
        problem = GBSDEProblem(terminal_square(), zero_driver, BAND)
        solution = solve_ppde(problem, TIME, SPACE)
        np.testing.assert_array_equal(solution.y_values[-1], SPACE.points()**2)

    def test_constant_driver_shifts_by_time_to_maturity(self):
        # adding f = c leaves curvature untouched, so the whole surface
        # translates by c * (T - t) up to accumulation rounding
        c = 0.7
        base = solve_ppde(GBSDEProblem(terminal_square(), zero_driver, BAND),
                          TIME, SPACE)
        shifted = solve_ppde(
            GBSDEProblem(terminal_square(),
                         lambda t, y, z: np.full_like(y, c), BAND),
            TIME, SPACE)
        t = TIME.times()
        want = base.y_values + c * (1.0 - t)[:, None]
        np.testing.assert_allclose(shifted.y_values, want, atol=1e-10)

    def test_degenerate_band_discounting(self):
        flat = GParams(1.0, 1.0)
        xi = CylinderFunctional(times=(1.0,), payoff=lambda x: np.ones_like(x),
                                lipschitz_bound=1.0, value_bound=2.0)
        problem = GBSDEProblem(xi, lambda t, y, z: -0.1 * y, flat,
                               driver_lipschitz=0.1)
        solution = solve_ppde(problem, TimeGrid(1.0, 400), SPACE)
        surf = solution.y_surface()
        assert surf.orientation == "backward"
        assert surf.value(0.0, 0.0) == pytest.approx(math.exp(-0.1), abs=1e-3)
        # x-independence: the whole row discounts uniformly
        np.testing.assert_allclose(solution.y_values[0],
                                   math.exp(-0.1), atol=1e-3)

    def test_two_date_terminal_is_out_of_scope(self):
        xi = CylinderFunctional(times=(0.5, 1.0), payoff=lambda a, b: a + b,
                                lipschitz_bound=1.0, value_bound=40.0)
        with pytest.raises(CapabilityError):
            GBSDEProblem(xi, zero_driver, BAND)

    def test_driver_stability_guard(self):
        problem = GBSDEProblem(terminal_square(), lambda t, y, z: 50.0 * y,
                               BAND, driver_lipschitz=50.0)
        with pytest.raises(ConfigurationError):
            solve_ppde(problem, TIME, SPACE)

    def test_terminal_non_finite_on_the_grid(self):
        # finite on the functional's spot-check box (|x| < 4.5), infinite
        # on the grid's outer nodes
        xi = CylinderFunctional(
            times=(1.0,), payoff=lambda x: np.where(np.abs(x) > 5.0, np.inf, x * x),
            lipschitz_bound=10.0, value_bound=25.0)
        with pytest.raises(UsageError, match="non-finite"):
            solve_ppde(GBSDEProblem(xi, zero_driver, BAND), TIME, SPACE)

    def test_horizon_mismatch(self):
        problem = GBSDEProblem(terminal_square(), zero_driver, BAND)
        with pytest.raises(UsageError, match=r"horizon 1\.0 .*horizon 2\.0"):
            solve_ppde(problem, TimeGrid(2.0, 3200), SPACE)

    @pytest.mark.parametrize("driver, lipschitz", [
        (lambda t, y, z: -0.1 * y, 0.1),
        (lambda t, y, z: 0.1 + 0.2 * y + 0.1 * z, 0.3),
        (lambda t, y, z: np.full_like(y, 0.7), 0.0),
    ], ids=["discount", "affine", "constant"])
    def test_sweep_matches_the_inline_reference(self, driver, lipschitz):
        # march_steps then + dt*f rounds as (v + dt*G) + dt*f, the inline
        # loop as v + dt*(G + f): equal up to accumulated rounding
        problem = GBSDEProblem(terminal_square(), driver, BAND,
                               driver_lipschitz=lipschitz)
        solution = solve_ppde(problem, TIME, SPACE)
        want = oracles.march_backward_reference(
            SPACE.points() ** 2, driver, BAND, TIME.times(), TIME.dt, SPACE.dx)
        gap = float(np.max(np.abs(solution.y_values - want)))
        assert gap <= 1e-12 * float(np.max(np.abs(want)))


class TestPicard:
    def test_zero_driver_converges_immediately(self):
        problem = GBSDEProblem(terminal_square(), zero_driver, BAND)
        solution, iterations, delta = solve_ppde_picard(problem, TIME, SPACE)
        assert iterations == 1
        assert delta == 0.0
        direct = solve_ppde(problem, TIME, SPACE)
        assert np.array_equal(solution.y_values, direct.y_values)

    def test_affine_driver_agrees_with_direct(self):
        problem = GBSDEProblem(terminal_square(),
                               lambda t, y, z: 0.1 + 0.2 * y + 0.1 * z,
                               BAND, driver_lipschitz=0.3)
        solution, iterations, delta = solve_ppde_picard(problem, TIME, SPACE)
        direct = solve_ppde(problem, TIME, SPACE)
        gap = float(np.max(np.abs(solution.y_values - direct.y_values)))
        scale = float(np.max(np.abs(direct.y_values)))
        assert gap <= 1e-7 * scale
        assert iterations <= 10
        assert delta <= 1e-10


class TestPathsAndResiduals:
    def solved(self):
        problem = GBSDEProblem(terminal_square(), zero_driver, BAND)
        return solve_ppde(problem, TIME, SPACE)

    def lo_bundle(self, n_steps=64, n_paths=512, seed=157):
        return simulate(ConstantControl(band=BAND, level=1.0),
                        TimeGrid(1.0, n_steps), n_paths, seed)

    def test_paths_view_shapes_and_k(self):
        solution = self.solved()
        bundle = self.lo_bundle()
        y, z, k = solution.paths_view(bundle)
        assert y.shape == bundle.b_paths.shape
        assert np.all(k[:, 0] == 0.0)
        assert np.all(np.diff(k, axis=-1) <= 1e-15)
        # all paths start at the same point, so Y_0 is a single number
        assert np.ptp(y[:, 0]) == 0.0
        assert y[0, 0] == pytest.approx(4.0, abs=8e-3)
        # compensator of the square under the low edge: <B> - var_hi t
        t = bundle.time_grid.times()
        want_k = bundle.qv_paths - 4.0 * t[None, :]
        assert np.max(np.abs(k - want_k)) < 0.1

    def test_bundle_grid_must_divide_the_solution_grid(self):
        solution = self.solved()
        with pytest.raises(UsageError):
            solution.paths_view(self.lo_bundle(n_steps=96))

    def test_bundle_horizon_must_be_the_solution_horizon(self):
        bundle = simulate(ConstantControl(band=BAND, level=1.0),
                          TimeGrid(2.0, 64), 64, seed=157)
        with pytest.raises(UsageError, match=r"horizon 1\.0 .*horizon 2\.0"):
            self.solved().paths_view(bundle)

    def test_paths_must_stay_inside(self):
        problem = GBSDEProblem(terminal_square(), zero_driver, BAND)
        narrow = solve_ppde(problem, TIME, SpaceGrid(-8.0, 8.0, 321))
        wild = simulate(ConstantControl(band=BAND, level=2.0),
                        TimeGrid(1.0, 100), 4000, seed=163)
        with pytest.raises(ExtrapolationError):
            narrow.paths_view(wild)

    def test_backward_relation_residual(self):
        solution = self.solved()
        bundle = self.lo_bundle(n_steps=200, n_paths=1000)
        report = gbsde_residual(solution, bundle)
        assert report.k_initial == 0.0
        assert report.k_monotone
        assert report.terminal_gap <= 1e-2
        budget = 8.0 * 4.0 * math.sqrt(bundle.time_grid.dt)
        assert 0.0 < report.max_residual <= budget

    def test_residual_is_the_plain_formula_bitwise(self):
        self.check_plain_formula(n_paths=300)

    @pytest.mark.parametrize("n_paths", [2, 4, 7])
    def test_residual_is_the_plain_formula_in_path_blocks(self, monkeypatch,
                                                          n_paths):
        # blocks of 3 paths: one partial block, one block plus one path,
        # and two blocks plus one path
        monkeypatch.setattr(mc, "_PATH_BLOCK_BYTES", 8 * 101 * 3)
        self.check_plain_formula(n_paths)

    def check_plain_formula(self, n_paths):
        problem = GBSDEProblem(terminal_square(), lambda t, y, z: 0.05 * z - 0.1 * y,
                               BAND, driver_lipschitz=0.1)
        solution = solve_ppde(problem, TIME, SPACE)
        bundle = self.lo_bundle(n_steps=100, n_paths=n_paths)
        report = gbsde_residual(solution, bundle)
        # the backward relation written out with fresh arrays
        y, z, k = solution.paths_view(bundle)
        b, times, dt = bundle.b_paths, bundle.time_grid.times(), bundle.time_grid.dt
        xi = b[:, -1] * b[:, -1]
        f = np.stack([problem.driver(times[j], y[:, j], z[:, j])
                      for j in range(bundle.time_grid.n_steps)], axis=1)
        zero = np.zeros((bundle.n_paths, 1))
        cum_f = np.concatenate([zero, np.cumsum(f * dt, axis=1)], axis=1)
        zint = np.concatenate([zero, np.cumsum(z[:, :-1] * np.diff(b, axis=1),
                                               axis=1)], axis=1)
        resid = y - (xi[:, None] + (cum_f[:, -1:] - cum_f)
                     - (zint[:, -1:] - zint) - (k[:, -1:] - k))
        assert report.max_residual.hex() == float(np.max(np.abs(resid))).hex()
        assert report.terminal_gap.hex() == float(np.max(np.abs(y[:, -1] - xi))).hex()
        assert report.k_initial.hex() == float(np.max(np.abs(k[:, 0]))).hex()
        assert report.k_monotone == bool(np.all(np.diff(k, axis=-1) <= 1e-15))
        assert report.k_initial == 0.0 and report.k_monotone

    def test_residual_peak_does_not_grow_with_the_path_count(self, monkeypatch):
        # blocks of 64 paths: Y, Z, K and the tail sums exist per block only
        monkeypatch.setattr(mc, "_PATH_BLOCK_BYTES", 8 * 101 * 64)
        solution = self.solved()

        def peak(n_paths):
            bundle = self.lo_bundle(n_steps=100, n_paths=n_paths)
            tracemalloc.start()
            try:
                gbsde_residual(solution, bundle)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(500), peak(2000)
        assert large <= 1.5 * small, (small, large)

    def test_paths_view_holds_its_outputs_and_fixed_scratch(self):
        # the peak above the three outputs is the walk's scratch, a few
        # rows of n_paths values that do not grow with the bundle's length
        solution = self.solved()
        n_paths = 1000

        def excess(n_steps):
            bundle = self.lo_bundle(n_steps=n_steps, n_paths=n_paths)
            tracemalloc.start()
            try:
                solution.paths_view(bundle)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - 3 * bundle.b_paths.nbytes

        short, long = excess(64), excess(400)
        assert long <= 1.25 * short, (short, long)
        assert long <= 16 * 8 * n_paths, long / (8 * n_paths)

    def test_equivalence_both_directions(self):
        solution = self.solved()
        bundle = self.lo_bundle(n_steps=200, n_paths=1000)
        report = equivalence_check(solution, bundle)
        assert report.pde_ok
        assert report.bsde_ok
        assert report.passed
        assert ppde_residual(solution) <= report.pde_tol

    def test_budgets_are_fixed(self):
        solution = self.solved()
        bundle = self.lo_bundle(n_paths=64)
        report = equivalence_check(solution, bundle)
        tg = bundle.time_grid
        assert report.pde_tol == 1e-9 * max(
            1.0, float(np.max(np.abs(solution.y_values))))
        assert report.bsde_tol == 8.0 * BAND.var_hi * math.sqrt(tg.dt * tg.horizon)

    def test_tampered_surface_fails_direction_one(self):
        # a positively-scaled surface would still solve the (homogeneous)
        # scheme, so corrupt half the rows to break row-to-row consistency
        good = self.solved()
        y_bad = good.y_values.copy()
        y_bad[:800] += 1.0
        bad = GBSDESolution(good.problem, good.time_grid, good.space_grid,
                            y_bad)
        bundle = self.lo_bundle(n_steps=64, n_paths=64)
        report = equivalence_check(bad, bundle)
        assert not report.pde_ok
        assert not report.passed

    def test_discounted_triple_along_paths(self):
        flat = GParams(1.0, 1.0)
        xi = CylinderFunctional(times=(1.0,), payoff=lambda x: np.ones_like(x),
                                lipschitz_bound=1.0, value_bound=2.0)
        problem = GBSDEProblem(xi, lambda t, y, z: -0.1 * y, flat,
                               driver_lipschitz=0.1)
        solution = solve_ppde(problem, TimeGrid(1.0, 400), SPACE)
        bundle = simulate(ConstantControl(band=flat, level=1.0),
                          TimeGrid(1.0, 100), 500, seed=167)
        y, z, k = solution.paths_view(bundle)
        assert y[0, 0] == pytest.approx(math.exp(-0.1), abs=1e-3)
        np.testing.assert_allclose(k, 0.0, atol=1e-10)  # no band, no K
        report = gbsde_residual(solution, bundle)
        assert report.max_residual <= 1e-2  # only the driver quadrature left
