"""Tests for the backward solvers: the explicit backward sweep with a
driver, Picard cross-validation, and the pathwise backward-relation
residual.

The zero-driver sweep must agree *bitwise* with the forward band-heat
solver (same kernel, reversed bookkeeping); that anchor test is what makes
the remaining tolerances meaningful.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from gbrownian import (
    CapabilityError,
    ConfigurationError,
    ConstantControl,
    CylinderFunctional,
    GBSDEProblem,
    GBSDESolution,
    GParams,
    SpaceGrid,
    TimeGrid,
    UsageError,
    equivalence_check,
    g_value,
    gbsde_residual,
    ppde_residual,
    simulate,
    solve_gheat,
    solve_ppde,
    solve_ppde_picard,
)
from gbrownian import gbsde, gheat, ito
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
        assert solution.initial == pytest.approx(math.exp(-0.1), abs=1e-3)
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

    @pytest.mark.parametrize("lipschitz", [math.nan, -1.0])
    def test_driver_lipschitz_must_be_a_number_at_least_zero(self, lipschitz):
        # NaN would pass the step guard, since nan > 0.5 is false
        with pytest.raises(ConfigurationError, match="driver_lipschitz"):
            GBSDEProblem(terminal_square(), lambda t, y, z: -50.0 * y, BAND,
                         driver_lipschitz=lipschitz)

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


PICARD_DRIVERS = [
    pytest.param(lambda t, y, z: 0.7, 0.0, id="scalar"),
    pytest.param(lambda t, y, z: 0.05 * z - 0.1 * y, 0.1,
                 id="z-dependent"),
    pytest.param(lambda t, y, z: -0.1 * y, 0.1, id="discount"),
    # stops at the first iterate: the second pass marches two lanes
    pytest.param(zero_driver, 0.0, id="zero"),
    pytest.param(lambda t, y, z: 0.1 * t * y + 0.5 * t, 0.1,
                 id="t-dependent"),
    # (2 T)^10 / 10! of |Y| still moves after 10 iterations: no
    # second pass
    pytest.param(lambda t, y, z: -2.0 * y, 2.0, id="still-moving"),
    # NaN on the right edge node of the terminal row spreads, so every
    # move is NaN and the iteration runs to 10
    pytest.param(lambda t, y, z: np.where((y == 64.0) & (z > 0.0),
                                          np.nan, -0.1 * y),
                 0.1, id="nan-node"),
]


class TestPicard:
    def test_zero_driver_converges_immediately(self):
        problem = GBSDEProblem(terminal_square(), zero_driver, BAND)
        solution, iterations, delta = solve_ppde_picard(problem, TIME, SPACE)
        assert iterations == 1
        assert delta == 0.0
        direct = solve_ppde(problem, TIME, SPACE)
        assert np.array_equal(solution.y_values, direct.y_values)

    # each driver on the default blocks (under its own id) and on one-row
    # blocks
    @pytest.mark.parametrize("driver, lipschitz, one_row_blocks", [
        pytest.param(*p.values, one_row, id=p.id + suffix)
        for one_row, suffix in ((False, ""), (True, "-one-row-blocks"))
        for p in PICARD_DRIVERS
    ])
    def test_iterates_are_the_whole_surface_field_sweep_bitwise(
            self, driver, lipschitz, one_row_blocks, monkeypatch):
        # the iterates marched as lanes of one sweep, each frozen driver
        # read on the lane before, and the move taken in its place,
        # against whole-surface fields swept one iterate at a time; the
        # lanes march as one run, whatever the block size
        if one_row_blocks:
            monkeypatch.setattr(gheat, "_BLOCK_BYTES", 1)
        problem = GBSDEProblem(terminal_square(), driver, BAND,
                               driver_lipschitz=lipschitz)
        solution, iterations, delta = solve_ppde_picard(problem, TIME, SPACE)
        want, want_iterations, want_delta = oracles.picard_reference(
            SPACE.points() ** 2, driver, BAND, TIME.times(), TIME.dt, SPACE.dx)
        assert np.array_equal(solution.y_values.view(np.uint64),
                              want.view(np.uint64))
        assert (iterations, delta.hex()) == (want_iterations, want_delta.hex())

    def test_peak_is_one_surface_and_a_few_lane_rows(self):
        # the 11 lanes march one row each, and only the kept lane's
        # surface is stored: no second surface for the previous iterate
        problem = GBSDEProblem(terminal_square(), lambda t, y, z: -0.1 * y,
                               BAND, driver_lipschitz=0.1)
        tracemalloc.start()
        try:
            solution, iterations, _ = solve_ppde_picard(problem, TIME, SPACE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert iterations < 10      # the second pass ran too
        surface, lanes = solution.y_values.nbytes, 11 * 8 * SPACE.n_points
        assert peak <= surface + 12 * lanes, (peak - surface) / lanes

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
    def test_residual_is_the_plain_formula_at_several_path_counts(self,
                                                                  n_paths):
        # every node's rows hold all the paths, from two of them to seven
        self.check_plain_formula(n_paths)

    @pytest.mark.parametrize("driver", [
        pytest.param(lambda t, y, z: 0.7, id="scalar"),
        pytest.param(lambda t, y, z: 0.1 * t * y + 0.5 * t, id="t-dependent"),
    ])
    def test_residual_is_the_plain_formula_per_driver(self, driver):
        # a Python scalar from the driver becomes a float row before * dt
        self.check_plain_formula(7, driver)

    def check_plain_formula(self, n_paths,
                            driver=lambda t, y, z: 0.05 * z - 0.1 * y):
        problem = GBSDEProblem(terminal_square(), driver, BAND,
                               driver_lipschitz=0.1)
        solution = solve_ppde(problem, TIME, SPACE)
        bundle = self.lo_bundle(n_steps=100, n_paths=n_paths)
        report = gbsde_residual(solution, bundle)
        y, z, k = solution.paths_view(bundle)
        b, times, dt = bundle.b_paths, bundle.time_grid.times(), bundle.time_grid.dt
        xi = b[:, -1] * b[:, -1]
        assert report.max_residual.hex() == oracles.gbsde_residual_reference(
            y, z, k, b, xi, driver, times, dt).hex()
        # the backward relation grouped as written, with fresh arrays.  The
        # two groupings round 7 times each, each rounding off by at most
        # eps/2 of its partial sum; the 14 partial sums hold each term at
        # most 9 times, and a node's terms and the terminal's are each at
        # most M, the largest |Y| + |F| + |S| + |K| + |xi| of a node: the
        # two part by at most 9 (eps/2) 2M to first order
        cum_f, zint = oracles.backward_sums_reference(y, z, b, driver, times, dt)
        resid = y - (xi[:, None] + (cum_f[:, -1:] - cum_f)
                     - (zint[:, -1:] - zint) - (k[:, -1:] - k))
        scale = np.max(np.abs(y) + np.abs(cum_f) + np.abs(zint) + np.abs(k)
                       + np.abs(xi)[:, None])
        bound = 9.0 * np.finfo(float).eps * scale
        assert abs(report.max_residual - np.max(np.abs(resid))) <= bound
        assert report.terminal_gap.hex() == float(np.max(np.abs(y[:, -1] - xi))).hex()
        assert report.k_initial.hex() == float(np.max(np.abs(k[:, 0]))).hex()
        assert report.k_monotone == bool(np.all(np.diff(k, axis=-1) <= 1e-15))
        assert report.k_initial == 0.0 and report.k_monotone

    def test_residual_scratch_is_a_few_rows_per_path(self):
        # one walk on two nodes' rows: the peak is a few rows of one value
        # per path, whatever the bundle's length
        solution = self.solved()
        n_paths = 2000

        def peak(n_steps):
            bundle = self.lo_bundle(n_steps=n_steps, n_paths=n_paths)
            tracemalloc.start()
            try:
                gbsde_residual(solution, bundle)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short, long = peak(100), peak(400)
        assert long <= 1.1 * short, (short, long)
        assert long <= 32 * 8 * n_paths, long / (8 * n_paths)

    @pytest.mark.parametrize("n_paths", [7, 3000])
    def test_residual_walks_each_frame_once(self, monkeypatch, n_paths):
        built = []

        class Counting(ito.FramePoints):
            def __init__(self, *args):
                built.append(len(args[1][0]))
                super().__init__(*args)

        monkeypatch.setattr(ito, "FramePoints", Counting)
        gbsde_residual(self.solved(), self.lo_bundle(n_steps=100,
                                                     n_paths=n_paths))
        assert built == [n_paths] * 101

    def test_a_nan_driver_value_fails_the_relation(self):
        # the surface solves the clean driver; along the paths the driver
        # gives NaN on path 3 only, and no reduction may drop it
        def driver(t, y, z):
            f = -0.1 * y
            f[3] = np.nan
            return f

        clean = GBSDEProblem(terminal_square(), lambda t, y, z: -0.1 * y,
                             BAND, driver_lipschitz=0.1)
        solution = GBSDESolution(dataclasses.replace(clean, driver=driver),
                                 TIME, SPACE,
                                 solve_ppde(clean, TIME, SPACE).y_values)
        bundle = self.lo_bundle(n_steps=100, n_paths=7)
        assert math.isnan(gbsde_residual(solution, bundle).max_residual)
        report = equivalence_check(solution, bundle)
        assert math.isnan(report.bsde_residual)
        assert not report.bsde_ok and not report.passed

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

    @pytest.mark.parametrize("driver", [
        pytest.param(lambda t, y, z: 0.7, id="scalar"),
        pytest.param(lambda t, y, z: 0.05 * z - 0.1 * y, id="z-dependent"),
    ])
    def test_ppde_residual_is_the_whole_surface_formula(self, driver):
        # Z as one whole-surface gradient, the driver field row by row;
        # row i is ((y[i+1] - y[i]) / dt + G(curvature of y[i+1])) + f[i+1]
        problem = GBSDEProblem(terminal_square(), driver, BAND,
                               driver_lipschitz=0.1)
        solution = solve_ppde(problem, TIME, SPACE)
        y = solution.y_values
        z = gheat.gradient(y, SPACE.dx)
        f = np.empty_like(y)
        for i, t in enumerate(TIME.times()):
            f[i] = driver(t, y[i], z[i])
        g = g_value(BAND, gheat.curvature(y, SPACE.dx))
        want = np.max(np.abs(((y[1:] - y[:-1]) / TIME.dt + g[1:])[:, 1:-1]
                             + f[1:, 1:-1]))
        assert ppde_residual(solution).hex() == float(want).hex()

    def test_ppde_residual_peak_is_one_surface_and_a_block(self,
                                                             monkeypatch):
        # the forward residual of the reversed rows, less the driver row by
        # row: the result, one block of pde_residual's scratch and a row
        problem = GBSDEProblem(terminal_square(), lambda t, y, z: -0.1 * y,
                               BAND, driver_lipschitz=0.1)
        solution = solve_ppde(problem, TIME, SPACE)
        block = 8 * SPACE.n_points * 50
        monkeypatch.setattr(gheat, "_BLOCK_BYTES", block)
        tracemalloc.start()
        try:
            ppde_residual(solution)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        surface = solution.y_values.nbytes
        assert peak <= surface + 5 * block, (peak, surface)

    def test_budgets_are_fixed(self):
        solution = self.solved()
        bundle = self.lo_bundle(n_paths=64)
        report = equivalence_check(solution, bundle)
        tg = bundle.time_grid
        assert report.pde_tol == 1e-9 * max(
            1.0, float(np.max(np.abs(solution.y_values))))
        assert report.bsde_tol == 8.0 * BAND.var_hi * math.sqrt(tg.dt * tg.horizon)

    def test_budget_scale_takes_no_surface_temporary(self, monkeypatch):
        # max(1, max |Y|) read from Y's max and min: the whole-array
        # formula's bits, with no |Y|-sized scratch (the two residuals,
        # which hold their own, are stubbed out)
        xi = CylinderFunctional(times=(1.0,), payoff=lambda x: -x * x,
                                lipschitz_bound=10.0, value_bound=64.0)
        problem = GBSDEProblem(xi, lambda t, y, z: -0.1 * y, BAND,
                               driver_lipschitz=0.1)
        solution = solve_ppde(problem, TIME, SPACE)
        bundle = self.lo_bundle(n_paths=64)
        monkeypatch.setattr(gbsde, "ppde_residual", lambda s: 0.0)
        monkeypatch.setattr(gbsde, "gbsde_residual", lambda s, b: None)
        tracemalloc.start()
        try:
            report = equivalence_check(solution, bundle)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        y = solution.y_values
        want = 1e-9 * max(1.0, float(np.max(np.abs(y))))
        assert -float(np.min(y)) > max(1.0, float(np.max(y)))
        assert report.pde_tol.hex() == want.hex()
        assert peak <= y.nbytes // 16, (peak, y.nbytes)

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
