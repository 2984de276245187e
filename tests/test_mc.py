"""Tests for the controlled path engine: exact ledgers, determinism,
adaptedness, the family supremum, block rewrites, and marginal matching.

Monte Carlo assertions run at three standard errors with frozen seeds, so
every verdict below is reproducible bit for bit.
"""

import math
import os
import sys
import threading
import tracemalloc
from concurrent import futures
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from gbrownian import (
    ConstantControl,
    ControlProcess,
    CylinderFunctional,
    DomainError,
    FeedbackControl,
    GBSDEProblem,
    GParams,
    PerturbationSchedule,
    SelfDependentControl,
    SpaceGrid,
    StepControl,
    TimeGrid,
    UsageError,
    block_budget_gap,
    gbsde_residual,
    identify_drift,
    k_process,
    marginal_match_table,
    marginal_match_test,
    martingale_decomposition,
    martingale_table,
    martingale_test,
    mc_expectation,
    perturb_control,
    qn_integrand,
    qn_quadratic_variation,
    qv_band_violation,
    realized_qv,
    simulate,
    solve_gheat,
    solve_ppde,
    stochastic_integral,
    sup_over_controls_table,
)
from gbrownian import cli, gheat, ito, mc
from gbrownian.errors import ExtrapolationError
from gbrownian.mc import _DRAW_CHUNK, PathBundle, _qv_ledger, _run_euler

import oracles

BAND = GParams(1.0, 2.0)
GRID = TimeGrid(1.0, 512)


def xi_terminal_square():
    return CylinderFunctional(times=(1.0,), payoff=lambda x: x * x,
                              lipschitz_bound=10.0, value_bound=25.0)


def xi_constant():
    return CylinderFunctional(times=(1.0,), payoff=lambda x: 1.0,
                              lipschitz_bound=1.0, value_bound=1.0)


def five_controls():
    """One control of each kind, the step with a callable level."""
    base = SelfDependentControl(band=BAND, rules=(
        math.sqrt(2.5),
        lambda inc: np.where(inc > 0.0, math.sqrt(3.25), math.sqrt(1.75))))
    sched = PerturbationSchedule(refinement=2, alpha=0.25,
                                 sub_control=ConstantControl(band=BAND, level=1.0))
    return [
        ConstantControl(band=BAND, level=1.5),
        StepControl(band=BAND, breaks=(0.0, 0.25, 1.0),
                    levels=(2.0, lambda x: np.where(x > 0.0, 1.0, 2.0))),
        FeedbackControl(band=BAND, surface=solve_gheat(
            oracles.butterfly, BAND, TimeGrid(1.0, 300),
            SpaceGrid(-12.0, 12.0, 201))),
        base,
        perturb_control(base, sched),
    ]


class TestSimulate:
    def test_shapes_and_start(self):
        bundle = simulate(ConstantControl(band=BAND, level=2.0), GRID, 16, seed=5)
        assert bundle.b_paths.shape == (16, 513)
        assert bundle.qv_paths.shape == (16, 513)
        assert bundle.control_paths.shape == (16, 512)
        assert np.all(bundle.b_paths[:, 0] == 0.0)
        assert np.all(bundle.qv_paths[:, 0] == 0.0)

    def test_constant_control_qv_is_exact(self):
        # var_hi * dt is a dyadic rational on this grid, so the terminal
        # ledger value is exactly var_hi * T, not merely close
        bundle = simulate(ConstantControl(band=BAND, level=2.0), GRID, 8, seed=5)
        assert np.all(bundle.qv_paths[:, -1] == 4.0)
        assert np.all(bundle.control_paths == 2.0)

    def test_determinism_and_stream_separation(self):
        a = simulate(ConstantControl(band=BAND, level=1.5), GRID, 32, seed=11)
        b = simulate(ConstantControl(band=BAND, level=1.5), GRID, 32, seed=11)
        c = simulate(ConstantControl(band=BAND, level=1.5), GRID, 32, seed=11,
                     stream=1)
        assert np.array_equal(a.b_paths, b.b_paths)
        assert np.array_equal(a.qv_paths, b.qv_paths)
        assert not np.array_equal(a.b_paths, c.b_paths)

    def test_needs_two_paths(self):
        with pytest.raises(UsageError):
            simulate(ConstantControl(band=BAND, level=1.0), GRID, 1, seed=1)

    def test_qv_ledger_in_band_everywhere(self):
        switch = StepControl(band=BAND, breaks=(0.0, 0.5, 1.0), levels=(1.0, 2.0))
        bundle = simulate(switch, GRID, 64, seed=17)
        assert qv_band_violation(bundle) == 0.0

    def test_adapted_drivers_cannot_peek(self):
        # rewriting the normals from step k on must leave the path and the
        # recorded controls bitwise unchanged before k
        rules = (1.5, lambda inc: np.where(inc > 0.0, 2.0, 1.0))
        control = SelfDependentControl(band=BAND, rules=rules)
        rng = np.random.default_rng(23)
        z = rng.standard_normal((8, GRID.n_steps))
        ref = _run_euler(control, GRID, z, seed=0)
        z2 = z.copy()
        k = 300
        z2[:, k:] = rng.standard_normal((8, GRID.n_steps - k))
        alt = _run_euler(control, GRID, z2, seed=0)
        assert np.array_equal(ref.b_paths[:, :k + 1], alt.b_paths[:, :k + 1])
        assert np.array_equal(ref.control_paths[:, :k], alt.control_paths[:, :k])
        assert not np.array_equal(ref.b_paths[:, -1], alt.b_paths[:, -1])

    def test_drivers_cannot_write_the_history(self):
        class Vandal(ControlProcess):
            band = BAND
            kind = "vandal"

            def make_driver(self, time_grid, n_paths):
                def driver(k, b_hist):
                    b_hist[:, -1] = 1.0
                    return np.ones(n_paths)
                return driver

        # numpy's own refusal, raised at the write, not a later ledger check
        with pytest.raises(ValueError, match="read-only"):
            simulate(Vandal(), GRID, 4, seed=1)
        with pytest.raises(ValueError, match="read-only"):
            _run_euler(Vandal(), GRID, np.zeros((4, GRID.n_steps)), seed=1)


class TestTimeMajorEngine:
    # more paths than one normal draw chunk, and not a multiple of it
    N_PATHS = 2 * _DRAW_CHUNK + 37

    @pytest.mark.parametrize("stream", [0, 3])
    def test_bitwise_equal_to_the_path_major_loop(self, stream):
        n = self.N_PATHS
        assert n > _DRAW_CHUNK and n % _DRAW_CHUNK != 0
        z = oracles.philox_normals(19, stream, n, GRID.n_steps)
        for control in five_controls():
            bundle = simulate(control, GRID, n, seed=19, stream=stream)
            b, qv, h = oracles.euler_path_major(
                control.make_driver(GRID, n), z, GRID.dt)
            assert np.array_equal(bundle.b_paths, b), control.kind
            assert np.array_equal(bundle.qv_paths, qv), control.kind
            assert np.array_equal(bundle.control_paths, h), control.kind
            # the bundle holds the engine's time-major buffers, uncopied
            assert bundle.b_paths.T.flags.c_contiguous
            assert bundle.control_paths.T.flags.c_contiguous


class TestPathBundleValidation:
    def test_rejects_out_of_band_controls(self):
        src = simulate(ConstantControl(band=BAND, level=1.0), GRID, 4, seed=3)
        h = src.control_paths.copy()
        h[1, 10] = 2.5
        with pytest.raises(DomainError):
            PathBundle(BAND, GRID, src.b_paths, h, 3)

    def test_rejects_a_tampered_last_path_block(self):
        # one level out of the band on the last of four paths
        src = simulate(ConstantControl(band=BAND, level=1.0), GRID, 4, seed=3)
        PathBundle(BAND, GRID, src.b_paths, src.control_paths, 3)
        h = src.control_paths.copy()
        h[3, 10] = 2.5
        with pytest.raises(DomainError):
            PathBundle(BAND, GRID, src.b_paths, h, 3)

    def test_checks_hold_block_sized_temporaries(self):
        # no bundle-sized temporaries: whole-array min and max need no
        # scratch, where a check through a derived array would hold one

        def peak(n_paths):
            src = simulate(ConstantControl(band=BAND, level=1.0), GRID,
                           n_paths, seed=3)
            tracemalloc.start()
            try:
                PathBundle(BAND, GRID, src.b_paths, src.control_paths, 3)
                return tracemalloc.get_traced_memory()[1], src.b_paths.nbytes
            finally:
                tracemalloc.stop()

        (small, _), (large, node_bytes) = peak(500), peak(2000)
        assert large <= 1.5 * small, (small, large)
        assert large < node_bytes / 8, (large, node_bytes)

    def test_rejects_nonzero_start(self):
        src = simulate(ConstantControl(band=BAND, level=1.0), GRID, 4, seed=3)
        b = src.b_paths.copy()
        b[2, 0] = 0.1
        with pytest.raises(UsageError):
            PathBundle(BAND, GRID, b, src.control_paths, 3)

    # the engine's time-major layout, and a path-major copy of it
    LAYOUTS = [np.asfortranarray, np.ascontiguousarray]

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("where, value", [
        ((0, 0), 2.5), ((-1, -1), 2.5), ((0, 0), 0.5), ((-1, -1), 0.5),
        ((0, 0), np.nan), ((-1, -1), np.nan), ((1, 7), np.nan)])
    def test_rejects_a_tampered_level_at_either_end(self, layout, where, value):
        src = simulate(ConstantControl(band=BAND, level=1.0), GRID, 4, seed=3)
        h = layout(src.control_paths)
        h[where] = value
        with pytest.raises(DomainError):
            PathBundle(BAND, GRID, layout(src.b_paths), h, 3)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_rejects_a_nan_start(self, layout):
        src = simulate(ConstantControl(band=BAND, level=1.0), GRID, 4, seed=3)
        b = layout(src.b_paths)
        b[3, 0] = np.nan
        with pytest.raises(UsageError, match="start at zero"):
            PathBundle(BAND, GRID, b, layout(src.control_paths), 3)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_accepts_a_negative_zero_start(self, layout):
        src = simulate(ConstantControl(band=BAND, level=1.0), GRID, 4, seed=3)
        b = layout(src.b_paths)
        b[1, 0] = -0.0
        PathBundle(BAND, GRID, b, layout(src.control_paths), 3)

    @pytest.mark.parametrize("paths, levels", [
        ((GRID.n_steps + 1,), (GRID.n_steps,)),
        ((2, 4, GRID.n_steps + 1), (2, 4, GRID.n_steps)),
        ((4, GRID.n_steps + 1), (4, GRID.n_steps, 1))])
    def test_refuses_arrays_that_are_not_2d_naming_both_shapes(self, paths, levels):
        with pytest.raises(UsageError) as err:
            PathBundle(BAND, GRID, np.zeros(paths), np.ones(levels), 3)
        assert str(paths) in str(err.value) and str(levels) in str(err.value)

    def test_accepts_a_bundle_of_no_paths(self):
        bundle = PathBundle(BAND, GRID, np.empty((0, GRID.n_steps + 1)),
                            np.empty((0, GRID.n_steps)), 3)
        assert bundle.n_paths == 0


class TestLedgerIsBuiltOnlyWhenRead:
    """The qv ledger is derived from the levels on first read: passes and
    walks that never read it build none."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []

        def counting(control_paths, dt):
            calls.append(len(control_paths))
            return _qv_ledger(control_paths, dt)

        monkeypatch.setattr(mc, "_qv_ledger", counting)
        return calls

    def test_the_sup_table_builds_none(self, builds):
        sup_over_controls_table(xi_terminal_square(), [
            ConstantControl(band=BAND, level=1.0),
            ConstantControl(band=BAND, level=2.0)], GRID, 200, seed=5)
        assert builds == []

    def test_the_martingale_test_builds_one_per_control_and_chunk(
            self, builds, monkeypatch):
        monkeypatch.setattr(mc, "_CHUNK_BYTES", 8 * GRID.n_steps * 100)
        family = [ConstantControl(band=BAND, level=1.0),
                  ConstantControl(band=BAND, level=2.0)]
        martingale_test(lambda b: k_process(1.0, b), family, [(0.0, 1.0)],
                        GRID, 300, seed=5)
        # three chunks of 100 paths, each read once by each control
        assert builds == [100] * 6

    def test_the_walks_build_none(self, builds):
        problem = GBSDEProblem(
            CylinderFunctional(times=(1.0,), payoff=lambda x: x * x,
                               lipschitz_bound=12.0, value_bound=36.0),
            lambda t, y, z: -0.1 * y, BAND, driver_lipschitz=0.1)
        solution = solve_ppde(problem, TimeGrid(1.0, 2560),
                              SpaceGrid(-6.0, 6.0, 121))
        bundle = simulate(ConstantControl(band=BAND, level=1.0),
                          TimeGrid(1.0, 64), 50, seed=5)
        gbsde_residual(solution, bundle)
        solution.paths_view(bundle)
        assert builds == []


class TestMcExpectation:
    def test_upper_constant_prices_the_square(self):
        bundle = simulate(ConstantControl(band=BAND, level=2.0), GRID, 5000, seed=29)
        est = mc_expectation(xi_terminal_square(), bundle)
        assert abs(est.mean - 4.0) <= 3.0 * est.stderr
        assert est.stderr < 0.1

    def test_lower_constant_prices_the_square(self):
        bundle = simulate(ConstantControl(band=BAND, level=1.0), GRID, 5000, seed=29)
        est = mc_expectation(xi_terminal_square(), bundle)
        assert abs(est.mean - 1.0) <= 3.0 * est.stderr

    def test_ci_is_centred(self):
        bundle = simulate(ConstantControl(band=BAND, level=1.0), GRID, 100, seed=31)
        est = mc_expectation(xi_terminal_square(), bundle)
        assert abs(est.mean - 1.0) <= 3.0 * est.stderr

    def test_scalar_payoff_counts_every_path(self):
        bundle = simulate(ConstantControl(band=BAND, level=1.0), GRID, 100, seed=31)
        est = mc_expectation(xi_constant(), bundle)
        assert (est.mean, est.stderr, est.n_paths) == (1.0, 0.0, 100)

    def test_monitoring_dates_must_be_grid_nodes(self):
        xi = CylinderFunctional(times=(0.3, 1.0), payoff=lambda a, b: a + b,
                                lipschitz_bound=1.0, value_bound=40.0)
        bundle = simulate(ConstantControl(band=BAND, level=1.0),
                          TimeGrid(1.0, 4), 4, seed=1)
        with pytest.raises(UsageError):
            mc_expectation(xi, bundle)


def family_sup(rows):
    """The first row of largest mean: the family's sup and its control."""
    return max(rows, key=lambda row: row[1].mean)


class TestSupOverControls:
    def test_convex_payoff_prefers_the_top(self):
        family = [ConstantControl(band=BAND, level=1.0),
                  ConstantControl(band=BAND, level=2.0)]
        best, est = family_sup(sup_over_controls_table(
            xi_terminal_square(), family, GRID, 4000, seed=37))
        assert best.level == 2.0
        assert abs(est.mean - 4.0) <= 3.0 * est.stderr

    def test_enlarging_the_family_never_lowers_the_estimate(self):
        xi = xi_terminal_square()
        small = [ConstantControl(band=BAND, level=1.0)]
        large = small + [ConstantControl(band=BAND, level=1.5),
                         StepControl(band=BAND, breaks=(0.0, 0.5, 1.0),
                                     levels=(1.0, 2.0))]
        _, est_small = family_sup(sup_over_controls_table(xi, small, GRID,
                                                          2000, seed=41))
        _, est_large = family_sup(sup_over_controls_table(xi, large, GRID,
                                                          2000, seed=41))
        assert est_large.mean >= est_small.mean

    def test_empty_family(self):
        with pytest.raises(UsageError, match="empty control family"):
            sup_over_controls_table(xi_terminal_square(), [], GRID, 100, seed=1)

    def test_scalar_payoff_counts_every_path(self):
        family = [ConstantControl(band=BAND, level=1.0)]
        ((_, est),) = sup_over_controls_table(xi_constant(), family, GRID, 100,
                                              seed=1)
        assert (est.mean, est.stderr, est.n_paths) == (1.0, 0.0, 100)

    def test_feedback_closes_the_gap_on_the_tent(self):
        # PDE value vs the Monte Carlo family sup: the bang-bang feedback
        # control must reach the PDE value; constants alone must not
        surf_grid = SpaceGrid(-12.0, 12.0, 481)
        surface = solve_gheat(oracles.butterfly, BAND, TimeGrid(1.0, 1600),
                              surf_grid)
        pde_value = surface.value(1.0, 0.0)
        xi = CylinderFunctional(times=(1.0,), payoff=oracles.butterfly,
                                lipschitz_bound=1.0, value_bound=1.0)
        family = [ConstantControl(band=BAND, level=1.0),
                  ConstantControl(band=BAND, level=2.0),
                  FeedbackControl(band=BAND, surface=surface)]
        rows = sup_over_controls_table(xi, family, GRID, 4000, seed=47)
        best, est = family_sup(rows)
        budget = 5.0 * (1.0 / 1600 + surf_grid.dx**2) \
            + 8.0 * math.sqrt(GRID.dt)  # weak error of the bang-bang walk
        assert isinstance(best, FeedbackControl)
        assert abs(est.mean - pde_value) <= 3.0 * est.stderr + budget
        # the lower-edge control alone falls visibly short; on common
        # random numbers its row is the table it would make alone
        _, low_est = rows[0]
        assert pde_value - low_est.mean > 3.0 * low_est.stderr

    def test_feedback_reads_the_surface_at_the_simulation_time_to_go(self):
        # a surface solved past the simulation's horizon holds the shorter
        # one's rows bitwise (equal dt): the feedback must read the same rows
        space = SpaceGrid(-8.0, 8.0, 161)
        xi = CylinderFunctional(times=(1.0,), payoff=oracles.butterfly,
                                lipschitz_bound=1.0, value_bound=1.0)
        tables = []
        for horizon, n_steps in ((1.0, 400), (2.0, 800)):
            surface = solve_gheat(oracles.butterfly, BAND,
                                  TimeGrid(horizon, n_steps), space)
            family = [FeedbackControl(band=BAND, surface=surface)]
            ((_, est),) = sup_over_controls_table(xi, family, GRID, 3000,
                                                  seed=47)
            tables.append((est.mean.hex(), est.stderr.hex(), est.n_paths))
        assert tables[0] == tables[1]


class TestPerturbedControls:
    def sched(self, refinement=0, alpha=0.25):
        return PerturbationSchedule(refinement=refinement, alpha=alpha,
                                    sub_control=ConstantControl(band=BAND, level=1.0))

    def one_block_base(self, level_sq=2.0):
        return SelfDependentControl(band=BAND, rules=(math.sqrt(level_sq),))

    def test_compensating_level_reference_value(self):
        # budget 2.0 per unit time, alpha quarter at var 1: the trailing
        # level must be sqrt(7/3); the driver must land on it bitwise
        pert = perturb_control(self.one_block_base(2.0), self.sched())
        bundle = simulate(pert, GRID, 4, seed=53)
        want = oracles.compensating_level(2, 0.25, 1)
        assert want == 1.5275252316519468
        assert np.all(bundle.control_paths[:, -1] == want)
        assert np.all(bundle.control_paths[:, 0] == 1.0)  # alpha piece runs low
        assert bool(BAND.contains_level(want))

    def test_block_budget_is_machine_exact(self):
        base = SelfDependentControl(
            band=BAND,
            rules=(math.sqrt(2.0),
                   lambda inc: np.where(inc > 0.0, math.sqrt(3.0), math.sqrt(2.0))))
        for refinement in (0, 1, 2):
            pert = perturb_control(base, self.sched(refinement))
            bundle = simulate(pert, GRID, 64, seed=59)
            assert block_budget_gap(bundle, base) <= 1e-10
            assert qv_band_violation(bundle) == 0.0

    def test_base_level_outside_shrunk_band(self):
        # var_hi - eps = 3.25 < 4.0: the top-edge base cannot be rewritten
        pert = perturb_control(self.one_block_base(4.0), self.sched())
        with pytest.raises(DomainError):
            simulate(pert, GRID, 4, seed=61)

    def test_misaligned_alpha_is_refused(self):
        pert = perturb_control(self.one_block_base(2.0),
                               self.sched(refinement=0, alpha=0.3))
        with pytest.raises(UsageError):
            simulate(pert, GRID, 4, seed=1)

    def test_refinement_beyond_the_grid_is_refused(self):
        pert = perturb_control(self.one_block_base(2.0),
                               self.sched(refinement=12))
        with pytest.raises(UsageError):
            simulate(pert, GRID, 4, seed=1)


class TestMarginalMatch:
    def base_two_blocks(self):
        return SelfDependentControl(
            band=BAND,
            rules=(math.sqrt(2.0),
                   lambda inc: np.where(inc > 0.0, math.sqrt(3.0), math.sqrt(2.0))))

    def psi_second_increment_square(self):
        # the square of the second increment; the bounds cover the
        # spot-check box, where |b - a| <= 9
        return CylinderFunctional(times=(0.5, 1.0),
                                  payoff=lambda a, b: (b - a) * (b - a),
                                  lipschitz_bound=20.0, value_bound=100.0)

    def test_block_functional_marginals_match(self):
        sched = PerturbationSchedule(refinement=1, alpha=0.25,
                                     sub_control=ConstantControl(band=BAND, level=1.0))
        alt = perturb_control(self.base_two_blocks(), sched)
        res = marginal_match_test(self.base_two_blocks(), alt,
                                  self.psi_second_increment_square(),
                                  GRID, 4000, seed=67)
        assert res.status == "tested"
        assert res.passed
        assert abs(res.diff) <= 3.0 * res.stderr

    def test_off_grid_functional_is_out_of_scope(self):
        psi = CylinderFunctional(times=(0.25, 1.0),
                                 payoff=lambda a, b: (b - a) * (b - a),
                                 lipschitz_bound=20.0, value_bound=100.0)
        res = marginal_match_test(self.base_two_blocks(),
                                  self.base_two_blocks(), psi, GRID, 100, seed=1)
        assert res.status == "out-of-scope"
        assert res.passed is None

    def test_weak_probe_flags_coarse_rewrites_only(self):
        # psi looks at the half-block increment, i.e. one dyadic level below
        # the block grid: refinement 0 moves it, refinement >= 1 cannot
        base = SelfDependentControl(band=BAND, rules=(math.sqrt(2.0),))
        alts = [perturb_control(base, PerturbationSchedule(
            refinement=r, alpha=0.25,
            sub_control=ConstantControl(band=BAND, level=1.0)))
            for r in (0, 1, 2)]
        cells = [row[0] for row in marginal_match_table(
            base, alts, [self.psi_second_increment_square()], GRID, 4000,
            seed=71)]
        assert [c.status for c in cells] == ["out-of-scope", "tested", "tested"]
        assert abs(cells[0].diff) > 3.0 * cells[0].stderr  # 7/6 vs 1: far beyond noise
        assert cells[0].passed is None
        assert cells[1].passed is True
        assert cells[2].passed is True


class TestOnePassMatchesTheLoops:
    """Every Monte Carlo consumer against its per-control reference loop in
    ``oracles``, compared float by float with ``==``."""

    # more paths than one normal draw chunk, and not a multiple of it
    N_PATHS = 2 * _DRAW_CHUNK + 37
    GRID = TimeGrid(1.0, 64)
    WINDOWS = [(0.0, 0.5), (0.5, 1.0), (0.0, 1.0)]
    XIS = [
        xi_terminal_square(),
        CylinderFunctional(times=(0.5, 1.0), payoff=np.maximum,
                           lipschitz_bound=1.0, value_bound=40.0),
    ]

    @staticmethod
    def edges():
        return [ConstantControl(band=BAND, level=1.0),
                ConstantControl(band=BAND, level=2.0)]

    @pytest.mark.parametrize("which", [0, 1])
    def test_sup_table(self, which):
        xi, family = self.XIS[which], five_controls()
        rows = sup_over_controls_table(xi, family, self.GRID, self.N_PATHS, 23)
        refs = oracles.sup_table_reference(simulate, xi, family, self.GRID,
                                           self.N_PATHS, 23)
        assert [c for c, _ in rows] == family
        for (_, est), ref in zip(rows, refs):
            assert (est.mean, est.stderr, est.n_paths, est.seed) == (*ref, 23)

    # under the edge controls K(1) and -t have deterministic window gains;
    # B itself makes every row depend on the normals
    BUILDERS = {
        "k": lambda b: k_process(1.0, b),
        "drift": lambda b: np.broadcast_to(-b.time_grid.times(),
                                           b.b_paths.shape),
        "path": lambda b: b.b_paths,
    }

    def assert_martingale_rows(self, report, build, family):
        rows, consistent = oracles.martingale_rows_reference(
            simulate, build, family, self.WINDOWS, self.GRID, self.N_PATHS, 29)
        assert list(report.rows) == rows
        assert report.consistent == consistent
        assert (report.n_paths, report.seed) == (self.N_PATHS, 29)

    @pytest.mark.parametrize("builder", ["k", "drift", "path"])
    def test_martingale_rows(self, builder):
        build, family = self.BUILDERS[builder], self.edges() + five_controls()
        report = martingale_test(build, family, self.WINDOWS, self.GRID,
                                 self.N_PATHS, 29)
        self.assert_martingale_rows(report, build, family)

    def test_martingale_table(self):
        # three builders in one pass: each report is its builder's loop
        builds, family = list(self.BUILDERS.values()), self.edges() + five_controls()
        reports = martingale_table(builds, family, self.WINDOWS, self.GRID,
                                   self.N_PATHS, 29)
        assert len(reports) == len(builds)
        for report, build in zip(reports, builds):
            self.assert_martingale_rows(report, build, family)

    def test_identify_drift_rows(self):
        eta = ((0.0, 0.5, 1.0), (1.0, -1.0))
        family = self.edges() + five_controls()
        rows = identify_drift(eta, BAND, family, self.GRID, self.N_PATHS, 31)
        assert rows == oracles.identify_drift_reference(
            simulate, eta, BAND.var_lo, BAND.var_hi, family, self.GRID,
            self.N_PATHS, 31)

    def test_marginal_match_result(self):
        base = five_controls()[3]
        alt = perturb_control(base, PerturbationSchedule(
            refinement=1, alpha=0.25,
            sub_control=ConstantControl(band=BAND, level=1.0)))
        res = marginal_match_test(base, alt, self.XIS[1], self.GRID,
                                  self.N_PATHS, 37)
        ref = oracles.compare_reference(simulate, base, alt, self.XIS[1],
                                        self.GRID, self.N_PATHS, 37, 1)
        assert (res.mean_base, res.mean_alt, res.diff, res.stderr,
                res.passed) == ref
        assert (res.status, res.n_paths, res.seed) == ("tested", self.N_PATHS, 37)

    def test_marginal_match_table(self):
        base = five_controls()[3]
        sub = ConstantControl(band=BAND, level=1.0)
        other = SelfDependentControl(band=BAND, rules=(math.sqrt(2.5),))
        alts = [perturb_control(base, PerturbationSchedule(r, 0.25, sub))
                for r in (0, 2)]
        alts += [ConstantControl(band=BAND, level=1.5),
                 perturb_control(other, PerturbationSchedule(2, 0.25, sub))]
        # the quarter date is on the block grid that only a refinement-2
        # rewrite of the base pins; the cells out of scope are measured all
        # the same
        psis = [*self.XIS, CylinderFunctional(
            times=(0.25, 1.0), payoff=lambda a, b: np.abs(b - a),
            lipschitz_bound=1.0, value_bound=40.0)]
        table = marginal_match_table(base, alts, psis, self.GRID,
                                     self.N_PATHS, 41)
        assert [[res.status for res in row] for row in table] == [
            ["tested", "tested", "out-of-scope"],
            ["tested", "tested", "tested"],
            ["tested", "tested", "out-of-scope"],
            ["tested", "tested", "out-of-scope"]]
        for row, alt in zip(table, alts):
            for res, psi in zip(row, psis):
                ref = oracles.compare_reference(simulate, base, alt, psi,
                                                self.GRID, self.N_PATHS, 41, 1)
                assert (res.mean_base, res.mean_alt, res.diff,
                        res.stderr) == ref[:4]
                assert res.passed is (ref[4] if res.status == "tested" else None)
                assert (res.n_paths, res.seed) == (self.N_PATHS, 41)


class TestChunkWidthChangesNoBits(TestOnePassMatchesTheLoops):
    """The one-pass references again, with the pass's buffer narrowed to 1
    and to 7 paths: 549 single-path chunks, or 78 chunks of 7 and 8 paths
    (549 = 78 * 7 + 3), so chunk widths differ within one pass."""

    @pytest.fixture(autouse=True, params=[1, 7], ids=["1-path", "7-path"])
    def chunk_width(self, request, monkeypatch):
        monkeypatch.setattr(mc, "_CHUNK_BYTES",
                            8 * self.GRID.n_steps * request.param)


class TestOnePassStreams:
    """Controls interleaved over several streams share one draw per stream
    and chunk; each must still see its own stream's whole-bundle normals."""

    STREAMS = [1, 0, 1, 2, 0]
    GRID = TimeGrid(1.0, 64)

    @pytest.mark.parametrize("width", [None, 1, 7])
    def test_interleaved_streams_match_the_loop(self, width, monkeypatch):
        if width is not None:
            monkeypatch.setattr(mc, "_CHUNK_BYTES", 8 * self.GRID.n_steps * width)
        xi, family = TestOnePassMatchesTheLoops.XIS[1], five_controls()
        n = TestOnePassMatchesTheLoops.N_PATHS
        rows = mc._simulate_reduce(family, self.GRID, n, 43,
                                   lambda b: (mc._functional_on_paths(xi, b),),
                                   streams=self.STREAMS)
        refs = oracles.sup_table_reference(simulate, xi, family, self.GRID, n,
                                           43, streams=self.STREAMS)
        assert [(e.mean, e.stderr, e.n_paths) for (e,) in rows] == refs


class TestOnePassPerFamilyAndSeed:
    """A caller that asks several things of one family and seed makes one
    Monte Carlo pass, counted at both homes of ``_simulate_reduce``."""

    GRID = TimeGrid(1.0, 64)
    WINDOWS = [(0.0, 0.5), (0.5, 1.0), (0.0, 1.0)]

    @pytest.fixture
    def passes(self, monkeypatch):
        calls = []
        real = mc._simulate_reduce

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for module in (mc, ito):
            monkeypatch.setattr(module, "_simulate_reduce", counting)
        return calls

    @pytest.mark.parametrize("name", ["verify-martingale", "identify-drift"])
    def test_cli_runner(self, name, passes, tmp_path):
        config = {"mc": {"n_paths": 300, "seed": 11, "n_steps": 64},
                  "grids": {"n_steps": 400, "n_points": 121},
                  "experiments": [{"name": name}]}
        _, code, error = cli.run_suite(config, str(tmp_path))
        assert (code, error) == (0, None)
        assert len(passes) == 1

    def test_identify_drift(self, passes):
        identify_drift(((0.0, 0.5, 1.0), (1.0, -1.0)), BAND,
                       TestOnePassMatchesTheLoops.edges(), self.GRID, 300, 5)
        assert len(passes) == 1

    def test_k_and_drift_in_one_table(self, passes):
        # criteria 03 and 04's question pair: one pass, each report that of
        # its own martingale test
        builds = [lambda b: k_process(1.0, b),
                  lambda b: np.broadcast_to(-b.time_grid.times(),
                                            b.b_paths.shape)]
        reports = martingale_table(builds, five_controls(), self.WINDOWS,
                                   self.GRID, 300, 5)
        assert len(passes) == 1
        assert reports == [martingale_test(build, five_controls(), self.WINDOWS,
                                           self.GRID, 300, 5)
                           for build in builds]

    def test_a_row_of_the_sup_table_is_its_control_alone(self, passes):
        # criterion 02 reads the family's sup and the lower edge's row from
        # one table: on common random numbers the row is the lone control's
        family = five_controls()
        rows = sup_over_controls_table(xi_terminal_square(), family, self.GRID,
                                       300, 5)
        assert len(passes) == 1
        for control, est in rows:
            assert sup_over_controls_table(xi_terminal_square(), [control],
                                           self.GRID, 300, 5) == [(control, est)]


def set_cpus(monkeypatch, n):
    """Make the pass see ``n`` usable CPUs, whatever the machine's affinity."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


def count_workers(monkeypatch, executor=ThreadPoolExecutor):
    """Patch the pass's executor with ``executor`` and list each one made."""
    made = []

    def make(*args):
        made.append(executor(*args))
        return made[-1]

    monkeypatch.setattr(futures, "ThreadPoolExecutor", make)
    return made


class StalledWorker(ThreadPoolExecutor):
    """A worker whose core is busy: every prefetch queues behind a task
    that holds the thread until the prefetch is cancelled."""

    def __init__(self, *args):
        super().__init__(*args)
        self.submitted = []

    def submit(self, fn, *args):
        released = threading.Event()
        super().submit(released.wait, 30.0)
        future = super().submit(fn, *args)
        future.add_done_callback(lambda _: released.set())
        self.submitted.append(future)
        return future


class TestPrefetchingPass:
    """The pass with its drawing worker against the same pass drawn inline
    on one CPU: equal float for float, and no thread left behind."""

    GRID = TimeGrid(1.0, 64)
    # two default chunks at 64 steps, so the worker runs at the default
    # width too
    N_PATHS = 2 * (mc._CHUNK_BYTES // (8 * 64)) + 37

    def run(self, monkeypatch, cpus, n_paths, streams=None):
        set_cpus(monkeypatch, cpus)
        xi = TestOnePassMatchesTheLoops.XIS[1]
        rows = mc._simulate_reduce(five_controls(), self.GRID, n_paths, 47,
                                   lambda b: (mc._functional_on_paths(xi, b),
                                              b.b_paths[:, -1]),
                                   streams=streams)
        return [[(e.mean, e.stderr, e.n_paths) for e in row] for row in rows]

    @pytest.mark.parametrize("streams", [None, TestOnePassStreams.STREAMS],
                             ids=["common", "interleaved"])
    @pytest.mark.parametrize("width", [None, 1, 7])
    def test_worker_draws_the_inline_normals(self, width, streams, monkeypatch):
        n_paths = self.N_PATHS
        if width is not None:
            monkeypatch.setattr(mc, "_CHUNK_BYTES", 8 * self.GRID.n_steps * width)
            n_paths = TestOnePassMatchesTheLoops.N_PATHS
        made = count_workers(monkeypatch)
        threads = threading.active_count()
        inline = self.run(monkeypatch, 1, n_paths, streams)
        assert made == []
        assert self.run(monkeypatch, 2, n_paths, streams) == inline
        assert len(made) == 1
        assert threading.active_count() == threads

    def test_fine_thread_switching_changes_no_bits(self, monkeypatch):
        # 3-path chunks on three streams and a thread switch every
        # microsecond: draws and marches interleave as finely as they can
        monkeypatch.setattr(mc, "_CHUNK_BYTES", 8 * self.GRID.n_steps * 3)
        n_paths = TestOnePassMatchesTheLoops.N_PATHS
        inline = self.run(monkeypatch, 1, n_paths, TestOnePassStreams.STREAMS)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            switched = self.run(monkeypatch, 2, n_paths,
                                TestOnePassStreams.STREAMS)
        finally:
            sys.setswitchinterval(interval)
        assert switched == inline

    def test_one_chunk_pass_starts_no_worker(self, monkeypatch):
        made = count_workers(monkeypatch)
        self.run(monkeypatch, 2, TestOnePassMatchesTheLoops.N_PATHS)
        assert made == []

    def test_cancelled_prefetches_are_drawn_inline(self, monkeypatch):
        monkeypatch.setattr(mc, "_CHUNK_BYTES", 8 * self.GRID.n_steps * 50)
        n_paths = TestOnePassMatchesTheLoops.N_PATHS
        inline = self.run(monkeypatch, 1, n_paths)
        threads = threading.active_count()
        made = count_workers(monkeypatch, StalledWorker)
        assert self.run(monkeypatch, 2, n_paths) == inline
        # ten chunks of 50 to 59 paths: units 1 to 9 were prefetched
        (worker,) = made
        assert len(worker.submitted) == 9
        assert all(f.cancelled() for f in worker.submitted)
        assert threading.active_count() == threads

    def test_no_thread_outlives_a_raising_per_path(self, monkeypatch):
        set_cpus(monkeypatch, 2)
        calls = []

        def per_path(bundle):     # fails on chunk 0, while chunk 1 is drawn
            calls.append(bundle)
            raise RuntimeError("statistic failed")

        threads = threading.active_count()
        made = count_workers(monkeypatch)
        with pytest.raises(RuntimeError, match="statistic failed"):
            mc._simulate_reduce([ConstantControl(band=BAND, level=1.0)],
                                self.GRID, self.N_PATHS, 53, per_path)
        assert len(made) == 1 and len(calls) == 1
        assert threading.active_count() == threads

    def test_no_thread_outlives_a_feedback_path_off_the_surface(self, monkeypatch):
        set_cpus(monkeypatch, 2)
        narrow = solve_gheat(oracles.butterfly, BAND, TimeGrid(1.0, 1000),
                             SpaceGrid(-2.0, 2.0, 41))
        threads = threading.active_count()
        made = count_workers(monkeypatch)
        with pytest.raises(ExtrapolationError):
            sup_over_controls_table(
                xi_terminal_square(),
                [FeedbackControl(band=BAND, surface=narrow)], GRID, 4000,
                seed=97)
        assert len(made) == 1
        assert threading.active_count() == threads


class TestQvBandAudit:
    """The distinct-level audit against the per-path ``Fraction`` loop."""

    @staticmethod
    def reference(bundle):
        return oracles.qv_band_violation_reference(
            bundle.control_paths, BAND.sigma_lo, BAND.sigma_hi,
            bundle.time_grid.horizon, bundle.time_grid.n_steps)

    def test_perturbed_bundle(self):
        base = SelfDependentControl(band=BAND, rules=(
            math.sqrt(2.5), lambda inc: np.sqrt(2.5 + 0.75 * np.tanh(inc))))
        pert = perturb_control(base, PerturbationSchedule(
            refinement=1, alpha=0.25,
            sub_control=ConstantControl(band=BAND, level=1.0)))
        bundle = simulate(pert, GRID, 64, seed=79)
        assert np.unique(bundle.control_paths[:32]).size > 32
        assert qv_band_violation(bundle) == self.reference(bundle) == 0.0

    def test_levels_inside_the_tolerance_but_outside_the_band(self):
        grid = TimeGrid(1.0, 8)
        h = np.full((48, 8), 1.5)
        h[3, 5] = 2.0 + 5e-13       # exact layer (path < 32) and float layer
        h[40, 2] = 1.0 - 5e-13      # float layer only
        bundle = PathBundle(BAND, grid, np.zeros((48, 9)), h, seed=0)
        gap = qv_band_violation(bundle)
        assert gap > 0.0
        assert gap == self.reference(bundle)


    @pytest.mark.parametrize("scale, nudge", [
        (0.3, None), (3.0, None), (1.0, 0.97), (1.0, 1.05)])
    def test_float_layer_is_the_elementwise_formula(self, monkeypatch, scale,
                                                    nudge):
        # gains pushed out of band as a whole or at one step; the levels
        # stay in band, so the exact layer finds nothing and the gap is the
        # float layer's alone
        bundle = simulate(ConstantControl(band=BAND, level=1.5), GRID, 40,
                          seed=83)
        qv_steps = mc._qv_steps

        def out_of_band(levels, dt):
            gains = qv_steps(levels, dt) * scale
            if nudge is not None:
                gains[37, 300] = (BAND.var_lo if nudge < 1.0
                                  else BAND.var_hi) * dt * nudge
            return gains

        monkeypatch.setattr(mc, "_qv_steps", out_of_band)
        gains = out_of_band(bundle.control_paths, GRID.dt)
        want = max(0.0, float(np.max(BAND.var_lo * GRID.dt - gains)),
                   float(np.max(gains - BAND.var_hi * GRID.dt)))
        assert want > 0.0
        assert qv_band_violation(bundle).hex() == want.hex()


class TestLayoutChangesNoBits:
    """Every reader of a bundle gives the same bits on the engine's
    time-major arrays and on a path-major copy of them."""

    GRID = TimeGrid(1.0, 64)
    SPACE = SpaceGrid(-10.0, 10.0, 81)
    N_PATHS = 41

    @staticmethod
    def base():
        return SelfDependentControl(band=BAND, rules=(
            math.sqrt(2.5),
            lambda inc: np.where(inc > 0.0, math.sqrt(3.25), math.sqrt(1.75))))

    def controls(self):
        return {
            "constant": ConstantControl(band=BAND, level=1.5),
            "step": StepControl(band=BAND, breaks=(0.0, 0.25, 1.0),
                                levels=(2.0, 1.0)),
            "self-dependent": self.base(),
            "perturbed": perturb_control(self.base(), PerturbationSchedule(
                refinement=2, alpha=0.25,
                sub_control=ConstantControl(band=BAND, level=1.0))),
        }

    @pytest.fixture(scope="class")
    def solution(self):
        problem = GBSDEProblem(
            CylinderFunctional(times=(1.0,), payoff=lambda x: x * x,
                               lipschitz_bound=12.0, value_bound=36.0),
            lambda t, y, z: -0.1 * y, BAND, driver_lipschitz=0.1)
        return solve_ppde(problem, TimeGrid(1.0, 2560), SpaceGrid(-6.0, 6.0, 121))

    def readings(self, bundle, solution):
        b, n = bundle.b_paths, self.GRID.n_steps
        xi = CylinderFunctional(times=(0.5, 1.0),
                                payoff=lambda x, y: np.abs(y - x),
                                lipschitz_bound=1.0, value_bound=40.0)
        rng = np.random.default_rng(89)
        out = {
            "functional": mc._functional_on_paths(xi, bundle),
            "k-scalar": k_process(1.0, bundle),
            "k-step": k_process(((0.0, 0.5, 1.0), (1.0, -1.0)), bundle),
            "k-per-step": k_process(rng.normal(size=n), bundle),
            "k-per-path": k_process(rng.normal(size=(self.N_PATHS, n)), bundle),
            "realized-qv": realized_qv(b),
            "qn-qv": qn_quadratic_variation(b, 3),
            "qn-integrand": qn_integrand(b, 3),
            "integral": stochastic_integral(bundle.control_paths, b),
            "qv-band-violation": qv_band_violation(bundle),
            "budget-gap": block_budget_gap(bundle, self.base()),
        }
        dec = martingale_decomposition(xi, BAND, TimeGrid(1.0, 128),
                                       self.SPACE, bundle)
        out.update(m=dec.m_paths, z=dec.z_paths, k=dec.k_paths,
                   residuals=dec.residuals())
        out.update(zip(("y-view", "z-view", "k-view"), solution.paths_view(bundle)))
        report = gbsde_residual(solution, bundle)
        out.update(("report-" + f, getattr(report, f)) for f in (
            "max_residual", "k_initial", "k_monotone", "terminal_gap"))
        return out

    @pytest.mark.parametrize("kind", ["constant", "step", "self-dependent",
                                      "perturbed"])
    def test_time_major_and_path_major_read_alike(self, solution, kind):
        # every reading, the node-by-node walks of the decomposition, its
        # residuals, the view and the G-BSDE report included, from a
        # time-major bundle and from its path-major copy
        bundle = simulate(self.controls()[kind], self.GRID, self.N_PATHS, seed=97)
        assert bundle.b_paths.T.flags.c_contiguous
        twin = PathBundle(BAND, self.GRID, np.ascontiguousarray(bundle.b_paths),
                          np.ascontiguousarray(bundle.control_paths), bundle.seed)
        assert twin.b_paths.flags.c_contiguous
        got, want = self.readings(bundle, solution), self.readings(twin, solution)
        for name, value in got.items():
            a, b = np.asarray(value, dtype=float), np.asarray(want[name], dtype=float)
            assert a.shape == b.shape, name
            assert np.array_equal(a.view(np.int64), b.view(np.int64)), name


class TestPassMemory:
    def test_peak_does_not_grow_with_the_path_count(self):
        # at 512 steps the default chunk holds 1024 to 2047 paths, so both
        # runs are cut into chunks; a whole-bundle pass peaks 4x higher
        family = [ConstantControl(band=BAND, level=1.0),
                  ConstantControl(band=BAND, level=2.0)]

        def peak(n_paths):
            tracemalloc.start()
            try:
                sup_over_controls_table(xi_terminal_square(), family, GRID,
                                        n_paths, seed=89)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(4000), peak(16000)
        assert large <= 1.5 * small, (small, large)

    def test_one_chunk_pass_keeps_one_buffer(self, monkeypatch):
        # 2000 paths at 512 steps are one chunk: with a second CPU the pass
        # peaks no higher than the single-buffer pass drawn on one CPU
        family = [ConstantControl(band=BAND, level=1.0),
                  ConstantControl(band=BAND, level=2.0)]

        def peak(cpus):
            set_cpus(monkeypatch, cpus)
            tracemalloc.start()
            try:
                sup_over_controls_table(xi_terminal_square(), family, GRID,
                                        2000, seed=89)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # a few interpreter objects may differ; a second buffer would add
        # 8 MB and a scratch block kept through the march 1 MB
        assert peak(2) <= peak(1) + 4096

    def test_a_table_holds_one_process_at_a_time(self):
        # each builder's node-shaped paths are freed before the next one is
        # built, so a two-builder table peaks no higher than its larger
        # builder alone (holding both would add one node-shaped array)
        family = [ConstantControl(band=BAND, level=1.0)]
        builds = [lambda b: b.b_paths.copy(), lambda b: k_process(1.0, b)]

        def peak(bs):
            tracemalloc.start()
            try:
                martingale_table(bs, family, [(0.0, 1.0)], GRID, 1000, seed=89)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        node_array = 8 * 1000 * (GRID.n_steps + 1)
        alone = max(peak([b]) for b in builds)
        assert peak(builds) <= alone + node_array // 4

    def test_feedback_off_the_surface_still_raises(self):
        narrow = solve_gheat(oracles.butterfly, BAND, TimeGrid(1.0, 1000),
                             SpaceGrid(-2.0, 2.0, 41))
        with pytest.raises(ExtrapolationError):
            sup_over_controls_table(
                xi_terminal_square(),
                [FeedbackControl(band=BAND, surface=narrow)], GRID, 2000,
                seed=97)

    def test_feedback_field_is_computed_once_per_control(self, monkeypatch):
        calls = []
        real = gheat.feedback_field

        def counted(surface):
            calls.append(surface)
            return real(surface)

        monkeypatch.setattr(gheat, "feedback_field", counted)
        monkeypatch.setattr(mc, "_CHUNK_BYTES", 8 * GRID.n_steps * 100)
        surface = five_controls()[2].surface
        family = [FeedbackControl(band=BAND, surface=surface),
                  FeedbackControl(band=BAND, surface=surface)]
        for _ in range(3):
            family[0].make_driver(GRID, 10)
        assert len(calls) == 1
        sup_over_controls_table(xi_terminal_square(), family, GRID, 1000,
                                seed=101)       # ten chunks
        assert len(calls) == 2
