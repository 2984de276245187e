"""Tests for the controlled path engine: exact ledgers, determinism,
adaptedness, the family supremum, block rewrites, and marginal matching.

Monte Carlo assertions run at three standard errors with frozen seeds, so
every verdict below is reproducible bit for bit.
"""

import csv
import math

import numpy as np
import pytest

from gbrownian import (
    ConstantControl,
    ControlProcess,
    CylinderFunctional,
    DomainError,
    FeedbackControl,
    GParams,
    PerturbationSchedule,
    SelfDependentControl,
    SpaceGrid,
    StepControl,
    TimeGrid,
    UsageError,
    block_budget_gap,
    export_bundle_csv,
    marginal_match_test,
    mc_expectation,
    perturb_control,
    qv_band_violation,
    simulate,
    solve_gheat,
    sup_over_controls,
    sup_over_controls_table,
    weak_convergence_probe,
)
from gbrownian.mc import _DRAW_CHUNK, PathBundle, _run_euler

import oracles

BAND = GParams(1.0, 2.0)
GRID = TimeGrid(1.0, 512)


def xi_terminal_square():
    return CylinderFunctional(times=(1.0,), payoff=lambda x: x * x,
                              lipschitz_bound=10.0, value_bound=25.0)


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

    def controls(self):
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

    @pytest.mark.parametrize("stream", [0, 3])
    def test_bitwise_equal_to_the_path_major_loop(self, stream):
        n = self.N_PATHS
        assert n > _DRAW_CHUNK and n % _DRAW_CHUNK != 0
        z = oracles.philox_normals(19, stream, n, GRID.n_steps)
        for control in self.controls():
            bundle = simulate(control, GRID, n, seed=19, stream=stream)
            b, qv, h = oracles.euler_path_major(
                control.make_driver(GRID, n), z, GRID.dt)
            assert np.array_equal(bundle.b_paths, b), control.kind
            assert np.array_equal(bundle.qv_paths, qv), control.kind
            assert np.array_equal(bundle.control_paths, h), control.kind
            assert bundle.b_paths.flags.c_contiguous
            assert bundle.control_paths.flags.c_contiguous


class TestPathBundleValidation:
    def test_rejects_tampered_qv_ledger(self):
        src = simulate(ConstantControl(band=BAND, level=1.0), GRID, 4, seed=3)
        qv = src.qv_paths.copy()
        qv[0, -1] += 1e-9
        with pytest.raises(UsageError):
            PathBundle(BAND, GRID, src.b_paths, qv, src.control_paths, 3)

    def test_rejects_out_of_band_controls(self):
        src = simulate(ConstantControl(band=BAND, level=1.0), GRID, 4, seed=3)
        h = src.control_paths.copy()
        h[1, 10] = 2.5
        with pytest.raises(DomainError):
            PathBundle(BAND, GRID, src.b_paths, src.qv_paths, h, 3)

    def test_rejects_nonzero_start(self):
        src = simulate(ConstantControl(band=BAND, level=1.0), GRID, 4, seed=3)
        b = src.b_paths.copy()
        b[2, 0] = 0.1
        with pytest.raises(UsageError):
            PathBundle(BAND, GRID, b, src.qv_paths, src.control_paths, 3)


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
        lo, hi = est.ci()
        assert lo == pytest.approx(est.mean - 3 * est.stderr)
        assert hi == pytest.approx(est.mean + 3 * est.stderr)

    def test_monitoring_dates_must_be_grid_nodes(self):
        xi = CylinderFunctional(times=(0.3, 1.0), payoff=lambda a, b: a + b,
                                lipschitz_bound=1.0, value_bound=40.0)
        bundle = simulate(ConstantControl(band=BAND, level=1.0),
                          TimeGrid(1.0, 4), 4, seed=1)
        with pytest.raises(UsageError):
            mc_expectation(xi, bundle)


class TestSupOverControls:
    def test_convex_payoff_prefers_the_top(self):
        family = [ConstantControl(band=BAND, level=1.0),
                  ConstantControl(band=BAND, level=2.0)]
        best, est = sup_over_controls(xi_terminal_square(), family, GRID,
                                      4000, seed=37)
        assert best.level == 2.0
        assert abs(est.mean - 4.0) <= 3.0 * est.stderr

    def test_enlarging_the_family_never_lowers_the_estimate(self):
        xi = xi_terminal_square()
        small = [ConstantControl(band=BAND, level=1.0)]
        large = small + [ConstantControl(band=BAND, level=1.5),
                         StepControl(band=BAND, breaks=(0.0, 0.5, 1.0),
                                     levels=(1.0, 2.0))]
        _, est_small = sup_over_controls(xi, small, GRID, 2000, seed=41)
        _, est_large = sup_over_controls(xi, large, GRID, 2000, seed=41)
        assert est_large.mean >= est_small.mean

    def test_empty_family(self):
        with pytest.raises(UsageError):
            sup_over_controls(xi_terminal_square(), [], GRID, 100, seed=1)

    def test_table_matches_the_sup(self):
        family = [ConstantControl(band=BAND, level=1.0),
                  ConstantControl(band=BAND, level=2.0)]
        rows = sup_over_controls_table(xi_terminal_square(), family, GRID,
                                       1000, seed=43)
        best, est = sup_over_controls(xi_terminal_square(), family, GRID,
                                      1000, seed=43)
        assert max(r[1].mean for r in rows) == est.mean

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
        best, est = sup_over_controls(xi, family, GRID, 4000, seed=47)
        budget = 5.0 * (1.0 / 1600 + surf_grid.dx**2) \
            + 8.0 * math.sqrt(GRID.dt)  # weak error of the bang-bang walk
        assert isinstance(best, FeedbackControl)
        assert abs(est.mean - pde_value) <= 3.0 * est.stderr + budget
        # the lower-edge family alone falls visibly short
        _, low_est = sup_over_controls(
            xi, [ConstantControl(band=BAND, level=1.0)], GRID, 4000, seed=47)
        assert pde_value - low_est.mean > 3.0 * low_est.stderr


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
        return CylinderFunctional(times=(0.5, 1.0), payoff=lambda a, b: b * b,
                                  convention="increments",
                                  lipschitz_bound=16.0, value_bound=70.0)

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
        psi = CylinderFunctional(times=(0.25, 1.0), payoff=lambda a, b: b * b,
                                 convention="increments",
                                 lipschitz_bound=16.0, value_bound=70.0)
        res = marginal_match_test(self.base_two_blocks(),
                                  self.base_two_blocks(), psi, GRID, 100, seed=1)
        assert res.status == "out-of-scope"
        assert res.passed is None

    def test_weak_probe_flags_coarse_rewrites_only(self):
        # psi looks at the half-block increment, i.e. one dyadic level below
        # the block grid: refinement 0 moves it, refinement >= 1 cannot
        base = self.one_block = SelfDependentControl(band=BAND,
                                                     rules=(math.sqrt(2.0),))
        scheds = [PerturbationSchedule(refinement=r, alpha=0.25,
                                       sub_control=ConstantControl(band=BAND,
                                                                   level=1.0))
                  for r in (0, 1, 2)]
        rows = weak_convergence_probe(base, scheds,
                                      self.psi_second_increment_square(),
                                      GRID, 4000, seed=71)
        assert [r["expected_match"] for r in rows] == [False, True, True]
        assert rows[0]["within_3se"] is False   # 7/6 vs 1: far beyond noise
        assert rows[1]["within_3se"] is True
        assert rows[2]["within_3se"] is True


class TestExport:
    def test_csv_round_trip(self, tmp_path):
        bundle = simulate(ConstantControl(band=BAND, level=1.5),
                          TimeGrid(1.0, 4), 3, seed=73)
        path = tmp_path / "bundle.csv"
        n_rows = export_bundle_csv(bundle, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["path", "step", "t", "B", "qv", "h"]
        assert n_rows == 3 * 5
        assert float(rows[1][3]) == bundle.b_paths[0, 0]
        assert rows[5][5] == ""  # no control on the terminal node
