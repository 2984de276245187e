"""Tests for pathwise calculus on bundles: discrete integrals, dyadic
quadratic variation, the canonical non-increasing martingale K, the
conditional-value decomposition, martingale testing, and drift
identification.

Several assertions are *exact* (== on floats): on power-of-two grids with
integer band variances every quantity involved is a dyadic rational, so
the ledgers admit no rounding at all.  Where that applies it is said in
the test.
"""

import math
import tracemalloc

import numpy as np
import pytest

from gbrownian import (
    ConstantControl,
    CylinderFunctional,
    DomainError,
    GParams,
    SpaceGrid,
    StepControl,
    TimeGrid,
    UsageError,
    conditional_frames,
    g_value,
    identify_drift,
    k_process,
    martingale_decomposition,
    martingale_table,
    martingale_test,
    qn_integrand,
    qn_quadratic_variation,
    realized_qv,
    simulate,
    step2_limit_check,
    stochastic_integral,
)
from gbrownian import ito
from gbrownian.errors import ExtrapolationError

import oracles

BAND = GParams(1.0, 2.0)
GRID = TimeGrid(1.0, 512)


def lo_bundle(n_paths=256, seed=101, grid=GRID):
    return simulate(ConstantControl(band=BAND, level=1.0), grid, n_paths, seed)


class TestStochasticIntegral:
    def test_parts_identity_with_realized_qv(self):
        # sum B dB + (1/2) sum (dB)^2 telescopes to B^2/2 identically
        bundle = lo_bundle(64)
        lhs = (stochastic_integral(bundle.b_paths, bundle.b_paths)
               + 0.5 * realized_qv(bundle.b_paths))
        np.testing.assert_allclose(lhs, 0.5 * bundle.b_paths**2, atol=1e-12)

    def test_terminal_column_of_node_integrands_is_ignored(self):
        bundle = lo_bundle(8)
        per_node = bundle.b_paths
        per_step = bundle.b_paths[:, :-1]
        np.testing.assert_array_equal(
            stochastic_integral(per_node, bundle.b_paths),
            stochastic_integral(per_step, bundle.b_paths))

    def test_width_mismatch(self):
        bundle = lo_bundle(4)
        with pytest.raises(UsageError):
            stochastic_integral(bundle.b_paths[:, :100], bundle.b_paths)


class TestDyadicQv:
    def test_identity_holds_at_every_level(self):
        # Q^n - integral(lambda^n dB) telescopes to the realized qv on any
        # refinement whose blocks align with the grid
        bundle = lo_bundle(64)
        rqv = realized_qv(bundle.b_paths)
        for level in (0, 1, 3, 5, 9):
            qn = qn_quadratic_variation(bundle.b_paths, level)
            lam = qn_integrand(bundle.b_paths, level)
            recon = stochastic_integral(lam, bundle.b_paths) + rqv
            np.testing.assert_allclose(qn, recon, atol=1e-12)

    def test_finest_level_is_the_realized_qv(self):
        bundle = lo_bundle(16)
        qn = qn_quadratic_variation(bundle.b_paths, 9)  # one step per block
        np.testing.assert_array_equal(qn, realized_qv(bundle.b_paths))

    def test_terminal_error_decreases_with_level(self):
        bundle = simulate(ConstantControl(band=BAND, level=1.5), GRID, 2000,
                          seed=103)
        errs = []
        for level in (0, 2, 4, 6, 9):
            qn = qn_quadratic_variation(bundle.b_paths, level)
            errs.append(float(np.mean(np.abs(qn[:, -1] - 2.25))))
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_running_reconstruction_gap_shrinks(self):
        bundle = lo_bundle(512, seed=107)
        ib = stochastic_integral(bundle.b_paths, bundle.b_paths)
        target = 0.5 * bundle.b_paths**2
        gaps = []
        for level in (0, 2, 4, 6, 9):
            qn = qn_quadratic_variation(bundle.b_paths, level)
            gaps.append(float(np.mean(np.max(np.abs(ib + 0.5 * qn - target),
                                             axis=-1))))
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 1e-12  # finest level closes the identity

    @pytest.mark.parametrize("layout", ["time-major", "path-major", "one path"])
    def test_bitwise_equal_to_the_gathered_anchors(self, layout):
        bundle = simulate(StepControl(band=BAND, breaks=(0.0, 0.5, 1.0),
                                      levels=(2.0, 1.0)), GRID, 24, seed=109)
        b = {"time-major": bundle.b_paths,
             "path-major": np.ascontiguousarray(bundle.b_paths),
             "one path": bundle.b_paths[5]}[layout]
        for level in (0, 1, 3, 5, 9):
            want_qv, want_lam = oracles.dyadic_qv_reference(b, level)
            for got, want in ((qn_quadratic_variation(b, level), want_qv),
                              (qn_integrand(b, level), want_lam)):
                assert got.shape == want.shape
                assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("level", [0, 5, 9])
    def test_anchors_are_views_not_copies(self, level):
        # the result plus one node-shaped temporary for Q^n, the result
        # alone for lambda^n: a gathered anchor would add one more each
        b = lo_bundle(400).b_paths
        for fn, bound in ((qn_quadratic_variation, 2.5), (qn_integrand, 1.5)):
            tracemalloc.start()
            try:
                fn(b, level)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound * b.nbytes, (fn.__name__, peak / b.nbytes)

    def test_misaligned_levels_are_refused(self):
        bundle = lo_bundle(4)
        with pytest.raises(UsageError):
            qn_quadratic_variation(bundle.b_paths, 10)
        with pytest.raises(DomainError):
            qn_quadratic_variation(bundle.b_paths, -1)


class TestKProcess:
    def test_lower_edge_terminal_value_is_exact(self):
        # (var_lo - var_hi) * T = -3; every addend is a dyadic rational
        bundle = lo_bundle(32)
        k = k_process(1.0, bundle)
        assert np.all(k[:, -1] == -3.0)
        assert np.all(k[:, 0] == 0.0)

    def test_upper_edge_is_flat_zero(self):
        bundle = simulate(ConstantControl(band=BAND, level=2.0), GRID, 32,
                          seed=109)
        np.testing.assert_array_equal(k_process(1.0, bundle),
                                      np.zeros_like(bundle.qv_paths))

    def test_sign_matched_bang_bang_is_flat_zero(self):
        # where the integrand is positive run at the top, negative at the
        # bottom: the compensator is attained and K never moves.  On the
        # 6-step grid the node 5/6 sits one ulp below the break, and the
        # control and the integrand must still switch at the same step
        # (off by one step, K_T = -0.5); dt = 1/6 is not dyadic, so there
        # the qv ledger's running sums leave K within rounding of zero
        for grid, switch, tol in ((GRID, 0.5, 0.0),
                                  (TimeGrid(1.0, 6), 5.0 / 6.0, 1e-15)):
            breaks = (0.0, switch, 1.0)
            control = StepControl(band=BAND, breaks=breaks, levels=(2.0, 1.0))
            bundle = simulate(control, grid, 16, seed=113)
            k = k_process((breaks, (1.0, -1.0)), bundle)
            assert k.shape == bundle.qv_paths.shape
            assert np.max(np.abs(k)) <= tol

    def test_step_form_is_the_per_step_form_off_a_linspace_node(self):
        # the 6-step grid's node 5/6 is one ulp below the break 5/6; the
        # step still starts there, so on the lower edge K_T = -3 * 5/6
        grid = TimeGrid(1.0, 6)
        assert grid.times()[5] < 5.0 / 6.0
        bundle = lo_bundle(8, grid=grid)
        got = k_process(((0.0, 5.0 / 6.0, 1.0), (1.0, -1.0)), bundle)
        want = k_process(np.array([1.0] * 5 + [-1.0]), bundle)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.all(got[:, -1] == -2.5)

    def test_non_increasing_for_any_control_and_step_integrand(self):
        rng = np.random.default_rng(127)
        for trial in range(5):
            lv = rng.uniform(1.0, 2.0, size=4)
            control = StepControl(band=BAND, breaks=(0.0, 0.25, 0.5, 0.75, 1.0),
                                  levels=tuple(lv))
            bundle = simulate(control, GRID, 32, seed=1000 + trial)
            vs = (tuple(np.linspace(0.0, 1.0, 5)),
                  tuple(rng.uniform(-2.0, 2.0, size=4)))
            k = k_process(vs, bundle)
            assert np.all(np.diff(k, axis=-1) <= 1e-15)

    def test_integrand_forms_agree(self):
        bundle = lo_bundle(8)
        np.testing.assert_array_equal(k_process(1.0, bundle),
                                      k_process(((0.0, 1.0), (1.0,)), bundle))
        per_step = np.ones(GRID.n_steps)
        np.testing.assert_array_equal(k_process(1.0, bundle),
                                      k_process(per_step, bundle))

    @staticmethod
    def compact_forms(n_paths):
        step = ((0.0, 0.25, 1.0), (-1.5, 0.75))
        per_step = np.random.default_rng(137).normal(size=GRID.n_steps)
        shape = (n_paths, GRID.n_steps)
        return [(1.0, np.full(shape, 1.0)),
                (per_step, np.tile(per_step, (n_paths, 1))),
                (step, np.tile(ito.step_values_on_grid(*step, GRID), (n_paths, 1)))]

    def test_compact_forms_are_the_explicit_array_bitwise(self):
        bundle = simulate(StepControl(band=BAND, breaks=(0.0, 0.5, 1.0),
                                      levels=(1.25, 1.75)), GRID, 24, seed=139)
        for compact, explicit in self.compact_forms(24):
            got, want = k_process(compact, bundle), k_process(explicit, bundle)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_compact_forms_take_g_once_per_value(self, monkeypatch):
        sizes = []

        def counting(band, a):
            sizes.append(np.size(a))
            return g_value(band, a)

        monkeypatch.setattr(ito, "g_value", counting)
        bundle = lo_bundle(24)
        for compact, _ in self.compact_forms(24):
            k_process(compact, bundle)
        assert len(sizes) == 3 and max(sizes) <= GRID.n_steps, sizes

    @pytest.mark.parametrize("breaks, values", [
        ((0.0, 0.75, 0.5, 1.0), (1.0, 2.0, 3.0)),
        ((math.nan, 0.5, 1.0), (1.0, 2.0)),
        ((0.0, 0.5, math.inf), (1.0, 2.0)),
    ], ids=["unsorted", "nan-first", "inf-last"])
    def test_step_breaks_must_be_finite_and_increasing(self, breaks, values):
        # read unchecked, the unsorted step gives K_T = -6.0 on the lower edge
        with pytest.raises(UsageError, match="finite and strictly increasing"):
            k_process((breaks, values), lo_bundle(4))

    @pytest.mark.parametrize("breaks", [
        (0.0, 0.5, 0.5 + 1e-12, 1.0), (0.0, 0.5, 1.0 - 1e-12, 1.0)],
        ids=["one-start", "horizon"])
    def test_no_interval_loses_its_steps_to_a_shared_node(self, breaks):
        # read unchecked, the breaks 0.5 and 0.5 + 1e-12 both start on
        # node 2 and the value 7.0 is dropped: [1, 1, 3, 3]; near the
        # horizon the last interval starts on node 4 and gets no step
        with pytest.raises(UsageError, match=r"step function breaks \[0\.0, "
                           r"0\.5, .*\] start two intervals on one node"):
            ito.step_values_on_grid(breaks, (1.0, 7.0, 3.0), TimeGrid(1.0, 4))

    @pytest.mark.parametrize("integrand, named", [
        (math.nan, "got nan$"),
        (np.r_[np.ones(GRID.n_steps - 1), math.inf], r"got inf at index \(511,\)"),
        (np.where(np.eye(4, GRID.n_steps, 3) > 0, -math.inf, 1.0),
         r"got -inf at index \(0, 3\)"),
        (((0.0, 0.5, 1.0), (1.0, math.nan)), r"got nan at index \(1,\)"),
    ], ids=["scalar", "per-step", "per-path", "step"])
    def test_non_finite_integrand_is_named(self, integrand, named):
        # read unchecked, every path's K is NaN from the first such step on
        with pytest.raises(UsageError, match="(integrand|step values) must be "
                                             "finite, " + named):
            k_process(integrand, lo_bundle(4))

    def test_half_curvature_gives_the_decomposition_ledger(self):
        # K = 0.5 c dqv - G(c) dt summed, as the decompositions book it;
        # halving and doubling are exact, so the two agree bit for bit
        bundle = lo_bundle(64)
        c = np.random.default_rng(131).normal(scale=3.0, size=(64, GRID.n_steps))
        g = 0.5 * (BAND.var_hi * np.maximum(c, 0.0)
                   - BAND.var_lo * np.maximum(-c, 0.0))
        steps = 0.5 * c * np.diff(bundle.qv_paths, axis=-1) - g * GRID.dt
        expect = np.zeros_like(bundle.qv_paths)
        expect[:, 1:] = np.cumsum(steps, axis=-1)
        assert np.array_equal(k_process(0.5 * c, bundle), expect)


class TestMartingaleDecomposition:
    SPACE = SpaceGrid(-10.0, 10.0, 401)
    SWEEP = TimeGrid(1.0, 1600)

    def xi(self):
        return CylinderFunctional(times=(1.0,), payoff=lambda x: x * x,
                                  lipschitz_bound=10.0, value_bound=25.0)

    def decompose(self, n_steps, n_paths=2000, seed=131):
        bundle = simulate(ConstantControl(band=BAND, level=1.0),
                          TimeGrid(1.0, n_steps), n_paths, seed)
        return martingale_decomposition(self.xi(), BAND, self.SWEEP,
                                        self.SPACE, bundle), bundle

    def test_closed_form_pieces(self):
        dec, bundle = self.decompose(256)
        assert dec.initial == pytest.approx(4.0, abs=8e-3)
        # value process: B_t^2 + var_hi (T - t)
        t = bundle.time_grid.times()
        want_m = bundle.b_paths**2 + 4.0 * (1.0 - t)[None, :]
        assert np.max(np.abs(dec.m_paths - want_m)) < 0.05
        # martingale integrand: 2 B_t
        assert np.max(np.abs(dec.z_paths - 2.0 * bundle.b_paths)) < 0.15
        # compensator: <B> - var_hi t
        want_k = bundle.qv_paths - 4.0 * t[None, :]
        assert np.max(np.abs(dec.k_paths - want_k)) < 0.1

    def test_terminal_frame_is_the_payoff(self):
        dec, bundle = self.decompose(256)
        np.testing.assert_allclose(dec.m_paths[:, -1], bundle.b_paths[:, -1]**2,
                                   atol=1e-2)

    def test_k_starts_at_zero_and_decreases(self):
        dec, _ = self.decompose(256)
        assert np.all(dec.k_paths[:, 0] == 0.0)
        assert np.all(np.diff(dec.k_paths, axis=-1) <= 1e-12)

    def test_reconstruction_error_order(self):
        # residual of initial + int(Z dB) + K against the value process
        # shrinks like sqrt(dt): empirical order >= 0.4 over a 16x range
        res = []
        for n_steps in (64, 256, 1024):
            dec, _ = self.decompose(n_steps)
            res.append(float(dec.residuals().max()))
        assert res[0] > res[1] > res[2]
        order = math.log(res[0] / res[2]) / math.log(1024 / 64)
        assert order >= 0.4

    @pytest.mark.parametrize("n_paths", [2, 4, 7])
    def test_residuals_are_the_whole_array_formula_bitwise(self, n_paths):
        dec, bundle = self.decompose(16, n_paths=n_paths)
        rebuilt = (dec.initial + stochastic_integral(dec.z_paths, bundle.b_paths)
                   + dec.k_paths)
        want = np.max(np.abs(dec.m_paths - rebuilt), axis=-1)
        assert np.array_equal(dec.residuals().view(np.int64), want.view(np.int64))

    def test_residuals_hold_a_few_rows(self):
        # walked node by node: the scratch is a few rows of one value per
        # path, whatever the bundle's length
        dec, bundle = self.decompose(256, n_paths=500)
        tracemalloc.start()
        try:
            dec.residuals()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 8 * bundle.n_paths, peak / (8 * bundle.n_paths)

    def test_band_mismatch_is_refused(self):
        other = GParams(1.0, 1.5)
        bundle = simulate(ConstantControl(band=other, level=1.0),
                          TimeGrid(1.0, 64), 8, seed=1)
        with pytest.raises(UsageError):
            martingale_decomposition(self.xi(), BAND, self.SWEEP, self.SPACE,
                                     bundle)

    def test_bundle_horizon_must_be_the_functional_horizon(self):
        bundle = simulate(ConstantControl(band=BAND, level=1.0),
                          TimeGrid(2.0, 64), 8, seed=1)
        with pytest.raises(UsageError, match=r"horizon 1\.0 .*horizon 2\.0"):
            martingale_decomposition(self.xi(), BAND, self.SWEEP, self.SPACE,
                                     bundle)

    def test_paths_must_stay_on_the_grid(self):
        bundle = simulate(ConstantControl(band=BAND, level=1.0),
                          TimeGrid(1.0, 64), 64, seed=137)
        narrow = SpaceGrid(-2.2, 2.2, 89)
        with pytest.raises(ExtrapolationError):
            martingale_decomposition(self.xi(), BAND, TimeGrid(1.0, 4000),
                                     narrow, bundle)

    def test_monitoring_dates_must_be_bundle_nodes(self):
        xi = CylinderFunctional(times=(1 / 3, 1.0), payoff=lambda a, b: a + b,
                                lipschitz_bound=1.0, value_bound=40.0)
        bundle = simulate(ConstantControl(band=BAND, level=1.0),
                          TimeGrid(1.0, 64), 8, seed=1)
        with pytest.raises(UsageError):
            martingale_decomposition(xi, BAND, self.SWEEP, self.SPACE, bundle)


class TestAlongPathKernel:
    """Decomposition fields, frame by frame, against ``np.interp``/scipy on
    the reference derivative fields: bit for bit."""

    SPACE = SpaceGrid(-10.0, 10.0, 81)
    SWEEP = TimeGrid(1.0, 128)

    INCREMENT = CylinderFunctional(times=(0.5, 1.0),
                                   payoff=lambda a, b: np.abs(b - a),
                                   lipschitz_bound=1.0, value_bound=40.0)
    MEAN3 = CylinderFunctional(times=(1 / 3, 2 / 3, 1.0),
                               payoff=lambda a, b, c: (a + b + c) / 3.0,
                               lipschitz_bound=1.0, value_bound=40.0)

    # |mean| has 292 distinct rows of 3721 at 61 points
    ABS_MEAN3 = CylinderFunctional(times=(1 / 3, 2 / 3, 1.0),
                                   payoff=lambda a, b, c: np.abs(a + b + c) / 3.0,
                                   lipschitz_bound=1.0, value_bound=40.0)

    @pytest.mark.parametrize("xi, n_points, n_steps", [
        (INCREMENT, 201, 32), (ABS_MEAN3, 61, 12)],
        ids=["distinct-rows", "grouped-rows"])
    def test_peak_is_the_outputs_one_photograph_and_a_few_rows(
            self, xi, n_points, n_steps):
        # each frame is read as the sweep photographs it and none is kept:
        # the peak is the three outputs, one photograph (a view of the mesh
        # when every row is distinct, a gathered mesh otherwise) with the
        # three meshes of its curvature, and a few rows of one value per
        # path, however many nodes the bundle has
        space = SpaceGrid(-10.0, 10.0, n_points)
        bundle = lo_bundle(n_paths=500, seed=7, grid=TimeGrid(1.0, n_steps))
        tracemalloc.start()
        try:
            dec = martingale_decomposition(xi, BAND, TimeGrid(1.0, 400), space,
                                           bundle)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rest = peak - 3 * dec.m_paths.nbytes - 4 * 8 * n_points ** xi.n_times
        assert rest <= 128 * 8 * bundle.n_paths, rest / (8 * bundle.n_paths)

    @pytest.mark.parametrize("seed, xi, n_steps", [
        (1, INCREMENT, 16), (5, INCREMENT, 16), (64, INCREMENT, 16),
        (3, MEAN3, 12)], ids=["1", "5", "64", "mean3"])
    def test_bitwise_equal_to_the_reference(self, seed, xi, n_steps):
        # three independent bundles, so the paths cross different cells;
        # the three-date mean has three frame axes from t = 2/3 on and
        # ends on its raw payoff mesh
        bundle = lo_bundle(n_paths=64, seed=seed, grid=TimeGrid(1.0, n_steps))
        dec = martingale_decomposition(xi, BAND, self.SWEEP, self.SPACE, bundle)
        frames = conditional_frames(xi, BAND, self.SPACE,
                                    bundle.time_grid.times(), self.SWEEP.dt)
        pts, dx, b = self.SPACE.points(), self.SPACE.dx, bundle.b_paths
        dates = [round(t * n_steps) for t in xi.times]
        curv = np.empty_like(dec.m_paths)
        for j, frame in enumerate(frames):
            # the path at each date reached so far, then B_t; at the
            # horizon the last date is B_t itself
            observed = [d for d in dates if d <= j][:len(dates) - 1]
            assert frame.ndim == len(observed) + 1
            coords = [b[:, d] for d in observed] + [b[:, j]]
            curv[:, j] = oracles.eval_frame_reference(
                oracles.curvature_reference(frame, dx), pts, coords)
            for got, field in ((dec.m_paths[:, j], frame),
                               (dec.z_paths[:, j], oracles.gradient_reference(frame, dx))):
                want = oracles.eval_frame_reference(field, pts, coords)
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))
        # K is the ledger of half the reference curvature
        np.testing.assert_array_equal(dec.k_paths,
                                      ito.k_process(0.5 * curv[:, :-1], bundle))

    @pytest.mark.parametrize("n_paths", [2, 7])
    @pytest.mark.parametrize("n_steps", [1, 30, 31, 32, 64])
    def test_k_in_the_walk_is_the_whole_array_ledger(self, n_steps, n_paths):
        # from the shortest walk (a grid has one step at least, so a walk
        # sees two frames at least) to 65 frames
        bundle = lo_bundle(n_paths=n_paths, seed=n_steps,
                           grid=TimeGrid(1.0, n_steps))
        frames = np.random.default_rng(n_steps).normal(
            size=(n_steps + 1, self.SPACE.n_points))
        # every path starts on node 40, where this curvature is -0.0: step 0
        # is -0.0, and K_1 keeps cumsum's -0.0, not 0.0 + (-0.0)
        frames[0, 39:42] = (-0.0, 0.0, -0.0)
        fields = ito.eval_on_paths(frames, bundle, (), self.SPACE)
        pts, dx, b = self.SPACE.points(), self.SPACE.dx, bundle.b_paths
        want = np.empty((3,) + b.shape)
        for j, frame in enumerate(frames):
            for out, field in zip(want, (frame, oracles.gradient_reference(frame, dx),
                                         oracles.curvature_reference(frame, dx))):
                out[:, j] = oracles.eval_frame_reference(field, pts, [b[:, j]])
        want[2] = ito.k_process(0.5 * want[2][:, :-1], bundle)
        assert np.all(np.signbit(want[2][:, 1]))
        for got, ref in zip(fields, want):
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))

    def test_outputs_are_time_major(self):
        # each output is the transpose of a buffer written node by node,
        # like the bundle's paths
        bundle = lo_bundle(n_paths=6, seed=3, grid=TimeGrid(1.0, 8))
        frames = np.random.default_rng(3).normal(size=(9, self.SPACE.n_points))
        for field in ito.eval_on_paths(frames, bundle, (), self.SPACE):
            assert field.shape == bundle.b_paths.shape
            assert field.T.flags.c_contiguous
        xi = CylinderFunctional(times=(1.0,), payoff=lambda x: x * x,
                                lipschitz_bound=20.0, value_bound=100.0)
        dec = martingale_decomposition(xi, BAND, self.SWEEP, self.SPACE, bundle)
        for field in (dec.m_paths, dec.z_paths, dec.k_paths):
            assert field.T.flags.c_contiguous

    def test_one_frame_per_node(self):
        bundle = lo_bundle(n_paths=2, grid=TimeGrid(1.0, 4))
        with pytest.raises(UsageError, match="4 frames for a bundle of 5 nodes"):
            ito.eval_on_paths(np.zeros((4, self.SPACE.n_points)), bundle,
                              (), self.SPACE)

    def test_frames_observe_no_more_dates_than_given(self):
        # from node 3 on the frames carry one observed axis, but the walk
        # was given no date node to read it from
        bundle = lo_bundle(n_paths=2, grid=TimeGrid(1.0, 4))
        n = self.SPACE.n_points
        frames = [np.zeros(n)] * 3 + [np.zeros((n, n))] * 2
        with pytest.raises(UsageError, match="node 3 has 1 observed axes, "
                                             r"but 0 date node\(s\)"):
            ito.eval_on_paths(frames, bundle, (), self.SPACE)


class TestMartingaleTest:
    PAIRS = [(0.0, 0.5), (0.5, 1.0), (0.0, 1.0)]

    def family(self):
        return [ConstantControl(band=BAND, level=1.0),
                ConstantControl(band=BAND, level=2.0),
                StepControl(band=BAND, breaks=(0.0, 0.5, 1.0),
                            levels=(1.0, 2.0))]

    def test_canonical_k_is_consistent(self):
        report = martingale_test(lambda b: k_process(1.0, b), self.family(),
                                 self.PAIRS, GRID, 256, seed=139)
        assert report.consistent
        # under constant controls every path gains the same K increment,
        # so the extremes are exact: sup 0 at the top edge, min
        # -(var_hi - var_lo)(t - s) at the bottom edge
        for row, (s, t) in zip(report.rows, self.PAIRS):
            assert row["sup_mean"] == 0.0
            assert row["min_mean"] == pytest.approx(-3.0 * (t - s), abs=1e-12)
            assert row["window_consistent"]

    def test_deterministic_drift_is_refuted_everywhere(self):
        def drifter(bundle):
            t = bundle.time_grid.times()
            return np.broadcast_to(-t, bundle.b_paths.shape)

        report = martingale_test(drifter, self.family(), self.PAIRS, GRID,
                                 256, seed=139)
        assert not report.consistent
        for row, (s, t) in zip(report.rows, self.PAIRS):
            assert not row["window_consistent"]
            assert row["sup_mean"] == pytest.approx(-(t - s), abs=1e-12)

    def default_family(self):
        """The CLI's four controls: both edges and both switches at 0.5."""
        return self.family() + [StepControl(band=BAND, breaks=(0.0, 0.5, 1.0),
                                            levels=(2.0, 1.0))]

    def test_nonincreasing_qv_integral_is_refuted(self):
        # the theorem's d<B> half: int gamma d<B> with gamma = -|B| <= 0,
        # not 0, is non-increasing, so it is no martingale
        report = martingale_test(
            lambda b: stochastic_integral(-np.abs(b.b_paths), b.qv_paths),
            self.default_family(), self.PAIRS, TimeGrid(1.0, 64), 4000, seed=11)
        assert not report.consistent
        for row in report.rows:
            assert row["sup_mean"] < -3.0 * row["sup_stderr"]

    @pytest.mark.parametrize("c", [0.5, -0.5])
    def test_wrong_split_is_refuted(self, c):
        # the ds half applied to a real K: K(1) - c t is no martingale for
        # c != 0.  Under the sigma_hi edge K(1) gains exactly 0 (dyadic
        # grid, integer variances), so the sup is exact and its se is 0.
        report = martingale_test(
            lambda b: k_process(1.0, b) - c * b.time_grid.times(),
            self.default_family(), self.PAIRS, TimeGrid(1.0, 64), 4000, seed=11)
        assert not report.consistent
        for row, (s, t) in zip(report.rows, self.PAIRS):
            assert row["sup_mean"] == pytest.approx(-c * (t - s), abs=1e-12)
            assert not row["window_consistent"]

    def test_same_family_and_seed_for_both_verdicts(self):
        # the pair above shares family, seed, and windows; this guards the
        # comparison's common-random-number promise
        r1 = martingale_test(lambda b: k_process(1.0, b), self.family(),
                             self.PAIRS, GRID, 128, seed=149)
        r2 = martingale_test(lambda b: k_process(1.0, b), self.family(),
                             self.PAIRS, GRID, 128, seed=149)
        assert r1.rows == r2.rows

    def test_builder_shape_is_checked(self):
        with pytest.raises(UsageError, match="node-shaped"):
            martingale_test(lambda b: b.b_paths[:, :-1], self.family(),
                            self.PAIRS, GRID, 16, seed=1)
        # in a table, a wrong builder after a right one is refused too
        with pytest.raises(UsageError, match="node-shaped"):
            martingale_table([lambda b: b.b_paths, lambda b: b.qv_paths[:, 1:]],
                             self.family(), self.PAIRS, GRID, 16, seed=1)

    def test_an_empty_table_is_refused(self):
        # no windows would be reported "consistent" having tested nothing
        with pytest.raises(UsageError, match="at least one window"):
            martingale_test(lambda b: b.b_paths, self.family(), [], GRID, 16,
                            seed=1)
        with pytest.raises(UsageError, match="at least one process builder"):
            martingale_table([], self.family(), self.PAIRS, GRID, 16, seed=1)

    def test_windows_must_increase(self):
        with pytest.raises(UsageError):
            martingale_test(lambda b: b.b_paths, self.family(),
                            [(0.5, 0.5)], GRID, 16, seed=1)


class TestIdentifyDrift:
    def family(self):
        return [ConstantControl(band=BAND, level=1.0),
                ConstantControl(band=BAND, level=2.0)]

    def test_positive_unit_integrand(self):
        rows = identify_drift(((0.0, 1.0), (1.0,)), BAND, self.family(),
                              GRID, 64, seed=151)
        assert len(rows) == 1
        assert rows[0]["c"] == pytest.approx(4.0, abs=1e-3)

    def test_negative_unit_integrand(self):
        rows = identify_drift(((0.0, 1.0), (-1.0,)), BAND, self.family(),
                              GRID, 64, seed=151)
        assert rows[0]["c"] == pytest.approx(-1.0, abs=1e-3)

    def test_two_interval_integrand(self):
        rows = identify_drift(((0.0, 0.5, 1.0), (1.0, -1.0)), BAND,
                              self.family(), GRID, 64, seed=151)
        got = [r["c"] for r in rows]
        assert got == pytest.approx([4.0, -1.0], abs=1e-3)
        assert [r["t_lo"] for r in rows] == [0.0, 0.5]

    def test_rates_agree_with_the_envelope(self):
        # the identified rate is 2 G(eta) on each interval, by construction
        # of the band; check against the independent envelope form
        for a in (1.0, -1.0, 0.5):
            rows = identify_drift(((0.0, 1.0), (a,)), BAND, self.family(),
                                  GRID, 64, seed=151)
            want = 2.0 * oracles.envelope(1.0, 4.0, a)
            assert rows[0]["c"] == pytest.approx(want, rel=0.02)

    @pytest.mark.parametrize("breaks, values", [
        ((0.0, 0.5, 0.5, 1.0), (1.0, -1.0, 1.0)),
        ((0.0, 0.75, 0.5, 1.0), (1.0, -1.0, 1.0)),
        ((0.0, math.nan, 0.5, 1.0), (1.0, -1.0, 1.0)),
    ], ids=["repeated", "decreasing", "nan"])
    def test_breaks_must_increase(self, breaks, values):
        with pytest.raises(UsageError, match=r"strictly increasing.*0\.5"):
            identify_drift((breaks, values), BAND, self.family(), GRID, 64,
                           seed=151)

    def test_eta_without_an_interval_is_refused(self):
        with pytest.raises(UsageError, match="eta must have at least one interval"):
            identify_drift(((0.0,), ()), BAND, self.family(), GRID, 64,
                           seed=151)

    @pytest.mark.parametrize("values, named", [
        ((math.nan,), r"got nan at index \(0,\)"),
        ((1.0, -math.inf), r"got -inf at index \(1,\)"),
    ], ids=["nan", "inf"])
    def test_non_finite_eta_value_is_named(self, values, named):
        # read unchecked, NaN passes the bracket check and the bisection
        # loop's test, so c = nan after 0 iterations
        breaks = np.linspace(0.0, 1.0, len(values) + 1)
        with pytest.raises(UsageError, match="eta values must be finite, " + named):
            identify_drift((breaks, values), BAND, self.family(), GRID, 64,
                           seed=151)

    def test_missing_bang_bang_control_is_reported(self):
        with pytest.raises(UsageError):
            identify_drift(((0.0, 1.0), (1.0,)), BAND,
                           [ConstantControl(band=BAND, level=1.0)],
                           GRID, 64, seed=151)


class TestStep2Table:
    ZETA = ((0.0, 0.25, 1.0), (2.0, 0.5))

    def test_alignment_pattern(self):
        rows = step2_limit_check(self.ZETA, 0.25, (1, 2, 4, 8, 16))
        assert [r["aligned"] for r in rows] == [False, False, True, True, True]
        assert [r["gap_exact_zero"] for r in rows] == \
            [False, False, True, True, True]
        for r in rows:
            assert r["per_block_identity_gap"] == 0.0
            assert r["proportionality_exact"]

    def test_unaligned_gap_against_riemann_oracle(self):
        rows = step2_limit_check(self.ZETA, 0.25, (3,))
        breaks, values = self.ZETA
        n = 300_000
        s = (np.arange(n) + 0.5) / n
        z = np.where(s < 0.25, 2.0, 0.5)
        frac = s * 3 - np.floor(s * 3)
        trailing = frac > 0.25
        total = float(z.sum() / n)
        gap = abs(float(z[trailing].sum() / n) - 0.75 * total)
        assert rows[0]["gap"] == pytest.approx(gap, abs=5e-5)
        assert rows[0]["gap"] > 1e-3  # genuinely unaligned

    def test_finer_zeta_alignment(self):
        # once 1/k divides the partition, exactness appears and persists
        zeta = ((0.0, 0.125, 0.5, 1.0), (1.0, -1.0, 0.5))
        rows = step2_limit_check(zeta, 0.5, (2, 4, 8, 16))
        assert [r["gap_exact_zero"] for r in rows] == [False, False, True, True]

    def test_validation(self):
        with pytest.raises(UsageError):
            step2_limit_check(((0.0, 0.5), (1.0, 2.0)), 0.25, (1,))
        for breaks in ((0.0, 0.75, 0.25, 1.0), (0.0, math.nan, 0.75, 1.0)):
            with pytest.raises(UsageError, match="zeta breaks must be finite "
                                                 "and strictly increasing"):
                step2_limit_check((breaks, (1.0, 2.0, 3.0)), 0.25, (1,))
        with pytest.raises(DomainError):
            step2_limit_check(self.ZETA, 1.5, (1,))
        with pytest.raises(DomainError):
            step2_limit_check(self.ZETA, 0.25, (0,))
