"""Tests for the shared vocabulary: envelope, grids, functionals and
volatility controls.

Scalar values are checked against closed forms re-derived in
``tests.oracles``; structural properties (subadditivity, adaptedness of the
drivers, validation behaviour) run on seeded samples.
"""

import math
import re

import numpy as np
import pytest

from gbrownian import (
    ConfigurationError,
    ConstantControl,
    CylinderFunctional,
    DataError,
    DomainError,
    GParams,
    PerturbationSchedule,
    SelfDependentControl,
    SpaceGrid,
    StepControl,
    TimeGrid,
    UsageError,
    g_eps_value,
    g_value,
)
from gbrownian.core import _g_inplace

import oracles

BAND = GParams(sigma_lo=1.0, sigma_hi=2.0)


class TestEnvelope:
    """The half-envelope a -> (var_hi*a+ - var_lo*a-)/2 and its tilted variant."""

    @pytest.mark.parametrize("a, expected", [
        (1.0, 2.0),
        (-2.0, -1.0),
        (0.0, 0.0),
        (0.5, 1.0),
        (-0.5, -0.25),
    ])
    def test_reference_values(self, a, expected):
        assert g_value(BAND, a) == pytest.approx(expected, abs=1e-15)

    def test_matches_independent_form(self):
        rng = np.random.default_rng(7)
        for a in rng.uniform(-5, 5, size=200):
            assert g_value(BAND, a) == pytest.approx(
                oracles.envelope(1.0, 4.0, a), abs=1e-14)

    def test_bitwise_the_oracle_form(self):
        # special values, then random magnitudes of both signs over the
        # whole float range; overflow to inf is part of the form
        rng = np.random.default_rng(5)
        a = np.concatenate([
            [0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, 1e308, -1e308],
            rng.choice([-1.0, 1.0], 4000) * 10.0 ** rng.uniform(-320, 308, 4000)])
        before = a.copy()
        with np.errstate(over="ignore"):
            want = 0.5 * (BAND.var_hi * np.maximum(a, 0.0)
                          - BAND.var_lo * np.maximum(-a, 0.0))
            got = g_value(BAND, a)
            scalars = [g_value(BAND, float(v)) for v in a[:8]]
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert [v.hex() for v in scalars] == [float(v).hex() for v in want[:8]]
        assert np.array_equal(a, before)    # the input is not scratch

    @pytest.mark.parametrize("band", [
        GParams(1.0, 2.0), GParams(0.5, 2.0), GParams(1.5, 1.5), GParams(0.6, 3.0),
    ], ids=["1-2", "0.5-2", "1.5-1.5", "0.6-3"])
    def test_bitwise_the_step_reference(self, band):
        # G as the larger band-edge product against the split-sign body it
        # replaced: special values, negative subnormals whose var_lo product
        # underflows to -0.0, then random magnitudes of both signs
        rng = np.random.default_rng(23)
        tiny = -5e-324 * np.arange(1, 9)
        a = np.concatenate([
            [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
             np.inf, -np.inf, np.nan, -np.nan, 1e308, -1e308, 1.0, -1.0],
            tiny,
            rng.choice([-1.0, 1.0], 4000) * 10.0 ** rng.uniform(-324, 308, 4000)])
        for half in (0.5, 0.5 * TimeGrid(1.0, 1600).dt, 0.5e-300):
            got = a.copy()
            with np.errstate(over="ignore"):
                want = oracles.g_step_reference(band, a, half)
                assert _g_inplace(band, got, np.empty(a.shape), half) is got
            same = got.view(np.uint64) == want.view(np.uint64)
            assert np.all(same | (np.isnan(got) & np.isnan(want))), (
                band, half, a[~same][:5], got[~same][:5], want[~same][:5])

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            a = rng.uniform(-3, 3)
            lam = rng.uniform(0, 4)
            assert g_value(BAND, lam * a) == pytest.approx(
                lam * g_value(BAND, a), rel=1e-12, abs=1e-12)

    def test_subadditivity(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            a, b = rng.uniform(-4, 4, size=2)
            assert g_value(BAND, a + b) <= g_value(BAND, a) + g_value(BAND, b) + 1e-12

    def test_degenerate_band_is_linear(self):
        flat = GParams(1.5, 1.5)
        rng = np.random.default_rng(17)
        for a in rng.uniform(-3, 3, size=50):
            assert g_value(flat, a) == pytest.approx(0.5 * 1.5**2 * a, rel=1e-12)

    @pytest.mark.parametrize("a, eps, expected", [
        (1.0, 0.5, 1.75),     # 2 - 0.25*|1|
        (-2.0, 0.5, -1.5),    # -1 - 0.25*|-2|
        (0.0, 0.9, 0.0),
    ])
    def test_tilted_envelope(self, a, eps, expected):
        assert g_eps_value(BAND, eps, a) == pytest.approx(expected, abs=1e-14)

    def test_tilt_is_a_pure_absolute_penalty(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            a = rng.uniform(-4, 4)
            eps = rng.uniform(0, 0.5 * BAND.var_spread)
            assert g_eps_value(BAND, eps, a) == pytest.approx(
                g_value(BAND, a) - 0.5 * eps * abs(a), rel=1e-12, abs=1e-12)

    def test_tilt_beyond_half_spread_is_rejected(self):
        with pytest.raises(DomainError):
            g_eps_value(BAND, 2.0, 1.0)


class TestGParams:
    def test_derived_quantities(self):
        assert BAND.var_lo == 1.0
        assert BAND.var_hi == 4.0
        assert BAND.var_spread == 3.0

    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-1.0, 1.0), (2.0, 1.0)])
    def test_rejects_bad_bands(self, lo, hi):
        with pytest.raises(ConfigurationError):
            GParams(lo, hi)

    def test_contains_level(self):
        assert bool(BAND.contains_level(1.0))
        assert bool(BAND.contains_level(2.0))
        assert not bool(BAND.contains_level(2.1))
        # tolerance admits roundoff-level excursions
        assert bool(BAND.contains_level(2.0 + 1e-13, tol=1e-12))
        got = BAND.contains_level(np.array([0.5, 1.5, 2.5]))
        np.testing.assert_array_equal(got, [False, True, False])


class TestGrids:
    def test_time_grid_nodes(self):
        tg = TimeGrid(1.0, 4)
        assert tg.dt == pytest.approx(0.25)
        np.testing.assert_allclose(tg.times(), [0.0, 0.25, 0.5, 0.75, 1.0])
        assert tg.index_of(0.75) == 3

    def test_time_grid_rejects_off_nodes(self):
        tg = TimeGrid(1.0, 3)
        with pytest.raises(UsageError):
            tg.index_of(0.5)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_time_grid_refuses_non_finite_times(self, t):
        with pytest.raises(UsageError, match=f"time {t!r} is not finite"):
            TimeGrid(1.0, 4).index_of(t)

    @pytest.mark.parametrize("t", [1e308, -1e308])
    def test_time_grid_refuses_huge_times_as_off_grid(self, t):
        # t / dt overflows to inf; the quotient is clamped before rounding
        with pytest.raises(UsageError, match="is not a node of the grid"):
            TimeGrid(1.0, 1600).index_of(t)

    def test_time_grid_validation(self):
        with pytest.raises(ConfigurationError):
            TimeGrid(0.0, 4)
        with pytest.raises(ConfigurationError):
            TimeGrid(1.0, 0)
        # a count that is not an integer is refused, not truncated
        for bad in (2.7, 8.0, "8", math.nan, math.inf, True):
            with pytest.raises(ConfigurationError,
                               match=re.escape(f"n_steps must be an integer "
                                               f">= 1, got {bad!r}")):
                TimeGrid(1.0, bad)
        for good in (8, np.int64(8), np.uint8(8)):
            grid = TimeGrid(1.0, good)
            assert grid.n_steps == 8 and type(grid.n_steps) is int

    def test_require_horizon_refuses_nan(self):
        tg = TimeGrid(1.0, 4)
        tg.require_horizon(1.0 + 1e-12, "functional")
        with pytest.raises(UsageError, match="functional horizon nan"):
            tg.require_horizon(math.nan, "functional")

    def test_space_grid_geometry(self):
        sg = SpaceGrid(-2.0, 2.0, 5)
        assert sg.dx == pytest.approx(1.0)
        np.testing.assert_allclose(sg.points(), [-2, -1, 0, 1, 2])

    def test_cached_nodes_are_the_points_read_only(self):
        sg = SpaceGrid(-6.0, 6.0, 241)
        nodes = sg._nodes
        assert sg._nodes is nodes and not nodes.flags.writeable
        assert np.array_equal(nodes, sg.points())
        with pytest.raises(ValueError):
            nodes[0] = 0.0
        pts = sg.points()       # callers still get an array of their own
        pts *= 2.0
        assert pts.flags.writeable and np.array_equal(nodes, sg.points())

    def test_space_grid_validation(self):
        with pytest.raises(ConfigurationError):
            SpaceGrid(1.0, -1.0, 5)
        with pytest.raises(ConfigurationError):
            SpaceGrid(-1.0, 1.0, 2)
        for bad in (3.5, 5.0, "5", math.nan, math.inf):
            with pytest.raises(ConfigurationError,
                               match=re.escape(f"n_points must be an integer "
                                               f">= 3, got {bad!r}")):
                SpaceGrid(-1.0, 1.0, bad)
        assert type(SpaceGrid(-1.0, 1.0, np.int32(5)).n_points) is int

    @pytest.mark.parametrize("bounds, name", [((-math.inf, 6.0), "x_min"),
                                              ((-6.0, math.inf), "x_max"),
                                              ((math.nan, 6.0), "x_min")])
    def test_space_grid_rejects_non_finite_bounds(self, bounds, name):
        with pytest.raises(ConfigurationError, match=name):
            SpaceGrid(*bounds, 11)


class TestCylinderFunctional:
    def test_levels_evaluation(self):
        xi = CylinderFunctional(times=(0.5, 1.0),
                                payoff=lambda a, b: a + 2 * b,
                                lipschitz_bound=3.0, value_bound=60.0)
        assert xi.evaluate_levels(1.0, 2.0) == pytest.approx(5.0)
        assert xi.n_times == 2
        assert xi.horizon == 1.0

    def test_rejects_understated_lipschitz_bound(self):
        with pytest.raises(DataError):
            CylinderFunctional(times=(1.0,), payoff=lambda x: 10.0 * x,
                               lipschitz_bound=0.5, value_bound=1000.0)

    def test_rejects_understated_value_bound(self):
        with pytest.raises(DataError):
            CylinderFunctional(times=(1.0,), payoff=lambda x: x * x,
                               lipschitz_bound=40.0, value_bound=1.0)

    def test_rejects_non_finite_payoff(self):
        with pytest.raises(DataError):
            CylinderFunctional(times=(1.0,), payoff=lambda x: np.full_like(x, np.nan),
                               lipschitz_bound=1e6, value_bound=1e6)

    @pytest.mark.parametrize("times", [(), (0.0, 1.0), (0.5, 0.5), (1.0, 0.5),
                                       (math.nan,), (math.inf,)])
    def test_rejects_bad_dates(self, times):
        with pytest.raises(ConfigurationError):
            CylinderFunctional(times=times, payoff=lambda *a: 0.0,
                               lipschitz_bound=1.0, value_bound=1.0)

    def test_wrong_arity_is_a_usage_error(self):
        xi = CylinderFunctional(times=(1.0,), payoff=lambda x: x,
                                lipschitz_bound=1.0, value_bound=20.0)
        with pytest.raises(UsageError):
            xi.evaluate_levels(1.0, 2.0)


class TestControls:
    def test_constant_control(self):
        c = ConstantControl(band=BAND, level=1.5)
        driver = c.make_driver(TimeGrid(1.0, 4), n_paths=3)
        np.testing.assert_array_equal(driver(0, np.zeros((3, 1))), [1.5, 1.5, 1.5])

    def test_constant_control_outside_band(self):
        with pytest.raises(DomainError):
            ConstantControl(band=BAND, level=2.5)

    def test_step_control_schedule(self):
        c = StepControl(band=BAND, breaks=(0.0, 0.5, 1.0), levels=(1.0, 2.0))
        driver = c.make_driver(TimeGrid(1.0, 4), n_paths=2)
        hist = np.zeros((2, 5))
        got = [float(driver(k, hist[:, :k + 1])[0]) for k in range(4)]
        assert got == [1.0, 1.0, 2.0, 2.0]

    def test_step_control_callable_level_sees_left_endpoint(self):
        rule = lambda x: np.where(x >= 0.0, 2.0, 1.0)
        c = StepControl(band=BAND, breaks=(0.0, 0.5, 1.0), levels=(1.5, rule))
        driver = c.make_driver(TimeGrid(1.0, 2), n_paths=2)
        hist = np.array([[0.0, 0.7], [0.0, -0.3]])
        driver(0, hist[:, :1])
        np.testing.assert_array_equal(driver(1, hist), [2.0, 1.0])

    def test_step_control_validation(self):
        with pytest.raises(ConfigurationError):
            StepControl(band=BAND, breaks=(0.1, 1.0), levels=(1.0,))
        with pytest.raises(ConfigurationError):
            StepControl(band=BAND, breaks=(0.0, 1.0), levels=(1.0, 2.0))
        with pytest.raises(DomainError):
            StepControl(band=BAND, breaks=(0.0, 1.0), levels=(3.0,))

    def test_step_control_refuses_a_nan_break_when_built(self):
        with pytest.raises(ConfigurationError, match="strictly increasing"):
            StepControl(band=BAND, breaks=(0.0, math.nan, 1.0),
                        levels=(1.0, 2.0))

    def test_step_control_refuses_breaks_sharing_a_start_node(self):
        # 0.5 and 0.5 + 1e-12 both start on node 2: read unchecked, the
        # middle level 2.0 would never apply
        c = StepControl(band=BAND, breaks=(0.0, 0.5, 0.5 + 1e-12, 1.0),
                        levels=(1.0, 2.0, 1.5))
        with pytest.raises(UsageError, match=r"control breaks \[0\.0, 0\.5, "
                           r".*\] start two intervals on one node"):
            c.make_driver(TimeGrid(1.0, 4), n_paths=1)

    def test_step_control_horizon_mismatch(self):
        c = StepControl(band=BAND, breaks=(0.0, 2.0), levels=(1.0,))
        with pytest.raises(UsageError, match=r"horizon 2\.0 .*horizon 1\.0"):
            c.make_driver(TimeGrid(1.0, 4), n_paths=1)

    def test_self_dependent_blocks(self):
        rules = (1.2, lambda inc: np.where(inc > 0.0, 2.0, 1.0))
        c = SelfDependentControl(band=BAND, rules=rules)
        tg = TimeGrid(1.0, 4)
        assert c.block_steps(tg) == 2
        driver = c.make_driver(tg, n_paths=2)
        hist = np.array([[0.0, 0.1, 0.4, 0.0, 0.0],
                         [0.0, 0.2, -0.5, 0.0, 0.0]])
        np.testing.assert_array_equal(driver(0, hist[:, :1]), [1.2, 1.2])
        np.testing.assert_array_equal(driver(1, hist[:, :2]), [1.2, 1.2])
        # block 1 keys off the first block increment b(t_2) - b(0)
        np.testing.assert_array_equal(driver(2, hist[:, :3]), [2.0, 1.0])

    def test_self_dependent_needs_divisible_grid(self):
        c = SelfDependentControl(band=BAND, rules=(1.0, 1.0, 1.0))
        with pytest.raises(UsageError):
            c.block_steps(TimeGrid(1.0, 4))

    def test_self_dependent_rule_leaving_band(self):
        c = SelfDependentControl(band=BAND, rules=(1.0, lambda inc: 5.0 + 0 * inc))
        driver = c.make_driver(TimeGrid(1.0, 2), n_paths=1)
        driver(0, np.zeros((1, 1)))
        with pytest.raises(DomainError):
            driver(1, np.array([[0.0, 0.3]]))

    def test_perturbation_schedule_shrink(self):
        sched = PerturbationSchedule(refinement=1, alpha=0.25,
                                     sub_control=ConstantControl(band=BAND, level=1.0))
        assert sched.eps == pytest.approx(0.25 * 3.0)
        lo_sq, hi_sq = sched.shrunk_band_sq()
        assert lo_sq == pytest.approx(1.75)
        assert hi_sq == pytest.approx(3.25)

    def test_perturbation_schedule_validation(self):
        sub = ConstantControl(band=BAND, level=1.0)
        with pytest.raises(ConfigurationError):
            PerturbationSchedule(refinement=-1, alpha=0.25, sub_control=sub)
        with pytest.raises(ConfigurationError, match="refinement .* 1.5"):
            PerturbationSchedule(refinement=1.5, alpha=0.25, sub_control=sub)
        with pytest.raises(DomainError):
            PerturbationSchedule(refinement=0, alpha=1.0, sub_control=sub)
        flat = ConstantControl(band=GParams(1.0, 1.0), level=1.0)
        with pytest.raises(DomainError):
            PerturbationSchedule(refinement=0, alpha=0.25, sub_control=flat)
