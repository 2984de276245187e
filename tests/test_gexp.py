"""Tests for cylinder-functional expectations: the nested backward
recursion, conditioning and the frame interpolation kernel.

The two-date cases are checked against single-solve reductions that hold
because increments are stationary and independent under the band: a payoff
of B_T - B_s alone must price identically to the same payoff of B_{T-s}.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest

from gbrownian import (
    CapabilityError,
    CylinderFunctional,
    GParams,
    SpaceGrid,
    TimeGrid,
    UsageError,
    conditional_frames,
    g_expectation,
)
from gbrownian import gexp, gheat
from gbrownian.errors import ExtrapolationError

import oracles

BAND = GParams(1.0, 2.0)
SPACE = SpaceGrid(-12.0, 12.0, 481)
TIME = TimeGrid(1.0, 1600)

# worst observed disagreement against closed forms on this grid pair is
# ~2e-3 (one-axis) and ~5e-3 (two-axis, one diagonal stitch); tolerances
# below carry roughly 4x headroom
ONE_AXIS_TOL = 8e-3
TWO_AXIS_TOL = 2e-2


def functional_b1_squared():
    return CylinderFunctional(times=(1.0,), payoff=lambda x: x * x,
                              lipschitz_bound=10.0, value_bound=25.0)


class TestGExpectation:
    def test_upper_variance(self):
        assert g_expectation(functional_b1_squared(), BAND, TIME, SPACE) \
            == pytest.approx(4.0, abs=ONE_AXIS_TOL)

    def test_lower_variance(self):
        xi = CylinderFunctional(times=(1.0,), payoff=lambda x: -x * x,
                                lipschitz_bound=10.0, value_bound=25.0)
        assert g_expectation(xi, BAND, TIME, SPACE) \
            == pytest.approx(-1.0, abs=ONE_AXIS_TOL)

    def test_constants_pass_through(self):
        xi = CylinderFunctional(times=(1.0,), payoff=lambda x: np.full_like(x, 2.5),
                                lipschitz_bound=1.0, value_bound=3.0)
        assert g_expectation(xi, BAND, TIME, SPACE) == pytest.approx(2.5, abs=1e-12)

    # the bounds cover psi(b - a) on the spot-check box, |b - a| <= 9
    @pytest.mark.parametrize("psi, lip, vb, expected", [
        (lambda y: y * y, 20.0, 100.0, 2.0),                 # var_hi * (T - s)
        (np.abs, 1.5, 10.0, 1.1283791670955126),             # E|N(0, 2)|
    ])
    def test_pure_increment_reduces_to_single_solve(self, psi, lip, vb, expected):
        # payoff of B_1 - B_{1/2} alone; the two-date recursion must land
        # on the one-date value of psi(B_{1/2})
        xi = CylinderFunctional(times=(0.5, 1.0),
                                payoff=lambda a, b: psi(b - a),
                                lipschitz_bound=lip, value_bound=vb)
        assert g_expectation(xi, BAND, TIME, SPACE) \
            == pytest.approx(expected, abs=TWO_AXIS_TOL)

    def test_linear_three_date_sum_is_centred(self):
        xi = CylinderFunctional(times=(1 / 3, 2 / 3, 1.0),
                                payoff=lambda a, b, c: a + b + c,
                                lipschitz_bound=1.0, value_bound=60.0)
        sg = SpaceGrid(-7.0, 7.0, 141)
        tg = TimeGrid(1.0, 405)
        assert g_expectation(xi, BAND, tg, sg) == pytest.approx(0.0, abs=0.02)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_payoff_on_the_mesh_is_refused(self, bad):
        # finite on the spot-check box, not at the grid's last nodes
        xi = CylinderFunctional(times=(0.5, 1.0),
                                payoff=lambda a, b: np.where(b > 11.9, bad, a),
                                lipschitz_bound=1.0, value_bound=25.0)
        with pytest.raises(UsageError, match="non-finite values on the mesh"):
            g_expectation(xi, BAND, TIME, SPACE)

    def test_four_dates_exceed_capability(self):
        xi = CylinderFunctional(times=(0.25, 0.5, 0.75, 1.0),
                                payoff=lambda a, b, c, d: a + b + c + d,
                                lipschitz_bound=1.0, value_bound=80.0)
        with pytest.raises(CapabilityError):
            g_expectation(xi, BAND, TIME, SPACE)

    def test_horizon_mismatch(self):
        with pytest.raises(UsageError, match=r"horizon 1\.0 .*horizon 2\.0"):
            g_expectation(functional_b1_squared(), BAND, TimeGrid(2.0, 3200), SPACE)

    def test_hopeless_grid_is_refused(self):
        with pytest.raises(UsageError):
            g_expectation(functional_b1_squared(), BAND, TIME, SpaceGrid(-0.5, 0.5, 41))

    def test_constant_translation(self):
        base = g_expectation(functional_b1_squared(), BAND, TIME, SPACE)
        xi_c = CylinderFunctional(times=(1.0,), payoff=lambda x: x * x + 3.0,
                                  lipschitz_bound=10.0, value_bound=28.0)
        assert g_expectation(xi_c, BAND, TIME, SPACE) \
            == pytest.approx(base + 3.0, abs=1e-10)

    @pytest.mark.parametrize("phi, psi", [
        (lambda x: x * x, lambda x: -x * x),
        (oracles.butterfly, lambda x: x),
        (np.abs, oracles.butterfly),
    ])
    def test_sublinear_across_functionals(self, phi, psi):
        mk = lambda f: CylinderFunctional(times=(1.0,), payoff=f,
                                          lipschitz_bound=12.0, value_bound=30.0)
        both = CylinderFunctional(times=(1.0,),
                                  payoff=lambda x: phi(x) + psi(x),
                                  lipschitz_bound=24.0, value_bound=60.0)
        e_both = g_expectation(both, BAND, TIME, SPACE)
        e_phi = g_expectation(mk(phi), BAND, TIME, SPACE)
        e_psi = g_expectation(mk(psi), BAND, TIME, SPACE)
        assert e_both <= e_phi + e_psi + 1e-9

    def test_degenerate_band_matches_quadrature(self):
        flat = GParams(1.5, 1.5)
        tg = TimeGrid(1.0, 6400)
        xi = CylinderFunctional(times=(1.0,), payoff=oracles.butterfly,
                                lipschitz_bound=1.0, value_bound=1.0)
        want = oracles.heat_value(oracles.butterfly, 2.25, 1.0, 0.0,
                                  kinks=(-1.0, 0.0, 1.0))
        assert g_expectation(xi, flat, tg, SPACE) == pytest.approx(want, abs=ONE_AXIS_TOL)

    def test_tower_through_the_first_date(self):
        # photograph the two-axis frame at the interior date, stitch its
        # diagonal into a fresh one-date functional, and price that: the
        # value must reproduce the direct two-date expectation
        xi = CylinderFunctional(times=(0.5, 1.0),
                                payoff=lambda a, b: np.abs(b - a),
                                lipschitz_bound=2.0, value_bound=20.0)
        direct = g_expectation(xi, BAND, TIME, SPACE)
        frame = conditional_frames(xi, BAND, SPACE, [0.5], TIME.dt)[0]
        diag = np.einsum("ii->i", frame).copy()
        pts = SPACE.points()
        inner = CylinderFunctional(
            times=(0.5,),
            payoff=lambda x: np.interp(x, pts, diag),
            lipschitz_bound=4.0, value_bound=float(np.max(np.abs(diag))) + 1.0)
        towered = g_expectation(inner, BAND, TimeGrid(0.5, 800), SPACE)
        assert towered == pytest.approx(direct, abs=TWO_AXIS_TOL)


def conditional_value(xi, t, prefix):
    """The value at time ``t`` given the observed values and the current
    position: the frame photographed at ``t``, read at ``prefix``."""
    frame, = conditional_frames(xi, BAND, SPACE, [t], TIME.dt)
    return float(gheat.FramePoints(SPACE, [[v] for v in prefix])(frame)[0])


class TestConditional:
    def test_at_time_zero_matches_unconditional(self):
        xi = functional_b1_squared()
        got = conditional_value(xi, 0.0, (0.0,))
        assert got.hex() == g_expectation(xi, BAND, TIME, SPACE).hex()

    def test_at_the_horizon_evaluates_the_payoff(self):
        # the horizon's frame is the payoff on the mesh, unmarched
        xi = functional_b1_squared()
        got = conditional_value(xi, 1.0, (1.7,))
        assert got == pytest.approx(1.7**2, abs=1e-12)

    @pytest.mark.parametrize("b", [0.0, 1.3, -2.0])
    def test_midlife_value_of_the_square(self, b):
        # remaining variance is var_hi * (T - t)
        xi = functional_b1_squared()
        got = conditional_value(xi, 0.5, (b,))
        assert got == pytest.approx(b * b + 2.0, abs=ONE_AXIS_TOL)

    @pytest.mark.parametrize("a", [-0.7, 0.0, 0.7])
    def test_observed_prefix_drops_out_of_pure_increments(self, a):
        # payoff |B_1 - B_{1/2}| conditioned at the first date: the already
        # observed value must not move the answer
        xi = CylinderFunctional(times=(0.5, 1.0),
                                payoff=lambda u, v: np.abs(v - u),
                                lipschitz_bound=1.5, value_bound=10.0)
        got = conditional_value(xi, 0.5, (a, a))
        assert got == pytest.approx(1.1283791670955126, abs=TWO_AXIS_TOL)

    def test_prefix_arity_is_checked(self):
        # a frame of one axis refuses a point with two coordinates
        with pytest.raises(UsageError, match="does not match 2 located axes"):
            conditional_value(functional_b1_squared(), 0.5, (0.0, 0.0))

    def test_prefix_outside_grid(self):
        with pytest.raises(ExtrapolationError):
            conditional_value(functional_b1_squared(), 0.5, (20.0,))

    def test_conditioning_time_bounds(self):
        with pytest.raises(UsageError, match=r"must lie in \[0, 1\.0\]"):
            conditional_value(functional_b1_squared(), 1.5, (0.0,))

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_record_time_is_named(self, t):
        with pytest.raises(UsageError, match=f"record time {t!r} is not finite"):
            conditional_frames(functional_b1_squared(), BAND, SPACE, [t], TIME.dt)


class TestFrameKernel:
    """The along-path kernel against ``np.interp`` and scipy, bit for bit."""

    GRIDS = (SpaceGrid(-12.0, 12.0, 401), SpaceGrid(-3.7, 5.1, 41),
             SpaceGrid(-1e-3, 7.3, 17))

    @staticmethod
    def points(space_grid, rng, n_random=2000):
        """Random interior points, every node, the floats next to every node
        on both sides (inside the grid), and both ends exactly."""
        pts = space_grid.points()
        special = np.concatenate([
            pts, np.nextafter(pts[1:], -np.inf), np.nextafter(pts[:-1], np.inf),
            [space_grid.x_min, space_grid.x_max]])
        interior = rng.uniform(space_grid.x_min, space_grid.x_max, n_random)
        return rng.permutation(np.concatenate([special, interior]))

    @staticmethod
    def field(shape, rng):
        """Random values with zeros of both signs, so sign bits are tested."""
        f = rng.standard_normal(shape)
        f.flat[::7] = 0.0
        f.flat[3::11] = -0.0
        return f

    @staticmethod
    def assert_bitwise(got, want):
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("space_grid", GRIDS, ids=lambda g: f"{g.n_points}pts")
    def test_located_cell_is_the_half_open_one(self, space_grid):
        pts = space_grid.points()
        x = self.points(space_grid, np.random.default_rng(1))
        j = gheat.locate(pts, x)
        inner = x < space_grid.x_max
        assert np.all(pts[j[inner]] <= x[inner])
        assert np.all(x[inner] < pts[j[inner] + 1])
        assert np.all(j[~inner] == space_grid.n_points - 1)

    @pytest.mark.parametrize("ndim,space_grid", [
        (1, GRIDS[0]), (1, GRIDS[1]), (1, GRIDS[2]),
        (2, GRIDS[0]), (2, GRIDS[1]), (2, GRIDS[2]),
        (3, GRIDS[1]), (3, GRIDS[2]),
    ], ids=lambda v: f"{v.n_points}pts" if isinstance(v, SpaceGrid) else f"{v}d")
    def test_bitwise_equal_to_the_library_routines(self, ndim, space_grid):
        rng = np.random.default_rng(100 * ndim + space_grid.n_points)
        pts = space_grid.points()
        coords = [self.points(space_grid, rng) for _ in range(ndim)]
        at = gheat.FramePoints(space_grid, coords)
        shape = (space_grid.n_points,) * ndim
        # one location serves several fields; an all -0.0 field tests the
        # sign of zero sums
        for frame in (self.field(shape, rng), self.field(shape, rng),
                      np.full(shape, -0.0)):
            want = oracles.eval_frame_reference(frame, pts, coords)
            self.assert_bitwise(at(frame), want)
            self.assert_bitwise(gheat.FramePoints(space_grid, coords)(frame), want)

    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_every_node_of_a_smooth_frame(self, ndim):
        space_grid = self.GRIDS[1]
        pts = space_grid.points()
        mesh = np.meshgrid(*([pts] * ndim), indexing="ij", sparse=True)
        frame = np.sin(sum(mesh)) * np.cos(mesh[-1])
        coords = [np.tile(pts, 3) for _ in range(ndim)]
        coords[-1] = np.repeat(pts, 3)
        self.assert_bitwise(gheat.FramePoints(space_grid, coords)(frame),
                            oracles.eval_frame_reference(frame, pts, coords))

    @pytest.mark.parametrize("ndim", [1, 2, 3])
    @pytest.mark.parametrize("bad", ["below", "above", "nan"])
    def test_points_off_the_grid_are_refused(self, ndim, bad):
        space_grid = self.GRIDS[1]
        value = {"below": np.nextafter(space_grid.x_min, -np.inf),
                 "above": np.nextafter(space_grid.x_max, np.inf),
                 "nan": np.nan}[bad]
        coords = [np.linspace(-1.0, 1.0, 5) for _ in range(ndim)]
        coords[-1] = coords[-1].copy()
        coords[-1][2] = value
        frame = np.zeros((space_grid.n_points,) * ndim)
        with pytest.raises(ExtrapolationError,
                           match=rf"coordinate {ndim - 1} .*"
                                 rf"{re.escape(repr(float(value)))}.*"
                                 r"\[-3\.7, 5\.1\]"):
            gheat.FramePoints(space_grid, coords)(frame)

    def test_located_points_read_the_cached_grid(self, monkeypatch):
        space_grid = SpaceGrid(-3.7, 5.1, 43)     # fresh: nothing cached yet
        built = []
        points = SpaceGrid.points
        monkeypatch.setattr(SpaceGrid, "points",
                            lambda sg: built.append(sg) or points(sg))
        frame = np.arange(space_grid.n_points, dtype=float)
        for x in (-1.0, 0.5, 5.1):
            assert gheat.FramePoints(space_grid, [[x]])(frame)[0] == \
                np.interp(x, points(space_grid), frame)
        assert built == [space_grid]      # one linspace for every location

    def test_field_shape_and_arity_are_checked(self):
        space_grid = self.GRIDS[2]
        coords = [np.zeros(3), np.zeros(3)]
        with pytest.raises(UsageError):
            gheat.FramePoints(space_grid, coords)(np.zeros(space_grid.n_points))
        at = gheat.FramePoints(space_grid, coords)
        with pytest.raises(UsageError):
            at(np.zeros((space_grid.n_points, space_grid.n_points + 1)))


def _signed_zero(a, b):
    # rows a < 0 and a >= 0 are equal as floats but differ in the sign
    # of their zeros
    return np.where(b > 0.0, b, np.copysign(0.0, a))


def _one_ulp(a, b):
    # rows a < 0 carry one more ulp at the first node than rows a >= 0
    return np.where((a < 0.0) & (b == -6.0), np.nextafter(6.0, 7.0), np.abs(b))


class TestOneMarchPerDistinctRow:
    """The nested sweep marches each distinct row of its mesh once; every
    frame stays bitwise the full-mesh sweep of
    ``oracles.nested_sweep_reference``, rows told apart by their bytes."""

    THIRDS = (1 / 3, 2 / 3, 1.0)
    HALVES = (0.5, 1.0)
    CASES = {
        "mean3": (THIRDS, lambda a, b, c: np.abs((a + b + c) / 3.0)),
        "max3": (THIRDS, lambda a, b, c: np.maximum(np.maximum(a, b), c)),
        "max2": (HALVES, np.maximum),
        "increment-abs": (HALVES, lambda a, b: np.abs(b - a)),
        "signed-zero": (HALVES, _signed_zero),
        "one-ulp": (HALVES, _one_ulp),
    }
    SPACE = SpaceGrid(-6.0, 6.0, 41)
    DT = TimeGrid(1.0, 50).dt
    _want: dict = {}

    @staticmethod
    def record_times(times):
        """0, the horizon, every date and a time inside every interval."""
        lower = (0.0,) + times[:-1]
        return sorted({0.0, *times, *((a + b) / 2 for a, b in zip(lower, times))})

    @classmethod
    def want(cls, name):
        if name not in cls._want:
            times, payoff = cls.CASES[name]
            cls._want[name] = oracles.nested_sweep_reference(
                payoff, times, BAND, cls.SPACE.points(), cls.SPACE.dx, cls.DT,
                cls.record_times(times))
        return cls._want[name]

    @pytest.mark.parametrize("one_row_blocks", [False, True],
                             ids=["default-blocks", "one-row-blocks"])
    @pytest.mark.parametrize("name", list(CASES))
    def test_every_frame_is_the_full_mesh_sweep_bitwise(self, monkeypatch,
                                                        name, one_row_blocks):
        if one_row_blocks:
            # gheat sizes the blocks of both the march and the grouping
            monkeypatch.setattr(gheat, "_BLOCK_BYTES", 1)
        times, payoff = self.CASES[name]
        xi = CylinderFunctional(times, payoff, lipschitz_bound=1.0,
                                value_bound=28.0)
        got = conditional_frames(xi, BAND, self.SPACE,
                                 self.record_times(times), self.DT)
        want = self.want(name)
        assert [g.shape for g in got] == [w.shape for w in want]
        for g, w in zip(got, want):
            assert np.array_equal(g.view(np.uint64), w.view(np.uint64))

    @pytest.mark.parametrize("name, marched", [
        ("mean3", [(702, 14641), (121, 121), (1, 1)]),
        ("max3", [(121, 14641), (121, 121), (1, 1)]),
        ("max2", [(121, 121), (1, 1)]),
        ("increment-abs", [(121, 121), (1, 1)]),
        ("signed-zero", [(2, 121), (1, 1)]),
        ("one-ulp", [(2, 121), (1, 1)]),
    ])
    def test_rows_marched_per_interval(self, monkeypatch, name, marched):
        # (distinct rows, mesh rows) per interval from the last; equal
        # where every row is distinct and the mesh is marched in place
        seen = []

        def spy(u):
            rows, inverse = distinct(u)
            seen.append((len(rows), len(inverse)))
            # all distinct: the mesh itself is marched
            assert len(rows) < len(inverse) or np.shares_memory(rows, u)
            return rows, inverse

        distinct = gexp._distinct_rows
        monkeypatch.setattr(gexp, "_distinct_rows", spy)
        times, payoff = self.CASES[name]
        xi = CylinderFunctional(times, payoff, lipschitz_bound=1.0,
                                value_bound=28.0)
        g_expectation(xi, BAND, TimeGrid(1.0, 400), SpaceGrid(-6.0, 6.0, 121))
        assert seen == marched

    @classmethod
    def traced_peak(cls, name, space_grid):
        """Peak traced memory of one ``g_expectation`` whose payoff values on
        the mesh were made before tracing, so the peak is the sweep's own."""
        times, payoff = cls.CASES[name]
        n, x = len(times), space_grid.points()
        values = np.broadcast_to(
            payoff(*np.meshgrid(*([x] * n), indexing="ij", sparse=True)),
            (len(x),) * n).copy()
        xi = CylinderFunctional(
            times, lambda *v: values if v[0].ndim == n else payoff(*v),
            lipschitz_bound=1.0, value_bound=28.0)
        tracemalloc.start()
        try:
            g_expectation(xi, BAND, TimeGrid(1.0, 400), space_grid)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_an_all_distinct_mesh_is_marched_in_place(self):
        # the mesh and the march's two scratch blocks, as before rows were
        # grouped: no copy of the rows and no gather
        space = SpaceGrid(-6.0, 6.0, 121)
        mesh = 8 * 121 ** 2
        block = min(121, gheat._BLOCK_BYTES // (8 * 121)) * 8 * 121
        peak = self.traced_peak("max2", space)
        assert peak <= mesh + 2 * block + 16 * 1024, (peak, mesh)

    def test_a_grouped_mesh_holds_no_second_mesh(self):
        # the mesh, its 702 distinct rows, the inverse index and the key
        # transient: the sort order, the group labels, the first-of-group
        # flags and one block of keys
        space = SpaceGrid(-6.0, 6.0, 121)
        n_rows, row = 121 ** 2, 8 * 121
        mesh = n_rows * row
        index = 8 * n_rows
        transient = 2 * index + n_rows + gheat._BLOCK_BYTES
        peak = self.traced_peak("mean3", space)
        assert peak <= mesh + 702 * row + index + transient + 16 * 1024, \
            (peak, mesh)
