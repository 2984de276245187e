"""Tests for the band heat solver: reference values against quadrature
oracles, scheme structure (monotone, constant-preserving, sublinear), and
the derived fields.

The value-error budget convention is C * (dt + dx^2).  C was calibrated
once on the squared payoff against its closed form x^2 + var_hi * t over
the grids used here (worst observed C was 2.9 on the 401-point reference
grid, dominated by the +/-6*sigma_hi*sqrt(T) domain truncation) and is
frozen below with headroom.
"""

import csv
import tracemalloc

import numpy as np
import pytest

from gbrownian import (
    ConfigurationError,
    GParams,
    SpaceGrid,
    TimeGrid,
    UsageError,
    cfl_dt_max,
    check_cfl,
    export_surface_csv,
    feedback_field,
    pde_residual,
    solve_gheat,
)
from gbrownian import gheat
from gbrownian.errors import ExtrapolationError

import oracles

BAND = GParams(1.0, 2.0)
GRID_BUDGET_C = 5.0

SPACE = SpaceGrid(-6.0, 6.0, 241)
TIME = TimeGrid(1.0, 1600)  # dt = dx^2 / var_hi exactly (CFL-maximal)


def grid_budget(time_grid, space_grid):
    return GRID_BUDGET_C * (time_grid.dt + space_grid.dx**2)


@pytest.fixture(scope="module")
def square_surface():
    return solve_gheat(lambda x: x * x, BAND, TIME, SPACE)


@pytest.fixture(scope="module")
def wide_square_surface():
    # same resolution, twice the domain: the frozen-boundary truncation
    # error is pushed far outside the region the assertions sample
    wide = SpaceGrid(-12.0, 12.0, 481)
    return solve_gheat(lambda x: x * x, BAND, TimeGrid(1.0, 1600), wide)


@pytest.fixture(scope="module")
def butterfly_surface():
    return solve_gheat(oracles.butterfly, BAND, TIME, SPACE)


class TestCfl:
    def test_dt_max(self):
        assert cfl_dt_max(BAND, SPACE) == pytest.approx(SPACE.dx**2 / 4.0)

    def test_check_accepts_the_limit(self):
        check_cfl(BAND, cfl_dt_max(BAND, SPACE), SPACE)

    def test_check_rejects_above_limit(self):
        with pytest.raises(ConfigurationError):
            check_cfl(BAND, 1.01 * cfl_dt_max(BAND, SPACE), SPACE)

    def test_solve_enforces_cfl(self):
        with pytest.raises(ConfigurationError):
            solve_gheat(lambda x: x * x, BAND, TimeGrid(1.0, 100), SPACE)


class TestSolveGheat:
    def test_convex_square_hits_upper_variance(self, square_surface):
        # E[B_1^2] must come out at var_hi * T.
        assert square_surface.value(1.0, 0.0) == pytest.approx(4.0, rel=0.01)

    def test_concave_square_hits_lower_variance(self):
        surf = solve_gheat(lambda x: -x * x, BAND, TIME, SPACE)
        assert surf.value(1.0, 0.0) == pytest.approx(-1.0, rel=0.01)

    def test_square_surface_against_closed_form(self, wide_square_surface):
        budget = grid_budget(TIME, SPACE)
        for t in (0.25, 0.5, 1.0):
            for x in (-2.0, -0.5, 0.0, 1.0, 2.5):
                assert wide_square_surface.value(t, x) == pytest.approx(
                    oracles.quadratic_surface(t, x, 4.0), abs=budget)

    def test_truncation_error_shows_up_near_the_boundary(self, square_surface,
                                                         wide_square_surface):
        # the narrow domain's frozen boundary bites at late times; the wide
        # one doesn't — this pins down why the 1% tolerances exist
        narrow = square_surface.value(1.0, 2.5)
        wide = wide_square_surface.value(1.0, 2.5)
        assert abs(wide - 10.25) < 1e-4
        assert abs(narrow - 10.25) > 1e-2

    def test_constant_payoff_is_exact_fixed_point(self):
        surf = solve_gheat(lambda x: np.full_like(x, 2.5), BAND,
                           TimeGrid(1.0, 1600), SPACE)
        np.testing.assert_array_equal(surf.values, 2.5)

    def test_linear_payoff_is_a_fixed_point(self):
        surf = solve_gheat(lambda x: x, BAND, TIME, SPACE)
        want = np.broadcast_to(SPACE.points(), surf.values.shape)
        np.testing.assert_allclose(surf.values, want, atol=1e-11)

    def test_first_row_is_the_payoff(self, square_surface):
        np.testing.assert_array_equal(square_surface.values[0],
                                      SPACE.points() ** 2)

    def test_convex_payoff_matches_constant_upper_vol(self):
        # strike away from the origin; the call stays convex so the band
        # solver must agree with plain quadrature at var_hi
        tg, sg = TimeGrid(0.5, 800), SPACE
        surf = solve_gheat(lambda x: np.maximum(x - 0.5, 0.0), BAND, tg, sg)
        budget = grid_budget(tg, sg)
        for x in (-1.0, 0.0, 0.5, 1.5):
            want = oracles.heat_value(lambda z: np.maximum(z - 0.5, 0.0),
                                      4.0, 0.5, x, kinks=(0.5,))
            assert surf.value(0.5, x) == pytest.approx(want, abs=budget)

    def test_band_tent_against_independent_solver(self, butterfly_surface):
        # cross-check of the genuinely nonlinear case against a separate
        # coarse implementation; both carry their own grid budget
        got = butterfly_surface.value(1.0, 0.0)
        assert got == pytest.approx(oracles.BUTTERFLY_BAND_VALUE, abs=2e-3)

    def test_degenerate_band_reproduces_classical_heat(self):
        flat = GParams(1.5, 1.5)
        tg = TimeGrid(1.0, 1600 * 4)  # CFL for var = 2.25 on the 241-point grid
        surf = solve_gheat(oracles.butterfly, flat, tg, SPACE)
        budget = grid_budget(tg, SPACE)
        for x in (0.0, 0.8, -1.5):
            want = oracles.heat_value(oracles.butterfly, 2.25, 1.0, x,
                                      kinks=(-1.0, 0.0, 1.0))
            assert surf.value(1.0, x) == pytest.approx(want, abs=budget)

    def test_monotone_in_the_data(self):
        rng = np.random.default_rng(31)
        tg = TimeGrid(0.25, 400)
        for _ in range(5):
            lo_data = rng.uniform(-1, 1, size=SPACE.n_points)
            hi_data = lo_data + rng.uniform(0, 1, size=SPACE.n_points)
            lo = solve_gheat(lo_data, BAND, tg, SPACE)
            hi = solve_gheat(hi_data, BAND, tg, SPACE)
            assert np.all(hi.values >= lo.values - 1e-12)

    def test_sublinear_across_solves(self):
        rng = np.random.default_rng(37)
        tg = TimeGrid(0.25, 400)
        phi = rng.uniform(-1, 1, size=SPACE.n_points)
        psi = rng.uniform(-1, 1, size=SPACE.n_points)
        u_sum = solve_gheat(phi + psi, BAND, tg, SPACE)
        u_phi = solve_gheat(phi, BAND, tg, SPACE)
        u_psi = solve_gheat(psi, BAND, tg, SPACE)
        assert np.all(u_sum.values <= u_phi.values + u_psi.values + 1e-12)

    def test_positively_homogeneous(self):
        rng = np.random.default_rng(41)
        tg = TimeGrid(0.25, 400)
        phi = rng.uniform(-1, 1, size=SPACE.n_points)
        u1 = solve_gheat(phi, BAND, tg, SPACE)
        u3 = solve_gheat(3.0 * phi, BAND, tg, SPACE)
        np.testing.assert_allclose(u3.values, 3.0 * u1.values, atol=1e-12)

    def test_rejects_non_finite_payoff(self):
        bad = np.full(SPACE.n_points, np.nan)
        with pytest.raises(UsageError):
            solve_gheat(bad, BAND, TIME, SPACE)

    def test_every_row_is_the_reference_march(self, butterfly_surface):
        # row i is the data row after i steps of the whole-array reference
        row = oracles.butterfly(SPACE.points())
        for i, got in enumerate(butterfly_surface.values):
            if i > 0:
                oracles.march_steps_reference(row, BAND, TIME.dt, 1, SPACE.dx)
            assert np.array_equal(got.view(np.uint64), row.view(np.uint64)), i



def _kinked_rows(leading, kink, width=SPACE.n_points):
    """Payoff ``kink(mean of coordinates)`` on a mesh whose last axis is
    the space grid's span at ``width`` points and whose leading axes carry
    coarser grids."""
    axes = [np.linspace(-2.0, 2.0, k) for k in leading]
    axes.append(np.linspace(SPACE.x_min, SPACE.x_max, width))
    mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
    return np.asarray(kink(sum(mesh) / len(mesh)), dtype=float)


KINKS = {
    "max": lambda m: np.maximum(m, 0.0),
    "-max": lambda m: -np.maximum(m, 0.0),
    "abs_mean": np.abs,
}


def _negative_tent(kink):
    """``-tent(m) * (1 + |kink(m)|)``: -0.0 wherever |m| >= 1, so with one
    leading axis every row starts and ends in a flat run of -0.0."""
    return lambda m: -np.maximum(1.0 - np.abs(m), 0.0) * (1.0 + np.abs(kink(m)))


def _alternating_1e300(u):
    u = 1e300 * (1.0 + np.abs(u))
    u[1::2] *= -1.0
    return u


# Row sets for the kernel: (leading shape, row width, recast of the kink,
# recast of the rows).  The flat march reads across the seam between two
# rows, so the narrow widths make every lane a seam lane or a neighbour of
# one; 8192 rows of width 4 fill one block, so 9000 end on a partial one.
ROW_SETS = [
    pytest.param((), 241, None, None, id="leading0"),
    pytest.param((300,), 241, None, None, id="leading1"),
    pytest.param((3, 50), 241, None, None, id="leading2"),
    pytest.param((40,), 3, None, None, id="width3"),
    pytest.param((40,), 4, None, None, id="width4"),
    pytest.param((3, 3000), 4, None, None, id="partial-block-width4"),
    pytest.param((60,), 241, _negative_tent, None, id="negative-zero-edges"),
    pytest.param((60,), 241, None, _alternating_1e300, id="alternating-1e300"),
]


def _row_set(leading, width, recast_kink, recast_rows, kink):
    u = _kinked_rows(leading, recast_kink(kink) if recast_kink else kink, width)
    return recast_rows(u) if recast_rows else u


def _bits(a):
    """The array's bit patterns: equal bits, signed zeros included."""
    return np.ascontiguousarray(a).view(np.int64)


class TestMarchSteps:
    """The blocked kernel against the whole-array reference loop.

    At 241 points one block holds 135 rows, so the 300- and 150-row
    shapes end on a partial block.
    """

    DT, DX = TIME.dt, SPACE.dx

    @pytest.mark.parametrize("leading, width, recast_kink, recast_rows", ROW_SETS)
    @pytest.mark.parametrize("kink", sorted(KINKS))
    @pytest.mark.parametrize("n", [0, 1, 400])
    def test_bitwise_equal_to_the_reference(self, leading, width, recast_kink,
                                            recast_rows, kink, n):
        # var_lo = 0.25 rounds the lower-edge products that var_lo = 1 keeps
        # exact; the same var_hi keeps DT CFL-maximal
        u0 = _row_set(leading, width, recast_kink, recast_rows, KINKS[kink])
        for band in (BAND, GParams(0.5, 2.0)):
            expect = oracles.march_steps_reference(u0.copy(), band, self.DT, n,
                                                   self.DX)
            u = u0.copy()
            assert gheat.march_steps(u, band, self.DT, n, self.DX) is u
            assert np.array_equal(_bits(u), _bits(expect))
            assert np.array_equal(_bits(u[..., [0, -1]]), _bits(u0[..., [0, -1]]))
            if n > 0:
                assert not np.array_equal(u, u0)

    @pytest.mark.parametrize("leading, width, recast_kink, recast_rows", ROW_SETS)
    def test_result_does_not_depend_on_the_block(self, leading, width, recast_kink,
                                                 recast_rows, monkeypatch):
        u0 = _row_set(leading, width, recast_kink, recast_rows, KINKS["abs_mean"])
        expect = oracles.march_steps_reference(u0.copy(), BAND, self.DT, 57, self.DX)
        monkeypatch.setattr(gheat, "_BLOCK_BYTES", 1)  # one row per block
        u = gheat.march_steps(u0.copy(), BAND, self.DT, 57, self.DX)
        assert np.array_equal(_bits(u), _bits(expect))

    @pytest.mark.parametrize("leading, width, recast_kink, recast_rows", ROW_SETS)
    def test_hook_sees_every_step_of_the_reference(self, leading, width,
                                                   recast_kink, recast_rows,
                                                   monkeypatch):
        # with a hook all rows march as one run, whatever the block size;
        # the hook forces every other row, and its write carries into the
        # next step
        u0 = _row_set(leading, width, recast_kink, recast_rows, KINKS["abs_mean"])
        monkeypatch.setattr(gheat, "_BLOCK_BYTES", 1)  # one row per block
        n, seen = 9, []

        def hook(i, rows):
            seen.append((i, rows.copy()))
            rows[::2] += self.DT * i

        u = u0.copy()
        assert gheat.march_steps(u, BAND, self.DT, n, self.DX, hook) is u
        assert [i for i, _ in seen] == list(range(n + 1))
        expect = u0.reshape(-1, width).copy()
        for i, rows in seen:
            if i > 0:
                oracles.march_steps_reference(expect, BAND, self.DT, 1, self.DX)
            assert np.array_equal(_bits(rows), _bits(expect)), i
            expect[::2] += self.DT * i
        assert np.array_equal(_bits(u.reshape(-1, width)), _bits(expect))

    def test_refuses_views_that_need_a_copy(self):
        # strided rows of a 2-D array, and leading axes that cannot be
        # viewed as rows at all
        for leading in ((40,), (4, 3)):
            big = _kinked_rows(leading, KINKS["max"])
            u0 = big.copy()
            with pytest.raises(UsageError, match="u of shape"):
                gheat.march_steps(big[::2], BAND, self.DT, 5, self.DX)
            assert np.array_equal(big, u0)


class TestStencils:
    """The one gradient and curvature against plain per-node loops."""

    @pytest.mark.parametrize("shape", [(3,), (241,), (5, 3), (7, 241), (2, 3, 17)])
    def test_bitwise_equal_to_the_reference(self, shape):
        u = np.random.default_rng(sum(shape)).normal(size=shape)
        for stencil, reference in ((gheat.gradient, oracles.gradient_reference),
                                   (gheat.curvature, oracles.curvature_reference)):
            got = stencil(u, SPACE.dx)
            assert got.shape == u.shape
            assert np.array_equal(got, reference(u, SPACE.dx))


class TestValueSurface:
    def test_value_at_nodes(self, square_surface):
        i = TIME.index_of(0.5)
        j = 120  # x = 0
        assert square_surface.value(0.5, 0.0) == pytest.approx(
            square_surface.values[i, j], abs=1e-14)

    @pytest.mark.parametrize("t, row", [(0.0, 0), (0.5, 2), (1.0, -1)],
                             ids=["first", "inner", "last"])
    def test_value_on_a_node_reads_the_row(self, t, row):
        # a row of -0.0 keeps its sign: the row is read, not blended
        values = np.ones((5, 5))
        values[row] = -0.0
        surface = gheat.ValueSurface(BAND, TimeGrid(1.0, 4),
                                     SpaceGrid(-1.0, 1.0, 5), values)
        got = surface.value(t, 0.0)
        want = gheat.FramePoints(surface.space_grid, [[0.0]])(values[row])[0]
        assert got.hex() == want.hex() == (-0.0).hex()

    def test_refuses_to_extrapolate(self, square_surface):
        with pytest.raises(ExtrapolationError):
            square_surface.value(1.5, 0.0)
        with pytest.raises(ExtrapolationError):
            square_surface.value(0.5, 6.5)
        for t, x in ((np.nan, 0.0), (0.5, np.nan)):
            with pytest.raises(ExtrapolationError):
                square_surface.value(t, x)

    def test_refuses_a_time_between_nodes(self, square_surface):
        with pytest.raises(UsageError, match="not a node"):
            square_surface.value(0.5 + 0.4 * TIME.dt, 0.0)
        # within the grid's 1e-9 tolerance the node's row is read
        on_node = square_surface.value(0.5, 0.0)
        assert square_surface.value(0.5 + 1e-12, 0.0) == on_node


def _fields(surface):
    """(du_dt, du_dx, d2u_dx2): the one-sided time difference the scheme
    advances with (one row short) and the two space stencils."""
    u, dx = surface.values, surface.space_grid.dx
    return (np.diff(u, axis=0) / surface.time_grid.dt,
            gheat.gradient(u, dx), gheat.curvature(u, dx))


class TestDerivativeFields:
    def test_square_surface_fields(self, wide_square_surface):
        du_dt, du_dx, d2u = _fields(wide_square_surface)
        xs = wide_square_surface.space_grid.points()
        mid = (np.abs(xs) <= 2.0)
        rows = slice(0, TIME.n_steps)  # one-sided forward difference rows
        sub = du_dx[rows, :][:, mid]
        np.testing.assert_allclose(sub, np.broadcast_to(2.0 * xs[mid], sub.shape),
                                   atol=1e-3)
        np.testing.assert_allclose(d2u[rows, :][:, mid], 2.0, atol=1e-3)
        np.testing.assert_allclose(du_dt[rows, :][:, mid], 4.0, atol=1e-2)

    def test_linear_payoff_has_flat_fields(self):
        surf = solve_gheat(lambda x: x, BAND, TimeGrid(0.25, 400), SPACE)
        du_dt, du_dx, d2u = _fields(surf)
        np.testing.assert_allclose(d2u[:, 1:-1], 0.0, atol=1e-9)
        np.testing.assert_allclose(du_dt[:, 1:-1], 0.0, atol=1e-9)
        np.testing.assert_allclose(du_dx[:, 1:-1], 1.0, atol=1e-9)

    def test_butterfly_interior_residual(self, butterfly_surface):
        resid = pde_residual(butterfly_surface)
        assert np.max(np.abs(resid)) <= 10.0 * (TIME.dt + SPACE.dx**2)


class TestPdeResidual:
    """The row-blocked residual against the whole-surface formula."""

    @pytest.mark.parametrize("rows", [None, 1, 7])
    @pytest.mark.parametrize("reverse", [False, True],
                             ids=["forward", "reversed"])
    def test_row_blocks_change_no_bits(self, butterfly_surface, rows, reverse,
                                       monkeypatch):
        # any view of the values, a reversed one too
        if rows is not None:
            monkeypatch.setattr(gheat, "_BLOCK_BYTES",
                                8 * SPACE.n_points * rows)
        values = butterfly_surface.values[::-1] if reverse \
            else butterfly_surface.values
        surface = gheat.ValueSurface(BAND, TIME, SPACE, values)
        got = pde_residual(surface)
        want = oracles.pde_residual_reference(values, BAND, TIME.dt, SPACE.dx)
        assert got.shape == (TIME.n_steps, SPACE.n_points - 2)
        assert np.array_equal(_bits(got), _bits(want))

    def test_peak_is_the_result_plus_one_blocks_scratch(
            self, butterfly_surface, monkeypatch):
        block = 8 * SPACE.n_points * 50     # 32 blocks of the 1601-row surface
        monkeypatch.setattr(gheat, "_BLOCK_BYTES", block)
        tracemalloc.start()
        try:
            resid = pde_residual(butterfly_surface)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one block's curvature, its G and the stencil's temporaries; the
        # whole-surface formula peaked at the result plus two surfaces
        assert peak <= resid.nbytes + 5 * block, (peak, resid.nbytes)


class TestFeedbackField:
    def test_convex_payoff_runs_at_the_top(self, square_surface):
        np.testing.assert_array_equal(feedback_field(square_surface), True)

    def test_concave_payoff_runs_at_the_bottom(self):
        surf = solve_gheat(lambda x: -x * x, BAND, TIME, SPACE)
        np.testing.assert_array_equal(feedback_field(surf), False)

    def test_tent_field_follows_the_curvature_sign(self, butterfly_surface):
        mask = feedback_field(butterfly_surface)
        assert mask.dtype == bool and mask.any() and not mask.all()
        v = butterfly_surface.values
        second = v[:, 2:] - 2.0 * v[:, 1:-1] + v[:, :-2]
        np.testing.assert_array_equal(mask[:, 1:-1], second >= 0.0)

    @pytest.mark.parametrize("rows", [None, 1, 7])
    def test_row_blocks_change_no_bits(self, butterfly_surface, rows,
                                       monkeypatch):
        if rows is not None:
            monkeypatch.setattr(gheat, "_BLOCK_BYTES",
                                8 * SPACE.n_points * rows)
        c = gheat.curvature(butterfly_surface.values, SPACE.dx)
        mask = feedback_field(butterfly_surface)
        assert mask.dtype == bool and np.array_equal(mask, c >= 0.0)
        # mapped as the feedback driver maps it: the bang-bang rule's
        # floats, ties at the upper edge, bitwise
        levels = np.where(mask, BAND.sigma_hi, BAND.sigma_lo)
        whole = np.where(c >= 0.0, BAND.sigma_hi, BAND.sigma_lo)
        assert levels.dtype == whole.dtype and np.array_equal(levels, whole)

    def test_peak_is_the_field_plus_one_blocks_scratch(
            self, butterfly_surface, monkeypatch):
        block = 8 * SPACE.n_points * 50     # 32 blocks of the 1601-row surface
        monkeypatch.setattr(gheat, "_BLOCK_BYTES", block)
        tracemalloc.start()
        try:
            field = feedback_field(butterfly_surface)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one block's scratch: its curvature and the stencil's temporaries,
        # at most five block-sized arrays; the whole-surface field peaked at
        # the field plus two surfaces
        assert peak <= field.nbytes + 5 * block, (peak, field.nbytes)


class TestExport:
    def test_csv_round_trip(self, square_surface, tmp_path):
        path = tmp_path / "surface.csv"
        n_rows = export_surface_csv(square_surface, path, time_stride=400)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "x", "u", "du_dx", "d2u_dx2"]
        assert len(rows) - 1 == n_rows
        t, x, u = (float(rows[1][k]) for k in range(3))
        assert (t, x) == (0.0, -6.0)
        assert u == pytest.approx(36.0)

    def test_stride_must_be_positive(self, square_surface, tmp_path):
        with pytest.raises(UsageError):
            export_surface_csv(square_surface, tmp_path / "s.csv", time_stride=0)

    def test_stride_must_be_an_integer(self, square_surface, tmp_path):
        # range would raise a bare TypeError for a float
        with pytest.raises(UsageError, match="time_stride .* got 2.5"):
            export_surface_csv(square_surface, tmp_path / "s.csv",
                               time_stride=2.5)

    def test_stride_must_not_be_a_bool(self, square_surface, tmp_path):
        # range would read True as 1
        with pytest.raises(UsageError, match="time_stride .* got True"):
            export_surface_csv(square_surface, tmp_path / "s.csv",
                               time_stride=True)
