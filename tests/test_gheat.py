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
    derivative_fields,
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

    def test_data_layer_is_the_payoff(self, square_surface):
        np.testing.assert_array_equal(square_surface.data_layer,
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



def _kinked_rows(leading, kink):
    """Payoff ``kink(mean of coordinates)`` on a mesh whose last axis is
    the space grid and whose leading axes carry coarser grids."""
    axes = [np.linspace(-2.0, 2.0, k) for k in leading] + [SPACE.points()]
    mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
    return np.asarray(kink(sum(mesh) / len(mesh)), dtype=float)


KINKS = {
    "max": lambda m: np.maximum(m, 0.0),
    "-max": lambda m: -np.maximum(m, 0.0),
    "abs_mean": np.abs,
}


class TestMarchSteps:
    """The blocked kernel against the whole-array reference loop.

    At 241 points one block holds 135 rows, so the 300- and 150-row
    shapes end on a partial block.
    """

    DT, DX = TIME.dt, SPACE.dx

    @pytest.mark.parametrize("leading", [(), (300,), (3, 50)])
    @pytest.mark.parametrize("kink", sorted(KINKS))
    @pytest.mark.parametrize("n", [0, 1, 400])
    def test_bitwise_equal_to_the_reference(self, leading, kink, n):
        u0 = _kinked_rows(leading, KINKS[kink])
        expect = oracles.march_steps_reference(u0.copy(), BAND, self.DT, n, self.DX)
        u = u0.copy()
        assert gheat.march_steps(u, BAND, self.DT, n, self.DX) is u
        assert np.array_equal(u, expect)
        assert np.array_equal(u[..., [0, -1]], u0[..., [0, -1]])
        if n > 0:
            assert not np.array_equal(u, u0)

    @pytest.mark.parametrize("leading", [(), (300,), (3, 50)])
    def test_result_does_not_depend_on_the_block(self, leading, monkeypatch):
        u0 = _kinked_rows(leading, KINKS["abs_mean"])
        expect = oracles.march_steps_reference(u0.copy(), BAND, self.DT, 57, self.DX)
        monkeypatch.setattr(gheat, "_BLOCK_BYTES", 1)  # one row per block
        u = gheat.march_steps(u0.copy(), BAND, self.DT, 57, self.DX)
        assert np.array_equal(u, expect)

    def test_strided_rows_are_updated_in_place(self):
        big = _kinked_rows((40,), KINKS["max"])
        u0 = big.copy()
        gheat.march_steps(big[::2], BAND, self.DT, 25, self.DX)
        expect = oracles.march_steps_reference(u0[::2].copy(), BAND, self.DT, 25, self.DX)
        assert np.array_equal(big[::2], expect)
        assert np.array_equal(big[1::2], u0[1::2])

    def test_refuses_views_that_need_a_copy(self):
        big = _kinked_rows((4, 3), KINKS["max"])
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

    def test_derivative_fields_use_them(self, butterfly_surface):
        _, du_dx, d2u = derivative_fields(butterfly_surface)
        u, dx = butterfly_surface.values, SPACE.dx
        assert np.array_equal(du_dx, oracles.gradient_reference(u, dx))
        assert np.array_equal(d2u, oracles.curvature_reference(u, dx))


class TestValueSurface:
    def test_value_at_nodes(self, square_surface):
        i = TIME.index_of(0.5)
        j = 120  # x = 0
        assert square_surface.value(0.5, 0.0) == pytest.approx(
            square_surface.values[i, j], abs=1e-14)

    def test_value_interpolates_bilinearly(self, square_surface):
        tg, sg = TIME, SPACE
        t = 0.5 + 0.4 * tg.dt
        x = 0.25 + 0.5 * sg.dx
        i, j = tg.index_of(0.5), int(round((0.25 - sg.x_min) / sg.dx))
        v = square_surface.values
        row = 0.6 * v[i] + 0.4 * v[i + 1]
        want = 0.5 * row[j] + 0.5 * row[j + 1]
        assert square_surface.value(t, x) == pytest.approx(want, abs=1e-13)

    def test_refuses_to_extrapolate(self, square_surface):
        with pytest.raises(ExtrapolationError):
            square_surface.value(1.5, 0.0)
        with pytest.raises(ExtrapolationError):
            square_surface.value(0.5, 6.5)


class TestDerivativeFields:
    def test_square_surface_fields(self, wide_square_surface):
        du_dt, du_dx, d2u = derivative_fields(wide_square_surface)
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
        du_dt, du_dx, d2u = derivative_fields(surf)
        np.testing.assert_allclose(d2u[:, 1:-1], 0.0, atol=1e-9)
        np.testing.assert_allclose(du_dt[:-1, 1:-1], 0.0, atol=1e-9)
        np.testing.assert_allclose(du_dx[:, 1:-1], 1.0, atol=1e-9)

    def test_butterfly_interior_residual(self, butterfly_surface):
        resid = pde_residual(butterfly_surface)
        assert np.max(np.abs(resid)) <= 10.0 * (TIME.dt + SPACE.dx**2)

    def test_backward_residual_reads_the_later_row(self, butterfly_surface):
        # the reversed forward surface is the zero-driver backward sweep,
        # whose row i was marched from the curvature of row i+1
        backward = gheat.ValueSurface(BAND, TIME, SPACE,
                                      butterfly_surface.values[::-1], "backward")
        resid = pde_residual(backward)
        assert np.array_equal(resid, -pde_residual(butterfly_surface)[::-1])
        scale = max(1.0, float(np.max(np.abs(backward.values))))
        assert np.max(np.abs(resid)) <= 1e-9 * scale


class TestFeedbackField:
    def test_convex_payoff_runs_at_the_top(self, square_surface):
        field = feedback_field(square_surface)
        np.testing.assert_array_equal(field, 2.0)

    def test_concave_payoff_runs_at_the_bottom(self):
        surf = solve_gheat(lambda x: -x * x, BAND, TIME, SPACE)
        np.testing.assert_array_equal(feedback_field(surf), 1.0)

    def test_tent_field_follows_the_curvature_sign(self, butterfly_surface):
        field = feedback_field(butterfly_surface)
        assert set(np.unique(field)) == {1.0, 2.0}
        v = butterfly_surface.values
        second = v[:, 2:] - 2.0 * v[:, 1:-1] + v[:, :-2]
        want = np.where(second >= 0.0, 2.0, 1.0)
        np.testing.assert_array_equal(field[:, 1:-1], want)


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
