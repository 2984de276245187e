"""Backward equations driven by the band generator along cylinder paths.

The scheme solves the terminal-value problem

    D_t u + G(D2_x u) + f(t, u, D_x u) = 0,   u(T, .) = payoff,

by explicit backward marching on a space grid: ``gheat.sweep_rows``, the
forward solver's loop, runs over the reversed rows, so each row is one
``march_steps`` step of the later row, then ``+ dt * f`` on that row
(G itself comes from ``core``).  The guards are the
CFL bound ``dt <= dx^2 / var_hi`` and the driver step bound
``dt * L * (1 + 1/dx) <= 0.5``, L the declared Lipschitz constant.  They
do not make the scheme monotone: ``f = -y`` on the CFL-maximal grid
passes both with centre weight about -1e-4.  From the solved surface the
backward-equation triple is read off:

    Y_t = u(t, B_t),
    Z_t = D_x u(t, B_t),
    K_t = 0.5 * integral(D2_x u d qv) - integral(G(D2_x u) dt),

with ``K_0 = 0`` and K non-increasing pathwise.  The triple comes from
``ito.eval_on_paths``, the walk that also decomposes conditional values
along paths, so both read K off one ledger and interpolate with
``gheat.FramePoints``.  The pair
(surface solves the equation) <-> (triple satisfies the backward relation
``Y_t = xi + integral_t^T f - integral_t^T Z dB - (K_T - K_t)``) is
checked in both directions by :func:`equivalence_check`.

Only Markovian data are in scope: a single-date terminal functional and a
driver ``f(t, y, z)``.  General cylinder drivers raise
:class:`CapabilityError`.

Cylinder path processes (piecewise-smooth functionals of time, the
observed path values, and the current position) and their finite-
difference derivatives live here too; they give the pathwise differential
operators meaning independently of any solver.  The derivatives are the
solvers' own ``gheat.gradient`` and ``gheat.curvature``, applied to
3-point stencils of the process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import CylinderFunctional, GParams, SpaceGrid, TimeGrid, g_value, running_sum
from .errors import CapabilityError, ConfigurationError, UsageError
from .gheat import ValueSurface, curvature, gradient, pde_residual, sweep_rows
from .mc import PathBundle, _path_blocks
from .ito import check_paths_inside, eval_on_paths, integral_steps


# ---------------------------------------------------------------------------
# cylinder path processes and pathwise derivatives
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CylinderPathProcess:
    """Piecewise-smooth functional of (time, observed values, position).

    ``times`` are the monitoring dates (last one is the horizon); piece k
    covers ``[boundary_k, boundary_{k+1}]`` with ``boundary_0 = 0`` and is
    a callable ``u_k(t, x_1, ..., x_k, x)`` — k observed values plus the
    current position.  Pieces must agree where intervals meet after the
    newly observed value is identified with the current position; this is
    spot-checked on a seeded sample at construction.
    """

    times: tuple
    pieces: tuple
    name: str = ""

    def __post_init__(self) -> None:
        times = tuple(float(t) for t in self.times)
        if len(times) == 0 or not all(0.0 < t < math.inf for t in times) or any(
                b <= a for a, b in zip(times, times[1:])):
            raise UsageError("times must be finite, strictly increasing and > 0")
        if len(self.pieces) != len(times):
            raise UsageError(
                f"need one piece per interval: {len(times)} intervals, "
                f"{len(self.pieces)} pieces"
            )
        object.__setattr__(self, "times", times)
        self._stitch_check()

    @property
    def horizon(self) -> float:
        return self.times[-1]

    def _stitch_check(self) -> None:
        rng = np.random.default_rng(48302)
        for k in range(len(self.pieces) - 1):
            tau = self.times[k]
            pts = rng.uniform(-3.0, 3.0, size=(16, k + 1))
            args = [pts[:, j] for j in range(k + 1)]
            left = np.asarray(self.pieces[k](tau, *args), dtype=float)
            right = np.asarray(self.pieces[k + 1](tau, *args, args[-1]), dtype=float)
            if not np.allclose(left, right, rtol=1e-8, atol=1e-10):
                raise UsageError(
                    f"pieces {k} and {k + 1} disagree at their shared date "
                    f"t={tau}; max gap {float(np.max(np.abs(left - right)))!r}"
                )

    def piece_index(self, t: float) -> int:
        tol = 1e-12 * max(1.0, self.horizon)
        if t < -tol or t > self.horizon + tol:
            raise UsageError(f"t={t!r} outside [0, {self.horizon}]")
        # t == boundary belongs to the opening interval (pre-observation
        # frames), matching the conditional-value convention
        k = sum(1 for ti in self.times[:-1] if ti <= t + tol)
        return min(k, len(self.pieces) - 1)

    def value(self, t: float, prefix) -> float:
        k = self.piece_index(t)
        prefix = [float(v) for v in prefix]
        if len(prefix) != k + 1:
            raise UsageError(
                f"prefix needs {k + 1} entries at t={t} (observed + current), "
                f"got {len(prefix)}"
            )
        return float(self.pieces[k](t, *prefix))


def cylinder_derivatives(proc: CylinderPathProcess, t: float, prefix,
                         step: float = 1e-4) -> tuple:
    """Central-difference (D_t, D_x, D2_x) of a cylinder path process.

    Derivatives act on the time slot and the current-position slot only;
    the observed values are frozen.  Steps are relative:
    ``h = step * max(1, |coordinate|)``.  The differences are
    :func:`gheat.gradient` and :func:`gheat.curvature` at the centre of
    3-point stencils in t and in x that share the centre value.  Near an
    interval boundary the interval's own (smooth) formula is evaluated
    slightly across — pieces are formulas on all of R, only their
    probabilistic meaning is local.
    """
    k = proc.piece_index(t)
    prefix = [float(v) for v in prefix]
    if len(prefix) != k + 1:
        raise UsageError(f"prefix needs {k + 1} entries at t={t}")
    u = proc.pieces[k]
    observed, x = prefix[:-1], prefix[-1]
    ht = step * max(1.0, abs(t))
    hx = step * max(1.0, abs(x))
    centre = u(t, *observed, x)
    in_t = np.array([u(t - ht, *observed, x), centre, u(t + ht, *observed, x)],
                    dtype=float)
    in_x = np.array([u(t, *observed, x - hx), centre, u(t, *observed, x + hx)],
                    dtype=float)
    return (float(gradient(in_t, ht)[1]), float(gradient(in_x, hx)[1]),
            float(curvature(in_x, hx)[1]))


def a_g(proc: CylinderPathProcess, t: float, prefix, band: GParams,
        step: float = 1e-4) -> float:
    """Generator action ``D_t u + G(D2_x u)`` at one point."""
    d_t, _, d2_x = cylinder_derivatives(proc, t, prefix, step)
    return d_t + g_value(band, d2_x)


# ---------------------------------------------------------------------------
# backward problems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GBSDEProblem:
    """Terminal functional + driver + band.

    ``driver(t, y, z)`` must be vectorised in (y, z); ``driver_lipschitz``
    is the caller's Lipschitz bound in (y, z).  It is used only in the step
    bound ``dt * driver_lipschitz * (1 + 1/dx) <= 0.5``, which is not a
    monotonicity condition (see the module docstring).  The terminal
    functional must monitor a single date (Markovian scope); richer
    terminals raise :class:`CapabilityError`.
    """

    terminal: CylinderFunctional
    driver: object
    band: GParams
    driver_lipschitz: float = 0.0
    name: str = ""

    def __post_init__(self) -> None:
        if self.terminal.n_times != 1:
            raise CapabilityError(
                "only Markovian terminal data (one monitoring date) are "
                "supported by the backward solvers"
            )
        if self.driver_lipschitz < 0.0:
            raise ConfigurationError("driver_lipschitz must be >= 0")

    @property
    def horizon(self) -> float:
        return self.terminal.horizon


def _check_driver_stability(problem: GBSDEProblem, dt: float, dx: float) -> None:
    growth = dt * problem.driver_lipschitz * (1.0 + 1.0 / dx)
    if growth > 0.5:
        raise ConfigurationError(
            f"explicit driver step too large: dt * L * (1 + 1/dx) = "
            f"{growth!r} > 0.5; refine the time grid"
        )


@dataclass(frozen=True, eq=False)
class GBSDESolution:
    """Solved backward surface; its derivative field is derived on first read."""

    problem: GBSDEProblem
    time_grid: TimeGrid
    space_grid: SpaceGrid
    y_values: np.ndarray     # (n_steps + 1, n_points), row i at time t_i

    @cached_property
    def z_values(self) -> np.ndarray:     # same shape, D_x of y
        return gradient(self.y_values, self.space_grid.dx)

    def y_surface(self) -> ValueSurface:
        return ValueSurface(self.problem.band, self.time_grid, self.space_grid,
                            self.y_values, "backward", self.problem.name)

    def _stride_for(self, bundle: PathBundle) -> int:
        bundle.time_grid.require_horizon(self.time_grid.horizon, "solution")
        ratio = self.time_grid.n_steps / bundle.time_grid.n_steps
        stride = int(round(ratio))
        if abs(ratio - stride) > 1e-9 or stride < 1:
            raise UsageError(
                f"bundle grid ({bundle.time_grid.n_steps} steps) must divide "
                f"the solution grid ({self.time_grid.n_steps} steps)"
            )
        return stride

    def paths_view(self, bundle: PathBundle) -> tuple:
        """(Y, Z, K) along the bundle's paths at the bundle's nodes, each
        ``(n_paths, n_nodes)`` and time-major like the bundle's paths: the
        peak is the three outputs plus a few rows of one value per path
        (see :func:`ito.eval_on_paths`)."""
        return self._walk(bundle)(slice(None))

    def _walk(self, bundle: PathBundle):
        """The checked walk along ``bundle``: a function of a path slice
        that returns (Y, Z, K) on those paths."""
        if bundle.band != self.problem.band:
            raise UsageError("bundle band differs from the problem band")
        sg = self.space_grid
        check_paths_inside(bundle, sg)
        frames = self.y_values[::self._stride_for(bundle)]
        return lambda rows: eval_on_paths(frames, bundle, lambda j: [j], sg,
                                          rows)


def _march_backward(problem: GBSDEProblem, time_grid: TimeGrid,
                    space_grid: SpaceGrid, driver_row) -> np.ndarray:
    """Explicit backward sweep: :func:`gheat.sweep_rows` over the reversed
    rows, so row i is one ``march_steps`` step of row i+1, then
    ``+ dt * driver_row(i + 1, row i+1)``; ``driver_row(k, v)`` is the
    driver on row k (values v), live or a frozen Picard iterate, and
    ``None`` sweeps the zero driver with no source at all.

    ``march_steps`` holds the boundary nodes, so they carry the
    zero-curvature reduced equation ``v' = -f(t, v, one-sided D_x v)``:
    for x-independent solutions this is exact, and for localised data it
    only perturbs the frozen-data boundary at the level the domain
    truncation already does.
    """
    time_grid.require_horizon(problem.horizon, "terminal")
    dt, n = time_grid.dt, time_grid.n_steps
    _check_driver_stability(problem, dt, space_grid.dx)
    values = np.empty((n + 1, space_grid.n_points))
    values[n] = np.asarray(problem.terminal.as_levels()(space_grid.points()),
                           dtype=float)
    sweep_rows(values[::-1], problem.band, dt, space_grid,
               None if driver_row is None
               else lambda i, v: driver_row(n - i, v))
    return values


def _driver_field(problem: GBSDEProblem, time_grid: TimeGrid,
                  y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``f(t_i, y_i, z_i)`` row by row over a solved surface."""
    field = np.empty_like(y)
    for i, t in enumerate(time_grid.times()):
        field[i] = problem.driver(t, y[i], z[i])
    return field


def solve_ppde(problem: GBSDEProblem, time_grid: TimeGrid,
               space_grid: SpaceGrid) -> GBSDESolution:
    """Solve the backward equation by direct explicit marching."""
    times, dx = time_grid.times(), space_grid.dx
    values = _march_backward(
        problem, time_grid, space_grid,
        lambda k, v: problem.driver(times[k], v, gradient(v, dx)))
    return GBSDESolution(problem, time_grid, space_grid, values)


def solve_ppde_picard(problem: GBSDEProblem, time_grid: TimeGrid,
                      space_grid: SpaceGrid) -> tuple:
    """Picard iteration on the driver: freeze f at the previous iterate.

    Starts from f = 0 and stops after 10 iterations or once an iterate
    moves the surface by at most 1e-10; returns
    ``(solution, iterations, final_delta)``.
    Cross-validates the direct scheme: both converge to the same explicit
    fixed point, so the sup-gap after convergence is a genuine consistency
    signal.
    """
    dx = space_grid.dx
    values = _march_backward(problem, time_grid, space_grid, None)
    for iterations in range(1, 11):
        source = _driver_field(problem, time_grid, values, gradient(values, dx))
        new_values = _march_backward(problem, time_grid, space_grid,
                                     lambda k, v: source[k])
        delta = float(np.max(np.abs(new_values - values)))
        values = new_values
        if delta <= 1e-10:
            break
    return (GBSDESolution(problem, time_grid, space_grid, values),
            iterations, delta)


# ---------------------------------------------------------------------------
# residuals and the two-directional consistency check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GBSDEResidualReport:
    max_residual: float      # worst pathwise gap in the backward relation
    k_initial: float         # max |K_0| over paths (0 by construction)
    k_monotone: bool         # K non-increasing on every path
    terminal_gap: float      # max |Y_T - payoff(B_T)| over paths

    def __str__(self) -> str:
        return (f"backward-relation residual {self.max_residual:.3e}, "
                f"terminal gap {self.terminal_gap:.3e}, K0={self.k_initial:.1e}, "
                f"K {'non-increasing' if self.k_monotone else 'NOT monotone'}")


def gbsde_residual(solution: GBSDESolution, bundle: PathBundle) -> GBSDEResidualReport:
    """Pathwise residual of ``Y_t = xi + int_t^T f - int_t^T Z dB - (K_T - K_t)``.

    Integrals are left-endpoint sums on the bundle grid.  The bundle is
    walked and reduced one path block of about ``mc._PATH_BLOCK_BYTES`` at
    a time: Y, Z, K, the driver values and the tail sums exist per block
    only, so the peak above the inputs does not grow with the path count.
    Each path's entries depend on that path alone and max / all do not
    depend on order, so the report is bitwise the whole-bundle one.
    """
    walk = solution._walk(bundle)
    driver, dt = solution.problem.driver, bundle.time_grid.dt
    n, times = bundle.time_grid.n_steps, bundle.time_grid.times()
    payoff = solution.problem.terminal.as_levels()
    parts = []
    for rows in _path_blocks(*bundle.b_paths.shape):
        y, z, k = walk(rows)
        b = bundle.b_paths[rows]
        xi = np.asarray(payoff(b[:, -1]), dtype=float)
        k_initial = np.max(np.abs(k[:, 0]))
        k_monotone = np.all(np.diff(k, axis=-1) <= 1e-15)
        terminal_gap = np.max(np.abs(y[:, -1] - xi))
        f_vals = np.empty((len(y), n))
        for j in range(n):
            f_vals[:, j] = driver(times[j], y[:, j], z[:, j])
        z_steps = integral_steps(z, b)
        del z
        # one node-shaped buffer carries ((xi + tail_f) - tail_z) - tail_k,
        # built in place in that order
        f_vals *= dt
        resid = _tail(running_sum(f_vals))
        del f_vals
        resid += xi[:, None]
        resid -= _tail(running_sum(z_steps))
        del z_steps
        resid -= _tail(k)
        np.subtract(y, resid, out=resid)
        parts.append((np.max(np.abs(resid, out=resid)), k_initial,
                      k_monotone, terminal_gap))
        del y, k, resid     # freed before the next block's walk
    max_residual, k_initial, k_monotone, terminal_gap = zip(*parts)
    return GBSDEResidualReport(
        max_residual=float(np.max(max_residual)),
        k_initial=float(np.max(k_initial)),
        k_monotone=bool(np.all(k_monotone)),
        terminal_gap=float(np.max(terminal_gap)),
    )


def _tail(running: np.ndarray) -> np.ndarray:
    """``running[:, -1:] - running`` in place: the sum from each node on."""
    np.subtract(running[:, -1:].copy(), running, out=running)
    return running


@dataclass(frozen=True)
class EquivalenceReport:
    pde_residual: float
    relation: GBSDEResidualReport    # the backward relation along the paths
    pde_tol: float
    bsde_tol: float

    @property
    def bsde_residual(self) -> float:
        return self.relation.max_residual

    @property
    def pde_ok(self) -> bool:
        return self.pde_residual <= self.pde_tol

    @property
    def bsde_ok(self) -> bool:
        return self.bsde_residual <= self.bsde_tol

    @property
    def passed(self) -> bool:
        return self.pde_ok and self.bsde_ok

    def __str__(self) -> str:
        return (f"equation residual {self.pde_residual:.3e} (tol {self.pde_tol:.1e}), "
                f"backward-relation residual {self.bsde_residual:.3e} "
                f"(tol {self.bsde_tol:.1e}) -> "
                f"{'PASS' if self.passed else 'FAIL'}")


def ppde_residual(solution: GBSDESolution) -> float:
    """Interior residual of the discrete equation the sweep advanced.

    The :func:`pde_residual` of the backward surface (backward in time,
    centred in space) plus the driver field on the rows the sweep read, so
    the value is rounding noise for genuine solutions and O(1) for
    surfaces that do not solve the equation.
    """
    f = _driver_field(solution.problem, solution.time_grid,
                      solution.y_values, solution.z_values)
    resid = pde_residual(solution.y_surface()) + f[1:, 1:-1]
    return float(np.max(np.abs(resid)))


def equivalence_check(solution: GBSDESolution,
                      bundle: PathBundle) -> EquivalenceReport:
    """Verify both directions of the surface <-> triple correspondence.

    Direction one: the solved surface satisfies the discrete backward
    equation (residual at rounding level).  Direction two: the triple
    (Y, Z, K) read off the surface satisfies the backward relation along
    simulated paths, up to the pathwise quadrature error of the bundle
    grid.  The budgets are ``1e-9 * max(1, max |Y|)`` for the equation and
    ``8 var_hi sqrt(dt * T)`` on the bundle grid for the relation, whose
    realized-vs-ledger quadratic variation noise shrinks like sqrt(dt).
    """
    scale = max(1.0, float(np.max(np.abs(solution.y_values))))
    tg = bundle.time_grid
    return EquivalenceReport(
        ppde_residual(solution), gbsde_residual(solution, bundle), 1e-9 * scale,
        8.0 * solution.problem.band.var_hi * math.sqrt(tg.dt * tg.horizon))
