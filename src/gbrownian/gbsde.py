"""Backward equations driven by the band generator along cylinder paths.

The scheme solves the terminal-value problem

    D_t u + G(D2_x u) + f(t, u, D_x u) = 0,   u(T, .) = payoff,

by explicit backward marching on a space grid: one ``gheat.march_steps``
step of the later row, then ``+ dt * f`` on that row.  The guards are the
CFL bound ``dt <= dx^2 / var_hi`` and the driver step bound
``dt * L * (1 + 1/dx) <= 0.5``, L the declared Lipschitz constant.  They
do not make the scheme monotone: ``f = -y`` on the CFL-maximal grid
passes both with centre weight about -1e-4.  From the solved surface the
backward-equation triple is read off:

    Y_t = u(t, B_t),
    Z_t = D_x u(t, B_t),
    K_t = 0.5 * integral(D2_x u d qv) - integral(G(D2_x u) dt),

with ``K_0 = 0`` and K non-increasing pathwise, and the pair
(surface solves the equation) <-> (triple satisfies the backward relation
``Y_t = xi + integral_t^T f - integral_t^T Z dB - (K_T - K_t)``) is
checked in both directions by :func:`equivalence_check`.

Only Markovian data are in scope: a single-date terminal functional and a
driver ``f(t, y, z)``.  General cylinder drivers raise
:class:`CapabilityError`.

Cylinder path processes (piecewise-smooth functionals of time, the
observed path values, and the current position) and their finite-
difference derivatives live here too; they give the pathwise differential
operators meaning independently of any solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CylinderFunctional, GParams, SpaceGrid, TimeGrid, g_value, running_sum
from .errors import (
    CapabilityError,
    ConfigurationError,
    UsageError,
)
from .gheat import ValueSurface, check_cfl, gradient, march_steps, pde_residual
from .mc import PathBundle
from .ito import check_paths_inside, eval_on_paths, k_ledger, stochastic_integral


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
        if len(times) == 0 or any(t <= 0 for t in times) or any(
                b <= a for a, b in zip(times, times[1:])):
            raise UsageError("times must be strictly increasing and > 0")
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
    ``h = step * max(1, |coordinate|)``.  Near an interval boundary the
    interval's own (smooth) formula is evaluated slightly across — pieces
    are formulas on all of R, only their probabilistic meaning is local.
    """
    k = proc.piece_index(t)
    prefix = [float(v) for v in prefix]
    if len(prefix) != k + 1:
        raise UsageError(f"prefix needs {k + 1} entries at t={t}")
    u = proc.pieces[k]
    observed, x = prefix[:-1], prefix[-1]
    ht = step * max(1.0, abs(t))
    hx = step * max(1.0, abs(x))
    d_t = (u(t + ht, *observed, x) - u(t - ht, *observed, x)) / (2.0 * ht)
    d_x = (u(t, *observed, x + hx) - u(t, *observed, x - hx)) / (2.0 * hx)
    d2_x = (u(t, *observed, x + hx) - 2.0 * u(t, *observed, x)
            + u(t, *observed, x - hx)) / (hx * hx)
    return float(d_t), float(d_x), float(d2_x)


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
    """Solved backward surface with its derivative field."""

    problem: GBSDEProblem
    time_grid: TimeGrid
    space_grid: SpaceGrid
    y_values: np.ndarray     # (n_steps + 1, n_points), row i at time t_i
    z_values: np.ndarray     # same shape, D_x of y

    def y_surface(self) -> ValueSurface:
        return ValueSurface(self.problem.band, self.time_grid, self.space_grid,
                            self.y_values, "backward", self.problem.name)

    def _stride_for(self, bundle: PathBundle) -> int:
        if abs(bundle.time_grid.horizon - self.time_grid.horizon) > 1e-9:
            raise UsageError("bundle horizon differs from the solution horizon")
        ratio = self.time_grid.n_steps / bundle.time_grid.n_steps
        stride = int(round(ratio))
        if abs(ratio - stride) > 1e-9 or stride < 1:
            raise UsageError(
                f"bundle grid ({bundle.time_grid.n_steps} steps) must divide "
                f"the solution grid ({self.time_grid.n_steps} steps)"
            )
        return stride

    def paths_view(self, bundle: PathBundle) -> tuple:
        """(Y, Z, K) along the bundle's paths at the bundle's nodes."""
        if bundle.band != self.problem.band:
            raise UsageError("bundle band differs from the problem band")
        sg = self.space_grid
        check_paths_inside(bundle, sg)
        stride = self._stride_for(bundle)
        y, z, curv = eval_on_paths(self.y_values[::stride],
                                   lambda j: [bundle.b_paths[:, j]],
                                   sg.points(), sg.dx)
        return y, z, k_ledger(0.5 * curv[:, :-1], bundle)


def _march_backward(problem: GBSDEProblem, time_grid: TimeGrid,
                    space_grid: SpaceGrid, driver_row) -> np.ndarray:
    """Explicit backward sweep: row i is one :func:`march_steps` step of
    row i+1, then ``+ dt * driver_row(i + 1, row i+1)``; ``driver_row(k, v)``
    is the driver on row k (values v), live or a frozen Picard iterate.

    ``march_steps`` holds the boundary nodes, so they carry the
    zero-curvature reduced equation ``v' = -f(t, v, one-sided D_x v)``:
    for x-independent solutions this is exact, and for localised data it
    only perturbs the frozen-data boundary at the level the domain
    truncation already does.
    """
    if abs(time_grid.horizon - problem.horizon) > 1e-9 * max(1.0, problem.horizon):
        raise UsageError("time grid horizon must equal the terminal horizon")
    dt, dx = time_grid.dt, space_grid.dx
    check_cfl(problem.band, dt, space_grid)
    _check_driver_stability(problem, dt, dx)
    n = time_grid.n_steps

    values = np.empty((n + 1, space_grid.n_points))
    values[n] = np.asarray(problem.terminal.as_levels()(space_grid.points()),
                           dtype=float)
    if not np.all(np.isfinite(values[n])):
        raise UsageError("terminal payoff produced non-finite values")
    for i in range(n - 1, -1, -1):
        values[i] = values[i + 1]
        march_steps(values[i], problem.band, dt, 1, dx)
        values[i] += dt * driver_row(i + 1, values[i + 1])
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
    return GBSDESolution(problem, time_grid, space_grid, values,
                         gradient(values, dx))


def solve_ppde_picard(problem: GBSDEProblem, time_grid: TimeGrid,
                      space_grid: SpaceGrid, max_iter: int = 10,
                      tol: float = 1e-10) -> tuple:
    """Picard iteration on the driver: freeze f at the previous iterate.

    Starts from f = 0; returns ``(solution, iterations, final_delta)``.
    Cross-validates the direct scheme: both converge to the same explicit
    fixed point, so the sup-gap after convergence is a genuine consistency
    signal.
    """
    dx = space_grid.dx
    source = np.zeros((time_grid.n_steps + 1, space_grid.n_points))
    values = _march_backward(problem, time_grid, space_grid,
                             lambda k, v: source[k])
    delta = math.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        source = _driver_field(problem, time_grid, values, gradient(values, dx))
        new_values = _march_backward(problem, time_grid, space_grid,
                                     lambda k, v: source[k])
        delta = float(np.max(np.abs(new_values - values)))
        values = new_values
        if delta <= tol:
            break
    return (GBSDESolution(problem, time_grid, space_grid, values,
                          gradient(values, dx)),
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

    Integrals are left-endpoint sums on the bundle grid.
    """
    y, z, k = solution.paths_view(bundle)
    dt = bundle.time_grid.dt
    times = bundle.time_grid.times()
    xi = np.asarray(solution.problem.terminal.as_levels()(bundle.b_paths[:, -1]),
                    dtype=float)
    f_vals = np.empty((bundle.n_paths, bundle.time_grid.n_steps))
    for j in range(bundle.time_grid.n_steps):
        f_vals[:, j] = solution.problem.driver(times[j], y[:, j], z[:, j])
    cum_f = running_sum(f_vals * dt)
    tail_f = cum_f[:, -1][:, None] - cum_f
    zint = stochastic_integral(z, bundle.b_paths)
    tail_z = zint[:, -1][:, None] - zint
    tail_k = k[:, -1][:, None] - k
    resid = y - (xi[:, None] + tail_f - tail_z - tail_k)
    dk = np.diff(k, axis=-1)
    return GBSDEResidualReport(
        max_residual=float(np.max(np.abs(resid))),
        k_initial=float(np.max(np.abs(k[:, 0]))),
        k_monotone=bool(np.all(dk <= 1e-15)),
        terminal_gap=float(np.max(np.abs(y[:, -1] - xi))),
    )


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


def equivalence_check(solution: GBSDESolution, bundle: PathBundle,
                      pde_tol: float = None,
                      bsde_tol: float = None) -> EquivalenceReport:
    """Verify both directions of the surface <-> triple correspondence.

    Direction one: the solved surface satisfies the discrete backward
    equation (residual at rounding level).  Direction two: the triple
    (Y, Z, K) read off the surface satisfies the backward relation along
    simulated paths, up to the pathwise quadrature error of the bundle
    grid (default budget ``8 var_hi sqrt(dt * T)`` plus the terminal
    interpolation gap — the realized-vs-ledger quadratic variation noise
    dominates and shrinks like sqrt(dt)).
    """
    scale = max(1.0, float(np.max(np.abs(solution.y_values))))
    if pde_tol is None:
        pde_tol = 1e-9 * scale
    if bsde_tol is None:
        tg = bundle.time_grid
        bsde_tol = 8.0 * solution.problem.band.var_hi * math.sqrt(tg.dt * tg.horizon)
    return EquivalenceReport(ppde_residual(solution),
                             gbsde_residual(solution, bundle),
                             float(pde_tol), float(bsde_tol))
