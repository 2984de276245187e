"""Backward equations driven by the band generator along cylinder paths.

The scheme solves the terminal-value problem

    D_t u + G(D2_x u) + f(t, u, D_x u) = 0,   u(T, .) = payoff,

by explicit backward marching on a space grid: the surface march of
``gheat.solve_gheat`` runs in the time to go, forced after each step, so
each row is one step of the later row, then ``+ dt * f`` on that row,
and a solution is the forward ``gheat.ValueSurface`` it returns.
Picard's iterates are lanes of that one march, each forced by the driver
frozen on the lane before.  The driver meets grid rows in
``_driver_row`` only, and the residual is ``gheat.pde_residual`` of the
solution's surface less f.  The guards are the CFL bound
``dt <= dx^2 / var_hi`` and the driver step bound
``dt * L * (1 + 1/dx) <= 0.5``, L the declared Lipschitz constant.  They
do not make the scheme monotone: ``f = -y`` on the CFL-maximal grid
passes both with centre weight about -1e-4.  From the solved surface the
backward-equation triple is read off:

    Y_t = u(t, B_t),
    Z_t = D_x u(t, B_t),
    K_t = 0.5 * integral(D2_x u d qv) - integral(G(D2_x u) dt),

with ``K_0 = 0`` and K non-increasing pathwise.  A solution stores Y
only; Z is ``gheat.gradient`` of the rows a reader needs, taken where it
is read.  The triple comes node by node from the node reader and the K
carry that also decompose conditional values along paths
(``ito._node_reader``, ``ito._carry_k``), so both read K off one ledger
and interpolate with ``gheat.FramePoints``; :func:`gbsde_residual`
reduces it in one walk, as it goes, and never holds the triple.  The pair
(surface solves the equation) <-> (triple satisfies the backward relation
``Y_t = xi + integral_t^T f - integral_t^T Z dB - (K_T - K_t)``) is
checked in both directions by :func:`equivalence_check`.

Only Markovian data are in scope: a single-date terminal functional and a
driver ``f(t, y, z)``.  General cylinder drivers raise
:class:`CapabilityError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CylinderFunctional, GParams, SpaceGrid, TimeGrid
from .errors import CapabilityError, ConfigurationError, UsageError
from .gheat import ValueSurface, _march_surface, gradient, pde_residual
from .mc import PathBundle
from .ito import _admit_bundle, _carry_k, _node_reader, _walk


# ---------------------------------------------------------------------------
# backward problems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GBSDEProblem:
    """Terminal functional + driver + band.

    ``driver(t, y, z)`` takes a scalar t and must be elementwise in
    (y, z), arrays of one shape, whatever that shape: its callers pass a
    grid row (the direct solve and :func:`ppde_residual`), the
    ``(lanes, m)`` stack of Picard iterates and a row of one value per
    path (:func:`gbsde_residual`).  A scalar result broadcasts.
    ``driver_lipschitz`` is the caller's Lipschitz bound in (y, z), a
    number >= 0 (NaN is refused at construction).  It is used only in the
    step bound ``dt * driver_lipschitz * (1 + 1/dx) <= 0.5``, which is not a
    monotonicity condition (see the module docstring).  The terminal
    functional must monitor a single date (Markovian scope); richer
    terminals raise :class:`CapabilityError`.
    """

    terminal: CylinderFunctional
    driver: object
    band: GParams
    driver_lipschitz: float = 0.0

    def __post_init__(self) -> None:
        if self.terminal.n_times != 1:
            raise CapabilityError(
                "only Markovian terminal data (one monitoring date) are "
                "supported by the backward solvers"
            )
        if not self.driver_lipschitz >= 0.0:    # NaN would pass the step guard
            raise ConfigurationError(
                f"driver_lipschitz must be >= 0, got {self.driver_lipschitz!r}")

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
    """Solved backward surface Y, held as a forward
    :class:`gheat.ValueSurface` in the time to go: its row i is Y at
    ``T - t_i``, so its data row is the terminal payoff, and every surface
    reader takes it.  ``Z = D_x Y`` is not stored: each reader takes
    :func:`gheat.gradient` of the rows it needs."""

    problem: GBSDEProblem
    surface: ValueSurface

    @property
    def y_values(self) -> np.ndarray:   # read-only; row i at t_i, data last
        y = self.surface.values[::-1]
        y.flags.writeable = False
        return y

    @property
    def initial(self) -> float:     # Y at time 0 and the origin
        return self.surface.value(self.surface.time_grid.horizon, 0.0)

    def paths_view(self, bundle: PathBundle) -> tuple:
        """(Y, Z, K) along the bundle's paths at the bundle's nodes, each
        ``(n_paths, n_nodes)`` and time-major like the bundle's paths: the
        peak is the three outputs plus a few rows of one value per path
        (see :func:`ito._walk`).  :func:`gbsde_residual` reads the same
        walk without storing it."""
        frames = self._frames_for(bundle)
        return _walk(lambda visit: [visit(j, f) for j, f in enumerate(frames)],
                     len(frames), bundle, (), self.surface.space_grid)

    def _frames_for(self, bundle: PathBundle) -> np.ndarray:
        """The rows of Y at the bundle's nodes, once the bundle is admitted
        (:func:`ito._admit_bundle`) on a grid that divides the solution
        grid."""
        tg = self.surface.time_grid
        _admit_bundle(bundle, self.problem.band, tg.horizon,
                      self.surface.space_grid, ("problem", "solution"))
        stride, rest = divmod(tg.n_steps, bundle.time_grid.n_steps)
        if rest or stride < 1:
            raise UsageError(
                f"bundle grid ({bundle.time_grid.n_steps} steps) must divide "
                f"the solution grid ({tg.n_steps} steps)"
            )
        return self.y_values[::stride]


def _driver_row(problem: GBSDEProblem, time_grid: TimeGrid,
                space_grid: SpaceGrid):
    """``k, v -> f(t_k, v, D_x v)``: the driver on grid row k, values v;
    the only place the driver meets a grid row."""
    times, dx = time_grid.times(), space_grid.dx
    return lambda k, v: problem.driver(times[k], v, gradient(v, dx))


def _march_backward(problem: GBSDEProblem, time_grid: TimeGrid,
                    space_grid: SpaceGrid, lanes: int = 1,
                    watch=None) -> ValueSurface:
    """Explicit backward sweep of ``lanes`` copies of the terminal row:
    :func:`gheat._march_surface`, the march of :func:`gheat.solve_gheat`,
    in the time to go, so row k of each lane is one step of its row k+1,
    then ``+ dt * f``, f one driver row (:func:`_driver_row`) at row k+1,
    read before the step.  The march's force adds it and reads the next
    f.  One lane is the direct solve, its driver live on the lane itself.
    More lanes are the zero-driver start and Picard iterates
    ``1 .. lanes-1``: lane 0 gets no forcing at all, and lane l's driver
    is frozen on lane l-1.  Returns the last lane's surface, forward in
    the time to go; ``watch``, if given, sees the whole ``(lanes, m)``
    stack at every row, n down to 0.  Checks the horizon, the driver step
    bound, the CFL bound and that the terminal row is finite, in that
    order.

    ``march_steps`` holds the boundary nodes, so they carry the
    zero-curvature reduced equation ``v' = -f(t, v, one-sided D_x v)``:
    for x-independent solutions this is exact, and for localised data it
    only perturbs the frozen-data boundary at the level the domain
    truncation already does.
    """
    time_grid.require_horizon(problem.horizon, "terminal")
    dt, n = time_grid.dt, time_grid.n_steps
    _check_driver_stability(problem, dt, space_grid.dx)
    lag = min(lanes - 1, 1)
    driver_row = _driver_row(problem, time_grid, space_grid)
    f = None

    def force(i, rows):
        nonlocal f
        read, fed = rows[:lanes - lag], rows[lag:]
        # one lane goes to the driver as a row: indexing a one-row stack
        # costs the driver (its gradient) about 2 us more per step
        if len(read) == 1:
            read, fed = read[0], fed[0]
        if i > 0:
            np.add(fed, dt * f, out=fed)
        if watch is not None:
            watch(rows)
        if i < n:
            f = driver_row(n - i, read)

    return _march_surface(problem.terminal.payoff(space_grid.points()),
                          problem.band, time_grid, space_grid, lanes, force)


def solve_ppde(problem: GBSDEProblem, time_grid: TimeGrid,
               space_grid: SpaceGrid) -> GBSDESolution:
    """Solve the backward equation by direct explicit marching."""
    return GBSDESolution(problem, _march_backward(problem, time_grid,
                                                  space_grid))


def solve_ppde_picard(problem: GBSDEProblem, time_grid: TimeGrid,
                      space_grid: SpaceGrid) -> tuple:
    """Picard iteration on the driver: freeze f at the previous iterate.

    Starts from f = 0 and stops after 10 iterations or once an iterate
    moves the surface by at most 1e-10; returns
    ``(solution, iterations, final_delta)``.
    Cross-validates the direct scheme: both converge to the same explicit
    fixed point, so the sup-gap after convergence is a genuine consistency
    signal.

    Iterate it's row k reads only its own row k+1 and iterate it-1's, so
    the start and iterates 1..10 are marched together, one time step at a
    time, as the 11 lanes of one backward sweep (:func:`_march_backward`),
    each bitwise the iterate swept on its own.  Each iterate's move
    ``max |Y_it - Y_it-1|`` is a node-wise running maximum over the rows,
    reduced once at the end: a max is exact and keeps NaN.  The first pass
    keeps the last lane's surface only; when the moves stop the iteration
    at s < 10, a second pass marches ``s + 1`` lanes and keeps lane s.  So
    Picard holds one surface and a few lane rows.  The cost is an early
    stop's: it still pays for the whole 11-lane pass, so the zero driver
    (s = 1) takes over twice as long as its two one-lane sweeps would.
    """
    reach = np.zeros((10, space_grid.n_points))   # node-wise running max
    gap = np.empty_like(reach)

    def watch(lanes):
        np.subtract(lanes[1:], lanes[:-1], out=gap)
        np.maximum(reach, np.abs(gap, out=gap), out=reach)

    surface = _march_backward(problem, time_grid, space_grid, 11, watch)
    moves = np.max(reach, axis=1)   # moves[it - 1] = max |Y_it - Y_it-1|
    settled = np.flatnonzero(moves <= 1e-10)
    iterations = int(settled[0]) + 1 if settled.size else 10
    if iterations < 10:
        del surface         # freed before the second pass makes its own
        surface = _march_backward(problem, time_grid, space_grid,
                                  iterations + 1)
    return (GBSDESolution(problem, surface), iterations,
            float(moves[iterations - 1]))


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

    Integrals are left-endpoint sums on the bundle grid, carried node by
    node as the running sums F of ``f dt`` and S of ``Z dB``.  Node j's gap
    is ``A_j - C``, with ``A_j = ((Y_j + F_j) - S_j) - K_j`` known at node j
    and ``C = ((F_T + xi) - S_T) - K_T`` one constant per path.  ``A - C``
    rounds monotonically in A, so the walk (``ito._node_reader`` and
    ``ito._carry_k``) keeps each path's largest and smallest A only, and
    ``max(A_max - C, C - A_min)`` is bitwise the largest ``|A_j - C|``.
    The scratch is a few rows of one value per path, whatever the
    bundle's length.
    """
    frames, n_paths = solution._frames_for(bundle), bundle.n_paths
    driver, tg, bt = solution.problem.driver, bundle.time_grid, bundle.b_paths.T
    read = _node_reader(len(frames), bundle, (), solution.surface.space_grid)
    times, qv, k_monotone = tg.times(), 0.0, True
    y, z, k, k_last, f_sum, z_sum, step, a = (np.zeros(n_paths)
                                              for _ in range(8))
    a_max, a_min = np.full(n_paths, -np.inf), np.full(n_paths, np.inf)
    k_initial = np.max(np.abs(k))
    for j, frame in enumerate(frames):
        if j:   # half node j - 1's curvature, parked in k_last, becomes K_j
            k, k_last = k_last, k
            qv = _carry_k(k, k_last, j, qv, bundle)
            k_monotone &= bool(np.all(np.subtract(k, k_last) <= 1e-15))
        read(j, frame, y, z, k_last if j < tg.n_steps else None)
        np.add(y, f_sum, out=a)
        a -= z_sum
        a -= k
        np.maximum(a_max, a, out=a_max)     # NaN stays NaN
        np.minimum(a_min, a, out=a_min)
        if j < tg.n_steps:
            step[...] = driver(times[j], y, z)     # a float row, even
            step *= tg.dt                          # for a scalar driver
            f_sum += step
            np.subtract(bt[j + 1], bt[j], out=step)
            step *= z
            z_sum += step
    xi = np.asarray(solution.problem.terminal.payoff(bt[-1]), dtype=float)
    terminal_gap = np.max(np.abs(y - xi))
    c = np.add(f_sum, xi)
    c -= z_sum
    c -= k
    a_max -= c
    np.subtract(c, a_min, out=a_min)
    worst = np.max(np.maximum(a_max, a_min, out=a_max))
    return GBSDEResidualReport(float(worst), float(k_initial), k_monotone,
                               float(terminal_gap))


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

    The solution's surface runs forward in the time to go, solving
    ``u_tau = G(u_xx) + f``, so this is
    ``max |pde_residual(solution.surface) - f|``, f the driver on the rows
    the sweep read, n down to 1.  Each entry is the backward form
    ``((y[i+1] - y[i]) / dt + G(D2_x y[i+1])) + f[i+1]`` with every
    operation on negated operands, so exactly negated: the value is bitwise
    that formula's.  Rounding noise for genuine solutions, O(1) for
    surfaces that do not solve the equation.
    """
    y, tg = solution.y_values, solution.surface.time_grid
    driver_row = _driver_row(solution.problem, tg, solution.surface.space_grid)
    resid = pde_residual(solution.surface)
    f = np.empty(y.shape[1:])
    for k, row in zip(range(tg.n_steps, 0, -1), resid):
        f[...] = driver_row(k, y[k])    # a float row, even for a scalar driver
        row -= f[1:-1]
    return float(np.max(np.abs(resid, out=resid)))


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
    y = solution.surface.values
    scale = max(1.0, float(np.max(y)), -float(np.min(y)))   # no |y| temporary
    tg = bundle.time_grid
    return EquivalenceReport(
        ppde_residual(solution), gbsde_residual(solution, bundle), 1e-9 * scale,
        8.0 * solution.problem.band.var_hi * math.sqrt(tg.dt * tg.horizon))
