"""Monotone explicit solver for the band-generator heat equation.

The scheme marches ``u <- u + dt * G(second difference of u)`` from the
data layer, with the payoff's own values frozen at the two boundary nodes
(Dirichlet-from-data).  Under the CFL restriction ``dt <= dx^2 / var_hi``
the update is monotone, hence stable and convergent for the fully
nonlinear equation; the CFL bound is enforced, never silently repaired.

A surface solved forward from initial data satisfies
``u(t, x) ~ E[payoff(x + B_t)]`` under the band's sublinear expectation.
Every :class:`ValueSurface` runs forward from its data row, ``gbsde``'s
solutions too (in the time to go), and every surface reader takes both.

:func:`march_steps`, the one march loop, takes G from ``core``'s one
kernel and marches a contiguous run of whole rows as one flat array.
Without a hook it marches cache-sized blocks of rows, each through every
step (``gexp``'s nested sweeps); with one, all rows march as one run,
step by step, and the hook sees them after every step.  The one surface
march, ``_march_surface``, uses that hook: it forces the rows when asked
(``gbsde`` adds ``dt * f`` to its direct solution and to the lanes of
its Picard iterates) and keeps the last lane as the surface's row, for
:func:`solve_gheat` and ``gbsde`` alike.
:class:`FramePoints`, the only grid interpolator, serves
:meth:`ValueSurface.value`, ``gexp`` and the along-path walks of ``ito``
and ``gbsde``.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .core import GParams, SpaceGrid, TimeGrid, _g_inplace, g_value
from .errors import ConfigurationError, ExtrapolationError, UsageError


def cfl_dt_max(band: GParams, space_grid: SpaceGrid) -> float:
    """Largest stable explicit step: dx^2 / sigma_hi^2."""
    return space_grid.dx ** 2 / band.var_hi


def check_cfl(band: GParams, dt: float, space_grid: SpaceGrid) -> None:
    bound = cfl_dt_max(band, space_grid)
    if dt > bound * (1.0 + 1e-12):
        raise ConfigurationError(
            f"CFL violation: dt={dt!r} exceeds dx^2/var_hi={bound!r}; "
            f"increase n_steps to at least "
            f"{int(math.ceil(dt / bound))}x the current count or coarsen x"
        )


# Rows worked on together: about 256 KB of ``u``, so a block of the march
# and its two scratch buffers stay in a core's L2 cache for a whole
# interval.  ``pde_residual``, ``feedback_field`` and ``gexp``'s row grouping
# use blocks of this size.
_BLOCK_BYTES = 256 * 1024


def _block_rows(u: np.ndarray) -> int:
    """Rows of ``u`` (along its last axis) in one block of about
    ``_BLOCK_BYTES``, at least one."""
    return max(1, _BLOCK_BYTES // (u.shape[-1] * u.itemsize))


def march_steps(u: np.ndarray, band: GParams, dt: float, n: int, dx: float,
                hook=None) -> np.ndarray:
    """Apply ``n`` explicit steps in place along the last axis of ``u``.

    Boundary nodes (first/last column) are left untouched.  Works for any
    leading shape, which is how the parameterised conditional solves reuse
    this kernel.  Caller is responsible for the CFL check.

    The stencil acts along the last axis only, so every row evolves on its
    own.  ``u`` must be C-contiguous (any other ``u`` raises
    :class:`UsageError`); its leading axes are viewed as ``(rows, m)``.
    Without a hook, the rows are split into fixed blocks of about
    ``_BLOCK_BYTES`` and each block is marched through all ``n`` steps
    before the next.  With a hook, all rows march as one run, one step at
    a time, and ``hook(i, rows)`` sees the ``(rows, m)`` view after step
    i, for i = 0 (no step yet) to n; it may write the rows (``+ dt * f``)
    or copy them out before the next step.  Scratch for one run is
    allocated once per call.

    A run of r rows is marched as one flat array: the stencil reads
    ``flat[:-2]``, ``flat[1:-1]`` and ``flat[2:]``, so every lane of the
    middle view is an interior node except the ``2 (r - 1)`` seam lanes,
    the last node of one row and the first of the next.  Their increment
    is overwritten with ``-0.0`` before it is added, and ``x + (-0.0)`` is
    ``x`` for every x, signed zeros included, so the edge nodes keep their
    bits.  The result is therefore bitwise equal to updating the whole
    array step by step, ``u[..., 1:-1] += dt * G(second difference)``,
    whatever the run.  The seam lanes still compute a value, from the edge
    nodes of neighbouring rows, that is thrown away and reaches no result;
    but it can overflow, and numpy then warns, once
    ``4 * |u| * var_hi / dx**2`` nears the largest float (about 1.8e308),
    that is for |u| above about ``4e307 * dx**2 / var_hi``.
    """
    m = u.shape[-1]
    if u.size == 0 or hook is None and (n <= 0 or m < 3):
        return u
    if not u.flags.c_contiguous:
        raise UsageError(
            f"march_steps: u of shape {u.shape} and strides {u.strides} "
            f"is not C-contiguous; pass a contiguous array"
        )
    rows = u.reshape(-1, m)
    block = len(rows) if hook is not None else min(_block_rows(u), len(rows))
    curv = np.empty(block * m, dtype=u.dtype)
    gain = np.empty_like(curv)
    inv_dx2, half_dt = 1.0 / (dx * dx), 0.5 * dt
    if hook is not None:
        hook(0, rows)
    for start in range(0, len(rows), block):
        flat = rows[start:start + block].reshape(-1)
        c, g = curv[:len(flat) - 2], gain[:len(flat) - 2]
        # per row but the last, the last two lanes of c; a lone row has none
        seam = curv[:len(flat)].reshape(-1, m)[:-1, -2:]
        left, mid, right = flat[:-2], flat[1:-1], flat[2:]
        for i in range(1, n + 1):
            # ((right - 2*mid) + left) * inv_dx2: the whole-array rounding order
            np.multiply(mid, 2.0, out=c)
            np.subtract(right, c, out=c)
            np.add(c, left, out=c)
            np.multiply(c, inv_dx2, out=c)
            _g_inplace(band, c, g, half_dt)      # c = dt * G(c)
            seam.fill(-0.0)
            np.add(mid, c, out=mid)
            if hook is not None:
                hook(i, rows)
    return u


def _check_inside(pts: np.ndarray, x: np.ndarray, axis: int) -> None:
    lo, hi = pts[0], pts[-1]
    if not (np.min(x) >= lo and np.max(x) <= hi):   # NaN fails both
        bad = x[~((x >= lo) & (x <= hi))][0]
        raise ExtrapolationError(
            f"coordinate {axis} takes the value {float(bad)!r}, outside the "
            f"space grid [{float(lo)!r}, {float(hi)!r}] of {len(pts)} points"
        )


def locate(pts: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cell index j of each point of ``x`` on the uniform grid ``pts``.

    ``pts[j] <= x < pts[j + 1]``, the cell ``np.interp`` picks, and
    ``j = n - 1`` at ``x == pts[-1]``.  The guess ``floor((x - x_min)/dx)``
    is off by at most one cell on a uniform grid, so one exact comparison
    with each neighbouring node settles it.  ``x`` must lie inside the grid.
    """
    n = len(pts)
    guess = x - pts[0]
    guess *= (n - 1) / (pts[-1] - pts[0])
    np.floor(guess, out=guess)
    j = guess.astype(np.intp)
    np.minimum(j, n - 1, out=j)
    j -= x < pts.take(j)                                # guess one too high
    j += x >= np.append(pts[1:], np.inf).take(j)        # guess one too low
    return j


class FramePoints:
    """Points located once on a space grid, then shared by every field
    evaluated there: calling the object with a frame-shaped field returns
    the field's multilinear value at each point.

    ``coords`` holds one array of points per frame axis (observed values
    first, current position last).  Each point's cell and weights are
    found once, here; each call keeps the rounding order of the routine it
    replaces, so the values are bitwise equal to it on finite fields:

    - 1 axis, ``np.interp``: ``slope[j] * (x - pts[j]) + f[j]``, with
      ``slope[j] = (f[j+1] - f[j]) / (pts[j+1] - pts[j])``, and exactly
      ``f[j]`` when ``x == pts[j]`` (so ``f[-1]`` at ``x_max``);
    - 2 axes, ``RegularGridInterpolator``'s ``evaluate_linear_2d``:
      ``v00*(1-y0)*(1-y1) + v01*(1-y0)*y1 + v10*y0*(1-y1) + v11*y0*y1``,
      summed left to right from 0.0, with
      ``y = (x - pts[i]) / (pts[i+1] - pts[i])`` and ``i = n - 2`` at
      ``x_max``;
    - 3 axes, its ``_evaluate_linear``: the corner values times the
      weight products ``(w0*w1)*w2``, summed in corner order.

    Points outside the grid, NaN included, raise
    :class:`ExtrapolationError`; nothing is clamped or extrapolated.
    """

    def __init__(self, space_grid: SpaceGrid, coords) -> None:
        pts = space_grid._nodes
        xs = [np.asarray(c, dtype=float) for c in coords]
        if not xs or any(x.ndim != 1 or x.shape != xs[0].shape for x in xs):
            raise UsageError("frame points need one 1-d array of equal length "
                             "per frame axis")
        for axis, x in enumerate(xs):
            _check_inside(pts, x, axis)
        cells = [locate(pts, x) for x in xs]
        self.ndim = len(xs)
        self.n = len(pts)
        self.spacing = np.diff(pts)
        if self.ndim == 1:
            self.cell = cells[0]
            self.offset = xs[0] - pts.take(self.cell)
            self.exact = np.flatnonzero(self.offset == 0.0)
            return
        # RegularGridInterpolator closes the last cell on the right: x_max
        # sits in cell n - 2
        lower = [np.minimum(j, self.n - 2) for j in cells]
        y = [(x - pts.take(i)) / self.spacing.take(i) for x, i in zip(xs, lower)]
        pairs = [(1.0 - yk, yk) for yk in y]
        base = np.zeros_like(lower[0])
        for i in lower:
            base *= self.n
            base += i
        strides = [self.n ** (self.ndim - 1 - k) for k in range(self.ndim)]
        # corners in RegularGridInterpolator's hypercube order, the first
        # axis varying slowest; past two axes it multiplies the weights
        # before the value
        self.corners = []
        for bits in itertools.product((0, 1), repeat=self.ndim):
            weights = [pairs[k][b] for k, b in enumerate(bits)]
            if self.ndim > 2:
                weights = [functools.reduce(operator.mul, weights)]
            shift = sum(b * s for b, s in zip(bits, strides))
            self.corners.append((base + shift, weights))

    def __call__(self, field: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        field = np.asarray(field, dtype=float)
        if field.shape != (self.n,) * self.ndim:
            raise UsageError(
                f"field of shape {field.shape} does not match {self.ndim} "
                f"located axes on a grid of {self.n} points"
            )
        if self.ndim == 1:
            slope = np.empty(self.n)
            np.divide(np.diff(field), self.spacing, out=slope[:-1])
            slope[-1] = 0.0
            out = np.take(slope, self.cell, out=out)
            out *= self.offset
            out += field.take(self.cell)
            if self.exact.size:
                out[self.exact] = field.take(self.cell.take(self.exact))
            return out
        # RegularGridInterpolator's order: from 0.0, add the corner terms
        if out is None:
            out = np.empty(len(self.corners[0][0]))
        out.fill(0.0)
        term = np.empty_like(out)
        flat = field.reshape(-1)
        for index, weights in self.corners:
            np.take(flat, index, out=term)
            for w in weights:
                term *= w
            out += term
        return out


@dataclass(frozen=True, eq=False)
class ValueSurface:
    """Solved values on a time x space grid.

    ``values[i, j]`` is the solution at ``(times()[i], points()[j])``.
    The surface runs forward: ``values[0]`` is its data row and row i is
    the solution i steps after it.  Without forcing (:func:`solve_gheat`)
    that is ``x -> E[payoff(x + B_{t_i})]``; a ``gbsde`` solution's row i
    is Y at the time to go t_i, the driver included.
    """

    band: GParams
    time_grid: TimeGrid
    space_grid: SpaceGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        expect = (self.time_grid.n_steps + 1, self.space_grid.n_points)
        if self.values.shape != expect:
            raise UsageError(
                f"surface values shape {self.values.shape} != grid shape {expect}"
            )

    def value(self, t: float, x: float) -> float:
        """The row of the time node t (t = T included), read at x by
        :class:`FramePoints`.  Refuses to extrapolate (ExtrapolationError)
        or to blend rows at a time between nodes (UsageError)."""
        tg = self.time_grid
        if not (-1e-12 <= t <= tg.horizon * (1.0 + 1e-12)):
            raise ExtrapolationError(f"t={t!r} outside [0, {tg.horizon}]")
        row = self.values[tg.index_of(t)]
        return float(FramePoints(self.space_grid, [[x]])(row)[0])


def solve_gheat(payoff, band: GParams, time_grid: TimeGrid,
                space_grid: SpaceGrid) -> ValueSurface:
    """Solve the band heat equation forward from initial data.

    ``payoff`` is a callable evaluated on the space grid, or a ready-made
    array of nodal values.  Returns a surface whose row i approximates
    ``x -> E[payoff(x + B_{t_i})]``.
    """
    x = space_grid.points()
    data = np.asarray(payoff(x) if callable(payoff) else payoff, dtype=float)
    if data.shape != x.shape:
        raise UsageError(f"payoff samples shape {data.shape} != grid shape {x.shape}")
    return _march_surface(data, band, time_grid, space_grid)


def _march_surface(data, band: GParams, time_grid: TimeGrid,
                   space_grid: SpaceGrid, lanes: int = 1,
                   force=None) -> ValueSurface:
    """The one surface march: ``lanes`` copies of the data row, a
    ``(lanes, m)`` stack, through :func:`march_steps`, whose hook calls
    ``force(i, rows)`` (if given) after step i and then keeps the last
    lane as the surface's row i.  Checks the CFL bound, then that the data
    row is finite."""
    check_cfl(band, time_grid.dt, space_grid)
    # min and max take no temporary, and a NaN makes both NaN
    if not (math.isfinite(np.min(data)) and math.isfinite(np.max(data))):
        raise UsageError("payoff produced non-finite values on the grid")
    stack = np.empty((lanes, space_grid.n_points))
    stack[...] = data
    values = np.empty((time_grid.n_steps + 1, space_grid.n_points))

    def hook(i, rows):
        if force is not None:
            force(i, rows)
        values[i] = rows[-1]

    march_steps(stack, band, time_grid.dt, time_grid.n_steps, space_grid.dx,
                hook)
    return ValueSurface(band, time_grid, space_grid, values)


def gradient(u: np.ndarray, dx: float) -> np.ndarray:
    """First difference along the last axis (at least three nodes):
    centred, one-sided at the edges.  The centred difference runs over the
    flattened ``u`` (a copy only if ``u`` is not C-contiguous), as in
    :func:`march_steps`, and each row's edge pair then overwrites the seam
    lanes, which can only overflow, and warn, for |u| above about
    ``1e308 * dx``."""
    m = u.shape[-1]
    du = np.empty_like(u, order="C")
    flat, mid = u.reshape(-1), du.reshape(-1)[1:-1]
    np.subtract(flat[2:], flat[:-2], out=mid)
    np.divide(mid, 2.0 * dx, out=mid)
    edges = du[..., ::m - 1]                # columns 0 and m - 1
    np.subtract(u[..., 1::m - 2], u[..., :m - 1:m - 2], out=edges)
    np.divide(edges, dx, out=edges)
    return du


def curvature(u: np.ndarray, dx: float) -> np.ndarray:
    """Centred second difference along the last axis; edges copy their neighbour."""
    d2u = np.empty_like(u)
    mid = d2u[..., 1:-1]        # ((u[2:] - 2 u[1:-1]) + u[:-2]) / dx^2, in place
    np.multiply(u[..., 1:-1], 2.0, out=mid)
    np.subtract(u[..., 2:], mid, out=mid)
    np.add(mid, u[..., :-2], out=mid)
    mid /= dx * dx
    d2u[..., 0] = d2u[..., 1]
    d2u[..., -1] = d2u[..., -2]
    return d2u


def pde_residual(surface: ValueSurface) -> np.ndarray:
    """Interior residual ``du_dt - G(d2u_dx2)`` of a solved surface.

    The surface solves ``u_t - G(u_xx) = 0`` forward from its data row:
    row i pairs ``(u[i+1] - u[i]) / dt`` with the curvature of row i, the
    row the scheme read.  For surfaces produced by the marching kernel the
    interior residual is zero to rounding by construction, so this is a
    self-consistency check, not an accuracy estimate.  The result is filled
    in row blocks of about ``_BLOCK_BYTES``, bitwise the whole-surface
    formula whatever the block, from any view of the values (a reversed
    one too).
    """
    u, dx = surface.values, surface.space_grid.dx
    out = np.empty((len(u) - 1, u.shape[-1] - 2))
    step = _block_rows(u)
    for r0 in range(0, len(out), step):
        rows, block = u[r0:r0 + step + 1], out[r0:r0 + step]
        np.subtract(rows[1:, 1:-1], rows[:-1, 1:-1], out=block)
        block /= surface.time_grid.dt
        block -= g_value(surface.band, curvature(rows[:-1], dx)[:, 1:-1])
    return out


def feedback_field(surface: ValueSurface) -> np.ndarray:
    """Bang-bang field as a mask, true where ``curvature >= 0``: mapped by
    ``np.where(mask, sigma_hi, sigma_lo)`` it is the band edge that
    maximises ``curvature * sigma^2``, ties going to ``sigma_hi``.

    Edge columns copy their interior neighbour since curvature is not
    defined there.  The mask is filled in row blocks of about
    ``_BLOCK_BYTES``: the only temporary is one block's curvature.
    """
    u, dx = surface.values, surface.space_grid.dx
    out = np.empty(u.shape, dtype=bool)
    step = _block_rows(u)
    for r0 in range(0, len(u), step):
        out[r0:r0 + step] = curvature(u[r0:r0 + step], dx) >= 0.0
    return out


def export_surface_csv(surface: ValueSurface, path, time_stride: int = 1) -> int:
    """Write ``t,x,u,du_dx,d2u_dx2`` rows; returns the number of rows.

    ``time_stride`` thins the time axis for bulky CFL-limited surfaces: an
    integer >= 1, not a bool (else :class:`UsageError`); the stencils act
    row by row, so only the written rows are differentiated.
    Floats are written with ``repr`` so identical surfaces produce
    byte-identical files.
    """
    if isinstance(time_stride, bool) or not isinstance(time_stride, Integral) \
            or time_stride < 1:
        raise UsageError(
            f"time_stride must be an integer >= 1, got {time_stride!r}")
    times = surface.time_grid.times()
    idx = [*range(0, len(times) - 1, time_stride), len(times) - 1]
    u, dx = surface.values[idx], surface.space_grid.dx
    du_dx, d2u = gradient(u, dx), curvature(u, dx)
    xs = surface.space_grid.points()
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "x", "u", "du_dx", "d2u_dx2"])
        for r, t in enumerate(times[idx]):
            for j, x in enumerate(xs):
                w.writerow([repr(float(v)) for v in
                            (t, x, u[r, j], du_dx[r, j], d2u[r, j])])
    return len(idx) * len(xs)
