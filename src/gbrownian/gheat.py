"""Monotone explicit solver for the band-generator heat equation.

The scheme marches ``u <- u + dt * G(second difference of u)`` from the
data layer, with the payoff's own values frozen at the two boundary nodes
(Dirichlet-from-data).  Under the CFL restriction ``dt <= dx^2 / var_hi``
the update is monotone, hence stable and convergent for the fully
nonlinear equation; the CFL bound is enforced, never silently repaired.

A surface solved forward from initial data satisfies
``u(t, x) ~ E[payoff(x + B_t)]`` under the band's sublinear expectation.
Every :class:`ValueSurface` runs forward from its data row; read in
reverse, ``gbsde``'s backward rows are one too, and :func:`pde_residual`
checks both.

:class:`_FlatMarch`, the only explicit step, takes G from ``core``'s one
kernel and marches a contiguous run of whole rows as one flat array: the
lanes where the stencil straddles two rows get an increment of ``-0.0``,
which leaves every edge node's bits as they were.  :func:`march_steps`,
the block loop, feeds it cache-sized blocks of rows (``gexp``'s nested
sweeps); :func:`sweep_rows`, the row loop, feeds it a stack of lanes, one
row each, per time step: one lane fills forward surfaces and, in reversed
time, ``gbsde``'s direct solutions; eleven are ``gbsde``'s Picard
iterates.  Each allocates the step's scratch once per call.
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


class _FlatMarch:
    """The explicit step on contiguous runs of whole rows of width ``m``,
    with scratch for runs of up to ``rows`` rows allocated once.

    A run of ``r`` rows is marched as one flat array: the stencil reads
    ``flat[:-2]``, ``flat[1:-1]`` and ``flat[2:]``, so every lane of the
    middle view is an interior node except the ``2 (r - 1)`` seam lanes,
    the last node of one row and the first of the next.  Their increment
    is overwritten with ``-0.0`` before it is added, and ``x + (-0.0)`` is
    ``x`` for every x, signed zeros included, so the edge nodes keep their
    bits.  The seam lanes still compute a value, from the edge nodes of
    neighbouring rows, that is thrown away and reaches no result; but it
    can overflow, and numpy then warns, once ``4 * |u| * var_hi / dx**2``
    nears the largest float (about 1.8e308), that is for |u| above about
    ``4e307 * dx**2 / var_hi``.
    """

    def __init__(self, band: GParams, dt: float, dx: float, m: int,
                 rows: int, dtype) -> None:
        self.band, self.m = band, m
        self.inv_dx2 = 1.0 / (dx * dx)
        self.half_dt = 0.5 * dt
        self.curv = np.empty(rows * m, dtype=dtype)
        self.gain = np.empty_like(self.curv)

    def __call__(self, flat: np.ndarray, n: int) -> None:
        """Apply ``n`` steps in place to ``flat``: a contiguous run of
        one or more whole rows."""
        size = len(flat) - 2
        c, g = self.curv[:size], self.gain[:size]
        # per row but the last, the last two lanes of c; a lone row has none
        seam = None
        if len(flat) > self.m:
            seam = self.curv[:len(flat)].reshape(-1, self.m)[:-1, -2:]
        left, mid, right = flat[:-2], flat[1:-1], flat[2:]
        band, inv_dx2, half_dt = self.band, self.inv_dx2, self.half_dt
        for _ in range(n):
            # ((right - 2*mid) + left) * inv_dx2: the whole-array rounding order
            np.multiply(mid, 2.0, out=c)
            np.subtract(right, c, out=c)
            np.add(c, left, out=c)
            np.multiply(c, inv_dx2, out=c)
            _g_inplace(band, c, g, half_dt)      # c = dt * G(c)
            if seam is not None:
                seam.fill(-0.0)
            np.add(mid, c, out=mid)


def march_steps(u: np.ndarray, band: GParams, dt: float, n: int, dx: float) -> np.ndarray:
    """Apply ``n`` explicit steps in place along the last axis of ``u``.

    Boundary nodes (first/last column) are left untouched.  Works for any
    leading shape, which is how the parameterised conditional solves reuse
    this kernel.  Caller is responsible for the CFL check.

    The stencil acts along the last axis only, so every row evolves on its
    own.  ``u`` must be C-contiguous; its leading axes are viewed as rows,
    split into fixed blocks of about ``_BLOCK_BYTES``, and each block is
    marched in place through all ``n`` steps before the next, as one flat
    run of ``rows * m`` nodes (see :class:`_FlatMarch`), with ``O(block)``
    scratch allocated once per call.  The result is bitwise equal to
    updating the whole array step by step,
    ``u[..., 1:-1] += dt * G(second difference)``, whatever the block
    size: each interior node gets the same operations in the same order,
    and each seam lane adds ``-0.0`` to an edge node.  Any other ``u``
    raises :class:`UsageError`.
    """
    m = u.shape[-1]
    if n <= 0 or m < 3 or u.size == 0:
        return u
    if not u.flags.c_contiguous:
        raise UsageError(
            f"march_steps: u of shape {u.shape} and strides {u.strides} "
            f"is not C-contiguous; pass a contiguous array"
        )
    rows = u.reshape(-1, m)
    block = max(1, _BLOCK_BYTES // (m * u.itemsize))
    march = _FlatMarch(band, dt, dx, m, min(block, len(rows)), u.dtype)
    for start in range(0, len(rows), block):
        march(rows[start:start + block].reshape(-1), n)
    return u


def sweep_rows(data: np.ndarray, band: GParams, dt: float,
               space_grid: SpaceGrid, n: int, lanes: int = 1, source=None,
               lag: int = 0):
    """The row loop: march ``lanes`` copies of the data row ``n`` explicit
    steps together, yielding the ``(lanes, m)`` stack ``n + 1`` times:
    the i-th stack yielded, from 0, holds row i of every lane.  The next
    step overwrites it, so a caller copies the rows it keeps.

    The stack is one flat run of :class:`_FlatMarch`, whose scratch is
    allocated once per sweep, so each lane is bitwise the one-row march
    of its own rows.  With a source, step i reads
    ``f = source(i, stack[:lanes - lag])`` before it and adds ``dt * f``
    to ``stack[lag:]`` after it: lane l is forced by the source read on
    lane ``l - lag``, and the first ``lag`` lanes get no source at all.
    A source that reads one lane gets it as a row.  Checks the CFL bound
    and that the data row is finite."""
    check_cfl(band, dt, space_grid)
    if not np.all(np.isfinite(data)):
        raise UsageError("payoff produced non-finite values on the grid")
    stack = np.empty((lanes, space_grid.n_points))
    stack[...] = data
    march = _FlatMarch(band, dt, space_grid.dx, space_grid.n_points, lanes,
                       stack.dtype)
    flat, read, fed = stack.reshape(-1), stack[:lanes - lag], stack[lag:]
    # one lane goes to the source as a row: indexing a one-row stack
    # costs the source (its gradient) about 2 us more per step
    if len(read) == 1:
        read, fed = read[0], fed[0]
    yield stack
    for i in range(n):
        if source is not None:
            f = source(i, read)
        march(flat, 1)
        if source is not None:
            fed += dt * f
        yield stack


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
    The surface runs forward: ``values[0]`` is the payoff and time is the
    time elapsed since it, so row i holds ``x -> E[payoff(x + B_{t_i})]``.
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
    values = np.empty((time_grid.n_steps + 1, space_grid.n_points))
    for row, lanes in zip(values, sweep_rows(data, band, time_grid.dt,
                                             space_grid, time_grid.n_steps)):
        row[...] = lanes[0]
    return ValueSurface(band, time_grid, space_grid, values)


def gradient(u: np.ndarray, dx: float) -> np.ndarray:
    """First difference along the last axis: centred, one-sided at the edges."""
    du = np.empty_like(u)
    du[..., 1:-1] = (u[..., 2:] - u[..., :-2]) / (2.0 * dx)
    du[..., 0] = (u[..., 1] - u[..., 0]) / dx
    du[..., -1] = (u[..., -1] - u[..., -2]) / dx
    return du


def curvature(u: np.ndarray, dx: float) -> np.ndarray:
    """Centred second difference along the last axis; edges copy their neighbour."""
    d2u = np.empty_like(u)
    d2u[..., 1:-1] = (u[..., 2:] - 2.0 * u[..., 1:-1] + u[..., :-2]) / (dx * dx)
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
    step = max(1, _BLOCK_BYTES // (8 * u.shape[-1]))
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
    step = max(1, _BLOCK_BYTES // (8 * u.shape[-1]))
    for r0 in range(0, len(u), step):
        out[r0:r0 + step] = curvature(u[r0:r0 + step], dx) >= 0.0
    return out


def export_surface_csv(surface: ValueSurface, path, time_stride: int = 1) -> int:
    """Write ``t,x,u,du_dx,d2u_dx2`` rows; returns the number of rows.

    ``time_stride`` thins the time axis for bulky CFL-limited surfaces.
    Floats are written with ``repr`` so identical surfaces produce
    byte-identical files.
    """
    if time_stride < 1:
        raise UsageError("time_stride must be >= 1")
    u, dx = surface.values, surface.space_grid.dx
    du_dx, d2u = gradient(u, dx), curvature(u, dx)
    times = surface.time_grid.times()
    xs = surface.space_grid.points()
    rows = 0
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "x", "u", "du_dx", "d2u_dx2"])
        idx = list(range(0, len(times), time_stride))
        if idx[-1] != len(times) - 1:
            idx.append(len(times) - 1)
        for i in idx:
            for j in range(len(xs)):
                w.writerow([repr(float(times[i])), repr(float(xs[j])),
                            repr(float(surface.values[i, j])),
                            repr(float(du_dx[i, j])), repr(float(d2u[i, j]))])
                rows += 1
    return rows
