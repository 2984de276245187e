"""Monotone explicit solver for the band-generator heat equation.

The scheme marches ``u <- u + dt * G(second difference of u)`` from the
data layer, with the payoff's own values frozen at the two boundary nodes
(Dirichlet-from-data).  Under the CFL restriction ``dt <= dx^2 / var_hi``
the update is monotone, hence stable and convergent for the fully
nonlinear equation; the CFL bound is enforced, never silently repaired.

A surface solved forward from initial data satisfies
``u(t, x) ~ E[payoff(x + B_t)]`` under the band's sublinear expectation;
backward-oriented surfaces (terminal data) arrive from the conditional
and path-PDE layers and share the representation and export code here.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .core import GParams, SpaceGrid, TimeGrid, g_value, sign_vol
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


# Rows marched together: about 256 KB of ``u``, so a block and its two
# scratch buffers stay in a core's L2 cache for a whole interval.
_BLOCK_BYTES = 256 * 1024


def march_steps(u: np.ndarray, band: GParams, dt: float, n: int, dx: float) -> np.ndarray:
    """Apply ``n`` explicit steps in place along the last axis of ``u``.

    Boundary nodes (first/last column) are left untouched.  Works for any
    leading shape, which is how the parameterised conditional solves reuse
    this kernel.  Caller is responsible for the CFL check.

    The stencil acts along the last axis only, so every row evolves on its
    own.  The leading axes are viewed as rows, split into fixed blocks of
    about ``_BLOCK_BYTES``, and each block is marched through all ``n``
    steps before the next, with ``O(block)`` scratch allocated once per
    call.  The result is bitwise equal to updating the whole array step by
    step, ``u[..., 1:-1] += dt * G(second difference)``, whatever the block
    size.  Leading axes that cannot be viewed as rows without a copy (some
    strided views of 3+-axis arrays) raise :class:`UsageError`.
    """
    m = u.shape[-1]
    if n <= 0 or m < 3 or u.size == 0:
        return u
    rows = u.reshape(-1, m)
    if not np.may_share_memory(rows, u):
        raise UsageError(
            f"march_steps: u of shape {u.shape} and strides {u.strides} "
            f"cannot be viewed as rows without a copy; pass a contiguous array"
        )
    block = max(1, _BLOCK_BYTES // (m * u.itemsize))
    inv_dx2 = 1.0 / (dx * dx)
    half_dt = 0.5 * dt
    var_hi, var_lo = band.var_hi, band.var_lo
    curv = np.empty((min(block, len(rows)), m - 2), dtype=u.dtype)
    gain = np.empty_like(curv)
    for start in range(0, len(rows), block):
        ub = rows[start:start + block]
        c, g = curv[:len(ub)], gain[:len(ub)]
        left, mid, right = ub[:, :-2], ub[:, 1:-1], ub[:, 2:]
        for _ in range(n):
            # ((right - 2*mid) + left) * inv_dx2: the whole-array rounding order
            np.multiply(mid, 2.0, out=c)
            np.subtract(right, c, out=c)
            np.add(c, left, out=c)
            np.multiply(c, inv_dx2, out=c)
            # G(c) * dt = (var_hi*max(c,0) + var_lo*min(c,0)) * (0.5*dt);
            # halving is exact (barring underflow), so this equals
            # dt * (0.5 * (var_hi*max(c,0) - var_lo*max(-c,0))) bitwise
            np.maximum(c, 0.0, out=g)
            np.multiply(g, var_hi, out=g)
            np.minimum(c, 0.0, out=c)
            np.multiply(c, var_lo, out=c)
            np.add(g, c, out=g)
            np.multiply(g, half_dt, out=g)
            np.add(mid, g, out=mid)
    return u


@dataclass(frozen=True, eq=False)
class ValueSurface:
    """Solved values on a time x space grid.

    ``values[i, j]`` is the solution at ``(times()[i], points()[j])``.
    ``orientation`` records where the data layer sits: ``"forward"`` means
    ``values[0]`` is the payoff (elapsed-time coordinate), ``"backward"``
    means ``values[-1]`` is the payoff (absolute-time coordinate).
    """

    band: GParams
    time_grid: TimeGrid
    space_grid: SpaceGrid
    values: np.ndarray
    orientation: str = "forward"
    name: str = ""

    def __post_init__(self) -> None:
        expect = (self.time_grid.n_steps + 1, self.space_grid.n_points)
        if self.values.shape != expect:
            raise UsageError(
                f"surface values shape {self.values.shape} != grid shape {expect}"
            )
        if self.orientation not in ("forward", "backward"):
            raise UsageError(f"orientation must be forward/backward, got {self.orientation!r}")

    @property
    def data_layer(self) -> np.ndarray:
        return self.values[0] if self.orientation == "forward" else self.values[-1]

    def value(self, t: float, x: float) -> float:
        """Bilinear interpolation in (t, x); refuses to extrapolate."""
        tg, sg = self.time_grid, self.space_grid
        if not (-1e-12 <= t <= tg.horizon * (1.0 + 1e-12)):
            raise ExtrapolationError(f"t={t!r} outside [0, {tg.horizon}]")
        if not sg.covers(x):
            raise ExtrapolationError(f"x={x!r} outside [{sg.x_min}, {sg.x_max}]")
        ti = min(int(t / tg.dt), tg.n_steps - 1)
        wt = t / tg.dt - ti
        row = (1.0 - wt) * self.values[ti] + wt * self.values[ti + 1]
        return float(np.interp(x, sg.points(), row))


def solve_gheat(payoff, band: GParams, time_grid: TimeGrid,
                space_grid: SpaceGrid, name: str = "") -> ValueSurface:
    """Solve the band heat equation forward from initial data.

    ``payoff`` is a callable evaluated on the space grid, or a ready-made
    array of nodal values.  Returns a forward-oriented surface whose row i
    approximates ``x -> E[payoff(x + B_{t_i})]``.
    """
    dt, dx = time_grid.dt, space_grid.dx
    check_cfl(band, dt, space_grid)
    x = space_grid.points()
    data = np.asarray(payoff(x) if callable(payoff) else payoff, dtype=float)
    if data.shape != x.shape:
        raise UsageError(f"payoff samples shape {data.shape} != grid shape {x.shape}")
    if not np.all(np.isfinite(data)):
        raise UsageError("payoff produced non-finite values on the grid")

    values = np.empty((time_grid.n_steps + 1, space_grid.n_points))
    values[0] = data
    for i in range(1, time_grid.n_steps + 1):
        values[i] = values[i - 1]
        march_steps(values[i], band, dt, 1, dx)
    return ValueSurface(band, time_grid, space_grid, values, "forward", name)


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


def derivative_fields(surface: ValueSurface):
    """Finite-difference derivative fields (du_dt, du_dx, d2u_dx2).

    The time derivative is the one-sided difference ``(u[i+1] - u[i]) / dt``
    the marching scheme advances with; :func:`pde_residual` pairs it with
    the curvature of the row the scheme read, which leaves rounding noise
    for solved surfaces.  Centred time differences would instead pick up
    the scheme's own smoothing lag near kinked data.  Space derivatives
    are :func:`gradient` and :func:`curvature`.
    """
    u = surface.values
    dt, dx = surface.time_grid.dt, surface.space_grid.dx

    du_dt = np.empty_like(u)
    du_dt[:-1] = (u[1:] - u[:-1]) / dt
    du_dt[-1] = (u[-1] - u[-2]) / dt
    return du_dt, gradient(u, dx), curvature(u, dx)


def pde_residual(surface: ValueSurface) -> np.ndarray:
    """Interior residual ``du_dt -/+ G(d2u_dx2)`` of a solved surface.

    Forward surfaces solve ``u_t - G(u_xx) = 0`` and backward ones
    ``u_t + G(u_xx) = 0``; row i pairs ``(u[i+1] - u[i]) / dt`` with the
    curvature of the row the scheme read (i forward, i+1 backward).  For
    surfaces produced by the marching kernel the interior residual is zero
    to rounding by construction, so this is a self-consistency check, not
    an accuracy estimate.
    """
    du_dt, _, d2u = derivative_fields(surface)
    g = g_value(surface.band, d2u)
    if surface.orientation == "forward":
        return (du_dt - g)[:-1, 1:-1]
    return (du_dt[:-1] + g[1:])[:, 1:-1]


def feedback_field(surface: ValueSurface) -> np.ndarray:
    """Bang-bang volatility field sign_vol(curvature) on the surface grid.

    Values are exactly sigma_lo or sigma_hi everywhere; edge columns copy
    their interior neighbour since curvature is not defined there.
    """
    d2u = curvature(surface.values, surface.space_grid.dx)
    return np.asarray(sign_vol(surface.band, d2u))


def export_surface_csv(surface: ValueSurface, path, time_stride: int = 1) -> int:
    """Write ``t,x,u,du_dx,d2u_dx2`` rows; returns the number of rows.

    ``time_stride`` thins the time axis for bulky CFL-limited surfaces.
    Floats are written with ``repr`` so identical surfaces produce
    byte-identical files.
    """
    if time_stride < 1:
        raise UsageError("time_stride must be >= 1")
    _, du_dx, d2u = derivative_fields(surface)
    times = surface.time_grid.times()   # row i is at times[i] in both orientations
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
