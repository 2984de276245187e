"""Sublinear expectations of cylinder functionals via nested backward solves.

For a functional of the path at dates ``t_1 < ... < t_n`` the value is
computed by solving the band heat equation backward interval by interval:
on ``[t_k, t_{k+1}]`` the unknown depends on the current position plus the
``k`` already-observed path values, which are discretised on the *same*
space grid and carried as leading array axes.  At each date the terminal
condition for the earlier interval is obtained by setting the newly
observed value equal to the current position (a diagonal slice).

Cost and memory scale like ``n_steps * n_points ** n``; the number of
monitoring dates is therefore capped (see ``N_MAX``).  Each interval is
marched by ``gheat.march_steps``, one cache-sized block of rows at a time,
so the sweep's scratch is bounded by one block on top of ``u`` and the
recorded frames.

Conditional values are multilinearly interpolated in the observed values
and the current position by one numpy kernel, :class:`FramePoints`, which
also serves the along-path walks of ``ito`` and ``gbsde``.  It finds each
point's grid cell once, by ``floor((x - x_min) / dx)`` and one exact
correction step, and shares the cell and weights between every field it
then evaluates (a frame, its gradient, its curvature).  Its rounding order
is that of ``np.interp`` on one axis and of the linear
``RegularGridInterpolator`` on two and three, so its values are bitwise
theirs.  Points outside the grid, NaN included, raise
:class:`ExtrapolationError`: nothing is clamped or extrapolated.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

import numpy as np

from .core import CylinderFunctional, GParams, SpaceGrid, TimeGrid
from .errors import (
    CapabilityError,
    DomainError,
    ExtrapolationError,
    UsageError,
)
from .gheat import check_cfl, march_steps

# Declared capability: meshes with more than this many monitoring dates are
# refused up front rather than thrashing memory (n_points**n values live at
# once during the sweep).
N_MAX = 3


def _validate_functional(xi: CylinderFunctional, band: GParams,
                         space_grid: SpaceGrid) -> None:
    if xi.n_times > N_MAX:
        raise CapabilityError(
            f"cylinder functionals with {xi.n_times} monitoring dates exceed "
            f"the supported maximum of {N_MAX}; the parameter mesh would hold "
            f"n_points**{xi.n_times} values"
        )
    if band.sigma_hi * math.sqrt(xi.horizon) > (space_grid.x_max - space_grid.x_min):
        # not an error: just a hopeless grid; fail loudly instead of quietly
        raise UsageError(
            "space grid narrower than one diffusive standard deviation; "
            "widen [x_min, x_max]"
        )


def _backward_sweep(xi: CylinderFunctional, band: GParams,
                    space_grid: SpaceGrid, dt_max: float,
                    record_times) -> list:
    """March the nested backward solves, photographing requested times.

    ``record_times`` must be sorted ascending within ``[0, horizon]``.
    Returns one array per requested time; the array for a time in the
    interval ``[t_k, t_{k+1})`` has ``k + 1`` axes (observed values first,
    current position last), all indexed by the space grid.  A requested
    time equal to ``t_k`` is photographed *before* the diagonal stitch, so
    its frame still carries the k-th observed value as its own axis.
    """
    check_cfl(band, dt_max, space_grid)
    x = space_grid.points()
    dx = space_grid.dx
    horizon = xi.horizon
    rec = [float(t) for t in record_times]
    if any(b < a for a, b in zip(rec, rec[1:])):
        raise UsageError("record times must be sorted ascending")
    if rec and (rec[0] < -1e-12 or rec[-1] > horizon * (1.0 + 1e-12)):
        raise UsageError(f"record times must lie in [0, {horizon}]")

    n = xi.n_times
    boundaries = (0.0,) + xi.times  # boundaries[k] opens interval k
    payoff = xi.as_levels()
    mesh = np.meshgrid(*([x] * n), indexing="ij", sparse=True)
    u = np.asarray(payoff(*mesh), dtype=float)
    u = np.broadcast_to(u, (space_grid.n_points,) * n).copy()
    if not np.all(np.isfinite(u)):
        raise UsageError("payoff produced non-finite values on the mesh")

    frames: list = [None] * len(rec)
    tol = 1e-12 * max(1.0, horizon)
    next_rec = len(rec) - 1
    current_t = horizon
    # photograph anything sitting exactly at the horizon
    while next_rec >= 0 and rec[next_rec] >= horizon - tol:
        frames[next_rec] = u.copy()
        next_rec -= 1

    for k in range(n - 1, -1, -1):
        lower = boundaries[k]
        while True:
            # next stop inside this interval: a record time or the boundary
            target = rec[next_rec] if next_rec >= 0 and rec[next_rec] > lower + tol else lower
            duration = current_t - target
            if duration > tol:
                steps = max(1, int(math.ceil(duration / dt_max - 1e-12)))
                march_steps(u, band, duration / steps, steps, dx)
            current_t = target
            if next_rec >= 0 and abs(rec[next_rec] - current_t) <= tol:
                while next_rec >= 0 and abs(rec[next_rec] - current_t) <= tol:
                    frames[next_rec] = u.copy()
                    next_rec -= 1
            if current_t <= lower + tol:
                break
        if k > 0:
            # observed value at t_k becomes the current position: take the
            # diagonal of the last two axes as the earlier interval's data
            u = np.ascontiguousarray(np.einsum("...ii->...i", u))
    return frames


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
        pts = space_grid.points()
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


def g_expectation(xi: CylinderFunctional, band: GParams,
                  time_grid: TimeGrid, space_grid: SpaceGrid) -> float:
    """Sublinear expectation of a cylinder functional at time zero: the
    conditional value at ``t = 0`` with the path at the origin.

    ``time_grid`` fixes the marching resolution (its dt must satisfy the
    CFL bound for the space grid) and must span the functional's horizon.
    """
    return conditional_g_expectation(xi, 0.0, (0.0,), band, time_grid,
                                     space_grid)


def conditional_g_expectation(xi: CylinderFunctional, t: float, prefix,
                              band: GParams, time_grid: TimeGrid,
                              space_grid: SpaceGrid) -> float:
    """Conditional value at time ``t`` given the observed path prefix.

    ``prefix`` lists the path values at the functional's dates ``<= t``
    followed by the current position ``w(t)`` (so its length is always
    ``#\\{t_i <= t\\} + 1``; when ``t`` equals a monitoring date the last
    two entries coincide).  At ``t = 0`` that means ``prefix = (0.0,)``;
    at ``t = horizon`` the payoff is evaluated directly on the prefix.
    """
    _validate_functional(xi, band, space_grid)
    time_grid.require_horizon(xi.horizon, "functional")
    t = float(t)
    horizon = xi.horizon
    tol = 1e-12 * max(1.0, horizon)
    if t < -tol or t > horizon + tol:
        raise UsageError(f"conditioning time {t!r} outside [0, {horizon}]")
    n_observed = sum(1 for ti in xi.times if ti <= t + tol)
    prefix = [float(v) for v in prefix]
    if len(prefix) != n_observed + 1:
        raise UsageError(
            f"prefix must supply the {n_observed} observed values plus the "
            f"current position ({n_observed + 1} entries), got {len(prefix)}"
        )
    if t >= horizon - tol:
        return float(np.asarray(xi.as_levels()(*prefix[:-1]), dtype=float))
    frames = _backward_sweep(xi, band, space_grid, time_grid.dt, [t])
    frame = frames[0]
    if frame.ndim != len(prefix):
        raise UsageError(
            f"internal frame arity {frame.ndim} does not match prefix "
            f"length {len(prefix)}"
        )
    return float(FramePoints(space_grid, [[v] for v in prefix])(frame)[0])


def conditional_frames(xi: CylinderFunctional, band: GParams,
                       space_grid: SpaceGrid, record_times,
                       dt_max: float) -> list:
    """Conditional-value arrays photographed at many times in one sweep.

    This is the bulk interface behind the pathwise decompositions: it
    amortises one backward solve over all requested times instead of
    re-solving per time.  See ``_backward_sweep`` for frame conventions.
    """
    _validate_functional(xi, band, space_grid)
    return _backward_sweep(xi, band, space_grid, dt_max, record_times)


def lp_norm(xi: CylinderFunctional, p: float, band: GParams,
            time_grid: TimeGrid, space_grid: SpaceGrid) -> float:
    """Sublinear L^p seminorm: ``(expectation of |xi|^p) ** (1/p)``.

    Only ``p >= 1`` gives a norm on the functional class; smaller p raises
    :class:`DomainError`.
    """
    p = float(p)
    if not p >= 1.0:
        raise DomainError(f"lp_norm needs p >= 1, got {p!r}")
    base = xi.as_levels()

    def abs_p(*args):
        return np.abs(base(*args)) ** p

    powered = CylinderFunctional(
        times=xi.times,
        payoff=abs_p,
        lipschitz_bound=p * self_pow(xi.value_bound, p - 1.0) * xi.lipschitz_bound,
        value_bound=self_pow(xi.value_bound, p),
        convention="levels",
        name=f"|{xi.name or 'xi'}|^{p}",
    )
    return g_expectation(powered, band, time_grid, space_grid) ** (1.0 / p)


def self_pow(base: float, exponent: float) -> float:
    """max(base, 1)^exponent — a safe envelope constant for |x|^p bounds."""
    return max(base, 1.0) ** exponent
