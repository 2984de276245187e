"""Sublinear expectations of cylinder functionals via nested backward solves.

For a functional of the path at dates ``t_1 < ... < t_n`` the value is
computed by solving the band heat equation backward interval by interval:
on ``[t_k, t_{k+1}]`` the unknown depends on the current position plus the
``k`` already-observed path values, which are discretised on the *same*
space grid and carried as leading array axes.  At each date the terminal
condition for the earlier interval is obtained by setting the newly
observed value equal to the current position (a diagonal slice).

Each interval marches each *distinct* row of the mesh once (a row being
the current position's axis at fixed observed values): at the start of
the interval the rows are grouped by their bytes, and a payoff that
reads the observed values through a statistic (a running max, a mean)
has far fewer distinct rows than rows -- 702 of 14641 for the 3-date
``|mean|`` at 121 points, 121 for the 3-date max.  A row's march does
not depend on its neighbours, so every frame is bitwise the full-mesh
sweep's.  A mesh whose rows are all distinct is marched in place.  Cost
scales like ``n_steps * distinct rows * n_points``; memory still scales
like ``n_points ** n`` (the payoff mesh is full, as is a frame gathered
from grouped rows), so the number of monitoring dates stays capped (see
``N_MAX``).  Each interval is marched by ``gheat.march_steps``, one
cache-sized block of rows at a time, each block as one flat contiguous
run of nodes, so the sweep's scratch is bounded by one block on top of
the rows and the frame being read.

Conditional values have one home, the frames of one sweep at the
requested times, each handed to a visitor as it is photographed and not
kept.  They are multilinearly interpolated in the observed values and
the current position by ``gheat.FramePoints``, the grid interpolator that
also serves ``ValueSurface.value`` and the along-path walk of ``ito``
(which ``gbsde`` reads too); points off the grid raise
:class:`ExtrapolationError`.  :func:`g_expectation` reads the frame at
``t = 0`` at the origin, and :func:`conditional_frames` keeps a copy of
each.
"""

from __future__ import annotations

import math

import numpy as np

from .core import CylinderFunctional, GParams, SpaceGrid, TimeGrid
from .errors import CapabilityError, UsageError
from .gheat import FramePoints, _block_rows, check_cfl, march_steps

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


def _distinct_rows(u: np.ndarray):
    """The distinct rows of ``u`` along its last axis, told apart by their
    bytes, as ``(rows, inverse)`` with ``u.reshape(-1, m)`` equal to
    ``rows[inverse]``.  When every row is distinct, ``rows`` is that view
    of ``u`` itself and ``inverse`` is ``arange``: the mesh is marched in
    place.

    Bytes, not float values: ``-0.0`` and ``+0.0`` stay apart, as do rows
    one ulp apart, so a row marched for its group is bitwise the march of
    each member.  Each row is one ``void`` key; ``argsort`` orders the
    keys without moving them, and neighbours in that order are compared a
    block at a time, so the scratch is the order, the group labels and one
    block of keys, never a copy of ``u``.
    """
    m = u.shape[-1]
    rows = u.reshape(-1, m)
    keys = u.reshape(-1).view(np.dtype((np.void, m * u.itemsize)))
    order = np.argsort(keys)
    first = np.empty(len(keys), dtype=bool)   # first of its group in order
    first[0] = True
    step = _block_rows(u)
    for start in range(1, len(keys), step):
        block = keys[order[start - 1:start + step]]
        first[start:start + len(block) - 1] = block[1:] != block[:-1]
    group = np.cumsum(first, dtype=order.dtype)
    if group[-1] == len(keys):
        return rows, np.arange(len(keys))
    group -= 1
    inverse = np.empty_like(order)
    inverse[order] = group
    return rows[order[first]], inverse


def _backward_sweep(xi: CylinderFunctional, band: GParams,
                    space_grid: SpaceGrid, dt_max: float,
                    record_times, visit) -> None:
    """March the nested backward solves, photographing requested times.

    ``record_times`` must be finite and sorted ascending within
    ``[0, horizon]``.  ``visit(i, frame)`` sees each requested time's frame,
    the latest first, valid and read-only during the call: none is kept.
    A frame for a time in ``[t_k, t_{k+1})`` has ``k + 1`` axes (observed
    values first, current position last), all indexed by the space grid.
    A requested time equal to ``t_k`` is photographed *before* the
    diagonal stitch, so its frame still carries the k-th observed value as
    its own axis.

    Each interval marches the distinct rows of ``u`` (:func:`_distinct_rows`);
    a frame is ``u`` itself when every row is distinct, else gathered back
    through the inverse index, and the stitch gathers the diagonal
    ``u[..., i, i]`` from the distinct rows directly.
    """
    _validate_functional(xi, band, space_grid)
    check_cfl(band, dt_max, space_grid)
    x = space_grid.points()
    dx = space_grid.dx
    horizon = xi.horizon
    rec = [float(t) for t in record_times]
    for t in rec:
        if not math.isfinite(t):    # NaN would pass both checks below
            raise UsageError(f"record time {t!r} is not finite")
    if any(b < a for a, b in zip(rec, rec[1:])):
        raise UsageError("record times must be sorted ascending")
    if rec and (rec[0] < -1e-12 or rec[-1] > horizon * (1.0 + 1e-12)):
        raise UsageError(f"record times must lie in [0, {horizon}]")

    n = xi.n_times
    boundaries = (0.0,) + xi.times  # boundaries[k] opens interval k
    mesh = np.meshgrid(*([x] * n), indexing="ij", sparse=True)
    u = np.asarray(xi.payoff(*mesh), dtype=float)
    u = np.broadcast_to(u, (space_grid.n_points,) * n).copy()
    if not (math.isfinite(np.min(u)) and math.isfinite(np.max(u))):   # NaN too
        raise UsageError("payoff produced non-finite values on the mesh")

    tol = 1e-12 * max(1.0, horizon)
    next_rec = len(rec) - 1
    current_t = horizon
    # photograph anything sitting exactly at the horizon
    while next_rec >= 0 and rec[next_rec] >= horizon - tol:
        visit(next_rec, u)
        next_rec -= 1

    for k in range(n - 1, -1, -1):
        lower = boundaries[k]
        shape = u.shape
        # march each distinct row once; a view of u when all are distinct
        rows, inverse = _distinct_rows(u)
        del u                   # a grouped mesh is freed here
        index = inverse.reshape(shape[:-1])     # each row's distinct row
        while True:
            # next stop inside this interval: a record time or the boundary
            target = rec[next_rec] if next_rec >= 0 and rec[next_rec] > lower + tol else lower
            duration = current_t - target
            if duration > tol:
                steps = max(1, int(math.ceil(duration / dt_max - 1e-12)))
                march_steps(rows, band, duration / steps, steps, dx)
            current_t = target
            while next_rec >= 0 and abs(rec[next_rec] - current_t) <= tol:
                visit(next_rec, rows.reshape(shape) if len(rows) == index.size
                      else rows.take(index, axis=0))
                next_rec -= 1
            if current_t <= lower + tol:
                break
        if k > 0:
            # observed value at t_k becomes the current position: take the
            # diagonal of the last two axes as the earlier interval's data
            u = rows[index, np.arange(shape[-1])]


def g_expectation(xi: CylinderFunctional, band: GParams,
                  time_grid: TimeGrid, space_grid: SpaceGrid) -> float:
    """Sublinear expectation of a cylinder functional at time zero: the
    one-axis frame at ``t = 0`` read at the origin.

    ``time_grid`` fixes the marching resolution (its dt must satisfy the
    CFL bound for the space grid) and must span the functional's horizon.
    """
    time_grid.require_horizon(xi.horizon, "functional")
    value = np.empty(1)
    _backward_sweep(xi, band, space_grid, time_grid.dt, [0.0], lambda i, frame:
                    FramePoints(space_grid, [[0.0]])(frame, out=value))
    return float(value[0])


def conditional_frames(xi: CylinderFunctional, band: GParams,
                       space_grid: SpaceGrid, record_times,
                       dt_max: float) -> list:
    """Conditional-value arrays photographed at many times in one sweep,
    each a kept copy: the sweep with a visitor that collects every frame,
    the reference for the along-path walks, which read each frame as the
    sweep photographs it.  See ``_backward_sweep`` for the frames' layout.
    """
    frames: list = []
    _backward_sweep(xi, band, space_grid, dt_max, record_times,
                    lambda i, frame: frames.append(frame.copy()))
    return frames[::-1]
