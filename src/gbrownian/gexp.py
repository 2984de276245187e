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
recorded frames.  Conditional values
are multilinearly interpolated in the observed values and the current
position.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.interpolate import RegularGridInterpolator

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


def _interp_frame(frame: np.ndarray, space_grid: SpaceGrid, coords) -> float:
    pts = space_grid.points()
    coords = [float(c) for c in coords]
    for c in coords:
        if not space_grid.covers(c):
            raise ExtrapolationError(
                f"prefix value {c!r} outside the space grid "
                f"[{space_grid.x_min}, {space_grid.x_max}]"
            )
    if frame.ndim == 1:
        return float(np.interp(coords[0], pts, frame))
    interp = RegularGridInterpolator((pts,) * frame.ndim, frame, method="linear")
    return float(interp(np.asarray(coords)[None, :])[0])


def g_expectation(xi: CylinderFunctional, band: GParams,
                  time_grid: TimeGrid, space_grid: SpaceGrid) -> float:
    """Sublinear expectation of a cylinder functional at time zero.

    ``time_grid`` fixes the marching resolution (its dt must satisfy the
    CFL bound for the space grid) and must span the functional's horizon.
    """
    _validate_functional(xi, band, space_grid)
    if abs(time_grid.horizon - xi.horizon) > 1e-9 * max(1.0, xi.horizon):
        raise UsageError(
            f"time grid horizon {time_grid.horizon!r} must equal the "
            f"functional horizon {xi.horizon!r}"
        )
    frames = _backward_sweep(xi, band, space_grid, time_grid.dt, [0.0])
    return _interp_frame(frames[0], space_grid, [0.0])


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
    if abs(time_grid.horizon - xi.horizon) > 1e-9 * max(1.0, xi.horizon):
        raise UsageError("time grid horizon must equal the functional horizon")
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
    return _interp_frame(frame, space_grid, prefix)


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
