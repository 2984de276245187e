"""Core primitives: volatility band, generator maps, grids, functionals,
and admissible volatility controls.

Everything downstream is parameterised by a volatility band
``[sigma_lo, sigma_hi]``.  The band induces the sublinear generator

    G(a) = 0.5 * (sigma_hi^2 * max(a, 0) - sigma_lo^2 * max(-a, 0)),

and its tilted variant ``G_eps(a) = G(a) - (eps/2) * |a|``.  Grids are
uniform; cylinder functionals are payoffs of the path levels at their own
monitoring dates, with declared regularity bounds that construction
spot-checks; controls are the adapted volatility processes the Monte Carlo
layer can simulate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Integral
from typing import Callable

import numpy as np

from .errors import (
    ConfigurationError,
    DataError,
    DomainError,
    ExtrapolationError,
    UsageError,
)


# ---------------------------------------------------------------------------
# volatility band and scalar maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GParams:
    """Volatility band.  Stores volatilities, not variances.

    Invariant: ``0 < sigma_lo <= sigma_hi``.  A degenerate band
    (``sigma_lo == sigma_hi``) reduces every construction here to its
    classical single-volatility counterpart, which the tests exploit.
    """

    sigma_lo: float
    sigma_hi: float

    def __post_init__(self) -> None:
        lo, hi = float(self.sigma_lo), float(self.sigma_hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ConfigurationError("band volatilities must be finite")
        if not (0.0 < lo <= hi):
            raise ConfigurationError(
                f"band requires 0 < sigma_lo <= sigma_hi, got "
                f"sigma_lo={lo!r}, sigma_hi={hi!r}"
            )
        object.__setattr__(self, "sigma_lo", lo)
        object.__setattr__(self, "sigma_hi", hi)

    @property
    def var_lo(self) -> float:
        return self.sigma_lo * self.sigma_lo

    @property
    def var_hi(self) -> float:
        return self.sigma_hi * self.sigma_hi

    @property
    def var_spread(self) -> float:
        """Width ``sigma_hi^2 - sigma_lo^2`` of the variance interval."""
        return self.var_hi - self.var_lo

    def contains_level(self, level, tol: float = 0.0):
        """Elementwise test that volatility levels lie inside the band."""
        a = np.asarray(level, dtype=float)
        return (a >= self.sigma_lo - tol) & (a <= self.sigma_hi + tol)


def _as_float_array(a):
    arr = np.asarray(a, dtype=float)
    return arr, (arr.ndim == 0)


def _g_inplace(band: GParams, a: np.ndarray, scratch: np.ndarray,
               half: float = 0.5) -> np.ndarray:
    """Overwrite ``a`` with G(a); ``scratch`` is a buffer of a's shape.

    Rounded as ``(max(var_lo * a, var_hi * a) + 0.0) * half``: ``2 G(a)``
    is the larger band-edge product, the bang-bang maximiser of
    ``a * sigma^2``.  This is bitwise
    ``(var_lo * min(a, 0) + var_hi * max(a, 0)) * half``, that is
    ``half * (var_hi * a^+ - var_lo * a^-)``, for every input: rounding is
    monotone and ``var_lo <= var_hi``, so the max is ``var_hi * a`` for
    ``a > 0`` and ``var_lo * a`` for ``a < 0``, the products the split-sign
    sum keeps, and ``+ 0.0`` turns every zero result into ``+0.0``, as the
    sum's ``0.0 + x`` does.  The one difference is that ``var_hi * a`` is
    now formed for a negative ``a`` too, so a huge negative ``a`` can
    overflow there and numpy warns; the max discards that product and the
    bits do not change.  ``half = 0.5 * dt`` gives the explicit step's
    ``dt * G(a)`` in the same pass.
    """
    np.multiply(a, band.var_hi, out=scratch)
    a *= band.var_lo
    np.maximum(a, scratch, out=a)
    a += 0.0
    a *= half
    return a


def g_value(band: GParams, a):
    """Sublinear generator G(a) = (var_hi * a^+ - var_lo * a^-) / 2.

    Accepts scalars or arrays; scalars come back as plain floats.
    """
    arr, scalar = _as_float_array(a)
    out = _g_inplace(band, arr.copy(), np.empty(arr.shape))
    return float(out) if scalar else out


def g_eps_value(band: GParams, eps: float, a):
    """Tilted generator G_eps(a) = G(a) - (eps/2)|a|.

    The tilt is only defined for ``0 <= eps <= (var_hi - var_lo)/2``;
    outside that interval the map is no longer a generator of the same
    family and the call raises :class:`DomainError`.
    """
    eps = float(eps)
    limit = 0.5 * band.var_spread
    if not (0.0 <= eps <= limit + 1e-15):
        raise DomainError(
            f"eps={eps!r} outside [0, (var_hi - var_lo)/2] = [0, {limit!r}]"
        )
    arr, scalar = _as_float_array(a)
    out = g_value(band, arr) - 0.5 * eps * np.abs(arr)
    return float(out) if scalar else out


def running_sum(steps: np.ndarray) -> np.ndarray:
    """Running sum of per-step increments along the last axis, on nodes:
    column 0 is zero and column ``k`` sums steps ``0 .. k-1``."""
    out = np.empty(steps.shape[:-1] + (steps.shape[-1] + 1,))
    out[..., 0] = 0.0
    np.cumsum(steps, axis=-1, out=out[..., 1:])
    return out


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def _set_count(obj, name: str, least: int) -> None:
    """Keep ``obj.<name>`` as an int: an integer, not a bool, >= ``least``."""
    value = getattr(obj, name)
    if isinstance(value, bool) or not isinstance(value, Integral) \
            or value < least:
        raise ConfigurationError(
            f"{name} must be an integer >= {least}, got {value!r}")
    object.__setattr__(obj, name, int(value))


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid on [0, horizon] with n_steps steps."""

    horizon: float
    n_steps: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.horizon) and self.horizon > 0.0):
            raise ConfigurationError(f"horizon must be > 0, got {self.horizon!r}")
        _set_count(self, "n_steps", 1)
        object.__setattr__(self, "horizon", float(self.horizon))

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)

    def require_horizon(self, horizon: float, what: str) -> None:
        """Refuse a ``what`` whose horizon is not this grid's, up to 1e-9
        relative; a NaN horizon is refused too."""
        if not abs(horizon - self.horizon) <= 1e-9 * max(1.0, self.horizon):
            raise UsageError(f"{what} horizon {horizon!r} does not match the "
                             f"time grid horizon {self.horizon!r}")

    def index_of(self, t: float) -> int:
        """Grid index of a time that must sit on the grid (up to 1e-9
        relative)."""
        if not math.isfinite(t):
            raise UsageError(f"time {t!r} is not finite")
        # clamped first, so a huge t is off the grid, not an OverflowError
        idx = round(min(max(t / self.dt, -1.0), self.n_steps + 1.0))
        if idx < 0 or idx > self.n_steps or abs(idx * self.dt - t) > 1e-9 * max(1.0, self.horizon):
            raise UsageError(f"time {t!r} is not a node of the grid (dt={self.dt!r})")
        return idx

    def step_intervals(self, breaks, what: str) -> np.ndarray:
        """Interval index of each step under increasing ``breaks``, nodes
        from 0 to the horizon (by :meth:`index_of`, so up to 1e-9
        relative): step k takes the interval of the largest start <= k.
        Every interval must start on its own node before the horizon's, so
        each gets a step at least."""
        self.require_horizon(breaks[-1], what)
        starts = [self.index_of(b) for b in breaks[:-1]]
        if starts[0] != 0:
            raise UsageError(f"{what} must span [0, horizon], got {breaks!r}")
        if any(b <= a for a, b in zip(starts, starts[1:] + [self.n_steps])):
            raise UsageError(f"{what} breaks {list(breaks)} start two intervals "
                             f"on one node of the grid (dt={self.dt!r})")
        return np.searchsorted(starts, np.arange(self.n_steps),
                               side="right") - 1


@dataclass(frozen=True)
class SpaceGrid:
    """Uniform spatial grid on [x_min, x_max] with n_points nodes."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self) -> None:
        for name in ("x_min", "x_max"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value!r}")
        if not (self.x_min < self.x_max):
            raise ConfigurationError(
                f"x_min must be < x_max, got [{self.x_min!r}, {self.x_max!r}]"
            )
        _set_count(self, "n_points", 3)     # three for second differences
        object.__setattr__(self, "x_min", float(self.x_min))
        object.__setattr__(self, "x_max", float(self.x_max))

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    def points(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)

    @cached_property
    def _nodes(self) -> np.ndarray:
        """``points()`` built once and read-only: the grid interpolator
        reads it for every frame of a walk."""
        pts = self.points()
        pts.flags.writeable = False
        return pts


# ---------------------------------------------------------------------------
# cylinder functionals
# ---------------------------------------------------------------------------

_SPOT_CHECK_POINTS = 48


@dataclass(frozen=True)
class CylinderFunctional:
    """A functional of finitely many path values.

    ``payoff`` maps the path levels ``w(t_1), ..., w(t_n)`` at ``times``
    to a real number and must accept equal-shape numpy arrays (it is
    evaluated on meshes and on path matrices).  A payoff of increments
    takes the level differences itself, as ``lambda a, b: psi(b - a)``.

    ``lipschitz_bound`` and ``value_bound`` are the caller's declared
    regularity constants on the working region.  Construction spot-checks
    both on a seeded sample and raises :class:`DataError` on violation;
    nothing else reads them, so generous-but-honest values are fine.
    """

    times: tuple
    payoff: Callable
    lipschitz_bound: float
    value_bound: float
    name: str = ""

    def __post_init__(self) -> None:
        times = tuple(float(t) for t in self.times)
        if len(times) == 0:
            raise ConfigurationError("a cylinder functional needs at least one time")
        if not all(0.0 < t < math.inf for t in times) or any(
                b <= a for a, b in zip(times, times[1:])):
            raise ConfigurationError(
                f"monitoring dates must be finite, strictly increasing and > 0, "
                f"got {times}"
            )
        if not (self.lipschitz_bound > 0.0 and self.value_bound > 0.0):
            raise ConfigurationError("lipschitz_bound and value_bound must be > 0")
        object.__setattr__(self, "times", times)
        self._spot_check()

    @property
    def n_times(self) -> int:
        return len(self.times)

    @property
    def horizon(self) -> float:
        return self.times[-1]

    def _spot_check(self) -> None:
        # Cheap seeded sanity pass over a box a few diffusive standard
        # deviations wide; catches swapped bounds and non-finite payoffs
        # early rather than deep inside a solver.
        rng = np.random.default_rng(201711)
        n = self.n_times
        scale = 4.0 * max(1.0, math.sqrt(self.horizon))
        base = rng.uniform(-scale, scale, size=(_SPOT_CHECK_POINTS, n))
        bumped = base + rng.uniform(-0.5, 0.5, size=base.shape)
        va = np.asarray(self.payoff(*(base[:, j] for j in range(n))), dtype=float)
        vb = np.asarray(self.payoff(*(bumped[:, j] for j in range(n))), dtype=float)
        if not (np.all(np.isfinite(va)) and np.all(np.isfinite(vb))):
            raise DataError(f"payoff {self.name!r} returned non-finite values")
        cap = self.value_bound * (1.0 + 1e-9)
        if np.any(np.abs(va) > cap) or np.any(np.abs(vb) > cap):
            worst = float(max(np.max(np.abs(va)), np.max(np.abs(vb))))
            raise DataError(
                f"payoff {self.name!r} exceeds its declared value_bound="
                f"{self.value_bound!r} (saw {worst!r} on the spot-check box)"
            )
        lhs = np.abs(va - vb)
        rhs = self.lipschitz_bound * np.sum(np.abs(base - bumped), axis=1)
        if np.any(lhs > rhs * (1.0 + 1e-9) + 1e-12):
            raise DataError(
                f"payoff {self.name!r} violates its declared lipschitz_bound="
                f"{self.lipschitz_bound!r} on the spot-check sample"
            )

    def evaluate_levels(self, *levels):
        """Apply the payoff to path levels at the monitoring dates."""
        if len(levels) != self.n_times:
            raise UsageError(
                f"{self.name or 'functional'} takes {self.n_times} values, "
                f"got {len(levels)}"
            )
        return self.payoff(*levels)


# ---------------------------------------------------------------------------
# volatility controls
# ---------------------------------------------------------------------------

class ControlProcess:
    """Adapted volatility process with values in a band.

    Subclasses are immutable descriptions; per-simulation scratch state
    lives in the *driver* closure returned by :meth:`make_driver`, so one
    control instance may safely drive many simulations (also concurrently).
    A driver is called once per time step as ``driver(k, b_hist)`` where
    ``b_hist`` is the path history ``(n_paths, k+1)`` up to and including
    step ``k``; it returns the volatility levels applied on
    ``[t_k, t_{k+1})`` for every path.  ``b_hist`` is a read-only view
    (writing into it raises ``ValueError``) whose memory layout is
    unspecified: index it, do not rely on its strides, and copy what must
    outlive the call.  Drivers must be path-local (path p's levels depend
    on path p's history only): ``make_driver`` may run once per path chunk.
    """

    band: GParams
    kind: str = "abstract"

    def make_driver(self, time_grid: TimeGrid, n_paths: int) -> Callable:
        raise NotImplementedError

    def _check_levels(self, levels: np.ndarray, where: str) -> np.ndarray:
        bad = ~self.band.contains_level(levels, tol=1e-12)
        if np.any(bad):
            worst = float(np.asarray(levels)[bad].flat[0])
            raise DomainError(
                f"{self.kind} control produced level {worst!r} outside band "
                f"[{self.band.sigma_lo}, {self.band.sigma_hi}] at {where}"
            )
        return levels


@dataclass(frozen=True)
class ConstantControl(ControlProcess):
    """Constant volatility level."""

    band: GParams = None
    level: float = 0.0
    kind: str = field(default="constant", init=False)

    def __post_init__(self) -> None:
        if not bool(self.band.contains_level(self.level)):
            raise DomainError(
                f"constant level {self.level!r} outside band "
                f"[{self.band.sigma_lo}, {self.band.sigma_hi}]"
            )
        object.__setattr__(self, "level", float(self.level))

    def make_driver(self, time_grid: TimeGrid, n_paths: int) -> Callable:
        levels = np.full(n_paths, self.level)

        def driver(k, b_hist):
            return levels

        return driver


@dataclass(frozen=True)
class StepControl(ControlProcess):
    """Piecewise-constant-in-time control.

    ``breaks`` partitions ``[0, horizon]`` at nodes of the simulation grid
    (:meth:`TimeGrid.step_intervals`); ``levels[i]`` applies on
    ``[breaks[i], breaks[i+1])`` and is either a number or a callable
    receiving the path level at the interval's left endpoint (an array over
    paths) — enough to express measurable interval rules while staying
    adapted by construction.
    """

    band: GParams = None
    breaks: tuple = ()
    levels: tuple = ()

    kind: str = field(default="step", init=False)

    def __post_init__(self) -> None:
        breaks = tuple(float(b) for b in self.breaks)
        if len(breaks) < 2 or breaks[0] != 0.0:
            raise ConfigurationError("breaks must start at 0 and contain the horizon")
        if any(not b > a for a, b in zip(breaks, breaks[1:])):   # NaN too
            raise ConfigurationError(f"breaks must be strictly increasing: {breaks}")
        if len(self.levels) != len(breaks) - 1:
            raise ConfigurationError(
                f"need one level per interval: {len(breaks) - 1} intervals, "
                f"{len(self.levels)} levels"
            )
        for lv in self.levels:
            if not callable(lv) and not bool(self.band.contains_level(lv)):
                raise DomainError(f"step level {lv!r} outside band")
        object.__setattr__(self, "breaks", breaks)
        object.__setattr__(self, "levels", tuple(self.levels))

    def make_driver(self, time_grid: TimeGrid, n_paths: int) -> Callable:
        interval_of_step = time_grid.step_intervals(self.breaks, "control")
        state = {"interval": -1, "levels": None}

        def driver(k, b_hist):
            i = int(interval_of_step[k])
            if i != state["interval"]:
                rule = self.levels[i]
                if callable(rule):
                    raw = np.broadcast_to(
                        np.asarray(rule(b_hist[:, -1]), dtype=float), (n_paths,)
                    ).copy()
                else:
                    raw = np.full(n_paths, float(rule))
                state["levels"] = self._check_levels(raw, f"interval {i}")
                state["interval"] = i
            return state["levels"]

        return driver


@dataclass(frozen=True)
class SelfDependentControl(ControlProcess):
    """m equal blocks; the level on block i is a function of the path
    increments over the *earlier* blocks.

    ``rules[i]`` receives the i realized block increments in chronological
    order and returns the level for block i (``rules[0]`` may simply be a
    number).  Levels must stay inside the band; the driver enforces this
    pathwise at every block start.
    """

    band: GParams = None
    rules: tuple = ()

    kind: str = field(default="self_dependent", init=False)

    def __post_init__(self) -> None:
        if len(self.rules) < 1:
            raise ConfigurationError("need at least one block rule")
        first = self.rules[0]
        if not callable(first) and not bool(self.band.contains_level(first)):
            raise DomainError(f"first block level {first!r} outside band")
        object.__setattr__(self, "rules", tuple(self.rules))

    @property
    def n_blocks(self) -> int:
        return len(self.rules)

    def block_steps(self, time_grid: TimeGrid) -> int:
        m = self.n_blocks
        if time_grid.n_steps % m != 0:
            raise UsageError(
                f"grid with {time_grid.n_steps} steps cannot host {m} equal "
                f"blocks; n_steps must be a multiple of {m}"
            )
        return time_grid.n_steps // m

    def level_for_block(self, i: int, b_paths: np.ndarray,
                        block_steps: int) -> np.ndarray:
        """Levels on block i, one per path, from the block increments of
        ``b_paths`` (paths as rows, at least the first ``i * block_steps + 1``
        nodes of each, as a driver's history or a whole bundle holds them)."""
        rule = self.rules[i]
        if callable(rule):
            anchors = b_paths[:, 0:i * block_steps + 1:block_steps]
            raw = np.asarray(rule(*(anchors[:, j + 1] - anchors[:, j]
                                    for j in range(i))), dtype=float)
        else:
            raw = np.asarray(float(rule))
        out = np.broadcast_to(raw, (b_paths.shape[0],)).copy()
        return self._check_levels(out, f"block {i}")

    def make_driver(self, time_grid: TimeGrid, n_paths: int) -> Callable:
        bs = self.block_steps(time_grid)
        state = {"block": -1, "levels": None}

        def driver(k, b_hist):
            i = k // bs
            if i != state["block"]:
                state["levels"] = self.level_for_block(i, b_hist, bs)
                state["block"] = i
            return state["levels"]

        return driver


@dataclass(frozen=True)
class FeedbackControl(ControlProcess):
    """Bang-bang control read off a solved value surface.

    At simulation time t and position x the driver picks sigma_hi where
    ``feedback_field``'s mask says the curvature at (T - t, x) is
    ``>= 0``, else sigma_lo (the maximiser of ``curvature * sigma^2``), on
    the nearest node of the surface, which runs forward from 0 to at least
    the simulation's horizon T.  Paths that leave its space grid raise
    :class:`ExtrapolationError` — widen the grid rather than extrapolating.
    """

    band: GParams = None
    surface: object = None  # gheat.ValueSurface; duck-typed to avoid a cycle

    kind: str = field(default="feedback", init=False)

    @cached_property
    def _field(self) -> np.ndarray:    # once per control, not per driver
        from .gheat import feedback_field  # local import: gheat depends on core
        return feedback_field(self.surface)     # mask: curvature >= 0

    def make_driver(self, time_grid: TimeGrid, n_paths: int) -> Callable:
        surf = self.surface
        if surf.time_grid.horizon + 1e-9 < time_grid.horizon:
            raise UsageError(
                "feedback surface covers a shorter horizon than the simulation"
            )
        mask, lo, hi = self._field, surf.band.sigma_lo, surf.band.sigma_hi
        sg = surf.space_grid
        sdt = surf.time_grid.dt
        n_rows = surf.time_grid.n_steps

        def driver(k, b_hist):
            tau = time_grid.horizon - k * time_grid.dt
            row = min(max(int(round(tau / sdt)), 0), n_rows)
            x = b_hist[:, -1]
            cols = np.rint((x - sg.x_min) / sg.dx).astype(np.int64)
            if np.any(cols < 0) or np.any(cols >= sg.n_points):
                worst = float(x[np.argmax(np.abs(x))])
                raise ExtrapolationError(
                    f"path reached {worst!r}, outside the feedback surface grid "
                    f"[{sg.x_min}, {sg.x_max}]; enlarge the surface domain"
                )
            return np.where(mask[row, cols], hi, lo)

        return driver


@dataclass(frozen=True)
class PerturbationSchedule:
    """Recipe for rewriting one block level as a two-level mixture.

    ``refinement`` n splits every block of an m-block control into ``2**n``
    dyadic sub-blocks.  On the leading ``alpha`` fraction of each sub-block
    the ``sub_control`` runs; the trailing part carries the compensating
    constant level that restores the block's exact squared-level budget.

    ``alpha`` doubles as the tilt ratio: the associated shrink is
    ``eps = alpha * (var_hi - var_lo)``, and base levels must satisfy
    ``var_lo + eps <= level^2 <= var_hi - eps`` for the compensating level
    to stay inside the band (enforced pathwise during simulation).
    """

    refinement: int
    alpha: float
    sub_control: ControlProcess

    def __post_init__(self) -> None:
        _set_count(self, "refinement", 0)
        if not (0.0 < float(self.alpha) < 1.0):
            raise DomainError(f"alpha must lie in (0, 1), got {self.alpha!r}")
        if not isinstance(self.sub_control, ControlProcess):
            raise UsageError("sub_control must be a ControlProcess")
        if self.sub_control.band.var_spread <= 0.0:
            raise DomainError(
                "perturbation needs a non-degenerate band: with "
                "sigma_lo == sigma_hi there is no room to shrink"
            )
        object.__setattr__(self, "alpha", float(self.alpha))

    @property
    def band(self) -> GParams:
        return self.sub_control.band

    @property
    def eps(self) -> float:
        """Band shrink implied by alpha: eps = alpha * (var_hi - var_lo)."""
        return self.alpha * self.band.var_spread

    def shrunk_band_sq(self) -> tuple:
        """Admissible squared-level interval for base levels."""
        return (self.band.var_lo + self.eps, self.band.var_hi - self.eps)
