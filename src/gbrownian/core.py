"""Core primitives: volatility band, generator maps, grids, functionals,
and admissible volatility controls.

Everything downstream is parameterised by a volatility band
``[sigma_lo, sigma_hi]``.  The band induces the sublinear generator

    G(a) = 0.5 * (sigma_hi^2 * max(a, 0) - sigma_lo^2 * max(-a, 0)),

its tilted variant ``G_eps(a) = G(a) - (eps/2) * |a|``, and the bang-bang
volatility selector ``sign_vol``.  Grids are uniform; cylinder functionals
carry their own monitoring dates and regularity bounds; controls are the
adapted volatility processes the Monte Carlo layer can simulate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

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

    @property
    def is_degenerate(self) -> bool:
        return self.sigma_lo == self.sigma_hi

    def contains_level(self, level, tol: float = 0.0):
        """Elementwise test that volatility levels lie inside the band."""
        a = np.asarray(level, dtype=float)
        return (a >= self.sigma_lo - tol) & (a <= self.sigma_hi + tol)


def _as_float_array(a):
    arr = np.asarray(a, dtype=float)
    return arr, (arr.ndim == 0)


def g_value(band: GParams, a):
    """Sublinear generator G(a) = (var_hi * a^+ - var_lo * a^-) / 2.

    Accepts scalars or arrays; scalars come back as plain floats.
    """
    arr, scalar = _as_float_array(a)
    out = 0.5 * (band.var_hi * np.maximum(arr, 0.0)
                 - band.var_lo * np.maximum(-arr, 0.0))
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


def sign_vol(band: GParams, a):
    """Bang-bang volatility selector: sigma_hi where ``a >= 0``, else sigma_lo.

    This is the closed-form maximiser of ``a * sigma^2`` over the band, so
    ``a * sign_vol(band, a)**2 == 2 * g_value(band, a)`` pointwise.
    """
    arr, scalar = _as_float_array(a)
    out = np.where(arr >= 0.0, band.sigma_hi, band.sigma_lo)
    return float(out) if scalar else out


def delta_kalpha(k: int, alpha: float, s):
    """Alternating block sign on (0, 1].

    The unit interval is split into ``k`` equal blocks; each block
    contributes +1 on its leading ``alpha`` fraction ``](i)/k, (i+alpha)/k]``
    and -1 on the trailing remainder ``](i+alpha)/k, (i+1)/k]``.  The
    intervals are half-open on the left, so ``s = 0`` belongs to no block
    and raises :class:`DomainError`; so does anything outside ``(0, 1]``.
    """
    k = int(k)
    if k < 1:
        raise DomainError(f"block count k must be >= 1, got {k}")
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha!r}")
    arr, scalar = _as_float_array(s)
    if np.any(arr <= 0.0) or np.any(arr > 1.0):
        raise DomainError(
            "delta_kalpha is defined on (0, 1] only; the blocks are "
            "left-open so s = 0 is outside the domain"
        )
    scaled = arr * k
    block = np.ceil(scaled) - 1.0          # index i of the block ]i/k,(i+1)/k]
    position = scaled - block              # in (0, 1] within the block
    out = np.where(position <= alpha, 1.0, -1.0)
    return float(out) if scalar else out


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid on [0, horizon] with n_steps steps."""

    horizon: float
    n_steps: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.horizon) and self.horizon > 0.0):
            raise ConfigurationError(f"horizon must be > 0, got {self.horizon!r}")
        if int(self.n_steps) < 1:
            raise ConfigurationError(f"n_steps must be >= 1, got {self.n_steps!r}")
        object.__setattr__(self, "horizon", float(self.horizon))
        object.__setattr__(self, "n_steps", int(self.n_steps))

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)

    def index_of(self, t: float, tol: float = 1e-9) -> int:
        """Grid index of a time that must sit on the grid (up to tol)."""
        idx = int(round(t / self.dt))
        if idx < 0 or idx > self.n_steps or abs(idx * self.dt - t) > tol * max(1.0, self.horizon):
            raise UsageError(f"time {t!r} is not a node of the grid (dt={self.dt!r})")
        return idx


@dataclass(frozen=True)
class SpaceGrid:
    """Uniform spatial grid on [x_min, x_max] with n_points nodes."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self) -> None:
        if not (self.x_min < self.x_max):
            raise ConfigurationError(
                f"x_min must be < x_max, got [{self.x_min!r}, {self.x_max!r}]"
            )
        if int(self.n_points) < 3:
            raise ConfigurationError("n_points must be >= 3 for second differences")
        object.__setattr__(self, "x_min", float(self.x_min))
        object.__setattr__(self, "x_max", float(self.x_max))
        object.__setattr__(self, "n_points", int(self.n_points))

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    def points(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)

    def covers(self, x) -> bool:
        a = np.asarray(x, dtype=float)
        return bool(np.all((a >= self.x_min) & (a <= self.x_max)))

    @classmethod
    def for_band(cls, band: GParams, horizon: float, n_points: int,
                 center: float = 0.0, n_sigmas: float = 6.0) -> "SpaceGrid":
        """Default domain: ``center +- n_sigmas * sigma_hi * sqrt(horizon)``.

        Six standard deviations of the widest admissible marginal keep the
        frozen-boundary error far below the scheme's truncation error for
        Lipschitz data.
        """
        half = n_sigmas * band.sigma_hi * math.sqrt(horizon)
        return cls(center - half, center + half, n_points)


# ---------------------------------------------------------------------------
# cylinder functionals
# ---------------------------------------------------------------------------

_SPOT_CHECK_POINTS = 48


@dataclass(frozen=True)
class CylinderFunctional:
    """A functional of finitely many path values.

    ``payoff`` maps the path values at ``times`` to a real number and must
    accept equal-shape numpy arrays (it is evaluated on meshes and on path
    matrices).  ``convention`` says whether those arguments are the path
    levels ``w(t_1), ..., w(t_n)`` or the increments
    ``w(t_1), w(t_2)-w(t_1), ...``.

    ``lipschitz_bound`` and ``value_bound`` are the caller's declared
    regularity constants on the working region; construction spot-checks
    both on a seeded sample and raises :class:`DataError` on violation.
    The declared constants also size interpolation and tolerance budgets
    downstream, so generous-but-honest values are fine.
    """

    times: tuple
    payoff: Callable
    lipschitz_bound: float
    value_bound: float
    convention: str = "levels"
    name: str = ""

    def __post_init__(self) -> None:
        times = tuple(float(t) for t in self.times)
        if len(times) == 0:
            raise ConfigurationError("a cylinder functional needs at least one time")
        if any(t <= 0.0 for t in times) or any(
                b <= a for a, b in zip(times, times[1:])):
            raise ConfigurationError(
                f"monitoring dates must be strictly increasing and > 0, got {times}"
            )
        if not (self.lipschitz_bound > 0.0 and self.value_bound > 0.0):
            raise ConfigurationError("lipschitz_bound and value_bound must be > 0")
        if self.convention not in ("levels", "increments"):
            raise ConfigurationError(
                f"convention must be 'levels' or 'increments', got {self.convention!r}"
            )
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

    def as_levels(self) -> Callable:
        """Payoff as a function of path *levels*, whatever the convention."""
        if self.convention == "levels":
            return self.payoff
        payoff = self.payoff

        def on_levels(*levels):
            args = [levels[0]]
            for j in range(1, len(levels)):
                args.append(levels[j] - levels[j - 1])
            return payoff(*args)

        return on_levels

    def evaluate_levels(self, *levels):
        """Apply the payoff to path levels at the monitoring dates."""
        if len(levels) != self.n_times:
            raise UsageError(
                f"{self.name or 'functional'} takes {self.n_times} values, "
                f"got {len(levels)}"
            )
        return self.as_levels()(*levels)


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
    outlive the call.
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

    ``breaks`` partitions ``[0, horizon]`` (must start at 0); ``levels[i]``
    applies on ``[breaks[i], breaks[i+1])`` and is either a number or a
    callable receiving the path level at the interval's left endpoint (an
    array over paths) — enough to express measurable interval rules while
    staying adapted by construction.
    """

    band: GParams = None
    breaks: tuple = ()
    levels: tuple = ()

    kind: str = field(default="step", init=False)

    def __post_init__(self) -> None:
        breaks = tuple(float(b) for b in self.breaks)
        if len(breaks) < 2 or breaks[0] != 0.0:
            raise ConfigurationError("breaks must start at 0 and contain the horizon")
        if any(b <= a for a, b in zip(breaks, breaks[1:])):
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
        if abs(self.breaks[-1] - time_grid.horizon) > 1e-9 * max(1.0, time_grid.horizon):
            raise UsageError(
                f"control horizon {self.breaks[-1]!r} does not match grid "
                f"horizon {time_grid.horizon!r}"
            )
        start_idx = [time_grid.index_of(b) for b in self.breaks[:-1]]
        # interval index for every step
        interval_of_step = np.searchsorted(start_idx, np.arange(time_grid.n_steps),
                                           side="right") - 1
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

    def level_for_block(self, i: int, increments: Sequence[np.ndarray],
                        n_paths: int) -> np.ndarray:
        rule = self.rules[i]
        if callable(rule):
            raw = np.asarray(rule(*increments), dtype=float)
        else:
            raw = np.asarray(float(rule))
        out = np.broadcast_to(raw, (n_paths,)).copy()
        return self._check_levels(out, f"block {i}")

    def make_driver(self, time_grid: TimeGrid, n_paths: int) -> Callable:
        bs = self.block_steps(time_grid)
        state = {"block": -1, "levels": None}

        def driver(k, b_hist):
            i = k // bs
            if i != state["block"]:
                anchors = b_hist[:, 0:i * bs + 1:bs]  # block boundary levels
                incs = [anchors[:, j + 1] - anchors[:, j] for j in range(i)]
                state["levels"] = self.level_for_block(i, incs, n_paths)
                state["block"] = i
            return state["levels"]

        return driver


@dataclass(frozen=True)
class FeedbackControl(ControlProcess):
    """Bang-bang control read off a solved value surface.

    At simulation time t and position x the driver picks
    ``sign_vol(curvature of the surface at (t, x))`` using the nearest
    surface node.  Paths that leave the surface's space grid raise
    :class:`ExtrapolationError` — widen the grid rather than extrapolating.
    """

    band: GParams = None
    surface: object = None  # gheat.ValueSurface; duck-typed to avoid a cycle

    kind: str = field(default="feedback", init=False)

    def make_driver(self, time_grid: TimeGrid, n_paths: int) -> Callable:
        from .gheat import feedback_field  # local import: gheat depends on core

        surf = self.surface
        if surf.time_grid.horizon + 1e-9 < time_grid.horizon:
            raise UsageError(
                "feedback surface covers a shorter horizon than the simulation"
            )
        field_vals = feedback_field(surf)
        sg = surf.space_grid
        sdt = surf.time_grid.dt
        n_rows = surf.time_grid.n_steps

        def driver(k, b_hist):
            t = k * time_grid.dt
            tau = t if surf.orientation == "backward" else surf.time_grid.horizon - t
            row = min(max(int(round(tau / sdt)), 0), n_rows)
            x = b_hist[:, -1]
            cols = np.rint((x - sg.x_min) / sg.dx).astype(np.int64)
            if np.any(cols < 0) or np.any(cols >= sg.n_points):
                worst = float(x[np.argmax(np.abs(x))])
                raise ExtrapolationError(
                    f"path reached {worst!r}, outside the feedback surface grid "
                    f"[{sg.x_min}, {sg.x_max}]; enlarge the surface domain"
                )
            return field_vals[row, cols]

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
        if int(self.refinement) < 0:
            raise ConfigurationError(f"refinement must be >= 0, got {self.refinement!r}")
        if not (0.0 < float(self.alpha) < 1.0):
            raise DomainError(f"alpha must lie in (0, 1), got {self.alpha!r}")
        if not isinstance(self.sub_control, ControlProcess):
            raise UsageError("sub_control must be a ControlProcess")
        if self.sub_control.band.var_spread <= 0.0:
            raise DomainError(
                "perturbation needs a non-degenerate band: with "
                "sigma_lo == sigma_hi there is no room to shrink"
            )
        object.__setattr__(self, "refinement", int(self.refinement))
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
