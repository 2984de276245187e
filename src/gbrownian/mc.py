"""Volatility-controlled Monte Carlo layer.

Paths follow the Euler recursion ``B_{k+1} = B_k + h_k sqrt(dt) z_k`` where
``h`` is an adapted control with values in the band and the ``z`` are
standard normals from a counter-based generator (Philox) keyed by
``(seed, stream)``.  A bundle's normals are one row-major
``(n_paths, n_steps)`` draw: path p takes row p.  The ziggurat sampler
consumes a variable number of raw counter values per normal, so path p
cannot be reached by advancing the counter a fixed amount; what does hold
is that consecutive draws continue one stream, so drawing the rows in path
chunks reproduces the single big draw bit for bit.  The engine uses that
to march time-major: normals, paths and levels live in
``(n_steps, n_paths)`` buffers whose rows are contiguous, and the bundle
keeps the path and level buffers, read path-major through their transposes.
The Monte Carlo pass marches path chunks of about ``_CHUNK_BYTES`` of
normals, drawn once per stream and chunk and shared by every control on
that stream: O(chunk x n_steps) memory at any n_paths.  Its draws form one
sequence of (chunk, stream) units; with two chunks or more and a second
usable CPU, one worker thread draws unit u + 1 into a second buffer while
the main thread marches unit u.  Every generator is drawn by one thread at
a time and always in unit order, so every normal is the serial pass's,
whatever the timing.
The quadratic-variation ledger ``sum h_k^2 dt``, inside the band's bounds
pathwise by construction, is derived from the recorded levels when read.

The perturbation tools rewrite an m-block self-dependent control on dyadic
sub-blocks while preserving each block's exact squared-level budget; the
marginal-match table measures what those rewrites do (nothing, in
distribution, for functionals of the block increments).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .core import (
    ControlProcess,
    CylinderFunctional,
    GParams,
    PerturbationSchedule,
    SelfDependentControl,
    TimeGrid,
    running_sum,
)
from .errors import DomainError, UsageError


def _philox(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator keyed by (seed, stream)."""
    key = np.array([np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF),
                    np.uint64(int(stream) & 0xFFFFFFFFFFFFFFFF)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------------------
# bundles and estimates
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PathBundle:
    """Simulated paths plus their control levels.

    Shapes: ``b_paths`` is ``(n_paths, n_steps + 1)``, ``control_paths``
    ``(n_paths, n_steps)`` (level applied on each step), in any layout:
    simulated bundles hold the engine's time-major buffers, transposed.
    Construction checks the zero start and the band on the levels with
    whole-array min and max, which need no scratch.  The qv ledger
    ``qv_paths`` is derived from the levels on first read.
    """

    band: GParams
    time_grid: TimeGrid
    b_paths: np.ndarray
    control_paths: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        n = self.time_grid.n_steps
        b_shape, h_shape = np.shape(self.b_paths), np.shape(self.control_paths)
        if len(b_shape) != 2 or b_shape[1] != n + 1 or h_shape != (b_shape[0], n):
            raise UsageError(f"bundle paths of shape {b_shape} and levels of "
                             f"shape {h_shape} do not fit a grid of {n} steps: "
                             f"need (n_paths, {n + 1}) and (n_paths, {n})")
        # an ``initial`` lets an empty bundle pass; NaN fails every test
        start, h = self.b_paths[:, 0], self.control_paths
        if not np.min(start, initial=0.0) == 0.0 == np.max(start, initial=0.0):
            raise UsageError("paths must start at zero")
        if not (np.min(h, initial=np.inf) >= self.band.sigma_lo - 1e-12
                and np.max(h, initial=-np.inf) <= self.band.sigma_hi + 1e-12):
            raise DomainError("recorded control levels leave the band")

    @property
    def n_paths(self) -> int:
        return self.b_paths.shape[0]

    @cached_property
    def qv_paths(self) -> np.ndarray:
        return _qv_ledger(self.control_paths, self.time_grid.dt)


# Bytes of one node-shaped path block: the unit in which ``gbsde``'s
# along-path residual holds its temporaries, so its scratch stays fixed
# whatever the path count.
_PATH_BLOCK_BYTES = 8 * 1024 * 1024


def _path_blocks(n_paths: int, n_nodes: int) -> list:
    """Consecutive path slices whose ``(rows, n_nodes)`` float blocks hold
    about ``_PATH_BLOCK_BYTES`` (at least one path each).  Every row of an
    along-path result depends on its own path only, so a block-by-block
    computation is bitwise the whole-array one."""
    rows = max(1, _PATH_BLOCK_BYTES // (8 * n_nodes))
    return [slice(p0, min(p0 + rows, n_paths)) for p0 in range(0, n_paths, rows)]


def _qv_steps(levels: np.ndarray, dt: float) -> np.ndarray:
    steps = levels * levels     # out of place: ``levels`` may be a view
    steps *= dt                 # (h * h) * dt
    return steps


def _qv_ledger(control_paths: np.ndarray, dt: float) -> np.ndarray:
    return running_sum(_qv_steps(control_paths, dt))


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with its standard error."""

    mean: float
    stderr: float
    n_paths: int
    seed: int


def _estimate(values: np.ndarray, seed: int) -> McEstimate:
    n = values.size
    se = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else float("inf")
    return McEstimate(float(values.mean()), se, n, seed)


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

# Paths per normal draw.  Each draw continues the generator's row-major
# stream, so the draw size never changes a number; it only bounds the
# path-major scratch block that is transposed into the time-major buffer.
_DRAW_CHUNK = 256

# Bytes of the pass's normal buffer: 1024 to 2047 paths per chunk at 512 steps.
_CHUNK_BYTES = 4 * 1024 * 1024


def _fill_normals(gen: np.random.Generator, zt: np.ndarray,
                  block: np.ndarray = None) -> np.ndarray:
    """Fill time-major ``zt`` with the next rows of ``gen``'s row-major draw.

    The rows pass through a path-major ``(paths, n_steps)`` scratch
    ``block``, ``len(block)`` paths at a time; a caller that draws many
    times passes one to reuse, otherwise one is made for this call.
    """
    n_steps, n_paths = zt.shape
    if block is None:
        block = np.empty((min(_DRAW_CHUNK, n_paths), n_steps))
    for p0 in range(0, n_paths, len(block)):
        p1 = min(p0 + len(block), n_paths)
        chunk = block[:p1 - p0]
        gen.standard_normal(out=chunk)
        zt[:, p0:p1] = chunk.T
    return zt


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        return os.cpu_count() or 1


def _march(control: ControlProcess, time_grid: TimeGrid,
           zt: np.ndarray) -> tuple:
    """Time-major Euler march; returns ``(b_paths, control_paths)`` as
    transposed views of the buffers it marched.

    ``zt`` holds the normals as ``(n_steps, n_paths)``.  Every step reads
    and writes whole contiguous rows.  Drivers see the history through a
    non-writeable view, so a driver that writes into it raises
    ``ValueError`` instead of corrupting the paths.
    """
    n_steps, n_paths = zt.shape
    sqdt = math.sqrt(time_grid.dt)
    bt = np.empty((n_steps + 1, n_paths))
    bt[0] = 0.0
    ht = np.empty((n_steps, n_paths))
    hist = bt.view()
    hist.flags.writeable = False
    driver = control.make_driver(time_grid, n_paths)
    for k in range(n_steps):
        ht[k] = driver(k, hist[:k + 1].T)
        # b + h * sqdt * z, rounded in that order, in place on row k + 1
        np.multiply(ht[k], sqdt, out=bt[k + 1])
        bt[k + 1] *= zt[k]
        bt[k + 1] += bt[k]
    return bt.T, ht.T


def _run_euler(control: ControlProcess, time_grid: TimeGrid,
               z: np.ndarray, seed: int) -> PathBundle:
    """Validated bundle marched over explicit ``(n_paths, n_steps)`` normals."""
    if z.ndim != 2 or z.shape[1] != time_grid.n_steps:
        raise UsageError("normal matrix does not match the time grid")
    b, h = _march(control, time_grid, z.T)
    return PathBundle(control.band, time_grid, b, h, seed)


def simulate(control: ControlProcess, time_grid: TimeGrid, n_paths: int,
             seed: int, stream: int = 0) -> PathBundle:
    """Simulate a bundle under an adapted volatility control.

    Identical ``(control, time_grid, n_paths, seed, stream)`` give bitwise
    identical bundles.  ``stream`` separates deliberately independent runs
    that share a seed (e.g. the two sides of a marginal comparison).
    """
    if n_paths < 2:
        raise UsageError("need at least 2 paths for variance estimates")
    return _run_euler(control, time_grid, _fill_normals(
        _philox(seed, stream), np.empty((time_grid.n_steps, n_paths))).T, seed)


def _simulate_reduce(family, time_grid: TimeGrid, n_paths: int, seed: int,
                     per_path, streams=None) -> list:
    """The one Monte Carlo pass: one tuple of estimates per control.

    Paths go in near-equal chunks of at least ``_CHUNK_BYTES`` of normals.
    ``per_path`` gets each control's validated chunk bundle and returns one
    ``(chunk,)`` vector per statistic, entry p from path p only; each
    statistic's concatenated vector is reduced by ``_estimate``, bitwise as
    for one whole bundle.  By default every control runs on stream 0 of the
    seed (common random numbers); independent samples pass ``streams``.

    The draws are the (chunk, stream) units in order, each shared by the
    unit's controls.  A pass of two chunks or more, on more than one usable
    CPU, keeps two normal buffers and one worker thread: while the unit in
    one buffer is marched, the worker fills the next unit into the other.
    When the main thread needs a unit whose prefetch has not started (the
    second core is busy), it cancels it and draws inline; it waits only
    on a draw that is already running.  A generator is thus drawn by one
    thread at a time, in unit order, and the normals are those of the
    serial draw.  One-chunk passes, and every pass on one CPU, draw inline
    into one buffer.  The worker is shut down before the pass returns or
    raises.
    """
    family = list(family)
    if not family:
        raise UsageError("empty control family")
    if n_paths < 2:
        raise UsageError("need at least 2 paths for variance estimates")
    streams = list(streams or [0] * len(family))
    n_steps = time_grid.n_steps
    n_chunks = max(1, n_paths // max(1, _CHUNK_BYTES // (8 * n_steps)))
    bounds = [n_paths * i // n_chunks for i in range(n_chunks + 1)]
    gens = {s: _philox(seed, s) for s in streams}   # first-appearance order
    units = [(p0, p1, s) for p0, p1 in zip(bounds, bounds[1:]) for s in gens]
    width = -(-n_paths // n_chunks)
    prefetch = n_chunks > 1 and _usable_cpus() > 1
    buffers = [np.empty((n_steps, width)) for _ in range(1 + prefetch)]
    # the worker draws during the march, so its scratch is made once here;
    # an inline draw makes its own and frees it before the march
    block = np.empty((min(_DRAW_CHUNK, width), n_steps)) if prefetch else None

    def draw(u):
        p0, p1, stream = units[u]
        return _fill_normals(gens[stream], buffers[u % len(buffers)][:, :p1 - p0],
                             block)

    parts = [[] for _ in family]
    worker = None
    if prefetch:
        # imported here: a process whose passes never prefetch never loads it
        from concurrent.futures import ThreadPoolExecutor
        worker = ThreadPoolExecutor(1)
    try:
        ahead = None
        for u, (_, _, stream) in enumerate(units):
            z = draw(u) if ahead is None or ahead.cancel() else ahead.result()
            if worker is not None and u + 1 < len(units):
                ahead = worker.submit(draw, u + 1)
            for j in (j for j, s in enumerate(streams) if s == stream):
                parts[j].append([np.array(v, dtype=float) for v in per_path(
                    _run_euler(family[j], time_grid, z.T, seed))])
    finally:
        if worker is not None:
            worker.shutdown(cancel_futures=True)
    return [tuple(_estimate(np.concatenate(v), seed) for v in zip(*chunks))
            for chunks in parts]


def _functional_on_paths(xi: CylinderFunctional, bundle: PathBundle) -> np.ndarray:
    """Per-path ``(n_paths,)`` values of ``xi`` at its monitoring dates (see
    ``mc_expectation``); a scalar payoff is broadcast to every path."""
    idx = [bundle.time_grid.index_of(t) for t in xi.times]
    values = xi.evaluate_levels(*(bundle.b_paths[:, i] for i in idx))
    return np.broadcast_to(np.asarray(values, dtype=float), (bundle.n_paths,))


def mc_expectation(xi: CylinderFunctional, bundle: PathBundle) -> McEstimate:
    """Sample mean of a functional on one bundle.

    This estimates the linear expectation under the bundle's single
    control, which is a lower bound for the sublinear expectation, not the
    sublinear expectation itself; ``sup_over_controls`` maximises it over
    a family.
    The bundle's grid must contain every monitoring date of the
    functional; otherwise the evaluation would silently interpolate path
    values, which is refused.
    """
    return _estimate(_functional_on_paths(xi, bundle), bundle.seed)


def sup_over_controls(xi: CylinderFunctional, family, time_grid: TimeGrid,
                      n_paths: int, seed: int):
    """Best lower-bound estimate of the sublinear expectation over a family.

    All controls are issued the *same* normals (common random numbers; see
    ``_simulate_reduce``), so enlarging the family can only raise the
    estimate.  Returns the maximising control and its estimate (the first
    one on ties); the full table is ``sup_over_controls_table``.
    """
    rows = sup_over_controls_table(xi, family, time_grid, n_paths, seed)
    return max(rows, key=lambda row: row[1].mean)


def sup_over_controls_table(xi: CylinderFunctional, family,
                            time_grid: TimeGrid, n_paths: int, seed: int):
    """Per-control ``(control, estimate)`` rows on common random numbers;
    ``xi`` sees one chunk's bundle at a time, so it must act path by path."""
    family = list(family)
    rows = _simulate_reduce(family, time_grid, n_paths, seed,
                            lambda b: (_functional_on_paths(xi, b),))
    return [(control, est) for control, (est,) in zip(family, rows)]


# ---------------------------------------------------------------------------
# block perturbations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PerturbedControl(ControlProcess):
    """Dyadic rewrite of an m-block self-dependent control.

    Every block of the base control is split into ``2**refinement`` equal
    sub-blocks.  Each sub-block runs the schedule's sub-control on its
    leading ``alpha`` fraction and then holds the compensating constant
    level that restores the sub-block's squared-level budget
    ``(block level)^2 * (sub-block length)`` exactly — so the *block*
    budget matches the base control's, which is what makes functionals of
    the block increments blind to the rewrite.
    """

    base: SelfDependentControl = None
    schedule: PerturbationSchedule = None

    kind: str = field(default="perturbed", init=False)

    def __post_init__(self) -> None:
        if not isinstance(self.base, SelfDependentControl):
            raise UsageError("perturbation base must be a self-dependent control")
        if self.schedule.band != self.base.band:
            raise UsageError("schedule sub-control band must equal the base band")
        object.__setattr__(self, "band", self.base.band)

    def layout(self, time_grid: TimeGrid) -> tuple:
        """(steps per parent block, steps per sub-block, steps in alpha piece)."""
        parent = self.base.block_steps(time_grid)
        splits = 2 ** self.schedule.refinement
        if parent % splits != 0:
            raise UsageError(
                f"{parent} steps per block cannot be split into {splits} "
                f"sub-blocks; choose n_steps divisible by "
                f"{self.base.n_blocks * splits}"
            )
        sub = parent // splits
        s_alpha_f = self.schedule.alpha * sub
        s_alpha = int(round(s_alpha_f))
        if abs(s_alpha_f - s_alpha) > 1e-9 or not (1 <= s_alpha <= sub - 1):
            raise UsageError(
                f"alpha={self.schedule.alpha} does not cut {sub} sub-block "
                f"steps at an integer >= 1; refine the time grid"
            )
        return parent, sub, s_alpha

    def make_driver(self, time_grid: TimeGrid, n_paths: int):
        parent_steps, sub_steps, s_alpha = self.layout(time_grid)
        dt = time_grid.dt
        sub_driver = self.schedule.sub_control.make_driver(time_grid, n_paths)
        lo_sq, hi_sq = self.schedule.shrunk_band_sq()
        state = {
            "xi_sq": None,          # squared base level on the current block
            "acc": np.zeros(n_paths),   # running integral of h^2 on the alpha piece
            "comp": None,           # compensating level for the current sub-block
        }

        def driver(k, b_hist):
            if k % parent_steps == 0:
                i = k // parent_steps
                level = self.base.level_for_block(i, b_hist, parent_steps)
                xi_sq = level * level
                if np.any(xi_sq < lo_sq - 1e-9) or np.any(xi_sq > hi_sq + 1e-9):
                    raise DomainError(
                        f"block {i}: squared base level leaves the shrunk band "
                        f"[{lo_sq}, {hi_sq}] required for alpha="
                        f"{self.schedule.alpha}; the compensating level would "
                        f"exit the volatility band"
                    )
                state["xi_sq"] = xi_sq
            pos = k % sub_steps
            if pos == 0:
                state["acc"] = np.zeros(n_paths)
                state["comp"] = None
            if pos < s_alpha:
                lvl = np.asarray(sub_driver(k, b_hist), dtype=float)
                lvl = np.broadcast_to(lvl, (n_paths,))
                self._check_levels(lvl, f"sub-control at step {k}")
                state["acc"] = state["acc"] + lvl * lvl * dt
                return lvl
            if state["comp"] is None:
                budget = state["xi_sq"] * (sub_steps * dt)
                comp_sq = (budget - state["acc"]) / ((sub_steps - s_alpha) * dt)
                # in band by the shrunk-band precondition; the clip only
                # absorbs the last-ulp rounding of the division above
                if np.any(comp_sq < self.band.var_lo - 1e-9) or \
                        np.any(comp_sq > self.band.var_hi + 1e-9):
                    raise DomainError(
                        f"compensating level left the band at step {k}; "
                        f"sub-control levels are incompatible with the base"
                    )
                comp_sq = np.clip(comp_sq, self.band.var_lo, self.band.var_hi)
                state["comp"] = np.sqrt(comp_sq)
            return state["comp"]

        return driver


def perturb_control(base: SelfDependentControl,
                    schedule: PerturbationSchedule) -> PerturbedControl:
    """Build the dyadic rewrite of ``base`` prescribed by ``schedule``."""
    return PerturbedControl(base=base, schedule=schedule)


def block_budget_gap(bundle: PathBundle, base: SelfDependentControl) -> float:
    """Largest pathwise violation of the block squared-level budget.

    For every block i of the base control, the bundle's qv ledger should
    have gained exactly ``(block length) * xi_i^2`` where ``xi_i`` is the
    base rule evaluated on the bundle's own block increments.  Returns the
    max absolute gap over paths and blocks — machine-zero for bundles
    simulated under the base control or any of its perturbations.
    """
    bs = base.block_steps(bundle.time_grid)
    dt = bundle.time_grid.dt
    gaps = 0.0
    for i in range(base.n_blocks):
        level = base.level_for_block(i, bundle.b_paths, bs)
        gained = bundle.qv_paths[:, (i + 1) * bs] - bundle.qv_paths[:, i * bs]
        target = level * level * (bs * dt)
        gaps = max(gaps, float(np.max(np.abs(gained - target))))
    return gaps


def qv_band_violation(bundle: PathBundle) -> float:
    """Worst pathwise violation of the quadratic-variation band bounds.

    The claim being audited: for every window [s, t] on the grid the
    quadratic variation gains between ``var_lo*(t-s)`` and ``var_hi*(t-s)``,
    with no tolerance.  The true gain is ``sum h_k^2 dt`` as a real number,
    so the audit runs in exact rational arithmetic on the first 32 paths:
    in exact arithmetic the all-windows statement collapses to the per-step
    statement (prefix sums minus ``j*bound*dt`` are monotone iff each step
    gain is in band), which is checked term by term.  On *all* paths the
    float layer is checked too, on the least and greatest gain: rounding is
    monotone, so an in-band ``h`` forces ``fl(fl(h*h)*dt)`` into
    ``[fl(var_lo*dt), fl(var_hi*dt)]``.  (The float ledger's differences may
    sit an ulp off the exact sums: an artifact, not a bound violation.)

    Returns the largest gap found (0.0 = bounds hold pathwise).
    """
    dt = bundle.time_grid.dt
    gains = _qv_steps(bundle.control_paths, dt)
    lo_step = bundle.band.var_lo * dt
    hi_step = bundle.band.var_hi * dt
    worst = max(0.0, float(lo_step - np.min(gains)),
                float(np.max(gains) - hi_step))

    dt_f = Fraction(bundle.time_grid.horizon) / bundle.time_grid.n_steps
    lo_f = Fraction(bundle.band.sigma_lo) ** 2 * dt_f
    hi_f = Fraction(bundle.band.sigma_hi) ** 2 * dt_f
    # a step's gap depends on its level alone: audit each distinct level once
    for h in np.unique(bundle.control_paths[:32]).tolist():
        gain = Fraction(h) * Fraction(h) * dt_f
        worst = max(worst, float(lo_f - gain), float(gain - hi_f))
    return worst


# ---------------------------------------------------------------------------
# distribution-equality diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MarginalMatchResult:
    status: str                 # "tested" or "out-of-scope"
    mean_base: float
    mean_alt: float
    diff: float
    stderr: float               # combined stderr of the difference
    passed: object              # bool, or None when out of scope
    n_paths: int
    seed: int

    def __str__(self) -> str:
        if self.status != "tested":
            return f"marginal match: {self.status}"
        verdict = "PASS" if self.passed else "FAIL"
        return (f"marginal match: diff={self.diff:+.3e} vs 3*se="
                f"{3.0 * self.stderr:.3e} [{verdict}]")


def _times_on_block_grid(times, m: int, horizon: float) -> bool:
    grid = horizon / m
    return all(abs(t / grid - round(t / grid)) < 1e-9 for t in times)


def marginal_match_table(base: SelfDependentControl, alts, psis,
                         time_grid: TimeGrid, n_paths: int, seed: int) -> list:
    """Compare E[psi] under the base and each rewrite, for every psi, in one
    pass: one row per rewrite, each a list of results in the order of
    ``psis``.

    The base runs on stream 0 and every rewrite on stream 1, so each
    rewrite sees the normals it would see compared alone and the base's
    estimates serve every row; the difference's standard error is the plain
    quadrature sum and the verdict is two-sided at three standard errors.
    Every cell is measured; scope sets only ``status`` and ``passed``.  A
    cell is in scope iff psi's dates lie on the base's block grid refined
    ``2**r`` times, where r is the rewrite's refinement if it is a
    ``PerturbedControl`` of ``base`` and 0 otherwise: the budgets it keeps
    say nothing about finer marginals.
    """
    alts, psis = list(alts), list(psis)
    base_ests, *alt_ests = _simulate_reduce(
        [base, *alts], time_grid, n_paths, seed,
        lambda b: [_functional_on_paths(psi, b) for psi in psis],
        streams=[0] + [1] * len(alts))
    table = []
    for alt, ests in zip(alts, alt_ests):
        r = alt.schedule.refinement if isinstance(alt, PerturbedControl) \
            and alt.base == base else 0
        row = []
        for psi, est_base, est_alt in zip(psis, base_ests, ests):
            diff = est_alt.mean - est_base.mean
            se = math.hypot(est_base.stderr, est_alt.stderr)
            tested = _times_on_block_grid(psi.times, base.n_blocks * 2 ** r,
                                          time_grid.horizon)
            row.append(MarginalMatchResult(
                "tested" if tested else "out-of-scope", est_base.mean,
                est_alt.mean, diff, se,
                bool(abs(diff) <= 3.0 * se) if tested else None, n_paths, seed))
        table.append(row)
    return table


def marginal_match_test(base: SelfDependentControl, alt: ControlProcess,
                        psi: CylinderFunctional, time_grid: TimeGrid,
                        n_paths: int, seed: int) -> MarginalMatchResult:
    """One cell of ``marginal_match_table``: E[psi] under ``base`` and
    ``alt``."""
    return marginal_match_table(base, [alt], [psi], time_grid, n_paths,
                                seed)[0][0]
