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
``(n_steps, n_paths)`` buffers whose rows are contiguous, and the finished
paths and levels are transposed once into the path-major bundle arrays.
The accumulated variance is carried alongside the path exactly as
``sum h_k^2 dt`` — the simulation's quadratic-variation ledger, which
stays inside the band's bounds pathwise by construction.

The perturbation tools rewrite an m-block self-dependent control on dyadic
sub-blocks while preserving each block's exact squared-level budget; the
marginal-match and weak-convergence checks measure what those rewrites do
(nothing, in distribution, for functionals of the block increments).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import (
    ControlProcess,
    CylinderFunctional,
    GParams,
    PerturbationSchedule,
    SelfDependentControl,
    TimeGrid,
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
    """Simulated paths plus their control and quadratic-variation ledgers.

    Shapes: ``b_paths`` and ``qv_paths`` are ``(n_paths, n_steps + 1)``,
    ``control_paths`` is ``(n_paths, n_steps)`` (level applied on each
    step).  Construction re-verifies the defining invariants: paths start
    at zero, levels sit inside the band, and the qv ledger is exactly the
    running sum of ``h^2 dt`` (recomputed with the same accumulation the
    simulator used, so the comparison is bitwise).
    """

    band: GParams
    time_grid: TimeGrid
    b_paths: np.ndarray
    qv_paths: np.ndarray
    control_paths: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        n_paths, n_nodes = self.b_paths.shape
        n = self.time_grid.n_steps
        if n_nodes != n + 1 or self.qv_paths.shape != (n_paths, n + 1) \
                or self.control_paths.shape != (n_paths, n):
            raise UsageError("bundle arrays inconsistent with the time grid")
        if np.any(self.b_paths[:, 0] != 0.0) or np.any(self.qv_paths[:, 0] != 0.0):
            raise UsageError("paths and qv ledgers must start at zero")
        if not np.all(self.band.contains_level(self.control_paths, tol=1e-12)):
            raise DomainError("recorded control levels leave the band")
        rebuilt = _qv_ledger(self.control_paths, self.time_grid.dt)
        if not np.array_equal(rebuilt, self.qv_paths):
            raise UsageError("qv ledger does not equal the running sum h^2 dt")

    @property
    def n_paths(self) -> int:
        return self.b_paths.shape[0]


def _qv_ledger(control_paths: np.ndarray, dt: float) -> np.ndarray:
    n_paths = control_paths.shape[0]
    out = np.empty((n_paths, control_paths.shape[1] + 1))
    out[:, 0] = 0.0
    np.cumsum(control_paths * control_paths * dt, axis=1, out=out[:, 1:])
    return out


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with its standard error."""

    mean: float
    stderr: float
    n_paths: int
    seed: int

    def ci(self, z: float = 3.0) -> tuple:
        return (self.mean - z * self.stderr, self.mean + z * self.stderr)


def _estimate(values: np.ndarray, seed: int) -> McEstimate:
    values = np.asarray(values, dtype=float)
    n = values.size
    se = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else float("inf")
    return McEstimate(float(values.mean()), se, n, seed)


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

# Paths per normal draw.  Each draw continues the generator's row-major
# stream, so the chunk size never changes a number; it only bounds the
# path-major scratch block that is transposed into the time-major buffer.
_DRAW_CHUNK = 256


def _normals(seed: int, stream: int, n_paths: int, n_steps: int) -> np.ndarray:
    """Time-major ``(n_steps, n_paths)`` transpose of one row-major draw."""
    gen = _philox(seed, stream)
    zt = np.empty((n_steps, n_paths))
    block = np.empty((min(_DRAW_CHUNK, n_paths), n_steps))
    for p0 in range(0, n_paths, _DRAW_CHUNK):
        p1 = min(p0 + _DRAW_CHUNK, n_paths)
        chunk = block[:p1 - p0]
        gen.standard_normal(out=chunk)
        zt[:, p0:p1] = chunk.T
    return zt


def _march(control: ControlProcess, time_grid: TimeGrid,
           zt: np.ndarray) -> tuple:
    """Time-major Euler march; returns path-major ``(b_paths, control_paths)``.

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
    del hist, driver            # no view of bt may outlive the transpose
    b = np.ascontiguousarray(bt.T)
    del bt
    return b, np.ascontiguousarray(ht.T)


def _run_euler(control: ControlProcess, time_grid: TimeGrid,
               z: np.ndarray, seed: int) -> PathBundle:
    """Euler recursion with an explicit ``(n_paths, n_steps)`` normal matrix
    (testing hook)."""
    if z.ndim != 2 or z.shape[1] != time_grid.n_steps:
        raise UsageError("normal matrix does not match the time grid")
    b, h = _march(control, time_grid, np.ascontiguousarray(z.T))
    return PathBundle(control.band, time_grid, b, _qv_ledger(h, time_grid.dt),
                      h, seed)


def simulate(control: ControlProcess, time_grid: TimeGrid, n_paths: int,
             seed: int, stream: int = 0) -> PathBundle:
    """Simulate a bundle under an adapted volatility control.

    Identical ``(control, time_grid, n_paths, seed, stream)`` give bitwise
    identical bundles.  ``stream`` separates deliberately independent runs
    that share a seed (e.g. the two sides of a marginal comparison).
    """
    if n_paths < 2:
        raise UsageError("need at least 2 paths for variance estimates")
    # the normals are freed as soon as the march returns
    b, h = _march(control, time_grid,
                  _normals(seed, stream, n_paths, time_grid.n_steps))
    return PathBundle(control.band, time_grid, b, _qv_ledger(h, time_grid.dt),
                      h, seed)


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
    idx = [bundle.time_grid.index_of(t) for t in xi.times]
    values = xi.evaluate_levels(*(bundle.b_paths[:, i] for i in idx))
    return _estimate(np.asarray(values, dtype=float), bundle.seed)


def sup_over_controls(xi: CylinderFunctional, family, time_grid: TimeGrid,
                      n_paths: int, seed: int):
    """Best lower-bound estimate of the sublinear expectation over a family.

    All controls are issued the *same* normals (common random numbers), so
    enlarging the family can only raise the estimate.  Returns the
    maximising control and its estimate (the first one on ties); the full
    table is available via ``sup_over_controls_table``.
    """
    rows = sup_over_controls_table(xi, family, time_grid, n_paths, seed)
    if not rows:
        raise UsageError("empty control family")
    return max(rows, key=lambda row: row[1].mean)


def sup_over_controls_table(xi: CylinderFunctional, family,
                            time_grid: TimeGrid, n_paths: int, seed: int):
    """Per-control ``(control, estimate)`` rows on common random numbers."""
    rows = []
    for control in family:
        bundle = simulate(control, time_grid, n_paths, seed)
        rows.append((control, mc_expectation(xi, bundle)))
        del bundle
    return rows


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
                anchors = b_hist[:, 0:i * parent_steps + 1:parent_steps]
                incs = [anchors[:, j + 1] - anchors[:, j] for j in range(i)]
                level = self.base.level_for_block(i, incs, n_paths)
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
    m = base.n_blocks
    dt = bundle.time_grid.dt
    anchors = bundle.b_paths[:, ::bs]
    gaps = 0.0
    for i in range(m):
        incs = [anchors[:, j + 1] - anchors[:, j] for j in range(i)]
        level = base.level_for_block(i, incs, bundle.n_paths)
        gained = bundle.qv_paths[:, (i + 1) * bs] - bundle.qv_paths[:, i * bs]
        target = level * level * (bs * dt)
        gaps = max(gaps, float(np.max(np.abs(gained - target))))
    return gaps


def qv_band_violation(bundle: PathBundle, n_exact_paths: int = 32) -> float:
    """Worst pathwise violation of the quadratic-variation band bounds.

    The claim being audited: for every window [s, t] on the grid the
    quadratic variation gains between ``var_lo*(t-s)`` and ``var_hi*(t-s)``,
    with no tolerance.  The true gain is ``sum h_k^2 dt`` as a real number,
    so the audit runs in exact rational arithmetic on the first
    ``n_exact_paths`` paths: in exact arithmetic the all-windows statement
    collapses to the per-step statement (prefix sums minus ``j*bound*dt``
    are monotone iff each step gain is in band), which is checked term by
    term.  On *all* paths the float layer is checked too: rounding is
    monotone, so an in-band ``h`` forces ``fl(fl(h*h)*dt)`` into
    ``[fl(var_lo*dt), fl(var_hi*dt)]`` — also tolerance-free.  (Differences
    of the float cumulative ledger itself may sit an ulp off the exact
    sums; that is a representation artifact, not a bound violation.)

    Returns the largest gap found (0.0 = bounds hold pathwise).
    """
    dt = bundle.time_grid.dt
    gains = bundle.control_paths * bundle.control_paths * dt
    lo_step = bundle.band.var_lo * dt
    hi_step = bundle.band.var_hi * dt
    worst = max(0.0, float(np.max(lo_step - gains)),
                float(np.max(gains - hi_step)))

    dt_f = Fraction(bundle.time_grid.horizon) / bundle.time_grid.n_steps
    lo_f = Fraction(bundle.band.sigma_lo) ** 2 * dt_f
    hi_f = Fraction(bundle.band.sigma_hi) ** 2 * dt_f
    for p in range(min(n_exact_paths, bundle.n_paths)):
        for h in bundle.control_paths[p, :].tolist():
            gain = Fraction(h) * Fraction(h) * dt_f
            if gain < lo_f:
                worst = max(worst, float(lo_f - gain))
            elif gain > hi_f:
                worst = max(worst, float(gain - hi_f))
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


def _block_times(m: int, horizon: float) -> np.ndarray:
    return np.linspace(0.0, horizon, m + 1)[1:]


def _times_on_block_grid(times, m: int, horizon: float) -> bool:
    grid = horizon / m
    return all(abs(t / grid - round(t / grid)) < 1e-9 for t in times)


def marginal_match_test(base: SelfDependentControl, alt: ControlProcess,
                        psi: CylinderFunctional, time_grid: TimeGrid,
                        n_paths: int, seed: int) -> MarginalMatchResult:
    """Compare E[psi] under the base and rewritten controls.

    Only functionals of the base control's block increments are in scope:
    if ``psi`` monitors dates off the block grid the result is reported as
    out-of-scope instead of pass/fail (block-budget preservation says
    nothing about finer marginals).  The two runs use independent
    substreams of the same seed, so the difference's standard error is the
    plain quadrature sum; the verdict is two-sided at three standard
    errors.
    """
    if not _times_on_block_grid(psi.times, base.n_blocks, time_grid.horizon):
        return MarginalMatchResult("out-of-scope", float("nan"), float("nan"),
                                   float("nan"), float("nan"), None,
                                   n_paths, seed)
    est_base = mc_expectation(psi, simulate(base, time_grid, n_paths, seed, stream=0))
    est_alt = mc_expectation(psi, simulate(alt, time_grid, n_paths, seed, stream=1))
    diff = est_alt.mean - est_base.mean
    se = math.hypot(est_base.stderr, est_alt.stderr)
    return MarginalMatchResult("tested", est_base.mean, est_alt.mean, diff, se,
                               bool(abs(diff) <= 3.0 * se), n_paths, seed)


def weak_convergence_probe(base: SelfDependentControl, schedules,
                           psi: CylinderFunctional, time_grid: TimeGrid,
                           n_paths: int, seed: int) -> list:
    """Table of E[psi] gaps between the base control and its rewrites.

    ``psi`` should be a functional of the dyadic refinement of the block
    grid at some level k; rows with ``refinement >= k`` are expected to
    match (their block budgets pin all the marginals psi can see), rows
    below k may drift — both outcomes are reported, not asserted.
    """
    m = base.n_blocks
    horizon = time_grid.horizon
    k_psi = None
    for k in range(0, 22):
        if _times_on_block_grid(psi.times, m * 2 ** k, horizon):
            k_psi = k
            break
    est_base = mc_expectation(psi, simulate(base, time_grid, n_paths, seed, stream=0))
    rows = []
    for j, sched in enumerate(schedules):
        pert = perturb_control(base, sched)
        est = mc_expectation(psi, simulate(pert, time_grid, n_paths, seed,
                                           stream=2 + j))
        diff = est.mean - est_base.mean
        se = math.hypot(est_base.stderr, est.stderr)
        rows.append({
            "refinement": sched.refinement,
            "mean_base": est_base.mean,
            "mean_perturbed": est.mean,
            "diff": diff,
            "stderr": se,
            "within_3se": bool(abs(diff) <= 3.0 * se),
            "expected_match": None if k_psi is None else sched.refinement >= k_psi,
        })
    return rows


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def export_bundle_csv(bundle: PathBundle, path, max_paths: int = None) -> int:
    """Write ``path,step,t,B,qv,h`` rows (h blank on the terminal node)."""
    n_paths = bundle.n_paths if max_paths is None else min(max_paths, bundle.n_paths)
    times = bundle.time_grid.times()
    rows = 0
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["path", "step", "t", "B", "qv", "h"])
        for p in range(n_paths):
            for k in range(bundle.time_grid.n_steps + 1):
                h = repr(float(bundle.control_paths[p, k])) \
                    if k < bundle.time_grid.n_steps else ""
                w.writerow([p, k, repr(float(times[k])),
                            repr(float(bundle.b_paths[p, k])),
                            repr(float(bundle.qv_paths[p, k])), h])
                rows += 1
    return rows
