"""Pathwise calculus on simulated bundles.

Stochastic integrals are left-endpoint sums (adapted by construction).
The decomposition of a conditional-value process along paths is

    m_t = m_0 + integral(Z dB) + K_t,
    Z   = space derivative of the conditional value,
    K   = 0.5 * integral(curvature d<qv>) - integral(G(curvature) dt),

with K starting at zero and non-increasing pathwise (the curvature c
satisfies ``c * h^2 / 2 <= G(c)`` for every band level h, with equality at
the bang-bang choice, so each step's increment is <= 0 exactly).  Frames
are read along paths by ``gheat.FramePoints`` and G is ``core.g_value``,
one node at a time in the bundle's time-major layout, so the three
processes come out time-major like the bundle's paths.

The dyadic quadratic variation ``Q^n`` satisfies the discrete identity
``Q^n = integral(lambda^n dB) + Q^finest`` where ``Q^finest`` is the
realized squared-increment sum at the simulation resolution — an algebraic
telescoping fact, exact to rounding on every path; ``Q^finest`` is the
discrete stand-in for the qv ledger, which it approaches in mean square as
the step size shrinks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (CylinderFunctional, GParams, SpaceGrid, TimeGrid, g_eps_value,
                   g_value, running_sum)
from .errors import DomainError, ExtrapolationError, UsageError
from .gexp import conditional_frames
from .gheat import FramePoints, curvature, gradient
from .mc import PathBundle, _qv_steps, _simulate_reduce

# ---------------------------------------------------------------------------
# elementary pathwise operations
# ---------------------------------------------------------------------------

def stochastic_integral(integrand: np.ndarray, driver: np.ndarray) -> np.ndarray:
    """Left-endpoint integral ``sum integrand_k (driver_{k+1} - driver_k)``.

    ``driver`` has node shape ``(n_paths, n_steps + 1)``; ``integrand`` may
    have one column per step or per node (the terminal column is then
    ignored — values are read at the left endpoints only, which is what
    keeps the sum adapted).
    """
    return running_sum(integral_steps(integrand, driver))


def integral_steps(integrand: np.ndarray, driver: np.ndarray) -> np.ndarray:
    """The terms ``integrand_k (driver_{k+1} - driver_k)`` that
    :func:`stochastic_integral` sums, one column per step."""
    driver = np.asarray(driver, dtype=float)
    integrand = np.asarray(integrand, dtype=float)
    n = driver.shape[-1] - 1
    if integrand.ndim == 1:
        integrand = np.broadcast_to(integrand, (driver.shape[0], integrand.shape[0]))
    if integrand.shape[-1] == n + 1:
        integrand = integrand[..., :-1]
    elif integrand.shape[-1] != n:
        raise UsageError(
            f"integrand has {integrand.shape[-1]} columns; expected {n} "
            f"(per step) or {n + 1} (per node)"
        )
    steps = np.diff(driver, axis=-1)
    steps *= integrand
    return steps


def realized_qv(b_paths: np.ndarray) -> np.ndarray:
    """Running sum of squared path increments at the simulation resolution."""
    b = np.asarray(b_paths, dtype=float)
    return running_sum(np.diff(b, axis=-1) ** 2)


def _dyadic_anchor(b_paths, level: int) -> tuple:
    """Each step's left and right nodes as ``(paths, 2**level, block)``
    views, and each dyadic block's starting node broadcast against them:
    views only, no node-shaped copy."""
    b = np.atleast_2d(np.asarray(b_paths, dtype=float))
    n_steps = b.shape[-1] - 1
    if level < 0:
        raise DomainError(f"dyadic level must be >= 0, got {level}")
    if n_steps % 2 ** level != 0:
        raise UsageError(
            f"2**{level} dyadic blocks do not divide {n_steps} grid steps"
        )
    block = n_steps // 2 ** level
    blocks = (b.shape[0], 2 ** level, block)
    return (b[:, :-1].reshape(blocks), b[:, 1:].reshape(blocks),
            b[:, :-1:block, None])


def qn_quadratic_variation(b_paths: np.ndarray, level: int) -> np.ndarray:
    """Running dyadic quadratic variation at refinement ``level``.

    Block k spans ``]k T / 2^level, (k+1) T / 2^level]``; the running value
    at a grid node is the sum of squared completed-block increments plus
    the squared running increment of the open block.
    """
    left, right, anchor = _dyadic_anchor(b_paths, level)
    contrib = (right - anchor) ** 2 - (left - anchor) ** 2
    *paths, n_nodes = np.shape(b_paths)
    return running_sum(contrib.reshape(*paths, n_nodes - 1))


def qn_integrand(b_paths: np.ndarray, level: int) -> np.ndarray:
    """Integrand ``2 (B_t - B_{block anchor})`` sampled at the left nodes."""
    left, _, anchor = _dyadic_anchor(b_paths, level)
    lam = 2.0 * (left - anchor)
    *paths, n_nodes = np.shape(b_paths)
    return lam.reshape(*paths, n_nodes - 1)


def step_values_on_grid(breaks, values, time_grid: TimeGrid) -> np.ndarray:
    """Sample a step function (left-closed intervals) at the step left nodes."""
    breaks = np.asarray(breaks, dtype=float)
    values = np.asarray(values, dtype=float)
    if breaks.ndim != 1 or len(breaks) != len(values) + 1:
        raise UsageError("need len(breaks) == len(values) + 1")
    if abs(breaks[0]) > 1e-12:
        raise UsageError("step function must span [0, horizon]")
    time_grid.require_horizon(float(breaks[-1]), "step function")
    t_left = time_grid.times()[:-1]
    idx = np.clip(np.searchsorted(breaks, t_left, side="right") - 1,
                  0, len(values) - 1)
    return values[idx]


def _integrand_on_grid(integrand, bundle: PathBundle) -> np.ndarray:
    """The accepted integrand forms as a scalar, one value per step or one
    row per path: arrays that broadcast against the steps, kept compact."""
    n = bundle.time_grid.n_steps
    if isinstance(integrand, tuple) and len(integrand) == 2:
        return step_values_on_grid(*integrand, bundle.time_grid)
    arr = np.asarray(integrand, dtype=float)
    if arr.ndim == 0 or arr.shape == (n,) or arr.shape == (bundle.n_paths, n):
        return arr
    raise UsageError("integrand must be scalar, (breaks, values), (n_steps,), "
                     "or (n_paths, n_steps)")


def k_process(varsigma, bundle: PathBundle) -> np.ndarray:
    """Pathwise ``K_t = integral(varsigma d qv) - integral(2 G(varsigma) dt)``.

    Non-increasing on every path because ``a h^2 <= 2 G(a)`` for all band
    levels h, with equality exactly at the bang-bang level — the defining
    inequality behind this process being a martingale under the band's
    sublinear expectation.
    """
    return k_ledger(_integrand_on_grid(varsigma, bundle), bundle)


def k_ledger(varsigma: np.ndarray, bundle: PathBundle) -> np.ndarray:
    """Running sum of ``varsigma dqv - 2 G(varsigma) dt``, one column per step.

    Given half the curvature c this is ``0.5 c dqv - G(c) dt`` bitwise.
    Whole-array: the peak is ``varsigma``, the node-shaped result and one
    step-shaped temporary (two if ``varsigma`` has one row per path).
    Along paths, :func:`eval_on_paths` adds the same steps node by node
    instead and holds no such array.
    """
    return running_sum(_k_steps(varsigma, bundle.qv_paths[..., :-1],
                                bundle.qv_paths[..., 1:], bundle))


def _k_steps(varsigma, qv_lo, qv_hi, bundle: PathBundle) -> np.ndarray:
    """K's increments ``varsigma (qv_hi - qv_lo) - 2 G(varsigma) dt`` in a
    new array: the one home of K's step, for whole ledgers and for the
    walk's single nodes alike.  Rounded as
    ``(-2.0 * G * dt) + varsigma * dqv``, with G on ``varsigma`` as given."""
    steps = g_value(bundle.band, varsigma)
    steps *= -2.0
    steps *= bundle.time_grid.dt
    gain = np.subtract(qv_hi, qv_lo)
    gain *= varsigma
    return np.add(steps, gain, out=gain)


# ---------------------------------------------------------------------------
# decomposition of conditional values along paths
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ItoDecomposition:
    """Pathwise pieces of a conditional-value process on one bundle."""

    # each (n_paths, n+1), the transpose of a time-major buffer
    m_paths: np.ndarray     # conditional value along paths
    z_paths: np.ndarray     # integrand of the martingale part
    k_paths: np.ndarray     # non-increasing remainder
    bundle: PathBundle

    @property
    def initial(self) -> float:     # every path starts at the origin
        return float(self.m_paths[0, 0])

    def residuals(self) -> np.ndarray:
        """Per-path max absolute gap between m and its reconstruction
        ``initial + integral(Z dB) + K``, walked node by node in the
        time-major layout with the integral carried in ``cumsum``'s order:
        a few rows of scratch, and bitwise the whole-array formula."""
        m, z, k = self.m_paths.T, self.z_paths.T, self.k_paths.T
        b = self.bundle.b_paths.T
        gap, worst = np.empty(m.shape[1]), np.zeros(m.shape[1])
        integral = 0.0      # running_sum's column 0
        for j in range(len(m)):
            if j:
                step = np.subtract(b[j], b[j - 1])
                step *= z[j - 1]
                integral = step if j == 1 else np.add(integral, step, out=integral)
            np.add(self.initial, integral, out=gap)
            gap += k[j]
            np.subtract(m[j], gap, out=gap)
            np.maximum(worst, np.abs(gap, out=gap), out=worst)
        return worst


def check_paths_inside(bundle: PathBundle, space_grid: SpaceGrid) -> None:
    """Refuse a bundle whose paths leave the space grid (no extrapolation)."""
    lo, hi = float(bundle.b_paths.min()), float(bundle.b_paths.max())
    if lo < space_grid.x_min or hi > space_grid.x_max:
        raise ExtrapolationError(
            f"paths span [{lo!r}, {hi!r}], outside the space grid "
            f"[{space_grid.x_min}, {space_grid.x_max}]; widen the grid"
        )


def eval_on_paths(frames, bundle: PathBundle, columns_at,
                  space_grid: SpaceGrid, rows=slice(None)) -> tuple:
    """The walk of ``frames[j]`` along the bundle's paths ``rows`` (all by
    default), one frame per node: value, Z (the gradient) and K, three
    ``(n_rows, n_frames)`` arrays, each the transpose of a time-major
    buffer written node by node.

    ``columns_at(j)`` lists the columns (nodes) of ``bundle.b_paths`` that
    are frame j's coordinates, one per frame axis, the current position
    (the derivatives' axis) last.  Each frame's points are located once and
    shared by its fields.  K accumulates inside the walk: node j + 1 holds
    node j's value plus :func:`k_ledger`'s step for half frame j's
    curvature, added in ``cumsum``'s order, so K is bitwise
    ``k_ledger(0.5 * curvature)`` and no node-shaped curvature exists; the
    qv ledger is carried likewise from each node's levels.  Paths and
    levels are read as the rows of their transposes, in place on a
    simulated bundle (its time-major buffers), so the peak is the three
    outputs plus ``O(n_rows)`` scratch, whatever the bundle's length.
    """
    bt, ht = bundle.b_paths.T[:, rows], bundle.control_paths.T[:, rows]
    (n_nodes, n_paths), n = bt.shape, len(frames)
    if n != n_nodes:
        raise UsageError(f"{n} frames for a bundle of {n_nodes} nodes")
    value, z, k = (np.empty((n, n_paths)) for _ in range(3))
    k[0] = 0.0
    half = np.empty(n_paths)
    qv, dx, dt = 0.0, space_grid.dx, bundle.time_grid.dt
    for j, frame in enumerate(frames):
        at = FramePoints(space_grid, [bt[c] for c in columns_at(j)])
        at(frame, out=value[j])
        at(gradient(frame, dx), out=z[j])
        if j + 1 < n:
            at(curvature(frame, dx), out=half)
            half *= 0.5
            qv, qv_lo = qv + _qv_steps(ht[j], dt), qv
            step = _k_steps(half, qv_lo, qv, bundle)
            if j:
                np.add(k[j], step, out=k[j + 1])
            else:   # cumsum's order: K_1 is step 0 itself (-0.0 stays -0.0)
                k[1] = step
    return value.T, z.T, k.T


def martingale_decomposition(xi: CylinderFunctional, band: GParams,
                             time_grid: TimeGrid, space_grid: SpaceGrid,
                             bundle: PathBundle) -> ItoDecomposition:
    """Decompose the conditional value of ``xi`` along a bundle.

    ``time_grid`` caps the backward-solve step (its dt must satisfy the
    CFL bound); conditional values are recorded exactly at the bundle's
    nodes, which must include the functional's monitoring dates.  Paths
    must stay inside the space grid — no extrapolation.
    """
    if bundle.band != band:
        raise UsageError("bundle band differs from the requested band")
    bundle.time_grid.require_horizon(xi.horizon, "functional")
    # raises if the bundle grid misses a monitoring date
    cyl_idx = [bundle.time_grid.index_of(t) for t in xi.times]
    check_paths_inside(bundle, space_grid)

    rec_times = bundle.time_grid.times()
    frames = conditional_frames(xi, band, space_grid, rec_times, time_grid.dt)
    tol = 1e-12 * max(1.0, xi.horizon)

    def columns_at(j):
        observed = [ci for ci, t in zip(cyl_idx, xi.times)
                    if t <= rec_times[j] + tol]
        if rec_times[j] >= xi.horizon - tol:
            # the terminal frame is the raw payoff mesh: its last axis is
            # the final observation, which IS the current position there
            observed = observed[:-1]
        return observed + [j]

    return ItoDecomposition(*eval_on_paths(frames, bundle, columns_at,
                                           space_grid), bundle)


# ---------------------------------------------------------------------------
# martingale property test (one-sided: can refute, never certify)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MartingaleReport:
    rows: tuple
    consistent: bool
    n_paths: int
    seed: int

    def __str__(self) -> str:
        verdict = ("consistent with the martingale property (not refuted)"
                   if self.consistent else "REFUTED")
        lines = [f"martingale test over {len(self.rows)} window(s): {verdict}"]
        for r in self.rows:
            lines.append(
                f"  [{r['s']:g},{r['t']:g}] sup={r['sup_mean']:+.4e} "
                f"(3se={3 * r['sup_stderr']:.2e}) "
                f"min={r['min_mean']:+.4e} (3se={3 * r['min_stderr']:.2e})"
            )
        return "\n".join(lines)


def martingale_test(process_builder, family, pairs, time_grid: TimeGrid,
                    n_paths: int, seed: int) -> MartingaleReport:
    """Scan E[X_t - X_s] over a control family for martingale violations.

    For a process that is a martingale under the band's sublinear
    expectation, the supremum of ``E[X_t - X_s]`` over *all* admissible
    controls is zero; over a finite family the estimate can therefore only
    refute the property (sup significantly away from zero), never certify
    it — a family that misses the maximiser biases the sup low.  Each
    control's bundle goes through ``mc._simulate_reduce``, which issues
    every control identical normals (common random numbers) and reduces
    the per-path window differences ``X_t - X_s`` to estimates.

    ``process_builder`` maps one chunk's bundle to node-shaped paths, row p
    from path p only.  Verdict: consistent iff the sup estimate lies within
    three of its standard errors of zero on every window.
    """
    idx_pairs = [(time_grid.index_of(s), time_grid.index_of(t)) for s, t in pairs]
    for (i, j), (s, t) in zip(idx_pairs, pairs):
        if not i < j:
            raise UsageError(f"window ({s}, {t}) is not increasing")

    def window_differences(bundle):
        x = np.asarray(process_builder(bundle), dtype=float)
        if x.shape != bundle.b_paths.shape:
            raise UsageError("process builder must return node-shaped paths")
        return [x[:, j] - x[:, i] for i, j in idx_pairs]

    stats = _simulate_reduce(family, time_grid, n_paths, seed,
                             window_differences)

    rows = []
    consistent = True
    for p, (s, t) in enumerate(pairs):
        means = [ests[p].mean for ests in stats]
        c_sup = int(np.argmax(means))
        c_min = int(np.argmin(means))
        sup, low = stats[c_sup][p], stats[c_min][p]
        ok = abs(sup.mean) <= 3.0 * sup.stderr
        consistent = consistent and ok
        rows.append({
            "s": float(s), "t": float(t),
            "sup_mean": sup.mean, "sup_stderr": sup.stderr, "sup_control": c_sup,
            "min_mean": low.mean, "min_stderr": low.stderr, "min_control": c_min,
            "window_consistent": ok,
        })
    return MartingaleReport(tuple(rows), consistent, n_paths, seed)


# ---------------------------------------------------------------------------
# drift identification by bisection against the Monte Carlo sup
# ---------------------------------------------------------------------------

def identify_drift(eta, band: GParams, family, time_grid: TimeGrid,
                   n_paths: int, seed: int) -> list:
    """Identify the drift rate c that centres ``integral(eta d qv) - c t``.

    ``eta = (breaks, values)`` is a deterministic step function whose
    breaks are strictly increasing grid nodes.  On each of its intervals
    the sup over the family of ``E[integral(eta d qv)]`` is estimated once,
    and c solves ``sup - c * length = 0`` by bisection, to a bracket width
    of 1e-4 or at most 200 halvings, on the bracket
    ``[2 G_eps(a) (max tilt), 2 G(a) + spread/2]``, which straddles the
    root whenever the family contains the bang-bang control for eta's
    sign.  The exact rate is ``2 G(a)`` per interval.
    """
    breaks, values = eta
    breaks = [float(b) for b in breaks]
    values = [float(v) for v in values]
    if len(breaks) != len(values) + 1:
        raise UsageError("eta must be (breaks, values) with one more break")
    if any(b <= a for a, b in zip(breaks, breaks[1:])):
        raise UsageError(f"eta breaks must be strictly increasing, got {breaks}")
    nodes = [time_grid.index_of(b) for b in breaks]

    def interval_gains(bundle):
        qv = bundle.qv_paths
        return [qv[:, hi] - qv[:, lo] for lo, hi in zip(nodes, nodes[1:])]

    gains = _simulate_reduce(family, time_grid, n_paths, seed, interval_gains)
    eps_max = 0.5 * band.var_spread

    out = []
    for i, a in enumerate(values):
        length = breaks[i + 1] - breaks[i]
        sup_gain = max(a * ests[i].mean for ests in gains)
        lo = 2.0 * g_eps_value(band, eps_max, a)
        hi = 2.0 * g_value(band, a) + 0.5 * band.var_spread
        if sup_gain - lo * length < -1e-12 or sup_gain - hi * length > 1e-12:
            raise UsageError(
                f"bisection bracket [{lo}, {hi}] does not straddle the root "
                f"on [{breaks[i]}, {breaks[i + 1]}]; is the family missing "
                f"the bang-bang control for eta's sign?"
            )
        it = 0
        while hi - lo > 1e-4 and it < 200:
            mid = 0.5 * (lo + hi)
            if sup_gain - mid * length >= 0.0:
                lo = mid
            else:
                hi = mid
            it += 1
        out.append({"t_lo": breaks[i], "t_hi": breaks[i + 1], "eta": a,
                    "c": 0.5 * (lo + hi), "iterations": it})
    return out


# ---------------------------------------------------------------------------
# exact quadrature checks for the alternating-block rewrites
# ---------------------------------------------------------------------------

def _step_integral_exact(breaks, values, lo: Fraction, hi: Fraction) -> Fraction:
    total = Fraction(0)
    for j, v in enumerate(values):
        a = max(lo, breaks[j])
        b = min(hi, breaks[j + 1])
        if b > a:
            total += v * (b - a)
    return total


def step2_limit_check(zeta, alpha: float, ks) -> list:
    """Exact quadrature of the trailing-piece average against its limit.

    ``zeta = (breaks, values)`` is a step function on [0, 1].  For each
    block count k the table reports the gap
    ``|integral(zeta over trailing pieces) - (1 - alpha) integral(zeta)|``
    — identically zero (exact rational arithmetic) as soon as 1/k divides
    zeta's partition — together with the per-block cancellation of the
    bare signed pieces and the exact proportionality between the two gap
    functionals (trailing-gap = (1 - alpha) * signed-gap).
    """
    zbreaks, zvalues = zeta
    if not (0.0 < float(alpha) < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha!r}")
    fb = [Fraction(float(b)) for b in zbreaks]
    fv = [Fraction(float(v)) for v in zvalues]
    if len(fb) != len(fv) + 1 or fb[0] != 0 or fb[-1] != 1:
        raise UsageError("zeta must be (breaks, values) spanning [0, 1]")
    fa = Fraction(float(alpha))
    total = _step_integral_exact(fb, fv, Fraction(0), Fraction(1))

    rows = []
    for k in ks:
        k = int(k)
        if k < 1:
            raise DomainError(f"block count must be >= 1, got {k}")
        lead = Fraction(0)
        trail = Fraction(0)
        per_block_bare = Fraction(0)
        for i in range(k):
            b0 = Fraction(i, k)
            b1 = b0 + fa / k
            b2 = Fraction(i + 1, k)
            lead += _step_integral_exact(fb, fv, b0, b1)
            trail += _step_integral_exact(fb, fv, b1, b2)
            bare = (b1 - b0) - (fa / (1 - fa)) * (b2 - b1)
            per_block_bare = max(per_block_bare, abs(bare))
        gap = trail - (1 - fa) * total
        signed = lead - (fa / (1 - fa)) * trail
        aligned = all((b * k).denominator == 1 for b in fb)
        rows.append({
            "k": k,
            "aligned": aligned,
            "gap": float(abs(gap)),
            "gap_exact_zero": gap == 0,
            "per_block_identity_gap": float(per_block_bare),
            "signed_gap": float(abs(signed)),
            "proportionality_exact": (1 - fa) * signed == -gap,
        })
    return rows
