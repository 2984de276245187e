"""Pathwise calculus on simulated bundles.

Stochastic integrals are left-endpoint sums (adapted by construction).
The decomposition of a conditional-value process along paths is

    m_t = m_0 + integral(Z dB) + K_t,
    Z   = space derivative of the conditional value,
    K   = 0.5 * integral(curvature d<qv>) - integral(G(curvature) dt),

with K starting at zero and non-increasing pathwise (the curvature c
satisfies ``c * h^2 / 2 <= G(c)`` for every band level h, with equality at
the bang-bang choice, so each step's increment is <= 0 exactly).

The dyadic quadratic variation ``Q^n`` satisfies the discrete identity
``Q^n = integral(lambda^n dB) + Q^finest`` where ``Q^finest`` is the
realized squared-increment sum at the simulation resolution — an algebraic
telescoping fact, exact to rounding on every path; ``Q^finest`` is the
discrete stand-in for the qv ledger, which it approaches in mean square as
the step size shrinks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.interpolate import RegularGridInterpolator

from .core import CylinderFunctional, GParams, SpaceGrid, TimeGrid, g_eps_value, g_value
from .errors import DomainError, ExtrapolationError, UsageError
from .gexp import conditional_frames
from .mc import PathBundle, simulate


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
    out = np.zeros_like(driver)
    np.cumsum(integrand * np.diff(driver, axis=-1), axis=-1, out=out[..., 1:])
    return out


def realized_qv(b_paths: np.ndarray) -> np.ndarray:
    """Running sum of squared path increments at the simulation resolution."""
    b = np.asarray(b_paths, dtype=float)
    out = np.zeros_like(b)
    np.cumsum(np.diff(b, axis=-1) ** 2, axis=-1, out=out[..., 1:])
    return out


def _dyadic_block(n_steps: int, level: int) -> int:
    if level < 0:
        raise DomainError(f"dyadic level must be >= 0, got {level}")
    blocks = 2 ** level
    if n_steps % blocks != 0:
        raise UsageError(
            f"2**{level} dyadic blocks do not divide {n_steps} grid steps"
        )
    return n_steps // blocks


def qn_quadratic_variation(b_paths: np.ndarray, level: int) -> np.ndarray:
    """Running dyadic quadratic variation at refinement ``level``.

    Block k spans ``]k T / 2^level, (k+1) T / 2^level]``; the running value
    at a grid node is the sum of squared completed-block increments plus
    the squared running increment of the open block.
    """
    b = np.atleast_2d(np.asarray(b_paths, dtype=float))
    block = _dyadic_block(b.shape[-1] - 1, level)
    steps = np.arange(b.shape[-1] - 1)
    anchor = b[:, (steps // block) * block]
    contrib = (b[:, 1:] - anchor) ** 2 - (b[:, :-1] - anchor) ** 2
    out = np.zeros_like(b)
    np.cumsum(contrib, axis=-1, out=out[:, 1:])
    return out.reshape(np.asarray(b_paths).shape[:-1] + (b.shape[-1],))


def qn_integrand(b_paths: np.ndarray, level: int) -> np.ndarray:
    """Integrand ``2 (B_t - B_{block anchor})`` sampled at the left nodes."""
    b = np.atleast_2d(np.asarray(b_paths, dtype=float))
    block = _dyadic_block(b.shape[-1] - 1, level)
    steps = np.arange(b.shape[-1] - 1)
    anchor = b[:, (steps // block) * block]
    lam = 2.0 * (b[:, :-1] - anchor)
    return lam.reshape(np.asarray(b_paths).shape[:-1] + (b.shape[-1] - 1,))


def step_values_on_grid(breaks, values, time_grid: TimeGrid) -> np.ndarray:
    """Sample a step function (left-closed intervals) at the step left nodes."""
    breaks = np.asarray(breaks, dtype=float)
    values = np.asarray(values, dtype=float)
    if breaks.ndim != 1 or len(breaks) != len(values) + 1:
        raise UsageError("need len(breaks) == len(values) + 1")
    if abs(breaks[0]) > 1e-12 or abs(breaks[-1] - time_grid.horizon) > 1e-9:
        raise UsageError("step function must span [0, horizon]")
    t_left = time_grid.times()[:-1]
    idx = np.clip(np.searchsorted(breaks, t_left, side="right") - 1,
                  0, len(values) - 1)
    return values[idx]


def _integrand_on_grid(integrand, bundle: PathBundle) -> np.ndarray:
    """Normalise the accepted integrand forms to per-step columns."""
    n = bundle.time_grid.n_steps
    if isinstance(integrand, tuple) and len(integrand) == 2:
        return np.broadcast_to(step_values_on_grid(*integrand, bundle.time_grid),
                               (bundle.n_paths, n))
    arr = np.asarray(integrand, dtype=float)
    if arr.ndim == 0:
        return np.broadcast_to(arr, (bundle.n_paths, n))
    if arr.ndim == 1 and arr.shape[0] == n:
        return np.broadcast_to(arr, (bundle.n_paths, n))
    if arr.shape == (bundle.n_paths, n):
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
    vs = _integrand_on_grid(varsigma, bundle)
    dqv = np.diff(bundle.qv_paths, axis=-1)
    dt = bundle.time_grid.dt
    steps = vs * dqv - 2.0 * g_value(bundle.band, vs) * dt
    out = np.zeros_like(bundle.qv_paths)
    np.cumsum(steps, axis=-1, out=out[:, 1:])
    return out


# ---------------------------------------------------------------------------
# decomposition of conditional values along paths
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ItoDecomposition:
    """Pathwise pieces of a conditional-value process on one bundle."""

    initial: float
    m_paths: np.ndarray     # conditional value along paths, (n_paths, n+1)
    z_paths: np.ndarray     # integrand of the martingale part, (n_paths, n+1)
    k_paths: np.ndarray     # non-increasing remainder, (n_paths, n+1)
    bundle: PathBundle

    def reconstruction(self) -> np.ndarray:
        """``initial + integral(Z dB) + K`` along the bundle."""
        return (self.initial
                + stochastic_integral(self.z_paths, self.bundle.b_paths)
                + self.k_paths)

    def residuals(self) -> np.ndarray:
        """Per-path max absolute gap between m and its reconstruction."""
        return np.max(np.abs(self.m_paths - self.reconstruction()), axis=-1)


def _frame_gradients(frame: np.ndarray, dx: float):
    """Central differences along the current-position axis of a frame."""
    du = np.empty_like(frame)
    du[..., 1:-1] = (frame[..., 2:] - frame[..., :-2]) / (2.0 * dx)
    du[..., 0] = (frame[..., 1] - frame[..., 0]) / dx
    du[..., -1] = (frame[..., -1] - frame[..., -2]) / dx
    d2u = np.empty_like(frame)
    d2u[..., 1:-1] = (frame[..., 2:] - 2.0 * frame[..., 1:-1] + frame[..., :-2]) / (dx * dx)
    d2u[..., 0] = d2u[..., 1]
    d2u[..., -1] = d2u[..., -2]
    return du, d2u


def _eval_frame(frame: np.ndarray, pts: np.ndarray, coords: list) -> np.ndarray:
    """Evaluate a frame at per-path coordinates (multilinear)."""
    if frame.ndim == 1:
        return np.interp(coords[0], pts, frame)
    interp = RegularGridInterpolator((pts,) * frame.ndim, frame, method="linear")
    return interp(np.stack(coords, axis=-1))


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
    if abs(bundle.time_grid.horizon - xi.horizon) > 1e-9 * max(1.0, xi.horizon):
        raise UsageError("bundle horizon must equal the functional horizon")
    for t in xi.times:
        bundle.time_grid.index_of(t)  # raises if the grid does not refine
    lo, hi = float(bundle.b_paths.min()), float(bundle.b_paths.max())
    if lo < space_grid.x_min or hi > space_grid.x_max:
        raise ExtrapolationError(
            f"paths span [{lo!r}, {hi!r}], outside the space grid "
            f"[{space_grid.x_min}, {space_grid.x_max}]; widen the grid"
        )

    rec_times = bundle.time_grid.times()
    frames = conditional_frames(xi, band, space_grid, rec_times, time_grid.dt)
    pts = space_grid.points()
    dx = space_grid.dx
    dt = bundle.time_grid.dt
    n = bundle.time_grid.n_steps
    tol = 1e-12 * max(1.0, xi.horizon)
    cyl_idx = [bundle.time_grid.index_of(t) for t in xi.times]

    m_paths = np.empty_like(bundle.b_paths)
    z_paths = np.empty_like(bundle.b_paths)
    curv = np.empty_like(bundle.b_paths)
    for j in range(n + 1):
        frame = frames[j]
        observed = [bundle.b_paths[:, ci] for ci, t in zip(cyl_idx, xi.times)
                    if t <= rec_times[j] + tol]
        if rec_times[j] >= xi.horizon - tol:
            # the terminal frame is the raw payoff mesh: its last axis is
            # the final observation, which IS the current position there
            observed = observed[:-1]
        coords = observed + [bundle.b_paths[:, j]]
        if len(coords) != frame.ndim:
            raise UsageError("frame arity mismatch while walking the bundle")
        du, d2u = _frame_gradients(frame, dx)
        m_paths[:, j] = _eval_frame(frame, pts, coords)
        z_paths[:, j] = _eval_frame(du, pts, coords)
        curv[:, j] = _eval_frame(d2u, pts, coords)

    dqv = np.diff(bundle.qv_paths, axis=-1)
    k_steps = 0.5 * curv[:, :-1] * dqv - g_value(band, curv[:, :-1]) * dt
    k_paths = np.zeros_like(bundle.b_paths)
    np.cumsum(k_steps, axis=-1, out=k_paths[:, 1:])

    initial = float(np.interp(0.0, pts, frames[0])) if frames[0].ndim == 1 \
        else float(_eval_frame(frames[0], pts, [np.zeros(1)] * frames[0].ndim)[0])
    return ItoDecomposition(initial, m_paths, z_paths, k_paths, bundle)


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
    it — a family that misses the maximiser biases the sup low.  All
    controls see identical normals (common random numbers).

    ``process_builder(bundle)`` must return node-shaped paths
    ``(n_paths, n_steps + 1)``.  Verdict: consistent iff the sup estimate
    lies within three of its standard errors of zero on every window.
    """
    family = list(family)
    if not family:
        raise UsageError("empty control family")
    idx_pairs = [(time_grid.index_of(s), time_grid.index_of(t)) for s, t in pairs]
    for (i, j), (s, t) in zip(idx_pairs, pairs):
        if not i < j:
            raise UsageError(f"window ({s}, {t}) is not increasing")

    stats = []  # per control: list of (mean, se) per pair
    for control in family:
        bundle = simulate(control, time_grid, n_paths, seed)
        x = np.asarray(process_builder(bundle), dtype=float)
        if x.shape != bundle.b_paths.shape:
            raise UsageError("process builder must return node-shaped paths")
        per_pair = []
        for i, j in idx_pairs:
            d = x[:, j] - x[:, i]
            per_pair.append((float(d.mean()),
                             float(d.std(ddof=1) / math.sqrt(len(d)))))
        stats.append(per_pair)
        del bundle, x

    rows = []
    consistent = True
    for p, (s, t) in enumerate(pairs):
        means = [stats[c][p][0] for c in range(len(family))]
        c_sup = int(np.argmax(means))
        c_min = int(np.argmin(means))
        sup_mean, sup_se = stats[c_sup][p]
        min_mean, min_se = stats[c_min][p]
        ok = abs(sup_mean) <= 3.0 * sup_se
        consistent = consistent and ok
        rows.append({
            "s": float(s), "t": float(t),
            "sup_mean": sup_mean, "sup_stderr": sup_se, "sup_control": c_sup,
            "min_mean": min_mean, "min_stderr": min_se, "min_control": c_min,
            "window_consistent": ok,
        })
    return MartingaleReport(tuple(rows), consistent, n_paths, seed)


# ---------------------------------------------------------------------------
# drift identification by bisection against the Monte Carlo sup
# ---------------------------------------------------------------------------

def identify_drift(eta, band: GParams, family, time_grid: TimeGrid,
                   n_paths: int, seed: int, tol: float = 1e-4,
                   max_iter: int = 200) -> list:
    """Identify the drift rate c that centres ``integral(eta d qv) - c t``.

    ``eta = (breaks, values)`` is a deterministic step function.  On each
    of its intervals the sup over the family of ``E[integral(eta d qv)]``
    is estimated once, and c solves ``sup - c * length = 0`` by bisection
    on the bracket ``[2 G_eps(a) (max tilt), 2 G(a) + spread/2]``, which
    straddles the root whenever the family contains the bang-bang control
    for eta's sign.  The exact rate is ``2 G(a)`` per interval.
    """
    breaks, values = eta
    breaks = [float(b) for b in breaks]
    values = [float(v) for v in values]
    if len(breaks) != len(values) + 1:
        raise UsageError("eta must be (breaks, values) with one more break")
    family = list(family)
    if not family:
        raise UsageError("empty control family")
    qv_means = []
    for control in family:
        bundle = simulate(control, time_grid, n_paths, seed)
        qv_means.append(bundle.qv_paths.mean(axis=0))
        del bundle
    eps_max = 0.5 * band.var_spread

    out = []
    for i, a in enumerate(values):
        i_lo = time_grid.index_of(breaks[i])
        i_hi = time_grid.index_of(breaks[i + 1])
        length = breaks[i + 1] - breaks[i]
        sup_gain = max(a * (qm[i_hi] - qm[i_lo]) for qm in qv_means)
        lo = 2.0 * g_eps_value(band, eps_max, a)
        hi = 2.0 * g_value(band, a) + 0.5 * band.var_spread
        f_lo = sup_gain - lo * length
        f_hi = sup_gain - hi * length
        if f_lo < -1e-12 or f_hi > 1e-12:
            raise UsageError(
                f"bisection bracket [{lo}, {hi}] does not straddle the root "
                f"on [{breaks[i]}, {breaks[i + 1]}]; is the family missing "
                f"the bang-bang control for eta's sign?"
            )
        it = 0
        while hi - lo > tol and it < max_iter:
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
