"""Pathwise calculus on simulated bundles.

Stochastic integrals are left-endpoint sums (adapted by construction).
The decomposition of a conditional-value process along paths is

    m_t = m_0 + integral(Z dB) + K_t,
    Z   = space derivative of the conditional value,
    K   = 0.5 * integral(curvature d<qv>) - integral(G(curvature) dt),

with K starting at zero and non-increasing pathwise (the curvature c
satisfies ``c * h^2 / 2 <= G(c)`` for every band level h, with equality at
the bang-bang choice, so each step's increment is <= 0 exactly).  Each
frame is read along paths as the sweep photographs it, by one node reader
(``gheat.FramePoints``), and K by one carry (G is ``core.g_value``), one
node at a time in the bundle's time-major layout, so the three processes
come out time-major like the bundle's paths.

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
from .gexp import _backward_sweep
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
    return running_sum(steps)


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
    """A step function (left-closed intervals) as one value per grid step:
    a step's breaks are grid nodes, read by :meth:`TimeGrid.step_intervals`."""
    breaks, values = _step_pair(breaks, values, "step")
    return np.array(values)[time_grid.step_intervals(breaks, "step function")]


def _step_pair(breaks, values, what: str) -> tuple:
    """The one reader of a step function ``(breaks, values)`` (``what`` in
    the errors), as two lists of floats: one more break than values, at
    least one value, finite values and finite, strictly increasing breaks."""
    breaks = np.asarray(breaks, dtype=float)
    values = np.asarray(values, dtype=float)
    if breaks.ndim != 1 or values.shape != (len(breaks) - 1,):
        raise UsageError(f"{what} must be (breaks, values) with one more break")
    if not len(values):
        raise UsageError(f"{what} must have at least one interval")
    _require_finite(values, f"{what} values")
    if not (np.all(np.isfinite(breaks)) and np.all(breaks[1:] > breaks[:-1])):
        raise UsageError(f"{what} breaks must be finite and strictly "
                         f"increasing, got {breaks.tolist()}")
    return breaks.tolist(), values.tolist()


def _require_finite(values: np.ndarray, what: str) -> None:
    """Refuse a NaN or infinite value, naming the first one and its index."""
    bad = ~np.isfinite(values)
    if np.any(bad):
        index = np.unravel_index(np.argmax(bad), values.shape)
        where = f" at index {tuple(map(int, index))}" if index else ""
        raise UsageError(f"{what} must be finite, got "
                         f"{float(values[index])!r}{where}")


def _integrand_on_grid(integrand, bundle: PathBundle) -> np.ndarray:
    """The finite ``varsigma`` of :func:`k_process` as a compact array."""
    n = bundle.time_grid.n_steps
    if isinstance(integrand, tuple) and len(integrand) == 2:
        return step_values_on_grid(*integrand, bundle.time_grid)
    arr = np.asarray(integrand, dtype=float)
    if arr.ndim == 0 or arr.shape == (n,) or arr.shape == (bundle.n_paths, n):
        _require_finite(arr, "integrand")
        return arr
    raise UsageError("integrand must be scalar, (breaks, values), (n_steps,), "
                     "or (n_paths, n_steps)")


def k_process(varsigma, bundle: PathBundle) -> np.ndarray:
    """Pathwise ``K_t = integral(varsigma d qv) - integral(2 G(varsigma) dt)``
    for a scalar, per-step, per-path or step ``varsigma``; a step's breaks
    are grid nodes (:func:`step_values_on_grid`).

    Non-increasing on every path because ``a h^2 <= 2 G(a)`` for all band
    levels h, with equality exactly at the bang-bang level — the defining
    inequality behind this process being a martingale under the band's
    sublinear expectation.

    The running sum of :func:`_k_steps` over the whole ledger: the peak is
    the node-shaped result and one step-shaped temporary (two if
    ``varsigma`` has one row per path).  Given half the curvature c each
    step is ``0.5 c dqv - G(c) dt`` bitwise; along paths,
    :func:`_carry_k` adds the same steps node by node instead and holds
    no such array.
    """
    qv = bundle.qv_paths
    return running_sum(_k_steps(_integrand_on_grid(varsigma, bundle),
                                qv[..., :-1], qv[..., 1:], bundle))


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


def _admit_bundle(bundle: PathBundle, band: GParams, horizon: float,
                  space_grid: SpaceGrid, owners: tuple) -> None:
    """Refuse a bundle of another band or horizon, or whose paths leave
    the space grid (no extrapolation); ``owners`` names the band's and the
    horizon's owners in the errors."""
    if bundle.band != band:
        raise UsageError(f"bundle band differs from the {owners[0]} band")
    bundle.time_grid.require_horizon(horizon, owners[1])
    lo, hi = float(bundle.b_paths.min()), float(bundle.b_paths.max())
    if lo < space_grid.x_min or hi > space_grid.x_max:
        raise ExtrapolationError(
            f"paths span [{lo!r}, {hi!r}], outside the space grid "
            f"[{space_grid.x_min}, {space_grid.x_max}]; widen the grid"
        )


def eval_on_paths(frames, bundle: PathBundle, date_nodes,
                  space_grid: SpaceGrid) -> tuple:
    """The walk of ``frames[j]`` along the bundle's paths, one frame per
    node: value, Z (the gradient) and K, three ``(n_paths, n_frames)``
    arrays, each the transpose of a time-major buffer (:func:`_walk`;
    ``date_nodes`` as in :func:`_node_reader`).  The peak is the three
    outputs plus ``O(n_paths)`` scratch, whatever the bundle's length.
    """
    return _walk(lambda visit: [visit(j, f) for j, f in enumerate(frames)],
                 len(frames), bundle, date_nodes, space_grid)


def _walk(feed, n_frames: int, bundle: PathBundle, date_nodes,
          space_grid: SpaceGrid) -> tuple:
    """Each frame that ``feed`` hands to ``visit(j, frame)`` read into row
    j of three time-major buffers, half its curvature in K's row j + 1,
    which :func:`_carry_k` then turns into K in place."""
    read = _node_reader(n_frames, bundle, date_nodes, space_grid)
    m, z, k = (np.empty(bundle.b_paths.T.shape) for _ in range(3))
    feed(lambda j, frame: read(j, frame, m[j], z[j],
                               k[j + 1] if j + 1 < len(k) else None))
    k[0], qv = 0.0, 0.0
    for j in range(1, len(k)):
        qv = _carry_k(k[j], k[j - 1], j, qv, bundle)
    return m.T, z.T, k.T


def _node_reader(n_frames: int, bundle: PathBundle, date_nodes,
                 space_grid: SpaceGrid):
    """The one reader of ``n_frames`` frames, one per bundle node (or
    :class:`UsageError`): ``read(j, frame, value, z, half)`` writes frame
    j's value, Z (the gradient) and, unless ``half`` is None, half its
    curvature at node j into the caller's rows, one value per path.

    Frame j carries its axes as ``gexp`` makes them: its coordinates are
    the paths at the first ``frame.ndim - 1`` of ``date_nodes`` (the
    observed dates' nodes), then at node j (the current position, the
    derivatives' axis); more observed axes raise :class:`UsageError`.
    Each frame's points are located once and shared by its fields.
    """
    bt, dx = bundle.b_paths.T, space_grid.dx
    if n_frames != len(bt):
        raise UsageError(f"{n_frames} frames for a bundle of {len(bt)} nodes")
    observed = [bt[c] for c in date_nodes]

    def read(j, frame, value, z, half):
        if frame.ndim - 1 > len(observed):
            raise UsageError(
                f"the frame at node {j} has {frame.ndim - 1} observed axes, "
                f"but {len(observed)} date node(s) were given")
        at = FramePoints(space_grid, observed[:frame.ndim - 1] + [bt[j]])
        at(frame, out=value)
        at(gradient(frame, dx), out=z)
        if half is not None:
            at(curvature(frame, dx), out=half)
            half *= 0.5
    return read


def _carry_k(k, k_last, j, qv, bundle: PathBundle):
    """The one K carry: node j's K over ``k`` (half node j - 1's curvature),
    ``k_last`` plus its :func:`_k_steps` step in ``cumsum``'s order; returns
    the qv ledger ``qv`` carried from the levels of node j - 1 to node j."""
    qv_hi = qv + _qv_steps(bundle.control_paths.T[j - 1], bundle.time_grid.dt)
    step = _k_steps(k, qv, qv_hi, bundle)
    if j == 1:      # cumsum's order: K_1 is step 0 itself (-0.0 stays -0.0)
        k[...] = step
    else:
        np.add(k_last, step, out=k)
    return qv_hi


def martingale_decomposition(xi: CylinderFunctional, band: GParams,
                             time_grid: TimeGrid, space_grid: SpaceGrid,
                             bundle: PathBundle) -> ItoDecomposition:
    """Decompose the conditional value of ``xi`` along a bundle.

    ``time_grid`` caps the backward-solve step (its dt must satisfy the
    CFL bound); conditional values are recorded exactly at the bundle's
    nodes, which must include the functional's monitoring dates, and read
    along the paths as the sweep photographs them.  Paths must stay inside
    the space grid — no extrapolation.
    """
    _admit_bundle(bundle, band, xi.horizon, space_grid,
                  ("requested", "functional"))
    # raises if the bundle grid misses a monitoring date
    cyl_idx = [bundle.time_grid.index_of(t) for t in xi.times]
    return ItoDecomposition(*_walk(
        lambda visit: _backward_sweep(xi, band, space_grid, time_grid.dt,
                                      bundle.time_grid.times(), visit),
        bundle.time_grid.n_steps + 1, bundle, cyl_idx, space_grid), bundle)


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


def martingale_table(builders, family, pairs, time_grid: TimeGrid,
                     n_paths: int, seed: int) -> list:
    """Scan E[X_t - X_s] over a control family for martingale violations:
    one :class:`MartingaleReport` per process builder, from one pass.

    For a process that is a martingale under the band's sublinear
    expectation, the supremum of ``E[X_t - X_s]`` over *all* admissible
    controls is zero; over a finite family the estimate can therefore only
    refute the property (sup significantly away from zero), never certify
    it — a family that misses the maximiser biases the sup low.  The pass
    is ``mc._simulate_reduce`` (common random numbers); it reduces each
    builder's per-path window differences on their own, so a report is
    bitwise that of a one-builder table.  A builder maps one chunk's
    bundle to node-shaped paths, row p from path p only.  Verdict:
    consistent iff the sup lies within three standard errors of zero on
    every window.
    """
    if len(builders) == 0:
        raise UsageError("martingale table needs at least one process builder")
    if len(pairs) == 0:     # a table of no windows would report "consistent"
        raise UsageError("martingale table needs at least one window")
    idx_pairs = [(time_grid.index_of(s), time_grid.index_of(t)) for s, t in pairs]
    for (i, j), (s, t) in zip(idx_pairs, pairs):
        if not i < j:
            raise UsageError(f"window ({s}, {t}) is not increasing")

    def window_differences(build, bundle):
        # one builder's paths live only here: the next builder's are made
        # after they are freed, so the pass holds one process at a time
        x = np.asarray(build(bundle), dtype=float)
        if x.shape != bundle.b_paths.shape:
            raise UsageError("process builder must return node-shaped paths")
        return [x[:, j] - x[:, i] for i, j in idx_pairs]

    stats = _simulate_reduce(family, time_grid, n_paths, seed, lambda bundle: [
        d for build in builders for d in window_differences(build, bundle)])

    reports = []
    for b in range(len(builders)):
        rows = []
        for p, (s, t) in enumerate(pairs, start=b * len(pairs)):
            means = [ests[p].mean for ests in stats]
            c_sup, c_min = int(np.argmax(means)), int(np.argmin(means))
            sup, low = stats[c_sup][p], stats[c_min][p]
            rows.append({
                "s": float(s), "t": float(t),
                "sup_mean": sup.mean, "sup_stderr": sup.stderr, "sup_control": c_sup,
                "min_mean": low.mean, "min_stderr": low.stderr, "min_control": c_min,
                "window_consistent": abs(sup.mean) <= 3.0 * sup.stderr,
            })
        consistent = all(r["window_consistent"] for r in rows)
        reports.append(MartingaleReport(tuple(rows), consistent, n_paths, seed))
    return reports


def martingale_test(process_builder, family, pairs, time_grid: TimeGrid,
                    n_paths: int, seed: int) -> MartingaleReport:
    """The one-builder :func:`martingale_table`: its one report."""
    return martingale_table([process_builder], family, pairs, time_grid,
                            n_paths, seed)[0]


# ---------------------------------------------------------------------------
# drift identification: bisection on the martingale table's <qv> row
# ---------------------------------------------------------------------------

def identify_drift(eta, band: GParams, family, time_grid: TimeGrid,
                   n_paths: int, seed: int) -> list:
    """Identify the drift rate c that centres ``integral(eta d qv) - c t``.

    ``eta = (breaks, values)`` is a deterministic step function whose
    breaks are strictly increasing grid nodes.  On each interval, the sup
    over the family of ``E[integral(eta d qv)]`` is ``a`` (eta's value
    there) times the sup (a >= 0) or the min (a < 0) of the qv row of one
    :func:`martingale_table` pass, and c solves ``sup - c * length = 0``
    by bisection, to a bracket width of 1e-4 or at most 200 halvings, on
    the bracket ``[2 G_eps(a) (max tilt), 2 G(a) + spread/2]``, which
    straddles the root whenever the family contains the bang-bang control
    for eta's sign.  The exact rate is ``2 G(a)`` per interval.
    """
    breaks, values = _step_pair(*eta, "eta")
    (gains,) = martingale_table([lambda b: b.qv_paths], family,
                                list(zip(breaks, breaks[1:])), time_grid,
                                n_paths, seed)
    eps_max = 0.5 * band.var_spread

    out = []
    for i, (a, row) in enumerate(zip(values, gains.rows)):
        length = breaks[i + 1] - breaks[i]
        # a * x is monotone in x, so it keeps the family's extreme
        sup_gain = a * (row["sup_mean"] if a >= 0.0 else row["min_mean"])
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
    if not (0.0 < float(alpha) < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha!r}")
    zbreaks, zvalues = _step_pair(*zeta, "zeta")
    fb = [Fraction(b) for b in zbreaks]
    fv = [Fraction(v) for v in zvalues]
    if fb[0] != 0 or fb[-1] != 1:
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
