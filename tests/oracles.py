"""Independent reference values for the test suite.

Nothing in this module imports ``gbrownian``.  Reference numbers come from
closed forms, Gauss-Hermite quadrature against the Gaussian kernel, exact
rational bookkeeping with ``fractions.Fraction``, one deliberately
small hand-rolled finite-difference solver written with plain loops, and
the numpy and scipy interpolation routines that the package's along-path
kernel must match bitwise (scipy is needed by the tests only).  The
tests freeze the resulting values (or call these helpers directly) so a
regression in the package shows up as a mismatch against an independent
computation rather than against the package's own output.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import RegularGridInterpolator

# ----------------------------------------------------------------------
# Gaussian quadrature
# ----------------------------------------------------------------------


def gauss_expectation(fn, variance, kinks=()):
    """E[fn(X)] for X ~ N(0, variance), by adaptive quadrature.

    Piecewise-linear payoffs wreck fixed-node Gaussian quadrature, so the
    integration range is split at the supplied kink locations and each
    smooth piece is handled adaptively.  Accuracy is ~1e-10, far tighter
    than any tolerance the tests compare against.
    """
    if variance < 0:
        raise ValueError("variance must be nonnegative")
    if variance == 0:
        return float(fn(0.0))
    sd = math.sqrt(variance)

    def integrand(z):
        dens = math.exp(-z * z / (2.0 * variance)) / (sd * math.sqrt(2.0 * math.pi))
        return float(fn(z)) * dens

    edges = [-np.inf] + sorted(float(c) for c in kinks) + [np.inf]
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        piece, _ = quad(integrand, a, b, limit=200)
        total += piece
    return total


def heat_value(payoff, variance_rate, t, x, kinks=()):
    """E[payoff(x + W_t)] for a Brownian motion with d<W>/dt = variance_rate.

    This is the constant-volatility comparison point: for convex payoffs
    the band solver must reproduce it at the upper variance, for concave
    payoffs at the lower one.  ``kinks`` are in payoff coordinates.
    """
    shifted = [c - x for c in kinks]
    return gauss_expectation(lambda z: payoff(x + z), variance_rate * t, kinks=shifted)


def normal_abs_moment(p, sigma):
    """E[|sigma * Z|^p] for Z standard normal (closed form via Gamma)."""
    return sigma**p * 2.0 ** (p / 2.0) * math.gamma((p + 1.0) / 2.0) / math.sqrt(math.pi)


# ----------------------------------------------------------------------
# Payoffs shared across tests
# ----------------------------------------------------------------------


def butterfly(x):
    """Tent payoff max(0, 1 - |x|); concave at the peak, convex in the wings."""
    return np.maximum(0.0, 1.0 - np.abs(x))


# ----------------------------------------------------------------------
# Independent band-heat solver (plain loops, coarse, for cross-checks)
# ----------------------------------------------------------------------


def band_heat_origin_value(payoff, var_lo, var_hi, horizon, x_max=8.0,
                           n_points=641, safety=0.5):
    """Value at (horizon, 0) of the variance-band heat equation.

    Deliberately independent of the package: a bare explicit scheme with
    the envelope nonlinearity applied to centered second differences,
    running at half the stability limit on its own grid.  Used to
    cross-check the package solver on payoffs without a closed form.
    """
    xs = np.linspace(-x_max, x_max, n_points)
    dx = xs[1] - xs[0]
    dt_max = safety * dx * dx / var_hi
    n_steps = int(math.ceil(horizon / dt_max))
    dt = horizon / n_steps
    u = np.asarray(payoff(xs), dtype=float)
    for _ in range(n_steps):
        curv = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (dx * dx)
        gain = 0.5 * (var_hi * np.maximum(curv, 0.0) - var_lo * np.maximum(-curv, 0.0))
        u[1:-1] = u[1:-1] + dt * gain
    mid = (n_points - 1) // 2
    return float(u[mid])


def g_step_reference(band, a, half):
    """``2 * half * G(a)`` in a new array, by the package's split-sign body
    as it stood before the band-edge max: ``max(a, 0) * var_hi`` added to
    ``min(a, 0) * var_lo``, then scaled.  ``band`` needs only ``var_lo``
    and ``var_hi``; the package's G must match it bitwise, signed zeros
    included, on any band and any ``half``.
    """
    a = np.array(a, dtype=float)
    scratch = np.empty(a.shape)
    np.maximum(a, 0.0, out=scratch)
    scratch *= band.var_hi
    np.minimum(a, 0.0, out=a)
    a *= band.var_lo
    a += scratch
    a *= half
    return a


def march_steps_reference(u, band, dt, n, dx):
    """Whole-array band-stencil march, one step at a time, in place.

    The package kernel as first written: ``n`` explicit steps
    ``u[..., 1:-1] += dt * G(second difference)`` along the last axis,
    allocating fresh temporaries on every step.  ``band`` needs only
    ``var_lo`` and ``var_hi``.  The blocked kernel must match it bitwise.
    """
    inv_dx2 = 1.0 / (dx * dx)
    for _ in range(n):
        curv = (u[..., 2:] - 2.0 * u[..., 1:-1] + u[..., :-2]) * inv_dx2
        u[..., 1:-1] += dt * (0.5 * (band.var_hi * np.maximum(curv, 0.0)
                                     - band.var_lo * np.maximum(-curv, 0.0)))
    return u


def nested_sweep_reference(payoff, times, band, x, dx, dt_max, record_times):
    """The nested backward sweep as first written, on the full mesh.

    Every observed value is its own axis over the grid ``x``; each stretch
    between stops (the dates and the ``record_times``, sorted ascending)
    is marched whole by :func:`march_steps_reference` in
    ``ceil(duration / dt_max)`` equal steps, and at each date the diagonal
    of the last two axes (``einsum``) becomes the earlier interval's data.
    A record time equal to a date is photographed before that date's
    stitch.  Returns one full-mesh copy per record time; the package's
    sweep must match every one bitwise.
    """
    horizon = times[-1]
    tol = 1e-12 * max(1.0, horizon)
    mesh = np.meshgrid(*([x] * len(times)), indexing="ij", sparse=True)
    u = np.array(np.broadcast_to(payoff(*mesh), (len(x),) * len(times)),
                 dtype=float)
    frames = [None] * len(record_times)
    j, t = len(record_times) - 1, horizon
    for k in range(len(times) - 1, -1, -1):
        lower = times[k - 1] if k > 0 else 0.0
        while True:
            while j >= 0 and abs(record_times[j] - t) <= tol:
                frames[j] = u.copy()
                j -= 1
            if t <= lower + tol:
                break
            stop = record_times[j] if j >= 0 and record_times[j] > lower + tol \
                else lower
            steps = max(1, math.ceil((t - stop) / dt_max - 1e-12))
            march_steps_reference(u, band, (t - stop) / steps, steps, dx)
            t = stop
        if k > 0:
            u = np.einsum("...ii->...i", u).copy()
    return frames


def march_backward_reference(terminal, driver, band, times, dt, dx):
    """Explicit backward sweep of ``D_t u + G(D2_x u) + f = 0``, as first written.

    Row i is ``v + dt * (G(second difference of v) + f)`` at interior nodes
    and ``v + dt * f`` at the two boundary nodes, where v is row i+1 and
    ``f = driver(times[i+1], v, D_x v)`` with the centred gradient,
    one-sided at the edges.  Row ``len(times) - 1`` is ``terminal``.
    """
    inv_dx2 = 1.0 / (dx * dx)
    values = np.empty((len(times), len(terminal)))
    values[-1] = terminal
    for i in range(len(times) - 2, -1, -1):
        v = values[i + 1]
        dv = np.empty_like(v)
        dv[1:-1] = (v[2:] - v[:-2]) / (2.0 * dx)
        dv[0] = (v[1] - v[0]) / dx
        dv[-1] = (v[-1] - v[-2]) / dx
        fy = np.asarray(driver(times[i + 1], v, dv), dtype=float)
        curv = (v[2:] - 2.0 * v[1:-1] + v[:-2]) * inv_dx2
        g = 0.5 * (band.var_hi * np.maximum(curv, 0.0)
                   - band.var_lo * np.maximum(-curv, 0.0))
        values[i, 1:-1] = v[1:-1] + dt * (g + fy[1:-1])
        values[i, 0] = v[0] + dt * fy[0]
        values[i, -1] = v[-1] + dt * fy[-1]
    return values


def picard_reference(terminal, driver, band, times, dt, dx):
    """Picard iteration on the driver with a whole-surface frozen field.

    From the zero-driver sweep, each iterate is the backward sweep whose
    row i is one :func:`march_steps_reference` step of row i+1 plus
    ``dt * field[i+1]``, where ``field[k] = driver(times[k], y[k], z[k])``
    on the previous iterate y, with ``z`` its centred gradient (one-sided
    at the edges) taken over the whole surface at once.  Stops after 10
    iterates or once one moves the surface by at most 1e-10; returns
    ``(values, iterations, final_delta)``.
    """
    def sweep(field):
        values = np.empty((len(times), len(terminal)))
        values[-1] = terminal
        for i in range(len(times) - 2, -1, -1):
            values[i] = values[i + 1]
            march_steps_reference(values[i], band, dt, 1, dx)
            if field is not None:
                values[i] += dt * field[i + 1]
        return values

    values = sweep(None)
    for iterations in range(1, 11):
        z = np.empty_like(values)
        z[:, 1:-1] = (values[:, 2:] - values[:, :-2]) / (2.0 * dx)
        z[:, 0] = (values[:, 1] - values[:, 0]) / dx
        z[:, -1] = (values[:, -1] - values[:, -2]) / dx
        field = np.empty_like(values)
        for k, t in enumerate(times):
            field[k] = driver(t, values[k], z[k])
        new_values = sweep(field)
        delta = float(np.max(np.abs(new_values - values)))
        values = new_values
        if delta <= 1e-10:
            break
    return values, iterations, delta


def pde_residual_reference(values, band, dt, dx):
    """Interior residual ``(u[i+1] - u[i]) / dt - G(curvature of u[i])``
    of a forward surface, as one whole-surface formula: the curvature
    ``(u[j+1] - 2 u[j] + u[j-1]) / dx^2`` and its G
    (:func:`g_step_reference`) over every row at once, then the time
    difference.  Returns the ``(rows - 1, points - 2)`` interior.
    """
    curv = (values[:, 2:] - 2.0 * values[:, 1:-1] + values[:, :-2]) / (dx * dx)
    g = g_step_reference(band, curv, 0.5)
    resid = np.diff(values, axis=0)
    resid /= dt
    resid = resid[:, 1:-1]
    resid -= g[:-1]
    return resid


def backward_sums_reference(y, z, b, driver, times, dt):
    """The left-endpoint running sums F of ``f dt`` and S of ``Z dB`` on
    path-major ``(n_paths, n_nodes)`` arrays, each ``np.cumsum`` after a
    zero column."""
    n_paths, n_nodes = y.shape
    f = np.stack([np.broadcast_to(driver(times[j], y[:, j], z[:, j]),
                                  (n_paths,)) for j in range(n_nodes - 1)],
                 axis=1)
    zero = np.zeros((n_paths, 1))
    return (np.concatenate([zero, np.cumsum(f * dt, axis=1)], axis=1),
            np.concatenate([zero, np.cumsum(z[:, :-1] * np.diff(b, axis=1),
                                            axis=1)], axis=1))


def gbsde_residual_reference(y, z, k, b, xi, driver, times, dt):
    """Largest gap of the backward relation
    ``Y_t = xi + int_t^T f dt - int_t^T Z dB - (K_T - K_t)`` over paths
    and nodes, as one whole-array formula: with F and S from
    :func:`backward_sums_reference`, each node's
    ``A = ((Y + F) - S) - K`` less the path's terminal
    ``C = ((F_T + xi) - S_T) - K_T``.
    """
    cum_f, zint = backward_sums_reference(y, z, b, driver, times, dt)
    a = ((y + cum_f) - zint) - k
    c = ((cum_f[:, -1] + xi) - zint[:, -1]) - k[:, -1]
    return float(np.max(np.abs(a - c[:, None])))


def gradient_reference(u, dx):
    """First difference along the last axis of ``u``, one node at a time.

    ``(u[i+1] - u[i-1]) / (2 dx)`` at interior nodes, the one-sided
    difference on the two edge nodes.
    """
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u)
    m = u.shape[-1]
    for lead in np.ndindex(u.shape[:-1]):
        row, res = u[lead], out[lead]
        res[0] = (row[1] - row[0]) / dx
        for i in range(1, m - 1):
            res[i] = (row[i + 1] - row[i - 1]) / (2.0 * dx)
        res[m - 1] = (row[m - 1] - row[m - 2]) / dx
    return out


def curvature_reference(u, dx):
    """Second difference along the last axis of ``u``, one node at a time.

    ``(u[i+1] - 2 u[i] + u[i-1]) / dx^2`` at interior nodes; each edge node
    copies its interior neighbour.
    """
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u)
    m = u.shape[-1]
    for lead in np.ndindex(u.shape[:-1]):
        row, res = u[lead], out[lead]
        for i in range(1, m - 1):
            res[i] = (row[i + 1] - 2.0 * row[i] + row[i - 1]) / (dx * dx)
        res[0] = res[1]
        res[m - 1] = res[m - 2]
    return out


def eval_frame_reference(frame, pts, coords):
    """Multilinear value of a frame on the grid ``pts`` at ``coords`` by
    library routines: ``np.interp`` on one axis, scipy's linear
    ``RegularGridInterpolator`` on two or more (one array of points per
    frame axis).  Outside the grid ``np.interp`` clamps and scipy raises
    ``ValueError``.
    """
    frame = np.asarray(frame, dtype=float)
    if frame.ndim == 1:
        return np.interp(coords[0], pts, frame)
    interp = RegularGridInterpolator((pts,) * frame.ndim, frame, method="linear")
    return interp(np.stack(coords, axis=-1))


# ----------------------------------------------------------------------
# Exact rational references for the oscillator and block budgets
# ----------------------------------------------------------------------


def oscillator_value(k, alpha, s):
    """Independent re-derivation of the square-wave oscillator.

    The [0,1] line is cut into k blocks; the leading fraction alpha of
    each block is +1 and the remainder is -1.  Computed here with exact
    rationals and a half-open convention at the internal seam.
    """
    if s <= 0 or s > 1:
        raise ValueError("s must lie in (0, 1]")
    frac = Fraction(s) * k
    offset = frac - int(frac)
    if offset == 0:
        # s sits on a block boundary: it closes the *previous* block,
        # whose trailing piece carries -1 (alpha < 1 always leaves one).
        return -1
    return 1 if offset <= Fraction(alpha) else -1


def oscillator_block_integral(k, alpha):
    """Exact per-block value of integral of (delta+ - alpha/(1-alpha) * delta-).

    Each block contributes alpha/k from the positive piece and
    (1-alpha)/k from the negative piece, so the weighted combination
    cancels identically.  Returned as a Fraction so tests can assert
    exact zero rather than small-float zero.
    """
    a = Fraction(alpha)
    pos = a / k
    neg = (1 - a) / k
    return pos - (a / (1 - a)) * neg


def oscillator_riemann_integral(k, alpha, n_cells=200_000):
    """Brute-force midpoint Riemann sum of the same weighted combination.

    A float cross-check on the rational identity above (and on the
    package's exact-arithmetic gap table): the sum should vanish up to
    the midpoint rule's resolution of the jump positions.
    """
    a = float(alpha)
    w = a / (1.0 - a)
    s = (np.arange(n_cells) + 0.5) / n_cells
    frac = s * k - np.floor(s * k)
    d = np.where(frac <= a, 1.0, -1.0)
    vals = np.where(d > 0, d, w * d)
    return float(vals.sum() / n_cells)


def compensating_level(xi_sq, alpha, sub_sq):
    """Level that restores a block's squared-control budget.

    If a block was meant to spend xi_sq per unit time but its leading
    alpha fraction runs at sub_sq instead, the trailing fraction must run
    at the returned level squared: (xi_sq - alpha*sub_sq) / (1 - alpha).
    """
    c_sq = Fraction(xi_sq) - Fraction(alpha) * Fraction(sub_sq)
    c_sq = c_sq / (1 - Fraction(alpha))
    return math.sqrt(float(c_sq))


# ----------------------------------------------------------------------
# Dyadic quadratic variation (gathered block anchors)
# ----------------------------------------------------------------------


def dyadic_qv_reference(b_paths, level):
    """``(Q^n, lambda^n)`` at refinement ``level`` from a gathered copy of
    each step's block anchor ``B_{(k // block) * block}``: the running sum
    of ``(B_{k+1} - anchor)^2 - (B_k - anchor)^2`` (0.0 first, then
    ``np.cumsum``) and ``2 (B_k - anchor)``, in 1-d or path rows."""
    b = np.atleast_2d(np.asarray(b_paths, dtype=float))
    n_steps = b.shape[-1] - 1
    block = n_steps // 2 ** level
    anchor = b[:, (np.arange(n_steps) // block) * block]
    qv = np.zeros(b.shape)
    qv[:, 1:] = np.cumsum((b[:, 1:] - anchor) ** 2 - (b[:, :-1] - anchor) ** 2,
                          axis=-1)
    lam = 2.0 * (b[:, :-1] - anchor)
    shape = np.shape(b_paths)[:-1]
    return qv.reshape(shape + (n_steps + 1,)), lam.reshape(shape + (n_steps,))


# ----------------------------------------------------------------------
# Reference Euler engine (path-major, one big draw)
# ----------------------------------------------------------------------


def philox_normals(seed, stream, n_paths, n_steps):
    """One row-major ``(n_paths, n_steps)`` standard-normal draw from the
    Philox generator keyed by the two 64-bit words ``(seed, stream)``."""
    mask = 0xFFFFFFFFFFFFFFFF
    key = np.array([seed & mask, stream & mask], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    return gen.standard_normal((n_paths, n_steps))


def euler_path_major(driver, z, dt):
    """Plain path-major Euler loop: ``B_{k+1} = B_k + h_k sqrt(dt) z_k``.

    ``driver(k, b_hist)`` returns the levels on step k from the history
    ``b[:, :k+1]``.  Column k of C-ordered ``(n_paths, n_steps+1)`` arrays
    is written on every step.  Returns ``(b, qv, h)`` with the qv ledger
    as the running sum of ``h^2 dt``.
    """
    n_paths, n_steps = z.shape
    sqdt = math.sqrt(dt)
    b = np.zeros((n_paths, n_steps + 1))
    h = np.empty((n_paths, n_steps))
    for k in range(n_steps):
        h[:, k] = driver(k, b[:, :k + 1])
        b[:, k + 1] = b[:, k] + h[:, k] * sqdt * z[:, k]
    qv = np.zeros((n_paths, n_steps + 1))
    qv[:, 1:] = np.cumsum(h * h * dt, axis=1)
    return b, qv, h


# ----------------------------------------------------------------------
# Reference Monte Carlo reductions (one loop per consumer)
# ----------------------------------------------------------------------
# Each loop simulates one whole bundle per control with the ``simulate``
# it is handed, reduces it with plain numpy and drops it, in the order and
# with the rounding of the consumer it mirrors.  Estimates are
# ``(mean, stderr, n)`` with the ddof=1 standard error.


def _mean_stderr(values):
    values = np.asarray(values, dtype=float)
    n = values.size
    se = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else float("inf")
    return float(values.mean()), se, n


def _payoff_estimate(xi, bundle):
    idx = [bundle.time_grid.index_of(t) for t in xi.times]
    return _mean_stderr(xi.evaluate_levels(*(bundle.b_paths[:, i] for i in idx)))


def sup_table_reference(simulate, xi, family, time_grid, n_paths, seed,
                        streams=None):
    """Per-control payoff estimates on common random numbers (stream 0),
    or with control j on ``streams[j]``."""
    rows = []
    for control, stream in zip(family, streams or [0] * len(family)):
        bundle = simulate(control, time_grid, n_paths, seed, stream=stream)
        rows.append(_payoff_estimate(xi, bundle))
        del bundle
    return rows


def martingale_rows_reference(simulate, builder, family, pairs, time_grid,
                              n_paths, seed):
    """Sup and min over the family of the mean window gain ``X_t - X_s``;
    returns ``(rows, consistent)``."""
    idx_pairs = [(time_grid.index_of(s), time_grid.index_of(t))
                 for s, t in pairs]
    stats = []
    for control in family:
        x = np.asarray(builder(simulate(control, time_grid, n_paths, seed)),
                       dtype=float)
        per_pair = []
        for i, j in idx_pairs:
            d = x[:, j] - x[:, i]
            per_pair.append((float(d.mean()),
                             float(d.std(ddof=1) / math.sqrt(len(d)))))
        stats.append(per_pair)
    rows = []
    consistent = True
    for p, (s, t) in enumerate(pairs):
        means = [per_pair[p][0] for per_pair in stats]
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
    return rows, consistent


def identify_drift_reference(simulate, eta, var_lo, var_hi, family,
                             time_grid, n_paths, seed, tol=1e-4,
                             max_iter=200):
    """Bisect ``sup_gain - c * length = 0`` per interval of the step
    integrand ``eta``, where ``sup_gain`` is the family's largest
    ``eta * (mean qv(t_hi) - mean qv(t_lo))``.  The bracket is
    ``[2 G_eps(a), 2 G(a) + spread/2]`` at the largest tilt."""
    breaks, values = eta
    qv_means = [simulate(c, time_grid, n_paths, seed).qv_paths.mean(axis=0)
                for c in family]
    spread = var_hi - var_lo
    out = []
    for i, a in enumerate(values):
        i_lo = time_grid.index_of(breaks[i])
        i_hi = time_grid.index_of(breaks[i + 1])
        length = breaks[i + 1] - breaks[i]
        sup_gain = max(a * (qm[i_hi] - qm[i_lo]) for qm in qv_means)
        g = envelope(var_lo, var_hi, a)
        lo = 2.0 * (g - 0.5 * (0.5 * spread) * abs(a))
        hi = 2.0 * g + 0.5 * spread
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


def compare_reference(simulate, base, alt, psi, time_grid, n_paths, seed,
                      stream_alt):
    """``(mean_base, mean_alt, diff, stderr, within 3 se)`` of two
    independent runs: the base on stream 0, ``alt`` on ``stream_alt``."""
    est_base = _payoff_estimate(psi, simulate(base, time_grid, n_paths, seed,
                                              stream=0))
    est_alt = _payoff_estimate(psi, simulate(alt, time_grid, n_paths, seed,
                                             stream=stream_alt))
    diff = est_alt[0] - est_base[0]
    se = math.hypot(est_base[1], est_alt[1])
    return est_base[0], est_alt[0], diff, se, bool(abs(diff) <= 3.0 * se)


def qv_band_violation_reference(control_paths, sigma_lo, sigma_hi, horizon,
                                n_steps, n_exact_paths=32):
    """Worst gap of the step gains ``h^2 dt`` outside the band's step bounds.

    The float layer compares ``fl(fl(h*h)*dt)`` with ``fl(var*dt)`` on every
    path; the exact layer walks the first ``n_exact_paths`` paths level by
    level in ``Fraction`` arithmetic.  0.0 means no step leaves the band.
    """
    dt = horizon / n_steps
    gains = control_paths * control_paths * dt
    worst = max(0.0, float(np.max(sigma_lo * sigma_lo * dt - gains)),
                float(np.max(gains - sigma_hi * sigma_hi * dt)))
    dt_f = Fraction(horizon) / n_steps
    lo_f = Fraction(sigma_lo) ** 2 * dt_f
    hi_f = Fraction(sigma_hi) ** 2 * dt_f
    for p in range(min(n_exact_paths, control_paths.shape[0])):
        for h in control_paths[p, :].tolist():
            gain = Fraction(h) * Fraction(h) * dt_f
            if gain < lo_f:
                worst = max(worst, float(lo_f - gain))
            elif gain > hi_f:
                worst = max(worst, float(gain - hi_f))
    return worst


# ----------------------------------------------------------------------
# Closed forms used as frozen expectations
# ----------------------------------------------------------------------


def envelope(var_lo, var_hi, a):
    """(1/2) * (var_hi * a+ - var_lo * a-), re-derived from scratch."""
    return 0.5 * (var_hi * max(a, 0.0) - var_lo * max(-a, 0.0))


def quadratic_surface(t, x, variance_rate):
    """u(t, x) = x^2 + variance_rate * t, the squared-payoff heat solution."""
    return x * x + variance_rate * t


def discounted_unit(rate, time_to_maturity):
    """exp(-rate * ttm): terminal value 1 under the driver -rate * y."""
    return math.exp(-rate * time_to_maturity)


# Frozen numerics the tests assert against (computed by the helpers above;
# regenerate with `python3 -m tests.oracles` if the grids ever change).
BUTTERFLY_LOW_VOL_VALUE = None  # set below
BUTTERFLY_BAND_VALUE = None  # set below


def _freeze():
    global BUTTERFLY_LOW_VOL_VALUE, BUTTERFLY_BAND_VALUE
    BUTTERFLY_LOW_VOL_VALUE = heat_value(butterfly, 1.0, 1.0, 0.0, kinks=(-1.0, 0.0, 1.0))
    BUTTERFLY_BAND_VALUE = band_heat_origin_value(butterfly, 1.0, 4.0, 1.0)


_freeze()


if __name__ == "__main__":
    print(f"butterfly under constant low vol : {BUTTERFLY_LOW_VOL_VALUE!r}")
    print(f"butterfly under the band         : {BUTTERFLY_BAND_VALUE!r}")
    print(f"E|Z| at sigma=2                  : {normal_abs_moment(1, 2.0)!r}")
    print(f"E|N(0,2)|                        : {math.sqrt(2.0) * normal_abs_moment(1, 1.0)!r}")
    print(f"compensating level (2, 1/4, 1)   : {compensating_level(2, Fraction(1, 4), 1)!r}")
    print(f"exp(-0.1)                        : {discounted_unit(0.1, 1.0)!r}")
