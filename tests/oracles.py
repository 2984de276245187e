"""Independent reference values for the test suite.

Nothing in this module imports ``gbrownian``.  Reference numbers come from
closed forms, Gauss-Hermite quadrature against the Gaussian kernel, exact
rational bookkeeping with ``fractions.Fraction``, and one deliberately
small hand-rolled finite-difference solver written with plain loops.  The
tests freeze the resulting values (or call these helpers directly) so a
regression in the package shows up as a mismatch against an independent
computation rather than against the package's own output.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.integrate import quad

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
