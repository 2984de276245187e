"""Batch experiment harness: JSON configs in, CSV tables and exit codes out.

A suite is a JSON document::

    {
      "band":  {"sigma_lo": 1.0, "sigma_hi": 2.0},
      "grids": {"T": 1.0, "n_steps": 2048, "x_min": -6.0, "x_max": 6.0,
                "n_points": 241},
      "mc":    {"n_paths": 2000, "seed": 7, "n_steps": 512},
      "experiments": [{"name": "gexp", "payoff": "x2"}, ...]
    }

``grids`` sizes the PDE solves (``n_steps`` must satisfy the CFL bound),
``mc.n_steps`` sizes the simulation grid (defaults to ``min(1024,
grids.n_steps)``).  Each experiment entry may override any of the three
sections with nested dicts of the same shape, plus the keys its runner
reads (listed in ``_RUNNERS``); any other key is refused.

Runners write ``<index>-<name>.csv`` into the output directory plus a
shared ``summary.csv`` whose rows carry (experiment, metric, value,
tolerance, seed, status).  Identical config + seeds give byte-identical
files: floats are written with ``repr``, nothing embeds a timestamp, and
experiments run sequentially.

Exit codes: 0 all checks passed (or nothing to run), 1 at least one check
failed, 2 the config was rejected (bad schema, bad band, CFL violation,
unknown names) — always with the offending location in the message.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import gbsde as gbsde_mod
from .core import (
    ConstantControl,
    CylinderFunctional,
    GParams,
    PerturbationSchedule,
    SelfDependentControl,
    SpaceGrid,
    StepControl,
    TimeGrid,
    g_value,
)
from .errors import GBrownianError, ConfigurationError
from .gexp import g_expectation
from .gheat import export_surface_csv, gradient, pde_residual, solve_gheat
from .ito import identify_drift, k_process, martingale_decomposition, \
    martingale_table, martingale_test, step2_limit_check
from .mc import block_budget_gap, marginal_match_table, perturb_control, simulate

_DEFAULTS = {
    "band": {"sigma_lo": 1.0, "sigma_hi": 2.0},
    "grids": {"T": 1.0, "n_steps": 2048, "x_min": -6.0, "x_max": 6.0,
              "n_points": 241},
    "mc": {"n_paths": 2000, "seed": 7, "n_steps": None},
}

OUT_DIR_ENV = "GBROWNIAN_OUT"


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _merge_section(section: str, config: dict, override: dict, where: str) -> dict:
    base = dict(_DEFAULTS[section])
    for source, loc in ((config.get(section, {}), f"{section} section"),
                        (override.get(section, {}), f"{where}.{section}")):
        if not isinstance(source, dict):
            raise ConfigurationError(f"{loc}: expected an object")
        for key, val in source.items():
            if key not in base:
                raise ConfigurationError(f"{loc}: unknown key {key!r}")
            base[key] = val
    return base


def _as_number(value, where: str) -> float:
    # json reads NaN, Infinity and -Infinity as floats
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value):
        raise ConfigurationError(f"{where}: expected a finite number, got {value!r}")
    return float(value)


def _as_int(value, where: str) -> int:
    n = _as_number(value, where)
    if n != int(n):
        raise ConfigurationError(f"{where}: expected an integer, got {value!r}")
    return int(n)


def _as_list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ConfigurationError(f"{where}: expected a list, got {value!r}")
    return value


def _choice(value, choices, what: str, where: str) -> str:
    """``value`` if it is the name of one of ``choices``."""
    if not isinstance(value, str) or value not in choices:
        raise ConfigurationError(f"{where}: unknown {what} {value!r}; "
                                 f"choose from {sorted(choices)}")
    return value


def _piecewise(exp: dict, key: str, default: dict, where: str) -> tuple:
    """``exp[key]`` (or ``default``) as its ``(breaks, values)`` number lists."""
    spec = exp.get(key, default)
    if not isinstance(spec, dict):
        raise ConfigurationError(f"{where}.{key}: expected an object with "
                                 f"'breaks' and 'values', got {spec!r}")
    return tuple([_as_number(v, f"{where}.{key}.{part}")
                  for v in _as_list(spec.get(part), f"{where}.{key}.{part}")]
                 for part in ("breaks", "values"))


class _Env:
    """Resolved per-experiment configuration."""

    def __init__(self, config: dict, exp: dict, where: str,
                 seed_override) -> None:
        band = _merge_section("band", config, exp, where)
        grids = _merge_section("grids", config, exp, where)
        mc = _merge_section("mc", config, exp, where)
        self.band = GParams(_as_number(band["sigma_lo"], f"{where}.band"),
                            _as_number(band["sigma_hi"], f"{where}.band"))
        horizon = _as_number(grids["T"], f"{where}.grids.T")
        self.time_grid = TimeGrid(horizon, _as_int(grids["n_steps"],
                                                   f"{where}.grids.n_steps"))
        self.space_grid = SpaceGrid(
            _as_number(grids["x_min"], f"{where}.grids.x_min"),
            _as_number(grids["x_max"], f"{where}.grids.x_max"),
            _as_int(grids["n_points"], f"{where}.grids.n_points"))
        self.n_paths = _as_int(mc["n_paths"], f"{where}.mc.n_paths")
        self.seed = _as_int(mc["seed"], f"{where}.mc.seed") \
            if seed_override is None else int(seed_override)
        mc_steps = mc["n_steps"]
        if mc_steps is None:
            mc_steps = min(1024, self.time_grid.n_steps)
        self.mc_grid = TimeGrid(horizon, _as_int(mc_steps, f"{where}.mc.n_steps"))

    @property
    def horizon(self) -> float:
        return self.time_grid.horizon


def _divisor_near(n: int, target: int) -> int:
    best = 1
    for d in range(1, n + 1):
        if n % d == 0 and abs(d - target) < abs(best - target):
            best = d
    return best


# ---------------------------------------------------------------------------
# payoff registry: name -> (arity, builder)
# ---------------------------------------------------------------------------

def _region(band: GParams, horizon: float) -> float:
    return max(8.0, 7.0 * band.sigma_hi * math.sqrt(horizon))


def _registry(band: GParams, horizon: float, strike: float) -> dict:
    big = _region(band, horizon)
    k = abs(strike)
    return {
        "x2": (1, lambda x: x * x, 2.0 * big, big * big),
        "neg-x2": (1, lambda x: -(x * x), 2.0 * big, big * big),
        "abs": (1, np.abs, 1.0, big),
        "identity": (1, lambda x: x + 0.0, 1.0, big),
        "butterfly": (1, lambda x: np.maximum(0.0, 1.0 - np.abs(x)), 1.0, 1.0),
        "call": (1, lambda x: np.maximum(x - strike, 0.0), 1.0, big + k),
        "put": (1, lambda x: np.maximum(strike - x, 0.0), 1.0, big + k),
        "max2": (2, np.maximum, 1.0, big),
        "increment-abs": (2, lambda a, b: np.abs(b - a), 1.0, 2.0 * big),
        "mean3": (3, lambda a, b, c: (a + b + c) / 3.0, 1.0, big),
    }


def _build_functional(exp: dict, env: _Env, where: str,
                      default: str = "x2") -> CylinderFunctional:
    strike = _as_number(exp.get("strike", 1.0), f"{where}.strike")
    table = _registry(env.band, env.horizon, strike)
    name = _choice(exp.get("payoff", default), table, "payoff",
                   f"{where}.payoff")
    arity, fn, lip, bound = table[name]
    if "dates" in exp:
        times = tuple(_as_number(t, f"{where}.dates")
                      for t in _as_list(exp["dates"], f"{where}.dates"))
    else:
        times = tuple(env.horizon * j / arity for j in range(1, arity + 1))
    if len(times) != arity:
        raise ConfigurationError(
            f"{where}: payoff {name!r} monitors {arity} date(s), "
            f"got dates={list(times)}"
        )
    return CylinderFunctional(times, fn, lip, bound, name=name)


def _negated(xi: CylinderFunctional) -> CylinderFunctional:
    fn = xi.payoff
    return CylinderFunctional(xi.times, lambda *a: -fn(*a), xi.lipschitz_bound,
                              xi.value_bound, f"neg({xi.name})")


# ---------------------------------------------------------------------------
# summary rows
# ---------------------------------------------------------------------------

def _row(experiment: str, metric: str, value, tolerance="", seed="",
         status: str = "info") -> dict:
    if isinstance(value, float):
        value = repr(value)
    if isinstance(tolerance, float):
        tolerance = repr(tolerance)
    return {"experiment": experiment, "metric": metric, "value": str(value),
            "tolerance": str(tolerance), "seed": str(seed), "status": status}


def _check(experiment: str, metric: str, value: float, tolerance: float,
           seed="") -> dict:
    ok = abs(value) <= tolerance
    return _row(experiment, metric, value, tolerance, seed,
                "pass" if ok else "fail")


def _flag(experiment: str, metric: str, ok: bool, seed="") -> dict:
    return _row(experiment, metric, int(bool(ok)), "", seed,
                "pass" if ok else "fail")


def _write_csv(path: str, header: list, rows: list) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([repr(v) if isinstance(v, float) else v for v in r]
                    for r in rows)


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------

def _run_solve_gheat(env: _Env, exp: dict, label: str, out_dir: str,
                     where: str) -> list:
    xi = _build_functional(exp, env, where, default="butterfly")
    if xi.n_times != 1:
        raise ConfigurationError(f"{where}: solve-gheat needs a one-date payoff")
    surface = solve_gheat(xi.payoff, env.band, env.time_grid, env.space_grid)
    stride = _as_int(exp.get("time_stride",
                             max(1, env.time_grid.n_steps // 64)),
                     f"{where}.time_stride")
    export_surface_csv(surface, os.path.join(out_dir, f"{label}.csv"),
                       time_stride=stride)
    scale = max(1.0, float(np.max(surface.values)),
                -float(np.min(surface.values)))
    resid = float(np.max(np.abs(pde_residual(surface))))
    return [
        _row(label, "value-at-origin", surface.value(env.horizon, 0.0)),
        _check(label, "interior-equation-residual", resid, 1e-9 * scale),
    ]


def _run_gexp(env: _Env, exp: dict, label: str, out_dir: str,
              where: str) -> list:
    xi = _build_functional(exp, env, where)
    upper = g_expectation(xi, env.band, env.time_grid, env.space_grid)
    lower = -g_expectation(_negated(xi), env.band, env.time_grid, env.space_grid)
    _write_csv(os.path.join(out_dir, f"{label}.csv"),
               ["payoff", "dates", "upper_value", "lower_value"],
               [[xi.name, " ".join(repr(t) for t in xi.times), upper, lower]])
    scale = max(1.0, abs(upper), abs(lower))
    return [
        _row(label, "upper-value", upper),
        _row(label, "lower-value", lower),
        _check(label, "sublinear-order-violation",
               max(0.0, lower - upper), 1e-9 * scale),
    ]


def _run_decompose(env: _Env, exp: dict, label: str, out_dir: str,
                   where: str) -> list:
    xi = _build_functional(exp, env, where)
    bundle_steps = _as_int(exp.get("bundle_steps", 64), f"{where}.bundle_steps")
    control = ConstantControl(env.band, env.band.sigma_lo)
    bundle = simulate(control, TimeGrid(env.horizon, bundle_steps),
                      env.n_paths, env.seed)
    dec = martingale_decomposition(xi, env.band, env.time_grid,
                                   env.space_grid, bundle)
    resid = float(np.max(dec.residuals()))
    budget = _as_number(
        exp.get("budget", 8.0 * env.band.var_hi
                * math.sqrt(bundle.time_grid.dt * env.horizon)),
        f"{where}.budget")
    dk = np.diff(dec.k_paths, axis=-1)
    times = bundle.time_grid.times()
    sample = []
    for p in range(min(5, bundle.n_paths)):
        for j in range(bundle_steps + 1):
            sample.append([p, j, float(times[j]), float(bundle.b_paths[p, j]),
                           float(dec.m_paths[p, j]), float(dec.z_paths[p, j]),
                           float(dec.k_paths[p, j])])
    _write_csv(os.path.join(out_dir, f"{label}.csv"),
               ["path", "step", "t", "B", "M", "Z", "K"], sample)
    return [
        _row(label, "initial-value", dec.initial, "", env.seed),
        _check(label, "max-reconstruction-residual", resid, budget, env.seed),
        _check(label, "k-initial", float(np.max(np.abs(dec.k_paths[:, 0]))),
               1e-12, env.seed),
        _flag(label, "k-nonincreasing",
              bool(np.all(dk <= 1e-12 * max(1.0, float(np.max(np.abs(dec.k_paths))))))
              , env.seed),
    ]


def _default_family(env: _Env) -> list:
    lo, hi = env.band.sigma_lo, env.band.sigma_hi
    half = env.horizon / 2.0
    return [
        ConstantControl(env.band, lo),
        ConstantControl(env.band, hi),
        StepControl(env.band, (0.0, half, env.horizon), (lo, hi)),
        StepControl(env.band, (0.0, half, env.horizon), (hi, lo)),
    ]


def _run_verify_martingale(env: _Env, exp: dict, label: str, out_dir: str,
                           where: str) -> list:
    family = _default_family(env)
    half = env.horizon / 2.0
    pairs = [(0.0, half), (half, env.horizon), (0.0, env.horizon)]
    k_report, drift_report = martingale_table(
        [lambda b: k_process(1.0, b),
         lambda b: np.broadcast_to(-b.time_grid.times(), b.b_paths.shape).copy()],
        family, pairs, env.mc_grid, env.n_paths, env.seed)

    table = []
    for proc, rep in (("K(1)", k_report), ("drift", drift_report)):
        for r in rep.rows:
            table.append([proc, r["s"], r["t"], r["sup_mean"], r["sup_stderr"],
                          r["min_mean"], r["min_stderr"],
                          int(r["window_consistent"])])
    _write_csv(os.path.join(out_dir, f"{label}.csv"),
               ["process", "s", "t", "sup_mean", "sup_stderr", "min_mean",
                "min_stderr", "window_consistent"], table)

    refuted = all(r["sup_mean"] < -3.0 * r["sup_stderr"] for r in drift_report.rows)
    rows = [_flag(label, "k-martingale-consistent", k_report.consistent,
                  env.seed),
            _flag(label, "drift-process-refuted", refuted, env.seed)]
    spread = env.band.var_spread
    for r in k_report.rows:
        expected_min = -spread * (r["t"] - r["s"])
        rows.append(_check(label,
                           f"k-min-drift-gap-[{r['s']:g},{r['t']:g}]",
                           r["min_mean"] - expected_min,
                           0.05 * abs(expected_min) + 3.0 * r["min_stderr"],
                           env.seed))
    return rows


def _shrunk_mid_base(env: _Env, m: int) -> SelfDependentControl:
    """m-block base whose levels sit strictly inside every shrunk band
    used by the default schedules (alpha = 1/4)."""
    lo2, hi2 = env.band.var_lo, env.band.var_hi
    eps = 0.25 * (hi2 - lo2)
    mid = math.sqrt(0.5 * (lo2 + hi2))
    low = math.sqrt(lo2 + eps)
    high = math.sqrt(hi2 - eps)

    def first(_mid=mid):
        return _mid

    def dependent(*increments):
        return np.where(increments[-1] > 0.0, high, low)

    rules = [first] + [dependent] * (m - 1)
    return SelfDependentControl(env.band, tuple(rules))


def _run_verify_lemma32(env: _Env, exp: dict, label: str, out_dir: str,
                        where: str) -> list:
    base = _shrunk_mid_base(env, 2)
    grid = env.mc_grid
    sub = ConstantControl(env.band, env.band.sigma_lo)
    schedules = [PerturbationSchedule(r, 0.25, sub) for r in (0, 1, 2)]
    half = env.horizon / 2.0
    big = _region(env.band, env.horizon)
    psis = [
        CylinderFunctional((half,), lambda x: x + 0.0, 1.0, big, name="mid-level"),
        CylinderFunctional((env.horizon,), lambda x: x * x, 2.0 * big,
                           big * big, name="terminal-square"),
        CylinderFunctional((half, env.horizon), lambda a, b: np.abs(b - a),
                           1.0, 2.0 * big, name="increment-abs"),
    ]
    cells = marginal_match_table(
        base, [perturb_control(base, sched) for sched in schedules], psis,
        grid, env.n_paths, env.seed)
    rows = []
    table = []
    for sched, results in zip(schedules, cells):
        for psi, res in zip(psis, results):
            metric = f"match-r{sched.refinement}-{psi.name}"
            if res.status != "tested":
                rows.append(_row(label, metric, res.status, "", env.seed,
                                 "fail"))
                continue
            rows.append(_check(label, metric, res.diff, 3.0 * res.stderr,
                               env.seed))
            table.append([sched.refinement, psi.name, res.mean_base,
                          res.mean_alt, res.diff, res.stderr,
                          int(bool(res.passed))])
    _write_csv(os.path.join(out_dir, f"{label}.csv"),
               ["refinement", "functional", "mean_base", "mean_perturbed",
                "diff", "stderr", "passed"], table)
    rows.extend(_step1_level_rows(env, label))
    return rows


def _step1_level_rows(env: _Env, label: str) -> list:
    """Compensating level of the one-block rewrite: realized vs formula."""
    mid_sq = 0.5 * (env.band.var_lo + env.band.var_hi)
    base = SelfDependentControl(env.band, (lambda: math.sqrt(mid_sq),))
    sub = ConstantControl(env.band, env.band.sigma_lo)
    sched = PerturbationSchedule(0, 0.25, sub)
    pert = perturb_control(base, sched)
    grid = env.mc_grid
    bundle = simulate(pert, grid, 2, env.seed)
    realized = float(bundle.control_paths[0, -1])
    steps, sub_steps, s_alpha = pert.layout(grid)
    expected = math.sqrt((mid_sq * sub_steps - env.band.var_lo * s_alpha)
                         / (sub_steps - s_alpha))
    return [
        _check(label, "step1-compensating-level-gap", realized - expected,
               1e-9, env.seed),
        _flag(label, "step1-level-in-band",
              bool(env.band.contains_level(realized)), env.seed),
        _row(label, "step1-compensating-level", realized, "", env.seed),
    ]


def _run_verify_theorem35(env: _Env, exp: dict, label: str, out_dir: str,
                          where: str) -> list:
    rows = _step1_level_rows(env, label)

    zeta = _piecewise(exp, "zeta", {"breaks": [0.0, 0.25, 1.0],
                                    "values": [2.0, 0.5]}, where)
    table = step2_limit_check(zeta, 0.25, [1, 2, 4, 8, 16])
    csv_rows = [[r["k"], int(r["aligned"]), r["gap"],
                 int(r["gap_exact_zero"]), r["per_block_identity_gap"],
                 r["signed_gap"], int(r["proportionality_exact"])]
                for r in table]
    _write_csv(os.path.join(out_dir, f"{label}.csv"),
               ["k", "aligned", "gap", "gap_exact_zero",
                "per_block_identity_gap", "signed_gap",
                "proportionality_exact"], csv_rows)
    aligned_ok = all(r["gap_exact_zero"] for r in table if r["aligned"])
    any_aligned = any(r["aligned"] for r in table)
    rows.append(_flag(label, "step2-aligned-gaps-exactly-zero",
                      aligned_ok and any_aligned))
    rows.append(_check(label, "step2-per-block-identity",
                       max(r["per_block_identity_gap"] for r in table), 0.0))

    base = _shrunk_mid_base(env, 2)
    sub = ConstantControl(env.band, env.band.sigma_lo)
    pert0 = perturb_control(base, PerturbationSchedule(0, 0.25, sub))
    pert1 = perturb_control(base, PerturbationSchedule(1, 0.25, sub))
    # the scan needs the band-edge control that attains the supremum;
    # the rewrites then sit below it without tripping the verdict
    family = [base, pert0, pert1,
              ConstantControl(env.band, env.band.sigma_hi),
              ConstantControl(env.band, env.band.sigma_lo)]
    report = martingale_test(lambda b: k_process(1.0, b), family,
                             [(0.0, env.horizon)], env.mc_grid, env.n_paths,
                             env.seed)
    rows.append(_flag(label, "step3-k-martingale-under-rewrites",
                      report.consistent, env.seed))
    gap_bundle = simulate(pert1, env.mc_grid, min(env.n_paths, 64), env.seed)
    rows.append(_check(label, "step3-block-budget-gap",
                       block_budget_gap(gap_bundle, base), 1e-10, env.seed))
    rows.append(_flag(label, "step4-proportionality-exact",
                      all(r["proportionality_exact"] for r in table)))
    return rows


def _run_identify_drift(env: _Env, exp: dict, label: str, out_dir: str,
                        where: str) -> list:
    eta = _piecewise(exp, "eta", {
        "breaks": [0.0, env.horizon / 2.0, env.horizon], "values": [1.0, -1.0]},
        where)
    family = [ConstantControl(env.band, env.band.sigma_lo),
              ConstantControl(env.band, env.band.sigma_hi)]
    out = identify_drift(eta, env.band, family, env.mc_grid, env.n_paths,
                         env.seed)
    rows = []
    table = []
    for r in out:
        exact = 2.0 * g_value(env.band, r["eta"])
        tol = 0.02 * max(abs(exact), 0.5 * env.band.var_lo)
        rows.append(_check(label,
                           f"drift-rate-[{r['t_lo']:g},{r['t_hi']:g}]",
                           r["c"] - exact, tol, env.seed))
        table.append([r["t_lo"], r["t_hi"], r["eta"], r["c"], exact,
                      r["iterations"]])
    _write_csv(os.path.join(out_dir, f"{label}.csv"),
               ["t_lo", "t_hi", "eta", "identified_c", "exact_c",
                "iterations"], table)
    return rows


_DRIVERS = {
    "zero": (lambda r, a, b, c: (lambda t, y, z: np.zeros_like(y)),
             lambda r, a, b, c: 0.0),
    "discount": (lambda r, a, b, c: (lambda t, y, z: -r * y),
                 lambda r, a, b, c: abs(r)),
    "affine": (lambda r, a, b, c: (lambda t, y, z: a + b * y + c * z),
               lambda r, a, b, c: abs(b) + abs(c)),
}


def _run_gbsde(env: _Env, exp: dict, label: str, out_dir: str,
               where: str) -> list:
    xi = _build_functional(exp, env, where)
    driver_name = _choice(exp.get("driver", "discount"), _DRIVERS, "driver",
                          f"{where}.driver")
    r = _as_number(exp.get("rate", 0.1), f"{where}.rate")
    a = _as_number(exp.get("a", 0.0), f"{where}.a")
    b = _as_number(exp.get("b", 0.0), f"{where}.b")
    c = _as_number(exp.get("c", 0.0), f"{where}.c")
    make, lip = _DRIVERS[driver_name]
    problem = gbsde_mod.GBSDEProblem(xi, make(r, a, b, c), env.band,
                                     lip(r, a, b, c))
    solution = gbsde_mod.solve_ppde(problem, env.time_grid, env.space_grid)
    picard, iters, delta = gbsde_mod.solve_ppde_picard(
        problem, env.time_grid, env.space_grid)
    gap = np.subtract(picard.y_values, solution.y_values)
    picard_gap = float(np.max(np.abs(gap, out=gap)))
    del gap

    bundle_steps = _as_int(exp.get("bundle_steps",
                                   _divisor_near(env.time_grid.n_steps, 64)),
                           f"{where}.bundle_steps")
    control = ConstantControl(env.band, env.band.sigma_lo)
    bundle = simulate(control, TimeGrid(env.horizon, bundle_steps),
                      env.n_paths, env.seed)
    equiv = gbsde_mod.equivalence_check(solution, bundle)

    pts = env.space_grid.points()
    z0 = gradient(solution.y_values[0], env.space_grid.dx)
    profile = [[float(pts[j]), float(solution.y_values[0, j]), float(z0[j])]
               for j in range(env.space_grid.n_points)]
    _write_csv(os.path.join(out_dir, f"{label}.csv"), ["x", "y0", "z0"],
               profile)
    scale = max(1.0, float(np.max(solution.y_values)),
                -float(np.min(solution.y_values)))
    return [
        _row(label, "y-at-origin", solution.initial),
        _check(label, "picard-agreement", picard_gap, 1e-7 * scale),
        _row(label, "picard-iterations", iters),
        _check(label, "equation-residual", equiv.pde_residual, equiv.pde_tol),
        _check(label, "backward-relation-residual", equiv.bsde_residual,
               equiv.bsde_tol, env.seed),
        _check(label, "k-initial", equiv.relation.k_initial, 1e-12, env.seed),
        _flag(label, "k-nonincreasing", equiv.relation.k_monotone, env.seed),
    ]


def _run_price_uvm(env: _Env, exp: dict, label: str, out_dir: str,
                   where: str) -> list:
    xi = _build_functional(exp, env, where, default="butterfly")
    ask = g_expectation(xi, env.band, env.time_grid, env.space_grid)
    bid = -g_expectation(_negated(xi), env.band, env.time_grid, env.space_grid)
    _write_csv(os.path.join(out_dir, f"{label}.csv"),
               ["payoff", "bid", "ask", "sigma_lo", "sigma_hi"],
               [[xi.name, bid, ask, env.band.sigma_lo, env.band.sigma_hi]])
    return [
        _row(label, "bid", bid),
        _row(label, "ask", ask),
        _check(label, "bid-ask-order-violation", max(0.0, bid - ask),
               1e-9 * max(1.0, abs(ask))),
    ]


# each runner and the keys it reads besides name, band, grids and mc
_RUNNERS = {
    "solve-gheat": (_run_solve_gheat, "payoff strike dates time_stride"),
    "gexp": (_run_gexp, "payoff strike dates"),
    "decompose": (_run_decompose, "payoff strike dates bundle_steps budget"),
    "verify-martingale": (_run_verify_martingale, ""),
    "verify-lemma32": (_run_verify_lemma32, ""),
    "verify-theorem35": (_run_verify_theorem35, "zeta"),
    "identify-drift": (_run_identify_drift, "eta"),
    "gbsde": (_run_gbsde, "payoff strike dates driver rate a b c bundle_steps"),
    "price-uvm": (_run_price_uvm, "payoff strike dates"),
}


# ---------------------------------------------------------------------------
# suite driver
# ---------------------------------------------------------------------------

def run_suite(config: dict, out_dir: str, seed_override=None):
    """Execute a parsed config.  Returns ``(summary_rows, exit_code, error)``.

    ``error`` is None unless the exit code is 2, in which case it carries
    the validation message with its location.
    """
    rows: list = []
    error = None
    code = 0
    try:
        if not isinstance(config, dict):
            raise ConfigurationError("top level: expected a JSON object")
        known = {"band", "grids", "mc", "experiments"}
        for key in config:
            if key not in known:
                raise ConfigurationError(f"top level: unknown key {key!r}")
        experiments = config.get("experiments", [])
        if not isinstance(experiments, list):
            raise ConfigurationError("experiments: expected a list")
        os.makedirs(out_dir, exist_ok=True)

        for i, exp in enumerate(experiments):
            where = f"experiments[{i}]"
            if not isinstance(exp, dict) or "name" not in exp:
                raise ConfigurationError(f"{where}: expected an object with a 'name'")
            name = _choice(exp["name"], _RUNNERS, "experiment", f"{where}.name")
            runner, keys = _RUNNERS[name]
            for key in exp:
                _choice(key, ["name", *_DEFAULTS, *keys.split()], "key",
                        f"{where}.{key}")
            label = f"{i:02d}-{name}"
            try:
                env = _Env(config, exp, where, seed_override)
                rows.extend(runner(env, exp, label, out_dir, where))
            except GBrownianError as err:
                msg = str(err)
                if where not in msg:
                    msg = f"{where} ({name}): {msg}"
                raise ConfigurationError(msg) from err
    except GBrownianError as err:
        error = str(err)
        code = 2
    else:
        if any(r["status"] == "fail" for r in rows):
            code = 1

    if error is None:
        with open(os.path.join(out_dir, "summary.csv"), "w", newline="") as fh:
            w = csv.DictWriter(fh, ["experiment", "metric", "value",
                                    "tolerance", "seed", "status"])
            w.writeheader()
            w.writerows(rows)
    return rows, code, error


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gbrownian",
        description="Deterministic experiment suites for band-volatility "
                    "expectations (CSV reports, CI-friendly exit codes).")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute a JSON experiment suite")
    runp.add_argument("config", help="path to the suite JSON document")
    runp.add_argument("--out", default=None,
                      help=f"output directory (default $"
                           f"{OUT_DIR_ENV} or ./out)")
    runp.add_argument("--seed", type=int, default=None,
                      help="override every experiment's seed")
    args = parser.parse_args(argv)

    out_dir = args.out or os.environ.get(OUT_DIR_ENV) or "out"
    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        print(f"config error: {args.config}: {err}", file=sys.stderr)
        return 2

    rows, code, error = run_suite(config, out_dir, seed_override=args.seed)
    for r in rows:
        tol = f" (tol {r['tolerance']})" if r["tolerance"] else ""
        seed = f" [seed {r['seed']}]" if r["seed"] else ""
        print(f"{r['status']:>4}  {r['experiment']}/{r['metric']} = "
              f"{r['value']}{tol}{seed}")
    if error is not None:
        print(f"config error: {error}", file=sys.stderr)
    else:
        n_checks = sum(1 for r in rows if r["status"] in ("pass", "fail"))
        verdict = "PASS" if code == 0 else "FAIL"
        print(f"suite: {verdict} ({n_checks} checks, "
              f"{len(rows) - n_checks} info rows)")
    return code


if __name__ == "__main__":
    sys.exit(main())
