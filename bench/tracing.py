"""Span tracing of gbrownian's layers, from outside the package.

The tracer replaces each traced public function at every module attribute
its callers look it up by (``simulate`` lives in ``gbrownian.mc`` and is
looked up again as ``gbrownian.ito.simulate`` and ``gbrownian.cli.simulate``)
with a wrapper that records a span: name, start, end and parent span.  It
also wraps ``GBSDESolution.paths_view`` and every control's ``make_driver``,
whose returned driver is itself wrapped.  Spans stay in memory until the run
ends; nothing under ``src/`` is modified, and :func:`installed` restores
every attribute it replaced.

Memory peaks come from ``tracemalloc``, switched on only while a span that
tracks memory is open: such a span reports the highest traced allocation
above its entry level, with nested tracked spans folded into their parents.
"""

from __future__ import annotations

import contextlib
import math
import os
import time
import tracemalloc
from collections import defaultdict

import gbrownian
from gbrownian import cli, core, gbsde, gexp, gheat, ito, mc

MODULES = {"core": core, "gheat": gheat, "gexp": gexp, "mc": mc,
           "ito": ito, "gbsde": gbsde, "cli": cli}
MIB = 1024.0 * 1024.0
CONTROL_KINDS = ("constant", "step", "feedback", "self_dependent", "perturbed")
DIMS = ("1d", "2d", "3d")


class Span:
    __slots__ = ("name", "parent", "start", "end", "info", "peak_mib")

    def __init__(self, name: str, parent: int) -> None:
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.info = None
        self.peak_mib = None


class Tracer:
    """In-memory span recorder for one single-threaded traced pass."""

    def __init__(self) -> None:
        self.spans: list = []
        self._open: list = []     # indices of the spans now running
        self._mem: list = []      # [entry bytes, highest bytes] per tracked span

    def call(self, name, fn, args, kwargs, info=None, mem=False):
        span = Span(name, self._open[-1] if self._open else -1)
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        if mem:
            self._enter_mem()
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            if mem:
                span.peak_mib = self._exit_mem()
            self._open.pop()
        if info is not None:
            span.info = info(args, kwargs, result)
        return result

    def _enter_mem(self) -> None:
        # allocations are traced only inside memory-tracked spans, which
        # keeps tracemalloc's per-allocation cost off the other layers
        if not self._mem:
            tracemalloc.start()
        current, peak = tracemalloc.get_traced_memory()
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], peak)
        tracemalloc.reset_peak()
        self._mem.append([current, current])

    def _exit_mem(self) -> float:
        _, peak = tracemalloc.get_traced_memory()
        base, highest = self._mem.pop()
        highest = max(highest, peak)
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], highest)
        else:
            tracemalloc.stop()
        return (highest - base) / MIB


# ---------------------------------------------------------------------------
# what each span records beyond its interval
# ---------------------------------------------------------------------------

def _dim(xi) -> str:
    return f"{xi.n_times}d"


def _gexp_work(args, kwargs, result) -> dict:
    """Nodes marched by the nested sweep: steps x points**k per interval."""
    xi, _, time_grid, space_grid = args[:4]
    edges = (0.0,) + xi.times
    nodes = 0
    for k in range(1, len(edges)):
        steps = max(1, math.ceil((edges[k] - edges[k - 1]) / time_grid.dt - 1e-12))
        nodes += steps * space_grid.n_points ** k
    return {"node_updates": nodes,
            "working_set_bytes": 8 * space_grid.n_points ** xi.n_times}


def _gheat_work(args, kwargs, result) -> dict:
    return {"node_updates": args[2].n_steps * args[3].n_points}


def _frames(args, kwargs, result) -> dict:
    return {"frame_bytes": sum(f.nbytes for f in result)}


def _bundle(args, kwargs, result) -> dict:
    control, time_grid, n_paths, seed = args[:4]
    stream = args[4] if len(args) > 4 else kwargs.get("stream", 0)
    try:
        hash(control)
        ident = control
    except TypeError:
        ident = id(control)
    return {"path_steps": n_paths * time_grid.n_steps,
            "bundle_bytes": (result.b_paths.nbytes + result.qv_paths.nbytes
                             + result.control_paths.nbytes),
            "key": (ident, time_grid.horizon, time_grid.n_steps, n_paths,
                    seed, stream)}


def _bisection(args, kwargs, result) -> dict:
    return {"bisection_iters": sum(r["iterations"] for r in result)}


def _picard(args, kwargs, result) -> dict:
    return {"picard_iters": result[1], "picard_final_delta": result[2]}


def _written(args, kwargs, result) -> dict:
    out_dir = args[1] if len(args) > 1 else kwargs["out_dir"]
    files = [e for e in os.scandir(out_dir) if e.is_file()]
    return {"files_written": len(files),
            "bytes_written": sum(e.stat().st_size for e in files)}


# (module, function, span-name suffix from the arguments, info, track memory)
TRACED = (
    ("gheat", "solve_gheat", None, _gheat_work, False),
    ("gheat", "pde_residual", None, None, False),
    ("gheat", "export_surface_csv", None, None, False),
    ("gexp", "g_expectation", lambda a, k: _dim(a[0]), _gexp_work, False),
    ("gexp", "conditional_frames", None, _frames, True),
    ("mc", "simulate", lambda a, k: a[0].kind, _bundle, True),
    ("mc", "sup_over_controls_table", None, None, False),
    ("mc", "marginal_match_test", None, None, False),
    ("mc", "mc_expectation", None, None, False),
    ("mc", "qv_band_violation", None, None, False),
    ("ito", "martingale_decomposition", lambda a, k: _dim(a[0]), None, True),
    ("ito", "k_process", None, None, False),
    ("ito", "martingale_test", None, None, False),
    ("ito", "identify_drift", None, _bisection, False),
    ("ito", "stochastic_integral", None, None, False),
    ("gbsde", "solve_ppde", None, None, False),
    ("gbsde", "solve_ppde_picard", None, _picard, False),
    ("gbsde", "equivalence_check", None, None, True),
    ("gbsde", "gbsde_residual", None, None, False),
    ("gbsde", "ppde_residual", None, None, False),
    ("cli", "run_suite", None, _written, False),
)

CONTROL_CLASSES = (core.ConstantControl, core.StepControl,
                   core.SelfDependentControl, core.FeedbackControl,
                   mc.PerturbedControl)


def _wrap(tracer, name, fn, suffix=None, info=None, mem=False):
    def traced(*args, **kwargs):
        full = f"{name}.{suffix(args, kwargs)}" if suffix else name
        return tracer.call(full, fn, args, kwargs, info, mem)
    return traced


def _wrap_make_driver(tracer, make_driver):
    def traced_make_driver(self, time_grid, n_paths):
        driver = tracer.call("core.make_driver", make_driver,
                             (self, time_grid, n_paths), {})
        return _wrap(tracer, "core.driver", driver)
    return traced_make_driver


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route every traced lookup through ``tracer`` for the ``with`` body."""
    saved = []

    def replace(owner, attr, new):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    try:
        for module, fname, suffix, info, mem in TRACED:
            original = getattr(MODULES[module], fname)
            wrapper = _wrap(tracer, f"{module}.{fname}", original, suffix,
                            info, mem)
            for owner in (gbrownian, *MODULES.values()):
                if getattr(owner, fname, None) is original:
                    replace(owner, fname, wrapper)
        view = gbsde.GBSDESolution.paths_view
        replace(gbsde.GBSDESolution, "paths_view",
                _wrap(tracer, "gbsde.paths_view", view))
        for cls in CONTROL_CLASSES:
            replace(cls, "make_driver",
                    _wrap_make_driver(tracer, cls.__dict__["make_driver"]))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def layer_metrics(tracer: Tracer) -> dict:
    """Fold the spans of one traced pass into the per-layer metric table.

    Returns ``{name: (value, unit)}``.  A ``<name>.s`` figure sums the
    spans of that name that are not nested in a span of the same name
    (a rewritten control's driver calls its sub-control's driver); a
    module's ``self_s`` is its spans' durations minus the time their
    child spans cover.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    seconds = defaultdict(float)
    calls = defaultdict(int)
    peaks = defaultdict(float)
    counts = defaultdict(int)
    self_s = dict.fromkeys(MODULES, 0.0)
    by_kind = defaultdict(lambda: [0.0, 0])   # kind -> [seconds, path-steps]
    keys = set()
    n_bundles = 0
    for i, s in enumerate(spans):
        module = s.name.split(".", 1)[0]
        self_s[module] += (s.end - s.start) - child_time[i]
        if s.parent >= 0 and spans[s.parent].name == s.name:
            continue
        seconds[s.name] += s.end - s.start
        calls[s.name] += 1
        if s.peak_mib is not None:
            peaks[s.name] = max(peaks[s.name], s.peak_mib)
        info = s.info
        if info is None:        # no counters, or the call raised
            continue
        if s.name.startswith("mc.simulate."):
            kind = by_kind[s.name.rsplit(".", 1)[1]]
            kind[0] += s.end - s.start
            kind[1] += info["path_steps"]
            keys.add(info["key"])
            n_bundles += 1
            counts["mc.bundle_bytes"] = max(counts["mc.bundle_bytes"],
                                            info["bundle_bytes"])
        elif s.name.startswith("gexp.g_expectation."):
            d = s.name.rsplit(".", 1)[1]
            counts[f"gexp.node_updates.{d}"] += info["node_updates"]
            counts[f"gexp.working_set_bytes.{d}"] = max(
                counts[f"gexp.working_set_bytes.{d}"], info["working_set_bytes"])
        elif s.name == "gexp.conditional_frames":
            counts["gexp.frame_bytes"] = max(counts["gexp.frame_bytes"],
                                             info["frame_bytes"])
        elif s.name == "gheat.solve_gheat":
            counts["gheat.node_updates"] += info["node_updates"]
        elif s.name == "ito.identify_drift":
            counts["ito.bisection_iters"] += info["bisection_iters"]
        elif s.name == "gbsde.solve_ppde_picard":
            counts["gbsde.picard_iters"] += info["picard_iters"]
            counts["gbsde.picard_final_delta"] = max(
                counts["gbsde.picard_final_delta"], info["picard_final_delta"])
        elif s.name == "cli.run_suite":
            counts["cli.bytes_written"] += info["bytes_written"]
            counts["cli.files_written"] += info["files_written"]

    def rate(work, secs):
        return work / secs if secs > 0.0 else 0.0

    def peak(name):
        """Highest peak of the spans called ``name`` or ``name.<variant>``."""
        return max((v for k, v in peaks.items()
                    if k == name or k.startswith(name + ".")), default=0.0)

    out = {
        "core.driver.s": (seconds["core.driver"], "s"),
        "core.driver.calls": (calls["core.driver"], "count"),
        "core.make_driver.s": (seconds["core.make_driver"], "s"),
        "gheat.solve_gheat.s": (seconds["gheat.solve_gheat"], "s"),
        "gheat.node_updates": (counts["gheat.node_updates"], "count"),
        "gheat.node_updates_per_s": (rate(counts["gheat.node_updates"],
                                          seconds["gheat.solve_gheat"]), "1/s"),
        "gheat.pde_residual.s": (seconds["gheat.pde_residual"], "s"),
        "gheat.export_surface_csv.s": (seconds["gheat.export_surface_csv"], "s"),
    }
    for d in DIMS:
        secs = seconds[f"gexp.g_expectation.{d}"]
        nodes = counts[f"gexp.node_updates.{d}"]
        out[f"gexp.g_expectation.{d}.s"] = (secs, "s")
        out[f"gexp.node_updates.{d}"] = (nodes, "count")
        out[f"gexp.node_updates_per_s.{d}"] = (rate(nodes, secs), "1/s")
        out[f"gexp.working_set_bytes.{d}"] = (
            counts[f"gexp.working_set_bytes.{d}"], "B")
    out["gexp.conditional_frames.s"] = (seconds["gexp.conditional_frames"], "s")
    out["gexp.conditional_frames.peak_mib"] = (peak("gexp.conditional_frames"),
                                               "MiB")
    out["gexp.frame_bytes"] = (counts["gexp.frame_bytes"], "B")
    for kind in CONTROL_KINDS:
        secs, work = by_kind[kind]
        out[f"mc.simulate.{kind}.s"] = (secs, "s")
        out[f"mc.path_steps_per_s.{kind}"] = (rate(work, secs), "1/s")
    out["mc.simulate.peak_mib"] = (peak("mc.simulate"), "MiB")
    out["mc.bundle_bytes"] = (counts["mc.bundle_bytes"], "B")
    out["mc.bundles"] = (n_bundles, "count")
    out["mc.bundles_distinct"] = (len(keys), "count")
    out["mc.bundle_reuse_ratio"] = (len(keys) / n_bundles if n_bundles else 0.0,
                                    "ratio")
    for fname in ("sup_over_controls_table", "marginal_match_test",
                  "mc_expectation", "qv_band_violation"):
        out[f"mc.{fname}.s"] = (seconds[f"mc.{fname}"], "s")
    for d in DIMS[:2]:
        out[f"ito.martingale_decomposition.{d}.s"] = (
            seconds[f"ito.martingale_decomposition.{d}"], "s")
    out["ito.martingale_decomposition.peak_mib"] = (
        peak("ito.martingale_decomposition"), "MiB")
    for fname in ("k_process", "martingale_test", "identify_drift",
                  "stochastic_integral"):
        out[f"ito.{fname}.s"] = (seconds[f"ito.{fname}"], "s")
    out["ito.bisection_iters"] = (counts["ito.bisection_iters"], "count")
    for fname in ("solve_ppde", "solve_ppde_picard", "equivalence_check",
                  "paths_view", "gbsde_residual", "ppde_residual"):
        out[f"gbsde.{fname}.s"] = (seconds[f"gbsde.{fname}"], "s")
    out["gbsde.picard_iters"] = (counts["gbsde.picard_iters"], "count")
    out["gbsde.picard_final_delta"] = (counts["gbsde.picard_final_delta"], "1")
    out["gbsde.equivalence_check.peak_mib"] = (peak("gbsde.equivalence_check"),
                                               "MiB")
    out["cli.run_suite.s"] = (seconds["cli.run_suite"], "s")
    out["cli.bytes_written"] = (counts["cli.bytes_written"], "B")
    out["cli.files_written"] = (counts["cli.files_written"], "count")
    for module in MODULES:
        out[f"{module}.self_s"] = (self_s[module], "s")
    out["trace.spans"] = (len(spans), "count")
    return out
