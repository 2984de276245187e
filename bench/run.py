"""Benchmark of gbrownian: end-to-end figures per workload, per-layer trace.

Run from the repository root::

    python3 bench/run.py --workload pde-nested --seed 20260814 --seconds 20 --trace 0

Each run is one process and one thread (BLAS and OpenMP pools are pinned to
one thread before numpy loads).  The workload runs in a closed loop: one
caller, each pass starting when the previous one has finished, for as many
whole passes as fit in ``--seconds`` (at least one).  Every pass's outputs
are checked, and the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (``wall_s``, ``cpu_s``,
``peak_rss_mib``, ``setup_s``).  ``--trace 1`` runs one traced pass and
reports its per-layer metrics, then runs one untraced pass and checks that
both passes gave bitwise-equal check values.  See ``bench/README.md`` for
the metrics.
"""

import time

T0 = time.perf_counter()   # set-up time is counted from here

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"
DEFAULT_SEED = 20260814
SETUP_REPEATS = 5      # this process plus four fresh child processes
WORKLOAD_NAMES = ("pde-nested", "mc-sup", "pathwise", "cli-suite")


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed set-up)."""


def set_up(name: str, seed: int):
    """Import the package from this checkout, build inputs, warm up.

    Returns the workload and the seconds since interpreter start-up.
    """
    if not (SRC / "gbrownian" / "__init__.py").is_file():
        raise BenchError(f"no package sources at {SRC / 'gbrownian'}")
    sys.path.insert(0, str(SRC))
    import gbrownian
    if Path(gbrownian.__file__).resolve().parent != SRC / "gbrownian":
        raise BenchError(f"imported gbrownian from {gbrownian.__file__}, "
                         f"not from {SRC}")
    import workloads
    TMP.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[name](seed, str(ROOT))
    workloads.warm_up(str(TMP))
    return workload, time.perf_counter() - T0


def child_set_up(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", name, "--seed", str(seed)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"set-up child failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def timed_pass(workload):
    """One pass: wall and CPU seconds, and its check outcomes."""
    gc.collect()
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        results = workload.run_pass()
    except Exception:       # a pass that raises fails all of its checks
        traceback.print_exc()
        results = None
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    return wall, cpu, evaluate(workload, results)


def evaluate(workload, results) -> dict:
    if results is not None:
        try:
            return workload.checks(results)
        except Exception:
            traceback.print_exc()
    return {name: (False, None) for name in workload.check_names}


def canonical(checks: dict) -> dict:
    """Check values in a form where equality means bitwise equality."""
    return {k: v.hex() if isinstance(v, float) else repr(v)
            for k, (_, v) in checks.items()}


def tail_note(samples: list) -> str:
    """Median plus the highest percentile with ten samples beyond it."""
    n = len(samples)
    med = statistics.median(samples)
    if n < 11:
        return (f"median {med:.4f} over n={n}; max {max(samples):.4f} "
                f"(no percentile has ten samples beyond it at n={n})")
    q = 100.0 * (1.0 - 10.0 / n)
    ranked = sorted(samples)
    return (f"median {med:.4f} over n={n}; p{q:.0f} "
            f"{ranked[int(q / 100.0 * n) - 1]:.4f}")


def read_text(path: Path):
    try:
        return path.read_text()
    except OSError:
        return None


def last_level_cache():
    """(level, bytes) of the largest cache level that cpu0 reports."""
    best = (None, None)
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, size = read_text(index / "level"), read_text(index / "size")
        if level is None or size is None:
            continue
        size = size.strip()
        scale = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}.get(size[-1:], 1)
        value = int(size.rstrip("KMG")) * scale
        if best[0] is None or int(level) >= best[0]:
            best = (int(level), value)
    return best


def git_commit():
    head = read_text(ROOT / ".git" / "HEAD")
    if head is None:
        return "unknown (not a git checkout)"
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = read_text(ROOT / ".git" / ref)
    if direct is not None:
        return direct.strip()
    for line in (read_text(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def environment(workload) -> dict:
    import numpy
    import scipy
    model = None
    for line in (read_text(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    level, llc = last_level_cache()
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "cpu_model": model,
            "llc_level": level, "llc_bytes": llc, "git_commit": git_commit(),
            "array_bytes": workload.sizes()}


def measure(workload, seconds: float, setup_main: float, name: str, seed: int):
    setups = [setup_main] + [child_set_up(name, seed)
                             for _ in range(SETUP_REPEATS - 1)]
    walls, cpus, outcomes = [], [], []
    start = time.perf_counter()
    while True:
        wall, cpu, checks = timed_pass(workload)
        walls.append(wall)
        cpus.append(cpu)
        outcomes.append(checks)
        if time.perf_counter() - start + wall > seconds:
            break
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mib": (peak, "MiB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    notes = [f"wall_s: {tail_note(walls)}", f"cpu_s: {tail_note(cpus)}",
             f"setup_s: {tail_note(setups)}"]
    return metrics, outcomes, notes


def trace(workload):
    """One traced pass, then one untraced pass to compare check values with.

    The traced pass runs first, so that it is the process's first pass,
    as the pass of an untraced run is: tracing overhead is ``trace.wall_s``
    minus the untraced runs' ``wall_s``.
    """
    import tracing
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        wall_traced, _, traced = timed_pass(workload)
    _, _, plain = timed_pass(workload)
    metrics = tracing.layer_metrics(tracer)
    metrics["trace.wall_s"] = (wall_traced, "s")
    same = canonical(plain) == canonical(traced)
    bitwise = {"trace-bitwise-equal": (same, float(same))}
    return metrics, [traced, plain, bitwise], []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="only set up, and print the set-up seconds")
    args = parser.parse_args(argv)

    try:
        workload, setup_main = set_up(args.workload, args.seed)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_main}))
            return 0
        if args.trace:
            metrics, outcomes, notes = trace(workload)
        else:
            metrics, outcomes, notes = measure(workload, args.seconds,
                                               setup_main, args.workload,
                                               args.seed)
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2

    attempted = sum(len(o) for o in outcomes)
    failed = [name for o in outcomes for name, (ok, _) in o.items() if not ok]
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{len(outcomes)} outcome set(s)")
    for name in sorted(set(failed)):
        print(f"FAILED check: {name}")
    print(f"ops_failed_frac {len(failed) / attempted!r} "
          f"({len(failed)} of {attempted} checks)")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({"env": environment(workload)}))
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
