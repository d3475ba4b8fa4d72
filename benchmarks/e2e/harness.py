"""Load generation, statistics and bookkeeping shared by the e2e workloads.

Nothing here imports ``repro``: the self-tests exercise these pieces with
fakes, and ``compare.py`` needs only :data:`END_TO_END`.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import threading
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Seconds of timed work per run; BENCHMARK.json's ``run_seconds``.
DEFAULT_SECONDS = 15

WORKLOADS = ("plan_cold", "exec_large", "serve_pinned", "serve_cached")

#: name -> (unit, better, bound).  The bound is the share of the baseline's
#: median by which the metric may worsen.  Counts that repeat exactly get
#: 1e-6: any change is a regression (0 would leave no room for "<").  Every
#: wall-clock metric gets the widest bound a benchmark may declare, because
#: the 2-core box this was built on has slow spells that a 15 s run cannot
#: average out (README, "Why the timing bounds are wide").
EXACT = 1e-6
WALL = 0.25
END_TO_END = {
    "setup_s": ("s", "lower", WALL),
    "plan_s": ("s", "lower", WALL),
    "plan_io_ratio": ("ratio", "lower", EXACT),
    "exec_s": ("s", "lower", WALL),
    "jobs_per_s": ("1/s", "higher", WALL),
    "job_p50_ms": ("ms", "lower", WALL),
    "job_p90_ms": ("ms", "lower", WALL),
    "io_mb_per_job": ("MB", "lower", 0.10),
    "verified_share": ("ratio", "higher", EXACT),
    "peak_rss_mb": ("MB", "lower", 0.15),
}

#: name -> (unit, better), in the order the README's layer table lists them.
#: Layer metrics have no bound; a layer a workload never enters reads 0.
_HIGHER = {"analysis.opportunities", "optimizer.feasible", "optimizer.plans",
           "plan_cache.hit_ratio", "storage.mb_per_s_read",
           "storage.mb_per_s_write", "buffer.hits", "buffer.hit_ratio",
           "service.scaling_2v1", "bench.stage_coverage"}
_LAYER_UNITS = {
    "analysis.analyze_s": "s", "analysis.opportunities": "count",
    "optimizer.search_s": "s", "optimizer.candidates_tested": "count",
    "optimizer.feasible": "count", "optimizer.plans": "count",
    "optimizer.ms_per_candidate": "ms", "optimizer.pruned_search_s": "s",
    "optimizer.best_io_s": "s", "optimizer.plan0_io_s": "s",
    "plan_cache.hit_s": "s", "plan_cache.load_s": "s",
    "plan_cache.hit_ratio": "ratio",
    "codegen.build_s": "s", "codegen.instances": "count",
    "storage.create_s": "s", "storage.ingest_s": "s",
    "storage.prealloc_s": "s", "storage.read_out_s": "s",
    "storage.close_s": "s",
    "storage.read_block_s": "s", "storage.write_block_s": "s",
    "storage.read_ops": "count", "storage.write_ops": "count",
    "storage.read_mb": "MB", "storage.write_mb": "MB",
    "storage.us_per_read_op": "us", "storage.mb_per_s_read": "MB/s",
    "storage.mb_per_s_write": "MB/s",
    "storage.retries": "count", "storage.checksum_failures": "count",
    "buffer.pool_self_s": "s", "buffer.calls": "count",
    "buffer.hits": "count", "buffer.misses": "count",
    "buffer.evictions": "count", "buffer.hit_ratio": "ratio",
    "buffer.peak_mb": "MB",
    "engine.execute_s": "s", "engine.kernel_s": "s",
    "engine.loop_self_s": "s", "engine.us_per_instance": "us",
    "service.admission_wait_s": "s", "service.overhead_s": "s",
    "service.unattributed_s": "s", "service.scaling_2v1": "ratio",
    "service.open_fds_per_job": "count",
    "service.files_left_per_job": "count",
    "service.disk_mb_left_per_job": "MB",
    "service.jobs_failed": "count", "service.jobs_rejected": "count",
    "service.retries_attempted": "count",
    "obs.tracer_overhead_ratio": "ratio",
    "bench.trace_overhead_ratio": "ratio",
    "bench.stage_coverage": "ratio",
}
PER_LAYER = {name: (unit, "higher" if name in _HIGHER else "lower")
             for name, unit in _LAYER_UNITS.items()}


# -- statistics ---------------------------------------------------------------

def median(values) -> float:
    return float(statistics.median(values))


def tail_percentile(samples, target: float = 90.0,
                    beyond: int = 10) -> tuple[float, float]:
    """``(p, value)``: the highest percentile ``p <= target`` that still has
    at least ``beyond`` samples above it, and its value.

    With too few samples for any tail (``p`` would drop under 50) the median
    is returned as ``p = 50``: a tail read off a handful of points is noise.
    """
    xs = sorted(samples)
    n = len(xs)
    if not n:
        raise ValueError("no samples")
    p = min(target, 100.0 * (n - beyond) / n)
    if p < 50.0:
        return 50.0, median(xs)
    # Nearest rank: the smallest sample with at least p% at or below it.
    rank = max(1, math.ceil(p * n / 100.0 - 1e-9))
    return p, float(xs[rank - 1])


def spread(values) -> float:
    """Interquartile range as a share of the median (the driver's rule)."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / median(values)


def stratified_counts(n: int, weights) -> list[int]:
    """Split ``n`` into integer parts proportional to ``weights`` (largest
    remainder), so a mix has the same composition under every seed."""
    total = sum(Fraction(w) for w in weights)
    exact = [Fraction(w) * n / total for w in weights]
    counts = [int(e) for e in exact]
    by_remainder = sorted(range(len(exact)),
                          key=lambda i: (exact[i] - counts[i], -i),
                          reverse=True)
    for i in by_remainder[:n - sum(counts)]:
        counts[i] += 1
    return counts


def zipf_weights(k: int, s: float = 1.5) -> list[float]:
    return [rank ** -s for rank in range(1, k + 1)]


# -- closed loop ----------------------------------------------------------------

class LoopResult:
    __slots__ = ("latencies", "results", "window", "max_in_flight")

    def __init__(self, n: int):
        self.latencies = [0.0] * n
        self.results: list = [None] * n
        self.window = 0.0
        self.max_in_flight = 0


def closed_loop(call, jobs, clients: int) -> LoopResult:
    """Run ``call(job)`` for every job from ``clients`` threads.

    A client takes its next job only when its previous call returned, so at
    most ``clients`` calls are in flight.  ``results[i]`` is the call's value
    or the exception it raised; ``window`` spans first start to last finish.
    """
    jobs = list(jobs)
    out = LoopResult(len(jobs))
    lock = threading.Lock()
    state = {"next": 0, "in_flight": 0}
    start = threading.Barrier(clients + 1)

    def client():
        start.wait()
        while True:
            with lock:
                i = state["next"]
                if i >= len(jobs):
                    return
                state["next"] = i + 1
                state["in_flight"] += 1
                out.max_in_flight = max(out.max_in_flight, state["in_flight"])
            t0 = time.perf_counter()
            try:
                res = call(jobs[i])
            except Exception as err:  # a failed job is a counted outcome
                res = err
            out.latencies[i] = time.perf_counter() - t0
            out.results[i] = res
            with lock:
                state["in_flight"] -= 1

    threads = [threading.Thread(target=client, name=f"client-{c}")
               for c in range(clients)]
    for t in threads:
        t.start()
    start.wait()
    t0 = time.perf_counter()
    for t in threads:
        t.join()
    out.window = time.perf_counter() - t0
    return out


# -- file-descriptor guard ------------------------------------------------------

#: The thread backend never closes a job's stores: 5 arrays x (data + crc).
FDS_PER_JOB = 10
FD_RESERVE = 200
MIN_EPOCH_JOBS = 30


def raise_fd_limit() -> int:
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    want = hard if hard != resource.RLIM_INFINITY else max(soft, 65536)
    if want > soft:
        try:
            resource.setrlimit(resource.RLIMIT_NOFILE, (want, hard))
            soft = want
        except (ValueError, OSError):
            pass
    return soft


def epoch_jobs(soft_limit: int, want: int, shrink: bool) -> int:
    """Jobs one service may run before it is replaced, under the fd limit.

    ``shrink`` allows fewer than ``want`` (a pinned epoch is any prefix of
    the job list); otherwise the whole list must fit.  Fails before the run
    starts, not with EMFILE in the middle of it.
    """
    fit = (soft_limit - FD_RESERVE) // FDS_PER_JOB
    need = min(want, MIN_EPOCH_JOBS) if shrink else want
    if fit < need:
        raise SystemExit(
            f"e2e: RLIMIT_NOFILE soft limit {soft_limit} fits {fit} service "
            f"jobs per epoch ({FDS_PER_JOB} descriptors per job stay open, "
            f"{FD_RESERVE} reserved) but {need} are needed; raise `ulimit -n`")
    return min(want, fit)


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def tree_usage(path: Path) -> tuple[int, int]:
    """(files, bytes) under ``path``."""
    files = size = 0
    for dirpath, _dirs, names in os.walk(path):
        for name in names:
            files += 1
            size += os.path.getsize(os.path.join(dirpath, name))
    return files, size


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- result header ----------------------------------------------------------------

def calibration_seconds() -> float:
    """The fixed integer + Fraction loop of ``benchmarks/bench_opt_time.py``;
    recorded for context, never used to rescale a measurement."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_500_000):
        acc = (acc * 1103515245 + i) % (1 << 62)
    x = Fraction(acc % 97, 89)
    for i in range(1, 3000):
        x += Fraction(1, i)
    return time.perf_counter() - t0


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def header(seed: int, seconds: float) -> dict:
    import numpy
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "seconds": seconds,
        "git_sha": git_sha(),
        "calibration_seconds": calibration_seconds(),
    }


def load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
