"""Scale-out SLO benchmark: 1000 mixed jobs x shards.

The capstone for the sharded service disk.  A closed batch of
``REPRO_SCALEOUT_JOBS`` jobs (default 1000; CI runs 200) mixing three job
classes — 75 % small, 22.5 % medium, 2.5 % large ``add_multiply``
instances — is pushed through one service per shard count {1, 2, 4} on a
*paced* disk (``io_pace=5`` with one device channel per shard, so shard
count is real parallel hardware, not bookkeeping):

* **throughput** — aggregate attributed read bytes / makespan, with the
  acceptance bar that shards=4 sustains >= 2x the single-disk rate;
* **latency SLO** — p50/p90/p99 submit-to-result seconds extracted from
  the service's ``job_seconds`` histogram (queue wait included: this is
  a saturated closed batch, so the tail is the backlog);
* **parity** — per-job attributed I/O totals must be identical in every
  cell (plan-exact replay is shard-independent), and a sample of outputs
  is checked against the dense reference;
* **overload** — a burst into a constrained service with degradation
  enabled, recording shed/completed splits and that the ladder engages
  instead of queueing without bound;
* **plan cache** — the same batch planned cold vs warm, recording the
  hit rate and planning-time delta.

Writes ``BENCH_scaleout.json``.
"""

import json
import os
import time

import numpy as np

from conftest import banner, save_artifact
from repro import add_multiply_program, optimize, reference_outputs
from repro.exceptions import ServiceOverloaded
from repro.obs import metrics as obs_metrics
from repro.service import ArrayService, DegradePolicy
from repro.storage import make_disk

P = {"n1": 2, "n2": 2, "n3": 1}
CAP = 128 << 20
WORKERS = 12
IO_PACE = 5.0           # sleep 5x the modeled transfer time...
PACE_CHANNELS = 1       # ...serialized per shard: one channel per device
N_JOBS = int(os.environ.get("REPRO_SCALEOUT_JOBS", "1000"))
SHARD_COUNTS = (1, 2, 4)
VERIFY_EVERY = 50       # dense-reference check on every 50th job
DISTINCT_SEEDS = 16     # input variants per class (cycled across jobs)

CLASSES = {
    "small": (120, 80, 100),
    "medium": (300, 200, 250),
    "large": (600, 400, 500),
}
MIX = (("small", 0.75), ("medium", 0.225), ("large", 0.025))


def _job_list(n):
    jobs = []
    for name, frac in MIX[:-1]:
        jobs += [name] * int(n * frac)
    jobs += [MIX[-1][0]] * (n - len(jobs))
    rng = np.random.default_rng(0)
    rng.shuffle(jobs)
    return [(kind, i % DISTINCT_SEEDS) for i, kind in enumerate(jobs)]


def _make_inputs(program, seed):
    rng = np.random.default_rng(seed)
    return {n: rng.standard_normal(program.arrays[n].shape_elems(P))
            for n in ("A", "B", "D")}


class _Workload:
    """Programs, plans and memoized inputs shared by every cell."""

    def __init__(self, n_jobs):
        self.programs = {k: add_multiply_program(*dims)
                         for k, dims in CLASSES.items()}
        self.plans = {k: optimize(p, P).best(CAP)
                      for k, p in self.programs.items()}
        self.jobs = _job_list(n_jobs)
        self._inputs = {}
        self._refs = {}

    def inputs(self, kind, seed):
        key = (kind, seed)
        if key not in self._inputs:
            self._inputs[key] = _make_inputs(self.programs[kind], seed)
        return self._inputs[key]

    def reference(self, kind, seed):
        key = (kind, seed)
        if key not in self._refs:
            self._refs[key] = reference_outputs(
                self.programs[kind], P, self.inputs(kind, seed))
        return self._refs[key]


def _run_cell(wl, shards, workdir, verify=True):
    registry = obs_metrics.MetricsRegistry()
    obs_metrics.install(registry)
    try:
        t0 = time.perf_counter()
        disk = make_disk(workdir, shards, pace=IO_PACE,
                         pace_channels=PACE_CHANNELS)
        with ArrayService(disk, memory_cap_bytes=CAP,
                          workers=WORKERS) as svc:
            # plan_exact pins every job to its plan's predicted I/O, so
            # attributed bytes are deterministic across shard counts
            # (opportunistic pool hits would vary with scheduling).
            futures = [
                svc.submit(wl.programs[kind], P, wl.inputs(kind, seed),
                           plan=wl.plans[kind], plan_exact=True)
                for kind, seed in wl.jobs]
            results = [f.result(timeout=3600) for f in futures]
            quantiles = svc.stats.job_seconds.quantiles((0.5, 0.9, 0.99))
            completed = svc.stats.jobs_completed
        makespan = time.perf_counter() - t0
    finally:
        obs_metrics.uninstall()

    if verify:
        for idx in range(0, len(results), VERIFY_EVERY):
            kind, seed = wl.jobs[idx]
            expected = wl.reference(kind, seed)
            out = results[idx].outputs
            assert out, f"job {idx} returned no outputs"
            for name in out:
                assert np.allclose(out[name], expected[name]), \
                    f"shards={shards}: job {idx} output diverged"

    read_bytes = sum(r.report.io.read_bytes for r in results)
    write_bytes = sum(r.report.io.write_bytes for r in results)
    return {
        "shards": shards, "jobs": len(results),
        "completed": completed, "makespan_seconds": makespan,
        "read_bytes": read_bytes, "write_bytes": write_bytes,
        "read_throughput_mb_s": read_bytes / makespan / 1e6,
        "jobs_per_second": len(results) / makespan,
        "latency_seconds": quantiles,
    }


def test_scaleout_matrix(tmp_path_factory):
    wl = _Workload(N_JOBS)
    banner(f"Scale-out SLO matrix: {N_JOBS} mixed jobs "
           f"(pace={IO_PACE}, {PACE_CHANNELS} channel/shard, "
           f"{WORKERS} workers)")
    print(f"{'shards':>6} {'makespan':>9} {'MB/s':>7} "
          f"{'jobs/s':>7} {'p50':>6} {'p90':>6} {'p99':>6}")

    cells = []
    for shards in SHARD_COUNTS:
        workdir = tmp_path_factory.mktemp(f"so_{shards}")
        cell = _run_cell(wl, shards, workdir)
        lat = cell["latency_seconds"]
        print(f"{shards:>6} "
              f"{cell['makespan_seconds']:>8.1f}s "
              f"{cell['read_throughput_mb_s']:>7.1f} "
              f"{cell['jobs_per_second']:>7.1f} "
              f"{lat['p50']:>6.2f} {lat['p90']:>6.2f} "
              f"{lat['p99']:>6.2f}")
        cells.append(cell)

    # Plan-exact attribution is identical in every cell: same jobs, same
    # plans, so the same charged bytes whatever the shard count.
    for cell in cells[1:]:
        assert cell["read_bytes"] == cells[0]["read_bytes"], cell
        assert cell["write_bytes"] == cells[0]["write_bytes"], cell
        assert cell["completed"] == N_JOBS

    by = {c["shards"]: c for c in cells}
    speedup = (by[4]["read_throughput_mb_s"]
               / by[1]["read_throughput_mb_s"])
    print(f"shards=4 vs 1: {speedup:.2f}x read throughput")
    assert speedup >= 2.0, \
        f"sharding speedup {speedup:.2f}x below the 2x acceptance bar"

    # --- overload: burst into a constrained, degradation-enabled service
    n_burst = max(48, N_JOBS // 10)
    policy = DegradePolicy(shed_backlog=16, planner_queue_depth=4)
    workdir = tmp_path_factory.mktemp("so_overload")
    shed = 0
    disk = make_disk(workdir, 2, pace=IO_PACE, pace_channels=PACE_CHANNELS)
    with ArrayService(disk, memory_cap_bytes=CAP, workers=2,
                      degrade=policy) as svc:
        futures = []
        for kind, seed in wl.jobs[:n_burst]:
            try:
                futures.append(svc.submit(wl.programs[kind], P,
                                          wl.inputs(kind, seed),
                                          plan=wl.plans[kind]))
            except ServiceOverloaded:
                shed += 1
        for f in futures:
            f.result(timeout=3600)
        overload = {
            "burst": n_burst, "shed": shed,
            "completed": svc.stats.jobs_completed,
            "shed_counter": svc.stats.jobs_shed,
        }
    print(f"overload: {overload['completed']}/{n_burst} completed, "
          f"{shed} shed at backlog 16")
    assert shed > 0, "burst never tripped the shed ladder"
    assert overload["completed"] == n_burst - shed
    assert overload["shed_counter"] == shed

    # --- plan cache: identical batch planned cold vs warm (no pacing —
    # this scenario isolates planning latency, not disk bandwidth)
    n_cache = min(N_JOBS, 64)
    cache_dir = tmp_path_factory.mktemp("so_cache")
    cache = {}
    for phase in ("cold", "warm"):
        t0 = time.perf_counter()
        with ArrayService(tmp_path_factory.mktemp(f"so_{phase}"),
                          memory_cap_bytes=CAP, workers=WORKERS,
                          plan_cache=cache_dir) as svc:
            futs = [svc.submit(wl.programs[kind], P, wl.inputs(kind, seed))
                    for kind, seed in wl.jobs[:n_cache]]
            hits = sum(f.result(timeout=3600).cache_hit for f in futs)
        cache[phase] = {"wall_seconds": time.perf_counter() - t0,
                        "cache_hits": hits, "jobs": n_cache}
        print(f"plan cache {phase}: {hits}/{n_cache} hits, "
              f"{cache[phase]['wall_seconds']:.2f}s")
    # Warm services hit on every job; cold only on repeats within a batch.
    assert cache["warm"]["cache_hits"] == n_cache
    assert cache["cold"]["cache_hits"] < n_cache

    save_artifact("BENCH_scaleout.json", json.dumps({
        "config": {
            "jobs": N_JOBS, "workers": WORKERS, "io_pace": IO_PACE,
            "pace_channels": PACE_CHANNELS,
            "mix": {k: f for k, f in MIX},
            "classes": CLASSES, "params": P,
        },
        "matrix": cells,
        "sharding_speedup_4v1": speedup,
        "overload": overload,
        "plan_cache": cache,
    }, indent=2) + "\n")
