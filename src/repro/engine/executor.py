"""Execution engine: replays an :class:`ExecutablePlan` against real storage.

``execute_plan`` walks the plan's scheduled instances, serving every access
through the buffer pool exactly as annotated (READ from disk, REUSE from
memory, WRITE through, WRITE_SKIP memory-only), honouring pin directives so
blocks the optimizer promised to hold actually stay resident.

Two residency policies:

* ``plan_exact`` (default) — only plan-directed retention keeps blocks;
  everything unpinned is dropped after each instance.  Actual I/O then
  matches the optimizer's prediction byte for byte (the substance of the
  paper's Figures 3(b)/4(b)/5(b)/6(b)).
* opportunistic — classic LRU under the cap; actual I/O can only be lower.

Fault tolerance: with a :class:`~repro.engine.journal.ExecutionJournal`
attached, every completed instance is checkpointed; ``resume=True`` replays
a partially completed plan from its last *consistent* instance — the
largest index from which execution can continue given that a crash empties
the buffer pool.  Blocks the plan holds across that boundary are re-warmed
from disk; if a held block's newest version was memory-only (WRITE_SKIP),
the resume point rewinds to the instance that produced it.

``run_job`` is the one path from a planned job to its outputs — open or
create the stores, wrap them for attribution, build the executable plan,
journal, execute, read back, close — shared by ``run_program`` (make a
disk, run, validate) and :class:`repro.service.ArrayService`.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from ..cancel import CancelToken, current_interrupt, set_interrupt
from ..codegen.exec_plan import ExecutablePlan, IOAction, build_executable_plan
from ..exceptions import ExecutionError, StorageError
from ..ir import ArrayKind, Program
from ..obs import trace as obs_trace
from ..obs.validate import RESUME_STMT, CostValidation, validate_cost
from ..optimizer.plan import Plan
from ..storage import (BufferPool, DAFMatrix, DatasetCatalog, IOStats,
                       SimulatedDisk, make_disk)
from .journal import ExecutionJournal, plan_fingerprint
from .kernels import run_kernel
from .prefetch import PrefetchPipeline, PrefetchStats

__all__ = ["ExecutionReport", "CountingStore", "UnstoredArray",
           "execute_plan", "run_job", "run_program"]

JOURNAL_NAME = "execution.journal"


class ExecutionReport:
    """What actually happened during one plan execution."""

    __slots__ = ("io", "simulated_io_seconds", "cpu_seconds", "wall_seconds",
                 "peak_memory_bytes", "pool_hits", "pool_misses", "instances",
                 "resumed_from", "validation", "prefetch")

    def __init__(self, io: IOStats, simulated_io_seconds: float,
                 cpu_seconds: float, wall_seconds: float,
                 peak_memory_bytes: int, pool_hits: int, pool_misses: int,
                 instances: int, resumed_from: int = 0):
        self.io = io
        self.simulated_io_seconds = simulated_io_seconds
        self.cpu_seconds = cpu_seconds
        self.wall_seconds = wall_seconds
        self.peak_memory_bytes = peak_memory_bytes
        self.pool_hits = pool_hits
        self.pool_misses = pool_misses
        # Instances *executed in this run* (on a resumed run, strictly fewer
        # than the plan's total) and the index execution restarted from.
        self.instances = instances
        self.resumed_from = resumed_from
        # Filled by run_program(..., validate=...): the cost-model audit.
        self.validation: CostValidation | None = None
        # Filled by execute_plan(..., prefetch_depth=N): pipeline counters.
        self.prefetch: "PrefetchStats | None" = None

    @property
    def simulated_total_seconds(self) -> float:
        return self.simulated_io_seconds + self.cpu_seconds

    def __repr__(self) -> str:
        return (f"ExecutionReport(io={self.simulated_io_seconds:.2f}s sim, "
                f"cpu={self.cpu_seconds:.2f}s, read={self.io.read_bytes}B, "
                f"write={self.io.write_bytes}B, peak={self.peak_memory_bytes}B)")


def _dry_replay(plan: ExecutablePlan, upto: int, plan_exact: bool
                ) -> tuple[dict[tuple, int], set[tuple]]:
    """Replay the pool bookkeeping of instances ``[0, upto)`` without I/O.

    Returns ``(pins, memory_only)`` where ``pins`` maps every block key
    resident at the boundary to its pin count.  Mirrors the live loop's pin
    arithmetic exactly; in plan-exact mode a key is resident iff pinned, so
    the pins map *is* the residency set a resumed run must re-warm.
    """
    pins: dict[tuple, int] = {}
    memory_only: set[tuple] = set()
    for inst in plan.instances[:upto]:
        instance_pins: list[tuple] = []
        touched: list[tuple] = []
        for pa in inst.reads:
            key = pa.block_key
            pins.setdefault(key, 0)
            touched.append(key)
            pins[key] += 1
            instance_pins.append(key)
            pins[key] -= pa.unpin_before
            pins[key] += pa.pin_after
        if inst.write is not None:
            pa = inst.write
            key = pa.block_key
            pins.setdefault(key, 0)
            pins[key] -= pa.unpin_before
            touched.append(key)
            if pa.action is IOAction.WRITE:
                memory_only.discard(key)
            else:
                memory_only.add(key)
            pins[key] += pa.pin_after
        for key in instance_pins:
            pins[key] -= 1
        if plan_exact:
            for key in touched:
                if pins.get(key) == 0:
                    del pins[key]
    return pins, memory_only


def _last_write_index(plan: ExecutablePlan, key: tuple, before: int) -> int:
    for idx in range(before - 1, -1, -1):
        write = plan.instances[idx].write
        if write is not None and write.block_key == key:
            return idx
    return 0


def _resume_state(plan: ExecutablePlan, completed: int, plan_exact: bool
                  ) -> tuple[int, dict[tuple, int], set[tuple]]:
    """The last consistent resume point at or before ``completed``.

    A boundary is consistent when every block held across it has a current
    disk copy (re-warmable).  A held block whose newest version was
    WRITE_SKIP exists only in the crashed process's memory, so the resume
    point rewinds to the instance that produced it; rewinding can expose
    further memory-only dependencies, hence the fixpoint loop (monotonically
    decreasing, terminating at 0 = plain full re-execution).
    """
    r = completed
    while r > 0:
        pins, memory_only = _dry_replay(plan, r, plan_exact)
        stale = [k for k, p in pins.items() if p > 0 and k in memory_only]
        if not stale:
            return r, {k: p for k, p in pins.items() if p > 0}, memory_only
        r = min(_last_write_index(plan, k, r) for k in stale)
    return 0, {}, set()


def execute_plan(plan: ExecutablePlan, stores: Mapping[str, object],
                 disk: SimulatedDisk,
                 plan_exact: bool = True,
                 journal: ExecutionJournal | None = None,
                 resume: bool = False,
                 pool: BufferPool | None = None,
                 prefetch_depth: int = 0,
                 prefetch_budget_bytes: int | None = None,
                 cancel: "CancelToken | None" = None) -> ExecutionReport:
    """Run an executable plan against open stores on ``disk``.

    ``pool`` is the buffer pool to run on, which enforces its own cap;
    without one the run gets a private, uncapped pool.  This is how
    :mod:`repro.service` runs many concurrent queries over one shared
    :class:`~repro.storage.BufferPool`: blocks another query loaded are
    hits here, and the pool-level statistics in the returned report then
    aggregate over every query sharing the pool.

    ``prefetch_depth`` > 0 overlaps I/O with compute: a background reader
    thread stages up to that many upcoming READ blocks into the pool
    (see :class:`~repro.engine.prefetch.PrefetchPipeline`), bounded by
    ``prefetch_budget_bytes`` of staged-but-unconsumed data.  I/O
    attribution stays byte-exact: every disk read is traced against the
    statement×array of the access that consumes it, whether it was staged
    ahead or read inline.

    ``cancel`` attaches a :class:`~repro.cancel.CancelToken`: the loop
    checks it at every instance boundary (raising the token's typed
    :class:`~repro.exceptions.JobCancelled` /
    :class:`~repro.exceptions.DeadlineExceeded`), prefetch readers stop
    claiming, and retry backoffs are cut short — after which the normal
    ``finally`` teardown discards staged blocks and closes the journal,
    leaving a checkpointed run resumable.
    """
    if pool is None:
        pool = BufferPool()
    start_stats = disk.stats.snapshot()
    cpu = 0.0
    t_wall = time.perf_counter()

    # Traced I/O attribution: each planned access is measured as the delta
    # of the disk's counted byte totals around it, so checksum-healing
    # re-reads land on the access that needed them.  One `exec.io` instant
    # per non-zero access, keyed (stmt, array, op) — exactly the join key
    # cost validation uses.
    tracer = obs_trace.CURRENT
    io_stats = disk.stats

    def traced_io(fn, op, stmt_name, array_name):
        if tracer is None:
            return fn()
        field = "read_bytes" if op == "read" else "write_bytes"
        # Per-*thread* counters: prefetch reader threads bump the shared
        # totals concurrently, so a global before/after delta would tear.
        before = io_stats.thread_value(field)
        out = fn()
        delta = io_stats.thread_value(field) - before
        if delta:
            tracer.instant("exec.io", "engine", stmt=stmt_name,
                           array=array_name, op=op, bytes=delta)
        return out

    # Blocks whose newest version exists only in memory (WRITE_SKIP): the
    # on-disk copy is stale, so an opportunistic-mode REUSE fallback must
    # not silently re-read it.
    memory_only: set[tuple] = set()

    start_index = 0
    if resume and journal is not None:
        completed, journal_mem = journal.load()
        if completed:
            start_index, warm_pins, memory_only = _resume_state(
                plan, completed, plan_exact)
            if start_index == completed and memory_only != journal_mem:
                raise ExecutionError(
                    f"journal inconsistent with plan replay at instance "
                    f"{completed}: memory-only sets differ")
            # Re-warm every block held across the boundary; the fixpoint
            # above guarantees each has a current disk copy.  Pins are
            # applied atomically with the install so an injected shared
            # pool cannot evict the block in between.
            for key, npins in warm_pins.items():
                pool.put(key, traced_io(
                    lambda k=key: stores[k[0]].read_block(k[1]),
                    "read", RESUME_STMT, key[0]), pin=npins)
    if journal is not None:
        journal.start(resume=start_index > 0)

    # Plan-driven prefetch: readers walk the future READ sequence ahead of
    # the compute loop and stage into the same pool it reads from — private
    # or injected, every pool serializes itself.
    pipeline = None
    if prefetch_depth:
        items = plan.read_sequence(start_index)
        if items:
            pipeline = PrefetchPipeline(
                items, stores, pool, depth=prefetch_depth,
                budget_bytes=prefetch_budget_bytes,
                io_stats=io_stats, tracer=tracer,
                completed=start_index - 1, cancel=cancel)

    # Deep storage retry loops poll the thread-local interrupt: a cancelled
    # job's backoff sleeps return immediately instead of running out.
    prev_interrupt = current_interrupt()
    if cancel is not None:
        set_interrupt(cancel.event)
    try:
        for index in range(start_index, len(plan.instances)):
            if cancel is not None:
                cancel.check()
            inst = plan.instances[index]
            if tracer is not None:
                tracer.begin("exec.instance", "engine", index=index,
                             stmt=inst.stmt.name, point=list(inst.point))
            # The span must close even when a kernel or storage error aborts
            # the instance mid-body: a dangling begin corrupts the nesting
            # of every later span in the Chrome export.
            try:
                read_blocks: list[np.ndarray] = []
                touched: list[tuple] = []
                instance_pins: list[tuple] = []
                mem_add: list[tuple] = []
                mem_del: list[tuple] = []
                for pa in inst.reads:
                    store = stores[pa.access.array.name]
                    key = pa.block_key
                    if pa.action is IOAction.REUSE:
                        if plan_exact:
                            if not pool.contains(key):
                                raise ExecutionError(
                                    f"plan bug: REUSE of non-resident block {key} at "
                                    f"{inst.stmt.name}@{inst.point}")
                            blk = pool.fetch(key, loader=_no_loader(key), pin=1)
                        elif key in memory_only:
                            # The newest version never reached disk (WRITE_SKIP):
                            # a re-read would resurrect stale data, so eviction
                            # here is unrecoverable data loss.
                            if not pool.contains(key):
                                raise ExecutionError(
                                    f"REUSE of evicted block {key} at "
                                    f"{inst.stmt.name}@{inst.point}: its newest "
                                    f"version was never written to disk "
                                    f"(WRITE_SKIP), so the data is lost")
                            blk = pool.fetch(key, loader=_no_loader(key), pin=1)
                        else:
                            # Opportunistic LRU may legally evict a plan-retained
                            # block under a tight cap — and a *shared* pool may
                            # evict it between any residency check and the fetch —
                            # so fetch with a counted re-read fallback: a resident
                            # block is simply a hit and the loader never runs.
                            blk = traced_io(
                                lambda: pool.fetch(key, loader=lambda s=store,
                                                   b=pa.block: s.read_block(b),
                                                   pin=1),
                                "read", inst.stmt.name, pa.access.array.name)
                    else:
                        # READ action: ask the pipeline first — a staged
                        # block arrives pinned, its disk I/O already traced
                        # against this very access by the reader thread.
                        blk = (pipeline.consume(key)
                               if pipeline is not None else None)
                        if blk is None and plan_exact:
                            # READ is charged disk I/O even if incidentally
                            # resident: the engine replays exactly what the
                            # optimizer costed.
                            data = traced_io(
                                lambda s=store, b=pa.block: s.read_block(b),
                                "read", inst.stmt.name, pa.access.array.name)
                            blk = pool.put(key, data, pin=1)
                        elif blk is None:
                            # Opportunistic (LRU) mode: resident blocks are
                            # buffer hits.
                            blk = traced_io(
                                lambda: pool.fetch(key, loader=lambda s=store,
                                                   b=pa.block: s.read_block(b),
                                                   pin=1),
                                "read", inst.stmt.name, pa.access.array.name)
                    read_blocks.append(blk.data)
                    touched.append(key)
                    # Operands stay resident until the kernel has consumed them;
                    # the pin rode along atomically with the fetch/put above.
                    instance_pins.append(key)
                    for _ in range(pa.unpin_before):
                        pool.unpin(key)
                    for _ in range(pa.pin_after):
                        pool.pin(key)

                if inst.write is not None:
                    pa = inst.write
                    store = stores[pa.access.array.name]
                    key = pa.block_key
                    out_shape = pa.access.array.block_shape
                    t0 = time.perf_counter()
                    result = run_kernel(inst.stmt.kernel, read_blocks, out_shape,
                                        inst.stmt.kernel_args)
                    cpu += time.perf_counter() - t0
                    for _ in range(pa.unpin_before):
                        pool.unpin(key)
                    # Retention pins apply atomically with the install: a shared
                    # pool must not see the result unpinned in between.
                    pool.put(key, result, pin=pa.pin_after)
                    touched.append(key)
                    if pa.action is IOAction.WRITE:
                        traced_io(
                            lambda s=store, b=pa.block, r=result: s.write_block(b, r),
                            "write", inst.stmt.name, pa.access.array.name)
                        if key in memory_only:
                            memory_only.discard(key)
                            mem_del.append(key)
                    else:
                        if key not in memory_only:
                            memory_only.add(key)
                            mem_add.append(key)

                for key in instance_pins:
                    pool.unpin(key)
                if plan_exact:
                    for key in touched:
                        pool.release_if_unpinned(key)
                if journal is not None:
                    journal.append(index, mem_add, mem_del)
                if pipeline is not None:
                    # This instance's WRITE (if any) is durably on disk:
                    # readers blocked on it as a barrier may now proceed.
                    pipeline.progress(index)
            finally:
                if tracer is not None:
                    tracer.end()
    finally:
        if cancel is not None:
            set_interrupt(prev_interrupt)
        if pipeline is not None:
            pipeline.close()
        if journal is not None:
            journal.close()

    wall = time.perf_counter() - t_wall
    stats = disk.stats.since(start_stats)
    report = ExecutionReport(stats, disk.io_model.seconds(stats.read_bytes,
                                                          stats.write_bytes),
                             cpu, wall, pool.peak_bytes, pool.hits,
                             pool.misses, len(plan.instances) - start_index,
                             resumed_from=start_index)
    if pipeline is not None:
        report.prefetch = pipeline.stats
    return report


def _no_loader(key):
    def fail():
        raise ExecutionError(f"unexpected load of {key} during REUSE")
    return fail


class CountingStore:
    """Per-job I/O attribution proxy around one store.

    A shared disk's counters aggregate every concurrent job; this proxy
    counts the *logical* block I/O this job issued (fault-retry and
    checksum-healing re-reads stay global-only).  The job's prefetch
    reader threads and its compute thread both count here, hence the lock.
    ``run_program`` and every service job run through it — that shared
    implementation is what makes their attribution comparable at all.
    """

    __slots__ = ("store", "breaker", "read_bytes", "write_bytes", "read_ops",
                 "write_ops", "_lock")

    def __init__(self, store, breaker=None):
        self.store = store
        # Degradation-mode circuit breaker: N consecutive persistent
        # failures on this store trip it open, and every later access
        # fails fast with CircuitOpen instead of burning retry budget.
        self.breaker = breaker
        self.read_bytes = self.write_bytes = 0
        self.read_ops = self.write_ops = 0
        self._lock = threading.Lock()

    @property
    def layout(self):
        return self.store.layout

    def _guarded(self, fn):
        if self.breaker is None:
            return fn()
        self.breaker.allow()
        try:
            out = fn()
        except StorageError:
            # Only persistent storage failures reach here — the disk's
            # retry policy has already absorbed what it could.
            self.breaker.record_failure()
            raise
        self.breaker.record_success()
        return out

    def read_block(self, coords, count: bool = True):
        block = self._guarded(
            lambda: self.store.read_block(coords, count=count))
        if count:
            with self._lock:
                self.read_bytes += self.store.layout.block_bytes
                self.read_ops += 1
        return block

    def read_block_run(self, start_coords, nblocks: int, count: bool = True):
        blocks, extra = self._guarded(
            lambda: self.store.read_block_run(start_coords, nblocks,
                                              count=count))
        if count:
            with self._lock:
                self.read_bytes += nblocks * self.store.layout.block_bytes
                self.read_ops += nblocks
        return blocks, extra

    def write_block(self, coords, block, count: bool = True) -> None:
        self._guarded(
            lambda: self.store.write_block(coords, block, count=count))
        if count:
            with self._lock:
                self.write_bytes += self.store.layout.block_bytes
                self.write_ops += 1


class UnstoredArray:
    """Stands in for an intermediate outside
    :meth:`ExecutablePlan.disk_arrays`: its blocks live and die in the
    buffer pool, so it has no file, and block I/O on it raises."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def _no_store(self, *args, **kwargs):
        raise ExecutionError(f"{self.name}: the plan does no disk I/O on "
                             f"this array, so it has no store")

    read_block = write_block = read_block_run = _no_store

    def close(self) -> None:
        pass


def run_job(program: Program, params: Mapping[str, int], plan: Plan,
            inputs: Mapping[str, np.ndarray], disk: SimulatedDisk, *,
            names: "Mapping[str, str] | None" = None,
            catalog: DatasetCatalog | None = None,
            breaker_for: Callable[[str], object] = lambda name: None,
            journal_path: "Path | None" = None, resume: bool = False,
            pool: BufferPool | None = None, plan_exact: bool = True,
            prefetch_depth: int = 0,
            prefetch_budget_bytes: int | None = None,
            cancel: "CancelToken | None" = None
            ) -> tuple[ExecutionReport, dict[str, np.ndarray], IOStats,
                       ExecutablePlan]:
    """Execute one planned job on ``disk``: the only job runner there is.

    ``run_program`` and :class:`~repro.service.ArrayService` call this, so
    what a job does to storage is the same by construction; the arguments
    are what genuinely differs between them:

    * ``names`` — per logical array, the store's on-disk name (default:
      the logical name);
    * ``catalog`` — a :class:`~repro.storage.DatasetCatalog` of ``disk``:
      INPUT arrays are its datasets, shared across jobs by on-disk name,
      each ingested once and owned by the catalog; without a catalog
      inputs are this job's own, like every other array;
    * ``breaker_for`` — circuit breaker (or ``None``) per on-disk name;
    * ``journal_path`` — checkpoint every instance there; with ``resume``
      and an existing journal the job's own stores are rolled back to
      their pre-write images, reopened, and execution continues from the
      last consistent instance;
    * ``pool`` — the pool to run on, else a private uncapped one.

    An intermediate outside ``exec_plan.disk_arrays()`` gets an
    :class:`UnstoredArray` and no file.

    Returns the report (``report.io`` is the *disk's* delta, retries and
    healing re-reads included), the dense OUTPUT arrays, the I/O this job
    itself issued (its :class:`CountingStore` sums) and the executable
    plan.  The job's own stores are closed on every way out; their files
    stay, for resume or for the caller to remove.
    """
    exec_plan = build_executable_plan(program, params, plan)
    on_disk = exec_plan.disk_arrays()
    if names is None:
        names = {lname: lname for lname in program.arrays}
    journal = None
    resuming = False
    if journal_path is not None:
        journal = ExecutionJournal(journal_path, plan_fingerprint(exec_plan))
        resuming = resume and Path(journal_path).exists()
    shared = {n for n, arr in program.arrays.items()
              if catalog is not None and arr.kind is ArrayKind.INPUT}
    if resuming:
        # The interrupted attempt may have died mid-write.  Scoped to this
        # job's files: on a shared disk, concurrent jobs have genuinely
        # in-flight undo records of their own.
        own = tuple(names[n] + "." for n in program.arrays if n not in shared)
        disk.recover(match=lambda fname: fname.startswith(own))

    def input_matrix(lname: str) -> np.ndarray:
        if lname not in inputs:
            raise ExecutionError(f"missing input matrix {lname!r}")
        return inputs[lname]

    def open_store(lname: str):
        arr = program.arrays[lname]
        if arr.kind is ArrayKind.INTERMEDIATE and lname not in on_disk:
            return UnstoredArray(lname)
        dtype = {8: np.float64, 4: np.float32}[arr.dtype_bytes]
        if lname in shared:
            return catalog.dataset(names[lname], arr.num_blocks(params),
                                   arr.block_shape, dtype,
                                   input_matrix(lname))
        if resuming and disk.exists(names[lname] + ".daf"):
            return DAFMatrix.open(disk, names[lname])
        store = DAFMatrix.create(disk, names[lname], arr.num_blocks(params),
                                 arr.block_shape, dtype)
        if arr.kind is ArrayKind.INPUT:
            store.write_matrix(input_matrix(lname), count=False)
        else:
            # Unwritten regions read as zeros that verify.
            store.preallocate()
        return store

    stores: dict[str, object] = {}
    try:
        for lname in program.arrays:
            stores[lname] = open_store(lname)
        counted = {n: CountingStore(s, breaker_for(names[n]))
                   for n, s in stores.items()}
        report = execute_plan(exec_plan, counted, disk, plan_exact,
                              journal=journal, resume=resuming,
                              pool=pool, prefetch_depth=prefetch_depth,
                              prefetch_budget_bytes=prefetch_budget_bytes,
                              cancel=cancel)
        outputs = {n: stores[n].read_matrix(count=False)
                   for n, arr in program.arrays.items()
                   if arr.kind is ArrayKind.OUTPUT}
    finally:
        # A kernel or storage error mid-plan must still leave the disk
        # cleanly closeable: flush whatever store state exists (best
        # effort — the original exception stays the loud one).
        for lname, store in stores.items():
            if lname not in shared:
                try:
                    store.close()
                except StorageError:
                    pass
    job_io = IOStats()
    job_io.add(**{f: sum(getattr(c, f) for c in counted.values())
                  for f in ("read_bytes", "write_bytes", "read_ops",
                            "write_ops")})
    return report, outputs, job_io, exec_plan


def run_program(program: Program, params: Mapping[str, int], plan: Plan,
                workdir, inputs: Mapping[str, np.ndarray],
                memory_cap_bytes: int | None = None,
                plan_exact: bool = True,
                checkpoint: bool = False,
                resume: bool = False,
                validate: "bool | float" = False,
                prefetch_depth: int = 0
                ) -> tuple[ExecutionReport, dict[str, np.ndarray]]:
    """Create storage, load inputs, execute, read back outputs.

    ``workdir`` is a directory or a disk from
    :func:`~repro.storage.make_disk`, which carries the storage settings —
    I/O model, fault injection, retry, atomic writes, shards, stripe unit
    and pacing.  A directory gets a plain disk, with atomic writes when
    ``checkpoint`` or ``resume`` is set.  Either way the run closes the
    disk when it ends.

    ``inputs`` maps input-array names to dense matrices of the full (scaled)
    shape.  The run's buffer pool is capped at ``memory_cap_bytes``.
    Returns the execution report and the dense contents of every OUTPUT
    array.

    Observability: the run traces onto the installed trace bus, if any
    (scope one with :func:`repro.obs.trace.use`).  ``validate`` audits the
    cost model: it joins the plan's predicted I/O against the traced
    actuals per statement and per array, attaching the
    :class:`~repro.obs.validate.CostValidation` as ``report.validation``.
    ``True`` audits byte-exact; a float is the relative byte tolerance.
    It needs an event-keeping tracer; one is created for the run when none
    is installed.

    Fault tolerance (injected faults are absorbed by the disk's retry
    policy, counted in ``report.io.retries``):

    * ``checkpoint`` — journal every completed instance to
      ``execution.journal`` in the disk's root;
    * ``resume`` — continue a previous checkpointed run on the same root:
      interrupted writes are rolled back, stores are reopened (inputs are
      already on disk), and execution restarts from the last consistent
      instance.  Falls back to a fresh checkpointed run when no journal
      exists yet.

    I/O–compute overlap: ``prefetch_depth`` stages up to this many
    upcoming READ blocks on a background reader thread (0 = serial, the
    default), holding no more staged-but-unconsumed bytes than the memory
    cap leaves above the plan's predicted peak residency (unbounded when
    no cap is set).
    """
    want_validation = validate is not False
    tolerance = float(validate) if not isinstance(validate, bool) else 0.0
    tracer = obs_trace.CURRENT
    scope = nullcontext()
    if tracer is None and want_validation:
        # Validation joins against traced exec.io events, so it needs a bus;
        # a private in-memory one keeps the run's default footprint at zero.
        tracer = obs_trace.Tracer()
        scope = obs_trace.use(tracer)
    events_start = len(tracer.events) if tracer is not None else 0

    # Staged bytes never push a plan-exact run over the cap.
    prefetch_budget_bytes = None
    if prefetch_depth and memory_cap_bytes is not None:
        prefetch_budget_bytes = max(0, memory_cap_bytes
                                    - plan.cost.memory_bytes)

    disk = make_disk(workdir, atomic_writes=checkpoint or resume) \
        if isinstance(workdir, (str, os.PathLike)) else workdir
    journal_path = disk.root / JOURNAL_NAME if checkpoint or resume else None
    with scope, disk, obs_trace.span(
            "run_program", "engine", program=program.name, plan=plan.index,
            plan_exact=plan_exact, resume=resume and journal_path.exists()):
        # The disk is this run's alone: every array, inputs included, is
        # its own store, nothing shared.
        report, outputs, _, exec_plan = run_job(
            program, params, plan, inputs, disk,
            journal_path=journal_path, resume=resume,
            pool=BufferPool(memory_cap_bytes), plan_exact=plan_exact,
            prefetch_depth=prefetch_depth,
            prefetch_budget_bytes=prefetch_budget_bytes)

    if want_validation:
        note = ""
        if not plan_exact:
            note = ("opportunistic LRU mode: actual I/O may legally "
                    "undershoot the plan-exact prediction")
        report.validation = validate_cost(
            exec_plan, tracer.events[events_start:],
            io_model=disk.io_model,
            tolerance=tolerance, retries=report.io.retries,
            checksum_failures=report.io.checksum_failures, note=note)
    return report, outputs
