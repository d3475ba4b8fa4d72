"""In-process multi-query array service.

The paper's §7 outlook — many analytics queries contending for one machine's
memory and disk — realized over the existing single-query stack:

* a front end (:class:`ArrayService`) accepts *jobs* (program + parameter
  binding + input matrices) and runs them on a thread-pool of workers;
* planning goes through the persistent :class:`~repro.service.PlanCache`,
  so repeat submissions of a program template skip the Apriori search;
* every job executes against one **shared**
  :class:`~repro.storage.BufferPool` and one shared
  :class:`~repro.storage.SimulatedDisk` — inputs are content-addressed, so
  two queries over the same base array share buffered blocks (and a block
  being read by one query satisfies a concurrent fetch of it without a
  second disk read);
* **admission control** partitions the global memory budget: a job enters
  execution only when its plan's memory high-water mark fits what is left,
  otherwise it waits in a bounded FIFO queue (per-job timeout); a job that
  can never fit is rejected immediately with a typed error.

Key namespacing — how many queries coexist in one pool:

* INPUT arrays are stored once per *content* under ``ds_<digest>`` names
  (digest over bytes, dtype, shape and block geometry), so identical inputs
  of different jobs collide deliberately into shared buffer keys; they
  are datasets of one :class:`~repro.storage.DatasetCatalog` file, which
  outlives the service;
* every other array is private under ``<job>__<name>``, so two jobs running
  the same program template never alias their intermediates.

Jobs run in **opportunistic** (LRU) buffer mode by default: plan-exact
replay charges every planned READ to disk by design (that is its point —
matching the cost model byte for byte), which would ignore blocks a
concurrent query already buffered.  Opportunistic mode turns those into
hits, which is exactly the inter-query sharing this service exists for.

Fault tolerance composes: the shared disk can carry a fault injector and
atomic-write protection, and each job may checkpoint to its own journal
(``<workdir>/jobs/<job>/execution.journal``) and later be resubmitted with
``resume=True`` under the *same job name*.

Resilience (see :mod:`repro.service.resilience` and docs/service.md):

* ``submit(timeout=)`` attaches a deadline; the returned
  :class:`JobHandle` supports cooperative :meth:`JobHandle.cancel` — both
  surface as typed :class:`~repro.exceptions.DeadlineExceeded` /
  :class:`~repro.exceptions.JobCancelled` at the job's next checkpoint
  (admission wait, instance boundary, prefetch claim, retry backoff);
* ``submit(retry=...)`` retries transient storage failures through the
  checkpoint journal, re-executing only unfinished instances;
* ``ArrayService(degrade=...)`` arms the overload ladder: plan-cache-only
  planning, prefetch throttling, load shedding, per-store circuit
  breakers.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path
from typing import Hashable, Mapping

import numpy as np

from ..cancel import CancelToken
from ..engine.executor import ExecutionReport, run_job
from ..exceptions import (AdmissionRejected, AdmissionTimeout,
                          DeadlineExceeded, JobCancelled, OptimizationError,
                          ServiceClosed, ServiceError, ServiceOverloaded,
                          ServiceQueueFull)
from ..ir import ArrayKind, Program
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..optimizer import optimize
from ..optimizer.plan import Plan
from ..storage import BufferPool, DAFMatrix, DatasetCatalog, make_disk
from .plan_cache import PlanCache, optimization_fingerprint
from .resilience import (TRANSIENT, CircuitBreaker, DegradePolicy,
                         HealthController, JobRetryPolicy)

__all__ = ["ArrayService", "JobHandle", "JobResult", "ServiceStats",
           "JobPoolView"]

_UNSET = object()


class ServiceStats(obs_metrics.StatFields):
    """Service-level accounting, thin views over metrics instruments."""

    _COUNTERS = ("jobs_submitted", "jobs_completed", "jobs_failed",
                 "jobs_rejected", "jobs_cancelled", "jobs_deadline_exceeded",
                 "jobs_shed", "retries_attempted", "retries_exhausted",
                 "degraded_plans", "prefetch_throttled", "breaker_trips",
                 "breaker_fastfails", "pins_reclaimed")
    _GAUGES = ("queue_depth", "admitted_bytes", "active_jobs")

    #: Whole-job latency buckets (seconds): submit → result, covering
    #: planning + admission wait + every execution attempt.  p50/p99 SLO
    #: reporting reads these via ``Histogram.quantiles``.  Log-linear, four
    #: buckets per octave from 0.5 ms to 623 s: any quantile estimate lands
    #: in the bucket of the exact one, so it is off by at most 2^(1/4) - 1
    #: (19 %) of it wherever the latency falls.
    _LATENCY_BUCKETS = tuple(0.0005 * 2 ** (k / 4) for k in range(82))

    __slots__ = tuple("_" + f for f in _COUNTERS + _GAUGES) + ("job_seconds",)

    def __init__(self):
        self._init_stats("repro_service_")
        self.job_seconds = obs_metrics.Histogram(
            "repro_service_job_seconds", buckets=self._LATENCY_BUCKETS)
        registry = obs_metrics.CURRENT
        if registry is not None:
            self.bind(registry, service=registry.seq("service"))

    def bind(self, registry: obs_metrics.MetricsRegistry, **labels) -> None:
        super().bind(registry, **labels)
        self.job_seconds.labels = dict(labels)
        registry.register(self.job_seconds)

    def __repr__(self) -> str:
        return (f"ServiceStats(submitted={self.jobs_submitted}, "
                f"completed={self.jobs_completed}, failed={self.jobs_failed}, "
                f"rejected={self.jobs_rejected})")


class JobPoolView:
    """One job's window onto the shared buffer pool.

    Translates the engine's ``(array name, block)`` keys into the service's
    global namespace, tags every pin with the job as *owner* (so crashed
    jobs can be swept with
    :meth:`~repro.storage.BufferPool.release_owner`), and keeps
    per-job hit/miss counters: a fetch satisfied without invoking *this
    job's* loader — whether the block was resident or another query's
    in-flight read was joined — counts as a hit, because this job issued no
    disk read for it.  ``peak_bytes`` is the shared pool's aggregate peak.
    The surface is what the engine and its prefetch pipeline call.
    """

    __slots__ = ("pool", "names", "owner", "hits", "misses")

    def __init__(self, pool: BufferPool, names: Mapping[str, str],
                 owner: Hashable):
        self.pool = pool
        self.names = dict(names)
        self.owner = owner
        self.hits = 0
        self.misses = 0

    def _k(self, key: tuple) -> tuple:
        name, block = key
        return (self.names[name], block)

    def contains(self, key: tuple) -> bool:
        return self.pool.contains(self._k(key))

    def fetch(self, key: tuple, loader, pin: int = 0):
        invoked = []

        def counted_loader():
            invoked.append(True)
            return loader()

        blk = self.pool.fetch(self._k(key), counted_loader, pin=pin,
                              owner=self.owner)
        if invoked:
            self.misses += 1
        else:
            self.hits += 1
        return blk

    def put(self, key: tuple, data, dirty: bool = False, pin: int = 0,
            force: bool = False):
        return self.pool.put(self._k(key), data, dirty, pin=pin,
                             owner=self.owner, force=force)

    def stage(self, key: tuple, data):
        return self.pool.stage(self._k(key), data, owner=self.owner)

    def consume_staged(self, key: tuple, pin: int = 1):
        return self.pool.consume_staged(self._k(key), pin=pin,
                                        owner=self.owner)

    def discard_staged(self, key: tuple) -> bool:
        return self.pool.discard_staged(self._k(key), owner=self.owner)

    def pin(self, key: tuple) -> None:
        self.pool.pin(self._k(key), owner=self.owner)

    def unpin(self, key: tuple) -> None:
        self.pool.unpin(self._k(key), owner=self.owner)

    def release_if_unpinned(self, key: tuple, force: bool = False) -> bool:
        return self.pool.release_if_unpinned(self._k(key), force)

    @property
    def peak_bytes(self) -> int:
        return self.pool.peak_bytes


class _Job:
    """Everything one submission carries through the pipeline."""

    __slots__ = ("key", "program", "params", "inputs", "memory_cap_bytes",
                 "plan", "plan_exact", "checkpoint", "resume",
                 "admission_timeout", "prefetch_depth",
                 "token", "retry", "t_submit")

    def __init__(self, **kw):
        for f in self.__slots__:
            setattr(self, f, kw[f])


class JobResult:
    """What a completed job hands back through its future."""

    __slots__ = ("job", "outputs", "report", "plan", "cache_hit",
                 "optimize_seconds", "admission_wait_seconds", "attempts")

    def __init__(self, job: str, outputs: dict, report: ExecutionReport,
                 plan: Plan, cache_hit: bool, optimize_seconds: float,
                 admission_wait_seconds: float, attempts: int = 1):
        self.job = job
        self.outputs = outputs
        self.report = report
        self.plan = plan
        self.cache_hit = cache_hit
        self.optimize_seconds = optimize_seconds
        self.admission_wait_seconds = admission_wait_seconds
        # Execution attempts this result took (1 = no retries needed).
        self.attempts = attempts

    def __repr__(self) -> str:
        return (f"JobResult({self.job}, plan #{self.plan.index}, "
                f"cache_hit={self.cache_hit}, "
                f"read={self.report.io.read_bytes}B, "
                f"attempts={self.attempts}, "
                f"waited {self.admission_wait_seconds:.3f}s)")


class JobHandle(Future):
    """The future :meth:`ArrayService.submit` returns, plus cancellation.

    :meth:`cancel` is *cooperative*: it flags the job's
    :class:`~repro.cancel.CancelToken` and returns — the job observes the
    flag at its next checkpoint and the future then resolves with a typed
    :class:`~repro.exceptions.JobCancelled`.  The stdlib CANCELLED state
    is never used, so ``result()`` always yields either a
    :class:`JobResult` or a :class:`~repro.exceptions.ReproError` —
    chaos-harness invariant: every failure is typed.
    """

    def __init__(self, token: CancelToken):
        super().__init__()
        self.token = token

    def cancel(self, reason: str = "cancelled by caller") -> bool:
        """Request cooperative cancellation; False if already finished."""
        if self.done():
            return False
        self.token.cancel(reason)
        return True


class _Ticket:
    __slots__ = ("need",)

    def __init__(self, need: int):
        self.need = need


class ArrayService:
    """Concurrent multi-query front end over one disk and one buffer pool.

    ``memory_cap_bytes`` is the *global* budget: it caps the shared buffer
    pool and is the pie admission control slices.  ``workers`` bounds
    execution concurrency; ``max_pending`` (when set) bounds how many jobs
    may be in flight — submitted but unfinished — before :meth:`submit`
    raises :class:`~repro.exceptions.ServiceQueueFull`.

    Use as a context manager, or call :meth:`shutdown`.
    """

    def __init__(self, workdir, memory_cap_bytes: int,
                 workers: int = 4,
                 plan_cache: "PlanCache | str | Path | None" = None,
                 max_pending: int | None = None,
                 admission_timeout: float | None = None,
                 max_set_size: int | None = None,
                 max_candidates: int | None = None,
                 prefetch_depth: int = 0,
                 degrade: "DegradePolicy | bool | None" = None):
        """``workdir`` is a directory or a disk from
        :func:`~repro.storage.make_disk`, which holds every storage
        setting; the service owns the disk and closes it on shutdown.
        Without a ``plan_cache`` (object or directory) the service keeps
        an in-memory one."""
        if memory_cap_bytes <= 0:
            raise ServiceError("memory_cap_bytes must be positive")
        if workers < 1:
            raise ServiceError("workers must be >= 1")
        if prefetch_depth < 0:
            raise ServiceError("prefetch_depth must be >= 0")
        self.disk = make_disk(workdir) \
            if isinstance(workdir, (str, os.PathLike)) else workdir
        self.workdir = self.disk.root
        self.memory_cap_bytes = int(memory_cap_bytes)
        self.io_model = self.disk.io_model
        if self.disk.atomic_writes:
            # A previous service process may have died mid-write; roll torn
            # regions back before any job opens a store.
            self.disk.recover()
        self.pool = BufferPool(self.memory_cap_bytes)
        self.plan_cache = plan_cache if isinstance(plan_cache, PlanCache) \
            else PlanCache(plan_cache)
        self.max_pending = max_pending
        self.admission_timeout = admission_timeout
        self.max_set_size = max_set_size
        self.max_candidates = max_candidates
        self.prefetch_depth = int(prefetch_depth)
        self.stats = ServiceStats()

        self._executor = ThreadPoolExecutor(workers,
                                            thread_name_prefix="repro-svc")
        # Start every worker thread now; the executor would start each on
        # its first concurrent submit, i.e. *after* the caller's client
        # threads exist.  glibc then hands those clients the malloc arenas
        # the previous service's workers vacated (tens of MB of freed,
        # untrimmable block buffers each) and grows fresh ones for the new
        # workers: a process that runs services one after another strands
        # an arena set per generation.  Created first, in the same order,
        # each generation's workers take over their predecessors' arenas.
        barrier = threading.Barrier(workers)
        for started in [self._executor.submit(barrier.wait)
                        for _ in range(workers)]:
            started.result()
        self._adm = threading.Condition()
        self._adm_queue: deque[_Ticket] = deque()
        self._admitted = 0
        self._pending = 0
        self._lock = threading.Lock()  # job naming, tokens
        self._job_seq = 0
        self._active: set[str] = set()
        self._tokens: dict[str, CancelToken] = {}
        # Every input dataset lives in one catalog file on the shared disk
        # (the catalog creates its file only when first asked).
        self.catalog = DatasetCatalog(self.disk)
        self._closed = False
        if degrade is True:
            degrade = DegradePolicy()
        self.health = HealthController(self, degrade or None)

    # -- lifecycle ----------------------------------------------------------

    def __enter__(self) -> "ArrayService":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def shutdown(self, wait: bool = True, cancel_running: bool = False) -> None:
        """Stop accepting jobs; optionally wait for in-flight ones.

        Jobs parked in the admission queue are woken *immediately* and
        fail with :class:`~repro.exceptions.ServiceClosed` — shutdown
        never hangs on a queue that can no longer drain, and a waiter
        never sleeps out its ``admission_timeout`` first.

        ``cancel_running=True`` additionally cancels every in-flight job's
        token: running jobs fail with
        :class:`~repro.exceptions.JobCancelled` at their next checkpoint
        (and any retry backoff sleeps are cut short), so shutdown bounds
        on the current instance, not the full remaining plan.

        With ``wait=True`` the shared buffer pool is emptied once the last
        job has finished: a shut-down service holds no block memory,
        whether or not the service object itself is still referenced.
        """
        with self._adm:
            self._closed = True
            self._adm.notify_all()
        if cancel_running:
            with self._lock:
                tokens = list(self._tokens.values())
            for token in tokens:
                token.cancel("service shutting down")
        self._executor.shutdown(wait=wait)
        if wait:
            # Every job has run its own sweep, so what is left are shared
            # dataset blocks nobody will read again — up to the whole cap.
            # Without ``wait`` jobs may still be running on these blocks.
            # (A pinned block stays: a leaked pin must remain visible.)
            self.pool.drop_matching(lambda key: True, force=True)
        self.catalog.close()
        self.disk.close()

    def close(self, cancel_running: bool = False) -> None:
        """Synonym for ``shutdown(wait=True)``."""
        self.shutdown(wait=True, cancel_running=cancel_running)

    # -- submission ---------------------------------------------------------

    def submit(self, program: Program, params: Mapping[str, int],
               inputs: Mapping[str, np.ndarray], *,
               name: str | None = None,
               memory_cap_bytes: int | None = None,
               plan: Plan | None = None,
               plan_exact: bool = False,
               checkpoint: bool = False,
               resume: bool = False,
               admission_timeout: "float | None" = _UNSET,
               prefetch_depth: int | None = None,
               timeout: float | None = None,
               retry: "JobRetryPolicy | int | None" = None
               ) -> "JobHandle":
        """Queue one job; returns a :class:`JobHandle` (a Future of
        :class:`JobResult`).

        ``memory_cap_bytes`` caps *plan selection* for this job (default:
        the service's global cap); admission always checks the chosen
        plan's high-water mark against the global budget.  ``plan`` skips
        planning entirely.  ``name`` must be unique among in-flight jobs
        and is required stable for ``checkpoint``/``resume`` pairs.
        ``prefetch_depth`` overrides the service default; a job's staging
        budget (``depth`` × its largest block) is charged to admission on
        top of the plan's memory high-water mark, so staged bytes never
        eat into what other jobs were promised.

        Resilience knobs:

        * ``timeout`` — whole-job deadline, seconds from now (planning +
          admission wait + every execution attempt); ``None``, the
          default, sets none.  Expiry surfaces as
          :class:`~repro.exceptions.DeadlineExceeded` from the future.
        * ``retry`` — a :class:`~repro.service.JobRetryPolicy` (or an int,
          shorthand for ``JobRetryPolicy(max_attempts=N)``): transient
          storage failures re-execute through the checkpoint journal,
          resuming from the last consistent instance.  Attaching a policy
          forces ``checkpoint=True``; ``None``, the default, never retries.
        """
        # Overload shedding happens before any state is reserved — and
        # before self._lock, because the health controller reads _pending
        # under that same lock.
        if self.health.should_shed():
            self.stats.jobs_shed += 1
            raise ServiceOverloaded(
                f"service is shedding load: {self.health.backlog()} jobs "
                f"in flight (policy sheds at "
                f"{self.health.policy.shed_backlog})")
        if isinstance(retry, int):
            retry = JobRetryPolicy(max_attempts=retry)
        dl = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            if self._closed:
                raise ServiceClosed("service is shut down")
            if self.max_pending is not None and \
                    self._pending >= self.max_pending:
                raise ServiceQueueFull(
                    f"{self._pending} jobs already pending "
                    f"(max_pending={self.max_pending})")
            if name is None:
                self._job_seq += 1
                name = f"j{self._job_seq}"
            if name in self._active:
                raise ServiceError(f"job name {name!r} already in flight")
            self._active.add(name)
            self._pending += 1
            token = CancelToken(deadline=dl)
            self._tokens[name] = token
        self.stats.jobs_submitted += 1
        adm_timeout = self.admission_timeout if admission_timeout is _UNSET \
            else admission_timeout
        depth = self.prefetch_depth if prefetch_depth is None \
            else int(prefetch_depth)
        job = _Job(key=name, program=program, params=dict(params),
                   inputs=dict(inputs), memory_cap_bytes=memory_cap_bytes,
                   plan=plan, plan_exact=plan_exact,
                   # A retry policy needs the journal from attempt one:
                   # that is what makes a retry a *resume*.
                   checkpoint=checkpoint or retry is not None,
                   resume=resume, admission_timeout=adm_timeout,
                   prefetch_depth=depth,
                   token=token, retry=retry, t_submit=time.monotonic())
        handle = JobHandle(token)
        try:
            self._executor.submit(self._drive, job, handle)
        except BaseException as err:
            with self._lock:
                self._active.discard(name)
                self._pending -= 1
                self._tokens.pop(name, None)
            if isinstance(err, RuntimeError):  # pool already shut down
                raise ServiceClosed("service is shut down") from err
            raise
        return handle

    def _drive(self, job: _Job, handle: JobHandle) -> None:
        """Worker-thread entry: run the job, complete its handle."""
        handle.set_running_or_notify_cancel()
        try:
            result = self._run_job(job)
        except BaseException as err:
            handle.set_exception(err)
        else:
            handle.set_result(result)

    def run(self, program: Program, params: Mapping[str, int],
            inputs: Mapping[str, np.ndarray], **kw) -> JobResult:
        """Submit one job and wait for its result."""
        return self.submit(program, params, inputs, **kw).result()

    # -- admission control --------------------------------------------------

    def _wake_admission(self) -> None:
        with self._adm:
            self._adm.notify_all()

    def _admit(self, need: int, timeout: float | None,
               cancel: "CancelToken | None" = None) -> None:
        """Block until ``need`` bytes of the global budget are ours (FIFO).

        A waiter wakes promptly on service close and on cancellation of
        its token — never sleeping out its full ``timeout`` first — and a
        waiter that leaves (timeout, cancel, deadline) removes its ticket
        and notifies, so the budget it was next in line for is re-offered
        to the new queue head immediately.
        """
        if need > self.memory_cap_bytes:
            raise AdmissionRejected(
                f"plan needs {need} bytes of buffer memory; the service "
                f"budget is {self.memory_cap_bytes} — this job can never "
                f"be admitted")
        ticket = _Ticket(need)
        deadline = time.monotonic() + timeout if timeout is not None else None
        if cancel is not None:
            cancel.subscribe(self._wake_admission)
        with self._adm:
            self._adm_queue.append(ticket)
            self.stats.queue_depth = len(self._adm_queue)
            try:
                while True:
                    if self._closed:
                        raise ServiceClosed(
                            "service shut down while awaiting admission")
                    if cancel is not None:
                        cancel.check()
                    if self._adm_queue[0] is ticket and \
                            self._admitted + need <= self.memory_cap_bytes:
                        self._adm_queue.popleft()
                        self._admitted += need
                        self.stats.queue_depth = len(self._adm_queue)
                        self.stats.admitted_bytes = self._admitted
                        # A successor may fit in what is left.
                        self._adm.notify_all()
                        return
                    remaining = None
                    if deadline is not None:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            raise AdmissionTimeout(
                                f"no {need} bytes of budget freed within "
                                f"{timeout:.3f}s (admitted: "
                                f"{self._admitted}/{self.memory_cap_bytes})")
                    if cancel is not None:
                        # Bound the wait by the job deadline too, so expiry
                        # is noticed the moment it happens.
                        rem = cancel.remaining()
                        if rem is not None:
                            remaining = rem if remaining is None \
                                else min(remaining, rem)
                    self._adm.wait(remaining)
            except BaseException:
                self._adm_queue.remove(ticket)
                self.stats.queue_depth = len(self._adm_queue)
                self._adm.notify_all()
                raise

    def _release_admission(self, need: int) -> None:
        with self._adm:
            self._admitted -= need
            self.stats.admitted_bytes = self._admitted
            self._adm.notify_all()

    # -- storage namespace --------------------------------------------------

    @staticmethod
    def _dataset_name(data: np.ndarray, arr) -> str:
        canon = np.ascontiguousarray(data, dtype=f"f{arr.dtype_bytes}")
        h = hashlib.sha256()
        h.update(repr((canon.dtype.str, canon.shape,
                       arr.block_shape)).encode())
        h.update(canon)  # the array's own buffer, not a tobytes() copy
        return f"ds_{h.hexdigest()[:16]}"

    def _store_names(self, job: _Job) -> dict[str, str]:
        """On-disk store name per logical array: the module docstring's
        "key namespacing" on the shared disk."""
        return {
            lname: self._dataset_name(job.inputs[lname], arr)
            if arr.kind is ArrayKind.INPUT else f"{job.key}__{lname}"
            for lname, arr in job.program.arrays.items()}

    # -- the job pipeline ---------------------------------------------------

    def _fingerprint(self, job: _Job) -> str:
        """The plan-cache key of ``job`` — the knobs are exactly those
        :func:`~repro.optimizer.optimize` keys the cache with when this
        service plans, so the value names the job's
        ``<fingerprint>.json``."""
        cap = job.memory_cap_bytes if job.memory_cap_bytes is not None \
            else self.memory_cap_bytes
        return optimization_fingerprint(
            job.program, job.params, cap, self.io_model,
            max_set_size=self.max_set_size,
            max_candidates=self.max_candidates)

    def _plan_job(self, job: _Job) -> tuple[Plan, bool, float, str | None]:
        """``(plan, cache hit?, planning seconds, fingerprint)``; the
        fingerprint is ``None`` when planning never asked the cache."""
        if job.plan is not None:
            return job.plan, False, 0.0, None
        cap = job.memory_cap_bytes if job.memory_cap_bytes is not None \
            else self.memory_cap_bytes
        if self.health.plan_cache_only():
            return self._plan_degraded(job, cap)
        result = optimize(job.program, job.params, io_model=self.io_model,
                          memory_cap_bytes=cap,
                          max_set_size=self.max_set_size,
                          max_candidates=self.max_candidates,
                          plan_cache=self.plan_cache)
        try:
            plan = result.best(cap)
        except OptimizationError as err:
            raise AdmissionRejected(
                f"no plan for {job.program.name} fits {cap} bytes") from err
        return plan, result.cache_hit, result.seconds, result.fingerprint

    def _plan_degraded(self, job: _Job, cap: int
                       ) -> tuple[Plan, bool, float, str | None]:
        """Plan-cache-only planning under queue pressure.

        A cache hit serves the previously-won plan as usual; a miss must
        NOT start a cold Apriori search while jobs are stacking up —
        ``max_set_size=0`` costs only the original (share-nothing) plan,
        which is cheap and always legal.  The degraded plan is not stored
        to the cache: the next uncontended submission of this template
        should still pay for (and cache) the real search.
        """
        t0 = time.monotonic()
        self.stats.degraded_plans += 1
        fingerprint = self._fingerprint(job)
        cached = self.plan_cache.lookup(fingerprint, job.program, job.params,
                                        self.io_model)
        if cached is not None and cached[0].fits(cap):
            obs_trace.instant("service.degraded_plan", "service",
                              job=job.key, source="cache")
            return cached[0], True, time.monotonic() - t0, fingerprint
        obs_trace.instant("service.degraded_plan", "service",
                          job=job.key, source="original")
        result = optimize(job.program, job.params, io_model=self.io_model,
                          memory_cap_bytes=cap, max_set_size=0)
        try:
            plan = result.best(cap)
        except OptimizationError as err:
            raise AdmissionRejected(
                f"no plan for {job.program.name} fits {cap} bytes") from err
        return plan, False, time.monotonic() - t0, fingerprint

    def _run_job(self, job: _Job) -> JobResult:
        try:
            attempt = 1
            while True:
                try:
                    job.token.check()
                    with obs_trace.span("service.job", "service", job=job.key,
                                        program=job.program.name,
                                        attempt=attempt) as sp:
                        result = self._execute_admitted(job, sp)
                    result.attempts = attempt
                    self.stats.jobs_completed += 1
                    # Whole-job latency: submit → result.  p50/p99 SLO
                    # reporting quantile-extracts this histogram.
                    self.stats.job_seconds.observe(
                        time.monotonic() - job.t_submit)
                    return result
                except BaseException as err:
                    if not self._should_retry(job, attempt, err):
                        raise
                    self.stats.retries_attempted += 1
                    obs_trace.instant("service.retry", "service", job=job.key,
                                      attempt=attempt,
                                      error=type(err).__name__)
                    self._retry_backoff(job, attempt)
                    # Re-enter through the journal: run_job rolls back the
                    # writes the failed attempt died in, and only unfinished
                    # instances re-execute.
                    job.resume = True
                    attempt += 1
        except JobCancelled as err:
            if isinstance(err, DeadlineExceeded):
                self.stats.jobs_deadline_exceeded += 1
            else:
                self.stats.jobs_cancelled += 1
            raise
        except (AdmissionRejected, AdmissionTimeout):
            self.stats.jobs_rejected += 1
            raise
        except ServiceClosed:
            raise
        except BaseException:
            self.stats.jobs_failed += 1
            raise
        finally:
            with self._lock:
                self._active.discard(job.key)
                self._pending -= 1
                self._tokens.pop(job.key, None)

    def _should_retry(self, job: _Job, attempt: int,
                      err: BaseException) -> bool:
        if job.retry is None or isinstance(err, ServiceError):
            # ServiceError covers cancellation, deadlines, admission
            # failures and shutdown — none of which retrying can fix.
            return False
        if job.retry.classify(err) != TRANSIENT:
            return False
        if attempt >= job.retry.max_attempts:
            self.stats.retries_exhausted += 1
            return False
        return True

    def _retry_backoff(self, job: _Job, attempt: int) -> None:
        """Inter-attempt backoff, interruptible by cancel and close."""
        delay = job.retry.delay(attempt)
        rem = job.token.remaining()
        if rem is not None:
            delay = min(delay, max(0.0, rem))
        if delay > 0:
            job.token.event.wait(delay)
        job.token.check()
        with self._adm:
            if self._closed:
                raise ServiceClosed("service shut down during retry backoff")

    def _execute_admitted(self, job: _Job, sp) -> JobResult:
        for lname, arr in job.program.arrays.items():
            if arr.kind is ArrayKind.INPUT and lname not in job.inputs:
                raise ServiceError(f"missing input matrix {lname!r}")
        with obs_trace.span("service.plan", "service", job=job.key):
            plan, cache_hit, opt_seconds, fingerprint = self._plan_job(job)
        # Pin the plan on the job so a retry replays the *same* plan: the
        # checkpoint journal is keyed by plan fingerprint, and resume only
        # works if attempt N+1 fingerprints identically to attempt N.
        job.plan = plan
        # Under memory pressure the health controller scales prefetch
        # read-ahead toward zero so staged blocks stop competing with
        # computation for the shared budget.
        depth = self.health.effective_prefetch_depth(job.prefetch_depth)
        if depth != job.prefetch_depth:
            self.stats.prefetch_throttled += 1
            obs_trace.instant("service.prefetch_throttled", "service",
                              job=job.key, requested=job.prefetch_depth,
                              effective=depth)
        # The prefetch staging budget is real memory the job will occupy in
        # the shared pool, so admission charges for it alongside the plan's
        # high-water mark — staged blocks never eat other jobs' promises.
        prefetch_budget = None
        if depth:
            prefetch_budget = depth * max(
                arr.block_bytes for arr in job.program.arrays.values())
        need = plan.cost.memory_bytes + (prefetch_budget or 0)
        sp["plan"] = plan.index
        sp["cache_hit"] = cache_hit
        sp["need_bytes"] = need

        t0 = time.monotonic()
        with obs_trace.span("service.admission", "service", job=job.key,
                            need_bytes=need):
            self._admit(need, job.admission_timeout, cancel=job.token)
        wait = time.monotonic() - t0
        self.stats.active_jobs += 1
        try:
            names = self._store_names(job)
            jobdir = self.workdir / "jobs" / job.key
            journaled = job.checkpoint or job.resume
            if journaled:
                jobdir.mkdir(parents=True, exist_ok=True)
            with obs_trace.span("service.execute", "service", job=job.key):
                report, outputs, io, exec_plan = run_job(
                    job.program, job.params, plan, job.inputs, self.disk,
                    names=names,
                    catalog=self.catalog,
                    breaker_for=self.health.breaker_for,
                    journal_path=jobdir / "execution.journal"
                    if journaled else None, resume=job.resume,
                    pool=JobPoolView(self.pool, names, owner=job.key),
                    plan_exact=job.plan_exact, prefetch_depth=depth,
                    prefetch_budget_bytes=prefetch_budget,
                    cancel=job.token)
                # A 1000-job run must not accumulate 1000 private stores.
                # A journaled job keeps its own: the journal outlives the
                # run, and resuming a finished job replays nothing — over
                # fresh stores that would read as zeros.  Inputs belong to
                # the catalog; an intermediate outside disk_arrays() never
                # got a store.
                if not journaled:
                    for lname in exec_plan.disk_arrays():
                        if job.program.arrays[lname].kind \
                                is not ArrayKind.INPUT:
                            DAFMatrix.remove(self.disk, names[lname])

            # The in-executor report drew on the *disk's* counters —
            # polluted, on the shared disk, by whatever ran concurrently.
            # Re-attribute from the per-job proxies.
            report.io = io
            report.simulated_io_seconds = self.io_model.seconds(
                io.read_bytes, io.write_bytes)
            if obs_trace.CURRENT is not None:
                # Enrich the job span's end event with everything the
                # workload advisor needs to rebuild a profile offline from
                # the JSONL trace alone (repro.advisor.workload).
                # The key planning asked the cache under; a job that came
                # with its plan (pinned, or a retry) gets the one it would
                # have been asked under, so profiles group it with its
                # template either way.
                sp["fingerprint"] = fingerprint or self._fingerprint(job)
                sp["params"] = dict(job.params)
                sp["arrays"] = names
                sp["plan_exact"] = job.plan_exact
                sp["prefetch_depth"] = depth
                sp["memory_bytes"] = plan.cost.memory_bytes
                sp["predicted_read_bytes"] = plan.cost.read_bytes
                sp["predicted_write_bytes"] = plan.cost.write_bytes
                sp["read_bytes"] = io.read_bytes
                sp["write_bytes"] = io.write_bytes
                sp["read_ops"] = io.read_ops
                sp["write_ops"] = io.write_ops
                sp["pool_hits"] = report.pool_hits
                sp["pool_misses"] = report.pool_misses
                sp["optimize_seconds"] = opt_seconds
                sp["admission_wait_seconds"] = wait
            return JobResult(job.key, outputs, report, plan, cache_hit,
                             opt_seconds, wait)
        finally:
            # Crash-or-finish sweep: drop any pins the job still holds,
            # then evict its private blocks so the budget it vacates is
            # actually reusable.  Shared dataset blocks stay — they are the
            # inter-query sharing capital.
            leaked = self.pool.release_owner(job.key)
            if leaked:
                self.stats.pins_reclaimed += leaked
                obs_trace.instant("service.pins_reclaimed", "service",
                                  job=job.key, pins=leaked)
            private_prefix = f"{job.key}__"
            self.pool.drop_matching(
                lambda k: isinstance(k[0], str)
                and k[0].startswith(private_prefix), force=True)
            self.stats.active_jobs -= 1
            self._release_admission(need)

    # -- introspection ------------------------------------------------------

    def queue_depth(self) -> int:
        with self._adm:
            return len(self._adm_queue)

    def admitted_bytes(self) -> int:
        with self._adm:
            return self._admitted

    def __repr__(self) -> str:
        return (f"ArrayService({self.workdir}, "
                f"cap={self.memory_cap_bytes}B, {self.stats!r})")
