"""Process-pool worker backend for :class:`~repro.service.ArrayService`.

The thread backend shares one disk, one buffer pool and the GIL; numpy
releases the GIL inside kernels, but everything around them — block
(de)serialization, pool bookkeeping, plan bookkeeping — is Python, so
numpy-light jobs stop scaling with thread count.  The ``backend="procs"``
path runs each *admitted* job in a worker process instead:

* planning, the plan cache, admission control, deadlines, retry
  classification and all service bookkeeping stay in the parent — the
  worker receives a fully planned, admitted job;
* the job ships as a picklable :class:`WorkerJobSpec` and comes back as a
  picklable :class:`WorkerOutcome`;
* the worker runs the job through :func:`repro.engine.executor.run_job` —
  the very function the thread backend calls — against its **own private
  disk** under the job directory (sharded exactly like the service disk)
  and its own buffer pool, then returns what ``run_job`` returned plus a
  mergeable :class:`~repro.storage.IOStats` snapshot of its logical disk
  traffic and (when the parent has metrics installed) its whole pickled
  :class:`~repro.obs.metrics.MetricsRegistry` — the parent *merges* both,
  so process-backend totals land on the same series the thread backend
  would have counted.

What does NOT carry over from the thread backend, by design: cross-job
content-addressed input sharing and shared-pool block hits.  An isolated
process cannot share another job's resident blocks; per-job attribution
on plan-exact jobs is nevertheless byte-identical, because plan-exact
replay charges every planned READ to disk in both backends.  Cooperative
cancellation is coarser too — a cancel lands after the in-flight worker
attempt finishes (the parent cannot reach into the worker's loop), while
deadlines are enforced *inside* the worker via its own token.
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path

from ..cancel import CancelToken
from ..engine.executor import run_job
from ..obs import metrics as obs_metrics
from ..storage import make_disk

__all__ = ["WorkerJobSpec", "WorkerOutcome", "run_worker_job"]


class WorkerJobSpec:
    """Everything a worker process needs to execute one admitted job.

    Built by the parent *after* planning and admission; every field is
    picklable.  ``deadline_remaining`` carries the job deadline as
    seconds-from-now (absolute ``time.monotonic`` values do not transfer
    across processes).
    """

    __slots__ = ("job", "program", "params", "inputs", "plan", "plan_exact",
                 "jobdir", "shards", "stripe_bytes", "io_model", "pace",
                 "pace_channels", "fault_injector", "retry",
                 "atomic_writes", "checkpoint", "resume",
                 "prefetch_depth", "prefetch_budget_bytes", "pool_cap_bytes",
                 "deadline_remaining", "collect_metrics")

    def __init__(self, **kw):
        for f in self.__slots__:
            setattr(self, f, kw[f])


class WorkerOutcome:
    """What a worker hands back: :func:`run_job`'s outputs, report and
    per-job I/O as they are, plus the worker disk's mergeable accounting."""

    __slots__ = ("outputs", "report", "io", "disk_stats", "registry")

    def __init__(self, **kw):
        for f in self.__slots__:
            setattr(self, f, kw[f])


def run_worker_job(spec: WorkerJobSpec) -> WorkerOutcome:
    """Process-pool entry point: execute one admitted job start to finish.

    Runs with a private metrics registry when the parent asked for one
    (``collect_metrics``); the registry rides home inside the outcome and
    the parent merges it, so worker disk/pool series land on the same
    (name, labels) the thread backend increments directly.
    """
    registry = obs_metrics.MetricsRegistry() if spec.collect_metrics else None
    token = CancelToken(
        deadline=(time.monotonic() + spec.deadline_remaining)
        if spec.deadline_remaining is not None else None)
    jobdir = Path(spec.jobdir)
    with obs_metrics.use(registry), \
            make_disk(jobdir / "store", spec.shards,
                      stripe_bytes=spec.stripe_bytes, io_model=spec.io_model,
                      pace=spec.pace, pace_channels=spec.pace_channels,
                      fault_injector=spec.fault_injector, retry=spec.retry,
                      atomic_writes=spec.atomic_writes) as disk:
        # Nothing to collide with on a private disk, so logical array
        # names are used as-is, and INPUT matrices are written (uncounted)
        # by each job — the price of process isolation.
        report, outputs, io, _ = run_job(
            spec.program, spec.params, spec.plan, spec.inputs, disk,
            journal_path=jobdir / "execution.journal"
            if spec.checkpoint or spec.resume else None,
            resume=spec.resume, memory_cap_bytes=spec.pool_cap_bytes,
            plan_exact=spec.plan_exact, prefetch_depth=spec.prefetch_depth,
            prefetch_budget_bytes=spec.prefetch_budget_bytes, cancel=token)
        return WorkerOutcome(outputs=outputs, report=report, io=io,
                             disk_stats=disk.stats.snapshot(),
                             registry=registry)


def cleanup_jobdir(jobdir: str | Path) -> None:
    """Best-effort removal of a completed job's private worker store.

    Called by the parent after a *successful* proc-backend job: a
    1000-job run must not accumulate 1000 private input copies.  Failed
    checkpointed jobs keep theirs — that store is what resume reopens.
    """
    shutil.rmtree(Path(jobdir) / "store", ignore_errors=True)
