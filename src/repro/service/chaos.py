"""Chaos harness: seeded failure storms against a live :class:`ArrayService`.

The service's resilience claims are only credible if they survive *mixed*
adversity — faults tearing writes while deadlines expire while the
admission queue is saturated.  This module drives exactly that: a seeded
scenario generator submits a randomized blend of

* clean jobs (plan-exact, so their per-job I/O attribution has an exact
  isolated-run baseline to match byte-for-byte),
* doomed jobs whose private files suffer transient write faults beyond the
  disk's own retry budget (exercising job-level retry-with-resume),
* deadline-storm jobs with timeouts far below their runtime,
* caller cancellations fired from a separate thread mid-flight, and
* an overload burst sized past the admission queue's shed watermark,

then drains everything and audits the post-mortem invariants that define
"no resource leaked, no failure silent":

1. every future resolves within the drain timeout (no hung jobs);
2. the admission ledger returns to zero and the queue empties;
3. the shared pool holds zero pins and zero staged marks, and its byte
   ledger equals what is actually resident (nothing, once every pin is gone);
4. every failure is a typed :class:`~repro.exceptions.ReproError` subclass
   (never a bare ``Exception`` or stdlib ``CancelledError``);
5. the stats ledger conserves: submitted = completed + failed + cancelled
   + deadline_exceeded + rejected;
6. each *first-attempt* completed plan-exact job's I/O attribution is
   byte-identical to its isolated baseline run (retried jobs are excluded
   — resume legitimately re-executes fewer instances).

Every event is appended to a JSONL trace (``chaos_<seed>.jsonl``) so a
failing nightly seed ships a replayable timeline as its artifact.
"""

from __future__ import annotations

import json
import random
import threading
import time
from pathlib import Path

import numpy as np

from ..exceptions import (DeadlineExceeded, JobCancelled, ReproError,
                          ServiceError)
from ..optimizer import optimize
from ..ops.programs import add_multiply_program
from ..storage import make_disk
from ..storage.faults import FaultInjector, FaultPolicy
from .jobs import JobSpec
from .resilience import DegradePolicy, JobRetryPolicy
from .service import ArrayService

__all__ = ["ChaosReport", "run_chaos"]

_PARAMS = {"n1": 2, "n2": 2, "n3": 1}
_INPUT_SEEDS = (0, 1, 2)


class ChaosReport:
    """Outcome of one seeded chaos run: tallies, violations, trace path."""

    __slots__ = ("seed", "submitted", "completed", "failed", "cancelled",
                 "deadline_exceeded", "rejected", "shed", "retried",
                 "resumed", "violations", "seconds", "trace_path", "records")

    def __init__(self, seed: int):
        self.seed = seed
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.cancelled = 0
        self.deadline_exceeded = 0
        self.rejected = 0
        self.shed = 0
        self.retried = 0
        self.resumed = 0
        self.violations: list[str] = []
        self.seconds = 0.0
        self.trace_path: str | None = None
        self.records: list[dict] = []

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__
                if k != "records"}

    def __repr__(self) -> str:
        verdict = "OK" if self.ok else f"{len(self.violations)} VIOLATIONS"
        return (f"ChaosReport(seed={self.seed}, {verdict}, "
                f"submitted={self.submitted}, completed={self.completed}, "
                f"failed={self.failed}, cancelled={self.cancelled}, "
                f"deadline={self.deadline_exceeded}, "
                f"rejected={self.rejected}, retried={self.retried}, "
                f"{self.seconds:.2f}s)")


def _baseline(prog, plan, workdir: Path, cap: int,
              inputs: dict[int, dict]) -> dict[int, tuple]:
    """Isolated-run baselines per input seed: (io attribution, outputs).

    Chaos jobs submitted plan-exact *with the same pinned plan* must match
    the I/O ledger byte-for-byte: the executor charges every plan READ to
    disk in that mode, so concurrent pool sharing and healed faults cannot
    perturb per-job attribution.  Pinning the plan matters — unpinned jobs
    may legitimately be re-planned under degradation and do more I/O.
    """
    out: dict[int, tuple] = {}
    for seed in _INPUT_SEEDS:
        with ArrayService(workdir / f"baseline_{seed}", memory_cap_bytes=cap,
                          workers=1) as svc:
            res = svc.submit(prog, _PARAMS, inputs[seed], plan=plan,
                             plan_exact=True).result(timeout=120)
        io = res.report.io
        out[seed] = ((io.read_bytes, io.write_bytes, io.read_ops,
                      io.write_ops), res.outputs)
    return out


def run_chaos(workdir, seed: int, jobs: int = 18, workers: int = 4,
              memory_cap_bytes: int = 16 << 20,
              drain_timeout: float = 120.0,
              trace: bool = True) -> ChaosReport:
    """Run one seeded chaos storm; returns the audited :class:`ChaosReport`.

    Determinism: all scenario choices (job mix, cancel delays, timeouts,
    overload burst) derive from ``random.Random(seed)``; the fault injector
    is seeded with the same value.  Wall-clock still varies, so *which*
    cancels land before completion is seed-and-machine dependent — the
    invariants hold regardless, which is the point.
    """
    workdir = Path(workdir)
    rng = random.Random(seed)
    prog = add_multiply_program()
    report = ChaosReport(seed)
    events: list[dict] = []
    t_start = time.monotonic()

    def emit(event: str, **fields) -> None:
        events.append({"t": round(time.monotonic() - t_start, 6),
                       "event": event, **fields})

    plan = optimize(prog, _PARAMS).best(memory_cap_bytes)
    inputs = {s: JobSpec("add_multiply", _PARAMS, seed=s).inputs(prog)
              for s in _INPUT_SEEDS}
    baselines = _baseline(prog, plan, workdir, memory_cap_bytes, inputs)
    emit("baselines", seeds=list(baselines), plan=plan.index)

    # Transient write faults against the retry probes' private files, deep
    # enough to exhaust the disk's internal retry budget (max_retries=4 →
    # 5 attempts) at least once, shallow enough that the resumed attempt
    # completes.  A low background transient read rate stresses the disk's
    # own healing on everyone else without failing jobs.
    policies = [
        FaultPolicy(match="probe-*__*", op="write", transient=1.0,
                    after=1, max_faults=6),
        FaultPolicy(match="*.daf", op="read", transient=0.02),
    ]
    injector = FaultInjector(seed=seed, policies=policies)
    retry = JobRetryPolicy(max_attempts=3, backoff_base=0.001)
    degrade = DegradePolicy(shed_backlog=jobs * 3)

    svc = ArrayService(make_disk(workdir / "chaos", fault_injector=injector),
                       memory_cap_bytes=memory_cap_bytes, workers=workers,
                       degrade=degrade)
    handles: list[tuple[str, str, int, object]] = []  # (kind, name, seed, h)
    cancellers: list[threading.Timer] = []
    try:
        for i in range(jobs):
            in_seed = rng.choice(_INPUT_SEEDS)
            roll = rng.random()
            if roll < 0.15:
                kind, name = "probe", f"probe-{seed}-{i}"
                h = svc.submit(prog, _PARAMS, inputs[in_seed],
                               name=name, retry=retry, plan=plan,
                               plan_exact=True)
            elif roll < 0.35:
                kind, name = "deadline", f"storm-{seed}-{i}"
                h = svc.submit(prog, _PARAMS, inputs[in_seed],
                               name=name, plan=plan, plan_exact=True,
                               timeout=rng.uniform(1e-6, 1e-3))
            elif roll < 0.55:
                kind, name = "cancel", f"victim-{seed}-{i}"
                h = svc.submit(prog, _PARAMS, inputs[in_seed],
                               name=name, plan=plan, plan_exact=True)
                timer = threading.Timer(rng.uniform(0.0, 0.05), h.cancel,
                                        kwargs={"reason": "chaos cancel"})
                timer.start()
                cancellers.append(timer)
            elif roll < 0.70:
                # No pinned plan: under queue pressure these exercise the
                # degraded (plan-cache-only) planner, so they are audited
                # on outputs, not on the byte-identical I/O ledger.
                kind, name = "unpinned", f"free-{seed}-{i}"
                h = svc.submit(prog, _PARAMS, inputs[in_seed],
                               name=name)
            else:
                kind, name = "clean", f"clean-{seed}-{i}"
                h = svc.submit(prog, _PARAMS, inputs[in_seed],
                               name=name, plan=plan, plan_exact=True)
            emit("submit", kind=kind, job=name, input_seed=in_seed)
            handles.append((kind, name, in_seed, h))
            if rng.random() < 0.3:
                time.sleep(rng.uniform(0.0, 0.01))

        # Drain: every future must resolve; a hang is itself a violation.
        deadline = time.monotonic() + drain_timeout
        for kind, name, in_seed, h in handles:
            rec: dict = {"job": name, "kind": kind, "input_seed": in_seed}
            budget = max(0.0, deadline - time.monotonic())
            try:
                res = h.result(timeout=budget)
            except DeadlineExceeded as err:
                report.deadline_exceeded += 1
                rec.update(outcome="deadline", error=str(err))
            except JobCancelled as err:
                report.cancelled += 1
                rec.update(outcome="cancelled", error=str(err))
            except TimeoutError:
                report.violations.append(
                    f"hung future: {name} unresolved after "
                    f"{drain_timeout:.0f}s")
                rec.update(outcome="hung")
            except ReproError as err:
                report.failed += 1
                rec.update(outcome="failed", error=type(err).__name__)
            except BaseException as err:  # invariant 4: typed or bust
                report.failed += 1
                report.violations.append(
                    f"untyped failure from {name}: {type(err).__name__}: "
                    f"{err}")
                rec.update(outcome="untyped", error=type(err).__name__)
            else:
                report.completed += 1
                io = res.report.io
                rec.update(outcome="completed", attempts=res.attempts,
                           resumed_from=res.report.resumed_from,
                           io=(io.read_bytes, io.write_bytes, io.read_ops,
                               io.write_ops))
                if res.attempts > 1:
                    report.retried += 1
                if res.report.resumed_from:
                    report.resumed += 1
                base_io, base_out = baselines[in_seed]
                if (kind != "unpinned" and res.attempts == 1
                        and rec["io"] != base_io):
                    report.violations.append(
                        f"I/O attribution drift: {name} {rec['io']} != "
                        f"isolated {base_io}")
                for oname, expected in base_out.items():
                    got = res.outputs.get(oname)
                    same = (np.array_equal(got, expected)
                            if kind != "unpinned"
                            else got is not None
                            and np.allclose(got, expected))
                    if not same:
                        report.violations.append(
                            f"output drift: {name}.{oname} diverged "
                            f"from isolated run")
            emit("result", **rec)
            report.records.append(rec)
        report.submitted = len(handles)

        # Overload burst against a tiny shed watermark: with admission
        # saturated, submissions past the backlog must be rejected *as
        # submit-time exceptions*, never queued forever.
        svc.health.policy = DegradePolicy(shed_backlog=0)
        try:
            svc.submit(prog, _PARAMS, inputs[0],
                       name=f"burst-{seed}")
        except ServiceError:
            report.shed += 1
            emit("shed", job=f"burst-{seed}")
        else:
            report.violations.append(
                "overload burst admitted past a zero shed watermark")
        finally:
            svc.health.policy = degrade
    finally:
        for timer in cancellers:
            timer.cancel()
        svc.close()

    # -- post-mortem invariants ------------------------------------------
    if svc.admitted_bytes() != 0:
        report.violations.append(
            f"admission ledger leaked: {svc.admitted_bytes()} bytes "
            f"still admitted after drain")
    if svc.queue_depth() != 0:
        report.violations.append(
            f"admission queue leaked: {svc.queue_depth()} tickets remain")
    pins = svc.pool.total_pins()
    if pins != 0:
        report.violations.append(f"pool leaked {pins} pins after drain")
    staged = svc.pool.staged_marks()
    if staged != 0:
        report.violations.append(
            f"pool leaked {staged} staged marks after drain")
    used, resident = svc.pool.used_bytes, svc.pool.resident_bytes()
    if used != resident:
        report.violations.append(
            f"pool byte ledger leaked: used_bytes={used} but {resident} "
            f"bytes are resident after drain")
    s = svc.stats
    accounted = (s.jobs_completed + s.jobs_failed + s.jobs_rejected
                 + s.jobs_cancelled + s.jobs_deadline_exceeded)
    if s.jobs_submitted != accounted:
        report.violations.append(
            f"stats ledger does not conserve: submitted="
            f"{s.jobs_submitted} != accounted={accounted}")

    report.seconds = time.monotonic() - t_start
    emit("verdict", ok=report.ok, violations=report.violations,
         stats={k: getattr(s, k) for k in
                ("jobs_submitted", "jobs_completed", "jobs_failed",
                 "jobs_cancelled", "jobs_deadline_exceeded",
                 "jobs_rejected", "jobs_shed", "retries_attempted",
                 "retries_exhausted", "degraded_plans",
                 "prefetch_throttled", "pins_reclaimed")})
    if trace:
        path = workdir / f"chaos_{seed}.jsonl"
        with path.open("w", encoding="utf-8") as fh:
            for ev in events:
                fh.write(json.dumps(ev) + "\n")
        report.trace_path = str(path)
    return report
