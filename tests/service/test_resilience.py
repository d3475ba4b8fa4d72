"""Resilience tests: deadlines, cancellation, retry-with-resume, overload
degradation and circuit breaking for :class:`repro.service.ArrayService`.

The contract under test:

* deadlines and caller cancellation resolve futures with *typed* errors
  (never stdlib ``CancelledError``) and release every admitted byte;
* a job queued in admission wakes promptly on cancel — it does not sit
  out its full admission timeout;
* transient failures (fault-injector storms beyond the disk's own retry
  budget) are retried through the checkpoint journal so only unfinished
  instances re-execute; permanent errors are never retried;
* under overload the service degrades by policy: shed new submissions,
  throttle prefetch, plan-cache-only planning, per-store breakers.
"""

import time

import numpy as np
import pytest

from repro import add_multiply_program, optimize, reference_outputs
from repro.exceptions import (CircuitOpen, CorruptBlockError,
                              DeadlineExceeded, JobCancelled,
                              OptimizationError, ProgramError, ServiceClosed,
                              ServiceError, ServiceOverloaded, StorageError,
                              TransientIOError)
from repro.service import ArrayService
from repro.service.resilience import (PERMANENT, TRANSIENT, CircuitBreaker,
                                      DegradePolicy, JobRetryPolicy,
                                      classify_error)
from repro.storage import FaultInjector, make_disk
from repro.storage.faults import FaultPolicy

P = {"n1": 2, "n2": 2, "n3": 1}
CAP = 4 << 20


@pytest.fixture(scope="module")
def prog():
    return add_multiply_program()


@pytest.fixture(scope="module")
def best_plan(prog):
    return optimize(prog, P).best(CAP)


def _inputs(prog, seed):
    rng = np.random.default_rng(seed)
    return {n: rng.standard_normal(prog.arrays[n].shape_elems(P))
            for n in ("A", "B", "D")}


class TestDeadlines:
    def test_expired_deadline_is_typed_and_counted(self, prog, tmp_path):
        with ArrayService(tmp_path, memory_cap_bytes=CAP) as svc:
            h = svc.submit(prog, P, _inputs(prog, 0), timeout=1e-6)
            with pytest.raises(DeadlineExceeded):
                h.result(timeout=60)
            assert svc.stats.jobs_deadline_exceeded == 1
            assert svc.stats.jobs_cancelled == 0
            assert svc.admitted_bytes() == 0

    def test_service_default_timeout_applies(self, prog, tmp_path):
        with ArrayService(tmp_path, memory_cap_bytes=CAP) as svc:
            h = svc.submit(prog, P, _inputs(prog, 0), timeout=1e-6)
            with pytest.raises(DeadlineExceeded):
                h.result(timeout=60)

    def test_generous_deadline_completes(self, prog, tmp_path):
        with ArrayService(tmp_path, memory_cap_bytes=CAP) as svc:
            r = svc.submit(prog, P, _inputs(prog, 0),
                           timeout=120.0).result(timeout=120)
            assert r.attempts == 1

    def test_deadline_storm_releases_all_budget(self, prog, best_plan,
                                                tmp_path):
        with ArrayService(tmp_path, memory_cap_bytes=CAP,
                          workers=2) as svc:
            handles = [svc.submit(prog, P, _inputs(prog, i % 2),
                                  plan=best_plan, timeout=1e-6)
                       for i in range(8)]
            outcomes = []
            for h in handles:
                try:
                    h.result(timeout=60)
                    outcomes.append("done")
                except DeadlineExceeded:
                    outcomes.append("deadline")
            assert "deadline" in outcomes
            assert svc.admitted_bytes() == 0
            assert svc.queue_depth() == 0
            assert svc.pool.total_pins() == 0
            assert svc.pool.staged_marks() == 0


class TestCancellation:
    def test_cancel_resolves_with_typed_error(self, prog, tmp_path):
        with ArrayService(tmp_path, memory_cap_bytes=CAP) as svc:
            h = svc.submit(prog, P, _inputs(prog, 0))
            assert h.cancel("caller changed its mind") is True
            try:
                h.result(timeout=60)
            except JobCancelled as err:
                assert "changed its mind" in str(err)
                assert not isinstance(err, DeadlineExceeded)
                assert svc.stats.jobs_cancelled == 1
            else:  # raced to completion before the checkpoint — also legal
                assert svc.stats.jobs_completed == 1
            assert svc.admitted_bytes() == 0

    def test_cancel_after_done_returns_false(self, prog, tmp_path):
        with ArrayService(tmp_path, memory_cap_bytes=CAP) as svc:
            h = svc.submit(prog, P, _inputs(prog, 0))
            h.result(timeout=120)
            assert h.cancel() is False

    def test_cancel_wakes_admission_waiter_promptly(self, prog, best_plan,
                                                    tmp_path):
        need = best_plan.cost.memory_bytes
        with ArrayService(tmp_path, memory_cap_bytes=need + 1000,
                          workers=1) as svc:
            svc._admit(need, None)  # occupy: the job below must queue
            try:
                h = svc.submit(prog, P, _inputs(prog, 0), plan=best_plan,
                               admission_timeout=60.0)
                deadline = time.monotonic() + 10
                while svc.queue_depth() == 0:
                    assert time.monotonic() < deadline, "job never queued"
                    time.sleep(0.005)
                t0 = time.monotonic()
                h.cancel("stop waiting")
                with pytest.raises(JobCancelled):
                    h.result(timeout=60)
                # Far below the 60 s admission timeout: the cancel
                # subscription notifies the condition, not a poll.
                assert time.monotonic() - t0 < 5.0
                assert svc.queue_depth() == 0
            finally:
                svc._release_admission(need)


class TestRetryWithResume:
    def _probe_injector(self, seed=7):
        # Transient write faults deep enough to exhaust the disk's retry
        # budget (max_retries=4 -> 5 attempts) once, then clear.
        return FaultInjector(seed=seed, policies=[
            FaultPolicy(match="probe__*", op="write", transient=1.0,
                        after=1, max_faults=6)])

    def test_transient_failure_retried_via_resume(self, prog, tmp_path):
        with ArrayService(make_disk(tmp_path,
                                    fault_injector=self._probe_injector()),
                          memory_cap_bytes=CAP, workers=1) as svc:
            r = svc.submit(prog, P, _inputs(prog, 0), name="probe",
                           retry=JobRetryPolicy(max_attempts=3,
                                                backoff_base=0.001)
                           ).result(timeout=120)
            assert r.attempts == 2
            # The journal fixpoint: attempt 2 skipped everything attempt 1
            # already committed and re-executed only the rest.
            assert r.report.resumed_from > 0
            assert svc.stats.retries_attempted == 1
            assert svc.stats.retries_exhausted == 0
            expected = reference_outputs(prog, P, _inputs(prog, 0))
            for name in r.outputs:
                assert np.allclose(r.outputs[name], expected[name])

    def test_int_retry_shorthand(self, prog, tmp_path):
        with ArrayService(make_disk(tmp_path,
                                    fault_injector=self._probe_injector()),
                          memory_cap_bytes=CAP, workers=1) as svc:
            r = svc.submit(prog, P, _inputs(prog, 0), name="probe",
                           retry=3).result(timeout=120)
            assert r.attempts == 2

    def test_exhausted_retries_surface_the_error(self, prog, tmp_path):
        injector = FaultInjector(seed=7, policies=[
            FaultPolicy(match="probe__*", op="write", transient=1.0)])
        with ArrayService(make_disk(tmp_path, fault_injector=injector),
                          memory_cap_bytes=CAP, workers=1) as svc:
            with pytest.raises(StorageError):
                svc.submit(prog, P, _inputs(prog, 0), name="probe",
                           retry=JobRetryPolicy(max_attempts=2,
                                                backoff_base=0.001)
                           ).result(timeout=120)
            assert svc.stats.retries_attempted == 1
            assert svc.stats.retries_exhausted == 1
            assert svc.stats.jobs_failed == 1

    def test_permanent_error_not_retried(self, prog, tmp_path):
        with ArrayService(tmp_path, memory_cap_bytes=CAP, workers=1) as svc:
            with pytest.raises(ServiceError):
                # Missing inputs is permanent: retrying cannot help.
                svc.submit(prog, P, {}, retry=3).result(timeout=120)
            assert svc.stats.retries_attempted == 0

    def test_service_default_retry_applies(self, prog, tmp_path):
        with ArrayService(make_disk(tmp_path,
                                    fault_injector=self._probe_injector()),
                          memory_cap_bytes=CAP, workers=1) as svc:
            r = svc.submit(prog, P, _inputs(prog, 0), name="probe",
                           retry=3).result(timeout=120)
            assert r.attempts == 2


class TestClassification:
    def test_transient_errors(self):
        assert classify_error(TransientIOError("flaky")) == TRANSIENT
        assert classify_error(CorruptBlockError("bits flipped")) == TRANSIENT
        exhausted = StorageError("write failed after 5 attempts")
        exhausted.__cause__ = TransientIOError("still flaky")
        assert classify_error(exhausted) == TRANSIENT

    def test_permanent_errors(self):
        assert classify_error(CircuitOpen("store is down")) == PERMANENT
        assert classify_error(OptimizationError("no plan")) == PERMANENT
        assert classify_error(ProgramError("bad IR")) == PERMANENT
        assert classify_error(StorageError("disk is gone")) == PERMANENT
        assert classify_error(ValueError("not even ours")) == PERMANENT

    def test_backoff_schedule(self):
        p = JobRetryPolicy(max_attempts=4, backoff_base=0.01,
                           backoff_cap=0.03)
        assert p.delay(1) == pytest.approx(0.01)
        assert p.delay(2) == pytest.approx(0.02)
        assert p.delay(3) == pytest.approx(0.03)  # capped
        assert p.delay(4) == pytest.approx(0.03)


class TestDegradation:
    def test_shed_before_cancel_running(self, prog, tmp_path):
        policy = DegradePolicy(shed_backlog=0)
        with ArrayService(tmp_path, memory_cap_bytes=CAP,
                          degrade=policy) as svc:
            with pytest.raises(ServiceOverloaded):
                svc.submit(prog, P, _inputs(prog, 0))
            assert svc.stats.jobs_shed == 1
            # Shed happens before submission is recorded: the conservation
            # ledger (submitted = sum of outcomes) excludes shed jobs.
            assert svc.stats.jobs_submitted == 0

    def test_plan_cache_only_skips_cold_search(self, prog, tmp_path):
        policy = DegradePolicy(planner_queue_depth=0, shed_backlog=None)
        with ArrayService(tmp_path, memory_cap_bytes=CAP,
                          degrade=policy) as svc:
            r = svc.submit(prog, P, _inputs(prog, 0)).result(timeout=120)
            assert svc.stats.degraded_plans == 1
            # The fallback is the original (share-nothing) plan — correct,
            # just not optimized.
            expected = reference_outputs(prog, P, _inputs(prog, 0))
            for name in r.outputs:
                assert np.allclose(r.outputs[name], expected[name])

    def test_prefetch_throttled_under_memory_pressure(self, prog, best_plan,
                                                      tmp_path):
        policy = DegradePolicy(memory_pressure=0.85, shed_backlog=None,
                               planner_queue_depth=10_000)
        need = best_plan.cost.memory_bytes
        with ArrayService(tmp_path, memory_cap_bytes=2 * need,
                          degrade=policy, prefetch_depth=4) as svc:
            assert svc.health.effective_prefetch_depth(4) == 4
            svc._admit(need, None)  # ~50% pressure -> partial throttle
            try:
                mid = svc.health.effective_prefetch_depth(4)
                assert 0 < mid < 4
                svc._admit(need - 1000, None)  # ~100% -> fully off
                try:
                    assert svc.health.effective_prefetch_depth(4) == 0
                finally:
                    svc._release_admission(need - 1000)
            finally:
                svc._release_admission(need)

    def test_degrade_true_enables_default_policy(self, prog, tmp_path):
        with ArrayService(tmp_path, memory_cap_bytes=CAP,
                          degrade=True) as svc:
            assert svc.health.policy is not None
            r = svc.submit(prog, P, _inputs(prog, 0)).result(timeout=120)
            assert r.attempts == 1

    def test_no_policy_means_no_degradation(self, prog, tmp_path):
        with ArrayService(tmp_path, memory_cap_bytes=CAP) as svc:
            assert svc.health.policy is None
            assert svc.health.should_shed() is False
            assert svc.health.plan_cache_only() is False
            assert svc.health.effective_prefetch_depth(4) == 4
            assert svc.health.breaker_for("anything") is None


class TestCircuitBreaker:
    def _clock(self):
        state = {"t": 0.0}

        def now():
            return state["t"]

        return state, now

    def test_trips_after_threshold_and_recovers(self):
        state, now = self._clock()
        br = CircuitBreaker("X.daf", threshold=3, cooldown=10.0, clock=now)
        assert br.state == "closed"
        for _ in range(3):
            br.allow()
            br.record_failure()
        assert br.state == "open"
        assert br.trips == 1
        with pytest.raises(CircuitOpen):
            br.allow()
        assert br.fastfails == 1
        state["t"] = 11.0  # cooldown elapses -> single half-open probe
        br.allow()
        assert br.state == "half_open"
        with pytest.raises(CircuitOpen):
            br.allow()  # second caller during the probe still fails fast
        br.record_success()
        assert br.state == "closed"
        br.allow()

    def test_half_open_failure_reopens(self):
        state, now = self._clock()
        br = CircuitBreaker("X.daf", threshold=1, cooldown=5.0, clock=now)
        br.allow()
        br.record_failure()
        assert br.state == "open"
        state["t"] = 6.0
        br.allow()
        br.record_failure()
        assert br.state == "open"
        assert br.trips == 2

    def test_success_resets_consecutive_count(self):
        _, now = self._clock()
        br = CircuitBreaker("X.daf", threshold=2, cooldown=5.0, clock=now)
        for _ in range(5):  # fail, succeed, fail, succeed ... never trips
            br.allow()
            br.record_failure()
            br.allow()
            br.record_success()
        assert br.state == "closed"
        assert br.trips == 0

    def test_service_wires_breakers_per_store(self, prog, tmp_path):
        policy = DegradePolicy(shed_backlog=None,
                               planner_queue_depth=10_000,
                               breaker_threshold=2, breaker_cooldown=30.0)
        with ArrayService(tmp_path, memory_cap_bytes=CAP,
                          degrade=policy) as svc:
            br = svc.health.breaker_for("probe__C")
            assert br is svc.health.breaker_for("probe__C")  # cached
            br.record_failure()
            br.record_failure()
            assert br.state == "open"
            assert svc.stats.breaker_trips == 1
            with pytest.raises(CircuitOpen):
                br.allow()
            assert svc.stats.breaker_fastfails == 1
            # CircuitOpen is permanent by classification: a retrying job
            # would stop burning attempts against a dead store.
            assert classify_error(CircuitOpen("down")) == PERMANENT


class TestShutdownResilience:
    def test_close_cancels_running_jobs(self, prog, best_plan, tmp_path):
        svc = ArrayService(tmp_path, memory_cap_bytes=CAP, workers=2)
        handles = [svc.submit(prog, P, _inputs(prog, i % 2), plan=best_plan)
                   for i in range(4)]
        svc.close(cancel_running=True)
        for h in handles:
            try:
                h.result(timeout=60)
            except (JobCancelled, ServiceClosed):
                pass  # typed — never a stdlib CancelledError
        assert svc.admitted_bytes() == 0
