"""Integration tests for :class:`repro.service.ArrayService`.

The acceptance bars from the service's design:

* K concurrent jobs produce outputs byte-identical to serial isolated runs
  (checked at more than one worker count);
* two concurrent jobs sharing a base array issue fewer disk reads than two
  isolated runs (inter-query I/O sharing through the shared pool);
* a repeat submission hits the plan cache and evaluates zero Apriori
  candidates;
* an over-budget job queues (FIFO) rather than runs; a job that can never
  fit is rejected with a typed error, not a hang;
* fault injection and checkpoint/resume compose with the service (one
  journal per job).
"""

import os
import tempfile

import numpy as np
import pytest

from repro import add_multiply_program, optimize, reference_outputs, run_program
from repro.exceptions import (AdmissionRejected, AdmissionTimeout,
                              ServiceClosed, ServiceError, ServiceQueueFull,
                              StorageError)
from repro.obs import trace as obs_trace
from repro.service import ArrayService
from repro.storage import (DAFMatrix, DatasetCatalog, FaultInjector,
                           FaultPolicy, RetryPolicy, make_disk)
from repro.storage import disk as storage_disk

P = {"n1": 2, "n2": 2, "n3": 1}
CAP = 4 << 20  # generous per-job cap: every plan fits
SEEDS = (0, 0, 1, 2)  # two identical jobs + two distinct ones


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


@pytest.fixture(scope="module")
def isolated(prog, best_plan):
    """Serial isolated baseline per distinct seed: outputs + I/O bytes."""
    out = {}
    for seed in sorted(set(SEEDS)):
        with tempfile.TemporaryDirectory() as d:
            report, outputs = run_program(prog, P, best_plan, d,
                                          _inputs(prog, seed),
                                          memory_cap_bytes=CAP,
                                          plan_exact=False)
        out[seed] = (report, outputs)
    return out


class TestByteIdentical:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_concurrent_jobs_match_serial_isolated_runs(
            self, prog, best_plan, isolated, workers, tmp_path):
        with ArrayService(tmp_path, memory_cap_bytes=4 * CAP,
                          workers=workers) as svc:
            futures = [svc.submit(prog, P, _inputs(prog, seed),
                                  plan=best_plan) for seed in SEEDS]
            results = [f.result(timeout=120) for f in futures]
        for seed, r in zip(SEEDS, results):
            _, expected = isolated[seed]
            assert set(r.outputs) == set(expected)
            for name in expected:
                assert np.array_equal(r.outputs[name], expected[name]), \
                    f"{r.job}: output {name} diverged from isolated run"

    def test_outputs_numerically_correct(self, prog, best_plan, tmp_path):
        inputs = _inputs(prog, 3)
        expected = reference_outputs(prog, P, inputs)
        with ArrayService(tmp_path, memory_cap_bytes=2 * CAP) as svc:
            r = svc.run(prog, P, inputs, plan=best_plan)
        for name in r.outputs:
            assert np.allclose(r.outputs[name], expected[name])


class TestSharing:
    def test_two_jobs_share_base_array_reads(self, prog, best_plan,
                                             isolated, tmp_path):
        iso_reads = isolated[0][0].io.read_bytes
        with ArrayService(tmp_path, memory_cap_bytes=4 * CAP,
                          workers=2) as svc:
            futures = [svc.submit(prog, P, _inputs(prog, 0), plan=best_plan)
                       for _ in range(2)]
            r1, r2 = (f.result(timeout=120) for f in futures)
        total = r1.report.io.read_bytes + r2.report.io.read_bytes
        assert total < 2 * iso_reads, \
            f"no sharing: {total} reads vs 2x{iso_reads} isolated"
        # Whatever one job skipped reading, it found in the shared pool.
        assert r1.report.pool_hits + r2.report.pool_hits > 0

    def test_distinct_inputs_do_not_alias(self, prog, best_plan, isolated,
                                          tmp_path):
        with ArrayService(tmp_path, memory_cap_bytes=4 * CAP,
                          workers=2) as svc:
            f1 = svc.submit(prog, P, _inputs(prog, 1), plan=best_plan)
            f2 = svc.submit(prog, P, _inputs(prog, 2), plan=best_plan)
            r1, r2 = f1.result(timeout=120), f2.result(timeout=120)
        assert np.array_equal(r1.outputs["E"], isolated[1][1]["E"])
        assert np.array_equal(r2.outputs["E"], isolated[2][1]["E"])


class TestPlanCache:
    def test_repeat_submission_hits_cache(self, prog, tmp_path):
        cache_dir = tmp_path / "plans"
        with ArrayService(tmp_path / "svc", memory_cap_bytes=2 * CAP,
                          workers=1, plan_cache=cache_dir) as svc:
            r1 = svc.run(prog, P, _inputs(prog, 0))
            r2 = svc.run(prog, P, _inputs(prog, 0))
        assert not r1.cache_hit
        assert r2.cache_hit
        assert svc.plan_cache.hits == 1
        assert svc.plan_cache.misses == 1
        assert np.allclose(r1.outputs["E"], r2.outputs["E"])

    def test_cache_hit_evaluates_zero_apriori_candidates(self, prog,
                                                         tmp_path):
        from repro.obs import metrics as obs_metrics

        registry = obs_metrics.MetricsRegistry()
        with obs_metrics.use(registry):
            with ArrayService(tmp_path / "svc", memory_cap_bytes=2 * CAP,
                              workers=1,
                              plan_cache=tmp_path / "plans") as svc:
                svc.run(prog, P, _inputs(prog, 0))
                r2 = svc.run(prog, P, _inputs(prog, 0))
        assert r2.cache_hit
        key = f'repro_apriori_candidates_tested{{program="{prog.name}"}}'
        # The hit freshly binds its (empty) search stats over the series:
        # the search ran zero candidates the second time.
        assert registry.snapshot()[key] == 0

    def test_cache_survives_service_restart(self, prog, tmp_path):
        cache_dir = tmp_path / "plans"
        with ArrayService(tmp_path / "a", memory_cap_bytes=2 * CAP,
                          plan_cache=cache_dir) as svc:
            assert not svc.run(prog, P, _inputs(prog, 0)).cache_hit
        with ArrayService(tmp_path / "b", memory_cap_bytes=2 * CAP,
                          plan_cache=cache_dir) as svc:
            assert svc.run(prog, P, _inputs(prog, 0)).cache_hit


class TestAdmission:
    def test_never_fitting_job_rejected_not_hung(self, prog, tmp_path):
        # Plans fit their own generous cap but exceed the service budget.
        with ArrayService(tmp_path, memory_cap_bytes=50_000,
                          workers=1) as svc:
            fut = svc.submit(prog, P, _inputs(prog, 0),
                             memory_cap_bytes=64 << 20)
            with pytest.raises(AdmissionRejected):
                fut.result(timeout=120)
            assert svc.stats.jobs_rejected == 1

    def test_no_plan_under_cap_is_a_typed_rejection(self, prog, tmp_path):
        with ArrayService(tmp_path, memory_cap_bytes=1000, workers=1) as svc:
            with pytest.raises(AdmissionRejected):
                svc.run(prog, P, _inputs(prog, 0))

    def test_over_budget_job_queues_until_budget_frees(self, prog, best_plan,
                                                       tmp_path):
        need = best_plan.cost.memory_bytes
        with ArrayService(tmp_path, memory_cap_bytes=need + 1000,
                          workers=2) as svc:
            svc._admit(need, None)  # occupy: only ~1000 bytes remain
            fut = svc.submit(prog, P, _inputs(prog, 0), plan=best_plan)
            assert fut.done() is False or fut.exception() is None
            assert svc.queue_depth() <= 1
            svc._release_admission(need)  # budget frees -> job proceeds
            r = fut.result(timeout=120)
            assert r.admission_wait_seconds >= 0
            assert svc.stats.jobs_completed == 1

    def test_admission_timeout_is_typed(self, prog, best_plan, tmp_path):
        need = best_plan.cost.memory_bytes
        with ArrayService(tmp_path, memory_cap_bytes=need + 1000,
                          workers=1) as svc:
            svc._admit(need, None)
            fut = svc.submit(prog, P, _inputs(prog, 0), plan=best_plan,
                             admission_timeout=0.05)
            with pytest.raises(AdmissionTimeout):
                fut.result(timeout=120)
            svc._release_admission(need)
            assert svc.stats.jobs_rejected == 1
            assert svc.queue_depth() == 0

    def test_bounded_backlog_rejects_submit(self, prog, best_plan, tmp_path):
        need = best_plan.cost.memory_bytes
        with ArrayService(tmp_path, memory_cap_bytes=need + 1000,
                          workers=1, max_pending=1) as svc:
            svc._admit(need, None)  # park the first job in admission
            fut = svc.submit(prog, P, _inputs(prog, 0), plan=best_plan)
            with pytest.raises(ServiceQueueFull):
                svc.submit(prog, P, _inputs(prog, 0), plan=best_plan)
            svc._release_admission(need)
            fut.result(timeout=120)

    def test_admitted_bytes_return_to_zero(self, prog, best_plan, tmp_path):
        with ArrayService(tmp_path, memory_cap_bytes=2 * CAP) as svc:
            svc.run(prog, P, _inputs(prog, 0), plan=best_plan)
            assert svc.admitted_bytes() == 0
            assert svc.stats.active_jobs == 0


class TestLifecycle:
    def test_submit_after_shutdown_raises(self, prog, tmp_path):
        svc = ArrayService(tmp_path, memory_cap_bytes=CAP)
        svc.shutdown()
        with pytest.raises(ServiceClosed):
            svc.submit(prog, P, _inputs(prog, 0))

    def test_shutdown_wakes_queued_jobs(self, prog, best_plan, tmp_path):
        import threading

        need = best_plan.cost.memory_bytes
        svc = ArrayService(tmp_path, memory_cap_bytes=need + 1000, workers=1)
        svc._admit(need, None)
        fut = svc.submit(prog, P, _inputs(prog, 0), plan=best_plan)
        t = threading.Thread(target=svc.shutdown)
        t.start()
        with pytest.raises(ServiceClosed):
            fut.result(timeout=120)
        t.join(timeout=120)
        assert not t.is_alive()

    def test_duplicate_inflight_name_rejected(self, prog, best_plan,
                                              tmp_path):
        need = best_plan.cost.memory_bytes
        with ArrayService(tmp_path, memory_cap_bytes=need + 1000,
                          workers=1) as svc:
            svc._admit(need, None)
            fut = svc.submit(prog, P, _inputs(prog, 0), plan=best_plan,
                             name="dup")
            with pytest.raises(ServiceError):
                svc.submit(prog, P, _inputs(prog, 0), plan=best_plan,
                           name="dup")
            svc._release_admission(need)
            fut.result(timeout=120)

    def test_failed_job_counted_and_pins_swept(self, prog, best_plan,
                                               tmp_path):
        with ArrayService(tmp_path, memory_cap_bytes=2 * CAP) as svc:
            with pytest.raises(ServiceError):
                svc.run(prog, P, {}, plan=best_plan)  # missing inputs
            assert svc.stats.jobs_failed == 1
            assert svc.admitted_bytes() == 0


class TestFaultToleranceComposition:
    def test_fault_injection_composes(self, prog, best_plan, tmp_path):
        from repro.storage import FaultInjector

        inputs = _inputs(prog, 0)
        expected = reference_outputs(prog, P, inputs)
        # rate=0.5: with only ~14 counted ops per job, the default 5% rate
        # can legitimately fire zero faults — force real retry traffic.
        disk = make_disk(tmp_path, fault_injector=FaultInjector.transient(
            seed=11, rate=0.5))
        with ArrayService(disk, memory_cap_bytes=2 * CAP, workers=2) as svc:
            futures = [svc.submit(prog, P, inputs, plan=best_plan)
                       for _ in range(2)]
            results = [f.result(timeout=120) for f in futures]
        for r in results:
            assert np.allclose(r.outputs["E"], expected["E"])
        assert svc.disk.stats.retries > 0  # faults actually fired

    def test_checkpoint_writes_one_journal_per_job(self, prog, best_plan,
                                                   tmp_path):
        with ArrayService(tmp_path, memory_cap_bytes=2 * CAP,
                          workers=2) as svc:
            futures = [svc.submit(prog, P, _inputs(prog, 0), plan=best_plan,
                                  name=f"ck{i}", checkpoint=True)
                       for i in range(2)]
            for f in futures:
                f.result(timeout=120)
        for i in range(2):
            assert (tmp_path / "jobs" / f"ck{i}"
                    / "execution.journal").exists()

    def test_resume_completed_job_skips_all_instances(self, prog, best_plan,
                                                      tmp_path):
        inputs = _inputs(prog, 0)
        with ArrayService(tmp_path, memory_cap_bytes=2 * CAP) as svc:
            first = svc.run(prog, P, inputs, plan=best_plan, name="r1",
                            checkpoint=True)
            again = svc.run(prog, P, inputs, plan=best_plan, name="r1",
                            resume=True)
        assert first.report.resumed_from == 0
        assert again.report.resumed_from > 0
        assert again.report.instances < first.report.instances
        assert np.array_equal(first.outputs["E"], again.outputs["E"])


class TestPrivateStoreLifetime:
    def test_successful_jobs_leave_no_private_stores(self, prog, best_plan,
                                                     tmp_path):
        """Only the dataset catalog outlives a job: one fd (its one
        file, holding all twelve datasets: A, B, D of four distinct
        seeds), no ``<job>__*`` file."""
        def fds():
            return len(os.listdir("/proc/self/fd"))

        with ArrayService(tmp_path, memory_cap_bytes=2 * CAP,
                          workers=2) as svc:
            before = fds()
            futures = [svc.submit(prog, P, _inputs(prog, i % 4),
                                  plan=best_plan, plan_exact=True)
                       for i in range(20)]
            for f in futures:
                f.result(timeout=120)
            assert fds() - before == 1
            left = [p.name for p in tmp_path.rglob("*") if "__" in p.name]
            assert left == []

    def test_teardown_removes_only_created_stores(self, prog, best_plan,
                                                  tmp_path):
        """The best plan elides C: the job never creates ``<job>__C.daf``,
        and its teardown unlinks only files that exist."""
        with ArrayService(tmp_path, memory_cap_bytes=2 * CAP) as svc:
            removed = []
            real_remove = svc.disk.remove

            def remove(name):
                removed.append((name, svc.disk.exists(name)))
                real_remove(name)

            svc.disk.remove = remove
            svc.run(prog, P, _inputs(prog, 3), plan=best_plan,
                    plan_exact=True, name="lazy")
        assert removed == [("lazy__E.daf", True)]

    def test_failed_checkpointed_job_with_elided_intermediate_resumes(
            self, prog, best_plan, tmp_path):
        inputs = _inputs(prog, 1)
        expected = reference_outputs(prog, P, inputs)
        # E's first block lands; the second exhausts the retry budget.
        injector = FaultInjector(seed=3, policies=[
            FaultPolicy(match="elide__E.daf", op="write", transient=1.0,
                        after=1, max_faults=5)])
        with ArrayService(make_disk(tmp_path, fault_injector=injector),
                          memory_cap_bytes=2 * CAP) as svc:
            with pytest.raises(StorageError):
                svc.run(prog, P, inputs, plan=best_plan, plan_exact=True,
                        name="elide", checkpoint=True)
            assert (tmp_path / "elide__E.daf").exists()
            assert not (tmp_path / "elide__C.daf").exists()
            again = svc.run(prog, P, inputs, plan=best_plan, plan_exact=True,
                            name="elide", resume=True)
        assert again.report.resumed_from > 0
        assert not (tmp_path / "elide__C.daf").exists()
        assert np.allclose(again.outputs["E"], expected["E"])

    def test_failed_checkpointed_job_keeps_stores_and_resumes(
            self, prog, best_plan, tmp_path):
        inputs = _inputs(prog, 0)
        with ArrayService(tmp_path / "clean", memory_cap_bytes=2 * CAP) as svc:
            clean = svc.run(prog, P, inputs, plan=best_plan, plan_exact=True)
        # Write faults deep enough to exhaust the disk's retry budget once
        # mid-plan, then clear.
        injector = FaultInjector(seed=7, policies=[
            FaultPolicy(match="probe__*", op="write", transient=1.0,
                        after=1, max_faults=6)])
        with ArrayService(make_disk(tmp_path / "faulty",
                                    fault_injector=injector),
                          memory_cap_bytes=2 * CAP) as svc:
            with pytest.raises(StorageError):
                svc.run(prog, P, inputs, plan=best_plan, plan_exact=True,
                        name="probe", checkpoint=True)
            assert list((tmp_path / "faulty").glob("probe__*"))
            again = svc.run(prog, P, inputs, plan=best_plan, plan_exact=True,
                            name="probe", resume=True)
        assert again.report.resumed_from > 0
        for name in clean.outputs:
            assert np.array_equal(again.outputs[name], clean.outputs[name])


@pytest.fixture
def ingest_dies_on_block_2(monkeypatch):
    """Until undone, the second block a dataset ingest writes raises."""
    real = DAFMatrix.write_block
    written = []

    def write_block(self, coords, block, count=True):
        if self.name.startswith("ds_") and not count:
            written.append(coords)
            if len(written) == 2:
                raise StorageError("injected: ingest dies on block 2")
        real(self, coords, block, count=count)

    monkeypatch.setattr(DAFMatrix, "write_block", write_block)
    return monkeypatch


class TestDatasetCatalog:
    def test_job_dying_mid_ingest_leaves_no_dataset_behind(
            self, prog, best_plan, tmp_path, ingest_dies_on_block_2):
        inputs = _inputs(prog, 11)
        expected = reference_outputs(prog, P, inputs)
        with ArrayService(tmp_path, memory_cap_bytes=2 * CAP) as svc:
            with pytest.raises(StorageError, match="ingest dies"):
                svc.run(prog, P, inputs, plan=best_plan, plan_exact=True)
            ingest_dies_on_block_2.undo()
            again = svc.run(prog, P, inputs, plan=best_plan,
                            plan_exact=True)
        assert np.allclose(again.outputs["E"], expected["E"])

    def test_restarted_service_reingests_an_unsealed_dataset(
            self, prog, best_plan, tmp_path, ingest_dies_on_block_2):
        inputs = _inputs(prog, 12)
        expected = reference_outputs(prog, P, inputs)
        with ArrayService(tmp_path, memory_cap_bytes=2 * CAP) as svc:
            with pytest.raises(StorageError, match="ingest dies"):
                svc.run(prog, P, inputs, plan=best_plan, plan_exact=True)
        ingest_dies_on_block_2.undo()
        with ArrayService(tmp_path, memory_cap_bytes=2 * CAP) as svc:
            again = svc.run(prog, P, inputs, plan=best_plan,
                            plan_exact=True)
        assert np.allclose(again.outputs["E"], expected["E"])

    def test_restarted_service_finds_sealed_datasets(self, prog, best_plan,
                                                     tmp_path, monkeypatch):
        inputs = _inputs(prog, 13)
        expected = reference_outputs(prog, P, inputs)
        with ArrayService(tmp_path, memory_cap_bytes=2 * CAP) as svc:
            svc.run(prog, P, inputs, plan=best_plan, plan_exact=True)
        catalog = tmp_path / DatasetCatalog.FILE
        size = catalog.stat().st_size
        ingested = []
        real = DAFMatrix.write_matrix

        def write_matrix(self, matrix, count=False):
            ingested.append(self.name)
            real(self, matrix, count=count)

        monkeypatch.setattr(DAFMatrix, "write_matrix", write_matrix)
        with ArrayService(tmp_path, memory_cap_bytes=2 * CAP) as svc:
            again = svc.run(prog, P, inputs, plan=best_plan,
                            plan_exact=True)
        assert ingested == []
        assert catalog.stat().st_size == size
        assert np.allclose(again.outputs["E"], expected["E"])

    @pytest.mark.parametrize("shards", [1, 4])
    def test_dataset_reads_fault_and_trace_under_their_own_name(
            self, prog, best_plan, tmp_path, shards):
        inputs = _inputs(prog, 14)
        expected = reference_outputs(prog, P, inputs)
        injector = FaultInjector(seed=5, policies=[
            FaultPolicy(match="ds_*.daf", op="read", corrupt=0.5,
                        max_faults=3)])
        tracer = obs_trace.Tracer()
        with obs_trace.use(tracer), \
                ArrayService(make_disk(tmp_path, shards,
                                       fault_injector=injector,
                                       retry=RetryPolicy(backoff_base=0)),
                             memory_cap_bytes=2 * CAP) as svc:
            r = svc.run(prog, P, inputs, plan=best_plan, plan_exact=True)
        assert np.allclose(r.outputs["E"], expected["E"])
        datasets = {ArrayService._dataset_name(inputs[n], prog.arrays[n])
                    + ".daf" for n in inputs}
        assert injector.trace
        assert {f.name for f in injector.trace} <= datasets
        read = {ev.args["file"] for ev in tracer.events
                if ev.name == "disk.read"}
        assert datasets <= read
        assert not any(f.startswith("datasets") for f in read)

    def test_pinned_job_creates_one_file(self, prog, best_plan, tmp_path,
                                         monkeypatch):
        with ArrayService(tmp_path, memory_cap_bytes=2 * CAP) as svc:
            svc.run(prog, P, _inputs(prog, 15), plan=best_plan,
                    plan_exact=True)
            created = []
            real = storage_disk.DiskFile.__init__

            def init(self, disk, path):
                created.append(path.name)
                real(self, disk, path)

            monkeypatch.setattr(storage_disk.DiskFile, "__init__", init)
            for seed in (16, 17):
                svc.run(prog, P, _inputs(prog, seed), plan=best_plan,
                        plan_exact=True, name=f"j{seed}")
        assert created == ["j16__E.daf", "j17__E.daf"]
        assert [p.name for p in tmp_path.iterdir()] == [DatasetCatalog.FILE]


class TestPrefetch:
    def test_prefetched_job_correct_and_staged(self, prog, best_plan,
                                               tmp_path):
        inputs = _inputs(prog, 5)
        expected = reference_outputs(prog, P, inputs)
        with ArrayService(tmp_path, memory_cap_bytes=2 * CAP) as svc:
            r = svc.run(prog, P, inputs, plan=best_plan, prefetch_depth=2)
        for name in r.outputs:
            assert np.allclose(r.outputs[name], expected[name])
        assert r.report.prefetch is not None
        assert r.report.prefetch.failed == 0
        assert (r.report.prefetch.staged_blocks
                + r.report.prefetch.taken_by_main) > 0

    def test_service_default_depth_applies_to_all_jobs(self, prog, best_plan,
                                                       tmp_path):
        inputs = _inputs(prog, 5)
        with ArrayService(tmp_path, memory_cap_bytes=2 * CAP,
                          prefetch_depth=2) as svc:
            r = svc.run(prog, P, inputs, plan=best_plan)
        assert r.report.prefetch is not None

    def test_prefetch_budget_charged_to_admission(self, prog, best_plan,
                                                  tmp_path):
        """The staging budget is real memory: a job that fits serially but
        not with its prefetch carve-out must be rejected, not admitted past
        the cap."""
        mem = best_plan.cost.memory_bytes
        bb = max(arr.block_bytes for arr in prog.arrays.values())
        cap = mem + bb  # room for the plan, not for a 2-deep carve-out
        inputs = _inputs(prog, 5)
        with ArrayService(tmp_path, memory_cap_bytes=cap) as svc:
            r = svc.run(prog, P, inputs, plan=best_plan)  # serial: fits
            assert r.report.prefetch is None
            with pytest.raises(AdmissionRejected):
                svc.run(prog, P, inputs, plan=best_plan, prefetch_depth=2)

    def test_negative_depth_rejected(self, tmp_path):
        with pytest.raises(ServiceError):
            ArrayService(tmp_path, memory_cap_bytes=CAP, prefetch_depth=-1)


class TestAdmissionResilience:
    def test_close_wakes_long_timeout_waiter_immediately(self, prog,
                                                         best_plan,
                                                         tmp_path):
        """A waiter parked with a 300 s admission timeout must resolve with
        ServiceClosed the moment the service closes — not after 300 s."""
        import threading
        import time

        need = best_plan.cost.memory_bytes
        svc = ArrayService(tmp_path, memory_cap_bytes=need + 1000, workers=1)
        svc._admit(need, None)  # occupy: the job below parks in admission
        fut = svc.submit(prog, P, _inputs(prog, 0), plan=best_plan,
                         admission_timeout=300.0)
        deadline = time.monotonic() + 10
        while svc.queue_depth() == 0:
            assert time.monotonic() < deadline, "job never queued"
            time.sleep(0.005)
        t0 = time.monotonic()
        t = threading.Thread(target=svc.shutdown)
        t.start()
        with pytest.raises(ServiceClosed):
            fut.result(timeout=60)
        assert time.monotonic() - t0 < 10.0, \
            "close() did not promptly wake the admission waiter"
        t.join(timeout=60)
        assert not t.is_alive()

    def test_fifo_fairness_under_mixed_timeouts(self, prog, best_plan,
                                                tmp_path):
        """A queue head that times out must not starve the tickets behind
        it: its budget claim is withdrawn in ``finally`` and the freed
        budget re-offered to the (new) head of the queue."""
        import time

        from repro.exceptions import AdmissionTimeout as _AT

        need = best_plan.cost.memory_bytes
        with ArrayService(tmp_path, memory_cap_bytes=need + 1000,
                          workers=3) as svc:
            svc._admit(need, None)  # occupy so every job queues
            try:
                impatient = svc.submit(prog, P, _inputs(prog, 0),
                                       plan=best_plan,
                                       admission_timeout=0.05)
                deadline = time.monotonic() + 10
                while svc.queue_depth() == 0:
                    assert time.monotonic() < deadline
                    time.sleep(0.005)
                patient = [svc.submit(prog, P, _inputs(prog, s),
                                      plan=best_plan,
                                      admission_timeout=120.0)
                           for s in (1, 2)]
                with pytest.raises(_AT):
                    impatient.result(timeout=60)
            finally:
                svc._release_admission(need)
            # With the head's claim withdrawn the freed budget flows to
            # the patient tickets in order; both must complete.
            for fut in patient:
                r = fut.result(timeout=120)
                assert r.attempts == 1
            assert svc.queue_depth() == 0
            assert svc.admitted_bytes() == 0
            assert svc.stats.jobs_rejected == 1
            assert svc.stats.jobs_completed == 2
