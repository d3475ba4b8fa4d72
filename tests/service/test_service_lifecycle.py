"""What an :class:`ArrayService` holds while it lives and gives back when it
stops, the names it gives datasets, and the fingerprint it stamps on a job.

A process that runs many services one after another (the e2e benchmark's
epochs, a test suite, a notebook) sees these as memory, not as behaviour of
any one job, so nothing else in the suite would notice them regress.
"""

import hashlib
import threading

import numpy as np
import pytest

from repro import add_multiply_program, optimize
from repro.ir import Array
from repro.obs import trace as obs_trace
from repro.service import ArrayService, PlanCache
from repro.service.resilience import DegradePolicy

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


class TestShutdownReleasesThePool:
    def test_drained_service_holds_no_blocks(self, prog, best_plan, tmp_path):
        svc = ArrayService(tmp_path, memory_cap_bytes=4 * CAP, workers=2)
        for seed in range(3):
            svc.run(prog, P, _inputs(prog, seed), plan=best_plan)
        # Dataset blocks outlive their jobs: that is the sharing capital.
        assert len(svc.pool) > 0 and svc.pool.used_bytes > 0
        svc.shutdown()
        assert len(svc.pool) == 0
        assert svc.pool.used_bytes == 0 and svc.pool.pinned_bytes() == 0
        assert svc.pool.peak_bytes > 0  # history is kept, memory is not

    def test_no_wait_leaves_the_pool_to_running_jobs(self, prog, best_plan,
                                                     tmp_path):
        svc = ArrayService(tmp_path, memory_cap_bytes=4 * CAP, workers=1)
        svc.run(prog, P, _inputs(prog, 0), plan=best_plan)
        resident = svc.pool.resident_keys()
        assert resident
        svc.shutdown(wait=False)
        assert svc.pool.resident_keys() == resident

    def test_leaked_pin_stays_visible(self, prog, best_plan, tmp_path):
        svc = ArrayService(tmp_path, memory_cap_bytes=4 * CAP, workers=1)
        svc.run(prog, P, _inputs(prog, 0), plan=best_plan)
        key = svc.pool.resident_keys()[0]
        svc.pool.pin(key, owner="leak")
        svc.shutdown()
        assert svc.pool.resident_keys() == [key]
        assert svc.pool.total_pins() == 1


class TestWorkerThreads:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_started_by_the_constructor_gone_after_shutdown(self, workers,
                                                            tmp_path):
        before = threading.active_count()
        svc = ArrayService(tmp_path, memory_cap_bytes=CAP, workers=workers)
        try:
            assert threading.active_count() == before + workers
            names = [t.name for t in threading.enumerate()]
            assert sum(n.startswith("repro-svc") for n in names) == workers
        finally:
            svc.shutdown()
        assert threading.active_count() == before


class TestDatasetName:
    """``ds_<digest>`` names files on disk: hashing the array's buffer
    instead of a ``tobytes()`` copy must not rename a single dataset."""

    @staticmethod
    def _legacy(data, arr):
        canon = np.ascontiguousarray(data, dtype=f"f{arr.dtype_bytes}")
        h = hashlib.sha256()
        h.update(repr((canon.dtype.str, canon.shape,
                       arr.block_shape)).encode())
        h.update(canon.tobytes())
        return f"ds_{h.hexdigest()[:16]}"

    @pytest.mark.parametrize("dtype_bytes", [8, 4])
    def test_digest_is_byte_identical(self, dtype_bytes):
        arr = Array("A", dims=("n1", "n2"), block_shape=(3, 4),
                    dtype_bytes=dtype_bytes)
        base = np.random.default_rng(0).standard_normal((12, 16))
        layouts = {
            "c_ordered": np.ascontiguousarray(base[:6, :8]),
            "fortran_ordered": np.asfortranarray(base[:6, :8]),
            "sliced": base[::2, 1:9],
            "float32": base[:6, :8].astype("f4"),
            "integers": np.arange(48).reshape(6, 8),
        }
        assert not layouts["sliced"].flags.c_contiguous
        assert not layouts["fortran_ordered"].flags.c_contiguous
        for label, data in layouts.items():
            assert ArrayService._dataset_name(data, arr) == \
                self._legacy(data, arr), label
        # Same values, different memory layout: one dataset.
        assert ArrayService._dataset_name(layouts["c_ordered"], arr) == \
            ArrayService._dataset_name(layouts["fortran_ordered"], arr)


class TestSpanFingerprint:
    """The ``fingerprint`` on a ``service.job`` span is the plan cache's key
    for that job — the stem of its entry file — however the job was
    planned."""

    def _fingerprints(self, tracer):
        return [ev.args["fingerprint"] for ev in tracer.events
                if ev.name == "service.job" and ev.ph == "E"]

    def test_names_the_entry_file(self, prog, best_plan, tmp_path):
        cache = PlanCache(tmp_path / "plans")
        tracer = obs_trace.Tracer()
        with obs_trace.use(tracer):
            with ArrayService(tmp_path / "svc", memory_cap_bytes=CAP,
                              workers=1, plan_cache=cache) as svc:
                cold = svc.run(prog, P, _inputs(prog, 0))
                hit = svc.run(prog, P, _inputs(prog, 1))
                svc.run(prog, P, _inputs(prog, 2), plan=best_plan)
                svc.health.policy = DegradePolicy(planner_queue_depth=0)
                degraded = svc.run(prog, P, _inputs(prog, 3))
        assert not cold.cache_hit and hit.cache_hit and degraded.cache_hit
        assert svc.stats.degraded_plans == 1
        (entry,) = cache.root.glob("*.json")
        assert self._fingerprints(tracer) == [entry.stem] * 4
        assert (cache.hits, cache.memory_hits, cache.misses) == (2, 2, 1)

    def test_without_a_cache_jobs_still_group_by_template(self, prog,
                                                          best_plan,
                                                          tmp_path):
        tracer = obs_trace.Tracer()
        with obs_trace.use(tracer):
            with ArrayService(tmp_path, memory_cap_bytes=CAP,
                              workers=1) as svc:
                svc.run(prog, P, _inputs(prog, 0), plan=best_plan)
                svc.run(prog, P, _inputs(prog, 1), plan=best_plan,
                        memory_cap_bytes=CAP // 2)
        a, b = self._fingerprints(tracer)
        assert len(a) == len(b) == 64 and a != b  # the cap is in the key
