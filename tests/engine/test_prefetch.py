"""Prefetch pipeline tests: byte-exact overlap at every depth, budget
back-pressure, failure attribution, checkpoint/resume composition, and the
batched contiguous-run read path (pipeline unit level)."""

import time

import numpy as np
import pytest

from repro.codegen import build_executable_plan
from repro.codegen.exec_plan import PrefetchItem
from repro.engine import PrefetchPipeline, execute_plan, run_program
from repro.exceptions import (BufferPoolError, CorruptBlockError,
                              ExecutionError, StorageError)
from repro.ir import ArrayKind
from repro.optimizer import IOModel, optimize
from repro.storage import (BufferPool, DAFMatrix, FaultInjector, FaultPolicy,
                           RetryPolicy, SimulatedDisk, make_disk)
from tests.fixtures import example1_program

P = {"n1": 2, "n2": 2, "n3": 2}
DEPTHS = [0, 1, 2, 8]


@pytest.fixture(scope="module")
def prog():
    return example1_program()


@pytest.fixture(scope="module")
def result(prog):
    return optimize(prog, P)


@pytest.fixture(scope="module")
def best(result):
    return result.best()


@pytest.fixture(scope="module")
def inputs(prog):
    rng = np.random.default_rng(7)
    return {n: rng.standard_normal(prog.arrays[n].shape_elems(P))
            for n in ("A", "B", "D")}


@pytest.fixture(scope="module")
def truth(inputs):
    return (inputs["A"] + inputs["B"]) @ inputs["D"]


def _read_items(prog, plan):
    return build_executable_plan(prog, P, plan).read_sequence()


class TestByteExactEveryDepth:
    @pytest.mark.parametrize("depth", DEPTHS)
    def test_all_plans_correct_and_io_exact(self, prog, result, inputs, truth,
                                            tmp_path_factory, depth):
        """Overlap must never change *what* I/O happens — only when.  Every
        plan at every depth stays byte-exact against the cost model, with
        validate=True auditing the traced actuals."""
        for plan in result.plans:
            td = tmp_path_factory.mktemp(f"d{depth}p{plan.index}")
            report, outputs = run_program(prog, P, plan, td, inputs,
                                          prefetch_depth=depth, validate=True)
            assert np.allclose(outputs["E"], truth), \
                f"plan {plan.index} wrong at depth {depth}"
            assert report.io.read_bytes == plan.cost.read_bytes
            assert report.io.write_bytes == plan.cost.write_bytes
            assert report.validation.passed, report.validation.summary()
            if depth == 0:
                assert report.prefetch is None
            else:
                st = report.prefetch
                assert st is not None
                total = len(_read_items(prog, plan))
                assert st.staged_blocks + st.taken_by_main == total
                assert st.consumed_staged == st.staged_blocks - st.discarded
                assert st.failed == 0

    def test_deep_prefetch_stages_most_reads(self, prog, best, inputs,
                                             tmp_path):
        report, _ = run_program(prog, P, best, tmp_path, inputs,
                                prefetch_depth=8)
        st = report.prefetch
        # With no cap and depth 8 the readers should win most of the races.
        assert st.staged_blocks > 0
        assert st.consumed_staged > 0


class TestBudget:
    def test_zero_budget_degrades_to_serial(self, prog, best, inputs, truth,
                                            tmp_path):
        """A budget of 0 (a cap with no headroom above the plan's
        residency) stages nothing: every read falls to the main thread,
        and the run is still correct and byte-exact."""
        report, outputs = run_program(prog, P, best, tmp_path, inputs,
                                      memory_cap_bytes=best.cost.memory_bytes,
                                      prefetch_depth=4)
        assert np.allclose(outputs["E"], truth)
        assert report.io.read_bytes == best.cost.read_bytes
        st = report.prefetch
        assert st.staged_blocks == 0
        assert st.taken_by_main == len(_read_items(prog, best))

    def test_exact_cap_leaves_no_headroom(self, prog, best, inputs, truth,
                                          tmp_path):
        """memory_cap == plan residency ⇒ the default budget carve-out is 0,
        so prefetch silently degrades instead of busting the cap."""
        report, outputs = run_program(prog, P, best, tmp_path, inputs,
                                      memory_cap_bytes=best.cost.memory_bytes,
                                      prefetch_depth=4)
        assert np.allclose(outputs["E"], truth)
        assert report.prefetch.staged_blocks == 0
        assert report.peak_memory_bytes <= best.cost.memory_bytes

    def test_headroom_bounds_staged_bytes(self, prog, best, inputs, truth,
                                          tmp_path):
        """Two blocks of headroom: staged-but-unconsumed bytes never exceed
        it, and the pool never exceeds the cap."""
        bb = prog.arrays["A"].block_bytes
        cap = best.cost.memory_bytes + 2 * bb
        report, outputs = run_program(prog, P, best, tmp_path, inputs,
                                      memory_cap_bytes=cap, prefetch_depth=8)
        assert np.allclose(outputs["E"], truth)
        assert report.prefetch.max_staged_bytes <= 2 * bb
        assert report.peak_memory_bytes <= cap


class TestOpportunisticMode:
    def test_prefetch_composes_with_lru_mode(self, prog, best, inputs, truth,
                                             tmp_path):
        """plan_exact=False + prefetch: staged reads are plan-exact, so
        actual I/O can only meet the prediction, never exceed it."""
        report, outputs = run_program(prog, P, best, tmp_path, inputs,
                                      plan_exact=False, prefetch_depth=4)
        assert np.allclose(outputs["E"], truth)
        assert report.io.read_bytes <= best.cost.read_bytes


def _corrupt_block(store, coords):
    """Flip one data byte of a DAF block *under* its recorded checksum,
    through the store's own disk handle (uncounted metadata write)."""
    from repro.storage.daf import _HEADER_BYTES
    base = _HEADER_BYTES + store.layout.offset_of(coords)
    raw = store.file.read_at(base, 1, count=False)
    store.file.write_at(base, bytes([raw[0] ^ 0xFF]), count=False)


def _create_stores(disk, prog, inputs):
    stores = {}
    for name, arr in prog.arrays.items():
        store = DAFMatrix.create(disk, name, arr.num_blocks(P),
                                 arr.block_shape)
        stores[name] = store
        if arr.kind is ArrayKind.INPUT:
            store.write_matrix(inputs[name], count=False)
        else:
            store.preallocate()
    return stores


class TestFailureAttribution:
    @pytest.mark.parametrize("depth", [0, 4])
    def test_corrupt_block_surfaces_identically(self, prog, best, inputs,
                                                tmp_path_factory, depth):
        """A block whose on-disk bytes were silently flipped fails its
        checksum on the consuming access — whether the main thread or a
        reader thread performed the read."""
        td = tmp_path_factory.mktemp(f"corrupt{depth}")
        ep = build_executable_plan(prog, P, best)
        with SimulatedDisk(td, IOModel()) as disk:
            stores = _create_stores(disk, prog, inputs)
            # Flip a data byte in A's last block: its checksum now fails
            # persistently, beyond any re-read retry.
            grid = prog.arrays["A"].num_blocks(P)
            _corrupt_block(stores["A"], (grid[0] - 1, grid[1] - 1))
            try:
                with pytest.raises(CorruptBlockError):
                    execute_plan(ep, stores, disk, prefetch_depth=depth)
            finally:
                for s in stores.values():
                    try:
                        s.close()
                    except StorageError:
                        pass


class TestResumeComposition:
    def _kill_mid_plan(self, prog, best, inputs, workdir, depth):
        inj = FaultInjector(0, [FaultPolicy(op="write", transient=1.0,
                                            after=3)])
        with pytest.raises(StorageError, match="failed after"):
            run_program(prog, P, best,
                        make_disk(workdir, fault_injector=inj,
                                  retry=RetryPolicy(0, backoff_base=0)),
                        inputs, checkpoint=True, prefetch_depth=depth)

    def test_interrupted_prefetch_run_resumes_like_serial(
            self, prog, best, inputs, truth, tmp_path_factory):
        """Kill a checkpointed run at the 4th counted write, once serially
        and once at depth 4; resume both.  Staged-but-unconsumed blocks are
        discarded at the kill, so the two resumes replay the exact same
        instance suffix with the exact same counted I/O."""
        serial_dir = tmp_path_factory.mktemp("resume_serial")
        pre_dir = tmp_path_factory.mktemp("resume_prefetch")
        self._kill_mid_plan(prog, best, inputs, serial_dir, depth=0)
        self._kill_mid_plan(prog, best, inputs, pre_dir, depth=4)

        rs, out_s = run_program(prog, P, best, serial_dir, inputs,
                                checkpoint=True, resume=True)
        rp, out_p = run_program(prog, P, best, pre_dir, inputs,
                                checkpoint=True, resume=True,
                                prefetch_depth=4)
        assert rs.resumed_from >= 1
        assert rp.resumed_from == rs.resumed_from
        assert rp.instances == rs.instances
        assert rp.io.read_bytes == rs.io.read_bytes
        assert rp.io.write_bytes == rs.io.write_bytes
        assert rp.prefetch is not None
        for out in (out_s, out_p):
            assert np.allclose(out["E"], truth)
        assert np.array_equal(out_p["E"], out_s["E"])


# -- pipeline unit level ------------------------------------------------------

class _Obj:
    """Attribute bag standing in for PlannedAccess/BlockAccess/Array."""

    def __init__(self, **kw):
        self.__dict__.update(kw)


def _stub_items(name, block_bytes, coords_list, barriers=None):
    items = []
    for i, coords in enumerate(coords_list):
        arr = _Obj(name=name, block_bytes=block_bytes)
        acc = _Obj(array=arr, statement=_Obj(name="s1"))
        pa = _Obj(access=acc, block=tuple(coords),
                  block_key=(name, tuple(coords)))
        barrier = barriers[i] if barriers is not None else -1
        items.append(PrefetchItem(i, i, pa, barrier, i))
    return items


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


@pytest.fixture()
def daf4(tmp_path):
    """A 4-block column of 4x4 blocks with known contents, plus its disk."""
    with SimulatedDisk(tmp_path, IOModel()) as disk:
        store = DAFMatrix.create(disk, "A", (4, 1), (4, 4))
        store.write_matrix(np.arange(64.0).reshape(16, 4), count=False)
        yield disk, store
        store.close()


class TestPipelineUnit:
    def test_contiguous_run_reads_as_one_op(self, daf4):
        disk, store = daf4
        bb = store.layout.block_bytes
        pool = BufferPool()
        items = _stub_items("A", bb, [(i, 0) for i in range(4)])
        pipe = PrefetchPipeline(items, {"A": store}, pool, depth=8)
        try:
            assert _wait_for(lambda: pipe.stats.staged_blocks == 4)
            assert disk.stats.read_ops == 1
            assert disk.stats.read_bytes == 4 * bb
            for it in items:
                blk = pipe.consume(it.block_key)
                assert blk is not None
                expect = store.read_block(it.access.block, count=False)
                np.testing.assert_array_equal(blk.data, expect)
        finally:
            pipe.close()
        assert pipe.stats.batched_runs == 1
        assert pipe.stats.batched_blocks == 4
        assert pipe.stats.consumed_staged == 4

    def test_depth_one_reads_block_at_a_time(self, daf4):
        disk, store = daf4
        bb = store.layout.block_bytes
        pool = BufferPool()
        items = _stub_items("A", bb, [(i, 0) for i in range(4)])
        pipe = PrefetchPipeline(items, {"A": store}, pool, depth=1)
        try:
            for it in items:
                assert _wait_for(lambda: pipe.stats.staged_blocks
                                 > pipe.stats.consumed_staged)
                assert pipe.consume(it.block_key) is not None
        finally:
            pipe.close()
        assert pipe.stats.batched_runs == 0
        assert pipe.stats.consumed_staged == 4
        assert disk.stats.read_ops == 4

    def test_budget_bounds_inflight_bytes(self, daf4):
        disk, store = daf4
        bb = store.layout.block_bytes
        pool = BufferPool()
        items = _stub_items("A", bb, [(i, 0) for i in range(4)])
        pipe = PrefetchPipeline(items, {"A": store}, pool, depth=8,
                                budget_bytes=2 * bb)
        try:
            for it in items:
                assert _wait_for(lambda: pipe.stats.staged_blocks
                                 > pipe.stats.consumed_staged)
                assert pipe.consume(it.block_key) is not None
        finally:
            pipe.close()
        assert pipe.stats.consumed_staged == 4
        assert pipe.stats.max_staged_bytes <= 2 * bb

    def test_oversized_item_left_to_main_thread(self, daf4):
        disk, store = daf4
        bb = store.layout.block_bytes
        pool = BufferPool()
        items = _stub_items("A", bb, [(i, 0) for i in range(4)])
        pipe = PrefetchPipeline(items, {"A": store}, pool, depth=8,
                                budget_bytes=bb - 1)
        try:
            for it in items:
                assert pipe.consume(it.block_key) is None
        finally:
            pipe.close()
        assert pipe.stats.staged_blocks == 0
        assert pipe.stats.taken_by_main == 4
        assert disk.stats.read_ops == 0

    def test_write_barrier_defers_staging(self, daf4):
        disk, store = daf4
        bb = store.layout.block_bytes
        pool = BufferPool()
        items = _stub_items("A", bb, [(0, 0)], barriers=[2])
        pipe = PrefetchPipeline(items, {"A": store}, pool, depth=8)
        try:
            time.sleep(0.05)
            assert pipe.stats.staged_blocks == 0
            assert disk.stats.read_ops == 0
            pipe.progress(2)
            assert _wait_for(lambda: pipe.stats.staged_blocks == 1)
            assert pipe.consume(items[0].block_key) is not None
        finally:
            pipe.close()

    def test_reader_failure_raised_on_consuming_access(self, tmp_path):
        with SimulatedDisk(tmp_path, IOModel()) as disk:
            store = DAFMatrix.create(disk, "A", (2, 1), (4, 4))
            store.write_matrix(np.ones((8, 4)), count=False)
            _corrupt_block(store, (1, 0))
            pool = BufferPool()
            items = _stub_items("A", store.layout.block_bytes,
                                [(0, 0), (1, 0)])
            pipe = PrefetchPipeline(items, {"A": store}, pool, depth=1)
            try:
                # Block (0,0) is intact; (1,0) is the corrupted one and the
                # error must land on *its* consume, not the first.
                assert _wait_for(lambda: pipe.stats.staged_blocks
                                 + pipe.stats.failed >= 1)
                assert pipe.consume(items[0].block_key) is not None
                assert _wait_for(lambda: pipe.stats.failed == 1)
                with pytest.raises(CorruptBlockError):
                    pipe.consume(items[1].block_key)
            finally:
                pipe.close()
            assert pipe.stats.failed == 1
            store.close()

    def test_close_discards_staged_unconsumed(self, daf4):
        disk, store = daf4
        bb = store.layout.block_bytes
        pool = BufferPool()
        items = _stub_items("A", bb, [(i, 0) for i in range(4)])
        pipe = PrefetchPipeline(items, {"A": store}, pool, depth=8)
        assert _wait_for(lambda: pipe.stats.staged_blocks == 4)
        first = pipe.consume(items[0].block_key)
        assert first is not None
        pipe.close()
        assert pipe.stats.discarded == 3
        # The consumed block keeps its consumer pin; the discarded ones were
        # unpinned by the discard and dropped from the pool.
        assert pool.pin_count(items[0].block_key) == 1
        assert len(pool) == 1

    def test_consume_order_mismatch_is_typed(self, daf4):
        disk, store = daf4
        pool = BufferPool()
        items = _stub_items("A", store.layout.block_bytes,
                            [(0, 0), (1, 0)])
        pipe = PrefetchPipeline(items, {"A": store}, pool, depth=8)
        try:
            with pytest.raises(ExecutionError, match="order mismatch"):
                pipe.consume(("A", (1, 0)))
        finally:
            pipe.close()

    def test_bad_depth_rejected(self, daf4):
        disk, store = daf4
        items = _stub_items("A", store.layout.block_bytes, [(0, 0)])
        with pytest.raises(ExecutionError, match="depth"):
            PrefetchPipeline(items, {"A": store}, BufferPool(), depth=0)


class TestReadSequence:
    def test_sequence_covers_every_planned_read(self, prog, result):
        from repro.codegen import IOAction
        for plan in result.plans:
            ep = build_executable_plan(prog, P, plan)
            items = ep.read_sequence()
            planned = [(i, pa.block_key) for i, inst in enumerate(ep.instances)
                       for pa in inst.reads if pa.action is IOAction.READ]
            assert [(it.instance, it.block_key) for it in items] == planned
            assert [it.seq for it in items] == list(range(len(items)))

    def test_barriers_point_at_preceding_writes(self, prog, result):
        from repro.codegen import IOAction
        for plan in result.plans:
            ep = build_executable_plan(prog, P, plan)
            for it in ep.read_sequence():
                assert it.barrier < it.instance
                if it.barrier >= 0:
                    w = ep.instances[it.barrier].write
                    assert w is not None and w.action is IOAction.WRITE
                    assert w.block_key == it.block_key

    def test_start_skips_completed_instances_but_keeps_barriers(self, prog,
                                                                result):
        ep = build_executable_plan(prog, P, result.best())
        full = ep.read_sequence()
        start = next((it.instance for it in full if it.barrier >= 0),
                     len(ep.instances))
        if start >= len(ep.instances):
            pytest.skip("plan has no read-after-write barrier")
        tail = ep.read_sequence(start=start)
        assert all(it.instance >= start for it in tail)
        # Barriers from instances before `start` are still recorded.
        assert any(it.barrier >= 0 for it in tail)
