"""Engine policy modes and failure injection."""

import numpy as np
import pytest

from repro.codegen import build_executable_plan
from repro.engine import execute_plan, run_program
from repro.exceptions import ExecutionError, StorageError
from repro.optimizer import IOModel, optimize
from repro.storage import BufferPool, DAFMatrix, SimulatedDisk
from tests.fixtures import example1_program

P = {"n1": 2, "n2": 2, "n3": 1}


@pytest.fixture(scope="module")
def prog():
    return example1_program()


@pytest.fixture(scope="module")
def result(prog):
    return optimize(prog, P)


@pytest.fixture(scope="module")
def inputs(prog):
    rng = np.random.default_rng(4)
    return {n: rng.standard_normal(prog.arrays[n].shape_elems(P))
            for n in ("A", "B", "D")}


class TestOpportunisticMode:
    def test_lru_mode_never_exceeds_predicted_io(self, prog, result, inputs,
                                                 tmp_path_factory):
        """With classic LRU residency (plan_exact=False), incidental buffer
        hits can only reduce I/O below the plan-exact prediction."""
        for plan in (result.original_plan, result.best()):
            td = tmp_path_factory.mktemp(f"op{plan.index}")
            report, outputs = run_program(prog, P, plan, td, inputs,
                                          plan_exact=False)
            assert report.io.read_bytes <= plan.cost.read_bytes
            assert report.io.write_bytes <= plan.cost.write_bytes
            truth = (inputs["A"] + inputs["B"]) @ inputs["D"]
            assert np.allclose(outputs["E"], truth)

    def test_opportunistic_beats_plan0_exact(self, prog, result, inputs,
                                             tmp_path):
        """LRU with unlimited memory turns repeated reads into hits."""
        report, _ = run_program(prog, P, result.original_plan, tmp_path,
                                inputs, plan_exact=False)
        assert report.pool_hits > 0

    def _tight_cap_setup(self, prog, result, inputs, tmp_path,
                         write_through: bool):
        """Best plan with retention pins stripped (classic LRU is free to
        evict plan-retained blocks), optionally upgrading WRITE_SKIP to
        write-through so evicted blocks keep a valid disk copy."""
        from repro.codegen import IOAction
        ep = build_executable_plan(prog, P, result.best())
        has_reuse = False
        for inst in ep.instances:
            for pa in inst.reads + ([inst.write] if inst.write else []):
                pa.pin_after = 0
                pa.unpin_before = 0
                if pa.action is IOAction.REUSE:
                    has_reuse = True
                if write_through and pa.action is IOAction.WRITE_SKIP:
                    pa.action = IOAction.WRITE
        if not has_reuse:
            pytest.skip("best plan has no REUSE")
        disk = SimulatedDisk(tmp_path)
        stores = {}
        for name, arr in prog.arrays.items():
            store = DAFMatrix.create(disk, name, arr.num_blocks(P),
                                     arr.block_shape)
            stores[name] = store
            if name in inputs:
                store.write_matrix(inputs[name], count=False)
            else:
                store.write_matrix(np.zeros(arr.shape_elems(P)), count=False)
        cap = 4 * max(a.block_bytes for a in prog.arrays.values())
        return ep, stores, disk, cap

    def test_evicted_reuse_falls_back_to_read(self, prog, result, inputs,
                                              tmp_path):
        """Regression: under a tight cap, opportunistic LRU legally evicts
        blocks the plan retained for REUSE; the engine must re-read them
        from disk (counted) instead of raising ExecutionError — and still
        compute the right answer."""
        ep, stores, disk, cap = self._tight_cap_setup(
            prog, result, inputs, tmp_path, write_through=True)
        with disk:
            report = execute_plan(ep, stores, disk, pool=BufferPool(cap),
                                  plan_exact=False)
            outputs = stores["E"].read_matrix(count=False)
        truth = (inputs["A"] + inputs["B"]) @ inputs["D"]
        assert np.allclose(outputs, truth)
        # The fallback reads are charged as disk I/O, not smuggled in free.
        assert report.io.read_bytes > 0

    def test_evicted_memory_only_reuse_still_fails(self, prog, result,
                                                   inputs, tmp_path):
        """If the evicted block's newest version was WRITE_SKIP (memory
        only), no disk copy exists — falling back to a read would silently
        return stale data, so that case must still be an error."""
        ep, stores, disk, cap = self._tight_cap_setup(
            prog, result, inputs, tmp_path, write_through=False)
        from repro.codegen import IOAction
        if not any(inst.write and inst.write.action is IOAction.WRITE_SKIP
                   for inst in ep.instances):
            pytest.skip("best plan has no WRITE_SKIP")
        with disk:
            with pytest.raises(ExecutionError, match="never written to disk"):
                execute_plan(ep, stores, disk, pool=BufferPool(cap),
                             plan_exact=False)


class TestMemoryOnlyBookkeeping:
    """The engine's stale-disk tracking in opportunistic mode.

    ``memory_only`` marks blocks whose newest version exists only in memory
    (WRITE_SKIP).  A later WRITE of the same block refreshes the disk copy
    and must clear the flag — otherwise a legal LRU eviction followed by a
    REUSE would be rejected even though the disk copy is current.
    """

    BS = (4, 4)

    def _instances(self, include_write_back: bool):
        from types import SimpleNamespace

        from repro.codegen import IOAction
        from repro.codegen.exec_plan import PlannedAccess, PlannedInstance

        arrays = {n: SimpleNamespace(name=n, block_shape=self.BS)
                  for n in ("A", "C", "E")}

        def acc(name, action):
            return PlannedAccess(SimpleNamespace(array=arrays[name]), (0, 0),
                                 action)

        def inst(i, reads, write):
            stmt = SimpleNamespace(name=f"s{i}", kernel="copy",
                                   kernel_args=None)
            return PlannedInstance(stmt, (i,), reads, write)

        instances = [
            # C is produced memory-only first ...
            inst(0, [acc("A", IOAction.READ)], acc("C", IOAction.WRITE_SKIP)),
        ]
        if include_write_back:
            # ... then written through, which must clear the stale-disk flag.
            instances.append(
                inst(1, [acc("A", IOAction.READ)], acc("C", IOAction.WRITE)))
        instances += [
            # Touching A and E under a 2-block cap evicts unpinned C.
            inst(2, [acc("A", IOAction.READ)], acc("E", IOAction.WRITE)),
            # REUSE of the evicted C: legal iff its disk copy is current.
            inst(3, [acc("C", IOAction.REUSE)], acc("E", IOAction.WRITE)),
        ]
        return SimpleNamespace(instances=instances)

    def _setup(self, tmp_path):
        rng = np.random.default_rng(9)
        data = rng.standard_normal(self.BS)
        disk = SimulatedDisk(tmp_path)
        stores = {n: DAFMatrix.create(disk, n, (1, 1), self.BS)
                  for n in ("A", "C", "E")}
        stores["A"].write_block((0, 0), data, count=False)
        cap = 2 * stores["A"].layout.block_bytes
        return disk, stores, cap, data

    def test_write_after_skip_clears_stale_flag(self, tmp_path):
        """WRITE_SKIP -> WRITE -> eviction -> REUSE succeeds from disk."""
        disk, stores, cap, data = self._setup(tmp_path)
        plan = self._instances(include_write_back=True)
        with disk:
            report = execute_plan(plan, stores, disk, pool=BufferPool(cap),
                                  plan_exact=False)
            out = stores["E"].read_block((0, 0), count=False)
        assert np.array_equal(out, data)
        # Counted reads: the initial A miss and the REUSE fallback read of C
        # (later A touches are buffer hits); all three writes hit disk.
        assert report.io.read_ops == 2
        assert report.io.write_ops == 3

    def test_skip_without_write_back_still_fails(self, tmp_path):
        """Without the WRITE, the evicted block's newest version was never
        on disk — the REUSE must fail loudly, not read stale bytes."""
        disk, stores, cap, _ = self._setup(tmp_path)
        plan = self._instances(include_write_back=False)
        with disk:
            with pytest.raises(ExecutionError, match="never written to disk"):
                execute_plan(plan, stores, disk, pool=BufferPool(cap),
                             plan_exact=False)


class TestFailureInjection:
    def test_truncated_store_detected(self, prog, result, inputs, tmp_path):
        """A short file surfaces as a StorageError, not silent corruption."""
        with SimulatedDisk(tmp_path) as disk:
            m = DAFMatrix.create(disk, "M", (2, 2), (4, 4))
            m.file.truncate(64 + 2 * m.layout.block_bytes)  # half the blocks
            m.read_block((0, 0))  # still intact
            with pytest.raises(StorageError, match="short read"):
                m.read_block((1, 1))

    def test_reuse_without_residency_is_a_plan_bug(self, prog, result,
                                                   inputs, tmp_path):
        """Stripping pins from an executable plan must be caught at the
        first REUSE, proving the engine trusts nothing."""
        best = result.best()
        ep = build_executable_plan(prog, P, best)
        has_reuse = False
        for inst in ep.instances:
            for pa in inst.reads + ([inst.write] if inst.write else []):
                pa.pin_after = 0
                pa.unpin_before = 0
                from repro.codegen import IOAction
                if pa.action is IOAction.REUSE:
                    has_reuse = True
        if not has_reuse:
            pytest.skip("best plan has no REUSE")
        with SimulatedDisk(tmp_path) as disk:
            stores = {}
            for name, arr in prog.arrays.items():
                store = DAFMatrix.create(disk, name, arr.num_blocks(P),
                                         arr.block_shape)
                stores[name] = store
                if name in inputs:
                    store.write_matrix(inputs[name], count=False)
                else:
                    store.write_matrix(np.zeros(arr.shape_elems(P)), count=False)
            with pytest.raises(ExecutionError, match="REUSE of non-resident"):
                execute_plan(ep, stores, disk)

    def test_zero_byte_cap_rejected(self, prog, result, inputs, tmp_path):
        from repro.exceptions import BufferPoolError
        with pytest.raises(BufferPoolError):
            run_program(prog, P, result.best(), tmp_path, inputs,
                        memory_cap_bytes=0)


class TestTraceNesting:
    def test_spans_well_nested_after_mid_instance_failure(self, prog, result,
                                                          inputs, tmp_path):
        """A kernel blowing up mid-instance must not leak its open
        ``exec.instance`` span: every begin is matched by an end on its
        thread, so the Chrome export stays well-formed (regression for the
        unclosed-span bug)."""
        import repro.engine.executor as executor
        from repro.obs import trace as obs_trace

        real = executor.run_kernel
        calls = {"n": 0}

        def flaky(name, reads, out_shape, args):
            calls["n"] += 1
            if calls["n"] == 3:
                raise ExecutionError("injected kernel failure (boom)")
            return real(name, reads, out_shape, args)

        tracer = obs_trace.Tracer()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(executor, "run_kernel", flaky)
            with pytest.raises(ExecutionError, match="boom"), \
                    obs_trace.use(tracer):
                run_program(prog, P, result.best(), tmp_path, inputs)

        stacks = {}
        for ev in tracer.events:
            if ev.ph == "B":
                stacks.setdefault(ev.tid, []).append(ev.name)
            elif ev.ph == "E":
                assert stacks.get(ev.tid), \
                    f"end without begin on tid {ev.tid}"
                stacks[ev.tid].pop()
        leaked = {tid: s for tid, s in stacks.items() if s}
        assert not leaked, f"unclosed spans: {leaked}"
        # The instance that failed was begun — and therefore ended.
        assert any(ev.name == "exec.instance" and ev.ph == "B"
                   for ev in tracer.events)
        # And the export is valid JSON with balanced phases.
        obs_trace.chrome_trace(tracer.events)
