"""Fault injection, checksums, atomic writes, retry/backoff, recovery.

The seed sweep is CI-configurable: ``REPRO_FAULT_SEEDS="0 1 2"`` (fast CI)
or a 25-seed nightly sweep — every seed must round-trip bit-exact.
"""

import os

import numpy as np
import pytest

from repro.exceptions import CorruptBlockError, StorageError
from repro.storage import (DAFMatrix, FaultInjector, FaultPolicy,
                           RetryPolicy, SimulatedDisk, block_checksum)


def _seeds():
    env = os.environ.get("REPRO_FAULT_SEEDS")
    if not env:
        return [0, 1, 2]
    return [int(s) for s in env.replace(",", " ").split()]


def _disk(path, injector=None, max_retries=3, **kw):
    return SimulatedDisk(path, fault_injector=injector,
                         retry=RetryPolicy(max_retries, backoff_base=0), **kw)


def _block(seed=0, shape=(4, 4)):
    return np.random.default_rng(seed).standard_normal(shape)


class TestFaultInjector:
    def test_deterministic_given_seed_and_op_sequence(self):
        def drive(inj):
            out = []
            for i in range(50):
                out.append(inj.on_read("A.daf", i * 64, 64))
                out.append(inj.on_write("A.daf", i * 64, 64))
            return out

        mk = lambda: FaultInjector(7, [FaultPolicy(transient=0.2, corrupt=0.1,
                                                   torn=0.1)])
        a, b = mk(), mk()
        assert drive(a) == drive(b)
        assert [repr(f) for f in a.trace] == [repr(f) for f in b.trace]
        assert a.counts()  # a 40% aggregate rate over 100 ops injects some

    def test_policy_scoping_by_name_and_op(self):
        inj = FaultInjector(0, [FaultPolicy("A.daf", op="read", transient=1.0)])
        assert inj.on_read("B.daf", 0, 8) is None
        assert inj.on_write("A.daf", 0, 8) is None
        assert inj.on_read("A.daf", 0, 8) == ("transient", None)

    def test_after_and_max_faults(self):
        inj = FaultInjector(0, [FaultPolicy(op="read", transient=1.0,
                                            after=2, max_faults=1)])
        assert inj.on_read("x", 0, 8) is None   # warm-up 1
        assert inj.on_read("x", 0, 8) is None   # warm-up 2
        assert inj.on_read("x", 0, 8) == ("transient", None)
        assert inj.on_read("x", 0, 8) is None   # budget exhausted
        assert len(inj.trace) == 1

    def test_corrupt_flips_exactly_one_byte(self):
        data = bytes(range(16))
        out = FaultInjector.corrupt(data, 5)
        assert out != data and len(out) == len(data)
        assert sum(a != b for a, b in zip(data, out)) == 1

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultPolicy(transient=0.8, corrupt=0.5)
        with pytest.raises(ValueError):
            FaultPolicy(op="append")


class TestRetryPolicy:
    def test_exponential_backoff_capped(self):
        p = RetryPolicy(5, backoff_base=0.01, backoff_cap=0.04)
        assert [p.delay(n) for n in (1, 2, 3, 4)] == [0.01, 0.02, 0.04, 0.04]

    def test_zero_base_never_sleeps(self):
        assert RetryPolicy(3, backoff_base=0).delay(4) == 0.0

    def test_sleep_interruptible_by_event(self):
        """A set interrupt event turns a long backoff into an immediate
        return — cancellation must not wait out the retry schedule."""
        import threading
        import time

        p = RetryPolicy(3, backoff_base=5.0, backoff_cap=5.0)
        ev = threading.Event()
        ev.set()
        t0 = time.monotonic()
        p.sleep(1, interrupt=ev)
        assert time.monotonic() - t0 < 1.0

    def test_sleep_uses_thread_local_interrupt(self):
        """Deep disk retry loops pick the interrupt up from the ambient
        scope — no signature changes down the storage stack."""
        import threading
        import time

        from repro.cancel import interrupt_scope

        p = RetryPolicy(3, backoff_base=5.0, backoff_cap=5.0)
        ev = threading.Event()
        ev.set()
        t0 = time.monotonic()
        with interrupt_scope(ev):
            p.sleep(1)
        assert time.monotonic() - t0 < 1.0


class TestTransientFaults:
    def test_read_absorbed_and_counted(self, tmp_path):
        inj = FaultInjector(0, [FaultPolicy(op="read", transient=1.0,
                                            max_faults=2)])
        with _disk(tmp_path, inj) as disk:
            m = DAFMatrix.create(disk, "M", (2, 2), (4, 4))
            data = _block(1)
            m.write_block((0, 0), data)
            assert np.array_equal(m.read_block((0, 0)), data)
            assert disk.stats.retries == 2
            assert [f.kind for f in inj.trace] == ["transient", "transient"]

    def test_write_absorbed_and_counted(self, tmp_path):
        inj = FaultInjector(0, [FaultPolicy(op="write", transient=1.0,
                                            max_faults=1)])
        with _disk(tmp_path, inj) as disk:
            m = DAFMatrix.create(disk, "M", (2, 2), (4, 4))
            data = _block(2)
            m.write_block((1, 1), data)
            assert disk.stats.retries == 1
            assert np.array_equal(m.read_block((1, 1)), data)

    def test_exhaustion_fails_loudly(self, tmp_path):
        inj = FaultInjector(0, [FaultPolicy(op="read", transient=1.0)])
        with _disk(tmp_path, inj, max_retries=2) as disk:
            m = DAFMatrix.create(disk, "M", (2, 2), (4, 4))
            m.write_block((0, 0), _block())
            with pytest.raises(StorageError, match="failed after 3 attempts"):
                m.read_block((0, 0))
            assert disk.stats.retries == 2

    def test_uncounted_metadata_ops_never_faulted(self, tmp_path):
        inj = FaultInjector(0, [FaultPolicy(transient=1.0)])
        with _disk(tmp_path, inj, max_retries=0) as disk:
            m = DAFMatrix.create(disk, "M", (2, 2), (4, 4))
            data = _block(3)
            m.write_block((0, 0), data, count=False)
            assert np.array_equal(m.read_block((0, 0), count=False), data)
            assert not inj.trace


class TestChecksums:
    def test_inflight_corruption_healed_by_reread(self, tmp_path):
        inj = FaultInjector(0, [FaultPolicy(op="read", corrupt=1.0,
                                            max_faults=1)])
        with _disk(tmp_path, inj) as disk:
            m = DAFMatrix.create(disk, "M", (2, 2), (4, 4))
            data = _block(4)
            m.write_block((0, 0), data)
            assert np.array_equal(m.read_block((0, 0)), data)
            assert disk.stats.checksum_failures == 1

    def test_persistent_corruption_raises(self, tmp_path):
        with _disk(tmp_path) as disk:
            m = DAFMatrix.create(disk, "M", (2, 2), (4, 4))
            m.write_block((0, 0), _block(5))
            m.file.flush()
            with open(tmp_path / "M.daf", "r+b") as fh:
                fh.seek(64)  # first block's payload
                fh.write(b"\xff" * 16)
            with pytest.raises(CorruptBlockError, match="failed checksum"):
                m.read_block((0, 0))
            assert disk.stats.checksum_failures == 4  # 1 + 3 re-reads

    def test_sidecar_survives_reopen(self, tmp_path):
        data = _block(6)
        with _disk(tmp_path) as disk:
            m = DAFMatrix.create(disk, "M", (2, 2), (4, 4))
            m.write_block((1, 0), data)
            off_unwritten = 64 + m.layout.offset_of((0, 1))
            off_written = 64 + m.layout.offset_of((1, 0))
        with _disk(tmp_path) as disk:
            m = DAFMatrix.open(disk, "M")
            assert np.array_equal(m.read_block((1, 0)), data)
        # corrupt the file between sessions (bit rot while "powered off")
        with open(tmp_path / "M.daf", "r+b") as fh:
            fh.seek(off_unwritten)
            fh.write(b"\x07" * 8)
            fh.seek(off_written)
            fh.write(b"garbage!")
        with _disk(tmp_path) as disk:
            m = DAFMatrix.open(disk, "M")
            # never-written region: no checksum recorded, reads as-is
            m.read_block((0, 1))
            with pytest.raises(CorruptBlockError):
                m.read_block((1, 0))

    def test_block_checksum_stable(self):
        assert block_checksum(b"abc") == block_checksum(b"abc")
        assert block_checksum(b"abc") != block_checksum(b"abd")


class TestTornWritesAndRecovery:
    def test_torn_write_absorbed_by_retry(self, tmp_path):
        inj = FaultInjector(0, [FaultPolicy(op="write", torn=1.0,
                                            max_faults=1)])
        with _disk(tmp_path, inj) as disk:
            m = DAFMatrix.create(disk, "M", (2, 2), (4, 4))
            data = _block(8)
            m.write_block((0, 0), data)
            assert disk.stats.retries == 1
            assert inj.trace[0].kind == "torn"
            assert np.array_equal(m.read_block((0, 0)), data)

    def test_exhausted_torn_write_recovers_previous_image(self, tmp_path):
        old = _block(9)
        with _disk(tmp_path, atomic_writes=True, max_retries=1) as disk:
            m = DAFMatrix.create(disk, "M", (2, 2), (4, 4))
            m.write_block((0, 0), old)
            # the disk turns hostile: every write now tears, retries exhaust
            disk.fault_injector = FaultInjector(
                0, [FaultPolicy(op="write", torn=1.0)])
            with pytest.raises(StorageError, match="write at .* failed"):
                m.write_block((0, 0), _block(10))
            assert disk.pending_undos()
            # the in-place image is torn: new prefix over old suffix
            disk.fault_injector = None
            with pytest.raises(CorruptBlockError):
                m.read_block((0, 0))
        # a fresh (restarted) disk rolls back to the pre-write image
        with _disk(tmp_path) as disk:
            assert disk.recover() == 1
            assert not disk.pending_undos()
            m = DAFMatrix.open(disk, "M")
            assert np.array_equal(m.read_block((0, 0)), old)

    def test_recover_noop_on_clean_disk(self, tmp_path):
        with _disk(tmp_path, atomic_writes=True) as disk:
            m = DAFMatrix.create(disk, "M", (2, 2), (4, 4))
            m.write_block((0, 0), _block(11))
            assert disk.pending_undos() == []
            assert disk.recover() == 0


class TestSeedSweep:
    """Every CI seed must round-trip bit-exact under mixed faults."""

    @pytest.mark.parametrize("seed", _seeds())
    def test_roundtrip_under_mixed_faults(self, tmp_path, seed):
        inj = FaultInjector(seed, [FaultPolicy(transient=0.15, corrupt=0.05,
                                               torn=0.05)])
        with _disk(tmp_path, inj, max_retries=6, atomic_writes=True) as disk:
            m = DAFMatrix.create(disk, "M", (3, 3), (5, 5))
            blocks = {c: _block(hash(c) % 100, (5, 5))
                      for c in m.layout.iter_blocks()}
            for coords, data in blocks.items():
                m.write_block(coords, data)
            for coords, data in blocks.items():
                assert np.array_equal(m.read_block(coords), data), coords
            transients = sum(1 for f in inj.trace
                             if f.kind in ("transient", "torn"))
            assert disk.stats.retries == transients
