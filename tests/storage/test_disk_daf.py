"""Unit tests for the simulated disk, the DAF store and the dataset
catalog."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import CorruptBlockError, StorageError
from repro.optimizer import IOModel
from repro.storage import (BlockLayout, DAFMatrix, DatasetCatalog,
                           SimulatedDisk, make_disk)


class TestIOStats:
    def test_counting(self, tmp_path):
        with SimulatedDisk(tmp_path) as disk:
            f = disk.open("x")
            f.write_at(0, b"hello")
            f.read_at(0, 5)
            assert disk.stats.write_bytes == 5
            assert disk.stats.read_bytes == 5
            assert disk.stats.write_ops == disk.stats.read_ops == 1

    def test_uncounted_io(self, tmp_path):
        with SimulatedDisk(tmp_path) as disk:
            f = disk.open("x")
            f.write_at(0, b"hello", count=False)
            f.read_at(0, 5, count=False)
            assert disk.stats.write_bytes == 0
            assert disk.stats.read_bytes == 0

    def test_since_snapshot(self, tmp_path):
        with SimulatedDisk(tmp_path) as disk:
            f = disk.open("x")
            f.write_at(0, b"aa")
            snap = disk.stats.snapshot()
            f.write_at(2, b"bbb")
            delta = disk.stats.since(snap)
            assert delta.write_bytes == 3

    def test_simulated_seconds(self, tmp_path):
        model = IOModel(read_bw=100, write_bw=50)
        with SimulatedDisk(tmp_path, model) as disk:
            f = disk.open("x")
            f.write_at(0, b"x" * 100)
            f.read_at(0, 100)
            assert disk.simulated_seconds() == pytest.approx(1.0 + 2.0)

    def test_short_read_raises(self, tmp_path):
        with SimulatedDisk(tmp_path) as disk:
            f = disk.open("x")
            f.write_at(0, b"ab")
            with pytest.raises(StorageError):
                f.read_at(0, 10)

    def test_positional_write_overwrites(self, tmp_path):
        """Regression: writes must honour seek, not append."""
        with SimulatedDisk(tmp_path) as disk:
            f = disk.open("x")
            f.write_at(0, b"aaaa")
            f.write_at(1, b"bb")
            assert f.read_at(0, 4) == b"abba"


class TestBlockLayout:
    def test_column_major_linearization(self):
        lay = BlockLayout((3, 2), (4, 4))
        # first coordinate (row) varies fastest
        assert [lay.linearize((i, j)) for j in range(2) for i in range(3)] == list(range(6))

    def test_roundtrip(self):
        lay = BlockLayout((4, 5), (2, 3))
        for idx in range(lay.num_blocks):
            assert lay.linearize(lay.delinearize(idx)) == idx

    def test_out_of_range(self):
        lay = BlockLayout((2, 2), (4, 4))
        with pytest.raises(StorageError):
            lay.linearize((2, 0))
        with pytest.raises(StorageError):
            lay.delinearize(4)

    def test_block_bytes(self):
        lay = BlockLayout((2, 2), (10, 20))
        assert lay.block_bytes == 10 * 20 * 8

    def test_serialize_roundtrip_fortran_order(self):
        lay = BlockLayout((1, 1), (3, 2))
        blk = np.arange(6, dtype=np.float64).reshape(3, 2)
        assert np.array_equal(lay.bytes_to_block(lay.block_to_bytes(blk)), blk)

    def test_bad_payload_size(self):
        lay = BlockLayout((1, 1), (2, 2))
        with pytest.raises(StorageError):
            lay.bytes_to_block(b"123")


class TestDAF:
    def test_create_write_read(self, tmp_path):
        with SimulatedDisk(tmp_path) as disk:
            m = DAFMatrix.create(disk, "M", (2, 2), (3, 3))
            blk = np.full((3, 3), 7.0)
            m.write_block((1, 0), blk)
            assert np.array_equal(m.read_block((1, 0)), blk)

    def test_unwritten_blocks_read_zero(self, tmp_path):
        with SimulatedDisk(tmp_path) as disk:
            m = DAFMatrix.create(disk, "M", (2, 2), (3, 3))
            assert np.array_equal(m.read_block((0, 1)), np.zeros((3, 3)))

    def test_io_counted_per_block(self, tmp_path):
        with SimulatedDisk(tmp_path) as disk:
            m = DAFMatrix.create(disk, "M", (2, 2), (3, 3))
            m.write_block((0, 0), np.ones((3, 3)))
            m.read_block((0, 0))
            assert disk.stats.write_bytes == 72
            assert disk.stats.read_bytes == 72

    def test_matrix_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        full = rng.standard_normal((6, 6))
        with SimulatedDisk(tmp_path) as disk:
            m = DAFMatrix.create(disk, "M", (2, 2), (3, 3))
            m.write_matrix(full)
            assert np.allclose(m.read_matrix(), full)

    def test_reopen(self, tmp_path):
        with SimulatedDisk(tmp_path) as disk:
            m = DAFMatrix.create(disk, "M", (2, 3), (4, 5))
            m.write_block((1, 2), np.full((4, 5), 3.0))
        with SimulatedDisk(tmp_path) as disk2:
            m2 = DAFMatrix.open(disk2, "M")
            assert m2.layout.grid == (2, 3)
            assert np.array_equal(m2.read_block((1, 2)), np.full((4, 5), 3.0))

    def test_preallocate_is_blockwise_and_checksummed(self, tmp_path):
        """Zero-fill never materializes the dense matrix (peak memory is one
        block) and records checksums, so reads of untouched regions verify."""
        with SimulatedDisk(tmp_path) as disk:
            m = DAFMatrix.create(disk, "M", (2, 2), (3, 3))
            m.preallocate()
            assert disk.stats.write_bytes == 0  # uncounted setup I/O
            for coords in m.layout.iter_blocks():
                idx = m.layout.linearize(coords)
                assert m.checksums.expected(idx) is not None
            assert np.array_equal(m.read_matrix(), np.zeros((6, 6)))

    def test_one_file_per_store_reopens_verified(self, tmp_path):
        """Data and checksum table share the store's one file; a reopened
        store loads the table, so bit rot in the data region (still at
        byte 64) is caught."""
        blk = np.full((3, 3), 5.0)
        with SimulatedDisk(tmp_path) as disk:
            m = DAFMatrix.create(disk, "M", (2, 2), (3, 3))
            m.write_block((1, 1), blk)
            m.close()
            offset = 64 + m.layout.offset_of((1, 1))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["M.daf"]
        with SimulatedDisk(tmp_path) as disk:
            m = DAFMatrix.open(disk, "M")
            assert m.checksums.expected(m.layout.linearize((1, 1))) is not None
            assert np.array_equal(m.read_block((1, 1)), blk)
            assert disk.stats.checksum_failures == 0
        with open(tmp_path / "M.daf", "r+b") as fh:
            fh.seek(offset)
            fh.write(b"garbage!")
        with SimulatedDisk(tmp_path) as disk:
            with pytest.raises(CorruptBlockError):
                DAFMatrix.open(disk, "M").read_block((1, 1))

    def test_create_starts_from_an_empty_file(self, tmp_path):
        with SimulatedDisk(tmp_path) as disk:
            m = DAFMatrix.create(disk, "M", (2, 2), (3, 3))
            m.write_matrix(np.ones((6, 6)))
            again = DAFMatrix.create(disk, "M", (2, 2), (3, 3))
            assert all(again.checksums.expected(i) is None for i in range(4))
            assert not again.read_matrix().any()

    def test_preallocate_on_written_store_reads_verified_zeros(self, tmp_path):
        with SimulatedDisk(tmp_path) as disk:
            m = DAFMatrix.create(disk, "M", (2, 2), (3, 3))
            m.write_matrix(np.arange(36.0).reshape(6, 6))
            m.preallocate()
            assert np.array_equal(m.read_matrix(), np.zeros((6, 6)))
            assert disk.stats.checksum_failures == 0
            assert all(m.checksums.expected(i) is not None for i in range(4))
        with SimulatedDisk(tmp_path) as disk:
            m = DAFMatrix.open(disk, "M")
            assert np.array_equal(m.read_matrix(), np.zeros((6, 6)))
            assert disk.stats.checksum_failures == 0

    def test_write_through_one_handle_reads_through_another(self, tmp_path):
        """Each handle keeps its own copy of the checksum table; a reader
        whose copy is stale re-reads the slot instead of failing."""
        blk = np.full((3, 3), 2.5)
        with SimulatedDisk(tmp_path) as disk:
            writer = DAFMatrix.create(disk, "M", (2, 2), (3, 3))
            writer.preallocate()
            reader = DAFMatrix.open(disk, "M")
            writer.write_block((0, 1), blk)
            assert np.array_equal(reader.read_block((0, 1)), blk)
            blocks, extra = reader.read_block_run((0, 0), 4)
            assert np.array_equal(blocks[2], blk) and extra == [0] * 4
            assert disk.stats.checksum_failures == 0

    def test_open_refuses_two_file_layout(self, tmp_path):
        """A DAF1 store kept its checksums in a sidecar; read as DAF2 its
        table would look empty and every block would pass unverified."""
        header = b"DAF1" + np.array([2, 2, 3, 3, 8, 0, 0],
                                    dtype=np.int64).tobytes()
        path = tmp_path / "old.daf"
        path.write_bytes(header + b"\0" * (64 - len(header) + 4 * 72))
        size = path.stat().st_size
        with SimulatedDisk(tmp_path) as disk:
            with pytest.raises(StorageError, match="DAF1"):
                DAFMatrix.open(disk, "old")
        assert path.stat().st_size == size

    def test_open_rejects_garbage(self, tmp_path):
        with SimulatedDisk(tmp_path) as disk:
            f = disk.open("junk.daf")
            f.write_at(0, b"\0" * 64, count=False)
            with pytest.raises(StorageError):
                DAFMatrix.open(disk, "junk")


@settings(max_examples=20, deadline=None)
@given(gr=st.integers(1, 4), gc=st.integers(1, 4), br=st.integers(1, 5),
       bc=st.integers(1, 5), seed=st.integers(0, 2 ** 31 - 1))
def test_daf_roundtrip_property(tmp_path_factory, gr, gc, br, bc, seed):
    rng = np.random.default_rng(seed)
    full = rng.standard_normal((gr * br, gc * bc))
    root = tmp_path_factory.mktemp("daf")
    with SimulatedDisk(root) as disk:
        m = DAFMatrix.create(disk, "M", (gr, gc), (br, bc))
        m.write_matrix(full)
        assert np.allclose(m.read_matrix(), full)


class TestBatchedRunReads:
    def _store(self, tmp_path, grid=(4, 2), blk=(4, 4)):
        disk = SimulatedDisk(tmp_path)
        mat = DAFMatrix.create(disk, "m", grid, blk)
        rng = np.random.default_rng(3)
        full = rng.standard_normal(mat.layout.total_shape)
        mat.write_matrix(full, count=False)
        return disk, mat

    def test_run_matches_per_block_reads(self, tmp_path):
        disk, mat = self._store(tmp_path)
        blocks, extra = mat.read_block_run((0, 0), 4)
        for i, b in enumerate(blocks):
            coords = mat.layout.delinearize(i)
            np.testing.assert_array_equal(
                b, mat.read_block(coords, count=False))
        assert extra == [0, 0, 0, 0]
        disk.close()

    def test_run_is_one_counted_op(self, tmp_path):
        disk, mat = self._store(tmp_path)
        bb = mat.layout.block_bytes
        mat.read_block_run((0, 0), 4)
        assert disk.stats.read_ops == 1
        assert disk.stats.read_bytes == 4 * bb
        disk.close()

    def test_run_crossing_column_boundary(self, tmp_path):
        """Linear order is column-major: a run can wrap from the bottom of
        one block column into the top of the next."""
        disk, mat = self._store(tmp_path, grid=(4, 2))
        blocks, _ = mat.read_block_run((2, 0), 4)  # linear 2,3,4,5
        for i, b in enumerate(blocks):
            coords = mat.layout.delinearize(2 + i)
            np.testing.assert_array_equal(
                b, mat.read_block(coords, count=False))
        disk.close()

    def test_run_beyond_grid_rejected(self, tmp_path):
        disk, mat = self._store(tmp_path)
        with pytest.raises(StorageError, match="exceeds grid"):
            mat.read_block_run((3, 1), 2)  # linear 7 + 2 > 8 blocks
        with pytest.raises(StorageError, match="exceeds grid"):
            mat.read_block_run((0, 0), 0)
        disk.close()

    def test_transient_corruption_healed_per_block(self, tmp_path):
        """A corrupted batched transfer heals through the retried per-block
        path; the healing bytes are attributed in ``extra``."""
        from repro.storage import FaultInjector, FaultPolicy
        inj = FaultInjector(0, [FaultPolicy(op="read", corrupt=1.0,
                                            max_faults=1)])
        disk = SimulatedDisk(tmp_path, fault_injector=inj)
        mat = DAFMatrix.create(disk, "m", (4, 1), (4, 4))
        rng = np.random.default_rng(3)
        full = rng.standard_normal(mat.layout.total_shape)
        mat.write_matrix(full, count=False)

        blocks, extra = mat.read_block_run((0, 0), 4)
        for i, b in enumerate(blocks):
            coords = mat.layout.delinearize(i)
            np.testing.assert_array_equal(
                b, mat.read_block(coords, count=False))
        assert disk.stats.checksum_failures >= 1
        # At least one block was re-read; its bytes are charged in extra.
        assert sum(extra) >= mat.layout.block_bytes
        disk.close()


class TestPacedIO:
    def test_pace_sleeps_roughly_modeled_time(self, tmp_path):
        import time
        model = IOModel(read_bw=1_000_000, write_bw=1_000_000)
        disk = SimulatedDisk(tmp_path, model, pace=1.0)
        f = disk.open("p.bin")
        payload = b"x" * 100_000  # 0.1 s modeled transfer
        t0 = time.perf_counter()
        f.write_at(0, payload)
        f.read_at(0, len(payload))
        elapsed = time.perf_counter() - t0
        # Two paced ops ≈ 0.2 s modeled; scheduling jitter only adds.
        assert elapsed >= 0.15
        assert disk.stats.read_ops == 1
        disk.close()

    def test_default_pace_is_free(self, tmp_path):
        import time
        disk = SimulatedDisk(tmp_path, IOModel())
        f = disk.open("p.bin")
        t0 = time.perf_counter()
        f.write_at(0, b"x" * 1_000_000)
        assert time.perf_counter() - t0 < 0.5
        disk.close()


def _ingest(catalog, name, seed, grid=(2, 3), block=(4, 5)):
    rng = np.random.default_rng(seed)
    full = rng.standard_normal((grid[0] * block[0], grid[1] * block[1]))
    return catalog.dataset(name, grid, block, np.float64, full), full


class TestDatasetCatalog:
    def test_datasets_share_one_file_and_read_back(self, tmp_path):
        with SimulatedDisk(tmp_path) as disk:
            catalog = DatasetCatalog(disk)
            made = [_ingest(catalog, f"ds_{i}", i) for i in range(5)]
            again, _ = _ingest(catalog, "ds_2", 99)
            assert again is made[2][0]  # a hit ingests nothing
            for store, full in made:
                assert np.array_equal(store.read_matrix(count=False), full)
            catalog.close()
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            [DatasetCatalog.FILE]

    def test_an_unasked_catalog_creates_no_file(self, tmp_path):
        with SimulatedDisk(tmp_path) as disk:
            DatasetCatalog(disk).close()
        assert list(tmp_path.iterdir()) == []

    def test_reopened_catalog_finds_sealed_datasets(self, tmp_path):
        with SimulatedDisk(tmp_path) as disk:
            catalog = DatasetCatalog(disk)
            fulls = [_ingest(catalog, f"ds_{i}", i)[1] for i in range(3)]
            catalog.close()
        size = (tmp_path / DatasetCatalog.FILE).stat().st_size
        with SimulatedDisk(tmp_path) as disk:
            catalog = DatasetCatalog(disk)
            for i, full in enumerate(fulls):
                # A different matrix under a known name: not re-ingested.
                store, _ = _ingest(catalog, f"ds_{i}", 100 + i)
                assert np.array_equal(store.read_matrix(count=False), full)
            catalog.close()
        assert (tmp_path / DatasetCatalog.FILE).stat().st_size == size

    def test_unsealed_extent_is_never_opened(self, tmp_path, monkeypatch):
        real = DAFMatrix.write_block
        calls = []

        def dies_on_second_block(self, coords, block, count=True):
            calls.append(coords)
            if len(calls) == 2:
                raise StorageError("injected: ingest dies")
            real(self, coords, block, count=count)

        with SimulatedDisk(tmp_path) as disk:
            catalog = DatasetCatalog(disk)
            sealed, sealed_full = _ingest(catalog, "ds_sealed", 0)
            monkeypatch.setattr(DAFMatrix, "write_block",
                                dies_on_second_block)
            with pytest.raises(StorageError, match="ingest dies"):
                _ingest(catalog, "ds_torn", 1)
            monkeypatch.undo()
            # The same catalog re-ingests rather than trusting the extent.
            store, full = _ingest(catalog, "ds_torn", 1)
            assert np.array_equal(store.read_matrix(count=False), full)
            catalog.close()
        with SimulatedDisk(tmp_path) as disk:
            catalog = DatasetCatalog(disk)
            monkeypatch.setattr(DAFMatrix, "write_block",
                                dies_on_second_block)
            calls.clear()
            with pytest.raises(StorageError, match="ingest dies"):
                _ingest(catalog, "ds_new", 2)
            monkeypatch.undo()
            catalog.close()
        with SimulatedDisk(tmp_path) as disk:
            catalog = DatasetCatalog(disk)
            store, _ = _ingest(catalog, "ds_sealed", 5)
            assert np.array_equal(store.read_matrix(count=False),
                                  sealed_full)
            # The restart cut the unsealed tail and ingests afresh.
            store, full = _ingest(catalog, "ds_new", 2)
            assert np.array_equal(store.read_matrix(count=False), full)
            catalog.close()

    @pytest.mark.parametrize("shards", [1, 4])
    def test_concurrent_ingests_never_overlap(self, tmp_path, shards):
        """Four threads ingest the same eight datasets in different
        orders: each is ingested once, into its own extent."""
        disk = make_disk(tmp_path, shards, stripe_bytes=512)
        catalog = DatasetCatalog(disk)
        start = threading.Barrier(4)
        seen = [[] for _ in range(4)]

        def ingest(worker):
            start.wait()
            for i in np.random.default_rng(worker).permutation(8):
                seen[worker].append(_ingest(catalog, f"ds_{i}", int(i),
                                            grid=(1 + i % 3, 2),
                                            block=(3, 4)))

        threads = [threading.Thread(target=ingest, args=(w,))
                   for w in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        stores = {id(store): (store, full) for run in seen
                  for store, full in run}
        assert len(stores) == 8
        extents = sorted((store.base, store.checksums.base
                          + 8 * store.layout.num_blocks)
                         for store, _ in stores.values())
        for (_, end), (nxt, _) in zip(extents, extents[1:]):
            assert end <= nxt
        for store, full in stores.values():
            assert np.array_equal(store.read_matrix(count=False), full)
        catalog.close()
        disk.close()
