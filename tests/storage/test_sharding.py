"""Sharded-disk striping: placement math, parity with a single disk, and
per-shard fault domains (ISSUE 10 tentpole + satellite 3)."""

import numpy as np
import pytest

from repro.engine import run_program
from repro.exceptions import StorageError
from repro.optimizer import optimize
from repro.storage import DAFMatrix, ShardedDisk, SimulatedDisk, make_disk
from repro.storage.faults import FaultInjector, FaultPolicy, RetryPolicy
from repro.storage.sharding import _name_base
from tests.fixtures import example1_program

P = {"n1": 2, "n2": 2, "n3": 1}


@pytest.fixture(scope="module")
def prog():
    return example1_program()


@pytest.fixture(scope="module")
def plan(prog):
    return optimize(prog, P).best()


@pytest.fixture(scope="module")
def inputs(prog):
    rng = np.random.default_rng(10)
    return {n: rng.standard_normal(prog.arrays[n].shape_elems(P))
            for n in ("A", "B", "D")}


class TestStripePlacement:
    def test_round_robin_owner(self, tmp_path):
        with ShardedDisk(tmp_path, 4, stripe_bytes=1024) as disk:
            f = disk.open("x")
            base = _name_base("x") % 4
            owners = [f.owner(s) for s in range(8)]
            assert owners == [(base + s) % 4 for s in range(8)]
            assert sorted(set(owners)) == [0, 1, 2, 3]

    def test_segments_split_at_stripe_boundaries(self, tmp_path):
        with ShardedDisk(tmp_path, 2, stripe_bytes=1024) as disk:
            f = disk.open("x")
            segs = f.segments(512, 2048)  # spans stripes 0,1,2
            assert [(o, n) for _, o, n in segs] == \
                [(512, 512), (1024, 1024), (2048, 512)]
            assert sum(n for _, _, n in segs) == 2048
            # round-robin at n=2: adjacent stripes alternate shards
            shards = [s for s, _, _ in segs]
            assert shards[0] != shards[1] and shards[1] != shards[2]

    def test_single_shard_coalesces_to_one_segment(self, tmp_path):
        with ShardedDisk(tmp_path, 1, stripe_bytes=1024) as disk:
            f = disk.open("x")
            assert len(f.segments(100, 10_000)) == 1

    def test_interior_segments_are_whole_stripes(self, tmp_path):
        with ShardedDisk(tmp_path, 4, stripe_bytes=512) as disk:
            f = disk.open("x")
            segs = f.segments(0, 512 * 6)
            assert all(n == 512 for _, _, n in segs)

    def test_roundtrip_bytes_any_alignment(self, tmp_path):
        payload = bytes(range(256)) * 40  # 10240 B
        with ShardedDisk(tmp_path, 3, stripe_bytes=1024) as disk:
            f = disk.open("x")
            f.write_at(777, payload)
            assert f.read_at(777, len(payload)) == payload
            assert f.size() == 777 + len(payload)

    def test_make_disk_dispatch(self, tmp_path):
        with make_disk(tmp_path / "one") as d1:
            assert isinstance(d1, SimulatedDisk)
        with make_disk(tmp_path / "four", 4) as d4:
            assert isinstance(d4, ShardedDisk)
            assert d4.nshards == 4

    def test_nshards_validated(self, tmp_path):
        with pytest.raises(StorageError):
            ShardedDisk(tmp_path, 0)

    def test_make_disk_rejects_zero_shards(self, tmp_path):
        with pytest.raises(StorageError, match="shards"):
            make_disk(tmp_path, 0)


class TestDAFParity:
    """Satellite 3: byte-identical round-trip with identical logical I/O
    counts for n in {1, 2, 4} versus a plain single disk."""

    @pytest.mark.parametrize("nshards", [1, 2, 4])
    def test_matrix_roundtrip_matches_single_disk(self, tmp_path, nshards):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((120, 80))

        with SimulatedDisk(tmp_path / "base") as disk:
            a = DAFMatrix.create(disk, "A", (2, 2), (60, 40))
            a.write_matrix(m, count=True)
            back_base = a.read_matrix(count=True)
            base = disk.stats.snapshot()

        with make_disk(tmp_path / f"s{nshards}", nshards) as disk:
            a = DAFMatrix.create(disk, "A", (2, 2), (60, 40))
            a.write_matrix(m, count=True)
            back = a.read_matrix(count=True)
            sharded = disk.stats.snapshot()
            phys_read = sum(s.read_bytes for s in disk.shard_stats()) \
                if nshards > 1 else sharded.read_bytes

        assert np.array_equal(back, m)
        assert np.array_equal(back, back_base)
        assert base.read_bytes > 0 and base.read_ops > 0  # not vacuous
        # Logical (single-disk-equivalent) accounting is identical.
        for f in ("read_bytes", "write_bytes", "read_ops", "write_ops"):
            assert getattr(sharded, f) == getattr(base, f), f
        # Physical segment traffic partitions the logical bytes.
        assert phys_read == base.read_bytes

    def test_exists_and_recover_fan_out(self, tmp_path):
        with make_disk(tmp_path, 2, atomic_writes=True) as disk:
            f = disk.open("x")
            f.write_at(0, b"z" * 200_000)
            assert disk.exists("x")
            assert not disk.exists("y")
            assert disk.recover() == 0
            assert disk.pending_undos() == []


    @pytest.mark.parametrize("nshards", [1, 2])
    def test_remove_deletes_one_store_everywhere(self, tmp_path, nshards):
        """Data, sidecar and pending-undo files of the named store go, on
        every shard; a store whose name merely starts the same stays."""
        always = FaultInjector(seed=1, policies=[
            FaultPolicy(match="j__C.daf", op="write", transient=1.0)])
        with make_disk(tmp_path, nshards, stripe_bytes=4096,
                       atomic_writes=True, fault_injector=always,
                       retry=RetryPolicy(max_retries=0)) as disk:
            for name in ("j__C", "j__C2"):
                DAFMatrix.create(disk, name, (2, 2), (60, 40)).preallocate()
            with pytest.raises(StorageError):  # leaves an undo record
                DAFMatrix.open(disk, "j__C").write_block(
                    (0, 0), np.ones((60, 40)))
            assert disk.pending_undos()
            DAFMatrix.remove(disk, "j__C")
            assert disk.pending_undos() == []
            left = {p.name.split(".")[0] for p in tmp_path.rglob("*")
                    if p.is_file()}
            assert left == {"j__C2"}
            assert not disk.exists("j__C.daf")
            # The name is reusable: no stale handle is served.
            again = DAFMatrix.create(disk, "j__C", (2, 2), (60, 40))
            again.preallocate()
            assert not again.read_block((1, 1)).any()


class TestShardFaultDomains:
    def test_fault_confined_to_one_shard(self, tmp_path):
        inj = FaultInjector(11, [FaultPolicy(transient=0.4)])
        with ShardedDisk(tmp_path, 2, fault_injectors=[inj, None],
                         retry=RetryPolicy(max_retries=6)) as disk:
            f = disk.open("x")
            data = b"q" * (512 << 10)
            f.write_at(0, data)
            assert f.read_at(0, len(data)) == data
            s0, s1 = disk.shard_stats()
            assert s0.retries > 0       # the faulty shard retried
            assert s1.retries == 0      # its peer never saw a fault
            # Shard retries are mirrored up into the logical stats.
            assert disk.stats.retries == s0.retries

    def test_injector_and_injectors_mutually_exclusive(self, tmp_path):
        inj = FaultInjector(1, [FaultPolicy(transient=0.1)])
        with pytest.raises(StorageError):
            ShardedDisk(tmp_path, 2, fault_injector=inj,
                        fault_injectors=[inj, None])

    def test_injectors_length_must_match(self, tmp_path):
        inj = FaultInjector(1, [FaultPolicy(transient=0.1)])
        with pytest.raises(StorageError):
            ShardedDisk(tmp_path, 4, fault_injectors=[inj, None])


class TestRunProgramOnShards:
    def test_execution_parity_across_shard_counts(self, prog, plan, inputs,
                                                  tmp_path_factory):
        base_report, base_out = run_program(
            prog, P, plan, tmp_path_factory.mktemp("s1"), inputs)
        for n in (2, 4):
            report, out = run_program(
                prog, P, plan, make_disk(tmp_path_factory.mktemp(f"s{n}"), n,
                                         stripe_bytes=8192), inputs)
            assert np.array_equal(out["E"], base_out["E"])
            assert report.io.read_bytes == base_report.io.read_bytes
            assert report.io.write_bytes == base_report.io.write_bytes
            assert report.io.read_ops == base_report.io.read_ops

    def test_confined_fault_with_prefetch(self, prog, plan, inputs,
                                          tmp_path):
        inj = FaultInjector(7, [FaultPolicy(transient=0.3)])
        report, out = run_program(
            prog, P, plan,
            make_disk(tmp_path, 2, fault_injectors=[inj, None],
                      retry=RetryPolicy(max_retries=6)),
            inputs, prefetch_depth=4)
        truth = (inputs["A"] + inputs["B"]) @ inputs["D"]
        assert np.allclose(out["E"], truth)
        assert report.io.retries > 0

    def test_per_shard_faults_require_shards(self, prog, plan, inputs,
                                             tmp_path):
        inj = FaultInjector(7, [FaultPolicy(transient=0.3)])
        with pytest.raises(StorageError):
            make_disk(tmp_path, fault_injectors=[inj, None])

    def test_checkpoint_resume_over_shards(self, prog, plan, inputs,
                                           tmp_path):
        # Same checkpoint/resume contract as a single disk: a clean rerun
        # with resume=True replays the journal instead of recomputing.
        report1, out1 = run_program(
            prog, P, plan, make_disk(tmp_path, 2, atomic_writes=True),
            inputs, checkpoint=True)
        report2, out2 = run_program(
            prog, P, plan, make_disk(tmp_path, 2, atomic_writes=True),
            inputs, checkpoint=True, resume=True)
        assert np.array_equal(out1["E"], out2["E"])
        assert report2.resumed_from is not None


class TestPaceChannels:
    def test_single_channel_serializes_paced_io(self, tmp_path):
        # Behavioral contract only (timing asserted in the benchmark):
        # a channel-limited disk still produces correct bytes.
        with SimulatedDisk(tmp_path, pace=0.0, pace_channels=1) as disk:
            f = disk.open("x")
            f.write_at(0, b"ab" * 1000)
            assert f.read_at(0, 2000) == b"ab" * 1000

    def test_sharded_pace_channels_per_shard(self, tmp_path):
        with ShardedDisk(tmp_path, 2, pace=0.0, pace_channels=1) as disk:
            for sh in disk.shards:
                assert sh._pace_sem is not None
            f = disk.open("x")
            f.write_at(0, b"y" * 300_000)
            assert f.read_at(0, 300_000) == b"y" * 300_000
