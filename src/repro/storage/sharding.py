"""Sharded disk: stripe one logical store across N independent disks.

The paper's cost model — and everything built on it — assumes one disk.
The service's north star is hardware-speed I/O under heavy concurrent
traffic, and one spindle (or one NVMe channel) is the first wall: N
independent devices move N blocks at once.  :class:`ShardedDisk` raises
the stack onto that hardware shape without changing a single caller:

* it presents the exact :class:`~repro.storage.disk.SimulatedDisk`
  surface (``open``/``exists``/``stats``/``recover``/``close``), so
  DAF stores, the buffer pool, prefetch staging,
  checkpoint/resume and the advisor all compose unchanged;
* every logical file is **striped**: byte stripe ``s`` of file ``name``
  lives on shard ``(H(name) + s) mod N`` — deterministic placement keyed
  by the file name plus the linear stripe index, so re-opening a store
  finds its blocks without any mapping metadata (the service's datasets
  are extents of one catalog file, spread over its stripes);
* each shard is a full :class:`SimulatedDisk` with its **own** fault
  injector, retry budget, pacing channel and undo-record log — fault
  domains are per shard, and :meth:`recover` fans out to every one;
* a logical transfer spanning multiple shards issues its per-shard
  segments **in parallel**, so a striped run-read overlaps N physical
  transfers the way a RAID-0 read would.

Accounting is two-level by design.  ``ShardedDisk.stats`` counts
*logical* operations — one counted ``read_at`` is one logical op of its
full size, exactly what a single :class:`SimulatedDisk` would have
counted, so plans, cost-model validation and per-job attribution are
byte- and count-identical across shard counts.  Each shard's own
``stats`` counts the *physical* segment transfers it served (its fault
retries are mirrored up into the logical ``retries`` total so absorbed
faults stay visible in one place).
"""

from __future__ import annotations

import hashlib
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from ..cancel import current_interrupt, set_interrupt
from ..exceptions import StorageError
from ..obs import metrics as obs_metrics
from ..optimizer.costing import IOModel
from .disk import _BYTE_BUCKETS, IOStats, SimulatedDisk
from .faults import FaultInjector, RetryPolicy

__all__ = ["ShardedDisk", "ShardedFile", "make_disk", "DEFAULT_STRIPE_BYTES"]

#: Default stripe unit.  Small enough that a batched run-read of a few
#: blocks spans shards (intra-operation parallelism), large enough that a
#: single block read stays a single physical transfer.
DEFAULT_STRIPE_BYTES = 64 << 10


def _name_base(name: str) -> int:
    """Stable placement origin for one file name.

    blake2b keeps placement stable across processes (``hash()`` is salted
    per interpreter).
    """
    return int.from_bytes(
        hashlib.blake2b(name.encode(), digest_size=8).digest(), "big")


def make_disk(root, shards: int = 1, *, io_model: IOModel | None = None,
              fault_injector: FaultInjector | None = None,
              fault_injectors: "list[FaultInjector | None] | None" = None,
              retry: RetryPolicy | None = None,
              atomic_writes: bool | None = None, fsync: bool = False,
              pace: float = 0.0, pace_channels: int | None = None,
              stripe_bytes: int | None = None):
    """The one place a run's storage is configured: a plain
    :class:`SimulatedDisk` for ``shards == 1`` (no striping layer at all),
    else a :class:`ShardedDisk`, whose faults ``fault_injectors`` may
    confine per shard.  ``ArrayService`` and ``run_program`` run on it.
    ``atomic_writes`` defaults on exactly when a fault injector is given:
    the undo records roll back the writes a fault tears.
    """
    if shards < 1:
        raise StorageError(f"shards must be >= 1, got {shards}")
    if fault_injectors is not None and shards == 1:
        raise StorageError("per-shard fault injectors need shards > 1")
    if atomic_writes is None:
        atomic_writes = fault_injector is not None \
            or fault_injectors is not None
    kw = dict(io_model=io_model, fault_injector=fault_injector, retry=retry,
              atomic_writes=atomic_writes, fsync=fsync, pace=pace,
              pace_channels=pace_channels)
    if shards == 1:
        return SimulatedDisk(root, **kw)
    return ShardedDisk(root, shards, fault_injectors=fault_injectors,
                       stripe_bytes=DEFAULT_STRIPE_BYTES
                       if stripe_bytes is None else stripe_bytes, **kw)


class ShardedDisk:
    """N independent :class:`SimulatedDisk` shards behind one store API."""

    def __init__(self, root: str | os.PathLike, nshards: int,
                 io_model: IOModel | None = None,
                 fault_injector: FaultInjector | None = None,
                 fault_injectors: "list[FaultInjector | None] | None" = None,
                 retry: RetryPolicy | None = None,
                 atomic_writes: bool = False, fsync: bool = False,
                 pace: float = 0.0, pace_channels: int | None = None,
                 stripe_bytes: int = DEFAULT_STRIPE_BYTES):
        if nshards < 1:
            raise StorageError("nshards must be >= 1")
        if stripe_bytes < 1:
            raise StorageError("stripe_bytes must be >= 1")
        if fault_injector is not None and fault_injectors is not None:
            raise StorageError(
                "pass fault_injector (every shard) or fault_injectors "
                "(per shard), not both")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.io_model = io_model or IOModel()
        self.retry = retry or RetryPolicy()
        self.atomic_writes = atomic_writes
        self.pace = float(pace)
        self.stripe_bytes = int(stripe_bytes)
        self.nshards = int(nshards)
        if fault_injectors is None:
            # A single injector is shared by every shard, mirroring the
            # single-disk contract; a list confines faults to the shards
            # that carry one (the per-shard fault-domain knob).
            fault_injectors = [fault_injector] * self.nshards
        if len(fault_injectors) != self.nshards:
            raise StorageError(
                f"{len(fault_injectors)} fault injectors for "
                f"{self.nshards} shards")
        self.fault_injectors = list(fault_injectors)
        # Each shard paces on its own channel: N shards really do move N
        # transfers at once, which is the whole point of striping.
        self.shards = [
            SimulatedDisk(self.root / f"shard{i}", self.io_model,
                          fault_injector=self.fault_injectors[i],
                          retry=self.retry, atomic_writes=atomic_writes,
                          fsync=fsync, pace=pace,
                          pace_channels=pace_channels)
            for i in range(self.nshards)]
        # Logical (single-disk-equivalent) accounting.
        self.stats = IOStats()
        registry = obs_metrics.CURRENT
        self._hist_read = self._hist_write = None
        if registry is not None:
            label = registry.seq("sharded_disk")
            self.stats.bind(registry, disk=label, shards=str(self.nshards))
            self._hist_read = registry.histogram(
                "repro_disk_op_bytes", buckets=_BYTE_BUCKETS,
                op="read", disk=label)
            self._hist_write = registry.histogram(
                "repro_disk_op_bytes", buckets=_BYTE_BUCKETS,
                op="write", disk=label)
        # Absorbed shard retries surface in the logical totals too — one
        # place to look, same place a single disk reports them.
        for shard in self.shards:
            shard.stats.mirror = (self.stats, ("retries",))
        self._files: dict[str, ShardedFile] = {}
        self._open_lock = threading.Lock()
        self._pool: ThreadPoolExecutor | None = None
        self._closed = False

    # -- fan-out machinery ---------------------------------------------------

    def _executor(self) -> ThreadPoolExecutor:
        with self._open_lock:
            if self._pool is None:
                # Sized so several concurrent logical ops can each fan out
                # across every shard without convoying behind one another;
                # pacing is governed by the per-shard channels, not here.
                self._pool = ThreadPoolExecutor(
                    max_workers=4 * self.nshards,
                    thread_name_prefix="repro-shard")
            return self._pool

    def fan_out(self, tasks):
        """Run shard-segment thunks, in parallel when there are several.

        The caller's cancellation interrupt propagates into the pool
        threads so a cancelled job's shard retry backoffs cut short
        exactly as they would on the calling thread.
        """
        if len(tasks) == 1:
            return [tasks[0]()]
        interrupt = current_interrupt()

        def run(task):
            prev = current_interrupt()
            set_interrupt(interrupt)
            try:
                return task()
            finally:
                set_interrupt(prev)

        futures = [self._executor().submit(run, t) for t in tasks]
        # Collect every outcome before raising: a failed segment must not
        # leave siblings racing a caller that already unwound.
        outcomes = []
        for f in futures:
            try:
                outcomes.append((True, f.result()))
            except BaseException as err:  # noqa: BLE001 - re-raised below
                outcomes.append((False, err))
        for ok, out in outcomes:
            if not ok:
                raise out
        return [out for _, out in outcomes]

    # -- SimulatedDisk surface -----------------------------------------------

    def open(self, name: str) -> "ShardedFile":
        with self._open_lock:
            if self._closed:
                raise StorageError("disk is closed")
            if name not in self._files:
                self._files[name] = ShardedFile(self, name)
            return self._files[name]

    def exists(self, name: str) -> bool:
        return any(shard.exists(name) for shard in self.shards)

    def remove(self, name: str) -> None:
        """Close and delete file ``name`` on **every** shard."""
        with self._open_lock:
            self._files.pop(name, None)
        for shard in self.shards:
            shard.remove(name)

    def simulated_seconds(self, stats: IOStats | None = None) -> float:
        s = stats or self.stats
        return self.io_model.seconds(s.read_bytes, s.write_bytes)

    def pace_sleep(self, read_bytes: int = 0, write_bytes: int = 0) -> None:
        """No-op: pacing happens on the shards' own channels, in parallel."""

    def pending_undos(self) -> list[Path]:
        out: list[Path] = []
        for shard in self.shards:
            out.extend(shard.pending_undos())
        return out

    def recover(self, match=None) -> int:
        """Roll back interrupted writes on **every** shard."""
        return sum(shard.recover(match) for shard in self.shards)

    def close(self) -> None:
        with self._open_lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        self._files.clear()
        for shard in self.shards:
            shard.close()

    def __enter__(self) -> "ShardedDisk":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- introspection -------------------------------------------------------

    def shard_stats(self) -> list[IOStats]:
        """Physical per-shard counters (segment transfers, retries)."""
        return [shard.stats for shard in self.shards]

    def __repr__(self) -> str:
        return (f"ShardedDisk({self.root}, shards={self.nshards}, "
                f"stripe={self.stripe_bytes}B, {self.stats!r})")


class ShardedFile:
    """One logical file striped across the shards; positional + counted.

    Presents the :class:`~repro.storage.disk.DiskFile` surface, ``name``
    included: a segment reaches its shard's fault injector under the
    caller's store name.  Stripes
    keep their **global** offsets inside each shard's backing file (the
    files are sparse where other shards own the bytes), so shard-local
    addressing is the identity and undo records survive re-sharding-free
    recovery.  One counted logical op = one increment of the sharded
    disk's logical ``stats``, however many physical segments it fanned
    into; the segments themselves are counted ops *on their shards* —
    that is where fault injection, retry, pacing and the physical byte
    counters live.
    """

    __slots__ = ("disk", "name", "path", "_base", "_shard_files")

    def __init__(self, disk: ShardedDisk, name: str):
        self.disk = disk
        self.name = name
        # .path.name is what fault policies and undo bookkeeping match on.
        self.path = disk.root / name
        self._base = _name_base(name)
        self._shard_files = [shard.open(name) for shard in disk.shards]

    # -- stripe arithmetic ---------------------------------------------------

    def owner(self, stripe: int) -> int:
        """Deterministic stripe placement: file-name hash + index."""
        return (self._base + stripe) % self.disk.nshards

    def segments(self, offset: int, size: int) -> list[tuple[int, int, int]]:
        """Split ``[offset, offset+size)`` into ``(shard, offset, size)``
        runs, coalescing adjacent stripes that land on the same shard (a
        1-shard disk always coalesces to a single segment)."""
        unit = self.disk.stripe_bytes
        end = offset + size
        segs: list[list[int]] = []
        pos = offset
        while pos < end:
            stripe = pos // unit
            seg_end = min(end, (stripe + 1) * unit)
            shard = self.owner(stripe)
            if segs and segs[-1][0] == shard \
                    and segs[-1][1] + segs[-1][2] == pos:
                segs[-1][2] += seg_end - pos
            else:
                segs.append([shard, pos, seg_end - pos])
            pos = seg_end
        return [tuple(s) for s in segs]

    # -- counted positional I/O ----------------------------------------------

    def read_at(self, offset: int, size: int, count: bool = True,
                name: str | None = None) -> bytes:
        if offset < 0 or size < 0:
            raise StorageError(f"bad read range offset={offset} size={size}")
        segs = self.segments(offset, size)
        if not segs:
            data = b""
        elif len(segs) == 1:
            shard, off, n = segs[0]
            data = self._shard_files[shard].read_at(off, n, count=count,
                                                    name=name)
        else:
            parts = self.disk.fan_out([
                (lambda s=shard, o=off, n=n:
                 self._shard_files[s].read_at(o, n, count=count, name=name))
                for shard, off, n in segs])
            data = b"".join(parts)
        if count:
            self.disk.stats.add(read_bytes=size, read_ops=1)
            if self.disk._hist_read is not None:
                self.disk._hist_read.observe(size)
        return data

    def write_at(self, offset: int, data: bytes, count: bool = True,
                 atomic: bool | None = None, name: str | None = None) -> None:
        if offset < 0:
            raise StorageError(f"bad write offset {offset}")
        segs = self.segments(offset, len(data))
        if len(segs) == 1:
            shard, off, n = segs[0]
            self._shard_files[shard].write_at(off, data, count=count,
                                              atomic=atomic, name=name)
        elif segs:
            self.disk.fan_out([
                (lambda s=shard, o=off, n=n:
                 self._shard_files[s].write_at(
                     o, data[o - offset:o - offset + n], count=count,
                     atomic=atomic, name=name))
                for shard, off, n in segs])
        if count:
            self.disk.stats.add(write_bytes=len(data), write_ops=1)
            if self.disk._hist_write is not None:
                self.disk._hist_write.observe(len(data))

    # -- metadata ------------------------------------------------------------

    def size(self) -> int:
        # Stripes sit at global offsets, so the logical extent is the
        # furthest any shard's backing file reaches.
        return max(f.size() for f in self._shard_files)

    def truncate(self, size: int) -> None:
        for f in self._shard_files:
            f.truncate(size)

    def flush(self) -> None:
        for f in self._shard_files:
            f.flush()

    def close(self) -> None:
        for f in self._shard_files:
            f.close()
