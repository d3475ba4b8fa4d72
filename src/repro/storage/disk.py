"""Simulated disk: real files + byte-accurate I/O accounting.

Replaces the paper's instrumented hard drive (substitution #2 in DESIGN.md):
every byte moved through this layer is counted, and volumes are converted to
simulated seconds with the same linear bandwidth model the paper measured
(96 MB/s sustained reads, 60 MB/s writes).  Data really is written to and
read from the filesystem, so executions are faithful end to end; only the
*timing* is modelled rather than waited for.

Durability (this layer's contract under injected faults, see
``repro.storage.faults``):

* transient faults raised by the :class:`FaultInjector` are absorbed with
  bounded exponential-backoff retries (``IOStats.retries``); exhaustion
  surfaces as a plain :class:`StorageError`;
* with ``atomic_writes`` enabled, every counted write first publishes an
  *undo record* — the about-to-be-overwritten bytes staged to a temp file
  and ``os.rename``d into place (the rename is the atomic commit point,
  optionally fsynced).  A write that dies after exhausting its retries
  leaves the undo record behind; :meth:`SimulatedDisk.recover` rolls the
  torn region back to its pre-write image, so a crashed run restarts from
  a consistent store.
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path

from ..exceptions import StorageError, TransientIOError
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..optimizer.costing import IOModel
from .faults import FaultInjector, RetryPolicy

__all__ = ["IOStats", "SimulatedDisk", "DiskFile"]

_UNDO_SUFFIX = ".undo"

# Histogram bucket bounds for counted-op payload sizes (bytes).
_BYTE_BUCKETS = (4096, 65536, 1 << 20, 4 << 20, 16 << 20, 64 << 20)


class IOStats(obs_metrics.StatFields):
    """Byte and operation counters for one disk.

    Every public field is a thin view over a
    :class:`repro.obs.metrics.Counter`; :meth:`bind` adopts those counters
    into a metrics registry (done automatically by :class:`SimulatedDisk`
    when a registry is installed), so the same numbers the engine asserts
    on are the numbers the exposition dump shows.
    """

    _FIELDS = _COUNTERS = ("read_bytes", "write_bytes", "read_ops",
                           "write_ops", "retries", "checksum_failures")

    __slots__ = tuple("_" + f for f in _FIELDS) + ("_lock", "_local",
                                                   "mirror")

    def __init__(self):
        self._init_stats("repro_io_")
        self._lock = threading.Lock()
        self._local = threading.local()
        # Optional (target IOStats, field-name tuple): deltas to the named
        # fields are forwarded to the target as well.  A sharded disk sets
        # this on each shard so absorbed shard retries surface in the
        # logical aggregate alongside the logical op counts.
        self.mirror: "tuple[IOStats, tuple[str, ...]] | None" = None

    def add(self, **deltas: int) -> None:
        """Atomically accumulate counter deltas (``add(read_bytes=n, ...)``).

        Concurrent executors sharing one disk (:mod:`repro.service`) hammer
        these counters from many threads; the plain ``stats.field += n``
        property path is a read-modify-write that loses increments under
        contention, so every counted-op hot path goes through here.
        """
        with self._lock:
            for f, n in deltas.items():
                counter = getattr(self, "_" + f)
                counter.value += n
        mine = self._local.__dict__
        for f, n in deltas.items():
            mine[f] = mine.get(f, 0) + n
        if self.mirror is not None:
            target, fields = self.mirror
            fwd = {f: n for f, n in deltas.items() if f in fields and n}
            if fwd:
                target.add(**fwd)

    def thread_value(self, field: str) -> int:
        """Cumulative amount *this thread* has added to ``field``.

        Per-access attribution (the engine's ``exec.io`` deltas) measures a
        counter before and after one call; against the shared totals that
        measurement tears as soon as prefetch readers or concurrent
        executors count in between.  Per-thread views make the delta exact
        regardless of what other threads do.
        """
        return self._local.__dict__.get(field, 0)

    def reset(self) -> None:
        with self._lock:
            for f in self._FIELDS:
                getattr(self, "_" + f).value = 0

    def snapshot(self) -> "IOStats":
        s = IOStats()
        with self._lock:
            for f in self._FIELDS:
                setattr(s, f, getattr(self, f))
        return s

    def since(self, other: "IOStats") -> "IOStats":
        """Delta relative to an earlier snapshot, as a fresh ``IOStats``.

        Reads through :meth:`snapshot` so the six fields come from one
        consistent point in time — unlocked field-by-field reads tear
        per-job deltas when concurrent executors are still counting.
        """
        now = self.snapshot()
        s = IOStats()
        for f in self._FIELDS:
            setattr(s, f, getattr(now, f) - getattr(other, f))
        return s

    def __repr__(self) -> str:
        extra = ""
        if self.retries or self.checksum_failures:
            extra = (f", retries={self.retries}, "
                     f"checksum_failures={self.checksum_failures}")
        return (f"IOStats(read={self.read_bytes}B/{self.read_ops}ops, "
                f"write={self.write_bytes}B/{self.write_ops}ops{extra})")


class SimulatedDisk:
    """A directory of flat files with centralized I/O accounting."""

    def __init__(self, root: str | os.PathLike, io_model: IOModel | None = None,
                 fault_injector: FaultInjector | None = None,
                 retry: RetryPolicy | None = None,
                 atomic_writes: bool = False, fsync: bool = False,
                 pace: float = 0.0, pace_channels: int | None = None):
        # ``pace``: opt-in wall-clock pacing — sleep this fraction of the
        # modeled seconds after every successful counted op.  The default 0
        # keeps timing modeled-but-never-waited-for; the prefetch overlap
        # benchmark sets pace=1.0 so I/O-compute overlap shows up in wall
        # time the way it would against the paper's physical disk.
        # ``pace_channels``: cap on how many paced transfers proceed at
        # once.  ``None`` (default) keeps the historical unbounded pacing —
        # every thread sleeps its own modeled time in parallel, a device
        # with infinite channels.  Setting 1 models a single spindle/NVMe
        # channel whose transfers serialize, which is what makes striping
        # across shards (each with its own channel) a real throughput win.
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.io_model = io_model or IOModel()
        self.stats = IOStats()
        # Metrics (off unless a registry is installed): adopt the stats
        # counters as labeled series and keep per-op payload histograms.
        registry = obs_metrics.CURRENT
        self._hist_read = self._hist_write = None
        if registry is not None:
            label = registry.seq("disk")
            self.stats.bind(registry, disk=label)
            self._hist_read = registry.histogram(
                "repro_disk_op_bytes", buckets=_BYTE_BUCKETS,
                op="read", disk=label)
            self._hist_write = registry.histogram(
                "repro_disk_op_bytes", buckets=_BYTE_BUCKETS,
                op="write", disk=label)
        self.fault_injector = fault_injector
        self.retry = retry or RetryPolicy()
        self.atomic_writes = atomic_writes
        self.fsync = fsync
        self.pace = float(pace)
        self.pace_channels = pace_channels
        self._pace_sem = (threading.BoundedSemaphore(pace_channels)
                          if pace_channels and pace_channels > 0 else None)
        self._files: dict[str, DiskFile] = {}
        self._open_lock = threading.Lock()
        self._closed = False

    def open(self, name: str) -> "DiskFile":
        # Serialized: concurrent executors opening the same store must share
        # one DiskFile (one descriptor), not race two handles into being.
        with self._open_lock:
            if self._closed:
                raise StorageError("disk is closed")
            if name not in self._files:
                self._files[name] = DiskFile(self, self.root / name)
            return self._files[name]

    def exists(self, name: str) -> bool:
        return (self.root / name).exists()

    def remove(self, name: str) -> None:
        """Close and delete file ``name`` and any undo records pending
        against it."""
        with self._open_lock:
            handle = self._files.pop(name, None)
        if handle is not None:
            handle.close()
        (self.root / name).unlink(missing_ok=True)
        # Undo records exist only where counted writes staged them; without
        # atomic writes, skip listing a directory that may hold thousands
        # of datasets.
        if self.atomic_writes:
            for undo in self.root.glob(f".*{_UNDO_SUFFIX}*"):
                if undo.name.startswith(f".{name}@"):
                    undo.unlink(missing_ok=True)

    def simulated_seconds(self, stats: IOStats | None = None) -> float:
        s = stats or self.stats
        return self.io_model.seconds(s.read_bytes, s.write_bytes)

    def pace_sleep(self, read_bytes: int = 0, write_bytes: int = 0) -> None:
        """Sleep the paced fraction of the modeled transfer time (no-op at
        the default ``pace=0``).  Called outside any file lock so paced
        transfers on different threads genuinely overlap."""
        if self.pace:
            delay = self.io_model.seconds(read_bytes, write_bytes) * self.pace
            if self._pace_sem is None:
                time.sleep(delay)
            else:
                with self._pace_sem:
                    time.sleep(delay)

    # -- crash recovery ------------------------------------------------------

    def pending_undos(self) -> list[Path]:
        """Undo records left behind by writes that died mid-flight."""
        return sorted(self.root.glob(f".*{_UNDO_SUFFIX}"))

    def recover(self, match=None) -> int:
        """Roll back every interrupted write to its pre-write image.

        Call before opening stores (e.g. at the start of a resumed run):
        each surviving undo record restores the bytes the torn write
        clobbered, and stale staging temps are removed.  Returns the number
        of regions restored.

        ``match`` (a predicate on the target file name) scopes recovery to
        one job's files — a live multi-query service retrying a failed job
        must roll back *that job's* stale undos without touching undo
        records of writes other jobs have genuinely in flight.
        """
        for tmp in self.root.glob(f".*{_UNDO_SUFFIX}.tmp"):
            if match is None or match(_parse_undo_name(tmp.name[:-4])[0]):
                tmp.unlink()
        restored = 0
        for undo in self.pending_undos():
            target, offset = _parse_undo_name(undo.name)
            if match is not None and not match(target):
                continue
            path = self.root / target
            if path.exists():
                data = undo.read_bytes()
                with open(path, "r+b") as fh:
                    fh.seek(offset)
                    fh.write(data)
                    fh.flush()
                    if self.fsync:
                        os.fsync(fh.fileno())
                restored += 1
            undo.unlink()
        return restored

    def close(self) -> None:
        for f in self._files.values():
            f.close()
        self._files.clear()
        self._closed = True

    def __enter__(self) -> "SimulatedDisk":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"SimulatedDisk({self.root}, {self.stats!r})"


def _undo_name(target: str, offset: int) -> str:
    return f".{target}@{offset}{_UNDO_SUFFIX}"


def _parse_undo_name(name: str) -> tuple[str, int]:
    stem = name[1:-len(_UNDO_SUFFIX)]  # strip leading "." and suffix
    target, _, offset = stem.rpartition("@")
    return target, int(offset)


class DiskFile:
    """One file on the simulated disk; positional reads/writes, counted.

    Counted operations pass through the disk's fault injector (if any) and
    its retry policy; uncounted (metadata) operations are always clean.
    ``name`` (default: the file's own name) is what fault policies, traces
    and errors call the store an operation belongs to: a dataset in the
    catalog file keeps its own ``ds_<digest>.daf`` identity.

    Every transfer is one ``pread``/``pwrite`` on a raw descriptor, so
    concurrent readers of one file need no lock and never queue.
    """

    def __init__(self, disk: SimulatedDisk, path: Path):
        self.disk = disk
        self.path = path
        # O_CREAT creates a missing file in the same system call.  The
        # unbuffered file object only owns the descriptor: it closes it on
        # close() or, like any file, when garbage-collected unclosed.
        self._file = os.fdopen(os.open(path, os.O_RDWR | os.O_CREAT, 0o666),
                               "r+b", buffering=0)
        self._fd = self._file.fileno()

    def read_at(self, offset: int, size: int, count: bool = True,
                name: str | None = None) -> bytes:
        if offset < 0 or size < 0:
            raise StorageError(f"bad read range offset={offset} size={size}")
        name = name or self.path.name
        injector = self.disk.fault_injector if count else None
        attempt = 0
        while True:
            fault = injector.on_read(name, offset, size) \
                if injector else None
            if fault is not None and fault[0] == "transient":
                attempt += 1
                err = TransientIOError(
                    f"{name}: injected transient read fault at "
                    f"{offset} (attempt {attempt})")
                if attempt > self.disk.retry.max_retries:
                    raise StorageError(
                        f"{name}: read at {offset} failed after "
                        f"{attempt} attempts (transient I/O errors)") from err
                self.disk.stats.add(retries=1)
                tracer = obs_trace.CURRENT
                if tracer is not None:
                    tracer.instant("disk.retry", "storage", op="read",
                                   file=name, offset=offset,
                                   attempt=attempt)
                self.disk.retry.sleep(attempt)
                continue
            data = os.pread(self._fd, size, offset)
            if len(data) != size:
                raise StorageError(
                    f"{name}: short read at {offset} "
                    f"({len(data)}/{size} bytes)")
            if fault is not None and fault[0] == "corrupt":
                data = FaultInjector.corrupt(data, fault[1])
            if count:
                self.disk.stats.add(read_bytes=size, read_ops=1)
                if self.disk._hist_read is not None:
                    self.disk._hist_read.observe(size)
                tracer = obs_trace.CURRENT
                if tracer is not None:
                    tracer.instant("disk.read", "storage", file=name,
                                   offset=offset, bytes=size)
                self.disk.pace_sleep(read_bytes=size)
            return data

    def write_at(self, offset: int, data: bytes, count: bool = True,
                 atomic: bool | None = None, name: str | None = None) -> None:
        """Positional write; ``atomic`` defaults to the disk policy for
        counted writes (metadata writes are in-place, as before)."""
        if offset < 0:
            raise StorageError(f"bad write offset {offset}")
        name = name or self.path.name
        if atomic is None:
            atomic = self.disk.atomic_writes and count
        undo = self._stage_undo(offset, len(data)) if atomic else None
        # On failure the undo record deliberately survives for recover().
        self._write_retried(offset, data, count, name)
        if undo is not None:
            undo.unlink(missing_ok=True)
        if count:
            self.disk.stats.add(write_bytes=len(data), write_ops=1)
            if self.disk._hist_write is not None:
                self.disk._hist_write.observe(len(data))
            tracer = obs_trace.CURRENT
            if tracer is not None:
                tracer.instant("disk.write", "storage", file=name,
                               offset=offset, bytes=len(data))
            self.disk.pace_sleep(write_bytes=len(data))

    def _stage_undo(self, offset: int, size: int) -> Path | None:
        """Publish the pre-write image of ``[offset, offset+size)``.

        Temp-file write then ``os.rename`` — the rename is atomic on POSIX,
        so a crash leaves either no record or a complete one.  Returns
        ``None`` for writes extending the file (nothing to preserve).
        """
        current = self.size()
        if offset >= current:
            return None
        old = os.pread(self._fd, min(size, current - offset), offset)
        undo = self.path.parent / _undo_name(self.path.name, offset)
        tmp = undo.parent / (undo.name + ".tmp")
        with open(tmp, "wb") as fh:
            fh.write(old)
            fh.flush()
            if self.disk.fsync:
                os.fsync(fh.fileno())
        os.rename(tmp, undo)
        return undo

    def _pwrite(self, offset: int, data: bytes) -> None:
        view = memoryview(data)
        while view:
            n = os.pwrite(self._fd, view, offset)
            view, offset = view[n:], offset + n

    def _write_retried(self, offset: int, data: bytes, count: bool,
                       name: str) -> None:
        injector = self.disk.fault_injector if count else None
        attempt = 0
        while True:
            fault = injector.on_write(name, offset, len(data)) \
                if injector else None
            if fault is not None:
                kind, detail = fault
                if kind == "torn":
                    # A strict prefix lands before the op dies.
                    self._pwrite(offset, data[:detail])
                attempt += 1
                err = TransientIOError(
                    f"{name}: injected {kind} write fault at "
                    f"{offset} (attempt {attempt})")
                if attempt > self.disk.retry.max_retries:
                    raise StorageError(
                        f"{name}: write at {offset} failed after "
                        f"{attempt} attempts ({kind} I/O errors)") from err
                self.disk.stats.add(retries=1)
                tracer = obs_trace.CURRENT
                if tracer is not None:
                    tracer.instant("disk.retry", "storage", op="write",
                                   kind=kind, file=name,
                                   offset=offset, attempt=attempt)
                self.disk.retry.sleep(attempt)
                continue
            self._pwrite(offset, data)
            if self.disk.fsync:
                os.fsync(self._fd)
            return

    def size(self) -> int:
        return os.fstat(self._fd).st_size

    def truncate(self, size: int) -> None:
        os.ftruncate(self._fd, size)

    def flush(self) -> None:
        """Nothing to do: every write went straight to the kernel."""

    def close(self) -> None:
        self._file.close()
