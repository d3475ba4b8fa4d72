"""DAF — Directly Addressable File (RIOTStore [26]).

RIOTStore's dense format, and the only store format here: one flat file
per matrix, blocks at computed offsets (column-major block order,
column-major elements within a block, no stored indexes).  Reads and writes are whole blocks, the
program's unit of I/O.

A store (``DAF2``) is a 64-byte header, the data, then one tagged uint64
checksum per block (see :class:`~repro.storage.blocks.BlockChecksums`),
addressed from a ``base`` offset: a standalone store is the extent
``[0, size)`` of its own file, and a dataset of a :class:`DatasetCatalog`
is an extent of the disk's one catalog file.  The two-file ``DAF1``
layout is refused, not migrated.
"""

from __future__ import annotations

import struct
import threading
from typing import Sequence

import numpy as np

from ..exceptions import StorageError
from ..obs import trace as obs_trace
from .blocks import BlockChecksums, BlockLayout, read_block_verified
from .disk import SimulatedDisk

__all__ = ["DAFMatrix", "DatasetCatalog"]

_MAGIC = b"DAF2"
_OLD_MAGIC = b"DAF1"
_HEADER_BYTES = 64


def _file_bytes(layout: BlockLayout) -> int:
    return (_HEADER_BYTES + layout.total_bytes
            + BlockChecksums.SLOT_BYTES * layout.num_blocks)


class DAFMatrix:
    """A dense blocked matrix stored in a directly addressable file.

    A tiny fixed header records the geometry so stores are self-describing;
    header I/O is not counted against the plan (metadata, not data).  Every
    block write records a checksum in the table after the data region and
    every read verifies it (see
    :func:`~repro.storage.blocks.read_block_verified`).

    The store occupies ``[base, base + size)`` of ``file``: by default its
    own ``<name>.daf`` from offset 0, or an extent a
    :class:`DatasetCatalog` carved.  Either way fault policies, traces and
    errors name it ``<name>.daf``.
    """

    def __init__(self, disk: SimulatedDisk, name: str, layout: BlockLayout,
                 file=None, base: int = 0):
        self.disk = disk
        self.name = name
        self.layout = layout
        self.file_name = name + ".daf"
        self.file = file if file is not None else disk.open(self.file_name)
        self.base = base
        self._data = base + _HEADER_BYTES
        self.checksums = BlockChecksums(self.file, layout.num_blocks,
                                        base=self._data + layout.total_bytes)

    # -- lifecycle ----------------------------------------------------------

    @classmethod
    def create(cls, disk: SimulatedDisk, name: str, grid: Sequence[int],
               block_shape: Sequence[int], dtype=np.float64, file=None,
               base: int = 0) -> "DAFMatrix":
        """A new store in its own file, or (given ``file``) in the extent
        at ``base`` of it, which the caller has sized and left reading as
        zeros."""
        layout = BlockLayout(grid, block_shape, dtype)
        if layout.rank != 2:
            raise StorageError("DAF stores 2-d matrices")
        own = file is None
        if own:
            file = disk.open(name + ".daf")
            # Start from an empty file, so no data or checksum of an
            # earlier store of the same name survives; then size it, so
            # short-read errors surface early and the checksum table starts
            # empty.  A new file is already empty: truncating it to 0
            # anyway would make ext4 (auto_da_alloc) start writing it back
            # on close.
            if file.size():
                file.truncate(0)
        vals = np.array([*layout.grid, *layout.block_shape,
                         layout.dtype.itemsize, 0, 0], dtype=np.int64)
        header = _MAGIC + vals.tobytes()
        file.write_at(base, header + b"\0" * (_HEADER_BYTES - len(header)),
                      count=False)
        if own:
            file.truncate(_file_bytes(layout))
        return cls(disk, name, layout, file, base)

    @classmethod
    def open(cls, disk: SimulatedDisk, name: str, file=None,
             base: int = 0) -> "DAFMatrix":
        """Reopen store ``name``: its own file, or the extent at ``base``
        of ``file``."""
        if file is None:
            file = disk.open(name + ".daf")
        header = file.read_at(base, _HEADER_BYTES, count=False)
        if header[:4] == _OLD_MAGIC:
            raise StorageError(
                f"{name}: a DAF1 store (checksums in a separate sidecar "
                f"file); this version reads only the one-file DAF2 layout, "
                f"so recreate the store")
        if header[:4] != _MAGIC:
            raise StorageError(f"{name}: not a DAF file")
        vals = np.frombuffer(header[4:60], dtype=np.int64)
        grid = (int(vals[0]), int(vals[1]))
        block_shape = (int(vals[2]), int(vals[3]))
        itemsize = int(vals[4])
        dtype = {8: np.float64, 4: np.float32}.get(itemsize)
        if dtype is None:
            raise StorageError(f"{name}: unsupported itemsize {itemsize}")
        layout = BlockLayout(grid, block_shape, dtype)
        if file.size() < base + _file_bytes(layout):
            raise StorageError(
                f"{name}: file is {file.size()} bytes, shorter than the "
                f"{base + _file_bytes(layout)} its header declares")
        return cls(disk, name, layout, file, base)

    @classmethod
    def remove(cls, disk: SimulatedDisk, name: str) -> None:
        """Delete store ``name``'s file."""
        disk.remove(name + ".daf")

    # -- block I/O -------------------------------------------------------------

    def write_block(self, coords: Sequence[int], block: np.ndarray,
                    count: bool = True) -> None:
        index = self.layout.linearize(coords)
        offset = self._data + index * self.layout.block_bytes
        data = self.layout.block_to_bytes(block)
        self.file.write_at(offset, data, count=count, name=self.file_name)
        self.checksums.record(index, data)

    def read_block(self, coords: Sequence[int], count: bool = True) -> np.ndarray:
        index = self.layout.linearize(coords)
        offset = self._data + index * self.layout.block_bytes
        data = read_block_verified(self.file, offset, self.layout.block_bytes,
                                   self.checksums, index, self.name, coords,
                                   count=count, file_name=self.file_name)
        return self.layout.bytes_to_block(data)

    def read_block_run(self, start_coords: Sequence[int], nblocks: int,
                       count: bool = True) -> tuple[list[np.ndarray], list[int]]:
        """Read ``nblocks`` consecutive blocks with one counted seek+transfer.

        Blocks are contiguous on disk in linear (column-major) order, so a
        run starting at ``start_coords`` costs one seek plus one
        ``nblocks * block_bytes`` transfer instead of ``nblocks`` separate
        ops — the batched path the prefetch pipeline uses for contiguous
        plan runs.  Each block is still checksum-verified individually; a
        mismatching block is healed through the ordinary retried
        :meth:`read_block` path (or raises
        :class:`~repro.exceptions.CorruptBlockError` if the corruption is
        persistent), and the healing re-read's bytes are returned per block
        in ``extra`` so callers can attribute them to the right access.
        """
        bb = self.layout.block_bytes
        start = self.layout.linearize(start_coords)
        if nblocks < 1 or start + nblocks > self.layout.num_blocks:
            raise StorageError(
                f"{self.name}: run of {nblocks} blocks from {tuple(start_coords)} "
                f"exceeds grid {self.layout.grid}")
        offset = self._data + start * bb
        data = self.file.read_at(offset, nblocks * bb, count=count,
                                 name=self.file_name)
        blocks: list[np.ndarray] = []
        extra = [0] * nblocks
        stats = self.disk.stats
        for i in range(nblocks):
            chunk = data[i * bb:(i + 1) * bb]
            if not self.checksums.verify(start + i, chunk):
                coords = self.layout.delinearize(start + i)
                stats.add(checksum_failures=1)
                tracer = obs_trace.CURRENT
                if tracer is not None:
                    tracer.instant("disk.checksum_failure", "storage",
                                   store=self.name, block=list(coords),
                                   attempt=1)
                before = stats.thread_value("read_bytes")
                blocks.append(self.read_block(coords, count=count))
                extra[i] = stats.thread_value("read_bytes") - before
            else:
                blocks.append(self.layout.bytes_to_block(chunk))
        return blocks, extra

    # -- whole-matrix helpers (loading inputs / verifying outputs) ---------------------

    def write_matrix(self, matrix: np.ndarray, count: bool = False) -> None:
        """Store a full dense matrix (used to load inputs; uncounted by default)."""
        if matrix.shape != self.layout.total_shape:
            raise StorageError(
                f"{self.name}: matrix shape {matrix.shape} != {self.layout.total_shape}")
        br, bc = self.layout.block_shape
        for (bi, bj) in self.layout.iter_blocks():
            self.write_block((bi, bj),
                             matrix[bi * br:(bi + 1) * br, bj * bc:(bj + 1) * bc],
                             count=count)

    def read_matrix(self, count: bool = False) -> np.ndarray:
        out = np.empty(self.layout.total_shape, dtype=self.layout.dtype)
        br, bc = self.layout.block_shape
        for (bi, bj) in self.layout.iter_blocks():
            out[bi * br:(bi + 1) * br, bj * bc:(bj + 1) * bc] = \
                self.read_block((bi, bj), count=count)
        return out

    def preallocate(self) -> None:
        """Make every block read back as zeros that verify.

        The data region is truncated back to a hole, which the file system
        reads as zeros without storing them, and the zero block's checksum
        goes into every slot with one write.  Peak memory is one block
        however large the matrix, and a store written before reads zeros
        again.  Only a store in its own file can: an extent cannot be
        truncated.
        """
        if self.base:
            raise StorageError(f"{self.name}: a catalog dataset cannot be "
                               f"preallocated")
        self.file.truncate(_HEADER_BYTES)
        self.file.truncate(_file_bytes(self.layout))
        self.checksums.fill(bytes(self.layout.block_bytes))

    def close(self) -> None:
        self.file.flush()

    def __repr__(self) -> str:
        return f"DAFMatrix({self.name}, {self.layout!r})"


#: An extent's record: its length, then the seal and the dataset's name,
#: written last.
_RECORD = struct.Struct("<Q4s52s")
_SEAL = b"DSX1"
#: Extents start on page boundaries, so a fresh one is a whole-page hole.
_EXTENT_ALIGN = 4096


class DatasetCatalog:
    """Every dataset of one disk in one append-only file, ``datasets.cat``.

    A dataset is a fixed-size extent: a 64-byte record (the extent's
    length, a seal, the dataset's name), then an ordinary DAF2 store.
    Ingest carves the extent at the end of the file under the catalog lock
    (a bump pointer and a ``truncate``, so it starts as a hole), writes
    the length, the store's blocks and checksums, and seals the record
    last.  Only a sealed dataset is ever published: one whose ingest died
    is skipped, never read as zeros.

    The file is opened on the first :meth:`dataset` call, so a catalog
    nobody asks creates nothing.  Opening scans the records, one small
    read per extent, skipping by length; sealed datasets are registered
    and opened on first use, and an unsealed tail is cut off.  The disk
    holds one descriptor for the catalog however many datasets it holds.
    """

    FILE = "datasets.cat"

    def __init__(self, disk: SimulatedDisk):
        self.disk = disk
        self.file = None
        self._lock = threading.Lock()
        self._stores: dict[str, DAFMatrix] = {}
        self._sealed: dict[str, int] = {}  # found by the scan, not yet open
        self._end = 0

    def _open(self) -> None:
        self.file = self.disk.open(self.FILE)
        size = self.file.size()
        pos = 0
        while pos + _RECORD.size <= size:
            length, seal, name = _RECORD.unpack(
                self.file.read_at(pos, _RECORD.size, count=False))
            if length < _RECORD.size or pos + length > size:
                break
            if seal == _SEAL:
                self._sealed[name.rstrip(b"\0").decode()] = pos + _RECORD.size
                self._end = pos + length
            pos += length
        if size > self._end:
            self.file.truncate(self._end)

    def dataset(self, name: str, grid: Sequence[int],
                block_shape: Sequence[int], dtype,
                matrix: np.ndarray) -> DAFMatrix:
        """Dataset ``name``, ingested from ``matrix`` unless the catalog
        already holds it."""
        with self._lock:
            if self.file is None:
                self._open()
            store = self._stores.get(name)
            if store is None:
                base = self._sealed.pop(name, None)
                store = self._ingest(name, grid, block_shape, dtype, matrix) \
                    if base is None else \
                    DAFMatrix.open(self.disk, name, self.file, base)
                self._stores[name] = store
            return store

    def _ingest(self, name, grid, block_shape, dtype, matrix) -> DAFMatrix:
        label = name.encode()
        if len(label) > 52:
            raise StorageError(f"{name}: dataset name too long")
        layout = BlockLayout(grid, block_shape, dtype)
        pos = self._end
        length = -(-(_RECORD.size + _file_bytes(layout))
                   // _EXTENT_ALIGN) * _EXTENT_ALIGN
        self.file.truncate(pos + length)
        self.file.write_at(pos, _RECORD.pack(length, b"", b""), count=False)
        self._end = pos + length
        store = DAFMatrix.create(self.disk, name, grid, block_shape, dtype,
                                 self.file, pos + _RECORD.size)
        store.write_matrix(matrix, count=False)
        self.file.write_at(pos, _RECORD.pack(length, _SEAL, label),
                           count=False)
        return store

    def close(self) -> None:
        with self._lock:
            self._stores.clear()
            self._sealed.clear()
            if self.file is not None:
                self.file.close()
