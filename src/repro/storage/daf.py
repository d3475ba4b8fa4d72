"""DAF — Directly Addressable File (RIOTStore [26]).

The simplest of the two RIOTStore formats: one flat file per matrix, blocks
at computed offsets (column-major block order, column-major elements within
a block, no stored indexes).  Reads and writes are whole blocks, the
program's unit of I/O.

One file per store (``DAF2``): a 64-byte header, the data, then one
tagged uint64 checksum per block (see
:class:`~repro.storage.blocks.BlockChecksums`).  The two-file ``DAF1``
layout is refused, not migrated.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..exceptions import StorageError
from ..obs import trace as obs_trace
from .blocks import BlockChecksums, BlockLayout, read_block_verified
from .disk import SimulatedDisk

__all__ = ["DAFMatrix"]

_MAGIC = b"DAF2"
_OLD_MAGIC = b"DAF1"
_HEADER_BYTES = 64


def _file_bytes(layout: BlockLayout) -> int:
    return (_HEADER_BYTES + layout.total_bytes
            + BlockChecksums.SLOT_BYTES * layout.num_blocks)


class DAFMatrix:
    """A dense blocked matrix stored in a directly addressable file.

    A tiny fixed header records the geometry so files are self-describing;
    header I/O is not counted against the plan (metadata, not data).  Every
    block write records a checksum in the table after the data region and
    every read verifies it (see
    :func:`~repro.storage.blocks.read_block_verified`).
    """

    def __init__(self, disk: SimulatedDisk, name: str, layout: BlockLayout):
        self.disk = disk
        self.name = name
        self.layout = layout
        self.file = disk.open(name + ".daf")
        self.checksums = BlockChecksums(self.file, layout.num_blocks,
                                        base=_HEADER_BYTES + layout.total_bytes)

    # -- lifecycle ----------------------------------------------------------

    @classmethod
    def create(cls, disk: SimulatedDisk, name: str, grid: Sequence[int],
               block_shape: Sequence[int], dtype=np.float64) -> "DAFMatrix":
        layout = BlockLayout(grid, block_shape, dtype)
        if layout.rank != 2:
            raise StorageError("DAF stores 2-d matrices")
        file = disk.open(name + ".daf")
        # Start from an empty file, so no data or checksum of an earlier
        # store of the same name survives; then size it, so short-read
        # errors surface early and the checksum table starts empty.  A new
        # file is already empty: truncating it to 0 anyway would make ext4
        # (auto_da_alloc) start writing it back on close.
        if file.size():
            file.truncate(0)
        vals = np.array([*layout.grid, *layout.block_shape,
                         layout.dtype.itemsize, 0, 0], dtype=np.int64)
        header = _MAGIC + vals.tobytes()
        file.write_at(0, header + b"\0" * (_HEADER_BYTES - len(header)),
                      count=False)
        file.truncate(_file_bytes(layout))
        return cls(disk, name, layout)

    @classmethod
    def open(cls, disk: SimulatedDisk, name: str) -> "DAFMatrix":
        file = disk.open(name + ".daf")
        header = file.read_at(0, _HEADER_BYTES, count=False)
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
        if file.size() < _file_bytes(layout):
            raise StorageError(
                f"{name}: file is {file.size()} bytes, shorter than the "
                f"{_file_bytes(layout)} its header declares")
        return cls(disk, name, layout)

    @classmethod
    def remove(cls, disk: SimulatedDisk, name: str) -> None:
        """Delete store ``name``'s file."""
        disk.remove(name + ".daf")

    # -- block I/O -------------------------------------------------------------

    def write_block(self, coords: Sequence[int], block: np.ndarray,
                    count: bool = True) -> None:
        index = self.layout.linearize(coords)
        offset = _HEADER_BYTES + index * self.layout.block_bytes
        data = self.layout.block_to_bytes(block)
        self.file.write_at(offset, data, count=count)
        self.checksums.record(index, data)

    def read_block(self, coords: Sequence[int], count: bool = True) -> np.ndarray:
        index = self.layout.linearize(coords)
        offset = _HEADER_BYTES + index * self.layout.block_bytes
        data = read_block_verified(self.file, offset, self.layout.block_bytes,
                                   self.checksums, index, self.name, coords,
                                   count=count)
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
        offset = _HEADER_BYTES + start * bb
        data = self.file.read_at(offset, nblocks * bb, count=count)
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
        again.
        """
        self.file.truncate(_HEADER_BYTES)
        self.file.truncate(_file_bytes(self.layout))
        self.checksums.fill(bytes(self.layout.block_bytes))

    def close(self) -> None:
        self.file.flush()

    def __repr__(self) -> str:
        return f"DAFMatrix({self.name}, {self.layout!r})"
