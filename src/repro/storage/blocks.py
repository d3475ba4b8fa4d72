"""Block layout arithmetic for dense blocked matrices.

The paper's storage scheme (Section 6): matrices are stored in large logical
blocks laid out on disk in column-major order of their block coordinates;
elements within a block are column-major too.  Because every element has a
predetermined position, no indexes are stored.
"""

from __future__ import annotations

import struct
import zlib
from typing import Iterable, Sequence

import numpy as np

from ..exceptions import StorageError
from ..obs import trace as obs_trace

try:  # hardware CRC32C (Castagnoli) when the optional wheel is present
    from crc32c import crc32c as _crc32
except ImportError:  # zlib's CRC32: same width and detection strength here
    _crc32 = zlib.crc32

__all__ = ["BlockLayout", "BlockChecksums", "block_checksum"]


def block_checksum(data: bytes) -> int:
    """32-bit payload checksum (CRC32C when available, CRC32 otherwise)."""
    return _crc32(data) & 0xFFFFFFFF


class BlockChecksums:
    """Per-block checksum table of one store, from byte ``base`` of
    ``file`` (a DAF store's tail).

    One little-endian uint64 per linear block index: the low 32 bits hold
    the checksum, bit 32 marks the slot as recorded (so a genuine checksum
    of zero is distinguishable from "never written").  The table is read
    once, when the store opens, and kept in memory; :meth:`record` writes
    each slot through.  Table I/O is metadata — uncounted, never
    fault-injected — because it is the machinery that *detects* faults in
    the data path.
    """

    _SET = 1 << 32
    _SLOT = struct.Struct("<Q")
    SLOT_BYTES = _SLOT.size

    __slots__ = ("file", "num_blocks", "base", "_table")

    def __init__(self, file, num_blocks: int, base: int = 0):
        self.file = file
        self.num_blocks = int(num_blocks)
        self.base = int(base)
        size = self._SLOT.size * self.num_blocks
        if file.size() < self.base + size:
            file.truncate(self.base + size)
        self._table = np.frombuffer(file.read_at(self.base, size, count=False),
                                    dtype="<u8").tolist()

    def record(self, index: int, data: bytes) -> None:
        value = block_checksum(data) | self._SET
        self.file.write_at(self.base + index * self._SLOT.size,
                           self._SLOT.pack(value), count=False, atomic=False)
        self._table[index] = value

    def fill(self, data: bytes) -> None:
        """Record ``data``'s checksum in every slot, with one write."""
        value = block_checksum(data) | self._SET
        self.file.write_at(self.base, self._SLOT.pack(value) * self.num_blocks,
                           count=False, atomic=False)
        self._table = [value] * self.num_blocks

    def expected(self, index: int) -> int | None:
        """The recorded checksum, or ``None`` if the block was never
        written through the checksummed path."""
        value = self._table[index]
        return (value & 0xFFFFFFFF) if value & self._SET else None

    def verify(self, index: int, data: bytes) -> bool:
        checksum = block_checksum(data)
        if self.expected(index) in (None, checksum):
            return True
        # Another handle on the same store may have rewritten the block
        # since this table was loaded: the slot in the file decides.
        (self._table[index],) = self._SLOT.unpack(self.file.read_at(
            self.base + index * self._SLOT.size, self._SLOT.size,
            count=False))
        return self.expected(index) in (None, checksum)


def read_block_verified(file, offset: int, nbytes: int,
                        checksums: "BlockChecksums", index: int,
                        store_name: str, coords, count: bool = True,
                        file_name: str | None = None) -> bytes:
    """Checksum-verified positional block read with bounded re-reads.

    Transient faults are already absorbed inside ``file.read_at``; this
    layer catches *corruption* (payload mismatching the recorded checksum),
    counts it in ``IOStats.checksum_failures``, and re-reads up to the
    disk's retry budget — a fresh read of an intact disk copy heals an
    in-flight bit flip.  Persistent mismatch raises
    :class:`~repro.exceptions.CorruptBlockError`.  ``file_name`` is the
    name the read reaches fault policies under (default: the file's).
    """
    from ..exceptions import CorruptBlockError
    disk = file.disk
    attempt = 0
    while True:
        data = file.read_at(offset, nbytes, count=count, name=file_name)
        if checksums.verify(index, data):
            return data
        disk.stats.add(checksum_failures=1)
        tracer = obs_trace.CURRENT
        if tracer is not None:
            tracer.instant("disk.checksum_failure", "storage",
                           store=store_name, block=list(coords),
                           attempt=attempt + 1)
        attempt += 1
        if attempt > disk.retry.max_retries:
            raise CorruptBlockError(
                f"{store_name}: block {tuple(coords)} failed checksum "
                f"verification after {attempt} reads "
                f"(expected {checksums.expected(index):#010x})")
        disk.retry.sleep(attempt)


class BlockLayout:
    """Maps block coordinates of an (n-dimensional) blocked array to linear
    block indices and byte offsets, column-major."""

    __slots__ = ("grid", "block_shape", "dtype", "block_bytes", "num_blocks")

    def __init__(self, grid: Sequence[int], block_shape: Sequence[int],
                 dtype: np.dtype | str = np.float64):
        self.grid = tuple(int(g) for g in grid)
        self.block_shape = tuple(int(b) for b in block_shape)
        if len(self.grid) != len(self.block_shape):
            raise StorageError("grid / block_shape rank mismatch")
        if any(g <= 0 for g in self.grid) or any(b <= 0 for b in self.block_shape):
            raise StorageError("grid and block_shape must be positive")
        self.dtype = np.dtype(dtype)
        self.block_bytes = int(np.prod(self.block_shape)) * self.dtype.itemsize
        self.num_blocks = int(np.prod(self.grid))

    @property
    def rank(self) -> int:
        return len(self.grid)

    @property
    def total_shape(self) -> tuple[int, ...]:
        return tuple(g * b for g, b in zip(self.grid, self.block_shape))

    @property
    def total_bytes(self) -> int:
        return self.num_blocks * self.block_bytes

    def check_coords(self, coords: Sequence[int]) -> tuple[int, ...]:
        c = tuple(int(x) for x in coords)
        if len(c) != self.rank:
            raise StorageError(f"block coords {c} have rank {len(c)} != {self.rank}")
        for x, g in zip(c, self.grid):
            if not 0 <= x < g:
                raise StorageError(f"block coords {c} outside grid {self.grid}")
        return c

    def linearize(self, coords: Sequence[int]) -> int:
        """Column-major linear index: the first coordinate varies fastest."""
        c = self.check_coords(coords)
        idx = 0
        for x, g in zip(reversed(c), reversed(self.grid)):
            idx = idx * g + x
        # reversed twice: the loop above is row-major over reversed dims,
        # which is exactly column-major over the original dims.
        return idx

    def delinearize(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.num_blocks:
            raise StorageError(f"linear block index {index} out of range")
        coords = []
        for g in self.grid:
            coords.append(index % g)
            index //= g
        return tuple(coords)

    def offset_of(self, coords: Sequence[int]) -> int:
        return self.linearize(coords) * self.block_bytes

    def iter_blocks(self) -> Iterable[tuple[int, ...]]:
        for i in range(self.num_blocks):
            yield self.delinearize(i)

    def block_to_bytes(self, block: np.ndarray) -> bytes:
        if block.shape != self.block_shape:
            raise StorageError(f"block shape {block.shape} != {self.block_shape}")
        return np.ascontiguousarray(block.astype(self.dtype, copy=False),
                                    dtype=self.dtype).tobytes(order="F")

    def bytes_to_block(self, data: bytes) -> np.ndarray:
        if len(data) != self.block_bytes:
            raise StorageError(f"payload of {len(data)} bytes != block size {self.block_bytes}")
        return np.frombuffer(data, dtype=self.dtype).reshape(
            self.block_shape, order="F").copy()

    def __repr__(self) -> str:
        return (f"BlockLayout(grid={self.grid}, block={self.block_shape}, "
                f"dtype={self.dtype.name})")
