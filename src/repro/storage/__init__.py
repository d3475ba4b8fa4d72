"""Storage substrate: RIOTStore [26] DAF stores + buffer pool + simulated disk.

Public surface:

* :class:`SimulatedDisk` / :class:`IOStats` — real files, byte-accurate
  accounting, bandwidth-model timing, bounded retry with backoff, and
  undo-record crash recovery;
* :class:`ShardedDisk` / :func:`make_disk` — the same surface striped
  across N independent shards with per-shard fault domains and parallel
  segment I/O (``repro.storage.sharding``);
* :class:`DAFMatrix` — Directly Addressable File (dense blocked matrices):
  header, data, then the block checksum table, addressed from a base
  offset — a store's own file from 0, or an extent of a catalog file;
* :class:`DatasetCatalog` — every shared dataset of one disk in one
  append-only file, each a sealed extent holding a DAF store;
* :class:`BlockLayout` / :class:`BlockChecksums` — column-major layout
  arithmetic and the per-block checksum table (in the DAF store's tail),
  held in memory while the store is open;
* :class:`BufferPool` — explicitly capped memory with pinning (Section 4.2):
  the one pool class, private to a run or shared by concurrent queries
  (single lock, loader de-duplication, per-owner pin accounting);
  ``SharedBufferPool`` is an alias of it;
* :class:`FaultInjector` / :class:`FaultPolicy` / :class:`RetryPolicy` —
  deterministic fault injection and the retry policy that absorbs it.
"""

from .blocks import BlockChecksums, BlockLayout, block_checksum
from .buffer import BufferedBlock, BufferPool, SharedBufferPool
from .daf import DAFMatrix, DatasetCatalog
from .disk import DiskFile, IOStats, SimulatedDisk
from .faults import FaultInjector, FaultPolicy, InjectedFault, RetryPolicy
from .sharding import DEFAULT_STRIPE_BYTES, ShardedDisk, ShardedFile, \
    make_disk

__all__ = [
    "BlockChecksums",
    "BlockLayout",
    "BufferPool",
    "BufferedBlock",
    "SharedBufferPool",
    "DAFMatrix",
    "DatasetCatalog",
    "FaultInjector",
    "FaultPolicy",
    "InjectedFault",
    "RetryPolicy",
    "SimulatedDisk",
    "ShardedDisk",
    "ShardedFile",
    "DiskFile",
    "IOStats",
    "DEFAULT_STRIPE_BYTES",
    "make_disk",
    "block_checksum",
]
