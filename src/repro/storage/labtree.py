"""LAB-tree — Linearized Array B-tree (RIOTStore [26]).

The second RIOTStore format: a disk-paged B+-tree keyed by the linearized
block index, with block payloads in a separate data segment.  For dense
matrices it behaves like the DAF (every block present exactly once); unlike
the DAF it supports sparse population — blocks are materialized on first
write — which is what the original paper used it for.

Layout:

* ``<name>.labt`` — 4 KiB tree pages.  Page 0 is the meta page (magic,
  geometry, root page id, page count, next free data offset).  Leaf pages
  hold sorted (key, data_offset) pairs plus a next-leaf link; internal pages
  hold sorted separator keys and child page ids.
* ``<name>.labd`` — block payloads, one extent per materialized block.

Tree-page I/O is metadata and is not charged to the plan (the paper's
numbers count block transfers); payload I/O is counted.
"""

from __future__ import annotations

import struct
from typing import Iterator, Sequence

import numpy as np

from ..exceptions import StorageError
from .blocks import BlockChecksums, BlockLayout, read_block_verified
from .disk import SimulatedDisk

__all__ = ["LABTree"]


def _lower_bound(keys: list[int], key: int) -> int:
    """First index i with keys[i] >= key."""
    import bisect
    return bisect.bisect_left(keys, key)


def _upper_bound(keys: list[int], key: int) -> int:
    """First index i with keys[i] > key (the child slot for descent)."""
    import bisect
    return bisect.bisect_right(keys, key)

PAGE_SIZE = 4096
_MAGIC = b"LABT"
_META_FMT = "<4sqqqqqqq"  # magic, rows, cols, brow, bcol, itemsize, root, npages
_META_EXTRA_FMT = "<q"     # next data offset (appended after meta fmt)
_LEAF, _INTERNAL = 1, 2
# Node header: type (1 byte) + nkeys (int32) + next_leaf (int64)
_NODE_HDR = struct.Struct("<bih")
_ORDER = (PAGE_SIZE - 16) // 16 - 1  # (key, value) int64 pairs per page


class _Node:
    __slots__ = ("page_id", "kind", "keys", "values", "next_leaf")

    def __init__(self, page_id: int, kind: int, keys=None, values=None,
                 next_leaf: int = -1):
        self.page_id = page_id
        self.kind = kind
        self.keys: list[int] = keys or []
        # leaf: data offsets; internal: child page ids (len(keys) + 1)
        self.values: list[int] = values or []
        self.next_leaf = next_leaf

    @property
    def is_leaf(self) -> bool:
        return self.kind == _LEAF


class LABTree:
    """B+-tree-backed blocked matrix with the same API as DAFMatrix."""

    def __init__(self, disk: SimulatedDisk, name: str, layout: BlockLayout):
        self.disk = disk
        self.name = name
        self.layout = layout
        self.tree_file = disk.open(name + ".labt")
        self.data_file = disk.open(name + ".labd")
        self.checksums = BlockChecksums(disk.open(name + ".labc"),
                                        layout.num_blocks)
        self._root = 1
        self._npages = 2
        self._next_data = 0
        self._cache: dict[int, _Node] = {}

    # -- lifecycle ----------------------------------------------------------

    @classmethod
    def create(cls, disk: SimulatedDisk, name: str, grid: Sequence[int],
               block_shape: Sequence[int], dtype=np.float64) -> "LABTree":
        layout = BlockLayout(grid, block_shape, dtype)
        tree = cls(disk, name, layout)
        root = _Node(1, _LEAF)
        tree._write_node(root)
        tree._write_meta()
        return tree

    @classmethod
    def open(cls, disk: SimulatedDisk, name: str) -> "LABTree":
        raw = disk.open(name + ".labt").read_at(0, PAGE_SIZE, count=False)
        magic, rows, cols, brow, bcol, itemsize, root, npages = \
            struct.unpack_from(_META_FMT, raw, 0)
        if magic != _MAGIC:
            raise StorageError(f"{name}: not a LAB-tree file")
        (next_data,) = struct.unpack_from(_META_EXTRA_FMT, raw,
                                          struct.calcsize(_META_FMT))
        dtype = {8: np.float64, 4: np.float32}[itemsize]
        tree = cls(disk, name, BlockLayout((rows, cols), (brow, bcol), dtype))
        tree._root, tree._npages, tree._next_data = root, npages, next_data
        return tree

    @classmethod
    def remove(cls, disk: SimulatedDisk, name: str) -> None:
        """Delete store ``name``'s files: tree pages, payloads, checksums."""
        for suffix in (".labt", ".labd", ".labc"):
            disk.remove(name + suffix)

    def _write_meta(self) -> None:
        g = self.layout.grid
        b = self.layout.block_shape
        raw = struct.pack(_META_FMT, _MAGIC, g[0], g[1], b[0], b[1],
                          self.layout.dtype.itemsize, self._root, self._npages)
        raw += struct.pack(_META_EXTRA_FMT, self._next_data)
        self.tree_file.write_at(0, raw.ljust(PAGE_SIZE, b"\0"), count=False)

    # -- node (page) I/O: metadata, uncounted --------------------------------------

    def _read_node(self, page_id: int) -> _Node:
        if page_id in self._cache:
            return self._cache[page_id]
        raw = self.tree_file.read_at(page_id * PAGE_SIZE, PAGE_SIZE, count=False)
        kind, nkeys, next_leaf = _NODE_HDR.unpack_from(raw, 0)
        body = np.frombuffer(raw, dtype=np.int64,
                             count=2 * nkeys + (0 if kind == _LEAF else 1),
                             offset=16)
        if kind == _LEAF:
            keys = [int(v) for v in body[:nkeys]]
            values = [int(v) for v in body[nkeys:2 * nkeys]]
            node = _Node(page_id, kind, keys, values, next_leaf)
        else:
            keys = [int(v) for v in body[:nkeys]]
            values = [int(v) for v in body[nkeys:2 * nkeys + 1]]
            node = _Node(page_id, kind, keys, values)
        self._cache[page_id] = node
        return node

    def _write_node(self, node: _Node) -> None:
        nkeys = len(node.keys)
        raw = _NODE_HDR.pack(node.kind, nkeys, node.next_leaf).ljust(16, b"\0")
        vals = node.keys + node.values
        raw += np.asarray(vals, dtype=np.int64).tobytes()
        if len(raw) > PAGE_SIZE:
            raise StorageError("LAB-tree node overflow (order bug)")
        self.tree_file.write_at(node.page_id * PAGE_SIZE,
                                raw.ljust(PAGE_SIZE, b"\0"), count=False)
        self._cache[node.page_id] = node

    def _alloc_page(self) -> int:
        page_id = self._npages
        self._npages += 1
        return page_id

    # -- search / insert -----------------------------------------------------------

    def _find_leaf(self, key: int) -> list[_Node]:
        """Root-to-leaf path for ``key``."""
        path = [self._read_node(self._root)]
        while not path[-1].is_leaf:
            node = path[-1]
            idx = _upper_bound(node.keys, key)
            path.append(self._read_node(node.values[idx]))
        return path

    def _lookup(self, key: int) -> int | None:
        leaf = self._find_leaf(key)[-1]
        idx = _lower_bound(leaf.keys, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            return leaf.values[idx]
        return None

    def _insert(self, key: int, value: int) -> None:
        path = self._find_leaf(key)
        leaf = path[-1]
        idx = _lower_bound(leaf.keys, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            leaf.values[idx] = value
            self._write_node(leaf)
            return
        leaf.keys.insert(idx, key)
        leaf.values.insert(idx, value)
        self._split_up(path)
        self._write_meta()

    def _split_up(self, path: list[_Node]) -> None:
        node = path[-1]
        self._write_node(node)
        level = len(path) - 1
        while len(node.keys) > _ORDER:
            mid = len(node.keys) // 2
            if node.is_leaf:
                right = _Node(self._alloc_page(), _LEAF,
                              node.keys[mid:], node.values[mid:], node.next_leaf)
                sep = right.keys[0]
                node.keys = node.keys[:mid]
                node.values = node.values[:mid]
                node.next_leaf = right.page_id
            else:
                right = _Node(self._alloc_page(), _INTERNAL,
                              node.keys[mid + 1:], node.values[mid + 1:])
                sep = node.keys[mid]
                node.keys = node.keys[:mid]
                node.values = node.values[:mid + 1]
            self._write_node(node)
            self._write_node(right)
            if level == 0:
                new_root = _Node(self._alloc_page(), _INTERNAL,
                                 [sep], [node.page_id, right.page_id])
                self._write_node(new_root)
                self._root = new_root.page_id
                return
            level -= 1
            parent = path[level]
            idx = _upper_bound(parent.keys, sep)
            parent.keys.insert(idx, sep)
            parent.values.insert(idx + 1, right.page_id)
            self._write_node(parent)
            node = parent

    # -- block API ------------------------------------------------------------------

    def write_block(self, coords: Sequence[int], block: np.ndarray,
                    count: bool = True) -> None:
        key = self.layout.linearize(coords)
        offset = self._lookup(key)
        if offset is None:
            offset = self._next_data
            self._next_data += self.layout.block_bytes
            self._insert(key, offset)
            self._write_meta()
        data = self.layout.block_to_bytes(block)
        self.data_file.write_at(offset, data, count=count)
        self.checksums.record(key, data)

    def read_block(self, coords: Sequence[int], count: bool = True) -> np.ndarray:
        key = self.layout.linearize(coords)
        offset = self._lookup(key)
        if offset is None:
            raise StorageError(f"{self.name}: block {tuple(coords)} not materialized")
        data = read_block_verified(self.data_file, offset,
                                   self.layout.block_bytes, self.checksums,
                                   key, self.name, coords, count=count)
        return self.layout.bytes_to_block(data)

    def has_block(self, coords: Sequence[int]) -> bool:
        return self._lookup(self.layout.linearize(coords)) is not None

    def iter_keys(self) -> Iterator[int]:
        """All materialized block keys in order (leaf chain walk)."""
        node = self._read_node(self._root)
        while not node.is_leaf:
            node = self._read_node(node.values[0])
        while True:
            yield from node.keys
            if node.next_leaf < 0:
                break
            node = self._read_node(node.next_leaf)

    # -- whole-matrix helpers ------------------------------------------------------------

    def write_matrix(self, matrix: np.ndarray, count: bool = False) -> None:
        if matrix.shape != self.layout.total_shape:
            raise StorageError(
                f"{self.name}: matrix shape {matrix.shape} != {self.layout.total_shape}")
        br, bc = self.layout.block_shape
        for (bi, bj) in self.layout.iter_blocks():
            self.write_block((bi, bj),
                             matrix[bi * br:(bi + 1) * br, bj * bc:(bj + 1) * bc],
                             count=count)

    def read_matrix(self, count: bool = False) -> np.ndarray:
        out = np.zeros(self.layout.total_shape, dtype=self.layout.dtype)
        br, bc = self.layout.block_shape
        for key in list(self.iter_keys()):
            bi, bj = self.layout.delinearize(key)
            out[bi * br:(bi + 1) * br, bj * bc:(bj + 1) * bc] = \
                self.read_block((bi, bj), count=count)
        return out

    def close(self) -> None:
        """Flush the meta page and all file buffers (call before reopen)."""
        self._write_meta()
        self.tree_file.flush()
        self.data_file.flush()
        self.checksums.file.flush()

    def __repr__(self) -> str:
        return f"LABTree({self.name}, {self.layout!r}, root={self._root})"
