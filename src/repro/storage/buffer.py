"""Buffer manager with an explicit memory cap (Section 4.2).

The paper argues for explicit application-managed memory instead of letting
virtual memory thrash: plans declare exactly which blocks stay resident and
for how long.  This pool enforces that contract:

* blocks are keyed by ``(store name, block coords)``;
* ``fetch`` returns a resident block or loads it through the store
  (counting I/O on the simulated disk);
* ``pin``/``unpin`` protect blocks the plan retains for realized sharing;
* unpinned blocks are evicted LRU when space is needed;
* exceeding the cap with pinned blocks raises :class:`BufferPoolError` —
  the optimizer's memory estimate was supposed to prevent that;
* one class is both a run's private pool and the pool concurrent queries
  share — the private one simply has no owners and no contention.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Hashable

import numpy as np

from ..exceptions import BufferPoolError
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace

__all__ = ["BufferPool", "SharedBufferPool", "BufferedBlock"]


class BufferedBlock:
    """A resident block: payload + pin count + dirty flag + stage marks."""

    __slots__ = ("key", "data", "pins", "dirty", "nbytes", "staged")

    def __init__(self, key: tuple, data: np.ndarray):
        self.key = key
        self.data = data
        self.pins = 0
        self.dirty = False
        self.nbytes = int(data.nbytes)
        # Outstanding prefetch stage marks: each carries one of the pins
        # until consume_staged/discard_staged surrenders it.
        self.staged = 0

    def __repr__(self) -> str:
        return f"BufferedBlock({self.key}, pins={self.pins}, dirty={self.dirty})"


class BufferPool(obs_metrics.StatFields):
    """Thread-safe LRU pool of matrix blocks under a hard byte cap.

    One pool, one global byte cap, any number of threads — a job's compute
    loop and its prefetch readers, or every executor thread of
    :mod:`repro.service`:

    * **one lock** (an ``RLock``) serializes every residency / pin /
      eviction transition, so the cap is never exceeded and a pinned block
      is never evicted, whoever else is using the pool;
    * **loader de-duplication** — a fetch that must go to disk marks the
      key *in flight* and drops the lock while the loader runs; concurrent
      fetches of the same key wait on a condition instead of issuing a
      second disk read, while fetches of other keys proceed in parallel;
    * **per-owner pin accounting** — pins taken with an ``owner`` tag are
      remembered per owner, so :meth:`release_owner` can drop everything a
      crashed query still held without touching other queries' pins.

    The statistics fields (``hits``/``misses``/``evictions``/``used_bytes``/
    ``peak_bytes``) are thin views over :mod:`repro.obs.metrics` instruments;
    when a registry is installed at construction time the pool binds them
    under a unique ``pool=...`` label so ``expose_text`` shows live pools.
    """

    _COUNTERS = ("hits", "misses", "evictions")
    _GAUGES = ("used_bytes", "peak_bytes")

    def __init__(self, cap_bytes: int | None = None):
        if cap_bytes is not None and cap_bytes <= 0:
            raise BufferPoolError("cap must be positive (or None for unlimited)")
        self.cap_bytes = cap_bytes
        self._blocks: "OrderedDict[tuple, BufferedBlock]" = OrderedDict()
        self._lock = threading.RLock()
        # Waited on only by fetches that joined another thread's load.
        self._cond = threading.Condition(self._lock)
        self._loading: set[tuple] = set()
        self._owner_pins: dict[Hashable, dict[tuple, int]] = {}
        self._init_stats("repro_pool_")
        registry = obs_metrics.CURRENT
        if registry is not None:
            self.bind(registry, pool=registry.seq("pool"))

    # -- residency ------------------------------------------------------------

    def contains(self, key: tuple) -> bool:
        with self._lock:
            return key in self._blocks

    def fetch(self, key: tuple, loader: Callable[[], np.ndarray],
              pin: int = 0, owner: Hashable | None = None) -> BufferedBlock:
        """Resident block for ``key``, loading via ``loader`` on a miss.

        ``pin`` adds that many pins *atomically with the lookup*: a caller
        that fetches and then pins in two steps leaves a window in which a
        concurrent eviction can drop the block, so the engine always pins
        through this argument.

        A fetch that joins another thread's load counts as a hit; if that
        load fails (loader error, or the cap refuses the block) each joiner
        wakes, finds the key absent and tries for itself.
        """
        tracer = obs_trace.CURRENT
        with self._lock:
            while True:
                blk = self._blocks.get(key)
                if blk is not None:
                    self.hits += 1
                    if tracer is not None:
                        tracer.instant("pool.hit", "pool", key=str(key))
                    self._blocks.move_to_end(key)
                    self._add_pins(blk, pin, owner)
                    return blk
                if key not in self._loading:
                    self._loading.add(key)
                    break
                # Another thread is already reading this block from disk:
                # wait for it instead of issuing a duplicate read.
                self._cond.wait()
        # Load outside the lock — distinct keys load in parallel and the
        # pool stays responsive during (possibly fault-retried) disk I/O.
        try:
            data = loader()
            with self._lock:
                # The miss is counted only once the loader has succeeded: a
                # loader that raises completed no load, and counting it
                # would skew the hit ratio of retried fetches.
                self.misses += 1
                if tracer is not None:
                    tracer.instant("pool.miss", "pool", key=str(key))
                # A put/stage that landed while the loader ran is at least
                # as new as the disk copy and may carry pins and stage
                # marks: that block stays and the loaded bytes are dropped.
                blk = self._blocks.get(key)
                if blk is None:
                    blk = self._admit(key, data)
                self._add_pins(blk, pin, owner)
                return blk
        finally:
            # Every exit — loader error and refused admit included — wakes
            # the fetches that joined this load.
            with self._lock:
                self._loading.discard(key)
                self._cond.notify_all()

    def put(self, key: tuple, data: np.ndarray, dirty: bool = False,
            pin: int = 0, owner: Hashable | None = None,
            force: bool = False) -> BufferedBlock:
        """Install (or replace) a block produced in memory.

        Replacing a resident *dirty* block with clean data silently drops
        bytes that never reached disk — the same loss ``_make_room`` and
        :meth:`release` refuse loudly — so it raises unless the caller
        passes ``force=True`` (or installs dirty data itself, which keeps
        the block dirty).  Pins and stage marks survive replacement, and a
        replacement the cap refuses leaves the resident block in place.
        """
        with self._lock:
            old = self._blocks.get(key)
            if old is not None:
                if old.dirty and not dirty and not force:
                    raise BufferPoolError(
                        f"replacing dirty block {key} with clean data would "
                        f"discard unwritten bytes (write it back first, or pass "
                        f"force=True to drop it)")
                del self._blocks[key]
                self.used_bytes -= old.nbytes
            try:
                blk = self._admit(key, data)
            except BufferPoolError:
                if old is not None:
                    self._blocks[key] = old
                    self.used_bytes += old.nbytes
                raise
            if old is not None:
                blk.pins = old.pins
                blk.staged = old.staged
            blk.dirty = dirty
            self._add_pins(blk, pin, owner)
            return blk

    def _admit(self, key: tuple, data: np.ndarray) -> BufferedBlock:
        blk = BufferedBlock(key, data)
        self._make_room(blk.nbytes)
        self._blocks[key] = blk
        self.used_bytes += blk.nbytes
        self.peak_bytes = max(self.peak_bytes, self.used_bytes)
        return blk

    def _make_room(self, incoming: int) -> None:
        if self.cap_bytes is None:
            return
        if incoming > self.cap_bytes:
            raise BufferPoolError(
                f"block of {incoming} bytes exceeds pool cap {self.cap_bytes}")
        while self.used_bytes + incoming > self.cap_bytes:
            victim = next((b for b in self._blocks.values() if b.pins == 0), None)
            if victim is None:
                raise BufferPoolError(
                    f"memory cap {self.cap_bytes} exceeded with all "
                    f"{len(self._blocks)} blocks pinned "
                    f"(need {incoming}, used {self.used_bytes})")
            if victim.dirty:
                raise BufferPoolError(
                    f"evicting dirty block {victim.key}: the plan failed to "
                    f"schedule its write-back")
            del self._blocks[victim.key]
            self.used_bytes -= victim.nbytes
            self.evictions += 1
            tracer = obs_trace.CURRENT
            if tracer is not None:
                tracer.instant("pool.evict", "pool", key=str(victim.key),
                               bytes=victim.nbytes)

    # -- pinning -----------------------------------------------------------------

    def _add_pins(self, blk: BufferedBlock, n: int,
                  owner: Hashable | None) -> None:
        """Move ``blk``'s pin count by ``n`` (either sign), keeping
        ``owner``'s ledger in step."""
        blk.pins += n
        if n and owner is not None:
            held = self._owner_pins.setdefault(owner, {})
            held[blk.key] = held.get(blk.key, 0) + n
            if held[blk.key] <= 0:
                del held[blk.key]

    def pin(self, key: tuple, owner: Hashable | None = None) -> None:
        with self._lock:
            blk = self._blocks.get(key)
            if blk is None:
                raise BufferPoolError(f"pin of non-resident block {key}")
            self._add_pins(blk, 1, owner)
            tracer = obs_trace.CURRENT
            if tracer is not None:
                tracer.instant("pool.pin", "pool", key=str(key), pins=blk.pins)

    def unpin(self, key: tuple, owner: Hashable | None = None) -> None:
        with self._lock:
            blk = self._blocks.get(key)
            if blk is None:
                raise BufferPoolError(f"unpin of non-resident block {key}")
            if blk.pins <= 0:
                raise BufferPoolError(f"unpin without pin on {key}")
            self._add_pins(blk, -1, owner)
            tracer = obs_trace.CURRENT
            if tracer is not None:
                tracer.instant("pool.unpin", "pool", key=str(key), pins=blk.pins)

    def release_owner(self, owner: Hashable) -> int:
        """Drop every pin ``owner`` still holds (crashed-query cleanup).

        Returns the number of pins released.  Blocks themselves stay
        resident — unpinned, they are normal LRU victims.
        """
        with self._lock:
            held = self._owner_pins.pop(owner, {})
            released = 0
            for key, n in held.items():
                blk = self._blocks.get(key)
                if blk is not None:
                    drop = min(n, blk.pins)
                    blk.pins -= drop
                    released += drop
            return released

    def owner_pin_count(self, owner: Hashable) -> int:
        with self._lock:
            return sum(self._owner_pins.get(owner, {}).values())

    def release(self, key: tuple, force: bool = False) -> None:
        """Drop a block regardless of LRU position (pins must be zero).

        A dirty block holds data that never reached disk; dropping it is the
        same data loss ``_make_room`` refuses, so it raises here too unless
        ``force=True`` (teardown escape hatch for callers that know the data
        is dead).
        """
        with self._lock:
            blk = self._blocks.get(key)
            if blk is None:
                return
            if blk.pins > 0:
                raise BufferPoolError(f"release of pinned block {key}")
            if blk.dirty and not force:
                raise BufferPoolError(
                    f"release of dirty block {key} would discard unwritten data "
                    f"(schedule its write-back, or pass force=True to drop it)")
            del self._blocks[key]
            self.used_bytes -= blk.nbytes

    def release_if_unpinned(self, key: tuple, force: bool = False) -> bool:
        """Drop ``key`` iff it is resident with a zero pin count.

        The plan-exact engine's end-of-instance sweep: returns ``True`` when
        the block was dropped, ``False`` when it is absent or still pinned.
        Dirty blocks raise exactly as :meth:`release` does.
        """
        with self._lock:
            blk = self._blocks.get(key)
            if blk is None or blk.pins > 0:
                return False
            self.release(key, force=force)
            return True

    def drop_matching(self, pred: Callable[[tuple], bool],
                      force: bool = False) -> int:
        """Release every unpinned resident block whose key satisfies
        ``pred`` (e.g. a finished query's private blocks).  Returns the
        number of blocks dropped."""
        with self._lock:
            victims = [k for k, b in self._blocks.items()
                       if b.pins == 0 and pred(k)]
            for key in victims:
                self.release(key, force=force)
            return len(victims)

    def pin_count(self, key: tuple) -> int:
        with self._lock:
            blk = self._blocks.get(key)
            return blk.pins if blk is not None else 0

    def mark_clean(self, key: tuple) -> None:
        with self._lock:
            blk = self._blocks.get(key)
            if blk is not None:
                blk.dirty = False

    # -- prefetch staging -----------------------------------------------------

    def stage(self, key: tuple, data: np.ndarray,
              owner: Hashable | None = None) -> BufferedBlock:
        """Install a prefetched block, pinned-on-stage.

        The stage pin guarantees neither LRU pressure nor an eviction sweep
        can drop the block between staging and consumption;
        :meth:`consume_staged` hands that pin to the consumer atomically.
        Stage marks accumulate: a block the plan reads twice inside the
        lookahead window carries two marks and two pins.
        """
        with self._lock:
            blk = self.put(key, data, pin=1, owner=owner)
            blk.staged += 1
            tracer = obs_trace.CURRENT
            if tracer is not None:
                tracer.instant("pool.stage", "pool", key=str(key),
                               bytes=blk.nbytes, staged=blk.staged)
            return blk

    def consume_staged(self, key: tuple, pin: int = 1,
                       owner: Hashable | None = None) -> BufferedBlock:
        """Convert one stage mark into ``pin`` consumer pins, atomically.

        The net pin change is ``pin - 1`` (the stage pin is surrendered in
        the same transition), so the block is never observable unpinned in
        between.  Raises :class:`BufferPoolError` when ``key`` carries no
        stage mark — consuming a block nobody staged is an engine bug.
        """
        with self._lock:
            blk = self._blocks.get(key)
            if blk is None or blk.staged <= 0:
                raise BufferPoolError(f"consume of non-staged block {key}")
            blk.staged -= 1
            self._add_pins(blk, -1, owner)
            self._add_pins(blk, pin, owner)
            self._blocks.move_to_end(key)
            return blk

    def discard_staged(self, key: tuple,
                       owner: Hashable | None = None) -> bool:
        """Drop one stage mark and its pin (pipeline-teardown path).

        Staged data came straight from disk, so dropping it loses nothing;
        the block is released once no pins remain (unless a dirty ``put``
        has replaced the staged bytes since — that block waits for its
        write-back like any other).  Returns ``True`` iff a mark was dropped.
        """
        with self._lock:
            blk = self._blocks.get(key)
            if blk is None or blk.staged <= 0:
                return False
            blk.staged -= 1
            self._add_pins(blk, -1, owner)
            if blk.pins <= 0 and not blk.dirty:
                self.release(key)
            return True

    # -- introspection --------------------------------------------------------------

    def resident_keys(self) -> list[tuple]:
        with self._lock:
            return list(self._blocks)

    def resident_bytes(self) -> int:
        """``used_bytes`` recounted from the resident blocks (leak check)."""
        with self._lock:
            return sum(b.nbytes for b in self._blocks.values())

    def pinned_bytes(self) -> int:
        with self._lock:
            return sum(b.nbytes for b in self._blocks.values() if b.pins > 0)

    def total_pins(self) -> int:
        """Sum of all pin counts — 0 on a quiesced pool (leak check)."""
        with self._lock:
            return sum(b.pins for b in self._blocks.values())

    def staged_marks(self) -> int:
        """Resident blocks still carrying a stage mark — 0 once every
        pipeline has consumed or discarded its staging (leak check)."""
        with self._lock:
            return sum(1 for b in self._blocks.values() if b.staged)

    def __len__(self) -> int:
        with self._lock:
            return len(self._blocks)

    def __repr__(self) -> str:
        cap = "unbounded" if self.cap_bytes is None else f"{self.cap_bytes}B"
        return (f"BufferPool({len(self._blocks)} blocks, {self.used_bytes}B used, "
                f"cap {cap}, peak {self.peak_bytes}B)")


#: Not a second class: ``benchmarks/e2e/workloads.py`` (closed to ``src/``
#: changes) and ``tests/storage/test_shared_pool.py`` build the pool by this name.
SharedBufferPool = BufferPool
