"""Plan-driven prefetch pipeline: I/O–compute overlap (ROADMAP item 2).

The chosen plan is a perfect oracle of the future block-access sequence
(:meth:`~repro.codegen.exec_plan.ExecutablePlan.read_sequence`), so the
engine can walk it *ahead* of the compute loop: a background reader thread
claims upcoming disk READs, batches contiguous on-disk runs into single
seek+transfer ops, and stages the blocks into the buffer pool pinned — LRU
pressure cannot drop them between staging and consumption.  The compute
loop then consumes staged blocks instead of blocking on disk, pushing wall
clock from ``io + compute`` toward ``max(io, compute)`` — the RIOT-style
win the paper's access-pattern oracle makes safe.

Correctness rules the pipeline enforces:

* **Write barrier** — an item is claimable only once the last plan-ordered
  disk WRITE of its block has completed (``barrier <= watermark``, advanced
  by :meth:`PrefetchPipeline.progress`); reading earlier would stage stale
  bytes.
* **Back-pressure** — staged-but-unconsumed bytes never exceed
  ``budget_bytes`` (carved out of the memory cap by the caller), and at
  most ``depth`` items are in flight; an item too large for the whole
  budget is left to the main thread (``taken_by_main``).
* **Order** — claims and consumption both follow plan order, so the
  blocks staged are exactly the next ones the compute loop will ask for.
* **Failure attribution** — a read that fails (checksum exhaustion, fault
  beyond the retry budget) is recorded against its item and re-raised by
  :meth:`consume` on the exact access that would have performed the read
  serially; faults, checksum retries, and checkpoint/resume compose
  unchanged.
"""

from __future__ import annotations

import threading
import time
from typing import Mapping, Sequence

from ..cancel import CancelToken, set_interrupt
from ..codegen.exec_plan import PrefetchItem
from ..exceptions import ExecutionError

__all__ = ["PrefetchPipeline", "PrefetchStats"]

# Item lifecycle.  PENDING -> CLAIMED -> STAGED -> CONSUMED is the happy
# path; PENDING -> TAKEN means the main thread performs the read serially
# (pipeline closed, item over budget, or compute caught up with the
# reader); CLAIMED -> FAILED stores the reader's exception for re-raise
# at consumption.
_PENDING, _CLAIMED, _STAGED, _TAKEN, _CONSUMED, _FAILED = range(6)


class PrefetchStats:
    """Counters describing one pipeline's run (``report.prefetch``)."""

    __slots__ = ("staged_blocks", "batched_runs", "batched_blocks",
                 "consumed_staged", "taken_by_main", "discarded", "failed",
                 "wait_seconds", "max_staged_bytes")

    def __init__(self):
        self.staged_blocks = 0      # blocks the reader staged
        self.batched_runs = 0       # contiguous runs read as one op
        self.batched_blocks = 0     # blocks covered by those runs
        self.consumed_staged = 0    # staged blocks the compute loop used
        self.taken_by_main = 0      # reads the main thread did serially
        self.discarded = 0          # staged blocks dropped at close()
        self.failed = 0             # reads that raised in a reader thread
        self.wait_seconds = 0.0     # compute time spent waiting on the reader
        self.max_staged_bytes = 0   # peak staged-but-unconsumed bytes

    def as_dict(self) -> dict:
        return {f: getattr(self, f) for f in self.__slots__}

    def __repr__(self) -> str:
        return (f"PrefetchStats(staged={self.staged_blocks}, "
                f"runs={self.batched_runs}x{self.batched_blocks}, "
                f"consumed={self.consumed_staged}, taken={self.taken_by_main}, "
                f"wait={self.wait_seconds:.3f}s)")


class PrefetchPipeline:
    """One background reader staging the plan's future READs into the pool.

    ``pool`` is used as given — a :class:`~repro.storage.BufferPool` or a
    view forwarding to one; the pool itself serializes the reader's
    ``stage`` calls against the compute thread.
    ``completed`` is the highest instance index already executed (``-1``
    for a fresh run; the resume boundary minus one on a resumed run).
    """

    def __init__(self, items: Sequence[PrefetchItem],
                 stores: Mapping[str, object], pool, *,
                 depth: int, budget_bytes: int | None = None,
                 io_stats=None, tracer=None,
                 completed: int = -1,
                 cancel: "CancelToken | None" = None):
        if depth < 1:
            raise ExecutionError(f"prefetch depth must be >= 1, got {depth}")
        self._items = list(items)
        self._stores = stores
        self._pool = pool
        self._depth = depth
        self._budget = budget_bytes
        self._io_stats = io_stats
        self._tracer = tracer
        self._cancel = cancel
        self.stats = PrefetchStats()

        n = len(self._items)
        self._state = [_PENDING] * n
        self._errors: dict[int, BaseException] = {}
        self._cursor = 0            # next item the compute loop consumes
        self._scan = 0              # next item the reader considers claiming
        self._watermark = completed
        self._inflight = 0          # items CLAIMED or STAGED
        self._inflight_bytes = 0
        self._closing = False
        self._cond = threading.Condition()
        self._thread = threading.Thread(target=self._reader_loop,
                                        daemon=True, name="prefetch-0")
        self._thread.start()
        if cancel is not None:
            # Wake the reader parked on the condition so it observes the
            # cancellation promptly instead of sleeping until close().
            cancel.subscribe(self._wake_all)

    def _wake_all(self) -> None:
        with self._cond:
            self._cond.notify_all()

    # -- geometry helpers ---------------------------------------------------

    @staticmethod
    def _nbytes(item: PrefetchItem) -> int:
        return item.access.access.array.block_bytes

    # -- reader side --------------------------------------------------------

    def _claimable(self, item: PrefetchItem, extra_items: int,
                   extra_bytes: int) -> bool:
        if item.barrier > self._watermark:
            return False
        if self._inflight + extra_items >= self._depth:
            return False
        nbytes = self._nbytes(item)
        if self._budget is not None and \
                self._inflight_bytes + extra_bytes + nbytes > self._budget:
            return False
        return True

    def _claim_locked(self) -> list[PrefetchItem] | None:
        """The next claimable run, or ``None`` if nothing is ready now.

        Advances ``_scan`` past settled items; an item too large to ever
        fit the budget is marked TAKEN (the main thread reads it serially,
        outside the staging budget).  A claimed run extends over strictly
        consecutive on-disk blocks of one array, bounded by depth, budget,
        and the write barrier.
        """
        items, state = self._items, self._state
        n = len(items)
        while self._scan < n and state[self._scan] != _PENDING:
            self._scan += 1
        while self._scan < n:
            head = items[self._scan]
            if self._budget is not None and self._nbytes(head) > self._budget:
                state[self._scan] = _TAKEN
                self._cond.notify_all()
                self._scan += 1
                continue
            if not self._claimable(head, 0, 0):
                return None
            run = [head]
            state[self._scan] = _CLAIMED
            self._scan += 1
            run_bytes = self._nbytes(head)
            while self._scan < n:
                nxt = items[self._scan]
                if (state[self._scan] != _PENDING
                        or nxt.access.access.array.name
                        != head.access.access.array.name
                        or nxt.linear != run[-1].linear + 1
                        or not self._claimable(nxt, len(run), run_bytes)):
                    break
                run.append(nxt)
                state[self._scan] = _CLAIMED
                run_bytes += self._nbytes(nxt)
                self._scan += 1
            self._inflight += len(run)
            self._inflight_bytes += run_bytes
            self.stats.max_staged_bytes = max(self.stats.max_staged_bytes,
                                              self._inflight_bytes)
            return run
        return None

    def _reader_loop(self) -> None:
        # Retry backoffs inside this thread's disk reads observe the job's
        # cancellation; the thread dies with the pipeline, so no restore.
        if self._cancel is not None:
            set_interrupt(self._cancel.event)
        while True:
            with self._cond:
                run = None
                while run is None:
                    if self._closing or self._scan >= len(self._items):
                        return
                    if self._cancel is not None and self._cancel.cancelled:
                        # Cancellation checkpoint: claim nothing further.
                        # Already-claimed runs finish staging; close()
                        # discards whatever was never consumed.
                        return
                    run = self._claim_locked()
                    if run is None:
                        self._cond.wait()
            try:
                self._read_run(run)
            except BaseException as err:  # bookkeeping bug backstop
                with self._cond:
                    for item in run:
                        if self._state[item.seq] == _CLAIMED:
                            self._state[item.seq] = _FAILED
                            self._errors[item.seq] = err
                            self.stats.failed += 1
                            self._inflight -= 1
                            self._inflight_bytes -= self._nbytes(item)
                    self._closing = True
                    self._cond.notify_all()
                return

    def _read_run(self, run: list[PrefetchItem]) -> None:
        """Read and stage one claimed run; record per-item outcomes."""
        store = self._stores[run[0].access.access.array.name]
        tracer = self._tracer
        if tracer is not None:
            tracer.begin("prefetch.stage", "engine",
                         array=run[0].access.access.array.name,
                         start_block=list(run[0].access.block),
                         blocks=len(run), seq=run[0].seq)
        try:
            blocks: list = [None] * len(run)
            extra = [0] * len(run)
            errors: list[BaseException | None] = [None] * len(run)
            batched = False
            if len(run) > 1:
                try:
                    blocks, extra = store.read_block_run(
                        run[0].access.block, len(run))
                    batched = True
                except Exception:
                    # A batched failure would surface on the run's *first*
                    # consuming access; re-read per item so the error lands
                    # on exactly the access serial execution would charge.
                    blocks = [None] * len(run)
                    extra = [0] * len(run)
            if not batched:
                for i, item in enumerate(run):
                    before = (self._io_stats.thread_value("read_bytes")
                              if self._io_stats is not None else 0)
                    try:
                        blocks[i] = store.read_block(item.access.block)
                    except Exception as err:
                        errors[i] = err
                        continue
                    if self._io_stats is not None:
                        extra[i] = (self._io_stats.thread_value("read_bytes")
                                    - before - self._nbytes(item))
            for i, item in enumerate(run):
                if errors[i] is None:
                    try:
                        self._pool.stage(item.block_key, blocks[i])
                    except Exception as err:
                        errors[i] = err
        finally:
            if tracer is not None:
                tracer.end()

        with self._cond:
            if batched:
                self.stats.batched_runs += 1
                self.stats.batched_blocks += len(run)
            for i, item in enumerate(run):
                if errors[i] is not None:
                    self._state[item.seq] = _FAILED
                    self._errors[item.seq] = errors[i]
                    self.stats.failed += 1
                    self._inflight -= 1
                    self._inflight_bytes -= self._nbytes(item)
                    # Stop claiming: the compute loop will abort on this
                    # access anyway, and further staging is wasted I/O.
                    self._closing = True
                else:
                    self._state[item.seq] = _STAGED
                    self.stats.staged_blocks += 1
                    if tracer is not None:
                        tracer.instant(
                            "exec.io", "engine",
                            stmt=item.access.access.statement.name,
                            array=item.access.access.array.name,
                            op="read",
                            bytes=self._nbytes(item) + extra[i])
            self._cond.notify_all()

    # -- compute side -------------------------------------------------------

    def progress(self, instance_index: int) -> None:
        """Instance ``instance_index`` completed: raise the write barrier."""
        with self._cond:
            if instance_index > self._watermark:
                self._watermark = instance_index
                self._cond.notify_all()

    def consume(self, key: tuple):
        """The staged block for the next planned READ, or ``None``.

        Must be called once per READ access in plan order with that
        access's block key.  Returns the pinned
        :class:`~repro.storage.BufferedBlock` when the pipeline staged the
        block (the stage pin converts to the consumer's pin atomically), or
        ``None`` when the main thread should read serially.  Re-raises a
        reader-thread failure here — on the access that consumes it.
        """
        with self._cond:
            if self._cursor >= len(self._items):
                raise ExecutionError(
                    f"prefetch consume({key}) past the end of the plan's "
                    f"read sequence")
            item = self._items[self._cursor]
            if item.block_key != key:
                raise ExecutionError(
                    f"prefetch consume order mismatch: plan expects "
                    f"{item.block_key} at #{item.seq}, engine asked for {key}")
            seq = self._cursor
            self._cursor += 1
            state = self._state
            if state[seq] == _CLAIMED:
                tracer = self._tracer
                if tracer is not None:
                    tracer.begin("prefetch.wait", "engine", seq=seq,
                                 array=item.access.access.array.name,
                                 block=list(item.access.block))
                t0 = time.perf_counter()
                try:
                    while state[seq] == _CLAIMED:
                        self._cond.wait()
                finally:
                    self.stats.wait_seconds += time.perf_counter() - t0
                    if tracer is not None:
                        tracer.end()
            if state[seq] in (_PENDING, _TAKEN):
                state[seq] = _TAKEN
                self.stats.taken_by_main += 1
                self._cond.notify_all()
                return None
            if state[seq] == _FAILED:
                err = self._errors.pop(seq)
                self._cond.notify_all()
                raise err
            assert state[seq] == _STAGED, state[seq]
            state[seq] = _CONSUMED
            self._inflight -= 1
            self._inflight_bytes -= self._nbytes(item)
            self.stats.consumed_staged += 1
            self._cond.notify_all()
        # Outside the condition: the pool serializes itself, and only this
        # (compute) thread consumes or discards stage marks.
        return self._pool.consume_staged(key, pin=1)

    # -- teardown -----------------------------------------------------------

    def close(self) -> None:
        """Stop the reader and discard staged-but-unconsumed blocks.

        Idempotent; safe after both normal completion and a mid-plan
        failure.  Discarded blocks came straight from disk, so dropping
        them loses nothing — a resumed run re-reads what it needs.
        """
        with self._cond:
            self._closing = True
            self._cond.notify_all()
        self._thread.join()
        for seq in range(self._cursor, len(self._items)):
            if self._state[seq] == _STAGED:
                self._state[seq] = _CONSUMED
                if self._pool.discard_staged(self._items[seq].block_key):
                    self.stats.discarded += 1
        self._errors.clear()
