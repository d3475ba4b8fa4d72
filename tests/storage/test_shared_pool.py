"""Concurrency tests for :class:`repro.storage.SharedBufferPool`.

The invariants a shared pool must hold under contention:

* the byte cap is never exceeded (``peak_bytes <= cap``);
* a pinned block is never evicted — a fetch under an owner's live pin must
  find it resident (same object) without invoking the loader;
* a block is never loaded twice concurrently (loader de-duplication): two
  queries faulting the same key issue exactly one disk read;
* per-owner pin accounting balances, and :meth:`release_owner` sweeps what
  a crashed query leaked without touching other owners' pins.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.exceptions import BufferPoolError
from repro.storage import SharedBufferPool

BLOCK = 64  # floats per block
BLOCK_BYTES = BLOCK * 8


def _data(key: int) -> np.ndarray:
    return np.full(BLOCK, float(key))


class _LoadTracker:
    """Counts loader invocations and flags concurrent loads of one key."""

    def __init__(self):
        self.lock = threading.Lock()
        self.counts: dict[int, int] = {}
        self.in_flight: set[int] = set()
        self.overlapped = False

    def loader(self, key: int, delay: float = 0.0):
        def load():
            with self.lock:
                if key in self.in_flight:
                    self.overlapped = True
                self.in_flight.add(key)
                self.counts[key] = self.counts.get(key, 0) + 1
            if delay:
                threading.Event().wait(delay)
            with self.lock:
                self.in_flight.discard(key)
            return _data(key)
        return load

    @property
    def total(self) -> int:
        with self.lock:
            return sum(self.counts.values())


def _fail_loader(key):
    def load():
        raise AssertionError(f"unexpected load of {key}")
    return load


def _run_bounded(fn, *args, timeout=10):
    """Start ``fn(*args)`` on a daemon thread; ``finish()`` joins it within
    ``timeout`` and returns what it returned or raised.  A hung call fails
    the test instead of the run."""
    box = {}

    def run():
        try:
            box["result"] = fn(*args)
        except BaseException as err:
            box["result"] = err

    thread = threading.Thread(target=run, daemon=True)
    thread.start()

    def finish():
        thread.join(timeout)
        assert not thread.is_alive(), f"{fn.__name__}{args} still blocked"
        return box["result"]

    finish.thread = thread
    return finish


class TestLoaderDedup:
    def test_concurrent_fetch_loads_once(self):
        pool = SharedBufferPool(1 << 20)
        tracker = _LoadTracker()
        started = threading.Barrier(4)
        blocks = []
        lock = threading.Lock()

        def fetch(_):
            started.wait()
            blk = pool.fetch(("x", (0, 0)), tracker.loader(0, delay=0.05))
            with lock:
                blocks.append(blk)

        threads = [threading.Thread(target=fetch, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert tracker.total == 1
        assert not tracker.overlapped
        assert len({id(b) for b in blocks}) == 1
        # One miss (the loading thread); every waiter counts as a hit.
        assert pool.misses == 1
        assert pool.hits == 3

    def test_failed_load_wakes_waiters_and_retries(self):
        pool = SharedBufferPool(1 << 20)
        release = threading.Event()
        calls = []

        def failing():
            calls.append("fail")
            release.wait(5)
            raise OSError("injected")

        def succeeding():
            calls.append("ok")
            return _data(1)

        results = []

        def first():
            try:
                pool.fetch(("y", (0,)), failing)
            except OSError:
                results.append("raised")

        def second():
            results.append(pool.fetch(("y", (0,)), succeeding).data[0])

        t1 = threading.Thread(target=first)
        t1.start()
        while "fail" not in calls:  # first thread owns the in-flight slot
            pass
        t2 = threading.Thread(target=second)
        t2.start()
        release.set()
        t1.join()
        t2.join()
        assert "raised" in results
        assert 1.0 in results  # the waiter re-drove the load itself

    def test_refused_admit_wakes_waiters_and_they_fail_typed(self):
        """A load the *cap* refuses must wake the fetches that joined it,
        exactly as a load whose loader raised does: they were left asleep in
        the condition for good, never reaching a cancel checkpoint."""
        pool = SharedBufferPool(BLOCK_BYTES)
        pool.fetch(("full", (0,)), lambda: _data(0), pin=1)
        key = ("k", (0,))
        loading, release, b_calling = (threading.Event() for _ in range(3))
        b_loads = []

        def slow_loader():
            loading.set()
            release.wait(5)
            return _data(1)

        def b_loader():
            b_loads.append(key)
            return _data(1)

        def fetch_b():
            b_calling.set()
            return pool.fetch(key, b_loader, pin=1, owner="B")

        a = _run_bounded(pool.fetch, key, slow_loader, 1, "A")
        assert loading.wait(5)          # A owns the in-flight slot
        b = _run_bounded(fetch_b)
        assert b_calling.wait(5)
        time.sleep(0.1)
        assert b.thread.is_alive() and not b_loads     # B joined A's load
        release.set()
        assert isinstance(a(), BufferPoolError)
        assert isinstance(b(), BufferPoolError)
        assert b_loads                  # woken, B tried for itself
        assert pool.total_pins() == 1
        assert pool.owner_pin_count("A") == pool.owner_pin_count("B") == 0
        # Nothing is left marked in flight: with room, a plain fetch loads.
        pool.unpin(("full", (0,)))
        assert _run_bounded(pool.fetch, key, lambda: _data(1))().data[0] == 1.0

    def test_distinct_keys_load_in_parallel(self):
        pool = SharedBufferPool(1 << 20)
        gate = threading.Barrier(2, timeout=5)

        def loader(key):
            def load():
                gate.wait()  # both loaders must be in flight at once
                return _data(key)
            return load

        def fetch(key):
            pool.fetch(("z", (key,)), loader(key))

        threads = [threading.Thread(target=fetch, args=(k,)) for k in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()  # would deadlock if loads were serialized


class TestInstallDuringLoad:
    """A block installed while another fetch's loader for the same key is
    running — a plan-exact READ's ``put`` or a prefetcher's ``stage`` beside
    an opportunistic fetch — must survive that load's return.  The loader
    runs outside a re-entrant lock, so it can stand in for the other thread.
    """

    KEY = ("ds_abc", (0,))

    def _check_and_drain(self, pool, installed, blk):
        assert blk is installed
        assert pool.used_bytes == BLOCK_BYTES and len(pool) == 1
        assert pool.pin_count(self.KEY) == 2
        assert pool.owner_pin_count("j1") == pool.owner_pin_count("j2") == 1
        assert (pool.hits, pool.misses) == (0, 1)   # the read did happen
        pool.unpin(self.KEY, owner="j1")
        pool.unpin(self.KEY, owner="j2")
        pool.release(self.KEY)
        assert pool.used_bytes == 0 and pool.total_pins() == 0

    def test_stage_during_load_keeps_its_mark_and_pin(self):
        pool = SharedBufferPool()
        installed = []

        def loader():
            installed.append(pool.stage(self.KEY, _data(7), owner="j2"))
            return _data(7)

        blk = pool.fetch(self.KEY, loader, pin=1, owner="j1")
        assert pool.staged_marks() == 1
        assert pool.consume_staged(self.KEY, owner="j2") is blk
        self._check_and_drain(pool, installed[0], blk)

    def test_put_during_load_keeps_its_pin(self):
        pool = SharedBufferPool()
        installed = []

        def loader():
            installed.append(pool.put(self.KEY, _data(7), pin=1, owner="j2"))
            return _data(7)

        blk = pool.fetch(self.KEY, loader, pin=1, owner="j1")
        self._check_and_drain(pool, installed[0], blk)


class TestOwnerPins:
    def test_release_owner_sweeps_only_that_owner(self):
        pool = SharedBufferPool(1 << 20)
        key = ("a", (0, 0))
        pool.fetch(key, lambda: _data(0), pin=2, owner="job1")
        pool.pin(key, owner="job2")
        assert pool.pin_count(key) == 3
        assert pool.owner_pin_count("job1") == 2
        assert pool.release_owner("job1") == 2
        assert pool.pin_count(key) == 1
        assert pool.owner_pin_count("job1") == 0
        assert pool.release_owner("job2") == 1
        assert pool.pin_count(key) == 0

    def test_balanced_unpin_clears_owner_books(self):
        pool = SharedBufferPool(1 << 20)
        key = ("a", (1, 1))
        pool.fetch(key, lambda: _data(1), pin=1, owner="j")
        pool.unpin(key, owner="j")
        assert pool.owner_pin_count("j") == 0
        assert pool.release_owner("j") == 0

    def test_drop_matching_spares_pinned_and_foreign(self):
        pool = SharedBufferPool(1 << 20)
        pool.fetch(("j1__C", (0,)), lambda: _data(0))
        pool.fetch(("j1__E", (0,)), lambda: _data(1), pin=1, owner="j1")
        pool.fetch(("ds_abc", (0,)), lambda: _data(2))
        dropped = pool.drop_matching(lambda k: k[0].startswith("j1__"))
        assert dropped == 1  # the unpinned private block only
        assert pool.contains(("j1__E", (0,)))
        assert pool.contains(("ds_abc", (0,)))


class TestStress:
    THREADS = 8
    ITERS = 300
    KEYS = 24
    # Each thread holds at most one pin; 8 pinned blocks must always fit.
    CAP = 12 * BLOCK_BYTES

    def test_hammer_invariants(self):
        pool = SharedBufferPool(self.CAP)
        tracker = _LoadTracker()
        errors = []

        def worker(tid):
            rng = np.random.default_rng(tid)
            owner = f"t{tid}"
            try:
                for _ in range(self.ITERS):
                    key_id = int(rng.integers(self.KEYS))
                    key = ("s", (key_id,))
                    blk = pool.fetch(key, tracker.loader(key_id),
                                     pin=1, owner=owner)
                    # Under our live pin the block cannot be evicted: a
                    # re-fetch must find it resident (same object, loader
                    # never invoked) ...
                    again = pool.fetch(key, _fail_loader(key_id))
                    assert again is blk
                    # ... and its payload must be intact.
                    assert blk.data[0] == float(key_id)
                    pool.unpin(key, owner=owner)
            except BaseException as err:
                errors.append(err)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(self.THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]

        assert pool.peak_bytes <= self.CAP
        assert not tracker.overlapped, "two concurrent loads of one key"
        # Every disk read the pool issued is a miss, and vice versa —
        # waiters that joined an in-flight load count as hits.
        assert pool.misses == tracker.total
        fetches = 2 * self.THREADS * self.ITERS
        assert pool.hits + pool.misses == fetches
        # Under a cap of 12 blocks and 24 hot keys there was real pressure.
        assert pool.evictions > 0
        for tid in range(self.THREADS):
            assert pool.owner_pin_count(f"t{tid}") == 0

    def test_mixed_installs_keep_every_ledger(self):
        """Fetches through a loader, plan-exact ``put``s and prefetch
        ``stage``s of the same few keys from more threads than cores, with
        the interpreter switching threads as often as it can: a lost update
        shows as a stage mark that is gone when its owner consumes it, or
        as a byte ledger that no longer matches what is resident."""
        pool = SharedBufferPool()
        errors = []

        def worker(tid):
            rng = np.random.default_rng(tid)
            owner = f"t{tid}"
            try:
                for _ in range(200):
                    key_id = int(rng.integers(3))
                    key = ("ds", (key_id,))
                    op = int(rng.integers(3))
                    if op == 0:
                        def load():
                            time.sleep(0)       # let an install slip in
                            return _data(key_id)
                        pool.fetch(key, load, pin=1, owner=owner)
                    elif op == 1:
                        pool.put(key, _data(key_id), pin=1, owner=owner)
                    else:
                        pool.stage(key, _data(key_id), owner=owner)
                        pool.consume_staged(key, owner=owner)
                    pool.unpin(key, owner=owner)
                    pool.release_if_unpinned(key)
            except BaseException as err:
                errors.append(err)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [_run_bounded(worker, i, timeout=60)
                       for i in range(self.THREADS)]
            for finish in workers:
                finish()
        finally:
            sys.setswitchinterval(interval)
        if errors:
            raise errors[0]
        assert pool.used_bytes == pool.resident_bytes()
        assert pool.total_pins() == pool.staged_marks() == 0
        for tid in range(self.THREADS):
            assert pool.owner_pin_count(f"t{tid}") == 0

    def test_cap_violation_with_all_pinned_raises(self):
        pool = SharedBufferPool(2 * BLOCK_BYTES)
        pool.fetch(("k", (0,)), lambda: _data(0), pin=1)
        pool.fetch(("k", (1,)), lambda: _data(1), pin=1)
        with pytest.raises(BufferPoolError):
            pool.fetch(("k", (2,)), lambda: _data(2), pin=1)


class TestStagingWithOwners:
    def test_stage_consume_moves_pin_to_owner(self):
        pool = SharedBufferPool()
        pool.stage(("A", 0), _data(1), owner="job1")
        assert pool.owner_pin_count("job1") == 1
        blk = pool.consume_staged(("A", 0), pin=1, owner="job1")
        assert blk.data[0] == 1.0
        assert pool.owner_pin_count("job1") == 1
        assert pool.pin_count(("A", 0)) == 1
        pool.unpin(("A", 0), owner="job1")
        assert pool.owner_pin_count("job1") == 0

    def test_release_owner_sweeps_consumed_staged_pins(self):
        """A crashed job's consumed-staged pins are owner pins like any
        other: release_owner reclaims them without touching other jobs."""
        pool = SharedBufferPool()
        pool.stage(("A", 0), _data(1), owner="dead")
        pool.consume_staged(("A", 0), owner="dead")
        pool.pin(("A", 0), owner="alive")
        assert pool.release_owner("dead") == 1
        assert pool.pin_count(("A", 0)) == 1
        assert pool.owner_pin_count("alive") == 1

    def test_discard_staged_drops_owner_pin(self):
        pool = SharedBufferPool()
        pool.stage(("A", 0), _data(1), owner="job1")
        assert pool.discard_staged(("A", 0), owner="job1") is True
        assert pool.owner_pin_count("job1") == 0
        assert not pool.contains(("A", 0))

    def test_concurrent_stage_consume_balances(self):
        """8 jobs stage/consume/unpin disjoint keys concurrently; all pin
        books balance and nothing leaks."""
        pool = SharedBufferPool()
        errors = []

        def job(i):
            try:
                owner = f"job{i}"
                for k in range(50):
                    key = ("A", i, k)
                    pool.stage(key, _data(i), owner=owner)
                    pool.consume_staged(key, owner=owner)
                    pool.unpin(key, owner=owner)
            except BaseException as err:
                errors.append(err)

        threads = [threading.Thread(target=job, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for i in range(8):
            assert pool.owner_pin_count(f"job{i}") == 0
        assert pool.pinned_bytes() == 0
