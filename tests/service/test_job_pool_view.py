"""Direct tests of :class:`repro.service.JobPoolView`.

The view is the one wrapper left in front of the pool because it hides
three things the engine does not know: the job's key namespace, its owner
tag, and its own hit/miss counts.
"""

import threading
import time

import numpy as np

from repro.service import JobPoolView
from repro.storage import BufferPool


def _data(value: float) -> np.ndarray:
    return np.full(8, value)


def _fail_loader():
    raise AssertionError("unexpected load")


def _views(pool):
    """Two jobs running one template over one shared input."""
    return (JobPoolView(pool, {"A": "ds_abc", "C": "j1__C"}, owner="j1"),
            JobPoolView(pool, {"A": "ds_abc", "C": "j2__C"}, owner="j2"))


class TestNamespace:
    def test_private_arrays_land_on_two_blocks(self):
        pool = BufferPool()
        v1, v2 = _views(pool)
        v1.put(("C", (0, 0)), _data(1.0))
        v2.put(("C", (0, 0)), _data(2.0))
        assert sorted(pool.resident_keys()) == [("j1__C", (0, 0)),
                                                ("j2__C", (0, 0))]
        assert v1.fetch(("C", (0, 0)), _fail_loader).data[0] == 1.0
        assert v2.fetch(("C", (0, 0)), _fail_loader).data[0] == 2.0
        assert v1.contains(("C", (0, 0)))
        assert v1.release_if_unpinned(("C", (0, 0))) is True
        assert not v1.contains(("C", (0, 0))) and v2.contains(("C", (0, 0)))

    def test_shared_input_is_loaded_once(self):
        pool = BufferPool()
        v1, v2 = _views(pool)
        blk = v1.fetch(("A", (0, 0)), lambda: _data(7.0))
        assert v2.fetch(("A", (0, 0)), _fail_loader) is blk
        assert pool.resident_keys() == [("ds_abc", (0, 0))]
        assert (v1.hits, v1.misses) == (0, 1)
        assert (v2.hits, v2.misses) == (1, 0)
        assert (pool.hits, pool.misses) == (1, 1)
        assert v1.peak_bytes == v2.peak_bytes == pool.peak_bytes == blk.nbytes


class TestOwnerBooking:
    def test_every_pin_is_booked_to_the_views_owner(self):
        pool = BufferPool()
        v1, v2 = _views(pool)
        v1.fetch(("A", (0, 0)), lambda: _data(7.0), pin=1)
        v1.put(("C", (0, 0)), _data(1.0), pin=2)
        v1.pin(("A", (0, 0)))
        v1.stage(("A", (0, 1)), _data(8.0))
        assert pool.owner_pin_count("j1") == 5
        v1.consume_staged(("A", (0, 1)), pin=1)     # the stage pin changes hands
        assert pool.owner_pin_count("j1") == 5
        v2.fetch(("A", (0, 0)), _fail_loader, pin=1)
        assert pool.owner_pin_count("j2") == 1
        assert pool.total_pins() == 6
        v1.unpin(("A", (0, 0)))
        v1.stage(("A", (0, 2)), _data(9.0))
        assert v1.discard_staged(("A", (0, 2))) is True
        assert pool.owner_pin_count("j1") == 4
        assert pool.staged_marks() == 0

    def test_release_owner_sweeps_one_view_not_the_other(self):
        pool = BufferPool()
        v1, v2 = _views(pool)
        v1.fetch(("A", (0, 0)), lambda: _data(7.0), pin=2)
        v2.fetch(("A", (0, 0)), _fail_loader, pin=1)
        v1.put(("C", (0, 0)), _data(1.0), pin=1)
        assert pool.release_owner("j1") == 3
        assert pool.owner_pin_count("j1") == 0
        assert pool.owner_pin_count("j2") == 1
        assert pool.pin_count(("ds_abc", (0, 0))) == 1
        v2.unpin(("A", (0, 0)))
        assert pool.total_pins() == 0


class TestJoinedLoad:
    def test_joining_another_views_load_is_a_hit_here_and_a_miss_there(self):
        pool = BufferPool()
        v1, v2 = _views(pool)
        loading, release = threading.Event(), threading.Event()

        def slow_loader():
            loading.set()
            release.wait(5)
            return _data(7.0)

        got = {}
        t1 = threading.Thread(target=lambda: got.update(
            v1=v1.fetch(("A", (0, 0)), slow_loader)), daemon=True)
        t1.start()
        assert loading.wait(5)
        t2 = threading.Thread(target=lambda: got.update(
            v2=v2.fetch(("A", (0, 0)), _fail_loader)), daemon=True)
        t2.start()
        time.sleep(0.05)            # v2 is parked on v1's in-flight read
        assert t2.is_alive()
        release.set()
        t1.join(5)
        t2.join(5)
        assert not t1.is_alive() and not t2.is_alive()
        assert got["v1"] is got["v2"]
        assert (v1.hits, v1.misses) == (0, 1)
        assert (v2.hits, v2.misses) == (1, 0)
        assert (pool.hits, pool.misses) == (1, 1)
