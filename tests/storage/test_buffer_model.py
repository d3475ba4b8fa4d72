"""The buffer pool against a dictionary model (ROADMAP item 4(d)).

A ``hypothesis`` state machine drives every public transition of
:class:`repro.storage.BufferPool` over a handful of keys, two block sizes,
two owners plus ``None`` and a cap of four small blocks, and keeps a plain
dictionary of what must be resident, with which pins, marks and dirty bits.
Two rules cover what single-threaded code can still interleave, because a
loader runs outside the pool's (re-entrant) lock: a loader that raises, and
a loader that ``put``s or ``stage``s its own key before it returns.

What the model does *not* predict is the LRU order: which clean, unpinned,
unstaged block goes when room is needed is the pool's choice (the examples
in ``test_buffer.py`` pin that down), so after an admitting call the model
drops whatever left and checks that each such block was fair game.  It
follows that a *refused* admit may have evicted such blocks before it gave
up; everything a caller can rely on — pins, marks, dirty blocks, the ledgers
— is exactly as it was.

The model books a stage mark's pin to whoever staged it, and only lets that
owner consume or discard the mark, an owner unpin what it holds outright,
and ``release_owner`` sweep an owner whose marks are gone (the executor
closes a job's pipeline before the service sweeps the job): the pool counts
pins, it does not police whose they are.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.exceptions import BufferPoolError
from repro.storage import BufferPool

KEYS = [("A", 0), ("A", 1), ("B", 0), ("B", 1), ("C", 0)]
SMALL, LARGE = 64, 128
CAP = 4 * SMALL
TAGGED = ("j1", "j2")

keys = st.sampled_from(KEYS)
sizes = st.sampled_from([SMALL, LARGE])
owners = st.sampled_from((None,) + TAGGED)
pins = st.integers(0, 2)
picks = st.integers(0, 5)
flags = st.booleans()


def _data(nbytes: int) -> np.ndarray:
    return np.zeros(nbytes // 8)


class _LoadFailed(Exception):
    pass


class _Resident:
    """The model's record of one resident block."""

    def __init__(self, blk, dirty=False, carried=None):
        self.blk = blk                  # the pool's own BufferedBlock
        self.nbytes = blk.nbytes
        self.dirty = dirty
        # owner -> pins held outright; owner of each outstanding stage mark
        # (a mark carries one more pin, booked to that owner).
        self.pins = carried.pins if carried else Counter()
        self.stages = carried.stages if carried else []

    @property
    def total(self) -> int:
        return sum(self.pins.values()) + len(self.stages)

    def held_by(self, owner) -> int:
        return self.pins[owner] + self.stages.count(owner)


class PoolMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.pool = BufferPool(CAP)
        self.model: dict[tuple, _Resident] = {}
        self.hits = self.misses = self.evictions = self.peak = 0

    # -- admitting calls: room may have to be made, or refused ---------------

    def _sync_evictions(self) -> None:
        resident = set(self.pool.resident_keys())
        for key in [k for k in self.model if k not in resident]:
            gone = self.model.pop(key)
            assert not gone.total and not gone.dirty, \
                f"{key} left the pool pinned, staged or dirty"
            self.evictions += 1

    def _admit(self, key, nbytes, call):
        """Run ``call``, which must find ``nbytes`` for ``key``.  Returns its
        block, or ``None`` when the cap refused — which it may only do when
        no legal eviction would have made the room."""
        try:
            blk = call()
        except BufferPoolError:
            self._sync_evictions()
            others = [b for k, b in self.model.items() if k != key]
            assert (nbytes > CAP
                    or any(b.dirty and not b.total for b in others)
                    or sum(b.nbytes for b in others if b.total) + nbytes > CAP), \
                f"refused {nbytes} bytes for {key} with room to make"
            return None
        self._sync_evictions()
        return blk

    @rule(key=keys, nbytes=sizes, pin=pins, owner=owners)
    def fetch(self, key, nbytes, pin, owner):
        known = self.model.get(key)
        loads = []

        def loader():
            loads.append(key)
            return _data(nbytes)

        blk = self._admit(key, nbytes, lambda: self.pool.fetch(
            key, loader, pin=pin, owner=owner))
        if known is not None:
            assert blk is known.blk and not loads
            self.hits += 1
        else:
            assert loads
            self.misses += 1        # the read happened, admitted or not
            if blk is None:
                return
            known = self.model[key] = _Resident(blk)
        known.pins[owner] += pin

    @rule(key=keys, pin=pins, owner=owners)
    def fetch_with_a_loader_that_raises(self, key, pin, owner):
        assume(key not in self.model)

        def loader():
            raise _LoadFailed(key)

        with pytest.raises(_LoadFailed):
            self.pool.fetch(key, loader, pin=pin, owner=owner)

    @rule(key=keys, nbytes=sizes, pin=pins, owner=owners, inner=owners,
          how=st.sampled_from(["put", "stage"]))
    def fetch_with_a_loader_that_installs_its_own_key(self, key, nbytes, pin,
                                                      owner, inner, how):
        assume(key not in self.model)
        installed = []

        def loader():
            if how == "stage":
                installed.append(self.pool.stage(key, _data(nbytes),
                                                 owner=inner))
            else:
                installed.append(self.pool.put(key, _data(nbytes), pin=1,
                                               owner=inner))
            return _data(nbytes)    # the disk copy, which must lose

        blk = self._admit(key, nbytes, lambda: self.pool.fetch(
            key, loader, pin=pin, owner=owner))
        if blk is None:             # the loader's own install was refused
            assert not installed
            return
        assert blk is installed[0]
        self.misses += 1
        known = self.model[key] = _Resident(blk)
        if how == "stage":
            known.stages.append(inner)
        else:
            known.pins[inner] += 1
        known.pins[owner] += pin

    @rule(key=keys, nbytes=sizes, dirty=flags, pin=pins, owner=owners,
          force=flags)
    def put(self, key, nbytes, dirty, pin, owner, force):
        old = self.model.get(key)

        def call():
            return self.pool.put(key, _data(nbytes), dirty, pin=pin,
                                 owner=owner, force=force)

        if old is not None and old.dirty and not dirty and not force:
            with pytest.raises(BufferPoolError, match="dirty"):
                call()
            return
        blk = self._admit(key, nbytes, call)
        if blk is not None:
            new = self.model[key] = _Resident(blk, dirty, carried=old)
            new.pins[owner] += pin

    @rule(key=keys, nbytes=sizes, owner=owners)
    def stage(self, key, nbytes, owner):
        old = self.model.get(key)

        def call():
            return self.pool.stage(key, _data(nbytes), owner=owner)

        if old is not None and old.dirty:
            with pytest.raises(BufferPoolError, match="dirty"):
                call()
            return
        blk = self._admit(key, nbytes, call)
        if blk is not None:
            self.model[key] = _Resident(blk, carried=old)
            self.model[key].stages.append(owner)

    # -- pins and stage marks ---------------------------------------------------

    @rule(key=keys, owner=owners)
    def pin(self, key, owner):
        known = self.model.get(key)
        if known is None:
            with pytest.raises(BufferPoolError, match="non-resident"):
                self.pool.pin(key, owner=owner)
        else:
            self.pool.pin(key, owner=owner)
            known.pins[owner] += 1

    @rule(key=keys, owner=owners)
    def unpin(self, key, owner):
        known = self.model.get(key)
        if known is None or not known.total:
            with pytest.raises(BufferPoolError, match="unpin"):
                self.pool.unpin(key, owner=owner)
        elif known.pins[owner]:
            self.pool.unpin(key, owner=owner)
            known.pins[owner] -= 1

    @rule(key=keys, pin=pins, pick=picks)
    def consume_staged(self, key, pin, pick):
        known = self.model.get(key)
        if known is None or not known.stages:
            with pytest.raises(BufferPoolError, match="non-staged"):
                self.pool.consume_staged(key, pin=pin)
            return
        owner = known.stages.pop(pick % len(known.stages))
        assert self.pool.consume_staged(key, pin=pin, owner=owner) is known.blk
        known.pins[owner] += pin

    @rule(key=keys, pick=picks)
    def discard_staged(self, key, pick):
        known = self.model.get(key)
        if known is None or not known.stages:
            assert self.pool.discard_staged(key) is False
            return
        owner = known.stages.pop(pick % len(known.stages))
        assert self.pool.discard_staged(key, owner=owner) is True
        if not known.total and not known.dirty:
            del self.model[key]

    @rule(owner=st.sampled_from(TAGGED))
    def release_owner(self, owner):
        assume(all(owner not in b.stages for b in self.model.values()))
        held = sum(b.pins[owner] for b in self.model.values())
        assert self.pool.release_owner(owner) == held
        for b in self.model.values():
            del b.pins[owner]

    # -- leaving the pool --------------------------------------------------------

    @rule(key=keys, force=flags)
    def release(self, key, force):
        known = self.model.get(key)
        if known is not None and (known.total or (known.dirty and not force)):
            with pytest.raises(BufferPoolError, match="pinned|dirty"):
                self.pool.release(key, force)
        else:
            self.pool.release(key, force)       # absent is a no-op
            self.model.pop(key, None)

    @rule(key=keys, force=flags)
    def release_if_unpinned(self, key, force):
        known = self.model.get(key)
        if known is None or known.total:
            assert self.pool.release_if_unpinned(key, force) is False
        elif known.dirty and not force:
            with pytest.raises(BufferPoolError, match="dirty"):
                self.pool.release_if_unpinned(key, force)
        else:
            assert self.pool.release_if_unpinned(key, force) is True
            del self.model[key]

    @rule(name=st.sampled_from("ABC"), force=flags)
    def drop_matching(self, name, force):
        victims = [k for k, b in self.model.items()
                   if k[0] == name and not b.total]

        def pred(key):
            return key[0] == name

        if not force and any(self.model[k].dirty for k in victims):
            with pytest.raises(BufferPoolError, match="dirty"):
                self.pool.drop_matching(pred)
            # The sweep stops at the dirty block; the clean ones it had
            # already taken were its to take.
            resident = set(self.pool.resident_keys())
            victims = [k for k in victims if k not in resident]
            assert not any(self.model[k].dirty for k in victims)
        else:
            assert self.pool.drop_matching(pred, force=force) == len(victims)
        for key in victims:
            del self.model[key]

    @rule(key=keys)
    def mark_clean(self, key):
        self.pool.mark_clean(key)
        if key in self.model:
            self.model[key].dirty = False

    # -- what must hold after every step -------------------------------------------

    @invariant()
    def pool_matches_model(self):
        pool, model = self.pool, self.model
        used = sum(b.nbytes for b in model.values())
        assert pool.used_bytes == pool.resident_bytes() == used <= CAP
        assert self.peak <= pool.peak_bytes <= CAP
        assert pool.peak_bytes >= used
        self.peak = pool.peak_bytes
        assert set(pool.resident_keys()) == set(model)
        assert len(pool) == len(model)
        assert pool.total_pins() == sum(b.total for b in model.values())
        for owner in TAGGED:
            assert pool.owner_pin_count(owner) == \
                sum(b.held_by(owner) for b in model.values())
        assert pool.staged_marks() == sum(1 for b in model.values() if b.stages)
        assert pool.pinned_bytes() == \
            sum(b.nbytes for b in model.values() if b.total)
        for key, b in model.items():
            assert pool.contains(key)
            assert pool.pin_count(key) == b.blk.pins == b.total
            assert b.blk.staged == len(b.stages)
            assert b.blk.dirty == b.dirty and b.blk.nbytes == b.nbytes
        assert (pool.hits, pool.misses, pool.evictions) == \
            (self.hits, self.misses, self.evictions)

    def teardown(self):
        """Hand everything back: the ledgers must read zero."""
        pool = self.pool
        for key, b in self.model.items():
            for owner in b.stages:
                assert pool.discard_staged(key, owner=owner)
            for owner, n in b.pins.items():
                for _ in range(n):
                    pool.unpin(key, owner=owner)
        pool.drop_matching(lambda key: True, force=True)
        assert len(pool) == pool.used_bytes == pool.resident_bytes() == 0
        assert pool.total_pins() == pool.staged_marks() == 0
        assert all(pool.owner_pin_count(o) == 0 for o in TAGGED)


class TestPoolAgainstModel(PoolMachine.TestCase):
    settings = settings(max_examples=60, stateful_step_count=40, deadline=None)


@pytest.mark.slow
class TestPoolAgainstModelWide(PoolMachine.TestCase):
    settings = settings(max_examples=500, stateful_step_count=80,
                        deadline=None)


class TestWhatTheModelFound:
    """Two refusals that used to change the pool on their way out."""

    def test_refused_replacement_keeps_the_resident_block(self):
        pool = BufferPool(CAP)
        old = pool.put(("A", 0), _data(SMALL), pin=1, owner="j1")
        pool.put(("A", 1), _data(LARGE), pin=1)
        pool.put(("B", 0), _data(SMALL), pin=1)
        with pytest.raises(BufferPoolError, match="pinned"):
            pool.put(("A", 0), _data(LARGE))    # 64 more bytes than there are
        assert pool.fetch(("A", 0), lambda: _data(SMALL)) is old
        assert pool.pin_count(("A", 0)) == pool.owner_pin_count("j1") == 1
        assert pool.used_bytes == pool.resident_bytes() == CAP
        pool.unpin(("A", 0), owner="j1")

    def test_discarding_the_last_mark_of_a_dirtied_block_keeps_it(self):
        pool = BufferPool()
        pool.stage(("A", 0), _data(SMALL))
        pool.put(("A", 0), _data(SMALL), dirty=True)
        assert pool.discard_staged(("A", 0)) is True
        assert pool.contains(("A", 0))
        assert pool.pin_count(("A", 0)) == pool.staged_marks() == 0
        with pytest.raises(BufferPoolError, match="dirty"):
            pool.release(("A", 0))
        pool.release(("A", 0), force=True)
        assert pool.used_bytes == 0
