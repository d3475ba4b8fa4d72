"""Deterministic fault injection and retry policy for the simulated disk.

The paper's engine assumes RIOTStore sits on a reliable device; growing
toward production means the storage layer must *prove* it survives the
usual failure modes.  This module supplies the adversary:

* :class:`FaultPolicy` — per-store / per-op fault rates (transient errors,
  corrupted reads, torn writes), with optional activation delay and budget;
* :class:`FaultInjector` — a seedable decision engine consulted by
  :class:`~repro.storage.disk.DiskFile` on every *counted* operation.  Same
  seed + same operation sequence → same faults, so every failure a test
  provokes is reproducible bit for bit;
* :class:`RetryPolicy` — bounded exponential backoff used by the disk to
  absorb transient faults (absorbed retries are counted in
  ``IOStats.retries``).

Uncounted operations (headers, B-tree pages, checksum tables, input
loading) are never faulted: they model metadata the durability machinery
itself relies on, and keeping them clean makes the injected-fault sequence
a deterministic function of the *plan's* I/O alone.
"""

from __future__ import annotations

import logging
import random
import time
from fnmatch import fnmatch
from typing import Iterable, Sequence

from ..cancel import current_interrupt
from ..obs import trace as obs_trace

__all__ = ["FaultPolicy", "FaultInjector", "InjectedFault", "RetryPolicy"]

log = logging.getLogger("repro.storage.faults")


class RetryPolicy:
    """Bounded retry with exponential backoff.

    ``delay(attempt)`` for attempt 1, 2, 3 ... is ``backoff_base * 2**(n-1)``
    capped at ``backoff_cap``.  A zero base disables sleeping entirely
    (useful in tests, where determinism matters and wall time does not).
    """

    __slots__ = ("max_retries", "backoff_base", "backoff_cap")

    def __init__(self, max_retries: int = 4, backoff_base: float = 0.001,
                 backoff_cap: float = 0.05):
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap

    def delay(self, attempt: int) -> float:
        if self.backoff_base <= 0:
            return 0.0
        return min(self.backoff_cap, self.backoff_base * (2 ** (attempt - 1)))

    def sleep(self, attempt: int, interrupt=None) -> None:
        """Back off before retry ``attempt`` — interruptibly.

        ``interrupt`` is a :class:`threading.Event`; when set (job
        cancellation, service shutdown) the backoff returns immediately so
        the bounded retry loop drains fast and the caller reaches its next
        cancellation checkpoint without stalling.  Defaults to the
        thread-local interrupt installed by the executor / prefetch
        readers (:func:`repro.cancel.interrupt_scope`), so the deep
        ``DiskFile`` retry loops need no signature change.
        """
        d = self.delay(attempt)
        if d <= 0:
            return
        ev = interrupt if interrupt is not None else current_interrupt()
        if ev is None:
            time.sleep(d)
        else:
            ev.wait(d)

    def __repr__(self) -> str:
        return (f"RetryPolicy(max_retries={self.max_retries}, "
                f"base={self.backoff_base}, cap={self.backoff_cap})")


class FaultPolicy:
    """Fault rates for one (file-name pattern, operation) scope.

    ``match`` is an ``fnmatch`` pattern against the file name (e.g.
    ``"A.daf"`` or ``"*.labd"``); ``op`` is ``"read"``, ``"write"`` or
    ``"*"``.  Rates are independent probabilities per operation:

    * ``transient`` — the op raises :class:`TransientIOError` (no transfer);
    * ``corrupt``   — a read completes but returns flipped bytes;
    * ``torn``      — a write lands a strict prefix of its payload, then
      fails as transient (the classic torn-page crash).

    ``after`` skips the first N matching operations (lets a test "break the
    disk" mid-run); ``max_faults`` bounds the total injected by this policy.
    """

    __slots__ = ("match", "op", "transient", "corrupt", "torn",
                 "after", "max_faults", "seen", "injected")

    def __init__(self, match: str = "*", op: str = "*",
                 transient: float = 0.0, corrupt: float = 0.0,
                 torn: float = 0.0, after: int = 0,
                 max_faults: int | None = None):
        if op not in ("read", "write", "*"):
            raise ValueError(f"op must be 'read', 'write' or '*', not {op!r}")
        for name, rate in (("transient", transient), ("corrupt", corrupt),
                           ("torn", torn)):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} rate {rate} outside [0, 1]")
        if transient + corrupt + torn > 1.0:
            raise ValueError("fault rates must sum to <= 1")
        self.match = match
        self.op = op
        self.transient = transient
        self.corrupt = corrupt
        self.torn = torn
        self.after = after
        self.max_faults = max_faults
        self.seen = 0       # matching ops observed
        self.injected = 0   # faults actually injected

    def applies(self, name: str, op: str) -> bool:
        if self.op != "*" and self.op != op:
            return False
        return fnmatch(name, self.match)

    def exhausted(self) -> bool:
        return self.max_faults is not None and self.injected >= self.max_faults

    def __repr__(self) -> str:
        return (f"FaultPolicy({self.match!r}, op={self.op}, "
                f"transient={self.transient}, corrupt={self.corrupt}, "
                f"torn={self.torn}, after={self.after}, "
                f"injected={self.injected})")


class InjectedFault:
    """Trace record of one injected fault."""

    __slots__ = ("seq", "op", "name", "offset", "size", "kind", "detail")

    def __init__(self, seq: int, op: str, name: str, offset: int, size: int,
                 kind: str, detail: int | None = None):
        self.seq = seq
        self.op = op
        self.name = name
        self.offset = offset
        self.size = size
        self.kind = kind        # "transient" | "corrupt" | "torn"
        self.detail = detail    # torn: tear offset; corrupt: flipped byte pos

    def __repr__(self) -> str:
        extra = f"@{self.detail}" if self.detail is not None else ""
        return (f"InjectedFault(#{self.seq} {self.kind}{extra} "
                f"{self.op} {self.name}:{self.offset}+{self.size})")


class FaultInjector:
    """Seedable fault decision engine, consulted per counted disk op.

    The first policy whose scope matches an operation decides its fate;
    every decision draws from one shared :class:`random.Random`, so a fixed
    seed and a fixed operation sequence yield a fixed fault sequence.  Every
    injected fault is appended to ``trace`` and logged on the
    ``repro.storage.faults`` logger.
    """

    def __init__(self, seed: int = 0,
                 policies: Iterable[FaultPolicy] | None = None):
        self.seed = seed
        self.rng = random.Random(seed)
        self.policies: list[FaultPolicy] = list(policies or ())
        self.trace: list[InjectedFault] = []
        self._seq = 0

    @classmethod
    def transient(cls, seed: int = 0, rate: float = 0.05, op: str = "*",
                  match: str = "*") -> "FaultInjector":
        """The common case: uniformly flaky (but recoverable) I/O."""
        return cls(seed, [FaultPolicy(match, op, transient=rate)])

    # -- decision points (called by DiskFile) --------------------------------

    def _decide(self, op: str, name: str, offset: int, size: int
                ) -> tuple[str, int | None] | None:
        for policy in self.policies:
            if not policy.applies(name, op):
                continue
            policy.seen += 1
            if policy.seen <= policy.after or policy.exhausted():
                return None
            u = self.rng.random()
            if u < policy.transient:
                return self._record(policy, op, name, offset, size,
                                    "transient")
            u -= policy.transient
            # Corruption is a read phenomenon, tearing a write phenomenon;
            # each op type has its own second band after the transient one.
            if op == "read" and u < policy.corrupt:
                flip = self.rng.randrange(size) if size > 0 else 0
                return self._record(policy, op, name, offset, size,
                                    "corrupt", flip)
            if op == "write" and u < policy.torn and size > 1:
                tear = 1 + self.rng.randrange(size - 1)
                return self._record(policy, op, name, offset, size,
                                    "torn", tear)
            return None
        return None

    def _record(self, policy: FaultPolicy, op: str, name: str, offset: int,
                size: int, kind: str, detail: int | None = None
                ) -> tuple[str, int | None]:
        policy.injected += 1
        fault = InjectedFault(self._seq, op, name, offset, size, kind, detail)
        self._seq += 1
        self.trace.append(fault)
        tracer = obs_trace.CURRENT
        if tracer is not None:
            tracer.instant("fault.injected", "fault", kind=kind, op=op,
                           file=name, offset=offset, bytes=size, seq=fault.seq)
        log.debug("injected %r", fault)
        return kind, detail

    def on_read(self, name: str, offset: int, size: int
                ) -> tuple[str, int | None] | None:
        """``None`` | ``("transient", None)`` | ``("corrupt", flip_pos)``."""
        return self._decide("read", name, offset, size)

    def on_write(self, name: str, offset: int, size: int
                 ) -> tuple[str, int | None] | None:
        """``None`` | ``("transient", None)`` | ``("torn", tear_offset)``."""
        return self._decide("write", name, offset, size)

    @staticmethod
    def corrupt(data: bytes, flip_pos: int) -> bytes:
        """Return ``data`` with one byte flipped (never a no-op)."""
        if not data:
            return data
        pos = flip_pos % len(data)
        out = bytearray(data)
        out[pos] ^= 0xFF
        return bytes(out)

    # -- introspection -------------------------------------------------------

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for fault in self.trace:
            out[fault.kind] = out.get(fault.kind, 0) + 1
        return out

    def __repr__(self) -> str:
        return (f"FaultInjector(seed={self.seed}, "
                f"{len(self.policies)} policies, {self.counts()})")
