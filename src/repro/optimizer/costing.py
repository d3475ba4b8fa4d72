"""Plan cost evaluation (Section 5.4): I/O cost and memory requirement.

Costs are computed exactly, at block granularity, for bound parameters:

* **I/O cost** — every access instance is one block I/O unless saved by a
  realized sharing opportunity (W->R / R->R save the later read of the pair;
  W->W saves the earlier write) or elided by dead-write elimination
  (footnote 8: a write to an intermediate array whose every following read
  — up to the next overwrite — is served from memory need not hit disk).
  Byte volumes are converted to time by a linear model with separate read
  and write bandwidths (the paper measured 96 MB/s and 60 MB/s).

* **Memory requirement** — at every scheduled time, the blocks the current
  instance touches, plus every block held between the two ends of a
  realized W->R / R->R pair spanning that time; the plan's requirement is
  the maximum over time.

The paper evaluates these as piecewise quasipolynomials in the parameters;
we count integer points instead (exact, and cheap at block granularity) —
see DESIGN.md substitution #6.  The points, their accesses and blocks are
enumerated once per program and parameter binding (each statement's event
table, :meth:`repro.ir.Statement.events`); a plan adds only its schedule's
time vectors.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter
from typing import Mapping, Sequence

import numpy as np

from ..analysis import SharingOpportunity
from ..ir import Access, ArrayKind, Program, Schedule, StatementEvents

__all__ = ["IOModel", "PlanCost", "PlanTrace", "evaluate_plan", "trace_plan",
           "collect_events", "ScheduledEvent", "IOBound"]

MB = 1_000_000
_NP_SAFE = 1 << 62  # int64 headroom for the time-vector product
_time = attrgetter("time")


class IOModel:
    """Linear I/O time model: time = reads/read_bw + writes/write_bw."""

    __slots__ = ("read_bw", "write_bw")

    def __init__(self, read_bw: float = 96 * MB, write_bw: float = 60 * MB):
        if read_bw <= 0 or write_bw <= 0:
            raise ValueError("bandwidths must be positive")
        self.read_bw = float(read_bw)
        self.write_bw = float(write_bw)

    def seconds(self, read_bytes: int, write_bytes: int) -> float:
        return read_bytes / self.read_bw + write_bytes / self.write_bw

    def __repr__(self) -> str:
        return f"IOModel(read={self.read_bw / MB:.0f}MB/s, write={self.write_bw / MB:.0f}MB/s)"


class PlanCost:
    """Evaluated cost of one plan."""

    __slots__ = ("read_bytes", "write_bytes", "io_seconds", "memory_bytes",
                 "saved_read_bytes", "saved_write_bytes", "elided_write_bytes",
                 "baseline_read_bytes", "baseline_write_bytes")

    def __init__(self, read_bytes: int, write_bytes: int, io_seconds: float,
                 memory_bytes: int, saved_read_bytes: int, saved_write_bytes: int,
                 elided_write_bytes: int, baseline_read_bytes: int,
                 baseline_write_bytes: int):
        self.read_bytes = read_bytes
        self.write_bytes = write_bytes
        self.io_seconds = io_seconds
        self.memory_bytes = memory_bytes
        self.saved_read_bytes = saved_read_bytes
        self.saved_write_bytes = saved_write_bytes
        self.elided_write_bytes = elided_write_bytes
        self.baseline_read_bytes = baseline_read_bytes
        self.baseline_write_bytes = baseline_write_bytes

    @property
    def total_bytes(self) -> int:
        return self.read_bytes + self.write_bytes

    def __repr__(self) -> str:
        return (f"PlanCost(io={self.io_seconds:.1f}s, "
                f"read={self.read_bytes / 1e9:.2f}GB, write={self.write_bytes / 1e9:.2f}GB, "
                f"mem={self.memory_bytes / 1e6:.0f}MB)")


class ScheduledEvent:
    """One access instance with its time under the evaluated schedule."""

    __slots__ = ("access", "point", "block", "time", "bytes", "saved", "elided",
                 "is_write", "block_key")

    def __init__(self, access: Access, point: tuple[int, ...],
                 block: tuple[int, ...], time: tuple[Fraction, ...], nbytes: int,
                 is_write: bool, block_key: tuple):
        self.access = access
        self.point = point
        self.block = block
        self.time = time
        self.bytes = nbytes
        self.saved = False
        self.elided = False
        self.is_write = is_write
        self.block_key = block_key


def _block_bytes(access: Access, block_bytes: Mapping[str, int] | None) -> int:
    """Bytes of one block of the accessed array; ``block_bytes`` overrides
    an array's own block size by name."""
    return (block_bytes or {}).get(access.array.name, access.array.block_bytes)


def _integer_rows(rows, stmt, params: Mapping[str, int]):
    """``(coefficients over the loop variables, constants)`` of schedule
    rows that are integer-affine under integer bindings, else None."""
    column = {v: i for i, v in enumerate(stmt.loop_vars)}
    coeffs, consts = [], []
    for expr in rows:
        form = expr.int_form()
        if form is None:
            return None
        const, terms = form
        row = [0] * stmt.depth
        for name, c in terms:
            if name in params:  # a binding shadows a loop variable
                if type(params[name]) is not int:
                    return None
                const += c * params[name]
            elif name in column:
                row[column[name]] = c
            else:
                return None  # unbound: evaluate() raises the error
        coeffs.append(row)
        consts.append(const)
    return coeffs, consts


def _instance_times(table: StatementEvents, schedule: Schedule,
                    params: Mapping[str, int]) -> list[tuple]:
    """Every instance's time vector under ``schedule``: one integer matrix
    product when the rows are integer-affine and small, else row-by-row
    evaluation."""
    stmt = table.statement
    rows = schedule.rows_for(stmt)
    integer = _integer_rows(rows, stmt, params)
    if integer is not None:
        coeffs, consts = integer
        points = table.matrix
        pmax = int(np.abs(points).max()) if points.size else 0
        cmax = max((abs(c) for row in coeffs for c in row), default=0)
        if stmt.depth * cmax * pmax + max(map(abs, consts), default=0) < _NP_SAFE:
            times = (points @ np.array(coeffs, dtype=np.int64).reshape(
                len(rows), stmt.depth).T + np.array(consts, dtype=np.int64))
            return [tuple(t) for t in times.tolist()]
    return [schedule.time_vector(stmt, p, params) for p in table.points]


def _scheduled_events(program: Program, params: Mapping[str, int],
                      schedule: Schedule,
                      block_bytes: Mapping[str, int] | None
                      ) -> dict[str, tuple[StatementEvents, list[ScheduledEvent]]]:
    """Per statement name: its event table and those events stamped with
    ``schedule``'s times, in table order (reads at micro time 0, the write
    at 1)."""
    out = {}
    for stmt in program.statements:
        table = stmt.events(params)
        slots = [(a, a.micro, a.is_write, _block_bytes(a, block_bytes))
                 for a in stmt.accesses]
        stamped = [(t + (0,), t + (1,))
                   for t in _instance_times(table, schedule, params)]
        points = table.points
        out[stmt.name] = (table, [
            ScheduledEvent(access, points[k], block, stamped[k][micro],
                           nbytes, is_write, key)
            for k, (access, micro, is_write, nbytes), block, key in zip(
                table.inst, map(slots.__getitem__, table.slot), table.block,
                table.block_key)])
    return out


def _in_time_order(scheduled: Mapping) -> list[ScheduledEvent]:
    events = [ev for _, evs in scheduled.values() for ev in evs]
    events.sort(key=_time)
    return events


def collect_events(program: Program, params: Mapping[str, int],
                   schedule: Schedule,
                   block_bytes: Mapping[str, int] | None = None
                   ) -> list[ScheduledEvent]:
    """All access events ordered by the given schedule (reads before the
    write within one instance)."""
    return _in_time_order(_scheduled_events(program, params, schedule,
                                            block_bytes))


class PlanTrace:
    """Annotated execution trace of one plan: ordered events with their
    saved/elided verdicts, plus the residency intervals of shared blocks.

    Both the cost evaluator and the code generator are built on this, so the
    engine executes exactly what the optimizer costed.
    """

    __slots__ = ("events", "held")

    def __init__(self, events: list[ScheduledEvent],
                 held: list[tuple]):
        self.events = events
        self.held = held


def trace_plan(program: Program, params: Mapping[str, int],
               schedule: Schedule,
               realized: Sequence[SharingOpportunity],
               block_bytes: Mapping[str, int] | None = None) -> PlanTrace:
    """Annotate every access event with the plan's sharing decisions.

    The events come from each statement's schedule-independent event table
    (:meth:`repro.ir.Statement.events`), and each realized co-access's
    pairs from its memoized event positions, so a plan costs only its time
    vectors, one sort and the passes below.
    """
    scheduled = _scheduled_events(program, params, schedule, block_bytes)
    events = _in_time_order(scheduled)

    held: list[tuple] = []
    for opp in realized:
        src, tgt = opp.co.src, opp.co.tgt
        src_side = scheduled.get(src.statement.name)
        tgt_side = scheduled.get(tgt.statement.name)
        if src_side is None or tgt_side is None:
            continue
        src_events, tgt_events = src_side[1], tgt_side[1]
        write_write = src.is_write and tgt.is_write
        for i, j in opp.co.event_pairs(params, src_side[0], tgt_side[0]):
            es, et = src_events[i], tgt_events[j]
            if write_write:
                es.saved = True
                continue
            early, late = (es, et) if es.time <= et.time else (et, es)
            late.saved = True
            held.append((early.time, late.time, es.block_key, es.bytes))

    _downgrade_unsound_write_saves(events)
    _elide_dead_writes(events)
    return PlanTrace(events, held)


def _downgrade_unsound_write_saves(events: list[ScheduledEvent]) -> None:
    """Skipping a write is only sound if no later read needs the disk copy.

    A W->W pair lets the earlier write stay in memory *provided* every read
    of the block before the overwrite is itself served from memory (realized
    W->R / R->R).  The paper's plans always pair W->W with the corresponding
    W->R; for candidate sets that realize W->W alone we must keep the write,
    sacrificing that saving rather than correctness.
    """
    by_block: dict[tuple, list[ScheduledEvent]] = {}
    for ev in events:  # already in time order
        by_block.setdefault(ev.block_key, []).append(ev)
    for chain in by_block.values():
        for i, ev in enumerate(chain):
            if not (ev.is_write and ev.saved):
                continue
            for later in chain[i + 1:]:
                if later.is_write:
                    break
                if not later.saved:  # a disk read depends on this write
                    ev.saved = False
                    break


def evaluate_plan(program: Program, params: Mapping[str, int],
                  schedule: Schedule,
                  realized: Sequence[SharingOpportunity],
                  io_model: IOModel | None = None,
                  block_bytes: Mapping[str, int] | None = None) -> PlanCost:
    """Cost one plan: a schedule plus the sharing opportunities it realizes."""
    io_model = io_model or IOModel()
    trace = trace_plan(program, params, schedule, realized, block_bytes)
    events, held = trace.events, trace.held

    baseline_reads = baseline_writes = read_bytes = write_bytes = elided = 0
    for e in events:
        if e.is_write:
            baseline_writes += e.bytes
            if not e.saved:
                if e.elided:
                    elided += e.bytes
                else:
                    write_bytes += e.bytes
        else:
            baseline_reads += e.bytes
            if not e.saved:
                read_bytes += e.bytes
    saved_reads = baseline_reads - read_bytes
    saved_writes = baseline_writes - write_bytes

    memory = _memory_requirement(events, held)
    return PlanCost(read_bytes, write_bytes,
                    io_model.seconds(read_bytes, write_bytes), memory,
                    saved_reads, saved_writes, elided,
                    baseline_reads, baseline_writes)


def _elide_dead_writes(events: list[ScheduledEvent]) -> None:
    """Mark writes to intermediate arrays whose data never needs to reach disk.

    A write can be elided when every read of its block before the next write
    (in the plan's order) is served from memory, and the array is not a
    program output.  Works backward so chains of fully-shared writes elide
    together.
    """
    by_block: dict[tuple, list[ScheduledEvent]] = {}
    for ev in events:
        by_block.setdefault(ev.block_key, []).append(ev)
    for chain in by_block.values():
        if chain[0].access.array.kind is not ArrayKind.INTERMEDIATE:
            continue
        for i, ev in enumerate(chain):
            if not ev.is_write or ev.saved:
                continue
            dependent_reads = []
            for later in chain[i + 1:]:
                if later.is_write:
                    break
                dependent_reads.append(later)
            if all(r.saved for r in dependent_reads):
                ev.elided = True


def _memory_requirement(events: list[ScheduledEvent],
                        held: list[tuple]) -> int:
    """Max over scheduled times of touched-blocks + held-blocks bytes.

    Implemented as an interval sweep: residency intervals are merged per
    block (a block counts once no matter how many realized pairs keep it
    resident) and activated/retired with two pointers as the sweep visits
    instance times in schedule order.  O((E + H) log H) instead of the
    naive O(T * H) scan, which dominated plan costing.
    """
    # Group events by statement-instance time prefix (drop the micro digit):
    # an instance needs all its operand blocks simultaneously.
    by_instance: dict[tuple, dict[tuple, int]] = {}
    for ev in events:
        key = ev.time[:-1]
        by_instance.setdefault(key, {})[ev.block_key] = ev.bytes
    if not by_instance:
        return 0

    # Per-block merged residency intervals over instance-time prefixes.
    per_key: dict[tuple, tuple[int, list]] = {}
    for (lo, hi, block_key, nbytes) in held:
        per_key.setdefault(block_key, (nbytes, ()))
        nb, ivs = per_key[block_key]
        per_key[block_key] = (nb, list(ivs) + [(lo[:-1], hi[:-1])])
    starts: list[tuple] = []   # (time, block_key): block becomes resident
    ends: list[tuple] = []     # (time, block_key): residency expires after
    key_bytes: dict[tuple, int] = {}
    for block_key, (nbytes, ivs) in per_key.items():
        key_bytes[block_key] = nbytes
        ivs.sort()
        merged: list[list] = []
        for lo, hi in ivs:
            if merged and lo <= merged[-1][1]:
                if hi > merged[-1][1]:
                    merged[-1][1] = hi
            else:
                merged.append([lo, hi])
        for lo, hi in merged:
            starts.append((lo, block_key))
            ends.append((hi, block_key))
    starts.sort(key=lambda s: s[0])
    ends.sort(key=lambda s: s[0])

    # Events arrive schedule-sorted, so instance prefixes are already in
    # sweep order.
    times = list(by_instance)
    active: dict[tuple, int] = {}  # block_key -> open interval count (0/1)
    active_total = 0
    si = ei = 0
    peak = 0
    for t in times:
        while si < len(starts) and starts[si][0] <= t:
            k = starts[si][1]
            n = active.get(k, 0)
            if n == 0:
                active_total += key_bytes[k]
            active[k] = n + 1
            si += 1
        while ei < len(ends) and ends[ei][0] < t:
            k = ends[ei][1]
            n = active[k] - 1
            if n == 0:
                active_total -= key_bytes[k]
            active[k] = n
            ei += 1
        touched = by_instance[t]
        total = sum(touched.values()) + active_total
        for k in touched:
            if active.get(k, 0):
                total -= key_bytes[k]  # held block the instance also touches
        if total > peak:
            peak = total
    return peak


# -- static I/O lower bounds (bound-pruned search support) -------------------


def opportunity_savings_seconds_bound(opp: SharingOpportunity,
                                      params: Mapping[str, int],
                                      io_model: IOModel,
                                      block_bytes: Mapping[str, int] | None = None
                                      ) -> float:
    """Upper bound on the I/O seconds realizing ``opp`` can possibly save.

    Each co-access pair saves at most one block transfer of the shared
    array; whether the saved transfer is a read or a write depends on the
    schedule, so the bound charges the slower bandwidth.  Overcounting
    (duplicate pairs, pairs whose instances a schedule never co-locates)
    only makes the resulting lower bound looser, never unsound.
    """
    npairs = len(opp.co.pairs(params))
    return (npairs * _block_bytes(opp.co.tgt, block_bytes)
            / min(io_model.read_bw, io_model.write_bw))


def elidable_write_bytes(program: Program, params: Mapping[str, int],
                         block_bytes: Mapping[str, int] | None = None) -> int:
    """Upper bound on write bytes dead-write elimination could ever elide:
    every write to an intermediate array (footnote 8 only applies there)."""
    total = 0
    for stmt in program.statements:
        for s in stmt.events(params).slot:
            access = stmt.accesses[s]
            if access.is_write and access.array.kind is ArrayKind.INTERMEDIATE:
                total += _block_bytes(access, block_bytes)
    return total


def io_lower_bound(baseline_read_bytes: int, baseline_write_bytes: int,
                   savings_seconds_bound: float, elidable_bytes: int,
                   io_model: IOModel) -> float:
    """Lower bound on the I/O seconds of any plan whose realized set's
    savings bounds sum to ``savings_seconds_bound``.

    Every access instance costs one block transfer unless saved by a
    realized pair (bounded per opportunity) or elided as a dead write
    (bounded by all intermediate writes), so no plan in the subtree can
    beat baseline minus those maxima.
    """
    base = io_model.seconds(baseline_read_bytes, baseline_write_bytes)
    lb = base - savings_seconds_bound - elidable_bytes / io_model.write_bw
    return lb if lb > 0.0 else 0.0


class IOBound:
    """The bound-pruned search's static lower bounds, for one program and
    parameter binding.

    ``bound(baseline, S)`` bounds from below the I/O seconds of any plan
    realizing the opportunity-index set ``S``, given the cost of the
    original-order plan (whose baseline byte volumes it starts from);
    ``bound(baseline)`` is the global bound over every usable opportunity,
    below which no plan at all can go.
    """

    def __init__(self, program: Program, params: Mapping[str, int],
                 io_model: IOModel,
                 opportunities: Sequence[SharingOpportunity],
                 block_bytes: Mapping[str, int] | None = None):
        self.io_model = io_model
        self.savings = {o.index: opportunity_savings_seconds_bound(
            o, params, io_model, block_bytes) for o in opportunities
            if o.reduced}
        self.elidable = elidable_write_bytes(program, params, block_bytes)

    def __call__(self, baseline: PlanCost, idx_set=None) -> float:
        realized = self.savings if idx_set is None else idx_set
        return io_lower_bound(baseline.baseline_read_bytes,
                              baseline.baseline_write_bytes,
                              sum(self.savings[i] for i in realized),
                              self.elidable, self.io_model)
