"""Code generation, part 1: schedules -> executable plans (Section 5.5).

The paper converts the chosen schedule to C through CLooG and injects buffer
management code.  Our execution substrate is the Python engine, so code
generation produces an :class:`ExecutablePlan`: the statement instances in
scheduled order, each access annotated with the I/O action the plan's
realized sharing dictates —

* ``READ``        — fetch the block from disk,
* ``REUSE``       — the block is resident (realized W->R / R->R pair),
* ``WRITE``       — write the block through to disk,
* ``WRITE_SKIP``  — keep the block in memory only (overwritten later, or a
                    fully-shared intermediate whose write is elided),

plus pin/unpin directives implementing the residency intervals the cost
model assumed.  The engine replays this plan verbatim, which is what makes
the predicted-vs-actual comparison in the benchmarks meaningful.
"""

from __future__ import annotations

import enum
from typing import Mapping

from ..ir import Access, Program, Schedule
from ..optimizer.costing import PlanTrace, ScheduledEvent, trace_plan
from ..optimizer.plan import Plan

__all__ = ["IOAction", "PlannedAccess", "PlannedInstance", "ExecutablePlan",
           "PrefetchItem", "build_executable_plan"]


class IOAction(enum.Enum):
    READ = "read"
    REUSE = "reuse"
    WRITE = "write"
    WRITE_SKIP = "write_skip"


class PlannedAccess:
    """One access of one instance, with its I/O action and pin directives."""

    __slots__ = ("access", "block", "action", "pin_after", "unpin_before")

    def __init__(self, access: Access, block: tuple[int, ...], action: IOAction):
        self.access = access
        self.block = block
        self.action = action
        # Residency management, filled in by the planner (counts, because
        # one event can open or close several holds):
        self.pin_after = 0      # holds opened by this access
        self.unpin_before = 0   # holds closed at this access

    @property
    def block_key(self) -> tuple:
        return (self.access.array.name, self.block)

    def __repr__(self) -> str:
        flags = "".join([f" +pin{self.pin_after}" if self.pin_after else "",
                         f" -pin{self.unpin_before}" if self.unpin_before else ""])
        return f"{self.action.value}:{self.access.array.name}{self.block}{flags}"


class PlannedInstance:
    """One statement instance in scheduled order."""

    __slots__ = ("stmt", "point", "reads", "write")

    def __init__(self, stmt, point, reads: list[PlannedAccess],
                 write: PlannedAccess | None):
        self.stmt = stmt
        self.point = point
        self.reads = reads
        self.write = write

    def __repr__(self) -> str:
        return f"PlannedInstance({self.stmt.name}@{self.point})"


class PrefetchItem:
    """One future disk READ in plan order, as seen by the prefetch pipeline.

    ``seq`` is the item's position in the plan's READ sequence (dense,
    0-based), ``instance`` the index of the owning :class:`PlannedInstance`,
    and ``linear`` the block's column-major linear index within its array's
    block grid — consecutive ``linear`` values on the same array form a
    contiguous on-disk run eligible for a batched read.  ``barrier`` is the
    instance index of the last *disk* WRITE of this block that precedes the
    read in plan order (``-1`` if none): the pipeline must not read the
    block from disk before that instance has completed, or it would stage
    stale bytes.
    """

    __slots__ = ("seq", "instance", "access", "barrier", "linear")

    def __init__(self, seq: int, instance: int, access: PlannedAccess,
                 barrier: int, linear: int):
        self.seq = seq
        self.instance = instance
        self.access = access
        self.barrier = barrier
        self.linear = linear

    @property
    def block_key(self) -> tuple:
        return self.access.block_key

    def __repr__(self) -> str:
        return (f"PrefetchItem(#{self.seq} inst={self.instance} "
                f"{self.access.access.array.name}{self.access.block} "
                f"lin={self.linear} barrier={self.barrier})")


class ExecutablePlan:
    """The fully ordered, I/O-annotated plan the engine executes."""

    __slots__ = ("program", "params", "schedule", "instances", "trace")

    def __init__(self, program: Program, params: Mapping[str, int],
                 schedule: Schedule, instances: list[PlannedInstance],
                 trace: PlanTrace):
        self.program = program
        self.params = dict(params)
        self.schedule = schedule
        self.instances = instances
        self.trace = trace

    def read_sequence(self, start: int = 0) -> list[PrefetchItem]:
        """The future disk-READ sequence from instance ``start`` onward.

        Walks every instance (including those before ``start``, which are
        needed to pick up write barriers) and emits one :class:`PrefetchItem`
        per ``READ`` access of instances ``>= start``, in plan order.  Only
        actual disk WRITEs raise a block's barrier — ``WRITE_SKIP`` keeps
        the block memory-resident, so a later READ of it never happens for
        that version and any recorded barrier is conservative but harmless.
        """
        grids: dict[str, tuple[int, ...]] = {
            name: arr.num_blocks(self.params)
            for name, arr in self.program.arrays.items()
        }

        def _linear(coords: tuple[int, ...], grid: tuple[int, ...]) -> int:
            # Column-major, matching BlockLayout.linearize: the *first*
            # coordinate varies fastest on disk.
            idx = 0
            for c, g in zip(reversed(coords), reversed(grid)):
                idx = idx * g + c
            return idx

        items: list[PrefetchItem] = []
        last_write: dict[tuple, int] = {}
        seq = 0
        for index, inst in enumerate(self.instances):
            if index >= start:
                for pa in inst.reads:
                    if pa.action is IOAction.READ:
                        name = pa.access.array.name
                        items.append(PrefetchItem(
                            seq, index, pa,
                            last_write.get(pa.block_key, -1),
                            _linear(pa.block, grids[name])))
                        seq += 1
            if inst.write is not None and inst.write.action is IOAction.WRITE:
                last_write[inst.write.block_key] = index
        return items

    def disk_arrays(self) -> frozenset[str]:
        """The arrays this plan reads from or writes to disk.

        The one answer to "which arrays get a store": an intermediate
        outside this set has every write elided and every read served
        from memory, so the job creates no file for it.
        """
        return frozenset(
            pa.access.array.name for inst in self.instances
            for pa in inst.reads + ([inst.write] if inst.write else [])
            if pa.action is IOAction.READ or pa.action is IOAction.WRITE)

    def io_summary(self) -> dict[str, int]:
        counts = {a.value: 0 for a in IOAction}
        for inst in self.instances:
            for pa in inst.reads + ([inst.write] if inst.write else []):
                counts[pa.action.value] += 1
        return counts

    def __repr__(self) -> str:
        return (f"ExecutablePlan({self.program.name}, "
                f"{len(self.instances)} instances, {self.io_summary()})")


def build_executable_plan(program: Program, params: Mapping[str, int],
                          plan: Plan) -> ExecutablePlan:
    """Lower an optimizer plan to an executable plan."""
    return _from_trace(program, params, plan.schedule,
                       trace_plan(program, params, plan.schedule, plan.realized))


def _from_trace(program: Program, params: Mapping[str, int],
                schedule: Schedule, trace: PlanTrace) -> ExecutablePlan:
    # Group events back into statement instances (time without micro digit).
    groups: dict[tuple, list[ScheduledEvent]] = {}
    order: list[tuple] = []
    for ev in trace.events:
        key = (ev.access.statement.name, ev.point)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(ev)

    # Residency: for every held interval, the block must stay pinned from its
    # first to its last use.  Track, per block key, the set of event times
    # that open/close holds.
    hold_open: dict[tuple, list] = {}
    hold_close: dict[tuple, list] = {}
    for (lo, hi, block_key, _nbytes) in trace.held:
        hold_open.setdefault((block_key, lo), []).append(hi)
        hold_close.setdefault((block_key, hi), []).append(lo)

    instances: list[PlannedInstance] = []
    for key in order:
        events = groups[key]
        stmt = events[0].access.statement
        point = events[0].point
        reads: list[PlannedAccess] = []
        write: PlannedAccess | None = None
        for ev in events:
            if ev.is_write:
                action = (IOAction.WRITE_SKIP if (ev.saved or ev.elided)
                          else IOAction.WRITE)
            else:
                action = IOAction.REUSE if ev.saved else IOAction.READ
            pa = PlannedAccess(ev.access, ev.block, action)
            pa.pin_after = len(hold_open.get((ev.block_key, ev.time), ()))
            pa.unpin_before = len(hold_close.get((ev.block_key, ev.time), ()))
            if ev.is_write:
                write = pa
            else:
                reads.append(pa)
        instances.append(PlannedInstance(stmt, point, reads, write))
    return ExecutablePlan(program, params, schedule, instances, trace)
