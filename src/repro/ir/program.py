"""Program IR: arrays, accesses, statements, programs (Section 4.1).

A *program* is a set of statements, each with

* an iteration domain ``D_s`` — an integer polyhedron over the statement's
  loop variables and the global parameters;
* a list of accesses ``<s, t, A, Phi>`` — at most one write per statement
  (paper's assumption), each mapping the iteration vector to a *block*
  subscript of an array via an affine function Phi;
* a kernel tag telling the execution engine what in-core computation the
  statement performs on the blocks it touches.

Array subscripts address logical *blocks* (the unit of I/O), never single
elements; block shapes and dtypes live on :class:`Array` so the cost model
and the storage engine can turn block counts into bytes.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..exceptions import ProgramError
from ..polyhedral import Polyhedron, Space
from .expr import AffineExpr, affine

__all__ = ["AccessType", "Array", "Access", "Statement", "StatementEvents",
           "Program", "ArrayKind"]


class AccessType(enum.Enum):
    READ = "R"
    WRITE = "W"

    def __str__(self) -> str:
        return self.value


class ArrayKind(enum.Enum):
    """How an array participates in the program.

    INPUT arrays pre-exist on disk; OUTPUT arrays must be materialized;
    INTERMEDIATE arrays are created by the program and may legally never be
    written to disk if every read of them is served from memory (footnote 8
    of the paper: the optimizer elides C's write when n3 = 1).
    """

    INPUT = "input"
    OUTPUT = "output"
    INTERMEDIATE = "intermediate"


class Array:
    """A blocked array: ``dims`` counts blocks per dimension (affine in the
    program parameters), ``block_shape`` counts elements per block."""

    __slots__ = ("name", "dims", "block_shape", "dtype_bytes", "kind")

    def __init__(self, name: str, dims: Sequence[AffineExpr | int | str],
                 block_shape: Sequence[int], dtype_bytes: int = 8,
                 kind: ArrayKind = ArrayKind.INPUT):
        self.name = name
        self.dims: tuple[AffineExpr, ...] = tuple(affine(d) for d in dims)
        self.block_shape: tuple[int, ...] = tuple(int(b) for b in block_shape)
        if len(self.dims) != len(self.block_shape):
            raise ProgramError(f"array {name}: dims/block_shape rank mismatch")
        if any(b <= 0 for b in self.block_shape):
            raise ProgramError(f"array {name}: nonpositive block shape")
        self.dtype_bytes = int(dtype_bytes)
        self.kind = kind

    @property
    def rank(self) -> int:
        return len(self.dims)

    @property
    def block_elems(self) -> int:
        n = 1
        for b in self.block_shape:
            n *= b
        return n

    @property
    def block_bytes(self) -> int:
        return self.block_elems * self.dtype_bytes

    def num_blocks(self, params: Mapping[str, int]) -> tuple[int, ...]:
        return tuple(int(d.evaluate(params)) for d in self.dims)

    def total_blocks(self, params: Mapping[str, int]) -> int:
        n = 1
        for d in self.num_blocks(params):
            n *= d
        return n

    def total_bytes(self, params: Mapping[str, int]) -> int:
        return self.total_blocks(params) * self.block_bytes

    def shape_elems(self, params: Mapping[str, int]) -> tuple[int, ...]:
        return tuple(nb * bs for nb, bs in zip(self.num_blocks(params), self.block_shape))

    def __repr__(self) -> str:
        dims = "x".join(str(d) for d in self.dims)
        shape = "x".join(str(b) for b in self.block_shape)
        return f"Array({self.name}: {dims} blocks of {shape}, {self.kind.value})"


class Access:
    """One array access ``<s, t, A, Phi>`` (Section 4.1).

    ``subscripts`` is Phi as affine expressions over the owning statement's
    loop variables and parameters.  ``guard`` optionally restricts the
    instances at which the access happens (e.g. the read side of an
    accumulation exists only for k >= 1); it is a list of affine
    inequalities ``expr >= 0``.
    """

    __slots__ = ("array", "type", "subscripts", "guard", "statement", "micro")

    def __init__(self, array: Array, type: AccessType,
                 subscripts: Sequence[AffineExpr | int | str],
                 guard: Sequence[AffineExpr | str] = ()):
        self.array = array
        self.type = type
        self.subscripts: tuple[AffineExpr, ...] = tuple(affine(s) for s in subscripts)
        if len(self.subscripts) != array.rank:
            raise ProgramError(
                f"access to {array.name}: {len(self.subscripts)} subscripts for rank {array.rank}")
        self.guard: tuple[AffineExpr, ...] = tuple(affine(g) for g in guard)
        self.statement: "Statement | None" = None  # set by Statement
        self.micro = 0  # 0 for reads, 1 for the write; set by Statement

    @property
    def is_write(self) -> bool:
        return self.type is AccessType.WRITE

    def key(self) -> tuple:
        """Identity of the access: (statement, type, array, Phi) per §4.1."""
        stmt = self.statement.name if self.statement else None
        return (stmt, self.type, self.array.name, self.subscripts)

    def domain(self, context: Polyhedron | None = None) -> Polyhedron:
        """The instances at which this access actually happens
        (statement domain intersected with the guard)."""
        if self.statement is None:
            raise ProgramError("access not attached to a statement")
        dom = self.statement.domain
        if self.guard:
            dom = dom.add_constraints(
                ineqs=[g.to_row(dom.space) for g in self.guard])
        if context is not None:
            dom = dom.intersect(context.align(dom.space))
        return dom

    def block_at(self, point: Sequence[int], params: Mapping[str, int]) -> tuple[int, ...]:
        """Concrete block subscript touched at iteration ``point``."""
        if self.statement is None:
            raise ProgramError("access not attached to a statement")
        bindings = dict(zip(self.statement.loop_vars, point))
        bindings.update(params)
        out = []
        for s in self.subscripts:
            v = s.evaluate(bindings)
            if v.denominator != 1:
                raise ProgramError(f"non-integer block subscript {v} in {self}")
            out.append(int(v))
        return tuple(out)

    def guard_holds(self, point: Sequence[int], params: Mapping[str, int]) -> bool:
        if self.statement is None:
            raise ProgramError("access not attached to a statement")
        bindings = dict(zip(self.statement.loop_vars, point))
        bindings.update(params)
        return all(g.evaluate(bindings) >= 0 for g in self.guard)

    def __repr__(self) -> str:
        subs = ",".join(str(s) for s in self.subscripts)
        stmt = self.statement.name if self.statement else "?"
        g = f" if {' and '.join(f'{x}>=0' for x in self.guard)}" if self.guard else ""
        return f"{stmt}{self.type}{self.array.name}[{subs}]{g}"


class Statement:
    """A statement with its iteration domain and accesses.

    ``domain`` lives in the space ``loop_vars + params``.  Reads get
    micro-position 0 and the write micro-position 1, capturing that a
    statement instance reads its operands before writing its result — the
    granularity the no-write-in-between rule needs.
    """

    __slots__ = ("name", "loop_vars", "domain", "accesses", "kernel",
                 "kernel_args", "position", "_instances_cache")

    def __init__(self, name: str, loop_vars: Sequence[str], domain: Polyhedron,
                 accesses: Iterable[Access], kernel: str = "nop",
                 position: Sequence[int] = (),
                 kernel_args: Mapping | None = None):
        self.name = name
        self.loop_vars: tuple[str, ...] = tuple(loop_vars)
        self.domain = domain
        self.accesses: tuple[Access, ...] = tuple(accesses)
        self.kernel = kernel
        self.kernel_args: dict = dict(kernel_args or {})
        # Textual position in the original program: one beta constant per
        # nesting level plus the trailing position (see schedule module).
        self.position: tuple[int, ...] = tuple(position)
        # Per parameter binding: the instances, and under ("events", key)
        # the statement's StatementEvents.
        self._instances_cache: dict[tuple, object] = {}
        writes = [a for a in self.accesses if a.is_write]
        if len(writes) > 1:
            raise ProgramError(f"statement {name} has {len(writes)} writes (max 1)")
        for a in self.accesses:
            a.statement = self
            a.micro = 1 if a.is_write else 0
        for v in self.loop_vars:
            domain.space.index(v)  # must exist in the domain space

    @property
    def depth(self) -> int:
        return len(self.loop_vars)

    @property
    def write(self) -> Access | None:
        for a in self.accesses:
            if a.is_write:
                return a
        return None

    @property
    def reads(self) -> tuple[Access, ...]:
        return tuple(a for a in self.accesses if not a.is_write)

    def instances(self, params: Mapping[str, int]) -> list[tuple[int, ...]]:
        """All concrete iteration points for bound parameters (memoized)."""
        key = tuple(sorted((k, v) for k, v in params.items()
                           if k in self.domain.space))
        if key not in self._instances_cache:
            self._instances_cache[key] = self.domain.bind(params).integer_points()
        return self._instances_cache[key]

    def events(self, params: Mapping[str, int]) -> "StatementEvents":
        """The schedule-independent access events for bound parameters
        (memoized beside :meth:`instances`; one table per binding even when
        several threads ask at once)."""
        key = ("events", tuple(sorted(params.items())))
        table = self._instances_cache.get(key)
        if table is None:
            table = self._instances_cache.setdefault(
                key, StatementEvents(self, params))
        return table

    def __repr__(self) -> str:
        return f"Statement({self.name}, vars={self.loop_vars}, kernel={self.kernel})"


class StatementEvents:
    """One statement's access events for bound parameters, in instance
    order: the part of every plan's trace that no schedule can change.

    Instance ``k`` is ``points[k]`` (``matrix`` holds the points as an int64
    array) and owns events ``starts[k]`` up to ``starts[k + 1]``.  Event
    ``e`` is access ``statement.accesses[slot[e]]`` at instance ``inst[e]``,
    touching ``block[e]``; ``block_key[e]`` prefixes the array name.  An
    access whose guard fails at an instance has no event there.
    """

    __slots__ = ("statement", "points", "matrix", "starts", "inst", "slot",
                 "block", "block_key", "_lookup")

    def __init__(self, statement: Statement, params: Mapping[str, int]):
        self.statement = statement
        self.points = statement.instances(params)
        self.matrix = np.array(self.points, dtype=np.int64).reshape(
            len(self.points), statement.depth)
        self.starts: list[int] = [0]
        self.inst: list[int] = []
        self.slot: list[int] = []
        self.block: list[tuple[int, ...]] = []
        self.block_key: list[tuple] = []
        shared: dict[tuple, tuple] = {}  # one key object per distinct block
        for k, point in enumerate(self.points):
            for s, access in enumerate(statement.accesses):
                if access.guard_holds(point, params):
                    key = (access.array.name, access.block_at(point, params))
                    key = shared.setdefault(key, key)
                    self.inst.append(k)
                    self.slot.append(s)
                    self.block.append(key[1])
                    self.block_key.append(key)
            self.starts.append(len(self.inst))
        self._lookup: tuple[dict, list[int], dict] | None = None

    def position(self, access: Access, point: tuple[int, ...]) -> int | None:
        """The event of ``point`` whose access has ``access``'s identity
        (:meth:`Access.key`) — the last one, should two accesses share it."""
        if self._lookup is None:
            keys: dict[tuple, int] = {}
            ids = [keys.setdefault(a.key(), len(keys))
                   for a in self.statement.accesses]
            at = {p: k for k, p in enumerate(self.points)}
            self._lookup = (keys, ids, at)
        keys, ids, at = self._lookup
        kid = keys.get(access.key())
        k = at.get(point)
        if kid is None or k is None:
            return None
        found = None
        for e in range(self.starts[k], self.starts[k + 1]):
            if ids[self.slot[e]] == kid:
                found = e
        return found


class Program:
    """A static-control program: parameters, arrays, ordered statements.

    ``param_context`` carries assumptions about the parameters (e.g.
    ``n >= 1``) used when testing emptiness of symbolic polyhedra.
    """

    __slots__ = ("name", "params", "arrays", "statements", "param_context")

    def __init__(self, name: str, params: Sequence[str],
                 arrays: Mapping[str, Array], statements: Sequence[Statement],
                 param_context: Polyhedron | None = None):
        self.name = name
        self.params: tuple[str, ...] = tuple(params)
        self.arrays: dict[str, Array] = dict(arrays)
        self.statements: tuple[Statement, ...] = tuple(statements)
        names = [s.name for s in self.statements]
        if len(set(names)) != len(names):
            raise ProgramError(f"duplicate statement names in {name}: {names}")
        if param_context is None:
            param_context = Polyhedron.universe(Space(self.params))
        self.param_context = param_context

    def statement(self, name: str) -> Statement:
        for s in self.statements:
            if s.name == name:
                return s
        raise ProgramError(f"no statement named {name!r} in program {self.name}")

    @property
    def max_depth(self) -> int:
        """d~ = max_s d_s (Section 4.2)."""
        return max((s.depth for s in self.statements), default=0)

    def all_accesses(self) -> list[Access]:
        return [a for s in self.statements for a in s.accesses]

    def writes_to(self, array: Array) -> list[Access]:
        return [a for a in self.all_accesses() if a.is_write and a.array is array]

    def validate(self) -> None:
        """Sanity checks: accesses reference known arrays, domains use the
        program's parameters, guards use in-scope variables."""
        for s in self.statements:
            for v in s.domain.space.names:
                if v not in s.loop_vars and v not in self.params:
                    raise ProgramError(
                        f"{s.name}: domain variable {v!r} is neither a loop var nor a parameter")
            for a in s.accesses:
                if self.arrays.get(a.array.name) is not a.array:
                    raise ProgramError(f"{s.name}: access to unregistered array {a.array.name}")
                scope = set(s.loop_vars) | set(self.params)
                for sub in a.subscripts + a.guard:
                    loose = sub.variables() - scope
                    if loose:
                        raise ProgramError(f"{s.name}: out-of-scope variables {loose} in {a}")

    def __repr__(self) -> str:
        return (f"Program({self.name}: {len(self.statements)} statements, "
                f"{len(self.arrays)} arrays, params={self.params})")
