"""Co-accesses and their extent polyhedra (Definition 1).

A co-access ``a -> a'`` pairs two accesses to the same array; its extent
polyhedron lives in the product space of the two statements' iteration
domains and contains exactly the instance pairs ``(x, x')`` such that

* both instances execute (domains, including access guards),
* they touch the same block (``Phi x = Phi' x'``), and
* the source executes strictly before the target in the original schedule
  (``Theta_s x < Theta_s' x'``, expanded into per-depth disjuncts).

Product-space variables are prefixed ``s_``/``t_`` for the source/target
side; parameters keep their names and are shared.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from ..exceptions import ProgramError
from ..ir import (Access, AccessType, Program, Schedule, StatementEvents,
                  precedence_disjuncts)
from ..polyhedral import Polyhedron, PolyhedralSet, Space

__all__ = ["CoAccess", "SRC_PREFIX", "TGT_PREFIX", "build_extent",
           "enumerate_coaccesses", "product_space", "side_rename"]

SRC_PREFIX = "s_"
TGT_PREFIX = "t_"


def side_rename(stmt_vars: Iterable[str], prefix: str) -> dict[str, str]:
    return {v: prefix + v for v in stmt_vars}


def product_space(src: Access, tgt: Access, params: Iterable[str]) -> Space:
    s_vars = [SRC_PREFIX + v for v in src.statement.loop_vars]
    t_vars = [TGT_PREFIX + v for v in tgt.statement.loop_vars]
    return Space(tuple(s_vars) + tuple(t_vars) + tuple(params))


class CoAccess:
    """A co-access pair with its (possibly pruned) extent set."""

    __slots__ = ("src", "tgt", "extent", "_pairs_cache", "_events_cache")

    def __init__(self, src: Access, tgt: Access, extent: PolyhedralSet):
        self.src = src
        self.tgt = tgt
        self.extent = extent
        self._pairs_cache: dict[tuple, list] = {}
        self._events_cache: dict[tuple, tuple] = {}

    @property
    def type(self) -> tuple[AccessType, AccessType]:
        return (self.src.type, self.tgt.type)

    @property
    def type_str(self) -> str:
        return f"{self.src.type}->{self.tgt.type}"

    @property
    def array(self):
        return self.src.array

    @property
    def is_self(self) -> bool:
        """Self co-access: both ends in the same statement (Table 1 sense)."""
        return self.src.statement is self.tgt.statement

    def label(self) -> str:
        """Compact ``s1WC->s2RC`` label used throughout the paper."""
        return (f"{self.src.statement.name}{self.src.type}{self.src.array.name}"
                f"->{self.tgt.statement.name}{self.tgt.type}{self.tgt.array.name}")

    def pair_count(self, params: Mapping[str, int]) -> int:
        """Number of instance pairs for bound parameters."""
        return self.extent.bind(params).count_integer_points()

    def pairs(self, params: Mapping[str, int]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Concrete (source point, target point) pairs for bound parameters.

        Memoized per parameter binding (the Apriori search costs many plans
        against the same sizes)."""
        key = tuple(sorted(params.items()))
        if key not in self._pairs_cache:
            sd = self.src.statement.depth
            out = set()
            for pt in self.extent.bind(params).integer_points():
                out.add((pt[:sd], pt[sd:sd + self.tgt.statement.depth]))
            self._pairs_cache[key] = sorted(out)
        return self._pairs_cache[key]

    def event_pairs(self, params: Mapping[str, int],
                    src_events: StatementEvents,
                    tgt_events: StatementEvents) -> list[tuple[int, int]]:
        """:meth:`pairs` as (source, target) positions in the two
        statements' event tables, dropping pairs either table lacks.

        Memoized per parameter binding beside the pairs, and valid for the
        tables it was computed against."""
        key = tuple(sorted(params.items()))
        cached = self._events_cache.get(key)
        if cached is not None and cached[0] is src_events \
                and cached[1] is tgt_events:
            return cached[2]
        out = []
        for ps, pt in self.pairs(params):
            i = src_events.position(self.src, ps)
            j = tgt_events.position(self.tgt, pt)
            if i is not None and j is not None:
                out.append((i, j))
        self._events_cache[key] = (src_events, tgt_events, out)
        return out

    def with_extent(self, extent: PolyhedralSet) -> "CoAccess":
        return CoAccess(self.src, self.tgt, extent)

    def __repr__(self) -> str:
        return f"CoAccess({self.label()}, {len(self.extent)} disjuncts)"


def access_poly(access: Access, space: Space, prefix: str,
                context: Polyhedron | None = None) -> Polyhedron:
    """The access's domain (incl. guard) renamed into a product space."""
    rename = side_rename(access.statement.loop_vars, prefix)
    return access.domain(context).rename(rename).align(space)


def block_equalities(src: Access, tgt: Access, space: Space) -> list[list[Fraction]]:
    """Rows for Phi_src(s_x) - Phi_tgt(t_x') = 0, one per array dimension."""
    if src.array is not tgt.array:
        raise ProgramError("co-access across different arrays")
    rows = []
    s_ren = side_rename(src.statement.loop_vars, SRC_PREFIX)
    t_ren = side_rename(tgt.statement.loop_vars, TGT_PREFIX)
    for s_sub, t_sub in zip(src.subscripts, tgt.subscripts):
        row = [Fraction(0)] * (space.dim + 1)
        for name, coeff in s_sub.coeffs.items():
            row[space.index(s_ren.get(name, name))] += coeff
        row[-1] += s_sub.const
        for name, coeff in t_sub.coeffs.items():
            row[space.index(t_ren.get(name, name))] -= coeff
        row[-1] -= t_sub.const
        rows.append(row)
    return rows


def build_extent(program: Program, schedule: Schedule, src: Access, tgt: Access,
                 context: Polyhedron | None = None) -> PolyhedralSet:
    """The extent set P(a -> a') of Definition 1 (before any pruning)."""
    if context is None:
        context = program.param_context
    space = product_space(src, tgt, program.params)
    base = (access_poly(src, space, SRC_PREFIX, context)
            .intersect(access_poly(tgt, space, TGT_PREFIX, context))
            .add_constraints(eqs=block_equalities(src, tgt, space)))
    if base.is_rational_empty():
        return PolyhedralSet.empty(space)

    s_rows = schedule.rows_in_space(
        src.statement, space, side_rename(src.statement.loop_vars, SRC_PREFIX))
    t_rows = schedule.rows_in_space(
        tgt.statement, space, side_rename(tgt.statement.loop_vars, TGT_PREFIX))
    disjuncts = precedence_disjuncts(s_rows, t_rows)
    if disjuncts is None:  # unconditionally ordered: the base set is the extent
        return PolyhedralSet(space, [base])
    polys = [base.add_constraints(eqs=d.eqs, ineqs=d.ineqs) for d in disjuncts]
    return PolyhedralSet(space, polys)


def enumerate_coaccesses(program: Program, schedule: Schedule,
                         context: Polyhedron | None = None,
                         types: Iterable[tuple[AccessType, AccessType]] | None = None
                         ) -> list[CoAccess]:
    """All nonempty co-accesses of the program (optionally type-filtered)."""
    wanted = set(types) if types is not None else None
    out: list[CoAccess] = []
    accesses = program.all_accesses()
    for src in accesses:
        for tgt in accesses:
            if src.array is not tgt.array:
                continue
            if wanted is not None and (src.type, tgt.type) not in wanted:
                continue
            extent = build_extent(program, schedule, src, tgt, context)
            if not extent.is_empty():
                out.append(CoAccess(src, tgt, extent))
    return out
