"""FindSchedule (Algorithm 3) and EnumRow (Algorithm 1).

Searches for a legal (d~+1)-dimensional schedule realizing a candidate set
of sharing opportunities:

depth by depth (1..d~):
  1. weakly satisfy every remaining dependence   (Farkas, >= 0)
  2. apply sharing constraints (Table 1): non-self equalities at every
     depth; self equalities before the last depth, +-1 at the last depth
     (R->R self may pick either sign — handled as search branches)
  3. dimensionality constraints via EnumRow: per statement, decide whether
     this row lies in the span of the previous rows (l=0) or orthogonal to
     them (l=1), greedily, preferring the paper's order {0,1}
  4. greedily try to strongly satisfy remaining dependences (>= 1)
  5. sample a small integer coefficient point (rows chosen orthogonal must
     be nonzero in their loop-variable part)

finally, assign the constant last dimension by topological sort over the
statement ordering constraints from unsatisfied dependences and realized
non-self W->R / W->W opportunities.

Returns a :class:`repro.ir.Schedule` or None when the candidate set is
infeasible.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Sequence

from ..analysis import Dependence, SharingOpportunity
from ..ir import AccessType, AffineExpr, Program, Schedule, Statement
from ..polyhedral import Polyhedron, RationalMatrix, Space
from .constraints import CONST_SUFFIX, ConstraintCache, coaccess_key

__all__ = ["find_schedule", "enum_row"]

_SAMPLE_BOXES = (1, 2, 3)


def enum_row(d_tilde: int, row_index: int, d_s: int, k: int) -> list[int]:
    """Algorithm 1: may row ``row_index`` (1-based) be dependent on previous
    rows?  Returns the l-choices to try in order."""
    if d_tilde - (row_index - 1) == d_s - k:
        return [1]
    return [0, 1]


def find_schedule(program: Program, cache: ConstraintCache,
                  opportunities: Sequence[SharingOpportunity],
                  dependences: Sequence[Dependence]) -> Schedule | None:
    """Search for a legal schedule realizing all ``opportunities``."""
    searcher = _Searcher(program, cache, opportunities, dependences)
    return searcher.run()


class _Searcher:
    def __init__(self, program, cache, opportunities, dependences):
        self.program = program
        self.cache = cache
        self.opportunities = list(opportunities)
        self.dependences = list(dependences)
        self.d_tilde = program.max_depth
        self.statements = program.statements

        # Stable (picklable) memo keys: dependences by co-access identity,
        # opportunities by index — valid across optimizer worker processes.
        self._dep_key = {id(d): coaccess_key(d.co) for d in self.dependences}
        self._opps_key = tuple(sorted(o.index for o in self.opportunities))

        self.q_self_w = [o for o in self.opportunities
                         if o.is_self and o.co.src.type is AccessType.WRITE]
        self.q_self_r = [o for o in self.opportunities
                         if o.is_self and o.co.src.type is AccessType.READ]
        self.q_nonself = [o for o in self.opportunities if not o.is_self]

    def run(self) -> Schedule | None:
        state = _State(self.statements, self.dependences)
        result = self._solve_depth(1, state)
        if result is None:
            return None
        return self._finalize(result)

    # -- one depth ----------------------------------------------------------

    def _solve_depth(self, depth: int, state: "_State") -> "_State | None":
        if depth > self.d_tilde:
            return state if self._rank_complete(state) else None

        # The conjunction of weak-dependence and sharing constraints depends
        # only on (remaining deps, Q, last-depth?) — memoize it across the
        # many FindSchedule calls the Apriori search makes.
        last = depth >= self.d_tilde
        memo_key = ("base",
                    frozenset(self._dep_key[id(d)] for d in state.remaining),
                    self._opps_key,
                    last)
        base = self.cache.memo(memo_key, lambda: self._build_base(state, last))
        if base is None or base.is_rational_empty():
            return None
        if last:
            # R->R self may run forward (+1) or reversed (-1): branch.
            sign_choices = list(itertools.product((1, -1), repeat=len(self.q_self_r)))
        else:
            sign_choices = [()]

        for signs in sign_choices:
            poly = base
            ok = True
            for opp, sign in zip(self.q_self_r, signs):
                poly = poly.intersect(self.cache.sharing_equality(opp.co, sign))
                if poly.is_rational_empty():
                    ok = False
                    break
            if not ok:
                continue
            result = self._dimensionality_and_sample(depth, poly, state)
            if result is not None:
                return result
        return None

    def _build_base(self, state: "_State", last: bool) -> Polyhedron | None:
        # Both systems are built incrementally by the cache: every sorted
        # prefix is memoized, so the many overlapping candidate sets (and
        # shrinking remaining-dependence sets) extend shared work.
        deps_base = self.cache.dependence_system(state.remaining)
        if deps_base is None:
            return None
        share = self.cache.sharing_system(self.opportunities, last)
        if share is None:
            return None
        base = deps_base.intersect(share)
        if base.is_rational_empty():
            return None
        return base

    def _dimensionality_and_sample(self, depth: int, poly: Polyhedron,
                                   state: "_State") -> "_State | None":
        # Dimensionality constraints (greedy per statement, Algorithm 3 l.28-38).
        must_be_nonzero: list[Statement] = []
        new_k = dict(state.k)
        for stmt in self.statements:
            choices = enum_row(self.d_tilde, depth, stmt.depth, state.k[stmt.name])
            chosen = None
            for l in choices:
                rows = self._span_constraints(stmt, state, independent=bool(l))
                trial = poly.add_constraints(eqs=rows)
                # With a single choice there is no alternative to fall back
                # to, so skip the feasibility probes (sampling will catch a
                # genuinely empty space) and save two LPs per statement.
                if len(choices) > 1:
                    if trial.is_rational_empty():
                        continue
                    if l == 1 and not self._nonzero_feasible(trial, stmt):
                        continue
                poly = trial
                chosen = l
                break
            if chosen is None:
                return None
            if chosen == 1:
                must_be_nonzero.append(stmt)
                new_k[stmt.name] = state.k[stmt.name] + 1

        # Greedy strong satisfaction of remaining dependences (l.39-43):
        # try them all at once (one LP) before falling back to one-by-one.
        satisfied = []
        if state.remaining:
            all_trial = poly
            for dep in state.remaining:
                all_trial = all_trial.intersect(self.cache.strong_dependence(dep.co))
            if not all_trial.is_rational_empty():
                poly = all_trial
                satisfied = list(state.remaining)
            else:
                for dep in state.remaining:
                    trial = poly.intersect(self.cache.strong_dependence(dep.co))
                    if not trial.is_rational_empty():
                        poly = trial
                        satisfied.append(dep)

        point = self._sample_point(poly, must_be_nonzero)
        if point is None:
            return None

        child = state.child(new_k, satisfied, point, self.cache.cspace)
        deeper = self._solve_depth(depth + 1, child)
        if deeper is not None:
            return deeper
        # Retry without the greedily-satisfied dependences (they may have
        # over-constrained deeper depths is not possible — strong satisfaction
        # only removes future constraints — but a different sample might
        # matter; we accept the greedy choice as the paper does).
        return None

    # -- helpers -------------------------------------------------------------

    def _span_constraints(self, stmt: Statement, state: "_State",
                          independent: bool) -> list[list[Fraction]]:
        """Equality rows on this statement's loop-var coefficients.

        independent: orthogonal to all previous rows (null-space condition);
        dependent: inside their span (orthogonal to the span's complement).
        """
        prev = state.rows_loop_part(stmt)
        space = self.cache.space
        names = self.cache.cspace.loop_coeff_names(stmt)
        out: list[list[Fraction]] = []
        if independent:
            vectors = [r for r in prev if any(r)]
        else:
            if not prev or not any(any(r) for r in prev):
                # span is {0}: the row's loop part must be zero
                vectors = None
                out = []
                for n in names:
                    row = [Fraction(0)] * (space.dim + 1)
                    row[space.index(n)] = Fraction(1)
                    out.append(row)
                return out
            mat = RationalMatrix([r for r in prev])
            vectors = mat.null_space()
        for vec in vectors:
            row = [Fraction(0)] * (space.dim + 1)
            for n, c in zip(names, vec):
                row[space.index(n)] = c
            if any(row):
                out.append(row)
        return out

    def _nonzero_feasible(self, poly: Polyhedron, stmt: Statement) -> bool:
        space = self.cache.space
        for n in self.cache.cspace.loop_coeff_names(stmt):
            for sign in (1, -1):
                row = [Fraction(0)] * (space.dim + 1)
                row[space.index(n)] = Fraction(sign)
                row[-1] = Fraction(-1)
                if not poly.add_constraints(ineqs=[row]).is_rational_empty():
                    return True
        return False

    def _sample_point(self, poly: Polyhedron,
                      nonzero_stmts: list[Statement]) -> dict[str, Fraction] | None:
        space = self.cache.space
        for box in _SAMPLE_BOXES:
            bounds = {n: (-box, box) for n in space.names}
            boxed = poly.intersect(Polyhedron.box(space, bounds))
            point = self._sample_binding(boxed, list(nonzero_stmts))
            if point is not None:
                return {n: Fraction(v) for n, v in zip(space.names, point)}
        return None

    def _sample_binding(self, poly: Polyhedron,
                        todo: list[Statement]) -> tuple[int, ...] | None:
        """Sample a point with nonzero loop rows for ``todo`` statements.

        Statements are processed one at a time: find a point whose row for
        the statement is nonzero (trying sign branches per loop variable),
        then *bind* that statement's coefficients as equalities — the LP
        presolve then eliminates those variables, so each level gets cheaper
        instead of more constrained.
        """
        if not todo:
            if poly.is_rational_empty():
                return None
            return self._witness(poly)
        stmt, rest = todo[0], todo[1:]
        space = self.cache.space
        names = self.cache.cspace.loop_coeff_names(stmt)
        for n in names:
            for sign in (1, -1):
                row = [Fraction(0)] * (space.dim + 1)
                row[space.index(n)] = Fraction(sign)
                row[-1] = Fraction(-1)
                branch = poly.add_constraints(ineqs=[row])
                point = self._witness(branch)
                if point is None:
                    continue
                stmt_vars = self.cache.cspace.stmt_vars(stmt)
                binds = []
                for v in stmt_vars:
                    eq = [Fraction(0)] * (space.dim + 1)
                    eq[space.index(v)] = Fraction(1)
                    eq[-1] = Fraction(-point[space.index(v)])
                    binds.append(eq)
                result = self._sample_binding(poly.add_constraints(eqs=binds), rest)
                if result is not None:
                    return result
        return None

    def _witness(self, poly: Polyhedron) -> tuple[int, ...] | None:
        """Integer witness of ``poly`` (small grid sample, then branch and
        bound unless the sample proved there is none).  Keyed by the
        polyhedron's structural identity in the shared constraint cache:
        overlapping candidate sets re-derive the same branch polyhedra, and
        integer-point search is the dominant cost.
        The key is the raw constraint tuples, not the Polyhedron itself —
        its ``__eq__`` is semantic (a pair of subset LPs), far costlier
        than the lookup it would serve."""
        def build():
            point, decided = poly.small_integer_sample()
            return point if decided else poly.find_integer_point()
        return self.cache.memo(
            ("witness", poly.space.names, poly.eqs, poly.ineqs), build)

    def _rank_complete(self, state: "_State") -> bool:
        return all(state.k[s.name] == s.depth for s in self.statements)

    # -- constants (last dimension) ------------------------------------------------

    def _finalize(self, state: "_State") -> Schedule | None:
        order = self._statement_constants(state)
        if order is None:
            return None
        rows: dict[str, list[AffineExpr]] = {}
        for stmt in self.statements:
            stmt_rows: list[AffineExpr] = []
            for loop_c, par_c, const in state.rows[stmt.name]:
                e = AffineExpr.constant(const)
                for v, c in zip(stmt.loop_vars, loop_c):
                    e = e + AffineExpr({v: c})
                for p, c in zip(self.program.params, par_c):
                    e = e + AffineExpr({p: c})
                stmt_rows.append(e)
            stmt_rows.append(AffineExpr.constant(order[stmt.name]))
            rows[stmt.name] = stmt_rows
        return Schedule(rows, meta={
            "form": "searched",
            "realized": [o.label for o in self.opportunities],
        })

    def _statement_constants(self, state: "_State") -> dict[str, int] | None:
        """Topological constants: every remaining dependence and realized
        non-self W-type opportunity forces src-statement < tgt-statement."""
        edges: set[tuple[str, str]] = set()
        for dep in state.remaining:
            s, t = dep.co.src.statement.name, dep.co.tgt.statement.name
            if s == t:
                return None  # self dependence unsatisfied after d~ depths
            edges.add((s, t))
        for opp in self.q_nonself:
            if opp.co.src.type is AccessType.WRITE:
                s, t = opp.co.src.statement.name, opp.co.tgt.statement.name
                edges.add((s, t))
        names = [s.name for s in self.statements]
        order: list[str] = []
        pending = set(names)
        while pending:
            free = [n for n in sorted(pending)
                    if not any(e[1] == n and e[0] in pending for e in edges)]
            if not free:
                return None  # cycle
            # Keep original textual order among simultaneously-free statements.
            free.sort(key=names.index)
            order.append(free[0])
            pending.discard(free[0])
        return {name: i for i, name in enumerate(order)}


class _State:
    """Per-depth search state: chosen rows, independence counts, remaining deps."""

    __slots__ = ("k", "remaining", "rows")

    def __init__(self, statements, dependences):
        self.k = {s.name: 0 for s in statements}
        self.remaining = list(dependences)
        self.rows: dict[str, list[tuple[list[Fraction], list[Fraction], Fraction]]] = {
            s.name: [] for s in statements}

    def child(self, new_k, satisfied, point, cspace) -> "_State":
        child = _State.__new__(_State)
        child.k = dict(new_k)
        child.remaining = [d for d in self.remaining if d not in satisfied]
        child.rows = {name: list(rows) for name, rows in self.rows.items()}
        for stmt in cspace.program.statements:
            loop_c, par_c, const = cspace.row_from_point(stmt, point)
            child.rows[stmt.name].append((loop_c, par_c, const))
        return child

    def rows_loop_part(self, stmt) -> list[list[Fraction]]:
        return [loop for (loop, _, __) in self.rows[stmt.name]]
