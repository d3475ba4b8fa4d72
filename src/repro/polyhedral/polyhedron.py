"""Integer polyhedra: the core object of the RIOTShare framework.

A :class:`Polyhedron` is a conjunction of affine constraints over a named
:class:`Space` of integer variables.  Rows follow one convention everywhere:

    ``(a_1, ..., a_n, c)``  encodes  ``a . x + c >= 0``  (inequality)
                            or       ``a . x + c  = 0``  (equality)

This mirrors the matrix form in Section 4.1 of the paper.  The module
provides the operations the analysis and the optimizer need:

* intersection, renaming, space alignment, cartesian product;
* emptiness (rational via exact simplex, integer via gcd tests and
  branch-and-bound);
* Fourier-Motzkin projection (with an integer-exactness flag);
* variable bounds, integer point sampling / enumeration, lexicographic
  minima;
* parameter binding (substituting concrete sizes) and redundancy removal.

Everything is exact rational arithmetic; constraint rows are kept as
primitive integer tuples.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from ..exceptions import (EmptyPolyhedronError, PolyhedralError,
                          SpaceMismatchError, UnboundedError)
from .matrix import Rational, as_fraction, normalize_integer_row, row_gcd
from .simplex import LPResult, LPStatus, solve_lp

__all__ = ["Space", "Polyhedron", "lp_memo"]

_BRANCH_DEPTH_LIMIT = 200

# Distinct LPs one lp_memo() scope remembers, least recently used dropped
# first: a cold optimize() of the paper's programs repeats most LPs within
# a hundred others, and the bound keeps the memo under a megabyte.
_LP_MEMO_SIZE = 128
_lp_memo: ContextVar[OrderedDict | None] = ContextVar("lp_memo", default=None)


@contextmanager
def lp_memo() -> Iterator[None]:
    """Within this block (in this thread), emptiness tests and objective LPs
    over identical exact inputs are solved once.

    Analysis and legality testing re-derive the same polyhedra many times
    over (set subtraction, Farkas redundancy removal, emptiness probes);
    the simplex is exact and deterministic, so a repeat's answer is the
    first one's.  The memo lives only as long as the outermost block.
    """
    if _lp_memo.get() is not None:
        yield
        return
    token = _lp_memo.set(OrderedDict())
    try:
        yield
    finally:
        _lp_memo.reset(token)


def _memo_solve(eqs: tuple, ineqs: tuple, nvars: int,
                objective: tuple | None = None,
                maximize: bool = False) -> LPResult:
    """:func:`solve_lp` through the active :func:`lp_memo`, if any."""
    memo = _lp_memo.get()
    if memo is None:
        return solve_lp(eqs, ineqs, nvars, objective, maximize)
    key = (nvars, eqs, ineqs, objective, maximize)
    result = memo.get(key)
    if result is None:
        result = memo[key] = solve_lp(eqs, ineqs, nvars, objective, maximize)
        if len(memo) > _LP_MEMO_SIZE:
            memo.popitem(last=False)
    else:
        memo.move_to_end(key)
    return result


class Space:
    """An ordered tuple of distinct variable names."""

    __slots__ = ("names", "_index")

    def __init__(self, names: Iterable[str]):
        self.names: tuple[str, ...] = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise PolyhedralError(f"duplicate variable names in space: {self.names}")
        self._index = {name: i for i, name in enumerate(self.names)}

    @property
    def dim(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise PolyhedralError(f"variable {name!r} not in space {self.names}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Space) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"Space{self.names}"

    def extended(self, extra: Iterable[str]) -> "Space":
        return Space(self.names + tuple(extra))


class Polyhedron:
    """An integer polyhedron over a :class:`Space`.

    Instances are immutable; all operations return new polyhedra.
    """

    __slots__ = ("space", "eqs", "ineqs", "_trivially_empty", "_rat_empty")

    def __init__(self, space: Space,
                 eqs: Iterable[Sequence[Rational]] = (),
                 ineqs: Iterable[Sequence[Rational]] = ()):
        self.space = space
        width = space.dim + 1
        norm_eqs: set[tuple[int, ...]] = set()
        norm_ineqs: set[tuple[int, ...]] = set()
        trivially_empty = False
        for row in eqs:
            r = self._check_row(row, width)
            if not any(r[:-1]):
                if r[-1] != 0:
                    trivially_empty = True
                continue
            # Canonical sign for equalities: first nonzero coefficient positive.
            lead = next(v for v in r[:-1] if v)
            if lead < 0:
                r = tuple(-v for v in r)
            # GCD integrality test: g | coeffs must divide the constant.
            g = row_gcd(r[:-1])
            if g > 1 and r[-1] % g != 0:
                trivially_empty = True
            norm_eqs.add(r)
        for row in ineqs:
            r = self._check_row(row, width)
            if not any(r[:-1]):
                if r[-1] < 0:
                    trivially_empty = True
                continue
            # Tighten: a.x + c >= 0 with g = gcd(a) implies a.x + g*floor(c/g) >= 0.
            g = row_gcd(r[:-1])
            if g > 1:
                coeffs = tuple(v // g for v in r[:-1])
                const = _floor_div(r[-1], g)
                r = coeffs + (const,)
            norm_ineqs.add(r)
        # Among inequalities sharing a coefficient vector, only the tightest
        # (smallest constant) matters: a.x + c1 >= 0 implies a.x + c2 >= 0
        # for c2 >= c1.
        tightest: dict[tuple[int, ...], int] = {}
        for r in norm_ineqs:
            coeffs = r[:-1]
            if coeffs not in tightest or r[-1] < tightest[coeffs]:
                tightest[coeffs] = r[-1]
        self.eqs: tuple[tuple[int, ...], ...] = tuple(sorted(norm_eqs))
        self.ineqs: tuple[tuple[int, ...], ...] = tuple(
            sorted(coeffs + (c,) for coeffs, c in tightest.items()))
        self._trivially_empty = trivially_empty
        self._rat_empty: bool | None = None  # cached is_rational_empty()

    @staticmethod
    def _check_row(row: Sequence[Rational], width: int) -> tuple[int, ...]:
        if len(row) != width:
            raise PolyhedralError(f"constraint width {len(row)} != space dim + 1 = {width}")
        return normalize_integer_row(row)

    # -- constructors --------------------------------------------------------

    @classmethod
    def universe(cls, space: Space) -> "Polyhedron":
        return cls(space)

    @classmethod
    def empty(cls, space: Space) -> "Polyhedron":
        zero = (0,) * space.dim
        return cls(space, ineqs=[zero + (-1,)])

    @classmethod
    def from_terms(cls, space: Space,
                   eq_terms: Iterable[tuple[Mapping[str, Rational], Rational]] = (),
                   ineq_terms: Iterable[tuple[Mapping[str, Rational], Rational]] = ()) -> "Polyhedron":
        """Build from (coeff-dict, const) pairs; missing vars get coefficient 0."""
        def expand(term):
            coeffs, const = term
            row = [Fraction(0)] * space.dim
            for name, val in coeffs.items():
                row[space.index(name)] = as_fraction(val)
            row.append(as_fraction(const))
            return row
        return cls(space, eqs=[expand(t) for t in eq_terms],
                   ineqs=[expand(t) for t in ineq_terms])

    @classmethod
    def box(cls, space: Space, bounds: Mapping[str, tuple[int, int]]) -> "Polyhedron":
        """{x : lo_i <= x_i <= hi_i for each (lo_i, hi_i) in bounds}."""
        ineqs = []
        for name, (lo, hi) in bounds.items():
            i = space.index(name)
            row_lo = [0] * (space.dim + 1)
            row_lo[i] = 1
            row_lo[-1] = -lo
            row_hi = [0] * (space.dim + 1)
            row_hi[i] = -1
            row_hi[-1] = hi
            ineqs.extend([row_lo, row_hi])
        return cls(space, ineqs=ineqs)

    # -- protocol -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polyhedron) or self.space != other.space:
            return False
        return self.is_subset(other) and other.is_subset(self)

    def __hash__(self) -> int:  # structural hash (not canonical); fine for caching
        return hash((self.space, self.eqs, self.ineqs))

    def __repr__(self) -> str:
        parts = [self._row_str(r, "=") for r in self.eqs]
        parts += [self._row_str(r, ">=") for r in self.ineqs]
        body = " and ".join(parts) if parts else "true"
        return f"{{ {', '.join(self.space.names)} : {body} }}"

    def _row_str(self, row: tuple[int, ...], op: str) -> str:
        terms = []
        for name, coeff in zip(self.space.names, row[:-1]):
            if coeff == 0:
                continue
            if coeff == 1:
                terms.append(f"+{name}")
            elif coeff == -1:
                terms.append(f"-{name}")
            else:
                terms.append(f"{'+' if coeff > 0 else ''}{coeff}{name}")
        if row[-1] != 0 or not terms:
            terms.append(f"{'+' if row[-1] >= 0 else ''}{row[-1]}")
        return "".join(terms).lstrip("+") + f" {op} 0"

    @property
    def n_constraints(self) -> int:
        return len(self.eqs) + len(self.ineqs)

    # -- set operations --------------------------------------------------------

    @classmethod
    def _from_canonical(cls, space: Space,
                        eqs: tuple[tuple[int, ...], ...],
                        ineqs: tuple[tuple[int, ...], ...],
                        trivially_empty: bool,
                        rat_empty: bool | None = None) -> "Polyhedron":
        """Assemble from rows already in constructor-canonical form.

        Callers must guarantee the invariants the constructor establishes:
        primitive integer rows with a nonzero coefficient part, sign-canonical
        equalities, gcd-tightened inequalities with a unique (tightest)
        constant per coefficient vector, both families sorted.
        """
        poly = cls.__new__(cls)
        poly.space = space
        poly.eqs = eqs
        poly.ineqs = ineqs
        poly._trivially_empty = trivially_empty
        poly._rat_empty = rat_empty
        return poly

    def intersect(self, other: "Polyhedron") -> "Polyhedron":
        if self.space != other.space:
            raise SpaceMismatchError(f"{self.space} vs {other.space}")
        # Both operands are canonical, so their conjunction is a set union of
        # equalities plus a tightest-constant merge of inequalities — no row
        # needs renormalizing.  This is the optimizer's hottest polyhedron
        # operation (every Farkas system is an intersection chain).
        if self.eqs == other.eqs:
            eqs = self.eqs
        else:
            eqs = tuple(sorted(set(self.eqs) | set(other.eqs)))
        tightest: dict[tuple[int, ...], int] = {r[:-1]: r[-1] for r in self.ineqs}
        for r in other.ineqs:
            coeffs = r[:-1]
            c = tightest.get(coeffs)
            if c is None or r[-1] < c:
                tightest[coeffs] = r[-1]
        ineqs = tuple(sorted(coeffs + (c,) for coeffs, c in tightest.items()))
        # A known-empty operand makes the intersection empty; otherwise the
        # cached emptiness of either side says nothing about the conjunction.
        rat_empty = True if (self._rat_empty or other._rat_empty) else None
        return Polyhedron._from_canonical(
            self.space, eqs, ineqs,
            self._trivially_empty or other._trivially_empty, rat_empty)

    def add_constraints(self, eqs: Iterable[Sequence[Rational]] = (),
                        ineqs: Iterable[Sequence[Rational]] = ()) -> "Polyhedron":
        # Normalize only the new rows, then canonical-merge.
        return self.intersect(Polyhedron(self.space, eqs, ineqs))

    def rename(self, mapping: Mapping[str, str]) -> "Polyhedron":
        new_names = [mapping.get(n, n) for n in self.space.names]
        poly = Polyhedron.__new__(Polyhedron)
        poly.space = Space(new_names)
        poly.eqs = self.eqs
        poly.ineqs = self.ineqs
        poly._trivially_empty = self._trivially_empty
        poly._rat_empty = self._rat_empty
        return poly

    def align(self, space: Space) -> "Polyhedron":
        """Embed into a superspace (extra variables unconstrained)."""
        for name in self.space.names:
            if name not in space:
                raise SpaceMismatchError(f"variable {name} missing from target space")
        perm = [space.index(n) for n in self.space.names]

        def widen(row: tuple[int, ...]) -> list[int]:
            out = [0] * (space.dim + 1)
            for src, dst in enumerate(perm):
                out[dst] = row[src]
            out[-1] = row[-1]
            return out

        return Polyhedron(space, eqs=[widen(r) for r in self.eqs],
                          ineqs=[widen(r) for r in self.ineqs])

    def product(self, other: "Polyhedron") -> "Polyhedron":
        """Cartesian product; variable names must be disjoint."""
        overlap = set(self.space.names) & set(other.space.names)
        if overlap:
            raise SpaceMismatchError(f"product spaces overlap on {sorted(overlap)}")
        space = Space(self.space.names + other.space.names)
        return self.align(space).intersect(other.align(space))

    # -- feasibility ------------------------------------------------------------

    def is_rational_empty(self) -> bool:
        if self._trivially_empty:
            return True
        if self._rat_empty is None:
            result = _memo_solve(self.eqs, self.ineqs, self.space.dim)
            self._rat_empty = result.status is LPStatus.INFEASIBLE
        return self._rat_empty

    def is_empty(self) -> bool:
        """Integer emptiness.

        Exact when an integer point is found or the rational relaxation is
        empty; if branch-and-bound exhausts its budget the polyhedron is
        conservatively reported nonempty (the safe direction for both
        dependences and sharing opportunities — see DESIGN.md).
        """
        if self.is_rational_empty():
            return True
        found, proved = _branch_and_bound(list(self.eqs), list(self.ineqs), self.space.dim)
        if found is not None:
            return False
        return proved

    def sample_rational_point(self) -> tuple[Fraction, ...]:
        result = solve_lp(self.eqs, self.ineqs, self.space.dim)
        if result.status is not LPStatus.OPTIMAL:
            raise EmptyPolyhedronError("cannot sample from an empty polyhedron")
        return result.point

    def find_integer_point(self) -> tuple[int, ...] | None:
        """An integer point, or None (branch-and-bound on the exact LP relaxation)."""
        found, _ = _branch_and_bound(list(self.eqs), list(self.ineqs), self.space.dim)
        if found is not None:
            return tuple(found)
        return None

    def sample_small_integer_point(self, grid_cap: int = 300_000
                                   ) -> tuple[int, ...] | None:
        """An integer point with small coordinates, found without B&B, or
        ``None`` — see :meth:`small_integer_sample`."""
        return self.small_integer_sample(grid_cap)[0]

    def small_integer_sample(self, grid_cap: int = 300_000
                             ) -> tuple[tuple[int, ...] | None, bool]:
        """``(point, decided)``: an integer point with small coordinates,
        found without B&B, and whether the answer is final.

        Strategy: substitute away +-1-pivot equality variables (exactly
        integer-preserving), grid-enumerate the remaining free variables
        within their bounds preferring points close to the origin, and
        back-substitute.  ``(None, True)`` is a proof that there is no
        integer point: a contradictory row after substitution, a variable
        fixed to a non-integer, an empty bound interval, or an empty grid
        (the bounds hold for every integer point, and the grid filter
        applies every constraint exactly).  ``(None, False)`` means the
        sampler did not decide — the reduced grid is unbounded or too large
        — and callers fall back to :meth:`find_integer_point`.

        Intended for schedule-coefficient polyhedra, which are mostly
        equalities plus a small coefficient box.
        """
        import numpy as np
        n = self.space.dim
        eqs = [list(r) for r in self.eqs]
        ineqs = [list(r) for r in self.ineqs]
        elim: list[tuple[int, list[int]]] = []
        eliminated: set[int] = set()
        while True:
            pivot = next(((j, r) for r in eqs for j in range(n)
                          if j not in eliminated and abs(r[j]) == 1), None)
            if pivot is None:
                break
            j, prow = pivot
            eqs = [_int_substitute(r, j, prow) for r in eqs if r is not prow]
            ineqs = [_int_substitute(r, j, prow) for r in ineqs]
            eliminated.add(j)
            elim.append((j, prow))
        for r in eqs:
            if not any(r[k] for k in range(n)) and r[-1] != 0:
                return None, True  # inconsistent
        for r in ineqs:
            if not any(r[k] for k in range(n)) and r[-1] < 0:
                return None, True

        free = [j for j in range(n) if j not in eliminated]
        if len(free) > 12:
            return None, False  # grid would be hopeless; the caller uses B&B
        red_eqs = [[r[j] for j in free] + [r[-1]] for r in eqs]
        red_ineqs = [[r[j] for j in free] + [r[-1]] for r in ineqs]
        # Cheap syntactic bounds: unit rows only (the coefficient box the
        # optimizer samples under provides them).  Loose bounds are fine —
        # the grid filter below applies every constraint exactly.
        bounds = []
        volume = 1
        for col in range(len(free)):
            lo = hi = None
            for r in red_ineqs:
                if r[col] == 0 or any(r[k] for k in range(len(free)) if k != col):
                    continue
                if r[col] > 0:
                    cand = _ceil_frac(Fraction(-r[-1], r[col]))
                    lo = cand if lo is None else max(lo, cand)
                else:
                    cand = _floor_frac(Fraction(r[-1], -r[col]))
                    hi = cand if hi is None else min(hi, cand)
            for r in red_eqs:
                if r[col] != 0 and not any(r[k] for k in range(len(free)) if k != col):
                    v = Fraction(-r[-1], r[col])
                    if v.denominator != 1:
                        return None, True
                    lo = hi = int(v)
            if lo is None or hi is None:
                return None, False
            if hi < lo:
                return None, True
            bounds.append((lo, hi))
            volume *= hi - lo + 1
            if volume > grid_cap:
                return None, False
        reduced = Polyhedron(Space([self.space.names[j] for j in free]),
                             red_eqs, red_ineqs)
        axes = [np.arange(lo, hi + 1, dtype=np.int64) for lo, hi in bounds]
        if axes:
            mesh = np.meshgrid(*axes, indexing="ij")
            pts = np.stack([m.ravel() for m in mesh], axis=1)
        else:
            pts = np.zeros((1, 0), dtype=np.int64)
        mask = np.ones(len(pts), dtype=bool)
        for row in reduced.eqs:
            mask &= pts @ np.asarray(row[:-1], dtype=np.int64) + row[-1] == 0
        for row in reduced.ineqs:
            mask &= pts @ np.asarray(row[:-1], dtype=np.int64) + row[-1] >= 0
        kept = pts[mask]
        if len(kept) == 0:
            # A proof only if no row can have overflowed int64 on the grid.
            reach = max((max(-lo, hi) for lo, hi in bounds), default=0)
            return None, all(sum(map(abs, r[:-1])) * reach + abs(r[-1])
                             < 2 ** 63 for r in reduced.eqs + reduced.ineqs)
        l1 = np.abs(kept).sum(axis=1)
        minimal = kept[l1 == l1.min()]
        # Tie-break toward nonnegative coefficients (nicer generated code).
        best = minimal[np.argmax(minimal.sum(axis=1))]
        full = [0] * n
        for j, v in zip(free, best):
            full[j] = int(v)
        for j, prow in reversed(elim):
            total = prow[-1]
            for k in range(n):
                if k != j and prow[k]:
                    total += prow[k] * full[k]
            full[j] = -total * prow[j]  # prow[j] in {1, -1}: 1/p == p
        if not self.contains_point(full):
            return None, False
        return tuple(full), True

    # -- bounds and enumeration ---------------------------------------------------

    def var_bounds(self, name: str) -> tuple[int | None, int | None]:
        """Integer (floor/ceil of rational) min and max of a variable; None = unbounded."""
        i = self.space.index(name)
        obj = tuple(int(j == i) for j in range(self.space.dim))
        lo_res = _memo_solve(self.eqs, self.ineqs, self.space.dim, obj)
        if lo_res.status is LPStatus.INFEASIBLE:
            raise EmptyPolyhedronError("bounds of an empty polyhedron")
        hi_res = _memo_solve(self.eqs, self.ineqs, self.space.dim, obj, True)
        lo = None if lo_res.status is LPStatus.UNBOUNDED else _ceil_frac(lo_res.value)
        hi = None if hi_res.status is LPStatus.UNBOUNDED else _floor_frac(hi_res.value)
        return lo, hi

    def is_bounded(self) -> bool:
        if self.is_rational_empty():
            return True
        for name in self.space.names:
            lo, hi = self.var_bounds(name)
            if lo is None or hi is None:
                return False
        return True

    def integer_points(self, limit: int = 2_000_000) -> list[tuple[int, ...]]:
        """Enumerate all integer points (requires a bounded polyhedron).

        Fast path: when the bounding box is modest, generate the whole grid
        with numpy and filter by the constraint matrix (exact in int64 for
        the small coefficients our programs produce); otherwise fall back to
        recursive LP-guided enumeration.
        """
        if self.is_rational_empty():
            return []
        grid = self._numpy_grid_points(limit)
        if grid is not None:
            return grid
        points: list[tuple[int, ...]] = []
        self._enumerate(list(self.eqs), list(self.ineqs), [], limit, points)
        return points

    def _numpy_grid_points(self, limit: int,
                           volume_cap: int = 4_000_000) -> list[tuple[int, ...]] | None:
        import numpy as np
        for row in self.eqs + self.ineqs:
            if any(abs(v) > 1 << 20 for v in row):
                return None  # int64 overflow risk: use exact enumeration
        bounds = []
        volume = 1
        for name in self.space.names:
            lo, hi = self.var_bounds(name)
            if lo is None or hi is None:
                raise UnboundedError(f"variable {name} unbounded during enumeration")
            if hi < lo:
                return []
            bounds.append((lo, hi))
            volume *= hi - lo + 1
            if volume > volume_cap:
                return None  # grid too large; recursive enumeration prunes better
        if volume == 0:
            return []
        axes = [np.arange(lo, hi + 1, dtype=np.int64) for lo, hi in bounds]
        mesh = np.meshgrid(*axes, indexing="ij") if axes else []
        pts = (np.stack([m.ravel() for m in mesh], axis=1)
               if mesh else np.zeros((1, 0), dtype=np.int64))
        mask = np.ones(len(pts), dtype=bool)
        for row in self.eqs:
            vals = pts @ np.asarray(row[:-1], dtype=np.int64) + row[-1]
            mask &= vals == 0
        for row in self.ineqs:
            vals = pts @ np.asarray(row[:-1], dtype=np.int64) + row[-1]
            mask &= vals >= 0
        kept = pts[mask]
        if len(kept) > limit:
            raise UnboundedError(f"integer point enumeration exceeded limit {limit}")
        return [tuple(int(v) for v in p) for p in kept]

    def _enumerate(self, eqs, ineqs, prefix: list[int], limit: int,
                   out: list[tuple[int, ...]]) -> None:
        n = self.space.dim
        k = len(prefix)
        if k == n:
            out.append(tuple(prefix))
            if len(out) > limit:
                raise UnboundedError(f"integer point enumeration exceeded limit {limit}")
            return
        # Bounds of variable k given the prefix already fixed.
        obj = [0] * n
        obj[k] = 1
        fixed_eqs = list(eqs)
        for j, val in enumerate(prefix):
            row = [0] * (n + 1)
            row[j] = 1
            row[-1] = -val
            fixed_eqs.append(tuple(row))
        lo_res = solve_lp(fixed_eqs, ineqs, n, objective=obj)
        if lo_res.status is LPStatus.INFEASIBLE:
            return
        hi_res = solve_lp(fixed_eqs, ineqs, n, objective=obj, maximize=True)
        if lo_res.status is LPStatus.UNBOUNDED or hi_res.status is LPStatus.UNBOUNDED:
            raise UnboundedError(f"variable {self.space.names[k]} unbounded during enumeration")
        lo = _ceil_frac(lo_res.value)
        hi = _floor_frac(hi_res.value)
        for v in range(lo, hi + 1):
            self._enumerate(eqs, ineqs, prefix + [v], limit, out)

    def count_integer_points(self, limit: int = 2_000_000) -> int:
        return len(self.integer_points(limit))

    def lexmin(self) -> tuple[int, ...] | None:
        """Lexicographic minimum integer point w.r.t. the space's variable order."""
        return self._lex_extreme(maximize=False)

    def lexmax(self) -> tuple[int, ...] | None:
        return self._lex_extreme(maximize=True)

    def _lex_extreme(self, maximize: bool) -> tuple[int, ...] | None:
        if self.is_empty():
            return None
        n = self.space.dim
        eqs = list(self.eqs)
        prefix: list[int] = []
        for k in range(n):
            obj = [0] * n
            obj[k] = 1
            best: int | None = None
            # Integer optimum of x_k subject to prefix fixed: B&B on bound.
            res = solve_lp(eqs, self.ineqs, n, objective=obj, maximize=maximize)
            if res.status is LPStatus.UNBOUNDED:
                raise UnboundedError(f"lexmin/lexmax unbounded in {self.space.names[k]}")
            bound = _floor_frac(res.value) if maximize else _ceil_frac(res.value)
            # March the candidate bound toward feasibility (integer).
            step = -1 if maximize else 1
            candidate = bound
            for _ in range(_BRANCH_DEPTH_LIMIT):
                row = [0] * (n + 1)
                row[k] = 1
                row[-1] = -candidate
                trial_eqs = eqs + [tuple(row)]
                found, proved = _branch_and_bound(trial_eqs, list(self.ineqs), n)
                if found is not None:
                    best = candidate
                    break
                if not proved:
                    raise PolyhedralError("lexmin: branch-and-bound budget exhausted")
                candidate += step
                # Check candidate still rationally feasible.
                row2 = [0] * (n + 1)
                row2[k] = 1
                row2[-1] = -candidate
                if solve_lp(eqs + [tuple(row2)], self.ineqs, n).status is LPStatus.INFEASIBLE:
                    return None
            if best is None:
                return None
            row = [0] * (n + 1)
            row[k] = 1
            row[-1] = -best
            eqs.append(tuple(row))
            prefix.append(best)
        return tuple(prefix)

    # -- projection ---------------------------------------------------------------

    def project_out(self, names: Iterable[str]) -> tuple["Polyhedron", bool]:
        """Fourier-Motzkin projection eliminating ``names``.

        Returns ``(shadow, exact)`` where ``exact`` is True when the result
        is integer-exact (every elimination step used a +-1 coefficient or an
        equality substitution with a unit pivot).

        Victims are eliminated greedily — equality pivots first, then the
        variable with the smallest lower*upper product — and the system is
        renormalized (and LP-pruned when it grows) after every step, which
        keeps the classic FM blowup in check for the Farkas systems the
        optimizer generates.
        """
        victims = set(names)
        for v in victims:
            self.space.index(v)
        current = self
        exact = True
        while victims:
            victim = _pick_fm_victim(current, victims)
            idx = current.space.index(victim)
            eqs, ineqs, step_exact = _fm_eliminate(
                [list(r) for r in current.eqs], [list(r) for r in current.ineqs], idx)
            exact = exact and step_exact
            order = [n for n in current.space.names if n != victim]
            current = Polyhedron(Space(order), eqs, ineqs)
            victims.discard(victim)
            if len(current.ineqs) > 28:
                current = current.remove_redundancy()
            if current._trivially_empty or current.is_rational_empty():
                return Polyhedron.empty(current.bind({v: 0 for v in victims}).space
                                        if victims else current.space), exact
        return current, exact

    def exists(self, names: Iterable[str]) -> "Polyhedron":
        """Projection ignoring the exactness flag (rational shadow)."""
        shadow, _ = self.project_out(names)
        return shadow

    # -- parameter binding -----------------------------------------------------------

    def bind(self, values: Mapping[str, Rational]) -> "Polyhedron":
        """Substitute concrete values for some variables, dropping them."""
        keep = [n for n in self.space.names if n not in values]
        keep_idx = [self.space.index(n) for n in keep]
        bound_idx = [(self.space.index(n), as_fraction(v)) for n, v in values.items()
                     if n in self.space]

        def narrow(row: tuple[int, ...]) -> list[Fraction]:
            const = as_fraction(row[-1])
            for i, v in bound_idx:
                const += row[i] * v
            return [as_fraction(row[i]) for i in keep_idx] + [const]

        return Polyhedron(Space(keep), eqs=[narrow(r) for r in self.eqs],
                          ineqs=[narrow(r) for r in self.ineqs])

    # -- simplification -----------------------------------------------------------------

    def remove_redundancy(self) -> "Polyhedron":
        """Drop inequalities implied by the rest (exact LP test)."""
        if self.is_rational_empty():
            return Polyhedron.empty(self.space)
        kept: list[tuple[int, ...]] = []
        remaining = list(self.ineqs)
        for i, row in enumerate(self.ineqs):
            others = tuple(kept + remaining[i + 1:])
            res = _memo_solve(self.eqs, others, self.space.dim, row[:-1])
            if res.status is LPStatus.OPTIMAL and res.value + row[-1] >= 0:
                continue  # implied by the others
            kept.append(row)
        return Polyhedron(self.space, self.eqs, kept)

    def affine_hull_eqs(self) -> tuple[tuple[int, ...], ...]:
        """Equalities of the affine hull: stated eqs plus implied ones."""
        implied = []
        for row in self.ineqs:
            # a.x + c >= 0 is an implicit equality iff max(-(a.x + c)) = 0,
            # i.e. min(a.x + c) = 0 over the polyhedron.
            res = solve_lp(self.eqs, self.ineqs, self.space.dim, objective=list(row[:-1]))
            if res.status is LPStatus.OPTIMAL and res.value + row[-1] == 0:
                implied.append(row)
        return self.eqs + tuple(implied)

    # -- containment ----------------------------------------------------------------------

    def contains_point(self, point: Sequence[Rational]) -> bool:
        vals = [as_fraction(v) for v in point]
        if len(vals) != self.space.dim:
            raise PolyhedralError("point dimension mismatch")
        for row in self.eqs:
            if _eval_row(row, vals) != 0:
                return False
        for row in self.ineqs:
            if _eval_row(row, vals) < 0:
                return False
        return True

    def is_subset(self, other: "Polyhedron") -> bool:
        """self ⊆ other (rational test; exact for our use on integer-dense sets)."""
        if self.space != other.space:
            raise SpaceMismatchError(f"{self.space} vs {other.space}")
        if self.is_rational_empty():
            return True
        for row in other.eqs:
            for sense in (list(row), [-v for v in row]):
                if not self._implies_ineq(sense):
                    return False
        for row in other.ineqs:
            if not self._implies_ineq(list(row)):
                return False
        return True

    def _implies_ineq(self, row: Sequence[Rational]) -> bool:
        res = _memo_solve(self.eqs, self.ineqs, self.space.dim,
                          tuple(row[:-1]))
        if res.status is LPStatus.UNBOUNDED:
            return False
        return res.value + row[-1] >= 0


# -- helpers ---------------------------------------------------------------------


def _eval_row(row: Sequence[int], vals: Sequence[Fraction]) -> Fraction:
    total = as_fraction(row[-1])
    for a, v in zip(row[:-1], vals):
        if a:
            total += a * v
    return total


def _floor_div(a: int, b: int) -> int:
    return a // b


def _floor_frac(f: Fraction) -> int:
    return f.numerator // f.denominator


def _ceil_frac(f: Fraction) -> int:
    return -((-f.numerator) // f.denominator)


def _pick_fm_victim(poly: "Polyhedron", victims: set) -> str:
    """Greedy elimination order: equality pivots first (cheapest), otherwise
    the victim minimizing the lower-bound x upper-bound product."""
    best = None
    best_cost = None
    for name in victims:
        idx = poly.space.index(name)
        if any(r[idx] != 0 for r in poly.eqs):
            return name  # substitution: no growth at all
        lower = sum(1 for r in poly.ineqs if r[idx] > 0)
        upper = sum(1 for r in poly.ineqs if r[idx] < 0)
        cost = lower * upper - (lower + upper)
        if best_cost is None or cost < best_cost:
            best, best_cost = name, cost
    return best


def _fm_eliminate(eqs: list[list[int]], ineqs: list[list[int]], idx: int):
    """Eliminate the variable at column ``idx``; returns (eqs, ineqs, exact)."""
    exact = True
    # Prefer an equality pivot.
    pivot_row = None
    for row in eqs:
        if row[idx] != 0:
            if pivot_row is None or abs(row[idx]) < abs(pivot_row[idx]):
                pivot_row = row
    if pivot_row is not None:
        p = pivot_row[idx]
        if abs(p) != 1:
            exact = False
        new_eqs, new_ineqs = [], []
        for row in eqs:
            if row is pivot_row:
                continue
            new_eqs.append(_combine(row, pivot_row, idx))
        for row in ineqs:
            new_ineqs.append(_combine_ineq(row, pivot_row, idx))
        return ([_drop(r, idx) for r in new_eqs],
                [_drop(r, idx) for r in new_ineqs], exact)

    # Pure Fourier-Motzkin on inequalities.
    lower = [r for r in ineqs if r[idx] > 0]   # a > 0: gives lower bound on x
    upper = [r for r in ineqs if r[idx] < 0]   # a < 0: gives upper bound on x
    neutral = [r for r in ineqs if r[idx] == 0]
    for r in lower + upper:
        if abs(r[idx]) != 1:
            exact = False
    out = [list(r) for r in neutral]
    for lo in lower:
        for hi in upper:
            # lo: a.x + ... >= 0 (a>0), hi: b.x + ... >= 0 (b<0)
            a, b = lo[idx], -hi[idx]
            combined = [b * lv + a * hv for lv, hv in zip(lo, hi)]
            out.append(combined)
    return ([_drop(list(r), idx) for r in eqs],  # eqs don't mention idx here
            [_drop(r, idx) for r in out], exact)


def _combine(row: list[int], pivot: list[int], idx: int) -> list[int]:
    """Eliminate row[idx] using equality pivot (for equality rows)."""
    if row[idx] == 0:
        return list(row)
    p = pivot[idx]
    return [p * rv - row[idx] * pv for rv, pv in zip(row, pivot)]


def _combine_ineq(row: list[int], pivot: list[int], idx: int) -> list[int]:
    """Eliminate row[idx] from an inequality using an equality pivot.

    Multiplies the inequality by |p| (positive) to stay sign-correct.
    """
    if row[idx] == 0:
        return list(row)
    p = pivot[idx]
    sign = 1 if p > 0 else -1
    # row * |p| - sign*row[idx] * pivot  has zero at idx
    return [abs(p) * rv - sign * row[idx] * pv for rv, pv in zip(row, pivot)]


def _drop(row: list[int], idx: int) -> list[int]:
    return row[:idx] + row[idx + 1:]


def _int_substitute(row: list[int], j: int, pivot: list[int]) -> list[int]:
    """Eliminate column j from an integer row using a +-1-pivot equality.

    pivot[j] in {1, -1}; substitution keeps integer coefficients and, for
    inequalities, multiplies by +1 only (sign-safe).
    """
    c = row[j]
    if c == 0:
        return list(row)
    f = c * pivot[j]  # == c / pivot[j] since pivot[j] is +-1
    return [a - f * b for a, b in zip(row, pivot)]


def _branch_and_bound(eqs: list, ineqs: list, n: int,
                      depth: int = 0) -> tuple[list[int] | None, bool]:
    """Find an integer point; returns (point | None, proved_empty_if_none)."""
    res = solve_lp(eqs, ineqs, n)
    if res.status is LPStatus.INFEASIBLE:
        return None, True
    point = res.point
    frac_idx = next((i for i, v in enumerate(point) if v.denominator != 1), None)
    if frac_idx is None:
        return [int(v) for v in point], True
    if depth >= _BRANCH_DEPTH_LIMIT:
        return None, False
    v = point[frac_idx]
    lo_branch = [0] * (n + 1)
    lo_branch[frac_idx] = -1
    lo_branch[-1] = _floor_frac(v)          # x <= floor(v)
    hi_branch = [0] * (n + 1)
    hi_branch[frac_idx] = 1
    hi_branch[-1] = -_ceil_frac(v)          # x >= ceil(v)
    found, proved1 = _branch_and_bound(eqs, ineqs + [tuple(lo_branch)], n, depth + 1)
    if found is not None:
        return found, True
    found, proved2 = _branch_and_bound(eqs, ineqs + [tuple(hi_branch)], n, depth + 1)
    if found is not None:
        return found, True
    return None, proved1 and proved2
