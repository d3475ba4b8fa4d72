"""Exact two-phase simplex over rationals.

Solves linear programs whose constraints come from polyhedra in our
convention: a row ``(a_1, ..., a_n, c)`` encodes ``a.x + c >= 0`` (inequality)
or ``a.x + c = 0`` (equality), with *free* (sign-unrestricted) variables.

The solver is used by the polyhedron layer for

* rational feasibility / emptiness tests,
* redundancy removal after Fourier-Motzkin projection,
* variable bound computation (min/max of x_i over the polyhedron), which
  drives integer branch-and-bound and point enumeration.

Bland's rule is used throughout, so the solver cannot cycle.  Everything is
exact: a presolve pass substitutes away +-1-pivot equalities, and the
tableau itself is one 2-D integer array — every row, the objective row
included, scaled to integers — so a pivot is a single vectorized update of
the rows it touches followed by a row-gcd reduce.

Arithmetic backends
-------------------

Constraint rows arriving from :class:`~repro.polyhedral.polyhedron.Polyhedron`
are pure-integer tuples (other rows are scaled to integers first), so the
whole pipeline — presolve, standard form, tableau — runs on integers.  A
tableau whose magnitudes fit comfortably in int64 is an int64 array; every
update is preceded by an exact magnitude bound
(``(|p| + max|f|) * max|T| < 2**63``) and a tableau that might overflow
switches to ``dtype=object`` (Python ints, exact at any size) for the rest
of its solve.  :func:`set_fast_path` ``(False)`` puts every tableau on the
object dtype.  Exact arithmetic plus Bland's rule make the pivot sequence
independent of the representation, so both backends return bit-identical
results — the property suite in
``tests/polyhedral/test_kernel_properties.py`` fuzzes one against the
other, including forced-overflow inputs, and ``test_lp_corpus.py`` holds
both to answers recorded by the previous kernel.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from itertools import chain
from math import gcd as _gcd_int
from typing import Sequence

import numpy as np

from .matrix import Rational, as_fraction

__all__ = ["LPStatus", "LPResult", "solve_lp", "is_feasible", "set_fast_path",
           "KERNEL_STATS"]

# Vectorized-kernel policy.  `_NUMPY_ENABLED` is the test hook: disabling it
# puts every tableau on exact Python integers.
_NUMPY_ENABLED = True
_NP_SAFE = 1 << 62        # entry magnitude bound for an int64 tableau
_INT64 = 1 << 63

#: Observability for the arithmetic backends: how many tableau rows took the
#: int64 representation and how many tableaux switched to exact Python
#: integers because the int64 bound would have been violated.
KERNEL_STATS = {"numpy_rows": 0, "overflow_fallbacks": 0}


def set_fast_path(enabled: bool) -> bool:
    """Enable/disable the int64 tableau (returns the previous value).

    With the fast path off, every tableau uses exact Python integers —
    the reference backend the property tests compare against.
    """
    global _NUMPY_ENABLED
    previous = _NUMPY_ENABLED
    _NUMPY_ENABLED = bool(enabled)
    return previous


class LPStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class LPResult:
    """Outcome of an LP solve: status, optimal value, and a witness point."""

    __slots__ = ("status", "value", "point")

    def __init__(self, status: LPStatus, value: Fraction | None = None,
                 point: tuple[Fraction, ...] | None = None):
        self.status = status
        self.value = value
        self.point = point

    def __repr__(self) -> str:
        return f"LPResult({self.status.value}, value={self.value}, point={self.point})"


def is_feasible(eqs: Sequence[Sequence[Rational]],
                ineqs: Sequence[Sequence[Rational]],
                nvars: int) -> bool:
    """Rational feasibility of {x : eqs(x) = 0, ineqs(x) >= 0}."""
    result = solve_lp(eqs, ineqs, nvars, objective=None)
    return result.status is LPStatus.OPTIMAL


def _all_int_rows(rows) -> bool:
    return {*map(type, chain.from_iterable(rows))} <= {int}


def solve_lp(eqs: Sequence[Sequence[Rational]],
             ineqs: Sequence[Sequence[Rational]],
             nvars: int,
             objective: Sequence[Rational] | None = None,
             maximize: bool = False) -> LPResult:
    """Optimize ``objective . x`` over {x : eqs = 0, ineqs >= 0}.

    ``objective`` has length ``nvars`` (no constant term); ``None`` means a
    pure feasibility check (any feasible point is returned).  Variables are
    free; internally each x_i is split as x_i = u_i - v_i with u, v >= 0.

    A row with non-integer entries is first scaled to integers (a positive
    factor changes no constraint, and no pivot of the objective), so the
    whole pipeline runs on integers.  A presolve pass substitutes away
    equality rows with a +-1 pivot (exact, and the dominant case in
    polyhedra produced by dependence analysis), which typically shrinks the
    tableau by an order of magnitude.
    """
    for row in list(eqs) + list(ineqs):
        if len(row) != nvars + 1:
            raise ValueError(f"constraint row width {len(row)} != nvars+1 = {nvars + 1}")
    if objective is not None and len(objective) != nvars:
        raise ValueError("objective length mismatch")
    if not _all_int_rows(eqs):
        eqs = [_to_int_row(r) for r in eqs]
    if not _all_int_rows(ineqs):
        ineqs = [_to_int_row(r) for r in ineqs]
    reduced_eqs, reduced_ineqs, keep, elim, feasible = \
        _presolve(eqs, ineqs, nvars)
    if not feasible:
        return LPResult(LPStatus.INFEASIBLE)

    if objective is None:
        red_obj = None
    else:
        # The objective over the kept variables: substitute the eliminated.
        obj_row = _to_int_row(objective) + [0]
        for var, prow in elim:
            c = obj_row[var]
            if c:
                f = c * prow[var]  # prow[var] is +-1: c/p == c*p
                obj_row = [a - f * b for a, b in zip(obj_row, prow)]
        red_obj = [obj_row[j] for j in keep]

    status, point = _raw_lp([_project_row(r, keep) for r in reduced_eqs],
                            [_project_row(r, keep) for r in reduced_ineqs],
                            len(keep), red_obj, maximize)
    if status is not LPStatus.OPTIMAL:
        return LPResult(status)
    return _reconstruct(point, nvars, keep, elim, objective)


def _presolve(eqs, ineqs, nvars):
    """Substitute away +-1-pivot equality variables: exact on integers and
    needs no row rescaling (sign-safe for inequalities).

    Returns (eqs', ineqs', keep_indices, elim_list, feasible) where rows stay
    in the original full-width coordinate system (eliminated columns zeroed).
    """
    cur_eqs = [list(r) for r in eqs]
    cur_ineqs = [list(r) for r in ineqs]
    eliminated: set[int] = set()
    elim: list[tuple[int, list[int]]] = []
    while True:
        pivot_row = None
        pivot_var = None
        for r in cur_eqs:
            for j in range(nvars):
                if j not in eliminated and (r[j] == 1 or r[j] == -1):
                    pivot_row, pivot_var = r, j
                    break
            if pivot_row is not None:
                break
        if pivot_row is None:
            break
        pv = pivot_row[pivot_var]
        cur_eqs = [_substitute(r, pivot_var, pivot_row, pv)
                   if r[pivot_var] else r
                   for r in cur_eqs if r is not pivot_row]
        cur_ineqs = [_substitute(r, pivot_var, pivot_row, pv)
                     if r[pivot_var] else r for r in cur_ineqs]
        eliminated.add(pivot_var)
        elim.append((pivot_var, pivot_row))

    # Constant rows: contradictions mean infeasible, tautologies are dropped.
    kept_eqs, kept_ineqs = [], []
    for r in cur_eqs:
        if any(r[:-1]):
            kept_eqs.append(r)
        elif r[-1] != 0:
            return [], [], [], [], False
    for r in cur_ineqs:
        if any(r[:-1]):
            kept_ineqs.append(r)
        elif r[-1] < 0:
            return [], [], [], [], False
    keep = [j for j in range(nvars) if j not in eliminated]
    return kept_eqs, kept_ineqs, keep, elim, True


def _substitute(row: list[int], var: int, pivot: list[int],
                pv: int) -> list[int]:
    """Eliminate ``var`` from ``row`` using a +-1-pivot equality."""
    f = row[var] * pv  # == c / pv since pv in {1, -1}
    return [a - f * b for a, b in zip(row, pivot)]


def _reconstruct(point, nvars, keep, elim, objective) -> LPResult:
    """Back-substitute eliminated variables into the full witness point."""
    full = [Fraction(0)] * nvars
    for j, v in zip(keep, point):
        full[j] = v
    for var, row in reversed(elim):
        # row . x + c = 0 with row[var] = +-1, so dividing is multiplying.
        total = row[-1] + sum(c * full[k] for k, c in enumerate(row[:-1])
                              if k != var and c)
        full[var] = Fraction(-total * row[var])
    value = Fraction(0)
    if objective is not None:
        value = sum((as_fraction(o) * x for o, x in zip(objective, full)),
                    Fraction(0))
    return LPResult(LPStatus.OPTIMAL, value, tuple(full))


def _project_row(row, keep: list[int]):
    return [row[j] for j in keep] + [row[-1]]


# -- tableau core ------------------------------------------------------------


def _raw_lp(eqs, ineqs, nvars, objective=None,
            maximize: bool = False) -> tuple[LPStatus, tuple | None]:
    """The unpresolved exact simplex on integer rows: status and witness."""
    ncols = 2 * nvars + len(ineqs)
    tableau = _phase_one(_standard_form(list(eqs) + list(ineqs), nvars,
                                        len(eqs)), ncols)
    if tableau is None:
        return LPStatus.INFEASIBLE, None
    if objective is not None:
        obj = [-v for v in objective] if maximize else objective
        if not tableau.basis:
            # No constraints at all: any nonzero objective is unbounded.
            if any(obj):
                return LPStatus.UNBOUNDED, None
        else:
            # cost vector over u, v, slacks: c.u - c.v
            tableau.price_out(obj + [-v for v in obj] + [0] * (ncols - 2 * nvars))
            if tableau.iterate(ncols) is LPStatus.UNBOUNDED:
                return LPStatus.UNBOUNDED, None
    return LPStatus.OPTIMAL, tableau.point(nvars)


# -- internals --------------------------------------------------------------


def _to_int_row(row) -> list[int]:
    """``row`` times the least positive factor that makes it integral."""
    if _all_int_rows([row]):
        return list(row)
    row = [as_fraction(v) for v in row]
    den = _lcm(v.denominator for v in row)
    return [int(v * den) for v in row]


def _lcm(values) -> int:
    out = 1
    for v in values:
        out = out * v // _gcd_int(out, v)
    return out


def _int_matrix(rows, shape: tuple[int, int]) -> np.ndarray:
    """``rows`` as an int64 array when the fast path is on and every entry
    is below the int64 guard, else as Python ints."""
    if _NUMPY_ENABLED:
        try:
            mat = np.array(rows, dtype=np.int64).reshape(shape)
        except OverflowError:
            pass
        else:
            if not mat.size or int(np.abs(mat).max()) < _NP_SAFE:
                return mat
    return np.array(rows, dtype=object).reshape(shape)


def _standard_form(rows: list, nvars: int, neqs: int) -> np.ndarray:
    """Phase-1 tableau rows for integer constraint rows ``a.x + c``.

    Columns are u_0..u_{n-1}, v_0..v_{n-1}, slacks, artificials, rhs.  Each
    constraint becomes a.u - a.v - s = -c (inequality; eq: no slack), with
    the sign flipped so the rhs is nonnegative.
    """
    m = len(rows)
    ncols = 2 * nvars + m - neqs
    rows = _int_matrix(rows, (m, nvars + 1))
    t = np.zeros((m, ncols + m + 1), dtype=rows.dtype)
    t[:, :nvars] = rows[:, :nvars]
    t[:, nvars:2 * nvars] = -rows[:, :nvars]
    ineq = np.arange(neqs, m)
    t[ineq, 2 * nvars + ineq - neqs] = -1
    t[:, -1] = -rows[:, nvars]
    flip = t[:, -1] < 0
    t[flip] = -t[flip]
    t[np.arange(m), ncols + np.arange(m)] = 1
    return t


def _gcd_reduced(rows: np.ndarray) -> np.ndarray:
    """Every row divided by the gcd of its entries (zero rows unchanged)."""
    g = np.gcd.reduce(rows, axis=1)
    g[g == 0] = 1
    return rows // g[:, None]


class _Tableau:
    """The whole simplex tableau as one 2-D integer array.

    ``a`` holds one row per constraint, then — while a phase runs — the
    objective (z) row; the last column is the right-hand side.  Rows are
    exact only up to a positive factor: constraint row ``i`` means
    ``a[i] / a[i, basis[i]]`` (its basic column holds its denominator), and
    the z row's signs are all the simplex reads from it.  ``amax`` bounds
    every entry's magnitude while ``a`` is int64.
    """

    __slots__ = ("a", "basis", "amax")

    def __init__(self, a: np.ndarray, basis: list[int]):
        self.a = a
        self.basis = basis
        self.amax = 0
        if a.dtype != object:
            KERNEL_STATS["numpy_rows"] += len(a)
            self.amax = int(np.abs(a).max()) if a.size else 0

    def _guard(self, bound: int) -> None:
        """Keep int64 when ``bound`` proves the next update cannot reach
        2**63; otherwise switch this tableau to Python ints for good."""
        if self.a.dtype != object and bound >= _INT64:
            KERNEL_STATS["overflow_fallbacks"] += 1
            self.a = self.a.astype(object)

    def price_out(self, cost: list[int]) -> None:
        """Append the z row: ``cost`` minus each basic row times its basic
        cost, over the common positive factor ``lcm`` of those rows'
        denominators (so basic columns read zero)."""
        basis = self.basis
        rows = [i for i, b in enumerate(basis) if cost[b]]
        dens = self.a[rows, [basis[i] for i in rows]].tolist()
        lcm = _lcm(dens)
        weights = [cost[basis[i]] * (lcm // d) for i, d in zip(rows, dens)]
        z = [lcm * c for c in cost] + [0]
        self._guard(max(map(abs, z)) + sum(map(abs, weights)) * self.amax)
        a = self.a
        z = np.array(z, dtype=a.dtype)
        if rows:
            z -= np.array(weights, dtype=a.dtype) @ a[rows]
        z = _gcd_reduced(z[None, :])
        if a.dtype != object:
            self.amax = max(self.amax, int(np.abs(z).max()))
        self.a = np.vstack([a, z])

    def pivot(self, row: int, col: int) -> None:
        """Make ``col`` basic in ``row``: every other row with a nonzero in
        ``col`` gets ``p * r - r[col] * a[row]`` in one update (``p > 0``
        keeps each row's factor positive), then a row-gcd reduce."""
        a = self.a
        p = int(a[row, col])
        if p < 0:
            a[row] = -a[row]
            p = -p
        others = a[:, col].nonzero()[0]
        others = others[others != row]
        if others.size:
            # |p*r - f*a[row]| <= (p + max|f|) * amax; both are <= amax.
            if a.dtype != object and (p + self.amax) * self.amax >= _INT64:
                self.amax = int(np.abs(a).max())  # tighten before giving up
                fmax = int(np.abs(a[others, col]).max())
                self._guard((p + fmax) * self.amax)
                a = self.a
            f = a[others, col]
            block = _gcd_reduced(p * a[others] - f[:, None] * a[row])
            a[others] = block
            if a.dtype != object:
                self.amax = max(self.amax, int(np.abs(block).max()))
        self.basis[row] = col

    def iterate(self, ncols: int) -> LPStatus:
        """Run simplex (min) with Bland's rule on the z row (the last row)."""
        m = len(self.basis)
        basis = self.basis
        while True:
            a = self.a
            negative = (a[m, :ncols] < 0).nonzero()[0]
            if not negative.size:
                return LPStatus.OPTIMAL
            enter = int(negative[0])
            # Ratio test rhs/a, a > 0 (Bland: smallest basis index on ties).
            # Row factors cancel inside one row; compare across rows by
            # cross-multiplication of nonnegative quantities.
            column = a[:m, enter]
            candidates = (column > 0).nonzero()[0].tolist()
            if not candidates:
                return LPStatus.UNBOUNDED
            leave = candidates[0]
            if len(candidates) > 1:
                nums = a[candidates, -1].tolist()
                dens = column[candidates].tolist()
                best_num, best_den = nums[0], dens[0]
                for i, num, den in zip(candidates[1:], nums[1:], dens[1:]):
                    lhs = num * best_den
                    rhs = best_num * den
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                        best_num, best_den, leave = num, den, i
            self.pivot(leave, enter)

    def point(self, nvars: int) -> tuple[Fraction, ...]:
        """The basic solution's x = u - v."""
        values = [Fraction(0)] * (2 * nvars)
        rhs = self.a[:, -1].tolist()
        for i, b in enumerate(self.basis):
            if b < 2 * nvars:
                values[b] = Fraction(rhs[i], int(self.a[i, b]))
        return tuple(values[i] - values[nvars + i] for i in range(nvars))


def _phase_one(t: np.ndarray, ncols: int) -> _Tableau | None:
    """Find a basic feasible solution using artificial variables.

    Returns the tableau — constraint rows only, restricted to the ncols real
    columns after artificials are driven out — or None if infeasible.
    """
    m = len(t)
    total = ncols + m  # + artificials
    tableau = _Tableau(t, [ncols + i for i in range(m)])

    # Phase-1 objective: minimize sum of artificials.
    tableau.price_out([0] * ncols + [1] * m)
    tableau.iterate(total)
    if tableau.a[m, -1] != 0:  # optimum of phase-1 > 0 => infeasible
        return None
    tableau.a = tableau.a[:m]

    # Drive remaining artificials out of the basis (degenerate rows).
    basis = tableau.basis
    for i in range(m):
        if basis[i] >= ncols:
            nonzero = tableau.a[i, :ncols].nonzero()[0]
            if nonzero.size:  # else a redundant row: dropped below
                tableau.pivot(i, int(nonzero[0]))

    # Strip artificial columns and the rows still basic in one.
    keep = [i for i in range(m) if basis[i] < ncols]
    tableau.a = _gcd_reduced(
        tableau.a[np.ix_(keep, list(range(ncols)) + [total])])
    tableau.basis = [basis[i] for i in keep]
    return tableau
