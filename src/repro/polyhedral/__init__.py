"""Pure-Python exact integer polyhedra library (the paper's isl [23] role).

Public surface:

* :class:`Space`, :class:`Polyhedron` — convex integer polyhedra with exact
  rational arithmetic, Fourier-Motzkin projection, integer feasibility,
  enumeration, and lexicographic extrema.
* :class:`PolyhedralSet` — finite unions with subtraction (needed by the
  no-write-in-between rule).
* :class:`SymbolicForm`, :func:`farkas_nonneg`, :func:`farkas_equals_const`
  — the affine form of the Farkas lemma used to linearize schedule
  constraints (Lemma 1).
* :class:`RationalMatrix` — exact linear algebra (rank / null space / span
  tests behind the dimensionality constraints of Algorithm 1).
* :func:`solve_lp` — exact two-phase simplex; :func:`lp_memo` scopes a
  bounded memo of repeated LPs (one optimization run).
"""

from .counting import CountFormula, symbolic_count
from .farkas import SymbolicForm, farkas_equals_const, farkas_nonneg
from .matrix import RationalMatrix, normalize_integer_row
from .polyhedron import Polyhedron, Space, lp_memo
from .sets import PolyhedralSet
from .simplex import LPStatus, solve_lp

__all__ = [
    "Space",
    "Polyhedron",
    "PolyhedralSet",
    "SymbolicForm",
    "farkas_nonneg",
    "farkas_equals_const",
    "RationalMatrix",
    "normalize_integer_row",
    "LPStatus",
    "solve_lp",
    "lp_memo",
    "CountFormula",
    "symbolic_count",
]
