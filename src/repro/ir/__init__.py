"""Program IR: static-control programs under the polyhedral model (§4.1).

Public surface:

* :class:`AffineExpr` / :func:`affine` — affine expressions and parsing;
* :class:`Array`, :class:`Access`, :class:`Statement`, :class:`Program` —
  the IR proper, at block granularity;
* :class:`StatementEvents` — a statement's access events for bound
  parameters, the schedule-independent part of every plan's cost trace;
* :class:`ProgramBuilder` — the loop-nest DSL front end;
* :class:`Schedule` — original (2d+1) and searched ((d~+1)-dim) schedules,
  plus the symbolic precedence expansion used to build extent polyhedra.
"""

from .builder import AccessRef, ArrayRef, ProgramBuilder
from .expr import AffineExpr, affine
from .program import (Access, AccessType, Array, ArrayKind, Program, Statement,
                      StatementEvents)
from .schedule import Disjunct, Schedule, lex_less, precedence_disjuncts

__all__ = [
    "AffineExpr",
    "affine",
    "Access",
    "AccessType",
    "Array",
    "ArrayKind",
    "Program",
    "Statement",
    "StatementEvents",
    "ProgramBuilder",
    "ArrayRef",
    "AccessRef",
    "Schedule",
    "Disjunct",
    "precedence_disjuncts",
    "lex_less",
]
