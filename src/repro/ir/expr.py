"""Integer affine expressions over named variables.

These are the subscripts of array accesses and the bounds of loops in the
static-control programs of Section 4.1: linear combinations of enclosing
loop variables and global parameters, plus a constant.

Expressions can be built programmatically (operators) or parsed from a small
C-like grammar: ``"n1 - 1 - i"``, ``"2*k + 3"``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Mapping, Sequence

from ..exceptions import ProgramError
from ..polyhedral import Space
from ..polyhedral.matrix import Rational, as_fraction

__all__ = ["AffineExpr", "affine"]

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9']*)|([()*+-]))")
_MISSING = object()


class AffineExpr:
    """sum(coeff_v * v) + const, with rational coefficients.

    Immutable; arithmetic returns new expressions.  Multiplication is only
    allowed when one side is constant (affine closure).
    """

    __slots__ = ("coeffs", "const", "_intform")

    def __init__(self, coeffs: Mapping[str, Rational] | None = None,
                 const: Rational = 0):
        self.coeffs: dict[str, Fraction] = {}
        for name, val in (coeffs or {}).items():
            f = as_fraction(val)
            if f:
                self.coeffs[name] = f
        self.const: Fraction = as_fraction(const)
        # Lazily compiled pure-int form used by evaluate(); None = not yet
        # compiled, False = the expression has non-integer coefficients.
        self._intform: tuple | None | bool = None

    # -- construction --------------------------------------------------------

    @classmethod
    def var(cls, name: str) -> "AffineExpr":
        return cls({name: 1})

    @classmethod
    def constant(cls, value: Rational) -> "AffineExpr":
        return cls({}, value)

    @classmethod
    def parse(cls, text: str) -> "AffineExpr":
        """Parse ``"2*i - j + n - 1"`` style affine expressions."""
        tokens = _tokenize(text)
        expr, pos = _parse_sum(tokens, 0)
        if pos != len(tokens):
            raise ProgramError(f"trailing tokens in affine expression {text!r}")
        return expr

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other: "AffineExpr | Rational") -> "AffineExpr":
        other = affine(other)
        coeffs = dict(self.coeffs)
        for name, val in other.coeffs.items():
            coeffs[name] = coeffs.get(name, Fraction(0)) + val
        return AffineExpr(coeffs, self.const + other.const)

    __radd__ = __add__

    def __neg__(self) -> "AffineExpr":
        return AffineExpr({n: -v for n, v in self.coeffs.items()}, -self.const)

    def __sub__(self, other: "AffineExpr | Rational") -> "AffineExpr":
        return self + (-affine(other))

    def __rsub__(self, other: "AffineExpr | Rational") -> "AffineExpr":
        return affine(other) + (-self)

    def __mul__(self, other: Rational) -> "AffineExpr":
        if isinstance(other, AffineExpr):
            if not other.coeffs:
                other = other.const
            elif not self.coeffs:
                return other * self.const
            else:
                raise ProgramError("product of two non-constant affine expressions")
        f = as_fraction(other)
        return AffineExpr({n: v * f for n, v in self.coeffs.items()}, self.const * f)

    __rmul__ = __mul__

    # -- queries -----------------------------------------------------------------

    def variables(self) -> set[str]:
        return set(self.coeffs)

    def is_constant(self) -> bool:
        return not self.coeffs

    def evaluate(self, bindings: Mapping[str, Rational]) -> Rational:
        """Value of the expression under ``bindings``.

        Returns a plain ``int`` when the expression and the bound values are
        all integers (``int`` and ``Fraction`` compare and hash identically,
        so callers never see a difference) — the common case by far, since
        schedules are integer affine maps evaluated at integer points.
        """
        form = self._intform
        if form is None:
            form = self._compile_int_form()
        if form is not False:
            total = form[0]
            for name, c in form[1]:
                v = bindings.get(name, _MISSING)
                if type(v) is not int:
                    if v is _MISSING:
                        raise ProgramError(
                            f"unbound variable {name!r} when evaluating {self}")
                    break
                total += c * v
            else:
                return total
        total = self.const
        for name, coeff in self.coeffs.items():
            if name not in bindings:
                raise ProgramError(f"unbound variable {name!r} when evaluating {self}")
            total += coeff * as_fraction(bindings[name])
        return total

    def int_form(self) -> tuple[int, tuple[tuple[str, int], ...]] | None:
        """``(const, ((name, coeff), ...))`` when every coefficient and the
        constant are integers, else None."""
        form = self._intform
        if form is None:
            form = self._compile_int_form()
        return form or None

    def _compile_int_form(self) -> tuple | bool:
        if self.const.denominator != 1 or any(
                c.denominator != 1 for c in self.coeffs.values()):
            form = False
        else:
            form = (int(self.const),
                    tuple((name, int(c)) for name, c in self.coeffs.items()))
        self._intform = form
        return form

    def substitute(self, bindings: Mapping[str, "AffineExpr | Rational"]) -> "AffineExpr":
        out = AffineExpr({}, self.const)
        for name, coeff in self.coeffs.items():
            if name in bindings:
                out = out + affine(bindings[name]) * coeff
            else:
                out = out + AffineExpr({name: coeff})
        return out

    def to_row(self, space: Space) -> list[Fraction]:
        """Row of length space.dim + 1 (coefficients + constant)."""
        row = [Fraction(0)] * (space.dim + 1)
        for name, coeff in self.coeffs.items():
            row[space.index(name)] = coeff
        row[-1] = self.const
        return row

    # -- protocol -------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AffineExpr):
            return NotImplemented
        return self.coeffs == other.coeffs and self.const == other.const

    def __hash__(self) -> int:
        return hash((tuple(sorted(self.coeffs.items())), self.const))

    def __repr__(self) -> str:
        parts = []
        for name in sorted(self.coeffs):
            c = self.coeffs[name]
            if c == 1:
                parts.append(f"+{name}")
            elif c == -1:
                parts.append(f"-{name}")
            else:
                parts.append(f"{'+' if c > 0 else ''}{c}*{name}")
        if self.const or not parts:
            parts.append(f"{'+' if self.const >= 0 else ''}{self.const}")
        return "".join(parts).lstrip("+")


def affine(value: "AffineExpr | Rational | str") -> AffineExpr:
    """Coerce ints, Fractions, strings and AffineExprs to AffineExpr."""
    if isinstance(value, AffineExpr):
        return value
    if isinstance(value, str):
        return AffineExpr.parse(value)
    return AffineExpr.constant(value)


# -- parser -------------------------------------------------------------------


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ProgramError(f"cannot tokenize affine expression {text!r} at {pos}")
            break
        tokens.append(m.group(1) or m.group(2) or m.group(3))
        pos = m.end()
    return tokens


def _parse_sum(tokens: list[str], pos: int) -> tuple[AffineExpr, int]:
    expr, pos = _parse_term(tokens, pos)
    while pos < len(tokens) and tokens[pos] in "+-":
        op = tokens[pos]
        rhs, pos = _parse_term(tokens, pos + 1)
        expr = expr + rhs if op == "+" else expr - rhs
    return expr, pos


def _parse_term(tokens: list[str], pos: int) -> tuple[AffineExpr, int]:
    expr, pos = _parse_atom(tokens, pos)
    while pos < len(tokens) and tokens[pos] == "*":
        rhs, pos = _parse_atom(tokens, pos + 1)
        expr = expr * rhs
    return expr, pos


def _parse_atom(tokens: list[str], pos: int) -> tuple[AffineExpr, int]:
    if pos >= len(tokens):
        raise ProgramError("unexpected end of affine expression")
    tok = tokens[pos]
    if tok == "-":
        expr, pos = _parse_atom(tokens, pos + 1)
        return -expr, pos
    if tok == "+":
        return _parse_atom(tokens, pos + 1)
    if tok == "(":
        expr, pos = _parse_sum(tokens, pos + 1)
        if pos >= len(tokens) or tokens[pos] != ")":
            raise ProgramError("unbalanced parentheses in affine expression")
        return expr, pos + 1
    if tok.isdigit():
        return AffineExpr.constant(int(tok)), pos + 1
    if tok[0].isalpha() or tok[0] == "_":
        return AffineExpr.var(tok), pos + 1
    raise ProgramError(f"unexpected token {tok!r} in affine expression")
