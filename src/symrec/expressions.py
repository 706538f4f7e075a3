"""Coefficient expressions over a single spatial variable.

The grammar is deliberately small: numeric constants, the variable ``x``,
``sin``, ``cos``, ``exp``, addition, subtraction, multiplication, and
powers with numeric exponents.  A minimal recursive-descent parser builds
an AST that evaluates vectorized on numpy arrays.  The original source
text is kept so that serialization round-trips exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}


class ExpressionError(ValueError):
    pass


# AST nodes are (op, *args) tuples:
#   ("num", value) ("var",) ("call", name, node) ("neg", node)
#   ("add"|"sub"|"mul", left, right) ("pow", node, exponent)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def parse(self):
        node = self._sum()
        self._skip_ws()
        if self.pos != len(self.text):
            raise ExpressionError(
                f"unexpected input at position {self.pos}: {self.text[self.pos:]!r}"
            )
        return node

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _sum(self):
        node = self._product()
        while True:
            ch = self._peek()
            if ch == "+":
                self.pos += 1
                node = ("add", node, self._product())
            elif ch == "-":
                self.pos += 1
                node = ("sub", node, self._product())
            else:
                return node

    def _product(self):
        node = self._unary()
        while True:
            self._skip_ws()
            if self.text.startswith("**", self.pos):
                return node  # handled by _power below
            if self._peek() == "*":
                self.pos += 1
                node = ("mul", node, self._unary())
            else:
                return node

    def _unary(self):
        if self._peek() == "-":
            self.pos += 1
            return ("neg", self._unary())
        return self._power()

    def _power(self):
        base = self._atom()
        self._skip_ws()
        if self.text.startswith("**", self.pos):
            self.pos += 2
            return ("pow", base, self._exponent())
        if self._peek() == "^":
            self.pos += 1
            return ("pow", base, self._exponent())
        return base

    def _exponent(self) -> float:
        sign = 1.0
        if self._peek() == "-":
            self.pos += 1
            sign = -1.0
        node = self._atom()
        if node[0] != "num":
            raise ExpressionError("exponent must be a numeric literal")
        return sign * node[1]

    def _atom(self):
        self._skip_ws()
        if self.pos >= len(self.text):
            raise ExpressionError("unexpected end of expression")
        ch = self.text[self.pos]
        if ch == "(":
            self.pos += 1
            node = self._sum()
            if self._peek() != ")":
                raise ExpressionError("missing closing parenthesis")
            self.pos += 1
            return node
        if ch.isdigit() or ch == ".":
            return ("num", self._number())
        if ch.isalpha():
            name = self._identifier()
            if name == "x":
                return ("var",)
            if name in _FUNCS:
                if self._peek() != "(":
                    raise ExpressionError(f"{name} requires parentheses")
                self.pos += 1
                node = self._sum()
                if self._peek() != ")":
                    raise ExpressionError("missing closing parenthesis")
                self.pos += 1
                return ("call", name, node)
            raise ExpressionError(f"unknown identifier {name!r}")
        raise ExpressionError(f"unexpected character {ch!r}")

    def _identifier(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalnum():
            self.pos += 1
        return self.text[start : self.pos]

    def _number(self) -> float:
        start = self.pos
        seen_exp = False
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch.isdigit() or ch == ".":
                self.pos += 1
            elif ch in "eE" and not seen_exp:
                nxt = self.text[self.pos + 1 : self.pos + 2]
                if nxt.isdigit() or nxt in "+-":
                    seen_exp = True
                    self.pos += 1
                    if nxt in "+-":
                        self.pos += 1
                else:
                    break
            else:
                break
        try:
            return float(self.text[start : self.pos])
        except ValueError as exc:
            raise ExpressionError(f"bad number {self.text[start:self.pos]!r}") from exc


def _eval(node, x):
    op = node[0]
    if op == "num":
        return node[1]
    if op == "var":
        return x
    if op == "neg":
        return -_eval(node[1], x)
    if op == "add":
        return _eval(node[1], x) + _eval(node[2], x)
    if op == "sub":
        return _eval(node[1], x) - _eval(node[2], x)
    if op == "mul":
        return _eval(node[1], x) * _eval(node[2], x)
    if op == "pow":
        # np.power overflows to inf like exp does; float ** raises OverflowError
        return np.power(_eval(node[1], x), node[2])
    if op == "call":
        return _FUNCS[node[1]](_eval(node[2], x))
    raise ExpressionError(f"bad AST node {op!r}")


def _depends_on_x(node) -> bool:
    op = node[0]
    if op == "var":
        return True
    if op in ("num",):
        return False
    if op in ("neg", "call"):
        return _depends_on_x(node[1] if op == "neg" else node[2])
    if op == "pow":
        return _depends_on_x(node[1])
    return _depends_on_x(node[1]) or _depends_on_x(node[2])


@dataclass(frozen=True)
class CoeffExpr:
    """A parsed coefficient c(x).  Equality and hashing use the source text."""

    text: str

    def __post_init__(self):
        object.__setattr__(self, "_ast", _Parser(self.text).parse())

    def __call__(self, x):
        # Overflow or an invalid operation yields inf or nan, which the
        # callers' finiteness checks report; numpy's warnings would only
        # repeat that on stderr.
        with np.errstate(all="ignore"):
            out = _eval(self._ast, np.asarray(x, dtype=float))
        return np.broadcast_to(np.asarray(out, dtype=float), np.shape(x)).copy() \
            if np.ndim(out) == 0 and np.ndim(x) > 0 else out

    @property
    def is_constant(self) -> bool:
        return not _depends_on_x(self._ast)


def parse_coeff(text: str) -> CoeffExpr:
    expr = CoeffExpr(text.strip())
    value = expr(0.0)
    if not math.isfinite(float(np.asarray(value))):
        raise ExpressionError(f"{text!r} does not evaluate to a finite value")
    return expr
