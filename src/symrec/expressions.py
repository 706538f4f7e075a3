"""Coefficient expressions over a single spatial variable.

The grammar is deliberately small: numeric constants, the variable ``x``,
``sin``, ``cos``, ``exp``, addition, subtraction, multiplication, unary
minus, and powers (``**`` or ``^``) with a numeric, optionally negated,
exponent.  Python's own parser reads the text; one pass over the tree
rejects every node outside that grammar, and the checked tree is compiled
once, so evaluation is vectorized on numpy arrays with no Python call per
node.  The original source text is kept so that serialization round-trips
exactly.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass

import numpy as np

_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
# np.power overflows to inf like exp does; float ** raises OverflowError
_GLOBALS = {"__builtins__": {}, "_pow": np.power, **_FUNCS}
_OPERATORS = (ast.Add, ast.Sub, ast.Mult, ast.Pow)
_PASS_THROUGH = (ast.Expression, ast.Load, ast.USub, *_OPERATORS)
_QUOTE_CHARS = 40


def _quote(text: str) -> str:
    """The text for an error message: whole when short, else a prefix and
    the length, so that one bad expression makes one short line."""
    if len(text) <= _QUOTE_CHARS:
        return repr(text)
    return f"{text[:_QUOTE_CHARS]!r}... ({len(text)} characters)"


class ExpressionError(ValueError):
    pass


def _is_number(node) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) in (int, float)


def _as_pow_call(node):
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)):
        return node
    func = ast.copy_location(ast.Name("_pow", ast.Load()), node)
    return ast.copy_location(ast.Call(func, [node.left, node.right], []), node)


def _compile(text: str):
    """Parse ``text``, check every node against the grammar, and compile it
    with numeric constants as floats and powers as ``np.power`` calls."""
    # Python's tokenizer takes spaces, tabs and form feeds between tokens;
    # any other whitespace (str.isspace) separates tokens just the same.
    source = " ".join(text.replace("^", "**").split())
    try:
        tree = ast.parse(source, mode="eval")
    except (SyntaxError, ValueError, RecursionError, MemoryError) as exc:
        # ValueError is a null byte.  CPython reports input nested too deeply
        # for its parser as RecursionError or, past the parser's own stack,
        # as MemoryError.
        reason = exc.msg if isinstance(exc, SyntaxError) else str(exc) or "nested too deeply"
        raise ExpressionError(f"cannot parse {_quote(text)}: {reason}") from None
    nodes = list(ast.walk(tree))  # breadth-first: parents before children
    callees = set()
    for node in nodes:
        bad = None
        if isinstance(node, ast.Constant):
            if not _is_number(node):
                bad = "is not a real number"
            else:
                try:
                    node.value = float(node.value)
                except OverflowError:  # an integer literal past 1.8e308
                    node.value = math.inf
        elif isinstance(node, ast.Name):
            if node.id != "x" and node not in callees:
                bad = "is not the variable x"
        elif isinstance(node, ast.UnaryOp):
            if not isinstance(node.op, ast.USub):
                bad = "uses a unary operator other than -"
        elif isinstance(node, ast.BinOp):
            if not isinstance(node.op, _OPERATORS):
                bad = "uses an operator other than +, -, * and **"
            elif isinstance(node.op, ast.Pow):
                exponent = node.right
                if isinstance(exponent, ast.UnaryOp) and isinstance(exponent.op, ast.USub):
                    exponent = exponent.operand
                if not _is_number(exponent):
                    bad = "needs a numeric literal exponent"
        elif isinstance(node, ast.Call):
            if not (
                isinstance(node.func, ast.Name) and node.func.id in _FUNCS
                and len(node.args) == 1 and not node.keywords
            ):
                bad = "is not sin, cos or exp of one argument"
            callees.add(node.func)
        elif not isinstance(node, _PASS_THROUGH):
            bad = "is outside the coefficient grammar"
        if bad:
            raise ExpressionError(f"{_quote(ast.get_source_segment(source, node))} {bad}")
    for node in reversed(nodes):  # a power's operands are rewritten before it
        for name, value in ast.iter_fields(node):
            if isinstance(value, list):
                setattr(node, name, [_as_pow_call(v) for v in value])
            else:
                setattr(node, name, _as_pow_call(value))
    try:
        return compile(tree, "<coefficient>", "eval")
    except RecursionError:
        raise ExpressionError(f"{_quote(text)} is nested too deeply") from None


@dataclass(frozen=True)
class CoeffExpr:
    """A parsed coefficient c(x).  Equality and hashing use the source text."""

    text: str

    def __post_init__(self):
        object.__setattr__(self, "_code", _compile(self.text))

    def __call__(self, x):
        # Overflow or an invalid operation yields inf or nan, which the
        # callers' finiteness checks report; numpy's warnings would only
        # repeat that on stderr.
        with np.errstate(all="ignore"):
            out = eval(self._code, _GLOBALS, {"x": np.asarray(x, dtype=float)})
        return np.broadcast_to(np.asarray(out, dtype=float), np.shape(x)).copy() \
            if np.ndim(out) == 0 and np.ndim(x) > 0 else out


def parse_coeff(text: str) -> CoeffExpr:
    expr = CoeffExpr(text.strip())
    value = expr(0.0)
    if not math.isfinite(float(np.asarray(value))):
        raise ExpressionError(f"{_quote(text)} does not evaluate to a finite value")
    return expr
