"""Property tests for the coefficient grammar: generated expression trees,
rendered to text, evaluate exactly like the tree itself, and no text over
the grammar's alphabet gets past parsing with anything but
``ExpressionError`` or a coefficient that is finite at 0."""

import operator

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from symrec.expressions import CoeffExpr, ExpressionError, parse_coeff  # noqa: E402

X = np.linspace(-3.0, 3.0, 13)
FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
BINOPS = {"+": operator.add, "-": operator.sub, "*": operator.mul}
# binding strength of each node: a child binding more loosely than its
# parent needs parentheses
LEVEL = {"+": 1, "-": 1, "*": 2, "neg": 3, "pow": 4, "num": 5, "x": 5, "call": 5}

_literals = st.one_of(
    st.integers(0, 1000).map(str),
    st.floats(0.0, 1e3).map(repr),
    st.sampled_from([".5", "1.", "2e3", "1E-2", "1e+2", "0.0"]),
)
_trees = st.recursive(
    st.one_of(st.just(("x",)), _literals.map(lambda t: ("num", t))),
    lambda sub: st.one_of(
        st.tuples(st.sampled_from(["+", "-", "*"]), sub, sub),
        st.tuples(st.just("neg"), sub),
        st.tuples(
            st.just("pow"), sub,
            st.tuples(st.booleans(), st.sampled_from(["0", "1", "2", "3", "0.5", "1.5", "2e0"])),
        ),
        st.tuples(st.just("call"), st.sampled_from(sorted(FUNCS)), sub),
    ),
    max_leaves=10,
)


def direct(node, x):
    """The tree evaluated with numpy, one operation per node, in tree order."""
    op = node[0]
    if op == "num":
        return float(node[1])
    if op == "x":
        return x
    if op == "neg":
        return -direct(node[1], x)
    if op == "pow":
        negative, literal = node[2]
        return np.power(direct(node[1], x), -float(literal) if negative else float(literal))
    if op == "call":
        return FUNCS[node[1]](direct(node[2], x))
    return BINOPS[op](direct(node[1], x), direct(node[2], x))


def render(node, draw) -> str:
    """Text for the tree with parentheses only where the grammar needs them
    (and now and then where it does not), random spacing, and ** or ^."""

    def sp():
        return draw(st.sampled_from(["", "", " ", "  ", "\t"]))

    def child(sub, needs_parens):
        text = render(sub, draw)
        if needs_parens or draw(st.integers(0, 5)) == 0:
            return f"({sp()}{text}{sp()})"
        return text

    op = node[0]
    if op == "num":
        return node[1]
    if op == "x":
        return "x"
    if op == "neg":
        return f"-{sp()}{child(node[1], LEVEL[node[1][0]] <= 2)}"
    if op == "pow":
        negative, literal = node[2]
        exponent = f"-{sp()}{literal}" if negative else literal
        power = draw(st.sampled_from(["**", "^"]))
        return f"{child(node[1], LEVEL[node[1][0]] < 5)}{sp()}{power}{sp()}{exponent}"
    if op == "call":
        return f"{node[1]}{sp()}({sp()}{render(node[2], draw)}{sp()})"
    left = child(node[1], LEVEL[node[1][0]] < LEVEL[op])
    right = child(node[2], LEVEL[node[2][0]] <= LEVEL[op])
    return f"{left}{sp()}{op}{sp()}{right}"


@settings(max_examples=300, deadline=None)
@given(tree=_trees, data=st.data())
def test_rendered_tree_evaluates_like_the_tree(tree, data):
    text = render(tree, data.draw)
    expr = CoeffExpr(text)
    with np.errstate(all="ignore"):
        expected = np.broadcast_to(direct(tree, X), X.shape)
        scalar = direct(tree, np.asarray(0.0))
    assert np.array_equal(expr(X), expected, equal_nan=True), text
    assert np.array_equal(expr(0.0), scalar, equal_nan=True), text


_pieces = st.sampled_from(
    ["x", "0", "1", "2.5", ".", "e", "e-", "+", "-", "*", "**", "^", "(", ")",
     "sin", "cos", "exp", " ", "\xa0", "\n", "\x00", "1e400", "_", ","]
)


@settings(max_examples=500, deadline=None)
@given(text=st.lists(_pieces, max_size=8).map("".join))
def test_arbitrary_text_is_rejected_or_finite_at_zero(text):
    try:
        expr = parse_coeff(text)
    except ExpressionError:
        return
    assert np.isfinite(expr(0.0))
    assert expr(X).shape == X.shape
