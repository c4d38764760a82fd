import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradflow1d import exprlang
from gradflow1d.exprlang import (
    BinOp,
    Call,
    ExprError,
    ExprSyntaxError,
    Neg,
    NonFiniteResultError,
    Num,
    UnknownIdentifierError,
    Var,
    evaluate,
    parse,
    sample,
    to_source,
)


def test_parse_eval_gaussian_amplitude():
    e = parse("0.5*exp(-x^2)")
    assert evaluate(e, 0.0) == 0.5


def test_parse_eval_square():
    assert evaluate(parse("x^2"), 3.0) == 9.0


def test_unbalanced_paren_offset():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("exp(")
    assert exc.value.offset == 4


def test_trailing_garbage_offset():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("1+2 )")
    assert exc.value.offset == 4


def test_empty_source_rejected():
    with pytest.raises(ExprSyntaxError):
        parse("")
    with pytest.raises(ExprSyntaxError):
        parse("   ")


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifierError) as exc:
        parse("2*log(x)")
    assert exc.value.name == "log"
    assert exc.value.offset == 2


def test_sin_at_zero():
    assert evaluate(parse("sin(x)"), 0.0) == 0.0


def test_division_by_zero_reported():
    e = parse("1/x")
    with pytest.raises(NonFiniteResultError) as exc:
        evaluate(e, 0.0)
    assert exc.value.source == "1.0/x"
    assert exc.value.x == 0.0


def test_overflow_reported_with_subexpression():
    e = parse("exp(x)+1")
    with pytest.raises(NonFiniteResultError) as exc:
        evaluate(e, 1e6)
    assert exc.value.source == "exp(x)"


def test_negative_sqrt_reported():
    with pytest.raises(NonFiniteResultError):
        evaluate(parse("sqrt(x)"), -1.0)


def test_tanh_saturation():
    # independent evaluator: numpy tanh
    e = parse("tanh(x)")
    assert abs(evaluate(e, 20.0) - 1.0) <= 1e-12
    assert evaluate(e, 20.0) == pytest.approx(float(np.tanh(20.0)), abs=1e-15)


def test_precedence():
    # ^ above unary minus: -x^2 == -(x^2)
    assert evaluate(parse("-x^2"), 3.0) == -9.0
    # right-associative power
    assert evaluate(parse("2^3^2"), 0.0) == 512.0
    # unary minus above */
    assert evaluate(parse("-2*3"), 0.0) == -6.0
    assert evaluate(parse("2^-1"), 0.0) == 0.5
    assert evaluate(parse("1-2-3"), 0.0) == -4.0
    assert evaluate(parse("8/4/2"), 0.0) == 1.0


def test_eval_deterministic():
    e = parse("exp(-0.3*x^2)+sin(x)*cos(x)")
    xs = np.linspace(-7, 7, 101)
    a = sample(e, xs)
    b = sample(e, xs)
    assert np.array_equal(a, b)


CORPUS = [
    "0.5*exp(-x^2)",
    "x^2",
    "1",
    "0",
    "tanh(-x)",
    "0.5*(1+tanh(-x))",
    "sin(0.6283185307179586*x)",
    "-x^3+x",
    "abs(x)/2",
    "sqrt(x^2+1)",
    "2^-x",
    "--x",
    "x^-2",
    "1-(2-3)",
    "cos(x)^2",
]


@pytest.mark.parametrize("src", CORPUS)
def test_roundtrip_corpus(src):
    tree = parse(src)
    printed = to_source(tree)
    assert parse(printed) == tree
    # printing is canonical: a second round trip is a fixed point
    assert to_source(parse(printed)) == printed


# Parser-producible trees: literals are finite and non-negative (a leading
# minus always parses into a Neg node).  Large literals reach overflow and
# domain errors.
_LITERALS = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 710.0, 1e308]),
                      st.floats(0.0, 10.0).map(abs))
TREES = st.recursive(
    st.one_of(st.just(Var()), st.builds(Num, _LITERALS)),
    lambda sub: st.one_of(
        st.builds(BinOp, st.sampled_from(["+", "-", "*", "/", "^"]), sub, sub),
        st.builds(Neg, sub),
        st.builds(Call, st.sampled_from(sorted(exprlang.FUNCTIONS)), sub)),
    max_leaves=12)
POINTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 710.0, -710.0, 1e308, -1e308, 5e-324]),
    st.floats(-1e3, 1e3))


@settings(max_examples=300, deadline=None)
@given(TREES)
def test_roundtrip_random_trees(tree):
    assert parse(to_source(tree)) == tree


def _outcome(f, xs):
    """The array's dtype and bytes, or the error's type, source and x."""
    try:
        a = f(xs)
    except Exception as err:
        return type(err), getattr(err, "source", None), getattr(err, "x", None)
    return a.dtype, a.tobytes()


def _walk(tree):
    return lambda xs: np.array([evaluate(tree, x) for x in xs])


# `sample` walks the tree once over the whole array; these tests hold it to
# the per-point walk `evaluate`.  500 trees in a tier-1 run; a profile that
# asks for more than hypothesis's default of 100 examples (ci-deep in
# tests/conftest.py) gets ten times its count
_EXAMPLES = (10 * settings.default.max_examples
             if settings.default.max_examples > 100 else 500)


@settings(max_examples=_EXAMPLES, deadline=None)
@given(TREES, st.lists(POINTS, min_size=1, max_size=8))
def test_compiled_matches_tree_walk(tree, xs):
    assert _outcome(lambda xs: sample(tree, xs), xs) == _outcome(_walk(tree), xs)


# points on either side of each failing x where the expression is finite;
# 2+1/(x-x) has none
_NEIGHBOURS = {"exp(x)+1": (0.0, 1.0), "x^x": (2.0, 0.5),
               "x*1e308*10": (0.0, 0.125), "tanh(x*1e308*10)": (0.0, 0.125),
               "1/x": (1.0, -2.0), "2+1/(x-x)": (-1.0, 2.0), "2+1/(x-3)": (2.0, 4.0),
               "sqrt(x)": (4.0, 0.0), "x^0.5": (4.0, 1.0), "cos(x)": (0.0, 1.0)}


@pytest.mark.parametrize("src, x", [
    ("exp(x)+1", 1e6),           # overflow in a function
    ("x^x", 1e3),                # overflow in pow
    ("x*1e308*10", 1.0),         # a non-finite product raises nothing itself
    ("tanh(x*1e308*10)", 1.0),   # nor does a finite value computed from it
    ("1/x", 0.0),                # division by zero
    ("2+1/(x-x)", 3.0),          # fails at every x: the first point decides
    ("2+1/(x-3)", 3.0),
    ("sqrt(x)", -1.0),           # domain errors
    ("x^0.5", -2.0),
    ("cos(x)", math.inf),
])
def test_compiled_raises_like_tree_walk(src, x):
    tree = parse(src)
    lo, hi = _NEIGHBOURS[src]
    for xs in ([x], [lo, x, hi]):
        with pytest.raises(NonFiniteResultError) as want:
            _walk(tree)(xs)
        with pytest.raises(NonFiniteResultError) as got:
            sample(tree, xs)
        assert (got.value.source, got.value.x) == (want.value.source, want.value.x)
    assert got.value.x == (lo if src == "2+1/(x-x)" else x)


def test_sample_raises_at_first_failing_point():
    # the array walk meets sqrt's domain error at -4 first; evaluate, point
    # by point, meets the division by zero at 1
    with pytest.raises(NonFiniteResultError) as exc:
        sample(parse("sqrt(x)+1/(x-1)"), [1.0, -4.0])
    assert (exc.value.source, exc.value.x) == ("1.0/(x-1.0)", 1.0)


def test_compiled_hand_built_literals():
    # inf, nan, -0.0 and int literals keep their values, and an int literal
    # alone keeps its type, as in evaluate
    trees = [BinOp("+", Var(), Num(0.0)), BinOp("+", Var(), Num(-0.0)),
             BinOp("*", Var(), Num(math.inf)), BinOp("-", Var(), Num(math.nan)),
             BinOp("/", Num(1), Var()), BinOp("/", Num(1.0), Var()),
             Neg(Num(-0.0)), Num(math.inf), BinOp("/", Num(1.0), Num(0.0)),
             Num(1), Neg(Num(2)),
             # abs(inf) raises nothing and tanh hides it: only a check on
             # the Call node sees it
             BinOp("+", Var(), Call("tanh", Call("abs", Num(math.inf))))]
    for tree in trees:
        for xs in ([-0.0], [0.0], [2.0], [-0.0, 0.0, 2.0], [2.0, -0.0]):
            assert _outcome(lambda xs: sample(tree, xs), xs) == _outcome(_walk(tree), xs)


_UNKNOWN_NODES = [
    BinOp("%", Var(), Num(1.0)),
    BinOp("+", Num(1.0), BinOp("**", Var(), Num(2.0))),
    Call("__import__", Var()),
    Call("eval", Num(1.0)),
    BinOp("%", Num(2.0), Num(3.0)),
    Call("log", Var()),
]


@pytest.mark.parametrize("tree", _UNKNOWN_NODES)
def test_compile_rejects_unknown_operators_and_functions(tree):
    with pytest.raises(ExprError) as exc:
        sample(tree, [0.5, 1.0])
    assert not isinstance(exc.value, NonFiniteResultError)


@pytest.mark.parametrize("tree", _UNKNOWN_NODES)
def test_evaluate_rejects_unknown_operators_and_functions(tree):
    # the walk used to take any operator for "^" (2 % 3 gave 8.0) and raised
    # KeyError for an unknown function
    with pytest.raises(ExprError) as exc:
        evaluate(tree, 1.0)
    assert not isinstance(exc.value, NonFiniteResultError)


def test_shipped_expressions_finite_on_grid():
    xs = np.linspace(-5, 5, 257)
    for src in CORPUS:
        if src == "x^-2":  # singular at the x=0 node
            continue
        vals = sample(parse(src), xs)
        assert np.all(np.isfinite(vals))


def test_nonfinite_literal_rejected():
    with pytest.raises(ExprSyntaxError):
        parse("1e999")
