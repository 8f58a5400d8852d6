"""Compiled expressions against the tree walk they replaced (``tree_walk.py``),
and the engine's promise that a run compiles its expressions once, when the
world is built."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abms import engine
from abms import expr as ex
from abms.errors import EvalError

import tree_walk
from contexts import MapContext
from digest_corpus import PINNED, SEED, corpus
from validate_corpus import expression_trees

CORPUS = corpus()
BOUNDS = [(None, None, "value"), (0, 1, "rate"), (0, None, "duration")]
HUGE = 10**400  # an integer beyond the float range


def outcome(fn, ctx):
    """What ``fn(ctx)`` gives: a value with its type, an EvalError's message,
    or any other arithmetic failure."""
    try:
        value = fn(ctx)
    except EvalError as err:
        return ("error", err.message)
    except ArithmeticError as err:
        return ("raised", type(err).__name__, str(err))
    return ("value", type(value), repr(value))


def assert_agrees(tree, ctx):
    """Each compiled form of ``tree`` gives in ``ctx`` what the walk gives."""
    assert outcome(ex.compile(tree), ctx) == outcome(lambda c: tree_walk.evaluate(tree, c), ctx)
    for low, high, name in BOUNDS:
        compiled = ex.compile_number(tree, low, high, name)
        assert outcome(compiled, ctx) == outcome(lambda c: tree_walk.evaluate_number(tree, c, low, high, name), ctx)
    assert outcome(ex.compile_condition(tree), ctx) == outcome(lambda c: tree_walk.evaluate_condition(tree, c), ctx)


def member(i: int, complete: bool = True, populations=None) -> MapContext:
    attrs = {"a": i, "b": i / 2, "t": i % 2 == 0, "s": "x", "f": float("nan") if i == 3 else 1.5, "h": i}
    if not complete:
        return MapContext(attrs={"a": i}, owner="P")
    return MapContext(attrs=attrs, states={"m": "SI"[i % 2]}, populations=populations, owner="P")


# Population Q ends in a member without most attributes and without m.
POPULATIONS = {"P": [member(i) for i in range(4)], "Q": [member(0), member(1, complete=False)]}
WORLD = MapContext(
    attrs={"a": 3, "b": 2.5, "t": True, "s": "x", "f": float("inf"), "h": HUGE},
    states={"m": "I"},
    populations=POPULATIONS,
)
CONTEXTS = [WORLD, member(1, populations=POPULATIONS), member(3, populations=POPULATIONS)]

literals = st.one_of(
    st.integers(-4, 4),
    st.sampled_from([HUGE, -HUGE]),
    st.floats(-3, 3),
    st.sampled_from([0.0, -0.0, 1e308, float("inf"), float("-inf"), float("nan")]),
    st.booleans(),
    st.sampled_from(["x", "y"]),
).map(ex.lit)
leaves = st.one_of(
    literals,
    st.builds(
        ex.AttrRef, st.sampled_from([None] * 5 + ["P"]), st.sampled_from(["a", "a", "b", "b", "t", "s", "f", "h", "nope"])
    ),
    st.builds(ex.StateTest, st.sampled_from(["m", "m", "m", "ghost"]), st.sampled_from(["S", "I"])),
)


def branches(children):
    return st.one_of(
        st.builds(ex.Unary, st.sampled_from(["-", "not"]), children),
        st.builds(ex.Binary, st.sampled_from(["+", "-", "*", "/", "%", *ex.COMPARE_OPS, *ex.BOOL_OPS]), children, children),
        st.builds(
            ex.Aggregate, st.sampled_from(["count", "sum"]), st.sampled_from(["P", "P", "P", "Q", "Z"]),
            st.none() | children, children,
        ),
    )


# Mostly well-typed trees, so that values, not only type errors, are compared.
numbers = st.one_of(
    literals.filter(lambda lit: lit.kind in ex.NUMERIC),
    st.builds(ex.AttrRef, st.none(), st.sampled_from(["a", "b", "f", "h"])),
)


def numeric_branches(children):
    test = st.one_of(
        st.builds(ex.StateTest, st.just("m"), st.sampled_from(["S", "I"])),
        st.builds(ex.Binary, st.sampled_from(ex.COMPARE_OPS), children, children),
    )
    return st.one_of(
        st.builds(ex.Unary, st.just("-"), children),
        st.builds(ex.Binary, st.sampled_from(["+", "-", "*", "/"]), children, children),
        st.builds(ex.Aggregate, st.sampled_from(["count", "sum"]), st.just("P"), st.none() | test, children),
    )


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(st.recursive(leaves, branches, max_leaves=10), st.recursive(numbers, numeric_branches, max_leaves=8))
)
def test_compiled_tree_agrees_with_the_walk(tree):
    for ctx in CONTEXTS:
        assert_agrees(tree, ctx)


@pytest.mark.parametrize(
    "tree",
    [
        ex.Aggregate("count", "Q", ex.StateTest("m", "S"), None),  # the fused count meets a member without m
        ex.Aggregate("count", "Z", ex.StateTest("m", "S"), None),
        ex.Aggregate("count", "Q", None, None),  # the roster's length, members unread
        ex.Aggregate("count", "Z", None, None),
        ex.Aggregate("sum", "P", None, ex.AttrRef(None, "b")),  # an integer start, then floats
        ex.Aggregate("sum", "P", None, ex.Binary("*", ex.lit(HUGE), ex.AttrRef(None, "b"))),
        ex.Binary("/", ex.lit(HUGE), ex.lit(3)),
        ex.Binary("<", ex.AttrRef(None, "f"), ex.lit(1)),
        ex.Binary("%", ex.lit("x"), ex.lit(1)),
        ex.Unary("-", ex.lit(True)),
    ],
)
def test_edge_trees_agree_with_the_walk(tree):
    for ctx in CONTEXTS:
        assert_agrees(tree, ctx)


def test_count_without_a_predicate_reads_the_length():
    class Unwalkable(list):
        def __iter__(self):
            raise AssertionError("count(T) walked its population")

    count = ex.compile(ex.Aggregate("count", "P", None, None))
    assert count(MapContext(populations={"P": Unwalkable([member(0), member(1)])})) == 2


def test_a_literal_in_range_is_checked_once():
    class Counting(MapContext):
        reads = 0

        def attribute(self, owner, name):
            Counting.reads += 1
            return super().attribute(owner, name)

    constant = ex.compile_number(ex.lit(0.5), 0, 1, "rate")
    assert constant(None) == 0.5  # a constant reads no context at all
    outside = ex.compile_number(ex.lit(1.5), 0, 1, "rate")
    for _ in range(2):  # a literal out of range fails on each use
        with pytest.raises(EvalError, match=r"rate 1\.5 outside \[0, 1\]"):
            outside(None)
    ex.compile_number(ex.AttrRef(None, "a"))(Counting(attrs={"a": 1}))
    assert Counting.reads == 1
    # ``checked_literal`` is that one check: a literal that passes, else None.
    assert ex.checked_literal(ex.lit(0.5), 0, 1, "rate") == 0.5
    assert ex.checked_literal(ex.lit(0), 0, 1, "rate") == 0
    assert ex.checked_literal(ex.lit(1.5), 0, 1, "rate") is None
    assert ex.checked_literal(ex.AttrRef(None, "a"), 0, 1, "rate") is None


@pytest.mark.parametrize("name,model,base_dir", CORPUS, ids=[name for name, _, _ in CORPUS])
def test_corpus_expressions_agree_with_the_walk(name, model, base_dir):
    """Every expression of the model, in the world and in the first three
    instances of each type after three ticks."""
    world = engine.build_world(model, engine.RunConfig(seed=SEED, max_ticks=3, base_dir=base_dir))
    for _ in range(3):
        engine.tick(world)
    contexts = [world] + [instance for roster in world.by_type.values() for instance in roster[:3]]
    trees = list(expression_trees(model))
    assert trees
    for tree in trees:
        for ctx in contexts:
            assert_agrees(tree, ctx)


@pytest.mark.parametrize("name,model,base_dir", CORPUS, ids=[name for name, _, _ in CORPUS])
def test_ticks_compile_nothing(monkeypatch, name, model, base_dir):
    """Once the world is built, no tick compiles an expression: with every
    compiler refusing, three ticks still reach the pinned digest."""
    world = engine.build_world(model, engine.RunConfig(seed=SEED, max_ticks=3, base_dir=base_dir))

    def refuse(*args, **kwargs):
        raise AssertionError("an expression was compiled during a tick")

    for compiler in ("compile", "compile_number", "compile_condition"):
        monkeypatch.setattr(ex, compiler, refuse)
    for _ in range(3):
        engine.tick(world)
    assert world.digest() == json.loads(PINNED.read_text(encoding="utf-8"))[name][3]


def test_nested_aggregates_read_each_member_once_per_level():
    """An aggregate reads only its roster, not the member of an enclosing one,
    so k nested levels over n members read k * n attributes, not n ** k, and
    no value is kept from one evaluation to the next."""

    class Counting(MapContext):
        reads = 0

        def attribute(self, owner, name):
            Counting.reads += 1
            return super().attribute(owner, name)

    levels, size = 6, 4
    roster: list = []
    roster += [Counting(attrs={"x": i}, populations={"A": roster}) for i in range(size)]
    world = MapContext(populations={"A": roster})
    tree = None
    for _ in range(levels):
        test = ex.Binary(">", ex.AttrRef(None, "x"), ex.lit(-1))
        if tree is not None:
            test = ex.Binary("and", test, ex.Binary(">", tree, ex.lit(0)))
        tree = ex.Aggregate("count", "A", test, None)
    compiled = ex.compile(tree)
    assert compiled(world) == size and Counting.reads == levels * size
    roster[0]._attrs["x"] = -5
    assert compiled(world) == size - 1 and Counting.reads == 2 * levels * size
    assert tree_walk.evaluate(tree, world) == size - 1
