"""Expression trees used throughout the modeling language.

Expressions appear wherever a model supplies a value: attribute defaults,
transmission probabilities and distances, trigger rates, guards, eligibility
criteria, rewards, and output series.  The tree is deliberately small:
literals, attribute references, state tests, population aggregates,
arithmetic, comparisons, and boolean connectives.

Values carry one of five kinds: integer, real, boolean, text, identifier.
``identifier`` is a symbolic flavor of text (written as a quoted string in
the concrete syntax); integers promote to reals where needed.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Mapping, Union

from .errors import EvalError, ExprTypeError

INTEGER = "integer"
REAL = "real"
BOOLEAN = "boolean"
TEXT = "text"
IDENTIFIER = "identifier"

KINDS = (INTEGER, REAL, BOOLEAN, TEXT, IDENTIFIER)
NUMERIC = (INTEGER, REAL)

COMPARE_OPS = ("==", "!=", "<", "<=", ">", ">=")
BOOL_OPS = ("and", "or")
_OPERATORS = {
    "==": operator.eq, "!=": operator.ne, "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
}

# Binding strength in the concrete syntax, loosest first; the parser and the
# formatter both read these.  ``not`` and unary minus are prefix operators at
# PREC_NOT and PREC_NEG.  A comparison or ``is`` does not chain.
PREC_OR, PREC_AND, PREC_NOT, PREC_CMP, PREC_ADD, PREC_MUL, PREC_NEG, PREC_ATOM = range(1, 9)
PRECEDENCE = {
    "or": PREC_OR,
    "and": PREC_AND,
    **dict.fromkeys(COMPARE_OPS, PREC_CMP),
    "is": PREC_CMP,
    "+": PREC_ADD,
    "-": PREC_ADD,
    "*": PREC_MUL,
    "/": PREC_MUL,
}


@dataclass
class Literal:
    value: object
    kind: str


@dataclass
class AttrRef:
    """Reference ``name`` or ``Owner.name``; also resolves builtins like ``tick``."""

    owner: str | None
    name: str


@dataclass
class StateTest:
    """``<machine> is <state>`` — true when the named disease or state machine
    of the context agent currently sits in the given state."""

    machine: str
    state: str


@dataclass
class Aggregate:
    """``count(Type [where p])`` or ``sum(Type [where p], value)`` over a population."""

    func: str  # "count" | "sum"
    population: str
    predicate: "Expr | None"
    value: "Expr | None"


@dataclass
class Unary:
    op: str  # "-" | "not"
    operand: "Expr"


@dataclass
class Binary:
    op: str
    left: "Expr"
    right: "Expr"


Expr = Union[Literal, AttrRef, StateTest, Aggregate, Unary, Binary]


def lit(value: object) -> Literal:
    """Literal from a plain Python value (convenience for programmatic models)."""
    if isinstance(value, bool):
        return Literal(value, BOOLEAN)
    if isinstance(value, int):
        return Literal(value, INTEGER)
    if isinstance(value, float):
        return Literal(value, REAL)
    if isinstance(value, str):
        return Literal(value, TEXT)
    raise TypeError(f"no literal kind for {type(value).__name__}")


# ---------------------------------------------------------------------------
# Evaluation


class Context:
    """Resolution hooks for evaluation: ``attribute(owner, name)``,
    ``machine_state(name)`` and ``population(type_name)``, a list of
    member contexts.  Worlds, agents and entities implement them in the
    engine.  Each hook raises :class:`EvalError` for a name it does not know;
    a context without machines may keep this one.  ``state_count`` answers
    ``count(T where m is S)``; a context that keeps counts may override it."""

    def machine_state(self, name: str) -> str:
        raise EvalError(f"no state machine or disease named '{name}' in this context")

    def state_count(self, type_name: str, machine: str, state: str) -> int:
        """How many members of ``population(type_name)`` sit in ``state`` of
        ``machine``: one loop over the roster, no per-member dispatch."""
        return [member.machine_state(machine) for member in self.population(type_name)].count(state)


def compile(expr: Expr):
    """Compile ``expr`` into ``fn(ctx)``, which evaluates it against ``ctx``
    and raises EvalError on any failure.  Compiling evaluates nothing."""
    return _compile(expr, None)


def _compile(expr: Expr, memos: list[dict] | None):
    """:func:`compile` outside any aggregate (``memos`` None), or inside one's
    ``where`` or value, where each aggregate adds its memo to ``memos``."""
    if isinstance(expr, Literal):
        return lambda ctx, value=expr.value: value
    if isinstance(expr, AttrRef):
        return lambda ctx, owner=expr.owner, name=expr.name: ctx.attribute(owner, name)
    if isinstance(expr, StateTest):
        return lambda ctx, machine=expr.machine, state=expr.state: ctx.machine_state(machine) == state
    if isinstance(expr, Aggregate):
        return _compile_aggregate(expr, memos)
    if isinstance(expr, Unary):
        operand = _compile(expr.operand, memos)
        if expr.op == "-":
            return lambda ctx: -_as_number(operand(ctx))
        return lambda ctx: not _as_bool(operand(ctx))
    if isinstance(expr, Binary):
        return _compile_binary(expr, memos)
    raise EvalError(f"unknown expression node {type(expr).__name__}")


def _compile_aggregate(expr: Aggregate, memos: list[dict] | None):
    """An aggregate reads no member of an enclosing one, only the roster its
    population gives, so one nested in another's ``where`` or value keeps its
    value per roster: k nested aggregates over n members cost k * n member
    evaluations, not n ** k.  The outermost aggregate clears every memo
    inside it at each of its evaluations, so no value outlives one."""
    population, test = expr.population, expr.predicate
    nested = [] if memos is None else memos
    if expr.func == "count" and isinstance(test, StateTest):  # the context counts, from a tally where it keeps one
        machine, state = test.machine, test.state
        of = lambda ctx: ctx.state_count(population, machine, state)
    elif expr.func == "count" and test is None:
        of = lambda ctx: len(ctx.population(population))
    else:
        predicate = None if test is None else _compile(test, nested)
        if expr.func == "count":
            over = lambda roster: sum(1 for m in roster if _as_bool(predicate(m)))
        else:
            value = _compile(expr.value, nested)

            def over(roster):
                result: float | int = 0
                for member in roster:
                    if predicate is None or _as_bool(predicate(member)):
                        result += _as_number(value(member))
                return result
        of = lambda ctx: over(ctx.population(population))
    if memos is None:
        def outermost(ctx):
            for values in nested:
                values.clear()
            return of(ctx)
        return outermost
    memo: dict[int, tuple] = {}  # id(roster) -> (roster, value)
    memos.append(memo)

    def memoized(ctx):
        roster = ctx.population(population)
        if (hit := memo.get(id(roster))) is None:
            hit = memo[id(roster)] = (roster, of(ctx))
        return hit[1]
    return memoized


def _compile_binary(expr: Binary, memos: list[dict] | None):
    op, fn = expr.op, _OPERATORS.get(expr.op)
    left, right = _compile(expr.left, memos), _compile(expr.right, memos)
    if op in BOOL_OPS:
        if op == "and":
            return lambda ctx: _as_bool(left(ctx)) and _as_bool(right(ctx))
        return lambda ctx: _as_bool(left(ctx)) or _as_bool(right(ctx))

    def binary(ctx):
        a, b = left(ctx), right(ctx)
        if op in COMPARE_OPS:
            for operand in (a, b):
                if isinstance(operand, (int, float)) and not _finite(operand):
                    raise EvalError(f"'{op}' operand {operand} is not finite")
            if op in ("==", "!="):  # any two values compare for equality
                return fn(a, b)
        a, b = _as_number(a), _as_number(b)
        if fn is None:
            raise EvalError(f"unknown operator '{op}'")
        if op == "/" and b == 0:
            raise EvalError("division by zero")
        try:  # an integer beyond the float range meets a float, or is divided
            return fn(a, b)
        except OverflowError as err:
            raise EvalError(f"'{op}' overflows: {err}") from None
    return binary


def _as_number(v) -> float | int:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise EvalError(f"expected a number, got {type(v).__name__}")
    return v


def _finite(value: float | int) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _as_bool(v) -> bool:
    if not isinstance(v, bool):
        raise EvalError(f"expected a boolean, got {type(v).__name__}")
    return v


def _number(value, low: float | None, high: float | None, name: str) -> float | int:
    value = _as_number(value)
    if _finite(value) and (low is None or low <= value) and (high is None or value <= high):
        return value
    if low is None and high is None:
        raise EvalError(f"{name} {value} is not finite")
    lower = "(-inf" if low is None else f"[{low}"
    upper = "inf)" if high is None else f"{high}]"
    raise EvalError(f"{name} {value} outside {lower}, {upper}")


def compile_number(expr: Expr, low: float | None = None, high: float | None = None, name: str = "value"):
    """Compile ``expr`` into ``fn(ctx)``, which yields a finite number, within
    [low, high] when bounds are given; anything else (bool, text, NaN, inf)
    raises EvalError, tagged with ``expr`` as its site.  An integer comes back
    as an integer.  A literal that passes is checked here, once, and becomes a
    constant."""
    if isinstance(expr, Literal):
        try:
            return lambda ctx, value=_number(expr.value, low, high, name): value
        except EvalError:
            pass  # it fails on each use, as any other value would
    fn = compile(expr)

    def number(ctx):
        try:
            return _number(fn(ctx), low, high, name)
        except EvalError as err:
            raise EvalError(err.message, expr) from None
    return number


def compile_condition(expr: Expr):
    """Compile ``expr`` into ``fn(ctx)``, which yields a boolean; anything
    else raises EvalError, tagged with ``expr`` as its site."""
    fn = compile(expr)

    def condition(ctx):
        try:
            return _as_bool(fn(ctx))
        except EvalError as err:
            raise EvalError(err.message, expr) from None
    return condition


def evaluate(expr: Expr, ctx: Context):
    """Compile ``expr`` and evaluate it once."""
    return compile(expr)(ctx)


# ---------------------------------------------------------------------------
# Static typing


@dataclass
class TypeEnv:
    """What names mean at one evaluation site.

    attributes     bare-name kinds (declared attributes of the context type)
    owner          type name the context belongs to (None for world contexts)
    machines       disease/machine name -> set of state names valid here
    populations    aggregate target type -> member TypeEnv
    builtins       extra read-only numerics (tick, stopped, ...)
    allow_aggregates  False in per-element defaults and value sources
    """

    attributes: Mapping[str, str] = field(default_factory=dict)
    owner: str | None = None
    machines: Mapping[str, frozenset] = field(default_factory=dict)
    populations: Mapping[str, "TypeEnv"] = field(default_factory=dict)
    builtins: Mapping[str, str] = field(default_factory=dict)
    allow_aggregates: bool = True


def infer_type(expr: Expr, env: TypeEnv) -> str:
    """Return the kind of ``expr`` under ``env`` or raise ExprTypeError."""
    if isinstance(expr, Literal):
        return expr.kind
    if isinstance(expr, AttrRef):
        if expr.owner is not None and expr.owner != env.owner:
            raise ExprTypeError(f"'{expr.owner}.{expr.name}' does not resolve in this context")
        if expr.name in env.attributes:
            return env.attributes[expr.name]
        if expr.owner is None and expr.name in env.builtins:
            return env.builtins[expr.name]
        raise ExprTypeError(f"unknown attribute '{expr.name}'")
    if isinstance(expr, StateTest):
        states = env.machines.get(expr.machine)
        if states is None:
            raise ExprTypeError(f"no state machine or disease named '{expr.machine}' in this context")
        if expr.state not in states:
            raise ExprTypeError(f"'{expr.state}' is not a state of '{expr.machine}'")
        return BOOLEAN
    if isinstance(expr, Aggregate):
        if not env.allow_aggregates:
            raise ExprTypeError("aggregates are not allowed in this context")
        member = env.populations.get(expr.population)
        if member is None:
            raise ExprTypeError(f"unknown population '{expr.population}'")
        if expr.predicate is not None and infer_type(expr.predicate, member) != BOOLEAN:
            raise ExprTypeError("aggregate filter must be boolean")
        if expr.func == "count":
            return INTEGER
        vkind = infer_type(expr.value, member)
        if vkind not in NUMERIC:
            raise ExprTypeError("sum requires a numeric value expression")
        return vkind
    if isinstance(expr, Unary):
        inner = infer_type(expr.operand, env)
        if expr.op == "-":
            if inner not in NUMERIC:
                raise ExprTypeError("unary '-' requires a number")
            return inner
        if expr.op != "not":
            raise ExprTypeError(f"unknown operator '{expr.op}'")
        if inner != BOOLEAN:
            raise ExprTypeError("'not' requires a boolean")
        return BOOLEAN
    if isinstance(expr, Binary):
        return _infer_binary(expr, env)
    raise ExprTypeError(f"unknown expression node {type(expr).__name__}")


def _infer_binary(expr: Binary, env: TypeEnv) -> str:
    lk = infer_type(expr.left, env)
    rk = infer_type(expr.right, env)
    op = expr.op
    if op in BOOL_OPS:
        if lk != BOOLEAN or rk != BOOLEAN:
            raise ExprTypeError(f"'{op}' requires boolean operands")
        return BOOLEAN
    if op in ("==", "!="):
        if not _comparable(lk, rk):
            raise ExprTypeError(f"cannot compare {lk} with {rk}")
        return BOOLEAN
    if op in ("<", "<=", ">", ">="):
        if lk not in NUMERIC or rk not in NUMERIC:
            raise ExprTypeError(f"'{op}' requires numeric operands")
        return BOOLEAN
    if op not in _OPERATORS:
        raise ExprTypeError(f"unknown operator '{op}'")
    if lk not in NUMERIC or rk not in NUMERIC:
        raise ExprTypeError(f"'{op}' requires numeric operands")
    if op == "/":
        return REAL
    return REAL if REAL in (lk, rk) else INTEGER


def _comparable(lk: str, rk: str) -> bool:
    if lk in NUMERIC and rk in NUMERIC:
        return True
    text_like = (TEXT, IDENTIFIER)
    if lk in text_like and rk in text_like:
        return True
    return lk == rk


def assignable(value_kind: str, target_kind: str) -> bool:
    """May a value of ``value_kind`` initialize an attribute of ``target_kind``?"""
    if value_kind == target_kind:
        return True
    if target_kind == REAL and value_kind == INTEGER:
        return True
    if target_kind == IDENTIFIER and value_kind == TEXT:
        return True
    return False


def literal_number(expr: Expr) -> float | None:
    """The numeric value of a (possibly negated) literal, else None."""
    if isinstance(expr, Literal) and expr.kind in NUMERIC:
        return expr.value  # type: ignore[return-value]
    if isinstance(expr, Unary) and expr.op == "-":
        inner = literal_number(expr.operand)
        return None if inner is None else -inner
    return None
