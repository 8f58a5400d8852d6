"""The tree-walking evaluator that ``abms.expr`` compiled closures replaced,
kept as a test oracle: each closure must give what this walk gives, the
same value of the same type or the same EvalError message.

It walks the expression tree on every call, exactly as the engine once did.
"""

from __future__ import annotations

import math

from abms.errors import EvalError
from abms.expr import (
    BOOL_OPS, COMPARE_OPS, _OPERATORS, Aggregate, AttrRef, Binary, Context, Expr, Literal, StateTest, Unary,
)


def evaluate(expr: Expr, ctx: Context):
    """Evaluate ``expr`` against ``ctx``; raises EvalError on any failure."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, AttrRef):
        return ctx.attribute(expr.owner, expr.name)
    if isinstance(expr, StateTest):
        return ctx.machine_state(expr.machine) == expr.state
    if isinstance(expr, Aggregate):
        return _evaluate_aggregate(expr, ctx)
    if isinstance(expr, Unary):
        v = evaluate(expr.operand, ctx)
        if expr.op == "-":
            return -_as_number(v)
        return not _as_bool(v)
    if isinstance(expr, Binary):
        return _evaluate_binary(expr, ctx)
    raise EvalError(f"unknown expression node {type(expr).__name__}")


def _evaluate_aggregate(expr: Aggregate, ctx: Context):
    total: float | int = 0
    count = 0
    for member in ctx.population(expr.population):
        if expr.predicate is not None and not _as_bool(evaluate(expr.predicate, member)):
            continue
        if expr.func == "count":
            count += 1
        else:
            total += _as_number(evaluate(expr.value, member))
    return count if expr.func == "count" else total


def _evaluate_binary(expr: Binary, ctx: Context):
    op = expr.op
    if op in BOOL_OPS:
        left = _as_bool(evaluate(expr.left, ctx))
        if op == "and":
            return left and _as_bool(evaluate(expr.right, ctx))
        return left or _as_bool(evaluate(expr.right, ctx))
    left = evaluate(expr.left, ctx)
    right = evaluate(expr.right, ctx)
    if op in COMPARE_OPS:
        for operand in (left, right):
            if isinstance(operand, (int, float)) and not _finite(operand):
                raise EvalError(f"'{op}' operand {operand} is not finite")
        if op in ("==", "!="):  # any two values compare for equality
            return _OPERATORS[op](left, right)
    ln, rn = _as_number(left), _as_number(right)
    if op not in _OPERATORS:
        raise EvalError(f"unknown operator '{op}'")
    if op == "/" and rn == 0:
        raise EvalError("division by zero")
    try:  # an integer beyond the float range meets a float, or is divided
        return _OPERATORS[op](ln, rn)
    except OverflowError as err:
        raise EvalError(f"'{op}' overflows: {err}") from None


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


def evaluate_number(
    expr: Expr, ctx: Context, low: float | None = None, high: float | None = None, name: str = "value"
) -> float | int:
    """Evaluate ``expr`` to a finite number, within [low, high] when bounds
    are given; anything else (bool, text, NaN, inf) raises EvalError.  An
    integer comes back as an integer."""
    value = _as_number(evaluate(expr, ctx))
    if _finite(value) and (low is None or low <= value) and (high is None or value <= high):
        return value
    if low is None and high is None:
        message = f"{name} {value} is not finite"
    else:
        lower = "(-inf" if low is None else f"[{low}"
        upper = "inf)" if high is None else f"{high}]"
        message = f"{name} {value} outside {lower}, {upper}"
    raise EvalError(message)


def evaluate_condition(expr: Expr, ctx: Context) -> bool:
    """Evaluate ``expr`` to a boolean; anything else raises EvalError."""
    return _as_bool(evaluate(expr, ctx))
