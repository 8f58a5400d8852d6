import pytest

from abms import expr as ex
from abms.errors import EvalError, ExprTypeError

from contexts import MapContext


def ctx(**attrs):
    return MapContext(attrs=attrs)


class TestEvaluate:
    def test_literals(self):
        assert ex.evaluate(ex.lit(3), ctx()) == 3
        assert ex.evaluate(ex.lit(2.5), ctx()) == 2.5
        assert ex.evaluate(ex.lit(True), ctx()) is True
        assert ex.evaluate(ex.lit("hi"), ctx()) == "hi"

    def test_arithmetic(self):
        e = ex.Binary("+", ex.lit(2), ex.Binary("*", ex.lit(3), ex.lit(4)))
        assert ex.evaluate(e, ctx()) == 14
        assert ex.evaluate(ex.Binary("/", ex.lit(7), ex.lit(2)), ctx()) == 3.5
        assert ex.evaluate(ex.Unary("-", ex.lit(5)), ctx()) == -5

    def test_division_by_zero(self):
        with pytest.raises(EvalError):
            ex.evaluate(ex.Binary("/", ex.lit(1), ex.lit(0)), ctx())

    @pytest.mark.parametrize(
        "op, left, right, expected",
        [
            ("==", 2, 2.0, True), ("!=", "a", "a", False), ("==", True, "x", False),
            ("<", 1, 2, True), ("<=", 2, 2, True), (">", 1, 2.5, False), (">=", 3, 2, True),
            ("+", 2, 3, 5), ("-", 2, 3.5, -1.5), ("*", 4, 3, 12), ("/", 7, 2, 3.5),
        ],
    )
    def test_each_binary_operator(self, op, left, right, expected):
        got = ex.evaluate(ex.Binary(op, ex.lit(left), ex.lit(right)), ctx())
        assert got == expected and type(got) is type(expected)

    @pytest.mark.parametrize(
        "op, left, right, message",
        [
            ("/", 1, 0.0, "division by zero"),
            ("%", 1, 2, "unknown operator '%'"),
            ("%", "a", 2, "expected a number, got str"),  # operands are checked before the operator
            ("<", True, 2, "expected a number, got bool"),
            ("==", 10**400, 1, f"'==' operand {10**400} is not finite"),
            ("*", 10**400, 1.5, "'*' overflows: int too large to convert to float"),
        ],
    )
    def test_binary_errors_carry_their_site(self, op, left, right, message):
        tree = ex.Binary(op, ex.lit(left), ex.lit(right))
        for site in (ex.compile_number(tree), ex.compile_condition(tree)):
            with pytest.raises(EvalError) as err:
                site(ctx())
            assert err.value.message == message and err.value.site is tree

    def test_comparisons_and_bool(self):
        assert ex.evaluate(ex.Binary("<", ex.lit(1), ex.lit(2)), ctx()) is True
        assert ex.evaluate(ex.Binary("==", ex.lit("a"), ex.lit("b")), ctx()) is False
        e = ex.Binary("and", ex.lit(True), ex.Unary("not", ex.lit(False)))
        assert ex.evaluate(e, ctx()) is True

    def test_short_circuit(self):
        # right side would divide by zero if evaluated
        bad = ex.Binary("==", ex.Binary("/", ex.lit(1), ex.lit(0)), ex.lit(1))
        e = ex.Binary("and", ex.lit(False), bad)
        assert ex.evaluate(e, ctx()) is False

    def test_attribute_lookup(self):
        assert ex.evaluate(ex.AttrRef(None, "age"), ctx(age=7)) == 7
        with pytest.raises(EvalError):
            ex.evaluate(ex.AttrRef(None, "missing"), ctx())

    def test_state_test(self):
        c = MapContext(states={"measles": "I"})
        assert ex.evaluate(ex.StateTest("measles", "I"), c) is True
        assert ex.evaluate(ex.StateTest("measles", "R"), c) is False

    def test_aggregates(self):
        members = [ctx(age=2), ctx(age=5), ctx(age=9)]
        world = MapContext(populations={"Native": members})
        count = ex.Aggregate("count", "Native", ex.Binary(">", ex.AttrRef(None, "age"), ex.lit(3)), None)
        assert ex.evaluate(count, world) == 2
        total = ex.Aggregate("sum", "Native", None, ex.AttrRef(None, "age"))
        assert ex.evaluate(total, world) == 16

    def test_non_boolean_condition_rejected(self):
        with pytest.raises(EvalError):
            ex.evaluate(ex.Unary("not", ex.lit(3)), ctx())


class TestCompileNumber:
    def test_numbers_come_back_unchanged(self):
        assert ex.compile_number(ex.lit(3))(ctx()) == 3
        assert type(ex.compile_number(ex.lit(3))(ctx())) is int
        assert ex.compile_number(ex.lit(0.25), 0, 1, "rate")(ctx()) == 0.25
        assert ex.compile_number(ex.lit(0), 0, None, "duration")(ctx()) == 0

    @pytest.mark.parametrize(
        "value,bounds,message",
        [
            (True, (None, None, "value"), "expected a number, got bool"),
            ("x", (None, None, "value"), "expected a number, got str"),
            (float("inf"), (None, None, "value"), "value inf is not finite"),
            (float("nan"), (None, None, "value"), "value nan is not finite"),
            (10**400, (None, None, "value"), "is not finite"),
            (1.5, (0, 1, "rate"), r"rate 1\.5 outside \[0, 1\]"),
            (float("nan"), (0, 1, "rate"), r"rate nan outside \[0, 1\]"),
            (-1, (0, None, "duration"), r"duration -1 outside \[0, inf\)"),
            (float("inf"), (0, None, "duration"), r"duration inf outside \[0, inf\)"),
        ],
    )
    def test_rejects(self, value, bounds, message):
        with pytest.raises(EvalError, match=message):
            ex.compile_number(ex.AttrRef(None, "v"), *bounds)(ctx(v=value))


class TestInferType:
    def env(self, **kw):
        base = dict(
            attributes={"age": ex.INTEGER, "weight": ex.REAL, "name": ex.TEXT},
            machines={"measles": frozenset({"S", "I", "R"})},
            populations={},
            builtins={"tick": ex.INTEGER},
        )
        base.update(kw)
        return ex.TypeEnv(**base)

    def test_promotion(self):
        env = self.env()
        assert ex.infer_type(ex.Binary("+", ex.lit(1), ex.lit(2)), env) == ex.INTEGER
        assert ex.infer_type(ex.Binary("+", ex.lit(1), ex.lit(2.0)), env) == ex.REAL
        assert ex.infer_type(ex.Binary("/", ex.lit(4), ex.lit(2)), env) == ex.REAL

    def test_state_test_checks_states(self):
        env = self.env()
        assert ex.infer_type(ex.StateTest("measles", "I"), env) == ex.BOOLEAN
        with pytest.raises(ExprTypeError):
            ex.infer_type(ex.StateTest("measles", "Q"), env)
        with pytest.raises(ExprTypeError):
            ex.infer_type(ex.StateTest("flu", "I"), env)

    def test_aggregate_gate(self):
        member = ex.TypeEnv(attributes={"age": ex.INTEGER})
        env = self.env(populations={"Native": member}, allow_aggregates=False)
        agg = ex.Aggregate("count", "Native", None, None)
        with pytest.raises(ExprTypeError):
            ex.infer_type(agg, env)
        env = self.env(populations={"Native": member})
        assert ex.infer_type(agg, env) == ex.INTEGER

    def test_bad_operands(self):
        env = self.env()
        with pytest.raises(ExprTypeError):
            ex.infer_type(ex.Binary("+", ex.lit(1), ex.lit("x")), env)
        with pytest.raises(ExprTypeError):
            ex.infer_type(ex.Binary("and", ex.lit(1), ex.lit(True)), env)
        with pytest.raises(ExprTypeError):
            ex.infer_type(ex.Binary("<", ex.lit("a"), ex.lit("b")), env)

    @pytest.mark.parametrize(
        "expr", [ex.Unary("~", ex.lit(True)), ex.Binary("%", ex.lit(7), ex.lit(2))], ids=["unary", "binary"]
    )
    def test_unknown_operators_do_not_type(self, expr):
        """Only ``-`` and ``not`` are unary and only the arithmetic, comparison
        and boolean operators binary: no other runs as one of them."""
        with pytest.raises(ExprTypeError, match=f"^unknown operator '{expr.op}'$"):
            ex.infer_type(expr, self.env())

    def test_assignable(self):
        assert ex.assignable(ex.INTEGER, ex.REAL)
        assert not ex.assignable(ex.REAL, ex.INTEGER)
        assert ex.assignable(ex.TEXT, ex.IDENTIFIER)
        assert not ex.assignable(ex.BOOLEAN, ex.INTEGER)


def test_literal_number_handles_negation():
    assert ex.literal_number(ex.lit(3)) == 3
    assert ex.literal_number(ex.Unary("-", ex.lit(2.5))) == -2.5
    assert ex.literal_number(ex.AttrRef(None, "age")) is None
