import random
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from abms import codegen, engine
from abms import expr as ex
from abms import metamodel as mm
from abms import statemachine as sm
from abms.dsl import format_model, parse, parse_model
from abms.dsl.lexer import tokenize

from netlogo_corpus import INLINE_COMPOSITE
from randmodels import random_text_model

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


class TestParse:
    def test_tutorial_measles_declaration_counts(self):
        text = (FIXTURES / "measles.abms").read_text()
        model = parse_model(text, "measles.abms")
        assert len(model.agent_types) == 2
        assert len(model.diseases) == 1
        assert len(model.outputs) == 1

    def test_empty_file(self):
        result = parse("")
        assert result.model is None
        assert any("expected 'model'" in e.message for e in result.errors)

    def test_probabilistic_duration_clause(self):
        model = parse_model(
            """
model m {
  environment grid width 3 height 3
  disease d model SIR {
    transmission contact probability 0.5
    duration I probabilistic rate 0.1
  }
}
"""
        )
        prog = model.diseases[0].progressions[0]
        assert prog.compartment == "I"
        assert isinstance(prog.trigger, sm.ProbabilisticTrigger)
        assert prog.trigger.rate == ex.lit(0.1)

    def test_multiple_errors_reported_in_one_pass(self):
        result = parse(
            """
model m {
  environment grid width 3 height 3
  agent A {
    create fixed oops random
  }
  disease d model WRONG {
  }
  output o every 0
}
"""
        )
        assert result.model is None
        assert len(result.errors) >= 3

    def test_duplicate_declaration_reported_at_parse(self):
        result = parse(
            """
model m {
  environment grid width 3 height 3
  agent A { create fixed 1 random }
  agent A { create fixed 2 random }
}
"""
        )
        assert result.model is None
        assert any("duplicate type name 'A'" in e.message for e in result.errors)

    def test_every_element_carries_span(self):
        text = (FIXTURES / "measles.abms").read_text()
        model = parse_model(text, "measles.abms")
        elements = (
            [model.environment]
            + model.agent_types
            + model.diseases
            + model.introductions
            + model.outputs
        )
        for element in elements:
            assert element.span is not None
            assert element.span.file == "measles.abms"

    def test_error_spans_point_inside_input(self):
        bad = "model m {\n  environment grid width -3 height 3\n}\n"
        result = parse(bad)
        lines = bad.split("\n")
        for error in result.errors:
            assert 1 <= error.span.start_line <= len(lines)
            assert error.span.start_col >= 1

    def test_unterminated_string_is_an_error_not_a_crash(self):
        result = parse('model m { environment graph from osm "broken }')
        assert result.model is None
        assert result.errors

    def test_state_test_requires_bare_name(self):
        result = parse(
            """
model m {
  environment grid width 3 height 3
  output o every 1 to "x.csv" {
    series s count(A where A.d is I)
  }
}
"""
        )
        assert result.model is None
        assert any("left side of 'is'" in e.message for e in result.errors)

    def test_range_lexing_keeps_integer_bounds(self):
        model = parse_model("model m {\n  environment cartesian 0..10 -5..5\n}\n")
        topo = model.environment.topology
        assert (topo.x_min, topo.x_max, topo.y_min, topo.y_max) == (0.0, 10.0, -5.0, 5.0)


class TestFormat:
    def test_fixed_point_on_fixtures(self):
        for name in ("measles.abms", "traffic.abms"):
            text = (FIXTURES / name).read_text()
            model = parse_model(text, name)
            once = format_model(model)
            assert once == format_model(parse_model(once))

    def test_round_trip_fixtures(self):
        for name in ("measles.abms", "traffic.abms"):
            text = (FIXTURES / name).read_text()
            first = parse_model(text, name)
            again = parse_model(format_model(first))
            assert again == first

    def test_attributes_emitted_in_declaration_order(self):
        model = mm.Model(name="m", environment=mm.EnvironmentSpec(mm.GridTopology(3, 3)))
        agent = mm.AgentTypeSpec("A", mm.FixedCountStrategy(1))
        agent.attributes = [
            mm.AttributeSpec("zeta", ex.INTEGER, ex.lit(1)),
            mm.AttributeSpec("omega", ex.REAL, ex.lit(0.5)),
        ]
        model.agent_types.append(agent)
        text = format_model(model)
        assert text.index("attr zeta") < text.index("attr omega")
        assert parse_model(text).agent_types[0].attributes[0].name == "zeta"

    def test_keeps_type_declaration_order(self):
        text = (
            "model m {\n  environment grid width 10 height 10\n"
            "  agent Walker {\n    create fixed 5 random\n    capability mobility random_walk step 1\n  }\n"
            "  entity Well {\n    create fixed 3 random\n  }\n}\n"
        )
        config = engine.RunConfig(seed=42, max_ticks=1)
        before = engine.build_world(parse_model(text), config)
        formatted = format_model(parse_model(text))
        after = engine.build_world(parse_model(formatted), config)
        assert after.digest() == before.digest()
        assert sorted(a.id for a in after.agents.values()) == [0, 1, 2, 3, 4]
        assert formatted.index("agent Walker") < formatted.index("entity Well")

    def test_golden_formatted_tutorial(self):
        text = (FIXTURES / "measles.abms").read_text()
        golden = (FIXTURES / "golden" / "measles.formatted.abms").read_text()
        assert format_model(parse_model(text)) == golden

    def test_expression_parenthesization(self):
        model = mm.Model(name="m", environment=mm.EnvironmentSpec(mm.GridTopology(3, 3)))
        tricky = ex.Binary(
            "*",
            ex.Binary("+", ex.lit(1), ex.lit(2)),
            ex.Binary("-", ex.lit(3), ex.Unary("-", ex.lit(4))),
        )
        model.outputs.append(mm.OutputDatasetSpec("o", 1, "o.csv", [mm.SeriesSpec("s", tricky)]))
        text = format_model(model)
        assert parse_model(text).outputs[0].series[0].value == tricky


class TestRoundTripGenerated:
    def test_generated_models_round_trip(self):
        for seed in range(120):
            model = random_text_model(seed)
            text = format_model(model)
            parsed = parse_model(text)
            assert parse_model(format_model(parsed)) == parsed, f"seed {seed}"



class TestCompositeGrammar:
    """``and``, ``not`` and both composite trigger kinds, through every stage."""

    def test_validates_clean(self):
        assert list(mm.validate(parse_model(INLINE_COMPOSITE))) == []

    def test_format_round_trip(self):
        model = parse_model(INLINE_COMPOSITE)
        text = format_model(model)
        assert parse_model(text) == model
        assert format_model(parse_model(text)) == text
        guard = model.machines[0].transitions[0].guard
        assert isinstance(guard, ex.Binary) and guard.op == "or"
        assert isinstance(guard.left, ex.Unary) and guard.left.op == "not"
        assert isinstance(guard.left.operand, ex.Binary) and guard.left.operand.op == "and"
        assert [t.trigger.mode for t in model.machines[0].transitions] == ["all_of", "any_of"]

    def test_generated_source_is_well_formed(self):
        source, report = codegen.generate(parse_model(INLINE_COMPOSITE))
        assert codegen.check_structure(source, report)

    def test_all_walkers_enter_b_at_tick_4_and_c_at_tick_5(self):
        world = engine.build_world(parse_model(INLINE_COMPOSITE), engine.RunConfig(seed=42, max_ticks=6))
        states = []
        for _ in range(6):
            engine.tick(world)
            states.append({a.machines["stage"].current for a in world.agents.values()})
        assert len(world.agents) == 8
        assert states == [{"a"}, {"a"}, {"a"}, {"b"}, {"c"}, {"c"}]


class TestTotality:
    @given(st.text(max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_parser_never_raises_on_text(self, text):
        parse(text)

    def test_parser_never_raises_on_noise(self):
        rng = random.Random(99)
        alphabet = 'model agent {}()"\\n\t 0123456789.+-*/=<>! abc_def era'
        for _ in range(2000):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 120)))
            parse(text)

    def test_tokenizer_total(self):
        tokens = tokenize("\x00\xff model \U0001f600 ..= \"abc")
        assert tokens[-1].type == "eof"
