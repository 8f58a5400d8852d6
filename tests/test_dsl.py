import dataclasses
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abms import codegen, engine
from abms import disease as dz
from abms import expr as ex
from abms import metamodel as mm
from abms import statemachine as sm
from abms import traffic as tf
from abms.dsl import ParseError, format_model, parse, parse_model
from abms.dsl.lexer import KEYWORDS, tokenize
from abms.dsl.parser import MAX_EXPR_DEPTH, ParseFailure
from abms.source import SourceSpan

import digest_corpus
import token_loop
import validate_corpus
from digest_corpus import corpus as digest_models
from netlogo_corpus import INLINE_COMPOSITE
from parse_error_corpus import cases as parse_error_cases
from parse_error_corpus import error_list
from randmodels import random_text_model
from validate_corpus import texts as validate_texts

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
  disease flu model SIR {
    transmission contact probability 0.5
    duration I deterministic 3
  }
  machine flu {
    initial a
    state a
  }
}
"""
        )
        assert result.model is None
        assert any("duplicate type name 'A'" in e.message for e in result.errors)
        # Diseases, machines and plans share one name space.
        assert any("duplicate machine name 'flu'" in e.message for e in result.errors)

    def test_only_types_carry_spans(self):
        """The engine creates agent and entity types in source order, so they
        keep a span; no other model element carries one."""
        model = parse_model((FIXTURES / "measles.abms").read_text(), "measles.abms")
        assert [t.span.label() for t in model.agent_types] == ["measles.abms:3:3", "measles.abms:8:3"]
        spanned = {
            cls.__name__
            for module in (mm, dz, sm, tf, ex)
            for cls in vars(module).values()
            if dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__
            and any(f.name == "span" for f in dataclasses.fields(cls))
        }
        assert spanned == {"AgentTypeSpec", "EntityTypeSpec"}

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

    @pytest.mark.parametrize(
        "text,found,message",
        [
            (
                "model m { environment grid width @ height 3 }",
                "unexpected character '@'",
                "expected grid width, found unexpected character '@'",
            ),
            (
                'model m { environment graph from osm "broken }',
                "unterminated string",
                "expected OSM file path, found unterminated string",
            ),
            (
                "model m { environment grid width 3 height 3 } $",
                "unexpected character '$'",
                "unexpected character '$' after the model block",
            ),
        ],
    )
    def test_error_token_is_reported_by_the_lexer_message(self, text, found, message):
        error = parse(text).errors[0]
        assert (error.found, error.message) == (found, message)

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


_CHOICE_BASE = """model m {
  environment grid width 3 height 3
  agent A {
    create fixed 1 random
    capability disease d
  }
  disease d model SIR {
    transmission contact probability 0.5
    duration I deterministic 3
  }
}
"""


class TestParseFailure:
    """``parse_model`` raises every error ``parse`` lists, each as
    ``file:line:col: message``."""

    def test_carries_the_errors_with_their_positions(self):
        text = "model x {\n  environment grid width\n}\n"
        with pytest.raises(ParseFailure) as failure:
            parse_model(text, "m.abms")
        errors = parse(text, "m.abms").errors
        assert failure.value.errors == errors and errors
        assert str(failure.value) == "; ".join(str(e) for e in errors)
        assert str(errors[0]).startswith("m.abms:3:1: ")

    @pytest.mark.parametrize(
        "old,new,message",
        [
            ("create fixed 1 random", "create fixed 2 at", "expected at least one (x, y) position"),
            ("duration I deterministic 3", "duration I deterministic 3\n    passive duration deterministic 2\n"
             "    passive duration deterministic 4", "duplicate passive immunity duration"),
        ],
        ids=["fixed count without positions", "second passive duration"],
    )
    def test_message(self, old, new, message):
        with pytest.raises(ParseFailure) as failure:
            parse_model(_CHOICE_BASE.replace(old, new), "m.abms")
        assert [e.message for e in failure.value.errors] == [message]


class TestKeywordChoices:
    """Full error lists at keyword choices the mutation corpus never reaches."""

    @pytest.mark.parametrize(
        "text,errors",
        [
            (
                "model m {\n  environment torus width 3 height 3\n}\n",
                [
                    [
                        [2, 15, 2, 20],
                        ["'grid'", "'cartesian'", "'graph'"],
                        "identifier 'torus'",
                        "expected 'grid', 'cartesian' or 'graph', found identifier 'torus'",
                    ],
                    [[1, 1, 3, 2], ["'environment'"], "end of model", "model declares no environment"],
                ],
            ),
            (
                _CHOICE_BASE.replace("transmission contact", "transmission nearby"),
                [
                    [
                        [8, 18, 8, 24],
                        ["'proximity'", "'contact'"],
                        "identifier 'nearby'",
                        "expected 'proximity' or 'contact', found identifier 'nearby'",
                    ]
                ],
            ),
            (
                _CHOICE_BASE.replace("deterministic 3", "custom some_of (deterministic 3)"),
                [
                    [
                        [9, 23, 9, 30],
                        ["'all_of'", "'any_of'"],
                        "identifier 'some_of'",
                        "expected 'all_of' or 'any_of', found identifier 'some_of'",
                    ]
                ],
            ),
            (
                _CHOICE_BASE.replace("capability disease d", "capability flow_control auto"),
                [[[5, 29, 5, 33], ["'streams'", "'stream'"], "'auto'", "expected 'streams' or 'stream', found 'auto'"]],
            ),
            (
                _CHOICE_BASE.replace("capability disease d", "capability qlearning alpha 0.1 plans p"),
                [[[6, 3, 6, 4], ["'gamma'", "'epsilon'"], "'}'", "qlearning is missing gamma or epsilon"]],
            ),
        ],
        ids=["environment kind", "transmission interaction", "composite mode", "flow_control", "qlearning"],
    )
    def test_wrong_token(self, text, errors):
        assert error_list(text) == errors

    def test_adaptation_parses_and_fails_validation(self):
        text = _CHOICE_BASE.replace("capability disease d", "capability adaptation\n    capability disease d")
        model = parse_model(text)
        assert [cap.kind for cap in model.agent_types[0].capabilities] == ["adaptation", "disease"]
        assert [str(d) for d in mm.validate(model).errors()] == [
            "error: agent:A.capability[0]: the adaptation capability is reserved and not supported"
        ]


class TestRepeatedOptions:
    """A repeated transmission or qlearning option is reported where it
    repeats, and parsing goes on to the end of the options."""

    def test_transmission_option(self):
        text = _CHOICE_BASE.replace("probability 0.5", "probability 0.5 infectious I to I infectious R sources W")
        assert error_list(text) == [
            [[8, 60, 8, 70], [], "'infectious'", "duplicate transmission option 'infectious'"]
        ]

    def test_qlearning_option(self):
        text = _CHOICE_BASE.replace(
            "capability disease d", "capability qlearning alpha 0.1 gamma 0.9 epsilon 0.1 plans p alpha 0.2 bins 1"
        )
        assert error_list(text) == [[[5, 66, 5, 71], [], "'alpha'", "duplicate qlearning option 'alpha'"]]


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

    @pytest.mark.parametrize("value", [1e-25, 1.234567e-15, 5e-324, 1.2345678901234569e23])
    def test_a_real_reads_back_exactly(self, value):
        """A real whose shortest repr has an exponent is written out digit for digit."""
        model = parse_model(_expr_text("1.0"))
        model.outputs[0].series[0].value = ex.lit(value)
        text = format_model(model)
        assert "e" not in text.split("series s ")[1].split("\n")[0]
        assert parse_model(text).outputs[0].series[0].value.value == value
        assert format_model(parse_model(text)) == text

    def test_external_capability_round_trip(self):
        model = parse_model(_CHOICE_BASE.replace("capability disease d", 'capability external "lib.py" entry'))
        text = format_model(model)
        assert '    capability external "lib.py" entry\n' in text
        assert parse_model(text) == model and format_model(parse_model(text)) == text

    def test_concern_round_trip(self):
        model = parse_model(_CHOICE_BASE.replace("\n}\n", "\n  concern c {\n    members A d\n  }\n}\n"))
        assert model.concerns == [mm.ConcernSpec("c", ["A", "d"])]
        text = format_model(model)
        assert "  concern c {\n    members A d\n  }\n" in text
        assert parse_model(text) == model and format_model(parse_model(text)) == text

    def test_transmission_condition_and_sources_round_trip(self):
        text = (
            "model m {\n  environment grid width 5 height 5\n"
            "  agent A {\n    create fixed 2 random\n    capability disease flu\n  }\n"
            "  entity Well {\n    create fixed 1 random\n  }\n"
            "  disease flu model SIR {\n"
            "    transmission proximity 1 probability 0.5 condition tick > 2 sources Well\n"
            "    duration I deterministic 3\n  }\n}\n"
        )
        model = parse_model(text)
        assert mm.validate(model).ok()
        formatted = format_model(model)
        assert "transmission proximity 1 probability 0.5 condition tick > 2 sources Well\n" in formatted
        assert parse_model(formatted) == model

    @pytest.mark.parametrize("value", [
        "count(A where (tick < 3) == true)",
        "count(A where (x > 0) != (tick > 1))",
        "count(A where (m is S) == true)",
    ])
    def test_comparison_operand_keeps_parentheses(self, value):
        text = (
            "model m {\n  environment grid width 5 height 5\n"
            "  agent A {\n    create fixed 2 random\n    attr x integer = 1\n    capability state_machine m\n  }\n"
            "  machine m {\n    initial S\n    state S\n    state T\n    transition S T deterministic 2\n  }\n"
            f'  output o every 1 to "o.csv" {{\n    series v {value}\n  }}\n}}\n'
        )
        model = parse_model(text)
        assert mm.validate(model).ok()
        formatted = format_model(model)
        assert value in formatted
        assert parse_model(formatted) == model


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


def _source_slice(text, line, col, end_line, end_col):
    """The text between two 1-based (line, column) positions; lines end at '\\n' only."""
    starts = [0]
    for part in text.split("\n"):
        starts.append(starts[-1] + len(part) + 1)
    return text[starts[line - 1] + col - 1 : starts[end_line - 1] + end_col - 1]


def _assert_tokens_are_slices(text):
    for tok in tokenize(text):
        assert tok.text == _source_slice(text, tok.line, tok.col, tok.end_line, tok.end_col), tok


def _token_fields(tokens):
    return [(t.type, t.value, type(t.value), t.text, t.line, t.col, t.end_line, t.end_col) for t in tokens]


def _assert_tokens_match_token_loop(text):
    assert _token_fields(tokenize(text)) == _token_fields(token_loop.tokenize(text)), text


LEXER_ALPHABET = 'ab_1.2 "\\\n\r\t#<=>!{}()-+*/,'
# The last alphabet makes strings continued by a backslash-newline common.
LEXER_TEXTS = st.one_of(
    st.text(max_size=200), st.text(alphabet=LEXER_ALPHABET, max_size=200), st.text(alphabet='"\\\na ', max_size=40)
)


class TestLexer:
    def test_corpus_tokens_are_source_slices(self):
        texts = [text for _, text in validate_texts()]
        texts += [format_model(model) for _, model, _ in digest_models()]
        texts.append(INLINE_COMPOSITE)
        for text in texts:
            _assert_tokens_are_slices(text)

    @given(LEXER_TEXTS)
    @settings(max_examples=300, deadline=None)
    def test_generated_tokens_are_source_slices(self, text):
        _assert_tokens_are_slices(text)

    def test_corpus_tokens_match_the_token_loop(self, monkeypatch):
        """The source and mutated texts of the validate, digest and parse-error corpora."""
        texts = [text for _, text in validate_texts() + parse_error_cases()]
        texts += [format_model(model) for _, model, _ in digest_models()]
        texts += [getattr(digest_corpus, name) for name in dir(digest_corpus) if name.startswith("INLINE_")]
        # The validate corpus's mutated texts are the ones it parses.
        monkeypatch.setattr(validate_corpus, "parse", lambda text: texts.append(text) or parse(text))
        validate_corpus.cases()
        for text in texts:
            _assert_tokens_match_token_loop(text)

    @given(LEXER_TEXTS)
    @settings(max_examples=300, deadline=None)
    def test_generated_tokens_match_the_token_loop(self, text):
        _assert_tokens_match_token_loop(text)

    @pytest.mark.parametrize(
        "text,line,col",
        [
            ("", 1, 1),
            ("a", 1, 2),
            ("a  \t", 1, 5),
            ("a # note", 1, 9),
            ("a\r\n", 2, 1),
            ("a\n\n", 3, 1),
            ('a "b', 1, 5),
        ],
    )
    def test_one_eof_at_the_end(self, text, line, col):
        """Also after a last match that reaches the end, which the eof's empty match follows."""
        tokens = tokenize(text)
        assert [t.type for t in tokens].count("eof") == 1
        eof = tokens[-1]
        assert (eof.type, eof.line, eof.col, eof.end_line, eof.end_col) == ("eof", line, col, line, col)
        _assert_tokens_match_token_loop(text)

    def test_long_blank_and_comment_text_is_one_eof(self):
        lines = ["# a comment line", "", "   \t ", "  # indented # comment", "\r"]
        text = "\n".join(lines[i % len(lines)] for i in range(30000))[:200_000]
        assert len(text) == 200_000
        [eof] = tokenize(text)
        last_line = text.rsplit("\n", 1)[1]
        assert (eof.type, eof.line, eof.col) == ("eof", text.count("\n") + 1, len(last_line) + 1)

    @pytest.mark.parametrize(
        "source,value",
        [
            (r'"a\nb"', "a\nb"),
            (r'"a\tb"', "a\tb"),
            (r'"a\"b"', 'a"b'),
            (r'"a\\b"', "a\\b"),
            (r'"\q"', "q"),
            (r'"\\n"', "\\n"),
        ],
    )
    def test_string_escapes(self, source, value):
        tok = tokenize(source)[0]
        assert (tok.type, tok.value, tok.text) == ("string", value, source)

    def test_backslash_newline_in_string_moves_to_next_line(self):
        text = '"a\\\nb" x'
        string, ident, eof = tokenize(text)
        assert (string.type, string.value) == ("string", "a\nb")
        assert (string.line, string.col, string.end_line, string.end_col) == (1, 1, 2, 3)
        assert (ident.value, ident.line, ident.col) == ("x", 2, 4)
        assert (eof.line, eof.col) == (2, 5)

    def test_crlf_line_endings(self):
        text = "model m\r\n{\r\n  x\r\n}\r\n"
        got = [(t.text, t.line, t.col, t.end_line, t.end_col) for t in tokenize(text)]
        assert got == [
            ("model", 1, 1, 1, 6),
            ("m", 1, 7, 1, 8),
            ("{", 2, 1, 2, 2),
            ("x", 3, 3, 3, 4),
            ("}", 4, 1, 4, 2),
            ("", 5, 1, 5, 1),
        ]

    def test_comment_at_end_of_file(self):
        tokens = tokenize("model # trailing")
        assert [(t.type, t.text) for t in tokens] == [("kw", "model"), ("eof", "")]
        assert (tokens[-1].line, tokens[-1].col) == (1, 17)

    def test_eof_position(self):
        assert [(t.type, t.line, t.col) for t in tokenize("")] == [("eof", 1, 1)]
        eof = tokenize("a\n bc\n  ")[-1]
        assert (eof.line, eof.col, eof.end_line, eof.end_col) == (3, 3, 3, 3)

    def test_docs_list_the_reserved_keywords(self):
        docs = (FIXTURES.parent / "docs" / "language.md").read_text(encoding="utf-8")
        block = docs.split("## Reserved keywords")[1].split("```")[1]
        assert block.split() == sorted(KEYWORDS)

    def test_unterminated_string_stops_at_line_end(self):
        tokens = tokenize('"ab\ncd')
        assert [(t.type, t.value, t.text) for t in tokens[:2]] == [
            ("error", "unterminated string", '"ab'),
            ("ident", "cd", "cd"),
        ]


def _expr_text(expr):
    return (
        "model m {\n  environment grid width 3 height 3\n"
        '  output o every 1 to "o.csv" {\n    series s\n' + expr + "\n  }\n}\n"
    )


def _sexpr(e):
    """Prefix form of a parsed expression."""
    if isinstance(e, ex.Binary):
        return f"({e.op} {_sexpr(e.left)} {_sexpr(e.right)})"
    if isinstance(e, ex.Unary):
        return f"({'neg' if e.op == '-' else e.op} {_sexpr(e.operand)})"
    if isinstance(e, ex.StateTest):
        return f"(is {e.machine} {e.state})"
    if isinstance(e, ex.AttrRef):
        return e.name
    return repr(e.value)


class TestExpressionGrammar:
    """Precedence and associativity; the expression sits alone on line 5."""

    @pytest.mark.parametrize(
        "source,tree",
        [
            ("a - b - c", "(- (- a b) c)"),
            ("-a * b", "(* (neg a) b)"),
            ("not a == b", "(not (== a b))"),
            ("not a and b or c", "(or (and (not a) b) c)"),
            ("a < b + c", "(< a (+ b c))"),
            ("a / b * -c", "(* (/ a b) (neg c))"),
            ("- -(a + b)", "(neg (neg (+ a b)))"),
            ("(x) is S or y", "(or (is x S) y)"),
            ("not not x is S", "(not (not (is x S)))"),
        ],
    )
    def test_tree(self, source, tree):
        assert _sexpr(parse_model(_expr_text(source)).outputs[0].series[0].value) == tree

    @pytest.mark.parametrize(
        "source,errors",
        [
            ("a < b < c", [[[5, 7, 5, 8], ["'series'"], "'<'", "expected 'series', found '<'"]]),
            ("x is S + 1", [[[5, 8, 5, 9], ["'series'"], "'+'", "expected 'series', found '+'"]]),
            ("a < not b", [[[5, 5, 5, 8], ["expression"], "'not'", "expected expression, found 'not'"]]),
            # An operand that stops at a second comparison leaves it to no outer operator.
            ("a and b < c < d", [[[5, 13, 5, 14], ["'series'"], "'<'", "expected 'series', found '<'"]]),
            ("not a < b < c", [[[5, 11, 5, 12], ["'series'"], "'<'", "expected 'series', found '<'"]]),
            ("a or b == c == d", [[[5, 13, 5, 15], ["'series'"], "'=='", "expected 'series', found '=='"]]),
            ("a or x is S + 1", [[[5, 13, 5, 14], ["'series'"], "'+'", "expected 'series', found '+'"]]),
            ("a and x is S is T", [[[5, 14, 5, 16], ["'series'"], "'is'", "expected 'series', found 'is'"]]),
            (
                "(a + b) is S",
                [[[5, 9, 5, 11], [], "'is'", "the left side of 'is' must name a disease or state machine"]],
            ),
        ],
    )
    def test_errors(self, source, errors):
        assert error_list(_expr_text(source)) == errors


# One text per way of nesting, ``levels`` deep (see ``parser.MAX_EXPR_DEPTH``).
NESTINGS = {
    "flat sum": lambda levels: " + ".join(["1"] * (levels + 1)),
    "parentheses": lambda levels: "(" * levels + "1" + ")" * levels,
    "nots": lambda levels: "not " * levels + "true",
    "negations": lambda levels: "- " * levels + "1",
    "right operands": lambda levels: "1 + (" * (levels // 2) + "- " * (levels % 2) + "1" + ")" * (levels // 2),
    "aggregates": lambda levels: "count(A where " * levels + "true" + ")" * levels,
}
TOO_DEEP = f"expression nested more than {MAX_EXPR_DEPTH} levels deep"


class TestExpressionDepth:
    """Every later walk over an expression recurses per level, so the parser
    rejects a tree deeper than ``MAX_EXPR_DEPTH``, and its own descent stops there."""

    @pytest.mark.parametrize("nesting", NESTINGS)
    def test_the_bound_itself_parses(self, nesting):
        assert parse(_expr_text(NESTINGS[nesting](MAX_EXPR_DEPTH))).errors == []

    @pytest.mark.parametrize("levels", [MAX_EXPR_DEPTH + 1, 20 * MAX_EXPR_DEPTH])
    @pytest.mark.parametrize("nesting", NESTINGS)
    def test_one_level_more_is_one_error(self, nesting, levels):
        [error] = parse(_expr_text(NESTINGS[nesting](levels))).errors
        assert error.message == TOO_DEEP

    def test_a_long_flat_sum_is_reported_at_its_span(self):
        source = NESTINGS["flat sum"](MAX_EXPR_DEPTH + 1)
        assert error_list(_expr_text(source)) == [[[5, 1, 5, len(source) + 1], [], "expression", TOO_DEEP]]

    def test_a_too_deep_span_runs_from_the_first_token_to_the_last(self):
        """Parentheses and an aggregate's closing bracket included."""
        source = "(1) + " + NESTINGS["flat sum"](MAX_EXPR_DEPTH - 1) + " + count(A)"
        assert error_list(_expr_text(source)) == [[[5, 1, 5, len(source) + 1], [], "expression", TOO_DEEP]]

    def test_descent_is_reported_at_the_first_token_too_deep(self):
        """At the first token one level past the bound."""
        levels = MAX_EXPR_DEPTH + 1
        expected = [[5, levels + 1, 5, levels + 2], [], "'('", TOO_DEEP]
        assert error_list(_expr_text(NESTINGS["parentheses"](2 * levels))) == [expected]

    def test_recovery_resumes_after_a_deep_series(self):
        text = _expr_text(NESTINGS["nots"](5000) + "\n    series t -")
        assert [e.message for e in parse(text).errors] == [TOO_DEEP, "expected expression, found '}'"]


class TestSourceSpan:
    def test_equal_spans_compare_and_hash_equal(self):
        span = SourceSpan("m.abms", 1, 2, 3, 4)
        same = SourceSpan("m.abms", 1, 2, 3, 4)
        assert span == same and hash(span) == hash(same) == hash(("m.abms", 1, 2, 3, 4))
        assert len({span, same}) == 1
        assert span != SourceSpan("m.abms", 1, 2, 3, 5) and span != SourceSpan("n.abms", 1, 2, 3, 4)

    def test_a_span_is_immutable(self):
        span = SourceSpan("m.abms", 1, 2, 3, 4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            span.start_line = 5  # type: ignore[misc]
        assert span.start_line == 1

    def test_repr(self):
        expected = "SourceSpan(file='m.abms', start_line=1, start_col=2, end_line=3, end_col=4)"
        assert repr(SourceSpan("m.abms", 1, 2, 3, 4)) == expected

    @pytest.mark.parametrize("start,end", [((2, 1), (1, 9)), ((1, 5), (1, 4))])
    def test_start_after_end_raises(self, start, end):
        with pytest.raises(ValueError, match="span start must not come after its end"):
            SourceSpan("m.abms", *start, *end)

    def test_an_empty_span_is_allowed(self):
        assert SourceSpan("m.abms", 3, 4, 3, 4).label() == "m.abms:3:4"

    def test_parse_errors_are_equal_only_with_equal_spans(self):
        def error(span):
            return ParseError(span, ("'}'",), "end of input", "expected '}', found end of input")

        assert error(SourceSpan("m.abms", 1, 2, 1, 2)) == error(SourceSpan("m.abms", 1, 2, 1, 2))
        assert error(SourceSpan("m.abms", 1, 2, 1, 2)) != error(SourceSpan("m.abms", 1, 3, 1, 3))
