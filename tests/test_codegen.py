import re
from pathlib import Path

from abms import codegen
from abms import metamodel as mm
from abms.dsl import parse_model

from digest_corpus import INLINE_MACHINE_THEN_PLAN
from randmodels import random_text_model

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fixture_model(name):
    return parse_model((FIXTURES / name).read_text(), name)


class TestGenerate:
    def test_deterministic_bytes(self):
        model = fixture_model("measles.abms")
        first, _ = codegen.generate(model)
        second, _ = codegen.generate(model)
        assert first == second

    def test_minimal_model_has_setup_and_go_only(self):
        model = parse_model("model tiny {\n  environment grid width 5 height 5\n}\n")
        source, report = codegen.generate(model)
        assert "to setup" in source and "to go" in source
        assert report.breeds == {}
        assert codegen.check_structure(source, report)

    def test_breed_per_agent_type(self):
        source, report = codegen.generate(fixture_model("measles.abms"))
        assert report.breeds["Native"] == ("natives", "one-native")
        assert "breed [natives one-native]" in source
        assert "breed [immigrants one-immigrant]" in source

    def test_traceability_every_element_reported(self):
        model = fixture_model("traffic.abms")
        _, report = codegen.generate(model)
        for agent in model.agent_types:
            assert f"agent:{agent.name}" in report.procedures
        for plan in model.plans:
            assert f"plan:{plan.name}" in report.procedures
        for output in model.outputs:
            assert f"output:{output.name}" in report.procedures
        model = fixture_model("measles.abms")
        _, report = codegen.generate(model)
        for spec in model.diseases:
            assert f"disease:{spec.name}" in report.procedures

    def test_a_concern_is_reported_without_procedures(self):
        text = "model m {\n  environment grid width 5 height 5\n  agent A {\n    create fixed 1 random\n  }\n}\n"
        model = parse_model(text.replace("\n}\n", "\n  concern c {\n    members A\n  }\n}\n"))
        source, report = codegen.generate(model)
        assert report.procedures["concern:c"] == []
        assert source == codegen.generate(parse_model(text))[0]
        assert codegen.check_structure(source, report)

    def test_fixed_positions_and_unary_minus_are_emitted(self):
        model = parse_model(
            "model m {\n  environment grid width 5 height 5\n"
            "  agent A {\n    create fixed 2 at (1, 2) (3, 4)\n    attr x integer = 1\n    attr y integer = -x\n  }\n}\n"
        )
        assert mm.validate(model).ok()
        source, report = codegen.generate(model)
        assert "  ; place cycling through fixed positions (1, 2) (3, 4)" in source
        assert "  set y (- x)" in source
        assert codegen.check_structure(source, report)

    def test_external_capability_emits_comment_and_report_entry(self):
        model = parse_model(
            'model m {\n  environment grid width 5 height 5\n'
            '  agent A {\n    create fixed 1 random\n'
            '    capability external "lib.nls" warmup\n  }\n}\n'
        )
        source, report = codegen.generate(model)
        assert "; external capability: warmup (include manually from lib.nls)" in source
        assert any("warmup" in note for _, note in report.unsupported)

    def test_a_machine_named_before_the_plan(self):
        source, report = codegen.generate(parse_model(INLINE_MACHINE_THEN_PLAN))
        assert 'let active-plan "P"' in source
        assert [line.strip() for line in source.splitlines() if "[ step-machine-m ]" in line] == ["ask lights [ step-machine-m ]"]
        assert codegen.check_structure(source, report)

    def test_disease_procedures_present(self):
        source, report = codegen.generate(fixture_model("measles.abms"))
        for proc in ("disease-phase-measles", "attempt-measles-infection",
                     "progress-measles", "apply-measles-deaths", "recolor-measles"):
            assert proc in report.procedures["disease:measles"]
            assert f"to {proc}" in source

    def test_golden_measles_source(self):
        source, _ = codegen.generate(fixture_model("measles.abms"))
        golden = (FIXTURES / "golden" / "measles.nlogo").read_text()
        assert source == golden


class TestCheckStructure:
    def test_fixtures_self_consistent(self):
        for name in ("measles.abms", "traffic.abms"):
            source, report = codegen.generate(fixture_model(name))
            assert codegen.check_structure(source, report), name

    def test_deleting_a_procedure_fails(self):
        source, report = codegen.generate(fixture_model("measles.abms"))
        victim = report.procedures["disease:measles"][0]
        mutated = re.sub(
            rf"^to {re.escape(victim)}\b", f"to renamed-{victim}", source, count=1, flags=re.M
        )
        assert not codegen.check_structure(mutated, report)

    def test_unbalanced_bracket_fails(self):
        source, report = codegen.generate(fixture_model("measles.abms"))
        assert not codegen.check_structure(source + "\n[\n", report)

    def test_comment_and_string_brackets_ignored(self):
        source, report = codegen.generate(fixture_model("measles.abms"))
        noisy = source + '\n; stray [ ( in comment\n'
        assert codegen.check_structure(noisy, report)

    def test_escaped_quote_keeps_string_open(self):
        source, report = codegen.generate(fixture_model("measles.abms"))
        assert codegen.check_structure(source + '\nshow "a \\" ["\n', report)

    def test_semicolon_in_string_starts_no_comment(self):
        source, report = codegen.generate(fixture_model("measles.abms"))
        assert not codegen.check_structure(source + '\nshow "a ; b" [\n', report)

    def test_unterminated_string_ends_at_line_end(self):
        source, report = codegen.generate(fixture_model("measles.abms"))
        assert codegen.check_structure(source + '\nshow "a [\n', report)
        assert not codegen.check_structure(source + '\nshow "a\n[\n', report)

    def test_trailing_backslash_ends_string_at_line_end(self):
        source, report = codegen.generate(fixture_model("measles.abms"))
        assert codegen.check_structure(source + '\nshow "[ \\', report)
        assert not codegen.check_structure(source + '\nshow "[ \\\n]\n', report)

    def test_duplicated_procedure_fails(self):
        source, report = codegen.generate(fixture_model("measles.abms"))
        victim = report.procedures["disease:measles"][0]
        assert not codegen.check_structure(source + f"\nto {victim}\nend\n", report)


class TestTotality:
    def test_generate_succeeds_on_every_valid_generated_model(self):
        produced = 0
        for seed in range(50):
            model = random_text_model(seed)
            if not mm.validate(model).ok():
                continue
            source, report = codegen.generate(model)
            assert codegen.check_structure(source, report), f"seed {seed}"
            produced += 1
        assert produced >= 40
