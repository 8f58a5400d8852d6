import json
import shutil
from pathlib import Path

import pytest

from abms import metamodel as mm
from abms.cli import main
from abms.dsl import format_model, parse_model

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture
def workdir(tmp_path):
    for name in ("measles.abms", "natives.points", "traffic.abms", "network.osm"):
        shutil.copy(FIXTURES / name, tmp_path / name)
    return tmp_path


class TestValidate:
    def test_clean_model_silent_success(self, workdir, capsys):
        code = main(["validate", str(workdir / "measles.abms")])
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_broken_model_lists_diagnostics(self, workdir, capsys):
        text = (workdir / "measles.abms").read_text().replace("probability 0.3", "probability 7")
        (workdir / "bad.abms").write_text(text)
        code = main(["validate", str(workdir / "bad.abms")])
        out = capsys.readouterr().out
        assert code == 1
        assert "outside [0, 1]" in out

    def test_parse_errors_go_to_stderr_with_position(self, workdir, capsys):
        path = workdir / "broken.abms"
        path.write_text("model x {\n  environment grid width\n}\n")
        code = main(["validate", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert f"{path}:3:1: error: expected grid width, found '}}'" in err.splitlines()

    def test_json_format(self, workdir, capsys):
        code = main(["validate", "--format", "json", str(workdir / "measles.abms")])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["diagnostics"] == []


class TestRun:
    def test_writes_csv_and_prints_summary(self, workdir, capsys):
        code = main(["run", str(workdir / "measles.abms"), "--seed", "42", "--ticks", "50",
                     "--out-dir", str(workdir / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "susceptible=" in out
        lines = (workdir / "out" / "out.csv").read_text().splitlines()
        assert len(lines) == 52

    def test_runs_are_reproducible(self, workdir):
        for d in ("a", "b"):
            code = main(["run", str(workdir / "measles.abms"), "--seed", "7", "--ticks", "40",
                         "--out-dir", str(workdir / d)])
            assert code == 0
        assert (workdir / "a" / "out.csv").read_bytes() == (workdir / "b" / "out.csv").read_bytes()

    def test_json_summary(self, workdir, capsys):
        code = main(["run", str(workdir / "traffic.abms"), "--ticks", "30", "--format", "json",
                     "--out-dir", str(workdir / "out")])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["seed"] == 42
        assert payload["ticks"] == 30
        assert "flow" in payload["final"]

    def test_env_var_out_dir(self, workdir, capsys, monkeypatch):
        monkeypatch.setenv("ABMS_OUT_DIR", str(workdir / "enviro"))
        assert main(["run", str(workdir / "measles.abms"), "--ticks", "5"]) == 0
        assert (workdir / "enviro" / "out.csv").exists()

    def test_bad_seed_is_usage_error(self, workdir, capsys):
        assert main(["run", str(workdir / "measles.abms"), "--seed", "banana"]) == 2

    def test_bad_seed_is_usage_error_before_the_model_is_read(self, workdir, capsys):
        text = (workdir / "measles.abms").read_text().replace("duration I probabilistic rate 0.08\n", "")
        (workdir / "bad.abms").write_text(text)
        assert main(["run", str(workdir / "bad.abms"), "--seed", "banana"]) == 2
        err = capsys.readouterr().err
        assert "argument --seed: must be an integer or 'random', got 'banana'" in err
        assert "missing duration" not in err

    @pytest.mark.parametrize("ticks", ["0", "-3"])
    def test_ticks_below_one_is_usage_error(self, workdir, capsys, ticks):
        assert main(["run", str(workdir / "measles.abms"), "--ticks", ticks]) == 2
        assert f"argument --ticks: must be at least 1, got {ticks}" in capsys.readouterr().err

    def test_invalid_model_exit_one(self, workdir, capsys):
        """``run`` prints exactly the ``error:`` lines ``validate`` prints."""
        text = (workdir / "measles.abms").read_text().replace("duration I probabilistic rate 0.08\n", "")
        (workdir / "bad.abms").write_text(text)
        assert main(["validate", str(workdir / "bad.abms")]) == 1
        errors = [line for line in capsys.readouterr().out.splitlines(keepends=True) if line.startswith("error: ")]
        assert main(["run", str(workdir / "bad.abms"), "--out-dir", str(workdir / "out")]) == 1
        assert capsys.readouterr() == ("", "".join(errors))
        assert "missing duration" in "".join(errors)
        assert not (workdir / "out").exists()

    def test_run_validates_the_model_once(self, workdir, monkeypatch):
        calls = []
        validate = mm.validate
        monkeypatch.setattr(mm, "validate", lambda model: calls.append(model) or validate(model))
        assert main(["run", str(workdir / "measles.abms"), "--ticks", "5", "--out-dir", str(workdir / "out")]) == 0
        assert len(calls) == 1

    def test_run_time_error_is_one_line_and_writes_no_csv(self, workdir, capsys):
        big = "1" + "0" * 400 + ".0"  # parses to inf
        text = (workdir / "traffic.abms").read_text().replace("count(Vehicle)", f"count(Vehicle) * {big}")
        (workdir / "big.abms").write_text(text)
        assert main(["run", str(workdir / "big.abms"), "--out-dir", str(workdir / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: tick 0: output:flow.series:moving: ")
        assert err.count("\n") == 1
        assert not (workdir / "out").exists()

    def test_a_condition_on_declared_sources_is_not_read_on_agents(self, workdir, capsys):
        """The validator reads the condition on the entity sources only, so the
        run must not read it on the infectious agents, which have no ``w``."""
        (workdir / "well.abms").write_text(
            "model m {\n  environment grid width 5 height 5\n"
            "  agent A {\n    create fixed 6 random\n    capability disease d\n  }\n"
            "  entity W {\n    create fixed 1 random\n    attr w real = 1.0\n  }\n"
            "  disease d model SIR {\n    transmission proximity 20.0 probability 0.5 sources W condition w > 0.5\n"
            "    duration I deterministic 3\n  }\n"
            "  introduce d deterministic 2 arbitrary aperiodic\n"
            '  output o every 1 to "o.csv" {\n    series i count(A where d is I)\n  }\n}\n'
        )
        assert main(["validate", str(workdir / "well.abms")]) == 0
        assert main(["run", str(workdir / "well.abms"), "--ticks", "5", "--out-dir", str(workdir / "out")]) == 0, (
            capsys.readouterr().err
        )
        assert len((workdir / "out" / "o.csv").read_text().splitlines()) == 7


class TestGen:
    def test_writes_source_and_report(self, workdir, capsys):
        code = main(["gen", str(workdir / "measles.abms"), "--out-dir", str(workdir / "gen")])
        assert code == 0
        assert (workdir / "gen" / "measles_outbreak.nlogo").exists()
        report = json.loads((workdir / "gen" / "measles_outbreak.genreport.json").read_text())
        assert "disease:measles" in report["procedures"]

    def test_json_format(self, workdir, capsys):
        code = main(["gen", str(workdir / "measles.abms"), "--out-dir", str(workdir / "gen"), "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        report = json.loads((workdir / "gen" / "measles_outbreak.genreport.json").read_text())
        assert payload == {
            "model": "measles_outbreak",
            "source": str(workdir / "gen" / "measles_outbreak.nlogo"),
            "report": str(workdir / "gen" / "measles_outbreak.genreport.json"),
            "procedures": sum(map(len, report["procedures"].values())),
            "unsupported": 0,
        }
        assert payload["procedures"] > 0

    def test_an_external_capability_is_listed_as_unsupported(self, workdir, capsys):
        text = (workdir / "measles.abms").read_text()
        external = 'capability disease measles\n    capability external "lib.py" boost'
        (workdir / "ext.abms").write_text(text.replace("capability disease measles", external, 1))
        assert main(["gen", str(workdir / "ext.abms"), "--out-dir", str(workdir / "gen")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("wrote ") and len(lines) == 2
        assert lines[1] == "  unsupported: agent:Native.capability[2]: external capability boost"

    def test_invalid_model_exit_one(self, workdir, capsys):
        text = (workdir / "measles.abms").read_text().replace("duration I probabilistic rate 0.08\n", "")
        (workdir / "bad.abms").write_text(text)
        assert main(["gen", str(workdir / "bad.abms"), "--out-dir", str(workdir / "gen")]) == 1
        captured = capsys.readouterr()
        assert "missing duration" in captured.err and captured.out == ""
        assert not (workdir / "gen").exists()


class TestFmt:
    def test_check_passes_on_canonical(self, workdir):
        assert main(["fmt", "--check", str(workdir / "measles.abms")]) == 0

    def test_check_fails_with_diff_on_noncanonical(self, workdir, capsys):
        messy = (workdir / "measles.abms").read_text().replace("\n  agent", "\n\n\n  agent")
        (workdir / "messy.abms").write_text(messy)
        assert main(["fmt", "--check", str(workdir / "messy.abms")]) == 1
        assert "---" in capsys.readouterr().err

    @pytest.mark.parametrize("ending", ["\t", "  # no newline after this comment"])
    def test_check_diff_marks_a_missing_final_newline(self, workdir, capsys, ending):
        """As diff(1) does: only a newline ends a line (not the form feed put in here), every
        line of the diff ends, and the last line, which has no newline, is marked."""
        text = (workdir / "measles.abms").read_text().replace("\n  agent", "\x0c\n  agent", 1)
        (workdir / "messy.abms").write_text(text + ending)
        assert main(["fmt", "--check", str(workdir / "messy.abms")]) == 1
        err = capsys.readouterr().err
        assert err.endswith("\n\\ No newline at end of file\n")
        assert err.count("No newline at end of file") == 1
        for line in err.split("\n")[:-1]:
            assert line[:1] in ("-", "+", "@", " ", "\\"), repr(line)

    def test_rewrite_makes_canonical(self, workdir):
        messy = (workdir / "measles.abms").read_text().replace("  agent", "     agent")
        (workdir / "messy.abms").write_text(messy)
        assert main(["fmt", str(workdir / "messy.abms")]) == 0
        assert main(["fmt", "--check", str(workdir / "messy.abms")]) == 0


class TestUnreadableInput:
    """An input file that cannot be read or decoded is one error line and exit 1."""

    @pytest.mark.parametrize("command", ["validate", "run", "gen", "fmt"])
    def test_model_that_is_not_utf8(self, workdir, capsys, command):
        model = workdir / "latin.abms"
        text = (workdir / "measles.abms").read_bytes()
        model.write_bytes(text.replace(b"model ", b"model \xe9", 1))
        assert main([command, str(model)]) == 1
        line = text[: text.index(b"model ")].count(b"\n") + 1
        assert capsys.readouterr().err == f"error: {model}: line {line}: not UTF-8 text\n"

    def test_point_file_that_is_not_utf8(self, workdir, capsys):
        points = workdir / "natives.points"
        points.write_bytes(points.read_bytes() + b"1,1,name=caf\xe9\n")
        line = points.read_bytes().count(b"\n")
        assert main(["run", str(workdir / "measles.abms"), "--ticks", "1"]) == 1
        assert capsys.readouterr().err == f"error: {points}: line {line}: not UTF-8 text\n"

    @pytest.mark.parametrize("model, name", [("measles.abms", "natives.points"), ("traffic.abms", "network.osm")])
    def test_input_path_that_is_a_directory(self, workdir, capsys, model, name):
        (workdir / name).unlink()
        (workdir / name).mkdir()
        assert main(["run", str(workdir / model), "--ticks", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {workdir / name}: ") and err.count("\n") == 1


def test_usage_error_exit_code(capsys):
    assert main(["frobnicate"]) == 2
    assert main([]) == 2


def test_fmt_takes_no_format_option(workdir, capsys):
    assert main(["fmt", "--format", "json", str(workdir / "measles.abms")]) == 2
    assert "unrecognized arguments: --format" in capsys.readouterr().err


def _deep_model(series: str) -> str:
    return (
        "model deep {\n  environment grid width 5 height 5\n  agent A { create fixed 1 random }\n"
        f'  output o every 1 to "o.csv" {{\n    series s {series}\n  }}\n}}\n'
    )


# Each numeric, ``levels`` deep; the count adds a level around its predicate.
DEEP_SERIES = {
    "sum": lambda levels: " + ".join(["1"] * (levels + 1)),
    "parentheses": lambda levels: "(" * levels + "1" + ")" * levels,
    "nots": lambda levels: "count(A where " + "not " * (levels - 1) + "true)",
}
# Past the bound, and deep enough for the recursion of every later walk (or of
# the parser itself) to fail without it.
TOO_DEEP = {"sum": 599, "parentheses": 500, "nots": 1000}
COMMANDS = [["validate"], ["run", "--ticks", "2"], ["gen"], ["fmt", "--check"]]


class TestDeepExpressions:
    """A model that nests an expression too deep is a parse diagnostic, exit 1,
    from every command; one at the bound runs through every command."""

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    @pytest.mark.parametrize("shape", DEEP_SERIES)
    def test_too_deep_is_a_diagnostic(self, workdir, capsys, monkeypatch, shape, command):
        monkeypatch.chdir(workdir)
        (workdir / "deep.abms").write_text(_deep_model(DEEP_SERIES[shape](TOO_DEEP[shape])))
        assert main([command[0], "deep.abms", *command[1:]]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        [line] = err.splitlines()
        assert line.startswith("deep.abms:5:")
        assert line.endswith(": error: expression nested more than 200 levels deep")

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    @pytest.mark.parametrize("shape", DEEP_SERIES)
    def test_the_bound_runs_everywhere(self, workdir, capsys, monkeypatch, shape, command):
        monkeypatch.chdir(workdir)
        canonical = format_model(parse_model(_deep_model(DEEP_SERIES[shape](200))))
        (workdir / "deep.abms").write_text(canonical)
        assert main([command[0], "deep.abms", *command[1:]]) == 0
