"""Command-line entry point: validate, run, gen, and fmt.

Exit codes: 0 success, 1 validation or run problems, 2 usage errors.
Errors go to standard error with file:line:col positions where available.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import re
import sys
from pathlib import Path

from . import codegen, engine
from . import metamodel as mm
from .dsl import format_model, parse
from .errors import AbmsError, FileFormatError, InvalidModelError
from .ingest import read_text

DEFAULT_SEED = 42
DEFAULT_TICKS = 100


def positive_int(text: str) -> int:
    """The argparse type of ``--ticks``; argparse reports a ValueError as an invalid value."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def seed_value(text: str) -> int | str:
    """The argparse type of ``--seed``: an integer, or ``'random'`` for entropy."""
    if text == "random":
        return text
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer or 'random', got {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="abms", description="Model toolchain: validate, simulate, generate NetLogo code, format.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("model", help="path to a .abms model file")
        p.add_argument("--format", choices=("text", "json"), default="text")

    validate_p = sub.add_parser("validate", help="check a model and print diagnostics")
    add_common(validate_p)

    run_p = sub.add_parser("run", help="simulate a model and write output CSVs")
    add_common(run_p)
    run_p.add_argument("--seed", type=seed_value, default=DEFAULT_SEED, help="integer seed, or 'random' for entropy")
    run_p.add_argument("--ticks", type=positive_int, default=DEFAULT_TICKS)
    run_p.add_argument("--out-dir", default=None, help="output directory (default: $ABMS_OUT_DIR or '.')")

    gen_p = sub.add_parser("gen", help="generate NetLogo source text")
    add_common(gen_p)
    gen_p.add_argument("--out-dir", default=None)

    fmt_p = sub.add_parser("fmt", help="rewrite a model in canonical form")
    fmt_p.add_argument("model", help="path to a .abms model file")
    fmt_p.add_argument("--check", action="store_true", help="exit 1 if the file is not canonical; do not write")
    return parser


def _load(path: str):
    try:
        text = read_text(path)
    except FileFormatError as err:
        print(f"error: {err}", file=sys.stderr)
        return None, None
    result = parse(text, filename=path)
    if result.model is None:
        for error in result.errors:
            print(f"{error.span.label()}: error: {error.message}", file=sys.stderr)
        return None, text
    return result.model, text


def _load_valid(path: str):
    """The parsed model if it also validates, else None (errors printed)."""
    model, _ = _load(path)
    if model is None:
        return None
    report = mm.validate(model)
    if not report.ok():
        print("\n".join(map(str, report.errors())), file=sys.stderr)
        return None
    return model


def _out_dir(arg: str | None) -> Path:
    if arg is not None:
        return Path(arg)
    env = os.environ.get("ABMS_OUT_DIR")
    return Path(env) if env else Path(".")


def _cmd_validate(args) -> int:
    model, _ = _load(args.model)
    if model is None:
        return 1
    report = mm.validate(model)
    if args.format == "json":
        payload = {
            "model": model.name,
            "diagnostics": [
                {"severity": d.severity, "path": d.path, "message": d.message} for d in report
            ],
            "ok": report.ok(),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for diag in report:
            print(str(diag))
    return 0 if report.ok() else 1


def _cmd_run(args) -> int:
    model, _ = _load(args.model)  # the run validates it: build_world is the one gate
    if model is None:
        return 1
    seed = int.from_bytes(os.urandom(8), "big") % (2**63) if args.seed == "random" else args.seed
    config = engine.RunConfig(
        seed=seed,
        max_ticks=args.ticks,
        out_dir=_out_dir(args.out_dir),
        base_dir=Path(args.model).resolve().parent,
    )
    try:
        result = engine.run(model, config)
    except InvalidModelError as err:  # printed as ``_load_valid`` prints it
        print("\n".join(map(str, err.report.errors())), file=sys.stderr)
        return 1
    except AbmsError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if args.format == "json":
        payload = {"model": model.name, "seed": seed, **result.summary}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"{model.name}: {result.summary['ticks']} ticks, seed {seed}")
        for name, finals in sorted(result.summary["final"].items()):
            rendered = ", ".join(f"{k}={engine.format_value(v)}" for k, v in finals.items())
            print(f"  {name}: {rendered}")
        for name in sorted(result.tables):
            print(f"  wrote {Path(_out_dir(args.out_dir)) / result.tables[name].path}")
    return 0


def _cmd_gen(args) -> int:
    model = _load_valid(args.model)
    if model is None:
        return 1
    source, gen_report = codegen.generate(model)
    out_dir = _out_dir(args.out_dir)
    os.makedirs(out_dir, exist_ok=True)
    source_path = out_dir / f"{model.name}.nlogo"
    report_path = out_dir / f"{model.name}.genreport.json"
    source_path.write_text(source, encoding="utf-8")
    report_path.write_text(json.dumps(gen_report.to_dict(), indent=2, sort_keys=True), encoding="utf-8")
    if args.format == "json":
        payload = {
            "model": model.name,
            "source": str(source_path),
            "report": str(report_path),
            "procedures": sum(len(v) for v in gen_report.procedures.values()),
            "unsupported": len(gen_report.unsupported),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"wrote {source_path} and {report_path}")
        for path, note in gen_report.unsupported:
            print(f"  unsupported: {path}: {note}")
    return 0


def _cmd_fmt(args) -> int:
    model, original = _load(args.model)
    if model is None:
        return 1
    canonical = format_model(model)
    if args.check:
        if canonical == original:
            return 0
        # As diff(1) does, end lines only at a newline, and mark a last line that has none.
        diff = difflib.unified_diff(
            re.findall(r".*\n|.+", original or ""),
            re.findall(r".*\n|.+", canonical),
            fromfile=args.model,
            tofile=args.model + " (canonical)",
        )
        for line in diff:
            sys.stderr.write(line if line.endswith("\n") else line + "\n\\ No newline at end of file\n")
        return 1
    if canonical != original:
        Path(args.model).write_text(canonical, encoding="utf-8")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return int(exit_.code or 0)
    handler = {
        "validate": _cmd_validate,
        "run": _cmd_run,
        "gen": _cmd_gen,
        "fmt": _cmd_fmt,
    }[args.command]
    return handler(args)


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
