"""One benchmark sample, run in a fresh interpreter.

    python3 bench/sample.py WORKDIR WORKLOAD SEED TRACE
    python3 bench/sample.py WORKDIR goldens

WORKDIR holds the inputs :mod:`workloads` generated (plus a copy of the
fixtures).  The sample changes into it, drives the program only through
``abms.cli.main`` (and, to time set-up on its own, the library calls that
``run`` makes first), and prints one JSON object: timings, the outputs'
digests and one pass/fail entry per operation.  A sample times its set-up,
one ``abms run`` of the workload's model and one front-end pass
(``validate``, ``fmt --check``, ``gen``) over that model, both fixtures and
the corpus, with :func:`probe` timed before, between and after them.  With
TRACE=1 the layer wrappers of :mod:`tracer` are installed after set-up is
timed and the object also carries the per-layer figures.

``goldens`` checks the committed golden files instead: both fixture CSVs at
seed 42 and 500 ticks, the measles NetLogo output and its canonical format.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

FIXTURES = (("measles", "out.csv", "measles_seed42_500.csv"), ("traffic", "traffic.csv", "traffic_seed42_500.csv"))
FIXTURE_SEED = 42
# The machine's speed changes by up to 2x within seconds, so every timing is
# also converted to a machine on which the probe takes this long (about its
# time on a quiet 2-core x86-64 machine); see at_reference.
PROBE_REFERENCE_S = 0.2


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x, self.y = x, y

    def near(self, other: _Point) -> bool:
        return abs(self.x - other.x) + abs(self.y - other.y) < 3.0


def probe() -> float:
    """Time a fixed pure-Python loop that uses nothing of the program: objects
    in a dict keyed by grid cell, looked up, their attributes read and a
    method called, the kinds of work the simulator does.  About 0.2 s."""
    start = time.perf_counter()
    cells = {(i % 300, i // 300): _Point(i % 300 * 0.5, i // 300 * 0.5) for i in range(40_000)}
    hits = 0
    for i in range(120_000):
        x, y = (i * 7919) % 299, (i * 104729) % 133
        if cells[(x, y)].near(cells[(x + 1, y)]):
            hits += 1
    return time.perf_counter() - start


def at_reference(seconds: float, before: float, after: float) -> float:
    """``seconds`` of wall time converted to a machine on which the probe takes
    PROBE_REFERENCE_S, from the probes timed just before and just after."""
    return seconds * PROBE_REFERENCE_S / ((before + after) / 2)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Checks:
    def __init__(self) -> None:
        self.items: list[dict] = []

    def add(self, op: str, ok: bool, detail: str = "") -> bool:
        self.items.append({"op": op, "ok": bool(ok), "detail": detail})
        return ok


def cli_call(cli, argv: list[str]) -> tuple[int, bytes]:
    """Run one command in process; return its exit status and output bytes.

    An exception escaping the command is a failed operation of the program,
    reported as exit status -1 with the traceback as output.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:  # noqa: BLE001 - counted as a failure, not fatal to the benchmark
            code = -1
            traceback.print_exc()
    return code, (out.getvalue() + "\x00" + err.getvalue()).encode("utf-8")


def dir_digest(path: Path) -> str:
    h = hashlib.sha256()
    for file in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(file.relative_to(path).as_posix().encode() + b"\x00" + file.read_bytes() + b"\x00")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Front end: validate, fmt --check and gen over a list of models


def frontend_pass(cli, models: list[str], checks: Checks, digests: dict) -> float:
    start = time.perf_counter()
    results = []
    for model in models:
        stem = Path(model).stem
        gen_dir = Path("gen") / stem
        results.append((f"validate {model}", *cli_call(cli, ["validate", model])))
        results.append((f"fmt {model}", *cli_call(cli, ["fmt", "--check", model])))
        code, output = cli_call(cli, ["gen", model, "--out-dir", gen_dir.as_posix()])
        results.append((f"gen {model}", code, output + dir_digest(gen_dir).encode()))
    elapsed = time.perf_counter() - start
    for op, code, output in results:
        checks.add(op, code == 0, f"exit {code}")
        digests[op] = f"{code}:{sha(output)}"
    return elapsed


def count_lines(models: list[str]) -> int:
    return sum(Path(m).read_text(encoding="utf-8").count("\n") for m in models)


# ---------------------------------------------------------------------------
# Simulation: one `abms run`


def read_csv(path: Path) -> list[list[float]]:
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    return [[float(v) for v in line.split(",")] for line in lines]


def agent_ticks(rows: list[list[float]], summary: dict, ticks: int, per_tick_population: bool) -> int:
    """Agents alive at the start of each tick, summed over the run.

    With ``per_tick_population`` the series of every row sum to the
    population (a compartment count per row); otherwise nobody dies and the
    population is the number created.
    """
    if per_tick_population:
        return int(sum(sum(row[1:]) for row in rows[:ticks]))
    return sum(summary["created"].values()) * ticks


def simulate(cli, engine, model: str, seed: int, ticks: int, out_dir: str, checks: Checks, digests: dict,
             per_tick_population: bool) -> tuple[float, int]:
    worlds = []
    build_world = engine.build_world

    def capture(*args, **kwargs):
        world = build_world(*args, **kwargs)
        worlds.append(world)
        return world

    engine.build_world = capture
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = ["run", model, "--seed", str(seed), "--ticks", str(ticks), "--out-dir", out_dir, "--format", "json"]
    start = time.perf_counter()
    try:
        code, output = cli_call(cli, argv)
    finally:
        elapsed = time.perf_counter() - start
        engine.build_world = build_world
    op = f"run {model}"
    if not checks.add(op, code == 0, f"exit {code}: {output.decode('utf-8')[-300:]}" if code else "exit 0"):
        return elapsed, 0
    summary = json.loads(output.decode("utf-8").split("\x00")[0])
    csvs = sorted(Path(out_dir).glob("*.csv"))
    for csv in csvs:
        digests[f"{op}: {csv.name}"] = sha(csv.read_bytes())
    if checks.add(f"{op}: world", bool(worlds), "no world built through engine.build_world"):
        digests[f"{op}: world"] = worlds[-1].digest()
    if not checks.add(f"{op}: csv", bool(csvs), f"no CSV written to {out_dir}"):
        return elapsed, 0
    return elapsed, agent_ticks(read_csv(csvs[0]), summary, ticks, per_tick_population)


# ---------------------------------------------------------------------------
# Samples


def run_sample(workdir: Path, name: str, seed: int, trace: bool) -> dict:
    probes = [probe()]
    import abms  # noqa: PLC0415
    from abms import cli, engine  # noqa: PLC0415

    os.chdir(workdir)
    checks, digests = Checks(), {}
    model = f"{name}.abms"
    models = [model] + [f"fixtures/{fx}.abms" for fx, _, _ in FIXTURES] + sorted(p.name for p in Path(".").glob("corpus*.abms"))
    ticks = workloads.TICKS[name]
    start = time.perf_counter()
    parsed = abms.parse_model(Path(model).read_text(encoding="utf-8"), model)
    abms.validate(parsed)
    abms.build_world(parsed, abms.RunConfig(seed=seed, max_ticks=ticks, out_dir="out", base_dir="."))
    setup_s = time.perf_counter() - start
    del parsed
    probes.append(probe())

    tracer = None
    if trace:
        import tracer as tracing  # noqa: PLC0415

        tracer = tracing.install()
    run_s, ticks_done = simulate(cli, engine, model, seed, ticks, "out", checks, digests, name != "traffic_grid")
    probes.append(probe())
    frontend_s = frontend_pass(cli, models, checks, digests)
    probes.append(probe())
    result = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "probe_s": statistics.median(probes),
        "setup_s": setup_s,
        "run_s": run_s,
        "agent_ticks": ticks_done,
        "frontend_s": frontend_s,
        "reference": {
            "setup_s": at_reference(setup_s, probes[0], probes[1]),
            "run_s": at_reference(run_s, probes[1], probes[2]),
            "frontend_s": at_reference(frontend_s, probes[2], probes[3]),
        },
        "frontend_lines": count_lines(models),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "checks": checks.items,
        "digests": digests,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = layer_metrics(tracer)
        result["missing_wrappers"] = tracer.missing
    return result


def layer_metrics(tracer) -> dict:
    total, self_time, calls, counts = tracer.total, tracer.self_time, tracer.calls, tracer.counts
    candidates = counts.get("disease.candidates", 0)
    qualifying = counts.get("disease.qualifying_candidates", 0)
    return {
        "engine.tick_s": total.get("engine.tick", 0.0),
        "engine.tick_calls": calls.get("engine.tick", 0),
        "engine.tick_self_s": self_time.get("engine.tick", 0.0),
        "engine.agent_ticks": counts.get("engine.agent_ticks", 0),
        "engine.agent_contexts": counts.get("engine.agent_contexts", 0),
        "engine.rng_draws": tracer.rng_draws(),
        "engine.mobility_step_s": total.get("engine.mobility_step", 0.0),
        "engine.mobility_step_calls": calls.get("engine.mobility_step", 0),
        "engine.sample_output_s": total.get("engine.sample_output", 0.0),
        "engine.sample_output_calls": calls.get("engine.sample_output", 0),
        "engine.build_world_s": total.get("engine.build_world", 0.0),
        "engine.csv_text_s": total.get("engine.csv_text", 0.0),
        "disease.attempt_transmission_s": total.get("disease.attempt_transmission", 0.0),
        "disease.attempt_transmission_calls": calls.get("disease.attempt_transmission", 0),
        "disease.candidates": candidates,
        "disease.qualifying_candidates": qualifying,
        "disease.candidate_hit_ratio": qualifying / candidates if candidates else 0.0,
        "disease.introduce_s": total.get("disease.introduce", 0.0),
        "disease.evaluate_mortality_calls": calls.get("disease.evaluate_mortality", 0),
        "statemachine.step_s": total.get("statemachine.step", 0.0),
        "statemachine.step_calls": calls.get("statemachine.step", 0),
        "traffic.plan_to_machine_calls": calls.get("traffic.plan_to_machine", 0),
        "traffic.q_update_calls": calls.get("traffic.q_update", 0),
        "traffic.select_action_calls": calls.get("traffic.select_action", 0),
        "metamodel.agent_type_calls": counts.get("metamodel.agent_type_calls", 0),
        "metamodel.capability_calls": counts.get("metamodel.capability_calls", 0),
        "metamodel.validate_s": total.get("metamodel.validate", 0.0),
        "metamodel.validate_calls": calls.get("metamodel.validate", 0),
        "expr.evaluate_calls": counts.get("expr.evaluate_calls", 0),
        "ingest.load_osm_graph_s": total.get("ingest.load_osm_graph", 0.0),
        "ingest.load_gis_points_s": total.get("ingest.load_gis_points", 0.0),
        "dsl.parse_s": total.get("dsl.parse", 0.0),
        "dsl.parse_calls": calls.get("dsl.parse", 0),
        "dsl.tokens": counts.get("dsl.tokens", 0),
        "dsl.format_model_s": total.get("dsl.format_model", 0.0),
        "codegen.generate_s": total.get("codegen.generate", 0.0),
        "codegen.output_lines": counts.get("codegen.output_lines", 0),
        "cli.self_s": self_time.get("cli", 0.0),
    }


def run_goldens(workdir: Path) -> dict:
    from abms import cli  # noqa: PLC0415

    os.chdir(workdir)
    golden = ROOT / "fixtures" / "golden"
    checks = Checks()
    for fixture, csv_name, reference in FIXTURES:
        out_dir = Path("golden_out") / fixture
        argv = ["run", f"fixtures/{fixture}.abms", "--seed", str(FIXTURE_SEED),
                "--ticks", str(workloads.FIXTURE_TICKS), "--out-dir", out_dir.as_posix()]
        code, _ = cli_call(cli, argv)
        produced = out_dir / csv_name
        same = code == 0 and produced.exists() and produced.read_bytes() == (golden / reference).read_bytes()
        checks.add(f"golden {reference}", same, f"exit {code}")
    code, _ = cli_call(cli, ["gen", "fixtures/measles.abms", "--out-dir", "golden_out/gen"])
    produced = Path("golden_out/gen/measles_outbreak.nlogo")
    same = code == 0 and produced.exists() and produced.read_bytes() == (golden / "measles.nlogo").read_bytes()
    checks.add("golden measles.nlogo", same, f"exit {code}")
    shutil.copy("fixtures/measles.abms", "golden_out/measles.abms")
    code, _ = cli_call(cli, ["fmt", "golden_out/measles.abms"])
    same = code == 0 and Path("golden_out/measles.abms").read_bytes() == (golden / "measles.formatted.abms").read_bytes()
    checks.add("golden measles.formatted.abms", same, f"exit {code}")
    return {"checks": checks.items}


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[1] == "goldens":
        result = run_goldens(Path(argv[0]))
    elif len(argv) == 4:
        result = run_sample(Path(argv[0]), argv[1], int(argv[2]), argv[3] == "1")
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
