"""The repository's benchmark: one seeded workload, measured end to end.

    python3 bench/run_bench.py --workload sir_grid --seed 1 --seconds 20 --trace 0
    python3 bench/run_bench.py --workload all --seed 42 --seconds 20
    python3 bench/run_bench.py ... --record results.jsonl   # for bench/compare.py

Run it from the root of a checkout.  It generates the workload's inputs from
the seed (see ``workloads.py``) into a scratch directory under
``.bench_work/``, checks the committed goldens once, then runs samples, each
in a fresh interpreter (``sample.py``), until ``--seconds`` have passed.  The
load is a closed loop with one client: one process, one command at a time.

Every output is checked.  At seed 42 the final ``World.digest()``, the
sha256 of every CSV and every front-end command's exit status and output
bytes must equal ``references.json``; at every seed they must agree across
all samples of the run.  Any mismatch or failure counts in ``failed``.

With ``--trace 0`` the end-to-end metrics are medians over the samples.  The
machine's speed changes by up to 2x within seconds, so each timing in a
sample is converted to a reference machine speed with the probe timed just
before and just after it (``sample.at_reference``); the wall-time medians
are printed beside them.  With ``--trace 1`` untraced and traced samples
alternate; the per-layer metrics come from the traced ones, the traced
digests must equal the untraced ones, and ``trace.overhead_ratio`` is traced
``run_s`` over untraced ``run_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed`` over
``attempted`` is the error rate.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

ROOT = Path.cwd()
PROGRAM = ROOT / "src" / "abms" / "cli.py"
FIXTURE_FILES = ("measles.abms", "natives.points", "traffic.abms", "network.osm")
REFERENCE_SEED = 42
REFERENCES = BENCH / "references.json"
TIMINGS = ("setup_s", "run_s", "frontend_s")
MIN_SAMPLES = 3
SAMPLE_TIMEOUT_S = 60  # a normal sample takes under 15 s even on a slow machine

class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# Samples


def run_child(args: list[str]) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "sample.py"), *args],
        capture_output=True,
        text=True,
        timeout=SAMPLE_TIMEOUT_S,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise BenchError(f"sample {' '.join(args)} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def prepare(name: str, seed: int, scratch: Path) -> Path:
    workdir = scratch / name
    workloads.generate(name, seed, workdir)
    fixtures = workdir / "fixtures"
    fixtures.mkdir()
    for file in FIXTURE_FILES:
        shutil.copy(ROOT / "fixtures" / file, fixtures / file)
    return workdir


def collect(workdir: Path, name: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Samples until ``seconds`` have passed (at least MIN_SAMPLES per kind).
    With ``trace`` untraced and traced samples alternate."""
    kinds = [False, True] if trace else [False]
    samples: list[dict] = []
    start = time.perf_counter()
    while True:
        for traced in kinds:
            samples.append(run_child([str(workdir), name, str(seed), "1" if traced else "0"]))
        elapsed = time.perf_counter() - start
        per_round = elapsed / (len(samples) / len(kinds))
        done = len(samples) >= MIN_SAMPLES * len(kinds)
        if done and elapsed + per_round / 2 > seconds:
            return samples


# ---------------------------------------------------------------------------
# Checks


def load_references() -> dict:
    if REFERENCES.exists():
        return json.loads(REFERENCES.read_text(encoding="utf-8"))
    return {}


def check(name: str, seed: int, goldens: dict, samples: list[dict], references: dict) -> tuple[int, int, list[str]]:
    """Count operations attempted and failed; return notes on each failure.

    Every sample's checks count, and so does every output it must match: the
    first sample's outputs and, at the reference seed, the pinned ones.  An
    output that is missing on either side is a mismatch.
    """
    attempted = failed = 0
    notes: list[str] = []
    for item in goldens["checks"]:
        attempted += 1
        if not item["ok"]:
            failed += 1
            notes.append(f"{item['op']}: mismatch ({item['detail']})")
    expected = samples[0]["digests"]
    pinned = references[name]["digests"] if seed == REFERENCE_SEED and name in references else None
    keys = set(expected) | set(pinned or {})
    if pinned is not None and pinned != expected:
        diff = sorted(k for k in keys if pinned.get(k) != expected.get(k))
        notes.append(f"differs from the pinned seed-{REFERENCE_SEED} references: {', '.join(diff)}")
    for sample in samples:
        for c in sample["checks"]:
            attempted += 1
            if not c["ok"]:
                failed += 1
                notes.append(f"{c['op']}: {c['detail']}")
        for key in sorted(keys | set(sample["digests"])):
            attempted += 1
            value = sample["digests"].get(key)
            if value != expected.get(key) or (pinned is not None and value != pinned.get(key)):
                failed += 1
                if value != expected.get(key):
                    notes.append(f"{key}: output differs between samples")
        attempted += 1
        layers = sample.get("layers")
        if sample["agent_ticks"] <= 0 or sample["agent_ticks"] != samples[0]["agent_ticks"]:
            failed += 1
            notes.append(f"agent-tick count {sample['agent_ticks']} (first sample {samples[0]['agent_ticks']})")
        elif layers is not None and layers["engine.agent_ticks"] != sample["agent_ticks"]:
            failed += 1
            notes.append(f"traced agent-tick count {layers['engine.agent_ticks']} != {sample['agent_ticks']}")
    return attempted, failed, notes


# ---------------------------------------------------------------------------
# Metrics


def reference_median(samples: list[dict], key: str) -> float:
    return statistics.median(s["reference"][key] for s in samples)


def end_to_end(samples: list[dict], units: dict) -> dict:
    untraced = [s for s in samples if not s["trace"]]
    run_s = reference_median(untraced, "run_s")
    frontend_s = reference_median(untraced, "frontend_s")
    values = {
        "run_s": run_s,
        "agent_ticks_per_s": untraced[0]["agent_ticks"] / run_s,
        "setup_s": reference_median(untraced, "setup_s"),
        "frontend_s": frontend_s,
        "frontend_lines_per_s": untraced[0]["frontend_lines"] * 3 / frontend_s,
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in untraced),
    }
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def per_layer(samples: list[dict], layer_units: dict) -> dict:
    traced = [s for s in samples if s["trace"]]
    untraced = [s for s in samples if not s["trace"]]
    values = {}
    for key in traced[0]["layers"]:
        series = [s["layers"][key] for s in traced]
        values[key] = statistics.median(series) if isinstance(series[0], float) else series[0]
    values["trace.overhead_ratio"] = reference_median(traced, "run_s") / reference_median(untraced, "run_s")
    values["machine.probe_s"] = statistics.median(s["probe_s"] for s in samples)
    return {k: {"value": values[k], "unit": layer_units[k]} for k in layer_units}


def check_traced(samples: list[dict]) -> tuple[int, int, list[str]]:
    """Checks of a traced run: every wrapper found its target, and the
    counters of the traced samples repeat exactly.  (Traced outputs are
    compared with the untraced ones in :func:`check`.)"""
    traced = [s for s in samples if s["trace"]]
    notes = []
    missing = sorted({m for s in traced for m in s["missing_wrappers"]})
    if missing:
        notes.append(f"wrapper targets gone from the program, their layers unmeasured: {', '.join(missing)}")
    first = traced[0]["layers"]
    unstable = [
        key for key, value in first.items()
        if not isinstance(value, float) and any(s["layers"][key] != value for s in traced[1:])
    ]
    if unstable:
        notes.append(f"counters differ between traced samples: {', '.join(unstable)}")
    same = all(s["digests"] == samples[0]["digests"] for s in traced)
    notes.append(f"traced outputs {'equal' if same else 'DIFFER FROM'} the untraced ones")
    return 2, int(bool(missing)) + int(bool(unstable)), notes


# ---------------------------------------------------------------------------
# Command line


def bench_one(name: str, seed: int, seconds: float, trace: bool, spec: dict, scratch: Path, references: dict) -> dict:
    workdir = prepare(name, seed, scratch)
    goldens = run_child([str(workdir), "goldens"])
    samples = collect(workdir, name, seed, seconds, trace)
    attempted, failed, notes = check(name, seed, goldens, samples, references)
    if trace:
        more, more_failed, more_notes = check_traced(samples)
        attempted, failed = attempted + more, failed + more_failed
        notes += more_notes
        metrics = per_layer(samples, {m["name"]: m["unit"] for m in spec["per_layer"]})
    else:
        metrics = end_to_end(samples, {m["name"]: m["unit"] for m in spec["end_to_end"]})
    untraced = [s for s in samples if not s["trace"]]
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "samples": len(untraced),
        "probe_s": [s["probe_s"] for s in samples],
        "wall": {key: [s[key] for s in untraced] for key in TIMINGS},
        "reference": {key: [s["reference"][key] for s in untraced] for key in TIMINGS},
        "digests": untraced[0]["digests"],
        "notes": notes,
        "result": {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics},
    }


def report(record: dict) -> None:
    result = record["result"]
    print(f"== {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{record['samples']} samples, machine probe median {statistics.median(record['probe_s']) * 1000:.1f} ms")
    for name, metric in result["metrics"].items():
        print(f"  {name:38s} {metric['value']:>16.6g} {metric['unit']}")
    for key in TIMINGS:
        print(f"  {'wall ' + key:38s} {statistics.median(record['wall'][key]):>16.6g} s (median, not converted)")
    rate = result["failed"] / result["attempted"]
    print(f"  {'error_rate':38s} {rate:>16.6g} ({result['failed']} of {result['attempted']} operations)")
    for note in record["notes"]:
        print(f"  note: {note}")
    print(f"  digests {json.dumps(record['digests'], sort_keys=True)}")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=None, help="measurement window per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None, help="append each run's record to this JSONL file")
    parser.add_argument("--pin", action="store_true",
                        help=f"write the observed seed-{REFERENCE_SEED} digests to references.json")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not PROGRAM.exists() or not spec_path.exists():
        print(f"error: run from the root of an abms checkout ({PROGRAM.relative_to(ROOT)} "
              "and BENCHMARK.json are needed)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    references = {} if args.pin else load_references()
    records = []
    with tempfile.TemporaryDirectory(dir=base) as scratch:
        for name in names:
            try:
                record = bench_one(name, args.seed, seconds, bool(args.trace), spec, Path(scratch), references)
            except (BenchError, subprocess.TimeoutExpired) as err:
                print(f"error: {name}: {err}", file=sys.stderr)
                return 1
            report(record)
            records.append(record)
    if args.record:
        with open(args.record, "a", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
    if args.pin:
        if args.seed != REFERENCE_SEED or any(r["result"]["failed"] for r in records):
            print(f"error: --pin needs --seed {REFERENCE_SEED} and a run without failures", file=sys.stderr)
            return 1
        references = load_references()
        references.update({r["workload"]: {"digests": r["digests"]} for r in records})
        REFERENCES.write_text(json.dumps(references, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    results = [r["result"] for r in records]
    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{r['workload']}.{k}": v for r in records for k, v in r["result"]["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
