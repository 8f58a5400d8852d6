"""Side-by-side view of two result sets of the benchmark.

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records ``run_bench.py --record`` appends, typically ten
runs per workload with different seeds.  One row per workload and metric
shows each side's median and quartiles, the pairs the change won (runs with
the same seed are paired; ties count for neither side) and a verdict:

* ``improved``: every change run beats every parent run, or the change wins
  at least nine tenths of the pairs and the medians differ by more than the
  parent's interquartile range;
* ``unresolved``: the parent's own spread (interquartile range over median)
  exceeds the metric's bound, so a difference within it cannot be told from
  noise;
* ``regressed``: the change's median is worse than the parent's by more than
  the bound;
* ``unchanged``: none of the above.

Per-layer metrics have no bound; their rows show figures only, except for
the counters in ``INVARIANT``.  A change that keeps behaviour leaves those
exactly equal for every workload and seed, so their verdict is ``equal`` or
``CHANGED``.  Records of runs with the same workload and seed are also
checked for identical output digests, so a change in behaviour shows next
to the timings.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

# Traced counters that must not move unless behaviour changes: the PRNG draws
# from world creation on, and the ticks and agent-ticks simulated.
INVARIANT = ("engine.rng_draws", "engine.agent_ticks", "engine.tick_calls")


def load(path: str) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text(encoding="utf-8").splitlines() if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def pairs_won(parent: dict[int, float], change: dict[int, float], better: str) -> tuple[int, int]:
    """(pairs the change won, pairs) over the seeds both sides ran."""
    seeds = sorted(set(parent) & set(change))
    sign = 1 if better == "lower" else -1
    won = sum(1 for s in seeds if sign * change[s] < sign * parent[s])
    return won, len(seeds)


def verdict(parent: list[float], change: list[float], better: str, bound: float | None, won: int, pairs: int) -> str:
    if bound is None:
        return "-"
    sign = 1 if better == "lower" else -1
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    if all(sign * c < sign * p for c in change for p in parent):
        return "improved"
    if spread(parent) > bound:
        return "unresolved"
    if sign * (c_med - p_med) / abs(p_med) > bound:
        return "regressed"
    if pairs and won >= 0.9 * pairs and sign * (p_med - c_med) > p_q3 - p_q1:
        return "improved"
    return "unchanged"


def invariant_verdict(parent: dict[int, float], change: dict[int, float]) -> str:
    """``equal`` if every seed both sides ran gives the same value."""
    seeds = set(parent) & set(change)
    return "equal" if all(parent[s] == change[s] for s in seeds) else "CHANGED"


def series(records: list[dict]) -> dict[tuple[str, str], dict[int, float]]:
    out: dict[tuple[str, str], dict[int, float]] = {}
    for record in records:
        for name, metric in record["result"]["metrics"].items():
            out.setdefault((record["workload"], name), {})[record["seed"]] = metric["value"]
    return out


def compare(parent: list[dict], change: list[dict], spec: dict) -> list[dict]:
    kinds = {m["name"]: m for m in spec["end_to_end"]} | {m["name"]: m for m in spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    p_series, c_series = series(parent), series(change)
    rows = []
    for key in sorted(set(p_series) & set(c_series)):
        workload, name = key
        better = kinds.get(name, {}).get("better", "lower")
        p, c = p_series[key], c_series[key]
        won, pairs = pairs_won(p, c, better)
        if name in INVARIANT:
            ruling = invariant_verdict(p, c)
        else:
            ruling = verdict(list(p.values()), list(c.values()), better, bounds.get(name), won, pairs)
        rows.append({
            "workload": workload,
            "metric": name,
            "unit": kinds.get(name, {}).get("unit", ""),
            "parent": quartiles(list(p.values())),
            "change": quartiles(list(c.values())),
            "parent_spread": spread(list(p.values())),
            "won": won,
            "pairs": pairs,
            "verdict": ruling,
        })
    return rows


def behaviour(parent: list[dict], change: list[dict]) -> list[str]:
    """Workload/seed runs whose output digests differ between the sides."""
    digests = {(r["workload"], r["seed"]): r["digests"] for r in parent}
    return sorted(
        f"{r['workload']} seed {r['seed']}"
        for r in change
        if (r["workload"], r["seed"]) in digests and digests[(r["workload"], r["seed"])] != r["digests"]
    )


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    parent, change = load(argv[0]), load(argv[1])
    header = f"{'workload':16s} {'metric':36s} {'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s} {'won':>7s}  verdict"
    print(header)
    rows = compare(parent, change, spec)
    for row in rows:
        p, c = row["parent"], row["change"]
        print(
            f"{row['workload']:16s} {row['metric']:36s} {_fmt(p):>34s} {_fmt(c):>34s} "
            f"{row['won']:>3d}/{row['pairs']:<3d}  {row['verdict']}"
        )
    changed = behaviour(parent, change)
    print("outputs: " + ("identical on every shared workload and seed" if not changed else "DIFFER for " + ", ".join(changed)))
    moved = [f"{r['workload']} {r['metric']}" for r in rows if r["verdict"] == "CHANGED"]
    if moved:
        print("invariant counters CHANGED: " + ", ".join(moved))
    return 0


def _fmt(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
