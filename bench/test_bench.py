"""Tests of the benchmark itself (not of the program).

    python3 -m pytest bench/test_bench.py -q
    python3 -m unittest discover -s bench -p "test_*.py"
"""

from __future__ import annotations

import shutil
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import run_bench  # noqa: E402
import sample  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from abms import engine, parse_model  # noqa: E402


def _files(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class GeneratorTest(unittest.TestCase):
    def setUp(self) -> None:
        self.tmp = Path(tempfile.mkdtemp())

    def tearDown(self) -> None:
        shutil.rmtree(self.tmp)

    def test_same_seed_same_bytes(self) -> None:
        for name in workloads.WORKLOADS:
            workloads.generate(name, 7, self.tmp / name / "a")
            workloads.generate(name, 7, self.tmp / name / "b")
            self.assertEqual(_files(self.tmp / name / "a"), _files(self.tmp / name / "b"), name)

    def test_seed_changes_inputs(self) -> None:
        for name in ("sir_grid", "traffic_grid"):
            workloads.generate(name, 1, self.tmp / name / "a")
            workloads.generate(name, 2, self.tmp / name / "b")
            self.assertNotEqual(_files(self.tmp / name / "a"), _files(self.tmp / name / "b"), name)
        workloads.generate_corpus(1, self.tmp / "corpus" / "a")
        workloads.generate_corpus(2, self.tmp / "corpus" / "b")
        self.assertNotEqual(_files(self.tmp / "corpus" / "a"), _files(self.tmp / "corpus" / "b"))

    def test_corpus_size_and_shared_by_workloads(self) -> None:
        models = workloads.generate("sir_cart", 3, self.tmp / "sir_cart")
        workloads.generate("traffic_grid", 3, self.tmp / "traffic_grid")
        self.assertEqual(models[0].name, "sir_cart.abms")
        for path in models[1:]:
            lines = path.read_text().count("\n")
            self.assertTrue(700 <= lines <= 1000, f"{path.name}: {lines} lines")
            self.assertEqual(path.read_bytes(), (self.tmp / "traffic_grid" / path.name).read_bytes(), path.name)


class TracerTest(unittest.TestCase):
    """Traced and untraced runs must be the same run."""

    def _run(self, fixture: str, ticks: int, traced: bool):
        model = parse_model((ROOT / "fixtures" / fixture).read_text(), fixture)
        config = engine.RunConfig(seed=5, max_ticks=ticks, base_dir=ROOT / "fixtures")
        tr = tracer.install() if traced else None
        try:
            world = engine.build_world(model, config)
            digests = [world.digest()]
            for _ in range(ticks):
                engine.tick(world)
                digests.append(world.digest())
        finally:
            if tr is not None:
                tr.uninstall()
        return world, digests, tr

    def test_digests_and_rng_stream_unchanged(self) -> None:
        for fixture, ticks in (("measles.abms", 40), ("traffic.abms", 60)):
            plain, plain_digests, _ = self._run(fixture, ticks, traced=False)
            traced, traced_digests, tr = self._run(fixture, ticks, traced=True)
            self.assertEqual(plain_digests, traced_digests, fixture)
            self.assertEqual(plain.rng.getstate(), traced.rng.getstate(), fixture)
            self.assertIsInstance(traced.rng, tracer.CountingRandom)
            self.assertGreater(tr.rng_draws(), 0)
            self.assertEqual(tr.calls["engine.tick"], ticks)
            self.assertEqual(tr.missing, [])

    def test_counting_random_matches_random(self) -> None:
        import random

        plain, counted = random.Random(3), tracer.CountingRandom(3)
        draws = [(plain.randrange(9), plain.random(), plain.sample(range(50), 5)) for _ in range(100)]
        again = [(counted.randrange(9), counted.random(), counted.sample(range(50), 5)) for _ in range(100)]
        self.assertEqual(draws, again)
        self.assertGreaterEqual(counted.draws, 700)

    def test_uninstall_restores_functions(self) -> None:
        before = (engine.tick, engine.build_world, engine.AgentContext.__init__)
        tracer.install().uninstall()
        self.assertEqual(before, (engine.tick, engine.build_world, engine.AgentContext.__init__))

    def test_agent_ticks_agree_with_csv(self) -> None:
        model = parse_model((ROOT / "fixtures" / "measles.abms").read_text(), "measles.abms")
        out = Path(tempfile.mkdtemp())
        tr = tracer.install()
        try:
            engine.run(model, engine.RunConfig(seed=42, max_ticks=60, out_dir=out, base_dir=ROOT / "fixtures"))
        finally:
            tr.uninstall()
        rows = sample.read_csv(out / "out.csv")
        shutil.rmtree(out)
        self.assertEqual(tr.counts["engine.agent_ticks"], sample.agent_ticks(rows, {}, 60, True))


class ReferenceSpeedTest(unittest.TestCase):
    """End-to-end timings are medians at reference machine speed."""

    def test_at_reference(self) -> None:
        ref = sample.PROBE_REFERENCE_S
        self.assertAlmostEqual(sample.at_reference(3.0, ref, ref), 3.0)
        self.assertAlmostEqual(sample.at_reference(3.0, 2 * ref, 2 * ref), 1.5)
        self.assertAlmostEqual(sample.at_reference(3.0, ref, 3 * ref), 1.5)

    def test_end_to_end_uses_reference_medians(self) -> None:
        samples = [
            {"trace": 0, "agent_ticks": 100, "frontend_lines": 50, "peak_rss_mb": 30.0, "run_s": 9.0,
             "reference": {"setup_s": 0.1 * k, "run_s": 2.0 * k, "frontend_s": 0.5 * k}}
            for k in (1, 2, 3)
        ]
        units = {"run_s": "s", "agent_ticks_per_s": "1/s", "setup_s": "s", "frontend_s": "s",
                 "frontend_lines_per_s": "1/s", "peak_rss_mb": "MB"}
        metrics = {k: v["value"] for k, v in run_bench.end_to_end(samples, units).items()}
        self.assertAlmostEqual(metrics["run_s"], 4.0)
        self.assertAlmostEqual(metrics["agent_ticks_per_s"], 25.0)
        self.assertAlmostEqual(metrics["setup_s"], 0.2)
        self.assertAlmostEqual(metrics["frontend_lines_per_s"], 150.0)


class CheckTest(unittest.TestCase):
    """Output checks of run_bench on synthetic samples."""

    DIGESTS = {"run m.abms: out.csv": "aa", "run m.abms: world": "bb", "validate m.abms": "0:cc"}

    def _sample(self, digests: dict, agent_ticks: int = 100) -> dict:
        return {"checks": [{"op": "run m.abms", "ok": True, "detail": ""}], "digests": dict(digests),
                "agent_ticks": agent_ticks}

    def _check(self, samples: list[dict], seed: int = run_bench.REFERENCE_SEED) -> tuple[int, int, list[str]]:
        references = {"w": {"digests": dict(self.DIGESTS)}}
        return run_bench.check("w", seed, {"checks": []}, samples, references)

    def test_matching_outputs_pass(self) -> None:
        attempted, failed, _ = self._check([self._sample(self.DIGESTS), self._sample(self.DIGESTS)])
        self.assertEqual((attempted, failed), (10, 0))

    def test_missing_pinned_output_fails(self) -> None:
        produced = {k: v for k, v in self.DIGESTS.items() if k != "run m.abms: out.csv"}
        _, failed, notes = self._check([self._sample(produced), self._sample(produced)])
        self.assertEqual(failed, 2)
        self.assertTrue(any("pinned" in note for note in notes))

    def test_output_missing_from_one_sample_fails(self) -> None:
        produced = {k: v for k, v in self.DIGESTS.items() if k != "run m.abms: world"}
        _, failed, _ = self._check([self._sample(self.DIGESTS), self._sample(produced)], seed=1)
        self.assertEqual(failed, 1)

    def test_no_agent_ticks_fails(self) -> None:
        _, failed, _ = self._check([self._sample(self.DIGESTS, agent_ticks=0)])
        self.assertEqual(failed, 1)


class TracedCheckTest(unittest.TestCase):
    def _traced(self, missing: list[str], draws: int = 7) -> dict:
        return {"trace": 1, "digests": {"x": "1"}, "missing_wrappers": missing,
                "layers": {"engine.rng_draws": draws, "engine.tick_s": 0.5}}

    def test_missing_wrapper_target_fails(self) -> None:
        patched = tracer.Tracer()
        patched.patch("abms.engine", "no_such_function", lambda fn: fn)
        self.assertEqual(patched.missing, ["abms.engine.no_such_function"])
        samples = [{"trace": 0, "digests": {"x": "1"}}, self._traced(patched.missing), self._traced([])]
        self.assertEqual(run_bench.check_traced(samples)[:2], (2, 1))

    def test_counters_must_repeat(self) -> None:
        samples = [{"trace": 0, "digests": {"x": "1"}}, self._traced([], 7), self._traced([], 8)]
        self.assertEqual(run_bench.check_traced(samples)[:2], (2, 1))
        samples[2] = self._traced([], 7)
        self.assertEqual(run_bench.check_traced(samples)[:2], (2, 0))


class CompareTest(unittest.TestCase):
    def test_noisy_parent_is_unresolved(self) -> None:
        parent = [1.0, 1.4, 0.8, 1.2, 0.9, 1.3, 1.1, 0.7, 1.5, 1.0]
        change = [v * 1.05 for v in parent]
        self.assertEqual(compare.verdict(parent, change, "lower", 0.1, 0, 10), "unresolved")

    def test_all_runs_better_resolves_noise(self) -> None:
        parent = [1.0, 1.4, 0.8, 1.2, 0.9]
        change = [0.5, 0.6, 0.55, 0.7, 0.65]
        self.assertEqual(compare.verdict(parent, change, "lower", 0.1, 5, 5), "improved")

    def test_regression_beyond_bound(self) -> None:
        parent = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98]
        change = [1.2, 1.21, 1.19, 1.2, 0.97, 1.22]
        self.assertEqual(compare.verdict(parent, change, "lower", 0.1, 1, 6), "regressed")

    def test_small_steady_gain_needs_nine_tenths(self) -> None:
        parent = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
        change = [0.95, 0.96, 0.94, 0.95, 0.97, 0.93, 0.95, 0.96, 0.94, 1.03]
        self.assertEqual(compare.verdict(parent, change, "lower", 0.1, 9, 10), "improved")
        self.assertEqual(compare.verdict(parent, change, "lower", 0.1, 8, 10), "unchanged")

    def test_higher_is_better(self) -> None:
        parent = [100.0, 101.0, 99.0, 100.0]
        self.assertEqual(compare.verdict(parent, [80.0, 81.0, 79.0, 120.0], "higher", 0.1, 1, 4), "regressed")
        self.assertEqual(compare.verdict(parent, [120.0, 121.0, 119.0, 122.0], "higher", 0.1, 4, 4), "improved")

    def test_pairs_by_seed(self) -> None:
        self.assertEqual(compare.pairs_won({1: 1.0, 2: 1.0, 3: 1.0}, {1: 0.9, 2: 1.0, 4: 0.1}, "lower"), (1, 2))

    def test_layer_metrics_have_no_verdict(self) -> None:
        self.assertEqual(compare.verdict([1.0], [2.0], "lower", None, 0, 1), "-")

    def test_invariant_counter_change_is_flagged(self) -> None:
        spec = {"end_to_end": [], "per_layer": [{"name": "engine.rng_draws", "unit": "count", "better": "lower"},
                                                {"name": "disease.candidates", "unit": "count", "better": "lower"}]}

        def records(draws: int, candidates: int) -> list[dict]:
            metrics = {"engine.rng_draws": {"value": draws}, "disease.candidates": {"value": candidates}}
            return [{"workload": "w", "seed": seed, "result": {"metrics": metrics}} for seed in (1, 2)]

        rows = {r["metric"]: r["verdict"] for r in compare.compare(records(500, 90), records(499, 40), spec)}
        self.assertEqual(rows, {"engine.rng_draws": "CHANGED", "disease.candidates": "-"})
        rows = {r["metric"]: r["verdict"] for r in compare.compare(records(500, 90), records(500, 40), spec)}
        self.assertEqual(rows["engine.rng_draws"], "equal")


if __name__ == "__main__":
    unittest.main()
