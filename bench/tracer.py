"""Per-layer tracing from outside the program.

:func:`install` wraps public functions of the ``abms`` modules in place and
returns a :class:`Tracer` that collects, per layer, time spent (total and
self time), calls made and a few work counters.  Nothing under ``src/``
changes; the wrappers only observe arguments and results, so a traced run
draws the same random numbers and produces the same outputs as an untraced
one.

A name that a module imported with ``from ... import`` is wrapped in the
importing module's namespace (``engine.load_osm_graph``, the parser's
``tokenize``, the cli's ``parse`` and ``format_model``), because that is the
binding the caller looks up.
"""

from __future__ import annotations

import functools
import importlib
import random
import time

# (module, attribute, span name): timed spans.  A span's self time is its
# duration minus the time of the spans opened inside it.
SPANS = [
    ("abms.cli", "main", "cli"),
    ("abms.cli", "parse", "dsl.parse"),
    ("abms.cli", "format_model", "dsl.format_model"),
    ("abms.metamodel", "validate", "metamodel.validate"),
    ("abms.codegen", "generate", "codegen.generate"),
    ("abms.engine", "run", "engine.run"),
    ("abms.engine", "build_world", "engine.build_world"),
    ("abms.engine", "load_osm_graph", "ingest.load_osm_graph"),
    ("abms.engine", "load_gis_points", "ingest.load_gis_points"),
    ("abms.engine", "tick", "engine.tick"),
    ("abms.engine", "mobility_step", "engine.mobility_step"),
    ("abms.engine", "sample_output", "engine.sample_output"),
    ("abms.engine", "RunResult.csv_text", "engine.csv_text"),
    ("abms.statemachine", "step", "statemachine.step"),
    ("abms.disease", "attempt_transmission", "disease.attempt_transmission"),
    ("abms.disease", "introduce", "disease.introduce"),
    ("abms.disease", "evaluate_mortality", "disease.evaluate_mortality"),
    ("abms.traffic", "plan_to_machine", "traffic.plan_to_machine"),
    ("abms.traffic", "q_update", "traffic.q_update"),
    ("abms.traffic", "select_action", "traffic.select_action"),
]

# (module, attribute, counter name): call counters without timing, for
# functions called too often (or too deep inside others) to time.
COUNTERS = [
    ("abms.metamodel", "Model.agent_type", "metamodel.agent_type_calls"),
    ("abms.metamodel", "AgentTypeSpec.capability", "metamodel.capability_calls"),
    ("abms.engine", "AgentContext.__init__", "engine.agent_contexts"),
    ("abms.expr", "evaluate", "expr.evaluate_calls"),
]


class _Frame:
    __slots__ = ("child", "wrapped")

    def __init__(self) -> None:
        self.child = 0.0  # seconds covered by spans opened directly inside
        self.wrapped = 0  # wrapper entries directly inside (their cost lands here)


class CountingRandom(random.Random):
    """A ``random.Random`` that counts draws.

    Both ``random`` and ``getrandbits`` are overridden: overriding ``random``
    alone makes CPython switch ``_randbelow`` to a different algorithm, which
    changes ``randrange`` output.
    """

    draws = 0

    def random(self) -> float:
        self.draws += 1
        return super().random()

    def getrandbits(self, k: int) -> int:
        self.draws += 1
        return super().getrandbits(k)


class Tracer:
    def __init__(self) -> None:
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.stack: list[_Frame] = [_Frame()]
        self.rngs: list[CountingRandom] = []
        self.wrapper_cost = 0.0
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def span(self, name: str, fn, on_call=None):
        clock = time.perf_counter
        stack = self.stack
        total, self_time, calls = self.total, self.self_time, self.calls
        total.setdefault(name, 0.0)
        self_time.setdefault(name, 0.0)
        calls.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                # The hook's own work is tracing overhead, not the caller's.
                hook_start = clock()
                on_call(args, kwargs)
                stack[-1].child += clock() - hook_start
            stack[-1].wrapped += 1
            frame = _Frame()
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1].child += elapsed
                total[name] += elapsed
                self_time[name] += elapsed - frame.child - frame.wrapped * self.wrapper_cost
                calls[name] += 1
            return result

        return wrapper

    def counter(self, name: str, fn):
        stack = self.stack
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            stack[-1].wrapped += 1
            return fn(*args, **kwargs)

        return wrapper

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    # -- installation ---------------------------------------------------------

    def patch(self, module_name: str, dotted: str, make) -> None:
        owner = importlib.import_module(module_name)
        *path, attr = dotted.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.missing.append(f"{module_name}.{dotted}")
            return
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results ----------------------------------------------------------------

    def rng_draws(self) -> int:
        return sum(rng.draws for rng in self.rngs)


def install() -> Tracer:
    """Wrap the layer boundaries of the ``abms`` package; see the module doc."""
    tracer = Tracer()
    hooks = {
        "engine.tick": lambda args, kwargs: tracer.count("engine.agent_ticks", len(args[0].agents)),
        "disease.attempt_transmission": lambda args, kwargs: _count_candidates(tracer, *args, **kwargs),
    }
    for module_name, dotted, name in SPANS:
        tracer.patch(module_name, dotted, lambda fn, name=name: tracer.span(name, fn, hooks.get(name)))
    for module_name, dotted, name in COUNTERS:
        tracer.patch(module_name, dotted, lambda fn, name=name: tracer.counter(name, fn))
    tracer.patch("abms.dsl.parser", "tokenize", lambda fn: _result_counter(tracer, "dsl.tokens", fn, len))
    tracer.patch(
        "abms.codegen", "generate",
        lambda fn: _result_counter(tracer, "codegen.output_lines", fn, lambda result: result[0].count("\n")),
    )
    tracer.patch("abms.engine", "World.__init__", lambda fn: _counting_rng(tracer, fn))
    tracer.wrapper_cost = _calibrate()
    return tracer


def _count_candidates(tracer: Tracer, susceptible_ctx, candidates, spec, infectious, rng) -> None:
    infectious_set = set(infectious)
    sources = set(spec.sources)
    qualifying = sum(
        1
        for c in candidates
        if (c.type_name in sources if c.is_entity else c.disease_state in infectious_set)
    )
    tracer.count("disease.candidates", len(candidates))
    tracer.count("disease.qualifying_candidates", qualifying)


def _result_counter(tracer: Tracer, name: str, fn, size):
    """Wrap ``fn`` to add ``size(result)`` to counter ``name``."""
    tracer.counts.setdefault(name, 0)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        tracer.count(name, size(result))
        return result

    return wrapper


def _counting_rng(tracer: Tracer, init):
    """Swap the world's PRNG for a counting one right after creation, so
    draws made while building the world are counted too."""

    @functools.wraps(init)
    def wrapper(world, *args, **kwargs):
        init(world, *args, **kwargs)
        rng = CountingRandom()
        rng.setstate(world.rng.getstate())
        world.rng = rng
        tracer.rngs.append(rng)

    return wrapper


def _calibrate(n: int = 20000) -> float:
    """Seconds one counting wrapper adds to the span it sits in."""
    wrapped = Tracer().counter("calibration", _noop)
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(n):
            _noop()
        base = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(n):
            wrapped()
        best = min(best, (time.perf_counter() - start - base) / n)
    return max(best, 0.0)


def _noop() -> None:
    return None
