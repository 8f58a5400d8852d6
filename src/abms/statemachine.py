"""Triggered state machines: the substrate of declared machines and diseases.

Stepping decides and ``force_state`` enters.  Each step counts the dwell and
returns the target of the first outgoing transition, in declaration order,
whose guard holds and whose trigger fires, or its abort state with the
abortion's probability (how death on leaving a compartment works).  No state
is special here, ``Dead`` included: the engine skips declared machines in Dead,
enters machine states at once and disease states after the agent phase.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Union

from . import expr as ex
from .errors import AbmsError
from .source import SourceSpan

DEAD_STATE = "Dead"


@dataclass
class ProbabilisticTrigger:
    """Fires with per-tick probability ``rate`` (a Bernoulli draw each step)."""

    rate: ex.Expr
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


@dataclass
class DeterministicTrigger:
    """Fires once the instance has spent ``ticks`` steps in the state."""

    ticks: ex.Expr
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


@dataclass
class ConditionalTrigger:
    """Fires on any step where ``condition`` evaluates to true."""

    condition: ex.Expr
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


@dataclass
class CompositeTrigger:
    """Combines sub-triggers: ``all_of`` fires when every part fires this step,
    ``any_of`` when at least one does."""

    mode: str  # "all_of" | "any_of"
    parts: list["Trigger"]
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


Trigger = Union[ProbabilisticTrigger, DeterministicTrigger, ConditionalTrigger, CompositeTrigger]


@dataclass
class Abortion:
    probability: ex.Expr
    abort_to: str
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


@dataclass
class Transition:
    source: str
    target: str
    trigger: Trigger | None  # None only in structural skeletons
    guard: ex.Expr | None = None
    abortion: Abortion | None = None
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


@dataclass
class StateMachineSpec:
    name: str
    states: list[str]
    initial: str
    transitions: list[Transition]
    span: SourceSpan | None = field(default=None, compare=False, repr=False)
    _by_state: dict[str, tuple[Transition, ...]] | None = field(default=None, init=False, compare=False, repr=False)

    def transitions_from(self, state: str) -> tuple[Transition, ...]:
        """Outgoing transitions of ``state`` in declaration order.  They are
        keyed by state on first use, so the spec must not change after that."""
        if self._by_state is None:
            by_state: dict[str, list[Transition]] = {}
            for t in self.transitions:
                by_state.setdefault(t.source, []).append(t)
            self._by_state = {source: tuple(ts) for source, ts in by_state.items()}
        return self._by_state.get(state, ())


@dataclass
class MachineInstance:
    """Per-agent runtime state of one machine."""

    spec: StateMachineSpec
    current: str
    dwell: int = 0


class MachineError(AbmsError):
    pass


def instantiate(spec: StateMachineSpec) -> MachineInstance:
    """Fresh instance sitting in the initial state with zero dwell."""
    return MachineInstance(spec=spec, current=spec.initial)


def step(instance: MachineInstance, ctx: ex.Context, rng: random.Random) -> str | None:
    """Advance one tick and return the state the fired transition leads to
    (its abort state when the abortion draw hits), or None.  Enters nothing:
    the caller does, through ``force_state``.

    The dwell counter counts steps spent in the current state including the
    current one, so a deterministic trigger of d ticks fires on the d-th step.
    """
    instance.dwell += 1
    for tr in instance.spec.transitions_from(instance.current):
        if tr.guard is not None and ex.evaluate_condition(tr.guard, ctx) is False:
            continue
        if trigger_fires(tr.trigger, instance.dwell, ctx, rng):
            if tr.abortion is not None:
                p = ex.evaluate_number(tr.abortion.probability, ctx, 0, 1, "rate")
                if rng.random() < p:
                    return tr.abortion.abort_to
            return tr.target
    return None


def force_state(instance: MachineInstance, state: str) -> None:
    """Place the instance in ``state``: every state is entered here, the
    targets ``step`` returns and the engine's infections and introductions
    alike, ``Dead`` included.  Resets dwell."""
    instance.current = state
    instance.dwell = 0


def trigger_fires(trigger: Trigger, dwell: int, ctx: ex.Context, rng: random.Random) -> bool:
    if isinstance(trigger, ProbabilisticTrigger):
        return rng.random() < ex.evaluate_number(trigger.rate, ctx, 0, 1, "rate")
    if isinstance(trigger, DeterministicTrigger):
        return dwell >= ex.evaluate_number(trigger.ticks, ctx, 0, None, "duration")
    if isinstance(trigger, ConditionalTrigger):
        return ex.evaluate_condition(trigger.condition, ctx)
    if isinstance(trigger, CompositeTrigger):
        # Every part is evaluated (draws included) so composition is order-free.
        results = [trigger_fires(p, dwell, ctx, rng) for p in trigger.parts]
        return all(results) if trigger.mode == "all_of" else any(results)
    raise MachineError(f"unknown trigger {type(trigger).__name__}")
