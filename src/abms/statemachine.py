"""Triggered state machines: the substrate of declared machines and diseases.

Stepping decides and ``force_state`` enters.  Each step counts the dwell and
returns the target of the first outgoing transition, in declaration order,
whose guard holds and whose trigger fires, or its abort state with the
abortion's probability (how death on leaving a compartment works).  No state
is special here, ``Dead`` included: the engine skips declared machines in Dead,
enters machine states at once and disease states after the agent phase.  A
run steps each spec as a :class:`Machine`, its expressions compiled once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Union

from . import expr as ex
from .errors import AbmsError

DEAD_STATE = "Dead"


@dataclass
class ProbabilisticTrigger:
    """Fires with per-tick probability ``rate`` (a Bernoulli draw each step)."""

    rate: ex.Expr


@dataclass
class DeterministicTrigger:
    """Fires once the instance has spent ``ticks`` steps in the state."""

    ticks: ex.Expr


@dataclass
class ConditionalTrigger:
    """Fires on any step where ``condition`` evaluates to true."""

    condition: ex.Expr


@dataclass
class CompositeTrigger:
    """Combines sub-triggers: ``all_of`` fires when every part fires this step,
    ``any_of`` when at least one does."""

    mode: str  # "all_of" | "any_of"
    parts: list["Trigger"]


Trigger = Union[ProbabilisticTrigger, DeterministicTrigger, ConditionalTrigger, CompositeTrigger]


@dataclass
class Abortion:
    probability: ex.Expr
    abort_to: str


@dataclass
class Transition:
    source: str
    target: str
    trigger: Trigger | None  # None only in structural skeletons
    guard: ex.Expr | None = None
    abortion: Abortion | None = None


@dataclass
class StateMachineSpec:
    name: str
    states: list[str]
    initial: str
    transitions: list[Transition]


@dataclass(frozen=True)
class Machine:
    """A machine compiled for one run by :func:`compile_machine`."""

    spec: StateMachineSpec
    transitions: dict[str, list[tuple]]  # state -> (guard, fires, abort, abort_to, target) in declaration order


@dataclass
class MachineInstance:
    """Per-agent runtime state of one machine.  ``tally``, when given, counts
    the instances of its agent type in each state: it holds counts only, so an
    instance refers to no agent."""

    machine: Machine
    current: str
    dwell: int = 0
    tally: dict[str, int] | None = field(default=None, repr=False, compare=False)


class MachineError(AbmsError):
    pass


RATE = (0, 1, "rate")  # the bounds and name every rate is checked with


def compile_machine(spec: StateMachineSpec) -> Machine:
    """Compile every guard, trigger and abort probability of ``spec`` once."""
    transitions: dict[str, list[tuple]] = {}
    for tr in spec.transitions:
        guard = None if tr.guard is None else ex.compile_condition(tr.guard)
        abort, abort_to = (None, None) if tr.abortion is None else (
            ex.compile_number(tr.abortion.probability, *RATE), tr.abortion.abort_to)
        transitions.setdefault(tr.source, []).append((guard, compile_trigger(tr.trigger), abort, abort_to, tr.target))
    return Machine(spec, transitions)


def instantiate(machine: Machine, tally: dict[str, int] | None = None) -> MachineInstance:
    """Fresh instance sitting in the initial state with zero dwell, counted
    in ``tally`` if one is given."""
    initial = machine.spec.initial
    if tally is not None:
        tally[initial] = tally.get(initial, 0) + 1
    return MachineInstance(machine, initial, 0, tally)


def step(instance: MachineInstance, ctx: ex.Context, rng: random.Random) -> str | None:
    """Advance one tick and return the state the fired transition leads to
    (its abort state when the abortion draw hits), or None.  Enters nothing:
    the caller does, through ``force_state``.

    The dwell counter counts steps spent in the current state including the
    current one, so a deterministic trigger of d ticks fires on the d-th step.
    """
    instance.dwell += 1
    for guard, fires, abort, abort_to, target in instance.machine.transitions.get(instance.current, ()):
        if guard is not None and not guard(ctx):
            continue
        if fires(instance.dwell, ctx, rng):
            if abort is not None:
                p = abort(ctx)
                if rng.random() < p:
                    return abort_to
            return target
    return None


def force_state(instance: MachineInstance, state: str) -> None:
    """Place the instance in ``state``: every state is entered here, the
    targets ``step`` returns and the engine's infections and introductions
    alike, ``Dead`` included, so the instance's tally moves one count here.
    Resets dwell."""
    if (tally := instance.tally) is not None:
        tally[instance.current] -= 1
        tally[state] = tally.get(state, 0) + 1
    instance.current = state
    instance.dwell = 0


def below(getrandbits, n: int) -> int:
    """A uniform int in ``[0, n)``, ``n > 0``: draws exactly what
    ``rng.randrange(n)`` draws when ``getrandbits`` is ``rng.getrandbits``.
    This is CPython's ``Random._randbelow_with_getrandbits``, the same on
    3.10-3.13: ``n.bit_length()`` bits at a time until the value is below
    ``n``.  ``randrange`` takes that path for ``random.Random`` and for any
    subclass that overrides ``getrandbits`` whenever it overrides ``random``.

    The engine reads ``world.rng.getrandbits`` when it draws, never when the
    world is built: a generator swapped in after that is the one drawn from."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def compile_trigger(trigger: Trigger):
    """Compile ``trigger`` into ``fires(dwell, ctx, rng) -> bool``."""
    if isinstance(trigger, ProbabilisticTrigger):
        rate = ex.compile_number(trigger.rate, *RATE)
        return lambda dwell, ctx, rng: rng.random() < rate(ctx)
    if isinstance(trigger, DeterministicTrigger):
        ticks = ex.compile_number(trigger.ticks, 0, None, "duration")
        return lambda dwell, ctx, rng: dwell >= ticks(ctx)
    if isinstance(trigger, ConditionalTrigger):
        condition = ex.compile_condition(trigger.condition)
        return lambda dwell, ctx, rng: condition(ctx)
    if isinstance(trigger, CompositeTrigger):
        # Every part is evaluated (draws included) so composition is order-free.
        parts = [compile_trigger(p) for p in trigger.parts]
        combine = all if trigger.mode == "all_of" else any
        return lambda dwell, ctx, rng: combine([fires(dwell, ctx, rng) for fires in parts])
    raise MachineError(f"unknown trigger {type(trigger).__name__}")
