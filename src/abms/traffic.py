"""Adaptive signal control: streams, phases, plans, and tabular Q-learning.

A plan is an ordered cycle of phases of whole-tick durations, which each engine
controller counts through; ``plan_to_machine`` writes it as a state machine.
Learning controllers pick a plan per cycle with an epsilon-greedy policy over
a table of action values keyed by discretized queue lengths.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Sequence

from . import expr as ex
from . import statemachine as sm


@dataclass
class StreamSpec:
    """One incoming traffic stream of a controller.

    ``edge`` names the incoming edge as a pair of node ids; it is None for
    auto streams, where stream ``s<i>`` is the controller's i-th incoming
    edge ordered by neighbor node id.
    """

    stream_id: str
    edge: tuple[str, str] | None = None
    capacity: int | None = None


@dataclass
class PhaseSpec:
    name: str
    green: list[str]  # stream ids set to green while the phase is active
    duration: int


@dataclass
class PlanSpec:
    name: str
    phases: list[PhaseSpec]

    def cycle_length(self) -> int:
        return sum(p.duration for p in self.phases)


@dataclass
class QLearningSpec:
    alpha: float
    gamma: float
    epsilon: float
    plans: list[str]  # actions, in declaration order
    bins: list[int]  # queue-length discretization thresholds, strictly increasing
    reward: ex.Expr | None = None  # default: negated stopped-vehicle count


# Action values keyed by (discretized state, action name); missing = 0.
QTable = dict[tuple[tuple, str], float]


def plan_to_machine(plan: PlanSpec) -> sm.StateMachineSpec:
    """Cyclic machine over the plan's phases; a single phase self-loops."""
    states = [p.name for p in plan.phases]
    transitions = []
    n = len(plan.phases)
    for i, phase in enumerate(plan.phases):
        transitions.append(
            sm.Transition(
                source=phase.name,
                target=states[(i + 1) % n],
                trigger=sm.DeterministicTrigger(ex.lit(phase.duration)),
            )
        )
    return sm.StateMachineSpec(name=plan.name, states=states, initial=states[0], transitions=transitions)


def discretize_state(queues: Sequence[int], bins: Sequence[int]) -> tuple[int, ...]:
    """Map each queue length to the index of the first threshold >= count;
    counts above every threshold map to len(bins)."""
    return tuple(bisect_left(bins, q) for q in queues)


def q_update(table: QTable, s: tuple, a: str, r: float, s_next: tuple, spec: QLearningSpec) -> None:
    """One temporal-difference backup:
    Q(s,a) += alpha * (r + gamma * max_a' Q(s',a') - Q(s,a))."""
    best_next = max(table.get((s_next, action), 0.0) for action in spec.plans)
    old = table.get((s, a), 0.0)
    table[s, a] = old + spec.alpha * (r + spec.gamma * best_next - old)


def select_action(
    table: QTable,
    s: tuple,
    actions: Sequence[str],
    epsilon: float,
    rng: random.Random,
) -> str:
    """Epsilon-greedy: explore uniformly with probability epsilon, otherwise
    take the argmax, ties broken by lowest declaration index."""
    if not actions:
        raise ValueError("select_action requires at least one action")
    if rng.random() < epsilon:
        return actions[sm.below(rng.getrandbits, len(actions))]
    best = actions[0]
    best_value = table.get((s, best), 0.0)
    for action in actions[1:]:
        value = table.get((s, action), 0.0)
        if value > best_value:
            best, best_value = action, value
    return best


def validate_plan(plan: PlanSpec, add: Callable[[str, str, str], None], path: str) -> None:
    if not plan.phases:
        add("error", path, "plan declares no phases")
    names: set[str] = set()
    for phase in plan.phases:
        ppath = f"{path}.phase:{phase.name}"
        if phase.name in names:
            add("error", ppath, "duplicate phase name")
        names.add(phase.name)
        if phase.duration < 1:
            add("error", ppath, "phase duration must be at least 1 tick")
        if not phase.green:
            add("error", ppath, "phase must set at least one stream green")


def validate_qlearning(spec: QLearningSpec, add: Callable[[str, str, str], None], path: str) -> None:
    for label, value in (("alpha", spec.alpha), ("gamma", spec.gamma), ("epsilon", spec.epsilon)):
        if not 0.0 <= value <= 1.0:
            add("error", path, f"{label} {value} outside [0, 1]")
    if not spec.plans:
        add("error", path, "learning requires at least one plan to choose from")
    elif len(spec.plans) < 2:
        add("warning", path, "learning over a single plan cannot improve anything")
    if len(set(spec.plans)) != len(spec.plans):
        add("error", path, "duplicate plan names in action list")
    if any(b2 <= b1 for b1, b2 in zip(spec.bins, spec.bins[1:])):
        add("error", path, "discretization thresholds must be strictly increasing")
