"""The per-agent rosters that phases 2 and 5 once kept, worked out afresh
from the predicates that filled them, kept as a test oracle:

- :func:`actors` is every agent with phase-2 work: a walk step, a signal
  plan, a declared machine or a disease;
- :func:`learners` is every agent whose controller learns.

Phases 2 and 5 now visit, type by type in creation order, the rosters in
``World.by_type`` of the types that ``World.actors`` and ``World.learners``
name (:func:`visits`).  After every tick they must visit exactly the agents
these predicates select, in ascending id order.
"""

from __future__ import annotations


def actors(world) -> list:
    """Every live agent with phase-2 work, in ascending id order."""
    return [a for a in world.agents.values() if a.type_name in world.walk_steps or a.machines or a.diseases
            or (a.controller is not None and a.controller.plan is not None)]


def learners(world) -> list:
    """Every live agent whose controller learns, in ascending id order."""
    return [a for a in world.agents.values() if a.controller is not None and a.controller.learner is not None]


def visits(world) -> tuple[list, list]:
    """The agents phases 2 and 5 visit on the next tick, in visiting order."""
    return ([a for name, _ in world.actors for a in world.by_type[name]],
            [a for name in world.learners for a in world.by_type[name]])


def assert_visits(world) -> None:
    """Phases 2 and 5 visit what the predicates select, and each acting type
    walks with its resolved step."""
    assert visits(world) == (actors(world), learners(world))
    assert all(step is world.walk_steps.get(name) for name, step in world.actors)
