"""The census that ``abms.engine`` keeps across ticks, worked out afresh as
the engine once did each tick, kept as a test oracle:

- :func:`count_by_roster` is how ``count(T where m is S)`` was counted, one
  ``machine_state`` call per member of the roster;
- :func:`recount` counts every (agent type, machine or disease) pair's states
  over ``World.by_type``, as the kept tallies must;
- :func:`index_sources` is the phase-2 scan that filed every disease's
  sources from all agents and entities, and its counts for ``_reach``.

The tallies must agree with them after every tick, and each kept index
with a fresh filing once phase 2 has filed it.
"""

from __future__ import annotations

from collections import Counter

from abms.engine import _BY_ID, SourceIndex, _reach


def count_by_roster(ctx, type_name: str, machine: str, state: str) -> int:
    """``count(type_name where machine is state)`` in ``ctx``, member by member."""
    return [member.machine_state(machine) for member in ctx.population(type_name)].count(state)


def recount(world) -> dict[tuple[str, str], Counter]:
    """Per (agent type, disease or machine), its agents in each state."""
    counts = {}
    for type_name, roster in world.by_type.items():
        for member in roster:
            for name, inst in (*getattr(member, "machines", {}).items(), *getattr(member, "diseases", {}).items()):
                counts.setdefault((type_name, name), Counter())[inst.current] += 1
    return counts


def index_sources(world) -> dict[str, SourceIndex]:
    """Each disease's index filed from all agents and entities, with the
    filing ``_reach`` gives the counts of this scan.  The world's stencil,
    which ``_reach`` may grow, is left as it was."""
    stencil, indexes = world.stencil, {}
    for name, disease in world.diseases.items():
        items, walking, susceptible = [], 0, 0
        for agent in world.agents.values():
            if (inst := agent.diseases.get(name)) is not None:
                if inst.current in disease.infectious:
                    items.append(agent)
                    walking += agent.type_name in world.walk_steps
                if inst.current == disease.susceptible:
                    susceptible += 1
        items += [e for e in world.entities.values() if e.type_name in disease.transmission.sources]
        items.sort(key=_BY_ID)
        indexes[name] = SourceIndex(world, items, *_reach(world, disease, len(items), walking, susceptible))
    world.stencil = stencil
    return indexes


def filed(index: SourceIndex) -> dict:
    """Each cell of ``index`` that holds a source, with its sources as a multiset of ids."""
    return {cell: Counter(item.id for item in bucket) for cell, bucket in (index.cells or {}).items() if bucket}


def assert_tallies(world) -> None:
    """Every tally equals a recount over the rosters."""
    counts = recount(world)
    assert counts.keys() <= world.tallies.keys()
    assert {key: Counter({state: n for state, n in tally.items() if n}) for key, tally in world.tallies.items()} == {
        key: counts.get(key, Counter()) for key in world.tallies
    }


def assert_sources(world) -> None:
    """Every kept index holds what a fresh filing does, filed the same way:
    the same cells, each with the same multiset of sources."""
    fresh = index_sources(world)
    assert world.sources.keys() == fresh.keys()
    for name, index in world.sources.items():
        expected = fresh[name]
        assert [item.id for item in index.items] == [item.id for item in expected.items], name
        assert {item.id for item in index.members} == {item.id for item in expected.members}, name
        assert (index.reach, index.scan, index.exposed) == (expected.reach, expected.scan, expected.exposed), name
        assert (index.cells is None) == (expected.cells is None) and filed(index) == filed(expected), name
