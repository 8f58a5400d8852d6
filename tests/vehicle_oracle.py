"""The phase 4 that ``abms.engine._vehicle_phase`` replaced, kept as a test
oracle: a world ticked with it must reach the digest, the transit roster and
the vehicle positions the engine's phase 4 gives, after every tick.

It builds a new ``QueuePos`` for each arrival and looks up the controller of
each queue it serves, exactly as the engine once did; it reads an edge's
queue from ``EdgePos.stop``, which holds it now.
"""

from __future__ import annotations

from abms.engine import _BY_ID, QueuePos, _enter_random_edge


def vehicle_phase(world) -> None:
    """Phase 4, on graphs only: vehicle movement, then queue service."""
    if world.graph is None:
        return
    # Movement: progress along edges; completed traversals join the queue, in id order.
    transit, arrived = [], []
    for agent in world.vehicles:
        pos = agent.position
        if pos.remaining > 1:
            pos.remaining -= 1
            transit.append(agent)
        else:
            arrived.append(agent)
    arrived.sort(key=_BY_ID)
    for agent in arrived:
        pos = agent.position
        if not (queue := pos.stop.queue):  # the digest lists each queue a vehicle has reached
            world.queues[pos.target, pos.source] = queue
        ctrl = world.controllers_by_node.get(pos.target)
        capacity = ctrl.capacities.get(pos.source) if ctrl is not None else None
        if capacity is not None and len(queue) >= capacity:
            pos.remaining = 0  # blocked; retry next tick
            transit.append(agent)
            continue
        queue.append(agent.id)
        agent.position = QueuePos(pos.target, pos.source, queue)
        world.arrivals += 1
    world.vehicles = transit
    # Service: one vehicle per queue per tick, unless its stream is red; a served vehicle rejoins the roster.
    for node in world.graph.sorted_nodes:
        for from_node in world.graph.adjacency[node]:
            queue = world.edge_queues[node, from_node]
            if queue and ((ctrl := world.controllers_by_node.get(node)) is None or from_node not in ctrl.red):
                _enter_random_edge(world, world.agents[queue.pop(0)], node)
