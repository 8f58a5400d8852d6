"""The random-walk step that ``abms.engine.mobility_step`` replaced, kept as a
test oracle: the engine's step must give exactly the position, the cell and
the random stream this one gives, from any position in any grid or cartesian
space.

It tests the topology's type on every call and clamps with ``min(max(...))``,
exactly as the engine once did.
"""

from __future__ import annotations

import math

from abms import metamodel as mm


def mobility_step(world, agent, step_of, rng):
    """The new position and its cell after one random-walk step of the
    compiled length ``step_of`` (graph agents move in phase 4)."""
    topo = world.topology
    step = step_of(agent)
    if isinstance(topo, mm.GridTopology):
        # 8-neighborhood plus "stay", all nine outcomes equally likely.
        pick = rng.randrange(9)
        dx, dy = pick % 3 - 1, pick // 3 - 1
        span = int(round(step))
        x, y = agent.position
        nx, ny = x + dx * span, y + dy * span
        new = ((nx % topo.width, ny % topo.height) if topo.wrap
               else (min(max(nx, 0), topo.width - 1), min(max(ny, 0), topo.height - 1)))
        return new, new  # on a grid a position is its cell
    # Cartesian: graph agents take no random-walk step (``World.walk_steps``).
    angle = rng.random() * 2.0 * math.pi
    x, y = agent.position
    nx = min(max(x + math.cos(angle) * step, topo.x_min), topo.x_max)
    ny = min(max(y + math.sin(angle) * step, topo.y_min), topo.y_max)
    return (nx, ny), (math.floor(nx), math.floor(ny))
