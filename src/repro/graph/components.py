"""Connected components helpers.

Both the balanced partitioning (Algorithm 1 handles disconnected inputs
explicitly) and the final component re-assignment of Algorithm 2 need fast
connected-component computations, optionally restricted to a vertex subset.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set

from repro.graph.graph import Graph


def connected_components(graph: Graph, allowed: Optional[Iterable[int]] = None) -> List[List[int]]:
    """Connected components of ``graph`` (optionally induced on ``allowed``).

    Components are returned as lists of vertex ids; the vertices inside each
    component and the components themselves appear in ascending discovery
    order, which keeps downstream tie-breaking deterministic.
    """
    if allowed is None:
        members: Optional[Set[int]] = None
        universe: Iterable[int] = graph.vertices()
    else:
        members = set(allowed)
        universe = sorted(members)

    seen: Set[int] = set()
    components: List[List[int]] = []
    for start in universe:
        if start in seen:
            continue
        component = [start]
        seen.add(start)
        stack = [start]
        while stack:
            v = stack.pop()
            for w in graph.neighbor_ids(v):
                if w in seen:
                    continue
                if members is not None and w not in members:
                    continue
                seen.add(w)
                component.append(w)
                stack.append(w)
        components.append(sorted(component))
    return components


def largest_component(graph: Graph) -> List[int]:
    """Vertices of the largest connected component (ties: first found)."""
    components = connected_components(graph)
    if not components:
        return []
    return max(components, key=len)


def is_connected(graph: Graph) -> bool:
    """Whether the graph is connected (the empty graph counts as connected)."""
    if graph.num_vertices == 0:
        return True
    return len(largest_component(graph)) == graph.num_vertices
