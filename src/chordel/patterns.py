"""Small named graphs used as forbidden-subgraph patterns and gadgets."""

from __future__ import annotations

from .graph import Graph, disjoint_union


def empty_graph(k: int) -> Graph:
    return Graph.from_edges(k, [])


def complete_graph(k: int) -> Graph:
    return Graph.from_edges(k, [(i, j) for i in range(k) for j in range(i + 1, k)])


def path_graph(k: int) -> Graph:
    return Graph.from_edges(k, [(i, i + 1) for i in range(k - 1)])


def cycle_graph(k: int) -> Graph:
    if k < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph.from_edges(k, [(i, (i + 1) % k) for i in range(k)])


def complete_split_pattern(clique: int, independent: int) -> Graph:
    """Clique on ids 0..clique-1 joined to an independent set after it."""
    n = clique + independent
    edges = [(i, j) for i in range(clique) for j in range(i + 1, clique)]
    edges += [(i, j) for i in range(clique) for j in range(clique, n)]
    return Graph.from_edges(n, edges)


def two_k2() -> Graph:
    return disjoint_union(complete_graph(2), complete_graph(2))


def co_p3() -> Graph:
    """Complement of P3: one edge plus an isolated vertex."""
    return disjoint_union(complete_graph(2), empty_graph(1))


def claw() -> Graph:
    """K_{1,3} with the center at id 0."""
    return Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])


def diamond() -> Graph:
    """K4 minus an edge; 0-1 is the edge between the two degree-3 vertices."""
    return Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
