"""Named graphs and model predicates that only the tests use.

The forbidden-subgraph patterns the library searches for stay in
`chordel.patterns`; these are extra fixtures with known answers.
"""

from chordel import Graph, IntervalModel


def star_graph(leaves: int) -> Graph:
    """K_{1,leaves} with the center at id 0."""
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def net() -> Graph:
    """Triangle 0,1,2 with pendant vertices 3,4,5 on 0,1,2 respectively."""
    return Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)])


def tent() -> Graph:
    """3-sun: triangle 0,1,2 plus 3~{0,1}, 4~{1,2}, 5~{0,2}."""
    return Graph.from_edges(
        6, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (1, 4), (2, 4), (0, 5), (2, 5)]
    )


def rising_sun() -> Graph:
    """Tent on 0..5 (hub edge 4-5 pattern below) plus two wing vertices.

    Ids: path 0-1-2-3 along the bottom, hubs 4 and 5, apex 6.  Hub 4 covers
    0,1,2 and hub 5 covers 1,2,3; the apex sees both hubs.
    """
    return Graph.from_edges(
        7,
        [
            (0, 1), (1, 2), (2, 3),
            (0, 4), (1, 4), (2, 4),
            (1, 5), (2, 5), (3, 5),
            (4, 5), (4, 6), (5, 6),
        ],
    )


def bull() -> Graph:
    """Triangle 0,1,2 with pendants 3 on 0 and 4 on 1."""
    return Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4)])


def gem() -> Graph:
    return Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (4, 0), (4, 1), (4, 2), (4, 3)])


def double_star(a: int, b: int) -> Graph:
    """Two adjacent centers 0 and 1 with a leaves on 0 and b leaves on 1.

    A split graph: the centers are the clique, the leaves the independent set.
    """
    edges = [(0, 1)]
    edges += [(0, 2 + i) for i in range(a)]
    edges += [(1, 2 + a + i) for i in range(b)]
    return Graph.from_edges(2 + a + b, edges)


def fitted_split_uig() -> Graph:
    """A connected split graph that is also unit interval.

    K5 (ids 0..4) plus 5 seeing {0,1}, 6 seeing {3,4}, and 7 seeing all of
    the clique; the three attachments are pairwise nonadjacent.
    """
    edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    edges += [(5, 0), (5, 1), (6, 3), (6, 4)]
    edges += [(7, c) for c in range(5)]
    return Graph.from_edges(8, edges)


def is_general_position(m: IntervalModel) -> bool:
    """All 2n endpoints distinct and every interval of positive length."""
    pts = [p for l, r in m.intervals for p in (l, r)]
    return len(set(pts)) == 2 * m.n and all(l < r for l, r in m.intervals)
