import pytest

import bruteforce as bf
from bruteforce import remove_clique_edges
import named_graphs as ng
from chordel import (
    Bipartition,
    Graph,
    GraphInputError,
    SplitPartition,
    max_matching,
    min_vertex_cover,
)
from chordel import patterns as pat
from chordel.matching import cover_from_adjacency
from chordel.randgen import gen_bipartite


def test_remove_clique_edges_double_star():
    g = ng.double_star(2, 1)
    stripped, sides = remove_clique_edges(g, SplitPartition((0, 1), (2, 3, 4)))
    assert stripped.edges() == [(0, 2), (0, 3), (1, 4)]
    assert sides == Bipartition((0, 1), (2, 3, 4))


def test_remove_clique_edges_complete_graph():
    g = pat.complete_graph(4)
    stripped, _ = remove_clique_edges(g, SplitPartition((0, 1, 2, 3), ()))
    assert stripped.m == 0


def test_remove_clique_edges_complete_split():
    g = pat.complete_split_pattern(3, 2)
    stripped, _ = remove_clique_edges(g, SplitPartition((0, 1, 2), (3, 4)))
    # complete bipartite left
    assert stripped.m == 6
    assert all(stripped.has_edge(u, v) for u in (0, 1, 2) for v in (3, 4))


def test_remove_clique_edges_invalid_partition():
    with pytest.raises(GraphInputError):
        remove_clique_edges(pat.cycle_graph(4), SplitPartition((0, 1), (2, 3)))


def test_matching_p4():
    g = pat.path_graph(4)
    sides = Bipartition((0, 2), (1, 3))
    assert len(max_matching(g, sides)) == 2
    cover = set(min_vertex_cover(g, sides))
    assert len(cover) == 2
    assert all(u in cover or v in cover for u, v in g.edges())


def test_matching_k33():
    g = Graph.from_edges(6, [(i, j) for i in range(3) for j in range(3, 6)])
    sides = Bipartition((0, 1, 2), (3, 4, 5))
    assert len(max_matching(g, sides)) == 3
    assert len(min_vertex_cover(g, sides)) == 3


def test_cover_of_edgeless_graph():
    g = pat.empty_graph(4)
    assert min_vertex_cover(g, Bipartition((0, 1), (2, 3))) == ()


def test_bipartition_validated():
    with pytest.raises(GraphInputError):
        max_matching(pat.complete_graph(3), Bipartition((0, 1), (2,)))
    with pytest.raises(GraphInputError):
        max_matching(pat.path_graph(3), Bipartition((0,), (1, 2, 7)))


def test_matching_and_cover_match_bruteforce():
    for seed in range(120):
        g, sides = gen_bipartite(9, 0.4, seed)
        matching = max_matching(g, sides)
        cover = min_vertex_cover(g, sides)
        assert len(matching) == bf.max_matching_size(g)
        assert len(cover) == bf.min_vertex_cover_size(g)
        assert len(cover) == len(matching)
        cov = set(cover)
        assert all(u in cov or v in cov for u, v in g.edges())
        # matching edges pairwise disjoint and real
        used = [v for e in matching for v in e]
        assert len(used) == len(set(used))
        assert all(g.has_edge(u, v) for u, v in matching)


def test_cover_survives_long_alternating_chain():
    # left i sees rights r0+i and r0+i+1; one more left sees only r0, so its
    # augmenting path runs through all of the chain
    chain = 3000
    r0 = chain + 1
    adj = {i: [r0 + i, r0 + i + 1] for i in range(chain)}
    adj[chain] = [r0]
    cover = cover_from_adjacency(list(range(chain + 1)), adj)
    assert len(cover) == chain + 1
