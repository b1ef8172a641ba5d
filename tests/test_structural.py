import collections
import functools
import random

import pytest

import bruteforce as bf
import named_graphs as ng
from chordel import (
    BLOCK,
    CLUSTER,
    CO_CHAIN,
    Graph,
    NotInClassError,
    build_block_cut_tree,
    delete_to_cluster_block,
    delete_to_cluster_tree,
    delete_to_cochain_chordal,
    delete_vertices,
    kp_free,
    list_maximal_cliques_chordal,
    max_independent_set_chordal,
    oracle_min_deletion,
    recognize,
)
from chordel import patterns as pat
from chordel.graph import disjoint_union, is_independent
from chordel.randgen import gen_block, gen_chordal, gen_tree


def two_triangles():
    return Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])


def test_block_cut_tree_p3():
    assert sorted(build_block_cut_tree(pat.path_graph(3))) == [(0, 1), (1, 2)]


def test_block_cut_tree_k4():
    assert build_block_cut_tree(pat.complete_graph(4)) == ((0, 1, 2, 3),)


def test_block_cut_tree_two_triangles():
    assert sorted(build_block_cut_tree(two_triangles())) == [(0, 1, 2), (2, 3, 4)]


def test_block_cut_tree_isolated_vertices():
    assert build_block_cut_tree(pat.empty_graph(3)) == ((0,), (1,), (2,))


def test_block_cut_tree_matches_networkx():
    nx = pytest.importorskip("networkx")
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(1, 10)
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3
        ]
        g = Graph.from_edges(n, edges)
        blocks = build_block_cut_tree(g)
        ng = nx.Graph()
        ng.add_nodes_from(range(n))
        ng.add_edges_from(edges)
        theirs = {
            frozenset(c) for c in nx.biconnected_components(ng)
        } | {frozenset({v}) for v in range(n) if ng.degree(v) == 0}
        assert {frozenset(b) for b in blocks} == theirs
        # a cut vertex is one that lies in more than one block
        homes = collections.Counter(v for b in blocks for v in b)
        assert {v for v, k in homes.items() if k > 1} == set(nx.articulation_points(ng))


def test_tree_cluster_p3():
    assert delete_to_cluster_tree(pat.path_graph(3)).size == 1


def test_tree_cluster_star():
    result = delete_to_cluster_tree(ng.star_graph(4))
    assert result.deleted == (0,)


def test_tree_cluster_rejects_cycles():
    with pytest.raises(NotInClassError):
        delete_to_cluster_tree(pat.cycle_graph(4))


def test_tree_cluster_matches_oracle():
    for seed in range(80):
        t = gen_tree(10, seed)
        result = delete_to_cluster_tree(t)
        assert result.size == oracle_min_deletion(t, CLUSTER).size
        rest, _ = delete_vertices(t, result.deleted)
        assert bf.is_cluster(rest)


def test_block_cluster_triangle_with_pendant():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
    result = delete_to_cluster_block(g)
    assert result.size == 1
    assert result.deleted == (0,)  # the cut vertex


def test_block_cluster_two_triangles():
    result = delete_to_cluster_block(two_triangles())
    assert result.size == 1
    assert result.deleted == (2,)


def test_block_cluster_rejects_non_block():
    with pytest.raises(NotInClassError) as info:
        delete_to_cluster_block(pat.diamond())
    assert info.value.witness_name == "diamond"
    with pytest.raises(NotInClassError) as info:
        delete_to_cluster_block(pat.cycle_graph(5))
    assert info.value.witness_name == "hole"


def test_block_solve_builds_the_block_cut_tree_once(monkeypatch):
    """The solver's own tree is also the block certificate: one build per
    solve, counted through structural's binding and recognition's."""
    from chordel import recognition, structural

    calls = []

    def counted(g):
        calls.append(g.n)
        return build_block_cut_tree(g)

    for module in (structural, recognition):
        monkeypatch.setattr(module, "build_block_cut_tree", counted)
    delete_to_cluster_block(gen_block(64, 1))
    assert calls == [64]


def test_block_cluster_matches_oracle():
    for seed in range(80):
        g = gen_block(10, seed)
        result = delete_to_cluster_block(g)
        assert result.size == oracle_min_deletion(g, CLUSTER).size
        rest, _ = delete_vertices(g, result.deleted)
        assert bf.is_cluster(rest)


def test_block_cluster_size_invariant_under_relabeling():
    for seed in range(20):
        g = gen_block(9, seed)
        base = delete_to_cluster_block(g).size
        rng = random.Random(seed + 1)
        perm = rng.sample(range(g.n), g.n)
        h = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        assert delete_to_cluster_block(h).size == base


@functools.cache
def labelled_block_graphs() -> list[Graph]:
    """Every labelled block graph on at most 6 vertices."""
    return [g for n in range(7) for _, g in bf.labelled_graphs(n) if recognize(g, BLOCK).member]


@pytest.mark.parametrize(
    "gen,solve,reference,labels",
    [
        (gen_tree, delete_to_cluster_tree, bf.tree_cluster_deleted, (kp_free(3),)),
        (gen_block, delete_to_cluster_block, bf.block_cluster_deleted, ()),
    ],
    ids=["tree", "block"],
)
def test_peel_matches_reference(gen, solve, reference, labels):
    """The deleted set, tie-breaks included, equals the reference peel's on
    every seeded instance with n < 60, on relabelled forests of two, on
    every labelled member (a forest is a triangle-free block graph) with at
    most 6 vertices, and on seeds 0-2 at n = 128 and 256."""
    for seed in range(30):
        for n in range(60):
            g = gen(n, seed)
            assert solve(g).deleted == reference(g), (n, seed)
    for seed in range(10):
        g = disjoint_union(gen(12, seed), gen(9, seed + 1))
        perm = random.Random(seed).sample(range(g.n), g.n)
        h = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        assert solve(h).deleted == reference(h), seed
    for g in labelled_block_graphs():
        if all(recognize(g, label).member for label in labels):
            assert solve(g).deleted == reference(g), g.edges()
    for n in (128, 256):
        for seed in range(3):
            g = gen(n, seed)
            assert solve(g).deleted == reference(g), (n, seed)


def test_tree_cluster_reroots_a_cut_off_piece():
    """After 2 goes, the star 7-5, 7-8 is re-rooted at 5, so its deepest
    leaf is 8 and the grandparent 5 goes; the first rooting would delete 7."""
    g = Graph.from_edges(9, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 7), (7, 5), (7, 8), (0, 6)])
    assert delete_to_cluster_tree(g).deleted == (0, 2, 5)
    assert bf.tree_cluster_deleted(g) == (0, 2, 5)


def test_block_cluster_reroots_when_the_root_block_shrinks():
    """A peel that kept the first round's root keys would give (0, 4)."""
    g = Graph.from_edges(7, [(0, 3), (0, 4), (0, 6), (1, 6), (2, 3), (3, 4), (4, 5)])
    assert delete_to_cluster_block(g).deleted == (0, 3)
    assert bf.block_cluster_deleted(g) == (0, 3)


def test_maximal_cliques_examples():
    assert list_maximal_cliques_chordal(pat.path_graph(3)) == [(0, 1), (1, 2)]
    assert list_maximal_cliques_chordal(pat.complete_graph(4)) == [(0, 1, 2, 3)]


def test_maximal_cliques_match_bruteforce():
    from itertools import combinations

    for seed in range(40):
        g = gen_chordal(10, seed)
        got = set(list_maximal_cliques_chordal(g))
        want = set()
        for k in range(1, g.n + 1):
            for sub in combinations(range(g.n), k):
                h = bf.induced(g, sub)
                if h.m != k * (k - 1) // 2:
                    continue
                if all(
                    any(not g.has_edge(u, w) for u in sub)
                    for w in g.vertices()
                    if w not in sub
                ):
                    want.add(sub)
        assert got == want
        assert len(got) <= max(g.n, 1)


def test_cliques_and_cochain_match_reference():
    """The linear maximality rule lists the reference's cliques, and the
    scored clique pairs give the reference's deleted set, tie-break included."""
    corpus = [
        gen(n, seed)
        for gen in (gen_chordal, gen_tree, gen_block)
        for n in [*range(40), 64, 128]
        for seed in range(4)
    ]
    for g in corpus:
        assert list_maximal_cliques_chordal(g) == bf.maximal_cliques_chordal(g)
        assert delete_to_cochain_chordal(g).deleted == bf.cochain_deleted(g)


def test_cochain_complete_graph():
    assert delete_to_cochain_chordal(pat.complete_graph(5)).deleted == ()


def test_cochain_three_disjoint_edges():
    g = disjoint_union(disjoint_union(pat.complete_graph(2), pat.complete_graph(2)),
                       pat.complete_graph(2))
    assert delete_to_cochain_chordal(g).size == 2


def test_cochain_rejects_nonchordal():
    with pytest.raises(NotInClassError):
        delete_to_cochain_chordal(pat.cycle_graph(4))


def test_cochain_matches_oracle():
    for seed in range(60):
        g = gen_chordal(8, seed)
        result = delete_to_cochain_chordal(g)
        assert result.size == oracle_min_deletion(g, CO_CHAIN).size
        rest, _ = delete_vertices(g, result.deleted)
        assert recognize(rest, CO_CHAIN).member


def test_mis_examples():
    assert len(max_independent_set_chordal(pat.path_graph(4))) == 2
    assert len(max_independent_set_chordal(pat.complete_graph(5))) == 1


def test_mis_matches_bruteforce():
    for seed in range(60):
        g = gen_chordal(12, seed)
        got = max_independent_set_chordal(g)
        assert is_independent(g, got)
        assert len(got) == bf.max_independent_set(g)


@pytest.mark.parametrize("n, deleted", [(0, ()), (1, ()), (3, (0,))])
def test_cochain_edgeless(n, deleted):
    assert delete_to_cochain_chordal(pat.empty_graph(n)).deleted == deleted
