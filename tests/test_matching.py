import random
from itertools import combinations

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
from chordel import split_solvers
from chordel.matching import cover_from_adjacency
from chordel.randgen import gen_bipartite, gen_split


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


def _fewest_rights_min_cover(lefts, adj) -> tuple:
    """The minimum vertex covers, by enumerating vertex sets by size, and the
    one with the fewest right vertices, asserted to be the only one."""
    edges = [(l, r) for l in lefts for r in adj[l]]
    rights = sorted({r for _, r in edges})
    verts = sorted(lefts) + rights
    for k in range(len(verts) + 1):
        covers = [
            c for c in combinations(verts, k)
            if all(l in c or r in c for l, r in edges)
        ]
        if covers:
            least = min(sum(v in rights for v in c) for c in covers)
            (cover,) = [c for c in covers if sum(v in rights for v in c) == least]
            return tuple(sorted(cover))
    raise AssertionError("unreachable")


def _bipartite_adjacencies():
    """Every bipartite graph with at most 3 + 3 vertices (lefts 0.., rights
    10..), then seeded ones with up to 6 + 6."""
    for nl in range(4):
        for nr in range(4):
            pairs = [(l, 10 + r) for l in range(nl) for r in range(nr)]
            for bits in range(1 << len(pairs)):
                adj = {l: [] for l in range(nl)}
                for i, (l, r) in enumerate(pairs):
                    if bits >> i & 1:
                        adj[l].append(r)
                yield list(range(nl)), adj
    rng = random.Random(7)
    for _ in range(150):
        nl, nr, p = rng.randint(1, 6), rng.randint(1, 6), rng.random()
        yield list(range(nl)), {l: [10 + r for r in range(nr) if rng.random() < p] for l in range(nl)}


def test_cover_is_the_canonical_minimum_cover_whatever_the_input_order():
    """The Koenig cover from the free lefts is the unique minimum cover with
    the fewest right vertices (Dulmage-Mendelsohn), so it does not depend on
    which maximum matching is found: shuffling the lefts and every adjacency
    list returns the same set."""
    rng = random.Random(1)
    for lefts, adj in _bipartite_adjacencies():
        cover = cover_from_adjacency(lefts, adj)
        assert cover == _fewest_rights_min_cover(lefts, adj), adj
        for _ in range(3):
            order = rng.sample(lefts, len(lefts))
            shuffled = {l: rng.sample(rs, len(rs)) for l, rs in adj.items()}
            assert cover_from_adjacency(order, shuffled) == cover, (order, shuffled)


def _seeded_adjacencies():
    """Seeded bipartite graphs with up to 40 + 40 vertices at densities 0.05
    to 0.9, the two sides drawn from one shuffled id range."""
    rng = random.Random(30)
    for p in (0.05, 0.1, 0.2, 0.35, 0.5, 0.7, 0.9):
        for _ in range(25):
            nl, nr = rng.randint(1, 40), rng.randint(1, 40)
            ids = rng.sample(range(nl + nr), nl + nr)
            lefts, rights = ids[:nl], ids[nl:]
            yield lefts, {l: [r for r in rights if rng.random() < p] for l in lefts}


def test_cover_matches_reference_on_seeded_graphs_in_any_container_and_order():
    """The cover read off the last layered search equals the cover of the
    second alternating walk, whatever collection holds the lefts and each
    adjacency, and in whatever order they come."""
    rng = random.Random(2)
    for lefts, adj in _seeded_adjacencies():
        want = bf.cover_from_adjacency_reference(lefts, adj)
        for kind in (list, tuple, set, frozenset):
            order = rng.sample(lefts, len(lefts))
            shuffled = {l: kind(rng.sample(adj[l], len(adj[l]))) for l in order}
            assert cover_from_adjacency(kind(order), shuffled) == want, (kind, lefts, adj)


def test_split_solver_covers_match_reference(monkeypatch):
    """Every cover the split solvers ask for, on the inputs `_cross_cover`
    really passes (a frozenset or tuple of lefts, frozenset adjacencies)."""
    calls = []

    def recorded(lefts, adj, _real=split_solvers.cover_from_adjacency):
        cover = _real(lefts, adj)
        calls.append((lefts, adj, cover))
        return cover

    monkeypatch.setattr(split_solvers, "cover_from_adjacency", recorded)
    for p in (0.2, 0.5, 0.8):
        for seed in range(4):
            g = gen_split(128, p, seed)
            split_solvers.delete_to_2k2p3(g)
            split_solvers.delete_to_complete_split(g)
            # unit interval makes its covers on moved sides, with a forced set
            split_solvers.delete_to_unit_interval_split(gen_split(24, p, seed))
    assert len(calls) > 100
    for lefts, adj, cover in calls:
        want = bf.cover_from_adjacency_reference(list(lefts), {l: list(rs) for l, rs in adj.items()})
        assert cover == want


def test_max_matching_pairs_match_reference():
    """`max_matching` returns the very pairs the earlier matching returned
    on sorted adjacency lists, not only as many."""
    for n in (2, 9, 30, 80):
        for p in (0.05, 0.2, 0.5, 0.9):
            for seed in range(5):
                g, sides = gen_bipartite(n, p, seed)
                match_l, _ = bf.hopcroft_karp_reference(
                    list(sides.left), {l: sorted(g.adj[l]) for l in sides.left}
                )
                assert max_matching(g, sides) == sorted(match_l.items()), (n, p, seed)
