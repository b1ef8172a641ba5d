import random
import re

import pytest

from chordel import (
    Graph,
    GraphInputError,
    complement,
    delete_vertices,
    from_graph6,
    induced_subgraph,
    is_clique,
    is_independent,
    model_to_graph,
    parse_edge_list,
    sniff_and_parse,
    to_graph6,
    write_edge_list,
)
import bruteforce as bf
from bruteforce import random_graph, remove_edges
import named_graphs as ng
from chordel.graph import (
    add_edges,
    bipartition_classes,
    build_block_cut_tree,
    disjoint_union,
)
from chordel import patterns as pat
from chordel import randgen
from chordel.recognition import find_clique_of_size
from chordel.structural import list_maximal_cliques_chordal


def test_graph_invariants_enforced():
    with pytest.raises(GraphInputError):
        Graph.from_edges(2, [(0, 0)])
    with pytest.raises(GraphInputError):
        Graph.from_edges(2, [(0, 5)])
    with pytest.raises(GraphInputError):
        Graph(2, (frozenset({1}), frozenset()))
    with pytest.raises(GraphInputError):
        Graph.from_edges(-1, [])


def _checked(g: Graph) -> None:
    """A graph a builder made without `Graph`'s validation passes it."""
    assert type(g.adj) is tuple and all(type(s) is frozenset for s in g.adj)
    assert Graph(g.n, g.adj) == g


def _check_builders(g: Graph, rng: random.Random) -> None:
    """Every builder that skips the validation, run on g."""
    _checked(g)
    _checked(Graph.from_edges(g.n, g.edges()))
    _checked(complement(g))
    _checked(disjoint_union(g, complement(g)))
    gone = [v for v in g.vertices() if rng.random() < 0.5]
    _checked(delete_vertices(g, gone)[0])
    _checked(induced_subgraph(g, gone)[0])


def test_built_graphs_pass_the_full_validation():
    """`from_edges`, `complement`, `disjoint_union`, `delete_vertices`,
    `induced_subgraph`, `model_to_graph` and `gen_chordal` build adjacency
    that is valid by construction and skip the check; the check runs here
    instead, on every labelled graph with at most 6 vertices, seeded
    generator graphs and seeded interval models."""
    rng = random.Random(0)
    for n in range(7):
        for _, g in bf.labelled_graphs(n):
            _check_builders(g, rng)
    for make in SEEDED.values():
        for n in (16, 64):
            for seed in range(3):
                _check_builders(make(n, seed), rng)
    for n in (0, 1, 7, 40):
        for seed in range(20):
            _checked(model_to_graph(randgen.gen_interval_model(n, seed)))


def test_delete_vertices_examples():
    k2 = pat.complete_graph(2)
    g, mapping = delete_vertices(k2, [1])
    assert g.n == 1 and g.m == 0 and mapping == {0: 0}

    c4 = pat.cycle_graph(4)
    g, _ = delete_vertices(c4, [0])
    assert (g.n, g.m) == (3, 2) and sorted(g.degree(v) for v in g) == [1, 1, 2]

    dstar = ng.double_star(2, 1)
    g, _ = delete_vertices(dstar, [4])
    from chordel import COMPLETE_SPLIT, recognize

    assert recognize(g, COMPLETE_SPLIT).member


def test_delete_vertices_range_check():
    with pytest.raises(GraphInputError):
        delete_vertices(pat.complete_graph(2), [7])


def test_delete_preserves_surviving_adjacency():
    for seed in range(25):
        g = random_graph(8, 0.4, seed)
        rng = random.Random(seed + 1000)
        drop = [v for v in g.vertices() if rng.random() < 0.3]
        h, old2new = delete_vertices(g, drop)
        for u in g.vertices():
            for v in g.vertices():
                if u < v and u not in drop and v not in drop:
                    assert g.has_edge(u, v) == h.has_edge(old2new[u], old2new[v])


def test_complement_examples():
    from bruteforce import are_isomorphic

    assert are_isomorphic(complement(pat.two_k2()), pat.cycle_graph(4))
    k1 = pat.empty_graph(1)
    assert complement(k1).edges() == []
    for seed in range(100):
        g = random_graph(7, 0.5, seed)
        assert complement(complement(g)).edges() == g.edges()


def test_complement_edge_count():
    for seed in range(30):
        g = random_graph(9, 0.3, seed)
        assert g.m + complement(g).m == 9 * 8 // 2


def _same_walks(g, ps) -> None:
    assert build_block_cut_tree(g) == bf.build_block_cut_tree_reference(g)
    for p in ps:
        assert find_clique_of_size(g, p) == bf.find_clique_of_size_reference(g, p), p


def test_walks_match_reference_on_labelled_graphs():
    """Blocks, cut vertices and the least clique of every size p = 0..n+1
    equal the reference walks' on every labelled graph with at most 6
    vertices, and on disjoint unions, where the clique search runs on the
    (p-1)-core."""
    for n in range(7):
        for _, g in bf.labelled_graphs(n):
            _same_walks(g, range(n + 2))
    for g in bf.disjoint_unions():
        _same_walks(g, range(g.n + 2))


SEEDED = {
    "block": randgen.gen_block,
    "tree": randgen.gen_tree,
    "chordal": randgen.gen_chordal,
    "split": lambda n, seed: randgen.gen_split(n, 0.5, seed),
    "bipartite": lambda n, seed: randgen.gen_bipartite(n, 0.5, seed)[0],
}


@pytest.mark.parametrize("name", SEEDED)
def test_walks_match_reference_on_seeded_graphs(name):
    """The same on seeded graphs at n = 16-256, for p up to the clique number
    (3 on bipartite graphs) and p = n + 1.  On the chordal families p = ω + 1
    is left out: refuting it on a dense chordal graph is exponential."""
    for n in (16, 64, 256):
        for seed in range(3):
            g = SEEDED[name](n, seed)
            chordal = name != "bipartite"
            top = max(map(len, list_maximal_cliques_chordal(g))) if chordal else 3
            _same_walks(g, [*range(top + 1), n + 1])


def test_clique_independent_checks():
    k3 = pat.complete_graph(3)
    assert is_clique(k3, range(3)) and not is_independent(k3, range(3))
    tk = pat.two_k2()
    assert is_clique(tk, (0, 1)) and not is_independent(tk, (0, 1))
    c4 = pat.cycle_graph(4)
    assert not is_clique(c4, (0, 2)) and is_independent(c4, (0, 2))


def test_union_add_remove_edges():
    g = disjoint_union(pat.complete_graph(2), pat.complete_graph(2))
    assert g.edges() == [(0, 1), (2, 3)]
    g2 = add_edges(g, [(1, 2)])
    assert g2.edges() == [(0, 1), (1, 2), (2, 3)]
    assert remove_edges(g2, [(1, 2)]).edges() == g.edges()


def test_bipartition_classes():
    assert bipartition_classes(pat.cycle_graph(5)) is None
    sides = bipartition_classes(pat.path_graph(4))
    assert sides is not None and set(sides[0]) | set(sides[1]) == set(range(4))


def test_edge_list_roundtrip_numeric():
    g = ng.double_star(2, 1)
    text = write_edge_list(g)
    back, labels = parse_edge_list(text)
    assert back.edges() == g.edges()
    assert labels == [str(i) for i in range(5)]


def test_edge_list_labels_sorted():
    text = "5 4\nu1 u2\nu1 v1\nu1 v2\nu2 v3\n"
    g, labels = parse_edge_list(text)
    assert labels == ["u1", "u2", "v1", "v2", "v3"]
    assert g.edges() == [(0, 1), (0, 2), (0, 3), (1, 4)]


def test_edge_list_comments_and_blanks():
    text = "# header\n\n3 1\n\n# mid\n0 2\n"
    g, _ = parse_edge_list(text)
    assert g.edges() == [(0, 2)]


def test_edge_list_malformed():
    for bad in ("", "3\n", "2 1\n0 0\n", "2 2\n0 1\n", "1 0\nextra tokens here\n"):
        with pytest.raises(GraphInputError):
            parse_edge_list(bad)


@pytest.mark.parametrize("label", ["", "a b", "a\tb", "#b", "a"])
def test_write_edge_list_refuses_labels_that_would_not_read_back(label):
    g = ng.double_star(1, 1)  # 4 vertices
    with pytest.raises(GraphInputError, match=re.escape(repr(label))):
        write_edge_list(g, ["a", "b", "c", label])


def test_write_edge_list_keeps_writable_labels():
    g = ng.double_star(1, 1)
    labels = ["01", "+1", "a#", "é"]
    back, read = parse_edge_list(write_edge_list(g, labels))
    assert {frozenset((read[u], read[v])) for u, v in back.edges()} == {
        frozenset((labels[u], labels[v])) for u, v in g.edges()
    }


def test_graph6_roundtrip_small():
    for seed in range(40):
        n = random.Random(seed).randint(0, 12)
        g = random_graph(n, 0.5, seed + 7)
        assert from_graph6(to_graph6(g)).edges() == g.edges()


def test_graph6_against_networkx():
    nx = pytest.importorskip("networkx")
    for seed in range(40):
        n = random.Random(seed).randint(0, 11)
        g = random_graph(n, 0.45, seed + 99)
        ng = nx.Graph()
        ng.add_nodes_from(range(n))
        ng.add_edges_from(g.edges())
        theirs = nx.to_graph6_bytes(ng, header=False).decode().strip()
        assert to_graph6(g) == theirs
        back = from_graph6(theirs)
        assert back.edges() == g.edges()


def test_graph6_large_n_header():
    g = pat.empty_graph(100)
    s = to_graph6(g)
    assert from_graph6(s).n == 100


def test_sniff_and_parse():
    g = pat.cycle_graph(4)
    assert sniff_and_parse(write_edge_list(g))[0].edges() == g.edges()
    assert sniff_and_parse(to_graph6(g) + "\n")[0].edges() == g.edges()
    assert sniff_and_parse(">>graph6<<" + to_graph6(g))[0].edges() == g.edges()
