import random
from itertools import combinations

import pytest

from bruteforce import are_isomorphic
import named_graphs as ng
from chordel import (
    Bipartition,
    CHORDAL,
    Graph,
    GraphInputError,
    INTERVAL,
    SPLIT,
    THRESHOLD,
    bowtie,
    bowtie_model,
    delete_vertices,
    f_free,
    model_to_graph,
    oracle_min_deletion,
    recognize,
    reduce_chain_to_threshold,
    reduce_threshold_to_interval,
    reduce_vc_to_ffree,
    split_partition,
    threshold_interval_model,
)
from chordel import patterns as pat
from chordel.reductions import _raw_threshold_intervals
from chordel.randgen import gen_bipartite, gen_split, gen_threshold


def test_threshold_creation_realizes_adjacency():
    # for u < v, vertex v joined dominating u exactly when it is an edge
    for seed in range(40):
        g, roles = gen_threshold(8, seed)
        assert recognize(g, THRESHOLD).member
        assert len(roles) == g.n and set(roles) <= {"isolated", "dominating"}
        for u in g.vertices():
            for v in range(u + 1, g.n):
                assert g.has_edge(u, v) == (roles[v] == "dominating")


def test_raw_model_single_edge():
    # edge uv with clique side {u}, independent side {v}: raw endpoints are
    # the half-integer construction scaled by two
    from chordel import SplitPartition

    g = Graph.from_edges(2, [(0, 1)])
    raw = _raw_threshold_intervals(g, SplitPartition((1,), (0,)))
    assert raw[0] == (2, 3)  # [1, 1.5] doubled
    assert raw[1] == (2, 6)  # [1, 3] doubled


def test_raw_model_isolated_clique_vertex():
    # dominating vertex never adjacent to the independent side sits at
    # [|I|+1, |I|+2]
    g = Graph.from_edges(3, [(0, 1)])  # clique {0,1}? no: edge + isolated
    part = split_partition(g)
    raw = _raw_threshold_intervals(g, part)
    k = len(part.independent)
    for u in part.clique:
        if not g.adj[u]:
            assert raw[u] == (2 * (k + 1), 2 * (k + 2))


def test_threshold_model_roundtrip_many():
    for seed in range(100):
        g, _ = gen_threshold(7, seed)
        m = threshold_interval_model(g)
        assert ng.is_general_position(m)
        assert model_to_graph(m).edges() == g.edges()


def test_threshold_model_rejects_nonthreshold():
    from chordel import NotInClassError

    with pytest.raises(NotInClassError):
        threshold_interval_model(pat.path_graph(4))


def test_threshold_model_checks_the_class_when_given_a_partition():
    from chordel import NotInClassError, SplitPartition

    # a valid split partition of a graph that is not threshold
    with pytest.raises(NotInClassError) as err:
        threshold_interval_model(pat.path_graph(4), SplitPartition((1, 2), (0, 3)))
    assert (err.value.witness_name, err.value.witness) == ("p4", (0, 1, 2, 3))


def test_bowtie_two_vertices():
    k1 = pat.complete_graph(1)
    assert bowtie(k1, (0,), k1, (0,)).edges() == [(0, 1)]


def test_bowtie_two_edges_gives_p4():
    e = pat.complete_graph(2)
    joined = bowtie(e, (0,), e, (0,))
    assert are_isomorphic(joined, pat.path_graph(4))


def test_bowtie_validates_partitions():
    with pytest.raises(GraphInputError):
        bowtie(pat.path_graph(3), (0, 2), pat.complete_graph(1), (0,))


def test_bowtie_of_thresholds_is_interval():
    for seed in range(100):
        g1, _ = gen_threshold(6, 2 * seed)
        g2, _ = gen_threshold(5, 2 * seed + 1)
        c1 = split_partition(g1).clique
        c2 = split_partition(g2).clique
        joined = bowtie(g1, c1, g2, c2)
        assert recognize(joined, INTERVAL).member
        assert recognize(joined, SPLIT).member


def test_bowtie_model_agrees_with_bowtie():
    for seed in range(60):
        g1, _ = gen_threshold(6, 3 * seed)
        g2, _ = gen_threshold(4, 3 * seed + 1)
        c1 = split_partition(g1).clique
        c2 = split_partition(g2).clique
        joined = bowtie(g1, c1, g2, c2)
        m = bowtie_model(g1, g2, c1, c2)
        assert model_to_graph(m).edges() == joined.edges()


def test_bowtie_model_two_single_edges_realizes_p4():
    e = pat.complete_graph(2)
    m = bowtie_model(e, e, (0,), (0,))
    assert m.n == 4
    assert are_isomorphic(model_to_graph(m), pat.path_graph(4))


@pytest.mark.parametrize("given_sides", [False, True])
def test_bowtie_model_recognizes_each_factor_once(given_sides, monkeypatch):
    from chordel import recognition

    calls = []

    def counted(g, label):
        calls.append(label.name)
        return real(g, label)

    real = recognition.recognize
    monkeypatch.setattr(recognition, "recognize", counted)
    g1, _ = gen_threshold(6, 1)
    g2, _ = gen_threshold(5, 2)
    sides = (split_partition(g1).clique, split_partition(g2).clique)
    bowtie_model(g1, g2, *(sides if given_sides else ()))
    assert calls == ["threshold", "threshold"]


def test_bowtie_model_empty_second_factor():
    g, _ = gen_threshold(6, 11)
    empty = pat.empty_graph(0)
    assert bowtie_model(g, empty) == threshold_interval_model(g)


def test_chain_to_threshold_2k2_becomes_p4():
    b = pat.two_k2()  # edges (0,1), (2,3): sides {0,2} vs {1,3}
    img = reduce_chain_to_threshold(b, Bipartition((0, 2), (1, 3)))
    assert are_isomorphic(img, pat.path_graph(4))


def test_chain_to_threshold_complete_bipartite():
    b = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    img = reduce_chain_to_threshold(b, Bipartition((0, 1), (2, 3)))
    assert are_isomorphic(img, pat.diamond())
    assert oracle_min_deletion(b, f_free(pat.two_k2())).size == 0
    assert oracle_min_deletion(img, f_free(pat.path_graph(4))).size == 0


def test_chain_to_threshold_soundness():
    for seed in range(60):
        b, sides = gen_bipartite(8, 0.45, seed)
        img = reduce_chain_to_threshold(b, sides)
        assert recognize(img, SPLIT).member
        want = oracle_min_deletion(b, f_free(pat.two_k2())).size
        got = oracle_min_deletion(img, f_free(pat.path_graph(4))).size
        assert want == got


def test_threshold_to_interval_k1():
    h = reduce_threshold_to_interval(pat.complete_graph(1))
    assert h.n == 3


def test_threshold_to_interval_threshold_input_stays_interval():
    for seed in range(30):
        g, _ = gen_threshold(6, seed)
        h = reduce_threshold_to_interval(g)
        assert recognize(h, INTERVAL).member


def test_threshold_to_interval_equivalence():
    for seed in range(40):
        g = gen_split(7, 0.5, seed)
        csize = len(split_partition(g).clique)
        h = reduce_threshold_to_interval(g)
        mu = oracle_min_deletion(g, THRESHOLD).size
        if mu < csize:
            got = oracle_min_deletion(h, INTERVAL, k_max=mu, allow_large=True)
            assert got is not None and got.size == mu
        elif csize > 0:
            got = oracle_min_deletion(h, INTERVAL, k_max=csize - 1, allow_large=True)
            assert got is None


def test_vc_gadget_preconditions():
    with pytest.raises(GraphInputError):
        reduce_vc_to_ffree(pat.complete_graph(2), pat.claw())  # cut vertex
    with pytest.raises(GraphInputError):
        reduce_vc_to_ffree(pat.complete_graph(2), pat.cycle_graph(4))  # not chordal
    with pytest.raises(GraphInputError):
        reduce_vc_to_ffree(pat.complete_graph(2), pat.complete_graph(3))  # complete
    with pytest.raises(GraphInputError):
        reduce_vc_to_ffree(pat.complete_graph(2), pat.diamond(), (2, 3))  # non-edge


def test_vc_gadget_k2_diamond():
    g = pat.complete_graph(2)
    img = reduce_vc_to_ffree(g, pat.diamond())
    assert recognize(img, CHORDAL).member
    assert recognize(img, SPLIT).member  # diamond minus its anchor is edgeless
    assert oracle_min_deletion(img, f_free(pat.diamond())).size == 1


def test_vc_gadget_output_chordal_and_sound():
    def brute_vc(g):
        for k in range(g.n + 1):
            for sub in combinations(range(g.n), k):
                s = set(sub)
                if all(u in s or v in s for u, v in g.edges()):
                    return k

    for seed in range(30):
        rng = random.Random(seed)
        n = rng.randint(2, 6)
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4
        ]
        g = Graph.from_edges(n, edges)
        img = reduce_vc_to_ffree(g, pat.diamond())
        assert recognize(img, CHORDAL).member
        vc = brute_vc(g)
        got = oracle_min_deletion(
            img, f_free(pat.diamond()), k_max=vc, allow_large=True
        )
        assert got is not None and got.size == vc


def test_tent_gadget_on_four_cycle():
    h = reduce_vc_to_ffree(pat.cycle_graph(4), ng.tent(), (0, 1))
    assert h.n == 20
    assert recognize(h, CHORDAL).member
    best = oracle_min_deletion(h, f_free(ng.tent()), allow_large=True)
    assert best.size == 2 and best.deleted == (0, 2)
    rest, _ = delete_vertices(h, (0, 2))
    assert recognize(rest, f_free(ng.tent())).member
