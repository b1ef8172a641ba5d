import random
from fractions import Fraction as F

import pytest

import bruteforce as bf
import named_graphs as ng
from chordel import (
    CLUSTER,
    COMPLETE_SPLIT,
    GraphInputError,
    IntervalModel,
    connected_components,
    induced_subgraph,
    max_clique_window,
    max_cluster_subgraph,
    max_complete_split_subgraph,
    model_to_graph,
    parse_interval_model,
    recognize,
    write_interval_model,
)
from chordel.randgen import gen_interval_model, gen_threshold
from chordel.reductions import bowtie_model, threshold_interval_model


def model(*pairs):
    return IntervalModel(tuple((F(a), F(b)) for a, b in pairs))


CLAW_MODEL = model((0, 10), (1, 2), (4, 5), (7, 8))


def test_model_validation():
    with pytest.raises(GraphInputError):
        model((3, 1))
    assert ng.is_general_position(model((1, 2), (3, 4)))
    assert not ng.is_general_position(model((1, 2), (2, 4)))
    assert not ng.is_general_position(model((1, 1),))


def test_model_to_graph_basics():
    assert model_to_graph(model((0, 1), (2, 3))).m == 0
    assert model_to_graph(model((0, 10), (2, 3))).m == 1
    # closed intervals: touching endpoints are adjacent
    assert model_to_graph(model((0, 2), (2, 4))).m == 1


def test_normalized_preserves_graph():
    for seed in range(150):
        rng = random.Random(seed)
        n = rng.randint(0, 8)
        ivs = []
        for _ in range(n):
            a, b = rng.randint(0, 10), rng.randint(0, 10)
            ivs.append((min(a, b), max(a, b)))
        m = model(*ivs)
        nm = m.normalized()
        assert ng.is_general_position(nm)
        assert model_to_graph(nm).edges() == model_to_graph(m).edges()


def test_model_file_roundtrip():
    m = model((1, 2), (F(3, 2), 4))
    text = write_interval_model(m, ["a", "b"])
    back, labels = parse_interval_model(text)
    assert labels == ["a", "b"]
    assert back.intervals == m.intervals
    with pytest.raises(GraphInputError):
        parse_interval_model("a 1\n")
    with pytest.raises(GraphInputError):
        parse_interval_model("a 1 2\na 3 4\n")


def test_endpoints_are_ints_unless_fractional():
    def types(m):
        return [type(x) for iv in m.intervals for x in iv]

    parsed, _ = parse_interval_model("a 3/2 4/2\nb -6/3 2\n")
    assert parsed.intervals == ((F(3, 2), 2), (-2, 2))
    assert types(parsed) == [F, int, int, int]
    assert write_interval_model(parsed) == "0 3/2 2\n1 -2 2\n"
    g1, _ = gen_threshold(6, 1)
    g2, _ = gen_threshold(5, 2)
    for m in (
        gen_interval_model(6, 1),
        parsed.normalized(),
        threshold_interval_model(g1),
        bowtie_model(g1, g2),
    ):
        assert set(types(m)) == {int}


def test_max_clique_window():
    k3 = model((0, 10), (1, 11), (2, 12))
    assert max_clique_window(k3, 0, 12) == (0, 1, 2)
    assert max_clique_window(k3, 5, 6) == ()
    for seed in range(40):
        m = gen_interval_model(8, seed)
        g = model_to_graph(m)
        assert len(max_clique_window(m, 0, 100)) == bf.max_clique(g)


def test_max_clique_window_respects_bounds():
    m = model((0, 10), (1, 3), (2, 4))
    assert max_clique_window(m, 1, 5) == (1, 2)


def test_claw_model_solutions():
    assert max_complete_split_subgraph(CLAW_MODEL) == (0, 1, 2, 3)
    assert max_cluster_subgraph(CLAW_MODEL) == (1, 2, 3)


def test_complete_graph_model():
    m = model(*((i, 10 + i) for i in range(5)))
    assert len(max_complete_split_subgraph(m)) == 5
    assert len(max_cluster_subgraph(m)) == 5


def test_two_k2_model_cluster():
    m = model((0, 1), (F(1, 2), 2), (5, 6), (F(11, 2), 7))
    assert max_cluster_subgraph(m) == (0, 1, 2, 3)


def test_interval_solvers_match_bruteforce():
    for seed in range(120):
        m = gen_interval_model(7, seed)
        g = model_to_graph(m)
        got_cs = max_complete_split_subgraph(m)
        got_cl = max_cluster_subgraph(m)
        assert len(got_cs) == bf.max_induced(
            g, lambda h: recognize(h, COMPLETE_SPLIT).member
        )
        assert len(got_cl) == bf.max_induced(
            g, lambda h: recognize(h, CLUSTER).member
        )
        sub_cs, _ = induced_subgraph(g, got_cs)
        sub_cl, _ = induced_subgraph(g, got_cl)
        assert recognize(sub_cs, COMPLETE_SPLIT).member
        assert recognize(sub_cl, CLUSTER).member


def test_solvers_accept_degenerate_models():
    empty = model()
    assert max_complete_split_subgraph(empty) == ()
    assert max_cluster_subgraph(empty) == ()
    shared = model((0, 2), (2, 4), (2, 3))
    assert len(max_cluster_subgraph(shared)) >= 2


def test_threshold_model_roundtrip():
    for seed in range(50):
        g, _ = gen_threshold(7, seed)
        m = threshold_interval_model(g)
        assert model_to_graph(m).edges() == g.edges()


SHOWCASE_MODEL = model(
    # long clique-side intervals
    (15, 105), (16, 125), (17, 145), (35, 165), (115, 215),
    (24, 224), (25, 225), (26, 226), (27, 227), (28, 228),
    # short intervals
    (10, 30), (20, 45), (22, 47), (40, 65), (60, 90), (70, 85), (72, 87),
    (95, 120), (110, 135), (112, 137), (130, 155), (150, 175), (170, 195),
    (172, 197), (190, 215), (210, 235), (212, 237),
)


def test_showcase_model_cluster_has_five_cliques():
    kept = max_cluster_subgraph(SHOWCASE_MODEL)
    g = model_to_graph(SHOWCASE_MODEL)
    sub, _ = induced_subgraph(g, kept)
    assert recognize(sub, CLUSTER).member
    assert len(connected_components(sub)) == 5


def test_showcase_model_complete_split_has_twelve_vertices():
    kept = max_complete_split_subgraph(SHOWCASE_MODEL)
    assert len(kept) == 12
    g = model_to_graph(SHOWCASE_MODEL)
    sub, _ = induced_subgraph(g, kept)
    assert recognize(sub, COMPLETE_SPLIT).member


def _mixed_model(seed):
    """Seeded models in four styles: general position, small integer
    endpoints (shared endpoints, touching and point intervals), rational
    endpoints, and a shuffled chain of touching unit intervals."""
    rng = random.Random(seed)
    n = seed % 13
    style = seed % 4
    if style == 0:
        return gen_interval_model(n, seed)
    if style == 3:
        ivs = [(i, i + 1) for i in range(n)]
        rng.shuffle(ivs)
        return model(*ivs)
    ivs = []
    for _ in range(n):
        if style == 1:
            a, b = rng.randint(0, 6), rng.randint(0, 6)
        else:
            a, b = F(rng.randint(0, 30), rng.randint(1, 4)), F(rng.randint(0, 30), rng.randint(1, 4))
        ivs.append((min(a, b), max(a, b)))
    return model(*ivs)


def test_interval_solvers_match_reference_sweeps():
    assert max_cluster_subgraph(model()) == bf.interval_cluster(model()) == ()
    assert max_complete_split_subgraph(model()) == bf.interval_complete_split(model()) == ()
    for seed in range(400):
        m = _mixed_model(seed)
        assert max_cluster_subgraph(m) == bf.interval_cluster(m), seed
        assert max_complete_split_subgraph(m) == bf.interval_complete_split(m), seed
        edges = {
            (u, v)
            for u in range(m.n)
            for v in range(u + 1, m.n)
            if max(m.left(u), m.left(v)) <= min(m.right(u), m.right(v))
        }
        assert model_to_graph(m).edges() == sorted(edges), seed
