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
    induced_subgraph,
    max_clique_window,
    max_cluster_subgraph,
    max_complete_split_subgraph,
    model_to_graph,
    parse_interval_model,
    recognize,
    write_interval_model,
)
from chordel.interval import _prepared, _window_sizes
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


@pytest.mark.parametrize(
    "labels", [["#x", "y"], ["x y", "y"], ["", "y"], ["y", "y"], ["y"], ["x", "y", "z"]]
)
def test_write_interval_model_refuses_labels_that_would_not_read_back(labels):
    # "#x 1 2" would read back as a comment, and a short list ran out of labels
    with pytest.raises(GraphInputError, match="label"):
        write_interval_model(model((1, 2), (3, 4)), labels)


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


ENDPOINT_TOKENS = ["0", "007", "-0", "+3", "-5", "3/1", "4/2", "1.5", "1_0", "\u0663", "\u00b2", "1e9"]


def _read(parse, text):
    """(model, labels) or the refusal message, whichever `parse` gives."""
    try:
        return parse(text)
    except GraphInputError as exc:
        return str(exc)


@pytest.mark.parametrize("tok", ENDPOINT_TOKENS)
def test_endpoint_tokens_read_as_the_reference_reads_them(tok):
    """Integral tokens take the int path and the rest go through Fraction,
    with the reference's values, types and refusals.  `str.isdigit` would
    accept the superscript two, which int refuses; an exponent or an
    underscore is refused on purpose, where the reference reads it."""
    text = f"a {tok} 10000000000\nb -7 {tok}\n"
    got = _read(parse_interval_model, text)
    want = _read(bf.parse_interval_model_reference, text)
    if "e" in tok or "_" in tok:
        assert got == f"bad endpoint in 'a {tok} 10000000000'"
        return
    assert got == want
    if isinstance(got, str):
        return
    (m, labels), (ref, _) = got, want
    types = [type(x) for iv in m.intervals for x in iv]
    assert types == [type(x) for iv in ref.intervals for x in iv]
    assert all(t is int for t in types) == (F(tok).denominator == 1)
    text_out = write_interval_model(m, labels)
    assert text_out == write_interval_model(ref, labels)
    assert parse_interval_model(text_out) == (m, labels)


def test_model_endpoints_keep_fraction_values_and_refusals():
    """Only a plain int skips `Fraction`; bools, floats, strings and
    Fractions are read as before, an integral value stored as an int."""
    m = IntervalModel(((True, 2.5), ("3/2", F(4, 2)), (-0, 7)))
    assert m.intervals == ((1, F(5, 2)), (F(3, 2), 2), (0, 7))
    assert [type(x) for iv in m.intervals for x in iv] == [int, F, F, int, int, int]
    for bad in ((2, 1), ("1/0", 2), ("x", 2), (float("nan"), 1)):
        with pytest.raises((GraphInputError, ValueError, ZeroDivisionError)):
            IntervalModel((bad,))


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
    assert len(bf.connected_components_reference(sub)) == 5


def test_showcase_model_complete_split_has_twelve_vertices():
    kept = max_complete_split_subgraph(SHOWCASE_MODEL)
    assert len(kept) == 12
    g = model_to_graph(SHOWCASE_MODEL)
    sub, _ = induced_subgraph(g, kept)
    assert recognize(sub, COMPLETE_SPLIT).member


REFERENCE_SIZES = (0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 64)


def _same_as_reference(m) -> None:
    """Window table (tuple for tuple), intersection graph and both solvers'
    sets equal the reference sweeps'."""
    _, lo, hi = _prepared(m)
    table = [(hi[b], lo[a], a, b, size) for b, row in _window_sizes(lo, hi) for a, size in row]
    assert sorted(table) == sorted(bf.window_sizes_reference(lo, hi))
    g, ref = model_to_graph(m), bf.model_to_graph_reference(m)
    assert (g.n, g.adj) == (ref.n, ref.adj)
    assert max_cluster_subgraph(m) == bf.max_cluster_subgraph_reference(m)
    assert max_complete_split_subgraph(m) == bf.max_complete_split_subgraph_reference(m)


@pytest.mark.parametrize("n", REFERENCE_SIZES)
def test_interval_sweeps_match_reference_copies_on_seeded_models(n):
    for seed in range(50):
        _same_as_reference(gen_interval_model(n, seed))


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


def test_max_clique_window_matches_reference_on_every_window_of_tied_models():
    """Shared, touching and point intervals and Fraction endpoints, which
    the solvers reach only once ranked: every window spanned by two endpoint
    values holds the clique of the reference sweep."""
    windows = 0
    for seed in range(400):
        m = _mixed_model(seed)
        ends = sorted({x for iv in m.intervals for x in iv})
        for i, lo in enumerate(ends):
            for hi in ends[i:]:
                assert max_clique_window(m, lo, hi) == bf._window_clique(m, lo, hi), (seed, lo, hi)
                windows += 1
    assert windows == 23859


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


def test_interval_sweeps_match_reference_copies_on_mixed_models():
    """Shared and touching endpoints, point intervals, Fraction endpoints,
    touching chains and the empty model."""
    _same_as_reference(model())
    for seed in range(400):
        _same_as_reference(_mixed_model(seed))
