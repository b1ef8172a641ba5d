import json

import pytest

import bruteforce as bf
import capture_randgen_digests as digests
import named_graphs as ng
from chordel import (
    BLOCK,
    CHORDAL,
    CLUSTER,
    CO_CHAIN,
    COMPLETE_SPLIT,
    INTERVAL,
    ORACLE_CAP,
    OracleCapError,
    SPLIT,
    THRESHOLD,
    UNIT_INTERVAL,
    f_free,
    kp_free,
    model_to_graph,
    oracle_min_deletion,
    recognize,
    write_edge_list,
)
from chordel.graph import delete_vertices
from chordel import oracle
from chordel import patterns as pat
from chordel.matching import check_bipartition
from chordel.recognition import BASE_LABELS
from chordel.randgen import (
    gen_bipartite,
    gen_block,
    gen_chordal,
    gen_interval_model,
    gen_split,
    gen_threshold,
    gen_tree,
)


def test_oracle_c4_to_chordal():
    assert oracle_min_deletion(pat.cycle_graph(4), CHORDAL).size == 1


def test_oracle_double_star_complete_split():
    result = oracle_min_deletion(ng.double_star(2, 1), COMPLETE_SPLIT)
    assert result.deleted == (4,)


def test_oracle_kmax_exceeded():
    assert oracle_min_deletion(pat.cycle_graph(6), CLUSTER, k_max=1) is None


def test_oracle_cap():
    big = pat.empty_graph(ORACLE_CAP + 1)
    with pytest.raises(OracleCapError):
        oracle_min_deletion(big, CLUSTER)
    assert oracle_min_deletion(big, CLUSTER, allow_large=True).size == 0


def test_oracle_lexicographic_tiebreak():
    # deleting any single vertex of C4 works; the oracle returns vertex 0
    assert oracle_min_deletion(pat.cycle_graph(4), CHORDAL).deleted == (0,)


def test_oracle_monotone_in_class_containments():
    # subclass targets can only need more deletions
    chains = [
        (CLUSTER, BLOCK, CHORDAL),
        (COMPLETE_SPLIT, THRESHOLD, SPLIT, CHORDAL),
        (CLUSTER, INTERVAL, CHORDAL),
    ]
    for seed in range(15):
        g = gen_chordal(7, seed)
        for chain in chains:
            sizes = [oracle_min_deletion(g, label).size for label in chain]
            assert sizes == sorted(sizes, reverse=True), (seed, chain)


def test_generators_deterministic():
    for gen in (
        lambda s: gen_split(8, 0.5, s),
        lambda s: gen_threshold(8, s)[0],
        lambda s: gen_chordal(8, s),
        lambda s: gen_block(8, s),
        lambda s: gen_tree(8, s),
        lambda s: gen_bipartite(8, 0.5, s)[0],
    ):
        assert write_edge_list(gen(42)) == write_edge_list(gen(42))
        # seeds matter: a sweep produces more than one instance
        assert len({write_edge_list(gen(s)) for s in range(20)}) > 1


def test_interval_model_generator_deterministic():
    a = gen_interval_model(8, 1)
    b = gen_interval_model(8, 1)
    assert a == b


def test_generators_hit_their_classes():
    for seed in range(60):
        assert recognize(gen_split(8, 0.5, seed), SPLIT).member
        assert recognize(gen_threshold(8, seed)[0], THRESHOLD).member
        assert recognize(gen_chordal(8, seed), CHORDAL).member
        assert recognize(gen_block(8, seed), BLOCK).member
        t = gen_tree(8, seed)
        assert recognize(t, CHORDAL).member and recognize(t, BLOCK).member
        m = gen_interval_model(7, seed)
        assert ng.is_general_position(m)
        assert recognize(model_to_graph(m), INTERVAL).member
        g, sides = gen_bipartite(8, 0.5, seed)
        check_bipartition(g, sides)


def test_generators_handle_tiny_n():
    for n in (0, 1, 2):
        gen_split(n, 0.5, 1)
        gen_threshold(n, 1)
        gen_chordal(n, 1)
        gen_block(n, 1)
        gen_tree(n, 1)
        gen_interval_model(n, 1)
        gen_bipartite(n, 0.5, 1)


def test_chordal_generator_matches_reference():
    cases = [(n, seed) for n in range(71) for seed in range(6)]
    cases += [(n, seed) for n in (128, 200) for seed in range(2)]
    for n, seed in cases:
        assert gen_chordal(n, seed) == bf.gen_chordal_reference(n, seed), (n, seed)


@pytest.fixture(scope="module")
def pinned_digests():
    return json.loads(digests.GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(digests.GENERATORS))
def test_generators_match_pinned_digests(name, pinned_digests):
    # n = 1024 is pinned too; tier-1 recomputes it only for gen_chordal(1024, 1)
    cases = [(n, seed) for n in (64, 256) for seed in digests.SEEDS]
    if name == "gen_chordal":
        cases.append((1024, 1))
    for n, seed in cases:
        key = digests.case_key(name, n, seed)
        assert digests.digest(name, n, seed) == pinned_digests[key], key


def test_oracle_k2_free_is_vertex_cover():
    g = pat.cycle_graph(5)
    assert oracle_min_deletion(g, kp_free(2)).size == 3


ORACLE_LABELS = [*BASE_LABELS.values(), kp_free(3)]
PATTERN_LABELS = [f_free(pat.diamond()), f_free(pat.path_graph(4))]


def test_oracle_matches_reference_on_labelled_graphs():
    """Skipping twin swaps changes no answer, no tie-break and no None."""
    for n in range(6):
        for mask, g in bf.labelled_graphs(n):
            for label in ORACLE_LABELS + PATTERN_LABELS:
                want = bf.oracle_min_deletion_reference(g, label)
                assert oracle_min_deletion(g, label) == want, (n, mask, label)


SEEDED_GRAPHS = {
    "split": lambda n, s: gen_split(n, 0.5, s),
    "threshold": lambda n, s: gen_threshold(n, s)[0],
    "chordal": gen_chordal,
    "block": gen_block,
    "tree": gen_tree,
    "interval": lambda n, s: model_to_graph(gen_interval_model(n, s)),
    "bipartite": lambda n, s: gen_bipartite(n, 0.4, s)[0],
}


@pytest.mark.parametrize("name", SEEDED_GRAPHS)
def test_oracle_matches_reference_on_seeded_graphs(name):
    """A quarter of the labels per graph, in turn, with and without k_max."""
    offset = list(SEEDED_GRAPHS).index(name)
    for n in range(6, 13):
        g = SEEDED_GRAPHS[name](n, n)
        for i, label in enumerate(ORACLE_LABELS):
            if (i + n + offset) % 4:
                continue
            for k_max in (None, 2, 4):
                want = bf.oracle_min_deletion_reference(g, label, k_max)
                assert oracle_min_deletion(g, label, k_max) == want, (n, label, k_max)


@pytest.mark.parametrize("g, label", [
    (pat.complete_graph(16), kp_free(3)),
    (pat.empty_graph(16), CO_CHAIN),
])
def test_oracle_tries_one_subset_per_size_when_all_vertices_are_twins(g, label, monkeypatch):
    """Every vertex is a twin of every other, so each size k tries only
    {0, ..., k-1}: 15 recognitions for k = 14, where the plain enumeration
    makes 65,400."""
    calls = []

    def counted(rest, lab):
        calls.append(rest.n)
        return recognize(rest, lab)

    monkeypatch.setattr(oracle, "recognize", counted)
    assert oracle_min_deletion(g, label).deleted == tuple(range(14))
    assert calls == list(range(16, 1, -1))


def test_twin_prefix_subsets_match_reference():
    """The generator yields exactly the twin-filtered combinations, in order,
    for every size and the twin map of every labelled graph on <= 6 vertices."""
    prevs = {tuple(bf.twin_prev(g)) for n in range(7) for _, g in bf.labelled_graphs(n)}
    for prev in prevs:
        for k in range(len(prev) + 1):
            got = list(oracle._twin_prefix_subsets(prev, k))
            assert got == list(bf.twin_prefix_subsets_reference(prev, k)), (prev, k)


@pytest.mark.parametrize("g", [pat.complete_graph(16), pat.empty_graph(16)])
def test_twin_prefix_subsets_yield_one_subset_per_size_on_one_twin_class(g):
    prev = bf.twin_prev(g)
    for k in range(17):
        got = list(oracle._twin_prefix_subsets(prev, k))
        assert got == [tuple(range(k))] == list(bf.twin_prefix_subsets_reference(prev, k))


@pytest.mark.parametrize("label", [INTERVAL, UNIT_INTERVAL])
def test_oracle_never_skips_on_an_asteroidal_triple(label):
    """The net's asteroidal triple 3, 4, 5 is its obstruction, yet deleting
    the triangle vertex 0, which misses it, breaks the triple's paths."""
    g = ng.net()
    verdict = recognize(g, label)
    assert (verdict.witness, verdict.witness_name) == ((3, 4, 5), "asteroidal-triple")
    assert oracle_min_deletion(g, label).deleted == (0,)
    assert oracle_min_deletion(g, label) == bf.oracle_min_deletion_reference(g, label)


def _recognitions(module, find, g, label, monkeypatch):
    calls = []

    def counted(rest, lab):
        calls.append(rest.n)
        return recognize(rest, lab)

    monkeypatch.setattr(module, "recognize", counted)
    return find(g, label), len(calls)


def test_oracle_skips_subsets_that_miss_an_obstruction(monkeypatch):
    """16 recognitions where the plain enumeration makes 172, same answer."""
    g = gen_split(12, 0.5, 5)
    got, tried = _recognitions(oracle, oracle_min_deletion, g, THRESHOLD, monkeypatch)
    want, plain = _recognitions(bf, bf.oracle_min_deletion_reference, g, THRESHOLD, monkeypatch)
    assert got == want and got.deleted == (1, 7, 10)
    assert (tried, plain) == (16, 172)


@pytest.mark.parametrize("name", SEEDED_GRAPHS)
def test_oracle_tries_only_subsets_that_hit_every_obstruction_found(name, monkeypatch):
    """On the inputs of the seeded reference test, each subset the oracle
    tries meets every hole, pattern, clique and f-free witness that an
    earlier subset of the same call left, in the input's ids."""
    tried, found = [], []

    def deleting(g, subset):
        rest, old_to_new = delete_vertices(g, subset)
        tried.append((set(subset), list(old_to_new)))
        return rest, old_to_new

    def recognizing(rest, lab):
        subset, kept = tried[-1]
        assert all(subset & w for w in found), (subset, found)
        verdict = recognize(rest, lab)
        if not verdict.member and verdict.witness_name != "asteroidal-triple":
            found.append({kept[v] for v in verdict.witness})
        return verdict

    monkeypatch.setattr(oracle, "delete_vertices", deleting)
    monkeypatch.setattr(oracle, "recognize", recognizing)
    offset = list(SEEDED_GRAPHS).index(name)
    for n in range(6, 13):
        g = SEEDED_GRAPHS[name](n, n)
        for i, label in enumerate(ORACLE_LABELS):
            if (i + n + offset) % 4:
                continue
            for k_max in (None, 2, 4):
                found.clear()
                oracle_min_deletion(g, label, k_max)
