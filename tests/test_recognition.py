import collections
import functools
import inspect
import random
import sys
from itertools import chain, combinations

import pytest

import bruteforce as bf
from bruteforce import are_isomorphic, find_pattern, has_asteroidal_triple, random_graph
import named_graphs as ng
from chordel import (
    BLOCK,
    CHORDAL,
    CLUSTER,
    CO_CHAIN,
    COMPLETE_SPLIT,
    INTERVAL,
    SPLIT,
    THRESHOLD,
    TRIVIALLY_PERFECT,
    TWO_K2_P3_FREE,
    UNIT_INTERVAL,
    Graph,
    NotInClassError,
    PatternTooLargeError,
    SplitPartition,
    chordal_peo,
    complement,
    delete_vertices,
    enumerate_split_partitions,
    f_free,
    find_asteroidal_triple,
    kp_free,
    recognize,
    split_partition,
)
from chordel import recognition
from chordel.recognition import (
    find_clique_of_size,
    find_hole,
    is_perfect_elimination_ordering,
    maximum_cardinality_search,
    require,
)
from chordel import patterns as pat
from chordel.interval import model_to_graph
from chordel.randgen import (
    gen_bipartite,
    gen_block,
    gen_chordal,
    gen_interval_model,
    gen_split,
    gen_threshold,
    gen_tree,
)


def check_cycle_witness(g, cycle):
    assert len(cycle) >= 4
    k = len(cycle)
    for i in range(k):
        for j in range(i + 1, k):
            adjacent = j - i == 1 or (i == 0 and j == k - 1)
            assert g.has_edge(cycle[i], cycle[j]) == adjacent


# ---------------------------------------------------------------- chordality


def test_chordal_peo_c4_hole():
    c4 = pat.cycle_graph(4)
    assert chordal_peo(c4) is None
    with pytest.raises(NotInClassError) as err:
        require(c4, CHORDAL)
    assert err.value.witness_name == "hole"
    check_cycle_witness(c4, err.value.witness)


def test_chordal_peo_trees():
    for seed in range(20):
        t = gen_tree(9, seed)
        peo = chordal_peo(t)
        assert peo is not None and require(t, CHORDAL).peo == peo
        assert is_perfect_elimination_ordering(t, peo)


def test_chordal_hole_witness_on_randoms():
    for seed in range(80):
        g = random_graph(8, 0.45, seed)
        peo = chordal_peo(g)
        assert (peo is not None) == (not bf.has_hole(g))
        hole = find_hole(g)
        assert (hole is None) == (peo is not None)
        if hole is not None:
            check_cycle_witness(g, hole)
            assert recognize(g, CHORDAL) == recognition.Verdict(False, hole, "hole")


def test_chordal_agrees_with_cycle_pattern_scan():
    # cross-check against the independent hole enumerator, including C9
    for seed in range(40):
        g = random_graph(7, 0.5, seed)
        assert recognize(g, CHORDAL).member == (not bf.has_hole(g))
    c9 = pat.cycle_graph(9)
    assert not recognize(c9, CHORDAL).member
    check_cycle_witness(c9, recognize(c9, CHORDAL).witness)


def test_mcs_order_is_permutation():
    g = random_graph(9, 0.4, 3)
    assert sorted(maximum_cardinality_search(g)) == list(range(9))


# ---------------------------------------------------------------- split


def test_split_partition_double_star():
    part = split_partition(ng.double_star(2, 1))
    assert part == SplitPartition((0, 1), (2, 3, 4))


def test_split_partition_c5_obstruction():
    assert split_partition(pat.cycle_graph(5)) is None
    with pytest.raises(NotInClassError) as err:
        require(pat.cycle_graph(5), SPLIT)
    assert err.value.witness_name == "c5"
    assert len(err.value.witness) == 5


def _counting(monkeypatch, *names):
    """Wrap each named function of `recognition` to count its calls."""
    counts = collections.Counter()
    for fn in names:
        def counted(*args, _real=getattr(recognition, fn), _fn=fn):
            counts[_fn] += 1
            return _real(*args)

        monkeypatch.setattr(recognition, fn, counted)
    return counts


@pytest.mark.parametrize(
    "label,g,kind,calls",
    [
        (SPLIT, pat.two_k2(), "2k2", {"split_partition": 1}),
        (SPLIT, pat.cycle_graph(5), "c5",
         {"split_partition": 1, "maximum_cardinality_search": 1}),
        (CHORDAL, pat.cycle_graph(5), "hole", {"maximum_cardinality_search": 1}),
    ],
    ids=["split-2k2", "split-c5", "chordal-c5"],
)
def test_require_helpers_run_each_test_once_on_rejection(label, g, kind, calls, monkeypatch):
    counts = _counting(monkeypatch, "split_partition", "maximum_cardinality_search")
    with pytest.raises(NotInClassError) as err:
        require(g, label)
    assert err.value.witness_name == kind
    assert counts == calls


def test_co_bipartite_rejection_skips_the_independent_triple_search(monkeypatch):
    g = complement(gen_bipartite(60, 0.5, 1)[0])
    c4 = recognition._find_embedding(g, recognition._PATTERNS["c4"])
    names = {id(f): name for name, f in recognition._PATTERNS.items()}
    searched = []

    def counted(h, f, _real=recognition._find_embedding):
        searched.append(names[id(f)])
        return _real(h, f)

    monkeypatch.setattr(recognition, "_find_embedding", counted)
    assert recognize(g, CO_CHAIN) == recognition.Verdict(False, c4, "c4")
    assert searched == ["c4"]


def test_require_returns_the_certificate_recognition_built():
    members = collections.Counter()
    for s in range(12):
        n = 4 + 3 * s
        for g in (
            gen_split(n, 0.5, s),
            gen_threshold(n, s)[0],
            model_to_graph(gen_interval_model(n, s)),
            gen_chordal(n, s),
            gen_block(n, s),
            gen_bipartite(n, 0.3, s)[0],
            gen_tree(n, s),
        ):
            for label, built, expected in (
                (SPLIT, "partition", split_partition(g)),
                (THRESHOLD, "partition", split_partition(g)),
                (CHORDAL, "peo", chordal_peo(g)),
                (INTERVAL, "peo", chordal_peo(g)),
            ):
                if recognize(g, label).member:
                    members[label.name] += 1
                    assert recognize(g, label) == recognition.Verdict(True)
                    assert getattr(require(g, label), built) == expected
    assert min(members.values()) >= 12 and len(members) == 4


def test_split_partition_complete_graph():
    part = split_partition(pat.complete_graph(4))
    assert part == SplitPartition((0, 1, 2, 3), ())


def test_split_obstruction_kinds():
    for g, name in ((pat.two_k2(), "2k2"), (pat.cycle_graph(4), "c4")):
        verdict = recognize(g, SPLIT)
        assert split_partition(g) is None and verdict.witness_name == name
        sub = bf.induced(g, verdict.witness)
        ref = {"2k2": pat.two_k2(), "c4": pat.cycle_graph(4)}[name]
        assert are_isomorphic(sub, ref)


def test_split_partition_matches_bruteforce():
    for seed in range(60):
        g = random_graph(7, 0.5, seed)
        parts = bf.split_partitions(g)
        got = split_partition(g)
        if parts:
            assert isinstance(got, SplitPartition)
            assert got.clique in parts
        else:
            assert got is None


def test_enumerate_split_partitions_k2():
    cliques = [p.clique for p in enumerate_split_partitions(pat.complete_graph(2))]
    assert cliques == [(0,), (0, 1), (1,)]


def test_enumerate_split_partitions_double_star():
    assert len(enumerate_split_partitions(ng.double_star(2, 1))) == 1
    smaller, _ = delete_vertices(ng.double_star(2, 1), [4])
    assert len(enumerate_split_partitions(smaller)) == 4


def test_enumerate_split_partitions_is_exhaustive():
    # every labelled split graph on at most 6 vertices, and seeded ones on 7
    seeded = (gen_split(7, 0.5, seed) for seed in range(80))
    for g in chain(bf.labelled_split_graphs(6), seeded):
        parts = enumerate_split_partitions(g)
        assert [p.clique for p in parts] == sorted(bf.split_partitions(g))
        assert all(set(p.independent) == set(range(g.n)) - set(p.clique) for p in parts)


def test_enumerate_split_partitions_rejects_nonsplit():
    with pytest.raises(NotInClassError):
        enumerate_split_partitions(pat.cycle_graph(5))


# ------------------------------------------------------- asteroidal triples


def test_net_asteroidal_triple():
    found, triple = has_asteroidal_triple(ng.net())
    assert found and triple == (3, 4, 5)


def test_complete_graph_has_no_at():
    assert find_asteroidal_triple(pat.complete_graph(6)) is None


def test_claw_has_no_at():
    assert find_asteroidal_triple(pat.claw()) is None


def test_at_definition_spotcheck():
    # C6 has an asteroidal-free? no: C6 holds an AT of alternating vertices
    found, triple = has_asteroidal_triple(pat.cycle_graph(6))
    assert found and triple == (0, 2, 4)


def _kernel_corpus():
    """(graph, whether to compare pattern searches on it).  The reference
    search is exhaustive when a pattern is absent, which takes seconds per
    pattern on the dense generated graphs above n = 32, so there only the
    sparse tree and block graphs compare pattern searches."""
    for n in range(7):
        for _, g in bf.labelled_graphs(n):
            yield g, True
    for n in range(7, 17):
        for p in (0.2, 0.5, 0.8):
            for seed in range(4):
                yield random_graph(n, p, seed), True
    for n in (32, 64, 128):
        for seed in range(6):
            yield gen_tree(n, seed), True
            yield gen_block(n, seed), True
            for g in (gen_chordal(n, seed), gen_split(n, 0.5, seed),
                      model_to_graph(gen_interval_model(n, seed))):
                yield g, n == 32


def test_bitmask_kernels_match_reference():
    # the bitmask kernels keep the adjacency-set search order, so every
    # embedding, MCS order, PEO verdict and asteroidal triple is the same
    rng = random.Random(7)
    shapes = [random_graph(rng.randint(1, 6), rng.random(), rng.randrange(10**6))
              for _ in range(50)]
    for i, (g, search) in enumerate(_kernel_corpus()):
        patterns = (*recognition._PATTERNS.values(), shapes[i % 50], shapes[i * 7 % 50])
        for f in patterns if search else ():
            assert recognition._find_embedding(g, f) == bf.find_embedding_reference(g, f)
        order = maximum_cardinality_search(g)
        assert order == bf.mcs_reference(g)
        for ordering in (order, order[::-1], list(g.vertices()), list(g.vertices())[::-1]):
            assert is_perfect_elimination_ordering(g, ordering) == bf.is_peo_reference(
                g, ordering
            )
        assert find_asteroidal_triple(g) == bf.asteroidal_triple_reference(g)


def test_asteroidal_triple_matches_reference_on_disjoint_unions():
    # the sweep pairs only vertices of one component of g
    for g in bf.disjoint_unions():
        assert find_asteroidal_triple(g) == bf.asteroidal_triple_reference(g)


def test_asteroidal_triple_sweep_labels_only_the_vertices_it_reads(monkeypatch):
    # the eager sweep labelled G - N[z] for every z: 1,025 labellings here
    counts = _counting(monkeypatch, "_parts")
    assert recognize(gen_tree(1024, 1), INTERVAL) == recognition.Verdict(
        False, (0, 8, 11), "asteroidal-triple"
    )
    assert 0 < counts["_parts"] <= 16


@pytest.mark.parametrize("g", [pat.complete_graph(1000), pat.empty_graph(1000)],
                         ids=["K1000", "empty1000"])
def test_proper_ordering_skips_the_asteroidal_triple_and_claw_searches(g, monkeypatch):
    # one LBFS+ sweep finds a proper ordering of both, where the eager
    # asteroidal-triple sweep built 1,001 labellings and a claw search ran
    counts = _counting(monkeypatch, "_parts", "_find_embedding")
    assert recognize(g, UNIT_INTERVAL) == recognition.Verdict(True)
    assert not counts


def test_interval_orderings_rule_out_only_absent_obstructions():
    """On every labelled graph with at most 6 vertices, chordal or not, the
    sweep from the reversed MCS order (the PEO on a chordal graph) finds an
    interval ordering only on a chordal graph with no asteroidal triple, and
    a proper ordering only on one that also has no claw.  Seeded interval
    models, relabelled, are members with the PEO that `chordal_peo` builds."""
    found = collections.Counter()
    for n in range(7):
        for _, g in bf.labelled_graphs(n):
            forward, backward = recognition._interval_sweep(
                g, maximum_cardinality_search(g)[::-1]
            )
            if forward or backward:
                found["interval"] += 1
                assert chordal_peo(g) is not None
                assert bf.asteroidal_triple_reference(g) is None
            if forward and backward:
                found["proper"] += 1
                assert bf.find_embedding_reference(g, pat.claw()) is None
    assert found["interval"] > found["proper"] > 0
    for n in (64, 128):
        for s in range(4):
            perm = random.Random(s).sample(range(n), n)
            g = model_to_graph(gen_interval_model(n, s))
            h = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in g.edges()])
            verdict = recognize(h, INTERVAL)
            assert verdict.member and verdict.peo == chordal_peo(h)


def test_find_hole_matches_reference():
    """The shortest u-w path read off `rooted_forest` gives the layered
    walk's hole, tuple for tuple: on every labelled graph with at most 6
    vertices and its complement, on disjoint unions, and on seeded bipartite
    and random graphs at n = 16-64."""
    for n in range(7):
        for _, g in bf.labelled_graphs(n):
            for h in (g, complement(g)):
                assert find_hole(h) == bf.find_hole_reference(h), h.edges()
    for g in bf.disjoint_unions():
        assert find_hole(g) == bf.find_hole_reference(g), g.edges()
    for n in (16, 32, 64):
        for seed in range(5):
            for g in (gen_bipartite(n, 0.1, seed)[0], gen_bipartite(n, 0.5, seed)[0],
                      *(random_graph(n, p, seed) for p in (0.05, 0.1, 0.3, 0.7))):
                assert find_hole(g) == bf.find_hole_reference(g), (n, seed, g.edges())


# ---------------------------------------------------------- pattern search


def test_find_pattern_simple():
    assert find_pattern(pat.path_graph(4), pat.path_graph(3)) == (0, 1, 2)
    assert find_pattern(pat.cycle_graph(4), pat.complete_graph(3)) is None


def test_find_pattern_rising_sun_has_no_induced_tent():
    # every 6-subset of the rising sun induces 7, 8, or 10 edges, never 9
    assert not bf.contains_induced(ng.rising_sun(), ng.tent())
    assert find_pattern(ng.rising_sun(), ng.tent()) is None


def test_find_pattern_rising_sun_positive():
    witness = find_pattern(ng.rising_sun(), pat.diamond())
    assert witness is not None
    assert are_isomorphic(bf.induced(ng.rising_sun(), witness), pat.diamond())


def test_find_pattern_lexicographic_least():
    for seed in range(30):
        g = random_graph(7, 0.5, seed)
        for f in (pat.path_graph(3), pat.claw(), pat.complete_graph(3)):
            got = find_pattern(g, f)
            want = None
            from itertools import combinations

            for sub in combinations(range(g.n), f.n):
                if are_isomorphic(bf.induced(g, sub), f):
                    want = sub
                    break
            assert got == want


def test_find_pattern_size_cap():
    with pytest.raises(PatternTooLargeError):
        find_pattern(pat.complete_graph(12), pat.path_graph(9))


def test_find_clique_of_size():
    assert find_clique_of_size(pat.complete_graph(5), 5) == (0, 1, 2, 3, 4)
    assert find_clique_of_size(pat.cycle_graph(5), 3) is None


def test_find_clique_deeper_than_the_recursion_limit():
    g = pat.complete_graph(200)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        verdict = recognize(g, kp_free(200))
    finally:
        sys.setrecursionlimit(old)
    assert verdict == recognition.Verdict(False, tuple(range(200)), "k200")


def test_find_clique_of_size_lexicographic_least():
    for seed in range(30):
        g = random_graph(8, 0.6, seed)
        for p in (1, 2, 3, 4):
            want = next(
                (sub for sub in combinations(range(g.n), p)
                 if all(g.has_edge(u, v) for u, v in combinations(sub, 2))),
                None,
            )
            assert find_clique_of_size(g, p) == want


# --------------------------------------------------------------- recognize


POSITIVE = [
    (CHORDAL, pat.complete_graph(4)),
    (CHORDAL, ng.net()),
    (INTERVAL, pat.path_graph(5)),
    (UNIT_INTERVAL, ng.bull()),
    (UNIT_INTERVAL, ng.fitted_split_uig()),
    (SPLIT, ng.double_star(2, 1)),
    (THRESHOLD, pat.complete_split_pattern(2, 2)),
    (COMPLETE_SPLIT, ng.star_graph(4)),
    (TRIVIALLY_PERFECT, ng.star_graph(3)),
    (CLUSTER, pat.two_k2()),
    (BLOCK, ng.bull()),
    (CO_CHAIN, pat.co_p3()),
    (TWO_K2_P3_FREE, pat.complete_graph(3)),
    (kp_free(3), pat.cycle_graph(5)),
    (f_free(ng.net()), ng.tent()),
]

NEGATIVE = [
    (CHORDAL, pat.cycle_graph(5), "hole"),
    (INTERVAL, ng.net(), "asteroidal-triple"),
    (INTERVAL, pat.cycle_graph(4), "hole"),
    (UNIT_INTERVAL, pat.claw(), "claw"),
    (SPLIT, pat.two_k2(), "2k2"),
    (THRESHOLD, pat.path_graph(4), "p4"),
    (COMPLETE_SPLIT, pat.co_p3(), "co-p3"),
    (TRIVIALLY_PERFECT, pat.cycle_graph(4), "c4"),
    (CLUSTER, pat.path_graph(3), "p3"),
    (BLOCK, pat.diamond(), "diamond"),
    (CO_CHAIN, pat.empty_graph(3), "i3"),
    (CO_CHAIN, pat.cycle_graph(5), "c5"),
    (TWO_K2_P3_FREE, ng.star_graph(3), "p3"),
    (kp_free(3), pat.complete_graph(3), "k3"),
    (f_free(pat.diamond()), pat.diamond(), "pattern"),
]


@pytest.mark.parametrize("label,g", POSITIVE, ids=lambda x: getattr(x, "spelling", ""))
def test_recognize_positive(label, g):
    assert recognize(g, label).member


@pytest.mark.parametrize(
    "label,g,kind", NEGATIVE, ids=lambda x: getattr(x, "spelling", "")
)
def test_recognize_negative_with_witness(label, g, kind):
    verdict = recognize(g, label)
    assert not verdict.member
    assert verdict.witness_name == kind
    assert verdict.witness is not None


def test_recognize_witnesses_are_checkable():
    refs = {
        "2k2": pat.two_k2(),
        "c4": pat.cycle_graph(4),
        "c5": pat.cycle_graph(5),
        "p3": pat.path_graph(3),
        "p4": pat.path_graph(4),
        "co-p3": pat.co_p3(),
        "i3": pat.empty_graph(3),
        "claw": pat.claw(),
        "diamond": pat.diamond(),
    }
    for label, g, kind in NEGATIVE:
        verdict = recognize(g, label)
        if verdict.witness_name in refs:
            sub = bf.induced(g, verdict.witness)
            assert are_isomorphic(sub, refs[verdict.witness_name])


def test_recognize_agrees_with_obstruction_scan():
    # obstruction sets on random graphs, via the independent enumerator
    obstructions = {
        THRESHOLD: [pat.two_k2(), pat.cycle_graph(4), pat.path_graph(4)],
        TRIVIALLY_PERFECT: [pat.cycle_graph(4), pat.path_graph(4)],
        CLUSTER: [pat.path_graph(3)],
        COMPLETE_SPLIT: [pat.co_p3(), pat.cycle_graph(4)],
        TWO_K2_P3_FREE: [pat.two_k2(), pat.path_graph(3)],
        CO_CHAIN: [pat.empty_graph(3), pat.cycle_graph(4), pat.cycle_graph(5)],
    }
    for seed in range(40):
        g = random_graph(6, 0.5, seed)
        for label, pats in obstructions.items():
            want = not any(bf.contains_induced(g, f) for f in pats)
            assert recognize(g, label).member == want, label.spelling


def test_unit_interval_net_and_tent_rejected():
    assert not recognize(ng.net(), UNIT_INTERVAL).member
    assert not recognize(ng.tent(), UNIT_INTERVAL).member


def test_self_complementary_split_threshold():
    for seed in range(40):
        g = random_graph(7, 0.5, seed)
        assert recognize(g, SPLIT).member == recognize(complement(g), SPLIT).member
        assert (
            recognize(g, THRESHOLD).member
            == recognize(complement(g), THRESHOLD).member
        )


def test_class_containments_on_generated_instances():
    for seed in range(30):
        t, _ = gen_threshold(8, seed)
        for label in (SPLIT, TRIVIALLY_PERFECT, INTERVAL, CHORDAL):
            assert recognize(t, label).member
        s = gen_split(8, 0.5, seed)
        assert recognize(s, CHORDAL).member


def test_split_partition_family_structure():
    # pairwise structure of all split partitions of random split graphs
    for seed in range(40):
        g = gen_split(8, 0.5, seed)
        parts = enumerate_split_partitions(g)
        omega = bf.max_clique(g)
        alpha = bf.max_independent_set(g)
        for a in parts:
            for b in parts:
                if a == b:
                    continue
                assert abs(len(a.clique) - len(b.clique)) <= 1
                if len(a.clique) == len(b.clique) + 1:
                    assert set(b.clique) < set(a.clique)
                    assert len(a.clique) == omega
                    assert len(b.independent) == alpha
                elif len(a.clique) == len(b.clique):
                    strip_a = bf.remove_edges(g, combinations(a.clique, 2))
                    strip_b = bf.remove_edges(g, combinations(b.clique, 2))
                    assert are_isomorphic(strip_a, strip_b)


def test_are_isomorphic_basic():
    assert are_isomorphic(ng.net(), complement(ng.tent()))
    assert not are_isomorphic(ng.net(), ng.tent())
    for seed in range(20):
        g = random_graph(8, 0.5, seed)
        rng = random.Random(seed)
        perm = rng.sample(range(8), 8)
        h = Graph.from_edges(8, [(perm[u], perm[v]) for u, v in g.edges()])
        assert are_isomorphic(g, h)


def test_chordal_generated_instances():
    for seed in range(40):
        assert recognize(gen_chordal(9, seed), CHORDAL).member


CERTIFIED = (
    CLUSTER, TWO_K2_P3_FREE, COMPLETE_SPLIT, THRESHOLD, TRIVIALLY_PERFECT, CO_CHAIN, BLOCK,
)


@functools.cache
def _exhaustive_mismatches() -> dict:
    """Every labelled graph with at most 5 vertices for every base class, and
    with 6 vertices for the certified ones, checked against the unpruned
    reference: one enumeration shared by the tests below.  Keys are
    (check, class name), values the first few (n, edge mask) that fail."""
    bad: dict = {}
    certified = [label.name for label in CERTIFIED]
    for n in range(7):
        names = list(recognition.BASE_LABELS) if n <= 5 else certified
        wanted = {x for name in names for x in recognition._OBSTRUCTIONS[name]}
        for mask, g in bf.labelled_graphs(n):
            present = bf.obstructions_in(g, wanted)
            witness = functools.cache(functools.partial(bf.unpruned_witness, g))
            for name in names:
                want = bf.reference_verdict(recognition._OBSTRUCTIONS[name], present, witness)
                checks = [("verdict", recognize(g, recognition.BASE_LABELS[name]) == want)]
                if name in certified:
                    cert = recognition._certified(g, name, {})
                    checks.append(("certificate", cert == want.member))
                for check, ok in checks:
                    if not ok:
                        bad.setdefault((check, name), []).append((n, mask))
    return {key: fails[:5] for key, fails in bad.items()}


@pytest.mark.parametrize("name", list(recognition.BASE_LABELS))
def test_recognize_matches_unpruned_reference(name):
    # same verdict and byte-identical witness as the search with no
    # certificate and no pruning, on every small labelled graph
    assert _exhaustive_mismatches().get(("verdict", name)) is None


@pytest.mark.parametrize("label", CERTIFIED, ids=[label.name for label in CERTIFIED])
def test_certificate_first_recognition_matches_obstruction_search(label):
    assert _exhaustive_mismatches().get(("certificate", label.name)) is None
