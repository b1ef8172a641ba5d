"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines.
Budgets are wall-clock seconds and generous for a laptop-class machine.
"""

import random
import time
from itertools import combinations

import bruteforce as bf
from bruteforce import are_isomorphic
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
    bowtie,
    bowtie_model,
    complement,
    delete_to_2k2p3,
    delete_to_cluster_block,
    delete_to_cluster_split,
    delete_to_cluster_tree,
    delete_to_cochain_chordal,
    delete_to_complete_split,
    delete_to_unit_interval_split,
    delete_vertices,
    enumerate_split_partitions,
    f_free,
    induced_subgraph,
    kp_free,
    max_cluster_subgraph,
    max_complete_split_subgraph,
    max_independent_set_chordal,
    max_matching,
    min_vertex_cover,
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
from chordel.randgen import (
    gen_bipartite,
    gen_block,
    gen_chordal,
    gen_interval_model,
    gen_split,
    gen_threshold,
    gen_tree,
)
from chordel.recognition import maximum_cardinality_search


def finish(name: str, t0: float, limit: float) -> None:
    elapsed = time.perf_counter() - t0
    print(f"[acceptance] {name}: PASS in {elapsed:.2f}s (budget {limit:g}s)")
    assert elapsed < limit, f"{name} exceeded its {limit}s budget"


def test_criterion_1_double_star_complete_split():
    t0 = time.perf_counter()
    result = delete_to_complete_split(ng.double_star(2, 1))
    assert result.size == 1
    assert result.deleted == (4,)  # exactly v3, the unique optimum
    finish("1 double-star complete-split optimum", t0, 1)


def test_criterion_2_tent_gadget_on_four_cycle():
    t0 = time.perf_counter()
    image = reduce_vc_to_ffree(pat.cycle_graph(4), ng.tent(), (0, 1))
    assert recognize(image, CHORDAL).member
    best = oracle_min_deletion(image, f_free(ng.tent()), allow_large=True)
    assert best.size == 2
    rest, _ = delete_vertices(image, (0, 2))  # opposite corners of the cycle
    assert recognize(rest, f_free(ng.tent())).member
    finish("2 tent gadget on a four-cycle", t0, 30)


def _sized(seed: int, lo: int, hi: int) -> int:
    return lo + seed % (hi - lo + 1)


def test_criterion_3_oracle_equivalence_suite():
    t0 = time.perf_counter()
    seeds = range(200)

    split_solvers = [
        (delete_to_2k2p3, TWO_K2_P3_FREE),
        (delete_to_cluster_split, CLUSTER),
        (delete_to_complete_split, COMPLETE_SPLIT),
        (delete_to_unit_interval_split, UNIT_INTERVAL),
    ]
    for s in seeds:
        g = gen_split(_sized(s, 4, 10), 0.5, s)
        for solver, label in split_solvers:
            result = solver(g)
            assert result.size == oracle_min_deletion(g, label).size, (s, label)
            rest, _ = delete_vertices(g, result.deleted)
            assert recognize(rest, label).member

    for s in seeds:
        m = gen_interval_model(_sized(s, 4, 10), s)
        g = model_to_graph(m)
        for solver, label in (
            (max_cluster_subgraph, CLUSTER),
            (max_complete_split_subgraph, COMPLETE_SPLIT),
        ):
            kept = solver(m)
            assert g.n - len(kept) == oracle_min_deletion(g, label).size, (s, label)
            sub, _ = induced_subgraph(g, kept)
            assert recognize(sub, label).member

    for s in seeds:
        t = gen_tree(_sized(s, 6, 12), s)
        result = delete_to_cluster_tree(t)
        assert result.size == oracle_min_deletion(t, CLUSTER).size, s
        rest, _ = delete_vertices(t, result.deleted)
        assert recognize(rest, CLUSTER).member

        b = gen_block(_sized(s, 6, 12), s)
        result = delete_to_cluster_block(b)
        assert result.size == oracle_min_deletion(b, CLUSTER).size, s
        rest, _ = delete_vertices(b, result.deleted)
        assert recognize(rest, CLUSTER).member

    for s in seeds:
        c = gen_chordal(_sized(s, 4, 10), s)
        result = delete_to_cochain_chordal(c)
        assert result.size == oracle_min_deletion(c, CO_CHAIN).size, s
        rest, _ = delete_vertices(c, result.deleted)
        assert recognize(rest, CO_CHAIN).member

        kept = max_independent_set_chordal(c)
        assert c.n - len(kept) == oracle_min_deletion(c, kp_free(2)).size, s
        sub, _ = induced_subgraph(c, kept)
        assert recognize(sub, kp_free(2)).member

    finish("3 oracle equivalence (10 solvers x 200 seeds)", t0, 600)


def test_criterion_4_koenig():
    t0 = time.perf_counter()
    for s in range(500):
        g, sides = gen_bipartite(_sized(s, 4, 11), 0.45, s)
        cover = min_vertex_cover(g, sides)
        matching = max_matching(g, sides)
        assert len(cover) == len(matching)
        cov = set(cover)
        assert all(u in cov or v in cov for u, v in g.edges())
    finish("4 Koenig equality (500 instances)", t0, 10)


def test_criterion_5_split_partition_structure():
    t0 = time.perf_counter()
    for s in range(200):
        g = gen_split(_sized(s, 4, 10), 0.5, s)
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
                    sa = _without_clique_edges(g, a.clique)
                    sb = _without_clique_edges(g, b.clique)
                    assert are_isomorphic(sa, sb)
    finish("5 split-partition structure (200 instances)", t0, 120)


def _without_clique_edges(g, cliq):
    drop = {(min(u, v), max(u, v)) for i, u in enumerate(cliq) for v in cliq[i + 1 :]}
    return Graph.from_edges(g.n, [e for e in g.edges() if e not in drop])


def test_criterion_6_bowtie_and_models():
    t0 = time.perf_counter()
    for s in range(1000):
        g1, _ = gen_threshold(_sized(s, 3, 7), 2 * s)
        g2, _ = gen_threshold(_sized(s + 3, 3, 7), 2 * s + 1)
        c1 = split_partition(g1).clique
        c2 = split_partition(g2).clique
        joined = bowtie(g1, c1, g2, c2)
        assert recognize(joined, INTERVAL).member
        assert model_to_graph(bowtie_model(g1, g2, c1, c2)).edges() == joined.edges()
    for s in range(1000):
        g, _ = gen_threshold(_sized(s, 3, 8), s)
        assert model_to_graph(threshold_interval_model(g)).edges() == g.edges()
    finish("6 bowtie interval + model round-trips (1000 each)", t0, 120)


def _small_random_graph(seed: int, n_hi: int, p: float, m_cap: int) -> Graph:
    rng = random.Random(seed)
    while True:
        n = rng.randint(2, n_hi)
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
        ]
        if len(edges) <= m_cap:
            return Graph.from_edges(n, edges)


def _brute_vertex_cover(g: Graph) -> int:
    for k in range(g.n + 1):
        for sub in combinations(range(g.n), k):
            s = set(sub)
            if all(u in s or v in s for u, v in g.edges()):
                return k
    raise AssertionError


def test_criterion_7_reduction_soundness():
    t0 = time.perf_counter()

    # (a) chain -> threshold
    for s in range(100):
        b, sides = gen_bipartite(_sized(s, 3, 8), 0.45, s)
        image = reduce_chain_to_threshold(b, sides)
        assert (
            oracle_min_deletion(b, f_free(pat.two_k2())).size
            == oracle_min_deletion(image, f_free(pat.path_graph(4))).size
        ), s

    # (b) threshold -> interval, all budgets below |C|
    for s in range(100):
        g = gen_split(_sized(s, 3, 7), 0.5, s)
        csize = len(split_partition(g).clique)
        image = reduce_threshold_to_interval(g)
        mu = oracle_min_deletion(g, THRESHOLD).size
        if mu < csize:
            got = oracle_min_deletion(image, INTERVAL, k_max=mu, allow_large=True)
            assert got is not None and got.size == mu, s
        elif csize > 0:
            got = oracle_min_deletion(
                image, INTERVAL, k_max=csize - 1, allow_large=True
            )
            assert got is None, s

    # (c) vertex cover -> pattern-free deletion, diamond and tent gadgets
    for pattern in (pat.diamond(), ng.tent()):
        for s in range(100):
            g = _small_random_graph(s, 6, 0.35, 7)
            image = reduce_vc_to_ffree(g, pattern)
            vc = _brute_vertex_cover(g)
            got = oracle_min_deletion(
                image, f_free(pattern), k_max=vc, allow_large=True
            )
            assert got is not None and got.size == vc, (s, pattern.n)

    finish("7 reduction soundness (chain, padding, vc gadgets)", t0, 900)


def test_criterion_8_complement_duality():
    t0 = time.perf_counter()
    for s in range(200):
        g = gen_split(_sized(s, 4, 10), 0.5, s)
        assert (
            delete_to_cluster_split(g).size
            == delete_to_complete_split(complement(g)).size
        ), s
    finish("8 complement duality (200 instances)", t0, 60)


def _disjoint_cliques(seed: int) -> Graph:
    rng = random.Random(seed)
    sizes = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
    edges, base = [], 0
    for k in sizes:
        edges.extend(
            (base + i, base + j) for i in range(k) for j in range(i + 1, k)
        )
        base += k
    return Graph.from_edges(base, edges)


def test_criterion_9_generators_and_containments():
    t0 = time.perf_counter()
    for s in range(1000):
        assert recognize(gen_split(8, 0.5, s), SPLIT).member
        assert recognize(gen_threshold(8, s)[0], THRESHOLD).member
        assert recognize(gen_chordal(7, s), CHORDAL).member
        assert recognize(gen_block(8, s), BLOCK).member
        t = gen_tree(8, s)
        assert recognize(t, BLOCK).member
        m = gen_interval_model(7, s)
        assert recognize(model_to_graph(m), INTERVAL).member
        g, sides = gen_bipartite(8, 0.5, s)
        left = set(sides.left)
        assert all((u in left) != (v in left) for u, v in g.edges())

    # containment spot checks along the class diagram
    for s in range(200):
        thr, _ = gen_threshold(8, s)
        for label in (SPLIT, TRIVIALLY_PERFECT, INTERVAL, CHORDAL):
            assert recognize(thr, label).member
        clu = _disjoint_cliques(s)
        for label in (BLOCK, UNIT_INTERVAL, CHORDAL):
            assert recognize(clu, label).member
        spl = gen_split(8, 0.5, s)
        assert recognize(spl, CHORDAL).member
        blk = gen_block(8, s)
        assert recognize(blk, CHORDAL).member
    finish("9 generator/recognizer validation (1000 seeds each)", t0, 120)


def test_criterion_10_interval_solvers_at_n80():
    m = gen_interval_model(80, 1)
    for name, solver in (
        ("cluster", max_cluster_subgraph),
        ("complete split", max_complete_split_subgraph),
    ):
        t0 = time.perf_counter()
        kept = solver(m)
        assert kept
        finish(f"10 interval -> {name} at n = 80", t0, 0.25)


def test_criterion_11_certificates_answer_members_fast():
    thr, _ = gen_threshold(200, 1)
    for name, g, label, member in (
        ("threshold on a threshold graph, n = 200", thr, THRESHOLD, True),
        ("trivially perfect on a threshold graph, n = 200", thr, TRIVIALLY_PERFECT, True),
        ("block on K64", pat.complete_graph(64), BLOCK, True),
        ("block on a block graph, n = 256", gen_block(256, 1), BLOCK, True),
        ("threshold on a split graph, n = 80", gen_split(80, 0.5, 1), THRESHOLD, False),
    ):
        t0 = time.perf_counter()
        verdict = recognize(g, label)
        assert verdict.member == member
        finish(f"11 {name}", t0, 0.25)


def test_criterion_12_split_solvers_at_scale():
    # the sizes are the unbounded family's optima on these instances
    big, mid = gen_split(1024, 0.5, 1), gen_split(80, 0.5, 1)
    for name, solver, g, size, limit in (
        ("split -> 2k2p3 at n = 1024", delete_to_2k2p3, big, 301, 2),
        ("split -> cluster at n = 1024", delete_to_cluster_split, big, 301, 2),
        ("split -> unit interval at n = 80", delete_to_unit_interval_split, mid, 23, 1),
    ):
        t0 = time.perf_counter()
        assert solver(g).size == size
        finish(f"12 {name}", t0, limit)


def test_criterion_13_recognition_kernels_at_scale():
    tree = gen_tree(1024, 1)
    t0 = time.perf_counter()
    assert len(maximum_cardinality_search(tree)) == 1024
    finish("13 MCS on a tree, n = 1024", t0, 0.05)
    interval = model_to_graph(gen_interval_model(512, 1))
    for name, g, label, limit in (
        ("interval on an interval model graph, n = 512", interval, INTERVAL, 1.5),
        ("unit interval on K200", pat.complete_graph(200), UNIT_INTERVAL, 0.5),
        ("unit interval on 1,000 isolated vertices", pat.empty_graph(1000), UNIT_INTERVAL, 5),
    ):
        t0 = time.perf_counter()
        assert recognize(g, label).member
        finish(f"13 {name}", t0, limit)


def test_criterion_14_chordal_generator_at_scale():
    t0 = time.perf_counter()
    assert gen_chordal(512, 1).m == 127050
    finish("14 chordal generator, n = 512", t0, 1.5)
