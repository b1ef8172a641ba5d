from itertools import chain

import pytest

import bruteforce as bf
import named_graphs as ng
from chordel import (
    CLUSTER,
    COMPLETE_SPLIT,
    TWO_K2_P3_FREE,
    UNIT_INTERVAL,
    NotInClassError,
    complement,
    delete_to_2k2p3,
    delete_to_cluster_split,
    delete_to_complete_split,
    delete_to_unit_interval_split,
    delete_vertices,
    enumerate_split_partitions,
    oracle_min_deletion,
    recognize,
)
from chordel import patterns as pat
from chordel import split_solvers
from chordel.graph import vset
from chordel.randgen import gen_split
from chordel.recognition import split_partition


ALL_SPLIT_SOLVERS = [
    (delete_to_2k2p3, TWO_K2_P3_FREE),
    (delete_to_cluster_split, CLUSTER),
    (delete_to_complete_split, COMPLETE_SPLIT),
    (delete_to_unit_interval_split, UNIT_INTERVAL),
]


def test_2k2p3_already_free():
    g = pat.complete_split_pattern(3, 0)  # a triangle
    assert delete_to_2k2p3(g).deleted == ()


def test_2k2p3_double_star_matches_oracle():
    g = ng.double_star(2, 1)
    result = delete_to_2k2p3(g)
    want = oracle_min_deletion(g, TWO_K2_P3_FREE)
    assert result.size == want.size == 1
    rest, _ = delete_vertices(g, result.deleted)
    assert recognize(rest, TWO_K2_P3_FREE).member


def test_2k2p3_star():
    assert delete_to_2k2p3(ng.star_graph(3)).size == 1
    assert bf.min_deletion(
        ng.star_graph(3), lambda h: recognize(h, TWO_K2_P3_FREE).member
    ) == 1


def test_cluster_split_p3():
    assert delete_to_cluster_split(pat.path_graph(3)).size == 1


def test_cluster_split_triangle_plus_isolated():
    from chordel.graph import disjoint_union

    g = disjoint_union(pat.complete_graph(3), pat.empty_graph(2))
    assert delete_to_cluster_split(g).deleted == ()


def test_complete_split_double_star_unique_optimum():
    result = delete_to_complete_split(ng.double_star(2, 1))
    assert result.deleted == (4,)  # the lone leaf on the second center


def test_complete_split_already_complete():
    assert delete_to_complete_split(pat.complete_split_pattern(2, 3)).deleted == ()


def test_unit_interval_fitted_example():
    assert delete_to_unit_interval_split(ng.fitted_split_uig()).deleted == ()


def test_unit_interval_net():
    result = delete_to_unit_interval_split(ng.net())
    assert result.size == 1


def test_solvers_reject_nonsplit():
    for solver, _ in ALL_SPLIT_SOLVERS:
        with pytest.raises(NotInClassError):
            solver(pat.cycle_graph(5))


def test_degenerate_inputs(monkeypatch):
    checked = []

    def counted(h, label, _real=split_solvers.recognize):
        checked.append(label)
        return _real(h, label)

    monkeypatch.setattr(split_solvers, "recognize", counted)
    for solver, label in ALL_SPLIT_SOLVERS:
        for g in (pat.empty_graph(0), pat.empty_graph(4), pat.complete_graph(4)):
            checked.clear()
            assert solver(g).deleted == ()
            assert checked == [label]  # the result is checked, as every other


@pytest.mark.parametrize("solver,label", ALL_SPLIT_SOLVERS,
                         ids=lambda x: getattr(x, "__name__", ""))
def test_solver_equals_oracle_on_randoms(solver, label):
    for seed in range(60):
        g = gen_split(8, 0.5, seed)
        result = solver(g)
        want = oracle_min_deletion(g, label)
        assert result.size == want.size, (seed, label.spelling)
        rest, _ = delete_vertices(g, result.deleted)
        assert recognize(rest, label).member


def test_complement_duality():
    for seed in range(60):
        g = gen_split(8, 0.5, seed)
        assert (
            delete_to_cluster_split(g).size
            == delete_to_complete_split(complement(g)).size
        )


def test_unit_interval_components_keep_small_independent_side():
    # surviving components have at most 3 independent-side vertices under
    # any inherited split partition
    for seed in range(40):
        g = gen_split(8, 0.5, seed)
        result = delete_to_unit_interval_split(g)
        rest, old2new = delete_vertices(g, result.deleted)
        for part in enumerate_split_partitions(g):
            indep_new = {old2new[v] for v in part.independent if v in old2new}
            for comp in bf.connected_components_reference(rest):
                assert len(indep_new & set(comp)) <= 3


def _family(g, runs, pairs, cover):
    # every move of the library's rule on each run (cliq, indep, forced),
    # each covered: the unpruned family; runs repeat covers, so `cover`
    # is a `bf.cover_memo` shared with the reference
    return [
        vset(forced | f | set(cover(g, frozenset(cliq) - f, frozenset(indep) - s)))
        for cliq, indep, forced in runs
        for f, s in split_solvers._moves(g, cliq, indep, pairs)
    ]


def test_candidate_families_match_reference():
    # the one move rule lists the same distinct candidates as the case-by-case
    # builders, on every labelled split graph up to 6 vertices and a seeded
    # corpus; the bounded search returns the best set of the whole family
    seeded = (
        gen_split(n, bias, seed)
        for n in (8, 12, 16) for bias in (0.2, 0.5, 0.8) for seed in range(30)
    )
    for g in chain(bf.labelled_split_graphs(6), seeded):
        part, cover = split_partition(g), bf.cover_memo(g)
        want = bf.non_clique_candidates(g, part.clique, part.independent, cover)
        runs = [(part.clique, part.independent, frozenset())]
        assert set(_family(g, runs, False, cover)) == set(want)
        assert delete_to_2k2p3(g).deleted == split_solvers._best(want)
        if split_solvers._is_degenerate(g):
            continue
        runs = []
        for p in enumerate_split_partitions(g):
            runs.append((p.clique, p.independent, frozenset()))
            for v in p.independent:
                moved = (set(p.clique) & g.adj[v]) | {v}
                rest = [w for w in p.independent if w != v]
                runs.append((moved, rest, frozenset(p.clique) - g.adj[v]))
        want = bf.unit_interval_candidates(g, cover)
        assert set(_family(g, runs, True, cover)) == set(want)
        assert delete_to_unit_interval_split(g).deleted == split_solvers._best(want)
