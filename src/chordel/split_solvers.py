"""Polynomial deletion solvers whose input is a split graph.

All of them are candidate-family algorithms: build a family of deletion sets
that provably contains an optimum, verify each candidate is feasible by
construction, and return the smallest (ties to the lexicographically least
set).  The workhorse is a minimum vertex cover of the bipartite graph left
after dropping the clique-side edges.
"""

from __future__ import annotations

from .graph import (
    DeletionResult,
    Graph,
    VertexSet,
    complement,
    delete_vertices,
    vset,
)
from .matching import cover_from_adjacency
from .recognition import (
    CLUSTER,
    COMPLETE_SPLIT,
    TWO_K2_P3_FREE,
    UNIT_INTERVAL,
    enumerate_split_partitions,
    recognize,
    require_split,
)


def _is_degenerate(g: Graph) -> bool:
    return g.n == 0 or g.m == 0 or g.m == g.n * (g.n - 1) // 2


def _cross_cover(g: Graph, clique_side, indep_side) -> VertexSet:
    """Min vertex cover of the clique-to-independent cross edges, original ids."""
    indep = set(indep_side)
    lefts = sorted(clique_side)
    adj = {u: sorted(v for v in g.adj[u] if v in indep) for u in lefts}
    return cover_from_adjacency(lefts, adj)


def _non_clique_candidates(g: Graph, cliq, indep) -> list[VertexSet]:
    """Deletion sets that isolate all but one independent-side vertex.

    One candidate covers every cross edge; one candidate per independent
    vertex v keeps v attached by deleting the clique vertices missing from
    N(v) and covering what remains.
    """
    cands = [_cross_cover(g, cliq, indep)]
    for v in indep:
        kept = [u for u in cliq if u in g.adj[v]]
        removed = [u for u in cliq if u not in g.adj[v]]
        rest = [w for w in indep if w != v]
        cover = _cross_cover(g, kept, rest)
        cands.append(vset(set(cover) | set(removed)))
    return cands


def _best(cands: list[VertexSet]) -> VertexSet:
    return min(cands, key=lambda s: (len(s), s))


def _verified(g: Graph, deleted: VertexSet, label, method: str) -> DeletionResult:
    rest, _ = delete_vertices(g, deleted)
    if not recognize(rest, label).member:
        raise AssertionError(f"{method} produced an infeasible deletion set")
    return DeletionResult(deleted, label, method)


def delete_to_2k2p3(g: Graph) -> DeletionResult:
    """Minimum deletion set making a split graph {2K2, P3}-free.

    Any split partition works; deleted edges between the sides are what
    matter, so every candidate is a cross-edge vertex cover, possibly after
    committing to the one independent vertex allowed to keep its neighbors.
    """
    part = require_split(g)
    if _is_degenerate(g):
        return DeletionResult((), TWO_K2_P3_FREE, "split-to-2k2p3")
    cands = _non_clique_candidates(g, part.clique, part.independent)
    return _verified(g, _best(cands), TWO_K2_P3_FREE, "split-to-2k2p3")


def delete_to_cluster_split(g: Graph) -> DeletionResult:
    """Same deletion set as the {2K2, P3}-free solver: a split cluster graph
    is exactly a {2K2, P3}-free graph."""
    inner = delete_to_2k2p3(g)
    return _verified(g, inner.deleted, CLUSTER, "split-to-cluster")


def delete_to_complete_split(g: Graph) -> DeletionResult:
    """Solve on the complement: complete split is the complement class of
    {2K2, P3}-free, and split graphs are self-complementary."""
    require_split(g)
    inner = delete_to_2k2p3(complement(g))
    return _verified(g, inner.deleted, COMPLETE_SPLIT, "split-to-complete-split")


def _case1_candidates(g: Graph, cliq: VertexSet, indep: VertexSet) -> list[VertexSet]:
    """Candidates when every kept independent vertex misses part of the clique.

    Besides the {2K2, P3}-free family, either a single independent vertex v
    stays attached (cover everything else), or exactly two stay; then the
    clique vertices seeing both, or those seeing neither, must go.
    """
    cands = _non_clique_candidates(g, cliq, indep)
    cset = set(cliq)
    for v in indep:
        rest = [w for w in indep if w != v]
        cands.append(_cross_cover(g, cliq, rest))
    for i, v1 in enumerate(indep):
        for v2 in indep[i + 1 :]:
            rest = [w for w in indep if w != v1 and w != v2]
            common = vset(cset & g.adj[v1] & g.adj[v2])
            cover = _cross_cover(g, cset - set(common), rest)
            cands.append(vset(set(cover) | set(common)))
            outside = vset(cset - set(g.adj[v1]) - set(g.adj[v2]))
            cover = _cross_cover(g, cset - set(outside), rest)
            cands.append(vset(set(cover) | set(outside)))
    return cands


def delete_to_unit_interval_split(g: Graph) -> DeletionResult:
    """Minimum deletion set making a split graph a unit interval graph.

    Case 1 keeps at most two independent vertices attached to the clique.
    Case 2 commits to one independent vertex v adjacent to the whole
    surviving clique: delete C minus N(v), move v to the clique side, and
    rerun case 1.  The algorithm is run once per split partition and the
    best candidate over all runs wins.
    """
    if _is_degenerate(g):
        return DeletionResult((), UNIT_INTERVAL, "split-to-unit-interval")
    cands: list[VertexSet] = []
    for part in enumerate_split_partitions(g):
        cliq, indep = part.clique, part.independent
        cands.extend(_case1_candidates(g, cliq, indep))
        for v in indep:
            removed = vset(set(cliq) - g.adj[v])
            new_cliq = vset((set(cliq) & g.adj[v]) | {v})
            new_indep = vset(w for w in indep if w != v)
            for sub in _case1_candidates(g, new_cliq, new_indep):
                cands.append(vset(set(sub) | set(removed)))
    return _verified(g, _best(cands), UNIT_INTERVAL, "split-to-unit-interval")
