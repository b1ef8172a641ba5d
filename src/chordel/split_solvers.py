"""Polynomial deletion solvers whose input is a split graph.

All of them are candidate-family algorithms: build a family of deletion sets
that provably contains an optimum, return the smallest (ties to the
lexicographically least set), and check it once with the recognizer.

On a split partition (C, I) every candidate is F ∪ cover(C − F, I − S): the
move (F, S) deletes the clique vertices F and keeps the independent vertices
S (at most two) attached, and `matching`'s canonical minimum vertex cover
removes the cross edges left between C − F and I − S.  The {2K2, P3}-free
moves are (∅, ∅) and (C − N(v), {v}) for each v in I.  Unit interval adds
(∅, {v}), (C ∩ N(v1) ∩ N(v2), {v1, v2}) and (C − N(v1) − N(v2), {v1, v2}).

Each solve is a branch and bound over that family.  A move's size is bounded
below by |forced| + |F| plus a greedy maximal matching of the cross edges
left (by König's theorem a cover is at least any matching), and the move is
skipped only when that bound is strictly above the smallest candidate so far:
a move that could tie is still computed, so the lexicographic tie-break sees
every set of the minimum size.
"""

from __future__ import annotations

from itertools import combinations

from .graph import (
    DeletionResult,
    Graph,
    VertexSet,
    complement,
    delete_vertices,
    mask,
    vset,
)
from .matching import cover_from_adjacency
from .recognition import (
    CLUSTER,
    COMPLETE_SPLIT,
    SPLIT,
    TWO_K2_P3_FREE,
    UNIT_INTERVAL,
    enumerate_split_partitions,
    recognize,
    require,
    split_partition,
)


def _is_degenerate(g: Graph) -> bool:
    return g.m == 0 or g.m == g.n * (g.n - 1) // 2


def _cross_cover(g: Graph, cliq, indep) -> VertexSet:
    """Min vertex cover of the clique-to-independent cross edges, original ids;
    the cover does not depend on the order of its inputs, so none is sorted."""
    return cover_from_adjacency(cliq, {u: g.adj[u].intersection(indep) for u in cliq})


def _moves(g: Graph, cliq, indep, pairs: bool) -> list[tuple[frozenset, frozenset]]:
    """The distinct moves (F, S) on (cliq, indep), unit interval's if `pairs`."""
    cset, none = frozenset(cliq), frozenset()
    moves = [(none, none)] + [(cset - g.adj[v], frozenset({v})) for v in indep]
    if pairs:
        moves += [(none, frozenset({v})) for v in indep]
        for v1, v2 in combinations(indep, 2):
            both = frozenset({v1, v2})
            moves.append((cset & g.adj[v1] & g.adj[v2], both))
            moves.append((cset - g.adj[v1] - g.adj[v2], both))
    return list(dict.fromkeys(moves))


def _candidates(g: Graph, cliq, indep, pairs: bool, found: list, forced=frozenset()) -> list:
    """Append forced ∪ F ∪ cover(C − F, I − S) to `found`, and return it, for
    each move (F, S) whose lower bound is not above the best set so far."""
    cset, iset = frozenset(cliq), frozenset(indep)
    bits = {u: mask(g.adj[u] & iset) for u in cset}
    every = mask(iset)
    best = min(map(len, found), default=g.n)
    for f, s in _moves(g, cliq, indep, pairs):
        bound, lefts = len(forced) + len(f), cset - f
        free = every - mask(s)
        for u in lefts:  # a greedy maximal matching of the cross edges left
            if bound > best:
                break
            hit = bits[u] & free
            if hit:
                free ^= hit & -hit
                bound += 1
        if bound <= best:
            found.append(vset(forced | f | set(_cross_cover(g, lefts, iset - s))))
            best = min(best, len(found[-1]))
    return found


def _best(cands: list[VertexSet]) -> VertexSet:
    return min(cands, key=lambda s: (len(s), s))


def _verified(g: Graph, deleted: VertexSet, label, method: str) -> DeletionResult:
    rest, _ = delete_vertices(g, deleted)
    if not recognize(rest, label).member:
        raise AssertionError(f"{method} produced an infeasible deletion set")
    return DeletionResult(deleted, label, method)


def _min_2k2p3(g: Graph, part) -> VertexSet:
    """Minimum deletion set making g {2K2, P3}-free, from any split partition:
    only the cross edges matter, and at most one independent vertex keeps
    its neighbours."""
    return _best(_candidates(g, part.clique, part.independent, False, []))


def delete_to_2k2p3(g: Graph) -> DeletionResult:
    """Minimum deletion set making a split graph {2K2, P3}-free."""
    part = require(g, SPLIT).partition
    return _verified(g, _min_2k2p3(g, part), TWO_K2_P3_FREE, "split-to-2k2p3")


def delete_to_cluster_split(g: Graph) -> DeletionResult:
    """Same deletion set as the {2K2, P3}-free solver: a split cluster graph
    is exactly a {2K2, P3}-free graph."""
    return _verified(g, _min_2k2p3(g, require(g, SPLIT).partition), CLUSTER, "split-to-cluster")


def delete_to_complete_split(g: Graph) -> DeletionResult:
    """Solve on the complement: complete split is the complement class of
    {2K2, P3}-free, and split graphs are self-complementary."""
    require(g, SPLIT)
    co = complement(g)
    deleted = _min_2k2p3(co, split_partition(co))
    return _verified(g, deleted, COMPLETE_SPLIT, "split-to-complete-split")


def delete_to_unit_interval_split(g: Graph) -> DeletionResult:
    """Minimum deletion set making a split graph a unit interval graph.

    Case 1 keeps at most two independent vertices attached to the clique.
    Case 2 commits to one independent vertex v adjacent to the whole
    surviving clique: delete C minus N(v), move v to the clique side, and
    rerun case 1.  The algorithm is run once per split partition and the
    best candidate over all runs wins.
    """
    if _is_degenerate(g):  # an edgeless graph has n + 1 split partitions
        return _verified(g, (), UNIT_INTERVAL, "split-to-unit-interval")
    found: list[VertexSet] = []
    for part in enumerate_split_partitions(g):
        cliq, indep = part.clique, part.independent
        _candidates(g, cliq, indep, True, found)
        for v in indep:
            moved = (set(cliq) & g.adj[v]) | {v}
            rest = [w for w in indep if w != v]
            _candidates(g, moved, rest, True, found, frozenset(cliq) - g.adj[v])
    return _verified(g, _best(found), UNIT_INTERVAL, "split-to-unit-interval")
