"""Solvers driven by decomposition structure rather than matching.

tree->cluster and block->cluster peel the deepest leaf of a rooted forest,
the forest itself or the block-cut tree of what is left, each rooted by the
one breadth-first walk `graph.rooted_forest`; chordal->co-chain picks the
best pair of maximal cliques; chordal->K2-free keeps the perfect-elimination
greedy's maximum independent set.  The chordal solvers run on the PEO that
recognition built, `require(g, CHORDAL).peo`.  `_verified` checks every
deletion set with the recognizer.
"""

from __future__ import annotations

from collections import defaultdict

from .graph import (
    DeletionResult,
    Graph,
    VertexSet,
    build_block_cut_tree,
    connected_components,
    delete_vertices,
    induced_subgraph,
    mask,
    rooted_forest,
    vset,
)
from .recognition import (
    BLOCK,
    CHORDAL,
    CLUSTER,
    CO_CHAIN,
    kp_free,
    recognize,
    require,
)


def _verified(g: Graph, deleted: VertexSet, label, method: str) -> DeletionResult:
    rest, _ = delete_vertices(g, deleted)
    if not recognize(rest, label).member:
        raise AssertionError(f"{method} produced an infeasible deletion set")
    return DeletionResult(deleted, label, method)


def delete_to_cluster_tree(g: Graph) -> DeletionResult:
    """Minimum deletion set turning a forest into a cluster graph.

    Each component is rooted at its least vertex.  Repeatedly take the
    deepest remaining leaf: if its parent has other children the parent is
    deleted, otherwise the grandparent is; components that are already
    cliques (at most two vertices) are left alone.
    """
    if g.m != g.n - len(connected_components(g)):  # a cycle: a hole, or else a triangle
        require(g, CHORDAL)
        require(g, kp_free(3))
    adj = {v: set(g.adj[v]) for v in g.vertices()}
    deleted: list[int] = []
    while True:
        parent, depth, kids = rooted_forest(sorted(adj), adj)
        leaves = [  # the leaves of components with three or more vertices
            v
            for v, p in parent.items()
            if kids[v] == 0 and p is not None and (kids[p] > 1 or parent[p] is not None)
        ]
        if not leaves:
            break
        p = parent[min(leaves, key=lambda v: (-depth[v], v))]
        victim = p if kids[p] > 1 else parent[p]
        deleted.append(victim)
        for u in adj.pop(victim):
            adj[u].discard(victim)
    return _verified(g, vset(deleted), CLUSTER, "tree-to-cluster")


def delete_to_cluster_block(g: Graph) -> DeletionResult:
    """Minimum deletion set turning a block graph into a cluster graph.

    Work on the block-cut tree of what is left, rooted per component at the
    block with the least vertex tuple.  For the deepest leaf block with
    parent cut vertex v: if v has other child blocks, delete v; else if the
    grandparent block has a non-cut vertex, delete v; else delete the whole
    grandparent block except v.  Detached pieces are re-examined on the next
    round; a piece that is a clique is a single block, and has no leaf.
    """
    require(g, BLOCK)
    alive = list(g.vertices())  # ascending, so vertex i of the rest is alive[i]
    deleted: list[int] = []
    while True:
        bct = build_block_cut_tree(induced_subgraph(g, alive)[0])
        # renumbering keeps the order, so blocks compare as their vertex tuples
        blocks = bct.blocks

        # Rooted forest over block nodes ('b', i) and cut nodes ('c', v).
        nbrs = defaultdict(list)
        for bi, v in bct.edges:
            nbrs[("b", bi)].append(("c", v))
            nbrs[("c", v)].append(("b", bi))
        roots = sorted(range(len(blocks)), key=blocks.__getitem__)
        parent, depth, kids = rooted_forest([("b", bi) for bi in roots], nbrs)
        leaves = [
            node
            for node in parent
            if node[0] == "b" and kids[node] == 0 and parent[node] is not None
        ]
        if not leaves:
            break
        cut = parent[min(leaves, key=lambda node: (-depth[node], blocks[node[1]]))]
        v = cut[1]
        upper = blocks[parent[cut][1]]
        if kids[cut] > 1 or not set(upper) <= set(bct.cut_vertices):
            doomed = {alive[v]}
        else:
            doomed = {alive[w] for w in upper if w != v}
        deleted.extend(doomed)
        alive = [x for x in alive if x not in doomed]
    return _verified(g, vset(deleted), CLUSTER, "block-to-cluster")


def list_maximal_cliques_chordal(g: Graph) -> list[VertexSet]:
    """All maximal cliques via the elimination ordering; at most n of them.
    C(v) = {v} ∪ later(v) is not maximal exactly when some u has v as its first
    later neighbour and |later(u)| = |later(v)| + 1 (Blair-Peyton 1993)."""
    order = require(g, CHORDAL).peo
    pos = {v: i for i, v in enumerate(order)}
    later = {v: [u for u in g.adj[v] if pos[u] > pos[v]] for v in order}
    first = {u: min(later[u], key=pos.__getitem__) for u in order if later[u]}
    absorbed = {v for u, v in first.items() if len(later[u]) == len(later[v]) + 1}
    maximal = sorted(vset([v, *later[v]]) for v in order if v not in absorbed)
    if len(maximal) > max(g.n, 1):
        raise AssertionError("chordal graph with more than n maximal cliques")
    return maximal


def delete_to_cochain_chordal(g: Graph) -> DeletionResult:
    """Keep the best union of two maximal cliques (possibly the same one)."""
    cliques = list_maximal_cliques_chordal(g)
    masks = list(map(mask, cliques))
    everything = set(g.vertices())
    best = vset(everything)  # any clique pair beats deleting everything when n > 0
    for i, a in enumerate(masks):
        for j in range(i, len(masks)):
            if g.n - (a | masks[j]).bit_count() <= len(best):  # can win or tie
                gone = vset(everything.difference(cliques[i], cliques[j]))
                if (len(gone), gone) < (len(best), best):
                    best = gone
    return _verified(g, best, CO_CHAIN, "chordal-to-co-chain")


def max_independent_set_chordal(g: Graph) -> VertexSet:
    """Maximum independent set: greedy scan of a perfect elimination order."""
    taken: list[int] = []
    banned: set[int] = set()
    for v in require(g, CHORDAL).peo:
        if v not in banned:
            taken.append(v)
            banned.update(g.adj[v])
    return vset(taken)


def delete_to_k2free_chordal(g: Graph) -> DeletionResult:
    """Minimum deletion set making a chordal graph edgeless: everything
    outside a maximum independent set."""
    deleted = vset(set(g.vertices()) - set(max_independent_set_chordal(g)))
    return _verified(g, deleted, kp_free(2), "chordal-to-k2-free")
