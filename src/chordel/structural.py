"""Solvers driven by decomposition structure rather than matching.

tree->cluster and block->cluster peel the deepest leaf of a rooted forest,
the forest itself or the block-cut tree, each component rooted by the one
breadth-first walk `graph.rooted_forest`, which reads the forest's
adjacency or the tree nodes' `meets`; a round re-roots only the pieces it
cut off.  The forest test counts the roots of the first rooting; the
block-cut tree is built once per solve, and its blocks, kept as vertex
tuples, are the block certificate (`recognition.blocks_are_cliques`).
chordal->co-chain picks the best pair of maximal cliques; chordal->K2-free
keeps the perfect-elimination greedy's maximum independent set.  The
chordal solvers run on the PEO that recognition built,
`require(g, CHORDAL).peo`.  `_verified` checks every deletion set with the
recognizer.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .graph import (
    DeletionResult,
    Graph,
    VertexSet,
    build_block_cut_tree,
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
    blocks_are_cliques,
    kp_free,
    recognize,
    require,
)


def _verified(g: Graph, deleted: VertexSet, label, method: str) -> DeletionResult:
    rest, _ = induced_subgraph(g, set(g.vertices()).difference(deleted))
    if not recognize(rest, label).member:
        raise AssertionError(f"{method} produced an infeasible deletion set")
    return DeletionResult(deleted, label, method)


def delete_to_cluster_tree(g: Graph) -> DeletionResult:
    """Minimum deletion set turning a forest into a cluster graph.

    Each component is rooted at its least vertex.  Repeatedly take the
    deepest remaining leaf, least first: if its parent has other children
    the parent is deleted, otherwise the grandparent is; components that are
    already cliques (at most two vertices) are left alone.  A deletion keeps
    the root, depths and leaves of every other component and of the piece
    holding the root, whose only change is one child fewer for the victim's
    parent; so a round re-roots only the pieces cut off below the victim,
    each at its least vertex.
    """
    adj = {v: set(g.adj[v]) for v in g.vertices()}
    parent, depth, kids = rooted_forest(g.vertices(), adj.__getitem__)
    if g.m != g.n - list(parent.values()).count(None):  # a cycle: a hole, or a triangle
        require(g, CHORDAL)
        require(g, kp_free(3))
    leaves = [(-depth[v], v) for v in parent if kids[v] == 0]
    heapify(leaves)
    deleted: list[int] = []
    while leaves:
        d, v = heappop(leaves)
        p = parent[v]
        if v not in adj or kids[v] or depth[v] != -d or p is None:
            continue  # deleted, no longer a leaf, re-rooted since, or a root
        if kids[p] == 1 and parent[p] is None:
            continue  # a component of two vertices
        victim = p if kids[p] > 1 else parent[p]
        deleted.append(victim)
        up = parent[victim]
        if up is not None:
            kids[up] -= 1
            heappush(leaves, (-depth[up], up))
        for u in adj[victim]:
            adj[u].discard(victim)
        for u in adj.pop(victim) - {up}:  # root the piece below u at its least vertex
            piece = rooted_forest([u], adj.__getitem__)[0]
            rooting = rooted_forest([min(piece)], adj.__getitem__)
            for table, new in zip((parent, depth, kids), rooting):
                table.update(new)
            for w in rooting[0]:
                if not kids[w]:
                    heappush(leaves, (-depth[w], w))
    return _verified(g, vset(deleted), CLUSTER, "tree-to-cluster")


def delete_to_cluster_block(g: Graph) -> DeletionResult:
    """Minimum deletion set turning a block graph into a cluster graph.

    Work on the block-cut tree of what is left, rooted per component at the
    block with the least vertex tuple.  For the deepest leaf block with
    parent cut vertex v: if v has other child blocks, delete v; else if the
    grandparent block has a non-cut vertex, delete v; else delete the whole
    grandparent block except v.  Detached pieces are re-examined on the next
    round; a piece that is a clique is a single block, and has no leaf.

    The tree is built once.  Blocks are cliques, so a deletion only shrinks
    the blocks holding the vertex; one left with a vertex that lies in
    another block is gone.  What is left is the old forest less the nodes
    that went, so a round re-roots only the pieces those nodes cut off, and
    the root's piece when its root block shrank (another block that shrinks
    keeps two vertices, so its tuple stays above the root's).
    """
    tree = build_block_cut_tree(g)
    if not blocks_are_cliques(g, tree):
        require(g, BLOCK)  # raises with the hole or diamond
    blocks = dict(enumerate(tree.blocks))  # the live ones
    homes = {v: set() for v in g.vertices()}  # the live blocks holding each vertex
    for bi, blk in blocks.items():
        for w in blk:
            homes[w].add(bi)

    def live(node) -> bool:  # None, or a block ("b", i) or cut vertex ("c", v) node
        if node is None:
            return False
        return node[1] in blocks if node[0] == "b" else len(homes.get(node[1], ())) > 1

    def meets(node) -> list:
        if node[0] == "b":
            return [("c", w) for w in blocks[node[1]] if len(homes[w]) > 1]
        return [("b", bi) for bi in homes[node[1]]]

    parent: dict = {}
    depth: dict = {}
    leaves: list = []  # (-depth, vertex tuple, block id), checked when popped

    def queue(nodes) -> None:
        for n in nodes:
            if n[0] == "b" and n[1] in blocks:
                heappush(leaves, (-depth[n], blocks[n[1]], n[1]))

    def reroot(seeds) -> None:
        """Root each piece holding a seed at its least block."""
        reached: set = set()
        for seed in seeds:
            if seed not in reached:
                piece = rooted_forest([seed], meets)[0]
                reached.update(piece)
                least = min((n for n in piece if n[0] == "b"), key=lambda n: blocks[n[1]])
                up, down, kids = rooted_forest([least], meets)
                parent.update(up)
                depth.update(down)
                queue(n for n, p in up.items() if p is not None and not kids[n])

    reroot([("b", bi) for bi in blocks])
    deleted: list[int] = []
    while leaves:
        d, blk, bi = heappop(leaves)
        cut = parent[("b", bi)]
        if blocks.get(bi) != blk or depth[("b", bi)] != -d or cut is None:
            continue  # shrunk or gone, re-rooted since, or a root
        v = cut[1]
        if any(len(homes[w]) > 1 and w != v for w in blk):
            continue  # it has a child cut vertex
        upper = blocks[parent[cut][1]]
        if len(homes[v]) > 2 or any(len(homes[w]) == 1 for w in upper):
            doomed = [v]
        else:
            doomed = [w for w in upper if w != v]
        deleted.extend(doomed)
        shrunk = {b for x in doomed for b in homes.pop(x)}
        for b in shrunk:
            blocks[b] = tuple(w for w in blocks[b] if w not in doomed)
        near = [("b", b) for b in shrunk]  # the blocks that shrank, and what gone ones held
        for b in shrunk:
            u, *rest = blocks[b]
            if not rest and len(homes[u]) > 1:  # a lone vertex that lies in another block
                del blocks[b]
                homes[u].discard(b)
                near += [("c", u), *(("b", h) for h in homes[u])]
        reroot([n for n in near if live(n) and not live(parent[n])])  # cut off, or root shrank
        queue(near)  # the blocks that shrank or lost a child
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
