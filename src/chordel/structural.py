"""Solvers driven by decomposition structure rather than matching.

tree->cluster and block->cluster peel lowest leaves of a rooted (block-cut)
tree; chordal->co-chain picks the best pair of maximal cliques; the chordal
maximum independent set is the perfect-elimination greedy.
"""

from __future__ import annotations

from .graph import (
    DeletionResult,
    Graph,
    VertexSet,
    build_block_cut_tree,
    connected_components,
    delete_vertices,
    induced_subgraph,
    vset,
)
from .recognition import (
    BLOCK,
    CLUSTER,
    CO_CHAIN,
    NotInClassError,
    recognize,
    require,
    require_chordal,
)


def _local_clique(g: Graph, comp: VertexSet) -> bool:
    return all(g.has_edge(u, v) for i, u in enumerate(comp) for v in comp[i + 1 :])


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
    if g.m != g.n - len(connected_components(g)):
        raise NotInClassError("forest")
    adj = {v: set(g.adj[v]) for v in g.vertices()}
    alive = set(g.vertices())
    deleted: list[int] = []
    while True:
        choice = None  # (depth, leaf, victim)
        seen: set[int] = set()
        for root in sorted(alive):
            if root in seen:
                continue
            parent = {root: None}
            depth = {root: 0}
            kids = {root: 0}
            queue = [root]
            comp = []
            while queue:
                v = queue.pop(0)
                comp.append(v)
                for u in sorted(adj[v]):
                    if u not in parent:
                        parent[u] = v
                        depth[u] = depth[v] + 1
                        kids[v] = kids.get(v, 0) + 1
                        kids.setdefault(u, 0)
                        queue.append(u)
            seen.update(comp)
            if len(comp) <= 2:
                continue
            for v in comp:
                if kids[v] == 0:
                    key = (-depth[v], v)
                    if choice is None or key < choice[0]:
                        p = parent[v]
                        victim = p if kids[p] > 1 else parent[p]
                        choice = (key, victim)
        if choice is None:
            break
        victim = choice[1]
        deleted.append(victim)
        alive.remove(victim)
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
    round and dropped once they are cliques.
    """
    require(g, BLOCK)
    alive = list(g.vertices())
    deleted: list[int] = []
    while True:
        cur, old2new = induced_subgraph(g, alive)
        new2old = {ni: oi for oi, ni in old2new.items()}
        comps = [c for c in connected_components(cur) if not _local_clique(cur, c)]
        if not comps:
            break
        bct = build_block_cut_tree(cur)
        in_comp = {}
        for ci, comp in enumerate(comps):
            for v in comp:
                in_comp[v] = ci

        # Rooted forest over block nodes ('b', i) and cut nodes ('c', v).
        nbrs: dict[tuple[str, int], list[tuple[str, int]]] = {}
        for bi, v in bct.edges:
            nbrs.setdefault(("b", bi), []).append(("c", v))
            nbrs.setdefault(("c", v), []).append(("b", bi))

        def block_key(bi: int) -> tuple[int, ...]:
            return tuple(new2old[v] for v in bct.blocks[bi])

        parent: dict[tuple[str, int], tuple[str, int] | None] = {}
        depth: dict[tuple[str, int], int] = {}
        kids: dict[tuple[str, int], int] = {}
        for ci in range(len(comps)):
            candidates = [
                bi
                for bi, blk in enumerate(bct.blocks)
                if blk and in_comp.get(blk[0]) == ci
            ]
            root = ("b", min(candidates, key=block_key))
            parent[root] = None
            depth[root] = 0
            kids[root] = 0
            queue = [root]
            while queue:
                node = queue.pop(0)
                for nxt in sorted(nbrs.get(node, [])):
                    if nxt not in parent:
                        parent[nxt] = node
                        depth[nxt] = depth[node] + 1
                        kids[node] += 1
                        kids.setdefault(nxt, 0)
                        queue.append(nxt)

        leaf = min(
            (
                node
                for node in parent
                if node[0] == "b" and kids[node] == 0 and parent[node] is not None
            ),
            key=lambda node: (-depth[node], block_key(node[1])),
        )
        vnode = parent[leaf]
        v = vnode[1]
        if kids[vnode] > 1:
            doomed = {v}
        else:
            upper = parent[vnode][1]
            upper_blk = bct.blocks[upper]
            cutset = set(bct.cut_vertices)
            if any(w not in cutset for w in upper_blk):
                doomed = {v}
            else:
                doomed = set(upper_blk) - {v}
        doomed_old = sorted(new2old[w] for w in doomed)
        deleted.extend(doomed_old)
        alive = [x for x in alive if x not in set(doomed_old)]
    return _verified(g, vset(deleted), CLUSTER, "block-to-cluster")


def list_maximal_cliques_chordal(g: Graph) -> list[VertexSet]:
    """All maximal cliques via the elimination ordering; at most n of them."""
    order = require_chordal(g)
    pos = {v: i for i, v in enumerate(order)}
    cands = sorted(
        {vset({v} | {u for u in g.adj[v] if pos[u] > pos[v]}) for v in order}
    )
    maximal = [
        c for c in cands if not any(c != d and set(c) < set(d) for d in cands)
    ]
    if len(maximal) > max(g.n, 1):
        raise AssertionError("chordal graph with more than n maximal cliques")
    return maximal


def delete_to_cochain_chordal(g: Graph) -> DeletionResult:
    """Keep the best union of two maximal cliques (possibly the same one)."""
    if g.n == 0:
        return DeletionResult((), CO_CHAIN, "chordal-to-co-chain")
    cliques = list_maximal_cliques_chordal(g)
    everything = set(g.vertices())
    best: VertexSet | None = None
    for i in range(len(cliques)):
        for j in range(i, len(cliques)):
            gone = vset(everything - set(cliques[i]) - set(cliques[j]))
            if best is None or (len(gone), gone) < (len(best), best):
                best = gone
    return _verified(g, best, CO_CHAIN, "chordal-to-co-chain")


def max_independent_set_chordal(g: Graph) -> VertexSet:
    """Maximum independent set: greedy scan of a perfect elimination order."""
    taken: list[int] = []
    banned: set[int] = set()
    for v in require_chordal(g):
        if v not in banned:
            taken.append(v)
            banned.update(g.adj[v])
    return vset(taken)
