"""Maximum bipartite matching and minimum vertex cover.

Hopcroft-Karp layered augmentation (Hopcroft-Karp 1973).  Its last layered
search, from the free lefts, reaches no free right, so the lefts it reaches
are exactly those that alternating paths reach, and the Koenig cover is read
off it: the unreached lefts plus every right next to a reached left.  That is
the unique minimum cover with the fewest right vertices, the same for every
maximum matching (Dulmage-Mendelsohn 1958) and so for any input order.  It
is re-verified against every edge and the matching size before it returns.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Collection, KeysView
from dataclasses import dataclass

from .graph import Graph, GraphInputError, VertexSet, vset

_INF = float("inf")


@dataclass(frozen=True)
class Bipartition:
    left: VertexSet
    right: VertexSet


def check_bipartition(g: Graph, b: Bipartition) -> None:
    if vset(b.left + b.right) != tuple(g.vertices()) or set(b.left) & set(b.right):
        raise GraphInputError("bipartition does not partition the vertices")
    left = set(b.left)
    for u, v in g.edges():
        if (u in left) == (v in left):
            raise GraphInputError(f"edge ({u}, {v}) inside one side")


def _hopcroft_karp(
    lefts: Collection[int], adj: dict[int, Collection[int]]
) -> tuple[dict[int, int], KeysView[int]]:
    """Matching as a left-to-right map, and the lefts that the last layered
    search reached: those that alternating paths from the free lefts reach."""
    match_l: dict[int, int] = {}
    match_r: dict[int, int] = {}
    while True:
        dist: dict[int, float] = {}
        queue = deque()
        for l in lefts:
            if l not in match_l:
                dist[l] = 0
                queue.append(l)
        reached_free = False
        while queue:
            l = queue.popleft()
            for r in adj[l]:
                nxt = match_r.get(r)
                if nxt is None:
                    reached_free = True
                elif nxt not in dist:
                    dist[nxt] = dist[l] + 1
                    queue.append(nxt)
        if not reached_free:
            return match_l, dist.keys()

        def augment(root: int) -> bool:
            # depth-first along the layers with an explicit stack, so long
            # alternating chains stay clear of the recursion limit
            stack, taken = [(root, iter(adj[root]))], []  # taken: right per level
            while stack:
                l, rest = stack[-1]
                for r in rest:
                    nxt = match_r.get(r)
                    if nxt is None:
                        for (u, _), w in zip(stack, taken + [r]):
                            match_l[u], match_r[w] = w, u
                        return True
                    if dist.get(nxt) == dist[l] + 1:
                        taken.append(r)
                        stack.append((nxt, iter(adj[nxt])))
                        break
                else:
                    dist[l] = _INF
                    stack.pop()
                    del taken[-1:]
            return False

        for l in lefts:
            if l not in match_l:
                augment(l)


def max_matching(g: Graph, b: Bipartition) -> list[tuple[int, int]]:
    """Maximum-cardinality matching as (left, right) pairs, ascending."""
    check_bipartition(g, b)
    match_l, _ = _hopcroft_karp(b.left, {l: sorted(g.adj[l]) for l in b.left})
    return sorted(match_l.items())


def cover_from_adjacency(lefts: Collection[int], adj: dict[int, Collection[int]]) -> VertexSet:
    """Minimum vertex cover of the bipartite graph given as left adjacency:
    `lefts` is any collection, and `adj` maps each left to any collection of
    its rights, in any order.  The cover is the lefts that the matching's last
    layered search did not reach, plus the rights next to those it did."""
    match_l, reached = _hopcroft_karp(lefts, adj)
    cover = (set(lefts) - reached) | {r for l in reached for r in adj[l]}
    if len(cover) != len(match_l):
        raise AssertionError("Koenig equality violated")
    for l, rs in adj.items():
        for r in rs:
            if l not in cover and r not in cover:
                raise AssertionError(f"edge ({l}, {r}) left uncovered")
    return vset(cover)


def min_vertex_cover(g: Graph, b: Bipartition) -> VertexSet:
    """Minimum vertex cover, read off the matching's last layered search."""
    check_bipartition(g, b)
    return cover_from_adjacency(b.left, {l: g.adj[l] for l in b.left})
