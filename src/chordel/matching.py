"""Maximum bipartite matching and minimum vertex cover.

Hopcroft-Karp layered augmentation with ties broken by ascending vertex id,
then the Koenig construction for the cover.  The cover is re-verified against
every edge and against the matching size before it is returned.
"""

from __future__ import annotations

from collections import deque
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
    lefts: list[int], adj: dict[int, list[int]]
) -> tuple[dict[int, int], dict[int, int]]:
    """Matching as left-to-right and right-to-left maps."""
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
            return match_l, match_r

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


def _cross_adjacency(g: Graph, b: Bipartition) -> dict[int, list[int]]:
    return {l: sorted(g.adj[l]) for l in b.left}


def max_matching(g: Graph, b: Bipartition) -> list[tuple[int, int]]:
    """Maximum-cardinality matching as (left, right) pairs, ascending."""
    check_bipartition(g, b)
    match_l, _ = _hopcroft_karp(list(b.left), _cross_adjacency(g, b))
    return sorted(match_l.items())


def cover_from_adjacency(lefts: list[int], adj: dict[int, list[int]]) -> VertexSet:
    """Minimum vertex cover of the bipartite graph given as left adjacency.

    Runs the matching, then walks alternating paths from the free left
    vertices; the cover is the unreached lefts plus the reached rights.
    """
    match_l, match_r = _hopcroft_karp(lefts, adj)

    visited_l: set[int] = set()
    visited_r: set[int] = set()
    stack = [l for l in lefts if l not in match_l]
    visited_l.update(stack)
    while stack:
        l = stack.pop()
        for r in adj[l]:
            if match_l.get(l) == r or r in visited_r:
                continue
            visited_r.add(r)
            back = match_r.get(r)
            if back is not None and back not in visited_l:
                visited_l.add(back)
                stack.append(back)

    rights = {r for rs in adj.values() for r in rs}
    cover = vset((set(lefts) - visited_l) | (rights & visited_r))
    if len(cover) != len(match_l):
        raise AssertionError("Koenig equality violated")
    cov = set(cover)
    for l, rs in adj.items():
        for r in rs:
            if l not in cov and r not in cov:
                raise AssertionError(f"edge ({l}, {r}) left uncovered")
    return cover


def min_vertex_cover(g: Graph, b: Bipartition) -> VertexSet:
    """Minimum vertex cover from the matching's alternating reachability."""
    check_bipartition(g, b)
    return cover_from_adjacency(list(b.left), _cross_adjacency(g, b))
