"""Undirected simple graphs over dense integer vertex ids 0..n-1.

Graphs are immutable values; every operation returns a new graph.  All
iteration is in ascending vertex id so downstream solvers are reproducible.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, TYPE_CHECKING

if TYPE_CHECKING:
    from .recognition import ClassLabel

VertexSet = tuple[int, ...]


MAX_VERTICES = 1 << 20  # inputs and generators above this are refused before allocating


class GraphInputError(ValueError):
    """Malformed graph input: bad ids, bad file syntax, broken invariants."""


def check_vertex_cap(n: int) -> None:
    if n > MAX_VERTICES:
        raise GraphInputError(f"n = {n} is above the vertex cap {MAX_VERTICES}")


def vset(vertices: Iterable[int]) -> VertexSet:
    """Canonical vertex set: ascending, duplicate-free tuple."""
    return tuple(sorted(set(vertices)))


def mask(vertices: Iterable[int]) -> int:
    """The int with bit v set for each of `vertices`."""
    return sum(map((1).__lshift__, vertices))


@dataclass(frozen=True)
class Graph:
    """Adjacency-set representation of an undirected simple graph.

    Invariants: adjacency is symmetric, there are no self loops, and the
    vertex ids are exactly 0..n-1.  `Graph(n, adj)` checks them; the
    builders below, whose adjacency holds them by construction, go through
    `_built` and skip the check (the tests run it on their outputs).
    """

    n: int
    adj: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if self.n < 0 or len(self.adj) != self.n:
            raise GraphInputError(f"adjacency length {len(self.adj)} != n = {self.n}")
        for v, nbrs in enumerate(self.adj):
            if v in nbrs:
                raise GraphInputError(f"self-loop at vertex {v}")
            for u in nbrs:
                if not 0 <= u < self.n:
                    raise GraphInputError(f"neighbor {u} of {v} out of range")
                if v not in self.adj[u]:
                    raise GraphInputError(f"asymmetric edge {v}-{u}")

    @classmethod
    def _built(cls, n: int, adj: tuple[frozenset[int], ...]) -> "Graph":
        """A graph whose adjacency is valid by construction, unchecked."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", adj)
        return g

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 0:
            raise GraphInputError(f"adjacency length 0 != n = {n}")
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphInputError(f"edge ({u}, {v}) out of range for n = {n}")
            if u == v:
                raise GraphInputError(f"self-loop ({u}, {v})")
            adj[u].add(v)
            adj[v].add(u)
        return cls._built(n, tuple(map(frozenset, adj)))

    @property
    def m(self) -> int:
        return sum(len(s) for s in self.adj) // 2

    def vertices(self) -> range:
        return range(self.n)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def edges(self) -> list[tuple[int, int]]:
        """All edges (u, v) with u < v, ascending."""
        return [(u, v) for u in range(self.n) for v in sorted(self.adj[u]) if u < v]

    def closed_neighborhood(self, v: int) -> frozenset[int]:
        return self.adj[v] | {v}

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.n))


@dataclass(frozen=True)
class DeletionResult:
    """A deletion set together with the class it certifies and who found it."""

    deleted: VertexSet
    target_class: "ClassLabel"
    method: str = ""

    @property
    def size(self) -> int:
        return len(self.deleted)


def check_vertex_set(g: Graph, s: Iterable[int]) -> VertexSet:
    out = vset(s)
    for v in out:
        if not 0 <= v < g.n:
            raise GraphInputError(f"vertex {v} out of range for n = {g.n}")
    return out


def delete_vertices(g: Graph, s: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on the survivors, re-indexed to 0..n-|s|-1.

    Returns the new graph and the old-to-new id map for the survivors.
    """
    dead = set(check_vertex_set(g, s))
    survivors = [v for v in g.vertices() if v not in dead]
    old_to_new = {v: i for i, v in enumerate(survivors)}
    adj = tuple(
        frozenset(old_to_new[u] for u in g.adj[v] if u not in dead) for v in survivors
    )
    return Graph._built(len(survivors), adj), old_to_new


def induced_subgraph(g: Graph, keep: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on `keep`, with the old-to-new id map."""
    kept = set(check_vertex_set(g, keep))
    return delete_vertices(g, [v for v in g.vertices() if v not in kept])


def complement(g: Graph) -> Graph:
    all_v = frozenset(g.vertices())
    adj = tuple(all_v - g.adj[v] - {v} for v in g.vertices())
    return Graph._built(g.n, adj)


def rooted_forest(roots, nbrs) -> tuple[dict, dict, dict]:
    """Breadth-first forest grown from each of `roots` not yet reached, in
    order, where `nbrs(node)` gives a node's neighbours in visiting order:
    the parent (None at a root), depth and child count of every node
    reached.  The parent map lists each tree in visiting order, root first."""
    parent: dict = {}
    depth: dict = {}
    kids: dict = {}
    for root in roots:
        if root in parent:
            continue
        parent[root], depth[root], kids[root] = None, 0, 0
        queue = [root]
        for node in queue:  # the list grows while it is walked: a FIFO queue
            for nxt in nbrs(node):
                if nxt not in parent:
                    parent[nxt], depth[nxt], kids[nxt] = node, depth[node] + 1, 0
                    kids[node] += 1
                    queue.append(nxt)
    return parent, depth, kids


def is_clique(g: Graph, s: Iterable[int]) -> bool:
    ss = check_vertex_set(g, s)
    return all(g.has_edge(u, v) for i, u in enumerate(ss) for v in ss[i + 1 :])


def is_independent(g: Graph, s: Iterable[int]) -> bool:
    ss = check_vertex_set(g, s)
    return not any(g.has_edge(u, v) for i, u in enumerate(ss) for v in ss[i + 1 :])


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """g1 followed by g2, with g2's ids shifted up by g1.n."""
    off = g1.n
    adj = tuple(g1.adj) + tuple(frozenset(u + off for u in s) for s in g2.adj)
    return Graph._built(g1.n + g2.n, adj)


def add_edges(g: Graph, extra: Iterable[tuple[int, int]]) -> Graph:
    edges = set(g.edges())
    for u, v in extra:
        if u == v:
            raise GraphInputError(f"self-loop ({u}, {v})")
        edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(g.n, sorted(edges))


def bipartition_classes(g: Graph) -> tuple[VertexSet, VertexSet] | None:
    """Two-colour g by a stack walk of its own, which stops at the first odd
    edge, unlike `rooted_forest`; None when some component has an odd cycle."""
    color = [-1] * g.n
    for start in g.vertices():
        if color[start] != -1:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            v = queue.pop()
            for u in g.adj[v]:
                if color[u] == -1:
                    color[u] = 1 - color[v]
                    queue.append(u)
                elif color[u] == color[v]:
                    return None
    left = vset(v for v in g.vertices() if color[v] == 0)
    right = vset(v for v in g.vertices() if color[v] == 1)
    return left, right


@dataclass(frozen=True)
class BlockCutTree:
    """Blocks, cut vertices, and the bipartite block/cut-vertex incidences."""

    blocks: tuple[VertexSet, ...]
    cut_vertices: VertexSet
    edges: tuple[tuple[int, int], ...]  # (block index, cut vertex id)


def build_block_cut_tree(g: Graph) -> BlockCutTree:
    """Biconnected components by the classic lowpoint DFS, iterative form: a
    stack of (vertex, parent, its place in `pending`, iterator over its sorted
    neighbours).  `pending` lists the vertices discovered but not yet in a
    block; a child v with low[v] >= disc[parent] closes v's part of it.

    Isolated vertices become singleton blocks so every vertex lives in at
    least one block; the cut vertices are those in more than one block.
    """
    disc = [-1] * g.n
    low = [0] * g.n
    timer = 0
    blocks: list[VertexSet] = []
    pending: list[int] = []

    for root in g.vertices():
        if disc[root] != -1:
            continue
        if not g.adj[root]:
            blocks.append((root,))
            continue
        disc[root] = low[root] = timer
        timer += 1
        stack = [(root, -1, 0, iter(sorted(g.adj[root])))]
        while stack:
            v, parent, _, rest = stack[-1]
            for w in rest:
                if disc[w] == -1:
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, v, len(pending), iter(sorted(g.adj[w]))))
                    pending.append(w)
                    break
                if w != parent:
                    low[v] = min(low[v], disc[w])
            else:
                _, pv, at, _ = stack.pop()
                if stack:
                    low[pv] = min(low[pv], low[v])
                    if low[v] >= disc[pv]:
                        blocks.append(vset([pv, *pending[at:]]))
                        del pending[at:]

    cuts = {v for v, k in Counter(v for blk in blocks for v in blk).items() if k > 1}
    edges = tuple(
        (bi, v) for bi, blk in enumerate(blocks) for v in blk if v in cuts
    )
    return BlockCutTree(tuple(blocks), vset(cuts), edges)
