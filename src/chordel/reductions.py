"""Constructive reductions and the interval models certifying them.

Threshold graphs get explicit interval models; two threshold graphs joined
clique-to-clique ("bowtie") stay interval, and the model for the join is
the first model plus a mirrored copy of the second.  The remaining builders
produce the hardness gadget instances: bipartite-to-split completion,
split-to-interval padding with a complete split graph, and the per-edge
pattern-copy gadget reducing vertex cover to pattern-free deletion.
"""

from __future__ import annotations

from .graph import (
    Graph,
    GraphInputError,
    VertexSet,
    add_edges,
    build_block_cut_tree,
    disjoint_union,
    vset,
)
from .interval import IntervalModel
from .matching import Bipartition, check_bipartition
from .patterns import complete_split_pattern
from .recognition import (
    SplitPartition,
    SPLIT,
    THRESHOLD,
    chordal_peo,
    is_valid_split_partition,
    nested_by_degree,
    recognize,
    require,
)


def _raw_threshold_intervals(
    g: Graph, part: SplitPartition
) -> list[tuple[int, int]]:
    """Integer interval per vertex (half-integers scaled by two).

    Independent vertices are sorted so their neighborhoods are nested; the
    i-th (1-based) gets [i, i+0.5].  A clique vertex seeing independent
    vertices starts at the least index it sees and runs to |I|+2; the rest
    of the clique occupies [|I|+1, |I|+2].
    """
    indep = nested_by_degree(g, part.independent)
    if indep is None:
        raise AssertionError("independent-side neighborhoods not nested")
    rank = {v: i for i, v in enumerate(indep, start=1)}
    k = len(indep)
    spans: dict[int, tuple[int, int]] = {}
    for i, v in enumerate(indep, start=1):
        spans[v] = (2 * i, 2 * i + 1)
    for u in part.clique:
        seen = [rank[w] for w in g.adj[u] if w in rank]
        if seen:
            spans[u] = (2 * min(seen), 2 * (k + 2))
        else:
            spans[u] = (2 * (k + 1), 2 * (k + 2))
    return [spans[v] for v in range(g.n)]


def _threshold_partition(g: Graph, part: SplitPartition | None) -> SplitPartition:
    """`part` after checking it, or the degree-test partition when it is None;
    either way g must be threshold, else `NotInClassError`."""
    if part is not None and not is_valid_split_partition(g, part):
        raise GraphInputError("invalid split partition")
    checked = require(g, THRESHOLD).partition  # run for a given one too: it shows only split
    return checked if part is None else part


def threshold_interval_model(g: Graph, part: SplitPartition | None = None) -> IntervalModel:
    """Interval model of a threshold graph from its nested neighborhoods."""
    part = _threshold_partition(g, part)
    return IntervalModel(tuple(_raw_threshold_intervals(g, part))).normalized()


def bowtie(g1: Graph, c1: VertexSet, g2: Graph, c2: VertexSet) -> Graph:
    """Disjoint union plus all edges between the two clique sides.

    The result is split with clique side c1 + shifted c2.  g2's ids are
    shifted up by g1.n.
    """
    for g, c in ((g1, c1), (g2, c2)):
        rest = vset(set(g.vertices()) - set(c))
        if not is_valid_split_partition(g, SplitPartition(vset(c), rest)):
            raise GraphInputError("clique side is not a split partition")
    joined = disjoint_union(g1, g2)
    off = g1.n
    return add_edges(joined, [(u, v + off) for u in c1 for v in c2])


def bowtie_model(
    g1: Graph,
    g2: Graph,
    c1: VertexSet | None = None,
    c2: VertexSet | None = None,
) -> IntervalModel:
    """Interval model of bowtie(g1, g2) for threshold inputs.

    g1 keeps its model; every g2 interval [l, r] is mirrored to
    [L - r, L - l] with L = |I1| + |I2| + 3, so the two clique sides meet in
    the middle and the independent sides stay apart.
    """
    p1, p2 = (
        _threshold_partition(
            g, None if c is None else SplitPartition(vset(c), vset(set(g.vertices()) - set(c)))
        )
        for g, c in ((g1, c1), (g2, c2))
    )
    raw1 = _raw_threshold_intervals(g1, p1)
    raw2 = _raw_threshold_intervals(g2, p2)
    big = 2 * (len(p1.independent) + len(p2.independent) + 3)
    mirrored = [(big - r, big - l) for l, r in raw2]
    return IntervalModel(tuple(raw1 + mirrored)).normalized()


def reduce_chain_to_threshold(b: Graph, part: Bipartition) -> Graph:
    """Complete one side of a bipartite graph into a clique.

    Hitting all induced 2K2 in the bipartite graph is then the same problem
    as hitting all induced P4 in the split image.
    """
    check_bipartition(b, part)
    cl = part.left
    return add_edges(b, [(u, v) for i, u in enumerate(cl) for v in cl[i + 1 :]])


def reduce_threshold_to_interval(g: Graph) -> Graph:
    """Join a split graph with a complete split graph of matching size.

    H = g joined to a complete split gadget with |C'| = |I'| = |C|; for
    budgets below |C|, threshold deletion on g and interval deletion on H
    have the same answer.
    """
    part = require(g, SPLIT).partition
    c = len(part.clique)
    gadget = complete_split_pattern(c, c)
    return bowtie(g, part.clique, gadget, tuple(range(c)))


def reduce_vc_to_ffree(
    g: Graph, f: Graph, anchor_edge: tuple[int, int] | None = None
) -> Graph:
    """Vertex cover instance to pattern-free deletion on a chordal graph.

    The original vertices are completed into a clique (they keep their ids);
    every edge uv of g receives a fresh copy of the pattern glued so its
    anchor edge lands on u, v.  The pattern must be biconnected, chordal,
    and not complete; the output is asserted chordal, and split whenever the
    pattern minus the anchor endpoints has no edges.
    """
    bct = build_block_cut_tree(f)
    if len(bct.blocks) != 1 or f.n < 3:
        raise GraphInputError("pattern must be biconnected")
    if chordal_peo(f) is None:
        raise GraphInputError("pattern must be chordal")
    if f.m == f.n * (f.n - 1) // 2:
        raise GraphInputError("pattern must not be complete")
    if anchor_edge is None:
        anchor_edge = f.edges()[0]
    a, b = anchor_edge
    if a not in range(f.n) or b not in range(f.n) or not f.has_edge(a, b):
        raise GraphInputError(f"anchor ({a}, {b}) is not an edge of the pattern")

    rest = [w for w in f.vertices() if w not in (a, b)]
    edges = [(u, v) for u in g.vertices() for v in range(u + 1, g.n)]
    nxt = g.n
    for u, v in g.edges():
        placed = {a: u, b: v}
        for w in rest:
            placed[w] = nxt
            nxt += 1
        edges.extend(
            (min(placed[x], placed[y]), max(placed[x], placed[y]))
            for x, y in f.edges()
        )
    out = Graph.from_edges(nxt, sorted(set(edges)))

    if chordal_peo(out) is None:
        raise AssertionError("gadget output is not chordal")
    anchored_everything = all(
        a in (x, y) or b in (x, y) for x, y in f.edges()
    )
    if anchored_everything and not recognize(out, SPLIT).member:
        raise AssertionError("gadget output should be split for this pattern")
    return out
