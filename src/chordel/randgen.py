"""Seeded random instance generators, one per input class.

Membership is guaranteed by construction (clique plus independent set,
creation sequences, subtree intersection, trees of cliques), so the class
recognizers and the generators validate each other in the test suite.
Identical seeds give identical instances.  `gen_threshold` returns its
creation sequence with the graph, and `gen_bipartite` its two sides.
Nothing here comes from `reductions`, whose builders these instances check.

Cost, besides building the graph in O(n + m):
- gen_split, gen_bipartite: O(n^2), one draw per clique-independent or
  left-right pair;
- gen_threshold, gen_interval_model, gen_block, gen_tree: O(n) draws;
- gen_chordal: about n^2 / 2 subtree growth steps, each a draw and a
  bisect into a frontier list, then one n-bit OR per (subtree, node) pair;
  about 2 s at n = 1024 on a 2-core x86 host.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort

from .graph import Graph
from .interval import IntervalModel
from .matching import Bipartition


def gen_split(n: int, edge_bias: float = 0.5, seed: int = 0) -> Graph:
    """Random clique/independent sizes, cross edges with the given bias."""
    rng = random.Random(seed)
    perm = rng.sample(range(n), n)
    c = rng.randint(0, n)
    cliq, indep = perm[:c], perm[c:]
    edges = [(u, v) for i, u in enumerate(cliq) for v in cliq[i + 1 :]]
    for u in cliq:
        for v in indep:
            if rng.random() < edge_bias:
                edges.append((u, v))
    return Graph.from_edges(n, edges)


def gen_threshold(n: int, seed: int = 0) -> tuple[Graph, tuple[str, ...]]:
    """A random creation sequence and its graph: vertex i joins either
    isolated or dominating every vertex before it."""
    rng = random.Random(seed)
    roles = tuple(rng.choice(("isolated", "dominating")) for _ in range(n))
    edges = [(j, i) for i, role in enumerate(roles) if role == "dominating" for j in range(i)]
    return Graph.from_edges(n, edges), roles


def gen_interval_model(n: int, seed: int = 0) -> IntervalModel:
    """n intervals with 2n distinct integer endpoints."""
    rng = random.Random(seed)
    points = rng.sample(range(1, 4 * n + 1), 2 * n)
    ivs = []
    for i in range(n):
        a, b = points[2 * i], points[2 * i + 1]
        ivs.append((min(a, b), max(a, b)))
    return IntervalModel(tuple(ivs))


def gen_chordal(n: int, seed: int = 0) -> Graph:
    """Intersection graph of random subtrees of a random host tree.

    Each subtree grows from a random node by uniform draws from its sorted
    frontier, kept up to date with `bisect`.  The host is a tree, so a node
    joining the subtree adds its other host neighbours to the frontier, none
    of them there already, and the frontier runs out only when the subtree
    holds all n nodes.
    """
    rng = random.Random(seed)
    host: list[list[int]] = [[] for _ in range(n)]
    for v in range(1, n):
        u = rng.randrange(v)
        host[v].append(u)
        host[u].append(v)
    holders = [0] * n  # host node -> bitmask of the subtrees holding it
    subtrees = []
    for i in range(n):
        target = rng.randint(1, n)
        root = rng.randrange(n)
        sub, frontier = {root}, sorted(host[root])
        while len(sub) < target:
            w = rng.choice(frontier)
            del frontier[bisect_left(frontier, w)]
            sub.add(w)
            for y in host[w]:
                if y not in sub:
                    insort(frontier, y)
        for x in sub:
            holders[x] |= 1 << i
        subtrees.append(sub)
    adj = []
    for i, sub in enumerate(subtrees):
        meets = 0
        for x in sub:
            meets |= holders[x]
        bits = bin(meets ^ (1 << i))[:1:-1]  # bit j at index j
        adj.append(frozenset(j for j, c in enumerate(bits) if c == "1"))
    return Graph._built(n, tuple(adj))  # i meets j exactly when j meets i


def gen_block(n: int, seed: int = 0) -> Graph:
    """Tree of cliques: repeatedly hang a small clique on an existing vertex."""
    rng = random.Random(seed)
    edges = []
    nxt = 1
    while nxt < n:
        attach = rng.randrange(nxt)
        k = rng.randint(1, min(3, n - nxt))
        member = [attach] + list(range(nxt, nxt + k))
        edges.extend((u, v) for i, u in enumerate(member) for v in member[i + 1 :])
        nxt += k
    return Graph.from_edges(n, edges)


def gen_bipartite(
    n: int, p: float = 0.5, seed: int = 0
) -> tuple[Graph, Bipartition]:
    rng = random.Random(seed)
    perm = rng.sample(range(n), n)
    c = rng.randint(0, n)
    left, right = sorted(perm[:c]), sorted(perm[c:])
    edges = [
        (u, v) for u in left for v in right if rng.random() < p
    ]
    return Graph.from_edges(n, edges), Bipartition(tuple(left), tuple(right))


def gen_tree(n: int, seed: int = 0) -> Graph:
    """Random recursive tree: vertex i attaches to a uniform earlier vertex."""
    rng = random.Random(seed)
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    return Graph.from_edges(n, edges)
