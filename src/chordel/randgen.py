"""Seeded random instance generators, one per input class.

Membership is guaranteed by construction (clique plus independent set,
creation sequences, subtree intersection, trees of cliques), so the class
recognizers and the generators validate each other in the test suite.
Identical seeds give identical instances.
"""

from __future__ import annotations

import random

from .graph import Graph
from .interval import IntervalModel
from .matching import Bipartition
from .reductions import ThresholdCreation


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


def gen_threshold(n: int, seed: int = 0) -> tuple[Graph, ThresholdCreation]:
    rng = random.Random(seed)
    roles = tuple(rng.choice(("isolated", "dominating")) for _ in range(n))
    creation = ThresholdCreation(roles)
    return creation.graph(), creation


def gen_interval_model(n: int, seed: int = 0) -> IntervalModel:
    """n intervals with 2n distinct integer endpoints."""
    rng = random.Random(seed)
    points = rng.sample(range(1, 4 * n + 1), 2 * n) if n else []
    ivs = []
    for i in range(n):
        a, b = points[2 * i], points[2 * i + 1]
        ivs.append((min(a, b), max(a, b)))
    return IntervalModel(tuple(ivs))


def gen_chordal(n: int, seed: int = 0) -> Graph:
    """Intersection graph of random subtrees of a random host tree."""
    rng = random.Random(seed)
    if n == 0:
        return Graph.from_edges(0, [])
    host: dict[int, set[int]] = {0: set()}
    for v in range(1, n):
        u = rng.randrange(v)
        host.setdefault(v, set()).add(u)
        host[u].add(v)
    subtrees = []
    for _ in range(n):
        target = rng.randint(1, n)
        sub = {rng.randrange(n)}
        while len(sub) < target:
            frontier = sorted(
                {w for x in sub for w in host[x] if w not in sub}
            )
            if not frontier:
                break
            sub.add(rng.choice(frontier))
        subtrees.append(sub)
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if subtrees[i] & subtrees[j]
    ]
    return Graph.from_edges(n, edges)


def gen_block(n: int, seed: int = 0) -> Graph:
    """Tree of cliques: repeatedly hang a small clique on an existing vertex."""
    rng = random.Random(seed)
    if n == 0:
        return Graph.from_edges(0, [])
    edges = []
    nxt = 1
    while nxt < n:
        attach = rng.randrange(nxt)
        k = rng.randint(1, min(3, n - nxt))
        member = [attach] + list(range(nxt, nxt + k))
        edges.extend(
            (min(u, v), max(u, v))
            for i, u in enumerate(member)
            for v in member[i + 1 :]
        )
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
