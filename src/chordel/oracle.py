"""Brute-force minimum deletion: the ground truth every solver is tested on.

Subsets are enumerated in nondecreasing size, each size in lexicographic
order, so the first feasible subset is the minimum and the tie-break is the
lexicographically least set.  Capped at 16 vertices unless overridden.

Only subsets holding each deleted vertex's earlier twin (equal open or
closed neighbourhood) are built: any other swaps to a smaller subset, tried
first, leaving an isomorphic graph.  Target classes are hereditary, so a
subset that misses any obstruction found so far (a hole, pattern, clique or
f-free witness, each kept as an int mask, so a test is one AND) leaves it
and is skipped (Cai, IPL 1996).  Asteroidal triples are not kept: deleting
a vertex on one of the triple's paths can break it.  No skipped subset is
feasible.
"""

from __future__ import annotations

from .graph import DeletionResult, Graph, delete_vertices, mask
from .recognition import ClassLabel, recognize


class OracleCapError(ValueError):
    """Instance too large for exhaustive search without the override flag."""


ORACLE_CAP = 16


def _twin_prefix_subsets(prev: list[int], k: int):
    """The k-subsets of range(len(prev)) holding prev[v] with each v
    (prev[v] <= v), in lexicographic order; no other subset is built."""
    n, subset, held, v = len(prev), [], 0, 0
    while True:
        if len(subset) < k and v <= n - k + len(subset):
            if prev[v] == v or held >> prev[v] & 1:
                subset.append(v)
                held |= 1 << v
            v += 1
        else:
            if len(subset) == k:
                yield tuple(subset)
            if not subset:
                return
            v = subset.pop()
            held ^= 1 << v
            v += 1


def oracle_min_deletion(
    g: Graph,
    label: ClassLabel,
    k_max: int | None = None,
    allow_large: bool = False,
) -> DeletionResult | None:
    """Smallest deletion set reaching the class, or None if none within k_max."""
    if g.n > ORACLE_CAP and not allow_large:
        raise OracleCapError(f"n = {g.n} exceeds the exhaustive cap {ORACLE_CAP}")
    # prev[v]: v's latest earlier twin, else v.  N(v) never holds v and N[u]
    # always holds u, so one dict keys both kinds of twin without a clash.
    prev, last = [], {}
    for v, nbrs in enumerate(g.adj):
        closed = nbrs | {v}
        prev.append(last.get(nbrs, last.get(closed, v)))
        last[nbrs] = last[closed] = v
    top = g.n if k_max is None else min(k_max, g.n)
    found = []  # the mask of every obstruction found, in g's ids
    for k in range(top + 1):
        for subset in _twin_prefix_subsets(prev, k):
            held = mask(subset)
            # newest first: the subsets next in order most often miss it
            if not all(w & held for w in reversed(found)):
                continue
            rest, old_to_new = delete_vertices(g, subset)
            verdict = recognize(rest, label)
            if verdict.member:
                return DeletionResult(subset, label, "oracle")
            if verdict.witness_name != "asteroidal-triple":
                kept = list(old_to_new)  # new id -> old id
                found.append(mask(kept[v] for v in verdict.witness))
    return None
