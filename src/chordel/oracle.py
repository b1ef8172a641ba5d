"""Brute-force minimum deletion: the ground truth every solver is tested on.

Subsets are enumerated in nondecreasing size, each size in lexicographic
order, so the first feasible subset is the minimum and the tie-break is the
lexicographically least set.  Capped at 16 vertices unless overridden.

Twins (equal open, or equal closed, neighbourhoods) are interchangeable, so
a subset that deletes a vertex but keeps an earlier twin is skipped: swapping
the two gives a lexicographically smaller subset, tried first, that leaves an
isomorphic graph.  The first feasible subset is never skipped, so the minimum
and its lexicographic tie-break are unchanged.
"""

from __future__ import annotations

from itertools import combinations

from .graph import DeletionResult, Graph, delete_vertices
from .recognition import ClassLabel, recognize


class OracleCapError(ValueError):
    """Instance too large for exhaustive search without the override flag."""


ORACLE_CAP = 16


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
    for k in range(top + 1):
        for subset in combinations(g.vertices(), k):
            if not all(prev[v] in subset for v in subset):
                continue
            rest, _ = delete_vertices(g, subset)
            if recognize(rest, label).member:
                return DeletionResult(subset, label, "oracle")
    return None
