"""Brute-force minimum deletion: the ground truth every solver is tested on.

Subsets are enumerated in nondecreasing size, each size in lexicographic
order, so the first feasible subset is the minimum and the tie-break is the
lexicographically least set.  Capped at 16 vertices unless overridden.
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
    top = g.n if k_max is None else min(k_max, g.n)
    for k in range(top + 1):
        for subset in combinations(g.vertices(), k):
            rest, _ = delete_vertices(g, subset)
            if recognize(rest, label).member:
                return DeletionResult(subset, label, "oracle")
    return None
