"""Interval models and the sweep solvers that run on them.

Endpoints are exact, never floats: each is an int, or a Fraction when it is
not integral.  `IntervalModel` is the only converter; callers hand it ints,
Fractions or anything `Fraction` accepts.  The solvers only compare
endpoints, so they first rank all 2n of them onto the ints 1..2n, with ties
resolved so that the intersection graph is unchanged (left endpoints come
before right endpoints at equal coordinates), and sweep over those ranks.
The ranked model is in general position: all 2n endpoints distinct.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction

from .graph import Graph, GraphInputError, VertexSet, induced_subgraph, vset
from .graphio import data_lines
from .recognition import CLUSTER, COMPLETE_SPLIT, recognize


@dataclass(frozen=True)
class IntervalModel:
    """Closed interval [l(v), r(v)] per vertex v = 0..n-1."""

    intervals: tuple[tuple[int | Fraction, int | Fraction], ...]

    def __post_init__(self) -> None:
        norm = []
        for i, (l, r) in enumerate(self.intervals):
            lf, rf = Fraction(l), Fraction(r)
            if lf > rf:
                raise GraphInputError(f"interval {i} has l > r")
            norm.append(tuple(x.numerator if x.denominator == 1 else x for x in (lf, rf)))
        object.__setattr__(self, "intervals", tuple(norm))

    @property
    def n(self) -> int:
        return len(self.intervals)

    def left(self, v: int) -> int | Fraction:
        return self.intervals[v][0]

    def right(self, v: int) -> int | Fraction:
        return self.intervals[v][1]

    def normalized(self) -> "IntervalModel":
        """Re-space endpoints to 1..2n preserving order and the graph.

        At equal coordinates all left endpoints precede all right endpoints,
        so touching intervals keep touching; ties within a kind break by
        vertex id.
        """
        spots: dict[tuple[int, int], int] = {}
        for pos, (_, kind, v) in enumerate(_events(self), start=1):
            spots[(kind, v)] = pos
        return IntervalModel(
            tuple((spots[(0, v)], spots[(1, v)]) for v in range(self.n))
        )


def _events(m: IntervalModel) -> list[tuple[int | Fraction, int, int]]:
    """(coordinate, 0 for left or 1 for right, vertex), in sweep order."""
    return sorted(
        (x, kind, v) for v, ends in enumerate(m.intervals) for kind, x in enumerate(ends)
    )


def model_to_graph(m: IntervalModel) -> Graph:
    """Intersection graph of the closed intervals, by one endpoint sweep."""
    edges: list[tuple[int, int]] = []
    active: set[int] = set()
    for _, kind, v in _events(m):
        if kind:
            active.remove(v)
        else:
            edges += ((u, v) for u in active)
            active.add(v)
    return Graph.from_edges(m.n, edges)


def parse_interval_model(text: str) -> tuple[IntervalModel, list[str]]:
    """One vertex per line: "label l r", integer or rational endpoints; an
    exponent ("1e9") is refused."""
    rows = []
    for line in data_lines(text):
        toks = line.split()
        if len(toks) != 3:
            raise GraphInputError(f"model line must be 'label l r', got {line!r}")
        try:
            if "e" in (toks[1] + toks[2]).lower():  # 1e99999999 builds 10**99999999
                raise ValueError
            rows.append((toks[0], Fraction(toks[1]), Fraction(toks[2])))
        except (ValueError, ZeroDivisionError):
            raise GraphInputError(f"bad endpoint in {line!r}") from None
    labels = [lab for lab, _, _ in rows]
    if len(set(labels)) != len(labels):
        raise GraphInputError("duplicate vertex labels in model")
    return IntervalModel(tuple((l, r) for _, l, r in rows)), labels


def write_interval_model(m: IntervalModel, labels: list[str] | None = None) -> str:
    if labels is None:
        labels = [str(i) for i in range(m.n)]
    lines = [
        f"{labels[v]} {m.left(v)} {m.right(v)}" for v in range(m.n)
    ]
    return "\n".join(lines) + "\n"


def _prepared(m: IntervalModel) -> tuple[IntervalModel, list[int], list[int]]:
    """The model re-spaced onto ranks 1..2n, and its left and right ranks."""
    m = m.normalized()
    return m, [l for l, _ in m.intervals], [r for _, r in m.intervals]


def max_clique_window(m: IntervalModel, lo, hi) -> VertexSet:
    """Maximum clique among intervals lying inside [lo, hi].

    Left-to-right sweep counting simultaneous overlap; the first sweep
    position attaining the maximum supplies the clique.
    """
    members = [v for v in range(m.n) if lo <= m.left(v) and m.right(v) <= hi]
    events = []
    for v in members:
        events.append((m.left(v), 0, v))
        events.append((m.right(v), 1, v))
    events.sort()
    active: set[int] = set()
    best: tuple[int, ...] = ()
    for _, kind, v in events:
        if kind == 0:
            active.add(v)
            if len(active) > len(best):
                best = vset(active)
        else:
            active.discard(v)
    return best


def max_complete_split_subgraph(m: IntervalModel) -> VertexSet:
    """Largest vertex set whose induced subgraph is a complete split graph.

    The non-clique case is driven by the two extreme independent vertices:
    alpha is the least right endpoint over I and beta the largest left one,
    so the clique is exactly the intervals containing [alpha, beta] and the
    rest of I is a maximum independent set strictly inside (alpha, beta).
    All O(n^2) extreme pairs are enumerated; a pure clique covers |I| <= 1.
    Per alpha, the greedy earliest-right-end chain of the intervals right of
    alpha is built once: its prefix ending before beta is that independent
    set.  Candidate sets are only built when their size can win.
    """
    m, lo, hi = _prepared(m)
    best = max_clique_window(m, 1, 2 * m.n)  # the ranks span 1..2n
    by_right = sorted(range(m.n), key=hi.__getitem__)
    for vl in range(m.n):
        alpha = hi[vl]
        chain, chain_ends = [], []
        for v in by_right:
            if lo[v] > (chain_ends[-1] if chain_ends else alpha):
                chain.append(v)
                chain_ends.append(hi[v])
        through = sorted((v for v in range(m.n) if lo[v] < alpha), key=lambda v: -hi[v])
        through_ends = [-hi[v] for v in through]
        for vr in range(m.n):
            beta = lo[vr]
            if alpha >= beta:
                continue
            n_cliq = bisect.bisect_right(through_ends, -beta)
            n_mis = bisect.bisect_left(chain_ends, beta)
            if n_cliq + 2 + n_mis < len(best):
                continue
            cand = vset(through[:n_cliq] + [vl, vr] + chain[:n_mis])
            if len(cand) > len(best) or cand < best:
                best = cand
    _verify(m, best, COMPLETE_SPLIT)
    return best


def _window_sizes(lo: list[int], hi: list[int]) -> list[tuple[int, int, int, int, int]]:
    """(hi[b], lo[a], a, b, size): each window [lo[a], hi[b]] holding an
    interval, with its maximum clique size, by one sweep per left end.

    Members enter by right end.  A clique is the set of members through the
    least right end among them, so the size is the largest count of members
    through a member's right end; v adds one to the counts from l(v) on.
    """
    by_right = sorted(range(len(lo)), key=hi.__getitem__)
    out = []
    for a, start in enumerate(lo):
        ends, counts, size = [], [], 0
        for b in by_right:
            if hi[b] < start:
                continue
            if lo[b] >= start:
                i = bisect.bisect_left(ends, lo[b])
                counts[i:] = [c + 1 for c in counts[i:]] + [1]
                ends.append(hi[b])
                size = max(size, max(counts[i:]))
            if size:
                out.append((hi[b], start, a, b, size))
    return out


def max_cluster_subgraph(m: IntervalModel) -> VertexSet:
    """Largest vertex set inducing a cluster graph.

    Every clique of an optimal solution lives in a window spanned by one
    left and one right endpoint, and the windows of distinct cliques are
    disjoint.  Weigh all windows by their maximum clique size and take a
    maximum-weight disjoint subfamily by the classic dynamic program over
    windows sorted by right endpoint; only the windows it picks are swept
    for their actual clique.
    """
    m, lo, hi = _prepared(m)
    if m.n == 0:
        return ()
    windows = sorted(_window_sizes(lo, hi))

    rights = [w[0] for w in windows]
    k = len(windows)
    dp = [0] * (k + 1)
    for j in range(1, k + 1):
        right, left, _, _, size = windows[j - 1]
        prev = bisect.bisect_left(rights, left)
        dp[j] = max(dp[j - 1], dp[prev] + size)

    chosen: list[tuple[int, int, VertexSet]] = []
    j = k
    while j > 0:
        right, left, va, vb, size = windows[j - 1]
        prev = bisect.bisect_left(rights, left)
        if dp[prev] + size > dp[j - 1]:
            cliq = max_clique_window(m, m.left(va), m.right(vb))
            if len(cliq) != size:
                raise AssertionError("window sweep disagrees with its size table")
            chosen.append((left, right, cliq))
            j = prev
        else:
            j -= 1

    for (l1, r1, _), (l2, r2, _) in zip(chosen, chosen[1:]):
        if not (r2 < l1 or r1 < l2):
            raise AssertionError("chosen windows overlap")
    out = vset(v for _, _, cliq in chosen for v in cliq)
    _verify(m, out, CLUSTER)
    return out


def _verify(m: IntervalModel, kept: VertexSet, label) -> None:
    g = model_to_graph(m)
    sub, _ = induced_subgraph(g, kept)
    if not recognize(sub, label).member:
        raise AssertionError(f"interval solver output is not {label.spelling}")
