"""Interval models and the sweep solvers that run on them.

Endpoints are exact, never floats: each is an int, or a Fraction when it is
not integral, and an integral endpoint never passes through a Fraction: the
model reader reads a decimal token with `int`, and `IntervalModel` keeps an
int as it is and converts anything else `Fraction` accepts.  The solvers
only compare endpoints, so they first rank all 2n of them onto the ints
1..2n, with ties resolved so that the intersection graph is unchanged (left
endpoints come before right endpoints at equal coordinates), and sweep over
those ranks.  The ranked model is in general position: all 2n endpoints
distinct.  Each solver re-checks its answer on the intersection graph of
the kept intervals alone.  The cluster solver's window table takes O(n^2)
entries, each a bisection and at most one list deletion, in O(n) memory.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .graph import Graph, GraphInputError, VertexSet, vset
from .graphio import data_lines
from .recognition import CLUSTER, COMPLETE_SPLIT, recognize


@dataclass(frozen=True)
class IntervalModel:
    """Closed interval [l(v), r(v)] per vertex v = 0..n-1."""

    intervals: tuple[tuple[int | Fraction, int | Fraction], ...]

    def __post_init__(self) -> None:
        norm = []
        for i, (l, r) in enumerate(self.intervals):
            l, r = _exact(l), _exact(r)
            if l > r:
                raise GraphInputError(f"interval {i} has l > r")
            norm.append((l, r))
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
        return _prepared(self)[0]


def _exact(x) -> int | Fraction:
    """x as an int when integral, else as a Fraction; ints pass untouched."""
    if type(x) is int:
        return x
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _events(m: IntervalModel) -> list[tuple[int | Fraction, int, int]]:
    """(coordinate, 0 for left or 1 for right, vertex), in sweep order."""
    return sorted(
        (x, kind, v) for v, ends in enumerate(m.intervals) for kind, x in enumerate(ends)
    )


def model_to_graph(m: IntervalModel) -> Graph:
    """Intersection graph of the closed intervals, by one endpoint sweep."""
    adj: list[set[int]] = [set() for _ in range(m.n)]
    active: set[int] = set()
    for _, kind, v in _events(m):
        if kind:
            active.remove(v)
        else:
            for u in active:
                adj[u].add(v)
            adj[v].update(active)
            active.add(v)
    return Graph._built(m.n, tuple(map(frozenset, adj)))


def _endpoint(tok: str) -> int | Fraction:
    """The exact value of an endpoint token; ValueError when it has none."""
    if (tok[1:] if tok[0] in "+-" else tok).isdecimal():
        return int(tok)
    if "e" in tok.lower():  # 1e99999999 builds 10**99999999
        raise ValueError
    return Fraction(tok)


def parse_interval_model(text: str) -> tuple[IntervalModel, list[str]]:
    """One vertex per line: "label l r", integer or rational endpoints; an
    exponent ("1e9") is refused."""
    rows = []
    for line in data_lines(text):
        toks = line.split()
        if len(toks) != 3:
            raise GraphInputError(f"model line must be 'label l r', got {line!r}")
        try:
            rows.append((toks[0], _endpoint(toks[1]), _endpoint(toks[2])))
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
    lo, hi = [0] * m.n, [0] * m.n
    for pos, (_, kind, v) in enumerate(_events(m), start=1):
        (hi if kind else lo)[v] = pos
    return IntervalModel(tuple(zip(lo, hi))), lo, hi


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
    set; the intervals through alpha are read off one descending right-end
    order, longest reach first.  Candidate sets are only built when their
    size can win.
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
        through = [v for v in reversed(by_right) if lo[v] < alpha]
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


def _window_sizes(lo: list[int], hi: list[int]) -> Iterator[tuple[int, list[tuple[int, int]]]]:
    """Per interval b by right end: b and the windows [lo[a], hi[b]] that
    hold an interval, as (a, size) by descending lo[a], where size is the
    window's maximum clique size.

    One sweep per right end; members (the intervals inside the window) enter
    by descending left end.  A clique is the set of members through the
    greatest left end among them, so the size is the largest count of
    members through a member's left end; v adds one to the counts of the
    left ends up to r(v), and its own left end enters with count 1.  Only
    the records are kept, the left ends whose count beats every count that
    entered after them: `tops` holds them negated and ascending, `drops[k]`
    how far count k - 1 is above count k (drops[0] is unused).  An entry
    raises a suffix of the records, which lowers one drop; a record whose
    drop reaches 0 is tied and leaves.  So each of the O(n^2) entries costs
    one bisection and at most one list deletion.
    """
    by_left = sorted(range(len(lo)), key=lo.__getitem__, reverse=True)
    starts = sorted(lo)
    for b in sorted(range(len(lo)), key=hi.__getitem__):
        stop = hi[b]
        tops: list[int] = []
        drops: list[int] = []
        size = last = 0  # the largest count, and the count of the last entry
        row = []
        for a in by_left[len(lo) - bisect.bisect_left(starts, stop):]:
            if hi[a] <= stop:
                k = bisect.bisect_left(tops, -hi[a])
                if k < len(tops):
                    last += 1
                    if k == 0:
                        size += 1
                    else:
                        drops[k] -= 1
                        if not drops[k]:
                            drops[k] = drops[k - 1]
                            del tops[k - 1], drops[k - 1]
                if last == 1:
                    tops[-1] = -lo[a]
                else:
                    tops.append(-lo[a])
                    drops.append(last - 1)
                    last = 1
                    size = size or 1  # the first member
            if size:
                row.append((a, size))
        yield b, row


def max_cluster_subgraph(m: IntervalModel) -> VertexSet:
    """Largest vertex set inducing a cluster graph.

    Every clique of an optimal solution lives in a window spanned by one
    left and one right endpoint, and the windows of distinct cliques are
    disjoint.  Weigh all windows by their maximum clique size and take a
    maximum-weight disjoint subfamily by the classic dynamic program over
    right ends: best[j] is the largest weight within the j least right
    ends, and the j-th right end picks the window that adds most to the
    best before its left end (the least left end on ties) when that beats
    best[j - 1].  Only the windows it picks are swept for their actual
    clique.
    """
    m, lo, hi = _prepared(m)
    if m.n == 0:
        return ()
    ends = sorted(hi)
    before = [bisect.bisect_left(ends, x) for x in lo]  # right ends below each left end
    best = [0]
    picks: list[tuple[int, int, int] | None] = []
    for b, row in _window_sizes(lo, hi):
        top, pick = 0, None
        for a, size in row:  # by descending left end, so >= keeps the least
            value = best[before[a]] + size
            if value >= top:
                top, pick = value, (a, b, size)
        if top > best[-1]:
            best.append(top)
            picks.append(pick)
        else:
            best.append(best[-1])
            picks.append(None)

    chosen: list[tuple[int, int, VertexSet]] = []
    j = m.n
    while j > 0:
        if picks[j - 1] is None:
            j -= 1
            continue
        a, b, size = picks[j - 1]
        cliq = max_clique_window(m, lo[a], hi[b])
        if len(cliq) != size:
            raise AssertionError("window sweep disagrees with its size table")
        chosen.append((lo[a], hi[b], cliq))
        j = before[a]

    for (l1, r1, _), (l2, r2, _) in zip(chosen, chosen[1:]):
        if not (r2 < l1 or r1 < l2):
            raise AssertionError("chosen windows overlap")
    out = vset(v for _, _, cliq in chosen for v in cliq)
    _verify(m, out, CLUSTER)
    return out


def _verify(m: IntervalModel, kept: VertexSet, label) -> None:
    """Recognize the intersection graph of the kept intervals: exactly the
    induced subgraph on `kept`, with the same ids in the same order."""
    sub = model_to_graph(IntervalModel(tuple(m.intervals[v] for v in kept)))
    if not recognize(sub, label).member:
        raise AssertionError(f"interval solver output is not {label.spelling}")
