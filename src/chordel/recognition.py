"""Membership tests for the graph classes, with obstruction witnesses.

Every recognizer is a total function: a "no" always comes with a concrete
induced obstruction (hole, asteroidal triple, or small forbidden pattern)
that can be re-checked independently.  Interval graphs are recognized as
chordal plus asteroidal-triple-free, unit interval additionally claw-free,
and the remaining classes through their finite obstruction sets.  Each base
class's obstructions are listed once, in `_OBSTRUCTIONS`, and `recognize` is
the only place that turns them into a rejecting `Verdict`.  `require`, the one
precondition helper, raises with that obstruction or returns the member's
verdict, with the split partition or PEO that its test built.

Split, threshold, trivially perfect, cluster, complete split, co-chain,
block and 2K2/P3-free graphs are accepted by a near-linear certificate
(`_certified`); chordal, interval and unit interval graphs by a PEO and
the hole, asteroidal-triple and claw searches.  The obstruction search runs
only on rejection, and skips what a split partition, a PEO, a bipartition
of the complement or an LBFS+ interval ordering has already ruled out.  The
pattern, MCS, PEO, asteroidal-triple and LBFS+ kernels run on int bitmasks,
in the search order of adjacency sets, so the witnesses are the same.  The
asteroidal-triple sweep pairs only vertices of one component, labelling
each G - N[z] on first read, and the p-clique search runs on the (p-1)-core.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable

from . import patterns
from .graph import (
    BlockCutTree,
    Graph,
    VertexSet,
    bipartition_classes,
    build_block_cut_tree,
    complement,
    is_clique,
    is_independent,
    mask,
    rooted_forest,
    vset,
)


class PatternTooLargeError(ValueError):
    """Pattern exceeds the bound of the naive induced-subgraph enumerator."""


class NotInClassError(ValueError):
    """Input violates a solver precondition; carries the obstruction found."""

    def __init__(self, class_name: str, witness: VertexSet | None = None,
                 witness_name: str | None = None):
        self.class_name = class_name
        self.witness = witness
        self.witness_name = witness_name
        detail = f" (induced {witness_name} on {list(witness)})" if witness else ""
        super().__init__(f"input graph is not {class_name}{detail}")


@dataclass(frozen=True)
class ClassLabel:
    """A target graph class; `kp` carries p and `f-free` carries the pattern."""

    name: str
    p: int | None = None
    pattern: Graph | None = None

    @property
    def spelling(self) -> str:
        if self.name == "kp":
            return f"kp:{self.p}"
        if self.name == "f-free":
            pat = self.pattern
            return f"f-free(n={pat.n},m={pat.m})"
        return self.name


CHORDAL = ClassLabel("chordal")
INTERVAL = ClassLabel("interval")
UNIT_INTERVAL = ClassLabel("unit-interval")
SPLIT = ClassLabel("split")
THRESHOLD = ClassLabel("threshold")
COMPLETE_SPLIT = ClassLabel("complete-split")
TRIVIALLY_PERFECT = ClassLabel("trivially-perfect")
CLUSTER = ClassLabel("cluster")
BLOCK = ClassLabel("block")
CO_CHAIN = ClassLabel("co-chain")
TWO_K2_P3_FREE = ClassLabel("2k2p3")

BASE_LABELS = {
    lab.name: lab
    for lab in (
        CHORDAL, INTERVAL, UNIT_INTERVAL, SPLIT, THRESHOLD, COMPLETE_SPLIT,
        TRIVIALLY_PERFECT, CLUSTER, BLOCK, CO_CHAIN, TWO_K2_P3_FREE,
    )
}


def kp_free(p: int) -> ClassLabel:
    if p < 2:
        raise ValueError("kp-free needs p >= 2")
    return ClassLabel("kp", p=p)


def f_free(pattern: Graph) -> ClassLabel:
    return ClassLabel("f-free", pattern=pattern)


@dataclass(frozen=True)
class SplitPartition:
    clique: VertexSet
    independent: VertexSet


@dataclass(frozen=True)
class Verdict:
    """A member's verdict carries the split partition and PEO its test built."""

    member: bool
    witness: tuple[int, ...] | None = None
    witness_name: str | None = None
    partition: SplitPartition | None = field(default=None, compare=False)
    peo: tuple[int, ...] | None = field(default=None, compare=False)


# ---------------------------------------------------------------------------
# induced-pattern search


@lru_cache(maxsize=64)
def _search_plan(f: Graph) -> tuple[tuple[int, ...], tuple[tuple[bool, ...], ...]]:
    """Per depth: the pattern vertex's degree (highest first) and earlier adjacencies."""
    order = sorted(f.vertices(), key=lambda u: (-f.degree(u), u))
    wants = tuple(tuple(f.has_edge(u, x) for x in order[:k]) for k, u in enumerate(order))
    return tuple(f.degree(u) for u in order), wants


def _find_embedding(g: Graph, f: Graph) -> VertexSet | None:
    """First vertex set of g inducing a copy of f, by backtracking.

    Deterministic but not necessarily the lexicographically least witness.
    """
    if f.n == 0:
        return ()
    if f.n > g.n:
        return None
    need, wants = _search_plan(f)
    # per depth, the mask of the g vertices of large enough degree; only the
    # placed vertices get a neighbourhood mask, as a search often ends early
    fit = {d: mask(w for w in g.vertices() if len(g.adj[w]) >= d) for d in set(need)}
    fits, masks, chosen = [fit[d] for d in need], [0] * g.n, []

    def extend(k: int, used: int) -> VertexSet | None:
        if k == len(need):
            return vset(chosen)
        cands = fits[k] & ~used
        for y, e in zip(chosen, wants[k]):
            cands &= masks[y] if e else ~masks[y]
        while cands:  # lowest id first
            low = cands & -cands
            w = low.bit_length() - 1
            masks[w] = masks[w] or mask(g.adj[w])
            chosen.append(w)
            hit = extend(k + 1, used | low)
            if hit is not None:
                return hit
            chosen.pop()
            cands ^= low
        return None

    return extend(0, 0)


def find_clique_of_size(g: Graph, p: int) -> VertexSet | None:
    """Lexicographically least clique on p vertices, or None.

    Depth-first over common neighbourhoods with an explicit stack of
    (candidates, enumeration of them), so a clique deeper than the recursion
    limit is still found.  The search runs on the (p-1)-core, ascending: a
    p-clique lies in it, and a chordal graph without one has an empty core
    (it is (p-2)-degenerate), so that refutation costs linear time.
    """
    if p == 0:
        return ()
    degree = list(map(len, g.adj))
    peeled = [v for v in g.vertices() if degree[v] < p - 1]
    for v in peeled:  # grows while walked: u joins as its degree drops below p-1
        for u in g.adj[v]:
            degree[u] -= 1
            if degree[u] == p - 2:
                peeled.append(u)
    current: list[int] = []
    core = [v for v in g.vertices() if degree[v] >= p - 1]
    stack = [(core, enumerate(core))]
    while stack:
        common, rest = stack[-1]
        for i, v in rest:
            nxt = [u for u in common[i + 1 :] if u in g.adj[v]]
            if len(nxt) + len(current) + 1 >= p:
                current.append(v)
                if len(current) == p:
                    return tuple(current)
                stack.append((nxt, enumerate(nxt)))
                break
        else:
            stack.pop()
            del current[-1:]
    return None


# ---------------------------------------------------------------------------
# chordality


def maximum_cardinality_search(g: Graph) -> list[int]:
    """MCS visit order; its reverse is a PEO exactly when g is chordal.  Each
    step takes the least vertex of `buckets[top]`, the top weight's mask."""
    masks, buckets = list(map(mask, g.adj)), [(1 << g.n) - 1] + [0] * g.n
    top, left, order = 0, buckets[0], []
    for _ in range(g.n):
        while not buckets[top]:
            top -= 1
        low = buckets[top] & -buckets[top]
        buckets[top] ^= low
        left ^= low
        order.append(low.bit_length() - 1)
        nbrs = masks[order[-1]] & left
        for w in range(top, -1, -1):  # downwards, so none moves twice
            if not nbrs:
                break
            up = buckets[w] & nbrs
            buckets[w] ^= up
            buckets[w + 1] |= up
            nbrs ^= up
        if buckets[top + 1]:
            top += 1
    return order


def is_perfect_elimination_ordering(g: Graph, ordering: Iterable[int]) -> bool:
    """Check that each vertex's later neighbors induce a clique."""
    order = list(ordering)
    if sorted(order) != list(g.vertices()):
        return False
    pos = {v: i for i, v in enumerate(order)}
    for i, v in enumerate(order):
        later = {u for u in g.adj[v] if pos[u] > i}
        if later:
            u = min(later, key=pos.__getitem__)
            if not later - {u} <= g.adj[u]:
                return False
    return True


def find_hole(g: Graph) -> tuple[int, ...] | None:
    """Some induced cycle of length >= 4, in cycle order, or None.

    A hole exists iff some induced path u-v-w extends to a u-w path through
    non-neighbors of v; the shortest such path plus v is chordless.
    """
    for v in g.vertices():
        nbrs = sorted(g.adj[v])
        banned = g.closed_neighborhood(v)
        for i, u in enumerate(nbrs):
            for w in nbrs[i + 1 :]:
                if g.has_edge(u, w):
                    continue
                prev = rooted_forest(
                    [u], lambda x: [y for y in sorted(g.adj[x]) if y == w or y not in banned]
                )[0]
                if w in prev:
                    path = [w]
                    while prev[path[-1]] is not None:
                        path.append(prev[path[-1]])
                    return tuple([v] + path[::-1])
    return None


def chordal_peo(g: Graph) -> tuple[int, ...] | None:
    """A validated perfect elimination ordering, or None if g is not chordal."""
    elimination = tuple(maximum_cardinality_search(g)[::-1])
    return elimination if is_perfect_elimination_ordering(g, elimination) else None


# ---------------------------------------------------------------------------
# split partitions


def is_valid_split_partition(g: Graph, part: SplitPartition) -> bool:
    union = vset(part.clique + part.independent)
    if union != tuple(g.vertices()) or set(part.clique) & set(part.independent):
        return False
    return is_clique(g, part.clique) and is_independent(g, part.independent)


def split_partition(g: Graph) -> SplitPartition | None:
    """A split partition via the degree-sequence test, or None if g is not split.

    The clique side is the h highest-degree vertices where h is the largest
    index with d_i >= i-1; g is split iff the degree sums balance there.
    """
    by_degree = sorted(g.vertices(), key=lambda v: (-g.degree(v), v))
    degs = [g.degree(v) for v in by_degree]
    h = 0
    for i in range(1, g.n + 1):
        if degs[i - 1] >= i - 1:
            h = i
    if sum(degs[:h]) != h * (h - 1) + sum(degs[h:]):
        return None
    part = SplitPartition(vset(by_degree[:h]), vset(by_degree[h:]))
    if not is_valid_split_partition(g, part):
        raise AssertionError("degree test passed but partition invalid")
    return part


def nested_by_degree(g: Graph, vertices: Iterable[int]) -> list[int] | None:
    """`vertices` by ascending degree when each one's neighbourhood lies
    within the next one's, else None."""
    order = sorted(vertices, key=lambda v: (g.degree(v), v))
    nested = all(g.adj[a] <= g.adj[b] for a, b in zip(order, order[1:]))
    return order if nested else None


def enumerate_split_partitions(g: Graph) -> list[SplitPartition]:
    """All split partitions, sorted by clique side, listed from the base one.

    A clique and an independent set share at most one vertex (Hammer and
    Simeone 1981), so a split partition moves at most one vertex a out of
    the base clique C and at most one vertex b into it: b must see all of C
    but a, and a must see nothing of the independent side I but b.
    """
    base = require(g, SPLIT).partition
    c_set, i_set = set(base.clique), set(base.independent)
    # a's neighbours in I and b's non-neighbours in C, kept where at most one
    leaves = {a: g.adj[a] & i_set for a in c_set if g.degree(a) <= len(c_set)}
    joins = {b: c_set - g.adj[b] for b in i_set if g.degree(b) >= len(c_set) - 1}
    parts = [
        SplitPartition(vset({*c_set, b} - {a, None}), vset({*i_set, a} - {b, None}))
        for a in (None, *leaves)
        for b in (None, *joins)
        if leaves.get(a, set()) <= {b} and joins.get(b, set()) <= {a}
    ]
    return sorted(parts, key=lambda part: part.clique)


# ---------------------------------------------------------------------------
# asteroidal triples


def _parts(masks: list[int], bits: list[int], rest: int) -> list[int]:
    """Per vertex, the mask of its component in g[`rest`]; 0 outside `rest`."""
    label = [0] * len(masks)
    while rest:
        todo = part = bits[(rest & -rest).bit_length() - 1]  # a lone vertex shares bits[v]
        rest ^= todo
        members = []
        while todo:
            low = todo & -todo
            todo ^= low
            members.append(low.bit_length() - 1)
            reach = masks[members[-1]] & rest
            rest ^= reach
            todo |= reach
            part |= reach
        for v in members:
            label[v] = part
    return label


def find_asteroidal_triple(g: Graph) -> tuple[int, int, int] | None:
    """First vertex triple whose members pairwise connect while avoiding the
    closed neighborhood of the third, in ascending order, or None.  The three
    lie in one component of g, `whole[v]`; `comp(z)[v]` masks the component
    of that one minus N[z] holding v, 0 when v is in N[z].  Each `comp(z)` is
    labelled when first read, and x pairs only with the y outside N[x]."""
    masks, bits = list(map(mask, g.adj)), [1 << v for v in g.vertices()]
    whole = _parts(masks, bits, (1 << g.n) - 1)

    @lru_cache(maxsize=None)
    def comp(z: int) -> list[int]:
        return _parts(masks, bits, whole[z] & ~(masks[z] | bits[z]))

    for x in g.vertices():
        ys = (whole[x] & ~masks[x]) >> (x + 1)
        while ys:  # lowest y first
            y = x + (ys & -ys).bit_length()
            ys &= ys - 1
            cands = (comp(y)[x] & comp(x)[y]) >> (y + 1)
            while cands:  # lowest z first
                low = cands & -cands
                z = y + low.bit_length()
                if comp(z)[x] >> y & 1:
                    return (x, y, z)
                cands ^= low
    return None


def _interval_sweep(g: Graph, peo: tuple[int, ...]) -> tuple[bool, bool]:
    """Whether one LBFS+ sweep, ties going to the vertex earliest in `peo`,
    gives an interval ordering (u < v < w and uw in E imply uv in E; Olariu
    1991) read forwards, and read backwards.  It runs on ranks in `peo`, so a
    slice's lowest bit is its tie-break, and stops once both readings fail:
    forwards when v sees a vertex placed before one of its non-neighbours
    (`gapped`), backwards when v misses one to come that an earlier one sees."""
    rank = {v: r for r, v in enumerate(peo)}
    full = (1 << g.n) - 1
    slices, placed, gapped, reached = [full], 0, 0, 0  # reversed: slices[-1] is first
    forward = backward = True
    while placed != full and (forward or backward):
        low = slices[-1] & -slices[-1]
        slices[-1] ^= low
        if not slices[-1]:
            slices.pop()
        row = bytearray(b"0") * g.n  # nbrs in binary digits: faster than summed shifts
        for u in g.adj[peo[low.bit_length() - 1]]:
            row[~rank[u]] = 49
        nbrs = int(row, 2)
        forward = forward and not nbrs & gapped
        gapped |= placed & ~nbrs
        placed |= low
        backward = backward and not reached & ~placed & ~nbrs
        reached |= nbrs
        todo, i = nbrs & ~placed, len(slices)
        while todo:  # each slice its neighbours first
            i -= 1
            hit = slices[i] & todo
            if hit:
                todo ^= hit
                if hit != slices[i]:
                    slices[i : i + 1] = slices[i] ^ hit, hit
    return forward, backward


# ---------------------------------------------------------------------------
# the recognizer


_PATTERNS = {
    "2k2": patterns.two_k2(),
    "c4": patterns.cycle_graph(4),
    "c5": patterns.cycle_graph(5),
    "p3": patterns.path_graph(3),
    "p4": patterns.path_graph(4),
    "co-p3": patterns.co_p3(),
    "i3": patterns.empty_graph(3),
    "claw": patterns.claw(),
    "diamond": patterns.diamond(),
}

# Each base class's forbidden induced subgraphs, in search order.  "hole"
# and "asteroidal-triple" are searched for directly; every other name is a
# pattern of `_PATTERNS`.
_OBSTRUCTIONS = {
    "chordal": ("hole",),
    "interval": ("hole", "asteroidal-triple"),
    "unit-interval": ("hole", "asteroidal-triple", "claw"),
    "split": ("2k2", "c4", "c5"),
    "threshold": ("2k2", "c4", "p4"),
    "trivially-perfect": ("c4", "p4"),
    "cluster": ("p3",),
    "complete-split": ("co-p3", "c4"),
    "co-chain": ("i3", "c4", "c5"),
    "block": ("hole", "diamond"),
    "2k2p3": ("2k2", "p3"),
}


# Cheap positive tests and the names each one rules out when it succeeds: a
# split graph has no 2K2, C4 or C5; a chordal graph has no C4 or C5; a graph
# whose complement is bipartite has no independent triple, and no C5, whose
# complement is an odd cycle.  A graph with an interval ordering has no
# asteroidal triple; a proper one (both ways) is unit interval, so no claw.
_RULED_OUT = (
    ("split", ("2k2", "c4", "c5")),
    ("peo", ("c4", "c5")),
    ("co-bipartite", ("i3", "c5")),
    ("interval-order", ("asteroidal-triple",)),
    ("proper-order", ("claw",)),
)


def _fact(g: Graph, test: str, known: dict):
    """The split partition ("split"), PEO ("peo") or complement bipartition
    ("co-bipartite") of g, or None when g has none; computed at most once
    per `known`.  "interval-order" and "proper-order" are True when the
    PEO's `_interval_sweep` finds that ordering, else None."""
    if test not in known:
        if test == "split":
            known[test] = split_partition(g)
        elif test == "peo":
            known[test] = chordal_peo(g)
        elif test == "co-bipartite":
            known[test] = bipartition_classes(complement(g))
        else:
            peo = _fact(g, "peo", known)
            forward, backward = (False, False) if peo is None else _interval_sweep(g, peo)
            known["interval-order"] = forward or backward or None
            known["proper-order"] = forward and backward or None
    return known[test]


def _hole(g: Graph, known: dict) -> tuple[int, ...] | None:
    """A hole, searched for only when the MCS order is not a PEO."""
    if _fact(g, "peo", known) is not None:
        return None
    hole = find_hole(g)
    if hole is None:
        raise AssertionError("MCS order rejected but no hole found")
    return hole


def _first_obstruction(g: Graph, names: tuple[str, ...], known: dict) -> Verdict:
    """The first of `names` that g contains.  Before the first name a cheap
    test could rule out, that test runs (once); a name it rules out is
    skipped, since its search would find nothing."""
    ruled_out: set[str] = set()
    for name in names:
        for test, skips in _RULED_OUT:
            if (
                name in skips
                and name not in ruled_out
                and _fact(g, test, known) is not None
            ):
                ruled_out.update(skips)
        if name in ruled_out:
            continue
        if name == "hole":
            hit = _hole(g, known)
        elif name == "asteroidal-triple":
            hit = find_asteroidal_triple(g)
        else:
            hit = _find_embedding(g, _PATTERNS[name])
        if hit is not None:
            return Verdict(False, hit, name)
    return Verdict(True)


def blocks_are_cliques(g: Graph, tree: BlockCutTree) -> bool:
    """The block certificate: every biconnected component of g, the blocks
    of its block-cut tree, is a clique."""
    return sum(len(b) * (len(b) - 1) for b in tree.blocks) // 2 == g.m


def _certified(g: Graph, name: str, known: dict) -> bool | None:
    """Certificate checked before the obstruction search: True or False for
    a class that has one, None for a class that has none."""
    if name == "cluster":  # adjacent vertices have equal closed neighbourhoods:
        # checking each vertex against the least vertex of its own suffices
        closed = [g.closed_neighborhood(v) for v in g.vertices()]
        return all(c == closed[min(c)] for c in closed)
    if name == "2k2p3":  # the non-isolated vertices form one clique
        busy = frozenset(v for v in g.vertices() if g.adj[v])
        return all(g.closed_neighborhood(v) == busy for v in busy)
    if name == "complete-split":  # non-universal vertices see only universal ones
        rest = [v for v in g.vertices() if g.degree(v) < g.n - 1]
        return all(g.degree(v) == g.n - len(rest) for v in rest)
    if name == "split":
        return _fact(g, "split", known) is not None
    if name == "threshold":  # split, with nested independent-side neighbourhoods
        part = _fact(g, "split", known)
        return part is not None and nested_by_degree(g, part.independent) is not None
    if name == "trivially-perfect":  # adjacent closed neighbourhoods are nested
        closed = [g.closed_neighborhood(v) for v in g.vertices()]
        return all(
            closed[u] <= closed[v]
            for u in g.vertices()
            for v in g.adj[u]
            if len(closed[u]) <= len(closed[v])
        )
    if name == "co-chain":  # the complement is bipartite with nested neighbourhoods
        co = complement(g)
        sides = known["co-bipartite"] = bipartition_classes(co)
        return sides is not None and nested_by_degree(co, sides[0]) is not None
    if name == "block":
        return blocks_are_cliques(g, build_block_cut_tree(g))
    return None


def recognize(g: Graph, label: ClassLabel) -> Verdict:
    """True iff g belongs to the class; otherwise a concrete obstruction.

    A base class tries its `_certified` test first and searches its
    `_OBSTRUCTIONS` only when that rejects, so an obstruction must turn up,
    or when the class has no certificate.  A member's verdict carries the
    split partition and PEO computed on the way (see `_fact`), so a caller
    can read them back instead of computing them again.
    """
    name = label.name
    if name == "kp":
        hit = find_clique_of_size(g, label.p)
        return Verdict(False, hit, f"k{label.p}") if hit is not None else Verdict(True)
    if name == "f-free":
        if label.pattern.n > 8:
            raise PatternTooLargeError(f"pattern has {label.pattern.n} > 8 vertices")
        hit = _find_embedding(g, label.pattern)
        return Verdict(False, hit, "pattern") if hit is not None else Verdict(True)
    if name not in _OBSTRUCTIONS:
        raise ValueError(f"unknown class label {name!r}")
    known: dict = {}
    certified = _certified(g, name, known)
    if not certified:
        verdict = _first_obstruction(g, _OBSTRUCTIONS[name], known)
        if not verdict.member:
            return verdict
        if certified is False:
            raise AssertionError(f"{name} certificate rejected but no obstruction found")
    return Verdict(True, partition=known.get("split"), peo=known.get("peo"))


def require(g: Graph, label: ClassLabel) -> Verdict:
    """`recognize`'s verdict on a member, whose `partition` (split,
    threshold) or `peo` (chordal, interval, unit interval) a solver can start
    from; `NotInClassError` with the obstruction otherwise."""
    verdict = recognize(g, label)
    if not verdict.member:
        raise NotInClassError(label.spelling, verdict.witness, verdict.witness_name)
    return verdict
