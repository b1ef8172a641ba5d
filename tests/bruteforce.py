"""Independent brute-force oracles for the test suite.

Everything here enumerates: subsets, bipartitions, matchings, permutations.
Deliberately naive so it can be trusted, and kept apart from the library
paths it checks.
"""

import random
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import combinations, permutations

import named_graphs as ng
from chordel import (
    Bipartition,
    Graph,
    GraphInputError,
    SplitPartition,
    induced_subgraph,
)
from chordel.graph import (
    BlockCutTree,
    DeletionResult,
    VertexSet,
    check_vertex_cap,
    delete_vertices,
    disjoint_union,
    vset,
)
from chordel.graphio import _g6_size_bytes
from chordel.interval import IntervalModel, max_clique_window
from chordel.oracle import ORACLE_CAP, OracleCapError
from chordel.patterns import cycle_graph
from chordel.recognition import (
    _PATTERNS,
    CHORDAL,
    CLUSTER,
    COMPLETE_SPLIT,
    ClassLabel,
    PatternTooLargeError,
    Verdict,
    _find_embedding,
    enumerate_split_partitions,
    find_asteroidal_triple,
    find_hole,
    is_valid_split_partition,
    recognize,
    require,
    split_partition,
)
from chordel.split_solvers import _cross_cover


def induced(g: Graph, subset) -> Graph:
    return induced_subgraph(g, subset)[0]


def has_hole(g: Graph) -> bool:
    """Induced cycle of length >= 4: a connected 2-regular induced subgraph."""
    for ell in range(4, g.n + 1):
        for sub in combinations(range(g.n), ell):
            h = induced(g, sub)
            if h.m == ell and all(h.degree(v) == 2 for v in h.vertices()):
                seen = {0}
                stack = [0]
                while stack:
                    v = stack.pop()
                    for u in h.adj[v]:
                        if u not in seen:
                            seen.add(u)
                            stack.append(u)
                if len(seen) == ell:
                    return True
    return False


def _induces(g: Graph, sub, f: Graph) -> bool:
    """Whether g[sub] is a copy of f, by trying every vertex permutation."""
    h = induced(g, sub)
    if h.m != f.m:
        return False
    return any(
        all(
            f.has_edge(u, v) == h.has_edge(perm[u], perm[v])
            for u in range(f.n)
            for v in range(u + 1, f.n)
        )
        for perm in permutations(range(f.n))
    )


def contains_induced(g: Graph, f: Graph) -> bool:
    """Induced subgraph isomorphism by permutation enumeration."""
    return any(_induces(g, sub, f) for sub in combinations(range(g.n), f.n))


def min_deletion(g: Graph, feasible) -> int:
    """Smallest k with feasible(g - S) for some |S| = k."""
    for k in range(g.n + 1):
        for sub in combinations(range(g.n), k):
            if feasible(induced(g, [v for v in g.vertices() if v not in sub])):
                return k
    raise AssertionError("even deleting everything failed")


def max_induced(g: Graph, feasible) -> int:
    """Largest vertex count of an induced subgraph satisfying the predicate."""
    for k in range(g.n, -1, -1):
        for sub in combinations(range(g.n), k):
            if feasible(induced(g, sub)):
                return k
    raise AssertionError("empty graph rejected")


def labelled_graphs(n: int):
    """Every graph on vertices 0..n-1, with its edge mask over the pairs."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield mask, Graph.from_edges(n, [e for i, e in enumerate(pairs) if mask >> i & 1])


def disjoint_unions():
    """g + h for every two labelled graphs on at most 4 vertices, and each
    graph below with an asteroidal triple beside each of them, on both sides:
    the triples, cliques and walks must keep to one component."""
    small = [g for n in range(5) for _, g in labelled_graphs(n)]
    for g in small:
        for h in small:
            yield disjoint_union(g, h)
        for at in (cycle_graph(6), ng.net(), ng.tent(), ng.rising_sun()):
            yield disjoint_union(g, at)
            yield disjoint_union(at, g)


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Each pair of 0..n-1 an edge with probability p, drawn in pair order."""
    rng = random.Random(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def labelled_split_graphs(n_max: int):
    """Every split graph on vertices 0..n-1, for each n up to n_max."""
    for n in range(n_max + 1):
        for _, g in labelled_graphs(n):
            if split_partition(g) is not None:
                yield g


# Sorted induced degrees of each named obstruction on three to five vertices;
# on at most four vertices the degree sequence fixes the graph.
OBSTRUCTION_DEGREES = {
    "i3": (0, 0, 0),
    "co-p3": (0, 1, 1),
    "p3": (1, 1, 2),
    "2k2": (1, 1, 1, 1),
    "p4": (1, 1, 2, 2),
    "claw": (1, 1, 1, 3),
    "c4": (2, 2, 2, 2),
    "diamond": (2, 2, 3, 3),
    "c5": (2, 2, 2, 2, 2),
}
_NAMED = {degs: name for name, degs in OBSTRUCTION_DEGREES.items()}


def _reach(bits: list, start: int, allowed: int) -> int:
    """Bitmask of the vertices reachable from `start` inside `allowed`."""
    seen = frontier = 1 << start
    while frontier:
        v = (frontier & -frontier).bit_length() - 1
        frontier &= frontier - 1
        new = bits[v] & allowed & ~seen
        seen |= new
        frontier |= new
    return seen


def obstructions_in(g: Graph, names) -> set:
    """Which of the obstruction `names` g contains, by enumerating vertex
    subsets: the small patterns by their induced degrees, a hole as a
    connected 2-regular subset, an asteroidal triple from the definition.

    Every hole of a graph on at most 6 vertices has at most 6 vertices, so
    larger graphs are refused.
    """
    if g.n > 6:
        raise ValueError("the subset enumeration is for at most 6 vertices")
    bits = [sum(1 << u for u in g.adj[v]) for v in g.vertices()]
    found = set()
    for k in range(3, g.n + 1):
        for sub in combinations(range(g.n), k):
            mask = sum(1 << v for v in sub)
            degs = tuple(sorted((bits[v] & mask).bit_count() for v in sub))
            if degs in _NAMED:
                found.add(_NAMED[degs])
            if k >= 4 and degs[0] == degs[-1] == 2 and _reach(bits, sub[0], mask) == mask:
                found.add("hole")
    if "asteroidal-triple" in names and any(
        is_asteroidal(g, triple) for triple in combinations(range(g.n), 3)
    ):
        found.add("asteroidal-triple")
    return found & set(names)


def is_asteroidal(g: Graph, triple) -> bool:
    """Each two of the triple are joined by a path avoiding the third's
    closed neighbourhood."""
    bits = [sum(1 << u for u in g.adj[v]) for v in g.vertices()]
    x, y, z = triple
    for a, b, c in ((x, y, z), (x, z, y), (y, z, x)):
        banned = bits[c] | 1 << c
        if banned >> a & 1 or not _reach(bits, a, ((1 << g.n) - 1) & ~banned) >> b & 1:
            return False
    return True


def unpruned_witness(g: Graph, name: str) -> tuple:
    """The library's own search for one obstruction name that g contains,
    asked directly: the witness an unpruned, certificate-free recognizer
    reports.  Raises `AssertionError` unless it is that obstruction."""
    if name == "hole":
        hit = find_hole(g)
        ok = hit is not None and len(hit) >= 4 and all(
            g.has_edge(u, v) == (j - i in (1, len(hit) - 1))
            for i, u in enumerate(hit)
            for j, v in enumerate(hit)
            if i < j
        )
    elif name == "asteroidal-triple":
        hit = find_asteroidal_triple(g)
        ok = hit is not None and is_asteroidal(g, hit)
    else:
        hit = _find_embedding(g, _PATTERNS[name])
        ok = hit is not None and tuple(
            sorted(sum(g.has_edge(u, v) for v in hit) for u in hit)
        ) == OBSTRUCTION_DEGREES[name]
    if not ok:
        raise AssertionError(f"{name} witness {hit} is not an induced {name}")
    return hit


def reference_verdict(names, present: set, witness) -> Verdict:
    """`recognize` for a base class with obstructions `names`, searched in
    order with no certificate and no pruning.  `present` is
    `obstructions_in(g, names)` and `witness(name)` is
    `unpruned_witness(g, name)`, possibly cached across classes."""
    first = next((name for name in names if name in present), None)
    if first is None:
        return Verdict(True)
    return Verdict(False, witness(first), first)


def split_partitions(g: Graph) -> set:
    """All clique sides (C, I) over every bipartition of the vertices."""
    out = set()
    verts = list(g.vertices())
    for mask in range(1 << g.n):
        cliq = [v for v in verts if mask >> v & 1]
        indep = [v for v in verts if not mask >> v & 1]
        ok = all(g.has_edge(u, v) for i, u in enumerate(cliq) for v in cliq[i + 1 :])
        ok = ok and not any(
            g.has_edge(u, v) for i, u in enumerate(indep) for v in indep[i + 1 :]
        )
        if ok:
            out.add(tuple(cliq))
    return out


def max_clique(g: Graph) -> int:
    return max_induced(g, lambda h: h.m == h.n * (h.n - 1) // 2)


def max_independent_set(g: Graph) -> int:
    return max_induced(g, lambda h: h.m == 0)


def max_matching_size(g: Graph) -> int:
    """Enumerate all matchings recursively."""
    edges = g.edges()

    def grow(i: int, used: frozenset) -> int:
        if i == len(edges):
            return 0
        best = grow(i + 1, used)
        u, v = edges[i]
        if u not in used and v not in used:
            best = max(best, 1 + grow(i + 1, used | {u, v}))
        return best

    return grow(0, frozenset())


def min_vertex_cover_size(g: Graph) -> int:
    edges = g.edges()
    for k in range(g.n + 1):
        for sub in combinations(range(g.n), k):
            s = set(sub)
            if all(u in s or v in s for u, v in edges):
                return k
    raise AssertionError("unreachable")


def is_cluster(g: Graph) -> bool:
    """Every component a clique, checked straight from the definition."""
    seen = set()
    for start in g.vertices():
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for u in g.adj[v]:
                if u not in comp:
                    comp.add(u)
                    stack.append(u)
        seen |= comp
        members = sorted(comp)
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                if not g.has_edge(u, v):
                    return False
    return True


def _window_clique(m, lo, hi) -> tuple:
    """Maximum clique among intervals inside [lo, hi], by a per-window sweep."""
    members = [v for v in range(m.n) if lo <= m.left(v) and m.right(v) <= hi]
    events = sorted(
        [(m.left(v), 0, v) for v in members] + [(m.right(v), 1, v) for v in members]
    )
    active: set = set()
    best: tuple = ()
    for _, kind, v in events:
        if kind == 0:
            active.add(v)
            if len(active) > len(best):
                best = tuple(sorted(active))
        else:
            active.discard(v)
    return best


def _general_position(m):
    return m if ng.is_general_position(m) else m.normalized()


def interval_cluster(m) -> tuple:
    """Reference interval -> cluster solver: every window swept on its own
    over the Fraction endpoints, then the disjoint-window dynamic program."""
    m = _general_position(m)
    if m.n == 0:
        return ()
    windows = []
    for va in range(m.n):
        for vb in range(m.n):
            lo, hi = m.left(va), m.right(vb)
            if lo < hi:
                cliq = _window_clique(m, lo, hi)
                if cliq:
                    windows.append((hi, lo, cliq))
    windows.sort()
    rights = [w[0] for w in windows]
    dp = [0] * (len(windows) + 1)
    for j, (hi, lo, cliq) in enumerate(windows, start=1):
        dp[j] = max(dp[j - 1], dp[bisect_left(rights, lo)] + len(cliq))
    kept: list = []
    j = len(windows)
    while j > 0:
        hi, lo, cliq = windows[j - 1]
        prev = bisect_left(rights, lo)
        if dp[prev] + len(cliq) > dp[j - 1]:
            kept.extend(cliq)
            j = prev
        else:
            j -= 1
    return tuple(sorted(kept))


def interval_complete_split(m) -> tuple:
    """Reference interval -> complete split solver: every extreme pair
    (alpha, beta) with its clique and greedy independent set built afresh."""
    m = _general_position(m)
    best = _window_clique(m, min(m.intervals)[0], max(r for _, r in m.intervals)) if m.n else ()
    for vl in range(m.n):
        alpha = m.right(vl)
        for vr in range(m.n):
            beta = m.left(vr)
            if vr == vl or alpha >= beta:
                continue
            cand = {vl, vr}
            cand |= {v for v in range(m.n) if m.left(v) <= alpha and beta <= m.right(v)}
            frontier = alpha
            inside = [v for v in range(m.n) if alpha < m.left(v) and m.right(v) < beta]
            for v in sorted(inside, key=lambda v: (m.right(v), v)):
                if m.left(v) > frontier:
                    cand.add(v)
                    frontier = m.right(v)
            cand = tuple(sorted(cand))
            if len(cand) > len(best) or (len(cand) == len(best) and cand < best):
                best = cand
    return best


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Backtracking isomorphism test; intended for graphs up to ~10 vertices."""
    if g1.n != g2.n or g1.m != g2.m:
        return False
    if sorted(map(g1.degree, g1.vertices())) != sorted(map(g2.degree, g2.vertices())):
        return False
    order = sorted(g1.vertices(), key=lambda v: (-g1.degree(v), v))
    image: dict[int, int] = {}
    used: set[int] = set()

    def extend(k: int) -> bool:
        if k == g1.n:
            return True
        u = order[k]
        for w in g2.vertices():
            if w in used or g1.degree(u) != g2.degree(w):
                continue
            if any(g1.has_edge(u, x) != g2.has_edge(w, y) for x, y in image.items()):
                continue
            image[u] = w
            used.add(w)
            if extend(k + 1):
                return True
            del image[u]
            used.remove(w)
        return False

    return extend(0)


def find_pattern(g: Graph, f: Graph) -> tuple | None:
    """Lexicographically least vertex set of g inducing a copy of f, or None.

    Walks the f.n-subsets in lexicographic order; the pattern is capped at
    8 vertices.
    """
    if f.n > 8:
        raise PatternTooLargeError(f"pattern has {f.n} > 8 vertices")
    return next((sub for sub in combinations(range(g.n), f.n) if _induces(g, sub, f)), None)


def has_asteroidal_triple(g: Graph) -> tuple:
    triple = find_asteroidal_triple(g)
    return triple is not None, triple


def remove_edges(g: Graph, gone) -> Graph:
    drop = {(min(u, v), max(u, v)) for u, v in gone}
    return Graph.from_edges(g.n, [e for e in g.edges() if e not in drop])


def remove_clique_edges(g: Graph, part: SplitPartition) -> tuple:
    """Drop all edges inside the clique side; the result is bipartite."""
    if not is_valid_split_partition(g, part):
        raise GraphInputError("invalid split partition")
    cl = part.clique
    stripped = remove_edges(g, [(u, v) for i, u in enumerate(cl) for v in cl[i + 1 :]])
    return stripped, Bipartition(part.clique, part.independent)


# The graph walks as they were before `graph.rooted_forest` and the stacks of
# iterators: the block-cut tree's frame tuples and the clique search's
# [list, index] frames.  Bodies unchanged; the walk tests hold the library to
# them.  The depth-first component search has no library counterpart left:
# it is a helper for the tests and for `block_cluster_deleted`.


def connected_components_reference(g: Graph) -> list[VertexSet]:
    """Partition into maximal connected vertex sets, each ascending."""
    seen = [False] * g.n
    comps: list[VertexSet] = []
    for start in g.vertices():
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in g.adj[v]:
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
        comps.append(vset(comp))
    return comps


def build_block_cut_tree_reference(g: Graph) -> BlockCutTree:
    """Biconnected components by the classic lowpoint DFS, iterative form.

    Isolated vertices become singleton blocks so every vertex lives in at
    least one block.
    """
    disc = [-1] * g.n
    low = [0] * g.n
    timer = 0
    blocks: list[VertexSet] = []
    cuts: set[int] = set()
    estack: list[tuple[int, int]] = []

    for root in g.vertices():
        if disc[root] != -1:
            continue
        if not g.adj[root]:
            blocks.append((root,))
            continue
        root_children = 0
        disc[root] = low[root] = timer
        timer += 1
        frames: list[tuple[int, int, list[int], int]] = [(root, -1, sorted(g.adj[root]), 0)]
        while frames:
            v, parent, nbrs, idx = frames[-1]
            pushed = False
            while idx < len(nbrs):
                w = nbrs[idx]
                idx += 1
                if w == parent:
                    continue
                if disc[w] == -1:
                    estack.append((v, w))
                    disc[w] = low[w] = timer
                    timer += 1
                    if v == root:
                        root_children += 1
                    frames[-1] = (v, parent, nbrs, idx)
                    frames.append((w, v, sorted(g.adj[w]), 0))
                    pushed = True
                    break
                if disc[w] < disc[v]:
                    estack.append((v, w))
                    low[v] = min(low[v], disc[w])
            if pushed:
                continue
            frames.pop()
            if frames:
                pv = frames[-1][0]
                low[pv] = min(low[pv], low[v])
                if low[v] >= disc[pv]:
                    comp: set[int] = set()
                    while True:
                        e = estack.pop()
                        comp.update(e)
                        if e == (pv, v):
                            break
                    blocks.append(vset(comp))
                    if pv != root:
                        cuts.add(pv)
        if root_children > 1:
            cuts.add(root)

    edges = tuple(
        (bi, v) for bi, blk in enumerate(blocks) for v in blk if v in cuts
    )
    return BlockCutTree(tuple(blocks), vset(cuts), edges)


def find_clique_of_size_reference(g: Graph, p: int) -> VertexSet | None:
    """Lexicographically least clique on p vertices, or None.

    Depth-first over common neighbourhoods with an explicit stack, so a
    clique deeper than the recursion limit is still found.
    """
    if p == 0:
        return ()
    current: list[int] = []
    frames = [[list(g.vertices()), 0]]  # candidates and next index, per level
    while frames:
        frame = frames[-1]
        common, i = frame
        if i == len(common):
            frames.pop()
            del current[-1:]
            continue
        frame[1] = i + 1
        v = common[i]
        nxt = [u for u in common[i + 1 :] if g.has_edge(u, v)]
        if len(nxt) + len(current) + 1 < p:
            continue
        current.append(v)
        if len(current) == p:
            return tuple(current)
        frames.append([nxt, 0])
    return None


# The exhaustive oracle as it was before it skipped the subsets that delete
# a vertex but keep an earlier twin.  Body unchanged; the oracle tests hold
# `oracle_min_deletion` to it.


def oracle_min_deletion_reference(
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


# The oracle's subset enumeration as it was before it built only the
# twin-prefix subsets: every combination, then the twin filter.  Loop body
# unchanged; `test_twin_prefix_subsets_match_reference` holds
# `oracle._twin_prefix_subsets` to it.


def twin_prev(g: Graph) -> list[int]:
    """prev[v]: v's latest earlier twin (equal open or closed neighbourhood), else v."""
    prev, last = [], {}
    for v, nbrs in enumerate(g.adj):
        closed = nbrs | {v}
        prev.append(last.get(nbrs, last.get(closed, v)))
        last[nbrs] = last[closed] = v
    return prev


def twin_prefix_subsets_reference(prev: list[int], k: int):
    for subset in combinations(range(len(prev)), k):
        if not all(prev[v] in subset for v in subset):
            continue
        yield subset


# The hole search as it was before its shortest u-w path came from
# `graph.rooted_forest`: a hand-written layered breadth-first walk.  Body
# unchanged; `test_find_hole_matches_reference` holds the library to it.


def find_hole_reference(g: Graph) -> tuple[int, ...] | None:
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
                prev = {u: None}
                queue = [u]
                while queue:
                    nxt = []
                    for x in queue:
                        for y in sorted(g.adj[x]):
                            if y in prev or (y in banned and y != w):
                                continue
                            prev[y] = x
                            nxt.append(y)
                    queue = nxt
                if w in prev:
                    path = []
                    cur: int | None = w
                    while cur is not None:
                        path.append(cur)
                        cur = prev[cur]
                    return tuple([v] + path[::-1])
    return None


def tree_cluster_deleted(g: Graph) -> tuple:
    """Reference tree -> cluster peel: every round re-roots each component
    at its least vertex by its own breadth-first search and deletes the
    parent (or grandparent) of the deepest leaf, least vertex first."""
    adj = {v: set(g.adj[v]) for v in g.vertices()}
    alive = set(g.vertices())
    deleted = []
    while True:
        choice = None  # (depth key, victim)
        seen = set()
        for root in sorted(alive):
            if root in seen:
                continue
            parent, depth, kids = {root: None}, {root: 0}, {root: 0}
            queue, comp = [root], []
            while queue:
                v = queue.pop(0)
                comp.append(v)
                for u in sorted(adj[v]):
                    if u not in parent:
                        parent[u], depth[u], kids[u] = v, depth[v] + 1, 0
                        kids[v] += 1
                        queue.append(u)
            seen.update(comp)
            if len(comp) <= 2:
                continue
            for v in comp:
                if kids[v] == 0 and (choice is None or (-depth[v], v) < choice[0]):
                    p = parent[v]
                    choice = ((-depth[v], v), p if kids[p] > 1 else parent[p])
        if choice is None:
            return tuple(sorted(deleted))
        victim = choice[1]
        deleted.append(victim)
        alive.remove(victim)
        for u in adj.pop(victim):
            adj[u].discard(victim)


def block_cluster_deleted(g: Graph) -> tuple:
    """Reference block -> cluster peel: every round rebuilds the block-cut
    tree of what is left, roots each non-clique component at its least
    block, and resolves the deepest leaf block by the three-case rule."""
    alive = list(g.vertices())
    deleted = []
    while True:
        cur, old2new = induced_subgraph(g, alive)
        new2old = {ni: oi for oi, ni in old2new.items()}
        comps = [
            c for c in connected_components_reference(cur)
            if not all(cur.has_edge(u, v) for i, u in enumerate(c) for v in c[i + 1 :])
        ]
        if not comps:
            return tuple(sorted(deleted))
        bct = build_block_cut_tree_reference(cur)
        in_comp = {v: ci for ci, comp in enumerate(comps) for v in comp}
        nbrs = {}
        for bi, v in bct.edges:
            nbrs.setdefault(("b", bi), []).append(("c", v))
            nbrs.setdefault(("c", v), []).append(("b", bi))

        def block_key(bi):
            return tuple(new2old[v] for v in bct.blocks[bi])

        parent, depth, kids = {}, {}, {}
        for ci in range(len(comps)):
            root = ("b", min(
                (bi for bi, blk in enumerate(bct.blocks) if in_comp.get(blk[0]) == ci),
                key=block_key,
            ))
            parent[root], depth[root], kids[root] = None, 0, 0
            queue = [root]
            while queue:
                node = queue.pop(0)
                for nxt in sorted(nbrs.get(node, [])):
                    if nxt not in parent:
                        parent[nxt], depth[nxt], kids[nxt] = node, depth[node] + 1, 0
                        kids[node] += 1
                        queue.append(nxt)
        leaf = min(
            (n for n in parent if n[0] == "b" and kids[n] == 0 and parent[n] is not None),
            key=lambda n: (-depth[n], block_key(n[1])),
        )
        vnode = parent[leaf]
        v = vnode[1]
        upper_blk = bct.blocks[parent[vnode][1]]
        if kids[vnode] > 1 or any(w not in bct.cut_vertices for w in upper_blk):
            doomed = {v}
        else:
            doomed = set(upper_blk) - {v}
        doomed_old = {new2old[w] for w in doomed}
        deleted.extend(doomed_old)
        alive = [x for x in alive if x not in doomed_old]


def maximal_cliques_chordal(g: Graph) -> list:
    """Reference maximal-clique list: every C(v) = {v} ∪ later(v) of the
    elimination ordering, kept unless another one strictly contains it."""
    order = require(g, CHORDAL).peo
    pos = {v: i for i, v in enumerate(order)}
    cands = sorted(
        {vset({v} | {u for u in g.adj[v] if pos[u] > pos[v]}) for v in order}
    )
    return [c for c in cands if not any(c != d and set(c) < set(d) for d in cands)]


def cochain_deleted(g: Graph) -> tuple:
    """Reference chordal -> co-chain solver: the deleted set of every pair of
    reference maximal cliques built and compared, the least (size, set) kept."""
    cliques = maximal_cliques_chordal(g)
    everything = set(g.vertices())
    best = vset(everything)
    for i in range(len(cliques)):
        for j in range(i, len(cliques)):
            gone = vset(everything - set(cliques[i]) - set(cliques[j]))
            if (len(gone), gone) < (len(best), best):
                best = gone
    return best


# Reference candidate families for the split solvers: the three builders
# that listed each family case by case, kept as they were.  They share
# `_cross_cover` with the library, so they check the family, not the cover.


def non_clique_candidates(g: Graph, cliq, indep, cross_cover=_cross_cover) -> list:
    """Deletion sets that isolate all but one independent-side vertex.

    One candidate covers every cross edge; one candidate per independent
    vertex v keeps v attached by deleting the clique vertices missing from
    N(v) and covering what remains.
    """
    cands = [cross_cover(g, cliq, indep)]
    for v in indep:
        kept = [u for u in cliq if u in g.adj[v]]
        removed = [u for u in cliq if u not in g.adj[v]]
        rest = [w for w in indep if w != v]
        cover = cross_cover(g, kept, rest)
        cands.append(vset(set(cover) | set(removed)))
    return cands


def case1_candidates(g: Graph, cliq, indep, cross_cover=_cross_cover) -> list:
    """Candidates when every kept independent vertex misses part of the clique.

    Besides the {2K2, P3}-free family, either a single independent vertex v
    stays attached (cover everything else), or exactly two stay; then the
    clique vertices seeing both, or those seeing neither, must go.
    """
    cands = non_clique_candidates(g, cliq, indep, cross_cover)
    cset = set(cliq)
    for v in indep:
        rest = [w for w in indep if w != v]
        cands.append(cross_cover(g, cliq, rest))
    for i, v1 in enumerate(indep):
        for v2 in indep[i + 1 :]:
            rest = [w for w in indep if w != v1 and w != v2]
            common = vset(cset & g.adj[v1] & g.adj[v2])
            cover = cross_cover(g, cset - set(common), rest)
            cands.append(vset(set(cover) | set(common)))
            outside = vset(cset - set(g.adj[v1]) - set(g.adj[v2]))
            cover = cross_cover(g, cset - set(outside), rest)
            cands.append(vset(set(cover) | set(outside)))
    return cands


def cover_memo(g: Graph):
    """`_cross_cover` on g, computed once per (clique side, independent side)
    pair: the same pair recurs across partitions and case-2 runs."""
    memo: dict = {}

    def cross_cover(_g: Graph, cliq, indep) -> tuple:  # _cross_cover's signature
        key = (frozenset(cliq), frozenset(indep))
        if key not in memo:
            memo[key] = _cross_cover(g, cliq, indep)
        return memo[key]

    return cross_cover


def unit_interval_candidates(g: Graph, cross_cover=None) -> list:
    """Case 1 on every split partition, and case 2: for each independent v,
    delete C minus N(v), move v to the clique side and rerun case 1.  Covers
    come from `cross_cover`, by default a fresh `cover_memo(g)`."""
    cross_cover = cross_cover or cover_memo(g)
    cands = []
    for part in enumerate_split_partitions(g):
        cliq, indep = part.clique, part.independent
        cands.extend(case1_candidates(g, cliq, indep, cross_cover))
        for v in indep:
            removed = vset(set(cliq) - g.adj[v])
            new_cliq = vset((set(cliq) & g.adj[v]) | {v})
            new_indep = vset(w for w in indep if w != v)
            for sub in case1_candidates(g, new_cliq, new_indep, cross_cover):
                cands.append(vset(set(sub) | set(removed)))
    return cands


# Reference search kernels: the adjacency-set versions of
# `recognition._find_embedding`, `maximum_cardinality_search`,
# `is_perfect_elimination_ordering` and `find_asteroidal_triple`, kept as
# they were before the library moved to int bitmasks.  The bitmask kernels
# must return exactly what these return.


def find_embedding_reference(g: Graph, f: Graph) -> tuple | None:
    """First vertex set of g inducing a copy of f, by backtracking.

    Deterministic but not necessarily the lexicographically least witness.
    """
    if f.n == 0:
        return ()
    if f.n > g.n:
        return None
    # high-degree pattern vertices first: fail fast
    order = sorted(f.vertices(), key=lambda u: (-f.degree(u), u))
    # per depth: the g vertices of large enough degree, and the earlier
    # pattern vertices' adjacency to the one placed there
    degree = [len(nbrs) for nbrs in g.adj]
    fits = [[w for w in g.vertices() if degree[w] >= f.degree(u)] for u in order]
    wants = [[f.has_edge(u, x) for x in order[:k]] for k, u in enumerate(order)]
    chosen: list[int] = []
    used: set[int] = set()

    def extend(k: int) -> tuple | None:
        if k == len(order):
            return vset(used)
        want = wants[k]
        for w in fits[k]:
            if w in used:
                continue
            nbrs = g.adj[w]
            for y, e in zip(chosen, want):
                if (y in nbrs) != e:
                    break
            else:
                chosen.append(w)
                used.add(w)
                hit = extend(k + 1)
                if hit is not None:
                    return hit
                chosen.pop()
                used.remove(w)
        return None

    return extend(0)


def mcs_reference(g: Graph) -> list[int]:
    """MCS visit order; its reverse is a PEO exactly when g is chordal."""
    weight = [0] * g.n
    visited = [False] * g.n
    order = []
    for _ in range(g.n):
        v = max(
            (u for u in g.vertices() if not visited[u]),
            key=lambda u: (weight[u], -u),
        )
        visited[v] = True
        order.append(v)
        for u in g.adj[v]:
            if not visited[u]:
                weight[u] += 1
    return order


def is_peo_reference(g: Graph, ordering) -> bool:
    """Check that each vertex's later neighbors induce a clique."""
    order = list(ordering)
    if sorted(order) != list(g.vertices()):
        return False
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        later = [u for u in g.adj[v] if pos[u] > pos[v]]
        if not later:
            continue
        u = min(later, key=lambda w: pos[w])
        if any(w != u and not g.has_edge(u, w) for w in later):
            return False
    return True


def asteroidal_triple_reference(g: Graph) -> tuple | None:
    """First vertex triple whose members pairwise connect while avoiding the
    closed neighborhood of the third, in ascending order, or None."""
    comp: list[dict[int, int]] = []
    for z in g.vertices():
        banned = g.closed_neighborhood(z)
        label: dict[int, int] = {}
        mark = 0
        for start in g.vertices():
            if start in banned or start in label:
                continue
            stack = [start]
            label[start] = mark
            while stack:
                x = stack.pop()
                for y in g.adj[x]:
                    if y not in banned and y not in label:
                        label[y] = mark
                        stack.append(y)
            mark += 1
        comp.append(label)

    for x in g.vertices():
        for y in range(x + 1, g.n):
            for z in range(y + 1, g.n):
                cz, cy, cx = comp[z], comp[y], comp[x]
                if (
                    x in cz and y in cz and cz[x] == cz[y]
                    and x in cy and z in cy and cy[x] == cy[z]
                    and y in cx and z in cx and cx[y] == cx[z]
                ):
                    return (x, y, z)
    return None


def gen_chordal_reference(n: int, seed: int = 0) -> Graph:
    """`randgen.gen_chordal` as it was with a rebuilt frontier and pairwise
    subtree intersections; the library version must draw the same graph."""
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


# The text readers and graph6 writer as they were before `graphio` took over
# the data-line, id-or-label and padding rules and packed graph6 in one pass.
# Bodies unchanged; the fuzz test holds the library to them.


def data_lines_reference(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


def parse_edge_lines_reference(lines: list[str]) -> tuple[Graph, list[str]]:
    """`parse_edge_list` on text already split into data lines."""
    if not lines:
        raise GraphInputError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphInputError(f"header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise GraphInputError(f"header must be 'n m', got {lines[0]!r}") from None
    if n < 0 or m < 0:
        raise GraphInputError("negative n or m")
    check_vertex_cap(n)
    if len(lines) - 1 != m:
        raise GraphInputError(f"expected {m} edge lines, found {len(lines) - 1}")

    pairs: list[tuple[str, str]] = []
    for line in lines[1:]:
        toks = line.split()
        if len(toks) != 2:
            raise GraphInputError(f"edge line must be 'u v', got {line!r}")
        pairs.append((toks[0], toks[1]))

    tokens = {t for uv in pairs for t in uv}
    numeric = True
    for t in tokens:
        try:
            v = int(t)
        except ValueError:
            numeric = False
            break
        if not 0 <= v < n or str(v) != t:  # "01" or "+1" is a label
            numeric = False
            break

    if numeric:
        labels = [str(i) for i in range(n)]
        ix = {str(i): i for i in range(n)}
    else:
        named = sorted(tokens)
        if len(named) > n:
            raise GraphInputError(f"{len(named)} labels but n = {n}")
        labels = named + [f"_v{i}" for i in range(len(named), n)]
        ix = {lab: i for i, lab in enumerate(named)}

    edges = []
    for a, b in pairs:
        if a == b:
            raise GraphInputError(f"self-loop {a!r}")
        edges.append((ix[a], ix[b]))
    g = Graph.from_edges(n, edges)
    if g.m < m:  # some edge is listed twice: name its second listing
        seen: set[frozenset[int]] = set()
        for (a, b), e in zip(pairs, edges):
            if frozenset(e) in seen:
                raise GraphInputError(f"repeated edge {a!r} {b!r}")
            seen.add(frozenset(e))
    return g, labels


def to_graph6_reference(g: Graph) -> str:
    bits = []
    for j in range(1, g.n):
        for i in range(j):
            bits.append(1 if g.has_edge(i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    data = []
    for k in range(0, len(bits), 6):
        x = 0
        for b in bits[k : k + 6]:
            x = (x << 1) | b
        data.append(x + 63)
    return "".join(chr(c) for c in _g6_size_bytes(g.n) + data)


def from_graph6_reference(line: str) -> Graph:
    s = line.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise GraphInputError("empty graph6 string")
    vals = []
    for ch in s:
        c = ord(ch)
        if not 63 <= c <= 126:
            raise GraphInputError(f"invalid graph6 character {ch!r}")
        vals.append(c - 63)

    if vals[0] != 63:
        n, pos = vals[0], 1
    elif len(vals) >= 2 and vals[1] != 63:
        if len(vals) < 4:
            raise GraphInputError("truncated graph6 size")
        n = (vals[1] << 12) | (vals[2] << 6) | vals[3]
        pos = 4
    else:
        if len(vals) < 8:
            raise GraphInputError("truncated graph6 size")
        n = 0
        for v in vals[2:8]:
            n = (n << 6) | v
        pos = 8
    check_vertex_cap(n)

    need = (n * (n - 1) // 2 + 5) // 6
    if len(vals) - pos != need:
        raise GraphInputError(f"graph6 body has {len(vals) - pos} bytes, expected {need}")
    bits = []
    for v in vals[pos:]:
        for s6 in range(5, -1, -1):
            bits.append((v >> s6) & 1)

    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((i, j))
            k += 1
    return Graph.from_edges(n, edges)


def parse_interval_model_reference(text: str) -> tuple[IntervalModel, list[str]]:
    """One vertex per line: "label l r", integer or rational endpoints."""
    rows = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.split()
        if len(toks) != 3:
            raise GraphInputError(f"model line must be 'label l r', got {line!r}")
        try:
            rows.append((toks[0], Fraction(toks[1]), Fraction(toks[2])))
        except (ValueError, ZeroDivisionError):
            raise GraphInputError(f"bad endpoint in {line!r}") from None
    labels = [lab for lab, _, _ in rows]
    if len(set(labels)) != len(labels):
        raise GraphInputError("duplicate vertex labels in model")
    return IntervalModel(tuple((l, r) for _, l, r in rows)), labels


# The interval-model sweeps as they stood before the solvers moved onto
# integer ranks end to end: Fraction re-conversion, two intersection graphs
# per solve, and a suffix list rebuilt per member of the window table.  The
# interval tests hold the library to them, tuple for tuple.


def _events_reference(m: IntervalModel) -> list:
    """(coordinate, 0 for left or 1 for right, vertex), in sweep order."""
    return sorted(
        (x, kind, v) for v, ends in enumerate(m.intervals) for kind, x in enumerate(ends)
    )


def _prepared_reference(m: IntervalModel) -> tuple:
    """The model re-spaced onto ranks 1..2n, and its left and right ranks."""
    spots = {}
    for pos, (_, kind, v) in enumerate(_events_reference(m), start=1):
        spots[(kind, v)] = pos
    m = IntervalModel(tuple((spots[(0, v)], spots[(1, v)]) for v in range(m.n)))
    return m, [l for l, _ in m.intervals], [r for _, r in m.intervals]


def model_to_graph_reference(m: IntervalModel) -> Graph:
    """Intersection graph of the closed intervals, by one endpoint sweep."""
    edges: list[tuple[int, int]] = []
    active: set[int] = set()
    for _, kind, v in _events_reference(m):
        if kind:
            active.remove(v)
        else:
            edges += ((u, v) for u in active)
            active.add(v)
    return Graph.from_edges(m.n, edges)


def _verify_reference(m: IntervalModel, kept: VertexSet, label) -> None:
    g = model_to_graph_reference(m)
    sub, _ = induced_subgraph(g, kept)
    if not recognize(sub, label).member:
        raise AssertionError(f"interval solver output is not {label.spelling}")


def window_sizes_reference(lo: list[int], hi: list[int]) -> list:
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
                i = bisect_left(ends, lo[b])
                counts[i:] = [c + 1 for c in counts[i:]] + [1]
                ends.append(hi[b])
                size = max(size, max(counts[i:]))
            if size:
                out.append((hi[b], start, a, b, size))
    return out


def max_cluster_subgraph_reference(m: IntervalModel) -> VertexSet:
    """Largest vertex set inducing a cluster graph: every window weighed by
    its maximum clique size, then the disjoint-window dynamic program over
    the windows sorted by right endpoint."""
    m, lo, hi = _prepared_reference(m)
    if m.n == 0:
        return ()
    windows = sorted(window_sizes_reference(lo, hi))

    rights = [w[0] for w in windows]
    k = len(windows)
    dp = [0] * (k + 1)
    for j in range(1, k + 1):
        right, left, _, _, size = windows[j - 1]
        prev = bisect_left(rights, left)
        dp[j] = max(dp[j - 1], dp[prev] + size)

    chosen: list[tuple[int, int, VertexSet]] = []
    j = k
    while j > 0:
        right, left, va, vb, size = windows[j - 1]
        prev = bisect_left(rights, left)
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
    _verify_reference(m, out, CLUSTER)
    return out


def max_complete_split_subgraph_reference(m: IntervalModel) -> VertexSet:
    """Largest vertex set inducing a complete split graph: every extreme
    pair (alpha, beta) over a greedy chain built once per alpha, with the
    intervals through alpha sorted afresh per alpha."""
    m, lo, hi = _prepared_reference(m)
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
            n_cliq = bisect_right(through_ends, -beta)
            n_mis = bisect_left(chain_ends, beta)
            if n_cliq + 2 + n_mis < len(best):
                continue
            cand = vset(through[:n_cliq] + [vl, vr] + chain[:n_mis])
            if len(cand) > len(best) or cand < best:
                best = cand
    _verify_reference(m, best, COMPLETE_SPLIT)
    return best
