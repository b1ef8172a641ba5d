"""Graph text formats: edge-list files and graph6 strings.

This module owns the text rules: which lines carry data (also for the
interval-model files `interval` reads), when tokens are ids and when labels,
how unnamed vertices are labelled, and which labels can be written.

Edge-list format: the first data line is "n m", followed by m lines "u v".
Blank lines and lines starting with "#" are ignored.  A header token must
be the decimal form `str` writes ("+3", "03" and "3_0" are refused), the
rule ids follow too: endpoints are ids exactly when every one is the
decimal form of an id in 0..n-1 (no sign, no leading zero); otherwise all
are labels, re-indexed in sorted order, and vertices no edge names get
`padding_labels`.  The label list is returned alongside the graph.

graph6 follows the standard bit-level definition (upper triangle, column
major, 6-bit chunks offset by 63), so output is bit-exact interchange.

`sniff_and_parse` reads a first data line of one token as graph6, which holds
no whitespace, and any other input as an edge list.
"""

from __future__ import annotations

from itertools import islice, zip_longest

from .graph import Graph, GraphInputError, check_vertex_cap


def data_lines(text: str) -> list[str]:
    """The stripped lines of `text` that are neither blank nor "#" comments."""
    return [line for line in map(str.strip, text.splitlines()) if line and line[0] != "#"]


def padding_labels(used, stem: str, start: int, stop: int) -> list[str]:
    """Labels `stem + str(i)` for i in start..stop-1, for vertices the input
    names no label for.  A name in `used` gets leading underscores until it
    is free, so a padding label never repeats an input label."""
    out = []
    for i in range(start, stop):
        name = f"{stem}{i}"
        while name in used:
            name = "_" + name
        out.append(name)
    return out


def parse_edge_list(text: str) -> tuple[Graph, list[str]]:
    """Parse edge-list text into a graph plus per-id labels."""
    return _parse_edge_lines(data_lines(text))


def _parse_edge_lines(lines: list[str]) -> tuple[Graph, list[str]]:
    """`parse_edge_list` on text already split into data lines.  One pass
    maps each edge line's ends through the id map into adjacency sets; a line
    that is not "u v", or a label, sends the lines through the shape and label
    rules and then that pass again.  A self-loop or repeat re-scans for its line."""
    if not lines:
        raise GraphInputError("empty edge-list input")
    toks = lines[0].split()
    try:  # each header token is its own decimal form, as an id is
        n, m = map(int, toks)
        if [str(n), str(m)] != toks:
            raise ValueError
    except ValueError:
        raise GraphInputError(f"header must be 'n m', got {lines[0]!r}") from None
    if n < 0 or m < 0:
        raise GraphInputError("negative n or m")
    check_vertex_cap(n)
    if len(lines) - 1 != m:
        raise GraphInputError(f"expected {m} edge lines, found {len(lines) - 1}")

    labels = [str(i) for i in range(n)]
    try:  # every token an id: no sign, no leading zero
        adj = _adjacency(lines, n, dict(zip(labels, range(n))))
    except (ValueError, KeyError):  # a line that is not "u v", or a label
        tokens = set()
        for line in islice(lines, 1, None):
            toks = line.split()
            if len(toks) != 2:
                raise GraphInputError(f"edge line must be 'u v', got {line!r}") from None
            tokens.update(toks)
        labels = sorted(tokens)
        if len(labels) > n:
            raise GraphInputError(f"{len(labels)} labels but n = {n}") from None
        adj = _adjacency(lines, n, {lab: i for i, lab in enumerate(labels)})
        labels += padding_labels(tokens, "_v", len(labels), n)

    if any(v in nbrs for v, nbrs in enumerate(adj)):
        a = next(a for a, b in map(str.split, islice(lines, 1, None)) if a == b)
        raise GraphInputError(f"self-loop {a!r}")
    if sum(map(len, adj)) < 2 * m:  # some edge is listed twice: name its second listing
        seen: set[frozenset[str]] = set()
        for a, b in map(str.split, islice(lines, 1, None)):
            if frozenset((a, b)) in seen:
                raise GraphInputError(f"repeated edge {a!r} {b!r}")
            seen.add(frozenset((a, b)))
    for v, nbrs in enumerate(adj):  # each set is freed as its frozenset is made
        adj[v] = frozenset(nbrs)
    return Graph._built(n, tuple(adj)), labels


def _adjacency(lines: list[str], n: int, ix: dict[str, int]) -> list[set[int]]:
    """Adjacency sets of the edge lines, ends mapped through `ix`; ValueError
    or KeyError at the first line that is not two tokens or not in `ix`."""
    adj: list[set[int]] = [set() for _ in range(n)]
    for line in islice(lines, 1, None):
        a, b = line.split()
        u, v = ix[a], ix[b]
        adj[u].add(v)
        adj[v].add(u)
    return adj


def writable_labels(labels: list[str] | None, n: int) -> list[str]:
    """`labels`, or the ids when None.  Explicit labels must read back as
    written, one per vertex: a label that is empty, holds whitespace, starts
    with "#" or repeats is refused, as is a list of the wrong length."""
    if labels is None:
        return [str(i) for i in range(n)]
    if len(labels) != n:
        raise GraphInputError("label list length mismatch")
    seen = set()
    for lab in labels:
        if lab.split() != [lab] or lab[0] == "#" or lab in seen:
            raise GraphInputError(f"label {lab!r} cannot be written: it would not read back")
        seen.add(lab)
    return labels


def write_edge_list(
    g: Graph, labels: list[str] | None = None, comments: tuple[str, ...] = ()
) -> str:
    """Deterministic edge-list text: header, then edges ascending.  Labels
    that `writable_labels` refuses, and a comment that would not stay one
    line, are refused before any text is made."""
    labels = writable_labels(labels, g.n)
    for c in comments:
        if c.splitlines() not in ([], [c]):
            raise GraphInputError(f"comment {c!r} cannot be written: it is not one line")
    out = [f"# {c}" for c in comments]
    out.append(f"{g.n} {g.m}")
    out.extend(f"{labels[u]} {labels[v]}" for u, v in g.edges())
    return "\n".join(out) + "\n"


# graph6's size forms: (how many 126 bytes lead, base-64 digits after them, largest n)
_G6_SIZE_FORMS = ((0, 1, 62), (1, 3, 258047), (2, 6, 68719476735))


def _g6_size_bytes(n: int) -> list[int]:
    for lead, digits, top in _G6_SIZE_FORMS:
        if n <= top:
            return [126] * lead + [((n >> 6 * i) & 63) + 63 for i in reversed(range(digits))]
    raise GraphInputError("graph too large for graph6")


def to_graph6(g: Graph) -> str:
    bits = (j in g.adj[i] for j in range(1, g.n) for i in range(j))
    data = _g6_size_bytes(g.n)
    for chunk in zip_longest(*[bits] * 6, fillvalue=False):
        x = 0
        for b in chunk:
            x = (x << 1) | b
        data.append(x + 63)
    return "".join(map(chr, data))


def from_graph6(line: str) -> Graph:
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

    # the longest form whose lead bytes are all 126
    lead, digits, _ = [f for f in _G6_SIZE_FORMS if vals[: f[0]] == [63] * f[0]][-1]
    pos = lead + digits
    if len(vals) < pos:
        raise GraphInputError("truncated graph6 size")
    n = sum(v << 6 * i for i, v in enumerate(reversed(vals[lead:pos])))
    check_vertex_cap(n)

    need = (n * (n - 1) // 2 + 5) // 6
    if len(vals) - pos != need:
        raise GraphInputError(f"graph6 body has {len(vals) - pos} bytes, expected {need}")
    bits = ((v >> s6) & 1 for v in vals[pos:] for s6 in range(5, -1, -1))
    pairs = ((i, j) for j in range(1, n) for i in range(j))
    edges = [ij for ij, bit in zip(pairs, bits) if bit]
    return Graph.from_edges(n, edges)


def sniff_and_parse(text: str) -> tuple[Graph, list[str]]:
    """Parse either format: a one-token first data line is graph6, else an edge list."""
    lines = data_lines(text)
    if not lines:
        raise GraphInputError("empty graph input")
    if len(lines[0].split()) != 1:
        return _parse_edge_lines(lines)
    if len(lines) > 1:
        raise GraphInputError(f"graph6 input holds {len(lines)} graphs; give one per file")
    g = from_graph6(lines[0])
    return g, [str(i) for i in range(g.n)]
