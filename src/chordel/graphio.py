"""Graph text formats: edge-list files and graph6 strings.

This module owns the text rules: which lines carry data (also for the
interval-model files `interval` reads), when tokens are ids and when labels,
how unnamed vertices are labelled, and which labels can be written.

Edge-list format: the first data line is "n m", followed by m lines "u v".
Blank lines and lines starting with "#" are ignored.  Endpoints are ids
exactly when every one is the decimal form of an id in 0..n-1 (no sign, no
leading zero); otherwise all are labels, re-indexed in sorted order, and
vertices no edge names get `padding_labels`.  The label list is returned
alongside the graph.

graph6 follows the standard bit-level definition (upper triangle, column
major, 6-bit chunks offset by 63), so output is bit-exact interchange.
"""

from __future__ import annotations

from itertools import zip_longest

from .graph import Graph, GraphInputError, check_vertex_cap


def data_lines(text: str) -> list[str]:
    """The stripped lines of `text` that are neither blank nor "#" comments."""
    lines = (raw.strip() for raw in text.splitlines())
    return [line for line in lines if line and line[0] != "#"]


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
    ix = {str(i): i for i in range(n)}
    if tokens <= ix.keys():  # every token an id: no sign, no leading zero
        labels = list(ix)
    else:
        labels = sorted(tokens)
        if len(labels) > n:
            raise GraphInputError(f"{len(labels)} labels but n = {n}")
        ix = {lab: i for i, lab in enumerate(labels)}
        labels += padding_labels(tokens, "_v", len(labels), n)

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


def write_edge_list(
    g: Graph, labels: list[str] | None = None, comments: tuple[str, ...] = ()
) -> str:
    """Deterministic edge-list text: header, then edges ascending.

    Explicit labels must read back as written: a label that is empty, holds
    whitespace, starts with "#" or repeats is refused before any text is made.
    """
    if labels is None:
        labels = [str(i) for i in range(g.n)]
    elif len(labels) != g.n:
        raise GraphInputError("label list length mismatch")
    else:
        seen = set()
        for lab in labels:
            if lab.split() != [lab] or lab[0] == "#" or lab in seen:
                raise GraphInputError(f"label {lab!r} cannot be written: it would not read back")
            seen.add(lab)
    out = [f"# {c}" for c in comments]
    out.append(f"{g.n} {g.m}")
    out.extend(f"{labels[u]} {labels[v]}" for u, v in g.edges())
    return "\n".join(out) + "\n"


def _g6_size_bytes(n: int) -> list[int]:
    if n <= 62:
        return [n + 63]
    if n <= 258047:
        return [126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    if n <= 68719476735:
        return [126, 126] + [((n >> s) & 63) + 63 for s in (30, 24, 18, 12, 6, 0)]
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
    bits = ((v >> s6) & 1 for v in vals[pos:] for s6 in range(5, -1, -1))
    pairs = ((i, j) for j in range(1, n) for i in range(j))
    edges = [ij for ij, bit in zip(pairs, bits) if bit]
    return Graph.from_edges(n, edges)


def sniff_and_parse(text: str) -> tuple[Graph, list[str]]:
    """Parse either format: 'n m' header means edge list, else one graph6 line."""
    lines = data_lines(text)
    if not lines:
        raise GraphInputError("empty graph input")
    head = lines[0].split()
    if len(head) == 2 and all(t.lstrip("-").isdigit() for t in head):
        return _parse_edge_lines(lines)
    if len(lines) > 1:
        raise GraphInputError(f"graph6 input holds {len(lines)} graphs; give one per file")
    g = from_graph6(lines[0])
    return g, [str(i) for i in range(g.n)]
