"""Graph text formats: edge-list files and graph6 strings.

Edge-list format: the first data line is "n m", followed by m lines "u v".
Blank lines and lines starting with "#" are ignored.  Endpoints are either
0-based integer ids or arbitrary labels; labels are re-indexed in sorted
order and the label list is returned alongside the graph.

graph6 follows the standard bit-level definition (upper triangle, column
major, 6-bit chunks offset by 63), so output is bit-exact interchange.
"""

from __future__ import annotations

from .graph import Graph, GraphInputError, check_vertex_cap


def _data_lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


def parse_edge_list(text: str) -> tuple[Graph, list[str]]:
    """Parse edge-list text into a graph plus per-id labels."""
    return _parse_edge_lines(_data_lines(text))


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


def write_edge_list(
    g: Graph, labels: list[str] | None = None, comments: tuple[str, ...] = ()
) -> str:
    """Deterministic edge-list text: header, then edges ascending."""
    if labels is None:
        labels = [str(i) for i in range(g.n)]
    if len(labels) != g.n:
        raise GraphInputError("label list length mismatch")
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


def sniff_and_parse(text: str) -> tuple[Graph, list[str]]:
    """Parse either format: 'n m' header means edge list, else one graph6 line."""
    lines = _data_lines(text)
    if not lines:
        raise GraphInputError("empty graph input")
    head = lines[0].split()
    if len(head) == 2 and all(t.lstrip("-").isdigit() for t in head):
        return _parse_edge_lines(lines)
    if len(lines) > 1:
        raise GraphInputError(f"graph6 input holds {len(lines)} graphs; give one per file")
    g = from_graph6(lines[0])
    return g, [str(i) for i in range(g.n)]
