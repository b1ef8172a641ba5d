"""Seeded fuzzing of the text readers and of every CLI subcommand.

Valid edge-list, graph6 and interval-model files are mutated with a fixed
seed: lines truncated, duplicated or swapped, and tokens replaced by
zero-padded, signed, non-ASCII, non-UTF-8, "#"-prefixed, padding-like or
huge ones.  Three properties are checked on every mutated file:

- no exception escapes `cli.main`, and it exits 0, 1 or 2, in both formats;
- the readers agree with the references in `bruteforce`, except that a
  padding label no longer repeats an input label, that an edge-list header
  token must be its own decimal form ("+3" and "03" are refused), and that
  an interval endpoint with an exponent or an underscore is refused (a
  model the reference reads with one exits 2);
- every file `reduce --output` or `generate --output` writes reads back to
  the labelled edge set it was written from, unless the write was refused.

Headers stay at n <= 64; huge tokens are all above MAX_VERTICES, so they are
refused before anything is allocated.  A failure names the case seed.  The
edge-list reader is also held to the reference, and below its peak memory,
on every generator's output at n = 128 and 512, clean and with one fault.
"""

import io
import random
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import pytest

import bruteforce as bf
from chordel import randgen
from chordel.cli import _GRAPH_SOLVERS, _MODEL_SOLVERS, main
from chordel.graph import MAX_VERTICES, GraphInputError
from chordel.graphio import (
    data_lines,
    from_graph6,
    parse_edge_list,
    sniff_and_parse,
    to_graph6,
    write_edge_list,
)
from chordel.interval import (
    model_to_graph,
    parse_interval_model,
    write_interval_model,
)

SEED = 20261018
CASES = 1500

INJECTED = (
    "0", "00", "01", "007", "+1", "-1", "-0", "+0", "é", "٣", "ß", " x",
    "#", "#b", "#0", "_v1", "_v8", "_v9", "_v10", "__v9", "_g9", "_g10", "_g12",
    str(MAX_VERTICES + 1), "9" * 30, "1e400", "2E-3",
)
NON_UTF8 = (b"\xff", b"\xc3(", b"\x80abc")


def _graph_bases():
    """Valid small graph files: (kind, text), ids and labels, both formats."""
    graphs = [
        randgen.gen_split(8, 0.5, 1),
        randgen.gen_threshold(7, 2)[0],
        randgen.gen_chordal(8, 3),
        randgen.gen_block(9, 4),
        randgen.gen_tree(9, 5),
        randgen.gen_bipartite(8, 0.4, 6)[0],
        model_to_graph(randgen.gen_interval_model(8, 7)),
    ]
    bases = []
    for g in graphs:
        bases.append(("edges", write_edge_list(g, comments=("a comment",))))
        names = [f"v{i}" for i in range(g.n)]
        bases.append(("edges", write_edge_list(g, names)))
        bases.append(("graph6", to_graph6(g) + "\n"))
    return bases


def _model_bases():
    out = []
    for s in (1, 2, 3):
        m = randgen.gen_interval_model(7, s)
        out.append(("model", write_interval_model(m)))
        names = [f"x{i}" for i in range(m.n)]
        out.append(("model", "# a model\n" + write_interval_model(m, names)))
    return out


# labels that the padding rules must step around
COLLISIONS = [("edges", "5 2\n_v3 a\na b\n"), ("edges", "3 2\nx _g3\nx y\n")]
BASES = _graph_bases() + _model_bases() + COLLISIONS


def _header(lines: list[str]) -> int | None:
    """Index of the first data line, if there is one."""
    for k, line in enumerate(lines):
        if line.strip() and not line.strip().startswith("#"):
            return k
    return None


def mutate(text: str, rng: random.Random) -> bytes:
    """Up to two random mutations of `text`, as the bytes of a file.

    Half the time an edge-list header's m is then set to the number of
    lines after it, so that the mutation reaches past the line count check.
    """
    lines = text.split("\n")
    raw = None
    for _ in range(rng.randint(0, 2)):
        op = rng.choices(range(8), weights=(1, 2, 2, 2, 4, 2, 2, 1))[0]
        k = rng.randrange(len(lines))
        if op == 0:  # truncate the file at a line
            lines = lines[: k + 1]
        elif op == 1:  # truncate a line at a character
            lines[k] = lines[k][: rng.randrange(len(lines[k]) + 1)]
        elif op == 2:
            lines.insert(k, lines[k])
        elif op == 3:
            j = rng.randrange(len(lines))
            lines[k], lines[j] = lines[j], lines[k]
        elif op in (4, 5):  # replace a token, or add one
            toks = lines[k].split(" ")
            at = rng.randrange(len(toks) + (op == 5))
            tok = rng.choice(INJECTED)
            if op == 4 and at < len(toks) and rng.random() < 0.3:
                tok = "0" + toks[at]  # zero-pad the token that is there
            toks[at:at + (op == 4)] = [tok]
            lines[k] = " ".join(toks)
        elif op == 6:  # grow n, so that some vertices get padding labels
            h = _header(lines)
            toks = lines[h].split() if h is not None else []
            if len(toks) == 2 and toks[0].isdecimal():
                lines[h] = f"{int(toks[0]) + rng.randint(1, 3)} {toks[1]}"
        else:
            raw = rng.choice(NON_UTF8)
    h = _header(lines)
    if h is not None and rng.random() < 0.5:
        toks = lines[h].split()
        if len(toks) == 2 and toks[0].isdecimal():
            rest = [x for x in lines[h + 1:] if x.strip() and not x.strip().startswith("#")]
            lines[h] = f"{toks[0]} {len(rest)}"
    data = "\n".join(lines).encode("utf-8")
    if raw is not None:
        at = rng.randrange(len(data) + 1)
        data = data[:at] + raw + data[at:]
    return data


def _outcome(fn, *args):
    """A reader's (value, None), or (None, the type and message of its error)."""
    try:
        return fn(*args), None
    except ValueError as exc:  # GraphInputError is one
        return None, f"{type(exc).__name__}: {exc}"


def _labelled_edges(g, labels) -> set:
    return {frozenset((labels[u], labels[v])) for u, v in g.edges()}


def _decimal_header(line: str) -> bool:
    """Whether every token of `line` that `int` reads is its own decimal
    form, as the reader requires of a header ("+3", "03", "-0", "3_0" and
    "\u0663" are not)."""
    for tok in line.split():
        try:
            if str(int(tok)) != tok:
                return False
        except ValueError:
            pass
    return True


def _check_graph_reader(text: str) -> None:
    assert data_lines(text) == bf.data_lines_reference(text)
    lines = data_lines(text)
    got, error = _outcome(parse_edge_list, text)
    want, want_error = _outcome(bf.parse_edge_lines_reference, lines)
    if lines and not _decimal_header(lines[0]):  # the reference reads what `int` reads
        assert error == f"GraphInputError: header must be 'n m', got {lines[0]!r}"
    else:
        assert error == want_error
    if got is not None:
        (g, labels), (g0, labels0) = got, want
        assert (g.n, g.edges()) == (g0.n, g0.edges())
        if labels != labels0:  # only a padding label may move off an input label
            assert len(set(labels0)) < len(labels0) == len(set(labels))
            k = len({t for line in lines[1:] for t in line.split()})
            assert labels[:k] == labels0[:k]
            assert [x.lstrip("_") for x in labels[k:]] == [x.lstrip("_") for x in labels0[k:]]
    if lines:
        got, error = _outcome(from_graph6, lines[0])
        want, want_error = _outcome(bf.from_graph6_reference, lines[0])
        assert error == want_error
        if got is not None:
            assert (got.n, got.edges()) == (want.n, want.edges())
            assert to_graph6(got) == bf.to_graph6_reference(got)


SCALE_GRAPHS = {
    "split": lambda n: randgen.gen_split(n, 0.5, 1),
    "threshold": lambda n: randgen.gen_threshold(n, 1)[0],
    "chordal": lambda n: randgen.gen_chordal(n, 1),
    "block": lambda n: randgen.gen_block(n, 1),
    "tree": lambda n: randgen.gen_tree(n, 1),
    "bipartite": lambda n: randgen.gen_bipartite(n, 0.4, 1)[0],
    "interval": lambda n: model_to_graph(randgen.gen_interval_model(n, 1)),
}

# each fault, made on the last edge line, and the start of the message it draws
FAULTS = {
    "self-loop": (lambda a, b, first: f"{a} {a}", "self-loop "),
    "repeated edge": (lambda a, b, first: first, "repeated edge "),
    "three tokens": (lambda a, b, first: f"{a} {b} {b}", "edge line must be 'u v'"),
    # no vertex of these graphs is isolated, so two new names make n + 1 or more
    "labels past n": (lambda a, b, first: "x/ y/", "labels but n = "),
}


@pytest.mark.parametrize("n", [128, 512])
@pytest.mark.parametrize("name", SCALE_GRAPHS)
def test_edge_list_reader_matches_reference_at_scale(name, n):
    """Ids, `v{i}` labels and a commented header: the same graph and labels
    as the reference.  Ids and labels, each with each fault on the last line:
    the same message (the commented form has the ids form's data lines)."""
    g = SCALE_GRAPHS[name](n)
    ids, names = [str(i) for i in range(n)], [f"v{i}" for i in range(n)]
    forms = [(ids, write_edge_list(g)), (names, write_edge_list(g, names))]
    commented = write_edge_list(g, comments=("source", "more"))
    assert data_lines(commented) == data_lines(forms[0][1])
    for labels, text in forms:
        got = _outcome(parse_edge_list, text)
        assert got == _outcome(bf.parse_edge_lines_reference, data_lines(text))
        assert _labelled_edges(*got[0]) == _labelled_edges(g, labels)
        lines = text.splitlines()
        a, b = lines[-1].split()
        for fault, (make, message) in FAULTS.items():
            faulty = "\n".join(lines[:-1] + [make(a, b, lines[1])]) + "\n"
            got = _outcome(parse_edge_list, faulty)
            assert got == _outcome(bf.parse_edge_lines_reference, data_lines(faulty)), fault
            assert message in got[1], (fault, got[1])


@pytest.mark.parametrize("seed", range(3))
def test_edge_list_reader_peaks_below_the_reference(seed):
    """Parsing builds no edge or pair list beside the adjacency sets, so its
    peak traced memory stays at most 0.7 of the reference's."""
    text = write_edge_list(randgen.gen_chordal(128, seed))

    def peak(parse) -> int:
        tracemalloc.start()
        try:
            parse(text)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    ours = peak(parse_edge_list)
    reference = peak(lambda t: bf.parse_edge_lines_reference(data_lines(t)))
    assert ours <= 0.7 * reference, (ours, reference)


def _refused_endpoint(line: str) -> bool:
    toks = line.split()
    return len(toks) == 3 and any(c in (toks[1] + toks[2]).lower() for c in "e_")


def _check_model_reader(text: str) -> bool:
    """The model reader agrees with the reference, except that it refuses an
    endpoint with an exponent or an underscore; True when the reference read
    such a model."""
    got, error = _outcome(parse_interval_model, text)
    want, want_error = _outcome(bf.parse_interval_model_reference, text)
    if not any(map(_refused_endpoint, data_lines(text))):
        assert (got, error) == (want, want_error)
        return False
    assert got is None
    assert error == want_error or error.startswith("GraphInputError: bad endpoint in ")
    return want_error is None


def _read_back(written: str, why) -> None:
    """`written` reads back to the labelled edges its lines name."""
    read, error = _outcome(sniff_and_parse, written)
    assert error is None, f"{why}: the file written reads back as {error}"
    assert _labelled_edges(*read) == _written_edges(written), why


def _written_edges(text: str) -> set:
    """The labelled edges of a file `write_edge_list` made, read without graphio:
    comment lines come first, then the header, then one "u v" per edge."""
    rows = text.split("\n")[:-1]
    while rows[0].startswith("# "):
        rows.pop(0)
    return {frozenset(row.split(" ")) for row in rows[1:]}


def _run(argv, case):
    """Run `main` in-process; any escaping exception fails, naming the case."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except (Exception, SystemExit) as exc:  # argparse exits by SystemExit
        pytest.fail(f"{case}: {argv} raised {exc!r}")
    assert code in (0, 1, 2), f"{case}: {argv} exited {code}: {err.getvalue()}"
    return code


def _commands(kind, path, pattern, out):
    if kind == "model":
        return [["solve", "--problem", p, "--model", path] for p in _MODEL_SOLVERS]
    cmds = [["recognize", "--class", c, path] for c in ("chordal", "split", "interval",
                                                          "unit-interval", "threshold", "block")]
    cmds += [["solve", "--problem", p, path] for p in _GRAPH_SOLVERS]
    cmds += [
        ["solve", "--problem", "chordal-to-kp", "--p", "2", "--verify", path],
        ["oracle", "--class", "cluster", "--kmax", "2", path],
        ["recognize", "--class", f"f-free:{pattern}", path],
        ["recognize", "--class", f"f-free:{path}", pattern],
        ["reduce", "--from", "chain", "--to", "threshold", "--output", out, path],
        ["reduce", "--from", "threshold", "--to", "interval", "--output", out, path],
        ["reduce", "--from", "vc", "--to", "f-free", "--pattern", pattern, "--output", out, path],
        ["reduce", "--from", "vc", "--to", "f-free", "--pattern", path, "--output", out, pattern],
    ]
    return cmds


def test_fuzzed_files_through_every_subcommand(tmp_path):
    pattern = tmp_path / "pattern.el"
    pattern.write_text("3 2\n0 1\n1 2\n")
    path, out = tmp_path / "case", tmp_path / "image.el"
    ran, exponents = set(), 0
    for case in range(CASES):
        seed = SEED + case
        rng = random.Random(seed)
        kind, base = BASES[rng.randrange(len(BASES))]
        data = mutate(base, rng)
        path.write_bytes(data)
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError:
            text = None
        refused = False  # a model the reference reads, refused for an exponent
        if text is not None:
            try:
                _check_graph_reader(text)
                refused = _check_model_reader(text)
            except AssertionError as exc:
                pytest.fail(f"seed {seed}: readers differ on {text!r}: {exc}")
        cmds = _commands(kind, str(path), str(pattern), str(out))
        argv = cmds[rng.randrange(len(cmds))]
        fmt = ("text", "records")[case % 2]
        if out.exists():
            out.unlink()
        code = _run(["--format", fmt] + argv, f"seed {seed}")
        ran.add((argv[0], fmt))
        if refused and kind == "model":
            exponents += 1
            assert code == 2, f"seed {seed}: {argv} read an exponent endpoint"
        if argv[0] == "reduce" and code == 0:
            _read_back(out.read_text(encoding="utf-8"), f"seed {seed}: {argv}")
        else:
            assert not out.exists(), f"seed {seed}: {argv} exited {code} but wrote a file"
    assert ran == {(c, f) for c in ("recognize", "solve", "oracle", "reduce")
                   for f in ("text", "records")}
    assert exponents > 0


@pytest.mark.parametrize("fmt", ["text", "records"])
def test_generate_output_reads_back(tmp_path, fmt):
    out = tmp_path / "gen"
    for klass in ("split", "threshold", "chordal", "block", "tree", "bipartite"):
        for n in (0, 1, 9):
            assert _run(["--format", fmt, "generate", "--class", klass, "--n", str(n),
                         "--seed", "3", "--output", str(out)], klass) == 0
            _read_back(out.read_text(encoding="utf-8"), f"generate {klass} {n}")
    assert _run(["--format", fmt, "generate", "--class", "interval-model", "--n", "9",
                 "--seed", "3", "--output", str(out)], "interval-model") == 0
    m, labels = parse_interval_model(out.read_text(encoding="utf-8"))
    want = model_to_graph(randgen.gen_interval_model(9, 3))
    ids = [str(i) for i in range(9)]
    assert _labelled_edges(model_to_graph(m), labels) == _labelled_edges(want, ids)


@pytest.mark.parametrize("fmt", ["text", "records"])
def test_selftest_in_process(fmt):
    assert _run(["--format", fmt, "selftest", "--seeds", "1"], "selftest") == 0
