"""Every base class's verdict on a fixed corpus, pinned to a golden file.

The golden file holds each graph (n and edges) with its verdicts, so the
test does not depend on the generators that drew the corpus.  To rewrite
it at a commit whose output is trusted:

    PYTHONPATH=src python tests/test_recognize_golden.py
"""

import json
from itertools import combinations
from pathlib import Path

import pytest

import named_graphs as ng
from bruteforce import random_graph
from chordel import Graph, recognize
from chordel import patterns as pat
from chordel import randgen
from chordel.interval import model_to_graph
from chordel.recognition import _OBSTRUCTIONS, BASE_LABELS

GOLDEN = Path(__file__).parent / "golden" / "recognize_verdicts.json"


def corpus():
    """(case id, graph): all labelled graphs on at most 4 vertices, the named
    patterns, and seeded generator and random graphs on 7-9 vertices."""
    out = []
    for n in range(5):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [e for i, e in enumerate(pairs) if mask >> i & 1]
            out.append((f"n{n}-mask{mask}", Graph.from_edges(n, edges)))
    out += [
        ("c5", pat.cycle_graph(5)),
        ("c6", pat.cycle_graph(6)),
        ("p5", pat.path_graph(5)),
        ("k5", pat.complete_graph(5)),
        ("i5", pat.empty_graph(5)),
        ("star4", ng.star_graph(4)),
        ("complete-split-2-3", pat.complete_split_pattern(2, 3)),
        ("two-k2", pat.two_k2()),
        ("co-p3", pat.co_p3()),
        ("claw", pat.claw()),
        ("diamond", pat.diamond()),
        ("net", ng.net()),
        ("tent", ng.tent()),
        ("rising-sun", ng.rising_sun()),
        ("bull", ng.bull()),
        ("gem", ng.gem()),
        ("double-star-2-1", ng.double_star(2, 1)),
        ("fitted-split-uig", ng.fitted_split_uig()),
        ("split-8", randgen.gen_split(8, 0.5, 1)),
        ("threshold-8", randgen.gen_threshold(8, 2)[0]),
        ("interval-9", model_to_graph(randgen.gen_interval_model(9, 3))),
        ("chordal-9", randgen.gen_chordal(9, 4)),
        ("block-9", randgen.gen_block(9, 5)),
        ("tree-9", randgen.gen_tree(9, 6)),
        ("bipartite-8", randgen.gen_bipartite(8, 0.5, 7)[0]),
    ]
    out += [(f"random-{n}-{seed}", random_graph(n, 0.5, seed))
            for n in (7, 8, 9) for seed in range(3)]
    return out


def verdicts(g):
    """{class: {member, witness, witness_name}} over every base class."""
    out = {}
    for name, label in BASE_LABELS.items():
        v = recognize(g, label)
        out[name] = {
            "member": v.member,
            "witness": None if v.witness is None else list(v.witness),
            "witness_name": v.witness_name,
        }
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_recognize_matches_golden(golden):
    for case, want in golden.items():
        g = Graph.from_edges(want["n"], [tuple(e) for e in want["edges"]])
        assert verdicts(g) == want["verdicts"], case


def test_golden_corpus_shows_every_witness_name(golden):
    seen = {name: set() for name in BASE_LABELS}
    for case in golden.values():
        for name, v in case["verdicts"].items():
            if not v["member"]:
                seen[name].add(v["witness_name"])
    assert seen == {name: set(names) for name, names in _OBSTRUCTIONS.items()}


if __name__ == "__main__":
    rows = [
        f"{json.dumps(cid)}: "
        + json.dumps({"n": g.n, "edges": g.edges(), "verdicts": verdicts(g)}, sort_keys=True)
        for cid, g in corpus()
    ]
    GOLDEN.write_text("{\n" + ",\n".join(rows) + "\n}\n")
