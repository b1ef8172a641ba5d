import io
import json
import os
import re
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from pathlib import Path

import pytest

import pins
from chordel import parse_edge_list, recognize, CHORDAL, SPLIT, THRESHOLD
from chordel.cli import _GRAPH_SOLVERS, _MODEL_SOLVERS, main
from chordel import graph
from chordel.graph import MAX_VERTICES


DSTAR = "5 4\nu1 u2\nu1 v1\nu1 v2\nu2 v3\n"
P3 = "3 2\n0 1\n1 2\n"
C5 = "5 5\n0 1\n1 2\n2 3\n3 4\n4 0\n"
TENT = "6 9\n0 1\n0 2\n1 2\n0 3\n1 3\n1 4\n2 4\n0 5\n2 5\n"


@pytest.fixture
def files(tmp_path):
    out = {}
    for name, text in (("dstar", DSTAR), ("p3", P3), ("c5", C5), ("tent", TENT)):
        p = tmp_path / f"{name}.el"
        p.write_text(text)
        out[name] = str(p)
    out["dir"] = tmp_path
    return out


def run_records(capsys, argv):
    code = main(["--format", "records"] + argv)
    out = capsys.readouterr().out.strip()
    return code, [json.loads(line) for line in out.splitlines() if line]


def test_recognize_split_prints_partition(files, capsys):
    code, recs = run_records(capsys, ["recognize", "--class", "split", files["dstar"]])
    assert code == 0
    (rec,) = recs
    assert rec["member"] is True
    assert rec["clique"] == ["u1", "u2"]
    assert rec["independent"] == ["v1", "v2", "v3"]


def test_recognize_split_computes_the_partition_once(files, capsys, monkeypatch):
    from chordel import cli, recognition

    calls = []
    for module in (recognition, cli):
        def counted(g, _real=module.split_partition):
            calls.append(g.n)
            return _real(g)

        monkeypatch.setattr(module, "split_partition", counted)
    code, recs = run_records(capsys, ["recognize", "--class", "split", files["dstar"]])
    assert code == 0 and recs[0]["clique"] == ["u1", "u2"]
    assert calls == [5]


def test_recognize_reports_witness(files, capsys):
    code, recs = run_records(capsys, ["recognize", "--class", "split", files["c5"]])
    assert code == 0
    (rec,) = recs
    assert rec["member"] is False
    assert rec["witness_name"] == "c5"
    assert len(rec["witness"]) == 5


def test_solve_double_star(files, capsys):
    code, recs = run_records(
        capsys,
        ["solve", "--problem", "split-to-complete-split", "--verify", files["dstar"]],
    )
    assert code == 0
    (rec,) = recs
    assert rec["k"] == 1 and rec["deleted"] == ["v3"]
    assert rec["verified"] is True


def test_verify_accepts_k0_on_a_member(tmp_path, capsys):
    path = tmp_path / "cluster.el"
    path.write_text("3 1\n0 1\n")
    code, (rec,) = run_records(
        capsys, ["solve", "--problem", "split-to-cluster", "--verify", str(path)]
    )
    assert code == 0 and rec["k"] == 0 and rec["verified"] is True


def test_verify_refuses_a_feasible_set_one_above_the_optimum(files, capsys, monkeypatch):
    """The stand-in deletes an optimal set plus one vertex: the recognizer
    accepts what is left, and the oracle finds a smaller set."""
    from chordel import CLUSTER, split_solvers
    from chordel.graph import vset

    def one_too_many(g):
        got = split_solvers.delete_to_cluster_split(g)
        extra = min(set(range(g.n)) - set(got.deleted))
        return split_solvers._verified(g, vset((*got.deleted, extra)), CLUSTER, "split-to-cluster")

    monkeypatch.setitem(_GRAPH_SOLVERS, "split-to-cluster", one_too_many)
    code, (rec,) = run_records(
        capsys, ["solve", "--problem", "split-to-cluster", "--verify", files["dstar"]]
    )
    assert code == 0 and rec["k"] == 2 and rec["verified"] is False


def test_solve_precondition_failure_exits_1(files, capsys):
    code, recs = run_records(
        capsys, ["solve", "--problem", "split-to-cluster", files["c5"]]
    )
    assert code == 1
    (rec,) = recs
    assert rec["witness_name"] == "c5"


def test_oracle_p3(files, capsys):
    code, recs = run_records(capsys, ["oracle", "--class", "cluster", files["p3"]])
    assert code == 0
    assert recs[0]["k"] == 1


def test_oracle_kmax_report(files, capsys):
    code, recs = run_records(
        capsys, ["oracle", "--class", "cluster", "--kmax", "0", files["p3"]]
    )
    assert code == 0
    assert recs[0]["exceeds_kmax"] is True


def test_oracle_negative_kmax_exits_2(files, capsys):
    assert main(["oracle", "--class", "cluster", "--kmax", "-3", files["p3"]]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ")


def test_oracle_ffree_label(files, capsys):
    code, recs = run_records(
        capsys,
        ["oracle", "--class", f"f-free:{files['tent']}", files["p3"]],
    )
    assert code == 0
    assert recs[0]["k"] == 0


def test_malformed_input_exits_2(files, capsys, tmp_path):
    bad = tmp_path / "bad.el"
    bad.write_text("not a graph\n")
    assert main(["recognize", "--class", "split", str(bad)]) == 2


def test_unknown_class_exits_2(files):
    assert main(["recognize", "--class", "wavy", files["p3"]]) == 2


@pytest.mark.parametrize("command", ["recognize", "oracle"])
def test_empty_ffree_pattern_exits_2_before_reading_input(command, tmp_path, capsys):
    empty = tmp_path / "empty.el"
    empty.write_text("0 0\n")  # no graph is free of the empty graph
    assert main([command, "--class", f"f-free:{empty}", str(tmp_path / "missing.el")]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: f-free needs a pattern with at least one vertex\n"


@pytest.mark.parametrize("command, source", [
    ("recognize", "missing.el"),
    ("oracle", "path20.el"),  # above the oracle's cap, whose record used to win
])
def test_large_ffree_pattern_exits_2_before_reading_input(command, source, tmp_path, capsys):
    nine = tmp_path / "nine.el"
    nine.write_text("9 8\n" + "".join(f"{i} {i + 1}\n" for i in range(8)))
    (tmp_path / "path20.el").write_text("20 19\n" + "".join(f"{i} {i + 1}\n" for i in range(19)))
    assert main([command, "--class", f"f-free:{nine}", str(tmp_path / source)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: pattern has 9 > 8 vertices\n"


@pytest.mark.parametrize("klass", ["kp:abc", "kp:", "kp:2.5"])
@pytest.mark.parametrize("command", ["recognize", "oracle"])
def test_kp_label_without_an_integer_exits_2(command, klass, files, capsys):
    assert main([command, "--class", klass, files["p3"]]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: class label {klass!r}: p in kp:<p> must be an integer\n"


def test_generate_then_recognize(files, capsys, tmp_path):
    out = tmp_path / "gen.el"
    code = main(
        ["generate", "--class", "threshold", "--n", "7", "--seed", "5",
         "--output", str(out)]
    )
    assert code == 0
    g, _ = parse_edge_list(out.read_text())
    assert recognize(g, THRESHOLD).member


def test_generate_stdout(capsys):
    code = main(["generate", "--class", "tree", "--n", "6", "--seed", "1"])
    assert code == 0
    text = capsys.readouterr().out
    g, _ = parse_edge_list(text)
    assert g.n == 6 and g.m == 5


def test_generate_interval_model(capsys):
    code = main(["generate", "--class", "interval-model", "--n", "5", "--seed", "2"])
    assert code == 0
    from chordel import parse_interval_model

    model, _ = parse_interval_model(capsys.readouterr().out)
    assert model.n == 5


GENERATOR_CLASSES = ["split", "threshold", "chordal", "block", "tree", "bipartite",
                     "interval-model"]
PROBABILITY_FLAGS = {"--edge-bias": "split", "--p-edge": "bipartite"}


@pytest.mark.parametrize("klass", GENERATOR_CLASSES)
def test_generate_negative_n_exits_2(klass, capsys):
    assert main(["generate", "--class", klass, "--n", "-1", "--seed", "1"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: --n must be at least 0, got -1\n"


@pytest.mark.parametrize("value", ["-0.1", "1.5", "nan"])
@pytest.mark.parametrize("flag,klass", [("--edge-bias", "split"), ("--p-edge", "bipartite")])
def test_generate_probability_outside_0_1_exits_2(flag, klass, value, capsys, tmp_path):
    out = tmp_path / "never.el"
    argv = ["generate", "--class", klass, "--n", "6", flag, value, "--output", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == f"error: {flag} must be in [0, 1], got {float(value)}\n"


@pytest.mark.parametrize("flag,klass", [
    (flag, klass) for flag, owner in PROBABILITY_FLAGS.items()
    for klass in GENERATOR_CLASSES if klass != owner
])
def test_generate_flag_of_another_class_exits_2(flag, klass, capsys, tmp_path):
    out = tmp_path / "never.el"
    argv = ["generate", "--class", klass, "--n", "4", flag, "0.3", "--output", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == f"error: {flag} is only for --class {PROBABILITY_FLAGS[flag]}\n"


@pytest.mark.parametrize("flags", [["--n", "4", "--edge-bias", "0.3"], ["--n", "-1"]])
def test_generate_names_an_unknown_class_before_a_flag(flags, capsys, tmp_path):
    out = tmp_path / "never.el"
    argv = ["generate", "--class", "nosuch", *flags, "--output", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == "error: unknown generator class 'nosuch'\n"


@pytest.mark.parametrize("flag", PROBABILITY_FLAGS)
def test_generate_default_probability_is_one_half(flag, capsys):
    """An omitted --edge-bias or --p-edge draws as the flag at 0.5 does."""
    base = ["generate", "--class", PROBABILITY_FLAGS[flag], "--n", "12", "--seed", "3"]
    assert main(base) == 0
    omitted = capsys.readouterr().out
    assert main([*base, flag, "0.5"]) == 0
    assert capsys.readouterr().out == omitted


def test_generate_threshold_writes_its_creation_sequence(capsys):
    """For u < v, the written graph has edge uv exactly when the `# creation`
    line names v dominating."""
    for n in range(13):
        for seed in range(5):
            argv = ["generate", "--class", "threshold", "--n", str(n), "--seed", str(seed)]
            assert main(argv) == 0
            text = capsys.readouterr().out
            (line,) = [x for x in text.splitlines() if x.startswith("# creation")]
            roles = line.split()[2:]
            assert len(roles) == n and set(roles) <= {"isolated", "dominating"}
            g, _ = parse_edge_list(text)
            for u in range(n):
                for v in range(u + 1, n):
                    assert g.has_edge(u, v) == (roles[v] == "dominating")


def cap_error(n: int) -> str:
    return f"error: n = {n} is above the vertex cap {MAX_VERTICES}\n"


@pytest.mark.parametrize("text, n", [
    ("100000000000 0\n", 100000000000),
    ("~~A?????\n", 1 << 31),  # graph6 size bytes only: the body is never read
], ids=["edge-list", "graph6"])
def test_input_above_vertex_cap_exits_2(text, n, capsys, tmp_path):
    huge = tmp_path / "huge.txt"
    huge.write_text(text)
    assert main(["recognize", "--class", "chordal", str(huge)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == cap_error(n)


@pytest.mark.parametrize("klass", ["split", "interval-model"])
def test_generate_above_vertex_cap_exits_2(klass, capsys):
    assert main(["generate", "--class", klass, "--n", "100000000000"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == cap_error(100000000000)


def test_reduce_vc_to_ffree_roundtrip(files, capsys, tmp_path):
    c4 = tmp_path / "c4.el"
    c4.write_text("4 4\n0 1\n1 2\n2 3\n3 0\n")
    out = tmp_path / "image.el"
    code = main(
        ["reduce", "--from", "vc", "--to", "f-free", "--pattern", files["tent"],
         "--anchor", "0,1", "--output", str(out), str(c4)]
    )
    assert code == 0
    g, _ = parse_edge_list(out.read_text())
    assert g.n == 20
    assert recognize(g, CHORDAL).member
    assert "reduction vc -> f-free" in out.read_text()


def test_reduce_vc_image_above_the_vertex_cap_exits_2(capsys, tmp_path, monkeypatch):
    # 8 + 7 * (5 - 2) = 29 vertices: an image the reader would refuse is not written
    monkeypatch.setattr(graph, "MAX_VERTICES", 20)
    fan = tmp_path / "fan.el"
    fan.write_text("5 7\n0 1\n0 2\n0 3\n0 4\n1 2\n2 3\n3 4\n")
    path = tmp_path / "path8.el"
    path.write_text("8 7\n" + "".join(f"{i} {i + 1}\n" for i in range(7)))
    image = tmp_path / "image.el"
    argv = ["reduce", "--from", "vc", "--to", "f-free", "--pattern", str(fan),
            "--output", str(image), str(path)]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: n = 29 is above the vertex cap 20\n"
    assert not image.exists()


def test_reduce_input_path_with_a_newline_exits_2(capsys, tmp_path):
    # the path goes into a "# source" comment, which would end up as two lines
    src = tmp_path / "two\nlines.el"
    src.write_text(P3)
    image = tmp_path / "image.el"
    argv = ["reduce", "--from", "chain", "--to", "threshold", "--output", str(image), str(src)]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and "cannot be written: it is not one line" in out.err
    assert not image.exists()


@pytest.mark.parametrize("anchor", ["9,0", "-1,0"])
def test_reduce_vc_anchor_outside_the_pattern_exits_2(anchor, tmp_path, capsys):
    diamond = tmp_path / "diamond.el"
    diamond.write_text("4 5\n0 1\n0 2\n0 3\n1 2\n2 3\n")
    k2 = tmp_path / "k2.el"
    k2.write_text("2 1\n0 1\n")
    argv = ["reduce", "--from", "vc", "--to", "f-free", "--pattern", str(diamond)]
    assert main(argv + [f"--anchor={anchor}", str(k2)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: anchor")


@pytest.mark.parametrize("anchor", ["", "9", "a,b", "1,2,3"])
def test_reduce_vc_malformed_anchor_exits_2(anchor, tmp_path, capsys):
    """Refused before either file is read: the second pair does not exist."""
    diamond = tmp_path / "diamond.el"
    diamond.write_text("4 5\n0 1\n0 2\n0 3\n1 2\n2 3\n")
    k2 = tmp_path / "k2.el"
    k2.write_text("2 1\n0 1\n")
    for pattern, path in ((diamond, k2), (tmp_path / "none.el", tmp_path / "none.el")):
        argv = ["reduce", "--from", "vc", "--to", "f-free", "--pattern", str(pattern)]
        assert main(argv + [f"--anchor={anchor}", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: --anchor must be two vertex ids 'a,b', got '{anchor}'\n"


@pytest.mark.parametrize("flag", ["--pattern", "--anchor"])
@pytest.mark.parametrize("pair", [("chain", "threshold"), ("threshold", "interval")])
def test_reduce_pattern_and_anchor_only_for_vc_to_ffree(flag, pair, capsys, tmp_path):
    """The flag is refused before the input is read: here it does not exist."""
    argv = ["reduce", "--from", pair[0], "--to", pair[1], flag, "0,1", str(tmp_path / "none.el")]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: {flag} is only for --from vc --to f-free\n"


def test_reduce_names_an_unknown_pair_before_a_flag_or_the_input(capsys, tmp_path):
    """Neither the pattern nor the input exists; the pair is refused first."""
    argv = ["reduce", "--from", "x", "--to", "y", "--pattern", str(tmp_path / "p.el"),
            str(tmp_path / "g.el")]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: unknown reduction 'x' -> 'y'\n"


def test_reduce_chain_to_threshold(capsys, tmp_path):
    b = tmp_path / "b.el"
    b.write_text("4 2\n0 1\n2 3\n")
    code = main(["reduce", "--from", "chain", "--to", "threshold", str(b)])
    assert code == 0
    g, _ = parse_edge_list(capsys.readouterr().out)
    assert recognize(g, SPLIT).member


def test_reduce_takes_one_input_file(capsys, tmp_path):
    """A second file is refused by the parser instead of being ignored."""
    a, b = tmp_path / "a.el", tmp_path / "b.el"
    a.write_text("4 2\n0 1\n2 3\n")
    b.write_text("2 1\n0 1\n")
    with pytest.raises(SystemExit) as exc:
        main(["reduce", "--from", "chain", "--to", "threshold", str(a), str(b)])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "unrecognized arguments" in out.err


def test_solve_interval_problem_with_model(capsys, tmp_path):
    mfile = tmp_path / "claw.iv"
    mfile.write_text("c 0 10\na 1 2\nb 4 5\nd 7 8\n")
    code, recs = run_records(
        capsys,
        ["solve", "--problem", "interval-to-cluster", "--model", str(mfile)],
    )
    assert code == 0
    assert recs[0]["k"] == 1 and recs[0]["deleted"] == ["c"]


@pytest.mark.parametrize("end", ["1_0", "1_000/3", "1/3_0", "2.5_0"])
def test_underscore_endpoint_exits_2(end, capsys, tmp_path):
    """The model grammar has no underscores, though `Fraction` reads 1_0 as 10."""
    mfile = tmp_path / "us.iv"
    mfile.write_text(f"a 0 {end}\nb 1 2\n")
    assert main(["solve", "--problem", "interval-to-cluster", "--model", str(mfile)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: bad endpoint in 'a 0 {end}'\n"


@pytest.mark.parametrize("end", ["1e400", "2E-3", "1e99999999"])
def test_exponent_endpoint_exits_2(end, capsys, tmp_path):
    """An exponent is refused where the token is read: 1e99999999 would
    otherwise build a 100-million-digit integer."""
    mfile = tmp_path / "exp.iv"
    mfile.write_text(f"a 0 {end}\nb 1 2\n")
    start = time.perf_counter()
    assert main(["solve", "--problem", "interval-to-cluster", "--model", str(mfile)]) == 2
    assert time.perf_counter() - start < 1
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: bad endpoint in 'a 0 {end}'\n"


def test_chordal_to_kp_p2(files, capsys):
    code, recs = run_records(
        capsys, ["solve", "--problem", "chordal-to-kp", "--p", "2", files["p3"]]
    )
    assert code == 0
    assert recs[0]["k"] == 1


def test_chordal_to_kp_fallback_warns(files, capsys):
    code = main(["solve", "--problem", "chordal-to-kp", "--p", "3", files["p3"]])
    err = capsys.readouterr().err
    assert code == 0
    assert "fallback" in err


def test_selftest_small(capsys):
    assert main(["selftest", "--seeds", "4"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out.replace("PASS", "")


def test_selftest_checks_feasibility_not_only_size(capsys, monkeypatch):
    """A stand-in returning an optimal-size but shifted, so infeasible, set
    fails the solver-vs-oracle suite."""
    from chordel.graph import DeletionResult, vset
    from chordel.split_solvers import delete_to_cluster_split

    def shifted(g):
        got = delete_to_cluster_split(g)
        moved = vset((v + 1) % g.n for v in got.deleted)
        return DeletionResult(moved, got.target_class, got.method)

    monkeypatch.setitem(_GRAPH_SOLVERS, "split-to-cluster", shifted)
    assert main(["selftest", "--seeds", "4"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  solver-vs-oracle           56/60 checks" in out
    assert out.endswith("selftest: FAIL (4 checks)\n")


@pytest.mark.parametrize("seeds", ["0", "-1"])
def test_selftest_needs_a_seed(seeds, capsys):
    assert main(["selftest", "--seeds", seeds]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: --seeds must be at least 1")


@pytest.mark.parametrize("text, name, witness", [
    ("4 4\na b\nb c\nc d\nd a\n", "hole", ["a", "b", "c", "d"]),
    ("4 4\nx y\ny z\nx z\nz w\n", "k3", ["x", "y", "z"]),
])
def test_tree_to_cluster_names_the_cycle(text, name, witness, tmp_path, capsys):
    path = tmp_path / "cyclic.el"
    path.write_text(text)
    code, recs = run_records(capsys, ["solve", "--problem", "tree-to-cluster", str(path)])
    assert code == 1
    (rec,) = recs
    assert rec["witness_name"] == name and sorted(rec["witness"]) == witness


def test_multi_graph_graph6_file_rejected(tmp_path, capsys):
    multi = tmp_path / "two.g6"
    multi.write_text("Bw\nCF\n")
    assert main(["recognize", "--class", "split", str(multi)]) == 2
    assert "holds 2 graphs" in capsys.readouterr().err


@pytest.mark.parametrize("argv, text", [
    (["recognize", "--class", "interval"], "3 2\n0 1\n1 2\n"),
    # a star whose centre `a`, the first label, is the one vertex deleted
    (["solve", "--problem", "interval-to-cluster", "--model"], "a 0 10\nb 1 2\nc 3 4\nd 5 6\n"),
])
def test_a_byte_order_mark_is_skipped(argv, text, tmp_path, capsys):
    # the mark hid an edge list's header from the sniffer, and stuck to a model's first label
    records = []
    for name, mark in (("plain", ""), ("marked", "\ufeff")):
        path = tmp_path / name
        path.write_text(mark + text, encoding="utf-8")
        code, recs = run_records(capsys, [*argv, str(path)])
        assert code == 0
        records += [{k: v for k, v in rec.items() if k not in ("input", "elapsed_ms")} for rec in recs]
    assert len(records) == 2 and records[0] == records[1]


@pytest.mark.parametrize("edges,named", [
    ("0 1\n1 0\n", "'1' '0'"),
    ("0 1\n0 1\n", "'0' '1'"),
    ("a b\nb a\n", "'b' 'a'"),
], ids=["reversed", "same-order", "labels"])
def test_repeated_edge_rejected(tmp_path, capsys, edges, named):
    twice = tmp_path / "twice.el"
    twice.write_text("3 2\n" + edges)
    assert main(["recognize", "--class", "split", str(twice)]) == 2
    assert f"repeated edge {named}" in capsys.readouterr().err


def test_padded_ids_are_labels(tmp_path, capsys):
    # "01" is not the id 1, so the file names vertices by label
    padded = tmp_path / "padded.el"
    padded.write_text("3 2\n01 1\n1 2\n")
    code, recs = run_records(capsys, ["recognize", "--class", "split", str(padded)])
    assert code == 0
    assert recs[0]["m"] == 2


def test_padding_labels_never_repeat_an_input_label(tmp_path, capsys):
    assert parse_edge_list("3 1\n_v2 a\n")[1] == ["_v2", "a", "__v2"]
    named = tmp_path / "named.el"
    named.write_text("3 1\n_v2 a\n")
    code, recs = run_records(capsys, ["recognize", "--class", "split", str(named)])
    assert code == 0
    assert sorted(recs[0]["clique"] + recs[0]["independent"]) == ["__v2", "_v2", "a"]


def test_reduce_image_reads_back_when_an_input_label_looks_like_padding(tmp_path, capsys):
    source, image = tmp_path / "t.el", tmp_path / "image.el"
    source.write_text("3 2\nx _g3\nx y\n")
    argv = ["reduce", "--from", "threshold", "--to", "interval", "--output", str(image)]
    assert main(argv + [str(source)]) == 0
    text = image.read_text()
    assert "_g3 _g3" not in text
    g, labels = parse_edge_list(text)
    written = {frozenset(line.split()) for line in text.splitlines()[3:]}
    assert {frozenset((labels[u], labels[v])) for u, v in g.edges()} == written
    assert len(written) == g.m == 11
    assert main(["recognize", "--class", "interval", str(image)]) == 0


def test_reduce_refuses_a_label_that_would_not_read_back(tmp_path, capsys):
    source, image = tmp_path / "chain.el", tmp_path / "image.el"
    source.write_text("3 2\na #b\na c\n")
    argv = ["reduce", "--from", "chain", "--to", "threshold", "--output", str(image)]
    assert main(argv + [str(source)]) == 2
    assert "'#b'" in capsys.readouterr().err
    assert not image.exists()


def test_precondition_witness_uses_input_labels(tmp_path, capsys):
    c5 = tmp_path / "c5.el"
    c5.write_text("5 5\na b\nb c\nc d\nd e\ne a\n")
    code, recs = run_records(
        capsys, ["solve", "--problem", "chordal-to-co-chain", str(c5)]
    )
    assert code == 1
    (rec,) = recs
    assert rec["witness_name"] == "hole"
    assert rec["witness"] == ["a", "b", "c", "d", "e"]
    assert "'a'" in rec["error"]


def test_graph_problem_rejects_model_input(capsys, tmp_path):
    mfile = tmp_path / "claw.iv"
    mfile.write_text("c 0 10\na 1 2\nb 4 5\nd 7 8\n")
    code = main(["solve", "--problem", "split-to-cluster", "--model", str(mfile)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "--model is only for interval-to-cluster and" in captured.err


def test_model_problem_rejects_graph_files(files, capsys, tmp_path):
    mfile = tmp_path / "claw.iv"
    mfile.write_text("c 0 10\na 1 2\nb 4 5\nd 7 8\n")
    code = main(
        ["solve", "--problem", "interval-to-cluster", "--model", str(mfile), files["p3"]]
    )
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "interval-to-cluster takes --model, not graph files" in captured.err


@pytest.mark.parametrize(
    "problem", ["split-to-cluster", "block-to-cluster", "chordal-to-split"]
)
def test_p_is_only_for_chordal_to_kp(problem, files, capsys):
    missing = str(files["dir"] / "missing.el")  # refused before any file is read
    for path in (files["p3"], missing):
        assert main(["solve", "--problem", problem, "--p", "7", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --p is only for chordal-to-kp\n"


@pytest.mark.parametrize("argv, error", [
    (["solve", "--problem", "nosuch"], "unknown problem 'nosuch'"),
    (["solve", "--problem", "chordal-to-kp"], "chordal-to-kp needs --p"),
    (["solve", "--problem", "chordal-to-kp", "--p", "1"], "kp-free needs p >= 2"),
    (["solve", "--problem", "interval-to-cluster"], "interval-to-cluster needs --model"),
    (["reduce", "--from", "vc", "--to", "f-free"], "vc -> f-free needs --pattern"),
])
def test_argument_errors_are_refused_before_any_file_is_read(argv, error, files, capsys):
    for path in (files["p3"], str(files["dir"] / "missing.el")):
        assert main(argv + [path]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {error}\n"


@pytest.mark.parametrize("command", ["recognize", "oracle"])
def test_kp_label_below_2_exits_2(command, files, capsys):
    assert main([command, "--class", "kp:1", files["p3"]]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: kp-free needs p >= 2\n"


@pytest.mark.parametrize("argv", [
    ["recognize", "--class", "split"],
    ["oracle", "--class", "split"],
    ["solve", "--problem", "split-to-cluster"],
])
def test_no_input_files_exits_2(argv, capsys):
    # one error line and the exit code, as every other argument error gives
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: no input files given\n"


@pytest.mark.parametrize("text, error", [
    ("-1 0\n", "negative n or m"),
    (">>graph6<<\n", "empty graph6 string"),
    ("~\n", "truncated graph6 size"),
    ("~A\n", "truncated graph6 size"),
    # graph6 holds no whitespace, so a first line of several tokens is an edge-list header
    ("x3 2\n0 1\n1 2\n", "header must be 'n m', got 'x3 2'"),
    ("3 2 1\n0 1\n", "header must be 'n m', got '3 2 1'"),
    ("a b\n", "header must be 'n m', got 'a b'"),
    # a header token is its own decimal form, as an id is
    ("3_0 2\n0 1\n1 2\n", "header must be 'n m', got '3_0 2'"),
    ("+3 2\n0 1\n1 2\n", "header must be 'n m', got '+3 2'"),
    ("03 2\n0 1\n1 2\n", "header must be 'n m', got '03 2'"),
    ("\u0663 2\n0 1\n1 2\n", "header must be 'n m', got '\u0663 2'"),
    ("-0 0\n", "header must be 'n m', got '-0 0'"),
    ("-3 2\n0 1\n1 2\n", "negative n or m"),
])
def test_malformed_size_exits_2(text, error, tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text(text, encoding="utf-8")
    assert main(["recognize", "--class", "split", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {error}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--problem", "chordal-to-split"],
        ["oracle", "--class", "cluster"],
    ],
)
def test_oracle_cap_is_a_record_with_exit_1(argv, capsys, tmp_path):
    path = tmp_path / "path20.el"
    path.write_text("20 19\n" + "".join(f"{i} {i + 1}\n" for i in range(19)))
    code, recs = run_records(capsys, argv + [str(path)])
    assert code == 1
    error = "n = 20 exceeds the exhaustive cap 16"
    if argv[0] == "oracle":
        error += "; pass --allow-large to override"
    assert recs == [{"command": argv[0], "error": error}]


def test_fallback_warns_only_after_the_chordality_check(files, capsys):
    code = main(["solve", "--problem", "chordal-to-split", files["c5"]])
    captured = capsys.readouterr()
    assert code == 1 and "witness_name=hole" in captured.out
    assert "fallback" not in captured.err


def test_failed_self_check_is_a_record_with_exit_3(files, capsys, monkeypatch):
    from chordel import CLUSTER, split_solvers

    def keeps_everything(g):
        return split_solvers._verified(g, (), CLUSTER, "split-to-cluster")

    monkeypatch.setitem(_GRAPH_SOLVERS, "split-to-cluster", keeps_everything)
    code, recs = run_records(capsys, ["solve", "--problem", "split-to-cluster", files["p3"]])
    assert code == 3
    assert recs == [
        {
            "command": "solve",
            "error": "self-check failed: "
            "split-to-cluster produced an infeasible deletion set",
        }
    ]


def test_chordal_to_k2_free_is_self_checked(files, capsys, monkeypatch):
    from chordel import structural

    monkeypatch.setattr(structural, "max_independent_set_chordal", lambda g: (0, 1))
    code, recs = run_records(
        capsys, ["solve", "--problem", "chordal-to-kp", "--p", "2", files["p3"]]
    )
    assert code == 3
    assert recs == [
        {
            "command": "solve",
            "error": "self-check failed: "
            "chordal-to-k2-free produced an infeasible deletion set",
        }
    ]


def test_parser_keeps_no_state_between_calls(files, capsys):
    # the parser is built once per process; a flag must not outlive its call
    argv = ["solve", "--problem", "split-to-cluster", files["dstar"]]
    _, (first,) = run_records(capsys, argv)
    _, (verified,) = run_records(capsys, argv + ["--verify"])
    _, (after,) = run_records(capsys, argv)
    assert verified["verified"] is True and "verified" not in after
    for rec in (first, after):
        del rec["elapsed_ms"]
    assert after == first


# Text-format stdout per argv, captured at a commit whose output is trusted:
# text prints a record's keys in insertion order, so this pins that order
TEXT_INPUTS = {"dstar.el": DSTAR, "c5.el": C5, "p3.el": P3}
TEXT_STDOUT = {
    "recognize --class split dstar.el":
        "[recognize] input=dstar.el digest=8a8ea20658a3 n=5 m=4 class=split member=True"
        " elapsed_ms=_ clique=['u1', 'u2'] independent=['v1', 'v2', 'v3']\n",
    "recognize --class split c5.el":
        "[recognize] input=c5.el digest=4a66125c2bb3 n=5 m=5 class=split member=False"
        " elapsed_ms=_ witness=['0', '1', '2', '3', '4'] witness_name=c5\n",
    "oracle --class cluster p3.el":
        "[oracle] input=p3.el digest=de1c2550646a n=3 m=2 class=cluster elapsed_ms=_"
        " k=1 deleted=['0']\n",
    "oracle --class cluster --kmax 0 p3.el":
        "[oracle] input=p3.el digest=de1c2550646a n=3 m=2 class=cluster elapsed_ms=_"
        " exceeds_kmax=True kmax=0\n",
    "reduce --from chain --to threshold --output image.el p3.el":
        "[reduce] from=chain to=threshold input=p3.el output=image.el n=3 m=3"
        " digest=7c0343f77a3c\n",
    "generate --class threshold --n 6 --seed 3 --output gen.el":
        "[generate] class=threshold n=6 m=5 seed=3 output=gen.el digest=f37e671181d7\n",
    "generate --class interval-model --n 3 --seed 1 --output m.iv":  # a triangle
        "[generate] class=interval-model n=3 m=3 seed=1 output=m.iv"
        " digest=7c0343f77a3c\n",
}


@pytest.mark.parametrize("argv", list(TEXT_STDOUT))
def test_text_stdout_is_pinned(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, text in TEXT_INPUTS.items():
        Path(name).write_text(text)
    assert main(argv.split()) == 0
    out = re.sub(r"elapsed_ms=[-0-9.e]+", "elapsed_ms=_", capsys.readouterr().out)
    assert out == TEXT_STDOUT[argv]
    if "--output" in argv:  # the file holds what stdout gets without --output
        words = argv.split()
        written = Path(words.pop(words.index("--output") + 1)).read_text()
        words.remove("--output")
        assert main(words) == 0
        assert capsys.readouterr().out == written


# ------------------------------------------------------ golden solve records

# {case id: {"code", "stdout"}} for every case below; a new problem in either
# solver table fails here until its records are added.  Run as a script from
# the repository root, this file recomputes every record and exits 1 if any
# differs from its pin; it never overwrites the file:
#
#     PYTHONPATH=src python tests/test_cli.py
#
# To recapture at a commit whose output is trusted, delete the file and run
# the script again.
GOLDEN = Path(__file__).resolve().parent / "golden" / "solve_records.json"

SOLVE_INPUTS = {
    "split": "7 11\na d\na f\na g\nb d\nb f\nc d\nc g\nd e\nd f\nd g\nf g\n",
    "tree": "8 7\na b\na d\nb c\nc e\nd g\nd h\ne f\n",
    "block": "8 10\na b\na c\na d\na e\nb c\nd e\nd h\ne f\ne g\nf g\n",
    "chordal": "7 8\na b\nb c\na c\nc d\nd e\nc e\ne f\nf g\n",
    "interval": "p 0 10\nq 1 3\nr 2 5\ns 4 7\nt 6 9\nu 8 11\n",
    "c5": "5 5\na b\nb c\nc d\nd e\ne a\n",
}

# (problem and extra flags, input) per case: every key of both solver tables
# on an input of its source class, the fallbacks, and precondition failures
SOLVE_CASES = [
    ((name,), name.split("-to-")[0]) for name in (*_GRAPH_SOLVERS, *_MODEL_SOLVERS)
] + [
    (("chordal-to-kp", "--p", "2"), "chordal"),
    (("chordal-to-kp", "--p", "3"), "chordal"),
    (("chordal-to-split",), "chordal"),
    (("split-to-cluster",), "c5"),
    (("chordal-to-split",), "c5"),
]


def _solve_case_id(problem, source, fmt, verify):
    return " ".join([*problem, source, fmt] + (["verify"] if verify else []))


def solve_stdout(problem, source, fmt, verify):
    """Exit code and stdout of one `solve` run, with elapsed_ms blanked.

    The input is written to the current directory, so records name it by
    its file name only.
    """
    name = f"{source}.iv" if source == "interval" else f"{source}.el"
    Path(name).write_text(SOLVE_INPUTS[source])
    argv = ["--format", fmt, "solve", "--problem", *problem]
    argv += ["--model", name] if source == "interval" else [name]
    argv += ["--verify"] if verify else []
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    text = re.sub(r'elapsed_ms("?[:=] ?)[-0-9.e]+', r"elapsed_ms\1_", out.getvalue())
    return code, text


def solve_cases() -> dict:
    """{case id: (problem, source, fmt, verify)} for every golden record."""
    return {
        _solve_case_id(problem, source, fmt, verify): (problem, source, fmt, verify)
        for problem, source in SOLVE_CASES
        for fmt in ("text", "records")
        for verify in (False, True)
    }


def solve_record(problem, source, fmt, verify) -> dict:
    code, stdout = solve_stdout(problem, source, fmt, verify)
    return {"code": code, "stdout": stdout}


def test_solve_golden_covers_every_case():
    assert set(json.loads(GOLDEN.read_text())) == set(solve_cases())


@pytest.mark.parametrize("fmt", ["text", "records"])
@pytest.mark.parametrize("verify", [False, True])
@pytest.mark.parametrize("problem,source", SOLVE_CASES)
def test_solve_golden(problem, source, fmt, verify, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    want = json.loads(GOLDEN.read_text())[_solve_case_id(problem, source, fmt, verify)]
    assert solve_record(problem, source, fmt, verify) == want


CHORDAL_128 = ["generate", "--class", "chordal", "--n", "128", "--seed", "0"]


@pytest.mark.parametrize("klass, generate, member", [
    # clique number 105; a chordal graph without a 106-clique has an empty 105-core
    ("kp:106", CHORDAL_128, True),
    ("kp:105", CHORDAL_128, False),
    # 1,000 isolated vertices: no two connect, so the asteroidal-triple sweep pairs none
    ("unit-interval", None, True),
])
def test_recognize_is_fast_where_the_search_is_empty(klass, generate, member, tmp_path, capsys):
    path = tmp_path / "g.el"
    if generate:
        assert main([*generate, "--output", str(path)]) == 0
        capsys.readouterr()
    else:
        path.write_text("1000 0\n")
    start = time.perf_counter()
    code, recs = run_records(capsys, ["recognize", "--class", klass, str(path)])
    assert time.perf_counter() - start < 0.5
    assert code == 0 and recs[0]["member"] is member


if __name__ == "__main__":
    entries = {cid: partial(solve_record, *case) for cid, case in solve_cases().items()}
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)  # records name each input by its file name only
        sys.exit(pins.capture_or_verify(GOLDEN, entries))
