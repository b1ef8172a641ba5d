"""Command-line entry point: recognize, solve, oracle, reduce, generate, selftest.

Reports are line-delimited: human text by default, JSON records with
--format records, one result object per input file, read by `_load` and timed
by `_timed`.  `_verify_result` checks a solution for solve --verify and the
selftest alike (the recognizer, then the oracle on small inputs).  Exit
codes: 0 success; 1 solver precondition failure (obstruction printed), an
instance above the exhaustive oracle's cap, or a failed selftest; 2 malformed
input or input of the wrong kind; 3 a solver's own self-check failed (a record
names the check).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from contextlib import contextmanager

from . import randgen
from .graph import DeletionResult, Graph, GraphInputError, delete_vertices, vset
from .graphio import padding_labels, sniff_and_parse, write_edge_list
from .interval import (
    IntervalModel,
    max_cluster_subgraph,
    max_complete_split_subgraph,
    model_to_graph,
    parse_interval_model,
    write_interval_model,
)
from .matching import Bipartition, max_matching, min_vertex_cover
from .oracle import OracleCapError, oracle_min_deletion
from .recognition import (
    BASE_LABELS,
    CHORDAL,
    ClassLabel,
    NotInClassError,
    SPLIT,
    f_free,
    kp_free,
    recognize,
    require,
    split_partition,
)
from .reductions import (
    reduce_chain_to_threshold,
    reduce_threshold_to_interval,
    reduce_vc_to_ffree,
)
from .split_solvers import (
    delete_to_2k2p3,
    delete_to_cluster_split,
    delete_to_complete_split,
    delete_to_unit_interval_split,
)
from .structural import (
    delete_to_cluster_block,
    delete_to_cluster_tree,
    delete_to_cochain_chordal,
    delete_to_k2free_chordal,
)
from .graph import bipartition_classes, check_vertex_cap

EXIT_OK = 0
EXIT_PRECONDITION = 1
EXIT_BAD_INPUT = 2
EXIT_SELF_CHECK = 3


def _digest(g: Graph) -> str:
    return hashlib.sha256(write_edge_list(g).encode()).hexdigest()[:12]


def _about(path: str, g: Graph) -> dict:
    """The record fields naming an input graph."""
    return {"input": path, "digest": _digest(g), "n": g.n, "m": g.m}


def _emit(report: dict, fmt: str) -> None:
    if fmt == "records":
        print(json.dumps(report, sort_keys=True))
        return
    bits = [f"{key}={val}" for key, val in report.items() if key != "command"]
    print(f"[{report['command']}] " + " ".join(bits))


def _load(path: str, parse) -> tuple[Graph | IntervalModel, list[str]]:
    """The instance and labels that `parse` (`sniff_and_parse` or
    `parse_interval_model`) reads from the file at `path`."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def _timed(work, *args):
    """`work(*args)` and its elapsed milliseconds, rounded as records show them."""
    t0 = time.perf_counter()
    out = work(*args)
    return out, round((time.perf_counter() - t0) * 1000, 3)


def parse_class_label(text: str) -> ClassLabel:
    if text in BASE_LABELS:
        return BASE_LABELS[text]
    if text.startswith("kp:"):
        try:
            p = int(text[3:])
        except ValueError:
            error = f"class label {text!r}: p in kp:<p> must be an integer"
            raise GraphInputError(error) from None
        return kp_free(p)
    if text.startswith("f-free:"):
        g, _ = _load(text.split(":", 1)[1], sniff_and_parse)
        return f_free(g)
    raise GraphInputError(f"unknown class label {text!r}")


def _labelled(ids, labels: list[str]) -> list[str]:
    return [labels[v] for v in ids]


@contextmanager
def _witness_in(labels: list[str]):
    """Re-raise a precondition failure with its witness in the input's labels."""
    try:
        yield
    except NotInClassError as exc:
        witness = exc.witness and tuple(_labelled(exc.witness, labels))
        raise NotInClassError(exc.class_name, witness, exc.witness_name) from None


def _cmd_recognize(args, fmt: str) -> int:
    label = parse_class_label(args.klass)
    for path in args.inputs:
        g, labels = _load(path, sniff_and_parse)
        verdict, elapsed = _timed(recognize, g, label)
        report = {
            "command": "recognize",
            **_about(path, g),
            "class": label.spelling,
            "member": verdict.member,
            "elapsed_ms": elapsed,
        }
        if not verdict.member:
            report["witness"] = _labelled(verdict.witness, labels)
            report["witness_name"] = verdict.witness_name
        elif label.name == "split":
            report["clique"] = _labelled(verdict.partition.clique, labels)
            report["independent"] = _labelled(verdict.partition.independent, labels)
        _emit(report, fmt)
    return EXIT_OK


_GRAPH_SOLVERS = {
    "split-to-2k2p3": delete_to_2k2p3,
    "split-to-cluster": delete_to_cluster_split,
    "split-to-complete-split": delete_to_complete_split,
    "split-to-unit-interval": delete_to_unit_interval_split,
    "tree-to-cluster": delete_to_cluster_tree,
    "block-to-cluster": delete_to_cluster_block,
    "chordal-to-co-chain": delete_to_cochain_chordal,
}

_MODEL_SOLVERS = {
    "interval-to-cluster": max_cluster_subgraph,
    "interval-to-complete-split": max_complete_split_subgraph,
}


def _solve_one(problem: str, p: int | None, instance) -> DeletionResult:
    """Solve one graph, or an interval model for a `_MODEL_SOLVERS` problem."""
    if problem in _MODEL_SOLVERS:
        kept = _MODEL_SOLVERS[problem](instance)
        target = BASE_LABELS[problem.split("-to-")[1]]
        return DeletionResult(vset(set(range(instance.n)) - set(kept)), target, problem)
    if problem in _GRAPH_SOLVERS:
        return _GRAPH_SOLVERS[problem](instance)
    if problem == "chordal-to-kp":
        if p is None:
            raise GraphInputError("chordal-to-kp needs --p")
        if p == 2:
            return delete_to_k2free_chordal(instance)
        target, why = kp_free(p), f"no polynomial routine wired for p={p}"
    elif problem == "chordal-to-split":
        target, why = SPLIT, "chordal-to-split has no implemented polynomial routine"
    else:
        raise GraphInputError(f"unknown problem {problem!r}")
    require(instance, CHORDAL)
    print(f"warning: {why}; exponential oracle fallback", file=sys.stderr)
    return oracle_min_deletion(instance, target)


def _cmd_solve(args, fmt: str) -> int:
    problem = args.problem
    on_model = problem in _MODEL_SOLVERS
    if on_model and not args.model:
        raise GraphInputError(f"{problem} needs --model")
    if on_model and args.inputs:
        raise GraphInputError(f"{problem} takes --model, not graph files")
    if args.model and not on_model:
        raise GraphInputError(f"--model is only for {' and '.join(_MODEL_SOLVERS)}")
    if args.p is not None and problem != "chordal-to-kp":
        raise GraphInputError("--p is only for chordal-to-kp")
    for path in [args.model] if on_model else args.inputs:
        instance, labels = _load(path, parse_interval_model if on_model else sniff_and_parse)
        g = model_to_graph(instance) if on_model else instance
        with _witness_in(labels):
            result, elapsed = _timed(_solve_one, problem, args.p, instance)
        report = {
            "command": "solve",
            "problem": problem,
            **_about(path, g),
            "k": result.size,
            "deleted": _labelled(result.deleted, labels),
            "target": result.target_class.spelling,
        }
        if not on_model:
            report["method"] = result.method
        report["elapsed_ms"] = elapsed
        if args.verify:
            report["verified"] = _verify_result(g, result)
        _emit(report, fmt)
    return EXIT_OK


def _verify_result(g: Graph, result: DeletionResult) -> bool:
    rest, _ = delete_vertices(g, result.deleted)
    if not recognize(rest, result.target_class).member:
        return False
    return g.n > 12 or oracle_min_deletion(g, result.target_class, result.size - 1) is None


def _cmd_oracle(args, fmt: str) -> int:
    if args.kmax is not None and args.kmax < 0:
        raise GraphInputError(f"--kmax must be at least 0, got {args.kmax}")
    label = parse_class_label(args.klass)
    for path in args.inputs:
        g, labels = _load(path, sniff_and_parse)
        result, elapsed = _timed(oracle_min_deletion, g, label, args.kmax, args.allow_large)
        report = {
            "command": "oracle",
            **_about(path, g),
            "class": label.spelling,
            "elapsed_ms": elapsed,
        }
        if result is None:
            report["exceeds_kmax"] = True
            report["kmax"] = args.kmax
        else:
            report["k"] = result.size
            report["deleted"] = _labelled(result.deleted, labels)
        _emit(report, fmt)
    return EXIT_OK


def _write_output(path: str | None, text: str, record: dict, g: Graph, fmt: str) -> int:
    """Write `text` to `path` and emit `record` with the digest of g, or,
    without a path, write `text` to stdout."""
    if not path:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        _emit({**record, "digest": _digest(g)}, fmt)
    return EXIT_OK


def _cmd_reduce(args, fmt: str) -> int:
    pair = (args.source, args.target)
    if pair not in (("chain", "threshold"), ("threshold", "interval"), ("vc", "f-free")):
        raise GraphInputError(f"unknown reduction {args.source!r} -> {args.target!r}")
    for flag, value in (("--pattern", args.pattern), ("--anchor", args.anchor)):
        if value is not None and pair != ("vc", "f-free"):
            raise GraphInputError(f"{flag} is only for --from vc --to f-free")
    path = args.input
    g, labels = _load(path, sniff_and_parse)
    comments = [f"reduction {args.source} -> {args.target}", f"source {path}"]
    if pair == ("chain", "threshold"):
        sides = bipartition_classes(g)
        if sides is None:
            raise NotInClassError("bipartite")
        out = reduce_chain_to_threshold(g, Bipartition(*sides))
    elif pair == ("threshold", "interval"):
        with _witness_in(labels):
            out = reduce_threshold_to_interval(g)
    else:  # vc -> f-free
        if not args.pattern:
            raise GraphInputError("vc -> f-free needs --pattern")
        pat, _ = _load(args.pattern, sniff_and_parse)
        anchor = None
        if args.anchor:
            try:
                a, b = map(int, args.anchor.split(","))
            except ValueError:
                msg = f"--anchor must be two vertex ids 'a,b', got {args.anchor!r}"
                raise GraphInputError(msg) from None
            anchor = (a, b)
        out = reduce_vc_to_ffree(g, pat, anchor)
        comments.append(f"pattern {args.pattern} anchor {anchor or pat.edges()[0]}")

    out_labels = labels + padding_labels(set(labels), "_g", g.n, out.n)
    text = write_edge_list(out, out_labels, comments=tuple(comments))
    record = {"command": "reduce", "from": args.source, "to": args.target,
              "input": path, "output": args.output, "n": out.n, "m": out.m}
    return _write_output(args.output, text, record, out, fmt)


def _cmd_generate(args, fmt: str) -> int:
    name, n, seed = args.klass, args.n, args.seed
    if name not in ("split", "threshold", "chordal", "block", "tree", "bipartite",
                    "interval-model"):
        raise GraphInputError(f"unknown generator class {name!r}")
    if n < 0:
        raise GraphInputError(f"--n must be at least 0, got {n}")
    check_vertex_cap(n)
    p = 0.5  # the edge probability of split and bipartite unless its flag is given
    for flag, value, owner in (("--edge-bias", args.edge_bias, "split"),
                               ("--p-edge", args.p_edge, "bipartite")):
        if value is None:
            continue
        if name != owner:
            raise GraphInputError(f"{flag} is only for --class {owner}")
        if not 0 <= value <= 1:  # NaN fails too
            raise GraphInputError(f"{flag} must be in [0, 1], got {value}")
        p = value
    comments = (f"generated class={name} n={n} seed={seed}",)
    if name == "interval-model":
        model = randgen.gen_interval_model(n, seed)
        g, text = model_to_graph(model), write_interval_model(model)
    elif name == "split":
        g = randgen.gen_split(n, p, seed)
    elif name == "threshold":
        g, roles = randgen.gen_threshold(n, seed)
        comments += ("creation " + " ".join(roles),)
    elif name in ("chordal", "block", "tree"):
        g = getattr(randgen, f"gen_{name}")(n, seed)
    else:  # bipartite
        g, sides = randgen.gen_bipartite(n, p, seed)
        comments += (
            "left " + " ".join(map(str, sides.left)),
            "right " + " ".join(map(str, sides.right)),
        )
    if name != "interval-model":
        text = write_edge_list(g, comments=comments)
    record = {"command": "generate", "class": name, "n": g.n, "m": g.m,
              "seed": seed, "output": args.output}
    return _write_output(args.output, text, record, g, fmt)


def _selftest_suites(seeds: int):
    from .recognition import BLOCK, INTERVAL, THRESHOLD
    from .reductions import bowtie, bowtie_model
    from .graph import complement

    def gen_recognize():
        for s in range(seeds):
            yield recognize(randgen.gen_split(8, 0.5, s), SPLIT).member
            yield recognize(randgen.gen_threshold(8, s)[0], THRESHOLD).member
            yield recognize(randgen.gen_chordal(8, s), CHORDAL).member
            yield recognize(randgen.gen_block(8, s), BLOCK).member
            yield recognize(
                model_to_graph(randgen.gen_interval_model(7, s)), INTERVAL
            ).member

    def koenig():
        for s in range(seeds):
            g, sides = randgen.gen_bipartite(9, 0.4, s)
            cover = min_vertex_cover(g, sides)
            matching = max_matching(g, sides)
            yield len(cover) == len(matching)

    def solver_oracle():
        draw = {
            "split": lambda s: randgen.gen_split(7, 0.5, s),
            "tree": lambda s: randgen.gen_tree(9, s),
            "block": lambda s: randgen.gen_block(9, s),
            "chordal": lambda s: randgen.gen_chordal(7, s),
            "interval": lambda s: randgen.gen_interval_model(7, s),
        }
        runs = [(problem, None) for problem in (*_GRAPH_SOLVERS, *_MODEL_SOLVERS)]
        runs.append(("chordal-to-kp", 2))
        for s in range(max(6, seeds // 4)):
            drawn = {source: make(s) for source, make in draw.items()}
            for problem, p in runs:
                instance = drawn[problem.split("-to-")[0]]
                g = model_to_graph(instance) if problem in _MODEL_SOLVERS else instance
                yield _verify_result(g, _solve_one(problem, p, instance))

    def bowtie_interval():
        for s in range(seeds):
            g1, _ = randgen.gen_threshold(5, 2 * s)
            g2, _ = randgen.gen_threshold(5, 2 * s + 1)
            c1 = split_partition(g1).clique
            c2 = split_partition(g2).clique
            joined = bowtie(g1, c1, g2, c2)
            yield recognize(joined, INTERVAL).member
            yield model_to_graph(bowtie_model(g1, g2, c1, c2)).edges() == joined.edges()

    def duality():
        for s in range(seeds):
            g = randgen.gen_split(8, 0.5, s)
            yield (
                delete_to_cluster_split(g).size
                == delete_to_complete_split(complement(g)).size
            )

    return [
        ("generator-vs-recognizer", gen_recognize),
        ("koenig-equality", koenig),
        ("solver-vs-oracle", solver_oracle),
        ("bowtie-interval", bowtie_interval),
        ("complement-duality", duality),
    ]


def _cmd_selftest(args, fmt: str) -> int:
    if args.seeds < 1:
        raise GraphInputError(f"--seeds must be at least 1, got {args.seeds}")
    failures = 0
    for name, suite in _selftest_suites(args.seeds):
        results, elapsed = _timed(list, suite())
        bad = results.count(False)
        failures += bad
        status = "PASS" if bad == 0 else "FAIL"
        print(
            f"{status:4}  {name:26} {len(results) - bad}/{len(results)} checks "
            f"({elapsed / 1000:.2f}s)"
        )
    print("selftest:", "PASS" if failures == 0 else f"FAIL ({failures} checks)")
    return EXIT_OK if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chordel",
        description="Vertex deletion between subclasses of chordal graphs",
    )
    parser.add_argument(
        "--format", choices=("text", "records"), default="text",
        help="report style: human text or JSON lines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_inputs(p):
        p.add_argument("inputs", nargs="*", help="graph files, edge list or graph6")

    p_rec = sub.add_parser("recognize", help="class membership with witnesses")
    p_rec.add_argument("--class", dest="klass", required=True)
    add_inputs(p_rec)

    p_sol = sub.add_parser("solve", help="run a deletion solver")
    p_sol.add_argument("--problem", required=True)
    p_sol.add_argument("--model", help="interval model file (interval-to-* problems)")
    p_sol.add_argument("--p", type=int, help="p for chordal-to-kp")
    p_sol.add_argument("--verify", action="store_true",
                       help="recheck with recognizer and, for n <= 12, the oracle")
    add_inputs(p_sol)

    p_ora = sub.add_parser("oracle", help="exhaustive minimum deletion")
    p_ora.add_argument("--class", dest="klass", required=True)
    p_ora.add_argument("--kmax", type=int, default=None)
    p_ora.add_argument("--allow-large", action="store_true")
    add_inputs(p_ora)

    p_red = sub.add_parser("reduce", help="build a hardness reduction instance")
    p_red.add_argument("--from", dest="source", required=True)
    p_red.add_argument("--to", dest="target", required=True)
    p_red.add_argument("--pattern", help="pattern graph file for f-free targets")
    p_red.add_argument("--anchor", help="anchor edge 'a,b' in the pattern")
    p_red.add_argument("--output", help="write the image graph here")
    p_red.add_argument("input", help="graph file, edge list or graph6")

    p_gen = sub.add_parser("generate", help="seeded random instance")
    p_gen.add_argument("--class", dest="klass", required=True)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--edge-bias", type=float, help="cross-edge probability for split (0.5)")
    p_gen.add_argument("--p-edge", type=float, help="edge probability for bipartite (0.5)")
    p_gen.add_argument("--output", help="write the instance here")

    p_self = sub.add_parser("selftest", help="seeded property suites")
    p_self.add_argument("--seeds", type=int, default=25)

    return parser


_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    if getattr(args, "inputs", None) == [] and not getattr(args, "model", None):
        _PARSER.error("no input files given")
    handlers = {
        "recognize": _cmd_recognize,
        "solve": _cmd_solve,
        "oracle": _cmd_oracle,
        "reduce": _cmd_reduce,
        "generate": _cmd_generate,
        "selftest": _cmd_selftest,
    }
    try:
        return handlers[args.command](args, args.format)
    except NotInClassError as exc:
        report = {
            "command": args.command,
            "error": str(exc),
            "witness_name": exc.witness_name,
        }
        if exc.witness is not None:
            report["witness"] = list(exc.witness)
        _emit(report, args.format)
        return EXIT_PRECONDITION
    except OracleCapError as exc:
        error = str(exc)
        if args.command == "oracle":
            error += "; pass --allow-large to override"
        _emit({"command": args.command, "error": error}, args.format)
        return EXIT_PRECONDITION
    except AssertionError as exc:
        report = {"command": args.command, "error": f"self-check failed: {exc}"}
        _emit(report, args.format)
        return EXIT_SELF_CHECK
    except (GraphInputError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
