"""Seeded instances and op lists for the benchmark's workloads and parts.

An op is one call of ``chordel.cli.main`` with ``--format records`` on an
instance file.  Instance names are the same for every seed; only their
contents change.  Each instance draws its own sub-seed from the workload
seed and its name, so adding an instance never reshuffles the others.

Split instances are stratified by the size of the independent side |I|
(the property split-solver cost depends on most): each is asked for |I|
below n/3, between n/3 and 2n/3, or above, and sub-seeds are drawn until
the stratum is met.  Every seed therefore gives the same mix of small and
large |I|.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

# Each workload joins two parts; every op belongs to one part,
# and the report breaks the end-to-end metrics down by part as well.
PARTS = {
    "solve": ("graph-solve", "interval-solve"),
    "certify": ("recognize-mix", "oracle-certify"),
}
WORKLOADS = tuple(PARTS)

# Base classes plus kp:3, in the order recognize-mix runs them.
RECOGNIZE_CLASSES = (
    "chordal", "interval", "unit-interval", "split", "threshold",
    "complete-split", "trivially-perfect", "cluster", "block", "co-chain",
    "2k2p3", "kp:3",
)
# Classes recognized by MCS and the asteroidal-triple sweep alone; block also
# runs an embedding search for the diamond, so it stays with the small rungs.
MCS_CLASSES = ("chordal", "interval")

# Obstruction names each class may report; witnesses are checked against
# these for form only.
OBSTRUCTIONS = {
    "chordal": ("hole",),
    "interval": ("hole", "asteroidal-triple"),
    "unit-interval": ("hole", "asteroidal-triple", "claw"),
    "split": ("2k2", "c4", "c5"),
    "threshold": ("2k2", "c4", "p4"),
    "complete-split": ("co-p3", "c4"),
    "trivially-perfect": ("c4", "p4"),
    "cluster": ("p3",),
    "block": ("hole", "diamond"),
    "co-chain": ("i3", "c4", "c5"),
    "2k2p3": ("2k2", "p3"),
    "kp:3": ("k3",),
}

# Classes every output of a generator belongs to; a recognize op that
# rejects one of these is wrong whatever the seed.
GENERATOR_CLASSES = {
    "chordal": ("chordal",),
    "split": ("chordal", "split"),
    "threshold": ("chordal", "interval", "split", "threshold", "trivially-perfect"),
    "block": ("chordal", "block"),
    "tree": ("chordal", "block"),
    "interval": ("chordal", "interval"),
    "bipartite": (),
}

SPLIT_BIASES = (0.2, 0.5, 0.8)
SPLIT_PROBLEMS = ("split-to-2k2p3", "split-to-cluster", "split-to-complete-split")


@dataclass
class Instance:
    name: str
    generator: str
    n: int
    seed: int
    path: str = ""
    bias: float | None = None
    props: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Op:
    id: str
    kind: str  # recognize, solve, oracle or reduce
    argv: tuple[str, ...]
    instance: str  # name of the instance the op reads
    target: str  # class spelling, or the problem for solve ops
    part: str  # which of the workload's parts the op belongs to
    image: str | None = None  # reduce ops: name of the image they write


@dataclass
class Workload:
    name: str
    seed: int
    instances: dict[str, Instance]
    ops: list[Op]
    generate_s: float  # time inside chordel.randgen calls


def _subseed(seed: int, name: str, attempt: int = 0) -> int:
    return random.Random(f"{seed}:{name}:{attempt}").randrange(2**31)


def stratum(independent: int, n: int) -> int:
    return min(2, 3 * independent // max(n, 1))


class _Assembler:
    """Generates, writes and lists instances and ops for one workload."""

    def __init__(self, chordel, name: str, seed: int, workdir: Path):
        self.cd = chordel
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.instances: dict[str, Instance] = {}
        self.ops: list[Op] = []
        self.part = ""
        self.generate_s = 0.0

    def _timed(self, fn, *args):
        t0 = perf_counter()
        out = fn(*args)
        self.generate_s += perf_counter() - t0
        return out

    def _write(self, inst: Instance, text: str, suffix: str) -> None:
        path = self.workdir / f"{inst.name}{suffix}"
        path.write_text(text, encoding="utf-8")
        inst.path = str(path)

    def graph(self, generator: str, n: int, tag: str = "", **kw) -> Instance:
        """Instance from one randgen generator, written as an edge list."""
        rg = self.cd.randgen
        name = f"{generator}-n{n}{tag}"
        seed = _subseed(self.seed, name)
        if generator == "split":
            # Redraw until |I| falls in the requested third of n.
            attempt = 0
            while True:
                seed = _subseed(self.seed, name, attempt)
                g = self._timed(rg.gen_split, n, kw["bias"], seed)
                part = self.cd.recognition.split_partition(g)
                if kw.get("stratum") is None or stratum(len(part.independent), n) == kw["stratum"]:
                    break
                attempt += 1
        elif generator == "threshold":
            g = self._timed(rg.gen_threshold, n, seed)[0]
        elif generator == "bipartite":
            g = self._timed(rg.gen_bipartite, n, kw.get("p_edge", 0.5), seed)[0]
        elif generator == "interval":
            g = self.cd.interval.model_to_graph(
                self._timed(rg.gen_interval_model, n, seed)
            )
        else:
            g = self._timed(getattr(rg, f"gen_{generator}"), n, seed)
        inst = Instance(name, generator, n, seed, bias=kw.get("bias"))
        inst.props["m"] = g.m
        self._write(inst, self.cd.graphio.write_edge_list(g), ".el")
        self.instances[name] = inst
        return inst

    def model(self, n: int, tag: str = "") -> Instance:
        name = f"model-n{n}{tag}"
        seed = _subseed(self.seed, name)
        m = self._timed(self.cd.randgen.gen_interval_model, n, seed)
        inst = Instance(name, "interval-model", n, seed)
        self._write(inst, self.cd.interval.write_interval_model(m), ".iv")
        inst.props["m"] = self.cd.interval.model_to_graph(m).m
        self.instances[name] = inst
        return inst

    def pattern(self, label: str) -> Instance:
        """A named pattern from chordel.patterns, used by vc -> f-free."""
        g = getattr(self.cd.patterns, label)()
        inst = Instance(f"pattern-{label}", f"patterns.{label}", g.n, 0)
        inst.props["m"] = g.m
        self._write(inst, self.cd.graphio.write_edge_list(g), ".el")
        self.instances[inst.name] = inst
        return inst

    def op(self, kind: str, target: str, inst: Instance, *extra: str) -> None:
        if kind == "recognize":
            argv = ("recognize", "--class", target, *extra, inst.path)
        elif kind == "oracle":
            argv = ("oracle", "--class", target, *extra, inst.path)
        elif kind == "solve" and inst.generator == "interval-model":
            argv = ("solve", "--problem", target, *extra, "--model", inst.path)
        else:
            argv = ("solve", "--problem", target, *extra, inst.path)
        op_id = " ".join((kind, target, *extra, inst.name))
        self.ops.append(Op(op_id, kind, argv, inst.name, target, self.part))

    def reduce(self, source: str, target: str, inst: Instance, image_class: str,
               pattern: Instance | None = None) -> None:
        """A reduce op, then an oracle op on the image it writes."""
        image = Instance(f"{inst.name}-to-{target}", f"reduce:{source}->{target}",
                         0, inst.seed)
        image.path = str(self.workdir / f"{image.name}.el")
        extra = ("--pattern", pattern.path) if pattern else ()
        argv = ("reduce", "--from", source, "--to", target, *extra,
                "--output", image.path, inst.path)
        self.ops.append(Op(f"reduce {source}->{target} {inst.name}", "reduce",
                           argv, inst.name, f"{source}->{target}", self.part, image.name))
        self.instances[image.name] = image
        if pattern is not None:
            image_class = f"f-free:{pattern.path}"
        kmax = ("--kmax", str(ORACLE_KMAX))
        self.ops.append(Op(f"oracle {image_class.split(':')[0]} {' '.join(kmax)} {image.name}",
                           "oracle", ("oracle", "--class", image_class, *kmax, image.path),
                           image.name, image_class, self.part))


def _graph_solve(b: _Assembler) -> None:
    for i, n in enumerate((8, 16, 24, 32, 48, 64)):
        for stratum in range(3):
            for copy in range(2):
                bias = SPLIT_BIASES[(i + stratum + copy) % 3]
                inst = b.graph("split", n, f"-I{stratum}-{copy}", bias=bias, stratum=stratum)
                for problem in SPLIT_PROBLEMS:
                    b.op("solve", problem, inst)
                if n <= 16:
                    b.op("solve", "split-to-unit-interval", inst)
    for n, copies in ((16, 4), (32, 4), (64, 4), (128, 3)):
        for c in range(copies):
            tag = f"-{c}"
            b.op("solve", "tree-to-cluster", b.graph("tree", n, tag))
            b.op("solve", "block-to-cluster", b.graph("block", n, tag))
            chordal = b.graph("chordal", n, tag)
            b.op("solve", "chordal-to-co-chain", chordal)
            b.op("solve", "chordal-to-kp", chordal, "--p", "2")


def _interval_solve(b: _Assembler) -> None:
    # Every even n from 8 to 32 keeps the sorted op costs free of wide gaps,
    # so the percentiles do not jump between rungs from run to run.
    for n, copies in [(n, 4) for n in range(8, 34, 2)] + [(48, 1), (64, 1)]:
        for c in range(copies):
            inst = b.model(n, f"-{c}")
            b.op("solve", "interval-to-cluster", inst)
            b.op("solve", "interval-to-complete-split", inst)


def _recognize_mix(b: _Assembler) -> None:
    gens = ("chordal", "split", "threshold", "block", "tree", "interval", "bipartite")
    for n, copies, classes in ((16, 2, RECOGNIZE_CLASSES), (32, 3, RECOGNIZE_CLASSES),
                               (64, 2, MCS_CLASSES), (128, 2, MCS_CLASSES)):
        for c in range(copies):
            for gen in gens:
                kw = {"bias": SPLIT_BIASES[c % 3], "stratum": c % 3} if gen == "split" else {}
                inst = b.graph(gen, n, f"-{c}", **kw)
                for klass in classes:
                    b.op("recognize", klass, inst)


ORACLE_TARGETS = {
    "chordal": ("cluster", "threshold", "trivially-perfect", "unit-interval",
                "co-chain", "split"),
    "split": ("cluster", "threshold", "complete-split", "co-chain",
              "unit-interval"),
    "interval": ("cluster", "trivially-perfect", "unit-interval", "split",
                 "complete-split"),
    "block": ("cluster", "trivially-perfect", "unit-interval", "threshold"),
}
# Oracle ops stop at k = ORACLE_KMAX, so no single op enumerates more than
# C(n, <= ORACLE_KMAX) subsets and the cost of a pass does not hinge on the
# largest k a seed happens to draw.  For the same reason `solve --verify`,
# whose oracle has no cap, runs at n = 10 (at most 2^10 subsets) and n = 14
# (past the CLI's n <= 12 oracle limit, so only the recognizer runs).
ORACLE_KMAX = 4
VERIFY_PROBLEMS = {
    "chordal": (("chordal-to-co-chain",), ("chordal-to-kp", "--p", "2")),
    "split": tuple((p,) for p in SPLIT_PROBLEMS + ("split-to-unit-interval",)),
    "block": (("block-to-cluster",),),
}


def _oracle_certify(b: _Assembler) -> None:
    for n, copies in ((10, 4), (12, 8), (14, 1)):
        for c in range(copies):
            for gen, targets in ORACLE_TARGETS.items():
                kw = {"bias": SPLIT_BIASES[c % 3], "stratum": (n + c) % 3} if gen == "split" else {}
                inst = b.graph(gen, n, f"-{c}", **kw)
                if n <= 12:
                    for klass in targets:
                        b.op("oracle", klass, inst, "--kmax", str(ORACLE_KMAX))
                if n != 12:
                    for problem, *extra in VERIFY_PROBLEMS.get(gen, ()):
                        b.op("solve", problem, inst, *extra, "--verify")
            if n != 12:
                model = b.model(n, f"-{c}")
                for problem in ("interval-to-cluster", "interval-to-complete-split"):
                    b.op("solve", problem, model, "--verify")
    for n in (8, 10, 12):
        b.reduce("chain", "threshold", b.graph("bipartite", n, p_edge=0.3), "threshold")
    for n in (6, 8):
        src = b.graph("split", n, "-small", bias=0.5, stratum=2)
        b.reduce("threshold", "interval", src, "interval")
    diamond = b.pattern("diamond")
    for n in (4, 5):
        b.reduce("vc", "f-free", b.graph("tree", n), "f-free", pattern=diamond)


_PART_OPS = {
    "graph-solve": _graph_solve,
    "interval-solve": _interval_solve,
    "recognize-mix": _recognize_mix,
    "oracle-certify": _oracle_certify,
}


def build(chordel, name: str, seed: int, workdir: Path) -> Workload:
    """Generate and write every instance of a workload."""
    workdir.mkdir(parents=True, exist_ok=True)
    b = _Assembler(chordel, name, seed, workdir)
    for part in PARTS[name]:
        b.part = part
        _PART_OPS[part](b)
    return Workload(name, seed, b.instances, b.ops, b.generate_s)
