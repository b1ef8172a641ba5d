"""Output checks for benchmark ops, run outside the timed region.

For the default seed the expected exit code, ``k``, ``deleted``, ``member``
and digests come from the committed reference.  For any other seed they are
computed: the oracle answers every op on at most ``ORACLE_N`` vertices, a
direct library call answers recognize ops, and reductions are rebuilt
directly.  Either way the same checks then run: the expected fields match,
every deletion leaves a graph the recognizer accepts, ``--verify`` reports
true, and a witness names one of its class's obstructions on distinct
vertices of the input.  Witness contents are not pinned.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

from workloads import GENERATOR_CLASSES, OBSTRUCTIONS

DEFAULT_SEED = 1
ORACLE_N = 14
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
_ELAPSED = re.compile(r'"elapsed_ms": [0-9.e+-]+')
PINNED = ("exit", "n", "m", "digest", "member", "k", "deleted", "exceeds_kmax",
          "verified")

PROBLEM_TARGET = {
    "split-to-2k2p3": "2k2p3",
    "split-to-cluster": "cluster",
    "split-to-complete-split": "complete-split",
    "split-to-unit-interval": "unit-interval",
    "tree-to-cluster": "cluster",
    "block-to-cluster": "cluster",
    "chordal-to-co-chain": "co-chain",
    "chordal-to-kp": "kp:2",
    "interval-to-cluster": "cluster",
    "interval-to-complete-split": "complete-split",
}


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str) -> dict:
    with open(reference_path(workload), encoding="utf-8") as fh:
        return json.load(fh)


def parse_records(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


def pinned_fields(code, records: list[dict]) -> dict:
    """The fields of one op's output the reference keeps."""
    out = {"exit": code}
    if len(records) == 1:
        out.update({k: records[0][k] for k in PINNED if k in records[0]})
    return out


class Checker:
    """Checks op outputs of one workload run against expected fields."""

    def __init__(self, chordel, workload, reference: dict | None):
        self.cd = chordel
        self.wl = workload
        self.reference = reference
        self._loaded: dict[str, tuple] = {}
        self._expected: dict[str, dict] = {}
        self._oracle: dict[tuple[str, str], object] = {}
        self._verdicts: dict[tuple, list[str]] = {}

    # -- inputs --------------------------------------------------------------

    def load(self, name: str):
        """(graph, labels) of an instance file as the CLI reads it."""
        if name not in self._loaded:
            path = self.wl.instances[name].path
            text = Path(path).read_text(encoding="utf-8")
            if path.endswith(".iv"):
                model, labels = self.cd.interval.parse_interval_model(text)
                self._loaded[name] = (self.cd.interval.model_to_graph(model), labels)
            else:
                self._loaded[name] = self.cd.graphio.sniff_and_parse(text)
        return self._loaded[name]

    def _label(self, spelling: str):
        return self.cd.cli.parse_class_label(spelling)

    def _oracle_answer(self, name: str, klass: str, k_max: int | None):
        key = (name, klass, k_max)
        if key not in self._oracle:
            g, _ = self.load(name)
            self._oracle[key] = self.cd.oracle.oracle_min_deletion(
                g, self._label(klass), k_max=k_max)
        return self._oracle[key]

    # -- expected fields -----------------------------------------------------

    def expected(self, op) -> dict:
        if op.id not in self._expected:
            if self.reference is not None:
                self._expected[op.id] = self.reference["ops"].get(
                    op.id, {"in_reference": True})
            else:
                self._expected[op.id] = self._compute_expected(op)
        return self._expected[op.id]

    def _compute_expected(self, op) -> dict:
        cd = self.cd
        exp: dict = {"exit": 0}
        if op.kind == "reduce":
            image = self._build_image(op)
            exp.update(n=image.n, m=image.m, digest=_digest(cd, image))
            return exp
        g, labels = self.load(op.instance)
        exp.update(n=g.n, m=g.m)
        if op.kind == "recognize":
            if g.n <= ORACLE_N:
                exp["member"] = cd.oracle.oracle_min_deletion(
                    g, self._label(op.target), k_max=0) is not None
            else:
                exp["member"] = cd.recognize(g, self._label(op.target)).member
        elif g.n <= ORACLE_N:
            klass = op.target if op.kind == "oracle" else PROBLEM_TARGET[op.target]
            k_max = int(op.argv[op.argv.index("--kmax") + 1]) if "--kmax" in op.argv else None
            truth = self._oracle_answer(op.instance, klass, k_max)
            if truth is None:
                exp["exceeds_kmax"] = True
            else:
                exp["k"] = truth.size
                if op.kind == "oracle":
                    exp["deleted"] = [labels[v] for v in truth.deleted]
        if "--verify" in op.argv:
            exp["verified"] = True
        return exp

    def _build_image(self, op):
        cd = self.cd
        g, _ = self.load(op.instance)
        if op.target == "chain->threshold":
            sides = cd.graph.bipartition_classes(g)
            return cd.reductions.reduce_chain_to_threshold(g, cd.matching.Bipartition(*sides))
        if op.target == "threshold->interval":
            return cd.reductions.reduce_threshold_to_interval(g)
        pattern_path = op.argv[op.argv.index("--pattern") + 1]
        pattern, _ = cd.graphio.sniff_and_parse(Path(pattern_path).read_text(encoding="utf-8"))
        return cd.reductions.reduce_vc_to_ffree(g, pattern)

    # -- checking ------------------------------------------------------------

    def check(self, op, code, stdout: str) -> list[str]:
        """Problems with one op's output; empty when it is correct.

        Outputs that repeat across passes, apart from timing, are checked once.
        """
        key = (op.id, code, _ELAPSED.sub("", stdout))
        if key not in self._verdicts:
            self._verdicts[key] = self._check(op, code, stdout)
        return self._verdicts[key]

    def _check(self, op, code, stdout: str) -> list[str]:
        try:
            records = parse_records(stdout)
        except ValueError as exc:
            return [f"unparsable output: {exc}"]
        got = pinned_fields(code, records)
        problems = []
        if len(records) != 1:
            problems.append(f"{len(records)} records, expected 1")
        for key, want in self.expected(op).items():
            if got.get(key) != want:
                problems.append(f"{key}={got.get(key)!r}, expected {want!r}")
        if problems or op.kind == "reduce":
            return problems
        return self._check_form(op, records[0])

    def _check_form(self, op, rec: dict) -> list[str]:
        g, labels = self.load(op.instance)
        index = {lab: v for v, lab in enumerate(labels)}
        if op.kind == "recognize":
            klass = op.target
            gen = self.wl.instances[op.instance].generator
            if klass in GENERATOR_CLASSES.get(gen, ()) and not rec["member"]:
                return [f"{gen} instance rejected as {klass}"]
            if rec["member"]:
                return []
            problems = []
            if rec.get("witness_name") not in OBSTRUCTIONS[klass]:
                problems.append(f"witness name {rec.get('witness_name')!r} not an obstruction of {klass}")
            witness = rec.get("witness") or []
            if not witness or len(set(witness)) != len(witness) or any(w not in index for w in witness):
                problems.append(f"witness {witness!r} is not a set of input vertices")
            return problems
        if rec.get("exceeds_kmax"):
            return []
        deleted = rec["deleted"]
        if rec["k"] != len(deleted) or len(set(deleted)) != len(deleted):
            return [f"k={rec['k']} does not match deleted {deleted!r}"]
        if any(lab not in index for lab in deleted):
            return [f"deleted {deleted!r} names vertices not in the input"]
        klass = op.target if op.kind == "oracle" else PROBLEM_TARGET[op.target]
        if op.kind == "solve" and rec["target"] != klass:
            return [f"target {rec['target']!r}, expected {klass!r}"]
        rest, _ = self.cd.graph.delete_vertices(g, [index[lab] for lab in deleted])
        if not self.cd.recognize(rest, self._label(klass)).member:
            return [f"remainder after deleting {deleted!r} is not {klass}"]
        return []


def _digest(chordel, g) -> str:
    return hashlib.sha256(chordel.graphio.write_edge_list(g).encode()).hexdigest()[:12]
