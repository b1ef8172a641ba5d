"""Capture or verify tests/golden/scale_outputs.json: solver and recognizer outputs at scale.

Each entry names a seeded generator call and what chordel computes on it:
- every `_GRAPH_SOLVERS` and `_MODEL_SOLVERS` problem on its source class's
  generator at n = 64, 256 and 1024, seeds 1 and 2 (unit interval at n = 64
  only), stored as the deletion size and the sha256 of the deleted ids;
- interval and unit-interval `recognize` on members and on non-members,
  stored as the verdict and the witness;
- the tie-heavy cases, where many moves reach the optimum size and only the
  tie-break picks the set.

Each entry also records the seconds it took at capture; the tier-1 test
recomputes the entries under one second.  Run from the repository root:

    PYTHONPATH=src python tests/capture_scale_outputs.py

If the file does not exist, it is captured.  If it exists, it is never
overwritten: every entry is computed again, and the script exits 1 if any
differs from its pin.
"""

import hashlib
import json
import random
import sys
import time
from functools import partial
from pathlib import Path

from chordel import randgen
from chordel.cli import _GRAPH_SOLVERS, _MODEL_SOLVERS, _solve_one
from chordel.interval import IntervalModel, model_to_graph
from chordel.recognition import INTERVAL, UNIT_INTERVAL, recognize

GOLDEN = Path(__file__).parent / "golden" / "scale_outputs.json"

SIZES = (64, 256, 1024)
SEEDS = (1, 2)


def unit_interval_model(n: int, seed: int) -> IntervalModel:
    """n intervals of length 16 with seeded left ends in 0..4n-1: a unit
    interval graph of average degree about 8."""
    rng = random.Random(seed)
    return IntervalModel(tuple((x, x + 16) for x in (rng.randrange(4 * n) for _ in range(n))))


# source class -> (generator call, (n, seed) -> instance)
SOURCES = {
    "split": ("gen_split({n}, 0.5, {s})", lambda n, s: randgen.gen_split(n, 0.5, s)),
    "tree": ("gen_tree({n}, {s})", randgen.gen_tree),
    "block": ("gen_block({n}, {s})", randgen.gen_block),
    "chordal": ("gen_chordal({n}, {s})", randgen.gen_chordal),
    "interval": ("gen_interval_model({n}, {s})", randgen.gen_interval_model),
}

# instance kind -> (generator call, (n, seed) -> graph)
RECOGNIZED = {
    "interval model": ("model_to_graph(gen_interval_model({n}, {s}))",
                       lambda n, s: model_to_graph(randgen.gen_interval_model(n, s))),
    "unit model": ("model_to_graph(unit_interval_model({n}, {s}))",
                   lambda n, s: model_to_graph(unit_interval_model(n, s))),
    "chordal": ("gen_chordal({n}, {s})", randgen.gen_chordal),
}
# class -> (label, instance kinds): members first, then non-members
RECOGNIZE = {"interval": (INTERVAL, ("interval model", "chordal")),
             "unit-interval": (UNIT_INTERVAL, ("unit model", "interval model"))}

# (problem, n, edge bias, seed) on gen_split
TIES = (
    ("split-to-unit-interval", 120, 0.5, 1),
    ("split-to-complete-split", 1024, 0.5, 1),
    ("split-to-2k2p3", 1024, 0.8, 2),
)


def _solve(problem: str, make) -> dict:
    result = _solve_one(problem, None, make())
    ids = " ".join(map(str, result.deleted))
    return {"k": result.size, "sha256": hashlib.sha256(ids.encode()).hexdigest()}


def _recognize(label, make) -> dict:
    verdict = recognize(make(), label)
    witness = verdict.witness and list(verdict.witness)
    return {"member": verdict.member, "witness": witness, "witness_name": verdict.witness_name}


def cases() -> dict:
    """Entry key -> (generator call, function computing the pinned fields)."""
    out = {}
    for problem in (*_GRAPH_SOLVERS, *_MODEL_SOLVERS):
        template, make = SOURCES[problem.split("-to-")[0]]
        for n in (64,) if problem == "split-to-unit-interval" else SIZES:
            for s in SEEDS:
                call = template.format(n=n, s=s)
                out[f"{problem} {call}"] = (call, partial(_solve, problem, partial(make, n, s)))
    for problem, *args in TIES:
        call = f"gen_split{tuple(args)}"
        make = partial(randgen.gen_split, *args)
        out.setdefault(f"{problem} {call}", (call, partial(_solve, problem, make)))
    for klass, (label, kinds) in RECOGNIZE.items():
        for kind in kinds:
            template, make = RECOGNIZED[kind]
            for n in SIZES:
                for s in SEEDS:
                    call = template.format(n=n, s=s)
                    run = partial(_recognize, label, partial(make, n, s))
                    out[f"recognize {klass} {call}"] = (call, run)
    return out


def compute(key: str) -> tuple[dict, float]:
    """The pinned fields of one entry, and the seconds they took."""
    call, run = cases()[key]
    t0 = time.perf_counter()
    fields = run()
    return {"call": call, **fields}, time.perf_counter() - t0


def pinned(entry: dict) -> dict:
    return {k: v for k, v in entry.items() if k != "seconds"}


if __name__ == "__main__":
    keys = sorted(cases())
    if not GOLDEN.exists():
        pins = {}
        for key in keys:
            fields, seconds = compute(key)
            pins[key] = {**fields, "seconds": round(seconds, 2)}
            print(f"{seconds:7.2f}s  {key}", flush=True)
        GOLDEN.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
        sys.exit(0)
    pins = json.loads(GOLDEN.read_text())
    bad = sorted(set(keys) ^ set(pins))
    for key in bad:
        print(f"MISSING  {key}: in only one of the script and {GOLDEN.name}")
    for key in sorted(set(keys) & set(pins)):
        fields, seconds = compute(key)
        ok = fields == pinned(pins[key])
        print(f"{'ok' if ok else 'DIFFERS':7}  {seconds:7.2f}s  {key}", flush=True)
        if not ok:
            bad.append(key)
            print(f"         got {fields}\n         pinned {pinned(pins[key])}")
    print(f"{len(pins) - len(bad)} of {len(pins)} entries match")
    sys.exit(1 if bad else 0)
