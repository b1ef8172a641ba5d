"""Capture tests/golden/randgen_digests.json: one sha256 per seeded generator call.

Each digest is of the call's output as `write_edge_list` (graphs) or
`write_interval_model` (the interval model) prints it, for all seven
generators at n = 64, 256 and 1024, seeds 1 and 2.  Run it once, from the
repository root, at a commit whose generators are trusted:

    PYTHONPATH=src python tests/capture_randgen_digests.py

It refuses to overwrite an existing file.
"""

import hashlib
import json
import sys
from pathlib import Path

from chordel import randgen
from chordel.graphio import write_edge_list
from chordel.interval import write_interval_model

GOLDEN = Path(__file__).parent / "golden" / "randgen_digests.json"

SIZES = (64, 256, 1024)
SEEDS = (1, 2)

# call name -> (n, seed) -> printed output
GENERATORS = {
    "gen_split": lambda n, s: write_edge_list(randgen.gen_split(n, 0.5, s)),
    "gen_threshold": lambda n, s: write_edge_list(randgen.gen_threshold(n, s)[0]),
    "gen_interval_model": lambda n, s: write_interval_model(randgen.gen_interval_model(n, s)),
    "gen_chordal": lambda n, s: write_edge_list(randgen.gen_chordal(n, s)),
    "gen_block": lambda n, s: write_edge_list(randgen.gen_block(n, s)),
    "gen_bipartite": lambda n, s: write_edge_list(randgen.gen_bipartite(n, 0.5, s)[0]),
    "gen_tree": lambda n, s: write_edge_list(randgen.gen_tree(n, s)),
}


def case_key(name: str, n: int, seed: int) -> str:
    return f"{name}({n}, {seed})"


def digest(name: str, n: int, seed: int) -> str:
    return hashlib.sha256(GENERATORS[name](n, seed).encode()).hexdigest()


if __name__ == "__main__":
    if GOLDEN.exists():
        sys.exit(f"{GOLDEN} exists; delete it by hand to capture again")
    pins = {
        case_key(name, n, seed): digest(name, n, seed)
        for name in GENERATORS
        for n in SIZES
        for seed in SEEDS
    }
    GOLDEN.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
