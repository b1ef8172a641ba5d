"""Write the committed reference outputs for the default seed.

    python3 perfbench/make_reference.py [workload ...]

Runs every op of each workload once with the default seed and keeps the
fields ``checks.PINNED`` names.  Before writing, each output is checked the
way a non-default seed is: against the oracle for ops on at most
``checks.ORACLE_N`` vertices, against a direct library call for recognize
ops, and for witness form and remainder membership.  Nothing is written if
any op fails those checks.
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
import run
import workloads


def make(name: str) -> int:
    cd = run._import_chordel()
    workdir = run.WORK / name
    shutil.rmtree(workdir, ignore_errors=True)
    wl = workloads.build(cd, name, checks.DEFAULT_SEED, workdir)
    checker = checks.Checker(cd, wl, reference=None)
    ops, bad = {}, 0
    for op in wl.ops:
        code, stdout = run.call_op(cd.cli.main, ["--format", "records", *op.argv])
        problems = checker.check(op, code, stdout)
        if problems:
            bad += 1
            print(f"{op.id}: {'; '.join(problems)}", file=sys.stderr)
        ops[op.id] = checks.pinned_fields(code, checks.parse_records(stdout))
    if bad:
        print(f"{name}: {bad} ops failed their checks; reference not written",
              file=sys.stderr)
        return 1
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    doc = {"workload": name, "seed": checks.DEFAULT_SEED, "ops": ops}
    with open(checks.reference_path(name), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{name}: {len(ops)} ops written to {checks.reference_path(name)}")
    return 0


if __name__ == "__main__":
    if not (run.SRC / "chordel" / "__init__.py").is_file():
        print(f"error: no chordel sources at {run.SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(run.SRC))
    names = sys.argv[1:] or list(workloads.WORKLOADS)
    sys.exit(max(make(name) for name in names))
