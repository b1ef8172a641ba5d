"""End-to-end benchmark of the chordel CLI, one workload per run.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Run from the repository root.  Each op is one in-process call of
``chordel.cli.main`` with ``--format records`` on a generated instance file,
run as a closed loop with one client.  The timed region repeats whole passes
over the workload's ops until ``--seconds`` have elapsed (at least three
passes).  Every output is checked afterwards.  With ``--trace 1`` untraced and
traced passes alternate and the per-layer metrics of the traced passes are
reported instead of the end-to-end ones.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"

MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SETUP_REPEATS = 5
SETUP_PROBE_REPEATS = 9
PASS_DEADLINE_S = 120.0  # no new pass starts after this, however few ran
MODULES = ("cli", "graph", "graphio", "interval", "matching", "oracle",
           "patterns", "randgen", "recognition", "reductions",
           "split_solvers", "structural")

# The metrics BENCHMARK.json gates.  latency_p90_ms and fail_share are
# printed but not gated: see README.md.
END_TO_END = {
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

import checks  # noqa: E402
import hostspeed  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from probes import Probes  # noqa: E402


def _import_chordel():
    """A fresh import of the chordel package and every module the ops use."""
    for name in [m for m in sys.modules if m == "chordel" or m.startswith("chordel.")]:
        del sys.modules[name]
    cd = importlib.import_module("chordel")
    for mod in MODULES:
        importlib.import_module(f"chordel.{mod}")
    return cd


def set_up(name: str, seed: int):
    """Import chordel, write the workload's instances and load the reference.

    Done SETUP_REPEATS times; the last set-up is the one used.  Returns the
    median set-up time (scaled by hostspeed), the median wall set-up time,
    the median generator time and the set-up itself.
    """
    times, walls, gen_times = [], [], []
    hostspeed.probe(SETUP_PROBE_REPEATS)  # untimed: the interpreter warms to the kernel
    before = hostspeed.probe(SETUP_PROBE_REPEATS)
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cd = _import_chordel()
        workdir = WORK / name
        shutil.rmtree(workdir, ignore_errors=True)
        wl = workloads.build(cd, name, seed, workdir)
        reference = checks.load_reference(name)
        wall = time.perf_counter() - t0
        after = hostspeed.probe(SETUP_PROBE_REPEATS)
        times.append(wall * hostspeed.scale(before, after))
        walls.append(wall)
        gen_times.append(wl.generate_s)
        before = after
    if seed != checks.DEFAULT_SEED:
        reference = None
    return (statistics.median(times), statistics.median(walls),
            statistics.median(gen_times), cd, wl, reference)


def call_op(main, argv: list[str]):
    """Exit code (or the escaping exception) and stdout of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = f"SystemExit({exc.code})"
        except Exception as exc:  # an escaping exception is a failed op
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue()


class Pass:
    def __init__(self, traced: bool):
        self.traced = traced
        self.wall = 0.0
        self.latency: list[float] = []  # wall seconds per op
        self.scaled: list[float] = []  # the same, scaled by hostspeed
        self.outputs: list[tuple[object, str]] = []
        self.layers: dict[str, float] = {}
        self.per_op: dict[int, tuple[float, float]] = {}


def run_pass(cd, ops, probes: Probes | None) -> Pass:
    argvs = [["--format", "records", *op.argv] for op in ops]
    p = Pass(probes is not None)
    perf = time.perf_counter
    t_pass = perf()
    before = hostspeed.probe()
    for i, argv in enumerate(argvs):
        t0 = perf()
        if probes is None:
            res = call_op(cd.cli.main, argv)
        else:
            res = probes.run_op(i, call_op, cd.cli.main, argv)
        wall = perf() - t0
        after = hostspeed.probe()
        p.latency.append(wall)
        p.scaled.append(wall * hostspeed.scale(before, after))
        p.outputs.append(res)
        before = after
    p.wall = perf() - t_pass
    return p


def measure(cd, ops, seconds: float, trace: bool, probes: Probes) -> list[Pass]:
    """Whole passes for about `seconds`; traced ones alternate in."""
    passes: list[Pass] = []
    t_begin = time.perf_counter()

    def more() -> bool:
        if not passes:
            return True
        elapsed = time.perf_counter() - t_begin
        if elapsed >= PASS_DEADLINE_S:
            return False
        # Start another pass if it should end nearer to `seconds` than this one.
        time_left = elapsed + passes[-1].wall / 2 < seconds
        if trace:
            traced = sum(p.traced for p in passes)
            return traced < MIN_TRACED_PASSES or time_left or not passes[-1].traced
        return len(passes) < MIN_PASSES or time_left

    while more():
        traced = trace and bool(passes) and not passes[-1].traced
        if not traced:
            passes.append(run_pass(cd, ops, None))
            continue
        probes.reset()
        probes.install()
        try:
            p = run_pass(cd, ops, probes)
        finally:
            probes.remove()
        p.layers, p.per_op = layers.aggregate(probes)
        passes.append(p)
    return passes


def warm_up(cd, ops, budget_s: float = 1.0) -> None:
    """First calls of each op kind, untimed, so lazy set-up is not measured."""
    t0 = time.perf_counter()
    for op in ops:
        call_op(cd.cli.main, ["--format", "records", *op.argv])
        if time.perf_counter() - t0 > budget_s:
            break


def _strip_elapsed(stdout: str) -> list[dict]:
    recs = checks.parse_records(stdout)
    for rec in recs:
        rec.pop("elapsed_ms", None)
    return recs


def check_passes(checker, ops, passes: list[Pass]) -> tuple[list[int], list[str]]:
    """Failed runs of each op over all passes, and the first problems found."""
    failed = [0] * len(ops)
    problems: list[str] = []
    for p in passes:
        for i, (op, (code, stdout)) in enumerate(zip(ops, p.outputs)):
            bad = checker.check(op, code, stdout)
            if bad:
                failed[i] += 1
                if len(problems) < 20:
                    problems.append(f"{op.id}: {'; '.join(bad)}")
    return failed, problems


def trace_problems(ops, passes: list[Pass]) -> list[str]:
    """Traced records must equal untraced ones; counts must repeat."""
    problems = []
    plain = next(p for p in passes if not p.traced)
    base = [_strip_elapsed(out) for _, out in plain.outputs]
    traced = [p for p in passes if p.traced]
    for p in traced:
        for op, want, (_, out) in zip(ops, base, p.outputs):
            if _strip_elapsed(out) != want:
                problems.append(f"traced record differs: {op.id}")
                break
        for name in layers.COUNTS:
            if p.layers[name] != traced[0].layers[name]:
                problems.append(f"count {name} differs between traced passes")
        for op_id, (span, self_sum) in p.per_op.items():
            if self_sum > span * (1 + 1e-9) + 1e-9:
                problems.append(f"self times exceed the op span: {ops[op_id].id}")
                break
    return problems


def _quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def timing(passes: list[Pass], idx: list[int]) -> dict:
    """Throughput and latency percentiles of the ops at indices `idx`.

    From scaled times (see hostspeed): each op's median over the passes, and
    the median over the passes of their throughput.  The same figures from
    wall times are kept as `wall_*` for the report.
    """
    def figures(times: str) -> tuple[float, float, float]:
        per_op = [statistics.median(getattr(p, times)[i] for p in passes) for i in idx]
        rate = statistics.median(len(idx) / sum(getattr(p, times)[i] for i in idx)
                                 for p in passes)
        return rate, statistics.median(per_op) * 1000, _quantile(per_op, 9) * 1000

    rate, p50, p90 = figures("scaled")
    wall_rate, wall_p50, wall_p90 = figures("latency")
    return {
        "ops_per_s": rate, "latency_p50_ms": p50, "latency_p90_ms": p90,
        "wall_ops_per_s": wall_rate, "wall_latency_p50_ms": wall_p50,
        "wall_latency_p90_ms": wall_p90,
    }


def per_layer(passes: list[Pass], generate_s: float) -> dict:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    out = {}
    for name, unit in layers.PER_LAYER.items():
        if unit in ("count", "bytes"):
            out[name] = traced[0].layers[name]
        elif name not in ("randgen.generate_s", "trace.overhead_share"):
            out[name] = statistics.median(p.layers[name] for p in traced)
    out["randgen.generate_s"] = generate_s
    out["trace.overhead_share"] = (
        statistics.median(p.wall for p in traced)
        / statistics.median(p.wall for p in plain) - 1
    )
    return out


def _shares(ops, op_rows: dict, insts: dict) -> dict:
    """Shares of one part's ops with each property its cost depends on."""
    rows = [op_rows[op.id] for op in ops]
    shares = {"ops": len(ops)}
    for kind in ("recognize", "solve", "oracle", "reduce"):
        count = sum(op.kind == kind for op in ops)
        if count:
            shares[f"{kind}_ops"] = count
    member = [r["member"] for r in rows if "member" in r]
    if member:
        shares["recognize_accept_share"] = sum(member) / len(member)
    capped = [op_rows[op.id].get("exceeds_kmax", False) for op in ops if "--kmax" in op.argv]
    if capped:
        shares["oracle_exceeds_kmax_share"] = sum(capped) / len(capped)
    ks = [r["k"] for r in rows if "k" in r]
    if ks:
        shares.update(k_mean=statistics.mean(ks), k_min=min(ks), k_max=max(ks),
                      k_zero_share=ks.count(0) / len(ks))
    split = [insts[name] for name in {op.instance for op in ops}
             if insts[name]["generator"] == "split"]
    if split:
        for s in range(3):
            shares[f"split_I_stratum{s}_share"] = sum(
                workloads.stratum(r["independent"], r["n"]) == s for r in split) / len(split)
        shares["split_multi_partition_share"] = sum(
            r["split_partitions"] > 1 for r in split) / len(split)
    return shares


def manifest(cd, wl, ops, outputs) -> dict:
    """Instances with the properties cost depends on, and workload shares."""
    insts = {}
    for name, inst in wl.instances.items():
        row = {"generator": inst.generator, "seed": inst.seed, "n": inst.n, **inst.props}
        if inst.bias is not None:
            row["edge_bias"] = inst.bias
        if inst.generator == "split":
            g, _ = cd.graphio.sniff_and_parse(Path(inst.path).read_text(encoding="utf-8"))
            row["independent"] = len(cd.recognition.split_partition(g).independent)
            row["split_partitions"] = len(cd.recognition.enumerate_split_partitions(g))
        insts[name] = row
    op_rows = {}
    for op, (_, stdout) in zip(ops, outputs):
        rec = (checks.parse_records(stdout) or [{}])[0]
        row = {"part": op.part, "kind": op.kind, "instance": op.instance}
        if op.image:
            insts[op.image].update(n=rec.get("n"), m=rec.get("m"))
        row.update({key: rec[key] for key in ("member", "k", "exceeds_kmax") if key in rec})
        op_rows[op.id] = row
    shares = {part: _shares([op for op in ops if op.part == part], op_rows, insts)
              for part in workloads.PARTS[wl.name]}
    return {"workload": wl.name, "seed": wl.seed, "shares": shares,
            "instances": insts, "ops": op_rows}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    setup_s, setup_wall_s, generate_s, cd, wl, reference = set_up(name, seed)
    ops = wl.ops
    warm_up(cd, ops)
    probes = Probes()
    passes = measure(cd, ops, seconds, trace, probes)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    checker = checks.Checker(cd, wl, reference)
    failed_per_op, problems = check_passes(checker, ops, passes)
    attempted, failed = len(ops) * len(passes), sum(failed_per_op)
    if trace:
        problems += trace_problems(ops, passes)
        probes.write(WORK / name / "spans.tsv.gz")
    info = manifest(cd, wl, ops, passes[0].outputs)
    (WORK / name / "manifest.json").write_text(json.dumps(info, indent=1), encoding="utf-8")

    for line in problems:
        print(f"problem: {line}", file=sys.stderr)
    n_traced = sum(p.traced for p in passes)
    print(f"workload {name}  seed {seed}  reference "
          f"{'used' if reference is not None else 'not used (computed checks)'}")
    print(f"  closed loop, 1 client; {len(ops)} ops per pass, {len(passes)} passes "
          f"({n_traced} traced), {sum(p.wall for p in passes):.2f} s timed")
    for part, shares in info["shares"].items():
        for key, val in shares.items():
            print(f"  manifest {part} {key} = {val:.4g}" if isinstance(val, float)
                  else f"  manifest {part} {key} = {val}")
    if trace:
        metrics = {k: {"value": v, "unit": layers.PER_LAYER[k]}
                   for k, v in per_layer(passes, generate_s).items()}
        if probes.missing:
            print(f"  probes not found: {', '.join(probes.missing)}")
        zero = [m for m, wls in layers.EXPECTED_NONZERO.items()
                if name in wls and not metrics[m]["value"]]
        if zero:
            print(f"  warning: zero on a workload that should exercise it: {', '.join(zero)}")
    else:
        values = timing(passes, list(range(len(ops))))
        values.update(setup_s=setup_s, wall_setup_s=setup_wall_s, peak_rss_mb=rss_kib / 1024)
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
    for key, m in metrics.items():
        print(f"  {key:36} {m['value']:>14.6g} {m['unit']}")
    if not trace:
        print(f"  {'latency_p90_ms':36} {values['latency_p90_ms']:>14.6g} ms")
        for key, unit in (("wall_ops_per_s", "ops/s"), ("wall_latency_p50_ms", "ms"),
                          ("wall_latency_p90_ms", "ms"), ("wall_setup_s", "s")):
            print(f"  {key + ' (unscaled)':36} {values[key]:>14.6g} {unit}")
    print(f"  fail_share {failed / attempted:.4g} ratio ({failed} of {attempted} ops failed)")
    if not trace:
        for part in [None, *workloads.PARTS[name]]:
            idx = [i for i, op in enumerate(ops) if part in (None, op.part)]
            beyond = len(idx) - int(0.9 * len(idx))
            part_failed = sum(failed_per_op[i] for i in idx)
            line = (f"  latency_p90_ms over {len(idx)} ops ({beyond} above it), "
                    f"each op the median of {len(passes)} passes")
            if part is not None:
                t = timing(passes, idx)
                line = (f"  part {part}: ops_per_s {t['ops_per_s']:.4g} ops/s, latency_p50_ms "
                        f"{t['latency_p50_ms']:.4g} ms, latency_p90_ms {t['latency_p90_ms']:.4g} ms "
                        f"over {len(idx)} ops ({beyond} above it), fail_share "
                        f"{part_failed / (len(idx) * len(passes)):.4g} ratio")
            print(line)
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def run_all(args) -> int:
    """Every workload in its own process, then one summary line each."""
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({"seed": args.seed, "workloads": results}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    if not (SRC / "chordel" / "__init__.py").is_file():
        print(f"error: no chordel sources at {SRC}; run from a repository checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.exit(main())
