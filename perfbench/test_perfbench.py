"""Self-checks of the benchmark: tracing, probes and output checks.

    python3 -m pytest perfbench -q

Each workload is built once with the default seed and run for one untraced
and two traced passes; the tests read those passes.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from probes import PROBED, Probes  # noqa: E402

CD = run._import_chordel()
_RUNS: dict[str, tuple] = {}


def _traced_pass(cd, ops, probes: Probes) -> run.Pass:
    probes.reset()
    probes.install()
    try:
        p = run.run_pass(cd, ops, probes)
    finally:
        probes.remove()
    p.layers, p.per_op = layers.aggregate(probes)
    return p


def passes_of(name: str, tmp_root: Path):
    """(chordel, workload, probes, [untraced, traced, traced]) for one workload."""
    if name not in _RUNS:
        cd = CD
        wl = workloads.build(cd, name, checks.DEFAULT_SEED, tmp_root / name)
        probes = Probes()
        plain = run.run_pass(cd, wl.ops, None)
        traced = [_traced_pass(cd, wl.ops, probes) for _ in range(2)]
        _RUNS[name] = (cd, wl, probes, [plain] + traced)
    return _RUNS[name]


@pytest.fixture(scope="module")
def tmp_root(tmp_path_factory):
    return tmp_path_factory.mktemp("perfbench")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_outputs_match_reference(name, tmp_root):
    cd, wl, _, passes = passes_of(name, tmp_root)
    checker = checks.Checker(cd, wl, checks.load_reference(name))
    failed, problems = run.check_passes(checker, wl.ops, passes)
    assert len(failed) == len(wl.ops)
    assert sum(failed) == 0, problems


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_records_equal_untraced(name, tmp_root):
    _, wl, _, passes = passes_of(name, tmp_root)
    assert run.trace_problems(wl.ops, passes) == []
    for p in passes[1:]:
        for want, got in zip(passes[0].outputs, p.outputs):
            assert run._strip_elapsed(got[1]) == run._strip_elapsed(want[1])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_probe_fires_where_expected(name, tmp_root):
    _, _, probes, passes = passes_of(name, tmp_root)
    assert probes.missing == []
    totals = passes[1].layers
    zero = [m for m, wls in layers.EXPECTED_NONZERO.items()
            if name in wls and m != "randgen.generate_s" and not totals[m]]
    assert zero == []


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_self_times_fit_in_op_span(name, tmp_root):
    _, wl, _, passes = passes_of(name, tmp_root)
    for p in passes[1:]:
        assert set(p.per_op) == set(range(len(wl.ops)))
        for span, self_sum in p.per_op.values():
            assert self_sum <= span * (1 + 1e-9) + 1e-9


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_counts_repeat_between_traced_passes(name, tmp_root):
    _, _, _, passes = passes_of(name, tmp_root)
    for metric in layers.COUNTS:
        assert passes[1].layers[metric] == passes[2].layers[metric], metric


def test_probes_restore_every_binding(tmp_root):
    cd, _, _, _ = passes_of("solve", tmp_root)
    for mod_name, func, _, _ in PROBED:
        assert not hasattr(getattr(getattr(cd, mod_name), func), "__wrapped__")
    assert not hasattr(cd.cli._GRAPH_SOLVERS["split-to-cluster"], "__wrapped__")
    assert not hasattr(cd.oracle.recognize, "__wrapped__")


def test_probes_reach_every_binding(tmp_root):
    cd, _, _, _ = passes_of("solve", tmp_root)
    probes = Probes()
    probes.install()
    try:
        assert hasattr(cd.split_solvers.recognize, "__wrapped__")
        assert hasattr(cd.oracle.recognize, "__wrapped__")
        assert hasattr(cd.interval.max_clique_window, "__wrapped__")
        assert hasattr(cd.cli._GRAPH_SOLVERS["split-to-cluster"], "__wrapped__")
        assert hasattr(cd.cli._MODEL_SOLVERS["interval-to-cluster"], "__wrapped__")
    finally:
        probes.remove()


def test_checker_flags_wrong_answers(tmp_root):
    cd, wl, _, passes = passes_of("certify", tmp_root)
    checker = checks.Checker(cd, wl, checks.load_reference("certify"))
    op, (code, out) = next((op, res) for op, res in zip(wl.ops, passes[0].outputs)
                           if op.kind == "oracle")
    assert checker.check(op, code, out) == []
    assert checker.check(op, 1, out) != []
    assert checker.check(op, code, out.replace('"k": ', '"k": 1')) != []
    assert checker.check(op, code, "") != []


def test_other_seed_uses_computed_checks(tmp_path):
    cd = CD
    wl = workloads.build(cd, "certify", 2, tmp_path)
    checker = checks.Checker(cd, wl, reference=None)
    ops = [op for op in wl.ops if op.part == "oracle-certify"
           and ("n10" in op.instance or op.kind == "reduce")]
    p = run.run_pass(cd, ops, None)
    assert sum(run.check_passes(checker, ops, [p])[0]) == 0


def test_seed_fixes_inputs(tmp_path):
    cd = CD
    a = workloads.build(cd, "solve", 5, tmp_path / "a")
    b = workloads.build(cd, "solve", 5, tmp_path / "b")
    c = workloads.build(cd, "solve", 6, tmp_path / "c")
    text = lambda wl: [Path(i.path).read_text() for i in wl.instances.values()]
    assert text(a) == text(b) != text(c)
    assert [op.id for op in a.ops] == [op.id for op in c.ops]


def test_scaled_times_follow_the_probes(tmp_path):
    assert hostspeed.scale(hostspeed.NOMINAL_S, hostspeed.NOMINAL_S) == 1
    assert hostspeed.scale(1e-3, 3e-3) == hostspeed.NOMINAL_S / 2e-3
    assert 0 < hostspeed.probe(3) < 1
    wl = workloads.build(CD, "certify", 2, tmp_path)
    ops = wl.ops[:20]
    p = run.run_pass(CD, ops, None)
    assert len(p.scaled) == len(p.latency) == len(ops)
    assert all(s > 0 for s in p.scaled)
    t = run.timing([p, p, p], list(range(len(ops))))
    assert t["wall_latency_p50_ms"] > 0 and t["ops_per_s"] > 0
