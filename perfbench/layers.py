"""Per-layer metrics computed from one traced pass.

Time metrics ending in ``self_s`` or naming a function (``parse_s``,
``window_s``, ...) are self time: a span's duration minus the part its child
spans cover.  These groups partition each op's span, so they add up to no
more than the op's wall time.  Five metrics are instead the full duration of
calls made through one binding, and overlap the self-time groups:
``split_solvers.verify_s``, ``structural.verify_s``, ``interval.verify_s``,
``oracle.recognize_s`` and ``oracle.delete_s``.
"""

from __future__ import annotations

from collections import defaultdict

# name -> unit, in report order
PER_LAYER = {
    "cli.self_s": "s",
    "graphio.parse_s": "s",
    "graphio.parse_bytes": "bytes",
    "graphio.write_s": "s",
    "recognition.accept_s": "s",
    "recognition.accept_calls": "count",
    "recognition.reject_s": "s",
    "recognition.reject_calls": "count",
    "recognition.chordal_peo_s": "s",
    "recognition.asteroidal_triple_s": "s",
    "recognition.hole_s": "s",
    "recognition.split_partition_s": "s",
    "recognition.enumerate_partitions_s": "s",
    "recognition.partitions_enumerated": "count",
    "split_solvers.self_s": "s",
    "split_solvers.candidates": "count",
    "split_solvers.verify_s": "s",
    "matching.cover_s": "s",
    "matching.cover_calls": "count",
    "matching.cover_edges": "count",
    "matching.useful_share": "ratio",
    "interval.self_s": "s",
    "interval.window_s": "s",
    "interval.window_calls": "count",
    "interval.verify_s": "s",
    "interval.model_parse_s": "s",
    "structural.self_s": "s",
    "structural.block_cut_tree_s": "s",
    "structural.block_cut_tree_calls": "count",
    "structural.verify_s": "s",
    "oracle.self_s": "s",
    "oracle.subsets_tried": "count",
    "oracle.recognize_s": "s",
    "oracle.delete_s": "s",
    "oracle.hit_share": "ratio",
    "reductions.build_s": "s",
    "graph.delete_vertices_s": "s",
    "graph.induced_subgraph_s": "s",
    "graph.complement_s": "s",
    "randgen.generate_s": "s",
    "trace.overhead_share": "ratio",
}

# Self-time group -> metric.  recognize spans split by verdict.
_SELF_METRIC = {
    "cli.self": "cli.self_s",
    "graphio.parse": "graphio.parse_s",
    "graphio.write": "graphio.write_s",
    "recognition.chordal_peo": "recognition.chordal_peo_s",
    "recognition.hole": "recognition.hole_s",
    "recognition.asteroidal_triple": "recognition.asteroidal_triple_s",
    "recognition.split_partition": "recognition.split_partition_s",
    "recognition.enumerate_partitions": "recognition.enumerate_partitions_s",
    "split_solvers.self": "split_solvers.self_s",
    "matching.cover": "matching.cover_s",
    "interval.self": "interval.self_s",
    "interval.window": "interval.window_s",
    "interval.model_parse": "interval.model_parse_s",
    "structural.self": "structural.self_s",
    "structural.block_cut_tree": "structural.block_cut_tree_s",
    "oracle.self": "oracle.self_s",
    "reductions.build": "reductions.build_s",
    "graph.delete_vertices": "graph.delete_vertices_s",
    "graph.induced_subgraph": "graph.induced_subgraph_s",
    "graph.complement": "graph.complement_s",
}

# Inclusive time of calls through one binding: metric -> (function, site) pairs.
_BINDING_METRIC = {
    "split_solvers.verify_s": (("recognition.recognize", "split_solvers"),),
    "structural.verify_s": (("recognition.recognize", "structural"),),
    "interval.verify_s": (("recognition.recognize", "interval"),
                          ("interval.model_to_graph", "interval")),
    "oracle.recognize_s": (("recognition.recognize", "oracle"),),
    "oracle.delete_s": (("graph.delete_vertices", "oracle"),),
}

# Metric -> workloads on which it must be non-zero; a zero there means a
# probe stopped matching the program, not that the layer did no work.
EXPECTED_NONZERO = {
    "cli.self_s": ("solve", "certify"),
    "graphio.parse_s": ("certify", "solve"),
    "graphio.parse_bytes": ("certify", "solve"),
    "graphio.write_s": ("certify", "solve"),
    "recognition.accept_s": ("certify", "solve"),
    "recognition.accept_calls": ("certify", "solve"),
    "recognition.reject_s": ("certify",),
    "recognition.reject_calls": ("certify",),
    "recognition.chordal_peo_s": ("certify",),
    "recognition.asteroidal_triple_s": ("certify",),
    "recognition.hole_s": ("certify",),
    "recognition.split_partition_s": ("solve",),
    "recognition.enumerate_partitions_s": ("solve",),
    "recognition.partitions_enumerated": ("solve",),
    "split_solvers.self_s": ("solve",),
    "split_solvers.candidates": ("solve",),
    "split_solvers.verify_s": ("solve",),
    "matching.cover_s": ("solve",),
    "matching.cover_calls": ("solve",),
    "matching.cover_edges": ("solve",),
    "matching.useful_share": ("solve",),
    "interval.self_s": ("solve",),
    "interval.window_s": ("solve",),
    "interval.window_calls": ("solve",),
    "interval.verify_s": ("solve",),
    "interval.model_parse_s": ("solve",),
    "structural.self_s": ("solve",),
    "structural.block_cut_tree_s": ("solve",),
    "structural.block_cut_tree_calls": ("solve",),
    "structural.verify_s": ("solve",),
    "oracle.self_s": ("certify",),
    "oracle.subsets_tried": ("certify",),
    "oracle.recognize_s": ("certify",),
    "oracle.delete_s": ("certify",),
    "oracle.hit_share": ("certify",),
    "reductions.build_s": ("certify",),
    "graph.delete_vertices_s": ("solve", "certify"),
    "graph.induced_subgraph_s": ("solve", "certify"),
    "graph.complement_s": ("solve", "certify"),
    "randgen.generate_s": ("solve", "certify"),
}

COUNTS = tuple(k for k, unit in PER_LAYER.items() if unit in ("count", "bytes"))


def aggregate(probes) -> tuple[dict[str, float], dict[int, tuple[float, float]]]:
    """Per-layer totals of the recorded pass, and per op (span, self sum)."""
    dur, self_t = probes.self_times()
    out: dict[str, float] = defaultdict(float)
    per_op: dict[int, list[float]] = {}
    binding = {pair: metric for metric, pairs in _BINDING_METRIC.items() for pair in pairs}
    groups, funcs, sites = probes.groups, probes.funcs, probes.sites
    ops_with_cover: set[int] = set()
    oracle_found = 0
    for i in range(len(dur)):
        nid = probes.name[i]
        group = groups[nid]
        op = probes.op_of[i]
        if nid == 0:
            per_op[op] = [dur[i], 0.0]
        if group == "recognition.recognize":
            verdict = "accept" if probes.attrs.get(i) else "reject"
            out[f"recognition.{verdict}_s"] += self_t[i]
            out[f"recognition.{verdict}_calls"] += 1
        else:
            out[_SELF_METRIC[group]] += self_t[i]
        per_op[op][1] += self_t[i]
        metric = binding.get((funcs[nid], sites[nid]))
        if metric is not None:
            out[metric] += dur[i]
        func = funcs[nid]
        if func == "matching.cover_from_adjacency":
            out["matching.cover_calls"] += 1
            out["matching.cover_edges"] += probes.attrs[i]
            ops_with_cover.add(op)
        elif func == "split_solvers._best":
            out["split_solvers.candidates"] += probes.attrs[i]
        elif func == "recognition.enumerate_split_partitions":
            out["recognition.partitions_enumerated"] += probes.attrs[i]
        elif func == "interval.max_clique_window":
            out["interval.window_calls"] += 1
        elif func == "structural.build_block_cut_tree":
            out["structural.block_cut_tree_calls"] += 1
        elif func == "oracle.oracle_min_deletion":
            oracle_found += probes.attrs[i]
        elif group == "graphio.parse" and (
            probes.parent[i] < 0 or groups[probes.name[probes.parent[i]]] != "graphio.parse"
        ):
            out["graphio.parse_bytes"] += probes.attrs[i]
        if (funcs[nid], sites[nid]) == ("recognition.recognize", "oracle"):
            out["oracle.subsets_tried"] += 1
    if out["matching.cover_calls"]:
        out["matching.useful_share"] = len(ops_with_cover) / out["matching.cover_calls"]
    if out["oracle.subsets_tried"]:
        out["oracle.hit_share"] = oracle_found / out["oracle.subsets_tried"]
    totals = {name: out.get(name, 0.0) for name in PER_LAYER}
    return totals, {op: (v[0], v[1]) for op, v in per_op.items()}
