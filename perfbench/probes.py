"""Span recorder that times calls into chordel's modules from outside.

``Probes.install`` replaces every binding of a probed function: the module
attribute that defines it, each ``from ... import`` copy in another chordel
module, and each dict entry holding it (the CLI's solver tables).  Module
globals are looked up at call time, so calls inside the package are caught
too.  ``Probes.remove`` puts every original back.  Nothing under ``src/`` is
edited, and an untraced pass runs with no wrapper installed.

A span holds its name, start, end, parent span and op id.  Spans stay in
flat arrays while a pass runs and are aggregated or written afterwards.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array

# (defining module, function, self-time group, attribute recorded per call)
PROBED = (
    ("graphio", "sniff_and_parse", "graphio.parse", "bytes"),
    ("graphio", "parse_edge_list", "graphio.parse", "bytes"),
    ("graphio", "from_graph6", "graphio.parse", "bytes"),
    ("graphio", "write_edge_list", "graphio.write", None),
    ("graphio", "to_graph6", "graphio.write", None),
    ("recognition", "recognize", "recognition.recognize", "member"),
    ("recognition", "chordal_peo", "recognition.chordal_peo", None),
    ("recognition", "maximum_cardinality_search", "recognition.chordal_peo", None),
    ("recognition", "is_perfect_elimination_ordering", "recognition.chordal_peo", None),
    ("recognition", "find_hole", "recognition.hole", None),
    ("recognition", "find_asteroidal_triple", "recognition.asteroidal_triple", None),
    ("recognition", "split_partition", "recognition.split_partition", None),
    ("recognition", "is_valid_split_partition", "recognition.split_partition", None),
    ("recognition", "enumerate_split_partitions", "recognition.enumerate_partitions", "length"),
    ("split_solvers", "delete_to_2k2p3", "split_solvers.self", None),
    ("split_solvers", "delete_to_cluster_split", "split_solvers.self", None),
    ("split_solvers", "delete_to_complete_split", "split_solvers.self", None),
    ("split_solvers", "delete_to_unit_interval_split", "split_solvers.self", None),
    # _best receives the full candidate family: one call per solve.
    ("split_solvers", "_best", "split_solvers.self", "first_length"),
    ("matching", "cover_from_adjacency", "matching.cover", "edges"),
    ("matching", "max_matching", "matching.cover", None),
    ("matching", "min_vertex_cover", "matching.cover", None),
    ("interval", "parse_interval_model", "interval.model_parse", None),
    ("interval", "model_to_graph", "interval.self", None),
    ("interval", "max_clique_window", "interval.window", None),
    ("interval", "max_cluster_subgraph", "interval.self", None),
    ("interval", "max_complete_split_subgraph", "interval.self", None),
    ("structural", "build_block_cut_tree", "structural.block_cut_tree", None),
    ("structural", "delete_to_cluster_tree", "structural.self", None),
    ("structural", "delete_to_cluster_block", "structural.self", None),
    ("structural", "delete_to_cochain_chordal", "structural.self", None),
    ("structural", "list_maximal_cliques_chordal", "structural.self", None),
    ("structural", "max_independent_set_chordal", "structural.self", None),
    ("oracle", "oracle_min_deletion", "oracle.self", "found"),
    ("reductions", "reduce_chain_to_threshold", "reductions.build", None),
    ("reductions", "reduce_threshold_to_interval", "reductions.build", None),
    ("reductions", "reduce_vc_to_ffree", "reductions.build", None),
    ("reductions", "bowtie", "reductions.build", None),
    ("graph", "delete_vertices", "graph.delete_vertices", None),
    ("graph", "induced_subgraph", "graph.induced_subgraph", None),
    ("graph", "complement", "graph.complement", None),
)

OP_SPAN = "cli.main@perfbench"
OP_GROUP = "cli.self"

_ATTRS = {
    "bytes": lambda args, out: len(args[0]),
    "member": lambda args, out: int(out.member),
    "length": lambda args, out: len(out),
    "first_length": lambda args, out: len(args[0]),
    "edges": lambda args, out: sum(len(rs) for rs in args[1].values()),
    "found": lambda args, out: int(out is not None),
}


class Probes:
    """Installs wrappers, records spans, and restores the bindings."""

    def __init__(self) -> None:
        self.names: list[str] = [OP_SPAN]
        self.groups: list[str] = [OP_GROUP]
        self.funcs: list[str] = ["cli.main"]
        self.sites: list[str] = ["perfbench"]
        self.missing: list[str] = []
        self._restore: list[tuple[object, object, object]] = []
        self.op = -1
        self.reset()

    def reset(self) -> None:
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op_of = array("i")
        self.attrs: dict[int, int] = {}
        self._stack: list[int] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_of.append(self.op)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def run_op(self, op_id: int, fn, *args):
        """Run one op under the op span (name id 0)."""
        self.op = op_id
        i = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(i)

    def _wrap(self, fn, name_id: int, attr):
        probes = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = probes._open(name_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                probes._close(i)
            if attr is not None:
                probes.attrs[i] = attr(args, out)
            return out

        return traced

    # -- installing --------------------------------------------------------

    def install(self, package: str = "chordel") -> None:
        """Wrap every binding of every probed function in loaded modules."""
        modules = {
            name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == package or name.startswith(package + "."))
        }
        targets = {}
        self.missing = []
        for mod_name, func, group, attr in PROBED:
            mod = modules.get(f"{package}.{mod_name}")
            fn = getattr(mod, func, None) if mod is not None else None
            if fn is None:
                self.missing.append(f"{mod_name}.{func}")
                continue
            targets[fn] = (f"{mod_name}.{func}", group, _ATTRS.get(attr))
        wrappers: dict[tuple[object, str], object] = {}

        def wrapper_for(fn, site: str):
            key = (fn, site)
            if key not in wrappers:
                label, group, attr = targets[fn]
                name = f"{label}@{site}"
                if name not in self.names:
                    self.names.append(name)
                    self.groups.append(group)
                    self.funcs.append(label)
                    self.sites.append(site)
                wrappers[key] = self._wrap(fn, self.names.index(name), attr)
            return wrappers[key]

        for mod_name, mod in sorted(modules.items()):
            site = mod_name[len(package) + 1:] or package
            for attr_name, val in list(vars(mod).items()):
                if attr_name.startswith("__"):
                    continue
                if callable(val) and val in targets:
                    self._restore.append((mod, attr_name, val))
                    setattr(mod, attr_name, wrapper_for(val, site))
                elif isinstance(val, dict):
                    for key, entry in list(val.items()):
                        if callable(entry) and entry in targets:
                            self._restore.append((val, key, entry))
                            val[key] = wrapper_for(entry, site)

    def remove(self) -> None:
        """Put back every binding that install replaced."""
        for holder, key, original in reversed(self._restore):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._restore.clear()

    # -- reading spans -----------------------------------------------------

    def self_times(self) -> tuple[list[float], list[float]]:
        """Duration and self time of every span."""
        count = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(count)]
        covered = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                covered[p] += dur[i]
        return dur, [d - c for d, c in zip(dur, covered)]

    def write(self, path) -> None:
        """All spans of the current buffer as gzipped tab-separated rows."""
        base = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("span\top\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.op_of[i]}\t{self.parent[i]}\t{self.names[self.name[i]]}"
                    f"\t{self.start[i] - base:.9f}\t{self.end[i] - base:.9f}\n"
                )
