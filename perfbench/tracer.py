"""Spans around the public functions of every itline module, recorded from outside.

``Tracer.install`` wraps each public function that an itline module defines
and rebinds the wrapper under every module-level name that holds the
function, so calls through ``from .x import f`` bindings are seen too.  A
span is (name, start, end, parent span); spans stay in memory until
``write`` saves them.  ``Budget.tick`` is counted, not spanned: it runs once
per search node.  Nothing in ``src/`` is edited; ``uninstall`` restores every
binding, and ``install`` may be called again to trace the next call.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import Counter


def _said_no(answer) -> bool:
    return getattr(answer, "value", None) is False


#: Extra counts taken from a wrapped call's result: span name -> (metric, fn).
RESULT_COUNTS = {
    "hamilton.has_hamiltonian_path": ("hamilton.oracle_no", _said_no),
    "hamilton.has_hamiltonian_cycle": ("hamilton.oracle_no", _said_no),
    "eup.find_witness": ("eup.witnesses_found", lambda r: type(r).__name__ == "SubgraphH"),
    "linegraph.line_graph": ("linegraph.vertices_built", lambda r: r.graph.vertex_count),
}


def _itline_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if name == "itline" or name.startswith("itline.")]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = [-1]
        self._bindings: list[tuple[object, str, object, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        hook = RESULT_COUNTS.get(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    idx = tracer._open(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(idx)
                    yield item
            return gen_wrapper

        def wrapper(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                tracer.counts[hook[0]] += hook[1](result)
            return result
        return wrapper

    def install(self) -> None:
        """Rebind every wrapper; the wrappers are made on the first call only."""
        if not self._bindings:
            self._bindings = self._make_bindings()
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._bindings):
            setattr(owner, attr, original)

    def _make_bindings(self) -> list[tuple[object, str, object, object]]:
        modules = _itline_modules()
        wrappers: dict[int, object] = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__ and obj.__name__ == attr):
                    wrappers[id(obj)] = self._wrap(obj, f"{short}.{attr}")
        bindings = [(mod, attr, obj, wrappers[id(obj)])
                    for mod in modules for attr, obj in list(vars(mod).items())
                    if id(obj) in wrappers and inspect.isfunction(obj)]

        from itline.budget import Budget

        tick = Budget.tick
        counts = self.counts

        def counted_tick(budget, n=1):
            counts["budget.expansions"] += n
            return tick(budget, n)

        return bindings + [(Budget, "tick", tick, counted_tick)]

    # -- analysis -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Self times, call counts and the other per-layer figures of the spans."""
        n = len(self.span_name)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        nid = {name: i for i, name in enumerate(self.names)}
        self_s = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        longest = [0.0] * len(self.names)
        fw = nid.get("eup.find_witness", -2)
        cc = nid.get("eup.canonical_candidate", -2)
        in_fw = bytearray(n)
        leaves = 0
        for i in range(n):
            k = self.span_name[i]
            self_s[k] += dur[i] - child[i]
            calls[k] += 1
            longest[k] = max(longest[k], dur[i])
            p = self.span_parent[i]
            in_fw[i] = k == fw or (p >= 0 and in_fw[p])
            if k == cc and p >= 0 and in_fw[p]:
                leaves += 1

        def total(values, *names):
            return sum(values[nid[x]] for x in names if x in nid)

        enumerate_fns = ("harness.corpus_graphs", "harness.corpus_by_edge_cap",
                         "harness.enumerate_connected_graphs")
        oracles = ("hamilton.has_hamiltonian_path", "hamilton.has_hamiltonian_cycle")
        trails = ("structure.find_dominating_trail", "structure.max_trail")
        components = ("graphcore.subgraph_components", "graphcore.connected_components",
                      "graphcore.is_connected")
        subgraphs = ("graphcore.subgraph", "graphcore.subgraph_vertices",
                     "graphcore.subgraph_degrees", "graphcore.odd_vertices",
                     "graphcore.incident_edges")
        distances = ("graphcore.all_pairs_distances", "graphcore.bfs_distances",
                     "graphcore.subgraph_distance", "graphcore.diameter")
        bounds = ("indices.compute_bounds", "indices.bound_thm_b1", "indices.bound_cor1",
                  "indices.bound_cor2", "indices.bound_thm_b2", "indices.delta_prime",
                  "indices.d3_doublestar")
        c = self.counts
        return {
            "harness.enumerate_s": total(self_s, *enumerate_fns),
            "harness.canonical_key_s": total(self_s, "harness.canonical_key"),
            "harness.canonical_key_calls": total(calls, "harness.canonical_key"),
            "harness.graph_id_s": total(self_s, "harness.graph_id"),
            "hamilton.oracle_s": total(self_s, *oracles),
            "hamilton.oracle_calls": total(calls, *oracles),
            "hamilton.oracle_no": c["hamilton.oracle_no"],
            "hamilton.oracle_max_ms": 1000 * max([longest[nid[x]] for x in oracles if x in nid],
                                                 default=0.0),
            "eup.find_witness_s": total(self_s, "eup.find_witness"),
            "eup.find_witness_calls": total(calls, "eup.find_witness"),
            "eup.witnesses_found": c["eup.witnesses_found"],
            "eup.leaves": leaves,
            "eup.check_conditions_calls": total(calls, "eup.check_conditions"),
            "eup.candidate_s": total(self_s, "eup.canonical_candidate"),
            "budget.expansions": c["budget.expansions"],
            "graphcore.components_s": total(self_s, *components),
            "graphcore.distances_s": total(self_s, *distances),
            "graphcore.subgraph_s": total(self_s, *subgraphs),
            "structure.trail_s": total(self_s, *trails),
            "structure.trail_calls": total(calls, *trails),
            "structure.branches_calls": total(calls, "structure.branches"),
            "linegraph.build_s": total(self_s, "linegraph.line_graph",
                                       "linegraph.iterated_line_graph"),
            "linegraph.builds": total(calls, "linegraph.line_graph"),
            "linegraph.vertices_built": c["linegraph.vertices_built"],
            "indices.index_s": total(self_s, "indices.hamiltonian_path_index",
                                     "indices.hamiltonian_index"),
            "indices.bounds_s": total(self_s, *bounds),
            "trace.spans": n,
        }

    def write(self, path) -> None:
        """One line per span: id, parent id, name, start and end in seconds."""
        with open(path, "w") as out:
            out.write("id\tparent\tname\tstart_s\tend_s\n")
            names, parent = self.names, self.span_parent
            start, end = self.span_start, self.span_end
            for i, k in enumerate(self.span_name):
                out.write(f"{i}\t{parent[i]}\t{names[k]}\t{start[i]:.9f}\t{end[i]:.9f}\n")
