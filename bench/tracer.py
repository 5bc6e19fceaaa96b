"""Span tracer for the benchmark's traced run.

``install`` wraps the public functions of every dynconn layer, from outside
the package, so that each call records a span: wall time and the meter work
charged between entry and exit.  A span's self time (self work) is its
duration (work) minus that of the spans it directly encloses.  Spans are
kept as running totals in memory, per layer and per function label, plus a
count of each (enclosing label, label) pair for the translation factors.

Wrappers exist only in the process that calls ``install`` and are removed
on exit from its ``with`` block.  Module-level functions are replaced under
every name a dynconn module binds them to, so an alias such as
``chunks.agg_join`` for ``aggtree.join`` is covered too.

The per-unit charges ``charge``, ``phase`` and ``parallel_charge`` are not
wrapped: their sum is the metered work itself.  ``parallel_for`` is not
wrapped either, so loop-body time stays with the caller's span.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter_ns

LAYERS = ("sparsify", "reductions", "eulerforest", "chunks", "aggtree", "costmodel")


def _targets():
    """(layer, owner, attribute names) for every wrapped function."""
    from dynconn import aggtree, chunks, costmodel, eulerforest, reductions, sparsify

    return [
        ("sparsify", sparsify._Facade, (
            "activate_node", "deactivate_node", "insert_edge", "delete_edge",
            "connected", "n_components")),
        ("sparsify", sparsify.DynamicConnectivity, ("tree_edge",)),
        ("sparsify", sparsify.DynamicBipartiteness, ("is_bipartite",)),
        ("sparsify", sparsify.SparsNode, ("__init__",)),
        ("sparsify", sparsify.SparsTree, (
            "activate_node", "deactivate_node", "insert_edge", "delete_edge",
            "connected", "n_components", "tree_edge", "is_bipartite")),
        ("reductions", reductions.ConnGeneral, (
            "__init__", "activate_node", "deactivate_node", "connected",
            "n_components", "tree_edge", "find_replacement", "insert_edge",
            "delete_edge", "delete_edge_with_hint")),
        ("reductions", reductions.BipartiteGeneral, (
            "__init__", "activate_node", "deactivate_node", "apply_edge",
            "is_bipartite")),
        ("reductions", reductions.BipartiteBounded, (
            "__init__", "activate_node", "deactivate_node", "apply_edge",
            "is_bipartite")),
        ("eulerforest", eulerforest.EulerForest, (
            "__init__", "activate_node", "deactivate_node", "connected",
            "n_components", "tree_edge", "insert_edge", "delete_edge",
            "delete_edge_with_hint", "find_replacement")),
        ("chunks", chunks.MasterArray, (
            "__init__", "set_chunk", "alloc_chunk", "deactivate", "link",
            "unlink", "bulk_set_links", "insert_chunk", "delete_chunk",
            "concatenate", "split_array", "reorder", "query")),
        ("aggtree", aggtree.AggTree, (
            "bit_set", "bulk_set", "dual_bulk_set", "insert", "delete",
            "split", "split_boundary")),
        ("aggtree", aggtree, ("join",)),
        ("costmodel", costmodel.CostMeter, (
            "reduce_extremum", "choose_any", "prefix_and", "initial_segment_end")),
    ]


class Stat:
    __slots__ = ("calls", "self_ns", "incl_ns", "self_work")

    def __init__(self):
        self.calls = 0
        self.self_ns = 0
        self.incl_ns = 0
        self.self_work = 0


class Tracer:
    """Running span totals for one meter."""

    def __init__(self, meter):
        self.meter = meter
        self.layer_of = {}              # label -> layer, filled by install
        self.reset()

    def reset(self):
        self.stack = []                 # open spans: [layer, label, t0, w0, child_ns, child_work]
        self.layers = {name: Stat() for name in LAYERS}
        self.labels = {}
        self.pairs = {}                 # (enclosing label, label) -> calls
        self.results = {}               # label -> {outcome: calls}

    def enter(self, layer, label):
        parent = self.stack[-1] if self.stack else None
        if parent is None or parent[0] != layer:
            self.layers[layer].calls += 1
        key = (parent[1] if parent else None, label)
        self.pairs[key] = self.pairs.get(key, 0) + 1
        self.stack.append([layer, label, perf_counter_ns(), self.meter.work, 0, 0])

    def exit(self):
        t1 = perf_counter_ns()
        layer, label, t0, w0, child_ns, child_work = self.stack.pop()
        dur = t1 - t0
        work = self.meter.work - w0
        stat = self.labels.get(label)
        if stat is None:
            stat = self.labels[label] = Stat()
        stat.calls += 1
        stat.self_ns += dur - child_ns
        stat.incl_ns += dur
        stat.self_work += work - child_work
        lay = self.layers[layer]
        lay.self_ns += dur - child_ns
        lay.self_work += work - child_work
        if self.stack:
            parent = self.stack[-1]
            parent[4] += dur
            parent[5] += work

    def note(self, label, outcome):
        counts = self.results.setdefault(label, {})
        counts[outcome] = counts.get(outcome, 0) + 1

    # -- reading -----------------------------------------------------------

    def stat(self, label):
        return self.labels.get(label) or Stat()

    def calls(self, *labels):
        return sum(self.stat(label).calls for label in labels)

    def labels_of(self, layer):
        return {label for label, lay in self.layer_of.items() if lay == layer}

    def pair_calls(self, parents, children):
        return sum(
            c for (p, ch), c in self.pairs.items() if p in parents and ch in children
        )


# outcome recorders: label -> function of the wrapped call's return value
def _report_kind(rep):
    return rep.kind


def _hit(pair):
    return pair is not None


OUTCOMES = {
    "EulerForest.delete_edge": _report_kind,
    "EulerForest.delete_edge_with_hint": _report_kind,
    "MasterArray.query": _hit,
}


def _wrap(tracer, layer, label, fn):
    outcome = OUTCOMES.get(label)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.enter(layer, label)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if outcome is not None:
            tracer.note(label, outcome(out))
        return out

    return traced


@contextmanager
def install(tracer):
    """Wrap every target for the duration of the block."""
    import types

    import dynconn

    targets = _targets()
    modules = [
        m for m in vars(dynconn).values()
        if isinstance(m, types.ModuleType) and m.__name__.startswith("dynconn.")
    ]
    saved = []
    try:
        for layer, owner, names in targets:
            for name in names:
                orig = vars(owner)[name]
                if isinstance(owner, types.ModuleType):
                    label = f"{layer}.{name}"
                    tracer.layer_of[label] = layer
                    wrapped = _wrap(tracer, layer, label, orig)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is orig:
                                saved.append((mod, attr, orig))
                                setattr(mod, attr, wrapped)
                else:
                    label = f"{owner.__name__}.{name}"
                    tracer.layer_of[label] = layer
                    saved.append((owner, name, orig))
                    setattr(owner, name, _wrap(tracer, layer, label, orig))
        yield tracer
    finally:
        for owner, name, orig in reversed(saved):
            setattr(owner, name, orig)
