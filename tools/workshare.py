"""Metered self work per method of the aggregate tree, master array and forest.

    python3 tools/workshare.py

It builds `conn_churn("1/0", n=512, length=733)` from
`bench/workloads.py`, sets it up with the benchmark's own `setup` and
replays the calls with its `drive` (`bench/run.py`; the workload runs under
the arbitrary policy), with every function defined on `AggTree`,
`MasterArray` and `EulerForest`, private ones included, the tree's `join`,
its column write (`write_column`, booked as `aggtree.write_column`) and its
module-level restructuring steps (`REASSEMBLY`, booked as `aggtree.<name>`)
wrapped for the replay only, so a split's or a join's share splits by step
and a column write's work is booked apart from the master array's.  A
call's self work is the metered work charged between its entry and its
exit, less that of the wrapped calls it encloses, so each unit of the
replay's work is booked once: to the innermost wrapped call that charged
it, or to `(outside)` when no wrapped call was open (the facade, the
sparsification tree and the gadget).  Work charged while a node is built
goes to `init_work` and is not counted.

It prints one line per method, by falling self work: its calls, its self
work, that work per update call and its share of the replay's work.  The
733 calls are one instance of the benchmark's 20 s conn_churn script, the
instance its traced run replays.  Every function is wrapped, so
calls the benchmark's tracer does not wrap, such as `AggTree.range_bits`,
`MasterArray.retire_chunk` and `aggtree.write_column`, are booked under
their own names.

Below the table it counts chunk lives over the replay, in all and per
update call: the chunks allocated, those retired, those retired in the
forest update that allocated them (one call of `EulerForest.insert_edge`,
`_delete` or `contract`), and those holding link bits when retired, whose
retirements also read a row, clear a column and zero the row; their work
is printed too.  Below those it counts the stored occurrence offsets the
forest rewrites (`EulerForest._reindex_chunk`) and the chunk bases it
moves instead (`_move_base`), in all and per update call.  Below those it
counts the link flush's refreshes (`EulerForest._refresh_links`): all of
them, those that changed the chunk's row, and the work of the others, the
no-op refreshes, with its share of the replay's work, then splits the
no-op refreshes by the site that marked the chunk (`MARKERS`; a reindex is
labelled by the forest method that asked for it, directly or through the
chunk edit `_splice`, and `_link`'s in-place write of a small or
single-node far tour is booked apart from its swaps).  Below those it
counts the aggregate tree's structural calls (`STRUCTURAL`:
`AggTree.insert`, `delete`, `split_boundary` and the tree's `join`) per
chunked forest update, by update kind: a link, a cut with no
replacement, a replacement and a contraction, each update that makes at
least one such call.

Last it splits the work of the gadget updates, every `ConnGeneral`
`insert_edge` and `_delete` at every sparsification node, by call site
(`SITES`): the forest insert of the new cross edge, each splice-in with its
forest call, the forest delete of the cross edge, and the contraction
(`EulerForest.contract`) that takes a splice-out's node out of its chain,
an end node as a leaf and an interior one in the middle.  Any other forest
call inside a splice-out is booked as `unexpected`, which stays at 0 while
every chain edge is a tree edge.  `rest` is the gadget's own work outside
those calls, its node releases and hint tests.  The sites add up to the
gadget updates' work.

The counts are exact and repeat bit for bit on any host; a run at n = 512
takes about 2 s on a shared 2-core x86-64 VM with CPython 3.11.
"""

from __future__ import annotations

import functools
import sys
import types
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from dynconn.aggtree import AggTree  # noqa: E402
from run import UPDATES, drive, setup  # noqa: E402
from workloads import conn_churn  # noqa: E402

SEED = 1
N = 512
CALLS = 733
OUTSIDE = "(outside)"
# the aggregate tree's module-level steps that charge the meter: a split's
# reassembly and the cascades and root builders that joins and inserts share
REASSEMBLY = (
    "_assemble", "_presplit_spine", "_parallel_attach", "_attach", "_grow_root",
    "_join_equal",
)


@contextmanager
def wrapped(meter, totals):
    """Book the self work and calls of every wrapped function into `totals`
    (label -> [calls, self work]) while the block runs."""
    from dynconn import aggtree, chunks
    from dynconn.eulerforest import EulerForest

    stack = [0]  # per open call: the work of the wrapped calls it encloses

    def wrap(label, fn):
        entry = totals.setdefault(label, [0, 0])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            w0 = meter.work
            stack.append(0)
            try:
                return fn(*args, **kwargs)
            finally:
                inner = stack.pop()
                spent = meter.work - w0
                entry[0] += 1
                entry[1] += spent - inner
                stack[-1] += spent

        return traced

    saved = []
    for cls in (aggtree.AggTree, chunks.MasterArray, EulerForest):
        for name, fn in list(vars(cls).items()):
            if isinstance(fn, types.FunctionType):
                saved.append((cls, name, fn))
                setattr(cls, name, wrap(f"{cls.__name__}.{name}", fn))
    # the tree's module-level functions that chunks imports by name are
    # wrapped in both modules
    for label, name, alias in (
        ("AggTree.join", "join", "agg_join"),
        ("aggtree.write_column", "write_column", "write_column"),
    ):
        fn = getattr(aggtree, name)
        traced = wrap(label, fn)
        for mod, attr in ((aggtree, name), (chunks, alias)):
            saved.append((mod, attr, fn))
            setattr(mod, attr, traced)
    for name in REASSEMBLY:
        fn = getattr(aggtree, name)
        saved.append((aggtree, name, fn))
        setattr(aggtree, name, wrap(f"aggtree.{name}", fn))
    try:
        yield
    finally:
        for owner, name, fn in saved:
            setattr(owner, name, fn)


@contextmanager
def chunk_lives(meter, lives):
    """Count into `lives` the chunks allocated and retired while the block
    runs: `retired_same` those retired in the forest update that allocated
    them, `linked` those holding link bits when retired and `linked_work`
    the work of their retirements, the column clears and row zeroing
    included.  A forest update is one call of `EulerForest.insert_edge`,
    `_delete` or `contract`."""
    from dynconn.chunks import MasterArray
    from dynconn.eulerforest import EulerForest

    for key in ("allocated", "retired", "retired_same", "linked", "linked_work"):
        lives[key] = 0
    update = [0]  # the serial of the forest update running
    born = {}  # live chunk -> the serial of the update that allocated it
    alloc, retire = MasterArray.alloc_chunk, MasterArray.retire_chunk
    saved = [
        (name, getattr(EulerForest, name)) for name in ("insert_edge", "_delete", "contract")
    ]

    def serial(fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            update[0] += 1
            return fn(*args, **kwargs)

        return counted

    def counted_alloc(self, edges):
        c = alloc(self, edges)
        lives["allocated"] += 1
        born[c] = update[0]
        return c

    def counted_retire(self, c):
        linked, w0 = bool(c.bits), meter.work
        retire(self, c)
        lives["retired"] += 1
        lives["retired_same"] += born.pop(c, None) == update[0]
        if linked:
            lives["linked"] += 1
            lives["linked_work"] += meter.work - w0

    for name, fn in saved:
        setattr(EulerForest, name, serial(fn))
    MasterArray.alloc_chunk, MasterArray.retire_chunk = counted_alloc, counted_retire
    try:
        yield
    finally:
        MasterArray.alloc_chunk, MasterArray.retire_chunk = alloc, retire
        for name, fn in saved:
            setattr(EulerForest, name, fn)


@contextmanager
def offset_writes(counts):
    """Count into `counts` the stored occurrence offsets that
    `EulerForest._reindex_chunk` rewrites (`rewritten`) and the chunk bases
    `_move_base` moves (`base_moves`) while the block runs."""
    from dynconn.eulerforest import EulerForest

    counts["rewritten"] = counts["base_moves"] = 0
    reindex, move = EulerForest._reindex_chunk, EulerForest._move_base

    def counted_reindex(self, c, start=0, stop=None, shift=0):
        reindex(self, c, start, stop, shift)
        counts["rewritten"] += (len(c.edges) if stop is None else stop) - start

    def counted_move(self, c, shift):
        move(self, c, shift)
        counts["base_moves"] += 1

    EulerForest._reindex_chunk, EulerForest._move_base = counted_reindex, counted_move
    try:
        yield
    finally:
        EulerForest._reindex_chunk, EulerForest._move_base = reindex, move


# the forest methods that mark a chunk in an update's record (`_touched`);
# a reindex is booked with the forest method that asked for it, directly or
# through the chunk edit `_splice` (`_link`'s in-place write apart from its
# swaps), and a mark a method passes to `_splice` with that method
MARKERS = ("_reindex_chunk", "_cut_across", "_cut_inside", "_commit_large", "contract")


def _forest_caller(frame):
    """The name of the nearest frame at or above `frame` that is neither
    this tool's own wrapper nor `EulerForest._splice`; a splice that `_link`
    makes while its far tour is small or a single node, its in-place write
    of that tour, is `_link, in place`."""
    spliced = False
    while frame.f_code.co_filename == __file__ or frame.f_code.co_name == "_splice":
        spliced = spliced or frame.f_code.co_name == "_splice"
        frame = frame.f_back
    name = frame.f_code.co_name
    if spliced and name == "_link" and not isinstance(frame.f_locals["far"], AggTree):
        return "_link, in place"
    return name


@contextmanager
def link_refreshes(meter, counts):
    """Count into `counts` the link refreshes (`EulerForest._refresh_links`)
    while the block runs: all of them (`refreshes`), those that changed the
    chunk's row (`changed`) and the work of the rest, their scans and row
    reads included (`noop_work`).  Under `noop_sites` the no-op ones are
    split (label -> [refreshes, work]) by the site that first marked the
    chunk in its update: the innermost marking method (`MARKERS`) during
    which the chunk's mark turned on, a reindex labelled by the forest
    method that called it, and a mark left when a flush starts booked to
    the method that runs the flush (`contract`) or to `other`."""
    from dynconn.eulerforest import EulerForest

    counts["refreshes"] = counts["changed"] = counts["noop_work"] = 0
    sites = counts["noop_sites"] = {}
    site_of, open_sites = {}, []  # chunk -> the site that marked it; open marking calls
    refresh, flush = EulerForest._refresh_links, EulerForest._flush_links
    markers = [(name, getattr(EulerForest, name)) for name in MARKERS]

    def marked(forest):
        touched = forest._touched
        return {c for c, m in touched.items() if m} if touched else set()

    def marking(name, fn):
        @functools.wraps(fn)
        def watched(self, *args, **kwargs):
            label = name
            if name == "_reindex_chunk":
                label = f"_reindex_chunk in {_forest_caller(sys._getframe(1))}"
            before = marked(self)
            open_sites.append(label)
            try:
                return fn(self, *args, **kwargs)
            finally:
                open_sites.pop()
                for c in marked(self) - before:
                    site_of.setdefault(c, label)

        return watched

    def flushed(self):
        for c in marked(self):
            site_of.setdefault(c, open_sites[-1] if open_sites else "other")
        try:
            return flush(self)
        finally:
            site_of.clear()

    def counted(self, c):
        bits, w0 = c.bits, meter.work
        refresh(self, c)
        counts["refreshes"] += 1
        if c.bits != bits:
            counts["changed"] += 1
        else:
            work = meter.work - w0
            counts["noop_work"] += work
            entry = sites.setdefault(site_of.get(c, "other"), [0, 0])
            entry[0] += 1
            entry[1] += work

    EulerForest._refresh_links, EulerForest._flush_links = counted, flushed
    for name, fn in markers:
        setattr(EulerForest, name, marking(name, fn))
    try:
        yield
    finally:
        EulerForest._refresh_links, EulerForest._flush_links = refresh, flush
        for name, fn in markers:
            setattr(EulerForest, name, fn)


# the aggregate tree's structural calls: each rebuilds its own ancestor
# paths and summaries
STRUCTURAL = ("insert", "delete", "split_boundary", "join")
# the kinds of chunked forest update, in the order they are printed
UPDATE_KINDS = ("link", "cut", "replacement", "contraction")


@contextmanager
def structural_calls(kinds):
    """Count into `kinds` (kind -> [updates, Counter of calls by
    `STRUCTURAL` name, most calls in one update]) the aggregate tree's
    structural calls of every chunked forest update while the block runs:
    one outermost call of `EulerForest.insert_edge` (a link), `_delete` (a
    cut or a replacement, by its report) or `contract` (a contraction, a
    lone endpoint's delete included) that makes at least one."""
    from collections import Counter

    from dynconn import aggtree, chunks
    from dynconn.eulerforest import EulerForest, ReplacementReport

    for kind in UPDATE_KINDS:
        kinds[kind] = [0, Counter(), 0]
    frames = []  # per open forest update: [its kind, its calls]

    def update(name, fn):
        @functools.wraps(fn)
        def booked(self, *args, **kwargs):
            if frames:
                if name == "contract":
                    frames[-1][0] = "contraction"
                return fn(self, *args, **kwargs)
            frames.append([None, Counter()])
            try:
                out = fn(self, *args, **kwargs)
            finally:
                kind, calls = frames.pop()
            if calls:
                if kind is None:
                    kind = {"insert_edge": "link", "contract": "contraction"}.get(name)
                    kind = kind or ("cut" if out.kind == ReplacementReport.SPLIT else "replacement")
                entry = kinds[kind]
                entry[0] += 1
                entry[1].update(calls)
                entry[2] = max(entry[2], sum(calls.values()))
            return out

        return booked

    def structural(label, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if frames:
                frames[-1][1][label] += 1
            return fn(*args, **kwargs)

        return counted

    saved = [(EulerForest, name, getattr(EulerForest, name))
             for name in ("insert_edge", "_delete", "contract")]
    saved += [(aggtree.AggTree, name, getattr(aggtree.AggTree, name)) for name in STRUCTURAL[:3]]
    saved += [(aggtree, "join", aggtree.join), (chunks, "agg_join", chunks.agg_join)]
    for owner, name, fn in saved:
        if owner is EulerForest:
            setattr(owner, name, update(name, fn))
        else:
            setattr(owner, name, structural("join" if "join" in name else name, fn))
    try:
        yield
    finally:
        for owner, name, fn in reversed(saved):
            setattr(owner, name, fn)


# the gadget call sites, in the order of a host insert then a host delete
SITES = (
    "cross-edge insert", "splice-in", "cross-edge delete", "contraction",
    "unexpected", "rest",
)


@contextmanager
def gadget_sites(meter, sites):
    """Book into `sites` (label -> [calls, work]) the work of every gadget
    update while the block runs, under `gadget` in all and under its call
    site (`SITES`).  A splice-in is booked whole, its forest call with it;
    inside a splice-out any forest call but a contraction is
    `unexpected`."""
    from dynconn.eulerforest import EulerForest
    from dynconn.reductions import ConnGeneral

    for label in ("gadget",) + SITES:
        sites[label] = [0, 0]
    frames = []  # the kinds of the open gadget frames, innermost last
    in_sites = [0]  # the work of the sites booked in the open update

    def book(label, work):
        entry = sites.setdefault(label, [0, 0])
        entry[0] += 1
        entry[1] += work

    def update(fn):
        @functools.wraps(fn)
        def booked(*args, **kwargs):
            w0, in_sites[0] = meter.work, 0
            frames.append("update")
            try:
                return fn(*args, **kwargs)
            finally:
                frames.pop()
                spent = meter.work - w0
                book("gadget", spent)
                book("rest", spent - in_sites[0])

        return booked

    def label_of(name, outer):
        """The site of a call of `name` made in a frame of kind `outer`, or
        None: outside a gadget update, inside a splice-in, which is booked
        whole, and for a leaf's contraction inside the cross edge's delete,
        which that delete books."""
        if outer == "update":
            return {
                "_splice_in": "splice-in", "insert_edge": "cross-edge insert",
                "_delete": "cross-edge delete",
            }.get(name)
        if outer == "splice-out":
            return "contraction" if name == "contract" else "unexpected"
        return None

    def site(fn, name):
        kind = {"_splice_in": "splice-in", "_splice_out": "splice-out"}.get(name)

        @functools.wraps(fn)
        def booked(*args, **kwargs):
            outer = frames[-1] if frames else None
            if kind:
                frames.append(kind)
            w0 = meter.work
            try:
                return fn(*args, **kwargs)
            finally:
                if kind:
                    frames.pop()
                label = label_of(name, outer)
                if label:
                    spent = meter.work - w0
                    book(label, spent)
                    in_sites[0] += spent

        return booked

    saved = [
        (cls, name, getattr(cls, name))
        for cls, names in (
            (ConnGeneral, ("insert_edge", "_delete", "_splice_in", "_splice_out")),
            (EulerForest, ("insert_edge", "_delete", "contract")),
        )
        for name in names
    ]
    for cls, name, fn in saved:
        host_update = cls is ConnGeneral and name in ("insert_edge", "_delete")
        setattr(cls, name, update(fn) if host_update else site(fn, name))
    try:
        yield
    finally:
        for cls, name, fn in saved:
            setattr(cls, name, fn)


def workshare(seed, n, calls):
    """Replay one conn_churn instance; returns (rows, total work, update
    calls, counts), each row a (label, calls, self work) by falling self
    work, and the counts the chunk lives as `chunk_lives` counts them, the
    offset writes as `offset_writes` does, the link refreshes as
    `link_refreshes` counts them and, under `sites`, the gadget call sites
    as `gadget_sites` books them and, under `structural`, the aggregate
    tree's structural calls as `structural_calls` counts them."""
    w = conn_churn(f"{seed}/0", n=n, length=calls)
    f, _, _ = setup(w)
    totals, lives, sites, kinds = {}, {}, {}, {}
    with offset_writes(lives), link_refreshes(f.meter, lives), wrapped(f.meter, totals), \
            chunk_lives(f.meter, lives), gadget_sites(f.meter, sites), structural_calls(kinds):
        log = drive(f, w.calls)
    total = sum(log.work)
    booked = sum(work for _, work in totals.values())
    rows = [(label, c, work) for label, (c, work) in totals.items() if c]
    rows.append((OUTSIDE, len(log.ops), total - booked))
    rows.sort(key=lambda r: (-r[2], r[0]))
    lives["sites"], lives["structural"] = sites, kinds
    return rows, total, sum(op in UPDATES for op in log.ops), lives


def main():
    rows, total, updates, lives = workshare(SEED, N, CALLS)
    print(f"conn_churn {SEED}/0, n = {N}, {CALLS} calls "
          f"({updates} updates): {total} units of metered work")
    print(f"{'method':36s} {'calls':>8s} {'self work':>12s} {'per update':>11s} {'share':>7s}")
    for label, calls, work in rows:
        print(f"{label:36s} {calls:8d} {work:12d} {work / max(updates, 1):11.1f} "
              f"{work / max(total, 1):7.2%}")
    per = max(updates, 1)
    print(f"\n{'chunks':36s} {'count':>8s} {'per update':>11s}")
    for label, key in (
        ("allocated", "allocated"),
        ("retired", "retired"),
        ("retired in the same forest update", "retired_same"),
        ("retired while linked", "linked"),
    ):
        print(f"{label:36s} {lives[key]:8d} {lives[key] / per:11.2f}")
    print(f"the linked retirements' work: {lives['linked_work']} units, "
          f"{lives['linked_work'] / per:.1f} per update, "
          f"{lives['linked_work'] / max(total, 1):.2%} of the replay's work")
    print(f"\n{'offset writes':36s} {'count':>8s} {'per update':>11s}")
    for label, key in (("offsets rewritten", "rewritten"), ("chunk bases moved", "base_moves")):
        print(f"{label:36s} {lives[key]:8d} {lives[key] / per:11.2f}")
    print(f"\n{'link refreshes':36s} {'count':>8s} {'per update':>11s}")
    noop = lives["refreshes"] - lives["changed"]
    for label, count in (
        ("refreshes", lives["refreshes"]),
        ("refreshes that changed the row", lives["changed"]),
        ("no-op refreshes", noop),
    ):
        print(f"{label:36s} {count:8d} {count / per:11.2f}")
    print(f"the no-op refreshes' work: {lives['noop_work']} units, "
          f"{lives['noop_work'] / per:.1f} per update, "
          f"{lives['noop_work'] / max(total, 1):.2%} of the replay's work")
    print(f"{'no-op refreshes by marking site':36s} {'count':>8s} {'work':>12s} {'share':>7s}")
    for label, (count, work) in sorted(lives["noop_sites"].items(), key=lambda kv: (-kv[1][1], kv[0])):
        print(f"{label:36s} {count:8d} {work:12d} {work / max(total, 1):7.2%}")
    print("\naggregate-tree structural calls per chunked forest update")
    print(f"{'update kind':14s} {'updates':>8s} " + " ".join(f"{k:>14s}" for k in STRUCTURAL)
          + f" {'all':>6s} {'most':>5s}")
    for kind, (count, calls, most) in lives["structural"].items():
        means = " ".join(f"{calls[k] / max(count, 1):14.2f}" for k in STRUCTURAL)
        print(f"{kind:14s} {count:8d} {means} {sum(calls.values()) / max(count, 1):6.2f} {most:5d}")
    sites = lives["sites"]
    calls, work = sites.pop("gadget")
    print(f"\ngadget updates: {calls} calls, {work} units, "
          f"{work / max(total, 1):.2%} of the replay's work")
    print(f"{'gadget call site':36s} {'calls':>8s} {'work':>12s} {'per call':>11s} {'share':>7s}")
    for label, (calls, work) in sites.items():
        print(f"{label:36s} {calls:8d} {work:12d} {work / max(calls, 1):11.1f} "
              f"{work / max(total, 1):7.2%}")


if __name__ == "__main__":
    main()
