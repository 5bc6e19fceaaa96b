"""The per-method work split in `tools/workshare.py` still runs against the
package, books every unit of the replay once, counts chunk lives, offset
writes, link refreshes by marking site and structural calls per forest
update, and splits the gadget updates' work by call site."""

import importlib.util
from pathlib import Path

from dynconn import aggtree, chunks
from dynconn.eulerforest import EulerForest
from dynconn.reductions import ConnGeneral

WORKSHARE = Path(__file__).resolve().parent.parent / "tools" / "workshare.py"


def test_one_small_replay_books_each_unit_once_and_unwraps():
    spec = importlib.util.spec_from_file_location("tools_workshare", WORKSHARE)
    workshare = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workshare)
    insert, join, column = aggtree.AggTree.insert, aggtree.join, aggtree.write_column
    alloc, retire = chunks.MasterArray.alloc_chunk, chunks.MasterArray.retire_chunk
    reindex, move = EulerForest._reindex_chunk, EulerForest._move_base
    refresh, flush = EulerForest._refresh_links, EulerForest._flush_links
    markers = {name: getattr(EulerForest, name) for name in workshare.MARKERS}
    tree_calls = {name: getattr(aggtree.AggTree, name) for name in workshare.STRUCTURAL[:3]}
    steps = {name: getattr(aggtree, name) for name in workshare.REASSEMBLY}
    gadget = [
        getattr(cls, name)
        for cls, names in (
            (ConnGeneral, ("insert_edge", "_delete", "_splice_in", "_splice_out")),
            (EulerForest, ("insert_edge", "_delete", "contract")),
        )
        for name in names
    ]
    rows, total, updates, lives = workshare.workshare(1, 64, 120)
    assert total > 0 and updates > 0
    # the chunk counts below the table: a retirement in the update that
    # made the chunk is a retirement of an allocated chunk, a linked one a
    # retirement
    assert lives["allocated"] > 0 and lives["retired"] > 0
    assert lives["retired_same"] <= lives["allocated"]
    assert lives["retired_same"] <= lives["retired"]
    assert lives["linked"] <= lives["retired"]
    assert lives["linked_work"] >= 0 and (lives["linked_work"] > 0) == (lives["linked"] > 0)
    # the offset writes below them: both kinds happen on a chunked replay
    assert lives["rewritten"] > 0 and lives["base_moves"] > 0
    # the link refreshes: the method's row counts them too, and the no-op
    # ones' work lies within what the table books to the refresh and the
    # calls it makes
    assert 0 < lives["changed"] < lives["refreshes"]
    assert {label: c for label, c, _ in rows}["EulerForest._refresh_links"] == lives["refreshes"]
    inner = ("EulerForest._refresh_links", "EulerForest._links_of", "MasterArray.bulk_set_links")
    assert 0 < lives["noop_work"] <= sum(w for label, _, w in rows if label in inner)
    # the no-op refreshes split by the site that marked the chunk, each one
    # booked once, and every mark made inside a marking method
    noop = lives["noop_sites"]
    assert sum(c for c, _ in noop.values()) == lives["refreshes"] - lives["changed"]
    assert sum(w for _, w in noop.values()) == lives["noop_work"]
    assert "other" not in noop and all(
        label.split(" in ")[0] in workshare.MARKERS for label in noop
    ), noop
    # the structural calls of the chunked forest updates: a link, a cut and
    # a replacement each rebuild trees on this replay
    structural = lives["structural"]
    assert list(structural) == list(workshare.UPDATE_KINDS)
    for kind in ("link", "cut", "replacement"):
        updates, by_call, most = structural[kind]
        assert updates > 0 and set(by_call) <= set(workshare.STRUCTURAL), kind
        assert updates <= sum(by_call.values()) <= most * updates, kind
    assert sum(work for _, _, work in rows) == total
    assert all(calls > 0 and work >= 0 for _, calls, work in rows)
    calls = {label: c for label, c, _ in rows}
    # every structural call is made inside one counted forest update
    assert sum(sum(by_call.values()) for _, by_call, _ in structural.values()) == sum(
        calls.get(f"AggTree.{name}", 0) for name in workshare.STRUCTURAL
    )
    # calls the benchmark's tracer does not wrap are booked by name
    for label in ("AggTree.range_bits", "MasterArray.retire_chunk", "AggTree.bulk_set"):
        assert calls.get(label, 0) > 0, label
    # a column write's work is booked under its own name, none under the
    # callers that only pass it their leaves
    work = {label: w for label, _, w in rows}
    assert work.get("aggtree.write_column", 0) > 0
    for label in ("MasterArray._write_column", "AggTree.dual_bulk_set"):
        assert calls.get(label, 0) > 0 and work[label] == 0, label
    # a split's reassembly is booked by step, apart from `split_boundary`
    for name in ("_assemble", "_presplit_spine", "_attach", "_grow_root"):
        assert calls.get(f"aggtree.{name}", 0) > 0, name
    assert aggtree.AggTree.insert is insert
    assert chunks.MasterArray.alloc_chunk is alloc and chunks.MasterArray.retire_chunk is retire
    assert all(getattr(aggtree, name) is fn for name, fn in steps.items())
    assert aggtree.join is join and chunks.agg_join is join
    assert aggtree.write_column is column and chunks.write_column is column
    assert EulerForest._reindex_chunk is reindex and EulerForest._move_base is move
    assert EulerForest._refresh_links is refresh and EulerForest._flush_links is flush
    assert all(getattr(EulerForest, name) is fn for name, fn in markers.items())
    assert all(getattr(aggtree.AggTree, name) is fn for name, fn in tree_calls.items())
    assert [ConnGeneral.insert_edge, ConnGeneral._delete, ConnGeneral._splice_in,
            ConnGeneral._splice_out, EulerForest.insert_edge, EulerForest._delete,
            EulerForest.contract] == gadget


def test_gadget_sites_add_up_to_the_gadget_updates():
    spec = importlib.util.spec_from_file_location("tools_workshare", WORKSHARE)
    workshare = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workshare)
    _, total, _, lives = workshare.workshare(1, 64, 120)
    sites = dict(lives["sites"])
    calls, work = sites.pop("gadget")
    # every site named, every splice-out forest call a contraction, and
    # every other site reached on this replay
    assert list(sites) == list(workshare.SITES)
    assert 0 < work <= total
    assert sum(w for _, w in sites.values()) == work
    assert sites["rest"][0] == calls
    assert sites["unexpected"] == [0, 0]
    for label in workshare.SITES[:-2]:
        assert sites[label][0] > 0 and sites[label][1] > 0, label
    # the gadget's own work outside the sites is its node releases and
    # hint tests, a few units per update
    assert sites["rest"][1] <= 4 * calls
