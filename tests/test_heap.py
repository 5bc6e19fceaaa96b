"""The heap and collector profile in `tools/heap.py` still runs against the
package, counts what it says and leaves the collector as it found it."""

import gc
import importlib.util
from pathlib import Path

HEAP = Path(__file__).resolve().parent.parent / "tools" / "heap.py"


def test_one_short_replay_counts_nodes_objects_and_passes():
    spec = importlib.util.spec_from_file_location("tools_heap", HEAP)
    heap = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(heap)
    hooks = list(gc.callbacks)
    p = heap.profile("conn_sparse_reads", 1, 0.5)
    assert gc.callbacks == hooks
    assert p["calls"] == 1083 and p["n"] == 1024
    # short tours in 16-node blocks: no forest chunks, so none holds a
    # master array, and every node is one gadget and one forest
    assert p["nodes"] > 0 and p["chunked"] == 0
    # the per-level census covers every node, root first
    levels = list(p["by_level"])
    assert levels == sorted(levels) and levels[0] == 0
    assert sum(count for count, _ in p["by_level"].values()) == p["nodes"]
    assert all(0 <= empty <= count for count, empty in p["by_level"].values())
    assert "MasterArray" not in p["tracked"]
    for kind in ("SparsNode", "ConnGeneral", "EulerForest"):
        assert p["tracked"][kind] == p["nodes"], kind
    assert len(p["passes"]) == len(p["gc_s"]) == heap.GENERATIONS
    assert sum(p["passes"]) > 0 and all(s >= 0 for s in p["gc_s"])
    assert p["calls_s"] > 0
    # a collection inside the block is counted under its generation, and
    # the hook is gone after the block
    passes, spent = [0] * heap.GENERATIONS, [0.0] * heap.GENERATIONS
    with heap.collector_log(passes, spent):
        gc.collect(1)
    assert passes == [0, 1, 0] and spent[1] >= 0
    assert gc.callbacks == hooks
