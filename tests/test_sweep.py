"""The scaling sweep in `tools/sweep.py` still runs against the package."""

import importlib.util
from pathlib import Path

SWEEP = Path(__file__).resolve().parent.parent / "tools" / "sweep.py"


def test_one_sweep_point_reports_each_update_kind_within_its_budget():
    spec = importlib.util.spec_from_file_location("tools_sweep", SWEEP)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    point = sweep.sweep_point(1, 64, 60)
    assert point["n"] == 64 and point["J"] > 0
    assert 0 < point["root_fill"] <= point["fill"] <= 1
    for kind in ("insert", "delete"):
        row = point[kind]
        assert row["calls"] > 0 and row["work"] > 0
        assert 0 < row["depth"] <= row["budget"]
        assert row["slack"] == round(row["budget"] / row["depth"], 2) >= 1
    assert sweep.problems(point) == []
    # a failed call or a depth above its budget is named, and fails the sweep
    point["insert"]["failed"] = 2
    point["delete"]["depth"] = point["delete"]["budget"] + 1
    assert sweep.problems(point) == [
        "n = 64: 2 failed insert calls",
        f"n = 64: delete depth {point['delete']['depth']} above its budget "
        f"{point['delete']['budget']}",
    ]
