from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _records(parent: list[float], change: list[float]) -> list[dict]:
    records = []
    for pair, values in enumerate(zip(parent, change)):
        for side, value in zip(("parent", "change"), values):
            metrics = {"predict_ms": {"value": value, "unit": "ms"}, "auc_roc": {"value": 0.5, "unit": "1"}}
            records.append({"set": "final", "workload": "w", "side": side, "seed": pair, "pair": pair,
                            "result": {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}})
    return records


def test_seeds_parse_as_ranges_and_lists():
    assert _bench_pairs().parse_seeds("1-3,7") == [1, 2, 3, 7]


def test_the_gain_rule_needs_nine_pairs_in_ten_and_medians_beyond_the_parent_spread():
    summarize = _bench_pairs().summarize
    better = {"predict_ms": "lower", "auc_roc": "higher"}
    parent = [20.0 + k / 10 for k in range(10)]
    lines = summarize(_records(parent, [15.0] * 9 + [25.0]), better)
    assert lines[0] == "final w: 10 pairs, 0 with an incorrect run"
    assert "won 9/10  gain rule holds" in lines[1]
    assert "won 0/10  gain rule does not hold" in lines[2]  # ties count for neither side
    assert "won 8/10  gain rule does not hold" in summarize(_records(parent, [15.0] * 8 + [25.0] * 2), better)[1]
    assert "won 9/9  gain rule does not hold" in summarize(_records(parent[:9], [15.0] * 9), better)[1]
    # won every pair, but the medians lie within the parent's interquartile range
    assert "won 10/10  gain rule does not hold" in summarize(_records(parent, [v - 0.05 for v in parent]), better)[1]
