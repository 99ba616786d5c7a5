from __future__ import annotations

import functools
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BETTER, BOUNDS = {"predict_ms": "lower", "auc_roc": "higher"}, {"predict_ms": 0.25, "auc_roc": 0.15}


def _records(parent: list[float], change: list[float], auc: tuple[float, float] = (0.5, 0.5),
             failed: tuple[int, int] = (0, 0)) -> list[dict]:
    """Pairs of results: predict_ms from the two lists, auc_roc and the failed
    count (of 10 attempted) per side."""
    records = []
    for pair, values in enumerate(zip(parent, change)):
        for k, (side, value) in enumerate(zip(("parent", "change"), values)):
            metrics = {"predict_ms": {"value": value, "unit": "ms"}, "auc_roc": {"value": auc[k], "unit": "1"}}
            records.append({"set": "final", "workload": "w", "side": side, "seed": pair, "pair": pair,
                            "result": {"correct": True, "attempted": 10, "failed": failed[k], "metrics": metrics}})
    return records


def test_seeds_parse_as_ranges_and_lists():
    assert _bench_pairs().parse_seeds("1-3,7") == [1, 2, 3, 7]


def test_the_gain_rule_needs_nine_pairs_in_ten_and_medians_beyond_the_parent_spread():
    summarize = functools.partial(_bench_pairs().summarize, bounds=BOUNDS)
    better = BETTER
    parent = [20.0 + k / 10 for k in range(10)]
    lines = summarize(_records(parent, [15.0] * 9 + [25.0]), better)
    assert lines[0] == "final w: 10 pairs, 0 with an incorrect run"
    assert "won 9/10  gain rule holds" in lines[1]
    assert "won 0/10  gain rule does not hold" in lines[2]  # ties count for neither side
    assert "won 8/10  gain rule does not hold" in summarize(_records(parent, [15.0] * 8 + [25.0] * 2), better)[1]
    assert "won 9/9  gain rule does not hold" in summarize(_records(parent[:9], [15.0] * 9), better)[1]
    # won every pair, but the medians lie within the parent's interquartile range
    assert "won 10/10  gain rule does not hold" in summarize(_records(parent, [v - 0.05 for v in parent]), better)[1]


def test_the_bound_rule_takes_each_metric_bound_as_a_fraction_of_the_parent_median():
    summarize = _bench_pairs().summarize
    parent = [20.0] * 10
    lines = summarize(_records(parent, [24.9] * 10, auc=(0.8, 0.69)), BETTER, BOUNDS)
    assert lines[1].endswith("within its 25% bound")  # 24.5% slower
    assert lines[2].endswith("within its 15% bound")  # 13.75% lower, and higher is better
    lines = summarize(_records(parent, [25.1] * 10, auc=(0.8, 0.67)), BETTER, BOUNDS)
    assert lines[1].endswith("worse than its 25% bound")
    assert lines[2].endswith("worse than its 15% bound")
    assert summarize(_records(parent, [10.0] * 10, auc=(0.5, 0.9)), BETTER, BOUNDS)[1].endswith("within its 25% bound")


def test_the_failure_rule_compares_each_side_share_of_failed_operations():
    summarize = _bench_pairs().summarize
    lines = summarize(_records([20.0] * 4, [15.0] * 4, failed=(1, 2)), BETTER, BOUNDS)
    assert lines[-2] == "  failed ops   parent 4 of 40 (10.00%)"
    assert lines[-1] == "  failed ops   change 8 of 40 (20.00%)  failure rule does not hold: more operations failed"
    lines = summarize(_records([20.0] * 4, [15.0] * 4, failed=(1, 1)), BETTER, BOUNDS)
    assert lines[-1] == "  failed ops   change 4 of 40 (10.00%)  failure rule holds"


def test_summarize_reads_the_benchmark_file_of_its_own_repository_from_any_directory(tmp_path, monkeypatch, capsys):
    records = _records([20.0] * 10, [15.0] * 10, auc=(0.8, 0.67))
    (tmp_path / "pairs.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    monkeypatch.chdir(tmp_path)  # no BENCHMARK.json here
    assert _bench_pairs().main(["--summarize", "pairs.jsonl"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "final w: 10 pairs, 0 with an incorrect run"
    # the metrics in BENCHMARK.json's order, each with its bound from there
    assert lines[1].startswith("  predict_ms") and lines[1].endswith("won 10/10  gain rule holds  within its 25% bound")
    assert lines[2].startswith("  auc_roc") and lines[2].endswith("worse than its 15% bound")
