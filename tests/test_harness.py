from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from capgraph import harness
from capgraph.errors import DataError
from capgraph.features import EmbeddingConfig, TsneConfig
from capgraph.graph import compute_imbalance, mask_target
from capgraph.harness import (
    DEFAULT_OS_GRID,
    MethodSpec,
    MetricReport,
    PipelineConfig,
    PlantedDatasetSpec,
    RepeatResult,
    SweepSpec,
    downsample_to_ratio,
    generate_planted_dataset,
    planted_task,
    results_rows,
    run_method,
    sweep,
    write_results_csv,
    write_summary_json,
)
from capgraph.models import TrainConfig
from capgraph.seng import SengConfig


def fast_pipeline(os_scale: float = 1.0) -> PipelineConfig:
    """Small hyperparameters so harness tests stay quick."""
    return PipelineConfig(
        seng=SengConfig(oversampling_scale=os_scale),
        embedding=EmbeddingConfig(dim=12, epochs=4),
        tsne=TsneConfig(iterations=60),
        train=TrainConfig(max_epochs=25, patience=10, d_hidden=8),
    )


def small_task(seed=0, signal=1.0, noise=0.0):
    spec = PlantedDatasetSpec(
        n_manufacturers=90, n_services_per_category=6, n_clusters=3,
        capable_fraction=0.25, signal=signal, noise=noise, seed=seed,
    )
    return planted_task(spec)


def report_content(report: MetricReport):
    """Deterministic fields of a report: everything except wall time."""
    return (
        report.auc_roc,
        report.auc_pr,
        report.repeats,
        tuple((r.seed, r.auc_roc, r.auc_pr, r.epochs_run) for r in report.per_repeat),
    )


# ---------------------------------------------------------------------------
# Method naming.
# ---------------------------------------------------------------------------


def test_method_names_match_ablation_scheme():
    assert MethodSpec(False, False).name == "GraphSAGE"
    assert MethodSpec(True, False).name == "SENG-GraphSAGE"
    assert MethodSpec(False, True).name == "FA-GraphSAGE"
    assert MethodSpec(True, True).name == "SF-GraphSAGE"
    assert MethodSpec(True, True, "gcn").name == "SF-GCN"
    assert MethodSpec(False, True, "gcn", "link").name == "LinkPred-FA-GCN"


def test_method_spec_validation():
    with pytest.raises(DataError, match="encoder"):
        MethodSpec(encoder="transformer")
    with pytest.raises(DataError, match="node classification"):
        MethodSpec(use_seng=True, task="link")


# ---------------------------------------------------------------------------
# run_method.
# ---------------------------------------------------------------------------


def test_run_method_mean_is_exact_arithmetic_mean():
    task = small_task()
    report = run_method(task, MethodSpec(True, True), fast_pipeline(), repeats=3, base_seed=7)
    assert report.repeats == 3
    assert report.auc_roc == sum(r.auc_roc for r in report.per_repeat) / 3
    assert report.auc_pr == sum(r.auc_pr for r in report.per_repeat) / 3
    assert [r.seed for r in report.per_repeat] == [7, 8, 9]


def test_run_method_single_repeat():
    task = small_task()
    report = run_method(task, MethodSpec(False, False), fast_pipeline(), repeats=1, base_seed=3)
    assert report.auc_roc == report.per_repeat[0].auc_roc


def test_run_method_deterministic():
    task = small_task(1)
    a = run_method(task, MethodSpec(False, False), fast_pipeline(), repeats=2, base_seed=5)
    b = run_method(task, MethodSpec(False, False), fast_pipeline(), repeats=2, base_seed=5)
    assert report_content(a) == report_content(b)


def test_run_method_rejects_zero_repeats():
    with pytest.raises(DataError, match="repeats"):
        run_method(small_task(), MethodSpec(False, False), fast_pipeline(), repeats=0)


def test_run_method_link_task():
    task = small_task(2)
    report = run_method(
        task, MethodSpec(False, False, "gcn", "link"), fast_pipeline(), repeats=1, base_seed=1
    )
    assert 0.0 <= report.auc_roc <= 1.0


# ---------------------------------------------------------------------------
# Downsampling.
# ---------------------------------------------------------------------------


def test_downsample_reaches_ratio_band():
    task = small_task(3)
    current = compute_imbalance(task.labels).imbalance_ratio
    assert current > 0.12
    smaller = downsample_to_ratio(task, 0.1, seed=1)
    ratio = compute_imbalance(smaller.labels).imbalance_ratio
    assert 0.09 <= ratio <= 0.1
    # only minority manufacturers were removed
    assert smaller.graph.num_nodes < task.graph.num_nodes
    stats = compute_imbalance(task.labels)
    removed = task.graph.num_nodes - smaller.graph.num_nodes
    assert removed == stats.minority_size - compute_imbalance(smaller.labels).minority_size


def test_downsample_upward_rejected():
    task = small_task(3)
    current = compute_imbalance(task.labels).imbalance_ratio
    with pytest.raises(DataError, match="cannot downsample upward"):
        downsample_to_ratio(task, current, seed=0)
    with pytest.raises(DataError, match="cannot downsample upward"):
        downsample_to_ratio(task, 0.99, seed=0)


def test_downsample_deterministic():
    task = small_task(4)
    a = downsample_to_ratio(task, 0.12, seed=9)
    b = downsample_to_ratio(task, 0.12, seed=9)
    assert a.graph == b.graph
    assert np.array_equal(a.labels, b.labels)
    assert a.removed_edges == b.removed_edges


def test_downsample_preserves_label_soundness():
    task = small_task(5)
    smaller = downsample_to_ratio(task, 0.15, seed=2)
    positives = {m for m, _ in smaller.removed_edges}
    for j in range(smaller.graph.num_nodes):
        assert smaller.labels[j] == (1 if j in positives else 0)


# ---------------------------------------------------------------------------
# Sweeps.
# ---------------------------------------------------------------------------


def test_sweep_os_grid_counts():
    task = small_task(6)
    spec = SweepSpec("os", (0.4, 0.8, 1.2), repeats=3, base_seed=11)
    cells = sweep(task, MethodSpec(True, False), spec, fast_pipeline())
    assert [c.value for c in cells] == [0.4, 0.8, 1.2]
    rows = results_rows("toy", MethodSpec(True, False), "os", cells)
    assert len(rows) == 9  # 3 values x 3 repeats


def test_sweep_os_requires_seng():
    with pytest.raises(DataError, match="SENG"):
        sweep(small_task(), MethodSpec(False, True), SweepSpec("os", (0.5,)), fast_pipeline())


def test_sweep_singleton_grid_equals_run_method():
    task = small_task(7)
    pipeline = fast_pipeline(os_scale=0.6)
    cells = sweep(task, MethodSpec(True, False), SweepSpec("os", (0.6,), 3, 13), pipeline)
    direct = run_method(task, MethodSpec(True, False), pipeline, repeats=3, base_seed=13)
    assert report_content(cells[0].report) == report_content(direct)


def test_sweep_ratio_includes_original_dataset():
    task = small_task(8)
    current = compute_imbalance(task.labels).imbalance_ratio
    spec = SweepSpec("ratio", (0.1, round(current, 9)), repeats=3, base_seed=3)
    pipeline = fast_pipeline(os_scale=0.5)
    cells = sweep(task, MethodSpec(True, False), spec, pipeline)
    # at the original ratio the task passes through unmodified, OS pinned to 1
    unchanged = run_method(
        task, MethodSpec(True, False), fast_pipeline(os_scale=1.0), repeats=3, base_seed=3
    )
    assert report_content(cells[1].report) == report_content(unchanged)


def test_sweep_ratio_checks_its_whole_grid_before_any_run(monkeypatch):
    task = small_task(3)
    assert 0.1 < compute_imbalance(task.labels).imbalance_ratio < 0.99
    runs = []
    real_run_single = harness.run_single

    def counted_run_single(*args):
        runs.append(args[-1])
        return real_run_single(*args)

    monkeypatch.setattr(harness, "run_single", counted_run_single)
    with pytest.raises(DataError, match="cannot downsample upward: target 0.99"):
        sweep(task, MethodSpec(False, False), SweepSpec("ratio", (0.1, 0.99)), fast_pipeline())
    assert runs == []


def test_sweep_spec_validation():
    with pytest.raises(DataError, match="axis"):
        SweepSpec("epochs", (1.0,))
    with pytest.raises(DataError, match="empty"):
        SweepSpec("os", ())
    with pytest.raises(DataError, match="positive"):
        SweepSpec("os", (0.5, -1.0))
    with pytest.raises(DataError, match="3 repeats"):
        SweepSpec("os", (0.5,), repeats=2)


def test_default_grids_match_experiment_values():
    assert DEFAULT_OS_GRID == (0.2, 0.4, 0.6, 0.8, 1.0, 1.2)


# ---------------------------------------------------------------------------
# Planted generator.
# ---------------------------------------------------------------------------


def test_planted_counts_exact_at_full_signal():
    spec = PlantedDatasetSpec(
        n_manufacturers=40, n_services_per_category=6, n_clusters=3,
        capable_fraction=0.25, signal=1.0, noise=0.0, seed=5,
    )
    graph, target = generate_planted_dataset(spec)
    n_services = 24
    assert graph.num_nodes == 40 + n_services + 1
    capable = 10  # round(0.25 * 40)
    per_cluster = n_services // 3
    expected_edges = 40 * per_cluster + capable  # full home-cluster wiring + target links
    assert graph.num_edges == expected_edges
    task = mask_target(graph, target)
    assert int(task.labels.sum()) == capable


def test_planted_degree_rule_classifies_perfectly():
    spec = PlantedDatasetSpec(
        n_manufacturers=60, n_services_per_category=8, n_clusters=4,
        capable_fraction=0.2, signal=1.0, noise=0.0, seed=2,
    )
    graph, target = generate_planted_dataset(spec)
    task = mask_target(graph, target)
    cluster0 = {
        j for j in task.graph.service_ids() if task.graph.nodes[j].name.endswith("c0")
    }
    for m in task.graph.manufacturer_ids():
        into_cluster0 = sum(1 for v in task.graph.neighbors[m] if v in cluster0)
        assert (into_cluster0 > 0) == bool(task.labels[m])


def test_planted_deterministic():
    spec = PlantedDatasetSpec(seed=77)
    a, _ = generate_planted_dataset(spec)
    b, _ = generate_planted_dataset(spec)
    assert a == b


def test_planted_spec_validation():
    with pytest.raises(DataError, match="clusters"):
        PlantedDatasetSpec(n_clusters=1)
    with pytest.raises(DataError, match="probabilities"):
        PlantedDatasetSpec(signal=1.5)
    with pytest.raises(DataError, match="capable fraction"):
        PlantedDatasetSpec(capable_fraction=0.0)


# ---------------------------------------------------------------------------
# Result files.
# ---------------------------------------------------------------------------


def _toy_cells():
    reps = [
        RepeatResult(seed=3, auc_roc=0.75, auc_pr=0.5, epochs_run=10, wall_ms=12.5),
        RepeatResult(seed=4, auc_roc=0.85, auc_pr=0.6, epochs_run=11, wall_ms=13.5),
    ]
    from capgraph.harness import SweepCell

    return [SweepCell(0.4, MetricReport.from_repeats(reps))]


def test_results_csv_schema(tmp_path):
    rows = results_rows("toy", MethodSpec(True, True), "os", _toy_cells())
    path = tmp_path / "results.csv"
    write_results_csv(path, rows)
    with path.open() as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == [
            "dataset", "method", "axis", "value", "repeat",
            "auc_roc", "auc_pr", "seed", "epochs_run", "wall_ms",
        ]
        parsed = list(reader)
    assert len(parsed) == 2
    assert parsed[0]["method"] == "SF-GraphSAGE"
    assert float(parsed[0]["auc_roc"]) == 0.75
    assert parsed[1]["seed"] == "4"


def test_summary_json_means(tmp_path):
    cells = _toy_cells()
    path = tmp_path / "summary.json"
    write_summary_json(path, "toy", MethodSpec(True, True), "os", cells)
    payload = json.loads(path.read_text())
    assert payload["cells"][0]["auc_roc_mean"] == pytest.approx(0.8)
    assert payload["cells"][0]["repeats"] == 2
