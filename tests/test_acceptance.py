"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with `pytest -s tests/test_acceptance.py` to see them
inline; `pytest -v` shows one PASSED/FAILED row per criterion)."""

from __future__ import annotations

import sys
import time

import numpy as np
import pytest

from capgraph.cli import main as cli_main
from capgraph.features import integrate_features
from capgraph.graph import (
    Graph,
    ServiceCategory,
    compute_imbalance,
    init_type_codes,
    manufacturer,
    mask_target,
    service,
    stratified_split,
)
from capgraph.harness import (
    MethodSpec,
    PipelineConfig,
    PlantedDatasetSpec,
    SweepSpec,
    planted_task,
    run_method,
    sweep,
)
from capgraph.metrics import auc_pr, auc_roc
from capgraph.models import (
    TrainConfig,
    backward,
    forward,
    init_parameters,
    predict_labels,
    weighted_bce_loss,
)
from capgraph.seng import SengConfig, oversample

from conftest import edge_set, random_bipartite_graph
from test_metrics import ap_oracle, roc_oracle


def _report(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} - {detail}", file=sys.stderr, flush=True)


@pytest.fixture(scope="module")
def benchmark_task():
    """The directional benchmark: 1,000 manufacturers, 120 services,
    imbalance ratio 0.2, signal 0.9, noise 0.05."""
    spec = PlantedDatasetSpec(
        n_manufacturers=1000, n_services_per_category=30, n_clusters=4,
        capable_fraction=0.1867, signal=0.9, noise=0.05, seed=42,
    )
    task = planted_task(spec)
    ratio = compute_imbalance(task.labels).imbalance_ratio
    assert abs(ratio - 0.2) < 0.005
    return task


# ---------------------------------------------------------------------------
# Criterion 1: gradient correctness, both encoders, 3 seeds, < 10 s.
# ---------------------------------------------------------------------------


def _max_relative_fd_error(kind: str, seed: int) -> float:
    rng = np.random.default_rng(seed)
    graph = random_bipartite_graph(rng, 3, 3, 0.6)
    a = graph.dense_adjacency()
    x = rng.normal(0.0, 0.4, size=(6, 3))
    y = np.array([1, 0, 1, 0, 0, 0])
    mask = np.arange(6)
    weights = (0.8, 1.7)
    params = init_parameters(kind, 3, 4, np.random.default_rng(seed + 50))
    p, cache = forward(x, a, params)
    assert np.all(p > 1e-6) and np.all(p < 1 - 1e-6)
    grads = backward(cache, params, y, mask, weights)

    def loss() -> float:
        pv, _ = forward(x, a, params)
        return weighted_bce_loss(pv, y, mask, weights)

    step = 1e-4
    worst = 0.0
    for w, g in zip(params.weights(), grads):
        for idx in np.ndindex(w.shape):
            orig = w[idx]
            w[idx] = orig + step
            up = loss()
            w[idx] = orig - step
            down = loss()
            w[idx] = orig
            fd = (up - down) / (2 * step)
            worst = max(worst, abs(fd - g[idx]) / max(abs(fd), abs(g[idx]), 1e-8))
    return worst


def test_criterion_1_gradient_correctness():
    start = time.perf_counter()
    worst = 0.0
    for kind in ("graphsage", "gcn"):
        for seed in (0, 1, 2):
            worst = max(worst, _max_relative_fd_error(kind, seed))
    worst = max(worst, _max_relative_fd_error("graphsage", 3))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 10.0
    _report(1, ok, f"max relative gradient error {worst:.2e} in {elapsed:.1f}s")
    assert worst < 1e-4
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# Criterion 2: metric oracles, 200 random cases of size <= 12, exact to 1e-12.
# ---------------------------------------------------------------------------


def test_criterion_2_metric_oracles():
    rng = np.random.default_rng(20240917)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 13))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() == 0:
            labels[int(rng.integers(n))] = 1
        if labels.sum() == n:
            labels[int(rng.integers(n))] = 0
        scores = rng.choice([0.0, 0.1, 0.2, 0.5, 0.5, 0.8, 1.0], size=n)
        worst = max(worst, abs(auc_roc(scores, labels) - roc_oracle(scores, labels)))
        worst = max(worst, abs(auc_pr(scores, labels) - ap_oracle(list(scores), list(labels))))
    ok = worst <= 1e-12
    _report(2, ok, f"max |metric - bruteforce| = {worst:.2e} over 200 cases")
    assert worst <= 1e-12


# ---------------------------------------------------------------------------
# Criterion 3: SENG structural suite on 50 random imbalanced graphs, < 30 s.
# ---------------------------------------------------------------------------


def test_criterion_3_seng_structural_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    checked = 0
    for trial in range(50):
        n_pos = int(rng.integers(8, 20))
        n_neg = int(rng.integers(int(n_pos / 0.35), int(n_pos / 0.2)))
        base = random_bipartite_graph(rng, n_pos + n_neg, int(rng.integers(6, 12)), 0.35)
        nodes = list(base.nodes) + [service("target", ServiceCategory.PROCESS)]
        target = len(nodes) - 1
        edges = base.edge_array().tolist() + [(m, target) for m in range(n_pos)]
        task = mask_target(Graph(nodes, edges), "target")
        split = stratified_split(task.labels, (0.8, 0.1, 0.1), seed=trial)
        os_scale = float(rng.choice([0.2, 0.4, 0.6, 0.8, 1.0, 1.2]))
        before = compute_imbalance(task.labels, split.train_ids)
        if (1 + os_scale) * before.imbalance_ratio >= 0.95 or before.imbalance_ratio > 0.7:
            os_scale = 0.4  # keep the minority the minority and SENG active
        aug = oversample(task, split, SengConfig(oversampling_scale=os_scale, seed=trial))

        # service count preserved
        assert len(aug.graph.service_ids()) == len(task.graph.service_ids())
        # synthetic edges bipartite + neighborhood subset
        for rec in aug.synthetic:
            union: set[int] = set()
            for m in rec.seed_manufacturers:
                union.update(task.graph.service_neighbors(m))
            assert set(rec.attached_services) <= union
            assert all(not aug.graph.nodes[s].is_manufacturer for s in rec.attached_services)
        # base restored on synthetic removal
        p = task.graph.num_nodes
        kept = {e for e in edge_set(aug.graph) if e[0] < p and e[1] < p}
        assert kept == edge_set(task.graph)
        # post-SENG training ratio equals (1+OS)*|c2|/|c1| within rounding
        after = compute_imbalance(aug.labels, aug.split.train_ids)
        assert after.majority_size == before.majority_size
        assert after.minority_size == before.minority_size + round(os_scale * before.minority_size)
        assert after.imbalance_ratio == pytest.approx(
            (1 + os_scale) * before.imbalance_ratio, abs=1.0 / before.majority_size
        )
        checked += 1
    elapsed = time.perf_counter() - start
    ok = checked == 50 and elapsed < 30.0
    _report(3, ok, f"50 random graphs checked in {elapsed:.1f}s")
    assert checked == 50
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# Criterion 4: ablation direction on the planted benchmark, 3 seeds, < 10 min.
# ---------------------------------------------------------------------------


def test_criterion_4_node_classification_direction(benchmark_task):
    start = time.perf_counter()
    pipeline = PipelineConfig()
    plain = run_method(benchmark_task, MethodSpec(False, False), pipeline, repeats=3, base_seed=100)
    fa = run_method(benchmark_task, MethodSpec(False, True), pipeline, repeats=3, base_seed=100)
    sf = run_method(benchmark_task, MethodSpec(True, True), pipeline, repeats=3, base_seed=100)
    elapsed = time.perf_counter() - start
    sf_gap = sf.auc_roc - plain.auc_roc
    fa_gap = fa.auc_roc - plain.auc_roc
    ok = sf_gap >= 0.10 and fa_gap >= 0.10 and elapsed < 600.0
    _report(
        4, ok,
        f"AUC-ROC plain={plain.auc_roc:.4f} FA={fa.auc_roc:.4f} SF={sf.auc_roc:.4f} "
        f"(gaps {fa_gap:+.3f}/{sf_gap:+.3f}) in {elapsed:.0f}s",
    )
    assert sf_gap >= 0.10
    assert fa_gap >= 0.10
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# Criterion 5: feature aggregation helps link prediction, 3 seeds, < 5 min.
# ---------------------------------------------------------------------------


def test_criterion_5_link_prediction_direction(benchmark_task):
    start = time.perf_counter()
    pipeline = PipelineConfig()
    plain = run_method(
        benchmark_task, MethodSpec(False, False, "gcn", "link"), pipeline, repeats=3, base_seed=500
    )
    fa = run_method(
        benchmark_task, MethodSpec(False, True, "gcn", "link"), pipeline, repeats=3, base_seed=500
    )
    elapsed = time.perf_counter() - start
    ok = fa.auc_roc > plain.auc_roc and elapsed < 300.0

    def per_repeat(report) -> str:
        return "/".join(f"{r.auc_roc:.4f}" for r in report.per_repeat)

    _report(
        5, ok,
        f"link AUC-ROC GCN={plain.auc_roc:.4f} ({per_repeat(plain)}) "
        f"FA-GCN={fa.auc_roc:.4f} ({per_repeat(fa)}) in {elapsed:.0f}s",
    )
    assert fa.auc_roc > plain.auc_roc
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# Criterion 6: OS sweep shape (soft rise-then-degrade check), 3 repeats/cell.
# ---------------------------------------------------------------------------


def test_criterion_6_os_sweep_shape():
    spec = PlantedDatasetSpec(
        n_manufacturers=600, n_services_per_category=18, n_clusters=4,
        capable_fraction=0.1867, signal=0.9, noise=0.05, seed=42,
    )
    task = planted_task(spec)
    grid = (0.2, 0.4, 0.6, 0.8, 1.0, 1.2)
    cells = sweep(
        task, MethodSpec(True, True), SweepSpec("os", grid, repeats=3, base_seed=500),
        PipelineConfig(),
    )
    means = {cell.value: cell.report.auc_roc for cell in cells}
    grid_max = max(means.values())
    window_max = max(means[v] for v in (0.6, 0.8, 1.0))
    ok = window_max >= grid_max - 1e-12 and means[1.2] <= grid_max + 1e-12
    detail = " ".join(f"OS={v}:{means[v]:.4f}" for v in grid)
    _report(6, ok, detail)
    assert window_max >= grid_max - 1e-12
    assert means[1.2] <= grid_max + 1e-12


# ---------------------------------------------------------------------------
# Criterion 7: null-model sanity, signal 0, 5 seeds per method.
# ---------------------------------------------------------------------------


def test_criterion_7_null_model_sanity():
    methods = {
        "GraphSAGE": MethodSpec(False, False),
        "SENG-GraphSAGE": MethodSpec(True, False),
        "FA-GraphSAGE": MethodSpec(False, True),
        "SF-GraphSAGE": MethodSpec(True, True),
    }
    pipeline = PipelineConfig()
    means = {}
    for name, method in methods.items():
        aucs = []
        for s in range(5):
            # the null claim is about the generator's expectation: redraw the
            # dataset each seed so instance-specific noise averages out
            spec = PlantedDatasetSpec(
                n_manufacturers=800, n_services_per_category=25, n_clusters=4,
                capable_fraction=0.1867, signal=0.0, noise=0.05, seed=100 + s,
            )
            task = planted_task(spec)
            report = run_method(task, method, pipeline, repeats=1, base_seed=900 + s)
            aucs.append(report.auc_roc)
        means[name] = float(np.mean(aucs))
    ok = all(0.4 <= m <= 0.6 for m in means.values())
    _report(7, ok, " ".join(f"{k}={v:.3f}" for k, v in means.items()))
    for name, m in means.items():
        assert 0.4 <= m <= 0.6, f"{name} mean {m}"


# ---------------------------------------------------------------------------
# Criterion 8: end-to-end determinism of the train command.
# ---------------------------------------------------------------------------


def test_criterion_8_train_determinism(tmp_path):
    data = tmp_path / "data"
    assert cli_main([
        "gen-planted", "--manufacturers", "150", "--services-per-category", "8",
        "--clusters", "4", "--capable-fraction", "0.2", "--signal", "0.9",
        "--noise", "0.05", "--seed", "7", "--out", str(data),
    ]) == 0
    outs = []
    for run in ("r1", "r2"):
        out = tmp_path / run
        assert cli_main([
            "train", "--nodes", str(data / "nodes.tsv"), "--edges", str(data / "edges.tsv"),
            "--target", "target capability", "--method", "sf", "--seed", "11",
            "--out", str(out),
        ]) == 0
        outs.append(out)
    identical = {}
    for name in ("checkpoint.bin", "metrics.csv", "features.bin", "nodes.tsv",
                 "edges.tsv", "graph.bin", "assignment.tsv", "training_log.csv"):
        identical[name] = (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    ok = all(identical.values())
    _report(8, ok, "byte-identical: " + ", ".join(k for k, v in identical.items()))
    assert ok, identical


# ---------------------------------------------------------------------------
# Criterion 9: type-code, feature-integration, and threshold unit conformance.
# ---------------------------------------------------------------------------


def test_criterion_9_unit_conformance():
    # type codes: all five node kinds map to their codes
    nodes = [
        manufacturer("m"),
        service("ind", ServiceCategory.INDUSTRY),
        service("proc", ServiceCategory.PROCESS),
        service("mat", ServiceCategory.MATERIAL),
        service("cert", ServiceCategory.CERTIFICATION),
    ]
    graph = Graph(nodes, [(0, 1), (0, 2), (0, 3), (0, 4)])
    codes = init_type_codes(graph)
    codes_ok = codes.tolist() == [0, 1, 2, 3, 4]

    # integration: manufacturer branch carries the plane row, all other kinds zero-pad
    f2 = np.array([[1.5, -2.5]])
    feats = integrate_features(codes, f2, [n.is_manufacturer for n in nodes])
    integrate_ok = (
        np.allclose(feats[0], [0.0, 1.5, -2.5])
        and np.allclose(feats[1], [1.0, 0.0, 0.0])
        and np.allclose(feats[2], [2.0, 0.0, 0.0])
        and np.allclose(feats[3], [3.0, 0.0, 0.0])
        and np.allclose(feats[4], [4.0, 0.0, 0.0])
    )

    # thresholding is strict: the 0.5 boundary maps to label 0
    labels = predict_labels(np.array([0.7, 0.5, 0.5 + 1e-12, 0.3, 0.0, 1.0]), 0.5)
    threshold_ok = labels.tolist() == [1, 0, 1, 0, 0, 1]

    ok = codes_ok and integrate_ok and threshold_ok
    _report(9, ok, f"codes={codes_ok} integration={integrate_ok} threshold={threshold_ok}")
    assert codes_ok and integrate_ok and threshold_ok
