"""Experiment harness: method ablations, sweeps, and planted benchmarks.

A method is a (SENG?, FA?, encoder, task) combination; the four node
classification variants are GraphSAGE, SENG-GraphSAGE, FA-GraphSAGE and
SF-GraphSAGE (likewise for GCN). Sweeps scan the oversampling scale or
the dataset imbalance ratio and emit a flat CSV plus a JSON summary.
The planted generator builds graphs whose labels follow known cluster
structure, giving ground truth for directional checks.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .errors import DataError
from .features import (
    EmbeddingConfig,
    TsneConfig,
    build_neighbor_paragraphs,
    integrate_features,
    reduce_to_plane,
    train_paragraph_vectors,
)
from .graph import (
    SPLIT_RATIOS,
    Graph,
    LabeledTask,
    ServiceCategory,
    compute_imbalance,
    init_type_codes,
    manufacturer,
    mask_target,
    restore_target,
    service,
    stratified_split,
)
from .metrics import auc_pr, auc_roc
from .models import (
    _KIND_BYTES,
    EpochRecord,
    ModelParameters,
    TrainConfig,
    forward,
    train_link_predictor,
    train_node_classifier,
)
from .seng import AugmentedGraph, SengConfig, oversample, without_oversampling

RESULTS_HEADER = [
    "dataset", "method", "axis", "value", "repeat",
    "auc_roc", "auc_pr", "seed", "epochs_run", "wall_ms",
]

DEFAULT_OS_GRID = (0.2, 0.4, 0.6, 0.8, 1.0, 1.2)
DEFAULT_RATIO_GRID = (0.1, 0.2, 0.4, 0.5866)

# the ablation's methods: token -> (use_seng, use_fa, name prefix)
METHODS = {
    "plain": (False, False, ""),
    "seng": (True, False, "SENG-"),
    "fa": (False, True, "FA-"),
    "sf": (True, True, "SF-"),
}


@dataclass(frozen=True)
class MethodSpec:
    use_seng: bool = False
    use_fa: bool = False
    encoder: str = "graphsage"  # a checkpoint kind: graphsage | gcn
    task: str = "node"  # node | link

    def __post_init__(self) -> None:
        if self.encoder not in _KIND_BYTES:
            raise DataError(f"unknown encoder {self.encoder!r}")
        if self.task not in ("node", "link"):
            raise DataError(f"unknown task {self.task!r}")
        if self.task == "link" and self.use_seng:
            raise DataError("SENG applies to node classification only")

    @property
    def name(self) -> str:
        prefix = next(p for seng, fa, p in METHODS.values() if (seng, fa) == (self.use_seng, self.use_fa))
        label = prefix + {"graphsage": "GraphSAGE", "gcn": "GCN"}[self.encoder]
        return f"LinkPred-{label}" if self.task == "link" else label


@dataclass(frozen=True)
class PipelineConfig:
    ratios: tuple[float, float, float] = SPLIT_RATIOS
    seng: SengConfig = SengConfig()
    embedding: EmbeddingConfig = EmbeddingConfig()
    tsne: TsneConfig = TsneConfig()
    train: TrainConfig = TrainConfig()


@dataclass(frozen=True)
class SweepSpec:
    axis: str  # "os" | "ratio"
    values: tuple[float, ...]
    repeats: int = 3
    base_seed: int = 0

    def __post_init__(self) -> None:
        if self.axis not in ("os", "ratio"):
            raise DataError(f"unknown sweep axis {self.axis!r}")
        if not self.values:
            raise DataError("sweep grid is empty")
        if any(v <= 0 for v in self.values):
            raise DataError("sweep grid values must be positive")
        if self.repeats < 3:
            raise DataError("sweeps need at least 3 repeats")


@dataclass(frozen=True)
class RepeatResult:
    seed: int
    auc_roc: float
    auc_pr: float
    epochs_run: int
    wall_ms: float


@dataclass(frozen=True)
class MetricReport:
    auc_roc: float
    auc_pr: float
    repeats: int
    per_repeat: tuple[RepeatResult, ...]

    @classmethod
    def from_repeats(cls, results: list[RepeatResult]) -> "MetricReport":
        rocs = [r.auc_roc for r in results]
        prs = [r.auc_pr for r in results]
        return cls(sum(rocs) / len(rocs), sum(prs) / len(prs), len(results), tuple(results))


@dataclass
class FeatureBundle:
    """Integrated node features plus the FA intermediates (None without FA)."""

    features: np.ndarray
    f1: np.ndarray | None = None
    f2: np.ndarray | None = None


@dataclass
class RunArtifacts:
    """Everything a single node-classification run produced (for persistence)."""

    aug: AugmentedGraph
    features: FeatureBundle
    params: ModelParameters
    log: list[EpochRecord]
    probabilities: np.ndarray
    result: RepeatResult


def build_features(
    graph: Graph | AugmentedGraph,
    use_fa: bool,
    embedding: EmbeddingConfig,
    tsne: TsneConfig,
    seed: int,
    paragraphs_from: Graph | AugmentedGraph | None = None,
) -> FeatureBundle:
    """Type-code features, with plane embeddings of neighbor-name paragraphs
    on manufacturer rows when feature aggregation is on. The paragraphs come
    from `paragraphs_from` (default: `graph`), which must number the
    manufacturers as `graph` does."""
    g = graph.graph if isinstance(graph, AugmentedGraph) else graph
    codes = init_type_codes(g)
    if not use_fa:
        return FeatureBundle(integrate_features(codes, None, g.is_manufacturer))
    paragraphs = build_neighbor_paragraphs(graph if paragraphs_from is None else paragraphs_from)
    f1 = train_paragraph_vectors(paragraphs, **asdict(embedding), seed=seed)
    f2 = reduce_to_plane(f1, **asdict(tsne), seed=seed)
    return FeatureBundle(integrate_features(codes, f2, g.is_manufacturer), f1, f2)


def run_single(
    task: LabeledTask,
    method: MethodSpec,
    pipeline: PipelineConfig,
    seed: int,
) -> RunArtifacts:
    """One seeded pipeline pass: split, optional SENG, features, train, score."""
    if method.task != "node":
        raise DataError("run_single handles node classification; use run_link for links")
    start = time.perf_counter()
    split = stratified_split(task.labels, pipeline.ratios, seed)
    if method.use_seng:
        aug = oversample(task, split, replace(pipeline.seng, seed=seed))
    else:
        aug = without_oversampling(task, split)
    bundle = build_features(aug, method.use_fa, pipeline.embedding, pipeline.tsne, seed)
    train_cfg = replace(pipeline.train, seed=seed)
    params, log = train_node_classifier(aug, bundle.features, aug.split, train_cfg, method.encoder)
    probs, _ = forward(bundle.features, aug.graph, params)  # reuses the graph's blocks from training
    test_ids = np.array(aug.split.test_ids, dtype=np.int64)
    result = RepeatResult(
        seed=seed,
        auc_roc=auc_roc(probs[test_ids], aug.labels[test_ids]),
        auc_pr=auc_pr(probs[test_ids], aug.labels[test_ids]),
        epochs_run=len(log),
        wall_ms=(time.perf_counter() - start) * 1e3,
    )
    return RunArtifacts(aug, bundle, params, log, probs, result)


def run_link(
    task: LabeledTask,
    method: MethodSpec,
    pipeline: PipelineConfig,
    seed: int,
) -> RepeatResult:
    """One seeded link-prediction pass against the task's target service.

    The encoder sees the restored (unmasked) graph minus held-out positives;
    FA features are built on the masked graph so paragraphs cannot mention
    the target.
    """
    start = time.perf_counter()
    full_graph, _ = restore_target(task)
    # paragraphs come from the masked graph so they cannot mention the
    # target; manufacturer ids agree since the target is appended last
    features = build_features(
        full_graph, method.use_fa, pipeline.embedding, pipeline.tsne, seed, paragraphs_from=task.graph,
    ).features
    train_cfg = replace(pipeline.train, seed=seed)
    _, outcome = train_link_predictor(
        full_graph, features, [task.target_name], train_cfg, method.encoder, pipeline.ratios,
    )
    return RepeatResult(
        seed=seed,
        auc_roc=outcome.auc_roc,
        auc_pr=outcome.auc_pr,
        epochs_run=outcome.epochs_run,
        wall_ms=(time.perf_counter() - start) * 1e3,
    )


def run_method(
    task: LabeledTask,
    method: MethodSpec,
    pipeline: PipelineConfig,
    repeats: int = SweepSpec.repeats,
    base_seed: int = 0,
) -> MetricReport:
    """Repeat the pipeline with seeds base_seed..base_seed+repeats-1 and average."""
    if repeats < 1:
        raise DataError("repeats must be >= 1")
    results = []
    for r in range(repeats):
        seed = base_seed + r
        if method.task == "link":
            results.append(run_link(task, method, pipeline, seed))
        else:
            results.append(run_single(task, method, pipeline, seed).result)
    return MetricReport.from_repeats(results)


# ---------------------------------------------------------------------------
# Imbalance-ratio manipulation.
# ---------------------------------------------------------------------------


def downsample_to_ratio(task: LabeledTask, target_ratio: float, seed: int = 0) -> LabeledTask:
    """Remove uniformly chosen minority-class manufacturer nodes (and their
    edges) until |c2|/|c1| falls to at most target_ratio."""
    stats = compute_imbalance(task.labels)
    if target_ratio >= stats.imbalance_ratio:
        raise DataError(
            f"cannot downsample upward: target {target_ratio} >= current {stats.imbalance_ratio:.6f}"
        )
    if target_ratio <= 0:
        raise DataError("target ratio must be positive")
    keep_minority = int(target_ratio * stats.majority_size)
    to_remove = stats.minority_size - keep_minority
    removable = [
        j for j in range(task.graph.num_nodes)
        if task.labels[j] == stats.minority_label and task.graph.is_manufacturer[j]
    ]
    if to_remove > len(removable):
        raise DataError(
            f"cannot reach ratio {target_ratio}: only {len(removable)} minority manufacturers"
        )
    rng = np.random.default_rng(seed)
    removed = set(int(j) for j in rng.choice(np.array(removable), size=to_remove, replace=False))

    kept = np.ones(task.graph.num_nodes, dtype=bool)
    kept[list(removed)] = False
    remap = np.cumsum(kept) - 1
    nodes = [node for node, keep in zip(task.graph.nodes, kept) if keep]
    edges = task.graph.edge_array()
    edges = remap[edges[kept[edges].all(axis=1)]]
    labels = task.labels[kept].astype(np.int64)
    removed_edges = tuple(
        (int(remap[m]), name) for m, name in task.removed_edges if m not in removed
    )
    return LabeledTask(Graph(nodes, edges), labels, task.target_name, task.target_category, removed_edges)


# ---------------------------------------------------------------------------
# Sweeps.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepCell:
    value: float | str  # a grid value, or "-" for a single train run
    report: MetricReport


def sweep(
    task: LabeledTask,
    method: MethodSpec,
    spec: SweepSpec,
    pipeline: PipelineConfig,
) -> list[SweepCell]:
    """One run_method per grid value.

    The OS axis varies the oversampling scale (SENG methods only); the ratio
    axis downsamples the dataset first with OS pinned at 1, passing the task
    through unchanged when the grid value equals the current ratio.
    """
    if spec.axis == "os" and not method.use_seng:
        raise DataError("OS sweep requires a SENG-enabled method")
    cells = []
    for value in spec.values:
        if spec.axis == "os":
            cell_pipeline = replace(pipeline, seng=replace(pipeline.seng, oversampling_scale=value))
            cell_task = task
        else:
            cell_pipeline = replace(pipeline, seng=replace(pipeline.seng, oversampling_scale=1.0))
            current = compute_imbalance(task.labels).imbalance_ratio
            if abs(value - current) < 1e-9:
                cell_task = task
            else:
                cell_task = downsample_to_ratio(task, value, spec.base_seed)
        report = run_method(cell_task, method, cell_pipeline, spec.repeats, spec.base_seed)
        cells.append(SweepCell(value, report))
    return cells


def results_rows(
    dataset: str,
    method: MethodSpec,
    axis: str,
    cells: list[SweepCell],
) -> list[dict[str, object]]:
    rows = []
    for cell in cells:
        for i, rep in enumerate(cell.report.per_repeat):
            rows.append(
                {
                    "dataset": dataset,
                    "method": method.name,
                    "axis": axis,
                    "value": str(cell.value),
                    "repeat": i,
                    "auc_roc": repr(rep.auc_roc),
                    "auc_pr": repr(rep.auc_pr),
                    "seed": rep.seed,
                    "epochs_run": rep.epochs_run,
                    "wall_ms": f"{rep.wall_ms:.3f}",
                }
            )
    return rows


def write_results_csv(
    path: Path | str, rows: list[dict[str, object]], header: list[str] = RESULTS_HEADER
) -> None:
    """The rows as CSV under `header`; row keys outside it are left out."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=header, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)


def write_summary_json(path: Path | str, dataset: str, method: MethodSpec,
                       axis: str, cells: list[SweepCell]) -> None:
    payload = {
        "dataset": dataset,
        "method": method.name,
        "axis": axis,
        "cells": [
            {
                "value": cell.value,
                "auc_roc_mean": cell.report.auc_roc,
                "auc_pr_mean": cell.report.auc_pr,
                "repeats": cell.report.repeats,
            }
            for cell in cells
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Planted benchmark generator.
# ---------------------------------------------------------------------------

TARGET_SERVICE_NAME = "target capability"

_CATEGORY_ORDER = (
    ServiceCategory.INDUSTRY,
    ServiceCategory.PROCESS,
    ServiceCategory.MATERIAL,
    ServiceCategory.CERTIFICATION,
)


@dataclass(frozen=True)
class PlantedDatasetSpec:
    n_manufacturers: int = 200
    n_services_per_category: int = 10
    n_clusters: int = 4
    capable_fraction: float = 0.2
    signal: float = 0.9
    noise: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_manufacturers < 4 or self.n_services_per_category < 1:
            raise DataError("planted spec too small")
        if self.n_clusters < 2:
            raise DataError("planted spec needs at least 2 service clusters")
        if not (0 <= self.signal <= 1 and 0 <= self.noise <= 1):
            raise DataError("signal and noise must be probabilities")
        if not (0 < self.capable_fraction < 1):
            raise DataError("capable fraction must be in (0, 1)")
        if self.seed < 0:
            raise DataError("seed must be >= 0")


def generate_planted_dataset(spec: PlantedDatasetSpec) -> tuple[Graph, str]:
    """Planted capability benchmark.

    Services are spread round-robin over clusters (categories in blocks), so
    every cluster carries the same category mix; cluster 0 is
    target-correlated. Each capable manufacturer links to every cluster-0
    service with probability `signal`; each non-capable manufacturer does the
    same with a uniformly drawn home cluster >= 1. Noise edges hit uniform
    manufacturer-service pairs. The target service node connects to exactly
    the capable manufacturers, so masking it reproduces the labels.
    """
    rng = np.random.default_rng(spec.seed)
    n_services = 4 * spec.n_services_per_category

    nodes = [manufacturer(f"maker-{j:05d}") for j in range(spec.n_manufacturers)]
    clusters: list[list[int]] = [[] for _ in range(spec.n_clusters)]
    for s in range(n_services):
        category = _CATEGORY_ORDER[s // spec.n_services_per_category]
        cluster = s % spec.n_clusters
        sid = spec.n_manufacturers + s
        nodes.append(service(f"{category.value} s{s} c{cluster}", category))
        clusters[cluster].append(sid)
    target_id = len(nodes)
    nodes.append(service(TARGET_SERVICE_NAME, ServiceCategory.PROCESS))

    n_capable = int(round(spec.capable_fraction * spec.n_manufacturers))
    capable = set(
        int(j) for j in rng.choice(spec.n_manufacturers, size=n_capable, replace=False)
    )
    edges: list[tuple[int, int]] = []
    for m in range(spec.n_manufacturers):
        if m in capable:
            home = 0
        else:
            home = 1 + int(rng.integers(spec.n_clusters - 1))
        if spec.signal > 0:
            hits = rng.random(len(clusters[home])) < spec.signal
            edges.extend((m, s) for s, hit in zip(clusters[home], hits) if hit)
    if spec.noise > 0:
        noise_hits = rng.random((spec.n_manufacturers, n_services)) < spec.noise
        for m, s_local in zip(*np.nonzero(noise_hits)):
            edges.append((int(m), spec.n_manufacturers + int(s_local)))
    edges.extend((m, target_id) for m in sorted(capable))
    return Graph(nodes, edges), TARGET_SERVICE_NAME


def planted_task(spec: PlantedDatasetSpec) -> LabeledTask:
    graph, target = generate_planted_dataset(spec)
    return mask_target(graph, target)
