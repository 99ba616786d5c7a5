"""Synthetic edge and node generation for balancing node classes.

New manufacturer nodes are fabricated by sampling small bags of
minority-class manufacturers, pooling their service neighborhoods, and
wiring each synthetic node to a random subset of that pool. Synthetic
nodes carry the minority label and always land in the training split;
service nodes are never duplicated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .graph import (
    MANUFACTURER_CODE,
    ClassStats,
    Graph,
    LabeledTask,
    NodeColumns,
    Split,
    SplitAssignment,
    append_edges,
    compute_imbalance,
)

ISOLATED_RETRY_LIMIT = 16


@dataclass(frozen=True)
class SengConfig:
    oversampling_scale: float = 1.0
    ratio_threshold: float = 0.7
    alpha_choices: tuple[int, ...] = (2, 3, 4)
    seed: int = 0

    def __post_init__(self) -> None:  # comparisons are written so that NaN fails them
        if not 0 <= self.oversampling_scale < math.inf:
            raise DataError("oversampling scale must be >= 0 and finite")
        if not (0 < self.ratio_threshold <= 1):
            raise DataError("ratio threshold must be in (0, 1]")
        if not self.alpha_choices or not set(self.alpha_choices) <= {2, 3, 4}:
            raise DataError("alpha choices must be a non-empty subset of {2, 3, 4}")


@dataclass(frozen=True)
class SyntheticNodeRecord:
    node: int
    alpha: int
    seed_manufacturers: tuple[int, ...]
    attached_services: tuple[int, ...]


@dataclass(frozen=True)
class AugmentedGraph:
    """Base graph plus synthetic manufacturer nodes, with extended labels/split."""

    base: Graph
    graph: Graph
    synthetic: tuple[SyntheticNodeRecord, ...]
    labels: np.ndarray
    split: SplitAssignment

    @property
    def num_synthetic(self) -> int:
        return len(self.synthetic)


def without_oversampling(task: LabeledTask, split: SplitAssignment) -> AugmentedGraph:
    """Wrap a task as an AugmentedGraph with no synthetic nodes."""
    return AugmentedGraph(task.graph, task.graph, (), task.labels.copy(), split)


def num_synthetic_nodes(stats: ClassStats, oversampling_scale: float) -> int:
    """round(OS * |c2|) synthetic nodes, so the minority grows to (1+OS)*|c2|."""
    if oversampling_scale < 0:
        raise DataError("oversampling scale must be >= 0")
    return int(round(oversampling_scale * stats.minority_size))


def generate_synthetic_node(
    graph: Graph,
    minority_manufacturers: list[int],
    rng: np.random.Generator,
    alpha_choices: tuple[int, ...] = SengConfig.alpha_choices,
    node_id: int | None = None,
) -> SyntheticNodeRecord:
    """Fabricate one synthetic manufacturer record.

    Draw alpha, sample alpha minority manufacturers with replacement, pool
    their service neighbors, then attach ceil(|pool|/alpha) services drawn
    without replacement. Resamples when every drawn manufacturer is isolated.
    """
    if not minority_manufacturers:
        raise DataError("no minority manufacturers to seed synthetic nodes")
    pool = np.asarray(sorted(minority_manufacturers), dtype=np.int64)
    choices = np.asarray(sorted(alpha_choices), dtype=np.int64)
    for _ in range(ISOLATED_RETRY_LIMIT):
        alpha = int(rng.choice(choices))
        seeds = rng.choice(pool, size=alpha, replace=True)
        union: set[int] = set()
        for m in seeds:
            union.update(graph.service_neighbors(int(m)))
        if union:
            candidates = np.asarray(sorted(union), dtype=np.int64)
            take = -(-candidates.size // alpha)  # ceil(|S_sub| / alpha)
            attached = rng.choice(candidates, size=take, replace=False)
            return SyntheticNodeRecord(
                node=-1 if node_id is None else node_id,
                alpha=alpha,
                seed_manufacturers=tuple(int(m) for m in seeds),
                attached_services=tuple(sorted(int(s) for s in attached)),
            )
    raise DataError(
        f"all sampled manufacturers isolated after {ISOLATED_RETRY_LIMIT} attempts"
    )


def oversample(task: LabeledTask, split: SplitAssignment, config: SengConfig) -> AugmentedGraph:
    """Balance the training split by appending synthetic minority manufacturers.

    No-op (empty synthetic list) when the training imbalance ratio already
    exceeds the threshold. Each synthetic node is seeded only from
    minority-class manufacturer nodes of the training split, labeled with the
    minority label, and assigned to Train.
    """
    train_ids = split.train_ids
    stats = compute_imbalance(task.labels, train_ids)
    if stats.imbalance_ratio > config.ratio_threshold:
        return without_oversampling(task, split)
    count = num_synthetic_nodes(stats, config.oversampling_scale)
    if count == 0:
        return without_oversampling(task, split)

    minority_pool = [
        j for j in train_ids
        if task.labels[j] == stats.minority_label and task.graph.is_manufacturer[j]
    ]
    if not minority_pool:
        raise DataError("training split has no minority-class manufacturer nodes to seed")
    if not any(task.graph.service_neighbors(m) for m in minority_pool):
        raise DataError("every minority-class manufacturer in the training split is isolated")

    base = task.graph
    p = base.num_nodes
    records = []
    for k in range(count):
        rng = np.random.default_rng([config.seed, k])  # per-node stream: order-independent
        records.append(
            generate_synthetic_node(base, minority_pool, rng, config.alpha_choices, node_id=p + k)
        )

    columns = NodeColumns(np.append(base.codes, np.full(count, MANUFACTURER_CODE)),
                          (*base.names, *(f"synthetic-{rec.node - p}" for rec in records)))
    # each synthetic edge (service, node) in ascending order, merged behind its service's edges
    added = np.array([(s, rec.node) for rec in records for s in rec.attached_services], dtype=np.int64).reshape(-1, 2)
    added = added[np.lexsort((added[:, 1], added[:, 0]))]
    combined = Graph(columns, append_edges(base.edge_array(), added))

    labels = np.concatenate([task.labels, np.full(count, stats.minority_label, dtype=np.int64)])
    assignment = dict(split.assignment)
    for rec in records:
        assignment[rec.node] = Split.TRAIN
    return AugmentedGraph(base, combined, tuple(records), labels, SplitAssignment(assignment, split.seed))


def write_audit_file(aug: AugmentedGraph, path: Path | str) -> None:
    """One line per synthetic node: `node_id<TAB>alpha<TAB>seed_manufacturers<TAB>services`."""
    lines = []
    for rec in aug.synthetic:
        seeds = ",".join(str(m) for m in rec.seed_manufacturers)
        services = ",".join(str(s) for s in rec.attached_services)
        lines.append(f"{rec.node}\t{rec.alpha}\t{seeds}\t{services}\n")
    Path(path).write_text("".join(lines), encoding="utf-8")
