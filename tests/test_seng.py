from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capgraph.errors import DataError
from capgraph.graph import (
    ClassStats,
    Graph,
    ServiceCategory,
    Split,
    compute_imbalance,
    manufacturer,
    mask_target,
    service,
    stratified_split,
)
from capgraph.seng import (
    SengConfig,
    generate_synthetic_node,
    num_synthetic_nodes,
    oversample,
    without_oversampling,
    write_audit_file,
)

from conftest import edge_set, random_bipartite_graph


def _stats(minority: int, majority: int) -> ClassStats:
    return ClassStats(majority, minority, 1, minority / majority)


def test_count_doubles_minority_at_os_one():
    assert num_synthetic_nodes(_stats(100, 400), 1.0) == 100


def test_count_zero_at_os_zero():
    assert num_synthetic_nodes(_stats(100, 400), 0.0) == 0


def test_count_rounds():
    assert num_synthetic_nodes(_stats(50, 400), 0.4) == 20


def _two_manufacturer_graph() -> Graph:
    nodes = [
        manufacturer("m1"),
        manufacturer("m2"),
        service("s1", ServiceCategory.PROCESS),
        service("s2", ServiceCategory.PROCESS),
        service("s3", ServiceCategory.MATERIAL),
    ]
    return Graph(nodes, [(0, 2), (0, 3), (1, 3), (1, 4)])


def test_generate_ceiling_sample_size():
    # union of m1 -> {s1,s2} and m2 -> {s2,s3} is {s1,s2,s3}; alpha=2 keeps 2
    g = _two_manufacturer_graph()
    for seed in range(20):
        rec = generate_synthetic_node(g, [0, 1], np.random.default_rng(seed), alpha_choices=(2,))
        union = set()
        for m in rec.seed_manufacturers:
            union.update(g.service_neighbors(m))
        assert set(rec.attached_services) <= union
        assert len(rec.attached_services) == -(-len(union) // 2)
        if set(rec.seed_manufacturers) == {0, 1}:
            assert len(rec.attached_services) == 2


def test_generate_duplicate_seed_union_is_itself():
    nodes = [manufacturer("m1"), service("s1", ServiceCategory.PROCESS)]
    g = Graph(nodes, [(0, 1)])
    rec = generate_synthetic_node(g, [0], np.random.default_rng(0), alpha_choices=(2,))
    assert rec.seed_manufacturers == (0, 0)
    assert rec.attached_services == (1,)


def test_generate_deterministic():
    g = _two_manufacturer_graph()
    a = generate_synthetic_node(g, [0, 1], np.random.default_rng(7))
    b = generate_synthetic_node(g, [0, 1], np.random.default_rng(7))
    assert a == b


def test_generate_all_isolated_errors():
    nodes = [manufacturer("m1"), service("s1", ServiceCategory.PROCESS)]
    g = Graph(nodes, [])
    with pytest.raises(DataError, match="isolated"):
        generate_synthetic_node(g, [0], np.random.default_rng(0))


def _imbalanced_task(n_pos=8, n_neg=40, seed=0):
    rng = np.random.default_rng(seed)
    n_manu = n_pos + n_neg
    g = random_bipartite_graph(rng, n_manu, 10, 0.35)
    nodes = list(g.nodes) + [service("target", ServiceCategory.PROCESS)]
    target = len(nodes) - 1
    edges = g.edge_array().tolist() + [(m, target) for m in range(n_pos)]
    return mask_target(Graph(nodes, edges), "target")


def test_oversample_doubles_minority_on_training_split():
    task = _imbalanced_task(10, 50)
    split = stratified_split(task.labels, (0.8, 0.1, 0.1), seed=1)
    before = compute_imbalance(task.labels, split.train_ids)
    aug = oversample(task, split, SengConfig(oversampling_scale=1.0, seed=5))
    assert aug.num_synthetic == before.minority_size
    after = compute_imbalance(aug.labels, aug.split.train_ids)
    assert after.minority_size == 2 * before.minority_size
    assert after.imbalance_ratio == pytest.approx(2 * before.imbalance_ratio)


def test_oversample_skips_when_ratio_above_threshold():
    # 30 positives vs 15+10 zeros (services count): train ratio ~ 25/30 > 0.7
    task = _imbalanced_task(30, 15)
    split = stratified_split(task.labels, (0.8, 0.1, 0.1), seed=1)
    ratio = compute_imbalance(task.labels, split.train_ids).imbalance_ratio
    assert ratio > 0.7
    aug = oversample(task, split, SengConfig(oversampling_scale=1.0, seed=5))
    assert aug.num_synthetic == 0
    assert aug.graph == task.graph


def test_oversample_os_zero_is_identity():
    task = _imbalanced_task()
    split = stratified_split(task.labels, (0.8, 0.1, 0.1), seed=1)
    aug = oversample(task, split, SengConfig(oversampling_scale=0.0, seed=5))
    assert aug.num_synthetic == 0
    assert aug.graph == task.graph


def _structural_checks(task, aug):
    base = task.graph
    # service set identical
    assert [aug.graph.nodes[s] for s in aug.graph.service_ids()] == [
        base.nodes[s] for s in base.service_ids()
    ]
    base_edges = edge_set(base)
    for rec in aug.synthetic:
        # synthetic edges are bipartite and realistic
        union = set()
        for m in rec.seed_manufacturers:
            union.update(base.service_neighbors(m))
        assert set(rec.attached_services) <= union
        assert rec.attached_services
        for s in rec.attached_services:
            assert not aug.graph.nodes[s].is_manufacturer
        # synthetic nodes train-only, minority-labeled
        assert aug.split.assignment[rec.node] is Split.TRAIN
    # removing synthetic nodes restores the base graph exactly
    kept = {e for e in edge_set(aug.graph) if e[0] < base.num_nodes and e[1] < base.num_nodes}
    assert kept == base_edges
    synth_edges = edge_set(aug.graph) - kept
    assert len(synth_edges) == sum(len(r.attached_services) for r in aug.synthetic)


def test_oversample_structural_invariants():
    task = _imbalanced_task(12, 60, seed=3)
    split = stratified_split(task.labels, (0.8, 0.1, 0.1), seed=2)
    aug = oversample(task, split, SengConfig(oversampling_scale=1.0, seed=11))
    assert aug.num_synthetic > 0
    _structural_checks(task, aug)


def test_oversample_deterministic():
    task = _imbalanced_task(10, 45, seed=4)
    split = stratified_split(task.labels, (0.8, 0.1, 0.1), seed=2)
    cfg = SengConfig(oversampling_scale=0.8, seed=21)
    a = oversample(task, split, cfg)
    b = oversample(task, split, cfg)
    assert a.graph == b.graph
    assert a.synthetic == b.synthetic
    assert np.array_equal(a.labels, b.labels)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(8, 14),
    st.integers(30, 60),
    st.sampled_from([0.2, 0.4, 0.6, 0.8, 1.0]),
    st.integers(0, 2**31 - 1),
)
def test_oversample_monotone_balancing_property(n_pos, n_neg, os_scale, seed):
    task = _imbalanced_task(n_pos, n_neg, seed=seed % 1000)
    split = stratified_split(task.labels, (0.8, 0.1, 0.1), seed=seed % 97)
    before = compute_imbalance(task.labels, split.train_ids)
    aug = oversample(task, split, SengConfig(oversampling_scale=os_scale, seed=seed))
    after = compute_imbalance(aug.labels, aug.split.train_ids)
    assert after.imbalance_ratio >= before.imbalance_ratio - 1e-12
    if aug.num_synthetic == 0:
        assert after.imbalance_ratio == before.imbalance_ratio
    else:
        assert after.imbalance_ratio > before.imbalance_ratio
    # no synthetic node leaks into valid/test
    for rec in aug.synthetic:
        assert aug.split.assignment[rec.node] is Split.TRAIN


def test_minority_label_zero_seeds_from_manufacturers():
    # Machining-style task: majority class 1, minority class 0.
    rng = np.random.default_rng(8)
    g = random_bipartite_graph(rng, 40, 8, 0.5)
    nodes = list(g.nodes) + [service("target", ServiceCategory.PROCESS)]
    target = len(nodes) - 1
    edges = g.edge_array().tolist() + [(m, target) for m in range(32)]
    task = mask_target(Graph(nodes, edges), "target")
    split = stratified_split(task.labels, (0.8, 0.1, 0.1), seed=1)
    stats = compute_imbalance(task.labels, split.train_ids)
    assert stats.minority_label == 0
    aug = oversample(task, split, SengConfig(oversampling_scale=1.0, seed=2))
    assert aug.num_synthetic == stats.minority_size
    for rec in aug.synthetic:
        assert aug.labels[rec.node] == 0
        for m in rec.seed_manufacturers:
            assert task.graph.nodes[m].is_manufacturer
            assert task.labels[m] == 0


def test_audit_file_format(tmp_path):
    task = _imbalanced_task(10, 45)
    split = stratified_split(task.labels, (0.8, 0.1, 0.1), seed=2)
    aug = oversample(task, split, SengConfig(oversampling_scale=0.5, seed=3))
    path = tmp_path / "audit.tsv"
    write_audit_file(aug, path)
    lines = path.read_text().splitlines()
    assert len(lines) == aug.num_synthetic
    first = lines[0].split("\t")
    assert len(first) == 4
    assert int(first[0]) == aug.synthetic[0].node
    assert int(first[1]) == aug.synthetic[0].alpha


def test_without_oversampling_wraps_task():
    task = _imbalanced_task()
    split = stratified_split(task.labels, (0.8, 0.1, 0.1), seed=1)
    aug = without_oversampling(task, split)
    assert aug.graph is task.graph
    assert aug.num_synthetic == 0
