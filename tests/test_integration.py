from __future__ import annotations

import numpy as np

from capgraph.features import EmbeddingConfig, TsneConfig
from capgraph.graph import ServiceCategory, build_from_corpus, mask_target, restore_target
from capgraph.harness import MethodSpec, PipelineConfig, run_method, run_single
from capgraph.models import TrainConfig, forward, init_parameters
from capgraph.seng import SengConfig


def _corpus_graph():
    """Corpus-built graph with a recoverable capability pattern."""
    rng = np.random.default_rng(13)
    services = [
        ("machining", ServiceCategory.PROCESS),
        ("casting", ServiceCategory.PROCESS),
        ("welding", ServiceCategory.PROCESS),
        ("steel", ServiceCategory.MATERIAL),
        ("copper", ServiceCategory.MATERIAL),
        ("aerospace", ServiceCategory.INDUSTRY),
        ("automotive", ServiceCategory.INDUSTRY),
        ("iso 9001", ServiceCategory.CERTIFICATION),
    ]
    docs = {}
    for j in range(60):
        capable = j % 3 == 0
        words = ["we", "provide"]
        if capable:
            words += ["machining", "steel", "aerospace"]
            if rng.random() < 0.5:
                words.append("iso 9001")
        else:
            words += ["casting", "copper", "automotive"]
            if rng.random() < 0.3:
                words.append("welding")
        docs[f"shop-{j:03d}"] = " ".join(words)
    return build_from_corpus(docs, services)


def test_corpus_to_masked_task_to_training():
    graph = _corpus_graph()
    task = mask_target(graph, "machining")
    assert int(task.labels.sum()) == 20  # every third shop
    pipeline = PipelineConfig(
        seng=SengConfig(oversampling_scale=1.0),
        embedding=EmbeddingConfig(dim=16, epochs=40),
        tsne=TsneConfig(iterations=120),
        train=TrainConfig(max_epochs=60, patience=20, d_hidden=8),
    )
    report = run_method(task, MethodSpec(True, True), pipeline, repeats=1, base_seed=4)
    # capability is fully determined by the co-occurring service names
    assert report.auc_roc >= 0.9


def test_restore_then_link_prediction_on_corpus_graph():
    graph = _corpus_graph()
    task = mask_target(graph, "machining")
    restored, target_id = restore_target(task)
    assert restored.nodes[target_id].name == "machining"
    assert len(restored.neighbor_ids(target_id)) == 20
    pipeline = PipelineConfig(train=TrainConfig(max_epochs=60, patience=20, d_hidden=8))
    report = run_method(
        task, MethodSpec(False, False, "gcn", "link"), pipeline, repeats=1, base_seed=2
    )
    assert 0.0 <= report.auc_roc <= 1.0


def test_sage_forward_exposes_layer_embeddings():
    graph = _corpus_graph()
    a = graph.dense_adjacency()
    x = np.zeros((graph.num_nodes, 3))
    params = init_parameters("graphsage", 3, 8, np.random.default_rng(0))
    _, cache = forward(x, a, params)
    assert cache.h1.shape == (graph.num_nodes, 8)
    assert cache.h2.shape == (graph.num_nodes, 8)
    assert cache.p.shape == (graph.num_nodes,)
    assert np.all((cache.p >= 0) & (cache.p <= 1))


def test_run_artifacts_feature_bundle():
    graph = _corpus_graph()
    task = mask_target(graph, "machining")
    pipeline = PipelineConfig(
        embedding=EmbeddingConfig(dim=12, epochs=4),
        tsne=TsneConfig(iterations=60),
        train=TrainConfig(max_epochs=10, patience=5, d_hidden=8),
    )
    with_fa = run_single(task, MethodSpec(False, True), pipeline, seed=1)
    assert with_fa.features.f1 is not None
    assert with_fa.features.f2 is not None
    assert with_fa.features.f1.shape[0] == with_fa.features.f2.shape[0]
    without_fa = run_single(task, MethodSpec(False, False), pipeline, seed=1)
    assert without_fa.features.f1 is None
    assert np.all(without_fa.features.features[:, 1:] == 0.0)
