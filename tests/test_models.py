from __future__ import annotations

import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capgraph.errors import DataError
from capgraph.features import integrate_features
from capgraph.graph import (
    Graph,
    ServiceCategory,
    init_type_codes,
    manufacturer,
    mask_target,
    restore_target,
    service,
    stratified_split,
)
from capgraph.metrics import auc_roc
from capgraph import models
from capgraph.models import (
    AdamState,
    BlockOperator,
    ModelParameters,
    TrainConfig,
    adam_step,
    adjacency_operator,
    backward,
    _pair_scores,
    bce_logit_gradient,
    encode,
    encoder_backward,
    forward,
    gcn_propagation_matrix,
    init_parameters,
    inverse_frequency_weights,
    link_embedding_gradient,
    link_embeddings,
    load_checkpoint,
    mean_aggregation_matrix,
    predict_labels,
    save_checkpoint,
    split_link_edges,
    train_link_predictor,
    train_node_classifier,
    weighted_bce_loss,
)
from capgraph.seng import without_oversampling
from capgraph.harness import PlantedDatasetSpec, generate_planted_dataset, planted_task

from conftest import edge_set, graph_layouts, random_bipartite_graph


def _six_node_instance(seed: int, feature_scale: float = 0.4):
    """Small random graph + features that keep the head unsaturated."""
    rng = np.random.default_rng(seed)
    g = random_bipartite_graph(rng, 3, 3, 0.6)
    a = g.dense_adjacency()
    x = rng.normal(0.0, feature_scale, size=(6, 3))
    y = np.array([1, 0, 1, 0, 0, 0])
    mask = np.arange(6)
    return a, x, y, mask


# ---------------------------------------------------------------------------
# Dense oracles: the p x p operators and encoders the block operator replaced.
# ---------------------------------------------------------------------------


def _neighborhood_mean(features, adjacency, node):
    """Mean of a node's neighbor feature rows; zeros when isolated."""
    neighbors = np.flatnonzero(np.asarray(adjacency)[node])
    if neighbors.size == 0:
        return np.zeros(np.asarray(features).shape[1])
    return np.asarray(features, dtype=np.float64)[neighbors].mean(axis=0)


def _link_score(h_u, h_v):
    """Sigmoid of the inner product of two node embeddings."""
    return float(1.0 / (1.0 + np.exp(-(np.asarray(h_u) @ np.asarray(h_v)))))


def _dense_mean(a):
    degrees = a.sum(axis=1)
    scale = np.divide(1.0, degrees, out=np.zeros_like(degrees), where=degrees > 0)
    return a * scale[:, None]


def _dense_gcn(a):
    a_hat = a + np.eye(a.shape[0])
    inv_sqrt = 1.0 / np.sqrt(a_hat.sum(axis=1))
    return a_hat * inv_sqrt[:, None] * inv_sqrt[None, :]


def _dense_forward_backward(x, a, params, dt):
    """Node probabilities and (w1, w2, w3) gradients from dense p x p
    operators, given dLoss/d(pre-sigmoid) `dt`."""
    relu = lambda z: np.maximum(z, 0.0)
    dt = dt[:, None]
    if params.kind == "graphsage":
        m = _dense_mean(a)
        c1 = np.hstack([x, m @ x])
        z1 = c1 @ params.w1
        c2 = np.hstack([relu(z1), m @ relu(z1)])
        z2 = c2 @ params.w2
        h2 = relu(z2)
        c3 = np.hstack([h2, a @ h2])
        p = 1.0 / (1.0 + np.exp(-(c3 @ params.w3)))
        dc3 = dt @ params.w3.T
        dh = params.d_hidden
        dz2 = (dc3[:, :dh] + a.T @ dc3[:, dh:]) * (z2 > 0)
        dc2 = dz2 @ params.w2.T
        dz1 = (dc2[:, :dh] + m.T @ dc2[:, dh:]) * (z1 > 0)
        return p[:, 0], (c1.T @ dz1, c2.T @ dz2, c3.T @ dt)
    s = _dense_gcn(a)
    sx = s @ x
    z1 = sx @ params.w1
    sh1 = s @ relu(z1)
    z2 = sh1 @ params.w2
    h2 = relu(z2)
    p = 1.0 / (1.0 + np.exp(-(h2 @ params.w3)))
    dz2 = (dt @ params.w3.T) * (z2 > 0)
    dz1 = (s.T @ (dz2 @ params.w2.T)) * (z1 > 0)
    return p[:, 0], (sx.T @ dz1, sh1.T @ dz2, h2.T @ dt)


def _densify(op, p):
    return op @ np.eye(p)


@st.composite
def _graphs(draw):
    """Manufacturer-service graphs with isolated nodes, service-service edges,
    no edges at all, and single nodes; node kinds interleave."""
    p = draw(st.integers(1, 14))
    kinds = draw(st.lists(st.booleans(), min_size=p, max_size=p))
    nodes = [manufacturer(f"m{j}") if k else service(f"s{j}", ServiceCategory.PROCESS)
             for j, k in enumerate(kinds)]
    candidates = [(u, v) for u in range(p) for v in range(u + 1, p) if not (kinds[u] and kinds[v])]
    edges = draw(st.lists(st.sampled_from(candidates), unique=True)) if candidates else []
    return Graph(nodes, edges)


# ---------------------------------------------------------------------------
# Aggregation.
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(_graphs(), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_block_operator_matches_dense_oracle(graph, width, seed):
    a = graph.dense_adjacency()
    x = np.random.default_rng(seed).normal(size=(graph.num_nodes, width))
    cases = [
        (adjacency_operator(graph), a),
        (adjacency_operator(a), a),  # dense ndarray input
        (mean_aggregation_matrix(graph), _dense_mean(a)),
        (mean_aggregation_matrix(a), _dense_mean(a)),
        (gcn_propagation_matrix(graph), _dense_gcn(a)),
        (gcn_propagation_matrix(a), _dense_gcn(a)),
    ]
    for op, dense in cases:
        assert np.abs(op @ x - dense @ x).max(initial=0.0) <= 1e-12
        assert np.abs(op.T @ x - dense.T @ x).max(initial=0.0) <= 1e-12


def _interleaved_and_ordered(seed: int) -> tuple[Graph, Graph, np.ndarray]:
    """A random graph whose manufacturer ids I are split by services, the
    same graph relabelled to manufacturers first, and the order that maps
    the second's ids to the first's."""
    rng = np.random.default_rng(seed)
    kinds = rng.permutation([True] * 30 + [False] * 9)
    nodes = [manufacturer(f"m{j}") if k else service(f"s{j}", ServiceCategory.PROCESS)
             for j, k in enumerate(kinds)]
    edges = [(u, v) for u in range(len(kinds)) for v in range(u + 1, len(kinds))
             if not (kinds[u] and kinds[v]) and rng.random() < 0.3]
    order = np.concatenate([np.flatnonzero(kinds), np.flatnonzero(~kinds)])
    new_id = np.argsort(order)
    ordered = Graph([nodes[j] for j in order], [(new_id[u], new_id[v]) for u, v in edges])
    return Graph(nodes, edges), ordered, order


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("width", [1, 3, 16])
def test_block_products_read_id_runs_as_the_gathered_ids(seed, width):
    # manufacturers first: I and V are slices, read and written through views;
    # interleaved: index arrays, gathered and scattered. Both must give the
    # same bits, rows permuted.
    interleaved, ordered, order = _interleaved_and_ordered(seed)
    ids_i, ids_v = interleaved.adjacency_blocks()[:2]
    assert not isinstance(ids_i, slice) and not isinstance(ids_v, slice)
    assert ordered.adjacency_blocks()[:2] == (slice(0, 30), slice(30, 39))
    x = np.random.default_rng(seed + 10).normal(size=(interleaved.num_nodes, width))
    for build in (adjacency_operator, mean_aggregation_matrix, gcn_propagation_matrix):
        split_op, run_op = build(interleaved), build(ordered)
        for a, b in ((split_op, run_op), (split_op.T, run_op.T)):
            assert (a @ x)[order].tobytes() == (b @ x[order]).tobytes(), build.__name__


def test_block_operator_of_a_dense_array_reads_no_index_arrays():
    a = np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]], dtype=float)
    op = adjacency_operator(a)
    assert (op.ids_i, op.ids_v) == (slice(0, 0), slice(0, 3))
    assert op.c is a  # used as it is, no copy
    x = np.arange(6.0).reshape(3, 2)
    assert np.array_equal(op @ x, a @ x) and np.array_equal(op.T @ x, a.T @ x)


@settings(max_examples=100, deadline=None)
@given(_graphs(), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_fanout_sampling_keeps_true_neighbors(graph, fanout, seed):
    a = graph.dense_adjacency()
    p = graph.num_nodes
    ops = [mean_aggregation_matrix(graph, fanout, np.random.default_rng(seed)) for _ in range(2)]
    sampled = _densify(replace(ops[0], left=None), p)
    assert np.array_equal(sampled, _densify(replace(ops[1], left=None), p))  # same seed, same draw
    assert np.all(sampled <= a)  # only true neighbors
    assert np.array_equal(sampled.sum(axis=1), np.minimum(a.sum(axis=1), fanout))
    x = np.random.default_rng(seed).normal(size=(p, 3))
    dense = _dense_mean(sampled)
    assert np.abs(ops[0] @ x - dense @ x).max(initial=0.0) <= 1e-12
    assert np.abs(ops[0].T @ x - dense.T @ x).max(initial=0.0) <= 1e-12


def test_fanout_sampling_needs_a_graph():
    a = np.ones((3, 3)) - np.eye(3)
    with pytest.raises(DataError, match="requires a graph"):
        mean_aggregation_matrix(a, 1, np.random.default_rng(0))


def test_fanout_sampling_draws_differ_across_epochs():
    g = random_bipartite_graph(np.random.default_rng(0), 20, 20, 0.5)
    rng = np.random.default_rng(1)
    first, second = (_densify(mean_aggregation_matrix(g, 2, rng), g.num_nodes) for _ in range(2))
    assert not np.array_equal(first, second)


@settings(max_examples=60, deadline=None)
@given(_graphs(), st.sampled_from(["graphsage", "gcn"]), st.integers(0, 2**32 - 1))
def test_encoders_match_dense_oracle(graph, kind, seed):
    rng = np.random.default_rng(seed)
    a = graph.dense_adjacency()
    x = rng.normal(0.0, 0.5, size=(graph.num_nodes, 3))
    params = init_parameters(kind, 3, 4, rng)
    y = rng.integers(0, 2, size=graph.num_nodes)
    mask = np.arange(graph.num_nodes)
    _, cache = forward(x, graph, params)
    want_p, want_grads = _dense_forward_backward(
        x, a, params, bce_logit_gradient(cache.p, y, mask, (0.7, 1.9))
    )
    assert np.abs(cache.p - want_p).max() <= 1e-12
    assert np.abs(forward(x, a, params)[0] - want_p).max() <= 1e-12  # dense ndarray input
    for got, want in zip(backward(cache, params, y, mask, (0.7, 1.9)), want_grads):
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("kind", ["graphsage", "gcn"])
def test_the_forward_pass_reads_the_blocks_and_builds_no_csr(kind):
    # eval and predict run only this pass on a graph they read: its CSR form is never needed
    graph = random_bipartite_graph(np.random.default_rng(3), 12, 5)
    rng = np.random.default_rng(4)
    forward(rng.normal(size=(graph.num_nodes, 3)), graph, init_parameters(kind, 3, 4, rng))
    assert "_csr" not in vars(graph)


@pytest.mark.parametrize("kind", ["graphsage", "gcn"])
def test_forward_over_rows_equals_the_full_forward_in_those_rows(tmp_path, kind):
    for layout, graph in graph_layouts(tmp_path).items():
        rng = np.random.default_rng(5)
        p = graph.num_nodes
        x = rng.normal(0.0, 0.5, size=(p, 3))
        params = init_parameters(kind, 3, 8, rng)
        full, _ = forward(x, graph, params)
        a = graph.dense_adjacency()
        for rows in ([0], [p - 1], np.sort(rng.choice(p, 7, replace=False)), np.arange(p)):
            rows = np.asarray(rows)
            got, cache = forward(x, graph, params, rows=rows)
            assert got.shape == rows.shape and np.abs(got - full[rows]).max() <= 1e-12, layout
            # layer 2 runs on the rows the head reads: GraphSAGE's rows and their neighbours, GCN's rows
            reads = np.union1d(rows, np.flatnonzero(a[rows].any(axis=0))) if kind == "graphsage" else rows
            assert cache.c2.shape[0] == reads.size, layout


def test_neighborhood_mean_hand_case():
    a = np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]], dtype=float)
    feats = np.array([[9.0, 9, 9], [1, 0, 0], [3, 0, 0]])
    got = mean_aggregation_matrix(a) @ feats
    assert np.allclose(got[0], [2, 0, 0])
    for j in range(3):
        assert np.allclose(got[j], _neighborhood_mean(feats, a, j))


def test_neighborhood_mean_isolated_zero():
    a = np.zeros((3, 3))
    feats = np.ones((3, 3))
    assert np.allclose((mean_aggregation_matrix(a) @ feats)[1], [0, 0, 0])
    assert np.allclose(_neighborhood_mean(feats, a, 1), [0, 0, 0])


def test_neighborhood_mean_fanout_deterministic():
    # four services, every pair linked: each node has the other three as neighbors
    nodes = [service(f"s{j}", ServiceCategory.PROCESS) for j in range(4)]
    g = Graph(nodes, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    feats = np.diag([1.0, 2.0, 3.0, 4.0])
    picks = {
        tuple((mean_aggregation_matrix(g, fanout=1, rng=np.random.default_rng(5)) @ feats)[0])
        for _ in range(3)
    }
    assert len(picks) == 1  # same seed, same single-neighbor pick
    assert picks.pop() in {tuple(feats[j]) for j in (1, 2, 3)}


def test_mean_aggregation_matrix_rows():
    a = np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]], dtype=float)
    m = mean_aggregation_matrix(a)
    assert np.allclose((m @ np.ones((3, 1)))[:, 0], [1, 1, 1])
    iso = mean_aggregation_matrix(np.zeros((2, 2)))
    assert np.all(_densify(iso, 2) == 0.0)


def test_gcn_propagation_single_node_identity():
    s = gcn_propagation_matrix(np.zeros((1, 1)))
    assert np.allclose(_densify(s, 1), [[1.0]])


def test_gcn_propagation_cycle_rows_sum_to_one():
    # 4-cycle is 2-regular: normalized operator rows sum to exactly 1
    a = np.array([
        [0, 1, 0, 1],
        [1, 0, 1, 0],
        [0, 1, 0, 1],
        [1, 0, 1, 0],
    ], dtype=float)
    s = gcn_propagation_matrix(a)
    assert np.allclose((s @ np.ones((4, 1)))[:, 0], 1.0)


def test_training_memory_is_not_quadratic():
    # 20,000 manufacturers: one dense p x p float64 matrix alone is 3.2 GB
    graph, target = generate_planted_dataset(PlantedDatasetSpec(
        n_manufacturers=20_000, n_services_per_category=10, n_clusters=4,
        capable_fraction=0.2, signal=0.9, noise=0.05, seed=0,
    ))
    task = mask_target(graph, target)
    aug = without_oversampling(task, stratified_split(task.labels, (0.8, 0.1, 0.1), 0))
    feats = integrate_features(init_type_codes(aug.graph), None, aug.graph.is_manufacturer)
    tracemalloc.start()
    try:
        for kind in ("graphsage", "gcn"):
            _, log = train_node_classifier(aug, feats, aug.split, TrainConfig(max_epochs=2), kind)
            assert len(log) == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * 2**20, f"peak {peak / 2**20:.0f} MB"


# ---------------------------------------------------------------------------
# Forward passes.
# ---------------------------------------------------------------------------


def _zero_params(kind: str, d_in=3, d_h=4) -> ModelParameters:
    rng = np.random.default_rng(0)
    params = init_parameters(kind, d_in, d_h, rng)
    for w in params.weights():
        w[:] = 0.0
    return params


def test_sage_zero_weights_give_half():
    a, x, _, _ = _six_node_instance(0)
    _, cache = forward(x, a, _zero_params("graphsage"))
    assert np.allclose(cache.p, 0.5)


def test_gcn_zero_weights_give_half():
    a, x, _, _ = _six_node_instance(1)
    _, cache = forward(x, a, _zero_params("gcn"))
    assert np.allclose(cache.p, 0.5)


def test_sage_isolated_node_closed_form():
    # single isolated node: both aggregations are zero, so
    # P = sigmoid(w3 . relu(w2 . concat(relu(w1 . [x, 0]), 0)))
    a = np.zeros((1, 1))
    x = np.array([[0.3, -0.2, 0.5]])
    rng = np.random.default_rng(3)
    params = init_parameters("graphsage", 3, 4, rng)
    _, cache = forward(x, a, params)
    c1 = np.concatenate([x[0], np.zeros(3)])
    h1 = np.maximum(c1 @ params.w1, 0.0)
    h2 = np.maximum(np.concatenate([h1, np.zeros(4)]) @ params.w2, 0.0)
    z3 = np.concatenate([h2, np.zeros(4)]) @ params.w3
    expected = 1.0 / (1.0 + np.exp(-z3[0]))
    assert cache.p[0] == pytest.approx(expected, abs=1e-12)


def test_permutation_equivariance_both_encoders():
    a, x, _, _ = _six_node_instance(7)
    perm = np.array([3, 5, 0, 1, 4, 2])
    a_p = a[np.ix_(perm, perm)]
    x_p = x[perm]
    for kind in ("graphsage", "gcn"):
        params = init_parameters(kind, 3, 5, np.random.default_rng(11))
        p_orig, _ = forward(x, a, params)
        p_perm, _ = forward(x_p, a_p, params)
        assert np.allclose(p_perm, p_orig[perm], atol=1e-12)


def test_predict_labels_strict_threshold():
    p = np.array([0.7, 0.5, 0.3])
    assert predict_labels(p, 0.5).tolist() == [1, 0, 0]


# ---------------------------------------------------------------------------
# Loss.
# ---------------------------------------------------------------------------


def test_loss_perfect_prediction_near_zero():
    p = np.array([1.0, 0.0])
    y = np.array([1, 0])
    assert weighted_bce_loss(p, y, np.array([0, 1])) < 1e-5


def test_loss_half_everywhere_is_ln2():
    p = np.full(8, 0.5)
    y = np.array([1, 0] * 4)
    assert weighted_bce_loss(p, y, np.arange(8)) == pytest.approx(np.log(2.0))


def test_loss_weight_linearity():
    rng = np.random.default_rng(0)
    p = rng.uniform(0.1, 0.9, size=10)
    y = np.array([1] * 5 + [0] * 5)
    mask = np.arange(10)
    base_pos = weighted_bce_loss(p, y, mask, (0.0 + 1e-300, 1.0))  # positive part only
    doubled = weighted_bce_loss(p, y, mask, (1e-300, 2.0))
    assert doubled == pytest.approx(2.0 * base_pos)


def test_loss_empty_mask_rejected():
    with pytest.raises(DataError, match="empty"):
        weighted_bce_loss(np.array([0.5]), np.array([1]), np.array([], dtype=int))


# ---------------------------------------------------------------------------
# Gradients.
# ---------------------------------------------------------------------------


def _loss_for_params(kind, a, x, y, mask, weights, params):
    p, _ = forward(x, a, params)
    return weighted_bce_loss(p, y, mask, weights)


def _fd_check(kind: str, seed: int, tol=1e-4):
    a, x, y, mask = _six_node_instance(seed)
    weights = (0.7, 1.9)
    params = init_parameters(kind, 3, 4, np.random.default_rng(seed + 100))
    _, cache = forward(x, a, params)
    assert np.all(cache.p > 1e-6) and np.all(cache.p < 1 - 1e-6)  # smooth point
    grads = backward(cache, params, y, mask, weights)
    step = 1e-4
    worst = 0.0
    for w, g in zip(params.weights(), grads):
        for idx in np.ndindex(w.shape):
            orig = w[idx]
            w[idx] = orig + step
            up = _loss_for_params(kind, a, x, y, mask, weights, params)
            w[idx] = orig - step
            down = _loss_for_params(kind, a, x, y, mask, weights, params)
            w[idx] = orig
            fd = (up - down) / (2 * step)
            scale = max(abs(fd), abs(g[idx]), 1e-8)
            worst = max(worst, abs(fd - g[idx]) / scale)
    assert worst < tol, f"{kind} seed={seed} max rel err {worst}"


@pytest.mark.parametrize("kind", ["graphsage", "gcn"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gradients_match_finite_differences(kind, seed):
    _fd_check(kind, seed)


def test_gradient_zero_at_saturated_optimum():
    # correct predictions saturated in float: (P - y) vanishes
    a = np.zeros((2, 2))
    x = np.array([[50.0, 0, 0], [0.0, 50.0, 0]])
    y = np.array([1, 0])
    params = init_parameters("graphsage", 3, 4, np.random.default_rng(0))
    for w in params.weights():
        w[:] = 0.0
    params.w1[0, 0] = 1.0  # route x0 through hidden unit 0
    params.w1[1, 1] = 1.0  # route x1 through hidden unit 1
    params.w2[0, 0] = 1.0
    params.w2[1, 1] = 1.0
    params.w3[0, 0] = 1.0  # z3 = h2[0] - h2[1]
    params.w3[1, 0] = -1.0
    _, cache = forward(x, a, params)
    assert cache.p[0] == 1.0 and cache.p[1] < 1e-20
    grads = backward(cache, params, y, np.array([0, 1]), (1.0, 1.0))
    assert max(float(np.abs(g).max()) for g in grads) < 1e-10


def test_gradient_unused_block_zero():
    # isolated node in the mask: neighbor-aggregation rows of W1 are unused
    a = np.zeros((1, 1))
    x = np.array([[0.2, -0.4, 0.1]])
    y = np.array([1])
    params = init_parameters("graphsage", 3, 4, np.random.default_rng(2))
    _, cache = forward(x, a, params)
    gw1, gw2, gw3 = backward(cache, params, y, np.array([0]), (1.0, 1.0))
    assert np.all(gw1[3:, :] == 0.0)  # neighbor half of the concat
    assert np.all(gw2[4:, :] == 0.0)
    assert np.all(gw3[4:, :] == 0.0)
    assert np.any(gw1[:3, :] != 0.0)


def test_bce_logit_gradient_masks():
    p = np.array([0.9, 0.2, 0.7])
    y = np.array([1, 0, 1])
    g = bce_logit_gradient(p, y, np.array([0, 1]), (1.0, 2.0))
    assert g[2] == 0.0
    assert g[0] == pytest.approx(2.0 * (0.9 - 1.0) / 2)
    assert g[1] == pytest.approx(1.0 * 0.2 / 2)


# ---------------------------------------------------------------------------
# Adam.
# ---------------------------------------------------------------------------


def test_adam_zero_gradient_no_change():
    w = [np.ones((2, 2))]
    state = AdamState.for_parameters(w)
    adam_step(w, [np.zeros((2, 2))], state, lr=0.1)
    assert np.allclose(w[0], 1.0)


def test_adam_first_step_closed_form():
    w = [np.array([[0.0]])]
    state = AdamState.for_parameters(w)
    adam_step(w, [np.array([[1.0]])], state, lr=0.01)
    # bias corrections cancel: update = -lr * 1 / (sqrt(1) + eps)
    assert w[0][0, 0] == pytest.approx(-0.01, rel=1e-6)


def test_adam_trajectory_deterministic():
    def run():
        rng = np.random.default_rng(4)
        w = [rng.normal(size=(3, 2))]
        state = AdamState.for_parameters(w)
        for _ in range(25):
            g = [np.sin(w[0]) + 0.1]
            adam_step(w, g, state, lr=0.05)
        return w[0].copy()

    assert np.array_equal(run(), run())


# ---------------------------------------------------------------------------
# Training.
# ---------------------------------------------------------------------------


def _tiny_task(seed=0):
    spec = PlantedDatasetSpec(
        n_manufacturers=120, n_services_per_category=8, n_clusters=4,
        capable_fraction=0.25, signal=1.0, noise=0.0, seed=seed,
    )
    return planted_task(spec)


def test_train_one_epoch_returns_init():
    # the epoch-0 snapshot holds the parameters its AUC was measured on:
    # the seeded initialization, before the first Adam step
    task = _tiny_task()
    split = stratified_split(task.labels, (0.8, 0.1, 0.1), 0)
    aug = without_oversampling(task, split)
    feats = np.zeros((aug.graph.num_nodes, 3))
    cfg = TrainConfig(max_epochs=1, seed=3)
    params, log = train_node_classifier(aug, feats, aug.split, cfg)
    assert len(log) == 1
    reference = init_parameters("graphsage", 3, cfg.d_hidden, np.random.default_rng(3))
    for w, r in zip(params.weights(), reference.weights()):
        assert np.array_equal(w, r)


def test_train_single_class_mask_rejected():
    task = _tiny_task()
    split = stratified_split(task.labels, (0.8, 0.1, 0.1), 0)
    aug = without_oversampling(task, split)
    labels = np.zeros_like(aug.labels)
    bad = type(aug)(aug.base, aug.graph, aug.synthetic, labels, aug.split)
    feats = np.zeros((aug.graph.num_nodes, 3))
    with pytest.raises(DataError, match="single-class"):
        train_node_classifier(bad, feats, aug.split, TrainConfig(max_epochs=3))


def test_train_deterministic():
    task = _tiny_task(2)
    split = stratified_split(task.labels, (0.8, 0.1, 0.1), 1)
    aug = without_oversampling(task, split)
    rng = np.random.default_rng(0)
    feats = rng.normal(0, 0.3, size=(aug.graph.num_nodes, 3))
    cfg = TrainConfig(max_epochs=30, seed=5)
    p1, log1 = train_node_classifier(aug, feats, aug.split, cfg)
    p2, log2 = train_node_classifier(aug, feats, aug.split, cfg)
    assert log1 == log2
    for a, b in zip(p1.weights(), p2.weights()):
        assert np.array_equal(a, b)


def test_train_learns_planted_signal():
    task = _tiny_task(5)
    split = stratified_split(task.labels, (0.8, 0.1, 0.1), 2)
    aug = without_oversampling(task, split)
    # hand-planted informative features: the label leaks through column 1
    rng = np.random.default_rng(1)
    feats = rng.normal(0, 0.1, size=(aug.graph.num_nodes, 3))
    feats[:, 1] += 0.6 * aug.labels
    params, log = train_node_classifier(aug, feats, aug.split, TrainConfig(seed=0))
    p, _ = forward(feats, aug.graph.dense_adjacency(), params)
    test_ids = np.array(aug.split.test_ids)
    assert auc_roc(p[test_ids], aug.labels[test_ids]) >= 0.95
    losses = [e.train_loss for e in log[:20]]
    drops = sum(1 for a, b in zip(losses, losses[1:]) if b <= a + 1e-12)
    assert drops >= 15


def _count_feature_products(monkeypatch, feats: np.ndarray) -> list[int]:
    """Count the operator products applied to `feats` itself (the layer-1
    aggregation) in a one-element list."""
    calls = [0]
    matmul = BlockOperator.__matmul__

    def counting(self, x):
        calls[0] += x is feats
        return matmul(self, x)

    monkeypatch.setattr(BlockOperator, "__matmul__", counting)
    return calls


def _node_training_case(kind: str, fanout: int | None = None):
    task = _tiny_task(2)
    split = stratified_split(task.labels, (0.8, 0.1, 0.1), 1)
    aug = without_oversampling(task, split)
    feats = np.random.default_rng(0).normal(0, 0.3, size=(aug.graph.num_nodes, 3))
    return aug, feats, TrainConfig(max_epochs=12, patience=12, seed=5, fanout=fanout)


@pytest.mark.parametrize("kind, fanout, per_epoch", [
    ("graphsage", None, False), ("gcn", None, False), ("graphsage", 3, True),
])
def test_node_training_aggregates_the_features_once_per_run(monkeypatch, kind, fanout, per_epoch):
    # fixed steps give a fixed layer-1 input; fanout draws new steps, so a
    # new layer-1 input, every epoch
    aug, feats, cfg = _node_training_case(kind, fanout)
    calls = _count_feature_products(monkeypatch, feats)
    _, log = train_node_classifier(aug, feats, aug.split, cfg, kind)
    assert len(log) == cfg.max_epochs
    assert calls[0] == (len(log) if per_epoch else 1)


@pytest.mark.parametrize("kind", ["graphsage", "gcn"])
def test_link_training_aggregates_the_features_once_per_run(monkeypatch, kind):
    task = _tiny_task(4)
    graph, _ = restore_target(task)
    feats = np.random.default_rng(2).normal(0, 0.3, size=(graph.num_nodes, 3))
    calls = _count_feature_products(monkeypatch, feats)
    _, result = train_link_predictor(
        graph, feats, [task.target_name], TrainConfig(max_epochs=12, patience=12, seed=0), kind
    )
    assert result.epochs_run == 12
    assert calls[0] == 1  # the epochs and the final test encoding share it


@pytest.mark.parametrize("kind", ["graphsage", "gcn"])
def test_shared_layer_input_keeps_training_bit_identical(monkeypatch, kind):
    aug, feats, cfg = _node_training_case(kind)
    task = _tiny_task(4)
    graph, _ = restore_target(task)
    link_feats = np.random.default_rng(2).normal(0, 0.3, size=(graph.num_nodes, 3))

    def train():
        node = train_node_classifier(aug, feats, aug.split, cfg, kind)
        link = train_link_predictor(graph, link_feats, [task.target_name], cfg, kind)
        return [node[1], link[1]], [*node[0].weights(), *link[0].weights()]

    shared_logs, shared_weights = train()
    # every `encode` forms its own layer-1 input, as each epoch once did
    encode_alone = models.encode
    monkeypatch.setattr(models, "encode", lambda features, adjacency, params, steps=None, c1=None, rows=None:
                        encode_alone(features, adjacency, params, steps, rows=rows))
    logs, weights = train()
    assert shared_logs == logs
    for a, b in zip(shared_weights, weights, strict=True):
        assert np.array_equal(a, b)


def test_shared_layer_input_is_read_only():
    graph = random_bipartite_graph(np.random.default_rng(0), 4, 3, 0.6)
    x = np.random.default_rng(1).normal(size=(7, 2))
    layer, _ = models.neighbor_steps("graphsage", graph)
    c1 = models.layer_input(x, layer)
    assert not c1.flags.writeable
    params = init_parameters("graphsage", 2, 4, np.random.default_rng(2))
    assert np.array_equal(encode(x, graph, params, c1=c1).z2, encode(x, graph, params).z2)


def test_inverse_frequency_weights():
    y = np.array([1, 1, 0, 0, 0, 0, 0, 0])
    w0, w1 = inverse_frequency_weights(y, np.arange(8))
    assert w0 == pytest.approx(8 / 12)
    assert w1 == pytest.approx(8 / 4)
    with pytest.raises(DataError, match="single-class"):
        inverse_frequency_weights(np.ones(4), np.arange(4))


# ---------------------------------------------------------------------------
# Link prediction.
# ---------------------------------------------------------------------------


def test_link_score_cases():
    # the decoder's pair scores against the single-pair oracle
    h = np.vstack([np.zeros(4), np.ones(4), np.full(4, 5.0), np.full(4, -5.0)])  # rows 2, 3: norm 10
    pairs = np.array([[0, 1], [2, 2], [2, 3]])
    scores = _pair_scores(h, pairs)
    assert scores[0] == pytest.approx(0.5)
    assert scores[1] > 0.999
    assert scores[2] < 0.5
    for (u, v), score in zip(pairs, scores):
        assert score == pytest.approx(_link_score(h[u], h[v]), abs=1e-15)


def test_link_split_contract():
    task = _tiny_task(3)
    graph, _ = __import__("capgraph.graph", fromlist=["restore_target"]).restore_target(task)
    rng = np.random.default_rng(0)
    ls = split_link_edges(graph, [task.target_name], (0.8, 0.1, 0.1), rng)
    pools = [ls.pos_train, ls.pos_valid, ls.pos_test]
    sets = [set(map(tuple, p)) for p in pools]
    assert sets[0] & sets[2] == set()
    assert sets[0] & sets[1] == set()
    total = sum(len(p) for p in pools)
    assert total == len(task.removed_edges)
    # negatives are non-edges
    edges = edge_set(graph)
    for pool in (ls.neg_train, ls.neg_valid, ls.neg_test):
        for m, t in pool:
            assert (min(m, t), max(m, t)) not in edges
    # held-out positives removed from the message graph, every other edge kept
    msg = set(map(tuple, ls.message_edges.tolist()))
    held_out = [*map(tuple, ls.pos_valid.tolist()), *map(tuple, ls.pos_test.tolist())]
    for m, t in held_out:
        assert (m, t) not in msg and (t, m) not in msg
    assert msg == edges - {(min(m, t), max(m, t)) for m, t in held_out}
    assert len(ls.message_edges) == len(msg)


def test_link_split_draws_the_row_shuffle_permutation():
    # the split's pairs are the sorted pairs in the order rng.shuffle gives
    # them, and the generator is left where rng.shuffle leaves it
    task = _tiny_task(3)
    graph, target = restore_target(task)
    rng = np.random.default_rng(11)
    ls = split_link_edges(graph, [task.target_name], (0.8, 0.1, 0.1), rng)
    oracle = np.random.default_rng(11)
    linked = np.zeros(graph.num_nodes, dtype=bool)
    linked[graph.neighbor_ids(target)] = True
    manufacturers = np.flatnonzero(graph.is_manufacturer)
    pos, neg = (np.column_stack([ms, np.full(ms.size, target)])
                for ms in (manufacturers[linked[manufacturers]], manufacturers[~linked[manufacturers]]))
    oracle.shuffle(pos)
    oracle.shuffle(neg)
    assert np.array_equal(np.vstack([ls.pos_train, ls.pos_valid, ls.pos_test]), pos)
    assert np.array_equal(np.vstack([ls.neg_train, ls.neg_valid, ls.neg_test]), neg[: len(pos)])
    assert rng.random() == oracle.random()


def test_link_predictor_learns_planted_rule():
    task = _tiny_task(4)
    from capgraph.graph import restore_target

    graph, _ = restore_target(task)
    feats = np.zeros((graph.num_nodes, 3))
    rng = np.random.default_rng(2)
    feats += rng.normal(0, 0.05, feats.shape)
    # membership leak keeps the toy fast and the rule deterministic
    labels = np.zeros(graph.num_nodes)
    labels[[m for m, _ in task.removed_edges]] = 1.0
    feats[:, 0] += 0.5 * labels
    params, result = train_link_predictor(
        graph, feats, [task.target_name], TrainConfig(max_epochs=200, seed=0), "graphsage",
    )
    assert result.auc_roc >= 0.9
    assert params.w3 is None


def test_link_predictor_too_few_positives():
    nodes = [manufacturer(f"m{j}") for j in range(12)]
    nodes.append(service("t", ServiceCategory.PROCESS))
    g = Graph(nodes, [(0, 12), (1, 12)])
    with pytest.raises(DataError, match="at least 10"):
        train_link_predictor(g, np.zeros((13, 3)), ["t"], TrainConfig(max_epochs=1))


def _row_scatter_gradient(h, pairs, y):
    """The pair-BCE gradient with one row-wise `np.add.at` per endpoint."""
    scores = np.clip(_pair_scores(h, pairs), models.PROB_CLAMP, 1.0 - models.PROB_CLAMP)
    dz = (scores - y) / len(y)
    d_h = np.zeros_like(h)
    np.add.at(d_h, pairs[:, 0], dz[:, None] * h[pairs[:, 1]])
    np.add.at(d_h, pairs[:, 1], dz[:, None] * h[pairs[:, 0]])
    return d_h


@st.composite
def _pair_gradient_inputs(draw):
    """Embeddings with signed zeros and exact ties, and pairs that repeat
    endpoints (a node may even pair with itself)."""
    p, d = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    values = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0]),
                       st.floats(-3.0, 3.0, allow_nan=False))
    h = np.array(draw(st.lists(values, min_size=p * d, max_size=p * d))).reshape(p, d)
    n = draw(st.integers(1, 12))
    pairs = np.array(draw(st.lists(st.integers(0, p - 1), min_size=2 * n, max_size=2 * n))).reshape(n, 2)
    y = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n)))
    return h, pairs, y


@settings(max_examples=300, deadline=None)
@given(_pair_gradient_inputs(), st.booleans())
def test_link_embedding_gradient_matches_the_row_scatter_bit_for_bit(case, fortran):
    # a Fortran-ordered h too: its gradient must not land in a flat copy
    h, pairs, y = case
    got = link_embedding_gradient(np.asfortranarray(h) if fortran else h, pairs, y)
    assert got.tobytes() == _row_scatter_gradient(h, pairs, y).tobytes()


_LINK_PAIRS = np.array([[0, 3], [1, 4], [2, 5], [0, 4], [1, 5], [2, 3]])
_LINK_Y = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])


def _link_loss(x, a, params):
    h = link_embeddings(encode(x, a, params))
    return weighted_bce_loss(_pair_scores(h, _LINK_PAIRS), _LINK_Y, np.arange(len(_LINK_Y)))


@pytest.mark.parametrize("kind", ["graphsage", "gcn"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_link_gradients_match_finite_differences(kind, seed):
    # pair BCE through the inner-product decoder and the encoder backward
    a, x, _, _ = _six_node_instance(seed)
    params = init_parameters(kind, 3, 4, np.random.default_rng(seed + 100), with_head=False)
    cache = encode(x, a, params)
    h = link_embeddings(cache)
    scores = _pair_scores(h, _LINK_PAIRS)
    assert np.all(scores > 1e-6) and np.all(scores < 1 - 1e-6)  # smooth point
    grads = encoder_backward(cache, params, link_embedding_gradient(h, _LINK_PAIRS, _LINK_Y))
    step = 1e-4
    worst = 0.0
    for w, g in zip(params.weights(), grads):
        for idx in np.ndindex(w.shape):
            orig = w[idx]
            w[idx] = orig + step
            up = _link_loss(x, a, params)
            w[idx] = orig - step
            down = _link_loss(x, a, params)
            w[idx] = orig
            fd = (up - down) / (2 * step)
            worst = max(worst, abs(fd - g[idx]) / max(abs(fd), abs(g[idx]), 1e-8))
    assert worst < 1e-4, f"{kind} seed={seed} max rel err {worst}"


@pytest.mark.parametrize("kind", ["graphsage", "gcn"])
def test_fresh_link_encoder_can_score_below_half(kind):
    # a non-negative (post-ReLU) embedding would put every score at >= 0.5.
    # Fresh embeddings are mostly positively correlated (they mix ReLU
    # outputs, smoothed over the graph); on this large sparse graph every one
    # of 300 probed seeds still has some pair with a negative overlap.
    rng = np.random.default_rng(7)
    a = random_bipartite_graph(rng, 60, 60, 0.03).dense_adjacency()
    x = rng.normal(0.0, 1.0, size=(120, 16))
    params = init_parameters(kind, 16, 16, rng, with_head=False)
    pairs = np.column_stack(np.triu_indices(120, 1))
    scores = _pair_scores(link_embeddings(encode(x, a, params)), pairs)
    assert scores.min() < 0.5


def test_trained_link_scores_do_not_tie():
    # plain GCN on type codes: with post-ReLU embeddings training shrinks
    # every overlap to zero and all test scores tie at exactly 0.5
    task = _tiny_task(1)
    graph, _ = restore_target(task)
    feats = integrate_features(init_type_codes(graph), None, graph.is_manufacturer)
    config = TrainConfig(max_epochs=60, seed=0)
    params, _ = train_link_predictor(graph, feats, [task.target_name], config, "gcn")
    # rebuild the predictor's split and message graph to score its test pairs
    ls = split_link_edges(
        graph, [task.target_name], (0.8, 0.1, 0.1), np.random.default_rng(config.seed)
    )
    a = Graph(graph.nodes, ls.message_edges).dense_adjacency()
    test_pairs = np.vstack([ls.pos_test, ls.neg_test])
    scores = _pair_scores(link_embeddings(encode(feats, a, params)), test_pairs)
    assert np.ptp(scores) > 0.0


# ---------------------------------------------------------------------------
# Checkpoints.
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip_bit_exact(tmp_path):
    for kind in ("graphsage", "gcn"):
        params = init_parameters(kind, 3, 6, np.random.default_rng(8))
        path = tmp_path / f"{kind}.bin"
        save_checkpoint(params, path)
        assert path.read_bytes()[5] == 0  # the reserved flags byte
        back = load_checkpoint(path)
        assert back.kind == kind
        for a, b in zip(params.weights(), back.weights()):
            assert a.tobytes() == b.tobytes()


def test_checkpoint_link_model_without_head(tmp_path):
    params = init_parameters("gcn", 3, 5, np.random.default_rng(1), with_head=False)
    path = tmp_path / "link.bin"
    save_checkpoint(params, path)
    back = load_checkpoint(path)
    assert back.w3 is None
    assert back.w1.tobytes() == params.w1.tobytes()


@pytest.mark.parametrize("kind, with_head, flags", [
    ("gcn", True, 1), ("gcn", True, 2), ("graphsage", False, 1), ("graphsage", False, 2),
    ("graphsage", True, 1), ("graphsage", True, 255),
])
def test_checkpoint_reserved_flags_byte_must_be_zero(tmp_path, kind, with_head, flags):
    path = tmp_path / "flagged.bin"
    save_checkpoint(init_parameters(kind, 3, 4, np.random.default_rng(0), with_head=with_head), path)
    data = bytearray(path.read_bytes())
    data[5] = flags
    path.write_bytes(bytes(data))
    with pytest.raises(DataError, match="reserved flags byte"):
        load_checkpoint(path)


def test_checkpoint_declaring_a_huge_block_is_truncated(tmp_path):
    path = tmp_path / "huge.bin"
    save_checkpoint(init_parameters("gcn", 3, 4, np.random.default_rng(0)), path)
    data = bytearray(path.read_bytes())
    data[12:20] = struct.pack("<II", 2**32 - 1, 2**32 - 1)  # the first block's rows and columns
    path.write_bytes(bytes(data))
    with pytest.raises(DataError, match="truncated checkpoint payload"):
        load_checkpoint(path)


@pytest.mark.parametrize("offset, forged", [
    (4, b"\x01"),  # GraphSAGE weights read as GCN
    (8, struct.pack("<I", 5)),  # a hidden width the weights do not have
    (20 + 6 * 4 * 8, struct.pack("<II", 4, 8)),  # w2 (8, 4) read as (4, 8): eval's matmul fails on it
])
def test_checkpoint_weight_shapes_must_fit_the_model(tmp_path, offset, forged):
    path = tmp_path / "shapes.bin"
    save_checkpoint(init_parameters("graphsage", 3, 4, np.random.default_rng(0)), path)
    data = bytearray(path.read_bytes())
    data[offset : offset + len(forged)] = forged
    path.write_bytes(bytes(data))
    with pytest.raises(DataError, match="do not fit a"):
        load_checkpoint(path)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "x.bin"
    path.write_bytes(b"JUNK" + b"\x00" * 24)
    with pytest.raises(DataError, match="not a capgraph checkpoint"):
        load_checkpoint(path)
