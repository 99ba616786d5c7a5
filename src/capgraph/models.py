"""Two-layer GraphSAGE and GCN models with exact hand-rolled gradients.

Row-vector convention throughout: features are (p, d) matrices, weights
multiply on the right. Both encoders run one two-layer pass and differ only
in the neighbour step before each weight product (`NeighborStep`): GraphSAGE
takes [h, M h] with M the mean aggregator, GCN takes S h with S the
symmetric-normalized propagation. The GraphSAGE head concatenates a node's
layer-2 embedding with the unnormalized sum of its neighbors' layer-2
embeddings (the adjacency-column product); both heads are linear + sigmoid.
Node classification (class-weighted binary cross-entropy) and link
prediction (inner-product decoder) share one bias-corrected Adam loop with
early stopping on validation AUC-ROC.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Callable
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import DataError
from .graph import SPLIT_RATIOS, Graph, NodeColumns, SplitAssignment, _frozen, _largest_remainder, read_exact
from .metrics import auc_pr, auc_roc
from .seng import AugmentedGraph

PROB_CLAMP = 1e-7

_CHECKPOINT_MAGIC = b"CGCK"
_KIND_BYTES = {"graphsage": 0, "gcn": 1}
_KIND_NAMES = {v: k for k, v in _KIND_BYTES.items()}
_SAGE_WIDTH = 2  # GraphSAGE's weight products take [h, M h], twice the width of h


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function without overflow: 1 / (1 + e^-z) for z >= 0 and
    e^z / (1 + e^z) below, both from e = exp(-|z|)."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


@dataclass
class ModelParameters:
    """Weight matrices for a node classifier or link-prediction encoder.

    w3 is the classification head; link-prediction encoders carry w3=None and
    score pairs with an inner-product decoder over the linear (pre-ReLU)
    output z2 of the second encoder layer.
    """

    kind: str
    w1: np.ndarray
    w2: np.ndarray
    w3: np.ndarray | None

    @property
    def d_hidden(self) -> int:
        return self.w1.shape[1]

    @property
    def input_dim(self) -> int:
        cols = self.w1.shape[0]
        return cols // _SAGE_WIDTH if self.kind == "graphsage" else cols

    def weights(self) -> list[np.ndarray]:
        return [self.w1, self.w2] + ([self.w3] if self.w3 is not None else [])

    def copy(self) -> "ModelParameters":
        return replace(
            self,
            w1=self.w1.copy(),
            w2=self.w2.copy(),
            w3=None if self.w3 is None else self.w3.copy(),
        )


def _glorot(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, size=(rows, cols))


def init_parameters(
    kind: str,
    input_dim: int,
    d_hidden: int,
    rng: np.random.Generator,
    with_head: bool = True,
) -> ModelParameters:
    if kind not in _KIND_BYTES:
        raise DataError(f"unknown model kind {kind!r}")
    k = _SAGE_WIDTH if kind == "graphsage" else 1
    w1 = _glorot(rng, k * input_dim, d_hidden)
    w2 = _glorot(rng, k * d_hidden, d_hidden)
    w3 = _glorot(rng, k * d_hidden, 1) if with_head else None
    return ModelParameters(kind, w1, w2, w3)


# ---------------------------------------------------------------------------
# Aggregation operators.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BlockOperator:
    """The p x p operator diag(left) (A + loop*I) diag(right), held as the
    blocks of A = [[0, B], [B_VI, C]] over the ids I and V (rows and columns
    of A ordered I then V; `Graph.adjacency_blocks`).

    A graph has no manufacturer-manufacturer edges, so with I its
    manufacturers A is held in n_m*n_s + n_s^2 doubles and `op @ x`,
    `op.T @ x` cost O((n_m*n_s + n_s^2) d): nothing p x p is formed. A dense
    p x p matrix is the same operator with I empty and C the matrix itself.
    `left` and `right` are None for no scaling.

    I and V are slices when each is one contiguous run of ids: the products
    then read `x[I]`, `x[V]` as views and assign their rows of the output
    through a view. A graph whose I is split (SENG appends synthetic
    manufacturers after the services) holds index arrays, and its products
    gather their rows and scatter the results.
    """

    ids_i: slice | np.ndarray
    ids_v: slice | np.ndarray
    b: np.ndarray
    b_vi: np.ndarray
    c: np.ndarray
    left: np.ndarray | None = None
    right: np.ndarray | None = None
    loop: bool = False

    @property
    def T(self) -> "BlockOperator":
        return BlockOperator(
            self.ids_i, self.ids_v, self.b_vi.T, self.b.T, self.c.T,
            left=self.right, right=self.left, loop=self.loop,
        )

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if self.right is not None:
            x = self.right[:, None] * x
        x_i, x_v = x[self.ids_i], x[self.ids_v]
        out = np.empty(x.shape)
        out[self.ids_i] = self.b @ x_v
        out[self.ids_v] = self.b_vi @ x_i + self.c @ x_v
        if self.loop:
            out += x
        if self.left is not None:
            out *= self.left[:, None]
        return out

    def row_product(self, x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """(self @ x)[rows] for the ascending node ids `rows`, computing those rows alone."""
        x = np.asarray(x, dtype=np.float64)
        if self.right is not None:
            x = self.right[:, None] * x
        in_i, at_i, at_v = self._positions(rows)
        out = np.empty((rows.size, x.shape[1]))
        out[in_i] = self.b[at_i] @ x[self.ids_v]
        out[~in_i] = self.b_vi[at_v] @ x[self.ids_i] + self.c[at_v] @ x[self.ids_v]
        if self.loop:
            out += x[rows]
        if self.left is not None:
            out *= self.left[rows, None]
        return out

    def row_support(self, rows: np.ndarray) -> np.ndarray:
        """The ascending node ids `rows` and those whose rows of x the rows
        `rows` of self @ x read: the nonzero columns of A in those rows."""
        _, at_i, at_v = self._positions(rows)
        ids = np.arange(self.b.shape[0] + self.c.shape[0])
        read_i = self.b_vi[at_v].any(axis=0)
        read_v = self.b[at_i].any(axis=0) | self.c[at_v].any(axis=0)
        return np.union1d(rows, np.concatenate([ids[self.ids_i][read_i], ids[self.ids_v][read_v]]))

    def _positions(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per node id of `rows`, whether it lies in I; the positions in I of
        those that do, and in V of the others."""
        n_i = self.b.shape[0]
        rank = np.empty(n_i + self.c.shape[0], dtype=np.int64)  # position in I, or n_i + position in V
        rank[self.ids_i], rank[self.ids_v] = np.arange(n_i), np.arange(n_i, rank.size)
        at = rank[rows]
        return at < n_i, at[at < n_i], at[at >= n_i] - n_i

    def row_sums(self) -> np.ndarray:
        """Row sums of A (node degrees for a 0/1 adjacency)."""
        sums = np.empty(self.b.shape[0] + self.c.shape[0])
        sums[self.ids_i] = self.b.sum(axis=1)
        sums[self.ids_v] = self.b_vi.sum(axis=1) + self.c.sum(axis=1)
        return sums


Adjacency = Graph | np.ndarray


def adjacency_operator(adjacency: Adjacency) -> BlockOperator:
    """A as a block operator: a graph's cached blocks, or a dense p x p array
    taken as it is (I empty, C the array: no copy, no scan for nonzeros)."""
    if isinstance(adjacency, Graph):
        return BlockOperator(*adjacency.adjacency_blocks())
    a = np.asarray(adjacency, dtype=np.float64)
    p = a.shape[0]
    return BlockOperator(slice(0, 0), slice(0, p), np.empty((0, p)), np.empty((p, 0)), a)


def _fanout_sample(graph: Graph, fanout: int, rng: np.random.Generator) -> BlockOperator:
    """A with each row cut to min(degree, fanout) of its entries, drawn
    uniformly without replacement: every entry gets one random key and each
    row keeps its `fanout` smallest keys."""
    rows = graph.entry_rows()
    starts = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=graph.num_nodes))])
    order = np.lexsort((rng.random(rows.size), rows))  # rows ascend: each row's entries by key
    keep = np.zeros(rows.size, dtype=bool)
    keep[order[np.arange(rows.size) - starts[rows] < fanout]] = True
    return BlockOperator(*graph.adjacency_blocks(keep))


def mean_aggregation_matrix(
    adjacency: Adjacency,
    fanout: int | None = None,
    rng: np.random.Generator | None = None,
) -> BlockOperator:
    """Row-normalized (optionally fanout-sampled) adjacency D^-1 A; zero rows
    for isolated nodes. `adjacency` is a graph or, without fanout, a dense 0/1
    matrix."""
    if fanout is not None:
        if rng is None or not isinstance(adjacency, Graph):
            raise DataError("fanout sampling requires a graph and a random generator")
        a = _fanout_sample(adjacency, fanout, rng)
    else:
        a = adjacency_operator(adjacency)
    degrees = a.row_sums()
    scale = np.divide(1.0, degrees, out=np.zeros_like(degrees), where=degrees > 0)
    return replace(a, left=scale)


def gcn_propagation_matrix(adjacency: Adjacency) -> BlockOperator:
    """Symmetric normalization D^{-1/2} (A + I) D^{-1/2}, D the row sums of A + I."""
    a = adjacency_operator(adjacency)
    inv_sqrt = 1.0 / np.sqrt(a.row_sums() + 1.0)
    return replace(a, left=inv_sqrt, right=inv_sqrt, loop=True)


# ---------------------------------------------------------------------------
# The encoder.  GraphSAGE and GCN share one two-layer pass and differ only in
# the neighbour step that feeds each weight product.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class NeighborStep:
    """The map from a layer's input h to its weight product's input:
    GraphSAGE's [h, op h] (`concat`), GCN's op h, or h itself (op None)."""

    op: BlockOperator | None
    concat: bool = False

    def __call__(self, h: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        """The step of h, or its rows `rows` (ascending node ids) alone."""
        if self.op is None:
            return h if rows is None else h[rows]
        mixed = self.op @ h if rows is None else self.op.row_product(h, rows)
        return np.hstack([h if rows is None else h[rows], mixed]) if self.concat else mixed

    def backward(self, dc: np.ndarray) -> np.ndarray:
        """dLoss/dh given dLoss/d(step(h))."""
        if self.op is None:
            return dc
        if not self.concat:
            return self.op.T @ dc
        d = dc.shape[1] // 2
        return dc[:, :d] + self.op.T @ dc[:, d:]


def neighbor_steps(
    kind: str,
    adjacency: Adjacency,
    fanout: int | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[NeighborStep, NeighborStep]:
    """The (layer, head) steps of an encoder on `adjacency`. GraphSAGE layers
    take [h, M h] with M the (fanout-sampled) mean aggregator, and its head
    [h2, A h2]. GCN layers take S h, its head h2 itself; GCN ignores
    `fanout`, which the trainers reject for it."""
    if kind == "gcn":
        return NeighborStep(gcn_propagation_matrix(adjacency)), NeighborStep(None)
    m = mean_aggregation_matrix(adjacency, fanout, rng)
    return NeighborStep(m, concat=True), NeighborStep(adjacency_operator(adjacency), concat=True)


@dataclass
class EncoderCache:
    """Every intermediate the backward pass needs: c_k is the input of the
    product with w_k, z_k its output, h_k = relu(z_k)."""

    layer: NeighborStep
    head: NeighborStep
    c1: np.ndarray
    z1: np.ndarray
    h1: np.ndarray
    c2: np.ndarray
    z2: np.ndarray
    h2: np.ndarray
    c3: np.ndarray | None = None
    z3: np.ndarray | None = None
    p: np.ndarray | None = None


def layer_input(features: np.ndarray, layer: NeighborStep) -> np.ndarray:
    """The layer-1 weight product's input, `layer` applied to the features,
    read-only: a trainer with fixed steps forms it once per run."""
    return _frozen(layer(np.asarray(features, dtype=np.float64)))


def encode(
    features: np.ndarray,
    adjacency: Adjacency,
    params: ModelParameters,
    steps: tuple[NeighborStep, NeighborStep] | None = None,
    c1: np.ndarray | None = None,
    rows: np.ndarray | None = None,
) -> EncoderCache:
    """Two-layer encoder pass (no head). `adjacency` is a graph (its cached
    blocks) or a dense p x p array; `steps`, when given, are its prebuilt
    `neighbor_steps`, and `c1`, when given, is `layer_input(features,
    steps[0])`. With `rows`, ascending node ids, layer 2 runs on those rows
    alone: c2 holds them, and z2 and h2 are zero on every other row."""
    layer, head = neighbor_steps(params.kind, adjacency) if steps is None else steps
    if c1 is None:
        c1 = layer_input(features, layer)
    z1 = c1 @ params.w1
    h1 = np.maximum(z1, 0.0)
    c2 = layer(h1, rows)
    z2 = c2 @ params.w2
    if rows is not None:
        z2, z2_rows = np.zeros((h1.shape[0], z2.shape[1])), z2
        z2[rows] = z2_rows
    h2 = np.maximum(z2, 0.0)
    return EncoderCache(layer, head, c1, z1, h1, c2, z2, h2)


def forward(
    features: np.ndarray,
    adjacency: Adjacency,
    params: ModelParameters,
    steps: tuple[NeighborStep, NeighborStep] | None = None,
    c1: np.ndarray | None = None,
    rows: np.ndarray | None = None,
) -> tuple[np.ndarray, EncoderCache]:
    """Node-classification pass, the encoder then the sigmoid head; returns
    (P, cache). `steps` and `c1` are as in `encode`. With `rows`, ascending
    node ids, P holds those rows alone, and the pass computes what they read:
    layer 1 on every node, layer 2 on the rows the head reads (GraphSAGE's
    rows and their neighbours, GCN's rows themselves), the head on `rows`."""
    if params.w3 is None:
        raise DataError("model has no classification head")
    layer, head = neighbor_steps(params.kind, adjacency) if steps is None else steps
    reads = rows if rows is None or head.op is None else head.op.row_support(rows)  # the rows of h2 the head reads
    cache = encode(features, adjacency, params, (layer, head), c1, reads)
    cache.c3 = cache.head(cache.h2, rows)
    cache.z3 = cache.c3 @ params.w3
    cache.p = _sigmoid(cache.z3)[:, 0]
    return cache.p, cache


# ---------------------------------------------------------------------------
# Loss and backward passes.
# ---------------------------------------------------------------------------


def weighted_bce_loss(
    p: np.ndarray,
    y: np.ndarray,
    mask: np.ndarray,
    class_weights: tuple[float, float] = (1.0, 1.0),
) -> float:
    """Class-weighted binary cross-entropy over the masked nodes, with
    probabilities clamped to [1e-7, 1-1e-7]."""
    mask = np.asarray(mask)
    if mask.size == 0:
        raise DataError("empty loss mask")
    pj = np.clip(np.asarray(p, dtype=np.float64)[mask], PROB_CLAMP, 1.0 - PROB_CLAMP)
    yj = np.asarray(y, dtype=np.float64)[mask]
    w = np.where(yj == 1.0, class_weights[1], class_weights[0])
    terms = w * (yj * np.log(pj) + (1.0 - yj) * np.log(1.0 - pj))
    return float(-terms.mean())


def bce_logit_gradient(
    p: np.ndarray,
    y: np.ndarray,
    mask: np.ndarray,
    class_weights: tuple[float, float] = (1.0, 1.0),
) -> np.ndarray:
    """dLoss/d(pre-sigmoid) as a full-length vector, zero off-mask.

    Logits form w*(P-y)/|mask|: the sigmoid derivative cancels against the
    log derivative, which stays exact and finite even where P saturates to
    0 or 1 in float (where the clamped loss itself is locally flat)."""
    p = np.asarray(p, dtype=np.float64)
    grad = np.zeros_like(p)
    mask = np.asarray(mask)
    yj = np.asarray(y, dtype=np.float64)[mask]
    w = np.where(yj == 1.0, class_weights[1], class_weights[0])
    grad[mask] = w * (p[mask] - yj) / mask.size
    return grad


def encoder_backward(
    cache: EncoderCache, params: ModelParameters, dz2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients w.r.t. (w1, w2) given dLoss/dz2, the pre-ReLU layer-2 output."""
    gw2 = cache.c2.T @ dz2
    dz1 = cache.layer.backward(dz2 @ params.w2.T) * (cache.z1 > 0)
    gw1 = cache.c1.T @ dz1
    return gw1, gw2


def backward(
    cache: EncoderCache,
    params: ModelParameters,
    y: np.ndarray,
    mask: np.ndarray,
    class_weights: tuple[float, float] = (1.0, 1.0),
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact gradients of the masked weighted BCE w.r.t. (w1, w2, w3)."""
    assert cache.p is not None and cache.c3 is not None and params.w3 is not None
    dz3 = bce_logit_gradient(cache.p, y, mask, class_weights)[:, None]
    gw3 = cache.c3.T @ dz3
    d_h2 = cache.head.backward(dz3 @ params.w3.T)
    gw1, gw2 = encoder_backward(cache, params, d_h2 * (cache.z2 > 0))
    return gw1, gw2, gw3


# ---------------------------------------------------------------------------
# Adam.
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0

    @classmethod
    def for_parameters(cls, weights: list[np.ndarray]) -> "AdamState":
        return cls([np.zeros_like(w) for w in weights], [np.zeros_like(w) for w in weights])


def adam_step(
    weights: list[np.ndarray],
    grads: list[np.ndarray],
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """Standard bias-corrected Adam update, in place."""
    state.step += 1
    t = state.step
    for w, g, m, v in zip(weights, grads, state.m, state.v):
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        w -= lr * m_hat / (np.sqrt(v_hat) + eps)


# ---------------------------------------------------------------------------
# Training.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    max_epochs: int = 415
    fanout: int | None = None
    threshold: float = 0.5
    seed: int = 0
    patience: int = 50
    d_hidden: int = 16

    def __post_init__(self) -> None:  # comparisons are written so that NaN fails them
        if not 0 < self.learning_rate < math.inf:
            raise DataError("learning rate must be positive and finite")
        if not self.d_hidden >= 1:
            raise DataError("hidden width must be >= 1")
        if not self.max_epochs >= 1:
            raise DataError("maximum epochs must be >= 1")
        if not self.patience >= 0:
            raise DataError("patience must be >= 0")
        check_threshold(self.threshold)
        if self.fanout is not None and not self.fanout >= 1:
            raise DataError("fanout must be >= 1")
        if not self.seed >= 0:
            raise DataError("seed must be >= 0")


def check_threshold(threshold: float) -> None:
    """Raise unless the classification threshold is in [0, 1] (NaN is not)."""
    if not 0 <= threshold <= 1:
        raise DataError("classification threshold must be in [0, 1]")


def predict_labels(p: np.ndarray, threshold: float = TrainConfig.threshold) -> np.ndarray:
    """Binary labels: 1 iff probability strictly exceeds the threshold."""
    return (np.asarray(p) > threshold).astype(np.int64)


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    valid_auc: float


def check_fanout_scope(config: TrainConfig, kind: str, task: str) -> None:
    """Refuse a fanout where it would change nothing: only GraphSAGE node
    classification samples neighbors."""
    if config.fanout is not None and (kind, task) != ("graphsage", "node"):
        raise DataError("fanout (--fanout) applies to GraphSAGE node classification only")


def inverse_frequency_weights(y: np.ndarray, mask: np.ndarray) -> tuple[float, float]:
    """w_c = |mask| / (2 * count_c): mean weight 1 on a balanced mask."""
    yj = np.asarray(y)[np.asarray(mask)]
    n1 = int(np.count_nonzero(yj == 1))
    n0 = int(yj.size - n1)
    if n0 == 0 or n1 == 0:
        raise DataError("single-class training mask")
    return yj.size / (2.0 * n0), yj.size / (2.0 * n1)


def _fit(
    params: ModelParameters,
    config: TrainConfig,
    epoch: Callable[[], tuple[float, Callable[[], tuple[np.ndarray, ...]]]],
) -> tuple[ModelParameters, int]:
    """Adam on `params` with early stopping on validation AUC-ROC. `epoch()`
    runs the forward pass on the current parameters and returns the
    validation AUC and a function giving the gradients of `params.weights()`.

    Returns the best-validation parameters and the number of epochs run."""
    state = AdamState.for_parameters(params.weights())
    best = params.copy()
    best_auc = -np.inf
    best_epoch = -1
    for n in range(config.max_epochs):
        valid_auc, gradients = epoch()
        if valid_auc > best_auc:
            best_auc = valid_auc
            best_epoch = n
            best = params.copy()  # snapshot the parameters the AUC was measured on
        elif n - best_epoch >= config.patience:
            return best, n + 1
        adam_step(params.weights(), list(gradients()), state, config.learning_rate)
    return best, config.max_epochs


def train_node_classifier(
    graph: AugmentedGraph,
    features: np.ndarray,
    split: SplitAssignment,
    config: TrainConfig,
    kind: str = "graphsage",
) -> tuple[ModelParameters, list[EpochRecord]]:
    """Adam training with early stopping on validation AUC-ROC.

    Returns the best-validation parameters and the per-epoch log.
    """
    g = graph.graph
    y = graph.labels
    train_idx = np.array(split.train_ids, dtype=np.int64)
    valid_idx = np.array(split.valid_ids, dtype=np.int64)
    check_fanout_scope(config, kind, "node")
    weights = inverse_frequency_weights(y, train_idx)

    rng = np.random.default_rng(config.seed)
    params = init_parameters(kind, features.shape[1], config.d_hidden, rng)
    # the steps and the layer-1 input are formed once per run; fanout draws
    # a new mean aggregator, so a new layer-1 input, every epoch
    resample = config.fanout is not None
    steps = None if resample else neighbor_steps(kind, g)
    c1 = None if resample else layer_input(features, steps[0])
    log: list[EpochRecord] = []

    def epoch():
        epoch_steps = neighbor_steps(kind, g, config.fanout, rng) if resample else steps
        p, cache = forward(features, g, params, epoch_steps, c1)
        loss = weighted_bce_loss(p, y, train_idx, weights)
        valid_auc = auc_roc(p[valid_idx], y[valid_idx])
        log.append(EpochRecord(len(log), loss, valid_auc))
        return valid_auc, lambda: backward(cache, params, y, train_idx, weights)

    best, _ = _fit(params, config, epoch)
    return best, log


# ---------------------------------------------------------------------------
# Link prediction.
# ---------------------------------------------------------------------------


def link_embeddings(cache: EncoderCache) -> np.ndarray:
    """Node embeddings the inner-product decoder scores: the linear output z2
    of the second encoder layer, as in the graph auto-encoder (Kipf & Welling
    2016). The ReLU output h2 is non-negative, so every inner product would be
    >= 0 and no pair could score below 0.5; the loss could then only push
    negatives down by shrinking all overlaps, which ties every score at 0.5."""
    return cache.z2


def _pair_scores(h: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    return _sigmoid(np.einsum("ij,ij->i", h[pairs[:, 0]], h[pairs[:, 1]]))


def link_embedding_gradient(
    h: np.ndarray, pairs: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """dLoss/dh of the mean pair BCE of the sigmoid inner-product decoder.

    d(BCE)/d(logit) = (s - y) / n, with scores clamped to [1e-7, 1-1e-7];
    each pair sends it to both endpoints times the other endpoint's row.
    The terms are scattered into the flat cells node * d + column, each
    cell summing its terms in pair order from zero (as a row-wise
    `np.add.at` would, at a fraction of its cost)."""
    scores = np.clip(_pair_scores(h, pairs), PROB_CLAMP, 1.0 - PROB_CLAMP)
    dz = (scores - y) / len(y)
    d_h = np.zeros(h.shape, dtype=h.dtype)  # C order, so that its flat cells are a view
    d = h.shape[1]
    cells, columns = d_h.reshape(-1), np.arange(d)
    np.add.at(cells, (pairs[:, 0, None] * d + columns).ravel(), (dz[:, None] * h[pairs[:, 1]]).ravel())
    np.add.at(cells, (pairs[:, 1, None] * d + columns).ravel(), (dz[:, None] * h[pairs[:, 0]]).ravel())
    return d_h


@dataclass(frozen=True)
class LinkEvalResult:
    auc_roc: float
    auc_pr: float
    epochs_run: int
    test_pairs: int


def _sorted_pairs(blocks: list[np.ndarray]) -> np.ndarray:
    """(m, t) rows of all blocks in ascending order."""
    pairs = np.vstack(blocks).astype(np.int64).reshape(-1, 2)
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


@dataclass(frozen=True)
class LinkSplit:
    """Positive/negative manufacturer-target pairs per split, plus the
    message-passing edges (all graph edges except held-out positives, as
    (u, v) rows with u < v)."""

    pos_train: np.ndarray
    pos_valid: np.ndarray
    pos_test: np.ndarray
    neg_train: np.ndarray
    neg_valid: np.ndarray
    neg_test: np.ndarray
    message_edges: np.ndarray


def split_link_edges(
    graph: Graph,
    target_services: list[str],
    ratios: tuple[float, float, float],
    rng: np.random.Generator,
) -> LinkSplit:
    """Split manufacturer-target edges by `ratios` and sample 1:1 negatives
    uniformly from manufacturer-target non-edges, disjoint across splits."""
    target_ids = []
    for name in target_services:
        sid = graph.find_service(name)
        if sid is None:
            raise DataError(f"target service {name!r} not found")
        target_ids.append(sid)

    manufacturers = np.flatnonzero(graph.is_manufacturer)
    positives, non_edges = [], []
    for t in target_ids:
        linked = np.isin(manufacturers, graph.neighbor_ids(t))
        positives.append(np.column_stack([manufacturers[linked], np.full(linked.sum(), t)]))
        non_edges.append(np.column_stack([manufacturers[~linked], np.full((~linked).sum(), t)]))
    pos, neg = (_sorted_pairs(pairs) for pairs in (positives, non_edges))
    if len(pos) < 10:
        raise DataError(f"need at least 10 positive edges, found {len(pos)}")
    if len(neg) < len(pos):
        raise DataError("not enough manufacturer-target non-edges for 1:1 negatives")

    # a permutation drawn as rng.permutation(n) is the one rng.shuffle applies
    # to n rows, at the cost of one 1-D shuffle instead of a row swap per draw
    pos = pos[rng.permutation(len(pos))]
    n_tr, n_va, n_te = _largest_remainder(len(pos), ratios)
    if min(n_tr, n_va, n_te) == 0:
        raise DataError("too few positive edges to populate all three splits")

    neg = neg[rng.permutation(len(neg))[: len(pos)]]

    # the edge keys ascend and every held-out positive is an edge, so a
    # binary search finds each one's row
    held_out = pos[n_tr:].min(axis=1) * graph.num_nodes + pos[n_tr:].max(axis=1)
    kept = np.ones(graph.num_edges, dtype=bool)
    kept[np.searchsorted(graph.keys, held_out)] = False
    return LinkSplit(
        pos_train=pos[:n_tr],
        pos_valid=pos[n_tr : n_tr + n_va],
        pos_test=pos[n_tr + n_va :],
        neg_train=neg[:n_tr],
        neg_valid=neg[n_tr : n_tr + n_va],
        neg_test=neg[n_tr + n_va :],
        message_edges=np.column_stack(np.divmod(graph.keys[kept], graph.num_nodes)),
    )


def train_link_predictor(
    graph: Graph,
    features: np.ndarray,
    target_services: list[str],
    config: TrainConfig,
    kind: str = "graphsage",
    ratios: tuple[float, float, float] = SPLIT_RATIOS,
) -> tuple[ModelParameters, LinkEvalResult]:
    """Encoder-decoder link prediction against the named target services.

    Manufacturer-target edges are split by `ratios`; all remaining edges stay
    in the message-passing graph alongside the training positives. Negative
    pairs are drawn uniformly from manufacturer-target non-edges, one per
    positive, disjoint across splits. The decoder is the sigmoid of the inner
    product of the linear (pre-ReLU) second-layer encoder outputs z2; see
    `link_embeddings`.
    """
    check_fanout_scope(config, kind, "link")
    rng = np.random.default_rng(config.seed)
    link_split = split_link_edges(graph, target_services, ratios, rng)
    message = Graph(NodeColumns(graph.codes, graph.names), link_split.message_edges)
    params = init_parameters(kind, features.shape[1], config.d_hidden, rng, with_head=False)
    steps = neighbor_steps(kind, message)
    c1 = layer_input(features, steps[0])

    def pairs(pos: np.ndarray, neg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return np.vstack([pos, neg]), np.concatenate([np.ones(len(pos)), np.zeros(len(neg))])

    train_pairs, train_y = pairs(link_split.pos_train, link_split.neg_train)
    valid_pairs, valid_y = pairs(link_split.pos_valid, link_split.neg_valid)

    def epoch():
        cache = encode(features, message, params, steps, c1)
        h = link_embeddings(cache)
        valid_auc = auc_roc(_pair_scores(h, valid_pairs), valid_y)
        return valid_auc, lambda: encoder_backward(
            cache, params, link_embedding_gradient(h, train_pairs, train_y)
        )

    params, epochs_run = _fit(params, config, epoch)
    h_final = link_embeddings(encode(features, message, params, steps, c1))
    test_pairs, test_y = pairs(link_split.pos_test, link_split.neg_test)
    test_scores = _pair_scores(h_final, test_pairs)
    return params, LinkEvalResult(
        auc_roc=auc_roc(test_scores, test_y),
        auc_pr=auc_pr(test_scores, test_y),
        epochs_run=epochs_run,
        test_pairs=len(test_pairs),
    )


# ---------------------------------------------------------------------------
# Checkpoint persistence (bit-exact round trip).
# ---------------------------------------------------------------------------


def save_checkpoint(params: ModelParameters, path: Path | str) -> None:
    with Path(path).open("wb") as fh:
        fh.write(_CHECKPOINT_MAGIC)
        fh.write(struct.pack("<BBBB", _KIND_BYTES[params.kind], 0, 0, 0))  # flags byte and two more: reserved
        fh.write(struct.pack("<I", params.d_hidden))
        for w in (params.w1, params.w2, params.w3):
            if w is None:
                fh.write(struct.pack("<II", 0, 0))
            else:
                fh.write(struct.pack("<II", w.shape[0], w.shape[1]))
                fh.write(np.ascontiguousarray(w, dtype=np.float64).tobytes())


def load_checkpoint(path: Path | str) -> ModelParameters:
    truncated = f"{path}: truncated checkpoint header"
    with Path(path).open("rb") as fh:
        if fh.read(4) != _CHECKPOINT_MAGIC:
            raise DataError(f"{path}: not a capgraph checkpoint")
        kind_byte, flags, _, _ = struct.unpack("<BBBB", read_exact(fh, 4, truncated))
        if kind_byte not in _KIND_NAMES:
            raise DataError(f"{path}: unknown model kind byte {kind_byte}")
        if flags != 0:
            raise DataError(f"{path}: reserved flags byte is {flags}, not 0")
        (d_hidden,) = struct.unpack("<I", read_exact(fh, 4, truncated))
        mats: list[np.ndarray | None] = []
        for _ in range(3):
            rows, cols = struct.unpack("<II", read_exact(fh, 8, truncated))
            if rows == 0 and cols == 0:
                mats.append(None)
                continue
            payload = read_exact(fh, rows * cols * 8, f"{path}: truncated checkpoint payload")
            mats.append(np.frombuffer(payload, dtype=np.float64).reshape(rows, cols).copy())
            if not np.isfinite(mats[-1]).all():
                raise DataError(f"{path}: weights hold a NaN or infinite value")
    w1, w2, w3 = mats
    if w1 is None or w2 is None:
        raise DataError(f"{path}: checkpoint missing encoder weights")
    kind = _KIND_NAMES[kind_byte]
    k, h = (_SAGE_WIDTH if kind == "graphsage" else 1), d_hidden
    head_fits = w3 is None or w3.shape == (k * h, 1)
    if w1.shape[1] != h or w1.shape[0] % k or w2.shape != (k * h, h) or not head_fits:
        shapes = [None if w is None else w.shape for w in mats]
        raise DataError(f"{path}: weight shapes {shapes} do not fit a {kind} model of hidden width {h}")
    return ModelParameters(kind, w1, w2, w3)
