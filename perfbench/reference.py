"""Reference computations for the benchmark's correctness checks.

Nothing here imports capgraph: every result is recomputed from plain arrays
with the definitions in the README (Mann-Whitney AUC-ROC with ties counted
one half, step-wise average precision with tie groups collapsed, the
GraphSAGE / GCN / link-encoder equations) or checked against the structural
rules of SENG. Each check returns a list of failure strings; empty means
the check passed.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

# Type codes by node kind / service category, as the README defines them.
TYPE_CODES = {"manufacturer": 0, "industry": 1, "process": 2, "material": 3, "certification": 4}


# ---------------------------------------------------------------------------
# Ranking metrics by brute force.
# ---------------------------------------------------------------------------


def brute_average_precision(scores, labels, tie: float = 0.0) -> float:
    """Mean over positives of the precision among every item scored at or
    above it (its whole tie group included)."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    total = 0.0
    for i in np.flatnonzero(y == 1):
        above = s >= s[i] - tie
        total += np.count_nonzero(above & (y == 1)) / np.count_nonzero(above)
    return total / np.count_nonzero(y == 1)


def check_metrics(name: str, scores, labels, auc_roc: float, auc_pr: float,
                  tol: float, tie: float = 0.0) -> list[str]:
    """The program's AUC-ROC and AUC-PR against a brute-force recount.

    AUC-ROC is the Mann-Whitney pair count: a positive above a negative
    counts 1, a tied pair 1/2. With `tie` > 0 the scores come from a
    reference forward, which matches the program's only to rounding: a pair
    closer than `tie` may be tied in one and ordered in the other, so AUC-ROC
    must lie between counting all such pairs as losses and all as wins, and
    AUC-PR must match the recount with or without them merged into tie
    groups. Without such pairs both checks are exact.
    """
    problems = []
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    diff = s[y == 1][:, None] - s[y == 0][None, :]
    wins, close = np.count_nonzero(diff > tie), np.count_nonzero(np.abs(diff) <= tie)
    if tie == 0:
        low = high = (wins + 0.5 * close) / diff.size
    else:
        low, high = wins / diff.size, (wins + close) / diff.size
    if not low - tol <= auc_roc <= high + tol:
        problems.append(f"{name}: AUC-ROC {auc_roc!r} is outside the brute-force count [{low!r}, {high!r}]")
    recounts = {brute_average_precision(s, y, tie), brute_average_precision(s, y)}
    if not any(abs(auc_pr - ap) <= tol for ap in recounts):
        problems.append(f"{name}: AUC-PR {auc_pr!r} != brute force {sorted(recounts)!r}")
    return problems


# ---------------------------------------------------------------------------
# Dense reference forwards.
# ---------------------------------------------------------------------------


def dense_adjacency(num_nodes: int, edges: np.ndarray) -> np.ndarray:
    a = np.zeros((num_nodes, num_nodes))
    if len(edges):
        a[edges[:, 0], edges[:, 1]] = 1.0
        a[edges[:, 1], edges[:, 0]] = 1.0
    return a


def _relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def sage_probabilities(x, a, w1, w2, w3) -> np.ndarray:
    """Two mean-aggregation layers h = ReLU([h, M h] W) with M the
    row-normalised adjacency (zero rows for isolated nodes), then the head
    sigmoid([h2, A h2] w3) with the summed neighbour term."""
    deg = a.sum(axis=1)
    m = a / np.where(deg > 0, deg, 1.0)[:, None]
    h1 = _relu(np.hstack([x, m @ x]) @ w1)
    h2 = _relu(np.hstack([h1, m @ h1]) @ w2)
    return _sigmoid(np.hstack([h2, a @ h2]) @ w3)[:, 0]


def gcn_embeddings(x, a, w1, w2) -> np.ndarray:
    """Linear layer-2 output z2 = S ReLU(S X W1) W2 with
    S = D^-1/2 (A + I) D^-1/2: the link encoder's embedding."""
    a_hat = a + np.eye(a.shape[0])
    inv_sqrt = 1.0 / np.sqrt(a_hat.sum(axis=1))
    s = inv_sqrt[:, None] * a_hat * inv_sqrt[None, :]
    return s @ (_relu(s @ (x @ w1)) @ w2)


def gcn_probabilities(x, a, w1, w2, w3) -> np.ndarray:
    return _sigmoid(_relu(gcn_embeddings(x, a, w1, w2)) @ w3)[:, 0]


def pair_scores(z: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    return _sigmoid(np.einsum("ij,ij->i", z[pairs[:, 0]], z[pairs[:, 1]]))


# ---------------------------------------------------------------------------
# Features and SENG.
# ---------------------------------------------------------------------------


def check_features(features: np.ndarray, kinds: list[str]) -> list[str]:
    """p x 3, finite, column 0 the type codes, service rows [code, 0, 0],
    manufacturer plane columns centred (t-SNE recentres every iteration)."""
    problems = []
    codes = np.array([TYPE_CODES[k] for k in kinds], dtype=np.float64)
    if features.shape != (len(kinds), 3):
        return [f"features have shape {features.shape}, expected ({len(kinds)}, 3)"]
    if not np.all(np.isfinite(features)):
        problems.append("features hold non-finite values")
    if not np.array_equal(features[:, 0], codes):
        problems.append("feature column 0 is not the type code")
    services = codes != 0
    if np.any(features[services, 1:] != 0.0):
        problems.append("a service row carries non-zero plane coordinates")
    plane = features[~services, 1:]
    scale = max(1.0, float(np.abs(plane).max()))
    if np.any(np.abs(plane.mean(axis=0)) > 1e-9 * scale):
        problems.append(f"manufacturer plane columns have mean {plane.mean(axis=0)}, not 0")
    return problems


def check_seng(base_kinds: list[str], base_edges: set, aug_kinds: list[str], aug_edges: set,
               base_labels: np.ndarray, aug_labels: np.ndarray,
               base_split: dict, aug_split: dict, records: list[tuple],
               oversampling_scale: float, alpha_choices: tuple[int, ...]) -> list[str]:
    """SENG's structural invariants.

    `records` holds (node, alpha, seed manufacturers, attached services);
    edges are sets of (u, v) with u < v; splits map node -> split name.
    """
    problems = []
    p = len(base_kinds)
    neighbours: dict[int, set[int]] = {}
    for u, v in base_edges:
        neighbours.setdefault(u, set()).add(v)
        neighbours.setdefault(v, set()).add(u)
    train = [j for j, s in base_split.items() if s == "train"]
    minority_train = sorted(j for j in train if base_labels[j] == 1 and base_kinds[j] == "manufacturer")
    expected = int(round(oversampling_scale * len(minority_train)))
    if len(records) != expected:
        problems.append(f"{len(records)} synthetic nodes, expected round(OS x {len(minority_train)}) = {expected}")
    if aug_kinds[:p] != base_kinds:
        problems.append("the base nodes changed")
    if len(aug_kinds) != p + len(records):
        problems.append("node count is not base plus synthetic")
    if aug_kinds.count("manufacturer") - base_kinds.count("manufacturer") != len(records):
        problems.append("service nodes were added or removed")
    if not np.array_equal(aug_labels[:p], base_labels) or np.any(aug_labels[p:] != 1):
        problems.append("labels: base labels changed or a synthetic node is not minority")
    if any(aug_split.get(j) != s for j, s in base_split.items()):
        problems.append("the base split changed")
    synthetic_edges = set()
    minority = set(minority_train)
    for k, (node, alpha, seeds, attached) in enumerate(records):
        tag = f"synthetic node {node}"
        if node != p + k or aug_kinds[node] != "manufacturer":
            problems.append(f"{tag}: not the manufacturer appended at {p + k}")
        if aug_split.get(node) != "train":
            problems.append(f"{tag}: not in the training split")
        if alpha not in alpha_choices or len(seeds) != alpha:
            problems.append(f"{tag}: alpha {alpha} with {len(seeds)} seeds")
        if not set(seeds) <= minority:
            problems.append(f"{tag}: seeded from outside the training minority")
        pool = set().union(*(neighbours.get(m, set()) for m in seeds))
        pool = {s for s in pool if base_kinds[s] != "manufacturer"}
        if len(set(attached)) != len(attached) or not set(attached) <= pool:
            problems.append(f"{tag}: attachments are not distinct services of its seeds' pool")
        if len(attached) != math.ceil(len(pool) / max(alpha, 1)):
            problems.append(f"{tag}: {len(attached)} attachments, expected ceil({len(pool)}/{alpha})")
        synthetic_edges.update((s, node) for s in attached)
    if aug_edges != base_edges | synthetic_edges:
        problems.append("augmented edges are not base edges plus synthetic attachments")
    return problems


# ---------------------------------------------------------------------------
# Link-prediction splits.
# ---------------------------------------------------------------------------


def check_link_split(edges: set, manufacturers: set, target: int, split: dict,
                     message_edges: set) -> list[str]:
    """Disjoint splits, 1:1 negatives drawn from manufacturer-target
    non-edges, and a message graph that keeps every edge but the held-out
    positives. `split` maps pos_/neg_ train/valid/test to (k, 2) arrays."""
    problems = []
    as_pairs = {k: [tuple(int(x) for x in row) for row in v] for k, v in split.items()}
    everything = [pair for pairs in as_pairs.values() for pair in pairs]
    if len(set(everything)) != len(everything):
        problems.append("link splits overlap or repeat a pair")
    positives = {(m, target) for m in manufacturers if (min(m, target), max(m, target)) in edges}
    for name, pairs in as_pairs.items():
        for m, t in pairs:
            if t != target or m not in manufacturers:
                problems.append(f"{name}: pair ({m}, {t}) is not manufacturer-target")
                break
        is_edge = [(m, t) in positives for m, t in pairs]
        if name.startswith("pos") and not all(is_edge):
            problems.append(f"{name}: holds a non-edge")
        if name.startswith("neg") and any(is_edge):
            problems.append(f"{name}: holds an edge")
    for part in ("train", "valid", "test"):
        if len(as_pairs[f"pos_{part}"]) != len(as_pairs[f"neg_{part}"]):
            problems.append(f"{part}: negatives are not 1:1 with positives")
    if sum(len(as_pairs[f"pos_{part}"]) for part in ("train", "valid", "test")) != len(positives):
        problems.append("the positive splits do not cover every manufacturer-target edge")
    held_out = {(min(m, t), max(m, t)) for name in ("pos_valid", "pos_test") for m, t in as_pairs[name]}
    if message_edges != edges - held_out:
        problems.append("the message graph is not every edge minus the held-out positives")
    return problems


# ---------------------------------------------------------------------------
# Comparisons and readers of the files `capgraph train` writes (README
# "File formats").
# ---------------------------------------------------------------------------


def check_close(name: str, got, ref, tol: float) -> list[str]:
    got, ref = np.asarray(got, dtype=np.float64), np.asarray(ref, dtype=np.float64)
    if got.shape != ref.shape:
        return [f"{name}: shape {got.shape} != reference {ref.shape}"]
    worst = float(np.max(np.abs(got - ref), initial=0.0))
    if not worst <= tol:
        return [f"{name}: differs from the reference by {worst:.3g} > {tol:g}"]
    return []


def read_matrix(path: Path) -> np.ndarray:
    data = Path(path).read_bytes()
    if data[:4] != b"CGMX":
        raise ValueError(f"{path}: bad magic")
    rows, cols, width = struct.unpack_from("<III", data, 4)
    if width != 8:
        raise ValueError(f"{path}: element width {width}")
    return np.frombuffer(data, dtype="<f8", count=rows * cols, offset=16).reshape(rows, cols)


def read_checkpoint(path: Path) -> tuple[str, int, list]:
    """(kind, head flags, [w1, w2, w3 or None])."""
    data = Path(path).read_bytes()
    if data[:4] != b"CGCK":
        raise ValueError(f"{path}: bad magic")
    kind, flags = data[4], data[5]
    offset = 12
    mats = []
    for _ in range(3):
        rows, cols = struct.unpack_from("<II", data, offset)
        offset += 8
        mats.append(np.frombuffer(data, dtype="<f8", count=rows * cols, offset=offset).reshape(rows, cols)
                    if rows * cols else None)
        offset += rows * cols * 8
    return {0: "graphsage", 1: "gcn"}[kind], flags, mats


def read_run_dir(run_dir: Path) -> dict:
    """Node kinds, edges, features, weights, labels and test ids of a run."""
    kinds = []
    for line in (run_dir / "nodes.tsv").read_text(encoding="utf-8").splitlines():
        _, kind, category, _ = line.split("\t")
        kinds.append(kind if kind == "manufacturer" else category)
    edges = np.loadtxt(run_dir / "edges.tsv", dtype=np.int64, ndmin=2)
    labels = np.zeros(len(kinds), dtype=np.int64)
    test_ids = []
    for line in (run_dir / "assignment.tsv").read_text(encoding="utf-8").splitlines():
        node, split, label = line.split("\t")
        labels[int(node)] = int(label)
        if split == "test":
            test_ids.append(int(node))
    kind, flags, weights = read_checkpoint(run_dir / "checkpoint.bin")
    return {
        "kinds": kinds,
        "edges": edges,
        "features": read_matrix(run_dir / "features.bin"),
        "kind": kind,
        "flags": flags,
        "weights": weights,
        "labels": labels,
        "test_ids": np.array(sorted(test_ids), dtype=np.int64),
        "config": json.loads((run_dir / "config.json").read_text(encoding="utf-8")),
    }
