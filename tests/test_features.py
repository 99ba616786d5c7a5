from __future__ import annotations

import contextlib
import functools
import json
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capgraph import features
from capgraph.errors import DataError, NumericError
from capgraph.features import (
    build_neighbor_paragraphs,
    conditional_affinities,
    default_perplexity,
    initial_embedding,
    integrate_features,
    joint_affinities,
    load_matrix,
    reduce_to_plane,
    save_matrix,
    train_paragraph_vectors,
)
from capgraph.graph import (
    Graph,
    ServiceCategory,
    manufacturer,
    mask_target,
    service,
    stratified_split,
)
from capgraph.models import _sigmoid
from capgraph.seng import SengConfig, oversample

from conftest import small_mixed_graph


# ---------------------------------------------------------------------------
# Oracles: the straightforward single-block loops the library's buffered,
# row-blocked versions must reproduce. t-SNE is chaotic in float rounding
# (it turns a one-ulp input difference into O(1) within 80 iterations), so
# its oracles keep the library's operations and their order, use no BLAS
# call, as the library does not (BLAS results change with its thread count),
# and are matched bit for bit over block counts and piece heights. A change
# of that arithmetic changes the oracle with it; the gradient and KL tests
# hold it to the exact gradient and to the earlier two-pass loop. The
# paragraph vectors are stable, so their oracle, a plain per-pair loop, is
# matched to 1e-12.
# ---------------------------------------------------------------------------


def _sigmoid_oracle(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _pv_pair_loop(paragraphs, dim, epochs, visits_per_block, learning_rate=0.025, negatives=5, seed=0):
    """PV-DBOW one (paragraph, word) pair at a time: every pair of a visit is
    scored against the vectors at the start of its block of visits, each word
    takes the sum of its pairs' steps across the block and the paragraph the
    mean over its positive tokens. One visit per block is the per-visit update."""
    keys = list(paragraphs)
    token_lists = [list(paragraphs[k]) for k in keys]
    vocab = sorted({tok for toks in token_lists for tok in toks})
    index = {tok: i for i, tok in enumerate(vocab)}
    counts = np.zeros(len(vocab), dtype=np.float64)
    encoded = []
    for toks in token_lists:
        ids = np.array([index[t] for t in toks], dtype=np.int64)
        encoded.append(ids)
        np.add.at(counts, ids, 1.0)
    noise = counts ** 0.75
    noise /= noise.sum()

    rng = np.random.default_rng(seed)
    vectors = rng.uniform(-0.5 / dim, 0.5 / dim, size=(len(keys), dim))
    word_out = np.zeros((len(vocab), dim), dtype=np.float64)
    for row, ids in enumerate(encoded):
        if ids.size == 0:
            vectors[row] = 0.0

    nonempty = [r for r, ids in enumerate(encoded) if ids.size]
    total_visits = epochs * len(nonempty)
    min_alpha = learning_rate * 1e-4
    visit = 0
    for _ in range(epochs):
        for at, row in enumerate(nonempty):
            alpha = max(min_alpha, learning_rate * (1.0 - visit / total_visits))
            visit += 1
            pos = encoded[row]
            neg = rng.choice(len(vocab), size=(pos.size, negatives), p=noise)
            v = vectors[row].copy()  # a block visits each paragraph once
            if at % visits_per_block == 0:
                u = word_out.copy()
            dv = np.zeros(dim)
            for k, word in enumerate(pos):
                pairs = [(word, 1.0)] + [(noise_word, 0.0) for noise_word in neg[k] if noise_word != word]
                for target, label in pairs:
                    g = alpha * (label - _sigmoid_oracle(np.array([u[target] @ v]))[0])
                    np.add.at(word_out, [target], g * v)
                    dv += g * u[target]
            vectors[row] = v + dv / pos.size
    return vectors


def _conditional_affinities_oracle(f1, perplexity):
    x = np.asarray(f1, dtype=np.float64)
    n = x.shape[0]
    sq = np.sum(x * x, axis=1)
    d2 = (sq[:, None] + sq[None, :]) - np.einsum("ik,jk->ij", 2.0 * x, x)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    target_entropy = np.log(perplexity)
    beta = np.ones(n)
    beta_min = np.full(n, -np.inf)
    beta_max = np.full(n, np.inf)
    eye = np.eye(n, dtype=bool)
    p = np.zeros((n, n))
    for _ in range(64):
        w = np.exp(-d2 * beta[:, None])
        w[eye] = 0.0
        sum_w = np.maximum(w.sum(axis=1), 1e-300)
        p = w / sum_w[:, None]
        entropy = np.log(sum_w) + beta * np.einsum("ij,ij->i", d2, w) / sum_w
        diff = entropy - target_entropy
        too_high = diff > 0
        beta_min = np.where(too_high, beta, beta_min)
        beta_max = np.where(~too_high, beta, beta_max)
        grow = too_high & np.isinf(beta_max)
        shrink = ~too_high & np.isinf(beta_min)
        beta = np.where(grow, beta * 2.0, np.where(shrink, beta / 2.0, (beta_min + beta_max) / 2.0))
        beta = np.where(np.isfinite(beta), beta, 1.0)
        if np.all(np.abs(diff) < 1e-7):
            break
    return p


def _joint_affinities_oracle(f1, perplexity):
    pc = _conditional_affinities_oracle(f1, perplexity)
    p = (pc + pc.T) / (2.0 * pc.shape[0])
    return np.maximum(p, 1e-12)


def _student_t_kernel_oracle(y):
    dx = y[:, 0, None] - y[None, :, 0]
    dy = y[:, 1, None] - y[None, :, 1]
    num = 1.0 / ((1.0 + dx * dx) + dy * dy)
    np.fill_diagonal(num, 0.0)
    return num


def _kl_divergence(p, y):
    """KL(P || Q) for a candidate embedding, from the affinity definitions."""
    num = _student_t_kernel_oracle(y)
    q = np.maximum(num / num.sum(), 1e-12)
    return float(np.sum(p * np.log(p / q)))


def _row_sums(f, y):
    """Row sums of f, and of f times each coordinate of y_j: shape (3, n)."""
    return np.stack([f.sum(axis=1)] + [np.einsum("ij,j->i", f, col) for col in y.T.copy()])


def _one_pass_gradient(p, y, exaggeration):
    # (exaggeration * P - Q) * num = (P * num - num^2 / Z) * exaggeration:
    # seven row sums of one kernel, Z applied after them
    num = _student_t_kernel_oracle(y)
    pq = _row_sums(p * num, y) - _row_sums(num * num, y) / (num.sum(axis=1).sum() * exaggeration)
    return (4.0 * exaggeration) * (pq[0, :, None] * y - pq[1:].T)


def _two_pass_gradient(p, y, exaggeration):
    # the earlier form: Z from a first kernel pass, then (P - Q / exaggeration)
    # * num with Q / exaggeration floored at 1e-12 / exaggeration
    num = _student_t_kernel_oracle(y)
    z = num.sum(axis=1).sum()
    pq = (p - np.maximum(num / (z * exaggeration), 1e-12 / exaggeration)) * num
    attraction = np.stack([np.einsum("ij,j->i", pq, col) for col in y.T.copy()], axis=1)
    return (4.0 * exaggeration) * (pq.sum(axis=1)[:, None] * y - attraction)


def _exact_gradient(p, y, exaggeration):
    """4 sum_j (exaggeration p_ij - q_ij) num_ij (y_i - y_j), in long double."""
    p, y = p.astype(np.longdouble), y.astype(np.longdouble)
    diff = y[:, None, :] - y[None, :, :]
    num = 1 / (1 + (diff * diff).sum(axis=-1))
    np.fill_diagonal(num, 0)
    w = (exaggeration * p - num / num.sum()) * num
    return 4 * (w[:, :, None] * diff).sum(axis=1)


def _tsne_loop(f1, perplexity, iterations, gradient, learning_rate=200.0, seed=0):
    p = _joint_affinities_oracle(f1, perplexity)
    y = initial_embedding(f1.shape[0], seed)
    update = np.zeros_like(y)
    gains = np.ones_like(y)
    for it in range(iterations):
        exaggeration = 12.0 if it < 100 else 1.0
        grad = gradient(p, y, exaggeration)
        momentum = 0.5 if it < 250 else 0.8
        same_sign = np.sign(grad) == np.sign(update)
        gains = np.where(same_sign, gains * 0.8, gains + 0.2)
        np.maximum(gains, 0.01, out=gains)
        update = momentum * update - learning_rate * gains * grad
        y = y + update
        y = y - y.mean(axis=0)
    return y


_tsne_oracle = functools.partial(_tsne_loop, gradient=_one_pass_gradient)


@contextlib.contextmanager
def _forced_row_blocks(parts):
    """Make the library split its n x n work into `parts` row blocks."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(features, "_row_blocks", functools.partial(features._row_blocks, parts=parts))
        yield


# ---------------------------------------------------------------------------
# Neighbor paragraphs.
# ---------------------------------------------------------------------------


def test_paragraph_tokens_from_neighbor_names():
    nodes = [
        manufacturer("acme"),
        service("CNC Machining", ServiceCategory.PROCESS),
        service("Aluminum", ServiceCategory.MATERIAL),
    ]
    g = Graph(nodes, [(0, 1), (0, 2)])
    paragraphs = build_neighbor_paragraphs(g)
    assert paragraphs == {0: ["cnc", "machining", "aluminum"]}


def test_paragraph_isolated_manufacturer_empty():
    g = Graph([manufacturer("lonely"), service("s", ServiceCategory.PROCESS)], [])
    assert build_neighbor_paragraphs(g) == {0: []}


def test_paragraph_synthetic_nodes_included():
    nodes = [manufacturer(f"m{j}") for j in range(20)]
    n = len(nodes)
    names = [("milling works", ServiceCategory.PROCESS), ("brass alloy", ServiceCategory.MATERIAL),
             ("aerospace", ServiceCategory.INDUSTRY), ("iso 9001", ServiceCategory.CERTIFICATION),
             ("target", ServiceCategory.PROCESS)]
    nodes.extend(service(nm, cat) for nm, cat in names)
    edges = [(j, n + (j % 4)) for j in range(20)]
    edges += [(j, n + 4) for j in range(8)]  # 8 positives on the target
    task = mask_target(Graph(nodes, edges), "target")
    split = stratified_split(task.labels, (0.5, 0.25, 0.25), seed=0)
    aug = oversample(task, split, SengConfig(oversampling_scale=1.0, seed=1, alpha_choices=(2,)))
    assert aug.num_synthetic > 0
    paragraphs = build_neighbor_paragraphs(aug.graph)
    rec = aug.synthetic[0]
    expected = []
    for s in aug.graph.neighbors[rec.node]:
        expected.extend(aug.graph.nodes[s].name.split())
    assert rec.node in paragraphs
    assert paragraphs[rec.node] == expected


def test_paragraph_multiset_fidelity():
    g = small_mixed_graph()
    paragraphs = build_neighbor_paragraphs(g)
    for q in g.manufacturer_ids():
        expected: list[str] = []
        for s in g.service_neighbors(q):
            expected.extend(g.nodes[s].name.split())
        assert sorted(paragraphs[q]) == sorted(expected)


# ---------------------------------------------------------------------------
# Paragraph vectors.
# ---------------------------------------------------------------------------


def _cluster_corpus(n_per_cluster=8, words_per_doc=12, seed=0):
    """Three planted clusters with disjoint vocabularies."""
    rng = np.random.default_rng(seed)
    vocabs = [
        [f"a{k}" for k in range(6)],
        [f"b{k}" for k in range(6)],
        [f"c{k}" for k in range(6)],
    ]
    paragraphs = {}
    membership = []
    idx = 0
    for c, vocab in enumerate(vocabs):
        for _ in range(n_per_cluster):
            paragraphs[idx] = list(rng.choice(vocab, size=words_per_doc))
            membership.append(c)
            idx += 1
    return paragraphs, membership


def test_doc2vec_shape_contract():
    paragraphs, _ = _cluster_corpus()
    f1 = train_paragraph_vectors(paragraphs, dim=64, epochs=2, seed=0)
    assert f1.shape == (len(paragraphs), 64)
    assert np.isfinite(f1).all()


def test_doc2vec_empty_paragraph_zero_row():
    paragraphs = {0: ["alpha", "beta"], 1: [], 2: ["beta", "gamma"]}
    f1 = train_paragraph_vectors(paragraphs, dim=8, epochs=3, seed=1)
    assert np.all(f1[1] == 0.0)
    assert np.any(f1[0] != 0.0)


def test_doc2vec_all_empty_rejected():
    with pytest.raises(DataError, match="empty"):
        train_paragraph_vectors({0: [], 1: []}, dim=8)


def test_doc2vec_deterministic():
    paragraphs, _ = _cluster_corpus()
    a = train_paragraph_vectors(paragraphs, dim=16, epochs=4, seed=9)
    b = train_paragraph_vectors(paragraphs, dim=16, epochs=4, seed=9)
    assert np.array_equal(a, b)
    c = train_paragraph_vectors(paragraphs, dim=16, epochs=4, seed=10)
    assert not np.array_equal(a, c)


def test_sigmoid_matches_oracle_bitwise():
    rng = np.random.default_rng(0)
    z = np.concatenate([rng.standard_normal(5000) * 30, [0.0, -0.0, 1e-300, -1e-300, 745.0, -745.0,
                                                         800.0, -800.0, np.inf, -np.inf]])
    assert _sigmoid(z).tobytes() == _sigmoid_oracle(z).tobytes()
    assert np.isnan(_sigmoid(np.array([np.nan]))).all()
    assert _sigmoid(z[:12].reshape(3, 4)).shape == (3, 4)


def test_doc2vec_matches_pair_loop(monkeypatch):
    # empty paragraphs, repeated tokens, and a 3-word vocabulary so that most
    # noise draws collide with their positive and are dropped
    paragraphs = {
        0: ["x", "x", "y", "x"],
        1: [],
        2: ["y", "z", "z"],
        3: ["x"],
        4: [],
        5: ["z", "z", "z", "z", "y"],
    }
    tagged = _tagged_corpus(n=25, seed=3)
    tagged[7] = []
    cases = [(paragraphs, dict(dim=7, epochs=6, negatives=4, seed=seed)) for seed in (0, 3)]
    cases += [(_cluster_corpus(seed=2)[0], dict(dim=16, epochs=5, seed=8)), (tagged, dict(dim=8, epochs=3, seed=4))]
    default = features._COUNT_CELLS
    for corpus, settings in cases:
        n_words = len({tok for toks in corpus.values() for tok in toks})
        # the default budget, one visit per block (also below one visit's cells), and partial last blocks
        for cells in (default, n_words, 1, 2 * n_words + 1, 7 * n_words):
            monkeypatch.setattr(features, "_COUNT_CELLS", cells)
            got = train_paragraph_vectors(corpus, **settings)
            expected = _pv_pair_loop(corpus, visits_per_block=max(1, cells // n_words), **settings)
            assert np.abs(got - expected).max() < 1e-12, cells


def _tagged_corpus(n=60, seed=0):
    """Long paragraphs in which a cluster tag repeats, as neighbour names do."""
    rng = np.random.default_rng(seed)
    paragraphs = {}
    for j in range(n):
        tag = f"cluster{j % 3}"
        words = [tag] * 30 + [f"w{k}" for k in rng.integers(0, 40, size=60)]
        paragraphs[j] = [words[k] for k in rng.permutation(len(words))]
    return paragraphs


def _blocked_corpus(n=400, n_words=128, seed=0):
    """Zipf-drawn paragraphs over exactly `n_words` words."""
    rng = np.random.default_rng(seed)
    paragraphs = {j: [f"t{k}" for k in np.minimum(rng.zipf(1.3, size=40), n_words) - 1] for j in range(n)}
    paragraphs[0] += [f"t{k}" for k in range(n_words)]
    return paragraphs


def test_doc2vec_independent_of_blas_threads():
    # each block is three BLAS matrix products, large enough at 128 visits by
    # 128 words by width 64 for the BLAS to split them over its threads
    corpus = _blocked_corpus()
    n_words = len({tok for toks in corpus.values() for tok in toks})
    assert features._COUNT_CELLS // n_words == 128 and len(corpus) > 3 * 128  # four blocks
    src = str(Path(features.__file__).resolve().parents[1])
    script = ("import hashlib, json, sys; from capgraph.features import train_paragraph_vectors; "
              "corpus = {int(k): v for k, v in json.load(sys.stdin).items()}; "
              "print(hashlib.sha256(train_paragraph_vectors(corpus, dim=64, epochs=3, seed=1).tobytes()).hexdigest())")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", script], input=json.dumps(corpus), env=env,
                              check=True, capture_output=True, text=True)
        digests.append(done.stdout)
    assert digests[0] == digests[1]


def test_doc2vec_row_norms_stay_bounded():
    f1 = train_paragraph_vectors(_tagged_corpus(), dim=32, epochs=40, seed=0)
    assert np.linalg.norm(f1, axis=1).max() < 5.0


def test_doc2vec_learning_rate_nudge_moves_output_little():
    corpus = _tagged_corpus(seed=1)
    a = train_paragraph_vectors(corpus, dim=32, epochs=40, learning_rate=0.025, seed=2)
    b = train_paragraph_vectors(corpus, dim=32, epochs=40, learning_rate=0.025 * (1 + 1e-12), seed=2)
    assert np.abs(a - b).max() < 1e-9


def _unigram_cdf(counts):
    """The noise CDF as `train_paragraph_vectors` builds it from word counts."""
    noise = np.asarray(counts, dtype=np.float64) ** 0.75
    noise /= noise.sum()
    cdf = noise.cumsum()
    return cdf / cdf[-1]


def _bucket_widths(cdf):
    """Words per bucket of the documented table: 2^k >= 4 words, k >= 10."""
    buckets = 1 << max(10, (4 * cdf.size - 1).bit_length())
    return buckets, np.diff(cdf.searchsorted(np.arange(buckets + 1) / buckets, side="right"))


def _dominant_counts(rare, at):
    counts = np.ones(rare + 1)
    counts[at] = 1e9
    return counts


def _assert_draws_match_search(cdf, rng):
    buckets, _ = _bucket_widths(cdf)
    edges = np.arange(buckets) / buckets
    inner = cdf[cdf < 1.0]
    r = np.concatenate([
        [0.0, np.nextafter(1.0, 0.0)], edges, np.nextafter(edges[1:], 0.0),
        inner, np.nextafter(inner, 0.0), np.nextafter(inner, 1.0), rng.random(1000),
    ])
    r = r[r < 1.0]
    draw = features._inverse_cdf_search(cdf)
    assert np.array_equal(draw(r), cdf.searchsorted(r, side="right"))
    block = rng.random((37, 5))
    assert np.array_equal(draw(block), cdf.searchsorted(block, side="right"))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3000), st.sampled_from(["flat", "zipf", "dominant"]), st.integers(0, 2**32 - 1))
def test_noise_draws_match_inverse_cdf_search(n_words, shape, seed):
    rng = np.random.default_rng(seed)
    if shape == "flat":
        counts = rng.integers(1, 50, size=n_words)
    elif shape == "zipf":
        counts = np.minimum(rng.zipf(1.3, size=n_words), 10**9)
    else:
        counts = _dominant_counts(n_words - 1, int(rng.integers(n_words)))
    _assert_draws_match_search(_unigram_cdf(counts), rng)


def test_noise_draws_bisect_a_packed_bucket():
    # one word of count 1e9 packs 3,000 rare words into a few buckets: the
    # draw must bisect within a bucket of hundreds of words
    for at in (0, 1500, 3000):
        cdf = _unigram_cdf(_dominant_counts(3000, at))
        assert _bucket_widths(cdf)[1].max() > 1
        _assert_draws_match_search(cdf, np.random.default_rng(at))


def _skewed_corpus(n_words=2000, n=120, seed=0):
    """Every word of a 2,000-word vocabulary once, then Zipf-drawn repeats."""
    rng = np.random.default_rng(seed)
    per = n_words // n + 1
    paragraphs = {}
    for j in range(n):
        words = [f"v{k}" for k in range(j * per, min(n_words, (j + 1) * per))]
        words += [f"v{k - 1}" for k in np.minimum(rng.zipf(1.5, size=40), n_words)]
        paragraphs[j] = words
    return paragraphs


def test_doc2vec_bucketed_draws_match_plain_search(monkeypatch):
    corpora = [(_tagged_corpus(seed=5), 16), (_skewed_corpus(), 8)]
    got = [train_paragraph_vectors(corpus, dim=dim, epochs=3, seed=6) for corpus, dim in corpora]
    monkeypatch.setattr(features, "_inverse_cdf_search", lambda cdf: functools.partial(cdf.searchsorted, side="right"))
    for (corpus, dim), vectors in zip(corpora, got):
        assert np.array_equal(vectors, train_paragraph_vectors(corpus, dim=dim, epochs=3, seed=6))


@pytest.mark.parametrize("setting", [
    {"negatives": 0}, {"epochs": 0}, {"learning_rate": float("nan")}, {"learning_rate": -1.0}, {"dim": 1},
])
def test_doc2vec_rejects_invalid_settings(setting):
    with pytest.raises(DataError):
        train_paragraph_vectors({0: ["a", "b"], 1: ["b", "c"]}, **setting)


def _mean_cosines(f1, membership):
    norms = np.linalg.norm(f1, axis=1, keepdims=True)
    unit = f1 / np.maximum(norms, 1e-12)
    sims = unit @ unit.T
    n = len(membership)
    intra, inter = [], []
    for i in range(n):
        for j in range(i + 1, n):
            (intra if membership[i] == membership[j] else inter).append(sims[i, j])
    return float(np.mean(intra)), float(np.mean(inter))


def test_doc2vec_cluster_cosine_separation():
    gaps = []
    for seed in range(5):
        paragraphs, membership = _cluster_corpus(seed=seed)
        f1 = train_paragraph_vectors(paragraphs, dim=32, epochs=20, seed=seed)
        intra, inter = _mean_cosines(f1, membership)
        gaps.append(intra - inter)
    assert float(np.mean(gaps)) > 0.0


# ---------------------------------------------------------------------------
# Exact t-SNE.
# ---------------------------------------------------------------------------


def _gaussian_blobs(n_per=6, d=10, seed=0, blobs=3):
    rng = np.random.default_rng(seed)
    centers = rng.normal(0, 5.0, size=(blobs, d))
    return np.vstack([rng.normal(c, 0.3, size=(n_per, d)) for c in centers])


def test_tsne_shape_contract():
    x = _gaussian_blobs()
    y = reduce_to_plane(x, iterations=60, seed=0)
    assert y.shape == (x.shape[0], 2)
    assert np.isfinite(y).all()


def test_tsne_conditional_rows_are_distributions():
    x = _gaussian_blobs(seed=3)
    p = conditional_affinities(x, perplexity=4.0)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(np.diag(p) == 0.0)


def test_tsne_kl_decreases_from_initialization():
    x = _gaussian_blobs(seed=1)
    perplexity = default_perplexity(x.shape[0])
    p = joint_affinities(x, perplexity)
    y0 = initial_embedding(x.shape[0], seed=5)
    y = reduce_to_plane(x, perplexity=perplexity, iterations=250, seed=5)
    assert _kl_divergence(p, y) < _kl_divergence(p, y0)


def test_tsne_duplicate_rows_colocate():
    # identical rows share affinities, so the converged embedding co-locates
    # them; the default lr=200 oscillates on 15 points, so converge at lr=20
    x = _gaussian_blobs(n_per=5, seed=2)
    x[3] = x[2]  # exact duplicate pair
    y = reduce_to_plane(x, iterations=1500, learning_rate=20.0, seed=4)
    diameter = np.max(
        np.linalg.norm(y[:, None, :] - y[None, :, :], axis=-1)
    )
    gap = np.linalg.norm(y[2] - y[3])
    assert gap <= 1e-3 * diameter


def test_tsne_deterministic():
    x = _gaussian_blobs(seed=6)
    a = reduce_to_plane(x, iterations=80, seed=11)
    b = reduce_to_plane(x, iterations=80, seed=11)
    assert np.array_equal(a, b)


def test_affinities_match_oracle_bitwise():
    x = _gaussian_blobs(n_per=14, seed=7)
    x[5] = x[4]  # a zero off-diagonal distance
    for parts in (1, 2, 3):
        with _forced_row_blocks(parts):
            for perplexity in (4.0, default_perplexity(x.shape[0])):
                assert np.array_equal(joint_affinities(x, perplexity), _joint_affinities_oracle(x, perplexity))
                assert np.array_equal(conditional_affinities(x, perplexity),
                                      _conditional_affinities_oracle(x, perplexity))


def test_tsne_matches_oracle_bitwise():
    # 260 iterations cross both the exaggeration (100) and momentum (250) switches
    x = _gaussian_blobs(n_per=14, seed=8)
    perplexity = default_perplexity(x.shape[0])
    expected = _tsne_oracle(x, perplexity, iterations=260, seed=2)
    for parts in (1, 2, 3):
        with _forced_row_blocks(parts):
            assert np.array_equal(reduce_to_plane(x, iterations=260, seed=2), expected)


def test_tsne_row_pieces_match_oracle_bitwise(monkeypatch):
    x = _gaussian_blobs(n_per=14, seed=8)
    perplexity = default_perplexity(x.shape[0])
    expected = _tsne_oracle(x, perplexity, iterations=110, seed=2)
    for piece_rows in (1, 5, 16):
        monkeypatch.setattr(features, "_PIECE_ROWS", piece_rows)
        for parts in (1, 3):
            with _forced_row_blocks(parts):
                assert np.array_equal(reduce_to_plane(x, iterations=110, seed=2), expected)


def _first_step_gradient(monkeypatch, x, y_start, learning_rate=1e6):
    """The library's gradient at y_start, read from one t-SNE step: with no
    momentum yet, every gain becomes 1.2 and the step is -1.2 lr grad; y_start
    is centred, and the gradient sums to zero, so the recentring moves it by
    rounding alone."""
    monkeypatch.setattr(features, "initial_embedding", lambda n, seed: y_start.copy())
    y = reduce_to_plane(x, iterations=1, learning_rate=learning_rate)
    return (y_start - y) / (1.2 * learning_rate)


def test_tsne_gradient_matches_long_double(monkeypatch):
    # at the initial embedding and at a converged one; the first step is
    # exaggerated (x12). The earlier two-pass form meets the same bound.
    x = _gaussian_blobs(n_per=40, d=8, seed=10, blobs=4)
    n = x.shape[0]
    p = joint_affinities(x, default_perplexity(n))
    converged = reduce_to_plane(x, seed=1)
    for y_start in (initial_embedding(n, seed=1), converged):
        y_start = y_start - y_start.mean(axis=0)
        exact = _exact_gradient(p, y_start, 12.0)
        bound = 1e-10 * np.max(np.abs(exact))
        assert np.max(np.abs(_first_step_gradient(monkeypatch, x, y_start) - exact)) < bound
        assert np.max(np.abs(_two_pass_gradient(p, y_start, 12.0) - exact)) < bound


def test_tsne_kl_matches_two_pass_loop():
    # the one-pass form drops the 1e-12 floor on Q / exaggeration and sums in
    # another order; over 5 blob draws x 4 t-SNE seeds its mean KL(P || Q)
    # stays within 2% of the earlier two-pass loop's
    ours, two_pass = [], []
    for blob_seed in range(5):
        x = _gaussian_blobs(n_per=40, d=8, seed=blob_seed, blobs=4)
        perplexity = default_perplexity(x.shape[0])
        p = joint_affinities(x, perplexity)
        for seed in range(4):
            ours.append(_kl_divergence(p, reduce_to_plane(x, seed=seed)))
            reference = _tsne_loop(x, perplexity, 500, gradient=_two_pass_gradient, seed=seed)
            two_pass.append(_kl_divergence(p, reference))
    assert abs(np.mean(ours) / np.mean(two_pass) - 1.0) < 0.02


def test_row_blocks_partition_rows():
    for n, parts in ((42, 1), (42, 2), (43, 3), (5, 8)):
        blocks = features._row_blocks(n, parts)
        assert len(blocks) == min(n, parts)
        assert [i for b in blocks for i in range(n)[b]] == list(range(n))
        assert max(b.stop - b.start for b in blocks) - min(b.stop - b.start for b in blocks) <= 1


def test_tsne_peak_memory_below_two_matrices():
    # P alone: the distances become the affinities in place, and the kernel
    # and force terms are worked in pieces through small per-thread buffers
    x = _gaussian_blobs(n_per=200, d=8, seed=9)  # n = 600
    n = x.shape[0]
    with _forced_row_blocks(2):
        tracemalloc.start()
        try:
            reduce_to_plane(x, iterations=105, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 2.0 * n * n * 8


def test_tsne_rejects_invalid_settings():
    x = _gaussian_blobs(n_per=2, seed=0)
    for setting in ({"iterations": 0}, {"learning_rate": float("nan")}, {"perplexity": -1.0}):
        with pytest.raises(DataError):
            reduce_to_plane(x, **setting)


def test_tsne_perplexity_infeasible():
    x = _gaussian_blobs(n_per=2, seed=0)  # n = 6
    with pytest.raises(NumericError, match="infeasible"):
        reduce_to_plane(x, perplexity=2.0, iterations=10, seed=0)
    with pytest.raises(DataError, match="at least 4"):
        reduce_to_plane(x[:3], iterations=10, seed=0)


# ---------------------------------------------------------------------------
# Feature integration and persistence.
# ---------------------------------------------------------------------------


def test_integrate_manufacturer_row():
    codes = np.array([0, 1])
    f2 = np.array([[1.2, -0.3]])
    out = integrate_features(codes, f2, [True, False])
    assert np.allclose(out[0], [0.0, 1.2, -0.3])
    assert np.allclose(out[1], [1.0, 0.0, 0.0])


def test_integrate_service_rows_zero_padded(mixed_graph):
    from capgraph.graph import init_type_codes

    codes = init_type_codes(mixed_graph)
    flags = [n.is_manufacturer for n in mixed_graph.nodes]
    f2 = np.arange(8, dtype=float).reshape(4, 2)
    out = integrate_features(codes, f2, flags)
    assert out.shape == (8, 3)
    assert np.allclose(out[4], [1.0, 0.0, 0.0])  # industry
    assert np.allclose(out[7], [4.0, 0.0, 0.0])  # certification
    manu_rows = out[np.array(flags)]
    assert np.allclose(manu_rows[:, 1:], f2)


def test_integrate_dimension_mismatch():
    with pytest.raises(DataError, match="does not match"):
        integrate_features(np.array([0, 0]), np.zeros((1, 2)), [True, True])
    with pytest.raises(DataError, match="length mismatch"):
        integrate_features(np.array([0, 0]), None, [True])


def test_codes_only_features():
    # without plane coordinates (no feature aggregation) every row is [type code, 0, 0]
    out = integrate_features(np.array([0, 3, 4]), None, [True, False, False])
    assert out.shape == (3, 3)
    assert np.allclose(out[:, 0], [0, 3, 4])
    assert np.all(out[:, 1:] == 0.0)


def test_matrix_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.standard_normal((7, 5))
    path = tmp_path / "m.bin"
    save_matrix(m, path)
    back = load_matrix(path)
    assert back.dtype == np.float64
    assert np.array_equal(back, m)
    assert back.tobytes() == m.tobytes()


def test_matrix_bad_magic(tmp_path):
    path = tmp_path / "m.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 12)
    with pytest.raises(DataError, match="not a capgraph matrix"):
        load_matrix(path)


def test_matrix_declaring_a_huge_payload_is_truncated(tmp_path):
    path = tmp_path / "m.bin"
    path.write_bytes(b"CGMX" + struct.pack("<III", 2**32 - 1, 2**32 - 1, 8))
    with pytest.raises(DataError, match="truncated matrix payload"):
        load_matrix(path)


def test_matrix_truncated_header(tmp_path):
    path = tmp_path / "m.bin"
    save_matrix(np.ones((2, 2)), path)
    path.write_bytes(path.read_bytes()[:10])
    with pytest.raises(DataError, match="truncated matrix header"):
        load_matrix(path)
