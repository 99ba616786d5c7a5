"""Neighbor-name feature pipeline.

Manufacturer features are built in three stages: collect each
manufacturer's first-order service-neighbor names as a token paragraph,
embed the paragraphs with a distributed bag-of-words paragraph-vector
model trained by negative sampling, project the embeddings to the plane
with exact t-SNE, and prepend the node type code. Service nodes keep
their type code with zero-padded plane coordinates.
"""

from __future__ import annotations

import itertools
import math
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import DataError, NumericError
from .graph import Graph, read_exact, tokenize

FEATURE_DIM = 3

_MATRIX_MAGIC = b"CGMX"
# Paragraph vectors draw noise words and count pairs for as many visits at
# once as a count table of this many (visit, word) cells holds.
_COUNT_CELLS = 1 << 14


@dataclass(frozen=True)
class EmbeddingConfig:
    dim: int = 64
    epochs: int = 40
    learning_rate: float = 0.025
    negatives: int = 5

    def __post_init__(self) -> None:  # comparisons are written so that NaN fails them
        if not self.dim >= 2:
            raise DataError("embedding width must be >= 2")
        if not self.epochs >= 1:
            raise DataError("paragraph-vector epochs must be >= 1")
        if not 0 < self.learning_rate < math.inf:
            raise DataError("paragraph-vector learning rate must be positive and finite")
        if not self.negatives >= 1:
            raise DataError("negative samples per word must be >= 1")


@dataclass(frozen=True)
class TsneConfig:
    perplexity: float | None = None  # None: min(30, (n-1)/3 - eps)
    iterations: int = 500
    learning_rate: float = 200.0

    def __post_init__(self) -> None:
        if self.perplexity is not None and not 0 < self.perplexity < math.inf:
            raise DataError("t-SNE perplexity must be positive and finite")
        if not self.iterations >= 1:
            raise DataError("t-SNE iterations must be >= 1")
        if not 0 < self.learning_rate < math.inf:
            raise DataError("t-SNE learning rate must be positive and finite")


def build_neighbor_paragraphs(graph: Graph) -> dict[int, list[str]]:
    """Map each manufacturer id to the normalized tokens of its service
    neighbors' names, neighbors taken in ascending id order."""
    service_tokens = {s: tokenize(graph.names[s]) for s in graph.service_ids()}  # paragraphs share these strings
    paragraphs: dict[int, list[str]] = {}
    for q in graph.manufacturer_ids():
        tokens: list[str] = []
        for s in graph.service_neighbors(q):
            tokens.extend(service_tokens[s])
        paragraphs[q] = tokens
    return paragraphs


def _inverse_cdf_search(cdf: np.ndarray):
    """`draw(r)`, equal to `cdf.searchsorted(r, side="right")` for r in [0, 1): a table of the
    answers at 2^k >= 4 len(cdf) equal bucket edges, then a branch-free bisection in r's bucket."""
    scale = float(1 << max(10, (4 * cdf.size - 1).bit_length()))
    first = cdf.searchsorted(np.arange(scale + 1) / scale, side="right")  # bucket b's answers: first[b]..first[b + 1]
    width = int(np.diff(first).max())
    probe = np.append(cdf, np.full(width, np.inf))  # a probe past the bucket reads inf

    def draw(r: np.ndarray) -> np.ndarray:
        at = first[(r * scale).astype(np.intp)]  # b = floor(r 2^k), exact
        for step in [1 << i for i in reversed(range(width.bit_length()))]:
            at += step * (probe[step - 1:][at] <= r)  # an offset view, not an offset index array
        return at

    return draw


def train_paragraph_vectors(
    paragraphs: Mapping[int, Sequence[str]],
    dim: int = EmbeddingConfig.dim,
    epochs: int = EmbeddingConfig.epochs,
    learning_rate: float = EmbeddingConfig.learning_rate,
    negatives: int = EmbeddingConfig.negatives,
    seed: int = 0,
) -> np.ndarray:
    """Distributed bag-of-words paragraph vectors with negative sampling.

    One row per paragraph, in mapping order. A paragraph visit pairs the
    paragraph vector v with each of its tokens (label 1) and with
    `negatives` noise words per token (label 0); a noise word equal to its
    token is dropped. Each epoch visits the non-empty paragraphs in order,
    a block of max(1, `_COUNT_CELLS` // vocabulary) visits at a time (128
    at 128 words), and applies a block in one step, every pair scored
    against the vectors at the block's start. With V the block's paragraph
    rows, U the rows of the words paired in it, M and P each visit's count
    of pairs and of positive pairs per word, and a each visit's learning
    rate, S = a P - (a M / 2)(1 + tanh(V U^T / 2)) holds each visit's summed
    pair steps a (P - M s(u . v)) per word. Then V += S U / tokens, the
    mean over each visit's positive tokens, so a repeated token does not
    multiply the paragraph step and the vectors stay bounded; and
    U += S^T V, each word's steps summed across the block. One visit per
    block, which a vocabulary of 16,384 words or more gets, is the
    per-visit update of earlier builds; on smaller vocabularies their SF
    and FA `features.bin` does not reproduce. The learning rate decays
    linearly over visits. Empty paragraphs are skipped and map to the zero
    vector.

    The block products are BLAS matrix products; their result must not
    depend on the BLAS thread count, as t-SNE's does not. The tests in
    `tests/test_features.py` check the output byte for byte under one and
    two BLAS threads, and against a per-pair loop whose visits read their
    block's starting vectors, at several block sizes.

    Noise words are drawn by inverse-CDF search over the unigram^0.75 table
    through an O(vocabulary) bucket table, one block of visits' draws at a
    time: exactly the words `Generator.choice(p=...)` draws from the stream,
    which the generator yields in order.
    """
    EmbeddingConfig(dim, epochs, learning_rate, negatives)
    keys = list(paragraphs)
    token_lists = [list(paragraphs[k]) for k in keys]
    if not any(token_lists):
        raise DataError("all paragraphs are empty")

    vocab = sorted({tok for toks in token_lists for tok in toks})
    index = {tok: i for i, tok in enumerate(vocab)}
    n_words = len(vocab)
    counts = np.zeros(n_words, dtype=np.float64)
    encoded = []
    for toks in token_lists:
        ids = np.array([index[t] for t in toks], dtype=np.int64)
        encoded.append(ids)
        np.add.at(counts, ids, 1.0)
    noise = counts ** 0.75
    noise /= noise.sum()
    noise_cdf = noise.cumsum()
    draw_noise = _inverse_cdf_search(noise_cdf / noise_cdf[-1])

    rng = np.random.default_rng(seed)
    vectors = rng.uniform(-0.5 / dim, 0.5 / dim, size=(len(keys), dim))
    word_out = np.zeros((n_words, dim), dtype=np.float64)
    for row, ids in enumerate(encoded):
        if ids.size == 0:
            vectors[row] = 0.0

    nonempty = [r for r, ids in enumerate(encoded) if ids.size]
    per_block = max(1, _COUNT_CELLS // n_words)
    # a visit's pairs are counted per distinct word in cells visit * n_words + word
    blocks = []  # per block: its first visit in the epoch, its rows, their tokens, each token's first cell, token counts
    for b in range(0, len(nonempty), per_block):
        rows = nonempty[b:b + per_block]
        sizes = [encoded[r].size for r in rows]
        owner = np.repeat(np.arange(len(rows)) * n_words, sizes)
        blocks.append((b, rows, np.concatenate([encoded[r] for r in rows]), owner, np.array(sizes, float)[:, None]))
    total_visits = epochs * len(nonempty)
    min_alpha = learning_rate * 1e-4
    for epoch in range(epochs):
        for first, rows, pos, owner, tokens in blocks:
            neg = draw_noise(rng.random((pos.size, negatives)))
            cells = len(rows) * n_words
            token_cells = owner + pos
            positive = np.bincount(token_cells, minlength=cells).reshape(-1, n_words)
            # every noise cell counted, less each noise word equal to its token, which is dropped
            dropped = token_cells[np.flatnonzero(neg == pos[:, None]) // negatives]
            noise_pairs = np.bincount((owner[:, None] + neg).ravel(), minlength=cells)
            noise_pairs -= np.bincount(dropped, minlength=cells)
            pairs = positive + noise_pairs.reshape(-1, n_words)
            words = np.flatnonzero(pairs.any(axis=0))  # the words paired in the block
            visit = epoch * len(nonempty) + first + np.arange(len(rows))
            alpha = np.maximum(min_alpha, learning_rate * (1.0 - visit / total_visits))[:, None]
            # S = a (P - M s(x)) with s(x) = (1 + tanh(x / 2)) / 2: a P - (a M / 2) (1 + tanh(x / 2))
            half = 0.5 * alpha * pairs[:, words]
            base = alpha * positive[:, words]
            v = vectors[rows]
            u = word_out[words]
            step = v @ u.T  # becomes S, in place
            np.multiply(step, 0.5, out=step)
            np.tanh(step, out=step)
            np.add(step, 1.0, out=step)
            np.multiply(step, half, out=step)
            np.subtract(base, step, out=step)
            vectors[rows] = v + step @ u / tokens
            word_out[words] = u + step.T @ v
    return vectors


# ---------------------------------------------------------------------------
# Exact t-SNE.
# ---------------------------------------------------------------------------

_EXAGGERATION = 12.0
_EXAGGERATION_ITERS = 100
_MOMENTUM_SWITCH_ITER = 250
_P_FLOOR = 1e-12
_PIECE_ROWS = 64  # rows of a t-SNE block worked at a time in its thread's scratch


def default_perplexity(n: int) -> float:
    return min(30.0, (n - 1) / 3.0 - 1e-9)


def _cpus() -> list[int]:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return list(range(os.cpu_count() or 1))


def _row_blocks(n: int, parts: int | None = None) -> list[slice]:
    """Contiguous row blocks of an n-row matrix, by default one per CPU the
    process may run on (never more than n)."""
    parts = max(1, min(parts or len(_cpus()), n))
    bounds = [n * k // parts for k in range(parts + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


@contextmanager
def _each_block(n: int):
    """Yield `run(fn)`, which calls `fn(rows)` for every row block of an
    n-row matrix, the blocks in parallel threads (numpy releases the GIL in
    its loops). Each worker thread is pinned to its own CPU: a scheduler
    that does not balance load would otherwise keep every thread on the
    CPU of the thread that started it. Every element is computed the same
    way whatever the block count, so results do not depend on it."""
    blocks = _row_blocks(n)
    if len(blocks) == 1:
        yield lambda fn: fn(blocks[0])
        return
    cpus = _cpus()
    slots = itertools.count()

    def pin() -> None:
        if hasattr(os, "sched_setaffinity"):
            with suppress(OSError):  # the CPU set changed meanwhile: run unpinned
                os.sched_setaffinity(0, {cpus[next(slots) % len(cpus)]})  # 0: the calling thread

    with ThreadPoolExecutor(len(blocks), initializer=pin) as pool:
        yield lambda fn: list(pool.map(fn, blocks))


def _zero_diagonal(block: np.ndarray, start: int) -> None:
    """Zero the entries (i, i) of a contiguous row block whose first row is `start`."""
    block.reshape(-1)[start::block.shape[1] + 1] = 0.0


def _row_pieces(n: int, buffers: int):
    """`pieces(rows)`, which yields the pieces of a row block of an n-column
    matrix, at most _PIECE_ROWS rows each, with `buffers` scratch blocks of
    the piece's shape. Each thread keeps its scratch and reuses it."""
    local = threading.local()

    def pieces(rows: slice):
        if not hasattr(local, "scratch"):
            local.scratch = np.empty((buffers, min(_PIECE_ROWS, n), n))
        for a in range(rows.start, rows.stop, _PIECE_ROWS):
            piece = slice(a, min(a + _PIECE_ROWS, rows.stop))
            yield piece, *local.scratch[:, :piece.stop - a]

    return pieces


def conditional_affinities(f1: np.ndarray, perplexity: float) -> np.ndarray:
    """Row-stochastic Gaussian affinities with per-point bandwidth solved by
    bisection to match the target perplexity; zero diagonal.

    Squared distances are (|x_i|^2 + |x_j|^2) - (2 x_i) . x_j, clipped at
    zero, with the dot products from `np.einsum` rather than BLAS, whose
    results change with its thread count. The only n x n buffer holds the
    distances; each bisection step forms the affinities a piece of rows at
    a time, and the last bandwidths' affinities overwrite the distances.
    """
    x = np.asarray(f1, dtype=np.float64)
    n = x.shape[0]
    if n < 4:
        raise DataError(f"t-SNE needs at least 4 points, got {n}")
    if not (0 < perplexity < (n - 1) / 3.0):
        raise NumericError(f"perplexity {perplexity} infeasible for n={n}")
    sq = np.sum(x * x, axis=1)
    x2 = 2.0 * x
    d2 = np.empty((n, n))
    sum_w = np.empty(n)
    d2_w = np.empty(n)  # row sums of d2 * w
    beta = np.ones(n)
    pieces = _row_pieces(n, 1)

    def distances(rows: slice) -> None:
        for piece, scratch in pieces(rows):
            d = d2[piece]
            np.add(sq[piece, None], sq[None, :], out=scratch)
            np.einsum("ik,jk->ij", x2[piece], x, out=d)
            np.subtract(scratch, d, out=d)
            np.maximum(d, 0.0, out=d)
            _zero_diagonal(d, piece.start)

    def weights(d: np.ndarray, rows: slice, out: np.ndarray) -> None:
        np.multiply(d, -beta[rows, None], out=out)
        np.exp(out, out=out)
        _zero_diagonal(out, rows.start)

    def affinities(rows: slice) -> None:
        for piece, w in pieces(rows):
            d = d2[piece]
            weights(d, piece, w)
            np.maximum(w.sum(axis=1), 1e-300, out=sum_w[piece])
            np.einsum("ij,ij->i", d, w, out=d2_w[piece])

    def normalise(rows: slice) -> None:
        w = d2[rows]
        weights(w, rows, w)
        np.divide(w, sum_w[rows, None], out=w)

    target_entropy = np.log(perplexity)
    beta_min = np.full(n, -np.inf)
    beta_max = np.full(n, np.inf)
    with _each_block(n) as run:
        run(distances)
        for _ in range(64):
            run(affinities)
            tried = beta
            entropy = np.log(sum_w) + beta * d2_w / sum_w
            diff = entropy - target_entropy
            too_high = diff > 0  # entropy too large -> increase precision
            beta_min = np.where(too_high, beta, beta_min)
            beta_max = np.where(~too_high, beta, beta_max)
            grow = too_high & np.isinf(beta_max)
            shrink = ~too_high & np.isinf(beta_min)
            beta = np.where(grow, beta * 2.0, np.where(shrink, beta / 2.0, (beta_min + beta_max) / 2.0))
            beta = np.where(np.isfinite(beta), beta, 1.0)
            if np.all(np.abs(diff) < 1e-7):
                break
        beta = tried  # the affinities of the last bandwidths tried, normalised
        run(normalise)
    return d2


def joint_affinities(f1: np.ndarray, perplexity: float) -> np.ndarray:
    """Symmetrized joint distribution P = (Pc + Pc.T) / 2n, floored away from
    0, formed in place over square tiles of Pc."""
    p = conditional_affinities(f1, perplexity)
    n = p.shape[0]
    for a in range(0, n, _PIECE_ROWS):
        rows = slice(a, a + _PIECE_ROWS)
        for b in range(a, n, _PIECE_ROWS):
            cols = slice(b, b + _PIECE_ROWS)
            upper, lower = p[rows, cols], p[cols, rows]
            if a == b:
                upper[...] = upper + lower.T  # the tile is its own mirror: sum into a copy first
            else:
                upper += lower.T
                lower[...] = upper.T
    p /= 2.0 * n
    return np.maximum(p, _P_FLOOR, out=p)


def initial_embedding(n: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((n, 2)) * 1e-4


def reduce_to_plane(
    f1: np.ndarray,
    perplexity: float | None = TsneConfig.perplexity,
    iterations: int = TsneConfig.iterations,
    learning_rate: float = TsneConfig.learning_rate,
    seed: int = 0,
) -> np.ndarray:
    """Exact t-SNE to two dimensions.

    Gradient descent with momentum (0.5, then 0.8 after iteration 250),
    per-coordinate gain adaptation, and x12 early exaggeration ex for the
    first 100 iterations. P is the loop's only n x n buffer. Each iteration
    forms the Student-t kernel k = 1 / (1 + |y_i - y_j|^2), from coordinate
    differences, once, a piece of rows at a time in scratch that each worker
    thread keeps, and takes seven row sums of it in the same pass: sum k,
    sum p k, sum k^2, and the last two times y_j. With Z = sum k the force
    term (p - k / (Z ex)) k then gives the gradient (times 4 ex) from the
    row sums alone. Rows are worked in parallel blocks with no BLAS call, so
    the output depends on the inputs and the seed alone.
    """
    TsneConfig(perplexity, iterations, learning_rate)
    f1 = np.asarray(f1, dtype=np.float64)
    n = f1.shape[0]
    if perplexity is None:
        perplexity = default_perplexity(n)
    p = joint_affinities(f1, perplexity)

    y = initial_embedding(n, seed)
    update = np.zeros_like(y)
    gains = np.ones_like(y)
    num_rows = np.empty(n)
    pk_rows = np.empty((3, n))  # sum_j p_ij k_ij times 1, y_j0, y_j1
    kk_rows = np.empty((3, n))  # sum_j k_ij^2 times 1, y_j0, y_j1
    y0 = y1 = None  # set per iteration, read by the block steps
    pieces = _row_pieces(n, 2)

    def row_sums(f: np.ndarray, piece: slice, out: np.ndarray) -> None:
        out[0, piece] = f.sum(axis=1)
        np.einsum("ij,j->i", f, y0, out=out[1, piece])
        np.einsum("ij,j->i", f, y1, out=out[2, piece])

    def forces(rows: slice) -> None:
        for piece, k, f in pieces(rows):
            # y_j - y_i, squared: a broadcast copy and an in-place subtraction
            # beat one subtraction of two broadcast operands
            f[...] = y0
            np.subtract(f, y0[piece, None], out=f)
            np.multiply(f, f, out=f)
            np.add(f, 1.0, out=f)
            k[...] = y1
            np.subtract(k, y1[piece, None], out=k)
            np.multiply(k, k, out=k)
            np.add(f, k, out=k)
            np.divide(1.0, k, out=k)
            _zero_diagonal(k, piece.start)
            num_rows[piece] = k.sum(axis=1)
            np.multiply(p[piece], k, out=f)
            row_sums(f, piece, pk_rows)
            np.multiply(k, k, out=f)
            row_sums(f, piece, kk_rows)

    with _each_block(n) as run:
        for it in range(iterations):
            exaggeration = _EXAGGERATION if it < _EXAGGERATION_ITERS else 1.0
            y0 = np.ascontiguousarray(y[:, 0])
            y1 = np.ascontiguousarray(y[:, 1])
            run(forces)
            pq = pk_rows - kk_rows / (num_rows.sum() * exaggeration)  # sum_j (p - q / ex) k times 1, y_j
            grad = (4.0 * exaggeration) * (pq[0, :, None] * y - pq[1:].T)

            momentum = 0.5 if it < _MOMENTUM_SWITCH_ITER else 0.8
            same_sign = np.sign(grad) == np.sign(update)
            gains = np.where(same_sign, gains * 0.8, gains + 0.2)
            np.maximum(gains, 0.01, out=gains)
            update = momentum * update - learning_rate * gains * grad
            y = y + update
            y = y - y.mean(axis=0)
            if not np.all(np.isfinite(y)):
                raise NumericError(f"t-SNE diverged at iteration {it}")
    return y


# ---------------------------------------------------------------------------
# Integration and persistence.
# ---------------------------------------------------------------------------


def integrate_features(
    codes: np.ndarray,
    f2: np.ndarray | None,
    is_manufacturer: Sequence[bool],
) -> np.ndarray:
    """p x 3 node features: [type code, plane coords] for manufacturers (rows of
    f2 consumed in ascending manufacturer order), [type code, 0, 0] otherwise.
    Without f2 every row is [type code, 0, 0] (the no-feature-aggregation
    baseline)."""
    codes = np.asarray(codes)
    flags = np.asarray(is_manufacturer, dtype=bool)
    if codes.shape[0] != flags.shape[0]:
        raise DataError(f"codes/kinds length mismatch: {codes.shape[0]} vs {flags.shape[0]}")
    out = np.zeros((codes.shape[0], FEATURE_DIM), dtype=np.float64)
    out[:, 0] = codes
    if f2 is not None:
        f2 = np.asarray(f2, dtype=np.float64)
        n_manu = int(flags.sum())
        if f2.shape != (n_manu, 2):
            raise DataError(f"plane embedding shape {f2.shape} does not match {n_manu} manufacturers")
        out[flags, 1:] = f2
    return out


def save_matrix(matrix: np.ndarray, path: Path | str) -> None:
    """Self-describing binary matrix: magic, dims, element width, row-major float64."""
    m = np.ascontiguousarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise DataError(f"expected a 2-d matrix, got shape {m.shape}")
    with Path(path).open("wb") as fh:
        fh.write(_MATRIX_MAGIC)
        fh.write(struct.pack("<III", m.shape[0], m.shape[1], 8))
        fh.write(m.tobytes())


def load_matrix(path: Path | str) -> np.ndarray:
    with Path(path).open("rb") as fh:
        magic = fh.read(4)
        if magic != _MATRIX_MAGIC:
            raise DataError(f"{path}: not a capgraph matrix file")
        rows, cols, width = struct.unpack("<III", read_exact(fh, 12, f"{path}: truncated matrix header"))
        if width != 8:
            raise DataError(f"{path}: unsupported element width {width}")
        payload = read_exact(fh, rows * cols * 8, f"{path}: truncated matrix payload")
    matrix = np.frombuffer(payload, dtype=np.float64)
    if not np.isfinite(matrix).all():
        raise DataError(f"{path}: matrix holds a NaN or infinite value")
    return matrix.reshape(rows, cols).copy()
