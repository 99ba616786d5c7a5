from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capgraph.errors import DataError, NumericError
from capgraph.metrics import _validate, auc_pr, auc_roc


def roc_oracle(scores, labels) -> float:
    """Pairwise enumeration: concordant pairs plus half-credit ties."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def ap_oracle(scores, labels) -> float:
    """Average precision by direct enumeration: stable descending order,
    each positive scored with the precision at the end of its tie group."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    total = 0.0
    n_pos = sum(labels)
    i = 0
    tp = 0
    while i < len(order):
        j = i
        group_pos = 0
        while j < len(order) and scores[order[j]] == scores[order[i]]:
            group_pos += labels[order[j]]
            j += 1
        tp += group_pos
        total += group_pos * tp / j
        i = j
    return total / n_pos


def loop_auc_roc(scores, labels) -> float:
    """The rank-based AUC-ROC with tie groups found by a per-score scan."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    order = np.argsort(s, kind="stable")
    ranks = np.empty(s.size, dtype=np.float64)
    sorted_scores = s[order]
    i = 0
    while i < s.size:
        j = i
        while j < s.size and sorted_scores[j] == sorted_scores[i]:
            j += 1
        ranks[order[i:j]] = 0.5 * (i + 1 + j)
        i = j
    npos = int(np.count_nonzero(y == 1))
    nneg = y.size - npos
    rank_sum = float(ranks[y == 1].sum())
    return (rank_sum - npos * (npos + 1) / 2.0) / (npos * nneg)


def loop_auc_pr(scores, labels) -> float:
    """Average precision with tie groups found by a per-score scan and the
    group terms added to a running total."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    order = np.argsort(-s, kind="stable")
    sorted_scores = s[order]
    cum_tp = np.cumsum(y[order])
    npos = int(cum_tp[-1])
    total = 0.0
    i = 0
    while i < s.size:
        j = i
        while j < s.size and sorted_scores[j] == sorted_scores[i]:
            j += 1
        group_pos = int(cum_tp[j - 1] - (cum_tp[i - 1] if i else 0))
        if group_pos:
            total += group_pos * (float(cum_tp[j - 1]) / j)
        i = j
    return total / npos


def test_roc_perfect_separation():
    assert auc_roc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0


def test_roc_hand_enumeration():
    # pos {0.4, 0.8}, neg {0.5, 0.1}: concordant pairs 3 of 4
    assert auc_roc([0.4, 0.8, 0.5, 0.1], [1, 1, 0, 0]) == pytest.approx(0.75)


def test_roc_single_tied_pair():
    assert auc_roc([0.5, 0.5], [1, 0]) == pytest.approx(0.5)


def test_pr_perfect_separation():
    assert auc_pr([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0


def test_pr_positive_at_rank_two():
    assert auc_pr([0.2, 0.9], [1, 0]) == pytest.approx(0.5)


def test_pr_constant_scores_equal_prevalence():
    labels = [1, 0, 0, 1, 0]
    assert auc_pr([0.3] * 5, labels) == pytest.approx(sum(labels) / len(labels))


def test_single_class_rejected():
    with pytest.raises(DataError, match="single-class"):
        auc_roc([0.1, 0.2], [1, 1])
    with pytest.raises(DataError, match="single-class"):
        auc_pr([0.1, 0.2], [0, 0])


def _random_case(rng: np.random.Generator):
    n = int(rng.integers(2, 13))
    labels = rng.integers(0, 2, size=n)
    if labels.sum() == 0:
        labels[int(rng.integers(n))] = 1
    if labels.sum() == n:
        labels[int(rng.integers(n))] = 0
    # coarse grid of score values forces plenty of ties
    scores = rng.choice([0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0], size=n)
    return scores, labels


def test_exhaustive_small_cases_match_oracles():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        scores, labels = _random_case(rng)
        assert auc_roc(scores, labels) == pytest.approx(roc_oracle(scores, labels), abs=1e-12)
        assert auc_pr(scores, labels) == pytest.approx(ap_oracle(list(scores), list(labels)), abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_monotone_transform_invariance(data):
    n = data.draw(st.integers(3, 10))
    labels = data.draw(
        st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(
            lambda ls: 0 < sum(ls) < len(ls)
        )
    )
    scores = data.draw(st.lists(st.sampled_from([0.0, 0.2, 0.5, 0.7, 1.0]), min_size=n, max_size=n))
    transformed = [3.0 * s + 1.0 for s in scores]  # strictly monotone
    assert auc_roc(scores, labels) == pytest.approx(auc_roc(transformed, labels), abs=1e-12)
    assert auc_pr(scores, labels) == pytest.approx(auc_pr(transformed, labels), abs=1e-12)
    exp = [float(np.exp(s)) for s in scores]
    assert auc_roc(scores, labels) == pytest.approx(auc_roc(exp, labels), abs=1e-12)


@st.composite
def _tied_cases(draw):
    """Scores drawn from a pool of at most 6 values (signed zeros and
    infinities allowed), so most scores share a tie group, and labels with
    both classes."""
    pool = draw(st.lists(
        st.floats(allow_nan=False) | st.sampled_from([0.0, -0.0, np.inf, -np.inf, 5e-324]),
        min_size=1, max_size=6,
    ))
    n = draw(st.integers(2, 300))
    scores = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(lambda ls: 0 < sum(ls) < len(ls)))
    return scores, labels


@settings(max_examples=300, deadline=None)
@given(_tied_cases())
def test_vectorised_tie_groups_equal_the_loops(case):
    scores, labels = case
    assert auc_roc(scores, labels) == loop_auc_roc(scores, labels)
    assert auc_pr(scores, labels) == loop_auc_pr(scores, labels)


def test_vectorised_tie_groups_equal_the_loops_on_long_inputs():
    rng = np.random.default_rng(14)
    for n in (824, 5000):
        labels = rng.integers(0, 2, size=n)
        for scores in (rng.random(n), rng.integers(0, 40, size=n) / 7.0):
            assert auc_roc(scores, labels) == loop_auc_roc(scores, labels)
            assert auc_pr(scores, labels) == loop_auc_pr(scores, labels)


def test_nan_score_is_a_numeric_error():
    # NaN equals no score, so it would belong to no tie group; both metrics
    # validate through `_validate`, which is called alone here
    with pytest.raises(NumericError, match="1 of 3 scores are NaN"):
        _validate([0.2, np.nan, 0.7], [1, 0, 1])
