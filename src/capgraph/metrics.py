"""Ranking metrics for imbalanced binary classification.

Both metrics depend only on the score ordering: auc_roc is the
Mann-Whitney statistic (ties count one half), auc_pr is step-wise
average precision with tie groups collapsed to the precision at the
end of each group.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, NumericError


def _validate(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if s.shape != y.shape or s.ndim != 1:
        raise DataError(f"scores/labels shape mismatch: {s.shape} vs {y.shape}")
    if np.isnan(s).any():  # NaN equals nothing, so it would belong to no tie group
        raise NumericError(f"{np.count_nonzero(np.isnan(s))} of {s.size} scores are NaN")
    npos = int(np.count_nonzero(y == 1))
    if npos == 0 or npos == y.size:
        raise DataError("single-class input: both classes required")
    return s, y


def _tie_groups(sorted_scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(starts, ends): the half-open index ranges of the runs of equal scores."""
    starts = np.flatnonzero(np.concatenate([[True], sorted_scores[1:] != sorted_scores[:-1]]))
    return starts, np.append(starts[1:], sorted_scores.size)


def auc_roc(scores, labels) -> float:
    """(#concordant pairs + 0.5 * ties) / (#pos * #neg) via average ranks."""
    s, y = _validate(scores, labels)
    order = np.argsort(s, kind="stable")
    starts, ends = _tie_groups(s[order])
    ranks = np.empty(s.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + 1 + ends), ends - starts)  # average 1-based rank of each tie group
    npos = int(np.count_nonzero(y == 1))
    nneg = y.size - npos
    rank_sum = float(ranks[y == 1].sum())
    return (rank_sum - npos * (npos + 1) / 2.0) / (npos * nneg)


def auc_pr(scores, labels) -> float:
    """Average precision over positives in score-descending order.

    Ties keep stable input order; every positive in a tie group contributes
    the precision at the end of its group, so constant scores yield the
    positive prevalence.
    """
    s, y = _validate(scores, labels)
    order = np.argsort(-s, kind="stable")
    _, ends = _tie_groups(s[order])
    cum_tp = np.cumsum(y[order])[ends - 1]  # true positives up to each group's end
    group_pos = np.diff(cum_tp, prepend=0)
    terms = (group_pos * (cum_tp / ends))[group_pos != 0]  # precision at group end
    return float(np.cumsum(terms)[-1]) / int(cum_tp[-1])  # summed in order, as a running total
