"""Quality metrics from Sec. 2.1: approximation ratio, AP@k, MAP@k.

The paper's central methodological argument is that approximation ratio
(Def. 1) loses meaning in high dimensions while MAP@k (Def. 3) keeps
discriminating; both are implemented so Table 5 and the Fig. 1/8-style
comparisons can report either.

Ground truth and retrieved sets are sequences of object ids in rank order.
Distances (for the ratio) are the true Euclidean distances from the query to
the retrieved and true neighbours respectively.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np
import pandas as pd

__all__ = [
    "average_precision_at_k", "map_at_k", "approximation_ratio", "recall_at_k",
    "ranked_lists",
]


def average_precision_at_k(retrieved: Sequence, truth: Sequence, k: int) -> float:
    """AP@k per Def. 2.

    For each rank i (1-based) over the first k retrieved items: if the item
    appears anywhere in the true top-k set, its precision is j/i where j is
    the number of relevant items among the first i; otherwise 0. AP is the
    mean of those k values. Reproduces the paper's Example 1 exactly
    (AP {o4,o3,o2} vs {o1,o2,o3} = 0.39; AP {o3,o2,o4} = 0.67).
    """
    if k <= 0:
        raise ValueError("k must be positive")
    true_set = set(truth[:k])
    hits = 0
    total = 0.0
    for i, item in enumerate(list(retrieved)[:k], start=1):
        if item in true_set:
            hits += 1
            total += hits / i
    return total / k


def map_at_k(retrieved_lists: Sequence[Sequence], truth_lists: Sequence[Sequence], k: int) -> float:
    """MAP@k per Def. 3: mean AP@k over queries."""
    if len(retrieved_lists) != len(truth_lists):
        raise ValueError("retrieved and truth must have one entry per query")
    if not retrieved_lists:
        raise ValueError("no queries")
    return float(
        np.mean(
            [
                average_precision_at_k(r, t, k)
                for r, t in zip(retrieved_lists, truth_lists)
            ]
        )
    )


def approximation_ratio(
    retrieved_dists: Sequence[float], true_dists: Sequence[float], k: int
) -> float:
    """Approximation ratio c per Def. 1: mean over ranks of d(q,o'_i)/d(q,o_i).

    Ranks where the true distance is zero (query is a database point) are
    skipped unless the retrieved distance is also zero (ratio 1), matching
    the convention used by the compared systems' released evaluators.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    rd = list(retrieved_dists)[:k]
    td = list(true_dists)[:k]
    if len(rd) < k or len(td) < k:
        raise ValueError("need k distances on both sides")
    ratios = []
    for r, t in zip(rd, td):
        if t == 0:
            ratios.append(1.0 if r == 0 else np.nan)
        else:
            ratios.append(r / t)
    ratios = [x for x in ratios if not np.isnan(x)]
    return float(np.mean(ratios)) if ratios else 1.0


def recall_at_k(retrieved: Sequence, truth: Sequence, k: int) -> float:
    """|retrieved@k ∩ truth@k| / k — used in tests as a coarse sanity floor."""
    return len(set(list(retrieved)[:k]) & set(list(truth)[:k])) / k


def ranked_lists(res: pd.DataFrame, nq: int) -> tuple[list, list]:
    """Per-query ``(ids, dists)`` lists in rank order for qids 0..nq-1, from a
    ``(qid, rank, id, dist)`` answer; a query with no rows gets empty lists."""
    ids, dists = [], []
    for qid in range(nq):
        g = res[res["qid"] == qid].sort_values("rank")
        ids.append(g["id"].tolist())
        dists.append(g["dist"].tolist())
    return ids, dists
