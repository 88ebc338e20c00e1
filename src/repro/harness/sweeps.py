"""Parameter sweeps behind Figs. 5-7 (m, tau, alpha, gamma, filter choice).

Figures are out of scope for this reproduction, but the query pipeline
exposes every knob, so the sweeps are one-liners for anyone re-deriving the
tuning conclusions of Sec. 5.2. Each function returns a list of dict rows.
"""
from __future__ import annotations

import time

import numpy as np
from pyspark.sql import SparkSession

from repro.baselines.linear_scan import bruteforce_topk
from repro.core.build import build_hd_index
from repro.core.params import HDIndexParams
from repro.core.query import knn_query
from repro.metrics import map_at_k, ranked_lists

__all__ = ["sweep_alpha", "sweep_filters"]


def _quality(res, truth, nq, k):
    return map_at_k(ranked_lists(res, nq)[0], ranked_lists(truth, nq)[0], k)


def sweep_alpha(
    index, X: np.ndarray, Q: np.ndarray, *, alphas=(512, 1024, 2048, 4096, 8192), k: int = 10
) -> list[dict]:
    """Fig. 7 shape: MAP and query time vs alpha (gamma = alpha/4)."""
    truth = bruteforce_topk(X, Q, k)
    rows = []
    for a in alphas:
        t0 = time.perf_counter()
        res = knn_query(index, Q, k, alpha=a, gamma=max(1, a // 4), filters="tri")
        dt = time.perf_counter() - t0
        rows.append({"alpha": a, "map": _quality(res, truth, len(Q), k), "query_s": dt})
    return rows


def sweep_filters(
    index, X: np.ndarray, Q: np.ndarray, *, alpha: int = 4096, k: int = 10
) -> list[dict]:
    """Sec. 5.2.5 shape: triangular-only vs triangular+Ptolemaic."""
    truth = bruteforce_topk(X, Q, k)
    rows = []
    for mode, beta, gamma in (
        ("tri", None, alpha // 4),
        ("both", alpha, alpha // 4),
    ):
        t0 = time.perf_counter()
        res = knn_query(index, Q, k, alpha=alpha, beta=beta, gamma=gamma, filters=mode)
        dt = time.perf_counter() - t0
        rows.append({"filters": mode, "map": _quality(res, truth, len(Q), k), "query_s": dt})
    return rows
