"""Sec. 5.2.1 harness: quality robustness to the sub-space partitioning.

Builds several HD-Indexes under uniformly random dimension partitionings,
queries each, and reports mean ± std of MAP@10 — the paper's evidence that
contiguous partitioning loses nothing (SIFT10K 0.974±0.002 etc.).
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import SparkSession

from repro.baselines.linear_scan import bruteforce_topk
from repro.core.build import build_hd_index
from repro.core.params import HDIndexParams
from repro.core.query import knn_query
from repro.metrics import map_at_k, ranked_lists

__all__ = ["random_partitioning_study"]


def random_partitioning_study(
    spark: SparkSession,
    df,
    X: np.ndarray,
    Q: np.ndarray,
    base_params: HDIndexParams,
    *,
    n_trials: int = 5,
    k: int = 10,
) -> dict:
    """MAP@k under ``n_trials`` random partitionings + the contiguous one."""
    truth = bruteforce_topk(X, Q, k)
    t_ids, _ = ranked_lists(truth, len(Q))

    def one(scheme: str, seed: int) -> float:
        p = HDIndexParams(
            nu=base_params.nu,
            domain_lo=base_params.domain_lo,
            domain_hi=base_params.domain_hi,
            tau=base_params.tau,
            omega=base_params.omega,
            m=base_params.m,
            alpha=base_params.alpha,
            gamma=base_params.gamma,
            partition_scheme=scheme,
            seed=seed,
        )
        idx = build_hd_index(spark, df, p)
        res = knn_query(idx, Q, k, filters="tri")
        g_ids, _ = ranked_lists(res, len(Q))
        return map_at_k(g_ids, t_ids, k)

    random_maps = [one("random", s) for s in range(1, n_trials + 1)]
    return {
        "contiguous_map": one("contiguous", 0),
        "random_maps": random_maps,
        "random_mean": float(np.mean(random_maps)),
        "random_std": float(np.std(random_maps)),
    }
