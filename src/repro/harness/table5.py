"""Table 5 harness: the paper's main comparative study.

For one dataset spec, builds every competing index, times the k=100 query
batch, computes MAP@100 and the approximation ratio against the exact
(brute-force) ground truth, and emits rows in the shape of the paper's
Table 5: HD-Index query time and MAP plus, per competitor, the gain of
HD-Index in query time (time_other / time_hd) and in MAP@100
(map_hd / map_other).

Caveats (DESIGN.md deviation #3): times are wall-clock over a local[*]
Spark batch, not cold-cache single-query disk I/O on 2013 hardware —
between-method *ratios* are the comparable quantity, absolute values are
not. OPQ and HNSW are in-memory methods (trained/built driver-side) and so
enjoy the same unfair running-time advantage the paper notes.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.baselines.c2lsh import build_c2lsh, knn_c2lsh
from repro.baselines.hnsw import HNSW, knn_hnsw
from repro.baselines.idistance import build_idistance, knn_idistance
from repro.baselines.linear_scan import bruteforce_topk, knn_linear_scan
from repro.baselines.multicurves import build_multicurves, knn_multicurves
from repro.baselines.opq import build_opq, knn_opq
from repro.baselines.qalsh import build_qalsh, knn_qalsh
from repro.baselines.srs import build_srs, knn_srs
from repro.core.build import build_hd_index
from repro.core.params import HDIndexParams
from repro.core.query import knn_query
from repro.harness.datasets import DatasetSpec, load_xq
from repro.metrics import approximation_ratio, map_at_k, ranked_lists
from repro.synth_data import vectors_df

__all__ = [
    "MethodResult", "run_method", "run_dataset", "format_table5_row", "ALL_METHODS", "METHODS",
]


@dataclass
class MethodResult:
    method: str
    build_s: float
    query_s: float
    query_ms_per_query: float
    map_k: float
    ratio: float


def _ratio_lenient(got_d, true_d, k):
    """Approximation ratio over the ranks a method actually returned (some
    LSH queries return < k candidates)."""
    kk = min(k, len(got_d), len(true_d))
    if kk == 0:
        return float("nan")
    return approximation_ratio(got_d[:kk], true_d[:kk], kk)


def hd_params_for(spec: DatasetSpec) -> HDIndexParams:
    return HDIndexParams(
        nu=spec.nu,
        domain_lo=spec.lo,
        domain_hi=spec.hi,
        tau=spec.tau,
        omega=spec.omega,
        m=10,
        alpha=min(spec.alpha, spec.n),
        gamma=min(spec.gamma, spec.n),
    )


# method -> (build(spark, df, X, spec) -> index, query(index, Q, k, spec) ->
# answer): the Table 5 settings of every method, shared by run_method and
# benchmarks/bench_table5.py. Linear scan has nothing to build.
METHODS = {
    "hdindex": (
        lambda spark, df, X, spec: build_hd_index(spark, df, hd_params_for(spec)),
        lambda idx, Q, k, spec: knn_query(idx, Q, k, filters="tri"),
    ),
    "c2lsh": (
        lambda spark, df, X, spec: build_c2lsh(spark, df, m=20),
        lambda idx, Q, k, spec: knn_c2lsh(idx, Q, k, beta_n=max(100, spec.n // 100)),
    ),
    "srs": (
        lambda spark, df, X, spec: build_srs(spark, df),
        lambda idx, Q, k, spec: knn_srs(
            idx, Q, k, t=0.00242, c=2.0, min_examined=max(400, 2 * k)
        ),
    ),
    "multicurves": (
        lambda spark, df, X, spec: build_multicurves(spark, df, hd_params_for(spec)),
        lambda idx, Q, k, spec: knn_multicurves(idx, Q, k, alpha=min(spec.alpha, spec.n)),
    ),
    "qalsh": (
        lambda spark, df, X, spec: build_qalsh(spark, df, m=20),
        lambda idx, Q, k, spec: knn_qalsh(idx, Q, k, beta_n=max(100, spec.n // 100)),
    ),
    "opq": (
        lambda spark, df, X, spec: build_opq(spark, df, M=2, ksub=256),
        lambda idx, Q, k, spec: knn_opq(idx, Q, k),
    ),
    "hnsw": (
        lambda spark, df, X, spec: HNSW(X, M=12, ef_construction=128),
        lambda idx, Q, k, spec: knn_hnsw(idx, Q, k, ef=256),
    ),
    "idistance": (
        lambda spark, df, X, spec: build_idistance(spark, df, n_centers=min(64, spec.n // 10)),
        lambda idx, Q, k, spec: knn_idistance(idx, Q, k),
    ),
    "linear": (
        lambda spark, df, X, spec: df,
        lambda df, Q, k, spec: knn_linear_scan(df, Q, k),
    ),
}

# HD-Index and its competitors; linear scan runs only when asked for.
ALL_METHODS = [m for m in METHODS if m != "linear"]


def run_method(
    spark: SparkSession,
    method: str,
    df,
    X: np.ndarray,
    Q: np.ndarray,
    spec: DatasetSpec,
    k: int,
) -> tuple[pd.DataFrame, float, float]:
    """(results, build_seconds, query_seconds) for one method."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    build, query = METHODS[method]
    t0 = time.perf_counter()
    index = build(spark, df, X, spec)
    t1 = time.perf_counter()
    res = query(index, Q, k, spec)
    t2 = time.perf_counter()
    return res, t1 - t0, t2 - t1


def run_dataset(
    spark: SparkSession,
    spec: DatasetSpec,
    *,
    methods: list[str] | None = None,
    k: int = 100,
) -> dict:
    """All methods on one dataset; returns {'spec', 'results': {m: MethodResult}}."""
    methods = methods or ALL_METHODS
    X, Q = load_xq(spec)
    df = vectors_df(spark, X).persist()
    df.count()

    truth = bruteforce_topk(X, Q, k)
    t_ids, t_dists = ranked_lists(truth, len(Q))

    results: dict[str, MethodResult] = {}
    for m in methods:
        res, b_s, q_s = run_method(spark, m, df, X, Q, spec, k)
        g_ids, g_dists = ranked_lists(res, len(Q))
        mp = map_at_k(g_ids, t_ids, k)
        ratios = [
            _ratio_lenient(gd, td, k) for gd, td in zip(g_dists, t_dists)
        ]
        ratios = [r for r in ratios if not np.isnan(r)]
        results[m] = MethodResult(
            method=m,
            build_s=b_s,
            query_s=q_s,
            query_ms_per_query=1000.0 * q_s / len(Q),
            map_k=mp,
            ratio=float(np.mean(ratios)) if ratios else float("nan"),
        )
    df.unpersist()
    return {"spec": spec, "k": k, "results": results}


def format_table5_row(run: dict) -> str:
    """One dataset's Table-5-shaped row block: HD-Index absolutes + gains."""
    spec, res = run["spec"], run["results"]
    hd = res.get("hdindex")
    lines = [
        f"== {spec.name} (paper: {spec.paper_name}, n={spec.n}, nu={spec.nu}, "
        f"Q={spec.n_queries}, k={run['k']}) =="
    ]
    if hd is None:
        lines.append("  (HD-Index not run)")
        return "\n".join(lines)
    lines.append(
        f"  HD-Index: query {hd.query_ms_per_query:.1f} ms/query, "
        f"MAP@{run['k']} = {hd.map_k:.3f}, ratio = {hd.ratio:.3f}, "
        f"build {hd.build_s:.1f}s"
    )
    for m, r in res.items():
        if m == "hdindex":
            continue
        tgain = r.query_s / hd.query_s if hd.query_s else float("nan")
        mgain = hd.map_k / r.map_k if r.map_k else float("inf")
        lines.append(
            f"  vs {m:12} time gain {tgain:8.2f}x   MAP gain {mgain:8.2f}x   "
            f"({r.query_ms_per_query:.1f} ms/q, MAP {r.map_k:.3f}, "
            f"ratio {r.ratio:.3f}, build {r.build_s:.1f}s)"
        )
    return "\n".join(lines)
