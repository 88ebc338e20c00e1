#!/usr/bin/env python
"""Run a kANN query batch through HD-Index on a registered dataset.

Usage: spark-submit jobs/query_hd_index.py --dataset sift10k [--k 100]
       [--filters tri|both|none]
Builds in memory (use build_hd_index.py for the persisted form), queries the
spec's query batch, and prints per-query latency, MAP against brute force,
mean kappa (distinct candidates re-ranked per query) and the number of
queries that returned fewer than k rows.
"""
import argparse
import sys
import time

sys.path.insert(0, "jobs")
from _session import get_spark  # noqa: E402

from repro.baselines.linear_scan import bruteforce_topk  # noqa: E402
from repro.core.build import build_hd_index  # noqa: E402
from repro.core.query import knn_query  # noqa: E402
from repro.harness.datasets import TABLE5_DATASETS, load_xq  # noqa: E402
from repro.harness.table5 import hd_params_for  # noqa: E402
from repro.metrics import map_at_k, ranked_lists  # noqa: E402
from repro.synth_data import vectors_df  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--dataset", required=True)
    ap.add_argument("--k", type=int, default=100)
    ap.add_argument("--filters", default="tri", choices=["tri", "both", "none"])
    args = ap.parse_args()
    spec = next(s for s in TABLE5_DATASETS if s.name == args.dataset)
    spark = get_spark(f"query-hdindex-{spec.name}")
    X, Q = load_xq(spec)
    idx = build_hd_index(spark, vectors_df(spark, X), hd_params_for(spec))
    t0 = time.perf_counter()
    res, stats = knn_query(idx, Q, args.k, filters=args.filters, return_stats=True)
    dt = time.perf_counter() - t0
    truth = bruteforce_topk(X, Q, args.k)
    t_ids, _ = ranked_lists(truth, len(Q))
    g_ids, _ = ranked_lists(res, len(Q))
    print(
        f"{spec.name}: {1000*dt/len(Q):.1f} ms/query, "
        f"MAP@{args.k} = {map_at_k(g_ids, t_ids, args.k):.3f} (filters={args.filters}), "
        f"mean kappa = {stats['mean_kappa']:.1f}, "
        f"short results = {stats['short_results']}/{len(Q)}"
    )
    spark.stop()


if __name__ == "__main__":
    main()
