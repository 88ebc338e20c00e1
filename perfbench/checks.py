"""Per-operation correctness gates for the benchmark.

A query operation passes only if every query gets exactly k rows with ranks
1..k, unique ids in [0, n), non-decreasing distances, and distances equal to
the exact ||q - X[id]|| within 1e-9 relative. A build operation passes only
if every tree holds n rows in dense leaves of at most Omega slots whose key
fences are ordered. The run-level MAP@100 floor is checked by the caller.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

__all__ = ["check_query", "check_build", "short_results", "MAP_FLOOR", "REL_TOL"]

# The `hdindex` MAP@100 floor of benchmarks/bench_table5.py.
MAP_FLOOR = 0.85
REL_TOL = 1e-9


def short_results(res: pd.DataFrame, n_queries: int, k: int) -> int:
    """Queries answered with fewer than k rows."""
    counts = res.groupby("qid").size().reindex(range(n_queries), fill_value=0)
    return int((counts < k).sum())


def check_query(res: pd.DataFrame, X: np.ndarray, Q: np.ndarray, k: int) -> list[str]:
    """Problems found in one ``knn_query`` result; empty when it is correct."""
    n, nq = len(X), len(Q)
    problems = []
    if not {"qid", "rank", "id", "dist"} <= set(res.columns):
        return [f"result columns {sorted(res.columns)}"]
    res = res.sort_values(["qid", "rank"], kind="stable")
    qids = res["qid"].to_numpy()
    if len(res) != nq * k or not np.array_equal(qids, np.repeat(np.arange(nq), k)):
        problems.append(f"expected {k} rows for each of {nq} queries, got {len(res)} rows")
        return problems
    ranks = res["rank"].to_numpy().reshape(nq, k)
    if not (ranks == np.arange(1, k + 1)[None, :]).all():
        problems.append("ranks are not 1..k")
    ids = res["id"].to_numpy().astype(np.int64)
    if ids.min() < 0 or ids.max() >= n:
        problems.append("ids outside [0, n)")
        return problems
    per_q = ids.reshape(nq, k)
    if any(len(np.unique(row)) != k for row in per_q):
        problems.append("duplicate ids within a query")
    dist = res["dist"].to_numpy().reshape(nq, k)
    if (np.diff(dist, axis=1) < 0).any():
        problems.append("distances decrease")
    exact = np.sqrt(((X[per_q] - Q[:, None, :]) ** 2).sum(-1))
    if (np.abs(dist - exact) > REL_TOL * np.maximum(exact, 1.0)).any():
        problems.append("distances differ from ||q - X[id]||")
    return problems


def check_build(index, n: int) -> list[str]:
    """Problems found in one built index; empty when it is well formed."""
    problems = []
    omega = index.params.leaf_order
    for t, (tree, hier) in enumerate(zip(index.trees, index.hierarchies)):
        rows = tree.count()
        if rows != n:
            problems.append(f"tree {t}: {rows} rows, expected {n}")
        f = hier.fences
        if not np.array_equal(f["leaf_id"].to_numpy(), np.arange(len(f))):
            problems.append(f"tree {t}: leaf ids are not dense")
        if int(f["count"].max()) > omega:
            problems.append(f"tree {t}: a leaf holds more than {omega} slots")
        if int(f["count"].sum()) != n:
            problems.append(f"tree {t}: leaves hold {int(f['count'].sum())} slots, expected {n}")
        mx, mn = f["max_key"].tolist(), f["min_key"].tolist()
        if any(mx[i] > mn[i + 1] for i in range(len(f) - 1)):
            problems.append(f"tree {t}: leaf fences are out of key order")
    return problems
