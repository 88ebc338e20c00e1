"""kANN querying over HD-Index (Algo 2) as a batched Spark dataflow.

For a batch of queries the three phases of the paper map onto:

1. **candidate retrieval** (``curve_candidates``, shared with the
   Multicurves baseline) — on the driver, each (query, tree) pair bisects
   the leaf fences to a centre leaf and widens to the smallest leaf window
   guaranteed to contain the alpha nearest-by-key entries; the exploded
   ``(tree_id, qid, leaf_id)`` probe set is broadcast-joined against the
   union of tree DataFrames, and each (tree, query) group keeps its alpha
   entries nearest by absolute Hilbert-key distance. The join reads every
   row of every tree: the windows bound what reaches the funnel, not what
   is scanned, so this is not yet the paper's O(log n + alpha/Omega) page
   reads. Probing metadata is tiny, hence the explicit ``broadcast`` hint
   (the session default disables broadcast joins).
2. **filter funnel** — in the same ``applyInPandas`` group, the triangular
   bound (Eq. 5) keeps beta and optionally the Ptolemaic bound (Eq. 6)
   keeps gamma — using only the leaf-resident reference distances, never
   the vectors, exactly the paper's I/O argument.
3. **exact re-rank** — the union of per-tree gamma-sets is deduplicated,
   equi-joined (shuffle path) with the base ``(id, vec)`` table, and a final
   grouped kernel computes true Euclidean distances and the top-k.

Returns a pandas DataFrame ``(qid, rank, id, dist)`` with rank 1-based.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import functions as F
from pyspark.sql.types import (
    DoubleType,
    LongType,
    StructField,
    StructType,
)

from repro.core.build import HDIndex, subspace_keys

__all__ = [
    "knn_query", "curve_candidates", "check_batch", "empty_result",
    "query_hilbert_keys", "triangular_bounds", "ptolemaic_bounds",
]


def query_hilbert_keys(index: HDIndex, queries: np.ndarray) -> list[np.ndarray]:
    """Hilbert key (hex) of every query in every tree's sub-space.

    ``index`` may be any curve index with ``.params``.
    """
    p = index.params
    return [subspace_keys(queries, dims, p) for dims in p.partitions]


def triangular_bounds(q_rdist: np.ndarray, o_rdist: np.ndarray) -> np.ndarray:
    """Eq. (5): max_i |d(q, R_i) - d(o, R_i)| for each object row.

    ``q_rdist``: (m,) query-to-reference distances; ``o_rdist``: (n, m).
    """
    return np.abs(o_rdist - q_rdist[None, :]).max(axis=1)


def ptolemaic_bounds(
    q_rdist: np.ndarray, o_rdist: np.ndarray, ref_pairwise: np.ndarray
) -> np.ndarray:
    """Eq. (6): max over reference pairs (i, j) of
    |d(q,R_i) d(o,R_j) - d(q,R_j) d(o,R_i)| / d(R_i, R_j).

    Degenerate pairs (coincident references) are skipped. O(n * m^2) as in
    the paper's cost model.
    """
    m = len(q_rdist)
    best = np.zeros(o_rdist.shape[0])
    for i in range(m):
        for j in range(i + 1, m):
            denom = ref_pairwise[i, j]
            if denom <= 0:
                continue
            lb = np.abs(q_rdist[i] * o_rdist[:, j] - q_rdist[j] * o_rdist[:, i]) / denom
            np.maximum(best, lb, out=best)
    return best


def check_batch(params, queries, k: int, alpha: int) -> np.ndarray:
    """The query batch as a float (Q, nu) array; ValueError on bad input."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != params.nu:
        raise ValueError(f"queries must be (Q, {params.nu}), got {queries.shape}")
    if not np.isfinite(queries).all():
        raise ValueError("queries must be finite")
    return queries


def empty_result() -> pd.DataFrame:
    """The ``(qid, rank, id, dist)`` answer to an empty query batch."""
    dtypes = {"qid": "int64", "rank": "int64", "id": "int64", "dist": "float64"}
    return pd.DataFrame({c: pd.Series(dtype=t) for c, t in dtypes.items()})


def _probe_frame(index, qkeys_per_tree, alpha: int) -> pd.DataFrame:
    """Driver-side leaf lookups: one row per (tree, qid, probed leaf)."""
    rows = []
    for t, (hier, qkeys) in enumerate(zip(index.hierarchies, qkeys_per_tree)):
        for qid, qk in enumerate(qkeys):
            centre = hier.lookup(qk)
            lo, hi = hier.window(centre, alpha)
            for leaf in range(lo, hi + 1):
                rows.append((t, qid, leaf))
    return pd.DataFrame(rows, columns=["tree_id", "qid", "leaf_id"])


def curve_candidates(index, queries: np.ndarray, alpha: int, payload: str, finish, schema):
    """The alpha entries nearest by Hilbert key, per (tree, query).

    The candidate stage shared by HD-Index and Multicurves. ``index`` has
    ``params``, ``trees`` and ``hierarchies``; ``queries`` is a batch that
    passed :func:`check_batch`. Each query's leaf window per tree is joined
    against the tree union, and each (tree, query) group keeps its alpha
    rows nearest by exact big-int ``|key - q|`` (stable, so ties keep join
    order). ``finish(qid, sel)`` maps those rows — columns ``tree_id, qid,
    id, hkey`` and ``payload`` — to the group's output rows of ``schema``.
    Returns the lazy ``applyInPandas`` DataFrame.
    """
    spark = index.trees[0].sparkSession
    qkeys_per_tree = query_hilbert_keys(index, queries)
    b_qkeys = spark.sparkContext.broadcast([list(a) for a in qkeys_per_tree])
    probe_df = spark.createDataFrame(_probe_frame(index, qkeys_per_tree, alpha))

    tree_union = None
    for t, tree in enumerate(index.trees):
        tdf = tree.withColumn("tree_id", F.lit(t))
        tree_union = tdf if tree_union is None else tree_union.unionByName(tdf)

    window_df = tree_union.join(
        F.broadcast(probe_df), on=["tree_id", "leaf_id"], how="inner"
    ).select("tree_id", "qid", "id", "hkey", payload)

    def nearest_by_key(key, pdf):
        tree_id, qid = int(key[0]), int(key[1])
        qk = int(b_qkeys.value[tree_id][qid], 16)
        # Key distances are exact big ints (keys can exceed 64 bits by far);
        # argsort over an object array compares them without precision loss.
        keydist = np.array(
            [abs(int(h, 16) - qk) for h in pdf["hkey"]], dtype=object
        )
        order = np.argsort(keydist, kind="stable")[:alpha]
        return finish(qid, pdf.iloc[order])

    return window_df.groupBy("tree_id", "qid").applyInPandas(nearest_by_key, schema=schema)


def knn_query(
    index: HDIndex,
    queries: np.ndarray,
    k: int,
    *,
    alpha: int | None = None,
    beta: int | None = None,
    gamma: int | None = None,
    filters: str = "tri",
    return_stats: bool = False,
):
    """Answer kANN for a batch of queries (Algo 2).

    ``filters``: 'tri' (recommended — triangular only, beta unused),
    'both' (triangular to beta then Ptolemaic to gamma), or
    'none' (all alpha candidates go to the exact phase; with alpha >= n this
    makes the query exact, used as a correctness oracle in tests).
    """
    p = index.params
    alpha = alpha if alpha is not None else p.alpha
    beta = beta if beta is not None else p.effective_beta
    gamma = gamma if gamma is not None else p.effective_gamma
    if filters not in ("tri", "both", "none"):
        raise ValueError(f"unknown filter mode {filters!r}")
    queries = check_batch(p, queries, k, alpha)
    if len(queries) == 0:
        result = empty_result()
        if return_stats:
            return result, {"mean_kappa": float("nan"), "alpha": alpha, "gamma": gamma}
        return result
    sc = index.base.sparkSession.sparkContext

    q_rdist = np.sqrt(
        np.maximum(
            ((queries[:, None, :] - index.ref_vectors[None, :, :]) ** 2).sum(-1), 0.0
        )
    )  # (Q, m)

    b_q = sc.broadcast(queries)
    b_qr = sc.broadcast(q_rdist)
    b_rr = sc.broadcast(index.ref_pairwise)

    cand_schema = StructType(
        [StructField("qid", LongType()), StructField("id", LongType())]
    )
    mode = filters

    def funnel(qid, sel):
        if mode != "none":
            o_rdist = np.vstack(sel["rdist"].to_numpy())
            qr = b_qr.value[qid]
            tri = triangular_bounds(qr, o_rdist)
            if mode == "tri":
                keep = np.argsort(tri, kind="stable")[:gamma]
                sel = sel.iloc[keep]
            else:
                keep_b = np.argsort(tri, kind="stable")[:beta]
                sel_b = sel.iloc[keep_b]
                pto = ptolemaic_bounds(
                    qr, o_rdist[keep_b], b_rr.value
                )
                keep_g = np.argsort(pto, kind="stable")[:gamma]
                sel = sel_b.iloc[keep_g]
        out = pd.DataFrame({"qid": qid, "id": sel["id"].to_numpy()})
        return out.astype({"qid": "int64", "id": "int64"})

    candidates = curve_candidates(
        index, queries, alpha, "rdist", funnel, cand_schema
    ).dropDuplicates(["qid", "id"])

    # --- exact re-rank over the candidate union C (kappa <= tau*gamma) ----
    joined = candidates.join(index.base, on="id", how="inner")

    res_schema = StructType(
        [
            StructField("qid", LongType()),
            StructField("rank", LongType()),
            StructField("id", LongType()),
            StructField("dist", DoubleType()),
        ]
    )

    def rerank(key, pdf):
        qid = int(key[0])
        q = b_q.value[qid]
        X = np.vstack(pdf["vec"].to_numpy())
        d = np.sqrt(np.maximum(((X - q[None, :]) ** 2).sum(-1), 0.0))
        order = np.lexsort((pdf["id"].to_numpy(), d))[:k]
        return pd.DataFrame(
            {
                "qid": qid,
                "rank": np.arange(1, len(order) + 1, dtype=np.int64),
                "id": pdf["id"].to_numpy()[order],
                "dist": d[order],
            }
        )

    result = (
        joined.groupBy("qid")
        .applyInPandas(rerank, schema=res_schema)
        .orderBy("qid", "rank")
        .toPandas()
    )

    if return_stats:
        kappa = (
            candidates.groupBy("qid").count().agg(F.avg("count")).collect()[0][0]
        )
        return result, {"mean_kappa": float(kappa), "alpha": alpha, "gamma": gamma}
    return result
