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
3. **exact re-rank** (``exact_dists``) — the per-tree gamma-sets (at most
   tau*gamma narrow ``(qid, id)`` rows per query) are collected and
   deduplicated on the driver, giving kappa candidates per query. The pairs
   and the query matrix are broadcast, one ``mapInPandas`` pass over the
   cached base ``(id, vec)`` table scores the pairs whose id each batch
   holds, and the driver keeps each query's top k by (dist, id). No join,
   no shuffle: only the scored ``(qid, id, dist)`` rows come back. The pass
   still moves all n base rows through Arrow, as the old shuffle join read
   and shuffled them.

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
from repro.dist import euclidean

__all__ = [
    "knn_query", "curve_candidates", "exact_dists", "top_k", "check_batch",
    "empty_result", "query_hilbert_keys", "triangular_bounds", "ptolemaic_bounds",
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


def _typed_empty(dtypes: dict) -> pd.DataFrame:
    return pd.DataFrame({c: pd.Series(dtype=t) for c, t in dtypes.items()})


def empty_result() -> pd.DataFrame:
    """The ``(qid, rank, id, dist)`` answer to an empty query batch."""
    return _typed_empty(
        {"qid": "int64", "rank": "int64", "id": "int64", "dist": "float64"}
    )


def top_k(dists: pd.DataFrame, k: int) -> pd.DataFrame:
    """Each query's k nearest ``(qid, id, dist)`` rows as ``(qid, rank, id,
    dist)``, ordered by qid then rank. Ids must be unique per query, so
    (dist, id) orders each query totally: ties go to the lower id. Every
    method's final ranking goes through here."""
    top = dists.sort_values(["qid", "dist", "id"]).groupby("qid").head(k)
    top.insert(1, "rank", top.groupby("qid").cumcount() + 1)
    return top.reset_index(drop=True)


_DIST_SCHEMA = StructType(
    [
        StructField("qid", LongType()),
        StructField("id", LongType()),
        StructField("dist", DoubleType()),
    ]
)


def exact_dists(base, pairs: pd.DataFrame, queries: np.ndarray) -> pd.DataFrame:
    """Exact Euclidean distance of each ``(qid, id)`` pair: ``(qid, id, dist)``.

    The one exact-distance kernel of HD-Index's re-rank and the C2LSH, QALSH,
    SRS and OPQ checks. ``base`` is the ``(id, vec)`` table with unique ids. The
    pairs and ``queries`` are broadcast, and one ``mapInPandas`` pass over
    ``base`` scores the pairs whose id each batch holds: no join, no
    shuffle. One row per input pair whose id is in ``base``, in no
    particular order.
    """
    if len(pairs) == 0:
        return _typed_empty({"qid": "int64", "id": "int64", "dist": "float64"})
    sc = base.sparkSession.sparkContext
    b = sc.broadcast(
        (
            pairs["qid"].to_numpy(dtype=np.int64),
            pairs["id"].to_numpy(dtype=np.int64),
            queries,
        )
    )

    def kernel(batches):
        pq, pid, Q = b.value
        for pdf in batches:
            ids = pdf["id"].to_numpy()
            if len(ids) == 0:
                continue
            # Each pair's row in this batch, found by bisecting the sorted ids.
            order = np.argsort(ids)
            pos = np.minimum(np.searchsorted(ids[order], pid), len(ids) - 1)
            rows = order[pos]
            hit = ids[rows] == pid
            if not hit.any():
                continue
            rows, qs = rows[hit], pq[hit]
            X = np.vstack(pdf["vec"].to_numpy()[rows])
            d = euclidean(X, Q[qs])
            yield pd.DataFrame({"qid": qs, "id": ids[rows], "dist": d})

    return base.select("id", "vec").mapInPandas(kernel, _DIST_SCHEMA).toPandas()


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
    The funnel sizes must satisfy gamma >= 1, gamma <= alpha in 'tri' mode
    and 1 <= gamma <= beta <= alpha in 'both' mode; else ValueError.

    ``return_stats=True`` also returns ``mean_kappa`` (distinct candidates
    per query), ``short_results`` (queries with fewer than k rows), and the
    alpha and gamma used; they come from the collected candidates, at no
    extra Spark cost.
    """
    p = index.params
    alpha = alpha if alpha is not None else p.alpha
    beta = beta if beta is not None else p.effective_beta
    gamma = gamma if gamma is not None else p.effective_gamma
    if filters not in ("tri", "both", "none"):
        raise ValueError(f"unknown filter mode {filters!r}")
    queries = check_batch(p, queries, k, alpha)
    if gamma < 1:
        raise ValueError(f"gamma must be >= 1, got {gamma}")
    if filters == "tri" and gamma > alpha:
        raise ValueError(f"need gamma <= alpha, got gamma={gamma}, alpha={alpha}")
    if filters == "both" and not gamma <= beta <= alpha:
        raise ValueError(
            f"need 1 <= gamma <= beta <= alpha, got {gamma}, {beta}, {alpha}"
        )
    if len(queries) == 0:
        result = empty_result()
        if return_stats:
            return result, {
                "mean_kappa": float("nan"), "short_results": 0,
                "alpha": alpha, "gamma": gamma,
            }
        return result
    sc = index.base.sparkSession.sparkContext

    b_qr = sc.broadcast(euclidean(queries[:, None], index.ref_vectors))  # (Q, m)
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

    pairs = (
        curve_candidates(index, queries, alpha, "rdist", funnel, cand_schema)
        .toPandas()
        .drop_duplicates()
    )

    # --- exact re-rank over the candidate union C (kappa <= tau*gamma) ----
    result = top_k(exact_dists(index.base, pairs, queries), k)

    if return_stats:
        rows = np.bincount(result["qid"], minlength=len(queries))
        return result, {
            "mean_kappa": float(pairs.groupby("qid").size().mean()),
            "short_results": int((rows < k).sum()),
            "alpha": alpha,
            "gamma": gamma,
        }
    return result
