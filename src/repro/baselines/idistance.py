"""iDistance (Yu, Ooi, Tan, Jagadish; VLDB 2001) — the exact baseline.

Every point o belongs to the partition of its nearest of C cluster
reference points c_i and is keyed by ``cdist = d(o, c_i)``; inside
partition i the paper's B+-tree orders points by that key. For a query q,
the ring distance ``lb = |d(q, c_i) - cdist|`` is iDistance's key distance
and, by the triangle inequality, a lower bound on d(q, o): a ring of radius
r around d(q, c_i) holds every point of partition i within r of q.

The paper grows r round by round until the k-th exact distance is <= r.
Here all rings are walked in one ``mapInPandas`` pass over the keyed table:
the queries and their exact distances to the centres are broadcast, and for
each Arrow batch and each query the kernel visits the batch's rows in
ascending lb, scores them with ``repro.dist.euclidean`` in chunks that grow
from k, and stops once the next row's lb is strictly greater than its k-th
exact distance by (dist, id). Every skipped row is then strictly farther
than k rows of the same batch, so the batch's local top k is exact, ties at
the k-th distance included; ``query.top_k`` merges the local lists on the
driver. The pass is one Spark job per query batch.

Distances follow ``repro.dist``'s rule: ``cdist``, the query-to-centre
distances and the scores are exact (``euclidean``), so the bound holds to
rounding; only the build's nearest-centre argmin uses the block form. As in
the paper, iDistance degenerates toward a full scan in high dimensions
(every ring quickly covers every partition), which is exactly the
inefficiency HD-Index's Table 5 reports.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.types import DoubleType, LongType, StructField, StructType

from repro.baselines.kmeans import kmeans
from repro.core.build import sample_vectors
from repro.core.query import DIST_SCHEMA, check_batch, empty_result, top_k
from repro.dist import block_dists, euclidean

__all__ = ["IDistanceIndex", "build_idistance", "knn_idistance"]

_SAMPLE_CAP = 4096

@dataclass
class IDistanceIndex:
    centers: np.ndarray  # (C, nu)
    keyed: DataFrame  # (id, vec, center_id, cdist)


def build_idistance(
    spark: SparkSession,
    data: DataFrame,
    *,
    n_centers: int = 16,
    seed: int = 0,
) -> IDistanceIndex:
    """Cluster-based reference points (the paper's recommended variant) and
    the table keyed by (centre, distance to it)."""
    n = data.count()
    sample = sample_vectors(data, n, _SAMPLE_CAP, seed)
    centers, _ = kmeans(sample, min(n_centers, len(sample)), seed=seed)

    sc = spark.sparkContext
    b_c = sc.broadcast(centers)

    fields = data.schema.fields + [
        StructField("center_id", LongType()),
        StructField("cdist", DoubleType()),
    ]

    def assign(batches):
        C = b_c.value
        for pdf in batches:
            if pdf.empty:
                continue
            X = np.vstack(pdf["vec"].to_numpy())
            center_id = block_dists(X, C).argmin(1)
            out = pdf.copy()
            out["center_id"] = center_id.astype(np.int64)
            out["cdist"] = euclidean(X, C[center_id])
            yield out

    keyed = data.mapInPandas(assign, StructType(fields)).persist()
    keyed.count()
    return IDistanceIndex(centers, keyed)


def _ring_topk(X: np.ndarray, ids: np.ndarray, lb: np.ndarray, q: np.ndarray, k: int):
    """Rows (batch positions) and exact distances of the k rows of ``X``
    nearest to ``q`` by (dist, id). Rows are scored in ascending ``lb``, a
    lower bound on their distance, in chunks of k, 2k, 4k, ..., until the
    next row's bound exceeds the k-th distance scored so far."""
    order = np.argsort(lb)
    dists = []
    seen, step = 0, k
    while seen < len(order):
        dists.append(euclidean(X[order[seen : seen + step]], q))
        seen = min(seen + step, len(order))
        step *= 2
        if seen < len(order):  # so seen >= k
            kth = np.partition(np.concatenate(dists), k - 1)[k - 1]
            if lb[order[seen]] > kth:
                break
    rows, d = order[:seen], np.concatenate(dists)
    best = np.lexsort((ids[rows], d))[:k]
    return rows[best], d[best]


def knn_idistance(index: IDistanceIndex, queries: np.ndarray, k: int) -> pd.DataFrame:
    """Exact kNN by one ring-ordered pass. Returns (qid, rank, id, dist)."""
    queries = check_batch(queries, index.centers.shape[1], k)
    if len(queries) == 0:
        return empty_result()
    sc = index.keyed.sparkSession.sparkContext
    b_q = sc.broadcast((queries, euclidean(queries[:, None], index.centers)))

    def local_topk(batches):
        Q, QC = b_q.value  # queries (Q, nu) and their centre distances (Q, C)
        for pdf in batches:
            if pdf.empty:
                continue
            X = np.vstack(pdf["vec"].to_numpy())
            ids = pdf["id"].to_numpy()
            lb = np.abs(QC[:, pdf["center_id"].to_numpy()] - pdf["cdist"].to_numpy())
            rows, d = zip(*(_ring_topk(X, ids, lb[qid], q, k) for qid, q in enumerate(Q)))
            yield pd.DataFrame(
                {
                    "qid": np.repeat(np.arange(len(Q)), min(k, len(X))),
                    "id": ids[np.concatenate(rows)],
                    "dist": np.concatenate(d),
                }
            )

    partials = (
        index.keyed.select("id", "vec", "center_id", "cdist")
        .mapInPandas(local_topk, DIST_SCHEMA)
        .toPandas()
    )
    return top_k(partials, k)
