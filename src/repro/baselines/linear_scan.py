"""Exact kNN by distributed linear scan — the ground-truth generator.

The paper uses linear scan both as the accuracy oracle (MAP/ratio ground
truth) and as the efficiency strawman iDistance degenerates to. Here it is
one ``mapInPandas`` pass: each Arrow batch scores every query of the
broadcast query matrix against its rows in ``repro.dist``'s block form,
keeps its own k nearest per query, and reports their exact
(``repro.dist.euclidean``) distances; the driver ranks those partials with
``query.top_k`` — O(n * nu) work, an O(batches * Q * k) merge. The reported
distances therefore equal ``bruteforce_topk``'s bit for bit, and a query
that is a base vector is at distance 0.0.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql.types import DoubleType, LongType, StructField, StructType

from repro.core.query import top_k
from repro.dist import block_dists, euclidean

__all__ = ["knn_linear_scan", "bruteforce_topk"]

_PARTIAL_SCHEMA = StructType(
    [
        StructField("qid", LongType()),
        StructField("id", LongType()),
        StructField("dist", DoubleType()),
    ]
)


def bruteforce_topk(X: np.ndarray, queries: np.ndarray, k: int) -> pd.DataFrame:
    """NumPy reference implementation: (qid, rank, id, dist), rank 1-based.

    Ties on distance are broken by ascending id — the convention every
    method in this repo follows so exact methods are comparable row-for-row.
    """
    rows = []
    for qid, q in enumerate(np.asarray(queries, dtype=np.float64)):
        d = np.sqrt(np.maximum(((X - q[None, :]) ** 2).sum(-1), 0.0))
        order = np.lexsort((np.arange(len(X)), d))[:k]
        for r, i in enumerate(order, start=1):
            rows.append((qid, r, int(i), float(d[i])))
    return pd.DataFrame(rows, columns=["qid", "rank", "id", "dist"])


def knn_linear_scan(data: DataFrame, queries: np.ndarray, k: int) -> pd.DataFrame:
    """Exact kNN of every query against ``data`` (id, vec) via full scan.

    Returns (qid, rank, id, dist) with rank 1-based, ties broken by id.
    """
    queries = np.asarray(queries, dtype=np.float64)
    sc = data.sparkSession.sparkContext
    b_q = sc.broadcast(queries)

    def local_topk(batches):
        for pdf in batches:
            if pdf.empty:
                continue
            X = np.vstack(pdf["vec"].to_numpy())
            ids = pdf["id"].to_numpy()
            Q = b_q.value
            d = block_dists(Q, X)  # (Q, b), only to choose each query's kk rows
            kk = min(k, d.shape[1])
            part = np.argpartition(d, kk - 1, axis=1)[:, :kk]
            yield pd.DataFrame(
                {
                    "qid": np.repeat(np.arange(len(Q)), kk),
                    "id": ids[part].ravel(),
                    "dist": euclidean(X[part], Q[:, None, :]).ravel(),
                }
            )

    partials = data.select("id", "vec").mapInPandas(local_topk, _PARTIAL_SCHEMA).toPandas()
    return top_k(partials, k)
