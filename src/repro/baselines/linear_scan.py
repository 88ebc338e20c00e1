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

import re

import numpy as np
import pandas as pd
from pyspark.errors import PythonException
from pyspark.sql import DataFrame

from repro.core.query import DIST_SCHEMA, check_batch, empty_result, smallest_per_query, top_k
from repro.dist import block_dists, euclidean

__all__ = ["knn_linear_scan", "bruteforce_topk"]

_WIDTH = "the data vectors have"  # the scan's width error, up to the widths


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
    The batch's width is taken from the batch itself: ``data`` carries no nu
    without a Spark job. The scan checks it against every Arrow batch of
    ``data`` instead, and a mismatch raises ValueError naming both widths.
    """
    queries = check_batch(queries, np.shape(queries)[-1] if np.ndim(queries) else 0, k)
    if len(queries) == 0:
        return empty_result()
    b_q = data.sparkSession.sparkContext.broadcast(queries)

    def local_topk(batches):
        for pdf in batches:
            if pdf.empty:
                continue
            X = np.vstack(pdf["vec"].to_numpy())
            Q = b_q.value
            if X.shape[1] != Q.shape[1]:
                raise ValueError(f"{_WIDTH} {X.shape[1]} dims, the queries {Q.shape[1]}")
            # the block form only chooses each query's k rows
            qid, rows = smallest_per_query(block_dists(Q, X), k)
            yield pd.DataFrame(
                {
                    "qid": qid,
                    "id": pdf["id"].to_numpy()[rows],
                    "dist": euclidean(X[rows], Q[qid]),
                }
            )

    try:
        partials = data.select("id", "vec").mapInPandas(local_topk, DIST_SCHEMA).toPandas()
    except PythonException as e:
        # The kernel's width error, raised again on the driver as itself.
        found = re.search(rf"ValueError: ({_WIDTH} \d+ dims, the queries \d+)", str(e))
        if found is None:
            raise
        raise ValueError(found.group(1)) from e
    return top_k(partials, k)
