"""Shared pieces of the projection baselines (C2LSH, QALSH, SRS).

``project`` stores every point's projections ``vec @ A.T``; QALSH and SRS
index exactly that table. ``bucket_width`` is the one w rule of C2LSH and
QALSH (see its docstring).

``collision_search`` is the search loop of the collision-counting methods,
C2LSH and QALSH. Both virtually enlarge the search radius level by level
(R = 1, c, c^2, ...). At each level an object is *frequent* for a query
when it collides with the query in at least ``l = ceil(ALPHA_FRAC * m)`` of
the m hash functions; only the collision predicate differs, and each method
supplies it as a Spark job (``count_fn``). Newly frequent (qid, id) pairs
are scored by ``query.exact_dists`` on the driver, which reads only their
vectors, by id, from the index's vector store; the driver keeps a seen-set
per query, so no pair is checked twice. A query stops when (T1) k
candidates lie within distance c * R_dist, or (T2) the number of checked
candidates reaches the false-positive budget beta*n + k. The kept
candidates of all queries are ranked by ``query.top_k``.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, functions as F
from pyspark.sql.types import ArrayType, DoubleType, LongType, StructField, StructType

from repro.core.build import VectorStore
from repro.core.query import empty_result, exact_dists, top_k

__all__ = ["ALPHA_FRAC", "PAIR_SCHEMA", "project", "bucket_width", "collision_search"]

ALPHA_FRAC = 0.6  # collision threshold l = ceil(ALPHA_FRAC * m)
_C = 2.0  # approximation ratio c; the virtual radius grows by c per level
_MAX_LEVELS = 24  # radius levels searched at most: R up to c^23

_WIDTH_SAMPLE = 512

# The frequent (qid, id) pairs a ``count_fn`` pass returns.
PAIR_SCHEMA = StructType([StructField("qid", LongType()), StructField("id", LongType())])


def project(data: DataFrame, A: np.ndarray) -> DataFrame:
    """``(id, p)`` with ``p = vec @ A.T`` for every row of ``data``,
    persisted and materialised."""
    b_A = data.sparkSession.sparkContext.broadcast(A)

    @F.pandas_udf(ArrayType(DoubleType()))
    def proj_udf(vec: pd.Series) -> pd.Series:
        X = np.vstack(vec.to_numpy())
        return pd.Series(list(X @ b_A.value.T))

    projected = data.select("id", proj_udf("vec").alias("p")).persist()
    projected.count()
    return projected


def bucket_width(store: VectorStore, A: np.ndarray) -> float:
    """The bucket width w of C2LSH and QALSH: the median over the m functions
    of the projection spread (std) of the 512 lowest ids, divided by 16, so
    the first level is fine-grained for any domain; 1.0 if that is 0. The
    paper uses w = 1 on integer-scaled data."""
    P = store.vecs[:_WIDTH_SAMPLE] @ A.T
    return float(np.median(P.std(axis=0))) / 16.0 or 1.0


def collision_search(
    store: VectorStore,
    queries: np.ndarray,
    k: int,
    *,
    count_fn,
    radius_unit: float,
    cap: int,
) -> pd.DataFrame:
    """Virtual-rehashing search loop shared by C2LSH and QALSH.

    ``count_fn(R, active_qids) -> pd.DataFrame(qid, id)`` returns the
    frequent pairs at level R (R is the virtual radius multiplier, so the
    distance scale of level R is ``radius_unit * R``).
    Returns (qid, rank, id, dist), rank 1-based.
    """
    nq = len(queries)
    seen: list[set] = [set() for _ in range(nq)]
    best = [empty_result().drop(columns="rank")] * nq  # each <= k, by (dist, id)
    done = [False] * nq
    R = 1.0
    for _ in range(_MAX_LEVELS):
        active = [q for q in range(nq) if not done[q]]
        if not active:
            break
        freq = count_fn(R, active)
        if len(freq):
            freq = freq[
                [i not in seen[q] for q, i in zip(freq["qid"], freq["id"])]
            ]
        dists = exact_dists(store, freq, queries)
        for q in active:
            mine = dists[dists["qid"] == q]
            if len(mine):
                seen[q].update(mine["id"].tolist())
                best[q] = (
                    pd.concat([best[q], mine])
                    .sort_values(["dist", "id"], kind="mergesort")
                    .head(k)
                )
            t1 = len(best[q]) >= k and best[q]["dist"].iloc[-1] <= _C * R * radius_unit
            t2 = len(seen[q]) >= cap
            if t1 or t2:
                done[q] = True
        R *= _C
    return top_k(pd.concat(best, ignore_index=True), k)
