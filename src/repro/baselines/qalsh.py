"""QALSH (Huang, Feng, Zhang, Fang, Ng; PVLDB 2015) — query-aware LSH.

Unlike C2LSH, the hash keeps the raw projection a_j . o (no offset, no
rounding): the index is the unsorted ``(id, p)`` table of every point's m
projections (``lsh_common.project``), which each level scans in full where
the paper searches a B+-tree per hash. Buckets are defined only at query
time, *centred on the query*: o collides with q in function j at level R
iff |a_j.o - a_j.q| <= w*R/2. Collision counting, exact checks and
termination are shared with C2LSH (``lsh_common.collision_search``), and so
are c, alpha and the w rule (``lsh_common.bucket_width``); the build learns
nu, n and w from its vector store. Query-centred buckets are why QALSH
reaches higher quality than C2LSH at the same budget — the shape Table 5
reports (QALSH MAP ~ HD-Index's, but much slower).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.baselines.lsh_common import (
    ALPHA_FRAC, PAIR_SCHEMA, bucket_width, collision_search, project,
)
from repro.core.build import VectorStore, vector_store
from repro.core.query import check_batch, empty_result

__all__ = ["QALSHIndex", "build_qalsh", "knn_qalsh"]


@dataclass
class QALSHIndex:
    A: np.ndarray  # (m, nu)
    w: float
    projected: DataFrame  # (id, p: array<double>)
    store: VectorStore  # the vectors by id, for the exact checks
    n: int


def build_qalsh(
    spark: SparkSession, data: DataFrame, *, m: int = 20, seed: int = 1
) -> QALSHIndex:
    store = vector_store(data)
    A = np.random.default_rng(seed).normal(0.0, 1.0, size=(m, store.vecs.shape[1]))
    return QALSHIndex(A, bucket_width(store, A), project(data, A), store, len(store.ids))


def knn_qalsh(
    index: QALSHIndex,
    queries: np.ndarray,
    k: int,
    *,
    beta_n: int | None = None,
) -> pd.DataFrame:
    queries = check_batch(queries, index.store.vecs.shape[1], k)
    if len(queries) == 0:
        return empty_result()
    sc = index.projected.sparkSession.sparkContext
    m = index.A.shape[0]
    l = int(np.ceil(ALPHA_FRAC * m))
    cap = (beta_n if beta_n is not None else max(100, k)) + k

    QP = queries @ index.A.T  # (Q, m) query anchors
    b_qp = sc.broadcast(QP)
    w = index.w

    def count_fn(R, active):
        half = w * R / 2.0
        act = np.asarray(active, dtype=np.int64)

        def kernel(batches):
            qp = b_qp.value[act]  # (Qa, m)
            for pdf in batches:
                if pdf.empty:
                    continue
                P = np.vstack(pdf["p"].to_numpy())  # (b, m)
                counts = (
                    np.abs(P[:, None, :] - qp[None, :, :]) <= half
                ).sum(-1)
                rows_o, rows_q = np.nonzero(counts >= l)
                yield pd.DataFrame(
                    {"qid": act[rows_q], "id": pdf["id"].to_numpy()[rows_o]}
                )

        return index.projected.mapInPandas(kernel, PAIR_SCHEMA).toPandas()

    return collision_search(
        index.store,
        queries,
        k,
        count_fn=count_fn,
        radius_unit=index.w,
        cap=cap,
    )
