"""QALSH (Huang, Feng, Zhang, Fang, Ng; PVLDB 2015) — query-aware LSH.

Unlike C2LSH, the hash keeps the raw projection a_j . o (no offset, no
rounding) — each function's values are stored sorted (the paper's B+-tree
per hash). Buckets are defined only at query time, *centred on the query*:
o collides with q in function j at level R iff |a_j.o - a_j.q| <= w*R/2.
Collision counting, exact checks and termination are shared with C2LSH
(``lsh_common.collision_search``). Query-centred buckets are why QALSH
reaches higher quality than C2LSH at the same budget — the shape Table 5
reports (QALSH MAP ~ HD-Index's, but much slower).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession, functions as F
from pyspark.sql.types import ArrayType, DoubleType, LongType, StructField, StructType

from repro.baselines.lsh_common import collision_search
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
    c: float
    alpha_frac: float


def build_qalsh(
    spark: SparkSession,
    data: DataFrame,
    *,
    m: int = 20,
    c: float = 2.0,
    w: float | None = None,
    alpha_frac: float = 0.6,
    seed: int = 1,
) -> QALSHIndex:
    rng = np.random.default_rng(seed)
    nu = len(data.select("vec").first()["vec"])
    A = rng.normal(0.0, 1.0, size=(m, nu))
    if w is None:
        sample = data.select("vec").limit(512).toPandas()
        P = np.vstack(sample["vec"].to_numpy()) @ A.T
        w = float(np.median(P.std(axis=0))) / 16.0 or 1.0

    sc = spark.sparkContext
    b_A = sc.broadcast(A)

    @F.pandas_udf(ArrayType(DoubleType()))
    def proj_udf(vec: pd.Series) -> pd.Series:
        X = np.vstack(vec.to_numpy())
        return pd.Series(list(X @ b_A.value.T))

    projected = data.select("id", proj_udf("vec").alias("p")).persist()
    n = projected.count()
    return QALSHIndex(A, w, projected, vector_store(data), n, c, alpha_frac)


def knn_qalsh(
    index: QALSHIndex,
    queries: np.ndarray,
    k: int,
    *,
    beta_n: int | None = None,
    max_levels: int = 24,
) -> pd.DataFrame:
    queries = check_batch(queries, index.store.vecs.shape[1], k)
    if len(queries) == 0:
        return empty_result()
    sc = index.projected.sparkSession.sparkContext
    m = index.A.shape[0]
    l = int(np.ceil(index.alpha_frac * m))
    cap = (beta_n if beta_n is not None else max(100, k)) + k

    QP = queries @ index.A.T  # (Q, m) query anchors
    b_qp = sc.broadcast(QP)
    w = index.w

    pair_schema = StructType(
        [StructField("qid", LongType()), StructField("id", LongType())]
    )

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

        return index.projected.mapInPandas(kernel, pair_schema).toPandas()

    return collision_search(
        index.store,
        queries,
        k,
        count_fn=count_fn,
        c=index.c,
        radius_unit=index.w,
        cap=cap,
        max_levels=max_levels,
    )
