"""C2LSH (Gan, Feng, Fang, Ng; SIGMOD 2012) — dynamic collision counting.

m p-stable hash functions h_j(o) = floor((a_j . o + b_j) / w) are computed
once at build time (the finest granularity). *Virtual rehashing* at search
level R merges buckets by floor-dividing the stored hash by R, so no
physical rehash ever happens. An object is frequent for q at level R when
its merged bucket equals q's in >= l = ceil(alpha_frac * m) functions.
The outer loop, exact checks and termination (k within c*R / false-positive
budget beta*n + k) live in ``lsh_common.collision_search``.

The paper runs C2LSH with c=2, w=1 on integer-scaled data and
beta = 100/n; here w is derived from the data's projection spread so the
first level is fine-grained for any domain (DESIGN.md deviation #5).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession, functions as F
from pyspark.sql.types import ArrayType, LongType, StructField, StructType

from repro.baselines.lsh_common import collision_search
from repro.core.build import VectorStore, vector_store
from repro.core.query import check_batch, empty_result

__all__ = ["C2LSHIndex", "build_c2lsh", "knn_c2lsh"]


@dataclass
class C2LSHIndex:
    A: np.ndarray  # (m, nu) p-stable projections
    b: np.ndarray  # (m,) offsets in [0, w)
    w: float  # bucket width (projection units)
    hashed: DataFrame  # (id, h: array<long>)
    store: VectorStore  # the vectors by id, for the exact checks
    n: int
    c: float
    alpha_frac: float


def build_c2lsh(
    spark: SparkSession,
    data: DataFrame,
    *,
    m: int = 20,
    c: float = 2.0,
    w: float | None = None,
    alpha_frac: float = 0.6,
    seed: int = 0,
) -> C2LSHIndex:
    rng = np.random.default_rng(seed)
    nu = len(data.select("vec").first()["vec"])
    A = rng.normal(0.0, 1.0, size=(m, nu))

    if w is None:
        # Fine-grained first level: 1/16 of the projection spread of a sample.
        sample = data.select("vec").limit(512).toPandas()
        P = np.vstack(sample["vec"].to_numpy()) @ A.T
        w = float(np.median(P.std(axis=0))) / 16.0 or 1.0
    b = rng.uniform(0.0, w, size=m)

    sc = spark.sparkContext
    b_A, b_b = sc.broadcast(A), sc.broadcast(b)
    wv = w

    @F.pandas_udf(ArrayType(LongType()))
    def hash_udf(vec: pd.Series) -> pd.Series:
        X = np.vstack(vec.to_numpy())
        H = np.floor((X @ b_A.value.T + b_b.value[None, :]) / wv).astype(np.int64)
        return pd.Series(list(H))

    hashed = data.select("id", hash_udf("vec").alias("h")).persist()
    n = hashed.count()
    return C2LSHIndex(A, b, w, hashed, vector_store(data), n, c, alpha_frac)


def knn_c2lsh(
    index: C2LSHIndex,
    queries: np.ndarray,
    k: int,
    *,
    beta_n: int | None = None,
    max_levels: int = 24,
) -> pd.DataFrame:
    """kANN by virtual rehashing + collision counting. (qid, rank, id, dist)."""
    queries = check_batch(queries, index.store.vecs.shape[1], k)
    if len(queries) == 0:
        return empty_result()
    sc = index.hashed.sparkSession.sparkContext
    m = index.A.shape[0]
    l = int(np.ceil(index.alpha_frac * m))
    cap = (beta_n if beta_n is not None else max(100, k)) + k

    QH = np.floor((queries @ index.A.T + index.b[None, :]) / index.w).astype(np.int64)
    b_qh = sc.broadcast(QH)

    pair_schema = StructType(
        [StructField("qid", LongType()), StructField("id", LongType())]
    )

    def count_fn(R, active):
        Rint = max(1, int(round(R)))
        act = np.asarray(active, dtype=np.int64)

        def kernel(batches):
            qh = np.floor_divide(b_qh.value[act], Rint)  # (Qa, m)
            for pdf in batches:
                if pdf.empty:
                    continue
                H = np.floor_divide(np.vstack(pdf["h"].to_numpy()), Rint)  # (b, m)
                counts = (H[:, None, :] == qh[None, :, :]).sum(-1)  # (b, Qa)
                rows_o, rows_q = np.nonzero(counts >= l)
                yield pd.DataFrame(
                    {
                        "qid": act[rows_q],
                        "id": pdf["id"].to_numpy()[rows_o],
                    }
                )

        return index.hashed.mapInPandas(kernel, pair_schema).toPandas()

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
