"""C2LSH (Gan, Feng, Fang, Ng; SIGMOD 2012) — dynamic collision counting.

m p-stable hash functions h_j(o) = floor((a_j . o + b_j) / w) are computed
once at build time (the finest granularity). *Virtual rehashing* at search
level R merges buckets by floor-dividing the stored hash by R, so no
physical rehash ever happens. An object is frequent for q at level R when
its merged bucket equals q's in >= l = ceil(alpha * m) functions.
The outer loop, exact checks and termination (k within c*R / false-positive
budget beta*n + k) live in ``lsh_common.collision_search``.

The build collects the vectors into the index's vector store first and
learns nu, n and w from it, so hashing is its only other Spark job. The
paper runs C2LSH with c=2, w=1 on integer-scaled data and beta = 100/n;
here c = 2 and alpha = 0.6 are ``lsh_common``'s constants, and w is
``lsh_common.bucket_width``: 1/16 of the median projection spread of the
512 lowest ids, so the first level is fine-grained for any domain.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession, functions as F
from pyspark.sql.types import ArrayType, LongType

from repro.baselines.lsh_common import ALPHA_FRAC, PAIR_SCHEMA, bucket_width, collision_search
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


def build_c2lsh(
    spark: SparkSession, data: DataFrame, *, m: int = 20, seed: int = 0
) -> C2LSHIndex:
    store = vector_store(data)
    rng = np.random.default_rng(seed)
    A = rng.normal(0.0, 1.0, size=(m, store.vecs.shape[1]))
    w = bucket_width(store, A)
    b = rng.uniform(0.0, w, size=m)

    sc = spark.sparkContext
    b_A, b_b = sc.broadcast(A), sc.broadcast(b)

    @F.pandas_udf(ArrayType(LongType()))
    def hash_udf(vec: pd.Series) -> pd.Series:
        X = np.vstack(vec.to_numpy())
        H = np.floor((X @ b_A.value.T + b_b.value[None, :]) / w).astype(np.int64)
        return pd.Series(list(H))

    hashed = data.select("id", hash_udf("vec").alias("h")).persist()
    hashed.count()
    return C2LSHIndex(A, b, w, hashed, store, len(store.ids))


def knn_c2lsh(
    index: C2LSHIndex,
    queries: np.ndarray,
    k: int,
    *,
    beta_n: int | None = None,
) -> pd.DataFrame:
    """kANN by virtual rehashing + collision counting. (qid, rank, id, dist)."""
    queries = check_batch(queries, index.store.vecs.shape[1], k)
    if len(queries) == 0:
        return empty_result()
    sc = index.hashed.sparkSession.sparkContext
    m = index.A.shape[0]
    l = int(np.ceil(ALPHA_FRAC * m))
    cap = (beta_n if beta_n is not None else max(100, k)) + k

    QH = np.floor((queries @ index.A.T + index.b[None, :]) / index.w).astype(np.int64)
    b_qh = sc.broadcast(QH)

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

        return index.hashed.mapInPandas(kernel, PAIR_SCHEMA).toPandas()

    return collision_search(
        index.store,
        queries,
        k,
        count_fn=count_fn,
        radius_unit=index.w,
        cap=cap,
    )
