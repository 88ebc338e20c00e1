"""SRS (Sun, Wang, Qin, Zhang, Lin; PVLDB 2014) — tiny-index projection search.

SRS projects every point into an m'-dimensional space (m'=6 2-stable
Gaussian projections — the entire index is just n * 6 floats, the paper's
"tiny index" point), then answers a query by *incremental kNN in the
projected space*: points are examined in increasing projected distance;
each examined point gets an exact distance check; the scan stops after
t*n points (the examined-fraction budget) or when the early-termination
test holds — the projected distance of the next unexamined point is
already so large that, under the chi-squared distribution of
||proj(x-q)||^2 / d(x,q)^2, the chance of it beating the current k-th
exact neighbour within ratio c is below the threshold tau'.

Our realisation computes the projected distances with one Spark pass whose
Arrow batches each keep their (budget+1)-smallest per query. The driver
keeps each query's (budget+1)-smallest overall by (pdist, id): the maximal
scan prefix, plus the next point for the stopping test. The prefix is
scored with ``query.exact_dists``, the ordered scan is replayed with the
stopping rule on the driver, and the examined points are ranked by
``query.top_k`` — result-identical to the R-tree incremental search of the
authors' code (DESIGN.md deviation #5).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession, functions as F
from pyspark.sql.types import ArrayType, DoubleType, LongType, StructField, StructType

from repro.core.build import VectorStore, vector_store
from repro.core.query import check_batch, empty_result, exact_dists, top_k
from repro.dist import block_dists

__all__ = ["SRSIndex", "build_srs", "knn_srs"]

# chi^2 inverse CDF at the paper's early-termination threshold tau'=0.1809
# for m'=6 degrees of freedom (precomputed; no scipy in the container).
_CHI2_Q_TAU_M6 = 2.9046


@dataclass
class SRSIndex:
    A: np.ndarray  # (m', nu)
    projected: DataFrame  # (id, p: array<double>)
    store: VectorStore  # the vectors by id, for the exact checks
    n: int
    m_proj: int


def build_srs(
    spark: SparkSession, data: DataFrame, *, m_proj: int = 6, seed: int = 2
) -> SRSIndex:
    rng = np.random.default_rng(seed)
    nu = len(data.select("vec").first()["vec"])
    A = rng.normal(0.0, 1.0, size=(m_proj, nu))
    b_A = spark.sparkContext.broadcast(A)

    @F.pandas_udf(ArrayType(DoubleType()))
    def proj_udf(vec: pd.Series) -> pd.Series:
        X = np.vstack(vec.to_numpy())
        return pd.Series(list(X @ b_A.value.T))

    projected = data.select("id", proj_udf("vec").alias("p")).persist()
    n = projected.count()
    return SRSIndex(A, projected, vector_store(data), n, m_proj)


def knn_srs(
    index: SRSIndex,
    queries: np.ndarray,
    k: int,
    *,
    t: float = 0.00242,
    c: float = 2.0,
    min_examined: int = 200,
) -> pd.DataFrame:
    """kANN via ordered projected scan with SRS-12 early termination.

    ``t`` is the paper's maximum examined fraction; a floor of
    ``min_examined`` points keeps tiny datasets meaningful (the authors set
    t for million-point datasets; t*n < k otherwise).
    """
    queries = check_batch(queries, index.store.vecs.shape[1], k)
    if len(queries) == 0:
        return empty_result()
    sc = index.projected.sparkSession.sparkContext
    budget = max(min_examined, int(np.ceil(t * index.n)), k)

    QP = queries @ index.A.T  # (Q, m')
    b_qp = sc.broadcast(QP)

    pd_schema = StructType(
        [
            StructField("qid", LongType()),
            StructField("id", LongType()),
            StructField("pdist", DoubleType()),
        ]
    )

    def proj_dists(batches):
        qp = b_qp.value
        for pdf in batches:
            if pdf.empty:
                continue
            P = np.vstack(pdf["p"].to_numpy())  # (b, m')
            d = block_dists(P, qp)  # (b, Q)
            kk = min(budget + 1, d.shape[0])
            ids = pdf["id"].to_numpy()
            frames = []
            for qi in range(d.shape[1]):
                sel = np.argpartition(d[:, qi], kk - 1)[:kk]
                frames.append(
                    pd.DataFrame(
                        {"qid": qi, "id": ids[sel], "pdist": d[sel, qi]}
                    )
                )
            yield pd.concat(frames, ignore_index=True)

    partials = index.projected.mapInPandas(proj_dists, pd_schema).toPandas()
    # keep the (budget+1)-smallest projected distances per query: budget
    # points may be examined, the +1 drives the early-termination test.
    prefix = (
        partials.sort_values(["qid", "pdist", "id"])
        .groupby("qid")
        .head(budget + 1)
    )
    # merge keeps prefix's (qid, pdist, id) order: each query's scan order
    scanned = prefix.merge(
        exact_dists(index.store, prefix, queries), on=["qid", "id"]
    )

    examined = []
    for _, g in scanned.groupby("qid"):
        pdists = g["pdist"].to_numpy()
        dists = g["dist"].to_numpy()
        # replay the ordered scan with the SRS-12 stopping rule
        stop = min(budget, len(g))
        for i in range(k - 1, stop):
            kth = np.partition(dists[: i + 1], k - 1)[k - 1]
            # early termination: next projected distance too large
            if i + 1 < len(pdists) and pdists[i + 1] ** 2 > (
                _CHI2_Q_TAU_M6 * (c * kth) ** 2
            ):
                stop = i + 1
                break
        examined.append(g.head(stop))
    return top_k(pd.concat(examined, ignore_index=True)[["qid", "id", "dist"]], k)
