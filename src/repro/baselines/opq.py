"""OPQ (Ge, He, Ke, Sun; CVPR 2013) — optimised product quantisation.

Product quantisation splits the (rotated) space into M sub-spaces, runs
k-means with ksub centroids in each, and stores per point only the M
centroid indices. OPQ additionally learns an orthonormal rotation R by
alternating (a) sub-space k-means on the rotated data and (b) the
orthogonal-Procrustes update R = U V^T from the SVD of X^T X_hat — the
non-parametric OPQ of the paper.

Training happens driver-side on (a sample of) the data — OPQ is an
in-memory technique in HD-Index's classification (Sec. 2.2.5) — while code
assignment and the exhaustive ADC (asymmetric distance) scan are Spark
jobs over the code table. The build collects the vectors into the index's
vector store first and takes n from it; k-means runs a fixed 10 Lloyd
iterations per OPQ round. Each Arrow batch of the scan scores its points
as one gather-and-sum over the per-query lookup tables and keeps its k
smallest per query (``query.smallest_per_query``). With the paper's
setting M=2 a point is encoded in 2 bytes, which is why HD-Index's Table 5
reports MAPs thousands of times worse for OPQ: that shape is reproduced,
not a bug.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession, functions as F
from pyspark.sql.types import ArrayType, LongType

from repro.baselines.kmeans import kmeans
from repro.core.build import VectorStore, sample_vectors, vector_store
from repro.core.query import (
    DIST_SCHEMA, check_batch, empty_result, exact_dists, smallest_per_query, top_k,
)
from repro.dist import sq_dists

__all__ = ["OPQIndex", "build_opq", "knn_opq"]

_TRAIN_CAP = 20_000
_KMEANS_ITERS = 10


@dataclass
class OPQIndex:
    R: np.ndarray  # (nu, nu) orthonormal rotation
    codebooks: list  # M arrays of (ksub, d_m)
    splits: list  # M index arrays into rotated dims
    codes: DataFrame  # (id, code: array<long>)
    store: VectorStore  # the vectors by id, for the true distances
    n: int


def _sub_splits(nu: int, M: int) -> list[np.ndarray]:
    return [np.asarray(s) for s in np.array_split(np.arange(nu), M)]


def build_opq(
    spark: SparkSession,
    data: DataFrame,
    *,
    M: int = 2,
    ksub: int = 256,
    opq_iters: int = 5,
    seed: int = 0,
) -> OPQIndex:
    store = vector_store(data)
    n = len(store.ids)
    X = sample_vectors(data, n, _TRAIN_CAP, seed)
    nu = X.shape[1]
    ksub = min(ksub, len(X))
    splits = _sub_splits(nu, M)

    R = np.eye(nu)
    codebooks = [None] * M
    for it in range(opq_iters):
        Z = X @ R
        Xhat = np.empty_like(Z)
        for mi, dims in enumerate(splits):
            centers, labels = kmeans(
                Z[:, dims], ksub, iters=_KMEANS_ITERS, seed=seed + 17 * mi
            )
            codebooks[mi] = centers
            Xhat[:, dims] = centers[labels]
        if it < opq_iters - 1:
            # orthogonal Procrustes: R minimising ||X R - Xhat||_F
            U, _, Vt = np.linalg.svd(X.T @ Xhat)
            R = U @ Vt

    sc = spark.sparkContext
    b_R = sc.broadcast(R)
    b_books = sc.broadcast(codebooks)
    b_splits = sc.broadcast(splits)

    @F.pandas_udf(ArrayType(LongType()))
    def code_udf(vec: pd.Series) -> pd.Series:
        Xb = np.vstack(vec.to_numpy()) @ b_R.value
        cols = []
        for mi, dims in enumerate(b_splits.value):
            cols.append(sq_dists(Xb[:, dims], b_books.value[mi]).argmin(1))
        return pd.Series(list(np.stack(cols, axis=1).astype(np.int64)))

    codes = data.select("id", code_udf("vec").alias("code")).persist()
    codes.count()
    return OPQIndex(R, codebooks, splits, codes, store, n)


def knn_opq(index: OPQIndex, queries: np.ndarray, k: int) -> pd.DataFrame:
    """Exhaustive ADC scan: approximate distances from the per-query lookup
    tables, top-k by approximate distance, true distances reported for the
    selected ids (the evaluation convention for all methods here)."""
    queries = check_batch(queries, index.store.vecs.shape[1], k)
    if len(queries) == 0:
        return empty_result()
    sc = index.codes.sparkSession.sparkContext

    # per-query LUT: (Q, M, ksub) squared distances to every centroid
    Zq = queries @ index.R
    luts = np.stack(
        [
            np.stack(
                [
                    ((index.codebooks[mi] - Zq[qi, dims][None, :]) ** 2).sum(1)
                    for mi, dims in enumerate(index.splits)
                ]
            )
            for qi in range(len(queries))
        ]
    )
    b_lut = sc.broadcast(luts)

    def scan(batches):
        lut = b_lut.value  # (Q, M, ksub)
        subspaces = np.arange(lut.shape[1])
        for pdf in batches:
            if pdf.empty:
                continue
            C = np.vstack(pdf["code"].to_numpy())  # (b, M)
            ad = lut[:, subspaces, C].sum(-1)  # (Q, b) ADC distances
            qid, rows = smallest_per_query(ad, k)
            yield pd.DataFrame(
                {"qid": qid, "id": pdf["id"].to_numpy()[rows], "dist": ad[qid, rows]}
            )

    partials = index.codes.mapInPandas(scan, DIST_SCHEMA).toPandas()
    # rank by ADC distance, then report each chosen id's true distance
    chosen = top_k(partials, k).drop(columns="dist")
    return chosen.merge(exact_dists(index.store, chosen, queries), on=["qid", "id"])
