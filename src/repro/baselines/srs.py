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
exact neighbour within ratio c is below the threshold tau'. m' is fixed at
6 because the stopping rule's chi-squared quantile is for 6 degrees of
freedom.

The build collects the vectors into the index's vector store (nu and n come
from it) and stores the projections with ``lsh_common.project``. A query
computes the projected distances in one Spark pass whose Arrow batches each
keep their (budget+1)-smallest per query (``query.smallest_per_query``).
The driver keeps each query's (budget+1)-smallest overall by (pdist, id):
the maximal scan prefix, plus the next point for the stopping test. The
prefix is scored with ``query.exact_dists``, the ordered scan is replayed
with the stopping rule on the driver, and the examined points are ranked by
``query.top_k`` — result-identical to the R-tree incremental search of the
authors' code (DESIGN.md deviation #5).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.baselines.lsh_common import project
from repro.core.build import VectorStore, vector_store
from repro.core.query import (
    DIST_SCHEMA, check_batch, empty_result, exact_dists, smallest_per_query, top_k,
)
from repro.dist import block_dists

__all__ = ["SRSIndex", "build_srs", "knn_srs"]

_M_PROJ = 6  # m', the projected dimensionality
# chi^2 inverse CDF at the paper's early-termination threshold tau'=0.1809
# for m'=6 degrees of freedom (precomputed; no scipy in the container).
_CHI2_Q_TAU_M6 = 2.9046


@dataclass
class SRSIndex:
    A: np.ndarray  # (m', nu)
    projected: DataFrame  # (id, p: array<double>)
    store: VectorStore  # the vectors by id, for the exact checks
    n: int


def build_srs(spark: SparkSession, data: DataFrame, *, seed: int = 2) -> SRSIndex:
    store = vector_store(data)
    A = np.random.default_rng(seed).normal(0.0, 1.0, size=(_M_PROJ, store.vecs.shape[1]))
    return SRSIndex(A, project(data, A), store, len(store.ids))


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

    def proj_dists(batches):
        qp = b_qp.value
        for pdf in batches:
            if pdf.empty:
                continue
            d = block_dists(np.vstack(pdf["p"].to_numpy()), qp).T  # (Q, b)
            qid, rows = smallest_per_query(d, budget + 1)
            yield pd.DataFrame(
                {"qid": qid, "id": pdf["id"].to_numpy()[rows], "dist": d[qid, rows]}
            )

    partials = (
        index.projected.mapInPandas(proj_dists, DIST_SCHEMA)
        .toPandas()
        .rename(columns={"dist": "pdist"})
    )
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
