"""iDistance (Yu, Ooi, Tan, Jagadish; VLDB 2001) — the exact baseline.

Every point is keyed by ``center_id * key_stride + d(o, center)`` where
``center`` is its nearest of C cluster reference points; the single sorted
key axis is the paper's B+-tree. A kNN query grows a radius r (r0, +Δr per
round); each round scans, per partition i, the key ring
``[d(q,c_i) - r, d(q,c_i) + r]`` (clipped to the partition's radius), exact-
checks the ring members, and stops once the current k-th exact distance is
<= r — at which point no unexamined point can be closer, so the answer is
**exact** (verified against linear scan in tests).

Each round is one Spark job: a broadcast range join of the keyed table
against the ring predicates — the analogue of the B+-tree range scans —
whose rows already carry their vectors, so a pandas kernel scores them in
the same pass, and the index needs no vector store for ``query.exact_dists``.
The finished queries' answers are ranked by ``query.top_k``.
Distances follow ``repro.dist``'s rule: the ring kernel and the
query-to-centre distances are exact (``euclidean``); only the build's
nearest-centre assignment, whose ``cdist`` keys the rings, uses the block
form. As in
the paper, iDistance degenerates toward a full scan in high dimensions
(every ring quickly covers every partition), which is exactly the
inefficiency HD-Index's Table 5 reports.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession, functions as F
from pyspark.sql.types import DoubleType, LongType, StructField, StructType

from repro.baselines.kmeans import kmeans
from repro.baselines.linear_scan import knn_linear_scan
from repro.core.build import sample_vectors
from repro.core.query import top_k
from repro.dist import block_dists, euclidean

__all__ = ["IDistanceIndex", "build_idistance", "knn_idistance"]

_SAMPLE_CAP = 4096


@dataclass
class IDistanceIndex:
    centers: np.ndarray  # (C, nu)
    max_radius: np.ndarray  # (C,) partition radius d_max_i
    keyed: DataFrame  # (id, vec, center_id, cdist, key)
    key_stride: float
    n: int


def build_idistance(
    spark: SparkSession,
    data: DataFrame,
    *,
    n_centers: int = 16,
    seed: int = 0,
) -> IDistanceIndex:
    """Cluster-based reference points (the paper's recommended variant) and
    the keyed, range-sorted table."""
    n = data.count()
    sample = sample_vectors(data, n, _SAMPLE_CAP, seed)
    centers, _ = kmeans(sample, min(n_centers, len(sample)), seed=seed)

    sc = spark.sparkContext
    b_c = sc.broadcast(centers)

    fields = data.schema.fields + [
        StructField("center_id", LongType()),
        StructField("cdist", DoubleType()),
    ]

    def assign(batches):
        C = b_c.value
        for pdf in batches:
            if pdf.empty:
                continue
            d = block_dists(np.vstack(pdf["vec"].to_numpy()), C)
            out = pdf.copy()
            out["center_id"] = d.argmin(1).astype(np.int64)
            out["cdist"] = d.min(1)
            yield out

    assigned = data.mapInPandas(assign, StructType(fields)).persist()
    radii = (
        assigned.groupBy("center_id").agg(F.max("cdist").alias("r")).collect()
    )
    max_radius = np.zeros(len(centers))
    for row in radii:
        max_radius[int(row["center_id"])] = float(row["r"])

    stride = float(max_radius.max()) * 2.0 + 1.0
    keyed = assigned.withColumn(
        "key", F.col("center_id").cast("double") * F.lit(stride) + F.col("cdist")
    ).persist()
    keyed.count()
    assigned.unpersist()
    return IDistanceIndex(centers, max_radius, keyed, stride, n)


def knn_idistance(
    index: IDistanceIndex,
    queries: np.ndarray,
    k: int,
    *,
    r0: float | None = None,
    dr: float | None = None,
    max_rounds: int = 64,
) -> pd.DataFrame:
    """Exact kNN via iterative ring expansion. Returns (qid, rank, id, dist).

    ``r0``/``dr`` default to 1/10 of the mean partition radius — the scale-
    free analogue of the paper's r=0.01, Δr=0.01 on unit-normalised data.
    """
    queries = np.asarray(queries, dtype=np.float64)
    spark = index.keyed.sparkSession
    sc = spark.sparkContext
    scale = float(index.max_radius.mean()) or 1.0
    r0 = r0 if r0 is not None else 0.1 * scale
    dr = dr if dr is not None else 0.1 * scale

    qc = euclidean(queries[:, None], index.centers)  # (Q, C)

    b_q = sc.broadcast(queries)
    res_schema = StructType(
        [
            StructField("qid", LongType()),
            StructField("id", LongType()),
            StructField("dist", DoubleType()),
        ]
    )

    active = list(range(len(queries)))
    results: dict[int, pd.DataFrame] = {}
    r = r0
    for _ in range(max_rounds):
        if not active:
            break
        # ring predicates: (qid, center, key_lo, key_hi)
        rows = []
        for qid in active:
            for c in range(len(index.centers)):
                lo = max(0.0, qc[qid, c] - r)
                hi = min(index.max_radius[c] + 1e-12, qc[qid, c] + r)
                if lo > hi:
                    continue  # ring misses this partition at radius r
                rows.append(
                    (qid, c * index.key_stride + lo, c * index.key_stride + hi)
                )
        if rows:
            rings = spark.createDataFrame(
                pd.DataFrame(rows, columns=["qid", "key_lo", "key_hi"])
            )
            cand = index.keyed.join(
                F.broadcast(rings),
                on=(index.keyed["key"] >= rings["key_lo"])
                & (index.keyed["key"] <= rings["key_hi"]),
            ).select("qid", "id", "vec")

            def exact(batches):
                Q = b_q.value
                for pdf in batches:
                    if pdf.empty:
                        continue
                    X = np.vstack(pdf["vec"].to_numpy())
                    qs = pdf["qid"].to_numpy()
                    d = euclidean(X, Q[qs])
                    yield pd.DataFrame(
                        {"qid": qs, "id": pdf["id"].to_numpy(), "dist": d}
                    )

            got = cand.mapInPandas(exact, res_schema).toPandas()
        else:
            got = pd.DataFrame(columns=["qid", "id", "dist"])

        still = []
        for qid in active:
            mine = got[got["qid"] == qid]
            topk = mine.sort_values(["dist", "id"], kind="mergesort").head(k)
            # stop when k found within r — nothing unexamined can be closer
            if len(topk) >= k and topk["dist"].iloc[-1] <= r:
                results[qid] = topk
            elif len(topk) >= min(k, index.n) and r > index.key_stride:
                results[qid] = topk  # ring covers every partition fully
            else:
                still.append(qid)
        active = still
        r += dr

    # Safety net: any query still active after max_rounds gets its best-so-far
    # via one full-ring pass (r covering everything) — keeps exactness.
    if active:
        rest = knn_linear_scan(
            index.keyed.select("id", "vec"), queries[active], k
        )
        remap = {i: qid for i, qid in enumerate(active)}
        rest["qid"] = rest["qid"].map(remap)
        for qid, grp in rest.groupby("qid"):
            results[qid] = grp[["qid", "id", "dist"]]

    return top_k(pd.concat(results.values(), ignore_index=True), k)
