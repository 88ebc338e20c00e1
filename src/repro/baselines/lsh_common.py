"""Shared machinery for the collision-counting LSH baselines (C2LSH, QALSH).

Both methods share the same outer search: virtually enlarge the search
radius level by level (R = 1, c, c^2, ...); at each level an object is
*frequent* for a query when it collides with the query in at least
``l`` of the m hash functions; frequent objects get an exact distance check;
the search stops when (T1) k candidates lie within distance c * R_dist, or
(T2) the number of checked candidates reaches the false-positive budget
beta*n + k. What differs is only the collision predicate per level, which
each method supplies as a Spark job (``count_fn``).

Exact checks score the newly frequent (qid, id) pairs with
``repro.core.query.exact_dists``, one broadcast pass over the base table —
candidates are *never* re-checked across levels (driver keeps the seen-set
per query).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.core.query import exact_dists

__all__ = ["collision_search"]


def collision_search(
    base: DataFrame,
    queries: np.ndarray,
    k: int,
    *,
    count_fn,
    c: float,
    radius_unit: float,
    cap: int,
    max_levels: int = 24,
) -> pd.DataFrame:
    """Virtual-rehashing search loop shared by C2LSH and QALSH.

    ``count_fn(R, active_qids) -> pd.DataFrame(qid, id)`` returns the
    frequent pairs at level R (R is the virtual radius multiplier, so the
    distance scale of level R is ``radius_unit * R``).
    Returns (qid, rank, id, dist), rank 1-based.
    """
    nq = len(queries)
    seen: list[set] = [set() for _ in range(nq)]
    best: list[pd.DataFrame] = [
        pd.DataFrame(columns=["qid", "id", "dist"]) for _ in range(nq)
    ]
    done = [False] * nq
    R = 1.0
    for _ in range(max_levels):
        active = [q for q in range(nq) if not done[q]]
        if not active:
            break
        freq = count_fn(R, active)
        if len(freq):
            freq = freq[
                [i not in seen[q] for q, i in zip(freq["qid"], freq["id"])]
            ]
        dists = exact_dists(base, freq, queries)
        for q in active:
            mine = dists[dists["qid"] == q]
            if len(mine):
                seen[q].update(mine["id"].tolist())
                combined = (
                    mine
                    if best[q].empty
                    else pd.concat([best[q], mine], ignore_index=True)
                )
                best[q] = combined.sort_values(
                    ["dist", "id"], kind="mergesort"
                ).head(max(k, 2 * k))
            topk = best[q].head(k)
            t1 = len(topk) >= k and topk["dist"].iloc[-1] <= c * R * radius_unit
            t2 = len(seen[q]) >= cap
            if t1 or t2:
                done[q] = True
        R *= c

    out = []
    for q in range(nq):
        g = best[q].head(k)
        out.append(
            pd.DataFrame(
                {
                    "qid": q,
                    "rank": np.arange(1, len(g) + 1, dtype=np.int64),
                    "id": g["id"].to_numpy(dtype=np.int64)
                    if len(g)
                    else np.array([], dtype=np.int64),
                    "dist": g["dist"].to_numpy(),
                }
            )
        )
    return pd.concat(out, ignore_index=True)
