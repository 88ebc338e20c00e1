"""Shared search loop of the collision-counting LSH baselines (C2LSH, QALSH).

Both methods virtually enlarge the search radius level by level (R = 1, c,
c^2, ...). At each level an object is *frequent* for a query when it
collides with the query in at least ``l`` of the m hash functions; only the
collision predicate differs, and each method supplies it as a Spark job
(``count_fn``). Newly frequent (qid, id) pairs are scored by
``query.exact_dists`` on the driver, which reads only their vectors, by id,
from the index's vector store; the driver keeps a seen-set per query, so no
pair is checked twice. A query stops when (T1) k candidates lie within
distance c * R_dist, or (T2) the number of checked candidates reaches the
false-positive budget beta*n + k. The kept candidates of all queries are
ranked by ``query.top_k``.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.build import VectorStore
from repro.core.query import empty_result, exact_dists, top_k

__all__ = ["collision_search"]


def collision_search(
    store: VectorStore,
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
    best = [empty_result().drop(columns="rank")] * nq  # each <= k, by (dist, id)
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
            t1 = len(best[q]) >= k and best[q]["dist"].iloc[-1] <= c * R * radius_unit
            t2 = len(seen[q]) >= cap
            if t1 or t2:
                done[q] = True
        R *= c
    return top_k(pd.concat(best, ignore_index=True), k)
