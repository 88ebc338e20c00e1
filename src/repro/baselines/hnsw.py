"""HNSW (Malkov & Yashunin, 2016) — hierarchical navigable small world graphs.

The in-memory graph baseline of HD-Index's Table 5: fastest and most
accurate of the compared methods but RAM-resident — the paper shows it
crashing beyond SIFT1M. Faithful single-machine implementation:

* geometric level assignment l = floor(-ln(U) * mL), mL = 1/ln(M);
* insertion descends greedily from the entry point to level l+1, then at
  each level <= l runs an ef_construction-bounded best-first search and
  connects to the M closest found (SELECT-NEIGHBORS-SIMPLE), pruning
  neighbour lists to M_max (2M at layer 0);
* querying descends greedily to layer 0 and runs the ef-bounded search.

Built driver-side over the collected vector matrix, mirroring the paper's
classification of HNSW as an in-memory technique (DESIGN.md deviation #6).
"""
from __future__ import annotations

import heapq

import numpy as np
import pandas as pd

from repro.core.query import check_batch, empty_result, top_k

__all__ = ["HNSW", "knn_hnsw"]


class HNSW:
    def __init__(
        self,
        X: np.ndarray,
        *,
        M: int = 8,
        ef_construction: int = 64,
        seed: int = 0,
    ):
        self.X = np.asarray(X, dtype=np.float64)
        self.M = M
        self.Mmax = M
        self.Mmax0 = 2 * M
        self.efc = ef_construction
        self.mL = 1.0 / np.log(M)
        rng = np.random.default_rng(seed)
        n = len(X)
        self.levels = np.floor(
            -np.log(np.clip(rng.random(n), 1e-12, 1.0)) * self.mL
        ).astype(np.int64)
        self.max_level = -1
        self.entry = -1
        # adjacency: per level, dict node -> list of neighbours
        self.graph: list[dict[int, list[int]]] = []
        for i in range(n):
            self._insert(i)

    # --- internals ----------------------------------------------------------
    def _dist(self, q: np.ndarray, i: int) -> float:
        d = self.X[i] - q
        return float(np.dot(d, d))  # squared L2 (order-equivalent)

    def _search_layer(self, q, eps, ef, level):
        """Best-first search with dynamic candidate list of size ef.
        Returns list of (dist, node) sorted ascending."""
        adj = self.graph[level]
        visited = set(eps)
        cand = [(self._dist(q, e), e) for e in eps]
        heapq.heapify(cand)
        best = [(-d, e) for d, e in cand]
        heapq.heapify(best)
        while cand:
            d, u = heapq.heappop(cand)
            if best and d > -best[0][0]:
                break
            for v in adj.get(u, ()):
                if v in visited:
                    continue
                visited.add(v)
                dv = self._dist(q, v)
                if len(best) < ef or dv < -best[0][0]:
                    heapq.heappush(cand, (dv, v))
                    heapq.heappush(best, (-dv, v))
                    if len(best) > ef:
                        heapq.heappop(best)
        return sorted((-d, e) for d, e in best)

    def _insert(self, i):
        l = int(self.levels[i])
        while len(self.graph) <= l:
            self.graph.append({})
        if self.entry < 0:
            self.entry = i
            self.max_level = l
            for lev in range(l + 1):
                self.graph[lev][i] = []
            return
        q = self.X[i]
        ep = [self.entry]
        for lev in range(self.max_level, l, -1):
            ep = [self._search_layer(q, ep, 1, lev)[0][1]]
        for lev in range(min(l, self.max_level), -1, -1):
            W = self._search_layer(q, ep, self.efc, lev)
            mmax = self.Mmax0 if lev == 0 else self.Mmax
            neigh = [e for _, e in W[: self.M]]
            self.graph[lev][i] = list(neigh)
            for e in neigh:
                lst = self.graph[lev].setdefault(e, [])
                lst.append(i)
                if len(lst) > mmax:  # shrink to the mmax closest
                    ds = [self._dist(self.X[e], v) for v in lst]
                    order = np.argsort(ds)[:mmax]
                    self.graph[lev][e] = [lst[j] for j in order]
            ep = [e for _, e in W]
        if l > self.max_level:
            self.max_level = l
            self.entry = i

    # --- public -------------------------------------------------------------
    def query(self, q: np.ndarray, k: int, ef: int = 100):
        """(ids, dists) of the approximate k nearest, distances Euclidean."""
        q = np.asarray(q, dtype=np.float64)
        ep = [self.entry]
        for lev in range(self.max_level, 0, -1):
            ep = [self._search_layer(q, ep, 1, lev)[0][1]]
        W = self._search_layer(q, ep, max(ef, k), 0)[:k]
        ids = np.array([e for _, e in W], dtype=np.int64)
        dists = np.sqrt(np.array([d for d, _ in W]))
        return ids, dists


def knn_hnsw(
    graph: HNSW, queries: np.ndarray, k: int, *, ef: int = 100
) -> pd.DataFrame:
    """Batch wrapper returning the repo-standard (qid, rank, id, dist)."""
    queries = check_batch(queries, graph.X.shape[1], k)
    if len(queries) == 0:
        return empty_result()
    found = []
    for qid, q in enumerate(queries):
        ids, dists = graph.query(q, k, ef)
        found.append(pd.DataFrame({"qid": qid, "id": ids, "dist": dists}))
    return top_k(pd.concat(found, ignore_index=True), k)
