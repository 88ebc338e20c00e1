"""kANN querying over HD-Index (Algo 2) as a batched Spark dataflow.

For a batch of queries the three phases of the paper map onto:

1. **candidate retrieval** (``curve_candidates``, shared with the
   Multicurves baseline) — on the driver, each (query, tree) pair bisects
   the leaf fences to a centre leaf and widens to the smallest leaf window
   guaranteed to contain the alpha nearest-by-key entries. The
   ``(tree_id, qid, lo_leaf, hi_leaf)`` windows and the query keys are
   broadcast to one ``mapInArrow`` pass over the index's page table
   ``pages``, one row per leaf, in which every tree lies whole in one
   partition. The kernel gathers one tree's pages at a time, decodes the
   pages inside some window from their Arrow buffers, and cuts each window
   once: the alpha entries nearest by exact ``|key - q|`` (int64 limbs of
   32 bits, ties by id). No join and no shuffle, but the pass reads every
   page of every tree: the windows bound what is decoded and kept, not
   what is scanned, so this is not yet the paper's O(log n + alpha/Omega)
   page reads.
2. **filter funnel** — in the same kernel, each window's alpha rows are cut
   to gamma by the triangular bound (Eq. 5) (``tri``), or to beta by it and
   then the beta survivors to gamma by the Ptolemaic bound (Eq. 6)
   (``both``), ties in key order. The bounds read only the leaf-resident
   reference distances, never the vectors, exactly the paper's I/O
   argument. Only the ``(tree_id, qid, id)`` survivors reach the driver.
3. **exact re-rank** (``exact_dists``) — the per-tree gamma-sets (at most
   tau*gamma narrow ``(qid, id)`` rows per query) are deduplicated on the
   driver, giving kappa candidates per query. Each candidate's vector is
   read by id from the index's :class:`~repro.core.build.VectorStore` (an
   array in memory, or ``vectors.npy`` through ``np.memmap`` on the
   Parquet build) and scored on the driver, and each query keeps its top k
   by (dist, id). That is the paper's kappa random reads, and no Spark job:
   a query runs one job, the candidate pass.

Returns a pandas DataFrame ``(qid, rank, id, dist)`` with rank 1-based.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
from pyspark.sql.types import DoubleType, LongType, StructField, StructType

from repro.core.build import HDIndex, VectorStore, subspace_keys
from repro.core.rdbtree import TREE_COL, binary_values
from repro.dist import euclidean

__all__ = [
    "knn_query", "curve_candidates", "key_limbs", "key_dist", "key_order", "exact_dists", "top_k",
    "DIST_SCHEMA", "smallest_per_query", "check_batch", "empty_result", "query_hilbert_keys",
    "triangular_bounds", "ptolemaic_bounds",
]


def query_hilbert_keys(index: HDIndex, queries: np.ndarray) -> list[np.ndarray]:
    """Hilbert key (bytes) of every query in every tree's sub-space.

    ``index`` may be any curve index with ``.params``.
    """
    p = index.params
    return [subspace_keys(queries, dims, p) for dims in p.partitions]


def triangular_bounds(q_rdist: np.ndarray, o_rdist: np.ndarray) -> np.ndarray:
    """Eq. (5): max_i |d(q, R_i) - d(o, R_i)| for each object row.

    ``q_rdist``: (m,) query-to-reference distances; ``o_rdist``: (n, m).
    """
    return np.abs(o_rdist - q_rdist[None, :]).max(axis=1)


def ptolemaic_bounds(
    q_rdist: np.ndarray, o_rdist: np.ndarray, ref_pairwise: np.ndarray
) -> np.ndarray:
    """Eq. (6): max over reference pairs (i, j) of
    |d(q,R_i) d(o,R_j) - d(q,R_j) d(o,R_i)| / d(R_i, R_j).

    Degenerate pairs (coincident references) are skipped. O(n * m^2) as in
    the paper's cost model.
    """
    m = len(q_rdist)
    best = np.zeros(o_rdist.shape[0])
    for i in range(m):
        for j in range(i + 1, m):
            denom = ref_pairwise[i, j]
            if denom <= 0:
                continue
            lb = np.abs(q_rdist[i] * o_rdist[:, j] - q_rdist[j] * o_rdist[:, i]) / denom
            np.maximum(best, lb, out=best)
    return best


def check_batch(queries, nu: int, k: int, alpha: int | None = None) -> np.ndarray:
    """The query batch as a float (Q, nu) array; ValueError on bad input.
    ``alpha`` is the candidate count of the curve indexes; other methods
    have none."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if alpha is not None and alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != nu:
        raise ValueError(f"queries must be (Q, {nu}), got {queries.shape}")
    if not np.isfinite(queries).all():
        raise ValueError("queries must be finite")
    return queries


def empty_result() -> pd.DataFrame:
    """The ``(qid, rank, id, dist)`` answer to an empty query batch."""
    return pd.DataFrame(
        {c: pd.Series(dtype="float64" if c == "dist" else "int64")
         for c in ["qid", "rank", "id", "dist"]}
    )


def top_k(dists: pd.DataFrame, k: int) -> pd.DataFrame:
    """Each query's k nearest ``(qid, id, dist)`` rows as ``(qid, rank, id,
    dist)``, ordered by qid then rank. Ids must be unique per query, so
    (dist, id) orders each query totally: ties go to the lower id. Every
    method's final ranking goes through here."""
    top = dists.sort_values(["qid", "dist", "id"]).groupby("qid").head(k)
    top.insert(1, "rank", top.groupby("qid").cumcount() + 1)
    return top.reset_index(drop=True)


# The Spark schema of the (qid, id, dist) partials that exhaustive scans
# return for ``top_k`` to merge.
DIST_SCHEMA = StructType(
    [StructField(c, LongType()) for c in ["qid", "id"]] + [StructField("dist", DoubleType())]
)


def smallest_per_query(scores: np.ndarray, kk: int) -> tuple[np.ndarray, np.ndarray]:
    """The flattened ``(qid, row)`` of each query's ``kk`` smallest scores in
    a ``(Q, b)`` score matrix (all b when b <= kk), in no particular order:
    an exhaustive scan's per-batch cut before ``top_k`` merges the batches."""
    kk = min(kk, scores.shape[1])
    rows = np.argpartition(scores, kk - 1, axis=1)[:, :kk]
    return np.repeat(np.arange(len(scores)), kk), rows.ravel()


def exact_dists(store: VectorStore, pairs: pd.DataFrame, queries: np.ndarray) -> pd.DataFrame:
    """Exact Euclidean distance of each ``(qid, id)`` pair: ``(qid, id, dist)``.

    The one exact-distance kernel of HD-Index's re-rank and the C2LSH, QALSH,
    SRS and OPQ checks. Each pair's row is found in ``store`` by bisecting
    its sorted ids and scored on the driver, reading only those rows. One
    row per input pair whose id is in ``store``, in input order.
    """
    qid = pairs["qid"].to_numpy(dtype=np.int64)
    pid = pairs["id"].to_numpy(dtype=np.int64)
    rows = np.minimum(np.searchsorted(store.ids, pid), len(store.ids) - 1)
    hit = store.ids[rows] == pid
    rows, qid = rows[hit], qid[hit]
    return pd.DataFrame(
        {"qid": qid, "id": pid[hit], "dist": euclidean(store.vecs[rows], queries[qid])}
    )


def key_limbs(keys) -> np.ndarray:
    """Fixed-width big-endian byte keys as an (n, L) int64 array of 32-bit
    limbs, most significant first; the keys are left-padded with zero bytes
    to L whole 4-byte words, so any key width works."""
    keys = list(keys)
    width = len(keys[0]) if keys else 0
    return _byte_limbs(np.frombuffer(b"".join(keys), np.uint8).reshape(len(keys), width))


def _byte_limbs(packed: np.ndarray) -> np.ndarray:
    """:func:`key_limbs` of keys given as the rows of an (n, width) uint8 array."""
    n, width = packed.shape
    raw = np.zeros((n, -(-max(width, 1) // 4) * 4), dtype=np.uint8)
    raw[:, raw.shape[1] - width :] = packed
    return raw.view(">u4").astype(np.int64)


def key_dist(keys: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Exact ``|key - q|`` as limbs in [0, 2^32): ``keys`` (n, L) and ``q``
    (L,) from :func:`key_limbs`. Lexicographic order of the rows is numeric
    order of the distances."""
    d = keys - q
    lead = d[np.arange(len(d)), (d != 0).argmax(1)]  # 0 when keys == q
    d[lead < 0] *= -1
    for i in range(d.shape[1] - 1, 0, -1):  # borrow pass, least significant first
        low = d[:, i] < 0
        d[low, i] += 1 << 32
        d[low, i - 1] -= 1
    return d


def key_order(limbs: list, ids: np.ndarray) -> np.ndarray:
    """Exact row order by (key distance, id); the distance is given as its
    limb columns, most significant first (:func:`key_dist`).

    One sort runs on a float prefix of each distance: its leading nonzero
    limb and the limb below it, added at their binary scales and rounded
    once. The prefix never decreases as the distance grows, and rows tie on
    it only when they agree to about 53 leading bits or it overflows to
    inf; those rows alone are re-sorted by the full limbs and id, so wide
    keys cost a few passes, not one per limb.
    """
    prefix = np.zeros(len(ids))
    pending = np.arange(len(ids))  # rows whose leading nonzero limb is not found yet
    with np.errstate(over="ignore"):  # keys beyond ~1020 bits: inf, still monotone
        for i, limb in enumerate(limbs):
            v = limb[pending]
            rows, lead = pending[v != 0], v[v != 0]
            scale = 32 * (len(limbs) - 1 - i)
            prefix[rows] = np.ldexp(lead.astype(np.float64), scale)
            if i + 1 < len(limbs):
                prefix[rows] += np.ldexp(limbs[i + 1][rows].astype(np.float64), scale - 32)
            pending = pending[v == 0]
            if len(pending) == 0:
                break
    order = np.argsort(prefix)
    p = prefix[order]
    tie = p[1:] == p[:-1]
    if tie.any():
        # Sorting the tied rows by (limbs, id) orders each run exactly and
        # keeps the runs, which the prefix already ordered, in place.
        in_run = np.r_[tie, False] | np.r_[False, tie]
        run = order[in_run]
        order[in_run] = run[np.lexsort([ids[run], *[limb[run] for limb in reversed(limbs)]])]
    return order


def _tree_runs(batches):
    """``(tree_id, table)`` for each run of one tree's pages in a stream of
    Arrow batches, the run's slices gathered into one table."""
    tree, parts = None, []
    for batch in batches:
        trees = batch.column(TREE_COL).to_numpy()
        starts = np.flatnonzero(np.r_[True, trees[1:] != trees[:-1]]) if len(trees) else []
        for s, e in zip(starts, [*starts[1:], len(trees)]):
            if trees[s] != tree and parts:
                yield tree, pa.Table.from_batches(parts)
                parts = []
            tree = trees[s]
            parts.append(batch.slice(s, e - s))
    if parts:
        yield tree, pa.Table.from_batches(parts)


def curve_candidates(index, queries: np.ndarray, alpha: int, finish, cols=()):
    """The entries each tree keeps for each query, cut next to the data.

    The candidate stage shared by HD-Index and Multicurves. ``index`` has
    ``params``, ``hierarchies`` and the page table ``pages``, one row per
    leaf; ``queries`` is a batch that passed :func:`check_batch`. Each
    (tree, query) pair gets its leaf window from the fence hierarchy, and
    the windows are broadcast to one ``mapInArrow`` pass over ``pages``.
    Each tree must lie whole in one partition of ``pages``: the kernel
    gathers a tree's pages into one table and raises, naming the tree, when
    one of its windows does not hold the entries its fences count. Only the
    pages inside some window are decoded, straight from their Arrow buffers.
    Per window it takes the alpha entries nearest by (exact ``|key - q|``,
    id) and calls ``finish(qid, P)`` on their payload rows P, a (rows,
    width) float64 matrix in that order; ``finish`` returns the positions of
    the rows to keep and a dict with one float array per name in ``cols``,
    aligned with those positions.

    Returns a pandas frame ``(tree_id, qid, id, *cols)`` of the kept
    entries, sorted by tree_id and qid, each (tree, query) in the order
    ``finish`` kept them.
    """
    qkeys_per_tree = query_hilbert_keys(index, queries)
    windows = np.array(
        [
            (t, qid, lo, hi, hier.cum[hi + 1] - hier.cum[lo])
            for t, (hier, qkeys) in enumerate(zip(index.hierarchies, qkeys_per_tree))
            for qid, qk in enumerate(qkeys)
            for lo, hi in [hier.window(hier.lookup(qk), alpha)]
        ],
        dtype=np.int64,
    )  # (tree_id, qid, lo_leaf, hi_leaf, rows), sorted by tree_id
    qlimbs = key_limbs(np.concatenate(qkeys_per_tree))
    b = index.pages.sparkSession.sparkContext.broadcast((windows, qlimbs))
    schema = StructType(
        [StructField(c, LongType()) for c in [TREE_COL, "qid", "id"]]
        + [StructField(c, DoubleType()) for c in cols]
    )

    def cut(batches):
        win, qk = b.value
        for t, pages in _tree_runs(batches):
            first, last = np.searchsorted(win[:, 0], [t, t + 1])
            qids, w_lo, w_hi, w_rows = win[first:last, 1:].T
            leaf = pages.column("leaf_id").to_numpy()
            order = np.argsort(leaf, kind="stable")
            counts = pages.column("rows").to_numpy()[order]
            lo = np.searchsorted(leaf[order], w_lo, "left")
            hi = np.searchsorted(leaf[order], w_hi, "right")
            cum = np.r_[0, np.cumsum(counts)]
            held = cum[hi] - cum[lo]
            short = np.flatnonzero(held != w_rows)
            if len(short):
                w = short[0]
                raise RuntimeError(
                    f"tree {t}: the window of query {qids[w]} holds {held[w]} of its "
                    f"{w_rows[w]} rows in this partition of pages; each tree must lie "
                    "whole in one partition"
                )
            # Decode only the pages inside some window, kept in leaf order.
            n = len(order) + 1
            inside = np.cumsum(np.bincount(lo, minlength=n) - np.bincount(hi, minlength=n))[:-1] > 0
            kept_pages = pages.take(order[inside])
            start = np.r_[0, np.cumsum(counts[inside])]  # decoded page -> first entry
            slot = np.cumsum(inside) - 1  # leaf-order page -> decoded page
            ids = binary_values(kept_pages.column("ids"), np.int64)
            keys = _byte_limbs(binary_values(kept_pages.column("keys"), np.uint8).reshape(len(ids), -1))
            P = binary_values(kept_pages.column("payload"), np.float64).reshape(len(ids), -1)
            kept, kept_qid, extra = [], [], {c: [] for c in cols}
            for w, qid in enumerate(qids):
                r = np.arange(start[slot[lo[w]]], start[slot[hi[w] - 1] + 1])
                r = r[key_order(list(key_dist(keys[r], qk[first + w]).T), ids[r])[:alpha]]
                keep, scores = finish(int(qid), P[r])
                kept.append(r[keep])
                kept_qid.append(np.full(len(keep), qid))
                for c in cols:
                    extra[c].append(scores[c])
            kept = np.concatenate(kept)
            yield pa.RecordBatch.from_pydict(
                {TREE_COL: np.full(len(kept), t), "qid": np.concatenate(kept_qid),
                 "id": ids[kept], **{c: np.concatenate(v) for c, v in extra.items()}}
            )

    got = index.pages.mapInArrow(cut, schema).toPandas()
    return got.sort_values([TREE_COL, "qid"], kind="stable", ignore_index=True)


def knn_query(
    index: HDIndex,
    queries: np.ndarray,
    k: int,
    *,
    alpha: int | None = None,
    beta: int | None = None,
    gamma: int | None = None,
    filters: str = "tri",
    return_stats: bool = False,
):
    """Answer kANN for a batch of queries (Algo 2).

    ``filters``: 'tri' (recommended — triangular only, beta unused),
    'both' (triangular to beta, which defaults to alpha, then Ptolemaic to
    gamma), or
    'none' (all alpha candidates go to the exact phase; with alpha >= n this
    makes the query exact, used as a correctness oracle in tests).
    The funnel sizes must satisfy gamma >= 1, gamma <= alpha in 'tri' mode
    and 1 <= gamma <= beta <= alpha in 'both' mode; else ValueError.

    Queries may lie outside [domain_lo, domain_hi]: only their Hilbert keys
    clamp, to the nearest grid cell. The reference distances, the filter
    bounds and the exact distances use the query as given, so every
    returned distance is exact to it.

    ``return_stats=True`` also returns ``mean_kappa`` (distinct candidates
    per query), ``short_results`` (queries with fewer than k rows), and the
    alpha and gamma used; they come from the collected candidates, at no
    extra Spark cost.
    """
    p = index.params
    alpha = alpha if alpha is not None else p.alpha
    beta = beta if beta is not None else alpha
    gamma = gamma if gamma is not None else p.effective_gamma
    if filters not in ("tri", "both", "none"):
        raise ValueError(f"unknown filter mode {filters!r}")
    queries = check_batch(queries, p.nu, k, alpha)
    if gamma < 1:
        raise ValueError(f"gamma must be >= 1, got {gamma}")
    if filters == "tri" and gamma > alpha:
        raise ValueError(f"need gamma <= alpha, got gamma={gamma}, alpha={alpha}")
    if filters == "both" and not gamma <= beta <= alpha:
        raise ValueError(
            f"need 1 <= gamma <= beta <= alpha, got {gamma}, {beta}, {alpha}"
        )
    if len(queries) == 0:
        result = empty_result()
        if return_stats:
            return result, {
                "mean_kappa": float("nan"), "short_results": 0,
                "alpha": alpha, "gamma": gamma,
            }
        return result
    sc = index.pages.sparkSession.sparkContext

    b_qr = sc.broadcast(euclidean(queries[:, None], index.ref_vectors))  # (Q, m)
    b_rr = sc.broadcast(index.ref_pairwise)

    def funnel(qid, rdist):
        """Algo 2's cut of one (tree, query)'s alpha rows, given in key
        order: gamma smallest by Eq. 5, or beta by it and then gamma of
        those by Eq. 6; stable sorts keep ties in the order given."""
        if filters == "none":
            return np.arange(len(rdist)), {}
        qr = b_qr.value[qid]
        keep = np.argsort(triangular_bounds(qr, rdist), kind="stable")
        if filters == "tri":
            return keep[:gamma], {}
        keep = keep[:beta]
        pto = ptolemaic_bounds(qr, rdist[keep], b_rr.value)
        return keep[np.argsort(pto, kind="stable")[:gamma]], {}

    # --- alpha nearest by key and the filter funnel, per (tree, query) ------
    cands = curve_candidates(index, queries, alpha, funnel)
    pairs = cands[["qid", "id"]].drop_duplicates()

    # --- exact re-rank over the candidate union C (kappa <= tau*gamma) ----
    result = top_k(exact_dists(index.store, pairs, queries), k)

    if return_stats:
        rows = np.bincount(result["qid"], minlength=len(queries))
        return result, {
            "mean_kappa": float(pairs.groupby("qid").size().mean()),
            "short_results": int((rows < k).sum()),
            "alpha": alpha,
            "gamma": gamma,
        }
    return result
