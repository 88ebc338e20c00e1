"""kANN querying over HD-Index (Algo 2) as a batched Spark dataflow.

For a batch of queries the three phases of the paper map onto:

1. **candidate retrieval** (``curve_candidates``, shared with the
   Multicurves baseline) — on the driver, each (query, tree) pair bisects
   the leaf fences to a centre leaf and widens to the smallest leaf window
   guaranteed to contain the alpha nearest-by-key entries. The
   ``(tree_id, qid, lo_leaf, hi_leaf)`` windows and the query keys are
   broadcast, and one ``mapInPandas`` pass over the index's tree union
   ``leaves`` keeps, for every window an Arrow batch overlaps, the batch's
   alpha rows nearest by exact ``|key - q|`` (int64 limbs of 60 bits, ties
   by id), scored next to the data. The driver merges the batch-local sets
   into the exact alpha nearest per (tree, query). No join and no shuffle,
   but the pass reads every row of every tree: the windows bound what is
   kept, not what is scanned, so this is not yet the paper's
   O(log n + alpha/Omega) page reads.
2. **filter funnel** — the kernel scores each kept row with the triangular
   bound (Eq. 5) and, in ``both`` mode, the Ptolemaic bound (Eq. 6), using
   only the leaf-resident reference distances, never the vectors, exactly
   the paper's I/O argument. The driver then keeps per (tree, query) the
   gamma rows smallest by the triangular bound (``tri``), or beta by it and
   then gamma by the Ptolemaic bound (``both``), ties in key order.
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
from pyspark.sql.types import DoubleType, LongType, StructField, StructType

from repro.core.build import HDIndex, VectorStore, subspace_keys
from repro.dist import euclidean

__all__ = [
    "knn_query", "curve_candidates", "key_limbs", "key_dist", "key_order", "exact_dists", "top_k",
    "DIST_SCHEMA", "smallest_per_query", "check_batch", "empty_result", "query_hilbert_keys",
    "triangular_bounds", "ptolemaic_bounds",
]


def query_hilbert_keys(index: HDIndex, queries: np.ndarray) -> list[np.ndarray]:
    """Hilbert key (hex) of every query in every tree's sub-space.

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


_LIMB_HEX = 15  # hex digits per int64 limb: 60 bits, so limb differences and borrows fit


def key_limbs(keys) -> np.ndarray:
    """Fixed-width lowercase hex keys as an (n, L) int64 array of 60-bit
    limbs, most significant first; the keys are left-padded with zeros to L
    limbs of 15 hex digits, so any key width works."""
    keys = np.asarray(keys, dtype=str)
    width = keys.dtype.itemsize // 4
    n_limbs = max(1, -(-width // _LIMB_HEX))
    codes = keys.view(np.uint32).reshape(len(keys), width).astype(np.int64)
    digits = np.zeros((len(keys), n_limbs * _LIMB_HEX), dtype=np.int64)
    digits[:, digits.shape[1] - width :] = codes - np.where(codes > 57, 87, 48)
    limbs = np.zeros((len(keys), n_limbs), dtype=np.int64)
    for j in range(_LIMB_HEX):  # Horner over each limb's digits
        limbs = limbs * 16 + digits[:, j::_LIMB_HEX]
    return limbs


def key_dist(keys: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Exact ``|key - q|`` as limbs in [0, 2^60): ``keys`` (n, L) and ``q``
    (L,) from :func:`key_limbs`. Lexicographic order of the rows is numeric
    order of the distances."""
    d = keys - q
    lead = d[np.arange(len(d)), (d != 0).argmax(1)]  # 0 when keys == q
    d[lead < 0] *= -1
    for i in range(d.shape[1] - 1, 0, -1):  # borrow pass, least significant first
        low = d[:, i] < 0
        d[low, i] += 1 << 60
        d[low, i - 1] -= 1
    return d


def key_order(limbs: list, ids: np.ndarray, group: np.ndarray | None = None) -> np.ndarray:
    """Exact row order by (``group``, key distance, id); the distance is given
    as its limb columns, most significant first (:func:`key_dist`).

    One sort runs on a float prefix of each distance: its leading nonzero
    limb at that limb's binary scale, then, when that limb is exact in a
    float (< 2^53), the limb below it. The prefix never decreases as the
    distance grows, and rows tie on it only when their leading 53 or more
    bits agree; those rows alone are re-sorted by the full limbs and id, so
    wide keys cost a few passes, not one per limb.
    """
    hi, lo = np.zeros(len(ids)), np.zeros(len(ids))
    pending = np.arange(len(ids))  # rows whose leading nonzero limb is not found yet
    with np.errstate(over="ignore"):  # keys beyond ~1020 bits: inf, still monotone
        for i, limb in enumerate(limbs):
            v = limb[pending]
            rows, lead = pending[v != 0], v[v != 0]
            hi[rows] = np.ldexp(lead.astype(np.float64), 60 * (len(limbs) - 1 - i))
            if i + 1 < len(limbs):
                fits = (lead < 1 << 53) & np.isfinite(hi[rows])
                lo[rows] = np.where(fits, limbs[i + 1][rows].astype(np.float64), 0.0)
            pending = pending[v == 0]
            if len(pending) == 0:
                break
    major = [] if group is None else [group]
    order = np.lexsort([lo, hi, *major])
    tie = np.ones(max(len(order) - 1, 0), dtype=bool)
    for key in [hi, lo, *major]:
        k = key[order]
        tie &= k[1:] == k[:-1]
    if tie.any():
        # Sorting the tied rows by (group, limbs, id) orders each run exactly
        # and keeps the runs, which the prefix already ordered, in place.
        in_run = np.r_[tie, False] | np.r_[False, tie]
        run = order[in_run]
        exact = [ids[run], *[limb[run] for limb in reversed(limbs)], *[m[run] for m in major]]
        order[in_run] = run[np.lexsort(exact)]
    return order


def _group_of(df: pd.DataFrame) -> np.ndarray:
    qid = df["qid"].to_numpy()
    return df["tree_id"].to_numpy() * (qid.max() + 1) + qid


def _head_per_group(df: pd.DataFrame, order: np.ndarray, n: int) -> pd.DataFrame:
    """The rows of ``df`` in ``order``, which must sort them by (tree_id, qid)
    first, keeping the first ``n`` of every (tree_id, qid) group."""
    group = _group_of(df)[order]
    starts = np.flatnonzero(np.r_[True, group[1:] != group[:-1]])
    rank = np.arange(len(order)) - np.repeat(starts, np.diff(np.r_[starts, len(order)]))
    return df.iloc[order[rank < n]].reset_index(drop=True)


def _head_by(df: pd.DataFrame, col: str, n: int) -> pd.DataFrame:
    """The ``n`` rows smallest by ``col`` per (tree_id, qid), ties kept in
    their order in ``df``."""
    return _head_per_group(df, np.lexsort([df[col].to_numpy(), _group_of(df)]), n)


def curve_candidates(index, queries: np.ndarray, alpha: int, payload: str, score, score_cols):
    """The alpha entries nearest by Hilbert key, per (tree, query).

    The candidate stage shared by HD-Index and Multicurves. ``index`` has
    ``params``, ``hierarchies`` and the tree union ``leaves``; ``queries``
    is a batch that passed :func:`check_batch`. Each (tree, query) pair gets
    its leaf window from the fence hierarchy, and the windows are broadcast.
    One ``mapInPandas`` pass over ``leaves`` keeps, per window and Arrow
    batch, the batch's alpha rows nearest by (exact ``|key - q|``, id) and
    scores them next to the data: ``score(qid, P)`` maps their ``payload``
    rows, a (rows, width) matrix, to a dict with one float array per name in
    ``score_cols``. The driver merges the batch-local sets.

    Returns a pandas frame ``(tree_id, qid, id, *score_cols)`` holding
    exactly the alpha rows of each tree nearest to each query by (key
    distance, id) — every row of a smaller tree — sorted by tree_id, qid and
    then that order.
    """
    qkeys_per_tree = query_hilbert_keys(index, queries)
    windows = np.array(
        [
            (t, qid, *hier.window(hier.lookup(qk), alpha))
            for t, (hier, qkeys) in enumerate(zip(index.hierarchies, qkeys_per_tree))
            for qid, qk in enumerate(qkeys)
        ],
        dtype=np.int64,
    )  # (tree_id, qid, lo_leaf, hi_leaf)
    qlimbs = key_limbs(np.concatenate(qkeys_per_tree))
    kd_cols = [f"kd{i}" for i in range(qlimbs.shape[1])]
    stride = max(h.n_leaves for h in index.hierarchies)
    b = index.leaves.sparkSession.sparkContext.broadcast((windows, qlimbs))
    schema = StructType(
        [StructField(c, LongType()) for c in ["tree_id", "qid", "id", *kd_cols]]
        + [StructField(c, DoubleType()) for c in score_cols]
    )

    def nearest_by_key(batches):
        win, qk = b.value
        first, last = win[:, 0] * stride + win[:, 2], win[:, 0] * stride + win[:, 3]
        for pdf in batches:
            # Rows sorted by (tree, leaf); each window is then one slice.
            pos = pdf["tree_id"].to_numpy() * stride + pdf["leaf_id"].to_numpy()
            order = np.argsort(pos, kind="stable")
            lo = np.searchsorted(pos[order], first, "left")
            hi = np.searchsorted(pos[order], last, "right")
            hit = np.flatnonzero(hi > lo)
            if len(hit) == 0:
                continue
            keys = key_limbs(pdf["hkey"].to_numpy())
            ids = pdf["id"].to_numpy()
            P = np.vstack(pdf[payload].to_numpy())
            parts = []
            for w in hit:
                rows = order[lo[w] : hi[w]]
                kd = key_dist(keys[rows], qk[w])
                sel = key_order(list(kd.T), ids[rows])[:alpha]
                rows, kd = rows[sel], kd[sel]
                cols = {"tree_id": np.full(len(rows), win[w, 0]),
                        "qid": np.full(len(rows), win[w, 1]), "id": ids[rows]}
                cols.update(zip(kd_cols, kd.T))
                cols.update(score(int(win[w, 1]), P[rows]))
                parts.append(pd.DataFrame(cols))
            yield pd.concat(parts, ignore_index=True)

    got = index.leaves.mapInPandas(nearest_by_key, schema).toPandas()
    order = key_order([got[c].to_numpy() for c in kd_cols], got["id"].to_numpy(), _group_of(got))
    return _head_per_group(got, order, alpha).drop(columns=kd_cols)


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
    'both' (triangular to beta then Ptolemaic to gamma), or
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
    beta = beta if beta is not None else p.effective_beta
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
    sc = index.leaves.sparkSession.sparkContext

    b_qr = sc.broadcast(euclidean(queries[:, None], index.ref_vectors))  # (Q, m)
    b_rr = sc.broadcast(index.ref_pairwise)
    score_cols = {"tri": ["tri"], "both": ["tri", "pto"], "none": []}[filters]

    def score(qid, rdist):
        qr = b_qr.value[qid]
        out = {}
        if "tri" in score_cols:
            out["tri"] = triangular_bounds(qr, rdist)
        if "pto" in score_cols:
            out["pto"] = ptolemaic_bounds(qr, rdist, b_rr.value)
        return out

    # --- filter funnel per (tree, query), on the alpha rows in key order ----
    cands = curve_candidates(index, queries, alpha, "rdist", score, score_cols)
    if filters == "tri":
        cands = _head_by(cands, "tri", gamma)
    elif filters == "both":
        cands = _head_by(_head_by(cands, "tri", beta), "pto", gamma)
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
