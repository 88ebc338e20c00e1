"""Algo 2 against an independent NumPy reference built from the index's
trees and reference vectors: the alpha entries nearest by (|key - q|, id)
per (tree, query), the triangular cut to gamma (``tri``) or to beta and then
the Ptolemaic cut to gamma (``both``), ties in key order, the union across
trees, and the top k by (exact distance, id). ``knn_query`` must equal it
bit for bit in every filter mode."""
import numpy as np
import pandas as pd
import pytest

from repro.core.query import knn_query, query_hilbert_keys
from repro.dist import euclidean

ALPHA, BETA, GAMMA, K = 37, 20, 9, 10


def _cut(rows, bound, n):
    """The ``n`` rows smallest by ``bound``; ``rows`` come in key order,
    which the stable sort keeps among equal bounds."""
    return rows[np.argsort(bound, kind="stable")[:n]]


def reference_knn(index, X, queries, filters):
    qr = euclidean(queries[:, None], index.ref_vectors)  # (Q, m)
    rr = index.ref_pairwise
    pairs = [(i, j) for i in range(len(rr)) for j in range(i + 1, len(rr)) if rr[i, j] > 0]
    qkeys = query_hilbert_keys(index, queries)
    union = [set() for _ in queries]
    for t, tree in enumerate(index.trees):
        pdf = tree.select("id", "hkey", "rdist").toPandas()
        ids = pdf["id"].to_numpy()
        keys = [int.from_bytes(h, "big") for h in pdf["hkey"]]
        R = np.vstack(pdf["rdist"].to_numpy())
        for qid, qk in enumerate(qkeys[t]):
            q = int.from_bytes(qk, "big")
            near = sorted(range(len(ids)), key=lambda r: (abs(keys[r] - q), ids[r]))
            rows = np.array(near[:ALPHA])
            tri = np.abs(R[rows] - qr[qid]).max(axis=1)
            if filters == "tri":
                rows = _cut(rows, tri, GAMMA)
            elif filters == "both":
                rows = _cut(rows, tri, BETA)
                O = R[rows]
                pto = np.zeros(len(rows))
                for i, j in pairs:
                    lb = np.abs(qr[qid, i] * O[:, j] - qr[qid, j] * O[:, i]) / rr[i, j]
                    pto = np.maximum(pto, lb)
                rows = _cut(rows, pto, GAMMA)
            union[qid].update(ids[rows].tolist())
    out = []
    for qid, cands in enumerate(union):
        ids = np.array(sorted(cands), dtype=np.int64)
        dist = euclidean(X[ids], queries[qid])
        for rank, r in enumerate(np.lexsort([ids, dist])[:K], start=1):
            out.append((qid, rank, ids[r], dist[r]))
    return pd.DataFrame(out, columns=["qid", "rank", "id", "dist"]).astype(
        {"qid": "int64", "rank": "int64", "id": "int64", "dist": "float64"}
    )


@pytest.mark.parametrize("filters", ["tri", "both", "none"])
@pytest.mark.parametrize("which,data", [("tiny_index", "tiny_xq"), ("twice_index", "twice_x")])
def test_knn_query_equals_numpy_reference(request, tiny_xq, tiny_params, which, data, filters):
    """Queries include both domain corners, so windows reach both ends of
    every tree; on the twice-stored index key and distance ties straddle
    the alpha, beta, gamma and k cuts."""
    index = request.getfixturevalue(which)
    X = request.getfixturevalue(data)
    X = X[0] if isinstance(X, tuple) else X
    _, Q = tiny_xq
    lo, hi = tiny_params.domain_lo, tiny_params.domain_hi
    queries = np.vstack([Q, np.full(tiny_params.nu, lo), np.full(tiny_params.nu, hi)])
    got = knn_query(index, queries, k=K, alpha=ALPHA, beta=BETA, gamma=GAMMA, filters=filters)
    want = reference_knn(index, X, queries, filters)
    pd.testing.assert_frame_equal(got, want, check_exact=True)
