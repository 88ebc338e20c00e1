"""Tests for the C2LSH and QALSH baselines and their shared search loop."""
import numpy as np
import pandas as pd
import pytest

from repro.baselines.c2lsh import knn_c2lsh
from repro.baselines.linear_scan import bruteforce_topk
from repro.baselines.qalsh import knn_qalsh
from repro.core.build import vector_store
from repro.core.query import exact_dists
from repro.metrics import recall_at_k


# --- shared: exact_dists -----------------------------------------------------

def test_exact_check_distances(spark, tiny_df, tiny_xq):
    X, Q = tiny_xq
    pairs = pd.DataFrame({"qid": [0, 0, 1], "id": [3, 7, 3]})
    got = exact_dists(vector_store(tiny_df), pairs, Q)
    assert len(got) == 3
    assert sorted(zip(got["qid"], got["id"])) == [(0, 3), (0, 7), (1, 3)]
    for _, row in got.iterrows():
        true = np.sqrt(((X[int(row["id"])] - Q[int(row["qid"])]) ** 2).sum())
        assert row["dist"] == pytest.approx(true, abs=1e-9)


def test_exact_check_empty(spark, tiny_df, tiny_xq):
    _, Q = tiny_xq
    got = exact_dists(vector_store(tiny_df), pd.DataFrame(columns=["qid", "id"]), Q)
    assert got.empty


# --- C2LSH -------------------------------------------------------------------

def test_c2lsh_hashes_match_formula(tiny_c2lsh, tiny_xq):
    X, _ = tiny_xq
    pdf = tiny_c2lsh.hashed.select("id", "h").limit(30).toPandas()
    for _, row in pdf.iterrows():
        expected = np.floor((X[int(row["id"])] @ tiny_c2lsh.A.T + tiny_c2lsh.b) / tiny_c2lsh.w).astype(
            np.int64
        )
        assert np.array_equal(np.asarray(row["h"]), expected)


def test_c2lsh_close_points_collide_more(tiny_c2lsh, tiny_xq):
    """LSH property: collision count decreases with distance."""
    X, _ = tiny_xq
    h = np.floor((X @ tiny_c2lsh.A.T + tiny_c2lsh.b) / tiny_c2lsh.w).astype(np.int64)
    d = np.sqrt(((X - X[0]) ** 2).sum(1))
    coll = (h == h[0]).sum(1)
    near = coll[d < np.quantile(d, 0.05)].mean()
    far = coll[d > np.quantile(d, 0.95)].mean()
    assert near > far


def test_c2lsh_returns_k_sorted(tiny_c2lsh, tiny_xq):
    _, Q = tiny_xq
    got = knn_c2lsh(tiny_c2lsh, Q[:4], k=5)
    for _, grp in got.groupby("qid"):
        assert len(grp) <= 5
        d = grp.sort_values("rank")["dist"].to_numpy()
        assert (np.diff(d) >= -1e-12).all()


def test_c2lsh_recall_reasonable(tiny_c2lsh, tiny_xq):
    X, Q = tiny_xq
    got = knn_c2lsh(tiny_c2lsh, Q, k=10, beta_n=150)
    ref = bruteforce_topk(X, Q, k=10)
    recs = []
    for qid in range(len(Q)):
        mine = got[got["qid"] == qid].sort_values("rank")["id"].tolist()
        true = ref[ref["qid"] == qid].sort_values("rank")["id"].tolist()
        recs.append(recall_at_k(mine, true, 10))
    assert np.mean(recs) > 0.3  # approximate, but far above chance (10/600)


def test_c2lsh_self_query(tiny_c2lsh, tiny_xq):
    X, _ = tiny_xq
    got = knn_c2lsh(tiny_c2lsh, X[[11]], k=3)
    assert got.iloc[0]["id"] == 11
    assert got.iloc[0]["dist"] == pytest.approx(0.0)


# --- QALSH -------------------------------------------------------------------

def test_qalsh_projections_match_formula(tiny_qalsh, tiny_xq):
    X, _ = tiny_xq
    pdf = tiny_qalsh.projected.select("id", "p").limit(30).toPandas()
    for _, row in pdf.iterrows():
        assert np.allclose(np.asarray(row["p"]), X[int(row["id"])] @ tiny_qalsh.A.T, atol=1e-9)


def test_qalsh_query_anchored_collision(tiny_qalsh, tiny_xq):
    """A query collides with its own database copy in every function at any
    level — the query-aware bucket always contains the anchor."""
    X, _ = tiny_xq
    p = X[5] @ tiny_qalsh.A.T
    assert np.all(np.abs(p - p) <= tiny_qalsh.w / 2)  # trivially, |0| <= w/2


def test_qalsh_returns_k_sorted(tiny_qalsh, tiny_xq):
    _, Q = tiny_xq
    got = knn_qalsh(tiny_qalsh, Q[:4], k=5)
    for _, grp in got.groupby("qid"):
        assert len(grp) <= 5
        d = grp.sort_values("rank")["dist"].to_numpy()
        assert (np.diff(d) >= -1e-12).all()


def test_qalsh_recall_at_least_c2lsh_shape(tiny_qalsh, tiny_c2lsh, tiny_xq):
    """Paper shape: query-aware buckets give QALSH higher quality than C2LSH
    at matched budgets (allow slack — both are randomised)."""
    X, Q = tiny_xq
    ref = bruteforce_topk(X, Q, k=10)
    def mean_recall(got):
        recs = []
        for qid in range(len(Q)):
            mine = got[got["qid"] == qid].sort_values("rank")["id"].tolist()
            true = ref[ref["qid"] == qid].sort_values("rank")["id"].tolist()
            recs.append(recall_at_k(mine, true, 10))
        return float(np.mean(recs))

    r_qa = mean_recall(knn_qalsh(tiny_qalsh, Q, k=10, beta_n=150))
    r_c2 = mean_recall(knn_c2lsh(tiny_c2lsh, Q, k=10, beta_n=150))
    assert r_qa >= r_c2 - 0.15


def test_qalsh_self_query(tiny_qalsh, tiny_xq):
    X, _ = tiny_xq
    got = knn_qalsh(tiny_qalsh, X[[23]], k=3)
    assert got.iloc[0]["id"] == 23
    assert got.iloc[0]["dist"] == pytest.approx(0.0)
