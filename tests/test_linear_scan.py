"""Tests for the exact linear-scan baseline (ground truth generator)."""
import numpy as np
import pandas as pd

from repro.baselines.linear_scan import bruteforce_topk, knn_linear_scan
from repro.oracle import assert_equivalent


def test_matches_numpy_bruteforce(spark, tiny_df, tiny_xq):
    """Row for row, dtypes and distance bits included, on the queries and on
    base vectors used as queries."""
    X, Q = tiny_xq
    for queries in (Q, X[:4]):
        got = knn_linear_scan(tiny_df, queries, k=10)
        ref = bruteforce_topk(X, queries, k=10)
        pd.testing.assert_frame_equal(got, ref, check_exact=True)


def test_matches_duckdb_oracle(spark, tiny_df, tiny_xq):
    """Exact kNN expressed as SQL over unnested vectors must agree."""
    X, Q = tiny_xq
    k = 5
    got = spark.createDataFrame(knn_linear_scan(tiny_df, Q[:3], k))
    data_long = pd.DataFrame(
        {
            "id": np.repeat(np.arange(len(X)), X.shape[1]),
            "dim": np.tile(np.arange(X.shape[1]), len(X)),
            "val": X.ravel(),
        }
    )
    q_long = pd.DataFrame(
        {
            "qid": np.repeat(np.arange(3), X.shape[1]),
            "dim": np.tile(np.arange(X.shape[1]), 3),
            "val": Q[:3].ravel(),
        }
    )
    sql = f"""
        WITH d AS (
            SELECT q.qid, d.id, sqrt(sum((q.val - d.val) * (q.val - d.val))) AS dist
            FROM q_long q JOIN data_long d USING (dim)
            GROUP BY q.qid, d.id
        )
        SELECT qid, CAST(rank AS BIGINT) AS rank, id, dist FROM (
            SELECT qid, id, dist,
                   row_number() OVER (PARTITION BY qid ORDER BY dist, id) AS rank
            FROM d
        ) WHERE rank <= {k}
    """
    assert_equivalent(got, sql, data_long=data_long, q_long=q_long)


def test_k_larger_than_n(spark, tiny_df, tiny_xq):
    X, Q = tiny_xq
    got = knn_linear_scan(tiny_df, Q[:2], k=len(X) + 50)
    assert (got.groupby("qid").size() == len(X)).all()


def test_query_in_database_found_at_rank_one(spark, tiny_df, tiny_xq):
    X, _ = tiny_xq
    ids = [17, 1]
    got = knn_linear_scan(tiny_df, X[ids], k=3)
    first = got[got["rank"] == 1].set_index("qid")
    for qid, i in enumerate(ids):
        assert first.loc[qid, "id"] == i
        assert first.loc[qid, "dist"] == 0.0


def test_distances_nondecreasing_within_query(spark, tiny_df, tiny_xq):
    _, Q = tiny_xq
    got = knn_linear_scan(tiny_df, Q, k=10)
    for _, grp in got.groupby("qid"):
        d = grp.sort_values("rank")["dist"].to_numpy()
        assert (np.diff(d) >= -1e-12).all()


def test_bruteforce_tie_break_by_id():
    X = np.zeros((5, 3))
    q = np.zeros((1, 3))
    got = bruteforce_topk(X, q, k=3)
    assert got["id"].tolist() == [0, 1, 2]
