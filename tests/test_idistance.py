"""Tests for the iDistance baseline — it must be EXACT."""
import numpy as np
import pandas as pd
import pytest

from repro.baselines.idistance import build_idistance, knn_idistance
from repro.baselines.linear_scan import bruteforce_topk
from repro.dist import euclidean
from repro.synth_data import vectors_df


@pytest.fixture(scope="module")
def idx(spark, tiny_df):
    return build_idistance(spark, tiny_df, n_centers=8, seed=0)


def test_build_invariants(idx, tiny_xq):
    X, _ = tiny_xq
    assert idx.centers.shape[1] == X.shape[1]
    pdf = idx.keyed.select("id", "center_id", "cdist").toPandas().sort_values("id")
    assert pdf["id"].tolist() == list(range(len(X)))
    # every row sits in the partition of its nearest centre, keyed by the
    # exact distance to it
    d = np.sqrt(((X[:, None, :] - idx.centers[None, :, :]) ** 2).sum(-1))
    cid = pdf["center_id"].to_numpy()
    assert np.array_equal(cid, d.argmin(1))
    assert np.array_equal(pdf["cdist"].to_numpy(), euclidean(X, idx.centers[cid]))


def test_cdist_is_distance_to_nearest_center(idx, tiny_xq):
    X, _ = tiny_xq
    pdf = idx.keyed.select("id", "cdist").toPandas().sample(40, random_state=0)
    d = np.sqrt(((X[:, None, :] - idx.centers[None, :, :]) ** 2).sum(-1))
    for _, row in pdf.iterrows():
        assert row["cdist"] == pytest.approx(d[int(row["id"])].min(), abs=1e-6)


def test_exactness_vs_bruteforce(idx, tiny_xq):
    """The defining property: iDistance answers are exact."""
    X, Q = tiny_xq
    got = knn_idistance(idx, Q, k=10)
    pd.testing.assert_frame_equal(got, bruteforce_topk(X, Q, k=10), check_exact=True)


@pytest.fixture(scope="module")
def twice(spark, tiny_xq):
    """(X2, index): every tiny vector stored twice, under ids i and i + n."""
    X, _ = tiny_xq
    X2 = np.vstack([X, X])
    return X2, build_idistance(spark, vectors_df(spark, X2, n_partitions=3), n_centers=8)


@pytest.mark.parametrize("k", [1, 5, 10])
def test_exact_with_duplicate_vectors(spark, twice, tiny_xq, k):
    """Equal distances straddle the k-th cut and the chunk and batch edges,
    in 7-row Arrow batches too; ties still go to the lower id."""
    X2, index = twice
    _, Q = tiny_xq
    queries = np.vstack([Q, X2[[3, 250]]])
    ref = bruteforce_topk(X2, queries, k)
    pd.testing.assert_frame_equal(knn_idistance(index, queries, k), ref, check_exact=True)
    key = "spark.sql.execution.arrow.maxRecordsPerBatch"
    prev = spark.conf.get(key)
    spark.conf.set(key, "7")
    try:
        small = knn_idistance(index, queries, k)
    finally:
        spark.conf.set(key, prev)
    pd.testing.assert_frame_equal(small, ref, check_exact=True)


def test_query_runs_one_spark_job(idx, tiny_xq, spark_jobs):
    _, Q = tiny_xq
    assert spark_jobs(lambda: knn_idistance(idx, Q, k=10)) == 1


def test_exact_when_query_is_database_point(idx, tiny_xq):
    X, _ = tiny_xq
    got = knn_idistance(idx, X[[42]], k=3)
    assert got.iloc[0]["id"] == 42 and got.iloc[0]["dist"] == 0.0


def test_k_exceeds_n(idx, tiny_xq):
    X, Q = tiny_xq
    got = knn_idistance(idx, Q[:1], k=len(X) + 10)
    assert len(got) == len(X)
    pd.testing.assert_frame_equal(got, bruteforce_topk(X, Q[:1], len(X)), check_exact=True)
