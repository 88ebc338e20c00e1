"""Tests for the SRS baseline."""
import numpy as np
import pandas as pd
import pytest

from repro.baselines.linear_scan import bruteforce_topk
from repro.baselines.srs import build_srs, knn_srs
from repro.metrics import recall_at_k


@pytest.fixture(scope="module")
def srs(spark, tiny_df):
    return build_srs(spark, tiny_df, seed=0)


def test_index_is_tiny(srs, tiny_xq):
    """The point of SRS: the index is n x 6 floats regardless of nu."""
    X, _ = tiny_xq
    pdf = srs.projected.toPandas()
    assert len(pdf) == len(X)
    assert all(len(p) == 6 for p in pdf["p"])


def test_projections_match_formula(srs, tiny_xq):
    X, _ = tiny_xq
    pdf = srs.projected.limit(25).toPandas()
    for _, row in pdf.iterrows():
        assert np.allclose(np.asarray(row["p"]), X[int(row["id"])] @ srs.A.T, atol=1e-9)


def test_full_budget_no_termination_is_exact(srs, tiny_xq):
    """t=1 with the termination test disabled scans everything -> exact."""
    X, Q = tiny_xq
    got = knn_srs(srs, Q[:4], k=8, t=1.0, c=1e9)
    ref = bruteforce_topk(X, Q[:4], k=8)
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), ref.reset_index(drop=True), check_dtype=False
    )


def test_projected_distance_correlates_with_true(srs, tiny_xq):
    """2-stable projections preserve distance order in expectation — the
    premise of SRS's ordered scan."""
    X, _ = tiny_xq
    P = X @ srs.A.T
    d_true = np.sqrt(((X - X[0]) ** 2).sum(1))
    d_proj = np.sqrt(((P - P[0]) ** 2).sum(1))
    rho = np.corrcoef(d_true, d_proj)[0, 1]
    assert rho > 0.5


def test_default_budget_recall(srs, tiny_xq):
    X, Q = tiny_xq
    got = knn_srs(srs, Q, k=10, min_examined=120)
    ref = bruteforce_topk(X, Q, k=10)
    recs = []
    for qid in range(len(Q)):
        mine = got[got["qid"] == qid].sort_values("rank")["id"].tolist()
        true = ref[ref["qid"] == qid].sort_values("rank")["id"].tolist()
        recs.append(recall_at_k(mine, true, 10))
    assert np.mean(recs) > 0.4


def test_smaller_budget_not_better(srs, tiny_xq):
    """Examined-fraction budget controls quality monotonically (weakly)."""
    X, Q = tiny_xq
    ref = bruteforce_topk(X, Q, k=10)

    def mr(got):
        recs = []
        for qid in range(len(Q)):
            mine = got[got["qid"] == qid].sort_values("rank")["id"].tolist()
            true = ref[ref["qid"] == qid].sort_values("rank")["id"].tolist()
            recs.append(recall_at_k(mine, true, 10))
        return float(np.mean(recs))

    small = mr(knn_srs(srs, Q, k=10, min_examined=30, c=1e9))
    large = mr(knn_srs(srs, Q, k=10, min_examined=400, c=1e9))
    assert large >= small - 0.05


def test_self_query(srs, tiny_xq):
    X, _ = tiny_xq
    got = knn_srs(srs, X[[31]], k=3)
    assert got.iloc[0]["id"] == 31
    assert got.iloc[0]["dist"] == pytest.approx(0.0)
