"""Every kNN method answers in one shape: ``(qid, rank, id, dist)``.

All methods rank through ``repro.core.query.top_k``; this pins the contract
that gives them, so Table 5 can compare them row for row.
"""
import numpy as np
import pytest

from repro.baselines.c2lsh import build_c2lsh, knn_c2lsh
from repro.baselines.hnsw import HNSW, knn_hnsw
from repro.baselines.idistance import build_idistance, knn_idistance
from repro.baselines.linear_scan import knn_linear_scan
from repro.baselines.multicurves import knn_multicurves
from repro.baselines.opq import build_opq, knn_opq
from repro.baselines.qalsh import build_qalsh, knn_qalsh
from repro.baselines.srs import build_srs, knn_srs
from repro.core.query import knn_query

K = 10


@pytest.fixture(scope="module")
def answers(spark, tiny_df, tiny_xq, tiny_index, tiny_mc):
    """method name -> its answer to the tiny queries at k=K."""
    X, Q = tiny_xq
    return {
        "hdindex": knn_query(tiny_index, Q, K),
        "multicurves": knn_multicurves(tiny_mc, Q, K, alpha=64),
        "linear": knn_linear_scan(tiny_df, Q, K),
        "c2lsh": knn_c2lsh(build_c2lsh(spark, tiny_df, m=16, seed=0), Q, K),
        "qalsh": knn_qalsh(build_qalsh(spark, tiny_df, m=16, seed=0), Q, K),
        "srs": knn_srs(build_srs(spark, tiny_df), Q, K),
        "opq": knn_opq(build_opq(spark, tiny_df, M=2, ksub=64, opq_iters=3), Q, K),
        "hnsw": knn_hnsw(HNSW(X), Q, K),
        "idistance": knn_idistance(build_idistance(spark, tiny_df, n_centers=8), Q, K),
    }


@pytest.mark.parametrize(
    "method",
    ["hdindex", "multicurves", "linear", "c2lsh", "qalsh", "srs", "opq", "hnsw", "idistance"],
)
def test_answer_contract(answers, tiny_xq, method):
    _, Q = tiny_xq
    res = answers[method]
    assert list(res.columns) == ["qid", "rank", "id", "dist"]
    assert [str(t) for t in res.dtypes] == ["int64", "int64", "int64", "float64"]
    assert set(res["qid"]) <= set(range(len(Q)))
    # rows ordered by (qid, rank), ranks 1..len within each query
    assert (np.diff(res["qid"].to_numpy()) >= 0).all()
    for _, g in res.groupby("qid"):
        assert 1 <= len(g) <= K
        assert g["rank"].tolist() == list(range(1, len(g) + 1))
        assert g["id"].is_unique
