"""Every kNN method answers in one shape: ``(qid, rank, id, dist)``.

All methods rank through ``repro.core.query.top_k``; this pins the contract
that gives them, so Table 5 can compare them row for row. The methods that
check their query batch share one input contract too: a ValueError on a bad
batch or k, and a typed empty answer to an empty batch.
"""
from functools import partial

import numpy as np
import pandas as pd
import pytest

from repro.baselines.c2lsh import knn_c2lsh
from repro.baselines.hnsw import HNSW, knn_hnsw
from repro.baselines.idistance import knn_idistance
from repro.baselines.linear_scan import knn_linear_scan
from repro.baselines.multicurves import knn_multicurves
from repro.baselines.opq import knn_opq
from repro.baselines.qalsh import knn_qalsh
from repro.baselines.srs import knn_srs
from repro.core.query import empty_result, knn_query

K = 10


@pytest.fixture(scope="module")
def methods(
    tiny_df, tiny_xq, tiny_index, tiny_mc, tiny_c2lsh, tiny_qalsh, tiny_srs, tiny_opq, tiny_idist
):
    """method name -> its query function ``(queries, k) -> answer``."""
    X, _ = tiny_xq
    return {
        "hdindex": partial(knn_query, tiny_index),
        "multicurves": partial(knn_multicurves, tiny_mc, alpha=64),
        "linear": partial(knn_linear_scan, tiny_df),
        "c2lsh": partial(knn_c2lsh, tiny_c2lsh),
        "qalsh": partial(knn_qalsh, tiny_qalsh),
        "srs": partial(knn_srs, tiny_srs),
        "opq": partial(knn_opq, tiny_opq),
        "hnsw": partial(knn_hnsw, HNSW(X)),
        "idistance": partial(knn_idistance, tiny_idist),
    }


@pytest.fixture(scope="module")
def answers(methods, tiny_xq):
    """method name -> its answer to the tiny queries at k=K."""
    _, Q = tiny_xq
    return {name: ask(Q, K) for name, ask in methods.items()}


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


# HD-Index and Multicurves, which also check alpha, have their own input
# tests (test_query_validation, test_multicurves_rejects_bad_input). Linear
# scan takes nu from the batch itself, because its DataFrame carries no nu
# without a Spark job, so it cannot reject a batch of the wrong width.
CHECKED = ["c2lsh", "qalsh", "srs", "opq", "hnsw", "idistance", "linear"]
BAD_INPUT = {
    "dims": (np.zeros((2, 3)), 5),  # wrong dimensionality
    "1d": (np.zeros(16), 5),  # one query, not a batch
    "k0": (np.zeros((2, 16)), 0),
    "nan": (np.array([[np.nan] + [0.0] * 15]), 5),
    "inf": (np.full((1, 16), -np.inf), 5),
}


@pytest.mark.parametrize(
    "method,case",
    [
        pytest.param(method, case, id=f"{method}-{case}")
        for method in CHECKED
        for case in BAD_INPUT
        if (method, case) != ("linear", "dims")
    ],
)
def test_rejects_bad_input(methods, method, case):
    queries, k = BAD_INPUT[case]
    with pytest.raises(ValueError):
        methods[method](queries, k)


@pytest.mark.parametrize("method", CHECKED)
def test_empty_batch_answers_typed_empty(methods, method):
    pd.testing.assert_frame_equal(methods[method](np.zeros((0, 16)), K), empty_result())
