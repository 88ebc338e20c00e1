"""Tests for the Multicurves baseline."""
import numpy as np
import pandas as pd
import pytest

from repro.baselines.linear_scan import bruteforce_topk
from repro.baselines.multicurves import knn_multicurves, mc_leaf_order
from repro.metrics import map_at_k


@pytest.fixture(scope="module")
def mc(tiny_mc):
    return tiny_mc


def test_leaf_order_full_descriptor_is_tiny():
    """Sec. 3.2's point: with the whole 128-dim descriptor in the leaf only
    ~4 entries fit a 4 KB page (3 once key+pointer overheads count)."""
    assert mc_leaf_order(16, 8, 128) == 3
    assert mc_leaf_order(16, 8, 128) < 63  # vs HD-Index's Table 3 order


def test_leaf_order_at_least_one_even_for_huge_nu():
    assert mc_leaf_order(86, 16, 1369) == 1


def test_index_shape(mc, tiny_params, tiny_xq):
    X, _ = tiny_xq
    assert len(mc.trees) == tiny_params.tau
    for t in mc.trees:
        assert t.count() == len(X)
    assert mc.leaf_order == mc_leaf_order(
        tiny_params.eta, tiny_params.omega, tiny_params.nu
    )


def test_vectors_stored_in_leaves(mc, tiny_xq):
    X, _ = tiny_xq
    pdf = mc.trees[0].select("id", "vec").limit(20).toPandas()
    for _, row in pdf.iterrows():
        assert np.allclose(np.asarray(row["vec"]), X[int(row["id"])])


def test_exact_when_alpha_covers_all(mc, tiny_xq):
    X, Q = tiny_xq
    got = knn_multicurves(mc, Q[:4], k=10, alpha=len(X))
    ref = bruteforce_topk(X, Q[:4], k=10)
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), ref.reset_index(drop=True), check_dtype=False
    )


def test_good_map_on_clustered_data(mc, tiny_xq, tiny_truth):
    X, Q = tiny_xq
    got = knn_multicurves(mc, Q, k=10, alpha=64)
    truth = [g.sort_values("rank")["id"].tolist() for _, g in tiny_truth.groupby("qid")]
    mine = [g.sort_values("rank")["id"].tolist() for _, g in got.groupby("qid")]
    assert map_at_k(mine, truth, 10) > 0.6


def test_self_query_rank_one(mc, tiny_xq):
    X, _ = tiny_xq
    got = knn_multicurves(mc, X[[9]], k=3, alpha=32)
    assert got.iloc[0]["id"] == 9


@pytest.mark.parametrize(
    "queries,k,alpha",
    [
        (np.zeros((2, 3)), 5, 32),  # wrong dimensionality
        (np.zeros(16), 5, 32),  # one query, not a batch
        (np.zeros((2, 16)), 0, 32),
        (np.zeros((2, 16)), 5, 0),
        (np.array([[np.nan] + [0.0] * 15]), 5, 32),
        (np.full((1, 16), -np.inf), 5, 32),
    ],
    ids=["dims", "1d", "k0", "alpha0", "nan", "inf"],
)
def test_multicurves_rejects_bad_input(mc, queries, k, alpha):
    with pytest.raises(ValueError):
        knn_multicurves(mc, queries, k=k, alpha=alpha)


def test_multicurves_empty_batch(mc):
    got = knn_multicurves(mc, np.zeros((0, 16)), k=5, alpha=32)
    assert list(got.columns) == ["qid", "rank", "id", "dist"] and got.empty
