"""End-to-end tests for the HD-Index kANN query pipeline (Algo 2)."""
import numpy as np
import pandas as pd
import pytest

from repro.baselines.linear_scan import bruteforce_topk
from repro.core.build import build_hd_index, vector_store
from repro.core.query import exact_dists, knn_query, query_hilbert_keys, smallest_per_query
from repro.dist import euclidean
from repro.metrics import map_at_k, recall_at_k
from repro.synth_data import vectors_df


def _lists(df):
    return [g.sort_values("rank")["id"].tolist() for _, g in df.groupby("qid")]


def test_exact_when_alpha_covers_all_and_no_filters(tiny_index, tiny_xq):
    """alpha >= n with filters off degenerates to exact kNN — equals brute
    force row-for-row. This is the correctness oracle for the whole
    retrieval/re-rank dataflow."""
    X, Q = tiny_xq
    got = knn_query(tiny_index, Q, k=10, alpha=len(X), filters="none")
    ref = bruteforce_topk(X, Q, k=10)
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), ref.reset_index(drop=True), check_dtype=False
    )


def test_default_pipeline_high_recall_on_clustered_data(tiny_index, tiny_xq, tiny_truth):
    X, Q = tiny_xq
    got = knn_query(tiny_index, Q, k=10, alpha=64, gamma=32)
    truth = _lists(tiny_truth)
    mine = _lists(got)
    m = map_at_k(mine, truth, 10)
    assert m > 0.7, f"MAP@10 too low: {m}"


def test_ptolemaic_filter_not_worse_than_triangular(tiny_index, tiny_xq, tiny_truth):
    """Sec. 5.2.5: tri+Ptolemaic MAP >= tri-only MAP under heavy reduction."""
    X, Q = tiny_xq
    truth = _lists(tiny_truth)
    tri = knn_query(tiny_index, Q, k=10, alpha=64, gamma=8, filters="tri")
    both = knn_query(tiny_index, Q, k=10, alpha=64, beta=64, gamma=8, filters="both")
    m_tri = map_at_k(_lists(tri), truth, 10)
    m_both = map_at_k(_lists(both), truth, 10)
    assert m_both >= m_tri - 0.05


def test_both_beta_defaults_to_alpha(tiny_index, tiny_xq):
    """beta defaults to the alpha of the call, here not the index's 64."""
    _, Q = tiny_xq
    pd.testing.assert_frame_equal(
        knn_query(tiny_index, Q, k=10, alpha=48, gamma=8, filters="both"),
        knn_query(tiny_index, Q, k=10, alpha=48, beta=48, gamma=8, filters="both"),
        check_exact=True,
    )


def test_results_sorted_and_k_rows(tiny_index, tiny_xq):
    _, Q = tiny_xq
    got = knn_query(tiny_index, Q, k=7)
    for qid, grp in got.groupby("qid"):
        assert grp["rank"].tolist() == list(range(1, 8))
        d = grp.sort_values("rank")["dist"].to_numpy()
        assert (np.diff(d) >= -1e-12).all()
    assert set(got["qid"]) == set(range(len(Q)))


def test_distances_are_true_euclidean(tiny_index, tiny_xq):
    X, Q = tiny_xq
    got = knn_query(tiny_index, Q[:2], k=5)
    for _, row in got.iterrows():
        true = float(np.sqrt(((X[int(row["id"])] - Q[int(row["qid"])]) ** 2).sum()))
        assert row["dist"] == pytest.approx(true, abs=1e-9)


def test_self_query_found(tiny_index, tiny_xq):
    """A database point used as query must return itself first (its Hilbert
    key matches exactly, so it always survives candidate retrieval)."""
    X, _ = tiny_xq
    got = knn_query(tiny_index, X[[5, 123]], k=3, alpha=32, gamma=16)
    first = got[got["rank"] == 1].sort_values("qid")
    assert first["id"].tolist() == [5, 123]
    assert np.allclose(first["dist"], 0.0)


def test_kappa_bounds(tiny_index, tiny_xq):
    """gamma <= kappa <= tau * gamma (Sec. 4.2)."""
    _, Q = tiny_xq
    tau = tiny_index.params.tau
    _, stats = knn_query(
        tiny_index, Q, k=5, alpha=64, gamma=16, return_stats=True
    )
    assert 16 <= stats["mean_kappa"] <= tau * 16


def test_kappa_is_n_when_alpha_covers_all(tiny_index, tiny_xq):
    """With alpha >= n and no filter every tree returns every object, so the
    deduplicated candidate set of each query is the whole dataset."""
    X, Q = tiny_xq
    _, stats = knn_query(
        tiny_index, Q[:3], k=5, alpha=len(X), filters="none", return_stats=True
    )
    assert stats["mean_kappa"] == len(X)
    assert stats["short_results"] == 0


def test_stats_do_not_change_the_result(tiny_index, tiny_xq):
    _, Q = tiny_xq
    plain = knn_query(tiny_index, Q, k=10, alpha=64, gamma=16)
    with_stats, stats = knn_query(
        tiny_index, Q, k=10, alpha=64, gamma=16, return_stats=True
    )
    pd.testing.assert_frame_equal(with_stats, plain)
    assert stats["short_results"] == 0


def test_short_results_counts_queries_below_k(tiny_index, tiny_xq):
    """k above tau*gamma cannot be met: every query comes back short."""
    _, Q = tiny_xq
    tau = tiny_index.params.tau
    got, stats = knn_query(
        tiny_index, Q[:3], k=tau * 2 + 1, alpha=8, gamma=2, return_stats=True
    )
    assert stats["short_results"] == 3
    assert stats["mean_kappa"] <= tau * 2
    assert got.groupby("qid").size().max() <= tau * 2


def test_exact_with_ties_and_duplicate_candidates(spark, tiny_xq, tiny_params):
    """Every vector stored twice: equal distances tie and every tree
    returns both copies. The exact path must dedup the cross-tree
    candidates and break the ties by ascending id, as brute force does."""
    X, Q = tiny_xq
    X2 = np.vstack([X[:150], X[:150]])
    idx = build_hd_index(spark, vectors_df(spark, X2, n_partitions=2), tiny_params)
    got = knn_query(idx, Q, k=5, alpha=len(X2), filters="none")
    ref = bruteforce_topk(X2, Q, k=5)
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), ref.reset_index(drop=True), check_dtype=False
    )
    # Odd k: each query's fifth neighbour is the lower id of a tied pair.
    fifth = got[got["rank"] == 5]["id"].to_numpy()
    assert (fifth < 150).all()


def test_query_runs_one_spark_job(tiny_index, tiny_xq, spark_jobs):
    """The candidate pass is the only Spark job of a query: the re-rank
    reads the vector store on the driver."""
    _, Q = tiny_xq
    assert spark_jobs(lambda: knn_query(tiny_index, Q, k=10)) == 1
    assert spark_jobs(lambda: knn_query(tiny_index, Q[:1], k=10, filters="both")) == 1


@pytest.fixture(scope="module")
def sparse_store(spark):
    """A store over ids 7 * i + 3, collected from a shuffled table, and its
    vectors in id order."""
    rng = np.random.default_rng(5)
    X = rng.normal(size=(200, 12)) * 100
    ids = 7 * np.arange(200) + 3
    pdf = pd.DataFrame({"id": ids, "vec": list(X)}).sample(frac=1.0, random_state=1)
    return vector_store(spark.createDataFrame(pdf).repartition(3)), ids, X


def test_vector_store_sorts_by_id(sparse_store):
    store, ids, X = sparse_store
    assert store.ids.dtype == np.int64 and store.vecs.dtype == np.float64
    assert np.array_equal(store.ids, ids)
    assert np.array_equal(store.vecs, X)


def test_exact_dists_on_sparse_ids(sparse_store):
    """Scores equal NumPy's exact distances bit for bit; pairs whose id is
    not in the store (between, below or above its ids) are dropped."""
    store, ids, X = sparse_store
    Q = np.random.default_rng(6).normal(size=(4, 12)) * 100
    rows = np.array([0, 199, 57, 57, 3, 120])
    qid = np.array([0, 0, 1, 2, 3, 3])
    absent = pd.DataFrame({"qid": [1, 2, 3, 0], "id": [0, 5, 7 * 200 + 3, ids[9] + 1]})
    pairs = pd.concat(
        [pd.DataFrame({"qid": qid, "id": ids[rows]}), absent], ignore_index=True
    ).sample(frac=1.0, random_state=2)
    got = exact_dists(store, pairs, Q).sort_values(["qid", "id"], ignore_index=True)
    ref = pd.DataFrame(
        {"qid": qid, "id": ids[rows], "dist": euclidean(X[rows], Q[qid])}
    ).sort_values(["qid", "id"], ignore_index=True)
    pd.testing.assert_frame_equal(got, ref, check_exact=True)


def test_exact_dists_empty_pairs_are_typed(sparse_store):
    store, _, _ = sparse_store
    got = exact_dists(store, pd.DataFrame(columns=["qid", "id"]), np.zeros((2, 12)))
    assert got.empty
    assert [str(t) for t in got.dtypes] == ["int64", "int64", "float64"]
    assert list(got.columns) == ["qid", "id", "dist"]


def test_stats_alpha_gamma_echo(tiny_index, tiny_xq):
    _, Q = tiny_xq
    _, stats = knn_query(tiny_index, Q[:2], k=3, alpha=48, gamma=12, return_stats=True)
    assert stats["alpha"] == 48 and stats["gamma"] == 12


def test_query_validation(tiny_index):
    with pytest.raises(ValueError):
        knn_query(tiny_index, np.zeros((2, 3)), k=5)  # wrong dimensionality
    with pytest.raises(ValueError):
        knn_query(tiny_index, np.zeros((2, 16)), k=5, filters="banana")
    with pytest.raises(ValueError):
        knn_query(tiny_index, np.zeros(16), k=5)  # one query, not a batch
    with pytest.raises(ValueError):
        knn_query(tiny_index, np.zeros((2, 16)), k=0)
    with pytest.raises(ValueError):
        knn_query(tiny_index, np.zeros((2, 16)), k=5, alpha=0)
    nan = np.zeros((2, 16))
    nan[1, 3] = np.nan
    with pytest.raises(ValueError):
        knn_query(tiny_index, nan, k=5)
    with pytest.raises(ValueError):
        knn_query(tiny_index, np.full((1, 16), np.inf), k=5)
    q = np.zeros((2, 16))
    with pytest.raises(ValueError):
        knn_query(tiny_index, q, k=5, gamma=0)  # gamma < 1
    with pytest.raises(ValueError):
        knn_query(tiny_index, q, k=5, gamma=0, filters="none")
    with pytest.raises(ValueError):
        knn_query(tiny_index, q, k=5, alpha=16, gamma=17, filters="tri")
    with pytest.raises(ValueError):  # gamma > beta
        knn_query(tiny_index, q, k=5, alpha=64, beta=16, gamma=17, filters="both")
    with pytest.raises(ValueError):  # beta > alpha
        knn_query(tiny_index, q, k=5, alpha=64, beta=65, gamma=16, filters="both")
    empty = knn_query(tiny_index, np.zeros((0, 16)), k=5)
    assert list(empty.columns) == ["qid", "rank", "id", "dist"] and empty.empty


def test_query_hilbert_keys_shape(tiny_index, tiny_xq):
    _, Q = tiny_xq
    keys = query_hilbert_keys(tiny_index, Q)
    assert len(keys) == tiny_index.params.tau
    assert all(len(kk) == len(Q) for kk in keys)


def test_increasing_alpha_improves_map(tiny_index, tiny_xq, tiny_truth):
    """Fig. 7 shape: MAP grows (weakly) with alpha."""
    _, Q = tiny_xq
    truth = _lists(tiny_truth)
    maps = []
    for alpha in (8, 64, 600):
        got = knn_query(tiny_index, Q, k=10, alpha=alpha, gamma=max(2, alpha // 4))
        maps.append(map_at_k(_lists(got), truth, 10))
    assert maps[0] <= maps[1] + 0.05
    assert maps[1] <= maps[2] + 0.05
    assert maps[2] > 0.9


def test_single_query_batch(tiny_index, tiny_xq):
    _, Q = tiny_xq
    got = knn_query(tiny_index, Q[:1], k=4)
    assert len(got) == 4


def test_out_of_domain_queries(tiny_index, tiny_xq, tiny_params):
    """Queries outside [domain_lo, domain_hi]: only their Hilbert keys
    clamp, so every query gets k rows whose distances are exact to the
    query as given, and with alpha >= n and no filters the answer is exact."""
    X, Q = tiny_xq
    lo, hi = tiny_params.domain_lo, tiny_params.domain_hi
    span = hi - lo
    outside = np.vstack([
        Q[0] + 2 * span,
        Q[1] - 1.5 * span,
        np.where(np.arange(tiny_params.nu) % 2, lo - 0.5 * span, hi + 0.5 * span),
        np.r_[Q[2][:-1], hi + 10 * span],
    ])
    got = knn_query(tiny_index, outside, k=10)
    assert (got.groupby("qid").size() == 10).all() and got["qid"].nunique() == len(outside)
    exact = euclidean(X[got["id"].to_numpy()], outside[got["qid"].to_numpy()])
    assert np.array_equal(got["dist"].to_numpy(), exact)
    pd.testing.assert_frame_equal(
        knn_query(tiny_index, outside, k=10, alpha=len(X), filters="none"),
        bruteforce_topk(X, outside, k=10),
        check_exact=True,
    )


@pytest.mark.parametrize("kk", [1, 7, 40, 100])
def test_smallest_per_query_equals_per_query_argpartition(kk):
    """The exhaustive scans' per-batch cut picks, index for index, what a
    per-query argpartition picks, ties included; kk > b keeps all b rows."""
    scores = np.random.default_rng(0).integers(0, 3, size=(5, 40)).astype(float)
    kb = min(kk, scores.shape[1])
    qid, rows = smallest_per_query(scores, kk)
    assert qid.tolist() == np.repeat(np.arange(5), kb).tolist()
    want = [np.argpartition(s, kb - 1)[:kb] for s in scores]
    assert rows.tolist() == np.concatenate(want).tolist()
