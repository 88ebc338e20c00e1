"""Tests for the synthetic vector dataset generators."""
import numpy as np

from repro.synth_data import make_queries, make_vectors, vectors_df


def test_make_vectors_shape_domain_determinism():
    X1 = make_vectors(n=500, nu=32, lo=-1, hi=1, seed=3)
    X2 = make_vectors(n=500, nu=32, lo=-1, hi=1, seed=3)
    X3 = make_vectors(n=500, nu=32, lo=-1, hi=1, seed=4)
    assert X1.shape == (500, 32)
    assert X1.min() >= -1 and X1.max() <= 1
    assert np.array_equal(X1, X2)
    assert not np.array_equal(X1, X3)


def test_make_vectors_integer_mode():
    X = make_vectors(n=300, nu=16, lo=0, hi=256, integer=True, seed=0)
    assert np.array_equal(X, np.round(X))
    assert X.min() >= 0 and X.max() <= 256


def test_make_vectors_is_clustered():
    """Mixture geometry: mean NN distance far below mean pairwise distance."""
    X = make_vectors(n=400, nu=16, lo=0, hi=1, n_clusters=8, cluster_spread=0.03, seed=1)
    d = np.sqrt(((X[:, None, :] - X[None, :, :]) ** 2).sum(-1))
    np.fill_diagonal(d, np.inf)
    assert d.min(1).mean() < 0.25 * d[np.isfinite(d)].mean()


def test_make_queries_near_database():
    X = make_vectors(n=400, nu=16, lo=0, hi=1, seed=2)
    Q = make_queries(X, n_queries=10, lo=0, hi=1, noise=0.005, seed=9)
    d = np.sqrt(((Q[:, None, :] - X[None, :, :]) ** 2).sum(-1))
    assert (d.min(1) < 0.1).all()


def test_make_queries_integer_and_deterministic():
    X = make_vectors(n=200, nu=8, lo=0, hi=256, integer=True, seed=0)
    Q1 = make_queries(X, n_queries=5, lo=0, hi=256, seed=7, integer=True)
    Q2 = make_queries(X, n_queries=5, lo=0, hi=256, seed=7, integer=True)
    assert np.array_equal(Q1, Q2)
    assert np.array_equal(Q1, np.round(Q1))


def test_vectors_df_schema(spark):
    X = make_vectors(n=50, nu=6, lo=0, hi=1, seed=0)
    df = vectors_df(spark, X)
    assert [f.name for f in df.schema.fields] == ["id", "vec"]
    assert df.count() == 50
    row = df.orderBy("id").first()
    assert row["id"] == 0
    assert np.allclose(np.asarray(row["vec"]), X[0])
