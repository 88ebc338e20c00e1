"""Seeded synthetic vector datasets for the HD-Index reproduction.

Gaussian-mixture point clouds stand in for the paper's public feature
collections (Table 4), queries are noisy re-draws of database points, and
``vectors_df`` wraps a matrix as the ``(id, vec)`` DataFrame every index
build job reads. Every generator is deterministic in ``seed``.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


# The paper's datasets (Table 4) are public feature collections; offline we
# synthesise Gaussian-mixture clouds matched in dimensionality, value domain
# and dtype (SIFT/Enron are integer-valued). Clustered geometry is essential:
# uniform high-dimensional data has no neighbourhood structure and every ANN
# method collapses to chance, which would flatten the comparisons the paper
# makes. See DESIGN.md §2.


def make_vectors(
    *,
    n: int,
    nu: int,
    lo: float,
    hi: float,
    n_clusters: int = 32,
    cluster_spread: float = 0.05,
    seed: int = 0,
    integer: bool = False,
) -> np.ndarray:
    """Seeded Gaussian-mixture point cloud in ``[lo, hi]^nu``.

    ``cluster_spread`` is the within-cluster std as a fraction of the domain
    width. Points are clipped to the domain; ``integer`` rounds to ints
    (SIFT-/Enron-like features).
    """
    g = _rng(seed)
    width = hi - lo
    centers = g.uniform(lo + 0.1 * width, hi - 0.1 * width, size=(n_clusters, nu))
    assign = g.integers(0, n_clusters, size=n)
    X = centers[assign] + g.normal(0.0, cluster_spread * width, size=(n, nu))
    X = np.clip(X, lo, hi)
    if integer:
        X = np.round(X)
    return X.astype(np.float64)


def make_queries(
    X: np.ndarray,
    *,
    n_queries: int,
    lo: float,
    hi: float,
    noise: float = 0.01,
    seed: int = 100,
    integer: bool = False,
) -> np.ndarray:
    """Queries = noisy re-draws of random database points (standard ANN
    benchmark protocol; the paper reserves data points as queries)."""
    g = _rng(seed)
    idx = g.choice(len(X), size=n_queries, replace=False)
    width = hi - lo
    Q = X[idx] + g.normal(0.0, noise * width, size=(n_queries, X.shape[1]))
    Q = np.clip(Q, lo, hi)
    if integer:
        Q = np.round(Q)
    return Q.astype(np.float64)


def vectors_df(spark: SparkSession, X: np.ndarray, *, n_partitions: int | None = None) -> DataFrame:
    """Wrap a vector matrix as the canonical ``(id: long, vec: array<double>)``
    DataFrame used by every index build job in this repo."""
    pdf = pd.DataFrame({"id": np.arange(len(X), dtype=np.int64), "vec": list(X)})
    df = spark.createDataFrame(pdf)
    if n_partitions:
        df = df.repartition(n_partitions, "id")
    return df
