"""Shared fixtures for the test suite: tiny clustered datasets and a built
HD-Index, session-scoped so the Spark-side build cost is paid once."""
import itertools

import numpy as np
import pytest

from repro.synth_data import make_queries, make_vectors, vectors_df
from repro.core.params import HDIndexParams
from repro.core.build import build_hd_index
from repro.baselines.multicurves import build_multicurves


TINY = dict(n=600, nu=16, lo=0.0, hi=1.0)


@pytest.fixture(scope="session")
def tiny_xq():
    """(X, Q): a 600x16 clustered cloud and 8 near-duplicate queries."""
    X = make_vectors(
        n=TINY["n"], nu=TINY["nu"], lo=TINY["lo"], hi=TINY["hi"],
        n_clusters=8, cluster_spread=0.04, seed=7,
    )
    Q = make_queries(X, n_queries=8, lo=TINY["lo"], hi=TINY["hi"], noise=0.01, seed=99)
    return X, Q


@pytest.fixture(scope="session")
def tiny_df(spark, tiny_xq):
    X, _ = tiny_xq
    df = vectors_df(spark, X, n_partitions=4)
    df = df.persist()
    df.count()
    return df


@pytest.fixture(scope="session")
def tiny_params():
    return HDIndexParams(
        nu=TINY["nu"], domain_lo=TINY["lo"], domain_hi=TINY["hi"],
        tau=4, omega=4, m=5, alpha=64, gamma=16, seed=0,
    )


@pytest.fixture(scope="session")
def tiny_index(spark, tiny_df, tiny_params):
    return build_hd_index(spark, tiny_df, tiny_params)


@pytest.fixture(scope="session")
def twice_x(tiny_xq):
    """The first 300 tiny vectors stored twice, as ids i and i + 300: each
    key appears at least twice, so key ties straddle an odd alpha cut."""
    X, _ = tiny_xq
    return np.vstack([X[:300], X[:300]])


@pytest.fixture(scope="session")
def twice_index(spark, twice_x, tiny_params):
    return build_hd_index(spark, vectors_df(spark, twice_x, n_partitions=2), tiny_params)


@pytest.fixture(scope="session")
def tiny_mc(spark, tiny_df, tiny_params):
    return build_multicurves(spark, tiny_df, tiny_params)


@pytest.fixture(scope="session")
def spark_jobs(spark):
    """``spark_jobs(fn)``: the number of Spark jobs ``fn()`` runs, counted
    by job group."""
    sc = spark.sparkContext
    groups = itertools.count()

    def count(fn) -> int:
        group = f"spark-jobs-{next(groups)}"
        sc.setJobGroup(group, group)
        try:
            fn()
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
            sc.setLocalProperty("spark.job.description", None)
        return len(sc.statusTracker().getJobIdsForGroup(group))

    return count


@pytest.fixture(scope="session")
def tiny_truth(tiny_xq):
    from repro.baselines.linear_scan import bruteforce_topk

    X, Q = tiny_xq
    return bruteforce_topk(X, Q, k=10)
