"""Index-construction benchmarks (the scalability axis of Sec. 5.4.3).

HD-Index vs Multicurves vs the LSH/projection builds on sift10k, plus the
distributed leaf-bucketing primitive on its own."""
import numpy as np
import pandas as pd
import pytest

from repro.baselines.c2lsh import build_c2lsh
from repro.baselines.multicurves import build_multicurves
from repro.baselines.srs import build_srs
from repro.core.build import build_hd_index
from repro.core.rdbtree import assign_leaves
from repro.harness.datasets import TABLE5_DATASETS, load_xq
from repro.harness.table5 import hd_params_for
from repro.synth_data import vectors_df

SPEC = next(s for s in TABLE5_DATASETS if s.name == "sift10k")


@pytest.fixture(scope="session")
def sift10k_df(spark):
    X, _ = load_xq(SPEC)
    df = vectors_df(spark, X).persist()
    df.count()
    return df


def test_bench_build_hdindex_sift10k(benchmark, spark, sift10k_df):
    idx = benchmark.pedantic(
        lambda: build_hd_index(spark, sift10k_df, hd_params_for(SPEC)),
        rounds=1,
        iterations=1,
    )
    assert idx.n == SPEC.n


def test_bench_build_multicurves_sift10k(benchmark, spark, sift10k_df):
    idx = benchmark.pedantic(
        lambda: build_multicurves(spark, sift10k_df, hd_params_for(SPEC)),
        rounds=1,
        iterations=1,
    )
    assert idx.n == SPEC.n


def test_bench_build_c2lsh_sift10k(benchmark, spark, sift10k_df):
    idx = benchmark.pedantic(
        lambda: build_c2lsh(spark, sift10k_df, m=20), rounds=1, iterations=1
    )
    assert idx.n == SPEC.n


def test_bench_build_srs_sift10k(benchmark, spark, sift10k_df):
    idx = benchmark.pedantic(
        lambda: build_srs(spark, sift10k_df), rounds=1, iterations=1
    )
    assert idx.n == SPEC.n


def test_bench_assign_leaves_100k(benchmark, spark):
    rng = np.random.default_rng(0)
    n = 100_000
    pdf = pd.DataFrame(
        {
            "tree_id": np.zeros(n, dtype=np.int64),
            "id": np.arange(n, dtype=np.int64),
            "hkey": [int(v).to_bytes(8, "big") for v in rng.integers(0, 2**62, n)],
        }
    )
    df = spark.createDataFrame(pdf).persist()
    df.count()
    out = benchmark.pedantic(
        lambda: assign_leaves(df, 63).count(), rounds=1, iterations=1
    )
    assert out == n
