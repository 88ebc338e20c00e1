"""Tests for HD-Index construction (repro.core.build) — Algo 1 invariants."""
import os

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest
from pyspark.sql import functions as F

from repro.core.build import build_hd_index
from repro.core.params import HDIndexParams
from repro.core.query import knn_query
from repro.hilbert.curve import hilbert_keys, quantize
from repro.synth_data import make_vectors, vectors_df


def test_index_has_tau_trees(tiny_index, tiny_params):
    assert len(tiny_index.trees) == tiny_params.tau
    assert len(tiny_index.hierarchies) == tiny_params.tau


def test_every_tree_contains_every_object(tiny_index, tiny_df):
    n = tiny_df.count()
    for tree in tiny_index.trees:
        assert tree.count() == n
        assert tree.select("id").distinct().count() == n


def test_reference_metadata_shapes(tiny_index, tiny_params):
    m, nu = tiny_params.m, tiny_params.nu
    assert tiny_index.ref_vectors.shape == (m, nu)
    assert tiny_index.ref_pairwise.shape == (m, m)
    assert np.allclose(tiny_index.ref_pairwise, tiny_index.ref_pairwise.T)
    assert np.allclose(np.diag(tiny_index.ref_pairwise), 0.0)


def test_rdist_columns_match_numpy(tiny_index, tiny_xq):
    """Leaf-stored reference distances equal directly computed ones."""
    X, _ = tiny_xq
    pdf = tiny_index.trees[0].select("id", "rdist").toPandas()
    R = tiny_index.ref_vectors
    for _, row in pdf.sample(50, random_state=0).iterrows():
        expected = np.sqrt(((X[int(row["id"])] - R) ** 2).sum(-1))
        # rdist uses the (x^2 - 2xy + y^2) expansion, whose cancellation
        # error near zero is ~1e-8 — tolerance reflects that.
        assert np.allclose(np.asarray(row["rdist"]), expected, atol=1e-6)


def test_hilbert_keys_match_recomputation(tiny_index, tiny_xq, tiny_params):
    """Keys stored in tree i equal keys recomputed from partition i's dims."""
    X, _ = tiny_xq
    p = tiny_params
    for t in [0, p.tau - 1]:
        dims = np.asarray(p.partitions[t])
        pdf = tiny_index.trees[t].select("id", "hkey").toPandas()
        sub = X[:, dims]
        cells = quantize(sub, p.domain_lo, p.domain_hi, p.omega)
        keys = hilbert_keys(cells, p.omega)
        for _, row in pdf.sample(40, random_state=1).iterrows():
            assert row["hkey"] == keys[int(row["id"])]


def test_keys_have_fixed_width(tiny_index, tiny_params):
    """Every stored key is ceil(eta * omega / 8) bytes: the Eq. 4 entry."""
    w = -(-tiny_params.eta * tiny_params.omega // 8)
    assert dict(tiny_index.trees[0].dtypes)["hkey"] == "binary"
    lens = (
        tiny_index.trees[0]
        .select(F.length("hkey").alias("l"))
        .distinct()
        .collect()
    )
    assert [r["l"] for r in lens] == [w]


def test_leaves_sorted_by_key(tiny_index):
    """In every tree, leaf order is key order: the max key of leaf i is <=
    the min key of leaf i + 1."""
    for tree in tiny_index.trees:
        keys = (
            tree.groupBy("leaf_id")
            .agg(F.min("hkey").alias("lo"), F.max("hkey").alias("hi"))
            .orderBy("leaf_id")
            .toPandas()
        )
        assert (keys["hi"].values[:-1] <= keys["lo"].values[1:]).all()


def test_leaf_capacity_is_eq4_order(tiny_index, tiny_params):
    counts = (
        tiny_index.trees[0].groupBy("leaf_id").count().orderBy("leaf_id").toPandas()
    )
    assert (counts["count"][:-1] == tiny_params.leaf_order).all()
    assert counts["count"].iloc[-1] <= tiny_params.leaf_order


def test_hierarchy_consistent_with_fences(tiny_index):
    for h in tiny_index.hierarchies:
        assert h.total_slots == tiny_index.n
        assert h.n_leaves == len(h.fences)


def test_parquet_roundtrip(spark, tmp_path):
    """Disk-persisted trees equal the in-memory build row-for-row. The disk
    build maps its vectors from ``vectors.npy`` rather than loading them,
    and both builds hold them in id order and answer identically."""
    X = make_vectors(n=300, nu=8, lo=0, hi=1, n_clusters=4, seed=3)
    df = vectors_df(spark, X)
    p = HDIndexParams(nu=8, domain_lo=0, domain_hi=1, tau=2, omega=4, m=3, alpha=32)
    mem = build_hd_index(spark, df, p)
    disk = build_hd_index(spark, df, p, parquet_dir=str(tmp_path / "idx"))
    for t in range(p.tau):
        a = mem.trees[t].orderBy("id").toPandas()
        b = disk.trees[t].orderBy("id").toPandas()
        assert (a["hkey"].values == b["hkey"].values).all()
        assert (a["leaf_id"].values == b["leaf_id"].values).all()
    assert disk.trees[0].count() == 300
    assert isinstance(disk.store.vecs, np.memmap)
    assert os.path.samefile(disk.store.vecs.filename, tmp_path / "idx" / "vectors.npy")
    assert not isinstance(mem.store.vecs, np.memmap)
    for store in (mem.store, disk.store):
        assert np.array_equal(store.ids, np.arange(300))
        assert np.array_equal(store.vecs, X)
    Q = X[:5] + 0.01
    for filters in ("tri", "none"):
        pd.testing.assert_frame_equal(
            knn_query(disk, Q, k=10, filters=filters),
            knn_query(mem, Q, k=10, filters=filters),
            check_exact=True,
        )


def test_parquet_tree_is_one_file(spark, tmp_path):
    """Each tree directory holds one Parquet file with all n rows, however
    many partitions the build ran on: no schema-only files beside it."""
    X = make_vectors(n=300, nu=8, lo=0, hi=1, n_clusters=4, seed=9)
    p = HDIndexParams(nu=8, domain_lo=0, domain_hi=1, tau=4, omega=4, m=3, alpha=32)
    build_hd_index(spark, vectors_df(spark, X), p, parquet_dir=str(tmp_path / "idx"))
    for t in range(p.tau):
        files = list((tmp_path / "idx" / f"tree_{t}").glob("*.parquet"))
        assert len(files) == 1, files
        assert pq.ParquetFile(files[0]).metadata.num_rows == 300


def test_parquet_trees_over_many_row_groups(spark, tmp_path):
    """Trees written in 64 KiB row groups and read in 64 KiB splits span
    several splits each, which a plain read would spread over partitions of
    ``leaves``. The disk build reads each tree back as one partition, so it
    answers exactly as the in-memory build does."""
    X = make_vectors(n=4000, nu=12, lo=0, hi=1, n_clusters=6, seed=8)
    df = vectors_df(spark, X)
    p = HDIndexParams(nu=12, domain_lo=0, domain_hi=1, tau=3, omega=4, m=5, alpha=200, gamma=50)
    mem = build_hd_index(spark, df, p)
    Q = X[:6] + 0.01
    hadoop = spark.sparkContext._jsc.hadoopConfiguration()
    block = hadoop.get("parquet.block.size")
    split = spark.conf.get("spark.sql.files.maxPartitionBytes")
    hadoop.setInt("parquet.block.size", 64 * 1024)
    spark.conf.set("spark.sql.files.maxPartitionBytes", str(64 * 1024))
    try:
        disk = build_hd_index(spark, df, p, parquet_dir=str(tmp_path / "idx"))
        for t in range(p.tau):
            plain = spark.read.parquet(str(tmp_path / "idx" / f"tree_{t}"))
            assert plain.rdd.getNumPartitions() > 1
        for filters in ("tri", "both", "none"):
            pd.testing.assert_frame_equal(
                knn_query(disk, Q, k=10, filters=filters),
                knn_query(mem, Q, k=10, filters=filters),
                check_exact=True,
            )
    finally:
        if block is None:
            hadoop.unset("parquet.block.size")
        else:
            hadoop.set("parquet.block.size", block)
        spark.conf.set("spark.sql.files.maxPartitionBytes", split)


def test_build_deterministic_in_seed(spark):
    X = make_vectors(n=200, nu=8, lo=0, hi=1, seed=5)
    df = vectors_df(spark, X)
    p = HDIndexParams(nu=8, domain_lo=0, domain_hi=1, tau=2, omega=4, m=3, alpha=32, seed=11)
    i1 = build_hd_index(spark, df, p)
    i2 = build_hd_index(spark, df, p)
    assert np.allclose(i1.ref_vectors, i2.ref_vectors)


def test_build_with_random_partitioning(spark):
    """Sec. 5.2.1: the index builds and covers all dims under random
    partitioning too."""
    X = make_vectors(n=200, nu=12, lo=0, hi=1, seed=6)
    df = vectors_df(spark, X)
    p = HDIndexParams(
        nu=12, domain_lo=0, domain_hi=1, tau=3, omega=4, m=3, alpha=32,
        partition_scheme="random", seed=2,
    )
    idx = build_hd_index(spark, df, p)
    flat = sorted(d for g in p.partitions for d in g)
    assert flat == list(range(12))
    assert len(idx.trees) == 3


@pytest.mark.parametrize("on_disk", [False, True])
def test_build_persists_only_base_and_cached_trees(spark, tmp_path, on_disk):
    """A build leaves, in memory, one cached DataFrame per tree persisted
    and, on Parquet, nothing: the vectors live in the driver-side store, not
    in a cached base table, and no intermediate of the leaf bucketing stays
    behind."""
    # Fresh data per case, so no cache of an earlier build can hide an RDD.
    X = make_vectors(n=300, nu=8, lo=0, hi=1, n_clusters=4, seed=40 + on_disk)
    df = vectors_df(spark, X)
    p = HDIndexParams(nu=8, domain_lo=0, domain_hi=1, tau=3, omega=4, m=3, alpha=32)
    persisted = spark.sparkContext._jsc.getPersistentRDDs
    before = persisted().size()
    build_hd_index(spark, df, p, parquet_dir=str(tmp_path / "idx") if on_disk else None)
    assert persisted().size() - before == (0 if on_disk else p.tau)


@pytest.mark.parametrize("on_disk", [False, True])
def test_build_jobs_do_not_grow_per_tree(spark, spark_jobs, tmp_path, on_disk):
    """All trees share one key pass, one sort, one numbering pass, one
    fence pass and, in memory, one job that fills their caches: doubling
    tau from 2 to 4 adds a few jobs at most (on Parquet, one write per
    tree), not a pipeline per tree."""
    X = make_vectors(n=300, nu=8, lo=0, hi=1, n_clusters=4, seed=42)
    df = vectors_df(spark, X)
    jobs = {}
    for tau in (2, 4):
        p = HDIndexParams(nu=8, domain_lo=0, domain_hi=1, tau=tau, omega=4, m=3, alpha=32)
        d = str(tmp_path / f"idx{tau}") if on_disk else None
        jobs[tau] = spark_jobs(lambda: build_hd_index(spark, df, p, parquet_dir=d))
    assert jobs[4] - jobs[2] <= 8, jobs
