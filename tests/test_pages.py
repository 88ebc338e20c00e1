"""The page table: one row per RDB-tree leaf, ``(tree_id, leaf_id, rows,
keys, ids, payload)``. Pages are dense and key-ordered, do not depend on
the Arrow batches they were packed from, decode back to a NumPy rebuild of
every tree, and are what Spark's storage and the index's size report."""
import functools

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import DataFrame, functions as F

from repro.core.build import build_hd_index, subspace_keys
from repro.core.params import HDIndexParams
from repro.core.rdbtree import pack_leaves
from repro.dist import block_dists
from repro.synth_data import make_vectors, vectors_df


def _pages(index) -> pd.DataFrame:
    return index.pages.toPandas().sort_values(["tree_id", "leaf_id"], ignore_index=True)


def test_pages_are_dense_and_key_ordered(tiny_index, tiny_params):
    """Per tree, leaf_id runs 0..L-1, ``rows`` is the fence count and at most
    Omega, and the keys ascend within and across pages."""
    pages = _pages(tiny_index)
    w = -(-tiny_params.eta * tiny_params.omega // 8)
    for t, hier in enumerate(tiny_index.hierarchies):
        tree = pages[pages["tree_id"] == t]
        assert tree["leaf_id"].tolist() == list(range(hier.n_leaves))
        assert tree["rows"].tolist() == hier.fences["count"].tolist()
        assert tree["rows"].max() <= tiny_params.leaf_order
        assert [len(k) for k in tree["keys"]] == [w * r for r in tree["rows"]]
        keys = b"".join(tree["keys"])
        keys = [keys[i : i + w] for i in range(0, len(keys), w)]
        assert len(keys) == tiny_index.n and keys == sorted(keys)


def test_pages_do_not_depend_on_arrow_batches(spark, tiny_index):
    """Packed from 7-row Arrow batches, every leaf straddles batches; the
    pages must still equal the index's. The entry rows are the index's own,
    decoded from its pages, because the build's ``rdist`` block form itself
    rounds differently in other batch sizes."""
    rows = functools.reduce(
        DataFrame.unionByName,
        [tree.withColumn("tree_id", F.lit(t).cast("long")) for t, tree in enumerate(tiny_index.trees)],
    )
    key = "spark.sql.execution.arrow.maxRecordsPerBatch"
    prev = spark.conf.get(key)
    spark.conf.set(key, "7")
    try:
        got = pack_leaves(rows, "rdist").toPandas()
    finally:
        spark.conf.set(key, prev)
    got = got.sort_values(["tree_id", "leaf_id"], ignore_index=True)
    pd.testing.assert_frame_equal(got, _pages(tiny_index), check_exact=True)


@pytest.mark.parametrize("on_disk", [False, True])
def test_tree_view_equals_numpy_rebuild(spark, tmp_path, on_disk):
    """``index.trees[t]`` holds, row for row, tree t rebuilt in NumPy: the
    entries sorted by (key bytes, id), ``leaf_id`` their rank // Omega, and
    each entry's distances to the references."""
    X = make_vectors(n=500, nu=12, lo=0, hi=1, n_clusters=5, seed=21)
    p = HDIndexParams(nu=12, domain_lo=0, domain_hi=1, tau=3, omega=4, m=4, alpha=40)
    d = str(tmp_path / "idx") if on_disk else None
    index = build_hd_index(spark, vectors_df(spark, X), p, parquet_dir=d)
    rdist = block_dists(X, index.ref_vectors)
    for t, dims in enumerate(p.partitions):
        keys = subspace_keys(X, dims, p)
        ids = np.array(sorted(range(len(X)), key=lambda i: (keys[i], i)))
        got = index.trees[t].toPandas()
        assert got.columns.tolist() == ["id", "hkey", "rdist", "leaf_id"]
        assert got["id"].tolist() == ids.tolist()
        assert got["hkey"].tolist() == [keys[i] for i in ids]
        assert got["leaf_id"].tolist() == (np.arange(len(X)) // p.leaf_order).tolist()
        np.testing.assert_allclose(np.vstack(got["rdist"]), rdist[ids], rtol=1e-12)


def test_tree_bytes_are_the_page_caches(spark):
    """The trees' plan sizes, which the benchmark reports as the index's
    bytes, sum to the bytes Spark's storage holds for the pages: each view
    reads one tree's own cache, not a cache shared by all trees, which
    would count every tree tau times. They are not equal to the byte:
    storage estimates each cached block as objects (41,124 planned against
    43,032 stored bytes here, 12 blocks), so the bound is 10%."""
    X = make_vectors(n=400, nu=8, lo=0, hi=1, n_clusters=4, seed=23)
    p = HDIndexParams(nu=8, domain_lo=0, domain_hi=1, tau=3, omega=4, m=3, alpha=32)
    jsc = spark.sparkContext._jsc
    before = set(jsc.getPersistentRDDs().keySet())
    index = build_hd_index(spark, vectors_df(spark, X), p)
    caches = set(jsc.getPersistentRDDs().keySet()) - before
    assert len(caches) == p.tau
    stored = sum(
        info.memSize() + info.diskSize()
        for info in jsc.sc().getRDDStorageInfo()
        if info.id() in caches
    )
    planned = sum(
        int(str(tree._jdf.queryExecution().optimizedPlan().stats().sizeInBytes()))
        for tree in index.trees
    )
    assert stored > 0 and abs(planned - stored) <= 0.1 * stored


@pytest.mark.parametrize("on_disk", [False, True])
def test_page_scan_spreads_whole_trees(spark, tmp_path, on_disk):
    """The candidate pass scans ``pages`` in more than one task, and every
    tree lies whole in one of them."""
    X = make_vectors(n=300, nu=8, lo=0, hi=1, n_clusters=4, seed=25)
    p = HDIndexParams(nu=8, domain_lo=0, domain_hi=1, tau=4, omega=4, m=3, alpha=32)
    d = str(tmp_path / "idx") if on_disk else None
    index = build_hd_index(spark, vectors_df(spark, X), p, parquet_dir=d)
    assert index.pages.rdd.getNumPartitions() <= spark.sparkContext.defaultParallelism
    spread = (
        index.pages.select("tree_id", F.spark_partition_id().alias("part"))
        .distinct()
        .toPandas()
    )
    assert sorted(spread["tree_id"]) == list(range(p.tau))  # each tree in one part
    assert spread["part"].nunique() > 1
