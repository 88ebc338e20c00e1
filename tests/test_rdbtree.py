"""Tests for the distributed RDB-tree machinery (leaf bucketing + fences)."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.rdbtree import FenceHierarchy, assign_leaves, leaf_fences, pack_leaves
from repro.oracle import assert_equivalent


def _fences_of(numbered):
    """``leaf_fences`` of rows numbered from hex string keys and a scalar
    payload, packed into pages of the key bytes and one-value payloads."""
    return leaf_fences(
        pack_leaves(
            numbered.withColumn("hkey", F.unhex("hkey")).withColumn("payload", F.array("payload")),
            "payload",
        )
    )


@pytest.fixture(scope="module")
def keyed_df(spark):
    rng = np.random.default_rng(0)
    n = 500
    pdf = pd.DataFrame(
        {
            "tree_id": np.zeros(n, dtype=np.int64),
            "id": np.arange(n, dtype=np.int64),
            "hkey": [f"{v:08x}" for v in rng.integers(0, 2**31, n)],
            "payload": rng.random(n),
        }
    )
    return spark.createDataFrame(pdf), pdf


def test_assign_leaves_matches_sql_oracle(spark, keyed_df):
    """leaf_id equals a row_number window bucketed Omega-at-a-time —
    checked against DuckDB running the equivalent SQL, on hex string keys
    and on the index's key type: fixed-width binary keys, here 8 bytes whose
    leading bytes fall on both sides of 0x80. On the binary keys the
    numbering must also follow each key's unsigned big-endian value, so a
    signed byte order in Spark, DuckDB or pandas fails."""
    omega = 37
    rng = np.random.default_rng(1)
    keys = [rng.bytes(8) for _ in range(400)]
    keys += keys[:100]  # ties, broken by id
    assert min(k[0] for k in keys) < 0x80 <= max(k[0] for k in keys)
    binary = pd.DataFrame(
        {"tree_id": np.zeros(len(keys), dtype=np.int64), "id": np.arange(len(keys)), "hkey": keys}
    )
    sql = f"""
        SELECT id, hkey,
               CAST(FLOOR((rn - 1) / {omega}) AS BIGINT) AS leaf_id
        FROM (SELECT id, hkey,
                     row_number() OVER (ORDER BY hkey, id) AS rn
              FROM input)
    """
    for df, pdf in [keyed_df, (spark.createDataFrame(binary), binary)]:
        out = assign_leaves(df, omega).select("id", "hkey", "leaf_id")
        assert_equivalent(out, sql, input=pdf[["id", "hkey"]])
    assert dict(out.dtypes)["hkey"] == "binary"
    numeric = sorted(range(len(keys)), key=lambda i: (int.from_bytes(keys[i], "big"), i))
    want = np.empty(len(keys), dtype=np.int64)
    want[numeric] = np.arange(len(keys)) // omega
    assert out.toPandas().sort_values("id")["leaf_id"].tolist() == want.tolist()


@pytest.mark.parametrize("omega", [1, 7, 64, 1000])
def test_assign_leaves_counts(keyed_df, omega):
    df, pdf = keyed_df
    out = assign_leaves(df, omega)
    counts = dict(
        out.groupBy("leaf_id").count().orderBy("leaf_id").collect()
    )
    n = len(pdf)
    full, rem = divmod(n, omega)
    expected = {i: omega for i in range(full)}
    if rem:
        expected[full] = rem
    assert {int(k): int(v) for k, v in counts.items()} == expected


def test_assign_leaves_preserves_all_rows_and_payload(keyed_df):
    df, pdf = keyed_df
    out = assign_leaves(df, 50).toPandas()
    assert sorted(out["id"]) == sorted(pdf["id"])
    merged = out.merge(pdf, on="id", suffixes=("", "_orig"))
    assert np.allclose(merged["payload"], merged["payload_orig"])


def test_assign_leaves_key_ranges_disjoint(keyed_df):
    """Key ranges of consecutive leaves do not interleave."""
    df, _ = keyed_df
    out = assign_leaves(df, 43)
    fences = _fences_of(out)
    for i in range(len(fences) - 1):
        assert fences["max_key"][i] <= fences["min_key"][i + 1]


def test_assign_leaves_deterministic(keyed_df):
    df, _ = keyed_df
    a = assign_leaves(df, 29).orderBy("id").toPandas()
    b = assign_leaves(df, 29).orderBy("id").toPandas()
    pd.testing.assert_frame_equal(a, b)


def test_assign_leaves_rejects_bad_order(keyed_df):
    df, _ = keyed_df
    with pytest.raises(ValueError):
        assign_leaves(df, 0)


def test_leaf_fences_shape(keyed_df):
    df, pdf = keyed_df
    out = assign_leaves(df, 100)
    fences = _fences_of(out)
    assert list(fences.columns) == ["tree_id", "leaf_id", "min_key", "max_key", "count"]
    assert fences["count"].sum() == len(pdf)
    assert (fences["min_key"] <= fences["max_key"]).all()


def test_numbering_by_tree_equals_per_tree_numbering(spark):
    """One assign_leaves/leaf_fences pass over several trees equals running
    them on each tree alone, row for row and fence for fence. Every tree
    comes back whole in one partition, and the result has at most the
    default parallelism's partitions."""
    omega = 37
    rng = np.random.default_rng(4)
    # Tree 1 is smaller than one leaf; tree 2 holds most rows. Keys come
    # from a few values: many ties.
    sizes = {0: 300, 1: 5, 2: 700}
    pdf = pd.concat(
        pd.DataFrame(
            {
                "tree_id": np.full(size, t, dtype=np.int64),
                "id": np.arange(size, dtype=np.int64),
                "hkey": [f"{v:04x}" for v in rng.integers(0, 60, size)],
                "payload": rng.random(size),
            }
        )
        for t, size in sizes.items()
    )
    both = assign_leaves(spark.createDataFrame(pdf), omega)
    spread = dict(
        both.select("tree_id", F.spark_partition_id().alias("part"))
        .distinct()
        .groupBy("tree_id")
        .count()
        .collect()
    )
    assert spread == {t: 1 for t in sizes}
    assert both.rdd.getNumPartitions() <= spark.sparkContext.defaultParallelism
    fences = _fences_of(both)
    rows = both.toPandas()
    for t in sizes:
        alone = assign_leaves(spark.createDataFrame(pdf[pdf["tree_id"] == t]), omega)
        want = alone.toPandas().sort_values("id", ignore_index=True)
        got = rows[rows["tree_id"] == t].sort_values("id", ignore_index=True)
        pd.testing.assert_frame_equal(got, want, check_exact=True)
        got_fences = fences[fences["tree_id"] == t].reset_index(drop=True)
        pd.testing.assert_frame_equal(got_fences, _fences_of(alone), check_exact=True)
        alone.unpersist()
    both.unpersist()


# --- FenceHierarchy (pure driver-side) --------------------------------------

def _fences(n_leaves, omega=10, seed=0):
    rng = np.random.default_rng(seed)
    keys = np.sort(rng.integers(0, 2**31, n_leaves * omega))
    mins, maxs, counts = [], [], []
    for i in range(n_leaves):
        grp = keys[i * omega : (i + 1) * omega]
        mins.append(f"{grp[0]:08x}")
        maxs.append(f"{grp[-1]:08x}")
        counts.append(len(grp))
    return pd.DataFrame(
        {"leaf_id": range(n_leaves), "min_key": mins, "max_key": maxs, "count": counts}
    )


def _lookup_scan(fences, key):
    """Last leaf whose min_key <= key, else leaf 0 (linear scan)."""
    hits = [i for i, m in enumerate(fences["min_key"]) if m <= key]
    return hits[-1] if hits else 0


def _window_walk(cum, leaf, alpha):
    """Widen leaf by leaf until alpha slots lie on each side (or an end)."""
    lo = hi = leaf
    while cum[leaf] - cum[lo] < alpha and lo > 0:
        lo -= 1
    while cum[hi + 1] - cum[leaf + 1] < alpha and hi < len(cum) - 2:
        hi += 1
    return lo, hi


@pytest.mark.parametrize("n_leaves,branching", [(1, 4), (3, 4), (17, 4), (100, 3), (64, 64), (65, 2)])
def test_hierarchy_lookup_matches_bisect(n_leaves, branching):
    f = _fences(n_leaves)
    h = FenceHierarchy(f, branching)
    rng = np.random.default_rng(1)
    probes = [f"{v:08x}" for v in rng.integers(0, 2**31, 200)]
    probes += ["00000000", "ffffffff", f["min_key"][0], f["max_key"].iloc[-1]]
    probes += list(f["min_key"]) + list(f["max_key"])
    for p in probes:
        assert h.lookup(p) == _lookup_scan(f, p), p


def test_hierarchy_window_matches_leaf_walk():
    """Uneven leaves, as a tree whose last leaf is short would have."""
    rng = np.random.default_rng(2)
    f = _fences(40, omega=6)
    f["count"] = rng.integers(1, 7, len(f))
    h = FenceHierarchy(f, branching=3)
    for leaf in range(len(f)):
        for alpha in [1, 2, 5, 17, 60, h.total_slots, 10**6]:
            assert h.window(leaf, alpha) == _window_walk(h.cum, leaf, alpha), (leaf, alpha)


def test_hierarchy_height_logarithmic():
    h = FenceHierarchy(_fences(1000), branching=10)
    assert h.height == 3  # 1000 -> 100 -> 10 -> 1
    # ceil(log_theta(n_leaves)), including exact powers and one past them
    for n_leaves, branching, height in [(2, 2, 1), (4, 4, 1), (5, 4, 2), (16, 4, 2), (17, 4, 3), (65, 2, 7)]:
        assert FenceHierarchy(_fences(n_leaves), branching).height == height


def test_hierarchy_single_leaf():
    h = FenceHierarchy(_fences(1), branching=4)
    assert h.height == 0
    assert h.lookup("00000000") == 0


def test_hierarchy_window_slot_guarantee():
    """window(leaf, alpha) holds >= alpha slots each side of the centre leaf
    (or reaches the end of the tree)."""
    h = FenceHierarchy(_fences(50, omega=10), branching=4)
    for leaf in [0, 7, 25, 49]:
        for alpha in [1, 5, 35, 120, h.total_slots, h.total_slots + 1, 10_000]:
            lo, hi = h.window(leaf, alpha)
            assert lo <= leaf <= hi
            before = h.cum[leaf] - h.cum[lo]
            after = h.cum[hi + 1] - h.cum[leaf + 1]
            assert before >= min(alpha, h.cum[leaf])
            assert after >= min(alpha, h.total_slots - h.cum[leaf + 1])


def test_hierarchy_window_whole_tree_when_alpha_huge():
    h = FenceHierarchy(_fences(10), branching=4)
    assert h.window(4, 10**9) == (0, 9)


def test_hierarchy_window_takes_tie_runs_whole():
    """Leaves of one slot holding keys 5, 5, 5, 20 and a probe key of 7: the
    nearest entry by (key distance, id) is the first 5, which the alpha-slot
    margin alone would leave out; the window takes the run of 5s whole."""
    keys = ["05", "05", "05", "20"]
    f = pd.DataFrame({"leaf_id": range(4), "min_key": keys, "max_key": keys, "count": 1})
    h = FenceHierarchy(f, branching=2)
    assert h.lookup("07") == 2
    assert h.window(2, 1) == (0, 3)
    assert h.window(3, 1) == (0, 3)  # the edge falls inside the run of 5s


def test_hierarchy_validation():
    f = _fences(5)
    with pytest.raises(ValueError):
        FenceHierarchy(f, branching=1)
    with pytest.raises(ValueError):
        FenceHierarchy(f.iloc[0:0], branching=4)
    bad = f.copy()
    bad["leaf_id"] = [0, 2, 3, 4, 5]
    with pytest.raises(ValueError):
        FenceHierarchy(bad, branching=4)
