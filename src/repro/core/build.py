"""HD-Index construction (Algo 1) as a distributed DataFrame build job.

Pipeline per the paper, in Spark:

1. choose m reference objects (Sec. 3.3) from a driver-side sample;
2. one pass over the data computing, via a pandas UDF against the broadcast
   reference matrix, each object's distances to all references (``rdist``)
   in ``repro.dist``'s block form: a filter input, so the expansion's
   ~|x|^2 * eps rounding is acceptable, while the query-to-reference and
   reference-to-reference distances it is compared with are exact;
3. in the same pass, one pandas UDF quantises every row's tau sub-vectors
   (dimension partitions P_i) and emits their Hilbert keys (hex, fixed
   width, curve order omega) as one array; ``posexplode`` turns it into
   ``(tree_id, id, hkey, rdist)`` rows, tau per object;
4. one ``rdbtree.assign_leaves`` ranks every tree by ``(hkey, id)`` in one
   ``row_number`` window partitioned by ``tree_id`` and buckets it into
   leaves of exactly Omega slots; each tree comes out as one key-ordered
   run in one partition. One ``rdbtree.leaf_fences`` collects the fences of
   every tree, folded into one driver-side ``FenceHierarchy`` per tree.
   Each tree is then split off into its own cache or Parquet directory.
   The Multicurves baseline builds its trees with the same code
   (``build_curve_trees``), storing vectors instead of ``rdist``;
5. the trees' union ``leaves`` — ``(tree_id, id, hkey, leaf_id, rdist)``
   coalesced to the default parallelism — is the one table a query's
   candidate pass scans. It is a plan over the cached (or Parquet) trees,
   not a further cache.

The returned :class:`HDIndex` holds the tree DataFrames (cached, and
optionally persisted to Parquet — the disk-resident form), their union, the
fence hierarchies, the reference vectors and their pairwise distances
(needed by the Ptolemaic filter's denominators), and the
:class:`VectorStore` the query's exact re-rank reads by id: the vectors,
collected once at build time into driver memory or, with ``parquet_dir``,
into ``{parquet_dir}/vectors.npy`` read back through ``np.memmap``.
"""
from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession, functions as F
from pyspark.sql.types import ArrayType, DoubleType, StringType

from repro.dist import block_dists, euclidean
from repro.hilbert.curve import hilbert_keys, quantize
from repro.refsel.selection import select
from repro.core.params import HDIndexParams
from repro.core.rdbtree import TREE_COL, FenceHierarchy, assign_leaves, leaf_fences

__all__ = [
    "HDIndex", "VectorStore", "build_hd_index", "build_curve_trees", "load_hd_index_trees",
    "subspace_keys", "sample_vectors", "vector_store",
]

_REF_SAMPLE_CAP = 4096  # driver-side sample size for reference selection


@dataclass(frozen=True)
class VectorStore:
    """The base vectors addressed by id, for exact re-ranking on the driver."""

    ids: np.ndarray  # (n,) int64, ascending and unique
    vecs: np.ndarray  # (n, nu) float64, row i is the vector of ids[i]


def vector_store(data: DataFrame, parquet_dir: str | None = None) -> VectorStore:
    """The ``(id, vec)`` rows of ``data``, collected in one job, sorted by id.

    With ``parquet_dir`` the vectors are written to
    ``{parquet_dir}/vectors.npy`` and read back memory-mapped, so a lookup
    reads its rows through the page cache instead of holding them in memory.
    """
    pdf = data.select("id", "vec").toPandas().sort_values("id")
    vecs = np.vstack(pdf["vec"].to_numpy()).astype(np.float64, copy=False)
    if parquet_dir is not None:
        path = os.path.join(parquet_dir, "vectors.npy")
        os.makedirs(parquet_dir, exist_ok=True)
        np.save(path, vecs)
        vecs = np.load(path, mmap_mode="r")
    return VectorStore(pdf["id"].to_numpy(dtype=np.int64), vecs)


@dataclass
class HDIndex:
    """A built HD-Index: tau trees + reference metadata + vector store."""

    params: HDIndexParams
    ref_vectors: np.ndarray  # (m, nu)
    ref_pairwise: np.ndarray  # (m, m) distances between references
    trees: list  # list[DataFrame] with (id, hkey, rdist, leaf_id)
    hierarchies: list  # list[FenceHierarchy]
    leaves: DataFrame  # (tree_id, id, hkey, leaf_id, rdist): the trees' union
    store: VectorStore  # the vectors by id, for the exact re-rank
    n: int


def sample_vectors(data: DataFrame, n: int, cap: int, seed: int) -> np.ndarray:
    """A seeded sample of the ``n`` rows of ``data`` as a driver-side
    (rows, nu) matrix of their ``vec``: every row when n <= 1.3 * cap, else
    a Bernoulli sample of about 1.3 * cap rows cut to ``cap``."""
    frac = min(1.0, cap * 1.3 / max(n, 1))
    pdf = (
        data.sample(fraction=frac, seed=seed).limit(cap).toPandas()
        if frac < 1.0
        else data.toPandas()
    )
    return np.vstack(pdf["vec"].to_numpy())


def subspace_keys(X: np.ndarray, dims, params: HDIndexParams) -> np.ndarray:
    """Hilbert keys (fixed-width hex) of the rows of ``X`` in sub-space ``dims``.

    A short last partition is zero-padded to ``params.eta`` dims so every
    key of an index has the same width (Sec. 3.1).
    """
    sub = X[:, np.asarray(dims, dtype=np.int64)]
    if sub.shape[1] < params.eta:
        sub = np.hstack([sub, np.zeros((sub.shape[0], params.eta - sub.shape[1]))])
    cells = quantize(sub, params.domain_lo, params.domain_hi, params.omega)
    return hilbert_keys(cells, params.omega)


def build_curve_trees(
    spark: SparkSession,
    source: DataFrame,
    params: HDIndexParams,
    payload: str,
    order: int,
    *,
    parquet_dir: str | None = None,
) -> tuple[list, list, DataFrame]:
    """One key-sorted tree per dimension partition, its fence hierarchy, and
    the union of the trees that queries scan.

    ``source`` holds ``id``, ``vec`` and the ``payload`` column the leaves
    store (``rdist`` for HD-Index, ``vec`` for Multicurves); ``order`` is the
    leaf order. All tau trees come from one pass: a pandas UDF emits every
    row's tau keys, ``posexplode`` turns them into ``(tree_id, id, hkey,
    payload)`` rows, and one ``assign_leaves`` and one ``leaf_fences`` number
    and fence every tree. Each tree is then split off as ``(id, hkey,
    payload, leaf_id)``, cached in memory or, with ``parquet_dir``,
    written to ``{parquet_dir}/tree_{i}`` and re-read from disk. The union
    ``leaves`` is ``(tree_id, id, hkey, leaf_id, payload)`` coalesced to the
    default parallelism, so one scan of it is one wave of tasks; it is not
    persisted itself and reads the cached trees or the Parquet files.
    """
    partitions = params.partitions

    @F.pandas_udf(ArrayType(StringType()))
    def hkeys_udf(vec: pd.Series) -> pd.Series:
        X = np.vstack(vec.to_numpy())
        keys = np.stack([subspace_keys(X, dims, params) for dims in partitions], axis=1)
        return pd.Series(list(keys))

    rows = source.select(F.posexplode(hkeys_udf("vec")).alias(TREE_COL, "hkey"), "id", payload)
    numbered = assign_leaves(rows, "hkey", order)
    fences = leaf_fences(numbered)

    trees, hierarchies = [], []
    for i in range(len(partitions)):
        tree = numbered.filter(F.col(TREE_COL) == i).select("id", "hkey", payload, "leaf_id")
        if parquet_dir is None:
            tree = tree.persist()
        else:
            path = os.path.join(parquet_dir, f"tree_{i}")
            tree.write.mode("overwrite").parquet(path)
            # The schema is known, so the read needs no inference job.
            tree = spark.read.schema(tree.schema).parquet(path)
        f = fences[fences[TREE_COL] == i].drop(columns=TREE_COL).reset_index(drop=True)
        hierarchies.append(FenceHierarchy(f, params.branching))
        trees.append(tree)
    leaves = functools.reduce(
        DataFrame.unionByName,
        [
            tree.select(F.lit(t).cast("long").alias(TREE_COL), "id", "hkey", "leaf_id", payload)
            for t, tree in enumerate(trees)
        ],
    ).coalesce(spark.sparkContext.defaultParallelism)
    if parquet_dir is None:
        # One job over the union fills every tree's cache.
        leaves.count()
    # The trees now read their own caches or files.
    numbered.unpersist()
    return trees, hierarchies, leaves


def build_hd_index(
    spark: SparkSession,
    data: DataFrame,
    params: HDIndexParams,
    *,
    parquet_dir: str | None = None,
) -> HDIndex:
    """Run Algo 1 over ``data`` — a DataFrame with ``id: long`` and
    ``vec: array<double>`` of length ``params.nu``.

    ``parquet_dir``: when given, each tree is written to
    ``{parquet_dir}/tree_{i}`` and re-read from disk, and the vectors to
    ``{parquet_dir}/vectors.npy``, read back memory-mapped: the
    disk-resident path the paper targets. Otherwise the trees stay as
    cached in-memory DataFrames and the vectors as a driver-side array.
    """
    sc = spark.sparkContext
    data = data.select("id", "vec")
    store = vector_store(data, parquet_dir)

    # --- reference objects (Sec. 3.3) -----------------------------------
    n = len(store.ids)
    sample = sample_vectors(data, n, _REF_SAMPLE_CAP, params.seed)
    ref_idx = select(sample, params.m, params.ref_method, f=params.ref_f, seed=params.seed)
    refs = sample[ref_idx].astype(np.float64)

    b_refs = sc.broadcast(refs)

    @F.pandas_udf(ArrayType(DoubleType()))
    def rdist_udf(vec: pd.Series) -> pd.Series:
        return pd.Series(list(block_dists(np.vstack(vec.to_numpy()), b_refs.value)))

    with_rdist = data.withColumn("rdist", rdist_udf("vec"))

    trees, hierarchies, leaves = build_curve_trees(
        spark, with_rdist, params, "rdist", params.leaf_order,
        parquet_dir=parquet_dir,
    )

    return HDIndex(
        params=params,
        ref_vectors=refs,
        ref_pairwise=euclidean(refs[:, None], refs),
        trees=trees,
        hierarchies=hierarchies,
        leaves=leaves,
        store=store,
        n=n,
    )


def load_hd_index_trees(spark: SparkSession, parquet_dir: str, tau: int) -> list[DataFrame]:
    """Re-open the persisted tree DataFrames of a previously built index."""
    return [
        spark.read.parquet(os.path.join(parquet_dir, f"tree_{i}")) for i in range(tau)
    ]
