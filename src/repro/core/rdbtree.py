"""Distributed RDB-tree: leaf bucketing and the driver-side fence hierarchy.

A paper RDB-tree is a disk B+-tree over Hilbert keys whose leaves hold, per
entry, (hilbert key, object pointer, distances to the m reference objects) —
exactly Omega entries per 4 KB page (Eq. 4). Our distributed realisation
keeps that geometry:

* the **leaf level** is a DataFrame with columns ``(leaf_id, slot, hkey, id,
  rdist)`` where ``(leaf_id, slot)`` comes from the global sort order by
  ``hkey`` bucketed Omega-at-a-time. It is range-partitioned by ``hkey``, so
  each Spark partition holds a contiguous run of leaves. Queries do not yet
  exploit that: the leaf windows are broadcast to one pass over the union
  of the trees, which reads every row of every tree, not the paper's
  O(log n + alpha/Omega) page reads;
* the **internal levels** are the per-leaf key fences (min/max key, slot
  count) held on the driver (`FenceHierarchy`). n/Omega fences for n in the
  millions is a few thousand rows — the same observation that lets the
  paper cache internal nodes in RAM. A theta-way descent over them lands on
  the same leaf as one bisect, so lookups bisect and the height is computed.

Global sort positions are computed with the standard distributed-rank idiom:
range partition -> sort within partitions -> per-partition counts -> driver
cumsum of offsets -> offset + local index, avoiding a single-partition window.
The build ranks all tau trees in one such pass: rows carry a ``tree_id``,
the sort key is ``(tree_id, hkey, id)``, and the offsets are kept per
(partition, tree), so a tree that spans several partitions is numbered
across them and every tree's numbering starts at 0.
"""
from __future__ import annotations

import bisect
import collections
import itertools

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, functions as F
from pyspark.sql.types import LongType, StructField, StructType

__all__ = ["assign_leaves", "leaf_fences", "FenceHierarchy", "TREE_COL"]

TREE_COL = "tree_id"  # present when one DataFrame holds the rows of several trees


def assign_leaves(df: DataFrame, key_col: str, leaf_order: int) -> DataFrame:
    """Bucket rows into RDB-tree leaves of exactly ``leaf_order`` slots.

    Adds ``leaf_id`` (0-based, contiguous in global ``key_col`` order) and
    ``slot`` (position within the leaf). Ties on ``key_col`` are broken by
    ``id`` so the assignment is deterministic. When ``df`` has a ``tree_id``
    column, each tree is bucketed on its own — ``leaf_id`` and ``slot``
    restart in every tree — from one sort by ``(tree_id, key_col, id)``.

    The result comes back persisted and materialised; the caller owns that
    cache (``unpersist`` it once the tree is written elsewhere).
    """
    if leaf_order < 1:
        raise ValueError("leaf_order must be >= 1")
    by = [TREE_COL] if TREE_COL in df.columns else []
    sort_cols = [*by, key_col, "id"]
    n_partitions = max(2, df.sparkSession.sparkContext.defaultParallelism // 2)
    part = df.repartitionByRange(n_partitions, *sort_cols).sortWithinPartitions(
        *sort_cols
    )
    part = part.withColumn("_pid", F.spark_partition_id())
    # repartitionByRange SAMPLES its boundaries per action; without pinning,
    # the counts pass and the numbering pass below could execute under
    # different partitionings and corrupt the global order. Persist, so the
    # counts pass materialises the layout the numbering pass then reads.
    part = part.persist()

    # Offset of each (partition, tree) run: the rows of that tree in the
    # partitions before it.
    counts = sorted(
        (r["_pid"], r[TREE_COL] if by else 0, r["cnt"])
        for r in part.groupBy("_pid", *by).agg(F.count("*").alias("cnt")).collect()
    )
    offsets: dict[tuple[int, int], int] = {}
    acc: dict[int, int] = collections.defaultdict(int)
    for pid, tree, cnt in counts:
        offsets[pid, tree] = acc[tree]
        acc[tree] += cnt

    schema = StructType(
        part.schema.fields
        + [StructField("leaf_id", LongType()), StructField("slot", LongType())]
    )
    b_offsets = df.sparkSession.sparkContext.broadcast(offsets)

    def _number(batches):
        # One partition == one iterator; rows arrive sorted, so every tree
        # is one run of rows. Number each run from its global offset.
        local: dict[int, int] = collections.defaultdict(int)
        for pdf in batches:
            if pdf.empty:
                continue
            pid = int(pdf["_pid"].iloc[0])
            trees = pdf[TREE_COL].to_numpy() if by else np.zeros(len(pdf), np.int64)
            cuts = [0, *(np.flatnonzero(np.diff(trees)) + 1), len(pdf)]
            pos = np.empty(len(pdf), np.int64)
            for lo, hi in zip(cuts[:-1], cuts[1:]):
                tree = int(trees[lo])
                start = b_offsets.value[pid, tree] + local[tree]
                pos[lo:hi] = np.arange(start, start + hi - lo)
                local[tree] += hi - lo
            out = pdf.copy()
            out["leaf_id"] = pos // leaf_order
            out["slot"] = pos % leaf_order
            yield out

    out = part.mapInPandas(_number, schema=schema).drop("_pid").persist()
    out.count()
    # Reads of ``out`` now hit its cache, not ``part``. Recomputing ``part``
    # would re-sample the range boundaries against stale offsets, so release
    # it only now.
    part.unpersist()
    return out


def leaf_fences(tree_df: DataFrame, key_col: str = "hkey") -> pd.DataFrame:
    """Collect per-leaf (min key, max key, slot count) fences to the driver.

    This is the content of the level-1 internal nodes of the RDB-tree; it is
    O(n / Omega) rows and forms the base of :class:`FenceHierarchy`. When
    ``tree_df`` has a ``tree_id`` column, one pass gives the fences of every
    tree, ordered by (tree_id, leaf_id) with ``tree_id`` as first column.
    """
    by = [TREE_COL] if TREE_COL in tree_df.columns else []
    pdf = (
        tree_df.groupBy(*by, "leaf_id")
        .agg(
            F.min(key_col).alias("min_key"),
            F.max(key_col).alias("max_key"),
            F.count("*").alias("count"),
        )
        .toPandas()
    )
    # Sorted on the driver: a Spark orderBy would add a range-sampling job.
    return pdf.sort_values([*by, "leaf_id"], ignore_index=True)


class FenceHierarchy:
    """Driver-side internal levels of one RDB-tree.

    A B+-tree root-to-leaf walk picks, at every level, the last child whose
    min key is <= the probe key (the first child if the key precedes
    everything). Node min keys are their first leaf's min key and fences are
    key-ordered, so the walk ends at the last leaf whose min key is <= the
    key — one bisect over the leaf min keys. The internal levels are
    therefore not materialised; ``height`` is the number of levels a
    theta-way tree over the leaves has. ``window`` widens the hit to a
    contiguous leaf range holding enough slots for the alpha-candidate scan.
    """

    def __init__(self, fences: pd.DataFrame, branching: int):
        if branching < 2:
            raise ValueError("branching must be >= 2")
        if len(fences) == 0:
            raise ValueError("empty fence table")
        if not (fences["leaf_id"].values == range(len(fences))).all():
            raise ValueError("fences must be dense and ordered by leaf_id")
        self.fences = fences.reset_index(drop=True)
        self.branching = branching
        self._min_keys = self.fences["min_key"].to_list()
        self._max_keys = self.fences["max_key"].to_list()
        self.cum = [0, *itertools.accumulate(self.fences["count"].to_list())]
        height, nodes = 0, self.n_leaves
        while nodes > 1:  # ceil(log_theta(n_leaves)) in exact integer steps
            nodes = -(-nodes // branching)
            height += 1
        self.height = height  # internal levels above the leaves

    @property
    def n_leaves(self) -> int:
        return len(self.fences)

    @property
    def total_slots(self) -> int:
        return self.cum[-1]

    def lookup(self, key: str) -> int:
        """Leaf id whose key range the probe key falls into (or is nearest):
        the last leaf whose min key is <= ``key``, else leaf 0."""
        return max(0, bisect.bisect_right(self._min_keys, key) - 1)

    def window(self, leaf_id: int, alpha: int) -> tuple[int, int]:
        """Smallest contiguous leaf range [lo, hi] around ``leaf_id`` with
        >= alpha slots on each side of the centre leaf (or hitting the ends),
        widened to the left over a run of equal keys that crosses its edge.

        Guarantees that the alpha entries nearest by (key distance, id) to
        any key the centre leaf is looked up for are inside the window.
        """
        # lo: the last leaf starting >= alpha slots before the centre leaf;
        # hi: the first leaf ending >= alpha slots after it.
        lo = bisect.bisect_right(self.cum, self.cum[leaf_id] - alpha) - 1
        hi = bisect.bisect_left(self.cum, self.cum[leaf_id + 1] + alpha) - 1
        lo = max(0, min(lo, leaf_id))
        # Left of the probe key, equal keys sit in id order away from it, so
        # the lowest ids of a tie run lie farthest out: take the run whole.
        while lo > 0 and self._max_keys[lo - 1] == self._min_keys[lo]:
            lo -= 1
        return lo, min(self.n_leaves - 1, max(hi, leaf_id))
