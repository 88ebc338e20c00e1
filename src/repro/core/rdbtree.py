"""Distributed RDB-tree: leaf bucketing and the driver-side fence hierarchy.

A paper RDB-tree is a disk B+-tree over Hilbert keys whose leaves hold, per
entry, (hilbert key, object pointer, distances to the m reference objects) —
exactly Omega entries per 4 KB page (Eq. 4). Our distributed realisation
keeps that geometry:

* the **leaf level** is a DataFrame with columns ``(id, hkey, rdist,
  leaf_id)``. ``hkey`` is the Hilbert key as fixed-width big-endian
  ``binary``, which Spark orders unsigned and bytewise, so in numeric key
  order. ``leaf_id`` is the row's rank in ``(hkey, id)`` order divided by
  Omega: one ``row_number`` window per tree. Each tree is one
  key-ordered run in one Spark partition, so the sort runs at most
  min(tau, default parallelism) tasks at a time. Queries rely on that
  layout, since their kernel cuts each window from one whole tree, but not
  yet on the order: the leaf windows are broadcast to one pass over the
  union of the trees, which reads every row of every tree, not the paper's
  O(log n + alpha/Omega) page reads;
* the **internal levels** are the per-leaf key fences (min/max key, slot
  count) held on the driver (`FenceHierarchy`). n/Omega fences for n in the
  millions is a few thousand rows — the same observation that lets the
  paper cache internal nodes in RAM. A theta-way descent over them lands on
  the same leaf as one bisect, so lookups bisect and the height is computed.

The build ranks all tau trees in one pass: rows carry a ``tree_id``, and
the window is partitioned by it, so every tree's numbering starts at 0.
"""
from __future__ import annotations

import bisect
import itertools

import pandas as pd
from pyspark.sql import DataFrame, functions as F

__all__ = ["assign_leaves", "leaf_fences", "FenceHierarchy", "TREE_COL"]

TREE_COL = "tree_id"  # the tree a row belongs to


def assign_leaves(df: DataFrame, leaf_order: int) -> DataFrame:
    """Bucket every tree's rows into RDB-tree leaves of exactly ``leaf_order``
    slots.

    ``df`` holds ``tree_id``, ``id`` and ``hkey``. Adds ``leaf_id``: the
    row's 0-based rank in ``(hkey, id)`` order within its tree, divided by
    ``leaf_order``. The rank is one ``row_number`` window per tree,
    coalesced to the default parallelism: every tree comes back as one
    key-ordered run in one partition.

    The result comes back persisted and materialised; the caller owns that
    cache (``unpersist`` it once the tree is written elsewhere).
    """
    if leaf_order < 1:
        raise ValueError("leaf_order must be >= 1")
    rank = f"row_number() OVER (PARTITION BY {TREE_COL} ORDER BY hkey, id) - 1"
    out = (
        df.selectExpr("*", f"({rank}) div {leaf_order} AS leaf_id")
        .coalesce(df.sparkSession.sparkContext.defaultParallelism)
        .persist()
    )
    out.count()
    return out


def leaf_fences(tree_df: DataFrame) -> pd.DataFrame:
    """Collect per-leaf (min key, max key, slot count) fences to the driver.

    This is the content of the level-1 internal nodes of the RDB-tree; it is
    O(n / Omega) rows and forms the base of :class:`FenceHierarchy`. One
    pass gives the fences of every tree in ``tree_df``, ordered by
    (tree_id, leaf_id) with ``tree_id`` as first column.
    """
    pdf = (
        tree_df.groupBy(TREE_COL, "leaf_id")
        .agg(
            F.min("hkey").alias("min_key"),
            F.max("hkey").alias("max_key"),
            F.count("*").alias("count"),
        )
        .toPandas()
    )
    # Sorted on the driver: a Spark orderBy would add a range-sampling job.
    return pdf.sort_values([TREE_COL, "leaf_id"], ignore_index=True)


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

    def lookup(self, key: bytes) -> int:
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
