"""Distributed RDB-tree: leaf bucketing, leaf pages and the driver-side fence
hierarchy.

A paper RDB-tree is a disk B+-tree over Hilbert keys whose leaves hold, per
entry, (hilbert key, object pointer, distances to the m reference objects) —
exactly Omega entries per 4 KB page (Eq. 4). Our distributed realisation
keeps that geometry:

* the **leaf level** is a page table with one row per leaf, ``(tree_id,
  leaf_id, rows, keys, ids, payload)``: the leaf's entry count, then its
  entries' fixed-width big-endian Hilbert keys, int64 ids and float64
  payload (``rdist`` for HD-Index), each concatenated into one ``binary``
  value in ``(hkey, id)`` order. ``assign_leaves`` numbers the entry rows:
  ``leaf_id`` is a row's rank in ``(hkey, id)`` order divided by Omega, one
  ``row_number`` window per tree, and Spark orders ``binary`` unsigned and
  bytewise, so in numeric key order. Each tree is one key-ordered run in
  one Spark partition, so the sort runs at most min(tau, default
  parallelism) tasks at a time, and ``pack_leaves`` packs the pages from
  it with no shuffle. Queries rely on that layout, since their kernel cuts
  each window from one whole tree, but not yet on the order: the leaf
  windows are broadcast to one pass over every page of every tree, which
  reads tau * n / Omega pages, not the paper's O(log n + alpha/Omega) page
  reads. ``unpack_pages`` decodes pages back into entry rows, to read one
  tree;
* the **internal levels** are the per-leaf key fences (min/max key, slot
  count) held on the driver (`FenceHierarchy`). n/Omega fences for n in the
  millions is a few thousand rows — the same observation that lets the
  paper cache internal nodes in RAM. A theta-way descent over them lands on
  the same leaf as one bisect, so lookups bisect and the height is computed.

The build ranks and packs all tau trees in one pass each: rows carry a
``tree_id``, and the window is partitioned by it, so every tree's numbering
starts at 0.
"""
from __future__ import annotations

import bisect
import itertools

import numpy as np
import pandas as pd
import pyarrow as pa
from pyspark.sql import DataFrame
from pyspark.sql.types import (
    ArrayType, BinaryType, DoubleType, LongType, StructField, StructType,
)

__all__ = [
    "assign_leaves", "pack_leaves", "unpack_pages", "binary_values", "leaf_fences",
    "FenceHierarchy", "TREE_COL", "PAGE_SCHEMA",
]

TREE_COL = "tree_id"  # the tree a row belongs to

# One row per RDB-tree leaf (:func:`pack_leaves`).
PAGE_SCHEMA = StructType(
    [StructField(c, LongType()) for c in [TREE_COL, "leaf_id", "rows"]]
    + [StructField(c, BinaryType()) for c in ["keys", "ids", "payload"]]
)
_PAGE_ARROW = pa.schema(
    [(c, pa.int64()) for c in [TREE_COL, "leaf_id", "rows"]]
    + [(c, pa.binary()) for c in ["keys", "ids", "payload"]]
)


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


def pack_leaves(numbered: DataFrame, payload: str) -> DataFrame:
    """One page row per leaf of the numbered entry rows of
    :func:`assign_leaves`: ``(tree_id, leaf_id, rows, keys, ids, payload)``.

    ``rows`` is the leaf's entry count; ``keys`` its entries' fixed-width
    Hilbert keys, ``ids`` their int64 ids and ``payload`` their float64
    ``payload`` arrays (all of one width), each concatenated in entry order
    as one ``binary`` value. Entries must arrive as :func:`assign_leaves`
    leaves them: every leaf's rows together, in key order. A leaf that
    straddles two Arrow batches is carried into the next, so the pages do
    not depend on the batch size; the pass is narrow and shuffles nothing.
    """
    return numbered.select(TREE_COL, "leaf_id", "id", "hkey", payload).mapInArrow(
        _pack, PAGE_SCHEMA
    )


def _pack(batches):
    """:func:`pack_leaves`' kernel over one partition's Arrow batches."""
    held = None  # the entries of the last leaf seen, which may go on
    for batch in batches:
        if batch.num_rows == 0:
            continue
        cols = [
            batch.column(0).to_numpy(),
            batch.column(1).to_numpy(),
            batch.column(2).to_numpy(),
            binary_values(batch.column(3), np.uint8).reshape(batch.num_rows, -1),
            batch.column(4).flatten().to_numpy().reshape(batch.num_rows, -1),
        ]
        if held is not None:
            cols = [np.concatenate([h, c]) for h, c in zip(held, cols)]
        tree, leaf = cols[0], cols[1]
        last = np.flatnonzero((tree[1:] != tree[:-1]) | (leaf[1:] != leaf[:-1]))
        cut = last[-1] + 1 if len(last) else 0
        if cut:
            yield _pages([c[:cut] for c in cols])
        held = [c[cut:] for c in cols]
    if held is not None:
        yield _pages(held)


def _pages(cols) -> pa.RecordBatch:
    """The page rows of entry columns ``(tree_id, leaf_id, id, keys (n, w)
    uint8, payload (n, width) float64)`` holding whole leaves."""
    tree, leaf, ids, keys, pay = cols
    n = len(ids)
    starts = np.flatnonzero(np.r_[True, (tree[1:] != tree[:-1]) | (leaf[1:] != leaf[:-1])])
    bounds = np.r_[starts, n]

    def binary(values: np.ndarray) -> pa.Array:
        width = values.nbytes // max(n, 1)
        offsets = (bounds * width).astype(np.int32)
        return pa.BinaryArray.from_buffers(
            pa.binary(), len(starts), [None, pa.py_buffer(offsets), pa.py_buffer(values)]
        )

    return pa.RecordBatch.from_arrays(
        [
            pa.array(tree[starts]), pa.array(leaf[starts]), pa.array(np.diff(bounds)),
            binary(np.ascontiguousarray(keys)), binary(np.ascontiguousarray(ids)),
            binary(np.ascontiguousarray(pay, dtype=np.float64)),
        ],
        schema=_PAGE_ARROW,
    )


def binary_values(column, dtype) -> np.ndarray:
    """The values of an Arrow ``binary`` column, concatenated and viewed as
    ``dtype``, with no copy: page fields are read this way, never as one
    Python object per value."""
    if isinstance(column, pa.ChunkedArray):
        column = column.combine_chunks()
    if len(column) == 0:
        return np.empty(0, dtype)
    offsets = np.frombuffer(column.buffers()[1], np.int32, len(column) + 1, column.offset * 4)
    data = np.frombuffer(column.buffers()[2], np.uint8)
    return data[offsets[0] : offsets[-1]].view(dtype)


def unpack_pages(pages: DataFrame, payload: str) -> DataFrame:
    """The entries of ``pages`` as rows ``(id, hkey, payload, leaf_id)``, in
    page order and each page's entry order: the leaf level as an entry
    table, for reading one tree. Nothing is cached; each action decodes
    the pages again."""
    schema = StructType(
        [
            StructField("id", LongType()),
            StructField("hkey", BinaryType()),
            StructField(payload, ArrayType(DoubleType())),
            StructField("leaf_id", LongType()),
        ]
    )

    def unpack(batches):
        for batch in batches:
            rows = batch.column("rows").to_numpy()
            n = int(rows.sum())
            if n == 0:
                continue
            keys = binary_values(batch.column("keys"), np.uint8)
            pay = binary_values(batch.column("payload"), np.float64)
            w, width = len(keys) // n, len(pay) // n
            yield pa.RecordBatch.from_arrays(
                [
                    pa.array(binary_values(batch.column("ids"), np.int64)),
                    pa.BinaryArray.from_buffers(
                        pa.binary(), n,
                        [None, pa.py_buffer(np.arange(0, n * w + 1, w, dtype=np.int32)),
                         pa.py_buffer(keys)],
                    ),
                    pa.ListArray.from_arrays(
                        pa.array(np.arange(0, n * width + 1, width, dtype=np.int32)), pa.array(pay)
                    ),
                    pa.array(np.repeat(batch.column("leaf_id").to_numpy(), rows)),
                ],
                names=schema.fieldNames(),
            )

    return pages.mapInArrow(unpack, schema)


def leaf_fences(pages: DataFrame) -> pd.DataFrame:
    """Collect per-leaf (min key, max key, slot count) fences to the driver.

    This is the content of the level-1 internal nodes of the RDB-tree; it is
    O(n / Omega) rows and forms the base of :class:`FenceHierarchy`. One
    pass over the page table ``pages`` (:func:`pack_leaves`) gives the
    fences of every tree, ordered by (tree_id, leaf_id) with ``tree_id`` as
    first column: a page's first and last key, cut from its ``keys``, and
    its ``rows``. The ids and payload are not read.
    """
    width = "(length(keys) div rows)"
    pdf = pages.selectExpr(
        TREE_COL,
        "leaf_id",
        f"substring(keys, 1, {width}) AS min_key",
        f"substring(keys, length(keys) - {width} + 1) AS max_key",
        "rows AS count",
    ).toPandas()
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
