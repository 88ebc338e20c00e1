"""Multicurves (Valle, Cord, Philipp-Foliguet; CIKM 2008).

The space-filling-curve baseline HD-Index improves upon: tau Hilbert curves
over disjoint dimension sub-sets, each indexed by a B+-tree whose leaves
store the **full descriptor** (this is what makes its index huge — for
nu=128 at 8 bytes/dim only ~3 entries fit a 4 KB page, the paper's Sec. 3.2
argument and the 1.2 TB index of Sec. 5.4.3). A query takes the alpha
nearest-by-key entries per curve and re-ranks the union by exact distance.

Trees and their page table come from HD-Index's ``build_curve_trees`` at
the Multicurves leaf order with ``vec`` as the leaf payload, and candidates
from HD-Index's ``curve_candidates``, whose kernel keeps all alpha entries
of each (tree, query) window with their exact distance to the query, since
the vector sits in the leaf. The kernel holds one tree's pages at a time,
up to n * nu * 8 bytes of vectors per Python worker. The driver drops the
(qid, id) duplicates across trees and keeps the top k; no base pass is
needed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.build import build_curve_trees
from repro.core.params import PAGE_SIZE, HDIndexParams
from repro.core.query import check_batch, curve_candidates, empty_result, top_k
from repro.dist import euclidean

__all__ = ["MulticurvesIndex", "mc_leaf_order", "build_multicurves", "knn_multicurves"]

_LEAF_OVERHEAD = 17


def mc_leaf_order(eta: int, omega: int, nu: int, page_size: int = PAGE_SIZE) -> int:
    """Leaf order when the full nu-dim descriptor (8 B/dim) sits in the leaf.

    Same page layout as Eq. (4) but with 8*nu payload bytes instead of the
    4*m reference distances. At least 1 entry per leaf is forced (the paper
    notes the entry may exceed a page for large nu — the scalability flaw).
    """
    entry = eta * omega / 8.0 + 8.0 * nu + 8
    return max(1, int((page_size - _LEAF_OVERHEAD) // entry))


@dataclass
class MulticurvesIndex:
    params: HDIndexParams  # reuses nu/domain/tau/omega/partitions
    trees: list  # list[DataFrame]: (id, hkey, vec, leaf_id) views over each tree's pages
    hierarchies: list
    pages: DataFrame  # (tree_id, leaf_id, rows, keys, ids, payload): one row per leaf
    n: int
    leaf_order: int


def build_multicurves(
    spark: SparkSession, data: DataFrame, params: HDIndexParams
) -> MulticurvesIndex:
    """tau trees of (id, hkey, vec) bucketed at the Multicurves leaf order and
    packed into pages; n is the slot count of a tree's fences, since every
    tree holds every id."""
    order = mc_leaf_order(params.eta, params.omega, params.nu)
    trees, hierarchies, pages = build_curve_trees(spark, data, params, "vec", order)
    return MulticurvesIndex(params, trees, hierarchies, pages, hierarchies[0].total_slots, order)


def knn_multicurves(
    index: MulticurvesIndex, queries: np.ndarray, k: int, *, alpha: int = 4096
) -> pd.DataFrame:
    """alpha nearest-by-key per curve, exact re-rank of the union."""
    queries = check_batch(queries, index.params.nu, k, alpha)
    if len(queries) == 0:
        return empty_result()
    b_q = index.pages.sparkSession.sparkContext.broadcast(queries)

    def keep_all(qid, vec):
        return np.arange(len(vec)), {"dist": euclidean(vec, b_q.value[qid][None, :])}

    cands = curve_candidates(index, queries, alpha, keep_all, ["dist"])
    return top_k(cands[["qid", "id", "dist"]].drop_duplicates(["qid", "id"]), k)
