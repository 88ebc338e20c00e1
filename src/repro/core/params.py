"""HD-Index parameters: dimension partitioning and RDB-tree geometry.

Implements Eq. (4) of the paper — the RDB-tree leaf order Omega — and the
contiguous dimension-partitioning scheme of Sec. 3.1, plus the recommended
defaults from the tuning study (Sec. 5.2): m=10 reference objects, tau=8
trees (16 for 500+ dims), alpha=4096 (8192 for very large datasets),
gamma=alpha/4, triangular-only filtering.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["leaf_order", "internal_branching", "partition_dims", "HDIndexParams"]

# Fixed byte-layout constants from Sec. 3.2: 4-byte stored distances, 8-byte
# object pointer per entry; per-leaf overhead of two 8-byte sibling pointers
# plus a 1-byte leaf indicator.
_DIST_BYTES = 4
_PTR_BYTES = 8
_LEAF_OVERHEAD = 2 * 8 + 1


def leaf_order(eta: int, omega: int, m: int, page_size: int = 4096) -> int:
    """RDB-tree leaf order Omega — the largest integer satisfying Eq. (4).

    (eta*(omega/8) + 4*m + 8) * Omega + 16 + 1 <= B.

    Reproduces every row of the paper's Table 3 exactly (see tests).
    """
    if eta < 1 or omega < 1 or m < 0 or page_size < 64:
        raise ValueError("invalid leaf-order inputs")
    entry = eta * omega / 8.0 + _DIST_BYTES * m + _PTR_BYTES
    order = int((page_size - _LEAF_OVERHEAD) // entry)
    if order < 1:
        raise ValueError(
            f"page size {page_size} cannot hold a single entry (entry={entry}B); "
            "reduce eta*omega or m"
        )
    return order


def internal_branching(eta: int, omega: int, page_size: int = 4096) -> int:
    """Branching factor theta of RDB-tree internal nodes.

    Internal nodes hold (separator key, child pointer) pairs: eta*omega/8
    bytes per key plus an 8-byte pointer, with the same page overhead as a
    leaf. Used to shape the driver-side fence hierarchy so its fan-out
    matches what a disk B+-tree of the paper's geometry would have.
    """
    entry = eta * omega / 8.0 + _PTR_BYTES
    theta = int((page_size - _LEAF_OVERHEAD) // entry)
    return max(2, theta)


def partition_dims(nu: int, tau: int, *, scheme: str = "contiguous", seed: int = 0):
    """Partition dimensions {0..nu-1} into tau disjoint groups (Sec. 3.1).

    ``contiguous`` assigns ceil(nu/tau) consecutive dims per group (the last
    group may be shorter — e.g. Enron 1369/16 -> 15 groups of 86 and one of
    79, consistent with the paper's eta=86). ``random`` shuffles dimensions
    before the contiguous split — used for the Sec. 5.2.1 robustness
    experiment showing quality is partition-scheme independent.

    Returns a list of np.int64 index arrays, one per group.
    """
    if tau < 1 or tau > nu:
        raise ValueError(f"tau={tau} must be in [1, nu={nu}]")
    dims = np.arange(nu, dtype=np.int64)
    if scheme == "random":
        dims = np.random.default_rng(seed).permutation(dims)
    elif scheme != "contiguous":
        raise ValueError(f"unknown partitioning scheme {scheme!r}")
    eta = -(-nu // tau)  # ceil
    groups = [dims[i * eta : (i + 1) * eta] for i in range(tau)]
    groups = [g for g in groups if len(g)]
    if len(groups) != tau:
        # nu not large enough for tau groups of ceil size; fall back to
        # near-equal split so exactly tau non-empty groups exist.
        groups = [g for g in np.array_split(dims, tau)]
    return groups


@dataclass(frozen=True)
class HDIndexParams:
    """All knobs of HD-Index construction and querying.

    Defaults follow the paper's recommendations (Sec. 5.2): m=10, tau=8,
    alpha=4096, gamma=alpha/4, triangular inequality only. ``beta`` is only
    read by ``knn_query(filters="both")`` (triangular then Ptolemaic) — the
    recommended combined setting is alpha/beta=1, beta/gamma=4 (Sec. 5.2.5).
    """

    nu: int
    domain_lo: float
    domain_hi: float
    tau: int = 8
    omega: int = 8
    m: int = 10
    page_size: int = 4096
    alpha: int = 4096
    beta: int | None = None  # filters="both" only; defaults to alpha
    gamma: int | None = None  # defaults to alpha // 4
    ref_method: str = "sss"
    ref_f: float = 0.3
    partition_scheme: str = "contiguous"
    seed: int = 0
    partitions: tuple = field(init=False)

    def __post_init__(self):
        if self.nu < 1:
            raise ValueError("nu must be positive")
        if self.domain_hi <= self.domain_lo:
            raise ValueError("empty value domain")
        groups = partition_dims(
            self.nu, self.tau, scheme=self.partition_scheme, seed=self.seed
        )
        object.__setattr__(self, "partitions", tuple(tuple(int(d) for d in g) for g in groups))

    @property
    def eta(self) -> int:
        """Nominal dims per Hilbert curve (size of the largest partition)."""
        return max(len(g) for g in self.partitions)

    @property
    def effective_beta(self) -> int:
        return self.beta if self.beta is not None else self.alpha

    @property
    def effective_gamma(self) -> int:
        return self.gamma if self.gamma is not None else max(1, self.alpha // 4)

    @property
    def leaf_order(self) -> int:
        return leaf_order(self.eta, self.omega, self.m, self.page_size)

    @property
    def branching(self) -> int:
        return internal_branching(self.eta, self.omega, self.page_size)
