"""Euclidean distance, in the two forms the repo uses.

- :func:`euclidean` subtracts first: exact to rounding, and 0.0 for a point
  and itself. Every distance a method reports comes from it, and so do the
  query-to-reference and reference-to-reference distances.
- :func:`sq_dists` / :func:`block_dists` expand |a - b|^2 into one matrix
  product: fast for an (A, B) block, but cancellation costs about
  |x|^2 * eps (a self-distance reads ~4e-8, not 0). They serve only scans
  that rank many rows, the stored ``rdist`` filter inputs, and argmins.

Imports nothing from the repo, so any module may use it.
"""
from __future__ import annotations

import numpy as np

__all__ = ["euclidean", "sq_dists", "block_dists"]


def euclidean(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """sqrt(sum((X - Y)^2)) over the last axis; X and Y broadcast."""
    return np.sqrt(np.maximum(((X - Y) ** 2).sum(-1), 0.0))


def sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(len(A), len(B)) squared distances by the expansion |a|^2 - 2ab + |b|^2."""
    return (A**2).sum(1, keepdims=True) - 2.0 * A @ B.T + (B**2).sum(1)[None, :]


def block_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(len(A), len(B)) distances by the expansion; see :func:`sq_dists`."""
    return np.sqrt(np.maximum(sq_dists(A, B), 0.0))
