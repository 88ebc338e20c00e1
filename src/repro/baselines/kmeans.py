"""Minimal seeded Lloyd's k-means — substrate for iDistance (cluster
reference points) and OPQ (sub-space codebooks). NumPy only."""
from __future__ import annotations

import numpy as np

from repro.dist import sq_dists

__all__ = ["kmeans"]


def kmeans(
    X: np.ndarray, k: int, *, iters: int = 20, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's algorithm with k-means++-style seeding.

    Returns (centers (k, d), labels (n,)). Empty clusters are re-seeded from
    the points farthest from their centers, so exactly k centers survive.
    """
    X = np.asarray(X, dtype=np.float64)
    n = len(X)
    if k < 1 or k > n:
        raise ValueError(f"k={k} must be in [1, n={n}]")
    rng = np.random.default_rng(seed)

    # greedy k-means++ seeding: per step draw several D^2-weighted candidates
    # and keep the one that most reduces the potential (as in scikit-learn).
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    closest = ((X - centers[0]) ** 2).sum(1)
    trials = 2 + int(np.log(max(k, 2)))
    for i in range(1, k):
        total = closest.sum()
        if total <= 0:  # all remaining points coincide with a chosen centre
            cand_idx = rng.integers(0, n, size=1)
        else:
            cand_idx = rng.choice(n, size=trials, p=closest / total)
        best_pot, best_c = np.inf, None
        for ci in np.atleast_1d(cand_idx):
            pot = np.minimum(closest, ((X - X[ci]) ** 2).sum(1)).sum()
            if pot < best_pot:
                best_pot, best_c = pot, X[ci]
        centers[i] = best_c
        closest = np.minimum(closest, ((X - centers[i]) ** 2).sum(1))

    labels = np.zeros(n, dtype=np.int64)
    for _ in range(iters):
        d2 = sq_dists(X, centers)
        new_labels = d2.argmin(1)
        for c in range(k):
            mask = new_labels == c
            if mask.any():
                centers[c] = X[mask].mean(0)
            else:  # re-seed dead center at the worst-served point
                centers[c] = X[d2.min(1).argmax()]
        if (new_labels == labels).all():
            labels = new_labels
            break
        labels = new_labels
    return centers, labels
