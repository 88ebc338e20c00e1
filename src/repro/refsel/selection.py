"""Reference-object (pivot) selection — Sec. 3.3 of the paper.

Three strategies are compared in the paper (Fig. 4): ``random``, ``sss``
(sparse spatial selection, Pedreira & Brisaboa), and ``sss_dyn`` (SSS with
dynamic victim replacement, Bustos et al.). The paper's conclusion — SSS is
the recommended default, random is nearly as good — is what makes m=10
reference objects sufficient.

Selection operates on a driver-resident sample of the dataset (a NumPy
matrix). This mirrors the paper, where selection scans the data once and
m << n; for the distributed build, the caller samples the DataFrame first
(``repro.core.build`` does this) — the chosen reference *vectors* are then
broadcast to executors for distance computation.
"""
from __future__ import annotations

import numpy as np

from repro.dist import euclidean

__all__ = ["estimate_dmax", "select_random", "select_sss", "select_sss_dyn", "select"]


def estimate_dmax(X: np.ndarray, *, iters: int = 10, seed: int = 0) -> float:
    """Farthest-point walk heuristic for the dataset diameter d_max.

    Start from a random object, jump to its farthest neighbour, repeat for a
    fixed number of iterations (or until the distance stops growing); return
    the largest distance seen. O(iters * n) distance evaluations.
    """
    rng = np.random.default_rng(seed)
    cur = int(rng.integers(0, len(X)))
    best = 0.0
    for _ in range(max(1, iters)):
        d = euclidean(X, X[cur])
        far = int(np.argmax(d))
        if d[far] <= best:
            break
        best = float(d[far])
        cur = far
    return best


def select_random(X: np.ndarray, m: int, *, seed: int = 0) -> np.ndarray:
    """m distinct uniformly random row indices."""
    rng = np.random.default_rng(seed)
    if m > len(X):
        raise ValueError(f"m={m} > n={len(X)}")
    return rng.choice(len(X), size=m, replace=False)


def select_sss(
    X: np.ndarray, m: int, *, f: float = 0.3, seed: int = 0, dmax: float | None = None
) -> np.ndarray:
    """Sparse spatial selection: greedily add objects > f*d_max from all chosen.

    Scans the dataset in a fixed random order; the first object is random.
    If the scan is exhausted before m objects qualify (f too large for the
    data), the threshold is geometrically relaxed so exactly m pivots are
    always returned — the paper observes quality is insensitive to f.
    """
    n = len(X)
    if m > n:
        raise ValueError(f"m={m} > n={n}")
    rng = np.random.default_rng(seed)
    if dmax is None:
        dmax = estimate_dmax(X, seed=seed)
    order = rng.permutation(n)
    chosen: list[int] = [int(order[0])]
    thresh = f * dmax
    while len(chosen) < m:
        added = False
        pivots = X[chosen]
        for idx in order:
            i = int(idx)
            if i in set(chosen):
                continue
            d = euclidean(pivots, X[i])
            if np.all(d > thresh):
                chosen.append(i)
                added = True
                break
        if not added:
            thresh *= 0.5  # relax and rescan; terminates because thresh -> 0
            if thresh < 1e-12:
                # Degenerate data (many duplicates): pad with unused indices.
                for idx in order:
                    if int(idx) not in set(chosen):
                        chosen.append(int(idx))
                        if len(chosen) == m:
                            break
                break
    return np.array(chosen[:m], dtype=np.int64)


def _pair_contribution(X, pivots_idx, pairs):
    """Mean triangular lower bound each pivot provides over the probe pairs.

    For pivot p and pair (a, b) the contribution is |d(a,p) - d(b,p)|, i.e.
    how well p alone approximates d(a, b) from below.
    """
    contrib = np.zeros(len(pivots_idx))
    for j, p in enumerate(pivots_idx):
        dp = euclidean(X[[a for a, _ in pairs]], X[p]) - euclidean(
            X[[b for _, b in pairs]], X[p]
        )
        contrib[j] = float(np.abs(dp).mean())
    return contrib


def select_sss_dyn(
    X: np.ndarray,
    m: int,
    *,
    f: float = 0.3,
    seed: int = 0,
    n_pairs: int = 64,
    max_extra: int = 256,
) -> np.ndarray:
    """SSS-Dyn: continue past m, replacing the weakest pivot when a qualifying
    newcomer contributes more to lower-bounding a fixed probe-pair set.

    ``max_extra`` caps the continuation scan (the paper notes SSS-Dyn costs
    much more time for little quality gain — we reproduce that shape without
    unbounded scans).
    """
    n = len(X)
    rng = np.random.default_rng(seed)
    base = select_sss(X, m, f=f, seed=seed)
    chosen = [int(i) for i in base]
    dmax = estimate_dmax(X, seed=seed)
    thresh = f * dmax
    pairs = [
        (int(a), int(b))
        for a, b in rng.integers(0, n, size=(n_pairs, 2))
        if a != b
    ] or [(0, min(1, n - 1))]
    order = rng.permutation(n)
    examined = 0
    for idx in order:
        i = int(idx)
        if examined >= max_extra:
            break
        if i in set(chosen):
            continue
        d = euclidean(X[chosen], X[i])
        if not np.all(d > thresh):
            continue
        examined += 1
        contrib = _pair_contribution(X, chosen, pairs)
        victim_pos = int(np.argmin(contrib))
        new_contrib = _pair_contribution(X, [i], pairs)[0]
        if new_contrib > contrib[victim_pos]:
            chosen[victim_pos] = i
    return np.array(chosen, dtype=np.int64)


def select(X: np.ndarray, m: int, method: str = "sss", *, f: float = 0.3, seed: int = 0) -> np.ndarray:
    """Dispatch by method name ('random' | 'sss' | 'sss_dyn')."""
    if method == "random":
        return select_random(X, m, seed=seed)
    if method == "sss":
        return select_sss(X, m, f=f, seed=seed)
    if method == "sss_dyn":
        return select_sss_dyn(X, m, f=f, seed=seed)
    raise ValueError(f"unknown reference-selection method: {method!r}")
