"""Hilbert space-filling curve for arbitrary dimensionality and order.

The paper builds each RDB-tree over the Hilbert keys of an eta-dimensional
sub-space at curve order omega (Sec. 3.1), computed with the Butz algorithm.
We implement Skilling's formulation of the same curve (J. Skilling,
"Programming the Hilbert curve", 2004), which is algebraically equivalent and
vectorises cleanly: the axes -> transpose conversion is a fixed sequence of
bitwise operations applied column-wise over an ``(n, eta)`` uint64 array.

A key has ``eta * omega`` bits, which for the paper's configurations (e.g.
SUN: eta=64, omega=32 -> 2048 bits) vastly exceeds any machine integer. Keys
are therefore emitted as the paper's leaf entries store them (Eq. 4):
**ceil(eta * omega / 8) big-endian bytes**, zero-padded at the front, so
unsigned bytewise order equals numeric key order. Python ``bytes``, Spark's
``binary`` and DuckDB's ``BLOB`` all compare that way, which makes the keys
directly usable as Spark sort keys and DuckDB-comparable.

The orientation convention (identity axis order, no reflections) reproduces
the paper's running example (Table 2): all 8 HK1 ranks and 7/8 HK2 ranks
match; the one divergent entry (O2, HK2) is internally inconsistent in the
paper because O2 and O3 share a grid cell at omega=2 yet are listed with
different ranks (see DESIGN.md deviation #4).
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "quantize",
    "hilbert_keys",
    "hilbert_key_one",
    "decode_key",
    "rank_along_curve",
]


def quantize(
    values: np.ndarray, lo: float, hi: float, omega: int
) -> np.ndarray:
    """Map real coordinates in ``[lo, hi]`` to integer grid cells in ``[0, 2^omega)``.

    Uses floor scaling (cell = floor((v - lo) / (hi - lo) * 2^omega)) with the
    upper edge clamped into the last cell, matching the grid semantics of the
    paper's running example. Values outside the domain are clamped.
    """
    if hi <= lo:
        raise ValueError(f"empty domain [{lo}, {hi}]")
    n_cells = np.uint64(1) << np.uint64(omega)
    scaled = (np.asarray(values, dtype=np.float64) - lo) / (hi - lo)
    cells = np.floor(scaled * float(n_cells)).astype(np.int64)
    return np.clip(cells, 0, int(n_cells) - 1).astype(np.uint64)


def _axes_to_transpose(coords: np.ndarray, omega: int) -> np.ndarray:
    """Skilling's AxestoTranspose, vectorised over rows.

    ``coords`` is ``(n, eta)`` uint64 with each entry < 2^omega. Returns the
    Hilbert "transpose" form of the same shape; interleaving its bits
    MSB-first yields the scalar Hilbert key.
    """
    X = coords.astype(np.uint64).copy()
    n, eta = X.shape
    one = np.uint64(1)
    M = one << np.uint64(omega - 1)

    # Inverse undo
    Q = M
    while Q > one:
        P = Q - one
        for i in range(eta):
            has = (X[:, i] & Q) != 0
            # where bit set: X[:,0] ^= P ; else swap low bits of X[:,0], X[:,i]
            t = np.where(has, np.uint64(0), (X[:, 0] ^ X[:, i]) & P)
            X[:, 0] = np.where(has, X[:, 0] ^ P, X[:, 0] ^ t)
            if i != 0:
                X[:, i] = np.where(has, X[:, i], X[:, i] ^ t)
        Q >>= one

    # Gray encode
    for i in range(1, eta):
        X[:, i] ^= X[:, i - 1]
    t = np.zeros(n, dtype=np.uint64)
    Q = M
    while Q > one:
        sel = (X[:, eta - 1] & Q) != 0
        t = np.where(sel, t ^ (Q - one), t)
        Q >>= one
    for i in range(eta):
        X[:, i] ^= t
    return X


def _transpose_to_axes(transpose: np.ndarray, omega: int) -> np.ndarray:
    """Inverse of :func:`_axes_to_transpose` (Skilling's TransposetoAxes)."""
    X = transpose.astype(np.uint64).copy()
    n, eta = X.shape
    one = np.uint64(1)
    M = one << np.uint64(omega - 1)

    # Gray decode by H ^ (H/2)
    t = X[:, eta - 1] >> one
    for i in range(eta - 1, 0, -1):
        X[:, i] ^= X[:, i - 1]
    X[:, 0] ^= t

    # Undo excess work
    Q = np.uint64(2)
    while Q != (M << one):
        P = Q - one
        for i in range(eta - 1, -1, -1):
            has = (X[:, i] & Q) != 0
            t = np.where(has, np.uint64(0), (X[:, 0] ^ X[:, i]) & P)
            if i != 0:
                X[:, i] = np.where(has, X[:, i], X[:, i] ^ t)
                X[:, 0] = np.where(has, X[:, 0] ^ P, X[:, 0] ^ t)
            else:
                X[:, 0] = np.where(has, X[:, 0] ^ P, X[:, 0])
        Q <<= one
    return X


def hilbert_keys(coords: np.ndarray, omega: int) -> np.ndarray:
    """Hilbert keys for a batch of integer grid coordinates.

    Parameters
    ----------
    coords : ``(n, eta)`` integer array, entries in ``[0, 2^omega)``.
    omega : curve order (bits per dimension).

    Returns
    -------
    ``(n,)`` object array of ``bytes``, each ceil(eta * omega / 8) long and
    big-endian; bytewise order equals numeric Hilbert-key order.
    """
    coords = np.asarray(coords)
    if coords.ndim != 2:
        raise ValueError("coords must be (n, eta)")
    n, eta = coords.shape
    if n == 0:
        return np.empty(0, dtype=object)
    if omega < 1 or omega > 64:
        raise ValueError("omega must be in [1, 64]")
    if coords.min() < 0 or int(coords.max()) >= (1 << omega):
        raise ValueError("coordinates out of range for curve order")

    T = _axes_to_transpose(coords, omega)
    total_bits = eta * omega
    pad = (-total_bits) % 8
    bits = np.zeros((n, pad + total_bits), dtype=np.uint8)
    # Bit (omega-1-b) of every dim, dims in order, forms the key MSB-first.
    for b in range(omega - 1, -1, -1):
        col0 = pad + (omega - 1 - b) * eta
        bits[:, col0 : col0 + eta] = ((T >> np.uint64(b)) & np.uint64(1)).astype(
            np.uint8
        )
    return np.array([row.tobytes() for row in np.packbits(bits, axis=1)], dtype=object)


def hilbert_key_one(coords, omega: int) -> int:
    """Scalar Hilbert key as a Python int — reference path used by tests."""
    arr = np.asarray([coords], dtype=np.uint64)
    return int.from_bytes(hilbert_keys(arr, omega)[0], "big")


def decode_key(key: int, eta: int, omega: int) -> np.ndarray:
    """Invert :func:`hilbert_key_one`: key -> grid coordinates ``(eta,)``.

    Only used for testing bijectivity/adjacency; scalar, pure-Python bit
    un-interleave followed by the vectorised transpose inverse.
    """
    T = np.zeros((1, eta), dtype=np.uint64)
    # Key bits MSB-first: position (omega-1-b)*eta + i  ->  bit b of dim i.
    for b in range(omega - 1, -1, -1):
        for i in range(eta):
            shift = (omega - 1 - b) * eta + i
            bit = (key >> (eta * omega - 1 - shift)) & 1
            T[0, i] |= np.uint64(bit) << np.uint64(b)
    return _transpose_to_axes(T, omega)[0]


def rank_along_curve(keys) -> np.ndarray:
    """Dense competition rank (1 + number of distinct smaller keys).

    This is the "sorted order along the curve" used for the HK columns of the
    paper's Table 2: objects sharing a grid cell share a rank.
    """
    keys = list(keys)
    distinct = sorted(set(keys))
    pos = {k: i + 1 for i, k in enumerate(distinct)}
    return np.array([pos[k] for k in keys], dtype=np.int64)
