"""Unit tests for the Hilbert curve substrate (repro.hilbert.curve).

Covers: key encode/decode bijectivity, curve adjacency (the defining Hilbert
property), fixed-width big-endian byte keys and their order, quantisation
semantics, and the paper's Table 2 running example.
"""
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hilbert.curve import (
    decode_key,
    hilbert_key_one,
    hilbert_keys,
    quantize,
    rank_along_curve,
)

# --- Table 2 running example -------------------------------------------------

TABLE2_OBJECTS = {
    "O1": (0.20, 0.74, 0.68, 0.73),
    "O2": (0.84, 0.34, 0.49, 0.81),
    "O3": (0.97, 0.64, 0.32, 0.93),
    "O4": (0.42, 0.86, 0.12, 0.82),
    "O5": (0.62, 0.09, 0.56, 0.07),
    "O6": (0.84, 0.59, 0.49, 0.73),
    "O7": (0.05, 0.43, 0.52, 0.82),
    "O8": (0.40, 0.24, 0.10, 0.64),
}
PAPER_HK1 = {"O1": 3, "O2": 6, "O3": 5, "O4": 4, "O5": 7, "O6": 5, "O7": 2, "O8": 1}
PAPER_HK2 = {"O1": 5, "O2": 5, "O3": 3, "O4": 2, "O5": 7, "O6": 4, "O7": 6, "O8": 1}


def _table2_ranks(dim_slice):
    names = list(TABLE2_OBJECTS)
    vals = np.array([TABLE2_OBJECTS[o][dim_slice[0] : dim_slice[1]] for o in names])
    cells = quantize(vals, 0.0, 1.0, omega=2)
    keys = hilbert_keys(cells, omega=2)
    return dict(zip(names, rank_along_curve(keys)))


def test_table2_hk1_exact():
    """All 8 HK1 ranks of the running example match the paper."""
    assert _table2_ranks((0, 2)) == PAPER_HK1


def test_table2_hk2_seven_of_eight():
    """HK2 matches 7/8; the O2 entry is inconsistent in the paper itself."""
    got = _table2_ranks((2, 4))
    mismatches = {o for o in got if got[o] != PAPER_HK2[o]}
    assert mismatches == {"O2"}


def test_table2_o2_o3_share_cell():
    """Why O2 must tie with O3 on HK2: identical grid cell at omega=2."""
    cells = quantize(
        np.array([TABLE2_OBJECTS["O2"][2:], TABLE2_OBJECTS["O3"][2:]]), 0.0, 1.0, 2
    )
    assert np.array_equal(cells[0], cells[1])


# --- bijectivity / adjacency -------------------------------------------------

@pytest.mark.parametrize("eta,omega", [(2, 1), (2, 2), (2, 3), (3, 2), (4, 2), (5, 3), (8, 4)])
def test_encode_decode_roundtrip_exhaustive(eta, omega):
    """decode(encode(x)) == x for every cell of small grids."""
    n_cells = 1 << omega
    total = n_cells**eta
    if total > 4096:
        pytest.skip("grid too large for exhaustive check")
    grids = np.indices((n_cells,) * eta).reshape(eta, -1).T.astype(np.uint64)
    keys = hilbert_keys(grids, omega)
    for row, hk in zip(grids, keys):
        back = decode_key(int.from_bytes(hk, "big"), eta, omega)
        assert np.array_equal(back, row)


@pytest.mark.parametrize("eta,omega", [(2, 3), (3, 2), (4, 2)])
def test_curve_is_bijective_over_grid(eta, omega):
    """Every cell gets a distinct key and keys cover 0..2^(eta*omega)-1."""
    n_cells = 1 << omega
    grids = np.indices((n_cells,) * eta).reshape(eta, -1).T.astype(np.uint64)
    keys = sorted(int.from_bytes(k, "big") for k in hilbert_keys(grids, omega))
    assert keys == list(range(n_cells**eta))


@pytest.mark.parametrize("eta,omega", [(2, 2), (2, 3), (3, 2), (4, 2)])
def test_curve_adjacency(eta, omega):
    """Consecutive keys along the curve decode to cells at L1 distance 1.

    This is the defining locality property of a Hilbert curve (Sec. 2.2.3):
    neighbours in key order are neighbours in space.
    """
    total = (1 << omega) ** eta
    prev = decode_key(0, eta, omega).astype(np.int64)
    for key in range(1, total):
        cur = decode_key(key, eta, omega).astype(np.int64)
        assert np.abs(cur - prev).sum() == 1, f"jump at key {key}"
        prev = cur


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=2**31),
)
def test_roundtrip_random(eta, omega, seed):
    """Property: roundtrip holds for random coordinates at random (eta, omega)."""
    rng = np.random.default_rng(seed)
    coords = rng.integers(0, 1 << omega, size=(4, eta)).astype(np.uint64)
    keys = hilbert_keys(coords, omega)
    for row, hk in zip(coords, keys):
        assert np.array_equal(decode_key(int.from_bytes(hk, "big"), eta, omega), row)


def test_large_eta_omega_key_width():
    """SUN-like configuration (eta=64, omega=32): 2048-bit keys, fixed width."""
    rng = np.random.default_rng(0)
    coords = rng.integers(0, 2**32, size=(8, 64)).astype(np.uint64)
    keys = hilbert_keys(coords, 32)
    assert all(type(k) is bytes and len(k) == 256 for k in keys)


@pytest.mark.parametrize("eta,omega", [(1, 1), (2, 3), (3, 3), (4, 2), (16, 8), (5, 13)])
def test_keys_are_eq4_bytes(eta, omega):
    """Every key is exactly ceil(eta * omega / 8) bytes and reads back as
    its integer: key 0, the last key, keys ending in a zero byte and random
    keys, each encoded from the cell it decodes to."""
    bits, width = eta * omega, -(-eta * omega // 8)
    rng = random.Random(bits)
    values = [0, (1 << bits) - 1] + [rng.getrandbits(bits) for _ in range(20)]
    values += [v & ~0xFF for v in values[1:]]  # the same keys ending in 0x00
    coords = np.array([decode_key(v, eta, omega) for v in values], dtype=np.uint64)
    keys = hilbert_keys(coords, omega)
    assert all(type(k) is bytes and len(k) == width for k in keys)
    assert [int.from_bytes(k, "big") for k in keys] == values
    assert keys[0] == bytes(width)


def test_byte_order_equals_numeric_order():
    rng = np.random.default_rng(1)
    coords = rng.integers(0, 2**8, size=(200, 6)).astype(np.uint64)
    keys = hilbert_keys(coords, 8)
    as_int = [int.from_bytes(k, "big") for k in keys]
    assert sorted(keys) == [k for _, k in sorted(zip(as_int, keys))]


def test_vector_matches_scalar():
    rng = np.random.default_rng(2)
    coords = rng.integers(0, 2**4, size=(50, 3)).astype(np.uint64)
    keys = hilbert_keys(coords, 4)
    for row, hk in zip(coords, keys):
        assert int.from_bytes(hk, "big") == hilbert_key_one(row, 4)


# --- quantize ----------------------------------------------------------------

def test_quantize_floor_semantics():
    cells = quantize(np.array([[0.0, 0.24, 0.25, 0.5, 0.99, 1.0]]), 0.0, 1.0, 2)
    assert cells.tolist() == [[0, 0, 1, 2, 3, 3]]


def test_quantize_clamps_out_of_domain():
    cells = quantize(np.array([[-5.0, 7.0]]), 0.0, 1.0, 3)
    assert cells.tolist() == [[0, 7]]


def test_quantize_shifted_domain():
    cells = quantize(np.array([[-1.0, 0.0, 0.999, 1.0]]), -1.0, 1.0, 1)
    assert cells.tolist() == [[0, 1, 1, 1]]


def test_quantize_rejects_empty_domain():
    with pytest.raises(ValueError):
        quantize(np.zeros((1, 2)), 1.0, 1.0, 2)


def test_quantize_integer_domain():
    """SIFT-like [0, 255] domain at omega=8: identity on integers."""
    v = np.arange(256, dtype=np.float64)[None, :]
    cells = quantize(v, 0.0, 256.0, 8)
    assert np.array_equal(cells[0], np.arange(256, dtype=np.uint64))


# --- misc validation ---------------------------------------------------------

def test_empty_input():
    assert hilbert_keys(np.zeros((0, 4), dtype=np.uint64), 3).shape == (0,)


def test_rejects_bad_shapes_and_ranges():
    with pytest.raises(ValueError):
        hilbert_keys(np.zeros(4, dtype=np.uint64), 2)
    with pytest.raises(ValueError):
        hilbert_keys(np.array([[4]], dtype=np.uint64), 2)  # 4 >= 2^2
    with pytest.raises(ValueError):
        hilbert_keys(np.zeros((1, 2), dtype=np.uint64), 0)


def test_rank_along_curve_dense_with_ties():
    assert rank_along_curve(["0a", "03", "0a", "ff"]).tolist() == [2, 1, 2, 3]
