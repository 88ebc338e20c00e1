"""Tests for repro.core.params — Eq. (4) leaf orders reproduce Table 3."""
import numpy as np
import pytest

from repro.core.params import (
    HDIndexParams,
    internal_branching,
    leaf_order,
    partition_dims,
)

# Table 3 of the paper: (dataset, nu, omega, eta, m, expected Omega), B=4096.
TABLE3 = [
    ("SIFTn", 128, 8, 16, 10, 63),
    ("Yorck", 128, 32, 16, 10, 36),
    ("SUN", 512, 32, 64, 10, 13),
    ("Audio", 192, 32, 24, 10, 28),
    ("Enron", 1369, 16, 86, 10, 18),
    ("Glove", 100, 32, 13, 10, 40),
]


@pytest.mark.parametrize("name,nu,omega,eta,m,expected", TABLE3)
def test_table3_leaf_orders_exact(name, nu, omega, eta, m, expected):
    assert leaf_order(eta, omega, m, 4096) == expected, name


@pytest.mark.parametrize("name,nu,omega,eta,m,expected", TABLE3)
def test_table3_eta_derivation(name, nu, omega, eta, m, expected):
    """The paper's eta column equals ceil(nu / tau) for its tau choice."""
    tau = 16 if name == "Enron" else 8
    groups = partition_dims(nu, tau)
    assert max(len(g) for g in groups) == eta


def test_leaf_order_monotone_in_page_size():
    assert leaf_order(16, 8, 10, 8192) > leaf_order(16, 8, 10, 4096)


def test_leaf_order_decreases_with_m():
    assert leaf_order(16, 8, 20, 4096) < leaf_order(16, 8, 10, 4096)


def test_leaf_order_decreases_with_key_bytes():
    assert leaf_order(64, 32, 10, 4096) < leaf_order(16, 8, 10, 4096)


def test_leaf_order_rejects_tiny_page():
    with pytest.raises(ValueError):
        leaf_order(1024, 64, 100, 128)


def test_leaf_order_eq4_tightness():
    """Omega satisfies Eq. (4) and Omega+1 violates it, for Table 3 rows."""
    for _, nu, omega, eta, m, exp in TABLE3:
        entry = eta * omega / 8 + 4 * m + 8
        assert entry * exp + 17 <= 4096
        assert entry * (exp + 1) + 17 > 4096


def test_internal_branching_reasonable():
    th = internal_branching(16, 8, 4096)
    assert th == int((4096 - 17) // (16 + 8))
    assert internal_branching(4096, 64, 4096) == 2  # floor would be < 2


# --- partition_dims ----------------------------------------------------------

def test_partition_contiguous_cover_disjoint():
    groups = partition_dims(128, 8)
    all_dims = np.concatenate(groups)
    assert sorted(all_dims.tolist()) == list(range(128))
    assert len(groups) == 8
    assert all(len(g) == 16 for g in groups)


def test_partition_uneven_enron_glove():
    enron = partition_dims(1369, 16)
    assert [len(g) for g in enron] == [86] * 15 + [79]
    glove = partition_dims(100, 8)
    assert [len(g) for g in glove] == [13] * 7 + [9]


def test_partition_random_is_permutation():
    groups = partition_dims(64, 4, scheme="random", seed=3)
    cat = np.concatenate(groups)
    assert sorted(cat.tolist()) == list(range(64))
    assert cat.tolist() != list(range(64))  # actually shuffled


def test_partition_random_seeded():
    a = partition_dims(64, 4, scheme="random", seed=3)
    b = partition_dims(64, 4, scheme="random", seed=3)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_partition_fallback_when_ceil_starves():
    groups = partition_dims(9, 4)
    assert len(groups) == 4
    assert sorted(np.concatenate(groups).tolist()) == list(range(9))


def test_partition_validation():
    with pytest.raises(ValueError):
        partition_dims(8, 0)
    with pytest.raises(ValueError):
        partition_dims(8, 9)
    with pytest.raises(ValueError):
        partition_dims(8, 2, scheme="zigzag")


# --- HDIndexParams -----------------------------------------------------------

def test_params_defaults_match_paper_recommendations():
    p = HDIndexParams(nu=128, domain_lo=0, domain_hi=256)
    assert p.tau == 8 and p.m == 10 and p.alpha == 4096
    assert p.effective_gamma == 1024  # alpha / 4
    assert p.eta == 16


def test_params_leaf_order_sift_configuration():
    p = HDIndexParams(nu=128, domain_lo=0, domain_hi=256, omega=8, m=10)
    assert p.leaf_order == 63  # Table 3, SIFTn row


def test_params_validation():
    with pytest.raises(ValueError):
        HDIndexParams(nu=0, domain_lo=0, domain_hi=1)
    with pytest.raises(ValueError):
        HDIndexParams(nu=8, domain_lo=1, domain_hi=1)


def test_params_partitions_frozen_and_disjoint():
    p = HDIndexParams(nu=100, domain_lo=-10, domain_hi=10, tau=8)
    flat = [d for g in p.partitions for d in g]
    assert sorted(flat) == list(range(100))
    assert p.eta == 13
