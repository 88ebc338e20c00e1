"""Tests for the OPQ baseline."""
import numpy as np
import pandas as pd
import pytest

from repro.baselines.linear_scan import bruteforce_topk
from repro.baselines.opq import knn_opq
from repro.metrics import recall_at_k


def test_rotation_is_orthonormal(tiny_opq):
    R = tiny_opq.R
    assert np.allclose(R @ R.T, np.eye(R.shape[0]), atol=1e-8)


def test_codebook_shapes(tiny_opq, tiny_params):
    assert len(tiny_opq.codebooks) == 2
    d = tiny_params.nu // 2
    for C in tiny_opq.codebooks:
        assert C.shape == (64, d)


def test_codes_in_range_and_complete(tiny_opq, tiny_xq):
    X, _ = tiny_xq
    pdf = tiny_opq.codes.toPandas()
    assert len(pdf) == len(X)
    codes = np.vstack(pdf["code"].to_numpy())
    assert codes.shape == (len(X), 2)
    assert codes.min() >= 0 and codes.max() < 64


def test_codes_match_driver_encoding(tiny_opq, tiny_xq):
    """The Spark code-assignment UDF equals direct NumPy assignment."""
    X, _ = tiny_xq
    pdf = tiny_opq.codes.limit(40).toPandas()
    Z = X @ tiny_opq.R
    for _, row in pdf.iterrows():
        i = int(row["id"])
        for mi, dims in enumerate(tiny_opq.splits):
            d2 = ((tiny_opq.codebooks[mi] - Z[i, dims][None, :]) ** 2).sum(1)
            assert row["code"][mi] == d2.argmin()


def test_quantization_error_reasonable(tiny_opq, tiny_xq):
    """Reconstruction error is well below data variance (codebooks learned)."""
    X, _ = tiny_xq
    Z = X @ tiny_opq.R
    pdf = tiny_opq.codes.toPandas().sort_values("id")
    codes = np.vstack(pdf["code"].to_numpy())
    Zhat = np.hstack([tiny_opq.codebooks[mi][codes[:, mi]] for mi in range(2)])
    err = ((Z - Zhat) ** 2).sum() / ((Z - Z.mean(0)) ** 2).sum()
    assert err < 0.5


def test_query_shape_and_true_distances(tiny_opq, tiny_xq):
    X, Q = tiny_xq
    got = knn_opq(tiny_opq, Q[:3], k=5)
    assert set(got["qid"]) == {0, 1, 2}
    for _, row in got.iterrows():
        true = np.sqrt(((X[int(row["id"])] - Q[int(row["qid"])]) ** 2).sum())
        assert row["dist"] == pytest.approx(true, abs=1e-9)


def test_adc_recall_above_chance_below_exact(tiny_opq, tiny_xq):
    """M=2 codes retrieve far better than chance but are lossy — the shape
    behind OPQ's poor MAP in Table 5."""
    X, Q = tiny_xq
    got = knn_opq(tiny_opq, Q, k=10)
    ref = bruteforce_topk(X, Q, k=10)
    recs = []
    for qid in range(len(Q)):
        mine = got[got["qid"] == qid].sort_values("rank")["id"].tolist()
        true = ref[ref["qid"] == qid].sort_values("rank")["id"].tolist()
        recs.append(recall_at_k(mine, true, 10))
    assert 0.05 < np.mean(recs)


def test_ranked_by_adc_distance_ties_by_id(tiny_opq, tiny_xq):
    """Ranks follow the ADC distance from the codes and lookup tables, not the
    reported true distance; equal ADC distances go to the lower id."""
    X, Q = tiny_xq
    k = 15
    got = knn_opq(tiny_opq, Q, k)
    pdf = tiny_opq.codes.toPandas()
    ids = pdf["id"].to_numpy()
    codes = np.vstack(pdf["code"].to_numpy())
    Zq = Q @ tiny_opq.R
    unordered = 0
    for qid in range(len(Q)):
        adist = np.zeros(len(codes))
        for mi, dims in enumerate(tiny_opq.splits):
            lut = ((tiny_opq.codebooks[mi] - Zq[qid, dims][None, :]) ** 2).sum(1)
            adist += lut[codes[:, mi]]
        want = ids[np.lexsort((ids, adist))[:k]]
        mine = got[got["qid"] == qid].sort_values("rank")
        assert mine["id"].tolist() == want.tolist()
        unordered += bool((np.diff(mine["dist"].to_numpy()) < 0).any())
    # the check can tell ADC order from true-distance order
    assert unordered > 0
