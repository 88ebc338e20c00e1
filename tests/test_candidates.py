"""The curve-window candidate primitive shared by HD-Index and Multicurves:
every (tree, query) pair keeps exactly the alpha entries nearest by
(|key - q|, id), whatever the Arrow batches the scan is cut into."""
import random

import numpy as np
import pandas as pd
import pytest

from repro.baselines.idistance import build_idistance, knn_idistance
from repro.baselines.multicurves import knn_multicurves
from repro.core.query import (
    curve_candidates, key_dist, key_limbs, key_order, knn_query, query_hilbert_keys,
)


def _no_scores(qid, payload_rows):
    return {}


def _limbs_value(row) -> int:
    v = 0
    for limb in row:
        v = (v << 60) + int(limb)
    return v


@pytest.mark.parametrize(
    "which,payload",
    [("tiny_index", "rdist"), ("tiny_mc", "vec"), ("twice_index", "rdist")],
)
@pytest.mark.parametrize("alpha", [1, 37])
def test_alpha_window_keeps_nearest_keys(request, tiny_xq, tiny_params, which, payload, alpha):
    """The kept ids per (tree, query), in order, are the first alpha of the
    whole tree by (|key - q|, id), at both leaf orders and with duplicated
    vectors, including queries at both domain corners so windows reach the
    ends of the curve."""
    index = request.getfixturevalue(which)
    _, Q = tiny_xq
    lo, hi = tiny_params.domain_lo, tiny_params.domain_hi
    queries = np.vstack([Q[:3], np.full(tiny_params.nu, lo), np.full(tiny_params.nu, hi)])
    got = curve_candidates(index, queries, alpha, payload, _no_scores, [])
    assert list(got.columns) == ["tree_id", "qid", "id"]
    qkeys = query_hilbert_keys(index, queries)
    straddles = 0
    for t, tree in enumerate(index.trees):
        pdf = tree.select("id", "hkey").toPandas()
        keys = [int(h, 16) for h in pdf["hkey"]]
        for qid, qk_hex in enumerate(qkeys[t]):
            qk = int(qk_hex, 16)
            ranked = sorted(zip((abs(k - qk) for k in keys), pdf["id"]))
            want = [i for _, i in ranked[:alpha]]
            have = got[(got["tree_id"] == t) & (got["qid"] == qid)]["id"].tolist()
            assert have == want, (which, t, qid)
            straddles += ranked[alpha - 1][0] == ranked[alpha][0]
    if which == "twice_index":
        assert straddles > 0  # the id tie-break decided some alpha cut


@pytest.mark.parametrize("width", [1, 2, 15, 16, 30, 32, 45, 64])
def test_key_dist_is_exact(width):
    """Limb key distances equal Python's big-int |k - q| at any key width,
    with every limb in [0, 2^60)."""
    rng = random.Random(width)
    keys = ["".join(rng.choice("0123456789abcdef") for _ in range(width)) for _ in range(200)]
    keys += ["0" * width, "f" * width]
    limbs = key_limbs(keys)
    for q in [keys[0], keys[1], "0" * width, "f" * width]:
        d = key_dist(limbs, key_limbs([q])[0])
        assert d.dtype == np.int64 and (d >= 0).all() and (d < 1 << 60).all()
        assert [_limbs_value(r) for r in d] == [abs(int(k, 16) - int(q, 16)) for k in keys]
    assert (key_dist(limbs, limbs[5]).any(axis=1) == [k != keys[5] for k in keys]).all()


@pytest.mark.parametrize("width", [1, 16, 45, 192, 300])
def test_key_order_is_exact(width):
    """key_order equals a sort by (group, big-int |k - q|, id), with most keys
    a few low digits away from each other so that their float prefixes tie,
    and at 300 hex digits, where the prefixes overflow to inf."""
    rng = random.Random(width)
    near = "".join(rng.choice("0123456789abcdef") for _ in range(width))
    keys = []
    for _ in range(400):
        cut = rng.randint(max(0, width - 3), width) if rng.random() < 0.7 else 0
        keys.append(near[:cut] + "".join(rng.choice("0123456789abcdef") for _ in range(width - cut)))
    ids = np.array(rng.sample(range(10**6), len(keys)))
    group = np.array([rng.randint(0, 2) for _ in keys])
    for q in [near, keys[3], "f" * width]:
        limbs = list(key_dist(key_limbs(keys), key_limbs([q])[0]).T)
        exact = [abs(int(k, 16) - int(q, 16)) for k in keys]
        want = sorted(range(len(keys)), key=lambda i: (group[i], exact[i], ids[i]))
        assert key_order(limbs, ids, group).tolist() == want
        want = sorted(range(len(keys)), key=lambda i: (exact[i], ids[i]))
        assert key_order(limbs, ids).tolist() == want


def test_answers_do_not_depend_on_arrow_batches(spark, tiny_df, tiny_index, tiny_mc, tiny_xq):
    """With 7-row Arrow batches every window spans many batches, and
    iDistance's chunk and batch edges fall everywhere; the driver's merge
    must still give the answers of the default batch size."""
    X, Q = tiny_xq
    queries = np.vstack([Q, X[[5, 123]]])
    idist = build_idistance(spark, tiny_df, n_centers=8)

    def answers():
        return [
            knn_query(tiny_index, queries, k=10, alpha=37, gamma=9, filters="tri"),
            knn_query(tiny_index, queries, k=10, alpha=37, beta=20, gamma=9, filters="both"),
            knn_query(tiny_index, queries, k=10, alpha=37, filters="none"),
            knn_multicurves(tiny_mc, queries, k=10, alpha=37),
            knn_idistance(idist, queries, k=3),
        ]

    default = answers()
    key = "spark.sql.execution.arrow.maxRecordsPerBatch"
    prev = spark.conf.get(key)
    spark.conf.set(key, "7")
    try:
        small = answers()
    finally:
        spark.conf.set(key, prev)
    for a, b in zip(default, small):
        pd.testing.assert_frame_equal(a, b, check_exact=True)
