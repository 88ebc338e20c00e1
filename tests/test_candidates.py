"""The curve-window candidate primitive shared by HD-Index and Multicurves:
every (tree, query) pair keeps exactly the alpha entries nearest by
(|key - q|, id), whatever the Arrow batches the scan is cut into, and a
tree that does not lie whole in one partition is an error."""
import dataclasses
import random

import numpy as np
import pandas as pd
import pytest

from repro.baselines.idistance import knn_idistance
from repro.baselines.multicurves import knn_multicurves
from repro.core import query
from repro.core.query import (
    curve_candidates, key_dist, key_limbs, key_order, knn_query, query_hilbert_keys,
)


def _keep_all(qid, payload_rows):
    return np.arange(len(payload_rows)), {}


def _limbs_value(row) -> int:
    v = 0
    for limb in row:
        v = (v << 32) + int(limb)
    return v


def _int(key: bytes) -> int:
    return int.from_bytes(key, "big")


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
    got = curve_candidates(index, queries, alpha, _keep_all)
    assert list(got.columns) == ["tree_id", "qid", "id"]
    qkeys = query_hilbert_keys(index, queries)
    straddles = 0
    for t, tree in enumerate(index.trees):
        pdf = tree.select("id", "hkey").toPandas()
        keys = [_int(h) for h in pdf["hkey"]]
        for qid, qk in enumerate(map(_int, qkeys[t])):
            ranked = sorted(zip((abs(k - qk) for k in keys), pdf["id"]))
            want = [i for _, i in ranked[:alpha]]
            have = got[(got["tree_id"] == t) & (got["qid"] == qid)]["id"].tolist()
            assert have == want, (which, t, qid)
            straddles += ranked[alpha - 1][0] == ranked[alpha][0]
    if which == "twice_index":
        assert straddles > 0  # the id tie-break decided some alpha cut


@pytest.mark.parametrize("width", [1, 3, 4, 5, 16, 150])
def test_key_limbs_are_32_bit_words(width):
    """key_limbs equals the big-endian integer of each key split into 32-bit
    words, most significant first, over whole words: keys ending in zero
    bytes keep them, and the top word takes the key's leading bytes."""
    rng = random.Random(width)
    keys = [rng.randbytes(width) for _ in range(50)]
    keys += [bytes(width), b"\xff" * width, b"\x80" + bytes(width - 1), keys[0][:-1] + b"\0"]
    n_limbs = -(-width // 4)
    want = [[(_int(k) >> 32 * i) & 0xFFFFFFFF for i in reversed(range(n_limbs))] for k in keys]
    limbs = key_limbs(keys)
    assert limbs.dtype == np.int64 and limbs.tolist() == want


@pytest.mark.parametrize("width", [1, 2, 15, 16, 30, 32, 45, 64])
def test_key_dist_is_exact(width):
    """Limb key distances equal Python's big-int |k - q| at any key width
    in bytes, with every limb in [0, 2^32)."""
    rng = random.Random(width)
    keys = [rng.randbytes(width) for _ in range(200)]
    keys += [bytes(width), b"\xff" * width]
    limbs = key_limbs(keys)
    for q in [keys[0], keys[1], bytes(width), b"\xff" * width]:
        d = key_dist(limbs, key_limbs([q])[0])
        assert d.dtype == np.int64 and (d >= 0).all() and (d < 1 << 32).all()
        assert [_limbs_value(r) for r in d] == [abs(_int(k) - _int(q)) for k in keys]
    assert (key_dist(limbs, limbs[5]).any(axis=1) == [k != keys[5] for k in keys]).all()


@pytest.mark.parametrize("width", [1, 16, 45, 150, 192, 300])
def test_key_order_is_exact(width):
    """key_order equals a sort by (big-int |k - q|, id), with most keys a few
    low bytes away from each other so that their float prefixes tie, and
    from 150 bytes on, where the prefixes of far keys overflow to inf."""
    rng = random.Random(width)
    near = rng.randbytes(width)
    keys = []
    for _ in range(400):
        cut = rng.randint(max(0, width - 3), width) if rng.random() < 0.7 else 0
        keys.append(near[:cut] + rng.randbytes(width - cut))
    ids = np.array(rng.sample(range(10**6), len(keys)))
    for q in [near, keys[3], b"\xff" * width]:
        limbs = list(key_dist(key_limbs(keys), key_limbs([q])[0]).T)
        exact = [abs(_int(k) - _int(q)) for k in keys]
        want = sorted(range(len(keys)), key=lambda i: (exact[i], ids[i]))
        assert key_order(limbs, ids).tolist() == want


def test_answers_do_not_depend_on_arrow_batches(spark, tiny_index, tiny_mc, tiny_xq, tiny_idist):
    """With 7-row Arrow batches every window spans many batches, and
    iDistance's chunk and batch edges fall everywhere; the answers must
    still be those of the default batch size."""
    X, Q = tiny_xq
    queries = np.vstack([Q, X[[5, 123]]])

    def answers():
        return [
            knn_query(tiny_index, queries, k=10, alpha=37, gamma=9, filters="tri"),
            knn_query(tiny_index, queries, k=10, alpha=37, beta=20, gamma=9, filters="both"),
            knn_query(tiny_index, queries, k=10, alpha=37, filters="none"),
            knn_multicurves(tiny_mc, queries, k=10, alpha=37),
            knn_idistance(tiny_idist, queries, k=3),
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


def test_tri_keeps_at_most_gamma_per_tree_and_query(tiny_index, tiny_xq, monkeypatch):
    """In ``tri`` mode the kernel returns only ``(tree_id, qid, id)``
    survivors: gamma per (tree, query), as every tiny window holds alpha
    rows."""
    _, Q = tiny_xq
    seen = []

    def spy(*args, **kwargs):
        seen.append(curve_candidates(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(query, "curve_candidates", spy)
    knn_query(tiny_index, Q, k=5, alpha=37, gamma=9, filters="tri")
    (got,) = seen
    assert list(got.columns) == ["tree_id", "qid", "id"]
    sizes = got.groupby(["tree_id", "qid"]).size()
    assert len(sizes) == tiny_index.params.tau * len(Q)
    assert (sizes == 9).all()


def test_tree_split_across_partitions_is_an_error(tiny_index, tiny_xq):
    """Round-robin rows of every tree over 3 partitions: the kernel must
    refuse, naming a tree, rather than cut windows it cannot see whole."""
    _, Q = tiny_xq
    split = dataclasses.replace(tiny_index, pages=tiny_index.pages.repartition(3))
    with pytest.raises(Exception, match=r"tree \d+: the window of query \d+ holds"):
        knn_query(split, Q[:2], k=5, alpha=37, gamma=9)
