"""The curve-window candidate primitive shared by HD-Index and Multicurves:
every (tree, query) group keeps exactly the alpha entries nearest by key."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql.types import LongType, StringType, StructField, StructType

from repro.core.query import curve_candidates, query_hilbert_keys

_SCHEMA = StructType(
    [
        StructField("tree_id", LongType()),
        StructField("qid", LongType()),
        StructField("hkey", StringType()),
    ]
)


def _kept_keys(qid, sel):
    return pd.DataFrame(
        {"tree_id": sel["tree_id"].to_numpy(), "qid": qid, "hkey": sel["hkey"].to_numpy()}
    ).astype({"tree_id": "int64", "qid": "int64"})


@pytest.mark.parametrize("which,payload", [("tiny_index", "rdist"), ("tiny_mc", "vec")])
@pytest.mark.parametrize("alpha", [1, 37])
def test_alpha_window_keeps_nearest_keys(request, tiny_xq, tiny_params, which, payload, alpha):
    """Key distances of the kept rows equal the alpha smallest |key - q| over
    the whole tree, at both leaf orders, including queries at both domain
    corners so windows reach the ends of the curve."""
    index = request.getfixturevalue(which)
    _, Q = tiny_xq
    lo, hi = tiny_params.domain_lo, tiny_params.domain_hi
    queries = np.vstack([Q[:3], np.full(tiny_params.nu, lo), np.full(tiny_params.nu, hi)])
    got = curve_candidates(index, queries, alpha, payload, _kept_keys, _SCHEMA).toPandas()
    qkeys = query_hilbert_keys(index, queries)
    for t, tree in enumerate(index.trees):
        keys = np.array([int(h, 16) for h in tree.select("hkey").toPandas()["hkey"]], dtype=object)
        for qid, qk_hex in enumerate(qkeys[t]):
            qk = int(qk_hex, 16)
            want = sorted(np.sort(np.abs(keys - qk))[:alpha].tolist())
            rows = got[(got["tree_id"] == t) & (got["qid"] == qid)]
            have = sorted(abs(int(h, 16) - qk) for h in rows["hkey"])
            assert have == want, (which, t, qid)
