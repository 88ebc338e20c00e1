"""Benchmarks for Table 5: per-method query latency on the two smallest
Table-4 stand-ins (sift10k, audio), k=100.

Each index is built once per dataset (session-scoped fixture); the
benchmark times the full query batch — the quantity whose between-method
ratios reproduce Table 5's "gain in query time" columns. The remaining
datasets (sun, sift40k, enron, glove) are covered by
``jobs/table5_comparative.py``, whose output is recorded in EXPERIMENTS.md;
they are excluded here only to keep the benchmark suite's wall-clock sane.

MAP@100 is asserted as a floor per method so a quality regression fails the
bench run, not just a speed regression. The exact methods (linear scan,
iDistance) must also return the brute-force answer row for row, distances
bit-identical.
"""
import pandas as pd
import pytest

from repro.baselines.linear_scan import bruteforce_topk
from repro.harness.datasets import TABLE5_DATASETS, load_xq
from repro.harness.table5 import METHODS
from repro.metrics import map_at_k, ranked_lists
from repro.synth_data import vectors_df

K = 100
SPECS = {s.name: s for s in TABLE5_DATASETS}
BENCH_DATASETS = ["sift10k", "audio"]

# MAP@100 floors per method (paper shape: hdindex/qalsh/hnsw high,
# c2lsh/srs medium, opq low-but-above-zero; linear scan and iDistance are
# exact, so they must also equal the brute-force answer).
MAP_FLOORS = {
    "linear": 1.0,
    "idistance": 1.0,
    "hdindex": 0.85,
    "multicurves": 0.6,
    "qalsh": 0.5,
    "c2lsh": 0.3,
    "srs": 0.3,
    "hnsw": 0.7,
    "opq": 0.02,
}


@pytest.fixture(scope="session")
def table5_ctx(spark):
    """Built indexes + ground truth per benchmark dataset."""
    ctx = {}
    for name in BENCH_DATASETS:
        spec = SPECS[name]
        X, Q = load_xq(spec)
        df = vectors_df(spark, X).persist()
        df.count()
        truth = bruteforce_topk(X, Q, K)
        ctx[name] = {
            "spec": spec,
            "Q": Q,
            "truth": truth,
            "t_ids": ranked_lists(truth, len(Q))[0],
            "index": {m: build(spark, df, X, spec) for m, (build, _) in METHODS.items()},
        }
    return ctx


@pytest.mark.parametrize("name", BENCH_DATASETS)
@pytest.mark.parametrize("method", list(METHODS))
def test_bench_query(benchmark, table5_ctx, method, name):
    c = table5_ctx[name]
    query = METHODS[method][1]
    res = benchmark.pedantic(
        lambda: query(c["index"][method], c["Q"], K, c["spec"]), rounds=1, iterations=1
    )
    g_ids, _ = ranked_lists(res, len(c["Q"]))
    m = map_at_k(g_ids, c["t_ids"], K)
    assert m >= MAP_FLOORS[method], f"{method} MAP@{K} regressed: {m:.3f}"
    if method in ("linear", "idistance"):
        pd.testing.assert_frame_equal(res, c["truth"], check_exact=True)
