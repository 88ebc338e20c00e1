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
import numpy as np
import pandas as pd
import pytest

from repro.baselines.c2lsh import build_c2lsh, knn_c2lsh
from repro.baselines.hnsw import HNSW, knn_hnsw
from repro.baselines.idistance import build_idistance, knn_idistance
from repro.baselines.linear_scan import bruteforce_topk, knn_linear_scan
from repro.baselines.multicurves import build_multicurves, knn_multicurves
from repro.baselines.opq import build_opq, knn_opq
from repro.baselines.qalsh import build_qalsh, knn_qalsh
from repro.baselines.srs import build_srs, knn_srs
from repro.core.build import build_hd_index
from repro.core.query import knn_query
from repro.harness.datasets import TABLE5_DATASETS, load_xq
from repro.harness.table5 import hd_params_for
from repro.metrics import map_at_k, ranked_lists
from repro.synth_data import vectors_df

K = 100
SPECS = {s.name: s for s in TABLE5_DATASETS}
BENCH_DATASETS = ["sift10k", "audio"]

# MAP@100 floors per method (paper shape: hdindex/qalsh/hnsw high,
# c2lsh/srs medium, opq low-but-above-zero; linear scan and iDistance are
# exact, so they must equal the brute-force answer, which _check also asserts).
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
            "X": X,
            "Q": Q,
            "df": df,
            "truth": truth,
            "t_ids": ranked_lists(truth, len(Q))[0],
            "hd": build_hd_index(spark, df, hd_params_for(spec)),
            "mc": build_multicurves(spark, df, hd_params_for(spec)),
            "c2": build_c2lsh(spark, df, m=20),
            "qa": build_qalsh(spark, df, m=20),
            "srs": build_srs(spark, df, m_proj=6),
            "opq": build_opq(spark, df, M=2, ksub=256),
            "hnsw": HNSW(X, M=12, ef_construction=128),
            "idist": build_idistance(spark, df, n_centers=min(64, spec.n // 10)),
        }
    return ctx


def _check(res, ctx, method):
    g_ids, _ = ranked_lists(res, len(ctx["Q"]))
    m = map_at_k(g_ids, ctx["t_ids"], K)
    assert m >= MAP_FLOORS[method], f"{method} MAP@{K} regressed: {m:.3f}"
    if method in ("linear", "idistance"):
        pd.testing.assert_frame_equal(res, ctx["truth"], check_exact=True)


@pytest.mark.parametrize("name", BENCH_DATASETS)
def test_bench_hdindex_query(benchmark, table5_ctx, name):
    c = table5_ctx[name]
    res = benchmark.pedantic(
        lambda: knn_query(c["hd"], c["Q"], K, filters="tri"), rounds=1, iterations=1
    )
    _check(res, c, "hdindex")


@pytest.mark.parametrize("name", BENCH_DATASETS)
def test_bench_multicurves_query(benchmark, table5_ctx, name):
    c = table5_ctx[name]
    spec = c["spec"]
    res = benchmark.pedantic(
        lambda: knn_multicurves(c["mc"], c["Q"], K, alpha=min(spec.alpha, spec.n)),
        rounds=1,
        iterations=1,
    )
    _check(res, c, "multicurves")


@pytest.mark.parametrize("name", BENCH_DATASETS)
def test_bench_c2lsh_query(benchmark, table5_ctx, name):
    c = table5_ctx[name]
    res = benchmark.pedantic(
        lambda: knn_c2lsh(c["c2"], c["Q"], K, beta_n=max(100, c["spec"].n // 100)),
        rounds=1,
        iterations=1,
    )
    _check(res, c, "c2lsh")


@pytest.mark.parametrize("name", BENCH_DATASETS)
def test_bench_qalsh_query(benchmark, table5_ctx, name):
    c = table5_ctx[name]
    res = benchmark.pedantic(
        lambda: knn_qalsh(c["qa"], c["Q"], K, beta_n=max(100, c["spec"].n // 100)),
        rounds=1,
        iterations=1,
    )
    _check(res, c, "qalsh")


@pytest.mark.parametrize("name", BENCH_DATASETS)
def test_bench_srs_query(benchmark, table5_ctx, name):
    c = table5_ctx[name]
    res = benchmark.pedantic(
        lambda: knn_srs(c["srs"], c["Q"], K, min_examined=max(400, 2 * K)),
        rounds=1,
        iterations=1,
    )
    _check(res, c, "srs")


@pytest.mark.parametrize("name", BENCH_DATASETS)
def test_bench_opq_query(benchmark, table5_ctx, name):
    c = table5_ctx[name]
    res = benchmark.pedantic(
        lambda: knn_opq(c["opq"], c["Q"], K), rounds=1, iterations=1
    )
    _check(res, c, "opq")


@pytest.mark.parametrize("name", BENCH_DATASETS)
def test_bench_hnsw_query(benchmark, table5_ctx, name):
    c = table5_ctx[name]
    res = benchmark.pedantic(
        lambda: knn_hnsw(c["hnsw"], c["Q"], K, ef=256), rounds=1, iterations=1
    )
    _check(res, c, "hnsw")


@pytest.mark.parametrize("name", BENCH_DATASETS)
def test_bench_linear_query(benchmark, table5_ctx, name):
    c = table5_ctx[name]
    res = benchmark.pedantic(
        lambda: knn_linear_scan(c["df"], c["Q"], K), rounds=1, iterations=1
    )
    _check(res, c, "linear")


@pytest.mark.parametrize("name", BENCH_DATASETS)
def test_bench_idistance_query(benchmark, table5_ctx, name):
    c = table5_ctx[name]
    res = benchmark.pedantic(
        lambda: knn_idistance(c["idist"], c["Q"], K), rounds=1, iterations=1
    )
    _check(res, c, "idistance")
