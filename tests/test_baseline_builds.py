"""Spark jobs per build, HD-Index's and the baselines'.

C2LSH, QALSH, SRS and OPQ collect their vector store first and learn nu, n
and the bucket-width sample from it, so no build probes ``data`` for them;
Multicurves takes n from its fences. HD-Index and Multicurves pack their
pages in the pass that fences them. The counts are pinned, so a probe job
that comes back, or a pass that grows one, fails here.
"""
import pytest

from repro.core.build import build_hd_index
from repro.baselines.c2lsh import build_c2lsh
from repro.baselines.multicurves import build_multicurves
from repro.baselines.opq import build_opq
from repro.baselines.qalsh import build_qalsh
from repro.baselines.srs import build_srs
from repro.synth_data import vectors_df

BUILDS = {
    # method: (build(spark, df, params, dir), Spark jobs it runs on the tiny vectors)
    "hdindex": (lambda spark, df, p, d: build_hd_index(spark, df, p), 12),
    "hdindex-parquet": (
        lambda spark, df, p, d: build_hd_index(spark, df, p, parquet_dir=str(d)), 12
    ),
    "c2lsh": (lambda spark, df, p, d: build_c2lsh(spark, df, m=16, seed=0), 4),
    "qalsh": (lambda spark, df, p, d: build_qalsh(spark, df, m=16, seed=0), 4),
    "srs": (lambda spark, df, p, d: build_srs(spark, df, seed=0), 4),
    "opq": (lambda spark, df, p, d: build_opq(spark, df, M=2, ksub=64, opq_iters=3, seed=0), 5),
    "multicurves": (lambda spark, df, p, d: build_multicurves(spark, df, p), 10),
}


@pytest.fixture(scope="module")
def own_df(spark, tiny_xq):
    """The tiny vectors in a plan that no other test builds on: a build whose
    plan is already cached skips jobs, which would make the count depend on
    the order the tests run in."""
    df = vectors_df(spark, tiny_xq[0], n_partitions=3).persist()
    df.count()
    return df


@pytest.mark.parametrize("method", list(BUILDS))
def test_build_spark_jobs(spark, spark_jobs, own_df, tiny_params, tmp_path, method):
    build, jobs = BUILDS[method]
    assert spark_jobs(lambda: build(spark, own_df, tiny_params, tmp_path / "idx")) == jobs
