"""The benchmark workloads and the metrics they report.

Each workload is a closed loop with one client: a single Python process
issues operations back to back against the public API on seeded sift-shaped
data, checks every output, and records the Spark storage held after every
operation. Set-up builds the index with ``repro.core.build.build_hd_index``;
one operation is one ``repro.core.query.knn_query`` call.

* ``batch-mem``: a fixed 20-query batch against an in-memory index.
* ``point-disk``: one query per call against a Parquet-backed index.

With tracing on, the set-up build is traced and measured operations
alternate traced and untraced; traced ones run inside spans and Spark job
groups (``spans.Tracer``), and the per-layer metrics are computed from those
spans and the Spark event log (``sparkcost``) once the session has stopped.
"""
from __future__ import annotations

import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro.core.build as core_build
import repro.core.query as core_query
from repro.baselines.linear_scan import bruteforce_topk
from repro.core.build import build_hd_index
from repro.core.params import HDIndexParams
from repro.core.query import knn_query, triangular_bounds
from repro.hilbert.curve import hilbert_keys, quantize
from repro.metrics import map_at_k
from repro.synth_data import make_queries, make_vectors, vectors_df

import checks
import sparkcost
from spans import Tracer, covered_s

MIB = float(1 << 20)


# The sift40k spec's value domain, dimensionality and mixture geometry, and
# the paper's index settings for it (Table 3, Sec. 5.2).
NU, LO, HI = 128, 0.0, 256.0
N_CLUSTERS, SPREAD = 32, 0.12
OMEGA, M, K = 8, 10, 100


@dataclass(frozen=True)
class Shape:
    """What differs between the benchmark's shape and the smoke test's."""

    n: int
    tau: int
    alpha: int
    gamma: int
    queries: int  # the batch-mem batch; the pool point-disk cycles through

    def params(self) -> HDIndexParams:
        return HDIndexParams(
            nu=NU, domain_lo=LO, domain_hi=HI, tau=self.tau, omega=OMEGA, m=M,
            alpha=self.alpha, gamma=self.gamma,
        )


# alpha/n = 0.2 and gamma = alpha/4, as for sift40k (alpha=8192 at n=40k).
FULL = Shape(n=10_000, tau=8, alpha=2048, gamma=512, queries=20)
SMOKE = Shape(n=2_000, tau=2, alpha=1600, gamma=1600, queries=4)

WORKLOADS = ("batch-mem", "point-disk")
WARMUP_S = 12.0

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "build_s": ("s", "lower"),
    "op_s_p50": ("s", "lower"),
    "qps": ("1/s", "higher"),
    "index_bytes_per_vector_byte": ("ratio", "lower"),
    "cached_mb": ("MiB", "lower"),
    "map_at_100": ("ratio", "higher"),
}
PER_LAYER = {
    "refsel.select_s": ("s", "lower"),
    "hilbert.keys_per_s": ("1/s", "higher"),
    "hilbert.query_keys_ms": ("ms", "lower"),
    "rdbtree.assign_leaves_s": ("s", "lower"),
    "rdbtree.assign_leaves_shuffle_write_mb": ("MiB", "lower"),
    "rdbtree.leaf_fences_s": ("s", "lower"),
    "rdbtree.fence_probe_us": ("us", "lower"),
    "rdbtree.height": ("count", "lower"),
    "rdbtree.window_leaves_per_tree_query": ("count", "lower"),
    "rdbtree.window_vs_cost_model": ("ratio", "lower"),
    "build.spark_jobs": ("count", "lower"),
    "build.stages": ("count", "lower"),
    "build.tasks": ("count", "lower"),
    "build.shuffle_write_mb": ("MiB", "lower"),
    "build.executor_run_s": ("s", "lower"),
    "build.parquet_write_mb": ("MiB", "lower"),
    "build.persisted_rdds_delta": ("count", "lower"),
    "build.cached_mb_delta": ("MiB", "lower"),
    "query.window_rows_per_op": ("count", "lower"),
    "query.alpha_useful_ratio": ("ratio", "higher"),
    "query.shuffle_write_mb_per_op": ("MiB", "lower"),
    "query.shuffle_read_mb_per_op": ("MiB", "lower"),
    "query.stage.scan_join_s": ("s", "lower"),
    "query.stage.funnel_s": ("s", "lower"),
    "query.stage.rerank_s": ("s", "lower"),
    "query.tri_bounds_rows_per_s": ("1/s", "higher"),
    "query.kappa_mean": ("count", "lower"),
    "query.dedup_ratio": ("ratio", "lower"),
    "query.rerank_useful_ratio": ("ratio", "higher"),
    "query.tree_rows_scanned_per_op": ("count", "lower"),
    "query.scan_useful_ratio": ("ratio", "higher"),
    "query.spark_jobs_per_op": ("count", "lower"),
    "query.stages_per_op": ("count", "lower"),
    "query.tasks_per_op": ("count", "lower"),
    "query.driver_s_per_op": ("s", "lower"),
    "query.short_results": ("count", "lower"),
    "process.driver_rss_peak_mb": ("MiB", "lower"),
    "process.jvm_rss_peak_mb": ("MiB", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.coverage_ratio": ("ratio", "higher"),
}


def make_data(shape: Shape, seed: int, n_queries: int):
    """(X, Q) from the seed alone; the program only ever sees these arrays."""
    X = make_vectors(
        n=shape.n, nu=NU, lo=LO, hi=HI, n_clusters=N_CLUSTERS,
        cluster_spread=SPREAD, seed=seed, integer=True,
    )
    Q = make_queries(
        X, n_queries=n_queries, lo=LO, hi=HI, noise=0.01,
        seed=seed + 1_000_003, integer=True,
    )
    return X, Q


@dataclass
class Op:
    id: int
    dur_s: float
    traced: bool
    problems: list
    persisted_before: int
    persisted_after: int
    storage_mb_before: float
    storage_mb_after: float
    qids: tuple = ()  # query rows of Q answered by this op
    extra: dict = field(default_factory=dict)


def storage(sc) -> tuple[int, float]:
    """(number of persisted RDDs, MiB of Spark storage they hold)."""
    jsc = sc._jsc.sc()
    n = jsc.getPersistentRDDs().size()
    size = sum(i.memSize() + i.diskSize() for i in jsc.getRDDStorageInfo())
    return int(n), size / MIB


def parquet_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.glob("tree_*/*.parquet"))


def cached_tree_bytes(index) -> int:
    """Bytes Spark reports for the materialised in-memory trees."""
    total = 0
    for t in index.trees:
        stats = t._jdf.queryExecution().optimizedPlan().stats()
        total += int(str(stats.sizeInBytes()))
    return total


class Runner:
    """Runs one workload in an existing Spark session."""

    def __init__(self, spark, workload: str, shape: Shape, seed: int, seconds: float,
                 trace: bool, work: Path, tracer: Tracer, first_op_id: int = 0,
                 warmup_s: float = WARMUP_S):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.spark, self.sc = spark, spark.sparkContext
        self.workload, self.shape, self.seed = workload, shape, seed
        self.seconds, self.trace, self.work = seconds, trace, work
        self.warmup_s = warmup_s
        self.tracer = tracer
        self.params = shape.params()
        self.next_op = first_op_id
        self.ops: list[Op] = []
        self.setup: dict = {}
        self.setup_build: Op | None = None
        self.index = None
        self.notes: dict = {}

    # ---- operations ------------------------------------------------------
    def _new_id(self) -> int:
        self.next_op += 1
        return self.next_op

    def _run(self, kind: str, fn, traced: bool):
        op_id = self._new_id()
        before = storage(self.sc)
        with self.tracer.op(f"core.{kind}", op_id) if traced else nullcontext():
            t0 = time.perf_counter()
            out = fn()
            dur = time.perf_counter() - t0
        after = storage(self.sc)
        op = Op(op_id, dur, traced, [], before[0], after[0], before[1], after[1])
        return op, out

    def _build(self, traced: bool, parquet: bool) -> Op:
        d = self.work / "index" if parquet else None
        op, idx = self._run(
            "build",
            lambda: build_hd_index(self.spark, self.df, self.params,
                                   parquet_dir=str(d) if d else None),
            traced,
        )
        op.problems = checks.check_build(idx, self.shape.n)
        self.index = idx
        op.extra["index_bytes"] = parquet_bytes(d) if d else cached_tree_bytes(idx)
        return op

    def _query(self, qids, traced: bool) -> Op:
        Qop = self.Q[list(qids)]
        op, res = self._run(
            "query",
            lambda: knn_query(self.index, Qop, K, filters="tri"),
            traced,
        )
        op.qids = tuple(qids)
        op.problems = checks.check_query(res, self.X, Qop, K)
        op.extra["short"] = checks.short_results(res, len(Qop), K)
        op.extra["map"] = self._map(res, qids)
        return op

    def _map(self, res, qids) -> float:
        got = [g.sort_values("rank")["id"].tolist() for _, g in res.groupby("qid")]
        truth = [self.truth[q] for q in qids]
        return float(map_at_k(got, truth, K)) if len(got) == len(truth) else 0.0

    def _op(self, i: int, traced: bool) -> Op:
        if self.workload == "batch-mem":
            return self._query(range(self.shape.queries), traced)
        return self._query([i % self.shape.queries], traced)

    # ---- phases ----------------------------------------------------------
    def run_setup(self, session_s: float) -> None:
        """Data, the index, and untimed warm-up ops."""
        shape = self.shape
        self.setup["session_s"] = session_s
        t0 = time.perf_counter()
        # point-disk warms up on one extra query outside its pool.
        n_queries = shape.queries + 1
        self.X, self.Q = make_data(shape, self.seed, n_queries)
        truth = bruteforce_topk(self.X, self.Q, K)
        self.truth = [g.sort_values("rank")["id"].tolist() for _, g in truth.groupby("qid")]
        self.df = vectors_df(self.spark, self.X)
        self.setup["data_s"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        self.setup_build = self._build(self.trace, parquet=self.workload == "point-disk")
        if self.setup_build.problems:
            raise RuntimeError(f"set-up build failed its checks: {self.setup_build.problems}")
        self.setup["index_build_s"] = time.perf_counter() - t0

        # Warm-up ops for at least ``warmup_s``: the first few calls in a process
        # are slower while the JVM and the Python workers settle.
        t0 = time.perf_counter()
        while True:
            if self.workload == "point-disk":
                warm = self._query([shape.queries], traced=False)
            else:
                warm = self._op(0, traced=False)
            if warm.problems:
                raise RuntimeError(f"warm-up op failed its checks: {warm.problems}")
            if time.perf_counter() - t0 >= self.warmup_s:
                break
        self.setup["warmup_s"] = time.perf_counter() - t0
        self.setup["total_s"] = session_s + sum(
            self.setup[k] for k in ("data_s", "index_build_s", "warmup_s")
        )

    def run_measured(self) -> None:
        """Ops back to back for ``seconds``; traced runs alternate traced and
        untraced ops and make at least one of each."""
        min_ops = 2 if self.trace else 1
        t0 = time.perf_counter()
        i = 0
        while True:
            self.ops.append(self._op(i, traced=self.trace and i % 2 == 0))
            i += 1
            if time.perf_counter() - t0 >= self.seconds and i >= min_ops:
                break
        self.notes["measured_s"] = time.perf_counter() - t0

    def run_trace_extras(self) -> None:
        """Driver-side layer timings on the inputs the traced ops used; run
        outside any op so they add nothing to op times."""
        if not self.trace:
            return
        p = self.params
        t0 = time.perf_counter()
        for dims in p.partitions:
            sub = self.X[:, np.asarray(dims, dtype=np.int64)]
            hilbert_keys(quantize(sub, p.domain_lo, p.domain_hi, p.omega), p.omega)
        self.notes["hilbert_keys_s"] = time.perf_counter() - t0
        traced = [o for o in self.ops if o.traced]
        first = traced[0]
        Qop = self.Q[list(first.qids)]
        qkeys = core_query.query_hilbert_keys(self.index, Qop)
        t0 = time.perf_counter()
        windows = []
        for hier, keys in zip(self.index.hierarchies, qkeys):
            for key in keys:
                windows.append(hier.window(hier.lookup(key), p.alpha))
        probe_s = time.perf_counter() - t0
        self.notes["fence_probe_us"] = probe_s / len(windows) * 1e6
        self.notes["window_leaves"] = float(np.mean([hi - lo + 1 for lo, hi in windows]))
        # Eq. 5 bound over one (tree, query) window, on the leaf-resident rdists.
        lo, hi = windows[0]
        rows = (
            self.index.trees[0]
            .where(f"leaf_id >= {lo} AND leaf_id <= {hi}")
            .select("rdist").toPandas()
        )
        o_rdist = np.vstack(rows["rdist"].to_numpy())
        q_rdist = np.sqrt(((self.index.ref_vectors - Qop[0][None, :]) ** 2).sum(-1))
        reps = 20
        t0 = time.perf_counter()
        for _ in range(reps):
            triangular_bounds(q_rdist, o_rdist)
        self.notes["tri_bounds_rows_per_s"] = reps * len(o_rdist) / (time.perf_counter() - t0)
        # kappa needs return_stats=True, which re-runs the candidate stage.
        _, stats = knn_query(self.index, Qop, K, filters="tri", return_stats=True)
        self.notes["kappa_mean"] = float(stats["mean_kappa"])

    # ---- metrics ---------------------------------------------------------
    def correctness(self) -> tuple[int, int, list]:
        """(attempted, failed, problems) over the measured ops, plus the run's
        MAP@100 floor."""
        problems = [f"op {o.id}: {p}" for o in self.ops for p in o.problems]
        failed = sum(1 for o in self.ops if o.problems)
        m = self.map_at_100()
        if m < checks.MAP_FLOOR:
            problems.append(f"map_at_100 {m:.4f} below the floor {checks.MAP_FLOOR}")
            failed = max(failed, 1)
        return len(self.ops), failed, problems

    def map_at_100(self) -> float:
        # Each op's MAP weighted by its query count.
        num = sum(o.extra["map"] * len(o.qids) for o in self.ops)
        return num / sum(len(o.qids) for o in self.ops)

    def end_to_end(self) -> dict:
        timed = [o for o in self.ops if not o.traced]
        build = self.setup_build
        return {
            "setup_s": self.setup["total_s"],
            "build_s": build.dur_s,
            "op_s_p50": statistics.median(o.dur_s for o in timed),
            "qps": sum(len(o.qids) for o in timed) / sum(o.dur_s for o in timed),
            "index_bytes_per_vector_byte": build.extra["index_bytes"] / (self.shape.n * NU * 8),
            "cached_mb": self.ops[0].storage_mb_after,
            "map_at_100": self.map_at_100(),
        }

    def op_samples(self) -> dict:
        timed = sorted(o.dur_s for o in self.ops if not o.traced)
        out = {"samples": len(timed), "p50_s": statistics.median(timed)}
        # The highest percentile with at least ten samples beyond it.
        if len(timed) >= 11:
            pct = int(100 * (1 - 10 / len(timed)))
            out["tail_pct"] = pct
            out["tail_s"] = float(np.percentile(timed, pct))
        else:
            out["tail_pct"] = None
            out["tail_note"] = f"{len(timed)} samples: no percentile has ten beyond it"
        return out

    def per_layer(self, log: sparkcost.EventLog, jvm_rss_mb: float) -> dict:
        tr = self.tracer
        p = self.params
        m = {}
        stages_of = _stages_by_op(log)
        jobs_of = _jobs_by_op(log)

        b = self.setup_build  # traced in a traced run
        stages = stages_of.get(b.id, ())

        def span_s(name):
            return sum(s.dur_s for s in tr.of_op(b.id) if s.name == name)

        total = sparkcost.totals(stages)
        leaves = sparkcost.totals(s for s in stages if s.group == f"{b.id}|rdbtree.assign_leaves")
        m["refsel.select_s"] = span_s("refsel.select")
        m["rdbtree.assign_leaves_s"] = span_s("rdbtree.assign_leaves")
        m["rdbtree.leaf_fences_s"] = span_s("rdbtree.leaf_fences")
        m["rdbtree.assign_leaves_shuffle_write_mb"] = leaves.shuffle_write_bytes / MIB
        m["build.spark_jobs"] = float(len(jobs_of.get(b.id, ())))
        m["build.stages"] = float(total.stages)
        m["build.tasks"] = float(total.tasks)
        m["build.shuffle_write_mb"] = total.shuffle_write_bytes / MIB
        m["build.executor_run_s"] = total.run_s
        m["build.parquet_write_mb"] = total.output_bytes / MIB
        m["build.persisted_rdds_delta"] = float(b.persisted_after - b.persisted_before)
        m["build.cached_mb_delta"] = b.storage_mb_after - b.storage_mb_before
        m["hilbert.keys_per_s"] = self.shape.n * len(p.partitions) / self.notes["hilbert_keys_s"]
        m["rdbtree.height"] = float(np.mean([h.height for h in self.index.hierarchies]))

        queries = [o for o in self.ops if o.traced]
        m.update(self._query_layers(queries, stages_of, jobs_of, log))
        m["query.short_results"] = float(sum(o.extra.get("short", 0) for o in self.ops))

        m["process.driver_rss_peak_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        m["process.jvm_rss_peak_mb"] = jvm_rss_mb
        traced = [o.dur_s for o in self.ops if o.traced]
        untraced = [o.dur_s for o in self.ops if not o.traced]
        m["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
        m["trace.coverage_ratio"] = float(np.mean([
            _coverage(tr, o, jobs_of, log) for o in self.ops if o.traced
        ]))
        return {name: m[name] for name in PER_LAYER}

    def _query_layers(self, queries, stages_of, jobs_of, log) -> dict:
        """Query-layer metrics averaged over the traced ops. A ratio whose
        base the event log does not show (the plan changed) reads 0."""
        tr, p = self.tracer, self.params
        m: dict = {}
        rows_win, rows_scan, sw, sr, lab = [], [], [], [], {"scan_join": [], "funnel": [], "rerank": []}
        n_jobs, n_stages, n_tasks, drv, qk = [], [], [], [], []
        for o in queries:
            st = sorted(stages_of.get(o.id, ()), key=lambda s: s.stage_id)
            seen, per = False, {"scan_join": 0.0, "funnel": 0.0, "rerank": 0.0}
            win = scan = 0
            for s in st:
                label = sparkcost.query_stage_label(s, seen)
                seen = seen or label == "funnel"
                per[label] += s.wall_s
                if label == "scan_join":
                    win += s.rows_out(lambda node: node == "BroadcastHashJoin")
                    scan += s.rows_out(lambda node: node.startswith("Scan") or node == "InMemoryTableScan")
            for k, v in per.items():
                lab[k].append(v)
            rows_win.append(win)
            rows_scan.append(scan)
            t = sparkcost.totals(st)
            sw.append(t.shuffle_write_bytes / MIB)
            sr.append(t.shuffle_read_bytes / MIB)
            n_stages.append(t.stages)
            n_tasks.append(t.tasks)
            jobs = jobs_of.get(o.id, ())
            n_jobs.append(len(jobs))
            root = _root(tr, o)
            spans = [(log.job_spans[j][0] / 1000.0, log.job_spans[j][1] / 1000.0) for j in jobs]
            drv.append(root.dur_s - covered_s(spans, root.start, root.end))
            qk.append(sum(s.dur_s for s in tr.of_op(o.id) if s.name == "hilbert.query_hilbert_keys"))
        nq = float(np.mean([len(o.qids) for o in queries]))
        window_rows = float(np.mean(rows_win))
        kappa = self.notes["kappa_mean"]
        m["hilbert.query_keys_ms"] = float(np.mean(qk)) * 1000.0
        m["rdbtree.fence_probe_us"] = self.notes["fence_probe_us"]
        m["rdbtree.window_leaves_per_tree_query"] = self.notes["window_leaves"]
        height = float(np.mean([h.height for h in self.index.hierarchies]))
        m["rdbtree.window_vs_cost_model"] = self.notes["window_leaves"] / (height + p.alpha / p.leaf_order)
        m["query.window_rows_per_op"] = window_rows
        m["query.alpha_useful_ratio"] = len(p.partitions) * nq * p.alpha / window_rows if window_rows else 0.0
        m["query.shuffle_write_mb_per_op"] = float(np.mean(sw))
        m["query.shuffle_read_mb_per_op"] = float(np.mean(sr))
        for k, v in lab.items():
            m[f"query.stage.{k}_s"] = float(np.mean(v))
        m["query.tri_bounds_rows_per_s"] = self.notes["tri_bounds_rows_per_s"]
        m["query.kappa_mean"] = kappa
        m["query.dedup_ratio"] = kappa / (len(p.partitions) * p.effective_gamma)
        m["query.rerank_useful_ratio"] = K / kappa if kappa else 0.0
        m["query.tree_rows_scanned_per_op"] = float(np.mean(rows_scan))
        m["query.scan_useful_ratio"] = window_rows / float(np.mean(rows_scan)) if np.mean(rows_scan) else 0.0
        m["query.spark_jobs_per_op"] = float(np.mean(n_jobs))
        m["query.stages_per_op"] = float(np.mean(n_stages))
        m["query.tasks_per_op"] = float(np.mean(n_tasks))
        m["query.driver_s_per_op"] = float(np.mean(drv))
        return m


def _op_of(group: str | None) -> int | None:
    if not group or "|" not in group:
        return None
    try:
        return int(group.split("|", 1)[0])
    except ValueError:
        return None


def _stages_by_op(log: sparkcost.EventLog) -> dict:
    out: dict = {}
    for s in log.stages:
        op = _op_of(s.group)
        if op is not None:
            out.setdefault(op, []).append(s)
    return out


def _jobs_by_op(log: sparkcost.EventLog) -> dict:
    out: dict = {}
    for j, g in log.job_groups.items():
        op = _op_of(g)
        if op is not None:
            out.setdefault(op, []).append(j)
    return out


def _root(tr: Tracer, op: Op):
    return next(s for s in tr.of_op(op.id) if s.parent is None)


def _coverage(tr: Tracer, op: Op, jobs_of: dict, log: sparkcost.EventLog) -> float:
    """Share of the op's wall time covered by child spans or Spark jobs."""
    root = _root(tr, op)
    intervals = [(s.start, s.end) for s in tr.of_op(op.id) if s.parent == root.id]
    intervals += [
        (log.job_spans[j][0] / 1000.0, log.job_spans[j][1] / 1000.0)
        for j in jobs_of.get(op.id, ())
    ]
    return covered_s(intervals, root.start, root.end) / max(root.end - root.start, 1e-9)


def install_wraps(tracer: Tracer) -> None:
    """Spans around the layer calls that ``build_hd_index``/``knn_query``
    make on the driver."""
    tracer.wrap(core_build, "select", "refsel.select")
    tracer.wrap(core_build, "assign_leaves", "rdbtree.assign_leaves")
    tracer.wrap(core_build, "leaf_fences", "rdbtree.leaf_fences")
    tracer.wrap(core_query, "query_hilbert_keys", "hilbert.query_hilbert_keys")


def jvm_rss_peak_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


__all__ = [
    "Shape", "FULL", "SMOKE", "WORKLOADS", "END_TO_END", "PER_LAYER", "Runner",
    "install_wraps", "jvm_rss_peak_mb", "make_data", "storage",
]
