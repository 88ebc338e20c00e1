"""HD-Index benchmark: one workload per process, one JSON result line.

    python3 perfbench/run.py --workload batch-mem --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; the program is imported from its
``src/``. ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones (see README.md). Every file the run writes goes under
``.perfbench/`` in the checkout. The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and the exit code is non-zero when any operation failed its checks.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DRIVER_MEMORY = "2g"
SHUFFLE_PARTITIONS = 64


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=("batch-mem", "point-disk"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=8.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny shape, all workloads in one session, check every metric is emitted")
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    return args


def _configure_env(work: Path, cores: int) -> None:
    """Everything Spark and its Python workers write stays under ``work``;
    must run before pyspark is imported."""
    for d in ("tmp", "local", "events", "warehouse", "index"):
        (work / d).mkdir(parents=True, exist_ok=True)
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = str(work / "tmp")
    os.environ["SPARK_LOCAL_DIRS"] = str(work / "local")
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{cores}] --driver-memory {DRIVER_MEMORY} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        f"--driver-java-options '-XX:-UsePerfData -Djava.io.tmpdir={work / 'tmp'}' pyspark-shell"
    )
    sys.path[:0] = [src]


def _start_spark(work: Path, event_log: bool):
    from pyspark.sql import SparkSession

    b = (
        SparkSession.builder.appName("hdindex-bench")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.warehouse.dir", str(work / "warehouse"))
    )
    if event_log:
        b = (
            b.config("spark.eventLog.enabled", "true")
            .config("spark.eventLog.dir", (work / "events").as_uri())
            .config("spark.eventLog.compress", "false")
            .config("spark.eventLog.rolling.enabled", "false")
        )
    spark = b.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def _stop_spark(spark) -> None:
    """Stop the session, then close the JVM's stdin and wait for it to exit
    (its Python workers are its children and go with it)."""
    from pyspark import SparkContext

    spark.stop()
    gw = SparkContext._gateway
    if gw is None:
        return
    proc = getattr(gw, "proc", None)
    try:
        gw.shutdown()
    except Exception as exc:  # noqa: BLE001 - best effort, the wait below decides
        print(f"gateway shutdown: {exc}", file=sys.stderr)
    if proc is not None:
        if proc.stdin:
            proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)
    SparkContext._gateway = None
    SparkContext._jvm = None


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def _fingerprint(spark, args) -> dict:
    import numpy
    import pandas
    import pyarrow
    import pyspark

    sc = spark.sparkContext
    return {
        "nproc": os.cpu_count(),
        "spark_master": sc.master,
        "spark_cores": sc.defaultParallelism,
        "driver_memory": sc.getConf().get("spark.driver.memory", DRIVER_MEMORY),
        "shuffle_partitions": spark.conf.get("spark.sql.shuffle.partitions"),
        "spark": pyspark.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pandas": pandas.__version__,
        "pyarrow": pyarrow.__version__,
        "java": sc._jvm.java.lang.System.getProperty("java.version"),
        "git_commit": _git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _event_log(work: Path):
    import sparkcost

    files = [p for p in (work / "events").iterdir() if p.is_file() and not p.name.startswith(".")]
    if len(files) != 1:
        raise RuntimeError(f"expected one event log in {work / 'events'}, found {len(files)}")
    return sparkcost.read_event_log(str(files[0]))


def _session(work: Path, trace: bool):
    cores = min(4, os.cpu_count() or 1)
    _configure_env(work, cores)
    t0 = time.perf_counter()
    spark = _start_spark(work, event_log=trace)
    spark.range(1).count()  # the JVM and session are up
    return spark, time.perf_counter() - t0


def _jvm_pid():
    from pyspark import SparkContext

    proc = getattr(SparkContext._gateway, "proc", None)
    return proc.pid if proc is not None else None


def run_one(args) -> int:
    work = ROOT / ".perfbench" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    spark, session_s = _session(work, bool(args.trace))

    import workloads as W
    from spans import Tracer

    tracer = Tracer(spark.sparkContext)
    if args.trace:
        W.install_wraps(tracer)
    runner = W.Runner(spark, args.workload, W.FULL, args.seed, args.seconds,
                      bool(args.trace), work, tracer)
    try:
        fp = _fingerprint(spark, args)
        runner.run_setup(session_s)
        runner.run_measured()
        runner.run_trace_extras()
        attempted, failed, problems = runner.correctness()
        jvm_rss = W.jvm_rss_peak_mb(_jvm_pid())
    finally:
        tracer.unwrap_all()
        _stop_spark(spark)
    spark_cost = {}
    if args.trace:
        log = _event_log(work)
        metrics = runner.per_layer(log, jvm_rss)
        table = W.PER_LAYER
        tracer.dump(str(work / "spans.json"))
        spark_cost = {str(g): asdict(t) for g, t in log.by_group().items()}
    else:
        metrics = runner.end_to_end()
        table = W.END_TO_END
    fp["samples"] = runner.op_samples()
    report = {
        "workload": args.workload,
        "fingerprint": fp,
        "setup": runner.setup,
        "ops": [{"id": o.id, "dur_s": o.dur_s, "traced": o.traced, "problems": o.problems,
                 "persisted_after": o.persisted_after, "storage_mb_after": o.storage_mb_after}
                for o in runner.ops],
        "notes": runner.notes,
        "problems": problems,
        "spark_cost_by_job_group": spark_cost,
        "metrics": {k: {"value": v, "unit": table[k][0], "better": table[k][1]}
                    for k, v in metrics.items()},
    }
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    out.write_text(json.dumps(report, indent=1, default=str))
    for name in ("index", "local", "tmp", "warehouse", "events"):
        shutil.rmtree(work / name, ignore_errors=True)

    for p in problems:
        print(f"FAILED {p}")
    for k, v in metrics.items():
        unit, better = table[k]
        print(f"{k:<42} {v:>14.6g} {unit:<6} ({better} is better)")
    s = fp["samples"]
    print(f"samples={s['samples']} tail_pct={s['tail_pct']} results={out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": table[k][0]} for k, v in metrics.items()},
    }))
    sys.stdout.flush()
    return 0 if failed == 0 else 1


def smoke() -> int:
    """All workloads at the tiny shape in one traced session; checks that every
    metric BENCHMARK.json names is emitted with the unit and direction it states."""
    work = ROOT / ".perfbench" / f"smoke-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    spark, session_s = _session(work, trace=True)

    import workloads as W
    from spans import Tracer

    tracer = Tracer(spark.sparkContext)
    W.install_wraps(tracer)
    runners, failures = [], []
    try:
        next_id = 0  # op ids stay unique across the workloads of one event log
        for name in W.WORKLOADS:
            r = W.Runner(spark, name, W.SMOKE, 1, 1.0, True, work / name, tracer,
                         first_op_id=next_id, warmup_s=0.0)
            r.run_setup(session_s)
            r.run_measured()
            r.run_trace_extras()
            _, _, problems = r.correctness()
            failures += [f"{name}: {p}" for p in problems]
            next_id = r.next_op
            runners.append(r)
        jvm_rss = W.jvm_rss_peak_mb(_jvm_pid())
    finally:
        tracer.unwrap_all()
        _stop_spark(spark)
    log = _event_log(work)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    for r in runners:
        got = {**r.end_to_end(), **r.per_layer(log, jvm_rss)}
        for name, spec in declared.items():
            unit, better = {**W.END_TO_END, **W.PER_LAYER}.get(name, (None, None))
            if name not in got:
                failures.append(f"{r.workload}: metric {name} not emitted")
            elif (unit, better) != (spec["unit"], spec["better"]):
                failures.append(f"{r.workload}: {name} is {unit}/{better}, "
                                f"BENCHMARK.json says {spec['unit']}/{spec['better']}")
        extra = set(got) - set(declared)
        if extra:
            failures.append(f"{r.workload}: metrics missing from BENCHMARK.json: {sorted(extra)}")
        print(f"{r.workload}: {len(got)} metrics, op_s_p50={got['op_s_p50']:.3f}s, "
              f"map_at_100={got['map_at_100']:.4f}")
    shutil.rmtree(work, ignore_errors=True)
    for f in failures:
        print(f"SMOKE FAILED {f}")
    print("smoke ok" if not failures else f"smoke failed: {len(failures)} problem(s)")
    return 0 if not failures else 1


def main(argv=None) -> int:
    args = _args(argv)
    if not (ROOT / "src" / "repro" / "core" / "build.py").is_file():
        print(f"no program sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    return smoke() if args.smoke else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
