"""Spark cost reader: parses a local Spark event log and attributes task
metrics to job groups and stages.

The benchmark runs every traced call under ``sc.setJobGroup("<op>|<span>")``
and enables ``spark.eventLog`` (uncompressed, not rolling). This module reads
that log back and sums, per stage, the task metrics an optimisation moves:
executor run time, shuffle bytes read and written and output bytes, plus
the SQL ``number of output rows`` of each physical operator (mapped through
the plan info that SQL execution events carry). Stages are
attributed to the job group that submitted them; stages of one query are
labelled by their operator scope (see :func:`query_stage_label`).

Only the standard library is used, so the reader can be unit-checked
without Spark (``test_sparkcost.py``).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

__all__ = ["Stage", "Totals", "EventLog", "read_event_log", "query_stage_label", "totals"]

_GROUP = "spark.jobGroup.id"
_SQL_START = "org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionStart"
_SQL_AQE = "org.apache.spark.sql.execution.ui.SparkListenerSQLAdaptiveExecutionUpdate"


@dataclass
class Stage:
    """One executed stage attempt with its summed task metrics."""

    stage_id: int
    attempt: int
    group: str | None
    scopes: list
    submit_ms: int = 0
    complete_ms: int = 0
    tasks: int = 0
    run_ms: int = 0
    shuffle_read_bytes: int = 0
    shuffle_write_bytes: int = 0
    output_bytes: int = 0
    # (operator node name, SQL metric name) -> summed task updates
    sql: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return max(0, self.complete_ms - self.submit_ms) / 1000.0

    def rows_out(self, predicate) -> int:
        """Summed ``number of output rows`` of the operators whose node name
        satisfies ``predicate``."""
        return sum(
            v for (node, metric), v in self.sql.items()
            if metric == "number of output rows" and predicate(node)
        )


@dataclass
class Totals:
    jobs: int = 0
    stages: int = 0
    tasks: int = 0
    run_s: float = 0.0
    shuffle_read_bytes: int = 0
    shuffle_write_bytes: int = 0
    output_bytes: int = 0


@dataclass
class EventLog:
    stages: list  # list[Stage], in submission order
    job_groups: dict  # job id -> group id (None when no group was set)
    job_spans: dict  # job id -> (submit_ms, complete_ms)

    def by_group(self) -> dict:
        """Totals per job group; ``None`` collects stages run outside any group."""
        out: dict = {}
        for s in self.stages:
            t = out.setdefault(s.group, Totals())
            _add(t, s)
        for g in self.job_groups.values():
            out.setdefault(g, Totals()).jobs += 1
        return out


def _add(t: Totals, s: Stage) -> None:
    t.stages += 1
    t.tasks += s.tasks
    t.run_s += s.run_ms / 1000.0
    t.shuffle_read_bytes += s.shuffle_read_bytes
    t.shuffle_write_bytes += s.shuffle_write_bytes
    t.output_bytes += s.output_bytes


def totals(stages) -> Totals:
    """Summed metrics of a set of stages (the ``jobs`` field stays 0)."""
    t = Totals()
    for s in stages:
        _add(t, s)
    return t


def _walk_plan(node: dict, acc_names: dict) -> None:
    for m in node.get("metrics", ()):
        acc_names[int(m["accumulatorId"])] = (node.get("nodeName", ""), m.get("name", ""))
    for child in node.get("children", ()):
        _walk_plan(child, acc_names)


def read_event_log(path: str) -> EventLog:
    """Parse one uncompressed JSON-lines Spark event log."""
    acc_names: dict = {}
    pending: dict = {}  # (stage id, attempt) -> Stage
    job_groups: dict = {}
    job_spans: dict = {}
    order: list = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            ev = json.loads(line)
            kind = ev.get("Event")
            if kind in (_SQL_START, _SQL_AQE):
                _walk_plan(ev.get("sparkPlanInfo", {}), acc_names)
            elif kind == "SparkListenerJobStart":
                jid = ev["Job ID"]
                job_groups[jid] = (ev.get("Properties") or {}).get(_GROUP)
                job_spans[jid] = (ev.get("Submission Time", 0), ev.get("Submission Time", 0))
            elif kind == "SparkListenerJobEnd":
                jid = ev["Job ID"]
                start = job_spans.get(jid, (0, 0))[0]
                job_spans[jid] = (start, ev.get("Completion Time", start))
            elif kind == "SparkListenerStageSubmitted":
                info = ev["Stage Info"]
                key = (info["Stage ID"], info.get("Stage Attempt ID", 0))
                scopes = []
                for rdd in info.get("RDD Info", ()):
                    if rdd.get("Scope"):
                        scopes.append(json.loads(rdd["Scope"]).get("name", ""))
                st = Stage(
                    stage_id=key[0],
                    attempt=key[1],
                    group=(ev.get("Properties") or {}).get(_GROUP),
                    scopes=scopes,
                    submit_ms=info.get("Submission Time", 0),
                )
                pending[key] = st
                order.append(key)
            elif kind == "SparkListenerStageCompleted":
                info = ev["Stage Info"]
                key = (info["Stage ID"], info.get("Stage Attempt ID", 0))
                if key in pending:
                    st = pending[key]
                    st.submit_ms = info.get("Submission Time", st.submit_ms)
                    st.complete_ms = info.get("Completion Time", st.submit_ms)
            elif kind == "SparkListenerTaskEnd":
                key = (ev["Stage ID"], ev.get("Stage Attempt ID", 0))
                st = pending.get(key)
                if st is None:
                    continue
                _add_task(st, ev, acc_names)
    return EventLog(
        stages=[pending[k] for k in order], job_groups=job_groups, job_spans=job_spans
    )


def _add_task(st: Stage, ev: dict, acc_names: dict) -> None:
    m = ev.get("Task Metrics") or {}
    st.tasks += 1
    st.run_ms += m.get("Executor Run Time", 0)
    sr = m.get("Shuffle Read Metrics") or {}
    st.shuffle_read_bytes += sr.get("Remote Bytes Read", 0) + sr.get("Local Bytes Read", 0)
    sw = m.get("Shuffle Write Metrics") or {}
    st.shuffle_write_bytes += sw.get("Shuffle Bytes Written", 0)
    st.output_bytes += (m.get("Output Metrics") or {}).get("Bytes Written", 0)
    for acc in (ev.get("Task Info") or {}).get("Accumulables", ()):
        name = acc_names.get(int(acc.get("ID", -1)))
        if name is None:
            continue
        try:
            upd = int(acc.get("Update", 0))
        except (TypeError, ValueError):
            continue
        st.sql[name] = st.sql.get(name, 0) + upd


def query_stage_label(stage: Stage, seen_funnel: bool) -> str:
    """Label one stage of a ``knn_query`` action by its operator scope.

    * ``scan_join``: the tau-way tree ``Union`` scan joined with the
      broadcast probe set (and the probe broadcast itself);
    * ``funnel``: the first grouped-pandas stage, the per-(tree, query)
      alpha -> gamma filter;
    * ``rerank``: everything after it: dedup, the base-table scan, the exact
      re-rank join and grouped-pandas top-k, the final sort and collect.

    ``seen_funnel`` says whether an earlier stage of the same call was
    already labelled ``funnel``; stages must be passed in stage-id order.
    """
    scopes = stage.scopes
    if "Union" in scopes or "BroadcastExchange" in scopes:
        return "scan_join"
    if "FlatMapGroupsInPandas" in scopes and not seen_funnel:
        return "funnel"
    return "rerank"
