"""Unit check of the Spark cost reader on a tiny hand-written event log.

Run with ``python3 -m pytest perfbench/test_sparkcost.py -q``; needs no Spark.
"""
from pathlib import Path

import sparkcost
from spans import covered_s

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "tiny_eventlog.json"


def _log():
    return sparkcost.read_event_log(str(FIXTURE))


def test_stage_totals_match_the_task_metrics():
    stages = {s.stage_id: s for s in _log().stages}
    assert sorted(stages) == [0, 1, 2, 3, 4]
    assert stages[0].tasks == 2 and stages[0].run_ms == 100
    assert stages[0].shuffle_write_bytes == 1000
    assert stages[1].shuffle_read_bytes == 1000 and stages[1].shuffle_write_bytes == 300
    assert stages[4].output_bytes == 512
    assert stages[0].wall_s == 0.3


def test_group_shuffle_bytes_equal_the_per_stage_totals():
    log = _log()
    groups = log.by_group()
    for group, t in groups.items():
        mine = [s for s in log.stages if s.group == group]
        assert t.shuffle_write_bytes == sum(s.shuffle_write_bytes for s in mine)
        assert t.shuffle_read_bytes == sum(s.shuffle_read_bytes for s in mine)
        assert t.stages == len(mine)
    assert sum(t.shuffle_write_bytes for t in groups.values()) == sum(
        s.shuffle_write_bytes for s in log.stages
    )
    assert groups["1|core.query"].shuffle_write_bytes == 1300
    assert groups["2|rdbtree.assign_leaves"].shuffle_write_bytes == 5120
    assert groups[None].output_bytes == 512
    assert groups["1|core.query"].jobs == 1


def test_operator_rows_come_from_the_sql_plan():
    s0 = next(s for s in _log().stages if s.stage_id == 0)
    assert s0.rows_out(lambda node: node.startswith("Scan")) == 80
    assert s0.rows_out(lambda node: node == "BroadcastHashJoin") == 25
    # Other metrics of the same operator are kept apart from its row count.
    assert s0.sql[("Scan parquet ", "scan time")] == 999


def test_query_stages_are_labelled_in_order():
    log = _log()
    seen, labels = False, []
    for s in sorted((s for s in log.stages if s.group == "1|core.query"), key=lambda s: s.stage_id):
        label = sparkcost.query_stage_label(s, seen)
        seen = seen or label == "funnel"
        labels.append(label)
    assert labels == ["scan_join", "funnel", "rerank"]


def test_job_intervals_and_coverage():
    log = _log()
    assert log.job_spans[0] == (1000, 1900)
    assert log.job_groups[2] is None
    assert covered_s([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)], 0.0, 3.5) == 2.5
