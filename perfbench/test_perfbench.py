"""The benchmark's own tests: short smoke runs and a live correctness check.

    python3 -m pytest perfbench -q

Smoke runs use a 30-row table and half-second windows.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402

SPEC = bench.SPEC
SMOKE = dict(seed=3, seconds=0.5)

INSERT_ONLY = {
    "field.is_prime.calls_per_row", "shamir.split.us", "shamir.split.calls_per_row",
    "encoding.encode_value.us", "client.insert_row.ms", "client.hub.insert_bundle.ms",
    "hub.handle.INSERT_BUNDLE.ms", "server.handle.INSERT_SHARES.ms",
    "server.append_row.ms", "server.fsync.ms", "server.fsyncs_per_row",
}
QUERY_ONLY = {
    "client.hub.get_schema.ms", "client.hub.get_column.ms", "client.hub.fetch_to_client.ms",
    "client.listener.wait.ms", "client.reconstruct.ms", "client.reconstruct.cells_per_query",
    "encoding.decode_value.us", "encoding.decode_value.calls_per_query",
    "client.evaluate_predicate.ms", "client.parse_query.us", "client.rows_examined_per_result",
    "client.execute_query.self_ms", "hub.handle.GET_SCHEMA.ms", "hub.handle.GET_COLUMN.ms",
    "hub.handle.FETCH_TO_CLIENT.ms", "server.handle.GET_SCHEMA.ms",
    "server.handle.GET_COLUMN.ms", "server.handle.FETCH_TO_CLIENT.ms", "server.column.ms",
    "server.rows_for.ms", "server.push.ms",
}
# metrics a workload never exercises, so a traced run must mark them absent
ABSENT = {"ingest": QUERY_ONLY, "select_point": INSERT_ONLY, "select_scan_degraded": INSERT_ONLY}


@pytest.fixture(autouse=True)
def small_table(monkeypatch):
    """Smoke runs use a 30-row table: they check names and plumbing, not figures."""
    monkeypatch.setattr(bench, "SELECT_ROWS", 30)


def _printed(capsys, outcome) -> dict:
    run.print_outcome(outcome)
    lines = capsys.readouterr().out.strip().splitlines()
    for name in outcome.metrics:
        assert any(line.startswith(name + " ") for line in lines[:-1]), name
    return json.loads(lines[-1])


def test_spec_names_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(layers.MOVES)


@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_smoke_end_to_end(workload, capsys):
    outcome = bench.run(workload, trace=False, **SMOKE)
    result = _printed(capsys, outcome)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name
    assert outcome.record["samples"]["op_p50_ms"] == outcome.record["samples"]["op_p90_ms"]


@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_smoke_per_layer(workload, capsys):
    outcome = bench.run(workload, trace=True, **SMOKE)
    result = _printed(capsys, outcome)
    assert result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert set(outcome.absent) == ABSENT[workload]
    assert set(outcome.absent.values()) == {"not exercised by this workload"}
    zero_when_healthy = {"hub.failed_server_calls_per_op"}
    for name, metric in result["metrics"].items():
        assert metric["value"] != 0 or name in ABSENT[workload] | zero_when_healthy, name
    failed_calls = result["metrics"]["hub.failed_server_calls_per_op"]["value"]
    if workload == "select_scan_degraded":
        assert failed_calls >= 1
    else:
        assert failed_calls == 0


@pytest.mark.parametrize("workload", ["ingest", "select_point"])
def test_corrupted_expected_answer_fails_the_run(workload, capsys, monkeypatch):
    answer = bench.reference

    def corrupted(*args, **kwargs):
        columns, indices, rows = answer(*args, **kwargs)
        return columns, indices + [0], rows + [["corrupted"]]

    monkeypatch.setattr(bench, "reference", corrupted)
    outcome = bench.run(workload, trace=False, **SMOKE)
    result = _printed(capsys, outcome)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["metrics"]["ok_op_ratio"]["value"] < 1


def test_missing_target_is_reported_absent():
    import ssdb.client

    tracer = bench.spans.Tracer()
    assert not tracer.wrap(ssdb.client, "no_such_function", "client.no_such_function")
    values, absent = layers.layer_metrics(
        [], [], [], missing={"shamir.split"}, ops=1, rows_inserted=1, queries=0,
        result_rows=0, log_bytes=1, table_rows=1, overhead_pct=0.0,
    )
    assert absent["shamir.split.us"].startswith("target missing")
    assert values["shamir.split.us"] == 0.0


def test_lost_daemon_spans_fail_the_traced_run(tmp_path):
    cluster = SimpleNamespace(
        procs={"s1": None, "hub": None}, killed={"s1"},
        trace_file=lambda name: tmp_path / f"{name}.spans.json",
    )
    with pytest.raises(RuntimeError, match="hub wrote no spans"):
        bench._daemon_spans(cluster, set())
    (tmp_path / "hub.spans.json").write_text('{"missing": [], "spans": []}', encoding="utf-8")
    assert bench._daemon_spans(cluster, set()) == ([], [], set())


def test_command_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", *("--workload", "ingest", "--seed", "1"),
         *("--seconds", "1", "--trace", "0")],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_speed_scales_by_nearby_samples_and_reaps_its_children():
    sampler = speed.Speed()
    try:
        mark = sampler.mark()
        for _ in range(3):
            sampler.sample()
        assert sampler.slowdown(mark) > 0 and sampler.spent_since(mark) > 0
    finally:
        sampler.close()
    assert all(proc.poll() is not None for proc in sampler._procs)
    sampler.times, sampler.samples = [10.0, 20.0], [speed.REF_S, 3 * speed.REF_S]
    assert sampler.slowdown_at(10.5) == 1.0
    assert sampler.slowdown_at(19.5) == pytest.approx(3.0)
    assert sampler.slowdown_at(15.0) == 1.0  # none within NEAR_S: the closest earlier one
