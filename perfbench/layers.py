"""Per-layer metrics computed from the spans of a traced run's traced blocks.

Each metric is a mean per call unless its name says per op, row, query
or result. ``MOVES`` records, for every metric, the end-to-end
metric and workload it should move; later changes cite it.
A metric is *absent* when a span it needs could not be installed (its
target no longer exists) or when the workload never exercised it; the
value is then 0 and the reason is reported next to it.
"""

from __future__ import annotations

from collections import defaultdict

from spans import END, FAILED, ID, NAME, PARENT, REQ_ID, SIZE, START

HANDLED = {
    "hub.handle": ("INSERT_BUNDLE", "GET_SCHEMA", "GET_COLUMN", "FETCH_TO_CLIENT"),
    "server.handle": ("INSERT_SHARES", "GET_SCHEMA", "GET_COLUMN", "FETCH_TO_CLIENT"),
}
HUB_SERVES = {"INSERT_BUNDLE": "insert_bundle", "GET_SCHEMA": "get_schema",
              "GET_COLUMN": "get_column", "FETCH_TO_CLIENT": "fetch_to_client"}

# name -> the end-to-end metric and workload it should move; units and
# directions are in BENCHMARK.json
MOVES: dict[str, str] = {
    "field.is_prime.calls_per_row": "rows_per_s @ ingest",
    "shamir.split.us": "rows_per_s @ ingest",
    "shamir.split.calls_per_row": "rows_per_s @ ingest",
    "encoding.encode_value.us": "rows_per_s @ ingest",
    "client.insert_row.ms": "op_p50_ms @ ingest",
    "client.hub.insert_bundle.ms": "op_p50_ms @ ingest",
    "client.hub.get_schema.ms": "op_p50_ms @ select_point, select_scan_degraded",
    "client.hub.get_column.ms": "op_p50_ms @ select_point",
    "client.hub.fetch_to_client.ms": "op_p50_ms @ select_scan_degraded",
    "client.listener.wait.ms": "op_p50_ms @ select_scan_degraded",
    "client.reconstruct.ms": "op_p50_ms @ select_point, select_scan_degraded",
    "client.reconstruct.cells_per_query": "op_p50_ms @ select_point, select_scan_degraded",
    "encoding.decode_value.us": "op_p50_ms @ select_point, select_scan_degraded",
    "encoding.decode_value.calls_per_query": "op_p50_ms @ select_point, select_scan_degraded",
    "client.evaluate_predicate.ms": "op_p50_ms @ select_point",
    "client.parse_query.us": "op_p50_ms @ select_point",
    "client.rows_examined_per_result": "op_p50_ms @ select_point",
    "client.execute_query.self_ms": "op_p50_ms @ select_point, select_scan_degraded",
    "protocol.frames_per_op": "op_p50_ms @ all workloads",
    "protocol.bytes_per_op": "op_p50_ms @ all workloads",
    "protocol.connections_per_op": "op_p50_ms @ all workloads",
    "protocol.encode_frame.us_per_kb": "rows_per_s @ ingest; op_p50_ms @ select_point",
    "protocol.decode_frame.us_per_kb": "rows_per_s @ ingest; op_p50_ms @ select_point",
    **{
        f"hub.handle.{t}.ms": f"as client.hub.{HUB_SERVES[t]}.ms"
        for t in HANDLED["hub.handle"]
    },
    "hub.server_wait.ms": "op_p50_ms @ ingest, select_point",
    "hub.self_ms_per_op": "op_p50_ms @ ingest, select_point",
    "hub.server_calls_per_op": "op_p50_ms @ select_scan_degraded",
    "hub.failed_server_calls_per_op": "op_p50_ms @ select_scan_degraded",
    **{
        f"server.handle.{t}.ms": "as the hub.handle metric it serves"
        for t in HANDLED["server.handle"]
    },
    "server.append_row.ms": "op_p50_ms @ ingest",
    "server.fsync.ms": "op_p50_ms @ ingest",
    "server.fsyncs_per_row": "op_p50_ms @ ingest",
    "server.log_bytes_per_row": "stored_bytes_per_user_byte @ ingest",
    "server.column.ms": "op_p50_ms @ select_point",
    "server.rows_for.ms": "op_p50_ms @ select_scan_degraded, select_point",
    "server.push.ms": "op_p50_ms @ select_scan_degraded",
    "trace.overhead_pct": "none: traced op_p50_ms over untraced, minus one",
}

# span names each metric is built from, where they differ from its own name
_NEEDS = {
    "field.is_prime.calls_per_row": ["field.is_prime"],
    "shamir.split.calls_per_row": ["shamir.split"],
    "client.reconstruct.cells_per_query": ["client.reconstruct"],
    "encoding.decode_value.calls_per_query": ["encoding.decode_value"],
    "client.rows_examined_per_result": ["client.reconstruct", "client.execute_query"],
    "client.execute_query.self_ms": ["client.execute_query"],
    "protocol.frames_per_op": ["protocol.encode_frame"],
    "protocol.bytes_per_op": ["protocol.encode_frame"],
    "protocol.connections_per_op": ["protocol.request", "protocol.push"],
    "protocol.encode_frame.us_per_kb": ["protocol.encode_frame"],
    "protocol.decode_frame.us_per_kb": ["protocol.decode_frame"],
    "hub.server_wait.ms": ["protocol.request"],
    "hub.self_ms_per_op": ["hub.handle", "protocol.request"],
    "hub.server_calls_per_op": ["protocol.request"],
    "hub.failed_server_calls_per_op": ["protocol.request"],
    "server.fsync.ms": ["os.fsync"],
    "server.fsyncs_per_row": ["os.fsync"],
    "server.log_bytes_per_row": [],
    "server.push.ms": ["protocol.push"],
    "trace.overhead_pct": [],
}


def _needs(metric: str) -> list[str]:
    if metric in _NEEDS:
        return _NEEDS[metric]
    for prefix in HANDLED:
        if metric.startswith(prefix + "."):
            return [prefix]
    return [metric.rsplit(".", 1)[0]]


class _Spans:
    """Spans of one role (client, hub or server), indexed by name."""

    def __init__(self, spans: list[list]):
        self.by_name: dict[str, list[list]] = defaultdict(list)
        self.children: dict[int, float] = defaultdict(float)  # span id -> child time
        for s in spans:
            self.by_name[s[NAME]].append(s)
            if s[PARENT] is not None:
                self.children[s[PARENT]] += s[END] - s[START]

    def of(self, name: str) -> list[list]:
        return self.by_name.get(name, [])

    def prefixed(self, prefix: str) -> list[list]:
        return [s for n, ss in self.by_name.items() if n.startswith(prefix) for s in ss]

    def mean(self, name: str, scale: float):
        spans = self.of(name)
        if not spans:
            return None
        return sum(s[END] - s[START] for s in spans) / len(spans) * scale

    def self_time(self, spans: list[list]) -> float:
        return sum(s[END] - s[START] - self.children.get(s[ID], 0.0) for s in spans)


def _ratio(num, den):
    return num / den if den else None


def layer_metrics(
    client: list[list],
    hub: list[list],
    servers: list[list],
    *,
    missing: set[str],
    ops: int,
    rows_inserted: int,
    queries: int,
    result_rows: int,
    log_bytes: int,
    table_rows: int,
    overhead_pct: float | None,
) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer values and, for each absent one, the reason.

    ``hub`` and ``servers`` hold only spans whose req_id belongs to an
    operation of the traced window, with ids made unique across
    processes (see ``tag_process``).
    """
    c, h, s = _Spans(client), _Spans(hub), _Spans(servers)
    every = [c, h, s]
    ms, us = 1e3, 1e6
    # per-op hub counts are absent, not 0, when the hub handled nothing
    hub_ops = ops if h.prefixed("hub.handle.") else 0
    values: dict[str, object] = {
        "field.is_prime.calls_per_row": _ratio(len(c.of("field.is_prime")), rows_inserted),
        "shamir.split.us": c.mean("shamir.split", us),
        "shamir.split.calls_per_row": _ratio(len(c.of("shamir.split")), rows_inserted),
        "encoding.encode_value.us": c.mean("encoding.encode_value", us),
        "client.insert_row.ms": c.mean("client.insert_row", ms),
        "client.listener.wait.ms": c.mean("client.listener.wait", ms),
        "client.reconstruct.ms": c.mean("client.reconstruct", ms),
        "client.reconstruct.cells_per_query": _ratio(
            sum(x[SIZE] for x in c.of("client.reconstruct")), queries),
        "encoding.decode_value.us": c.mean("encoding.decode_value", us),
        "encoding.decode_value.calls_per_query": _ratio(
            len(c.of("encoding.decode_value")), queries),
        "client.evaluate_predicate.ms": c.mean("client.evaluate_predicate", ms),
        "client.parse_query.us": c.mean("client.parse_query", us),
        "hub.server_wait.ms": h.mean("protocol.request", ms),
        "hub.self_ms_per_op": _ratio(h.self_time(h.prefixed("hub.handle.")) * ms, hub_ops),
        "hub.server_calls_per_op": _ratio(len(h.of("protocol.request")), hub_ops),
        "hub.failed_server_calls_per_op": _ratio(
            sum(1 for x in h.of("protocol.request") if x[FAILED]), hub_ops),
        "server.append_row.ms": s.mean("server.append_row", ms),
        "server.fsync.ms": s.mean("os.fsync", ms),
        "server.fsyncs_per_row": _ratio(len(s.of("os.fsync")), rows_inserted),
        "server.log_bytes_per_row": _ratio(log_bytes, table_rows),
        "server.column.ms": s.mean("server.column", ms),
        "server.rows_for.ms": s.mean("server.rows_for", ms),
        "server.push.ms": s.mean("protocol.push", ms),
        "trace.overhead_pct": overhead_pct,
    }
    for method in HUB_SERVES.values():
        values[f"client.hub.{method}.ms"] = c.mean(f"client.hub.{method}", ms)
    for t in HANDLED["hub.handle"]:
        values[f"hub.handle.{t}.ms"] = h.mean(f"hub.handle.{t}", ms)
    for t in HANDLED["server.handle"]:
        values[f"server.handle.{t}.ms"] = s.mean(f"server.handle.{t}", ms)

    queries_spans = c.of("client.execute_query")
    query_ids = {x[ID] for x in queries_spans}
    # a query reconstructs its condition column first, then each delivery
    first: dict = {}
    for x in c.of("client.reconstruct"):
        if x[PARENT] in query_ids and (x[PARENT] not in first or x[ID] < first[x[PARENT]][ID]):
            first[x[PARENT]] = x
    condition_cells = sum(x[SIZE] for x in first.values())
    values["client.rows_examined_per_result"] = (
        _ratio(condition_cells, result_rows) if queries_spans else None
    )
    values["client.execute_query.self_ms"] = (
        c.self_time(queries_spans) / len(queries_spans) * ms if queries_spans else None
    )

    encoded = [x for r in every for x in r.of("protocol.encode_frame")]
    decoded = [x for r in every for x in r.of("protocol.decode_frame")]
    opened = [x for r in every for x in r.of("protocol.request") + r.of("protocol.push")]
    values["protocol.frames_per_op"] = _ratio(len(encoded), ops)
    values["protocol.bytes_per_op"] = _ratio(sum(x[SIZE] for x in encoded), ops)
    values["protocol.connections_per_op"] = _ratio(len(opened), ops)
    for name, frames in (("encode_frame", encoded), ("decode_frame", decoded)):
        kib = sum(x[SIZE] for x in frames) / 1024
        values[f"protocol.{name}.us_per_kb"] = _ratio(
            sum(x[END] - x[START] for x in frames) * us, kib)

    out: dict[str, float] = {}
    absent: dict[str, str] = {}
    for metric in MOVES:
        gone = [n for n in _needs(metric) if n in missing]
        value = values[metric]
        if gone:
            absent[metric] = f"target missing: {', '.join(gone)}"
            value = None
        elif value is None:
            absent[metric] = "not exercised by this workload"
        out[metric] = 0.0 if value is None else float(value)
    return out, absent


def tag_process(spans: list[list], process: str) -> list[list]:
    """Make span ids unique across processes by prefixing the process."""
    for x in spans:
        x[ID] = (process, x[ID])
        if x[PARENT] is not None:
            x[PARENT] = (process, x[PARENT])
    return spans


def window_req_ids(client: list[list]) -> set:
    """req_ids of every request the client sent in the traced window."""
    return {x[REQ_ID] for x in client if x[NAME] == "protocol.request" and x[REQ_ID]}
