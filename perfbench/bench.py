"""The ssdb benchmark: workloads, plaintext reference check, measured runs.

One single-threaded client in this process drives a real cluster (n=3
share servers, t=2, p=2^61-1, and a hub, each its own process) through
the library API, one request outstanding at a time (a closed loop).
Every answer is compared with the answer computed from the benchmark's
own plaintext copy of the rows. Times are scaled by the machine's
slowdown, sampled between operations by ``speed.py``.

Workloads, and why each exists:

* ``ingest``: fresh table, rows inserted back to back with
  ``Dealer.insert_row``. Writes only: encoding, ``split``, the insert
  frames, the hub's n-way fan-out and each server's fsync'd append.
* ``select_point``: 1,000 loaded rows, then ``SELECT Patientid, Doctorid
  ... WHERE Patientname = '<existing name>'``. One result row, so the cost
  is fetching, relaying, reconstructing and decoding the whole TEXT
  condition column.
* ``select_scan_degraded``: the same table with s1, the first server in
  the hub's order, SIGKILLed after loading; then ``SELECT * ... WHERE
  Doctorid < k`` with 40-60% of rows matching. Delivery dominates, and
  every hub read first meets the dead server.
"""

from __future__ import annotations

import json
import operator
import os
import platform
import random
import shutil
import statistics
import string
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import ssdb.client as client
from ssdb.client import Dealer, HubClient
from ssdb.encoding import Attribute, AttrType, TableSchema
from ssdb.protocol import SsdbError

import layers
import spans
from cluster import N, P, T, Cluster
from speed import Speed

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / ".bench_runs"

TABLE = "patients"
SCHEMA = TableSchema(TABLE, (
    Attribute("Patientid", AttrType.INTEGER),
    Attribute("Patientname", AttrType.TEXT),
    Attribute("Doctorid", AttrType.INTEGER),
    Attribute("Diagonosis", AttrType.TEXT),
    Attribute("Notes", AttrType.TEXT),
))
SELECT_ROWS = 1000  # smallest table size on the roadmap's 10^3..10^5 list
WARMUP_OPS = 3  # checked but untimed, so lazy set-up is paid before timing
SHOWN_ERRORS = 5

DIAGNOSES = ("Flu", "Cold", "Aids", "Asthma", "Diabetes", "Migraine", "Fracture", "Anemia")
# Some non-ASCII words, so TEXT cells span several 7-byte chunks unevenly.
NOTE_WORDS = (
    "rest", "fluids", "x-ray", "follow-up", "stable", "fever", "review", "discharged",
    "café", "naïve", "Grüße", "señal", "жар", "头痛", "Ωmega", "ok",
)
FLUSH_POLICY = "program default: one fsync per row per server"
NOTE = (
    "Latencies are loopback TCP on the measuring machine with its own fsync "
    "cost, not a network's or a dedicated disk's."
)

# Metric names and units; every end-to-end metric prints on every workload.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def make_row(rng: random.Random, i: int, first_id: int) -> tuple:
    """Row i of a hospital-style table; names and ids are unique."""
    name = rng.choice(string.ascii_uppercase) + "".join(rng.choices(string.ascii_lowercase, k=5))
    budget = rng.randrange(201)  # Notes: 0-200 UTF-8 bytes
    words: list[str] = []
    size = 0
    while True:
        word = rng.choice(NOTE_WORDS)
        grow = len(word.encode("utf-8")) + (1 if words else 0)
        if size + grow > budget:
            break
        words.append(word)
        size += grow
    return (first_id + i, f"{name}{i:04d}", rng.randrange(100), rng.choice(DIAGNOSES),
            " ".join(words))


def plain_bytes(rows) -> int:
    """UTF-8 bytes of every TEXT value plus decimal digits of every INTEGER."""
    return sum(len(str(v).encode("utf-8")) for row in rows for v in row)


_OPS = {"=": operator.eq, "<": operator.lt}


def reference(rows, select: tuple, where=None) -> tuple[list, list, list]:
    """(columns, indices, rows) of a SELECT, answered from the plaintext copy."""
    names = SCHEMA.attr_names()
    columns = names if select == ("*",) else list(select)
    picks = [names.index(c) for c in columns]
    if where is not None:
        attr, op, literal = where
        at, test = names.index(attr), _OPS[op]
    indices, out = [], []
    for index, row in enumerate(rows, start=1):
        if where is None or test(row[at], literal):
            indices.append(index)
            out.append([row[k] for k in picks])
    return columns, indices, out


class Mismatch(Exception):
    """The program's answer differs from the plaintext reference."""


class Workload:
    """Inputs and checked operations of one workload on one cluster."""

    kind = "query"
    # Set-ups per untraced run; setup_s is their median. Two here: each
    # loads the whole table, and a third would put the benchmark's full
    # check (70 runs) near its time limit on a slow 2-CPU machine.
    setups = 2

    def __init__(self, seed: int):
        self.data_rng = random.Random(f"ssdb-bench-data-{seed}")
        self.op_rng = random.Random(f"ssdb-bench-ops-{seed}")
        self.first_id = self.data_rng.randrange(1, 10**6)
        self.rows_to_load = SELECT_ROWS
        self.rows: list[tuple] = []  # every acknowledged row, in index order
        self.made = 0
        self.loaded: list[tuple[float, float]] = []  # (start, seconds) per set-up insert

    def setup(self, cluster: Cluster, speed: Speed) -> None:
        self.cluster = cluster
        self.hub = HubClient(cluster.hub_addr, p=cluster.config.p)
        self.dealer = Dealer(self.hub, cluster.config)
        self.dealer.create_table(SCHEMA)
        for _ in range(self.rows_to_load):
            began = time.perf_counter()
            self.loaded.append((began, self.insert()))
            speed.tick()

    def insert(self) -> float:
        row = make_row(self.data_rng, self.made, self.first_id)
        self.made += 1
        start = time.perf_counter()
        self.dealer.insert_row(SCHEMA, row)
        elapsed = time.perf_counter() - start
        self.rows.append(row)
        return elapsed

    def query(self, sql: str, select: tuple, where=None) -> tuple[float, int]:
        expected = reference(self.rows, select, where)
        start = time.perf_counter()
        result = client.execute_query(sql, self.hub, self.cluster.config)
        elapsed = time.perf_counter() - start
        got = (result.columns, result.indices, result.rows)
        if got != expected:
            raise Mismatch(f"{sql!r}: got {len(result.rows)} rows, expected {len(expected[2])}")
        return elapsed, len(result.rows)

    def op(self) -> tuple[float, int]:
        """One timed operation, checked; returns (seconds, rows)."""
        raise NotImplementedError

    def verify(self) -> int:
        """Wrong rows found by a check after the timed window."""
        return 0


class Ingest(Workload):
    kind = "insert"
    setups = 3  # boot and one row: cheap

    def __init__(self, seed: int):
        super().__init__(seed)
        self.rows_to_load = 1  # the dealer learns the next row index on its first insert

    def op(self) -> tuple[float, int]:
        return self.insert(), 1

    def verify(self) -> int:
        """Read every acknowledged row back and count the wrong ones."""
        columns, indices, rows = reference(self.rows, ("*",))
        result = client.execute_query(f"SELECT * FROM {TABLE}", self.hub, self.cluster.config)
        if result.columns != columns:
            return len(rows)
        got = dict(zip(result.indices, result.rows))
        wrong = sum(1 for i, row in zip(indices, rows) if got.get(i) != row)
        return wrong + len(set(got) - set(indices))


class SelectPoint(Workload):
    def op(self) -> tuple[float, int]:
        name = self.op_rng.choice(self.rows)[1]
        sql = f"SELECT Patientid, Doctorid FROM {TABLE} WHERE Patientname = '{name}'"
        return self.query(sql, ("Patientid", "Doctorid"), ("Patientname", "=", name))


class SelectScanDegraded(Workload):
    def setup(self, cluster: Cluster, speed: Speed) -> None:
        super().setup(cluster, speed)
        cluster.kill(cluster.config.servers[0].server_id)
        doctors = [row[2] for row in self.rows]
        self.limits = [
            k for k in range(101)
            if 0.4 <= sum(d < k for d in doctors) / len(doctors) <= 0.6
        ]
        self.op_rng.shuffle(self.limits)
        self.done = 0

    def op(self) -> tuple[float, int]:
        # every limit in turn, so each run's mix of result sizes is the same
        k = self.limits[self.done % len(self.limits)]
        self.done += 1
        sql = f"SELECT * FROM {TABLE} WHERE Doctorid < {k}"
        return self.query(sql, ("*",), ("Doctorid", "<", k))


WORKLOADS = {
    "ingest": Ingest,
    "select_point": SelectPoint,
    "select_scan_degraded": SelectScanDegraded,
}


@dataclass
class Window:
    """What a closed loop of operations did."""

    latencies: list[float] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)  # perf_counter, per latency
    rows: int = 0
    attempted: int = 0
    failed: int = 0
    wall: float = 0.0


def measure(workload: Workload, speed: Speed, *, seconds: float = None,
            count: int = None) -> Window:
    """Run operations back to back for ``seconds`` or ``count`` operations,
    sampling the machine's speed between them; ``wall`` leaves the
    sampling out."""
    w = Window()
    start = time.perf_counter()
    spent = speed.spent
    while True:
        if count is not None and w.attempted >= count:
            break
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
        speed.tick()
        w.attempted += 1
        began = time.perf_counter()
        try:
            elapsed, rows = workload.op()
        except (Mismatch, SsdbError, OSError) as exc:
            w.failed += 1
            if w.failed <= SHOWN_ERRORS:
                print(f"operation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            continue
        w.latencies.append(elapsed)
        w.starts.append(began)
        w.rows += rows
    w.wall = time.perf_counter() - start - (speed.spent - spent)
    return w


def scaled(w: Window, speed: Speed) -> list[float]:
    """The window's latencies as on a machine at the reference speed."""
    return [x / speed.slowdown_at(t) for x, t in zip(w.latencies, w.starts)]


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "n": N, "t": T, "p": str(P),
        "flush_policy": FLUSH_POLICY,
        "note": NOTE,
        "client": "one single-threaded closed-loop client, one request outstanding",
    }


@dataclass
class Outcome:
    """Everything one run reports."""

    metrics: dict[str, tuple[float, str]]
    absent: dict[str, str]
    attempted: int
    failed: int
    record: dict


def _finish(wl: Workload, windows: list[Window]) -> tuple[int, int]:
    """Read-back check after the timed window; returns (attempted, failed)."""
    attempted = sum(w.attempted for w in windows)
    failed = sum(w.failed for w in windows)
    wrong = wl.verify()
    if wrong:
        print(f"read-back: {wrong} acknowledged rows came back wrong", file=sys.stderr)
    return attempted, min(attempted, failed + wrong)


def _with_units(values: dict, kind: str) -> dict[str, tuple[float, str]]:
    """Every metric BENCHMARK.json lists under ``kind``, with its unit."""
    return {m["name"]: (float(values[m["name"]]), m["unit"]) for m in SPEC[kind]}


def run_untraced(wl_cls, seed: int, seconds: float, tmp: Path, clusters: list,
                 speed: Speed) -> Outcome:
    """Set up ``setups`` fresh clusters in turn and measure a share of the
    window on each, so one run samples the machine at several moments.
    Times are scaled by the machine's slowdown (``speed.py``): each
    latency, set-up inserts included, by the slowdown around it, and the
    rest of a set-up by the median slowdown over it. ``rows_per_s`` is over the operations' scaled time, which
    leaves out the benchmark's own checks between them. The record keeps
    the raw figures too."""
    setup_times, raw_setup_times, slowdowns, rss, stored = [], [], [], [], []
    whole, raw = Window(), Window()
    for k in range(wl_cls.setups):
        mark = speed.mark()
        start = time.perf_counter()
        cluster = Cluster(tmp / f"setup{k}")
        clusters.append(cluster)
        cluster.start()
        wl = wl_cls(seed)
        wl.setup(cluster, speed)
        elapsed = time.perf_counter() - start - speed.spent_since(mark)
        rest = elapsed - sum(d for _, d in wl.loaded)
        raw_setup_times.append(elapsed)
        setup_times.append(rest / speed.slowdown(mark)
                           + sum(d / speed.slowdown_at(t) for t, d in wl.loaded))
        warm = measure(wl, speed, count=WARMUP_OPS)
        mark = speed.mark()
        win = measure(wl, speed, seconds=seconds / wl_cls.setups)
        slowdowns.append(speed.slowdown(mark))
        rss.append(cluster.rss_mib())
        attempted, failed = _finish(wl, [warm, win])
        stored.append(cluster.log_bytes(TABLE) / plain_bytes(wl.rows))
        cluster.close()
        shutil.rmtree(cluster.run_dir, ignore_errors=True)
        raw.latencies += win.latencies
        raw.wall += win.wall
        whole.latencies += scaled(win, speed)
        whole.rows += win.rows
        whole.attempted += attempted
        whole.failed += failed
    lat = whole.latencies
    values = {
        "setup_s": statistics.median(setup_times),
        "op_p50_ms": statistics.median(lat) * 1e3 if lat else 0.0,
        "op_p90_ms": p90(lat) * 1e3 if len(lat) >= 2 else 0.0,
        "rows_per_s": whole.rows / sum(lat) if lat else 0.0,
        "ok_op_ratio": 1 - whole.failed / whole.attempted,
        "stored_bytes_per_user_byte": statistics.median(stored),
        "cluster_rss_mb": statistics.median(rss),
    }
    record = {
        "setup_times_s": setup_times,
        "samples": {"setup_s": len(setup_times), "op_p50_ms": len(lat), "op_p90_ms": len(lat)},
        "window_s": raw.wall,
        "slowdown_per_window": slowdowns,
        "speed_samples": len(speed.samples),
        "raw": {
            "setup_times_s": raw_setup_times,
            "op_p50_ms": statistics.median(raw.latencies) * 1e3 if raw.latencies else None,
            "op_p90_ms": p90(raw.latencies) * 1e3 if len(raw.latencies) >= 2 else None,
            "rows_per_s": whole.rows / sum(raw.latencies) if raw.latencies else None,
        },
    }
    return Outcome(_with_units(values, "end_to_end"), {}, whole.attempted, whole.failed, record)


def _daemon_spans(cluster: Cluster, req_ids: set) -> tuple[list, list, set]:
    hub, servers, missing = [], [], set()
    for name in cluster.procs:
        if name in cluster.killed:
            continue  # SIGKILLed by the workload, so it wrote nothing
        path = cluster.trace_file(name)
        if not path.exists():
            raise RuntimeError(f"{name} wrote no spans to {path}; its log is {name}.log")
        data = json.loads(path.read_text(encoding="utf-8"))
        missing.update(data["missing"])
        kept = [x for x in data["spans"] if x[spans.REQ_ID] in req_ids]
        (hub if name == "hub" else servers).extend(layers.tag_process(kept, name))
    return hub, servers, missing


# Untraced/traced block pairs in a traced run. Alternating the blocks makes
# the machine's drift over the run fall on both sides of the overhead.
TRACE_PAIRS = 6


def _pool(windows: list[Window]) -> Window:
    w = Window()
    for x in windows:
        w.latencies += x.latencies
        w.starts += x.starts
        w.rows += x.rows
        w.attempted += x.attempted
        w.failed += x.failed
        w.wall += x.wall
    return w


def _overhead_pct(plain: Window, traced: Window, speed: Speed):
    if not (plain.latencies and traced.latencies):
        return None
    ratio = statistics.median(scaled(traced, speed)) / statistics.median(scaled(plain, speed))
    return (ratio - 1) * 100


def run_traced(wl_cls, seed: int, seconds: float, tmp: Path, clusters: list,
               speed: Speed) -> Outcome:
    """Measure ``seconds`` untraced and ``seconds`` traced on one cluster,
    in alternating blocks; the per-layer metrics come from the traced ones."""
    cluster = Cluster(tmp / "setup0", traced=True)
    clusters.append(cluster)
    cluster.start()
    wl = wl_cls(seed)
    wl.setup(cluster, speed)
    warm = measure(wl, speed, count=WARMUP_OPS)
    tracer = spans.Tracer()
    pairs = []
    for _ in range(TRACE_PAIRS):
        plain_block = measure(wl, speed, seconds=seconds / TRACE_PAIRS)
        # client wrappers exist only in traced blocks, so untraced ones pay nothing
        spans.install_client(tracer)
        try:
            cluster.set_tracing(True)
            tracer.enabled = True
            pairs.append((plain_block, measure(wl, speed, seconds=seconds / TRACE_PAIRS)))
        finally:
            tracer.uninstall()
        cluster.set_tracing(False)
    plain = _pool([p for p, _ in pairs])
    traced = _pool([t for _, t in pairs])
    attempted, failed = _finish(wl, [warm, plain, traced])
    log_bytes = cluster.log_bytes(TABLE)
    cluster.close()  # daemons write their spans as they exit

    client_spans = layers.tag_process(tracer.spans, "client")
    hub, servers, missing = _daemon_spans(cluster, layers.window_req_ids(client_spans))
    done = len(traced.latencies)
    values, absent = layers.layer_metrics(
        client_spans, hub, servers,
        missing=missing | set(tracer.missing),
        ops=traced.attempted,
        rows_inserted=done if wl.kind == "insert" else 0,
        queries=done if wl.kind == "query" else 0,
        result_rows=traced.rows if wl.kind == "query" else 0,
        log_bytes=log_bytes,
        table_rows=len(wl.rows),
        overhead_pct=_overhead_pct(plain, traced, speed),
    )
    record = {
        "samples": {"untraced_ops": len(plain.latencies), "traced_ops": done},
        "untraced_op_p50_ms": statistics.median(plain.latencies) * 1e3 if plain.latencies else None,
        "traced_op_p50_ms": statistics.median(traced.latencies) * 1e3 if done else None,
        "overhead_pct_per_pair": [_overhead_pct(p, t, speed) for p, t in pairs],
        "spans": {"client": len(client_spans), "hub": len(hub), "servers": len(servers)},
        "moves": layers.MOVES,
    }
    return Outcome(_with_units(values, "per_layer"), absent, attempted, failed, record)


def run(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    """Set up, measure and check one workload; every daemon is reaped."""
    RUNS.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=RUNS))
    clusters: list[Cluster] = []
    speed = Speed()
    try:
        runner = run_traced if trace else run_untraced
        outcome = runner(WORKLOADS[workload], seed, seconds, tmp, clusters, speed)
    except BaseException:
        if clusters:
            print(clusters[-1].log_tails(), file=sys.stderr)
        raise
    finally:
        for cluster in clusters:
            cluster.close()
        speed.close()
        shutil.rmtree(tmp, ignore_errors=True)
    outcome.record.update({
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(),
        "attempted": outcome.attempted, "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in outcome.metrics.items()},
        "absent": outcome.absent,
    })
    path = RUNS / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(outcome.record, indent=2) + "\n", encoding="utf-8")
    return outcome
