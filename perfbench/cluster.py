"""A real ssdb cluster for one benchmark run: n share servers and a hub,
each its own OS process started through ``launch.py``.

Ports are picked below the kernel's ephemeral range, because every ssdb
request opens a fresh TCP connection and a port inside that range can be
taken by an outgoing connection mid-run. Daemon output goes to log files
in the run directory. ``close`` reaps every process it started.
"""

from __future__ import annotations

import random
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from ssdb.field import MERSENNE_61
from ssdb.hub import ClusterConfig, ServerInfo

HERE = Path(__file__).resolve().parent
HOST = "127.0.0.1"
N, T, P = 3, 2, MERSENNE_61
READY_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 10.0
LOWEST_PORT = 10000


def _ephemeral_low() -> int:
    try:
        with open("/proc/sys/net/ipv4/ip_local_port_range", encoding="ascii") as fh:
            return int(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return 32768


def pick_ports(count: int) -> list[int]:
    """Free TCP ports below the ephemeral range, chosen at random."""
    high = _ephemeral_low()
    rng = random.SystemRandom()
    ports: list[int] = []
    while len(ports) < count:
        port = rng.randrange(LOWEST_PORT, high)
        if port in ports:
            continue
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
            try:
                probe.bind((HOST, port))
            except OSError:
                continue
        ports.append(port)
    return ports


def vm_hwm_kib(pid: int) -> int:
    """Peak resident set size of a live process, from /proc/<pid>/status."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise ValueError(f"no VmHWM for pid {pid}")


class Cluster:
    """n share servers plus a hub, each in its own process."""

    def __init__(self, run_dir: Path, *, traced: bool = False):
        self.run_dir = run_dir
        self.traced = traced
        self.procs: dict[str, subprocess.Popen] = {}
        self.killed: set[str] = set()  # SIGKILLed on purpose by ``kill``
        self._logs: list = []
        ports = pick_ports(N + 1)
        self.hub_addr = f"{HOST}:{ports[0]}"
        servers = tuple(
            ServerInfo(f"s{k}", k, f"{HOST}:{ports[k]}") for k in range(1, N + 1)
        )
        self.config = ClusterConfig(p=P, n=N, t=T, servers=servers)
        self.config_path = run_dir / "cluster.json"

    def trace_file(self, name: str) -> Path:
        return self.run_dir / f"{name}.spans.json"

    def _spawn(self, name: str, args: list[str]) -> None:
        cmd = [sys.executable, str(HERE / "launch.py")]
        if self.traced:
            cmd += ["--trace-out", str(self.trace_file(name))]
        cmd += ["--", *args]
        log = open(self.run_dir / f"{name}.log", "wb")
        self._logs.append(log)
        self.procs[name] = subprocess.Popen(
            cmd, stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True,  # a terminal ^C reaches only the benchmark
        )

    def start(self) -> None:
        """Spawn every daemon and return once each port accepts."""
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.config.save(self.config_path)
        cfg = ["--cluster", str(self.config_path)]
        for info in self.config.servers:
            self._spawn(info.server_id, [
                "server", *cfg, "--id", info.server_id,
                "--data-dir", str(self.data_dir(info.server_id)),
            ])
        self._spawn("hub", ["hub", *cfg, "--listen", self.hub_addr])
        addrs = {s.server_id: s.address for s in self.config.servers}
        addrs["hub"] = self.hub_addr
        for name, addr in addrs.items():
            self._wait_accepting(name, addr)

    def data_dir(self, server_id: str) -> Path:
        return self.run_dir / server_id

    def _wait_accepting(self, name: str, addr: str) -> None:
        host, port = addr.rsplit(":", 1)
        deadline = time.monotonic() + READY_TIMEOUT_S
        while True:
            if self.procs[name].poll() is not None:
                raise RuntimeError(f"{name} exited with {self.procs[name].returncode}")
            try:
                socket.create_connection((host, int(port)), timeout=1.0).close()
                return
            except OSError:
                if time.monotonic() > deadline:
                    raise RuntimeError(f"{name} did not accept on {addr} within {READY_TIMEOUT_S}s")
                time.sleep(0.005)

    def kill(self, name: str) -> None:
        """SIGKILL one daemon, as a crash would, and reap it."""
        proc = self.procs[name]
        proc.kill()
        proc.wait()
        self.killed.add(name)

    def live(self) -> dict[str, subprocess.Popen]:
        return {name: p for name, p in self.procs.items() if p.poll() is None}

    def rss_mib(self) -> float:
        """Peak RSS summed over the daemons still running."""
        return sum(vm_hwm_kib(p.pid) for p in self.live().values()) / 1024

    def set_tracing(self, on: bool) -> None:
        """Switch the span wrappers of every live daemon on or off and wait
        until each has done so (``launch.py`` keeps ``<trace file>.on``
        while its wrappers are on)."""
        live = self.live()
        for proc in live.values():
            proc.send_signal(signal.SIGUSR1 if on else signal.SIGUSR2)
        deadline = time.monotonic() + READY_TIMEOUT_S
        for name in live:
            flag = Path(str(self.trace_file(name)) + ".on")
            while flag.exists() != on:
                if time.monotonic() > deadline:
                    raise RuntimeError(f"{name} did not switch tracing {'on' if on else 'off'}")
                time.sleep(0.002)

    def log_bytes(self, table: str) -> int:
        """Bytes of every server's rows.log for the table, dead servers too."""
        total = 0
        for info in self.config.servers:
            path = self.data_dir(info.server_id) / table / "rows.log"
            if path.exists():
                total += path.stat().st_size
        return total

    def log_tails(self, lines: int = 20) -> str:
        out = []
        for name in self.procs:
            path = self.run_dir / f"{name}.log"
            if path.exists():
                tail = path.read_text(encoding="utf-8", errors="replace").splitlines()[-lines:]
                out.append(f"--- {name} ---\n" + "\n".join(tail))
        return "\n".join(out)

    def close(self) -> None:
        """SIGTERM every daemon, SIGKILL what has not exited, reap all."""
        for proc in self.procs.values():
            if proc.poll() is None:
                try:
                    proc.terminate()
                except ProcessLookupError:
                    pass
        for proc in self.procs.values():
            try:
                proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        for log in self._logs:
            log.close()
        self._logs.clear()
