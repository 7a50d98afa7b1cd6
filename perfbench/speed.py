"""The machine's speed, sampled between the benchmark's operations.

The benchmark runs on shared hosts whose speed drifts by 20-50% over
seconds to minutes while the program under test stays the same, and not
only in arithmetic: waking a process, a loopback connection and thread
start-up slow down too. So the sample is a fixed reference exchange
shaped like one ssdb hop: a fresh loopback TCP connection to a
thread-per-connection server in a child process of its own, a framed
JSON request, a fixed loop of 61-bit modular arithmetic there, and a
framed reply. A second child process, the prober, makes and times the
exchange when the client asks it to, at most every ``INTERVAL_S`` and
only between operations; the client itself only waits, so its own state
(say, a garbage collection the last operation set off) does not count.

``bench.py`` divides each operation's latency (set-up inserts too) by
the machine's slowdown in the ``NEAR_S`` around it, and the rest of a
set-up by the median slowdown over it, so times read as they would on a
machine where the exchange takes ``REF_S``; the raw times go to the run
record.

Both children are the benchmark's own code and do not import ssdb, so no
change to the program changes the exchange.
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
import time

SERVER = r"""
import json, os, socketserver, struct, sys, threading

def work(seed):
    p = (1 << 61) - 1
    acc, table = seed, {}
    for i in range(2500):
        acc = (acc * 6364136223846793005 + i) % p
        table[i & 127] = [acc, acc >> 7, i]
    return [str(v[0]) for v in table.values()]

def recv_exact(sock, size):
    data = b""
    while len(data) < size:
        chunk = sock.recv(size - len(data))
        if not chunk:
            raise ConnectionError("closed mid-frame")
        data += chunk
    return data

class Handler(socketserver.BaseRequestHandler):
    def handle(self):
        (size,) = struct.unpack(">I", recv_exact(self.request, 4))
        req = json.loads(recv_exact(self.request, size))
        body = json.dumps({"req_id": req["req_id"], "cells": work(req["seed"])}).encode()
        self.request.sendall(struct.pack(">I", len(body)) + body)

def exit_with_parent():
    sys.stdin.read()  # EOF: the benchmark closed the pipe or died
    os._exit(0)

threading.Thread(target=exit_with_parent, daemon=True).start()
socketserver.ThreadingTCPServer.daemon_threads = True
with socketserver.ThreadingTCPServer(("127.0.0.1", 0), Handler) as server:
    print(server.server_address[1], flush=True)
    server.serve_forever()
"""

PROBER = r"""
import json, socket, struct, sys, time

def recv_exact(sock, size):
    data = b""
    while len(data) < size:
        chunk = sock.recv(size - len(data))
        if not chunk:
            raise ConnectionError("closed mid-frame")
        data += chunk
    return data

addr = ("127.0.0.1", int(sys.argv[1]))
for n, _ in enumerate(sys.stdin):
    body = json.dumps({"req_id": f"speed-{n}", "seed": n + 1}).encode()
    start = time.perf_counter()
    with socket.create_connection(addr, timeout=10) as sock:
        sock.sendall(struct.pack(">I", len(body)) + body)
        (size,) = struct.unpack(">I", recv_exact(sock, 4))
        reply = json.loads(recv_exact(sock, size))
    elapsed = time.perf_counter() - start
    if reply["req_id"] != f"speed-{n}":
        raise SystemExit("reference server answered another request")
    print(elapsed, flush=True)
"""

# Median time of one exchange on the 2-vCPU Intel Xeon VM the benchmark
# was written on; reported times are scaled to a machine this fast.
REF_S = 0.0030
INTERVAL_S = 0.1
# Drift lasts seconds; 2 s of samples smooth out a single slow exchange.
NEAR_S = 1.0


class Speed:
    """Samples the reference exchange; ``close`` reaps both children."""

    def __init__(self):
        self._procs: list[subprocess.Popen] = []
        try:
            server = self._spawn([SERVER])
            port = server.stdout.readline()
            if not port:
                raise RuntimeError(f"reference server exited with {server.wait()}")
            self._prober = self._spawn([PROBER, port.strip()])
        except BaseException:
            self.close()
            raise
        self.samples: list[float] = []
        self.times: list[float] = []  # perf_counter at the end of each sample
        self.spent = 0.0  # wall seconds spent sampling, to leave out of timings
        self._last = float("-inf")

    def _spawn(self, args: list[str]) -> subprocess.Popen:
        # Both children exit when their stdin closes, so they end with the
        # benchmark even if it is killed; a terminal ^C reaches only it.
        proc = subprocess.Popen(
            [sys.executable, "-c", *args], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        self._procs.append(proc)
        return proc

    def sample(self) -> None:
        start = time.perf_counter()
        self._prober.stdin.write("\n")
        self._prober.stdin.flush()
        line = self._prober.stdout.readline()
        if not line:
            raise RuntimeError(f"prober exited with {self._prober.wait()}")
        self._last = time.perf_counter()
        self.samples.append(float(line))
        self.times.append(self._last)
        self.spent += self._last - start

    def tick(self) -> None:
        """Sample if ``INTERVAL_S`` has passed since the last sample."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def mark(self) -> tuple[int, float]:
        """Start a stretch: sample now and return where it begins."""
        self.sample()
        return len(self.samples) - 1, self.spent

    def slowdown(self, mark: tuple[int, float]) -> float:
        """How much slower than ``REF_S`` the machine ran since ``mark``."""
        self.sample()
        return statistics.median(self.samples[mark[0]:]) / REF_S

    def slowdown_at(self, when: float) -> float:
        """The slowdown over the samples within ``NEAR_S`` of ``when``."""
        lo = bisect.bisect_left(self.times, when - NEAR_S)
        hi = bisect.bisect_right(self.times, when + NEAR_S)
        if lo == hi:  # no sample that near: take the closest one
            lo = min(max(lo - 1, 0), len(self.times) - 1)
            hi = lo + 1
        return statistics.median(self.samples[lo:hi]) / REF_S

    def spent_since(self, mark: tuple[int, float]) -> float:
        return self.spent - mark[1]

    def close(self) -> None:
        for proc in self._procs:
            proc.stdin.close()
            if proc.poll() is None:
                proc.terminate()
        for proc in self._procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
