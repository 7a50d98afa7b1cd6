"""Cluster topology, the one fan-out to the share servers, and the hub.

`ResultListener` is the only code that sends requests to the servers of
a `ClusterConfig`: the dealer's writes, the client's fetches and the
hub's schema reads, all under one failover rule. The hub answers schema
and row-count reads and nothing else, so no share value passes through it.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass
from pathlib import Path

from . import protocol
from .field import MERSENNE_61
from .protocol import GetSchema, SsdbError, TcpService

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ServerInfo:
    server_id: str
    x_coord: int
    address: str  # host:port


@dataclass(frozen=True)
class ClusterConfig:
    """(t, n) topology: modulus, threshold, and the server roster.

    The one place a modulus is configured: `p` must be 2^61 - 1
    (`field.MERSENNE_61`), which every layer below takes as given.
    """

    p: int
    n: int
    t: int
    servers: tuple[ServerInfo, ...]

    def __post_init__(self):
        if self.p != MERSENNE_61:
            raise ValueError(f"modulus {self.p} is not 2^61 - 1, the one ssdb uses")
        numbers = {"n": self.n, "t": self.t}
        numbers.update((f"x_coord of {s.server_id}", s.x_coord) for s in self.servers)
        for name, value in numbers.items():
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if len(self.servers) != self.n:
            raise ValueError(f"n={self.n} but {len(self.servers)} servers configured")
        if not 1 <= self.t <= self.n:
            raise ValueError(f"need 1 <= t <= n, got t={self.t}, n={self.n}")
        ids = [s.server_id for s in self.servers]
        xs = [s.x_coord for s in self.servers]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate server ids")
        if len(set(xs)) != len(xs):
            raise ValueError("duplicate x-coordinates")
        if any(not 1 <= x < self.p for x in xs):
            raise ValueError("x-coordinates must be in [1, p)")
        addrs: dict[tuple[str, int], str] = {}
        for s in self.servers:
            try:
                addr = protocol.parse_addr(s.address)
            except ValueError as exc:
                raise ValueError(f"server {s.server_id}: {exc}") from None
            if addr in addrs:  # host names as written: localhost is not 127.0.0.1
                raise ValueError(f"servers {addrs[addr]} and {s.server_id} have one address")
            addrs[addr] = s.server_id

    def server_by_id(self, server_id: str) -> ServerInfo:
        for info in self.servers:
            if info.server_id == server_id:
                return info
        raise KeyError(server_id)

    def to_json_dict(self) -> dict:
        return {
            "p": str(self.p),
            "n": self.n,
            "t": self.t,
            "servers": [
                {"server_id": s.server_id, "x_coord": s.x_coord, "address": s.address}
                for s in self.servers
            ],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ClusterConfig":
        try:
            servers = tuple(
                ServerInfo(s["server_id"], s["x_coord"], s["address"]) for s in obj["servers"]
            )
            return cls(p=int(obj["p"]), n=obj["n"], t=obj["t"], servers=servers)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed cluster config: {exc}") from exc

    @classmethod
    def load(cls, path) -> "ClusterConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=2) + "\n", encoding="utf-8")


# --- the fan-out to the servers ---------------------------------------------


class ResultListener:
    """One request, of one or more frames, to several servers, and their replies.

    Construction builds build(server), a list of messages, for every
    server, and encodes each message once, all under one req_id: the
    first built message's own, or a fresh one if it has none, so a
    relayed request keeps its sender's. Every message is encoded before
    any server is asked, so a request too large to encode fails once and
    names no server; a message that `build` gives several servers, as a
    read does, costs one `encode_frame`. Each server's frames go in one
    write on a pooled connection (`protocol.Exchange`) to the first
    `need` servers in configured order that take the connection; `wait`
    reads each one's replies, one per frame, in order. One rule covers
    every caller, the dealer's writes (need = n), the client's fetches
    (need = t) and the hub's schema reads (need = 1):

    * a transport failure before a server's last reply is replaced by
      the next server not yet tried, which gets all of its own frames;
    * an ERROR reply to any frame counts against its server and is not
      replaced;
    * replies not all in by the deadline count as QUERY_TIMEOUT;
    * with fewer than `need` servers answered, the error takes the class
      and code of the first failure in configured order (RemoteError for
      an ERROR reply, THRESHOLD_UNAVAILABLE for a transport failure) and
      names every server that failed.

    (It listens on nothing; the name is kept for the benchmark, which
    wraps `ResultListener.wait`.)
    """

    def __init__(self, config: ClusterConfig, build, need: int, deadline: float):
        self.config = config
        self.need = need
        self.deadline = deadline
        self.req_id = ""
        built = [build(info) for info in config.servers]  # alive, so no id is reused
        encoded: dict[int, bytes] = {}
        for msgs in built:
            for msg in msgs:
                if id(msg) not in encoded:
                    self.req_id = msg.req_id = self.req_id or msg.req_id or protocol.new_req_id()
                    encoded[id(msg)] = protocol.encode_frame(msg)
        frames = [[encoded[id(msg)] for msg in msgs] for msgs in built]
        self._untried = iter(zip(config.servers, frames))
        self._asked: list[tuple[ServerInfo, protocol.Exchange]] = []
        self._failed: dict[ServerInfo, SsdbError] = {}
        for _ in range(need):
            self._ask_next()

    def _fail(self, info: ServerInfo, exc: Exception) -> None:
        log.info("%s: server %s failed: %s", self.req_id, info.server_id, exc)
        if not isinstance(exc, SsdbError):  # a transport failure
            exc = SsdbError(protocol.THRESHOLD_UNAVAILABLE, str(exc))
        self._failed[info] = exc

    def _ask_next(self) -> None:
        """Send the request to the next untried server that takes the connection."""
        for info, frames in self._untried:
            try:
                exchange = protocol.Exchange(protocol.parse_addr(info.address), frames, self.req_id)
            except OSError as exc:
                self._fail(info, exc)
                continue
            self._asked.append((info, exchange))
            return

    def wait(self) -> list[tuple[ServerInfo, list]]:
        """(server, its replies in frame order) of `need` servers, in configured order.

        Servers are asked, and so read, in configured order: a
        replacement comes after every server asked before it.
        """
        replies: list[tuple[ServerInfo, list]] = []
        try:
            while self._asked:
                info, exchange = self._asked.pop(0)
                try:
                    replies.append((info, exchange.replies(self.deadline - time.monotonic())))
                except TimeoutError:
                    self._fail(info, SsdbError(protocol.QUERY_TIMEOUT, "no reply in time"))
                except SsdbError as exc:
                    self._fail(info, exc)
                except OSError as exc:
                    self._fail(info, exc)
                    self._ask_next()
        finally:
            for _, exchange in self._asked:
                exchange.close()
        if len(replies) < self.need:
            self._raise(len(replies))
        return replies

    def _raise(self, replied: int) -> None:
        failed = [(s, self._failed[s]) for s in self.config.servers if s in self._failed]
        first = failed[0][1]
        detail = f"{self.req_id}: {replied} of {self.need} servers replied; " + "; ".join(
            f"server {info.server_id} ({info.address}): {exc.detail}" for info, exc in failed
        )
        raise type(first)(first.code, detail) from first


class Hub(TcpService):
    """Single-process control plane; holds server addresses, never shares."""

    def __init__(self, config: ClusterConfig, listen: tuple[str, int] = ("127.0.0.1", 0)):
        super().__init__(listen[0], listen[1], self.handle, name="hub")
        self.config = config

    def handle(self, msg):
        """The first server's reply to a schema read, as it is; nothing else is answered."""
        if not isinstance(msg, GetSchema):
            raise SsdbError(protocol.INTERNAL, f"{msg.type} is not handled by the hub")
        deadline = time.monotonic() + protocol.RESPONSE_TIMEOUT
        [(_, [reply])] = ResultListener(self.config, lambda info: [msg], 1, deadline).wait()
        return reply
