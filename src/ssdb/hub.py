"""Control-plane hub for the share servers, and the cluster topology.

Knows every server's address and x-coordinate, and answers schema reads
from the first reachable server. Nothing else: the dealer writes to each
server directly, and the client fetches shares from t servers directly,
so no share value ever passes through the hub.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path

from . import protocol
from .field import is_prime
from .protocol import GetSchema, SchemaResult, SsdbError, TcpService

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ServerInfo:
    server_id: str
    x_coord: int
    address: str  # host:port


@dataclass(frozen=True)
class ClusterConfig:
    """(t, n) topology: modulus, threshold, and the server roster."""

    p: int
    n: int
    t: int
    servers: tuple[ServerInfo, ...]

    def __post_init__(self):
        if len(self.servers) != self.n:
            raise ValueError(f"n={self.n} but {len(self.servers)} servers configured")
        if not 1 <= self.t <= self.n:
            raise ValueError(f"need 1 <= t <= n, got t={self.t}, n={self.n}")
        if not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")
        if self.p & (self.p + 1):  # reads reduce mod p by folding at 2^k
            raise ValueError(f"modulus {self.p} is not a Mersenne prime 2^k - 1")
        ids = [s.server_id for s in self.servers]
        xs = [s.x_coord for s in self.servers]
        addrs = [s.address for s in self.servers]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate server ids")
        if len(set(xs)) != len(xs):
            raise ValueError("duplicate x-coordinates")
        if len(set(addrs)) != len(addrs):
            raise ValueError("duplicate server addresses")
        if any(not 1 <= x < self.p for x in xs):
            raise ValueError("x-coordinates must be in [1, p)")

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


class Hub:
    """Single-process control plane; holds server addresses, never shares."""

    def __init__(self, config: ClusterConfig, listen: tuple[str, int] = ("127.0.0.1", 0)):
        self.config = config
        self._service = TcpService(listen[0], listen[1], self.handle, p=config.p, name="hub")

    def start(self) -> None:
        self._service.start()

    def stop(self) -> None:
        self._service.stop()

    @property
    def address(self) -> tuple[str, int]:
        return self._service.address

    @property
    def addr_str(self) -> str:
        return self._service.addr_str

    # --- server RPC --------------------------------------------------------

    def _ask(self, info: ServerInfo, msg):
        """One exchange with one server."""
        return protocol.request(protocol.parse_addr(info.address), msg, p=self.config.p)

    # --- handlers -----------------------------------------------------------

    def handle(self, msg):
        if isinstance(msg, GetSchema):
            return self.fetch_schema(msg)
        raise SsdbError(protocol.INTERNAL, f"{msg.type} is not handled by the hub")

    def fetch_schema(self, msg: GetSchema) -> SchemaResult:
        """Ask servers in configured order until one answers.

        Transport failures skip to the next server; an ERROR reply is a
        data-level answer and propagates immediately.
        """
        for info in self.config.servers:
            try:
                reply = self._ask(info, msg)
            except OSError as exc:
                log.info("hub: server %s unreachable: %s", info.server_id, exc)
                continue
            if not isinstance(reply, SchemaResult):
                raise SsdbError(protocol.INTERNAL, f"unexpected reply {reply.type}")
            return reply
        raise SsdbError(
            protocol.THRESHOLD_UNAVAILABLE, f"none of {self.config.n} servers reachable"
        )
