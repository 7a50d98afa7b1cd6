"""Framed wire protocol spoken by dealer, hub, share servers, and client.

The values of shares cross only two kinds of link: dealer to one server
(INSERT_SHARES, that server's cut of a row) and server to client
(DELIVER_SHARES, pushed after a FETCH_TO_CLIENT). The hub carries
control messages only.

A frame is a 4-byte big-endian length followed by that many bytes of
UTF-8 JSON; the JSON is an object carrying a "type" tag and a "req_id"
that every response echoes verbatim. Those values travel as base-10
decimal strings because 61-bit integers overflow the float64 range some
JSON consumers use.
"""

from __future__ import annotations

import json
import logging
import secrets
import socket
import struct
import threading
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Optional

from .encoding import TableSchema
from .field import MERSENNE_61

log = logging.getLogger(__name__)

_HEADER = struct.Struct(">I")
MAX_FRAME_BYTES = 16 * 1024 * 1024

UNKNOWN_TYPE = "UNKNOWN_TYPE"
VALUE_RANGE = "VALUE_RANGE"
NO_SUCH_TABLE = "NO_SUCH_TABLE"
NO_SUCH_ATTR = "NO_SUCH_ATTR"
SCHEMA_MISMATCH = "SCHEMA_MISMATCH"
INTERNAL = "INTERNAL"
THRESHOLD_UNAVAILABLE = "THRESHOLD_UNAVAILABLE"
QUERY_TIMEOUT = "QUERY_TIMEOUT"
DATA_CORRUPTION = "DATA_CORRUPTION"


class SsdbError(Exception):
    """Failure identified by a protocol error code."""

    def __init__(self, code: str, detail: str = ""):
        super().__init__(f"{code}: {detail}" if detail else code)
        self.code = code
        self.detail = detail


class ProtocolError(SsdbError):
    """Local validation or codec failure."""


class RemoteError(SsdbError):
    """ERROR frame received from a peer."""


def new_req_id() -> str:
    """Opaque request correlator: 16 random bytes, hex."""
    return secrets.token_hex(16)


def format_addr(host: str, port: int) -> str:
    return f"{host}:{port}"


def parse_addr(addr: str) -> tuple[str, int]:
    host, sep, port = addr.rpartition(":")
    if not sep or not host:
        raise ValueError(f"address must be host:port, got {addr!r}")
    return host, int(port)


# --- payload field helpers -------------------------------------------------

def _get(fields: dict, key: str, kind, code: str = INTERNAL):
    if key not in fields:
        raise ProtocolError(code, f"missing field {key!r}")
    value = fields[key]
    if kind is int and isinstance(value, bool):
        raise ProtocolError(code, f"field {key!r} must be an integer")
    if not isinstance(value, kind):
        raise ProtocolError(code, f"field {key!r} has wrong type {type(value).__name__}")
    return value


def _shares_out(values: list[int]) -> list[str]:
    return [str(v) for v in values]


def _shares_in(values, p: int) -> list[int]:
    if not isinstance(values, list):
        raise ProtocolError(INTERNAL, "share vector must be a list")
    out = []
    for s in values:
        if not isinstance(s, str) or not s.isascii() or not s.isdigit():
            raise ProtocolError(VALUE_RANGE, f"share value {s!r} is not a decimal string")
        v = int(s)
        if v >= p:
            raise ProtocolError(VALUE_RANGE, f"share value {s} is not below modulus {p}")
        out.append(v)
    return out


def _cells_out(cells: dict[str, list[int]]) -> dict[str, list[str]]:
    return {attr: _shares_out(vec) for attr, vec in cells.items()}


def _cells_in(cells, p: int) -> dict[str, list[int]]:
    if not isinstance(cells, dict):
        raise ProtocolError(INTERNAL, "cells must be an object")
    out = {}
    for attr, vec in cells.items():
        if not isinstance(attr, str):
            raise ProtocolError(INTERNAL, "cell keys must be attribute names")
        out[attr] = _shares_in(vec, p)
    return out


def _indices_in(values) -> list[int]:
    if not isinstance(values, list):
        raise ProtocolError(INTERNAL, "index list must be a list")
    for v in values:
        if isinstance(v, bool) or not isinstance(v, int) or v < 1:
            raise ProtocolError(VALUE_RANGE, f"row index {v!r} must be a positive integer")
    return list(values)


def _schema_in(obj) -> TableSchema:
    try:
        return TableSchema.from_json_dict(obj)
    except ValueError as exc:
        raise ProtocolError(SCHEMA_MISMATCH, str(exc)) from exc


# --- message kinds ---------------------------------------------------------

_MESSAGE_TYPES: dict[str, type] = {}


def _register(cls):
    _MESSAGE_TYPES[cls.type] = cls
    return cls


@_register
@dataclass
class Ack:
    type: ClassVar[str] = "ACK"
    req_id: str = ""

    def payload_fields(self) -> dict:
        return {}

    @classmethod
    def from_payload(cls, fields: dict, p: int) -> "Ack":
        return cls()


@_register
@dataclass
class Error:
    type: ClassVar[str] = "ERROR"
    req_id: str = ""
    code: str = INTERNAL
    detail: str = ""

    def payload_fields(self) -> dict:
        return {"code": self.code, "detail": self.detail}

    @classmethod
    def from_payload(cls, fields: dict, p: int) -> "Error":
        return cls(code=_get(fields, "code", str), detail=_get(fields, "detail", str))


@_register
@dataclass
class CreateTable:
    type: ClassVar[str] = "CREATE_TABLE"
    req_id: str = ""
    schema: TableSchema = None

    def payload_fields(self) -> dict:
        return {"schema": self.schema.to_json_dict()}

    @classmethod
    def from_payload(cls, fields: dict, p: int) -> "CreateTable":
        return cls(schema=_schema_in(_get(fields, "schema", dict, SCHEMA_MISMATCH)))


@_register
@dataclass
class InsertShares:
    """One server's cut of a row: attr -> share vector at that server's x."""

    type: ClassVar[str] = "INSERT_SHARES"
    req_id: str = ""
    table: str = ""
    index: int = 0
    cells: dict[str, list[int]] = field(default_factory=dict)

    def payload_fields(self) -> dict:
        return {"table": self.table, "index": self.index, "cells": _cells_out(self.cells)}

    @classmethod
    def from_payload(cls, fields: dict, p: int) -> "InsertShares":
        index = _get(fields, "index", int)
        if index < 1:
            raise ProtocolError(VALUE_RANGE, f"row index {index} must be >= 1")
        return cls(
            table=_get(fields, "table", str),
            index=index,
            cells=_cells_in(_get(fields, "cells", dict), p),
        )


@_register
@dataclass
class GetSchema:
    type: ClassVar[str] = "GET_SCHEMA"
    req_id: str = ""
    table: str = ""

    def payload_fields(self) -> dict:
        return {"table": self.table}

    @classmethod
    def from_payload(cls, fields: dict, p: int) -> "GetSchema":
        return cls(table=_get(fields, "table", str))


@_register
@dataclass
class SchemaResult:
    """A table's schema and its stored row count; both are public."""

    type: ClassVar[str] = "SCHEMA_RESULT"
    req_id: str = ""
    schema: TableSchema = None
    rows: int = 0

    def payload_fields(self) -> dict:
        return {"schema": self.schema.to_json_dict(), "rows": self.rows}

    @classmethod
    def from_payload(cls, fields: dict, p: int) -> "SchemaResult":
        rows = _get(fields, "rows", int)
        if rows < 0:
            raise ProtocolError(VALUE_RANGE, f"row count {rows} must be >= 0")
        return cls(schema=_schema_in(_get(fields, "schema", dict, SCHEMA_MISMATCH)), rows=rows)


@_register
@dataclass
class FetchToClient:
    """Result-delivery request: row indices, attribute, and where to push.

    Carries exactly the three semantic fields of the retrieval packet;
    the table name and req_id are routing plumbing. Indices that are
    null (or absent on the wire) ask for every stored row.
    """

    type: ClassVar[str] = "FETCH_TO_CLIENT"
    req_id: str = ""
    table: str = ""
    attr: str = ""
    indices: Optional[list[int]] = None
    client_addr: str = ""

    def payload_fields(self) -> dict:
        return {
            "table": self.table,
            "attr": self.attr,
            "indices": self.indices,
            "client_addr": self.client_addr,
        }

    @classmethod
    def from_payload(cls, fields: dict, p: int) -> "FetchToClient":
        return cls(
            table=_get(fields, "table", str),
            attr=_get(fields, "attr", str),
            indices=None if fields.get("indices") is None else _indices_in(fields["indices"]),
            client_addr=_get(fields, "client_addr", str),
        )


@dataclass
class DeliveredRow:
    index: int
    elements: list[int]


@_register
@dataclass
class DeliverShares:
    """Server push to the client listener: its share of the requested cells."""

    type: ClassVar[str] = "DELIVER_SHARES"
    req_id: str = ""
    table: str = ""
    attr: str = ""
    server_x: int = 0
    rows: list[DeliveredRow] = field(default_factory=list)

    def payload_fields(self) -> dict:
        return {
            "table": self.table,
            "attr": self.attr,
            "server_x": self.server_x,
            "rows": [{"index": r.index, "elements": _shares_out(r.elements)} for r in self.rows],
        }

    @classmethod
    def from_payload(cls, fields: dict, p: int) -> "DeliverShares":
        server_x = _get(fields, "server_x", int)
        if server_x < 1:
            raise ProtocolError(VALUE_RANGE, f"server_x {server_x} must be >= 1")
        raw = _get(fields, "rows", list)
        rows = []
        for entry in raw:
            if not isinstance(entry, dict):
                raise ProtocolError(INTERNAL, "row entry must be an object")
            index = _get(entry, "index", int)
            if index < 1:
                raise ProtocolError(VALUE_RANGE, f"row index {index} must be >= 1")
            rows.append(DeliveredRow(index=index, elements=_shares_in(_get(entry, "elements", list), p)))
        return cls(
            table=_get(fields, "table", str),
            attr=_get(fields, "attr", str),
            server_x=server_x,
            rows=rows,
        )


@_register
@dataclass
class Register:
    type: ClassVar[str] = "REGISTER"
    req_id: str = ""
    server_id: str = ""
    x_coord: int = 0

    def payload_fields(self) -> dict:
        return {"server_id": self.server_id, "x_coord": self.x_coord}

    @classmethod
    def from_payload(cls, fields: dict, p: int) -> "Register":
        return cls(server_id=_get(fields, "server_id", str), x_coord=_get(fields, "x_coord", int))


@_register
@dataclass
class ServerList:
    """Hub bookkeeping; empty as a request, populated as the reply."""

    type: ClassVar[str] = "SERVER_LIST"
    req_id: str = ""
    servers: list[dict] = field(default_factory=list)

    def payload_fields(self) -> dict:
        return {"servers": self.servers}

    @classmethod
    def from_payload(cls, fields: dict, p: int) -> "ServerList":
        servers = fields.get("servers", [])
        if not isinstance(servers, list):
            raise ProtocolError(INTERNAL, "servers must be a list")
        return cls(servers=servers)


# --- frame codec -----------------------------------------------------------

def encode_message(msg) -> dict:
    return {"type": msg.type, "req_id": msg.req_id, **msg.payload_fields()}


def decode_message(obj: dict, p: int = MERSENNE_61):
    if not isinstance(obj, dict):
        raise ProtocolError(INTERNAL, "payload must be a JSON object")
    msg_type = obj.get("type")
    if not isinstance(msg_type, str):
        raise ProtocolError(INTERNAL, "payload needs a string 'type' field")
    cls = _MESSAGE_TYPES.get(msg_type)
    if cls is None:
        raise ProtocolError(UNKNOWN_TYPE, f"unknown message type {msg_type!r}")
    req_id = obj.get("req_id")
    if not isinstance(req_id, str):
        raise ProtocolError(INTERNAL, "payload needs a string 'req_id' field")
    msg = cls.from_payload(obj, p)
    msg.req_id = req_id
    return msg


def encode_frame(msg) -> bytes:
    payload = json.dumps(encode_message(msg), separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(INTERNAL, f"frame of {len(payload)} bytes exceeds {MAX_FRAME_BYTES}")
    return _HEADER.pack(len(payload)) + payload


def decode_frame(buf, p: int = MERSENNE_61) -> Optional[tuple[object, int]]:
    """Decode one frame from the head of buf.

    Returns (message, bytes_consumed), or None when the buffer does not
    yet hold a complete frame.
    """
    if len(buf) < _HEADER.size:
        return None
    (length,) = _HEADER.unpack_from(buf)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(INTERNAL, f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
    end = _HEADER.size + length
    if len(buf) < end:
        return None
    try:
        obj = json.loads(bytes(buf[_HEADER.size : end]).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(INTERNAL, f"malformed frame payload: {exc}") from exc
    return decode_message(obj, p), end


class FrameDecoder:
    """Incremental frame reassembly; byte-chunk boundaries never matter."""

    def __init__(self, p: int = MERSENNE_61):
        self.p = p
        self._buf = bytearray()

    def feed(self, data: bytes) -> list:
        self._buf += data
        messages = []
        offset = 0
        while True:
            result = decode_frame(memoryview(self._buf)[offset:], self.p)
            if result is None:
                break
            msg, consumed = result
            messages.append(msg)
            offset += consumed
        if offset:
            del self._buf[:offset]
        return messages


# --- sockets ---------------------------------------------------------------

def _recv_exact(sock: socket.socket, nbytes: int) -> Optional[bytes]:
    """Read exactly nbytes; None on clean EOF at a frame boundary."""
    buf = bytearray()
    while len(buf) < nbytes:
        part = sock.recv(nbytes - len(buf))
        if not part:
            if not buf:
                return None
            raise ConnectionError("peer closed mid-frame")
        buf += part
    return bytes(buf)


def send_message(sock: socket.socket, msg) -> None:
    sock.sendall(encode_frame(msg))


def recv_message(sock: socket.socket, p: int = MERSENNE_61):
    """Blocking read of one message; None on clean EOF."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(INTERNAL, f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
    payload = _recv_exact(sock, length)
    if payload is None:
        raise ConnectionError("peer closed mid-frame")
    result = decode_frame(header + payload, p)
    assert result is not None
    return result[0]


def request(
    addr: tuple[str, int],
    msg,
    *,
    p: int = MERSENNE_61,
    connect_timeout: float = 2.0,
    response_timeout: float = 5.0,
):
    """One request/response exchange on a fresh connection.

    Raises RemoteError if the peer answers with an ERROR frame, and the
    usual OSError family on transport trouble.
    """
    with socket.create_connection(addr, timeout=connect_timeout) as sock:
        sock.settimeout(response_timeout)
        send_message(sock, msg)
        reply = recv_message(sock, p)
    if reply is None:
        raise ConnectionError(f"{format_addr(*addr)} closed the connection without replying")
    if isinstance(reply, Error):
        raise RemoteError(reply.code, reply.detail)
    return reply


def push(addr: tuple[str, int], msg, *, connect_timeout: float = 2.0) -> None:
    """One-way delivery: connect, send a single frame, close."""
    with socket.create_connection(addr, timeout=connect_timeout) as sock:
        send_message(sock, msg)


def start_daemon(threads: list, target: Callable, *args, name: str) -> None:
    """Start a daemon thread and track it in `threads`, forgetting finished ones.

    The caller holds the lock that guards `threads`, so a long-lived
    service keeps only the threads that are still running.
    """
    threads[:] = [t for t in threads if t.is_alive()]
    thread = threading.Thread(target=target, args=args, name=name, daemon=True)
    thread.start()
    threads.append(thread)


class TcpService:
    """Threaded frame server: one handler call per frame, in arrival order.

    Pipelined frames on a single connection are processed and answered
    strictly in order. Handler exceptions become ERROR frames carrying
    the request's req_id.
    """

    def __init__(
        self,
        host: str,
        port: int,
        handler: Callable,
        *,
        p: int = MERSENNE_61,
        name: str = "service",
    ):
        self._host = host
        self._port = port
        self._handler = handler
        self._p = p
        self._name = name
        self._sock: Optional[socket.socket] = None
        self._threads: list[threading.Thread] = []
        self._conns: set[socket.socket] = set()
        self._lock = threading.Lock()
        self._stopping = False

    def start(self) -> None:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self._host, self._port))
        sock.listen(64)
        self._sock = sock
        with self._lock:
            self._stopping = False
            start_daemon(self._threads, self._accept_loop, name=f"{self._name}-accept")

    @property
    def address(self) -> tuple[str, int]:
        assert self._sock is not None, "service not started"
        host, port = self._sock.getsockname()[:2]
        return host, port

    @property
    def addr_str(self) -> str:
        return format_addr(*self.address)

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, peer = self._sock.accept()
            except OSError:
                return
            with self._lock:
                if self._stopping:
                    conn.close()
                    return
                self._conns.add(conn)
                start_daemon(self._threads, self._serve_conn, conn, name=f"{self._name}-conn")

    def _serve_conn(self, conn: socket.socket) -> None:
        decoder = FrameDecoder(self._p)
        try:
            while True:
                try:
                    data = conn.recv(65536)
                except OSError:
                    return
                if not data:
                    return
                try:
                    messages = decoder.feed(data)
                except ProtocolError as exc:
                    # Stream state is unknown after a malformed frame: report, then drop.
                    try:
                        send_message(conn, Error(req_id="", code=exc.code, detail=exc.detail))
                    except OSError:
                        pass
                    return
                for msg in messages:
                    reply = self._dispatch(msg)
                    try:
                        send_message(conn, reply)
                    except OSError:
                        return
        finally:
            with self._lock:
                self._conns.discard(conn)
            conn.close()

    def _dispatch(self, msg):
        try:
            reply = self._handler(msg)
        except SsdbError as exc:
            reply = Error(code=exc.code, detail=exc.detail)
        except Exception as exc:  # noqa: BLE001 - a handler bug must not kill the connection
            log.exception("%s: handler failed on %s", self._name, msg.type)
            reply = Error(code=INTERNAL, detail=f"unhandled {type(exc).__name__}: {exc}")
        reply.req_id = msg.req_id
        return reply

    def stop(self) -> None:
        with self._lock:
            self._stopping = True
            conns = list(self._conns)
            threads = list(self._threads)
            self._threads.clear()
        if self._sock is not None:
            try:
                # wake the blocked accept(); close() alone leaves the
                # kernel socket listening until the accept returns
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._sock.close()
            except OSError:
                pass
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()
        for thread in threads:
            thread.join(timeout=5)
