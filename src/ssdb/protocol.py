"""Framed wire protocol spoken by dealer, hub, share servers, and client.

Eight message types make up the whole contract, and every exchange is
a request and its reply on the same connection. The values of shares cross
only two kinds of link: dealer to one server (INSERT_SHARES, that
server's cut of a row) and server to client (DELIVER_SHARES, the reply
to the client's FETCH_TO_CLIENT, which names every attribute it wants).
The hub carries control messages only.

A frame is a 4-byte big-endian length followed by that many bytes of
payload. The payload starts with a UTF-8 JSON object carrying a "type"
tag and a "req_id" that every response echoes verbatim. The two
share-bearing types follow it with a newline and one binary body (a
`ShareRows`) of one cell per named attribute in each row, attribute by
attribute: the row indices and each cell's element count as 4-byte
big-endian ints, then every share as w = ceil(p.bit_length() / 8)
big-endian bytes. Servers keep cells in that form, so a delivery is
their stored bytes joined, and a receiver checks a body with one length
test and one range test. The range test builds no int per share: it
compares every share's top byte with p's at once, and takes a Python
step only for a share whose top byte equals p's (see `read_body`).

Each message type is a dataclass that declares its payload fields once,
each with a `Kind`: the field's JSON type, encoding, checks and error
code, or, for a body, its shape. One generic encode_message/decode_message
walks those fields.

Servers and clients cut frames from a socket with one `FrameDecoder`.
Connections are kept open. Every request goes out as an `Exchange` on a
connection taken from the process's `ConnectionPool`, which gets it back
once its one reply, with nothing after it, has been read within the
reply's deadline, and reuses it only if it is still quiet. `close_idle`
closes the idle ones.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import secrets
import socket
import struct
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Optional, Sequence

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


# --- share bodies ----------------------------------------------------------

_FIXED_WIDTH = {1: "B", 2: "H", 4: "I", 8: "Q"}  # struct codes for whole-word widths


def share_width(p: int) -> int:
    """Bytes per share on the wire and on disk: enough for any value below p."""
    return (p.bit_length() + 7) // 8


def pack_shares(values: Sequence[int], p: int) -> bytes:
    w = share_width(p)
    code = _FIXED_WIDTH.get(w)
    if code is not None:
        return struct.pack(f">{len(values)}{code}", *values)
    return b"".join(v.to_bytes(w, "big") for v in values)


def unpack_shares(packed: bytes, p: int) -> Sequence[int]:
    """The ints of a packed share run; one C-level call at whole-word widths."""
    w = share_width(p)
    code = _FIXED_WIDTH.get(w)
    if code is not None:
        return struct.unpack(f">{len(packed) // w}{code}", packed)
    return [int.from_bytes(packed[i : i + w], "big") for i in range(0, len(packed), w)]


@dataclass(frozen=True)
class ShareRows:
    """Share cells as they travel and rest: the body of a share-bearing frame.

    `indices` are row indices, `counts` each cell's element count, and
    `packed` all of those cells' shares in order, fixed-width big-endian
    (`share_width(p)` bytes each). Cells come attribute by attribute, each
    attribute's in `indices` order, so its counts and shares are one run.
    """

    indices: tuple[int, ...] = ()
    counts: tuple[int, ...] = ()
    packed: bytes = b""

    @classmethod
    def pack(cls, indices: Sequence[int], vectors: Sequence[Sequence[int]], p: int) -> ShareRows:
        flat = [v for vec in vectors for v in vec]
        return cls(tuple(indices), tuple(map(len, vectors)), pack_shares(flat, p))

    def body(self) -> bytes:
        head = struct.pack(f">{len(self.indices) + len(self.counts)}I", *self.indices, *self.counts)
        return head + self.packed


def read_body(body, rows: int, cells: int, p: int) -> ShareRows:
    """Check a body of `rows` rows of `cells` cells each and return it.

    One width test (the share bytes are exactly counts x w) and one range
    test (every share is below p), made on bytes, not ints: one strided
    slice takes each share's top byte, and `translate` marks it 0, 1 or 2
    as it is below, equal to or above p's top byte. Only a share marked 1
    takes a Python step, one comparison of its w bytes with p's; at
    p = 2^61 - 1 that is about one uniform share in 32.
    """
    head = rows * (1 + cells)  # the indices, then one count per cell
    if len(body) < 4 * head:
        raise ProtocolError(
            INTERNAL, f"body of {len(body)} bytes cannot hold {rows} indices and their counts"
        )
    numbers = struct.unpack_from(f">{head}I", body)
    indices, counts = numbers[:rows], numbers[rows:]
    if rows and min(indices) < 1:
        raise ProtocolError(VALUE_RANGE, "row index 0 must be >= 1")
    packed = bytes(body[4 * head :])
    w = share_width(p)
    need = w * sum(counts)
    if len(packed) != need:
        raise ProtocolError(INTERNAL, f"body holds {len(packed)} share bytes, its counts need {need}")
    limit = p.to_bytes(w, "big")
    marks = packed[::w].translate(bytes(limit[0]) + b"\x01" + b"\x02" * (255 - limit[0]))
    above, at = 2 in marks, marks.find(1)
    while at >= 0 and not above:
        above = packed[at * w : (at + 1) * w] >= limit
        at = marks.find(1, at + 1)
    if above:
        raise ProtocolError(VALUE_RANGE, f"a share value is not below modulus {p}")
    return ShareRows(indices, counts, packed)


# --- field kinds -----------------------------------------------------------

@dataclass(frozen=True)
class Kind:
    """How one payload field travels: its JSON type, encoding and checks.

    A field that is missing or arrives as another JSON type fails with
    `code`; `load` converts the JSON value and checks its content. A kind
    with a `shape` is a `ShareRows` carried in the binary body; `shape`
    reads (rows, cells per row) from the header fields decoded so far,
    and `json_type` None means the field has no header entry.
    """

    json_type: Optional[type]
    empty: Callable  # builds the field's default value
    dump: Callable = lambda value: value  # value -> JSON
    load: Callable = lambda value: value  # JSON -> value
    code: str = INTERNAL
    nullable: bool = False  # null or absent decodes to None
    shape: Optional[Callable[[dict], tuple[int, int]]] = None


def _at_least(low: int) -> Callable:
    def load(value: int) -> int:
        if value < low:
            raise ProtocolError(VALUE_RANGE, f"{value} must be >= {low}")
        return value
    return load


def _indices_in(values: list) -> list[int]:
    for v in values:
        if isinstance(v, bool) or not isinstance(v, int) or v < 1:
            raise ProtocolError(VALUE_RANGE, f"row index {v!r} must be a positive integer")
    return list(values)


def _names_in(values: list) -> list[str]:
    if not all(isinstance(v, str) for v in values):
        raise ProtocolError(INTERNAL, "attribute names must be strings")
    return values


def _schema_in(obj: dict) -> TableSchema:
    try:
        return TableSchema.from_json_dict(obj)
    except ValueError as exc:
        raise ProtocolError(SCHEMA_MISMATCH, str(exc)) from exc


STR = Kind(str, empty=str)
COUNT = Kind(int, empty=int, load=_at_least(0))
POSITIVE = Kind(int, empty=int, load=_at_least(1))
NAMES = Kind(list, empty=list, load=_names_in)
INDICES = Kind(list, empty=lambda: None, load=_indices_in, nullable=True)
SCHEMA = Kind(
    dict,
    empty=lambda: None,
    dump=TableSchema.to_json_dict,
    load=_schema_in,
    code=SCHEMA_MISMATCH,
)


def _cells_shape(fields: dict) -> tuple[int, int]:
    """Rows (one, unless the header counts them) of one cell per named attribute."""
    return fields.get("rows", 1), len(fields["attrs"])


# one row, its index in the body
CELLS = Kind(None, empty=ShareRows, shape=_cells_shape)
# the header carries the row count
ROWS = Kind(
    int,
    empty=ShareRows,
    dump=lambda rows: len(rows.indices),
    load=_at_least(0),
    shape=_cells_shape,
)


def _wire(kind: Kind, default=None):
    """Declare one payload field; its kind encodes and checks it."""
    empty = kind.empty if default is None else lambda: default
    return field(default_factory=empty, metadata={"kind": kind})


def read_field(obj: dict, name: str, kind: Kind):
    """Decode obj[name] as `kind`, or raise ProtocolError."""
    value = obj.get(name)
    if value is None:
        if kind.nullable:
            return None
        if name not in obj:
            raise ProtocolError(kind.code, f"missing field {name!r}")
    if isinstance(value, bool) or not isinstance(value, kind.json_type):
        raise ProtocolError(kind.code, f"field {name!r} has wrong type {type(value).__name__}")
    try:
        return kind.load(value)
    except ProtocolError as exc:
        raise ProtocolError(exc.code, f"field {name!r}: {exc.detail}") from None


# --- message types ---------------------------------------------------------

_MESSAGE_TYPES: dict[str, type] = {}


def _register(cls):
    """Record a message type and its declared payload fields, in wire order."""
    cls.wire = tuple(
        (f.name, f.metadata["kind"]) for f in dataclasses.fields(cls) if "kind" in f.metadata
    )
    cls.has_body = any(kind.shape is not None for _, kind in cls.wire)
    _MESSAGE_TYPES[cls.type] = cls
    return cls


@_register
@dataclass
class Ack:
    type: ClassVar[str] = "ACK"
    req_id: str = _wire(STR)


@_register
@dataclass
class Error:
    type: ClassVar[str] = "ERROR"
    req_id: str = _wire(STR)
    code: str = _wire(STR, INTERNAL)
    detail: str = _wire(STR)


@_register
@dataclass
class CreateTable:
    type: ClassVar[str] = "CREATE_TABLE"
    req_id: str = _wire(STR)
    schema: TableSchema = _wire(SCHEMA)


@_register
@dataclass
class InsertShares:
    """One server's cut of a row: its index and one share vector per attribute.

    `attrs` names the cells in body order; the body is what the server
    appends to its log.
    """

    type: ClassVar[str] = "INSERT_SHARES"
    req_id: str = _wire(STR)
    table: str = _wire(STR)
    attrs: list[str] = _wire(NAMES)
    cells: ShareRows = _wire(CELLS)


@_register
@dataclass
class GetSchema:
    type: ClassVar[str] = "GET_SCHEMA"
    req_id: str = _wire(STR)
    table: str = _wire(STR)


@_register
@dataclass
class SchemaResult:
    """A table's schema and its stored row count; both are public."""

    type: ClassVar[str] = "SCHEMA_RESULT"
    req_id: str = _wire(STR)
    schema: TableSchema = _wire(SCHEMA)
    rows: int = _wire(COUNT)


@_register
@dataclass
class FetchToClient:
    """Retrieval request from the client to one server: table, attributes, rows.

    The server replies on the same connection with DELIVER_SHARES.
    Indices that are null (or absent on the wire) ask for every stored
    row.
    """

    type: ClassVar[str] = "FETCH_TO_CLIENT"
    req_id: str = _wire(STR)
    table: str = _wire(STR)
    attrs: list[str] = _wire(NAMES)
    indices: Optional[list[int]] = _wire(INDICES)


@_register
@dataclass
class DeliverShares:
    """A server's reply to FETCH_TO_CLIENT: its shares of the requested cells.

    `attrs` names the body's attributes, in body order (see `ShareRows`).
    """

    type: ClassVar[str] = "DELIVER_SHARES"
    req_id: str = _wire(STR)
    server_x: int = _wire(POSITIVE)
    attrs: list[str] = _wire(NAMES)
    rows: ShareRows = _wire(ROWS)


# --- frame codec -----------------------------------------------------------

def encode_message(msg) -> tuple[dict, Optional[bytes]]:
    """The message's JSON header, and its binary body if its type has one."""
    header, body = {"type": msg.type}, None
    for name, kind in msg.wire:
        value = getattr(msg, name)
        if kind.json_type is not None:
            header[name] = kind.dump(value)
        if kind.shape is not None:
            body = value.body()
    return header, body


def decode_message(obj: dict, p: int = MERSENNE_61, body=None):
    if not isinstance(obj, dict):
        raise ProtocolError(INTERNAL, "payload must be a JSON object")
    msg_type = obj.get("type")
    if not isinstance(msg_type, str):
        raise ProtocolError(INTERNAL, "payload needs a string 'type' field")
    cls = _MESSAGE_TYPES.get(msg_type)
    if cls is None:
        raise ProtocolError(UNKNOWN_TYPE, f"unknown message type {msg_type!r}")
    if cls.has_body != (body is not None):
        raise ProtocolError(
            INTERNAL, f"{msg_type} {'needs' if cls.has_body else 'takes no'} binary body"
        )
    fields = {}
    for name, kind in cls.wire:
        if kind.json_type is not None:
            fields[name] = read_field(obj, name, kind)
        if kind.shape is not None:
            fields[name] = read_body(body, *kind.shape(fields), p)
    return cls(**fields)


def encode_frame(msg) -> bytes:
    header, body = encode_message(msg)
    parts = [json.dumps(header, separators=(",", ":")).encode("utf-8")]
    if body is not None:
        parts += [b"\n", body]  # compact JSON never holds a raw newline
    length = sum(map(len, parts))
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(INTERNAL, f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
    return b"".join([_HEADER.pack(length), *parts])


def decode_frame(buf, p: int = MERSENNE_61) -> Optional[tuple[object, int]]:
    """Decode one frame from the head of buf.

    Returns (message, bytes_consumed), or None when the buffer does not
    yet hold a complete frame. A declared length above MAX_FRAME_BYTES
    is rejected as soon as the length itself has arrived.
    """
    if len(buf) < _HEADER.size:
        return None
    (length,) = _HEADER.unpack_from(buf)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(INTERNAL, f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
    end = _HEADER.size + length
    if len(buf) < end:
        return None
    payload = bytes(buf[_HEADER.size : end])
    newline = payload.find(b"\n")
    header, body = (payload, None) if newline < 0 else (
        payload[:newline], memoryview(payload)[newline + 1 :]
    )
    try:
        obj = json.loads(header.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(INTERNAL, f"malformed frame payload: {exc}") from exc
    return decode_message(obj, p, body), end


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


# --- kept-open connections --------------------------------------------------

CONNECT_TIMEOUT = 2.0
RESPONSE_TIMEOUT = 5.0
MAX_IDLE_PER_ADDR = 8  # idle connections kept per address; more are closed when handed back


def _connect(addr: tuple[str, int]) -> socket.socket:
    sock = socket.create_connection(addr, timeout=CONNECT_TIMEOUT)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _is_quiet(sock: socket.socket) -> bool:
    """True if the peer has neither hung up nor sent bytes nobody asked for."""
    try:
        sock.settimeout(0.0)
        sock.recv(1, socket.MSG_PEEK)
    except BlockingIOError:
        return True  # nothing to read
    except OSError:
        pass
    return False


class ConnectionPool:
    """Idle connections kept open per address, for later requests to reuse.

    A connection is handed back only after exactly one complete reply was
    read from it, so an idle one has nothing in flight; at most
    MAX_IDLE_PER_ADDR are kept per address. Before reuse, a non-blocking
    peek must find it quiet: a peer that hung up, or bytes nobody asked
    for, get it closed instead.
    """

    def __init__(self):
        self._idle: dict[tuple[str, int], list[socket.socket]] = {}
        self._lock = threading.Lock()

    def take(self, addr: tuple[str, int]) -> tuple[socket.socket, bool]:
        """A quiet idle connection to addr, else a new one; and whether it is reused."""
        while True:
            with self._lock:
                idle = self._idle.get(addr)
                sock = idle.pop() if idle else None
            if sock is None:
                return _connect(addr), False
            if _is_quiet(sock):
                return sock, True
            sock.close()

    def give(self, addr: tuple[str, int], sock: socket.socket) -> None:
        with self._lock:
            idle = self._idle.setdefault(addr, [])
            if len(idle) < MAX_IDLE_PER_ADDR:
                idle.append(sock)
                return
        sock.close()

    def close_idle(self) -> None:
        with self._lock:
            idle = [sock for socks in self._idle.values() for sock in socks]
            self._idle.clear()
        for sock in idle:
            sock.close()


POOL = ConnectionPool()


def close_idle() -> None:
    """Close every idle kept-open connection of this process."""
    POOL.close_idle()


class Exchange:
    """One request, an encoded frame, sent on a pooled connection; `reply` reads its answer.

    `req_id` is the request's own, which the reply must echo. The caller
    encodes the frame, so a request sent to several servers is encoded
    once. Several exchanges can be in flight at once, each on its own
    connection. Connecting and sending each wait at most
    CONNECT_TIMEOUT. `reply` cuts its frame with a `FrameDecoder`, and
    its deadline covers the whole reply, not only the first byte. The
    connection goes back to the pool only if exactly one complete reply
    frame (an ERROR frame counts) arrived with no byte after it; bytes
    nobody asked for, any failure, or `close` before the reply closes
    it. A request that fails on a reused connection before any reply
    byte arrives is sent once more on a fresh one. Nothing else is
    retried.
    """

    def __init__(
        self, addr: tuple[str, int], frame: bytes, req_id: str, *, p: int = MERSENNE_61
    ):
        self.addr = addr
        self.p = p
        self.req_id = req_id
        self._frame = frame
        self._sock, self._reused = POOL.take(addr)
        self._send()

    def _send(self) -> None:
        try:
            self._sock.settimeout(CONNECT_TIMEOUT)
            self._sock.sendall(self._frame)
        except OSError as exc:
            self.close()
            if not self._reused or isinstance(exc, TimeoutError):
                raise
            self._send_fresh()

    def _send_fresh(self) -> None:
        self._sock, self._reused = _connect(self.addr), False
        self._send()

    def _read(self, deadline: float):
        """Read until one whole frame is in, all of it by the deadline.

        Returns that frame and whether nothing came after it, or None if
        the peer hung up (EOF or a non-timeout OSError) before any byte.
        """
        decoder = FrameDecoder(self.p)
        while True:
            # past the deadline, 0 reads only the bytes already here
            self._sock.settimeout(max(deadline - time.monotonic(), 0.0))
            try:
                data = self._sock.recv(65536)
            except (TimeoutError, BlockingIOError):
                raise TimeoutError("no whole reply by the deadline") from None
            except OSError:
                if decoder._buf:
                    raise
                data = b""
            if not data:
                if decoder._buf:
                    raise ConnectionError("peer closed mid-frame")
                return None
            frames = decoder.feed(data)
            if frames:
                return frames[0], len(frames) == 1 and not decoder._buf

    def reply(self, timeout: float = RESPONSE_TIMEOUT):
        """Read the one reply within `timeout` seconds.

        Raises RemoteError if the peer answers with an ERROR frame,
        TimeoutError if no whole reply arrives in time, and the rest of
        the OSError family if the peer hangs up without answering.
        """
        deadline = time.monotonic() + timeout
        try:
            got = self._read(deadline)
            if got is None and self._reused:
                self.close()
                self._send_fresh()
                got = self._read(deadline)
            if got is None:
                raise ConnectionError("peer closed the connection without replying")
            reply, alone = got
            # an ERROR about an unreadable frame carries no req_id
            if reply.req_id not in (self.req_id, ""):
                raise ProtocolError(
                    INTERNAL, f"reply for {reply.req_id!r} to request {self.req_id!r}"
                )
        except BaseException:
            self.close()
            raise
        if alone:
            POOL.give(self.addr, self._sock)
            self._sock = None
        else:
            self.close()  # bytes nobody asked for came after the reply
        if isinstance(reply, Error):
            raise RemoteError(reply.code, reply.detail)
        return reply

    def close(self) -> None:
        """Close the connection, unless its reply was read and it went back to the pool."""
        if self._sock is not None:
            self._sock.close()
            self._sock = None


def request(
    addr: tuple[str, int],
    msg,
    *,
    p: int = MERSENNE_61,
    response_timeout: float = RESPONSE_TIMEOUT,
):
    """One request/reply exchange on a kept-open connection from the pool.

    Raises RemoteError if the peer answers with an ERROR frame, and the
    usual OSError family on transport trouble.
    """
    return Exchange(addr, encode_frame(msg), msg.req_id, p=p).reply(response_timeout)


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
                        conn.sendall(encode_frame(Error(code=exc.code, detail=exc.detail)))
                    except OSError:
                        pass
                    return
                for msg in messages:
                    reply = self._dispatch(msg)
                    try:
                        conn.sendall(encode_frame(reply))
                    except OSError:
                        return
        finally:
            with self._lock:
                self._conns.discard(conn)
            conn.close()

    def _dispatch(self, msg):
        req_id = msg.req_id  # as received, whatever the handler does to msg
        try:
            reply = self._handler(msg)
        except SsdbError as exc:
            reply = Error(code=exc.code, detail=exc.detail)
        except Exception as exc:  # noqa: BLE001 - a handler bug must not kill the connection
            log.exception("%s: handler failed on %s", self._name, msg.type)
            reply = Error(code=INTERNAL, detail=f"unhandled {type(exc).__name__}: {exc}")
        reply.req_id = req_id
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
