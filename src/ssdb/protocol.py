"""Framed wire protocol spoken by dealer, hub, share servers, and client.

Eight message types make up the whole contract, and every exchange is
a request and its reply on the same connection. The values of shares cross
only two kinds of link: dealer to one server (INSERT_SHARES, that
server's cut of a row) and server to client (DELIVER_SHARES, the reply
to the client's FETCH_TO_CLIENT, which names each attribute it wants
once, and its rows in ascending order). The hub carries control
messages only.

A frame is a 4-byte big-endian length followed by that many bytes of
payload. The payload starts with a UTF-8 JSON object carrying a "type"
tag and a "req_id" that every response echoes verbatim. The two
share-bearing types follow it with a newline and one binary body (a
`ShareRows`) of one cell per named attribute in each row, attribute by
attribute: the row indices and each cell's element count as 4-byte
big-endian ints, then every share as 8 big-endian bytes (`SHARE_BYTES`).
Servers keep cells in that form, so a delivery is their stored bytes
joined, and a receiver checks a body with one length test and one range
test. The range test builds no int per share (see `read_body`).

A fetch of every row may name `after` = k, the rows its client already
holds: the server then sends only the later rows, and a sha256 `digest`
of its stored rows 1..k (`RowsDigest`), by which the client tells that
those rows are still what it read.

Each message type is a dataclass that declares its payload fields once,
each with a `Kind`: the field's JSON type, encoding, checks and error
code, or, for a body, its shape. One generic encode_message/decode_message
walks those fields.

Servers and clients cut frames from a socket with one `FrameDecoder`.
Connections are kept open. Every request goes out in an `Exchange` on a
connection taken from the process's `ConnectionPool`. An exchange may
carry several requests in one write, which the server answers in order,
as HTTP/1.1 pipelining does (RFC 9112, section 9.3.2). The pool gets the
connection back once one reply per request, with nothing after the last,
has been read within the deadline. Reuse makes no check: requests that a
reused connection fails before any reply byte go once more on a fresh
one (RFC 9112, section 9.3.1). `close_idle` closes the idle ones.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
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
from .field import MERSENNE_61, SHARE_BYTES

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
    """(host, port) of host:port, the port ASCII digits up to 65535; a non-str is a TypeError."""
    host, sep, port = str.rpartition(addr, ":")
    if not (sep and host and port.isascii() and port.isdigit() and int(port) <= 65535):
        raise ValueError(f"address must be host:port with a port of 0-65535, got {addr!r}")
    return host, int(port)


# --- share bodies ----------------------------------------------------------

def pack_shares(values: Sequence[int]) -> bytes:
    return struct.pack(f">{len(values)}Q", *values)


@dataclass(frozen=True)
class ShareRows:
    """Share cells as they travel and rest: the body of a share-bearing frame.

    `indices` are row indices, `counts` each cell's element count, and
    `packed` all of those cells' shares in order, every share 8 bytes
    big-endian. Cells come attribute by attribute, each attribute's in
    `indices` order, so its counts and shares are one run.
    """

    indices: tuple[int, ...] = ()
    counts: tuple[int, ...] = ()
    packed: bytes = b""

    @classmethod
    def pack(cls, indices: Sequence[int], vectors: Sequence[Sequence[int]]) -> ShareRows:
        flat = [v for vec in vectors for v in vec]
        return cls(tuple(indices), tuple(map(len, vectors)), pack_shares(flat))

    def body(self) -> bytes:
        head = struct.pack(f">{len(self.indices) + len(self.counts)}I", *self.indices, *self.counts)
        return head + self.packed


# p's 8 bytes, 1f ff .. ff, and the top bytes a share below p can have
_P_BYTES = MERSENNE_61.to_bytes(SHARE_BYTES, "big")
_LOW_TOPS = bytes(range(_P_BYTES[0] + 1))


def read_body(body, rows: int, cells: int) -> ShareRows:
    """Check a body of `rows` rows of `cells` cells each and return it.

    Every share is 8 bytes. One width test (the share bytes are exactly
    counts x 8) and one range test (every share is below p), made on
    bytes, not ints. A share is below p = 2^61 - 1 when its top byte is at
    most 0x1f and it is not p's bytes: one strided slice of the top bytes
    with those deleted must be empty, and p's bytes must be nowhere in the
    run. The search need not keep to share edges: a copy of p's bytes that
    starts inside one share makes the next one's top byte 0xff.
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
    need = SHARE_BYTES * sum(counts)
    if len(packed) != need:
        raise ProtocolError(INTERNAL, f"body holds {len(packed)} share bytes, its counts need {need}")
    if packed[::SHARE_BYTES].translate(None, _LOW_TOPS) or _P_BYTES in packed:
        raise ProtocolError(VALUE_RANGE, f"a share value is not below modulus {MERSENNE_61}")
    return ShareRows(indices, counts, packed)


class RowsDigest:
    """Running sha256 of one attribute's cells, from row 1 on, as a server stores them.

    The element counts (4-byte big-endian) and the shares are two
    separate running hashes, so the digest of rows 1..k does not depend
    on how many deliveries brought them. `add` grows this digest in
    place and returns it.
    """

    def __init__(self):
        self._counts = hashlib.sha256()
        self._shares = hashlib.sha256()

    def add(self, counts: Sequence[int], packed: bytes) -> RowsDigest:
        self._counts.update(struct.pack(f">{len(counts)}I", *counts))
        self._shares.update(packed)
        return self

    def hexdigest(self) -> str:
        """sha256 of the two running hashes' digests, counts first, in hex."""
        return hashlib.sha256(self._counts.digest() + self._shares.digest()).hexdigest()


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
    last = 0
    for v in values:
        if isinstance(v, bool) or not isinstance(v, int) or v <= last:
            raise ProtocolError(VALUE_RANGE, f"row index {v!r} must be an integer above {last}")
        last = v
    return list(values)


def _digest_in(value: str) -> str:
    if len(value) != 64 or value.strip("0123456789abcdef"):
        raise ProtocolError(VALUE_RANGE, "a digest is 64 lowercase hex digits")
    return value


def _names_in(values: list) -> list[str]:
    if not all(isinstance(v, str) for v in values):
        raise ProtocolError(INTERNAL, "attribute names must be strings")
    if len(set(values)) != len(values):
        raise ProtocolError(VALUE_RANGE, "an attribute is named twice")
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
AFTER = Kind(int, empty=lambda: None, load=_at_least(0), nullable=True)
DIGEST = Kind(str, empty=lambda: None, load=_digest_in, nullable=True)
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
    Each attribute is named once and the indices strictly ascend, so a
    reply holds each stored cell at most once. Indices that are null (or
    absent on the wire) ask for every stored row. `after` = k, allowed
    only then and for one attribute, asks for the rows after row k and,
    if k >= 1, the `RowsDigest` of rows 1..k.
    """

    type: ClassVar[str] = "FETCH_TO_CLIENT"
    req_id: str = _wire(STR)
    table: str = _wire(STR)
    attrs: list[str] = _wire(NAMES)
    indices: Optional[list[int]] = _wire(INDICES)
    after: Optional[int] = _wire(AFTER)

    def __post_init__(self):
        if self.after is not None and (self.indices is not None or len(self.attrs) != 1):
            raise ProtocolError(VALUE_RANGE, "after needs null indices and one attribute")


@_register
@dataclass
class DeliverShares:
    """A server's reply to FETCH_TO_CLIENT: its shares of the requested cells.

    `attrs` names the body's attributes, in body order (see `ShareRows`).
    `digest` answers a fetch's `after` >= 1: the `RowsDigest` hex of the
    server's stored rows 1..after. It is null otherwise, and when the
    server holds fewer rows, in which case it delivers none.
    """

    type: ClassVar[str] = "DELIVER_SHARES"
    req_id: str = _wire(STR)
    server_x: int = _wire(POSITIVE)
    attrs: list[str] = _wire(NAMES)
    rows: ShareRows = _wire(ROWS)
    digest: Optional[str] = _wire(DIGEST)


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


def decode_message(obj: dict, body=None):
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
            fields[name] = read_body(body, *kind.shape(fields))
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


def decode_frame(buf) -> Optional[tuple[object, int]]:
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
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, too deep, too many digits
        raise ProtocolError(INTERNAL, f"malformed frame payload: {exc}") from exc
    return decode_message(obj, body), end


class FrameDecoder:
    """Incremental frame reassembly; byte-chunk boundaries never matter."""

    def __init__(self):
        self._buf = bytearray()

    def feed(self, data: bytes) -> list:
        self._buf += data
        messages = []
        offset = 0
        while True:
            result = decode_frame(memoryview(self._buf)[offset:])
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
_MORE = getattr(socket, "MSG_MORE", 0)  # Linux: hold a send's tail until the next send


def _connect(addr: tuple[str, int]) -> socket.socket:
    sock = socket.create_connection(addr, timeout=CONNECT_TIMEOUT)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


class ConnectionPool:
    """Idle connections kept open per address, for later requests to reuse.

    A connection is handed back only after exactly one complete reply per
    request was read from it, so an idle one has nothing in flight; at most
    MAX_IDLE_PER_ADDR are kept per address. `take` hands an idle one out
    as it is: a peer that hung up meanwhile costs `Exchange` one resend,
    and bytes it sent unasked fail the next request's req_id check.
    """

    def __init__(self):
        self._idle: dict[tuple[str, int], list[socket.socket]] = {}
        self._lock = threading.Lock()

    def take(self, addr: tuple[str, int]) -> tuple[socket.socket, bool]:
        """An idle connection to addr, else a new one; and whether it is reused."""
        with self._lock:
            idle = self._idle.get(addr)
            sock = idle.pop() if idle else None
        return (_connect(addr), False) if sock is None else (sock, True)

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
    """Requests, encoded frames, sent in one write on a pooled connection; `replies` reads them.

    `req_id` is the requests' own, which every reply must echo. The
    caller encodes the frames, so a request sent to several servers is
    encoded once. Several exchanges can be in flight at once, each on its
    own connection. Connecting and sending each wait at most
    CONNECT_TIMEOUT. `replies` cuts one reply frame per request with a
    `FrameDecoder`, in order, and its deadline covers them whole, not
    only the first byte. The connection goes back to the pool only if
    exactly that many complete reply frames (an ERROR frame counts)
    arrived with no byte after the last; bytes nobody asked for, any
    failure, or `close` before the last reply closes it. Requests that
    fail on a reused connection before any reply byte arrives, in sending
    (unless the send timed out) or in reading, are all sent once more on
    a fresh one, by `replies`. Nothing else is retried: a frame the peer
    sent unasked on an idle connection is read as the first reply, and
    its req_id fails these requests.
    """

    def __init__(self, addr: tuple[str, int], frames: Sequence[bytes], req_id: str):
        self.addr = addr
        self.req_id = req_id
        self._frames = b"".join(frames)
        self._count = len(frames)
        self._sock, self._reused = POOL.take(addr)
        self._send()

    def _send(self) -> None:
        """Send the frames; a failed reused connection is closed and left for `replies` to redo."""
        try:
            self._sock.settimeout(CONNECT_TIMEOUT)
            self._sock.sendall(self._frames)
        except OSError as exc:
            self.close()
            if not self._reused or isinstance(exc, TimeoutError):
                raise

    def _read(self, deadline: float):
        """Read until one whole frame per request is in, all of them by the deadline.

        Returns those frames and whether nothing came after them, or None
        if the peer hung up (EOF or a non-timeout OSError) before any byte.
        """
        decoder, replies = FrameDecoder(), []
        while True:
            # past the deadline, 0 reads only the bytes already here
            self._sock.settimeout(max(deadline - time.monotonic(), 0.0))
            try:
                data = self._sock.recv(65536)
            except (TimeoutError, BlockingIOError):
                raise TimeoutError("no whole reply by the deadline") from None
            except OSError:
                if replies or decoder._buf:
                    raise
                data = b""
            if not data:
                if replies or decoder._buf:
                    raise ConnectionError("peer closed before its last reply")
                return None
            replies += decoder.feed(data)
            if len(replies) >= self._count:
                return replies[: self._count], len(replies) == self._count and not decoder._buf

    def replies(self, timeout: float = RESPONSE_TIMEOUT) -> list:
        """Read one reply per request, in request order, within `timeout` seconds.

        Raises RemoteError, for the first one, if the peer answers any
        request with an ERROR frame, TimeoutError if the replies are not
        all in by then, and the rest of the OSError family if the peer
        hangs up before its last reply.
        """
        deadline = time.monotonic() + timeout
        try:
            got = self._read(deadline) if self._sock else None
            if got is None and self._reused:
                self.close()
                self._sock, self._reused = _connect(self.addr), False
                self._send()
                got = self._read(deadline)
            if got is None:
                raise ConnectionError("peer closed the connection without replying")
            replies, alone = got
            for reply in replies:
                # only an ERROR about an unreadable frame carries no req_id
                if reply.req_id != self.req_id and (reply.req_id or not isinstance(reply, Error)):
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
            self.close()  # bytes nobody asked for came after the replies
        for reply in replies:
            if isinstance(reply, Error):
                raise RemoteError(reply.code, reply.detail)
        return replies

    def close(self) -> None:
        """Close the connection, unless its replies were read and it went back to the pool."""
        if self._sock is not None:
            self._sock.close()
            self._sock = None


def request(addr: tuple[str, int], msg, *, response_timeout: float = RESPONSE_TIMEOUT):
    """One request/reply exchange on a kept-open connection from the pool.

    Raises RemoteError if the peer answers with an ERROR frame, and the
    usual OSError family on transport trouble.
    """
    [reply] = Exchange(addr, [encode_frame(msg)], msg.req_id).replies(response_timeout)
    return reply


class TcpService:
    """Threaded frame server: one handler call per frame, in arrival order.

    Pipelined frames on a single connection are processed and answered
    strictly in order. Connections are served with TCP_NODELAY, and every
    reply to the frames of one read but the last is sent with MSG_MORE
    where the platform has it, so those replies leave as one write and
    none waits for the peer's delayed ACK; only one reply is held at a
    time. Handler exceptions, and a reply too big for one frame, become
    ERROR frames carrying the request's req_id. `_conns` maps each live
    connection to the thread serving it, which removes the entry as it
    ends; `stop` joins the accept thread and those.
    """

    def __init__(self, host: str, port: int, handler: Callable, *, name: str = "service"):
        self._host = host
        self._port = port
        self._handler = handler
        self._name = name
        self._sock: Optional[socket.socket] = None
        self._accepter: Optional[threading.Thread] = None
        self._conns: dict[socket.socket, threading.Thread] = {}
        self._lock = threading.Lock()
        self._stopping = False

    def start(self) -> None:
        self._sock = socket.create_server((self._host, self._port), backlog=64)
        self._stopping = False
        self._accepter = threading.Thread(
            target=self._accept_loop, name=f"{self._name}-accept", daemon=True
        )
        self._accepter.start()

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
            except OSError as exc:
                if self._stopping:
                    return
                # say EMFILE: the listener stays open, so accept again shortly
                log.warning("%s: accept failed (%s); retrying", self._name, exc)
                time.sleep(0.1)
                continue
            with self._lock:
                if self._stopping:
                    conn.close()
                    return
                # started under the lock, so `stop` never sees a thread it cannot join
                thread = self._conns[conn] = threading.Thread(
                    target=self._serve_conn, args=(conn,), name=f"{self._name}-conn", daemon=True
                )
                thread.start()

    def _serve_conn(self, conn: socket.socket) -> None:
        decoder = FrameDecoder()
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while data := conn.recv(65536):
                try:
                    messages = decoder.feed(data)
                except ProtocolError as exc:
                    # Stream state is unknown after a malformed frame: report, then drop.
                    conn.sendall(encode_frame(Error(code=exc.code, detail=exc.detail)))
                    return
                for k, msg in enumerate(messages, 1):
                    reply = self._dispatch(msg)
                    try:
                        frame = encode_frame(reply)
                    except SsdbError as exc:  # a reply past MAX_FRAME_BYTES
                        frame = encode_frame(Error(reply.req_id, exc.code, exc.detail))
                    conn.sendall(frame, _MORE if k < len(messages) else 0)
        except OSError:
            return  # the peer went away, or `stop` shut the connection down
        finally:
            with self._lock:
                del self._conns[conn]
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
            conns = dict(self._conns)
        if self._sock is None:
            return
        # wake the blocked accept(); close() alone leaves the kernel
        # socket listening until the accept returns
        with contextlib.suppress(OSError):
            self._sock.shutdown(socket.SHUT_RDWR)
        self._sock.close()
        for conn in conns:  # each thread closes its own connection as it ends
            with contextlib.suppress(OSError):
                conn.shutdown(socket.SHUT_RDWR)
        for thread in [self._accepter, *conns.values()]:
            thread.join(timeout=5)
