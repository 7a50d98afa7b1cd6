"""Client side: the dealer's insert path and the query pipeline.

All secret-bearing computation happens here. Inserts encode each value,
split every field element into n shares, and send each server only its
own cut, directly. Queries read only through server pushes: t servers
push every row of the condition column to a throwaway listener socket
owned by the query, the client reconstructs it and evaluates the
predicate on plaintext, then the servers push the matching cells of each
other selected attribute the same way. The hub only relays the fetch
requests.
"""

from __future__ import annotations

import logging
import operator
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Optional, Union

from . import protocol
from .encoding import AttrType, TableSchema, decode_value, encode_value
from .hub import ClusterConfig
from .protocol import (
    Ack,
    CreateTable,
    DeliverShares,
    FetchToClient,
    FrameDecoder,
    GetSchema,
    InsertShares,
    SchemaResult,
    ShareRows,
    SsdbError,
    split_counts,
)
from .shamir import lagrange_weights, split

log = logging.getLogger(__name__)

Value = Union[int, str]


# --- query language ---------------------------------------------------------

COMPARISONS = ("=", "!=", "<", "<=", ">", ">=")

_OPS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_KEYWORDS = {"SELECT", "FROM", "WHERE"}


class QuerySyntaxError(ValueError):
    """Query text rejected; carries the 0-based offset of the problem."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


@dataclass(frozen=True)
class Predicate:
    attr: str
    op: str
    literal: Value

    def __post_init__(self):
        if self.op not in _OPS:
            raise ValueError(f"unknown comparison {self.op!r}")


@dataclass(frozen=True)
class Query:
    select_attrs: tuple[str, ...]  # ("*",) means every attribute
    table: str
    predicate: Optional[Predicate] = None


@dataclass
class _Token:
    kind: str  # IDENT, INT, STRING, OP, COMMA, STAR, EOF
    text: str
    value: Value
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == ",":
            tokens.append(_Token("COMMA", ",", ",", i))
            i += 1
        elif ch == "*":
            tokens.append(_Token("STAR", "*", "*", i))
            i += 1
        elif text.startswith(("!=", "<=", ">="), i):
            tokens.append(_Token("OP", text[i : i + 2], text[i : i + 2], i))
            i += 2
        elif ch in "=<>":
            tokens.append(_Token("OP", ch, ch, i))
            i += 1
        elif ch == "'":
            start = i
            i += 1
            parts = []
            while True:
                if i >= n:
                    raise QuerySyntaxError("unterminated string literal", start)
                if text[i] == "'":
                    if i + 1 < n and text[i + 1] == "'":  # '' escapes a quote
                        parts.append("'")
                        i += 2
                        continue
                    i += 1
                    break
                parts.append(text[i])
                i += 1
            tokens.append(_Token("STRING", text[start:i], "".join(parts), start))
        elif ch.isdigit():
            start = i
            while i < n and text[i].isdigit():
                i += 1
            tokens.append(_Token("INT", text[start:i], int(text[start:i]), start))
        elif ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(_Token("IDENT", text[start:i], text[start:i], start))
        else:
            raise QuerySyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("EOF", "", "", n))
    return tokens


def parse_query(text: str) -> Query:
    """Parse ``SELECT a, b FROM t [WHERE attr OP literal]``.

    Keywords are case-insensitive; attribute and table names keep their
    case. String literals use single quotes with '' as the escape.
    """
    tokens = _tokenize(text)
    pos = 0

    def peek() -> _Token:
        return tokens[pos]

    def take() -> _Token:
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def is_keyword(tok: _Token, word: str) -> bool:
        return tok.kind == "IDENT" and tok.text.upper() == word

    def expect_name(what: str) -> str:
        tok = take()
        if tok.kind != "IDENT" or tok.text.upper() in _KEYWORDS:
            raise QuerySyntaxError(f"expected {what}, got {tok.text or 'end of input'!r}", tok.pos)
        return tok.text

    tok = take()
    if not is_keyword(tok, "SELECT"):
        raise QuerySyntaxError("query must start with SELECT", tok.pos)

    if peek().kind == "STAR":
        take()
        select: tuple[str, ...] = ("*",)
    else:
        attrs = [expect_name("attribute name")]
        while peek().kind == "COMMA":
            take()
            attrs.append(expect_name("attribute name"))
        select = tuple(attrs)

    tok = take()
    if not is_keyword(tok, "FROM"):
        raise QuerySyntaxError("expected FROM", tok.pos)
    table = expect_name("table name")

    predicate = None
    if is_keyword(peek(), "WHERE"):
        take()
        attr = expect_name("attribute name")
        tok = take()
        if tok.kind != "OP":
            raise QuerySyntaxError(f"expected comparison operator, got {tok.text!r}", tok.pos)
        op = tok.text
        lit = take()
        if lit.kind not in ("INT", "STRING"):
            raise QuerySyntaxError("expected an integer or 'string' literal", lit.pos)
        predicate = Predicate(attr, op, lit.value)

    tok = take()
    if tok.kind != "EOF":
        raise QuerySyntaxError(f"unexpected trailing input {tok.text!r}", tok.pos)
    return Query(select_attrs=select, table=table, predicate=predicate)


def evaluate_predicate(
    decoded: list[tuple[int, Value]], predicate: Optional[Predicate], attr_type: Optional[AttrType]
) -> list[int]:
    """Return the row indices (ascending) whose value satisfies the test.

    Text compares as UTF-8 bytes, so ordering is byte-lexicographic and
    case-sensitive. No predicate keeps every row.
    """
    if predicate is None:
        return [index for index, _ in decoded]
    cmp = _OPS[predicate.op]
    literal = predicate.literal
    if attr_type is AttrType.INTEGER and not isinstance(literal, int):
        raise ValueError(f"attribute {predicate.attr!r} is INTEGER, literal is not")
    if attr_type is AttrType.TEXT and not isinstance(literal, str):
        raise ValueError(f"attribute {predicate.attr!r} is TEXT, literal is not")
    if isinstance(literal, str):
        lit_key = literal.encode("utf-8")
        return [i for i, v in decoded if cmp(str(v).encode("utf-8"), lit_key)]
    return [i for i, v in decoded if cmp(v, literal)]


# --- results ----------------------------------------------------------------


@dataclass
class ResultSet:
    columns: list[str]
    indices: list[int]  # ascending row indices, aligned with rows
    rows: list[list[Value]]

    def to_json_rows(self) -> list[dict]:
        return [dict(zip(self.columns, row)) for row in self.rows]


# --- hub access -------------------------------------------------------------


class HubClient:
    """Thin request/reply wrapper around one hub address."""

    def __init__(
        self,
        address: str,
        *,
        p: int,
        connect_timeout: float = 2.0,
        response_timeout: float = 10.0,
    ):
        self.address = address
        self.p = p
        self.connect_timeout = connect_timeout
        self.response_timeout = response_timeout

    def _call(self, msg, expect):
        try:
            reply = protocol.request(
                protocol.parse_addr(self.address),
                msg,
                p=self.p,
                connect_timeout=self.connect_timeout,
                response_timeout=self.response_timeout,
            )
        except OSError as exc:
            raise SsdbError(
                protocol.THRESHOLD_UNAVAILABLE, f"hub {self.address} unreachable: {exc}"
            ) from exc
        if not isinstance(reply, expect):
            raise SsdbError(protocol.INTERNAL, f"unexpected reply {reply.type} from hub")
        return reply

    def get_schema(self, table: str) -> SchemaResult:
        """The table's schema and stored row count."""
        return self._call(GetSchema(req_id=protocol.new_req_id(), table=table), SchemaResult)

    def fetch_to_client(
        self, table: str, attr: str, indices: Optional[list[int]], client_addr: str, req_id: str
    ) -> None:
        """Have t servers push their shares of `attr` at `indices` (None: every row)."""
        msg = FetchToClient(
            req_id=req_id, table=table, attr=attr, indices=indices, client_addr=client_addr
        )
        self._call(msg, Ack)


# --- dealer (insert path) ---------------------------------------------------


class Dealer:
    """Splits plaintext rows into shares and writes each server its own cut.

    The dealer is the only party that ever sees a whole row; nothing it
    sends over the wire contains a plaintext encoding once t >= 2, and
    each server receives only the shares at its own x-coordinate. The
    hub is used only to read a table's row count, so a dealer that only
    creates tables needs none.
    """

    def __init__(self, hub: Optional[HubClient], config: ClusterConfig, rng=None):
        self.hub = hub
        self.config = config
        self.rng = rng
        self.xs = [s.x_coord for s in config.servers]
        self._next_index: dict[str, int] = {}

    def _write_all(self, build) -> None:
        """Send build(server) to every server in turn; all n must acknowledge.

        Stops at the first failure, so at most the servers already
        written diverge (there is no rollback message), and names the
        server that failed.
        """
        req_id = protocol.new_req_id()
        for info in self.config.servers:
            msg = build(info)
            msg.req_id = req_id
            try:
                protocol.request(protocol.parse_addr(info.address), msg, p=self.config.p)
            except OSError as exc:
                raise SsdbError(
                    protocol.THRESHOLD_UNAVAILABLE,
                    f"write failed at server {info.server_id} ({info.address}): {exc}",
                ) from exc
            except SsdbError as exc:
                raise SsdbError(
                    exc.code,
                    f"write failed at server {info.server_id} ({info.address}): {exc.detail}",
                ) from exc

    def create_table(self, schema: TableSchema) -> None:
        # no index-cache seeding: create is idempotent, the table may
        # already hold rows
        self._write_all(lambda info: CreateTable(schema=schema))

    def next_index_for(self, schema: TableSchema) -> int:
        """Stored row count + 1, read through the hub."""
        return self.hub.get_schema(schema.table_name).rows + 1

    def insert_row(self, schema: TableSchema, values) -> int:
        """Split one row and write each server its shares; returns the row index."""
        values = list(values)
        if len(values) != len(schema.attributes):
            raise ValueError(
                f"{schema.table_name!r} has {len(schema.attributes)} attributes, "
                f"got {len(values)} values"
            )
        # plain elements mod p of each cell, in schema order, before splitting
        cells = [
            encode_value(attr.type, value, self.config.p)
            for attr, value in zip(schema.attributes, values)
        ]

        table = schema.table_name
        if table not in self._next_index:
            self._next_index[table] = self.next_index_for(schema)
        index = self._next_index[table]

        t, p = self.config.t, self.config.p
        per_server: dict[str, list[list[int]]] = {s.server_id: [] for s in self.config.servers}
        for elements in cells:
            columns = [split(element, self.xs, t, p, self.rng) for element in elements]
            for k, info in enumerate(self.config.servers):
                vec = [ys[k] for ys in columns]
                # near-zero odds unless the rng is broken; checked before any write
                if t >= 2 and p > (1 << 32) and vec == elements:
                    raise SsdbError(
                        protocol.INTERNAL,
                        "refusing to send a share vector equal to the plaintext encoding",
                    )
                per_server[info.server_id].append(vec)

        attrs = schema.attr_names()
        bodies = {sid: ShareRows.pack((index,), vecs, p) for sid, vecs in per_server.items()}
        try:
            self._write_all(
                lambda info: InsertShares(table=table, attrs=attrs, cells=bodies[info.server_id])
            )
        except SsdbError:
            self._next_index.pop(table, None)  # cache may be stale, rediscover
            raise
        self._next_index[table] = index + 1
        return index


# --- delivery listener ------------------------------------------------------


@dataclass
class _PendingFetch:
    req_id: str
    needed: int
    pushes: dict[int, DeliverShares] = field(default_factory=dict)  # by server x
    done: threading.Event = field(default_factory=threading.Event)
    error: Optional[SsdbError] = None

    def fail(self, error: SsdbError) -> None:
        self.error = error
        self.done.set()


class ResultListener:
    """One-shot TCP sink for DELIVER_SHARES pushes during a query.

    Lives only for the duration of a query; servers connect, push one
    message, and hang up. Pushes are matched to fetches by req_id and a
    fetch completes after `needed` distinct servers have delivered.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *, p: int):
        self.p = p
        self._sock = socket.create_server((host, port))
        self._host = host
        self._port = self._sock.getsockname()[1]
        self._pending: dict[str, _PendingFetch] = {}
        self._lock = threading.Lock()
        self._threads: list[threading.Thread] = []
        self._stopping = False
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="ssdb-listener", daemon=True
        )
        self._accept_thread.start()

    @property
    def addr_str(self) -> str:
        return protocol.format_addr(self._host, self._port)

    def register(self, req_id: str, needed: int) -> _PendingFetch:
        pf = _PendingFetch(req_id=req_id, needed=needed)
        with self._lock:
            self._pending[req_id] = pf
        return pf

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return  # listener closed
            th = threading.Thread(target=self._drain, args=(conn,), daemon=True)
            th.start()
            self._threads.append(th)

    def _drain(self, conn: socket.socket) -> None:
        decoder = FrameDecoder(self.p)
        try:
            with conn:
                conn.settimeout(10.0)
                while True:
                    data = conn.recv(65536)
                    if not data:
                        return
                    for msg in decoder.feed(data):
                        self._route(msg)
        except (OSError, SsdbError) as exc:
            if not self._stopping:
                log.warning("listener: dropped a delivery connection: %s", exc)

    def _route(self, msg) -> None:
        if not isinstance(msg, DeliverShares):
            log.warning("listener: ignoring unexpected %s push", msg.type)
            return
        with self._lock:
            pf = self._pending.get(msg.req_id)
        if pf is None:
            log.warning("listener: push for unknown req_id %r", msg.req_id)
            return
        with self._lock:
            if pf.done.is_set():
                return
            previous = pf.pushes.get(msg.server_x)
            if previous is not None:
                # a resend must agree with itself, otherwise someone is lying
                if previous != msg:
                    pf.fail(
                        SsdbError(
                            protocol.DATA_CORRUPTION,
                            f"server x={msg.server_x} delivered conflicting shares",
                        )
                    )
                return
            pf.pushes[msg.server_x] = msg
            if len(pf.pushes) >= pf.needed:
                pf.done.set()

    def wait(self, pf: _PendingFetch, deadline: float) -> dict[int, DeliverShares]:
        remaining = deadline - time.monotonic()
        if not pf.done.wait(timeout=max(0.0, remaining)):
            raise SsdbError(
                protocol.QUERY_TIMEOUT,
                f"got {len(pf.pushes)} of {pf.needed} share deliveries for {pf.req_id!r}",
            )
        if pf.error is not None:
            raise pf.error
        return dict(pf.pushes)

    def close(self) -> None:
        self._stopping = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)  # wake the blocked accept()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass
        for th in self._threads:
            th.join(timeout=2.0)


# --- reconstruction helpers -------------------------------------------------


def _reconstruct_matrix(
    p: int,
    tagged: list[tuple[int, bytes]],
    counts: tuple[int, ...],
    table: str,
    attr: str,
) -> list[list[int]]:
    """Combine t packed share runs into one plain column.

    `tagged` holds (x_coord, packed shares) per server, all laid out by
    the same `counts`, one per cell (the caller has checked that they
    agree). Returns each cell's plain elements, in order.
    """
    try:
        weights = lagrange_weights([x for x, _ in tagged], p)
    except ValueError as exc:
        raise SsdbError(protocol.DATA_CORRUPTION, f"{table!r}.{attr!r}: {exc}") from exc
    flats = [protocol.unpack_shares(packed, p) for _, packed in tagged]
    plain = [sum(map(operator.mul, weights, ys)) % p for ys in zip(*flats)]
    return split_counts(plain, counts)


def _decode_column(
    attr_type: AttrType, vectors: list[list[int]], table: str, attr: str
) -> list[Value]:
    values = []
    for vec in vectors:
        try:
            values.append(decode_value(attr_type, vec))
        except ValueError as exc:
            raise SsdbError(
                protocol.DATA_CORRUPTION, f"{table!r}.{attr!r} failed to decode: {exc}"
            ) from exc
    return values


# --- the query pipeline -----------------------------------------------------


def execute_query(
    query: Union[str, Query],
    hub: HubClient,
    config: ClusterConfig,
    *,
    listen_host: str = "127.0.0.1",
    listen_port: int = 0,
    timeout: float = 10.0,
) -> ResultSet:
    """Run one SELECT against the cluster and return plaintext rows.

    Reconstruction and predicate evaluation happen entirely in this
    process; servers only ever see share values and row indices.
    """
    if isinstance(query, str):
        query = parse_query(query)
    deadline = time.monotonic() + timeout

    schema = hub.get_schema(query.table).schema
    if tuple(query.select_attrs) == ("*",):
        select_attrs = list(schema.attr_names())
    else:
        select_attrs = list(query.select_attrs)
        for name in select_attrs:
            if not schema.has_attr(name):
                raise SsdbError(
                    protocol.NO_SUCH_ATTR, f"{query.table!r} has no attribute {name!r}"
                )

    predicate = query.predicate
    if predicate is not None:
        if not schema.has_attr(predicate.attr):
            raise SsdbError(
                protocol.NO_SUCH_ATTR, f"{query.table!r} has no attribute {predicate.attr!r}"
            )
        cond_attr = predicate.attr
    else:
        cond_attr = select_attrs[0]
    cond_type = schema.attr_type(cond_attr)
    if predicate is not None:
        if cond_type is AttrType.INTEGER and not isinstance(predicate.literal, int):
            raise ValueError(f"{cond_attr!r} is INTEGER but the literal is a string")
        if cond_type is AttrType.TEXT and not isinstance(predicate.literal, str):
            raise ValueError(f"{cond_attr!r} is TEXT but the literal is an integer")

    listener = ResultListener(listen_host, listen_port, p=config.p)
    try:
        base = protocol.new_req_id()

        def fetch(k: int, attr: str, indices: Optional[list[int]]) -> _PendingFetch:
            req_id = f"{base}:{k}"
            pf = listener.register(req_id, config.t)
            hub.fetch_to_client(query.table, attr, indices, listener.addr_str, req_id)
            return pf

        # (a)+(b): t servers push every row of the condition column,
        # reconstructed locally
        pushes = listener.wait(fetch(0, cond_attr, None), deadline)
        by_index = _assemble_pushes(config, schema, query.table, cond_attr, None, pushes)

        # (c): plaintext predicate evaluation
        matched = evaluate_predicate(list(by_index.items()), predicate, cond_type)

        # (d)+(e): servers push the selected cells straight to our listener
        values_by_attr: dict[str, dict[int, Value]] = {}
        if cond_attr in select_attrs:
            values_by_attr[cond_attr] = {i: by_index[i] for i in matched}
        fetch_attrs = [a for a in dict.fromkeys(select_attrs) if a != cond_attr]
        pending = [(attr, fetch(k, attr, matched)) for k, attr in enumerate(fetch_attrs, 1)]
        for attr, pf in pending:
            pushes = listener.wait(pf, deadline)
            values_by_attr[attr] = _assemble_pushes(
                config, schema, query.table, attr, matched, pushes
            )
    finally:
        listener.close()

    rows = [[values_by_attr[a][i] for a in select_attrs] for i in matched]
    return ResultSet(columns=select_attrs, indices=matched, rows=rows)


def _assemble_pushes(
    config: ClusterConfig,
    schema: TableSchema,
    table: str,
    attr: str,
    matched: Optional[list[int]],
    pushes: dict[int, DeliverShares],
) -> dict[int, Value]:
    """Reconstruct one attribute from t delivery pushes, keyed by row index.

    Every push must come from a configured x-coordinate and hold exactly
    the requested rows, in order, with the same element count per cell;
    an every-row fetch (matched None) must hold rows 1..n.
    """
    stray = sorted(set(pushes) - {s.x_coord for s in config.servers})
    if stray:
        raise SsdbError(
            protocol.DATA_CORRUPTION,
            f"{table!r}.{attr!r}: pushes from x={stray}, which no configured server has",
        )
    first = pushes[min(pushes)].rows
    if matched is None:
        matched = list(range(1, len(first.indices) + 1))
    expected = tuple(matched)
    for x in sorted(pushes):
        rows = pushes[x].rows
        if rows.indices != expected:
            raise SsdbError(
                protocol.DATA_CORRUPTION,
                f"server x={x} delivered indices {list(rows.indices)}, expected {matched}",
            )
        if rows.counts != first.counts:
            raise SsdbError(
                protocol.DATA_CORRUPTION,
                f"{table!r}.{attr!r}: share vectors disagree on element count",
            )
    tagged = [(x, pushes[x].rows.packed) for x in sorted(pushes)]
    plain = _reconstruct_matrix(config.p, tagged, first.counts, table, attr) if matched else []
    values = _decode_column(schema.attr_type(attr), plain, table, attr)
    return dict(zip(matched, values))
