"""Client side: the dealer's insert path and the query pipeline.

All secret-bearing computation happens here. Inserts encode each value,
split every field element into n shares, and send each server only its
own cut, directly. Queries fetch shares from t servers directly, one
request and one reply per server: every row of the condition column
first, which the client reconstructs to evaluate the predicate on
plaintext, then the matching cells of each other selected attribute.
The hub only answers schema reads.
"""

from __future__ import annotations

import logging
import operator
import time
from dataclasses import dataclass
from typing import Optional, Union

from . import protocol
from .encoding import AttrType, TableSchema, decode_value, encode_value
from .hub import ClusterConfig, ServerInfo
from .protocol import (
    CreateTable,
    DeliverShares,
    FetchToClient,
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
        """Send build(server) to every server, then read every acknowledgement.

        All n must acknowledge. A server that fails does not stop the
        others, so a failed write leaves the row on whichever servers took
        it (there is no rollback message). The error names every server
        that failed and carries the code of the first in configured order
        (THRESHOLD_UNAVAILABLE for one that could not be reached).
        """
        req_id = protocol.new_req_id()
        sent: list[tuple[ServerInfo, protocol.Exchange]] = []
        failed: dict[ServerInfo, Exception] = {}
        for info in self.config.servers:
            msg = build(info)
            msg.req_id = req_id
            try:
                exchange = protocol.Exchange(
                    protocol.parse_addr(info.address), msg, p=self.config.p
                )
            except (OSError, SsdbError) as exc:
                failed[info] = exc
                continue
            sent.append((info, exchange))
        for info, exchange in sent:
            try:
                exchange.reply()
            except (OSError, SsdbError) as exc:
                failed[info] = exc
        if not failed:
            return
        errors = [(info, failed[info]) for info in self.config.servers if info in failed]
        first = errors[0][1]
        raise SsdbError(
            first.code if isinstance(first, SsdbError) else protocol.THRESHOLD_UNAVAILABLE,
            "write failed at " + "; ".join(
                f"server {info.server_id} ({info.address}): "
                f"{exc.detail if isinstance(exc, SsdbError) else exc}"
                for info, exc in errors
            ),
        ) from first

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


# --- fetching shares --------------------------------------------------------


class ResultListener:
    """One fetch: FETCH_TO_CLIENT to t servers, one DELIVER_SHARES back from each.

    Construction sends the request, on pooled connections, to the first t
    servers in configured order that take it, so several fetches can be
    in flight before any is waited on. `wait` reads one reply per server;
    a server that fails before it replies is replaced by the next server
    not yet tried. (It listens on nothing; the name is kept for the
    benchmark, which wraps `ResultListener.wait`.)
    """

    def __init__(self, config: ClusterConfig, msg: FetchToClient, deadline: float):
        self.config = config
        self.msg = msg
        self.deadline = deadline
        self._untried = iter(config.servers)
        self._asked: list[tuple[ServerInfo, protocol.Exchange]] = []
        while len(self._asked) < config.t and self._ask_next():
            pass

    def _timed_out(self) -> SsdbError:
        return SsdbError(
            protocol.QUERY_TIMEOUT,
            f"no {self.config.t} deliveries of {self.msg.attr!r} for {self.msg.req_id!r} in time",
        )

    def _ask_next(self) -> bool:
        """Send the request to the next untried server that takes it; False if none is left."""
        for info in self._untried:
            try:
                exchange = protocol.Exchange(
                    protocol.parse_addr(info.address), self.msg, p=self.config.p
                )
            except OSError as exc:
                log.info("fetch: server %s unreachable: %s", info.server_id, exc)
                continue
            self._asked.append((info, exchange))
            return True
        return False

    def wait(self) -> dict[int, ShareRows]:
        """The rows t servers delivered, keyed by each server's x-coordinate.

        An ERROR reply propagates at once; fewer than t answering servers
        is THRESHOLD_UNAVAILABLE and the deadline passing QUERY_TIMEOUT.
        """
        delivered: dict[int, ShareRows] = {}
        try:
            while len(delivered) < self.config.t:
                if not self._asked:
                    raise SsdbError(
                        protocol.THRESHOLD_UNAVAILABLE,
                        f"only {len(delivered)} of {self.config.n} servers delivered "
                        f"{self.msg.attr!r}, need {self.config.t}",
                    )
                remaining = self.deadline - time.monotonic()
                if remaining <= 0:
                    raise self._timed_out()
                info, exchange = self._asked.pop(0)
                try:
                    reply = exchange.reply(remaining)
                except TimeoutError as exc:
                    raise self._timed_out() from exc
                except OSError as exc:
                    log.info("fetch: server %s failed before replying: %s", info.server_id, exc)
                    self._ask_next()
                    continue
                if not isinstance(reply, DeliverShares):
                    raise SsdbError(protocol.INTERNAL, f"unexpected reply {reply.type}")
                if reply.server_x != info.x_coord:
                    raise SsdbError(
                        protocol.DATA_CORRUPTION,
                        f"server {info.server_id} (x={info.x_coord}) delivered shares "
                        f"as x={reply.server_x}",
                    )
                delivered[info.x_coord] = reply.rows
        finally:
            self.close()
        return delivered

    def close(self) -> None:
        """Drop every fetch not yet answered; their connections are closed."""
        for _, exchange in self._asked:
            exchange.close()
        self._asked.clear()


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

    base = protocol.new_req_id()
    listeners: list[ResultListener] = []

    def fetch(k: int, attr: str, indices: Optional[list[int]]) -> ResultListener:
        msg = FetchToClient(req_id=f"{base}:{k}", table=query.table, attr=attr, indices=indices)
        listeners.append(ResultListener(config, msg, deadline))
        return listeners[-1]

    try:
        # (a)+(b): t servers deliver every row of the condition column,
        # reconstructed locally
        delivered = fetch(0, cond_attr, None).wait()
        by_index = _assemble(config, schema, query.table, cond_attr, None, delivered)

        # (c): plaintext predicate evaluation
        matched = evaluate_predicate(list(by_index.items()), predicate, cond_type)

        # (d)+(e): every other selected attribute at the matched rows, all
        # fetches sent before any is waited on
        values_by_attr: dict[str, dict[int, Value]] = {}
        if cond_attr in select_attrs:
            values_by_attr[cond_attr] = {i: by_index[i] for i in matched}
        fetch_attrs = [a for a in dict.fromkeys(select_attrs) if a != cond_attr]
        pending = [(attr, fetch(k, attr, matched)) for k, attr in enumerate(fetch_attrs, 1)]
        for attr, listener in pending:
            values_by_attr[attr] = _assemble(
                config, schema, query.table, attr, matched, listener.wait()
            )
    finally:
        for listener in listeners:
            listener.close()

    rows = [[values_by_attr[a][i] for a in select_attrs] for i in matched]
    return ResultSet(columns=select_attrs, indices=matched, rows=rows)


def _assemble(
    config: ClusterConfig,
    schema: TableSchema,
    table: str,
    attr: str,
    matched: Optional[list[int]],
    delivered: dict[int, ShareRows],
) -> dict[int, Value]:
    """Reconstruct one attribute from t servers' deliveries, keyed by row index.

    `delivered` maps each server's x-coordinate to its rows. Every
    delivery must hold exactly the requested rows, in order, with the
    same element count per cell; an every-row fetch (matched None) must
    hold rows 1..n.
    """
    first = delivered[min(delivered)]
    if matched is None:
        matched = list(range(1, len(first.indices) + 1))
    expected = tuple(matched)
    for x in sorted(delivered):
        rows = delivered[x]
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
    tagged = [(x, delivered[x].packed) for x in sorted(delivered)]
    plain = _reconstruct_matrix(config.p, tagged, first.counts, table, attr) if matched else []
    values = _decode_column(schema.attr_type(attr), plain, table, attr)
    return dict(zip(matched, values))
