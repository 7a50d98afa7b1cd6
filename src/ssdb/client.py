"""Client side: the dealer's insert path and the query pipeline.

All secret-bearing computation happens here. Inserts encode each value,
split every field element into n shares, and send each server only its
own cut, directly. A query is two fetches, each one request and one
reply per server from t servers: every row of the condition column
first, which the client reconstructs to evaluate the predicate on
plaintext, then the matching rows of every other selected attribute.
Writes and fetches go through `hub.ResultListener`, the fan-out the
hub's schema reads use too, and so follow one failure rule. The hub
answers a client's first schema read per table.

A delivery is reconstructed and decoded a column at a time, not an
element at a time: `_reconstruct_matrix` combines whole packed share
runs as big ints, and `encoding.decode_cells` decodes each attribute
from its one slice of the plain bytes that gives.
"""

from __future__ import annotations

import logging
import operator
import time
from dataclasses import dataclass
from typing import Optional, Union

from . import protocol
from .encoding import AttrType, TableSchema, decode_cells, encode_value
from .hub import ClusterConfig, ResultListener
from .protocol import (
    CreateTable,
    DeliverShares,
    FetchToClient,
    GetSchema,
    InsertShares,
    SchemaResult,
    ShareRows,
    SsdbError,
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
        elif "0" <= ch <= "9":  # ASCII only: str.isdigit also takes '²' and '٣'
            start = i
            while i < n and "0" <= text[i] <= "9":
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
        # raises on a lone surrogate; no decoded value can hold one, and
        # str order is code-point order, which is UTF-8 byte order
        literal.encode("utf-8")
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
    """Thin request/reply wrapper around one hub address.

    Keeps each table's schema after its first successful read. A stored
    schema never changes: servers refuse another under the same name, and
    nothing drops or alters a table. `get_schema`'s row count is not kept.
    """

    def __init__(self, address: str, *, p: int):
        self.address = address
        self.p = p
        self._schemas: dict[str, TableSchema] = {}

    def _call(self, msg, expect):
        try:
            # twice the hub's deadline for its server read, so that the
            # hub's error, which names the failed servers, comes first
            reply = protocol.request(
                protocol.parse_addr(self.address),
                msg,
                p=self.p,
                response_timeout=2 * protocol.RESPONSE_TIMEOUT,
            )
        except OSError as exc:
            raise SsdbError(
                protocol.THRESHOLD_UNAVAILABLE, f"hub {self.address} unreachable: {exc}"
            ) from exc
        if not isinstance(reply, expect):
            raise SsdbError(protocol.INTERNAL, f"unexpected reply {reply.type} from hub")
        return reply

    def get_schema(self, table: str) -> SchemaResult:
        """The table's schema and stored row count, read through the hub."""
        return self._call(GetSchema(req_id=protocol.new_req_id(), table=table), SchemaResult)

    def schema(self, table: str) -> TableSchema:
        """The table's schema, read through the hub only the first time."""
        schema = self._schemas.get(table)
        if schema is None:
            schema = self._schemas[table] = self.get_schema(table).schema
        return schema


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
        """Send build(server) to every server; all n must acknowledge.

        A server that fails does not stop the others, so a failed write
        leaves the row on whichever servers took it (there is no rollback
        message).
        """
        deadline = time.monotonic() + protocol.RESPONSE_TIMEOUT
        ResultListener(self.config, build, self.config.n, deadline).wait()

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


# --- reconstruction helpers -------------------------------------------------


def _reconstruct_matrix(
    p: int,
    tagged: list[tuple[int, bytes]],
    table: str,
    attrs: list[str],
) -> bytes:
    """Combine t packed share runs into plain elements, all at once.

    `tagged` holds (x_coord, packed shares) per server, all laid out alike
    (the caller has checked that their counts agree). Each run is read as
    one big int of w-byte elements and cut into m phases, each element in
    a zero-padded slot of m*w bytes wide enough for t * (p-1)^2. Then
    sum(weight_j * Y_j) is t multiply-adds, and every slot is reduced mod
    p = 2^k - 1 at once by Mersenne folding (SWAR: Fisher & Dietz, LCPC
    1998). Returns the plain elements, packed as the shares were.
    """
    try:
        weights = lagrange_weights([x for x, _ in tagged], p)
    except ValueError as exc:
        raise SsdbError(protocol.DATA_CORRUPTION, f"{table!r} {attrs}: {exc}") from exc
    w, k = protocol.share_width(p), p.bit_length()
    size = len(tagged[0][1]) // w
    m = -(-(2 * k + len(tagged).bit_length()) // (8 * w))  # elements per slot
    slots = -(-size // m)

    def repeat(value: int) -> int:  # value in every slot
        return int.from_bytes(value.to_bytes(m * w, "big") * slots, "big")

    element, low, ones = repeat((1 << (8 * w)) - 1), repeat(p), repeat(1)
    high = repeat((1 << (8 * m * w - k)) - 1)
    runs = [int.from_bytes(packed, "big") for _, packed in tagged]
    plain = 0
    for phase in range(0, 8 * m * w, 8 * w):
        v = sum(weight * ((run >> phase) & element) for weight, run in zip(weights, runs))
        for _ in range(2):  # each slot below (t+1) * 2^k, then below p + t
            v = (v & low) + ((v >> k) & high)
        v = (v + (((v + ones) >> k) & ones)) & low  # p + t < 2p: subtract p once if due
        plain |= v << phase
    return plain.to_bytes(size * w, "big")


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

    schema = hub.schema(query.table)
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

    # (a)+(b): t servers deliver every row of the condition column,
    # reconstructed locally
    values = _fetch(config, schema, FetchToClient(table=query.table, attrs=[cond_attr]), deadline)

    # (c): plaintext predicate evaluation
    matched = evaluate_predicate(
        list(values[cond_attr].items()), predicate, schema.attr_type(cond_attr)
    )

    # (d)+(e): every other selected attribute at the matched rows, in one fetch
    others = [a for a in dict.fromkeys(select_attrs) if a != cond_attr]
    if others:
        msg = FetchToClient(table=query.table, attrs=others, indices=matched)
        values.update(_fetch(config, schema, msg, deadline))

    rows = [[values[a][i] for a in select_attrs] for i in matched]
    return ResultSet(columns=select_attrs, indices=matched, rows=rows)


def _fetch(
    config: ClusterConfig, schema: TableSchema, msg: FetchToClient, deadline: float
) -> dict[str, dict[int, Value]]:
    """Send `msg` to t servers and reconstruct each attribute it names, keyed by row index.

    Every delivery must come from the server's own x-coordinate and hold
    exactly the requested rows, in order, with the same element count
    per cell; an every-row fetch (indices None) must hold rows 1..n.
    """
    delivered: dict[int, ShareRows] = {}
    for info, reply in ResultListener(config, lambda info: msg, config.t, deadline).wait():
        if not isinstance(reply, DeliverShares):
            raise SsdbError(protocol.INTERNAL, f"unexpected reply {reply.type}")
        if reply.server_x != info.x_coord or reply.attrs != msg.attrs:
            raise SsdbError(
                protocol.DATA_CORRUPTION,
                f"server {info.server_id} (x={info.x_coord}) delivered {reply.attrs} "
                f"as x={reply.server_x}, asked for {msg.attrs}",
            )
        delivered[info.x_coord] = reply.rows

    first = delivered[min(delivered)]
    matched = msg.indices
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
                f"{msg.table!r} {msg.attrs}: share vectors disagree on element count",
            )
    tagged = [(x, delivered[x].packed) for x in sorted(delivered)]
    plain = _reconstruct_matrix(config.p, tagged, msg.table, msg.attrs)
    # attribute by attribute: each one's counts, and its elements, are one run
    rows, w = len(matched), protocol.share_width(config.p)
    values, start = {}, 0
    for k, attr in enumerate(msg.attrs):
        counts = first.counts[k * rows : (k + 1) * rows]
        end = start + w * sum(counts)
        try:
            decoded = decode_cells(schema.attr_type(attr), plain[start:end], counts, w)
        except ValueError as exc:
            raise SsdbError(
                protocol.DATA_CORRUPTION, f"{msg.table!r}.{attr!r} failed to decode: {exc}"
            ) from exc
        values[attr] = dict(zip(matched, decoded))
        start = end
    return values
