"""Client side: the dealer's insert path and the query pipeline.

All secret-bearing computation happens here. Inserts encode each value,
split every field element into n shares, and send each server only its
own cut, directly. A query is at most two fetches from t servers: every
row of the condition column, which the client reconstructs to evaluate
the predicate on plaintext, and, if any row matched, the matching rows
of every other selected attribute. The dealer's reads and writes, and
the client's fetches, go through `hub.ResultListener`, the fan-out the
hub's schema reads use too, and so follow one failure rule. The hub
answers only a query client's first schema read per table.

A `HubClient` keeps each condition column it has read, and later asks
only for the rows after the ones it holds, with each server's digest of
those (see `execute_query`). Stored rows never change, so the kept rows
are used only while every server that delivered them still holds the
bytes it sent; otherwise the round runs again with nothing kept. A cold
query is a warm one with no rows kept: the predicate is tested on the
kept rows first, so each server gets, in one write, the condition fetch
and the fetch of the kept rows that match, if any do. Only matching rows
after the kept ones cost one more round. No fetch asks for zero rows.

A delivery is reconstructed and decoded a column at a time, not an
element at a time: `_reconstruct_matrix` combines the packed share runs
as big ints, in chunks of about 2,048 elements, and
`encoding.decode_cells` decodes each attribute from its one slice of
the plain bytes that gives.
"""

from __future__ import annotations

import operator
import re
import struct
import sys
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import compress, count, repeat
from typing import Optional, Sequence, Union

from . import protocol
from .encoding import IDENT_PATTERN, AttrType, TableSchema, decode_cells, encode_value
from .field import MERSENNE_61, SHARE_BYTES
from .hub import ClusterConfig, ResultListener
from .protocol import (
    Ack,
    CreateTable,
    DeliverShares,
    FetchToClient,
    GetSchema,
    InsertShares,
    RowsDigest,
    SchemaResult,
    ShareRows,
    SsdbError,
)
from .shamir import lagrange_weights, split

Value = Union[int, str]


# --- query language ---------------------------------------------------------

_OPS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


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


# one token and the whitespace after it; the group that matched is its
# kind. Digits are ASCII only: str.isdigit and \d also take '²' and '٣'
_TOKEN = re.compile(
    rf"(?:(?P<name>{IDENT_PATTERN})|(?P<int>[0-9]+)|(?P<text>'[^']*(?:''[^']*)*')"
    r"|(?P<op>[!<>]=|[=<>])|(?P<star>\*)|(?P<comma>,)|(?P<end>\Z))\s*"
)


def _tokens(text: str):
    """Yield (kind, token text, offset) for each token of `text`, scanned on demand.

    A name that spells SELECT, FROM or WHERE in any letter case has that
    keyword as its kind. After the last token, ("end", "", len(text))
    repeats.
    """
    pos = len(text) - len(text.lstrip())
    while True:
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos] == "'":
                raise QuerySyntaxError("unterminated string literal", pos)
            raise QuerySyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind, word = m.lastgroup, m[m.lastgroup]
        if kind == "name" and word.upper() in ("SELECT", "FROM", "WHERE"):
            kind = word.upper()
        yield kind, word, pos
        pos = m.end()


def _name(kind: str, word: str, pos: int, what: str) -> str:
    if kind != "name":
        raise QuerySyntaxError(f"expected {what}, got {word or 'end of input'!r}", pos)
    return word


def parse_query(text: str) -> Query:
    """Parse ``SELECT a, b FROM t [WHERE attr OP literal]``.

    Keywords are case-insensitive; attribute and table names keep their
    case and follow the schema's rule, `encoding.IDENT_PATTERN`. String
    literals use single quotes with '' as the escape.
    """
    tokens = _tokens(text)
    kind, word, pos = next(tokens)
    if kind != "SELECT":
        raise QuerySyntaxError("query must start with SELECT", pos)

    kind, word, pos = next(tokens)
    if kind == "star":
        select = ("*",)
        kind, word, pos = next(tokens)
    else:
        attrs = [_name(kind, word, pos, "attribute name")]
        kind, word, pos = next(tokens)
        while kind == "comma":
            attrs.append(_name(*next(tokens), "attribute name"))
            kind, word, pos = next(tokens)
        select = tuple(attrs)

    if kind != "FROM":
        raise QuerySyntaxError("expected FROM", pos)
    table = _name(*next(tokens), "table name")

    predicate = None
    kind, word, pos = next(tokens)
    if kind == "WHERE":
        attr = _name(*next(tokens), "attribute name")
        kind, op, pos = next(tokens)
        if kind != "op":
            raise QuerySyntaxError(f"expected comparison operator, got {op!r}", pos)
        kind, word, pos = next(tokens)
        if kind == "int":
            try:
                literal = int(word)
            except ValueError:  # past Python's int/str digit limit
                raise QuerySyntaxError(f"integer literal of {len(word)} digits", pos) from None
        elif kind == "text":
            literal = word[1:-1].replace("''", "'")
        else:
            raise QuerySyntaxError("expected an integer or 'string' literal", pos)
        predicate = Predicate(attr, op, literal)
        kind, word, pos = next(tokens)

    if kind != "end":
        raise QuerySyntaxError(f"unexpected trailing input {word!r}", pos)
    return Query(select_attrs=select, table=table, predicate=predicate)


def evaluate_predicate(
    values: Sequence[Value],
    predicate: Optional[Predicate],
    attr_type: Optional[AttrType],
    first: int = 1,
) -> list[int]:
    """Return the row indices (ascending) whose value satisfies the test.

    `values` holds rows `first`, `first` + 1, ... in order. Text
    compares as UTF-8 bytes, so ordering is byte-lexicographic and
    case-sensitive. No predicate keeps every row. No Python code runs
    per row: `map` applies the comparison, `compress` picks the indices.
    """
    if predicate is None:
        return list(range(first, first + len(values)))
    _check_literal(predicate, attr_type)
    tests = map(_OPS[predicate.op], values, repeat(predicate.literal))
    return list(compress(count(first), tests))


def _check_literal(predicate: Predicate, attr_type: Optional[AttrType]) -> None:
    """Raise ValueError unless the literal has its attribute's type and encodes as UTF-8."""
    literal = predicate.literal
    if attr_type is AttrType.INTEGER and not isinstance(literal, int):
        raise ValueError(f"attribute {predicate.attr!r} is INTEGER, literal is not")
    if attr_type is AttrType.TEXT and not isinstance(literal, str):
        raise ValueError(f"attribute {predicate.attr!r} is TEXT, literal is not")
    if isinstance(literal, str):
        # raises on a lone surrogate; no decoded value can hold one, and
        # str order is code-point order, which is UTF-8 byte order
        literal.encode("utf-8")


# --- results ----------------------------------------------------------------


@dataclass
class ResultSet:
    columns: list[str]
    indices: list[int]  # ascending row indices, aligned with rows
    rows: list[list[Value]]

    def to_json_rows(self) -> list[dict]:
        return [dict(zip(self.columns, row)) for row in self.rows]


# --- hub access -------------------------------------------------------------

# bytes of the decoded values of all the condition columns a HubClient keeps
MAX_KEPT_BYTES = 4 * protocol.MAX_FRAME_BYTES
_SLOT_BYTES = struct.calcsize("P")  # one list slot, the pointer to a value


@dataclass
class _Column:
    """Rows 1..k of one condition column as read: decoded, and what each server sent.

    `digests` maps each delivering server's x-coordinate to the running
    hash of the bytes this client received from it; a digest a server
    reports is never recorded. `nbytes` is the memory the values take:
    each one's `sys.getsizeof` and its list slot.
    """

    values: list = field(default_factory=list)
    digests: dict[int, RowsDigest] = field(default_factory=dict)
    nbytes: int = 0

    def holds(self, delivered: dict[int, DeliverShares]) -> bool:
        """Nothing is kept, or the same servers delivered, each with the digest of what it sent."""
        return not self.digests or delivered.keys() == self.digests.keys() and all(
            reply.digest == self.digests[x].hexdigest() for x, reply in delivered.items()
        )

    def extend(self, delivered: dict[int, DeliverShares], values: list) -> None:
        """Append the rows that `delivered` brought, `values` decoded, in place."""
        if not values:
            return
        for x, reply in delivered.items():
            self.digests.setdefault(x, RowsDigest()).add(reply.rows.counts, reply.rows.packed)
        self.nbytes += sum(map(sys.getsizeof, values)) + _SLOT_BYTES * len(values)
        self.values += values


class _KeptColumns:
    """The condition columns a HubClient keeps, least recently used evicted first."""

    def __init__(self):
        self._columns: OrderedDict[tuple[str, str], _Column] = OrderedDict()
        self._lock = threading.Lock()
        self.nbytes = 0

    def take(self, key: tuple[str, str]) -> Optional[_Column]:
        """Remove and return the column kept under key, if any."""
        with self._lock:
            column = self._columns.pop(key, None)
            if column is not None:
                self.nbytes -= column.nbytes
            return column

    def keep(self, key: tuple[str, str], column: _Column) -> None:
        if not column.values or column.nbytes > MAX_KEPT_BYTES:
            return
        with self._lock:
            old = self._columns.pop(key, None)
            self.nbytes += column.nbytes - (old.nbytes if old else 0)
            self._columns[key] = column
            while self.nbytes > MAX_KEPT_BYTES:
                self.nbytes -= self._columns.popitem(last=False)[1].nbytes


class HubClient:
    """Thin request/reply wrapper around one hub address.

    Keeps each table's schema after its first successful read. A stored
    schema never changes: servers refuse another under the same name, and
    nothing drops or alters a table. `get_schema`'s row count is not kept.
    `columns` keeps the condition columns its queries have read. `p`, if
    given, must be the one modulus, 2^61 - 1.
    """

    def __init__(self, address: str, *, p: int = MERSENNE_61):
        if p != MERSENNE_61:
            raise ValueError(f"modulus {p} is not 2^61 - 1, the one ssdb uses")
        self.address = address
        self._schemas: dict[str, TableSchema] = {}
        self.columns = _KeptColumns()

    def get_schema(self, table: str, deadline: Optional[float] = None) -> SchemaResult:
        """The table's schema and stored row count, read through the hub by `deadline`.

        The wait ends by then, or after twice the hub's for its server read,
        so that the hub's error, which names the failed servers, comes first.
        """
        end = time.monotonic() + 2 * protocol.RESPONSE_TIMEOUT
        end = end if deadline is None else min(end, deadline)
        try:
            reply = protocol.request(
                protocol.parse_addr(self.address),
                GetSchema(req_id=protocol.new_req_id(), table=table),
                response_timeout=end - time.monotonic(),
            )
        except OSError as exc:
            if isinstance(exc, TimeoutError) and time.monotonic() >= end:
                raise SsdbError(
                    protocol.QUERY_TIMEOUT, f"hub {self.address}: no reply in time"
                ) from exc
            raise SsdbError(
                protocol.THRESHOLD_UNAVAILABLE, f"hub {self.address} unreachable: {exc}"
            ) from exc
        if not isinstance(reply, SchemaResult):
            raise SsdbError(protocol.INTERNAL, f"unexpected reply {reply.type} from hub")
        return reply

    def schema(self, table: str, deadline: Optional[float] = None) -> TableSchema:
        """The table's schema, read through the hub only the first time, by `deadline`."""
        schema = self._schemas.get(table)
        if schema is None:
            schema = self._schemas[table] = self.get_schema(table, deadline).schema
        return schema


# --- dealer (insert path) ---------------------------------------------------


class Dealer:
    """Splits plaintext rows into shares and writes each server its own cut.

    The dealer is the only party that ever sees a whole row; nothing it
    sends over the wire contains a plaintext encoding once t >= 2, and
    each server receives only the shares at its own x-coordinate. It
    reads a table's row count from the n servers it writes to, so it
    never needs the hub. `hub` is not used: the parameter is kept for
    callers that pass one.
    """

    def __init__(self, hub: object, config: ClusterConfig, rng=None):
        self.config = config
        self.rng = rng
        self.xs = [s.x_coord for s in config.servers]
        self._next_index: dict[str, int] = {}

    def _ask_all(self, build, expect: type) -> list:
        """Send the messages build(server) gives to every server; all n must answer `expect`s.

        Returns the replies, one per server in configured order. A server
        that fails does not stop the others, so a failed write leaves the
        row on whichever servers took it (there is no rollback message).
        """
        deadline = time.monotonic() + protocol.RESPONSE_TIMEOUT
        replies = ResultListener(self.config, build, self.config.n, deadline).wait()
        for info, [reply] in replies:
            if not isinstance(reply, expect):
                raise SsdbError(protocol.INTERNAL, f"server {info.server_id} replied {reply.type}")
        return [reply for _, [reply] in replies]

    def create_table(self, schema: TableSchema) -> None:
        # no index-cache seeding: create is idempotent, the table may
        # already hold rows
        msg = CreateTable(schema=schema)
        self._ask_all(lambda info: [msg], Ack)

    def read_table(self, table: str) -> SchemaResult:
        """The table's schema and row count, which all n servers must report alike.

        Seeds the index of the next row written to the table. Servers
        that disagree, as after a write that only some of them took, get
        no row until they agree again.
        """
        msg = GetSchema(table=table)
        reads = self._ask_all(lambda info: [msg], SchemaResult)
        if len({(read.schema, read.rows) for read in reads}) > 1:
            held = ", ".join(f"{s.server_id}={r.rows}" for s, r in zip(self.config.servers, reads))
            raise SsdbError(protocol.SCHEMA_MISMATCH, f"servers disagree on {table!r}: rows {held}")
        self._next_index[table] = reads[0].rows + 1
        return reads[0]

    def insert_row(self, schema: TableSchema, values) -> int:
        """Split one row and write each server its shares; returns the row index."""
        values = list(values)
        if len(values) != len(schema.attributes):
            raise ValueError(
                f"{schema.table_name!r} has {len(schema.attributes)} attributes, "
                f"got {len(values)} values"
            )
        # plain elements mod p of each cell, in schema order, before splitting
        cells = [encode_value(attr.type, value) for attr, value in zip(schema.attributes, values)]

        table = schema.table_name
        index = self._next_index.get(table) or self.read_table(table).rows + 1

        t, p = self.config.t, self.config.p
        per_server: dict[str, list[list[int]]] = {s.server_id: [] for s in self.config.servers}
        for elements in cells:
            columns = [split(element, self.xs, t, p, self.rng) for element in elements]
            for k, info in enumerate(self.config.servers):
                vec = [ys[k] for ys in columns]
                # near-zero odds unless the rng is broken; checked before any write
                if t >= 2 and vec == elements:
                    raise SsdbError(
                        protocol.INTERNAL,
                        "refusing to send a share vector equal to the plaintext encoding",
                    )
                per_server[info.server_id].append(vec)

        attrs = schema.attr_names()
        bodies = {sid: ShareRows.pack((index,), vecs) for sid, vecs in per_server.items()}
        try:
            self._ask_all(
                lambda info: [InsertShares(table=table, attrs=attrs, cells=bodies[info.server_id])],
                Ack,
            )
        except SsdbError:
            self._next_index.pop(table, None)  # cache may be stale, rediscover
            raise
        self._next_index[table] = index + 1
        return index


# --- reconstruction helpers -------------------------------------------------


# elements per reconstruction chunk: within 4% of the fastest of 512,
# 1,024, 2,048 and 4,096 at every size from 10^3 to 2 * 10^5 elements
_CHUNK = 2048


def _reconstruct_matrix(tagged: list[tuple[int, bytes]]) -> bytes:
    """Combine t packed share runs into plain elements, a chunk at a time.

    `tagged` holds (x_coord, packed shares) per server, all laid out alike
    (the caller has checked that their counts agree); the x-coordinates
    are configured ones, which `ClusterConfig` has checked. The runs are walked
    in chunks of about `_CHUNK` elements, whole slots, so no temporary
    outgrows a chunk. Each chunk is read as one big int of 8-byte elements
    and cut into m phases, each element in a zero-padded slot of 8m bytes
    wide enough for t * (p-1)^2. Then sum(weight_j * Y_j) is t
    multiply-adds, and every slot is reduced mod p = 2^61 - 1 at once by
    Mersenne folding (SWAR: Fisher & Dietz, LCPC 1998). Returns the plain
    elements, packed as the shares were.
    """
    weights = lagrange_weights([x for x, _ in tagged], MERSENNE_61)
    w, k = SHARE_BYTES, MERSENNE_61.bit_length()
    total = len(tagged[0][1])
    m = -(-(2 * k + len(tagged).bit_length()) // (8 * w))  # elements per slot
    step = _CHUNK // m * m * w  # bytes per chunk
    out = []
    for start in range(0, total, step):
        length = min(step, total - start)
        if start == 0 or length < step:  # 1, element mask, p per slot; again for a short tail
            ones = int.from_bytes((1).to_bytes(m * w, "big") * -(-length // (m * w)), "big")
            element, low = (ones << 8 * w) - ones, (ones << k) - ones
        runs = [int.from_bytes(packed[start : start + step], "big") for _, packed in tagged]
        plain = 0
        for phase in range(0, 8 * m * w, 8 * w):
            v = sum(weight * ((run >> phase) & element) for weight, run in zip(weights, runs))
            for _ in range(2):  # each slot below (t+1) * 2^k, then below p + t
                lo = v & low
                v = lo + ((v ^ lo) >> k)  # v ^ lo has no low bits to shift into a neighbour
            v = (v + (((v + ones) >> k) & ones)) & low  # p + t < 2p: subtract p once if due
            plain |= v << phase
        out.append(plain.to_bytes(length, "big"))
    return b"".join(out)


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
    process; servers only ever see share values and row indices. One
    fetch round brings the condition column's rows after those `hub`
    keeps, and the other selected attributes at the kept rows that
    match; it runs again with nothing kept if a server's digest does not
    hold. A second fetch brings the other attributes at the new rows that
    match, if any do. Every delivery passes `_decode`'s checks.
    """
    if not 0 < timeout <= threading.TIMEOUT_MAX:  # NaN fails this too
        raise ValueError(f"timeout must be in (0, {threading.TIMEOUT_MAX:g}] s, got {timeout}")
    if isinstance(query, str):
        query = parse_query(query)
    deadline = time.monotonic() + timeout

    schema = hub.schema(query.table, deadline)
    predicate = query.predicate
    if tuple(query.select_attrs) == ("*",):
        select_attrs = list(schema.attr_names())
    else:
        select_attrs = list(query.select_attrs)
    cond_attr = select_attrs[0] if predicate is None else predicate.attr
    for name in [*select_attrs, cond_attr]:
        if not schema.has_attr(name):
            raise SsdbError(protocol.NO_SUCH_ATTR, f"{query.table!r} has no attribute {name!r}")
    if predicate is not None:  # before any fetch, and before the kept column is taken out
        _check_literal(predicate, schema.attr_type(cond_attr))
    others = [a for a in dict.fromkeys(select_attrs) if a != cond_attr]

    # (a)-(c): t servers deliver the condition column after the kept rows,
    # reconstructed and tested on plaintext locally; row i is at cond[i - 1].
    # The kept rows are tested first, so each server that delivered them
    # gets, in the same write, the fetch of `others` at those that match.
    # Both are used only if the same servers reply and each one's digest of
    # its rows 1..k equals the hash of what it sent this client: rows never
    # change in place, so a full read would give them again. Otherwise the
    # round runs again as a fresh client's, which keeps nothing
    key = (query.table, cond_attr)
    attr_type = schema.attr_type(cond_attr)
    for kept in (hub.columns.take(key) or _Column(), _Column()):  # kept again once it passes
        k = len(kept.values)
        matched = evaluate_predicate(kept.values, predicate, attr_type)
        fetches = [FetchToClient(table=query.table, attrs=[cond_attr], after=k or None)]
        if matched and others:
            fetches.append(FetchToClient(table=query.table, attrs=others, indices=matched))
        # only a server that delivered the kept rows can confirm them; another
        # may hold fewer rows than the indices name, and refuse the second fetch
        delivered = _deliveries(
            config, lambda info: fetches if info.x_coord in kept.digests else fetches[:1], deadline
        )
        if kept.holds(delivered[0]):
            break
    # a row reaches the servers one by one, so a read that overlaps an
    # insert may find it on only some of them: keep the rows all of them hold
    m = min(len(reply.rows.indices) for reply in delivered[0].values())
    for reply in delivered[0].values():
        indices, counts, packed = reply.rows.indices, reply.rows.counts, reply.rows.packed
        reply.rows = ShareRows(indices[:m], counts[:m], packed[: SHARE_BYTES * sum(counts[:m])])
    [values] = _decode(schema, fetches[0], delivered[0])
    new = evaluate_predicate(values, predicate, attr_type, k + 1)
    kept.extend(delivered[0], values)
    hub.columns.keep(key, kept)
    cond = kept.values  # a later query through `hub` may append to it: read only matched rows
    got = _decode(schema, fetches[1], delivered[1]) if len(fetches) > 1 else [[] for _ in others]

    # (d)+(e): every other selected attribute at the new matches, in one fetch
    if others and new:
        msg = FetchToClient(table=query.table, attrs=others, indices=new)
        [delivered] = _deliveries(config, lambda info: [msg], deadline)
        for column, more in zip(got, _decode(schema, msg, delivered)):
            column += more
    indices = matched + new
    columns = {cond_attr: [cond[i - 1] for i in indices]} if cond_attr in select_attrs else {}
    columns.update(zip(others, got))
    rows = list(map(list, zip(*[columns[a] for a in select_attrs])))
    return ResultSet(columns=select_attrs, indices=indices, rows=rows)


def _deliveries(config: ClusterConfig, build, deadline: float) -> list[dict[int, DeliverShares]]:
    """t servers' replies to the fetches build(server) gives each, by x-coordinate.

    Returns one dict per place in those lists, so a server given fewer
    fetches is missing from the later dicts. Each reply must come from
    the server's own x-coordinate and name the attributes its fetch asked
    for.
    """
    delivered: list[dict[int, DeliverShares]] = []
    for info, replies in ResultListener(config, build, config.t, deadline).wait():
        for k, (msg, reply) in enumerate(zip(build(info), replies)):
            if not isinstance(reply, DeliverShares):
                raise SsdbError(protocol.INTERNAL, f"unexpected reply {reply.type}")
            if reply.server_x != info.x_coord or reply.attrs != msg.attrs:
                raise SsdbError(
                    protocol.DATA_CORRUPTION,
                    f"server {info.server_id} (x={info.x_coord}) delivered {reply.attrs} "
                    f"as x={reply.server_x}, asked for {msg.attrs}",
                )
            if k == len(delivered):
                delivered.append({})
            delivered[k][info.x_coord] = reply
    return delivered


def _decode(
    schema: TableSchema, msg: FetchToClient, delivered: dict[int, DeliverShares]
) -> list[list[Value]]:
    """Reconstruct and decode each attribute of `msg` from its deliveries.

    Returns one list per attribute of `msg.attrs`, in that order, of its
    values at the requested rows, in request order (rows after+1..n for
    an every-row fetch).

    Every delivery must hold exactly the requested rows, in order, with
    the same element count per cell; an every-row fetch (indices None)
    must hold rows after+1..n, n the same on every server.
    """
    first = delivered[min(delivered)].rows
    matched = msg.indices
    if matched is None:
        after = msg.after or 0
        matched = list(range(after + 1, after + len(first.indices) + 1))
    expected = tuple(matched)
    for x in sorted(delivered):
        rows = delivered[x].rows
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
    tagged = [(x, delivered[x].rows.packed) for x in sorted(delivered)]
    plain = _reconstruct_matrix(tagged)
    # attribute by attribute: each one's counts, and its elements, are one run
    rows = len(matched)
    columns, start = [], 0
    for k, attr in enumerate(msg.attrs):
        counts = first.counts[k * rows : (k + 1) * rows]
        end = start + SHARE_BYTES * sum(counts)
        try:
            decoded = decode_cells(schema.attr_type(attr), plain[start:end], counts)
        except ValueError as exc:
            raise SsdbError(
                protocol.DATA_CORRUPTION, f"{msg.table!r}.{attr!r} failed to decode: {exc}"
            ) from exc
        columns.append(decoded)
        start = end
    return columns
