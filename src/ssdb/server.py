"""The share server: stores one coordinate's worth of every cell.

Holds the replicated schema, the plaintext index column, and for each
cell the share vector evaluated at this server's x-coordinate. Rows are
persisted to an append-only log, opened per append, before they are
acknowledged; startup replays the log, truncating a torn last record and
refusing to start on any other corrupt one. Metadata files are replaced
whole through an fsynced temporary file; new directory entries are fsynced.
"""

from __future__ import annotations

import json
import logging
import os
import struct
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from . import protocol
from .encoding import TableSchema
from .field import MERSENNE_61, SHARE_BYTES
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
    TcpService,
)

log = logging.getLogger(__name__)

_META_FILE = "server.json"
# the cell layout, pinned in server.json: a dir of another layout would be
# misread (2: TEXT cells begin with a start byte, see encoding.py)
_FORMAT = 2
# a log record: payload length, zlib.crc32 of the payload, then the payload
_RECORD = struct.Struct(">II")


def _fsync_dir(path: Path) -> None:
    """Make the entries of directory `path` durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _write_durably(path: Path, text: str) -> None:
    """Replace `path` by `text`; a crash leaves either the old file or the new one."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    _fsync_dir(path.parent)


def _read_json(path: Path, parse=lambda obj: obj):
    """parse() of a metadata file's JSON; an empty or torn file names itself."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(json.load(fh))
    except ValueError as exc:
        raise ValueError(f"{path} is unreadable ({exc}); refusing to start") from exc


@dataclass
class StoredTable:
    schema: TableSchema
    directory: Path
    # attr -> its cells in row order (row i at [i - 1]), each cell's shares
    # packed as on the wire; attrs in schema order
    columns: dict[str, list[bytes]] = field(init=False)

    def __post_init__(self):
        self.columns = {name: [] for name in self.schema.attr_names()}

    @property
    def row_count(self) -> int:
        return len(next(iter(self.columns.values())))

    def add_row(self, row: ShareRows) -> None:
        pos = 0
        for cells, count in zip(self.columns.values(), row.counts):
            cells.append(row.packed[pos : pos + count * SHARE_BYTES])
            pos += count * SHARE_BYTES

    def create_log(self) -> None:
        """Create an empty rows.log if there is none, and make its entry durable."""
        path = self.directory / "rows.log"
        if not path.exists():
            path.touch()
            _fsync_dir(self.directory)


class ServerStore:
    """Durable per-server state under one data directory.

    Layout: <data_dir>/server.json pins identity and the cell format;
    each table gets <data_dir>/<table>/schema.json plus rows.log, one
    binary record per row: `_RECORD` (payload length, crc32) and then
    the INSERT_SHARES body as received, i.e. the row index, the element
    count of each cell in schema order, and the shares. Replay is
    deterministic: same log, same state. A request is one call, which takes
    the one lock once: an append holds it across its fsync, a read while it
    picks cells.
    """

    def __init__(self, data_dir, server_id: str, x_coord: int):
        self.data_dir = Path(data_dir)
        self.server_id = server_id
        self.x_coord = x_coord
        self.tables: dict[str, StoredTable] = {}
        self._lock = threading.Lock()

    def load(self) -> None:
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self._check_meta()
        for entry in sorted(self.data_dir.iterdir()):
            if not entry.is_dir() or not (entry / "schema.json").exists():
                continue
            schema = _read_json(entry / "schema.json", TableSchema.from_json_dict)
            table = StoredTable(schema=schema, directory=entry)
            table.create_log()
            self._replay_log(table)
            self.tables[schema.table_name] = table

    def _check_meta(self) -> None:
        meta_path = self.data_dir / _META_FILE
        meta = {
            "server_id": self.server_id, "x_coord": self.x_coord, "p": str(MERSENNE_61),
            "format": _FORMAT,
        }
        if meta_path.exists():
            stored = _read_json(meta_path)
            if stored != meta:
                raise ValueError(f"{meta_path} records {stored}, refusing to run as {meta}")
        else:
            _write_durably(meta_path, json.dumps(meta, sort_keys=True))

    def _replay_log(self, table: StoredTable) -> None:
        log_path = table.directory / "rows.log"
        data = log_path.read_bytes()
        if data.startswith(b"{"):
            # a binary record starts with a length far below 0x7b000000
            raise ValueError(
                f"{log_path} is a JSON-lines log from an older ssdb, not binary records; "
                "refusing to start rather than truncate it"
            )
        pos = 0
        while pos < len(data):
            # only the last append can be torn, and it was never acknowledged: a
            # short header, an end past EOF, or a bad checksum ending at EOF is cut
            # off. Any other bad record refuses start-up: cutting it drops acked rows
            end = pos + _RECORD.size
            if end > len(data):
                break
            length, crc = _RECORD.unpack_from(data, pos)
            if length == 0 and data.count(0, pos) == len(data) - pos:
                # zero bytes to EOF: the file grew before the append's bytes
                # landed. A row record is never empty, so this is no record
                break
            end += length
            payload = data[pos + _RECORD.size : end]
            if end > len(data) or (end == len(data) and zlib.crc32(payload) != crc):
                # torn, unless the row header (index, one count per attribute)
                # gives a whole record that passes the checksum: then only the
                # length field is corrupt, and later records may be acked
                attrs = len(table.columns)
                head = pos + _RECORD.size + 4 * (1 + attrs)
                if head <= len(data):
                    whole = head + SHARE_BYTES * sum(
                        struct.unpack_from(f">{attrs}I", data, head - 4 * attrs)
                    )
                    if whole <= len(data) and zlib.crc32(data[pos + _RECORD.size : whole]) == crc:
                        raise ValueError(
                            f"{log_path}: corrupt record at byte {pos} (length field "
                            f"{length}, its row header gives {whole - pos - _RECORD.size}); "
                            "refusing to start rather than truncate it"
                        )
                break
            try:
                if zlib.crc32(payload) != crc:
                    raise ValueError("checksum mismatch")
                row = self._check_record(table, protocol.read_body(payload, 1, len(table.columns)))
            except (ValueError, SsdbError) as exc:
                raise ValueError(
                    f"{log_path}: corrupt record at byte {pos} ({exc}); "
                    "refusing to start rather than truncate it"
                ) from exc
            table.add_row(row)
            pos = end
        if pos < len(data):
            log.warning(
                "%s: torn last record at byte %d of %s; truncating", self.server_id, pos, log_path
            )
            os.truncate(log_path, pos)

    def _check_record(self, table: StoredTable, row: ShareRows) -> ShareRows:
        """`row`, a log record's or an insert's one row, if it may come next."""
        if row.indices[0] != table.row_count + 1:
            raise SsdbError(
                protocol.SCHEMA_MISMATCH,
                f"row index {row.indices[0]} out of order; expected {table.row_count + 1}",
            )
        if 0 in row.counts:
            raise SsdbError(protocol.SCHEMA_MISMATCH, "empty share vector")
        return row

    def create_table(self, schema: TableSchema) -> None:
        with self._lock:
            existing = self.tables.get(schema.table_name)
            if existing is not None:
                if existing.schema.canonical_json() != schema.canonical_json():
                    raise SsdbError(
                        protocol.SCHEMA_MISMATCH,
                        f"table {schema.table_name!r} already exists with a different schema",
                    )
                return  # idempotent
            directory = self.data_dir / schema.table_name
            directory.mkdir(parents=True, exist_ok=True)
            _fsync_dir(self.data_dir)
            _write_durably(directory / "schema.json", schema.canonical_json())
            table = StoredTable(schema=schema, directory=directory)
            table.create_log()
            self.tables[schema.table_name] = table

    def _table(self, name: str) -> StoredTable:
        table = self.tables.get(name)
        if table is None:
            raise SsdbError(protocol.NO_SUCH_TABLE, f"no table {name!r}")
        return table

    def append_row(self, table_name: str, attrs: list[str], row: ShareRows) -> None:
        """Log and keep one row whose cells `attrs` names, in schema order."""
        with self._lock:
            table = self._table(table_name)
            if list(attrs) != list(table.columns) or len(row.counts) != len(attrs):
                raise SsdbError(
                    protocol.SCHEMA_MISMATCH,
                    f"cells {list(attrs)} do not match schema of {table_name!r}",
                )
            # the frame codec made read_body's checks; with these, every logged record replays
            self._check_record(table, row)
            payload = row.body()
            record = _RECORD.pack(len(payload), zlib.crc32(payload)) + payload
            # opened for this append alone; a failed write or fsync is cut back out,
            # so the log never holds a record whose row was not kept
            path = table.directory / "rows.log"
            size = path.stat().st_size
            fd = os.open(path, os.O_WRONLY | os.O_APPEND)
            try:
                if os.write(fd, record) != len(record):
                    raise OSError(f"short write to {path}")
                os.fsync(fd)
            except BaseException:
                os.ftruncate(fd, size)
                raise
            finally:
                os.close(fd)
            table.add_row(row)

    def rows_for(
        self, table_name: str, attrs: list[str], indices: Optional[list[int]], after: int = 0
    ) -> tuple[ShareRows, Optional[str]]:
        """This server's shares of `attrs` at `indices`, and its digest of rows 1..`after`.

        None indices mean every row after `after`. The digest, the
        `RowsDigest` hex of stored rows 1..`after` of the one attribute, is
        made from the stored cells on every call; None if `after` is 0 or
        past the rows stored. The wire ensures each attribute is named once,
        indices strictly ascend from 1 (only the last is checked), and
        `after` >= 1 comes only with None indices and one attribute. A reply
        body past MAX_FRAME_BYTES is refused before any cell is joined.
        """
        with self._lock:
            table = self._table(table_name)
            missing = [attr for attr in attrs if attr not in table.columns]
            if missing:
                raise SsdbError(
                    protocol.NO_SUCH_ATTR, f"no attribute {missing[0]!r} in {table_name!r}"
                )
            columns = [table.columns[attr] for attr in attrs]
            rows = table.row_count
            if indices is None:
                indices = range(after + 1, rows + 1)
            elif indices and indices[-1] > rows:
                raise SsdbError(protocol.VALUE_RANGE, f"no row with index {indices[-1]}")
            picked = [cells[i - 1] for cells in columns for i in indices]
            held = columns[0][:after] if 0 < after <= rows else None
        counts = tuple(len(c) // SHARE_BYTES for c in picked)
        size = 4 * (len(indices) + len(counts)) + SHARE_BYTES * sum(counts)
        if size > protocol.MAX_FRAME_BYTES:
            raise SsdbError(
                protocol.INTERNAL, f"reply body of {size} bytes exceeds {protocol.MAX_FRAME_BYTES}"
            )
        digest = None if held is None else RowsDigest().add(
            [len(c) // SHARE_BYTES for c in held], b"".join(held)
        ).hexdigest()
        return ShareRows(tuple(indices), counts, b"".join(picked)), digest

    def schema(self, table_name: str) -> tuple[TableSchema, int]:
        """The table's schema and its stored row count."""
        with self._lock:
            table = self._table(table_name)
            return table.schema, table.row_count


class ShareServer(TcpService):
    """Networked share server; one per x-coordinate of the cluster."""

    def __init__(
        self, server_id: str, x_coord: int, data_dir, listen: tuple[str, int] = ("127.0.0.1", 0)
    ):
        super().__init__(listen[0], listen[1], self.handle, name=server_id)
        self.server_id = server_id
        self.x_coord = x_coord
        self.store = ServerStore(data_dir, server_id, x_coord)

    def start(self) -> None:
        self.store.load()
        super().start()

    def handle(self, msg):
        if isinstance(msg, CreateTable):
            self.store.create_table(msg.schema)
            return Ack()
        if isinstance(msg, InsertShares):
            self.store.append_row(msg.table, msg.attrs, msg.cells)
            return Ack()
        if isinstance(msg, GetSchema):
            schema, rows = self.store.schema(msg.table)
            return SchemaResult(schema=schema, rows=rows)
        if isinstance(msg, FetchToClient):
            rows, digest = self.store.rows_for(msg.table, msg.attrs, msg.indices, msg.after or 0)
            return DeliverShares(server_x=self.x_coord, attrs=msg.attrs, rows=rows, digest=digest)
        raise SsdbError(protocol.INTERNAL, f"{msg.type} is not handled by a share server")
