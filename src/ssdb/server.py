"""The share server: stores one coordinate's worth of every cell.

Holds the replicated schema, the plaintext index column, and for each
cell the share vector evaluated at this server's x-coordinate. Rows are
persisted to an append-only log before they are acknowledged; startup
replays the log, truncating a torn last record and refusing to start on
any other corrupt one. The metadata files are replaced whole through an
fsynced temporary file, and every new directory entry is fsynced.
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
from .field import MERSENNE_61
from .protocol import (
    Ack,
    CreateTable,
    DeliverShares,
    FetchToClient,
    GetSchema,
    InsertShares,
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
    log_file: Optional[object] = None

    def __post_init__(self):
        self.columns = {name: [] for name in self.schema.attr_names()}

    @property
    def row_count(self) -> int:
        return len(next(iter(self.columns.values())))

    def add_row(self, row: ShareRows, width: int) -> None:
        pos = 0
        for cells, count in zip(self.columns.values(), row.counts):
            cells.append(row.packed[pos : pos + count * width])
            pos += count * width

    def open_log(self) -> None:
        created = not (self.directory / "rows.log").exists()
        self.log_file = open(self.directory / "rows.log", "ab")
        if created:
            _fsync_dir(self.directory)

    def close(self) -> None:
        if self.log_file is not None:
            self.log_file.close()
            self.log_file = None


class ServerStore:
    """Durable per-server state under one data directory.

    Layout: <data_dir>/server.json pins identity and the cell format;
    each table gets <data_dir>/<table>/schema.json plus rows.log, one
    binary record per row: `_RECORD` (payload length, crc32) and then
    the INSERT_SHARES body as received, i.e. the row index, the element
    count of each cell in schema order, and the shares. Replay is
    deterministic: same log, same state.
    """

    def __init__(self, data_dir, server_id: str, x_coord: int, p: int = MERSENNE_61):
        self.data_dir = Path(data_dir)
        self.server_id = server_id
        self.x_coord = x_coord
        self.p = p
        self._width = protocol.share_width(p)
        self.tables: dict[str, StoredTable] = {}
        self._lock = threading.RLock()

    def load(self) -> None:
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self._check_meta()
        for entry in sorted(self.data_dir.iterdir()):
            if not entry.is_dir() or not (entry / "schema.json").exists():
                continue
            schema = _read_json(entry / "schema.json", TableSchema.from_json_dict)
            table = StoredTable(schema=schema, directory=entry)
            self._replay_log(table)
            table.open_log()
            self.tables[schema.table_name] = table

    def _check_meta(self) -> None:
        meta_path = self.data_dir / _META_FILE
        meta = {
            "server_id": self.server_id, "x_coord": self.x_coord, "p": str(self.p),
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
        if not log_path.exists():
            return
        with open(log_path, "rb") as fh:
            data = fh.read()
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
                    whole = head + self._width * sum(
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
                row = self._check_record(table, payload)
            except (ValueError, SsdbError) as exc:
                raise ValueError(
                    f"{log_path}: corrupt record at byte {pos} ({exc}); "
                    "refusing to start rather than truncate it"
                ) from exc
            table.add_row(row, self._width)
            pos = end
        if pos < len(data):
            log.warning(
                "%s: torn last record at byte %d of %s; truncating", self.server_id, pos, log_path
            )
            with open(log_path, "r+b") as fh:
                fh.truncate(pos)

    def _check_record(self, table: StoredTable, payload) -> ShareRows:
        """The one row a log record or an insert holds, if it may come next."""
        row = protocol.read_body(payload, 1, len(table.columns), self.p)
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
            table.open_log()
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
            payload = row.body()
            # the same check replay makes, so every logged record replays
            self._check_record(table, payload)
            table.log_file.write(_RECORD.pack(len(payload), zlib.crc32(payload)) + payload)
            table.log_file.flush()
            os.fsync(table.log_file.fileno())
            table.add_row(row, self._width)

    def rows_for(
        self, table_name: str, attrs: list[str], indices: Optional[list[int]]
    ) -> ShareRows:
        """This server's shares of `attrs` at the given rows; None means every row.

        The stored cells are joined attribute by attribute, in `attrs`
        order, each attribute's cells in row order: no share is unpacked.
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
                indices = range(1, rows + 1)
            elif indices and not (min(indices) >= 1 and max(indices) <= rows):
                bad = next(i for i in indices if not 1 <= i <= rows)
                raise SsdbError(protocol.VALUE_RANGE, f"no row with index {bad}")
            picked = [cells[i - 1] for cells in columns for i in indices]
            w = self._width
            return ShareRows(tuple(indices), tuple(len(c) // w for c in picked), b"".join(picked))

    def schema(self, table_name: str) -> tuple[TableSchema, int]:
        """The table's schema and its stored row count."""
        with self._lock:
            table = self._table(table_name)
            return table.schema, table.row_count

    def close(self) -> None:
        with self._lock:
            for table in self.tables.values():
                table.close()


class ShareServer(TcpService):
    """Networked share server; one per x-coordinate of the cluster."""

    def __init__(
        self,
        server_id: str,
        x_coord: int,
        data_dir,
        listen: tuple[str, int] = ("127.0.0.1", 0),
        *,
        p: int = MERSENNE_61,
    ):
        super().__init__(listen[0], listen[1], self.handle, p=p, name=server_id)
        self.server_id = server_id
        self.x_coord = x_coord
        self.store = ServerStore(data_dir, server_id, x_coord, p)

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
            rows = self.store.rows_for(msg.table, msg.attrs, msg.indices)
            return DeliverShares(server_x=self.x_coord, attrs=msg.attrs, rows=rows)
        raise SsdbError(protocol.INTERNAL, f"{msg.type} is not handled by a share server")

    def stop(self) -> None:
        super().stop()
        self.store.close()
