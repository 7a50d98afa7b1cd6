"""The share server: stores one coordinate's worth of every cell.

Holds the replicated schema, the plaintext index column, and for each
cell the share vector evaluated at this server's x-coordinate. Rows are
persisted to an append-only log before they are acknowledged; startup
replays the log, truncating a torn trailing record.
"""

from __future__ import annotations

import json
import logging
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from . import protocol
from .encoding import TableSchema
from .field import MERSENNE_61
from .protocol import (
    Ack,
    CreateTable,
    DeliveredRow,
    DeliverShares,
    FetchToClient,
    GetSchema,
    InsertShares,
    ProtocolError,
    SchemaResult,
    SsdbError,
    TcpService,
)

log = logging.getLogger(__name__)

_META_FILE = "server.json"


@dataclass
class StoredTable:
    schema: TableSchema
    directory: Path
    # row i is rows[i - 1]; each cell is its shares packed by ServerStore._pack
    rows: list[dict[str, bytes]] = field(default_factory=list)
    log_file: Optional[object] = None

    @property
    def next_index(self) -> int:
        return len(self.rows) + 1

    def open_log(self) -> None:
        self.log_file = open(self.directory / "rows.log", "ab")

    def close(self) -> None:
        if self.log_file is not None:
            self.log_file.close()
            self.log_file = None


class ServerStore:
    """Durable per-server state under one data directory.

    Layout: <data_dir>/server.json pins identity; each table gets
    <data_dir>/<table>/schema.json plus rows.log with one JSON record
    per line. Replay is deterministic: same log, same state.
    """

    def __init__(self, data_dir, server_id: str, x_coord: int, p: int = MERSENNE_61):
        self.data_dir = Path(data_dir)
        self.server_id = server_id
        self.x_coord = x_coord
        self.p = p
        self._width = (p.bit_length() + 7) // 8  # bytes per packed share
        self.tables: dict[str, StoredTable] = {}
        self._lock = threading.RLock()

    def load(self) -> None:
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self._check_meta()
        for entry in sorted(self.data_dir.iterdir()):
            if not entry.is_dir() or not (entry / "schema.json").exists():
                continue
            with open(entry / "schema.json", encoding="utf-8") as fh:
                schema = TableSchema.from_json_dict(json.load(fh))
            table = StoredTable(schema=schema, directory=entry)
            self._replay_log(table)
            table.open_log()
            self.tables[schema.table_name] = table

    def _check_meta(self) -> None:
        meta_path = self.data_dir / _META_FILE
        meta = {"server_id": self.server_id, "x_coord": self.x_coord, "p": str(self.p)}
        if meta_path.exists():
            with open(meta_path, encoding="utf-8") as fh:
                stored = json.load(fh)
            if stored != meta:
                raise ValueError(
                    f"data dir {self.data_dir} belongs to {stored}, refusing to run as {meta}"
                )
        else:
            with open(meta_path, "w", encoding="utf-8") as fh:
                json.dump(meta, fh, sort_keys=True)

    def _replay_log(self, table: StoredTable) -> None:
        log_path = table.directory / "rows.log"
        if not log_path.exists():
            return
        good_end = 0
        with open(log_path, "rb") as fh:
            data = fh.read()
        pos = 0
        while pos < len(data):
            newline = data.find(b"\n", pos)
            if newline == -1:
                break  # torn trailing record
            line = data[pos : newline]
            try:
                record = json.loads(line)
                index = record["index"]
                cells = protocol.read_field(record, "cells", protocol.CELLS, self.p)
                if index != len(table.rows) + 1:
                    raise ValueError(f"log index {index} out of order")
                if set(cells) != set(table.schema.attr_names()):
                    raise ValueError("log record attributes do not match schema")
            except (ValueError, KeyError, TypeError, ProtocolError) as exc:
                log.warning(
                    "%s: corrupt record at byte %d of %s (%s); truncating",
                    self.server_id, pos, log_path, exc,
                )
                break
            table.rows.append({attr: self._pack(vec) for attr, vec in cells.items()})
            pos = newline + 1
            good_end = pos
        if good_end < len(data):
            with open(log_path, "r+b") as fh:
                fh.truncate(good_end)

    def _pack(self, vec: list[int]) -> bytes:
        """Fixed-width big-endian shares: far less memory than a list of ints."""
        return b"".join(v.to_bytes(self._width, "big") for v in vec)

    def _unpack(self, packed: bytes) -> list[int]:
        w = self._width
        return [int.from_bytes(packed[i : i + w], "big") for i in range(0, len(packed), w)]

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
            with open(directory / "schema.json", "w", encoding="utf-8") as fh:
                fh.write(schema.canonical_json())
                fh.flush()
                os.fsync(fh.fileno())
            table = StoredTable(schema=schema, directory=directory)
            table.open_log()
            self.tables[schema.table_name] = table

    def _table(self, name: str) -> StoredTable:
        table = self.tables.get(name)
        if table is None:
            raise SsdbError(protocol.NO_SUCH_TABLE, f"no table {name!r}")
        return table

    def append_row(self, table_name: str, index: int, cells: dict[str, list[int]]) -> None:
        with self._lock:
            table = self._table(table_name)
            if index != table.next_index:
                raise SsdbError(
                    protocol.SCHEMA_MISMATCH,
                    f"row index {index} out of order; expected {table.next_index}",
                )
            if set(cells) != set(table.schema.attr_names()):
                raise SsdbError(
                    protocol.SCHEMA_MISMATCH,
                    f"cells do not match schema of {table_name!r}",
                )
            if any(not vec for vec in cells.values()):
                raise SsdbError(protocol.SCHEMA_MISMATCH, "empty share vector")
            for vec in cells.values():
                for v in vec:
                    # replay re-validates; rejecting here keeps them in step
                    if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v < self.p:
                        raise SsdbError(
                            protocol.VALUE_RANGE, f"share value {v!r} not in [0, {self.p})"
                        )
            record = {
                "index": index,
                "cells": {attr: [str(v) for v in vec] for attr, vec in cells.items()},
            }
            line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
            table.log_file.write(line.encode("utf-8"))
            table.log_file.flush()
            os.fsync(table.log_file.fileno())
            table.rows.append({attr: self._pack(vec) for attr, vec in cells.items()})

    def rows_for(
        self, table_name: str, attr: str, indices: Optional[list[int]]
    ) -> list[DeliveredRow]:
        """This server's shares of `attr` at the given rows; None means every row."""
        with self._lock:
            table = self._table(table_name)
            if not table.schema.has_attr(attr):
                raise SsdbError(protocol.NO_SUCH_ATTR, f"no attribute {attr!r} in {table_name!r}")
            if indices is None:
                indices = range(1, len(table.rows) + 1)
            rows = []
            for index in indices:
                if not 1 <= index <= len(table.rows):
                    raise SsdbError(protocol.VALUE_RANGE, f"no row with index {index}")
                elements = self._unpack(table.rows[index - 1][attr])
                rows.append(DeliveredRow(index=index, elements=elements))
            return rows

    def schema(self, table_name: str) -> tuple[TableSchema, int]:
        """The table's schema and its stored row count."""
        with self._lock:
            table = self._table(table_name)
            return table.schema, len(table.rows)

    def close(self) -> None:
        with self._lock:
            for table in self.tables.values():
                table.close()


class ShareServer:
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
        self.server_id = server_id
        self.x_coord = x_coord
        self.store = ServerStore(data_dir, server_id, x_coord, p)
        self._service = TcpService(listen[0], listen[1], self.handle, p=p, name=server_id)
        self._push_threads: list[threading.Thread] = []
        self._push_lock = threading.Lock()

    def start(self) -> None:
        self.store.load()
        self._service.start()

    @property
    def address(self) -> tuple[str, int]:
        return self._service.address

    @property
    def addr_str(self) -> str:
        return self._service.addr_str

    def handle(self, msg):
        if isinstance(msg, CreateTable):
            self.store.create_table(msg.schema)
            return Ack()
        if isinstance(msg, InsertShares):
            self.store.append_row(msg.table, msg.index, msg.cells)
            return Ack()
        if isinstance(msg, GetSchema):
            schema, rows = self.store.schema(msg.table)
            return SchemaResult(schema=schema, rows=rows)
        if isinstance(msg, FetchToClient):
            deliver = self._prepare_deliver(msg)
            client_addr = protocol.parse_addr(msg.client_addr)
            with self._push_lock:
                protocol.start_daemon(
                    self._push_threads, self._push, client_addr, deliver,
                    name=f"{self.server_id}-push",
                )
            return Ack()
        raise SsdbError(protocol.INTERNAL, f"{msg.type} is not handled by a share server")

    def _prepare_deliver(self, msg: FetchToClient) -> DeliverShares:
        rows = self.store.rows_for(msg.table, msg.attr, msg.indices)
        return DeliverShares(
            req_id=msg.req_id,
            table=msg.table,
            attr=msg.attr,
            server_x=self.x_coord,
            rows=rows,
        )

    def _push(self, client_addr: tuple[str, int], deliver: DeliverShares) -> None:
        try:
            protocol.push(client_addr, deliver)
        except OSError as exc:
            # No retry: the client times out and re-queries.
            log.warning(
                "%s: could not push %s to %s: %s",
                self.server_id, deliver.attr, protocol.format_addr(*client_addr), exc,
            )

    def stop(self) -> None:
        self._service.stop()
        with self._push_lock:
            threads = list(self._push_threads)
            self._push_threads.clear()
        for thread in threads:
            thread.join(timeout=2)
        self.store.close()
