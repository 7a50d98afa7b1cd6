"""Share server storage, durability, and its TCP dispatch."""

import errno
import gc
import json
import os
import socket
import tracemalloc
import warnings
import zlib

import pytest

from ssdb import protocol, server as server_module
from ssdb.encoding import Attribute, AttrType, TableSchema, encode_value
from ssdb.field import MERSENNE_61
from ssdb.protocol import (
    CreateTable,
    DeliverShares,
    Error,
    FetchToClient,
    GetSchema,
    InsertShares,
    RemoteError,
    RowsDigest,
    SchemaResult,
    ShareRows,
    SsdbError,
)
from ssdb.server import ServerStore, ShareServer
from ssdb.testnet import PATIENT_ROWS, PATIENTS_SCHEMA, PATIENTS_TABLE, TestCluster

from helpers import HOSTILE_FRAMES, MALFORMED_SCHEMAS, FrameReader, vectors

P = MERSENNE_61

SCHEMA = TableSchema(
    "patients",
    (Attribute("pid", AttrType.INTEGER), Attribute("name", AttrType.TEXT)),
)
ATTRS = SCHEMA.attr_names()


@pytest.fixture
def make_store(tmp_path):
    """Loads a store on tmp_path/s1."""

    def make():
        store = ServerStore(tmp_path / "s1", "s1", 1)
        store.load()
        return store

    return make


def cells(k: int) -> list:
    """Row k's share vectors, in schema order."""
    return [[100 + k], [1, 65 + k]]


def append(store, k, vectors=None, attrs=ATTRS):
    store.append_row("patients", attrs, ShareRows.pack([k], vectors or cells(k)))


def insert(req_id, k, vectors=None):
    return InsertShares(
        req_id=req_id, table="patients", attrs=ATTRS, cells=ShareRows.pack([k], vectors or cells(k))
    )


def pairs(rows):
    """(index, share vector) of each row of a ShareRows."""
    return list(zip(rows.indices, vectors(rows)))


def column(store, attr):
    """(indices, share vectors) of every stored row."""
    rows, _ = store.rows_for("patients", [attr], None)
    return list(rows.indices), vectors(rows)


def u32(*values):
    return b"".join(v.to_bytes(4, "big") for v in values)


def u64(*values):
    return b"".join(v.to_bytes(8, "big") for v in values)


def record(payload: bytes) -> bytes:
    """A log record: payload length, its crc32, the payload."""
    return u32(len(payload), zlib.crc32(payload)) + payload


RECORD_BYTES = len(record(ShareRows.pack([1], cells(1)).body()))  # 44: 8 + 4 + 8 + 24


class TestServerStore:
    def test_create_append_read(self, make_store):
        store = make_store()
        store.create_table(SCHEMA)
        append(store, 1)
        append(store, 2)
        indices, col = column(store, "pid")
        assert indices == [1, 2]
        assert col == [[101], [102]]
        assert store.schema("patients") == (SCHEMA, 2)

    def test_replay_after_restart(self, make_store):
        store = make_store()
        store.create_table(SCHEMA)
        for k in range(1, 6):
            append(store, k)

        again = make_store()
        indices, col = column(again, "name")
        assert indices == [1, 2, 3, 4, 5]
        assert col == [[1, 65 + k] for k in range(1, 6)]
        # appends continue at the right index
        append(again, 6)

    def test_shares_round_trip(self, tmp_path, make_store):
        # cells are kept and logged packed; every share must read back
        # exactly, before and after a replay
        vec = [0, 1, P // 2, P - 1]
        store = make_store()
        store.create_table(SCHEMA)
        append(store, 1, [[P - 1], vec])
        assert column(store, "name") == ([1], [vec])
        size = (tmp_path / "s1" / "patients" / "rows.log").stat().st_size
        assert size == 8 + 4 + 2 * 4 + 5 * 8
        again = make_store()
        assert column(again, "name") == ([1], [vec])
        assert column(again, "pid") == ([1], [[P - 1]])

    def test_log_is_one_checksummed_binary_record_per_row(self, tmp_path, make_store):
        store = make_store()
        store.create_table(SCHEMA)
        append(store, 1)
        raw = (tmp_path / "s1" / "patients" / "rows.log").read_bytes()
        # index 1; counts 1 (pid) and 2 (name), in schema order; then the
        # shares 101 | 1, 66 as 8-byte big-endian ints; no attribute names
        payload = u32(1) + u32(1, 2) + u64(101, 1, 66)
        assert raw == record(payload)
        assert raw == (
            b"\x00\x00\x00\x24\xa7\xc7\x52\x22"
            b"\x00\x00\x00\x01\x00\x00\x00\x01\x00\x00\x00\x02"
            b"\x00\x00\x00\x00\x00\x00\x00\x65"
            b"\x00\x00\x00\x00\x00\x00\x00\x01"
            b"\x00\x00\x00\x00\x00\x00\x00\x42"
        )

    def test_create_is_idempotent_for_equal_schema(self, make_store):
        store = make_store()
        store.create_table(SCHEMA)
        append(store, 1)
        store.create_table(SCHEMA)  # no-op
        assert column(store, "pid")[0] == [1]

    def test_create_rejects_different_schema(self, make_store):
        store = make_store()
        store.create_table(SCHEMA)
        other = TableSchema("patients", (Attribute("pid", AttrType.TEXT),))
        with pytest.raises(SsdbError) as e:
            store.create_table(other)
        assert e.value.code == protocol.SCHEMA_MISMATCH

    def test_out_of_order_and_duplicate_index_rejected(self, make_store):
        store = make_store()
        store.create_table(SCHEMA)
        with pytest.raises(SsdbError) as e:
            append(store, 2)
        assert e.value.code == protocol.SCHEMA_MISMATCH
        append(store, 1)
        with pytest.raises(SsdbError):
            append(store, 1)

    def test_attr_set_must_match_schema(self, tmp_path, make_store):
        store = make_store()
        store.create_table(SCHEMA)
        with pytest.raises(SsdbError) as e:
            append(store, 1, [[1]], attrs=["pid"])
        assert e.value.code == protocol.SCHEMA_MISMATCH
        for attrs, vectors in (
            (ATTRS + ["extra"], cells(1) + [[1]]),
            (["name", "pid"], cells(1)[::-1]),  # cells travel in schema order
            (ATTRS, [[1]]),  # one count for two names
            (ATTRS, [[1], []]),  # an empty share vector
        ):
            with pytest.raises(SsdbError) as e:
                append(store, 1, vectors, attrs=attrs)
            assert e.value.code == protocol.SCHEMA_MISMATCH
        assert (tmp_path / "s1" / "patients" / "rows.log").read_bytes() == b""

    def test_unknown_table_and_attr(self, make_store):
        store = make_store()
        with pytest.raises(SsdbError) as e:
            store.rows_for("ghost", ["pid"], None)
        assert e.value.code == protocol.NO_SUCH_TABLE
        with pytest.raises(SsdbError) as e:
            store.schema("ghost")
        assert e.value.code == protocol.NO_SUCH_TABLE
        store.create_table(SCHEMA)
        with pytest.raises(SsdbError) as e:
            store.rows_for("patients", ["ghost"], [])
        assert e.value.code == protocol.NO_SUCH_ATTR

    def test_rows_for(self, make_store):
        store = make_store()
        store.create_table(SCHEMA)
        for k in range(1, 4):
            append(store, k)
        assert pairs(store.rows_for("patients", ["pid"], [1, 3])[0]) == [(1, [101]), (3, [103])]
        assert store.rows_for("patients", ["name"], [2]) == (ShareRows.pack([2], [[1, 67]]), None)
        assert store.rows_for("patients", ["pid"], []) == (ShareRows(), None)
        # several attributes: their cells joined attribute by attribute, in
        # the asked order, each attribute's cells in the asked row order
        assert store.rows_for("patients", ["name", "pid"], [1, 3]) == (
            ShareRows.pack([1, 3], [[1, 66], [1, 68], [101], [103]]), None
        )
        for bad in (4, 9):  # index 0 is refused by the wire
            with pytest.raises(SsdbError) as e:
                store.rows_for("patients", ["pid"], [1, bad])
            assert e.value.code == protocol.VALUE_RANGE
        every, _ = store.rows_for("patients", ["pid"], None)
        assert pairs(every) == [(1, [101]), (2, [102]), (3, [103])]

    def test_rows_after_and_their_digest(self, make_store):
        store = make_store()
        store.create_table(SCHEMA)
        for k in range(1, 4):
            append(store, k)
        later, _ = store.rows_for("patients", ["name"], None, 2)
        assert pairs(later) == [(3, [1, 68])]
        for after in (3, 5):  # no later row, or fewer rows than asked past
            assert store.rows_for("patients", ["name"], None, after)[0] == ShareRows()

        def digest(after):
            return store.rows_for("patients", ["name"], None, after)[1]

        # the digest of rows 1..2 is the hash of what a read of them delivers
        first, _ = store.rows_for("patients", ["name"], [1, 2])
        expected = RowsDigest().add(first.counts, first.packed).hexdigest()
        assert digest(2) == expected
        assert digest(3) != expected
        assert digest(4) is None
        assert digest(0) is None
        # made from the stored cells on every call: a changed share shows at once
        cells = store.tables["patients"].columns["name"]
        cells[1] = cells[1][:-1] + bytes([cells[1][-1] ^ 1])
        assert digest(2) != expected

    def test_torn_trailing_record_is_truncated(self, tmp_path, make_store):
        store = make_store()
        store.create_table(SCHEMA)
        for k in range(1, 101):
            append(store, k)

        log_path = tmp_path / "s1" / "patients" / "rows.log"
        raw = log_path.read_bytes()
        log_path.write_bytes(raw[:-10])  # tear the last record

        again = make_store()
        indices, _ = column(again, "pid")
        assert indices == list(range(1, 100))  # 99 rows survive
        # the torn bytes are gone from disk: 99 whole records remain
        assert log_path.read_bytes() == raw[: 99 * RECORD_BYTES]
        append(again, 100)
        assert column(again, "pid")[0] == list(range(1, 101))

    @pytest.mark.parametrize("cut", range(1, 8))
    def test_record_torn_inside_its_header_is_truncated(self, tmp_path, cut, make_store):
        store = make_store()
        store.create_table(SCHEMA)
        append(store, 1)
        append(store, 2)
        log_path = tmp_path / "s1" / "patients" / "rows.log"
        raw = log_path.read_bytes()
        log_path.write_bytes(raw[: RECORD_BYTES + cut])  # row 2's length field is not whole
        again = make_store()
        assert column(again, "pid")[0] == [1]
        assert log_path.read_bytes() == raw[:RECORD_BYTES]

    def test_missing_log_loads_empty_and_is_recreated(self, tmp_path, make_store):
        # a crash between schema.json's rename and the log's creation
        make_store().create_table(SCHEMA)
        log_path = tmp_path / "s1" / "patients" / "rows.log"
        log_path.unlink()
        again = make_store()
        assert again.schema("patients") == (SCHEMA, 0)
        assert log_path.read_bytes() == b""
        append(again, 1)
        assert column(make_store(), "pid")[0] == [1]

    @pytest.mark.parametrize("fault", ["fsync", "short write"])
    def test_failed_append_leaves_the_log_as_it_was(
        self, tmp_path, monkeypatch, fault, make_store
    ):
        store = make_store()
        store.create_table(SCHEMA)
        append(store, 1)
        log_path = tmp_path / "s1" / "patients" / "rows.log"
        before = log_path.read_bytes()
        real_write, real_fsync, faults = os.write, os.fsync, []

        def write(fd, data):  # lands 10 bytes of the record, once
            if fault == "short write" and not faults:
                faults.append(fd)
                return real_write(fd, data[:10])
            return real_write(fd, data)

        def fsync(fd):
            if fault == "fsync" and not faults:
                faults.append(fd)
                raise OSError(errno.EIO, "fsync failed")
            return real_fsync(fd)

        monkeypatch.setattr(os, "write", write)
        monkeypatch.setattr(os, "fsync", fsync)
        with pytest.raises(OSError):
            append(store, 2)
        assert faults and log_path.read_bytes() == before
        assert column(store, "pid")[0] == [1]
        append(store, 2, [[7], [1, 8]])  # the retry carries another value
        again = make_store()
        assert column(again, "pid") == ([1, 2], [[101], [7]])
        assert column(again, "name") == ([1, 2], [[1, 66], [1, 8]])

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts /proc/self/fd")
    def test_no_descriptor_stays_open_between_requests(self, make_store):
        before = len(os.listdir("/proc/self/fd"))
        store = make_store()
        for k in range(64):
            store.create_table(TableSchema(f"t{k}", SCHEMA.attributes))
            store.append_row(f"t{k}", ATTRS, ShareRows.pack([1], cells(1)))
        assert len(os.listdir("/proc/self/fd")) <= before

    @pytest.mark.parametrize("bad", [
        lambda good, payload: good[:-3],  # torn: later records read misaligned
        lambda good, payload: good[:4] + bytes(4) + payload,  # checksum does not match
        lambda good, payload: record(payload[:12] + u64(P) + payload[20:]),  # share >= p
        lambda good, payload: record(payload + u64(1)),  # 4 shares where counts say 3
        lambda good, payload: record(u32(6) + payload[4:]),  # index 6 in row 5's place
    ], ids=["torn", "checksum", "p", "length", "order"])
    def test_corrupt_middle_record_drops_the_tail(self, tmp_path, bad, make_store):
        """It does not: rows 6-10 were acknowledged, so start-up is refused
        with an error naming the file and the byte, and the log stays as it is."""
        store = make_store()
        store.create_table(SCHEMA)
        for k in range(1, 11):
            append(store, k)

        log_path = tmp_path / "s1" / "patients" / "rows.log"
        raw = log_path.read_bytes()
        records = [raw[i : i + RECORD_BYTES] for i in range(0, len(raw), RECORD_BYTES)]
        assert len(records) == 10
        records[4] = bad(records[4], records[4][8:])
        corrupt = b"".join(records)
        log_path.write_bytes(corrupt)

        with pytest.raises(ValueError) as e:
            make_store()
        assert str(log_path) in str(e.value)
        assert f"at byte {4 * RECORD_BYTES} " in str(e.value)
        assert log_path.read_bytes() == corrupt

    @pytest.mark.parametrize("k, length", [
        (0, 0x4024), (1, 0x4024), (3, 0x4024),  # bit 0x40 of 36's third byte: past EOF
        (0, 4 * RECORD_BYTES - 8),  # to EOF, where the checksum fails
    ])
    def test_corrupt_length_of_a_whole_record_is_refused(self, tmp_path, k, length, make_store):
        """It reads like a torn last append, but the record's own row header
        gives its true length, and that whole record passes its checksum."""
        store = make_store()
        store.create_table(SCHEMA)
        for row in range(1, 5):
            append(store, row)

        log_path = tmp_path / "s1" / "patients" / "rows.log"
        corrupt = bytearray(log_path.read_bytes())
        corrupt[k * RECORD_BYTES : k * RECORD_BYTES + 4] = u32(length)
        log_path.write_bytes(corrupt)

        with pytest.raises(ValueError) as e:
            make_store()
        assert str(log_path) in str(e.value)
        assert f"at byte {k * RECORD_BYTES} " in str(e.value)
        assert log_path.read_bytes() == corrupt

    def test_checksum_failure_in_the_last_record_is_truncated(self, tmp_path, make_store):
        # a record that ends at EOF may be the last append, torn inside its
        # declared length (e.g. zero-filled), and so never acknowledged
        store = make_store()
        store.create_table(SCHEMA)
        for k in range(1, 11):
            append(store, k)

        log_path = tmp_path / "s1" / "patients" / "rows.log"
        raw = log_path.read_bytes()
        log_path.write_bytes(raw[:-RECORD_BYTES] + raw[-RECORD_BYTES:-8] + bytes(8))

        again = make_store()
        assert column(again, "pid")[0] == list(range(1, 10))
        assert log_path.read_bytes() == raw[: 9 * RECORD_BYTES]

    @pytest.mark.parametrize("tail", [8, 20, 60, RECORD_BYTES], ids=lambda n: f"{n}-zero-bytes")
    def test_zero_tail_is_truncated(self, tmp_path, tail, make_store):
        # a fifth append whose file size became durable before its bytes:
        # zeros past 4 acknowledged rows, or the whole fifth record zeroed
        store = make_store()
        store.create_table(SCHEMA)
        for k in range(1, 6):
            append(store, k)

        log_path = tmp_path / "s1" / "patients" / "rows.log"
        acked = log_path.read_bytes()[: 4 * RECORD_BYTES]
        log_path.write_bytes(acked + bytes(tail))

        again = make_store()
        assert column(again, "pid") == ([1, 2, 3, 4], [[101], [102], [103], [104]])
        assert log_path.read_bytes() == acked
        append(again, 5)
        assert column(again, "pid")[0] == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize("after", [b"\x01", bytes(12) + b"\x01"], ids=["byte", "later-byte"])
    def test_zero_length_record_before_a_nonzero_byte_is_refused(
        self, tmp_path, after, make_store
    ):
        store = make_store()
        store.create_table(SCHEMA)
        for k in range(1, 5):
            append(store, k)

        log_path = tmp_path / "s1" / "patients" / "rows.log"
        corrupt = log_path.read_bytes() + bytes(8) + after
        log_path.write_bytes(corrupt)

        with pytest.raises(ValueError) as e:
            make_store()
        assert f"at byte {4 * RECORD_BYTES} " in str(e.value)
        assert log_path.read_bytes() == corrupt

    def test_json_log_is_refused_not_truncated(self, tmp_path, make_store):
        store = make_store()
        store.create_table(SCHEMA)
        log_path = tmp_path / "s1" / "patients" / "rows.log"
        old = b'{"cells":{"name":["1","66"],"pid":["101"]},"index":1}\n'
        log_path.write_bytes(old)
        with pytest.raises(ValueError) as e:
            make_store()
        assert str(log_path) in str(e.value)
        assert log_path.read_bytes() == old

    @pytest.mark.parametrize("name", ["schema.json", "server.json"])
    @pytest.mark.parametrize("content", [b"", b'{"table": "pat'], ids=["empty", "torn"])
    def test_unreadable_metadata_refuses_start_and_names_the_file(
        self, tmp_path, name, content, make_store
    ):
        store = make_store()
        store.create_table(SCHEMA)
        path = tmp_path / "s1" / ("patients" if name == "schema.json" else "") / name
        path.write_bytes(content)
        with pytest.raises(ValueError) as e:
            make_store()
        assert str(path) in str(e.value)

    def test_metadata_is_replaced_whole_and_every_new_entry_synced(
        self, tmp_path, monkeypatch, make_store
    ):
        synced = []
        real = server_module._fsync_dir
        monkeypatch.setattr(server_module, "_fsync_dir", lambda d: synced.append(d) or real(d))
        store = make_store()
        store.create_table(SCHEMA)
        data_dir, table_dir = tmp_path / "s1", tmp_path / "s1" / "patients"
        # server.json's rename, the table directory, schema.json's rename, rows.log
        assert synced == [data_dir, data_dir, table_dir, table_dir]
        assert sorted(p.name for p in table_dir.iterdir()) == ["rows.log", "schema.json"]
        assert sorted(p.name for p in data_dir.iterdir()) == ["patients", "server.json"]
        # a crash after writing the temporary file but before the rename
        # leaves the old schema whole
        (table_dir / "schema.json.tmp").write_text("{", encoding="utf-8")
        again = make_store()
        assert again.schema("patients") == (SCHEMA, 0)

    def test_meta_file_pins_identity(self, tmp_path, make_store):
        store = make_store()
        wrong_x = ServerStore(tmp_path / "s1", "s1", 2)
        with pytest.raises(ValueError):
            wrong_x.load()
        wrong_id = ServerStore(tmp_path / "s1", "s9", 1)
        with pytest.raises(ValueError):
            wrong_id.load()

    def test_data_dir_without_the_format_number_is_refused(self, tmp_path, make_store):
        # a dir written before TEXT cells began with a start byte has none
        store = make_store()
        meta_path = tmp_path / "s1" / "server.json"
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        del meta["format"]
        meta_path.write_text(json.dumps(meta), encoding="utf-8")
        with pytest.raises(ValueError) as e:
            make_store()
        assert str(meta_path) in str(e.value)
        assert json.loads(meta_path.read_text(encoding="utf-8")) == meta


def test_fixture_log_size_is_what_the_record_layout_gives():
    """rows.log holds per row 8 bytes of framing, the index, a count per
    attribute and 8 bytes per share, and nothing else."""
    expected = 0
    for row in PATIENT_ROWS:
        elements = sum(
            len(encode_value(a.type, v)) for a, v in zip(PATIENTS_SCHEMA.attributes, row)
        )
        expected += 8 + 4 + 4 * len(PATIENTS_SCHEMA.attributes) + 8 * elements
    with TestCluster.start(3, 2, seed=5) as cluster:
        cluster.load_fixture_patients()
        for sid in ("s1", "s2", "s3"):
            assert len(cluster.rows_log_bytes(sid, PATIENTS_TABLE)) == expected, sid


class LiveServer:
    def __init__(self, tmp_path, **kw):
        self.server = ShareServer("s1", 1, tmp_path / "s1", listen=("127.0.0.1", 0), **kw)

    def __enter__(self):
        self.server.start()
        return self.server

    def __exit__(self, *exc):
        self.server.stop()


def ask(server, msg):
    return protocol.request(server.address, msg)


def fetch(server, attr, indices, req_id="f"):
    """The server's reply to a fetch of `attr` at `indices`."""
    msg = FetchToClient(req_id=req_id, table="patients", attrs=[attr], indices=indices)
    reply = ask(server, msg)
    assert isinstance(reply, DeliverShares)
    return reply


class TestShareServerTcp:
    def test_insert_and_get_column(self, tmp_path):
        with LiveServer(tmp_path) as server:
            ask(server, CreateTable(req_id="c", schema=SCHEMA))
            ask(server, insert("i1", 1))
            ask(server, insert("i2", 2))
            push = fetch(server, "pid", None)  # the whole column
            assert pairs(push.rows) == [(1, [101]), (2, [102])]
            schema_reply = ask(server, GetSchema(req_id="s", table="patients"))
            assert isinstance(schema_reply, SchemaResult)
            assert schema_reply.schema == SCHEMA
            assert schema_reply.rows == 2

    def test_error_codes_over_the_wire(self, tmp_path):
        with LiveServer(tmp_path) as server:
            with pytest.raises(RemoteError) as e:
                ask(server, GetSchema(req_id="g", table="ghost"))
            assert e.value.code == protocol.NO_SUCH_TABLE
            ask(server, CreateTable(req_id="c", schema=SCHEMA))
            with pytest.raises(RemoteError) as e:
                ask(server, FetchToClient(req_id="g", table="patients", attrs=["ghost"]))
            assert e.value.code == protocol.NO_SUCH_ATTR
            with pytest.raises(RemoteError) as e:
                ask(server, insert("i", 5))
            assert e.value.code == protocol.SCHEMA_MISMATCH

    def test_hub_only_message_rejected(self, tmp_path):
        with LiveServer(tmp_path) as server:
            with pytest.raises(RemoteError) as e:
                ask(server, SchemaResult(req_id="l", schema=SCHEMA, rows=0))
            assert e.value.code == protocol.INTERNAL

    def test_fetch_to_client_pushes_shares(self, tmp_path):
        with LiveServer(tmp_path) as server:
            ask(server, CreateTable(req_id="c", schema=SCHEMA))
            for k in range(1, 4):
                ask(server, insert(f"i{k}", k))
            push = fetch(server, "name", [1, 3], req_id="f1")
            assert push.type == "DELIVER_SHARES"
            assert push.req_id == "f1"
            assert push.server_x == 1
            assert push.attrs == ["name"]
            assert pairs(push.rows) == [(1, [1, 66]), (3, [1, 68])]

    def test_fetch_validation_errors_are_synchronous(self, tmp_path):
        with LiveServer(tmp_path) as server:
            ask(server, CreateTable(req_id="c", schema=SCHEMA))
            with pytest.raises(RemoteError) as e:
                ask(
                    server,
                    FetchToClient(req_id="f", table="patients", attrs=["name"], indices=[7]),
                )
            assert e.value.code == protocol.VALUE_RANGE

    def test_empty_fetch_is_a_valid_push(self, tmp_path):
        with LiveServer(tmp_path) as server:
            ask(server, CreateTable(req_id="c", schema=SCHEMA))
            assert fetch(server, "pid", []).rows == ShareRows()
            assert fetch(server, "pid", None).rows == ShareRows()  # every row of an empty table

    def test_fetch_after_delivers_later_rows_and_a_digest(self, tmp_path):
        with LiveServer(tmp_path) as server:
            ask(server, CreateTable(req_id="c", schema=SCHEMA))
            for k in range(1, 4):
                ask(server, insert(f"i{k}", k))
            whole = fetch(server, "pid", None)
            assert whole.digest is None
            msg = FetchToClient(req_id="a", table="patients", attrs=["pid"], after=1)
            reply = ask(server, msg)
            assert pairs(reply.rows) == [(2, [102]), (3, [103])]
            assert reply.digest == RowsDigest().add([1], whole.rows.packed[:8]).hexdigest()
            msg = FetchToClient(req_id="b", table="patients", attrs=["pid"], after=0)
            assert ask(server, msg) == DeliverShares(
                req_id="b", server_x=1, attrs=["pid"], rows=whole.rows
            )
            # a server holding fewer rows than `after` sends none, and no digest
            msg = FetchToClient(req_id="c", table="patients", attrs=["pid"], after=4)
            reply = ask(server, msg)
            assert reply.rows == ShareRows() and reply.digest is None

    def test_share_values_validated_against_modulus(self, tmp_path):
        with LiveServer(tmp_path) as server:
            ask(server, CreateTable(req_id="c", schema=SCHEMA))
            ask(server, insert("i1", 1, [[P - 1], [1, 2]]))
            log = tmp_path / "s1" / "patients" / "rows.log"
            logged = log.read_bytes()
            with pytest.raises(RemoteError) as e:
                ask(server, insert("i2", 2, [[P], [1, 2]]))  # p is not a valid share
            assert e.value.code == protocol.VALUE_RANGE
            assert log.read_bytes() == logged

    def test_restart_replays_from_disk(self, tmp_path):
        with LiveServer(tmp_path) as server:
            ask(server, CreateTable(req_id="c", schema=SCHEMA))
            ask(server, insert("i", 1))
        # same data dir, fresh process-equivalent
        with LiveServer(tmp_path) as server2:
            push = fetch(server2, "pid", None)
            assert pairs(push.rows) == [(1, [101])]


def test_server_that_cannot_listen_leaves_nothing_open(tmp_path):
    with LiveServer(tmp_path) as server:
        ask(server, CreateTable(req_id="c", schema=SCHEMA))
        taken = server.address
    with socket.create_server(taken):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            late = ShareServer("s1", 1, tmp_path / "s1", listen=taken)
            with pytest.raises(OSError):
                late.start()
            del late
            gc.collect()
    leaks = [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)]
    assert leaks == []


@pytest.mark.parametrize("frame", HOSTILE_FRAMES.values(), ids=HOSTILE_FRAMES.keys())
def test_hostile_header_is_answered_then_closed(tmp_path, frame):
    with LiveServer(tmp_path) as server:
        with socket.create_connection(server.address, timeout=5) as sock:
            sock.sendall(frame)
            reply = FrameReader(sock).read()
            assert isinstance(reply, Error) and reply.code == protocol.INTERNAL
            assert sock.recv(1) == b""


# FETCH_TO_CLIENT shapes no client sends: one name asked for several times,
# row 1 asked for many times, rows out of order. Answering the repeated
# ones, a server would build a reply far larger than all it stores.
UNSENT_FETCHES = {
    "1-name-x-1000-copies": (["name"], [1] * 1_000),
    "20-names-x-20000-copies": (["name"] * 20, [1] * 20_000),
    "50-names-x-40000-copies": (["name"] * 50, [1] * 40_000),
    "descending": (["name"], [3, 1]),
}


@pytest.mark.parametrize("attrs, indices", UNSENT_FETCHES.values(), ids=UNSENT_FETCHES.keys())
def test_unsent_fetch_shape_is_refused_in_bounded_memory(tmp_path, attrs, indices):
    with LiveServer(tmp_path) as server:
        ask(server, CreateTable(req_id="c", schema=SCHEMA))
        for k in range(1, 4):
            ask(server, insert(f"i{k}", k))
        msg = FetchToClient(req_id="f", table="patients", attrs=attrs, indices=indices)
        frame = protocol.encode_frame(msg)  # at most 81 KB
        tracemalloc.start()
        try:
            with pytest.raises(RemoteError) as e:
                protocol.Exchange(server.address, [frame], msg.req_id).replies()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert e.value.code == protocol.VALUE_RANGE
    assert peak < 4 * 2**20


def test_column_past_the_frame_cap_is_refused_before_it_is_joined(tmp_path, monkeypatch):
    # 32 rows of a 4,096-element name cell: 1 MiB of shares, 16 times the cap below
    with LiveServer(tmp_path) as server:
        ask(server, CreateTable(req_id="c", schema=SCHEMA))
        for k in range(1, 33):
            ask(server, insert(f"i{k}", k, [[100 + k], [1] + [k] * 4_095]))
        column = 32 * 4_096 * 8
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 64 * 1024)
        msg = FetchToClient(req_id="f", table="patients", attrs=["name"])
        frame = protocol.encode_frame(msg)
        tracemalloc.start()
        try:
            with pytest.raises(RemoteError) as e:
                protocol.Exchange(server.address, [frame], msg.req_id).replies()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert e.value.code == protocol.INTERNAL
    assert f"exceeds {64 * 1024}" in e.value.detail
    assert peak < column // 4


def test_reply_frame_past_the_cap_is_an_error_on_a_connection_that_lives_on(
    tmp_path, monkeypatch
):
    # a cap that the reply's body fits under and its whole frame does not:
    # rows_for's body check passes, and the service's frame check answers
    with LiveServer(tmp_path) as server:
        ask(server, CreateTable(req_id="c", schema=SCHEMA))
        ask(server, insert("i1", 1))
        msg = FetchToClient(req_id="f", table="patients", attrs=["name"])
        reply = ask(server, msg)
        frame = len(protocol.encode_frame(reply)) - 4  # the length prefix is not counted
        assert len(reply.rows.body()) < frame - 1
        [conn] = server._conns.values()
        cap = protocol.MAX_FRAME_BYTES
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", frame - 1)
        with pytest.raises(RemoteError) as e:
            ask(server, msg)
        assert e.value.code == protocol.INTERNAL
        assert e.value.detail == f"frame of {frame} bytes exceeds {frame - 1}"
        # with the cap back, the same kept-open connection answers again
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", cap)
        assert ask(server, msg).rows == reply.rows
        assert list(server._conns.values()) == [conn]


@pytest.mark.parametrize("schema", MALFORMED_SCHEMAS.values(), ids=MALFORMED_SCHEMAS.keys())
def test_malformed_create_table_gets_schema_mismatch(tmp_path, schema):
    header = json.dumps({"type": "CREATE_TABLE", "req_id": "c", "schema": schema}).encode()
    with LiveServer(tmp_path) as server:
        with socket.create_connection(server.address, timeout=5) as sock:
            sock.sendall(len(header).to_bytes(4, "big") + header)
            reply = FrameReader(sock).read()
            assert isinstance(reply, Error) and reply.code == protocol.SCHEMA_MISMATCH
        assert server.store.tables == {}


def test_daemon_thread_lists_stay_bounded():
    """Finished connection threads are dropped, not kept forever."""
    with TestCluster.start(3, 2, seed=9) as cluster:
        cluster.load_fixture_patients()
        for _ in range(50):
            rs = cluster.query("SELECT Patientname FROM patient_details WHERE Diagonosis = 'Aids'")
            assert rs.rows == [["Ann"], ["Dona"]]
        for sid in cluster.live_server_ids():
            server = cluster.handles[sid].server
            assert len(server._conns) <= 10, sid
        assert len(cluster.hub._conns) <= 10


def test_kept_open_connections_stay_bounded():
    """200 mixed inserts and queries, with a kill and a revive among them."""
    with TestCluster.start(3, 2, seed=37) as cluster:
        cluster.load_fixture_patients()
        addrs = [protocol.parse_addr(h.info.address) for h in cluster.handles.values()]
        addrs.append(cluster.hub.address)
        expected = [list(row) for row in PATIENT_ROWS]
        most = 0
        for k in range(200):
            if k == 80:
                cluster.kill_server("s2")
            elif k == 120:
                cluster.revive_server("s2")
            if k % 2 and not 80 <= k < 120:  # writes need every server
                row = [200 + k, f"P{k}", k % 7, "Flu"]
                cluster.insert_row(PATIENTS_SCHEMA, row)
                expected.append(row)
            else:
                assert cluster.query("SELECT * FROM patient_details").rows == expected
            idle = [len(protocol.POOL._idle.get(addr, [])) for addr in addrs]
            assert max(idle) <= protocol.MAX_IDLE_PER_ADDR, idle
            most = max(most, *idle)
        # connections really were kept open, and one per server was enough:
        # no operation has two requests to one server in flight
        assert most == 1
        for sid in cluster.live_server_ids():
            assert len(cluster.handles[sid].server._conns) <= 10, sid
    assert not any(protocol.POOL._idle.get(addr) for addr in addrs)
