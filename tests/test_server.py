"""Share server storage, durability, and its TCP dispatch."""

import json
import socket
import time

import pytest

from ssdb import protocol
from ssdb.encoding import Attribute, AttrType, TableSchema
from ssdb.field import MERSENNE_61
from ssdb.protocol import (
    Ack,
    CreateTable,
    FetchToClient,
    FrameDecoder,
    GetSchema,
    InsertShares,
    RemoteError,
    SchemaResult,
    SsdbError,
)
from ssdb.server import ServerStore, ShareServer
from ssdb.testnet import TestCluster

P = MERSENNE_61

SCHEMA = TableSchema(
    "patients",
    (Attribute("pid", AttrType.INTEGER), Attribute("name", AttrType.TEXT)),
)


def make_store(tmp_path, **kw):
    store = ServerStore(tmp_path / "s1", "s1", 1, **kw)
    store.load()
    return store


def cells(k: int) -> dict:
    return {"pid": [100 + k], "name": [1, 65 + k]}


def column(store, attr):
    """(indices, share vectors) of every stored row."""
    rows = store.rows_for("patients", attr, None)
    return [r.index for r in rows], [r.elements for r in rows]


class TestServerStore:
    def test_create_append_read(self, tmp_path):
        store = make_store(tmp_path)
        store.create_table(SCHEMA)
        store.append_row("patients", 1, cells(1))
        store.append_row("patients", 2, cells(2))
        indices, col = column(store, "pid")
        assert indices == [1, 2]
        assert col == [[101], [102]]
        assert store.schema("patients") == (SCHEMA, 2)

    def test_replay_after_restart(self, tmp_path):
        store = make_store(tmp_path)
        store.create_table(SCHEMA)
        for k in range(1, 6):
            store.append_row("patients", k, cells(k))
        store.close()

        again = make_store(tmp_path)
        indices, col = column(again, "name")
        assert indices == [1, 2, 3, 4, 5]
        assert col == [[1, 65 + k] for k in range(1, 6)]
        # appends continue at the right index
        again.append_row("patients", 6, cells(6))
        again.close()

    @pytest.mark.parametrize("p", [17, P, 2**127 - 1])
    def test_shares_round_trip_at_any_modulus_width(self, tmp_path, p):
        # cells are kept packed in memory; every width of p must read back
        # exactly, before and after a replay
        vec = [0, 1, p // 2, p - 1]
        store = make_store(tmp_path, p=p)
        store.create_table(SCHEMA)
        store.append_row("patients", 1, {"pid": [p - 1], "name": vec})
        assert column(store, "name") == ([1], [vec])
        store.close()
        again = make_store(tmp_path, p=p)
        assert column(again, "name") == ([1], [vec])
        assert column(again, "pid") == ([1], [[p - 1]])
        again.close()

    def test_log_is_one_sorted_json_record_per_line(self, tmp_path):
        store = make_store(tmp_path)
        store.create_table(SCHEMA)
        store.append_row("patients", 1, cells(1))
        raw = (tmp_path / "s1" / "patients" / "rows.log").read_bytes()
        lines = raw.decode().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["index"] == 1
        assert record["cells"]["pid"] == ["101"]
        # canonical form: sorted keys, no spaces
        assert lines[0] == json.dumps(record, sort_keys=True, separators=(",", ":"))

    def test_create_is_idempotent_for_equal_schema(self, tmp_path):
        store = make_store(tmp_path)
        store.create_table(SCHEMA)
        store.append_row("patients", 1, cells(1))
        store.create_table(SCHEMA)  # no-op
        assert column(store, "pid")[0] == [1]

    def test_create_rejects_different_schema(self, tmp_path):
        store = make_store(tmp_path)
        store.create_table(SCHEMA)
        other = TableSchema("patients", (Attribute("pid", AttrType.TEXT),))
        with pytest.raises(SsdbError) as e:
            store.create_table(other)
        assert e.value.code == protocol.SCHEMA_MISMATCH

    def test_out_of_order_and_duplicate_index_rejected(self, tmp_path):
        store = make_store(tmp_path)
        store.create_table(SCHEMA)
        with pytest.raises(SsdbError) as e:
            store.append_row("patients", 2, cells(2))
        assert e.value.code == protocol.SCHEMA_MISMATCH
        store.append_row("patients", 1, cells(1))
        with pytest.raises(SsdbError):
            store.append_row("patients", 1, cells(1))

    def test_attr_set_must_match_schema(self, tmp_path):
        store = make_store(tmp_path)
        store.create_table(SCHEMA)
        with pytest.raises(SsdbError) as e:
            store.append_row("patients", 1, {"pid": [1]})
        assert e.value.code == protocol.SCHEMA_MISMATCH
        with pytest.raises(SsdbError):
            store.append_row("patients", 1, {**cells(1), "extra": [1]})
        with pytest.raises(SsdbError):
            store.append_row("patients", 1, {"pid": [1], "name": []})

    def test_unknown_table_and_attr(self, tmp_path):
        store = make_store(tmp_path)
        with pytest.raises(SsdbError) as e:
            store.rows_for("ghost", "pid", None)
        assert e.value.code == protocol.NO_SUCH_TABLE
        with pytest.raises(SsdbError) as e:
            store.schema("ghost")
        assert e.value.code == protocol.NO_SUCH_TABLE
        store.create_table(SCHEMA)
        with pytest.raises(SsdbError) as e:
            store.rows_for("patients", "ghost", [])
        assert e.value.code == protocol.NO_SUCH_ATTR

    def test_rows_for(self, tmp_path):
        store = make_store(tmp_path)
        store.create_table(SCHEMA)
        for k in range(1, 4):
            store.append_row("patients", k, cells(k))
        rows = store.rows_for("patients", "pid", [3, 1])
        assert [(r.index, r.elements) for r in rows] == [(3, [103]), (1, [101])]
        assert store.rows_for("patients", "pid", []) == []
        for bad in (0, 4, 9):
            with pytest.raises(SsdbError) as e:
                store.rows_for("patients", "pid", [bad])
            assert e.value.code == protocol.VALUE_RANGE
        every = store.rows_for("patients", "pid", None)
        assert [(r.index, r.elements) for r in every] == [(1, [101]), (2, [102]), (3, [103])]

    def test_torn_trailing_record_is_truncated(self, tmp_path):
        store = make_store(tmp_path)
        store.create_table(SCHEMA)
        for k in range(1, 101):
            store.append_row("patients", k, cells(k))
        store.close()

        log_path = tmp_path / "s1" / "patients" / "rows.log"
        raw = log_path.read_bytes()
        log_path.write_bytes(raw[:-10])  # tear the last record mid-line

        again = make_store(tmp_path)
        indices, _ = column(again, "pid")
        assert indices == list(range(1, 100))  # 99 rows survive
        # the torn bytes are gone from disk: 99 whole lines remain
        on_disk = log_path.read_bytes()
        assert on_disk.endswith(b"\n") and on_disk.count(b"\n") == 99
        again.append_row("patients", 100, cells(100))
        assert column(again, "pid")[0] == list(range(1, 101))
        again.close()

    @pytest.mark.parametrize("bad", ['["oops"]', '["+1"]', '["١٢٣"]', f'["{P}"]', '"5"'],
                             ids=["oops", "plus", "arabic-digits", "p", "not-a-list"])
    def test_corrupt_middle_record_drops_the_tail(self, tmp_path, bad):
        store = make_store(tmp_path)
        store.create_table(SCHEMA)
        for k in range(1, 11):
            store.append_row("patients", k, cells(k))
        store.close()

        log_path = tmp_path / "s1" / "patients" / "rows.log"
        lines = log_path.read_bytes().splitlines(keepends=True)
        lines[4] = f'{{"index":5,"cells":{{"pid":{bad},"name":["1","70"]}}}}\n'.encode()
        log_path.write_bytes(b"".join(lines))

        again = make_store(tmp_path)
        assert column(again, "pid")[0] == [1, 2, 3, 4]
        again.close()

    def test_meta_file_pins_identity(self, tmp_path):
        store = make_store(tmp_path)
        store.close()
        wrong_x = ServerStore(tmp_path / "s1", "s1", 2, p=P)
        with pytest.raises(ValueError):
            wrong_x.load()
        wrong_id = ServerStore(tmp_path / "s1", "s9", 1, p=P)
        with pytest.raises(ValueError):
            wrong_id.load()

    def test_share_values_validated_against_modulus(self, tmp_path):
        store = make_store(tmp_path, p=17)
        store.create_table(SCHEMA)
        store.append_row("patients", 1, {"pid": [16], "name": [1, 2]})
        with pytest.raises(SsdbError) as e:
            # 17 is not a valid share under p=17
            store.append_row("patients", 2, {"pid": [17], "name": [1, 2]})
        assert e.value.code == protocol.VALUE_RANGE


class LiveServer:
    def __init__(self, tmp_path, **kw):
        self.server = ShareServer("s1", 1, tmp_path / "s1", listen=("127.0.0.1", 0), **kw)

    def __enter__(self):
        self.server.start()
        return self.server

    def __exit__(self, *exc):
        self.server.stop()


def ask(server, msg):
    return protocol.request(server.address, msg, p=P)


def fetch(server, attr, indices, req_id="f"):
    """Ask for a push of `attr` at `indices` and return the one push that lands."""
    with socket.create_server(("127.0.0.1", 0)) as sink:
        sink.settimeout(5)
        addr = f"127.0.0.1:{sink.getsockname()[1]}"
        reply = ask(
            server,
            FetchToClient(req_id=req_id, table="patients", attr=attr, indices=indices,
                          client_addr=addr),
        )
        assert isinstance(reply, Ack)  # ack comes before the push lands
        conn, _ = sink.accept()
        with conn:
            conn.settimeout(5)
            decoder = FrameDecoder(P)
            msgs = []
            while not msgs:
                msgs = decoder.feed(conn.recv(65536))
    (push,) = msgs
    return push


class TestShareServerTcp:
    def test_insert_and_get_column(self, tmp_path):
        with LiveServer(tmp_path) as server:
            ask(server, CreateTable(req_id="c", schema=SCHEMA))
            ask(server, InsertShares(req_id="i1", table="patients", index=1, cells=cells(1)))
            ask(server, InsertShares(req_id="i2", table="patients", index=2, cells=cells(2)))
            push = fetch(server, "pid", None)  # the whole column
            assert [(r.index, r.elements) for r in push.rows] == [(1, [101]), (2, [102])]
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
                ask(server, FetchToClient(req_id="g", table="patients", attr="ghost",
                                          client_addr="127.0.0.1:1"))
            assert e.value.code == protocol.NO_SUCH_ATTR
            with pytest.raises(RemoteError) as e:
                ask(server, InsertShares(req_id="i", table="patients", index=5, cells=cells(1)))
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
                ask(server, InsertShares(req_id=f"i{k}", table="patients", index=k, cells=cells(k)))
            push = fetch(server, "name", [3, 1], req_id="f1")
            assert push.type == "DELIVER_SHARES"
            assert push.req_id == "f1"
            assert push.server_x == 1
            assert [(r.index, r.elements) for r in push.rows] == [(3, [1, 68]), (1, [1, 66])]

    def test_fetch_validation_errors_are_synchronous(self, tmp_path):
        with LiveServer(tmp_path) as server:
            ask(server, CreateTable(req_id="c", schema=SCHEMA))
            with pytest.raises(RemoteError) as e:
                ask(
                    server,
                    FetchToClient(
                        req_id="f", table="patients", attr="name", indices=[7],
                        client_addr="127.0.0.1:1",
                    ),
                )
            assert e.value.code == protocol.VALUE_RANGE

    def test_empty_fetch_is_a_valid_push(self, tmp_path):
        with LiveServer(tmp_path) as server:
            ask(server, CreateTable(req_id="c", schema=SCHEMA))
            assert fetch(server, "pid", []).rows == []
            assert fetch(server, "pid", None).rows == []  # every row of an empty table

    def test_restart_replays_from_disk(self, tmp_path):
        with LiveServer(tmp_path) as server:
            ask(server, CreateTable(req_id="c", schema=SCHEMA))
            ask(server, InsertShares(req_id="i", table="patients", index=1, cells=cells(1)))
        # same data dir, fresh process-equivalent
        with LiveServer(tmp_path) as server2:
            push = fetch(server2, "pid", None)
            assert [(r.index, r.elements) for r in push.rows] == [(1, [101])]


def test_daemon_thread_lists_stay_bounded():
    """Finished connection and push threads are dropped, not kept forever."""
    with TestCluster.start(3, 2, seed=9) as cluster:
        cluster.load_fixture_patients()
        for _ in range(50):
            rs = cluster.query("SELECT Patientname FROM patient_details WHERE Diagonosis = 'Aids'")
            assert rs.rows == [["Ann"], ["Dona"]]
        for sid in cluster.live_server_ids():
            server = cluster.handles[sid].server
            assert len(server._service._threads) <= 10, sid
            assert len(server._push_threads) <= 10, sid
        assert len(cluster.hub._service._threads) <= 10
