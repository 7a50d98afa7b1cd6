"""Hub control plane, the dealer's direct writes, the client's direct
fetches, and the topology file."""

import ast
import inspect
import json
import random
import socket
import threading
import time

import pytest

from ssdb import protocol
from ssdb.client import Dealer, HubClient, ResultListener, execute_query
from ssdb.encoding import Attribute, AttrType, TableSchema, encode_value
from ssdb.field import MERSENNE_61
from ssdb.hub import ClusterConfig, Hub, ServerInfo
from ssdb.protocol import (
    CreateTable,
    FetchToClient,
    GetSchema,
    InsertShares,
    RemoteError,
    SchemaResult,
    ShareRows,
    SsdbError,
)
from ssdb.server import ServerStore, ShareServer
from ssdb.shamir import reconstruct
from ssdb.testnet import PATIENT_ROWS, PATIENTS_SCHEMA, PATIENTS_TABLE, TestCluster

from helpers import unpack, vectors

P = MERSENNE_61

SCHEMA = TableSchema(
    "records",
    (Attribute("k", AttrType.INTEGER), Attribute("v", AttrType.TEXT)),
)


def make_config(n=3, t=2, p=P, addr="127.0.0.1"):
    return ClusterConfig(
        p=p,
        n=n,
        t=t,
        servers=tuple(ServerInfo(f"s{k}", k, f"{addr}:{7400 + k}") for k in range(1, n + 1)),
    )


class TestClusterConfig:
    def test_round_trip_through_json(self):
        config = make_config()
        again = ClusterConfig.from_json_dict(config.to_json_dict())
        assert again == config

    def test_p_serializes_as_decimal_string(self):
        obj = make_config().to_json_dict()
        assert obj["p"] == str(P)
        assert isinstance(obj["p"], str)

    def test_file_round_trip(self, tmp_path):
        config = make_config()
        path = tmp_path / "cluster.json"
        config.save(path)
        assert ClusterConfig.load(path) == config
        # the file itself is plain JSON with the documented keys
        on_disk = json.loads(path.read_text())
        assert set(on_disk) == {"p", "n", "t", "servers"}

    def test_validation(self):
        servers = tuple(ServerInfo(f"s{k}", k, f"h:{k}") for k in (1, 2, 3))
        with pytest.raises(ValueError):
            ClusterConfig(p=P, n=2, t=1, servers=servers)  # n != len
        with pytest.raises(ValueError):
            ClusterConfig(p=P, n=3, t=4, servers=servers)  # t > n
        with pytest.raises(ValueError):
            ClusterConfig(p=P, n=3, t=0, servers=servers)
        with pytest.raises(ValueError):
            ClusterConfig(p=P - 2, n=3, t=2, servers=servers)  # another modulus

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig(
                p=P, n=2, t=1,
                servers=(ServerInfo("s1", 1, "h:1"), ServerInfo("s1", 2, "h:2")),
            )
        with pytest.raises(ValueError):
            ClusterConfig(
                p=P, n=2, t=1,
                servers=(ServerInfo("s1", 1, "h:1"), ServerInfo("s2", 1, "h:2")),
            )
        with pytest.raises(ValueError):
            ClusterConfig(
                p=P, n=2, t=1,
                servers=(ServerInfo("s1", 1, "h:1"), ServerInfo("s2", 2, "h:1")),
            )

    @pytest.mark.parametrize("second", ["127.0.0.1:7401", "127.0.0.1:07401"],
                             ids=["same-text", "leading-zero"])
    def test_two_servers_on_one_parsed_address_rejected(self, second):
        servers = (ServerInfo("s1", 1, "127.0.0.1:7401"), ServerInfo("s2", 2, second))
        with pytest.raises(ValueError, match="servers s1 and s2"):
            ClusterConfig(p=P, n=2, t=1, servers=servers)

    def test_host_names_are_compared_as_written(self):
        servers = (ServerInfo("s1", 1, "127.0.0.1:7401"), ServerInfo("s2", 2, "localhost:7401"))
        assert ClusterConfig(p=P, n=2, t=1, servers=servers).servers == servers

    def test_x_must_be_a_nonzero_field_point(self):
        with pytest.raises(ValueError):
            ClusterConfig(p=P, n=1, t=1, servers=(ServerInfo("s1", 0, "h:1"),))
        with pytest.raises(ValueError):
            ClusterConfig(p=P, n=1, t=1, servers=(ServerInfo("s1", P, "h:1"),))

    @pytest.mark.parametrize("port", [
        str(7401 + 65536), "\u0667\u0664\u0660\u0661", "+7401", " 7401", "-1", "",
    ], ids=["past-65535", "arabic-indic", "plus", "space", "negative", "empty"])
    def test_server_address_needs_a_port_of_ascii_digits_up_to_65535(self, port):
        servers = (ServerInfo("s1", 1, "h:65535"), ServerInfo("s2", 2, f"h:{port}"))
        with pytest.raises(ValueError, match="^server s2: address must be host:port"):
            ClusterConfig(p=P, n=2, t=1, servers=servers)

    def test_modulus_must_be_mersenne_61(self):
        for p in (17, 31, (1 << 89) - 1, (1 << 127) - 1):
            with pytest.raises(ValueError, match=r"2\^61 - 1"):
                ClusterConfig(p=p, n=1, t=1, servers=(ServerInfo("s1", 1, "h:1"),))
            with pytest.raises(ValueError, match=r"2\^61 - 1"):
                HubClient("127.0.0.1:1", p=p)
        assert HubClient("127.0.0.1:1", p=P).address == "127.0.0.1:1"

    @pytest.mark.parametrize("name, value", [
        ("n", 1.0), ("n", True), ("t", 1.0), ("t", True), ("x_coord", 1.5), ("x_coord", True),
    ])
    def test_numbers_must_be_integers(self, name, value):
        # a bool or float used to pass, and failed only at an insert or a query
        raw = make_config(n=1, t=1).to_json_dict()
        (raw["servers"][0] if name == "x_coord" else raw)[name] = value
        with pytest.raises(ValueError, match=f"^{name}( of s1)? must be an integer"):
            ClusterConfig.from_json_dict(raw)

    def test_malformed_json_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig.from_json_dict({"p": "17", "n": 1, "t": 1})


class MiniCluster:
    """Three real servers, a hub, and a dealer that writes to the servers directly."""

    def __init__(self, tmp_path, t=2):
        self.servers = []
        infos = []
        for k in (1, 2, 3):
            server = ShareServer(f"s{k}", k, tmp_path / f"s{k}", listen=("127.0.0.1", 0))
            server.start()
            self.servers.append(server)
            infos.append(ServerInfo(f"s{k}", k, server.addr_str))
        self.config = ClusterConfig(p=P, n=3, t=t, servers=tuple(infos))
        self.hub = Hub(self.config, listen=("127.0.0.1", 0))
        self.hub.start()
        self.hub_client = HubClient(self.hub.addr_str)
        self.dealer = Dealer(self.hub_client, self.config, rng=random.Random(0))

    def ask(self, msg):
        return protocol.request(self.hub.address, msg)

    def ask_server(self, k, msg):
        return protocol.request(self.servers[k - 1].address, msg)

    def fetch(self, attr, indices):
        """The client's fetch of `attr` at `indices`: each delivering server's x -> rows."""
        msg = FetchToClient(table="records", attrs=[attr], indices=indices)
        deadline = time.monotonic() + 5
        listener = ResultListener(self.config, lambda info: [msg], self.config.t, deadline)
        return {info.x_coord: reply.rows for info, [reply] in listener.wait()}

    def kill(self, k):
        self.servers[k - 1].stop()

    def stop(self):
        self.hub.stop()
        for server in self.servers:
            server.stop()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()


def pairs(rows):
    """(index, share vector) of each row of a ShareRows."""
    return list(zip(rows.indices, vectors(rows)))


def stored(server, attr="k"):
    rows, _ = server.store.rows_for("records", [attr], None)
    return pairs(rows)


class TestHubRouting:
    def test_create_broadcasts_to_all_servers(self, tmp_path):
        with MiniCluster(tmp_path) as mini:
            mini.dealer.create_table(SCHEMA)
            for k in (1, 2, 3):
                reply = mini.ask_server(k, GetSchema(req_id="g", table="records"))
                assert reply.schema == SCHEMA
            # the hub takes no writes at all
            for msg in (CreateTable(req_id="c", schema=SCHEMA),
                        InsertShares(req_id="i", table="records", attrs=["k", "v"],
                                     cells=ShareRows.pack([1], [[1], [2]]))):
                with pytest.raises(RemoteError) as e:
                    mini.ask(msg)
                assert e.value.code == protocol.INTERNAL

    def test_insert_bundle_is_split_per_server(self, tmp_path):
        with MiniCluster(tmp_path) as mini:
            mini.dealer.create_table(SCHEMA)
            mini.dealer.insert_row(SCHEMA, (7, "A"))
            cuts = [stored(server) for server in mini.servers]
            assert [[index for index, _ in cut] for cut in cuts] == [[1], [1], [1]]
            ys = [cut[0][1][0] for cut in cuts]
            assert len(set(ys)) == 3  # each server holds only its own share
            shares = list(zip((1, 2, 3), ys))
            for pair in ((0, 1), (1, 2), (0, 2)):
                assert reconstruct([shares[i] for i in pair], 2, P) == 7

    def test_get_column_returns_t_tagged_columns(self, tmp_path):
        with MiniCluster(tmp_path) as mini:
            mini.dealer.create_table(SCHEMA)
            mini.dealer.insert_row(SCHEMA, (7, "A"))
            mini.dealer.insert_row(SCHEMA, (8, "B"))
            delivered = mini.fetch("k", None)  # every row
            assert sorted(delivered) == [1, 2]  # exactly t, in configured order
            for x, server in zip(sorted(delivered), mini.servers):
                assert pairs(delivered[x]) == stored(server)

    def test_read_skips_dead_servers(self, tmp_path):
        with MiniCluster(tmp_path) as mini:
            mini.dealer.create_table(SCHEMA)
            mini.dealer.insert_row(SCHEMA, (7, "A"))
            mini.kill(1)
            assert sorted(mini.fetch("k", None)) == [2, 3]

    def test_below_threshold_read_fails(self, tmp_path):
        with MiniCluster(tmp_path) as mini:
            mini.dealer.create_table(SCHEMA)
            mini.kill(1)
            mini.kill(3)
            with pytest.raises(SsdbError) as e:
                mini.fetch("k", None)
            assert e.value.code == protocol.THRESHOLD_UNAVAILABLE

    def test_write_needs_every_server_and_names_the_dead_one(self, tmp_path):
        with MiniCluster(tmp_path) as mini:
            mini.dealer.create_table(SCHEMA)
            mini.kill(2)
            address = mini.config.server_by_id("s2").address
            with pytest.raises(SsdbError) as e:
                mini.dealer.insert_row(SCHEMA, (7, "A"))
            assert e.value.code == protocol.THRESHOLD_UNAVAILABLE
            assert "s2" in e.value.detail and address in e.value.detail
            # the write goes on past s2: stored on s1 and s3, not on s2
            assert [len(stored(server)) for server in mini.servers] == [1, 0, 1]
            with pytest.raises(SsdbError) as e:
                mini.dealer.create_table(SCHEMA)
            assert e.value.code == protocol.THRESHOLD_UNAVAILABLE
            assert "s2" in e.value.detail and address in e.value.detail
            mini.kill(3)
            with pytest.raises(SsdbError) as e:
                mini.dealer.insert_row(SCHEMA, (8, "B"))
            assert "s2" in e.value.detail and "s3" in e.value.detail  # every failed server
            assert "s1" not in e.value.detail

    def test_write_failures_follow_the_read_rule(self, tmp_path):
        # s2 answers ERROR, s3 is down: the error takes s2's code, as the
        # first failure in configured order, and names both
        with MiniCluster(tmp_path) as mini:
            mini.dealer.create_table(SCHEMA)
            mini.ask_server(
                2, InsertShares(req_id="x", table="records", attrs=["k", "v"],
                                cells=ShareRows.pack([1], [[5], [1, 70]]))
            )
            mini.kill(3)
            with pytest.raises(RemoteError) as e:
                mini.dealer.insert_row(SCHEMA, (7, "A"))  # row 1 again on s2
            assert e.value.code == protocol.SCHEMA_MISMATCH
            for sid in ("s2", "s3"):
                assert sid in e.value.detail
                assert mini.config.server_by_id(sid).address in e.value.detail
            assert "s1" not in e.value.detail

    def test_failed_write_lands_on_every_live_server(self):
        with TestCluster.start(3, 2, seed=5) as cluster:
            cluster.create_table(SCHEMA)
            cluster.insert_row(SCHEMA, (1, "kept"))
            cluster.kill_server("s2")
            address = cluster.config.server_by_id("s2").address
            with pytest.raises(SsdbError) as e:
                cluster.insert_row(SCHEMA, (2, "half"))
            assert e.value.code == protocol.THRESHOLD_UNAVAILABLE
            assert "s2" in e.value.detail and address in e.value.detail
            assert "s1" not in e.value.detail and "s3" not in e.value.detail
            # s1 and s3 both took the unacknowledged row, so they agree
            rows = cluster.query("SELECT * FROM records").rows
            assert rows == [[1, "kept"], [2, "half"]]
            cluster.revive_server("s2")
            # Known divergence, not a goal: s2 lacks row 2 and reads now go
            # to s1 and s2, which both hold only row 1. Only a repair
            # (ROADMAP item 4) brings the unacknowledged row 2 back.
            assert cluster.query("SELECT * FROM records").rows == [[1, "kept"]]

    def test_application_errors_propagate_not_skip(self, tmp_path):
        with MiniCluster(tmp_path) as mini:
            # table never created: the first server's NO_SUCH_TABLE must
            # come back as-is instead of being treated as an outage
            with pytest.raises(RemoteError) as e:
                mini.fetch("k", None)
            assert e.value.code == protocol.NO_SUCH_TABLE

    def test_index_disagreement_is_reported(self, tmp_path):
        with MiniCluster(tmp_path) as mini:
            mini.dealer.create_table(SCHEMA)
            mini.dealer.insert_row(SCHEMA, (7, "A"))
            # sneak an extra row into s1 behind the dealer's back
            mini.ask_server(
                1, InsertShares(req_id="x", table="records", attrs=["k", "v"],
                                cells=ShareRows.pack([2], [[5], [1, 70]]))
            )
            # an every-row read keeps the rows both s1 and s2 hold, row 1
            rs = execute_query("SELECT v FROM records WHERE k = 7", mini.hub_client, mini.config)
            assert (rs.indices, rs.rows) == ([1], [["A"]])

    def test_schema_read_uses_first_live_server(self, tmp_path):
        with MiniCluster(tmp_path) as mini:
            mini.dealer.create_table(SCHEMA)
            mini.dealer.insert_row(SCHEMA, (7, "A"))
            mini.kill(1)
            reply = mini.ask(GetSchema(req_id="g", table="records"))
            assert isinstance(reply, SchemaResult)
            assert reply.schema == SCHEMA
            assert reply.rows == 1
            mini.kill(2)
            mini.kill(3)
            with pytest.raises(RemoteError) as e:
                mini.ask(GetSchema(req_id="g2", table="records"))
            assert e.value.code == protocol.THRESHOLD_UNAVAILABLE
            for info in mini.config.servers:  # the hub names every server it tried
                assert info.server_id in e.value.detail and info.address in e.value.detail

    def test_schema_read_keeps_the_client_req_id(self, tmp_path, monkeypatch):
        seen = []  # (service, message type, req_id) of every frame handled and answered
        dispatch = protocol.TcpService._dispatch

        def spy(service, msg):
            seen.append((service._name, msg.type, msg.req_id))
            reply = dispatch(service, msg)
            seen.append((service._name, reply.type, reply.req_id))
            return reply

        with MiniCluster(tmp_path) as mini:
            mini.dealer.create_table(SCHEMA)
            monkeypatch.setattr(protocol.TcpService, "_dispatch", spy)
            mini.hub_client.get_schema("records")
            assert [(name, kind) for name, kind, _ in seen] == [
                ("hub", "GET_SCHEMA"), ("s1", "GET_SCHEMA"),
                ("s1", "SCHEMA_RESULT"), ("hub", "SCHEMA_RESULT"),
            ]
            assert len({req_id for *_, req_id in seen}) == 1 and seen[0][2]
            # a request without a req_id still gets back the one it sent
            assert mini.ask(GetSchema(req_id="", table="records")).req_id == ""

    def test_hung_first_server_times_out_schema_read(self, tmp_path, monkeypatch):
        # s1 takes the connection and never answers: the schema read fails
        # within the hub's deadline and names s1, as a fetch or a write would
        monkeypatch.setattr(protocol, "RESPONSE_TIMEOUT", 0.5)
        with socket.socket() as hung, MiniCluster(tmp_path) as mini:
            hung.bind(("127.0.0.1", 0))
            hung.listen(8)
            s1 = ServerInfo("s1", 1, protocol.format_addr(*hung.getsockname()))
            config = ClusterConfig(p=P, n=3, t=2, servers=(s1,) + mini.config.servers[1:])
            hub = Hub(config, listen=("127.0.0.1", 0))
            hub.start()
            try:
                started = time.monotonic()
                with pytest.raises(RemoteError) as e:
                    HubClient(hub.addr_str).get_schema("records")
                assert time.monotonic() - started < 0.5 + 0.5
            finally:
                hub.stop()
            assert e.value.code == protocol.QUERY_TIMEOUT
            assert "s1" in e.value.detail and s1.address in e.value.detail

    def test_fetch_relay_reaches_exactly_t_servers(self, tmp_path):
        # the client sends each fetch itself; no server beyond the first t hears of it
        with MiniCluster(tmp_path) as mini:
            mini.dealer.create_table(SCHEMA)
            mini.dealer.insert_row(SCHEMA, (7, "A"))
            asked = []
            for server in mini.servers:
                rows_for = server.store.rows_for
                server.store.rows_for = (
                    lambda *args, x=server.x_coord, rows_for=rows_for: asked.append(x)
                    or rows_for(*args)
                )
            delivered = mini.fetch("v", [1])
            assert sorted(delivered) == sorted(asked) == [1, 2]
            assert all(rows.indices == (1,) for rows in delivered.values())

    def test_hub_refuses_fetches(self, tmp_path):
        with MiniCluster(tmp_path) as mini:
            mini.dealer.create_table(SCHEMA)
            with pytest.raises(RemoteError) as e:
                mini.ask(FetchToClient(req_id="f", table="records", attrs=["k"]))
            assert e.value.code == protocol.INTERNAL


def test_no_share_value_crosses_the_hub(monkeypatch):
    """Information flow: every share stored on a server stays off the hub's wire.

    Records the frame of every message the hub receives and answers, and
    of every request and reply that the hub's threads exchange with a
    server, across a fixture load, queries with all servers up, and a
    query with one server down. No stored share may appear in them,
    neither as a decimal string nor as its packed bytes.
    """
    recorded = []
    to_servers = []  # the type of every request the hub sent a server

    def on_hub_thread():
        return threading.current_thread().name.startswith("hub-")

    def keep(frame):
        if on_hub_thread():
            recorded.append(frame)

    handle = Hub.handle
    open_exchange = protocol.Exchange.__init__
    read_replies = protocol.Exchange.replies

    def spy_handle(self, msg):
        keep(protocol.encode_frame(msg))
        try:
            reply = handle(self, msg)
        except Exception as exc:
            keep(str(exc).encode())
            raise
        keep(protocol.encode_frame(reply))
        return reply

    def spy_open(self, addr, frames, req_id, **kwargs):
        if on_hub_thread():
            to_servers.extend(protocol.decode_frame(frame)[0].type for frame in frames)
            recorded.extend(frames)
        open_exchange(self, addr, frames, req_id, **kwargs)

    def spy_replies(self, *args):
        try:
            replies = read_replies(self, *args)
        except Exception as exc:
            keep(str(exc).encode())
            raise
        for reply in replies:
            keep(protocol.encode_frame(reply))
        return replies

    monkeypatch.setattr(Hub, "handle", spy_handle)  # before the hub binds it
    monkeypatch.setattr(protocol.Exchange, "__init__", spy_open)
    monkeypatch.setattr(protocol.Exchange, "replies", spy_replies)
    hospital = "SELECT Patientname FROM patient_details WHERE Diagonosis = 'Aids'"
    with TestCluster.start(3, 2, seed=31) as cluster:
        cluster.load_fixture_patients()
        assert len(cluster.query("SELECT * FROM patient_details").rows) == 4
        assert cluster.query(hospital).rows == [["Ann"], ["Dona"]]
        cluster.kill_server("s1")
        assert cluster.query(hospital).rows == [["Ann"], ["Dona"]]
        shares = set()
        for handle in cluster.handles.values():  # what a replay of each log holds
            store = ServerStore(handle.data_dir, handle.info.server_id, handle.info.x_coord)
            store.load()
            for attr in PATIENTS_SCHEMA.attr_names():
                rows, _ = store.rows_for(PATIENTS_TABLE, [attr], None)
                shares.update(unpack(rows.packed))

    # every element of every cell, once on each of the 3 servers
    elements = sum(
        len(encode_value(a.type, v))
        for row in PATIENT_ROWS for a, v in zip(PATIENTS_SCHEMA.attributes, row)
    )
    assert len(shares) == 3 * elements and recorded
    assert "GET_SCHEMA" in to_servers  # the spy saw the hub's own server reads
    # the hub serves schema reads and nothing else; fetches go to the servers
    assert {b"GET_SCHEMA", b"SCHEMA_RESULT"} == {
        json.loads(frame[4:].partition(b"\n")[0])["type"].encode()
        for frame in recorded if frame[4:5] == b"{"
    }
    leaked = {
        v for v in shares
        if any(str(v).encode() in frame or v.to_bytes(8, "big") in frame for frame in recorded)
    }
    assert not leaked, f"{len(leaked)} of {len(shares)} stored shares crossed the hub"


def test_hub_module_never_touches_share_math():
    import ssdb.hub

    source = inspect.getsource(ssdb.hub)
    tree = ast.parse(source)
    forbidden_calls = {"split", "reconstruct", "lagrange_weights"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert all("shamir" not in alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            assert "shamir" not in module
            assert all("shamir" not in alias.name for alias in node.names)
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            assert name not in forbidden_calls, f"hub calls {name}()"
    assert not hasattr(ssdb.hub, "reconstruct")
