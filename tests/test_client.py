"""Query language, dealer writes, delivery listener, and the pipeline."""

import time
import zlib

import pytest

from ssdb import field, protocol
from ssdb.client import (
    Dealer,
    HubClient,
    Predicate,
    Query,
    QuerySyntaxError,
    ResultListener,
    ResultSet,
    evaluate_predicate,
    execute_query,
    parse_query,
)
from ssdb.encoding import Attribute, AttrType, TableSchema, encode_value
from ssdb.field import MERSENNE_61
from ssdb.hub import ClusterConfig, ServerInfo
from ssdb.protocol import (
    Ack,
    DeliverShares,
    InsertShares,
    SchemaResult,
    ShareRows,
    SsdbError,
)
from ssdb.shamir import reconstruct, split
from ssdb.testnet import PATIENTS_SCHEMA, TestCluster

P = MERSENNE_61


class TestParseQuery:
    def test_single_attribute(self):
        q = parse_query("SELECT Patientname FROM patient_details")
        assert q == Query(select_attrs=("Patientname",), table="patient_details")

    def test_multiple_attributes(self):
        q = parse_query("SELECT a, b ,c FROM t")
        assert q.select_attrs == ("a", "b", "c")

    def test_star(self):
        assert parse_query("SELECT * FROM t").select_attrs == ("*",)

    def test_keywords_case_insensitive_names_case_sensitive(self):
        q = parse_query("select Patientname frOM patient_details WHere Doctorid < 30")
        assert q.select_attrs == ("Patientname",)
        assert q.table == "patient_details"
        assert q.predicate == Predicate("Doctorid", "<", 30)

    @pytest.mark.parametrize("op", ["=", "!=", "<", "<=", ">", ">="])
    def test_all_comparisons(self, op):
        q = parse_query(f"SELECT a FROM t WHERE a {op} 5")
        assert q.predicate == Predicate("a", op, 5)

    def test_string_literal(self):
        q = parse_query("SELECT a FROM t WHERE d = 'Aids'")
        assert q.predicate == Predicate("d", "=", "Aids")

    def test_string_literal_quote_escape(self):
        q = parse_query("SELECT a FROM t WHERE d = 'O''Brien'")
        assert q.predicate.literal == "O'Brien"
        assert parse_query("SELECT a FROM t WHERE d = ''''").predicate.literal == "'"

    def test_empty_string_literal(self):
        assert parse_query("SELECT a FROM t WHERE d = ''").predicate.literal == ""

    def test_literal_with_spaces_and_unicode(self):
        q = parse_query("SELECT a FROM t WHERE d = 'héllo wörld 😀'")
        assert q.predicate.literal == "héllo wörld 😀"

    def test_no_predicate(self):
        assert parse_query("SELECT a FROM t").predicate is None

    def test_errors_carry_positions(self):
        with pytest.raises(QuerySyntaxError) as e:
            parse_query("SELECT FROM x")
        assert e.value.pos == 7
        with pytest.raises(QuerySyntaxError) as e:
            parse_query("SELECT a WHERE")
        assert e.value.pos == 9

    def test_unterminated_string(self):
        with pytest.raises(QuerySyntaxError) as e:
            parse_query("SELECT a FROM t WHERE d = 'oops")
        assert "unterminated" in str(e.value)

    def test_trailing_junk_rejected(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("SELECT a FROM t WHERE a = 1 extra")
        with pytest.raises(QuerySyntaxError):
            parse_query("SELECT a FROM t,")

    def test_bad_operator(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("SELECT a FROM t WHERE a ! 1")
        with pytest.raises(QuerySyntaxError):
            parse_query("SELECT a FROM t WHERE a ~ 1")

    def test_must_start_with_select(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("DELETE FROM t")

    def test_missing_pieces(self):
        for text in ("", "SELECT", "SELECT a", "SELECT a FROM",
                     "SELECT a FROM t WHERE", "SELECT a FROM t WHERE a =",
                     "SELECT , FROM t", "SELECT a, FROM t"):
            with pytest.raises(QuerySyntaxError):
                parse_query(text)


class TestEvaluatePredicate:
    DOCTOR = list(zip([1, 2, 3, 4], [51, 21, 51, 26]))
    DIAG = list(zip([1, 2, 3, 4], ["Aids", "Cancer", "Fever", "Aids"]))

    def test_no_predicate_keeps_all(self):
        assert evaluate_predicate(self.DOCTOR, None, AttrType.INTEGER) == [1, 2, 3, 4]

    def test_integer_less_than(self):
        pred = Predicate("Doctorid", "<", 30)
        assert evaluate_predicate(self.DOCTOR, pred, AttrType.INTEGER) == [2, 4]

    def test_text_equality(self):
        pred = Predicate("Diagonosis", "=", "Aids")
        assert evaluate_predicate(self.DIAG, pred, AttrType.TEXT) == [1, 4]

    def test_remaining_integer_ops(self):
        cases = {
            "=": [1, 3], "!=": [2, 4], "<=": [2, 4], ">": [1, 3], ">=": [1, 3],
        }
        for op, expected in cases.items():
            lit = 51 if op in ("=", "!=", ">=") else 30
            assert evaluate_predicate(self.DOCTOR, Predicate("d", op, lit),
                                      AttrType.INTEGER) == expected, op

    def test_text_ordering_is_utf8_byte_order(self):
        rows = list(zip([1, 2, 3], ["Zoo", "apple", "émigré"]))
        # b"Zoo" < b"apple" < "émigré".encode() because 0x5A < 0x61 < 0xC3
        pred = Predicate("d", ">", "Zoo")
        assert evaluate_predicate(rows, pred, AttrType.TEXT) == [2, 3]
        pred = Predicate("d", "<", "apple")
        assert evaluate_predicate(rows, pred, AttrType.TEXT) == [1]

    def test_type_mismatch_rejected(self):
        with pytest.raises(ValueError):
            evaluate_predicate(self.DOCTOR, Predicate("d", "=", "x"), AttrType.INTEGER)
        with pytest.raises(ValueError):
            evaluate_predicate(self.DIAG, Predicate("d", "=", 3), AttrType.TEXT)


def make_config(n=3, t=2):
    return ClusterConfig(
        p=P, n=n, t=t,
        servers=tuple(ServerInfo(f"s{k}", k, f"127.0.0.1:{7500 + k}") for k in range(1, n + 1)),
    )


class FakeCluster:
    """Answers the dealer's row-count reads and records its direct writes.

    Stands in for the hub (get_schema) and, through a patched
    protocol.request, for every share server; nothing touches the network.
    """

    def __init__(self, monkeypatch, config, row_count=0):
        self.config = config
        self.row_count = row_count
        self.schema_calls = 0
        self.writes = []  # (server id, message) in send order
        self.down = set()  # server ids that refuse connections
        monkeypatch.setattr(protocol, "request", self._request)

    def get_schema(self, table):
        self.schema_calls += 1
        return SchemaResult(schema=SCHEMA2, rows=self.row_count)

    def _request(self, addr, msg, **kwargs):
        (info,) = [s for s in self.config.servers if protocol.parse_addr(s.address) == addr]
        if info.server_id in self.down:
            raise ConnectionRefusedError(f"{info.address} refused")
        self.writes.append((info.server_id, msg))
        return Ack()

    def bundles(self):
        """Each insert's (table, index, per-server cells), rebuilt from the writes."""
        out = {}
        for sid, msg in self.writes:
            assert isinstance(msg, InsertShares)
            (index,) = msg.cells.indices
            out.setdefault((msg.table, index), {})[sid] = dict(
                zip(msg.attrs, msg.cells.vectors(self.config.p))
            )
        return [(table, index, per_server) for (table, index), per_server in out.items()]


SCHEMA2 = TableSchema(
    "t", (Attribute("k", AttrType.INTEGER), Attribute("v", AttrType.TEXT))
)


@pytest.fixture
def fake(monkeypatch):
    config = make_config()
    hub = FakeCluster(monkeypatch, config)
    return hub, Dealer(hub, config)


class TestDealer:
    def test_wrong_arity_sends_nothing(self, fake):
        hub, dealer = fake
        with pytest.raises(ValueError):
            dealer.insert_row(SCHEMA2, (1,))
        with pytest.raises(ValueError):
            dealer.insert_row(SCHEMA2, (1, "x", 3))
        assert hub.writes == [] and hub.schema_calls == 0

    def test_wrong_type_sends_nothing(self, fake):
        hub, dealer = fake
        with pytest.raises(ValueError):
            dealer.insert_row(SCHEMA2, ("not-int", "x"))
        assert hub.writes == [] and hub.schema_calls == 0

    def test_bundle_shape_and_reconstruction(self, fake):
        hub, dealer = fake
        values = (12345, "Aids")
        dealer.insert_row(SCHEMA2, values)
        # one message per server, in configured order, each its own cut
        assert [sid for sid, _ in hub.writes] == ["s1", "s2", "s3"]
        (table, index, per_server) = hub.bundles()[0]
        assert table == "t" and index == 1

        for attr, value in zip(SCHEMA2.attributes, values):
            plain = encode_value(attr.type, value, P)
            vectors = {sid: per_server[sid][attr.name] for sid in per_server}
            assert all(len(vec) == len(plain) for vec in vectors.values())
            # independent check: the shares really interpolate back
            for j, element in enumerate(plain):
                shares = [(k, vectors[f"s{k}"][j]) for k in (1, 2, 3)]
                assert reconstruct(shares[:2], 2, P) == element
                assert reconstruct(shares[1:], 2, P) == element

    def test_no_plaintext_encoding_leaves_the_dealer(self, fake):
        hub, dealer = fake
        values = (999, "a long secret string that must never travel whole")
        dealer.insert_row(SCHEMA2, values)
        (_, _, per_server) = hub.bundles()[0]
        for attr, value in zip(SCHEMA2.attributes, values):
            plain = encode_value(attr.type, value, P)
            for sid in per_server:
                assert per_server[sid][attr.name] != plain

    def test_plaintext_share_vector_refused_before_any_write(self):
        class ZeroRng:
            def randrange(self, n):
                return 0  # every blinding coefficient 0: each share equals its secret

        with TestCluster.start(3, 2, seed=23) as cluster:
            cluster.create_table(SCHEMA2)
            dealer = Dealer(cluster.hub_client, cluster.config, rng=ZeroRng())
            with pytest.raises(SsdbError) as e:
                dealer.insert_row(SCHEMA2, (12345, "Aids"))
            assert e.value.code == protocol.INTERNAL
            for sid in ("s1", "s2", "s3"):
                assert cluster.rows_log_bytes(sid, "t") == b""

    def test_next_index_discovered_then_cached(self, fake):
        hub, dealer = fake
        hub.row_count = 3
        assert dealer.insert_row(SCHEMA2, (1, "a")) == 4
        assert dealer.insert_row(SCHEMA2, (2, "b")) == 5
        assert hub.schema_calls == 1  # second insert reused the cache

    def test_failed_insert_invalidates_cache(self, fake):
        hub, dealer = fake
        assert dealer.insert_row(SCHEMA2, (1, "a")) == 1
        hub.down = {"s2"}
        with pytest.raises(SsdbError):
            dealer.insert_row(SCHEMA2, (2, "b"))
        hub.down = set()
        hub.row_count = 1  # pretend only the first landed
        assert dealer.insert_row(SCHEMA2, (2, "b")) == 2
        assert hub.schema_calls == 2


class TestResultListener:
    def push(self, req_id, x, rows):
        """A delivery of {index: share vector}."""
        return DeliverShares(
            req_id=req_id, table="t", attr="a", server_x=x,
            rows=ShareRows.pack(list(rows), list(rows.values()), P),
        )

    def test_completes_after_t_distinct_servers(self):
        listener = ResultListener(p=P)
        try:
            pf = listener.register("r1", 2)
            listener._route(self.push("r1", 1, {1: [5]}))
            assert not pf.done.is_set()
            listener._route(self.push("r1", 2, {1: [6]}))
            pushes = listener.wait(pf, time.monotonic() + 1)
            assert sorted(pushes) == [1, 2]
        finally:
            listener.close()

    def test_duplicate_identical_push_ignored(self):
        listener = ResultListener(p=P)
        try:
            pf = listener.register("r1", 2)
            msg = self.push("r1", 1, {1: [5]})
            listener._route(msg)
            listener._route(self.push("r1", 1, {1: [5]}))
            assert not pf.done.is_set()  # still only one distinct server
        finally:
            listener.close()

    def test_conflicting_duplicate_is_corruption(self):
        listener = ResultListener(p=P)
        try:
            pf = listener.register("r1", 2)
            listener._route(self.push("r1", 1, {1: [5]}))
            listener._route(self.push("r1", 1, {1: [999]}))
            with pytest.raises(SsdbError) as e:
                listener.wait(pf, time.monotonic() + 1)
            assert e.value.code == protocol.DATA_CORRUPTION
        finally:
            listener.close()

    def test_unknown_req_id_ignored(self):
        listener = ResultListener(p=P)
        try:
            listener._route(self.push("mystery", 1, {}))  # must not raise
        finally:
            listener.close()

    def test_timeout(self):
        listener = ResultListener(p=P)
        try:
            pf = listener.register("r1", 2)
            with pytest.raises(SsdbError) as e:
                listener.wait(pf, time.monotonic() + 0.05)
            assert e.value.code == protocol.QUERY_TIMEOUT
        finally:
            listener.close()

    def test_receives_real_pushes_over_tcp(self):
        listener = ResultListener(p=P)
        try:
            pf = listener.register("r9", 2)
            addr = protocol.parse_addr(listener.addr_str)
            protocol.push(addr, self.push("r9", 1, {1: [5]}))
            protocol.push(addr, self.push("r9", 3, {1: [7]}))
            pushes = listener.wait(pf, time.monotonic() + 5)
            assert sorted(pushes) == [1, 3]
        finally:
            listener.close()


@pytest.fixture(scope="module")
def patients():
    with TestCluster.start(3, 2, seed=11) as cluster:
        cluster.load_fixture_patients()
        yield cluster


def counting_hub(cluster):
    hub = HubClient(cluster.hub.addr_str, p=P)
    calls = []
    original = hub.fetch_to_client

    def spy(table, attr, indices, client_addr, req_id):
        calls.append((attr, indices))
        return original(table, attr, indices, client_addr, req_id)

    hub.fetch_to_client = spy
    return hub, calls


class TestExecuteQuery:
    def test_select_where_on_other_attribute(self, patients):
        rs = patients.query(
            "SELECT Patientname FROM patient_details WHERE Diagonosis = 'Aids'"
        )
        assert rs.columns == ["Patientname"]
        assert rs.indices == [1, 4]
        assert rs.rows == [["Ann"], ["Dona"]]

    def test_condition_column_is_reused_when_selected(self, patients):
        hub, calls = counting_hub(patients)
        rs = execute_query(
            "SELECT Diagonosis, Patientname FROM patient_details WHERE Diagonosis = 'Aids'",
            hub, patients.config,
        )
        assert rs.rows == [["Aids", "Ann"], ["Aids", "Dona"]]
        # Diagonosis is fetched once, as the every-row condition fetch
        assert calls == [("Diagonosis", None), ("Patientname", [1, 4])]

    def test_no_predicate_single_attr_needs_one_delivery(self, patients):
        hub, calls = counting_hub(patients)
        rs = execute_query("SELECT Patientid FROM patient_details", hub, patients.config)
        assert rs.rows == [[101], [102], [103], [104]]
        assert calls == [("Patientid", None)]  # the condition fetch is the whole answer

    def test_duplicate_select_attr_fetched_once(self, patients):
        hub, calls = counting_hub(patients)
        rs = execute_query(
            "SELECT Patientname, Patientname FROM patient_details WHERE Patientid = 103",
            hub, patients.config,
        )
        assert rs.rows == [["Cara", "Cara"]]
        # selected twice, delivered once
        assert calls == [("Patientid", None), ("Patientname", [3])]

    def test_star_follows_schema_order(self, patients):
        rs = patients.query("SELECT * FROM patient_details WHERE Patientid = 102")
        assert rs.columns == ["Patientid", "Patientname", "Doctorid", "Diagonosis"]
        assert rs.rows == [[102, "Bony", 21, "Cancer"]]

    def test_empty_result(self, patients):
        hub, calls = counting_hub(patients)
        rs = execute_query(
            "SELECT Patientname FROM patient_details WHERE Doctorid > 1000",
            hub, patients.config,
        )
        assert rs.rows == [] and rs.indices == []
        # vacuous fetch still happens
        assert calls == [("Doctorid", None), ("Patientname", [])]

    def test_unknown_table_and_attr(self, patients):
        with pytest.raises(SsdbError) as e:
            patients.query("SELECT a FROM ghost")
        assert e.value.code == protocol.NO_SUCH_TABLE
        with pytest.raises(SsdbError) as e:
            patients.query("SELECT ghost FROM patient_details")
        assert e.value.code == protocol.NO_SUCH_ATTR
        with pytest.raises(SsdbError) as e:
            patients.query("SELECT Patientname FROM patient_details WHERE ghost = 1")
        assert e.value.code == protocol.NO_SUCH_ATTR

    def test_literal_type_must_match_attribute(self, patients):
        with pytest.raises(ValueError):
            patients.query("SELECT Patientname FROM patient_details WHERE Doctorid = 'x'")
        with pytest.raises(ValueError):
            patients.query("SELECT Patientname FROM patient_details WHERE Diagonosis = 3")

    def test_unicode_and_quotes_round_trip(self):
        schema = TableSchema("notes", (Attribute("body", AttrType.TEXT),))
        with TestCluster.start(3, 2, seed=5) as cluster:
            cluster.create_table(schema)
            tricky = "O'Brien said 'héllo' 😀"
            cluster.insert_row(schema, (tricky,))
            cluster.insert_row(schema, ("",))
            lit = tricky.replace("'", "''")
            rs = cluster.query(f"SELECT body FROM notes WHERE body = '{lit}'")
            assert rs.rows == [[tricky]]
            rs = cluster.query("SELECT body FROM notes WHERE body = ''")
            assert rs.rows == [[""]]

    def test_query_object_accepted_directly(self, patients):
        q = Query(select_attrs=("Patientname",), table="patient_details",
                  predicate=Predicate("Doctorid", "<", 30))
        rs = execute_query(q, patients.hub_client, patients.config)
        assert rs.rows == [["Bony"], ["Dona"]]

    def test_result_set_json_rows(self):
        rs = ResultSet(columns=["a", "b"], indices=[1, 2], rows=[[1, "x"], [2, "y"]])
        assert rs.to_json_rows() == [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]


class TestQueryFailureModes:
    def test_dropped_deliveries_time_out(self, patients):
        class DroppingHub(HubClient):
            def fetch_to_client(self, *args, **kwargs):
                pass  # swallow the relay: no server will ever push

        hub = DroppingHub(patients.hub.addr_str, p=P)
        started = time.monotonic()
        with pytest.raises(SsdbError) as e:
            execute_query(
                "SELECT Patientname FROM patient_details WHERE Diagonosis = 'Aids'",
                hub, patients.config, timeout=0.4,
            )
        assert e.value.code == protocol.QUERY_TIMEOUT
        assert time.monotonic() - started < 5

    def test_tampered_share_detected_on_decode(self):
        with TestCluster.start(3, 2, seed=13) as cluster:
            cluster.load_fixture_patients()
            cluster.kill_server("s1")
            log_path = cluster.handles["s1"].data_dir / "patient_details" / "rows.log"
            raw = bytearray(log_path.read_bytes())
            # row 1's record: length, crc32, index, 4 counts, then the shares
            length = int.from_bytes(raw[:4], "big")
            counts = [int.from_bytes(raw[12 + 4 * k : 16 + 4 * k], "big") for k in range(4)]
            # blow up the reconstructed length prefix of the TEXT cell Diagonosis
            at = 8 + 4 + 16 + 8 * sum(counts[:3])
            share = int.from_bytes(raw[at : at + 8], "big")
            raw[at : at + 8] = ((share + (1 << 40)) % P).to_bytes(8, "big")
            raw[4:8] = zlib.crc32(raw[8 : 8 + length]).to_bytes(4, "big")  # still a valid record
            log_path.write_bytes(bytes(raw))
            cluster.revive_server("s1")
            with pytest.raises(SsdbError) as e:
                cluster.query("SELECT Patientname FROM patient_details WHERE Diagonosis = 'Aids'")
            assert e.value.code == protocol.DATA_CORRUPTION

    def test_share_vector_width_disagreement_detected(self):
        schema = TableSchema("w", (Attribute("v", AttrType.TEXT),))
        with TestCluster.start(3, 2, seed=17) as cluster:
            cluster.create_table(schema)
            # bypass the hub: same index, different element counts
            widths = {"s1": [1, 2, 3], "s2": [1, 2], "s3": [1, 2]}
            for sid, vec in widths.items():
                addr = protocol.parse_addr(cluster.handles[sid].info.address)
                protocol.request(
                    addr,
                    InsertShares(
                        req_id=f"x-{sid}", table="w", attrs=["v"],
                        cells=ShareRows.pack([1], [vec], P),
                    ),
                    p=P,
                )
            with pytest.raises(SsdbError) as e:
                cluster.query("SELECT v FROM w")
            assert e.value.code == protocol.DATA_CORRUPTION

    @pytest.mark.parametrize("stray_x", [P + 1, 7], ids=["x=p+1", "x=7"])
    def test_push_from_unconfigured_x_is_corruption(self, patients, stray_x):
        # two well-formed pushes whose shares interpolate cleanly: one from
        # s1's x=1, one from an x no configured server has (p+1 is 1 mod p)
        ys = [split(e, [1, stray_x], 2, P) for e in encode_value(AttrType.INTEGER, 101, P)]

        class StrayHub(HubClient):
            def fetch_to_client(self, table, attr, indices, client_addr, req_id):
                addr = protocol.parse_addr(client_addr)
                for k, x in enumerate((1, stray_x)):  # one row, every-row fetch
                    rows = ShareRows.pack([1], [[y[k] for y in ys]], P)
                    protocol.push(addr, DeliverShares(
                        req_id=req_id, table=table, attr=attr, server_x=x, rows=rows,
                    ))

        hub = StrayHub(patients.hub.addr_str, p=P)
        with pytest.raises(SsdbError) as e:
            execute_query("SELECT Patientid FROM patient_details", hub, patients.config)
        assert e.value.code == protocol.DATA_CORRUPTION


def test_hot_path_never_tests_primality(monkeypatch):
    """p is checked once, by ClusterConfig; inserts and queries never re-check it."""
    with TestCluster.start(3, 2, seed=19) as cluster:
        cluster.create_table(PATIENTS_SCHEMA)
        calls = []
        real = field.is_prime
        monkeypatch.setattr(field, "is_prime", lambda n: calls.append(n) or real(n))
        for row in ((1, "Ann", 5, "Aids"), (2, "Bo", 6, "Flu"), (3, "Cy", 5, "Aids")):
            cluster.dealer.insert_row(PATIENTS_SCHEMA, row)
        rs = execute_query(
            "SELECT Patientname FROM patient_details WHERE Doctorid = 5",
            cluster.hub_client, cluster.config,
        )
        assert rs.rows == [["Ann"], ["Cy"]]
        assert calls == []
