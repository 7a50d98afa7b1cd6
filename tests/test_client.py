"""Query language, dealer writes, the client's share fetch, and the pipeline."""

import contextlib
import operator
import random
import socket
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
import zlib
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ssdb import client, protocol
from ssdb.client import (
    Dealer,
    HubClient,
    Predicate,
    Query,
    QuerySyntaxError,
    ResultListener,
    ResultSet,
    _CHUNK,
    _reconstruct_matrix,
    evaluate_predicate,
    execute_query,
    parse_query,
)
from ssdb.encoding import MAX_TEXT_BYTES, Attribute, AttrType, TableSchema, encode_value
from ssdb.field import MERSENNE_61
from ssdb.hub import ClusterConfig, Hub, ServerInfo
from ssdb.protocol import (
    Ack,
    DeliverShares,
    FetchToClient,
    GetSchema,
    InsertShares,
    RemoteError,
    SchemaResult,
    ShareRows,
    SsdbError,
)
from ssdb.shamir import lagrange_weights, reconstruct, split
from ssdb.testnet import PATIENT_ROWS, PATIENTS_SCHEMA, PATIENTS_TABLE, TestCluster

from helpers import HOSTILE_FRAMES, FrameReader, unpack, vectors

P = MERSENNE_61

KEYWORDS = ("SELECT", "FROM", "WHERE")
COMPARISONS = ("=", "!=", "<", "<=", ">", ">=")
# the schema's identifier rule, keywords in any letter case left out
NAMES = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]*", fullmatch=True).filter(
    lambda name: name.upper() not in KEYWORDS
)
LITERALS = st.one_of(
    st.integers(min_value=0),
    st.text(st.one_of(st.just("'"), st.characters(), st.characters(min_codepoint=0x10000))),
)


@st.composite
def written_queries(draw):
    """A random Query and one way to write it: random keyword case and spacing."""

    def space(least=0):
        return draw(st.text(st.sampled_from(" \t\n\x0b\xa0\u3000"), min_size=least, max_size=2))

    def keyword(word):
        return "".join(c.lower() if draw(st.booleans()) else c for c in word)

    def literal(value):
        return str(value) if isinstance(value, int) else "'" + value.replace("'", "''") + "'"

    select = draw(st.just(("*",)) | st.lists(NAMES, min_size=1, max_size=4).map(tuple))
    table = draw(NAMES)
    predicate = draw(
        st.none() | st.builds(Predicate, NAMES, st.sampled_from(COMPARISONS), LITERALS)
    )
    if select == ("*",):
        text = space() + keyword("SELECT") + space() + "*" + space()
    else:
        commas = "".join(space() + "," + space() + name for name in select[1:])
        text = space() + keyword("SELECT") + space(1) + select[0] + commas + space(1)
    text += keyword("FROM") + space(1) + table
    if predicate is not None:
        text += space(1) + keyword("WHERE") + space(1) + predicate.attr
        text += space() + predicate.op + space() + literal(predicate.literal)
    return Query(select, table, predicate), text + space()


# pieces of queries, good and bad, for texts that get past the first token
PIECES = st.sampled_from([
    "SELECT", "select", "FROM", "WHERE", "*", ",", "a", "t_1", "é", "²", "1", "'", "''", "'x'",
    "=", "!=", "<=", "!", "~", " ", "\n",
])


class TestParseQuery:
    @given(written_queries())
    @settings(max_examples=300)
    def test_written_query_parses_back(self, written):
        query, text = written
        assert parse_query(text) == query

    @given(st.text() | st.lists(PIECES, max_size=12).map("".join))
    @settings(max_examples=300)
    @example("SELECT a FROM t WHERE d = 'oops")
    @example("SELECT a FROM t WHERE a = ")
    def test_syntax_error_offset_lies_in_the_text(self, text):
        try:
            parse_query(text)
        except QuerySyntaxError as exc:
            assert 0 <= exc.pos <= len(text)

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

    @pytest.mark.parametrize("literal", ["²", "٣", "1٣"], ids=["superscript", "arabic", "mixed"])
    def test_int_literals_are_ascii_digits(self, literal):
        # str.isdigit takes both; int() refuses '²' and reads '٣' as 3
        text = f"SELECT a FROM t WHERE a = {literal}"
        with pytest.raises(QuerySyntaxError) as e:
            parse_query(text)
        assert e.value.pos == text.index(literal[-1])

    def test_int_literal_past_the_digit_limit_is_a_syntax_error(self):
        # int() refuses a string of more than 4,300 digits by default
        text = "SELECT a FROM t WHERE a = " + "9" * 5000
        with pytest.raises(QuerySyntaxError) as e:
            parse_query(text)
        assert e.value.pos == 26
        assert parse_query("SELECT a FROM t WHERE a = " + "9" * 4300).predicate.literal > 0

    @pytest.mark.parametrize("text, pos", [("SELECT é FROM t", 7), ("SELECT a FROM tå", 15)])
    def test_names_follow_the_schema_rule(self, text, pos):
        # no table or attribute can hold such a name, so no schema is read
        with pytest.raises(QuerySyntaxError) as e:
            parse_query(text)
        assert e.value.pos == pos

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

    def test_literal_without_an_operator(self):
        text = "SELECT a FROM t WHERE a 'x'"
        with pytest.raises(QuerySyntaxError, match="expected comparison operator") as e:
            parse_query(text)
        assert e.value.pos == text.index("'x'")

    def test_must_start_with_select(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("DELETE FROM t")

    def test_missing_pieces(self):
        for text in ("", "SELECT", "SELECT a", "SELECT a FROM",
                     "SELECT a FROM t WHERE", "SELECT a FROM t WHERE a =",
                     "SELECT , FROM t", "SELECT a, FROM t"):
            with pytest.raises(QuerySyntaxError):
                parse_query(text)


# every comparison, applied to the values' UTF-8 bytes
BYTE_ORDER = {
    "=": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}
# any text that UTF-8 can encode (no lone surrogates), astral characters often
UNICODE = st.text(
    st.one_of(st.characters(codec="utf-8"), st.characters(min_codepoint=0x10000)), max_size=8
)


class TestEvaluatePredicate:
    DOCTOR = [51, 21, 51, 26]  # rows 1..4
    DIAG = ["Aids", "Cancer", "Fever", "Aids"]

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
        rows = ["Zoo", "apple", "émigré"]
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

    def test_unknown_comparison_rejected(self):
        with pytest.raises(ValueError, match="unknown comparison '<>'"):
            Predicate("a", "<>", 1)

    @given(UNICODE, UNICODE, st.sampled_from(list(BYTE_ORDER)))
    @example("\uff21", "\U0001f600", "<")  # UTF-16 code units would order these the other way
    @example("a\U0001f600", "a\U0001f600", "=")
    @example("a", "a\U0001f600", "<=")
    def test_text_ordering_matches_utf8_bytes_for_any_text(self, value, literal, op):
        got = evaluate_predicate([value], Predicate("d", op, literal), AttrType.TEXT)
        want = BYTE_ORDER[op](value.encode("utf-8"), literal.encode("utf-8"))
        assert got == ([1] if want else [])

    def test_text_literal_must_be_encodable(self):
        with pytest.raises(UnicodeEncodeError):
            evaluate_predicate(self.DIAG, Predicate("d", "=", "\ud800"), AttrType.TEXT)


def make_config(n=3, t=2):
    return ClusterConfig(
        p=P, n=n, t=t,
        servers=tuple(ServerInfo(f"s{k}", k, f"127.0.0.1:{7500 + k}") for k in range(1, n + 1)),
    )


class FakeCluster:
    """Answers the dealer's table reads and records its writes.

    Stands in, through a patched protocol.Exchange, for every share
    server: each reports `row_count` rows of SCHEMA2 and acknowledges
    every write; nothing touches the network.
    """

    def __init__(self, monkeypatch, config, row_count=0):
        self.config = config
        self.row_count = row_count
        self.reads = set()  # req_ids of the GET_SCHEMAs sent, one per table read
        self.writes = []  # (server id, message) in send order
        self.down = set()  # server ids that refuse connections
        monkeypatch.setattr(protocol, "Exchange", self._exchange)

    @property
    def schema_calls(self):
        return len(self.reads)

    def _exchange(self, addr, frames, req_id, **kwargs):
        """Sent requests: recorded now, answered when their replies are read."""
        (info,) = [s for s in self.config.servers if protocol.parse_addr(s.address) == addr]
        if info.server_id in self.down:
            raise ConnectionRefusedError(f"{info.address} refused")
        replies = []
        for frame in frames:
            msg, _ = protocol.decode_frame(frame)
            assert msg.req_id == req_id
            if isinstance(msg, GetSchema):
                self.reads.add(msg.req_id)
                replies.append(SchemaResult(schema=SCHEMA2, rows=self.row_count))
            else:
                self.writes.append((info.server_id, msg))
                replies.append(Ack())
        return SimpleNamespace(replies=lambda timeout=None: replies, close=lambda: None)

    def bundles(self):
        """Each insert's (table, index, per-server cells), rebuilt from the writes."""
        out = {}
        for sid, msg in self.writes:
            assert isinstance(msg, InsertShares)
            (index,) = msg.cells.indices
            out.setdefault((msg.table, index), {})[sid] = dict(
                zip(msg.attrs, vectors(msg.cells))
            )
        return [(table, index, per_server) for (table, index), per_server in out.items()]


SCHEMA2 = TableSchema(
    "t", (Attribute("k", AttrType.INTEGER), Attribute("v", AttrType.TEXT))
)


@pytest.fixture
def fake(monkeypatch):
    config = make_config()
    cluster = FakeCluster(monkeypatch, config)
    return cluster, Dealer(None, config)


class TestDealer:
    def test_wrong_arity_sends_nothing(self, fake):
        cluster, dealer = fake
        with pytest.raises(ValueError):
            dealer.insert_row(SCHEMA2, (1,))
        with pytest.raises(ValueError):
            dealer.insert_row(SCHEMA2, (1, "x", 3))
        assert cluster.writes == [] and cluster.schema_calls == 0

    def test_wrong_type_sends_nothing(self, fake):
        cluster, dealer = fake
        with pytest.raises(ValueError):
            dealer.insert_row(SCHEMA2, ("not-int", "x"))
        assert cluster.writes == [] and cluster.schema_calls == 0

    def test_bundle_shape_and_reconstruction(self, fake):
        cluster, dealer = fake
        values = (12345, "Aids")
        dealer.insert_row(SCHEMA2, values)
        # one message per server, in configured order, each its own cut
        assert [sid for sid, _ in cluster.writes] == ["s1", "s2", "s3"]
        (table, index, per_server) = cluster.bundles()[0]
        assert table == "t" and index == 1

        for attr, value in zip(SCHEMA2.attributes, values):
            plain = encode_value(attr.type, value)
            vectors = {sid: per_server[sid][attr.name] for sid in per_server}
            assert all(len(vec) == len(plain) for vec in vectors.values())
            # independent check: the shares really interpolate back
            for j, element in enumerate(plain):
                shares = [(k, vectors[f"s{k}"][j]) for k in (1, 2, 3)]
                assert reconstruct(shares[:2], 2, P) == element
                assert reconstruct(shares[1:], 2, P) == element

    def test_no_plaintext_encoding_leaves_the_dealer(self, fake):
        cluster, dealer = fake
        values = (999, "a long secret string that must never travel whole")
        dealer.insert_row(SCHEMA2, values)
        (_, _, per_server) = cluster.bundles()[0]
        for attr, value in zip(SCHEMA2.attributes, values):
            plain = encode_value(attr.type, value)
            for sid in per_server:
                assert per_server[sid][attr.name] != plain

    def test_plaintext_share_vector_refused_before_any_write(self):
        class ZeroRng:
            def randrange(self, n):
                return 0  # every blinding coefficient 0: each share equals its secret

        with TestCluster.start(3, 2, seed=23) as cluster:
            cluster.create_table(SCHEMA2)
            dealer = Dealer(None, cluster.config, rng=ZeroRng())
            with pytest.raises(SsdbError) as e:
                dealer.insert_row(SCHEMA2, (12345, "Aids"))
            assert e.value.code == protocol.INTERNAL
            for sid in ("s1", "s2", "s3"):
                assert cluster.rows_log_bytes(sid, "t") == b""

    def test_next_index_discovered_then_cached(self, fake):
        cluster, dealer = fake
        cluster.row_count = 3
        assert dealer.insert_row(SCHEMA2, (1, "a")) == 4
        assert dealer.insert_row(SCHEMA2, (2, "b")) == 5
        assert cluster.schema_calls == 1  # second insert reused the cache

    def test_failed_insert_invalidates_cache(self, fake):
        cluster, dealer = fake
        assert dealer.insert_row(SCHEMA2, (1, "a")) == 1
        cluster.down = {"s2"}
        with pytest.raises(SsdbError):
            dealer.insert_row(SCHEMA2, (2, "b"))
        cluster.down = set()
        cluster.row_count = 1  # pretend only the first landed
        assert dealer.insert_row(SCHEMA2, (2, "b")) == 2
        assert cluster.schema_calls == 2


class StubServer:
    """A listening socket standing in for one share server.

    Each connection gets one request read, then every message
    `answer(request)` returns (bytes go out as they are), and stays open
    until the client closes it; an answer of None hangs up at once
    instead. With `drip` set, the replies go out one byte every `drip`
    seconds. With `hang_up` set, the stub closes the connection right
    after its replies, leaving any later request unanswered.
    """

    def __init__(self, answer, drip=0.0, hang_up=False):
        self.answer = answer
        self.drip = drip
        self.hang_up = hang_up
        self.requests = []
        self._sock = socket.create_server(("127.0.0.1", 0))
        self.addr = protocol.format_addr(*self._sock.getsockname()[:2])
        threading.Thread(target=self._serve, daemon=True).start()

    def _serve(self):
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return  # stopped
            with conn, contextlib.suppress(OSError):
                msg = FrameReader(conn).read()
                self.requests.append(msg)
                replies = self.answer(msg)
                if replies is None:
                    continue
                for reply in replies:
                    if not isinstance(reply, bytes):
                        reply.req_id = msg.req_id
                        reply = protocol.encode_frame(reply)
                    step = 1 if self.drip else len(reply)
                    for at in range(0, len(reply), step):
                        conn.sendall(reply[at : at + step])
                        time.sleep(self.drip)
                if not self.hang_up:
                    conn.recv(1)  # until the client hangs up

    def stop(self):
        with contextlib.suppress(OSError):
            self._sock.shutdown(socket.SHUT_RDWR)
        self._sock.close()


def delivers(x, shares=(5,)):
    """An answer: one DELIVER_SHARES as server x, one row holding `shares`."""
    return lambda msg: [
        DeliverShares(server_x=x, attrs=msg.attrs, rows=ShareRows.pack([1], [list(shares)]))
    ]


def silent(msg):
    return []


@pytest.fixture
def stubs():
    """stubs(*answers): one running StubServer per answer, stopped after the test."""
    started = []

    def start(*answers):
        started.extend(StubServer(answer) for answer in answers)
        return started[-len(answers):]

    yield start
    for stub in started:
        stub.stop()


def stub_config(servers, t=2):
    return ClusterConfig(
        p=P, n=len(servers), t=t,
        servers=tuple(ServerInfo(f"s{k}", k, s.addr) for k, s in enumerate(servers, 1)),
    )


def listen(config, timeout=5.0, table="t", attr="a"):
    """A fetch of `attr` sent to t servers, as the client's read path sends it."""
    msg = FetchToClient(table=table, attrs=[attr])
    return ResultListener(config, lambda info: [msg], config.t, time.monotonic() + timeout)


def by_x(replies):
    """Each replying server's x-coordinate -> its delivered rows."""
    return {info.x_coord: reply.rows for info, [reply] in replies}


class TestResultListener:
    def test_completes_after_t_distinct_servers(self, stubs):
        servers = stubs(delivers(1, [5]), delivers(2, [6]), delivers(3, [7]))
        listener = listen(stub_config(servers))
        delivered = by_x(listener.wait())
        assert {x: rows.packed for x, rows in delivered.items()} == {
            1: protocol.pack_shares([5]), 2: protocol.pack_shares([6]),
        }
        # exactly t servers, the first in configured order, under one req_id
        assert [len(s.requests) for s in servers] == [1, 1, 0]
        request = FetchToClient(req_id=listener.req_id, table="t", attrs=["a"])
        assert servers[0].requests == servers[1].requests == [request]

    def test_duplicate_identical_push_ignored(self, stubs):
        def twice(msg):  # s1 sends its one reply two times
            return delivers(1)(msg) * 2

        servers = stubs(twice, delivers(2))
        assert sorted(by_x(listen(stub_config(servers)).wait())) == [1, 2]

    def test_conflicting_duplicate_is_corruption(self, patients, stubs):
        # s2 answers with s1's x-coordinate; the read path checks each sender
        config = stub_config(stubs(delivers(1), delivers(1)))
        with pytest.raises(SsdbError) as e:
            execute_query("SELECT Patientid FROM patient_details", patients.hub_client, config)
        assert e.value.code == protocol.DATA_CORRUPTION
        assert "s2" in e.value.detail

    def test_timeout(self, stubs):
        servers = stubs(delivers(1), silent)  # s2 accepts and never answers
        started = time.monotonic()
        with pytest.raises(SsdbError) as e:
            listen(stub_config(servers), timeout=0.2).wait()
        assert e.value.code == protocol.QUERY_TIMEOUT
        assert time.monotonic() - started < 2

    def test_reply_dripping_past_the_deadline_is_query_timeout(self, patients, stubs):
        # s2 sends a valid delivery one byte every 0.1 s: too slow for the deadline
        s1, s3 = stubs(delivers(1), delivers(3))
        s2 = StubServer(delivers(2), drip=0.1)
        try:
            config = stub_config([s1, s2, s3])
            started = time.monotonic()
            with pytest.raises(SsdbError) as e:
                execute_query(
                    "SELECT Patientid FROM patient_details", patients.hub_client, config,
                    timeout=0.3,
                )
            assert time.monotonic() - started < 0.3 + 0.2
        finally:
            s2.stop()
        assert e.value.code == protocol.QUERY_TIMEOUT
        assert "s2" in e.value.detail and "s1" not in e.value.detail

    @pytest.mark.parametrize("frame", HOSTILE_FRAMES.values(), ids=HOSTILE_FRAMES.keys())
    def test_hostile_reply_header_fails_the_query_naming_its_server(self, patients, stubs, frame):
        config = stub_config(stubs(delivers(1), lambda msg: [frame], delivers(3)))
        with pytest.raises(SsdbError) as e:
            execute_query("SELECT Patientid FROM patient_details", patients.hub_client, config)
        assert e.value.code == protocol.INTERNAL
        assert "server s2" in e.value.detail and "malformed frame" in e.value.detail

    def test_server_failing_before_its_reply_is_replaced(self, stubs):
        servers = stubs(lambda msg: None, delivers(2), delivers(3))  # s1 hangs up
        assert sorted(by_x(listen(stub_config(servers)).wait())) == [2, 3]
        assert [len(s.requests) for s in servers] == [1, 1, 1]

    def test_exchanges_left_unread_are_closed_when_an_exception_escapes(
        self, stubs, monkeypatch
    ):
        listener = listen(stub_config(stubs(delivers(1), delivers(2), delivers(3))))
        (_, first), (s2, second) = listener._asked
        sock, replies = second._sock, protocol.Exchange.replies

        def interrupted(self, timeout=protocol.RESPONSE_TIMEOUT):
            if self is first:  # not a server's failure, so `wait` does not catch it
                self.close()
                raise RuntimeError("interrupted")
            return replies(self, timeout)

        monkeypatch.setattr(protocol.Exchange, "replies", interrupted)
        with pytest.raises(RuntimeError):
            listener.wait()
        assert second._sock is None and sock.fileno() == -1
        assert protocol.POOL._idle.get(protocol.parse_addr(s2.address), []) == []

    def test_a_read_is_encoded_once_past_a_refusing_server(self, stubs, monkeypatch):
        encoded = []
        encode = protocol.encode_frame

        def spy(msg):
            encoded.append(msg)
            return encode(msg)

        monkeypatch.setattr(protocol, "encode_frame", spy)
        servers = stubs(delivers(1), delivers(2), delivers(3))
        servers[0].stop()  # s1 refuses the connection
        assert sorted(by_x(listen(stub_config(servers)).wait())) == [2, 3]
        assert len([msg for msg in encoded if isinstance(msg, FetchToClient)]) == 1

    def test_receives_real_pushes_over_tcp(self, patients):
        delivered = by_x(
            listen(patients.config, table="patient_details", attr="Patientid").wait()
        )
        assert sorted(delivered) == [1, 2]
        assert all(rows.indices == (1, 2, 3, 4) for rows in delivered.values())

    def test_write_timeout_is_query_timeout(self, stubs, monkeypatch):
        # writes wait for every acknowledgement under the same rule as reads
        monkeypatch.setattr(protocol, "RESPONSE_TIMEOUT", 0.2)
        servers = stubs(lambda msg: [Ack()], silent, lambda msg: [Ack()])
        config = stub_config(servers)
        with pytest.raises(SsdbError) as e:
            Dealer(None, config).create_table(SCHEMA2)
        assert e.value.code == protocol.QUERY_TIMEOUT
        assert "s2" in e.value.detail
        assert "s1" not in e.value.detail and "s3" not in e.value.detail
        assert [len(s.requests) for s in servers] == [1, 1, 1]

    def test_write_answered_with_anything_but_ack_fails(self, stubs):
        # s2 answers INSERT_SHARES with a well-formed frame that is not an ACK
        def schema_result(msg):
            return [SchemaResult(schema=SCHEMA2, rows=0)]

        def acks(msg):
            return schema_result(msg) if isinstance(msg, GetSchema) else [Ack()]

        servers = stubs(acks, schema_result, acks)
        with pytest.raises(SsdbError) as e:
            Dealer(None, stub_config(servers)).insert_row(SCHEMA2, (1, "a"))
        assert e.value.code == protocol.INTERNAL
        assert "s2" in e.value.detail and "SCHEMA_RESULT" in e.value.detail
        # each server was asked for the table, then sent its write
        assert [list(map(type, s.requests)) for s in servers] == [[GetSchema, InsertShares]] * 3


@pytest.fixture(scope="module")
def patients():
    with TestCluster.start(3, 2, seed=11) as cluster:
        cluster.load_fixture_patients()
        yield cluster


def record_rounds(monkeypatch, record):
    """Call record() with the (attrs, indices) of each fetch round's FETCH_TO_CLIENTs.

    A round that gives some servers fewer fetches than others is shown
    by its longest list.
    """
    init = ResultListener.__init__

    def spy(self, config, build, need, deadline):
        msgs = max((build(info) for info in config.servers), key=len)
        sent = [(m.attrs, m.indices) for m in msgs if isinstance(m, FetchToClient)]
        if sent:
            record(sent)
        init(self, config, build, need, deadline)

    monkeypatch.setattr(ResultListener, "__init__", spy)


@pytest.fixture
def fetches(monkeypatch):
    """(attrs, indices) of every FETCH_TO_CLIENT a query sends, in order."""
    calls = []
    record_rounds(monkeypatch, calls.extend)
    return calls


@pytest.fixture
def rounds(monkeypatch):
    """(attrs, indices) of every FETCH_TO_CLIENT a query sends, one list per round trip."""
    calls = []
    record_rounds(monkeypatch, calls.append)
    return calls


PATIENT_QUERIES = {
    "condition-second": "SELECT Patientname, Doctorid FROM patient_details WHERE Doctorid = 51",
    "condition-not-selected":
        "SELECT Diagonosis, Patientid FROM patient_details WHERE Patientname >= 'C'",
    "condition-duplicated":
        "SELECT Doctorid, Patientname, Doctorid FROM patient_details WHERE Doctorid < 30",
    "duplicate-no-predicate": "SELECT Patientname, Patientname FROM patient_details",
    "star-condition-last": "SELECT * FROM patient_details WHERE Diagonosis = 'Aids'",
    "star-every-row": "SELECT * FROM patient_details",
    "empty-condition-selected":
        "SELECT Patientname, Patientid FROM patient_details WHERE Patientid > 104",
    "empty-condition-not-selected": "SELECT Doctorid FROM patient_details WHERE Diagonosis = 'Flu'",
}


class TestExecuteQuery:
    def test_select_where_on_other_attribute(self, patients):
        rs = patients.query(
            "SELECT Patientname FROM patient_details WHERE Diagonosis = 'Aids'"
        )
        assert rs.columns == ["Patientname"]
        assert rs.indices == [1, 4]
        assert rs.rows == [["Ann"], ["Dona"]]

    def test_condition_column_is_reused_when_selected(self, patients, fetches):
        rs = patients.query(
            "SELECT Diagonosis, Patientname FROM patient_details WHERE Diagonosis = 'Aids'"
        )
        assert rs.rows == [["Aids", "Ann"], ["Aids", "Dona"]]
        # Diagonosis is fetched once, as the every-row condition fetch
        assert fetches == [(["Diagonosis"], None), (["Patientname"], [1, 4])]

    def test_no_predicate_single_attr_needs_one_delivery(self, patients, fetches):
        rs = patients.query("SELECT Patientid FROM patient_details")
        assert rs.rows == [[101], [102], [103], [104]]
        assert fetches == [(["Patientid"], None)]  # the condition fetch is the whole answer

    def test_duplicate_select_attr_fetched_once(self, patients, fetches):
        rs = patients.query(
            "SELECT Patientname, Patientname FROM patient_details WHERE Patientid = 103"
        )
        assert rs.rows == [["Cara", "Cara"]]
        # selected twice, delivered once
        assert fetches == [(["Patientid"], None), (["Patientname"], [3])]

    def test_star_follows_schema_order(self, patients):
        rs = patients.query("SELECT * FROM patient_details WHERE Patientid = 102")
        assert rs.columns == ["Patientid", "Patientname", "Doctorid", "Diagonosis"]
        assert rs.rows == [[102, "Bony", 21, "Cancer"]]

    def test_every_other_attribute_comes_in_one_fetch(self, patients, fetches):
        rs = patients.query("SELECT * FROM patient_details WHERE Patientid = 102")
        assert rs.rows == [[102, "Bony", 21, "Cancer"]]
        # the condition column, then the rest together: two fetches, whatever the width
        assert fetches == [
            (["Patientid"], None), (["Patientname", "Doctorid", "Diagonosis"], [2]),
        ]

    def test_empty_result(self, patients, fetches):
        rs = patients.query("SELECT Patientname FROM patient_details WHERE Doctorid > 1000")
        assert rs.rows == [] and rs.indices == []
        # nothing matched, so nothing else is fetched: one round
        assert fetches == [(["Doctorid"], None)]

    def test_no_fetch_asks_for_zero_rows(self, patients, fetches):
        none = "SELECT Patientname FROM patient_details WHERE Doctorid = 99"
        texts = [*PATIENT_QUERIES.values(), none]
        warm = fresh(patients)
        for text in texts:
            for hub_client in (fresh(patients), warm, warm):  # cold, then warm twice
                execute_query(text, hub_client, patients.config)
        assert len(fetches) > 3 * len(texts)
        assert [] not in [indices for _, indices in fetches]

    @pytest.mark.parametrize("text", PATIENT_QUERIES.values(), ids=PATIENT_QUERIES.keys())
    def test_rows_match_a_plaintext_reference(self, patients, text):
        query = parse_query(text)
        names = list(PATIENTS_SCHEMA.attr_names())
        select = names if query.select_attrs == ("*",) else list(query.select_attrs)
        pred = query.predicate
        matched = [
            i for i, row in enumerate(PATIENT_ROWS, 1)
            if pred is None or BYTE_ORDER[pred.op](row[names.index(pred.attr)], pred.literal)
        ]
        rs = patients.query(text)
        assert (rs.columns, rs.indices) == (select, matched)
        assert rs.rows == [[PATIENT_ROWS[i - 1][names.index(a)] for a in select] for i in matched]

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

    @pytest.mark.parametrize("where, error", [
        ("Patientname = 5", "attribute 'Patientname' is TEXT, literal is not"),
        ("Doctorid = 'x'", "attribute 'Doctorid' is INTEGER, literal is not"),
    ])
    def test_literal_of_the_wrong_type_fails_before_any_fetch(self, patients, fetches, where, error):
        with pytest.raises(ValueError, match=f"^{error}$"):
            patients.query(f"SELECT Patientid FROM patient_details WHERE {where}")
        assert fetches == []

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

    def test_several_text_attributes_at_scattered_rows(self):
        # TEXT cells of 1 to 6 elements, fetched together at every third row
        schema = TableSchema("mixed", (
            Attribute("k", AttrType.INTEGER), Attribute("a", AttrType.TEXT),
            Attribute("g", AttrType.INTEGER), Attribute("b", AttrType.TEXT),
            Attribute("c", AttrType.TEXT),
        ))
        rows = [
            (k, "x" * (5 * k % 37), k % 3, "é" * (k % 9), "日本語" * (k % 4) + "!")
            for k in range(1, 16)
        ]
        with TestCluster.start(3, 2, seed=37) as cluster:
            cluster.create_table(schema)
            for row in rows:
                cluster.insert_row(schema, row)
            rs = cluster.query("SELECT c, a, k, b FROM mixed WHERE g = 0")
            assert rs.indices == [3, 6, 9, 12, 15]
            assert rs.rows == [[c, a, k, b] for k, a, g, b, c in rows if g == 0]
            counts = {len(encode_value(AttrType.TEXT, row[1])) for row in rows if row[2] == 0}
            assert len(counts) > 1


class TestSchemaCache:
    """A HubClient reads each table's schema through the hub once."""

    AIDS = "SELECT Patientname FROM patient_details WHERE Diagonosis = 'Aids'"

    @pytest.fixture
    def cluster(self):
        with TestCluster.start(3, 2, seed=41) as cluster:
            cluster.load_fixture_patients()
            yield cluster

    def test_three_queries_cost_one_hub_schema_read(self, monkeypatch):
        reads = []
        handle = Hub.handle
        # patched before the hub starts, which binds its handler then
        monkeypatch.setattr(
            Hub, "handle", lambda hub, msg: reads.append(msg.table) or handle(hub, msg)
        )
        with TestCluster.start(3, 2, seed=41) as cluster:
            cluster.load_fixture_patients()
            reads.clear()  # the dealer's own reads
            hub_client = HubClient(cluster.hub.addr_str)
            for _ in range(3):
                rows = execute_query(self.AIDS, hub_client, cluster.config).rows
                assert rows == [["Ann"], ["Dona"]]
        assert reads == [PATIENTS_TABLE]

    def test_cached_table_is_queried_without_the_hub(self, cluster):
        assert cluster.query(self.AIDS).rows == [["Ann"], ["Dona"]]
        other = TableSchema("other", (Attribute("v", AttrType.TEXT),))
        cluster.create_table(other)  # the dealer writes to the servers directly
        cluster.hub.stop()
        assert cluster.query(self.AIDS).rows == [["Ann"], ["Dona"]]
        with pytest.raises(SsdbError) as e:
            cluster.query("SELECT v FROM other")
        assert e.value.code == protocol.THRESHOLD_UNAVAILABLE

    def test_rows_inserted_after_the_first_query_are_returned(self, cluster):
        assert cluster.query(self.AIDS).rows == [["Ann"], ["Dona"]]
        cluster.insert_row(PATIENTS_SCHEMA, (105, "Eve", 51, "Aids"))
        assert cluster.query(self.AIDS).rows == [["Ann"], ["Dona"], ["Eve"]]

    def test_query_timeout_bounds_its_schema_read(self, cluster):
        # s1, the hub's first server, holds GET_SCHEMA until released
        release = threading.Event()
        server = cluster.handles["s1"].server
        handle = server._handler

        def held(msg):
            if msg.type == "GET_SCHEMA":
                release.wait(10)
            return handle(msg)

        server._handler = held
        started = time.monotonic()
        try:
            with pytest.raises(SsdbError) as e:
                execute_query(self.AIDS, HubClient(cluster.hub.addr_str), cluster.config, timeout=1)
            elapsed = time.monotonic() - started
        finally:
            release.set()
        assert e.value.code == protocol.QUERY_TIMEOUT
        assert f"hub {cluster.hub.addr_str}" in e.value.detail
        assert elapsed < 2

    def test_missing_table_is_not_cached(self, cluster):
        with pytest.raises(SsdbError) as e:
            cluster.query("SELECT v FROM later")
        assert e.value.code == protocol.NO_SUCH_TABLE
        later = TableSchema("later", (Attribute("v", AttrType.TEXT),))
        cluster.create_table(later)
        cluster.insert_row(later, ("now",))
        assert cluster.query("SELECT v FROM later").rows == [["now"]]


def test_schema_read_answered_with_an_ack_is_internal(stubs):
    # the hub relays its server's reply as it is; HubClient checks its type
    hub = Hub(stub_config(stubs(lambda msg: [Ack()]), t=1))
    hub.start()
    try:
        with pytest.raises(SsdbError) as e:
            HubClient(hub.addr_str).get_schema("t")
    finally:
        hub.stop()
    assert e.value.code == protocol.INTERNAL and "ACK" in e.value.detail


def test_delivery_of_other_rows_than_asked_is_corruption(patients, stubs):
    # asked for Patientname at rows [1, 2], s1 sends well-formed rows 1 and 3
    def answer(msg):
        attr_type, values, indices = (
            (AttrType.INTEGER, (101, 102), [1, 2]) if msg.indices is None
            else (AttrType.TEXT, ("Ann", "Bob"), [1, 3])
        )
        cells = [encode_value(attr_type, v) for v in values]  # t = 1: shares are plain
        return [DeliverShares(server_x=1, attrs=msg.attrs, rows=ShareRows.pack(indices, cells))]

    config = stub_config(stubs(answer), t=1)
    with pytest.raises(SsdbError) as e:
        execute_query(
            "SELECT Patientid, Patientname FROM patient_details", fresh(patients), config
        )
    assert e.value.code == protocol.DATA_CORRUPTION
    assert "delivered indices [1, 3], expected [1, 2]" in e.value.detail


def test_fetch_answered_with_an_ack_is_internal(patients, stubs):
    config = stub_config(stubs(lambda msg: [Ack()], lambda msg: [Ack()]))
    with pytest.raises(SsdbError) as e:
        execute_query("SELECT Patientid FROM patient_details", fresh(patients), config)
    assert e.value.code == protocol.INTERNAL and "unexpected reply ACK" in e.value.detail


def test_request_past_the_frame_cap_reaches_no_server(stubs, monkeypatch):
    encoded = []
    encode = protocol.encode_frame

    def spy(msg):
        encoded.append(msg)
        return encode(msg)

    monkeypatch.setattr(protocol, "encode_frame", spy)
    servers = stubs(delivers(1), delivers(2), delivers(3))
    monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 64)  # a fetch's frame is larger
    with pytest.raises(protocol.ProtocolError) as e:
        listen(stub_config(servers)).wait()
    assert e.value.code == protocol.INTERNAL and "exceeds 64" in e.value.detail
    # the request's own fault, raised once: it names no server it would have gone to
    assert "server" not in e.value.detail and len(encoded) == 1
    assert [s.requests for s in servers] == [[], [], []]


class TestQueryFailureModes:
    def test_dropped_deliveries_time_out(self, patients, stubs):
        # servers that take the fetch and never answer it
        config = stub_config(stubs(silent, silent, silent))
        started = time.monotonic()
        with pytest.raises(SsdbError) as e:
            execute_query(
                "SELECT Patientname FROM patient_details WHERE Diagonosis = 'Aids'",
                patients.hub_client, config, timeout=0.4,
            )
        assert e.value.code == protocol.QUERY_TIMEOUT
        assert time.monotonic() - started < 5

    def test_queries_need_no_inbound_port(self, monkeypatch):
        with TestCluster.start(3, 2, seed=29) as cluster:
            cluster.load_fixture_patients()

            def refuse(*args, **kwargs):
                raise PermissionError("no listening socket may be opened")

            monkeypatch.setattr(socket, "create_server", refuse)
            assert len(cluster.query("SELECT * FROM patient_details").rows) == 4
            rs = cluster.query("SELECT Patientname FROM patient_details WHERE Diagonosis = 'Aids'")
            assert rs.rows == [["Ann"], ["Dona"]]

    def test_tampered_share_detected_on_decode(self):
        with TestCluster.start(3, 2, seed=13) as cluster:
            cluster.load_fixture_patients()
            cluster.kill_server("s1")
            log_path = cluster.handles["s1"].data_dir / "patient_details" / "rows.log"
            raw = bytearray(log_path.read_bytes())
            # row 1's record: length, crc32, index, 4 counts, then the shares
            length = int.from_bytes(raw[:4], "big")
            counts = [int.from_bytes(raw[12 + 4 * k : 16 + 4 * k], "big") for k in range(4)]
            # blow up the one reconstructed element of the TEXT cell Diagonosis
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
                        cells=ShareRows.pack([1], [vec]),
                    ),
                )
            with pytest.raises(SsdbError) as e:
                cluster.query("SELECT v FROM w")
            assert e.value.code == protocol.DATA_CORRUPTION

    def test_share_equal_to_p_is_value_range_naming_its_server(self, patients, stubs):
        # s1 delivers one share equal to p, s2 a well-formed one
        config = stub_config(stubs(delivers(1, [P]), delivers(2)))
        with pytest.raises(SsdbError) as e:
            execute_query("SELECT Patientid FROM patient_details", patients.hub_client, config)
        assert e.value.code == protocol.VALUE_RANGE
        assert "server s1 " in e.value.detail and "server s2 " not in e.value.detail

    @pytest.mark.parametrize("stray_x", [P + 1, 7], ids=["x=p+1", "x=7"])
    def test_push_from_unconfigured_x_is_corruption(self, patients, stubs, stray_x):
        # two well-formed deliveries whose shares interpolate cleanly: one
        # as s1's x=1, one as an x no configured server has (p+1 is 1 mod p)
        ys = [split(e, [1, stray_x], 2, P) for e in encode_value(AttrType.INTEGER, 101)]
        config = stub_config(stubs(
            delivers(1, [y[0] for y in ys]), delivers(stray_x, [y[1] for y in ys]),
        ))
        with pytest.raises(SsdbError) as e:
            execute_query("SELECT Patientid FROM patient_details", patients.hub_client, config)
        assert e.value.code == protocol.DATA_CORRUPTION

    @pytest.mark.parametrize("attr, elements, reason", [
        ("Patientname", [1 << 56], "2^56"),  # the leading element past 7 bytes
        ("Patientname", [0x141, 1 << 56], "2^56"),
        ("Patientname", [0x41696473], "start byte"),
        ("Patientname", [0, 0x141696473], "start byte"),  # 7 zero bytes in front
        ("Patientname", [1] + [0x61] * (MAX_TEXT_BYTES // 7 + 1), f"exceeds {MAX_TEXT_BYTES}"),
        ("Patientname", [4, 0x41696473], "start byte"),  # "Aids" under the length prefix
        ("Patientname", [1, 0xFF], "UTF-8"),
        ("Patientid", [1, 2], "got 2"),
    ], ids=[
        "prefix-past-7-bytes", "chunk-past-7-bytes", "no-start-byte",
        "zero-leading-element", "value-above-max", "old-layout-aids",
        "not-utf8", "integer-of-2-elements",
    ])
    def test_corrupt_cell_names_table_and_attribute(
        self, patients, stubs, attr, elements, reason
    ):
        # t = 1, so the one delivered share vector is the plain encoding
        config = stub_config(stubs(delivers(1, elements)), t=1)
        with pytest.raises(SsdbError) as e:
            execute_query(f"SELECT {attr} FROM patient_details", patients.hub_client, config)
        assert e.value.code == protocol.DATA_CORRUPTION
        assert f"'patient_details'.'{attr}'" in e.value.detail
        assert reason in e.value.detail


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_reconstruct_matrix_equals_shamir_reconstruct(data):
    n = data.draw(st.integers(1, 16), label="n")  # the CLI's limit
    t = data.draw(st.integers(1, n), label="t")
    xs = data.draw(st.lists(st.integers(1, P - 1), min_size=t, max_size=t, unique=True))
    counts = data.draw(st.one_of(
        st.just([]), st.lists(st.integers(1, 4), min_size=1, max_size=1),
        st.lists(st.integers(1, 4), min_size=2, max_size=60),
    ), label="counts")
    share = st.one_of(st.sampled_from([0, P - 1]), st.integers(0, P - 1))
    runs = [data.draw(st.lists(share, min_size=sum(counts), max_size=sum(counts))) for _ in xs]
    tagged = [(x, protocol.pack_shares(ys)) for x, ys in zip(xs, runs)]

    plain = _reconstruct_matrix(tagged)

    assert len(plain) == 8 * sum(counts)
    want = [reconstruct(list(zip(xs, ys)), t, P) for ys in zip(*runs)]
    assert list(unpack(plain)) == want


@pytest.mark.parametrize("t", [1, 2, 16])
def test_reconstruct_matrix_at_the_slot_bound(t):
    # every share p-1 and the weights of x = 1..t: the slot sums come near t * (p-1)^2
    xs = list(range(1, t + 1))
    runs = [[P - 1] * 5 for _ in xs]
    tagged = [(x, protocol.pack_shares(ys)) for x, ys in zip(xs, runs)]
    plain = _reconstruct_matrix(tagged)
    want = reconstruct([(x, P - 1) for x in xs], t, P)
    assert list(unpack(plain)) == [want] * 5


def chunk_elements(t: int) -> int:
    """Elements in one `_reconstruct_matrix` chunk: `_CHUNK` in whole slots."""
    m = -(-(2 * P.bit_length() + t.bit_length()) // 64)  # elements per slot
    return _CHUNK // m * m


@pytest.mark.parametrize("t", [1, 2, 16])
def test_reconstruct_matrix_across_chunk_edges(t):
    rng = random.Random(P * t)
    xs = rng.sample(range(1, 1 << 16), t)
    weights = lagrange_weights(xs, P)
    chunk = chunk_elements(t)
    # the last size leaves a part slot at the end
    for size in (0, chunk - 1, chunk, chunk + 1, 2 * chunk + 3):
        uniform = [[rng.randrange(P) for _ in range(size)] for _ in xs]
        top = [[P - 1] * size for _ in xs]  # every slot sum near t * (p-1)^2
        for runs in (uniform, top):
            tagged = [(x, protocol.pack_shares(ys)) for x, ys in zip(xs, runs)]
            plain = unpack(_reconstruct_matrix(tagged))
            want = [sum(map(operator.mul, weights, ys)) % P for ys in zip(*runs)]
            assert list(plain) == want, (size, runs is top)


def test_reconstruct_matrix_holds_only_chunk_sized_temporaries():
    size = 200_000
    rng = random.Random(2)
    tagged = [(x, protocol.pack_shares([rng.randrange(P) for _ in range(size)])) for x in (1, 2)]
    tracemalloc.start()
    try:
        plain = _reconstruct_matrix(tagged)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(plain) == 8 * size
    assert peak < 3 * len(plain) + (1 << 20)


NOTES = TableSchema("notes", (Attribute("k", AttrType.INTEGER), Attribute("v", AttrType.TEXT)))
NOTE_QUERIES = (
    "SELECT k, v FROM notes WHERE v = 'Ann'",
    "SELECT * FROM notes WHERE k < 5",
    "SELECT v FROM notes",
    "SELECT k FROM notes WHERE v >= 'a'",
)


def answer(hub_client, cluster, text):
    """A query's (columns, indices, rows), or the code of its error."""
    try:
        rs = execute_query(text, hub_client, cluster.config)
    except SsdbError as exc:
        return exc.code
    return rs.columns, rs.indices, rs.rows


def fresh(cluster):
    return HubClient(cluster.hub.addr_str)


def stored(cluster, sid, attr):
    """Server sid's cells of `attr` in notes, in its memory."""
    return cluster.handles[sid].server.store.tables["notes"].columns[attr]


SLOT = struct.calcsize("P")  # a list's pointer to one kept value


def flip(cell: bytes) -> bytes:
    """The cell with the low bit of its last share flipped."""
    return cell[:-1] + bytes([cell[-1] ^ 1])


@pytest.fixture
def delivered_share_bytes(monkeypatch):
    """Share bytes of every DELIVER_SHARES the client reads, in order."""
    seen = []
    wait = ResultListener.wait

    def spy(self):
        replies = wait(self)
        seen.extend(
            len(r.rows.packed) for _, rs in replies for r in rs if isinstance(r, DeliverShares)
        )
        return replies

    monkeypatch.setattr(ResultListener, "wait", spy)
    return seen


class TestKeptColumns:
    """A HubClient keeps condition columns; later queries fetch only new rows."""

    @pytest.fixture
    def cluster(self):
        with TestCluster.start(3, 2, seed=43) as cluster:
            cluster.create_table(NOTES)
            for row in ((1, "Ann"), (2, "Bo"), (3, "Ann")):
                cluster.insert_row(NOTES, row)
            yield cluster

    def test_warm_query_receives_no_share_of_kept_rows(self, cluster, delivered_share_bytes):
        text = "SELECT v FROM notes WHERE v = 'Ann'"
        warm = fresh(cluster)
        assert execute_query(text, warm, cluster.config).rows == [["Ann"], ["Ann"]]
        cold = list(delivered_share_bytes)
        assert len(cold) == 2 and min(cold) > 0  # t = 2 servers sent the whole column
        del delivered_share_bytes[:]
        assert execute_query(text, warm, cluster.config).rows == [["Ann"], ["Ann"]]
        assert delivered_share_bytes == [0, 0]
        assert warm.columns.nbytes == sum(sys.getsizeof(v) + SLOT for v in ("Ann", "Bo", "Ann"))

    def test_kept_bytes_are_the_memory_of_the_values(self, cluster, monkeypatch):
        texts = ["Ann", "Bo", "Ann"] + [f"a note of some length, number {k}" for k in range(10)]
        for k, text in enumerate(texts[3:], 4):
            cluster.insert_row(NOTES, (k, text))
        text = "SELECT k FROM notes WHERE v = 'Bo'"
        warm = fresh(cluster)
        assert execute_query(text, warm, cluster.config).rows == [[2]]
        held = sum(sys.getsizeof(v) + SLOT for v in texts)
        assert warm.columns.nbytes == held
        # a bound that one server's share bytes fit under, and the values do not
        shares = sum(8 * len(encode_value(AttrType.TEXT, v)) for v in texts)
        assert shares < held
        monkeypatch.setattr(client, "MAX_KEPT_BYTES", shares)
        warm = fresh(cluster)
        assert execute_query(text, warm, cluster.config).rows == [[2]]
        assert warm.columns.nbytes == 0

    def test_second_dealers_row_between_warm_queries_is_returned(self, cluster):
        text = "SELECT k FROM notes WHERE v = 'Ann'"
        warm = fresh(cluster)
        assert execute_query(text, warm, cluster.config).rows == [[1], [3]]
        other = Dealer(None, cluster.config, rng=random.Random(1))
        assert other.insert_row(NOTES, (4, "Ann")) == 4
        assert execute_query(text, warm, cluster.config).rows == [[1], [3], [4]]
        assert execute_query(text, warm, cluster.config).rows == [[1], [3], [4]]

    def test_tampered_new_row_gives_its_error(self, cluster):
        text = "SELECT k FROM notes WHERE v = 'Ann'"
        warm = fresh(cluster)
        assert execute_query(text, warm, cluster.config).rows == [[1], [3]]
        cluster.insert_row(NOTES, (4, "Ann"))
        cells = stored(cluster, "s1", "v")
        cells[3] += cells[3][-8:]  # one element more than s2's cell of row 4
        for hub_client in (warm, fresh(cluster)):
            with pytest.raises(SsdbError) as e:
                execute_query(text, hub_client, cluster.config)
            assert e.value.code == protocol.DATA_CORRUPTION
            assert "disagree on element count" in e.value.detail

    def test_changed_kept_row_is_read_again(self, cluster, delivered_share_bytes):
        text = "SELECT k FROM notes WHERE v = 'Ann'"
        warm = fresh(cluster)
        execute_query(text, warm, cluster.config)
        cells = stored(cluster, "s2", "v")
        cells[0] = flip(cells[0])  # row 1 now reconstructs to 'Anm' or 'Ano'
        del delivered_share_bytes[:]
        assert answer(warm, cluster, text) == answer(fresh(cluster), cluster, text) == (
            ["k"], [3], [[3]]
        )
        # the warm round, from each server no new row and k at the kept
        # matches 1 and 3, then the whole column (3 one-element cells) again
        assert delivered_share_bytes[:6] == [0, 16, 0, 16, 24, 24]

    def test_other_servers_mean_a_full_read(self, cluster, fetches):
        text = "SELECT k FROM notes WHERE v = 'Ann'"
        warm = fresh(cluster)
        execute_query(text, warm, cluster.config)
        cluster.kill_server("s1")
        del fetches[:]
        assert execute_query(text, warm, cluster.config).rows == [[1], [3]]
        # s2 and s3 answered: the kept rows came from s1 and s2, so the
        # column is read again whole, and k fetched again at its matches
        assert fetches == [(["v"], None), (["k"], [1, 3]), (["v"], None), (["k"], [1, 3])]

    def test_warm_query_is_one_write_to_each_server_and_one_wait(self, cluster, monkeypatch):
        text = "SELECT k FROM notes WHERE v = 'Ann'"
        names = {protocol.parse_addr(s.address): s.server_id for s in cluster.config.servers}
        names[cluster.hub.address] = "hub"
        writes, waits = [], []
        sendall, wait = socket.socket.sendall, ResultListener.wait

        def on_client():  # not a server's reply, nor the hub's own read
            return threading.current_thread() is threading.main_thread()

        def spy_sendall(sock, data, *args):
            if on_client():
                sent = protocol.FrameDecoder().feed(data)
                writes.append((names[sock.getpeername()[:2]], [m.type for m in sent]))
            return sendall(sock, data, *args)

        def spy_wait(self):
            if on_client():
                waits.append(self.req_id)
            return wait(self)

        monkeypatch.setattr(socket.socket, "sendall", spy_sendall)
        monkeypatch.setattr(ResultListener, "wait", spy_wait)
        warm, fetch = fresh(cluster), ["FETCH_TO_CLIENT"]
        cold = answer(warm, cluster, text)
        # cold: the schema read, then two rounds of one fetch to each of t servers
        assert writes == [("hub", ["GET_SCHEMA"])] + [("s1", fetch), ("s2", fetch)] * 2
        assert len(waits) == 2
        del writes[:], waits[:]
        assert answer(warm, cluster, text) == cold == (["k"], [1, 3], [[1], [3]])
        # warm: both fetches in one write to each server, read by one wait
        assert writes == [("s1", fetch * 2), ("s2", fetch * 2)]
        assert len(waits) == 1

    def test_warm_query_with_no_new_row_is_one_round(self, cluster, rounds):
        text = "SELECT k FROM notes WHERE v = 'Ann'"
        warm = fresh(cluster)
        execute_query(text, warm, cluster.config)
        del rounds[:]
        got = answer(warm, cluster, text)
        assert rounds == [[(["v"], None), (["k"], [1, 3])]]
        assert got == answer(fresh(cluster), cluster, text) == (["k"], [1, 3], [[1], [3]])

    def test_new_rows_that_match_cost_one_fetch_of_only_them(self, cluster, rounds):
        text = "SELECT k FROM notes WHERE v = 'Ann'"
        warm = fresh(cluster)
        execute_query(text, warm, cluster.config)
        for row in ((4, "Ann"), (5, "Bo"), (6, "Ann")):
            cluster.insert_row(NOTES, row)
        del rounds[:]
        got = answer(warm, cluster, text)
        assert rounds == [[(["v"], None), (["k"], [1, 3])], [(["k"], [4, 6])]]
        assert got == answer(fresh(cluster), cluster, text)
        assert got == (["k"], [1, 3, 4, 6], [[1], [3], [4], [6]])

    def test_literal_of_the_wrong_type_leaves_the_column_kept(self, cluster, rounds):
        text = "SELECT k FROM notes WHERE v = 'Ann'"
        warm = fresh(cluster)
        execute_query(text, warm, cluster.config)
        del rounds[:]
        with pytest.raises(ValueError, match="is TEXT, literal is not"):
            execute_query("SELECT k FROM notes WHERE v = 3", warm, cluster.config)
        assert rounds == []
        assert answer(warm, cluster, text) == (["k"], [1, 3], [[1], [3]])
        assert rounds == [[(["v"], None), (["k"], [1, 3])]]  # still warm: one round

    def test_new_row_matching_where_no_kept_row_does(self, cluster, rounds):
        text = "SELECT k FROM notes WHERE v = 'Cy'"
        warm = fresh(cluster)
        assert execute_query(text, warm, cluster.config).rows == []
        cluster.insert_row(NOTES, (4, "Cy"))
        del rounds[:]
        got = answer(warm, cluster, text)
        # no kept row matches, so the condition fetch goes alone, the new match after it
        assert rounds == [[(["v"], None)], [(["k"], [4])]]
        assert got == answer(fresh(cluster), cluster, text) == (["k"], [4], [[4]])

    def test_stale_digest_means_a_full_read_then_the_fetch_of_the_matches(self, cluster, rounds):
        text = "SELECT k FROM notes WHERE v = 'Ann'"
        warm = fresh(cluster)
        execute_query(text, warm, cluster.config)
        cells = stored(cluster, "s1", "v")
        cells[2] = flip(cells[2])  # row 3 no longer reconstructs to 'Ann'
        del rounds[:]
        got = answer(warm, cluster, text)
        assert rounds == [
            [(["v"], None), (["k"], [1, 3])], [(["v"], None)], [(["k"], [1])],
        ]
        assert got == answer(fresh(cluster), cluster, text) == (["k"], [1], [[1]])

    def test_server_that_did_not_send_the_kept_rows_gets_only_the_condition_fetch(
        self, cluster
    ):
        text = "SELECT k FROM notes WHERE v = 'Ann'"
        warm = fresh(cluster)
        execute_query(text, warm, cluster.config)
        cluster.kill_server("s3")
        with pytest.raises(SsdbError):
            cluster.insert_row(NOTES, (4, "Ann"))  # lands on s1 and s2 only
        cluster.revive_server("s3")
        assert execute_query(text, warm, cluster.config).indices == [1, 3, 4]
        cluster.kill_server("s1")
        # s3 holds 3 rows: a fetch of row 4 from it would fail the query
        got = answer(warm, cluster, text)
        assert got == answer(fresh(cluster), cluster, text) == (["k"], [1, 3], [[1], [3]])

    def test_error_reply_to_the_pipelined_fetch_fails_as_the_second_fetch_would(
        self, cluster, rounds, monkeypatch
    ):
        text = "SELECT v FROM notes WHERE k < 10"
        cluster.insert_row(NOTES, (4, "x" * 1000))  # 143 elements: 1,144 share bytes
        warm = fresh(cluster)
        execute_query(text, warm, cluster.config)
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 1024)  # the reply with row 4 is past it
        del rounds[:]
        errors = []
        for hub_client in (warm, fresh(cluster)):
            with pytest.raises(SsdbError) as e:
                execute_query(text, hub_client, cluster.config)
            errors.append(e.value)
        assert rounds[0] == [(["k"], None), (["v"], [1, 2, 3, 4])]  # the warm query: one round
        assert rounds[1:] == [[(["k"], None)], [(["v"], [1, 2, 3, 4])]]  # the fresh one: two
        assert [type(exc) for exc in errors] == [RemoteError, RemoteError]
        assert [exc.code for exc in errors] == [protocol.INTERNAL] * 2
        for exc in errors:
            assert "server s1" in exc.detail and "server s2" in exc.detail
            assert "exceeds 1024" in exc.detail and "server s3" not in exc.detail

    def test_server_hanging_up_after_its_first_reply_is_replaced(self, cluster, monkeypatch):
        text = "SELECT k FROM notes WHERE v = 'Ann'"
        warm = fresh(cluster)
        execute_query(text, warm, cluster.config)  # kept from s1 and s2
        s1, *others = cluster.config.servers
        real = protocol.parse_addr(s1.address)
        # in s1's place: answers the first request on a connection, then hangs up
        stub = StubServer(lambda msg: [protocol.request(real, msg)], hang_up=True)
        answered, wait = [], ResultListener.wait

        def spy(self):
            replies = wait(self)
            answered.append([info.server_id for info, _ in replies])
            return replies

        monkeypatch.setattr(ResultListener, "wait", spy)
        try:
            proxied = SimpleNamespace(config=ClusterConfig(
                p=P, n=3, t=2, servers=(ServerInfo("s1", 1, stub.addr), *others)
            ))
            got = answer(warm, proxied, text)
            assert stub.requests[0].after == 3  # it answered the condition fetch only
            # s3 took s1's place; it never sent the kept rows, so the column is read whole
            assert answered[0] == ["s2", "s3"]
            assert got == answer(fresh(cluster), proxied, text) == (["k"], [1, 3], [[1], [3]])
        finally:
            stub.stop()

    def test_least_recently_used_column_is_evicted(self, cluster, monkeypatch):
        warm = fresh(cluster)
        execute_query("SELECT k FROM notes", warm, cluster.config)
        size = warm.columns.nbytes  # 3 small ints
        execute_query("SELECT v FROM notes", warm, cluster.config)
        vsize = warm.columns.nbytes - size  # 3 short strings take more
        assert vsize > size
        monkeypatch.setattr(client, "MAX_KEPT_BYTES", size + vsize)  # room for k and v
        execute_query("SELECT k FROM notes", warm, cluster.config)  # k is used last
        more = TableSchema("more", NOTES.attributes)
        cluster.create_table(more)
        for row in ((1, "a"), (2, "b"), (3, "c")):
            cluster.insert_row(more, row)
        execute_query("SELECT k FROM more", warm, cluster.config)
        assert warm.columns.nbytes == 2 * size
        assert warm.columns.take(("notes", "v")) is None
        assert warm.columns.take(("notes", "k")).values == [1, 2, 3]
        assert warm.columns.take(("more", "k")).values == [1, 2, 3]
        assert warm.columns.nbytes == 0
        # a column past the bound on its own is not kept at all
        monkeypatch.setattr(client, "MAX_KEPT_BYTES", size - 1)
        execute_query("SELECT k FROM notes", warm, cluster.config)
        assert warm.columns.nbytes == 0


def test_kept_column_grown_by_a_later_query_leaves_an_earlier_answer_alone(monkeypatch):
    """A kept list grows in place; a query reads only the rows it had when it kept the list."""
    text = "SELECT k FROM notes WHERE v = 'Ann'"
    with TestCluster.start(3, 2, seed=61) as cluster:
        cluster.create_table(NOTES)
        cluster.insert_row(NOTES, (1, "Ann"))
        warm = fresh(cluster)
        execute_query(text, warm, cluster.config)
        cluster.insert_row(NOTES, (2, "Ann"))
        evaluate, calls, inner = client.evaluate_predicate, [], []

        def between(values, predicate, attr_type, first=1):
            # the first query kept rows 1..2; a second one through the same
            # client appends row 3 to that list before the first one tests
            # its new row (its second call, made after the fetch)
            calls.append(predicate)
            if len(calls) == 2:
                cluster.insert_row(NOTES, (3, "Ann"))
                inner.append(execute_query(text, warm, cluster.config))
            return evaluate(values, predicate, attr_type, first)

        monkeypatch.setattr(client, "evaluate_predicate", between)
        outer = execute_query(text, warm, cluster.config)
    assert inner[0].rows == [[1], [2], [3]]
    assert outer.rows == [[1], [2]]


def test_reply_past_the_frame_cap_fails_with_an_error_naming_it(monkeypatch):
    with TestCluster.start(3, 2, seed=59) as cluster:
        cluster.create_table(NOTES)
        for k in range(20):
            cluster.insert_row(NOTES, (k, "x" * 300))  # 43 elements a cell
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 4096)
        with pytest.raises(RemoteError) as e:
            execute_query("SELECT v FROM notes", fresh(cluster), cluster.config)
    assert e.value.code == protocol.INTERNAL
    assert "exceeds 4096" in e.value.detail
    # each server asked answered its own ERROR, so no third one is asked
    assert "server s1" in e.value.detail and "server s2" in e.value.detail
    assert "server s3" not in e.value.detail


def test_threads_sharing_a_hub_client_keep_its_byte_count():
    """Queries from 6 threads through one HubClient; a row is inserted between rounds.

    Rows are inserted while no query runs;
    `test_reads_that_overlap_inserts_see_a_prefix_of_them` reads during inserts.
    """
    with TestCluster.start(3, 2, seed=53) as cluster:
        cluster.create_table(NOTES)
        cluster.insert_row(NOTES, (0, "Ann"))
        warm = fresh(cluster)
        rounds = threading.Barrier(7, timeout=30)
        results, failures = [], []

        def query(k):
            try:
                for _ in range(5):
                    rounds.wait()
                    for text in NOTE_QUERIES[k % 2 :: 2]:
                        results.append((text, execute_query(text, warm, cluster.config)))
                    rounds.wait()
            except Exception as exc:  # noqa: BLE001 - reported by the main thread
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=query, args=(k,)) for k in range(6)]
            for thread in threads:
                thread.start()
            for k in range(1, 6):
                rounds.wait()
                rounds.wait()
                cluster.insert_row(NOTES, (k, "Ann"))
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == [] and len(results) == 6 * 5 * 2
        kept = warm.columns._columns.values()
        assert warm.columns.nbytes == sum(column.nbytes for column in kept) > 0
        # rows only ever come after the others: each answer is a prefix of the last
        final = {text: execute_query(text, fresh(cluster), cluster.config) for text in NOTE_QUERIES}
        for text, rs in results:
            n = len(rs.indices)
            assert (rs.indices, rs.rows) == (final[text].indices[:n], final[text].rows[:n])


def test_reads_that_overlap_inserts_see_a_prefix_of_them():
    """Three readers query while a dealer inserts 199 rows; no query fails.

    A row reaches the servers one by one, so a read can find it on one
    server and not yet on another. Each answer is the plaintext filter
    of a prefix of the rows, one that holds every row acknowledged
    before the query began. Two readers use a fresh client per query,
    the third one warm client.
    """
    rows = [(k % 5, "é" * (k % 3) + str(k)) for k in range(1, 200)]
    text = "SELECT v, k FROM notes WHERE k < 2"
    expected = [(i, [v, k]) for i, (k, v) in enumerate(rows, 1) if k < 2]
    with TestCluster.start(3, 2, seed=59) as cluster:
        cluster.create_table(NOTES)
        acked = [0]  # rows acknowledged so far
        done = threading.Event()
        answers, failures = [], []

        def read(client):
            try:
                while not done.is_set():
                    before = acked[0]
                    rs = execute_query(text, client(), cluster.config)
                    answers.append((before, list(zip(rs.indices, rs.rows))))
            except Exception as exc:  # noqa: BLE001 - reported by the main thread
                failures.append(exc)

        warm = fresh(cluster)
        clients = [lambda: fresh(cluster), lambda: fresh(cluster), lambda: warm]
        threads = [threading.Thread(target=read, args=(client,)) for client in clients]
        for thread in threads:
            thread.start()
        try:
            for row in rows:
                cluster.insert_row(NOTES, row)
                acked[0] += 1
        finally:
            done.set()
            for thread in threads:
                thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert sum(0 < before < len(rows) for before, _ in answers) >= 10
        for before, got in answers:
            assert got == expected[: len(got)]
            assert len(got) >= sum(i <= before for i, _ in expected)


@given(st.lists(st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 1), st.integers(0, 9),
              st.sampled_from(["", "a", "Ann", "Bo", "a longer note, é"])),
    st.tuples(st.just("toggle"), st.sampled_from(["s1", "s2", "s3"])),
    st.tuples(st.just("tamper"), st.sampled_from(["s1", "s2", "s3"]),
              st.sampled_from(["k", "v"]), st.integers(0, 30)),
    st.tuples(st.just("query"), st.sampled_from(NOTE_QUERIES)),
), max_size=14))
@settings(max_examples=100, deadline=None)
def test_warm_client_answers_like_a_fresh_one(steps):
    with TestCluster.start(3, 2, seed=47) as cluster:
        cluster.create_table(NOTES)
        dealers = [Dealer(None, cluster.config, rng=random.Random(d)) for d in (0, 1)]
        dealers[0].insert_row(NOTES, (0, "Ann"))
        warm = fresh(cluster)
        for step in [*steps, ("query", NOTE_QUERIES[0])]:
            kind, *args = step
            if kind == "insert":
                dealer, k, v = args
                for _ in range(2):  # once more if the other dealer has moved the index on
                    try:
                        dealers[dealer].insert_row(NOTES, (k, v))
                    except SsdbError as exc:
                        if exc.code == protocol.SCHEMA_MISMATCH:
                            continue
                    break
            elif kind == "toggle":
                down = set(cluster.handles) - set(cluster.live_server_ids())
                if args[0] in down:
                    cluster.revive_server(args[0])
                elif not down:
                    cluster.kill_server(args[0])
            elif kind == "tamper":
                sid, attr, row = args
                if sid in cluster.live_server_ids():
                    cells = stored(cluster, sid, attr)
                    cells[row % len(cells)] = flip(cells[row % len(cells)])
            else:
                assert answer(warm, cluster, args[0]) == answer(fresh(cluster), cluster, args[0])


# a reader holding only the cluster file: a schema read, then a fetch from t servers
CLUSTER_FILE_READER = """
import struct
import sys
from ssdb import protocol
from ssdb.encoding import decode_cells
from ssdb.hub import ClusterConfig
from ssdb.protocol import FetchToClient, GetSchema
from ssdb.shamir import reconstruct

config = ClusterConfig.load(sys.argv[1])
table, attr = sys.argv[2], sys.argv[3]

def ask(info, msg):
    return protocol.request(protocol.parse_addr(info.address), msg)

schema = ask(config.servers[0], GetSchema(req_id="r1", table=table)).schema
points = []
for info in config.servers[: config.t]:
    rows = ask(info, FetchToClient(req_id="r2", table=table, attrs=[attr], indices=[1])).rows
    ys = struct.unpack(f">{len(rows.packed) // 8}Q", rows.packed)
    points.append([(info.x_coord, y) for y in ys])
protocol.close_idle()
elements = [reconstruct(ys, config.t, config.p) for ys in zip(*points)]
packed = struct.pack(f">{len(elements)}Q", *elements)
print(decode_cells(schema.attr_type(attr), packed, [len(elements)])[0])
"""


def test_the_cluster_file_alone_reads_a_stored_value(tmp_path):
    """Nothing authenticates a reader (README, Honest limits): another
    process given only the cluster file reconstructs a stored value from
    plain protocol frames."""
    with TestCluster.start(3, 2, seed=29) as cluster:
        cluster.load_fixture_patients()
        cluster.config.save(tmp_path / "cluster.json")
        proc = subprocess.run(
            [sys.executable, "-c", CLUSTER_FILE_READER, str(tmp_path / "cluster.json"),
             PATIENTS_TABLE, "Patientname"],
            capture_output=True, text=True, timeout=30,
        )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == PATIENT_ROWS[0][1] + "\n"
