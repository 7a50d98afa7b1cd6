"""Wire framing, message codec, and the threaded TCP service."""

import contextlib
import errno
import json
import random
import socket
import statistics
import struct
import sys
import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ssdb import protocol
from ssdb.encoding import Attribute, AttrType, TableSchema
from ssdb.field import MERSENNE_61
from ssdb.protocol import (
    INTERNAL,
    SCHEMA_MISMATCH,
    VALUE_RANGE,
    Ack,
    CreateTable,
    DeliverShares,
    Error,
    FetchToClient,
    FrameDecoder,
    GetSchema,
    InsertShares,
    ProtocolError,
    RemoteError,
    RowsDigest,
    SchemaResult,
    ShareRows,
    SsdbError,
    TcpService,
    decode_frame,
    decode_message,
    encode_frame,
    encode_message,
)
from ssdb.testnet import PATIENTS_SCHEMA, TestCluster

from helpers import HOSTILE_FRAMES, FrameReader, unpack, vectors

P = MERSENNE_61

SCHEMA = TableSchema(
    "patient_details",
    (Attribute("Patientid", AttrType.INTEGER), Attribute("Patientname", AttrType.TEXT)),
)

SAMPLES = [
    Ack(req_id="r1"),
    Error(req_id="r2", code=protocol.NO_SUCH_TABLE, detail="no such table 'x'"),
    CreateTable(req_id="r3", schema=SCHEMA),
    InsertShares(
        req_id="r4", table="t", attrs=["a", "b"], cells=ShareRows.pack([1], [[5, P - 1], [0]])
    ),
    GetSchema(req_id="r9", table="t"),
    SchemaResult(req_id="r10", schema=SCHEMA, rows=4),
    FetchToClient(req_id="r11", table="t", attrs=["a", "b"], indices=[1, 4]),
    FetchToClient(req_id="r11b", table="t", attrs=["a"], indices=None),
    DeliverShares(
        req_id="r12", server_x=2, attrs=["a"], rows=ShareRows.pack([1, 4], [[7], [8, 9]])
    ),
]


def u32(*values):
    return b"".join(v.to_bytes(4, "big") for v in values)


def u64(*values):
    return b"".join(v.to_bytes(8, "big") for v in values)


# The frames the hand-written per-class codec produced for SAMPLES, byte
# for byte; the declarative codec must not drift from them. The two
# share-bearing frames (r4, r12) were re-pinned when shares moved from
# decimal JSON strings to a binary body after the JSON header. The fetch
# frames (r11, r11b, r12) were re-pinned when a fetch became one request
# and its reply, dropping the fields that only routed server pushes,
# again when one fetch came to name several attributes (`attrs`), and
# again when a fetch gained `after` and its reply `digest`.
GOLDEN_FRAMES = [
    b'\x00\x00\x00\x1c{"type":"ACK","req_id":"r1"}',
    b'\x00\x00\x00R{"type":"ERROR","req_id":"r2","code":"NO_SUCH_TABLE",'
    b'"detail":"no such table \'x\'"}',
    b'\x00\x00\x00\xa4{"type":"CREATE_TABLE","req_id":"r3","schema":{"table":"patient_details",'
    b'"attributes":[{"name":"Patientid","type":"INTEGER"},{"name":"Patientname","type":"TEXT"}]}}',
    b'\x00\x00\x00i{"type":"INSERT_SHARES","req_id":"r4","table":"t","attrs":["a","b"]}\n'
    + u32(1) + u32(2, 1) + u64(5, P - 1, 0),
    b'\x00\x00\x00/{"type":"GET_SCHEMA","req_id":"r9","table":"t"}',
    b'\x00\x00\x00\xaf{"type":"SCHEMA_RESULT","req_id":"r10","schema":{"table":"patient_details",'
    b'"attributes":[{"name":"Patientid","type":"INTEGER"},{"name":"Patientname","type":"TEXT"}]},'
    b'"rows":4}',
    b'\x00\x00\x00d{"type":"FETCH_TO_CLIENT","req_id":"r11","table":"t","attrs":["a","b"],'
    b'"indices":[1,4],"after":null}',
    b'\x00\x00\x00`{"type":"FETCH_TO_CLIENT","req_id":"r11b","table":"t","attrs":["a"],'
    b'"indices":null,"after":null}',
    b'\x00\x00\x00\x83{"type":"DELIVER_SHARES","req_id":"r12","server_x":2,"attrs":["a"],'
    b'"rows":2,"digest":null}\n'
    + u32(1, 4) + u32(1, 2) + u64(7, 8, 9),
]

# Every declared payload field of every message type, with a value of the
# wrong JSON type for it and the code a missing or ill-typed field gets.
# INSERT_SHARES.cells has no header entry: it is the binary body, missing
# when the frame has none and ill-typed when the bytes are not its layout.
BODY_ONLY = {("INSERT_SHARES", "cells")}
FIELD_CASES = {
    ("ACK", "req_id"): (7, INTERNAL),
    ("ERROR", "req_id"): (7, INTERNAL),
    ("ERROR", "code"): (7, INTERNAL),
    ("ERROR", "detail"): (7, INTERNAL),
    ("CREATE_TABLE", "req_id"): (7, INTERNAL),
    ("CREATE_TABLE", "schema"): ([], SCHEMA_MISMATCH),
    ("INSERT_SHARES", "req_id"): (7, INTERNAL),
    ("INSERT_SHARES", "table"): (7, INTERNAL),
    ("INSERT_SHARES", "attrs"): (["a", 7], INTERNAL),
    ("INSERT_SHARES", "cells"): (u32(1), INTERNAL),  # no room for the two counts
    ("GET_SCHEMA", "req_id"): (7, INTERNAL),
    ("GET_SCHEMA", "table"): (7, INTERNAL),
    ("SCHEMA_RESULT", "req_id"): (7, INTERNAL),
    ("SCHEMA_RESULT", "schema"): ("t", SCHEMA_MISMATCH),
    ("SCHEMA_RESULT", "rows"): (True, INTERNAL),
    ("FETCH_TO_CLIENT", "req_id"): (7, INTERNAL),
    ("FETCH_TO_CLIENT", "table"): (7, INTERNAL),
    ("FETCH_TO_CLIENT", "attrs"): (["a", 7], INTERNAL),
    ("FETCH_TO_CLIENT", "indices"): ("1,4", INTERNAL),  # missing means every row
    ("FETCH_TO_CLIENT", "after"): ("3", INTERNAL),  # missing means from row 1
    ("DELIVER_SHARES", "req_id"): (7, INTERNAL),
    ("DELIVER_SHARES", "server_x"): (True, INTERNAL),
    ("DELIVER_SHARES", "attrs"): ("a", INTERNAL),
    ("DELIVER_SHARES", "rows"): ("2", INTERNAL),  # the header's row count
    ("DELIVER_SHARES", "digest"): (7, INTERNAL),  # missing means none
}
# fields that decode to None when missing
OPTIONAL = {
    ("FETCH_TO_CLIENT", "indices"), ("FETCH_TO_CLIENT", "after"), ("DELIVER_SHARES", "digest"),
}

# Fields of the INSERT_SHARES body rather than of the header: the bytes
# of the sample's body with the field left out, and with it ill-formed.
BODY_FIELD_CASES = {
    ("INSERT_SHARES", "index"): (
        u32(2, 1) + u64(5, P - 1, 0),  # starts at the counts
        b"\x00\x01",  # two bytes, not a 4-byte int
        INTERNAL,
    ),
}
ALL_FIELD_CASES = [*FIELD_CASES, *BODY_FIELD_CASES]

# Well-typed values out of their range; bytes stand in for the sample's body.
OUT_OF_RANGE = [
    ("INSERT_SHARES", "index", u32(0) + u32(2, 1) + u64(5, P - 1, 0)),
    ("INSERT_SHARES", "cells", u32(1) + u32(2, 1) + u64(5, P, 0)),
    ("SCHEMA_RESULT", "rows", -1),
    ("FETCH_TO_CLIENT", "indices", [0]),
    ("FETCH_TO_CLIENT", "after", -1),
    ("DELIVER_SHARES", "server_x", 0),
    ("DELIVER_SHARES", "rows", u32(0, 4) + u32(1, 2) + u64(7, 8, 9)),
    ("DELIVER_SHARES", "rows", u32(1, 4) + u32(1, 2) + u64(7, P, 9)),
    ("DELIVER_SHARES", "digest", "ab" * 31),
    ("DELIVER_SHARES", "digest", "AB" * 32),
]
# Shapes no client sends, each with its sample's name count so the body
# still fits: only the repetition or the order is out of range. A reply's
# sample names one attribute; its names are read before its body.
UNSENT_SHAPES = {
    "FETCH_TO_CLIENT.indices-descending": ("FETCH_TO_CLIENT", "indices", [2, 1]),
    "FETCH_TO_CLIENT.indices-repeated": ("FETCH_TO_CLIENT", "indices", [1, 1]),
    "INSERT_SHARES.attrs-repeated": ("INSERT_SHARES", "attrs", ["a", "a"]),
    "FETCH_TO_CLIENT.attrs-repeated": ("FETCH_TO_CLIENT", "attrs", ["b", "b"]),
    "DELIVER_SHARES.attrs-repeated": ("DELIVER_SHARES", "attrs", ["a", "a"]),
}


def case_id(msg_type, name, *_):
    return f"{msg_type}.{name}"


def valid_payload(msg_type):
    """A sample's JSON header and binary body (None for a bodyless type)."""
    return encode_message(next(m for m in SAMPLES if m.type == msg_type))


def insert_body(*shares):
    """A one-row INSERT_SHARES body: index 1, one cell holding `shares`."""
    return u32(1, len(shares)) + protocol.pack_shares(shares)


INSERT_HEADER = {"type": "INSERT_SHARES", "req_id": "r", "table": "t", "attrs": ["a"]}


class TestParseAddr:
    @pytest.mark.parametrize("addr, parsed", [
        ("127.0.0.1:0", ("127.0.0.1", 0)),
        ("h:65535", ("h", 65535)),
        ("::1:7401", ("::1", 7401)),
    ])
    def test_host_and_port(self, addr, parsed):
        assert protocol.parse_addr(addr) == parsed

    @pytest.mark.parametrize("addr", [
        "127.0.0.1:102375", "h:65536", "127.0.0.1:\u0668\u0660", "h:+80", "h: 80", "h:80 ",
        "h:", ":80", "h", "h:0x50",
    ])
    def test_port_is_ascii_digits_up_to_65535(self, addr):
        # int() reads '\u0668\u0660', '+80' and ' 80' as 80; a socket takes 102375 as 36839
        with pytest.raises(ValueError, match="address must be host:port"):
            protocol.parse_addr(addr)


class TestFrameShape:
    def test_header_is_big_endian_length(self):
        frame = encode_frame(Ack(req_id="abc"))
        assert frame[:4] == len(frame[4:]).to_bytes(4, "big")

    def test_payload_is_utf8_json_object(self):
        frame = encode_frame(GetSchema(req_id="r", table="t"))
        obj = json.loads(frame[4:].decode("utf-8"))
        assert obj["type"] == "GET_SCHEMA"
        assert obj["req_id"] == "r"
        assert obj["table"] == "t"

    def test_share_values_travel_as_fixed_width_binary(self):
        # body: the row indices, each cell's element count (4-byte big-endian
        # ints), then every share in 8 big-endian bytes
        msg = DeliverShares(
            req_id="r", server_x=1, attrs=["a"], rows=ShareRows.pack([3, 9], [[P - 1, 5], [0]]),
        )
        frame = encode_frame(msg)
        header, _, body = frame[4:].partition(b"\n")
        assert json.loads(header)["rows"] == 2
        assert body == u32(3, 9) + u32(2, 1) + u64(P - 1, 5, 0)
        assert decode_frame(frame) == (msg, len(frame))

    def test_oversized_frame_rejected_on_encode(self):
        # 8 bytes per share, so 3M of them top 16 MiB
        huge = InsertShares(
            req_id="r", table="t", attrs=["a"],
            cells=ShareRows((1,), (3_000_000,), bytes(8 * 3_000_000)),
        )
        with pytest.raises(ProtocolError) as e:
            encode_frame(huge)
        assert e.value.code == protocol.INTERNAL

    def test_oversized_length_header_rejected_on_decode(self):
        bogus = (protocol.MAX_FRAME_BYTES + 1).to_bytes(4, "big") + b"x"
        with pytest.raises(ProtocolError):
            decode_frame(bogus)

    def test_oversized_length_rejected_before_its_bytes_are_buffered(self):
        # the 4-byte length alone is enough to refuse the frame
        header = (protocol.MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        with pytest.raises(ProtocolError) as e:
            FrameDecoder().feed(header)
        assert e.value.code == protocol.INTERNAL
        with EchoService(lambda msg: Ack()) as svc:
            with socket.create_connection(svc.address, timeout=5) as sock:
                sock.sendall(header)  # and never the payload
                reply = FrameReader(sock).read()
                assert isinstance(reply, Error) and reply.code == protocol.INTERNAL
                assert sock.recv(1) == b""

    def test_incomplete_frames_return_none(self):
        frame = encode_frame(Ack(req_id="abc"))
        assert decode_frame(b"") is None
        assert decode_frame(frame[:3]) is None
        assert decode_frame(frame[:-1]) is None

    def test_malformed_json_rejected(self):
        payload = b"{not json"
        frame = len(payload).to_bytes(4, "big") + payload
        with pytest.raises(ProtocolError) as e:
            decode_frame(frame)
        assert e.value.code == protocol.INTERNAL

    @pytest.mark.parametrize("frame", HOSTILE_FRAMES.values(), ids=HOSTILE_FRAMES.keys())
    def test_hostile_json_header_rejected(self, frame):
        with pytest.raises(ProtocolError) as e:
            decode_frame(frame)
        assert e.value.code == protocol.INTERNAL


def ties(n: int) -> tuple[int, int]:
    """The least and greatest 8-byte shares whose top n bytes are p's."""
    shift = 8 * (8 - n)
    return P >> shift << shift, (P >> shift << shift) + (1 << shift) - 1


@st.composite
def share_runs(draw):
    """A packed run of 8-byte shares, some of them p or above.

    Shares cluster where the range check decides: at 0, p-1, p, p+1 and
    2^64 - 1, and where they tie p's top one or two bytes. Some runs hold
    p's bytes across two adjacent shares.
    """
    share = st.one_of(
        st.integers(0, P - 1),
        st.sampled_from([0, P - 1, P, P + 1, (1 << 64) - 1]),
        st.integers(*ties(1)),
        st.integers(*ties(2)),
    )
    packed = u64(*draw(st.lists(share, max_size=12)))
    if draw(st.booleans()):
        cut = draw(st.integers(1, 7))  # p's bytes start `cut` bytes before a share edge
        at = 8 * draw(st.integers(0, len(packed) // 8))
        pair = draw(st.binary(min_size=8 - cut, max_size=8 - cut)) + u64(P)
        packed = packed[:at] + pair + draw(st.binary(min_size=cut, max_size=cut)) + packed[at:]
    return packed


def with_edge_runs(test):
    """Adds p - 1 followed by each share where the range check decides."""
    for share in sorted({P, P + 1, (1 << 64) - 1, *ties(1), *ties(2)}):
        test = example(u64(P - 1, share))(test)
    return test


@given(share_runs())
@settings(max_examples=500)
@with_edge_runs
def test_range_check_is_exact(packed):
    """read_body takes a body exactly when every share in it is below p."""
    shares = unpack(packed)
    body = u32(1, len(shares)) + packed
    try:
        rows = protocol.read_body(body, 1, 1)
    except ProtocolError as exc:
        assert exc.code == VALUE_RANGE
        assert shares and max(shares) >= P
    else:
        assert not shares or max(shares) < P
        assert rows.packed == packed


class TestMessageCodec:
    @pytest.mark.parametrize(
        "msg", SAMPLES,
        ids=lambda m: m.type + ("-every-row" if getattr(m, "indices", ()) is None else ""),
    )
    def test_round_trip(self, msg):
        decoded, consumed = decode_frame(encode_frame(msg))
        assert consumed == len(encode_frame(msg))
        assert decoded == msg

    @pytest.mark.parametrize(
        "msg, frame", zip(SAMPLES, GOLDEN_FRAMES), ids=[m.req_id for m in SAMPLES]
    )
    def test_wire_format_is_pinned(self, msg, frame):
        assert encode_frame(msg) == frame
        assert decode_frame(frame) == (msg, len(frame))

    def test_field_cases_cover_every_declared_field(self):
        declared = {
            (msg_type, name)
            for msg_type, cls in protocol._MESSAGE_TYPES.items()
            for name, _ in cls.wire
        }
        assert set(FIELD_CASES) == declared

    @pytest.mark.parametrize(
        "msg_type, name", ALL_FIELD_CASES, ids=[case_id(*c) for c in ALL_FIELD_CASES]
    )
    def test_missing_field(self, msg_type, name):
        obj, body = valid_payload(msg_type)
        if (msg_type, name) in BODY_FIELD_CASES:
            body, _, code = BODY_FIELD_CASES[msg_type, name]
        elif (msg_type, name) in BODY_ONLY:
            body, code = None, FIELD_CASES[msg_type, name][1]
        else:
            del obj[name]
            code = FIELD_CASES[msg_type, name][1]
        if (msg_type, name) in OPTIONAL:
            assert getattr(decode_message(obj, body), name) is None
            return
        with pytest.raises(ProtocolError) as e:
            decode_message(obj, body)
        assert e.value.code == code

    @pytest.mark.parametrize(
        "msg_type, name", ALL_FIELD_CASES, ids=[case_id(*c) for c in ALL_FIELD_CASES]
    )
    def test_ill_typed_field(self, msg_type, name):
        obj, body = valid_payload(msg_type)
        if (msg_type, name) in BODY_FIELD_CASES:
            _, body, code = BODY_FIELD_CASES[msg_type, name]
        elif (msg_type, name) in BODY_ONLY:
            body, code = FIELD_CASES[msg_type, name]
        else:
            wrong, code = FIELD_CASES[msg_type, name]
            obj = {**obj, name: wrong}
        with pytest.raises(ProtocolError) as e:
            decode_message(obj, body)
        assert e.value.code == code

    @pytest.mark.parametrize(
        "msg_type, name, value",
        [*OUT_OF_RANGE, *UNSENT_SHAPES.values()],
        ids=[*(case_id(*c) for c in OUT_OF_RANGE), *UNSENT_SHAPES],
    )
    def test_out_of_range_field(self, msg_type, name, value):
        obj, body = valid_payload(msg_type)
        if isinstance(value, bytes):
            body = value
        else:
            obj = {**obj, name: value}
        with pytest.raises(ProtocolError) as e:
            decode_message(obj, body)
        assert e.value.code == VALUE_RANGE

    @pytest.mark.parametrize("body", [
        u32(1),  # one of its two row indices
        u32(1, 4) + u32(1),  # one of its two counts
        u32(1, 4) + u32(1, 2),  # the counts, then no shares
        u32(1, 4) + u32(1, 2) + u64(7, 8),  # one share short of the counts
        u32(1, 4) + u32(1, 2) + u64(7, 8, 9)[:-1],  # a torn share
        u32(1, 4) + u32(1, 2) + u64(7, 8, 9) + b"\x00",  # a byte past the counts
    ], ids=["no-index", "no-counts", "no-elements", "short", "torn-share", "extra-byte"])
    def test_ill_formed_delivered_row(self, body):
        # the body's length must be exactly what its header and counts give
        header, _ = valid_payload("DELIVER_SHARES")
        with pytest.raises(ProtocolError) as e:
            decode_message(header, body)
        assert e.value.code == INTERNAL

    def test_body_only_where_the_type_declares_one(self):
        with pytest.raises(ProtocolError) as e:
            decode_message(INSERT_HEADER)  # no body
        assert e.value.code == INTERNAL
        with pytest.raises(ProtocolError) as e:
            decode_message({"type": "ACK", "req_id": "r"}, b"")
        assert e.value.code == INTERNAL
        # a newline in the payload starts a body, which ACK does not take
        payload = b'{"type":"ACK","req_id":"r"}\n'
        with pytest.raises(ProtocolError):
            decode_frame(len(payload).to_bytes(4, "big") + payload)

    def test_unknown_type(self):
        with pytest.raises(ProtocolError) as e:
            decode_message({"type": "BOGUS", "req_id": "r"})
        assert e.value.code == protocol.UNKNOWN_TYPE

    def test_missing_type_and_req_id(self):
        with pytest.raises(ProtocolError):
            decode_message({"req_id": "r"})
        with pytest.raises(ProtocolError):
            decode_message({"type": "ACK"})
        with pytest.raises(ProtocolError):
            decode_message({"type": "ACK", "req_id": 7})
        with pytest.raises(ProtocolError, match="payload must be a JSON object") as e:
            decode_message(["ACK", "r"])  # a JSON array has no field at all
        assert e.value.code == INTERNAL

    def test_share_string_validation(self):
        # shares are never read from decimal strings: a header in the layout
        # before the binary body, share strings under "cells", is refused
        # whatever the strings hold, well-formed or not
        for s in ("1", str(P - 1), "+1", "-1", "1e3", "", " 1", "١٢٣", "0x10", "1.0"):
            obj = {"type": "INSERT_SHARES", "req_id": "r", "table": "t", "index": 1,
                   "cells": {"a": [s]}}
            with pytest.raises(ProtocolError) as e:
                decode_message(obj)
            assert e.value.code == INTERNAL, s
            payload = json.dumps(obj).encode("utf-8")
            with pytest.raises(ProtocolError):
                decode_frame(len(payload).to_bytes(4, "big") + payload)

    def test_share_value_must_be_below_modulus(self):
        assert vectors(decode_message(INSERT_HEADER, insert_body(P - 1)).cells) == [[P - 1]]
        with pytest.raises(ProtocolError) as e:
            decode_message(INSERT_HEADER, insert_body(P))
        assert e.value.code == protocol.VALUE_RANGE

    def test_row_index_validation(self):
        base = {"type": "FETCH_TO_CLIENT", "req_id": "r", "table": "t", "attrs": ["a"]}
        for bad in ([0], [-3], [True], [1.5], ["2"]):
            with pytest.raises(ProtocolError):
                decode_message({**base, "indices": bad})
        assert decode_message({**base, "indices": []}).indices == []
        # null or absent: every row
        assert decode_message({**base, "indices": None}).indices is None
        assert decode_message(base).indices is None

    def test_after_and_digest_travel_in_the_header(self):
        fetch = FetchToClient(req_id="r", table="t", attrs=["a"], after=3)
        frame = encode_frame(fetch)
        assert frame[4:] == (
            b'{"type":"FETCH_TO_CLIENT","req_id":"r","table":"t","attrs":["a"],'
            b'"indices":null,"after":3}'
        )
        assert decode_frame(frame) == (fetch, len(frame))
        digest = RowsDigest().add([1], u64(7)).hexdigest()
        reply = DeliverShares(req_id="r", server_x=2, attrs=["a"], digest=digest)
        header, body = encode_message(reply)
        assert header["digest"] == digest and len(digest) == 64
        assert decode_frame(encode_frame(reply))[0] == reply

    @pytest.mark.parametrize("fields", [
        {"attrs": ["a"], "indices": [1], "after": 0},
        {"attrs": ["a", "b"], "after": 2},
        {"attrs": [], "after": 2},
    ], ids=["with-indices", "two-attrs", "no-attr"])
    def test_after_needs_null_indices_and_one_attribute(self, fields):
        obj = {"type": "FETCH_TO_CLIENT", "req_id": "r", "table": "t", **fields}
        with pytest.raises(ProtocolError) as e:
            decode_message(obj)
        assert e.value.code == VALUE_RANGE
        with pytest.raises(ProtocolError):
            FetchToClient(table="t", **fields)

    def test_rows_digest_does_not_depend_on_how_rows_arrived(self):
        counts, shares = [1, 2, 1], u64(7, 8, 9, 10)
        whole = RowsDigest().add(counts, shares)
        split = RowsDigest().add(counts[:1], shares[:8]).add(counts[1:], shares[8:])
        assert whole.hexdigest() == split.hexdigest() != RowsDigest().hexdigest()
        # add grows the digest in place
        grown = RowsDigest()
        assert grown.add(counts, shares) is grown and grown.hexdigest() == whole.hexdigest()
        # counts and shares are hashed apart: moving a count changes the digest
        assert RowsDigest().add([2, 1, 1], shares).hexdigest() != whole.hexdigest()

    def test_bool_rejected_where_int_expected(self):
        obj, body = valid_payload("DELIVER_SHARES")
        with pytest.raises(ProtocolError):
            decode_message({**obj, "server_x": True}, body)

    def test_schema_row_count_validation(self):
        base = {"type": "SCHEMA_RESULT", "req_id": "r", "schema": SCHEMA.to_json_dict()}
        assert decode_message({**base, "rows": 0}).rows == 0
        for bad in (-1, True, "3", None):
            with pytest.raises(ProtocolError):
                decode_message({**base, "rows": bad})
        with pytest.raises(ProtocolError):
            decode_message(base)

    def test_bad_schema_payload_gets_schema_mismatch(self):
        with pytest.raises(ProtocolError) as e:
            decode_message(
                {"type": "CREATE_TABLE", "req_id": "r", "schema": {"table": "t"}}
            )
        assert e.value.code == protocol.SCHEMA_MISMATCH


class TestFrameDecoder:
    def test_one_byte_at_a_time(self):
        stream = b"".join(encode_frame(m) for m in SAMPLES)
        decoder = FrameDecoder()
        out = []
        for i in range(len(stream)):
            out.extend(decoder.feed(stream[i : i + 1]))
        assert out == SAMPLES

    def test_all_at_once(self):
        stream = b"".join(encode_frame(m) for m in SAMPLES)
        assert FrameDecoder().feed(stream) == SAMPLES

    @given(st.integers(0, 2**32), st.integers(2, 9))
    @settings(max_examples=40)
    def test_random_chunk_boundaries(self, seed, pieces):
        rng = random.Random(seed)
        msgs = [
            InsertShares(
                req_id=f"r{k}",
                table="t",
                attrs=["a"],
                cells=ShareRows.pack(
                    [k + 1], [[rng.randrange(P) for _ in range(rng.randrange(4))]]
                ),
            )
            for k in range(6)
        ]
        stream = b"".join(encode_frame(m) for m in msgs)
        cuts = sorted(rng.randrange(len(stream) + 1) for _ in range(pieces))
        decoder = FrameDecoder()
        out = []
        prev = 0
        for cut in cuts + [len(stream)]:
            out.extend(decoder.feed(stream[prev:cut]))
            prev = cut
        assert out == msgs


class EchoService:
    """TcpService wrapper used as a context manager in socket tests."""

    def __init__(self, handler):
        self.service = TcpService("127.0.0.1", 0, handler, name="test")

    def __enter__(self):
        self.service.start()
        return self.service

    def __exit__(self, *exc):
        self.service.stop()


class TestTcpService:
    def test_request_reply_and_req_id_echo(self):
        with EchoService(lambda msg: Ack()) as svc:
            reply = protocol.request(svc.address, GetSchema(req_id="my-req", table="t"))
        assert isinstance(reply, Ack)
        assert reply.req_id == "my-req"

    def test_handler_error_propagates_code_and_detail(self):
        def handler(msg):
            raise SsdbError(protocol.NO_SUCH_TABLE, "no such table 'ghost'")

        with EchoService(handler) as svc:
            with pytest.raises(RemoteError) as e:
                protocol.request(svc.address, GetSchema(req_id="r", table="ghost"))
        assert e.value.code == protocol.NO_SUCH_TABLE
        assert "ghost" in e.value.detail

    def test_handler_crash_becomes_internal_error(self):
        def handler(msg):
            raise RuntimeError("boom")

        with EchoService(handler) as svc:
            with pytest.raises(RemoteError) as e:
                protocol.request(svc.address, GetSchema(req_id="r", table="t"))
        assert e.value.code == protocol.INTERNAL

    def test_pipelined_frames_answered_in_order(self):
        with EchoService(lambda msg: Ack()) as svc:
            with socket.create_connection(svc.address, timeout=5) as sock:
                ids = [f"req-{k}" for k in range(20)]
                sock.sendall(b"".join(encode_frame(Ack(req_id=i)) for i in ids))
                decoder = FrameDecoder()
                got = []
                while len(got) < len(ids):
                    data = sock.recv(65536)
                    assert data, "connection closed early"
                    got.extend(decoder.feed(data))
        assert [m.req_id for m in got] == ids

    def test_two_requests_in_one_write_get_both_replies_at_once(self):
        # the second reply must not wait for the client's delayed ACK of
        # the first (about 40 ms), as Nagle's algorithm would have it
        took = []
        with EchoService(lambda msg: Ack()) as svc:
            with socket.create_connection(svc.address, timeout=5) as sock:
                reader = FrameReader(sock)
                for k in range(10):
                    ids = [f"a{k}", f"b{k}"]
                    started = time.monotonic()
                    sock.sendall(b"".join(encode_frame(Ack(req_id=i)) for i in ids))
                    got = [reader.read(), reader.read()]
                    took.append(time.monotonic() - started)
                    assert [m.req_id for m in got] == ids
        assert statistics.median(took) < 0.02, took

    def test_unknown_message_type_answered_then_closed(self):
        with EchoService(lambda msg: Ack()) as svc:
            with socket.create_connection(svc.address, timeout=5) as sock:
                payload = json.dumps({"type": "BOGUS", "req_id": "r"}).encode()
                sock.sendall(len(payload).to_bytes(4, "big") + payload)
                reply = FrameReader(sock).read()
                assert isinstance(reply, Error)
                assert reply.code == protocol.UNKNOWN_TYPE
                assert sock.recv(1) == b""  # stream is done

    def test_each_live_connection_has_one_entry_until_it_ends(self):
        def ask(svc, req_id):
            sock = socket.create_connection(svc.address, timeout=5)
            sock.sendall(encode_frame(Ack(req_id=req_id)))
            return sock, FrameReader(sock).read().req_id

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with EchoService(lambda msg: Ack()) as svc:
                held = [ask(svc, f"h{k}") for k in range(4)]
                assert sorted(req_id for _, req_id in held) == ["h0", "h1", "h2", "h3"]
                assert len(svc._conns) == 4
                assert all(t.is_alive() and t.name == "test-conn" for t in svc._conns.values())
                got = []  # 8 threads open, use and close 20 connections each

                def churn(k):
                    for j in range(20):
                        sock, req_id = ask(svc, f"{k}-{j}")
                        sock.close()
                        got.append(req_id)

                threads = [threading.Thread(target=churn, args=(k,)) for k in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                assert sorted(got) == sorted(f"{k}-{j}" for k in range(8) for j in range(20))
                for sock, _ in held:
                    sock.close()
                end = time.monotonic() + 5  # each thread removes its entry as it ends
                while svc._conns and time.monotonic() < end:
                    time.sleep(0.01)
                assert svc._conns == {}
        finally:
            sys.setswitchinterval(switch)

    # a thread that dies of the reset, rather than ending, fails the test
    @pytest.mark.filterwarnings("error::pytest.PytestUnhandledThreadExceptionWarning")
    def test_peer_that_resets_its_connection_ends_its_thread(self):
        with EchoService(lambda msg: Ack()) as svc:
            sock = socket.create_connection(svc.address, timeout=5)
            sock.sendall(encode_frame(Ack(req_id="r")))
            assert FrameReader(sock).read().req_id == "r"
            [thread] = svc._conns.values()
            # a zero linger makes close send RST: the service's recv fails
            # with ECONNRESET instead of reading the end of the stream
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            sock.close()
            thread.join(timeout=5)
            assert not thread.is_alive()
            assert svc._conns == {}

    def test_stop_before_start_does_nothing(self):
        svc = TcpService("127.0.0.1", 0, lambda m: Ack(), name="t")
        svc.stop()
        svc.start()
        try:
            assert protocol.request(svc.address, Ack(req_id="after")).req_id == "after"
        finally:
            svc.stop()

    def test_connection_refused_raises_oserror(self):
        with EchoService(lambda msg: Ack()) as svc:
            addr = svc.address
        with pytest.raises(OSError):
            protocol.request(addr, Ack(req_id="r"))

    def test_stop_frees_the_port_immediately(self):
        svc = TcpService("127.0.0.1", 0, lambda m: Ack(), name="t")
        svc.start()
        addr = svc.address
        svc.stop()
        again = TcpService(addr[0], addr[1], lambda m: Ack(), name="t2")
        again.start()
        assert again.address == addr
        again.stop()

    def test_a_failed_accept_is_retried(self, monkeypatch):
        real = socket.socket.accept
        failures = []

        def accept_once_out_of_descriptors(sock):
            if not failures:
                failures.append(sock)
                raise OSError(errno.EMFILE, "Too many open files")
            return real(sock)

        monkeypatch.setattr(socket.socket, "accept", accept_once_out_of_descriptors)
        with EchoService(lambda msg: Ack()) as svc:
            reply = protocol.request(svc.address, Ack(req_id="after-emfile"))
        assert reply.req_id == "after-emfile" and len(failures) == 1


class ScriptedServer:
    """A bare listening socket whose k-th accepted connection (from 0) runs serve(conn, k).

    Counts the connections it accepts, so a test can tell a reused
    connection from a new one.
    """

    def __init__(self, serve):
        self.serve = serve
        self.conns = []
        self._sock = socket.create_server(("127.0.0.1", 0))
        self.address = self._sock.getsockname()[:2]
        threading.Thread(target=self._accept, daemon=True).start()

    @property
    def accepted(self):
        return len(self.conns)

    def _accept(self):
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return  # stopped
            self.conns.append(conn)
            threading.Thread(target=self._run, args=(conn, len(self.conns) - 1), daemon=True).start()

    def _run(self, conn, k):
        with conn, contextlib.suppress(OSError):
            self.serve(conn, k)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for sock in [self._sock, *self.conns]:
            with contextlib.suppress(OSError):
                sock.shutdown(socket.SHUT_RDWR)
            sock.close()


def requests_in(conn):
    """Each request arriving on conn, until the peer hangs up."""
    reader = FrameReader(conn)
    while (msg := reader.read()) is not None:
        yield msg


HOSPITAL = "SELECT Patientname FROM patient_details WHERE Diagonosis = 'Aids'"


class TestKeptOpenConnections:
    @pytest.fixture(autouse=True)
    def empty_pool(self):
        protocol.close_idle()
        yield
        protocol.close_idle()

    def idle(self, addr):
        return protocol.POOL._idle.get(tuple(addr), [])

    def test_one_connection_serves_request_after_request(self):
        with EchoService(lambda msg: Ack()) as svc:
            for k in range(5):
                assert protocol.request(svc.address, Ack(req_id=f"r{k}")).req_id == f"r{k}"
            assert len(self.idle(svc.address)) == 1
            assert len(svc._conns) == 1

    def test_revived_server_on_the_same_address_is_reached_again(self):
        with TestCluster.start(3, 2, seed=43) as cluster:
            cluster.load_fixture_patients()
            assert cluster.query(HOSPITAL).rows == [["Ann"], ["Dona"]]
            s2 = protocol.parse_addr(cluster.handles["s2"].info.address)
            assert self.idle(s2)  # kept-open connections to the old s2
            cluster.kill_server("s2")
            cluster.revive_server("s2")
            assert cluster.insert_row(PATIENTS_SCHEMA, (105, "Eve", 33, "Aids")) == 5
            assert cluster.query(HOSPITAL).rows == [["Ann"], ["Dona"], ["Eve"]]

    def test_duplicate_reply_is_never_read_as_the_next_one(self):
        def serve(conn, k):  # every reply sent twice, in one write
            for msg in requests_in(conn):
                conn.sendall(encode_frame(Ack(req_id=msg.req_id)) * 2)

        with ScriptedServer(serve) as server:
            assert protocol.request(server.address, Ack(req_id="first")).req_id == "first"
            assert protocol.request(server.address, Ack(req_id="second")).req_id == "second"
            assert server.accepted == 2  # the connection holding the duplicate was dropped

    @pytest.mark.parametrize("extra", [
        encode_frame(Ack(req_id="unasked")), b"\x00\x00",
    ], ids=["whole-frame", "partial-frame"])
    def test_reply_followed_by_unrequested_bytes_is_not_pooled(self, extra):
        def serve(conn, k):  # the reply and the extra bytes in one write
            for msg in requests_in(conn):
                conn.sendall(encode_frame(Ack(req_id=msg.req_id)) + extra)

        with ScriptedServer(serve) as server:
            assert protocol.request(server.address, Ack(req_id="r")).req_id == "r"
            assert self.idle(server.address) == []

    def test_deadline_covers_the_whole_reply(self):
        def serve(conn, k):  # a valid reply, one byte every 0.1 s
            for msg in requests_in(conn):
                for byte in encode_frame(Ack(req_id=msg.req_id)):
                    conn.sendall(bytes([byte]))
                    time.sleep(0.1)

        with ScriptedServer(serve) as server:
            started = time.monotonic()
            with pytest.raises(TimeoutError):
                protocol.request(server.address, Ack(req_id="drip"), response_timeout=0.3)
            assert time.monotonic() - started < 0.3 + 0.2
            assert self.idle(server.address) == []

    def test_reply_to_another_request_is_refused(self):
        def serve(conn, k):  # answers every request as if it were "first"
            for _ in requests_in(conn):
                conn.sendall(encode_frame(Ack(req_id="first")))

        with ScriptedServer(serve) as server:
            protocol.request(server.address, Ack(req_id="first"))
            with pytest.raises(ProtocolError):
                protocol.request(server.address, Ack(req_id="second"))
            assert self.idle(server.address) == []

    def test_timed_out_connection_is_never_reused(self):
        release = threading.Event()

        def serve(conn, k):
            for msg in requests_in(conn):
                if msg.req_id == "slow":
                    release.wait(5)
                conn.sendall(encode_frame(Ack(req_id=msg.req_id)))

        with ScriptedServer(serve) as server:
            with pytest.raises(TimeoutError):
                protocol.request(server.address, Ack(req_id="slow"), response_timeout=0.2)
            assert self.idle(server.address) == []
            release.set()  # the late reply goes to a closed connection
            assert protocol.request(server.address, Ack(req_id="next")).req_id == "next"
            assert server.accepted == 2

    def test_error_reply_leaves_the_connection_reusable(self):
        def handler(msg):
            if msg.table == "ghost":
                raise SsdbError(protocol.NO_SUCH_TABLE, "no such table 'ghost'")
            return Ack()

        with EchoService(handler) as svc:
            with pytest.raises(RemoteError) as e:
                protocol.request(svc.address, GetSchema(req_id="r1", table="ghost"))
            assert e.value.code == protocol.NO_SUCH_TABLE
            (sock,) = self.idle(svc.address)
            reply = protocol.request(svc.address, GetSchema(req_id="r2", table="t"))
            assert isinstance(reply, Ack) and reply.req_id == "r2"
            assert self.idle(svc.address) == [sock]

    def test_peer_closing_an_idle_connection_gets_one_resend(self):
        seen, hung_up = [], threading.Event()

        def serve(conn, k):
            for msg in requests_in(conn):
                seen.append((k, msg.req_id))
                conn.sendall(encode_frame(Ack(req_id=msg.req_id)))
            hung_up.set()

        with ScriptedServer(serve) as server:
            assert protocol.request(server.address, Ack(req_id="a")).req_id == "a"
            server.conns[0].shutdown(socket.SHUT_RDWR)  # the idle connection's peer hangs up
            assert hung_up.wait(5)
            assert protocol.request(server.address, Ack(req_id="b")).req_id == "b"
        assert seen == [(0, "a"), (1, "b")]

    def test_stale_connection_resends_every_pipelined_request(self):
        seen, hung_up = [], threading.Event()

        def serve(conn, k):
            for msg in requests_in(conn):
                seen.append((k, msg.req_id))
                conn.sendall(encode_frame(Ack(req_id=msg.req_id)))
            if k == 0:
                hung_up.set()

        with ScriptedServer(serve) as server:
            assert protocol.request(server.address, Ack(req_id="a")).req_id == "a"
            server.conns[0].shutdown(socket.SHUT_RDWR)  # the idle connection's peer hangs up
            assert hung_up.wait(5)
            exchange = protocol.Exchange(server.address, [encode_frame(Ack(req_id="b"))] * 2, "b")
            assert [reply.req_id for reply in exchange.replies()] == ["b", "b"]
            assert len(self.idle(server.address)) == 1
        assert seen == [(0, "a"), (1, "b"), (1, "b")]

    def test_error_reply_to_a_pipelined_request_comes_after_every_reply_is_read(self):
        def handler(msg):
            if msg.table == "ghost":
                raise SsdbError(protocol.NO_SUCH_TABLE, "no such table 'ghost'")
            return Ack()

        with EchoService(handler) as svc:
            frames = [encode_frame(GetSchema(req_id="r", table=t)) for t in ("ghost", "t")]
            with pytest.raises(RemoteError) as e:
                protocol.Exchange(svc.address, frames, "r").replies()
            assert e.value.code == protocol.NO_SUCH_TABLE
            assert len(self.idle(svc.address)) == 1  # both replies read: reusable

    @pytest.mark.parametrize("unasked_id", ["a", ""], ids=["repeated-id", "no-id"])
    def test_frame_sent_unasked_to_an_idle_connection_fails_one_request(self, unasked_id):
        answered, sent, hung_up = threading.Event(), threading.Event(), threading.Event()

        def serve(conn, k):
            requests = requests_in(conn)
            for msg in requests:
                conn.sendall(encode_frame(Ack(req_id=msg.req_id)))
                if k == 0:  # after its reply was read, an ACK nobody asked for
                    answered.wait(5)
                    conn.sendall(encode_frame(Ack(req_id=unasked_id)))
                    sent.set()
                    break
            for _ in requests:
                pass  # reads "b" unanswered, until the client hangs up
            hung_up.set()

        with ScriptedServer(serve) as server:
            assert protocol.request(server.address, Ack(req_id="a")).req_id == "a"
            answered.set()
            assert sent.wait(5)
            with pytest.raises(ProtocolError) as e:
                protocol.request(server.address, Ack(req_id="b"))
            assert e.value.code == protocol.INTERNAL
            assert self.idle(server.address) == [] and hung_up.wait(5)
            assert protocol.request(server.address, Ack(req_id="c")).req_id == "c"
            assert server.accepted == 2

    def test_reused_connection_failing_to_send_gets_one_retry(self):
        seen = []

        def serve(conn, k):
            for msg in requests_in(conn):
                seen.append((k, msg.req_id))
                conn.sendall(encode_frame(Ack(req_id=msg.req_id)))

        class BrokenPipe(socket.socket):
            def sendall(self, data, *args):
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        with ScriptedServer(serve) as server:
            assert protocol.request(server.address, Ack(req_id="a")).req_id == "a"
            (sock,) = self.idle(server.address)
            self.idle(server.address)[:] = [BrokenPipe(fileno=sock.detach())]
            assert protocol.request(server.address, Ack(req_id="b")).req_id == "b"
            assert server.accepted == 2
        assert seen == [(0, "a"), (1, "b")]

    def test_fresh_connection_is_not_retried(self):
        seen = []

        def serve(conn, k):  # hang up without answering
            seen.append(FrameReader(conn).read().req_id)

        with ScriptedServer(serve) as server:
            with pytest.raises(ConnectionError):
                protocol.request(server.address, Ack(req_id="once"))
            assert seen == ["once"] and server.accepted == 1

    def test_reused_connection_closing_mid_reply_is_not_retried(self):
        seen = []

        def serve(conn, k):  # answers "a", then half of the reply to "b" and hangs up
            for msg in requests_in(conn):
                seen.append((k, msg.req_id))
                frame = encode_frame(Ack(req_id=msg.req_id))
                if msg.req_id == "b":
                    conn.sendall(frame[:len(frame) // 2])
                    return
                conn.sendall(frame)

        with ScriptedServer(serve) as server:
            assert protocol.request(server.address, Ack(req_id="a")).req_id == "a"
            with pytest.raises(ConnectionError):
                protocol.request(server.address, Ack(req_id="b"))
            assert seen == [(0, "a"), (0, "b")] and server.accepted == 1
            assert self.idle(server.address) == []

    def test_threads_sharing_the_pool_each_get_their_own_reply(self):
        errors = []

        def client(name):
            try:
                for k in range(100):
                    req_id = f"{name}-{k}"
                    assert protocol.request(svc.address, Ack(req_id=req_id)).req_id == req_id
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with EchoService(lambda msg: Ack()) as svc:
                threads = [
                    threading.Thread(target=client, args=(f"c{n}",), daemon=True) for n in range(6)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                idle = self.idle(svc.address)
                assert len(set(idle)) == len(idle) <= protocol.MAX_IDLE_PER_ADDR
        finally:
            sys.setswitchinterval(interval)
        assert errors == []

    def test_idle_connections_are_capped_per_address(self):
        pool = protocol.ConnectionPool()
        addr = ("127.0.0.1", 1)
        pairs = [socket.socketpair() for _ in range(protocol.MAX_IDLE_PER_ADDR + 2)]
        try:
            for ours, _ in pairs:
                pool.give(addr, ours)
            assert pool._idle[addr] == [ours for ours, _ in pairs[: protocol.MAX_IDLE_PER_ADDR]]
            assert all(ours.fileno() == -1 for ours, _ in pairs[protocol.MAX_IDLE_PER_ADDR :])
            pool.close_idle()
            assert pool._idle == {} and all(ours.fileno() == -1 for ours, _ in pairs)
        finally:
            for ours, theirs in pairs:
                ours.close()
                theirs.close()


def test_every_message_type_is_sent(monkeypatch):
    """No message type exists that the running system never sends."""
    sent = set()
    original = protocol.encode_frame

    def spy(msg):
        sent.add(msg.type)
        return original(msg)

    monkeypatch.setattr(protocol, "encode_frame", spy)
    hospital = "SELECT Patientname FROM patient_details WHERE Diagonosis = 'Aids'"
    with TestCluster.start(3, 2, seed=41) as cluster:
        cluster.create_table(PATIENTS_SCHEMA)
        cluster.load_fixture_patients()
        assert len(cluster.query("SELECT * FROM patient_details").rows) == 4
        assert cluster.query(hospital).rows == [["Ann"], ["Dona"]]
        with pytest.raises(SsdbError):
            cluster.query("SELECT * FROM ghost")
        cluster.kill_server("s1")
        assert cluster.query(hospital).rows == [["Ann"], ["Dona"]]
        cluster.revive_server("s1")
    assert sent == set(protocol._MESSAGE_TYPES)
