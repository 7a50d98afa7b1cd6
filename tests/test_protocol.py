"""Wire framing, message codec, and the threaded TCP service."""

import json
import random
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssdb import protocol
from ssdb.encoding import Attribute, AttrType, TableSchema
from ssdb.field import MERSENNE_61
from ssdb.protocol import (
    Ack,
    CreateTable,
    DeliveredRow,
    DeliverShares,
    Error,
    FetchToClient,
    FrameDecoder,
    GetSchema,
    InsertShares,
    ProtocolError,
    Register,
    RemoteError,
    SchemaResult,
    ServerList,
    SsdbError,
    TcpService,
    decode_frame,
    decode_message,
    encode_frame,
    encode_message,
)

P = MERSENNE_61

SCHEMA = TableSchema(
    "patient_details",
    (Attribute("Patientid", AttrType.INTEGER), Attribute("Patientname", AttrType.TEXT)),
)

SAMPLES = [
    Ack(req_id="r1"),
    Error(req_id="r2", code=protocol.NO_SUCH_TABLE, detail="no such table 'x'"),
    CreateTable(req_id="r3", schema=SCHEMA),
    InsertShares(req_id="r4", table="t", index=1, cells={"a": [5, P - 1], "b": [0]}),
    GetSchema(req_id="r9", table="t"),
    SchemaResult(req_id="r10", schema=SCHEMA, rows=4),
    FetchToClient(
        req_id="r11", table="t", attr="a", indices=[1, 4], client_addr="127.0.0.1:9"
    ),
    FetchToClient(req_id="r11b", table="t", attr="a", indices=None, client_addr="127.0.0.1:9"),
    DeliverShares(
        req_id="r12",
        table="t",
        attr="a",
        server_x=2,
        rows=[DeliveredRow(index=1, elements=[7]), DeliveredRow(index=4, elements=[8, 9])],
    ),
    Register(req_id="r13", server_id="s1", x_coord=1),
    ServerList(req_id="r14", servers=[{"server_id": "s1", "x_coord": 1}]),
]


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

    def test_share_values_travel_as_decimal_strings(self):
        msg = InsertShares(req_id="r", table="t", index=1, cells={"a": [P - 1]})
        obj = encode_message(msg)
        assert obj["cells"]["a"] == [str(P - 1)]

    def test_oversized_frame_rejected_on_encode(self):
        # ~22 bytes of JSON per share string, so 1M of them tops 16 MiB
        huge = InsertShares(req_id="r", table="t", index=1, cells={"a": [P - 1] * 1_000_000})
        with pytest.raises(ProtocolError) as e:
            encode_frame(huge)
        assert e.value.code == protocol.INTERNAL

    def test_oversized_length_header_rejected_on_decode(self):
        bogus = (protocol.MAX_FRAME_BYTES + 1).to_bytes(4, "big") + b"x"
        with pytest.raises(ProtocolError):
            decode_frame(bogus, P)

    def test_incomplete_frames_return_none(self):
        frame = encode_frame(Ack(req_id="abc"))
        assert decode_frame(b"", P) is None
        assert decode_frame(frame[:3], P) is None
        assert decode_frame(frame[:-1], P) is None

    def test_malformed_json_rejected(self):
        payload = b"{not json"
        frame = len(payload).to_bytes(4, "big") + payload
        with pytest.raises(ProtocolError) as e:
            decode_frame(frame, P)
        assert e.value.code == protocol.INTERNAL


class TestMessageCodec:
    @pytest.mark.parametrize(
        "msg", SAMPLES,
        ids=lambda m: m.type + ("-every-row" if getattr(m, "indices", ()) is None else ""),
    )
    def test_round_trip(self, msg):
        decoded, consumed = decode_frame(encode_frame(msg), P)
        assert consumed == len(encode_frame(msg))
        assert decoded == msg

    def test_unknown_type(self):
        with pytest.raises(ProtocolError) as e:
            decode_message({"type": "BOGUS", "req_id": "r"}, P)
        assert e.value.code == protocol.UNKNOWN_TYPE

    def test_missing_type_and_req_id(self):
        with pytest.raises(ProtocolError):
            decode_message({"req_id": "r"}, P)
        with pytest.raises(ProtocolError):
            decode_message({"type": "ACK"}, P)
        with pytest.raises(ProtocolError):
            decode_message({"type": "ACK", "req_id": 7}, P)

    def test_share_string_validation(self):
        for bad in ("+1", "-1", "1e3", "", " 1", "١٢٣", "0x10", "1.0"):
            with pytest.raises(ProtocolError) as e:
                decode_message(
                    {"type": "INSERT_SHARES", "req_id": "r", "table": "t", "index": 1,
                     "cells": {"a": [bad]}},
                    P,
                )
            assert e.value.code == protocol.VALUE_RANGE, bad

    def test_share_value_must_be_below_modulus(self):
        with pytest.raises(ProtocolError) as e:
            decode_message(
                {"type": "INSERT_SHARES", "req_id": "r", "table": "t", "index": 1,
                 "cells": {"a": [str(P)]}},
                P,
            )
        assert e.value.code == protocol.VALUE_RANGE

    def test_small_modulus_tightens_validation(self):
        obj = {"type": "INSERT_SHARES", "req_id": "r", "table": "t", "index": 1,
               "cells": {"a": ["16"]}}
        assert decode_message(obj, 17).cells == {"a": [16]}
        with pytest.raises(ProtocolError):
            decode_message({**obj, "cells": {"a": ["17"]}}, 17)

    def test_row_index_validation(self):
        base = {"type": "FETCH_TO_CLIENT", "req_id": "r", "table": "t", "attr": "a",
                "client_addr": "h:1"}
        for bad in ([0], [-3], [True], [1.5], ["2"]):
            with pytest.raises(ProtocolError):
                decode_message({**base, "indices": bad}, P)
        assert decode_message({**base, "indices": []}, P).indices == []
        # null or absent: every row
        assert decode_message({**base, "indices": None}, P).indices is None
        assert decode_message(base, P).indices is None

    def test_bool_rejected_where_int_expected(self):
        with pytest.raises(ProtocolError):
            decode_message(
                {"type": "INSERT_SHARES", "req_id": "r", "table": "t", "index": True,
                 "cells": {}},
                P,
            )

    def test_schema_row_count_validation(self):
        base = {"type": "SCHEMA_RESULT", "req_id": "r", "schema": SCHEMA.to_json_dict()}
        assert decode_message({**base, "rows": 0}, P).rows == 0
        for bad in (-1, True, "3", None):
            with pytest.raises(ProtocolError):
                decode_message({**base, "rows": bad}, P)
        with pytest.raises(ProtocolError):
            decode_message(base, P)

    def test_bad_schema_payload_gets_schema_mismatch(self):
        with pytest.raises(ProtocolError) as e:
            decode_message(
                {"type": "CREATE_TABLE", "req_id": "r", "schema": {"table": "t"}}, P
            )
        assert e.value.code == protocol.SCHEMA_MISMATCH


class TestFrameDecoder:
    def test_one_byte_at_a_time(self):
        stream = b"".join(encode_frame(m) for m in SAMPLES)
        decoder = FrameDecoder(P)
        out = []
        for i in range(len(stream)):
            out.extend(decoder.feed(stream[i : i + 1]))
        assert out == SAMPLES

    def test_all_at_once(self):
        stream = b"".join(encode_frame(m) for m in SAMPLES)
        assert FrameDecoder(P).feed(stream) == SAMPLES

    @given(st.integers(0, 2**32), st.integers(2, 9))
    @settings(max_examples=40)
    def test_random_chunk_boundaries(self, seed, pieces):
        rng = random.Random(seed)
        msgs = [
            InsertShares(
                req_id=f"r{k}",
                table="t",
                index=k + 1,
                cells={"a": [rng.randrange(P) for _ in range(rng.randrange(4))]},
            )
            for k in range(6)
        ]
        stream = b"".join(encode_frame(m) for m in msgs)
        cuts = sorted(rng.randrange(len(stream) + 1) for _ in range(pieces))
        decoder = FrameDecoder(P)
        out = []
        prev = 0
        for cut in cuts + [len(stream)]:
            out.extend(decoder.feed(stream[prev:cut]))
            prev = cut
        assert out == msgs


class EchoService:
    """TcpService wrapper used as a context manager in socket tests."""

    def __init__(self, handler):
        self.service = TcpService("127.0.0.1", 0, handler, p=P, name="test")

    def __enter__(self):
        self.service.start()
        return self.service

    def __exit__(self, *exc):
        self.service.stop()


class TestTcpService:
    def test_request_reply_and_req_id_echo(self):
        with EchoService(lambda msg: Ack()) as svc:
            reply = protocol.request(svc.address, GetSchema(req_id="my-req", table="t"), p=P)
        assert isinstance(reply, Ack)
        assert reply.req_id == "my-req"

    def test_handler_error_propagates_code_and_detail(self):
        def handler(msg):
            raise SsdbError(protocol.NO_SUCH_TABLE, "no such table 'ghost'")

        with EchoService(handler) as svc:
            with pytest.raises(RemoteError) as e:
                protocol.request(svc.address, GetSchema(req_id="r", table="ghost"), p=P)
        assert e.value.code == protocol.NO_SUCH_TABLE
        assert "ghost" in e.value.detail

    def test_handler_crash_becomes_internal_error(self):
        def handler(msg):
            raise RuntimeError("boom")

        with EchoService(handler) as svc:
            with pytest.raises(RemoteError) as e:
                protocol.request(svc.address, GetSchema(req_id="r", table="t"), p=P)
        assert e.value.code == protocol.INTERNAL

    def test_pipelined_frames_answered_in_order(self):
        with EchoService(lambda msg: Ack()) as svc:
            with socket.create_connection(svc.address, timeout=5) as sock:
                ids = [f"req-{k}" for k in range(20)]
                sock.sendall(b"".join(encode_frame(Ack(req_id=i)) for i in ids))
                decoder = FrameDecoder(P)
                got = []
                while len(got) < len(ids):
                    data = sock.recv(65536)
                    assert data, "connection closed early"
                    got.extend(decoder.feed(data))
        assert [m.req_id for m in got] == ids

    def test_unknown_message_type_answered_then_closed(self):
        with EchoService(lambda msg: Ack()) as svc:
            with socket.create_connection(svc.address, timeout=5) as sock:
                payload = json.dumps({"type": "BOGUS", "req_id": "r"}).encode()
                sock.sendall(len(payload).to_bytes(4, "big") + payload)
                reply = protocol.recv_message(sock, P)
                assert isinstance(reply, Error)
                assert reply.code == protocol.UNKNOWN_TYPE
                assert sock.recv(1) == b""  # stream is done

    def test_connection_refused_raises_oserror(self):
        with EchoService(lambda msg: Ack()) as svc:
            addr = svc.address
        with pytest.raises(OSError):
            protocol.request(addr, Ack(req_id="r"), p=P, connect_timeout=0.5)

    def test_push_is_one_way(self):
        got = []
        with EchoService(lambda msg: got.append(msg) or Ack()) as svc:
            protocol.push(svc.address, Register(req_id="r", server_id="s1", x_coord=1))
            deadline = 50
            while not got and deadline:
                deadline -= 1
                import time

                time.sleep(0.01)
        assert got and got[0].server_id == "s1"

    def test_stop_frees_the_port_immediately(self):
        svc = TcpService("127.0.0.1", 0, lambda m: Ack(), p=P, name="t")
        svc.start()
        addr = svc.address
        svc.stop()
        again = TcpService(addr[0], addr[1], lambda m: Ack(), p=P, name="t2")
        again.start()
        assert again.address == addr
        again.stop()
