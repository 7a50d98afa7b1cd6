"""End-to-end acceptance checks, one criterion per marker.

Run with `python3 -m pytest tests/test_acceptance.py -v`; the terminal
summary prints one PASS/FAIL line per criterion.
"""

import itertools
import operator
import random
import time
from collections import Counter

import pytest

from ssdb import protocol
from ssdb.client import parse_query
from ssdb.encoding import Attribute, AttrType, TableSchema
from ssdb.field import MERSENNE_61
from ssdb.protocol import (
    Ack,
    CreateTable,
    DeliverShares,
    Error,
    FetchToClient,
    FrameDecoder,
    GetSchema,
    InsertShares,
    SchemaResult,
    ShareRows,
    SsdbError,
    encode_frame,
)
from ssdb.shamir import split, reconstruct
from ssdb.testnet import TestCluster

P = MERSENNE_61

HOSPITAL_QUERY = "Select Patientname from patient_details where Diagonosis='Aids'"
HOSPITAL_ROWS = [["Ann"], ["Dona"]]
HOSPITAL_INDICES = [1, 4]


@pytest.mark.acceptance(criterion=1, name="hospital query end to end")
def test_hospital_query_end_to_end():
    started = time.monotonic()
    with TestCluster.start(3, 2, seed=1) as cluster:
        cluster.load_fixture_patients()
        rs = cluster.query(HOSPITAL_QUERY)
        elapsed = time.monotonic() - started
    assert rs.columns == ["Patientname"]
    assert rs.rows == HOSPITAL_ROWS
    assert rs.indices == HOSPITAL_INDICES
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


@pytest.mark.acceptance(criterion=2, name="threshold availability")
@pytest.mark.parametrize("down", ["s1", "s2", "s3"])
def test_any_single_server_loss_is_invisible(down):
    with TestCluster.start(3, 2, seed=2) as cluster:
        cluster.load_fixture_patients()
        cluster.kill_server(down)
        rs = cluster.query(HOSPITAL_QUERY)
        assert rs.rows == HOSPITAL_ROWS
        assert rs.indices == HOSPITAL_INDICES


@pytest.mark.acceptance(criterion=2, name="threshold availability")
@pytest.mark.parametrize("down", list(itertools.combinations(["s1", "s2", "s3"], 2)))
def test_any_two_server_loss_is_reported(down):
    with TestCluster.start(3, 2, seed=2) as cluster:
        cluster.load_fixture_patients()
        for server_id in down:
            cluster.kill_server(server_id)
        with pytest.raises(SsdbError) as e:
            cluster.query(HOSPITAL_QUERY)
        assert e.value.code == protocol.THRESHOLD_UNAVAILABLE


class ScriptedRng:
    """Deterministic stand-in: pops preloaded values for randrange calls."""

    def __init__(self, values):
        self.values = list(values)

    def randrange(self, stop):
        value = self.values.pop(0)
        assert 0 <= value < stop
        return value


@pytest.mark.acceptance(criterion=3, name="below-threshold shares reveal nothing")
def test_one_share_is_independent_of_the_secret():
    started = time.monotonic()
    counts = Counter()
    for secret in range(17):
        for coeff in range(17):
            ys = split(secret, [1, 2], 2, 17, ScriptedRng([coeff]))
            counts[(ys[0], secret)] += 1
    # every (observed share, candidate secret) pair comes from exactly one
    # polynomial: seeing y at x=1 leaves all 17 secrets equally likely
    assert len(counts) == 17 * 17
    assert set(counts.values()) == {1}
    assert time.monotonic() - started < 1.0


@pytest.mark.acceptance(criterion=4, name="every share subset reconstructs alike")
def test_all_subsets_reconstruct_identically():
    started = time.monotonic()
    xs = [1, 2, 3, 4, 5]
    rng = random.Random(2024)
    for _ in range(200):
        secret = rng.randrange(P)
        shares = list(zip(xs, split(secret, xs, 3, P, rng)))
        results = {
            reconstruct(list(subset), 3, P) for subset in itertools.combinations(shares, 3)
        }
        assert results == {secret}
    assert time.monotonic() - started < 5.0


# --- criterion 5: randomized tables vs a plaintext reference engine ----------

_OPS = {
    "=": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}

TEXT_ALPHABET = "abcXYZ 0127~'\"é日😀"


def reference_query(schema, rows, text):
    """Plaintext oracle with the same contract: 1-based indices, ascending,
    TEXT compared as UTF-8 bytes."""
    query = parse_query(text)
    names = list(schema.attr_names())
    selected = names if tuple(query.select_attrs) == ("*",) else list(query.select_attrs)
    pred = query.predicate
    if pred is None:
        matched = list(range(1, len(rows) + 1))
    else:
        col = names.index(pred.attr)
        is_text = schema.attr_type(pred.attr) is AttrType.TEXT
        key = (lambda v: v.encode("utf-8")) if is_text else (lambda v: v)
        op = _OPS[pred.op]
        matched = [
            i for i, row in enumerate(rows, start=1)
            if op(key(row[col]), key(pred.literal))
        ]
    out = [[rows[i - 1][names.index(a)] for a in selected] for i in matched]
    return selected, matched, out


def random_value(rng, attr_type):
    if attr_type is AttrType.INTEGER:
        return rng.randrange(10**9)
    return "".join(rng.choice(TEXT_ALPHABET) for _ in range(rng.randrange(13)))


def render_literal(value):
    if isinstance(value, int):
        return str(value)
    return "'" + value.replace("'", "''") + "'"


def random_query_text(rng, schema, rows):
    names = list(schema.attr_names())
    if rng.random() < 0.25:
        select = "*"
    else:
        picked = rng.sample(names, rng.randint(1, len(names)))
        select = ", ".join(picked)
    text = f"SELECT {select} FROM {schema.table_name}"
    if rng.random() < 1 / 7:
        return text
    attr = rng.choice(names)
    op = rng.choice(list(_OPS))
    attr_type = schema.attr_type(attr)
    if rows and rng.random() < 0.6:
        literal = rng.choice(rows)[names.index(attr)]
    else:
        literal = random_value(rng, attr_type)
    return f"{text} WHERE {attr} {op} {render_literal(literal)}"


@pytest.mark.acceptance(criterion=5, name="matches a plaintext reference engine")
def test_randomized_tables_match_reference_engine():
    started = time.monotonic()
    rng = random.Random(505)
    ops_seen = set()
    with TestCluster.start(3, 2, seed=50) as cluster:
        for table_no in range(100):
            n_attrs = rng.randint(1, 5)
            schema = TableSchema(
                f"rt{table_no}",
                tuple(
                    Attribute(f"a{j}", rng.choice((AttrType.INTEGER, AttrType.TEXT)))
                    for j in range(1, n_attrs + 1)
                ),
            )
            cluster.create_table(schema)
            rows = [
                tuple(random_value(rng, a.type) for a in schema.attributes)
                for _ in range(rng.randint(0, 50))
            ]
            for row in rows:
                cluster.insert_row(schema, row)
            for _ in range(3):
                text = random_query_text(rng, schema, rows)
                query = parse_query(text)
                if query.predicate is not None:
                    ops_seen.add(query.predicate.op)
                expect_cols, expect_idx, expect_rows = reference_query(schema, rows, text)
                rs = cluster.query(text)
                assert rs.columns == expect_cols, text
                assert rs.indices == expect_idx, text
                assert rs.rows == expect_rows, text
    assert ops_seen == set(_OPS)  # the random mix exercised every operator
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"took {elapsed:.2f}s"


@pytest.mark.acceptance(criterion=6, name="shares survive a full restart")
def test_full_cluster_restart_preserves_results():
    schema = TableSchema(
        "journal",
        (Attribute("seq", AttrType.INTEGER), Attribute("note", AttrType.TEXT)),
    )
    with TestCluster.start(3, 2, seed=6) as cluster:
        cluster.create_table(schema)
        rng = random.Random(99)
        for i in range(1, 101):
            cluster.insert_row(schema, (i, random_value(rng, AttrType.TEXT)))
        before = cluster.query("SELECT * FROM journal")
        assert len(before.rows) == 100
        for server_id in list(cluster.live_server_ids()):
            cluster.kill_server(server_id)
        for server_id in ("s1", "s2", "s3"):
            cluster.revive_server(server_id)
        after = cluster.query("SELECT * FROM journal")
        assert after == before


# --- criterion 7: codec round-trips -------------------------------------------


def random_share_vector(rng):
    return [rng.randrange(P) for _ in range(rng.randint(1, 4))]


def random_message(rng):
    rid = f"r{rng.randrange(10**9)}"
    table = rng.choice(("t", "patient_details", "_tmp9", "x" * 40))
    attr = rng.choice(("a", "Patientname", "snake_case_3"))
    schema = TableSchema(table, (Attribute(attr, AttrType.INTEGER),))
    indices = sorted(rng.sample(range(1, 1000), rng.randint(0, 5)))
    cells = ShareRows.pack([rng.randint(1, 10**6)], [random_share_vector(rng)], P)
    builders = [
        lambda: Ack(req_id=rid),
        lambda: Error(req_id=rid, code=protocol.INTERNAL,
                      detail="boom 😀 émigré " * rng.randint(0, 5)),
        lambda: CreateTable(req_id=rid, schema=schema),
        lambda: InsertShares(req_id=rid, table=table, attrs=[attr], cells=cells),
        lambda: GetSchema(req_id=rid, table=table),
        lambda: SchemaResult(req_id=rid, schema=schema, rows=rng.randint(0, 10**6)),
        lambda: FetchToClient(req_id=rid, table=table, attrs=[attr],  # None: every row
                              indices=rng.choice((indices, None))),
        lambda: DeliverShares(req_id=rid, server_x=3, attrs=[attr], rows=ShareRows.pack(
            indices, [random_share_vector(rng) for _ in indices], P)),
    ]
    return rng.choice(builders)()


@pytest.mark.acceptance(criterion=7, name="frame codec round-trips")
def test_frame_codec_round_trips():
    rng = random.Random(7777)
    messages = [random_message(rng) for _ in range(1200)]
    # every message type is exercised, including an every-row fetch
    assert {m.type for m in messages} == set(protocol._MESSAGE_TYPES)
    assert any(m.type == "FETCH_TO_CLIENT" and m.indices is None for m in messages)
    assert any(m.type == "SCHEMA_RESULT" and m.rows > 0 for m in messages)

    # whole frames, one at a time
    decoder = FrameDecoder(p=P)
    for msg in messages:
        got = decoder.feed(encode_frame(msg))
        assert got == [msg]

    # one concatenated stream, delivered a single byte at a time
    stream = b"".join(encode_frame(m) for m in messages)
    decoder = FrameDecoder(p=P)
    reassembled = []
    for k in range(0, len(stream), 1):
        reassembled.extend(decoder.feed(stream[k:k + 1]))
    assert reassembled == messages

    # random chunk boundaries for good measure
    decoder = FrameDecoder(p=P)
    reassembled = []
    pos = 0
    while pos < len(stream):
        step = rng.randint(1, 4096)
        reassembled.extend(decoder.feed(stream[pos:pos + step]))
        pos += step
    assert reassembled == messages
