"""Value encoding to field elements plus table schemas."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssdb.encoding import (
    CHUNK_BYTES,
    MAX_TEXT_BYTES,
    Attribute,
    AttrType,
    TableSchema,
    decode_cells,
    encode_value,
)
from ssdb.field import MERSENNE_61

from helpers import MALFORMED_SCHEMAS

P = MERSENNE_61


def reference_text_encoding(text: str) -> list[int]:
    """Independent re-derivation: the base-2^56 digits, most significant
    first, of the integer whose bytes are 0x01 and then the UTF-8 bytes."""
    v = int.from_bytes(b"\x01" + text.encode("utf-8"), "big")
    digits = []
    while v:
        v, digit = divmod(v, 1 << 56)
        digits.append(digit)
    return digits[::-1]


def column(cells):
    """(packed, counts) of a column whose cells hold these elements."""
    packed = b"".join(e.to_bytes(8, "big") for cell in cells for e in cell)
    return packed, tuple(map(len, cells))


def decode(attr_type, elements):
    """The value of the one cell that holds these elements."""
    return decode_cells(attr_type, *column([elements]))[0]


class TestIntegerEncoding:
    def test_passthrough(self):
        assert encode_value(AttrType.INTEGER, 42) == [42]
        assert encode_value(AttrType.INTEGER, 0) == [0]
        assert encode_value(AttrType.INTEGER, P - 1) == [P - 1]

    def test_decode(self):
        assert decode(AttrType.INTEGER, [42]) == 42

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            encode_value(AttrType.INTEGER, -1)
        with pytest.raises(ValueError):
            encode_value(AttrType.INTEGER, P)

    def test_bool_rejected(self):
        # bool is an int subclass; it must not sneak through
        with pytest.raises(ValueError):
            encode_value(AttrType.INTEGER, True)

    def test_wrong_python_type(self):
        with pytest.raises(ValueError):
            encode_value(AttrType.INTEGER, "42")
        with pytest.raises(ValueError):
            encode_value(AttrType.TEXT, 42)

    def test_decode_wrong_element_count(self):
        with pytest.raises(ValueError):
            decode(AttrType.INTEGER, [])
        with pytest.raises(ValueError):
            decode(AttrType.INTEGER, [1, 2])

    @given(st.integers(0, P - 1))
    def test_round_trip(self, v):
        assert decode(AttrType.INTEGER, encode_value(AttrType.INTEGER, v)) == v


class TestTextEncoding:
    def test_frozen_example(self):
        # the start byte, then "Aids" = 0x41696473
        assert encode_value(AttrType.TEXT, "Aids") == [0x141696473]

    def test_empty_string(self):
        assert encode_value(AttrType.TEXT, "") == [1]
        assert decode(AttrType.TEXT, [1]) == ""

    def test_chunk_boundaries(self):
        # with its start byte, a 6-byte value fills one chunk and a 7-byte one spills
        six = "abcdef"
        seven = "abcdefg"
        assert encode_value(AttrType.TEXT, six) == reference_text_encoding(six)
        assert len(encode_value(AttrType.TEXT, six)) == 1
        assert len(encode_value(AttrType.TEXT, seven)) == 2

    def test_multibyte_utf8(self):
        for text in ("héllo", "日本語のテキスト", "data 🚀 base"):
            elements = encode_value(AttrType.TEXT, text)
            assert elements == reference_text_encoding(text)
            assert decode(AttrType.TEXT, elements) == text

    def test_every_chunk_fits_below_modulus(self):
        # 7 bytes of 0xff is the largest possible chunk
        assert int.from_bytes(b"\xff" * CHUNK_BYTES, "big") < P

    def test_size_cap(self):
        big = "a" * MAX_TEXT_BYTES
        assert decode(AttrType.TEXT, encode_value(AttrType.TEXT, big)) == big
        with pytest.raises(ValueError):
            encode_value(AttrType.TEXT, "a" * (MAX_TEXT_BYTES + 1))

    def test_decode_count_mismatch(self):
        with pytest.raises(ValueError):
            decode(AttrType.TEXT, [0x41696473])  # "Aids" with no start byte
        with pytest.raises(ValueError):
            decode(AttrType.TEXT, [0, 0x141696473])  # a zero element in front of "Aids"
        with pytest.raises(ValueError):
            decode(AttrType.TEXT, [])

    def test_decode_chunk_too_wide(self):
        # the second chunk needs 8 bytes
        with pytest.raises(ValueError, match="2\\^56"):
            decode(AttrType.TEXT, [0x161, 1 << 56])

    def test_decode_invalid_utf8(self):
        with pytest.raises(ValueError):
            decode(AttrType.TEXT, [1, 0xFF])

    def test_decode_bad_length_prefix(self):
        # a start byte in the first chunk, then 7 * 149,797 value bytes
        with pytest.raises(ValueError, match="exceeds"):
            decode(AttrType.TEXT, [1] + [0x61] * (MAX_TEXT_BYTES // CHUNK_BYTES + 1))

    @given(st.text(max_size=300))
    def test_length_leaks_to_7_bytes_and_no_finer(self, text):
        # a server sees the element count, and it depends on the UTF-8 length alone
        elements = encode_value(AttrType.TEXT, text)
        assert len(elements) == -(-(len(text.encode("utf-8")) + 1) // CHUNK_BYTES)
        # a zero element in front is a pad of 7 or more zero bytes
        with pytest.raises(ValueError, match="start byte"):
            decode(AttrType.TEXT, [0] + elements)

    @given(st.text(max_size=300))
    @settings(max_examples=200)
    def test_round_trip(self, text):
        elements = encode_value(AttrType.TEXT, text)
        assert elements == reference_text_encoding(text)
        assert all(0 <= e < P for e in elements)
        assert decode(AttrType.TEXT, elements) == text


class TestColumnDecode:
    """decode_cells takes a whole column: its packed elements, 8 bytes each, and counts."""

    @given(st.lists(st.text(max_size=40), max_size=12))
    def test_text_column_round_trip(self, texts):
        cells = [encode_value(AttrType.TEXT, text) for text in texts]
        assert decode_cells(AttrType.TEXT, *column(cells)) == texts

    @given(st.lists(st.integers(0, P - 1), max_size=12))
    def test_integer_column_round_trip(self, values):
        cells = [[v] for v in values]
        assert decode_cells(AttrType.INTEGER, *column(cells)) == values

    def test_empty_cell_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            decode_cells(AttrType.TEXT, *column([[0], []]))


class TestTableSchema:
    def make(self):
        return TableSchema(
            table_name="patient_details",
            attributes=(
                Attribute("Patientid", AttrType.INTEGER),
                Attribute("Patientname", AttrType.TEXT),
            ),
        )

    def test_lookup(self):
        schema = self.make()
        assert list(schema.attr_names()) == ["Patientid", "Patientname"]
        assert schema.attr_type("Patientname") is AttrType.TEXT
        assert schema.has_attr("Patientid")
        assert not schema.has_attr("nope")
        with pytest.raises(KeyError):
            schema.attr_type("nope")

    def test_duplicate_attr_rejected(self):
        with pytest.raises(ValueError):
            TableSchema(
                "t",
                (Attribute("a", AttrType.INTEGER), Attribute("a", AttrType.TEXT)),
            )

    def test_empty_attrs_rejected(self):
        with pytest.raises(ValueError):
            TableSchema("t", ())

    def test_bad_identifiers_rejected(self):
        with pytest.raises(ValueError):
            TableSchema("1abc", (Attribute("a", AttrType.INTEGER),))
        with pytest.raises(ValueError):
            Attribute("has space", AttrType.INTEGER)
        with pytest.raises(ValueError):
            Attribute("", AttrType.INTEGER)

    def test_json_round_trip(self):
        schema = self.make()
        again = TableSchema.from_json_dict(schema.to_json_dict())
        assert again == schema

    def test_json_shape(self):
        obj = self.make().to_json_dict()
        assert obj == {
            "table": "patient_details",
            "attributes": [
                {"name": "Patientid", "type": "INTEGER"},
                {"name": "Patientname", "type": "TEXT"},
            ],
        }

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ValueError):
            TableSchema.from_json_dict({"table": "t"})
        with pytest.raises(ValueError):
            TableSchema.from_json_dict(
                {"table": "t", "attributes": [{"name": "a", "type": "FLOAT"}]}
            )
        with pytest.raises(ValueError):
            TableSchema.from_json_dict([])  # type: ignore[arg-type]
        for obj in MALFORMED_SCHEMAS.values():
            with pytest.raises(ValueError):
                TableSchema.from_json_dict(obj)

    def test_canonical_json_is_stable_and_parsable(self):
        schema = self.make()
        text = schema.canonical_json()
        assert text == schema.canonical_json()
        assert TableSchema.from_json_dict(json.loads(text)) == schema
        # compact separators, no incidental whitespace
        assert ": " not in text and ", " not in text
