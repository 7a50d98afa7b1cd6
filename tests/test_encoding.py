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
    decode_value,
    encode_value,
)
from ssdb.field import MERSENNE_61

P = MERSENNE_61


def reference_text_encoding(text: str) -> list[int]:
    """Independent re-derivation: length, then big-endian 7-byte chunks."""
    data = text.encode("utf-8")
    out = [len(data)]
    for i in range(0, len(data), 7):
        out.append(int.from_bytes(data[i : i + 7], "big"))
    return out


class TestIntegerEncoding:
    def test_passthrough(self):
        assert encode_value(AttrType.INTEGER, 42, P) == [42]
        assert encode_value(AttrType.INTEGER, 0, P) == [0]
        assert encode_value(AttrType.INTEGER, P - 1, P) == [P - 1]

    def test_decode(self):
        assert decode_value(AttrType.INTEGER, [42]) == 42

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            encode_value(AttrType.INTEGER, -1, P)
        with pytest.raises(ValueError):
            encode_value(AttrType.INTEGER, P, P)

    def test_bool_rejected(self):
        # bool is an int subclass; it must not sneak through
        with pytest.raises(ValueError):
            encode_value(AttrType.INTEGER, True, P)

    def test_wrong_python_type(self):
        with pytest.raises(ValueError):
            encode_value(AttrType.INTEGER, "42", P)
        with pytest.raises(ValueError):
            encode_value(AttrType.TEXT, 42, P)

    def test_decode_wrong_element_count(self):
        with pytest.raises(ValueError):
            decode_value(AttrType.INTEGER, [])
        with pytest.raises(ValueError):
            decode_value(AttrType.INTEGER, [1, 2])

    @given(st.integers(0, P - 1))
    def test_round_trip(self, v):
        assert decode_value(AttrType.INTEGER, encode_value(AttrType.INTEGER, v, P)) == v


class TestTextEncoding:
    def test_frozen_example(self):
        # "Aids" = 0x41696473
        assert encode_value(AttrType.TEXT, "Aids", P) == [4, 1097426035]

    def test_empty_string(self):
        assert encode_value(AttrType.TEXT, "", P) == [0]
        assert decode_value(AttrType.TEXT, [0]) == ""

    def test_chunk_boundaries(self):
        seven = "abcdefg"
        eight = "abcdefgh"
        assert encode_value(AttrType.TEXT, seven, P) == reference_text_encoding(seven)
        assert len(encode_value(AttrType.TEXT, seven, P)) == 2
        assert len(encode_value(AttrType.TEXT, eight, P)) == 3

    def test_multibyte_utf8(self):
        for text in ("héllo", "日本語のテキスト", "data 🚀 base"):
            elements = encode_value(AttrType.TEXT, text, P)
            assert elements == reference_text_encoding(text)
            assert decode_value(AttrType.TEXT, elements) == text

    def test_every_chunk_fits_below_modulus(self):
        # 7 bytes of 0xff is the largest possible chunk
        assert int.from_bytes(b"\xff" * CHUNK_BYTES, "big") < P

    def test_size_cap(self):
        big = "a" * MAX_TEXT_BYTES
        assert decode_value(AttrType.TEXT, encode_value(AttrType.TEXT, big, P)) == big
        with pytest.raises(ValueError):
            encode_value(AttrType.TEXT, "a" * (MAX_TEXT_BYTES + 1), P)

    def test_decode_count_mismatch(self):
        with pytest.raises(ValueError):
            decode_value(AttrType.TEXT, [4])  # says 4 bytes, no chunks
        with pytest.raises(ValueError):
            decode_value(AttrType.TEXT, [4, 1, 2])  # one chunk too many
        with pytest.raises(ValueError):
            decode_value(AttrType.TEXT, [])

    def test_decode_chunk_too_wide(self):
        # 1 byte declared, but the chunk needs 2
        with pytest.raises(ValueError):
            decode_value(AttrType.TEXT, [1, 256])

    def test_decode_invalid_utf8(self):
        with pytest.raises(ValueError):
            decode_value(AttrType.TEXT, [1, 0xFF])

    def test_decode_bad_length_prefix(self):
        with pytest.raises(ValueError):
            decode_value(AttrType.TEXT, [MAX_TEXT_BYTES + 1, 0])

    @given(st.text(max_size=300))
    @settings(max_examples=200)
    def test_round_trip(self, text):
        elements = encode_value(AttrType.TEXT, text, P)
        assert elements == reference_text_encoding(text)
        assert all(0 <= e < P for e in elements)
        assert decode_value(AttrType.TEXT, elements) == text


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

    def test_canonical_json_is_stable_and_parsable(self):
        schema = self.make()
        text = schema.canonical_json()
        assert text == schema.canonical_json()
        assert TableSchema.from_json_dict(json.loads(text)) == schema
        # compact separators, no incidental whitespace
        assert ": " not in text and ", " not in text
