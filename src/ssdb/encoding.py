"""Reversible mapping between typed attribute values and field elements.

INTEGER embeds as a single element. TEXT becomes a length prefix followed
by 7-byte big-endian chunks of its UTF-8 bytes, so every chunk is < 2^56
and fits any modulus above that. Also holds the table-schema model shared
by dealer, servers, and query engine.
"""

from __future__ import annotations

import enum
import json
import re
from dataclasses import dataclass

from .field import MERSENNE_61

CHUNK_BYTES = 7
MAX_TEXT_BYTES = 1 << 20

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class AttrType(enum.Enum):
    INTEGER = "INTEGER"
    TEXT = "TEXT"


@dataclass(frozen=True, slots=True)
class Attribute:
    name: str
    type: AttrType

    def __post_init__(self):
        if not _IDENT_RE.match(self.name):
            raise ValueError(f"invalid attribute name {self.name!r}")


@dataclass(frozen=True)
class TableSchema:
    """Named, typed attributes of one table.

    The automatic plaintext index column is implicit: it is never listed
    here and always present on every server.
    """

    table_name: str
    attributes: tuple[Attribute, ...]

    def __post_init__(self):
        if not _IDENT_RE.match(self.table_name):
            raise ValueError(f"invalid table name {self.table_name!r}")
        if not self.attributes:
            raise ValueError("schema needs at least one attribute")
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise ValueError("duplicate attribute names")

    def attr_names(self) -> list[str]:
        return [a.name for a in self.attributes]

    def attr_type(self, name: str) -> AttrType:
        for a in self.attributes:
            if a.name == name:
                return a.type
        raise KeyError(name)

    def has_attr(self, name: str) -> bool:
        return any(a.name == name for a in self.attributes)

    def to_json_dict(self) -> dict:
        return {
            "table": self.table_name,
            "attributes": [{"name": a.name, "type": a.type.value} for a in self.attributes],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "TableSchema":
        if not isinstance(obj, dict):
            raise ValueError("schema must be a JSON object")
        try:
            table = obj["table"]
            attrs = obj["attributes"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"schema missing field: {exc}") from exc
        if not isinstance(table, str) or not isinstance(attrs, list):
            raise ValueError("malformed schema object")
        parsed = []
        for entry in attrs:
            if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
                raise ValueError(f"malformed attribute entry: {entry!r}")
            try:
                attr_type = AttrType(entry.get("type"))
            except ValueError:
                raise ValueError(f"unknown attribute type {entry.get('type')!r}") from None
            parsed.append(Attribute(entry["name"], attr_type))
        return cls(table_name=table, attributes=tuple(parsed))

    def canonical_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))


def encode_value(attr_type: AttrType, value, p: int = MERSENNE_61) -> list[int]:
    """Encode one typed value as a nonempty list of field elements."""
    if attr_type is AttrType.INTEGER:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"INTEGER value must be int, got {type(value).__name__}")
        if not 0 <= value < p:
            raise ValueError(f"INTEGER value {value} outside [0, {p})")
        return [value]

    if not isinstance(value, str):
        raise ValueError(f"TEXT value must be str, got {type(value).__name__}")
    raw = value.encode("utf-8")
    if len(raw) > MAX_TEXT_BYTES:
        raise ValueError(f"TEXT value of {len(raw)} bytes exceeds {MAX_TEXT_BYTES}")
    if len(raw) >= p:
        raise ValueError(f"length prefix {len(raw)} does not fit in GF({p})")
    elements = [len(raw)]
    for off in range(0, len(raw), CHUNK_BYTES):
        chunk = int.from_bytes(raw[off : off + CHUNK_BYTES], "big")
        if chunk >= p:
            raise ValueError(f"chunk {chunk} does not fit in GF({p})")
        elements.append(chunk)
    return elements


def decode_value(attr_type: AttrType, elements: list[int]):
    """Exact inverse of encode_value; rejects malformed encodings."""
    if not elements:
        raise ValueError("empty encoding")
    if attr_type is AttrType.INTEGER:
        if len(elements) != 1:
            raise ValueError(f"INTEGER encodes to 1 element, got {len(elements)}")
        return elements[0]

    byte_len = elements[0]
    if byte_len < 0 or byte_len > MAX_TEXT_BYTES:
        raise ValueError(f"bad TEXT length prefix {byte_len}")
    chunks = elements[1:]
    expected = (byte_len + CHUNK_BYTES - 1) // CHUNK_BYTES
    if len(chunks) != expected:
        raise ValueError(
            f"length prefix {byte_len} implies {expected} chunks, got {len(chunks)}"
        )
    raw = bytearray()
    remaining = byte_len
    for chunk in chunks:
        width = min(CHUNK_BYTES, remaining)
        if chunk < 0 or chunk >> (8 * width):
            raise ValueError(f"chunk {chunk} exceeds its {width}-byte capacity")
        raw += chunk.to_bytes(width, "big")
        remaining -= width
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"decoded bytes are not UTF-8: {exc}") from exc

