"""Reversible mapping between typed attribute values and field elements.

INTEGER embeds as a single element. TEXT becomes the base-2^56 digits,
most significant first, of `int.from_bytes(b"\x01" + utf8, "big")`: zero
bytes in front pad a start byte and the value to whole 7-byte chunks
(ISO/IEC 9797-1 padding method 2, marker in front), and the start byte
keeps the value's leading NUL bytes. A value of b bytes takes
ceil((b + 1) / 7) elements, each < 2^56 and so below p = 2^61 - 1. Also
holds the table-schema model shared by dealer, servers, and query engine.
"""

from __future__ import annotations

import enum
import json
import re
import struct
from dataclasses import dataclass
from typing import Sequence

from .field import MERSENNE_61, SHARE_BYTES

CHUNK_BYTES = 7
MAX_TEXT_BYTES = 1 << 20

# the one rule for table and attribute names, in schemas and in queries
IDENT_PATTERN = "[A-Za-z_][A-Za-z0-9_]*"
_IDENT_RE = re.compile(IDENT_PATTERN + r"\Z")


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
        """The schema `obj` describes; each part is checked where it is constructed."""
        try:
            attrs = tuple(Attribute(a["name"], AttrType(a["type"])) for a in obj["attributes"])
            return cls(table_name=obj["table"], attributes=attrs)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed schema: {exc!r}") from exc

    def canonical_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))


def encode_value(attr_type: AttrType, value) -> list[int]:
    """Encode one typed value as a nonempty list of field elements."""
    if attr_type is AttrType.INTEGER:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"INTEGER value must be int, got {type(value).__name__}")
        if not 0 <= value < MERSENNE_61:
            raise ValueError(f"INTEGER value {value} outside [0, {MERSENNE_61})")
        return [value]

    if not isinstance(value, str):
        raise ValueError(f"TEXT value must be str, got {type(value).__name__}")
    raw = value.encode("utf-8")
    if len(raw) > MAX_TEXT_BYTES:
        raise ValueError(f"TEXT value of {len(raw)} bytes exceeds {MAX_TEXT_BYTES}")
    padded = (b"\x01" + raw).rjust((len(raw) // CHUNK_BYTES + 1) * CHUNK_BYTES, b"\0")
    return [
        int.from_bytes(padded[off : off + CHUNK_BYTES], "big")
        for off in range(0, len(padded), CHUNK_BYTES)
    ]


def decode_cells(attr_type: AttrType, packed: bytes, counts: Sequence[int]) -> list:
    """Decode a column of cells, cell k the next counts[k] of the plain
    elements in `packed`, 8 big-endian bytes each: the inverse of
    `encode_value`, cell by cell. A malformed encoding raises ValueError.

    INTEGER cells are unpacked together. For TEXT, every element's top
    byte is tested for zero at once and cut, and each cell is then one
    start-byte check and one UTF-8 decode of the bytes after it.
    """
    if 0 in counts:
        raise ValueError("empty encoding")
    if attr_type is AttrType.INTEGER:
        if counts.count(1) != len(counts):
            raise ValueError(f"INTEGER encodes to 1 element, got {max(counts)}")
        return list(struct.unpack(f">{len(counts)}Q", packed))

    tops = packed[::SHARE_BYTES]
    if tops.count(0) != len(tops):
        raise ValueError("an element is 2^56 or more")
    chunked = bytearray(len(tops) * CHUNK_BYTES)  # every element in its low 7 bytes
    for i in range(1, CHUNK_BYTES + 1):
        chunked[CHUNK_BYTES - i :: CHUNK_BYTES] = packed[SHARE_BYTES - i :: SHARE_BYTES]
    raw = bytes(chunked)
    values = []
    end = 0
    try:
        for count in counts:
            start = end
            end += count * CHUNK_BYTES
            head = raw[start : start + CHUNK_BYTES].lstrip(b"\0")
            if head[:1] != b"\x01":
                raise ValueError(f"no start byte 0x01 after fewer than {CHUNK_BYTES} zero bytes")
            start += CHUNK_BYTES - len(head) + 1  # the value's first byte
            if end - start > MAX_TEXT_BYTES:
                raise ValueError(f"TEXT value of {end - start} bytes exceeds {MAX_TEXT_BYTES}")
            values.append(raw[start:end].decode())
    except UnicodeDecodeError as exc:
        raise ValueError(f"decoded bytes are not UTF-8: {exc}") from exc
    return values
