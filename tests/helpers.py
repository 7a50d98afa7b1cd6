"""Helpers shared by the test modules."""

import struct

from ssdb.protocol import FrameDecoder

# frames whose JSON header Python's json module refuses with something
# other than JSONDecodeError: a RecursionError, and a ValueError for an
# integer past the int/str digit limit (a bare int on Python 3.10, which
# has no limit, and still not a JSON object)
HOSTILE_FRAMES = {
    name: len(header).to_bytes(4, "big") + header
    for name, header in (("deep", b"[" * 100_000), ("digits", b"1" * 5_000))
}

# JSON objects that describe no schema: each fails in the constructor of
# Attribute, AttrType or TableSchema, the only checks a schema read makes
MALFORMED_SCHEMAS = {
    "attributes-object": {"table": "t", "attributes": {"name": "a", "type": "INTEGER"}},
    "attributes-string": {"table": "t", "attributes": "a INTEGER"},
    "attributes-lists": {"table": "t", "attributes": [["a", "INTEGER"]]},
    "no-type": {"table": "t", "attributes": [{"name": "a"}]},
    "name-not-string": {"table": "t", "attributes": [{"name": 7, "type": "INTEGER"}]},
    "table-not-string": {"table": 7, "attributes": [{"name": "a", "type": "INTEGER"}]},
}


def split_counts(flat, counts):
    """Cut a flat run into consecutive pieces of the given lengths."""
    out, pos = [], 0
    for count in counts:
        out.append(list(flat[pos : pos + count]))
        pos += count
    return out


def unpack(packed):
    """The ints of a run of 8-byte big-endian shares or plain elements."""
    return struct.unpack(f">{len(packed) // 8}Q", packed)


def vectors(rows):
    """Each cell's shares of a ShareRows, as ints, in body order."""
    return split_counts(unpack(rows.packed), rows.counts)


class FrameReader:
    """A fake peer's blocking reader: one message of a socket per `read`.

    Bytes that arrive after a frame are kept for the next call, so
    pipelined frames are read one by one.
    """

    def __init__(self, sock):
        self.sock = sock
        self.decoder = FrameDecoder()
        self.ready = []  # decoded and not yet returned

    def read(self):
        """The next message, or None if the peer hung up between frames."""
        while not self.ready:
            data = self.sock.recv(65536)
            if not data:
                if self.decoder._buf:
                    raise ConnectionError("peer closed mid-frame")
                return None
            self.ready += self.decoder.feed(data)
        return self.ready.pop(0)
