"""Helpers shared by the test modules."""

import struct

from ssdb.protocol import FrameDecoder


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
