"""Helpers shared by the test modules."""

from ssdb.protocol import unpack_shares


def split_counts(flat, counts):
    """Cut a flat run into consecutive pieces of the given lengths."""
    out, pos = [], 0
    for count in counts:
        out.append(list(flat[pos : pos + count]))
        pos += count
    return out


def vectors(rows, p):
    """Each cell's shares of a ShareRows, as ints, in body order."""
    return split_counts(unpack_shares(rows.packed, p), rows.counts)
