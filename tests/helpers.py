"""Helpers shared by the test modules."""

from ssdb.protocol import split_counts, unpack_shares


def vectors(rows, p):
    """Each cell's shares of a ShareRows, as ints, in body order."""
    return split_counts(unpack_shares(rows.packed, p), rows.counts)
