"""The prime modulus and the width of a share.

Secrets and share values are plain ints mod the public prime p = 2^61 - 1,
the Mersenne prime every cluster uses: large enough that any 7-byte chunk
(< 2^56) is a valid element, small enough that every element fits one
8-byte word.
"""

from __future__ import annotations

MERSENNE_61 = (1 << 61) - 1
SHARE_BYTES = 8  # big-endian bytes per share and per plain element, on the wire and on disk
