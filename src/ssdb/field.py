"""The prime modulus, the width of a share, and the primality check.

Secrets and share values are plain ints mod the public prime p = 2^61 - 1,
the Mersenne prime every cluster uses: large enough that any 7-byte chunk
(< 2^56) is a valid element, small enough that every element fits one
8-byte word.
"""

from __future__ import annotations

MERSENNE_61 = (1 << 61) - 1
SHARE_BYTES = 8  # big-endian bytes per share and per plain element, on the wire and on disk

# Deterministic Miller-Rabin witness set, exact for all n < 3.3 * 10^24
# (covers every 64-bit candidate with room to spare).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test, deterministic for n < 2^64."""
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
