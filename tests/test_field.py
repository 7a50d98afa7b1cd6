"""The one modulus: 2^61 - 1 is prime, and every element fits a share."""

from ssdb.field import MERSENNE_61, SHARE_BYTES


def lucas_lehmer(q: int) -> bool:
    """Whether 2^q - 1 is prime, for an odd prime q (Lehmer, Annals of Math. 1930)."""
    m, s = (1 << q) - 1, 4
    for _ in range(q - 2):
        s = (s * s - 2) % m
    return s == 0


def test_modulus_is_the_mersenne_prime_and_fits_a_share():
    assert MERSENNE_61 == 2**61 - 1
    assert lucas_lehmer(61)
    # the same helper on a composite Mersenne number, whose factors are known
    assert 193707721 * 761838257287 == 2**67 - 1
    assert not lucas_lehmer(67)
    # every element below p, the largest included, fits one share word
    assert (MERSENNE_61 - 1).bit_length() <= 8 * SHARE_BYTES
