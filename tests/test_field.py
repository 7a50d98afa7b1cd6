"""The primality check behind every modulus."""

from hypothesis import given, settings
from hypothesis import strategies as st

from ssdb.field import MERSENNE_61, is_prime


def trial_division(n: int) -> bool:
    """Independent primality oracle for small n."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class TestIsPrime:
    def test_small_numbers_match_trial_division(self):
        for n in range(-5, 2000):
            assert is_prime(n) == trial_division(n), n

    def test_carmichael_numbers_are_composite(self):
        # Fermat-only tests pass these; Miller-Rabin must not.
        for n in (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265):
            assert not is_prime(n), n

    def test_strong_pseudoprimes_are_composite(self):
        # strong pseudoprimes to the first few bases individually
        assert not is_prime(2047)  # base 2
        assert not is_prime(1373653)  # bases 2, 3
        assert not is_prime(25326001)  # bases 2, 3, 5
        assert not is_prime(3215031751)  # bases 2, 3, 5, 7

    def test_known_large_values(self):
        assert is_prime(MERSENNE_61)
        assert is_prime((1 << 61) - 1)
        assert not is_prime((1 << 67) - 1)  # 193707721 * 761838257287
        assert not is_prime(MERSENNE_61 - 1)
        assert is_prime(2**127 - 1)

    @given(st.integers(min_value=2, max_value=10**6))
    @settings(max_examples=300)
    def test_matches_trial_division(self, n):
        assert is_prime(n) == trial_division(n)
