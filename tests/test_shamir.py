"""Share splitting and Lagrange reconstruction."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssdb.field import MERSENNE_61
from ssdb.shamir import (
    InsufficientSharesError,
    lagrange_weights,
    reconstruct,
    split,
)

P61 = MERSENNE_61


class ScriptedRng:
    """Feeds split() a fixed list of 'random' coefficients."""

    def __init__(self, values):
        self._values = list(values)

    def randrange(self, n):
        v = self._values.pop(0)
        assert 0 <= v < n
        return v


def xs(n):
    return list(range(1, n + 1))


def points(n, secret, t, p, rng):
    """The (x, y) shares of `secret` at x = 1..n."""
    return list(zip(xs(n), split(secret, xs(n), t, p, rng)))


class TestSplit:
    def test_known_polynomial_gf17(self):
        # secret 5, single random coefficient 3: f(x) = 5 + 3x
        assert split(5, xs(3), 2, 17, ScriptedRng([3])) == [8, 11, 14]

    def test_share_count_and_coordinates(self):
        # one y per x, in the order the x-coordinates are given
        ys = split(123, [5, 1, 3, 2, 4], 3, P61, random.Random(1))
        assert len(ys) == 5
        again = dict(zip([5, 1, 3, 2, 4], ys))
        assert split(123, xs(5), 3, P61, random.Random(1)) == [again[x] for x in xs(5)]

    def test_t1_is_plain_replication(self):
        # no random coefficients at all: every share equals the secret
        assert split(9, xs(4), 1, 17, ScriptedRng([])) == [9, 9, 9, 9]

    def test_deterministic_under_seeded_rng(self):
        a = split(7, xs(4), 2, P61, random.Random(99))
        b = split(7, xs(4), 2, P61, random.Random(99))
        assert a == b

    def test_unseeded_split_round_trips(self):
        # no rng: coefficients come from OS entropy, uniform in [0, p)
        seen = set()
        for _ in range(300):
            ys = split(5, xs(3), 2, 17)
            assert all(0 <= y < 17 for y in ys)
            assert reconstruct(list(zip(xs(3), ys))[1:], 2, 17) == 5
            seen.add(ys[0])
        assert seen == set(range(17))  # misses a value with odds below 1e-6

    def test_mixed_modulus_secret_rejected(self):
        # an element of GF(2^61 - 1) that is no element of GF(17)
        for secret in (17, 5 + 17, P61 - 1, -1):
            with pytest.raises(ValueError):
                split(secret, xs(3), 2, 17, random.Random(0))


class TestLagrangeWeights:
    def test_frozen_pair_gf17(self):
        assert lagrange_weights((1, 2), 17) == [2, 16]

    def test_frozen_gap_pair_gf17(self):
        assert lagrange_weights((1, 3), 17) == [10, 8]

    def test_weights_sum_to_one(self):
        # interpolating the constant polynomial 1 at zero
        rng = random.Random(5)
        for _ in range(20):
            chosen = rng.sample(range(1, 200), rng.randint(1, 6))
            assert sum(lagrange_weights(chosen, P61)) % P61 == 1

    def test_duplicate_x_rejected(self):
        # equal, zero, equal once reduced mod p, or none: at read time the
        # x-coordinates come from servers
        for bad in ((2, 2), (17, 1), (1, 0), (3, 20), (1, 18, 5), ()):
            with pytest.raises(ValueError):
                lagrange_weights(bad, 17)


class TestReconstruct:
    def test_frozen_example_gf17(self):
        assert reconstruct([(1, 8), (3, 14)], 2, 17) == 5

    def test_uses_exactly_first_t_shares(self):
        good = points(3, 5, 2, 17, ScriptedRng([3]))
        # a corrupted third share must not matter when t=2
        tampered = [good[0], good[1], (3, 0)]
        assert reconstruct(tampered, 2, 17) == 5

    def test_insufficient_shares(self):
        shares = points(3, 5, 2, 17, ScriptedRng([3]))
        with pytest.raises(InsufficientSharesError):
            reconstruct(shares[:1], 2, 17)

    def test_any_subset_of_t_agrees(self):
        shares = points(5, 424242, 3, P61, random.Random(3))
        for subset in itertools.combinations(shares, 3):
            assert reconstruct(list(subset), 3, P61) == 424242

    @given(st.integers(0, 16), st.integers(1, 5), st.data())
    def test_round_trip_gf17(self, secret, n, data):
        t = data.draw(st.integers(1, n))
        self._round_trip(17, secret, n, t, data.draw(st.integers(0, 2**32)))

    @given(st.integers(0, MERSENNE_61 - 1), st.integers(1, 8), st.data())
    @settings(max_examples=60)
    def test_round_trip_gf61(self, secret, n, data):
        t = data.draw(st.integers(1, n))
        self._round_trip(P61, secret, n, t, data.draw(st.integers(0, 2**32)))

    @staticmethod
    def _round_trip(p, secret, n, t, seed):
        shares = points(n, secret, t, p, random.Random(seed))
        rng = random.Random(seed + 1)
        subset = rng.sample(shares, t)
        assert reconstruct(subset, t, p) == secret


class TestSecrecy:
    def test_single_share_distribution_is_uniform_gf17(self):
        # t=2: one random coefficient; sweep it fully for two different
        # secrets and compare what one share server would see
        for x_pos in range(3):
            views = {}
            for secret in (0, 5):
                views[secret] = sorted(
                    split(secret, xs(3), 2, 17, ScriptedRng([r]))[x_pos] for r in range(17)
                )
            assert views[0] == list(range(17))
            assert views[0] == views[5]
