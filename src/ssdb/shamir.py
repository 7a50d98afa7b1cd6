"""Threshold secret sharing over the integers mod a prime p.

A secret s becomes n points on a random polynomial of degree t-1 with
constant term s. Any t points recover s exactly by Lagrange interpolation
at zero; any t-1 points are statistically independent of s.

Every value is a plain int. p, t and the holders' x-coordinates are
validated once, by ClusterConfig, and a read takes its x-coordinates
from the cluster file, not from the servers. These functions trust
them, except that lagrange_weights checks the x-coordinates it is
handed.
"""

from __future__ import annotations

import secrets
from typing import Sequence


class InsufficientSharesError(ValueError):
    """Fewer shares supplied than the reconstruction threshold."""


def split(secret: int, xs: Sequence[int], t: int, p: int, rng=None) -> list[int]:
    """Split a secret into one share per x-coordinate.

    Args:
        secret: An int in [0, p).
        xs: The holders' x-coordinates, distinct and nonzero mod p.
        t: Reconstruction threshold; the polynomial has degree t-1.
        p: The prime modulus.
        rng: random.Random-alike for the t-1 blinding coefficients;
            OS entropy when None.

    Returns:
        [f(x) for x in xs] for a fresh polynomial f of degree t-1 with
        f(0) = secret.
    """
    if not 0 <= secret < p:
        raise ValueError(f"secret {secret} is not in [0, {p})")
    draw = secrets.randbelow if rng is None else rng.randrange
    coeffs = [secret] + [draw(p) for _ in range(t - 1)]
    coeffs.reverse()  # Horner, highest degree first
    ys = []
    for x in xs:
        y = 0
        for c in coeffs:
            y = (y * x + c) % p
        ys.append(y)
    return ys


def lagrange_weights(xs: Sequence[int], p: int) -> list[int]:
    """Lagrange basis evaluated at zero for the given x-coordinates.

    Applied to matching y values these weights yield f(0). They sum to 1
    mod p (they interpolate the constant polynomial 1 exactly).

    Raises:
        ValueError: no x-coordinates, or two equal or one zero mod p.
    """
    if not xs:
        raise ValueError("need at least one x-coordinate")
    xs = [x % p for x in xs]
    if len(set(xs)) != len(xs):
        raise ValueError(f"duplicate x-coordinates mod {p}")
    if 0 in xs:
        raise ValueError(f"x-coordinate is 0 mod {p} (the secret lives at x=0)")
    weights = []
    for i, xi in enumerate(xs):
        num = den = 1
        for j, xj in enumerate(xs):
            if j != i:
                num = num * xj % p
                den = den * (xj - xi) % p
        weights.append(num * pow(den, p - 2, p) % p)
    return weights


def reconstruct(points: Sequence[tuple[int, int]], t: int, p: int) -> int:
    """Recover f(0) from the first t of the supplied (x, y) points.

    Exactly the first t points are used, deterministically; extra points
    are ignored and never cross-checked (there is no verifiability).

    Raises:
        InsufficientSharesError: fewer than t points.
        ValueError: duplicate or zero x-coordinates among the points used.
    """
    if len(points) < t:
        raise InsufficientSharesError(f"got {len(points)} shares, threshold is {t}")
    used = points[:t]
    weights = lagrange_weights([x for x, _ in used], p)
    return sum(w * y for w, (_, y) in zip(weights, used)) % p
