"""Prime-field arithmetic for polynomial fingerprinting.

The equality tester encodes a set ``S ⊆ [N]`` as the polynomial
``P_S(x) = Σ_{i∈S} x^i`` over a prime field ``F_p`` with ``p > 2N``.  Two
distinct sets give distinct polynomials of degree ≤ N, which agree on at
most N of the p evaluation points — so a uniformly random point exposes a
difference with probability ≥ 1 − N/p ≥ 1/2.

Primality testing is deterministic Miller–Rabin with a base set proven
sufficient for all 64-bit integers, which is far beyond any N this
simulator meets.
"""

from __future__ import annotations

from functools import lru_cache

__all__ = ["is_prime", "next_prime", "eval_set_polynomial"]

# Witness set deterministically correct for all n < 3.3 * 10^24
# (Sorenson & Webster 2015).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(value: int) -> bool:
    """Deterministic primality test for any value this library needs."""
    if value < 2:
        return False
    small_primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small_primes:
        if value == p:
            return True
        if value % p == 0:
            return False
    d = value - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, value)
        if x in (1, value - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % value
            if x == value - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=64)
def next_prime(value: int) -> int:
    """The smallest prime strictly greater than ``value`` (memoised:
    every EQTest tester for one universe bound asks for the same field)."""
    candidate = max(value + 1, 2)
    if candidate > 2 and candidate % 2 == 0:
        candidate += 1
    while not is_prime(candidate):
        candidate += 1 if candidate == 2 else 2
    return candidate


def eval_set_polynomial(elements, point: int, prime: int) -> int:
    """Evaluate ``P_S(x) = Σ_{i∈S} x^i mod prime`` at ``x = point``.

    Elements must be non-negative integers (token labels from ``[N]``).
    """
    if prime < 2:
        raise ValueError(f"prime must be >= 2, got {prime}")
    total = 0
    x = point % prime
    for element in elements:
        if element < 0:
            raise ValueError(f"set elements must be >= 0, got {element}")
        total = (total + pow(x, element, prime)) % prime
    return total
