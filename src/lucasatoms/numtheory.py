"""Elementary arithmetic functions: divisors, totient, Mobius, p-adic valuation, primality."""

from __future__ import annotations

import math
import random
from functools import cache
from itertools import compress
from operator import sub
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from array import array
    from collections.abc import Iterator

__all__ = [
    "DETERMINISTIC_PRIMALITY_BOUND",
    "divisors",
    "euler_phi",
    "factorize",
    "is_prime",
    "legendre",
    "mobius",
    "radical",
    "vp_int",
]

# No composite below this bound passes a strong-pseudoprime test for all twelve bases.
DETERMINISTIC_PRIMALITY_BOUND = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXTRA_ROUNDS = 70  # 4^-70 < 2^-128
_TRIAL_LIMIT = 10**6


def _is_mr_witness(n: int, a: int) -> bool:
    """True if base a witnesses the compositeness of odd n > 2."""
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_prime(n: int) -> bool:
    """Primality of n.

    Deterministic below DETERMINISTIC_PRIMALITY_BOUND (fixed Miller-Rabin base set);
    above it a strong probable-prime verdict with error probability below 2^-128.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < 41 * 41:
        return True
    if n < DETERMINISTIC_PRIMALITY_BOUND:
        return not any(_is_mr_witness(n, a) for a in _MR_BASES)
    rng = random.Random(n)
    return not any(
        _is_mr_witness(n, rng.randrange(2, n - 1)) for _ in range(_MR_EXTRA_ROUNDS)
    )


def _pollard_rho(n: int, rng: random.Random) -> int:
    """A nontrivial factor of odd composite n (Brent's cycle variant)."""
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


@cache
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((prime, exponent), ...) with primes ascending."""
    if n < 1:
        raise ValueError("factorize requires a positive integer")
    facts: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            facts[p] = facts.get(p, 0) + 1
            n //= p
    d = 5
    while d <= _TRIAL_LIMIT and d * d <= n:
        for step in (d, d + 2):
            while n % step == 0:
                facts[step] = facts.get(step, 0) + 1
                n //= step
        d += 6
    if d * d > n:
        # no prime below d divides the leftover, so it is 1 or a prime
        if n > 1:
            facts[n] = 1
        return tuple(sorted(facts.items()))
    # Anything else that survives trial division is split with Pollard rho.
    stack = [n]
    rng: random.Random | None = None
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            facts[m] = facts.get(m, 0) + 1
            continue
        if rng is None:
            rng = random.Random(n)
        g = _pollard_rho(m, rng)
        stack.append(g)
        stack.append(m // g)
    return tuple(sorted(facts.items()))


@cache
def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n >= 1, ascending."""
    if n < 1:
        raise ValueError("divisors requires a positive integer")
    out = [1]
    for p, e in factorize(n):
        out = [d * p**i for i in range(e + 1) for d in out]
    return tuple(sorted(out))


@cache
def euler_phi(n: int) -> int:
    """Count of 1 <= j <= n with gcd(j, n) = 1."""
    if n < 1:
        raise ValueError("euler_phi requires a positive integer")
    out = 1
    for p, e in factorize(n):
        out *= p ** (e - 1) * (p - 1)
    return out


def _phi_sieve(n: int) -> array[int]:
    """array('q') of phi(0) = 0, phi(1), ..., phi(n), with no factorization:
    the Mobius inversion of m = sum_{d | m} phi(d), the package's only dense
    inversion (the scan's lists leave phi out). mu is the product of
    (1 - [r]) over the primes r, so one pass per prime r <= n sets
    f(m) -= f(m/r) at its multiples m, from copies taken before the pass,
    about n log log n steps in all."""
    from array import array

    vals = array("q", range(n + 1))
    for r in _primes(n):
        vals[r::r] = array("q", map(sub, vals[r::r], vals[1 : n // r + 1]))
    return vals


def _primes(n: int) -> Iterator[int]:
    """The primes up to n, ascending, by a sieve of Eratosthenes on one bytearray."""
    sieve = bytearray([0, 0]) + bytearray([1]) * (n - 1)
    for q in range(2, math.isqrt(n) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytes(len(range(q * q, n + 1, q)))
    return compress(range(n + 1), sieve)


@cache
def mobius(n: int) -> int:
    """0 if n is not squarefree, else (-1)^(number of prime factors)."""
    if n < 1:
        raise ValueError("mobius requires a positive integer")
    facts = factorize(n)
    if any(e > 1 for _, e in facts):
        return 0
    return -1 if len(facts) % 2 else 1


def radical(n: int) -> int:
    """Product of the distinct prime factors of n >= 1."""
    out = 1
    for p, _ in factorize(n):
        out *= p
    return out


def vp_int(p: int, x: int) -> int:
    """Largest e with p^e dividing x (x != 0, p prime)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _vp(p, x)


def _vp(p: int, x: int) -> int:
    """Largest e with p^e dividing x (x != 0), for a p the caller proved prime.

    O(log e) divisions: p = 2 reads the lowest set bit of x. An odd p returns
    0 after one remainder when p ∤ x; otherwise it divides out p^(2^i) while
    that divides, doubling i, then takes the powers back down in turn, since
    what is left has valuation below the last power's exponent.
    """
    if x == 0:
        raise ValueError("valuation of zero is undefined")
    if p == 2:
        return (x & -x).bit_length() - 1
    if x % p:
        return 0
    e, q, powers = 0, p, []
    while x % q == 0:
        x //= q
        e += 1 << len(powers)
        powers.append(q)
        q *= q
    for i in range(len(powers) - 1, -1, -1):
        q = powers[i]
        if x % q == 0:
            x //= q
            e += 1 << i
    return e


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p; 0 iff p | a."""
    if p == 2 or not is_prime(p):
        raise ValueError("legendre requires an odd prime modulus")
    e = pow(a % p, (p - 1) // 2, p)
    if e == 0:
        return 0
    return 1 if e == 1 else -1
