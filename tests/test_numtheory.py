import math
from array import array

import pytest

from lucasatoms.numtheory import (
    _phi_sieve,
    _vp,
    divisors,
    euler_phi,
    factorize,
    is_prime,
    legendre,
    mobius,
    vp_int,
)


# -- brute-force oracles -------------------------------------------------------

def divisors_oracle(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def phi_oracle(n):
    return sum(1 for j in range(1, n + 1) if math.gcd(j, n) == 1)


def vp_oracle(p, x):
    x = abs(x)
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e


def is_prime_oracle(n):
    return n >= 2 and all(n % d for d in range(2, int(math.isqrt(n)) + 1))


# -- divisors -------------------------------------------------------------------

def test_divisors_examples():
    assert divisors(1) == (1,)
    assert divisors(6) == (1, 2, 3, 6)
    assert divisors(56) == tuple(divisors_oracle(56)) == (1, 2, 4, 7, 8, 14, 28, 56)


def test_divisors_rejects_zero():
    with pytest.raises(ValueError):
        divisors(0)


def test_divisors_pairing():
    for n in (1, 2, 12, 56, 360, 997, 1024):
        ds = divisors(n)
        assert sorted(n // d for d in ds) == list(ds)


# -- euler_phi -------------------------------------------------------------------

def test_euler_phi_examples():
    assert euler_phi(1) == 1
    assert euler_phi(6) == 2
    assert euler_phi(56) == phi_oracle(56) == 24


def test_euler_phi_rejects_zero():
    with pytest.raises(ValueError):
        euler_phi(0)


def test_phi_divisor_sum_identity():
    for n in range(1, 10001):
        assert sum(euler_phi(d) for d in divisors(n)) == n


def test_phi_sieve_matches_euler_phi():
    assert _phi_sieve(0) == array("q", [0])
    assert _phi_sieve(1) == array("q", [0, 1])
    assert _phi_sieve(10000) == array("q", [0] + [euler_phi(n) for n in range(1, 10001)])


# -- mobius ----------------------------------------------------------------------

def test_mobius_examples():
    assert mobius(1) == 1
    assert mobius(6) == 1
    assert mobius(12) == 0
    assert mobius(30) == -1


def test_mobius_rejects_zero():
    with pytest.raises(ValueError):
        mobius(0)


def test_mobius_divisor_sum_vanishes():
    for n in range(2, 10001):
        assert sum(mobius(d) for d in divisors(n)) == 0


# -- vp_int ----------------------------------------------------------------------

def test_vp_int_examples():
    assert vp_int(2, 144) == vp_oracle(2, 144) == 4
    assert vp_int(5, 75025) == vp_oracle(5, 75025) == 2
    assert vp_int(7, 1) == 0
    assert vp_int(3, -54) == 3


def test_vp_int_errors():
    with pytest.raises(ValueError):
        vp_int(2, 0)
    with pytest.raises(ValueError):
        vp_int(6, 12)


@pytest.mark.parametrize("p", [2, 3, 5, 13])
def test_vp_int_prime_power_times_coprime(p):
    for e in range(0, 6):
        for m in (1, 7, 11, p + 1):
            if m % p == 0:
                continue
            assert vp_int(p, p**e * m) == e


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 10**9 + 7])
def test_vp_matches_the_division_loop(p):
    # _vp takes O(log e) divisions; vp_oracle divides once per unit of e
    cofactors = (1, 2, 3, 7, p - 1, p + 1, 2 * p, 5 * p**3, 10**40 + 1)
    cases = [(e, u, sign) for e in range(70) for u in cofactors for sign in (1, -1)]
    # the oracle is quadratic in e, so large e take fewer cofactors, signs alternating
    large = [(e, u) for e in (127, 128, 129, 1023, 1024, 4999, 5000) for u in cofactors[4:8]]
    cases += [(e, u, (-1) ** i) for i, (e, u) in enumerate(large)]
    for e, u, sign in cases:
        x = sign * u * p**e
        assert _vp(p, x) == vp_oracle(p, x), (p, e, u, sign)


def test_vp_zero_and_composite_are_rejected():
    for p in (2, 3, 10**9 + 7):
        with pytest.raises(ValueError, match="zero"):
            _vp(p, 0)
    for p in (1, 4, 9, 91, 3 * (10**9 + 7)):
        with pytest.raises(ValueError, match="not prime"):
            vp_int(p, 12)


# -- legendre ---------------------------------------------------------------------

def test_legendre_examples():
    # Euler criterion oracle: 5^3 = 125 = 6 mod 7, a nonresidue
    assert pow(5, 3, 7) == 7 - 1
    assert legendre(5, 7) == -1
    assert legendre(0, 5) == 0
    assert legendre(4, 7) == 1


def test_legendre_matches_euler_criterion():
    for p in (3, 5, 7, 11, 13):
        for a in range(-10, 11):
            e = pow(a % p, (p - 1) // 2, p)
            expected = 0 if e == 0 else (1 if e == 1 else -1)
            assert legendre(a, p) == expected


def test_legendre_rejects_bad_modulus():
    with pytest.raises(ValueError):
        legendre(3, 2)
    with pytest.raises(ValueError):
        legendre(3, 15)


# -- primality ---------------------------------------------------------------------

def test_is_prime_examples():
    assert not is_prime(1)
    assert is_prime(7)
    assert not is_prime(75025)  # 5^2 * 3001, trial-division oracle
    assert is_prime_oracle(75025) is False


def test_is_prime_small_range_matches_oracle():
    for n in range(0, 2000):
        assert is_prime(n) == is_prime_oracle(n)


def test_is_prime_larger_values():
    assert is_prime(2**61 - 1)
    assert not is_prime(561)  # Carmichael
    assert not is_prime((2**31 - 1) * (2**61 - 1))


def test_factorize_roundtrip():
    for n in (1, 2, 97, 360, 75025, 2**20 - 1, 10**9 + 7):
        facts = factorize(n)
        prod = 1
        for p, e in facts:
            assert is_prime(p) and e >= 1
            prod *= p**e
        assert prod == n
        assert [p for p, _ in facts] == sorted({p for p, _ in facts})


def factorize_oracle(n):
    facts, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            facts[d] = facts.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        facts[n] = facts.get(n, 0) + 1
    return tuple(sorted(facts.items()))


def test_factorize_matches_trial_division_oracle():
    for n in range(1, 20001):
        assert factorize(n) == factorize_oracle(n), n


@pytest.mark.parametrize(
    "p, q",
    [(1000003, 1000033), (1000037, 3000017), (1000039, 1000039), (3000029, 3000061)],
)
def test_factorize_semiprimes_past_trial_division(p, q):
    # both factors lie above the trial-division limit, so Pollard rho splits them
    assert factorize_oracle(p) == ((p, 1),) and factorize_oracle(q) == ((q, 1),)
    expected = ((p, 2),) if p == q else ((p, 1), (q, 1))
    assert factorize(p * q) == expected
    assert factorize(6 * p * q) == ((2, 1), (3, 1)) + expected
