"""Independent arithmetic for generating inputs and checking outputs.

Nothing here imports lucasatoms: the workload generator must not touch the
library, and the output checks must not trust it. Everything is plain integer
arithmetic on the definitions (U_n by its recurrence, atoms as the Mobius
product of U values) so a bug in the library cannot hide in its own check.
"""

from __future__ import annotations

from fractions import Fraction
from math import log


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 by trial division (inputs here are small)."""
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == [(n, 1)]


def primes_between(lo: int, hi: int) -> list[int]:
    """Primes p with lo <= p < hi."""
    return [p for p in range(max(lo, 2), hi) if is_prime(p)]


def divisors(n: int) -> list[int]:
    out = [1]
    for p, e in factorize(n):
        out = [d * p**i for i in range(e + 1) for d in out]
    return sorted(out)


def phi(n: int) -> int:
    out = 1
    for p, e in factorize(n):
        out *= p ** (e - 1) * (p - 1)
    return out


def mobius(n: int) -> int:
    facts = factorize(n)
    if any(e > 1 for _, e in facts):
        return 0
    return -1 if len(facts) % 2 else 1


def vp(p: int, x: int) -> int:
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e


def degenerate(s: int, t: int) -> bool:
    """True when some atom P_n(s, t) vanishes (or t = 0): such pairs make
    valuation calls fail, so workloads avoid them."""
    return t == 0 or s == 0 or s * s + t == 0 or s * s + 2 * t == 0 or s * s + 3 * t == 0


def lucas_values(n_max: int, s: int, t: int) -> list[int]:
    """[U_0, ..., U_n_max] by the integer recurrence."""
    u = [0, 1]
    for _ in range(n_max - 1):
        u.append(s * u[-1] + t * u[-2])
    return u[: n_max + 1]


def companion_value(n: int, s: int, t: int) -> int:
    w0, w1 = 2, s
    for _ in range(n):
        w0, w1 = w1, s * w1 + t * w0
    return w0


def atom_value(n: int, s: int, t: int, u: list[int] | None = None) -> int:
    """P_n(s, t) = prod_{d | n} U_d^mu(n/d), by exact integer division.

    Valid for non-degenerate (s, t), where every U_d is nonzero.
    """
    if n == 1:
        return 1
    if u is None or len(u) <= n:
        u = lucas_values(n, s, t)
    num, den = 1, 1
    for d in divisors(n):
        mu = mobius(n // d)
        if mu == 1:
            num *= u[d]
        elif mu == -1:
            den *= u[d]
    value, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"atom quotient at {n} is not exact")
    return value


def lucas_mod(n: int, s: int, t: int, p: int) -> int:
    """U_n mod p by 2x2 matrix powering: [[s, t], [1, 0]]^n = [[U_{n+1}, t U_n], [U_n, t U_{n-1}]]."""
    a, b, c, d = 1, 0, 0, 1  # identity
    x, y, z, w = s % p, t % p, 1, 0
    while n:
        if n & 1:
            a, b, c, d = (a * x + b * z) % p, (a * y + b * w) % p, (c * x + d * z) % p, (c * y + d * w) % p
        x, y, z, w = (x * x + y * z) % p, (x * y + y * w) % p, (z * x + w * z) % p, (z * y + w * w) % p
        n >>= 1
    return c


def rank_bound(p: int, s: int, t: int) -> int:
    """p - (Delta/p) for an odd prime p not dividing t or the discriminant."""
    delta = s * s + 4 * t
    return p - (1 if pow(delta % p, (p - 1) // 2, p) == 1 else -1)


def rank_by_order(p: int, s: int, t: int) -> int:
    """Least k >= 1 with p | U_k, for odd p not dividing t or the discriminant.

    Order-finding: start at the bound and strip each prime factor q while
    U_{k/q} stays 0 mod p. No divisor walk, so it is independent of the
    library's search.
    """
    k = rank_bound(p, s, t)
    for q, _ in factorize(k):
        while k % q == 0 and lucas_mod(k // q, s, t, p) == 0:
            k //= q
    return k


def rank_walk_steps(p: int, s: int, t: int) -> int:
    """Recurrence steps a divisor walk spends before it meets the rank:
    the sum of the divisors of the bound up to the rank."""
    rho = rank_by_order(p, s, t)
    return sum(d for d in divisors(rank_bound(p, s, t)) if d <= rho)


def recurrence_system(
    values: dict[int, int], order: int, degree: int, n_from: int, n_to: int
) -> tuple[list[list[int]], list[int]]:
    """Rows and right-hand side of P_n = G_0(n) + sum_j G_j(n) P_{n-j},
    unknowns ordered G_0 c_0..c_D, G_1 c_0..c_D, ..."""
    rows, rhs = [], []
    for n in range(n_from, n_to + 1):
        powers = [n**r for r in range(degree + 1)]
        row = list(powers)
        for j in range(1, order + 1):
            row.extend(pw * values[n - j] for pw in powers)
        rows.append(row)
        rhs.append(values[n])
    return rows, rhs


def certifies_inconsistency(
    certificate: list[Fraction], rows: list[list[int]], rhs: list[int]
) -> bool:
    """y.A = 0 and y.b != 0 for y given on the leading rows of the system."""
    if not certificate or len(certificate) > len(rows):
        return False
    used = rows[: len(certificate)]
    for col in range(len(rows[0])):
        if sum(y * row[col] for y, row in zip(certificate, used)) != 0:
            return False
    return sum(y * b for y, b in zip(certificate, rhs)) != 0


def loglog_slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log y against log x."""
    lx = [log(x) for x in xs]
    ly = [log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    var = sum((a - mx) ** 2 for a in lx)
    if var == 0:
        return 0.0
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / var
