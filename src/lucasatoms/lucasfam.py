"""Classical recurrent families: Lucas polynomials U_n, companion polynomials
W_n = alpha^n + beta^n, cyclotomic polynomials, and integer specializations.

With s = alpha + beta and t = -alpha*beta, both polynomial families satisfy
X_n = s*X_{n-1} + t*X_{n-2}; U starts 0, 1 and W starts 2, s. Every monomial
s^i t^j of U_n has i + 2j = n - 1 (and i + 2j = n for W_n), so each is a
compact "weight list" indexed by the t-degree j, with the closed coefficients
C(n-1-j, j) for U_n and n/(n-j) * C(n-j, j) for W_n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import zip_longest

from .errors import InternalConsistencyError
from .exactpoly import BiPoly, UniPoly
from .numtheory import divisors, mobius, radical

__all__ = [
    "LucasParams",
    "companion_int",
    "companion_poly",
    "cyclotomic",
    "discriminant",
    "lucas_int",
    "lucas_poly",
]


@dataclass(frozen=True)
class LucasParams:
    """Integer parameters (s, t) of the recurrence X_n = s*X_{n-1} + t*X_{n-2}."""

    s: int
    t: int


def discriminant(params: LucasParams) -> int:
    """Discriminant s^2 + 4t of X^2 - sX - t."""
    return params.s * params.s + 4 * params.t


def _weight_row(n: int, weight: int) -> list[int]:
    """Compact coefficients of U_n (weight n - 1) or W_n (weight n) for n >= 1:
    entry j, for 0 <= j <= weight/2, is the coefficient of s^(weight-2j) t^j.

    Both closed coefficients start at 1 and step along the row by the exact
    ratio c_{j+1} / c_j = (weight - 2j)(weight - 2j - 1) / ((j + 1)(n - 1 - j)).
    """
    row = [1]
    for j in range(weight // 2):
        row.append(
            row[-1] * (weight - 2 * j) * (weight - 2 * j - 1) // ((j + 1) * (n - 1 - j))
        )
    return row


@cache
def lucas_poly(n: int) -> BiPoly:
    """U_n(s, t) with U_0 = 0, U_1 = 1, U_n = s*U_{n-1} + t*U_{n-2}."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    return BiPoly.from_weight_list(n - 1, _weight_row(n, n - 1)) if n else BiPoly.zero()


@cache
def companion_poly(n: int) -> BiPoly:
    """W_n(s, t) = alpha^n + beta^n, with W_0 = 2 and W_1 = s."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    return BiPoly.from_weight_list(n, _weight_row(n, n)) if n else BiPoly.constant(2)


def _lucas_pair(n: int, params: LucasParams) -> tuple[int, int]:
    """Exact (U_n, U_{n+1}) by the integer recurrence (no polynomial expansion)."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    s, t = params.s, params.t
    u0, u1 = 0, 1
    for _ in range(n):
        u0, u1 = u1, s * u1 + t * u0
    return u0, u1


def lucas_int(n: int, params: LucasParams) -> int:
    """Exact U_n(s, t) by the integer recurrence."""
    return _lucas_pair(n, params)[0]


def companion_int(n: int, params: LucasParams) -> int:
    """Exact W_n(s, t) = 2 U_{n+1} - s U_n from the same recurrence."""
    u0, u1 = _lucas_pair(n, params)
    return 2 * u1 - params.s * u0


def _mul_qd_minus_1(a: list[int], d: int) -> list[int]:
    """a(q) * (q^d - 1)."""
    out = [0] * d + a
    for i, v in enumerate(a):
        out[i] -= v
    return out


def _div_qd_minus_1(a: list[int], d: int) -> list[int]:
    """Exact quotient a(q) / (q^d - 1) by synthetic division from the top.

    Raises InternalConsistencyError on a nonzero remainder: every caller
    divides a product that q^d - 1 must divide.
    """
    q = a[d:]
    for k in range(len(q) - d - 1, -1, -1):
        q[k] += q[k + d]
    if any(x + y for x, y in zip_longest(a[:d], q[:d], fillvalue=0)):
        raise InternalConsistencyError(f"inexact division by q^{d} - 1")
    return q


@cache
def cyclotomic(n: int) -> UniPoly:
    """The n-th cyclotomic polynomial in q, monic over the integers.

    Squarefree indices are the Mobius product prod_{d | n} (q^d - 1)^(mu(n/d)),
    built by linear-time multiply and divide steps by q^d - 1; other indices
    are the radical's polynomial with q replaced by q^(n/rad).
    """
    if n < 1:
        raise ValueError("index must be positive")
    rad = radical(n)
    if rad != n:
        return cyclotomic(rad).inflate(n // rad)
    poly = [1]
    for d in divisors(n):
        if mobius(n // d) == 1:
            poly = _mul_qd_minus_1(poly, d)
    for d in divisors(n):
        if mobius(n // d) == -1:
            poly = _div_qd_minus_1(poly, d)
    return UniPoly(poly)
