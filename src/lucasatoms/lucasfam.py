"""Classical recurrent families: Lucas polynomials U_n, companion polynomials
W_n = alpha^n + beta^n, cyclotomic polynomials, and integer specializations.

With s = alpha + beta and t = -alpha*beta, both polynomial families satisfy
X_n = s*X_{n-1} + t*X_{n-2}; U starts 0, 1 and W starts 2, s. Every monomial
s^i t^j of U_n has i + 2j = n - 1 (and i + 2j = n for W_n), so each is a
compact "weight list" indexed by the t-degree j, with the closed coefficients
C(n-1-j, j) for U_n and n/(n-j) * C(n-j, j) for W_n.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

from .errors import InternalConsistencyError
from .exactpoly import BiPoly, UniPoly
from .numtheory import divisors, euler_phi, mobius, radical

__all__ = [
    "LucasParams",
    "companion_int",
    "companion_poly",
    "cyclotomic",
    "discriminant",
    "lucas_int",
    "lucas_poly",
]


class LucasParams(NamedTuple):
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


def _lucas_pair(n: int, params: LucasParams, mod: int = 0) -> tuple[int, int]:
    """(U_n, U_{n+1}) in O(log n) steps, doubling over the bits of n by
    U_2k = U_k (2 U_{k+1} - s U_k) and U_{2k+1} = U_{k+1}^2 + t U_k^2
    (Joye-Quisquater, Electron. Lett. 1996); a set bit then steps once.
    Exact for mod = 0, else both residues in [0, mod), reduced at every step."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    s, t = params.s, params.t
    u0, u1 = 0, 1
    for i in range(n.bit_length() - 1, -1, -1):
        u0, u1 = u0 * (2 * u1 - s * u0), u1 * u1 + t * u0 * u0
        if n >> i & 1:
            u0, u1 = u1, s * u1 + t * u0
        if mod:
            u0, u1 = u0 % mod, u1 % mod
    return (u0 % mod, u1 % mod) if mod else (u0, u1)


def lucas_int(n: int, params: LucasParams) -> int:
    """Exact U_n(s, t) by integer doubling (no polynomial expansion)."""
    return _lucas_pair(n, params)[0]


def companion_int(n: int, params: LucasParams) -> int:
    """Exact W_n(s, t) = 2 U_{n+1} - s U_n, from the same doubling as U_n."""
    u0, u1 = _lucas_pair(n, params)
    return 2 * u1 - params.s * u0


@cache
def cyclotomic(n: int) -> UniPoly:
    """The n-th cyclotomic polynomial in q, monic over the integers.

    For n > 1, Phi_n(q) = prod_{d | n} (1 - q^d)^mu(n/d) (Phi_1 = q - 1 has the
    opposite sign). For r = rad(n) the product is a power series cut at degree
    phi(r), exact since Phi_r has that degree: 1 - q^d is a slice update,
    1/(1 - q^d) a running sum with stride d, and d > phi(r) is skipped. The
    series is spread to q^(n/r); a top entry other than 1 raises
    InternalConsistencyError, since Phi_r is monic.
    """
    if n < 1:
        raise ValueError("index must be positive")
    if n == 1:
        return UniPoly((-1, 1))
    rad = radical(n)
    top = euler_phi(rad)
    series = [1] + [0] * top
    for d in divisors(rad):
        if d > top:
            break
        if mobius(rad // d) == 1:
            series[d:] = [x - y for x, y in zip(series[d:], series)]
        else:
            for i in range(d, top + 1):
                series[i] += series[i - d]
    if series[-1] != 1:
        raise InternalConsistencyError(f"Phi_{rad} is not monic of degree {top}")
    coeffs = [0] * (top * (n // rad) + 1)
    coeffs[:: n // rad] = series
    return UniPoly(coeffs)
