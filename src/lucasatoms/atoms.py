"""Lucas atoms: the irreducible factors P_n of the Lucas polynomials.

U_n(s, t) = prod_{d | n} P_d(s, t), with P_1 = 1 and, for n >= 2, P_n the
cyclotomic polynomial of index n homogenized in the root pair (alpha, beta)
of X^2 - sX - t and rewritten in s = alpha + beta, t = -alpha*beta.

Three independent construction routes are provided and cross-checked:

* symmetric -- purely additive: with m = phi(n) and palindromic cyclotomic
  coefficients c_0..c_m, P_n = sum_{j < m/2} c_j (-t)^j W_{m-2j} plus, for m
  even, the middle term c_{m/2} (-t)^{m/2}, where W_k = alpha^k + beta^k.
  For squarefree n the sum is evaluated once at (s, t) = (1, 2^K), where
  each W step and each Horner step in t is one shift and add of a big
  integer; since every monomial has weight m, the value is sum_j a_j 2^(Kj)
  for the atom's weight list a_j, read back as balanced base-2^K digits.
  K is at least 2 bits wider than |a_j| <= ||c||_1 W_m(1, 1), so the
  digits are exact. A non-squarefree n has Phi_n spread to q^(n/rad n),
  so most c_j are 0: the stream would still take all m steps, while the
  per-row loop builds the closed-form rows W_{m-2j} for c_j != 0 only.
* division -- peel P_n out of U_n by exact division by the atoms of the
  proper divisors of n.
* reduction -- lift the index by the largest prime p | n: the substitution
  (alpha, beta) -> (alpha^p, beta^p), i.e. (s, t) -> (W_p, -(-t)^p), turns
  P_{n/p} into P_n, after exact division by P_{n/p} when p does not divide
  n/p.

Every atom with n >= 2 is weighted-homogeneous (each monomial s^i t^j has
i + 2j = phi(n)), monic in s, and has nonnegative coefficients.
"""

from __future__ import annotations

from functools import cache
from typing import Mapping

from .errors import InternalConsistencyError
from .exactpoly import BiPoly, _Record, exact_div_in_s
from .lucasfam import (
    LucasParams,
    _weight_row,
    companion_int,
    companion_poly,
    cyclotomic,
    lucas_poly,
)
from .numtheory import divisors, euler_phi, factorize, is_prime, radical

__all__ = [
    "AtomDecomposition",
    "ROUTES",
    "atom",
    "atom_division",
    "atom_eval",
    "atom_reduction",
    "atom_symmetric",
    "decompose_ratio",
    "lucanomial",
    "prime_search",
]

def _weight_list_by_rows(m: int, c: tuple[int, ...]) -> list[int]:
    """Compact coefficients of sum_j c_j (-t)^j W_{m-2j} (the symmetric sum).

    Builds only the closed-form rows W_{m-2j} with c_j != 0, W_0 entering the
    middle term as 1; entry j of the result is the coefficient of s^(m-2j) t^j.
    """
    acc = [0] * (m // 2 + 1)
    for j in range(m // 2 + 1):
        coef = -c[j] if j % 2 else c[j]
        if coef:
            k = m - 2 * j
            row = _weight_row(k, k) if k else [1]
            acc[j:] = [a + coef * w for a, w in zip(acc[j:], row)]
    return acc


def _unpack_balanced(value: int, width: int, count: int) -> list[int]:
    """The digits d_0..d_{count-1} of value = sum_j d_j 2^(width*j), each with
    |d_j| < 2^(width-1), for width a multiple of 8.

    Adding 2^(width-1) to every slot makes each digit a nonnegative byte
    slice of one to_bytes pass. A value outside the slots' range raises
    InternalConsistencyError.
    """
    size = width // 8
    half = 1 << (width - 1)
    offset = int.from_bytes(half.to_bytes(size, "little") * count, "little")
    try:
        raw = memoryview((value + offset).to_bytes(size * count, "little"))
    except OverflowError:
        raise InternalConsistencyError(
            f"packed value does not fit {count} slots of {width} bits"
        ) from None
    return [
        int.from_bytes(raw[i : i + size], "little") - half
        for i in range(0, size * count, size)
    ]


def _atom_weight_list(n: int) -> tuple[int, list[int]]:
    """(phi(n), compact coefficients of P_n) by the additive symmetric formula.

    For squarefree n, at (s, t) = (1, 2^K), W_k = W_{k-1} + (W_{k-2} << K)
    and each Horner step in t shifts the total by K and adds
    (-1)^j c_j W_{m-2j}; other n take the per-row loop.
    """
    m = euler_phi(n)
    c = cyclotomic(n).coeffs
    if n != radical(n):
        return m, _weight_list_by_rows(m, c)
    bound = sum(map(abs, c)) * companion_int(m, LucasParams(1, 1))
    width = (bound.bit_length() + 9) // 8 * 8  # 2 bits over the bound, whole bytes
    j = m // 2
    total = 0 if m % 2 else (-c[j] if j % 2 else c[j])  # the middle term, W_0 as 1
    w_prev, w = 2, 1  # W_0, W_1 at s = 1
    for k in range(1, m + 1):
        if k > 1:
            w_prev, w = w, w + (w_prev << width)
        if (m - k) % 2 == 0:
            j = (m - k) // 2
            coef = -c[j] if j % 2 else c[j]
            total <<= width
            if coef:
                total += coef * w
    return m, _unpack_balanced(total, width, m // 2 + 1)


@cache
def atom_symmetric(n: int) -> BiPoly:
    """P_n by the additive route from cyclotomic coefficients and W_k.

    For squarefree n the sum sum_j c_j (-t)^j W_{m-2j} is evaluated as one
    integer at (s, t) = (1, 2^K) by shifts and adds, and the weight list is
    read back as its balanced base-2^K digits; K is at least 2 bits wider
    than ||c||_1 W_m(1, 1), which bounds every coefficient, so the digits are
    exact. Other n have a spread, mostly zero Phi_n and build the closed-form
    rows W_{m-2j} with c_j != 0 only.
    """
    if n < 1:
        raise ValueError("index must be positive")
    if n == 1:
        return BiPoly.one()
    return BiPoly.from_weight_list(*_atom_weight_list(n))


@cache
def atom_division(n: int) -> BiPoly:
    """P_n = U_n / prod of the atoms of the proper divisors, by exact division."""
    if n < 1:
        raise ValueError("index must be positive")
    if n == 1:
        return BiPoly.one()
    poly = lucas_poly(n)
    for d in divisors(n)[1:-1]:
        try:
            poly = exact_div_in_s(poly, atom_division(d))
        except ValueError as exc:
            raise InternalConsistencyError(
                f"inexact division while extracting the atom at {n}: {exc}"
            ) from exc
    return poly


@cache
def atom_reduction(n: int) -> BiPoly:
    """P_n by one index lift from P_m, m = n/p for the largest prime p | n.

    Raising the index by p is (alpha, beta) -> (alpha^p, beta^p), that is
    (s, t) -> (W_p, -(-t)^p): P_n = P_m(W_p, -(-t)^p), divided exactly by
    P_m when p does not divide m. Bases: P_1 = 1 and P_p = U_p.
    """
    if n < 1:
        raise ValueError("index must be positive")
    if n == 1:
        return BiPoly.one()
    if is_prime(n):
        return lucas_poly(n)
    p = factorize(n)[-1][0]
    m = n // p
    base = atom_reduction(m)
    lifted = base.subs(companion_poly(p), BiPoly.monomial(0, p, 1 if p % 2 else -1))
    if m % p == 0:
        return lifted
    try:
        return exact_div_in_s(lifted, base)
    except ValueError as exc:
        raise InternalConsistencyError(
            f"inexact division in the reduction route at {n}: {exc}"
        ) from exc


@cache
def _atom_checked(n: int) -> BiPoly:
    """The symmetric-route atom, once the division and reduction routes have
    been found to agree with it. At a prime index the reduction route returns
    U_n, so there its check is a cached comparison."""
    poly = atom_symmetric(n)
    if poly != atom_division(n):
        raise InternalConsistencyError(
            f"symmetric and division routes disagree at index {n}"
        )
    if atom_reduction(n) != poly:
        raise InternalConsistencyError(f"reduction route disagrees at index {n}")
    return poly


_BUILDERS = {
    "symmetric": atom_symmetric,
    "division": atom_division,
    "reduction": atom_reduction,
    "checked": _atom_checked,
}
ROUTES = tuple(_BUILDERS)


def atom(n: int, route: str = "checked") -> BiPoly:
    """P_n by the requested route; "checked" cross-checks the routes and errors
    on any disagreement."""
    if route not in ROUTES:
        raise ValueError(f"unknown route {route!r}; expected one of {ROUTES}")
    if n < 1:
        raise ValueError("index must be positive")
    return _BUILDERS[route](n)


def atom_eval(n: int, params: LucasParams) -> int:
    """Exact integer P_n(s, t) by the symmetric formula over integer W_k values:
    Horner in -t from j = m/2 down to 0 while W_{m-2j} streams upwards.

    Only the W_k of m's parity enter the sum, so the stream steps by two,
    W_{k+2} = W_2 W_k - t^2 W_{k-2} with W_2 = s^2 + 2t, from W_0 = 2 and
    W_2 (m even, the middle term taking W_0 as 1) or W_1 = s and W_3 (m odd):
    m/2 steps, each one W step and one Horner step."""
    if n < 1:
        raise ValueError("index must be positive")
    if n == 1:
        return 1
    m = euler_phi(n)
    c = cyclotomic(n).coeffs
    s, t = params.s, params.t
    w2, tt = s * s + 2 * t, t * t
    h = m // 2
    if m % 2:
        total, w_prev, w = c[h] * s, s, s * (w2 + t)  # c_h W_1; W_1, W_3
    else:
        total, w_prev, w = c[h], 2, w2  # the middle term; W_0, W_2
    for j in range(h - 1, 0, -1):  # w is W_{m-2j}
        total = c[j] * w - t * total
        w_prev, w = w, w2 * w - tt * w_prev
    return c[0] * w - t * total if h else total


class AtomDecomposition(_Record):
    """Atom exponents of a ratio of Lucas-polynomial products.

    exponents maps each atom index d >= 2 dividing any listed index to
    (a_d, b_d): how many numerator and denominator indices d divides. The
    ratio is a polynomial iff a_d >= b_d everywhere; quotient_exponents then
    gives the surviving atom multiplicities.
    """

    exponents: Mapping[int, tuple[int, int]]
    is_polynomial: bool
    quotient_exponents: Mapping[int, int] | None


def decompose_ratio(nums: list[int], dens: list[int]) -> AtomDecomposition:
    """Decide polynomiality of prod U_{n_i} / prod U_{k_j} by atom exponents."""
    for x in list(nums) + list(dens):
        if x < 2:
            raise ValueError("indices must be at least 2 (index 1 carries no atoms)")
    ds = sorted({d for x in set(nums) | set(dens) for d in divisors(x) if d >= 2})
    exponents = {
        d: (
            sum(1 for x in nums if x % d == 0),
            sum(1 for x in dens if x % d == 0),
        )
        for d in ds
    }
    verdict = all(a >= b for a, b in exponents.values())
    quotient = (
        {d: a - b for d, (a, b) in exponents.items() if a > b} if verdict else None
    )
    return AtomDecomposition(exponents, verdict, quotient)


def lucanomial(n: int, k: int) -> tuple[dict[int, int], BiPoly]:
    """Lucas analogue of the binomial coefficient (n over k).

    Returns the atom exponent map {d: e_d} with
    e_d = floor(n/d) - floor(k/d) - floor((n-k)/d) and the expanded product;
    the exponents are always 0 or 1 and the expansion has nonnegative
    coefficients.
    """
    if n < 0 or k < 0 or k > n:
        raise ValueError("need 0 <= k <= n")
    exponents: dict[int, int] = {}
    poly = BiPoly.one()
    for d in range(2, n + 1):
        e = n // d - k // d - (n - k) // d
        if e < 0:
            raise InternalConsistencyError("negative lucanomial exponent")
        if e:
            exponents[d] = e
            poly = poly * atom(d) ** e
    return exponents, poly


def prime_search(n: int, bound: int) -> list[tuple[int, int, int]]:
    """All (s, t, P_n(s,t)) with |s|, |t| <= bound and the value prime,
    sorted lexicographically by (s, t)."""
    if n < 2:
        raise ValueError("index must be at least 2")
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    out: list[tuple[int, int, int]] = []
    for s in range(-bound, bound + 1):
        for t in range(-bound, bound + 1):
            value = atom_eval(n, LucasParams(s, t))
            if is_prime(value):
                out.append((s, t, value))
    return out
