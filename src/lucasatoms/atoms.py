"""Lucas atoms: the irreducible factors P_n of the Lucas polynomials.

U_n(s, t) = prod_{d | n} P_d(s, t), with P_1 = 1 and, for n >= 2, P_n the
cyclotomic polynomial of index n homogenized in the root pair (alpha, beta)
of X^2 - sX - t and rewritten in s = alpha + beta, t = -alpha*beta. Every
atom with n >= 2 is weighted-homogeneous (each monomial s^i t^j has
i + 2j = phi(n)), monic in s, and has nonnegative coefficients.

Three independent routes build P_n: symmetric (additive, from the cyclotomic
coefficients and W_k = alpha^k + beta^k), division (exact division out of
U_n/U_{n/p}, p the smallest prime dividing n, by the atoms of the proper
divisors that it holds) and reduction (one index lift from a
smaller atom). The "checked" route cross-checks all three, and
`atom_eval` gives the integer P_n(s, t) with no polynomial. README's atoms
paragraph derives the routes and gives their measurements.
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
    """(phi(n), compact coefficients of P_n) by the additive symmetric formula:
    packed into one integer at (s, t) = (1, 2^K) for squarefree n, row by row
    otherwise."""
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
    """P_n = sum_j c_j (-t)^j W_{m-2j}, m = phi(n), from the cyclotomic
    coefficients c_j of Phi_n."""
    if n < 1:
        raise ValueError("index must be positive")
    if n == 1:
        return BiPoly.one()
    return BiPoly.from_weight_list(*_atom_weight_list(n))


@cache
def atom_division(n: int) -> BiPoly:
    """P_n by exact division out of U_n/U_h, h = n/p for p the smallest prime
    dividing n.

    U_n/U_h = U_p(W_h, -(-t)^h) = sum_{0 <= i <= (p-1)/2} (-t)^(hi) W_{h(p-1-2i)},
    W_0 entering the middle term as 1: one row sum (W_{n/2} at p = 2), or U_n
    at an odd prime n. It is the product of the P_d with d | n, d not dividing
    h (v_p(d) = v_p(n)), divided here by the atoms of those d other than n.
    """
    if n < 1:
        raise ValueError("index must be positive")
    if n == 1:
        return BiPoly.one()
    p = factorize(n)[0][0]
    h = n // p
    if p == n > 2:
        poly = lucas_poly(n)
    else:
        c = [int(j % h == 0) for j in range((n - h) // 2 + 1)]
        poly = BiPoly.from_weight_list(n - h, _weight_list_by_rows(n - h, c))
    for d in divisors(n)[1:-1]:
        if h % d == 0:
            continue
        try:
            poly = exact_div_in_s(poly, atom_division(d))
        except ValueError as exc:
            raise InternalConsistencyError(
                f"inexact division while extracting the atom at {n}: {exc}"
            ) from exc
    return poly


def _lift(base: BiPoly, f: int) -> BiPoly:
    """base(W_f, -(-t)^f) for a base of one weight w, monic in s.

    At (alpha^f, beta^f), s^k = sum_i C(k, i) (-t)^(fi) W_{f(k-2i)}, so the
    weight list c lifts to sum_l (-1)^(fl) e_l t^(fl) W_{f(w-2l)} with
    e_l = sum_{j<=l} (-1)^j c_j C(w-2j, l-j): the symmetric sum over the
    closed-form rows, with e spread to stride f.
    """
    w = next(base.terms())[0]
    e = [0] * (w // 2 + 1)
    for j in range(w // 2 + 1):
        k, term = w - 2 * j, base.coeff(w - 2 * j, j) * (-1) ** j
        for i in range(w // 2 - j + 1):  # term = (-1)^j c_j C(k, i)
            e[j + i] += term
            term = term * (k - i) // (i + 1)
    spread = [0] * (f * w // 2 + 1)
    spread[::f] = e
    return BiPoly.from_weight_list(f * w, _weight_list_by_rows(f * w, spread))


@cache
def atom_reduction(n: int) -> BiPoly:
    """P_n by one index lift from a smaller atom, (s, t) -> (W_f, -(-t)^f).

    For r = rad(n) != n, P_n = P_r lifted by f = n/r. For p the largest prime
    dividing n once, P_n = P_{n/p} lifted by p and divided exactly by P_{n/p}.
    Of the two, the base of smaller phi is taken, the radical on a tie.
    Bases: P_1 = 1 and P_p = U_p.
    """
    if n < 1:
        raise ValueError("index must be positive")
    if n == 1:
        return BiPoly.one()
    if is_prime(n):
        return lucas_poly(n)
    r = radical(n)
    once = [p for p, e in factorize(n) if e == 1]
    # phi(r) = phi(n) r/n and phi(n/p) = phi(n)/(p - 1), so phi(r) <= phi(n/p)
    # exactly when n/r >= p - 1
    if r != n and (not once or n // r >= once[-1] - 1):
        return _lift(atom_reduction(r), n // r)
    p = once[-1]
    base = atom_reduction(n // p)
    try:
        return exact_div_in_s(_lift(base, p), base)
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
    return _BUILDERS[route](n)


def atom_eval(n: int, params: LucasParams) -> int:
    """Exact integer P_n(s, t) by the symmetric formula over integer W_k values:
    Horner in -t from j = m/2 down to 0 while W_{m-2j} streams upwards.

    m = phi(n) is even from n = 3 on (P_2 = s), so only the even-index W_k
    enter the sum, and the stream steps by two, W_{k+2} = W_2 W_k - t^2 W_{k-2}
    with W_2 = s^2 + 2t, from W_0 = 2 and W_2, the middle term taking W_0 as
    1: m/2 steps, each one W step and one Horner step."""
    if n < 1:
        raise ValueError("index must be positive")
    if n == 1:
        return 1
    if n == 2:
        return params.s
    m = euler_phi(n)
    c = cyclotomic(n).coeffs
    s, t = params.s, params.t
    w2, tt = s * s + 2 * t, t * t
    h = m // 2
    total, w_prev, w = c[h], 2, w2  # the middle term; W_0, W_2
    for j in range(h - 1, 0, -1):  # w is W_{m-2j}
        total = c[j] * w - t * total
        w_prev, w = w, w2 * w - tt * w_prev
    return c[0] * w - t * total


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
