"""p-adic valuations of Lucas sequences and Lucas atoms in closed form.

Writing s = p^a s' and t = p^b t' with p not dividing s't' (a = infinity for
s = 0), every prime p and integer pair (s, t) with t != 0 lands in exactly one
regime, and v_p(U_n) / v_p(P_n) have closed forms in each:

  (i)    p odd, p ∤ t        -- governed by the rank k = rho(p, U);
  (ii)   p = 2 ∤ t, 2 | s    -- rank 2;
  (iii)  p = 2 ∤ st          -- rank 3;
  (iv)   p ∤ s, p | t        -- all valuations vanish;
  (v)    p | s, p | t, b >= 2a -- phi(n)*a, plus the reduced pair (s', t')
                                  contribution when b = 2a;
  (vi)   b < 2a generic       -- b*phi(n)/2, +1 at n = 2p^h, a at n = 2;
  (vii)  p = 3, b = 2a - 1    -- as (vi) with a corrected value at n = 6
                                  involving lambda = v_3(s'^2 + t');
  (viii) p = 2, b = 2a - 1    -- as (vi) with the correction at n = 4 and
                                  geometric growth 2^(h-2) b + 1 at n = 2^h.

A Mobius route recomputes v_p(P_n) as sum_{d | n} mu(d) v_p(U_{n/d}), and a
brute-force oracle takes the valuation of the exact integer atom value.
Degenerate pairs (some atom value zero, possible only at indices 2, 3, 4, 6
for t != 0) raise "valuation of zero" errors instead of classifying.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cache

from .atoms import atom_eval
from .errors import InternalConsistencyError
from .lucasfam import LucasParams, discriminant, lucas_int
from .numtheory import divisors, euler_phi, is_prime, legendre, mobius, vp_int

__all__ = [
    "RankResult",
    "Regime",
    "ValuationCase",
    "classify",
    "lucas_value_is_zero",
    "rank_of_appearance",
    "vp_atom_closed",
    "vp_atom_mobius",
    "vp_atom_oracle",
    "vp_lucas_closed",
    "zero_atom_indices",
]


class Regime(enum.Enum):
    COPRIME_T_ODD_P = "coprime-t-odd-p"
    COPRIME_T_EVEN_S = "coprime-t-p2-even-s"
    COPRIME_T_ODD_S = "coprime-t-p2-odd-s"
    DIVIDES_T_ONLY = "divides-t-only"
    B_ABOVE_2A = "b-gt-2a"
    B_EQUAL_2A = "b-eq-2a"
    B_BELOW_2A_GENERIC = "b-lt-2a-generic"
    B_EQ_2A_MINUS_1_P2 = "b-eq-2a-minus-1-p2"
    B_EQ_2A_MINUS_1_P3 = "b-eq-2a-minus-1-p3"


@dataclass(frozen=True)
class RankResult:
    """Rank of appearance rho(p, U): least k >= 1 with p | U_k.

    rho is None when no index works (p | t, p ∤ s). divides_bound is
    p - (Delta/p) for odd p ∤ t; the rank always divides it.
    """

    rho: int | None
    divides_bound: int | None


@dataclass(frozen=True)
class ValuationCase:
    """Classification of (p, s, t) into a valuation regime.

    a and b are the p-adic valuations of s and t (a is None for s = 0,
    meaning infinite); s_prime and t_prime the reduced cofactors; k the rank
    of appearance when defined; lam the correction v_p(s'^2 + t') for the
    b = 2a - 1 regimes with p in {2, 3} (None when s'^2 + t' = 0, which only
    happens on degenerate pairs).
    """

    p: int
    params: LucasParams
    regime: Regime
    a: int | None
    b: int
    s_prime: int | None
    t_prime: int
    delta: int
    k: int | None
    lam: int | None


def zero_atom_indices(params: LucasParams) -> frozenset[int]:
    """Indices n >= 2 with P_n(s, t) = 0; a subset of {2, 3, 4, 6} when t != 0.

    An atom value vanishes only when the root ratio is a root of unity whose
    real part is rational, which pins the index to 2, 3, 4 or 6.
    """
    s, t = params.s, params.t
    out = set()
    if s == 0:
        out.add(2)
    if s * s + t == 0:
        out.add(3)
    if s * s + 2 * t == 0:
        out.add(4)
    if s * s + 3 * t == 0:
        out.add(6)
    return frozenset(out)


def lucas_value_is_zero(n: int, params: LucasParams) -> bool:
    """True iff U_n(s, t) = 0 for n >= 1 (t != 0)."""
    return any(n % z == 0 for z in zero_atom_indices(params))


def _lucas_mod(n: int, params: LucasParams, p: int) -> int:
    u0, u1 = 0, 1
    s, t = params.s % p, params.t % p
    for _ in range(n):
        u0, u1 = u1, (s * u1 + t * u0) % p
    return u0


@cache
def rank_of_appearance(p: int, params: LucasParams) -> RankResult:
    """Least k >= 1 with p | U_k, searched over the divisors of p - (Delta/p)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    s, t = params.s, params.t
    if t % p == 0:
        if s % p == 0:
            return RankResult(2, None)  # U_2 = s
        return RankResult(None, None)  # U_n = s^(n-1) mod p, never 0
    if p == 2:
        return RankResult(2 if s % 2 == 0 else 3, None)
    delta = discriminant(params)
    if delta % p == 0:
        return RankResult(p, p)
    bound = p - legendre(delta, p)
    for d in divisors(bound):
        if _lucas_mod(d, params, p) == 0:
            return RankResult(d, bound)
    raise InternalConsistencyError(
        f"no rank found for p={p} below the divisor bound {bound}"
    )


@cache
def classify(p: int, params: LucasParams) -> ValuationCase:
    """The unique valuation regime of (p, s, t); t = 0 is rejected."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    s, t = params.s, params.t
    if t == 0:
        raise ValueError("t = 0 degenerates atoms to monomials; use the t = 0 profile")
    b = vp_int(p, t)
    a = None if s == 0 else vp_int(p, s)
    s_prime = None if s == 0 else s // p**a
    t_prime = t // p**b
    delta = discriminant(params)
    k: int | None = None
    lam: int | None = None
    if b == 0:
        k = rank_of_appearance(p, params).rho
        if p == 2:
            regime = (
                Regime.COPRIME_T_EVEN_S if s % 2 == 0 else Regime.COPRIME_T_ODD_S
            )
        else:
            regime = Regime.COPRIME_T_ODD_P
    elif a == 0:
        regime = Regime.DIVIDES_T_ONLY
    else:
        k = 2  # p divides U_2 = s
        if a is not None and b > 2 * a:
            regime = Regime.B_ABOVE_2A
        elif a is not None and b == 2 * a:
            regime = Regime.B_EQUAL_2A
        elif p in (2, 3) and a is not None and b == 2 * a - 1:
            regime = (
                Regime.B_EQ_2A_MINUS_1_P2 if p == 2 else Regime.B_EQ_2A_MINUS_1_P3
            )
            corr = s_prime * s_prime + t_prime
            lam = vp_int(p, corr) if corr else None
        else:
            regime = Regime.B_BELOW_2A_GENERIC  # includes s = 0 (a infinite)
    return ValuationCase(p, params, regime, a, b, s_prime, t_prime, delta, k, lam)


def _reduced(case: ValuationCase) -> LucasParams:
    assert case.s_prime is not None
    return LucasParams(case.s_prime, case.t_prime)


def vp_lucas_closed(p: int, params: LucasParams, n: int) -> int:
    """v_p(U_n(s, t)) by the closed forms, dispatched on the regime."""
    if n < 1:
        raise ValueError("index must be positive")
    case = classify(p, params)
    if lucas_value_is_zero(n, params):
        raise ValueError(f"valuation of zero: U_{n}({params.s}, {params.t}) = 0")
    regime = case.regime

    if regime is Regime.COPRIME_T_ODD_P:
        if case.delta % p == 0:
            if n % p:
                return 0
            return vp_int(p, n) + vp_int(p, lucas_int(p, params)) - 1
        k = case.k
        if n % k:
            return 0
        return vp_int(p, n) + vp_int(p, lucas_int(k, params))

    if regime is Regime.COPRIME_T_EVEN_S:
        if n % 2:
            return 0
        return vp_int(2, n) + vp_int(2, params.s) - 1  # v_2(U_2) = v_2(s)

    if regime is Regime.COPRIME_T_ODD_S:
        if n % 3:
            return 0
        if n % 2:
            return vp_int(2, lucas_int(3, params))
        return vp_int(2, n) + vp_int(2, lucas_int(6, params)) - 1

    if regime is Regime.DIVIDES_T_ONLY:
        return 0  # U_n = s^(n-1) mod p

    a, b = case.a, case.b
    if regime is Regime.B_ABOVE_2A:
        return (n - 1) * a
    if regime is Regime.B_EQUAL_2A:
        return (n - 1) * a + vp_lucas_closed(p, _reduced(case), n)

    # b < 2a: v_p(U_{2m+1}) = b*m and v_p(U_{2m}) = b*m + (a-b) + v_p(m) + lambda
    m, r = divmod(n, 2)
    if r:
        return b * m
    assert a is not None  # even n with s = 0 is a zero value, caught above
    lam = 0
    if p in (2, 3) and b == 2 * a - 1 and m % p == 0:
        assert case.lam is not None
        lam = case.lam
    return b * m + (a - b) + vp_int(p, m) + lam


def _power_exponent(x: int, p: int) -> int | None:
    """h >= 0 with x = p^h, else None."""
    h = 0
    while x % p == 0:
        x //= p
        h += 1
    return h if x == 1 else None


def vp_atom_closed(p: int, params: LucasParams, n: int) -> int:
    """v_p(P_n(s, t)) by the closed forms, dispatched on the regime."""
    if n < 2:
        raise ValueError("index must be at least 2")
    case = classify(p, params)
    if n in zero_atom_indices(params):
        raise ValueError(f"valuation of zero: P_{n}({params.s}, {params.t}) = 0")
    regime = case.regime

    if regime is Regime.COPRIME_T_ODD_P:
        k = case.k
        if n == k:
            return vp_int(p, lucas_int(k, params))
        if n % k == 0:
            h = _power_exponent(n // k, p)
            if h is not None and h >= 1:
                return 1
        return 0

    if regime is Regime.COPRIME_T_EVEN_S:
        if n == 2:
            return vp_int(2, params.s)
        h = _power_exponent(n, 2)
        return 1 if h is not None and h >= 2 else 0

    if regime is Regime.COPRIME_T_ODD_S:
        if n == 3:
            return vp_int(2, lucas_int(3, params))
        if n == 6:
            return vp_int(2, lucas_int(6, params)) - vp_int(2, lucas_int(3, params))
        if n % 3 == 0:
            h = _power_exponent(n // 3, 2)
            if h is not None and h >= 2:
                return 1
        return 0

    if regime is Regime.DIVIDES_T_ONLY:
        return 0

    a, b = case.a, case.b
    phi = euler_phi(n)
    if regime is Regime.B_ABOVE_2A:
        return phi * a
    if regime is Regime.B_EQUAL_2A:
        return phi * a + vp_atom_closed(p, _reduced(case), n)

    if regime is Regime.B_EQ_2A_MINUS_1_P3:
        if n == 2:
            return a
        if n == 6:
            assert case.lam is not None
            return b + 1 + case.lam
        if n % 2 == 0:
            h = _power_exponent(n // 2, 3)
            if h is not None and h >= 2:
                return 3 ** (h - 1) * b + 1
        return b * phi // 2

    if regime is Regime.B_EQ_2A_MINUS_1_P2:
        if n == 2:
            return a
        if n == 4:
            assert case.lam is not None
            return b + 1 + case.lam
        h = _power_exponent(n, 2)
        if h is not None and h >= 3:
            return 2 ** (h - 2) * b + 1
        return b * phi // 2

    # generic b < 2a (p outside {2, 3} or b <= 2a - 2, including s = 0)
    if n == 2:
        assert a is not None  # s = 0 makes P_2 = 0, caught above
        return a
    if n % 2 == 0:
        h = _power_exponent(n // 2, p)
        if h is not None and h >= 1:
            return b * phi // 2 + 1
    return b * phi // 2


def vp_atom_mobius(p: int, params: LucasParams, n: int) -> int:
    """v_p(P_n) as the Mobius transform sum_{d | n} mu(d) v_p(U_{n/d})."""
    if n < 2:
        raise ValueError("index must be at least 2")
    for e in divisors(n):
        if lucas_value_is_zero(e, params):
            raise ValueError(
                f"valuation of zero: U_{e}({params.s}, {params.t}) = 0"
            )
    total = 0
    for d in divisors(n):
        mu = mobius(d)
        if mu:
            total += mu * vp_lucas_closed(p, params, n // d)
    if total < 0:
        raise InternalConsistencyError(
            f"negative atom valuation from the Mobius sum at index {n}"
        )
    return total


def vp_atom_oracle(p: int, params: LucasParams, n: int) -> int:
    """Ground truth: the valuation of the exact integer atom value."""
    if n < 2:
        raise ValueError("index must be at least 2")
    value = atom_eval(n, params)
    if value == 0:
        raise ValueError(f"valuation of zero: P_{n}({params.s}, {params.t}) = 0")
    return vp_int(p, value)
