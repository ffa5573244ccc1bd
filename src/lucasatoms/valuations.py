"""p-adic valuations of Lucas sequences and Lucas atoms in closed form.

Writing s = p^a s' and t = p^b t' with p not dividing s't' (a = infinity for
s = 0), every prime p and integer pair (s, t) with t != 0 lands in exactly one
`Regime`. With k = rho(p, U) the rank of appearance, the first index whose
U_k vanishes mod p (checked to divide p - (Delta/p) for odd p ∤ t), the closed
forms are two families and two short cases:

  p ∤ t (k = p when p | Delta; k = 2 for even s, 3 for odd s at p = 2):
      v_p(U_n) = 0 when k ∤ n, else v_p(U_k) + v_p(n/k), except that at
      p = 2 with 2k | n it is v_2(U_2k) + v_2(n/2k);
      v_p(P_n) = v_p(U_k) at n = k, v_2(W_k) at n = 2k when p = 2,
      1 at n = k p^h with h >= 1, else 0.
  b < 2a (s = 0 included):
      v_p(P_n) = a at n = 2, b phi(n)/2 + 1 at n = 2p^h with h >= 1, else
      b phi(n)/2; in the two b = 2a - 1 regimes (p = 2, 3) add
      lambda = v_p(s'^2 + t') at n = 2p. v_p(U_{2m+1}) = b m and
      v_p(U_{2m}) = b m + (a - b) + v_p(m), plus lambda there when p | m.
  p ∤ s, p | t: every valuation is 0.
  p | s, b >= 2a: phi(n) a for P_n and (n - 1) a for U_n, plus the valuation
      at the reduced pair (s', t') when b = 2a.

A Mobius route recomputes v_p(P_n) as sum_{d | n} mu(d) v_p(U_{n/d}), and a
brute-force oracle takes the valuation of the exact integer atom value. An
atom value is zero only at indices 2, 3, 4, 6 (for t != 0). The closed forms
and the oracle reject just an index whose value is zero, with a "valuation of
zero" error; the Mobius route rejects n when U_d = 0 for some d | n.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cache

from .atoms import atom_eval
from .errors import InternalConsistencyError
from .lucasfam import LucasParams, companion_int, discriminant, lucas_int
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
    """Rank of appearance rho(p, U): least k >= 1 with p | U_k, the first
    zero of U_n mod p.

    rho is None when no index works (p | t, p ∤ s). divides_bound is
    p - (Delta/p) for odd p ∤ t, else None; rho is checked to divide it.
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


@cache
def rank_of_appearance(p: int, params: LucasParams) -> RankResult:
    """Least k >= 1 with p | U_k: the first zero of U_n mod p.

    For odd p ∤ t the walk checks the theorem that k divides p - (Delta/p).
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    s, t = params.s % p, params.t % p
    if t == 0 and s:
        return RankResult(None, None)  # U_n = s^(n-1) mod p, never 0
    k, u0, u1 = 1, 1, s  # U_1, U_2
    while u0:
        k, u0, u1 = k + 1, u1, (s * u1 + t * u0) % p
    bound = None if p == 2 or t == 0 else p - legendre(discriminant(params), p)
    if bound and bound % k:
        raise InternalConsistencyError(
            f"rank {k} of p={p} does not divide the bound {bound}"
        )
    return RankResult(k, bound)


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
    """v_p(U_n(s, t)) by the closed forms, one per regime family."""
    if n < 1:
        raise ValueError("index must be positive")
    case = classify(p, params)
    if lucas_value_is_zero(n, params):
        raise ValueError(f"valuation of zero: U_{n}({params.s}, {params.t}) = 0")
    regime, a, b, k = case.regime, case.a, case.b, case.k

    if b == 0:  # p ∤ t: the rank formula, at p = 2 restarted at index 2k
        if n % k:
            return 0
        start = 2 * k if p == 2 and n % (2 * k) == 0 else k
        return vp_int(p, lucas_int(start, params)) + vp_int(p, n // start)
    if regime is Regime.DIVIDES_T_ONLY:
        return 0  # U_n = s^(n-1) mod p
    if regime is Regime.B_ABOVE_2A:
        return (n - 1) * a
    if regime is Regime.B_EQUAL_2A:
        return (n - 1) * a + vp_lucas_closed(p, _reduced(case), n)

    # b < 2a: v_p(U_{2m+1}) = b*m and v_p(U_{2m}) = b*m + (a-b) + v_p(m) + lambda
    m, r = divmod(n, 2)
    if r:
        return b * m
    lam = case.lam if regime is not Regime.B_BELOW_2A_GENERIC and m % p == 0 else 0
    return b * m + (a - b) + vp_int(p, m) + lam


def _power_exponent(x: int, p: int) -> int:
    """h >= 1 with x = p^h, else 0 (x >= 1)."""
    if x % p:  # spares vp_int's primality test of p on most calls
        return 0
    h = vp_int(p, x)
    return h if x == p**h else 0


def vp_atom_closed(p: int, params: LucasParams, n: int) -> int:
    """v_p(P_n(s, t)) by the closed forms, one per regime family."""
    if n < 2:
        raise ValueError("index must be at least 2")
    case = classify(p, params)
    if n in zero_atom_indices(params):
        raise ValueError(f"valuation of zero: P_{n}({params.s}, {params.t}) = 0")
    regime, a, b, k = case.regime, case.a, case.b, case.k

    # p ∤ t. At p = 2, W_k = U_2k / U_k is P_4 (k = 2) or P_2 P_6 with P_2 = s odd
    if b == 0:
        if n == k:
            return vp_int(p, lucas_int(k, params))
        if p == 2 and n == 2 * k:
            return vp_int(2, companion_int(k, params))
        return 1 if n % k == 0 and _power_exponent(n // k, p) else 0
    if regime is Regime.DIVIDES_T_ONLY:
        return 0
    phi = euler_phi(n)
    if regime is Regime.B_ABOVE_2A:
        return phi * a
    if regime is Regime.B_EQUAL_2A:
        return phi * a + vp_atom_closed(p, _reduced(case), n)

    # b < 2a: a at n = 2; one more at n = 2p^h, and lambda more at n = 2p
    if n == 2:
        return a
    h = _power_exponent(n // 2, p) if n % 2 == 0 else 0
    if not h:
        return b * phi // 2
    lam = case.lam if regime is not Regime.B_BELOW_2A_GENERIC and h == 1 else 0
    return b * phi // 2 + 1 + lam


def vp_atom_mobius(p: int, params: LucasParams, n: int) -> int:
    """v_p(P_n) as the Mobius transform sum_{d | n} mu(d) v_p(U_{n/d})."""
    if n < 2:
        raise ValueError("index must be at least 2")
    zero = min((z for z in zero_atom_indices(params) if n % z == 0), default=None)
    if zero is not None:
        raise ValueError(f"valuation of zero: U_{zero}({params.s}, {params.t}) = 0")
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
