"""p-adic valuations of Lucas sequences and Lucas atoms in closed form.

`classify` puts each prime p and pair (s, t) with t != 0 in one `Regime`;
`rank_of_appearance` gives the first zero of U_n mod p. `vp_lucas_closed` and
`vp_atom_closed` give v_p(U_n) and v_p(P_n) by the closed forms, read from one
cached table per (p, s, t) (`_pair_table`) that takes no exact U_n.
`vp_atom_mobius` sums mu(d) v_p(U_{n/d}) over the squarefree d | n from the
same table, and `vp_atom_oracle` takes the valuation of the exact atom value.
An atom value is zero only at indices 2, 3, 4, 6 (for t != 0). The closed
forms and the oracle reject just an index whose value is zero, with a
"valuation of zero" error; the Mobius route rejects n when U_d = 0 for some
d | n. README's valuations paragraph derives the closed forms.
"""

from __future__ import annotations

import enum
from functools import cache
from typing import TYPE_CHECKING

from .atoms import atom_eval
from .errors import InternalConsistencyError
from .exactpoly import _Record
from .lucasfam import LucasParams, _lucas_pair, discriminant
from .numtheory import (
    _phi_sieve, _vp, divisors, euler_phi, is_prime, legendre, mobius, radical, vp_int
)

if TYPE_CHECKING:
    from array import array

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


class RankResult(_Record):
    """Rank of appearance rho(p, U): least k >= 1 with p | U_k, the first
    zero of U_n mod p.

    rho is None when no index works (p | t, p ∤ s). divides_bound is
    p - (Delta/p) for odd p ∤ t, else None; rho is checked to divide it.
    """

    rho: int | None
    divides_bound: int | None


class ValuationCase(_Record):
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


@cache
def zero_atom_indices(params: LucasParams) -> frozenset[int]:
    """Indices n >= 2 with P_n(s, t) = 0; a subset of {2, 3, 4, 6} when t != 0.

    An atom value vanishes only when the root ratio is a root of unity whose
    real part is rational, which pins the index to 2, 3, 4 or 6. Cached: every
    closed-form call looks it up, and the frozenset is safe to share.
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
    zeros = zero_atom_indices(params)
    return bool(zeros) and any(n % z == 0 for z in zeros)


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
    b = _vp(p, t)
    a = None if s == 0 else _vp(p, s)
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
            lam = _vp(p, corr) if corr else None
        else:
            regime = Regime.B_BELOW_2A_GENERIC  # includes s = 0 (a infinite)
    return ValuationCase(p, params, regime, a, b, s_prime, t_prime, delta, k, lam)


@cache
def _pair_table(p: int, params: LucasParams) -> tuple[int, ValuationCase, int | None, int | None]:
    """(q, case, v_p(U_k), v_2(W_k)), the per-pair constants every closed form
    reads. With c the largest integer with p^c | s and p^2c | t, the case is
    that of the stripped pair (s/p^c, t/p^2c), in which p ∤ t, p ∤ s, or p
    divides t once. q = 2c + 1 where p | s/p^c and p divides t/p^2c once, else
    2c, so that v_p(U_n) starts from (q (n - 1)) // 2 and v_p(P_n) from
    (q phi(n)) // 2. Where p ∤ t/p^2c, v_p(U_k) and (p = 2) v_2(W_k) of the
    stripped pair come from residues, None where the value is zero or not
    used. Cached per (p, params)."""
    case = classify(p, params)
    c = case.b // 2 if case.a is None else min(case.a, case.b // 2)
    case = classify(p, LucasParams(params.s // p**c, params.t // p ** (2 * c)))
    vu = vw = None
    if case.b == 0:  # U_n(s, t) = p^(c (n - 1)) U_n(s/p^c, t/p^2c): the same zeros
        k = case.k
        if not lucas_value_is_zero(k, params):
            vu = _deep_valuation(p, case.params, k)
        # W_k = U_2k / U_k where U_k != 0, else 2 alpha^k != 0
        if p == 2 and (vu is None or not lucas_value_is_zero(2 * k, params)):
            vw = _deep_valuation(2, case.params, k, companion=True)
    return 2 * c + (case.b == 1 and case.a != 0), case, vu, vw


def _deep_valuation(
    p: int, params: LucasParams, n: int, shift: int = 0, k: int = 2, companion: bool = False
) -> int:
    """v_p(X_n / p^shift) for X = U, or W = 2 U_{n+1} - s U_n when companion,
    and p^shift | X_n != 0, from X_n mod p^(shift + k) by the doubling kernel,
    with k doubled until the residue is nonzero."""
    while True:
        mod = p ** (shift + k)
        u0, u1 = _lucas_pair(n, params, mod)
        r = (2 * u1 - params.s * u0) % mod if companion else u0
        if r:
            return _vp(p, r) - shift
        k *= 2


def vp_lucas_closed(p: int, params: LucasParams, n: int) -> int:
    """v_p(U_n(s, t)) by the closed forms: (q (n - 1)) // 2 plus the reduced pair's case."""
    if n < 1:
        raise ValueError("index must be positive")
    table = _pair_table(p, params)
    if lucas_value_is_zero(n, params):
        raise ValueError(f"valuation of zero: U_{n}({params.s}, {params.t}) = 0")
    return _vp_lucas_case(p, table, n)


def _vp_lucas_case(p: int, table: tuple, n: int) -> int:
    """v_p(U_n) for the pair table of `_pair_table` and a nonzero U_n."""
    q, case, vu, vw = table
    k = case.k
    shift = q * (n - 1) // 2

    if case.b == 0:  # p ∤ t: the rank formula, at p = 2 restarted at index 2k
        if n % k:
            return shift
        if p == 2 and n % (2 * k) == 0:
            return shift + vu + vw + _vp(2, n // (2 * k))
        return shift + vu + _vp(p, n // k)
    if case.a == 0 or n % 2:
        return shift  # U_n = s^(n-1) mod p, or v_p(U_{2m+1}) = m with p | s, p || t

    # b = 1: v_p(U_{2m}) = c (n - 1) + m + (a - 1) + v_p(m) + lambda; the shift holds m - 1
    m = n // 2
    lam = (case.lam or 0) if m % p == 0 else 0
    return shift + case.a + _vp(p, m) + lam


def _power_exponent(x: int, p: int) -> int:
    """h >= 1 with x = p^h, else 0 (x >= 1)."""
    h = _vp(p, x)
    return h if x == p**h else 0


def vp_atom_closed(p: int, params: LucasParams, n: int) -> int:
    """v_p(P_n(s, t)) by the closed forms: (q phi(n)) // 2 plus the reduced pair's case."""
    if n < 2:
        raise ValueError("index must be at least 2")
    table = _pair_table(p, params)
    if n in zero_atom_indices(params):
        raise ValueError(f"valuation of zero: P_{n}({params.s}, {params.t}) = 0")
    return _vp_atom_case(p, table, n)


def _vp_atom_case(p: int, table: tuple, n: int) -> int:
    """v_p(P_n) for the pair table of `_pair_table` and a nonzero P_n.

    phi(n) is taken only when q > 0, so at c = 0 the p ∤ t path factorizes
    no n.
    """
    q, case, vu, vw = table
    k = case.k
    shift = q * euler_phi(n) // 2 if q else 0

    # p ∤ t. At p = 2, W_k = U_2k / U_k is P_4 (k = 2) or P_2 P_6 with P_2 = s odd
    if case.b == 0:
        if n == k:
            return shift + vu
        if p == 2 and n == 2 * k:
            return shift + vw
        return shift + (1 if n % k == 0 and _power_exponent(n // k, p) else 0)
    if case.a == 0:
        return shift

    # b = 1: a at n = 2; one more at n = 2p^h, and lambda more at n = 2p
    if n == 2:
        return shift + case.a
    h = _power_exponent(n // 2, p) if n % 2 == 0 else 0
    lam = (case.lam or 0) if h == 1 else 0
    return shift + (1 if h else 0) + lam


def _closed_atom_valuations(p: int, params: LucasParams, horizon: int) -> array[int]:
    """`_vp_atom_case` at 0 <= n <= horizon as one array('q'), entries 0 and 1
    being 0, for a pair with no zero atom value and with no call per index:
    (q phi(n)) // 2 from one phi sieve, then the terms at n = k p^h (p ∤ t')
    or at n = 2 and 2 p^h (p | s')."""
    from array import array

    q, case, vu, vw = _pair_table(p, params)
    vals = array("q", (q * v // 2 for v in _phi_sieve(horizon)) if q else bytes(8 * (horizon + 1)))
    vals[1] = 0
    if case.b == 0:  # v_p(U_k) at n = k, v_2(W_k) at n = 2k if p = 2, 1 at n = k p^h
        n, extra = case.k, vu
        while n <= horizon:
            vals[n] += extra
            n *= p
            extra = vw if n == 2 * case.k else 1
    elif case.a:  # a at n = 2; one more at n = 2p^h, and lambda more at n = 2p
        vals[2] += case.a
        n, extra = 2 * p, 1 + (case.lam or 0)
        while n <= horizon:
            vals[n] += extra
            n, extra = n * p, 1
    return vals


def vp_atom_mobius(p: int, params: LucasParams, n: int) -> int:
    """v_p(P_n) as the Mobius transform sum_{d | n} mu(d) v_p(U_{n/d}), over
    the squarefree d, the divisors of rad(n)."""
    if n < 2:
        raise ValueError("index must be at least 2")
    if lucas_value_is_zero(n, params):
        zero = min(z for z in zero_atom_indices(params) if n % z == 0)
        raise ValueError(f"valuation of zero: U_{zero}({params.s}, {params.t}) = 0")
    table = _pair_table(p, params)
    total = 0
    for d in divisors(radical(n)):
        total += mobius(d) * _vp_lucas_case(p, table, n // d)
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
