"""Holonomy evidence at desk scale: divisibility-pattern scans and exact
refutation of hypothesized polynomial recurrences for atom sequences.

For fixed integers (s, t) with t != 0, the indices n with p | P_n(s, t) form
geometric families like {k p^h}. The scan divides p^c out of (s, t), after
which v_p(U_n) stays small (Lucas's law of repetition), reads it off residues
mod p^K with p^K about 2^64, and takes v_p(P_n) from it by Mobius inversion:
O(N) word-sized recurrence steps and O(N log N) sieve steps, with no exact U_n
and no cyclotomic. It checks the hit set against the closed valuation forms,
with phi from one sieve over the horizon, and decides in O(N) whether the hit
indicator is eventually periodic up to the horizon. That shows the closed
forms describe the hit sets; it does not show that no recurrence exists,
since a P-recursive sequence can have a hit set that is not eventually
periodic (the Catalan numbers are odd exactly at n = 2^k - 1).

The fitter builds the exact linear system for candidate (order, degree)
pairs and returns either a validated fit or the minimal inconsistent window
prefix with a certificate. A refutation rules out recurrences
P_n = G_0(n) + sum_j G_j(n) P_{n-j} with G_j in Q[n] of that order and
degree, for the one (s, t) and over the finite window given.
"""

from __future__ import annotations

from functools import cache
from itertools import compress
from typing import TYPE_CHECKING

from .atoms import atom, atom_eval
from .errors import InternalConsistencyError
from .exactpoly import BiPoly, _Record, solve_rational
from .lucasfam import LucasParams, _lucas_pair
from .numtheory import _phi_sieve, _vp, euler_phi, is_prime
from .valuations import _stripped, _vp_atom_case, zero_atom_indices

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "DivisibilityPattern",
    "RecurrenceFit",
    "divisibility_scan",
    "fit_recurrence",
    "t_zero_profile",
]


# -- divisibility scan --------------------------------------------------------

class DivisibilityPattern(_Record):
    """Hit set {2 <= n <= horizon : p | P_n(s, t)} and its diagnostics.

    matches records agreement with the closed valuation forms;
    ap_expressible records whether some period Q <= horizon/3 makes the hit
    indicator periodic from horizon/3 on (the finite-horizon stand-in for
    "finite union of arithmetic progressions plus a finite set").
    """

    prime: int
    params: LucasParams
    horizon: int
    hit_indices: tuple[int, ...]
    expected: tuple[int, ...]
    matches: bool
    ap_expressible: bool


# A residue mod p^K with p^K about 2^_RESIDUE_BITS (and K >= 1) is kept per step.
_RESIDUE_BITS = 64


def _atom_valuations(p: int, params: LucasParams, horizon: int) -> list[int]:
    """v_p(P_n(s, t)) at index n for 0 <= n <= horizon (entries 0 and 1 are 0).

    By weighted homogeneity v_p(U_n(s, t)) = c (n - 1) + v_p(U_n(s', t')) for
    the stripped pair of `_stripped`. When p divides t' once and p | s', the
    loop runs V_n = U_n(s', t') / p^floor((n-1)/2) instead, an integer sequence
    with V_n = (s'/p) V_{n-1} + (t'/p) V_{n-2} at odd n and
    s' V_{n-1} + (t'/p) V_{n-2} at even n; else V_n = U_n(s', t'). Either way
    v_p(V_n) stays small, so N steps mod p^K give it exactly wherever the
    residue is nonzero; a zero residue is resolved by `_deep_valuation`. The
    atom valuations are the Mobius inversion of v_p(U_n) = sum_{d | n} v_p(P_d),
    a sieve over multiples with sum N/d steps. Needs U_n != 0 for n >= 1.
    """
    c, case = _stripped(p, params)
    s, t = case.params
    halve = case.b == 1 and case.a != 0
    odd, even = ((s // p, t // p), (s, t // p)) if halve else ((s, t), (s, t))
    k = 1
    while p ** (k + 1) <= 1 << _RESIDUE_BITS:
        k += 1
    mod = p**k
    vals = [0, 0]
    x, y = 0, 1  # (V_{n-1}, V_n) mod p^k at n = 1
    for n in range(2, horizon + 1):
        a, b = odd if n & 1 else even
        x, y = y, (a * y + b * x) % mod
        if y % p:
            vals.append(0)
        elif y:
            vals.append(_vp(p, y))
        else:
            shift = (n - 1) // 2 if halve else 0
            vals.append(_deep_valuation(p, case.params, n, shift, 2 * k))
    if c or halve:  # back from v_p(V_n) to v_p(U_n(s, t))
        vals[2:] = [
            v + c * (n - 1) + ((n - 1) // 2 if halve else 0)
            for n, v in enumerate(vals[2:], 2)
        ]
    for d in range(2, horizon // 2 + 1):
        v = vals[d]
        if v:
            vals[2 * d :: d] = [u - v for u in vals[2 * d :: d]]
    return vals


def _deep_valuation(p: int, params: LucasParams, n: int, shift: int, k: int) -> int:
    """v_p(U_n / p^shift) for p^shift | U_n != 0, from U_n mod p^(shift + k) by
    the doubling kernel, with k doubled until the residue is nonzero."""
    while True:
        r = _lucas_pair(n, params, p ** (shift + k))[0] // p**shift
        if r:
            return _vp(p, r)
        k *= 2


def _eventually_periodic(indicator: list[bool], horizon: int) -> bool:
    """True iff some period Q <= horizon/3 has no break from horizon/3 onward.

    A genuinely (APs + finite set)-shaped hit set keeps its transient part in
    the early horizon, so requiring the periodic tail to start by horizon/3
    leaves at least a full third of the horizon as evidence. The least period
    of indicator[tail..horizon] is its length minus its longest proper border,
    read off the prefix function in linear time.
    """
    seg = indicator[max(2, horizon // 3) : horizon + 1]
    border = [0] * len(seg)
    k = 0
    for i in range(1, len(seg)):
        while k and seg[i] != seg[k]:
            k = border[k - 1]
        if seg[i] == seg[k]:
            k += 1
        border[i] = k
    return 0 < len(seg) - k <= horizon // 3


def divisibility_scan(p: int, params: LucasParams, horizon: int) -> DivisibilityPattern:
    """Scan p | P_n(s, t) for 2 <= n <= horizon and compare with the closed forms."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if horizon < 2:
        raise ValueError("horizon must be at least 2")
    if params.t == 0:
        raise ValueError("t = 0 degenerates atoms to monomials; use t_zero_profile")
    zeros = zero_atom_indices(params)
    if zeros:
        raise ValueError(
            f"degenerate parameters: atom value vanishes at {sorted(zeros)}"
        )
    indicator = [v > 0 for v in _atom_valuations(p, params, horizon)]
    c, case = _stripped(p, params)
    # the case function reads phi(n) only where c > 0 or p | t'
    phi = _phi_sieve(horizon).__getitem__ if c or case.b else euler_phi
    closed = [_vp_atom_case(p, c, case, n, phi) > 0 for n in range(2, horizon + 1)]
    del phi  # free the phi table before the hit tuple is built
    matches = closed == indicator[2:]
    hits = tuple(compress(range(horizon + 1), indicator))
    return DivisibilityPattern(
        prime=p,
        params=params,
        horizon=horizon,
        hit_indices=hits,
        # one tuple serves both fields when they agree
        expected=hits if matches else tuple(compress(range(2, horizon + 1), closed)),
        matches=matches,
        ap_expressible=_eventually_periodic(indicator, horizon),
    )


# -- recurrence fitting -------------------------------------------------------

class RecurrenceFit(_Record):
    """Outcome of fitting P_n = G_0(n) + sum_{j=1..order} G_j(n) P_{n-j}.

    On "fit": coefficients[j] lists G_j's coefficients (constant term first),
    exact rationals, validated by direct substitution over the whole window;
    dimension is the solution-space dimension. On "refuted": witness_end is
    the end of the minimal inconsistent window prefix and certificate the row
    combination proving inconsistency.
    """

    order: int
    degree: int
    window: tuple[int, int]
    status: str
    coefficients: tuple[tuple[Fraction, ...], ...] | None
    dimension: int | None
    witness_end: int | None
    certificate: tuple[Fraction, ...] | None


def recurrence_row(
    values: dict[int, int], n: int, order: int, degree: int
) -> tuple[list[int], int]:
    """One linear equation at index n: unknowns ordered G_0 c_0..c_D, G_1 c_0..c_D, ...

    The unknown (j, r) multiplies n^r (j = 0) or n^r * P_{n-j} (j >= 1);
    the right-hand side is P_n.
    """
    powers = [n**r for r in range(degree + 1)]
    row: list[int] = list(powers)
    for j in range(1, order + 1):
        row.extend(powers[r] * values[n - j] for r in range(degree + 1))
    return row, values[n]


def fit_recurrence(
    params: LucasParams, order: int, degree: int, n_start: int, n_end: int
) -> RecurrenceFit:
    """Fit or refute a polynomial recurrence on the window n_start..n_end."""
    if order < 1:
        raise ValueError("order must be at least 1")
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if n_start <= order:
        raise ValueError("window must start above the recurrence order")
    unknowns = (order + 1) * (degree + 1)
    if n_end - n_start + 1 < 2 * unknowns:
        raise ValueError(
            f"window too short: need at least {2 * unknowns} equations"
        )
    values = {n: atom_eval(n, params) for n in range(n_start - order, n_end + 1)}
    window = range(n_start, n_end + 1)
    rows, rhs = zip(*(recurrence_row(values, n, order, degree) for n in window))
    result = solve_rational(rows, rhs)
    if result.status == "inconsistent":
        last = max(i for i, y in enumerate(result.certificate) if y)
        return RecurrenceFit(
            order=order,
            degree=degree,
            window=(n_start, n_end),
            status="refuted",
            coefficients=None,
            dimension=None,
            witness_end=n_start + last,
            certificate=result.certificate[: last + 1],
        )
    coeffs = tuple(
        tuple(result.solution[j * (degree + 1) + r] for r in range(degree + 1))
        for j in range(order + 1)
    )
    for n in window:  # re-validate before reporting
        total = sum(coeffs[0][r] * n**r for r in range(degree + 1))
        for j in range(1, order + 1):
            gj = sum(coeffs[j][r] * n**r for r in range(degree + 1))
            total += gj * values[n - j]
        if total != values[n]:
            raise InternalConsistencyError(
                f"fitted recurrence fails direct validation at n={n}"
            )
    return RecurrenceFit(
        order=order,
        degree=degree,
        window=(n_start, n_end),
        status="fit",
        coefficients=coeffs,
        dimension=result.dimension,
        witness_end=None,
        certificate=None,
    )


# -- the t = 0 profile ---------------------------------------------------------

_T_ZERO_CHECK_LIMIT = 200


@cache
def _check_t_zero(n: int) -> None:
    """Raise unless the atom at index n with t set to zero is s^phi(n)."""
    reduced = atom(n).subs(BiPoly.var_s(), BiPoly.zero())
    if reduced != BiPoly.monomial(euler_phi(n), 0):
        raise InternalConsistencyError(f"atom at t = 0 is not s^phi at index {n}")


def t_zero_profile(s: int, horizon: int) -> list[tuple[int, int]]:
    """(n, P_n(s, 0)) for 1 <= n <= horizon: 1, then s^phi(n).

    The closed values are cross-checked symbolically against the atoms with t
    set to zero for indices up to 200.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    out = [(1, 1)] + [
        (n, s ** euler_phi(n)) for n in range(2, horizon + 1)
    ]
    for n in range(2, min(horizon, _T_ZERO_CHECK_LIMIT) + 1):
        _check_t_zero(n)
    return out
