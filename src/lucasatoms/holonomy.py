"""Holonomy evidence at desk scale: divisibility-pattern scans and exact
refutation of hypothesized polynomial recurrences for atom sequences.

`divisibility_scan` reads every v_p(P_n(s, t)) up to the horizon off residues
of the recurrence mod p^K, with no exact U_n, and compares it with the
closed forms. Both lists leave out the weighted-homogeneity term
(q phi(n)) // 2, which neither side measures; where q > 0 it makes every
n >= 2 a hit. Unequal hit sets give matches=False, and an unequal value with
equal hit sets raises InternalConsistencyError. It also says whether the hit
indicator is eventually periodic up to the horizon, which shows nothing about
holonomy. `fit_recurrence` returns a validated fit, or the minimal
inconsistent window prefix with a certificate checked to give y A = 0 and
y b != 0. A refutation rules out recurrences
P_n = G_0(n) + sum_j G_j(n) P_{n-j} with G_j in Q[n] of that order and
degree, for the one (s, t) and over the finite window given. README's
holonomy paragraph derives the scan and gives its measurements.
"""

from __future__ import annotations

from functools import cache
from itertools import compress
from math import gcd, lcm
from operator import mul
from typing import TYPE_CHECKING

from .atoms import atom, atom_eval
from .errors import InternalConsistencyError
from .exactpoly import BiPoly, _eliminate, _Record
from .lucasfam import LucasParams
from .numtheory import _phi_sieve, euler_phi, is_prime
from .valuations import _closed_atom_valuations, _deep_valuation, _pair_table, zero_atom_indices

if TYPE_CHECKING:
    from array import array
    from collections.abc import Sequence
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

    matches records agreement with the closed valuation forms (a disagreement
    in value alone raises InternalConsistencyError);
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


def _atom_valuations(p: int, params: LucasParams, horizon: int) -> array[int]:
    """array('q') of v_p(P_n(s, t)) - (q phi(n)) // 2 at index n for 0 <= n <= horizon
    (entries 0 and 1 are 0), for q of `valuations._pair_table`.

    By weighted homogeneity v_p(U_n(s, t)) = (q (n - 1)) // 2 + v_p(V_n) for
    V_n = U_n(s', t') of the stripped pair, divided by p^floor((n-1)/2) when q
    is odd (p | s' and p divides t' once), and (q (n - 1)) // 2 is the sum of
    (q phi(d)) // 2 over the d | n with d >= 2 (phi(2) = 1 carries the floor).
    So only v_p(V_n) is measured and inverted. V_n steps by (s', t'/p) at even
    n and by (s'/p, t'/p) at odd n when q is odd, else by (s', t'). Either way
    v_p(V_n) stays small, so N steps mod p^K give it exactly wherever the
    residue is nonzero; a zero residue is resolved by `_deep_valuation`. The
    inversion of v_p(V_n) = sum_{d | n} v_p(P_d) - (q phi(d)) // 2 is nonzero
    only at d = k p^h, k the stripped pair's rank, so subtracting each nonzero
    term from the multiples of d is the whole inversion. Needs U_n != 0.
    """
    from array import array

    q, case, *_ = _pair_table(p, params)
    halve = q % 2
    s, t = case.params
    s_odd, t = (s // p, t // p) if halve else (s, t)
    k = 1
    while p ** (k + 1) <= 1 << _RESIDUE_BITS:
        k += 1
    mod = p**k
    vals = array("q", bytes(8 * horizon + 16))

    def deep(n: int) -> int:  # v_p(V_n) where V_n = 0 mod p^k
        return _deep_valuation(p, case.params, n, (n - 1) // 2 if halve else 0, 2 * k)

    # a nonzero residue y has v_p(y) < k, read off gcd(y, p^k) = p^v_p(y)
    exponent = {p**i: i for i in range(k)}
    x, y = 0, 1  # (V_{n-1}, V_n) mod p^k at n = 1
    for n in range(2, horizon + 1, 2):  # even n by (s, t), odd n + 1 by (s_odd, t)
        x, y = y, (s * y + t * x) % mod
        if not y % p:
            vals[n] = exponent[gcd(y, mod)] if y else deep(n)
        x, y = y, (s_odd * y + t * x) % mod
        if not y % p:
            vals[n + 1] = exponent[gcd(y, mod)] if y else deep(n + 1)
    del vals[horizon + 1 :]  # the last odd step may pass the horizon
    for d in range(2, horizon // 2 + 1):  # subtract each nonzero atom term from its multiples
        v = vals[d]
        if v:
            vals[2 * d :: d] = array("q", [u - v for u in vals[2 * d :: d]])
    return vals


def _eventually_periodic(indicator: Sequence[int], horizon: int) -> bool:
    """True iff some period Q <= horizon/3 has no break from horizon/3 onward.

    A genuinely (APs + finite set)-shaped hit set keeps its transient part in
    the early horizon, so requiring the periodic tail to start by horizon/3
    leaves at least a full third of the horizon as evidence. A least period Q
    of the tail at most half its length (as horizon/3 is) is where the tail's
    first half first occurs again past 0: an earlier occurrence j would make
    the tail's first j + Q entries periodic with both j and Q, hence (Fine and
    Wilf) with gcd(j, Q) < Q, and so the whole tail. Both searches run over
    bytes in linear time.
    """
    seg = bytes(indicator[max(2, horizon // 3) : horizon + 1])
    q = seg.find(seg[: len(seg) // 2], 1)
    return 0 < q <= horizon // 3 and seg[q:] == seg[:-q]


def divisibility_scan(p: int, params: LucasParams, horizon: int) -> DivisibilityPattern:
    """Scan p | P_n(s, t) for 2 <= n <= horizon and compare every v_p(P_n) with the closed forms."""
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
    q = _pair_table(p, params)[0]
    closed = _closed_atom_valuations(p, params, horizon)
    vals = _atom_valuations(p, params, horizon)
    # both lists leave out (q phi(n)) // 2, which is at least 1 at n >= 3 when
    # q > 0 and at n = 2 when q >= 2; q = 1 means p | s = P_2
    indicator = bytes(map((0).__lt__, vals)) if not q else bytes(2) + b"\1" * (horizon - 1)
    matches = vals == closed
    if not matches:
        expected = bytes(map((0).__lt__, closed)) if not q else indicator
        if expected == indicator:
            n = next(n for n, (u, v) in enumerate(zip(vals, closed)) if u != v)
            shift = q * euler_phi(n) // 2
            msg = f"index {n}: valuation {vals[n] + shift}, closed form {closed[n] + shift}"
            raise InternalConsistencyError(msg)
    del vals, closed  # free both lists before the hit tuple is built
    ap_expressible = _eventually_periodic(indicator, horizon)
    hits = tuple(compress(range(horizon + 1), indicator))
    return DivisibilityPattern(
        prime=p,
        params=params,
        horizon=horizon,
        hit_indices=hits,
        # one tuple serves both fields when they agree
        expected=hits if matches else tuple(compress(range(horizon + 1), expected)),
        matches=matches,
        ap_expressible=ap_expressible,
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


def _check_certificate(y: Sequence[Fraction], system: list[tuple[list[int], int]]) -> None:
    """Raise unless y A = 0 and y b != 0 over the rows (A | b) of system, in
    integers after clearing the denominators of y."""
    scale = lcm(*(v.denominator for v in y))
    y = [v.numerator * (scale // v.denominator) for v in y]
    rows, rhs = zip(*system)
    if len(y) != len(rows) or any(sum(map(mul, y, column)) for column in zip(*rows)):
        raise InternalConsistencyError("refutation certificate fails y.A = 0")
    if not sum(map(mul, y, rhs)):
        raise InternalConsistencyError("refutation certificate fails y.b != 0")


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
    values = {n: atom_eval(n, params) for n in range(n_start - order, n_start)}
    window = range(n_start, n_end + 1)
    drawn: list[tuple[list[int], int]] = []

    def system():
        for n in window:  # one atom value and one row each time the solver asks
            values[n] = atom_eval(n, params)
            drawn.append(recurrence_row(values, n, order, degree))
            yield drawn[-1]

    result = _eliminate(system(), unknowns)
    if result.status == "inconsistent":
        _check_certificate(result.certificate, drawn)
        return RecurrenceFit(
            order=order,
            degree=degree,
            window=(n_start, n_end),
            status="refuted",
            coefficients=None,
            dimension=None,
            witness_end=n_start + len(drawn) - 1,
            certificate=result.certificate,
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
    return _t_zero_profile(s, _phi_sieve(horizon))


def _t_zero_profile(s: int, phi: Sequence[int]) -> list[tuple[int, int]]:
    """`t_zero_profile` to the horizon len(phi) - 1 >= 1, with every phi(n)
    read from the sieve phi = `numtheory._phi_sieve(horizon)`."""
    horizon = len(phi) - 1
    out = [(1, 1)] + [(n, s ** phi[n]) for n in range(2, horizon + 1)]
    for n in range(2, min(horizon, _T_ZERO_CHECK_LIMIT) + 1):
        _check_t_zero(n)
    return out
