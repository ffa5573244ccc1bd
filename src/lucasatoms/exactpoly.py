"""Exact polynomial arithmetic over arbitrary-precision integers.

BiPoly is a polynomial in s and t graded by weight: the store maps each weight
w = i + 2j of its monomials s^i t^j to a dense list whose entry j is the
coefficient of s^(w-2j) t^j, with no trailing zeros and no empty weights, so
equal polynomials have equal stores. U_n, W_n and every atom are one list.
UniPoly is a dense univariate polynomial in q, stored as a coefficient list
c_0..c_m with nonzero top coefficient. Both are immutable by convention and
print in a fixed canonical text form that doubles as the equality witness in
golden tests.

_mul_lists is the one product kernel: schoolbook while the shorter list has
fewer than _KRONECKER_CUTOFF entries, above that Kronecker substitution, with
each list packed into one decimal integer and multiplied by libmpdec's
number-theoretic transform. Division by a divisor of one weight, monic in s,
is power-series division of the lists; every entry of f - q*g past the
quotient must be 0, so a nonzero remainder always raises.

solve_rational is exact row-by-row elimination over fractions.Fraction. On
inconsistency its certificate's last nonzero entry is the first row whose
prefix is inconsistent.
"""

from __future__ import annotations

import decimal
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import Callable, Iterable, Iterator, Sequence

__all__ = [
    "BiPoly",
    "LinearSolveResult",
    "UniPoly",
    "exact_div_in_s",
    "solve_rational",
]

# Shorter-operand length from which Kronecker substitution beats schoolbook.
_KRONECKER_CUTOFF = 40

# Precision and exponent range never bind, so Inexact can only mean a bug.
_DECIMAL = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact],
)


def _trim(cs: list[int]) -> list[int]:
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _schoolbook(a: Sequence[int], b: Sequence[int]) -> list[int]:
    la = len(a)
    out = [0] * (la + len(b) - 1)
    for i, y in enumerate(b):
        if y:
            out[i : i + la] = [o + x * y for o, x in zip(out[i : i + la], a)]
    return out


def _kronecker(a: Sequence[int], b: Sequence[int]) -> list[int]:
    # Slots of width decimal digits hold any product coefficient r with
    # 2|r| < 10^width, so a signed slot reads back as a balanced digit.
    bound = 2 * min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b))
    width = bound.bit_length() * 30103 // 100000 + 1
    limit = sys.get_int_max_str_digits()
    if 0 < limit < width:  # too wide for str(int) and int(str)
        to_text, to_int = (lambda c: str(decimal.Decimal(c))), (lambda x: int(decimal.Decimal(x)))
    else:
        to_text, to_int = str, int

    def pack(x: Sequence[int]) -> decimal.Decimal:
        """sum_j x_j 10^(width*j), as its positive part minus its negative part."""
        packed = decimal.Decimal("".join(to_text(max(c, 0)).zfill(width) for c in reversed(x)))
        if min(x) < 0:
            negative = "".join(to_text(max(-c, 0)).zfill(width) for c in reversed(x))
            packed = _DECIMAL.subtract(packed, decimal.Decimal(negative))
        return packed

    packed_a = pack(a)
    product = _DECIMAL.multiply(packed_a, packed_a if b is a else pack(b))
    n = len(a) + len(b) - 1
    digits = str(product.copy_abs()).zfill(n * width)
    sign = -1 if product.is_signed() else 1
    base = 10**width
    coeffs, carry = [], 0
    for i in range((n - 1) * width, -1, -width):
        v = to_int(digits[i : i + width]) + carry
        carry = 2 * v >= base
        coeffs.append(sign * (v - base if carry else v))
    return coeffs


def _mul_lists(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Convolution of two nonzero coefficient lists without trailing zeros."""
    za = next(i for i, c in enumerate(a) if c)
    zb = next(i for i, c in enumerate(b) if c)
    if za or zb:
        stripped = a[za:]
        return [0] * (za + zb) + _mul_lists(stripped, stripped if b is a else b[zb:])
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        return [c * b[0] for c in a]
    if len(b) < _KRONECKER_CUTOFF:
        return _schoolbook(a, b)
    return _kronecker(a, b)


def _div_lists(f: Sequence[int], g: Sequence[int], length: int) -> list[int]:
    """q of the given length with f = q*g, where g[0] == 1, as power series.

    r runs through f - q*g: once the entries before j are eliminated, r[j] is
    q_j. Raises ValueError unless every entry of r past the quotient is 0.
    """
    m = len(g) - 1
    tail = g[1:]
    r = list(f) + [0] * (length + m - len(f))
    for j in range(length if m else 0):
        c = r[j]
        if c:
            r[j + 1 : j + m + 1] = [x - c * y for x, y in zip(r[j + 1 : j + m + 1], tail)]
    if any(r[length:]):
        raise ValueError("inexact division: nonzero remainder")
    return r[:length]


def _add_into(store: dict[int, list[int]], w: int, cs: list[int]) -> None:
    """store[w] += cs, dropping the weight if the sum vanishes."""
    mine = store.get(w)
    if mine is None:
        store[w] = cs
        return
    summed = _trim([x + y for x, y in zip_longest(mine, cs, fillvalue=0)])
    if summed:
        store[w] = summed
    else:
        del store[w]


def _from_store(store: dict[int, list[int]]) -> "BiPoly":
    poly = object.__new__(BiPoly)
    poly._c = store
    return poly


def _render(terms: Iterable[tuple[int, tuple[tuple[str, int], ...]]]) -> str:
    """Canonical text of the terms (coefficient, ((variable, exponent), ...)),
    nonzero and in print order: "0" for none, "-" before a negative first term
    and " + " or " - " between terms, no coefficient of absolute value 1 before
    a variable, "*" between factors, "^" on exponents of 2 or more."""
    out: list[str] = []
    for c, powers in terms:
        body = "*".join([v if e == 1 else f"{v}^{e}" for v, e in powers if e])
        if not body:
            body = str(abs(c))
        elif abs(c) != 1:
            body = f"{abs(c)}*{body}"
        out.append((" - " if c < 0 else " + ") if out else ("-" if c < 0 else ""))
        out.append(body)
    return "".join(out) or "0"


class BiPoly:
    """Exact polynomial in s and t with integer coefficients, graded by weight."""

    __slots__ = ("_c",)

    def __init__(self, terms: dict[tuple[int, int], int] | None = None):
        self._c: dict[int, list[int]] = {}
        for (i, j), value in (terms or {}).items():
            if value:
                cs = self._c.setdefault(i + 2 * j, [])
                cs.extend([0] * (j + 1 - len(cs)))
                cs[j] = value

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "BiPoly":
        return cls()

    @classmethod
    def one(cls) -> "BiPoly":
        return cls.constant(1)

    @classmethod
    def constant(cls, c: int) -> "BiPoly":
        return _from_store({0: [c]} if c else {})

    @classmethod
    def var_s(cls) -> "BiPoly":
        return _from_store({1: [1]})

    @classmethod
    def var_t(cls) -> "BiPoly":
        return _from_store({2: [0, 1]})

    @classmethod
    def monomial(cls, i: int, j: int, c: int = 1) -> "BiPoly":
        return _from_store({i + 2 * j: [0] * j + [c]} if c else {})

    @classmethod
    def from_weight_list(cls, weight: int, coeffs: Iterable[int]) -> "BiPoly":
        """Build sum_j coeffs[j] * s^(weight-2j) * t^j (weighted-homogeneous form)."""
        cs = _trim(list(coeffs))
        return _from_store({weight: cs} if cs else {})

    # -- inspection ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self._c

    def terms(self) -> Iterator[tuple[int, int, int]]:
        """(s-degree, t-degree, coefficient) in canonical order: s desc, then t desc."""
        yield from sorted(
            (
                (w - 2 * j, j, c)
                for w, cs in self._c.items()
                for j, c in enumerate(cs)
                if c
            ),
            key=lambda term: (-term[0], -term[1]),
        )

    def coeff(self, i: int, j: int) -> int:
        cs = self._c.get(i + 2 * j, ())
        return cs[j] if 0 <= j < len(cs) else 0

    def s_degree(self) -> int:
        """Highest s-degree; -1 for the zero polynomial."""
        return max(
            (w - 2 * next(j for j, c in enumerate(cs) if c) for w, cs in self._c.items()),
            default=-1,
        )

    def is_weighted_homogeneous(self, w: int) -> bool:
        """True iff every stored monomial s^i t^j satisfies i + 2j = w."""
        return all(weight == w for weight in self._c)

    def __len__(self) -> int:
        return sum(1 for cs in self._c.values() for c in cs if c)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self._c == ({0: [other]} if other else {})
        if isinstance(other, BiPoly):
            return self._c == other._c
        return NotImplemented

    __hash__ = None  # mutable-dict backed; equality by value

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "BiPoly | int") -> "BiPoly":
        if isinstance(other, int):
            other = BiPoly.constant(other)
        out = dict(self._c)
        for w, cs in other._c.items():
            _add_into(out, w, cs)
        return _from_store(out)

    __radd__ = __add__

    def __neg__(self) -> "BiPoly":
        return _from_store({w: [-c for c in cs] for w, cs in self._c.items()})

    def __sub__(self, other: "BiPoly | int") -> "BiPoly":
        if isinstance(other, int):
            other = BiPoly.constant(other)
        return self + (-other)

    def __rsub__(self, other: int) -> "BiPoly":
        return BiPoly.constant(other) - self

    def __mul__(self, other: "BiPoly | int") -> "BiPoly":
        if isinstance(other, int):
            if not other:
                return BiPoly()
            return _from_store({w: [c * other for c in cs] for w, cs in self._c.items()})
        out: dict[int, list[int]] = {}
        for wa, ca in self._c.items():
            for wb, cb in other._c.items():
                _add_into(out, wa + wb, _mul_lists(ca, cb))
        return _from_store(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BiPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return _powers(self)(n)

    # -- evaluation and substitution ------------------------------------

    def eval(self, s0: int, t0: int) -> int:
        """Exact integer value at (s0, t0)."""
        total = 0
        s2 = s0 * s0
        for w, cs in self._c.items():
            acc, t_pow = 0, 1  # acc = sum_j c_j (s0^2)^(n-j) t0^j after the loop
            for c in cs:
                acc = acc * s2 + c * t_pow
                t_pow *= t0
            total += acc * s0 ** (w - 2 * (len(cs) - 1))
        return total

    def subs(self, s_value: "BiPoly", t_value: "BiPoly") -> "BiPoly":
        """Substitute s -> s_value, t -> t_value and expand.

        A weight-w list c_0..c_n becomes S^(w-2n) * H(c) with
        H(c) = sum_j c_j A^(n-j) B^j, A = S^2 and B = T, and H splits as
        H(low + high) = A^len(high) H(low) + B^len(low) H(high).
        """
        power_a = _powers(s_value * s_value)
        power_b = _powers(t_value)

        def halves(cs: list[int]) -> BiPoly:
            if len(cs) == 1:
                return BiPoly.constant(cs[0])
            if not any(cs):
                return BiPoly()
            h = len(cs) // 2
            low, high = cs[:h], cs[h:]
            return power_a(len(high)) * halves(low) + power_b(len(low)) * halves(high)

        out = BiPoly()
        for w, cs in self._c.items():
            out = out + s_value ** (w - 2 * (len(cs) - 1)) * halves(cs)
        return out

    # -- text ------------------------------------------------------------

    def __str__(self) -> str:
        return _render((c, (("s", i), ("t", j))) for i, j, c in self.terms())

    def __repr__(self) -> str:
        return f"BiPoly('{self}')"


def _powers(base: BiPoly) -> Callable[[int], BiPoly]:
    """k -> base^k, each power built once from two smaller ones."""
    memo = {0: BiPoly.one(), 1: base}

    def power(k: int) -> BiPoly:
        if k not in memo:
            memo[k] = power(k // 2) * power(k - k // 2)
        return memo[k]

    return power


def exact_div_in_s(f: BiPoly, g: BiPoly) -> BiPoly:
    """Exact quotient f / g, viewing both as polynomials in s over Z[t].

    g must be monic in s: its unique highest-s-degree term is s^k with
    coefficient 1 and t-degree 0. Raises ValueError on a nonzero remainder.
    """
    if g.is_zero():
        raise ValueError("division by the zero polynomial")
    if len(g._c) > 1:
        # several weights: cancel the remainder's leading s-degree, one at a time
        k = g.s_degree()
        if [(i, j, c) for i, j, c in g.terms() if i == k] != [(k, 0, 1)]:
            raise ValueError("divisor is not monic in s")
        quotient, rem = BiPoly(), f
        while not rem.is_zero():
            d = rem.s_degree()
            if d < k:
                raise ValueError("inexact division: nonzero remainder")
            lead = BiPoly({(d - k, j): c for i, j, c in rem.terms() if i == d})
            quotient, rem = quotient + lead, rem - lead * g
        return quotient
    ((wg, gs),) = g._c.items()
    if gs[0] != 1:
        raise ValueError("divisor is not monic in s")
    out: dict[int, list[int]] = {}
    for w, cs in f._c.items():
        q = _trim(_div_lists(cs, gs, max(0, (w - wg) // 2 + 1)))
        if q:
            out[w - wg] = q
    return _from_store(out)


class UniPoly:
    """Dense exact polynomial in one variable q over the integers."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        self.coeffs: tuple[int, ...] = tuple(_trim(list(coeffs)))

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls()

    @classmethod
    def one(cls) -> "UniPoly":
        return cls((1,))

    @classmethod
    def q_power_minus_one(cls, n: int) -> "UniPoly":
        """q^n - 1."""
        return cls((-1,) + (0,) * (n - 1) + (1,))

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_palindromic(self) -> bool:
        return self.coeffs == self.coeffs[::-1]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, UniPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if self.is_zero() or other.is_zero():
            return UniPoly.zero()
        return UniPoly(_mul_lists(self.coeffs, other.coeffs))

    def exact_div(self, g: "UniPoly") -> "UniPoly":
        """Exact quotient by a monic divisor; ValueError on a nonzero remainder."""
        if g.is_zero() or g.coeffs[-1] != 1:
            raise ValueError("divisor must be monic and nonzero")
        if self.is_zero():
            return UniPoly.zero()
        # reversed, the monic divisor starts with 1: power-series division
        q = _div_lists(self.coeffs[::-1], g.coeffs[::-1], max(0, self.degree - g.degree + 1))
        return UniPoly(reversed(q))

    def inflate(self, k: int) -> "UniPoly":
        """Replace q by q^k."""
        if k < 1:
            raise ValueError("inflation factor must be positive")
        if self.is_zero():
            return UniPoly.zero()
        out = [0] * (self.degree * k + 1)
        for i, c in enumerate(self.coeffs):
            out[i * k] = c
        return UniPoly(out)

    def eval(self, x: int) -> int:
        total = 0
        for c in reversed(self.coeffs):
            total = total * x + c
        return total

    def __str__(self) -> str:
        cs = self.coeffs
        return _render((cs[e], (("q", e),)) for e in range(self.degree, -1, -1) if cs[e])

    def __repr__(self) -> str:
        return f"UniPoly('{self}')"


@dataclass(frozen=True)
class LinearSolveResult:
    """Outcome of exact elimination on A x = b.

    status is "solution" (unique, dimension 0), "underdetermined" (a witness
    solution plus the solution-space dimension), or "inconsistent" (a row
    combination y with y.A = 0 and y.b != 0).
    """

    status: str
    solution: tuple[Fraction, ...] | None
    dimension: int | None
    certificate: tuple[Fraction, ...] | None


def solve_rational(
    rows: Sequence[Sequence[int | Fraction]],
    rhs: Sequence[int | Fraction],
) -> LinearSolveResult:
    """Solve A x = b exactly over the rationals by row-by-row elimination.

    Each row is reduced against the pivot rows kept so far, in insertion
    order, and kept as a pivot at its first nonzero column if it has one.
    The solve stops at the first row that reduces to [0 ... 0 | nonzero], so
    the certificate's last nonzero entry is the first row whose prefix is
    inconsistent. Otherwise back-substitution with the free variables at 0
    gives the same solution as Gauss-Jordan elimination.
    """
    m = len(rows)
    if m == 0:
        raise ValueError("the system needs at least one row")
    n = len(rows[0])
    if any(len(row) != n for row in rows) or len(rhs) != m:
        raise ValueError("dimension mismatch between rows and right-hand side")

    # (pivot column, row scaled to 1 there, its rhs, its row combination)
    pivots: list[tuple[int, list[Fraction], Fraction, list[Fraction]]] = []
    for i, (row, rhs_i) in enumerate(zip(rows, rhs)):
        a = [Fraction(x) for x in row]
        b = Fraction(rhs_i)
        comb = [Fraction(0)] * i + [Fraction(1)]
        for col, p_row, p_b, p_comb in pivots:
            f = a[col]
            if f:
                a = [x - f * y for x, y in zip(a, p_row)]
                b -= f * p_b
                comb[: len(p_comb)] = [x - f * y for x, y in zip(comb, p_comb)]
        col = next((c for c, v in enumerate(a) if v), None)
        if col is None:
            if b:
                certificate = comb + [Fraction(0)] * (m - 1 - i)
                return LinearSolveResult("inconsistent", None, None, tuple(certificate))
            continue
        inv = 1 / a[col]
        pivots.append((col, [v * inv for v in a], b * inv, [v * inv for v in comb]))

    x = [Fraction(0)] * n
    for col, p_row, p_b, _ in reversed(pivots):
        x[col] = p_b - sum(v * w for v, w in zip(p_row, x))
    dim = n - len(pivots)
    status = "solution" if dim == 0 else "underdetermined"
    return LinearSolveResult(status, tuple(x), dim, None)
