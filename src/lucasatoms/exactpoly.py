"""Exact polynomial arithmetic over arbitrary-precision integers.

BiPoly is a polynomial in s and t graded by weight: the store maps each weight
w = i + 2j of its monomials s^i t^j to a dense list whose entry j is the
coefficient of s^(w-2j) t^j, with no trailing zeros and no empty weights, so
equal polynomials have equal stores. U_n, W_n and every atom are one list.
UniPoly only carries the coefficient tuple c_0..c_m of a cyclotomic polynomial
in q, nonzero top coefficient, and prints it. Both are immutable by convention
and print in a fixed canonical text form that doubles as the equality witness
in golden tests.

_mul_lists is the one product kernel: schoolbook while the shorter list has
fewer than _KRONECKER_CUTOFF entries, above that Kronecker substitution, with
each list packed into one decimal integer and multiplied by libmpdec's
number-theoretic transform. exact_div_in_s takes a divisor of one weight
whose list starts with 1 (monic in s) and divides each weight list of f by it
as power series; every entry of f - q*g past the quotient must be 0, so a
nonzero remainder always raises. The schoolbook and division kernels each
allocate one fresh list and update it in place, one entry at a time; they
never write to their inputs, whose lists BiPoly stores and caches share.

solve_rational is exact row-by-row elimination over integers, with the
content of each reduced row and its rhs divided out. No row combination is
carried: each row records its steps, and the certificate is recovered once
by undoing them from the witness row back (_unwind; in Fractions from 50
pivots on). Its last nonzero entry is the first row whose prefix is
inconsistent, and that entry is 1. Its core, _eliminate, takes integer rows
from an iterable and stops at that row, so a caller can build rows on demand.

_Record is the base of the library's immutable result records. decimal and
fractions load on first use, so a call that needs neither never imports them.
"""

from __future__ import annotations

import sys
from functools import cache
from itertools import zip_longest
from math import gcd, lcm
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "BiPoly",
    "LinearSolveResult",
    "UniPoly",
    "exact_div_in_s",
    "solve_rational",
]

# Shorter-operand length from which products use Kronecker substitution. On
# atom-sized entries it beats schoolbook from about 30 entries when the lists
# are of about equal length, but only from 60-75 when the longer has 100-500.
_KRONECKER_CUTOFF = 40


class _Record:
    """Base of an immutable value record whose fields are its class's
    annotations, in order: built by position or keyword, equal and hashed by
    value within one class, printed as Name(field=value, ...). The instance
    __dict__ holds exactly the fields, so vars() reads them."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = (*cls._fields, *cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args: object, **kwargs: object) -> None:
        names = self._fields
        if len(args) + len(kwargs) != len(names) or not kwargs.keys() <= set(names[len(args) :]):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        values = dict(zip(names, args), **kwargs)
        object.__setattr__(self, "__dict__", {name: values[name] for name in names})

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{type(self).__qualname__}({fields})"


@cache
def _decimal():
    """The decimal module and a context whose precision and exponent range
    never bind, so Inexact can only mean a bug; loaded on first use."""
    import decimal

    context = decimal.Context(
        prec=decimal.MAX_PREC,
        Emax=decimal.MAX_EMAX,
        Emin=decimal.MIN_EMIN,
        traps=[decimal.Inexact],
    )
    return decimal, context


def _trim(cs: list[int]) -> list[int]:
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _schoolbook(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, y in enumerate(b):
        if y:
            for k, x in enumerate(a, i):
                out[k] += x * y
    return out


def _kronecker(a: Sequence[int], b: Sequence[int]) -> list[int]:
    # Slots of width decimal digits hold any product coefficient r with
    # 2|r| < 10^width, so a signed slot reads back as a balanced digit.
    decimal, context = _decimal()
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
            packed = context.subtract(packed, decimal.Decimal(negative))
        return packed

    packed_a = pack(a)
    product = context.multiply(packed_a, packed_a if b is a else pack(b))
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
            for i, y in enumerate(tail, j + 1):
                r[i] -= c * y
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

    def is_weighted_homogeneous(self, w: int) -> bool:
        """True iff every stored monomial s^i t^j satisfies i + 2j = w."""
        return all(weight == w for weight in self._c)

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
        H(low + high) = A^len(high) H(low) + B^len(low) H(high). A is built
        only if some list has two or more entries.
        """
        long_lists = any(len(cs) > 1 for cs in self._c.values())
        power_a = _powers(s_value * s_value) if long_lists else None
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

    g must be one weight list starting with 1, that is weighted-homogeneous and
    monic in s; anything else raises ValueError, as does a nonzero remainder.
    """
    if g.is_zero():
        raise ValueError("division by the zero polynomial")
    (wg, gs), *others = g._c.items()
    if others or gs[0] != 1:
        raise ValueError("divisor is not one weight list monic in s")
    out: dict[int, list[int]] = {}
    for w, cs in f._c.items():
        q = _trim(_div_lists(cs, gs, max(0, (w - wg) // 2 + 1)))
        if q:
            out[w - wg] = q
    return _from_store(out)


class UniPoly:
    """Dense exact polynomial in one variable q over the integers: the carrier
    of cyclotomic coefficients and their canonical text."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        self.coeffs: tuple[int, ...] = tuple(_trim(list(coeffs)))

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __eq__(self, other: object) -> bool:
        if isinstance(other, UniPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __str__(self) -> str:
        cs = self.coeffs
        return _render((cs[e], (("q", e),)) for e in range(self.degree, -1, -1) if cs[e])

    def __repr__(self) -> str:
        return f"UniPoly('{self}')"


class LinearSolveResult(_Record):
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
    inconsistent, and that entry is 1. Otherwise back-substitution with the
    free variables at 0 gives the same solution as Gauss-Jordan elimination.

    The arithmetic is over integers: rows and rhs are scaled by the lcm of
    their denominators, a step is a <- pv*a - f*p_row against an unnormalised
    pivot row, and the content of a row and its rhs is divided out after each
    step. No row combination is carried: the certificate is recovered once
    from the recorded steps and mapped back through the scales. Both outputs
    are unique, so they equal those of elimination over Fraction.
    """
    from fractions import Fraction

    m = len(rows)
    if m == 0:
        raise ValueError("the system needs at least one row")
    n = len(rows[0])
    if any(len(row) != n for row in rows) or len(rhs) != m:
        raise ValueError("dimension mismatch between rows and right-hand side")
    scales = [lcm(b.denominator, *(v.denominator for v in row)) for row, b in zip(rows, rhs)]
    system = (([int(v * sc) for v in row], int(b * sc)) for row, b, sc in zip(rows, rhs, scales))
    result = _eliminate(system, n)
    y = result.certificate
    if y is None:
        return result
    w = scales[len(y) - 1]  # y_j * scale_j / w on the given rows is 1 at the witness row
    y = tuple(v * sc / w for v, sc in zip(y, scales)) + (Fraction(0),) * (m - len(y))
    return LinearSolveResult("inconsistent", None, None, y)


def _eliminate(system: Iterable[tuple[Sequence[int], int]], n: int) -> LinearSolveResult:
    """`solve_rational`'s elimination over integer (row, rhs) pairs with n unknowns,
    each drawn only when the previous one is reduced: nothing past the first
    inconsistent row is drawn, and its certificate covers the rows drawn."""
    from fractions import Fraction

    pivots: list[tuple] = []  # (pivot column, row, its rhs, its index as drawn, its steps)
    for i, (a, b) in enumerate(system):
        steps = []  # (pivot k, pv, f, g): g * row after = pv * row before - f * pivot row k
        for k, (col, p_row, p_b, _, _) in enumerate(pivots):
            f = a[col]
            if f:
                pv = p_row[col]
                d = gcd(pv, f)  # leaves the content-reduced row as it is, with smaller products
                pv, f = pv // d, f // d
                a = [pv * x - f * y for x, y in zip(a, p_row)]
                b = pv * b - f * p_b
                g = gcd(*a, b) or 1
                if g > 1:
                    a = [x // g for x in a]
                    b //= g
                steps.append((k, pv, f, g))
        col = next((c for c, v in enumerate(a) if v), None)
        if col is not None:
            pivots.append((col, a, b, i, steps))
        elif b:  # the witness row
            y = _unwind([*pivots, (col, a, b, i, steps)])
            certificate = tuple(Fraction(c, y[i]) for c in y)
            return LinearSolveResult("inconsistent", None, None, certificate)

    x = [Fraction(0)] * n
    for col, p_row, p_b, _, _ in reversed(pivots):
        x[col] = (p_b - sum(v * w for v, w in zip(p_row, x))) / p_row[col]
    dim = n - len(pivots)
    status = "solution" if dim == 0 else "underdetermined"
    return LinearSolveResult(status, tuple(x), dim, None)


# From this many pivots on, `_unwind` keeps each coefficient as a Fraction: the
# integer relation's scale grows with the product of the pivots. Median ms of the
# integer vs the Fraction walk on refuted fits at (s, t) = (1, 1), fresh processes:
# 1.0 vs 5.5 at 25 pivots, 7 vs 16 at 36, 44 vs 48 at 49, 77 vs 67 at 54,
# 243 vs 146 at 64 and 1,204 vs 426 at 81 (88,000-bit entries, 3,200-bit result).
_FRACTION_UNWIND_PIVOTS = 50


def _unwind(entries: list) -> list:
    """y_0..y_i, y_i != 0, with sum_j y_j (row j as drawn) a multiple of row i's
    final state, from `_eliminate`'s pivot entries and then row i's. From c = 1
    there, undoing a step (last first) adds -c*f/g to pivot k and leaves c*pv/g,
    over the integers once the relation is scaled by g/gcd(c, g) where g does
    not divide c. Pivots use only earlier ones, so undoing them in decreasing
    order ends on the rows as drawn."""
    from fractions import Fraction

    fractions = len(entries) > _FRACTION_UNWIND_PIVOTS
    coef = [0] * (len(entries) - 1) + [Fraction(1) if fractions else 1]
    y = [0] * (entries[-1][3] + 1)
    for l in range(len(entries) - 1, -1, -1):
        c = coef[l]
        if c:
            *_, row, steps = entries[l]
            for k, pv, f, g in reversed(steps):
                q, r = (c / g, 0) if fractions else divmod(c, g)
                if r:
                    h = g // gcd(r, g)
                    coef = [v * h for v in coef]
                    y = [v * h for v in y]
                    q = c * h // g
                coef[k] -= q * f
                c = q * pv
            y[row] = c
    return y
