"""Exact polynomial arithmetic over arbitrary-precision integers.

BiPoly is a sparse bivariate polynomial in s and t, stored as a map
(s-degree, t-degree) -> coefficient with no zero entries; the zero polynomial
is the empty map. UniPoly is a dense univariate polynomial in q, stored as a
coefficient list c_0..c_m with nonzero top coefficient. Both are immutable by
convention and print in a fixed canonical text form that doubles as the
equality witness in golden tests.

solve_rational is exact row-by-row elimination over fractions.Fraction. On
inconsistency its certificate's last nonzero entry is the first row whose
prefix is inconsistent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

__all__ = [
    "BiPoly",
    "LinearSolveResult",
    "UniPoly",
    "exact_div_in_s",
    "solve_rational",
]


def _render_terms(parts: list[tuple[int, str]]) -> str:
    # parts: (coefficient sign carried separately, term text without sign)
    out: list[str] = []
    for idx, (coeff, body) in enumerate(parts):
        if idx == 0:
            out.append(("-" if coeff < 0 else "") + body)
        else:
            out.append((" - " if coeff < 0 else " + ") + body)
    return "".join(out)


class BiPoly:
    """Sparse exact polynomial in s and t with integer coefficients."""

    __slots__ = ("_c",)

    def __init__(self, terms: dict[tuple[int, int], int] | None = None):
        self._c: dict[tuple[int, int], int] = {}
        if terms:
            for key, value in terms.items():
                if value:
                    self._c[key] = value

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "BiPoly":
        return cls()

    @classmethod
    def one(cls) -> "BiPoly":
        return cls({(0, 0): 1})

    @classmethod
    def constant(cls, c: int) -> "BiPoly":
        return cls({(0, 0): c})

    @classmethod
    def var_s(cls) -> "BiPoly":
        return cls({(1, 0): 1})

    @classmethod
    def var_t(cls) -> "BiPoly":
        return cls({(0, 1): 1})

    @classmethod
    def monomial(cls, i: int, j: int, c: int = 1) -> "BiPoly":
        return cls({(i, j): c})

    @classmethod
    def from_weight_list(cls, weight: int, coeffs: Iterable[int]) -> "BiPoly":
        """Build sum_j coeffs[j] * s^(weight-2j) * t^j (weighted-homogeneous form)."""
        return cls({(weight - 2 * j, j): c for j, c in enumerate(coeffs) if c})

    # -- inspection ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self._c

    def terms(self) -> Iterator[tuple[int, int, int]]:
        """(s-degree, t-degree, coefficient) in canonical order: s desc, then t desc."""
        for i, j in sorted(self._c, key=lambda k: (-k[0], -k[1])):
            yield i, j, self._c[(i, j)]

    def coeff(self, i: int, j: int) -> int:
        return self._c.get((i, j), 0)

    def s_degree(self) -> int:
        """Highest s-degree; -1 for the zero polynomial."""
        return max((i for i, _ in self._c), default=-1)

    def is_weighted_homogeneous(self, w: int) -> bool:
        """True iff every stored monomial s^i t^j satisfies i + 2j = w."""
        return all(i + 2 * j == w for i, j in self._c)

    def __len__(self) -> int:
        return len(self._c)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self._c == ({} if other == 0 else {(0, 0): other})
        if isinstance(other, BiPoly):
            return self._c == other._c
        return NotImplemented

    __hash__ = None  # mutable-dict backed; equality by value

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "BiPoly | int") -> "BiPoly":
        if isinstance(other, int):
            other = BiPoly.constant(other)
        out = dict(self._c)
        for key, value in other._c.items():
            v = out.get(key, 0) + value
            if v:
                out[key] = v
            else:
                out.pop(key, None)
        res = BiPoly()
        res._c = out
        return res

    __radd__ = __add__

    def __neg__(self) -> "BiPoly":
        res = BiPoly()
        res._c = {k: -v for k, v in self._c.items()}
        return res

    def __sub__(self, other: "BiPoly | int") -> "BiPoly":
        if isinstance(other, int):
            other = BiPoly.constant(other)
        return self + (-other)

    def __rsub__(self, other: int) -> "BiPoly":
        return BiPoly.constant(other) - self

    def __mul__(self, other: "BiPoly | int") -> "BiPoly":
        if isinstance(other, int):
            res = BiPoly()
            if other:
                res._c = {k: v * other for k, v in self._c.items()}
            return res
        out: dict[tuple[int, int], int] = {}
        for (i1, j1), c1 in self._c.items():
            for (i2, j2), c2 in other._c.items():
                key = (i1 + i2, j1 + j2)
                v = out.get(key, 0) + c1 * c2
                if v:
                    out[key] = v
                else:
                    out.pop(key, None)
        res = BiPoly()
        res._c = out
        return res

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BiPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = BiPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- evaluation and substitution ------------------------------------

    def eval(self, s0: int, t0: int) -> int:
        """Exact integer value at (s0, t0)."""
        s_pows: dict[int, int] = {0: 1}
        t_pows: dict[int, int] = {0: 1}

        def power(cache: dict[int, int], base: int, e: int) -> int:
            v = cache.get(e)
            if v is None:
                v = base**e
                cache[e] = v
            return v

        return sum(
            c * power(s_pows, s0, i) * power(t_pows, t0, j)
            for (i, j), c in self._c.items()
        )

    def subs(self, s_value: "BiPoly", t_value: "BiPoly") -> "BiPoly":
        """Substitute s -> s_value, t -> t_value and expand."""
        if not self._c:
            return BiPoly.zero()
        by_s: dict[int, dict[int, int]] = {}
        for (i, j), c in self._c.items():
            by_s.setdefault(i, {})[j] = c

        t_exps = sorted({j for row in by_s.values() for j in row})
        t_pows: dict[int, BiPoly] = {}
        cur_t = BiPoly.one()
        last = 0
        for e in t_exps:
            for _ in range(e - last):
                cur_t = cur_t * t_value
            last = e
            t_pows[e] = cur_t

        acc: dict[tuple[int, int], int] = {}
        delta_pows: dict[int, BiPoly] = {}
        cur_s = BiPoly.one()
        last = 0
        for i in sorted(by_s):
            delta = i - last
            if delta:
                dp = delta_pows.get(delta)
                if dp is None:
                    dp = s_value**delta
                    delta_pows[delta] = dp
                cur_s = cur_s * dp
            last = i
            inner = BiPoly.zero()
            for j, c in by_s[i].items():
                inner = inner + t_pows[j] * c
            if len(inner._c) == 1:
                # scaled shift of the current power, no intermediate product
                ((di, dj), dc) = next(iter(inner._c.items()))
                for (a, b), v in cur_s._c.items():
                    key = (a + di, b + dj)
                    nv = acc.get(key, 0) + v * dc
                    if nv:
                        acc[key] = nv
                    else:
                        acc.pop(key, None)
            else:
                for key, value in (cur_s * inner)._c.items():
                    v = acc.get(key, 0) + value
                    if v:
                        acc[key] = v
                    else:
                        acc.pop(key, None)
        res = BiPoly()
        res._c = acc
        return res

    # -- text ------------------------------------------------------------

    def __str__(self) -> str:
        if not self._c:
            return "0"
        parts: list[tuple[int, str]] = []
        for i, j, c in self.terms():
            mono: list[str] = []
            if i:
                mono.append("s" if i == 1 else f"s^{i}")
            if j:
                mono.append("t" if j == 1 else f"t^{j}")
            if not mono:
                body = str(abs(c))
            else:
                pieces = ([] if abs(c) == 1 else [str(abs(c))]) + mono
                body = "*".join(pieces)
            parts.append((c, body))
        return _render_terms(parts)

    def __repr__(self) -> str:
        return f"BiPoly('{self}')"


def exact_div_in_s(f: BiPoly, g: BiPoly) -> BiPoly:
    """Exact quotient f / g, viewing both as polynomials in s over Z[t].

    g must be monic in s: its unique highest-s-degree term is s^k with
    coefficient 1 and t-degree 0. Raises ValueError on a nonzero remainder.
    """
    if g.is_zero():
        raise ValueError("division by the zero polynomial")
    k = g.s_degree()
    lead = [(i, j, c) for i, j, c in g.terms() if i == k]
    if lead != [(k, 0, 1)]:
        raise ValueError("divisor is not monic in s")
    tail = [(i, j, c) for i, j, c in g.terms() if i != k]

    rem: dict[int, dict[int, int]] = {}
    for i, j, c in f.terms():
        rem.setdefault(i, {})[j] = c
    quot: dict[tuple[int, int], int] = {}
    while rem:
        d = max(rem)
        if d < k:
            raise ValueError("inexact division: nonzero remainder")
        top = rem.pop(d)
        for j, c in top.items():
            quot[(d - k, j)] = c
            for gi, gj, gc in tail:
                row = rem.setdefault(d - k + gi, {})
                nj = j + gj
                nv = row.get(nj, 0) - c * gc
                if nv:
                    row[nj] = nv
                else:
                    row.pop(nj, None)
        for key in [key for key, row in rem.items() if not row]:
            del rem[key]
    return BiPoly(quot)


class UniPoly:
    """Dense exact polynomial in one variable q over the integers."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[int, ...] = tuple(cs)

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
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return UniPoly(out)

    def exact_div(self, g: "UniPoly") -> "UniPoly":
        """Exact quotient by a monic divisor; ValueError on a nonzero remainder."""
        if g.is_zero() or g.coeffs[-1] != 1:
            raise ValueError("divisor must be monic and nonzero")
        if self.is_zero():
            return UniPoly.zero()
        dg = g.degree
        if self.degree < dg:
            raise ValueError("inexact division: nonzero remainder")
        rem = list(self.coeffs)
        q = [0] * (self.degree - dg + 1)
        for i in range(self.degree, dg - 1, -1):
            c = rem[i]
            if c:
                q[i - dg] = c
                for jj, gc in enumerate(g.coeffs):
                    rem[i - dg + jj] -= c * gc
        if any(rem):
            raise ValueError("inexact division: nonzero remainder")
        return UniPoly(q)

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
        if not self.coeffs:
            return "0"
        parts: list[tuple[int, str]] = []
        for e in range(self.degree, -1, -1):
            c = self.coeffs[e]
            if not c:
                continue
            if e == 0:
                body = str(abs(c))
            else:
                var = "q" if e == 1 else f"q^{e}"
                body = var if abs(c) == 1 else f"{abs(c)}*{var}"
            parts.append((c, body))
        return _render_terms(parts)

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
