from fractions import Fraction
from math import gcd
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucasatoms import LucasParams, exactpoly, holonomy
from lucasatoms.exactpoly import (
    BiPoly,
    LinearSolveResult,
    UniPoly,
    _div_lists,
    _mul_lists,
    exact_div_in_s,
    solve_rational,
)


def bp(terms):
    return BiPoly(terms)


S = BiPoly.var_s()
T = BiPoly.var_t()


# -- ring operations ---------------------------------------------------------------

def test_mul_examples():
    assert S * S == bp({(2, 0): 1})
    f = bp({(2, 0): 1, (0, 1): 1})  # s^2 + t
    assert f * BiPoly.one() == f
    g = bp({(2, 0): 1, (0, 1): 2})  # s^2 + 2t
    # schoolbook: (s^2+t)(s^2+2t) = s^4 + 3 s^2 t + 2 t^2
    assert f * g == bp({(4, 0): 1, (2, 1): 3, (0, 2): 2})


def test_add_neg_sub():
    f = bp({(1, 0): 2, (0, 1): -3})
    assert f + (-f) == BiPoly.zero()
    assert f - f == BiPoly.zero()
    assert (f + 5).coeff(0, 0) == 5


def test_eval_examples():
    assert bp({(2, 0): 1, (0, 1): 1}).eval(1, 1) == 2  # s^2+t at Fibonacci params
    assert BiPoly.zero().eval(12, -7) == 0
    assert bp({(2, 0): 1, (0, 1): 3}).eval(1, 1) == 4


def test_weighted_degree_check():
    assert bp({(2, 0): 1, (0, 1): 3}).is_weighted_homogeneous(2)
    assert not bp({(2, 0): 1, (0, 1): 3}).is_weighted_homogeneous(3)
    assert bp({(4, 0): 1, (2, 1): 4, (0, 2): 2}).is_weighted_homogeneous(4)
    assert BiPoly.zero().is_weighted_homogeneous(7)


def test_canonical_text():
    assert str(BiPoly.zero()) == "0"
    assert str(BiPoly.one()) == "1"
    assert str(bp({(4, 0): 1, (2, 1): 4, (0, 2): 2})) == "s^4 + 4*s^2*t + 2*t^2"
    assert str(bp({(1, 1): -1, (0, 0): -7})) == "-s*t - 7"


# -- exact division in s -------------------------------------------------------------

def test_exact_div_examples():
    f = bp({(3, 0): 1, (1, 1): 2})  # s^3 + 2 s t
    assert exact_div_in_s(f, S) == bp({(2, 0): 1, (0, 1): 2})
    num = bp({(4, 0): 1, (2, 1): 3, (0, 2): 2})
    den = bp({(2, 0): 1, (0, 1): 1})
    quotient = exact_div_in_s(num, den)
    assert quotient == bp({(2, 0): 1, (0, 1): 2})
    assert quotient * den == num  # multiply-back oracle


def test_exact_div_remainder_raises():
    with pytest.raises(ValueError, match="inexact"):
        exact_div_in_s(bp({(2, 0): 1, (0, 1): 1}), S)


def test_exact_div_requires_monic_in_s():
    with pytest.raises(ValueError, match="monic"):
        exact_div_in_s(S * S, bp({(1, 0): 2}))
    with pytest.raises(ValueError, match="monic"):
        exact_div_in_s(S * S, bp({(1, 1): 1}))


# -- substitution ---------------------------------------------------------------------

def test_subs_examples():
    s2_plus_2t = bp({(2, 0): 1, (0, 1): 2})
    assert S.subs(s2_plus_2t, T) == s2_plus_2t
    assert bp({(2, 0): 1, (0, 1): 1}).subs(S, BiPoly.zero()) == bp({(2, 0): 1})
    # (s^2+2t)^2 - t^2 expands to s^4 + 4 s^2 t + 3 t^2 = (s^2+t)(s^2+3t)
    got = bp({(2, 0): 1, (0, 1): 1}).subs(s2_plus_2t, bp({(0, 2): -1}))
    assert got == bp({(4, 0): 1, (2, 1): 4, (0, 2): 3})
    assert got == bp({(2, 0): 1, (0, 1): 1}) * bp({(2, 0): 1, (0, 1): 3})


# -- hypothesis property tests ---------------------------------------------------------

small_polys = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    st.integers(-9, 9),
    max_size=6,
).map(BiPoly)


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_ring_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h


@settings(max_examples=60, deadline=None)
@given(small_polys, st.lists(st.integers(-9, 9), max_size=3), st.integers(0, 2))
def test_division_roundtrip(q, tail, extra):
    # g of one weight, monic in s: s^w + sum_j tail_j s^(w-2j) t^j
    g = BiPoly.from_weight_list(2 * len(tail) + extra, [1] + tail)
    assert exact_div_in_s(q * g, g) == q


@settings(max_examples=40, deadline=None)
@given(small_polys, small_polys, small_polys, st.integers(-3, 3), st.integers(-3, 3))
def test_eval_commutes_with_subs(f, a, b, s0, t0):
    lhs = f.subs(a, b).eval(s0, t0)
    rhs = f.eval(a.eval(s0, t0), b.eval(s0, t0))
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(small_polys)
def test_identity_substitution(f):
    assert f.subs(S, T) == f


@settings(max_examples=60, deadline=None)
@given(small_polys, st.integers(0, 5))
def test_power_is_the_repeated_product(f, k):
    product = BiPoly.one()
    for _ in range(k):
        product = product * f
    assert f**k == product
    assert f**0 == BiPoly.one() and BiPoly.zero() ** 0 == BiPoly.one()
    with pytest.raises(ValueError, match="negative power"):
        f ** -1


# -- univariate polynomials -------------------------------------------------------------
# Coefficient lists, constant term first, through the list kernels; a divisor
# of _div_lists starts with 1.

def test_unipoly_exact_div_examples():
    assert _div_lists([1, 0, -1], [1, 1], 2) == [1, -1]  # 1 - q^2 = (1 + q)(1 - q)
    one_minus_q6 = [1, 0, 0, 0, 0, 0, -1]
    den = _mul_lists(_mul_lists([1, -1], [1, 1]), [1, 1, 1])
    got = _div_lists(one_minus_q6, den, 3)
    assert got == [1, -1, 1]  # multiply-back oracle below
    assert _mul_lists(got, den) == one_minus_q6


def test_unipoly_exact_div_errors():
    with pytest.raises(ValueError):
        _div_lists([1, 0, 1], [1, -1], 2)  # 1 + q^2 is no multiple of 1 - q
    with pytest.raises(ValueError):
        _div_lists([1, 0, 0, 2], [1, 1], 3)  # remainder only in the last entry
    assert _div_lists([1, 0, 0, 1], [1, 1], 3) == [1, -1, 1]


def test_unipoly_text():
    assert str(UniPoly((1, -1, 1))) == "q^2 - q + 1"
    assert str(UniPoly()) == "0"


# -- exact linear solving ----------------------------------------------------------------

def test_solve_unique():
    res = solve_rational([[1]], [2])
    assert res.status == "solution"
    assert res.solution == (Fraction(2),)
    assert res.dimension == 0


def test_solve_inconsistent_with_certificate():
    res = solve_rational([[1], [1]], [1, 2])
    assert res.status == "inconsistent"
    y = res.certificate
    assert sum(yi * a for yi, a in zip(y, [1, 1])) == 0
    assert sum(yi * b for yi, b in zip(y, [1, 2])) != 0


def test_solve_underdetermined():
    res = solve_rational([[1, 1], [2, 2]], [3, 6])
    assert res.status == "underdetermined"
    assert res.dimension == 1
    x = res.solution
    assert x[0] + x[1] == 3


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_rational([[1, 2], [1]], [1, 2])
    with pytest.raises(ValueError):
        solve_rational([[1, 2]], [1, 2])
    with pytest.raises(ValueError):
        solve_rational([], [])


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3), min_size=1, max_size=5),
    st.lists(st.integers(-5, 5), min_size=3, max_size=3),
)
def test_solve_consistent_systems_verify(rows, x):
    rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
    res = solve_rational(rows, rhs)
    assert res.status in ("solution", "underdetermined")
    sol = res.solution
    for row, b in zip(rows, rhs):
        assert sum(Fraction(a) * v for a, v in zip(row, sol)) == b


def test_solve_sets_free_variables_to_zero():
    res = solve_rational([[0, 1, 1], [1, 0, 1]], [2, 3])
    assert res.status == "underdetermined"
    assert res.solution == (Fraction(3), Fraction(2), Fraction(0))
    assert res.dimension == 1


def test_solve_certificate_stops_at_first_inconsistent_row():
    res = solve_rational([[1], [1], [1]], [1, 1, 2])
    assert res.status == "inconsistent"
    assert res.certificate == (Fraction(-1), Fraction(0), Fraction(1))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.lists(st.integers(-2, 2), min_size=2, max_size=2), st.integers(-2, 2)),
        min_size=1,
        max_size=6,
    ),
    st.data(),
)
def test_solve_certificate_ends_at_first_inconsistent_prefix(system, data):
    # repeating an earlier row with another right-hand side forces inconsistency
    row, b = data.draw(st.sampled_from(system))
    rows = [r for r, _ in system] + [row]
    rhs = [b for _, b in system] + [b + 1]
    res = solve_rational(rows, rhs)
    assert res.status == "inconsistent"
    y = res.certificate
    assert len(y) == len(rows)
    for col in range(2):
        assert sum(yi * r[col] for yi, r in zip(y, rows)) == 0
    assert sum(yi * bi for yi, bi in zip(y, rhs)) != 0
    last = max(i for i, yi in enumerate(y) if yi)
    if last:  # the prefix before the last certificate row is consistent
        prefix = solve_rational(rows[:last], rhs[:last])
        assert prefix.status in ("solution", "underdetermined")
        for r, bi in zip(rows[:last], rhs[:last]):
            assert sum(a * v for a, v in zip(r, prefix.solution)) == bi


# -- the Fraction oracle -----------------------------------------------------------------

def _solve_fraction(rows, rhs):
    """The reference for solve_rational: the same row-by-row elimination over
    Fraction, with every pivot row scaled to 1 at its pivot column."""
    m = len(rows)
    n = len(rows[0])
    # (pivot column, row scaled to 1 there, its rhs, its row combination)
    pivots = []
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


def _assert_same_result(rows, rhs):
    got, want = solve_rational(rows, rhs), _solve_fraction(rows, rhs)
    assert got == want
    # == on Fraction ignores the type of an int entry; the output must be Fraction
    for field in (got.solution, got.certificate):
        assert field is None or all(type(v) is Fraction for v in field)
    return got.status


_entries = st.one_of(
    st.integers(-4, 4),
    st.integers(-10**30, 10**30),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
)


@st.composite
def _systems(draw):
    """Small systems with repeated, scaled and zero rows, so all three statuses occur."""
    n = draw(st.integers(1, 4))
    base = draw(st.lists(st.lists(_entries, min_size=n, max_size=n), min_size=1, max_size=4))
    rows, rhs = [], []
    for _ in range(draw(st.integers(1, 7))):
        kind = draw(st.sampled_from(("fresh", "repeat", "zero")))
        if kind == "fresh":
            row = draw(st.lists(_entries, min_size=n, max_size=n))
        elif kind == "repeat":
            k = draw(st.sampled_from((1, -2, Fraction(3, 7))))
            row = [k * v for v in draw(st.sampled_from(base))]
        else:
            row = [0] * n
        rows.append(row)
        rhs.append(draw(st.one_of(st.just(0), _entries)))
    return rows, rhs


@settings(max_examples=200, deadline=None)
@given(_systems())
def test_solve_matches_fraction_oracle(system):
    _assert_same_result(*system)


def test_oracle_comparison_covers_every_status():
    assert _assert_same_result([[2, 4], [1, 3]], [6, Fraction(1, 2)]) == "solution"
    assert _assert_same_result([[0, 0], [Fraction(2, 3), 2]], [0, 1]) == "underdetermined"
    assert _assert_same_result(
        [[Fraction(1, 2), 1], [0, 0], [1, 2]], [1, 0, Fraction(5, 3)]
    ) == "inconsistent"
    assert _assert_same_result([[0, 0]], [7]) == "inconsistent"


_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=20)


@st.composite
def _fraction_systems(draw):
    """Systems of Fraction entries, so each row has its own scale; half end in
    a combination of the rows with a shifted rhs, which makes them inconsistent."""
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(_fractions, min_size=n, max_size=n), min_size=1, max_size=5))
    rhs = draw(st.lists(_fractions, min_size=len(rows), max_size=len(rows)))
    if draw(st.booleans()):
        ks = draw(st.lists(_fractions, min_size=len(rows), max_size=len(rows)))
        rows.append([sum(k * row[j] for k, row in zip(ks, rows)) for j in range(n)])
        rhs.append(sum(k * b for k, b in zip(ks, rhs)) + draw(_fractions.filter(bool)))
    return rows, rhs


@settings(max_examples=100, deadline=None)
@given(_fraction_systems())
def test_solve_with_fraction_entries_matches_fraction_oracle(system):
    _assert_same_result(*system)


def test_certificate_unwinding_rescales_where_g_does_not_divide_c(monkeypatch):
    # Row 1 reduces against row 0 to 2*[0, 1 | 0], row 2 to [0, 0 | 0] (dropped)
    # and row 3 against row 1 to 2*[0, 0 | 1]; each content g = 2 is divided out.
    # Undoing those steps meets g = 2 with coefficient c = 1 twice, once on the
    # witness row and once on pivot row 1, so the relation is scaled twice.
    rows, rhs = [[-1, 1], [1, -3], [0, 1], [0, -1]], [0, 0, 0, 2]
    rescales = []  # (c mod g, g) at each scaling: the unwinding calls gcd nowhere else
    unwind = exactpoly._unwind

    def spy(*args):
        rescales.append(args)
        return gcd(*args)

    def unwind_with_spy(entries):
        monkeypatch.setattr(exactpoly, "gcd", spy)
        try:
            return unwind(entries)
        finally:
            monkeypatch.setattr(exactpoly, "gcd", gcd)

    monkeypatch.setattr(exactpoly, "_unwind", unwind_with_spy)
    result = exactpoly._eliminate(zip(rows, rhs), 2)
    assert rescales == [(1, 2), (1, 2)]
    assert result == _solve_fraction(rows, rhs)
    assert result.certificate == (Fraction(-1, 2), Fraction(-1, 2), 0, 1)
    assert _assert_same_result(rows, rhs) == "inconsistent"


@settings(max_examples=100, deadline=None)
@given(_systems())
def test_fraction_unwinding_matches_fraction_oracle(system):
    with patch.object(exactpoly, "_FRACTION_UNWIND_PIVOTS", 0):
        _assert_same_result(*system)


@pytest.mark.parametrize("k", [2, 4, 6])
def test_fraction_and_integer_unwinding_give_one_certificate(monkeypatch, k):
    # the fitter's system at order = degree = k has (k + 1)^2 pivots: 9, 25 and 49
    fits = []
    for pivots in (0, 10**6):  # every coefficient a Fraction, then none
        monkeypatch.setattr(exactpoly, "_FRACTION_UNWIND_PIVOTS", pivots)
        n_end = k + 1 + 2 * (k + 1) ** 2 + 20
        fits.append(holonomy.fit_recurrence(LucasParams(1, 1), k, k, k + 1, n_end))
    assert fits[0].status == "refuted"
    assert fits[0] == fits[1]


@pytest.mark.parametrize("s, t", [(1, 5), (1, 6), (2, 2), (2, 3), (2, 4), (3, 1)])
def test_solve_matches_fraction_oracle_on_fit_systems(monkeypatch, s, t):
    # the rows the fitter's elimination draws, and what it returns on them
    systems = []

    def spy(system, n):
        drawn = []
        result = eliminate((drawn.append(pair) or pair for pair in system), n)
        systems.append(([row for row, _ in drawn], [b for _, b in drawn], result))
        return result

    eliminate = holonomy._eliminate
    monkeypatch.setattr(holonomy, "_eliminate", spy)
    for order in range(1, 5):
        for degree in range(4):
            n_end = 10 + 3 * (order + 1) * (degree + 1)  # the CLI's default window
            holonomy.fit_recurrence(LucasParams(s, t), order, degree, 10, n_end)
    assert len(systems) == 16
    for rows, rhs, result in systems:
        _assert_same_result(rows, rhs)
        assert result == _solve_fraction(rows, rhs)
