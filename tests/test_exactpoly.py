from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucasatoms.exactpoly import (
    BiPoly,
    UniPoly,
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
@given(small_polys, small_polys, st.integers(1, 3))
def test_division_roundtrip(q, tail, k):
    # g monic in s of s-degree k, with lower-s-degree noise
    g = BiPoly.monomial(k, 0) + BiPoly(
        {(i, j): c for i, j, c in tail.terms() if i < k}
    )
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

def test_unipoly_exact_div_examples():
    q2_minus_1 = UniPoly((-1, 0, 1))
    q_minus_1 = UniPoly((-1, 1))
    assert q2_minus_1.exact_div(q_minus_1) == UniPoly((1, 1))
    den = UniPoly((-1, 1)) * UniPoly((1, 1)) * UniPoly((1, 1, 1))
    got = UniPoly.q_power_minus_one(6).exact_div(den)
    assert got == UniPoly((1, -1, 1))  # multiply-back oracle below
    assert got * den == UniPoly.q_power_minus_one(6)


def test_unipoly_exact_div_errors():
    with pytest.raises(ValueError):
        UniPoly((1, 0, 1)).exact_div(UniPoly((-1, 1)))
    with pytest.raises(ValueError):
        UniPoly((1, 0, 1)).exact_div(UniPoly((1, 2)))  # not monic


def test_unipoly_text_and_inflate():
    assert str(UniPoly((1, -1, 1))) == "q^2 - q + 1"
    assert str(UniPoly.zero()) == "0"
    assert UniPoly((1, -1, 1)).inflate(2) == UniPoly((1, 0, -1, 0, 1))


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
