"""The graded BiPoly core against the sparse reference routines."""

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucasatoms import atom_symmetric
from lucasatoms.exactpoly import (
    _KRONECKER_CUTOFF,
    BiPoly,
    UniPoly,
    _mul_lists,
    exact_div_in_s,
)
from sparse_reference import (
    as_dict,
    sparse_exact_div_in_s,
    sparse_mul,
    sparse_subs,
)

S = BiPoly.var_s()
T = BiPoly.var_t()

# several weights, signed coefficients
signed_polys = st.dictionaries(
    st.tuples(st.integers(0, 6), st.integers(0, 4)),
    st.integers(-10**6, 10**6),
    max_size=8,
).map(BiPoly)


def weight_lists(min_size, max_size, bits):
    return st.lists(
        st.integers(-(2**bits), 2**bits), min_size=min_size, max_size=max_size
    ).filter(lambda cs: cs and cs[-1] != 0)


# -- products ------------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(signed_polys, signed_polys)
def test_mul_matches_sparse_product(f, g):
    assert as_dict(f * g) == sparse_mul(as_dict(f), as_dict(g))


@settings(max_examples=25, deadline=None)
@given(
    weight_lists(_KRONECKER_CUTOFF, 3 * _KRONECKER_CUTOFF, 200),
    weight_lists(_KRONECKER_CUTOFF, 2 * _KRONECKER_CUTOFF, 200),
    st.integers(0, 5),
    st.integers(0, 5),
)
def test_long_weight_lists_cross_the_kronecker_cutoff(a, b, wa, wb):
    f = BiPoly.from_weight_list(2 * len(a) + wa, a)
    g = BiPoly.from_weight_list(2 * len(b) + wb, b)
    assert as_dict(f * g) == sparse_mul(as_dict(f), as_dict(g))
    assert as_dict(f * f) == sparse_mul(as_dict(f), as_dict(f))


def test_kronecker_slots_wider_than_the_digit_limit():
    # 15000-bit coefficients need slots of more than 4300 decimal digits
    a = [(-1) ** j * (3**9000 + j) for j in range(_KRONECKER_CUTOFF)]
    b = [7**5000 * (j + 1) for j in range(_KRONECKER_CUTOFF + 3)]
    f, g = BiPoly.from_weight_list(200, a), BiPoly.from_weight_list(150, b)
    assert as_dict(f * g) == sparse_mul(as_dict(f), as_dict(g))


def test_products_of_monomials_and_leading_zeros():
    t5 = BiPoly.monomial(0, 5, -3)
    f = BiPoly.from_weight_list(10, [0, 0, 4, 0, 1])
    assert as_dict(t5 * f) == sparse_mul(as_dict(t5), as_dict(f))
    assert as_dict(f * f) == sparse_mul(as_dict(f), as_dict(f))
    assert f * 0 == BiPoly.zero() and (f - f).is_zero()


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(-50, 50), min_size=1, max_size=60),
    st.lists(st.integers(-50, 50), min_size=1, max_size=60),
)
def test_unipoly_product_and_division_match_schoolbook(a, b):
    f, g = UniPoly(a), UniPoly(b)
    naive = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            naive[i + j] += x * y
    assert f * g == UniPoly(naive)
    monic = UniPoly(list(g.coeffs) + [1]) if g.coeffs else UniPoly.one()
    assert (f * monic).exact_div(monic) == f


def test_unipoly_division_keeps_low_zero_coefficients():
    q_squared = UniPoly((0, 0, 1))
    divisor = UniPoly((1, 1))
    assert (q_squared * divisor).exact_div(divisor) == q_squared


# -- exact division --------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(signed_polys, weight_lists(1, 6, 20), st.integers(0, 4))
def test_division_by_one_weight_matches_sparse(q, tail, extra):
    g = BiPoly.from_weight_list(2 * len(tail) + extra, [1] + tail)
    f = q * g
    assert exact_div_in_s(f, g) == q
    assert as_dict(exact_div_in_s(f, g)) == sparse_exact_div_in_s(as_dict(f), as_dict(g))


@settings(max_examples=60, deadline=None)
@given(signed_polys, signed_polys, st.integers(1, 4))
def test_division_by_several_weights_matches_sparse(q, noise, k):
    g = BiPoly.monomial(k, 0) + BiPoly({(i, j): c for i, j, c in noise.terms() if i < k})
    f = q * g
    assert as_dict(exact_div_in_s(f, g)) == sparse_exact_div_in_s(as_dict(f), as_dict(g))
    assert exact_div_in_s(f, g) == q


def test_division_remainder_only_in_the_last_entry():
    g = atom_symmetric(9)  # weight 6, [1, 6, 9, 3]
    q = atom_symmetric(7)  # weight 6, [1, 5, 6, 1]
    f = q * g
    ((w, cs),) = f._c.items()
    bumped = BiPoly.from_weight_list(w, cs[:-1] + [cs[-1] + 1])
    with pytest.raises(ValueError, match="inexact"):
        sparse_exact_div_in_s(as_dict(bumped), as_dict(g))
    with pytest.raises(ValueError, match="inexact"):
        exact_div_in_s(bumped, g)


def test_division_component_below_the_divisor_weight():
    g = S * S + T  # weight 2
    divisible = (S**3 + 5 * S * T) * g  # weight 5
    with pytest.raises(ValueError, match="inexact"):
        exact_div_in_s(divisible + S, g)  # weight 1 < 2
    with pytest.raises(ValueError, match="inexact"):
        exact_div_in_s(S, g)
    with pytest.raises(ValueError, match="inexact"):
        exact_div_in_s(BiPoly.constant(7), g)
    assert exact_div_in_s(divisible, g) == S**3 + 5 * S * T


def test_division_rejects_divisors_not_monic_in_s():
    for g in (
        BiPoly({(1, 0): 2}),
        BiPoly({(1, 1): 1}),
        BiPoly.from_weight_list(4, [0, 1, 1]),  # s^2 t + t^2: leading term s^2 t
        BiPoly({(2, 0): 1, (2, 1): 1}),  # two terms at the top s-degree
        BiPoly({(2, 0): -1, (0, 0): 1}),
    ):
        with pytest.raises(ValueError, match="monic"):
            exact_div_in_s(S * S, g)
    with pytest.raises(ValueError, match="zero"):
        exact_div_in_s(S, BiPoly.zero())


def test_division_of_zero_is_zero():
    assert exact_div_in_s(BiPoly.zero(), S * S + T).is_zero()


# -- substitution ------------------------------------------------------------------------

small_signed = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 3)),
    st.integers(-9, 9),
    max_size=5,
).map(BiPoly)


@settings(max_examples=60, deadline=None)
@given(small_signed, small_signed, small_signed)
def test_subs_matches_sparse(f, a, b):
    assert as_dict(f.subs(a, b)) == sparse_subs(as_dict(f), as_dict(a), as_dict(b))


@pytest.mark.parametrize("n", [15, 21, 35])
def test_subs_of_atoms_matches_sparse(n):
    f = atom_symmetric(n)
    for s_val, t_val in (
        (BiPoly({(2, 0): 1, (0, 1): 2}), BiPoly({(0, 2): -1})),
        (S * atom_symmetric(6), BiPoly.monomial(0, 3)),
        (S, BiPoly.zero()),
    ):
        got = f.subs(s_val, t_val)
        assert as_dict(got) == sparse_subs(as_dict(f), as_dict(s_val), as_dict(t_val))


# -- concurrency -----------------------------------------------------------------------

def test_kronecker_products_under_concurrent_calls():
    n = 3 * _KRONECKER_CUTOFF
    cases = [
        (
            [(-1) ** (j * k) * (k + 1) * 11**j for j in range(n)],
            [(j + k) ** 9 - 5**j for j in range(n - k)],
        )
        for k in range(8)
    ]
    expected = [
        sparse_mul(
            as_dict(BiPoly.from_weight_list(2 * n, a)),
            as_dict(BiPoly.from_weight_list(2 * n, b)),
        )
        for a, b in cases
    ]
    results: list = [None] * len(cases)
    start = threading.Barrier(len(cases), timeout=60)

    def work(k):
        a, b = cases[k]
        start.wait()
        results[k] = [_mul_lists(a, b) for _ in range(5)]

    threads = [threading.Thread(target=work, args=(k,)) for k in range(len(cases))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for k, want in enumerate(expected):
        for got in results[k]:
            assert as_dict(BiPoly.from_weight_list(4 * n, got)) == want
