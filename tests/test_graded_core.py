"""The graded BiPoly core against the sparse reference routines."""

import copy
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucasatoms import (
    atom_division,
    atom_reduction,
    atom_symmetric,
    companion_poly,
    cyclotomic,
    divisors,
    lucas_poly,
)
from lucasatoms.exactpoly import (
    _KRONECKER_CUTOFF,
    BiPoly,
    UniPoly,
    _div_lists,
    _mul_lists,
    _schoolbook,
    exact_div_in_s,
)
from sparse_reference import (
    as_dict,
    sparse_exact_div_in_s,
    sparse_mul,
    sparse_subs,
)
from text_reference import bipoly_text, unipoly_text

S = BiPoly.var_s()
T = BiPoly.var_t()

# several weights, signed coefficients
signed_polys = st.dictionaries(
    st.tuples(st.integers(0, 6), st.integers(0, 4)),
    st.integers(-10**6, 10**6),
    max_size=8,
).map(BiPoly)


def naive_product(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


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
    st.lists(st.integers(-50, 50), min_size=1, max_size=60).filter(lambda cs: cs[-1]),
    st.lists(st.integers(-50, 50), max_size=60),
)
def test_unipoly_product_and_division_match_schoolbook(a, b):
    # the list kernels on univariate coefficient lists, constant term first
    g = [1] + b  # a divisor of _div_lists starts with 1
    naive = naive_product(a, g)
    assert _mul_lists(a, g) == naive
    assert _div_lists(naive, g, len(a)) == a


def test_unipoly_division_keeps_low_zero_coefficients():
    q_squared = [0, 0, 1]
    divisor = [1, 1]
    assert _div_lists(_mul_lists(q_squared, divisor), divisor, 3) == q_squared


# -- the list kernels at their hot shapes ------------------------------------------------
# The commonest divisors in the atom routes have 2 or 3 entries; zero entries
# take the kernels' skips.

sparse_entries = st.one_of(st.just(0), st.integers(-40, 40))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(sparse_entries, min_size=1, max_size=30),
    st.lists(sparse_entries, min_size=1, max_size=2).filter(lambda tail: tail[-1]),
    st.integers(0, 3),
)
def test_short_divisors_match_the_naive_product(q, tail, pad):
    # zero quotient entries, a zero interior entry in [1, 0, y], and a
    # quotient length past the end of f, whose entries are then padding
    g = [1] + tail
    f = naive_product(q, g)
    while f and not f[-1]:
        f.pop()
    assert _div_lists(f, g, len(q) + pad) == q + [0] * pad
    bumped = naive_product(q, g)
    bumped[-1] += 1  # the remainder is the last entry and nothing else
    with pytest.raises(ValueError, match="inexact"):
        _div_lists(bumped, g, len(q))


def test_short_divisor_remainder_in_the_last_entry_only():
    g = [1, -3]
    f = naive_product([2, 0, 0, 5, 0, -1], g)
    assert _div_lists(f, g, 6) == [2, 0, 0, 5, 0, -1]
    f[-1] -= 1
    with pytest.raises(ValueError, match="inexact"):
        _div_lists(f, g, 6)
    with pytest.raises(ValueError, match="inexact"):
        _div_lists([1, 0, 0, 0, 1], [1, 0, 1], 3)  # 1 + q^4 = (1 + q^2)^2 - 2q^2


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(-(10**9), 10**9), min_size=1, max_size=50),
    st.lists(sparse_entries, min_size=1, max_size=12),
)
def test_schoolbook_skips_zero_entries_of_the_shorter_list(a, b):
    assert _schoolbook(a, b) == naive_product(a, b)
    assert _schoolbook(a, [0, *b, 0, 0]) == naive_product(a, [0, *b, 0, 0])


# -- no kernel writes to its inputs ------------------------------------------------------
# The kernels update a fresh list in place, while BiPoly stores share their
# lists: _from_store keeps the caller's, and the family and atom builders are
# cached, so a write into an input would corrupt every later result.

def test_list_kernels_leave_their_inputs_unchanged():
    cases = [
        ([3, 0, -2, 7], [1, 5]),
        ([0, 0, 4, 0, 1], [0, 2, -1]),  # leading zeros on both sides
        (list(range(1, 2 * _KRONECKER_CUTOFF)), list(range(-_KRONECKER_CUTOFF, 0))),
    ]
    for a, b in cases:
        before = copy.deepcopy((a, b))
        _mul_lists(a, b)
        _mul_lists(a, a)  # squaring
        _schoolbook(a, b)
        assert (a, b) == before
    for f, g, length in (
        ([1, 0, -1], [1, 1], 2),
        (naive_product([2, 0, 5], [1, 0, -4]), [1, 0, -4], 6),
        (naive_product(list(range(60)), list(range(1, 50))), list(range(1, 50)), 60),
    ):
        before = copy.deepcopy((f, g))
        _div_lists(f, g, length)
        assert (f, g) == before


def test_polynomial_operations_leave_their_operands_unchanged():
    f = atom_symmetric(45) * (S + T) + 3  # several weights
    g = atom_symmetric(15)
    h = f * g
    operands = (f, g, h, lucas_poly(9), companion_poly(3))
    stores = [copy.deepcopy(x._c) for x in operands]
    exact_div_in_s(h, g)
    f * g
    f * f
    g * 7
    f + f
    g - g
    f**5
    g**3
    f.subs(companion_poly(3), T * T)
    h.subs(S + T, lucas_poly(9))
    assert [x._c for x in operands] == stores


def _route_reads(n):
    # the cached polynomials the routes read at n: U_p is the reduction
    # route's base at a prime p and the division route's dividend at an odd
    # prime p; every other dividend is a fresh row sum
    return [f(d) for d in divisors(n) for f in (lucas_poly, atom_division, atom_reduction)]


def test_atom_routes_leave_the_cached_polynomials_unchanged():
    # the bodies of the cached routes, run again over their cached sub-results;
    # 240 takes a radical lift, 420 and 315 a once-prime lift and a division,
    # and 315 divides the row sum U_315/U_105
    for n in (240, 420, 315):
        cached = _route_reads(n)
        stores = [copy.deepcopy(x._c) for x in cached]
        division = atom_division.__wrapped__(n)
        reduction = atom_reduction.__wrapped__(n)
        assert [x._c for x in cached] == stores, n
        assert division == reduction == atom_symmetric(n)
        again = _route_reads(n)
        assert all(x is y for x, y in zip(again, cached)), n


# -- exact division --------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(signed_polys, weight_lists(1, 6, 20), st.integers(0, 4))
def test_division_by_one_weight_matches_sparse(q, tail, extra):
    g = BiPoly.from_weight_list(2 * len(tail) + extra, [1] + tail)
    f = q * g
    assert exact_div_in_s(f, g) == q
    assert as_dict(exact_div_in_s(f, g)) == sparse_exact_div_in_s(as_dict(f), as_dict(g))


def test_division_rejects_divisors_of_several_weights():
    # monic in s, but not one weight list: no divisor the library uses
    for g in (S + 1, S * S + S, S**3 + T + 5):
        with pytest.raises(ValueError, match="one weight"):
            exact_div_in_s(g * (S + T), g)


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


# -- canonical text ----------------------------------------------------------------

text_coeffs = st.one_of(st.sampled_from([1, -1]), st.integers(-(10**30), 10**30))


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 4)), text_coeffs, max_size=8))
def test_bipoly_text_matches_reference(terms):
    # mixed weights, constants at (0, 0), unit and 30-digit coefficients
    f = BiPoly(terms)
    assert str(f) == bipoly_text(f)
    assert str(-f) == bipoly_text(-f)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.just(0), text_coeffs), max_size=12))
def test_unipoly_text_matches_reference(cs):
    f, g = UniPoly(cs), UniPoly([-c for c in cs])  # one of them has a negative top
    assert str(f) == unipoly_text(f)
    assert str(g) == unipoly_text(g)


def test_family_text_matches_reference():
    for n in range(201):
        for f in (lucas_poly(n), companion_poly(n)):
            assert str(f) == bipoly_text(f), n
    for n in range(1, 201):
        f, phi = atom_symmetric(n), cyclotomic(n)
        assert str(f) == bipoly_text(f) and str(phi) == unipoly_text(phi), n
