import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from division_reference import u_division_atom

from lucasatoms.atoms import (
    _atom_weight_list,
    _lift,
    _unpack_balanced,
    _weight_list_by_rows,
    atom,
    atom_division,
    atom_eval,
    atom_reduction,
    atom_symmetric,
    decompose_ratio,
    lucanomial,
    prime_search,
)
from lucasatoms.errors import InternalConsistencyError
from lucasatoms.exactpoly import BiPoly, exact_div_in_s
from lucasatoms.lucasfam import LucasParams, companion_poly, cyclotomic, lucas_poly
from lucasatoms.numtheory import divisors, euler_phi, is_prime, radical


def bp(terms):
    return BiPoly(terms)


FIXTURES = {
    1: BiPoly.one(),
    2: BiPoly.var_s(),
    3: bp({(2, 0): 1, (0, 1): 1}),
    4: bp({(2, 0): 1, (0, 1): 2}),
    6: bp({(2, 0): 1, (0, 1): 3}),
    8: bp({(4, 0): 1, (2, 1): 4, (0, 2): 2}),
}


@pytest.mark.parametrize("route", ["symmetric", "division", "reduction", "checked"])
def test_atom_fixtures_all_routes(route):
    for n, expected in FIXTURES.items():
        assert atom(n, route) == expected


def test_atom_rejects_bad_input():
    with pytest.raises(ValueError):
        atom(0)
    with pytest.raises(ValueError):
        atom(6, "fancy")


def test_atom_division_examples():
    assert atom_division(1) == BiPoly.one()
    assert atom_division(5) == lucas_poly(5)  # U_5 = P_5 times the unit P_1
    p12 = atom_division(12)
    assert p12 == bp({(4, 0): 1, (2, 1): 4, (0, 2): 1})
    # multiply-back oracle: product of the atoms of all divisors of 12
    prod = BiPoly.one()
    for d in divisors(12):
        prod = prod * atom_division(d)
    assert prod == lucas_poly(12)


def test_division_route_matches_the_u_n_oracle():
    for n in [*range(1, 301), 1209, 1221, 2310]:
        assert atom_division(n) == u_division_atom(n), n
    # sizes where the U_n/U_{n/p} dividend keeps the division route cheap
    for n in (4096, 6000):
        assert atom_division(n) == atom_symmetric(n), n
    for n in (3003, 5005):
        assert atom_division(n) == atom_reduction(n), n


@pytest.mark.parametrize("n, used", [(1221, [3, 33, 111]), (225, [9, 45])])
def test_division_divides_only_by_the_atoms_off_n_over_p(monkeypatch, n, used):
    # 1221 = 3 * 11 * 37 and 225 = 3^2 * 5^2 start from U_n/U_{n/3}: the
    # divisors d with v_3(d) = v_3(n), other than n itself
    import lucasatoms.atoms as atoms_module

    index = {id(atom_division(d)): d for d in divisors(n)[:-1]}
    calls = []
    monkeypatch.setattr(
        atoms_module,
        "exact_div_in_s",
        lambda f, g: calls.append(index[id(g)]) or exact_div_in_s(f, g),
    )
    assert atom_division.__wrapped__(n) == u_division_atom(n)
    assert calls == used


def test_even_division_reads_no_lucas_row(monkeypatch):
    # an even index divides W_{n/2} by the atoms of even divisors only, so no
    # U row is read at any depth of the recursion
    import lucasatoms.atoms as atoms_module

    def no_lucas_row(n):
        raise AssertionError(f"U_{n} read")

    expected = {n: u_division_atom(n) for n in range(2, 401, 2)}
    monkeypatch.setattr(atoms_module, "lucas_poly", no_lucas_row)
    try:
        for n, poly in expected.items():
            atoms_module.atom_division.cache_clear()
            assert atoms_module.atom_division(n) == poly, n
    finally:
        atoms_module.atom_division.cache_clear()


def test_power_of_two_division_is_the_companion_row(monkeypatch):
    import lucasatoms.atoms as atoms_module

    def no_division(f, g):
        raise AssertionError("a division at a power of two")

    monkeypatch.setattr(atoms_module, "exact_div_in_s", no_division)
    atoms_module.atom_division.cache_clear()
    try:
        for k in range(1, 13):
            assert atoms_module.atom_division(2**k) == companion_poly(2 ** (k - 1)), k
    finally:
        atoms_module.atom_division.cache_clear()


def test_odd_prime_power_division_is_one_row_sum(monkeypatch):
    # P_{p^k} = U_{p^k}/U_{p^(k-1)}, the closed form itself
    import lucasatoms.atoms as atoms_module

    def no_division(f, g):
        raise AssertionError("a division at a prime power")

    cases = [p**k for p, top in ((3, 6), (5, 4), (7, 3)) for k in range(1, top + 1)]
    expected = {n: atom_symmetric(n) for n in cases}
    monkeypatch.setattr(atoms_module, "exact_div_in_s", no_division)
    try:
        for n, poly in expected.items():
            atoms_module.atom_division.cache_clear()
            assert atoms_module.atom_division(n) == poly, n
    finally:
        atoms_module.atom_division.cache_clear()


def test_only_odd_primes_read_a_lucas_row(monkeypatch):
    # every other index, at any depth of the recursion, starts from a row sum
    import lucasatoms.atoms as atoms_module

    def odd_prime_row(n):
        assert n % 2 and is_prime(n), f"U_{n} read"
        return lucas_poly(n)

    composites = [n for n in range(4, 401) if not is_prime(n)]
    expected = {n: u_division_atom(n) for n in composites}
    monkeypatch.setattr(atoms_module, "lucas_poly", odd_prime_row)
    try:
        for n, poly in expected.items():
            atoms_module.atom_division.cache_clear()
            assert atoms_module.atom_division(n) == poly, n
    finally:
        atoms_module.atom_division.cache_clear()


# W_10 / P_4, and U_15/U_5 divided by P_3
@pytest.mark.parametrize("n, d", [(20, 4), (15, 3)])
def test_division_route_rejects_a_wrong_divisor_atom(monkeypatch, n, d):
    import lucasatoms.atoms as atoms_module

    cached = atoms_module.atom_division
    wrong = bp({(2, 0): 1, (0, 1): 5})  # monic of weight 2, and neither P_3 nor P_4
    monkeypatch.setattr(
        atoms_module, "atom_division", lambda k: wrong if k == d else cached(k)
    )
    with pytest.raises(InternalConsistencyError, match=f"extracting the atom at {n}"):
        cached.__wrapped__(n)


def test_atom_reduction_examples():
    assert atom_reduction(6) == FIXTURES[6]  # 2p lifts P_2 = s to W_3 / s
    assert atom_reduction(9) == atom_division(9)
    assert atom_reduction(12) == atom_division(12)
    assert atom_reduction(7) is lucas_poly(7)  # a prime index is its base case


LARGE_LIFTS = (1024, 2187, 2956, 3072, 4620)


def test_route_agreement_to_120():
    # plus sparse cyclotomic indices 343 * n', where few W rows are needed
    # and squarefree indices whose packed symmetric sums are large
    for n in [*range(1, 121), 343, 686, 1029, 1715, 2401, 1159, 1221, 2310]:
        sym = atom_symmetric(n)
        assert sym == atom_division(n), n
        assert atom_reduction(n) == sym, n
    # radical and once-prime lifts at sizes where the division route is slow
    for n in LARGE_LIFTS:
        assert atom_reduction(n) == atom_symmetric(n), n


def test_packed_weight_list_matches_the_row_loop():
    for n in [*range(2, 601), 1159, 1209, 1221]:
        if n == radical(n):
            m, packed = _atom_weight_list(n)
            assert packed == _weight_list_by_rows(m, cyclotomic(n).coeffs), n


def test_spread_index_keeps_the_row_loop(monkeypatch):
    import lucasatoms.atoms as atoms_module

    def refuse(*args):
        raise AssertionError("a spread index was packed")

    monkeypatch.setattr(atoms_module, "_unpack_balanced", refuse)
    for n in (4, 12, 343, 3773):
        m, rows = _atom_weight_list(n)
        assert rows == _weight_list_by_rows(m, cyclotomic(n).coeffs), n


def _pack(digits, width):
    return sum(d << (width * j) for j, d in enumerate(digits))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 16).map(lambda b: 8 * b), st.integers(1, 40), st.data())
def test_balanced_digits_round_trip(width, count, data):
    half = 1 << (width - 1)
    digits = data.draw(st.lists(st.integers(1 - half, half - 1), min_size=count, max_size=count))
    assert _unpack_balanced(_pack(digits, width), width, count) == digits


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 16).map(lambda b: 8 * b), st.integers(1, 40), st.data())
def test_balanced_digits_reject_a_value_past_the_slots(width, count, data):
    half = 1 << (width - 1)
    digits = data.draw(st.lists(st.integers(1 - half, half - 1), min_size=count, max_size=count))
    for top in (half, -half - 1, 5 * half):
        with pytest.raises(InternalConsistencyError):
            _unpack_balanced(_pack(digits[:-1] + [top], width), width, count)


def test_reduction_route_never_calls_the_division_route(monkeypatch):
    import lucasatoms.atoms as atoms_module

    def no_division(n):
        raise AssertionError(f"division route called at {n}")

    monkeypatch.setattr(atoms_module, "atom_division", no_division)
    atoms_module.atom_reduction.cache_clear()
    try:
        for n in [*range(1, 201), 343, 686, 1029, 1715, 2401, *LARGE_LIFTS]:
            assert atoms_module.atom_reduction(n) == atom_symmetric(n), n
    finally:
        atoms_module.atom_reduction.cache_clear()


def test_lift_is_the_substitution():
    for b in range(2, 41):
        base = atom_symmetric(b)
        for f in (2, 3, 4, 5, 6, 8, 9, 12, 13, 31):
            t_value = BiPoly.monomial(0, f, 1 if f % 2 else -1)  # -(-t)^f
            assert _lift(base, f) == base.subs(companion_poly(f), t_value), (b, f)


@pytest.mark.parametrize(
    "n, base, f",
    [
        (244, 4, 61),  # once-prime: phi(4) = 2 against phi(122) = 60
        (243, 3, 81),  # a prime power has only its radical
        (96, 6, 16),
        (4620, 420, 11),
        (3072, 6, 512),
        (12, 6, 2),  # tie, phi(6) = phi(4): the radical, with no division
        (40, 10, 4),  # tie, phi(10) = phi(8)
        (30, 6, 5),  # squarefree: the largest prime
    ],
)
def test_reduction_lifts_once_from_the_smaller_base(monkeypatch, n, base, f):
    import lucasatoms.atoms as atoms_module

    calls = []
    monkeypatch.setattr(
        atoms_module, "_lift", lambda poly, g: calls.append((poly, g)) or _lift(poly, g)
    )
    atoms_module.atom_reduction.cache_clear()
    try:
        assert atoms_module.atom_reduction(n) == atom_symmetric(n)
        assert calls[-1] == (atom_symmetric(base), f)
    finally:
        atoms_module.atom_reduction.cache_clear()


def test_lift_pair_is_the_companion_polynomial():
    # W_p = U_2p / U_p = P_2 * P_2p for odd p; W_2 = s^2 + 2t. The division
    # route builds P_2p from W_p itself, so P_2p comes from the symmetric route
    # and the U_n oracle here
    assert companion_poly(2) == bp({(2, 0): 1, (0, 1): 2})
    s = BiPoly.var_s()
    for p in range(3, 200, 2):
        if is_prime(p):
            assert companion_poly(p) == s * atom_symmetric(2 * p), p
            assert companion_poly(p) == s * u_division_atom(2 * p), p


def test_checked_route_detects_disagreement(monkeypatch):
    import lucasatoms.atoms as atoms_module

    monkeypatch.setattr(atoms_module, "atom_division", lambda n: BiPoly.constant(99))
    atoms_module._atom_checked.cache_clear()
    try:
        with pytest.raises(InternalConsistencyError):
            atoms_module.atom(10, "checked")
    finally:
        atoms_module._atom_checked.cache_clear()


@pytest.mark.parametrize("n", [7, 14])  # a prime index and n = 2p
def test_checked_route_compares_the_reduction_route_everywhere(monkeypatch, n):
    import lucasatoms.atoms as atoms_module

    monkeypatch.setattr(atoms_module, "atom_reduction", lambda n: BiPoly.constant(99))
    atoms_module._atom_checked.cache_clear()
    try:
        with pytest.raises(InternalConsistencyError, match="reduction route"):
            atoms_module.atom(n, "checked")
    finally:
        atoms_module._atom_checked.cache_clear()


def test_factorization_identity_to_100():
    for n in range(1, 101):
        prod = BiPoly.one()
        for d in divisors(n):
            prod = prod * atom(d)
        assert prod == lucas_poly(n), n


def test_structural_properties_to_200():
    for n in range(2, 201):
        poly = atom(n)
        phi = euler_phi(n)
        assert poly.is_weighted_homogeneous(phi), n
        assert poly.coeff(phi, 0) == 1, n
        assert all(c >= 0 for _, _, c in poly.terms()), n


def test_t_zero_degeneration():
    s_var, zero = BiPoly.var_s(), BiPoly.zero()
    for n in range(2, 101):
        assert atom(n).subs(s_var, zero) == BiPoly.monomial(euler_phi(n), 0)


def test_reduction_identity_small():
    # index-lift identity, cleared of division: P_n(S_p, T_p) = P_{pn} * P_n
    for p in (2, 3, 5):
        if p == 2:
            s_val, t_val = bp({(2, 0): 1, (0, 1): 2}), bp({(0, 2): -1})
        else:
            s_val, t_val = BiPoly.var_s() * atom(2 * p), BiPoly.monomial(0, p)
        for n in range(2, 13):
            if n % p == 0:
                continue
            assert atom(n).subs(s_val, t_val) == atom(p * n) * atom(n), (p, n)


def test_atom_eval_examples():
    assert atom_eval(6, LucasParams(1, 1)) == 4
    assert atom_eval(3, LucasParams(1, -1)) == 0
    assert atom_eval(8, LucasParams(2, 2)) == 56
    assert atom_eval(1, LucasParams(5, 5)) == 1


def test_atom_eval_matches_polynomial():
    points = (
        (1, 1), (2, -3), (-1, 4), (-5, -7),
        (10**6, -999_983), (-10**6, 10**6), (7, -10**6),
        (0, 2),  # s = 0
        (3, 0),  # t = 0
        (1000, -10**6),  # s^2 + t = 0
        (4, -8),  # s^2 + 2t = 0
        (-3, -3),  # s^2 + 3t = 0
    )
    for n in range(1, 121):  # n = 2 is the one index with odd phi(n)
        poly = atom(n)
        for s, t in points:
            assert atom_eval(n, LucasParams(s, t)) == poly.eval(s, t), (n, s, t)


def atom_eval_every_k(n, params):
    """P_n(s, t) by the symmetric sum with every W_k streamed,
    W_k = s W_{k-1} + t W_{k-2}, and a Horner step in -t at each k of m's parity."""
    if n == 1:
        return 1
    m = euler_phi(n)
    c = cyclotomic(n).coeffs
    s, t = params
    total = 0 if m % 2 else c[m // 2]  # the middle term, W_0 taken as 1
    w_prev, w = 2, s  # W_0, W_1
    for k in range(1, m + 1):
        if k > 1:
            w_prev, w = w, s * w + t * w_prev
        if (m - k) % 2 == 0:
            total = -t * total + c[(m - k) // 2] * w
    return total


def test_atom_eval_matches_the_every_k_stream():
    # s = 0, t = 0 and the degenerate pairs (s^2 + t, s^2 + 2t or s^2 + 3t zero) included
    points = [LucasParams(s, t) for s in range(-6, 7) for t in range(-6, 7)]
    for n in range(1, 401):
        for params in points:
            assert atom_eval(n, params) == atom_eval_every_k(n, params), (n, params)


@pytest.mark.parametrize("n", [2310, 4096, 5005])
def test_atom_eval_matches_the_every_k_stream_at_large_n(n):
    for params in (LucasParams(1, 1), LucasParams(5, 7), LucasParams(-3, 2)):
        assert atom_eval(n, params) == atom_eval_every_k(n, params), (n, params)


def test_decompose_examples():
    dec = decompose_ratio([6], [2, 3])
    assert dec.exponents == {2: (1, 1), 3: (1, 1), 6: (1, 0)}
    assert dec.is_polynomial
    assert dec.quotient_exponents == {6: 1}
    # oracle: U_6 / (U_2 U_3) is the atom at 6
    quotient = exact_div_in_s(
        exact_div_in_s(lucas_poly(6), lucas_poly(2)), lucas_poly(3)
    )
    assert quotient == atom(6)

    dec = decompose_ratio([4], [3])
    assert not dec.is_polynomial
    assert dec.quotient_exponents is None
    assert dec.exponents[3] == (0, 1)

    with pytest.raises(ValueError):
        decompose_ratio([4, 5, 6], [1])


def test_lucanomial_examples():
    exps, poly = lucanomial(7, 0)
    assert exps == {} and poly == BiPoly.one()

    exps, poly = lucanomial(4, 2)
    assert poly == atom(3) * atom(4)
    assert exps == {3: 1, 4: 1}

    _, poly63 = lucanomial(6, 3)
    assert poly63.eval(1, 1) == 60  # Fibonomial oracle: F4*F5*F6/(F1*F2*F3)

    with pytest.raises(ValueError):
        lucanomial(4, 5)


def test_lucanomial_fibonomial_oracle():
    def fib(n):
        a, b = 0, 1
        for _ in range(n):
            a, b = b, a + b
        return a

    for n in range(0, 16):
        for k in range(0, n + 1):
            num = den = 1
            for i in range(1, n + 1):
                num *= fib(i)
            for i in range(1, k + 1):
                den *= fib(i)
            for i in range(1, n - k + 1):
                den *= fib(i)
            assert num % den == 0
            _, poly = lucanomial(n, k)
            assert poly.eval(1, 1) == num // den, (n, k)


def test_lucanomial_nonnegative_coefficients():
    for n in range(0, 16):
        for k in range(0, n + 1):
            exps, poly = lucanomial(n, k)
            assert all(e in (0, 1) or e > 0 for e in exps.values())
            assert all(c >= 0 for _, _, c in poly.terms()), (n, k)


def test_prime_search_examples():
    # P_2 = s: value prime iff s is
    got = prime_search(2, 3)
    expected = [
        (s, t, s) for s in range(-3, 4) for t in range(-3, 4) if is_prime(s)
    ]
    assert got == expected

    got6 = prime_search(6, 2)
    assert (1, 2, 7) in got6
    oracle = [
        (s, t, s * s + 3 * t)
        for s in range(-2, 3)
        for t in range(-2, 3)
        if is_prime(s * s + 3 * t)
    ]
    assert got6 == oracle

    assert prime_search(4, 0) == []
    with pytest.raises(ValueError):
        prime_search(1, 3)
