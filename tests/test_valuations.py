import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucasatoms import lucasfam, numtheory, valuations
from lucasatoms.atoms import atom_eval
from lucasatoms.errors import InternalConsistencyError
from lucasatoms.lucasfam import LucasParams, companion_int, discriminant, lucas_int
from lucasatoms.numtheory import divisors, euler_phi, is_prime, legendre, mobius, vp_int
from lucasatoms.valuations import (
    Regime,
    _closed_atom_valuations,
    _pair_table,
    _vp_atom_case,
    classify,
    lucas_value_is_zero,
    rank_of_appearance,
    vp_atom_closed,
    vp_atom_mobius,
    vp_atom_oracle,
    vp_lucas_closed,
    zero_atom_indices,
)

FIB = LucasParams(1, 1)


def rank_oracle(p, params, limit=500):
    """First index k >= 1 with p | U_k, by direct recurrence scan."""
    u0, u1 = 0, 1
    for k in range(1, limit + 1):
        u0, u1 = u1, (params.s * u1 + params.t * u0) % p
        if u0 == 0:
            return k
    return None


def rank_divisor_walk(p, params):
    """(rho, divides_bound) by the divisor walk: the least divisor d of
    p - (Delta/p) with p | U_d, after the cases the theorem does not cover."""
    s, t = params.s, params.t
    if t % p == 0:
        return (2, None) if s % p == 0 else (None, None)
    if p == 2:
        return (2 if s % 2 == 0 else 3), None
    delta = discriminant(params)
    if delta % p == 0:
        return p, p
    bound = p - legendre(delta, p)
    for d in divisors(bound):
        u0, u1 = 0, 1
        for _ in range(d):
            u0, u1 = u1, (s * u1 + t * u0) % p
        if u0 == 0:
            return d, bound
    raise AssertionError(f"no rank below the bound {bound} at p={p}")


# -- rank of appearance ----------------------------------------------------------

def test_rank_examples():
    assert rank_of_appearance(5, FIB).rho == rank_oracle(5, FIB) == 5
    assert rank_of_appearance(7, FIB).rho == rank_oracle(7, FIB) == 8
    assert rank_of_appearance(2, FIB).rho == 3
    assert rank_of_appearance(2, LucasParams(2, 1)).rho == 2
    assert rank_of_appearance(3, LucasParams(1, 3)).rho is None  # p | t, p coprime s
    assert rank_of_appearance(3, LucasParams(3, 3)).rho == 2  # p | gcd(s, t)
    with pytest.raises(ValueError):
        rank_of_appearance(6, FIB)


def test_rank_matches_oracle_for_small_primes():
    for p in (2, 3, 5, 7, 11, 13):
        for s, t in ((1, 1), (3, 1), (2, 1), (1, 2), (4, 3)):
            params = LucasParams(s, t)
            if t % p == 0:
                continue
            assert rank_of_appearance(p, params).rho == rank_oracle(p, params), (p, s, t)


def test_rank_matches_divisor_walk_on_grid():
    reached = set()
    for p in filter(is_prime, range(2, 200)):
        for s in range(-12, 13):
            for t in range(-12, 13):
                params = LucasParams(s, t)
                res = rank_of_appearance(p, params)
                assert (res.rho, res.divides_bound) == rank_divisor_walk(p, params), (p, s, t)
                if p == 2:
                    reached.add("p = 2")
                elif t % p and discriminant(params) % p == 0:
                    reached.add("p | Delta")
                if t % p == 0:
                    reached.add("p | t, p | s" if s % p == 0 else "p | t, p ∤ s")
    assert reached == {"p = 2", "p | Delta", "p | t, p | s", "p | t, p ∤ s"}


def test_rank_not_dividing_the_bound_is_an_internal_error(monkeypatch):
    # (Delta/p) = 0 makes the bound p - 0 = 7, which rho(7, FIB) = 8 does not divide
    monkeypatch.setattr(valuations, "legendre", lambda a, p: 0)
    rank_of_appearance.cache_clear()
    with pytest.raises(InternalConsistencyError, match="does not divide"):
        rank_of_appearance(7, FIB)


def test_rank_divides_bound():
    for p in (3, 5, 7, 11, 13, 17):
        for s, t in ((1, 1), (3, 1), (2, 1), (1, 2)):
            params = LucasParams(s, t)
            if t % p == 0:
                continue
            res = rank_of_appearance(p, params)
            expected_bound = p - legendre(discriminant(params), p)
            if discriminant(params) % p == 0:
                assert res.rho == p
            else:
                assert res.divides_bound == expected_bound
                assert expected_bound % res.rho == 0


# -- classification ----------------------------------------------------------------

def test_classify_examples():
    case = classify(2, FIB)
    assert case.regime is Regime.COPRIME_T_ODD_S
    assert case.k == 3

    case = classify(3, LucasParams(3, 3))
    assert case.regime is Regime.B_EQ_2A_MINUS_1_P3
    assert (case.a, case.b) == (1, 1)
    assert case.lam == vp_int(3, 1 * 1 + 1)

    case = classify(5, FIB)
    assert case.regime is Regime.COPRIME_T_ODD_P
    assert case.delta % 5 == 0
    assert case.k == 5


def test_classify_regime_table():
    expectations = [
        (3, 1, 1, Regime.COPRIME_T_ODD_P),
        (2, 2, 1, Regime.COPRIME_T_EVEN_S),
        (2, 1, 1, Regime.COPRIME_T_ODD_S),
        (2, 1, 2, Regime.DIVIDES_T_ONLY),
        (2, 2, 16, Regime.B_ABOVE_2A),
        (2, 2, 4, Regime.B_EQUAL_2A),
        (2, 4, 2, Regime.B_BELOW_2A_GENERIC),
        (2, 2, 2, Regime.B_EQ_2A_MINUS_1_P2),
        (3, 3, 3, Regime.B_EQ_2A_MINUS_1_P3),
        (5, 5, 5, Regime.B_BELOW_2A_GENERIC),  # b = 2a-1 but p outside {2, 3}
        (2, 0, 2, Regime.B_BELOW_2A_GENERIC),  # s = 0 means a infinite
    ]
    for p, s, t, regime in expectations:
        case = classify(p, LucasParams(s, t))
        assert case.regime is regime, (p, s, t)


def test_classify_rejects_t_zero_and_composite():
    with pytest.raises(ValueError):
        classify(2, LucasParams(3, 0))
    with pytest.raises(ValueError):
        classify(4, FIB)


def test_zero_atom_indices():
    assert zero_atom_indices(FIB) == frozenset()
    assert zero_atom_indices(LucasParams(1, -1)) == frozenset({3})
    assert zero_atom_indices(LucasParams(2, -2)) == frozenset({4})
    assert zero_atom_indices(LucasParams(3, -3)) == frozenset({6})
    assert zero_atom_indices(LucasParams(0, 5)) == frozenset({2})
    assert lucas_value_is_zero(12, LucasParams(1, -1))
    assert not lucas_value_is_zero(5, LucasParams(1, -1))


def test_zero_atom_indices_is_memoised_as_an_immutable_set():
    first = zero_atom_indices(LucasParams(2, -4))
    assert first == frozenset({3}) and isinstance(first, frozenset)
    assert zero_atom_indices(LucasParams(2, -4)) is first


# -- Lucas-sequence valuations -------------------------------------------------------

def test_vp_lucas_spots():
    assert vp_lucas_closed(2, FIB, 12) == vp_int(2, lucas_int(12, FIB)) == 4
    # U_4(3, 3) = 45 = 3^2 * 5
    assert lucas_int(4, LucasParams(3, 3)) == 45
    assert vp_lucas_closed(3, LucasParams(3, 3), 4) == 2
    assert vp_lucas_closed(5, FIB, 25) == vp_int(5, lucas_int(25, FIB)) == 2


def test_vp_lucas_lambda_sign_pin():
    # s=2, t=2, p=2: U_4 = 16, so the correction must be v_2(s'^2 + t') = 1
    params = LucasParams(2, 2)
    assert lucas_int(4, params) == 16
    assert vp_lucas_closed(2, params, 4) == 4


def test_vp_lucas_matches_oracle_grid():
    grid = [
        (2, 1, 1), (3, 1, 1), (5, 1, 1), (7, 1, 1), (2, 2, 1), (2, 2, 2),
        (3, 3, 3), (2, 2, 16), (3, 3, 81), (2, 2, 4), (3, 6, 36), (2, 4, 2),
        (3, 9, 3), (5, 25, 5), (2, 1, 2), (3, 2, 3), (2, 4, 8), (3, 9, 27),
    ]
    for p, s, t in grid:
        params = LucasParams(s, t)
        for n in range(1, 61):
            value = lucas_int(n, params)
            assert vp_lucas_closed(p, params, n) == vp_int(p, value), (p, s, t, n)


def test_vp_lucas_zero_value_rejected():
    with pytest.raises(ValueError, match="zero"):
        vp_lucas_closed(2, LucasParams(1, -1), 6)  # 3 | 6 and P_3(1,-1) = 0
    with pytest.raises(ValueError, match="zero"):
        vp_lucas_closed(3, LucasParams(0, 5), 4)  # s = 0 kills even indices
    with pytest.raises(ValueError):
        vp_lucas_closed(2, LucasParams(1, 0), 5)  # t = 0 unsupported here


def test_vp_lucas_side_condition_for_ramified_primes():
    # v_p(U_p) = 1 whenever p >= 5 divides the discriminant and p coprime t
    for p, s, t in ((5, 1, 1), (5, 6, 1), (7, 1, 5), (11, 1, 8), (13, 1, 3)):
        params = LucasParams(s, t)
        assert discriminant(params) % p == 0
        assert vp_int(p, lucas_int(p, params)) == 1


# -- atom valuations -------------------------------------------------------------------

def test_vp_atom_spot_values():
    assert vp_atom_closed(2, FIB, 6) == vp_atom_oracle(2, FIB, 6) == 2
    assert vp_atom_closed(5, FIB, 25) == vp_atom_oracle(5, FIB, 25) == 1
    assert vp_atom_closed(7, FIB, 8) == vp_atom_oracle(7, FIB, 8) == 1
    p22 = LucasParams(2, 2)
    assert vp_atom_closed(2, p22, 4) == vp_atom_oracle(2, p22, 4) == 3
    assert vp_atom_closed(2, p22, 8) == vp_atom_oracle(2, p22, 8) == 3


def test_vp_atom_mobius_examples():
    assert vp_atom_mobius(2, FIB, 6) == 2
    assert vp_atom_mobius(5, FIB, 5) == 1
    # prime index: v_p(P_q) = v_p(U_q) - v_p(U_1) and U_1 = 1
    assert vp_atom_mobius(2, FIB, 3) == vp_int(2, lucas_int(3, FIB))


def test_vp_atom_triple_agreement_small_grid():
    grid = [
        (2, 1, 1), (3, 1, 1), (5, 1, 1), (7, 1, 1), (11, 1, 1), (2, 2, 1),
        (2, 2, 2), (3, 3, 3), (2, 2, 16), (3, 3, 81), (2, 2, 4), (3, 6, 36),
        (2, 4, 2), (3, 9, 3), (5, 25, 5), (2, 1, 2), (3, 1, 3), (2, 4, 8),
        (3, 9, 27), (5, 5, 5), (2, 0, 2), (2, 0, 6),
        (2, 2, -1), (3, 2, -1), (5, 6, -9),  # zero discriminant, allowed
        (2, 1, -1), (2, 3, -9), (2, -2, -4),  # U_3 = 0 but P_6 != 0
        (3, 3, 6), (3, 3, 24), (2, 2, 6),  # lambda = 1, 2 at p = 3; 2 at p = 2
        (2, 0, 1), (2, 0, 3),  # even-s regime with s = 0, P_4 = 2t
        (2, 8, 32), (3, 27, 162), (2, 16, 64),  # p^2, p^2 and p^3 stripped first
    ]
    for p, s, t in grid:
        params = LucasParams(s, t)
        zeros = zero_atom_indices(params)
        for n in range(2, 81):
            if n in zeros:
                continue
            c = vp_atom_closed(p, params, n)
            o = vp_atom_oracle(p, params, n)
            assert c == o, (p, s, t, n, c, o)
            if not any(n % z == 0 for z in zeros):
                assert vp_atom_mobius(p, params, n) == o, (p, s, t, n, o)


@st.composite
def regime_triples(draw):
    """(p, s, t) with s = p^a u and t = p^b v, a and b in 0..6: every regime,
    and every closed-form case after stripping p^c with c up to 3."""
    p = draw(st.sampled_from((2, 3, 5, 7, 11, 13)))
    u = draw(st.integers(-12, 12).filter(lambda x: x == 0 or x % p))
    v = draw(st.integers(-12, 12).filter(lambda x: x % p))
    a, b = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    return p, LucasParams(p**a * u, p**b * v)


@settings(max_examples=200, deadline=None)
@given(regime_triples())
def test_closed_forms_match_oracles_in_every_regime(triple):
    p, params = triple
    for n in range(1, 61):
        if lucas_int(n, params):
            assert vp_lucas_closed(p, params, n) == vp_int(p, lucas_int(n, params)), n
        else:
            with pytest.raises(ValueError, match="zero"):
                vp_lucas_closed(p, params, n)
        if n == 1:
            continue
        if atom_eval(n, params):
            assert vp_atom_closed(p, params, n) == vp_atom_oracle(p, params, n), n
        else:
            with pytest.raises(ValueError, match="zero"):
                vp_atom_closed(p, params, n)


def test_closed_forms_do_not_retest_primality(monkeypatch):
    # classify proves p prime; after that no closed-form valuation re-runs the test
    high = LucasParams(1999, 1999)
    calls = [(vp_lucas_closed, high, 4), (vp_atom_closed, FIB, 666), (vp_atom_mobius, FIB, 1332)]
    expected = [vp_int(1999, lucas_int(4, high))]
    expected += [vp_atom_oracle(1999, FIB, n) for n in (666, 1332)]
    classify(1999, high)
    classify(1999, FIB)
    primality_tests = []

    def counted(n):
        primality_tests.append(n)
        return is_prime(n)

    monkeypatch.setattr(numtheory, "is_prime", counted)
    monkeypatch.setattr(valuations, "is_prime", counted)
    assert [f(1999, params, n) for f, params, n in calls] == expected
    assert primality_tests == []


def test_closed_valuation_list_matches_the_case_function():
    # s, t in [-12, 12] and the stripped grid s = u p^a, t = v p^b; the list
    # must also reach p = 2's index 2k and lambda at 2p in the p | s regimes
    horizon = 300
    regimes, reached = set(), set()
    for p in (2, 3, 5, 7, 11, 13):
        pairs = {(s, t) for s in range(-12, 13) for t in range(-12, 13)}
        pairs |= {
            (u * p**a, v * p**b)
            for a in range(4)
            for b in range(7)
            for u in (1, -1, 2, -3)
            for v in (1, -1, 2, -3)
        }
        for s, t in sorted(pairs):
            params = LucasParams(s, t)
            if t == 0 or zero_atom_indices(params):
                continue
            table = _pair_table(p, params)
            case = table[1]
            want = [0, 0] + [_vp_atom_case(p, table, n) for n in range(2, horizon + 1)]
            assert list(_closed_atom_valuations(p, params, horizon)) == want, (p, s, t)
            regimes.add(classify(p, params).regime)
            if p == 2 and case.b == 0 and vp_int(2, companion_int(case.k, case.params)) != 1:
                reached.add("2k")  # where v_2(W_k) differs from the generic term 1
            if case.b == 1 and case.a and case.lam:
                reached.add("lambda")
    assert regimes == set(Regime)
    assert reached == {"2k", "lambda"}


def test_vp_atom_degenerate_rejected():
    with pytest.raises(ValueError, match="zero"):
        vp_atom_closed(2, LucasParams(1, -1), 3)
    with pytest.raises(ValueError, match="zero"):
        vp_atom_oracle(2, LucasParams(1, -1), 3)
    with pytest.raises(ValueError, match="zero"):
        vp_atom_mobius(2, LucasParams(1, -1), 6)
    with pytest.raises(ValueError):
        vp_atom_closed(2, FIB, 1)


def test_valuation_summation_identity():
    # sum over divisors d >= 2 of v_p(P_d) equals v_p(U_n)
    for p, s, t in ((2, 1, 1), (3, 1, 1), (2, 2, 2), (3, 3, 3), (5, 1, 1)):
        params = LucasParams(s, t)
        for n in range(2, 121):
            total = sum(vp_atom_closed(p, params, d) for d in divisors(n) if d >= 2)
            assert total == vp_int(p, lucas_int(n, params)), (p, s, t, n)


def test_rank_div_iff_membership():
    # p | U_m exactly when the rank divides m
    for p in (2, 3, 5, 7, 11, 13):
        for s, t in ((1, 1), (3, 1), (2, 1), (1, 2)):
            params = LucasParams(s, t)
            if t % p == 0:
                continue
            rho = rank_of_appearance(p, params).rho
            for m in range(1, 101):
                assert (lucas_int(m, params) % p == 0) == (m % rho == 0), (p, s, t, m)


def test_rank_transfers_to_atoms():
    # least atom index hit by p equals the rank, with equal valuation there
    from lucasatoms.atoms import atom_eval

    for p in (2, 3, 5, 7, 11):
        for s, t in ((1, 1), (3, 1), (2, 1)):
            params = LucasParams(s, t)
            k = rank_of_appearance(p, params).rho
            least = next(
                n for n in range(2, 3 * p + 4) if atom_eval(n, params) % p == 0
            )
            assert least == k, (p, s, t)
            assert vp_atom_oracle(p, params, k) == vp_int(p, lucas_int(k, params))


# -- Mobius convolution identities ------------------------------------------------------

def test_convolution_identity_totient():
    for n in range(1, 501):
        assert sum(mobius(d) * (n // d) for d in divisors(n)) == euler_phi(n)


def test_convolution_identity_indicator():
    for r in range(1, 11):
        for n in range(1, 301):
            total = sum(mobius(d) for d in divisors(n) if (n // d) % r == 0)
            assert total == (1 if n == r else 0), (r, n)


def test_convolution_identity_prime_power_detector():
    def is_positive_power_of(m, p):
        if m < p:
            return False
        while m % p == 0:
            m //= p
        return m == 1

    for p in (2, 3, 5):
        for q in (1, 2, 3, 5, 6, 7, 10):
            if q % p == 0:
                continue
            for n in range(1, 301):
                total = sum(
                    mobius(d) * vp_int(p, n // d)
                    for d in divisors(n)
                    if (n // d) % q == 0
                )
                is_hit = n % q == 0 and is_positive_power_of(n // q, p)
                assert total == (1 if is_hit else 0), (p, q, n)


def test_warm_closed_forms_classify_nothing_per_index(monkeypatch):
    # the stripped case is cached per (p, params): a scan over n must not re-run classify
    grid = [(41, LucasParams(-5, 8)), (3, LucasParams(-6, 9)), (2, LucasParams(8, 32))]
    expected = [
        (vp_atom_closed(p, params, n), vp_lucas_closed(p, params, n))
        for p, params in grid
        for n in range(2, 80)
        if atom_eval(n, params)
    ]
    classified = []
    monkeypatch.setattr(valuations, "classify", lambda *args: classified.append(args))
    got = [
        (vp_atom_closed(p, params, n), vp_lucas_closed(p, params, n))
        for p, params in grid
        for n in range(2, 80)
        if atom_eval(n, params)
    ]
    assert got == expected
    assert classified == []


def test_unstripped_coprime_t_closed_form_factorizes_no_index():
    # at c = 0 with p ∤ t the closed form needs no phi(n), so no n is factorized
    expected = [vp_atom_oracle(41, LucasParams(-5, 8), n) for n in range(200, 300)]
    classify(41, LucasParams(-5, 8))
    before = numtheory.factorize.cache_info()
    got = [vp_atom_closed(41, LucasParams(-5, 8), n) for n in range(200, 300)]
    after = numtheory.factorize.cache_info()
    assert got == expected
    assert after.hits + after.misses == before.hits + before.misses


# -- the pair table against the code it replaced ---------------------------------------

def stripped_by_classify(p, params):
    """(c, the case of (s/p^c, t/p^2c)): the stripped pair as the closed forms
    read it before the pair table."""
    case = classify(p, params)
    c = case.b // 2 if case.a is None else min(case.a, case.b // 2)
    if c == 0:
        return 0, case
    q = p**c
    return c, classify(p, LucasParams(params.s // q, params.t // q**2))


def vp_lucas_by_exact_value(p, params, n):
    """v_p(U_n) by the closed forms, reading v_p(U_k) and v_2(U_2k) off the
    exact integers: the U valuation the pair table replaced."""
    if n < 1:
        raise ValueError("index must be positive")
    c, case = stripped_by_classify(p, params)
    if lucas_value_is_zero(n, params):
        raise ValueError(f"valuation of zero: U_{n}({params.s}, {params.t}) = 0")
    k = case.k
    if case.b == 0:
        if n % k:
            return c * (n - 1)
        start = 2 * k if p == 2 and n % (2 * k) == 0 else k
        return c * (n - 1) + vp_int(p, lucas_int(start, case.params)) + vp_int(p, n // start)
    if case.a == 0:
        return c * (n - 1)
    m, r = divmod(n, 2)
    if r:
        return c * (n - 1) + m
    lam = (case.lam or 0) if m % p == 0 else 0
    return c * (n - 1) + m + (case.a - 1) + vp_int(p, m) + lam


def mobius_per_divisor(params, n, vp_lucas):
    """The Mobius route before the pair table: after a zero U_z with z | n is
    rejected, one vp_lucas(m) per m = n/d over the squarefree divisors d of n."""
    zero = min((z for z in zero_atom_indices(params) if n % z == 0), default=None)
    if zero is not None:
        raise ValueError(f"valuation of zero: U_{zero}({params.s}, {params.t}) = 0")
    return sum(mobius(d) * vp_lucas(n // d) for d in divisors(n) if mobius(d))


def outcome(f, *args):
    """f(*args), or the message of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_pair_table_matches_the_exact_value_oracles():
    # every regime of p <= 13 over s, t in [-12, 12] and the stripped grid,
    # degenerate pairs (t = 0 and zero values) included, at n <= 300
    horizon = 300
    regimes = set()
    for p in (2, 3, 5, 7, 11, 13):
        pairs = {(s, t) for s in range(-12, 13) for t in range(-12, 13)}
        pairs |= {
            (u * p**a, v * p**b)
            for a in range(4)
            for b in range(7)
            for u in (1, -1, 2, -3)
            for v in (1, -1, 2, -3)
        }
        for s, t in sorted(pairs):
            params = LucasParams(s, t)
            got = [outcome(vp_lucas_closed, p, params, n) for n in range(horizon + 1)]
            want = [outcome(vp_lucas_by_exact_value, p, params, n) for n in range(horizon + 1)]
            assert got == want, (p, s, t)
            if t == 0:  # the Mobius route's first error is its own zero check, not classify's
                continue
            got = [outcome(vp_atom_mobius, p, params, n) for n in range(2, horizon + 1)]
            want = [
                outcome(mobius_per_divisor, params, n, want.__getitem__)
                for n in range(2, horizon + 1)
            ]
            assert got == want, (p, s, t)
            regimes.add(classify(p, params).regime)
            q, case, vu, vw = _pair_table(p, params)
            c, stripped = stripped_by_classify(p, params)
            # the shift numerator: 2c, plus 1 where p | s' and p divides t' once
            want_q = 2 * c + (stripped.b == 1 and stripped.a != 0)
            assert (q, case) == (want_q, stripped), (p, s, t)
            if case.b == 0:  # v_p(U_k) and v_2(W_k) of the stripped pair, None where zero
                u, w = lucas_int(case.k, case.params), companion_int(case.k, case.params)
                assert vu == (vp_int(p, u) if u else None), (p, s, t)
                assert vw == (vp_int(2, w) if p == 2 and w else None), (p, s, t)
            else:
                assert vu is vw is None, (p, s, t)
    assert regimes == set(Regime)


def test_closed_valuations_build_no_exact_value_at_large_p(monkeypatch):
    # v_p(U_rho) and the index 1000004 = rho come from residues mod p^K alone
    p, n = 1000003, 1000004

    def small_only(f):
        def stub(m, *args):
            if m > 1000:
                raise AssertionError(f"exact value at index {m}")
            return f(m, *args)

        return stub

    def residues_only(m, params, mod=0):
        if m > 1000 and not mod:
            raise AssertionError(f"exact value at index {m}")
        return lucas_pair(m, params, mod)

    lucas_pair = valuations._lucas_pair
    for module in (lucasfam, valuations):
        for name in ("lucas_int", "companion_int"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, small_only(getattr(module, name)))
    monkeypatch.setattr(valuations, "_lucas_pair", residues_only)
    _pair_table.cache_clear()
    assert vp_lucas_closed(p, FIB, n) == 1
    assert vp_atom_closed(p, FIB, n) == 1
    assert vp_atom_mobius(p, FIB, n) == 1
    _pair_table.cache_clear()  # drop the entry built under the stub
