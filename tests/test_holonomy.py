from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucasatoms import cli, holonomy, numtheory, valuations
from lucasatoms.atoms import atom_eval
from lucasatoms.errors import InternalConsistencyError
from lucasatoms.holonomy import (
    _atom_valuations,
    _eventually_periodic,
    divisibility_scan,
    fit_recurrence,
    recurrence_row,
    t_zero_profile,
)
from lucasatoms.lucasfam import LucasParams, cyclotomic
from lucasatoms.numtheory import euler_phi
from lucasatoms.valuations import (
    Regime,
    _pair_table,
    classify,
    vp_atom_oracle,
    zero_atom_indices,
)

FIB = LucasParams(1, 1)


def test_scan_fibonacci_mod_2():
    pattern = divisibility_scan(2, FIB, 200)
    assert pattern.hit_indices == (3, 6, 12, 24, 48, 96, 192)
    assert pattern.matches
    assert not pattern.ap_expressible


def test_scan_fibonacci_mod_5():
    pattern = divisibility_scan(5, FIB, 130)
    assert pattern.hit_indices == (5, 25, 125)
    assert pattern.matches
    assert not pattern.ap_expressible


def test_scan_matches_integer_oracle():
    for p, s, t in ((2, 1, 1), (3, 1, 1), (5, 2, 1), (7, 3, 2)):
        params = LucasParams(s, t)
        pattern = divisibility_scan(p, params, 120)
        oracle_hits = tuple(
            n for n in range(2, 121) if vp_atom_oracle(p, params, n) > 0
        )
        assert pattern.hit_indices == oracle_hits, (p, s, t)
        assert pattern.matches


def _hits_by_cyclotomic_sum(p, params, horizon):
    """Indices 2..horizon with P_n(s, t) = 0 mod p, from the symmetric-route sum
    over the exact cyclotomic coefficients, with W_k and (-t)^j reduced mod p.

    An independent oracle for the scan: it reads neither U_n nor valuations.
    """
    s, t = params.s % p, params.t % p
    phis = [0, 1] + [euler_phi(n) for n in range(2, horizon + 1)]
    max_m = max(phis[2:], default=0)
    w = [2 % p, s]  # W_k mod p
    for _ in range(2, max_m + 1):
        w.append((s * w[-1] + t * w[-2]) % p)
    neg_t = (-params.t) % p
    pow_neg_t = [1 % p]
    for _ in range(max_m // 2):
        pow_neg_t.append(pow_neg_t[-1] * neg_t % p)
    hits = []
    for n in range(2, horizon + 1):
        m = phis[n]
        c = cyclotomic(n).coeffs
        half = m // 2
        total = 0
        if m % 2 == 0 and c[half]:
            total = c[half] * pow_neg_t[half]
        for j in range(half - 1 + (m % 2), -1, -1):
            if c[j]:
                total += c[j] * pow_neg_t[j] * w[m - 2 * j]
        if total % p == 0:
            hits.append(n)
    return tuple(hits)


def test_scan_matches_cyclotomic_sum_oracle():
    # Every regime: p | s and p | t, p | t only, p | s only, p coprime to st,
    # and the zero-discriminant pairs (2, -1) and (4, -4). The oracle works
    # mod p, so it is computed once per residue pair.
    horizon = 300
    oracle, regimes, scanned = {}, set(), set()
    for p in (2, 3, 5, 7, 29):
        for s in range(-9, 10):
            for t in range(-9, 10):
                params = LucasParams(s, t)
                if t == 0 or zero_atom_indices(params):
                    continue
                regimes.add(classify(p, params).regime)
                scanned.add((s, t))
                key = (p, s % p, t % p)
                if key not in oracle:
                    oracle[key] = _hits_by_cyclotomic_sum(p, params, horizon)
                pattern = divisibility_scan(p, params, horizon)
                assert pattern.hit_indices == oracle[key], (p, s, t)
                assert pattern.matches, (p, s, t)
    assert regimes == set(Regime)
    assert {(2, -1), (4, -4)} <= scanned


def _atom_valuations_by_exact_loop(p, params, horizon):
    """v_p(P_n) for 0 <= n <= horizon from the exact integers U_n.

    The recurrence keeps (U_{n-1}, U_n) as p^g (x, y) with p not dividing both
    x and y, so each step strips only the factors of p it gained; the atom
    valuations are the Mobius inversion of v_p(U_n) = sum_{d | n} v_p(P_d).
    """
    s, t = params.s, params.t
    vals = [0, 0]
    x, y, g = 0, 1, 0
    for _ in range(2, horizon + 1):
        x, y = y, s * y + t * x
        e, z = g, y
        while z % p == 0:
            e, z = e + 1, z // p
        while e > g and x % p == 0:
            x, y, g = x // p, y // p, g + 1
        vals.append(e)
    for d in range(2, horizon // 2 + 1):
        if vals[d]:
            for m in range(2 * d, horizon + 1, d):
                vals[m] -= vals[d]
    return vals


def _valuation_grid(primes, small, units, max_a, max_b):
    """(p, s, t) with s, t in small x small, and s = u p^a, t = v p^b for u, v
    in units, a <= max_a, b <= max_b; pairs with a zero atom are left out."""
    for p in primes:
        pairs = {(s, t) for s in small for t in small}
        pairs |= {
            (u * p**a, v * p**b)
            for a in range(max_a + 1)
            for b in range(max_b + 1)
            for u in units
            for v in units
        }
        for s, t in sorted(pairs):
            params = LucasParams(s, t)
            if t and not zero_atom_indices(params):
                yield p, params


def _full_valuations(p, params, horizon):
    """`_atom_valuations` with (q phi(n)) // 2 added back at n >= 2: v_p(P_n) in full."""
    q = _pair_table(p, params)[0]
    vals = _atom_valuations(p, params, horizon)
    return [v + (q * euler_phi(n) // 2 if n > 1 else 0) for n, v in enumerate(vals)]


def test_scan_valuations_match_exact_loop():
    # Every regime, stripped (c >= 1) pairs and the p || t, p | s pairs whose
    # loop runs U_n / p^floor((n-1)/2); the whole valuation list is compared.
    # The loop takes two indices a step, so an even horizon ends one step past
    # it; the exact list to 199 is the one to 200 without its last entry.
    regimes = set()
    for p, params in _valuation_grid((2, 3, 5, 7, 11, 13, 31), range(-12, 13), (1, -1, 2, -3), 4, 8):
        regimes.add(classify(p, params).regime)
        want = _atom_valuations_by_exact_loop(p, params, 200)
        assert _full_valuations(p, params, 200) == want, (p, params)
        assert _full_valuations(p, params, 199) == want[:200], (p, params)
    assert regimes == set(Regime)


def test_scan_valuations_at_minimal_precision(monkeypatch):
    # With residues mod p alone every hit index has a zero residue, so each one
    # is resolved by the doubling kernel at a higher power of p.
    moduli = []

    def spy(n, params, mod=0):
        moduli.append(mod)
        return lucas_pair(n, params, mod)

    grid = list(_valuation_grid((2, 3, 5, 7), range(-6, 7), (1, -3), 3, 6))
    for p, params in grid + [(3, LucasParams(-9, -6))]:
        _pair_table(p, params)  # the per-pair residues are taken before the spy
    lucas_pair = valuations._lucas_pair
    monkeypatch.setattr(holonomy, "_RESIDUE_BITS", 0)
    monkeypatch.setattr(valuations, "_lucas_pair", spy)
    for p, params in grid:
        want = _atom_valuations_by_exact_loop(p, params, 120)
        assert _full_valuations(p, params, 120) == want, (p, params)
        assert _full_valuations(p, params, 119) == want[:120], (p, params)
    assert moduli and all(mod > 1 for mod in moduli)
    pattern = divisibility_scan(3, LucasParams(-9, -6), 200)
    assert pattern.matches and len(pattern.hit_indices) == 199


def test_scan_factorizes_no_index(monkeypatch):
    # Neither list carries (q phi(n)) // 2, so even the phi(n)-linear regimes,
    # odd q and even q, take no phi(n) at all: no factorization, no cached n,
    # and no prime sieve (`_primes` serves only the phi sieve).
    sieves = []

    def spy(n):
        sieves.append(n)
        return primes(n)

    primes = numtheory._primes
    monkeypatch.setattr(numtheory, "_primes", spy)
    for params in (LucasParams(-9, -6), LucasParams(3, 9)):
        before = numtheory.factorize.cache_info(), numtheory.euler_phi.cache_info()
        pattern = divisibility_scan(3, params, 2000)
        after = numtheory.factorize.cache_info(), numtheory.euler_phi.cache_info()
        assert pattern.matches and _pair_table(3, params)[0] > 0
        assert [i.hits + i.misses for i in after] == [i.hits + i.misses for i in before]
        assert [i.currsize for i in after] == [i.currsize for i in before]
    assert sieves == []


def test_scan_builds_no_cyclotomic():
    before = cyclotomic.cache_info()
    divisibility_scan(2, FIB, 600)
    after = cyclotomic.cache_info()
    assert after.hits + after.misses == before.hits + before.misses


def test_scan_shares_one_tuple_when_the_closed_forms_agree():
    for p, params in ((3, LucasParams(-9, -6)), (2, FIB), (5, LucasParams(3, 7))):
        pattern = divisibility_scan(p, params, 300)
        assert pattern.matches
        assert pattern.hit_indices is pattern.expected


def test_scan_keeps_the_closed_form_hits_apart_on_disagreement(monkeypatch):
    # a closed form that also claims index 7 must give its own expected tuple
    build = holonomy._closed_atom_valuations

    def claims_seven(p, params, horizon):
        vals = build(p, params, horizon)
        vals[7] = vals[7] or 1
        return vals

    monkeypatch.setattr(holonomy, "_closed_atom_valuations", claims_seven)
    pattern = divisibility_scan(2, FIB, 200)
    assert not pattern.matches
    assert pattern.hit_indices == (3, 6, 12, 24, 48, 96, 192)
    assert pattern.expected == (3, 6, 7, 12, 24, 48, 96, 192)


def test_scan_value_mismatch_on_equal_hit_sets_is_an_internal_error(monkeypatch):
    # one more at a hit index keeps the hit sets equal but not the values: index
    # 6 of Fibonacci at p = 2 (q = 0), and index 2 at p = 3 of (3, 3), where
    # q = 1 (P_2 = s = 3), and of (3, 9), where q = 2 and the stripped lists are
    # 0 at n = 2; q > 0 makes every n >= 2 a hit, and the message adds
    # (q phi(n)) // 2 back, so it gives full valuations
    build = holonomy._closed_atom_valuations
    cases = (
        (2, FIB, 200, 6, "index 6: valuation 2, closed form 3"),
        (3, LucasParams(3, 3), 50, 2, "index 2: valuation 1, closed form 2"),
        (3, LucasParams(3, 9), 50, 2, "index 2: valuation 1, closed form 2"),
    )
    for p, params, limit, n, message in cases:

        def one_more(p, params, horizon, n=n):
            vals = build(p, params, horizon)
            vals[n] += 1
            return vals

        monkeypatch.setattr(holonomy, "_closed_atom_valuations", one_more)
        with pytest.raises(InternalConsistencyError, match=message):
            divisibility_scan(p, params, limit)
        argv = ["scan", "--p", str(p), "--s", str(params.s), "--t", str(params.t)]
        assert cli.main(argv + ["--limit", str(limit)]) == 3
    assert [_pair_table(3, LucasParams(3, t))[0] for t in (3, 9)] == [1, 2]


def test_scan_rejects_bad_inputs():
    with pytest.raises(ValueError):
        divisibility_scan(2, LucasParams(7, 0), 50)
    with pytest.raises(ValueError):
        divisibility_scan(2, LucasParams(1, -1), 50)  # atom vanishes at 3
    with pytest.raises(ValueError):
        divisibility_scan(4, FIB, 50)


def test_eventually_periodic_helper():
    horizon = 90
    periodic = [False] * (horizon + 1)
    for n in range(2, horizon + 1):
        if n % 7 == 3:
            periodic[n] = True
    assert _eventually_periodic(periodic, horizon)

    geometric = [False] * (horizon + 1)
    for n in (3, 6, 12, 24, 48):
        geometric[n] = True
    assert not _eventually_periodic(geometric, horizon)


def test_periodicity_is_not_a_holonomy_test():
    # Catalan numbers satisfy (n + 2) C_{n+1} = (4n + 2) C_n, a recurrence
    # with polynomial coefficients, yet C_n is odd exactly at n = 2^k - 1:
    # a hit set that is not eventually periodic does not rule out a recurrence.
    horizon = 3000
    catalan = [1]
    for n in range(horizon):
        catalan.append((4 * n + 2) * catalan[n] // (n + 2))
    assert all(catalan[n] == comb(2 * n, n) // (n + 1) for n in (0, 1, 2, 10, 999, horizon))
    odd = [c % 2 == 1 for c in catalan]
    assert [n for n, hit in enumerate(odd) if hit] == [
        2**k - 1 for k in range(12)
    ]
    assert not _eventually_periodic(odd, horizon)
    assert not _eventually_periodic([not hit for hit in odd], horizon)


def _eventually_periodic_brute(indicator, horizon):
    """The definition read literally: try every period Q <= horizon/3."""
    tail = max(2, horizon // 3)
    return any(
        all(indicator[i] == indicator[i + q] for i in range(tail, horizon - q + 1))
        for q in range(1, horizon // 3 + 1)
    )


horizons = st.one_of(st.integers(0, 5), st.integers(6, 90))


@settings(max_examples=300, deadline=None)
@given(horizons, st.data())
def test_eventually_periodic_matches_definition_on_random_indicators(horizon, data):
    indicator = data.draw(
        st.lists(st.booleans(), min_size=horizon + 1, max_size=horizon + 1)
    )
    assert _eventually_periodic(indicator, horizon) == _eventually_periodic_brute(
        indicator, horizon
    )


@settings(max_examples=300, deadline=None)
@given(horizons, st.data())
def test_eventually_periodic_matches_definition_with_one_break(horizon, data):
    # a periodic tail after a random transient, then at most one flipped bit
    period = data.draw(st.integers(1, max(1, horizon // 2)))
    pattern = data.draw(st.lists(st.booleans(), min_size=period, max_size=period))
    start = data.draw(st.integers(0, horizon + 1))
    indicator = data.draw(st.lists(st.booleans(), min_size=start, max_size=start))
    indicator += [pattern[i % period] for i in range(start, horizon + 1)]
    flip = data.draw(st.one_of(st.none(), st.integers(0, horizon)))
    if flip is not None:
        indicator[flip] = not indicator[flip]
    assert _eventually_periodic(indicator, horizon) == _eventually_periodic_brute(
        indicator, horizon
    )


def test_fit_refutation_fibonacci():
    fit = fit_recurrence(FIB, 2, 2, 10, 60)
    assert fit.status == "refuted"
    assert fit.witness_end is not None and 10 < fit.witness_end <= 60
    # rebuild the witness prefix and verify the certificate rows
    values = {n: atom_eval(n, FIB) for n in range(8, fit.witness_end + 1)}
    rows, rhs = [], []
    for n in range(10, fit.witness_end + 1):
        row, b = recurrence_row(values, n, 2, 2)
        rows.append(row)
        rhs.append(b)
    y = fit.certificate
    assert len(y) == len(rows)
    for col in range(len(rows[0])):
        assert sum(yi * row[col] for yi, row in zip(y, rows)) == 0
    assert sum(yi * b for yi, b in zip(y, rhs)) != 0


def _rank(rows):
    """Rank over the rationals by plain Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0])):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(rank + 1, len(m)):
            f = m[r][col] / m[rank][col]
            m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("s, t", [(1, 1), (2, 2), (3, -1)])
def test_fit_witness_is_first_rank_jump(s, t):
    params = LucasParams(s, t)
    for order in range(1, 4):
        for degree in range(3):
            n_start = 10
            n_end = n_start + 3 * (order + 1) * (degree + 1)  # the CLI default
            fit = fit_recurrence(params, order, degree, n_start, n_end)
            values = {n: atom_eval(n, params) for n in range(n_start - order, n_end + 1)}
            rows, rhs = [], []
            first_jump = None
            for n in range(n_start, n_end + 1):
                row, b = recurrence_row(values, n, order, degree)
                rows.append(row)
                rhs.append(b)
                augmented = [r + [bi] for r, bi in zip(rows, rhs)]
                if _rank(augmented) > _rank(rows):
                    first_jump = n
                    break
            assert fit.witness_end == first_jump, (s, t, order, degree)
            if first_jump is None:
                assert fit.status == "fit"
                continue
            assert fit.status == "refuted"
            y = fit.certificate
            assert len(y) == first_jump - n_start + 1
            for col in range(len(rows[0])):
                assert sum(yi * r[col] for yi, r in zip(y, rows)) == 0
            assert sum(yi * b for yi, b in zip(y, rhs)) != 0


def test_refuted_fit_evaluates_no_atom_past_the_witness(monkeypatch):
    indices = []

    def spy(n, params):
        indices.append(n)
        return atom_eval(n, params)

    monkeypatch.setattr(holonomy, "atom_eval", spy)
    fit = fit_recurrence(FIB, 2, 2, 10, 60)
    assert fit.status == "refuted" and fit.witness_end == 19
    assert sorted(indices) == list(range(8, 20))


def test_fit_refutation_low_order():
    fit = fit_recurrence(LucasParams(2, 2), 1, 0, 10, 40)
    assert fit.status == "refuted"


def test_fit_t_zero_constant_sequence():
    fit = fit_recurrence(LucasParams(1, 0), 1, 1, 10, 30)
    assert fit.status == "fit"
    g0, g1 = fit.coefficients
    # all-ones sequence: any valid fit must satisfy G_0(n) + G_1(n) = 1
    for n in (10, 20, 30):
        g0n = sum(c * n**r for r, c in enumerate(g0))
        g1n = sum(c * n**r for r, c in enumerate(g1))
        assert g0n + g1n == Fraction(1)


def test_fit_window_validation():
    with pytest.raises(ValueError):
        fit_recurrence(FIB, 2, 2, 2, 60)  # starts at the order
    with pytest.raises(ValueError):
        fit_recurrence(FIB, 2, 2, 10, 20)  # too short
    with pytest.raises(ValueError):
        fit_recurrence(FIB, 0, 2, 10, 60)


def test_t_zero_profile_examples():
    assert t_zero_profile(1, 10) == [(n, 1) for n in range(1, 11)]
    assert t_zero_profile(0, 5) == [(1, 1), (2, 0), (3, 0), (4, 0), (5, 0)]
    assert t_zero_profile(2, 8) == [
        (1, 1), (2, 2), (3, 4), (4, 4), (5, 16), (6, 4), (7, 64), (8, 16),
    ]
    with pytest.raises(ValueError):
        t_zero_profile(2, 0)


def test_t_zero_profile_reads_phi_from_one_sieve():
    # the sieve's phi(n) against the cached euler_phi per index, to N = 2000
    for s in (-3, -1, 0, 1, 2, 5):
        for horizon in (1, 2, 3, 30, 2000):
            want = [(1, 1)] + [(n, s ** euler_phi(n)) for n in range(2, horizon + 1)]
            assert t_zero_profile(s, horizon) == want, (s, horizon)
