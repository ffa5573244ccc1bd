import sys
import threading

import pytest

from lucasatoms import lucasfam
from lucasatoms.errors import InternalConsistencyError
from lucasatoms.exactpoly import BiPoly, UniPoly, _mul_lists
from lucasatoms.lucasfam import (
    LucasParams,
    companion_int,
    companion_poly,
    cyclotomic,
    discriminant,
    lucas_int,
    lucas_poly,
)
from lucasatoms.numtheory import divisors, mobius, radical


def bp(terms):
    return BiPoly(terms)


def poly_recurrence_oracle(n, seed0, seed1):
    """Independent BiPoly recurrence: X_k = s*X_{k-1} + t*X_{k-2}."""
    s, t = BiPoly.var_s(), BiPoly.var_t()
    x0, x1 = seed0, seed1
    for _ in range(n):
        x0, x1 = x1, s * x1 + t * x0
    return x0


def test_lucas_poly_examples():
    assert lucas_poly(0) == BiPoly.zero()
    assert lucas_poly(1) == BiPoly.one()
    assert lucas_poly(2) == BiPoly.var_s()
    assert lucas_poly(6) == bp({(5, 0): 1, (3, 1): 4, (1, 2): 3})


def test_lucas_poly_matches_recurrence_oracle():
    for n in range(0, 31):
        assert lucas_poly(n) == poly_recurrence_oracle(n, BiPoly.zero(), BiPoly.one())


def test_companion_poly_examples():
    assert companion_poly(0) == BiPoly.constant(2)
    assert companion_poly(1) == BiPoly.var_s()
    assert companion_poly(2) == bp({(2, 0): 1, (0, 1): 2})
    assert companion_poly(4) == bp({(4, 0): 1, (2, 1): 4, (0, 2): 2})


def test_companion_poly_matches_recurrence_oracle():
    for n in range(0, 31):
        assert companion_poly(n) == poly_recurrence_oracle(
            n, BiPoly.constant(2), BiPoly.var_s()
        )


def int_recurrence_oracle(n, params):
    """(U_n, W_n) by stepping X_k = s*X_{k-1} + t*X_{k-2} n times."""
    s, t = params.s, params.t
    u0, u1, w0, w1 = 0, 1, 2, s
    for _ in range(n):
        u0, u1, w0, w1 = u1, s * u1 + t * u0, w1, s * w1 + t * w0
    return u0, w0


def test_integer_doubling_matches_recurrence_oracle():
    for s, t in [(1, 1), (2, -3), (-5, 7), (0, 3), (4, 0)]:
        params = LucasParams(s, t)
        for n in range(0, 301):
            u, w = int_recurrence_oracle(n, params)
            assert lucas_int(n, params) == u, (n, s, t)
            assert companion_int(n, params) == w, (n, s, t)


def test_lucas_pair_residues_match_exact_values():
    for s, t in [(1, 1), (-3, 2), (5, -7), (-4, -6), (0, -5)]:
        params = LucasParams(s, t)
        for n in range(0, 301):
            exact = int_recurrence_oracle(n, params)[0], int_recurrence_oracle(n + 1, params)[0]
            assert lucasfam._lucas_pair(n, params) == exact, (n, s, t)
            assert lucasfam._lucas_pair(n, params, 0) == exact, (n, s, t)
            for m in (2, 8, 2**64, 3, 3**5, 5**27, 31**13):
                assert lucasfam._lucas_pair(n, params, m) == (exact[0] % m, exact[1] % m), (n, s, t, m)


def test_integer_specializations():
    fib = LucasParams(1, 1)
    assert lucas_int(0, fib) == 0
    assert lucas_int(6, fib) == 8
    assert lucas_int(12, fib) == 144
    assert companion_int(0, fib) == 2
    assert companion_int(2, fib) == 3
    assert companion_int(3, LucasParams(2, 2)) == 20


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        lucas_poly(-1)
    with pytest.raises(ValueError):
        lucas_int(-1, LucasParams(1, 1))
    with pytest.raises(ValueError):
        companion_int(-1, LucasParams(1, 1))


def test_cyclotomic_examples():
    assert cyclotomic(1) == UniPoly((-1, 1))
    assert cyclotomic(6) == UniPoly((1, -1, 1))
    assert cyclotomic(12) == UniPoly((1, 0, -1, 0, 1))
    with pytest.raises(ValueError):
        cyclotomic(0)


def test_cyclotomic_product_identity():
    # 210, 330, 1155 and 2310 have four or five distinct prime factors; 3773 and
    # 4096 are not squarefree
    for n in list(range(1, 201)) + [210, 330, 1155, 2310, 3773, 4096]:
        prod = [1]
        for d in divisors(n):
            prod = _mul_lists(prod, cyclotomic(d).coeffs)
        assert prod == [-1] + [0] * (n - 1) + [1]  # q^n - 1


def _mul_qd_minus_1(a, d):
    """a(q) * (q^d - 1)."""
    out = [0] * d + a
    for i, v in enumerate(a):
        out[i] -= v
    return out


def _div_qd_minus_1(a, d):
    """Exact quotient a(q) / (q^d - 1) by synthetic division from the top."""
    q = a[d:]
    for k in range(len(q) - d - 1, -1, -1):
        q[k] += q[k + d]
    assert _mul_qd_minus_1(q, d) == a
    return q


def cyclotomic_oracle(n):
    """Coefficients of Phi_n: the squarefree radical's Mobius product of
    q^d - 1, built by multiplying and then dividing, with q -> q^(n/rad)."""
    rad = radical(n)
    poly = [1]
    for d in divisors(rad):
        if mobius(rad // d) == 1:
            poly = _mul_qd_minus_1(poly, d)
    for d in divisors(rad):
        if mobius(rad // d) == -1:
            poly = _div_qd_minus_1(poly, d)
    out = [0] * ((len(poly) - 1) * (n // rad) + 1)
    out[:: n // rad] = poly
    return tuple(out)


def test_cyclotomic_matches_qd_minus_1_oracle():
    for n in list(range(1, 1501)) + [3773, 4096, 2187, 30030]:
        assert cyclotomic(n).coeffs == cyclotomic_oracle(n), n


def test_cyclotomic_rejects_a_non_monic_product(monkeypatch):
    # One entry too many: the series' top entry is then the coefficient of
    # q^(phi + 1), which is 0 for a polynomial of degree phi.
    phi = lucasfam.euler_phi
    monkeypatch.setattr(lucasfam, "euler_phi", lambda n: phi(n) + 1)
    cyclotomic.cache_clear()
    try:
        for n in (15, 36):
            with pytest.raises(InternalConsistencyError):
                cyclotomic(n)
    finally:
        cyclotomic.cache_clear()


def test_cyclotomic_palindromic_and_monic():
    for n in range(2, 121):
        psi = cyclotomic(n)
        assert psi.coeffs[-1] == 1
        assert psi.coeffs == psi.coeffs[::-1]


def test_family_coefficients_nonnegative():
    for n in range(0, 401):
        assert all(c >= 0 for _, _, c in lucas_poly(n).terms())
        assert all(c >= 0 for _, _, c in companion_poly(n).terms())


def test_doubling_identity():
    # U_{2n} = U_n * W_n; the division route returns P_{2n} = W_n at n = 2^k
    for n in [*range(0, 401), 1024, 2048, 3000]:
        assert lucas_poly(2 * n) == lucas_poly(n) * companion_poly(n)


def test_eval_grid_matches_polynomials():
    for n in range(0, 61):
        u, w = lucas_poly(n), companion_poly(n)
        for s in range(-5, 6):
            for t in range(-5, 6):
                assert lucas_int(n, LucasParams(s, t)) == u.eval(s, t), (n, s, t)
                assert companion_int(n, LucasParams(s, t)) == w.eval(s, t), (n, s, t)


def test_discriminant():
    assert discriminant(LucasParams(1, 1)) == 5
    assert discriminant(LucasParams(2, -1)) == 0
    assert discriminant(LucasParams(0, 1)) == 4


def test_concurrent_first_builds_agree_with_integer_recurrence():
    indices = range(2400, 2408)  # above every index the rest of the suite builds
    built, errors = [], []

    def build(offset):
        try:
            for k in range(len(indices)):
                n = indices[(k + offset) % len(indices)]
                built.append((n, lucas_poly(n), companion_poly(n)))
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=build, args=(i,)) for i in range(8)]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(built) == 8 * len(indices)
    fib = LucasParams(1, 1)
    for n, u, w in built:
        assert u.eval(1, 1) == lucas_int(n, fib), n
        assert w.eval(1, 1) == companion_int(n, fib), n
