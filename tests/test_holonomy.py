from fractions import Fraction

import pytest

from lucasatoms.atoms import atom_eval
from lucasatoms.holonomy import (
    _eventually_periodic,
    divisibility_scan,
    fit_recurrence,
    recurrence_row,
    t_zero_profile,
)
from lucasatoms.lucasfam import LucasParams
from lucasatoms.valuations import vp_atom_oracle

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
