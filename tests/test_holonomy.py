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
