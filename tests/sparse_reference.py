"""Sparse reference routines: the oracles for the graded BiPoly core.

Polynomials here are plain dicts (s-degree, t-degree) -> nonzero coefficient.
These are the sparse product, exact division in s and substitution that
BiPoly used before it stored weight lists; they share no code with it.
"""

from __future__ import annotations


def as_dict(poly) -> dict[tuple[int, int], int]:
    return {(i, j): c for i, j, c in poly.terms()}


def _add_into(acc: dict, key: tuple[int, int], value: int) -> None:
    v = acc.get(key, 0) + value
    if v:
        acc[key] = v
    else:
        acc.pop(key, None)


def sparse_mul(f: dict, g: dict) -> dict:
    out: dict[tuple[int, int], int] = {}
    for (i1, j1), c1 in f.items():
        for (i2, j2), c2 in g.items():
            _add_into(out, (i1 + i2, j1 + j2), c1 * c2)
    return out


def sparse_pow(f: dict, n: int) -> dict:
    out = {(0, 0): 1}
    for _ in range(n):
        out = sparse_mul(out, f)
    return out


def sparse_exact_div_in_s(f: dict, g: dict) -> dict:
    """Quotient f / g in Z[t][s]; g monic in s; ValueError on a remainder."""
    if not g:
        raise ValueError("division by the zero polynomial")
    k = max(i for i, _ in g)
    if [(j, c) for (i, j), c in g.items() if i == k] != [(0, 1)]:
        raise ValueError("divisor is not monic in s")
    tail = [(i, j, c) for (i, j), c in g.items() if i != k]
    rem: dict[int, dict[int, int]] = {}
    for (i, j), c in f.items():
        rem.setdefault(i, {})[j] = c
    quot: dict[tuple[int, int], int] = {}
    while rem:
        d = max(rem)
        if d < k:
            raise ValueError("inexact division: nonzero remainder")
        for j, c in rem.pop(d).items():
            quot[(d - k, j)] = c
            for gi, gj, gc in tail:
                row = rem.setdefault(d - k + gi, {})
                nv = row.get(j + gj, 0) - c * gc
                if nv:
                    row[j + gj] = nv
                else:
                    row.pop(j + gj, None)
        for key in [key for key, row in rem.items() if not row]:
            del rem[key]
    return quot


def sparse_subs(f: dict, s_value: dict, t_value: dict) -> dict:
    """f(s_value, t_value), expanded term by term."""
    out: dict[tuple[int, int], int] = {}
    for (i, j), c in f.items():
        term = sparse_mul(sparse_pow(s_value, i), sparse_pow(t_value, j))
        for key, value in term.items():
            _add_into(out, key, c * value)
    return out
