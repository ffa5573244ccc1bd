"""Reference division route: the oracle for `atoms.atom_division`.

This is the division route as it stood before each index n started from
U_n / U_{n/p} for p the smallest prime dividing n (W_{n/2} at p = 2): U_n
divided exactly by the atoms of every proper divisor of n, each taken from
this module's own recursion.
"""

from __future__ import annotations

from functools import cache

from lucasatoms.exactpoly import BiPoly, exact_div_in_s
from lucasatoms.lucasfam import lucas_poly
from lucasatoms.numtheory import divisors


@cache
def u_division_atom(n: int) -> BiPoly:
    """P_n = U_n / prod of the atoms of the proper divisors of n."""
    if n == 1:
        return BiPoly.one()
    poly = lucas_poly(n)
    for d in divisors(n)[1:-1]:
        poly = exact_div_in_s(poly, u_division_atom(d))
    return poly
