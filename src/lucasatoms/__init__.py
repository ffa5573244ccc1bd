"""Exact arithmetic for Lucas polynomials and Lucas atoms.

Construction of the atoms P_n by three cross-checked routes, polynomiality
decisions for ratios of Lucas-polynomial products, closed-form p-adic
valuations verified against brute-force oracles, and desk-scale refutation of
polynomial recurrences for atom sequences.

The package exports exactly the names in its modules' ``__all__`` lists.
"""

from . import atoms, errors, exactpoly, holonomy, lucasfam, numtheory, valuations
from .atoms import *
from .errors import *
from .exactpoly import *
from .holonomy import *
from .lucasfam import *
from .numtheory import *
from .valuations import *

__version__ = "0.1.0"

_MODULES = (atoms, errors, exactpoly, holonomy, lucasfam, numtheory, valuations)
__all__ = sorted({name for module in _MODULES for name in module.__all__})
