"""The package exports exactly the public names of its modules, as the same objects."""

import ast
import importlib
import pkgutil
from pathlib import Path

import lucasatoms

MODULES = ("atoms", "errors", "exactpoly", "holonomy", "lucasfam", "numtheory", "valuations")

# Every name the package exported while its import list was written by hand.
EARLIER_EXPORTS = [
    "AtomDecomposition",
    "BiPoly",
    "DETERMINISTIC_PRIMALITY_BOUND",
    "DivisibilityPattern",
    "InternalConsistencyError",
    "LinearSolveResult",
    "LucasParams",
    "RankResult",
    "RecurrenceFit",
    "Regime",
    "UniPoly",
    "ValuationCase",
    "atom",
    "atom_division",
    "atom_eval",
    "atom_reduction",
    "atom_symmetric",
    "classify",
    "companion_int",
    "companion_poly",
    "cyclotomic",
    "decompose_ratio",
    "discriminant",
    "divisibility_scan",
    "divisors",
    "euler_phi",
    "exact_div_in_s",
    "factorize",
    "fit_recurrence",
    "is_prime",
    "legendre",
    "lucanomial",
    "lucas_int",
    "lucas_poly",
    "mobius",
    "prime_search",
    "rank_of_appearance",
    "solve_rational",
    "t_zero_profile",
    "vp_atom_closed",
    "vp_atom_mobius",
    "vp_atom_oracle",
    "vp_int",
    "vp_lucas_closed",
    "zero_atom_indices",
]


def _modules():
    return [importlib.import_module(f"lucasatoms.{name}") for name in MODULES]


def test_every_library_module_is_reexported():
    found = {info.name for info in pkgutil.iter_modules(lucasatoms.__path__)}
    assert found - {"cli", "__main__"} == set(MODULES)


def test_all_is_the_sorted_union_of_the_module_lists():
    union = {name for module in _modules() for name in module.__all__}
    assert lucasatoms.__all__ == sorted(union)


def test_each_name_is_the_module_object():
    for module in _modules():
        for name in module.__all__:
            assert getattr(lucasatoms, name) is getattr(module, name), (module.__name__, name)


def test_earlier_exports_are_kept():
    assert set(EARLIER_EXPORTS) <= set(lucasatoms.__all__)


def test_every_private_function_has_a_caller_in_src():
    # a module-level _helper that only its own body (or only tests) names is dead
    src = Path(__file__).resolve().parents[1] / "src" / "lucasatoms"
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(src.glob("*.py"))]
    helpers = [
        node
        for tree in trees
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]
    assert helpers
    for helper in helpers:
        own = {id(node) for node in ast.walk(helper)}
        assert any(
            id(node) not in own
            and helper.name in (getattr(node, "id", None), getattr(node, "attr", None))
            for tree in trees
            for node in ast.walk(tree)
        ), helper.name
