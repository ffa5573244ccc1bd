"""Tests of the benchmark itself: span arithmetic, binding installation and
restoration, seeded op lists, the output checks and the metric declarations.

    python3 -m pytest perfbench -q
"""

import importlib
import json
import random
import re
import sys
import types
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import MODULES, Tracer, self_times  # noqa: E402

import lucasatoms  # noqa: E402
from lucasatoms import BiPoly, LucasParams  # noqa: E402


def test_self_times_on_a_synthetic_tree():
    # op [0, 10] -> atoms.checked [1, 9] -> atoms.division [2, 8]
    #   -> atoms.division [3, 5] (same-layer recursion) -> exactpoly.x [3.5, 4.5]
    #   -> exactpoly.x [6, 7]
    groups = ["bench", "atoms.checked", "atoms.division", "atoms.division", "exactpoly.x", "exactpoly.x"]
    parents = [-1, 0, 1, 2, 3, 2]
    starts = [0.0, 1.0, 2.0, 3.0, 3.5, 6.0]
    ends = [10.0, 9.0, 8.0, 5.0, 4.5, 7.0]
    out = self_times(groups, parents, starts, ends)
    assert out == {
        "bench": 2.0,
        "atoms.checked": 2.0,
        "atoms.division": (6.0 - 2.0 - 1.0) + (2.0 - 1.0),
        "exactpoly.x": 2.0,
    }
    assert sum(out.values()) == ends[0] - starts[0]


def _bindings():
    """Every (namespace, name) -> object for the package, its modules and classes."""
    spaces = [lucasatoms] + [importlib.import_module(f"lucasatoms.{m}") for m in MODULES]
    spaces += [lucasatoms.BiPoly, lucasatoms.UniPoly]
    return {(ns.__name__, name): obj for ns in spaces for name, obj in vars(ns).items()}


def test_every_binding_is_wrapped_and_restored():
    before = _bindings()
    numtheory = importlib.import_module("lucasatoms.numtheory")
    divisors = numtheory.divisors
    tracer = Tracer()
    tracer.install()
    try:
        during = _bindings()
        # every module that imported divisors sees the same wrapper
        holders = [key for key, obj in before.items() if obj is divisors]
        assert len(holders) >= 6
        wrapped = {during[key] for key in holders}
        assert len(wrapped) == 1 and next(iter(wrapped)).__wrapped__ is divisors
        for key in (("BiPoly", "__mul__"), ("BiPoly", "__rmul__"), ("BiPoly", "__radd__"), ("UniPoly", "exact_div")):
            assert during[key] is not before[key]
        assert isinstance(during[("BiPoly", "from_weight_list")], classmethod)
        # exactly the public functions and the class methods changed
        changed = {key for key in before if during[key] is not before[key]}
        assert changed == {(ns.__name__, name) for ns, name, _ in tracer._restore}
        for m in MODULES:
            mod = importlib.import_module(f"lucasatoms.{m}")
            for name in getattr(mod, "__all__", ()):
                obj = before[(mod.__name__, name)]
                if callable(obj) and not isinstance(obj, type):
                    assert during[(mod.__name__, name)].__wrapped__ is obj
        # a traced call records the recursion of the division route
        lucasatoms.atom_division(60)
        (BiPoly.var_s() + 1) * 3
        summary = tracer.summary()
        assert summary["groups"]["atoms.division"]["calls"] > 1
        assert summary["groups"]["exactpoly.bipoly_mul"]["calls"] >= 1
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def _size_class(op):
    kind, args, _ = op
    if kind == "atom" and args[0] > workloads.CHECKED_UP_TO:
        return kind, [i for i, cls in enumerate(workloads.LARGE_ATOM_CLASSES) if args[0] in cls]
    if kind == "rank":
        p, s, t = args
        lo, steps, _ = next(c for c in workloads.RANK_CLASSES if c[0] <= p < 2 * c[0])
        assert abs(oracle.rank_walk_steps(p, s, t) - steps) <= 0.02 * steps
        return kind, lo
    if kind == "val":
        p, s, t, n = args
        assert not oracle.degenerate(s, t)
        if n > max(workloads.VAL_INDICES):
            assert n // 3 in workloads.ORACLE_Q
            return kind, "oracle"
        return kind, p, n
    if kind == "scan":
        return kind, args[3]
    if kind == "fit":
        return kind, args[2:]
    if kind == "cli":
        return kind, [a for a in args if not re.fullmatch(r"-?[0-9,]+", a)], op[2]
    return kind, args


def test_op_lists_are_seeded_and_size_matched():
    for name in workloads.WORKLOADS:
        a, b = workloads.generate(name, 7), workloads.generate(name, 8)
        assert workloads.generate(name, 7) == a
        assert a != b
        assert len(a) == len(b)
        assert [_size_class(op) for op in a] == [_size_class(op) for op in b]


def test_valuation_pairs_cover_every_regime():
    lib_regimes = set()
    for p in workloads.VAL_PRIMES:
        for _, s, t in workloads.regime_pairs(random.Random(p), p):
            lib_regimes.add(lucasatoms.classify(p, LucasParams(s, t)).regime)
    assert lib_regimes == set(lucasatoms.Regime)


def test_cli_session_covers_every_subcommand():
    from lucasatoms.cli import _HANDLERS

    ops = workloads.generate("cli-session", 1)
    used = {_size_class(op)[1][1 if op[1][0] == "--json" else 0] for op in ops}
    assert set(_HANDLERS) <= used
    assert {op[2] for op in ops} == {0, 1, 2}


def test_checks_reject_wrong_outputs():
    points = [[2, 3], [1, -5]]
    good = lucasatoms.atom(12)
    assert checks.check_op("atom", [12], points, good)[1] is None
    assert checks.check_op("atom", [12], points, good + BiPoly.var_t())[1] is not None
    assert checks.check_op("val", [3, 2, 5, 9], None, (1, 1, 2))[1] is not None
    assert checks.check_op("rank", [101, 1, 1], None, lucasatoms.rank_of_appearance(101, LucasParams(1, 1)))[1] is None
    fit = lucasatoms.fit_recurrence(LucasParams(1, 1), 2, 1, 10, 28)
    assert checks.check_op("fit", [1, 1, 2, 1, 10, 28], None, fit)[1] is None
    bad = list(fit.certificate)
    bad[0] += Fraction(1)
    forged = types.SimpleNamespace(**{**vars(fit), "certificate": tuple(bad)})
    assert checks.check_op("fit", [1, 1, 2, 1, 10, 28], None, forged)[1] is not None
    assert checks.check_op("cli", ["atom", "0"], 1, (0, "1\n", ""))[1] is not None


def test_declared_metrics_match_the_driver():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
