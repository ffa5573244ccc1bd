"""Per-layer spans recorded from outside the library.

``Tracer.install`` replaces every public function of every lucasatoms module
under every name that binds it (``from .numtheory import divisors`` copies the
object into five other namespaces) and every method of ``BiPoly`` and
``UniPoly`` on the class, aliases such as ``__rmul__`` included. Each wrapper
records a span: group, parent span, start and end. Spans live in flat arrays
while the run goes and are reduced to self times at the end; ``uninstall``
puts every original object back.

A span covers the call only. A generator method (``BiPoly.terms``) returns at
once, so the time spent iterating it lands in its caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import types
from array import array
from time import perf_counter

from oracle import phi

MODULES = ("numtheory", "exactpoly", "lucasfam", "atoms", "valuations", "holonomy", "cli")
CLASSES = ("BiPoly", "UniPoly")
BENCH_GROUP = "bench"  # the benchmark's own op spans; their self time is unaccounted

# Function or method name -> subgroup within its layer. Functions not listed
# fall into "<layer>.other"; numtheory and cli have no subgroups.
SUBGROUPS = {
    "BiPoly.__mul__": "bipoly_mul",
    "BiPoly.__rmul__": "bipoly_mul",
    "BiPoly.subs": "subs",
    "exact_div_in_s": "exact_div_in_s",
    "solve_rational": "solve_rational",
    "lucas_poly": "poly",
    "companion_poly": "poly",
    "lucas_weights": "poly",
    "companion_weights": "poly",
    "cyclotomic": "cyclotomic",
    "lucas_int": "int",
    "companion_int": "int",
    "atom_symmetric": "symmetric",
    "atom_division": "division",
    "atom_reduction": "reduction",
    "reduction_is_informative": "reduction",
    "atom": "checked",
    "atom_eval": "atom_eval",
    "rank_of_appearance": "rank",
    "vp_atom_closed": "closed",
    "vp_lucas_closed": "closed",
    "vp_atom_mobius": "mobius",
    "vp_atom_oracle": "oracle",
    "divisibility_scan": "scan",
    "fit_recurrence": "fit",
    "recurrence_row": "fit",
}
FLAT_LAYERS = ("numtheory", "cli")
REPEAT_LAYERS = ("numtheory", "atoms", "valuations")


def group_of(layer: str, name: str) -> str:
    if layer in FLAT_LAYERS:
        return layer
    if name.startswith("UniPoly."):
        return f"{layer}.unipoly"
    return f"{layer}.{SUBGROUPS.get(name, 'other')}"


def _freeze(value):
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def self_times(groups, parents, starts, ends) -> dict[str, float]:
    """Self time per group: each span's duration minus its direct children's.

    Children nest inside their parent, so the time they cover is the sum of
    their durations. ``groups`` holds group names, ``parents`` the index of the
    parent span or -1.
    """
    n = len(groups)
    covered = [0.0] * n
    for i in range(n):
        if parents[i] >= 0:
            covered[parents[i]] += ends[i] - starts[i]
    out: dict[str, float] = {}
    for i in range(n):
        g = groups[i]
        out[g] = out.get(g, 0.0) + (ends[i] - starts[i]) - covered[i]
    return out


class Tracer:
    """Span recorder for one process; install, run, uninstall, then summary()."""

    def __init__(self) -> None:
        self.group_names: list[str] = [BENCH_GROUP]
        self._group_ids: dict[str, int] = {BENCH_GROUP: 0}
        self.gids = array("l")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.counters: dict[str, int] = {
            "exactpoly.bipoly_mul.term_pairs": 0,
            "exactpoly.solve_rational.cells": 0,
            "lucasfam.int.steps": 0,
            "holonomy.fit.calls": 0,
        }
        self.atom_eval_indices: list[int] = []
        self.seen: dict[str, set] = {layer: set() for layer in REPEAT_LAYERS}
        self.repeats: dict[str, int] = {layer: 0 for layer in REPEAT_LAYERS}
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _gid(self, group: str) -> int:
        gid = self._group_ids.get(group)
        if gid is None:
            gid = self._group_ids[group] = len(self.group_names)
            self.group_names.append(group)
        return gid

    def begin(self) -> int:
        """Open one of the benchmark's own op spans; returns its index for end()."""
        idx = len(self.starts)
        self.gids.append(self._group_ids[BENCH_GROUP])
        self.parents.append(self.stack[-1])
        self.starts.append(perf_counter())
        self.ends.append(0.0)
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self.stack.pop()

    def _counter(self, name: str):
        counters = self.counters
        if name == "BiPoly.__mul__" or name == "BiPoly.__rmul__":

            def count(args):
                a, b = args[0], args[1]
                pairs = len(a._c) * (len(b._c) if hasattr(b, "_c") else 1)
                counters["exactpoly.bipoly_mul.term_pairs"] += pairs

        elif name == "solve_rational":

            def count(args):
                rows = args[0]
                counters["exactpoly.solve_rational.cells"] += len(rows) * len(rows[0])

        elif name in ("lucas_int", "companion_int"):

            def count(args):
                counters["lucasfam.int.steps"] += args[0]

        elif name == "fit_recurrence":

            def count(args):
                counters["holonomy.fit.calls"] += 1

        elif name == "atom_eval":
            count = lambda args: self.atom_eval_indices.append(args[0])  # noqa: E731
        else:
            count = None
        return count

    def _wrap(self, fn, layer: str, name: str):
        gid = self._gid(group_of(layer, name))
        count = self._counter(name)
        seen = self.seen.get(layer)
        repeats = self.repeats
        gids, parents, starts, ends, stack = self.gids, self.parents, self.starts, self.ends, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                count(args)
            if seen is not None:
                key = (name, _freeze(args), tuple(sorted(kwargs.items())))
                try:
                    if key in seen:
                        repeats[layer] += 1
                    else:
                        seen.add(key)
                except TypeError:  # unhashable arguments count as unseen
                    pass
            idx = len(starts)
            gids.append(gid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                starts[idx] = t0
                stack.pop()

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function under every binding, and the class methods."""
        package = importlib.import_module("lucasatoms")
        modules = {m: importlib.import_module(f"lucasatoms.{m}") for m in MODULES}
        wrappers: dict[int, object] = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (
                    not name.startswith("_")
                    and callable(obj)
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == mod.__name__
                ):
                    wrappers[id(obj)] = self._wrap(obj, layer, name)
        for ns in (package, *modules.values()):
            for name, obj in list(vars(ns).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._restore.append((ns, name, obj))
                    setattr(ns, name, wrapper)
        exactpoly = modules["exactpoly"]
        for cls_name in CLASSES:
            cls = getattr(exactpoly, cls_name)
            for name, attr in list(vars(cls).items()):
                qual = f"{cls_name}.{name}"
                if isinstance(attr, types.FunctionType):
                    new = self._wrap(attr, "exactpoly", qual)
                elif isinstance(attr, (classmethod, staticmethod)):
                    new = type(attr)(self._wrap(attr.__func__, "exactpoly", qual))
                else:
                    continue
                self._restore.append((cls, name, attr))
                setattr(cls, name, new)

    def uninstall(self) -> None:
        """Put every original object back under the name it was taken from."""
        for ns, name, obj in reversed(self._restore):
            setattr(ns, name, obj)
        self._restore.clear()

    # -- reduction -------------------------------------------------------------

    def summary(self) -> dict:
        """Self time and calls per group, counters and repeat counts."""
        names = self.group_names
        groups = [names[g] for g in self.gids]
        self_s = self_times(groups, self.parents, self.starts, self.ends)
        calls: dict[str, int] = {}
        for g in groups:
            calls[g] = calls.get(g, 0) + 1
        counters = dict(self.counters)
        counters["atoms.atom_eval.phi_sum"] = sum(phi(n) for n in self.atom_eval_indices if n > 1)
        return {
            "groups": {g: {"calls": calls[g], "self_s": self_s[g]} for g in calls},
            "counters": counters,
            "repeats": {layer: self.repeats[layer] for layer in REPEAT_LAYERS},
        }
