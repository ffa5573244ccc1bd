"""Benchmark driver for lucasatoms.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each pass runs the workload's op list
once in a fresh worker process (cold caches, as a CLI user sees them); passes
repeat one at a time until S seconds have gone by. With ``--trace 0`` the last
line of stdout is a JSON object with the end-to-end metrics, built from each
op's median latency over the passes; with ``--trace 1`` untraced and traced
passes alternate and the metrics are the per-layer ones of the median traced
pass. ``--workload all`` runs every workload and prints a table with every
end-to-end metric and the error rate.

``--record-digests`` runs one pass and stores its output digests for the seed
in ``perfbench/digests.json``; later runs of that seed compare against them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
from checks import DIGEST_LEN  # noqa: E402
from oracle import loglog_slope, phi  # noqa: E402
from tracing import MODULES, REPEAT_LAYERS  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

DIGESTS = HERE / "digests.json"
MIN_PASSES = 3
MIN_TRACED_PASSES = 1
SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 150
STOP_STARTING_AFTER_S = 100  # never start a pass this late, whatever --seconds says

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mib", "MiB"),
)

# (name, unit, better) for the traced run.
PER_LAYER = (
    ("numtheory.calls", "count", "lower"),
    ("numtheory.self_s", "s", "lower"),
    ("numtheory.repeat_ratio", "ratio", "higher"),
    ("exactpoly.self_s", "s", "lower"),
    ("exactpoly.bipoly_mul.calls", "count", "lower"),
    ("exactpoly.bipoly_mul.self_s", "s", "lower"),
    ("exactpoly.bipoly_mul.term_pairs", "count", "lower"),
    ("exactpoly.subs.self_s", "s", "lower"),
    ("exactpoly.exact_div_in_s.calls", "count", "lower"),
    ("exactpoly.exact_div_in_s.self_s", "s", "lower"),
    ("exactpoly.unipoly.self_s", "s", "lower"),
    ("exactpoly.solve_rational.calls", "count", "lower"),
    ("exactpoly.solve_rational.self_s", "s", "lower"),
    ("exactpoly.solve_rational.cells", "count", "lower"),
    ("lucasfam.self_s", "s", "lower"),
    ("lucasfam.poly.self_s", "s", "lower"),
    ("lucasfam.cyclotomic.calls", "count", "lower"),
    ("lucasfam.cyclotomic.self_s", "s", "lower"),
    ("lucasfam.int.self_s", "s", "lower"),
    ("lucasfam.int.steps", "count", "lower"),
    ("atoms.self_s", "s", "lower"),
    ("atoms.repeat_ratio", "ratio", "higher"),
    ("atoms.symmetric.self_s", "s", "lower"),
    ("atoms.division.self_s", "s", "lower"),
    ("atoms.reduction.self_s", "s", "lower"),
    ("atoms.checked.self_s", "s", "lower"),
    ("atoms.atom_eval.calls", "count", "lower"),
    ("atoms.atom_eval.self_s", "s", "lower"),
    ("atoms.atom_eval.phi_sum", "count", "lower"),
    ("atoms.symmetric.size_exponent", "1", "lower"),
    ("valuations.self_s", "s", "lower"),
    ("valuations.repeat_ratio", "ratio", "higher"),
    ("valuations.rank.self_s", "s", "lower"),
    ("valuations.closed.self_s", "s", "lower"),
    ("valuations.mobius.self_s", "s", "lower"),
    ("valuations.oracle.self_s", "s", "lower"),
    ("holonomy.self_s", "s", "lower"),
    ("holonomy.scan.self_s", "s", "lower"),
    ("holonomy.scan.size_exponent", "1", "lower"),
    ("holonomy.fit.self_s", "s", "lower"),
    ("holonomy.fit.solves_per_fit", "1", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.output_bytes", "B", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.unaccounted_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def spawn_worker(root: Path, request: dict) -> dict:
    """Run one pass in a fresh interpreter and return its result, with its
    set-up time normalised by a bare interpreter start just before it."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    reference_s = speed.spawn_s(env)
    spawned_at = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), repr(spawned_at)],
        input=json.dumps(request),
        capture_output=True,
        text=True,
        env=env,
        cwd=root,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout)
    result["setup_s"] *= speed.SPAWN_NOMINAL_S / reference_s
    return result


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method) of at least two values."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def op_times(passes: list[dict]) -> list[float]:
    """Each op's median speed-normalised latency over the passes.

    Normalisation leaves a two-sided error, so the median is steadier than
    the best of the passes (a third of the spread between runs, measured).
    """
    return [statistics.median(times) for times in zip(*(p["op_norm_s"] for p in passes))]


def end_to_end(passes: list[dict], setups: list[float]) -> dict[str, float]:
    op_ms = [s * 1000 for s in op_times(passes)]
    return {
        "wall_s": sum(op_ms) / 1000,
        "setup_s": statistics.median(setups),
        "op_p50_ms": statistics.median(op_ms),
        "op_p90_ms": percentile(op_ms, 90),
        "peak_rss_mib": statistics.median(p["rss_mib"] for p in passes),
    }


def _size_exponent(ops: list, op_s: list[float], kind: str, size) -> float:
    points = [(size(args), t) for (k, args, _), t in zip(ops, op_s) if k == kind]
    if len({x for x, _ in points}) < 2:
        return 0.0
    return loglog_slope([x for x, _ in points], [t for _, t in points])


def layer_metrics(ops: list, traced: dict, overhead_ratio: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass, in raw seconds."""
    trace = traced["trace"]
    groups, counters = trace["groups"], trace["counters"]

    def self_s(prefix: str) -> float:
        return sum(
            g["self_s"] for name, g in groups.items() if name == prefix or name.startswith(prefix + ".")
        )

    def calls(prefix: str) -> int:
        return sum(
            g["calls"] for name, g in groups.items() if name == prefix or name.startswith(prefix + ".")
        )

    out: dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        head, _, stat = name.rpartition(".")
        if stat == "self_s":
            out[name] = self_s(head)
        elif stat == "calls":
            out[name] = calls(head)
        elif name in counters:
            out[name] = counters[name]
    for layer in REPEAT_LAYERS:
        n = calls(layer)
        out[f"{layer}.repeat_ratio"] = trace["repeats"].get(layer, 0) / n if n else 0.0
    fits = counters.get("holonomy.fit.calls", 0)
    out["holonomy.fit.solves_per_fit"] = calls("exactpoly.solve_rational") / fits if fits else 0.0
    out["atoms.symmetric.size_exponent"] = _size_exponent(
        ops, traced["op_s"], "atom_symmetric", lambda args: phi(args[0])
    )
    out["holonomy.scan.size_exponent"] = _size_exponent(
        ops, traced["op_s"], "scan", lambda args: args[3]
    )
    out["cli.import_s"] = statistics.median(trace["cli_import_s"])
    out["cli.output_bytes"] = trace.get("output_bytes", 0)
    out["trace.wall_s"] = traced["wall_s"]
    out["trace.unaccounted_s"] = traced["wall_s"] - sum(self_s(layer) for layer in MODULES)
    out["trace.overhead_ratio"] = overhead_ratio
    return out


def load_digests() -> dict:
    with open(DIGESTS) as fh:
        return json.load(fh)


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    ops = generate(workload, seed)
    digests = load_digests().get(workload, {}).get(str(seed))
    expected = None if digests is None else [
        digests[i : i + DIGEST_LEN] for i in range(0, len(digests), DIGEST_LEN)
    ]
    plain = {"workload": workload, "ops": ops, "trace": False, "digests": expected}
    started = time.monotonic()
    spawn_worker(root, {"workload": workload, "ops": [], "trace": False})  # writes bytecode caches

    # In a traced run, untraced and traced passes alternate so that both see
    # the same machine states. The per-layer metrics come from the median
    # traced pass; the overhead ratio compares it with the median untraced one.
    modes = (False, True) if trace else (False,)
    min_rounds = MIN_TRACED_PASSES if trace else MIN_PASSES
    passes: dict[bool, list[dict]] = {False: [], True: []}
    failures, attempted, rounds = [], 0, 0
    while rounds < min_rounds or time.monotonic() < started + seconds:
        if rounds and time.monotonic() - started > STOP_STARTING_AFTER_S:
            break
        try:
            results = [spawn_worker(root, dict(plain, trace=mode)) for mode in modes]
        except (RuntimeError, subprocess.SubprocessError, json.JSONDecodeError) as exc:
            failures += [f"pass failed: {exc}"] + ["op not run"] * (len(ops) - 1)
            attempted += len(ops)
            break
        for mode, result in zip(modes, results):
            passes[mode].append(result)
            failures += result["failures"]
            attempted += result["attempted"]
        rounds += 1

    metrics: dict[str, dict] = {}
    if rounds and trace:
        traced = sorted(passes[True], key=lambda p: sum(p["op_norm_s"]))[len(passes[True]) // 2]
        overhead = sum(traced["op_norm_s"]) / statistics.median(sum(p["op_norm_s"]) for p in passes[False])
        values = layer_metrics(ops, traced, overhead)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
    elif rounds:
        setups = [p["setup_s"] for p in passes[False]]
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn_worker(root, {"workload": workload, "ops": [], "trace": False})["setup_s"])
        values = end_to_end(passes[False], setups)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for line in failures[:10]:
        print(f"failed: {line}", file=sys.stderr)
    return {
        "correct": not failures and rounds > 0,
        "attempted": max(attempted, 1),
        "failed": len(failures),
        "metrics": metrics,
    }


def record_digests(root: Path, workload: str, seed: int) -> None:
    ops = generate(workload, seed)
    result = spawn_worker(root, {"workload": workload, "ops": ops, "trace": False})
    if result["failures"]:
        raise SystemExit("refusing to record digests of a failing pass: " + result["failures"][0])
    table = load_digests()
    table.setdefault(workload, {})[str(seed)] = result["digests"]
    with open(DIGESTS, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


def report_all(root: Path, seed: int, seconds: float) -> dict:
    """Every end-to-end metric of every workload, with the error rate."""
    table = {}
    print(f"{'workload':<16} {'metric':<13} {'value':>12} unit")
    for workload in WORKLOADS:
        result = run_workload(root, workload, seed, seconds, trace=False)
        table[workload] = result
        rows = [(name, m["value"], m["unit"]) for name, m in result["metrics"].items()]
        rows.append(("error_rate", result["failed"] / result["attempted"], "ratio"))
        for name, value, unit in rows:
            print(f"{workload:<16} {name:<13} {value:>12.6g} {unit}")
        print(f"{workload:<16} {'ops':<13} {result['failed']:>5} failed of {result['attempted']} attempted")
    return table


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "lucasatoms" / "__init__.py").is_file():
        print("error: run from the root of a lucasatoms checkout (src/lucasatoms not found)", file=sys.stderr)
        return 2
    if args.record_digests:
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            record_digests(root, workload, args.seed)
        return 0
    if args.workload == "all":
        table = report_all(root, args.seed, args.seconds)
        print(json.dumps(table))
        return 0 if all(r["correct"] for r in table.values()) else 1
    result = run_workload(root, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
