"""One cold pass over a workload's op list, in a fresh interpreter.

Usage (from run.py): ``python3 perfbench/worker.py SPAWN_TIME`` with the
request as JSON on stdin: ``{"workload", "ops", "trace", "digests"}``. The
first thing the worker does is import ``lucasatoms.cli``; set-up time runs
from SPAWN_TIME (``time.monotonic`` in the parent, which is the same clock in
every process) until that import returns. The worker then times each op with
``perf_counter`` in a closed loop, checks every output after the loop and
writes one JSON result to stdout: raw times, and times normalised to a fixed
machine speed (see speed.py).
"""

import sys
import time

IMPORT_STARTED_AT = time.monotonic()
import lucasatoms.cli  # noqa: E402,F401  (set-up ends when this import returns)

IMPORTED_AT = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import lucasatoms  # noqa: E402
import speed  # noqa: E402
from checks import check_op, digest  # noqa: E402
from tracing import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
CLI_TIMEOUT_S = 60

def _runners(cli_command: list[str], env: dict) -> dict:
    L = lucasatoms
    P = L.LucasParams

    def cli(*argv):
        proc = subprocess.run(
            [*cli_command, *argv], capture_output=True, text=True, env=env, timeout=CLI_TIMEOUT_S
        )
        return proc.returncode, proc.stdout, proc.stderr

    return {
        "atom": lambda n: L.atom(n),
        "atom_symmetric": lambda n: L.atom_symmetric(n),
        "lucanomial": lambda n, k: L.lucanomial(n, k),
        "rank": lambda p, s, t: L.rank_of_appearance(p, P(s, t)),
        "val": lambda p, s, t, n: (
            L.vp_atom_closed(p, P(s, t), n),
            L.vp_atom_mobius(p, P(s, t), n),
            L.vp_atom_oracle(p, P(s, t), n),
        ),
        "scan": lambda p, s, t, limit: L.divisibility_scan(p, P(s, t), limit),
        "fit": lambda s, t, order, degree, n_from, n_to: L.fit_recurrence(
            P(s, t), order, degree, n_from, n_to
        ),
        "cli": cli,
    }


def _merge_cli_trace(total: dict, part: dict) -> None:
    for group, stats in part["groups"].items():
        acc = total["groups"].setdefault(group, {"calls": 0, "self_s": 0.0})
        acc["calls"] += stats["calls"]
        acc["self_s"] += stats["self_s"]
    for key in ("counters", "repeats"):
        for name, value in part[key].items():
            total[key][name] = total[key].get(name, 0) + value
    total["cli_import_s"].append(part["import_s"])


def run_pass(request: dict, spawned_at: float) -> dict:
    ops, trace = request["ops"], request["trace"]
    is_cli = request["workload"] == "cli-session"
    env = dict(os.environ)
    trace_dir = None
    if is_cli and trace:
        trace_dir = tempfile.mkdtemp(prefix=".perfbench-", dir=HERE)
        cli_command = [sys.executable, str(HERE / "cli_traced.py")]
        cli_trace = {"groups": {}, "counters": {}, "repeats": {}, "cli_import_s": []}
    else:
        cli_command = [sys.executable, "-m", "lucasatoms"]
    run = _runners(cli_command, env)

    tracer = Tracer() if trace and not is_cli else None
    if tracer is not None:
        tracer.install()
    # Each op is normalised by the mean of the speed references just before
    # and after it; CLI ops by interpreter start-up, the rest by the loop.
    if is_cli:
        reference, nominal, every = (lambda: speed.spawn_s(env)), speed.SPAWN_NOMINAL_S, speed.SPAWN_EVERY_S
    else:
        reference, nominal, every = speed.loop_s, speed.LOOP_NOMINAL_S, speed.LOOP_EVERY_S
    results, op_s, op_ref = [], [], []
    refs = [reference()]
    since_ref = 0.0
    for i, (kind, args, _) in enumerate(ops):
        fn = run[kind]
        if since_ref >= every:
            refs.append(reference())
            since_ref = 0.0
        if trace_dir is not None:
            env["PERFBENCH_TRACE_OUT"] = os.path.join(trace_dir, f"{i}.json")
        span = tracer.begin() if tracer is not None else None
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # an unexpected exception is a failed op
            result = exc
        t1 = time.perf_counter()
        if span is not None:
            tracer.end(span)
        results.append(result)
        op_s.append(t1 - t0)
        op_ref.append(len(refs) - 1)
        since_ref += t1 - t0
    refs.append(reference())
    who = resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF
    rss_kib = resource.getrusage(who).ru_maxrss
    if tracer is not None:
        tracer.uninstall()

    failures, digests = [], []
    for (kind, args, check), result in zip(ops, results):
        try:
            text, problem = check_op(kind, args, check, result)
        except Exception as exc:  # a malformed output is a failed op
            text, problem = f"unreadable {type(exc).__name__}", f"check raised {exc!r}"
        digests.append(digest(text))
        if problem is not None:
            failures.append(f"{kind} {args}: {problem}")
    expected = request.get("digests")
    if expected is not None:
        for i, (got, want) in enumerate(zip(digests, expected)):
            if got != want:
                failures.append(f"{ops[i][0]} {ops[i][1]}: output digest changed")
        if len(expected) != len(digests):
            failures.append("recorded digests do not match the op count")

    scale = [nominal * 2 / (refs[k] + refs[k + 1]) for k in op_ref]
    out = {
        "setup_s": IMPORTED_AT - spawned_at,
        "wall_s": sum(op_s),
        "op_s": op_s,
        "op_norm_s": [t * f for t, f in zip(op_s, scale)],
        "rss_mib": rss_kib / 1024,
        "attempted": len(ops),
        "failures": failures,
        "digests": "".join(digests),
    }
    if tracer is not None:
        out["trace"] = tracer.summary()
        out["trace"]["cli_import_s"] = [IMPORTED_AT - IMPORT_STARTED_AT]
    elif trace_dir is not None:
        for i in range(len(ops)):
            path = os.path.join(trace_dir, f"{i}.json")
            if os.path.exists(path):  # absent only if the process died
                with open(path) as fh:
                    _merge_cli_trace(cli_trace, json.load(fh))
                os.remove(path)
        os.rmdir(trace_dir)
        cli_trace["output_bytes"] = sum(
            len(r[1].encode()) + len(r[2].encode()) for r in results if isinstance(r, tuple)
        )
        out["trace"] = cli_trace
    return out


def main() -> None:
    spawned_at = float(sys.argv[1])
    request = json.load(sys.stdin)
    json.dump(run_pass(request, spawned_at), sys.stdout)


if __name__ == "__main__":
    main()
