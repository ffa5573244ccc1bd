"""Seeded op lists for the four workloads.

An op is ``[kind, args, check]``: the worker passes ``args`` to the library and
keeps ``check`` (seeded evaluation points, expected ranks) for the output
checks, which run after the timed loop. The seed moves parameters only inside
fixed size classes, so every seed gives the same op count and about the same
cost.
"""

from __future__ import annotations

import random

from oracle import degenerate, is_prime, primes_between, rank_walk_steps

WORKLOADS = ("atoms-build", "valuations-grid", "holonomy-refute", "cli-session")

# Checked atoms at indices of matched shape: equal phi(n), equal number of
# divisors and prime exponents, and checked-route cost within about 10% of each
# other once the small atoms are cached.
LARGE_ATOM_CLASSES = (
    (1209, 1221),  # phi = 720, three distinct primes
    (1159, 1199),  # phi = 1080, two distinct primes
)
CHECKED_UP_TO = 250
SYMMETRIC_FAMILY = tuple(343 * n for n in range(1, 12) if n % 7)
LUCANOMIAL_RANGE = range(20, 41)

# Rank-of-appearance size classes: primes in [lo, 2 lo) whose divisor walk
# takes steps within 2% of the target, so each op costs the same.
RANK_CLASSES = ((10**5, 2 * 10**5, 10), (10**6, 15 * 10**5, 3))  # (lo, steps, count)
VAL_PRIMES = (2, 3, 5, 7, 11)
VAL_INDICES = range(2, 201)
# Oracle triples at n = 3q, q prime in [500, 550): phi(n) = 2(q - 1) and the
# cyclotomic build costs about the same for every q.
ORACLE_Q = tuple(primes_between(500, 550))
ORACLE_COUNT = 4

SCAN_LIMITS = (500, 1000, 1500)
SCANS_PER_LIMIT = 2
FIT_ORDERS = range(1, 5)
FIT_DEGREES = range(0, 4)
FIT_FROM = 10  # the CLI's default window start
# Fits cost more as the values grow; the class fixes the dominant root
# (s + sqrt(s^2 + 4t)) / 2 of X^2 - sX - t to [2.7, 3.35].
FIT_PAIRS = tuple(
    (s, t)
    for s in range(1, 4)
    for t in range(1, 7)
    if 2.7 <= (s + (s * s + 4 * t) ** 0.5) / 2 <= 3.35
)


def _signed(rng: random.Random, lo: int, hi: int) -> int:
    """Integer with lo <= |x| <= hi and a random sign."""
    return rng.choice((-1, 1)) * rng.randint(lo, hi)


def _unit(rng: random.Random, p: int, lo: int, hi: int) -> int:
    """Integer with lo <= |x| <= hi, a random sign and p not dividing x."""
    while True:
        x = _signed(rng, lo, hi)
        if x % p:
            return x


def _points(rng: random.Random, count: int = 2) -> list[list[int]]:
    """Non-degenerate integer points (s, t) for evaluation checks."""
    out = []
    while len(out) < count:
        s, t = rng.randint(1, 9), rng.randint(-9, 9)
        if not degenerate(s, t):
            out.append([s, t])
    return out


def regime_pairs(rng: random.Random, p: int) -> list[tuple[str, int, int]]:
    """One non-degenerate (s, t) per valuation regime reachable at p."""
    shapes = [("divides-t-only", 0, 1), ("b-gt-2a", 1, 3), ("b-eq-2a", 1, 2), ("b-lt-2a", 2, 1)]
    if p in (2, 3):
        shapes.append(("b-eq-2a-minus-1", 1, 1))
    out = []
    for name, a, b in shapes:
        while True:
            s = _unit(rng, p, 1, 25) * p**a
            t = _unit(rng, p, 1, 25) * p**b
            if not degenerate(s, t):
                break
        out.append((name, s, t))
    coprime = ["coprime-t-even-s", "coprime-t-odd-s"] if p == 2 else ["coprime-t"]
    for name in coprime:
        while True:
            s, t = _signed(rng, 1, 40), _unit(rng, p, 1, 40)
            if p == 2 and (s % 2 == 0) != (name == "coprime-t-even-s"):
                continue
            if not degenerate(s, t):
                break
        out.append((name, s, t))
    return out


def _rank_prime(rng: random.Random, lo: int, steps: int) -> tuple[int, int, int]:
    while True:
        p = rng.randrange(lo, 2 * lo)
        if not is_prime(p):
            continue
        s, t = rng.randint(1, 20), rng.randint(1, 20)
        if t % p == 0 or (s * s + 4 * t) % p == 0:
            continue
        if abs(rank_walk_steps(p, s, t) - steps) <= 0.02 * steps:
            return p, s, t


def atoms_build(rng: random.Random) -> list[list]:
    ops = [["atom", [n], _points(rng)] for n in range(2, CHECKED_UP_TO + 1)]
    ops += [["atom", [rng.choice(cls)], _points(rng)] for cls in LARGE_ATOM_CLASSES]
    ops += [["atom_symmetric", [n], _points(rng, 1)] for n in SYMMETRIC_FAMILY]
    ops += [["lucanomial", [n, n // 2], _points(rng)] for n in LUCANOMIAL_RANGE]
    return ops


def valuations_grid(rng: random.Random) -> list[list]:
    ops = []
    for lo, steps, count in RANK_CLASSES:
        for _ in range(count):
            p, s, t = _rank_prime(rng, lo, steps)
            ops.append(["rank", [p, s, t], None])
    for p in VAL_PRIMES:
        for _, s, t in regime_pairs(rng, p):
            ops += [["val", [p, s, t, n], None] for n in VAL_INDICES]
    for q in rng.sample(ORACLE_Q, ORACLE_COUNT):
        p = rng.choice(VAL_PRIMES)
        while True:
            s, t = _signed(rng, 20, 40), _unit(rng, p, 20, 40)
            if not degenerate(s, t):
                break
        ops.append(["val", [p, s, t, 3 * q], None])
    return ops


def holonomy_refute(rng: random.Random) -> list[list]:
    ops = []
    scan_primes = rng.sample(primes_between(3, 60), len(SCAN_LIMITS) * SCANS_PER_LIMIT)
    for i, limit in enumerate(SCAN_LIMITS * SCANS_PER_LIMIT):
        while True:
            s, t = _signed(rng, 1, 9), _signed(rng, 1, 9)
            if not degenerate(s, t):
                break
        ops.append(["scan", [scan_primes[i], s, t, limit], None])
    ops.sort(key=lambda op: op[1][3])
    for order in FIT_ORDERS:
        for degree in FIT_DEGREES:
            s, t = rng.choice(FIT_PAIRS)
            n_to = FIT_FROM + 3 * (order + 1) * (degree + 1)
            ops.append(["fit", [s, t, order, degree, FIT_FROM, n_to], None])
    return ops


def cli_session(rng: random.Random) -> list[list]:
    """About 30 invocations covering all 13 subcommands, text and --json,
    plus expected usage (2) and domain (1) errors. The check field holds the
    expected exit code."""

    def pt() -> list[str]:
        s, t = _points(rng, 1)[0]
        return [str(s), str(t)]

    def r(lo: int, hi: int) -> str:
        return str(rng.randint(lo, hi))

    p_small = str(rng.choice(primes_between(5, 30)))
    s, t = pt()
    rank_p = str(rng.choice(primes_between(10**4, 2 * 10**4)))
    calls = [
        ["atom", r(20, 40)],
        ["--json", "atom", r(20, 40), "--route", "sym", "--eval", *pt()],
        ["atom", r(20, 40), "--route", "div"],
        ["atom", r(20, 40), "--route", "red", "--eval", *pt()],
        ["lucas", r(20, 40), "--eval", *pt()],
        ["--json", "lucas", r(20, 40)],
        ["companion", r(20, 40), "--eval", *pt()],
        ["--json", "companion", r(20, 40)],
        ["cyclotomic", r(50, 100)],
        ["--json", "cyclotomic", r(50, 100)],
        ["decompose", "--num", f"{r(10, 20)},{r(10, 20)}", "--den", r(4, 9)],
        ["--json", "decompose", "--num", f"{r(10, 20)},{r(10, 20)}", "--den", r(4, 9)],
        ["lucanomial", r(12, 20), r(3, 6), "--eval", *pt()],
        ["--json", "lucanomial", r(12, 20), r(3, 6)],
        ["val", "--p", p_small, "--s", s, "--t", t, "--n", r(20, 200)],
        ["--json", "val", "--p", p_small, "--s", s, "--t", t, "--n", r(20, 200), "--method", "oracle"],
        ["rank", "--p", rank_p, "--s", s, "--t", t],
        ["--json", "rank", "--p", p_small, "--s", s, "--t", t],
        ["classify", "--p", p_small, "--s", s, "--t", t],
        ["--json", "classify", "--p", "2", "--s", s, "--t", t],
        ["scan", "--p", p_small, "--s", s, "--t", t, "--limit", r(150, 250)],
        ["--json", "scan", "--p", p_small, "--s", s, "--t", t, "--limit", r(150, 250)],
        ["fit", "--s", s, "--t", t, "--order", "2", "--degree", "1"],
        ["--json", "fit", "--s", s, "--t", t, "--order", "2", "--degree", "2"],
        ["tzero", "--s", r(2, 9), "--limit", r(20, 40)],
        ["--json", "tzero", "--s", r(2, 9), "--limit", r(20, 40)],
        ["primesearch", r(5, 12), "--bound", r(3, 5)],
        ["--json", "primesearch", r(5, 12), "--bound", r(3, 5)],
    ]
    ops = [["cli", c, 0] for c in calls]
    ops += [
        ["cli", ["atom", "0"], 1],
        ["cli", ["--json", "classify", "--p", p_small, "--s", s, "--t", "0"], 1],
        ["cli", ["rank", "--p", p_small], 2],
        ["cli", ["no-such-command", r(1, 9)], 2],
    ]
    return ops


_GENERATORS = {
    "atoms-build": atoms_build,
    "valuations-grid": valuations_grid,
    "holonomy-refute": holonomy_refute,
    "cli-session": cli_session,
}


def generate(workload: str, seed: int) -> list[list]:
    """The op list of a workload for a seed; the same seed gives the same list."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))
