"""Output checks, run after the timed loop.

``check_op`` returns the op's canonical output text, which is digested and
compared with the digests recorded for the shipped seeds, and the reason the
output is wrong, or None. The reasons come from oracles that hold for any
seed: polynomial values against the Mobius product of U values, the three
valuation routes against each other and against the integer value, the scan's
own closed-form comparison, and refutation certificates against a system
rebuilt from independently computed atom values.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import oracle


DIGEST_LEN = 6


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:DIGEST_LEN]


def poly_value(poly, s: int, t: int) -> int:
    return sum(c * s**i * t**j for i, j, c in poly.terms())


def _bad_points(poly, points, value_of) -> str | None:
    for s, t in points:
        got, want = poly_value(poly, s, t), value_of(s, t)
        if got != want:
            return f"value at ({s}, {t}) is {got}, expected {want}"
    return None


def lucanomial_value(n: int, k: int, s: int, t: int) -> int:
    u = oracle.lucas_values(n, s, t)
    num = den = 1
    for i in range(1, k + 1):
        num *= u[n - k + i]
        den *= u[i]
    return num // den


def lucanomial_exponents(n: int, k: int) -> dict[int, int]:
    exps = {d: n // d - k // d - (n - k) // d for d in range(2, n + 1)}
    return {d: e for d, e in exps.items() if e}


def _refutation_problem(
    s: int, t: int, order: int, degree: int, n_from: int, witness_end: int, certificate
) -> str | None:
    """None if the certificate proves the system on n_from..witness_end
    inconsistent. Atom sequences satisfy no such recurrence, so every fit
    the workloads ask for must be refuted."""
    u = oracle.lucas_values(witness_end, s, t)
    values = {n: oracle.atom_value(n, s, t, u) for n in range(n_from - order, witness_end + 1)}
    rows, rhs = oracle.recurrence_system(values, order, degree, n_from, witness_end)
    if oracle.certifies_inconsistency([Fraction(c) for c in certificate], rows, rhs):
        return None
    return "certificate does not prove inconsistency"


def _check_library(kind: str, args: list, check, result) -> tuple[str, str | None]:
    if kind in ("atom", "atom_symmetric"):
        n = args[0]
        return str(result), _bad_points(result, check, lambda s, t: oracle.atom_value(n, s, t))
    if kind == "lucanomial":
        n, k = args
        exps, poly = result
        text = " ".join(f"{d}^{e}" for d, e in exps.items()) + "\n" + str(poly)
        if exps != lucanomial_exponents(n, k):
            return text, "exponent map differs from floor(n/d) - floor(k/d) - floor((n-k)/d)"
        return text, _bad_points(poly, check, lambda s, t: lucanomial_value(n, k, s, t))
    if kind == "rank":
        p, s, t = args
        text = f"{result.rho} {result.divides_bound}"
        want = (oracle.rank_by_order(p, s, t), oracle.rank_bound(p, s, t))
        if (result.rho, result.divides_bound) != want:
            return text, f"rank {text}, expected {want}"
        return text, None
    if kind == "val":
        text = " ".join(map(str, result))
        return text, None if len(set(result)) == 1 else f"routes disagree: {text}"
    if kind == "scan":
        text = " ".join(map(str, result.hit_indices)) + f"\n{result.ap_expressible}"
        return text, None if result.matches else "hits differ from the closed forms"
    if kind == "fit":
        s, t, order, degree, n_from, _ = args
        text = f"{result.status} {result.witness_end}"
        if result.status != "refuted":
            return text, f"expected a refutation, got {result.status}"
        return text, _refutation_problem(s, t, order, degree, n_from, result.witness_end, result.certificate)
    raise ValueError(f"unknown op kind {kind!r}")


class _Cli:
    """Positional view of a CLI op's argv."""

    def __init__(self, argv: list[str]):
        self.json = argv[0] == "--json"
        rest = argv[1:] if self.json else argv
        self.command, self.tail = rest[0], rest[1:]

    def opt(self, name: str) -> int:
        return int(self.tail[self.tail.index(name) + 1])

    def eval_point(self) -> tuple[int, int] | None:
        if "--eval" not in self.tail:
            return None
        i = self.tail.index("--eval")
        return int(self.tail[i + 1]), int(self.tail[i + 2])


def _eval_value(out: str, payload: dict | None) -> int:
    if payload is not None:
        return payload["eval"]["value"]
    return int(out.splitlines()[-1].rsplit(":", 1)[1])


def _check_cli(argv: list[str], expected_code: int, result) -> tuple[str, str | None]:
    code, out, err = result
    cli = _Cli(argv)
    text = f"{code}\n{out}\n{err}"
    if code != expected_code:
        return text, f"exit code {code}, expected {expected_code}: {err.strip()[:200]}"
    if code == 1:
        return text, None if err.startswith("error:") else "domain error without an error line"
    if code == 2:
        return text, None if "usage:" in err else "usage error without usage text"
    payload = None
    if cli.json:
        envelope = json.loads(out)
        if set(envelope) != {"command", "inputs", "result", "warnings"}:
            return text, "malformed JSON envelope"
        payload = envelope["result"]
        if cli.command == "fit":
            certificate = payload.pop("certificate")
            text = f"{code}\n{json.dumps(envelope, sort_keys=True)}\n{err}"
            payload["certificate"] = certificate
    name = cli.command
    point = cli.eval_point()
    if point is not None:
        s, t = point
        n = int(cli.tail[0])
        want = {
            "atom": lambda: oracle.atom_value(n, s, t),
            "lucas": lambda: oracle.lucas_values(n, s, t)[n],
            "companion": lambda: oracle.companion_value(n, s, t),
            "lucanomial": lambda: lucanomial_value(n, int(cli.tail[1]), s, t),
        }[name]()
        if _eval_value(out, payload) != want:
            return text, f"{name} value differs from the oracle {want}"
    if name == "val":
        p, s, t, n = (cli.opt(k) for k in ("--p", "--s", "--t", "--n"))
        if payload is not None:
            values = list(payload["values"].values())
        else:
            values = [int(part.split("=")[1]) for part in out.split()]
        want = oracle.vp(p, oracle.atom_value(n, s, t))
        if set(values) != {want}:
            return text, f"valuations {values}, expected {want}"
    if name == "scan":
        ok = payload["matches_closed_form"] if payload else "matches_closed_form: true" in out
        if not ok:
            return text, "scan hits differ from the closed forms"
    if name == "fit":
        status = payload["status"] if payload else out.split(":")[0]
        if status != "refuted":
            return text, f"expected a refutation, got {status}"
    if name == "fit" and payload is not None:
        s, t, order, degree = (cli.opt(k) for k in ("--s", "--t", "--order", "--degree"))
        problem = _refutation_problem(
            s, t, order, degree, payload["from"], payload["witness_end"], payload["certificate"]
        )
        if problem is not None:
            return text, problem
    return text, None


def check_op(kind: str, args: list, check, result) -> tuple[str, str | None]:
    """(canonical output text, reason it is wrong or None)."""
    if isinstance(result, BaseException):
        return f"raised {type(result).__name__}", f"raised {type(result).__name__}: {result}"
    if kind == "cli":
        return _check_cli(args, check, result)
    return _check_library(kind, args, check, result)
