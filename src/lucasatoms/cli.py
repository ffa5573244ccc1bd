"""Command-line front end with stable text and JSON output.

Exit codes: 0 success, 1 domain error, 2 usage error, 3 internal-consistency
error. JSON mode (--json) emits exactly one envelope object on stdout:
{"command": ..., "inputs": ..., "result": ..., "warnings": [...]}.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from math import log10, prod

from .atoms import atom, atom_eval, decompose_ratio, lucanomial, prime_search
from .errors import InternalConsistencyError
from .holonomy import _t_zero_profile, divisibility_scan, fit_recurrence, t_zero_profile
from .lucasfam import LucasParams, companion_int, companion_poly, cyclotomic, lucas_int, lucas_poly
from .numtheory import DETERMINISTIC_PRIMALITY_BOUND, _phi_sieve
from .valuations import (
    classify,
    rank_of_appearance,
    vp_atom_closed,
    vp_atom_mobius,
    vp_atom_oracle,
)

_ROUTE_ALIASES = {
    "sym": "symmetric",
    "div": "division",
    "red": "reduction",
    "checked": "checked",
}


def _int_list(text: str) -> list[int]:
    if not text.strip():
        return []
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}") from exc


def _required_ints(*names: str) -> list[tuple[tuple[str, ...], dict]]:
    return [((f"--{name}",), {"type": int, "required": True}) for name in names]


_N = (("n",), {"type": int})
_EVAL = (("--eval",), {"dest": "eval_at", "nargs": 2, "type": int, "metavar": ("S", "T")})

def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The parser for argv. Every subcommand is registered with its help text,
    but only the one that argv's first non-option token names gets its
    arguments; all of them do when argv is None or names none."""
    parser = argparse.ArgumentParser(
        prog="lucasatoms",
        description="Exact arithmetic for Lucas polynomials and Lucas atoms.",
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON envelope")
    sub = parser.add_subparsers(dest="command", required=True)
    named = next((token for token in argv or () if not token.startswith("-")), None)
    for name, (help_text, arguments, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if named not in _COMMANDS or named == name:
            for args, kwargs in arguments:
                p.add_argument(*args, **kwargs)
    return parser


def _poly_result(
    payload: dict, poly, eval_at: list[int] | None, value_at=None, head: tuple[str, ...] = ()
) -> tuple[dict, list[str], list[str]]:
    """The result of a command that prints one polynomial after the lines in
    head; under --eval, also its value at (S, T), checked by a second route, value_at."""
    text = str(poly)
    payload["polynomial"] = text
    lines = [*head, text]
    if eval_at is not None:
        s0, t0 = eval_at
        value = poly.eval(s0, t0)
        if value != value_at(LucasParams(s0, t0)):
            raise InternalConsistencyError(f"--eval at s={s0}, t={t0}: a second route disagrees")
        payload["eval"] = {"s": s0, "t": t0, "value": value}
        lines.append(f"at s={s0}, t={t0}: {value}")
    return payload, lines, []


def _run_atom(args) -> tuple[dict, list[str], list[str]]:
    route = _ROUTE_ALIASES[args.route]
    value_at = partial(atom_eval, args.n)
    return _poly_result({"n": args.n, "route": route}, atom(args.n, route), args.eval_at, value_at)


def _run_family(args) -> tuple[dict, list[str], list[str]]:
    lucas = args.command == "lucas"
    poly, value_at = (lucas_poly, lucas_int) if lucas else (companion_poly, companion_int)
    return _poly_result({"n": args.n}, poly(args.n), args.eval_at, partial(value_at, args.n))


def _run_cyclotomic(args) -> tuple[dict, list[str], list[str]]:
    return _poly_result({"n": args.n}, cyclotomic(args.n), None)


def _run_decompose(args) -> tuple[dict, list[str], list[str]]:
    dec = decompose_ratio(args.num, args.den)
    payload = {
        "numerators": args.num,
        "denominators": args.den,
        "exponents": {str(d): {"a": a, "b": b} for d, (a, b) in dec.exponents.items()},
        "is_polynomial": dec.is_polynomial,
        "quotient_exponents": (
            None
            if dec.quotient_exponents is None
            else {str(d): e for d, e in dec.quotient_exponents.items()}
        ),
    }
    lines = [f"polynomial: {'true' if dec.is_polynomial else 'false'}"]
    for d, (a, b) in dec.exponents.items():
        lines.append(f"d={d}: a={a} b={b}")
    if dec.quotient_exponents is not None:
        quotient = " ".join(f"{d}^{e}" for d, e in dec.quotient_exponents.items())
        lines.append(f"quotient: {quotient or '1'}")
    return payload, lines, []


def _run_lucanomial(args) -> tuple[dict, list[str], list[str]]:
    exponents, poly = lucanomial(args.n, args.k)
    payload = {"n": args.n, "k": args.k, "exponents": {str(d): e for d, e in exponents.items()}}
    head = ("exponents: " + (" ".join(f"{d}^{e}" for d, e in exponents.items()) or "1"),)
    value_at = lambda p: prod(atom_eval(d, p) ** e for d, e in exponents.items())  # noqa: E731
    result = _poly_result(payload, poly, args.eval_at, value_at, head)
    if args.eval_at is not None:  # also prod_{i <= k} U_{n-k+i} / U_i, through no atom
        s0, t0 = args.eval_at
        params = LucasParams(s0, t0)
        den = prod(lucas_int(i, params) for i in range(1, args.k + 1))
        if den:  # no U_i is 0
            num = prod(lucas_int(args.n - args.k + i, params) for i in range(1, args.k + 1))
            if divmod(num, den) != (payload["eval"]["value"], 0):
                how = "is not exact" if num % den else "disagrees"
                raise InternalConsistencyError(
                    f"--eval at s={s0}, t={t0}: the quotient of Lucas values {how}"
                )
    return result


def _run_val(args) -> tuple[dict, list[str], list[str]]:
    params = LucasParams(args.s, args.t)
    fns = {
        "closed": vp_atom_closed,
        "mobius": vp_atom_mobius,
        "oracle": vp_atom_oracle,
    }
    methods = tuple(fns) if args.method == "all" else (args.method,)
    values, warnings = {}, []
    for name in methods:
        try:
            values[name] = fns[name](args.p, params, args.n)
        except ValueError as exc:
            # A zero U_d with d | n stops only the Mobius sum: P_n can be nonzero.
            if args.method != "all" or name != "mobius":
                raise
            warnings.append(f"mobius route skipped: {exc}")
    if len(set(values.values())) > 1:
        raise InternalConsistencyError(
            f"valuation methods disagree: {values}"
        )
    payload = {
        "p": args.p,
        "s": args.s,
        "t": args.t,
        "n": args.n,
        "method": args.method,
        "values": values,
    }
    line = " ".join(f"{name}={value}" for name, value in values.items())
    return payload, [line], warnings


def _run_rank(args) -> tuple[dict, list[str], list[str]]:
    res = rank_of_appearance(args.p, LucasParams(args.s, args.t))
    payload = {
        "p": args.p,
        "s": args.s,
        "t": args.t,
        "rho": res.rho,
        "divides_bound": res.divides_bound,
    }
    rho = "undefined" if res.rho is None else res.rho
    bound = "-" if res.divides_bound is None else res.divides_bound
    return payload, [f"rho={rho} divides_bound={bound}"], []


def _run_classify(args) -> tuple[dict, list[str], list[str]]:
    case = classify(args.p, LucasParams(args.s, args.t))
    payload = {
        "p": case.p,
        "s": case.params.s,
        "t": case.params.t,
        "regime": case.regime.value,
        "a": case.a,
        "b": case.b,
        "s_prime": case.s_prime,
        "t_prime": case.t_prime,
        "delta": case.delta,
        "k": case.k,
        "lambda": case.lam,
    }
    show = lambda v, inf: ("inf" if inf else "-") if v is None else v  # noqa: E731
    line = (
        f"regime={case.regime.value} a={show(case.a, True)} b={case.b}"
        f" s_prime={show(case.s_prime, False)} t_prime={case.t_prime}"
        f" delta={case.delta} k={show(case.k, False)} lambda={show(case.lam, False)}"
    )
    return payload, [line], []


def _run_scan(args) -> tuple[dict, list[str], list[str]]:
    pattern = divisibility_scan(args.p, LucasParams(args.s, args.t), args.limit)
    payload = {
        "p": args.p,
        "s": args.s,
        "t": args.t,
        "limit": args.limit,
        "hits": list(pattern.hit_indices),
        "matches_closed_form": pattern.matches,
        "ap_expressible": pattern.ap_expressible,
    }
    lines = [
        "hits: " + " ".join(str(n) for n in pattern.hit_indices),
        f"matches_closed_form: {'true' if pattern.matches else 'false'}",
        f"ap_expressible: {'true' if pattern.ap_expressible else 'false'}",
    ]
    return payload, lines, []


def _run_fit(args) -> tuple[dict, list[str], list[str]]:
    n_from = args.n_from if args.n_from is not None else 10
    if args.n_to is not None:
        n_to = args.n_to
    else:
        n_to = n_from + 3 * (args.order + 1) * (args.degree + 1)
    fit = fit_recurrence(
        LucasParams(args.s, args.t), args.order, args.degree, n_from, n_to
    )
    payload = {
        "s": args.s,
        "t": args.t,
        "order": fit.order,
        "degree": fit.degree,
        "from": fit.window[0],
        "to": fit.window[1],
        "status": fit.status,
        "coefficients": (
            None
            if fit.coefficients is None
            else [[str(c) for c in row] for row in fit.coefficients]
        ),
        "dimension": fit.dimension,
        "witness_end": fit.witness_end,
        "certificate": (
            None
            if fit.certificate is None
            else [str(c) for c in fit.certificate]
        ),
    }
    if fit.status == "refuted":
        lines = [f"refuted: first inconsistent prefix ends at n={fit.witness_end}"]
    else:
        lines = [f"fit: dimension={fit.dimension}"]
        for j, row in enumerate(fit.coefficients or ()):
            terms = " + ".join(
                f"{c}*n^{r}" if r else str(c)
                for r, c in enumerate(row)
                if c
            )
            lines.append(f"G_{j}(n) = {terms or '0'}")
    return payload, lines, []


# The most characters `tzero` may print, text or JSON. It counts at most
# phi(n) log10|s| + 1 digits and a sign for s^phi(n), N's digits for n, six
# separators per entry and 130 for the JSON envelope with s and N in it twice.
_TZERO_BOUND = 10**6


def _run_tzero(args) -> tuple[dict, list[str], list[str]]:
    size = 130 + 2 * len(str(args.s)) + (args.limit + 2) * (len(str(args.limit)) + 8)
    # one phi sieve serves the bound and the profile
    phi = _phi_sieve(args.limit) if size <= _TZERO_BOUND and args.limit > 0 else None
    if phi is not None and abs(args.s) > 1:
        size += (sum(phi) - 1) * log10(abs(args.s))
    if size > _TZERO_BOUND:
        raise ValueError(f"tzero could print over {_TZERO_BOUND:.0e} characters")
    profile = t_zero_profile(args.s, args.limit) if phi is None else _t_zero_profile(args.s, phi)
    payload = {"s": args.s, "limit": args.limit, "values": [[n, v] for n, v in profile]}
    return payload, [f"{n} {v}" for n, v in profile], []


def _run_primesearch(args) -> tuple[dict, list[str], list[str]]:
    results = prime_search(args.n, args.bound)
    warnings = []
    if any(value >= DETERMINISTIC_PRIMALITY_BOUND for _, _, value in results):
        warnings.append("probabilistic primality: some verdicts exceed the deterministic bound")
    payload = {
        "n": args.n,
        "bound": args.bound,
        "hits": [[s, t, value] for s, t, value in results],
    }
    return payload, [f"{s} {t} {value}" for s, t, value in results], warnings


# Each subcommand's help text, its arguments as add_argument's (args, kwargs),
# and the handler that runs it.
_COMMANDS = {
    "atom": (
        "Lucas atom P_N",
        [_N, (("--route",), {"choices": sorted(_ROUTE_ALIASES), "default": "checked"}), _EVAL],
        _run_atom,
    ),
    "lucas": ("Lucas polynomial U_N", [_N, _EVAL], _run_family),
    "companion": ("companion polynomial W_N", [_N, _EVAL], _run_family),
    "cyclotomic": ("cyclotomic polynomial of index N", [_N], _run_cyclotomic),
    "decompose": (
        "polynomiality of a Lucas-product ratio",
        [
            (("--num",), {"type": _int_list, "required": True, "metavar": "A,B,..."}),
            (("--den",), {"type": _int_list, "default": [], "metavar": "C,D,..."}),
        ],
        _run_decompose,
    ),
    "lucanomial": ("Lucas binomial analogue (N over K)", [_N, (("k",), {"type": int}), _EVAL], _run_lucanomial),
    "val": (
        "p-adic valuation of an atom value",
        [
            *_required_ints("p", "s", "t", "n"),
            (("--method",), {"choices": ("closed", "mobius", "oracle", "all"), "default": "all"}),
        ],
        _run_val,
    ),
    "rank": ("rank of appearance", _required_ints("p", "s", "t"), _run_rank),
    "classify": ("valuation regime", _required_ints("p", "s", "t"), _run_classify),
    "scan": ("divisibility pattern of p | P_n", _required_ints("p", "s", "t", "limit"), _run_scan),
    "fit": (
        "fit or refute a polynomial recurrence",
        [
            *_required_ints("s", "t", "order", "degree"),
            (("--from",), {"dest": "n_from", "type": int, "default": None}),
            (("--to",), {"dest": "n_to", "type": int, "default": None}),
        ],
        _run_fit,
    ),
    "tzero": ("the t = 0 profile s^phi(n)", _required_ints("s", "limit"), _run_tzero),
    "primesearch": ("prime atom values on a grid", [_N, *_required_ints("bound")], _run_primesearch),
}
# The handler of each subcommand, for the benchmark's self-test, which lists the
# subcommands from it; dispatch reads _COMMANDS.
_HANDLERS = {name: handler for name, (_, _, handler) in _COMMANDS.items()}


def _inputs_echo(args: argparse.Namespace) -> dict:
    skip = {"command", "json"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def main(argv: list[str] | None = None) -> int:
    """Run one command. Values of any size print in full: CPython's limit on
    int/str conversion is lifted for the command and put back on return."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _run(argv: list[str] | None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        payload, lines, warnings = _COMMANDS[args.command][2](args)
    except InternalConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        import json

        envelope = {
            "command": args.command,
            "inputs": _inputs_echo(args),
            "result": payload,
            "warnings": warnings,
        }
        print(json.dumps(envelope))
    else:
        for line in lines:
            print(line)
        for warning in warnings:
            print(f"warning: {warning}", file=sys.stderr)
    return 0


def entry() -> None:
    raise SystemExit(main())
