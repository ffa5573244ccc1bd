"""Command-line front end with stable text and JSON output.

Exit codes: 0 success, 1 domain error, 2 usage error, 3 internal-consistency
error. JSON mode (--json) emits exactly one envelope object on stdout:
{"command": ..., "inputs": ..., "result": ..., "warnings": [...]}.
"""

from __future__ import annotations

import argparse
import json
import sys

from .atoms import atom, decompose_ratio, lucanomial, prime_search
from .errors import InternalConsistencyError
from .holonomy import divisibility_scan, fit_recurrence, t_zero_profile
from .lucasfam import LucasParams, companion_poly, cyclotomic, lucas_poly
from .numtheory import DETERMINISTIC_PRIMALITY_BOUND
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


def _required_ints(parser: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        parser.add_argument(f"--{name}", type=int, required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lucasatoms",
        description="Exact arithmetic for Lucas polynomials and Lucas atoms.",
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON envelope")
    sub = parser.add_subparsers(dest="command", required=True)

    p_atom = sub.add_parser("atom", help="Lucas atom P_N")
    p_atom.add_argument("n", type=int)
    p_atom.add_argument("--route", choices=sorted(_ROUTE_ALIASES), default="checked")
    p_atom.add_argument("--eval", dest="eval_at", nargs=2, type=int, metavar=("S", "T"))

    for name, help_text in (("lucas", "Lucas polynomial U_N"), ("companion", "companion polynomial W_N")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("n", type=int)
        p.add_argument("--eval", dest="eval_at", nargs=2, type=int, metavar=("S", "T"))

    p_cyc = sub.add_parser("cyclotomic", help="cyclotomic polynomial of index N")
    p_cyc.add_argument("n", type=int)

    p_dec = sub.add_parser("decompose", help="polynomiality of a Lucas-product ratio")
    p_dec.add_argument("--num", type=_int_list, required=True, metavar="A,B,...")
    p_dec.add_argument("--den", type=_int_list, default=[], metavar="C,D,...")

    p_lucan = sub.add_parser("lucanomial", help="Lucas binomial analogue (N over K)")
    p_lucan.add_argument("n", type=int)
    p_lucan.add_argument("k", type=int)
    p_lucan.add_argument("--eval", dest="eval_at", nargs=2, type=int, metavar=("S", "T"))

    p_val = sub.add_parser("val", help="p-adic valuation of an atom value")
    _required_ints(p_val, "p", "s", "t", "n")
    p_val.add_argument(
        "--method", choices=("closed", "mobius", "oracle", "all"), default="all"
    )

    for name in ("rank", "classify"):
        p = sub.add_parser(
            name,
            help="rank of appearance" if name == "rank" else "valuation regime",
        )
        _required_ints(p, "p", "s", "t")

    p_scan = sub.add_parser("scan", help="divisibility pattern of p | P_n")
    _required_ints(p_scan, "p", "s", "t", "limit")

    p_fit = sub.add_parser("fit", help="fit or refute a polynomial recurrence")
    _required_ints(p_fit, "s", "t", "order", "degree")
    p_fit.add_argument("--from", dest="n_from", type=int, default=None)
    p_fit.add_argument("--to", dest="n_to", type=int, default=None)

    p_tzero = sub.add_parser("tzero", help="the t = 0 profile s^phi(n)")
    _required_ints(p_tzero, "s", "limit")

    p_ps = sub.add_parser("primesearch", help="prime atom values on a grid")
    p_ps.add_argument("n", type=int)
    _required_ints(p_ps, "bound")

    return parser


def _poly_result(
    payload: dict, poly, eval_at: list[int] | None, head: tuple[str, ...] = ()
) -> tuple[dict, list[str], list[str]]:
    """The result of a command that prints one polynomial after the lines in
    head; under --eval, also the value of that polynomial at (S, T)."""
    text = str(poly)
    payload["polynomial"] = text
    lines = [*head, text]
    if eval_at is not None:
        s0, t0 = eval_at
        value = poly.eval(s0, t0)
        payload["eval"] = {"s": s0, "t": t0, "value": value}
        lines.append(f"at s={s0}, t={t0}: {value}")
    return payload, lines, []


def _run_atom(args) -> tuple[dict, list[str], list[str]]:
    route = _ROUTE_ALIASES[args.route]
    return _poly_result({"n": args.n, "route": route}, atom(args.n, route), args.eval_at)


def _run_family(args) -> tuple[dict, list[str], list[str]]:
    poly = (lucas_poly if args.command == "lucas" else companion_poly)(args.n)
    return _poly_result({"n": args.n}, poly, args.eval_at)


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
    return _poly_result(payload, poly, args.eval_at, head)


def _run_val(args) -> tuple[dict, list[str], list[str]]:
    params = LucasParams(args.s, args.t)
    methods = (
        ("closed", "mobius", "oracle") if args.method == "all" else (args.method,)
    )
    fns = {
        "closed": vp_atom_closed,
        "mobius": vp_atom_mobius,
        "oracle": vp_atom_oracle,
    }
    values = {name: fns[name](args.p, params, args.n) for name in methods}
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
    line = " ".join(f"{name}={values[name]}" for name in methods)
    return payload, [line], []


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


def _run_tzero(args) -> tuple[dict, list[str], list[str]]:
    profile = t_zero_profile(args.s, args.limit)
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


_HANDLERS = {
    "atom": _run_atom,
    "lucas": _run_family,
    "companion": _run_family,
    "cyclotomic": _run_cyclotomic,
    "decompose": _run_decompose,
    "lucanomial": _run_lucanomial,
    "val": _run_val,
    "rank": _run_rank,
    "classify": _run_classify,
    "scan": _run_scan,
    "fit": _run_fit,
    "tzero": _run_tzero,
    "primesearch": _run_primesearch,
}


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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        payload, lines, warnings = _HANDLERS[args.command](args)
    except InternalConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
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
