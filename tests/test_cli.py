import contextlib
import json
import shlex
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

from lucasatoms import LucasParams, atom_eval, cli, companion_int, lucanomial, lucas_int


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_atom_golden(capsys):
    code, out, err = run_cli(capsys, "atom", "6")
    assert (code, out, err) == (0, "s^2 + 3*t\n", "")


def test_atom_unit_golden(capsys):
    code, out, _ = run_cli(capsys, "atom", "1")
    assert code == 0 and out == "1\n"


def test_atom_route_and_eval(capsys):
    code, out, _ = run_cli(capsys, "atom", "8", "--route", "sym", "--eval", "2", "2")
    assert code == 0
    assert out == "s^4 + 4*s^2*t + 2*t^2\nat s=2, t=2: 56\n"


def test_lucas_and_companion_golden(capsys):
    code, out, _ = run_cli(capsys, "lucas", "6")
    assert code == 0 and out == "s^5 + 4*s^3*t + 3*s*t^2\n"
    code, out, _ = run_cli(capsys, "companion", "4", "--eval", "1", "1")
    assert code == 0 and out == "s^4 + 4*s^2*t + 2*t^2\nat s=1, t=1: 7\n"


def test_cyclotomic_golden(capsys):
    code, out, _ = run_cli(capsys, "cyclotomic", "12")
    assert code == 0 and out == "q^4 - q^2 + 1\n"


def test_val_method_all_golden(capsys):
    code, out, _ = run_cli(
        capsys, "val", "--p", "2", "--s", "1", "--t", "1", "--n", "6", "--method", "all"
    )
    assert code == 0
    assert out == "closed=2 mobius=2 oracle=2\n"


def test_val_single_method(capsys):
    code, out, _ = run_cli(
        capsys, "val", "--p", "5", "--s", "1", "--t", "1", "--n", "25",
        "--method", "oracle",
    )
    assert code == 0 and out == "oracle=1\n"


def test_val_closed_where_only_a_lucas_divisor_vanishes(capsys):
    # U_3(1, -1) = 0 but P_6(1, -1) = -2: the closed form answers, the
    # Mobius route (which needs v_2(U_3)) still rejects the index.
    argv = ("val", "--p", "2", "--s", "1", "--t", "-1", "--n", "6")
    code, out, err = run_cli(capsys, *argv, "--method", "closed")
    assert (code, out, err) == (0, "closed=1\n", "")
    code, out, _ = run_cli(capsys, "--json", *argv, "--method", "closed")
    assert code == 0
    assert json.loads(out)["result"]["values"] == {"closed": 1}
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: valuation of zero")


def test_val_disagreement_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(cli, "vp_atom_mobius", lambda p, params, n: 99)
    code, out, err = run_cli(
        capsys, "val", "--p", "2", "--s", "1", "--t", "1", "--n", "6"
    )
    assert code == 3
    assert out == ""
    assert "disagree" in err


def test_domain_error_exits_1(capsys):
    code, out, err = run_cli(capsys, "atom", "0")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_usage_error_exits_2(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 2
    assert run_cli(capsys, "atom")[0] == 2
    assert run_cli(capsys, "atom", "6", "--route", "bogus")[0] == 2


def test_json_envelope_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "--json", "atom", "6", "--eval", "1", "1")
    assert code == 0
    assert out.count("\n") == 1  # exactly one object on stdout
    envelope = json.loads(out)
    assert list(envelope) == ["command", "inputs", "result", "warnings"]
    assert envelope["command"] == "atom"
    assert envelope["result"]["polynomial"] == "s^2 + 3*t"
    assert envelope["result"]["eval"] == {"s": 1, "t": 1, "value": 4}
    assert envelope["warnings"] == []
    assert json.dumps(envelope) + "\n" == out  # byte-identical re-render


def test_json_val_payload(capsys):
    code, out, _ = run_cli(
        capsys, "--json", "val", "--p", "2", "--s", "2", "--t", "2", "--n", "4"
    )
    assert code == 0
    envelope = json.loads(out)
    assert envelope["result"]["values"] == {"closed": 3, "mobius": 3, "oracle": 3}
    assert json.dumps(envelope) + "\n" == out


def test_json_val_golden_after_stripping_p_squared(capsys):
    # at p = 2 the closed form strips 2^2 from (8, 32), then adds lambda at n = 2p
    code, out, err = run_cli(
        capsys, "--json", "val", "--p", "2", "--s", "8", "--t", "32", "--n", "4"
    )
    assert (code, err) == (0, "")
    assert out == (
        '{"command": "val", "inputs": {"method": "all", "n": 4, "p": 2, "s": 8, "t": 32},'
        ' "result": {"p": 2, "s": 8, "t": 32, "n": 4, "method": "all",'
        ' "values": {"closed": 7, "mobius": 7, "oracle": 7}}, "warnings": []}\n'
    )


def test_decompose_output(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--num", "6", "--den", "2,3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "polynomial: true"
    assert "d=6: a=1 b=0" in lines
    assert lines[-1] == "quotient: 6^1"

    code, out, _ = run_cli(capsys, "--json", "decompose", "--num", "4", "--den", "3")
    envelope = json.loads(out)
    assert envelope["result"]["is_polynomial"] is False
    assert envelope["result"]["quotient_exponents"] is None


def test_lucanomial_output(capsys):
    code, out, _ = run_cli(capsys, "lucanomial", "6", "3", "--eval", "1", "1")
    assert code == 0
    assert out.splitlines()[-1] == "at s=1, t=1: 60"


def test_rank_and_classify_output(capsys):
    code, out, _ = run_cli(capsys, "rank", "--p", "7", "--s", "1", "--t", "1")
    assert code == 0 and out == "rho=8 divides_bound=8\n"
    code, out, _ = run_cli(capsys, "rank", "--p", "3", "--s", "1", "--t", "3")
    assert code == 0 and out == "rho=undefined divides_bound=-\n"
    code, out, _ = run_cli(capsys, "--json", "classify", "--p", "3", "--s", "3", "--t", "3")
    envelope = json.loads(out)
    assert envelope["result"]["regime"] == "b-eq-2a-minus-1-p3"
    assert envelope["result"]["lambda"] == 0  # v_3(s'^2 + t') = v_3(2)


def test_scan_output(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--p", "2", "--s", "1", "--t", "1", "--limit", "200"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "hits: 3 6 12 24 48 96 192"
    assert lines[1] == "matches_closed_form: true"
    assert lines[2] == "ap_expressible: false"


def test_scan_linear_valuation_regime_json(capsys):
    # p | s and p | t with b < 2a: v_3(P_n) grows with phi(n), every n >= 2 hits
    code, out, err = run_cli(
        capsys, "--json", "scan", "--p", "3", "--s", "-9", "--t", "-6", "--limit", "300"
    )
    hits = ", ".join(str(n) for n in range(2, 301))
    assert (code, err) == (0, "")
    assert out == (
        '{"command": "scan", "inputs": {"limit": 300, "p": 3, "s": -9, "t": -6}, '
        '"result": {"p": 3, "s": -9, "t": -6, "limit": 300, "hits": [' + hits + "], "
        '"matches_closed_form": true, "ap_expressible": true}, "warnings": []}\n'
    )


def test_fit_output(capsys):
    code, out, _ = run_cli(
        capsys, "--json", "fit", "--s", "1", "--t", "1", "--order", "2", "--degree", "2",
        "--from", "10", "--to", "60",
    )
    assert code == 0
    envelope = json.loads(out)
    assert envelope["result"]["status"] == "refuted"
    assert envelope["result"]["witness_end"] is not None

    code, out, _ = run_cli(capsys, "fit", "--s", "1", "--t", "0", "--order", "1", "--degree", "1")
    assert code == 0
    assert out.splitlines()[0].startswith("fit: dimension=")


def test_tzero_output(capsys):
    code, out, _ = run_cli(capsys, "tzero", "--s", "2", "--limit", "8")
    assert code == 0
    assert out.splitlines() == ["1 1", "2 2", "3 4", "4 4", "5 16", "6 4", "7 64", "8 16"]


def test_primesearch_output(capsys):
    code, out, _ = run_cli(capsys, "--json", "primesearch", "6", "--bound", "2")
    assert code == 0
    envelope = json.loads(out)
    assert [1, 2, 7] in envelope["result"]["hits"]
    assert envelope["warnings"] == []


def test_primesearch_probabilistic_warning(capsys, monkeypatch):
    # force the deterministic threshold below the found values
    monkeypatch.setattr(cli, "DETERMINISTIC_PRIMALITY_BOUND", 5)
    code, out, _ = run_cli(capsys, "--json", "primesearch", "6", "--bound", "2")
    assert code == 0
    envelope = json.loads(out)
    assert any("probabilistic" in w for w in envelope["warnings"])


# -- --eval against the integer routes -----------------------------------------------

EVAL_POINTS = ((2, 2), (3, -1), (-4, 5), (0, 0))


def _lucanomial_value(params):
    value = 1
    for d, e in lucanomial(12, 5)[0].items():
        value *= atom_eval(d, params) ** e
    return value


EVAL_CASES = [
    *(
        (["atom", str(n), "--route", route], partial(atom_eval, n))
        for route in ("sym", "div", "red", "checked")
        for n in (1, 2, 12, 30, 105)
    ),
    *((["lucas", str(n)], partial(lucas_int, n)) for n in (0, 1, 7, 40)),
    *((["companion", str(n)], partial(companion_int, n)) for n in (0, 1, 7, 40)),
    (["lucanomial", "12", "5"], _lucanomial_value),
]


@pytest.mark.parametrize("argv, value_fn", EVAL_CASES, ids=[" ".join(c[0]) for c in EVAL_CASES])
def test_eval_matches_the_integer_routes(capsys, argv, value_fn):
    for s0, t0 in EVAL_POINTS:
        expected = value_fn(LucasParams(s0, t0))
        point = ["--eval", str(s0), str(t0)]
        code, out, err = run_cli(capsys, *argv, *point)
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == f"at s={s0}, t={t0}: {expected}"
        code, out, err = run_cli(capsys, "--json", *argv, *point)
        assert (code, err) == (0, "")
        assert json.loads(out)["result"]["eval"] == {"s": s0, "t": t0, "value": expected}


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "lucasatoms", "atom", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "s^2 + 2*t\n"


# -- the README's examples ------------------------------------------------------------

def _readme_examples():
    """(argv, output lines) for each `$ lucasatoms ...` call in README.md's Examples block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("Examples:\n\n```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for chunk in block.strip().split("\n\n"):
        command, *output = chunk.splitlines()
        assert command.startswith("$ lucasatoms "), command
        examples.append((shlex.split(command)[2:], output))
    return examples


README_EXAMPLES = _readme_examples()


@pytest.mark.parametrize("argv, expected", README_EXAMPLES, ids=[" ".join(a) for a, _ in README_EXAMPLES])
def test_readme_example(capsys, argv, expected):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.splitlines() == expected


# -- values beyond CPython's int/str digit limit ------------------------------------

@contextlib.contextmanager
def no_digit_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def test_eval_value_beyond_digit_limit_prints_in_full(capsys):
    # U_6000(10, 1) has about 6000 digits, past the default limit of 4300
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(capsys, "lucas", "6000", "--eval", "10", "1")
    assert sys.get_int_max_str_digits() == limit  # in-process callers keep it
    assert (code, err) == (0, "")
    with no_digit_limit():
        expected = str(lucas_int(6000, LucasParams(10, 1)))
    assert 0 < limit < len(expected)
    assert out.splitlines()[-1] == f"at s=10, t=1: {expected}"


def test_eval_value_beyond_digit_limit_in_json(capsys):
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(capsys, "--json", "lucas", "6000", "--eval", "10", "1")
    assert sys.get_int_max_str_digits() == limit
    assert (code, err) == (0, "")
    with no_digit_limit():
        value = json.loads(out)["result"]["eval"]["value"]
    assert value == lucas_int(6000, LucasParams(10, 1))
