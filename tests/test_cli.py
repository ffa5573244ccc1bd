import contextlib
import json
import shlex
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

from lucasatoms import (
    LucasParams,
    atom_eval,
    cli,
    companion_int,
    holonomy,
    lucanomial,
    lucas_int,
    numtheory,
    valuations,
)
from lucasatoms.exactpoly import LinearSolveResult


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
    red, sym = (run_cli(capsys, "atom", "4096", "--route", r) for r in ("red", "sym"))
    assert red == sym and red[0] == 0


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
    code, out, err = run_cli(capsys, *argv, "--method", "mobius")
    assert code == 1 and out == ""
    assert err.startswith("error: valuation of zero")


def test_val_all_skips_mobius_where_a_lucas_divisor_vanishes(capsys):
    argv = ("val", "--p", "2", "--s", "1", "--t", "-1", "--n", "6")
    skipped = "mobius route skipped: valuation of zero: U_3(1, -1) = 0"
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (0, "closed=1 oracle=1\n", f"warning: {skipped}\n")
    code, out, err = run_cli(capsys, "--json", *argv)
    assert (code, err) == (0, "")
    assert out == (
        '{"command": "val", "inputs": {"method": "all", "n": 6, "p": 2, "s": 1, "t": -1},'
        ' "result": {"p": 2, "s": 1, "t": -1, "n": 6, "method": "all",'
        ' "values": {"closed": 1, "oracle": 1}}, "warnings": ["' + skipped + '"]}\n'
    )
    # where P_n itself is zero every route still rejects the index
    code, out, err = run_cli(capsys, "val", "--p", "2", "--s", "1", "--t", "-1", "--n", "3")
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


def test_val_negative_mobius_sum_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(valuations, "_vp_lucas_case", lambda p, table, n: int(n != 6))
    code, out, err = run_cli(
        capsys, "val", "--p", "2", "--s", "1", "--t", "1", "--n", "6", "--method", "mobius"
    )
    assert (code, out) == (3, "")
    assert err == (
        "internal consistency error: negative atom valuation from the Mobius sum at index 6\n"
    )


def test_domain_error_exits_1(capsys):
    code, out, err = run_cli(capsys, "atom", "0")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_usage_error_exits_2(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 2
    assert run_cli(capsys, "atom")[0] == 2
    assert run_cli(capsys, "atom", "6", "--route", "bogus")[0] == 2


# -- help and usage text, at 80 columns ----------------------------------------------

COMMAND_CHOICES = (
    "{atom,lucas,companion,cyclotomic,decompose,lucanomial,val,rank,classify,scan,fit,tzero,primesearch}"
)
TOP_USAGE = f"""usage: lucasatoms [-h] [--json]
                  {COMMAND_CHOICES}
                  ...
"""
ATOM_USAGE = "usage: lucasatoms atom [-h] [--route {checked,div,red,sym}] [--eval S T] n\n"

HELP_GOLDENS = {
    "--help": (0, TOP_USAGE + f"""
Exact arithmetic for Lucas polynomials and Lucas atoms.

positional arguments:
  {COMMAND_CHOICES}
    atom                Lucas atom P_N
    lucas               Lucas polynomial U_N
    companion           companion polynomial W_N
    cyclotomic          cyclotomic polynomial of index N
    decompose           polynomiality of a Lucas-product ratio
    lucanomial          Lucas binomial analogue (N over K)
    val                 p-adic valuation of an atom value
    rank                rank of appearance
    classify            valuation regime
    scan                divisibility pattern of p | P_n
    fit                 fit or refute a polynomial recurrence
    tzero               the t = 0 profile s^phi(n)
    primesearch         prime atom values on a grid

options:
  -h, --help            show this help message and exit
  --json                emit a JSON envelope
""", ""),
    "atom --help": (0, ATOM_USAGE + """
positional arguments:
  n

options:
  -h, --help            show this help message and exit
  --route {checked,div,red,sym}
  --eval S T
""", ""),
    "fit --help": (0, """usage: lucasatoms fit [-h] --s S --t T --order ORDER --degree DEGREE
                      [--from N_FROM] [--to N_TO]

options:
  -h, --help       show this help message and exit
  --s S
  --t T
  --order ORDER
  --degree DEGREE
  --from N_FROM
  --to N_TO
""", ""),
    "frobnicate": (2, "", TOP_USAGE + (
        "lucasatoms: error: argument command: invalid choice: 'frobnicate' (choose from "
        + ", ".join(f"'{name}'" for name in COMMAND_CHOICES.strip("{}").split(","))
        + ")\n"
    )),
    "rank --p 29": (2, "", """usage: lucasatoms rank [-h] --p P --s S --t T
lucasatoms rank: error: the following arguments are required: --s, --t
"""),
    "atom 6 --route bogus": (2, "", ATOM_USAGE + (
        "lucasatoms atom: error: argument --route: invalid choice: 'bogus'"
        " (choose from 'checked', 'div', 'red', 'sym')\n"
    )),
}


@pytest.mark.parametrize("argv", list(HELP_GOLDENS))
def test_help_and_usage_golden(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    assert run_cli(capsys, *argv.split()) == HELP_GOLDENS[argv]


@pytest.mark.parametrize("name", list(cli._COMMANDS))
def test_subcommand_help_matches_the_full_parser(capsys, monkeypatch, name):
    # a call builds only its subcommand's arguments; its text must not show it
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run_cli(capsys, "--json", name, "--help")
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["--json", name, "--help"])
    assert (code, out, err) == (0, *capsys.readouterr())
    assert out.startswith(f"usage: lucasatoms {name} [-h]")


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


# stripped regimes with large valuations: 2^2 out of (8, 32), 3^2 out of (9, 243)
VAL_LARGE_GOLDENS = {
    "val --p 2 --s 8 --t 32 --n 210": "closed=120 mobius=120 oracle=120\n",
    "val --p 3 --s 9 --t 243 --n 200": "closed=160 mobius=160 oracle=160\n",
    "--json val --p 2 --s 8 --t 32 --n 210": (
        '{"command": "val", "inputs": {"method": "all", "n": 210, "p": 2, "s": 8, "t": 32},'
        ' "result": {"p": 2, "s": 8, "t": 32, "n": 210, "method": "all",'
        ' "values": {"closed": 120, "mobius": 120, "oracle": 120}}, "warnings": []}\n'
    ),
    "--json val --p 3 --s 9 --t 243 --n 200": (
        '{"command": "val", "inputs": {"method": "all", "n": 200, "p": 3, "s": 9, "t": 243},'
        ' "result": {"p": 3, "s": 9, "t": 243, "n": 200, "method": "all",'
        ' "values": {"closed": 160, "mobius": 160, "oracle": 160}}, "warnings": []}\n'
    ),
}


@pytest.mark.parametrize("argv", list(VAL_LARGE_GOLDENS))
def test_val_golden_with_large_valuations(capsys, argv):
    assert run_cli(capsys, *argv.split()) == (0, VAL_LARGE_GOLDENS[argv], "")


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


def test_scan_stripped_regime_golden(capsys):
    # s = 4, t = 8 at p = 2 strips c = 1, leaving (2, 2) with p | s' and p || t':
    # v_2(P_n) >= phi(n), so every n >= 2 hits
    code, out, err = run_cli(
        capsys, "scan", "--p", "2", "--s", "4", "--t", "8", "--limit", "100"
    )
    hits = " ".join(str(n) for n in range(2, 101))
    assert (code, err) == (0, "")
    assert out == f"hits: {hits}\nmatches_closed_form: true\nap_expressible: true\n"
    code, out, err = run_cli(
        capsys, "--json", "scan", "--p", "2", "--s", "4", "--t", "8", "--limit", "100"
    )
    hits = ", ".join(str(n) for n in range(2, 101))
    assert (code, err) == (0, "")
    assert out == (
        '{"command": "scan", "inputs": {"limit": 100, "p": 2, "s": 4, "t": 8}, '
        '"result": {"p": 2, "s": 4, "t": 8, "limit": 100, "hits": [' + hits + "], "
        '"matches_closed_form": true, "ap_expressible": true}, "warnings": []}\n'
    )


def test_scan_even_q_golden(capsys):
    # s = 3, t = 9 at p = 3 strips c = 1 to (1, 1), so q = 2: v_3(P_n) >= phi(n)
    # and every n >= 2 hits, n = 2 included since (2 phi(2)) // 2 = 1
    code, out, err = run_cli(capsys, "scan", "--p", "3", "--s", "3", "--t", "9", "--limit", "12")
    assert (code, out, err) == (
        0,
        "hits: 2 3 4 5 6 7 8 9 10 11 12\nmatches_closed_form: true\nap_expressible: true\n",
        "",
    )


def test_scan_coprime_t_golden(capsys):
    # p = 7 does not divide t: rank 3 (U_3 = s^2 + t = 14), hits at 3 * 7^h
    code, out, err = run_cli(
        capsys, "scan", "--p", "7", "--s", "3", "--t", "5", "--limit", "1200"
    )
    assert (code, out, err) == (
        0,
        "hits: 3 21 147 1029\nmatches_closed_form: true\nap_expressible: false\n",
        "",
    )


# The certificates are unique (supported on the pivot rows and the witness row,
# with the witness entry 1), so any exact solver must print these bytes.
FIT_REFUTED_FIB_GOLDEN = (
    '{"command": "fit", "inputs": {"degree": 2, "n_from": 10, "n_to": 60, "order": 2, "s"'
    ': 1, "t": 1}, "result": {"s": 1, "t": 1, "order": 2, "degree": 2, "from": 10, "to": '
    '60, "status": "refuted", "coefficients": null, "dimension": null, "witness_end": 19,'
    ' "certificate": ["371841178990496/3962869223413", "-556998765196575/3962869223413", '
    '"-17601135101430/3962869223413", "142950117431618/3962869223413", "-41392422990222/3'
    '962869223413", "-22480118991357/3962869223413", "431768935291447/3962869223413", "-3'
    '11446804521975/3962869223413", "-603854135415/3962869223413", "1"]}, "warnings": []}'
    '\n'
)

FIT_REFUTED_DEFAULT_WINDOW_GOLDEN = (
    '{"command": "fit", "inputs": {"degree": 3, "n_from": null, "n_to": null, "order": 4,'
    ' "s": 3, "t": 1}, "result": {"s": 3, "t": 1, "order": 4, "degree": 3, "from": 10, "t'
    'o": 70, "status": "refuted", "coefficients": null, "dimension": null, "witness_end":'
    ' 30, "certificate": ["76612468571156696416281865354523905863739375567632541105146421'
    '856173209444207824103504357557564231418626901294925620320351700491689664317965199122'
    '64143371980095/571586288930110527755132524932036189619096313635233280978014323153852'
    '645371498033876818891056477146763517135040445815794181127366779801481938310526764", '
    '"-1320908177400132063757175444686236456713237678626167205461813304201175288024127075'
    '7086914273668283724217339419509508128882768329622525474529693978957771767119647/2857'
    '931444650552638775662624660180948095481568176166404890071615769263226857490169384094'
    '45528238573381758567520222907897090563683389900740969155263382", "294413032214584505'
    '353524533241684455649287758348234667313578962132135178160569421172269532189002432244'
    '78756182209208892564165340713022782922971296536734205866647/571586288930110527755132'
    '524932036189619096313635233280978014323153852645371498033876818891056477146763517135'
    '040445815794181127366779801481938310526764", "-1754647401396241374263478612361520963'
    '073394281859212952296587474996579598334230932712675820248005384776492237793093999008'
    '888669171589758597624472876907808472469/14289657223252763193878313123300904740477407'
    '840880832024450358078846316134287450846920472276411928669087928376011145394854528184'
    '1694950370484577631691", "-617788844369940964217363250400076440959390894120404468084'
    '406009948034832907760104830075461226098331870990116475898540134377364629792600872426'
    '6711553174594454421/5715862889301105277551325249320361896190963136352332809780143231'
    '538526453714980338768188910564771467635171350404458157941811273667798014819383105267'
    '64", "408782299402350545414496579642676366180559396829987884419960174210482423430346'
    '355207595009181216160354893656642222003160487971510752528002158030137577743509104/14'
    '289657223252763193878313123300904740477407840880832024450358078846316134287450846920'
    '4722764119286690879283760111453948545281841694950370484577631691", "1028269196313619'
    '131940893115025318609979868236052392581815999716827754458635250310065937679792269512'
    '097921271541398739875109814591355129630343753647178253471483/57158628893011052775513'
    '252493203618961909631363523328097801432315385264537149803387681889105647714676351713'
    '5040445815794181127366779801481938310526764", "-987483881873459217384550382274867870'
    '456803358550952675923882263276532547695722246082018200826281125223804484690304144168'
    '71642597404626278015489629646980672957/285793144465055263877566262466018094809548156'
    '817616640489007161576926322685749016938409445528238573381758567520222907897090563683'
    '389900740969155263382", "14563776298597923055036772893341111671792347268595195751312'
    '017067569013778593661025922478311006046642825521687399821040872745782433934725614156'
    '7377759949373631/1143172577860221055510265049864072379238192627270466561956028646307'
    '705290742996067753637782112954293527034270080891631588362254733559602963876621053528'
    '", "-4702198624593053556510001045897196894617942485911953192107574681867396945063941'
    '8372895334140424120599871849842134424475032035768000011098502438494427128195837/1143'
    '172577860221055510265049864072379238192627270466561956028646307705290742996067753637'
    '782112954293527034270080891631588362254733559602963876621053528", "-4243452649795686'
    '379361583361404942903980348801065753184234700117286656698726370147351553545082002112'
    '125572769034250696392369412384582349031323919112307427857/57158628893011052775513252'
    '493203618961909631363523328097801432315385264537149803387681889105647714676351713504'
    '0445815794181127366779801481938310526764", "4062139680916731278278779721149754918177'
    '918515637348501643359226240918192582644364111752887299066609843175401147818152205945'
    '94966087567155580264166279900042/142896572232527631938783131233009047404774078408808'
    '320244503580788463161342874508469204722764119286690879283760111453948545281841694950'
    '370484577631691", "-6844085077839302747031383703343385487950974064946549798662593205'
    '913092307694166161162146252248651228021276627624481721280300258585103039312183094491'
    '93704037/114317257786022105551026504986407237923819262727046656195602864630770529074'
    '2996067753637782112954293527034270080891631588362254733559602963876621053528", "-261'
    '507670840176275474042778596982499586981400618221999691073533133505437359660846886491'
    '090628917358506094776819068865696321584367106348225363801308665166255/11431725778602'
    '210555102650498640723792381926272704665619560286463077052907429960677536377821129542'
    '93527034270080891631588362254733559602963876621053528", "935694729768724966713957374'
    '493804221598471843802264686501589244538924458025188950630720246232573993638144611045'
    '389636082790776796052267603288632917656295/57158628893011052775513252493203618961909'
    '631363523328097801432315385264537149803387681889105647714676351713504044581579418112'
    '7366779801481938310526764", "-932991058072181903991470268290243224635696525880616595'
    '960929421463266628461116974090589527973026187540786170547032125631827122151806337230'
    '583424086806493/28579314446505526387756626246601809480954815681761664048900716157692'
    '6322685749016938409445528238573381758567520222907897090563683389900740969155263382",'
    ' "1481585515298916550740271766477116202329339722844622084602297884226364715884487730'
    '305472701200360210332699828877626177093777320443447244961869958193745180/14289657223'
    '252763193878313123300904740477407840880832024450358078846316134287450846920472276411'
    '9286690879283760111453948545281841694950370484577631691", "5593170239148889370069185'
    '992457817242622276650391068350836604424041489736898430194242917239561658811192387334'
    '71548484796961792724449550651158057904906835/571586288930110527755132524932036189619'
    '096313635233280978014323153852645371498033876818891056477146763517135040445815794181'
    '127366779801481938310526764", "-2954037369445270332108055436382777749112276132782714'
    '503684893180248849761288783011716683610795072298197153017024686739264489411519131181'
    '5869099150502603435/5715862889301105277551325249320361896190963136352332809780143231'
    '538526453714980338768188910564771467635171350404458157941811273667798014819383105267'
    '64", "-24479083071042241367130033898929050416787227997325564569700584920644653183490'
    '32297092420130879230817809454851025701845529390418766033703386429027006605391/571586'
    '288930110527755132524932036189619096313635233280978014323153852645371498033876818891'
    '056477146763517135040445815794181127366779801481938310526764", "1"]}, "warnings": []'
    '}\n'
)


def test_fit_output(capsys):
    code, out, err = run_cli(
        capsys, "--json", "fit", "--s", "1", "--t", "1", "--order", "2", "--degree", "2",
        "--from", "10", "--to", "60",
    )
    assert (code, out, err) == (0, FIT_REFUTED_FIB_GOLDEN, "")
    code, out, _ = run_cli(
        capsys, "fit", "--s", "1", "--t", "1", "--order", "2", "--degree", "2",
        "--from", "10", "--to", "60",
    )
    assert code == 0 and out == "refuted: first inconsistent prefix ends at n=19\n"

    # t = 0 fits P_n = s^phi(n) exactly, through back-substitution
    code, out, _ = run_cli(capsys, "fit", "--s", "1", "--t", "0", "--order", "1", "--degree", "1")
    assert code == 0
    assert out == "fit: dimension=2\nG_0(n) = 1\nG_1(n) = 0\n"


def test_fit_default_window_golden(capsys):
    code, out, err = run_cli(
        capsys, "--json", "fit", "--s", "3", "--t", "1", "--order", "4", "--degree", "3"
    )
    assert (code, out, err) == (0, FIT_REFUTED_DEFAULT_WINDOW_GOLDEN, "")


@pytest.mark.parametrize(
    "perturb, reason",
    [
        (lambda y: (y[0] + 1, *y[1:]), "y.A = 0"),  # misses one row's column sums
        (lambda y: tuple(0 * v for v in y), "y.b != 0"),  # annihilates A and b
    ],
)
def test_fit_refutation_with_a_wrong_certificate_exits_3(capsys, monkeypatch, perturb, reason):
    eliminate = holonomy._eliminate

    def perturbed(system, n):
        result = eliminate(system, n)
        return LinearSolveResult(result.status, None, None, perturb(result.certificate))

    monkeypatch.setattr(holonomy, "_eliminate", perturbed)
    code, out, err = run_cli(
        capsys, "--json", "fit", "--s", "1", "--t", "1", "--order", "2", "--degree", "2",
        "--from", "10", "--to", "60",
    )
    assert (code, out) == (3, "")
    assert reason in err


def test_tzero_output(capsys):
    code, out, _ = run_cli(capsys, "tzero", "--s", "2", "--limit", "8")
    assert code == 0
    assert out.splitlines() == ["1 1", "2 2", "3 4", "4 4", "5 16", "6 4", "7 64", "8 16"]


def test_tzero_over_the_output_bound_exits_1(capsys):
    # about 1.4e9 digits; the bound is checked before any value is built
    code, out, err = run_cli(capsys, "tzero", "--s", "3", "--limit", "100000")
    assert (code, out) == (1, "")
    assert err == "error: tzero could print over 1e+06 characters\n"
    # one line per index counts too, so no phi sieve runs for a huge limit
    code, out, err = run_cli(capsys, "--json", "tzero", "--s", "1", "--limit", str(10**12))
    assert (code, out) == (1, "")
    assert err.startswith("error: tzero could print over")


def test_tzero_bound_rejects_only_outputs_over_it(capsys):
    # 2584 is the largest limit the bound admits at s = 3; both outputs fit in it
    bound = cli._TZERO_BOUND
    code, out, _ = run_cli(capsys, "tzero", "--s", "3", "--limit", "2584")
    assert code == 0 and len(out) <= bound
    assert out.splitlines()[-1] == f"2584 {3 ** 1152}"
    code, out, _ = run_cli(capsys, "--json", "tzero", "--s", "3", "--limit", "2584")
    assert code == 0 and len(out) <= bound
    assert json.loads(out)["result"]["values"][-1] == [2584, 3**1152]
    code, out, _ = run_cli(capsys, "tzero", "--s", "3", "--limit", "2585")
    assert (code, out) == (1, "")
    code, out, _ = run_cli(capsys, "tzero", "--s", "3", "--limit", "2700")
    assert (code, out) == (1, "")
    with no_digit_limit():
        printed = sum(len(f"{n} {v}\n") for n, v in holonomy.t_zero_profile(3, 2700))
    assert printed > bound


def test_tzero_builds_one_phi_sieve(capsys, monkeypatch):
    # the output bound and the profile share the CLI's sieve
    sieves = []

    def counted(n):
        sieves.append(n)
        return numtheory._phi_sieve(n)

    monkeypatch.setattr(cli, "_phi_sieve", counted)
    monkeypatch.setattr(holonomy, "_phi_sieve", counted)
    code, out, _ = run_cli(capsys, "tzero", "--s", "2", "--limit", "8")
    assert code == 0 and out.splitlines()[-1] == "8 16"
    assert sieves == [8]
    code, _, err = run_cli(capsys, "tzero", "--s", "2", "--limit", "0")
    assert (code, err) == (1, "error: horizon must be at least 1\n")


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


@pytest.mark.parametrize(
    "argv, name",
    [
        (["atom", "12"], "atom_eval"),
        (["atom", "30", "--route", "red"], "atom_eval"),
        (["lucas", "7"], "lucas_int"),
        (["companion", "7"], "companion_int"),
        (["lucanomial", "8", "4"], "atom_eval"),
    ],
)
@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_eval_second_route_disagreement_exits_3(capsys, monkeypatch, argv, name, mode):
    route = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda n, params: route(n, params) + 1)
    code, out, err = run_cli(capsys, *mode, *argv, "--eval", "2", "3")
    assert (code, out) == (3, "")
    assert "--eval at s=2, t=3: a second route disagrees" in err


@pytest.mark.parametrize("mode", [[], ["--json"]])
@pytest.mark.parametrize(
    "stub, reason",
    [
        # U_1..U_4 are the denominators of (8 over 4), U_5..U_8 the numerators
        (lambda route: lambda n, params: 2 if n <= 4 else 1, "is not exact"),
        (lambda route: lambda n, params: route(n, params) * (1 if n <= 4 else 2), "disagrees"),
    ],
    ids=["inexact", "unequal"],
)
def test_lucanomial_eval_lucas_quotient_exits_3(capsys, monkeypatch, mode, stub, reason):
    monkeypatch.setattr(cli, "lucas_int", stub(cli.lucas_int))
    code, out, err = run_cli(capsys, *mode, "lucanomial", "8", "4", "--eval", "2", "3")
    assert (code, out) == (3, "")
    assert f"--eval at s=2, t=3: the quotient of Lucas values {reason}" in err


def test_lucanomial_eval_skips_the_lucas_quotient_at_a_zero_denominator(capsys, monkeypatch):
    # U_2(0, 1) = 0, so only the atom product P_4 P_5 = 2 checks the value
    calls = []
    route = cli.lucas_int
    monkeypatch.setattr(cli, "lucas_int", lambda n, params: calls.append(n) or route(n, params))
    code, out, _ = run_cli(capsys, "lucanomial", "5", "2", "--eval", "0", "1")
    assert code == 0 and out.splitlines()[-1] == "at s=0, t=1: 2"
    assert calls == [1, 2]


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
