"""CLI: grammar round trips, JSON re-ingestion, command exit codes."""

import contextlib
import io
import itertools
import json
import random
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from denslift import cli, equivariance
from denslift.cli import (
    MAX_DIGITS,
    MAX_EXPONENT,
    MAX_NESTING,
    MAX_TERM_ORDER,
    SessionConfig,
    main,
    operator_from_json,
    parse_operator,
    parse_symbol,
)
from denslift.errors import (
    CoefficientTooLargeError,
    DensliftError,
    IndexRangeError,
    ParseError,
    SchemaError,
)
from denslift.jets import DiffPolynomial
from denslift.operators import DensityOperator
from denslift.projective import SymbolPoly
from denslift.scalars import Scalar

from helpers import random_operator


def cfg(dim=1, **kw):
    return SessionConfig(dim=dim, **kw)


def test_parse_generic_second_order():
    got = parse_operator("S[1,1] D1 D1 + T[1] D1 + R", cfg())
    expected = DensityOperator(1, {
        (0, (1, 1)): DiffPolynomial.jet("S", (1, 1)),
        (0, (1,)): DiffPolynomial.jet("T", (1,)),
        (0, ()): DiffPolynomial.jet("R"),
    })
    assert got == expected


def test_parse_weight_powers():
    got = parse_operator("L L c", cfg())
    assert got == DensityOperator(1, {(2, ()): DiffPolynomial.jet("c")})
    assert parse_operator("L^2 c", cfg()) == got


def test_parse_composition_by_juxtaposition():
    got = parse_operator("D1 f", cfg())
    f = DiffPolynomial.jet("f")
    assert got == DensityOperator(1, {(0, (1,)): f, (0, ()): f.derive(1)})


def test_parse_derivative_suffix():
    got = parse_operator("S[1,1]_,1_,1", cfg())
    assert got == DensityOperator.function(
        1, DiffPolynomial.jet("S", (1, 1), (1, 1)))


def test_parse_parameters_and_literals():
    c = cfg()
    got = parse_operator("(2 l0 - 1) g[1] D1", c)
    l0 = Scalar.param("l0")
    g = DiffPolynomial.jet("g", (1,))
    assert got == DensityOperator(1, {(0, (1,)): (2 * l0 - 1) * g})
    half = parse_operator("1/2 a", c)
    assert half == DensityOperator.function(1, DiffPolynomial.jet("a") * Fraction(1, 2))


def test_parse_bound_parameter_values():
    c = SessionConfig(dim=1, params={"b": Scalar.of(Fraction(1, 3))})
    got = parse_operator("b D1", c)
    assert got == DensityOperator(1, {(0, (1,)): DiffPolynomial.const(Fraction(1, 3))})


def test_index_out_of_range():
    with pytest.raises(IndexRangeError):
        parse_operator("D2", cfg(dim=1))
    with pytest.raises(IndexRangeError):
        parse_operator("S[1,3]", cfg(dim=2))


def test_a_huge_index_is_out_of_range_before_it_reaches_a_jet_symbol(capsys):
    # 99999999999 is past the largest index a JetSymbol can store
    for expr in ("S[99999999999] D1", "f_,99999999999"):
        assert main(["adjoint", expr]) == 1
        assert capsys.readouterr() == ("", "error: index 99999999999 outside 1..1\n")


def test_syntax_error_carries_offset():
    with pytest.raises(ParseError) as err:
        parse_operator("D1 + ", cfg())
    assert err.value.offset == 5


def test_parser_round_trip_on_random_operators():
    rng = random.Random(99)
    for _ in range(200):
        dim = rng.randint(1, 3)
        op = random_operator(rng, dim, max_total=3)
        c = cfg(dim=dim)
        once = parse_operator(op.render(), c)
        assert once == op
        assert parse_operator(once.render(), c) == once


def test_symbol_parsing_and_round_trip():
    c = cfg()
    sym = parse_symbol("a xi^2 - 1/2 a_,1 xi + c", c)
    a = DiffPolynomial.jet("a")
    expected = SymbolPoly(1, {
        (1, 1): a,
        (1,): a.derive(1) * Fraction(-1, 2),
        (): DiffPolynomial.jet("c"),
    })
    assert sym == expected
    assert parse_symbol(sym.render(), c) == sym


def test_json_reingestion_equals_operator():
    rng = random.Random(7)
    for _ in range(20):
        dim = rng.randint(1, 2)
        op = random_operator(rng, dim, max_total=3)
        back = operator_from_json(op.to_json(), cfg(dim=dim))
        assert back == op


def test_json_ingestion_rejects_malformed_input():
    bad = [
        '{"terms": [{"lpow": 0, "dmulti": [7], "coeff": "a"}]}',
        '{"terms": [{"lpow": -1, "dmulti": [], "coeff": "a"}]}',
        '{"terms": [{"lpow": 0, "coeff": "a"}]}',
        '{"terms": [{"lpow": "0", "dmulti": [], "coeff": "a"}]}',
        '{"terms": [{"lpow": 0, "dmulti": ["1"], "coeff": "a"}]}',
        '{"terms": [{"lpow": 0, "dmulti": 1, "coeff": "a"}]}',
        '{"terms": [{"lpow": 0, "dmulti": [], "coeff": 3}]}',
        '{"terms": [{"lpow": 0, "dmulti": [], "coeff": "D1 + a"}]}',
        '{"terms": [{"lpow": 0, "dmulti": [], "coeff": "L"}]}',
        '{"terms": 5}',
        '{"schema": "denslift/1"}',
        '[]',
        'not json',
        "[" * 100000,
        '{"terms": ' + "[" * 100000,
        f'{{"terms": [{{"lpow": {MAX_TERM_ORDER - 1}, "dmulti": [1, 1], "coeff": "1"}}]}}',
    ]
    for text in bad:
        with pytest.raises(SchemaError):
            operator_from_json(text, cfg(dim=1))
    # a term of order 3000000 is rejected before the adjoint could expand (1 - L)^3000000
    start = time.perf_counter()
    with pytest.raises(SchemaError):
        operator_from_json('{"terms": [{"lpow": 3000000, "dmulti": [], "coeff": "1"}]}', cfg(dim=1))
    assert time.perf_counter() - start < 1
    top = f'{{"terms": [{{"lpow": {MAX_TERM_ORDER - 1}, "dmulti": [1], "coeff": "1"}}]}}'
    assert operator_from_json(top, cfg(dim=1)).total_order() == MAX_TERM_ORDER


def test_readers_sum_4000_pieces_in_linear_time():
    # 4000 distinct dim-8 terms of JSON (202 kB), and 4000 summands on one
    # term key; summing one piece at a time took 11 s and 2 s on a 2-CPU host
    keys = [(r, list(alpha)) for k in range(7)
            for alpha in itertools.combinations_with_replacement(range(1, 9), k)
            for r in range(3)][:4000]
    text = json.dumps({"terms": [{"lpow": r, "dmulti": alpha, "coeff": "f"}
                                 for r, alpha in keys]})
    start = time.perf_counter()
    op = operator_from_json(text, cfg(dim=8))
    assert time.perf_counter() - start < 2
    assert len(op.terms) == 4000 and op.coefficient(*keys[-1]) == DiffPolynomial.jet("f")
    src = " + ".join(f"f{i}" for i in range(4000)) + " - f7 + 2 f8"
    start = time.perf_counter()
    op = parse_operator(src, cfg(dim=1))
    assert time.perf_counter() - start < 1
    coeff = op.coefficient(0, ())
    assert len(coeff.terms) == 3999 and coeff == sum(
        (DiffPolynomial.jet(f"f{i}") * (3 if i == 8 else 1) for i in range(4000) if i != 7),
        DiffPolynomial.zero())


def test_cli_adjoint_of_weight(capsys):
    assert main(["--dim", "1", "adjoint", "L"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "-L + 1"


def test_cli_readme_outputs_verbatim(capsys):
    readme = [
        (["--dim", "1", "--lambda0", "symbolic", "symbol", "a D1 D1 + b D1 + c"],
         "a*xi^2 + ((-1/2 - l0)*a_,1 + b)*xi + ((1/3*l0 + 2/3*l0^2)*a_,1_,1 - l0*b_,1 + c)"),
        (["--dim", "1", "--volume", "generic", "taylor", "L f + D1"],
         "[0] D1 + l0*f\n[1] (ell_,1 + f)"),
        (["check", "cocycle"],
         "PASS cocycle: Schwarzian cocycle law on identity, generic, and Moebius jets"),
    ]
    for argv, shown in readme:
        assert main(argv) == 0
        assert capsys.readouterr().out == shown + "\n"


def test_cli_bad_flag_values_exit_2_with_one_line(capsys):
    # a --params name must read back as a parameter, not a generator
    for flags in (["--lambda0", "abc"], ["--lambda0", "1/0"], ["--params", "b=x"],
                  ["--dim", "0"], ["--dim", "100000000"], ["--params", "L=2"],
                  ["--params", "D1=2"], ["--params", "xi=2"], ["--params", "xi2"],
                  ["--params", "x y=2"], ["--params", "=2"], ["--params", "k1=1,2a=3"]):
        assert main(flags + ["adjoint", "L"]) == 2, flags
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.startswith("flag error: ") and captured.err.count("\n") == 1


def test_vol_lift_parameter_index_is_bounded(capsys):
    # each index up to the largest c<k> or d<k> adds a family parameter
    for name in ("c" + "9" * 5000, f"c{MAX_TERM_ORDER + 1}", f"d{MAX_TERM_ORDER + 1}"):
        start = time.perf_counter()
        assert main(["--params", f"{name}=1", "lift", "vol", "A D1 + B"]) == 2
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err == f"flag error: --params c<k> and d<k> take k up to {MAX_TERM_ORDER}\n"
    assert main(["--params", f"c{MAX_TERM_ORDER}=1", "lift", "vol", "A D1 + B"]) == 0
    # c_24 (L - l0)^24 P(1) leads with B L^24
    assert capsys.readouterr().out.startswith("B" + "*L" * MAX_TERM_ORDER + " - ")


def test_vol_lift_parameter_index_is_written_canonically(capsys):
    # values are looked up under c<int(k)>: any other spelling of k would be lost
    for name in ("c01", "d0", "c007"):
        assert main(["--params", f"{name}=1", "lift", "vol", "A D1 + B"]) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err == "flag error: --params c<k> and d<k> take k from 1, with no leading zero\n"
    assert main(["--params", "c1=1", "lift", "vol", "A D1 + B"]) == 0
    assert capsys.readouterr().out == "B*L + A*D1 + ((1 - l0)*B)\n"


def test_parenthesis_nesting_is_bounded(capsys):
    c = cfg()
    nested = "(" * MAX_NESTING + "a D1" + ")" * MAX_NESTING
    assert parse_operator(nested, c) == parse_operator("a D1", c)
    deep = "(" * 2000 + "a" + ")" * 2000
    with pytest.raises(ParseError):
        parse_operator(deep, c)
    assert main(["adjoint", deep]) == 2
    assert capsys.readouterr().err.startswith("syntax error: parentheses nested deeper")


def test_power_exponent_is_bounded(capsys):
    c = cfg()
    assert parse_operator(f"L^{MAX_EXPONENT} a", c) == parse_operator("L " * MAX_EXPONENT + "a", c)
    with pytest.raises(ParseError):
        parse_operator(f"L^{MAX_EXPONENT + 1} a", c)
    with pytest.raises(ParseError):
        parse_symbol("a xi^200000", c)
    assert main(["adjoint", "L^200000 a"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("syntax error: exponent above") and captured.err.count("\n") == 1
    # nested exponents multiply: their product is bounded, checked at the outer '^'
    assert parse_operator("(L^3)^4 a", c) == parse_operator(f"L^{MAX_EXPONENT} a", c)
    assert parse_operator("(L^3 D1^2)^4", c) == parse_operator("L^12 D1^8", c)
    assert parse_symbol("(a xi^3)^4", c) == parse_symbol("a^4 xi^12", c)
    for parse, src in ((parse_operator, "(L^3)^5"), (parse_operator, "((D1 + f)^12)^12"),
                       (parse_operator, "L^3^5"), (parse_symbol, "((xi + a)^2 b)^7")):
        with pytest.raises(ParseError) as info:
            parse(src, c)
        assert info.value.offset == src.rindex("^"), src
    start = time.perf_counter()
    assert main(["adjoint", "((D1 + f)^12)^12"]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.err.startswith("syntax error: nested exponents") and captured.err.count("\n") == 1


def test_coefficients_past_the_int_string_limit_exit_1(capsys):
    limit = sys.get_int_max_str_digits()
    assert str(Scalar.of(10 ** limit - 1)) == "9" * limit
    for too_long in (Scalar.of(10 ** limit), Scalar.of(Fraction(-1, 10 ** limit)),
                     Scalar.param("l0") + 10 ** limit):
        with pytest.raises(CoefficientTooLargeError):
            str(too_long)
    n = "9" * MAX_DIGITS
    for flags in ([], ["--json"]):
        assert main(flags + ["adjoint", f"{n}^12 {n}^12 {n}^12 {n}^12"]) == 1
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err == f"error: a coefficient has more than {limit} digits\n"


def test_digit_runs_are_bounded(capsys):
    assert parse_operator("9" * MAX_DIGITS, cfg()) == DensityOperator.function(1, int("9" * MAX_DIGITS))
    long = "1" * 5000
    forms = [("adjoint", long, 0), ("adjoint", f"L^{long}", 2), ("adjoint", f"a_,{long}", 3),
             ("adjoint", f"S[{long}]", 2), ("adjoint", f"D{long}", 1), ("symbol", f"xi{long}", 2)]
    for command, src, offset in forms:
        with pytest.raises(ParseError) as info:
            (parse_symbol if command == "symbol" else parse_operator)(src, cfg())
        assert info.value.offset == offset
        assert main([command, src]) == 2, src[:8]
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.startswith("syntax error: digit run longer than")
        assert captured.err.count("\n") == 1


def test_weight_free_guard_has_one_message(capsys):
    for argv in (["lift", "canonical", "L"], ["lift", "proj", "L"], ["symbol", "L"],
                 ["assemble", "L"]):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err == "error: operator must not contain the weight generator\n"


def test_cli_adjoint_through_intermediate_swell(capsys):
    # parsing normal-orders D^alpha o (f g) into 64 terms; the adjoint
    # pushes them all back to a single one
    assert main(["--dim", "4", "adjoint", "(D1 D2 D3)^3 f g"]) == 0
    assert capsys.readouterr().out == "-f*g*D1*D1*D1*D2*D2*D2*D3*D3*D3\n"


def test_cli_lift_second_exceptional_weight(capsys):
    code = main(["--dim", "1", "--lambda0", "1/2", "lift", "second", "a D1 D1"])
    assert code == 1
    assert "exceptional weight 1/2" in capsys.readouterr().err


def test_cli_syntax_error_exit_code(capsys):
    assert main(["--dim", "1", "adjoint", "D1 +"]) == 2


def test_cli_happy_paths(capsys):
    happy = [
        ["adjoint", "S[1,1] D1 D1 + T[1] D1 + R"],
        ["compose", "D1", "f"],
        ["lift", "canonical", "a D1 D1"],
        ["--volume", "generic", "lift", "canonical", "a D1 D1"],
        ["--params", "b=1/2,c1=1,d1=0", "lift", "vol", "A D1 + B"],
        ["lift", "distinguished", "a D1 D1 + b D1 + c"],
        ["--params", "c=2", "lift", "first", "A D1 + B"],
        ["lift", "second", "a D1 D1 + b D1 + c"],
        ["lift", "proj", "a D1 D1 + b D1 + c"],
        ["taylor", "L f + D1"],
        ["assemble", "D1", "f"],
        ["symbol", "a D1 D1 + b D1 + c"],
        ["quantize", "a xi^2 + b xi + c"],
        ["schwarzian", "a D1 D1 + b D1 + c"],
    ]
    for extra in happy:
        argv = ["--dim", "1"] + extra
        assert main(argv) == 0, argv
        capsys.readouterr()


def test_cli_check_commands(capsys):
    for name in ("adjoint-involution", "equivariance", "variation",
                  "sdiff-classify", "regular", "selfadjoint", "cocycle"):
        assert main(["check", name]) == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS")


def test_cli_json_output(capsys):
    assert main(["--dim", "1", "--json", "adjoint", "L"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["schema"] == "denslift/1"
    assert data["order"] == 1
    assert {"lpow": 1, "dmulti": [], "coeff": "-1"} in data["terms"]


def test_cli_stdin_operator(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("a D1 D1"))
    assert main(["--dim", "1", "lift", "second", "-"]) == 0
    assert "D1*D1" in capsys.readouterr().out
    # stdin is read once, so a second '-' is a flag error, in text and --json
    for argv in (["compose", "-", "-"], ["--json", "compose", "-", "-"],
                 ["assemble", "a", "-", "-"]):
        monkeypatch.setattr("sys.stdin", io.StringIO("a D1"))
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err == "flag error: stdin can be read once: give '-' for one argument at most\n"


def test_cli_dim2_symbol(capsys):
    assert main(["--dim", "2", "symbol", "S[1,2] D1 D2 + R"]) == 0
    out = capsys.readouterr().out
    assert "xi1" in out and "xi2" in out


def test_cli_flags_after_subcommand(capsys):
    # flags are accepted on either side of the subcommand
    assert main(["adjoint", "--dim", "1", "L"]) == 0
    assert capsys.readouterr().out.strip() == "-L + 1"
    assert main(["lift", "second", "--dim", "1", "--lambda0", "1/2", "a D1 D1"]) == 1
    assert "exceptional weight" in capsys.readouterr().err


# Exact exit code, stdout and stderr of every command, in text and --json, with
# flags on either side of the subcommand and "-" read from stdin.
GOLDEN = [
    (["--dim", "1", "adjoint", "L"], None, 0,
     '-L + 1\n',
     ''),
    (["--json", "adjoint", "a D1 L + 1/3 b"], None, 0,
     '{"schema": "denslift/1", "terms": [{"lpow": 1, "dmulti": [1], "coeff": "a"}, {"lpow": 1, '
     '"dmulti": [], "coeff": "a_,1"}, {"lpow": 0, "dmulti": [1], "coeff": "-a"}, {"lpow": 0, '
     '"dmulti": [], "coeff": "-a_,1 + 1/3*b"}], "order": 2}\n',
     ''),
    (["compose", "--dim", "1", "a D1 + L", "b D1"], None, 0,
     'b*L*D1 + a*b*D1*D1 + a*b_,1*D1\n',
     ''),
    (["--json", "compose", "D1", "f"], None, 0,
     '{"schema": "denslift/1", "terms": [{"lpow": 0, "dmulti": [1], "coeff": "f"}, {"lpow": 0, '
     '"dmulti": [], "coeff": "f_,1"}], "order": 1}\n',
     ''),
    (["--lambda0", "1/3", "lift", "second", "a D1 D1 + b D1 + c"], None, 0,
     '(9/2*a_,1_,1 - 9/2*b_,1 - 9/2*c)*L*L + (6*a_,1 - 6*b)*L*D1 + a*D1*D1 + (-3/2*a_,1_,1 + '
     '3/2*b_,1 + 9/2*c)*L + (-2*a_,1 + 3*b)*D1\n',
     ''),
    (["lift", "--json", "proj", "a D1 D1 + b"], None, 0,
     '{"schema": "denslift/1", "terms": [{"lpow": 2, "dmulti": [], "coeff": "1/3*a_,1_,1"}, '
     '{"lpow": 1, "dmulti": [1], "coeff": "a_,1"}, {"lpow": 0, "dmulti": [1, 1], "coeff": '
     '"a"}, {"lpow": 1, "dmulti": [], "coeff": "(-1/3 - l0)*a_,1_,1"}, {"lpow": 0, "dmulti": '
     '[1], "coeff": "-l0*a_,1"}, {"lpow": 0, "dmulti": [], "coeff": "(1/3*l0 + '
     '2/3*l0^2)*a_,1_,1 + b"}], "order": 2}\n',
     ''),
    (["--dim", "2", "--volume", "generic", "lift", "canonical", "S[1,2] D1 D2"], None, 0,
     'S[1,2]*ell_,1*ell_,2*L*L - S[1,2]*ell_,2*L*D1 - S[1,2]*ell_,1*L*D2 + S[1,2]*D1*D2 + '
     '(-2*l0*S[1,2]*ell_,1*ell_,2 - S[1,2]*ell_,1_,2)*L + l0*S[1,2]*ell_,2*D1 + '
     'l0*S[1,2]*ell_,1*D2 + (l0^2*S[1,2]*ell_,1*ell_,2 + l0*S[1,2]*ell_,1_,2)\n',
     ''),
    (["--params", "b=1/2,c1=1,d1=0", "lift", "vol", "A D1 + B"], None, 0,
     '1/2*A_,1*L + A*D1 + (-1/2*l0*A_,1 + B)\n',
     ''),
    (["lift", "distinguished", "--volume", "generic", "a D1"], None, 0,
     '((-1/2/(-1/2 + l0))*a_,1)*L + a*D1 + ((1/2*l0/(-1/2 + l0))*a_,1)\n',
     ''),
    (["--params", "c=2", "lift", "first", "--json", "A D1 + B"], None, 0,
     '{"schema": "denslift/1", "terms": [{"lpow": 1, "dmulti": [], "coeff": "(1 - 2*l0)*A_,1 + '
     '2*B"}, {"lpow": 0, "dmulti": [1], "coeff": "A"}, {"lpow": 0, "dmulti": [], "coeff": '
     '"(-l0 + 2*l0^2)*A_,1 + (1 - 2*l0)*B"}], "order": 1}\n',
     ''),
    (["--volume", "generic", "taylor", "L f + D1"], None, 0,
     '[0] D1 + l0*f\n[1] (ell_,1 + f)\n',
     ''),
    (["taylor", "--json", "L^2 a D1 + b"], None, 0,
     '{"schema": "denslift/1", "coefficients": [{"schema": "denslift/1", "terms": [{"lpow": 0, '
     '"dmulti": [1], "coeff": "l0^2*a"}, {"lpow": 0, "dmulti": [], "coeff": "b"}], "order": '
     '1}, {"schema": "denslift/1", "terms": [{"lpow": 0, "dmulti": [1], "coeff": "2*l0*a"}], '
     '"order": 1}, {"schema": "denslift/1", "terms": [{"lpow": 0, "dmulti": [1], "coeff": '
     '"a"}], "order": 1}]}\n',
     ''),
    (["assemble", "D1", "f"], None, 0,
     'f*L + D1 - l0*f\n',
     ''),
    (["--json", "assemble", "a D1", "b"], None, 0,
     '{"schema": "denslift/1", "terms": [{"lpow": 1, "dmulti": [], "coeff": "b"}, {"lpow": 0, '
     '"dmulti": [1], "coeff": "a"}, {"lpow": 0, "dmulti": [], "coeff": "-l0*b"}], "order": 1}\n',
     ''),
    (["--dim", "2", "symbol", "S[1,2] D1 D2 + R"], None, 0,
     'S[1,2]*xi1*xi2 + ((-1/5 - 3/5*l0)*S[1,2]_,2)*xi1 + ((-1/5 - 3/5*l0)*S[1,2]_,1)*xi2 + (R '
     '+ (1/4*l0 + 3/4*l0^2)*S[1,2]_,1_,2)\n',
     ''),
    (["symbol", "--json", "a D1 D1 + b D1"], None, 0,
     '{"schema": "denslift/1", "symbol": [{"xi": [1, 1], "coeff": "a"}, {"xi": [1], "coeff": '
     '"(-1/2 - l0)*a_,1 + b"}, {"xi": [], "coeff": "(1/3*l0 + 2/3*l0^2)*a_,1_,1 - l0*b_,1"}], '
     '"degree": 2}\n',
     ''),
    (["--lambda0", "1/4", "quantize", "a xi^2 + b xi + c"], None, 0,
     'a*D1*D1 + (3/4*a_,1 + b)*D1 + (1/16*a_,1_,1 + 1/4*b_,1 + c)\n',
     ''),
    (["--json", "--dim", "2", "quantize", "a xi1 xi2 + b xi2"], None, 0,
     '{"schema": "denslift/1", "terms": [{"lpow": 0, "dmulti": [1, 2], "coeff": "a"}, {"lpow": '
     '0, "dmulti": [1], "coeff": "(1/5 + 3/5*l0)*a_,2"}, {"lpow": 0, "dmulti": [2], "coeff": '
     '"(1/5 + 3/5*l0)*a_,1 + b"}, {"lpow": 0, "dmulti": [], "coeff": "(3/20*l0 + '
     '9/20*l0^2)*a_,1_,2 + l0*b_,2"}], "order": 2}\n',
     ''),
    (["schwarzian", "a D1 D1 + b D1 + c"], None, 0,
     '((1/3 + 2/3*l0)/(-1 + l0))*a_,1_,1 + (-1/(-1 + l0))*b_,1 + (1/(-l0 + l0^2))*c\n',
     ''),
    (["--json", "schwarzian", "a D1 D1"], None, 0,
     '((1/3 + 2/3*l0)/(-1 + l0))*a_,1_,1\n',
     ''),
    (["check", "sdiff-classify"], None, 0,
     'PASS sdiff-classify: kernel constraints b1=a1-a2, b2=-a3 verified\n',
     ''),
    (["--json", "check", "cocycle"], None, 0,
     'PASS cocycle: Schwarzian cocycle law on identity, generic, and Moebius jets\n',
     ''),
    (["adjoint", "-"], 'a D1', 0,
     '-a*D1 - a_,1\n',
     ''),
    (["--json", "quantize", "-"], 'a xi^2', 0,
     '{"schema": "denslift/1", "terms": [{"lpow": 0, "dmulti": [1, 1], "coeff": "a"}, {"lpow": '
     '0, "dmulti": [1], "coeff": "(1/2 + l0)*a_,1"}, {"lpow": 0, "dmulti": [], "coeff": '
     '"(1/6*l0 + 1/3*l0^2)*a_,1_,1"}], "order": 2}\n',
     ''),
    (["compose", "D1", "-"], 'f', 0,
     'f*D1 + f_,1\n',
     ''),
    (["adjoint", "D1 +"], None, 2,
     '',
     'syntax error: expected an atom (at offset 4)\n'),
    (["adjoint", "D1 )"], None, 2,
     '',
     'syntax error: trailing input (at offset 3)\n'),
    (["adjoint", "S[1 2]"], None, 2,
     '',
     "syntax error: expected ',' or ']' in index list (at offset 4)\n"),
    (["quantize", "xi_,1"], None, 2,
     '',
     'syntax error: derivative suffix on a fiber variable (at offset 2)\n'),
    (["adjoint", "D1_,1"], None, 2,
     '',
     'syntax error: derivative suffix only applies to coefficient atoms (at offset 2)\n'),
    (["--dim", "0", "adjoint", "L"], None, 2,
     '',
     'flag error: --dim expects an integer in 1..8, got 0\n'),
    (["lift", "second", "--lambda0", "1/2", "a D1 D1"], None, 1,
     '',
     'error: exceptional weight 1/2\n'),
    # l0 in an expression is the base weight that --lambda0 sets
    (["--lambda0", "1/3", "--volume", "generic", "lift", "canonical", "l0*D1"], None, 0,
     '-1/3*ell_,1*L + 1/3*D1 + 1/9*ell_,1\n',
     ''),
    (["--params", "l0=1/3", "--volume", "generic", "lift", "canonical", "l0*D1"], None, 2,
     '',
     'flag error: --params cannot bind the base weight l0: use --lambda0\n'),
    # _Parser._integer rejects a name or a fraction where it needs an integer
    (["adjoint", "a^b"], None, 2,
     '',
     'syntax error: power needs a plain integer (at offset 2)\n'),
    (["adjoint", "a^1/2"], None, 2,
     '',
     'syntax error: power needs a plain integer (at offset 2)\n'),
    (["adjoint", "S[a]"], None, 2,
     '',
     'syntax error: tensor index must be an integer (at offset 2)\n'),
    (["adjoint", "a_,b"], None, 2,
     '',
     'syntax error: derivative suffix needs an axis number (at offset 3)\n'),
    # an empty --params chunk is skipped
    (["--params", "k1=1,,k2=2", "adjoint", "k1 a"], None, 0,
     'a\n',
     ''),
    # a negative flag value is attached with '=' (see the next test for why)
    (["--lambda0=-1/3", "lift", "second", "a D1 D1"], None, 0,
     '9/20*a_,1_,1*L*L + 6/5*a_,1*L*D1 + a*D1*D1 + 3/20*a_,1_,1*L + 2/5*a_,1*D1\n',
     ''),
]


def test_cli_golden_outputs(capsys, monkeypatch):
    for argv, stdin, code, out, err in GOLDEN:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin or ""))
        assert main(argv) == code, argv
        assert capsys.readouterr() == (out, err), argv


def test_a_negative_flag_value_after_a_space_is_a_usage_error(capsys):
    # argparse reads "-1/3" as an option, so --lambda0 gets no argument
    assert main(["--lambda0", "-1/3", "lift", "second", "a D1 D1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == "denslift: error: argument --lambda0: expected one argument"


def test_help_returns_0(capsys):
    for argv, usage in ((["--help"], "usage: denslift [-h]"),
                        (["adjoint", "-h"], "usage: denslift adjoint [-h]")):
        assert main(argv) == 0, argv
        out, err = capsys.readouterr()
        assert out.startswith(usage) and err == "", argv


def test_check_variation_tests_four_operators_per_dim(capsys, monkeypatch):
    from denslift import equivariance

    identity = equivariance.check_adX_variation_identity
    for dim in (1, 2):
        deltas = []
        monkeypatch.setattr(equivariance, "check_adX_variation_identity",
                            lambda delta, *args: deltas.append(delta) or identity(delta, *args))
        assert main(["--dim", str(dim), "check", "variation"]) == 0
        assert capsys.readouterr().out == \
            "PASS variation: ad/variation identity on random inputs\n"
        assert len(deltas) == 4 and not any(d.is_zero() for d in deltas), dim


def test_cli_failed_check_exits_1(capsys, monkeypatch):
    monkeypatch.setitem(cli._CHECKS, "cocycle", lambda session: (False, "forced failure"))
    assert main(["check", "cocycle"]) == 1
    assert capsys.readouterr() == ("FAIL cocycle: forced failure\n", "")


def _nonzero_defect(handle, delta, field):
    return DensityOperator(delta.dim, {(0, (1,)): DiffPolynomial.jet("f")})


# (suite, the engine attribute it calls, a failing stand-in, its FAIL message)
_FAILING_ENGINE = [
    ("adjoint-involution", (DensityOperator, "adjoint"), lambda self: self,
     "weight generator adjoint"),
    ("equivariance", (equivariance, "ad_on_lifting"), _nonzero_defect,
     "nonzero defect term: f*D1"),
    ("variation", (equivariance, "check_adX_variation_identity"),
     lambda *args: False, "identity failed at 3/2*g_,1"),
    ("sdiff-classify", (equivariance, "classify_sdiff_map"),
     lambda *args: DensityOperator.identity(1), "identity map not equivariant"),
    ("regular", (cli, "is_strict_pair"), lambda *args: False,
     "canonical lift is not strictly regular"),
    ("selfadjoint", (cli, "selfadjoint_family"), lambda delta, *args: delta,
     "second-order family not self-adjoint"),
    ("cocycle", (cli, "schwarzian_cocycle_check"), lambda *args: False,
     "cocycle law failed for identity jets"),
]


@pytest.mark.parametrize("name, target, stand_in, message", _FAILING_ENGINE,
                         ids=[row[0] for row in _FAILING_ENGINE])
def test_each_check_suite_fails_when_its_engine_call_does(capsys, monkeypatch, name, target,
                                                         stand_in, message):
    monkeypatch.setattr(*target, stand_in)
    assert main(["check", name]) == 1
    assert capsys.readouterr() == (f"FAIL {name}: {message}\n", "")


def test_every_check_suite_has_a_failing_case():
    assert sorted(row[0] for row in _FAILING_ENGINE) == sorted(cli._CHECKS)


def test_cli_calls_do_not_share_flags(capsys):
    # the parser is built once per process; no flag may carry over to the next call
    for first in (["--dim", "2", "--json", "adjoint", "D2"], ["adjoint", "--json", "--dim", "2", "D2"]):
        assert main(first) == 0
        assert json.loads(capsys.readouterr().out)["order"] == 1
        assert main(["adjoint", "L"]) == 0
        assert capsys.readouterr().out == "-L + 1\n"


def test_readme_lists_every_command_lift_and_check():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = readme[readme.index("Commands:"):readme.index("Flags:")]
    listed = {}
    for item in re.findall(r"`([^`]+)`", paragraph):
        name, _, choices = item.partition("{")
        listed[name.strip()] = [c.strip() for c in choices.rstrip("}").split(",") if c.strip()]
    assert list(listed) == list(cli._COMMANDS)
    assert listed.pop("lift") == list(cli._LIFTS)
    assert listed.pop("check") == list(cli._CHECKS)
    assert not any(listed.values())


def test_each_grammar_rejects_the_other_grammars_generators(capsys):
    c = cfg(dim=2)
    for parse, src, offset in ((parse_symbol, "D1 a", 0), (parse_symbol, "L xi1", 0),
                               (parse_symbol, "a xi2 D2", 6), (parse_operator, "xi D1", 0),
                               (parse_operator, "a xi2", 2), (parse_operator, "b + xi1_,1", 4)):
        with pytest.raises(ParseError) as info:
            parse(src, c)
        assert info.value.offset == offset, src
    # names that merely start like a generator stay jet symbols in both grammars
    assert list(parse_operator("D Lx xia", c).terms) == [(0, ())]
    assert list(parse_symbol("D Lx xia", c).terms) == [()]
    for argv in (["quantize", "D1 a"], ["--dim", "2", "quantize", "L xi1"], ["symbol", "xi D1"]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.startswith("syntax error: ") and captured.err.count("\n") == 1


def test_jet_names_with_a_derivative_rule_are_reserved(capsys):
    # u, q and w carry the Moebius and reciprocal rules, x the coordinate rule:
    # read as user jets they would derive by those rules
    for dim, src, offset in ((1, "D1 u", 3), (1, "D1 q", 3), (1, "D1 w", 3), (1, "D1 x", 3),
                             (2, "a + x[1,2]", 4), (1, "xi w", 3)):
        parse = parse_symbol if "xi" in src else parse_operator
        with pytest.raises(ParseError, match="reserved jet name") as info:
            parse(src, cfg(dim=dim))
        assert info.value.offset == offset, src
        argv = ["--dim", str(dim), "symbol" if "xi" in src else "compose", src]
        assert main(argv if "xi" in src else argv + ["1"]) == 2, src
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.startswith("syntax error: ") and captured.err.count("\n") == 1
    # a coordinate x[i] with one index, and jets without a rule, stay readable
    for argv, shown in ((["--dim", "2", "compose", "D1 x[1]", "1"], "x[1]*D1 + 1"),
                        (["compose", "D1 ell", "1"], "ell*D1 + ell_,1"),
                        (["--params", "u", "compose", "D1 u", "1"], "u*D1")):
        assert main(argv) == 0, argv
        assert capsys.readouterr().out == shown + "\n"


def test_sym_and_symbolic_name_the_parameter_and_a_bare_params_name_is_sym(capsys):
    for flag_sets, argv in (
            ([["--params", "k1"], ["--params", "k1=sym"], ["--params", " k1 = symbolic "]],
             ["compose", "k1 D1", "a"]),
            ([["--lambda0", "sym"], ["--lambda0", "symbolic"], []],
             ["lift", "distinguished", "a D1"])):
        shown = []
        for flags in flag_sets:
            assert main(flags + argv) == 0, flags
            shown.append(capsys.readouterr().out)
        assert shown == [shown[0]] * 3 and re.search(r"\b(k1|l0)\b", shown[0]), shown


def test_round_trip_with_rational_function_coefficients():
    # outputs of the distinguished and second-order lifts carry denominators
    # like (2 l0 - 1); their rendered and JSON forms must re-ingest exactly
    from denslift.lifting import VolumeForm, distinguished_lift, second_order_canonical_lift
    from denslift.scalars import Scalar as Sc

    c = cfg(dim=1)
    base = parse_operator("a D1 D1 + b D1 + c", c)
    for lifted in (distinguished_lift(base, Sc.param("l0"), VolumeForm.generic()),
                   second_order_canonical_lift(base, Sc.param("l0"))):
        assert parse_operator(lifted.render(), c) == lifted
        assert operator_from_json(lifted.to_json(), c) == lifted


def test_round_trip_with_monomial_denominators():
    # 1/(k1*k2) must not render as 1/k1*k2, which reads back as k2/k1
    c = cfg(dim=1)
    for expr in ("a / (k1 k2)", "(k1 + 1) a D1 / (k1 l0^2)", "L a / (3 k1 k2 k3)"):
        op = parse_operator(expr, c)
        assert parse_operator(op.render(), c) == op, expr
        assert operator_from_json(op.to_json(), c) == op, expr


def test_division_by_scalar_expressions(capsys):
    c = cfg()
    got = parse_operator("b D1 / (2 l0 - 1)", c)
    l0 = Scalar.param("l0")
    b = DiffPolynomial.jet("b")
    assert got == DensityOperator(1, {(0, (1,)): b * (Scalar.of(1) / (2 * l0 - 1))})
    with pytest.raises(ParseError):
        parse_operator("a / b", c)   # jet divisor rejected
    with pytest.raises(ParseError):
        parse_operator("a / 0", c)
    # a numeral with a zero denominator is a syntax error at its offset
    for parse, src, offset in ((parse_operator, "1/0", 0), (parse_operator, "(0/0) a", 1),
                               (parse_symbol, "1/0", 0), (parse_operator, "a + 2/00 b", 4)):
        with pytest.raises(ParseError) as info:
            parse(src, c)
        assert info.value.offset == offset, src
    with pytest.raises(ParseError):
        operator_from_json('{"terms": [{"lpow": 0, "dmulti": [], "coeff": "1/0"}]}', c)
    for argv in (["adjoint", "1/0"], ["adjoint", "(0/0) a"], ["quantize", "1/0"]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.startswith("syntax error: ") and captured.err.count("\n") == 1


def test_fuzzed_round_trip_with_parameter_coefficients():
    rng = random.Random(2718)
    l0 = Scalar.param("l0")
    pool = [Scalar.of(1), 2 * l0 - 1, Scalar.of(1) / (2 * l0 - 1),
            l0 * (l0 - 1), Scalar.param("k1") / (l0 - 2), Scalar.of(Fraction(-3, 7))]
    for _ in range(60):
        dim = rng.randint(1, 2)
        op = random_operator(rng, dim, max_total=3)
        scaled = op * pool[rng.randrange(len(pool))]
        c = cfg(dim=dim)
        assert parse_operator(scaled.render(), c) == scaled
        assert operator_from_json(scaled.to_json(), c) == scaled


def test_cli_zero_operator_lifts_to_zero(capsys):
    for how in ("vol", "distinguished", "canonical", "proj"):
        assert main(["lift", how, "0"]) == 0, how
        assert capsys.readouterr() == ("0\n", ""), how
    assert main(["--lambda0", "1/2", "lift", "distinguished", "0"]) == 1
    assert capsys.readouterr() == ("", "error: exceptional weight 1/2\n")


def test_parse_powers_zero_and_one():
    c = cfg()
    assert parse_operator("(a D1)^0", c) == DensityOperator.identity(1)
    assert parse_operator("(a D1)^1", c) == parse_operator("a D1", c)
    assert parse_operator("(a D1)^3", c) == parse_operator("a D1 a D1 a D1", c)
    assert parse_symbol("(a xi)^0", c) == parse_symbol("1", c)
    assert parse_symbol("(a xi)^2", c) == parse_symbol("a^2 xi^2", c)


def test_symbol_times_a_scalar_on_the_right(capsys):
    shown = []
    for symbol in ("a xi^2 / 2", "1/2 a xi^2"):
        assert main(["quantize", symbol]) == 0
        shown.append(capsys.readouterr().out)
    assert shown[0] == shown[1]
    assert shown[0].startswith("1/2*a*D1*D1 + ")


# -- never a traceback ----------------------------------------------------------

# Token soup from the grammar's alphabet, a few stray characters included.  Few
# tokens and exponents of at most 2 keep every drawn input small: a dim-8
# (D1 ... D8)^3 product stays out of reach.
_SOUP = ["D1", "D2", "D3", "D9", "L", "xi", "xi1", "xi2", "f", "g", "S", "T[1]", "a_,1",
         "l0", "k1", "b", "c1", "0", "1", "2", "1/2", "3/0", "(", ")", "[", "]", ",", "_",
         "+", "-", "*", "/", "^", " ", "@", "{", "}", '"', ":", "\t", "\n"]
_expressions = st.lists(st.sampled_from(_SOUP), max_size=6).map(" ".join)
_json_texts = st.builds(
    lambda terms, top, cut: json.dumps({top: terms})[:cut],
    st.lists(st.dictionaries(
        st.sampled_from(["lpow", "dmulti", "coeff", "x"]),
        st.one_of(st.integers(-2, 30), st.lists(st.integers(-1, 9), max_size=4),
                  _expressions, st.none(), st.booleans()),
        max_size=4), max_size=3),
    st.sampled_from(["terms", "terms", "term"]),
    st.sampled_from([None, None, -1, 5, 20]))
_flags = st.lists(st.one_of(
    st.tuples(st.just("--dim"), st.integers(-1, 9).map(str)),
    st.tuples(st.just("--lambda0"), st.sampled_from(["symbolic", "sym", "1/3", "0", "1/2",
                                                       "x", "1/0"])),
    st.tuples(st.just("--volume"), st.sampled_from(["coordinate", "generic", "bad"])),
    st.tuples(st.just("--params"), st.sampled_from(["k1=2,b", "b=1/3,c2=1", "d1=sym",
                                                      "L=2", "c01=1", "D1", "xi=1", "x y",
                                                      "k1=1/0", ",,"])),
    st.tuples(st.just("--json")),
), max_size=3).map(lambda groups: [f for g in groups for f in g])
_COMMAND_NAMES = sorted(cli._COMMANDS) + ["bogus"]
_CHOICES = {"lift": sorted(cli._LIFTS) + ["bogus"], "check": sorted(cli._CHECKS) + ["bogus"]}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(_COMMAND_NAMES))
    argv = draw(_flags) + [command]
    if command in _CHOICES:
        argv.append(draw(st.sampled_from(_CHOICES[command])))
    texts = st.one_of(_expressions, _expressions, _json_texts)
    argv += draw(st.lists(texts, min_size=0 if command == "check" else 1, max_size=3))
    argv += draw(_flags)
    return [a for a in argv if a != "-"]   # '-' reads stdin


_MESSAGE = re.compile(r"(syntax error|flag error|error|denslift( \w+)?: error): ")


@settings(max_examples=150, deadline=None)
@given(_argvs())
@example(["adjoint", "", "\n"])   # argparse echoes an unrecognized argument
@example(["--dim", "2", "compose", "a", "b", "\x1b[0m\r", "\u2028"])
def test_main_never_ends_in_a_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, argv
    if code and err:
        lines = err.splitlines()
        assert _MESSAGE.match(lines[-1]), (argv, err)
        assert len(lines) == 1 or lines[-1].startswith("denslift"), (argv, err)
    elif code:   # a failed check suite prints its verdict
        assert code == 1 and out.getvalue().startswith("FAIL "), argv


@settings(max_examples=100, deadline=None)
@given(st.one_of(_json_texts, _expressions), st.integers(1, 8))
def test_the_json_reader_raises_only_its_own_errors(text, dim):
    try:
        got = operator_from_json(text, cfg(dim=dim))
    except DensliftError:
        return
    assert isinstance(got, DensityOperator)
