"""CLI: grammar round trips, JSON re-ingestion, command exit codes."""

import json
import random
from fractions import Fraction

import pytest

from denslift.cli import (
    MAX_NESTING,
    SessionConfig,
    main,
    operator_from_json,
    parse_operator,
    parse_symbol,
)
from denslift.errors import DensliftError, IndexRangeError, ParseError
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
        '{"terms": 5}',
        '{"schema": "denslift/1"}',
        '[]',
        'not json',
    ]
    for text in bad:
        with pytest.raises(DensliftError):
            operator_from_json(text, cfg(dim=1))


def test_cli_adjoint_of_weight(capsys):
    assert main(["--dim", "1", "adjoint", "L"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "-L + 1"


def test_cli_readme_outputs_verbatim(capsys):
    readme = [
        (["--dim", "1", "--lambda0", "symbolic", "symbol", "a D1 D1 + b D1 + c"],
         "a*xi^2 + ((-1/2 - l0)*a_,1 + b)*xi + ((1/3*l0 + 2/3*l0^2)*a_,1_,1 - l0*b_,1 + c)"),
        (["check", "cocycle"],
         "PASS cocycle: Schwarzian cocycle law on identity, generic, and Moebius jets"),
    ]
    for argv, shown in readme:
        assert main(argv) == 0
        assert capsys.readouterr().out == shown + "\n"


def test_cli_bad_flag_values_exit_2_with_one_line(capsys):
    for flags in (["--lambda0", "abc"], ["--lambda0", "1/0"], ["--params", "b=x"]):
        assert main(flags + ["adjoint", "L"]) == 2, flags
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.startswith("flag error: ") and captured.err.count("\n") == 1


def test_parenthesis_nesting_is_bounded(capsys):
    c = cfg()
    nested = "(" * MAX_NESTING + "a D1" + ")" * MAX_NESTING
    assert parse_operator(nested, c) == parse_operator("a D1", c)
    deep = "(" * 2000 + "a" + ")" * 2000
    with pytest.raises(ParseError):
        parse_operator(deep, c)
    assert main(["adjoint", deep]) == 2
    assert capsys.readouterr().err.startswith("syntax error: parentheses nested deeper")


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


def test_division_by_scalar_expressions():
    c = cfg()
    got = parse_operator("b D1 / (2 l0 - 1)", c)
    l0 = Scalar.param("l0")
    b = DiffPolynomial.jet("b")
    assert got == DensityOperator(1, {(0, (1,)): b * (Scalar.of(1) / (2 * l0 - 1))})
    with pytest.raises(ParseError):
        parse_operator("a / b", c)   # jet divisor rejected
    with pytest.raises(ParseError):
        parse_operator("a / 0", c)


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
