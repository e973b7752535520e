"""Byte-identical CLI text: every command in ``data/cli_golden.json`` must
exit with the code and print the stdout and stderr recorded there.

The file holds ``[argv, exit code, stdout, stderr]`` rows for the README
commands, error inputs, and the symbol, quantization, Schwarzian, Taylor and
lifting commands at dims 1-2, three base weights, text and ``--json``.  The
``check`` suites are slow and tested in ``test_cli.py``.  Regenerate the
file only for an intended change of output:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

from denslift.cli import main

DATA = Path(__file__).resolve().parent / "data" / "cli_golden.json"

README = [
    ["--dim", "1", "adjoint", "L"],
    ["--dim", "1", "--lambda0", "1/3", "lift", "second", "a D1 D1 + b D1 + c"],
    ["--dim", "1", "--lambda0", "symbolic", "symbol", "a D1 D1 + b D1 + c"],
    ["--dim", "1", "--lambda0", "1/4", "quantize", "a xi^2 + b xi + c"],
    ["--dim", "2", "--volume", "generic", "lift", "canonical", "S[1,2] D1 D2"],
    ["--params", "b=1/2,c1=1,d1=0", "lift", "vol", "A D1 + B"],
    ["--dim", "1", "--volume", "generic", "taylor", "L f + D1"],
]

ERRORS = [
    ["adjoint", "a +"],
    ["adjoint", "(a D1"],
    ["adjoint", "1/0"],
    ["adjoint", "a $ b"],
    ["adjoint", "D2"],
    ["--dim", "2", "adjoint", "S[1,3]"],
    ["adjoint", "xi a"],
    ["quantize", "D1 a"],
    ["symbol", "a_,1 xi_,1"],
    ["adjoint", "a / b"],
    ["adjoint", "L^13"],
    ["--lambda0", "abc", "adjoint", "L"],
    ["--dim", "0", "adjoint", "L"],
    ["--params", "L=2", "adjoint", "L"],
    ["compose", "-", "-"],
    ["--lambda0", "1/2", "lift", "second", "a D1 D1"],
    ["--lambda0", "0", "lift", "second", "a D1 D1"],
    ["--lambda0", "1", "schwarzian", "a D1 D1"],
    ["--lambda0", "1/2", "lift", "distinguished", "a D1"],
    ["lift", "second", "a D1 D1 D1"],
    ["lift", "canonical", "L a"],
    ["lift", "proj", "L"],
    ["symbol", "L D1"],
    ["schwarzian", "L"],
    ["schwarzian", "a D1 D1 D1"],
    ["--dim", "2", "schwarzian", "a D1 D2"],
    ["--dim", "2", "schwarzian", "L D1 D1 D1"],
    ["--params", "b=1/2", "lift", "vol", "A D1 D1"],
    ["lift", "first", "a D1 D1"],
    ["taylor", "a D1 +"],
    ["--json", "--lambda0", "1/2", "lift", "distinguished", "a D1"],
    ["schwarzian", "L D1 D1 D1"],
    ["--lambda0", "1/2", "schwarzian", "L"],
    ["--lambda0", "1/2", "schwarzian", "a D1 D1 D1"],
    ["--dim", "2", "--lambda0", "1/2", "schwarzian", "L D1"],
    ["schwarzian", "0"],
    ["lift", "canonical", "0"],
    ["lift", "second", "0"],
    ["lift", "proj", "0"],
]

# operators and symbols per dim: second order, third order, and a symbol
SECOND = {1: "a D1 D1 + b D1 + c", 2: "S[1,2] D1 D2 + a D1 + b D2 + c"}
THIRD = {1: "a D1 D1 D1 + b D1", 2: "f D1 D1 D2 + g D2"}
SYMBOL = {1: "a xi^2 + b xi + c", 2: "a xi1 xi2 + b xi2 + c"}


def _matrix():
    for dim in (1, 2):
        for lam in ("symbolic", "1/3", "2"):
            for json_flag in ([], ["--json"]):
                flags = ["--dim", str(dim), "--lambda0", lam] + json_flag
                yield flags + ["symbol", SECOND[dim]]
                yield flags + ["symbol", THIRD[dim]]
                yield flags + ["quantize", SYMBOL[dim]]
                yield flags + ["taylor", "L^2 a + L D1 + b"]
                yield flags + ["lift", "proj", SECOND[dim]]
                yield flags + ["lift", "second", SECOND[dim]]
                yield flags + ["lift", "canonical", THIRD[dim]]
                yield flags + ["lift", "distinguished", "a D1 + b"]
                if dim == 1:
                    yield flags + ["schwarzian", SECOND[1]]
            generic = ["--dim", str(dim), "--lambda0", lam, "--volume", "generic"]
            yield generic + ["taylor", "L a + D1 D1"]
            yield generic + ["lift", "canonical", SECOND[dim]]
            yield generic + ["lift", "distinguished", "a D1 D1 + b"]
            for json_flag in ([], ["--json"]):
                yield generic + json_flag + ["lift", "distinguished", THIRD[dim]]
    yield ["--lambda0", "1/3", "lift", "proj", THIRD[1]]
    yield ["--dim", "2", "--lambda0", "2", "lift", "proj", THIRD[2]]


COMMANDS = README + ERRORS + list(_matrix())


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return [argv, code, out.getvalue(), err.getvalue()]


def test_cli_outputs_match_the_golden_corpus():
    rows = json.loads(DATA.read_text())
    assert [row[0] for row in rows] == COMMANDS
    for row in rows:
        assert run(row[0]) == row, row[0]


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps([run(argv) for argv in COMMANDS], indent=1) + "\n")
