"""The engine's and the CLI's plain data records: construction checks,
defaults, value equality, immutability, the ``Name(field=value, ...)`` repr,
and one record idiom (NamedTuple) that keeps dataclasses off the import graph."""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import denslift
from denslift.cli import DEFAULT_PARAMS, SessionConfig, _Verdict
from denslift.equivariance import DivFreeTensor, LiftingHandle, generic_divfree_field
from denslift.errors import OrderViolationError
from denslift.jets import DiffPolynomial
from denslift.lifting import VolLiftParams, VolumeForm, canonical_lift, vol_lift
from denslift.operators import Density, DensityOperator
from denslift.projective import DiffeoJet1D
from denslift.scalars import Scalar

l0 = Scalar.param("l0")
COORD = VolumeForm.coordinate()


def _lift(delta):
    return canonical_lift(delta, l0, COORD)


# name: (field names in order, a factory that builds equal records on each call)
RECORDS = {
    "Density": (("coeff", "weight"),
                lambda: Density(DiffPolynomial.jet("f"), l0)),
    "VolLiftParams": (("b", "c", "d"),
                      lambda: VolLiftParams.of(1, [2, Fraction(1, 3)], [0, l0])),
    "DiffeoJet1D": (("y1", "w", "pairs"), DiffeoJet1D.generic),
    "SessionConfig": (("dim", "lambda0", "volume", "json_output", "params"),
                      lambda: SessionConfig(2, Scalar.of(Fraction(1, 3)), VolumeForm.generic(),
                                            True, {"k1": Scalar.of(2)})),
    "_Verdict": (("name", "ok", "message"),
                 lambda: _Verdict("sa", True, "3/3 cases")),
    "LiftingHandle": (("kind", "l0", "lift", "params"),
                      lambda: LiftingHandle("canonical", l0, _lift)),
    "DivFreeField": (("dim", "components"), lambda: generic_divfree_field(2)),
    "DivFreeTensor": (("dim", "rank", "constrained"), lambda: DivFreeTensor(3, 2, False)),
    "VolumeForm": (("ell",), VolumeForm.generic),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_fields_give_equal_records(name):
    _, make = RECORDS[name]
    first, second = make(), make()
    assert first is not second
    assert first == second
    assert not first != second


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_reject_field_assignment(name):
    fields, make = RECORDS[name]
    record = make()
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_repr_names_every_field_in_order(name):
    fields, make = RECORDS[name]
    record = make()
    shown = ", ".join(f"{field}={getattr(record, field)!r}" for field in fields)
    assert type(record).__name__ == name
    assert repr(record) == f"{name}({shown})"


def test_record_defaults():
    assert DiffeoJet1D(DiffPolynomial.const(2), DiffPolynomial.const(Fraction(1, 2))).pairs == ()
    assert DivFreeTensor(2, 3).constrained is True
    assert LiftingHandle("canonical", l0, _lift).params is None
    cfg = SessionConfig()
    assert cfg.dim == 1
    assert cfg.lambda0 == Scalar.param("l0")
    assert cfg.volume.is_coordinate and cfg.volume == VolumeForm() == COORD
    assert cfg.json_output is False
    assert dict(cfg.params) == {} and cfg.param_names() == set(DEFAULT_PARAMS)


def test_vol_lift_params_rejects_unequal_lengths():
    message = "c and d parameter lists must have equal length"
    with pytest.raises(ValueError, match=message):
        VolLiftParams(Scalar.of(0), (Scalar.of(1),), ())
    with pytest.raises(ValueError, match=message):
        VolLiftParams.of(0, [1, 2], [3])
    assert VolLiftParams.of(0, [1, 2], [3, 4]).n == 2


def test_vol_lift_rejects_a_family_shorter_than_the_order():
    delta = DensityOperator.partial(1, 1) @ DensityOperator.partial(1, 1)
    with pytest.raises(OrderViolationError,
                       match="^parameter lists of length 1 cannot lift an order 2 operator$"):
        vol_lift(delta, l0, COORD, VolLiftParams.of(0, [0], [0]))


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_named_tuples_of_their_fields(name):
    fields, make = RECORDS[name]
    record = make()
    assert record._fields == fields
    assert record == tuple(getattr(record, field) for field in fields)


def test_importing_every_module_loads_no_dataclass_machinery():
    # a fresh interpreter without site, so only denslift's own imports count;
    # -B, as -I ignores PYTHONDONTWRITEBYTECODE, keeps bytecode out of the package
    package = Path(denslift.__file__).parent
    modules = sorted(f"denslift.{f.stem}" for f in package.glob("*.py") if f.stem != "__init__")
    code = (f"import sys; sys.path.insert(0, {str(package.parent)!r})\n"
            f"import {', '.join(modules)}\n"
            "print(' '.join(m for m in ('dataclasses', 'inspect', 'ast', 'dis') "
            "if m in sys.modules))")
    done = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert {"denslift.cli", "denslift.equivariance"} <= set(modules)
    assert done.stdout.strip() == ""
