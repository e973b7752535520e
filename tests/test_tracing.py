"""The benchmark tracer finds every engine name it wraps and restores them all."""

import argparse

from denslift import cli, equivariance, jets, lifting, linalg, operators, projective, scalars
import denslift
from helpers import load_perfbench

MODULES = [denslift, scalars, jets, operators, lifting, equivariance, projective, linalg, cli]
CLASSES = [scalars.Scalar, jets.DiffPolynomial, operators.DensityOperator,
           equivariance.LiftingHandle, equivariance.DivFreeField, equivariance.DivFreeTensor,
           projective.SymbolPoly, argparse.ArgumentParser]


def _snapshot():
    return {(owner, name): value for owner in MODULES + CLASSES
            for name, value in vars(owner).items()}


def test_tracer_wraps_engine_names_and_restores_them():
    before = _snapshot()
    tracer = load_perfbench("tracing").Tracer()
    try:
        tracer.install()   # raises when a name it wraps is gone from the engine
        compose = operators.DensityOperator.__dict__["compose"]
        assert compose is not before[(operators.DensityOperator, "compose")]
        assert compose.__wrapped__ is before[(operators.DensityOperator, "compose")]
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
