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


def test_each_term_map_counts_its_shared_dunders_under_its_own_class():
    # TermMap's + is aliased into each subclass body, so a symbol sum stays in
    # the projective layer and an operator sum in the operators layer
    sym = projective.SymbolPoly(1, {(1,): jets.DiffPolynomial.const(1)})
    op = operators.DensityOperator.partial(1, 1)
    tracer = load_perfbench("tracing").Tracer()
    with tracer:
        sym + sym
        op + op
    assert tracer.calls["projective.SymbolPoly.__add__"] == 1
    assert tracer.calls["operators.DensityOperator.__add__"] == 1
