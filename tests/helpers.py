"""Shared random generators and small oracles for the test suite."""

import importlib.util
import random
from fractions import Fraction
from pathlib import Path

from denslift.jets import DiffPolynomial
from denslift.operators import Density, DensityOperator, generic_tensor, tensor_operator
from denslift.scalars import Scalar

JET_BASES = ["a", "b", "c", "g"]


def random_poly(rng: random.Random, dim: int, max_factors: int = 2,
                max_terms: int = 2, max_deriv: int = 1) -> DiffPolynomial:
    out = DiffPolynomial.zero()
    for _ in range(rng.randint(1, max_terms)):
        term = DiffPolynomial.const(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        for _ in range(rng.randint(0, max_factors)):
            base = rng.choice(JET_BASES)
            lower = tuple(rng.randint(1, dim) for _ in range(rng.randint(0, max_deriv)))
            term = term * DiffPolynomial.jet(base, (), lower)
        out = out + term
    return out


def random_operator(rng: random.Random, dim: int, max_total: int = 3,
                    max_terms: int = 3) -> DensityOperator:
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            total = rng.randint(0, max_total)
            r = rng.randint(0, total)
            alpha = tuple(sorted(rng.randint(1, dim) for _ in range(total - r)))
            coeff = random_poly(rng, dim)
            key = (r, alpha)
            terms[key] = terms.get(key, DiffPolynomial.zero()) + coeff
        op = DensityOperator(dim, terms)
        if not op.is_zero():
            return op


def weight_free_of_order(rng: random.Random, dim: int, n: int) -> DensityOperator:
    """A random weight-free operator of order exactly n."""
    while True:
        op = random_operator(rng, dim, max_total=n).restrict(0)
        if not op.is_zero() and op.total_order() == n:
            return op


def random_field(rng: random.Random, dim: int):
    return [random_poly(rng, dim, max_factors=1, max_terms=2) for _ in range(dim)]


def generic_density(dim: int) -> Density:
    return Density(DiffPolynomial.jet("s"), Scalar.param("mu"))


def generic_third_order(dim: int) -> DensityOperator:
    """S^{ikm} D^3 + G^{ik} D^2 + A^i D + R, generic jets, symmetric tensors."""
    return sum((tensor_operator(generic_tensor(base, dim, rank), dim)
                for base, rank in (("R", 0), ("A", 1), ("G", 2), ("S", 3))),
               DensityOperator.zero(dim))


def load_perfbench(name: str):
    """perfbench/<name>.py, loaded from its file: perfbench is not a package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
