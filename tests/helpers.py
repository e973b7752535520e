"""Shared random generators and small oracles for the test suite."""

import random
from fractions import Fraction

from denslift.jets import DiffPolynomial
from denslift.operators import Density, DensityOperator
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


def random_field(rng: random.Random, dim: int):
    return [random_poly(rng, dim, max_factors=1, max_terms=2) for _ in range(dim)]


def generic_density(dim: int) -> Density:
    return Density(DiffPolynomial.jet("s"), Scalar.param("mu"))


def generic_third_order(dim: int) -> DensityOperator:
    """S^{ikm} D^3 + G^{ik} D^2 + A^i D + R, generic jets, symmetric tensors."""
    op = DensityOperator.zero(dim)
    rng3 = [(i, j, k) for i in range(1, dim + 1)
            for j in range(1, dim + 1) for k in range(1, dim + 1)]
    for idx in rng3:
        op = op + DensityOperator(dim, {(0, tuple(sorted(idx))): DiffPolynomial.jet("S", idx)})
    for i in range(1, dim + 1):
        for j in range(1, dim + 1):
            op = op + DensityOperator(dim, {(0, tuple(sorted((i, j)))): DiffPolynomial.jet("G", (i, j))})
        op = op + DensityOperator(dim, {(0, (i,)): DiffPolynomial.jet("A", (i,))})
    return op + DensityOperator.function(dim, DiffPolynomial.jet("R"))
