"""The self-adjoint family, the distinguished lift and the regular projective
lifting against the sympy oracle of perfbench/oracle.py, which shares no code
with the engine.  The oracle reads the base weight l0 as 2/7, the weight L at
its own sample value, and the generic volume as rho = exp(ell)."""

import random
from fractions import Fraction

import pytest

pytest.importorskip("sympy")

from denslift.lifting import VolumeForm, distinguished_lift, selfadjoint_family  # noqa: E402
from denslift.projective import proj_regular_lift, proj_sa_polynomials  # noqa: E402
from denslift.scalars import Scalar  # noqa: E402

from helpers import load_perfbench, weight_free_of_order  # noqa: E402

oracle = load_perfbench("oracle")

# symbolic l0, and the number the oracle substitutes for it
BASE_WEIGHTS = (Scalar.param("l0"), Scalar.of(oracle.L0))
VOLUMES = (VolumeForm.coordinate(), VolumeForm.generic())
SHAPES = [(dim, n) for dim in (1, 2) for n in (1, 2, 3, 4)]


def _cases(seed: int):
    rng = random.Random(seed)
    for dim, n in SHAPES:
        yield rng, dim, n, weight_free_of_order(rng, dim, n)


def _distinguished_by_oracle(delta, rho: VolumeForm):
    """The oracle's distinguished handle applied to its density, and the model
    it lives on; the coordinate volume is the oracle's with ell = 0."""
    m = oracle.Model(delta.dim)
    if rho.is_coordinate:
        m.ell_d = [m.zero] * delta.dim
    h = oracle.handle(m, "distinguished", m.operator(delta), m.operator_adjoint(delta),
                      delta.total_order(), None, oracle.LAM)
    return m, h(m.f)


@pytest.mark.parametrize("rho", VOLUMES, ids=["coordinate", "generic"])
def test_selfadjoint_family_restricts_and_has_the_adjoint_sign(rho):
    for rng, dim, n, delta in _cases(2001):
        evens = [weight_free_of_order(rng, dim, n - 2 * k) for k in range(1, n // 2 + 1)]
        for w in BASE_WEIGHTS:
            for data in ([], evens):
                got = selfadjoint_family(delta, w, rho, data)
                assert oracle.check_restricts(got, delta), (dim, n, w, len(data))
                assert oracle.check_self_adjoint(got, (-1) ** n), (dim, n, w, len(data))


@pytest.mark.parametrize("rho", VOLUMES, ids=["coordinate", "generic"])
def test_distinguished_lift_is_the_oracle_handle(rho):
    for _, dim, n, delta in _cases(2002):
        m, want = _distinguished_by_oracle(delta, rho)
        for w in BASE_WEIGHTS:
            assert m.agrees(distinguished_lift(delta, w, rho), oracle.LAM, want), (dim, n, w)


def test_proj_regular_lift_with_self_adjoint_weights():
    for rng, dim, n, delta in _cases(2003):
        free = {k: [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(k // 2)]
                for k in range(2, n + 1)}
        evens = {k: c for k, c in free.items() if k % 2 == 0}
        odds = {k: c for k, c in free.items() if k % 2}
        for w in BASE_WEIGHTS:
            polys = proj_sa_polynomials(n, w, evens, odds)
            got = proj_regular_lift(delta, w, polys)
            assert oracle.check_restricts(got, delta), (dim, n, w)
            assert oracle.check_self_adjoint(got, (-1) ** n), (dim, n, w)
