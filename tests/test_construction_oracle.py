"""The self-adjoint family, the distinguished lift, the restriction of the
canonical, vol and projective lifts, the regular projective lifting, the
equivariance defect and volume variation of the volume liftings and the
Taylor expansion against the sympy oracle of perfbench/oracle.py, which
shares no code with the engine.  The oracle reads the base weight l0 as 2/7,
the weight L at its own sample value, and the generic volume as
rho = exp(ell); the coordinate volume is its model with ell = 0."""

import random
from fractions import Fraction

import pytest

pytest.importorskip("sympy")

from denslift.equivariance import (  # noqa: E402
    LiftingHandle,
    ad_on_lifting,
    divergence,
    volume_variation,
)
from denslift.jets import DiffPolynomial  # noqa: E402
from denslift.lifting import (  # noqa: E402
    VolLiftParams,
    VolumeForm,
    canonical_lift,
    distinguished_lift,
    selfadjoint_family,
    taylor_assemble,
    taylor_expand,
    vol_lift,
)
from denslift.projective import proj_lift, proj_regular_lift, proj_sa_polynomials  # noqa: E402
from denslift.scalars import Scalar  # noqa: E402

from helpers import load_perfbench, weight_free_of_order  # noqa: E402

oracle = load_perfbench("oracle")

# symbolic l0, and the number the oracle substitutes for it
BASE_WEIGHTS = (Scalar.param("l0"), Scalar.of(oracle.L0))


def _cases(seed: int, orders=(1, 2, 3, 4)):
    rng = random.Random(seed)
    for dim in (1, 2):
        for n in orders:
            yield rng, dim, n, weight_free_of_order(rng, dim, n)


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-5, 5), rng.randint(1, 4))


def _vol_params(rng: random.Random, n: int) -> VolLiftParams:
    return VolLiftParams.of(_rational(rng), [_rational(rng) for _ in range(n)],
                            [_rational(rng) for _ in range(n)])


def _handles(rho: VolumeForm, params: VolLiftParams):
    """The handle of each lifting kind with a volume variation, by base weight."""
    return {"canonical": lambda w: LiftingHandle.canonical(w, rho),
            "vol": lambda w: LiftingHandle.vol(w, rho, params),
            "distinguished": lambda w: LiftingHandle.distinguished(w, rho)}


class _CoordinateModel(oracle.Model):
    def __init__(self, dim: int):
        super().__init__(dim)
        self.ell_d = [self.zero] * dim


@pytest.fixture(params=[VolumeForm.coordinate(), VolumeForm.generic()],
                ids=["coordinate", "generic"])
def rho(request, monkeypatch):
    """The volume form, with the oracle's model set to the same volume."""
    if request.param.is_coordinate:
        monkeypatch.setattr(oracle, "Model", _CoordinateModel)
    return request.param


def _distinguished_by_oracle(delta):
    """The oracle's distinguished handle applied to its density, and the model
    it lives on."""
    m = oracle.Model(delta.dim)
    h = oracle.handle(m, "distinguished", m.operator(delta), m.operator_adjoint(delta),
                      delta.total_order(), None, oracle.LAM)
    return m, h(m.f)


def test_selfadjoint_family_restricts_and_has_the_adjoint_sign(rho):
    for rng, dim, n, delta in _cases(2001):
        evens = [weight_free_of_order(rng, dim, n - 2 * k) for k in range(1, n // 2 + 1)]
        for w in BASE_WEIGHTS:
            for data in ([], evens):
                got = selfadjoint_family(delta, w, rho, data)
                assert oracle.check_restricts(got, delta), (dim, n, w, len(data))
                assert oracle.check_self_adjoint(got, (-1) ** n), (dim, n, w, len(data))


def test_distinguished_lift_is_the_oracle_handle(rho):
    for _, dim, n, delta in _cases(2002):
        m, want = _distinguished_by_oracle(delta)
        for w in BASE_WEIGHTS:
            assert m.agrees(distinguished_lift(delta, w, rho), oracle.LAM, want), (dim, n, w)


def test_canonical_and_vol_lifts_restrict(rho):
    for rng, dim, n, delta in _cases(2006):
        params = _vol_params(rng, n)
        for w in BASE_WEIGHTS:
            assert oracle.check_restricts(canonical_lift(delta, w, rho), delta), (dim, n, w)
            assert oracle.check_restricts(vol_lift(delta, w, rho, params), delta), (dim, n, w)


def test_proj_regular_lift_with_self_adjoint_weights():
    for rng, dim, n, delta in _cases(2003):
        free = {k: [_rational(rng) for _ in range(k // 2)] for k in range(2, n + 1)}
        for w in BASE_WEIGHTS:
            assert oracle.check_restricts(proj_lift(delta, w), delta), (dim, n, w)
            polys = proj_sa_polynomials(n, w, free)
            got = proj_regular_lift(delta, w, polys)
            assert oracle.check_restricts(got, delta), (dim, n, w)
            assert oracle.check_self_adjoint(got, (-1) ** n), (dim, n, w)


@pytest.mark.parametrize("kind", ["canonical", "vol", "distinguished"])
def test_ad_on_lifting_is_the_oracle_defect(rho, kind):
    """The oracle reads a symbolic l0 as 2/7, so the defect at symbolic l0 is
    checked as the one at 2/7 that it specializes to."""
    for rng, dim, n, delta in _cases(2004, orders=(1, 2, 3)):
        field = [DiffPolynomial.jet("X", (i,)) for i in range(1, dim + 1)]
        make = _handles(rho, _vol_params(rng, n))[kind]
        symbolic, numeric = (ad_on_lifting(make(w), delta, field) for w in BASE_WEIGHTS)
        assert symbolic.substitute_params({"l0": BASE_WEIGHTS[1]}) == numeric, (dim, n)
        assert oracle.check_defect(delta, make(BASE_WEIGHTS[1]), field, numeric), (dim, n)


@pytest.mark.parametrize("kind", ["canonical", "vol", "distinguished"])
def test_volume_variation_is_the_oracle_defect(rho, kind):
    """rho -> rho (1 + div_rho X) moves each lifting as ad_X does: the
    variation is the ad_on_lifting defect, whose oracle is check_defect."""
    for rng, dim, n, delta in _cases(2004, orders=(1, 2, 3)):
        field = [DiffPolynomial.jet("X", (i,)) for i in range(1, dim + 1)]
        params = _vol_params(rng, n)
        make = _handles(rho, params)[kind]
        h = divergence(field, rho)
        symbolic, numeric = (volume_variation(kind, delta, w, rho, h, params)
                             for w in BASE_WEIGHTS)
        assert symbolic == ad_on_lifting(make(BASE_WEIGHTS[0]), delta, field), (dim, n)
        assert symbolic.substitute_params({"l0": BASE_WEIGHTS[1]}) == numeric, (dim, n)
        assert oracle.check_defect(delta, make(BASE_WEIGHTS[1]), field, numeric), (dim, n)


def test_taylor_expand_is_the_oracle_expansion(rho):
    for rng, dim, n, delta in _cases(2005, orders=(1, 2, 3)):
        params = _vol_params(rng, n)
        for w in BASE_WEIGHTS:
            lifted = vol_lift(delta, w, rho, params)
            coeffs = taylor_expand(lifted, w, rho)
            assert oracle.check_taylor(lifted, coeffs), (dim, n, w)
            assert taylor_assemble(coeffs, w, rho) == lifted, (dim, n, w)
