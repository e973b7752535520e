"""Exact symbolic calculus for differential operators on the algebra of densities."""

from .errors import (
    BadPolynomialError,
    CoefficientTooLargeError,
    DensliftError,
    DimensionMismatchError,
    DimensionNotOneError,
    DimensionTooSmallError,
    DuplicateSymbolError,
    ExceptionalWeightError,
    FlagError,
    HasWeightOperatorError,
    IndexRangeError,
    NotNormalizedError,
    OrderTooHighError,
    OrderViolationError,
    ParseError,
    SchemaError,
    ZeroDenominatorError,
)
from .jets import DiffPolynomial, JetSymbol, register_symbol
from .lifting import (
    GeometricData,
    VolLiftParams,
    VolumeForm,
    canonical_lift,
    cocycle_rho,
    decompose_first_order,
    distinguished_lift,
    extract_geometric_data,
    first_order_lift,
    is_regular_pair,
    is_strict_pair,
    limit_lift,
    sa_vertical_polynomials,
    second_order_canonical_lift,
    selfadjoint_family,
    taylor_assemble,
    taylor_expand,
    vol_lift,
)
from .operators import Density, DensityOperator, ad_vf, lie_operator
from .projective import (
    DiffeoJet1D,
    SymbolPoly,
    coordinate_change_1d,
    full_symbol,
    proj_decompose,
    proj_generators,
    proj_lift,
    proj_regular_lift,
    proj_sa_polynomials,
    quantize,
    schwarzian_cocycle_check,
    schwarzian_data,
    symbol_coeff,
)
from .scalars import Scalar

__version__ = "0.1.0"
