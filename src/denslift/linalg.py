"""Exact linear algebra over the scalar field and over operator coordinates."""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .operators import DensityOperator
from .scalars import Scalar


def operator_coordinates(ops: Sequence[DensityOperator]) -> List[List[Scalar]]:
    """Flatten operators into rows of scalars over a shared coordinate basis.

    Coordinates are (weight power, derivative multi-index, jet monomial); the
    returned matrix has one column per operator.
    """
    coords = set()
    for op in ops:
        for (r, alpha), c in op.terms.items():
            for mono in c.terms:
                coords.add((r, alpha, mono))
    ordered = sorted(coords, key=lambda k: (k[0], k[1], str(k[2])))
    rows = []
    for r, alpha, mono in ordered:
        row = []
        for op in ops:
            c = op.terms.get((r, alpha))
            row.append(c.terms.get(mono, Scalar.of(0)) if c is not None else Scalar.of(0))
        rows.append(row)
    return rows


def _row_reduce(matrix: List[List[Scalar]]) -> Tuple[List[List[Scalar]], List[Tuple[int, int]]]:
    """Reduced row echelon form by exact Gauss-Jordan elimination, with the
    (row, column) position of every pivot."""
    rows = [list(r) for r in matrix]
    pivots: List[Tuple[int, int]] = []
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        rk = len(pivots)
        pivot = next((i for i in range(rk, len(rows)) if not rows[i][col].is_zero()), None)
        if pivot is None:
            continue
        rows[rk], rows[pivot] = rows[pivot], rows[rk]
        inv = Scalar.of(1) / rows[rk][col]
        rows[rk] = [entry * inv for entry in rows[rk]]
        for i in range(len(rows)):
            if i != rk and not rows[i][col].is_zero():
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rk])]
        pivots.append((rk, col))
        if len(pivots) == len(rows):
            break
    return rows, pivots


def rank(matrix: List[List[Scalar]]) -> int:
    """Row-echelon rank by exact Gaussian elimination."""
    return len(_row_reduce(matrix)[1])


def nullspace(matrix: List[List[Scalar]]) -> List[List[Scalar]]:
    """Basis of the right kernel, exact."""
    if not matrix:
        return []
    rows, pivots = _row_reduce(matrix)
    ncols = len(rows[0])
    pivot_cols = {c for _, c in pivots}
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        vec = [Scalar.of(0)] * ncols
        vec[free] = Scalar.of(1)
        for row, col in pivots:
            vec[col] = -rows[row][free]
        basis.append(vec)
    return basis
