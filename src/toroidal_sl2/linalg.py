"""Exact linear algebra over the rationals.

Each row is scaled to a primitive integer row and kept sparse, as a dict
column -> value.  Elimination stays in the integers and touches only the
rows with a nonzero in the pivot column, replacing each by the primitive
part of (p/g) row - (f/g) pivot row, g = gcd(p, f).  Pivots follow
Markowitz: the column with the fewest active rows, in it the row with the
fewest nonzeros, then the smallest entry, ties to the lowest index.  The
pivot rows, in elimination order, are an echelon basis of the row space.
Kernel vectors come from them by back-substitution and are returned in a
form that does not depend on the pivot order: the reduced row echelon
form of the kernel, each vector made primitive.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

Row = list[Fraction]


def _content_free(row: dict[int, int]) -> dict[int, int]:
    g = gcd(*row.values())
    return row if g == 1 else {j: v // g for j, v in row.items()}


def _sparse_rows(rows: Sequence[Sequence[Fraction]]) -> list[dict[int, int]]:
    out = []
    for row in rows:
        nonzero = [(j, c) for j, c in enumerate(row) if c]
        denom = lcm(*(c.denominator for _, c in nonzero))
        out.append(_content_free({j: c.numerator * (denom // c.denominator)
                                  for j, c in nonzero}))
    return out


def _eliminate(rows: list[dict[int, int]]) -> list[tuple[int, dict[int, int]]]:
    """Pivots (column, row) in elimination order.

    Each pivot row is zero in the columns of the pivots before it, so the
    rows are in echelon form when read in this order.
    """
    active = {i: row for i, row in enumerate(rows) if row}
    rows_in: dict[int, set[int]] = {}
    for i, row in active.items():
        for j in row:
            rows_in.setdefault(j, set()).add(i)
    pivots = []
    while rows_in:
        pc = min(rows_in, key=lambda j: (len(rows_in[j]), j))
        pi = min(rows_in[pc], key=lambda i: (len(active[i]), abs(active[i][pc]), i))
        prow = active.pop(pi)
        for j in prow:
            rows_in[j].discard(pi)
        p = prow[pc]
        for i in list(rows_in[pc]):
            row = active[i]
            g = gcd(p, row[pc])
            a, b = p // g, row[pc] // g
            new = {j: a * v for j, v in row.items()}
            for j, v in prow.items():
                w = new.get(j, 0) - b * v
                if w:
                    new[j] = w
                    rows_in[j].add(i)
                else:
                    del new[j]
                    rows_in[j].discard(i)
            if new:
                active[i] = _content_free(new)
            else:
                del active[i]
        for j in prow:
            if not rows_in[j]:
                del rows_in[j]
        pivots.append((pc, prow))
    return pivots


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank of a matrix given as a list of rows."""
    return len(_eliminate(_sparse_rows(rows)))


def nullspace(rows: Sequence[Sequence[Fraction]], ncols: int) -> list[Row]:
    """Basis of the right kernel {x : A x = 0}.

    The basis is the reduced row echelon form of the kernel with each
    vector scaled to be integral and primitive, so its leading entry is
    positive; vectors are ordered by their leading column.  An empty
    matrix (no rows) yields the standard basis.
    """
    if any(len(r) != ncols for r in rows):
        raise ValueError(f"every row must have ncols = {ncols} entries")
    pivots = _eliminate(_sparse_rows(rows))
    pivot_cols = {pc for pc, _ in pivots}
    kernel = []
    for fc in range(ncols):
        if fc in pivot_cols:
            continue
        x = {fc: Fraction(1)}
        for pc, prow in reversed(pivots):
            s = sum(v * x[j] for j, v in prow.items() if j in x)
            if s:
                x[pc] = -s / prow[pc]
        kernel.append(_dense(x, ncols))
    return [_dense(v, ncols) for v in _sparse_rows(_reduced_echelon(kernel))]


def _reduced_echelon(mat: list[Row]) -> list[Row]:
    """Gauss-Jordan reduction of linearly independent rows."""
    for r in range(len(mat)):
        j, i = min((next(j for j, c in enumerate(mat[i]) if c), i)
                   for i in range(r, len(mat)))
        lead = mat[i]
        mat[i] = mat[r]
        mat[r] = [c / lead[j] for c in lead]
        for i, row in enumerate(mat):
            if i != r and row[j]:
                mat[i] = [a - row[j] * b for a, b in zip(row, mat[r])]
    return mat


def row_space_basis(rows: Sequence[Sequence[Fraction]]) -> list[Row]:
    """A basis of the row space, as primitive integer rows."""
    ncols = len(rows[0]) if rows else 0
    return [_dense(prow, ncols) for _, prow in _eliminate(_sparse_rows(rows))]


def _dense(row: dict, ncols: int) -> Row:
    return [Fraction(row.get(j, 0)) for j in range(ncols)]


def matvec(rows: Sequence[Sequence[Fraction]], x: Sequence[Fraction]) -> Row:
    return [sum((c * xi for c, xi in zip(row, x)), Fraction(0)) for row in rows]
