"""Exact linear algebra over the rationals.

Each row is scaled to a primitive integer row and kept sparse, as a dict
column -> value.  Every elimination step is one row update: a row with
entry f in the pivot column becomes the primitive part of
(p/g) row - (f/g) pivot row, p the pivot and g = gcd(p, f); when p
divides f the multiplier p/g is 1 and the row is copied, not scaled.
Pivots are chosen row first: the active row with the fewest nonzeros
(taken from a heap), in it the column with the fewest active rows, then
the smallest entry, ties to the lowest index; only the rows meeting the
pivot column are updated.  So rows with one entry are pivots first, as
the sparsest rows, and their updates only delete a column.  Kernel
vectors come from the pivot rows by back-substitution and are returned
in a form that does not depend on the pivot order: the reduced row
echelon form of the kernel, reached by the same row update, each vector
a sparse primitive integer row.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from math import gcd, lcm
from typing import Iterable, Sequence


def _content_free(row: dict[int, int]) -> dict[int, int]:
    g = gcd(*row.values())
    return row if g == 1 else {j: v // g for j, v in row.items()}


def _primitive(entries: Iterable[tuple[int, Fraction]]) -> dict[int, int]:
    nonzero = [(j, c) for j, c in entries if c]
    denom = lcm(*(c.denominator for _, c in nonzero))
    return _content_free({j: c.numerator * (denom // c.denominator) for j, c in nonzero})


def _update(row: dict[int, int], prow: dict[int, int], pc: int) -> dict[int, int]:
    """Primitive part of (p/g) row - (f/g) prow, which is zero in column pc."""
    p, f = prow[pc], row[pc]
    g = gcd(p, f)
    a, b = p // g, f // g
    new = dict(row) if a == 1 else {j: a * v for j, v in row.items()}
    for j, v in prow.items():
        w = new.get(j, 0) - b * v
        if w:
            new[j] = w
        else:
            del new[j]
    return _content_free(new)


def _eliminate(rows: list[dict[int, int]]) -> list[tuple[int, dict[int, int]]]:
    """Pivots (column, row) in elimination order.

    Each pivot row is zero in the columns of the pivots before it, so the
    rows are in echelon form when read in this order.
    """
    active = {i: row for i, row in enumerate(rows) if row}
    pivots = []
    rows_in: dict[int, set[int]] = {}
    for i, row in active.items():
        for j in row:
            rows_in.setdefault(j, set()).add(i)
    # heap of (length, row), sorted to start; entries of rows since updated or gone are skipped
    queue = sorted((len(row), i) for i, row in active.items())
    while active:
        n, pi = heappop(queue)
        if len(active.get(pi, ())) != n:
            continue
        prow = active.pop(pi)
        pc = min(prow, key=lambda j: (len(rows_in[j]), abs(prow[j]), j))
        for j in prow:
            rows_in[j].discard(pi)
        for i in list(rows_in[pc]):
            new = _update(active[i], prow, pc)
            for j in prow:
                if j in new:
                    rows_in[j].add(i)
                else:
                    rows_in[j].discard(i)
            if new:
                active[i] = new
                heappush(queue, (len(new), i))
            else:
                del active[i]
        pivots.append((pc, prow))
    return pivots


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank of a matrix given as a list of rows."""
    return len(_eliminate([_primitive(enumerate(row)) for row in rows]))


def nullspace(rows: Sequence[Sequence[Fraction]], ncols: int) -> list[dict[int, int]]:
    """Basis of the right kernel {x : A x = 0}, as sparse rows column -> int.

    The basis is the reduced row echelon form of the kernel with each
    vector scaled to be integral and primitive with a positive leading
    entry; vectors are ordered by their leading column.  An empty matrix
    (no rows) yields the standard basis.
    """
    if any(len(r) != ncols for r in rows):
        raise ValueError(f"every row must have ncols = {ncols} entries")
    pivots = _eliminate([_primitive(enumerate(row)) for row in rows])
    pivot_cols = {pc for pc, _ in pivots}
    rest = []
    for fc in range(ncols):
        if fc in pivot_cols:
            continue
        x = {fc: Fraction(1)}
        for pc, prow in reversed(pivots):
            s = sum(v * x[j] for j, v in prow.items() if j in x)
            if s:
                x[pc] = -s / prow[pc]
        rest.append(_primitive(x.items()))
    # Gauss-Jordan, lowest leading column first
    kernel: list[dict[int, int]] = []
    while rest:
        lead, k = min((min(v), k) for k, v in enumerate(rest))
        prow = rest.pop(k)
        kernel = [_update(v, prow, lead) if lead in v else v for v in kernel]
        rest = [_update(v, prow, lead) if lead in v else v for v in rest]
        kernel.append(prow)
    return [v if v[min(v)] > 0 else {j: -c for j, c in v.items()} for v in kernel]
