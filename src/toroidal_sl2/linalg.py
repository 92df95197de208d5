"""Exact linear algebra over the integers.

Rows hold ints: a caller clears a rational row's denominators first,
which changes neither the rank nor the kernel (a nonzero ``Fraction``
entry raises ``TypeError``).  Each row is kept sparse and primitive, as a
dict column -> value, a dense row's nonzeros picked out in C.  Every elimination step is
one row update: a row with entry f in the pivot column becomes
(p/g) row - (f/g) pivot row, p the pivot and g = gcd(p, f).  The
elimination copies its input rows once and updates them in place, in one
pass over the pivot row that also keeps the index of active rows per
column; the row is scaled only when p/g is not 1.  Its content is divided
out once, when it becomes a pivot: the primitive part of a row does not
depend on its positive scale, so the pivots are those of taking the
primitive part after every update.
Pivots are chosen row first: the active row with the fewest nonzeros
(taken from a heap), in it the column with the fewest active rows, then
the smallest entry, ties to the lowest index; only the rows meeting the
pivot column are updated.  So rows with one entry are pivots first, as
the sparsest rows, and their updates only delete a column.  Kernel
vectors come from the pivot rows by back-substitution in integers and are
returned in a form that does not depend on the pivot order: the reduced
row echelon form of the kernel, reached by the same row update, each
vector a sparse primitive integer row.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import compress, count
from math import gcd
from typing import Sequence


def _content_free(row: dict[int, int]) -> dict[int, int]:
    g = gcd(*row.values())
    return row if g == 1 else {j: v // g for j, v in row.items()}


def _sparse(row: Sequence[int]) -> dict[int, int]:
    """The primitive part of a dense integer row, as a sparse row."""
    return _content_free(dict(zip(compress(count(), row), filter(None, row))))


def _update(row: dict[int, int], prow: dict[int, int], pc: int) -> dict[int, int]:
    """Primitive part of (p/g) row - (f/g) prow, which is zero in column pc,
    as a new row; ``_eliminate`` makes the same update in place and takes
    the primitive part when the row becomes a pivot."""
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
    rows are in echelon form when read in this order.  The rows are copied
    once and then updated in place; the caller's dicts are not changed.
    """
    active = {i: dict(row) for i, row in enumerate(rows) if row}
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
        prow = _content_free(active.pop(pi))
        # the column with the fewest active rows, then the smallest entry, then the lowest
        pc = min(zip(map(len, map(rows_in.__getitem__, prow)), map(abs, prow.values()), prow))[2]
        p = prow[pc]
        rest = []
        for j, v in prow.items():
            meets = rows_in[j]
            meets.discard(pi)
            if j != pc:
                rest.append((j, v, meets))
        # row <- (p/g) row - (f/g) prow, f = row[pc], g = gcd(p, f); no row meets pc afterwards
        for i in rows_in.pop(pc):
            row = active[i]
            f = row.pop(pc)
            g = gcd(p, f)
            a, b = p // g, f // g
            if a != 1:
                for j, v in row.items():
                    row[j] = a * v
            for j, v, meets in rest:
                w = row.get(j)
                if w is None:
                    row[j] = -b * v
                    meets.add(i)
                elif w := w - b * v:
                    row[j] = w
                else:
                    del row[j]
                    meets.discard(i)
            if row:
                heappush(queue, (len(row), i))
            else:
                del active[i]
        pivots.append((pc, prow))
    return pivots


def rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of a matrix given as a list of rows."""
    return len(_eliminate([_sparse(row) for row in rows]))


def nullspace(rows: Sequence[Sequence[int]], ncols: int) -> list[dict[int, int]]:
    """Basis of the right kernel {x : A x = 0}, as sparse rows column -> int.

    The basis is the reduced row echelon form of the kernel with each
    vector scaled to be integral and primitive with a positive leading
    entry; vectors are ordered by their leading column.  An empty matrix
    (no rows) yields the standard basis.
    """
    if any(len(r) != ncols for r in rows):
        raise ValueError(f"every row must have ncols = {ncols} entries")
    pivots = _eliminate([_sparse(row) for row in rows])
    pivot_cols = {pc for pc, _ in pivots}
    rest = []
    for fc in range(ncols):
        if fc in pivot_cols:
            continue
        # x <- (p/g) x, then x[pc] = -s/g, p the pivot and g = gcd(p, s)
        x = {fc: 1}
        for pc, prow in reversed(pivots):
            s = sum(v * x[j] for j, v in prow.items() if j in x)
            if s:
                p = prow[pc]
                g = gcd(p, s)
                if p != g:
                    x = {j: p // g * c for j, c in x.items()}
                x[pc] = -s // g
        rest.append(_content_free(x))
    # Gauss-Jordan, lowest leading column first
    kernel: list[dict[int, int]] = []
    while rest:
        lead, k = min((min(v), k) for k, v in enumerate(rest))
        prow = rest.pop(k)
        kernel = [_update(v, prow, lead) if lead in v else v for v in kernel]
        rest = [_update(v, prow, lead) if lead in v else v for v in rest]
        kernel.append(prow)
    return [v if v[min(v)] > 0 else {j: -c for j, c in v.items()} for v in kernel]
