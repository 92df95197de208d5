"""Exact kernel and rank computations, against a dense reference."""

from fractions import Fraction
from math import gcd, lcm
import random

from toroidal_sl2 import HighestWeight, linalg, module_for
from toroidal_sl2.quotient import _submodule_rows
from toroidal_sl2.singular import RAISING, _raising_matrix

from conftest import submodule_span


def rows(*data):
    return [[Fraction(x) for x in row] for row in data]


def dense(v, ncols):
    """A sparse kernel vector as a dense list of integers."""
    return [v.get(j, 0) for j in range(ncols)]


def matvec(a, v):
    """A times a sparse vector v."""
    return [sum((row[j] * c for j, c in v.items()), Fraction(0)) for row in a]


def test_nullspace_known_kernel():
    a = rows([1, 2, 3], [2, 4, 6])
    basis = linalg.nullspace(a, 3)
    assert len(basis) == 2
    for v in basis:
        assert all(s == 0 for s in matvec(a, v))


def test_nullspace_full_rank():
    a = rows([1, 0], [0, 1], [1, 1])
    assert linalg.nullspace(a, 2) == []


def test_nullspace_empty_matrix_is_identity():
    basis = linalg.nullspace([], 3)
    assert [dense(v, 3) for v in basis] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_nullspace_rational_entries():
    a = rows([Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1])
    basis = linalg.nullspace(a, 2)
    assert len(basis) == 1
    assert all(s == 0 for s in matvec(a, basis[0]))


def test_rank():
    assert linalg.rank(rows([1, 2], [2, 4])) == 1
    assert linalg.rank(rows([1, 0], [0, 1])) == 2
    assert linalg.rank([]) == 0
    assert linalg.rank(rows([0, 0], [0, 0])) == 0


def test_rank_nullity(rng):
    for _ in range(40):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        a = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4))
              for _ in range(ncols)] for _ in range(nrows)]
        kernel = linalg.nullspace(a, ncols)
        assert linalg.rank(a) + len(kernel) == ncols
        for v in kernel:
            assert all(s == 0 for s in matvec(a, v))


def test_kernel_vectors_are_primitive_integers(rng):
    cases = [[[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(5)]
              for _ in range(3)] for _ in range(20)]
    cases += [sparse_matrix(rng, 6, 9, 0.3) for _ in range(20)]
    for a in cases:
        kernel = linalg.nullspace(a, len(a[0]))
        leads = []
        for v in kernel:
            assert all(type(c) is int and c for c in v.values())
            assert gcd(*v.values()) == 1
            lead = min(v)
            assert v[lead] > 0
            leads.append(lead)
        # reduced echelon form: leading columns increase, and each vector
        # vanishes at the leading columns of the others
        assert leads == sorted(set(leads))
        for v in kernel:
            assert sum(1 for j in leads if j in v) == 1


# -- an independent dense reference ------------------------------------------


def gauss_jordan(a, ncols):
    """Reduced row echelon form over Q: (nonzero rows, pivot columns)."""
    m = [list(row) for row in a]
    pivots = []
    for j in range(ncols):
        r = len(pivots)
        i = next((i for i in range(r, len(m)) if m[i][j]), None)
        if i is None:
            continue
        m[r], m[i] = m[i], m[r]
        m[r] = [c / m[r][j] for c in m[r]]
        for k in range(len(m)):
            factor = m[k][j]
            if k != r and factor:
                m[k] = [x - factor * y for x, y in zip(m[k], m[r])]
        pivots.append(j)
    return m[:len(pivots)], pivots


def reference_kernel(a, ncols):
    """Kernel in reduced echelon form, each vector a primitive integer row."""
    rref, pivots = gauss_jordan(a, ncols)
    basis = []
    for free in (j for j in range(ncols) if j not in pivots):
        x = [Fraction(0)] * ncols
        x[free] = Fraction(1)
        for row, p in zip(rref, pivots):
            x[p] = -row[free]
        basis.append(x)
    out = []
    for v in gauss_jordan(basis, ncols)[0]:
        d = lcm(*(c.denominator for c in v))
        ints = [int(c * d) for c in v]
        g = gcd(*ints)
        out.append([Fraction(x // g) for x in ints])
    return out


def sparse_matrix(rng, nrows, ncols, density):
    return [[Fraction(rng.randint(-9, 9), rng.randint(1, 3))
             if rng.random() < density else Fraction(0) for _ in range(ncols)]
            for _ in range(nrows)]


def low_rank_matrix(rng, nrows, ncols, rank, density):
    """A tall product B C of rank at most ``rank``, with repeated rows, like
    the spanning sets of a submodule slice."""
    b = sparse_matrix(rng, nrows, rank, 0.4)
    c = sparse_matrix(rng, rank, ncols, density)
    rows = [[sum((x * c[k][j] for k, x in enumerate(row)), Fraction(0))
             for j in range(ncols)] for row in b]
    return rows + [list(rows[rng.randrange(nrows)]) for _ in range(nrows // 4)]


def unit_heavy_matrix(rng, ncols):
    """Rows with one entry on random columns, two of them in one column, a
    chain of rows each left with one entry once the one before is a pivot,
    rows those pivots empty, and a few denser rows."""
    def row(support):
        r = [Fraction(0)] * ncols
        for j in support:
            r[j] = Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))
        return r

    cols = rng.sample(range(ncols), ncols)
    units, chain = cols[:ncols // 3], cols[ncols // 3:2 * ncols // 3]
    out = [row([j]) for j in units] + [row([units[0]])]
    for prev, j in zip(units[-1:] + chain, chain):
        out.append(row([prev, j]))
    out += [row(rng.sample(units, rng.randint(1, len(units)))) for _ in range(2)]
    out += sparse_matrix(rng, rng.randint(0, 4), ncols, 0.3)
    rng.shuffle(out)
    return out


def random_cases(rng):
    cases = [sparse_matrix(rng, rng.randint(1, 12), rng.randint(1, 12), 0.15)
             for _ in range(40)]
    cases += [low_rank_matrix(rng, rng.randint(10, 30), rng.randint(4, 12),
                              rng.randint(1, 4), 0.3) for _ in range(20)]
    cases += [unit_heavy_matrix(rng, rng.randint(3, 14)) for _ in range(20)]
    return cases


def test_rank_and_row_space_match_reference(rng):
    for a in random_cases(rng):
        assert linalg.rank(a) == len(gauss_jordan(a, len(a[0]))[1])


def test_nullspace_matches_reference(rng):
    for a in random_cases(rng):
        ncols = len(a[0])
        kernel = linalg.nullspace(a, ncols)
        assert len(kernel) == ncols - len(gauss_jordan(a, ncols)[1])
        for v in kernel:
            assert all(s == 0 for s in matvec(a, v))
        assert [dense(v, ncols) for v in kernel] == reference_kernel(a, ncols)


def test_kernel_does_not_depend_on_row_order_or_scale(rng):
    wide = 0
    for a in random_cases(rng):
        ncols = len(a[0])
        kernel = linalg.nullspace(a, ncols)
        wide += len(kernel) > 1
        for _ in range(3):
            scales = [Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4)) for _ in a]
            shuffled = [[s * c for c in row] for s, row in zip(scales, a)]
            rng.shuffle(shuffled)
            assert linalg.nullspace(shuffled, ncols) == kernel
    assert wide >= 10


def test_row_first_pivoting_bounds_row_updates(monkeypatch):
    # stacked raising matrix at eta (8, 8), 660 x 480 of full column rank;
    # picking the sparsest column first took 12,001 row updates here
    hw, eta = HighestWeight(1, 2), (8, 8)
    engine = module_for(hw)
    basis = engine.weight_space_basis(eta)
    stacked = [row for g in RAISING for row in _raising_matrix(engine.hw, g, basis, eta)]
    updates = 0
    update = linalg._update

    def counted(row, prow, pc):
        nonlocal updates
        updates += 1
        return update(row, prow, pc)

    monkeypatch.setattr(linalg, "_update", counted)
    assert linalg.rank(stacked) == len(basis) == 480
    assert 0 < updates <= 5479


def test_submodule_span_rank_at_8_8():
    # submodule span at eta (8, 8), 398 x 480 of rank 380 with 202 rows of
    # one entry
    rows, basis = submodule_span(HighestWeight(1, 2), (8, 8))
    assert (len(rows), len(basis)) == (398, 480)
    assert linalg.rank(rows) == 380


def _eliminate_by_scan(rows):
    """Reference pivot order: a linear scan over the active rows per pivot."""
    active = {i: row for i, row in enumerate(rows) if row}
    pivots = []
    rows_in = {}
    for i, row in active.items():
        for j in row:
            rows_in.setdefault(j, set()).add(i)
    while active:
        pi = min(active, key=lambda i: (len(active[i]), i))
        prow = active.pop(pi)
        pc = min(prow, key=lambda j: (len(rows_in[j]), abs(prow[j]), j))
        for j in prow:
            rows_in[j].discard(pi)
        for i in list(rows_in[pc]):
            new = linalg._update(active[i], prow, pc)
            for j in prow:
                if j in new:
                    rows_in[j].add(i)
                else:
                    rows_in[j].discard(i)
            if new:
                active[i] = new
            else:
                del active[i]
        pivots.append((pc, prow))
    return pivots


def test_heap_pivot_order_matches_linear_scan():
    for seed in range(40):
        rng = random.Random(seed)
        nrows, ncols = rng.randint(1, 40), rng.randint(1, 40)
        density = rng.choice([0.05, 0.15, 0.4])
        base = [{j: rng.choice([-3, -2, -1, 1, 2, 5]) for j in range(ncols)
                 if rng.random() < density} for _ in range(nrows)]
        # sums and multiples of earlier rows, so rows shrink and vanish
        for _ in range(nrows // 2):
            a, b = rng.choice(base), rng.choice(base)
            row = dict(a)
            for j, v in b.items():
                row[j] = row.get(j, 0) + rng.choice([-1, 2]) * v
            base.append({j: v for j, v in row.items() if v})
        rng.shuffle(base)
        sparse = [linalg._primitive(row.items()) for row in base]
        assert linalg._eliminate(sparse) == _eliminate_by_scan(sparse)
    # and on a stacked raising matrix
    engine = module_for(HighestWeight(1, 2))
    basis = engine.weight_space_basis((5, 5))
    stacked = [row for g in RAISING for row in _raising_matrix(engine.hw, g, basis, (5, 5))]
    sparse = [linalg._primitive(enumerate(row)) for row in stacked]
    assert linalg._eliminate(sparse) == _eliminate_by_scan(sparse)
    # and on a submodule span, 87 of whose 137 rows have one entry
    span, _ = submodule_span(HighestWeight(1, 2), (6, 7))
    sparse = [linalg._primitive(enumerate(row)) for row in span]
    assert sum(len(row) == 1 for row in sparse) == 87
    assert linalg._eliminate(sparse) == _eliminate_by_scan(sparse)
    # and on the rows the quotient eliminates, 11 of whose 50 have one entry
    rows, kept = _submodule_rows(HighestWeight(1, 2), (9, 4))
    sparse = [linalg._primitive(enumerate(row)) for row in rows]
    assert (len(sparse), len(kept)) == (50, 42)
    assert sum(len(row) == 1 for row in sparse) == 11
    pivots = linalg._eliminate(sparse)
    assert pivots == _eliminate_by_scan(sparse) and len(pivots) == 42
    # and on one-entry rows that cascade: each unit pivot leaves other rows
    # with one entry; row 3 repeats the unit column of row 1, rows 2 and 5
    # end in one column, and row 6 is emptied
    cascade = [{0: 2, 1: 3}, {1: -1}, {0: 1, 2: 1, 3: 4}, {1: 1}, {1: 5, 2: 7},
               {0: 1, 1: 2, 3: 1}, {0: 3, 2: 5}]
    pivots = linalg._eliminate(cascade)
    assert pivots == _eliminate_by_scan(cascade) and len(pivots) == 4
