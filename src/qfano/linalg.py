"""Exact linear algebra over the rationals: one dense elimination, which
runs fraction-free on integers and returns Fractions, and sparse
accumulation."""

from fractions import Fraction
from math import lcm

ZERO = Fraction(0)


def accumulate(dst, items):
    """Add (key, value) pairs into the sparse map dst, dropping keys that
    cancel to zero.  Returns dst."""
    for key, value in items:
        value = dst.get(key, ZERO) + value
        if value:
            dst[key] = value
        elif key in dst:
            del dst[key]
    return dst


def _integer_row(row):
    """The row times the lcm of its denominators, as plain integers."""
    row = [Fraction(x) for x in row]
    den = lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row]


def _rref(rows, ncols):
    """Fraction-free Gauss-Jordan elimination (Bareiss) of integer rows in
    place over the first ncols columns.

    Each pivot is the first nonzero entry at or below the current row; the
    loop stops once every row holds a pivot.  At pivot p every other row
    becomes (p*row - row[c]*pivot_row) // prev, where prev is the previous
    pivot (1 at first); the division is exact because every entry is a
    minor of the input.  Every pivot entry ends equal to one integer d, so
    the reduced row echelon form is rows / d.  Returns (rows, pivots, d).
    """
    pivots = []
    prev = 1
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        p = prow[c]
        for i, row in enumerate(rows):
            if i == r:
                continue
            f = row[c]
            if f:
                rows[i] = [(p * a - f * b) // prev for a, b in zip(row, prow)]
            elif p != prev:
                rows[i] = [p * a // prev for a in row]
        prev = p
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots, prev


def invert(mat):
    """Invert a square matrix of Fractions by Gauss-Jordan elimination.

    Raises ValueError on a singular matrix.
    """
    n = len(mat)
    aug = [_integer_row(list(row) + [int(i == j) for j in range(n)])
           for i, row in enumerate(mat)]
    aug, pivots, d = _rref(aug, n)
    if len(pivots) < n:
        raise ValueError("singular matrix")
    return [[Fraction(x, d) for x in row[n:]] for row in aug]


def nullspace(mat, ncols=None):
    """Exact right nullspace basis of a rectangular matrix of Fractions.

    Returns a list of basis vectors (lists of Fractions), one per free
    column of the reduced row echelon form.
    """
    rows = [_integer_row(row) for row in mat]
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    rows, pivots, d = _rref(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = Fraction(-rows[i][fc], d)
        basis.append(vec)
    return basis
