"""Exact linear algebra over the rationals (fractions.Fraction): dense
elimination and sparse accumulation."""

from fractions import Fraction

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


def _rref(rows, ncols):
    """Gauss-Jordan elimination in place over the first ncols columns.

    Each pivot is the first nonzero entry at or below the current row; the
    loop stops once every row holds a pivot.  Returns (rows, pivots).
    """
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv_p = 1 / rows[r][c]
        rows[r] = [x * inv_p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def invert(mat):
    """Invert a square matrix of Fractions by Gauss-Jordan elimination.

    Raises ValueError on a singular matrix.
    """
    n = len(mat)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(mat)]
    aug, pivots = _rref(aug, n)
    if len(pivots) < n:
        raise ValueError("singular matrix")
    return [row[n:] for row in aug]


def nullspace(mat, ncols=None):
    """Exact right nullspace basis of a rectangular matrix of Fractions.

    Returns a list of basis vectors (lists of Fractions), one per free
    column of the reduced row echelon form.
    """
    rows = [[Fraction(x) for x in row] for row in mat]
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    rows, pivots = _rref(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -rows[i][fc]
        basis.append(vec)
    return basis
