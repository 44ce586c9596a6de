"""Exact linear algebra over the rationals: one dense elimination, which
runs fraction-free on integers or on residues modulo a prime, and sparse
accumulation.

nullspace first eliminates modulo each prime of _MODULI in turn, rebuilds
every basis vector by rational reconstruction and certifies it by an
exact product with the integer rows.  A certified basis is the reduced
row echelon basis over Q entry for entry: the rank modulo a prime is at
most the rank over Q, and a kernel vector over Q with a 1 at a column and
support only on earlier columns makes that column free over Q too.  If a
reconstruction or a check fails for every prime, the exact fraction-free
pass decides.
"""

from fractions import Fraction
from math import isqrt, lcm

ZERO = Fraction(0)

# Mersenne primes for the modular kernel, tried in this order.
_MODULI = (2 ** 127 - 1, 2 ** 521 - 1, 2 ** 1279 - 1)


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


def common_denominator(values):
    """(integers, L): the values times the lcm L of their denominators;
    a list of ints passes through untouched."""
    if all(isinstance(x, int) for x in values):
        return values, 1
    den = lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


def _rref(rows, ncols, modulus=None):
    """Fraction-free Gauss-Jordan elimination (Bareiss) of integer rows in
    place over the first ncols columns.

    Each pivot is the first nonzero entry at or below the current row; the
    loop stops once every row holds a pivot.  At pivot p every other row
    becomes (p*row - row[c]*pivot_row) // prev, where prev is the previous
    pivot (1 at first); the division is exact because every entry is a
    minor of the input.  Every pivot entry ends equal to one integer d, so
    the reduced row echelon form is rows / d.  Returns (rows, pivots, d).

    With a prime modulus the rows hold residues, each pivot row is scaled
    to pivot 1 and the others become row - row[c]*pivot_row reduced, so d
    is 1 and rows is the reduced row echelon form modulo the prime.
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
        if modulus:
            inv = pow(p, -1, modulus)
            prow = rows[r] = [x * inv % modulus for x in prow]
            p = 1
        for i, row in enumerate(rows):
            if i == r:
                continue
            f = row[c]
            if f and modulus:
                rows[i] = [(a - f * b) % modulus for a, b in zip(row, prow)]
            elif f:
                rows[i] = [(p * a - f * b) // prev for a, b in zip(row, prow)]
            elif p != prev:
                rows[i] = [p * a // prev for a in row]
        prev = p
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots, prev


def _rational(x, modulus):
    """The fraction n/d with n = d*x modulo the prime and |n|, d at most
    sqrt(modulus/2), by the extended Euclidean algorithm, or None."""
    bound = isqrt(modulus // 2)
    r0, r1, t0, t1 = modulus, x, 0, 1
    while r1 > bound:
        k = r0 // r1
        r0, r1, t0, t1 = r1, r0 - k * r1, t1, t0 - k * t1
    if abs(t1) > bound:
        return None
    return Fraction(r1, t1)


def _echelon_basis(rows, pivots, ncols, entry):
    """One kernel vector per free column of reduced echelon rows, with
    entry(x) the value at a pivot column whose row holds x at the free
    column; None as soon as entry returns None."""
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [ZERO] * ncols
        vec[fc] = Fraction(1)
        for row, pc in zip(rows, pivots):
            if row[fc]:
                val = entry(row[fc])
                if val is None:
                    return None
                vec[pc] = val
        basis.append(vec)
    return basis


def _certified(rows, basis):
    """True when every vector is an exact kernel vector of the integer
    rows."""
    for vec in basis:
        support = [(j, n) for j, n in enumerate(common_denominator(vec)[0])
                   if n]
        if any(sum(row[j] * n for j, n in support) for row in rows):
            return False
    return True


def nullspace(mat):
    """Exact right nullspace basis of a rectangular matrix of Fractions.

    Returns a list of basis vectors (lists of Fractions), one per free
    column of the reduced row echelon form.  The first prime of _MODULI
    whose kernel lifts and passes the exact check gives the basis; the
    fraction-free pass gives it when none does.
    """
    rows = [common_denominator(row)[0] for row in mat]
    ncols = len(rows[0]) if rows else 0
    for q in _MODULI:
        residues, pivots, _ = _rref([[x % q for x in row] for row in rows],
                                    ncols, q)
        basis = _echelon_basis(residues, pivots, ncols,
                               lambda x: _rational(q - x, q))
        if basis is not None and _certified(rows, basis):
            return basis
    rows, pivots, d = _rref(rows, ncols)
    return _echelon_basis(rows, pivots, ncols, lambda x: Fraction(-x, d))
