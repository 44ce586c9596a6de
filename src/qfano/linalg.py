"""Exact linear algebra over the rationals: one dense elimination modulo
Fermat numbers, and sparse accumulation into maps and into columns of
q-polynomials.

nullspace runs the ladder below on the first ncols rows of a matrix and
checks their basis exactly on the other rows; only when that check fails
does the ladder run on all rows.  The rows beyond the rank of a tall
matrix would only end as zero rows of the elimination.
The ladder eliminates modulo F_k = 2^(2^k) + 1 for k = _FIRST_RUNG,
_FIRST_RUNG + 1, ... in turn and abandons a rung at a pivot that is not
a unit.  Each rung that finishes has a key: its rank, then its pivot
columns.  A rung with a worse key than the best so far is skipped, one
with a better key replaces the kept residues, and one with an equal key
is combined with them by the Chinese remainder theorem.  After each kept
rung nullspace rebuilds every basis vector by rational reconstruction
modulo the product of the kept rungs and certifies it by an exact
product with the integer rows.  A certified basis is the reduced row
echelon basis over Q entry for entry: with unit pivots the rank modulo
the rung is at most the rank over Q, and a kernel vector over Q with a 1
at a column and support only on earlier columns makes that column free
over Q too.

The ladder terminates.  The Fermat numbers are pairwise coprime, so only
finitely many rungs share a factor with a minor of the matrix, and every
other rung, a lucky one, eliminates exactly as the elimination over Q
does.  Unit pivots keep every prefix of the columns at a rank no higher
than over Q, so a lucky rung has the best possible key: higher rank
first, then the lexicographically smaller pivot list.  Once one arrives
only lucky rungs are combined, all of them holding the residues of the
same reduced form over Q, so the product is at least that rung.  Each
entry of the reduced basis is a quotient of minors, so reconstruction
succeeds once the square root of half the product exceeds the Hadamard
bound.  The ladder therefore stops no later than at the first lucky rung
that reaches the bound on its own.

On a rung q of at most _PACKED_BITS bits (F_6 and F_7 on the ladder) the
forward pass of the elimination runs on packed rows: a row is one
integer, and at pivot column c its slot j, of width w = 2*bit_length(q)
+ bit_length(ncols + 1), holds column c + j.  The pivot row T, scaled to
residues below q, clears column c from a row x below it as (x >> w) +
(q - f)*T, f being x's residue at c.  No slot carries into the next:
every slot starts below q, a pivot adds (q - f)*t <= (q - 1)^2 to it, t
being T's residue there, and a row meets at most ncols pivots, so every
slot stays below q + ncols*q^2 < (ncols + 1)*q^2 <= 2^w and nothing in
it is ever negative.  Each pivot then costs one shift, one product and
one sum per row below it, where the list pass updates every entry in
the interpreter.  Wider rungs keep the list pass: a packed row carries
about twice the bits of the residues it holds, so its product costs
twice the word multiplications of the list pass's products of two
residues, and from F_8 on that outweighs the interpreter work it saves
(on the 105-column forward pass of the 128-term (4,20) operator search,
packed against lists: F_7 29 against 41 ms, F_8 73 against 57 ms, F_9
207 against 112 ms, Python 3.11.7).
"""

from fractions import Fraction
from itertools import count
from math import gcd, isqrt, lcm

ZERO = Fraction(0)

# Exponent k of the first Fermat number 2^(2^k) + 1 that nullspace tries.
_FIRST_RUNG = 6

# The widest modulus, in bits, whose forward pass runs on packed rows.
_PACKED_BITS = 129


def accumulate(dst, items):
    """Add (key, value) pairs into the sparse map dst, dropping keys that
    cancel to zero and storing a sum that is integral as an int.
    Returns dst."""
    for key, value in items:
        value = dst.get(key, 0) + value
        if value:
            dst[key] = value if value.denominator != 1 else value.numerator
        elif key in dst:
            del dst[key]
    return dst


def col_add_into(dst, src, scale=1, shift=(0, 0)):
    """dst += scale * q1^s q2^t * src, with shift = (s, t), for columns
    {row: {(a, b): value}}, dropping cancelled terms and emptied rows.
    Returns dst."""
    s, t = shift
    for row, qp in src.items():
        if not accumulate(dst.setdefault(row, {}),
                          (((a + s, b + t), scale * v)
                           for (a, b), v in qp.items())):
            del dst[row]
    return dst


def common_denominator(values):
    """(integers, L): the values times the lcm L of their denominators;
    a list of ints passes through untouched."""
    if all(isinstance(x, int) for x in values):
        return values, 1
    den = lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


def _rref(rows, ncols, modulus):
    """Reduced row echelon form of rows of residues in [0, modulus) over
    their ncols columns.

    The forward pass runs on packed rows when the modulus has at most
    _PACKED_BITS bits and on lists otherwise.  Either pass takes each
    pivot as the first row at or below the current one that is nonzero at
    the column, swaps it into place, scales it to pivot 1 and clears the
    column in the rows below; it stops once every row holds a pivot.  The
    backward pass goes from the last pivot to the first and clears each
    pivot column above its pivot, updating only the free columns to its
    right, since the pivot row is zero on every other column there.
    Returns (rows, pivots), or None at the first pivot that is not a unit.
    """
    if modulus.bit_length() <= _PACKED_BITS:
        echelon = _forward_packed(rows, ncols, modulus)
    else:
        echelon = _forward_lists(rows, ncols, modulus)
    if echelon is None:
        return None
    rows, pivots = echelon
    free = [c for c in range(ncols) if c not in pivots]
    for r in reversed(range(len(pivots))):
        pc, prow = pivots[r], rows[r]
        right = [(c, prow[c]) for c in free if c > pc and prow[c]]
        for row in rows[:r]:
            f = row[pc]
            if f:
                row[pc] = 0
                for c, b in right:
                    row[c] = (row[c] - f * b) % modulus
    return rows, pivots


def _forward_lists(rows, ncols, modulus):
    """The forward pass in place on lists.  A pivot row updates the rows
    below on the columns from the pivot on, or only on its nonzero columns
    when fewer than a third of those are nonzero.  A column of the rows
    below is reduced only when the pass reaches it: each update subtracts
    a product of two residues, so an entry stays below ncols * modulus^2
    in size."""
    pivots = []
    r = 0
    for c in range(ncols):
        for row in rows[r:]:
            row[c] %= modulus
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r][c]
        if gcd(p, modulus) != 1:
            return None
        inv = pow(p, -1, modulus)
        tail = rows[r][c:] = [x * inv % modulus for x in rows[r][c:]]
        nonzero = [(j, b) for j, b in enumerate(tail, c) if b]
        dense = 3 * len(nonzero) >= len(tail)
        for row in rows[r + 1:]:
            f = row[c]
            if f and dense:
                row[c:] = [a - f * b for a, b in zip(row[c:], tail)]
            elif f:
                for j, b in nonzero:
                    row[j] -= f * b
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def _forward_packed(rows, ncols, modulus):
    """The forward pass on rows packed into one integer each, slot j of
    width w holding column c + j at pivot column c.  A row below a pivot
    row T becomes (x >> w) + (modulus - f)*T, f its residue at c: one
    shift, one product and one sum per row, and the column is gone.
    Returns new lists, rows beyond the rank all zero."""
    w = 2 * modulus.bit_length() + (ncols + 1).bit_length()
    mask = (1 << w) - 1
    live = [_pack(row, w) for row in rows]
    done = []
    pivots = []
    for c in range(ncols):
        low = [(x & mask) % modulus for x in live]
        piv = next((i for i, f in enumerate(low) if f), None)
        if piv is None:
            live = [x >> w for x in live]
            continue
        live[0], live[piv] = live[piv], live[0]
        low[0], low[piv] = low[piv], low[0]
        if gcd(low[0], modulus) != 1:
            return None
        inv = pow(low[0], -1, modulus)
        x = live[0]
        tail = []
        for _ in range(c, ncols):
            tail.append((x & mask) * inv % modulus)
            x >>= w
        done.append([0] * c + tail)
        pivots.append(c)
        if len(live) == 1:
            break
        t = _pack(tail[1:], w)
        live = [(x >> w) + (modulus - f) * t if f else x >> w
                for x, f in zip(live[1:], low[1:])]
    done += [[0] * ncols for _ in range(len(rows) - len(done))]
    return done, pivots


def _pack(values, w):
    """The integer whose slot j of width w holds values[j]."""
    x = 0
    for v in reversed(values):
        x = x << w | v
    return x


def _rational(x, modulus):
    """The fraction n/d with n = d*x modulo modulus and |n|, d at most
    sqrt(modulus/2), by the extended Euclidean algorithm, or None."""
    bound = isqrt(modulus // 2)
    r0, r1, t0, t1 = modulus, x, 0, 1
    while r1 > bound:
        k = r0 // r1
        r0, r1, t0, t1 = r1, r0 - k * r1, t1, t0 - k * t1
    if abs(t1) > bound:
        return None
    return Fraction(r1, t1)


def _echelon_basis(rows, pivots, ncols, modulus):
    """One kernel vector per free column of reduced echelon rows modulo
    modulus, each entry rebuilt by rational reconstruction; None as soon
    as one does not rebuild."""
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [ZERO] * ncols
        vec[fc] = Fraction(1)
        for row, pc in zip(rows, pivots):
            if row[fc]:
                val = _rational(modulus - row[fc], modulus)
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


def _ladder(rows, ncols):
    """The first basis of the integer rows' kernel that lifts from the kept
    rungs of the Fermat ladder and passes the exact check on those rows."""
    best = None
    for k in count(_FIRST_RUNG):
        q = 2 ** 2 ** k + 1
        echelon = _rref([[x % q for x in row] for row in rows], ncols, q)
        if echelon is None:
            continue
        residues, pivots = echelon
        key = (-len(pivots), pivots)
        if best is None or key < best:
            best, kept, m = key, residues, q
        elif key > best:
            continue
        else:
            u = pow(m, -1, q)
            kept = [[x + m * ((y - x) * u % q) for x, y in zip(xs, ys)]
                    for xs, ys in zip(kept, residues)]
            m *= q
        basis = _echelon_basis(kept, pivots, ncols, m)
        if basis is not None and _certified(rows, basis):
            return basis


def nullspace(mat):
    """Exact right nullspace basis of a rectangular matrix of Fractions.

    Returns a list of basis vectors (lists of Fractions), one per free
    column of the reduced row echelon form.  The ladder runs on the first
    ncols rows; when their basis also passes the exact check on the other
    rows, the two kernels are equal and so are their reduced echelon
    bases.  Otherwise the ladder runs again on all rows.
    """
    rows = [common_denominator(row)[0] for row in mat]
    ncols = len(rows[0]) if rows else 0
    basis = _ladder(rows[:ncols], ncols)
    if not _certified(rows[ncols:], basis):
        basis = _ladder(rows, ncols)
    return basis
