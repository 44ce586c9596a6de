"""Quantum differential system built on the reconstructed product matrices.

With the divisor prefactor stripped, the flat frame of the system is a
family of square rational matrices F_{a,b}, one per Novikov index, with
F_{0,0} = I.  Differentiating along the base ray gives one Sylvester-type
equation per index,

    a*F_{a,b} + P*F_{a,b} - F_{a,b}*P = sum F_{a-c,b-d} * (q1^c q2^d part of M_p)

with P the classical part of M_p and the sum over (c,d) != (0,0); the
fibre ray gives the analogous equation with b, the classical xi matrix,
and the parts of M_xi.  Both classical matrices raise cohomological
degree by exactly one and the basis ascends in degree, so each is
strictly lower triangular: the commutator with P moves a frame entry
from level deg(row) - deg(col) to the next level up, each equation is
solved in one pass from the lowest level upward, and any block of
leading frame rows closes under it.  One loop solves every index along
one ray, the fibre ray where b >= 1 and the base ray on b = 0 (on the
flagship M_xi's q-parts are the sparser); j_series runs it on all rows,
identity_series on the unit row alone, to high order.  The loop yields
each block as it is solved and keeps it only while a later index can
read it; j_series collects every block, identity_series reads entry 0
of each and keeps none.

One ray suffices for a flat pair, which the solve checks first on the
matrices (reconstruct.flatness_defect): [M_1, M_2] = 0 and q1 d/dq1 M_2
= q2 d/dq2 M_1, for M_1 = M_p and M_2 = M_xi.  Let E_k = D_k F be the
residual of ray k, D_k X = q_k d/dq_k X + C_k X - X M_k with C_k the
classical part of M_k.  Then

    D_1 E_2 - D_2 E_1 = F ([M_2, M_1] + q2 d/dq2 M_1 - q1 d/dq1 M_2)
                        + [C_1, C_2] F = 0.

By construction E_2 = 0 where b >= 1 and E_1 = 0 on b = 0.  The
derivative half at b = 0 reads a*M_2[(a, 0)] = 0, so M_2 has no pure-q1
part, by flatness alone.  So on b = 0 D_2 E_1 = [C_2, E_1] = 0, hence
D_1 E_2 = 0 there: a*E_2 + [C_1, E_2] = (E_2 at lower a, b = 0) *
parts, C_1 is nilpotent, so a + [C_1, .] is invertible for a >= 1, and
E_2 = 0 on b = 0 by induction on a (at the origin F = I and E_2 = 0).
So E_2 vanishes everywhere, and D_2 E_1 = D_1 E_2 = 0 gives b*E_1 +
[C_2, E_1] = (E_1 at lower b) * parts, so E_1 = 0 by induction on b.
C_k is strictly lower triangular, so this holds on any block of leading
rows.

A block of leading frame rows is one flat integer vector w over one
denominator D, in lowest terms, entry (i, j) at i*n + j for n basis
elements.  Every block, the unit row and the full frames alike, solves
the one row equation s*w - w*A = r, where A is the matrix of the
two-sided action U -> U*C - C*U on flat blocks (on the unit row, whose
equation has no left product, A is C itself).  Each matrix has one
integer form, QuantumMatrix.lift, every term over one denominator; a
solve reads A from its classical terms as integer adjacency lists, one
per entry, together with each entry's level and the walk order (rows
ascending, columns descending), and the q-parts from its other terms,
as integer lists from a source entry to its targets.  So the solve is
one flat walk, each entry divided as soon as it is computed (Bareiss's
exact division).  Zeros and unit denominators cost nothing: a zero
block is neither walked nor read as a source, and a denominator of 1
enters no lcm and multiplies nothing.

Every block, full frames and unit row alike, is stored as the scaled
frame G_{a,b} = (a!)^d1 (b!)^d2 F_{a,b}: both equations keep their
left-hand side, the source (a-c, b-d) on the right gets the integer
weight (a!/(a-c)!)^d1 (b!/(b-d)!)^d2 from tables made once per solve,
and the identity entry is the Apery-normalized (a!)^d1 (b!)^d2 c_{a,b}.
Every entry carries a single implicit z-power, deg(row) - deg(col) +
a*d1 + b*d2 below zero; the exports (frames, the coefficient table)
restore it and divide by (a!)^d1 (b!)^d2.

The J-vector at index (a,b) is the first frame column, component i at
z^-(deg phi_i + a*d1 + b*d2); the identity component gives the
coefficient table c_{a,b}.

Operators are checked on the matrices alone, in the quantum D-module:
with nabla_k = z q_k d/dq_k + M_k, L annihilates J exactly when w =
L(nabla) * 1 vanishes.  The frames satisfy (C_k + z q_k d/dq_k) F = F
nabla_k, so L on the J-series leaves F*w; F_{0,0} = I and every other
F_beta moves an index up, so w and F*w, cut at one order, share their
first nonzero index and its components.  The premise is flatness,
which the frame solve checks on the matrices.  The check reads the
same lift as the solve, in the column action on sparse chains where
the solve reads it in the row action on flat blocks.
"""

from collections import namedtuple
from fractions import Fraction
from itertools import compress
from math import factorial, gcd, lcm, prod

from qfano import opparse
from qfano.linalg import accumulate
from qfano.reconstruct import flatness_defect


class FlatnessError(ValueError):
    """The matrix pair fails flatness_defect; the system is not flat."""


class NonIntegralError(ValueError):
    """A factorially normalized coefficient is not an integer."""


# One ray's row equation s*w - w*A = r on flat blocks of leading frame
# rows, entry (i, j) at i*size + j, with A = Aint/den the action U ->
# U*C - C*U of the classical matrix C = Cint/den, den being the one
# denominator of the matrix's lift.  walk lists the pairs (p, adj) rows
# ascending and columns descending, adj holding the pairs (q,
# Aint[q][p]): for p = (i, j), q = (i, k) with Cint[k][j] and q = (k, j)
# with -Cint[i][k].  C raises degree by exactly one (set_column enforces
# the grading), so k > j and k < i, and each entry reads entries already
# walked; level[p] is deg(i) - deg(j) and top the highest level.  parts
# = {(c, d): [(p, [(t, int), ...]), ...]} lifts each q-part, over the
# same den, to the flat indices: the source entry p = (i, k) adds to the
# entries t = (i, j) of its row.
Ray = namedtuple("Ray", "den walk level top parts")


def _split_matrix(qmat, rows):
    """The Ray of a QuantumMatrix, read off its lift and built once per
    solve: the (0, 0) terms fill the two-sided classical action on flat
    blocks of `rows` leading frame rows, the others the q-parts in the
    row action."""
    size = qmat.spec.size
    columns, den = qmat.lift()
    starts = range(0, rows * size, size)
    adj = [[] for _ in range(rows * size)]
    parts = {}
    for k, col in enumerate(columns):
        for i, c, d, v in col:
            if c or d:
                parts.setdefault((c, d), {}).setdefault(i, []).append((k, v))
                continue
            for r in starts:
                adj[r + k].append((r + i, v))
            if i < rows:
                for j in range(size):
                    adj[i * size + j].append((k * size + j, -v))
    degree = tuple(map(qmat.spec.degree, range(size)))
    level = [di - dj for di in degree[:rows] for dj in degree]
    lifted = {key: [(r + k, [(r + j, v) for j, v in prow] if r else prow)
                    for r in starts for k, prow in part.items()]
              for key, part in parts.items()}
    return Ray(den, [(p, adj[p]) for r in starts
                     for p in range(r + size - 1, r - 1, -1)],
               level, max(level), lifted)


def _shift_sum(live, ray, a, b, falling):
    """sum over the ray's q-parts of frame(a-c, b-d) * part, as a flat
    integer vector over L = lcm(D of the sources used) * ray.den;
    the source (a-c, b-d) is read from the grid live[a-c][b-d] (None for
    a zero block, which is skipped) and weighted by falling[0][a][c] *
    falling[1][b][d].  Only the D that are not 1 enter the lcm."""
    used = []
    den = 1
    for (c, d), part in ray.parts.items():
        if c <= a and d <= b:
            source = live[a - c][b - d]
            if source is not None:
                used.append((source, part, c, d))
                if source[1] != 1:
                    den = lcm(den, source[1])
    out = [0] * len(ray.level)
    for (vec, fden), part, c, d in used:
        m = den // fden * falling[0][a][c] * falling[1][b][d]
        for p, targets in part:
            x = vec[p]
            if x:
                x *= m
                for t, v in targets:
                    out[t] += x * v
    return out, den * ray.den


def _falling(order, top, d):
    """[(a!/(a-c)!)^d for c <= min(a, top)] for each a <= order."""
    return [[prod(range(a - c + 1, a + 1)) ** d
             for c in range(min(a, top) + 1)] for a in range(order + 1)]


def _sylvester_solve(scale, ray, rhs):
    """Solve the row equation scale*w - w*A = r/L for A = Aint/dc, entry
    by entry along ray.walk.

    A raises the level of an entry by exactly one, so the equation
    splits into w_l = (r_l/L + (w*A)_l) / scale over the levels l, and
    the walk reaches each entry after every entry it reads.  The walk
    keeps the integers w*L*f, so an entry is (r*f*dc + (w*L*f)*Aint) /
    (dc*scale), divided as soon as it is computed, with f = 1 while
    every division is exact.  With lo the lowest level of r and m = l -
    lo, w_l * L*dc^m*scale^(m+1) is the integer W_l = r_l*(dc*scale)^m +
    (W_{l-1}*Aint)_l of fraction-free (Bareiss) elimination, so at the
    first inexact division f becomes dc^depth * scale^(depth+1), depth
    being the top level of the block less lo: the block is multiplied by
    f once, and every later division is exact.  A block over D = L*f = 1
    is in lowest terms, any other is reduced by one gcd.  Returns (flat
    integer vector, D).
    """
    r, den = rhs
    step = ray.den * scale
    lift = ray.den
    w = [0] * len(r)
    for p, adj in ray.walk:
        x = r[p]
        if x and lift != 1:
            x *= lift
        for q, v in adj:
            y = w[q]
            if y:
                x += y * v
        if x:
            if x % step:
                depth = ray.top - min(compress(ray.level, r))
                f = ray.den ** depth * scale ** (depth + 1)
                w = [y * f for y in w]
                lift *= f
                den *= f
                x *= f
            w[p] = x // step
    if den == 1:
        return w, 1
    g = gcd(den, *w)
    return [x // g for x in w], den // g


class JSeries:
    """Flat frames of the quantum differential system up to a total order.

    blocks maps (a, b) to the scaled frame G_{a,b} as (flat integer
    vector, D), entry (i, j) being vec[i*n + j] / D with the z-grid
    implicit, every block of the solve's stream kept; an export divides
    each block by weight(a, b).
    """

    def __init__(self, spec):
        self.spec = spec
        self.blocks = {}

    def weight(self, a, b):
        """(a!)^d1 (b!)^d2, the scale of the stored block at (a, b)."""
        return factorial(a) ** self.spec.d1 * factorial(b) ** self.spec.d2

    @property
    def frames(self):
        """{(a, b): Fraction matrix F_{a,b}}, exported on every read."""
        n = self.spec.size
        out = {}
        for key, (vec, den) in self.blocks.items():
            den *= self.weight(*key)
            out[key] = [[Fraction(x, den) for x in vec[i:i + n]]
                        for i in range(0, len(vec), n)]
        return out


def _solve(mp, mxi, spec, order, rows, weights=(1, 1)):
    """Yield ((a, b), block) for every block cut to its leading rows, in
    solve order, over the indices with w1*a + w2*b <= order for weights
    (w1, w2) >= (1, 1); the indices below (a, b) have a lower weighted
    sum.

    A pair that fails flatness_defect raises FlatnessError with its
    message before any solve; each block is then built from one ray
    alone (module docstring).  scale*w - w*A is invertible for scale >=
    1, so a right-hand side with no nonzero entry gives the zero block
    (zeros, 1) without a walk.  Only the nonzero blocks enter the grid
    the shift sums read, so a zero source costs them nothing, and only
    while a later index can read them: a source lies at most span =
    max(c + d) over the q-parts of both rays anti-diagonals below its
    target, so the grid drops anti-diagonal total - span - 1 before the
    solve of anti-diagonal total.  The grid holds at most span + 1
    anti-diagonals; a caller that keeps every block collects the stream.
    """
    if order < 0:
        raise ValueError("truncation order must be >= 0")
    defect = flatness_defect(mp, mxi)
    if defect is not None:
        raise FlatnessError(defect)
    rays = (_split_matrix(mp, rows), _split_matrix(mxi, rows))
    keys = [key for ray in rays for key in ray.parts]
    span = max((c + d for c, d in keys), default=0)
    falling = [_falling(order, max((key[k] for key in keys), default=0), d)
               for k, d in enumerate((spec.d1, spec.d2))]
    w1, w2 = weights
    live = [[None] * (order + 1) for _ in range(order + 1)]
    live[0][0] = block = ([int(p % spec.size == p // spec.size)
                           for p in range(rows * spec.size)], 1)
    yield (0, 0), block
    for total in range(1, order + 1):
        gone = total - span - 1
        for a in range(gone + 1):
            live[a][gone - a] = None
        for a in range(total, -1, -1):
            b = total - a
            if w1 * a + w2 * b > order:
                continue
            ray = rays[1 if b else 0]
            rhs = _shift_sum(live, ray, a, b, falling)
            if any(rhs[0]):
                live[a][b] = block = _sylvester_solve(b or a, ray, rhs)
            else:
                block = rhs[0], 1
            yield (a, b), block


def j_series(mp, mxi, spec, order):
    """Solve the system for all frames with a + b <= order, each built
    along one ray, and keep every block; a pair that is not flat raises
    FlatnessError."""
    js = JSeries(spec)
    js.blocks.update(_solve(mp, mxi, spec, order, spec.size))
    return js


def identity_coefficients(js):
    """The table c_{a,b}: identity component of J at its forced z-power."""
    return {key: Fraction(vec[0], den * js.weight(*key))
            for key, (vec, den) in js.blocks.items()}


def identity_series(mp, mxi, spec, order, weights=(1, 1)):
    """The table (a!)^d1 (b!)^d2 c_{a,b}, an int where integral and else a
    Fraction, to high order: the frame solve on the unit row, over the
    indices with w1*a + w2*b <= order.

    Row one closes under each ray's equation on its own, so only that
    row is solved, each index along one ray as in j_series; a pair that
    is not flat raises FlatnessError.  The table is read off the
    solve's stream, entry 0 of each block, and no block is kept.
    """
    return {key: Fraction(vec[0], den) if vec[0] % den else vec[0] // den
            for key, (vec, den) in _solve(mp, mxi, spec, order, 1, weights)}


def apery_table(js, size):
    """The size x size table (i!)^d1 (j!)^d2 c_{i,j}, read off the stored
    identity entries; entries must come out integer."""
    out = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            if (i, j) not in js.blocks:
                raise ValueError(
                    "coefficient table does not reach (%d,%d); recompute "
                    "with order >= %d" % (i, j, i + j))
            vec, den = js.blocks[(i, j)]
            if vec[0] % den:
                raise NonIntegralError(
                    "normalized coefficient (%d,%d) is not an integer: %s"
                    % (i, j, Fraction(vec[0], den)))
            out[i][j] = vec[0] // den
    return out


OpTerm = namedtuple("OpTerm", "coeff q1 q2 z d1 d2")

_OP_ATOMS = ("q1", "q2", "z", "D1", "D2")


def parse_operator(text):
    """Parse a differential operator in the atoms D1, D2, q1, q2, z.

    Term factors commute textually; the result is read in normal order
    (coefficient times q- and z-powers on the left, derivations on the
    right).  Like terms merge in order of first appearance and drop out
    when they cancel, so "0" and "D1 - D1" parse to the empty operator.
    """
    terms = {}
    for chunk in opparse.split_terms(text):
        coeff, pw = opparse.parse_term(chunk, _OP_ATOMS)
        accumulate(terms, [(tuple(pw[atom] for atom in _OP_ATOMS), coeff)])
    return [OpTerm(coeff, *powers) for powers, coeff in terms.items()]


def _nabla(chain, lift, along, order):
    """One step nabla_k, along = k - 1, on a chain ({(a, b, i): int}, D)
    of the entries with a + b <= order, M_k read from its lift: z q_k
    d/dq_k multiplies an entry by its index along ray k (z-powers are
    implicit) and column j of M_k carries it to the entries it reaches
    within the order.  No zero is stored, and a lift with den > 1 costs
    one gcd."""
    (vec, den), (columns, dm) = chain, lift
    out = {}
    for (a, b, j), x in vec.items():
        s = (a, b)[along]
        if s:
            out[a, b, j] = out.get((a, b, j), 0) + s * dm * x
        for i, c, d, v in columns[j]:
            if a + b + c + d <= order:
                key = a + c, b + d, i
                out[key] = out.get(key, 0) + v * x
    g = gcd(den * dm, *out.values()) if dm > 1 else 1
    return {key: x // g for key, x in out.items() if x}, den * dm // g


def check_operator(ops, mp, mxi, order):
    """Per operator L, None if w = L(nabla) * 1 vanishes at every index
    (a, b) with a + b <= order, else a diagnostic naming the first
    nonzero index and component of w and its z-terms.

    Each chain D1^k D2^l * 1 is built once for all operators, as a
    sparse map over the entries (a, b, i) it reaches, so its cost
    follows the chain and not the order.  Its entries all have weight
    k + l, so a term's z-power d1 + d2 + z - a*spec.d1 - b*spec.d2 -
    deg(i) is read at the source index (a, b) of the chain entry.  A
    flat system's J-series residual F*w shares that report (module
    docstring): callers check flatness first (j_series).
    """
    spec = mp.spec
    lifts = (mp.lift(), mxi.lift())
    chains = {(0, 0): ({(0, 0, 0): 1}, 1)}
    # D1^k D2^l extends D1^k D2^(l-1), or D1^(k-1) when l = 0
    for k, l in {(t.d1, t.d2) for op in ops for t in op}:
        for x, y in [(x, 0) for x in range(k + 1)] + [
                (k, y) for y in range(l + 1)]:
            if (x, y) not in chains:
                chains[(x, y)] = _nabla(
                    chains[(x, y - 1) if y else (x - 1, 0)], lifts[y > 0],
                    y > 0, order)
    reports = []
    for op in ops:
        used = [(t, chains[(t.d1, t.d2)]) for t in op]
        den = lcm(*(d * t.coeff.denominator for t, (_, d) in used))
        w = {}
        for t, (vec, d) in used:
            m = t.coeff.numerator * (den // (d * t.coeff.denominator))
            for (a, b, i), x in vec.items():
                if a + b + t.q1 + t.q2 <= order:
                    key = (a + t.q1, b + t.q2, i, t.d1 + t.d2 + t.z
                           - a * spec.d1 - b * spec.d2 - spec.degree(i))
                    w[key] = w.get(key, 0) + m * x
        hit = min((key[:3] for key, x in w.items() if x), default=None)
        if hit:
            hit = "residual nonzero at index (%d,%d), component %d: %s" % (
                hit[0], hit[1], hit[2] + 1, ", ".join(
                    "%s*z^%d" % (Fraction(x, den), key[3])
                    for key, x in sorted(w.items())
                    if key[:3] == hit and x))
        reports.append(hit)
    return reports
