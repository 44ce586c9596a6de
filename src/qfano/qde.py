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
the ray with a positive exponent and cross-checks it along the other
ray; j_series runs it on all rows, identity_series on the unit row
alone, whose equation has no left product, to high order.

The unit-row solve stores the scaled frames G_{a,b} = (a!)^d1 (b!)^d2
F_{a,b}: both equations keep their left-hand side, the source (a-c, b-d)
on the right gets the integer weight (a!/(a-c)!)^d1 (b!/(b-d)!)^d2 from
tables made once per solve, and the identity entry is the
Apery-normalized (a!)^d1 (b!)^d2 c_{a,b}.  The work runs on integers
over shared denominators: each classical matrix is an integer sparse
matrix with adjacency lists by row and by column over one denominator,
each ray's q-parts are integer adjacency lists by row over one
denominator, and a frame block is a pair (integer rows, D) in lowest
terms, each entry divided as soon as it is computed (Bareiss's exact
division).  Zeros and unit denominators cost nothing: a zero block is
neither walked nor read as a source, and a denominator of 1 enters no
lcm, multiplies nothing and drops out of the residual.  Every frame
entry carries a single implicit z-power, deg(row) - deg(col) + a*d1 +
b*d2 below zero, restored on export (frames, the coefficient table, the
operator residual), where values become Fractions.

The J-vector at index (a,b) is the first frame column, component i at
z^-(deg phi_i + a*d1 + b*d2); the identity component gives the
coefficient table c_{a,b}.  All operators share one pass over the
series by source index, which builds each derivative chain D1^k D2^l
of a source's J-vector once.
"""

from collections import namedtuple
from fractions import Fraction
from math import factorial, gcd, lcm, prod

from qfano import opparse
from qfano.linalg import common_denominator


class FlatnessError(ValueError):
    """The two divisor-ray recursions disagree; the system is not flat."""


class NonIntegralError(ValueError):
    """A factorially normalized coefficient is not an integer."""


# A classical divisor matrix C = Cint/den: rows[i] lists the pairs
# (k, Cint[i][k]) of row i, cols[j] the pairs (k, Cint[k][j]) of column
# j, and degree[i] is the degree of basis element i.  C raises degree by
# exactly one (set_column enforces the grading), so deg(k) = deg(i) - 1
# in rows[i] and deg(k) = deg(j) + 1 in cols[j]; the solver's walk order
# relies on it.
Classical = namedtuple("Classical", "rows cols den degree")


def _split_matrix(qmat):
    """Split a QuantumMatrix into its classical part and its q-parts.

    Returns (classical, parts): classical is a Classical built once here
    for the solver, the residual and the operator pass, and parts =
    ({(c, d): [(row, [(col, int), ...]), ...]}, den) over (c, d) !=
    (0, 0), each q-part as adjacency lists of its nonzero rows, with one
    denominator for all the q-parts.
    """
    spec = qmat.spec
    classical = {}
    parts = {}
    for j in range(spec.size):
        for i, qp in qmat.column(j).items():
            for key, v in qp.items():
                if key == (0, 0):
                    classical[(i, j)] = v
                else:
                    parts.setdefault(key, {}).setdefault(i, []).append((j, v))
    cints, dc = common_denominator(list(classical.values()))
    qints, dq = common_denominator([v for part in parts.values()
                                    for prow in part.values()
                                    for _, v in prow])
    rows = [[] for _ in range(spec.size)]
    cols = [[] for _ in range(spec.size)]
    for (i, k), v in zip(classical, cints):
        rows[i].append((k, v))
        cols[k].append((i, v))
    degree = tuple(spec.degree(i) for i in range(spec.size))
    qints = iter(qints)
    return (Classical(rows, cols, dc, degree),
            ({key: [(i, [(j, next(qints)) for j, _ in prow])
                    for i, prow in part.items()]
              for key, part in parts.items()}, dq))


def _shift_sum(blocks, parts, a, b, falling):
    """sum over q-parts of frame(a-c, b-d) * part on the rows present, as
    integer rows R over L = lcm(D of the sources used) * the parts'
    denominator; the source (a-c, b-d) is weighted by falling[0][a][c] *
    falling[1][b][d], or by 1 when falling is None.  A source missing from
    blocks is zero and is skipped, and only the D that are not 1 enter
    the lcm."""
    pint, pden = parts
    used = []
    for (c, d), part in pint.items():
        source = blocks.get((a - c, b - d))
        if source is not None:
            used.append((source, part, c, d))
    den = lcm(*(fden for (_, fden), _, _, _ in used if fden != 1))
    unit = blocks[(0, 0)][0]
    out = [[0] * len(unit[0]) for _ in unit]
    for (rows, fden), part, c, d in used:
        m = den // fden
        if falling:
            m *= falling[0][a][c] * falling[1][b][d]
        for row, orow in zip(rows, out):
            for k, prow in part:
                x = row[k]
                if x:
                    x *= m
                    for j, v in prow:
                        orow[j] += x * v
    return out, den * pden


def _falling(order, top, d):
    """[(a!/(a-c)!)^d for c <= min(a, top)] for each a <= order."""
    return [[prod(range(a - c + 1, a + 1)) ** d
             for c in range(min(a, top) + 1)] for a in range(order + 1)]


def _sylvester_solve(scale, classical, rhs):
    """Solve scale*U + C*U - U*C = R/L for C = Cint/dc, entry by entry.

    C raises degree by exactly one, so ad_C(X) = X*C - C*X carries the
    entries of level deg(row) - deg(col) = l - 1 to level l, and the
    equation splits into U_l = (R_l/L + ad_C(U_{l-1})) / scale.  Entry
    (i, j) reads the entries (i, k) with k > j and (k, j) with k < i, so
    one walk up the rows and down the columns of a block of leading rows
    computes each entry once, from entries already done.  The walk keeps
    the integers U*L*f, so an entry is (R*f*dc + ad_Cint(U*L*f)) /
    (dc*scale), divided as soon as it is computed, with f = 1 while every
    division is exact.  With lo the lowest level of R and m = l - lo,
    U_l * L*dc^m*scale^(m+1) is the integer W_l = R_l*(dc*scale)^m +
    ad_Cint(W_{l-1}) of fraction-free (Bareiss) elimination, so at the
    first inexact division f becomes dc^depth * scale^(depth+1), depth
    being the top level of the block less lo: the block is multiplied by
    f once, and every later division is exact.  A block over D = L*f = 1
    is in lowest terms, any other is reduced by one gcd.  Returns
    (integer rows, D).
    """
    rrows, den = rhs
    deg = classical.degree
    size = len(deg)
    step = classical.den * scale
    lift = classical.den
    cols = classical.cols
    w = [[0] * size for _ in rrows]
    for i, (hrow, wrow) in enumerate(zip(rrows, w)):
        below = classical.rows[i]
        for j in range(size - 1, -1, -1):
            x = hrow[j]
            if x and lift != 1:
                x *= lift
            for k, v in cols[j]:
                y = wrow[k]
                if y:
                    x += y * v
            if below:
                for k, v in below:
                    y = w[k][j]
                    if y:
                        x -= v * y
            if x:
                q, r = divmod(x, step)
                if r:
                    lo = min(deg[k] - deg[c] for k, hr in enumerate(rrows)
                             for c, y in enumerate(hr) if y)
                    depth = deg[len(rrows) - 1] - deg[0] - lo
                    f = classical.den ** depth * scale ** (depth + 1)
                    for row in w:
                        row[:] = [y * f for y in row]
                    lift *= f
                    den *= f
                    q = x * f // step
                wrow[j] = q
    if den == 1:
        return w, 1
    g = gcd(den, *(x for row in w for x in row))
    return [[x // g for x in row] for row in w], den // g


def _route_residual(scale, classical, u, rhs):
    """First nonzero entry of scale*U + C*U - U*C - R/L, the defect of the
    other ray's equation, in row-major order, as ((row, col), Fraction),
    or None.

    The residual is formed on integers, scaled by D*dc*L, with the one
    product scale*U when D = L = dc = 1; it is zero at once when U and R
    are."""
    rows, den = u
    rrows, rden = rhs
    if not any(map(any, rows)) and not any(map(any, rrows)):
        return None
    dc = classical.den
    fu, fr = scale * dc * rden, den * dc
    ones = fr == rden == 1
    cols = classical.cols
    for i, (urow, hrow) in enumerate(zip(rows, rrows)):
        below = classical.rows[i]
        for j, (x, h) in enumerate(zip(urow, hrow)):
            y = 0
            for k, v in cols[j]:
                y += urow[k] * v
            if below:
                for k, v in below:
                    y -= v * rows[k][j]
            val = fu * x - y - h if ones else fu * x - rden * y - fr * h
            if val:
                return (i, j), Fraction(val, den * dc * rden)
    return None


class JSeries:
    """Flat frames of the quantum differential system up to a total order.

    blocks maps (a, b) to the frame as (integer rows, D), entry (i, j)
    being rows[i][j] / D with the z-grid implicit; the unit-row solve
    behind identity_series keeps row one only, as scaled frames, with
    the solver's weights in falling (None for unscaled frames).  The
    matrix parts are the integer forms read by the solver: each classical
    part is a Classical and each ray's q-parts ({(c, d): adjacency lists
    of the nonzero rows}, den), made once per solve.  frames is the
    Fraction export of the blocks.
    """

    def __init__(self, spec, p_classical, p_parts, xi_classical, xi_parts):
        self.spec = spec
        self.blocks = {}
        self.falling = None
        self.p_classical = p_classical
        self.p_parts = p_parts
        self.xi_classical = xi_classical
        self.xi_parts = xi_parts

    @property
    def frames(self):
        """{(a, b): Fraction matrix}, exported afresh on every read."""
        return {key: [[Fraction(x, den) for x in row] for row in rows]
                for key, (rows, den) in self.blocks.items()}


def _solve(mp, mxi, spec, order, rows, weights=(1, 1), scaled=False):
    """The series with every block cut to its leading rows, over the
    indices with w1*a + w2*b <= order for weights (w1, w2) >= (1, 1).

    The indices below (a, b) have a lower weighted sum, so every block a
    solve or a cross-check reads is present.  With scaled set, blocks
    are the scaled frames (a!)^d1 (b!)^d2 F_{a,b}.

    Each block is built from the ray with a positive exponent and
    cross-checked against the other ray; any defect raises FlatnessError
    with the offending index and entry of the unscaled frame.  scale*U +
    C*U - U*C is invertible for scale >= 1, so a right-hand side with no
    nonzero entry gives the zero block (zeros, 1) without a walk.  Only
    the nonzero blocks enter the map the shift sums read, so a zero
    source costs them nothing.
    """
    if order < 0:
        raise ValueError("truncation order must be >= 0")
    js = JSeries(spec, *_split_matrix(mp), *_split_matrix(mxi))
    if scaled:
        keys = [key for parts in (js.p_parts, js.xi_parts)
                for key in parts[0]]
        js.falling = [_falling(order, max((key[k] for key in keys),
                                          default=0), d)
                      for k, d in enumerate((spec.d1, spec.d2))]
    live = {(0, 0): ([[int(i == j) for j in range(spec.size)]
                      for i in range(rows)], 1)}
    js.blocks.update(live)
    rays = ((js.p_classical, js.p_parts), (js.xi_classical, js.xi_parts))
    w1, w2 = weights
    for total in range(1, order + 1):
        for a in range(total, -1, -1):
            b = total - a
            if w1 * a + w2 * b > order:
                continue
            key = (a, b)
            along = 0 if a else 1
            (classical, parts), other = rays[along], rays[1 - along]
            rhs = _shift_sum(live, parts, a, b, js.falling)
            if any(map(any, rhs[0])):
                u = live[key] = _sylvester_solve(key[along], classical, rhs)
            else:
                u = [[0] * spec.size for _ in range(rows)], 1
            defect = _route_residual(
                key[1 - along], other[0], u,
                _shift_sum(live, other[1], a, b, js.falling))
            if defect is not None:
                (i, j), val = defect
                if scaled:
                    val /= factorial(a) ** spec.d1 * factorial(b) ** spec.d2
                raise FlatnessError(
                    "flat frame inconsistent at index (%d,%d): cross-ray "
                    "residual %s at entry (%d,%d)"
                    % (a, b, val, i + 1, j + 1))
            js.blocks[key] = u
    return js


def j_series(mp, mxi, spec, order):
    """Solve the system for all frames with a + b <= order.

    Each frame is built from the ray with a positive exponent and
    cross-checked against the other ray; any defect raises
    FlatnessError with the offending index and entry.
    """
    return _solve(mp, mxi, spec, order, spec.size)


def identity_coefficients(js):
    """The table c_{a,b}: identity component of J at its forced z-power."""
    return {key: Fraction(rows[0][0], den)
            for key, (rows, den) in js.blocks.items()}


def identity_series(mp, mxi, spec, order, weights=(1, 1)):
    """The table (a!)^d1 (b!)^d2 c_{a,b}, an int where integral and else a
    Fraction, to high order: the frame solve on the unit row, over the
    indices with w1*a + w2*b <= order.

    Row one closes under each ray's equation on its own, so only that
    row is solved, and every index is cross-checked along the other ray
    as in j_series; a defect raises FlatnessError.
    """
    blocks = _solve(mp, mxi, spec, order, 1, weights, scaled=True).blocks
    return {key: Fraction(rows[0][0], den) if rows[0][0] % den
            else rows[0][0] // den for key, (rows, den) in blocks.items()}


def apery_table(ctable, size, spec):
    """Normalize c_{i,j} by (i!)^d1 (j!)^d2; entries must come out integer."""
    out = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            if (i, j) not in ctable:
                raise ValueError(
                    "coefficient table does not reach (%d,%d); recompute "
                    "with order >= %d" % (i, j, i + j))
            val = ctable[(i, j)] * factorial(i) ** spec.d1 \
                * factorial(j) ** spec.d2
            if val.denominator != 1:
                raise NonIntegralError(
                    "normalized coefficient (%d,%d) is not an integer: %s"
                    % (i, j, val))
            out[i][j] = int(val)
    return out


OpTerm = namedtuple("OpTerm", "coeff q1 q2 z d1 d2")

_OP_ATOMS = ("q1", "q2", "z", "D1", "D2")


def parse_operator(text):
    """Parse a differential operator in the atoms D1, D2, q1, q2, z.

    Term factors commute textually; the result is read in normal order
    (coefficient times q- and z-powers on the left, derivations on the
    right).  Zero-coefficient terms are dropped, so "0" parses to the
    empty operator.
    """
    terms = []
    for chunk in opparse.split_terms(text):
        coeff, pw = opparse.parse_term(chunk, _OP_ATOMS)
        if coeff:
            terms.append(OpTerm(coeff, pw["q1"], pw["q2"], pw["z"],
                                pw["D1"], pw["D2"]))
    return terms


def _cup(vec, den, classical, shift):
    """(classical cup + shift * z) on the first column vec / den."""
    dc = classical.den
    out = []
    for x, row in zip(vec, classical.rows):
        x *= shift * dc
        for k, v in row:
            x += v * vec[k]
        out.append(x)
    return out, den * dc


def _chain(chains, k, l, js, s, u):
    """D1^k D2^l on the first column of source (s, u), memoized in chains
    as an extension of D1^k D2^(l-1), or of D1^(k-1) when l = 0."""
    if (k, l) not in chains:
        if l:
            chains[(k, l)] = _cup(*_chain(chains, k, l - 1, js, s, u),
                                  js.xi_classical, u)
        else:
            chains[(k, l)] = _cup(*_chain(chains, k - 1, 0, js, s, u),
                                  js.p_classical, s)
    return chains[(k, l)]


def apply_operator(ops, js):
    """Apply parsed operators to the J-series in one pass over the sources.

    The derivation along ray k acts on the (a, b) coefficient as the
    classical divisor cup plus (index along ray k) * z; q-powers shift
    the source index.  Every divisor action raises degree by one, so a
    term whose source is (s, u) lands on component i at the single
    exponent sigma - deg(i), sigma = d1 + d2 + z - s*spec.d1 - u*spec.d2
    over its powers.  A source's chains serve the terms of every operator
    and are dropped before the next source; terms are summed per target
    and sigma on integer first columns.  Returns, per operator, {(a, b):
    vector of Laurent dicts} over every index of the series; each one is
    exact because operators only shift indices downward.
    """
    spec = js.spec
    sums = [{key: {} for key in js.blocks} for _ in ops]
    for (s, u), (rows, den) in js.blocks.items():
        chains = {(0, 0): ([row[0] for row in rows], den)}
        for op, targets in zip(ops, sums):
            for t in op:
                groups = targets.get((s + t.q1, u + t.q2))
                if groups is None:
                    continue
                vec, d = _chain(chains, t.d1, t.d2, js, s, u)
                d *= t.coeff.denominator
                sigma = t.d1 + t.d2 + t.z - s * spec.d1 - u * spec.d2
                acc = groups.setdefault(sigma, [[0] * len(vec), d])
                m = lcm(acc[1], d)
                if m != acc[1]:
                    acc[:] = [m // acc[1] * x for x in acc[0]], m
                g, total = t.coeff.numerator * (m // d), acc[0]
                for i, y in enumerate(vec):
                    if y:
                        total[i] += g * y
        # blocks ascend in a + b: every source of (s, u) came before it
        for targets in sums:
            groups, out = targets[(s, u)], [{} for _ in range(spec.size)]
            for sigma, (total, tden) in groups.items():
                for i, x in enumerate(total):
                    if x:
                        out[i][sigma - spec.degree(i)] = Fraction(x, tden)
            targets[(s, u)] = out
    return sums


def check_operator(ops, js):
    """Per operator, None if it annihilates the series at every index,
    else a diagnostic naming the first surviving component."""
    reports = []
    for res in apply_operator(ops, js):
        hit = next(((key, i, comp) for key in sorted(res)
                    for i, comp in enumerate(res[key]) if comp), None)
        if hit:
            (a, b), i, comp = hit
            terms = ", ".join("%s*z^%d" % (comp[e], e) for e in sorted(comp))
            hit = ("residual nonzero at index (%d,%d), component %d: %s"
                   % (a, b, i + 1, terms))
        reports.append(hit)
    return reports
