"""Independent checks of the pipeline's results, shared by the test modules.

The package never calls these.  Each one re-derives, from the finished
object alone, a property that the code enforces while building it:
QuantumMatrix.set_column refuses misgraded and impure entries, and the
frame solve sets the origin block to the identity, checks flatness on
the two matrices and then solves each index along one divisor ray.
check_flatness checks every index against both rays' equations with
ref_route_residual, where the solve relies on the check on the
matrices; ref_flatness_defect is that check on Fraction q-polynomials,
where the package compares integer products of the two lifts.  ray
rebuilds one divisor-ray equation at an index from every block below
it, zero blocks included, where the solve reads only the nonzero ones;
rays lifts the two divisor matrices for it with ref_split_matrix.  The
package solves only the unit row; the full n x n frames these checks
and the operator residual read come from ref_solve, the package's
former full-frame solver on the anti-diagonal grid, which runs the
per-block walk (_shift_sum and _sylvester_solve, whose arithmetic qde's
row walk keeps slot by slot) on the two-sided action of
ref_split_matrix, and ref_j_series collects them.  The quantum ring
relations are checked here as well, read off the z-free terms of the
packaged annihilating operators.

The general ring computations the package replaced by closed forms are
kept here as references: the cup product with recursive reduction, the
Segre numbers and the integral over X, the Poincare pairing as a Gram
matrix of integrals and the dual basis as its inverse, the three-point
symmetry checked on that Gram matrix, and the degree <= n xi-matrix
columns from fibre-line invariants.  They read classes as dense vectors
over the basis, where the package keeps sparse {position: value} maps,
which dense_class spreads out.  So is the operator
residual on the J-series, built term by term from the frames: it is the
reference for the package's check, which sends the class 1 through the
quantum D-module of the two matrices and reads no frame.  So are the
seed invariants the package now reads off closed forms: the Schubert
calculus on G(2,5) with Pieri's rule behind the flagship's
exceptional-divisor pairing, and the fibre-line invariant of the
pushforwards to the base behind the product bundles' base-ray
invariant.  And so is the period chain over Fraction
(hypergeometric modification, mirror multiplier, period sequence,
regularization, operator residual and search) that the package now runs
on integers.

One oracle shares no code with the package at all: laurent_period, the
classical period of a mirror Laurent polynomial, whose m-th term is the
constant term of f^m.  For toric P(E) it equals the regularized quantum
period of the empty cut, with f summed over the rays of the fan that
toric_mirror builds.
"""

from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import compress
from math import factorial, gcd, lcm, prod

from qfano import qde
from qfano.lefschetz import PFTerm, check_search_box, cut_weights, pf_normalize
from qfano.linalg import accumulate, col_add_into, nullspace
from qfano.reconstruct import QuantumMatrix
from qfano.ring import make_bundle
from qfano.schubert import is_flagship

ZERO = Fraction(0)
ONE = Fraction(1)


def vector(js, a, b):
    """J at Novikov index (a, b): one Laurent dict per basis component."""
    spec = js.spec
    w = a * spec.d1 + b * spec.d2
    vec, den = js.blocks[(a, b)]
    # the stored block is (a!)^d1 (b!)^d2 times the frame
    den *= factorial(a) ** spec.d1 * factorial(b) ** spec.d2
    return [({-spec.degree(i) - w: Fraction(x, den)} if x else {})
            for i, x in enumerate(vec[0::spec.size])]


def ref_split_matrix(qmat, rows):
    """The qde.Ray of a QuantumMatrix on `rows` leading frame rows: the
    (0, 0) terms fill the two-sided classical action U -> U*C - C*U on
    flat blocks, entry (i, j) at i*size + j, the others the q-parts in
    the row action.  walk lists the entries rows ascending and columns
    descending, adj holding the pairs (q, Aint[q][p]): for p = (i, j), q
    = (i, k) with Cint[k][j] and q = (k, j) with -Cint[i][k]; level[p] is
    deg(i) - deg(j).  On one row it is qde._split_matrix."""
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
    return qde.Ray(den, [(p, adj[p]) for r in starts
                         for p in range(r + size - 1, r - 1, -1)],
                   level, max(level), lifted)


def _shift_sum(live, ray, a, b, falling):
    """The per-block right-hand side that qde._row_shift_sum builds slot
    by slot: the sum over the ray's q-parts of frame(a-c, b-d) * part, as
    a flat integer vector over L = lcm(D of the sources used) * ray.den;
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


def _sylvester_solve(scale, ray, rhs):
    """Solve the row equation scale*w - w*A = r/L for A = Aint/dc, entry
    by entry along ray.walk: the per-block walk, whose arithmetic
    qde._row_walk keeps in every slot.

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
                f = qde._bareiss_factor(scale, ray, compress(ray.level, r))
                w = [y * f for y in w]
                lift *= f
                den *= f
                x *= f
            w[p] = x // step
    if den == 1:
        return w, 1
    g = gcd(den, *w)
    return [x // g for x in w], den // g


def ref_solve(mp, mxi, spec, order, rows, weights=(1, 1)):
    """Yield ((a, b), block) for every block cut to its `rows` leading
    frame rows, in solve order, over the indices with w1*a + w2*b <=
    order for weights (w1, w2) >= (1, 1); the indices below (a, b) have a
    lower weighted sum.

    The full-frame reference of the unit-row solve, block by block on
    the anti-diagonal grid: qde._setup refuses the same inputs with the
    same errors, then each block is built from one ray alone (the qde
    docstring), by _shift_sum and _sylvester_solve on the rays of
    ref_split_matrix.  scale*w - w*A is invertible for scale >= 1, so a
    right-hand side with no nonzero entry gives the zero block (zeros, 1)
    without a walk.  Only the nonzero blocks enter the grid the shift
    sums read, and only while a later index can read them: a source lies
    at most span = max(c + d) over the q-parts of both rays
    anti-diagonals below its target, so the grid drops anti-diagonal
    total - span - 1 before the solve of anti-diagonal total.
    """
    _, falling = qde._setup(mp, mxi, spec, order, weights)
    rays = (ref_split_matrix(mp, rows), ref_split_matrix(mxi, rows))
    span = max((c + d for ray in rays for c, d in ray.parts), default=0)
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


def ref_j_series(mp, mxi, spec, order):
    """A qde.JSeries of the full n x n frames with a + b <= order, from
    ref_solve, where qde.j_series holds their unit rows."""
    js = qde.JSeries(spec)
    js.blocks.update(ref_solve(mp, mxi, spec, order, spec.size))
    return js


def rays(js, mp, mxi):
    """{along_p: Ray} of mp and mxi, lifted to the rows of js's blocks."""
    rows = len(js.blocks[(0, 0)][0]) // js.spec.size
    return {True: ref_split_matrix(mp, rows),
            False: ref_split_matrix(mxi, rows)}


def ray(js, lifted, a, b, along_p):
    """(scale, ray, rhs) of one divisor-ray equation at index (a, b),
    lifted being rays(js, mp, mxi), with the right-hand side built from
    every block below (a, b), zero blocks included: the grid it reads
    holds no None.  The source (a-c, b-d) is weighted by (a!/(a-c)!)^d1
    (b!/(b-d)!)^d2 from tables made here, independently of the
    solver's."""
    scale, flat = (a if along_p else b), lifted[along_p]
    grid = [[js.blocks[(s, u)] for u in range(b + 1)] for s in range(a + 1)]
    falling = [[[prod(range(x - c + 1, x + 1)) ** d for c in range(x + 1)]
                for x in range(max(a, b) + 1)]
               for d in (js.spec.d1, js.spec.d2)]
    return scale, flat, _shift_sum(grid, flat, a, b, falling)


def ref_route_residual(scale, ray, u, rhs, size):
    """First nonzero entry of scale*w - w*A - r/L, the defect of one
    ray's equation on a block of rows of width size, in row-major order,
    as ((row, col), Fraction), or None.

    The residual is formed on integers, scaled by D*dc*L, with the one
    product scale*w when D = L = dc = 1; it is zero at once when w and r
    are.  The adjacency of entry p is read off the walk."""
    w, den = u
    r, rden = rhs
    if not any(w) and not any(r):
        return None
    dc = ray.den
    fu, fr = scale * dc * rden, den * dc
    ones = fr == rden == 1
    adjs = dict(ray.walk)
    for p, (x, h) in enumerate(zip(w, r)):
        y = 0
        for q, v in adjs[p]:
            y += w[q] * v
        val = fu * x - y - h if ones else fu * x - rden * y - fr * h
        if val:
            return divmod(p, size), Fraction(val, den * dc * rden)
    return None


def check_flatness(js, mp, mxi):
    """Cross-verify every frame against both divisor-ray equations of mp
    and mxi.

    Returns None, or a diagnostic for the first failing index.
    """
    lifted = rays(js, mp, mxi)
    for (a, b) in sorted(js.blocks):
        for along_p in (True, False):
            scale, flat, rhs = ray(js, lifted, a, b, along_p)
            defect = ref_route_residual(scale, flat, js.blocks[(a, b)], rhs,
                                        js.spec.size)
            if defect is not None:
                (i, j), val = defect
                return ("index (%d,%d): residual %s at entry (%d,%d)"
                        % (a, b, val, i + 1, j + 1))
    return None


def ref_flatness_defect(mp, mxi):
    """reconstruct.flatness_defect on Fraction q-polynomials: the
    commutator column by column through QuantumMatrix.apply, then a*M_xi =
    b*M_p at each term, columns first; the same texts."""
    size = mp.spec.size
    for j in range(size):
        if mp.apply(mxi.column(j)) != mxi.apply(mp.column(j)):
            return "commutativity check fails at column %d" % (j + 1)
    for j in range(size):
        for i in range(size):
            p, xi = mp.entry(i, j), mxi.entry(i, j)
            for a, b in sorted(p.keys() | xi.keys()):
                if a * xi.get((a, b), 0) != b * p.get((a, b), 0):
                    return ("q1 d/dq1 M_xi != q2 d/dq2 M_p at entry (%d,%d), "
                            "term q1^%d q2^%d" % (i + 1, j + 1, a, b))
    return None


def check_homogeneity(js):
    """Every exported J component must sit at its forced z-exponent.

    Returns None, or a diagnostic for the first violation.
    """
    spec = js.spec
    identity = [int(i == j) for i in range(spec.size)
                for j in range(spec.size)]
    if js.blocks[(0, 0)] != (identity, 1):
        return "frame at index (0,0) is not the identity"
    for (a, b) in sorted(js.blocks):
        w = a * spec.d1 + b * spec.d2
        for i, comp in enumerate(vector(js, a, b)):
            if not comp:
                continue
            forced = -spec.degree(i) - w
            if set(comp) != {forced}:
                return ("index (%d,%d) component %d supported at %s, "
                        "expected z^%d"
                        % (a, b, i + 1, sorted(comp), forced))
    return None


def ref_classical(qmat):
    """(integer {(row, col): value}, dc) of the classical part of a matrix,
    read off its columns."""
    entries = {(i, j): qp[(0, 0)] for j in range(qmat.spec.size)
               for i, qp in qmat.column(j).items() if qp.get((0, 0))}
    dc = lcm(*(v.denominator for v in entries.values()))
    return {key: int(v * dc) for key, v in entries.items()}, dc


def _ref_cup(vec, den, classical, shift):
    """(classical cup + shift * z) on vec / den, entry by entry from the
    ref_classical form of the matrix."""
    cint, dc = classical
    out = [shift * dc * x for x in vec]
    for (i, k), v in cint.items():
        x = vec[k]
        if x:
            out[i] += v * x
    return out, den * dc


def ref_apply_operator(op, js, mp, mxi):
    """One operator's residual, built term by term: each term rebuilds its
    own derivative chain on its source's first column, unscaled by the
    source's (s!)^d1 (u!)^d2, with the classical parts of mp and mxi, and
    the terms are summed per target and sigma over the lcm of their
    denominators.  Returns {(a, b): vector of Laurent dicts}, exact at
    every index of the series since operators only shift indices
    upward."""
    spec = js.spec
    size = spec.size
    cp, cxi = ref_classical(mp), ref_classical(mxi)
    residual = {}
    for (a, b) in js.blocks:
        groups = {}
        for t in op:
            s, u = a - t.q1, b - t.q2
            if s < 0 or u < 0:
                continue
            vec, den = js.blocks[(s, u)]
            vec = vec[0::size]
            den *= factorial(s) ** spec.d1 * factorial(u) ** spec.d2
            for _ in range(t.d1):
                vec, den = _ref_cup(vec, den, cp, s)
            for _ in range(t.d2):
                vec, den = _ref_cup(vec, den, cxi, u)
            sigma = t.d1 + t.d2 + t.z - s * spec.d1 - u * spec.d2
            groups.setdefault(sigma, []).append(
                (vec, den * t.coeff.denominator, t.coeff.numerator))
        acc = [dict() for _ in range(size)]
        for sigma, items in groups.items():
            den = lcm(*(d for _, d, _ in items))
            total = [0] * size
            for vec, d, num in items:
                f = num * (den // d)
                for i, x in enumerate(vec):
                    if x:
                        total[i] += f * x
            for i, x in enumerate(total):
                if x:
                    acc[i][sigma - spec.degree(i)] = Fraction(x, den)
        residual[(a, b)] = acc
    return residual


def ref_check_operator(op, js, mp, mxi):
    """None if ref_apply_operator leaves no residual at any index, else
    its first nonzero component in (index, component) order, with its
    z-terms, worded as qde.check_operator words a report."""
    res = ref_apply_operator(op, js, mp, mxi)
    hit = next(((key, i, comp) for key in sorted(res)
                for i, comp in enumerate(res[key]) if comp), None)
    if hit is None:
        return None
    (a, b), i, comp = hit
    return ("residual nonzero at index (%d,%d), component %d: %s"
            % (a, b, i + 1,
               ", ".join("%s*z^%d" % (comp[e], e) for e in sorted(comp))))


def verify_relation(mp, mxi, op):
    """Residual on the identity class of the z-free terms of an operator.

    `op` is a list of qde.OpTerm.  At z = 0 an operator that kills J
    gives a relation in quantum cohomology: D1 acts as M_p, D2 as M_xi
    and q1^a q2^b as a shift.  The result is a {row: QPoly} map, empty
    exactly when the relation holds.
    """
    out = {}
    for t in op:
        if t.z:
            continue
        vec = {0: {(0, 0): ONE}}
        for _ in range(t.d1):
            vec = mp.apply(vec)
        for _ in range(t.d2):
            vec = mxi.apply(vec)
        col_add_into(out, vec, scale=t.coeff, shift=(t.q1, t.q2))
    return out


def check_grading(mat):
    """First stored entry (row, col, a, b) off the grading, or None."""
    spec = mat.spec
    for j in range(spec.size):
        for row, qp in mat.column(j).items():
            for (a, b) in qp:
                if spec.degree(row) != (spec.degree(j) + 1
                                        - a * spec.d1 - b * spec.d2):
                    return (row, j, a, b)
    return None


def check_purity(mat):
    """First entry violating the no-pure-q2 / no-pure-q1 rule, if any."""
    for j in range(mat.spec.size):
        for row, qp in mat.column(j).items():
            for (a, b) in qp:
                if mat.label == "p" and a == 0 and b >= 1:
                    return (row, j, a, b)
                if mat.label == "xi" and a >= 1 and b == 0:
                    return (row, j, a, b)
    return None


def classical(mat):
    """The q = 0 matrix as a dense grid of Fractions."""
    size = mat.spec.size
    grid = [[ZERO] * size for _ in range(size)]
    for j in range(size):
        for row, qp in mat.column(j).items():
            grid[row][j] = qp.get((0, 0), ZERO)
    return grid


def set_q_zero(mat):
    """A copy of a QuantumMatrix with every quantum term dropped."""
    out = QuantumMatrix(mat.spec, mat.label)
    for j in range(mat.spec.size):
        out.set_column(j, {row: {(0, 0): qp[(0, 0)]}
                           for row, qp in mat.column(j).items()
                           if (0, 0) in qp})
    return out


LAMBDA, MU = Fraction(1, 2), Fraction(3, 5)


def basis_scale(k):
    return ONE if k == 0 else Fraction(k + 2, 3)


def rescaled(spec, mat):
    """Entry (i,j) at q1^c q2^d times LAMBDA^c MU^d s_j/s_i, s_k being
    basis_scale(k): q -> (LAMBDA q1, MU q2) with the basis rescaled by s.
    Both the classical entries and the q-parts become non-integral; a
    rescaled pair stays flat and commuting, but the dual basis no longer
    fits it, so its three-point symmetry check fails."""
    out = QuantumMatrix(spec, mat.label)
    for j in range(spec.size):
        out.set_column(j, {
            i: {(c, d): v * LAMBDA ** c * MU ** d
                * basis_scale(j) / basis_scale(i)
                for (c, d), v in qp.items()}
            for i, qp in mat.column(j).items()})
    return out


@cache
def segre(spec):
    """Segre numbers s_0..s_n of E: s(E) = 1/c(E) truncated at p^n."""
    out = [ONE]
    for j in range(1, spec.n + 1):
        out.append(-sum(spec.chern[i - 1] * out[j - i]
                        for i in range(1, min(j, spec.r) + 1)))
    return tuple(out)


def integrate_monomial(spec, a, b):
    """Integral of p^a xi^b over X, via the Segre pushforward.

    Nonzero only in the top degree a + b = n + r - 1 with b >= r - 1,
    where it equals s_(b-r+1)(E).
    """
    if a < 0 or b < spec.r - 1:
        return ZERO
    if a > spec.n or a + b != spec.dim:
        return ZERO
    return segre(spec)[b - spec.r + 1]


def pairing_matrix(spec):
    """Poincare pairing G with G[i][j] = integral of phi_i cup phi_j."""
    return [[integrate_monomial(spec, ai + aj, bi + bj)
             for (aj, bj) in spec.basis]
            for (ai, bi) in spec.basis]


def gram_three_point_symmetry(mat):
    """First (i, j), i <= j, where (G M)[j][i] != (G M)[i][j] for the
    Gram matrix G: pairing(M phi_i, phi_j) != pairing(M phi_j, phi_i)."""
    gram = pairing_matrix(mat.spec)
    size = mat.spec.size

    def paired(i, j):
        out = {}
        for row, qp in mat.column(i).items():
            g = gram[row][j]
            if g:
                accumulate(out, ((key, g * v) for key, v in qp.items()))
        return out

    for i in range(size):
        for j in range(i, size):
            if paired(i, j) != paired(j, i):
                return (i, j)
    return None


def zero_class(spec):
    """The zero class as a dense vector over the basis."""
    return [ZERO] * spec.size


def monomial_class(spec, a, b):
    """Dense basis vector of the monomial p^a xi^b."""
    vec = zero_class(spec)
    vec[spec.position(a, b)] = ONE
    return vec


def dense_class(spec, x):
    """A {position: value} class as a dense vector over the basis."""
    vec = zero_class(spec)
    for pos, c in x.items():
        vec[pos] = c
    return vec


def integrate(spec, x):
    """Integral of a class over X."""
    total = ZERO
    for i, c in enumerate(x):
        if c:
            total += c * integrate_monomial(spec, *spec.basis[i])
    return total


def reduce_monomial(spec, a, b):
    """p^a xi^b in the basis as {position: Fraction}, by p^(n+1) = 0 and
    xi^r = -(c_1 p xi^(r-1) + ... + c_r p^r) applied until b < r."""
    if a > spec.n:
        return {}
    if b < spec.r:
        return {spec.position(a, b): ONE}
    out = {}
    for i, c in enumerate(spec.chern, 1):
        if c:
            accumulate(out, ((pos, -c * coef) for pos, coef
                             in reduce_monomial(spec, a + i, b - i).items()))
    return out


def classical_mul(spec, x, y):
    """Cup product of two classes in basis coordinates."""
    out = zero_class(spec)
    for i, cx in enumerate(x):
        if not cx:
            continue
        ai, bi = spec.basis[i]
        for j, cy in enumerate(y):
            if not cy:
                continue
            aj, bj = spec.basis[j]
            for pos, coef in reduce_monomial(spec, ai + aj, bi + bj).items():
                out[pos] += cx * cy * coef
    return out


def invert(mat):
    """Inverse of a square matrix, read off the nullspace of [A | -I].

    That kernel is {(x, Ax)}.  When A is invertible its echelon basis
    vector at free column n + j is (A^-1 e_j, e_j); otherwise the last n
    entries span only the image of A.  Raises ValueError on a singular
    matrix.
    """
    n = len(mat)
    unit = [[int(i == j) for j in range(n)] for i in range(n)]
    basis = nullspace([list(row) + [-x for x in unit[i]]
                       for i, row in enumerate(mat)])
    if [vec[n:] for vec in basis] != unit:
        raise ValueError("singular matrix")
    return [list(row) for row in zip(*(vec[:n] for vec in basis))]


def dual_basis(spec):
    """Inverse Poincare pairing; row i gives phi^i in basis coordinates."""
    return invert(pairing_matrix(spec))


def fibre_xi_seed_columns(spec):
    """The xi-matrix column of every degree <= n class from fibre-line
    invariants: the classical product plus, for each invariant
    <gamma, phi_j> of the fibre line, its value times q2 times phi^j."""
    dual = dual_basis(spec)
    xi = monomial_class(spec, 0, 1)

    def put(col, row, key, value):
        if value and not accumulate(col.setdefault(row, {}), [(key, value)]):
            del col[row]

    cols = {}
    for ci, (a0, b0) in enumerate(spec.basis):
        if a0 + b0 > spec.n:
            continue
        gamma = monomial_class(spec, a0, b0)
        col = cols[ci] = {}
        for row, c in enumerate(classical_mul(spec, xi, gamma)):
            put(col, row, (0, 0), c)
        for j in range(spec.size):
            if spec.degree(j) == spec.dim - 1 + spec.d2 - a0 - b0:
                val = fiber_invariant(
                    spec, gamma, monomial_class(spec, *spec.basis[j]), 1)
                for row, c in enumerate(dual[j]):
                    put(col, row, (0, 1), val * c)
    return cols


def pushforward_monomial(spec, a, b):
    """pi_*(p^a xi^b) as a p-coefficient list of length n+1."""
    out = [ZERO] * (spec.n + 1)
    i = b - (spec.r - 1)
    if i >= 0 and a + i <= spec.n:
        out[a + i] = segre(spec)[i]
    return out


def pushforward_to_base(spec, x):
    """pi_* of a class, as a polynomial in p on the base (length n+1)."""
    out = [ZERO] * (spec.n + 1)
    for i, c in enumerate(x):
        if c:
            a, b = spec.basis[i]
            for k, s in enumerate(pushforward_monomial(spec, a, b)):
                if s:
                    out[k] += c * s
    return out


def fiber_invariant(spec, alpha, beta, k):
    """Two-point invariant of k times the fibre line class.

    Zero for k >= 2; for k = 1 the integral over the base of the two
    pushforwards (zero whenever the dimension constraint fails).
    """
    if k < 1:
        raise ValueError("multiplicity must be >= 1")
    if k >= 2:
        return ZERO
    pa = pushforward_to_base(spec, alpha)
    pb = pushforward_to_base(spec, beta)
    return sum((pa[a] * pb[spec.n - a] for a in range(spec.n + 1)), ZERO)


def ref_product_invariant(spec, alpha, beta, k):
    """Base-ray invariant of a product bundle: X = P^n x P^(r-1) is also
    the product bundle over P^(r-1) with fibre P^n, whose fibre line is
    the base ray here, so the invariant is fiber_invariant on that
    swapped spec, with p^a xi^b read as p^b xi^a."""
    if any(spec.chern):
        raise ValueError("product seed geometry needs all Chern coefficients zero")
    swapped = make_bundle(spec.r - 1, spec.n + 1)
    alpha, beta = ([x[spec.position(b, a)] for a, b in swapped.basis]
                   for x in (alpha, beta))
    return fiber_invariant(swapped, alpha, beta, k)


# Schubert calculus on G(k,m).  Schubert classes are maps from partitions
# (at most k parts, each at most m-k) to Fractions; multiplication by a
# special class sigma_i follows Pieri's rule.

def _strip(part):
    return tuple(x for x in part if x)


class Grassmannian:
    """G(k, m): k-dimensional subspaces of an m-dimensional space."""

    def __init__(self, k, m):
        if not 1 <= k < m:
            raise ValueError("need 1 <= k < m")
        self.k = k
        self.m = m
        self.cols = m - k

    def complement(self, lam):
        """Box complement: the Poincare dual partition."""
        padded = tuple(lam) + (0,) * (self.k - len(lam))
        return _strip(tuple(self.cols - padded[self.k - 1 - i]
                            for i in range(self.k)))

    def pieri(self, x, i):
        """Multiply a class by the special class sigma_i.

        Indices outside 1..m-k multiply by zero (the class does not
        exist); i = 0 is the identity.
        """
        if i == 0:
            return dict(x)
        if i < 0 or i > self.cols:
            return {}
        out = {}
        for lam, coef in x.items():
            if coef:
                padded = tuple(lam) + (0,) * (self.k - len(lam))
                accumulate(out, ((mu, coef) for mu in self._strips(padded, i)))
        return out

    def _strips(self, lam, size):
        # horizontal strips mu/lam of the given size inside the box:
        # lam[j] <= mu[j] <= lam[j-1] (mu[0] <= cols)
        def rec(j, remaining, prefix):
            if j == self.k:
                if remaining == 0:
                    yield _strip(prefix)
                return
            high = self.cols if j == 0 else lam[j - 1]
            for mj in range(lam[j], high + 1):
                add_boxes = mj - lam[j]
                if add_boxes > remaining:
                    break
                yield from rec(j + 1, remaining - add_boxes, prefix + (mj,))
        yield from rec(0, size, ())

    def pair(self, x, y):
        """Poincare pairing: integral of the product, via box duality."""
        total = ZERO
        for lam, c in x.items():
            d = y.get(self.complement(lam))
            if c and d:
                total += c * d
        return total


def sigma(*lam):
    """The Schubert class of a partition, as a unit-coefficient map."""
    return {_strip(lam): ONE}


def scale(x, c):
    c = Fraction(c)
    if not c:
        return {}
    return {k: c * v for k, v in x.items()}


def add(x, y):
    return accumulate(dict(x), y.items())


@cache
def g25():
    """The Grassmannian G(2,5) carrying the flagship blow-up geometry."""
    return Grassmannian(2, 5)


@cache
def qstar_segre(i):
    """s_i(Q*), the term-wise inverse of c(Q*): 1, sigma_1, sigma_(1,1), 0, ..."""
    if i == 0:
        return sigma()
    gr = g25()
    out = {}
    for j in range(1, min(i, 3) + 1):
        # s_i = -sum_j c_j(Q*) s_(i-j), and c_j(Q*) = (-1)^j sigma_j
        term = gr.pieri(qstar_segre(i - j), j)
        out = add(out, scale(term, -((-1) ** j)))
    return out


def pushforward_from_divisor(spec, x):
    """Push a class of the flagship X, restricted to D = P(Q*), to G(2,5):
    p^a xi^b maps to sigma_1^b s_(a-2)(Q*), and to zero when a < 2."""
    if not is_flagship(spec):
        raise ValueError("exceptional-divisor geometry is flagship-specific")
    gr = g25()
    out = {}
    for i, coef in enumerate(x):
        a, b = spec.basis[i]
        if not coef or a < 2:
            continue
        cls = qstar_segre(a - 2)
        for _ in range(b):
            cls = gr.pieri(cls, 1)
        accumulate(out, ((lam, coef * c) for lam, c in cls.items()))
    return out


def ref_blowup_invariant(spec, alpha, beta, k):
    """Flagship base-ray invariant by Pieri's rule: zero for k >= 2; for
    k = 1 the G(2,5) pairing of the two pushforwards from D."""
    if not is_flagship(spec):
        raise ValueError("blow-up seed geometry is flagship-specific")
    if k < 1:
        raise ValueError("multiplicity must be >= 1")
    if k >= 2:
        return ZERO
    return g25().pair(pushforward_from_divisor(spec, alpha),
                      pushforward_from_divisor(spec, beta))


# The period chain over Fraction: the reference for the integer
# lefschetz.regularized_periods, pf_apply and find_annihilator.

def coefficient_table(atable, spec):
    """c_{a,b} = A_{a,b} / ((a!)^d1 (b!)^d2) from the normalized table."""
    return {(a, b): Fraction(val, factorial(a) ** spec.d1
                             * factorial(b) ** spec.d2)
            for (a, b), val in atable.items()}


def hypergeometric_modify(ctable, spec, bundles, order):
    """The cut's series in t to grade order, graded by -K_Y.(i,j) =
    w1*i + w2*j.

    d_m sums c_{i,j} * product of (u*i + v*j)! over the bundles, over
    every (i, j) of grade m; ctable must hold every index of grade at most
    order, and may hold more.
    """
    w1, w2 = cut_weights(spec, bundles)
    out = [ZERO] * (order + 1)
    for i in range(order // w1 + 1):
        for j in range((order - w1 * i) // w2 + 1):
            out[w1 * i + w2 * j] += ctable[(i, j)] * prod(
                factorial(u * i + v * j) for (u, v) in bundles)
    return out


def mirror_map_correction(series):
    """Multiplier exp(-d_1 t) removing the unit-direction shift of the cut.

    Grade 1 is the whole z-weight -1 stratum; the list has the length of
    the series.
    """
    out = [ONE]
    for m in range(1, len(series)):
        out.append(-out[-1] * series[1] / m)
    return out


def period_sequence(series, multiplier, terms):
    """First `terms` coefficients of the series times the multiplier."""
    if terms < 0:
        raise ValueError("term count must be >= 0")
    order = len(series) - 1
    if terms > order + 1:
        raise ValueError(
            "insufficient truncation: %d terms requested but the "
            "coefficient table reaches total degree %d; recompute with "
            "order >= %d" % (terms, order, terms - 1))
    return [sum((series[k] * multiplier[m - k] for k in range(m + 1)), ZERO)
            for m in range(terms)]


def regularize(seq):
    """m-th term times m!."""
    return [val * factorial(m) for m, val in enumerate(seq)]


def ref_pf_apply(op, seq):
    """Residual of a Fuchsian operator on a sequence, summed over
    Fraction."""
    out = []
    for pos in range(len(seq)):
        acc = ZERO
        for term in op:
            d = pos - term.m
            if d >= 0:
                acc += term.coeff * d ** term.e * seq[d]
        out.append(acc)
    return out


def ref_find_annihilator(seq, max_order, max_degree):
    """The operator search on Fraction rows, each built from the
    sequence as it is."""
    check_search_box(len(seq), max_order, max_degree)
    cols = [(e, m) for e in range(max_order + 1)
            for m in range(max_degree + 1)]
    rows = [[seq[pos - m] * (pos - m) ** e if pos >= m else ZERO
             for e, m in cols] for pos in range(len(seq))]
    basis = nullspace(rows)
    if not basis:
        return None
    if len(basis) > 1:
        raise ValueError("annihilator space is %d-dimensional" % len(basis))
    return pf_normalize([PFTerm(val, m, e)
                         for (e, m), val in zip(cols, basis[0]) if val])


def laurent_period(monomials, terms):
    """[constant term of f^m for m < terms], f the sum of the Laurent
    monomials whose exponent vectors are listed: a Counter over exponent
    vectors, multiplied by f once per term."""
    zero = (0,) * len(monomials[0])
    walk = Counter({zero: 1})
    out = []
    for _ in range(terms):
        out.append(walk[zero])
        step = Counter()
        for e, x in walk.items():
            for m in monomials:
                step[tuple(u + v for u, v in zip(e, m))] += x
        walk = step
    return out


def toric_mirror(n, a):
    """The rays of the fan of P(O + O(a_1) + ... + O(a_(r-1))) over P^n,
    as the exponent vectors of its mirror Laurent polynomial: e_1..e_n,
    f_1..f_(r-1), (-1,...,-1, a) and (0,...,0, -1,...,-1).  A spec with
    chern = -1 0 is a = (1,); one with no Chern coefficient is a = 0."""
    a = tuple(a)
    dim = n + len(a)
    units = [tuple(int(col == row) for col in range(dim))
             for row in range(dim)]
    return units + [(-1,) * n + a, (0,) * n + (-1,) * len(a)]
