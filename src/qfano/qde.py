"""Quantum differential system built on the reconstructed product matrices.

With the divisor prefactor stripped, the flat frame of the system is a
family of square rational matrices F_{a,b}, one per Novikov index, with
F_{0,0} = I.  Differentiating along the base ray gives one Sylvester-type
equation per index,

    a*F_{a,b} + P*F_{a,b} - F_{a,b}*P = sum F_{a-c,b-d} * (q1^c q2^d part of M_p)

with P the classical part of M_p and the sum over (c,d) != (0,0); the
fibre ray gives the analogous equation with b, the classical xi matrix,
and the parts of M_xi.  Both classical matrices raise cohomological
degree and the basis ascends in degree, so each is strictly lower
triangular and nilpotent: each equation is solved by a terminating
commutator iteration, and any block of leading frame rows closes under
it.  One solver works on such a block: j_series solves all rows and
cross-checks them along both rays; identity_series solves the unit row
alone, whose equation has no left product, and follows it to high
order.  Every frame entry carries a single implicit z-power,
deg(row) - deg(col) + a*d1 + b*d2 below zero, so frames store plain
Fractions and the Laurent structure is restored on export.

The J-vector at index (a,b) is the first frame column, component i at
z^-(deg phi_i + a*d1 + b*d2); the identity component gives the
coefficient table c_{a,b}.
"""

from collections import namedtuple
from fractions import Fraction

from qfano import opparse
from qfano.linalg import accumulate

ZERO = Fraction(0)
ONE = Fraction(1)


class FlatnessError(ValueError):
    """The two divisor-ray recursions disagree; the system is not flat."""


class NonIntegralError(ValueError):
    """A factorially normalized coefficient is not an integer."""


def _split_matrix(qmat):
    """Split a QuantumMatrix into its classical part and its q-parts.

    Returns (classical, parts) with classical = {(row, col): Fraction}
    and parts = {(c, d): {(row, col): Fraction}} over (c, d) != (0, 0).
    """
    classical = {}
    parts = {}
    for j in range(qmat.spec.size):
        for i, qp in qmat.column(j).items():
            for (a, b), v in qp.items():
                if (a, b) == (0, 0):
                    classical[(i, j)] = v
                else:
                    parts.setdefault((a, b), {})[(i, j)] = v
    return classical, parts


def _identity_matrix(size):
    return [[ONE if i == j else ZERO for j in range(size)]
            for i in range(size)]


def _first_nonzero(mat):
    for i, row in enumerate(mat):
        for j, x in enumerate(row):
            if x:
                return (i, j)
    return None


def _row_times(row, sparse, out):
    """out += row * sparse for a {(row, col): value} sparse factor."""
    for (k, j), v in sparse.items():
        x = row[k]
        if x:
            out[j] += x * v


def _shift_sum(frames, parts, a, b):
    """sum over q-parts of frame(a-c, b-d) * part, on the rows present."""
    unit = frames[(0, 0)]
    out = [[ZERO] * len(unit[0]) for _ in unit]
    for (c, d), part in parts.items():
        s, t = a - c, b - d
        if s < 0 or t < 0:
            continue
        for row, orow in zip(frames[(s, t)], out):
            _row_times(row, part, orow)
    return out


def _commutator(classical, u):
    """U*C - C*U on a block of leading frame rows.

    C is strictly lower triangular, so row i of C*U only draws on rows
    k < i and the block closes; the left product touches block rows only.
    """
    out = [[ZERO] * len(row) for row in u]
    for row, orow in zip(u, out):
        _row_times(row, classical, orow)
    for (i, k), v in classical.items():
        if i < len(u):
            dst = out[i]
            for j, x in enumerate(u[k]):
                if x:
                    dst[j] -= v * x
    return out


def _sylvester_solve(scale, classical, rhs):
    """Solve scale*U + C*U - U*C = rhs for nilpotent sparse C.

    Neumann iteration: U = sum_k ad_C^k(rhs) / scale^(k+1) with
    ad_C(X) = X*C - C*X; the commutator with a degree-raising matrix is
    nilpotent, so the loop terminates.
    """
    term = [row[:] for row in rhs]
    u = [[ZERO] * len(row) for row in rhs]
    for _ in range(4 * len(u[0])):
        for trow, urow in zip(term, u):
            for j, x in enumerate(trow):
                if x:
                    x /= scale
                    trow[j] = x
                    urow[j] += x
        if _first_nonzero(term) is None:
            return u
        term = _commutator(classical, term)
    raise RuntimeError("commutator iteration failed to terminate")


def _route_residual(scale, classical, u, rhs):
    """scale*U + C*U - U*C - rhs, the defect of the other ray's equation."""
    return [[scale * x - y - h for x, y, h in zip(urow, crow, hrow)]
            for urow, crow, hrow in zip(u, _commutator(classical, u), rhs)]


class JSeries:
    """Flat frames of the quantum differential system up to a total order.

    frames maps (a, b) with a + b <= order to the leading rows of a
    size x size Fraction matrix with the z-grid implicit: all of them
    for j_series, the unit row for identity_series.
    """

    def __init__(self, spec, order, frames, p_classical, xi_classical,
                 p_parts, xi_parts):
        self.spec = spec
        self.order = order
        self.frames = frames
        self.p_classical = p_classical
        self.xi_classical = xi_classical
        self.p_parts = p_parts
        self.xi_parts = xi_parts

    def indices(self):
        return sorted(self.frames)

    def vector(self, a, b):
        """J at Novikov index (a, b): one Laurent dict per basis component."""
        spec = self.spec
        w = a * spec.d1 + b * spec.d2
        frame = self.frames[(a, b)]
        return [({-spec.degree(i) - w: frame[i][0]} if frame[i][0] else {})
                for i in range(spec.size)]

    def identity_coefficient(self, a, b):
        return self.frames[(a, b)][0][0]


def _start(mp, mxi, spec, order, rows):
    """The series before any solve: the unit frame cut to its leading rows."""
    p_classical, p_parts = _split_matrix(mp)
    xi_classical, xi_parts = _split_matrix(mxi)
    unit = _identity_matrix(spec.size)[:rows]
    return JSeries(spec, order, {(0, 0): unit}, p_classical, xi_classical,
                   p_parts, xi_parts)


def _ray(js, a, b, along_p):
    """(scale, classical, rhs) of one divisor-ray equation at index (a, b),
    with the right-hand side built from the frames below (a, b)."""
    if along_p:
        scale, classical, parts = a, js.p_classical, js.p_parts
    else:
        scale, classical, parts = b, js.xi_classical, js.xi_parts
    return scale, classical, _shift_sum(js.frames, parts, a, b)


def _index_defect(js, a, b, u=None):
    """Check the frame at index (a, b) against the divisor-ray equations.

    With u None the frame is first solved along the ray with a positive
    exponent and only the other ray is checked; a given u is checked on
    both.  Returns (u, defect), defect None or ((row, col), residual
    entry) for the first nonzero residual.
    """
    rays = [_ray(js, a, b, True), _ray(js, a, b, False)]
    if u is None:
        u = _sylvester_solve(*rays.pop(0 if a >= 1 else 1))
    for scale, classical, rhs in rays:
        resid = _route_residual(scale, classical, u, rhs)
        bad = _first_nonzero(resid)
        if bad is not None:
            return u, (bad, resid[bad[0]][bad[1]])
    return u, None


def j_series(mp, mxi, spec, order):
    """Solve the system for all frames with a + b <= order.

    Each frame is built from the ray with a positive exponent and
    cross-checked against the other ray; any defect raises
    FlatnessError with the offending index and entry.
    """
    if order < 0:
        raise ValueError("truncation order must be >= 0")
    js = _start(mp, mxi, spec, order, spec.size)
    for total in range(1, order + 1):
        for a in range(total, -1, -1):
            b = total - a
            u, defect = _index_defect(js, a, b)
            if defect is not None:
                (i, j), val = defect
                raise FlatnessError(
                    "flat frame inconsistent at index (%d,%d): cross-ray "
                    "residual %s at entry (%d,%d)"
                    % (a, b, val, i + 1, j + 1))
            js.frames[(a, b)] = u
    return js


def identity_coefficients(js):
    """The table c_{a,b}: identity component of J at its forced z-power."""
    return {key: js.identity_coefficient(*key) for key in js.frames}


def identity_series(mp, mxi, spec, order):
    """The c_{a,b} table to high order: the frame solve on the unit row.

    Row one closes under each ray's equation on its own, so only that
    row is solved, along the ray with a positive exponent.  No cross-ray
    check happens here; j_series covers that on the shared range.
    """
    js = _start(mp, mxi, spec, order, 1)
    for total in range(1, order + 1):
        for a in range(total, -1, -1):
            js.frames[(a, total - a)] = _sylvester_solve(
                *_ray(js, a, total - a, a >= 1))
    return identity_coefficients(js)


def apery_table(ctable, size, spec):
    """Normalize c_{i,j} by (i!)^d1 (j!)^d2; entries must come out integer."""
    from math import factorial

    out = []
    for i in range(size):
        row = []
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
            row.append(int(val))
        out.append(row)
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


def _divisor_action(vec, sparse, shift, size):
    """(classical cup + shift * z) applied to a vector of Laurent dicts."""
    out = [dict() for _ in range(size)]
    for (i, k), v in sparse.items():
        accumulate(out[i], ((e, v * x) for e, x in vec[k].items()))
    if shift:
        for comp, src in zip(out, vec):
            accumulate(comp, ((e + 1, shift * x) for e, x in src.items()))
    return out


def apply_operator(op, js):
    """Apply a parsed operator to the J-series.

    The derivation along ray k acts on the (a, b) coefficient as the
    classical divisor cup plus (index along ray k) * z; q-powers shift
    the source index.  Returns {(a, b): vector of Laurent dicts} over
    every index of the series; each one is exact because operators
    only shift indices downward.
    """
    spec = js.spec
    size = spec.size
    residual = {}
    for (a, b) in js.frames:
        acc = [dict() for _ in range(size)]
        for t in op:
            s, u = a - t.q1, b - t.q2
            if s < 0 or u < 0:
                continue
            vec = js.vector(s, u)
            for _ in range(t.d1):
                vec = _divisor_action(vec, js.p_classical, s, size)
            for _ in range(t.d2):
                vec = _divisor_action(vec, js.xi_classical, u, size)
            for comp, src in zip(acc, vec):
                accumulate(comp, ((e + t.z, t.coeff * x)
                                  for e, x in src.items()))
        residual[(a, b)] = acc
    return residual


def check_operator(op, js):
    """None if the operator annihilates the series at every index,
    else a diagnostic naming the first surviving component."""
    res = apply_operator(op, js)
    for (a, b) in sorted(res):
        for i, comp in enumerate(res[(a, b)]):
            if comp:
                terms = ", ".join("%s*z^%d" % (comp[e], e)
                                  for e in sorted(comp))
                return ("residual nonzero at index (%d,%d), component %d: %s"
                        % (a, b, i + 1, terms))
    return None


def check_flatness(js):
    """Cross-verify every frame against both divisor-ray equations.

    Returns None, or a diagnostic for the first failing index.
    """
    for (a, b) in sorted(js.frames):
        _, defect = _index_defect(js, a, b, js.frames[(a, b)])
        if defect is not None:
            (i, j), val = defect
            return ("index (%d,%d): residual %s at entry (%d,%d)"
                    % (a, b, val, i + 1, j + 1))
    return None


def check_homogeneity(js):
    """Every exported J component must sit at its forced z-exponent.

    Returns None, or a diagnostic for the first violation.
    """
    spec = js.spec
    if js.frames[(0, 0)] != _identity_matrix(spec.size):
        return "frame at index (0,0) is not the identity"
    for (a, b) in sorted(js.frames):
        w = a * spec.d1 + b * spec.d2
        for i, comp in enumerate(js.vector(a, b)):
            if not comp:
                continue
            forced = -spec.degree(i) - w
            if set(comp) != {forced}:
                return ("index (%d,%d) component %d supported at %s, "
                        "expected z^%d"
                        % (a, b, i + 1, sorted(comp), forced))
    return None
