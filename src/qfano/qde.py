"""Quantum differential system built on the reconstructed product matrices.

With the divisor prefactor stripped, the flat frame of the system is a
family of square rational matrices F_{a,b}, one per Novikov index, with
F_{0,0} = I.  Differentiating along the base ray gives one Sylvester-type
equation per index,

    a*F_{a,b} + P*F_{a,b} - F_{a,b}*P = sum F_{a-c,b-d} * (q1^c q2^d part of M_p)

with P the classical part of M_p and the sum over (c,d) != (0,0); the
fibre ray gives the analogous equation with b, the classical xi matrix,
and the parts of M_xi.  Both classical matrices are nilpotent (they raise
cohomological degree), so each equation is solved by a terminating
commutator iteration.  Every frame entry carries a single implicit
z-power, deg(row) - deg(col) + a*d1 + b*d2 below zero, so frames store
plain Fractions and the Laurent structure is restored on export.

The J-vector at index (a,b) is the first frame column, component i at
z^-(deg phi_i + a*d1 + b*d2); the identity component gives the
coefficient table c_{a,b}.  The unit row of both classical divisor
matrices vanishes, so the first frame row closes under a recursion of
its own; identity_series follows it to high order without frames.
"""

from collections import namedtuple
from fractions import Fraction

from qfano import opparse

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


def _zero_matrix(size):
    return [[ZERO] * size for _ in range(size)]


def _identity_matrix(size):
    out = _zero_matrix(size)
    for i in range(size):
        out[i][i] = ONE
    return out


def _first_nonzero(mat):
    for i, row in enumerate(mat):
        for j, x in enumerate(row):
            if x:
                return (i, j)
    return None


def _add_into(dst, src):
    for drow, srow in zip(dst, src):
        for j, x in enumerate(srow):
            if x:
                drow[j] += x


def _left_mul(sparse, mat, size):
    """sparse * mat for a {(row, col): value} sparse factor."""
    out = _zero_matrix(size)
    for (i, k), v in sparse.items():
        src = mat[k]
        dst = out[i]
        for j, x in enumerate(src):
            if x:
                dst[j] += v * x
    return out


def _right_mul(mat, sparse, size):
    """mat * sparse for a {(row, col): value} sparse factor."""
    out = _zero_matrix(size)
    for (k, j), v in sparse.items():
        for i in range(size):
            x = mat[i][k]
            if x:
                out[i][j] += v * x
    return out


def _shift_sum(frames, parts, a, b, size):
    """sum over q-parts of frame(a-c, b-d) * part."""
    out = _zero_matrix(size)
    for (c, d), part in parts.items():
        s, t = a - c, b - d
        if s < 0 or t < 0:
            continue
        _add_into(out, _right_mul(frames[(s, t)], part, size))
    return out


def _sylvester_solve(scale, classical, rhs, size):
    """Solve scale*U + C*U - U*C = rhs for nilpotent sparse C.

    Neumann iteration: U = sum_k (-1)^k ad_C^k(rhs) / scale^(k+1); the
    commutator with a degree-raising matrix is nilpotent, so the loop
    terminates.
    """
    u = _zero_matrix(size)
    term = [[x / scale for x in row] for row in rhs]
    guard = 0
    while _first_nonzero(term) is not None:
        _add_into(u, term)
        nxt = _left_mul(classical, term, size)
        rgt = _right_mul(term, classical, size)
        term = [[(y - x) / scale for x, y in zip(nrow, rrow)]
                for nrow, rrow in zip(nxt, rgt)]
        guard += 1
        if guard > 4 * size:
            raise RuntimeError("commutator iteration failed to terminate")
    return u


def _route_residual(scale, classical, u, rhs, size):
    """scale*U + C*U - U*C - rhs, the defect of the other ray's equation."""
    out = _left_mul(classical, u, size)
    rgt = _right_mul(u, classical, size)
    return [[scale * x + l - r - h
             for x, l, r, h in zip(urow, lrow, rrow, hrow)]
            for urow, lrow, rrow, hrow in zip(u, out, rgt, rhs)]


class JSeries:
    """Flat frames of the quantum differential system up to a total order.

    frames maps (a, b) with a + b <= order to a size x size Fraction
    matrix with the z-grid implicit.
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


def _index_defect(js, a, b, u=None):
    """Check the frame at index (a, b) against the divisor-ray equations.

    Both right-hand sides are built from the frames below (a, b).  With u
    None the frame is first solved along the ray with a positive exponent
    and only the other ray is checked; a given u is checked on both.
    Returns (u, defect), defect None or ((row, col), residual entry) for
    the first nonzero residual.
    """
    size = js.spec.size
    rays = [(a, js.p_classical, _shift_sum(js.frames, js.p_parts, a, b, size)),
            (b, js.xi_classical,
             _shift_sum(js.frames, js.xi_parts, a, b, size))]
    if u is None:
        u = _sylvester_solve(*rays.pop(0 if a >= 1 else 1), size)
    for scale, classical, rhs in rays:
        resid = _route_residual(scale, classical, u, rhs, size)
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
    p_classical, p_parts = _split_matrix(mp)
    xi_classical, xi_parts = _split_matrix(mxi)
    js = JSeries(spec, order, {(0, 0): _identity_matrix(spec.size)},
                 p_classical, xi_classical, p_parts, xi_parts)
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
    """The c_{a,b} table to high order via the first-row recursion.

    The unit rows of the classical divisor matrices vanish, so row one
    of each frame satisfies scale*u - u*C = rho with rho driven by the
    rows below it; u = rho * sum_k C^k / scale^(k+1).  No frames are
    built, so no cross-ray check happens here; j_series covers that on
    the shared range.
    """
    size = spec.size
    p_classical, p_parts = _split_matrix(mp)
    xi_classical, xi_parts = _split_matrix(mxi)
    unit = [ZERO] * size
    unit[0] = ONE
    rows = {(0, 0): unit}
    for total in range(1, order + 1):
        for a in range(total, -1, -1):
            b = total - a
            if a >= 1:
                scale, classical, parts = a, p_classical, p_parts
            else:
                scale, classical, parts = b, xi_classical, xi_parts
            rho = [ZERO] * size
            for (c, d), part in parts.items():
                s, t = a - c, b - d
                if s < 0 or t < 0:
                    continue
                src = rows[(s, t)]
                for (i, j), v in part.items():
                    x = src[i]
                    if x:
                        rho[j] += x * v
            u = [ZERO] * size
            term = [x / scale for x in rho]
            guard = 0
            while any(term):
                for j, x in enumerate(term):
                    if x:
                        u[j] += x
                nxt = [ZERO] * size
                for (i, j), v in classical.items():
                    x = term[i]
                    if x:
                        nxt[j] += x * v
                term = [x / scale for x in nxt]
                guard += 1
                if guard > 2 * size:
                    raise RuntimeError("divisor iteration failed to terminate")
            rows[(a, b)] = u
    return {key: row[0] for key, row in rows.items()}


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
        comp = out[i]
        for e, x in vec[k].items():
            val = comp.get(e, ZERO) + v * x
            if val:
                comp[e] = val
            elif e in comp:
                del comp[e]
    if shift:
        for i in range(size):
            comp = out[i]
            for e, x in vec[i].items():
                val = comp.get(e + 1, ZERO) + shift * x
                if val:
                    comp[e + 1] = val
                elif e + 1 in comp:
                    del comp[e + 1]
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
            for i in range(size):
                comp = acc[i]
                for e, x in vec[i].items():
                    key = e + t.z
                    val = comp.get(key, ZERO) + t.coeff * x
                    if val:
                        comp[key] = val
                    elif key in comp:
                        del comp[key]
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
