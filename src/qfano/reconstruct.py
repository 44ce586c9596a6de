"""Reconstruction of the divisor quantum multiplication matrices.

Entries are polynomials in the two curve-class parameters q1 (base ray)
and q2 (fibre ray), stored as {(a, b): value} maps, a value being an
int where it is integral and a Fraction only where a denominator exists.
Column j of a matrix encodes divisor * phi_j in the monomial basis.  The
p-matrix columns of degree <= n are the seed columns; the two matrices
are then filled column by column in basis order:

  * p-direction: p * (xi * v) = xi * (p * v) rewrites each p column of
    degree > n in terms of strictly earlier ones, provided the p-power
    descends within each degree so the one same-degree column needed has
    already been done (or is killed by p^(n+1) = 0);
  * xi-direction: every xi column follows from its p column.  The
    divisor axiom fixes every q1^a q2^b term with a >= 1 as b/a times the
    matching p-entry, the classical part is ring multiplication, and the
    only pure-q2 term is the fibre-line insertion at the p^k row when the
    column monomial is p^k xi^(r-1).
"""

from fractions import Fraction
from math import lcm

from qfano import seeds as seeds_mod
from qfano.fixtures_io import data_lines
from qfano.linalg import col_add_into
from qfano.opparse import parse_number
from qfano.ring import divisor_mul, dual_basis


class QuantumMatrix:
    """Square matrix of q-polynomials; label 'p' or 'xi' picks the purity rule."""

    def __init__(self, spec, label):
        if label not in ("p", "xi"):
            raise ValueError("label must be 'p' or 'xi'")
        self.spec = spec
        self.label = label
        self.cols = [None] * spec.size
        self._lift = None

    def set_column(self, j, col):
        """Store col as given: callers pass no zero term and no empty row."""
        spec = self.spec
        dcol = spec.degree(j)
        for row, qp in col.items():
            for (a, b) in qp:
                if spec.degree(row) != dcol + 1 - a * spec.d1 - b * spec.d2:
                    raise ValueError(
                        "grading violated at entry (%d,%d) term q1^%d q2^%d"
                        % (row + 1, j + 1, a, b))
                if self.label == "p" and a == 0 and b >= 1:
                    raise ValueError(
                        "pure-q2 term in the p matrix at (%d,%d)"
                        % (row + 1, j + 1))
                if self.label == "xi" and a >= 1 and b == 0:
                    raise ValueError(
                        "pure-q1 term in the xi matrix at (%d,%d)"
                        % (row + 1, j + 1))
        self.cols[j] = col
        self._lift = None

    def column(self, j):
        if self.cols[j] is None:
            raise AssertionError("column %d read before being filled" % (j + 1))
        return self.cols[j]

    def entry(self, i, j):
        return self.column(j).get(i, {})

    def lift(self):
        """The one integer form of the matrix, (columns, den): columns[j]
        lists (i, c, d, int) for the q1^c q2^d term int/den of entry (i,
        j), den being the lcm of every term's denominator.  It is built
        once and kept until set_column changes a column, so every reader
        shares it and none may change it."""
        if self._lift is None:
            columns = [self.column(j).items() for j in range(self.spec.size)]
            den = lcm(*(v.denominator for col in columns for _, qp in col
                        for v in qp.values()))
            self._lift = [[(i, c, d, v.numerator * (den // v.denominator))
                           for i, qp in col for (c, d), v in qp.items()]
                          for col in columns], den
        return self._lift

    def apply(self, vec):
        """Matrix times a column vector {row: QPoly} over the q-polynomials."""
        out = {}
        for j, qp_in in vec.items():
            for shift, v in qp_in.items():
                col_add_into(out, self.column(j), v, shift)
        return out

    def triplet_lines(self):
        """Sparse export: `row col a b value`, 1-based indices, sorted by
        (row, col, a, b)."""
        return ["%d %d %d %d %s" % entry for entry in sorted(
            (row + 1, j + 1, a, b, v)
            for j in range(self.spec.size)
            for row, qp in self.column(j).items()
            for (a, b), v in qp.items())]

    @classmethod
    def from_triplet_lines(cls, spec, label, lines):
        cols = [{} for _ in range(spec.size)]
        for lineno, line in data_lines(lines):
            tok = line.split()
            try:
                if len(tok) != 5:
                    raise ValueError("expected 5 fields")
                row, col, a, b = (parse_number(t) for t in tok[:4])
                value = parse_number(tok[4], fraction=True)
            except ValueError as exc:
                raise ValueError("triplet line %d: %s"
                                 % (lineno, exc)) from None
            col_add_into(cols[col - 1], {row - 1: {(a, b): value}})
        out = cls(spec, label)
        for j, col in enumerate(cols):
            out.set_column(j, col)
        return out

    def entry_string(self, i, j):
        qp = self.entry(i, j)
        if not qp:
            return "0"
        parts = []
        for (a, b) in sorted(qp):
            v = qp[(a, b)]
            atoms = []
            if abs(v) != 1 or (a, b) == (0, 0):
                atoms.append(str(abs(v)))
            if a:
                atoms.append("q1" if a == 1 else "q1^%d" % a)
            if b:
                atoms.append("q2" if b == 1 else "q2^%d" % b)
            term = "*".join(atoms)
            parts.append(("-" if v < 0 else ("+" if parts else "")) + term)
        return "".join(parts)

    def dense_lines(self):
        """CSV grid of entry strings, one line per row."""
        size = self.spec.size
        return [",".join(self.entry_string(i, j) for j in range(size))
                for i in range(size)]

    def first_mismatch(self, other):
        for j in range(self.spec.size):
            for i in range(self.spec.size):
                if self.entry(i, j) != other.entry(i, j):
                    return (i, j)
        return None

    def __eq__(self, other):
        return (isinstance(other, QuantumMatrix)
                and self.label == other.label
                and self.cols == other.cols)

    __hash__ = None


def p_lemma_step(mp, mxi, spec, d, k):
    """Fill the p-matrix column of p^k xi^(d-k) from lower columns."""
    target = spec.position(k, d - k)
    prev = spec.position(k, d - 1 - k)
    # w = xi * prev - target: the classical term cancels the target row,
    # so p * w reads only filled columns
    w = col_add_into({target: {(0, 0): -1}}, mxi.column(prev))
    col = col_add_into(mxi.apply(mp.column(prev)), mp.apply(w), -1)
    mp.set_column(target, col)


def xi_column_from_p(spec, p_col, k, b0):
    """The xi-matrix column of p^k xi^b0 implied by the p-matrix column."""
    col = {row: {(0, 0): c}
           for row, c in divisor_mul(spec, "xi", k, b0).items()}
    # the three kinds of terms sit at disjoint q-powers: (0, 0), (0, 1)
    # and a, b >= 1
    if b0 == spec.r - 1:
        col.setdefault(spec.position(k, 0), {})[(0, 1)] = 1
    for row, qp in p_col.items():
        for (a, b), v in qp.items():
            if a >= 1 and b >= 1:
                v *= b
                col.setdefault(row, {})[(a, b)] = (
                    v // a if v % a == 0 else Fraction(v, a))
    return col


def reconstruct(spec, source):
    """Both divisor matrices, from the seed columns of a SeedTable up to
    the top degree."""
    mp = QuantumMatrix(spec, "p")
    mxi = QuantumMatrix(spec, "xi")
    for j, col in seeds_mod.seed_columns(spec, source).items():
        mp.set_column(j, col)
    for j, (k, b) in enumerate(spec.basis):
        if k + b > spec.n:
            p_lemma_step(mp, mxi, spec, k + b, k)
        mxi.set_column(j, xi_column_from_p(spec, mp.column(j), k, b))
    return mp, mxi


def _column_product(columns, col):
    """The lifted column `columns * col` as {(i, c, d): int} with no zero,
    for two lifts: the q-powers of the terms add."""
    out = {}
    for k, c, d, v in col:
        for i, c2, d2, u in columns[k]:
            key = i, c + c2, d + d2
            out[key] = out.get(key, 0) + u * v
    return {key: x for key, x in out.items() if x}


def flatness_defect(mp, mxi):
    """None if nabla_k = z q_k d/dq_k + M_k is flat, else its first defect.

    Flatness is [M_p, M_xi] = 0, checked column by column, and q1 d/dq1
    M_xi = q2 d/dq2 M_p, checked term by term: a*M_xi[(a, b)] =
    b*M_p[(a, b)] at each entry, columns first.  Both halves read the
    lifts M_p = P/dp and M_xi = X/dx: the commutator compares the integer
    columns of P*X and X*P, the derivative half a*x*dp with b*p*dx.
    """
    (pcols, dp), (xcols, dx) = mp.lift(), mxi.lift()
    for j, (pcol, xcol) in enumerate(zip(pcols, xcols)):
        if _column_product(pcols, xcol) != _column_product(xcols, pcol):
            return "commutativity check fails at column %d" % (j + 1)
    for j, (pcol, xcol) in enumerate(zip(pcols, xcols)):
        p = {(i, a, b): v for i, a, b, v in pcol}
        xi = {(i, a, b): v for i, a, b, v in xcol}
        for i, a, b in sorted(p.keys() | xi.keys()):
            if a * xi.get((i, a, b), 0) * dp != b * p.get((i, a, b), 0) * dx:
                return ("q1 d/dq1 M_xi != q2 d/dq2 M_p at entry (%d,%d), "
                        "term q1^%d q2^%d" % (i + 1, j + 1, a, b))
    return None


def check_three_point_symmetry(mat):
    """First (i, j), i < j, where <M phi^j, phi^i> != <M phi^i, phi^j>.

    Column j of M D, with D the dual basis, is M phi^j, so its entry i
    is <M phi^j, phi^i>.  D is the inverse of the symmetric Gram matrix
    G and M D = D (G M) D, so M D is symmetric exactly when G M is.
    """
    size = mat.spec.size
    md_cols = [mat.apply({k: {(0, 0): c} for k, c in phi.items()})
               for phi in dual_basis(mat.spec)]
    for i in range(size):
        for j in range(i + 1, size):
            if md_cols[j].get(i, {}) != md_cols[i].get(j, {}):
                return (i, j)
    return None
