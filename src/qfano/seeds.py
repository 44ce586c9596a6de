"""Seed two-point invariants and the degree <= n p-matrix columns they fix.

The reconstruction needs, for every basis class gamma of degree <= n, the
two-point invariants <gamma, phi_j> in the base directions (k,0) with
k*d1 <= deg(gamma) + 1; by the divisor axiom they fix the p-matrix
column of gamma, and every xi-matrix column follows from its p column
(reconstruct.xi_column_from_p).  These invariants form one finite
SeedTable, read from a seed file by load_seeds or filled by
builtin_source from a closed form in the basis positions (i, j, k) of
<phi_i, phi_j> on k times the base ray, zero for every k >= 2:

  * blowup_invariant  - the flagship: phi_i and phi_j pushed from the
                        exceptional divisor to G(2,5) and paired there
                        (schubert.divisor_pairing);
  * product_invariant - all Chern coefficients zero: on P^n x P^(r-1)
                        the line through two points of P^n.

Both ways pass every entry through the same dimension and symmetry checks.
"""

from qfano import schubert
from qfano.fixtures_io import data_lines, read_lines
from qfano.linalg import col_add_into
from qfano.opparse import parse_number
from qfano.ring import basis_index, divisor_mul, dual_basis


class MissingSeedError(ValueError):
    """A demanded seed invariant is not in the seed table."""


def seed_key(spec, i, j, a):
    """The `(deg,p-power) (deg,p-power) a 0` key of a base-ray invariant."""
    (ai, bi), (aj, bj) = spec.basis[i], spec.basis[j]
    return "(%d,%d) (%d,%d) %d 0" % (ai + bi, ai, aj + bj, aj, a)


def blowup_invariant(spec, i, j, k):
    """Two-point invariant <phi_i, phi_j> of k times the base ray, flagship.

    Zero for k >= 2; for k = 1 the Grassmannian pairing of the two basis
    classes pushed from the exceptional divisor to G(2,5).
    """
    if not schubert.is_flagship(spec):
        raise ValueError("blow-up seed geometry is flagship-specific")
    if k < 1:
        raise ValueError("multiplicity must be >= 1")
    (a, b), (c, d) = spec.basis[i], spec.basis[j]
    return schubert.divisor_pairing(a, b, c, d) if k == 1 else 0


def product_invariant(spec, i, j, k):
    """Base-ray invariant <phi_i, phi_j> for an all-zero-Chern bundle.

    On X = P^n x P^(r-1) the k = 1 invariant counts the line through two
    points of P^n: 1 for p^n xi^b, p^n xi^d with b + d = r - 1, else 0.
    """
    if any(spec.chern):
        raise ValueError("product seed geometry needs all Chern coefficients zero")
    if k < 1:
        raise ValueError("multiplicity must be >= 1")
    (a, b), (c, d) = spec.basis[i], spec.basis[j]
    return int(k == 1 and a == c == spec.n and b + d == spec.r - 1)


class SeedTable:
    """Explicit table of base-direction invariants keyed by basis pairs."""

    def __init__(self, spec):
        self.spec = spec
        self.entries = {}

    def set(self, i, j, a, value):
        """Store an int or Fraction value, as an int when it is integral."""
        spec = self.spec
        if a < 1:
            raise ValueError("curve class must be a positive multiple of the base ray")
        if spec.degree(i) + spec.degree(j) != spec.dim - 1 + a * spec.d1:
            raise ValueError("dimension constraint violated for "
                             + seed_key(spec, i, j, a))
        key = (min(i, j), max(i, j), a)
        old = self.entries.get(key)
        if old is not None and old != value:
            raise ValueError("symmetry violation: conflicting values for "
                             + seed_key(spec, i, j, a))
        self.entries[key] = value.numerator if value.denominator == 1 else value

    def pure_base(self, i, j, k):
        key = (min(i, j), max(i, j), k)
        try:
            return self.entries[key]
        except KeyError:
            raise MissingSeedError("missing seed invariant "
                                   + seed_key(self.spec, i, j, k)) from None


def _parse_pair(tok):
    tok = tok.strip()
    if not (tok.startswith("(") and tok.endswith(")")):
        raise ValueError("expected a (degree,p-power) pair, got %r" % tok)
    d, _, k = tok[1:-1].partition(",")
    return parse_number(d), parse_number(k)


def load_seeds(path, spec):
    """Parse a seed file: lines `(d,k) (d,k) a b value`, # comments."""
    table = SeedTable(spec)
    for lineno, line in data_lines(read_lines(path)):
        try:
            tok = line.split()
            if len(tok) != 5:
                raise ValueError("expected 5 fields, got %d" % len(tok))
            (da, ka) = _parse_pair(tok[0])
            (db, kb) = _parse_pair(tok[1])
            a = parse_number(tok[2])
            b = parse_number(tok[3])
            value = parse_number(tok[4], fraction=True)
            if b != 0:
                raise ValueError(
                    "only base-ray rows (b = 0) are accepted; "
                    "fibre and mixed classes are computed internally")
            table.set(basis_index(spec, da, ka) - 1,
                      basis_index(spec, db, kb) - 1, a, value)
        except ValueError as exc:
            raise ValueError("%s:%d: %s" % (path, lineno, exc)) from None
    return table


def builtin_source(spec):
    """The seed table of the builtin geometry a spec supports, or raise."""
    if schubert.is_flagship(spec):
        invariant = blowup_invariant
    elif not any(spec.chern):
        invariant = product_invariant
    else:
        raise ValueError(
            "no builtin seed source for this spec; provide a seed table")
    table = SeedTable(spec)
    for i, j, k in demanded_invariants(spec):
        table.set(i, j, k, invariant(spec, i, j, k))
    return table


def demanded_invariants(spec):
    """All (i, j, k) base-direction invariants the seed columns consume."""
    by_degree = {}
    for j in range(spec.size):
        by_degree.setdefault(spec.degree(j), []).append(j)
    out = []
    for i in range(spec.size):
        deg = spec.degree(i)
        if deg > spec.n:
            continue
        for k in range(1, (deg + 1) // spec.d1 + 1):
            out += [(i, j, k) for j in
                    by_degree.get(spec.dim - 1 + k * spec.d1 - deg, ())]
    return out


def seed_columns(spec, table):
    """The p-matrix column of every degree <= n class.

    Returns a map column index -> {row: {(a,b): value}}, each value an
    int where it is integral: the classical product plus, for each
    nonzero base-ray invariant <gamma, phi_j> of k times the ray, k times
    its value times q1^k times the dual class phi^j.
    Raises MissingSeedError when the table lacks a demanded invariant and
    ValueError when a mixed curve class passes the dimension filter (outside
    the reconstruction's scope).
    """
    # mixed classes must not pass the dimension filter for degree <= n columns
    if spec.d1 + spec.d2 <= spec.n + 1:
        raise ValueError(
            "mixed curve class (1,1) passes the dimension filter; "
            "its seeds are outside the reconstruction's scope")
    dual = [{row: {(0, 0): c} for row, c in phi.items()}
            for phi in dual_basis(spec)]
    cols = {i: {row: {(0, 0): c}
                for row, c in divisor_mul(spec, "p", a, b).items()}
            for i, (a, b) in enumerate(spec.basis) if a + b <= spec.n}
    for i, j, k in demanded_invariants(spec):
        value = table.pure_base(i, j, k)
        if value:
            col_add_into(cols[i], dual[j], k * value, (k, 0))
    return cols


def dump_seed_lines(spec, table):
    """Serialize every demanded base-direction invariant in the file grammar."""
    lines = ["# seed invariants: (deg,p-power) (deg,p-power) a b value"]
    for (i, j, k) in demanded_invariants(spec):
        if i <= j:
            lines.append("%s %s" % (seed_key(spec, i, j, k),
                                    table.pure_base(i, j, k)))
    return lines
