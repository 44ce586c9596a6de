"""Classical cohomology ring of X = P(E) for a bundle E -> P^n.

H*(X) = Q[p, xi] / (p^(n+1), xi^r + c_1 p xi^(r-1) + ... + c_r p^r)
with p the hyperplane pullback and xi the relative hyperplane class
(subspace convention).  A class is a sparse map {position: value} over
the monomial basis p^k xi^(d-k), ordered by total degree ascending and
then p-power descending; it stores no zero, and a value is an int where
it is integral and a Fraction only where a denominator exists.  Divisor
products and the dual basis are closed forms in the Chern integers, so
their values are ints.
"""

from qfano.fixtures_io import data_lines, read_lines
from qfano.opparse import parse_number


class BundleSpec:
    """Validated bundle data: base dimension n, rank r, Chern integers.

    Derived fields: Novikov degrees d1 = n+1+c1 (base ray) and d2 = r
    (fibre ray), dim = n+r-1, and the ordered monomial basis.
    """

    def __init__(self, n, r, chern):
        self.n = n
        self.r = r
        self.chern = tuple(chern)  # length r, c_1..c_r
        self.d1 = n + 1 + self.chern[0]
        self.d2 = r
        self.dim = n + r - 1
        self.basis = tuple(
            (k, d - k)
            for d in range(self.dim + 1)
            for k in range(min(d, n), max(0, d - r + 1) - 1, -1)
        )
        self.size = len(self.basis)
        self._pos = {mono: i for i, mono in enumerate(self.basis)}

    def degree(self, i):
        """Total degree of basis element i (0-based)."""
        a, b = self.basis[i]
        return a + b

    def position(self, a, b):
        """0-based basis position of the monomial p^a xi^b."""
        return self._pos[(a, b)]

    def __repr__(self):
        return "BundleSpec(n=%d, r=%d, chern=%s)" % (self.n, self.r, list(self.chern))


def bundle_key(n, r, chern=()):
    """(n, r, Chern tuple padded with zeros to length r): the data that
    identify a bundle, as a BundleSpec holds them."""
    return n, r, tuple(chern) + (0,) * (r - len(chern))


def make_bundle(n, r, chern=()):
    """Build and validate a BundleSpec; missing Chern entries are zero."""
    if n < 1:
        raise ValueError("base dimension must satisfy n >= 1")
    if r < 2:
        raise ValueError("rank must satisfy r >= 2")
    chern = tuple(chern)
    if len(chern) > r:
        raise ValueError("got %d Chern coefficients for rank %d" % (len(chern), r))
    chern = bundle_key(n, r, chern)[2]
    c1 = chern[0]
    if r + 1 + c1 <= 0:
        raise ValueError(
            "assumption violated: r + 1 + c_1 = %d <= 0" % (r + 1 + c1))
    if n + 1 + c1 <= 0:
        raise ValueError(
            "positivity violated: n + 1 + c_1 = %d <= 0" % (n + 1 + c1))
    return BundleSpec(n, r, chern)


def load_bundle_config(path):
    """Read a bundle spec from a flat key-value file (keys n, r, chern)."""
    data = {}
    for lineno, line in data_lines(read_lines(path)):
        if "=" not in line:
            raise ValueError("%s:%d: expected 'key = value'" % (path, lineno))
        key, _, val = (part.strip() for part in line.partition("="))
        if key not in ("n", "r", "chern"):
            raise ValueError("%s:%d: unknown key %r; expected n, r or chern"
                             % (path, lineno, key))
        if key in data:
            raise ValueError("%s:%d: duplicate key %r" % (path, lineno, key))
        toks = val.replace(",", " ").split() if key == "chern" else [val]
        try:
            data[key] = [parse_number(tok) for tok in toks]
        except ValueError:
            raise ValueError(
                "%s:%d: %s must be %s, got %r"
                % (path, lineno, key,
                   "integers" if key == "chern" else "an integer", val)
            ) from None
    missing = [k for k in ("n", "r") if k not in data]
    if missing:
        raise ValueError("%s: missing keys: %s" % (path, ", ".join(missing)))
    try:
        return make_bundle(data["n"][0], data["r"][0], data.get("chern", []))
    except ValueError as exc:
        raise ValueError("%s: %s" % (path, exc)) from None


def basis_index(spec, d, k):
    """1-based basis position of p^k xi^(d-k)."""
    if not (0 <= k <= min(d, spec.n)) or d - k > spec.r - 1:
        raise ValueError("no basis monomial with degree %d and p-power %d" % (d, k))
    return spec.position(k, d - k) + 1


def divisor_mul(spec, label, a, b):
    """Cup product of the divisor p or xi (label) with p^a xi^b.

    Returns {position: int}.  p^(a+1) xi^b vanishes when a = n, and
    p^a xi^r = -(c_1 p^(a+1) xi^(r-1) + ... + c_r p^(a+r)), dropping the
    terms past p^n; every other product is a basis monomial.
    """
    if label == "p":
        a += 1
    else:
        b += 1
    if a > spec.n:
        return {}
    if b < spec.r:
        return {spec.position(a, b): 1}
    return {spec.position(a + i, b - i): -c
            for i, c in enumerate(spec.chern, 1) if c and a + i <= spec.n}


def dual_basis(spec):
    """Row i is the Poincare dual phi^i as a class.

    By the projection formula and c(E) s(E) = 1, the dual of p^a xi^b is
    sum_(i=0)^min(a, r-1-b) c_i p^(n-a+i) xi^(r-1-b-i), with c_0 = 1.
    """
    chern = (1,) + spec.chern
    return [{spec.position(spec.n - a + i, spec.r - 1 - b - i): c
             for i, c in enumerate(chern[:min(a, spec.r - 1 - b) + 1]) if c}
            for a, b in spec.basis]
