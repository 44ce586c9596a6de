"""Period pipeline: from the identity coefficient table to an annihilating
Fuchsian operator.

Cutting the ambient space by nef line bundles rho = u*p + v*xi multiplies
the identity coefficient c_{i,j} by (u*i + v*j)! per bundle.  The quantum
period of the cut Y is one series in t graded by -K_Y.(i,j) = w1*i + w2*j,
with w1 = d1 - sum(u) and w2 = d2 - sum(v); the term then sits at z-weight
-(w1*i + w2*j).  A cut with w1 < 1 or w2 < 1 would put nonzero classes at
z-weight >= 0 and shift the dilaton slot, which this pipeline refuses.
Otherwise grade 1 is exactly the z-weight -1 stratum, whose negated
exponential is the mirror reparametrization; multiplying the series
sum d_m t^m by exp(-d_1 t) gives the period sequence, and the regularized
sequence (m-th term times m!), the one an operator in D = t d/dt
annihilates, is the binomial convolution r_m = sum_k C(m,k) E_k
(-E_1)^(m-k) of E_m = m! d_m, run by the Pascal rule with one multiply
by E_1 per step.  On the Apery-normalized table of qde.identity_series,
E_m sums integers times multinomial coefficients, so the whole chain
runs on integers; a unit-ray bundle p or xi multiplies by 1 and costs
nothing.

Operators are lists of terms coeff * t^m * D^e.  Applied to a sequence,
the term sends position d to coeff * d^e at position d + m, so every
position of a truncated sequence is certified: later coefficients of the
true series can only land beyond the truncation.  find_annihilator sets
up the exact linear system over all certified positions and returns the
primitive integer generator of a one-dimensional kernel.
"""

from collections import namedtuple
from fractions import Fraction
from itertools import count
from math import gcd

from qfano import opparse
from qfano.fixtures_io import data_lines
from qfano.linalg import accumulate, common_denominator, nullspace


def parse_cut(text):
    """Parse a cut like "p,xi^5" into line-bundle pairs (u, v).

    Each comma-separated factor is p or xi with an optional caret count
    of repeated bundles; "p,xi^5" gives one (1,0) and five (0,1).  An
    empty or blank cut is no cut: Y = X.
    """
    if not text.strip():
        return []
    bundles = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            raise ValueError("empty cut factor in %r" % text)
        coeff, pw = opparse.parse_term(item, ("p", "xi"))
        if coeff != 1 or (pw["p"] and pw["xi"]):
            raise ValueError("cut factor %r must be p^k or xi^k" % item)
        bundles += [(1, 0)] * pw["p"] + [(0, 1)] * pw["xi"]
    return bundles


def cut_weights(spec, bundles):
    """The grading (w1, w2) = -K_Y of the cut, refusing a bundle that is
    not nef and a cut that is not positive on both rays."""
    for (u, v) in bundles:
        if u < 0 or v < 0:
            raise ValueError("bundle (%d,%d) is not nef" % (u, v))
    w1 = spec.d1 - sum(u for u, _ in bundles)
    w2 = spec.d2 - sum(v for _, v in bundles)
    if w1 < 1 or w2 < 1:
        raise ValueError(
            "non-trivial dilaton shift: unsupported (the cut gives "
            "-K_Y = (%d,%d), which must be positive on both rays)"
            % (w1, w2))
    return w1, w2


def regularized_periods(atable, spec, bundles, terms):
    """The first `terms` regularized periods r_m of the cut, from the
    table A_{i,j} = (i!)^d1 (j!)^d2 c_{i,j} at every grade below terms.

    E_m sums A_{i,j} m!/((i!)^w1 (j!)^w2) times (u*i + v*j)!/((i!)^u
    (j!)^v) per bundle over the grade m; the unit-ray bundles (1,0),
    (0,1) and the trivial (0,0) have factor 1 and are skipped.  Numerators
    over the lcm L of the table's denominators give E'_m = L*E_m, and
    r_m = sum_k C(m,k) E'_k L^k (-E'_1)^(m-k) / L^(m+1), a Fraction
    unless L = 1.  The binomial sum runs by the Pascal rule: from
    row[k] = E'_k L^k, each step row[k] <- row[k+1] - E'_1 row[k] leaves
    the numerator of r_m in row[0] after m steps.
    """
    w1, w2 = cut_weights(spec, bundles)
    if terms < 0:
        raise ValueError("term count must be >= 0")
    top = terms - 1
    keys = [(i, j) for i in range(top // w1 + 1)
            for j in range((top - w1 * i) // w2 + 1)]
    nums, den = common_denominator([atable[key] for key in keys])
    bundles = [(u, v) for u, v in bundles if u + v > 1]
    fact = [1]  # up to top, and u*i + v*j <= max(u, v)*top per bundle
    for k in range(1, max([1] + [max(b) for b in bundles]) * top + 1):
        fact.append(fact[-1] * k)
    series = [0] * terms
    for (i, j), x in zip(keys, nums):
        if x:
            m = w1 * i + w2 * j
            x *= fact[m] // (fact[i] ** w1 * fact[j] ** w2)
            for u, v in bundles:
                x *= fact[u * i + v * j] // (fact[i] ** u * fact[j] ** v)
            series[m] += x
    row = [x * den ** k for k, x in enumerate(series)]
    e1 = series[1] if terms > 1 else 0
    out = []
    for m in range(terms):
        out.append(row[0])
        for k in range(terms - m - 1):
            row[k] = row[k + 1] - e1 * row[k]
    return out if den == 1 else [Fraction(x, den ** (m + 1))
                                 for m, x in enumerate(out)]


PFTerm = namedtuple("PFTerm", "coeff m e")  # coeff * t^m * D^e


def parse_pf_operator(text):
    """Parse an operator in t and D = t d/dt; duplicates merge."""
    terms = {}
    for chunk in opparse.split_terms(text):
        coeff, pw = opparse.parse_term(chunk, ("t", "D"))
        accumulate(terms, [((pw["t"], pw["D"]), coeff)])
    return [PFTerm(terms[(m, e)], m, e)
            for (m, e) in sorted(terms, key=lambda k: (-k[1], k[0]))]


def operator_from_lines(lines, where="<lines>"):
    """Parse an operator from text lines with # comments; errors start
    with `where:`."""
    try:
        return parse_pf_operator(
            " ".join(text for _, text in data_lines(lines)))
    except ValueError as exc:
        raise ValueError("%s: %s" % (where, exc)) from None


def format_pf_operator(op):
    """Canonical text form: highest D-power first, then by t-power."""
    parts = []
    for term in sorted(op, key=lambda t: (-t.e, t.m)):
        atoms = []
        if abs(term.coeff) != 1 or (term.m == 0 and term.e == 0):
            atoms.append(str(abs(term.coeff)))
        if term.m:
            atoms.append("t" if term.m == 1 else "t^%d" % term.m)
        if term.e:
            atoms.append("D" if term.e == 1 else "D^%d" % term.e)
        body = "*".join(atoms) or "1"
        parts.append(("- " if term.coeff < 0 else ("+ " if parts else ""))
                     + body)
    return " ".join(parts) if parts else "0"


def pf_apply(op, seq):
    """Residual of the operator on a truncated sequence, position-exact,
    summed on integers over one common denominator: an int where the
    residual is integral, a Fraction only where a denominator remains.
    The terms group by t-power m; each group's D-polynomial is evaluated
    once at k = pos - m and multiplies ints[k] once."""
    coeffs, cden = common_denominator([term.coeff for term in op])
    ints, den = common_denominator(seq)
    groups = {}
    for c, t in zip(coeffs, op):
        groups.setdefault(t.m, []).append((c, t.e))
    sums = [sum(ints[pos - m] * sum(c * (pos - m) ** e for c, e in poly)
                for m, poly in groups.items() if pos >= m)
            for pos in range(len(seq))]
    q = den * cden
    return [x // q if x % q == 0 else Fraction(x, q) for x in sums]


def pf_first_position(op):
    """The least position d whose residual reads the sequence: some t-power
    m <= d has its terms sum coeff * (d - m)^e to nonzero.  Before it, 0
    always.  A t-power's k terms vanish at no more than k points x >= 0."""
    return min(m + next(x for x in count()
                        if sum(t.coeff * x ** t.e for t in op if t.m == m))
               for m in {t.m for t in op})


def pf_normalize(op):
    """Scale to primitive integer coefficients with the lowest t-term of
    the highest D-power positive."""
    op = sorted(op, key=lambda t: (-t.e, t.m))
    ints = common_denominator([term.coeff for term in op])[0]
    g = gcd(*ints) if ints and ints[0] > 0 else -gcd(*ints)
    return [PFTerm(x // g, term.m, term.e)
            for x, term in zip(ints, op)]


def check_search_box(terms, max_order, max_degree):
    """Refuse a search box with a negative bound, or one that a sequence
    of `terms` terms cannot overdetermine."""
    for name, bound in (("order", max_order), ("degree", max_degree)):
        if bound < 0:
            raise ValueError("operator %s bound must be >= 0, got %d"
                             % (name, bound))
    unknowns = (max_order + 1) * (max_degree + 1)
    if terms <= unknowns:
        raise ValueError(
            "sequence of length %d cannot overdetermine %d operator "
            "coefficients; need more than %d terms"
            % (terms, unknowns, unknowns))


def find_annihilator(seq, max_order, max_degree):
    """Search for one operator of D-order and t-degree at most the bounds.

    Solves the exact linear system over every certified position of the
    sequence times the lcm of its denominators, on integer rows; the
    scaling leaves the kernel unchanged.  Returns the primitive
    normalized generator of a one-dimensional kernel, None for an empty
    kernel, and raises when check_search_box refuses the box or the
    kernel has dimension above one.
    """
    check_search_box(len(seq), max_order, max_degree)
    cols = [(e, m) for e in range(max_order + 1)
            for m in range(max_degree + 1)]
    ints = common_denominator(seq)[0]
    powers = [ints]  # powers[e][k] = ints[k] * k^e
    for _ in range(max_order):
        powers.append([x * k for k, x in enumerate(powers[-1])])
    rows = [[powers[e][pos - m] if pos >= m else 0 for e, m in cols]
            for pos in range(len(seq))]
    basis = nullspace(rows)
    if not basis:
        return None
    if len(basis) > 1:
        raise ValueError(
            "annihilator space is %d-dimensional at order %d, degree %d; "
            "the sequence does not pin one operator"
            % (len(basis), max_order, max_degree))
    op = [PFTerm(val, m, e)
          for (e, m), val in zip(cols, basis[0]) if val]
    return pf_normalize(op)
