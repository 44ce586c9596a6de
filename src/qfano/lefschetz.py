"""Period pipeline: from the identity coefficient table to an annihilating
Fuchsian operator.

Cutting the ambient space by nef line bundles rho = u*p + v*xi multiplies
the identity coefficient c_{i,j} by (u*i + v*j)! per bundle and moves the
term to z-weight w(i,j) = sum(rho . (i,j)) - i*d1 - j*d2.  Terms at
w = -1 feed the exponential reparametrization along the unit direction;
terms at w >= 0 besides the constant would shift the dilaton slot, which
this pipeline refuses.  Collapsing both Novikov variables to t and
multiplying by the reparametrization gives the period sequence; the
regularized sequence (m-th term times m!) is the one an operator in
D = t d/dt annihilates.

Operators are lists of terms coeff * t^m * D^e.  Applied to a sequence,
the term sends position d to coeff * d^e at position d + m, so every
position of a truncated sequence is certified: later coefficients of the
true series can only land beyond the truncation.  find_annihilator sets
up the exact linear system over all certified positions and returns the
primitive integer generator of a one-dimensional kernel.
"""

from collections import namedtuple
from fractions import Fraction
from math import factorial, gcd, lcm

from qfano import opparse
from qfano.fixtures_io import data_lines
from qfano.linalg import accumulate, nullspace

ZERO = Fraction(0)
ONE = Fraction(1)


def parse_cut(text):
    """Parse a cut like "p,xi^5" into line-bundle pairs (u, v).

    Each comma-separated factor is p or xi with an optional caret count
    of repeated bundles; "p,xi^5" gives one (1,0) and five (0,1).
    """
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


def hypergeometric_modify(ctable, bundles):
    """d_{i,j} = c_{i,j} * product of (u*i + v*j)! over the bundles."""
    for (u, v) in bundles:
        if u < 0 or v < 0:
            raise ValueError("bundle (%d,%d) is not nef" % (u, v))
    out = {}
    for (i, j), val in ctable.items():
        for (u, v) in bundles:
            val = val * factorial(u * i + v * j)
        out[(i, j)] = val
    return out


def _exp_table(g, order):
    """exp of a table with no constant term, kept to total degree <= order."""
    out = {(0, 0): ONE}
    power = {(0, 0): ONE}
    k = 0
    while power and k <= order:
        k += 1
        power = accumulate({}, (
            ((i1 + i2, j1 + j2), v1 * v2 / k)
            for (i1, j1), v1 in power.items()
            for (i2, j2), v2 in g.items() if i1 + i2 + j1 + j2 <= order))
        accumulate(out, power.items())
    return out


def mirror_map_correction(dtable, spec, bundles):
    """Multiplier table removing the unit-direction shift of the cut.

    Collects the z-weight -1 stratum of the modified table and returns
    its negated exponential.  Any nonzero term at z-weight >= 0 other
    than the constant aborts: that would need a dilaton or scaling
    correction this pipeline does not implement.
    """
    order = max(i + j for (i, j) in dtable)
    shift = {}
    for (i, j), val in sorted(dtable.items()):
        if (i, j) == (0, 0) or not val:
            continue
        w = sum(u * i + v * j for (u, v) in bundles) \
            - i * spec.d1 - j * spec.d2
        if w >= 0:
            raise ValueError(
                "non-trivial dilaton shift: unsupported (term q1^%d q2^%d "
                "at z-weight %d)" % (i, j, w))
        if w == -1:
            shift[(i, j)] = -val
    return _exp_table(shift, order)


def period_sequence(dtable, multiplier, terms):
    """First `terms` coefficients of the collapsed series at q1 = q2 = t."""
    if terms < 0:
        raise ValueError("term count must be >= 0")
    order = max(i + j for (i, j) in dtable)
    if terms > order + 1:
        raise ValueError(
            "insufficient truncation: %d terms requested but the "
            "coefficient table reaches total degree %d; recompute with "
            "order >= %d" % (terms, order, terms - 1))
    dcol = [ZERO] * terms
    for (i, j), val in dtable.items():
        if i + j < terms:
            dcol[i + j] += val
    mcol = [ZERO] * terms
    for (i, j), val in multiplier.items():
        if i + j < terms:
            mcol[i + j] += val
    return [sum((dcol[k] * mcol[m - k] for k in range(m + 1)), ZERO)
            for m in range(terms)]


def regularize(seq):
    """m-th term times m!."""
    return [val * factorial(m) for m, val in enumerate(seq)]


PFTerm = namedtuple("PFTerm", "coeff m e")  # coeff * t^m * D^e


def parse_pf_operator(text):
    """Parse an operator in t and D = t d/dt; duplicates merge."""
    terms = {}
    for chunk in opparse.split_terms(text):
        coeff, pw = opparse.parse_term(chunk, ("t", "D"))
        accumulate(terms, [((pw["t"], pw["D"]), coeff)])
    return [PFTerm(terms[(m, e)], m, e)
            for (m, e) in sorted(terms, key=lambda k: (-k[1], k[0]))]


def operator_from_lines(lines):
    """Parse an operator from text lines with # comments."""
    return parse_pf_operator(" ".join(text for _, text in data_lines(lines)))


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
    """Residual of the operator on a truncated sequence, position-exact."""
    out = []
    for pos in range(len(seq)):
        acc = ZERO
        for term in op:
            d = pos - term.m
            if d >= 0:
                acc += term.coeff * d ** term.e * seq[d]
        out.append(acc)
    return out


def pf_normalize(op):
    """Scale to primitive integer coefficients with the lowest t-term of
    the highest D-power positive."""
    if not op:
        return []
    denom = lcm(*(term.coeff.denominator for term in op))
    content = 0
    for term in op:
        content = gcd(content, (term.coeff * denom).numerator)
    lead = max(term.e for term in op)
    low = min(term.m for term in op if term.e == lead)
    pivot = next(term.coeff for term in op if term.e == lead and term.m == low)
    scale = Fraction(denom if pivot > 0 else -denom, content)
    return [PFTerm(term.coeff * scale, term.m, term.e)
            for term in sorted(op, key=lambda t: (-t.e, t.m))]


def find_annihilator(seq, max_order, max_degree):
    """Search for one operator of D-order and t-degree at most the bounds.

    Solves the exact linear system over every certified position of the
    sequence.  Returns the primitive normalized generator of a
    one-dimensional kernel, None for an empty kernel, and raises when a
    bound is negative, the system is underdetermined or the kernel has
    dimension above one.
    """
    for name, bound in (("order", max_order), ("degree", max_degree)):
        if bound < 0:
            raise ValueError("operator %s bound must be >= 0, got %d"
                             % (name, bound))
    unknowns = (max_order + 1) * (max_degree + 1)
    if len(seq) <= unknowns:
        raise ValueError(
            "sequence of length %d cannot overdetermine %d operator "
            "coefficients; need more than %d terms"
            % (len(seq), unknowns, unknowns))
    cols = [(e, m) for e in range(max_order + 1)
            for m in range(max_degree + 1)]
    rows = []
    for pos in range(len(seq)):
        row = []
        for e, m in cols:
            d = pos - m
            row.append(seq[d] * d ** e if d >= 0 else ZERO)
        rows.append(row)
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
