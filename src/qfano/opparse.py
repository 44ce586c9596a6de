"""Shared parser for sums-of-products expression grammars.

An expression is a sequence of terms joined by + or -.  A term is a
product of factors separated by *.  A factor is either a rational
literal (7, 5/4; see parse_number) or a named atom with an optional
caret power (q1^2, D2^10, t, z).  Whitespace is ignored everywhere.
Callers pass the set of atom names they accept and map the resulting
power dicts onto their own term types.
"""

from fractions import Fraction


def parse_number(text, fraction=False):
    """Read a literal of the one numeric grammar of every input file: an
    optional -, ASCII digits and, when fraction is set, optionally / and
    more ASCII digits.

    Returns an int where the literal's value is integral (2 and 4/2
    alike) and a Fraction otherwise, which needs fraction set.  Anything
    else, a zero denominator included, raises ValueError naming the
    literal.
    """
    parts = (text[1:] if text[:1] == "-" else text).split("/")
    if len(parts) > 1 + fraction or not all(
            part.isascii() and part.isdigit() for part in parts):
        raise ValueError("bad %s %r" % ("number" if fraction else "integer",
                                         text))
    if len(parts) == 1:
        return int(text)
    num, den = (int(part) for part in text.split("/"))
    if not den:
        raise ValueError("zero denominator in %r" % text)
    return num // den if num % den == 0 else Fraction(num, den)


def split_terms(text):
    """Split an expression into signed term strings.

    "D2^10 - 2*q2*D1^3" -> ["D2^10", "-2*q2*D1^3"].
    """
    s = "".join(text.split())
    if not s:
        raise ValueError("empty expression")
    out = []
    start = 0
    for pos in range(1, len(s)):
        if s[pos] in "+-" and s[pos - 1] not in "+-*^/":
            out.append(s[start:pos])
            start = pos
    out.append(s[start:])
    return out


def parse_term(term, names):
    """Parse one signed product term against the allowed atom names.

    Returns (coefficient, {name: power}) with every name present.
    """
    powers = {name: 0 for name in names}
    body = term
    sign = 1
    while body and body[0] in "+-":
        if body[0] == "-":
            sign = -sign
        body = body[1:]
    if not body:
        raise ValueError("term %r has no factors" % term)
    coeff = 1
    for factor in body.split("*"):
        if not factor:
            raise ValueError("empty factor in term %r" % term)
        if factor[0].isdigit():
            try:
                coeff *= parse_number(factor, fraction=True)
            except ValueError:
                raise ValueError("bad coefficient %r in term %r" % (factor, term))
            continue
        name, caret, power = factor.partition("^")
        if name not in powers:
            raise ValueError("unknown atom %r in term %r" % (name, term))
        step = 1
        if caret:
            if not (power.isascii() and power.isdigit()):
                raise ValueError("bad exponent %r in term %r" % (power, term))
            step = int(power)
        powers[name] += step
    return sign * coeff, powers
