"""Schubert calculus on G(k,m) and the flagship's exceptional-divisor
pushforward.

Schubert classes are maps from partitions (at most k parts, each at most
m-k) to Fractions.  Multiplication by a special class sigma_i follows
Pieri's rule.

The flagship's second extremal contraction is resolved by a divisor
D = P(Q*) over G(2,5) with relative class eta, presented in the subspace
convention with c_i(Q*) = (-1)^i sigma_i.  A class of X restricts to D
by p -> eta and xi -> sigma_1, and the Segre classes s_i(Q*) are the
pushforwards of eta^(2+i) (Fulton, Intersection Theory, 3.1), so

    pi_*(p^a xi^b |_D) = sigma_1^b s_(a-2)(Q*),

which is zero for a < 2.
"""

from fractions import Fraction
from functools import cache

from qfano.linalg import accumulate

ZERO = Fraction(0)
ONE = Fraction(1)


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


def is_flagship(spec):
    return (spec.n, spec.r) == (4, 6) and tuple(spec.chern) == (-3, 5, -5, 0, 0, 0)


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
