"""Schubert calculus on G(k,m) plus the exceptional-divisor ring for the
flagship bundle.

Schubert classes are maps from partitions (at most k parts, each at most
m-k) to Fractions.  Multiplication is Pieri-generated; products by a
two-part partition use the 2x2 Giambelli combination of Pieri steps.

The flagship's second extremal contraction is resolved by a divisor
D = P(Q*) over G(2,5) with relative class eta, presented in the subspace
convention with c_i(Q*) = (-1)^i sigma_i, so

    eta^3 = sigma_1 eta^2 - sigma_2 eta + sigma_3.

Classes of D are maps (partition, eta-power) -> Fraction, eta-power <= 2
after reduction.
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
        self.dim = k * (m - k)
        self.box = (self.cols,) * k
        parts = [()]
        stack = [()]
        while stack:
            lam = stack.pop()
            bound = lam[-1] if lam else self.cols
            if len(lam) < k:
                for nxt in range(1, bound + 1):
                    mu = lam + (nxt,)
                    parts.append(mu)
                    stack.append(mu)
        self.partitions = tuple(sorted(parts, key=lambda t: (sum(t), t)))

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

    def mult_partition(self, x, mu):
        """Multiply a class by sigma_mu for a partition with <= 2 parts.

        Uses sigma_(a,b) = sigma_a sigma_b - sigma_(a+1) sigma_(b-1).
        """
        mu = _strip(mu)
        if len(mu) == 0:
            return dict(x)
        if len(mu) == 1:
            return self.pieri(x, mu[0])
        if len(mu) > 2:
            raise ValueError("products beyond two-part partitions not implemented")
        a, b = mu
        plus = self.pieri(self.pieri(x, a), b)
        minus = self.pieri(self.pieri(x, a + 1), b - 1)
        return add(plus, scale(minus, -1))

    def integrate(self, x):
        """Coefficient of the full-box class."""
        return x.get(self.box, ZERO)

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


def qstar_chern(i):
    """c_i(Q*) on G(2,5): sign-alternated special classes."""
    if i == 0:
        return sigma()
    if 1 <= i <= 3:
        return scale(sigma(i), (-1) ** i)
    return {}


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


@cache
def eta_power(a):
    """eta^a reduced to eta-powers <= 2; returns {e: SchubertClass}."""
    if a < 0:
        raise ValueError("negative eta power")
    if a <= 2:
        return {a: sigma()}
    gr = g25()
    out = {}
    for e, cls in eta_power(a - 1).items():
        if e < 2:
            out[e + 1] = add(out.get(e + 1, {}), cls)
        else:
            # eta^3 = sigma_1 eta^2 - sigma_2 eta + sigma_3
            out[2] = add(out.get(2, {}), gr.pieri(cls, 1))
            out[1] = add(out.get(1, {}), scale(gr.pieri(cls, 2), -1))
            out[0] = add(out.get(0, {}), gr.pieri(cls, 3))
    return {e: cls for e, cls in out.items() if cls}


def restrict_to_divisor(spec, x):
    """Restrict a class of the flagship X to D = P(Q*): p -> eta, xi -> sigma_1.

    Returns a map (partition, eta-power) -> Fraction with eta-power <= 2.
    """
    if not is_flagship(spec):
        raise ValueError("exceptional-divisor geometry is flagship-specific")
    gr = g25()
    out = {}
    for i, coef in enumerate(x):
        if not coef:
            continue
        a, b = spec.basis[i]
        for e, cls in eta_power(a).items():
            for _ in range(b):
                cls = gr.pieri(cls, 1)
            accumulate(out, (((lam, e), coef * c) for lam, c in cls.items()))
    return out


def pushforward_divisor(x):
    """Push a class of D down the P^2-fibration to G(2,5).

    sigma_lam * eta^(2+i) maps to sigma_lam * s_i(Q*); eta-powers below 2
    push to zero.  Accepts unreduced input (any eta-power >= 0).
    """
    gr = g25()
    out = {}
    for (lam, e), coef in x.items():
        if e < 2 or not coef:
            continue
        for mu, c in qstar_segre(e - 2).items():
            out = add(out, scale(gr.mult_partition({lam: coef}, mu), c))
    return out
