"""The flagship's exceptional-divisor pairing on G(2,5), in closed form.

The flagship's second extremal contraction is resolved by a divisor
D = P(Q*) over G(2,5) with relative class eta, presented in the subspace
convention with c_i(Q*) = (-1)^i sigma_i.  A class of X restricts to D
by p -> eta and xi -> sigma_1, and the Segre classes s_i(Q*) are the
pushforwards of eta^(2+i) (Fulton, Intersection Theory, 3.1), so

    pi_*(p^a xi^b |_D) = sigma_1^b s_(a-2)(Q*),

which is zero for a < 2.  On G(2,5), s_0, s_1, s_2 = 1, sigma_1,
sigma_(1,1), and a <= n = 4, so every pushforward is a monomial
sigma_1^x sigma_(1,1)^y.  A pair of them integrates to 5, 2 or 1 when
x + 2y = 6 = dim G(2,5) and y = 0, 1 or 2, and to zero otherwise.
"""

from qfano.ring import bundle_key

# (n, r, chern) of the flagship bundle E -> P^4 of rank 6.
FLAGSHIP = (4, 6, (-3, 5, -5))

# The integral of sigma_1^(6-2y) sigma_(1,1)^y over G(2,5), by y.
_TOP_INTEGRALS = (5, 2, 1)


def is_flagship(spec):
    return (spec.n, spec.r, spec.chern) == bundle_key(*FLAGSHIP)


def divisor_pairing(a, b, c, d):
    """The G(2,5) pairing of p^a xi^b and p^c xi^d pushed from D."""
    if a < 2 or c < 2:
        return 0
    y = (a == 4) + (c == 4)
    x = b + d + (a == 3) + (c == 3)
    return _TOP_INTEGRALS[y] if x + 2 * y == 6 else 0
