"""The flagship's closed-form G(2,5) pairing, against Schubert calculus
by Pieri's rule (tests/oracles.py) and the eta-power reduction on D."""

from fractions import Fraction
from functools import cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    Grassmannian,
    add,
    g25,
    monomial_class,
    pushforward_from_divisor,
    qstar_segre,
    ref_blowup_invariant,
    scale,
    sigma,
)

from qfano import seeds
from qfano.linalg import accumulate
from qfano.ring import make_bundle
from qfano.schubert import FLAGSHIP, divisor_pairing, is_flagship


def partitions(gr):
    """Every partition in the k x (m-k) box, by size, then as tuples."""
    boxed = (tuple(x for x in lam if x)
             for lam in product(range(gr.cols + 1), repeat=gr.k)
             if list(lam) == sorted(lam, reverse=True))
    return sorted(boxed, key=lambda t: (sum(t), t))


def integrate(gr, x):
    """Coefficient of the full-box class."""
    return x.get((gr.cols,) * gr.k, Fraction(0))


def mult_partition(gr, x, mu):
    """Multiply a class by sigma_mu for a partition with <= 2 parts.

    Uses sigma_(a,b) = sigma_a sigma_b - sigma_(a+1) sigma_(b-1).
    """
    mu = tuple(part for part in mu if part)
    if len(mu) == 0:
        return dict(x)
    if len(mu) == 1:
        return gr.pieri(x, mu[0])
    if len(mu) > 2:
        raise ValueError("products beyond two-part partitions not implemented")
    a, b = mu
    plus = gr.pieri(gr.pieri(x, a), b)
    minus = gr.pieri(gr.pieri(x, a + 1), b - 1)
    return add(plus, scale(minus, -1))


def qstar_chern(i):
    """c_i(Q*) on G(2,5): sign-alternated special classes."""
    if i == 0:
        return sigma()
    if 1 <= i <= 3:
        return scale(sigma(i), (-1) ** i)
    return {}


# Reference: the eta-power reduction on D = P(Q*), the restriction and the
# pushforward that qfano.schubert used before its direct pushforward, kept
# verbatim so the two can be compared on any class.
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
            out = add(out, scale(mult_partition(gr, {lam: coef}, mu), c))
    return out


def reference_pushforward(spec, x):
    return pushforward_divisor(restrict_to_divisor(spec, x))


@pytest.fixture(scope="module")
def gr():
    return g25()


@pytest.fixture(scope="module")
def flagship():
    return make_bundle(4, 6, [-3, 5, -5])


def test_pieri_base_cases(gr):
    assert gr.pieri(sigma(1), 1) == {(2,): 1, (1, 1): 1}
    # sigma_1^3 = sigma_3 + 2 sigma_(2,1)
    s13 = gr.pieri(gr.pieri(sigma(1), 1), 1)
    assert s13 == {(3,): 1, (2, 1): 2}
    # sigma_1^4 = 3 sigma_(3,1) + 2 sigma_(2,2)
    s14 = gr.pieri(s13, 1)
    assert s14 == {(3, 1): 3, (2, 2): 2}


def test_pieri_degree_six_powers(gr):
    x = sigma(1)
    for _ in range(5):
        x = gr.pieri(x, 1)
    assert integrate(gr, x) == 5  # sigma_1^6 = 5 * box


def test_pieri_box_truncation(gr):
    # mu_2 <= lambda_1 forbids (3,3) from (2,2); box forbids (4,2)
    assert gr.pieri(sigma(2, 2), 2) == {}
    # while (3,3) IS a horizontal strip over (3,0)
    assert gr.pieri(sigma(3), 3) == {(3, 3): 1}
    assert integrate(gr, gr.pieri(sigma(3), 3)) == 1


def test_integrate_wrong_degree(gr):
    assert integrate(gr, sigma(1)) == 0
    assert integrate(gr, gr.pieri(sigma(2, 2), 1)) == 0


def test_duality_all_pairs(gr):
    # independent product via Pieri + 2x2 Giambelli, against box complement
    for lam in partitions(gr):
        for mu in partitions(gr):
            prod = mult_partition(gr, sigma(*lam), mu)
            got = integrate(gr, prod)
            want = 1 if gr.complement(lam) == mu else 0
            assert got == want, (lam, mu)


def test_pair_matches_product_integral(gr):
    import random
    rng = random.Random(11)
    for _ in range(30):
        x = {}
        y = {}
        for lam in partitions(gr):
            if rng.random() < 0.4:
                x[lam] = Fraction(rng.randint(-3, 3))
            if rng.random() < 0.4:
                y[lam] = Fraction(rng.randint(-3, 3))
        direct = Fraction(0)
        for lam, c in x.items():
            if c:
                prod = mult_partition(gr, scale(y, c), lam)
                direct += integrate(gr, prod)
        assert gr.pair(x, y) == direct


def test_pieri_operators_commute(gr):
    for lam in partitions(gr):
        x = sigma(*lam)
        for i in range(1, 4):
            for j in range(1, 4):
                assert gr.pieri(gr.pieri(x, i), j) == gr.pieri(gr.pieri(x, j), i)


def test_qstar_series(gr):
    assert qstar_chern(1) == {(1,): -1}
    assert qstar_segre(1) == {(1,): 1}
    assert qstar_segre(2) == {(1, 1): 1}
    assert qstar_segre(3) == {}
    assert qstar_segre(4) == {}


def test_qstar_chern_segre_inverse(gr):
    # sum_j c_j(Q*) s_(i-j)(Q*) = [i == 0] through degree 6
    for i in range(7):
        acc = {}
        for j in range(0, min(i, 3) + 1):
            for lam, c in qstar_chern(j).items():
                acc = add(acc, scale(mult_partition(gr, qstar_segre(i - j), lam), c))
        assert acc == ({(): 1} if i == 0 else {}), i


def test_eta_powers(gr):
    # the reference reduction: eta^3 and eta^4 on D in eta-powers <= 2
    assert eta_power(3) == {2: {(1,): 1}, 1: {(2,): -1}, 0: {(3,): 1}}
    e4 = eta_power(4)
    assert e4[2] == {(1, 1): 1}
    assert e4[1] == {(2, 1): -1}
    assert e4[0] == {(3, 1): 1}


def test_restrict_examples(flagship):
    p = monomial_class(flagship, 1, 0)
    assert restrict_to_divisor(flagship, p) == {((), 1): 1}

    xi2 = monomial_class(flagship, 0, 2)
    assert restrict_to_divisor(flagship, xi2) == {((2,), 0): 1, ((1, 1), 0): 1}

    p4 = monomial_class(flagship, 4, 0)
    assert restrict_to_divisor(flagship, p4) == {
        ((1, 1), 2): 1,
        ((2, 1), 1): -1,
        ((3, 1), 0): 1,
    }


def test_pushforward_matches_reference_on_monomials(flagship):
    for a, b in flagship.basis:
        x = monomial_class(flagship, a, b)
        assert pushforward_from_divisor(flagship, x) == \
            reference_pushforward(flagship, x), (a, b)


# dense rational classes of the flagship, about half their entries zero
DENSE = st.lists(st.one_of(st.just(Fraction(0)),
                           st.fractions(min_value=-9, max_value=9,
                                        max_denominator=12)),
                 min_size=30, max_size=30)


@settings(max_examples=100, deadline=None)
@given(DENSE)
def test_eta_reduction_consistent_with_pushforward(flagship, x):
    # reducing eta-powers on D before pushing gives the direct pushforward
    assert pushforward_from_divisor(flagship, x) == \
        reference_pushforward(flagship, x)


def test_pushforward_examples(flagship):
    def push(a, b):
        return pushforward_from_divisor(flagship, monomial_class(flagship, a, b))

    # p^(2+i) -> s_i(Q*): 1, sigma_1, sigma_(1,1)
    for i in range(3):
        assert push(2 + i, 0) == qstar_segre(i), i
    assert push(4, 0) == {(1, 1): 1}
    # eta-powers below 2 push to zero
    assert push(1, 0) == {}
    assert push(0, 2) == {}
    assert push(1, 3) == {}
    # p^2 xi = sigma_1, p^3 xi = sigma_1^2 = sigma_2 + sigma_(1,1)
    assert push(2, 1) == {(1,): 1}
    assert push(3, 1) == {(2,): 1, (1, 1): 1}


def test_pushforward_rejects_other_specs():
    other = make_bundle(3, 3, [1])
    with pytest.raises(ValueError, match="flagship-specific"):
        pushforward_from_divisor(other, monomial_class(other, 1, 0))


def test_flagship_spelled_once():
    assert FLAGSHIP == (4, 6, (-3, 5, -5))
    assert is_flagship(make_bundle(*FLAGSHIP))
    assert is_flagship(make_bundle(4, 6, [-3, 5, -5, 0, 0, 0]))
    for other in ((4, 6, (-3, 5, -4)), (4, 6, (-3, 5, -5, 0, 0, 1)),
                  (4, 7, (-3, 5, -5)), (1, 2, ())):
        assert not is_flagship(make_bundle(*other)), other


def test_divisor_pairing_values():
    # sigma_1^6 = 5, sigma_1^4 sigma_(1,1) = 2, sigma_1^2 sigma_(1,1)^2 = 1
    assert divisor_pairing(2, 0, 2, 6) == 5
    assert divisor_pairing(2, 3, 3, 2) == 5
    assert divisor_pairing(4, 0, 2, 4) == 2
    assert divisor_pairing(4, 1, 3, 2) == 2
    assert divisor_pairing(4, 0, 4, 2) == 1
    assert divisor_pairing(4, 1, 4, 1) == 1
    # off the top degree, or an eta-power below 2 on either side
    assert divisor_pairing(4, 0, 4, 1) == 0
    assert divisor_pairing(2, 0, 2, 5) == 0
    assert divisor_pairing(1, 5, 2, 4) == 0
    assert divisor_pairing(4, 2, 0, 5) == 0


@pytest.mark.parametrize("k", [1, 2, 3])
def test_closed_form_matches_pieri_on_monomial_pairs(flagship, k):
    classes = [monomial_class(flagship, a, b) for a, b in flagship.basis]
    values = set()
    for i, x in enumerate(classes):
        for j, y in enumerate(classes):
            got = seeds.blowup_invariant(flagship, i, j, k)
            assert got == ref_blowup_invariant(flagship, x, y, k), (k, i, j)
            values.add(got)
    assert values == ({0, 1, 2, 5} if k == 1 else {0})


# cheaper to draw: integer entries over one denominator per class
DENSE_OVER_ONE = st.builds(
    lambda nums, den: [Fraction(num, den) for num in nums],
    st.lists(st.integers(-9, 9), min_size=30, max_size=30),
    st.integers(1, 12))


@settings(max_examples=100, deadline=None)
@given(DENSE_OVER_ONE, DENSE_OVER_ONE)
def test_closed_form_matches_pieri_on_dense_classes(flagship, x, y):
    pairing = sum(x[i] * y[j] * seeds.blowup_invariant(flagship, i, j, 1)
                  for i in range(flagship.size) for j in range(flagship.size))
    assert pairing == ref_blowup_invariant(flagship, x, y, 1)
