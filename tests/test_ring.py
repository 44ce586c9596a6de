import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import classical_mul, dense_class, integrate
from oracles import dual_basis as pairing_inverse
from oracles import (integrate_monomial, monomial_class, pairing_matrix,
                     pushforward_monomial, pushforward_to_base, segre,
                     zero_class)

from qfano import ring
from qfano.ring import basis_index, divisor_mul, dual_basis, make_bundle


@pytest.fixture(scope="module")
def flagship():
    return make_bundle(4, 6, [-3, 5, -5])


@pytest.fixture(scope="module")
def p1p1():
    return make_bundle(1, 2, [])


def test_make_bundle_flagship(flagship):
    assert flagship.d1 == 2
    assert flagship.d2 == 6
    assert flagship.size == 30
    assert flagship.dim == 9
    assert flagship.chern == (-3, 5, -5, 0, 0, 0)


def test_make_bundle_trivial(p1p1):
    assert p1p1.d1 == 2
    assert p1p1.d2 == 2
    assert p1p1.size == 4
    assert p1p1.basis == ((0, 0), (1, 0), (0, 1), (1, 1))


def test_make_bundle_rejects_bad_specs():
    with pytest.raises(ValueError, match="r \\+ 1 \\+ c_1"):
        make_bundle(4, 6, [-8])
    with pytest.raises(ValueError, match="n \\+ 1 \\+ c_1"):
        make_bundle(2, 9, [-4])
    with pytest.raises(ValueError):
        make_bundle(0, 2, [])
    with pytest.raises(ValueError):
        make_bundle(3, 1, [])
    with pytest.raises(ValueError):
        make_bundle(2, 2, [1, 1, 1])


def test_segre_flagship(flagship):
    assert segre(flagship) == (1, 3, 4, 2, 1)


def test_segre_convolution_identity(flagship):
    # sum_k s_k c_(i-k) = [i == 0]
    c = (1,) + flagship.chern
    for i in range(flagship.n + 1):
        acc = sum(segre(flagship)[k] * c[i - k]
                  for k in range(i + 1) if i - k <= flagship.r)
        assert acc == (1 if i == 0 else 0)


FLAGSHIP_BASIS = [
    (0, 0),
    (1, 0), (0, 1),
    (2, 0), (1, 1), (0, 2),
    (3, 0), (2, 1), (1, 2), (0, 3),
    (4, 0), (3, 1), (2, 2), (1, 3), (0, 4),
    (4, 1), (3, 2), (2, 3), (1, 4), (0, 5),
    (4, 2), (3, 3), (2, 4), (1, 5),
    (4, 3), (3, 4), (2, 5),
    (4, 4), (3, 5),
    (4, 5),
]


def test_flagship_basis_order(flagship):
    assert list(flagship.basis) == FLAGSHIP_BASIS


def closed_formula(spec, d, k):
    # Three-branch position formula, valid when r > n.
    n, r = spec.n, spec.r
    if d <= n:
        return (d + 2) * (d + 1) // 2 - k
    if d < r:
        return (n + 1) * (2 * d - n + 2) // 2 - k
    return ((n + 1) * (2 * r - n) + (d - r + 1) * (2 * n - d + r)) // 2 - k + d + 1 - r


def test_basis_index_examples(flagship):
    assert basis_index(flagship, 1, 1) == 2
    assert basis_index(flagship, 0, 0) == 1
    assert basis_index(flagship, 5, 0) == 20
    assert basis_index(flagship, 9, 4) == 30


def test_basis_index_matches_closed_formula(flagship, p1p1):
    for spec in (flagship, p1p1):
        assert spec.r > spec.n
        for i, (a, b) in enumerate(spec.basis):
            d = a + b
            assert basis_index(spec, d, a) == i + 1
            assert closed_formula(spec, d, a) == i + 1


def test_basis_index_rejects_out_of_range(flagship):
    with pytest.raises(ValueError):
        basis_index(flagship, 1, 2)
    with pytest.raises(ValueError):
        basis_index(flagship, 9, 3)  # xi-power 6 > r-1
    with pytest.raises(ValueError):
        basis_index(flagship, 6, 0)  # xi-power 6 > r-1


def test_classical_mul_examples(flagship):
    p = monomial_class(flagship, 1, 0)
    xi = monomial_class(flagship, 0, 1)
    p4 = monomial_class(flagship, 4, 0)
    xi5 = monomial_class(flagship, 0, 5)

    assert classical_mul(flagship, p, p4) == zero_class(flagship)

    # xi * xi^5 = 3 p xi^5 - 5 p^2 xi^4 + 5 p^3 xi^3
    got = classical_mul(flagship, xi, xi5)
    want = zero_class(flagship)
    want[flagship.position(1, 5)] = Fraction(3)
    want[flagship.position(2, 4)] = Fraction(-5)
    want[flagship.position(3, 3)] = Fraction(5)
    assert got == want

    # xi * (p^4 xi^5): every reduction term carries p^5 = 0
    p4xi5 = monomial_class(flagship, 4, 5)
    assert classical_mul(flagship, xi, p4xi5) == zero_class(flagship)


def test_integrate_examples(flagship):
    assert integrate_monomial(flagship, 4, 5) == 1
    assert integrate_monomial(flagship, 3, 6) == 3
    assert integrate_monomial(flagship, 2, 7) == 4
    assert integrate_monomial(flagship, 4, 4) == 0
    assert integrate(flagship, monomial_class(flagship, 4, 5)) == 1


def test_integrate_monomial_consistent_with_reduction(flagship):
    # reduce xi^6 against the ring relation, then integrate p^3 * result
    xi = monomial_class(flagship, 0, 1)
    xi5 = monomial_class(flagship, 0, 5)
    xi6 = classical_mul(flagship, xi, xi5)
    p3 = monomial_class(flagship, 3, 0)
    assert integrate(flagship, classical_mul(flagship, p3, xi6)) == 3
    assert integrate_monomial(flagship, 3, 6) == 3


def test_pushforward_examples(flagship):
    assert pushforward_to_base(flagship, monomial_class(flagship, 0, 5)) == [
        Fraction(x) for x in (1, 0, 0, 0, 0)
    ]
    # xi^6 pushes to 3p (computed monomially and through ring reduction)
    assert pushforward_monomial(flagship, 0, 6) == [
        Fraction(x) for x in (0, 3, 0, 0, 0)
    ]
    xi = monomial_class(flagship, 0, 1)
    xi6 = classical_mul(flagship, xi, monomial_class(flagship, 0, 5))
    assert pushforward_to_base(flagship, xi6) == [
        Fraction(x) for x in (0, 3, 0, 0, 0)
    ]
    assert pushforward_to_base(flagship, monomial_class(flagship, 2, 3)) == [
        Fraction(0)
    ] * 5


def dense_dual(spec):
    """ring.dual_basis densified, after checking that every row stores
    only nonzero ints."""
    rows = dual_basis(spec)
    assert all(type(c) is int and c for row in rows for c in row.values())
    return [dense_class(spec, row) for row in rows]


def test_pairing_anti_triangular_and_invertible(flagship):
    G = pairing_matrix(flagship)
    for i in range(flagship.size):
        for j in range(flagship.size):
            if flagship.degree(i) + flagship.degree(j) != flagship.dim:
                assert G[i][j] == 0
    Ginv = dense_dual(flagship)
    n = flagship.size
    for i in range(n):
        for j in range(n):
            acc = sum(G[i][k] * Ginv[k][j] for k in range(n))
            assert acc == (1 if i == j else 0)


def test_dual_of_identity_is_top_degree(flagship):
    phi0 = dual_basis(flagship)[0]
    assert phi0
    assert all(flagship.degree(i) == flagship.dim for i in phi0)
    one = monomial_class(flagship, 0, 0)
    assert integrate(flagship, classical_mul(
        flagship, one, dense_class(flagship, phi0))) == 1


def test_dual_of_p_pairs_correctly(flagship):
    dp = dense_dual(flagship)[flagship.position(1, 0)]
    for j in range(flagship.size):
        a, b = flagship.basis[j]
        got = integrate(flagship, classical_mul(flagship, dp, monomial_class(flagship, a, b)))
        assert got == (1 if (a, b) == (1, 0) else 0)


def test_known_dual_classes(flagship):
    # duals used throughout the seed computations, frozen by hand
    def as_vec(items):
        v = zero_class(flagship)
        for (a, b), c in items.items():
            v[flagship.position(a, b)] = Fraction(c)
        return v

    dual = dense_dual(flagship)
    assert dual[flagship.position(4, 4)] == as_vec({(0, 1): 1, (1, 0): -3})
    assert dual[flagship.position(3, 5)] == as_vec({(1, 0): 1})
    assert dual[flagship.position(4, 3)] == as_vec(
        {(2, 0): 5, (1, 1): -3, (0, 2): 1})
    assert dual[flagship.position(3, 4)] == as_vec({(2, 0): -3, (1, 1): 1})
    assert dual[flagship.position(2, 5)] == as_vec({(2, 0): 1})


def test_mul_associative_commutative_random(flagship):
    rng = random.Random(20240817)
    monos = list(flagship.basis)
    for _ in range(40):
        x = monomial_class(flagship, *rng.choice(monos))
        y = monomial_class(flagship, *rng.choice(monos))
        z = monomial_class(flagship, *rng.choice(monos))
        xy = classical_mul(flagship, x, y)
        yx = classical_mul(flagship, y, x)
        assert xy == yx
        assert classical_mul(flagship, x, classical_mul(flagship, y, z)) == \
            classical_mul(flagship, xy, z)


def test_mul_respects_grading(flagship):
    rng = random.Random(7)
    monos = list(flagship.basis)
    for _ in range(40):
        (a1, b1) = rng.choice(monos)
        (a2, b2) = rng.choice(monos)
        prod = classical_mul(flagship, monomial_class(flagship, a1, b1),
                             monomial_class(flagship, a2, b2))
        d = a1 + b1 + a2 + b2
        for i, c in enumerate(prod):
            if c:
                assert flagship.degree(i) == d


def test_load_bundle_config(tmp_path):
    cfg = tmp_path / "bundle.cfg"
    cfg.write_text("# flagship geometry\nn = 4\nr = 6\nchern = -3 5 -5\n")
    spec = ring.load_bundle_config(str(cfg))
    assert (spec.n, spec.r, spec.chern[:3]) == (4, 6, (-3, 5, -5))
    bad = tmp_path / "bad.cfg"
    bad.write_text("n = 4\n")
    with pytest.raises(ValueError, match="missing keys"):
        ring.load_bundle_config(str(bad))


@pytest.mark.parametrize("body,message", [
    ("n = x\nr = 2\n", ":1: n must be an integer, got 'x'"),
    ("n = 1\nr = 2.5\n", ":2: r must be an integer, got '2.5'"),
    ("n = 1\nr = 2\nchern = 0, y\n", ":3: chern must be integers, got '0, y'"),
    ("# comment\nn = 1\nr = 2\nfoo = 1\n", ":4: unknown key 'foo'"),
    ("n = 3\nn = 1\nr = 2\n", ":2: duplicate key 'n'"),
])
def test_load_bundle_config_names_line_and_key(tmp_path, body, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(body)
    with pytest.raises(ValueError) as info:
        ring.load_bundle_config(str(cfg))
    assert str(info.value).startswith(str(cfg) + message)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=4),
       st.integers(min_value=2, max_value=5),
       st.lists(st.integers(min_value=-4, max_value=4), max_size=5))
def test_divisor_multiplication_strictly_lower_triangular(n, r, chern):
    # the frame solver closes on leading row blocks because of this
    try:
        spec = make_bundle(n, r, chern[:r])
    except ValueError:
        assume(False)
    for label in ("p", "xi"):
        for k, mono in enumerate(spec.basis):
            assert all(i > k for i in divisor_mul(spec, label, *mono))


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=6),
       st.integers(min_value=2, max_value=7),
       st.lists(st.integers(min_value=-5, max_value=5), max_size=7))
def test_closed_forms_match_general_oracles(n, r, chern):
    # divisor products and the dual basis in closed form equal the
    # recursive cup product and the inverse of the pairing matrix
    try:
        spec = make_bundle(n, r, chern[:r])
    except ValueError:
        assume(False)
    for label, divisor in (("p", monomial_class(spec, 1, 0)),
                           ("xi", monomial_class(spec, 0, 1))):
        for mono in spec.basis:
            got = divisor_mul(spec, label, *mono)
            assert all(type(c) is int and c for c in got.values())
            assert dense_class(spec, got) == classical_mul(
                spec, divisor, monomial_class(spec, *mono)), (label, mono)
    assert dense_dual(spec) == pairing_inverse(spec)
