"""Period pipeline: cuts, mirror multiplier, sequences, Fuchsian search.

The Fraction chain (hypergeometric modification, mirror multiplier,
period sequence, regularization) lives in tests/oracles.py as the
reference for the package's integer convolution."""

import random
import re
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (coefficient_table, hypergeometric_modify,
                     mirror_map_correction, period_sequence, ref_find_annihilator,
                     ref_pf_apply, regularize)

from qfano import lefschetz as lf
from qfano import qde
from qfano.fixtures_io import fixture_lines
from qfano.reconstruct import reconstruct
from qfano.ring import make_bundle
from qfano.seeds import builtin_source

F = Fraction

FLAGSHIP_CUT = lf.parse_cut("p,xi^5")


@pytest.fixture(scope="module")
def flagship():
    spec = make_bundle(4, 6, [-3, 5, -5])
    mp, mxi = reconstruct(spec, builtin_source(spec))
    return spec, mp, mxi


@pytest.fixture(scope="module")
def flagship_ctable(flagship):
    spec, mp, mxi = flagship
    return coefficient_table(qde.identity_series(mp, mxi, spec, 11), spec)


@pytest.fixture(scope="module")
def flagship_periods(flagship, flagship_ctable):
    spec = flagship[0]
    series = hypergeometric_modify(flagship_ctable, spec, FLAGSHIP_CUT, 11)
    multiplier = mirror_map_correction(series)
    return period_sequence(series, multiplier, 12)


def periods_fixture():
    return [F(line) for line in fixture_lines("regularized_periods10.txt")
            if line.split("#", 1)[0].strip()]


def test_parse_cut():
    assert lf.parse_cut("p,xi^5") == [(1, 0)] + [(0, 1)] * 5
    assert lf.parse_cut("xi^2") == [(0, 1), (0, 1)]
    assert lf.parse_cut("p^3") == [(1, 0)] * 3
    with pytest.raises(ValueError, match="must be p\\^k or xi\\^k"):
        lf.parse_cut("p*xi")
    with pytest.raises(ValueError, match="must be p\\^k or xi\\^k"):
        lf.parse_cut("2*p")
    with pytest.raises(ValueError, match="empty cut factor"):
        lf.parse_cut("p,,xi")
    # no cut at all: the period of X itself
    assert lf.parse_cut("") == []
    assert lf.parse_cut("  ") == []


def test_hypergeometric_modify(flagship, flagship_ctable):
    spec = flagship[0]
    series = hypergeometric_modify(flagship_ctable, spec, FLAGSHIP_CUT, 11)
    # -K_Y = (1,1): grade 1 is (0,1) alone and grade 2 is (1,1) + (0,2),
    # since c_{1,0} = c_{2,0} = 0
    assert series[1] == 1
    assert series[2] == 5 + F(1, 64) * 2 ** 5   # 5 * 1! * (1!)^5, c * (2!)^5
    # empty cut applies no factorial and grades by -K = (d1, d2) = (2, 6)
    assert hypergeometric_modify(flagship_ctable, spec, [], 11) == [
        sum((c for (i, j), c in flagship_ctable.items()
             if 2 * i + 6 * j == m), F(0)) for m in range(12)]
    with pytest.raises(ValueError, match="not nef"):
        hypergeometric_modify(flagship_ctable, spec, [(-1, 0)], 11)


def test_mirror_multiplier_is_fibre_exponential(flagship, flagship_ctable):
    spec = flagship[0]
    series = hypergeometric_modify(flagship_ctable, spec, FLAGSHIP_CUT, 11)
    multiplier = mirror_map_correction(series)
    # only the fibre-ray stratum sits at z-weight -1, so the multiplier
    # is exp(-q2) = exp(-t)
    assert multiplier == [F((-1) ** m, factorial(m)) for m in range(12)]


def test_mirror_multiplier_trivial_without_cut():
    spec = make_bundle(1, 2)
    mp, mxi = reconstruct(spec, builtin_source(spec))
    ctable = coefficient_table(qde.identity_series(mp, mxi, spec, 4), spec)
    series = hypergeometric_modify(ctable, spec, [], 4)
    assert mirror_map_correction(series) == [1, 0, 0, 0, 0]


def test_dilaton_shift_refused(flagship):
    spec = flagship[0]
    table = {(0, 0): F(1), (1, 0): F(5)}
    for cut in ([(2, 0)], [(3, 0)]):
        with pytest.raises(ValueError, match="dilaton shift"):
            hypergeometric_modify(table, spec, cut, 1)


def test_period_sequence_flagship(flagship_periods):
    assert flagship_periods[0] == 1
    assert flagship_periods[1] == 0
    assert flagship_periods[2] == 5
    assert flagship_periods[3] == 7
    assert regularize(flagship_periods)[:10] == periods_fixture()


def test_period_sequence_edge_counts(flagship, flagship_ctable):
    spec = flagship[0]
    series = hypergeometric_modify(flagship_ctable, spec, FLAGSHIP_CUT, 11)
    multiplier = mirror_map_correction(series)
    assert period_sequence(series, multiplier, 1) == [1]
    assert period_sequence(series, multiplier, 0) == []
    with pytest.raises(ValueError, match="order >= 12"):
        period_sequence(series, multiplier, 13)


def test_regularize():
    assert regularize([F(1), F(0), F(5)]) == [1, 0, 10]
    assert regularize([]) == []
    assert regularize([F(1)]) == [1]


def test_pf_parse_and_format_roundtrip():
    op = lf.operator_from_lines(fixture_lines("pf_operator.txt"))
    assert len(op) == 45
    assert lf.parse_pf_operator(lf.format_pf_operator(op)) == op
    assert lf.parse_pf_operator("0") == []
    assert lf.format_pf_operator([]) == "0"
    merged = lf.parse_pf_operator("2*t*D + 3*t*D")
    assert merged == [lf.PFTerm(F(5), 1, 1)]


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(
    st.tuples(st.integers(min_value=0, max_value=12),
              st.integers(min_value=0, max_value=9)),
    st.fractions(min_value=-10**6, max_value=10**6,
                 max_denominator=50).filter(bool),
    max_size=12))
def test_pf_format_parse_round_trip(coeffs):
    op = [lf.PFTerm(coeffs[(m, e)], m, e)
          for (m, e) in sorted(coeffs, key=lambda k: (-k[1], k[0]))]
    text = lf.format_pf_operator(op)
    assert lf.parse_pf_operator(text) == op
    assert lf.format_pf_operator(lf.parse_pf_operator(text)) == text


@pytest.mark.parametrize("lit", ["1e3", "1_0", "1.5"])
def test_pf_parse_rejects_literals_outside_grammar(lit):
    # Fraction() reads these; the grammar takes digits and digits/digits
    with pytest.raises(ValueError, match=re.escape(
            "bad coefficient '%s' in term '-%s*t*D'" % (lit, lit))):
        lf.parse_pf_operator("D^2 - %s*t*D" % lit)
    with pytest.raises(ValueError, match="bad coefficient"):
        lf.parse_cut("p,%s*xi" % lit)


def test_pf_apply_basics():
    d = lf.parse_pf_operator("D")
    assert lf.pf_apply(d, [F(1)] * 5) == [0, 1, 2, 3, 4]
    assert lf.pf_apply(d, [F(7), F(0), F(0)]) == [0, 0, 0]
    geom = lf.parse_pf_operator("D - t*D - t")
    assert lf.pf_apply(geom, [F(1)] * 6) == [0] * 6


def test_pf_first_position():
    # every residual before it is zero whatever the sequence; some unit
    # sequence leaves a nonzero residual at it
    packaged = lf.operator_from_lines(fixture_lines("pf_operator.txt"))
    assert lf.pf_apply(packaged, [F(12345)]) == [0]
    assert lf.pf_apply(packaged, [F(7), F(99)]) == [0, 0]
    cases = [(packaged, 2)] + [
        (lf.parse_pf_operator(text), first)
        for text, first in (("1", 0), ("D", 1), ("D - t", 1),
                            ("t^2*D", 3), ("D^2 - t^3", 1), ("D^2 - D", 2),
                            ("t*D^2 - t*D + t^5", 3))]
    for op, first in cases:
        assert lf.pf_first_position(op) == first
        # the residual is linear in the sequence: unit sequences span it
        residuals = [lf.pf_apply(op, [F(int(pos == j))
                                      for pos in range(first + 1)])
                     for j in range(first + 1)]
        assert all(res[:first] == [0] * first for res in residuals)
        assert any(res[first] for res in residuals)
    # one step per t-power, not per position
    assert lf.pf_first_position(lf.parse_pf_operator("t^100000*D")) == 100001


def test_pf_fixture_annihilates_first_terms(flagship_periods):
    op = lf.operator_from_lines(fixture_lines("pf_operator.txt"))
    regularized = regularize(flagship_periods)
    assert lf.pf_apply(op, regularized) == [0] * len(regularized)


def test_find_annihilator_geometric():
    found = lf.find_annihilator([F(1)] * 6, 1, 1)
    assert found == [lf.PFTerm(F(1), 0, 1), lf.PFTerm(F(-1), 1, 1),
                     lf.PFTerm(F(-1), 1, 0)]


def test_find_annihilator_normalization():
    # same kernel scaled: primitive integers, leading sign positive
    found = lf.find_annihilator([F(1, 3)] * 6, 1, 1)
    assert found == [lf.PFTerm(F(1), 0, 1), lf.PFTerm(F(-1), 1, 1),
                     lf.PFTerm(F(-1), 1, 0)]


def test_find_annihilator_underdetermined():
    with pytest.raises(ValueError, match="need more than 4 terms"):
        lf.find_annihilator([F(1)] * 4, 1, 1)


def test_find_annihilator_degenerate():
    with pytest.raises(ValueError, match="dimensional"):
        lf.find_annihilator([F(0)] * 8, 1, 1)


@pytest.mark.parametrize("order,degree,bad", [
    (4, -2, "degree bound must be >= 0, got -2"),
    (-1, 3, "order bound must be >= 0, got -1"),
    (0, -10, "degree bound must be >= 0, got -10")],
    ids=["4,-2", "-1,3", "0,-10"])
def test_find_annihilator_rejects_negative_bounds(order, degree, bad):
    with pytest.raises(ValueError, match=bad):
        lf.find_annihilator([F(1)] * 20, order, degree)


def test_find_annihilator_refuses_multiples():
    # D - t*D - t and its multiple by t both fit in degree 2
    with pytest.raises(ValueError) as err:
        lf.find_annihilator([F(1)] * 7, 1, 2)
    assert str(err.value) == (
        "annihilator space is 2-dimensional at order 1, degree 2; the "
        "sequence does not pin one operator")


def test_find_annihilator_none_for_factorials():
    seq = [F(factorial(m)) for m in range(8)]
    assert lf.find_annihilator(seq, 1, 1) is None


def test_pf_normalize_flips_fixture_sign():
    op = lf.operator_from_lines(fixture_lines("pf_operator.txt"))
    normalized = lf.pf_normalize(op)
    assert normalized[0] == lf.PFTerm(F(24), 0, 4)
    assert {(-t.coeff, t.m, t.e) for t in op} == \
        {(t.coeff, t.m, t.e) for t in normalized}


# Every valid cut of the flagship, -K = (2, 6): at most one p and at most
# five xi keep both weights positive.
FLAGSHIP_CUTS = ["p^%d,xi^%d" % (a, b) for a in range(2) for b in range(6)]


@pytest.fixture(scope="module")
def flagship_atable(flagship):
    # every grade below 64 of every cut lies in i + j <= 63
    spec, mp, mxi = flagship
    return qde.identity_series(mp, mxi, spec, 63)


def oracle_periods(atable, spec, bundles, terms):
    """(plain, regularized) sequences of the Fraction reference chain."""
    ctable = coefficient_table(atable, spec)
    order = max(terms - 1, 0)
    series = hypergeometric_modify(ctable, spec, bundles, order)
    plain = period_sequence(series, mirror_map_correction(series), terms)
    return plain, regularize(plain)


def assert_chain_matches_oracle(atable, spec, bundles, terms):
    plain, regularized = oracle_periods(atable, spec, bundles, terms)
    got = lf.regularized_periods(atable, spec, bundles, terms)
    assert got == regularized
    assert [F(val, factorial(m)) for m, val in enumerate(got)] == plain


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FLAGSHIP_CUTS), st.integers(min_value=0, max_value=64))
def test_integer_chain_matches_oracle_on_flagship_cuts(flagship,
                                                       flagship_atable, cut,
                                                       terms):
    spec, bundles = flagship[0], lf.parse_cut(cut)
    got = lf.regularized_periods(flagship_atable, spec, bundles, terms)
    assert all(type(val) is int for val in got)
    assert_chain_matches_oracle(flagship_atable, spec, bundles, terms)


@pytest.mark.parametrize("cut", FLAGSHIP_CUTS)
def test_integer_chain_matches_oracle_at_64_terms(flagship, flagship_atable,
                                                  cut):
    assert_chain_matches_oracle(flagship_atable, flagship[0],
                                lf.parse_cut(cut), 64)


def test_integer_chain_matches_oracle_at_128_terms(flagship):
    # the Pascal-rule convolution with E'_1 = 24 and L = 1, far past 64
    spec, mp, mxi = flagship
    atable = qde.identity_series(mp, mxi, spec, 127)
    assert_chain_matches_oracle(atable, spec, FLAGSHIP_CUT, 128)


@pytest.mark.parametrize("nr, bundles, e1_zero", [
    ((2, 3), [(0, 2)], False),                # -K_Y = (3, 1)
    ((2, 3), [(1, 1)], True),                 # -K_Y = (2, 2)
    ((4, 6), [(1, 1), (0, 4)], False),        # -K_Y = (4, 1)
    ((4, 6), [(1, 1), (0, 2), (1, 0)], True),  # -K_Y = (3, 3)
])
def test_integer_chain_matches_oracle_on_rational_tables_at_48_terms(
        nr, bundles, e1_zero):
    # denominators above 1 scale row[k] by L^k; with every entry nonzero,
    # E'_1 = 0 exactly when no index has grade 1
    spec = make_bundle(*nr)
    rng = random.Random(repr((nr, bundles)))
    atable = {(i, j): F(rng.choice([-1, 1]) * rng.randint(1, 30),
                        rng.randint(1, 12))
              for i in range(48) for j in range(48 - i)}
    assert max(x.denominator for x in atable.values()) > 1
    assert (1 not in lf.cut_weights(spec, bundles)) == e1_zero
    assert_chain_matches_oracle(atable, spec, bundles, 48)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=4),
       st.integers(min_value=2, max_value=5), st.data())
def test_integer_chain_matches_oracle_on_products(n, r, data):
    # P^n x P^(r-1): the normalized table is all ones, -K = (n+1, r)
    spec = make_bundle(n, r)
    a = data.draw(st.integers(min_value=0, max_value=n), label="p")
    b = data.draw(st.integers(min_value=0, max_value=r - 1), label="xi")
    terms = data.draw(st.integers(min_value=0, max_value=64), label="terms")
    atable = {(i, j): 1 for i in range(64) for j in range(64 - i)}
    assert_chain_matches_oracle(atable, spec, [(1, 0)] * a + [(0, 1)] * b,
                                terms)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(1, 2), (2, 3), (4, 6)]), st.sampled_from(
    [[], [(1, 0)], [(0, 1)], [(1, 0), (0, 1)], [(0, 2)], [(1, 1)]]),
    st.integers(min_value=0, max_value=16), st.randoms(use_true_random=False))
def test_integer_chain_matches_oracle_on_rational_tables(nr, bundles, terms,
                                                         rng):
    # the non-integral path: numerators over one common denominator
    spec = make_bundle(*nr)
    atable = {(i, j): F(rng.randint(-30, 30), rng.randint(1, 12))
              for i in range(17) for j in range(17 - i)}
    try:
        lf.cut_weights(spec, bundles)
    except ValueError:
        with pytest.raises(ValueError, match="dilaton shift"):
            lf.regularized_periods(atable, spec, bundles, terms)
        return
    assert_chain_matches_oracle(atable, spec, bundles, terms)


def test_integer_chain_edge_counts(flagship, flagship_atable):
    spec = flagship[0]
    assert lf.regularized_periods(flagship_atable, spec, FLAGSHIP_CUT, 0) == []
    assert lf.regularized_periods(flagship_atable, spec, FLAGSHIP_CUT, 1) == [1]
    assert lf.regularized_periods(flagship_atable, spec, FLAGSHIP_CUT,
                                  10) == periods_fixture()
    with pytest.raises(ValueError, match="term count must be >= 0"):
        lf.regularized_periods(flagship_atable, spec, FLAGSHIP_CUT, -1)
    for cut in ([(2, 0)], [(3, 0)]):
        with pytest.raises(ValueError, match="dilaton shift"):
            lf.regularized_periods(flagship_atable, spec, cut, 8)


pf_coeff = st.fractions(min_value=-40, max_value=40, max_denominator=9)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(min_value=0, max_value=4),
                                 st.integers(min_value=0, max_value=3)),
                       pf_coeff.filter(bool), max_size=6),
       st.lists(pf_coeff, max_size=12))
def test_pf_apply_matches_fraction_reference(coeffs, seq):
    op = [lf.PFTerm(c, m, e) for (m, e), c in sorted(coeffs.items())]
    assert lf.pf_apply(op, seq) == ref_pf_apply(op, seq)


def outcome(search, seq, order, degree):
    """The search result, or the type of the error it raised."""
    try:
        return search(seq, order, degree)
    except ValueError as exc:
        return type(exc)


@settings(max_examples=60, deadline=None)
@given(pf_coeff.filter(bool), pf_coeff.filter(bool),
       st.integers(min_value=5, max_value=14), st.booleans())
def test_find_annihilator_matches_fraction_reference(scale, ratio, terms,
                                                     factorial_weight):
    # c * a^n has the annihilator D - a*t*D - a*t; c * a^n * n! has none
    # of order and degree 1
    seq = [scale * ratio ** n * (factorial(n) if factorial_weight else 1)
           for n in range(terms)]
    for order, degree in ((1, 1), (1, 2), (2, 1)):
        assert outcome(lf.find_annihilator, seq, order, degree) == \
            outcome(ref_find_annihilator, seq, order, degree)


def test_fraction_sequences_keep_their_results(flagship_atable, flagship):
    ones = [F(1)] * 8
    geometric = [lf.PFTerm(F(1), 0, 1), lf.PFTerm(F(-1), 1, 1),
                 lf.PFTerm(F(-1), 1, 0)]
    assert lf.find_annihilator(ones, 1, 1) == ref_find_annihilator(
        ones, 1, 1) == geometric
    assert lf.pf_apply(geometric, ones) == ref_pf_apply(geometric, ones) \
        == [0] * 8
    # the flagship's 64 regularized periods, as Fractions and as ints
    seq = lf.regularized_periods(flagship_atable, flagship[0], FLAGSHIP_CUT,
                                 64)
    op = lf.operator_from_lines(fixture_lines("pf_operator.txt"))
    for values in (seq, [F(x) for x in seq]):
        assert lf.pf_apply(op, values) == ref_pf_apply(op, values) == [0] * 64
    assert lf.find_annihilator(seq, 4, 9) == lf.pf_normalize(op)
    assert ref_find_annihilator([F(x) for x in seq], 4, 9) == \
        lf.pf_normalize(op)
    # a nonzero residual is reported exactly, in lowest terms
    assert lf.pf_apply(op, [F(x, 3) for x in seq[:3]] + [F(1, 2)]) == \
        ref_pf_apply(op, [F(x, 3) for x in seq[:3]] + [F(1, 2)])


def test_integral_operators_and_residuals_are_ints(flagship_atable,
                                                   flagship):
    # ints where integral: the searched operator has primitive int
    # coefficients, and integral residuals are ints, zero or not, also
    # over an operator with a denominator
    seq = lf.regularized_periods(flagship_atable, flagship[0], FLAGSHIP_CUT,
                                 64)
    found = lf.find_annihilator(seq, 4, 9)
    assert len(found) > 1 and all(type(t.coeff) is int for t in found)
    bumped = [x + pos for pos, x in enumerate(seq)]
    half = lf.parse_pf_operator("1/2*D - t")
    evens = [2 * x for x in seq]
    for op, values in ((found, seq), (found, bumped), (half, evens),
                       (half, [2 * x for x in bumped])):
        residual = lf.pf_apply(op, values)
        assert residual == ref_pf_apply(op, values)
        assert all(type(x) is int for x in residual)
    assert any(lf.pf_apply(found, bumped))
    assert lf.pf_apply(half, [0, 1]) == [0, F(1, 2)]
