"""Acceptance gate: ten end-to-end criteria over the full pipeline.

Each test prints one `CRITERION NN pass|fail` line and then asserts.
All comparisons are exact; there are no numeric tolerances anywhere.
"""

import random
import time
from fractions import Fraction

import pytest
from oracles import (check_flatness, check_grading, check_homogeneity,
                     check_purity, fiber_invariant, hypergeometric_modify,
                     mirror_map_correction, monomial_class, period_sequence,
                     ref_j_series, regularize, verify_relation)

from qfano import lefschetz, qde
from qfano import reconstruct as rc
from qfano import seeds as seedlib
from qfano.fixtures_io import (fixture_lines, load_named_expressions)
from qfano.ring import dual_basis, make_bundle

REGULARIZED_TEN = [1, 0, 10, 42, 414, 3300, 29890, 275940, 2608270, 25305000]
APERY_DIAGONAL = [1, 5, 73, 1445, 33001, 819005, 21460825, 584307365]


def _verdict(number, failures):
    print("CRITERION %02d %s" % (number, "fail" if failures else "pass"))
    assert not failures, "criterion %02d: %s" % (number, "; ".join(failures))


@pytest.fixture(scope="module")
def flagship():
    return make_bundle(4, 6, [-3, 5, -5])


@pytest.fixture(scope="module")
def matrices(flagship):
    return rc.reconstruct(flagship, seedlib.builtin_source(flagship))


@pytest.fixture(scope="module")
def fixture_matrices(flagship):
    mp = rc.QuantumMatrix.from_triplet_lines(
        flagship, "p", fixture_lines("flagship_mp.triplets"))
    mxi = rc.QuantumMatrix.from_triplet_lines(
        flagship, "xi", fixture_lines("flagship_mxi.triplets"))
    return mp, mxi


@pytest.fixture(scope="module")
def js14(flagship, matrices):
    mp, mxi = matrices
    return qde.j_series(mp, mxi, flagship, 14)


@pytest.fixture(scope="module")
def frames14(flagship, matrices):
    # the full frames, from the reference solve: the package solves the
    # unit row only
    mp, mxi = matrices
    return ref_j_series(mp, mxi, flagship, 14)


@pytest.fixture(scope="module")
def ctable14(js14):
    return qde.identity_coefficients(js14)


def test_criterion_01_reconstruction_matches_fixture(flagship,
                                                     fixture_matrices):
    failures = []
    start = time.monotonic()
    mp, mxi = rc.reconstruct(flagship, seedlib.builtin_source(flagship))
    for computed, reference in zip((mp, mxi), fixture_matrices):
        spot = computed.first_mismatch(reference)
        if spot is not None:
            failures.append("%s matrix differs at %r: computed %s, "
                            "fixture %s"
                            % (computed.label, spot,
                               computed.entry_string(*spot),
                               reference.entry_string(*spot)))
    elapsed = time.monotonic() - start
    if elapsed >= 5.0:
        failures.append("took %.2f s, budget is 5 s" % elapsed)
    _verdict(1, failures)


def test_criterion_02_ring_relations_hold(matrices):
    # the z-free terms of annihilator_4 and annihilator_3 are the quantum
    # relations of p and of xi
    mp, mxi = matrices
    operators = load_named_expressions(fixture_lines("qde_operators.txt"),
                                       parse=qde.parse_operator)
    failures = []
    for name in ("annihilator_4", "annihilator_3"):
        residual = verify_relation(mp, mxi, operators[name])
        if residual:
            failures.append("%s at z = 0: residual nonzero in rows %s"
                            % (name, sorted(residual)))
    _verdict(2, failures)


def test_criterion_03_structural_checks(matrices):
    mp, mxi = matrices
    failures = []
    bad = rc.flatness_defect(mp, mxi)
    if bad is not None:
        failures.append("pair not flat: %s" % bad)
    for mat in (mp, mxi):
        spot = check_grading(mat)
        if spot is not None:
            failures.append("%s matrix grading broken at %r"
                            % (mat.label, spot))
        spot = rc.check_three_point_symmetry(mat)
        if spot is not None:
            failures.append("%s matrix pairing asymmetry: %s"
                            % (mat.label, spot))
        spot = check_purity(mat)
        if spot is not None:
            failures.append("%s matrix purity: %s" % (mat.label, spot))
    _verdict(3, failures)


def test_criterion_04_apery_table(js14):
    table = qde.apery_table(js14, 8)
    reference = [[int(cell) for cell in line.split(",")]
                 for line in fixture_lines("apery_table_8x8.csv")
                 if line.strip() and not line.startswith("#")]
    failures = []
    if table != reference:
        spots = [(i, j) for i in range(8) for j in range(8)
                 if table[i][j] != reference[i][j]]
        failures.append("table differs from fixture at %s" % spots[:4])
    diagonal = [table[k][k] for k in range(8)]
    if diagonal != APERY_DIAGONAL:
        failures.append("diagonal is %s" % diagonal)
    for i in range(8):
        for j in range(8):
            if i > 2 * j and table[i][j] != 0:
                failures.append("expected zero at (%d,%d)" % (i, j))
    _verdict(4, failures)


def test_criterion_05_operators_annihilate(js14, matrices):
    named = load_named_expressions(fixture_lines("qde_operators.txt"))
    failures = []
    reach = max(a + b for (a, b) in js14.frames)
    if reach < 14:
        failures.append("series reaches only total order %d" % reach)
    names = sorted(named)
    reports = qde.check_operator([qde.parse_operator(named[name])
                                  for name in names], *matrices, 14)
    for name, bad in zip(names, reports):
        if bad is not None:
            failures.append("%s: %s" % (name, bad))
    _verdict(5, failures)


def test_criterion_06_flatness_and_homogeneity(js14, frames14, matrices):
    failures = []
    for series in (js14, frames14):
        bad = check_flatness(series, *matrices)
        if bad is not None:
            failures.append("flatness: %s" % bad)
    if qde.identity_coefficients(frames14) != qde.identity_coefficients(js14):
        failures.append("unit row differs from row one of the frames")
    bad = check_homogeneity(frames14)
    if bad is not None:
        failures.append("homogeneity: %s" % bad)
    _verdict(6, failures)


def test_criterion_07_period_sequence(flagship, matrices, ctable14):
    # the Fraction reference chain on the frame solve's table, and the
    # package's integer chain on the unit-row solve's normalized table
    bundles = lefschetz.parse_cut("p,xi^5")
    series = hypergeometric_modify(ctable14, flagship, bundles, 14)
    multiplier = mirror_map_correction(series)
    plain = period_sequence(series, multiplier, 10)
    regularized = regularize(plain)
    failures = []
    atable = qde.identity_series(*matrices, flagship, 9)
    if lefschetz.regularized_periods(atable, flagship, bundles,
                                     10) != regularized:
        failures.append("integer chain differs from the reference chain")
    if plain[2] != 5:
        failures.append("plain quadratic term is %s, expected 5" % plain[2])
    if regularized != REGULARIZED_TEN:
        failures.append("regularized sequence is %s" % regularized)
    packaged = [Fraction(line.split("#", 1)[0].strip())
                for line in fixture_lines("regularized_periods10.txt")
                if line.split("#", 1)[0].strip()]
    if regularized != packaged:
        failures.append("packaged sequence fixture differs")
    _verdict(7, failures)


def test_criterion_08_pf_operator_verified_and_recovered(flagship, matrices):
    mp, mxi = matrices
    failures = []
    start = time.monotonic()
    atable = qde.identity_series(mp, mxi, flagship, 63)
    bundles = lefschetz.parse_cut("p,xi^5")
    sequence = lefschetz.regularized_periods(atable, flagship, bundles, 64)
    operator = lefschetz.operator_from_lines(fixture_lines("pf_operator.txt"))
    residual = lefschetz.pf_apply(operator, sequence)
    bad = [pos for pos, value in enumerate(residual) if value]
    if bad:
        failures.append("fixture operator residual nonzero at %s" % bad[:4])
    found = lefschetz.find_annihilator(sequence, 4, 9)
    if found is None:
        failures.append("search returned no annihilator")
    elif found != lefschetz.pf_normalize(operator):
        failures.append("search result differs from the fixture operator")
    elapsed = time.monotonic() - start
    if elapsed >= 120.0:
        failures.append("took %.1f s, budget is 120 s" % elapsed)
    _verdict(8, failures)


def test_criterion_09_product_bundle_products():
    spec = make_bundle(1, 2)
    mp, mxi = rc.reconstruct(spec, seedlib.builtin_source(spec))
    failures = []
    if verify_relation(mp, mxi, qde.parse_operator("D1^2 - q1")):
        failures.append("p * p != q1")
    if verify_relation(mp, mxi, qde.parse_operator("D2^2 - q2")):
        failures.append("xi * xi != q2")
    _verdict(9, failures)


def test_criterion_10_seed_oracle_consistency(flagship, fixture_matrices):
    spec = flagship
    rng = random.Random(20260818)
    failures = []
    # dense classes for the fibre oracle, basis positions for the package
    classes = [monomial_class(spec, a, b) for (a, b) in spec.basis]
    for _ in range(30):
        i = rng.randrange(spec.size)
        j = rng.randrange(spec.size)
        k = rng.randint(2, 5)
        if fiber_invariant(spec, classes[i], classes[j], k):
            failures.append("fiber invariant (%d,%d) k=%d nonzero"
                            % (i, j, k))
        if seedlib.blowup_invariant(spec, i, j, k):
            failures.append("base-ray invariant (%d,%d) k=%d nonzero"
                            % (i, j, k))
    fiber_sum = spec.dim - 1 + spec.d2
    base_sum = spec.dim - 1 + spec.d1
    for _ in range(40):
        i = rng.randrange(spec.size)
        j = rng.randrange(spec.size)
        total = spec.degree(i) + spec.degree(j)
        if total != fiber_sum and fiber_invariant(
                spec, classes[i], classes[j], 1):
            failures.append("fiber invariant nonzero off dimension "
                            "at (%d,%d)" % (i, j))
        if total != base_sum and seedlib.blowup_invariant(spec, i, j, 1):
            failures.append("base-ray invariant nonzero off dimension "
                            "at (%d,%d)" % (i, j))
    hand = seedlib.blowup_invariant(
        spec, spec.position(4, 0), spec.position(2, 4), 1)
    if hand != 2:
        failures.append("pairing of p^4 with p^2 xi^4 is %s, expected 2"
                        % hand)
    mp_fixture, _ = fixture_matrices
    col = spec.position(4, 0)
    for i in range(spec.size):
        expected = sum(c * seedlib.blowup_invariant(spec, col, k, 1)
                       for k, c in dual_basis(spec)[i].items())
        got = mp_fixture.entry(i, col).get((1, 0), Fraction(0))
        if got != expected:
            failures.append("column %d row %d: matrix has %s, oracle %s"
                            % (col + 1, i + 1, got, expected))
    _verdict(10, failures)
