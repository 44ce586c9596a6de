"""Tests for the matrix reconstruction and relation verification."""

import re
import time
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import (check_grading, check_purity, classical, classical_mul,
                     fibre_xi_seed_columns, gram_three_point_symmetry,
                     monomial_class, pairing_matrix, rescaled, set_q_zero,
                     verify_relation)

from qfano import qde
from qfano import reconstruct as rc
from qfano import seeds as seeds_mod
from qfano.fixtures_io import fixture_lines, load_named_expressions
from qfano.linalg import accumulate
from qfano.opparse import parse_number
from qfano.ring import basis_index, make_bundle
from qfano.schubert import FLAGSHIP


@pytest.fixture(scope="module")
def flagship():
    return make_bundle(4, 6, [-3, 5, -5])


@pytest.fixture(scope="module")
def flagship_matrices(flagship):
    return rc.reconstruct(flagship, seeds_mod.builtin_source(flagship))


@pytest.fixture(scope="module")
def p1p1():
    return make_bundle(1, 2)


@pytest.fixture(scope="module")
def p1p1_matrices(p1p1):
    return rc.reconstruct(p1p1, seeds_mod.builtin_source(p1p1))


def test_flagship_matches_fixtures(flagship, flagship_matrices):
    mp, mxi = flagship_matrices
    fmp = rc.QuantumMatrix.from_triplet_lines(
        flagship, "p", fixture_lines("flagship_mp.triplets"))
    fmxi = rc.QuantumMatrix.from_triplet_lines(
        flagship, "xi", fixture_lines("flagship_mxi.triplets"))
    assert mp.first_mismatch(fmp) is None
    assert mxi.first_mismatch(fmxi) is None
    assert mp == fmp and mxi == fmxi


def test_flagship_runtime(flagship):
    t0 = time.time()
    rc.reconstruct(flagship, seeds_mod.builtin_source(flagship))
    assert time.time() - t0 < 5.0


def test_notable_columns(flagship, flagship_matrices):
    mp, mxi = flagship_matrices
    # top-degree column of the p matrix carries the q1^2*q2 entry
    top = basis_index(flagship, 9, 4) - 1
    assert mp.entry(0, top) == {(2, 1): Fraction(2)}
    # first column filled by the degree-5 sweep
    col16 = basis_index(flagship, 5, 4) - 1
    assert mp.column(col16) == {
        11: {(1, 0): Fraction(-1)},
        12: {(1, 0): Fraction(1)},
        13: {(1, 0): Fraction(-1)},
        14: {(1, 0): Fraction(1)},
    }
    # xi column of xi^5: Chern insertion pattern plus the fibre term
    col20 = basis_index(flagship, 5, 0) - 1
    assert mxi.column(col20) == {
        0: {(0, 1): Fraction(1)},
        basis_index(flagship, 6, 3) - 1: {(0, 0): Fraction(5)},
        basis_index(flagship, 6, 2) - 1: {(0, 0): Fraction(-5)},
        basis_index(flagship, 6, 1) - 1: {(0, 0): Fraction(3)},
    }


@pytest.fixture(scope="module")
def operators():
    return load_named_expressions(fixture_lines("qde_operators.txt"),
                                  parse=qde.parse_operator)


def test_ring_relations(flagship_matrices, operators):
    # the z-free terms of annihilator_4 and annihilator_3 are the quantum
    # relations of p and of xi
    mp, mxi = flagship_matrices
    assert verify_relation(mp, mxi, operators["annihilator_4"]) == {}
    assert verify_relation(mp, mxi, operators["annihilator_3"]) == {}


def test_every_operator_gives_a_relation_at_z_zero(flagship_matrices,
                                                    operators):
    mp, mxi = flagship_matrices
    assert sorted(operators) == ["annihilator_%d" % k for k in (1, 2, 3, 4)]
    for name, op in operators.items():
        assert any(t.z == 0 for t in op), name
        assert verify_relation(mp, mxi, op) == {}, name


def test_changed_z_free_coefficient_leaves_its_term(flagship_matrices,
                                                    operators):
    # raising one z-free coefficient of annihilator_4 by 1 leaves that
    # term alone on the identity, and no such term vanishes there
    mp, mxi = flagship_matrices
    op = operators["annihilator_4"]
    free = [k for k, t in enumerate(op) if t.z == 0]
    assert len(free) == 7
    for k in free:
        changed = list(op)
        changed[k] = op[k]._replace(coeff=op[k].coeff + 1)
        res = verify_relation(mp, mxi, changed)
        assert res, op[k]
        assert res == verify_relation(mp, mxi, [op[k]._replace(coeff=1)])


def test_sign_variant_residual_is_pinned(flagship, flagship_matrices):
    # flipping the signs of the two q1^2 terms leaves 2*q1^2*(2*xi - p)
    mp, mxi = flagship_matrices
    variant = qde.parse_operator(
        "D1^5 - q1^2*D1 + 2*q1^2*D2 + 2*q1*D1^3 - 2*q1*D1^2*D2"
        " - q1*D1*D2^2 - q1*D2^3")
    res = verify_relation(mp, mxi, variant)
    assert res == {
        1: {(2, 0): Fraction(-2)},
        2: {(2, 0): Fraction(4)},
    }


def test_classical_relation_at_q_zero(flagship_matrices):
    mp, mxi = flagship_matrices
    assert verify_relation(set_q_zero(mp), set_q_zero(mxi),
                           qde.parse_operator("D1^5")) == {}


def test_structural_invariants(flagship_matrices):
    mp, mxi = flagship_matrices
    assert rc.flatness_defect(mp, mxi) is None
    assert check_grading(mp) is None
    assert check_grading(mxi) is None
    assert check_purity(mp) is None
    assert check_purity(mxi) is None
    assert rc.check_three_point_symmetry(mp) is None
    assert rc.check_three_point_symmetry(mxi) is None


def test_q_zero_recovers_classical(flagship, flagship_matrices):
    mp, mxi = flagship_matrices
    for mat, (da, db) in ((mp, (1, 0)), (mxi, (0, 1))):
        grid = classical(mat)
        divisor = monomial_class(flagship, da, db)
        for j in range(flagship.size):
            want = classical_mul(flagship, divisor,
                                 monomial_class(flagship, *flagship.basis[j]))
            got = [grid[i][j] for i in range(flagship.size)]
            assert got == want, (mat.label, j)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=4),
       st.integers(min_value=2, max_value=5),
       st.lists(st.integers(min_value=-4, max_value=4), max_size=5),
       st.randoms(use_true_random=False))
@example(4, 6, [-3, 5, -5], None)
@example(1, 2, [], None)
def test_seed_independence_cross_check(n, r, chern, rng):
    # every degree <= n xi column, derived from its p column, equals the
    # fibre-line computation, whatever the base-ray seed values are; the
    # builtin geometries run with their own seeds
    try:
        spec = make_bundle(n, r, chern[:r])
    except ValueError:
        assume(False)
    assume(spec.d1 + spec.d2 > spec.n + 1)
    if rng is None:
        table = seeds_mod.builtin_source(spec)
    else:
        table = seeds_mod.SeedTable(spec)
        values = {}
        for i, j, k in seeds_mod.demanded_invariants(spec):
            key = (min(i, j), max(i, j), k)
            values.setdefault(key, Fraction(rng.randint(-9, 9),
                                            rng.randint(1, 4)))
            table.set(i, j, k, values[key])
    _, mxi = rc.reconstruct(spec, table)
    want = fibre_xi_seed_columns(spec)
    assert sorted(want) == [j for j in range(spec.size)
                            if spec.degree(j) <= spec.n]
    for j, col in want.items():
        assert mxi.column(j) == col, j


def test_p1p1_pipeline(p1p1, p1p1_matrices):
    mp, mxi = p1p1_matrices
    fmp = rc.QuantumMatrix.from_triplet_lines(
        p1p1, "p", fixture_lines("p1p1_mp.triplets"))
    fmxi = rc.QuantumMatrix.from_triplet_lines(
        p1p1, "xi", fixture_lines("p1p1_mxi.triplets"))
    assert mp == fmp and mxi == fmxi
    assert verify_relation(mp, mxi, qde.parse_operator("D1^2 - q1")) == {}
    assert verify_relation(mp, mxi, qde.parse_operator("D2^2 - q2")) == {}


def test_reconstruct_deterministic(flagship, flagship_matrices):
    mp, mxi = flagship_matrices
    mp2, mxi2 = rc.reconstruct(flagship, seeds_mod.builtin_source(flagship))
    assert mp == mp2 and mxi == mxi2


def test_triplet_round_trip(flagship, flagship_matrices):
    mp, mxi = flagship_matrices
    for mat in (mp, mxi):
        again = rc.QuantumMatrix.from_triplet_lines(
            flagship, mat.label, mat.triplet_lines())
        assert again == mat


def stored_values(table, mats):
    """Every value a seed table and a pair of matrices store, checked to be
    an int where it is integral and a Fraction only where a denominator
    exists."""
    values = list(table.entries.values()) if table else []
    values += [v for mat in mats for j in range(mat.spec.size)
               for qp in mat.column(j).values() for v in qp.values()]
    for v in values:
        assert type(v) is (int if v.denominator == 1 else Fraction), v
    return values


@settings(max_examples=20, deadline=None)
@given(st.tuples(st.integers(min_value=1, max_value=4),
                 st.integers(min_value=2, max_value=5)))
@example(FLAGSHIP)
def test_builtin_sources_store_ints(key):
    # a builtin seed source is integral, and so is every matrix it fixes
    spec = make_bundle(*key)
    table = seeds_mod.builtin_source(spec)
    values = stored_values(table, rc.reconstruct(spec, table))
    assert all(type(v) is int for v in values)


def test_fractions_stored_only_where_a_denominator_exists(
        flagship, flagship_matrices, p1p1, tmp_path):
    # the rescaled flagship read back from its triplet lines, and a
    # p1-trivial seed table holding 3/2, mix ints and Fractions
    back = []
    for mat in flagship_matrices:
        want = rescaled(flagship, mat)
        back.append(rc.QuantumMatrix.from_triplet_lines(
            flagship, mat.label, want.triplet_lines()))
        assert back[-1] == want
    seeds_file = tmp_path / "seeds.txt"
    seeds_file.write_text("(1,1) (2,1) 1 0 3/2\n(1,0) (2,1) 1 0 0\n")
    table = seeds_mod.load_seeds(str(seeds_file), p1p1)
    p1_values = stored_values(table, rc.reconstruct(p1p1, table))
    for values in (stored_values(None, back), p1_values):
        assert {type(v) for v in values} == {int, Fraction}
    assert Fraction(3, 2) in p1_values


@pytest.mark.parametrize("field", [0, 3, 4], ids=["row", "b", "value"])
@pytest.mark.parametrize("lit", ["1e3", "\u0663", "1_0"])
def test_triplet_literal_outside_grammar(field, lit):
    # int() and Fraction() read all three; the one literal reader does not
    spec = make_bundle(1, 2)
    lines = list(fixture_lines("p1p1_mp.triplets"))
    lineno, line = [(n, text) for n, text in enumerate(lines, 1)
                    if text.strip() and not text.startswith("#")][2]
    tok = line.split()
    tok[field] = lit
    lines[lineno - 1] = " ".join(tok)
    with pytest.raises(ValueError, match=re.escape(
            "triplet line %d: bad %s %r"
            % (lineno, "number" if field == 4 else "integer", lit))):
        rc.QuantumMatrix.from_triplet_lines(spec, "p", lines)


LITERAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


@settings(deadline=None)
@given(st.one_of(st.from_regex(LITERAL, fullmatch=True),
                 st.text("-+/0123456789_ e.\u0663", max_size=8)))
def test_number_literal_reads_as_its_fraction(text):
    # the one numeric grammar: an optional -, ASCII digits, and / with
    # ASCII digits over a nonzero denominator; every literal it accepts
    # reads as the value of Fraction(text), built from the integer parts,
    # an int exactly when that value is integral
    if LITERAL.fullmatch(text) and int(text.partition("/")[2] or 1):
        value = parse_number(text, fraction=True)
        want = Fraction(text)
        assert value == want
        assert type(value) is (int if want.denominator == 1 else Fraction)
    else:
        with pytest.raises(ValueError):
            parse_number(text, fraction=True)


def test_triplet_grading_validation(flagship):
    with pytest.raises(ValueError, match="grading"):
        rc.QuantumMatrix.from_triplet_lines(flagship, "p", ["1 1 0 0 1"])
    with pytest.raises(ValueError, match="pure-q2"):
        rc.QuantumMatrix.from_triplet_lines(flagship, "p", ["1 20 0 1 1"])
    with pytest.raises(ValueError, match="pure-q1"):
        rc.QuantumMatrix.from_triplet_lines(flagship, "xi", ["1 2 1 0 1"])


def test_zero_seeds_all_zero_chern_gives_classical_p_matrix():
    # with no quantum seeds and no Chern twist, the p-direction corrections
    # from the two lemma routes cancel exactly
    spec = make_bundle(2, 3)
    table = seeds_mod.SeedTable(spec)
    for (i, j, k) in seeds_mod.demanded_invariants(spec):
        table.set(i, j, k, 0)
    mp, mxi = rc.reconstruct(spec, table)
    for j in range(spec.size):
        for row, qp in mp.column(j).items():
            assert set(qp) == {(0, 0)}, (row, j)
    grid = classical(mp)
    p = monomial_class(spec, 1, 0)
    for j in range(spec.size):
        want = classical_mul(spec, p, monomial_class(spec, *spec.basis[j]))
        assert [grid[i][j] for i in range(spec.size)] == want


def test_missing_seed_propagates(flagship):
    with pytest.raises(seeds_mod.MissingSeedError):
        rc.reconstruct(flagship, seeds_mod.SeedTable(flagship))


# The flagship and every product bundle with n <= 3, r <= 4 (p1-trivial
# among them), as (n, r, chern).
SYMMETRY_SPECS = [(4, 6, (-3, 5, -5))] + [(n, r, ()) for n in (1, 2, 3)
                                          for r in (2, 3, 4)]


@cache
def builtin_matrices(key):
    spec = make_bundle(*key)
    return rc.reconstruct(spec, seeds_mod.builtin_source(spec))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SYMMETRY_SPECS), st.sampled_from((0, 1)), st.data())
def test_dual_basis_symmetry_check_agrees_with_gram_oracle(key, which, data):
    # Perturbed entries need not respect the grading: M D = D (G M) D
    # holds for any matrix of q-polynomials, so set_column is bypassed.
    mat = builtin_matrices(key)[which]
    spec = mat.spec
    cols = [{row: dict(qp) for row, qp in mat.column(j).items()}
            for j in range(spec.size)]
    change = st.tuples(st.integers(0, spec.size - 1),
                       st.integers(0, spec.size - 1),
                       st.tuples(st.integers(0, 2), st.integers(0, 2)),
                       st.builds(Fraction, st.sampled_from((-2, -1, 1, 3)),
                                 st.integers(1, 3)))
    if data.draw(st.booleans(), label="symmetric"):
        # M + c q^s (E_ij + E_ji) G keeps both M D and G M symmetric
        i, j, shift, c = data.draw(change)
        gram = pairing_matrix(spec)
        for row, other in ((i, j), (j, i)):
            for k, g in enumerate(gram[other]):
                if g:
                    accumulate(cols[k].setdefault(row, {}), [(shift, c * g)])
    else:
        for i, j, shift, c in data.draw(st.lists(change, min_size=1,
                                                 max_size=3)):
            accumulate(cols[j].setdefault(i, {}), [(shift, c)])
    perturbed = rc.QuantumMatrix(spec, mat.label)
    perturbed.cols = [{row: qp for row, qp in col.items() if qp}
                      for col in cols]
    assert ((rc.check_three_point_symmetry(perturbed) is None)
            == (gram_three_point_symmetry(perturbed) is None))
