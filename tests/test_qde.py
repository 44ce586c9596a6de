"""Quantum differential system: frames, coefficient tables, operators."""

import re
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace
from math import factorial, gcd

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (LAMBDA, MU, basis_scale, check_flatness,
                     check_homogeneity, ray, rays, ref_check_operator,
                     ref_classical, ref_flatness_defect, ref_j_series,
                     ref_route_residual, ref_solve, ref_split_matrix,
                     rescaled, vector)

from qfano import qde
from qfano.fixtures_io import fixture_lines, load_named_expressions
from qfano.linalg import col_add_into
from qfano.reconstruct import QuantumMatrix, flatness_defect, reconstruct
from qfano.ring import basis_index, make_bundle
from qfano.seeds import SeedTable, builtin_source

F = Fraction


@pytest.fixture(scope="module")
def p1p1():
    spec = make_bundle(1, 2)
    mp, mxi = reconstruct(spec, builtin_source(spec))
    return spec, mp, mxi


@pytest.fixture(scope="module")
def p1p1_half():
    # p1-trivial with the seed (1,1) (2,1) 1 0 3/2: the one recorded input
    # whose base row is not integral
    spec = make_bundle(1, 2)
    table = SeedTable(spec)
    for pair, value in (((1, 1), F(3, 2)), ((1, 0), 0)):
        table.set(basis_index(spec, *pair) - 1, basis_index(spec, 2, 1) - 1,
                  1, value)
    mp, mxi = reconstruct(spec, table)
    return spec, mp, mxi


@pytest.fixture(scope="module")
def p1p1_js(p1p1):
    spec, mp, mxi = p1p1
    return qde.j_series(mp, mxi, spec, 6)


@pytest.fixture(scope="module")
def p1p1_frames(p1p1):
    spec, mp, mxi = p1p1
    return ref_j_series(mp, mxi, spec, 6)


@pytest.fixture(scope="module")
def flagship():
    spec = make_bundle(4, 6, [-3, 5, -5])
    mp, mxi = reconstruct(spec, builtin_source(spec))
    return spec, mp, mxi


@pytest.fixture(scope="module")
def flagship_js(flagship):
    spec, mp, mxi = flagship
    return qde.j_series(mp, mxi, spec, 8)


@pytest.fixture(scope="module")
def flagship_frames(flagship):
    spec, mp, mxi = flagship
    return ref_j_series(mp, mxi, spec, 8)


@pytest.fixture(scope="module")
def flagship_rescaled(flagship):
    # rational inputs: the classical denominator of each ray is > 1
    spec, mp, mxi = flagship
    return spec, rescaled(spec, mp), rescaled(spec, mxi)


@pytest.fixture(scope="module")
def flagship_halved(flagship):
    # every seed value halved, the seeds of test_cli's halved dump: the
    # ring under q1 -> q1/2, whose fibre rows take the Bareiss rescale
    spec = flagship[0]
    table = SeedTable(spec)
    for (i, j, k), value in builtin_source(spec).entries.items():
        table.set(i, j, k, F(value) / 2)
    return (spec,) + reconstruct(spec, table)


@pytest.fixture(scope="module")
def flagship_rescaled_js(flagship_rescaled):
    spec, mp, mxi = flagship_rescaled
    return qde.j_series(mp, mxi, spec, 4)


@pytest.fixture(scope="module")
def flagship_rescaled_frames(flagship_rescaled):
    spec, mp, mxi = flagship_rescaled
    return ref_j_series(mp, mxi, spec, 4)


@pytest.fixture(scope="module")
def operators():
    return load_named_expressions(fixture_lines("qde_operators.txt"))


def normalized(ctable, spec):
    """{(a, b): (a!)^d1 (b!)^d2 c_{a,b}}, the form identity_series returns."""
    return {(a, b): c * factorial(a) ** spec.d1 * factorial(b) ** spec.d2
            for (a, b), c in ctable.items()}


def apery_fixture():
    return [[int(tok) for tok in line.split(",")]
            for line in fixture_lines("apery_table_8x8.csv") if line.strip()]


def test_p1p1_coefficients_closed_form(p1p1_js):
    ctable = qde.identity_coefficients(p1p1_js)
    assert set(ctable) == {(a, b) for a in range(7) for b in range(7 - a)}
    for (a, b), val in ctable.items():
        assert val == F(1, (factorial(a) * factorial(b)) ** 2)


@pytest.mark.parametrize("n,r", [(n, r) for n in (1, 2, 3, 4)
                                 for r in (2, 3, 4, 5)])
def test_product_bundles_closed_form(n, r):
    # P^n x P^(r-1): c_{a,b} = 1 / ((a!)^(n+1) (b!)^r) on the unit row and
    # on full frames, so the normalized table is all ones, and the
    # J-series is annihilated by D1^(n+1) - q1 and D2^r - q2; p1-trivial
    # (P^1 x P^1) runs to order 30, where the unit rows of j_series carry
    # factorial weights of about 200 bits
    spec = make_bundle(n, r)
    mp, mxi = reconstruct(spec, builtin_source(spec))
    order = 30 if (n, r) == (1, 2) else 5
    expected = {(a, b): F(1, factorial(a) ** (n + 1) * factorial(b) ** r)
                for a in range(order + 1) for b in range(order + 1 - a)}
    ones = qde.identity_series(mp, mxi, spec, order)
    assert ones == normalized(expected, spec) == dict.fromkeys(expected, 1)
    assert all(type(val) is int for val in ones.values())
    js = qde.j_series(mp, mxi, spec, order)
    assert qde.identity_coefficients(js) == expected
    assert {key: frame[0][0] for key, frame in js.frames.items()} == expected
    size = order // 2 + 1
    assert qde.apery_table(js, size) == [[1] * size] * size
    texts = ("D1^%d - q1" % (n + 1), "D2^%d - q2" % r)
    reports = qde.check_operator([qde.parse_operator(t) for t in texts],
                                 mp, mxi, order)
    assert reports == [None, None], texts


def test_p1p1_vectors_match_hand_oracle(p1p1_frames):
    # basis order (1, p, xi, p*xi); J is the first column of the full frames
    assert vector(p1p1_frames, 0, 0) == [{0: 1}, {}, {}, {}]
    assert vector(p1p1_frames, 1, 0) == [{-2: 1}, {-3: -2}, {}, {}]
    assert vector(p1p1_frames, 1, 1) == [{-4: 1}, {-5: -2}, {-5: -2},
                                         {-6: 4}]


def test_p1p1_row_recursion_closed_form(p1p1):
    spec, mp, mxi = p1p1
    atable = qde.identity_series(mp, mxi, spec, 10)
    assert len(atable) == 66
    for (a, b), val in atable.items():
        # c_{a,b} = 1/((a!)(b!))^2 times (a!)^2 (b!)^2
        assert val == 1


def test_flagship_hand_coefficients(flagship_js):
    c = qde.identity_coefficients(flagship_js)
    assert c[(0, 0)] == 1
    assert c[(1, 0)] == 0
    assert c[(0, 1)] == 1
    assert c[(1, 1)] == 5
    assert c[(0, 2)] == F(1, 64)
    assert c[(2, 1)] == 1


def test_flagship_apery_corner(flagship, flagship_js):
    spec = flagship[0]
    table = qde.apery_table(flagship_js, 4)
    expected = [row[:4] for row in apery_fixture()[:4]]
    assert table == expected


def test_apery_fixture_structure():
    table = apery_fixture()
    assert [table[i][i] for i in range(8)] == [
        1, 5, 73, 1445, 33001, 819005, 21460825, 584307365]
    for i in range(8):
        for j in range(8):
            assert (table[i][j] == 0) == (i > 2 * j)


def stored(table):
    """A stand-in series whose stored identity entries are the given
    (a!)^d1 (b!)^d2 c_{a,b}, as one-entry blocks."""
    return SimpleNamespace(blocks={key: ([val.numerator], val.denominator)
                                   for key, val in table.items()})


def test_apery_rejects_non_integer():
    with pytest.raises(ValueError, match="not an integer"):
        qde.apery_table(stored({(0, 0): F(1, 3)}), 1)


def test_apery_reports_missing_order():
    with pytest.raises(ValueError, match="order >= 3"):
        qde.apery_table(stored({(0, 0): F(1), (0, 1): F(1), (1, 0): F(0),
                                (1, 1): F(5), (0, 2): F(1), (2, 0): F(0)}), 3)


def test_apery_errors_are_typed():
    with pytest.raises(qde.NonIntegralError, match=re.escape(
            "normalized coefficient (0,0) is not an integer: 1/3")):
        qde.apery_table(stored({(0, 0): F(1, 3)}), 1)
    with pytest.raises(ValueError) as err:
        qde.apery_table(stored({(0, 0): F(1)}), 2)
    assert not isinstance(err.value, qde.NonIntegralError)


def test_row_recursion_matches_frames(flagship, flagship_frames):
    # the row recursion against entry (0, 0) of the reference's full frames
    spec, mp, mxi = flagship
    deep = qde.identity_series(mp, mxi, spec, 8)
    assert deep == normalized(qde.identity_coefficients(flagship_frames),
                              spec)
    # the normalized flagship table is integral: the Apery table's entries
    assert all(type(val) is int for val in deep.values())
    assert [deep[(i, i)] for i in range(5)] == [1, 5, 73, 1445, 33001]


def assert_leading_rows(unit, full, size):
    """Every block of unit is row one of full's block at its key, compared
    as Fractions, and the two hold the same keys."""
    assert set(unit) == set(full)
    for key, (vec, den) in full.items():
        rvec, rden = unit[key]
        assert [F(x, rden) for x in rvec] == [
            F(x, den) for x in vec[:size]], key


@pytest.mark.parametrize("bundle", ["p1p1", "flagship"])
def test_unit_row_is_row_one_of_the_frames(request, bundle):
    # the unit-row solve stores row one of the full-frame reference, block
    # for block, on the weighted index set of a cut, and for rescaled
    # rational inputs too
    spec, mp, mxi = request.getfixturevalue(bundle)
    for pair in ((mp, mxi), (rescaled(spec, mp), rescaled(spec, mxi))):
        assert_leading_rows(row_blocks(*pair, spec, 12, (2, 1)),
                            dict(ref_solve(*pair, spec, 12, spec.size,
                                           (2, 1))), spec.size)


def row_blocks(mp, mxi, spec, order, weights):
    """{(a, b): block} built from the row batches of the whole unit-row
    solve, in the form of the per-block solve."""
    out = {}
    for b, slots, (cols, dens, width) in qde._unit_rows(mp, mxi, spec, order,
                                                        weights, True):
        for a in range(slots):
            out[(a, b)] = (
                [col[a] if col and a < width else 0 for col in cols],
                dens[a] if dens and a < width else 1)
    return out


@pytest.mark.parametrize("bundle", ["flagship", "p1p1", "flagship_rescaled"])
def test_j_series_solves_only_the_unit_row(request, bundle, monkeypatch):
    # j_series holds a block at every a + b <= order, row one of the
    # reference's full frame by value, and walks no ray wider than one
    # frame row: no n x n block is solved
    spec, mp, mxi = request.getfixturevalue(bundle)
    widths = []

    def spy(walk):
        def walk_spy(scale, ray, rhs, plan):
            widths.append(len(ray.level))
            return walk(scale, ray, rhs, plan)
        return walk_spy

    for order in (0, 1, 6, 16):
        full = ref_j_series(mp, mxi, spec, order).blocks
        with monkeypatch.context() as patch:
            patch.setattr(qde, "_row_walk", spy(qde._row_walk))
            js = qde.j_series(mp, mxi, spec, order)
        assert set(js.blocks) == {(a, b) for a in range(order + 1)
                                  for b in range(order + 1 - a)}
        assert_leading_rows(js.blocks, full, spec.size)
        assert set(widths) == ({spec.size} if order else set()), order
        widths.clear()


@pytest.mark.parametrize("bundle", ["flagship", "p1p1", "flagship_rescaled",
                                    "p1p1_half"])
@pytest.mark.parametrize("weights", [(1, 1), (2, 1), (1, 2)])
def test_row_batches_match_per_block_solve(request, bundle, weights):
    # every block of the unit row, read from the row batches, is the
    # per-block reference's bit for bit, and so is the table; p1p1_half
    # carries denominators on the base row
    spec, mp, mxi = request.getfixturevalue(bundle)
    for order in (0, 1, 2, 16, 40):
        ref = dict(ref_solve(mp, mxi, spec, order, 1, weights))
        assert row_blocks(mp, mxi, spec, order, weights) == ref, order
        table = qde.identity_series(mp, mxi, spec, order, weights)
        assert table == {key: F(vec[0], den)
                         for key, (vec, den) in ref.items()}
        assert all(type(table[key]) is int
                   for key, (vec, den) in ref.items() if vec[0] % den == 0)


@pytest.mark.parametrize("bundle", ["flagship", "flagship_rescaled", "p1p1",
                                    "p1p1_half", "flagship_halved"])
@pytest.mark.parametrize("weights", [(1, 1), (2, 1), (1, 2)])
def test_pruned_rows_keep_the_whole_walks_values(request, bundle, weights):
    # identity_series walks each row on a pruned plan: entry 0 and the
    # source entries of the rays that read the row (both rays on the base
    # row) hold the whole walk's values, and every other entry is None;
    # the closing gcd runs over the kept entries alone, so a row's
    # (cols, dens) may differ
    spec, mp, mxi = request.getfixturevalue(bundle)
    pray, xray = qde._split_matrix(mp), qde._split_matrix(mxi)
    keep = {0} | {k for part in xray.parts.values() for k, _ in part}
    base_keep = keep | {k for (c, d), part in pray.parts.items() if not d
                        for k, _ in part}
    for order in (0, 1, 2, 7, 16, 40):
        for (b, slots, full), (pb, pslots, pruned) in zip(
                qde._unit_rows(mp, mxi, spec, order, weights, True),
                qde._unit_rows(mp, mxi, spec, order, weights, False),
                strict=True):
            entries = keep if b else base_keep
            assert (b, slots) == (pb, pslots)
            assert row_values(pruned, entries, slots) == row_values(
                full, entries, slots), (order, b)
            assert {p for p, col in enumerate(pruned[0]) if col} <= entries


def test_identity_series_walks_only_the_entries_it_reads(flagship,
                                                         monkeypatch):
    # a flagship fibre row is read at entry 0 and the 7 source entries of
    # M_xi's q-parts: identity_series materializes 17 of its 30 entries,
    # 13 pass-through entries folded into 5 divisions by a power of the
    # step, while j_series, which returns the whole unit row, walks all
    # 30 one division each
    spec, mp, mxi = flagship
    walked = []
    walk = qde._row_walk

    def walk_spy(scale, ray, rhs, plan):
        row = walk(scale, ray, rhs, plan)
        walked.append((len(plan[0]), sum(e for _, _, e in plan[0]),
                       sum(col is not None for col in row[0])))
        return row

    monkeypatch.setattr(qde, "_row_walk", walk_spy)
    qde.identity_series(mp, mxi, spec, 63)
    assert len(walked) == 63 and set(walked) == {(17, 30, 7)}
    walked.clear()
    qde.j_series(mp, mxi, spec, 16)
    assert len(walked) == 16 and {n for n, _, _ in walked} == {30}
    assert {e for _, e, _ in walked} == {30}


def test_row_walk_rescales_only_the_inexact_slots(flagship_rescaled,
                                                  monkeypatch):
    # the rescaled unit row at order 40 takes three inexact divisions,
    # one on each of fibre rows 5, 8 and 10: the row walk rescales those
    # three slots and no other, as the per-block solve rescales those
    # three blocks
    spec, mp, mxi = flagship_rescaled
    scales = []
    factor = qde._bareiss_factor

    def factor_spy(scale, ray, levels):
        scales.append(scale)
        return factor(scale, ray, levels)

    monkeypatch.setattr(qde, "_bareiss_factor", factor_spy)
    blocks = row_blocks(mp, mxi, spec, 40, (1, 1))
    assert scales == [5, 8, 10]
    scales.clear()
    assert dict(ref_solve(mp, mxi, spec, 40, 1)) == blocks
    assert scales == [5, 8, 10]


@pytest.mark.parametrize("bundle", ["flagship", "flagship_rescaled"])
def test_row_walk_matches_the_block_walk_slot_by_slot(request, bundle,
                                                      monkeypatch):
    # made-up right-hand sides with nonzero entries at every level and a
    # scale that few of them divide: slots rescale early in the walk and
    # read right-hand side entries after it; one slot is zero, one is
    # zero at every entry past the first, and the last is cut off
    spec, mp, mxi = request.getfixturevalue(bundle)
    size = spec.size
    whole = set(range(size))
    vecs = [[(37 * p + 11 * a) % 23 - 11 for p in range(size)]
            for a in range(4)] + [[0] * size, [5] + [0] * (size - 1),
                                  [0] * size]
    lcms = [1, 6, 1, 35, 1, 2, 1]
    for qmat in (mp, mxi):
        ray = qde._split_matrix(qmat)
        for scale in (1, 7):
            blocks = [oracles._sylvester_solve(scale, ray,
                                               (vec, den * ray.den))
                      if any(vec) else (vec, 1)
                      for vec, den in zip(vecs, lcms)]
            r = [list(col) if any(col) else None for col in zip(*vecs)]
            cols, dens, width = qde._row_walk(
                scale, ray, (r, lcms, len(vecs)), qde._walk_plan(ray, whole))
            assert width == len(vecs) - 1
            assert [([col[a] if col else 0 for col in cols],
                     dens[a] if dens else 1)
                    for a in range(width)] == blocks[:width], scale
    # the base row: each block is a one-slot row of the transposed p ray,
    # and a slot that rescales takes the factor of the per-block walk
    ray = qde._split_matrix(mp)
    tray = ray._replace(parts={(0, c): part for (c, d), part
                               in ray.parts.items() if not d})
    factors = []
    factor = qde._bareiss_factor

    def factor_spy(scale, ray, levels):
        factors.append(factor(scale, ray, list(levels)))
        return factors[-1]

    monkeypatch.setattr(qde, "_bareiss_factor", factor_spy)
    blocks = [oracles._sylvester_solve(7, ray, (vec, den * ray.den))
              if any(vec) else (vec, 1) for vec, den in zip(vecs, lcms)]
    assert len(factors) >= 3
    block_factors = factors[:]
    factors.clear()
    for vec, den, block in zip(vecs, lcms, blocks):
        cols, dens, width = qde._row_walk(
            7, tray, ([[x] if x else None for x in vec], [den], 1),
            qde._walk_plan(tray, whole))
        assert width == any(vec)
        assert ([col[0] if col else 0 for col in cols],
                dens[0] if dens else 1) == block
    assert factors == block_factors
    # a pruned plan keeps entry 0 and the ray's source entries, on
    # right-hand sides at the entries its q-parts write: every kept entry
    # has the whole walk's value and every other entry is None
    xray = qde._split_matrix(mxi)
    for pruned in (ray, xray):
        keep = {0} | {k for part in pruned.parts.values() for k, _ in part}
        fed = {t for part in pruned.parts.values() for _, targets in part
               for t, _ in targets}
        rows = [qde._row_walk(7, pruned, (
            [list(col) if p in fed and any(col) else None
             for p, col in enumerate(zip(*vecs))], lcms, len(vecs)),
            qde._walk_plan(pruned, entries)) for entries in (whole, keep)]
        assert row_values(rows[1], keep, len(vecs)) == row_values(
            rows[0], keep, len(vecs))
        assert {p for p, col in enumerate(rows[1][0]) if col} <= keep
    # the rescale at a folded division: a right-hand side at entry q
    # alone, exact there, reaches the kept entry p of the xi ray through
    # k >= 1 folded entries, and p's one division by step^(k+1) is
    # inexact; the whole walk rescales at the first folded entry instead
    p, ((q, v),), e = next(entry for entry in qde._walk_plan(xray, keep)[0]
                           if entry[2] > 1)
    plan = qde._walk_plan(xray, {p})
    assert (p, [(q, v)], e) in plan[0] and q in fed
    walks = []
    for entries in (plan, qde._walk_plan(xray, whole)):
        factors.clear()
        rhs = [[7] if t == q else None for t in range(size)], None, 1
        walks.append((qde._row_walk(7, xray, rhs, entries), factors[:]))
    (pruned, pruned_factors), (full, full_factors) = walks
    assert len(pruned_factors) == 1 and pruned_factors == full_factors
    assert row_values(pruned, {p}, 1) == row_values(full, {p}, 1) != {
        (p, 0): 0}


def row_values(row, entries, slots):
    """{(p, a): entry p of block a as a Fraction} of a row (cols, dens,
    width), for p in entries and a < slots, zero past the width."""
    cols, dens, width = row
    return {(p, a): F(cols[p][a], dens[a] if dens else 1)
            if cols[p] and a < width else 0
            for p in entries for a in range(slots)}


@pytest.mark.parametrize("weights", [(0, 1), (1, 0), (-1, 2), (0, 0)])
def test_weights_below_one_rejected(flagship, weights):
    # the weighted index set of such weights is infinite
    spec, mp, mxi = flagship
    error = re.escape("weights (%d, %d) must be at least (1, 1)" % weights)
    with pytest.raises(ValueError, match=error):
        qde.identity_series(mp, mxi, spec, 4, weights)
    with pytest.raises(ValueError, match=error):
        dict(ref_solve(mp, mxi, spec, 4, 1, weights))


def test_flatness_and_homogeneity_pass(flagship, flagship_frames):
    _, mp, mxi = flagship
    assert check_flatness(flagship_frames, mp, mxi) is None
    assert check_homogeneity(flagship_frames) is None


def test_flatness_detects_tampering(flagship):
    spec, mp, mxi = flagship
    js = ref_j_series(mp, mxi, spec, 2)
    # entry (5,3) of the flat integer block at index (1,0)
    js.blocks[(1, 0)][0][4 * spec.size + 2] += 1
    report = check_flatness(js, mp, mxi)
    assert report is not None and "(1,0)" in report


def test_homogeneity_detects_non_identity_origin(p1p1):
    spec, mp, mxi = p1p1
    js = ref_j_series(mp, mxi, spec, 1)
    assert check_homogeneity(js) is None
    # entry (2,1) of the flat identity block
    js.blocks[(0, 0)][0][spec.size] = 1
    assert check_homogeneity(js) == (
        "frame at index (0,0) is not the identity")


def test_corrupted_matrix_fails_flat(flagship):
    spec, mp, mxi = flagship
    bad = QuantumMatrix(spec, "xi")
    for j in range(spec.size):
        col = {row: dict(qp) for row, qp in mxi.column(j).items()}
        bad.set_column(j, col)
    # double one quantum term of the xi matrix; grading and purity survive
    for row, qp in bad.column(spec.size - 11).items():
        for key in qp:
            if key != (0, 0):
                qp[key] *= 2
    with pytest.raises(qde.FlatnessError) as err:
        qde.j_series(mp, bad, spec, 2)
    assert str(err.value) == "commutativity check fails at column 20"


def with_p_added_to_xi(spec, mp, mxi):
    """M_xi + M_p, written into the stored columns past set_column's
    purity check: the pair still commutes, but q1 d/dq1 M_xi no longer
    equals q2 d/dq2 M_p."""
    bad = QuantumMatrix(spec, "xi")
    for j in range(spec.size):
        bad.set_column(j, {row: dict(qp) for row, qp in mxi.column(j).items()})
        col_add_into(bad.column(j), mp.column(j))
    return bad


@pytest.mark.parametrize("bundle,entry", [("flagship", "(2,4)"),
                                          ("p1p1", "(1,2)"),
                                          ("flagship_rescaled", "(2,4)")])
def test_commuting_pair_fails_derivative_half(request, bundle, entry):
    spec, mp, mxi = request.getfixturevalue(bundle)
    bad = with_p_added_to_xi(spec, mp, mxi)
    error = ("q1 d/dq1 M_xi != q2 d/dq2 M_p at entry %s, term q1^1 q2^0"
             % entry)
    for solve in (qde.j_series, qde.identity_series):
        with pytest.raises(qde.FlatnessError) as err:
            solve(mp, bad, spec, 4)
        assert str(err.value) == error


def with_term_doubled(qmat, j):
    """A copy of qmat with the first quantum term of column j doubled;
    grading and purity survive."""
    out = QuantumMatrix(qmat.spec, qmat.label)
    for k in range(qmat.spec.size):
        out.set_column(k, {row: dict(qp)
                           for row, qp in qmat.column(k).items()})
    terms = sorted((row, key) for row, qp in out.column(j).items()
                   for key in qp if key != (0, 0))
    if terms:
        row, key = terms[0]
        out.column(j)[row][key] *= 2
    return out


@pytest.mark.parametrize("bundle", ["flagship", "p1p1", "flagship_rescaled"])
def test_flatness_on_the_lifts_matches_fraction_reference(request, bundle):
    # the check on the integer lifts returns the text of the check on
    # Fraction q-polynomials: on the flat pair, with one quantum term of
    # one column doubled, and with M_p added to M_xi; the rescaled pair
    # has lift denominators > 1, and they differ
    spec, mp, mxi = request.getfixturevalue(bundle)
    dp, dx = mp.lift()[1], mxi.lift()[1]
    if bundle == "flagship_rescaled":
        assert dp > 1 and dx > 1 and dp != dx
    else:
        assert (dp, dx) == (1, 1)
    pairs = [(mp, mxi), (mp, with_p_added_to_xi(spec, mp, mxi))]
    for j in range(spec.size):
        pairs += [(with_term_doubled(mp, j), mxi),
                  (mp, with_term_doubled(mxi, j))]
    reports = [flatness_defect(*pair) for pair in pairs]
    assert reports == [ref_flatness_defect(*pair) for pair in pairs]
    assert reports[0] is None
    assert reports[1].startswith("q1 d/dq1 M_xi != q2 d/dq2 M_p")
    assert any(report and report.startswith("commutativity")
               for report in reports[2:])


def test_one_shift_sum_per_solved_index(flagship, p1p1, monkeypatch):
    # each index past the origin is built from one ray's shift sum alone,
    # and solved on the xi ray with scale b where b >= 1, on the p ray
    # with scale a on b = 0.  The unit row takes one row shift sum per
    # base index a, a one-slot row of the transposed p ray, and one per
    # fibre row b; the row walk runs on the p ray with scale a for every
    # base index of p1p1 and for none past the origin of the flagship,
    # whose base row is zero there.  The full-frame reference solves
    # every index block by block.
    labels, calls, solves, row_calls, walks = {}, [], [], [], []
    split, full_split, shift_sum, solve, row_shift_sum, walk = (
        qde._split_matrix, oracles.ref_split_matrix, oracles._shift_sum,
        oracles._sylvester_solve, qde._row_shift_sum, qde._row_walk)

    # a ray is known by its walk, which the transposed p ray shares
    def split_spy(qmat):
        ray = split(qmat)
        labels[id(ray.walk)] = qmat.label
        return ray

    def full_split_spy(qmat, rows):
        ray = full_split(qmat, rows)
        labels[id(ray.walk)] = qmat.label
        return ray

    def shift_sum_spy(*args):
        calls.append((args[2:4], labels[id(args[1].walk)]))
        return shift_sum(*args)

    def solve_spy(scale, ray, rhs):
        solves.append((calls[-1][0], labels[id(ray.walk)], scale))
        return solve(scale, ray, rhs)

    def row_shift_sum_spy(kept, ray, b, slots, *args):
        row_calls.append((labels[id(ray.walk)], b, slots))
        return row_shift_sum(kept, ray, b, slots, *args)

    def walk_spy(scale, ray, rhs, plan):
        walks.append((labels[id(ray.walk)], scale))
        return walk(scale, ray, rhs, plan)

    monkeypatch.setattr(qde, "_split_matrix", split_spy)
    monkeypatch.setattr(oracles, "ref_split_matrix", full_split_spy)
    monkeypatch.setattr(oracles, "_shift_sum", shift_sum_spy)
    monkeypatch.setattr(oracles, "_sylvester_solve", solve_spy)
    monkeypatch.setattr(qde, "_row_shift_sum", row_shift_sum_spy)
    monkeypatch.setattr(qde, "_row_walk", walk_spy)
    spec, mp, mxi = p1p1
    qde.identity_series(mp, mxi, spec, 12)
    assert walks == [("p", a) for a in range(1, 13)] + [
        ("xi", b) for b in range(1, 13)]
    walks.clear()
    row_calls.clear()
    spec, mp, mxi = flagship
    qde.identity_series(mp, mxi, spec, 63)
    assert row_calls == [("p", a, 1) for a in range(1, 64)] + [
        ("xi", b, 64 - b) for b in range(1, 64)]
    # the unit row of the flagship is zero on b = 0 past the origin
    assert walks == [("xi", b) for b in range(1, 64)]
    assert calls == solves == []
    walks.clear()
    row_calls.clear()
    js = ref_j_series(mp, mxi, spec, 6)
    assert len(calls) == 27 == len(js.blocks) - 1
    assert walks == row_calls == []
    # the full frames are not zero on b = 0
    assert {b > 0 for (_, b), _, _ in solves} == {False, True}
    for (a, b), label, scale in solves:
        assert (label, scale) == (("xi", b) if b else ("p", a)), (a, b)


def test_solve_grid_holds_only_readable_blocks(flagship, monkeypatch):
    # a source lies at most span = max(c + d) over both matrices' q-parts
    # anti-diagonals below its target, and the grid the full-frame shift
    # sums read holds no block further down; a fibre row reads only the
    # rows up to dmax = max(d) over the q-parts of M_xi below it, a base
    # index a only the one-slot rows up to cmax = max(c) over the pure-q1
    # parts (c, 0) of M_p below it, and the unit row keeps no row further
    # down
    spec, mp, mxi = flagship
    span = max(c + d for mat in (mp, mxi) for col in mat.lift()[0]
               for _, c, d, _ in col)
    dmax = max(d for col in mxi.lift()[0] for _, c, d, _ in col)
    cmax = max(c for col in mp.lift()[0] for _, c, d, _ in col if not d)
    assert (span, dmax, cmax) == (3, 1, 1)
    depths, kept_rows = [], []
    shift_sum, row_shift_sum = oracles._shift_sum, qde._row_shift_sum

    def shift_sum_spy(live, ray, a, b, falling):
        depths.append(max(
            (a + b - i - j for i, row in enumerate(live)
             for j, cell in enumerate(row) if cell is not None), default=0))
        return shift_sum(live, ray, a, b, falling)

    def row_shift_sum_spy(kept, ray, b, *args):
        kept_rows.append((b, sorted(kept)))
        return row_shift_sum(kept, ray, b, *args)

    monkeypatch.setattr(qde, "_row_shift_sum", row_shift_sum_spy)
    table = qde.identity_series(mp, mxi, spec, 63)
    assert len(table) == 2080
    assert kept_rows == [(a, list(range(max(a - cmax, 0), a)))
                         for a in range(1, 64)] + [
        (b, list(range(b - dmax, b))) for b in range(1, 64)]
    monkeypatch.setattr(oracles, "_shift_sum", shift_sum_spy)
    js = ref_j_series(mp, mxi, spec, 6)
    assert len(depths) == len(js.blocks) - 1
    assert max(depths) == span


def test_unit_row_solve_memory_follows_the_order(flagship):
    # the streamed solve keeps only the rows b - d, d <= dmax (1 on the
    # flagship), that a later fibre row reads, not all 8256 blocks of
    # order 127 (about 12 MB when every block was kept)
    spec, mp, mxi = flagship
    tracemalloc.start()
    try:
        table = qde.identity_series(mp, mxi, spec, 127)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) == 128 * 129 // 2
    assert peak < 4 * 10**6, peak


def test_parse_operator_basics():
    assert qde.parse_operator("0") == []
    # like terms merge; a term that cancels is dropped, and comes back
    # at the end if a later term revives it
    assert qde.parse_operator("D1 - D1") == []
    assert qde.parse_operator("D1*q1 + z - q1*D1 + 1/2*z") == [
        qde.OpTerm(F(3, 2), 0, 0, 1, 0, 0)]
    assert qde.parse_operator("D2 + q2 + 2*D2 - 3*D2 + D2") == [
        qde.OpTerm(F(1), 0, 1, 0, 0, 0), qde.OpTerm(F(1), 0, 0, 0, 0, 1)]
    op = qde.parse_operator("D1*D2^7 - 2*D2^8 + 5*q2*D1^2")
    assert op[0] == qde.OpTerm(F(1), 0, 0, 0, 1, 7)
    assert op[1] == qde.OpTerm(F(-2), 0, 0, 0, 0, 8)
    assert op[2] == qde.OpTerm(F(5), 0, 1, 0, 2, 0)
    with pytest.raises(ValueError, match="unknown atom 'D3'"):
        qde.parse_operator("D3^2")
    with pytest.raises(ValueError, match="bad exponent"):
        qde.parse_operator("q1^x")
    for digit in ("\u00b2", "\u0663"):  # superscript two, Arabic-Indic three
        with pytest.raises(ValueError, match="bad exponent '%s'" % digit):
            qde.parse_operator("D1^" + digit)
        with pytest.raises(ValueError, match="bad coefficient '%s'" % digit):
            qde.parse_operator(digit + "*D1")
    # Fraction() reads these; the grammar takes digits and digits/digits
    for lit in ("1e3", "1_0", "1.5", "1/2/3", "1/", "1/0", "3/4e1"):
        with pytest.raises(ValueError, match=re.escape(
                "bad coefficient '%s' in term '%s*D1'" % (lit, lit))):
            qde.parse_operator(lit + "*D1")
    assert qde.parse_operator("07/14*D1") == [qde.OpTerm(F(1, 2), 0, 0, 0,
                                                         1, 0)]


def test_parse_operator_rejects_powered_literal():
    with pytest.raises(ValueError, match="bad coefficient '2\\^3'"):
        qde.parse_operator("2^3*D1")


op_term = st.tuples(
    st.fractions(min_value=-50, max_value=50, max_denominator=20).filter(bool),
    *[st.integers(min_value=0, max_value=6)] * 5)


@settings(max_examples=100, deadline=None)
@given(st.lists(op_term, min_size=1, max_size=6), st.data())
def test_parse_operator_round_trip(terms, data):
    chunks = []
    for coeff, *powers in terms:
        factors = [str(abs(coeff))] + [
            name if power == 1 else "%s^%d" % (name, power)
            for name, power in zip(("q1", "q2", "z", "D1", "D2"), powers)
            if power]
        # Factors commute textually, so any order must parse the same.
        factors = data.draw(st.permutations(factors))
        chunks.append(("- " if coeff < 0 else "+ ") + "*".join(factors))
    # like terms merge in the order of their first appearance, and a sum
    # that cancels drops its term
    merged = {}
    for coeff, *powers in terms:
        key = tuple(powers)
        merged[key] = merged.get(key, 0) + coeff
        if not merged[key]:
            del merged[key]
    assert qde.parse_operator(" ".join(chunks)) == [
        qde.OpTerm(coeff, *powers) for powers, coeff in merged.items()]


def test_operator_fixture_term_counts(operators):
    counts = {name: len(qde.parse_operator(text))
              for name, text in operators.items()}
    assert counts == {"annihilator_1": 23, "annihilator_2": 9,
                      "annihilator_3": 7, "annihilator_4": 12}


def test_operators_annihilate_flagship(flagship, operators):
    _, mp, mxi = flagship
    names = sorted(operators)
    ops = [qde.parse_operator(operators[name]) for name in names]
    reports = qde.check_operator(ops, mp, mxi, 8)
    assert dict(zip(names, reports)) == dict.fromkeys(names)


def test_operators_annihilate_p1p1_diagonal_relation(p1p1):
    # D1^2 - q1 and D2^2 - q2 generate the annihilator for the product
    _, mp, mxi = p1p1
    ops = [qde.parse_operator(text) for text in ("D1^2 - q1", "D2^2 - q2")]
    assert qde.check_operator(ops, mp, mxi, 6) == [None, None]


def test_nonannihilating_operator_reported(flagship):
    _, mp, mxi = flagship
    [report] = qde.check_operator([qde.parse_operator("D1")], mp, mxi, 8)
    assert report is not None and "index (0,0)" in report


# the first three leave a residual, the third (whose like terms merge to
# D1*D2) with two sigma groups at one target; the last one's q-shifts lie
# beyond both series
NON_ANNIHILATING = ("D1", "z*D2^3 + 2/3*q1*D1^2 - q2",
                    "2*D1*D2 - D2*D1 + 5*z^2*q1", "q1^5*q2^5*D1 - 3*q2^9")


def series_order(js):
    return max(a + b for a, b in js.blocks)


@pytest.mark.parametrize("series", ["flagship_js", "p1p1_js",
                                    "flagship_rescaled_js"])
def test_one_pass_matches_per_operator_oracle(request, series, operators):
    # the check in the D-module, with its chains shared by all operators,
    # reports what each operator leaves on the J-series cut at the same
    # order, term by term, byte for byte; the residual is built on the
    # reference's full frames at that order
    js = request.getfixturevalue(series)
    bundle = series.removesuffix("_js")
    _, mp, mxi = request.getfixturevalue(bundle)
    frames = request.getfixturevalue(bundle + "_frames")
    assert series_order(frames) == series_order(js)
    if series == "flagship_rescaled_js":
        assert mp.lift()[1] > 1 and mxi.lift()[1] > 1
    texts = [operators[name] for name in sorted(operators)]
    ops = [qde.parse_operator(text) for text in texts + list(NON_ANNIHILATING)]
    reports = qde.check_operator(ops, mp, mxi, series_order(js))
    assert len(reports) == len(ops)
    for text, op, report in zip(texts + list(NON_ANNIHILATING), ops, reports):
        assert report == ref_check_operator(op, frames, mp, mxi), text
    assert None not in reports[-4:-1]
    assert reports[-1] is None


random_term = st.builds(
    qde.OpTerm,
    st.fractions(min_value=-20, max_value=20, max_denominator=9).filter(bool),
    *[st.integers(min_value=0, max_value=hi) for hi in (2, 2, 2, 4, 4)])


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2),
       st.lists(random_term, min_size=1, max_size=5))
def test_one_pass_matches_oracle_on_random_operators(
        flagship, flagship_frames, p1p1, p1p1_frames, flagship_rescaled,
        flagship_rescaled_frames, pick, op):
    (_, mp, mxi), js = ((flagship, flagship_frames), (p1p1, p1p1_frames),
                        (flagship_rescaled, flagship_rescaled_frames))[pick]
    assert qde.check_operator([op], mp, mxi, series_order(js)) == [
        ref_check_operator(op, js, mp, mxi)]


def test_unit_fibre_derivation_action(p1p1):
    # at the origin index: xi cup the unit, sitting at z^0
    _, mp, mxi = p1p1
    assert qde.check_operator([qde.parse_operator("D2")], mp, mxi, 6) == [
        "residual nonzero at index (0,0), component 3: 1*z^0"]


@pytest.mark.parametrize("bundle", ["flagship", "p1p1", "flagship_rescaled"])
def test_nabla_keeps_sparse_chains_within_the_order(request, bundle):
    # each step along either ray stores no zero, no index beyond the
    # order, and a chain in lowest terms; nabla never lowers a + b, so
    # the chain cut at every step is the uncut chain cut once at the end
    _, mp, mxi = request.getfixturevalue(bundle)
    order = 2
    for along, qmat in enumerate((mp, mxi)):
        lift = qmat.lift()
        cut = full = ({(0, 0, 0): 1}, 1)
        for _ in range(10):
            cut = qde._nabla(cut, lift, along, order)
            full = qde._nabla(full, lift, along, 99)
            vec, den = cut
            assert vec and all(vec.values())
            assert all(a + b <= order for a, b, _ in vec)
            assert gcd(den, *vec.values()) == 1
            assert {key: F(x, den) for key, x in vec.items()} == {
                (a, b, i): F(x, full[1]) for (a, b, i), x in full[0].items()
                if a + b <= order}
        assert any(a + b > order for a, b, _ in full[0])


def test_check_operator_chains_do_not_grow_with_order(
        flagship, operators, monkeypatch):
    # the packaged operators' chains reach no index above a + b = 3, so
    # the check builds the same 29 sparse chains at orders 16 and 30
    _, mp, mxi = flagship
    ops = [qde.parse_operator(operators[name]) for name in sorted(operators)]
    nabla = qde._nabla
    chains = {}
    for order in (16, 30):
        steps = chains[order] = []

        def spy(*args, steps=steps):
            steps.append(nabla(*args))
            return steps[-1]

        monkeypatch.setattr(qde, "_nabla", spy)
        assert qde.check_operator(ops, mp, mxi, order) == [None] * len(ops)
    assert chains[16] == chains[30]
    assert len(chains[16]) == 29
    assert max(a + b for vec, _ in chains[16] for a, b, _ in vec) == 3


def test_order_zero_series(flagship):
    spec, mp, mxi = flagship
    js = qde.j_series(mp, mxi, spec, 0)
    assert set(js.frames) == {(0, 0)}
    assert qde.identity_coefficients(js) == {(0, 0): 1}
    assert check_flatness(js, mp, mxi) is None


def test_negative_order_rejected(flagship):
    spec, mp, mxi = flagship
    with pytest.raises(ValueError, match="order must be >= 0"):
        qde.j_series(mp, mxi, spec, -1)


def test_identity_series_negative_order_rejected(flagship):
    spec, mp, mxi = flagship
    with pytest.raises(ValueError, match="order must be >= 0"):
        qde.identity_series(mp, mxi, spec, -1)


def test_identity_series_cross_checks_unit_row(flagship):
    spec, mp, mxi = flagship
    bad = QuantumMatrix(spec, "xi")
    for j in range(spec.size):
        bad.set_column(j, {row: dict(qp) for row, qp in mxi.column(j).items()})
    # double the quantum terms of one xi column; grading and purity survive
    for qp in bad.column(spec.size - 11).values():
        for key in qp:
            if key != (0, 0):
                qp[key] *= 2
    with pytest.raises(qde.FlatnessError,
                       match=r"^commutativity check fails at column 20$"):
        qde.identity_series(mp, bad, spec, 6)


@pytest.mark.parametrize("bundle", ["p1p1", "flagship"])
def test_rational_inputs_rescale_frames(request, bundle):
    # q -> (LAMBDA q1, MU q2) with the basis rescaled by s: both the
    # classical entries and the q-parts become non-integral, and the
    # frames transform as LAMBDA^a MU^b S^-1 F S
    spec, mp, mxi = request.getfixturevalue(bundle)
    mp2, mxi2 = rescaled(spec, mp), rescaled(spec, mxi)
    terms = [(key, v) for mat in (mp2, mxi2) for j in range(spec.size)
             for qp in mat.column(j).values() for key, v in qp.items()]
    assert any(v.denominator != 1 for key, v in terms if key == (0, 0))
    assert any(v.denominator != 1 for key, v in terms if key != (0, 0))
    # on the full frames of the reference solve, and on the unit rows of
    # j_series, whose row 0 transforms on its own
    for solve in (ref_j_series, qde.j_series):
        js = solve(mp, mxi, spec, 4)
        js2 = solve(mp2, mxi2, spec, 4)
        assert set(js2.frames) == set(js.frames)
        for (a, b), frame in js.frames.items():
            factor = LAMBDA ** a * MU ** b
            assert js2.frames[(a, b)] == [
                [factor * x * basis_scale(j) / basis_scale(i)
                 for j, x in enumerate(row)] for i, row in enumerate(frame)]
        assert len(frame) == (spec.size if solve is ref_j_series else 1)
        assert check_flatness(js2, mp2, mxi2) is None
    deep = qde.identity_series(mp, mxi, spec, 10)
    assert qde.identity_series(mp2, mxi2, spec, 10) == {
        (a, b): LAMBDA ** a * MU ** b * c for (a, b), c in deep.items()}


def ref_commutator(cint, u):
    """U*C - C*U on a block of leading frame rows.

    C is strictly lower triangular, so row i of C*U only draws on rows
    k < i and the block closes; the left product touches block rows only.
    """
    out = [[0] * len(row) for row in u]
    for row, orow in zip(u, out):
        for (k, j), v in cint.items():
            x = row[k]
            if x:
                orow[j] += x * v
    for (i, k), v in cint.items():
        if i < len(u):
            dst = out[i]
            for j, x in enumerate(u[k]):
                if x:
                    dst[j] -= v * x
    return out


def ref_sylvester_solve(scale, classical, rhs):
    """Solve scale*U + C*U - U*C = R/L for nilpotent sparse C = Cint/dc.

    Neumann iteration: U = sum_k ad_C^k(R/L) / scale^(k+1) with
    ad_C(X) = X*C - C*X; the commutator with a degree-raising matrix is
    nilpotent, so the loop terminates.  With T_k = ad_Cint^k(R) and T_K
    the last nonzero iterate, U = sum_k T_k*(dc*scale)^(K-k) over
    L*dc^K*scale^(K+1), summed by Horner as the iterates appear and
    reduced by one gcd.  Returns (integer rows, D).
    """
    cint, dc = classical
    term, den = rhs
    step = dc * scale
    acc = term
    depth = 0
    while True:
        term = ref_commutator(cint, term)
        if not any(x for row in term for x in row):
            break
        depth += 1
        assert depth <= 4 * len(term[0]), "commutator iteration diverged"
        acc = [[x * step + y for x, y in zip(arow, trow)]
               for arow, trow in zip(acc, term)]
    den *= dc ** depth * scale ** (depth + 1)
    g = gcd(den, *(x for row in acc for x in row))
    return [[x // g for x in row] for row in acc], den // g


def reference_series(request, case):
    """(mp, mxi, series) of one reference-oracle case."""
    if case == "product":
        spec = make_bundle(2, 4)
        mp, mxi = reconstruct(spec, builtin_source(spec))
        return mp, mxi, ref_j_series(mp, mxi, spec, 6)
    if case == "unit-row":
        # the unit row of identity_series on the index set of a cut
        spec, mp, mxi = request.getfixturevalue("flagship")
        js = qde.JSeries(spec)
        js.blocks.update(row_blocks(mp, mxi, spec, 40, (2, 1)))
        return mp, mxi, js
    if case == "rescaled-unit-row":
        # the unit row of rational inputs: blocks over D > 1
        spec, mp, mxi = request.getfixturevalue("flagship_rescaled")
        js = qde.JSeries(spec)
        js.blocks.update(row_blocks(mp, mxi, spec, 20, (1, 1)))
        return mp, mxi, js
    if case == "rescaled":
        # the full frames of rational inputs, from the reference solve
        spec, mp, mxi = request.getfixturevalue("flagship_rescaled")
        return mp, mxi, request.getfixturevalue("flagship_rescaled_frames")
    # the full frames of the reference solve
    spec, mp, mxi = request.getfixturevalue(case)
    return mp, mxi, request.getfixturevalue(case + "_frames")


def rows_of(vec, size):
    """A flat block, or a flat right-hand side, as its list of rows."""
    return [vec[i:i + size] for i in range(0, len(vec), size)]


@pytest.mark.parametrize("case", ["flagship", "p1p1", "product", "rescaled",
                                  "unit-row", "rescaled-unit-row"])
def test_solve_matches_neumann_reference(request, case):
    # every block, solved level by level, equals the Neumann series on
    # each ray with a positive exponent, from the same right-hand side
    mp, mxi, js = reference_series(request, case)
    size = js.spec.size
    classical = {True: ref_classical(mp), False: ref_classical(mxi)}
    lifted = rays(js, mp, mxi)
    if case == "rescaled":
        assert classical[True][1] > 1 and classical[False][1] > 1
    checked = inexact = 0
    # solved blocks by their sources on the solving ray: all zero, or some
    # zero and some not, since the solve skips the zero ones
    sources = {(True,): 0, (False,): 0, (False, True): 0}
    for (a, b), (vec, den) in js.blocks.items():
        for along_p, scale in ((True, a), (False, b)):
            if scale:
                rvec, rden = ray(js, lifted, a, b, along_p)[2]
                assert ref_sylvester_solve(
                    scale, classical[along_p], (rows_of(rvec, size), rden)) \
                    == (rows_of(vec, size), den), ((a, b), along_p)
                checked += 1
                # D divides L unless U*L is not integral: an inexact division
                inexact += rden % den != 0
        parts = lifted[bool(a)].parts
        kinds = {any(js.blocks[(a - c, b - d)][0])
                 for c, d in parts if c <= a and d <= b}
        if kinds:
            sources[tuple(sorted(kinds))] += 1
    assert checked >= len(js.blocks) - 1
    if case == "unit-row":
        assert sources[(False,)] and sources[(False, True)], sources
    if case == "rescaled":
        # full frames of rational inputs meet divisions that are not exact
        assert inexact
    if case == "rescaled-unit-row":
        assert any(den > 1 for _, den in js.blocks.values())


def test_lifted_row_equation_is_the_two_sided_action(flagship):
    # on a full-frame block with entries at every level, the flat
    # residual on each ray is scale*U + C*U - U*C - R, with the action
    # taken from ref_commutator: it vanishes for R equal to the reference
    # value and, for R off by one at an entry, names that entry.  The
    # block is made up, no entry zero, so no solve is involved
    spec, mp, mxi = flagship
    size = spec.size
    vec, den = [(37 * p) % 23 - 11 or 5 for p in range(size * size)], 9
    levels = {spec.degree(i) - spec.degree(j)
              for i in range(size) for j in range(size)}
    assert {spec.degree(p // size) - spec.degree(p % size)
            for p, x in enumerate(vec) if x} == levels
    u = rows_of(vec, size)
    for qmat in (mp, mxi):
        flat = ref_split_matrix(qmat, size)
        cint, dc = ref_classical(qmat)
        scale = 3
        # R = (scale*U + C*U - U*C) * D*dc as integers, over L = D*dc
        comm = ref_commutator(cint, u)
        ref = [scale * dc * x - y for urow, crow in zip(u, comm)
               for x, y in zip(urow, crow)]
        rden = den * dc
        assert ref_route_residual(scale, flat, (vec, den), (ref, rden),
                                  size) is None
        for p in (0, 7 * size + 3, len(vec) - 1):
            off = list(ref)
            off[p] -= 1
            assert ref_route_residual(scale, flat, (vec, den), (off, rden),
                                      size) == (divmod(p, size), F(1, rden))


def test_zero_right_hand_side_gives_zero_block(flagship):
    spec, mp, mxi = flagship
    size = spec.size
    zero = [0] * (3 * size)
    for qmat in (mp, mxi):
        flat = ref_split_matrix(qmat, 3)
        ref = ref_classical(qmat)
        assert oracles._sylvester_solve(2, flat, (zero, 5)) == (zero, 1)
        assert ref_sylvester_solve(2, ref, (rows_of(zero, size), 5)) == (
            rows_of(zero, size), 1)
        assert ref_route_residual(2, flat, (zero, 1), (zero, 5), size) \
            is None
        # a zero block against a nonzero right-hand side: the residual is
        # -R/L, first at the first nonzero entry of R
        rhs = [0] * (3 * size)
        rhs[size + 4], rhs[2 * size] = 3, 7
        assert ref_route_residual(2, flat, (zero, 1), (rhs, 5), size) == (
            (1, 4), F(-3, 5))
