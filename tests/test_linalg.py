"""Exact elimination and sparse accumulation in qfano.linalg.

The invert tests run oracles.invert, which reads a matrix inverse off
the nullspace of [A | -I], against the elimination over Fraction.
"""

from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import invert

from qfano import linalg, qde
from qfano.lefschetz import parse_cut, regularized_periods
from qfano.linalg import (accumulate, col_add_into, common_denominator,
                          nullspace)
from qfano.reconstruct import reconstruct
from qfano.ring import make_bundle
from qfano.seeds import builtin_source

F = Fraction


# Reference: the Gauss-Jordan elimination over Fraction that qfano.linalg
# used before its fraction-free integer elimination, kept verbatim so the
# two can be compared on any input.
def ref_rref(rows, ncols):
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv_p = 1 / rows[r][c]
        rows[r] = [x * inv_p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


# Reference: the Gauss-Jordan pass modulo a modulus that linalg._rref
# ran before its forward pass and back-substitution, updating every other
# row on every column at each pivot.
def ref_rref_mod(rows, ncols, modulus):
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r][c]
        if gcd(p, modulus) != 1:
            return None
        inv = pow(p, -1, modulus)
        prow = rows[r] = [x * inv % modulus for x in rows[r]]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                rows[i] = [(a - f * b) % modulus for a, b in zip(row, prow)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def ref_invert(mat):
    n = len(mat)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(mat)]
    aug, pivots = ref_rref(aug, n)
    if len(pivots) < n:
        raise ValueError("singular matrix")
    return [row[n:] for row in aug]


def ref_nullspace(mat):
    rows = [[Fraction(x) for x in row] for row in mat]
    ncols = len(rows[0]) if rows else 0
    rows, pivots = ref_rref(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -rows[i][fc]
        basis.append(vec)
    return basis


def all_fractions(rows):
    return all(type(x) is Fraction for row in rows for x in row)


def matmul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), F(0))
             for col in zip(*b)] for row in a]


def identity(n):
    return [[F(int(i == j)) for j in range(n)] for i in range(n)]


def assert_kernel(mat, basis, ncols):
    for vec in basis:
        assert len(vec) == ncols
        assert all(sum((x * y for x, y in zip(row, vec)), F(0)) == 0
                   for row in mat)


def test_accumulate_merges_and_drops_cancelled_keys():
    dst = {"a": F(1), "b": F(2)}
    out = accumulate(dst, [("a", F(-1)), ("c", F(3)), ("b", F(1)),
                           ("c", F(-3)), ("d", F(0))])
    assert out is dst
    assert dst == {"b": F(3)}


def test_col_add_into_scales_shifts_and_drops_emptied_rows():
    dst = {0: {(1, 0): F(2)}, 1: {(0, 0): F(1)}}
    src = {0: {(0, 0): F(1)}, 1: {(0, 0): F(1)}, 2: {(0, 1): F(1, 2)}}
    out = col_add_into(dst, src, scale=-2, shift=(1, 0))
    assert out is dst
    assert dst == {1: {(0, 0): F(1), (1, 0): F(-2)}, 2: {(1, 1): F(-1)}}


def test_invert_returns_true_inverse():
    # The (0, 0) pivot is zero, so elimination has to swap rows.
    mat = [[0, 2, 1], [1, 0, 3], [4, -1, F(1, 2)]]
    inv = invert(mat)
    assert matmul(mat, inv) == identity(3)
    assert matmul(inv, mat) == identity(3)
    assert invert([[F(2, 3)]]) == [[F(3, 2)]]


def test_invert_rejects_singular_matrix():
    with pytest.raises(ValueError, match="singular matrix"):
        invert([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    with pytest.raises(ValueError, match="singular matrix"):
        invert([[0, 0], [0, 0]])


def test_nullspace_rank_deficient():
    mat = [[1, 2, 3], [2, 4, 6], [-1, -2, -3]]
    basis = nullspace(mat)
    assert basis == [[F(-2), F(1), F(0)], [F(-3), F(0), F(1)]]
    assert_kernel(mat, basis, 3)


def test_nullspace_wide():
    mat = [[1, 0, 1, 2], [0, 1, -1, F(1, 2)]]
    basis = nullspace(mat)
    assert len(basis) == 2
    assert_kernel(mat, basis, 4)


def test_nullspace_full_rank_is_empty():
    assert nullspace([[1, 2], [3, 4], [5, 6]]) == []


def test_nullspace_empty_inputs():
    assert nullspace([]) == []
    assert nullspace([[0, 0, 0]]) == [[F(1), F(0), F(0)], [F(0), F(1), F(0)],
                                      [F(0), F(0), F(1)]]


small = st.integers(min_value=-3, max_value=3)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(st.lists(small, min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_invert_agrees_with_nullspace(mat):
    n = len(mat)
    basis = nullspace(mat)
    assert_kernel(mat, basis, n)
    if basis:
        with pytest.raises(ValueError, match="singular matrix"):
            invert(mat)
    else:
        assert matmul(mat, invert(mat)) == identity(n)


entries = st.one_of(st.integers(min_value=-5, max_value=5),
                    st.fractions(min_value=-4, max_value=4,
                                 max_denominator=7))


@st.composite
def rational_matrices(draw, square=False):
    """Rational matrices of any shape whose extra rows are zero rows,
    duplicates, combinations of earlier rows or fresh random rows, so
    that rank deficiency is common."""
    nrows = draw(st.integers(min_value=1 if square else 0, max_value=7))
    ncols = nrows if square else draw(st.integers(min_value=1, max_value=7))
    row = st.lists(entries, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=min(nrows, 1), max_size=nrows))
    while len(rows) < nrows:
        kind = draw(st.sampled_from(["zero", "duplicate", "combination",
                                     "random"]))
        if kind == "zero":
            rows.append([0] * ncols)
        elif kind == "duplicate":
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "combination":
            a, b = draw(entries), draw(entries)
            u, v = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append([a * x + b * y for x, y in zip(u, v)])
        else:
            rows.append(draw(row))
    return draw(st.permutations(rows))


@settings(max_examples=150, deadline=None)
@given(rational_matrices())
def test_nullspace_matches_fraction_reference(mat):
    basis = nullspace(mat)
    assert basis == ref_nullspace(mat)
    assert all_fractions(basis)


@settings(max_examples=150, deadline=None)
@given(rational_matrices(square=True))
def test_invert_matches_fraction_reference(mat):
    try:
        expected = ref_invert(mat)
    except ValueError:
        with pytest.raises(ValueError, match="singular matrix"):
            invert(mat)
        return
    inv = invert(mat)
    assert inv == expected
    assert all_fractions(inv)


F7 = 2 ** 128 + 1
F8 = 2 ** 256 + 1
P7 = 59649589127497217  # the smaller prime factor of F7
# a composite past _PACKED_BITS: the list pass meets pivots that are not
# units modulo it
WIDE12 = 3 * 2 ** 256


@settings(max_examples=150, deadline=None)
@example(12, [[2, 1], [3, 0]])
@given(st.sampled_from([101, 12, WIDE12]), rational_matrices())
def test_rref_matches_gauss_jordan_reference(modulus, mat):
    # Modulo 101 zero pivots and row swaps are common; modulo 12 and
    # WIDE12 nonzero pivots that are not units are, and both passes return
    # None there.  101 and 12 run the packed forward pass, WIDE12 the list
    # pass.
    rows = [[x % modulus for x in common_denominator(row)[0]] for row in mat]
    ncols = len(rows[0]) if rows else 0
    expected = ref_rref_mod([list(row) for row in rows], ncols, modulus)
    assert linalg._rref(rows, ncols, modulus) == expected


def extreme_updates(nrows, ncols, modulus):
    """The residues of L*U, L the nrows x ncols lower trapezoid of ones
    and U the unit upper trapezoid with -1 right of its diagonal.  Pivot
    k is row k; scaled, it holds modulus - 1 at every column right of k,
    and every row below holds 1 at k, so each update adds
    (modulus - 1)^2 to a slot, the most it can."""
    return [[sum(1 if k == j else -1 for k in range(min(i, j) + 1))
             % modulus for j in range(ncols)] for i in range(nrows)]


@pytest.mark.parametrize("modulus", [2 ** 64 + 1, F7, 101, 12],
                         ids=["F6", "F7", "101", "12"])
@pytest.mark.parametrize("nrows,ncols", [(16, 8), (8, 16)],
                         ids=["tall", "wide"])
def test_rref_packed_slots_hold_the_largest_updates(modulus, nrows, ncols):
    # the last slots take min(nrows - 1, ncols) updates of (q - 1)^2 each:
    # with the ncols term left out of the slot width, one would carry
    # into the next slot
    rows = extreme_updates(nrows, ncols, modulus)
    expected = ref_rref_mod([list(row) for row in rows], ncols, modulus)
    assert expected[1] == list(range(min(nrows, ncols)))
    assert linalg._rref(rows, ncols, modulus) == expected


class SliceLog(list):
    """A row that logs the start column of each slice assignment to it.
    At a pivot column c, _rref's list pass scales the pivot row by one slice
    assignment from c, and a dense update writes one more to each row
    below that is nonzero at c; a sparse update writes single entries."""

    def __init__(self, values, log):
        super().__init__(values)
        self.log = log

    def __setitem__(self, key, value):
        if isinstance(key, slice):
            self.log.append(key.start)
        super().__setitem__(key, value)


def logged_rref(rows, ncols, modulus):
    """_rref on rows that log their slice assignments, and the log."""
    log = []
    return linalg._rref([SliceLog(row, log) for row in rows], ncols,
                        modulus), log


@st.composite
def staircase_matrices(draw):
    """Integer matrices whose leading rows hold one or two nonzeros at
    increasing columns, the first at column 0, above rows that are dense
    from column 0 on: the pivot rows that _rref updates sparsely."""
    ncols = draw(st.integers(min_value=4, max_value=10))
    nonzero = st.integers(min_value=1, max_value=9)
    starts = draw(st.lists(st.integers(min_value=1, max_value=ncols - 1),
                           max_size=2, unique=True))
    rows = []
    for c in [0] + sorted(starts):
        row = [0] * ncols
        row[c] = draw(nonzero)
        if c < ncols - 1 and draw(st.booleans()):
            row[draw(st.integers(min_value=c + 1,
                                 max_value=ncols - 1))] = draw(nonzero)
        rows.append(row)
    dense = st.tuples(nonzero, st.lists(
        st.integers(min_value=-9, max_value=9),
        min_size=ncols - 1, max_size=ncols - 1))
    return rows + [[x] + rest for x, rest in
                   draw(st.lists(dense, min_size=1, max_size=6))]


def packed(modulus):
    return modulus.bit_length() <= linalg._PACKED_BITS


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([101, 12, F8, WIDE12]), staircase_matrices())
def test_rref_sparse_pivot_rows_match_gauss_jordan_reference(modulus, mat):
    rows = [[x % modulus for x in row] for row in mat]
    ncols = len(rows[0])
    expected = ref_rref_mod([list(row) for row in rows], ncols, modulus)
    got, log = logged_rref(rows, ncols, modulus)
    assert got == expected
    # past _PACKED_BITS the list pass runs: the first pivot row is row 0;
    # held sparse, it is the only row written from column 0 on, though
    # the dense rows below are nonzero there
    if (not packed(modulus) and got is not None
            and 3 * sum(map(bool, rows[0])) < ncols):
        assert log.count(0) == 1


@pytest.mark.parametrize("modulus", [F7, F8], ids=["F7", "F8"])
def test_rref_flagship_operator_search_rows(modulus):
    # the rows of the 64-term order-4 degree-9 search, built directly:
    # positions 0 and 1 hold a single nonzero, at columns (0,0) and (0,1);
    # F7 runs the packed forward pass, F8 the list pass
    spec = make_bundle(4, 6, [-3, 5, -5])
    mp, mxi = reconstruct(spec, builtin_source(spec))
    seq = regularized_periods(qde.identity_series(mp, mxi, spec, 63), spec,
                              parse_cut("p,xi^5"), 64)
    cols = [(e, m) for e in range(5) for m in range(10)]
    rows = [[seq[pos - m] * (pos - m) ** e % modulus if pos >= m else 0
             for e, m in cols] for pos in range(64)]
    assert [sum(map(bool, row)) for row in rows[:2]] == [1, 1]
    expected = ref_rref_mod([list(row) for row in rows], 50, modulus)
    got, log = logged_rref(rows, 50, modulus)
    assert got == expected
    assert got[1][:2] == [0, 1]
    # the list pass's first two pivots wrote no dense update to the rows
    # below, 61 of them nonzero in column 1
    assert sum(bool(row[1]) for row in rows[2:]) == 61
    if not packed(modulus):
        assert log.count(0) == log.count(1) == 1


def big_matrix(nrows, ncols, salt):
    # Deterministic signed entries of 200-240 bits.
    return [[(pow(3, 150 + 7 * i + 3 * j + salt, 2 ** 241) - 2 ** 240)
             // (1 + i + j) for j in range(ncols)] for i in range(nrows)]


def test_large_entries_match_fraction_reference():
    mat = big_matrix(7, 9, 0)
    assert min(abs(x).bit_length() for row in mat for x in row) > 200
    # two dependent rows make the 9x9 matrix rank 7
    mat.append([x - 3 * y for x, y in zip(mat[0], mat[5])])
    mat.append([F(x, 5) + F(y, 7) for x, y in zip(mat[2], mat[3])])
    basis = nullspace(mat)
    assert len(basis) == 2
    assert basis == ref_nullspace(mat)
    assert_kernel(mat, basis, 9)
    sq = big_matrix(8, 8, 11)
    sq[3] = [F(x, 2 ** 200 + 1) for x in sq[3]]
    inv = invert(sq)
    assert inv == ref_invert(sq)
    assert matmul(sq, inv) == identity(8)


def eliminations(monkeypatch, mat, first=None):
    """nullspace(mat) and the Fermat exponent k of every rung
    2^(2^k) + 1 it eliminated modulo; first replaces the first rung when
    given.  A ladder that climbs past F12 fails at once instead of running
    on with ever larger rungs."""
    seen = []
    rref = linalg._rref

    def spy(rows, ncols, modulus):
        seen.append((modulus.bit_length() - 1).bit_length() - 1)
        assert seen[-1] <= 12, seen
        return rref(rows, ncols, modulus)

    monkeypatch.setattr(linalg, "_rref", spy)
    if first is not None:
        monkeypatch.setattr(linalg, "_FIRST_RUNG", first)
    return nullspace(mat), seen


# (matrix, rungs run), the ladder opened at F7, for which these were
# built: a kernel the first rung certifies; a pivot entry
# 2*F7 that vanishes modulo F7, so the rank drops there and its extra
# kernel vector fails the exact check, and whose kernel entry 1/F7 is
# beyond the reconstruction bound of F8 alone; a pivot 3*P7 that is not a
# unit modulo F7; entries of 80 bits, beyond F7's reconstruction bound of
# 63 bits; entries of 700 bits, which F11 alone reaches and F7*F8*F9*F10
# (1924 bits) reaches too; entries of 151 bits, beyond F8 alone (128
# bits) but within F7*F8 (192 bits), so only CRT across the two rungs
# stops at F8; a pivot F7 that vanishes modulo F7 at the same rank but
# a later pivot column, so F7 is replaced by F8, whose bound misses the
# entry -1/F7 alone, and F8*F9 (384 bits) reaches the entry -3^233 (370
# bits), where combining F7's residue 0 for it would need F10; and a
# pivot F8, which is 2 modulo F7 and vanishes modulo F8, so that worse
# rung is skipped and F9 is combined with F7.
MODULAR_CASES = [
    ([[2, 4, F(1, 3)], [1, 0, -5], [3, 4, F(-14, 3)]], [7]),
    ([[2 * F7, 3, 1], [0, 1, 1], [0, 2, 2]], [7, 8, 9]),
    ([[3 * P7, 3, 1], [0, 1, 1], [0, 2, 2]], [7, 8]),
    ([[2 ** 80 + 1, 3 ** 50], [0, 0]], [7, 8]),
    ([[2 ** 700 + 1, 3 ** 440]], [7, 8, 9, 10]),
    ([[2 ** 150 + 1, 3 ** 94]], [7, 8]),
    ([[1, 0, 0, 3 ** 233], [0, 1, 0, 1], [0, 0, F7, 1]], [7, 8, 9]),
    ([[F8, 1, 0], [0, 0, 1]], [7, 8, 9]),
]


@pytest.mark.parametrize("mat,path", MODULAR_CASES,
                         ids=["first-rung", "rank-drop", "zero-divisor",
                              "second-rung", "fifth-rung", "crt",
                              "unlucky-pivots", "worse-rung"])
def test_nullspace_modular_ladder(monkeypatch, mat, path):
    basis, seen = eliminations(monkeypatch, mat, 7)
    assert seen == path
    assert basis == ref_nullspace(mat)
    assert basis and all_fractions(basis)
    assert_kernel(mat, basis, len(mat[0]))


# (matrix, rungs run) from the default first rung F6, whose
# reconstruction bound is sqrt(F6/2), about 2^31.5: a kernel entry
# -3^18/(2^30 + 1) that F6 certifies alone, and one -3^25/(2^40 + 1)
# beyond it, which F6*F7 reaches by CRT
@pytest.mark.parametrize("mat,path", [
    ([[2 ** 30 + 1, 3 ** 18]], [6]),
    ([[2 ** 40 + 1, 3 ** 25]], [6, 7]),
], ids=["31-bit", "40-bit"])
def test_nullspace_ladder_opens_at_f6(monkeypatch, mat, path):
    basis, seen = eliminations(monkeypatch, mat)
    assert seen == path
    assert basis == ref_nullspace(mat)
    assert basis and all_fractions(basis)
    assert_kernel(mat, basis, len(mat[0]))


@pytest.mark.parametrize("mat,path,expected", [
    # the leading 3x3 block has the kernel of the whole matrix: one ladder
    ([[1, 1, 0], [0, 0, 1], [0, 0, 0], [2, 2, 1]], [7], [[-1, 1, 0]]),
    # the leading 3x3 block has rank 1 and the last row cuts its kernel
    # down, so its basis fails on that row and the ladder runs on all rows
    ([[1, 1, 0], [2, 2, 0], [3, 3, 0], [0, 0, 1]], [7, 7], [[-1, 1, 0]]),
], ids=["leading-rows", "all-rows"])
def test_nullspace_leading_rows_first(monkeypatch, mat, path, expected):
    basis, seen = eliminations(monkeypatch, mat, 7)
    assert seen == path
    assert basis == ref_nullspace(mat) == expected
    assert_kernel(mat, basis, 3)


def test_nullspace_abandons_composite_rung(monkeypatch):
    # 641 divides F5, so the pivot 2*641 is no unit there; F6 certifies.
    mat = [[2 * 641, 3, 1], [0, 1, 1], [0, 2, 2]]
    basis, seen = eliminations(monkeypatch, mat, 5)
    assert seen == [5, 6]
    assert basis == ref_nullspace(mat) == [[F(1, 641), F(-1), F(1)]]


@settings(max_examples=150, deadline=None)
@given(rational_matrices())
def test_nullspace_tiny_primes_match_fraction_reference(mat):
    # Rungs this small, from F0 = 3 through the composite
    # F5 = 641*6700417, drop the rank and miss reconstructions often; the
    # exact check must still let only the reduced echelon basis through.
    with mock.patch.object(linalg, "_FIRST_RUNG", 0):
        assert nullspace(mat) == ref_nullspace(mat)
