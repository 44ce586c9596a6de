"""Tests for seed invariants and the degree <= n matrix columns."""

import hashlib
import random
from fractions import Fraction

import pytest
from oracles import fiber_invariant, monomial_class, ref_product_invariant

from qfano import cli, seeds
from qfano.reconstruct import reconstruct
from qfano.ring import basis_index, make_bundle


@pytest.fixture(scope="module")
def flagship():
    return make_bundle(4, 6, [-3, 5, -5])


@pytest.fixture(scope="module")
def p1p1():
    return make_bundle(1, 2)


def test_fiber_multiplicity_two_vanishes(flagship):
    for k in (2, 3, 5):
        assert fiber_invariant(flagship, monomial_class(flagship, 0, 5),
                               monomial_class(flagship, 4, 5), k) == 0


def test_fiber_values(flagship, p1p1):
    assert fiber_invariant(flagship, monomial_class(flagship, 0, 5),
                           monomial_class(flagship, 4, 5), 1) == 1
    assert fiber_invariant(p1p1, monomial_class(p1p1, 0, 1),
                           monomial_class(p1p1, 1, 1), 1) == 1
    # degree mismatch integrates to zero without any explicit filter
    assert fiber_invariant(flagship, monomial_class(flagship, 1, 0),
                           monomial_class(flagship, 4, 5), 1) == 0


def test_blowup_oracle_values(flagship):
    cases = [
        ((4, 0), (2, 4), 2),
        ((2, 0), (4, 4), 2),
        ((2, 0), (3, 5), 5),
        ((3, 0), (4, 3), 2),
        ((3, 0), (3, 4), 5),
        ((3, 0), (2, 5), 5),
    ]
    for (aa, ba), (ab, bb), want in cases:
        got = seeds.blowup_invariant(flagship, flagship.position(aa, ba),
                                     flagship.position(ab, bb), 1)
        assert got == want, ((aa, ba), (ab, bb))


def test_blowup_vanishing_and_symmetry(flagship):
    rng = random.Random(7)
    for _ in range(25):
        i = rng.randrange(flagship.size)
        j = rng.randrange(flagship.size)
        assert seeds.blowup_invariant(flagship, i, j, 2) == 0
        assert (seeds.blowup_invariant(flagship, i, j, 1)
                == seeds.blowup_invariant(flagship, j, i, 1))
        if flagship.degree(i) + flagship.degree(j) != flagship.dim + 1:
            assert seeds.blowup_invariant(flagship, i, j, 1) == 0


def test_blowup_rejects_other_bundles(p1p1):
    with pytest.raises(ValueError):
        seeds.blowup_invariant(p1p1, p1p1.position(1, 0),
                               p1p1.position(1, 1), 1)


def test_product_invariant(p1p1):
    pos = p1p1.position
    assert seeds.product_invariant(p1p1, pos(1, 0), pos(1, 1), 1) == 1
    assert seeds.product_invariant(p1p1, pos(1, 0), pos(1, 1), 2) == 0
    assert seeds.product_invariant(p1p1, pos(0, 1), pos(1, 1), 1) == 0
    twisted = make_bundle(4, 6, [-3, 5, -5])
    with pytest.raises(ValueError):
        seeds.product_invariant(twisted, twisted.position(1, 0),
                                twisted.position(1, 1), 1)


def test_product_invariant_closed_form():
    # on P^n x P^(r-1) one line of class (1,0) meets p^n xi^b and p^n xi^d,
    # once, when b + d = r - 1: the line through two points of P^n
    for n in range(1, 5):
        for r in range(2, 6):
            spec = make_bundle(n, r)
            for i, (a, b) in enumerate(spec.basis):
                for j, (c, d) in enumerate(spec.basis):
                    want = int(a == c == n and b + d == r - 1)
                    assert seeds.product_invariant(spec, i, j, 1) == want, \
                        (n, r, (a, b), (c, d))


@pytest.mark.parametrize("n", range(1, 6))
def test_product_invariant_matches_swapped_fibre_oracle(n):
    # every monomial pair of P^n x P^(r-1), r <= 6, against fiber_invariant
    # on the same product read as a bundle over P^(r-1)
    for r in range(2, 7):
        spec = make_bundle(n, r)
        classes = [monomial_class(spec, a, b) for a, b in spec.basis]
        for i, x in enumerate(classes):
            for j, y in enumerate(classes):
                assert seeds.product_invariant(spec, i, j, 1) == \
                    ref_product_invariant(spec, x, y, 1), (n, r, i, j)
        assert seeds.product_invariant(spec, i, i, 2) == \
            ref_product_invariant(spec, x, x, 2) == 0


def test_builtin_invariants_refuse_multiplicity_zero(flagship, p1p1):
    for spec, invariant in ((flagship, seeds.blowup_invariant),
                            (p1p1, seeds.product_invariant)):
        one = spec.position(0, 0)
        with pytest.raises(ValueError, match="multiplicity must be >= 1"):
            invariant(spec, one, one, 0)


def test_builtin_source_dispatch(flagship, p1p1):
    for spec, invariant in ((flagship, seeds.blowup_invariant),
                            (p1p1, seeds.product_invariant)):
        table = seeds.builtin_source(spec)
        for i, j, k in seeds.demanded_invariants(spec):
            assert table.pure_base(i, j, k) == invariant(spec, i, j, k), \
                (i, j, k)
    other = make_bundle(3, 2, [1])
    with pytest.raises(ValueError):
        seeds.builtin_source(other)


def qpoly(col, spec, a, b):
    return col.get(basis_index(spec, a + b, a) - 1, {})


def seed_and_xi_columns(spec):
    """The seed p columns and the reconstructed xi columns of the same
    degree <= n classes."""
    table = seeds.builtin_source(spec)
    cp = seeds.seed_columns(spec, table)
    _, mxi = reconstruct(spec, table)
    return cp, {j: mxi.column(j) for j in range(spec.size)
                if spec.degree(j) <= spec.n}


def test_flagship_seed_columns(flagship):
    cp, cx = seed_and_xi_columns(flagship)
    assert sorted(cp) == sorted(cx) == [i for i in range(flagship.size)
                                        if flagship.degree(i) <= flagship.n]
    # column of the identity: purely classical p resp. xi
    assert cp[0] == {1: {(0, 0): Fraction(1)}}
    assert cx[0] == {2: {(0, 0): Fraction(1)}}
    # column of p^2: classical p^3 plus q1*(2 xi - p)
    col = cp[basis_index(flagship, 2, 2) - 1]
    assert col == {
        basis_index(flagship, 3, 3) - 1: {(0, 0): Fraction(1)},
        1: {(1, 0): Fraction(-1)},
        2: {(1, 0): Fraction(2)},
    }
    # column of p^3: classical p^4 plus q1*(2 xi^2 - p xi)
    col = cp[basis_index(flagship, 3, 3) - 1]
    assert col == {
        basis_index(flagship, 4, 4) - 1: {(0, 0): Fraction(1)},
        basis_index(flagship, 2, 1) - 1: {(1, 0): Fraction(-1)},
        basis_index(flagship, 2, 0) - 1: {(1, 0): Fraction(2)},
    }
    # column of p^4: no classical part, q1 with alternating signs
    col = cp[basis_index(flagship, 4, 4) - 1]
    assert col == {
        basis_index(flagship, 3, 3) - 1: {(1, 0): Fraction(-1)},
        basis_index(flagship, 3, 2) - 1: {(1, 0): Fraction(1)},
        basis_index(flagship, 3, 1) - 1: {(1, 0): Fraction(-1)},
        basis_index(flagship, 3, 0) - 1: {(1, 0): Fraction(1)},
    }
    # every degree <= n column of the xi matrix is purely classical here
    for col in cx.values():
        for qp in col.values():
            assert set(qp) == {(0, 0)}


def test_p1p1_seed_columns(p1p1):
    cp, cx = seed_and_xi_columns(p1p1)
    pcol = cp[basis_index(p1p1, 1, 1) - 1]
    assert pcol == {0: {(1, 0): Fraction(1)}}
    xcol = cx[basis_index(p1p1, 1, 0) - 1]
    assert xcol == {0: {(0, 1): Fraction(1)}}


def test_seed_table_compares_ints_with_fractions(flagship, tmp_path):
    # 2 and 4/2 for the two orders of a symmetric pair are one value,
    # stored as an int; 2 against 3/2 is still a conflict
    i = basis_index(flagship, 3, 3) - 1
    j = basis_index(flagship, 7, 3) - 1
    seeds_file = tmp_path / "seeds.txt"
    for first, second in (("2", "4/2"), ("4/2", "2")):
        seeds_file.write_text("%s %s\n%s %s\n" % (
            seeds.seed_key(flagship, i, j, 1), first,
            seeds.seed_key(flagship, j, i, 1), second))
        table = seeds.load_seeds(str(seeds_file), flagship)
        value = table.pure_base(i, j, 1)
        assert type(value) is int and value == 2
    for first, second in ((2, Fraction(3, 2)), (Fraction(3, 2), 2)):
        table = seeds.SeedTable(flagship)
        table.set(i, j, 1, first)
        with pytest.raises(ValueError, match="symmetry violation"):
            table.set(j, i, 1, second)
        assert table.pure_base(i, j, 1) == first


def test_seed_table_validation(flagship):
    table = seeds.SeedTable(flagship)
    i = basis_index(flagship, 3, 3) - 1
    j = basis_index(flagship, 7, 3) - 1
    table.set(i, j, 1, 5)
    assert table.pure_base(j, i, 1) == 5
    with pytest.raises(ValueError, match="symmetry violation"):
        table.set(j, i, 1, 4)
    with pytest.raises(ValueError, match="dimension constraint"):
        table.set(i, i, 1, 1)
    with pytest.raises(seeds.MissingSeedError,
                       match=r"missing seed invariant \(3,3\) \(7,3\) 2 0"):
        table.pure_base(i, j, 2)


def test_load_seeds(tmp_path, flagship):
    path = tmp_path / "t.seeds"
    path.write_text(
        "# comment line\n"
        "(3,3) (7,3) 1 0 5   # trailing comment\n"
        "\n"
        "(4,4) (6,2) 1 0 2\n")
    table = seeds.load_seeds(str(path), flagship)
    i = basis_index(flagship, 3, 3) - 1
    j = basis_index(flagship, 7, 3) - 1
    assert table.pure_base(i, j, 1) == 5


def test_load_seeds_rejections(tmp_path, flagship):
    def attempt(body):
        path = tmp_path / "bad.seeds"
        path.write_text(body)
        return seeds.load_seeds(str(path), flagship)

    with pytest.raises(ValueError, match="5 fields"):
        attempt("(3,3) (7,3) 1 0\n")
    with pytest.raises(ValueError, match="base-ray rows"):
        attempt("(3,3) (9,4) 0 1 1\n")
    with pytest.raises(ValueError, match="pair"):
        attempt("3,3 (7,3) 1 0 5\n")
    with pytest.raises(ValueError, match="no basis monomial"):
        attempt("(3,9) (7,3) 1 0 5\n")
    with pytest.raises(ValueError, match="symmetry violation"):
        attempt("(3,3) (7,3) 1 0 5\n(7,3) (3,3) 1 0 4\n")
    with pytest.raises(ValueError, match="dimension constraint"):
        attempt("(3,3) (6,3) 1 0 5\n")


def test_load_seeds_reports_raw_line_number(tmp_path, flagship):
    path = tmp_path / "bad.seeds"
    path.write_text("# header\n\n   # indented comment\n"
                    "(3,3) (7,3) 1 0 5\n(3,3) (7,3) 1 0\n")
    with pytest.raises(ValueError, match=r"bad\.seeds:5: expected 5 fields"):
        seeds.load_seeds(str(path), flagship)


def test_missing_seed_reported_with_exact_key(flagship):
    table = seeds.SeedTable(flagship)
    with pytest.raises(seeds.MissingSeedError) as err:
        seeds.seed_columns(flagship, table)
    assert "missing seed invariant" in str(err.value)


def test_dump_round_trip(tmp_path):
    # the flagship and every product bundle P^n x P^(r-1), n <= 4, r <= 5
    bundles = [(4, 6, [-3, 5, -5])] + [(n, r) for n in range(1, 5)
                                       for r in range(2, 6)]
    path = tmp_path / "dump.seeds"
    for bundle in bundles:
        spec = make_bundle(*bundle)
        builtin = seeds.builtin_source(spec)
        path.write_text("\n".join(seeds.dump_seed_lines(spec, builtin)) + "\n")
        table = seeds.load_seeds(str(path), spec)
        assert (seeds.seed_columns(spec, table)
                == seeds.seed_columns(spec, builtin)), bundle


def test_empty_seed_file_ok_when_nothing_demanded(tmp_path):
    spec = make_bundle(1, 2, [1])
    assert seeds.demanded_invariants(spec) == []
    path = tmp_path / "empty.seeds"
    path.write_text("# nothing\n")
    table = seeds.load_seeds(str(path), spec)
    assert set(seeds.seed_columns(spec, table)) == {0, 1, 2}


def test_mixed_curve_class_out_of_scope():
    spec = make_bundle(2, 2, [-2])
    with pytest.raises(ValueError, match="mixed curve class"):
        seeds.seed_columns(spec, seeds.SeedTable(spec))


# sha256 of `qfano seeds --out DIR` DIR/seeds.txt, by bundle: the two
# builtins and each product config (n, r); the closed forms must keep the
# bytes the Schubert-calculus and swapped-fibre seed sources wrote.
SEED_DUMP_SHA256 = {
    "flagship": "ddb107bf6671c0a9ef466e1b1cb2ba4c703bff005846f4d8b98d449f41c12819",
    "p1-trivial": "ddb18cda191ac542f9de8d5463c11411e5813db32825349235d7cdd2fb1f12e7",
    (1, 2): "ddb18cda191ac542f9de8d5463c11411e5813db32825349235d7cdd2fb1f12e7",
    (1, 3): "3adf1ba3053d691ec0d8531df8f0621eec4d3c87b6fb6594bf1ea093f9b251e4",
    (1, 4): "4a46883ad42f76fc3b5214caace7ab2c49ab079bdbd04b8c1714224bba832530",
    (1, 5): "f197191eae495a6446e4b0102c5fe56106ad765608ac0b6f5407bb080efde6c9",
    (2, 2): "5b8108c854723ec1203818984e9d9ef1ccfd935b32828cefb3d5f9ae34762db6",
    (2, 3): "5b67ec62547379c8706766cef6c67e58a252c1e249aa8b43c487071b932614d9",
    (2, 4): "dd8d193f11cde275bcfbb6e923b3dd14250accccaa9e457e486b43f46cb3bbed",
    (2, 5): "e57ce5fa8c2e7848c72be3eebe1d7f667e084b43f3ff01e1af960c7e6b303366",
    (3, 2): "2d6c4a9d3d36cb182f674c748aa15851cee1031f64674cfc947d64392da0e867",
    (3, 3): "481a0fb566168d72714e2eb423f7132b323f661ff8fafbb89466bcc80f9e97e5",
    (3, 4): "2545025046a3a12efab29b833c21678a4300eef5285b04e1048b9a3b56a291f8",
    (3, 5): "9775dd3446a4d0ea5eca6cd15091816064eb5eba993b1f3145a6dcb98da907d5",
    (4, 2): "d0a19d81a67095b2ed69ee580bdb74af3d42359ddc3a13d07d8ba6f744283542",
    (4, 3): "17811e6cc555d9d4c534b69b86d7ad695f17504024c9e0b579b68d4e7a611569",
    (4, 4): "161e7ef53efc0f3161a805b940868139b629b2216038cef50380f91d1ff7d76c",
    (4, 5): "ce8adbfad90a0b47b5087b8bb097c6018021d7635eb8b8532a2eb9e06ccbb313",
}


@pytest.mark.parametrize("bundle", list(SEED_DUMP_SHA256), ids=str)
def test_seed_dump_bytes_pinned(tmp_path, capsys, bundle):
    if isinstance(bundle, tuple):
        cfg = tmp_path / "product.cfg"
        cfg.write_text("n = %d\nr = %d\n" % bundle)
        bundle_arg = str(cfg)
    else:
        bundle_arg = bundle
    out = tmp_path / "dump"
    assert cli.main(["seeds", "--bundle", bundle_arg, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    digest = hashlib.sha256((out / "seeds.txt").read_bytes()).hexdigest()
    assert digest == SEED_DUMP_SHA256[bundle]
