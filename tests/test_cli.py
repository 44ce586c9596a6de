"""End-to-end checks of the command line via subprocess."""

import argparse
import hashlib
import io
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import (coefficient_table, hypergeometric_modify, laurent_period,
                     mirror_map_correction, period_sequence, regularize,
                     rescaled, toric_mirror)

from qfano import cli, lefschetz, qde, seeds
from qfano.fixtures_io import fixture_lines, load_named_expressions
from qfano.reconstruct import QuantumMatrix, flatness_defect, reconstruct
from qfano.ring import make_bundle


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "qfano.cli"] + list(argv),
        capture_output=True, text=True, timeout=600)


def test_reconstruct_verify_fixture_both_builtins():
    for bundle in ("flagship", "p1-trivial"):
        proc = run_cli("reconstruct", "--bundle", bundle, "--verify-fixture")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.count("matches") == 2


def test_reconstruct_stdout_sections():
    proc = run_cli("reconstruct", "--bundle", "p1-trivial")
    assert proc.returncode == 0
    assert "# ==> mp.triplets <==" in proc.stdout
    assert "# ==> mxi_dense.csv <==" in proc.stdout
    assert "1 2 1 0 1" in proc.stdout.splitlines()


def test_reconstruct_out_dir_deterministic(tmp_path):
    out1 = tmp_path / "one"
    out2 = tmp_path / "two"
    for out in (out1, out2):
        proc = run_cli("reconstruct", "--bundle", "p1-trivial",
                       "--out", str(out))
        assert proc.returncode == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "mp.triplets", "mp_dense.csv", "mxi.triplets", "mxi_dense.csv"]
    for name in ("mp.triplets", "mxi_dense.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_reconstruct_empty_seed_file_names_first_gap(tmp_path):
    empty = tmp_path / "empty.seeds"
    empty.write_text("")
    proc = run_cli("reconstruct", "--bundle", "flagship",
                   "--seeds", str(empty))
    assert proc.returncode == 2
    assert "missing seed invariant (1,1) (9,4) 1 0" in proc.stderr


@pytest.mark.parametrize("command", ["reconstruct", "jfun"])
def test_empty_seed_file_out_of_scope_spec_is_input_error(tmp_path, command):
    cfg = tmp_path / "mixed.cfg"
    cfg.write_text("n = 3\nr = 2\nchern = -2\n")
    empty = tmp_path / "empty.seeds"
    empty.write_text("")
    proc = run_cli(command, "--bundle", str(cfg), "--seeds", str(empty))
    assert proc.returncode == 2, proc.stderr
    assert "mixed curve class" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("body", ["n = 4\nr = 6\nchern = -3 5 -5\n",
                                  "# P^1 x P^1\nn = 1\nr = 2\n"])
def test_verify_fixture_finds_config_file_spec(tmp_path, body):
    cfg = tmp_path / "bundle.cfg"
    cfg.write_text(body)
    proc = run_cli("reconstruct", "--bundle", str(cfg), "--verify-fixture")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("matches") == 2


def test_verify_fixture_without_packaged_matrices(tmp_path):
    cfg = tmp_path / "other.cfg"
    cfg.write_text("n = 2\nr = 2\n")
    proc = run_cli("reconstruct", "--bundle", str(cfg), "--verify-fixture")
    assert proc.returncode == 2
    assert "no packaged fixture matrices" in proc.stderr


def test_unknown_bundle_rejected():
    proc = run_cli("reconstruct", "--bundle", "nosuch")
    assert proc.returncode == 2
    assert "unknown bundle" in proc.stderr


def test_bad_bundle_config_names_line_and_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n = x\nr = 2\n")
    proc = run_cli("reconstruct", "--bundle", str(cfg))
    assert proc.returncode == 2
    assert "%s:1: n must be an integer, got 'x'" % cfg in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("body,error", [
    ("n = 1\nr = 2\nchern = 0 0 0\n", "got 3 Chern coefficients for rank 2"),
    ("n = 0\nr = 2\n", "base dimension must satisfy n >= 1"),
    ("n = 1\nr = 1\n", "rank must satisfy r >= 2"),
    ("n = 1\nr = 2\nchern = -9\n",
     "assumption violated: r + 1 + c_1 = -6 <= 0")],
    ids=["too-many-chern", "n-zero", "r-one", "negative-c1"])
def test_bundle_config_refused_by_make_bundle_names_file(tmp_path, capsys,
                                                         body, error):
    # the keys parse, but the bundle they describe is refused
    cfg = tmp_path / "bundle.cfg"
    cfg.write_text(body)
    assert cli.main(["reconstruct", "--bundle", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s: %s\n" % (cfg, error)


# Each config body is read as the flagship by int(); the grammar of every
# input file takes an optional -, then ASCII digits.
@pytest.mark.parametrize("body,error", [
    ("n = \u0664\nr = 6\nchern = -3 5 -5\n",
     "1: n must be an integer, got '\u0664'"),
    ("n = +4\nr = 6\nchern = -3 5 -5\n", "1: n must be an integer, got '+4'"),
    ("n = 4\nr = 6\nchern = -3, 5, -0_5\n",
     "3: chern must be integers, got '-3, 5, -0_5'")],
    ids=["arabic-indic-digit", "plus-sign", "underscore"])
def test_bundle_config_literal_outside_grammar(tmp_path, capsys, body, error):
    cfg = tmp_path / "bundle.cfg"
    cfg.write_text(body)
    status = cli.main(["reconstruct", "--bundle", str(cfg), "--verify-fixture"])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert captured.err == "error: %s:%s\n" % (cfg, error)


# Each line but the last is read as the dump's `(2,2) (8,4) 1 0 2` by
# int() and Fraction(); seed values take digits and digits/digits with a
# nonzero denominator, fields digits.
@pytest.mark.parametrize("line,error", [
    ("(2,2) (8,4) 1 0 2e0", "bad number '2e0'"),
    ("(2,2) (8,4) 1 0 2.0", "bad number '2.0'"),
    ("(2,2) (8,4) 1 0 \u0662", "bad number '\u0662'"),
    ("(2,2) (8,4) 0_1 0 2", "bad integer '0_1'"),
    ("(2,2) (8,4) +1 0 2", "bad integer '+1'"),
    ("(\u0662,2) (8,4) 1 0 2", "bad integer '\u0662'"),
    ("(2,2) (8,4) 1 0 1/0", "zero denominator in '1/0'")],
    ids=["exponent-value", "decimal-value", "arabic-indic-value",
         "underscore-multiple", "plus-multiple", "arabic-indic-degree",
         "zero-denominator-value"])
def test_seed_literal_outside_grammar(tmp_path, capsys, line, error):
    out = tmp_path / "sd"
    assert cli.main(["seeds", "--out", str(out)]) == 0
    lines = (out / "seeds.txt").read_text().splitlines()
    assert lines[3] == "(2,2) (8,4) 1 0 2"
    lines[3] = line
    path = tmp_path / "odd.seeds"
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    status = cli.main(["reconstruct", "--seeds", str(path), "--verify-fixture"])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert captured.err == "error: %s:4: %s\n" % (path, error)


# A bundle spec within make_bundle's ranges, and a seed value.
SPECS = st.tuples(st.integers(1, 3), st.integers(2, 4),
                  st.lists(st.integers(-2, 2), min_size=4, max_size=4))
SEED_VALUES = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@settings(max_examples=200, deadline=None)
@given(SPECS, st.data())
def test_random_bundle_and_seed_table_never_raise(key, data):
    # every valid spec with any seed table over the demanded invariants:
    # each command succeeds, reports a mismatch or refuses the input
    n, r, chern = key
    try:
        spec = make_bundle(n, r, chern[:r])
    except ValueError:
        assume(False)
    values = {}
    lines = []
    for i, j, k in seeds.demanded_invariants(spec):
        pair = (min(i, j), max(i, j), k)
        if pair not in values:
            values[pair] = data.draw(SEED_VALUES, label=str(pair))
        lines.append("%s %s" % (seeds.seed_key(spec, i, j, k), values[pair]))
    with tempfile.TemporaryDirectory() as tmp:
        cfg, table = Path(tmp, "bundle.cfg"), Path(tmp, "seeds.txt")
        cfg.write_text("n = %d\nr = %d\nchern = %s\n"
                       % (n, r, " ".join(map(str, spec.chern))))
        table.write_text("".join(line + "\n" for line in lines))
        common = ["--bundle", str(cfg), "--seeds", str(table)]
        for argv in (["reconstruct"], ["seeds"], ["jfun", "--order", "3"],
                     ["periods", "--cut", "", "--terms", "6"]):
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                status = cli.main(argv + common)
            assert status in (0, 1, 2), argv


# Each option that reads a file, given {file}.
FILE_OPTIONS = [
    ["reconstruct", "--bundle", "{file}"],
    ["reconstruct", "--seeds", "{file}"],
    ["jfun", "--order", "4", "--check-operators", "{file}"],
    ["periods", "--terms", "4", "--pf-verify", "{file}"],
]


@pytest.mark.parametrize("argv", FILE_OPTIONS,
                         ids=["bundle", "seeds", "check-operators",
                              "pf-verify"])
def test_non_utf8_file_is_input_error_naming_it(tmp_path, capsys, argv):
    path = tmp_path / "input.txt"
    path.write_bytes(b"\xff\n")
    out = tmp_path / "out"
    status = cli.main([arg.format(file=path) for arg in argv]
                      + ["--out", str(out)])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert captured.err == (
        "error: %s: 'utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte\n" % path)
    assert not out.exists()


def test_bundle_config_file_matches_builtin(tmp_path):
    cfg = tmp_path / "bundle.cfg"
    cfg.write_text("n = 1\nr = 2\n")
    from_cfg = run_cli("reconstruct", "--bundle", str(cfg))
    builtin = run_cli("reconstruct", "--bundle", "p1-trivial")
    assert from_cfg.returncode == 0
    assert from_cfg.stdout == builtin.stdout


def test_jfun_order_zero_single_coefficient():
    proc = run_cli("jfun", "--order", "0")
    assert proc.returncode == 0
    rows = [line for line in proc.stdout.splitlines()
            if line and not line.startswith("#")]
    assert rows == ["i,j,c", "0,0,1"]


def test_jfun_apery_corner(tmp_path):
    out = tmp_path / "jf"
    proc = run_cli("jfun", "--order", "5", "--apery", "3",
                   "--out", str(out))
    assert proc.returncode == 0
    assert (out / "apery.csv").read_text() == "1,1,1\n0,5,20\n0,4,73\n"


def test_jfun_check_operators_builtin_set():
    proc = run_cli("jfun", "--order", "4", "--check-operators")
    assert proc.returncode == 0
    for name in ("annihilator_1", "annihilator_2",
                 "annihilator_3", "annihilator_4"):
        assert "%s: residual zero at all 15 indices" % name in proc.stdout


MIXED_OPS = (
    "annihilator_3 = 5*D1^3*D2^3 - 5*D1^2*D2^4 + 3*D1*D2^5 - D2^6 "
    "+ 5*q1*D1*D2^3 - 10*q1*D2^4 + q2\n"
    "fails = D1^5 - 2/3*z*D1^5 + 3/7*q1*D1^5\n")


def test_jfun_check_operators_reports_failure(tmp_path):
    # whole report lines, recorded from the check on the J-series frames
    fails = "fails: residual nonzero at index (1,0), component 2: " \
        "-1*z^2, 2/3*z^3"
    annihilator_4 = load_named_expressions(
        fixture_lines("qde_operators.txt"))["annihilator_4"]
    cases = [
        ("flagship", 2, MIXED_OPS, 1, fails),
        ("flagship", 8, MIXED_OPS, 1, fails),
        ("p1-trivial", 8, "x = D1^2 - q1\ny = D2^2 - q2\nw = D1*D2 - q1\n",
         1, "w: residual nonzero at index (0,0), component 4: 1*z^0"),
        # the only defect lies beyond --order, so the check passes
        ("flagship", 4, "bad = %s + q1^9*q2^9\n" % annihilator_4, 0,
         "bad: residual zero at all 15 indices")]
    ops = tmp_path / "check.ops"
    for bundle, order, body, status, line in cases:
        ops.write_text(body)
        proc = run_cli("jfun", "--bundle", bundle, "--order", str(order),
                       "--check-operators", str(ops))
        assert (proc.returncode, proc.stderr) == (status, ""), line
        assert line in proc.stdout.splitlines()


def test_jfun_check_operators_rejects_duplicate_name(tmp_path):
    # a second A would hide the first, so D1 - q1 would go unchecked
    ops = tmp_path / "dup.ops"
    ops.write_text("A = D1 - q1\nA = D2^2 - q2\n")
    proc = run_cli("jfun", "--bundle", "p1-trivial", "--order", "4",
                   "--check-operators", str(ops))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: %s:2: duplicate name 'A'\n" % ops


@pytest.mark.parametrize("body,error", [
    ("A = D1 - q1\nB\n", "2: expected `name = expression`, got 'B'"),
    ("# one\nA = D1 - Q\n", "2: unknown atom 'Q' in term '-Q'"),
    # int() reads both; the grammar takes ASCII digits only
    ("A = D1^\u00b2\n", "1: bad exponent '\u00b2' in term 'D1^\u00b2'"),
    ("A = D1^\u0663 - D1^3\n",
     "1: bad exponent '\u0663' in term 'D1^\u0663'"),
    # Fraction() reads these; the grammar takes digits and digits/digits
    ("A = D1 - q1\nB = 1e3*D2^2 - q2\n",
     "2: bad coefficient '1e3' in term '1e3*D2^2'"),
    ("A = D1 - 1_0*q1\n", "1: bad coefficient '1_0' in term '-1_0*q1'"),
    ("A = 1.5*D1 - q1\n", "1: bad coefficient '1.5' in term '1.5*D1'")],
    ids=["malformed", "bad-atom", "superscript-exponent",
         "arabic-indic-exponent", "exponent-literal", "underscore-literal",
         "decimal-literal"])
def test_jfun_check_operators_bad_line_names_file(tmp_path, body, error):
    ops = tmp_path / "bad.ops"
    ops.write_text(body, encoding="utf-8")
    proc = run_cli("jfun", "--bundle", "p1-trivial", "--order", "4",
                   "--check-operators", str(ops))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: %s:%s\n" % (ops, error)


def test_jfun_check_operators_builds_each_chain_once(tmp_path, monkeypatch):
    # 29 distinct chains D1^k D2^l * 1 serve the four packaged operators;
    # one chain per operator term would cost 141 steps
    passes = []
    nabla = qde._nabla

    def spy(*args):
        passes.append(None)
        return nabla(*args)

    monkeypatch.setattr(qde, "_nabla", spy)
    status = cli.main(["jfun", "--order", "6", "--apery", "4",
                       "--check-operators", "--out", str(tmp_path)])
    assert status == 0
    assert len(passes) == 29


def test_each_matrix_lifts_once_until_a_column_changes(tmp_path,
                                                       monkeypatch):
    # flatness_defect, the two rays of the solve and check_operator read
    # six lifts of two builds, one per matrix
    reads = []
    lift = QuantumMatrix.lift

    def spy(self):
        out = lift(self)
        reads.append((self.label, out))  # kept alive, so ids stay distinct
        return out

    monkeypatch.setattr(QuantumMatrix, "lift", spy)
    status = cli.main(["jfun", "--order", "6", "--apery", "4",
                       "--check-operators", "--out", str(tmp_path)])
    assert status == 0
    assert len(reads) == 6
    assert sorted({id(out): label for label, out in reads}.values()) == [
        "p", "xi"]
    # a column set after a lift reaches the next lift: doubling the q-part
    # of a p column breaks flatness, as on a pair never lifted before
    spec = make_bundle(*cli.BUILTIN_BUNDLES["flagship"])
    j = spec.position(2, 0)

    def perturbed(mp):
        mp.set_column(j, {row: {key: v * (1 + (key != (0, 0)))
                                for key, v in qp.items()}
                          for row, qp in mp.column(j).items()})
        return mp

    mp, mxi = reconstruct(spec, seeds.builtin_source(spec))
    assert flatness_defect(mp, mxi) is None
    defect = flatness_defect(perturbed(mp), mxi)
    assert defect is not None
    mp, mxi = reconstruct(spec, seeds.builtin_source(spec))
    assert defect == flatness_defect(perturbed(mp), mxi)


@pytest.mark.parametrize("body,error", [
    ("# no operators here\n\n", "no operators"),
    ("A = 0\nB = D1 - q1\n", "operator 'A' is zero"),
    ("a = D1 - D1\n", "operator 'a' is zero")],
    ids=["no-operators", "zero-operator", "cancelling-operator"])
def test_jfun_check_operators_refuses_empty_check(tmp_path, body, error):
    ops = tmp_path / "ops.txt"
    ops.write_text(body)
    out = tmp_path / "jf"
    proc = run_cli("jfun", "--bundle", "p1-trivial", "--order", "4",
                   "--check-operators", str(ops), "--out", str(out))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: %s: %s\n" % (ops, error)
    assert not out.exists()


@pytest.mark.parametrize("body,line", [
    ("a = D1^1200",
     "a: residual nonzero at index (1,0), component 2: -1*z^1197"),
    ("b = D2^1200",
     "b: residual nonzero at index (0,1), component 1: 1*z^1194")],
    ids=["D1^1200-(1,0)", "D2^1200-(0,1)"])
def test_jfun_check_operators_high_power(tmp_path, body, line):
    # a chain of 1200 steps is built in a loop, not one call deep per
    # D-power, and its residual is reported like any other
    ops = tmp_path / "high.ops"
    ops.write_text(body + "\n")
    out = tmp_path / "jf"
    proc = run_cli("jfun", "--order", "2", "--check-operators", str(ops),
                   "--out", str(out))
    assert proc.returncode == 1
    assert proc.stderr == ""
    assert (out / "operator_report.txt").read_text() == line + "\n"


def test_periods_pf_verify_refuses_zero_operator(tmp_path):
    op = tmp_path / "zero.pf"
    op.write_text("# annihilates everything\n0\n")
    out = tmp_path / "pf"
    proc = run_cli("periods", "--terms", "8", "--pf-verify", str(op),
                   "--out", str(out))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: %s: operator is zero\n" % op
    assert not out.exists()


def test_periods_pf_verify_bad_file_names_file(tmp_path):
    op = tmp_path / "bad.pf"
    op.write_text("# two lines\nD^2\n- t*Q\n")
    proc = run_cli("periods", "--terms", "4", "--pf-verify", str(op))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("error: %s: unknown atom 'Q' in term '-t*Q'\n"
                           % op)


def test_jfun_apery_needs_enough_order():
    proc = run_cli("jfun", "--order", "2", "--apery", "4")
    assert proc.returncode == 2
    assert "recompute with order >=" in proc.stderr


def test_periods_regularized_matches_packaged_sequence():
    proc = run_cli("periods", "--terms", "10", "--regularized")
    expected = [line.split("#", 1)[0].strip()
                for line in fixture_lines("regularized_periods10.txt")]
    expected = [line for line in expected if line]
    got = [line for line in proc.stdout.splitlines()
           if line and not line.startswith("#")]
    assert proc.returncode == 0
    assert got == expected


def test_periods_plain_prefix():
    proc = run_cli("periods", "--terms", "4")
    got = [line for line in proc.stdout.splitlines()
           if line and not line.startswith("#")]
    assert proc.returncode == 0
    assert got == ["1", "0", "5", "7"]


def test_periods_single_term():
    proc = run_cli("periods", "--terms", "1")
    got = [line for line in proc.stdout.splitlines()
           if line and not line.startswith("#")]
    assert proc.returncode == 0
    assert got == ["1"]


def test_periods_pf_verify_regularized():
    proc = run_cli("periods", "--terms", "12", "--regularized",
                   "--pf-verify")
    assert proc.returncode == 0
    assert "annihilates all 12 certified positions" in proc.stdout


def test_periods_pf_verify_first_certified_position():
    # position 2 is the first whose packaged residual reads the sequence
    proc = run_cli("periods", "--terms", "3", "--regularized",
                   "--pf-verify")
    assert proc.returncode == 0
    assert "operator annihilates all 3 certified positions" in proc.stdout


def test_periods_pf_verify_plain_sequence_fails():
    proc = run_cli("periods", "--terms", "12", "--pf-verify")
    assert proc.returncode == 1
    assert "operator residual" in proc.stdout


def test_periods_pf_verify_prints_a_long_residual_in_full(tmp_path):
    # the sequence reads 1, 0, 5, 7, so the first nonzero residual is
    # (2^100000 - 3*2^99999)*5 at position 2: 30104 digits, more than str
    # writes under the default limit; Decimal writes them independently
    op = tmp_path / "long.op"
    op.write_text("D^100000 - 3*D^99999\n")
    proc = run_cli("periods", "--terms", "4", "--pf-verify", str(op))
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == ""
    digits = str(Decimal(-5 * 2 ** 99999))
    assert len(digits) == 30105
    assert "operator residual %s at position 2\n" % digits in proc.stdout


def test_periods_pf_search_reports_no_hit():
    proc = run_cli("periods", "--terms", "8", "--regularized",
                   "--pf-search", "1,1")
    assert proc.returncode == 1
    assert "no annihilator within order 1, degree 1" in proc.stdout


def test_periods_pf_search_refuses_multi_rung_kernel():
    # the 128x65 kernel lifts from F6, F7 and F8 combined by CRT, not
    # from F6 and F7
    proc = run_cli("periods", "--terms", "128", "--regularized",
                   "--pf-search", "4,12")
    assert proc.returncode == 2
    assert proc.stderr == (
        "error: annihilator space is 4-dimensional at order 4, degree 12; "
        "the sequence does not pin one operator\n")


def test_periods_pf_search_bad_bounds():
    proc = run_cli("periods", "--terms", "8", "--pf-search", "4")
    assert proc.returncode == 2
    assert "ORDER,DEGREE" in proc.stderr


@pytest.mark.parametrize("bounds,bad", [("4,-2", "degree bound"),
                                        ("-1,3", "order bound"),
                                        ("0,-10", "degree bound")],
                         ids=["4,-2", "-1,3", "0,-10"])
def test_periods_pf_search_negative_bound_is_config_error(bounds, bad):
    proc = run_cli("periods", "--bundle", "flagship", "--terms", "20",
                   "--regularized", "--pf-search=" + bounds)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: operator " + bad)
    assert proc.stdout == ""


def test_periods_dilaton_abort_is_config_error():
    proc = run_cli("periods", "--bundle", "p1-trivial", "--terms", "4")
    assert proc.returncode == 2
    assert "non-trivial dilaton shift" in proc.stderr


# The period of the cut is graded by -K_Y, not by total Novikov degree:
# -K_Y = (1,2) for p,xi^4 and (2,1) for xi^5 on the flagship.
@pytest.mark.parametrize("cut,expected", [
    ("p,xi^4", [1, 0, 2, 30, 54, 600, 6590, 26040, 265510]),
    ("xi^5", [1, 0, 0, 30, 120, 240, 5850, 50400, 214200])])
def test_periods_graded_by_anticanonical_class(cut, expected):
    proc = run_cli("periods", "--cut", cut, "--terms", "9", "--regularized")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1:] == [str(v) for v in expected]


def test_periods_non_ample_cut_is_config_error():
    proc = run_cli("periods", "--cut", "p^2,xi^5", "--terms", "9",
                   "--regularized")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "non-trivial dilaton shift" in proc.stderr
    assert "-K_Y = (0,1)" in proc.stderr


def test_periods_empty_cut_is_period_of_the_bundle(capsys):
    # P^1 x P^1 graded by -K = (2,2): term 2k is binom(2k,k)^2
    status = cli.main(PERIODS + ["--bundle", "p1-trivial", "--cut", "",
                       "--terms", "9", "--regularized"])
    assert status == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "1", "0", "4", "0", "36", "0", "400", "0", "4900"]


def test_periods_empty_cut_matches_p0(capsys):
    outs = []
    for cut in ("", "p^0"):
        status = cli.main(PERIODS + ["--cut", cut, "--terms", "12",
                           "--regularized"])
        assert status == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def projective_product_periods(dims, terms):
    """Regularized period of the product of P^k over dims, closed form:
    m! times the t^m coefficient of the product over k >= 1 of
    sum_a t^((k+1)a) / (a!)^(k+1)."""
    series = [Fraction(1)] + [Fraction(0)] * (terms - 1)
    for k in dims:
        if k < 1:
            continue
        factor = [Fraction(0)] * terms
        for a in range(0, terms, k + 1):
            factor[a] = Fraction(1, factorial(a // (k + 1)) ** (k + 1))
        series = [sum(series[i] * factor[m - i] for i in range(m + 1))
                  for m in range(terms)]
    return [val * factorial(m) for m, val in enumerate(series)]


@pytest.mark.parametrize("n,r,cut", [(n, r, cut) for n in (1, 2, 3, 4)
                                     for r in (2, 3, 4, 5)
                                     for cut in ("p", "xi", "")])
def test_periods_product_bundles_closed_form(tmp_path, capsys, n, r, cut):
    # cutting P^n x P^(r-1) by p gives P^(n-1) x P^(r-1), by xi
    # P^n x P^(r-2), and the empty cut leaves P^n x P^(r-1)
    cfg = tmp_path / "product.cfg"
    cfg.write_text("n = %d\nr = %d\n" % (n, r))
    status = cli.main(PERIODS + ["--bundle", str(cfg), "--cut", cut,
                       "--terms", "13", "--regularized"])
    out = capsys.readouterr().out
    assert status == 0
    dims = {"p": (n - 1, r - 1), "xi": (n, r - 2), "": (n, r - 1)}[cut]
    assert out.splitlines()[1:] == [
        str(v) for v in projective_product_periods(dims, 13)]


# Mirror Laurent polynomials by the exponent vectors of their monomials:
# x + 1/x + y + 1/y for P^1 x P^1, and x + y + z + 1/z + z/(xy) for
# Bl_pt P^3 = P(O + O(-1)) over P^2
P1P1_MIRROR = [(1, 0), (-1, 0), (0, 1), (0, -1)]
BLPT_P3_MIRROR = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, -1), (-1, -1, 1)]


def test_laurent_period_of_p1p1_is_squared_binomials():
    # the oracle alone: the constant term of (x + 1/x + y + 1/y)^(2k) is
    # binom(2k,k)^2, and odd powers have none
    assert laurent_period(P1P1_MIRROR, 12) == [
        0 if m % 2 else (factorial(m) // factorial(m // 2) ** 2) ** 2
        for m in range(12)]


def regularized_periods(capsys, argv, terms, cut=""):
    status = cli.main(["periods", "--cut", cut, "--regularized", "--terms",
                       str(terms)] + argv)
    assert status == 0
    return [int(line) for line in capsys.readouterr().out.splitlines()[1:]]


def test_periods_empty_cut_is_mirror_period_p1p1(capsys):
    got = regularized_periods(capsys, ["--bundle", "p1-trivial"], 12)
    assert got == laurent_period(P1P1_MIRROR, 12)
    assert got[:5] == [1, 0, 4, 0, 36] and got[-2:] == [63504, 0]


def blpt_argv(tmp_path, n):
    """--bundle and --seeds of Bl_pt P^(n+1) = P(O + O(-1)) over P^n: the
    one nonzero seed is the line in the exceptional P^n, written into a
    table of the five demanded keys."""
    cfg = tmp_path / "blpt.cfg"
    cfg.write_text("n = %d\nr = 2\nchern = -1 0\n" % n)
    spec = make_bundle(n, 2, (-1, 0))
    line = (spec.position(n, 0),) * 2 + (1,)
    demanded = [key for key in seeds.demanded_invariants(spec)
                if key[0] <= key[1]]
    assert len(demanded) == 5
    table = tmp_path / "blpt.seeds"
    table.write_text("".join("%s %d\n" % (seeds.seed_key(spec, *key),
                                          key == line)
                             for key in demanded))
    return ["--bundle", str(cfg), "--seeds", str(table)]


def test_periods_empty_cut_is_mirror_period_blpt_p3(tmp_path, capsys):
    # Bl_pt P^3 has no builtin seeds: its one nonzero seed is the line in
    # the exceptional plane
    got = regularized_periods(capsys, blpt_argv(tmp_path, 2), 13)
    assert "(2,2) (2,2) 1 0 1\n" in (tmp_path / "blpt.seeds").read_text()
    assert got == laurent_period(BLPT_P3_MIRROR, 13)
    assert got[:5] == [1, 0, 2, 0, 30] and got[-1] == 1784244


def test_toric_mirror_builds_the_recorded_fans():
    assert sorted(toric_mirror(1, (0,))) == sorted(P1P1_MIRROR)
    assert sorted(toric_mirror(2, (1,))) == sorted(BLPT_P3_MIRROR)


@pytest.mark.parametrize("n,r", [(n, r) for n in (1, 2, 3)
                                 for r in (2, 3, 4)])
def test_periods_empty_cut_is_mirror_period_products(tmp_path, capsys,
                                                     n, r):
    cfg = tmp_path / "product.cfg"
    cfg.write_text("n = %d\nr = %d\n" % (n, r))
    got = regularized_periods(capsys, ["--bundle", str(cfg)], 10)
    assert got == laurent_period(toric_mirror(n, (0,) * (r - 1)), 10)


@pytest.mark.parametrize("n", [3, 4])
def test_periods_empty_cut_is_mirror_period_blpt(tmp_path, capsys, n):
    got = regularized_periods(capsys, blpt_argv(tmp_path, n), 14)
    assert got == laurent_period(toric_mirror(n, (1,)), 14)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_periods_nef_cut_of_blpt_is_projective_space(tmp_path, capsys, n):
    # cutting Bl_pt P^(n+1) by xi leaves P^n: ((n+1)k)!/(k!)^(n+1) at
    # m = (n+1)k and zero elsewhere
    got = regularized_periods(capsys, blpt_argv(tmp_path, n), 13, cut="xi")
    assert got == [0 if m % (n + 1) else
                   factorial(m) // factorial(m // (n + 1)) ** (n + 1)
                   for m in range(13)]


def test_mirror_period_rejects_bumped_seed(tmp_path, capsys):
    # the seed of value 1 raised to 2 passes every ring check, so
    # reconstruct accepts it; only the mirror period sees the defect
    table = tmp_path / "bumped.seeds"
    table.write_text("(1,1) (2,1) 1 0 2\n(1,0) (2,1) 1 0 0\n")
    argv = ["--bundle", "p1-trivial", "--seeds", str(table)]
    assert cli.main(["reconstruct"] + argv) == 0
    capsys.readouterr()
    got = regularized_periods(capsys, argv, 12)
    assert got[:5] == [1, 0, 6, 0, 78]
    assert got != laurent_period(P1P1_MIRROR, 12)


def test_seeds_dump_drives_reconstruction(tmp_path):
    out = tmp_path / "sd"
    proc = run_cli("seeds", "--bundle", "flagship", "--out", str(out))
    assert proc.returncode == 0
    seed_file = out / "seeds.txt"
    assert seed_file.exists()
    redo = run_cli("reconstruct", "--bundle", "flagship",
                   "--seeds", str(seed_file), "--verify-fixture")
    assert redo.returncode == 0
    assert redo.stdout.count("matches") == 2


def test_seeds_without_builtin_source(tmp_path):
    cfg = tmp_path / "other.cfg"
    cfg.write_text("n = 2\nr = 3\nchern = 1 0 0\n")
    proc = run_cli("seeds", "--bundle", str(cfg))
    assert proc.returncode == 2
    assert "no builtin seed source" in proc.stderr


def bad_flagship_seeds(tmp_path):
    """The flagship seed dump with its first nonzero seed changed."""
    out = tmp_path / "sd"
    assert run_cli("seeds", "--bundle", "flagship",
                   "--out", str(out)).returncode == 0
    lines = (out / "seeds.txt").read_text().splitlines()
    # the first nonzero seed, (2,2) (8,4) 1 0 2, changed to 3
    assert lines[3] == "(2,2) (8,4) 1 0 2"
    lines[3] = "(2,2) (8,4) 1 0 3"
    bad = tmp_path / "bad.seeds"
    bad.write_text("\n".join(lines) + "\n")
    return bad


def test_periods_bad_seed_fails_unit_row_cross_check(tmp_path):
    bad = bad_flagship_seeds(tmp_path)
    proc = run_cli("periods", "--bundle", "flagship", "--terms", "8",
                   "--seeds", str(bad))
    assert proc.returncode == 1
    assert proc.stderr == "error: commutativity check fails at column 4\n"
    assert proc.stdout == ""


# The flagship dump with its last value changed to 7, as in CI: every
# subcommand refuses the pair before it solves or writes anything, with
# the same line.  jfun --order 1 and periods --terms 2 solve no block
# that shows the defect, so only the check on the matrices refuses them.
BAD_SEED_RUNS = {
    "reconstruct": ["reconstruct"],
    "seeds": ["seeds"],
    "jfun": ["jfun", "--order", "4"],
    "periods": ["periods", "--terms", "8"],
    "jfun-order-1": ["jfun", "--order", "1"],
    "periods-terms-2": ["periods", "--terms", "2"],
}


@pytest.mark.parametrize("argv", BAD_SEED_RUNS.values(), ids=BAD_SEED_RUNS)
def test_bad_seed_fails_flatness_in_every_subcommand(tmp_path, capsys, argv):
    assert cli.main(["seeds", "--out", str(tmp_path / "sd")]) == 0
    lines = (tmp_path / "sd" / "seeds.txt").read_text().splitlines()
    lines[-1] = lines[-1].rsplit(" ", 1)[0] + " 7"
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli.main(argv + ["--seeds", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: commutativity check fails at column 10\n"


def test_rescaled_seed_passes_ring_checks_not_fixture(tmp_path, capsys):
    # doubling the one base-ray seed of p1-trivial maps the ring to the
    # one of q1 -> 2*q1: the ring checks cannot see a uniform rescaling,
    # only the packaged fixture can
    assert cli.main(["seeds", "--bundle", "p1-trivial",
                     "--out", str(tmp_path / "sd")]) == 0
    text = (tmp_path / "sd" / "seeds.txt").read_text()
    assert "\n(1,1) (2,1) 1 0 1\n" in text
    rescaled = tmp_path / "rescaled.txt"
    rescaled.write_text(text.replace("\n(1,1) (2,1) 1 0 1\n",
                                     "\n(1,1) (2,1) 1 0 2\n"))
    argv = ["reconstruct", "--bundle", "p1-trivial", "--seeds", str(rescaled)]
    capsys.readouterr()
    assert cli.main(argv) == 0
    assert "0,2*q1,0,0" in capsys.readouterr().out.splitlines()
    assert cli.main(argv + ["--verify-fixture"]) == 1
    assert capsys.readouterr().out.splitlines()[0] == (
        "p matrix mismatch at entry (1,2): computed 2*q1, fixture q1")


@pytest.mark.parametrize("bundle,spot", [("flagship", "(1,4)"),
                                         ("p1-trivial", "(1,3)")])
def test_basis_rescaled_pair_reaches_symmetry_check(bundle, spot):
    # the pair rescaled by q -> (LAMBDA q1, MU q2) and a basis change
    # commutes, so the structure check decides on its symmetry half,
    # which no seed table reaches
    spec = make_bundle(*cli.BUILTIN_BUNDLES[bundle])
    mp, mxi = reconstruct(spec, seeds.builtin_source(spec))
    assert cli._structure_defect(mp, mxi) is None
    assert cli._structure_defect(rescaled(spec, mp), rescaled(spec, mxi)) \
        == "p matrix three-point symmetry check fails at entry " + spot


def test_reconstruct_bad_seed_writes_nothing(tmp_path):
    bad = bad_flagship_seeds(tmp_path)
    out = tmp_path / "mats"
    proc = run_cli("reconstruct", "--bundle", "flagship",
                   "--seeds", str(bad), "--out", str(out))
    assert proc.returncode == 1
    assert proc.stderr == "error: commutativity check fails at column 4\n"
    assert proc.stdout == ""
    assert not out.exists()


def test_seeds_bad_seed_writes_nothing(tmp_path):
    bad = bad_flagship_seeds(tmp_path)
    out = tmp_path / "dump"
    proc = run_cli("seeds", "--bundle", "flagship",
                   "--seeds", str(bad), "--out", str(out))
    assert proc.returncode == 1
    assert proc.stderr == "error: commutativity check fails at column 4\n"
    assert proc.stdout == ""
    assert not out.exists()


def test_jfun_negative_apery_is_config_error(tmp_path):
    out = tmp_path / "jf"
    proc = run_cli("jfun", "--order", "2", "--apery", "-1", "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr == "error: --apery must be >= 0\n"
    assert not out.exists()


def refuse_to_solve(*args, **kwargs):
    raise AssertionError("series solved before the options were checked")


# Options and operator files refused before any series is solved, with
# the message after "error: "; {file} is the operator file, written from
# the body unless that is None.
PERIODS = ["periods", "--terms", "64", "--regularized"]
JFUN = ["jfun", "--order", "16"]
EARLY_REFUSALS = [
    (PERIODS + ["--pf-search", "abc"], None,
     "--pf-search expects ORDER,DEGREE"),
    (PERIODS + ["--pf-search", "4"], None,
     "--pf-search expects ORDER,DEGREE"),
    (PERIODS + ["--pf-search=4,-2"], None,
     "operator degree bound must be >= 0, got -2"),
    (PERIODS + ["--pf-search", "4,12"], None,
     "sequence of length 64 cannot overdetermine 65 operator "
     "coefficients; need more than 65 terms"),
    (PERIODS + ["--pf-verify", "{file}"], "# annihilates everything\n0\n",
     "{file}: operator is zero"),
    (PERIODS + ["--pf-verify", "{file}"], "D^2\n- t*Q\n",
     "{file}: unknown atom 'Q' in term '-t*Q'"),
    (PERIODS + ["--pf-verify", "{file}"], None,
     "[Errno 2] No such file or directory: '{file}'"),
    (JFUN + ["--check-operators", "{file}"], "# none\n",
     "{file}: no operators"),
    (JFUN + ["--check-operators", "{file}"], "A = 0\nB = D1 - q1\n",
     "{file}: operator 'A' is zero"),
    (JFUN + ["--check-operators", "{file}"], "A = D1\nA = D2\n",
     "{file}:2: duplicate name 'A'"),
    # the packaged operators belong to the flagship and its cut p,xi^5
    (["jfun", "--bundle", "p1-trivial", "--order", "4",
      "--check-operators"], None,
     "the packaged operators hold for the flagship only; "
     "--check-operators needs a FILE for bundle 'p1-trivial'"),
    (PERIODS + ["--bundle", "p1-trivial", "--cut", "", "--pf-verify"], None,
     "the packaged operator holds for the flagship cut p,xi^5 only; "
     "--pf-verify needs a FILE for bundle 'p1-trivial', cut ''"),
    (PERIODS + ["--cut", "xi^5", "--pf-verify"], None,
     "the packaged operator holds for the flagship cut p,xi^5 only; "
     "--pf-verify needs a FILE for bundle 'flagship', cut 'xi^5'"),
    # no term, so no position for the operator to annihilate
    (PERIODS + ["--terms", "0", "--pf-verify"], None,
     "--pf-verify with --terms 0 has no position to certify"),
    (PERIODS + ["--terms", "0", "--pf-verify", "{file}"], "D - t\n",
     "--pf-verify with --terms 0 has no position to certify"),
    # the packaged operator's residual is zero at positions 0 and 1 for
    # every sequence, so two terms certify nothing
    (PERIODS + ["--terms", "1", "--pf-verify"], None,
     "--pf-verify with --terms 1 has no position to certify"),
    (PERIODS + ["--terms", "2", "--pf-verify"], None,
     "--pf-verify with --terms 2 has no position to certify"),
]


@pytest.mark.parametrize(
    "argv,body,error", EARLY_REFUSALS,
    ids=["search-abc", "search-one-bound", "search-negative",
         "search-underdetermined", "verify-zero", "verify-bad-atom",
         "verify-missing", "check-empty", "check-zero", "check-duplicate",
         "check-packaged-other-bundle", "verify-packaged-other-bundle",
         "verify-packaged-other-cut", "verify-no-terms-packaged",
         "verify-no-terms-file", "verify-one-term-packaged",
         "verify-two-terms-packaged"])
def test_refused_options_exit_before_solving(tmp_path, monkeypatch, capsys,
                                             argv, body, error):
    monkeypatch.setattr(qde, "identity_series", refuse_to_solve)
    monkeypatch.setattr(qde, "j_series", refuse_to_solve)
    path = tmp_path / "operators.txt"
    if body is not None:
        path.write_text(body)
    out = tmp_path / "out"
    status = cli.main([arg.format(file=path) for arg in argv]
                      + ["--out", str(out)])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert captured.err == "error: %s\n" % error.format(file=path)
    assert not out.exists()


# Counts refused before the pair is reconstructed, with the message
# after "error: ".
BAD_COUNTS = [
    (["jfun", "--order", "7", "--apery", "5"],
     "--apery 5 reads the coefficient (4,4); recompute with order >= 8"),
    (["jfun", "--order", "-1"], "--order must be >= 0"),
    (["jfun", "--order", "4", "--apery", "-1"], "--apery must be >= 0"),
    (["periods", "--terms", "-1"], "--terms must be >= 0"),
]


@pytest.mark.parametrize("argv,error", BAD_COUNTS,
                         ids=["apery-beyond-order", "order-negative",
                              "apery-negative", "terms-negative"])
def test_bad_counts_exit_before_reconstructing(tmp_path, monkeypatch, capsys,
                                               argv, error):
    monkeypatch.setattr(qde, "identity_series", refuse_to_solve)
    monkeypatch.setattr(qde, "j_series", refuse_to_solve)
    monkeypatch.setattr(cli, "reconstruct", refuse_to_solve)
    out = tmp_path / "out"
    status = cli.main(argv + ["--out", str(out)])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert captured.err == "error: %s\n" % error
    assert not out.exists()


# Integer options outside the literal grammar of the input files, refused
# before the pair is reconstructed; the last stderr line names the option.
BAD_LITERALS = [
    (["jfun", "--order", "1_0", "--apery", "\u0663"],
     "qfano jfun: error: argument --order: bad integer '1_0'"),
    (["jfun", "--order", "10", "--apery", "\u0663"],
     "qfano jfun: error: argument --apery: bad integer '\u0663'"),
    (["periods", "--terms", "+8"],
     "qfano periods: error: argument --terms: bad integer '+8'"),
    (["periods", "--terms", "64", "--pf-search", "\u0664,1_2"],
     "error: --pf-search expects ORDER,DEGREE"),
    (["periods", "--terms", "64", "--pf-search", "4,+9"],
     "error: --pf-search expects ORDER,DEGREE"),
]


@pytest.mark.parametrize("argv,error", BAD_LITERALS,
                         ids=["order", "apery", "terms", "search-digits",
                              "search-plus"])
def test_integer_option_literal_outside_grammar(tmp_path, monkeypatch, capsys,
                                                argv, error):
    monkeypatch.setattr(qde, "identity_series", refuse_to_solve)
    monkeypatch.setattr(qde, "j_series", refuse_to_solve)
    monkeypatch.setattr(cli, "reconstruct", refuse_to_solve)
    out = tmp_path / "out"
    try:
        status = cli.main(argv + ["--out", str(out)])
    except SystemExit as exc:  # argparse refuses the option itself
        status = exc.code
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == error
    assert not out.exists()


def test_integer_options_ignore_surrounding_space(tmp_path):
    proc = run_cli("periods", "--terms", " 8 ", "--regularized",
                   "--pf-search", "1, 1")
    assert proc.returncode == 1
    assert proc.stdout.endswith("no annihilator within order 1, degree 1\n")


# Cuts graded by -K_Y = (2,1), (1,2) and (2,6) at 64 terms: the indices
# their grades need, and the sha256 of periods.txt as written by the
# solve over every index with i + j <= 63.
GRADED_CUTS = [
    ("xi^5", 1056, "75f0435872ee3dd78574916322369734"
                   "ad5083a4568da951c1262ba33c2c5f16"),
    ("p,xi^4", 1056, "166d054233b9fe4ffcbdbc7f2ad70802"
                     "373c8fc7ecd2301cbd74c9d7dd181c75"),
    ("", 187, "1e88c32da8dcd5707cb476ebd48ab4d8"
              "192653bc533b39e4524b6c608a7a0589"),
]


@pytest.mark.parametrize("cut,indices,digest", GRADED_CUTS,
                         ids=["xi^5", "p,xi^4", "empty"])
def test_periods_solve_only_the_grades_of_the_cut(tmp_path, monkeypatch,
                                                  capsys, cut, indices,
                                                  digest):
    tables = []
    solve = qde.identity_series

    def spy(*args):
        tables.append(solve(*args))
        return tables[-1]

    monkeypatch.setattr(qde, "identity_series", spy)
    status = cli.main(PERIODS + ["--cut", cut, "--terms", "64",
                       "--regularized", "--out", str(tmp_path)])
    assert status == 0
    assert [len(table) for table in tables] == [indices]
    assert hashlib.sha256((tmp_path / "periods.txt").read_bytes()
                          ).hexdigest() == digest


# The three README commands, each with the --out directory it writes.
README_RUNS = [
    (["reconstruct", "--verify-fixture"], None),
    (["jfun", "--order", "16", "--apery", "8", "--check-operators"], "jfun"),
    (["periods", "--terms", "64", "--regularized", "--pf-verify",
      "--pf-search", "4,9"], "periods"),
]


def readme_round(root, capsys):
    """{name: bytes} of every file and stdout of one pass over the README
    commands, writing into root."""
    out = {}
    for argv, sub in README_RUNS:
        if sub:
            argv = argv + ["--out", str(root / sub)]
        assert cli.main(argv) == 0
        stdout = capsys.readouterr().out.replace(str(root), "ROOT")
        out["%s.stdout" % argv[0]] = stdout.encode()
    for path in sorted(root.rglob("*.*")):
        out[str(path.relative_to(root))] = path.read_bytes()
    return out


def test_main_builds_no_parser(monkeypatch):
    # the parser is built once, at import; commands bound there by
    # set_defaults still find a patched cli.reconstruct, which they look
    # up when they run
    built = []
    init = argparse.ArgumentParser.__init__

    def parser_spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    reconstructed = []

    def reconstruct_spy(*args):
        reconstructed.append(args[0])
        return reconstruct(*args)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", parser_spy)
    monkeypatch.setattr(cli, "reconstruct", reconstruct_spy)
    runs = [["reconstruct", "--bundle", "p1-trivial", "--verify-fixture"],
            ["seeds", "--bundle", "p1-trivial"],
            ["jfun", "--bundle", "p1-trivial", "--order", "2"],
            ["periods", "--bundle", "p1-trivial", "--cut", "", "--terms", "4"]]
    for argv in runs * 3:
        assert cli.main(argv) == 0
    for argv, code in ((["jfun", "--order", "1_0"], 2), (["--help"], 0)):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == code
    assert built == []
    assert len(reconstructed) == len(runs) * 3


def test_repeated_main_calls_write_the_same_bytes(tmp_path, capsys):
    # one process: the README commands, a refusal and a help page from
    # argparse, then the README commands again
    first = readme_round(tmp_path / "one", capsys)
    with pytest.raises(SystemExit) as exc:
        cli.main(["jfun", "--order", "1_0"])
    assert exc.value.code == 2
    assert "argument --order: bad integer '1_0'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli.main(["jfun", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: qfano jfun")
    assert readme_round(tmp_path / "two", capsys) == first
    assert sorted(first) == [
        "jfun.stdout", "jfun/apery.csv", "jfun/coefficients.csv",
        "jfun/operator_report.txt", "periods.stdout", "periods/periods.txt",
        "periods/pf_report.txt", "reconstruct.stdout"]


def halved_flagship_seeds(tmp_path):
    """The flagship seed dump with every value halved.  Every row is a
    base-ray invariant, so this is the ring under q1 -> q1/2, and the
    ring checks pass."""
    assert cli.main(["seeds", "--out", str(tmp_path / "sd")]) == 0
    lines = []
    for line in (tmp_path / "sd" / "seeds.txt").read_text().splitlines():
        if not line.startswith("#"):
            head, value = line.rsplit(" ", 1)
            line = "%s %s" % (head, Fraction(value) / 2)
        lines.append(line)
    halved = tmp_path / "halved.txt"
    halved.write_text("\n".join(lines) + "\n")
    return halved


def csv_table(path):
    """{(i, j): c} of a coefficients.csv file."""
    rows = path.read_text().splitlines()
    assert rows[0] == "i,j,c"
    return {(int(i), int(j)): Fraction(c)
            for i, j, c in (row.split(",") for row in rows[1:])}


def test_halved_seeds_reach_the_rational_row_walk(tmp_path, monkeypatch):
    # the builtin seeds give integral matrices, whose walk never rescales
    # a slot; the halved table gives classical denominators, and both
    # subcommands take the Bareiss rescale of qde's row walk
    halved = halved_flagship_seeds(tmp_path)
    scales = []
    factor = qde._bareiss_factor

    def factor_spy(scale, ray, levels):
        scales.append(scale)
        return factor(scale, ray, levels)

    monkeypatch.setattr(qde, "_bareiss_factor", factor_spy)
    jfun = ["jfun", "--order", "12", "--out"]
    assert cli.main(jfun + [str(tmp_path / "builtin")]) == 0
    assert scales == []
    assert cli.main(jfun + [str(tmp_path / "halved"),
                            "--seeds", str(halved)]) == 0
    assert scales
    # c_{a,b} multiplies q1^a q2^b, so it scales by 2^-a
    builtin = csv_table(tmp_path / "builtin" / "coefficients.csv")
    got = csv_table(tmp_path / "halved" / "coefficients.csv")
    assert sorted(got) == sorted(builtin)
    assert any(c.denominator > 1 for c in got.values())
    assert all(got[a, b] == c / 2 ** a for (a, b), c in builtin.items())
    # the periods: the Fraction chain of the oracles on the builtin
    # identity table scaled the same way
    scales.clear()
    assert cli.main(["periods", "--terms", "24", "--regularized", "--seeds",
                     str(halved), "--out", str(tmp_path / "periods")]) == 0
    assert scales
    spec = make_bundle(*cli.BUILTIN_BUNDLES["flagship"])
    bundles = lefschetz.parse_cut(cli.FLAGSHIP_CUT)
    mp, mxi = reconstruct(spec, seeds.builtin_source(spec))
    atable = qde.identity_series(mp, mxi, spec, 23,
                                 lefschetz.cut_weights(spec, bundles))
    ctable = {(a, b): c / 2 ** a
              for (a, b), c in coefficient_table(atable, spec).items()}
    series = hypergeometric_modify(ctable, spec, bundles, 23)
    want = regularize(period_sequence(series, mirror_map_correction(series),
                                      24))
    text = (tmp_path / "periods" / "periods.txt").read_text()
    assert [Fraction(x) for x in text.splitlines()] == want


# sha256 of every file these invocations write, the first three captured
# from the solver that kept one Fraction per frame entry (the operator
# search from the elimination over Fraction), the last three, at the
# orders the README runs, from the solver that reduced every frame block
# by one gcd; the exact kernels may change, these bytes may not.
GOLDEN = [
    (("jfun", "--bundle", "flagship", "--order", "4", "--apery", "3",
      "--check-operators"),
     {"apery.csv": "0cd52afd079cc1db136d41a8b748d57a"
                   "bf7f489b68a9347567783b1c3a27e13d",
      "coefficients.csv": "99697aea555e753917405cee21d6ab35"
                          "ddf6d0110ed1af3d8779572d2506a9e7",
      "operator_report.txt": "9be0202f156f28efbb43bef1e9bf289b"
                             "80b53b1caea5c6cc95d9912182a5d816"}),
    (("periods", "--bundle", "flagship", "--terms", "24", "--regularized",
      "--pf-verify"),
     {"periods.txt": "a93157b3624af58c11a619e67349ce6c"
                     "c2dcd5ab65e41bdebe5b88d5e93255f7",
      "pf_report.txt": "3353106b37dfa3947950e8c9568cdc61"
                       "dff1afc4b9c0de653b6c5a226b50f164"}),
    (("periods", "--bundle", "flagship", "--terms", "64", "--regularized",
      "--pf-verify", "--pf-search", "4,9"),
     {"periods.txt": "4bad75e1e2835c29e831fedb91a90da1"
                     "baab41d477e2e4768231c94dcb56f7f9",
      "pf_report.txt": "220a118ad96ea2ffc5a7cee56b0080ce"
                       "5cdc4e8854c266d0a1dd1fc32617d13f"}),
    (("jfun", "--order", "16", "--apery", "8", "--check-operators"),
     {"apery.csv": "199066fae1cb661bd96f7be9b6889997"
                   "44f64e3dc84d050e86efe05977210474",
      "coefficients.csv": "564b2265bcf6c0722f9fcb2e3f951e0d"
                          "e1564229da2006985709666d5b60d0b9",
      "operator_report.txt": "c3aaf2c1e2622cd46aa2f5b9ca6eee75"
                             "1887843a3347170561759699e2f19f5f"}),
    (("periods", "--terms", "128", "--regularized", "--pf-verify"),
     {"periods.txt": "611bd4823eaaf1f4db492fe0df63a5de"
                     "ac717391f67eab576b7b0fbbfce7df4f",
      "pf_report.txt": "4337a74ee36eea7baf6fa47241099c6c"
                       "32c6e7bb3762fe0ee5fd3b23c1bef416"}),
    (("periods", "--cut", "xi^5", "--terms", "64", "--regularized"),
     {"periods.txt": "75f0435872ee3dd78574916322369734"
                     "ad5083a4568da951c1262ba33c2c5f16"}),
]


@pytest.mark.parametrize("argv,digests", GOLDEN,
                         ids=["jfun", "periods", "pf-search", "jfun-16",
                              "periods-128", "periods-xi5-64"])
def test_output_files_match_golden_bytes(tmp_path, argv, digests):
    proc = run_cli(*argv, "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in tmp_path.iterdir()} == digests
