"""Command line for the reconstruction, J-series, and period pipelines.

Exit codes: 0 success, 1 verification mismatch, 2 configuration or
input error.  All output is deterministic: identical invocations give
byte-identical files and stdout.
"""

import argparse
import os
import sys
from fractions import Fraction
from math import factorial

from qfano import lefschetz, qde
from qfano import seeds as seedlib
from qfano.fixtures_io import fixture_lines, load_named_expressions, read_lines
from qfano.opparse import parse_number
from qfano.reconstruct import (QuantumMatrix, check_three_point_symmetry,
                               flatness_defect, reconstruct)
from qfano.ring import bundle_key, load_bundle_config, make_bundle
from qfano.schubert import FLAGSHIP, is_flagship

BUILTIN_BUNDLES = {
    "flagship": FLAGSHIP,
    "p1-trivial": (1, 2, ()),
}

# The cut whose operator pf_operator.txt packages, on the flagship.
FLAGSHIP_CUT = "p,xi^5"

# The largest `jfun --order` and `periods --terms`: the solve tabulates
# falling powers over every index up to the order before the first row,
# so an absurd value would exhaust memory, not fail; 4096 is 8 times the
# 512 terms of the largest documented run, which takes about a second.
MAX_COUNT = 4096

# Packaged reference matrices by bundle spec (n, r, padded Chern tuple).
FIXTURE_MATRICES = {
    bundle_key(*BUILTIN_BUNDLES["flagship"]): ("flagship_mp.triplets",
                                               "flagship_mxi.triplets"),
    bundle_key(*BUILTIN_BUNDLES["p1-trivial"]): ("p1p1_mp.triplets",
                                                 "p1p1_mxi.triplets"),
}


class CliError(Exception):
    """Configuration or input problem; main maps it to exit code 2."""


def _integer(text):
    """argparse type of the integer options: the literal grammar of the
    input files, so argparse names the option and exits 2 on `1_0`."""
    try:
        return parse_number(text.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _bundle(args):
    name = args.bundle
    if name in BUILTIN_BUNDLES:
        return make_bundle(*BUILTIN_BUNDLES[name])
    if os.path.exists(name):
        return load_bundle_config(name)
    raise CliError(
        "unknown bundle %r; expected 'flagship', 'p1-trivial', or a "
        "config file path" % name)


def _seed_source(args, spec):
    if args.seeds:
        return seedlib.load_seeds(args.seeds, spec)
    return seedlib.builtin_source(spec)


def _matrices(args, spec):
    return reconstruct(spec, _seed_source(args, spec))


def _structure_defect(mp, mxi):
    """The first failed ring check on a reconstructed pair, or None.

    set_column already enforces grading and purity; a wrong seed shows
    up as a non-flat pair or a non-symmetric three-point pairing.
    """
    bad = flatness_defect(mp, mxi)
    if bad is not None:
        return bad
    for mat in (mp, mxi):
        spot = check_three_point_symmetry(mat)
        if spot is not None:
            return ("%s matrix three-point symmetry check fails at entry "
                    "(%d,%d)" % (mat.label, spot[0] + 1, spot[1] + 1))
    return None


_CHUNK = 10 ** 1000


def _decimal(x):
    """str(x) for an int or a Fraction of any length.  str refuses an int
    of more digits than sys.get_int_max_str_digits() (4300 by default),
    and raising that limit would reach everything else in the process, so
    the digits are written in chunks of 1000."""
    if x.denominator != 1:
        return "%s/%s" % (_decimal(x.numerator), _decimal(x.denominator))
    n = abs(x.numerator)
    chunks = []
    while n >= _CHUNK:
        n, low = divmod(n, _CHUNK)
        chunks.append("%01000d" % low)
    return "-" * (x < 0) + str(n) + "".join(reversed(chunks))


def _operator_file(arg, fixture):
    """(lines, where) of an operator option: the packaged fixture when
    FILE is omitted, else the named file; parse errors cite `where`."""
    if arg == "":
        return fixture_lines(fixture), fixture
    return read_lines(arg), arg


def _emit(args, outputs):
    """Write (name, body) pairs into --out, or print them to stdout."""
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for name, body in outputs:
            path = os.path.join(args.out, name)
            with open(path, "w") as fh:
                fh.write(body)
            print("wrote %s" % path)
    else:
        for idx, (name, body) in enumerate(outputs):
            if idx:
                print()
            print("# ==> %s <==" % name)
            sys.stdout.write(body)
    return 0


def cmd_reconstruct(args):
    spec = _bundle(args)
    mp, mxi = _matrices(args, spec)
    if args.verify_fixture:
        names = FIXTURE_MATRICES.get((spec.n, spec.r, spec.chern))
        if names is None:
            raise CliError(
                "no packaged fixture matrices for bundle %r" % args.bundle)
        status = 0
        for mat, fixture_name in ((mp, names[0]), (mxi, names[1])):
            ref = QuantumMatrix.from_triplet_lines(
                spec, mat.label, fixture_lines(fixture_name))
            spot = mat.first_mismatch(ref)
            if spot is None:
                print("%s matrix matches %s (%d columns)"
                      % (mat.label, fixture_name, spec.size))
            else:
                i, j = spot
                print("%s matrix mismatch at entry (%d,%d): computed %s, "
                      "fixture %s" % (mat.label, i + 1, j + 1,
                                      mat.entry_string(i, j),
                                      ref.entry_string(i, j)))
                status = 1
        return status
    bad = _structure_defect(mp, mxi)
    if bad is not None:
        print("error: %s" % bad, file=sys.stderr)
        return 1
    outputs = []
    for mat, stem in ((mp, "mp"), (mxi, "mxi")):
        outputs.append((stem + ".triplets",
                        "\n".join(mat.triplet_lines()) + "\n"))
        outputs.append((stem + "_dense.csv",
                        "\n".join(mat.dense_lines()) + "\n"))
    return _emit(args, outputs)


def cmd_jfun(args):
    if args.order < 0:
        raise CliError("--order must be >= 0")
    if args.order > MAX_COUNT:
        raise CliError("--order must be <= %d" % MAX_COUNT)
    if args.apery is not None and args.apery < 0:
        raise CliError("--apery must be >= 0")
    corner = (args.apery or 1) - 1
    if args.order < 2 * corner:
        raise CliError("--apery %d reads the coefficient (%d,%d); recompute "
                       "with order >= %d"
                       % (args.apery, corner, corner, 2 * corner))
    spec = _bundle(args)
    if args.check_operators is not None:
        if args.check_operators == "" and not is_flagship(spec):
            raise CliError(
                "the packaged operators hold for the flagship only; "
                "--check-operators needs a FILE for bundle %r"
                % args.bundle)
        lines, where = _operator_file(args.check_operators,
                                      "qde_operators.txt")
        parsed = load_named_expressions(lines, where, qde.parse_operator)
        if not parsed:
            raise CliError("%s: no operators" % where)
        zero = next((name for name in parsed if not parsed[name]), None)
        if zero is not None:
            raise CliError("%s: operator %r is zero" % (where, zero))
    mp, mxi = _matrices(args, spec)
    js = qde.j_series(mp, mxi, spec, args.order)
    ctable = qde.identity_coefficients(js)
    lines = ["i,j,c"]
    lines += ["%d,%d,%s" % (a, b, val)
              for (a, b), val in sorted(ctable.items())]
    outputs = [("coefficients.csv", "\n".join(lines) + "\n")]
    if args.apery:
        table = qde.apery_table(js, args.apery)
        outputs.append(("apery.csv",
                        "\n".join(",".join(str(x) for x in row)
                                  for row in table) + "\n"))
    status = 0
    if args.check_operators is not None:
        report = []
        failures = qde.check_operator([parsed[n] for n in sorted(parsed)],
                                      mp, mxi, args.order)
        for name, failure in zip(sorted(parsed), failures):
            if failure is None:
                report.append("%s: residual zero at all %d indices"
                              % (name, len(js.blocks)))
            else:
                report.append("%s: %s" % (name, failure))
                status = 1
        outputs.append(("operator_report.txt", "\n".join(report) + "\n"))
    _emit(args, outputs)
    return status


def cmd_periods(args):
    if args.terms < 0:
        raise CliError("--terms must be >= 0")
    if args.terms > MAX_COUNT:
        raise CliError("--terms must be <= %d" % MAX_COUNT)
    spec = _bundle(args)
    bundles = lefschetz.parse_cut(args.cut)
    weights = lefschetz.cut_weights(spec, bundles)
    if args.pf_verify is not None:
        if args.pf_verify == "" and not (
                is_flagship(spec)
                and sorted(bundles) == sorted(
                    lefschetz.parse_cut(FLAGSHIP_CUT))):
            raise CliError(
                "the packaged operator holds for the flagship cut %s only; "
                "--pf-verify needs a FILE for bundle %r, cut %r"
                % (FLAGSHIP_CUT, args.bundle, args.cut))
        lines, where = _operator_file(args.pf_verify, "pf_operator.txt")
        op = lefschetz.operator_from_lines(lines, where)
        if not op:
            raise CliError("%s: operator is zero" % where)
        if args.terms <= lefschetz.pf_first_position(op):
            raise CliError("--pf-verify with --terms %d has no position to "
                           "certify" % args.terms)
    if args.pf_search:
        try:
            search_order, search_degree = (
                parse_number(tok.strip())
                for tok in args.pf_search.split(","))
        except ValueError:
            raise CliError("--pf-search expects ORDER,DEGREE")
        lefschetz.check_search_box(args.terms, search_order, search_degree)
    order = max(args.terms - 1, 0)
    mp, mxi = _matrices(args, spec)
    atable = qde.identity_series(mp, mxi, spec, order, weights)
    seq = lefschetz.regularized_periods(atable, spec, bundles, args.terms)
    if not args.regularized:
        seq = [Fraction(val, factorial(m)) for m, val in enumerate(seq)]
    status = 0
    report = []
    if args.pf_verify is not None:
        residual = lefschetz.pf_apply(op, seq)
        bad = next((pos for pos, val in enumerate(residual) if val), None)
        if bad is None:
            report.append("operator annihilates all %d certified positions"
                          % len(seq))
        else:
            report.append("operator residual %s at position %d"
                          % (_decimal(residual[bad]), bad))
            status = 1
    if args.pf_search:
        found = lefschetz.find_annihilator(seq, search_order, search_degree)
        if found is None:
            report.append("no annihilator within order %d, degree %d"
                          % (search_order, search_degree))
            status = 1
        else:
            report.append(lefschetz.format_pf_operator(found))
    body = "".join(str(val) + "\n" for val in seq)
    outputs = [("periods.txt", body)]
    if report:
        outputs.append(("pf_report.txt", "\n".join(report) + "\n"))
    _emit(args, outputs)
    return status


def cmd_seeds(args):
    spec = _bundle(args)
    source = _seed_source(args, spec)
    bad = _structure_defect(*reconstruct(spec, source))
    if bad is not None:
        print("error: %s" % bad, file=sys.stderr)
        return 1
    lines = seedlib.dump_seed_lines(spec, source)
    return _emit(args, [("seeds.txt",
                         "".join(line + "\n" for line in lines))])


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qfano",
        description="Exact quantum cohomology pipelines for projectivized "
                    "bundles over projective space.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--bundle", default="flagship",
                       help="builtin name (flagship, p1-trivial) or a "
                            "key=value config file (default: flagship)")
        p.add_argument("--seeds", metavar="FILE",
                       help="seed invariant file; defaults to the builtin "
                            "geometric source for the bundle")
        p.add_argument("--out", metavar="DIR",
                       help="directory for output files; stdout when omitted")

    p = sub.add_parser("reconstruct",
                       help="reconstruct both quantum product matrices")
    common(p)
    p.add_argument("--verify-fixture", action="store_true",
                   help="compare against the packaged matrices instead of "
                        "writing them")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("jfun",
                       help="solve the differential system and export the "
                            "coefficient table")
    common(p)
    p.add_argument("--order", type=_integer, default=16,
                   help="total Novikov order of the series (default 16)")
    p.add_argument("--apery", type=_integer, metavar="SIZE",
                   help="also export the SIZE x SIZE normalized integer "
                        "table")
    p.add_argument("--check-operators", nargs="?", const="", metavar="FILE",
                   help="verify annihilating operators from a name = "
                        "expression file (the packaged flagship set when "
                        "FILE is omitted)")
    p.set_defaults(func=cmd_jfun)

    p = sub.add_parser("periods",
                       help="period sequence of a nef complete-intersection "
                            "cut")
    common(p)
    p.add_argument("--cut", default=FLAGSHIP_CUT,
                   help='line bundles of the cut (default "%s")'
                        % FLAGSHIP_CUT)
    p.add_argument("--terms", type=_integer, default=10,
                   help="number of sequence terms (default 10)")
    p.add_argument("--regularized", action="store_true",
                   help="multiply term m by m!")
    p.add_argument("--pf-verify", nargs="?", const="", metavar="FILE",
                   help="apply an operator file to the sequence (the "
                        "packaged operator of the flagship cut %s when "
                        "FILE is omitted)" % FLAGSHIP_CUT)
    p.add_argument("--pf-search", metavar="ORDER,DEGREE",
                   help="search for an annihilating operator within the "
                        "bounds")
    p.set_defaults(func=cmd_periods)

    p = sub.add_parser("seeds",
                       help="dump the seed invariants the reconstruction "
                            "demands, in the loadable format")
    common(p)
    p.set_defaults(func=cmd_seeds)
    return parser


# Built once at import: parse_args leaves a parser as it found it, so
# every main call, in this process or another, reads the same grammar.
PARSER = build_parser()


def main(argv=None):
    """Run one command; the one place exceptions become exit codes.
    Repeated calls in one process share PARSER and build no parser."""
    args = PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (qde.FlatnessError, qde.NonIntegralError) as exc:
        # both subclass ValueError, so this clause must come first
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (CliError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
