"""The benchmark's workloads: CLI invocations per job and their oracles.

A job is one or more `qfano.cli.main` invocations, each writing into its
own output directory.  The oracles here read the packaged fixture files
directly and recompute closed forms with the standard library, so they
share no code with the package under test.  Each oracle returns a list of
problems; an empty list means the invocation passed.
"""

import hashlib
import os
import random
from collections import namedtuple
from fractions import Fraction
from math import factorial

FIXTURES = os.path.join("src", "qfano", "fixtures")

JFUN_ORDER = 6
JFUN_APERY = 4
PERIOD_TERMS = 64
FAMILY_ORDER = 8
FAMILY_APERY = 5
# Product bundles P^n x P^(r-1) as (n, r).
FAMILY = [(n, r) for n in range(1, 5) for r in range(2, 6)]


def data_lines(path):
    """Lines of a text file with # comments and blank lines removed."""
    with open(path) as fh:
        lines = [raw.split("#", 1)[0].strip() for raw in fh]
    return [line for line in lines if line]


def file_digests(outdir):
    """{file name: sha256 hex} of every file an invocation wrote."""
    out = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def output_bytes(outdir):
    return sum(os.path.getsize(os.path.join(outdir, name))
               for name in os.listdir(outdir))


def read_text(outdir, name):
    path = os.path.join(outdir, name)
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return fh.read()


def parse_pf(text):
    """{(t-power, D-power): coefficient} of an operator in c*t^m*D^e terms."""
    body = "".join(text.split())
    terms = {}
    start = 0
    for pos in range(1, len(body) + 1):
        if pos < len(body) and (body[pos] not in "+-"
                                 or body[pos - 1] in "*^"):
            continue
        chunk = body[start:pos]
        start = pos
        sign = -1 if chunk.startswith("-") else 1
        coeff, m, e = Fraction(sign), 0, 0
        for factor in chunk.lstrip("+-").split("*"):
            atom, _, power = factor.partition("^")
            if atom == "t":
                m += int(power or 1)
            elif atom == "D":
                e += int(power or 1)
            else:
                coeff *= Fraction(factor)
        terms[(m, e)] = terms.get((m, e), 0) + coeff
    return {key: val for key, val in terms.items() if val}


def _csv_rows(text):
    return [line.split(",") for line in text.splitlines()]


def check_jfun_flagship(outdir):
    problems = []
    apery = read_text(outdir, "apery.csv")
    with open(os.path.join(FIXTURES, "apery_table_8x8.csv")) as fh:
        packaged = _csv_rows(fh.read())
    want = [row[:JFUN_APERY] for row in packaged[:JFUN_APERY]]
    if apery is None or _csv_rows(apery) != want:
        problems.append("apery.csv differs from the packaged 8x8 table's "
                        "top-left %dx%d block" % (JFUN_APERY, JFUN_APERY))
    names = sorted(line.partition("=")[0].strip() for line in
                   data_lines(os.path.join(FIXTURES, "qde_operators.txt")))
    indices = (JFUN_ORDER + 1) * (JFUN_ORDER + 2) // 2
    want_report = ["%s: residual zero at all %d indices" % (name, indices)
                   for name in names]
    report = read_text(outdir, "operator_report.txt")
    if report is None or report.splitlines() != want_report:
        problems.append("operator_report.txt does not report residual zero "
                        "for all %d packaged operators" % len(names))
    return problems


def check_periods_flagship(outdir):
    problems = []
    periods = read_text(outdir, "periods.txt")
    lines = periods.splitlines() if periods is not None else []
    packaged = [Fraction(x) for x in data_lines(
        os.path.join(FIXTURES, "regularized_periods10.txt"))]
    if len(lines) != PERIOD_TERMS or \
            [Fraction(x) for x in lines[:len(packaged)]] != packaged:
        problems.append("periods.txt lacks %d terms starting with the "
                        "packaged regularized periods" % PERIOD_TERMS)
    report = read_text(outdir, "pf_report.txt")
    report = report.splitlines() if report is not None else []
    want = "operator annihilates all %d certified positions" % PERIOD_TERMS
    if not report or report[0] != want:
        problems.append("pf_report.txt does not state: %s" % want)
    packaged = parse_pf(" ".join(data_lines(
        os.path.join(FIXTURES, "pf_operator.txt"))))
    found = parse_pf(report[1]) if len(report) == 2 else {}
    # The search returns the normalized generator; the packaged file
    # carries the opposite sign, so compare up to one rational factor.
    ratios = {found[key] / val for key, val in packaged.items()
              if key in found}
    if set(found) != set(packaged) or len(ratios) != 1:
        problems.append("recovered operator is not a multiple of "
                        "pf_operator.txt")
    return problems


def check_family(outdir, n, r):
    problems = []
    text = read_text(outdir, "coefficients.csv")
    rows = _csv_rows(text)[1:] if text is not None else []
    want = {(a, b): Fraction(1, factorial(a) ** (n + 1) * factorial(b) ** r)
            for a in range(FAMILY_ORDER + 1)
            for b in range(FAMILY_ORDER + 1 - a)}
    got = {(int(a), int(b)): Fraction(c) for a, b, c in rows}
    if got != want:
        bad = sorted(k for k in set(want) | set(got)
                     if got.get(k) != want.get(k))
        problems.append("coefficients.csv differs from 1/((a!)^%d (b!)^%d) "
                        "first at %s" % (n + 1, r, bad[0] if bad else "?"))
    apery = read_text(outdir, "apery.csv")
    ones = [["1"] * FAMILY_APERY] * FAMILY_APERY
    if apery is None or _csv_rows(apery) != ones:
        problems.append("apery.csv is not the all-ones %dx%d table"
                        % (FAMILY_APERY, FAMILY_APERY))
    return problems


# One `qfano.cli.main` call: a key naming it in the job, its argv without
# --out, and the oracle for its output directory.
Invocation = namedtuple("Invocation", "key argv oracle")


def flagship_jfun(workdir):
    return [Invocation("flagship", [
        "jfun", "--bundle", "flagship", "--order", str(JFUN_ORDER),
        "--apery", str(JFUN_APERY), "--check-operators"],
        check_jfun_flagship)]


def flagship_periods(workdir):
    return [Invocation("flagship", [
        "periods", "--bundle", "flagship", "--terms", str(PERIOD_TERMS),
        "--regularized", "--pf-verify", "--pf-search", "4,9"],
        check_periods_flagship)]


def product_family(workdir):
    out = []
    for n, r in FAMILY:
        key = "n%d-r%d" % (n, r)
        config = os.path.join(workdir, "%s.cfg" % key)
        with open(config, "w") as fh:
            fh.write("# P^%d x P^%d\nn = %d\nr = %d\n" % (n, r - 1, n, r))
        out.append(Invocation(key, [
            "jfun", "--bundle", config, "--order", str(FAMILY_ORDER),
            "--apery", str(FAMILY_APERY)],
            lambda outdir, n=n, r=r: check_family(outdir, n, r)))
    return out


# Workload name -> function returning the invocations of one job.  Why each
# workload exists is in README.md and BENCHMARK.json.
WORKLOADS = {
    "jfun-flagship": flagship_jfun,
    "periods-flagship": flagship_periods,
    "families-product": product_family,
}


def job_orders(invocations, seed):
    """Endless stream of job orders, shuffled by the workload seed."""
    rng = random.Random(seed)
    while True:
        order = list(invocations)
        rng.shuffle(order)
        yield order
