"""Quantum differential system built on the reconstructed product matrices.

With the divisor prefactor stripped, the flat frame of the system is a
family of square rational matrices F_{a,b}, one per Novikov index, with
F_{0,0} = I.  Differentiating along the base ray gives one Sylvester-type
equation per index,

    a*F_{a,b} + P*F_{a,b} - F_{a,b}*P = sum F_{a-c,b-d} * (q1^c q2^d part of M_p)

with P the classical part of M_p and the sum over (c,d) != (0,0); the
fibre ray gives the analogous equation with b, the classical xi matrix,
and the parts of M_xi.  Both classical matrices raise cohomological
degree by exactly one and the basis ascends in degree, so each is
strictly lower triangular: the commutator with P moves a frame entry
from level deg(row) - deg(col) to the next level up, each equation is
solved in one pass from the lowest level upward, and any block of
leading frame rows closes under it.  The package solves the unit row
alone, the leading row of each frame: jfun prints only its identity
entries and checks operators on the matrices (below), so no caller
reads another row.  Each index is solved along one ray, the fibre ray
where b >= 1 and the base ray on b = 0 (on the flagship M_xi's q-parts
are the sparser), one row at a time (the row lemma below);
j_series keeps every block of the unit row, and identity_series reads
entry 0 of each row, to high order, and keeps none.  Only the tests'
reference solver (tests/oracles.py) builds the full n x n frames.

One ray suffices for a flat pair, which the solve checks first on the
matrices (reconstruct.flatness_defect): [M_1, M_2] = 0 and q1 d/dq1 M_2
= q2 d/dq2 M_1, for M_1 = M_p and M_2 = M_xi.  Let E_k = D_k F be the
residual of ray k, D_k X = q_k d/dq_k X + C_k X - X M_k with C_k the
classical part of M_k.  Then

    D_1 E_2 - D_2 E_1 = F ([M_2, M_1] + q2 d/dq2 M_1 - q1 d/dq1 M_2)
                        + [C_1, C_2] F = 0.

By construction E_2 = 0 where b >= 1 and E_1 = 0 on b = 0.  The
derivative half at b = 0 reads a*M_2[(a, 0)] = 0, so M_2 has no pure-q1
part, by flatness alone.  So on b = 0 D_2 E_1 = [C_2, E_1] = 0, hence
D_1 E_2 = 0 there: a*E_2 + [C_1, E_2] = (E_2 at lower a, b = 0) *
parts, C_1 is nilpotent, so a + [C_1, .] is invertible for a >= 1, and
E_2 = 0 on b = 0 by induction on a (at the origin F = I and E_2 = 0).
So E_2 vanishes everywhere, and D_2 E_1 = D_1 E_2 = 0 gives b*E_1 +
[C_2, E_1] = (E_1 at lower b) * parts, so E_1 = 0 by induction on b.
C_k is strictly lower triangular, so this holds on any block of leading
rows.

The row lemma: every q-part (c, d) of M_xi has d >= 1, as shown above,
so the fibre-ray equation of a block (a, b), b >= 1, reads only blocks
(a - c, b - d) of the rows below b, and all blocks of row b share the
scale b and the walk.  So each fibre row b = 1, 2, ... is solved in
one walk over lists indexed by a: entry p of the row is the list of
entry p of its blocks, cut after the row's last nonzero block, so the
flagship's zero blocks a > 2b are never walked.  On the base row b = 0,
solved first, only the pure-q1 parts (c, 0), c >= 1, of M_p apply, so
the same walk solves block (a, 0) as the one-slot row a of the p ray
with each part read as (0, c).  Each slot of a list keeps the
arithmetic of the per-block walk (the tests' reference,
tests/oracles.py): its right-hand side over the lcm of its sources'
denominators times the lift's, an exactness test on every division, at
an inexact division the Bareiss rescale of that slot alone, to the
depth of its own right-hand side, and one closing gcd.  So every block
j_series returns equals the per-block solve's bit for bit.  Only the
rows that a later row reads are kept: b - d (a - c on the base row), d
(c) up to the largest d of M_xi's q-parts (c of M_p's pure-q1 parts), 1
on the flagship.  identity_series reads entry 0 of each row, and a later
row reads only the source entries of the q-parts, so its walk keeps
those alone: a pass-through chain (one classical predecessor, no
right-hand side) outside them is folded into one division by a power
of the step.  On the flagship's xi ray that walks 17 of 30 entries;
every kept entry has the full walk's value.

The leading levels of such a pruned row take no division.  With b the
row's scale and den = 1, entry p of a slot is w_p = sum_t r_t*P_tp /
b^delta(t,p) over the right-hand side's targets t, P_tp summing the
weighted classical paths from t to p and delta(t,p) = level[p] -
level[t] + 1 counting the divisions on them.  Every q-part has d >= 1,
so every r_t carries fall[d] = (b!/(b-d)!)^d2, a multiple of b^kappa,
kappa = d2 (d1 on the base row, whose scale is a).  With lo the lowest
level of any target and depth(p) = level[p] - lo + 1 >= delta(t,p), an
entry of depth at most kappa is the integer w_p / b^(kappa - depth(p)) =
sum_t (r_t / b^kappa) * b^(depth(t) - 1) * P_tp: Bareiss's fraction-free
bound, each of those divisions exact by construction.  So the walk gives
a target in that region the scalar fall[d] // b^kappa * b^(depth(t) -
1), sums its entries with no division and no exactness test, and the
first level past it reads true values; each entry there divides by the
step to the power of its divisions past the region, and a kept entry
inside it is lifted by b^(kappa - depth(p)).  On the flagship's xi ray
11 of the 17 walked entries lie in the region, and the other 6 divide by
step powers summing to 10.  A lift with den > 1
divides by den*b, which the right-hand side does not carry, and j_series
walks every entry one division each, as above.

A block of the unit row is one flat integer vector w over one
denominator D, in lowest terms, entry j at j for n basis elements.  It
solves the row equation s*w - w*C = r: C raises degree, so its first
row is zero and the left product C*F adds nothing to row one (the
tests' full frames replace C by the two-sided action U -> U*C - C*U on
flat blocks).  Each matrix has one integer form, QuantumMatrix.lift,
every term over one denominator; a solve reads C from its classical
terms as integer adjacency lists, one per entry, together with each
entry's level and the walk order (columns descending), and the q-parts
from its other terms, as integer lists from a source entry to its
targets.  So the solve is one flat walk, each entry divided as soon as
it is computed (Bareiss's exact division).  Zeros and unit denominators
cost nothing: a zero block is neither walked nor read as a source, and
a denominator of 1 enters no lcm and multiplies nothing.

Every block is stored as the unit row of the scaled frame G_{a,b} =
(a!)^d1 (b!)^d2 F_{a,b}: both equations keep their left-hand side, the
source (a-c, b-d) on the right gets the integer weight (a!/(a-c)!)^d1
(b!/(b-d)!)^d2 from tables made once per solve, and the identity entry
is the Apery-normalized (a!)^d1 (b!)^d2 c_{a,b}.
Every entry carries a single implicit z-power, deg(row) - deg(col) +
a*d1 + b*d2 below zero; the exports (frames, the coefficient table)
restore it and divide by (a!)^d1 (b!)^d2.

The J-vector at index (a,b) is the first frame column, component i at
z^-(deg phi_i + a*d1 + b*d2); its identity component, the entry (0, 0)
it shares with the unit row, gives the coefficient table c_{a,b}.

Operators are checked on the matrices alone, in the quantum D-module:
with nabla_k = z q_k d/dq_k + M_k, L annihilates J exactly when w =
L(nabla) * 1 vanishes.  The frames satisfy (C_k + z q_k d/dq_k) F = F
nabla_k, so L on the J-series leaves F*w; F_{0,0} = I and every other
F_beta moves an index up, so w and F*w, cut at one order, share their
first nonzero index and its components.  The premise is flatness,
which the frame solve checks on the matrices.  The check reads the
same lift as the solve, in the column action on sparse chains where
the solve reads it in the row action on flat blocks.
"""

from collections import namedtuple
from fractions import Fraction
from itertools import repeat
from math import factorial, gcd, lcm, prod
from operator import add, floordiv, mod, mul

from qfano import opparse
from qfano.linalg import accumulate
from qfano.reconstruct import flatness_defect


class FlatnessError(ValueError):
    """The matrix pair fails flatness_defect; the system is not flat."""


class NonIntegralError(ValueError):
    """A factorially normalized coefficient is not an integer."""


# One ray's row equation s*w - w*A = r on the unit row, entry j at j,
# with A = C = Cint/den the classical matrix, den being the one
# denominator of the matrix's lift.  walk lists the pairs (p, adj)
# columns descending, adj holding the pairs (q, Cint[q][p]): C raises
# degree by exactly one (set_column enforces the grading), so q > p and
# each entry reads entries already walked; level[p] is -deg(p) and top
# the highest level.  parts = {(c, d): [(k, [(j, int), ...]), ...]} lifts
# each q-part, over the same den: the source entry k adds to the entries
# j it reaches.
Ray = namedtuple("Ray", "den walk level top parts")


def _split_matrix(qmat):
    """The Ray of a QuantumMatrix on the unit row, read off its lift and
    built once per solve: the (0, 0) terms fill A = C, the others the
    q-parts in the row action."""
    size = qmat.spec.size
    columns, den = qmat.lift()
    adj = [[] for _ in range(size)]
    parts = {}
    for k, col in enumerate(columns):
        for i, c, d, v in col:
            if c or d:
                parts.setdefault((c, d), {}).setdefault(i, []).append((k, v))
            else:
                adj[k].append((i, v))
    level = [-qmat.spec.degree(j) for j in range(size)]
    return Ray(den, [(p, adj[p]) for p in range(size - 1, -1, -1)],
               level, max(level),
               {key: list(part.items()) for key, part in parts.items()})


def _falling(order, top, d):
    """[(a!/(a-c)!)^d for c <= min(a, top)] for each a <= order."""
    return [[prod(range(a - c + 1, a + 1)) ** d
             for c in range(min(a, top) + 1)] for a in range(order + 1)]


def _bareiss_factor(scale, ray, levels):
    """ray.den^depth * scale^(depth+1), the factor that makes every later
    division of a block's walk exact, depth being ray.top less the
    lowest of `levels`, the levels of the block's nonzero right-hand
    side entries: with lo that level, an entry at level lo + m times
    L*den^m*scale^(m+1) is an integer of fraction-free (Bareiss)
    elimination, L the right-hand side's denominator."""
    depth = ray.top - min(levels)
    return ray.den ** depth * scale ** (depth + 1)


class JSeries:
    """The unit row of the flat frames up to a total order.

    blocks maps (a, b) to the scaled unit row of G_{a,b} as (flat integer
    vector, D), entry j being the frame entry (0, j) as vec[j] / D with
    the z-grid implicit; an export divides each block by weight(a, b).
    A block of more leading rows, entry (i, j) at i*n + j, reads the
    same way.
    """

    def __init__(self, spec):
        self.spec = spec
        self.blocks = {}

    def weight(self, a, b):
        """(a!)^d1 (b!)^d2, the scale of the stored block at (a, b)."""
        return factorial(a) ** self.spec.d1 * factorial(b) ** self.spec.d2

    @property
    def frames(self):
        """{(a, b): the rows of F_{a,b} that a block holds, as a Fraction
        matrix}, exported on every read: the 1 x n leading row for
        j_series."""
        n = self.spec.size
        out = {}
        for key, (vec, den) in self.blocks.items():
            den *= self.weight(*key)
            out[key] = [[Fraction(x, den) for x in vec[i:i + n]]
                        for i in range(0, len(vec), n)]
        return out


def _setup(mp, mxi, spec, order, weights):
    """(rays, falling) of a unit-row solve to `order`: the Ray of M_p and
    of M_xi and the falling-power tables of a and of b.  Refuses a
    negative order and weights below (1, 1) with ValueError, and a pair
    that fails flatness_defect with FlatnessError and its message, before
    any solve."""
    if order < 0:
        raise ValueError("truncation order must be >= 0")
    if min(weights) < 1:
        raise ValueError("weights (%d, %d) must be at least (1, 1)"
                         % tuple(weights))
    defect = flatness_defect(mp, mxi)
    if defect is not None:
        raise FlatnessError(defect)
    rays = (_split_matrix(mp), _split_matrix(mxi))
    keys = [key for ray in rays for key in ray.parts]
    return rays, [_falling(order, max((key[k] for key in keys), default=0), d)
                  for k, d in enumerate((spec.d1, spec.d2))]


def j_series(mp, mxi, spec, order):
    """The unit row of every frame with a + b <= order, read off the
    fibre-row walk of _unit_rows: block (a, b) is slot a of row b, and
    the blocks past a row's last nonzero slot are (zeros, 1).  A pair
    that is not flat raises FlatnessError."""
    js = JSeries(spec)
    for b, slots, (cols, dens, width) in _unit_rows(mp, mxi, spec, order,
                                                    (1, 1), True):
        for a in range(width):
            js.blocks[a, b] = ([col[a] if col else 0 for col in cols],
                               dens[a] if dens else 1)
        for a in range(width, slots):
            js.blocks[a, b] = ([0] * spec.size, 1)
    return js


def identity_coefficients(js):
    """The table c_{a,b}: identity component of J at its forced z-power."""
    return {key: Fraction(vec[0], den * js.weight(*key))
            for key, (vec, den) in js.blocks.items()}


# A row b of the unit row is stored entry-major as (cols, dens, width):
# cols[p] lists entry p of the blocks (a, b) for a < width, or is None
# where no source reached entry p; dens lists their denominators, or is
# None where all are 1.  width is one past the row's last nonzero block,
# and every block from width on is (zeros, 1).


def _row_shift_sum(kept, ray, b, slots, fcols, fall, plan):
    """The right-hand sides of the blocks (a, b), a < slots, of a row b
    on the rows kept, slot by slot as the per-block shift sum of the
    tests' reference (tests/oracles.py) builds each block's; a target's
    first contribution is placed as a new zero-padded list.

    Every q-part (c, d) of the ray has d >= 1: M_xi's by flatness, the
    transposed p ray's of a base row by construction (module docstring).
    So it reads row b - d, slot a - c, with the weight fcols[c][a - c] *
    fall[d], and each slot's denominator L is the lcm of its sources'.
    The sources come grouped as the plan's parts (_walk_plan): a group
    with exponent e writes targets inside the plan's division-free
    region, each carrying fall[d] // b^kappa * b^e in place of fall[d]
    (fall[d] is a multiple of b^kappa as d >= 1), so that the walk's
    entry there is sum_t r_t*P_tp / b^delta(t,p) times b^(kappa -
    depth(p)) on integers (module docstring).
    Returns (r, lcms, width): r[p] entry p over the slots below width or
    None where no source reaches it, lcms the L or None where all are 1;
    width is 0 when no source is nonzero."""
    used = []
    width = 0
    shed = b ** plan.kappa
    for (c, d), e, part in plan.parts:
        src = kept.get(b - d)
        if src is not None and src[2] and c < slots:
            m = min(src[2], slots - c)
            used.append((src, part, c,
                         fall[d] if e is None else fall[d] // shed * b ** e, m))
            width = max(width, c + m)
    lcms = None
    for (_, dens, _), _, c, _, m in used:
        if dens is not None:
            lcms = lcms or [1] * width
            lcms[c:c + m] = map(lcm, lcms[c:c + m], dens)
    out = [None] * len(ray.level)
    for (cols, dens, _), part, c, scalar, m in used:
        # the slot weights, None where all are 1: fcols[0] is all 1
        mult = fcols[c][:m] if c else None
        if lcms is not None:
            ratios = map(floordiv, lcms[c:c + m], dens or repeat(1))
            mult = list(ratios if mult is None else map(mul, mult, ratios))
        if scalar != 1:
            mult = ([scalar] * m if mult is None
                    else list(map(mul, mult, repeat(scalar))))
        for p, targets in part:
            x = cols[p]
            if x is None:
                continue
            if mult is not None:
                x = list(map(mul, x, mult))
            for t, v in targets:
                y = x if v == 1 else list(map(mul, x, repeat(v)))
                o = out[t]
                if o is None:
                    # a new list: x itself feeds the other targets
                    out[t] = [0] * c + y + [0] * (width - c - m)
                else:
                    o[c:c + m] = map(add, o[c:c + m], y)
    return out, lcms, width


# The walk plan of a row (_walk_plan): walk lists (p, adj, k) columns
# descending, entry p being adj's sum over step^k, k = 0 taking neither
# a division nor an exactness test; drop lists the walked entries that
# no reader takes, and lift the pairs (p, m) of kept entries that the
# walk leaves over scale^m.  parts lists ((c, d), e, [(k, [(t, v),
# ...]), ...]), the ray's q-parts grouped by the exponent e of their
# targets' scalar, e None outside the division-free region of the
# exponent kappa.
Plan = namedtuple("Plan", "walk drop lift kappa parts")


def _walk_plan(ray, keep, grading):
    """The Plan of a row along `ray`, of grading `grading` (d2 on the xi
    ray, d1 on the transposed p ray), whose readers take only the
    entries in the set `keep`.

    An entry is folded, never materialized, if it is not kept and it and
    each reader of it have one classical predecessor and no q-part
    target: the reader reads through it, with the product of the
    weights, and divides once by step^(k+1) over k folded entries.
    Every other entry is walked.  With keep every entry, walk is
    ray.walk with k = 1 and kappa is 0.

    On a pruned row of a ray with den 1, kappa is the grading.  With lo
    the lowest level of any q-part target and depth(p) = level[p] - lo +
    1, an entry at depth(p) <= kappa is walked with no division: every
    right-hand side carries b^kappa (module docstring), so the walk
    keeps the integer w_p / b^(kappa - depth(p)) there, a target at
    depth(t) <= kappa enters with the scalar fall[d] // b^kappa *
    b^(depth(t) - 1), and the first level past kappa reads true values.
    Every other entry divides by step^max(0, min(k, depth(p) - kappa)),
    a folded chain across the boundary too, and a kept entry inside the
    region is lifted by b^(kappa - depth(p)) after the walk."""
    if len(keep) == len(ray.level):
        return Plan([(p, preds, 1) for p, preds in ray.walk], [], [], 0,
                    [(key, None, part) for key, part in ray.parts.items()])
    fed = {t for part in ray.parts.values() for _, targets in part
           for t, _ in targets}
    kappa = grading if ray.den == 1 else 0
    lo = min((ray.level[t] for t in fed), default=0)
    depth = [lv - lo + 1 for lv in ray.level]
    groups = {}
    for key, part in ray.parts.items():
        for k, targets in part:
            for t, v in targets:
                e = depth[t] - 1 if depth[t] <= kappa else None
                groups.setdefault((key, e), {}).setdefault(k, []).append(
                    (t, v))
    adj = dict(ray.walk)
    bare = {p for p, preds in ray.walk if len(preds) == 1 and p not in fed}
    folded = bare - keep - {q for p, preds in ray.walk if p not in bare
                            for q, _ in preds}
    walk = []
    for p, preds in ray.walk:
        if p not in folded:
            e, row = 1, []
            for q, v in preds:
                while q in folded:
                    ((q, u),) = adj[q]
                    e, v = e + 1, v * u
                row.append((q, v))
            walk.append((p, row, max(0, min(e, depth[p] - kappa))))
    return Plan(walk, [p for p, _, _ in walk if p not in keep],
                [(p, kappa - depth[p]) for p in sorted(keep)
                 if 0 < depth[p] < kappa], kappa,
                [(key, e, list(group.items()))
                 for (key, e), group in groups.items()])


def _row_walk(scale, ray, rhs, plan):
    """Solve the blocks of a row at once, entry by entry along the walk
    of `plan` (_walk_plan) on the right-hand side that _row_shift_sum
    builds on the same plan, each slot with the arithmetic of the
    per-block walk of the tests' reference (tests/oracles.py): its
    right-hand side over L*ray.den, an exactness test on every division,
    at an inexact division the Bareiss rescale of that slot alone, by
    the factor of its own right-hand side, and one closing gcd per slot
    over a denominator other than 1.  A folded division by step^k takes
    the same test and rescale: the factor depends only on the slot's
    right-hand side levels, and makes every later division exact.  The
    plan's division-free region takes no division and no test: its entry
    w_p = sum_t r_t*P_tp / b^delta(t,p), every r_t carrying b^kappa, is
    held as the integer w_p / b^(kappa - depth(p)) (module docstring),
    and a rescale past it multiplies the region's entries as it does
    every other, so the kept ones lifted after the walk read the full
    walk's values.  So every kept entry has the full walk's value; as
    the closing gcd runs over the kept entries alone, a pruned row's
    (cols, dens) may still differ from the full walk's.  Returns the row
    (cols, dens, width), the entries outside the plan's keep set None,
    cut after its last nonzero block."""
    r, lcms, width = rhs
    step = ray.den * scale
    steps = repeat(step)
    dens = None
    if ray.den != 1:
        r = [x and list(map(mul, x, repeat(ray.den))) for x in r]
        dens = [ray.den] * width
    if lcms is not None:
        dens = list(map(mul, lcms, dens or repeat(1)))
    w = [None] * len(r)
    for p, adj, k in plan.walk:
        x = r[p]
        for q, v in adj:
            y = w[q]
            if y is not None:
                if v != 1:
                    y = map(mul, y, repeat(v))
                x = list(y) if x is None else list(map(add, x, y))
        if x is None:
            continue
        if k and step != 1:
            divs = steps if k == 1 else repeat(step ** k)
            if any(map(mod, x, divs)):
                # rescale slot a of every entry, walked or not, once per
                # list: x, and an entry walked with no division, may be
                # r[p] itself, so x is copied first
                div = step ** k
                x = list(x)
                dens = dens or [1] * width
                for a in [a for a, y in enumerate(x) if y % div]:
                    f = _bareiss_factor(scale, ray, [
                        lv for lv, col in zip(ray.level, r)
                        if col is not None and col[a]])
                    dens[a] *= f
                    x[a] *= f
                    for col in {id(col): col for col in w + r
                                if col is not None}.values():
                        col[a] *= f
            x = list(map(floordiv, x, divs))
        w[p] = x
    for p in plan.drop:
        w[p] = None
    for p, m in plan.lift:
        if w[p] is not None:
            w[p] = list(map(mul, w[p], repeat(scale ** m)))
    if dens is not None:
        g = dens
        for col in w:
            if col is not None:
                g = list(map(gcd, g, col))
        w = [col and list(map(floordiv, col, g)) for col in w]
        dens = list(map(floordiv, dens, g))
    return _cut(w, dens, width)


def _cut(cols, dens, width):
    """The row (cols, dens, width) cut after its last nonzero block, with
    dens None where every denominator is 1."""
    end = width
    while end and not any(col[end - 1] for col in cols if col is not None):
        end -= 1
    if end < width:
        cols = [col and col[:end] for col in cols]
        dens = dens and dens[:end]
    if dens is not None and dens.count(1) == end:
        dens = None
    return cols, dens, end


def _unit_rows(mp, mxi, spec, order, weights, whole):
    """Yield (b, slots, row) for each row b of the unit row over the
    indices with w1*a + w2*b <= order, a < slots, row as stored above.

    The base row b = 0 is solved one block at a time, block (a, 0) as
    the one-slot row a of the transposed p ray, reading the one-slot
    rows a - c; each fibre row b >= 1 reads only the rows b - d below it
    (module docstring) and is solved along the xi ray in one walk.  Only
    the rows that a later row can read are kept: row b - dmax - 1 (a -
    cmax - 1) is dropped before row b (base index a) is solved, dmax the
    largest d of M_xi's q-parts, cmax the largest c of M_p's pure-q1
    parts.  A row whose right-hand side reaches no entry is zero and is
    not walked.  Row one closes under each ray's equation on its own,
    so no other frame row is solved; with `whole` every block equals,
    bit for bit, the per-block solve of the unit row that the tests keep
    as the full-frame reference (tests/oracles.py).  Without it each row
    keeps only entry 0 and the source entries of the rays that read it,
    walked on one plan per ray (_walk_plan), with the full walk's values
    and every other entry None."""
    (pray, xray), falling = _setup(mp, mxi, spec, order, weights)
    w1, w2 = weights
    zero = [None] * spec.size, None, 0
    tray = pray._replace(parts={(0, c): part for (c, d), part
                                in pray.parts.items() if not d})
    keep = set(range(spec.size)) if whole else {0} | {
        k for part in xray.parts.values() for k, _ in part}
    plan = _walk_plan(tray, keep | {k for part in tray.parts.values()
                                    for k, _ in part}, spec.d1)
    cmax = max((c for _, c in tray.parts), default=0)
    base = [([[1]] + [None] * (spec.size - 1), None, 1)]
    live = {0: base[0]}
    for a in range(1, order // w1 + 1):
        live.pop(a - cmax - 1, None)
        rhs = _row_shift_sum(live, tray, a, 1, {0: [1]}, falling[0][a],
                             plan)
        live[a] = _row_walk(a, tray, rhs, plan) if any(rhs[0]) else zero
        base.append(live[a])
    row = _cut([list(col) if any(col) else None
                for col in zip(*([col[0] if col else 0 for col in cols]
                                 for cols, _, _ in base))],
               [dens[0] if dens else 1 for _, dens, _ in base], len(base))
    yield 0, len(base), row
    kept = {0: row}
    plan = _walk_plan(xray, keep, spec.d2)
    dmax = max((d for _, d in xray.parts), default=0)
    fcols = {c: [falling[0][a + c][c] for a in range(order + 1 - c)]
             for c, _ in xray.parts}
    for b in range(1, order // w2 + 1):
        kept.pop(b - dmax - 1, None)
        slots = (order - w2 * b) // w1 + 1
        rhs = _row_shift_sum(kept, xray, b, slots, fcols, falling[1][b],
                             plan)
        row = _row_walk(b, xray, rhs, plan) if any(rhs[0]) else zero
        kept[b] = row
        yield b, slots, row


def identity_series(mp, mxi, spec, order, weights=(1, 1)):
    """The table (a!)^d1 (b!)^d2 c_{a,b}, an int where integral and else a
    Fraction, to high order: the frame solve on the unit row, over the
    indices with w1*a + w2*b <= order for weights (w1, w2) >= (1, 1),
    keyed row by row, b ascending.

    The unit row is solved one fibre row at a time (_unit_rows), as for
    j_series, but each row walks only entry 0 and the entries a later
    row reads, on the pruned plan of _walk_plan; a pair that is not flat
    raises FlatnessError.  The table is read off entry 0 of each row,
    with each block's denominator, and no row is kept.
    """
    table = {}
    for b, slots, (cols, dens, width) in _unit_rows(mp, mxi, spec, order,
                                                    weights, False):
        first = cols[0] or [0] * width
        keys = zip(range(width), repeat(b))
        if dens is None:
            table.update(zip(keys, first))
        else:
            table.update((key, Fraction(x, den) if x % den else x // den)
                         for key, x, den in zip(keys, first, dens))
        table.update(zip(zip(range(width, slots), repeat(b)), repeat(0)))
    return table


def apery_table(js, size):
    """The size x size table (i!)^d1 (j!)^d2 c_{i,j}, read off the stored
    identity entries; entries must come out integer."""
    out = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            if (i, j) not in js.blocks:
                raise ValueError(
                    "coefficient table does not reach (%d,%d); recompute "
                    "with order >= %d" % (i, j, i + j))
            vec, den = js.blocks[(i, j)]
            if vec[0] % den:
                raise NonIntegralError(
                    "normalized coefficient (%d,%d) is not an integer: %s"
                    % (i, j, Fraction(vec[0], den)))
            out[i][j] = vec[0] // den
    return out


OpTerm = namedtuple("OpTerm", "coeff q1 q2 z d1 d2")

_OP_ATOMS = ("q1", "q2", "z", "D1", "D2")


def parse_operator(text):
    """Parse a differential operator in the atoms D1, D2, q1, q2, z.

    Term factors commute textually; the result is read in normal order
    (coefficient times q- and z-powers on the left, derivations on the
    right).  Like terms merge in order of first appearance and drop out
    when they cancel, so "0" and "D1 - D1" parse to the empty operator.
    """
    terms = {}
    for chunk in opparse.split_terms(text):
        coeff, pw = opparse.parse_term(chunk, _OP_ATOMS)
        accumulate(terms, [(tuple(pw[atom] for atom in _OP_ATOMS), coeff)])
    return [OpTerm(coeff, *powers) for powers, coeff in terms.items()]


def _nabla(chain, lift, along, order):
    """One step nabla_k, along = k - 1, on a chain ({(a, b, i): int}, D)
    of the entries with a + b <= order, M_k read from its lift: z q_k
    d/dq_k multiplies an entry by its index along ray k (z-powers are
    implicit) and column j of M_k carries it to the entries it reaches
    within the order.  No zero is stored, and a lift with den > 1 costs
    one gcd."""
    (vec, den), (columns, dm) = chain, lift
    out = {}
    for (a, b, j), x in vec.items():
        s = (a, b)[along]
        if s:
            out[a, b, j] = out.get((a, b, j), 0) + s * dm * x
        for i, c, d, v in columns[j]:
            if a + b + c + d <= order:
                key = a + c, b + d, i
                out[key] = out.get(key, 0) + v * x
    g = gcd(den * dm, *out.values()) if dm > 1 else 1
    return {key: x // g for key, x in out.items() if x}, den * dm // g


def check_operator(ops, mp, mxi, order):
    """Per operator L, None if w = L(nabla) * 1 vanishes at every index
    (a, b) with a + b <= order, else a diagnostic naming the first
    nonzero index and component of w and its z-terms.

    Each chain D1^k D2^l * 1 is built once for all operators, as a
    sparse map over the entries (a, b, i) it reaches, so its cost
    follows the chain and not the order.  Its entries all have weight
    k + l, so a term's z-power d1 + d2 + z - a*spec.d1 - b*spec.d2 -
    deg(i) is read at the source index (a, b) of the chain entry.  A
    flat system's J-series residual F*w shares that report (module
    docstring): callers check flatness first (j_series).
    """
    spec = mp.spec
    lifts = (mp.lift(), mxi.lift())
    chains = {(0, 0): ({(0, 0, 0): 1}, 1)}
    # D1^k D2^l extends D1^k D2^(l-1), or D1^(k-1) when l = 0
    for k, l in {(t.d1, t.d2) for op in ops for t in op}:
        for x, y in [(x, 0) for x in range(k + 1)] + [
                (k, y) for y in range(l + 1)]:
            if (x, y) not in chains:
                chains[(x, y)] = _nabla(
                    chains[(x, y - 1) if y else (x - 1, 0)], lifts[y > 0],
                    y > 0, order)
    reports = []
    for op in ops:
        used = [(t, chains[(t.d1, t.d2)]) for t in op]
        den = lcm(*(d * t.coeff.denominator for t, (_, d) in used))
        w = {}
        for t, (vec, d) in used:
            m = t.coeff.numerator * (den // (d * t.coeff.denominator))
            for (a, b, i), x in vec.items():
                if a + b + t.q1 + t.q2 <= order:
                    key = (a + t.q1, b + t.q2, i, t.d1 + t.d2 + t.z
                           - a * spec.d1 - b * spec.d2 - spec.degree(i))
                    w[key] = w.get(key, 0) + m * x
        hit = min((key[:3] for key, x in w.items() if x), default=None)
        if hit:
            hit = "residual nonzero at index (%d,%d), component %d: %s" % (
                hit[0], hit[1], hit[2] + 1, ", ".join(
                    "%s*z^%d" % (Fraction(x, den), key[3])
                    for key, x in sorted(w.items())
                    if key[:3] == hit and x))
        reports.append(hit)
    return reports
